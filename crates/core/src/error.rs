//! Core-layer errors.

use imp_engine::EngineError;
use imp_sketch::SketchError;
use std::fmt;

/// Errors from the incremental engine and middleware.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Backend engine failure.
    Engine(EngineError),
    /// Sketch-layer failure.
    Sketch(SketchError),
    /// Plan shape the incremental engine does not support.
    Unsupported(String),
    /// Operator state diverged from the database (e.g. negative counts) —
    /// indicates a delta was skipped or applied twice.
    StateCorrupt(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Engine(e) => write!(f, "{e}"),
            CoreError::Sketch(e) => write!(f, "{e}"),
            CoreError::Unsupported(m) => write!(f, "unsupported: {m}"),
            CoreError::StateCorrupt(m) => write!(f, "operator state corrupt: {m}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Engine(e) => Some(e),
            CoreError::Sketch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for CoreError {
    fn from(e: EngineError) -> Self {
        CoreError::Engine(e)
    }
}

impl From<SketchError> for CoreError {
    fn from(e: SketchError) -> Self {
        CoreError::Sketch(e)
    }
}

impl From<imp_sql::SqlError> for CoreError {
    fn from(e: imp_sql::SqlError) -> Self {
        CoreError::Engine(EngineError::Sql(e))
    }
}

impl From<imp_storage::StorageError> for CoreError {
    fn from(e: imp_storage::StorageError) -> Self {
        CoreError::Engine(EngineError::Storage(e))
    }
}
