//! Sketch-layer errors.

use imp_engine::EngineError;
use std::fmt;

/// Errors from partitioning, capture, or rewriting.
#[derive(Debug, Clone, PartialEq)]
pub enum SketchError {
    /// Underlying engine failure.
    Engine(EngineError),
    /// Partition cut points not strictly increasing, empty attribute, etc.
    InvalidPartition(String),
    /// Attribute failed the safety test and safety was not overridden.
    UnsafeAttribute {
        /// Table of the attribute.
        table: String,
        /// Attribute name.
        attribute: String,
    },
    /// The query shape is outside what sketches support.
    Unsupported(String),
}

impl fmt::Display for SketchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SketchError::Engine(e) => write!(f, "{e}"),
            SketchError::InvalidPartition(m) => write!(f, "invalid partition: {m}"),
            SketchError::UnsafeAttribute { table, attribute } => {
                write!(f, "attribute {table}.{attribute} is not safe for sketching")
            }
            SketchError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for SketchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SketchError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for SketchError {
    fn from(e: EngineError) -> Self {
        SketchError::Engine(e)
    }
}

impl From<imp_sql::SqlError> for SketchError {
    fn from(e: imp_sql::SqlError) -> Self {
        SketchError::Engine(EngineError::Sql(e))
    }
}

impl From<imp_storage::StorageError> for SketchError {
    fn from(e: imp_storage::StorageError) -> Self {
        SketchError::Engine(EngineError::Storage(e))
    }
}
