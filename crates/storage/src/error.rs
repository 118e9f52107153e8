//! Storage-level errors.

use crate::value::DataType;
use std::fmt;

/// Errors produced by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A value of the wrong type was pushed into a column.
    TypeMismatch {
        /// Type the column stores.
        expected: DataType,
        /// What was provided (None = NULL into non-nullable).
        found: Option<DataType>,
    },
    /// NULL pushed into a non-nullable column.
    NullViolation {
        /// Column name.
        column: String,
    },
    /// A row with the wrong arity was appended to a table.
    ArityMismatch {
        /// Schema arity.
        expected: usize,
        /// Row arity.
        found: usize,
    },
    /// Unknown column name.
    UnknownColumn(String),
    /// Unknown table name.
    UnknownTable(String),
    /// A table with this name already exists.
    DuplicateTable(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::TypeMismatch { expected, found } => match found {
                Some(t) => write!(f, "type mismatch: expected {expected}, found {t}"),
                None => write!(f, "type mismatch: expected {expected}, found NULL"),
            },
            StorageError::NullViolation { column } => {
                write!(f, "NULL value in non-nullable column {column}")
            }
            StorageError::ArityMismatch { expected, found } => {
                write!(
                    f,
                    "arity mismatch: expected {expected} values, found {found}"
                )
            }
            StorageError::UnknownColumn(c) => write!(f, "unknown column {c}"),
            StorageError::UnknownTable(t) => write!(f, "unknown table {t}"),
            StorageError::DuplicateTable(t) => write!(f, "table {t} already exists"),
        }
    }
}

impl std::error::Error for StorageError {}
