//! Errors of the native matrix type: shape and index checks, `matrixMap`
//! requests, and matrix file IO.

use std::fmt;

/// Convenient result alias for fallible matrix operations.
pub type Result<T> = std::result::Result<T, MatrixError>;

/// Error raised by a dynamic matrix-runtime check.
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixError {
    /// Element data does not fit the requested shape.
    ShapeMismatch {
        /// Requested shape.
        left: Vec<usize>,
        /// Shape of the data supplied.
        right: Vec<usize>,
        /// Operation being performed.
        op: &'static str,
    },
    /// An index fell outside a dimension.
    IndexOutOfBounds {
        /// Dimension indexed.
        dim: usize,
        /// Offending index.
        index: usize,
        /// Size of that dimension.
        size: usize,
    },
    /// Number of subscripts differs from the matrix rank.
    IndexArity {
        /// Matrix rank.
        rank: usize,
        /// Number of subscripts supplied.
        supplied: usize,
    },
    /// `matrixMap` was given an invalid dimension list.
    BadMapDims {
        /// The dimension list supplied.
        dims: Vec<usize>,
        /// Rank of the matrix being mapped over.
        rank: usize,
    },
    /// The mapped function changed the slice shape (the paper's restriction:
    /// "the result is always the same size and rank as the matrix getting
    /// mapped over").
    MapShapeChanged {
        /// Shape of the input slice.
        expected: Vec<usize>,
        /// Shape the function returned.
        found: Vec<usize>,
    },
    /// Matrix IO failure.
    Io(String),
    /// Malformed matrix file.
    Format(String),
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::ShapeMismatch { left, right, op } => write!(
                f,
                "shape mismatch in {op}: left {left:?} vs right {right:?}"
            ),
            MatrixError::IndexOutOfBounds { dim, index, size } => {
                write!(f, "index {index} out of bounds for dimension {dim} of size {size}")
            }
            MatrixError::IndexArity { rank, supplied } => {
                write!(f, "matrix of rank {rank} indexed with {supplied} subscripts")
            }
            MatrixError::BadMapDims { dims, rank } => {
                write!(f, "matrixMap dimensions {dims:?} invalid for rank-{rank} matrix")
            }
            MatrixError::MapShapeChanged { expected, found } => write!(
                f,
                "matrixMap function changed slice shape from {expected:?} to {found:?}"
            ),
            MatrixError::Io(msg) => write!(f, "matrix IO error: {msg}"),
            MatrixError::Format(msg) => write!(f, "malformed matrix file: {msg}"),
        }
    }
}

impl std::error::Error for MatrixError {}

impl From<std::io::Error> for MatrixError {
    fn from(e: std::io::Error) -> Self {
        MatrixError::Io(e.to_string())
    }
}
