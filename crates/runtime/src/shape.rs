//! Shapes and row-major index arithmetic.

use crate::error::{MatrixError, Result};

/// Dimension sizes of a matrix, in row-major order (last dimension varies
/// fastest, matching the C code the translator generates).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Shape from dimension sizes. Rank 0 is allowed and holds one element
    /// (the outer shape of a `matrixMap` over every dimension).
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        Shape(dims.into())
    }

    /// Dimension sizes.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Size of dimension `d`.
    #[inline]
    pub fn dim(&self, d: usize) -> usize {
        self.0[d]
    }

    /// Total number of elements (1 for rank 0).
    #[inline]
    pub fn len(&self) -> usize {
        self.0.iter().product()
    }

    /// Whether the shape contains no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flat offset of a multi-index, with bounds checking.
    pub fn offset(&self, idx: &[usize]) -> Result<usize> {
        if idx.len() != self.rank() {
            return Err(MatrixError::IndexArity {
                rank: self.rank(),
                supplied: idx.len(),
            });
        }
        let mut off = 0usize;
        for (d, (&i, &n)) in idx.iter().zip(&self.0).enumerate() {
            if i >= n {
                return Err(MatrixError::IndexOutOfBounds {
                    dim: d,
                    index: i,
                    size: n,
                });
            }
            off = off * n + i;
        }
        Ok(off)
    }

    /// Flat offset without bounds checking (callers guarantee validity).
    #[inline]
    pub fn offset_unchecked(&self, idx: &[usize]) -> usize {
        let mut off = 0usize;
        for (&i, &n) in idx.iter().zip(&self.0) {
            off = off * n + i;
        }
        off
    }

    /// Multi-index of a flat offset (inverse of [`Shape::offset_unchecked`]).
    pub fn unravel(&self, mut flat: usize, out: &mut [usize]) {
        debug_assert_eq!(out.len(), self.rank());
        for d in (0..self.rank()).rev() {
            let n = self.0[d];
            out[d] = flat % n;
            flat /= n;
        }
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape(dims.to_vec())
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " x ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}
