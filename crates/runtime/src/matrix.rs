//! The core matrix value type.

use cmm_rc::RcBuf;

use crate::element::Element;
use crate::error::{MatrixError, Result};
use crate::shape::Shape;

/// An arbitrary-rank, immutable matrix over reference-counted storage.
///
/// Cloning a `Matrix` is O(1): it bumps the reference count of the shared
/// buffer (the 4-byte header count of §III-B). Operations build new
/// matrices rather than writing in place.
///
/// ```
/// use cmm_runtime::Matrix;
/// let m = Matrix::from_vec([2, 3], vec![1, 2, 3, 4, 5, 6]).unwrap();
/// assert_eq!(m.get(&[1, 2]).unwrap(), 6);
/// assert_eq!(m.dim_size(1), 3);
/// ```
#[derive(Clone)]
pub struct Matrix<T: Element> {
    shape: Shape,
    data: RcBuf<T>,
}

impl<T: Element> Matrix<T> {
    /// Matrix from row-major element data; the length must match the shape.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<T>) -> Result<Self> {
        let shape = shape.into();
        if data.len() != shape.len() {
            return Err(MatrixError::ShapeMismatch {
                left: shape.dims().to_vec(),
                right: vec![data.len()],
                op: "from_vec",
            });
        }
        Ok(Matrix {
            data: RcBuf::from_slice(&data),
            shape,
        })
    }

    /// Build from parts (crate-internal fast path).
    pub(crate) fn from_parts(shape: Shape, data: RcBuf<T>) -> Self {
        debug_assert_eq!(shape.len(), data.len());
        Matrix { shape, data }
    }

    /// The shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Size of dimension `d` (`dimSize(m, d)` in extended C).
    #[inline]
    pub fn dim_size(&self, d: usize) -> usize {
        self.shape.dim(d)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.shape.len()
    }

    /// Whether the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row-major element slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        self.data.as_slice()
    }

    /// Element at a multi-index.
    pub fn get(&self, idx: &[usize]) -> Result<T> {
        Ok(self.as_slice()[self.shape.offset(idx)?])
    }

    /// Apply `f` to every element, producing a matrix of the same shape.
    pub fn map<U: Element>(&self, mut f: impl FnMut(T) -> U) -> Matrix<U> {
        let src = self.as_slice();
        Matrix {
            shape: self.shape.clone(),
            data: RcBuf::from_fn(src.len(), |i| f(src[i])),
        }
    }
}

impl<T: Element> PartialEq for Matrix<T> {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.as_slice() == other.as_slice()
    }
}

impl<T: Element> std::fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Matrix{} ", self.shape)?;
        let max = 32.min(self.len());
        write!(f, "{:?}", &self.as_slice()[..max])?;
        if self.len() > max {
            write!(f, " … ({} elements)", self.len())?;
        }
        Ok(())
    }
}
