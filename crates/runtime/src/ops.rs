//! Overloaded matrix arithmetic (§III-A2).
//!
//! The extension overloads the host arithmetic and comparison operators:
//! element-wise `+ - / %` (and `.*` for element-wise multiplication),
//! linear-algebra `*` on rank-2 matrices, matrix–scalar broadcasting in
//! both directions, and comparisons producing boolean matrices (the input
//! to logical indexing). The extended type system guarantees operand
//! shapes agree where it can; the runtime re-checks dynamically.

use crate::element::Numeric;
use crate::error::{MatrixError, Result};
use crate::kernels::matmul_rows;
use crate::matrix::Matrix;
use crate::shape::Shape;

macro_rules! elementwise {
    ($name:ident, $doc:literal, $op:tt) => {
        #[doc = $doc]
        pub fn $name(&self, rhs: &Matrix<T>) -> Result<Matrix<T>> {
            self.zip_with(rhs, stringify!($name), |a, b| a $op b)
        }
    };
}

macro_rules! scalar_op {
    ($name:ident, $doc:literal, $op:tt) => {
        #[doc = $doc]
        pub fn $name(&self, s: T) -> Matrix<T> {
            self.map(|a| a $op s)
        }
    };
}

macro_rules! comparison {
    ($name:ident, $doc:literal, $op:tt) => {
        #[doc = $doc]
        pub fn $name(&self, rhs: &Matrix<T>) -> Result<Matrix<bool>> {
            self.zip_with(rhs, stringify!($name), |a, b| a $op b)
        }
    };
}

macro_rules! scalar_comparison {
    ($name:ident, $doc:literal, $op:tt) => {
        #[doc = $doc]
        pub fn $name(&self, s: T) -> Matrix<bool> {
            self.map(|a| a $op s)
        }
    };
}

impl<T: Numeric> Matrix<T> {
    elementwise!(add, "Element-wise sum of two equal-shaped matrices.", +);
    elementwise!(sub, "Element-wise difference of two equal-shaped matrices.", -);
    elementwise!(mul_elem, "Element-wise product (the paper's dedicated element-wise multiplication operator).", *);
    elementwise!(div, "Element-wise quotient of two equal-shaped matrices.", /);
    elementwise!(rem, "Element-wise remainder of two equal-shaped matrices.", %);

    scalar_op!(add_scalar, "Add a scalar to every element.", +);
    scalar_op!(sub_scalar, "Subtract a scalar from every element.", -);
    scalar_op!(mul_scalar, "Multiply every element by a scalar.", *);
    scalar_op!(div_scalar, "Divide every element by a scalar.", /);
    scalar_op!(rem_scalar, "Remainder of every element by a scalar.", %);

    /// Subtract every element from a scalar (`s - m`).
    pub fn rsub_scalar(&self, s: T) -> Matrix<T> {
        self.map(|a| s - a)
    }

    /// Divide a scalar by every element (`s / m`).
    pub fn rdiv_scalar(&self, s: T) -> Matrix<T> {
        self.map(|a| s / a)
    }

    comparison!(lt, "Element-wise `<`, producing a boolean matrix.", <);
    comparison!(le, "Element-wise `<=`, producing a boolean matrix.", <=);
    comparison!(gt, "Element-wise `>`, producing a boolean matrix.", >);
    comparison!(ge, "Element-wise `>=`, producing a boolean matrix.", >=);
    comparison!(eq_elem, "Element-wise `==`, producing a boolean matrix.", ==);
    comparison!(ne_elem, "Element-wise `!=`, producing a boolean matrix.", !=);

    scalar_comparison!(lt_scalar, "Element-wise `< s`, producing a boolean matrix.", <);
    scalar_comparison!(le_scalar, "Element-wise `<= s`, producing a boolean matrix.", <=);
    scalar_comparison!(gt_scalar, "Element-wise `> s`, producing a boolean matrix.", >);
    scalar_comparison!(ge_scalar, "Element-wise `>= s`, producing a boolean matrix.", >=);
    scalar_comparison!(eq_scalar, "Element-wise `== s`, producing a boolean matrix.", ==);
    scalar_comparison!(ne_scalar, "Element-wise `!= s`, producing a boolean matrix.", !=);

    /// Element-wise negation (`-m`).
    pub fn neg(&self) -> Matrix<T> {
        self.map(|a| T::zero() - a)
    }

    /// Linear-algebra matrix multiplication of two rank-2 matrices
    /// (the meaning of `*` on matrices in the extension).
    pub fn matmul(&self, rhs: &Matrix<T>) -> Result<Matrix<T>> {
        if self.rank() != 2 {
            return Err(MatrixError::RankMismatch {
                expected: 2,
                found: self.rank(),
                op: "matmul",
            });
        }
        if rhs.rank() != 2 {
            return Err(MatrixError::RankMismatch {
                expected: 2,
                found: rhs.rank(),
                op: "matmul",
            });
        }
        let (m, k) = (self.dim_size(0), self.dim_size(1));
        let (k2, n) = (rhs.dim_size(0), rhs.dim_size(1));
        if k != k2 {
            return Err(MatrixError::ShapeMismatch {
                left: self.shape().dims().to_vec(),
                right: rhs.shape().dims().to_vec(),
                op: "matmul",
            });
        }
        let mut out = vec![T::zero(); m * n];
        // Tiles sized so an A panel, a B panel and a C block fit in L1d
        // together, so large operands stream instead of thrashing.
        let t = cmm_forkjoin::TilePolicy::from_geometry(cmm_forkjoin::cache_geometry())
            .matmul_tile(std::mem::size_of::<T>());
        matmul_rows(self.as_slice(), rhs.as_slice(), &mut out, 0..m, k, n, t);
        Matrix::from_vec(Shape::new(vec![m, n]), out)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> T {
        self.as_slice()
            .iter()
            .fold(T::zero(), |acc, &x| acc + x)
    }
}

impl Matrix<bool> {
    /// Element-wise logical AND.
    pub fn and(&self, rhs: &Matrix<bool>) -> Result<Matrix<bool>> {
        self.zip_with(rhs, "and", |a, b| a && b)
    }

    /// Element-wise logical OR.
    pub fn or(&self, rhs: &Matrix<bool>) -> Result<Matrix<bool>> {
        self.zip_with(rhs, "or", |a, b| a || b)
    }

    /// Element-wise logical NOT.
    pub fn not(&self) -> Matrix<bool> {
        self.map(|a| !a)
    }

    /// Number of `true` elements (useful for logical-index cardinality).
    pub fn count_true(&self) -> usize {
        self.as_slice().iter().filter(|&&b| b).count()
    }
}

impl Matrix<i32> {
    /// Convert to a float matrix (the translator's implicit int→float cast).
    pub fn to_float(&self) -> Matrix<f32> {
        self.map(|a| a as f32)
    }
}

impl Matrix<f32> {
    /// Truncate to an int matrix (the translator's explicit float→int cast).
    pub fn to_int(&self) -> Matrix<i32> {
        self.map(|a| a as i32)
    }
}

/// 1-D ramp `lo..=hi` (the `(x1::x2)` vector-literal of Fig 8 line 27).
pub fn range_vector(lo: i32, hi: i32) -> Matrix<i32> {
    if lo > hi {
        return Matrix::from_vec([0usize], Vec::new()).expect("empty range vector");
    }
    let data: Vec<i32> = (lo..=hi).collect();
    let n = data.len();
    Matrix::from_vec([n], data).expect("range vector shape")
}
