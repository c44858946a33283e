//! Matrix runtime for the CMINUS matrix extension (paper §III-A).
//!
//! This crate is the execution substrate that generated (or interpreted)
//! extended-C programs call into. It provides:
//!
//! * [`Matrix<T>`] — arbitrary-rank matrices of `int` / `float` / `bool`
//!   elements over reference-counted storage ([`cmm_rc::RcBuf`]), matching
//!   the paper's `Matrix (int|bool|float) <k>` type.
//! * MATLAB-style indexing ([`Ix`], [`Matrix::index_get`],
//!   [`Matrix::index_set`]): single element, inclusive ranges with `end`,
//!   whole-dimension `:`, and logical (boolean-mask) indexing, in any
//!   combination, on either side of an assignment (§III-A3).
//! * Overloaded element-wise arithmetic and comparisons with matrix–scalar
//!   broadcasting, plus linear-algebra matrix multiplication (§III-A2).
//! * The SAC-style `with`-loop execution engines [`genarray`] and [`fold`]
//!   and the [`matrix_map`] construct (§III-A4/5), all parallelized over a
//!   [`cmm_forkjoin::ForkJoinPool`].
//! * Binary matrix IO ([`read_matrix`], [`write_matrix`]) backing the
//!   paper's `readMatrix` / `writeMatrix` built-ins.
//! * [`kernels`] — native mirror kernels (naive / tiled / 4-lane vectorized
//!   / parallel loop nests) used by the transformation-ablation benchmarks
//!   (experiments E7, E11, E14), mirroring the C loop nests of Figs 3,
//!   10 and 11.

pub mod cmmx;
mod element;
mod error;
mod index;
mod io;
pub mod kernels;
mod map;
mod matrix;
pub mod ops;
mod shape;
mod withloop;

pub use element::{ElemType, Element, Numeric};
pub use error::{MatrixError, Result};
pub use index::Ix;
pub use io::{read_matrix, write_matrix};
pub use map::{matrix_map, matrix_map_seq};
pub use matrix::Matrix;
pub use ops::range_vector;
pub use shape::Shape;
pub use withloop::{fold, fold_seq, genarray, genarray_seq, modarray, modarray_seq, FoldOp};

#[cfg(test)]
mod tests;
