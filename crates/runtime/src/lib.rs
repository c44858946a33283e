//! Native matrix support for the CMINUS matrix extension (paper §III-A).
//!
//! Compiled programs do not run on this crate's matrices: `cmm-lang`
//! lowering turns with-loops, indexing and the overloaded operators into
//! loop IR, and the loop-IR tiers and the emitted C carry their own
//! buffers. What they share with this crate is written here once:
//!
//! * [`kernels`] — the matrix-product row kernel the VM calls for `a * b`
//!   ([`kernels::matmul_rows`], baseline and AVX2 copies, handed out in
//!   row tiles by [`kernels::try_matmul_tiles`]), plus the native mirror kernels
//!   (naive / 4-lane vectorized / parallel loop nests) of Figs 3, 10 and
//!   11 that the benchmark times. `matmul_tiled` does not block:
//!   it runs the row kernel over row tiles of its `t`, which stays for the
//!   benchmark's `runtime.*` probes.
//! * [`cmmx`] — the self-describing matrix file codec behind the paper's
//!   `readMatrix` / `writeMatrix`, shared by the interpreter, the emitted
//!   C and [`read_matrix`] / [`write_matrix`].
//! * [`Matrix<T>`] and [`matrix_map`] — the small native matrix type the
//!   `cmm-eddy` mirror of Figs 4 and 8 is written against (arbitrary rank,
//!   `int` / `float` / `bool` elements over [`cmm_rc::RcBuf`] storage),
//!   with `matrixMap` (§III-A5) parallelized over a
//!   [`cmm_forkjoin::ForkJoinPool`]; tests and examples diff compiled
//!   programs against it.

pub mod cmmx;
mod element;
mod error;
mod io;
pub mod kernels;
mod map;
mod matrix;
mod shape;

pub use element::{Element, Numeric};
pub use error::{MatrixError, Result};
pub use io::{read_matrix, write_matrix};
pub use map::matrix_map;
pub use matrix::Matrix;
pub use shape::Shape;

#[cfg(test)]
mod tests;
