//! Loop-nest intermediate representation.
//!
//! The translator expands matrix constructs into "the same type of nested
//! for-loops" that loop-transforming compilers target (§V). This crate is
//! that target: a small C-like IR of scalars, reference-counted matrix
//! buffers, and loop nests, shared by
//!
//! * the lowering in `cmm-lang` (with-loops, `matrixMap`, indexing and
//!   tuples all compile to this IR plus runtime calls),
//! * the `[ext-transform]` loop transformations ([`transform`]): `split`,
//!   `reorder`, `interchange`, `unroll`, `tile`, `vectorize`,
//!   `parallelize`, applied in source order exactly as §V describes,
//! * the C emitter ([`emit`]), which prints the IR as plain parallel C —
//!   OpenMP pragma for parallel loops, SSE intrinsics for vectorized
//!   loops, and a self-contained C runtime (refcounted matrices, CMMX
//!   file IO) so the output compiles with `gcc -fopenmp` alone,
//! * the interpreter ([`interp`]), which executes IR programs directly in
//!   Rust on top of `cmm-forkjoin`, so every compiled program can also be
//!   run and measured without a C toolchain,
//! * the native kernels ([`kernels`]): the matrix-product row kernel the
//!   VM calls for `a * b`, and the CMMX matrix file codec ([`cmmx`])
//!   behind `readMatrix` / `writeMatrix`.

pub mod cmmx;
pub mod emit;
pub mod interp;
mod ir;
mod kernel;
pub mod kernels;
mod resolve;
mod scalar_loop;
pub mod snapshot;
pub mod transform;
mod vm;

pub use cmmx::CmmxError;
pub use emit::EmitError;
pub use interp::{
    BoxedLoop, BufHandle, FnProfile, Interp, InterpError, InterpErrorKind, InterpProfile,
    LimitKind, Limits, LoopCost, Tier, Value,
};
pub use cmm_forkjoin::{
    schedule::DEFAULT_DYNAMIC_CHUNK, schedule::DEFAULT_GUIDED_MIN_CHUNK, ForkJoinPool, Schedule,
};
pub use ir::{
    Builtin, CType, Elem, ForLoop, IrBinOp, IrExpr, IrFunction, IrProgram, IrStmt, KernelCall,
    Name, MAX_RANK,
};
pub use scalar_loop::{StripIsa, STRIP as UNBOXED_STRIP};
pub use transform::TransformError;

#[cfg(test)]
mod tests;
