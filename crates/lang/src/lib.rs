//! The CMINUS host language: grammar, AST construction, semantic
//! analysis, high-level optimizations and lowering to the loop IR.
//!
//! This crate is the translator core that the composed extensions plug
//! into (paper §II, §III): [`grammar`] declares the host fragment;
//! [`builder`] holds the semantic actions that build the unified AST of
//! `cmm-ast` as any composed parser (extension productions included)
//! reduces, and derives every fragment's AG module from them;
//! [`typecheck`] performs the extended semantic analysis — operator
//! overloading on matrices, with-loop arity checks, tuple checking,
//! domain-specific error messages; [`optimize`] applies the
//! high-level matrix optimizations of §III-A4 (with-loop/assignment copy
//! elision and slice-index fusion, the optimizations "not possible via
//! libraries"); [`lower`] translates the checked AST down to the
//! plain-parallel-C loop IR of `cmm-loopir`, inserting the
//! reference-counting operations of §III-B.

pub mod builder;
pub mod builtins;
pub mod grammar;
pub mod lower;
pub mod optimize;
pub mod typecheck;

pub use builder::{ag_fragment, parse_program, BuildError, Handlers};
pub use builtins::SurfaceBuiltin;
pub use grammar::host_grammar;
pub use lower::{lower_functions, FunctionLowering, LowerOptions};
pub use optimize::fuse_slice_indices;
pub use typecheck::{check_program, Ext, ExtSet, FuncSig, TypeInfo};

#[cfg(test)]
mod tests;
