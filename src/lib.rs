//! # cmm — composable matrix-programming extensions for a C subset
//!
//! A from-scratch Rust reproduction of *"A Compiler Extension for Parallel
//! Matrix Programming"* (Williams, Le, Kaminski, Van Wyk — ICPP 2014): an
//! extensible translator for a C subset (CMINUS) whose matrix, tuple,
//! rc-pointer and loop-transformation extensions compose like libraries,
//! guarded by the modular determinism analysis (`isComposable`) and the
//! modular AG well-definedness analysis.
//!
//! ## Quick start
//!
//! ```
//! use cmm::core::Registry;
//!
//! let compiler = Registry::standard()
//!     .compiler(&["ext-matrix", "ext-tuples", "ext-rcptr", "ext-transform"])
//!     .unwrap();
//! let result = compiler
//!     .run(
//!         r#"
//!         int main() {
//!             int n = 10;
//!             Matrix int <1> squares = with ([0] <= [i] < [n]) genarray([n], i * i);
//!             printInt(with ([0] <= [i] < [n]) fold(+, 0, squares[i]));
//!             return 0;
//!         }
//!         "#,
//!         2, // pool threads (§III-C)
//!     )
//!     .unwrap();
//! assert_eq!(result.output, "285\n");
//! assert_eq!(result.leaked, 0); // reference counting freed everything
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`core`] | `cmm-core` | extension registry, composition, [`core::Compiler`] |
//! | [`lang`] | `cmm-lang` | host grammar, AST rules and derived AG modules, type checker, optimizer, lowering |
//! | [`grammar`] | `cmm-grammar` | context-aware scanner, LALR(1), `isComposable` |
//! | [`ag`] | `cmm-ag` | attribute-grammar specs, well-definedness analysis |
//! | [`ast`] | `cmm-ast` | the extended AST and types |
//! | [`loopir`] | `cmm-loopir` | loop IR, §V transformations, C emitter, interpreter |
//! | [`runtime`] | `cmm-runtime` | `Matrix<T>`, with-loop engines, `matrixMap`, IO |
//! | [`forkjoin`] | `cmm-forkjoin` | SAC-style persistent thread pool |
//! | [`serve`] | `cmm-serve` | crash-isolated multi-tenant compile/run daemon |
//! | [`fuzz`] | `cmm-fuzz` | differential fuzzing: generator, oracles, minimizer |
//! | [`tune`] | `cmm-tune` | profile-guided autotuner for transform directives |
//! | [`rc`] | `cmm-rc` | refcounted buffers, pool allocator |
//! | [`eddy`] | `cmm-eddy` | the §IV ocean-eddy application |
//! | extensions | `cmm-ext-*` | grammar fragments |

pub use cmm_ag as ag;
pub use cmm_ast as ast;
pub use cmm_core as core;
pub use cmm_eddy as eddy;
pub use cmm_ext_cilk as ext_cilk;
pub use cmm_ext_matrix as ext_matrix;
pub use cmm_ext_rcptr as ext_rcptr;
pub use cmm_ext_transform as ext_transform;
pub use cmm_ext_tuples as ext_tuples;
pub use cmm_forkjoin as forkjoin;
pub use cmm_fuzz as fuzz;
pub use cmm_grammar as grammar;
pub use cmm_lang as lang;
pub use cmm_loopir as loopir;
pub use cmm_rc as rc;
pub use cmm_runtime as runtime;
pub use cmm_serve as serve;
pub use cmm_tune as tune;
