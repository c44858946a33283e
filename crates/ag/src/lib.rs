//! Attribute-grammar substrate: declarative AG specifications and the
//! modular well-definedness analysis (paper §VI-B).
//!
//! Silver specifies semantic analysis as attribute grammars: syntax trees
//! are decorated with attributes (types, errors, C translations) computed
//! by equations attached to productions. Composing independently developed
//! extension specifications raises the risk that "some attributes do not
//! have defining equations"; Silver's *modular well-definedness analysis*
//! lets each extension author verify, in isolation, that any composition of
//! passing extensions stays well defined.
//!
//! This crate provides:
//!
//! * [`spec`] — AG fragments as data: attribute declarations (synthesized /
//!   inherited), attribute occurrences on nonterminals, equations keyed by
//!   `(production, attribute, target)`, and forwarding declarations.
//! * [`analysis`] — the composed well-definedness check (every demanded
//!   occurrence has exactly one defining equation or is covered by
//!   forwarding) and the *modular* discipline that makes the composition
//!   theorem go through (extensions only define their own attributes on
//!   host productions, forward their bridge productions, etc.).
//!
//! The fragments the translator is checked against are not written by
//! hand: `cmm-lang` derives each one from its grammar fragment and the
//! rule table that builds the AST, so a production the translator has no
//! rule for fails the analysis.

pub mod analysis;
pub mod spec;

pub use analysis::{analyze_composition, analyze_fragment, WellDefinednessReport};
pub use spec::{AgFragment, AttrDecl, AttrKind, Equation, EquationTarget, Occurrence, ProductionSig};

#[cfg(test)]
mod tests;
