//! Parsing substrate: Copper-style context-aware scanning, LALR(1) table
//! generation, grammar composition and the modular determinism analysis
//! (paper §VI-A).
//!
//! Pipeline: language fragments ([`GrammarFragment`]) are composed into a
//! [`ComposedGrammar`]; terminal patterns compile through the [`regex`]
//! engine into one combined [`dfa::Dfa`]; [`lalr`] builds the LALR(1)
//! tables; [`Parser`] drives scanning and parsing together over the
//! [`GrammarView`] of the composed grammar, feeding the scanner each
//! state's valid-terminal set as context. [`compose`]
//! implements `isComposable`, the analysis extension authors run to
//! guarantee their extension composes with any other passing extension.

pub mod compose;
pub mod dfa;
pub mod grammar;
pub mod lalr;
pub mod parser;
pub mod regex;
pub mod scanner;
mod view;

pub use compose::{compose_verified, is_composable, is_lalr, ComposabilityReport};
pub use grammar::{ComposeError, ComposedGrammar, GSym, GrammarFragment, Production, Sym, Terminal, EOF};
pub use lalr::{Action, Conflict, Tables};
pub use parser::{Cst, ParseError, Parser, Reducer};
pub use scanner::{Lexeme, ScanCache, ScanError, Scanner, Token};
pub use view::GrammarView;

#[cfg(test)]
mod tests;
