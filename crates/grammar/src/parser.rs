//! The LR parse driver.
//!
//! The driver couples the LALR(1) tables with the context-aware scanner:
//! before requesting a token it computes the set of terminals with a
//! non-error action in the current state and passes that set to the
//! scanner as the "context" (§VI-A). What a parse builds is up to its
//! [`Reducer`], which the driver calls on every shift and every reduce,
//! as a parser generator runs semantic actions: [`Parser::parse`] builds
//! a [`Cst`] with one; the translator builds its AST with another.

use std::sync::OnceLock;
use std::vec::Drain;

use crate::dfa::Dfa;
use crate::grammar::ComposedGrammar;
use crate::lalr::{Action, Tables};
use crate::scanner::{Lexeme, ScanCache, ScanError, Scanner, Token};
use crate::view::GrammarView;

/// The semantic actions of a parse: a value for each shifted token and
/// for each reduced production, from the values of its right-hand side.
pub trait Reducer {
    /// What a token or a production stands for.
    type Value;

    /// The value of a shifted token.
    fn shift(&mut self, lexeme: Lexeme) -> Self::Value;

    /// The value of production `prod` (an index into
    /// [`ComposedGrammar::productions`]); `children` yields its
    /// right-hand side's values in order.
    fn reduce(&mut self, prod: u32, children: Drain<'_, Self::Value>) -> Self::Value;

    /// Whether production `prod`, which has one right-hand-side symbol,
    /// has that symbol's value as its own. The driver then leaves the value
    /// where it is and calls nothing.
    fn forwards(&self, _prod: u32) -> bool {
        false
    }
}

/// The reducer behind [`Parser::parse`]: a leaf per token, a node per
/// production.
struct CstReducer<'a> {
    cache: &'a ScanCache,
    src: &'a str,
}

impl Reducer for CstReducer<'_> {
    type Value = Cst;

    fn shift(&mut self, lexeme: Lexeme) -> Cst {
        Cst::Leaf(self.cache.token(lexeme, self.src))
    }

    fn reduce(&mut self, prod: u32, children: Drain<'_, Cst>) -> Cst {
        Cst::Node {
            prod,
            children: children.collect(),
        }
    }
}

/// Concrete syntax tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Cst {
    /// A shifted token.
    Leaf(Token),
    /// A reduced production with its children in RHS order.
    Node {
        /// Production index into [`ComposedGrammar::productions`].
        prod: u32,
        /// Children, one per RHS symbol.
        children: Vec<Cst>,
    },
}

impl Cst {
    /// Production name, if this is a node.
    pub fn prod_name<'g>(&self, grammar: &'g ComposedGrammar) -> Option<&'g str> {
        match self {
            Cst::Node { prod, .. } => Some(&grammar.productions[*prod as usize].name),
            Cst::Leaf(_) => None,
        }
    }

    /// Token, if this is a leaf.
    pub fn token(&self) -> Option<&Token> {
        match self {
            Cst::Leaf(t) => Some(t),
            Cst::Node { .. } => None,
        }
    }

    /// Children of a node (empty for leaves).
    pub fn children(&self) -> &[Cst] {
        match self {
            Cst::Node { children, .. } => children,
            Cst::Leaf(_) => &[],
        }
    }

    /// First token in source order (for spans/diagnostics).
    pub fn first_token(&self) -> Option<&Token> {
        match self {
            Cst::Leaf(t) => Some(t),
            Cst::Node { children, .. } => children.iter().find_map(|c| c.first_token()),
        }
    }
}

/// Syntax error with source position and expectations.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Scanner failure.
    Scan(ScanError),
    /// Parser failure: unexpected token.
    Unexpected {
        /// The offending token's text.
        found: String,
        /// Terminal name of the offending token.
        terminal: String,
        /// 1-based line.
        line: u32,
        /// 1-based column.
        col: u32,
        /// Names of terminals that would have been accepted.
        expected: Vec<String>,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Scan(e) => write!(f, "{e}"),
            ParseError::Unexpected {
                found,
                terminal,
                line,
                col,
                expected,
            } => write!(
                f,
                "line {line}:{col}: unexpected {terminal} '{found}'; expected one of: {}",
                expected.join(", ")
            ),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<ScanError> for ParseError {
    fn from(e: ScanError) -> Self {
        ParseError::Scan(e)
    }
}

/// A ready-to-use parser: what it reads of the composed grammar, the
/// tables and the scanner DFA.
pub struct Parser {
    view: GrammarView,
    /// The composed grammar itself, for tooling. [`Parser::new`] is given
    /// it; a parser over static tables composes it on first use.
    grammar: OnceLock<ComposedGrammar>,
    compose: Option<fn() -> ComposedGrammar>,
    tables: Tables,
    dfa: Dfa,
    /// The interned fixed spellings of CST leaves, built once so per-parse
    /// setup is allocation-free.
    scan_cache: ScanCache,
}

impl Parser {
    /// Build a parser. Fails (with the conflict list) if the composed
    /// grammar is not LALR(1).
    pub fn new(grammar: ComposedGrammar) -> Result<Parser, Vec<crate::lalr::Conflict>> {
        let tables = crate::lalr::build(&grammar);
        if !tables.is_lalr() {
            return Err(tables.conflicts);
        }
        let dfa = Dfa::build(&grammar.patterns[1..]);
        let view = GrammarView::new(&grammar);
        Ok(Parser {
            scan_cache: ScanCache::new(&view),
            view,
            grammar: OnceLock::from(grammar),
            compose: None,
            tables,
            dfa,
        })
    }

    /// A parser over a view and tables that [`Parser::new`] built in
    /// another process and [`Parser::static_source`] wrote out as `static`
    /// arrays: they are read in place, nothing is built. `compose` returns
    /// the composed grammar they were built from; it runs only if
    /// [`Parser::grammar`] is asked for it. The caller vouches that the
    /// arrays were written for exactly that grammar; only their dimensions
    /// are checked here.
    pub fn from_static(
        view: GrammarView,
        compose: fn() -> ComposedGrammar,
        action: &'static [Action],
        goto: &'static [u32],
        next: &'static [u32],
        accept_ids: &'static [u16],
        accept_offsets: &'static [u32],
    ) -> Parser {
        let (num_terminals, num_nonterminals) = (view.num_terminals(), view.num_nonterminals());
        let num_states = action.len() / num_terminals;
        assert!(
            action.len() == num_states * num_terminals
                && goto.len() == num_states * num_nonterminals
                && !accept_offsets.is_empty()
                && next.len() == (accept_offsets.len() - 1) * 256
                && accept_offsets.last().map(|&n| n as usize) == Some(accept_ids.len()),
            "static parser tables do not fit the grammar"
        );
        let tables = Tables {
            action: action.into(),
            goto_nt: goto.into(),
            num_terminals,
            num_nonterminals,
            conflicts: Vec::new(),
            num_states,
        };
        let dfa = Dfa {
            next: next.into(),
            accept_ids: accept_ids.into(),
            accept_offsets: accept_offsets.into(),
        };
        Parser {
            scan_cache: ScanCache::new(&view),
            view,
            grammar: OnceLock::new(),
            compose: Some(compose),
            tables,
            dfa,
        }
    }

    /// Rust source of a function `pub fn <name>(compose: fn() ->
    /// ComposedGrammar) -> Parser` that returns this parser again, its view
    /// and tables `static` arrays of plain integers, [`Action`]s and one
    /// string (no pointers, so nothing to relocate at load) handed to
    /// [`GrammarView::from_static`] and [`Parser::from_static`]. These
    /// writers and the two `from_static`s are the only code that knows the
    /// layout. The source names the crate `::cmm_grammar`.
    pub fn static_source(&self, name: &str) -> String {
        let mut out = format!(
            "pub fn {name}(compose: fn() -> ::cmm_grammar::ComposedGrammar) -> ::cmm_grammar::Parser {{\n    \
             use ::cmm_grammar::Action::{{Accept as A, Error as E, Reduce as R, Shift as S}};\n"
        );
        let action = |a: &Action| match a {
            Action::Error => "E".to_string(),
            Action::Shift(s) => format!("S({s})"),
            Action::Reduce(p) => format!("R({p})"),
            Action::Accept => "A".to_string(),
        };
        self.view.write_statics(&mut out);
        write_array(&mut out, "ACTION", "::cmm_grammar::Action", &self.tables.action, action);
        write_array(&mut out, "GOTO", "u32", &self.tables.goto_nt, u32::to_string);
        write_array(&mut out, "NEXT", "u32", &self.dfa.next, u32::to_string);
        write_array(&mut out, "ACCEPT_IDS", "u16", &self.dfa.accept_ids, u16::to_string);
        write_array(&mut out, "ACCEPT_OFFSETS", "u32", &self.dfa.accept_offsets, u32::to_string);
        out.push_str(
            "    let view = ::cmm_grammar::GrammarView::from_static(&PRODS, &PRECEDENCE, &IGNORE, TEXT, &ENDS);\n    \
             ::cmm_grammar::Parser::from_static(view, compose, &ACTION, &GOTO, &NEXT, &ACCEPT_IDS, &ACCEPT_OFFSETS)\n}\n",
        );
        out
    }

    /// What the parser reads of the composed grammar.
    pub fn view(&self) -> &GrammarView {
        &self.view
    }

    /// The composed grammar (for tooling: parsing reads [`Parser::view`]).
    /// A parser over static tables composes it the first time it is asked.
    pub fn grammar(&self) -> &ComposedGrammar {
        self.grammar
            .get_or_init(|| (self.compose.expect("a built parser holds its grammar"))())
    }

    /// Number of LALR states (exposed for reporting).
    pub fn num_states(&self) -> usize {
        self.tables.num_states
    }

    /// The LALR(1) tables.
    pub fn tables(&self) -> &Tables {
        &self.tables
    }

    /// The scanner DFA.
    pub fn dfa(&self) -> &Dfa {
        &self.dfa
    }

    /// Parse a full source string to a CST.
    pub fn parse(&self, src: &str) -> Result<Cst, ParseError> {
        let cache = &self.scan_cache;
        self.parse_with(src, &mut CstReducer { cache, src })
    }

    /// Parse a full source string, building with `reducer`: the value of
    /// the start production, or the first scan or syntax error.
    pub fn parse_with<R: Reducer>(
        &self,
        src: &str,
        reducer: &mut R,
    ) -> Result<R::Value, ParseError> {
        let mut scanner = Scanner::new(&self.view, &self.dfa, src);
        // Both stacks are as deep as the parse nests, not as long as the
        // source: lists are left-recursive.
        let mut states: Vec<u32> = Vec::with_capacity(64);
        states.push(0);
        let mut values: Vec<R::Value> = Vec::with_capacity(64);
        let mut lookahead: Option<Lexeme> = None;

        loop {
            let state = *states.last().expect("state stack never empty");
            let tok = match lookahead {
                Some(tok) => tok,
                None => {
                    let valid = |t| self.tables.action(state, t) != Action::Error;
                    *lookahead.insert(scanner.next_lexeme(valid)?)
                }
            };
            match self.tables.action(state, tok.terminal) {
                Action::Shift(next) => {
                    states.push(next);
                    values.push(reducer.shift(tok));
                    lookahead = None;
                }
                Action::Reduce(p) => {
                    let n = self.view.rhs_len(p);
                    states.truncate(states.len() - n);
                    if n != 1 || !reducer.forwards(p) {
                        let value = reducer.reduce(p, values.drain(values.len() - n..));
                        values.push(value);
                    }
                    let top = *states.last().expect("state under reduction");
                    let goto = self
                        .tables
                        .goto(top, self.view.lhs(p))
                        .expect("goto defined after reduce");
                    states.push(goto);
                }
                Action::Accept => {
                    return Ok(values.pop().expect("accept with one value"));
                }
                Action::Error => {
                    let expected = self
                        .tables
                        .valid_terminals(state)
                        .into_iter()
                        .map(|t| self.view.terminal_name(t).to_string())
                        .collect();
                    return Err(ParseError::Unexpected {
                        found: tok.text(src).into_owned(),
                        terminal: self.view.terminal_name(tok.terminal).to_string(),
                        line: tok.line,
                        col: tok.col,
                        expected,
                    });
                }
            }
        }
    }
}

/// Write `items` as `static <name>: [<ty>; N]`, sixteen to a line.
pub(crate) fn write_array<T>(out: &mut String, name: &str, ty: &str, items: &[T], item: impl Fn(&T) -> String) {
    use std::fmt::Write as _;
    let _ = write!(out, "    static {name}: [{ty}; {}] = [", items.len());
    for (i, x) in items.iter().enumerate() {
        out.push_str(if i % 16 == 0 { "\n        " } else { " " });
        let _ = write!(out, "{},", item(x));
    }
    out.push_str("\n    ];\n");
}
