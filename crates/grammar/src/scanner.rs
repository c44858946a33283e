//! Context-aware scanner (Copper-style, §VI-A).
//!
//! A conventional scanner tokenizes in isolation; Copper's context-aware
//! scanner instead asks, at each point, *which terminals the LR parser can
//! currently accept*, and only considers those (plus layout) when matching.
//! That is what lets independently developed extensions reuse keywords and
//! overlapping lexical syntax: "such a scanner uses the 'context' of the
//! parser to determine which of the overlapping keywords is to be
//! recognized".
//!
//! Disambiguation at a match point: longest match wins, considering only
//! valid-in-context and layout terminals; among equal-length candidates the
//! highest [`crate::grammar::Terminal::precedence`] wins (keywords beat
//! identifiers).

use std::borrow::Cow;
use std::sync::Arc;

use crate::dfa::{Dfa, DEAD};
use crate::grammar::EOF;
use crate::regex::Regex;
use crate::view::GrammarView;

/// What the scanner returns: a terminal and where its text is in the
/// source. Copying one allocates nothing; the text is read from the source
/// only by whoever needs it ([`Lexeme::text`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lexeme {
    /// Terminal id.
    pub terminal: u16,
    /// Byte offset in the source.
    pub offset: usize,
    /// Length in bytes.
    pub len: usize,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl Lexeme {
    /// The matched text, borrowed from `src` (the source it was scanned
    /// from) unless its ends are not character boundaries.
    pub fn text<'s>(&self, src: &'s str) -> Cow<'s, str> {
        let range = self.offset..self.offset + self.len;
        match src.get(range.clone()) {
            Some(text) => Cow::Borrowed(text),
            None => String::from_utf8_lossy(&src.as_bytes()[range]),
        }
    }
}

/// A scanned token with its text, as a [`crate::Cst`] leaf holds it.
/// `text` is shared (`Arc<str>`): fixed-spelling terminals (keywords,
/// punctuation) all reference one interned copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Terminal id.
    pub terminal: u16,
    /// Matched text.
    pub text: Arc<str>,
    /// Byte offset in the source.
    pub offset: usize,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// The interned text of every fixed-spelling terminal, which [`Token`]s
/// share. Built once per parser (by [`crate::Parser::new`] and
/// [`crate::Parser::from_static`]) and shared by every parse, so
/// per-parse setup allocates nothing.
pub struct ScanCache {
    /// Interned spelling for terminals whose pattern matches exactly one
    /// string; `None` for variable-text terminals (identifiers, literals).
    fixed: Vec<Option<Arc<str>>>,
    /// Interned empty text for the EOF token.
    empty: Arc<str>,
}

impl ScanCache {
    /// Build the cache for a grammar.
    pub fn new(grammar: &GrammarView) -> Self {
        ScanCache {
            fixed: (0..grammar.num_terminals() as u16)
                .map(|t| grammar.spelling(t).map(Arc::from))
                .collect(),
            empty: Arc::from(""),
        }
    }

    /// The token `lexeme` of `src` stands for: fixed spellings and the
    /// empty EOF text are the interned copies, other text is copied.
    pub(crate) fn token(&self, lexeme: Lexeme, src: &str) -> Token {
        let text = match &self.fixed[lexeme.terminal as usize] {
            Some(interned) => interned.clone(),
            None if lexeme.len == 0 => self.empty.clone(),
            None => Arc::from(lexeme.text(src).as_ref()),
        };
        Token {
            terminal: lexeme.terminal,
            text,
            offset: lexeme.offset,
            line: lexeme.line,
            col: lexeme.col,
        }
    }
}

/// The unique string a pattern matches, if it is a fixed spelling (a
/// sequence of single-byte classes, like every keyword and punctuation
/// terminal). Anything with alternation, repetition, or multi-byte
/// classes returns `None`.
pub(crate) fn literal_spelling(r: &Regex) -> Option<String> {
    fn walk(r: &Regex, out: &mut Vec<u8>) -> bool {
        match r {
            Regex::Empty => true,
            Regex::Class(set) => {
                let mut bytes = set.iter();
                match (bytes.next(), bytes.next()) {
                    (Some(b), None) => {
                        out.push(b);
                        true
                    }
                    _ => false,
                }
            }
            Regex::Seq(parts) => parts.iter().all(|p| walk(p, out)),
            _ => false,
        }
    }
    let mut bytes = Vec::new();
    if !walk(r, &mut bytes) || bytes.is_empty() {
        return None;
    }
    String::from_utf8(bytes).ok()
}

/// Scanner failure: no valid terminal matches at the position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Names of the terminals that were valid in context.
    pub expected: Vec<String>,
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "line {}:{}: no valid token here; expected one of: {}",
            self.line,
            self.col,
            self.expected.join(", ")
        )
    }
}

impl std::error::Error for ScanError {}

/// Incremental context-aware scanner over a source string.
pub struct Scanner<'g, 's> {
    grammar: &'g GrammarView,
    dfa: &'g Dfa,
    src: &'s [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'g, 's> Scanner<'g, 's> {
    /// New scanner at the start of `src`. `dfa` must be built from the
    /// patterns of `grammar`'s terminals but EOF.
    pub fn new(grammar: &'g GrammarView, dfa: &'g Dfa, src: &'s str) -> Self {
        Scanner {
            grammar,
            dfa,
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn advance(&mut self, len: usize) {
        for i in 0..len {
            if self.src[self.pos + i] == b'\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
        }
        self.pos += len;
    }

    /// Scan the next token, considering only `valid(t)` terminals (plus
    /// layout). EOF (id 0) is produced at end of input.
    pub fn next_lexeme<F: Fn(u16) -> bool>(&mut self, valid: F) -> Result<Lexeme, ScanError> {
        loop {
            if self.pos >= self.src.len() {
                return Ok(Lexeme {
                    terminal: EOF,
                    offset: self.pos,
                    len: 0,
                    line: self.line,
                    col: self.col,
                });
            }
            // Maximal munch over the combined DFA, tracking the longest
            // prefix whose accept set intersects {valid ∪ layout}.
            let mut state = self.dfa.start();
            let mut best: Option<(usize, u16)> = None; // (len, terminal id)
            let mut len = 0usize;
            while self.pos + len < self.src.len() {
                let next = self.dfa.step(state, self.src[self.pos + len]);
                if next == DEAD {
                    break;
                }
                state = next;
                len += 1;
                let mut candidate: Option<u16> = None;
                for &dfa_tid in self.dfa.accepts(state) {
                    let tid = dfa_tid + 1; // grammar id (EOF offset)
                    if self.grammar.is_layout(tid) || valid(tid) {
                        candidate = Some(match candidate {
                            None => tid,
                            Some(prev) => {
                                let (pp, tp) =
                                    (self.grammar.precedence(prev), self.grammar.precedence(tid));
                                if tp > pp {
                                    tid
                                } else {
                                    prev
                                }
                            }
                        });
                    }
                }
                if let Some(tid) = candidate {
                    best = Some((len, tid));
                }
            }
            let Some((mlen, tid)) = best else {
                return Err(ScanError {
                    offset: self.pos,
                    line: self.line,
                    col: self.col,
                    expected: (0..self.grammar.num_terminals() as u16)
                        .filter(|&t| valid(t))
                        .map(|t| self.grammar.terminal_name(t).to_string())
                        .collect(),
                });
            };
            if self.grammar.is_layout(tid) {
                self.advance(mlen);
                continue; // layout: skip and rescan
            }
            let lexeme = Lexeme {
                terminal: tid,
                offset: self.pos,
                len: mlen,
                line: self.line,
                col: self.col,
            };
            self.advance(mlen);
            return Ok(lexeme);
        }
    }
}
