//! What parsing reads of a composed grammar.

use std::borrow::Cow;

use crate::grammar::ComposedGrammar;
use crate::scanner::literal_spelling;

/// The part of a [`ComposedGrammar`] that the parse driver, the scanner
/// and a [`crate::Reducer`] read: each production's left-hand side,
/// right-hand-side length and name; each terminal's name, precedence,
/// layout flag and fixed spelling; each nonterminal's name. Plain data,
/// like [`crate::Tables`]: owned when [`GrammarView::new`] derived it from
/// a composed grammar, borrowed when it is the `static`s that
/// [`crate::Parser::static_source`] wrote, read the same way either way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrammarView {
    /// `(lhs, right-hand-side length)` of each production.
    prods: Cow<'static, [(u16, u16)]>,
    /// Match-time precedence of each terminal.
    precedence: Cow<'static, [u32]>,
    /// Whether each terminal is layout (whitespace, comments).
    ignore: Cow<'static, [bool]>,
    /// Every string, concatenated: the production names, the terminal
    /// names, the nonterminal names, then each terminal's fixed spelling
    /// (empty when its text varies).
    text: Cow<'static, str>,
    /// End offset in `text` of each string.
    ends: Cow<'static, [u32]>,
}

impl GrammarView {
    /// The view of `grammar`.
    pub fn new(grammar: &ComposedGrammar) -> GrammarView {
        let (mut text, mut ends) = (String::new(), Vec::new());
        let mut push = |s: &str| {
            text.push_str(s);
            ends.push(text.len() as u32);
        };
        grammar.productions.iter().for_each(|p| push(&p.name));
        grammar.terminals.iter().for_each(|t| push(&t.name));
        grammar.nonterminals.iter().for_each(|n| push(n));
        for pattern in &grammar.patterns {
            push(&literal_spelling(pattern).unwrap_or_default());
        }
        let prods = grammar
            .prods
            .iter()
            .map(|(lhs, rhs)| (*lhs, rhs.len() as u16));
        GrammarView {
            prods: prods.collect(),
            precedence: grammar.terminals.iter().map(|t| t.precedence).collect(),
            ignore: grammar.terminals.iter().map(|t| t.ignore).collect(),
            text: text.into(),
            ends: ends.into(),
        }
    }

    /// A view over arrays that [`crate::Parser::static_source`] wrote: read
    /// in place, nothing is copied.
    pub fn from_static(
        prods: &'static [(u16, u16)],
        precedence: &'static [u32],
        ignore: &'static [bool],
        text: &'static str,
        ends: &'static [u32],
    ) -> GrammarView {
        assert!(
            precedence.len() == ignore.len()
                && ends.len() >= prods.len() + 2 * precedence.len()
                && ends
                    .last()
                    .map_or(text.is_empty(), |&end| end as usize == text.len()),
            "static grammar arrays do not fit together"
        );
        GrammarView {
            prods: prods.into(),
            precedence: precedence.into(),
            ignore: ignore.into(),
            text: text.into(),
            ends: ends.into(),
        }
    }

    /// Number of productions.
    pub fn num_productions(&self) -> usize {
        self.prods.len()
    }

    /// Number of terminals (including EOF).
    pub fn num_terminals(&self) -> usize {
        self.precedence.len()
    }

    /// Number of nonterminals.
    pub fn num_nonterminals(&self) -> usize {
        self.ends.len() - self.prods.len() - 2 * self.precedence.len()
    }

    /// Left-hand-side nonterminal of production `prod`.
    #[inline]
    pub fn lhs(&self, prod: u32) -> u16 {
        self.prods[prod as usize].0
    }

    /// Right-hand-side length of production `prod`.
    #[inline]
    pub fn rhs_len(&self, prod: u32) -> usize {
        self.prods[prod as usize].1 as usize
    }

    /// Name of production `prod`.
    pub fn production_name(&self, prod: u32) -> &str {
        self.string(prod as usize)
    }

    /// Name of terminal `t`.
    pub fn terminal_name(&self, t: u16) -> &str {
        self.string(self.prods.len() + t as usize)
    }

    /// Name of nonterminal `nt`.
    pub fn nonterminal_name(&self, nt: u16) -> &str {
        self.string(self.prods.len() + self.precedence.len() + nt as usize)
    }

    /// Match-time precedence of terminal `t`.
    #[inline]
    pub fn precedence(&self, t: u16) -> u32 {
        self.precedence[t as usize]
    }

    /// Whether terminal `t` is layout.
    #[inline]
    pub fn is_layout(&self, t: u16) -> bool {
        self.ignore[t as usize]
    }

    /// The one string terminal `t` matches, if its pattern is a fixed
    /// spelling (keywords, punctuation).
    pub fn spelling(&self, t: u16) -> Option<&str> {
        let at = self.ends.len() - self.precedence.len() + t as usize;
        Some(self.string(at)).filter(|s| !s.is_empty())
    }

    fn string(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// Write the `static` items [`GrammarView::from_static`] reads, named
    /// `PRODS`, `PRECEDENCE`, `IGNORE`, `TEXT` and `ENDS`.
    pub(crate) fn write_statics(&self, out: &mut String) {
        use std::fmt::Write as _;
        crate::parser::write_array(out, "PRODS", "(u16, u16)", &self.prods, |(l, n)| {
            format!("({l}, {n})")
        });
        crate::parser::write_array(out, "PRECEDENCE", "u32", &self.precedence, u32::to_string);
        crate::parser::write_array(out, "IGNORE", "bool", &self.ignore, bool::to_string);
        let _ = writeln!(out, "    static TEXT: &str = {:?};", &*self.text);
        crate::parser::write_array(out, "ENDS", "u32", &self.ends, u32::to_string);
    }
}
