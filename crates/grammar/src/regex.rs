//! A small regular-expression engine for terminal definitions.
//!
//! Terminal symbols in Copper-style specifications are defined by regular
//! expressions; this module parses a practical subset and compiles it to a
//! Thompson NFA, which [`crate::dfa`] then determinizes together with all
//! other terminals of the composed language.
//!
//! Supported syntax: literal characters, escapes (`\n \t \r \\ \. \* \+
//! \? \| \( \) \[ \] \- \^ \" \' \/`), character classes `[a-z_]` with
//! negation `[^...]`, the any-byte-but-newline dot `.`, grouping `(...)`,
//! alternation `|`, and the postfix operators `* + ?`. Patterns are
//! byte-oriented (ASCII source), which matches the host language.

use std::fmt;

/// Error produced when a terminal's regular expression is malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegexError {
    /// Description of the problem.
    pub message: String,
    /// Byte position in the pattern.
    pub position: usize,
}

impl fmt::Display for RegexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "regex error at {}: {}", self.position, self.message)
    }
}

impl std::error::Error for RegexError {}

/// Parsed regular expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Regex {
    /// Matches the empty string.
    Empty,
    /// Matches one byte from the set (represented as a 256-bit bitmap).
    Class(ByteSet),
    /// Concatenation.
    Seq(Vec<Regex>),
    /// Alternation.
    Alt(Vec<Regex>),
    /// Kleene star.
    Star(Box<Regex>),
    /// One or more.
    Plus(Box<Regex>),
    /// Zero or one.
    Opt(Box<Regex>),
}

/// A set of bytes, the alphabet unit of the scanner DFA.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ByteSet {
    bits: [u64; 4],
}

impl ByteSet {
    /// The empty set.
    pub const fn empty() -> Self {
        ByteSet { bits: [0; 4] }
    }

    /// Set containing a single byte.
    pub fn single(b: u8) -> Self {
        let mut s = Self::empty();
        s.insert(b);
        s
    }

    /// Insert a byte.
    pub fn insert(&mut self, b: u8) {
        self.bits[(b >> 6) as usize] |= 1 << (b & 63);
    }

    /// Insert an inclusive byte range.
    pub fn insert_range(&mut self, lo: u8, hi: u8) {
        for b in lo..=hi {
            self.insert(b);
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, b: u8) -> bool {
        self.bits[(b >> 6) as usize] & (1 << (b & 63)) != 0
    }

    /// Complement (within the full byte alphabet).
    pub fn complement(&self) -> Self {
        ByteSet {
            bits: [!self.bits[0], !self.bits[1], !self.bits[2], !self.bits[3]],
        }
    }

    /// Iterate over member bytes in ascending order, one step per member.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        self.bits.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = (rest != 0).then(|| rest.trailing_zeros())?;
                rest &= rest - 1;
                Some((w as u32 * 64 + bit) as u8)
            })
        })
    }
}

impl fmt::Debug for ByteSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ByteSet{{")?;
        for b in self.iter() {
            if b.is_ascii_graphic() {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "}}")
    }
}

/// Parse a pattern into a [`Regex`].
pub fn parse(pattern: &str) -> Result<Regex, RegexError> {
    let mut p = Parser {
        bytes: pattern.as_bytes(),
        pos: 0,
    };
    let r = p.alternation()?;
    if p.pos != p.bytes.len() {
        return Err(p.error("unexpected trailing input"));
    }
    Ok(r)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> RegexError {
        RegexError {
            message: message.to_string(),
            position: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn alternation(&mut self) -> Result<Regex, RegexError> {
        let mut alts = vec![self.sequence()?];
        while self.peek() == Some(b'|') {
            self.bump();
            alts.push(self.sequence()?);
        }
        Ok(if alts.len() == 1 {
            alts.pop().expect("one alternative")
        } else {
            Regex::Alt(alts)
        })
    }

    fn sequence(&mut self) -> Result<Regex, RegexError> {
        let mut seq = Vec::new();
        while let Some(b) = self.peek() {
            if b == b'|' || b == b')' {
                break;
            }
            seq.push(self.postfix()?);
        }
        Ok(match seq.len() {
            0 => Regex::Empty,
            1 => seq.pop().expect("one element"),
            _ => Regex::Seq(seq),
        })
    }

    fn postfix(&mut self) -> Result<Regex, RegexError> {
        let mut atom = self.atom()?;
        loop {
            match self.peek() {
                Some(b'*') => {
                    self.bump();
                    atom = Regex::Star(Box::new(atom));
                }
                Some(b'+') => {
                    self.bump();
                    atom = Regex::Plus(Box::new(atom));
                }
                Some(b'?') => {
                    self.bump();
                    atom = Regex::Opt(Box::new(atom));
                }
                _ => return Ok(atom),
            }
        }
    }

    fn atom(&mut self) -> Result<Regex, RegexError> {
        match self.bump() {
            None => Err(self.error("unexpected end of pattern")),
            Some(b'(') => {
                let inner = self.alternation()?;
                if self.bump() != Some(b')') {
                    return Err(self.error("unclosed group"));
                }
                Ok(inner)
            }
            Some(b'[') => self.class(),
            Some(b'.') => {
                let mut s = ByteSet::empty();
                s.insert_range(0, 255);
                let mut nl = ByteSet::single(b'\n');
                nl = nl.complement();
                // dot = all bytes except newline
                let mut dot = ByteSet::empty();
                for b in s.iter() {
                    if nl.contains(b) {
                        dot.insert(b);
                    }
                }
                Ok(Regex::Class(dot))
            }
            Some(b'\\') => {
                let c = self
                    .bump()
                    .ok_or_else(|| self.error("dangling escape"))?;
                Ok(Regex::Class(ByteSet::single(unescape(c))))
            }
            Some(b @ (b'*' | b'+' | b'?')) => Err(RegexError {
                message: format!("dangling postfix operator '{}'", b as char),
                position: self.pos - 1,
            }),
            Some(b) => Ok(Regex::Class(ByteSet::single(b))),
        }
    }

    fn class(&mut self) -> Result<Regex, RegexError> {
        let negated = if self.peek() == Some(b'^') {
            self.bump();
            true
        } else {
            false
        };
        let mut set = ByteSet::empty();
        loop {
            let b = match self.bump() {
                None => return Err(self.error("unclosed character class")),
                Some(b']') => break,
                Some(b'\\') => unescape(
                    self.bump()
                        .ok_or_else(|| self.error("dangling escape in class"))?,
                ),
                Some(b) => b,
            };
            // Range?
            if self.peek() == Some(b'-') && self.bytes.get(self.pos + 1) != Some(&b']') {
                self.bump(); // '-'
                let hi = match self.bump() {
                    None => return Err(self.error("unclosed character class")),
                    Some(b'\\') => unescape(
                        self.bump()
                            .ok_or_else(|| self.error("dangling escape in class"))?,
                    ),
                    Some(hi) => hi,
                };
                if hi < b {
                    return Err(self.error("reversed range in character class"));
                }
                set.insert_range(b, hi);
            } else {
                set.insert(b);
            }
        }
        Ok(Regex::Class(if negated { set.complement() } else { set }))
    }
}

fn unescape(c: u8) -> u8 {
    match c {
        b'n' => b'\n',
        b't' => b'\t',
        b'r' => b'\r',
        b'0' => 0,
        other => other,
    }
}

/// Sample a string matching `re` (used by grammar-derivation tests: every
/// sampled terminal text must scan back to the same terminal). The
/// generator prefers printable characters and keeps repetitions short.
pub fn sample(re: &Regex, seed: &mut u64) -> String {
    fn next(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }
    match re {
        Regex::Empty => String::new(),
        Regex::Class(set) => {
            // Prefer printable ASCII members.
            let printable: Vec<u8> = set.iter().filter(|b| b.is_ascii_graphic()).collect();
            let pool: Vec<u8> = if printable.is_empty() {
                set.iter().collect()
            } else {
                printable
            };
            if pool.is_empty() {
                return String::new();
            }
            let b = pool[(next(seed) as usize) % pool.len()];
            (b as char).to_string()
        }
        Regex::Seq(parts) => parts.iter().map(|p| sample(p, seed)).collect(),
        Regex::Alt(alts) => {
            let pick = (next(seed) as usize) % alts.len();
            sample(&alts[pick], seed)
        }
        Regex::Star(inner) => {
            let reps = next(seed) % 3;
            (0..reps).map(|_| sample(inner, seed)).collect()
        }
        Regex::Plus(inner) => {
            let reps = 1 + next(seed) % 2;
            (0..reps).map(|_| sample(inner, seed)).collect()
        }
        Regex::Opt(inner) => {
            if next(seed).is_multiple_of(2) {
                sample(inner, seed)
            } else {
                String::new()
            }
        }
    }
}

/// Thompson NFA with one start state and one accepting state per compiled
/// pattern fragment; ε-transitions are explicit.
#[derive(Debug, Default)]
pub struct Nfa {
    /// `transitions[s]` = (byte set, target) edges out of `s`.
    pub transitions: Vec<Vec<(ByteSet, usize)>>,
    /// ε edges out of each state.
    pub epsilon: Vec<Vec<usize>>,
}

impl Nfa {
    fn add_state(&mut self) -> usize {
        self.transitions.push(Vec::new());
        self.epsilon.push(Vec::new());
        self.transitions.len() - 1
    }

    /// Compile `re`, returning `(start, accept)` state ids.
    pub fn compile(&mut self, re: &Regex) -> (usize, usize) {
        match re {
            Regex::Empty => {
                let s = self.add_state();
                let a = self.add_state();
                self.epsilon[s].push(a);
                (s, a)
            }
            Regex::Class(set) => {
                let s = self.add_state();
                let a = self.add_state();
                self.transitions[s].push((*set, a));
                (s, a)
            }
            Regex::Seq(parts) => {
                let mut cur: Option<(usize, usize)> = None;
                for p in parts {
                    let (ps, pa) = self.compile(p);
                    cur = Some(match cur {
                        None => (ps, pa),
                        Some((s, a)) => {
                            self.epsilon[a].push(ps);
                            (s, pa)
                        }
                    });
                }
                cur.unwrap_or_else(|| self.compile(&Regex::Empty))
            }
            Regex::Alt(alts) => {
                let s = self.add_state();
                let a = self.add_state();
                for alt in alts {
                    let (as_, aa) = self.compile(alt);
                    self.epsilon[s].push(as_);
                    self.epsilon[aa].push(a);
                }
                (s, a)
            }
            Regex::Star(inner) => {
                let s = self.add_state();
                let a = self.add_state();
                let (is, ia) = self.compile(inner);
                self.epsilon[s].push(is);
                self.epsilon[s].push(a);
                self.epsilon[ia].push(is);
                self.epsilon[ia].push(a);
                (s, a)
            }
            Regex::Plus(inner) => {
                let (is, ia) = self.compile(inner);
                let a = self.add_state();
                self.epsilon[ia].push(is);
                self.epsilon[ia].push(a);
                (is, a)
            }
            Regex::Opt(inner) => {
                let s = self.add_state();
                let a = self.add_state();
                let (is, ia) = self.compile(inner);
                self.epsilon[s].push(is);
                self.epsilon[s].push(a);
                self.epsilon[ia].push(a);
                (s, a)
            }
        }
    }
}
