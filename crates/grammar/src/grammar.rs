//! Grammar data model: terminals, productions, fragments and composition.
//!
//! A language is assembled from one *host* [`GrammarFragment`] plus any
//! number of extension fragments, mirroring how Copper/Silver compose
//! specifications (§II, §VI-A). Fragments carry their provenance so the
//! modular determinism analysis can tell host symbols from extension
//! symbols.

use std::collections::HashMap;
use std::fmt;

use crate::regex::{parse, Regex, RegexError};

/// A terminal symbol definition.
#[derive(Debug, Clone)]
pub struct Terminal {
    /// Unique name, e.g. `ID`, `KW_WITH`.
    pub name: String,
    /// Regular expression (see [`crate::regex`] for the dialect).
    pub pattern: String,
    /// Match-time tie-break: among equal-length matches valid in context,
    /// the highest precedence wins (keywords beat identifiers).
    pub precedence: u32,
    /// Ignored by the parser (whitespace, comments).
    pub ignore: bool,
}

impl Terminal {
    /// Ordinary terminal with default precedence 0.
    pub fn new(name: &str, pattern: &str) -> Self {
        Terminal {
            name: name.to_string(),
            pattern: pattern.to_string(),
            precedence: 0,
            ignore: false,
        }
    }

    /// Keyword terminal: matches the literal text with precedence 10 so it
    /// beats identifier-shaped matches of the same length.
    pub fn keyword(name: &str, text: &str) -> Self {
        let mut pattern = String::new();
        for c in text.chars() {
            if !c.is_ascii_alphanumeric() && c != '_' {
                pattern.push('\\');
            }
            pattern.push(c);
        }
        Terminal {
            name: name.to_string(),
            pattern,
            precedence: 10,
            ignore: false,
        }
    }

    /// Ignored terminal (whitespace or comment).
    pub fn ignored(name: &str, pattern: &str) -> Self {
        Terminal {
            name: name.to_string(),
            pattern: pattern.to_string(),
            precedence: 0,
            ignore: true,
        }
    }
}

/// Right-hand-side symbol of a production.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Sym {
    /// Terminal reference by name.
    T(String),
    /// Nonterminal reference by name.
    N(String),
}

impl Sym {
    /// The referenced name.
    pub fn name(&self) -> &str {
        match self {
            Sym::T(n) | Sym::N(n) => n,
        }
    }
}

/// A context-free production with a unique name (the key AST builders
/// dispatch on).
#[derive(Debug, Clone)]
pub struct Production {
    /// Unique production name, e.g. `expr_add`.
    pub name: String,
    /// Left-hand-side nonterminal.
    pub lhs: String,
    /// Right-hand-side symbols.
    pub rhs: Vec<Sym>,
}

impl Production {
    /// Construct a production.
    pub fn new(name: &str, lhs: &str, rhs: Vec<Sym>) -> Self {
        Production {
            name: name.to_string(),
            lhs: lhs.to_string(),
            rhs,
        }
    }
}

/// A named grammar fragment: the host language or one extension.
#[derive(Debug, Clone, Default)]
pub struct GrammarFragment {
    /// Fragment name (`host`, `ext-matrix`, ...).
    pub name: String,
    /// Terminals introduced by this fragment.
    pub terminals: Vec<Terminal>,
    /// Productions introduced by this fragment.
    pub productions: Vec<Production>,
    /// Start nonterminal; set only by the host fragment.
    pub start: Option<String>,
}

impl GrammarFragment {
    /// New empty fragment.
    pub fn new(name: &str) -> Self {
        GrammarFragment {
            name: name.to_string(),
            ..Default::default()
        }
    }

    /// Add a terminal (builder style).
    pub fn terminal(mut self, t: Terminal) -> Self {
        self.terminals.push(t);
        self
    }

    /// Add a production (builder style).
    pub fn production(mut self, name: &str, lhs: &str, rhs: Vec<Sym>) -> Self {
        self.productions.push(Production::new(name, lhs, rhs));
        self
    }

    /// Set the start nonterminal (host only).
    pub fn start(mut self, nt: &str) -> Self {
        self.start = Some(nt.to_string());
        self
    }

    /// Append the fragment's canonical encoding to `out`: every field in
    /// declaration order, counts and strings length-prefixed, so two
    /// fragments encode alike exactly when they are equal. A parser built
    /// ahead of time is reused only for input whose encoding matches the
    /// one it was built from byte for byte.
    pub fn encode(&self, out: &mut Vec<u8>) {
        fn len(out: &mut Vec<u8>, n: usize) {
            out.extend_from_slice(&(n as u32).to_le_bytes());
        }
        fn text(out: &mut Vec<u8>, s: &str) {
            len(out, s.len());
            out.extend_from_slice(s.as_bytes());
        }
        text(out, &self.name);
        len(out, self.terminals.len());
        for t in &self.terminals {
            text(out, &t.name);
            text(out, &t.pattern);
            out.extend_from_slice(&t.precedence.to_le_bytes());
            out.push(t.ignore as u8);
        }
        len(out, self.productions.len());
        for p in &self.productions {
            text(out, &p.name);
            text(out, &p.lhs);
            len(out, p.rhs.len());
            for sym in &p.rhs {
                out.push(matches!(sym, Sym::N(_)) as u8);
                text(out, sym.name());
            }
        }
        match &self.start {
            None => out.push(0),
            Some(start) => {
                out.push(1);
                text(out, start);
            }
        }
    }
}

/// Error raised while composing fragments.
#[derive(Debug, Clone, PartialEq)]
pub enum ComposeError {
    /// Two fragments define a terminal with the same name.
    DuplicateTerminal {
        /// The terminal name.
        name: String,
        /// The fragments involved.
        fragments: (String, String),
    },
    /// Two fragments define a production with the same name.
    DuplicateProduction {
        /// The production name.
        name: String,
    },
    /// A production references a symbol no fragment defines.
    UnknownSymbol {
        /// The production.
        production: String,
        /// The missing symbol.
        symbol: String,
    },
    /// Zero or multiple start symbols.
    BadStart(String),
    /// A terminal pattern failed to parse.
    BadPattern {
        /// The terminal name.
        terminal: String,
        /// The underlying regex error.
        error: RegexError,
    },
}

impl fmt::Display for ComposeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComposeError::DuplicateTerminal { name, fragments } => write!(
                f,
                "terminal '{name}' defined by both '{}' and '{}'",
                fragments.0, fragments.1
            ),
            ComposeError::DuplicateProduction { name } => {
                write!(f, "duplicate production name '{name}'")
            }
            ComposeError::UnknownSymbol { production, symbol } => {
                write!(f, "production '{production}' references unknown symbol '{symbol}'")
            }
            ComposeError::BadStart(msg) => write!(f, "bad start symbol: {msg}"),
            ComposeError::BadPattern { terminal, error } => {
                write!(f, "terminal '{terminal}': {error}")
            }
        }
    }
}

impl std::error::Error for ComposeError {}

/// A composed grammar with interned symbol ids, ready for table
/// construction. Terminal and nonterminal ids are dense `u16`s; production
/// 0..n map to the concatenation of all fragments' productions.
pub struct ComposedGrammar {
    /// All terminals (id = index). Includes the synthetic EOF terminal as
    /// id 0 with an unmatchable pattern.
    pub terminals: Vec<Terminal>,
    /// Fragment name owning each terminal.
    pub terminal_owner: Vec<String>,
    /// Compiled patterns, aligned with `terminals` (EOF slot holds
    /// `Regex::Empty` and is never given to the scanner DFA).
    pub patterns: Vec<Regex>,
    /// Nonterminal names (id = index).
    pub nonterminals: Vec<String>,
    /// All productions, host first, then extensions in order.
    pub productions: Vec<Production>,
    /// Fragment name owning each production.
    pub production_owner: Vec<String>,
    /// Resolved production symbols: `(lhs_id, rhs)` where rhs entries are
    /// `GSym`.
    pub prods: Vec<(u16, Vec<GSym>)>,
    /// Start nonterminal id.
    pub start: u16,
}

/// Resolved grammar symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GSym {
    /// Terminal id.
    T(u16),
    /// Nonterminal id.
    N(u16),
}

/// Terminal id reserved for end-of-input.
pub const EOF: u16 = 0;

impl ComposedGrammar {
    /// Compose the host fragment with the given extensions.
    pub fn compose(
        host: &GrammarFragment,
        extensions: &[&GrammarFragment],
    ) -> Result<ComposedGrammar, ComposeError> {
        let mut fragments: Vec<&GrammarFragment> = vec![host];
        fragments.extend_from_slice(extensions);

        // Start symbol: host only.
        let start_name = host
            .start
            .clone()
            .ok_or_else(|| ComposeError::BadStart("host fragment has no start symbol".into()))?;
        for ext in extensions {
            if ext.start.is_some() {
                return Err(ComposeError::BadStart(format!(
                    "extension '{}' must not set a start symbol",
                    ext.name
                )));
            }
        }

        // Terminals: EOF is implicit id 0.
        let mut terminals = vec![Terminal {
            name: "EOF".to_string(),
            pattern: String::new(),
            precedence: 0,
            ignore: false,
        }];
        let mut terminal_owner = vec!["<builtin>".to_string()];
        let mut terminal_ids = HashMap::new();
        terminal_ids.insert("EOF".to_string(), EOF);
        for frag in &fragments {
            for t in &frag.terminals {
                if let Some(&existing) = terminal_ids.get(&t.name) {
                    return Err(ComposeError::DuplicateTerminal {
                        name: t.name.clone(),
                        fragments: (
                            terminal_owner[existing as usize].clone(),
                            frag.name.clone(),
                        ),
                    });
                }
                terminal_ids.insert(t.name.clone(), terminals.len() as u16);
                terminals.push(t.clone());
                terminal_owner.push(frag.name.clone());
            }
        }

        // Patterns.
        let mut patterns = vec![Regex::Empty];
        for t in &terminals[1..] {
            patterns.push(parse(&t.pattern).map_err(|error| ComposeError::BadPattern {
                terminal: t.name.clone(),
                error,
            })?);
        }

        // Nonterminals: every production LHS.
        let mut nonterminals: Vec<String> = Vec::new();
        let mut nonterminal_ids: HashMap<String, u16> = HashMap::new();
        for frag in &fragments {
            for p in &frag.productions {
                if !nonterminal_ids.contains_key(&p.lhs) {
                    nonterminal_ids.insert(p.lhs.clone(), nonterminals.len() as u16);
                    nonterminals.push(p.lhs.clone());
                }
            }
        }

        // Productions, with name uniqueness and symbol resolution.
        let mut productions = Vec::new();
        let mut production_owner = Vec::new();
        let mut prods = Vec::new();
        let mut prod_names = HashMap::new();
        for frag in &fragments {
            for p in &frag.productions {
                if prod_names.insert(p.name.clone(), ()).is_some() {
                    return Err(ComposeError::DuplicateProduction {
                        name: p.name.clone(),
                    });
                }
                let lhs = nonterminal_ids[&p.lhs];
                let mut rhs = Vec::with_capacity(p.rhs.len());
                for sym in &p.rhs {
                    let resolved = match sym {
                        Sym::T(n) => terminal_ids.get(n).copied().map(GSym::T),
                        Sym::N(n) => nonterminal_ids.get(n).copied().map(GSym::N),
                    };
                    rhs.push(resolved.ok_or_else(|| ComposeError::UnknownSymbol {
                        production: p.name.clone(),
                        symbol: sym.name().to_string(),
                    })?);
                }
                productions.push(p.clone());
                production_owner.push(frag.name.clone());
                prods.push((lhs, rhs));
            }
        }

        let start = *nonterminal_ids
            .get(&start_name)
            .ok_or_else(|| ComposeError::BadStart(format!("start '{start_name}' has no productions")))?;

        Ok(ComposedGrammar {
            terminals,
            terminal_owner,
            patterns,
            nonterminals,
            productions,
            production_owner,
            prods,
            start,
        })
    }

    /// Terminal id by name (a linear search: for tooling).
    pub fn terminal_id(&self, name: &str) -> Option<u16> {
        self.terminals.iter().position(|t| t.name == name).map(|t| t as u16)
    }

    /// Nonterminal id by name (a linear search: for tooling).
    pub fn nonterminal_id(&self, name: &str) -> Option<u16> {
        self.nonterminals.iter().position(|n| n == name).map(|n| n as u16)
    }

    /// Production index by name.
    pub fn production_index(&self, name: &str) -> Option<usize> {
        self.productions.iter().position(|p| p.name == name)
    }

    /// Number of terminals (including EOF).
    pub fn num_terminals(&self) -> usize {
        self.terminals.len()
    }

    /// Number of nonterminals.
    pub fn num_nonterminals(&self) -> usize {
        self.nonterminals.len()
    }
}
