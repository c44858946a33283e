//! The reference-counting pointer extension (paper §III-B): specification
//! data.
//!
//! "We attach an extra 4 bytes to every piece of memory that gets
//! allocated ... and use this extra 4 bytes to keep track of how many live
//! references there are to that block of memory." Assignment increments
//! the count, scope exit decrements it, zero frees the block. The matrix
//! runtime is built on top of this substrate (§III-C).
//!
//! Surface syntax:
//!
//! ```text
//! rc<float> p = rcAlloc(float, 1024);   // counted allocation
//! rcSet(p, 0, 3.5);  rcGet(p, 0);       // element access (builtins)
//! rc<float> q = p;                       // count becomes 2
//! ```
//!
//! Both new productions begin with extension-owned marking terminals
//! (`rc`, `rcAlloc`), so — unlike tuples — this general-purpose extension
//! passes the modular determinism analysis.

use cmm_grammar::{GrammarFragment, Sym, Terminal};

/// Fragment name.
pub const NAME: &str = "ext-rcptr";

fn t(n: &str) -> Sym {
    Sym::T(n.to_string())
}
fn n(s: &str) -> Sym {
    Sym::N(s.to_string())
}

/// The concrete-syntax fragment of the rc-pointer extension.
pub fn grammar() -> GrammarFragment {
    GrammarFragment::new(NAME)
        .terminal(Terminal::keyword("KW_RC", "rc"))
        .terminal(Terminal::keyword("KW_RCALLOC", "rcAlloc"))
        // rc<elem>
        .production(
            "type_rc",
            "Type",
            vec![t("KW_RC"), t("LT"), n("Type"), t("GT")],
        )
        // rcAlloc(elem, n)
        .production(
            "prim_rcalloc",
            "Primary",
            vec![
                t("KW_RCALLOC"),
                t("LP"),
                n("Type"),
                t("COMMA"),
                n("Expr"),
                t("RP"),
            ],
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marking_terminals_present() {
        let g = grammar();
        let names: Vec<_> = g.terminals.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["KW_RC", "KW_RCALLOC"]);
        for p in &g.productions {
            let Sym::T(first) = &p.rhs[0] else {
                panic!("{} must start with a terminal", p.name);
            };
            assert!(names.contains(&first.as_str()), "{}", p.name);
        }
    }
}
