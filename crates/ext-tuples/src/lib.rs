//! The tuples language extension (paper §III-B): specification data.
//!
//! Tuples give extended CMINUS the multiple-return-values idiom of
//! MATLAB/ML/Haskell:
//!
//! ```text
//! (int, float, bool) t;          // tuple declaration
//! return (x, y, z);              // anonymous creation
//! (a, b, c) = f();               // tuple assignment
//! ```
//!
//! This extension is the paper's example of one that **fails** the modular
//! determinism analysis: "the initial symbol for tuple expressions is a
//! left-paren, `(`, which violates the restriction that a unique initial
//! terminal symbol is needed on extension syntax. Thus the tuples
//! extension will be packaged as part of the host language" (§VI-A).
//! `cmm-core` reproduces exactly that: `is_composable` reports the
//! violation, and the default registry merges this fragment into the host
//! instead of composing it as an independent extension. It still passes
//! the modular well-definedness analysis: the two analyses are
//! independent, as in Silver/Copper.

use cmm_grammar::{GrammarFragment, Sym};

/// Fragment name.
pub const NAME: &str = "ext-tuples";

fn t(n: &str) -> Sym {
    Sym::T(n.to_string())
}
fn n(s: &str) -> Sym {
    Sym::N(s.to_string())
}

/// The concrete-syntax fragment of the tuples extension. Note that it
/// introduces **no terminals of its own** — every production starts with
/// the host's `(`, which is precisely why `isComposable` rejects it.
pub fn grammar() -> GrammarFragment {
    GrammarFragment::new(NAME)
        // (T1, T2, ...) — tuple type (two or more components).
        .production(
            "type_tuple",
            "Type",
            vec![t("LP"), n("Type"), t("COMMA"), n("TypeList"), t("RP")],
        )
        .production("typelist_one", "TypeList", vec![n("Type")])
        .production(
            "typelist_more",
            "TypeList",
            vec![n("TypeList"), t("COMMA"), n("Type")],
        )
        // (e1, e2, ...) — anonymous tuple creation (two or more parts).
        // Tuple assignment `(a, b) = f();` needs no extra production: the
        // host's `Expr = Expr ;` statement accepts a tuple expression on
        // the left, validated as a destructuring target during AST
        // construction.
        .production(
            "prim_tuple",
            "Primary",
            vec![t("LP"), n("Expr"), t("COMMA"), n("ExprList"), t("RP")],
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn introduces_no_terminals() {
        assert!(grammar().terminals.is_empty());
    }

    #[test]
    fn every_bridge_production_starts_with_host_paren() {
        let g = grammar();
        for p in &g.productions {
            if p.lhs == "Type" || p.lhs == "Primary" {
                assert_eq!(p.rhs[0], Sym::T("LP".into()), "{}", p.name);
            }
        }
    }
}
