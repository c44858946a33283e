//! The explicit program-transformation extension (paper §V):
//! specification data.
//!
//! "We have thus extended the matrix processing constructs to allow the
//! programmer to specify what transformations should be made to the
//! underlying for-loops to maximize performance." A transform clause is
//! attached to an assignment whose right-hand side expands to loops
//! (Fig 9):
//!
//! ```text
//! means = with([0,0] <= [i,j] < [m,n])
//!           genarray([m,n], ...)
//!         transform
//!           split j by 4, jin, jout.
//!           vectorize jin.
//!           parallelize i;
//! ```
//!
//! Directives: `split`, `vectorize`, `parallelize`, `reorder`,
//! `interchange`, `unroll`, and the composite `tile` ("a transformation
//! specification to tile two nested loops ... can be specified as two
//! splits and a reorder").
//!
//! **Composability status.** The clause's production necessarily *starts
//! with host syntax* (the assignment being transformed), so — exactly like
//! the tuples extension — it falls outside the marking-terminal class of
//! the modular determinism analysis. Since §V describes it as an extension
//! *of the matrix processing constructs*, the default registry packages it
//! together with the matrix extension rather than as an independently
//! composable unit. `is_composable` reports the violation honestly; the
//! paper itself only claims the analysis passes for the matrix extension.

use cmm_grammar::{GrammarFragment, Sym, Terminal};

/// Fragment name.
pub const NAME: &str = "ext-transform";

fn t(n: &str) -> Sym {
    Sym::T(n.to_string())
}
fn n(s: &str) -> Sym {
    Sym::N(s.to_string())
}

/// The concrete-syntax fragment of the transformation extension.
pub fn grammar() -> GrammarFragment {
    GrammarFragment::new(NAME)
        .terminal(Terminal::keyword("KW_TRANSFORM", "transform"))
        .terminal(Terminal::keyword("KW_SPLIT", "split"))
        .terminal(Terminal::keyword("KW_BY", "by"))
        .terminal(Terminal::keyword("KW_VECTORIZE", "vectorize"))
        .terminal(Terminal::keyword("KW_PARALLELIZE", "parallelize"))
        .terminal(Terminal::keyword("KW_REORDER", "reorder"))
        .terminal(Terminal::keyword("KW_INTERCHANGE", "interchange"))
        .terminal(Terminal::keyword("KW_UNROLL", "unroll"))
        .terminal(Terminal::keyword("KW_TILE", "tile"))
        .terminal(Terminal::keyword("KW_SCHEDULE", "schedule"))
        .terminal(Terminal::keyword("KW_STATIC", "static"))
        .terminal(Terminal::keyword("KW_DYNAMIC", "dynamic"))
        .terminal(Terminal::keyword("KW_GUIDED", "guided"))
        .terminal(Terminal::new("DOT", r"\."))
        // assignment with transform clause (Fig 9)
        .production(
            "stmt_assign_transform",
            "Stmt",
            vec![
                n("Expr"),
                t("ASSIGN"),
                n("Expr"),
                t("KW_TRANSFORM"),
                n("TransformList"),
                t("SEMI"),
            ],
        )
        .production("tlist_one", "TransformList", vec![n("Transform")])
        .production(
            "tlist_more",
            "TransformList",
            vec![n("TransformList"), t("DOT"), n("Transform")],
        )
        // split j by 4, jin, jout
        .production(
            "t_split",
            "Transform",
            vec![
                t("KW_SPLIT"),
                t("ID"),
                t("KW_BY"),
                t("INT_LIT"),
                t("COMMA"),
                t("ID"),
                t("COMMA"),
                t("ID"),
            ],
        )
        .production("t_vectorize", "Transform", vec![t("KW_VECTORIZE"), t("ID")])
        .production("t_parallelize", "Transform", vec![t("KW_PARALLELIZE"), t("ID")])
        .production("t_reorder", "Transform", vec![t("KW_REORDER"), n("IdListT")])
        .production(
            "t_interchange",
            "Transform",
            vec![t("KW_INTERCHANGE"), t("ID"), t("COMMA"), t("ID")],
        )
        .production(
            "t_unroll",
            "Transform",
            vec![t("KW_UNROLL"), t("ID"), t("KW_BY"), t("INT_LIT")],
        )
        .production(
            "t_tile",
            "Transform",
            vec![
                t("KW_TILE"),
                t("ID"),
                t("COMMA"),
                t("ID"),
                t("KW_BY"),
                t("INT_LIT"),
                t("COMMA"),
                t("INT_LIT"),
            ],
        )
        // schedule i dynamic, 16  /  schedule i guided  /  schedule i static
        .production(
            "t_schedule_static",
            "Transform",
            vec![t("KW_SCHEDULE"), t("ID"), t("KW_STATIC")],
        )
        .production(
            "t_schedule_dynamic",
            "Transform",
            vec![t("KW_SCHEDULE"), t("ID"), t("KW_DYNAMIC")],
        )
        .production(
            "t_schedule_dynamic_chunk",
            "Transform",
            vec![
                t("KW_SCHEDULE"),
                t("ID"),
                t("KW_DYNAMIC"),
                t("COMMA"),
                t("INT_LIT"),
            ],
        )
        .production(
            "t_schedule_guided",
            "Transform",
            vec![t("KW_SCHEDULE"), t("ID"), t("KW_GUIDED")],
        )
        .production(
            "t_schedule_guided_chunk",
            "Transform",
            vec![
                t("KW_SCHEDULE"),
                t("ID"),
                t("KW_GUIDED"),
                t("COMMA"),
                t("INT_LIT"),
            ],
        )
        .production("idlist_one", "IdListT", vec![t("ID")])
        .production(
            "idlist_more",
            "IdListT",
            vec![n("IdListT"), t("COMMA"), t("ID")],
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clause_starts_with_host_nonterminal() {
        // The documented reason this extension is packaged with the matrix
        // extension rather than independently composed.
        let g = grammar();
        let p = g
            .productions
            .iter()
            .find(|p| p.name == "stmt_assign_transform")
            .unwrap();
        assert_eq!(p.rhs[0], Sym::N("Expr".into()));
    }

    #[test]
    fn all_directives_present() {
        let g = grammar();
        for d in [
            "t_split",
            "t_vectorize",
            "t_parallelize",
            "t_reorder",
            "t_interchange",
            "t_unroll",
            "t_tile",
            "t_schedule_static",
            "t_schedule_dynamic",
            "t_schedule_dynamic_chunk",
            "t_schedule_guided",
            "t_schedule_guided_chunk",
        ] {
            assert!(g.productions.iter().any(|p| p.name == d), "{d}");
        }
    }
}
