//! The matrix language extension (paper §III-A): specification data.
//!
//! This crate declares the concrete syntax the extension adds to CMINUS,
//! as a [`cmm_grammar::GrammarFragment`]: what the composability analyses
//! operate on. The matrix extension is the paper's example of an
//! extension that *passes* the modular determinism analysis (§VI-A) —
//! every bridge production starts with a marking terminal owned by the
//! extension (`Matrix`, `with`, `matrixMap`, `init`, `end`) or is a
//! left-recursive host-operator production whose operator terminal is new
//! (`.*`, `[`) — and that passes the modular well-definedness analysis
//! (§VI-B).
//!
//! The semantics (AST construction, type checking, high-level
//! optimizations, lowering to parallel loop nests) are implemented in
//! `cmm-lang` against these production names, and the attribute-grammar
//! module the well-definedness analysis checks is derived there from the
//! same names; see DESIGN.md for how physical modularity is mapped in
//! this reproduction.
//!
//! Syntax added (Figs 1, 2, 4, 8):
//!
//! ```text
//! Matrix float <3> m = readMatrix("ssh.data");       // matrix type
//! m[0, end-4 : end, :]                                // 4 indexing modes
//! a .* b                                              // element-wise mul
//! with ([0,0] <= [i,j] < [m,n]) genarray([m,n], e)    // with-loops
//! with ([0] <= [k] < [p]) fold(+, 0.0, mat[i,j,k])
//! matrixMap(connComp, ssh, [0, 1])                    // matrix map
//! init(Matrix int <2>, 721, 1440)                     // construction
//! ```
//!
//! The paper's `(x1::x2)` range-vector literal is spelled `range(x1, x2)`
//! here: a literal starting with the host's `(` would (like the tuples
//! extension) fall outside the composable class, so the construct is
//! provided as a builtin function instead — substitution documented in
//! DESIGN.md.

use cmm_grammar::{GrammarFragment, Sym, Terminal};

/// Fragment name.
pub const NAME: &str = "ext-matrix";

fn t(n: &str) -> Sym {
    Sym::T(n.to_string())
}
fn n(s: &str) -> Sym {
    Sym::N(s.to_string())
}

/// The concrete-syntax fragment of the matrix extension.
pub fn grammar() -> GrammarFragment {
    GrammarFragment::new(NAME)
        // --- terminals (all new; keywords are the marking terminals) ---
        .terminal(Terminal::keyword("KW_MATRIX", "Matrix"))
        .terminal(Terminal::keyword("KW_WITH", "with"))
        .terminal(Terminal::keyword("KW_GENARRAY", "genarray"))
        .terminal(Terminal::keyword("KW_FOLD", "fold"))
        .terminal(Terminal::keyword("KW_MODARRAY", "modarray"))
        .terminal(Terminal::keyword("KW_MATRIXMAP", "matrixMap"))
        .terminal(Terminal::keyword("KW_INIT", "init"))
        .terminal(Terminal::keyword("KW_END", "end"))
        .terminal(Terminal::keyword("KW_MAX", "max"))
        .terminal(Terminal::keyword("KW_MIN", "min"))
        .terminal(Terminal::new("LBRACK", r"\["))
        .terminal(Terminal::new("RBRACK", r"\]"))
        .terminal(Terminal::new("COLON", ":"))
        .terminal(Terminal::new("DOTSTAR", r"\.\*"))
        // --- the matrix type: Matrix (int|bool|float) <k> -------------
        .production(
            "type_matrix",
            "Type",
            vec![t("KW_MATRIX"), n("Type"), t("LT"), t("INT_LIT"), t("GT")],
        )
        // --- element-wise multiplication operator ----------------------
        .production(
            "mul_elemwise",
            "MulExpr",
            vec![n("MulExpr"), t("DOTSTAR"), n("UnaryExpr")],
        )
        // --- MATLAB-style indexing -------------------------------------
        .production(
            "post_index",
            "PostfixExpr",
            vec![n("PostfixExpr"), t("LBRACK"), n("IndexList"), t("RBRACK")],
        )
        .production("idx_one", "IndexList", vec![n("IndexElem")])
        .production(
            "idx_more",
            "IndexList",
            vec![n("IndexList"), t("COMMA"), n("IndexElem")],
        )
        .production("idxel_expr", "IndexElem", vec![n("Expr")])
        .production(
            "idxel_range",
            "IndexElem",
            vec![n("Expr"), t("COLON"), n("Expr")],
        )
        .production("idxel_all", "IndexElem", vec![t("COLON")])
        // --- `end` ------------------------------------------------------
        .production("prim_end", "Primary", vec![t("KW_END")])
        // --- with-loops (Fig 2) ------------------------------------------
        .production(
            "prim_with",
            "Primary",
            vec![
                t("KW_WITH"),
                t("LP"),
                n("Bracketed"),
                t("LE"),
                n("Bracketed"),
                n("WithUpper"),
                t("RP"),
                n("WithOperation"),
            ],
        )
        .production("bracketed", "Bracketed", vec![t("LBRACK"), n("ExprList"), t("RBRACK")])
        .production("withupper_le", "WithUpper", vec![t("LE"), n("Bracketed")])
        .production("withupper_lt", "WithUpper", vec![t("LT"), n("Bracketed")])
        .production(
            "withop_genarray",
            "WithOperation",
            vec![
                t("KW_GENARRAY"),
                t("LP"),
                n("Bracketed"),
                t("COMMA"),
                n("Expr"),
                t("RP"),
            ],
        )
        .production(
            "withop_fold",
            "WithOperation",
            vec![
                t("KW_FOLD"),
                t("LP"),
                n("FoldOpSym"),
                t("COMMA"),
                n("Expr"),
                t("COMMA"),
                n("Expr"),
                t("RP"),
            ],
        )
        .production(
            "withop_modarray",
            "WithOperation",
            vec![
                t("KW_MODARRAY"),
                t("LP"),
                n("Expr"),
                t("COMMA"),
                n("Expr"),
                t("RP"),
            ],
        )
        .production("foldop_add", "FoldOpSym", vec![t("PLUS")])
        .production("foldop_mul", "FoldOpSym", vec![t("STAR")])
        .production("foldop_max", "FoldOpSym", vec![t("KW_MAX")])
        .production("foldop_min", "FoldOpSym", vec![t("KW_MIN")])
        // --- matrixMap ----------------------------------------------------
        .production(
            "prim_matrixmap",
            "Primary",
            vec![
                t("KW_MATRIXMAP"),
                t("LP"),
                t("ID"),
                t("COMMA"),
                n("Expr"),
                t("COMMA"),
                n("Bracketed"),
                t("RP"),
            ],
        )
        // --- init(type, dims...) -------------------------------------------
        .production(
            "prim_init",
            "Primary",
            vec![
                t("KW_INIT"),
                t("LP"),
                n("Type"),
                t("COMMA"),
                n("ExprList"),
                t("RP"),
            ],
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragment_is_well_formed() {
        let g = grammar();
        assert_eq!(g.name, NAME);
        assert!(g.start.is_none(), "extensions must not set a start symbol");
        assert!(g.productions.iter().any(|p| p.name == "prim_with"));
        // Every new keyword terminal is a keyword-precedence terminal.
        for term in &g.terminals {
            if term.name.starts_with("KW_") {
                assert_eq!(term.precedence, 10, "{}", term.name);
            }
        }
    }

    #[test]
    fn bridge_productions_start_with_own_terminals() {
        // The property behind the paper's claim that the matrix extension
        // passes the modular determinism analysis: host-nonterminal
        // productions either begin with an extension terminal or are
        // left-recursive operator forms with the new operator second.
        let g = grammar();
        let own: std::collections::HashSet<_> =
            g.terminals.iter().map(|t| t.name.as_str()).collect();
        let host_nts = ["Type", "Primary", "MulExpr", "PostfixExpr", "Stmt", "Expr"];
        for p in &g.productions {
            if !host_nts.contains(&p.lhs.as_str()) {
                continue; // extension-owned nonterminal
            }
            match &p.rhs[0] {
                Sym::T(t0) => assert!(own.contains(t0.as_str()), "{}: initial terminal {t0} not owned", p.name),
                Sym::N(n0) => {
                    assert_eq!(n0, &p.lhs, "{}: non-left-recursive NT start", p.name);
                    let Sym::T(t1) = &p.rhs[1] else {
                        panic!("{}: operator position must be a terminal", p.name);
                    };
                    assert!(own.contains(t1.as_str()), "{}: operator {t1} not owned", p.name);
                }
            }
        }
    }
}
