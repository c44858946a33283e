//! The CMINUS host-language grammar fragment.
//!
//! CMINUS is "a rather complete subset of ANSI C" (§I): functions, scalar
//! declarations, assignment, `if`/`while`/`for`, calls, casts, and the
//! usual expression grammar with precedence encoded in nonterminal levels.
//! Extensions hook into the nonterminals declared here (`Type`, `Primary`,
//! `MulExpr`, `PostfixExpr`, `Stmt`, `Expr`, `ExprList`).

use cmm_grammar::{GrammarFragment, Sym, Terminal};

/// Host fragment name.
pub const NAME: &str = "host";

fn t(n: &str) -> Sym {
    Sym::T(n.to_string())
}
fn n(s: &str) -> Sym {
    Sym::N(s.to_string())
}

/// The host grammar fragment.
pub fn host_grammar() -> GrammarFragment {
    GrammarFragment::new(NAME)
        // --- layout ----------------------------------------------------
        .terminal(Terminal::ignored("WS", "[ \t\r\n]+"))
        .terminal(Terminal::ignored("LINE_COMMENT", "//[^\n]*"))
        .terminal(Terminal::ignored("BLOCK_COMMENT", r"/\*([^*]|\*+[^*/])*\*+/"))
        // --- literals and identifiers -----------------------------------
        .terminal(Terminal::new("INT_LIT", "[0-9]+"))
        .terminal(Terminal::new("FLOAT_LIT", r"[0-9]+\.[0-9]+"))
        .terminal(Terminal::new("STR_LIT", "\"([^\"\\\\\n]|\\\\.)*\""))
        .terminal(Terminal::new("ID", "[a-zA-Z_][a-zA-Z0-9_]*"))
        // --- keywords ----------------------------------------------------
        .terminal(Terminal::keyword("KW_INT", "int"))
        .terminal(Terminal::keyword("KW_FLOAT", "float"))
        .terminal(Terminal::keyword("KW_BOOL", "bool"))
        .terminal(Terminal::keyword("KW_VOID", "void"))
        .terminal(Terminal::keyword("KW_IF", "if"))
        .terminal(Terminal::keyword("KW_ELSE", "else"))
        .terminal(Terminal::keyword("KW_WHILE", "while"))
        .terminal(Terminal::keyword("KW_FOR", "for"))
        .terminal(Terminal::keyword("KW_RETURN", "return"))
        .terminal(Terminal::keyword("KW_TRUE", "true"))
        .terminal(Terminal::keyword("KW_FALSE", "false"))
        // --- punctuation --------------------------------------------------
        .terminal(Terminal::new("LP", r"\("))
        .terminal(Terminal::new("RP", r"\)"))
        .terminal(Terminal::new("LB", r"\{"))
        .terminal(Terminal::new("RB", r"\}"))
        .terminal(Terminal::new("SEMI", ";"))
        .terminal(Terminal::new("COMMA", ","))
        .terminal(Terminal::new("ASSIGN", "="))
        .terminal(Terminal::new("PLUS", r"\+"))
        .terminal(Terminal::new("PLUSPLUS", r"\+\+"))
        .terminal(Terminal::new("MINUS", "-"))
        .terminal(Terminal::new("STAR", r"\*"))
        .terminal(Terminal::new("SLASH", "/"))
        .terminal(Terminal::new("PERCENT", "%"))
        .terminal(Terminal::new("LT", "<"))
        .terminal(Terminal::new("LE", "<="))
        .terminal(Terminal::new("GT", ">"))
        .terminal(Terminal::new("GE", ">="))
        .terminal(Terminal::new("EQ", "=="))
        .terminal(Terminal::new("NE", "!="))
        .terminal(Terminal::new("ANDAND", "&&"))
        .terminal(Terminal::new("OROR", r"\|\|"))
        .terminal(Terminal::new("NOT", "!"))
        // --- top level ------------------------------------------------------
        .start("Program")
        .production("program", "Program", vec![n("ItemList")])
        .production("items_one", "ItemList", vec![n("Item")])
        .production("items_more", "ItemList", vec![n("ItemList"), n("Item")])
        .production("item_func", "Item", vec![n("Function")])
        .production(
            "func_def",
            "Function",
            vec![n("Type"), t("ID"), t("LP"), n("ParamsOpt"), t("RP"), n("Block")],
        )
        .production("type_int", "Type", vec![t("KW_INT")])
        .production("type_float", "Type", vec![t("KW_FLOAT")])
        .production("type_bool", "Type", vec![t("KW_BOOL")])
        .production("type_void", "Type", vec![t("KW_VOID")])
        .production("params_none", "ParamsOpt", vec![])
        .production("params_some", "ParamsOpt", vec![n("ParamList")])
        .production("params_one", "ParamList", vec![n("Param")])
        .production(
            "params_more",
            "ParamList",
            vec![n("ParamList"), t("COMMA"), n("Param")],
        )
        .production("param", "Param", vec![n("Type"), t("ID")])
        // --- statements ------------------------------------------------------
        .production("block", "Block", vec![t("LB"), n("StmtList"), t("RB")])
        .production("stmts_none", "StmtList", vec![])
        .production("stmts_more", "StmtList", vec![n("StmtList"), n("Stmt")])
        .production("stmt_decl", "Stmt", vec![n("Type"), t("ID"), t("SEMI")])
        .production(
            "stmt_decl_init",
            "Stmt",
            vec![n("Type"), t("ID"), t("ASSIGN"), n("Expr"), t("SEMI")],
        )
        .production(
            "stmt_assign",
            "Stmt",
            vec![n("Expr"), t("ASSIGN"), n("Expr"), t("SEMI")],
        )
        .production("stmt_expr", "Stmt", vec![n("Expr"), t("SEMI")])
        .production(
            "stmt_if",
            "Stmt",
            vec![t("KW_IF"), t("LP"), n("Expr"), t("RP"), n("Block")],
        )
        .production(
            "stmt_if_else",
            "Stmt",
            vec![
                t("KW_IF"),
                t("LP"),
                n("Expr"),
                t("RP"),
                n("Block"),
                t("KW_ELSE"),
                n("Block"),
            ],
        )
        .production(
            "stmt_while",
            "Stmt",
            vec![t("KW_WHILE"), t("LP"), n("Expr"), t("RP"), n("Block")],
        )
        .production(
            "stmt_for",
            "Stmt",
            vec![
                t("KW_FOR"),
                t("LP"),
                n("ForInit"),
                t("SEMI"),
                n("Expr"),
                t("SEMI"),
                n("ForStep"),
                t("RP"),
                n("Block"),
            ],
        )
        .production("stmt_return", "Stmt", vec![t("KW_RETURN"), n("Expr"), t("SEMI")])
        .production("stmt_return_void", "Stmt", vec![t("KW_RETURN"), t("SEMI")])
        .production("stmt_block", "Stmt", vec![n("Block")])
        .production(
            "forinit_decl",
            "ForInit",
            vec![n("Type"), t("ID"), t("ASSIGN"), n("Expr")],
        )
        .production(
            "forinit_assign",
            "ForInit",
            vec![n("Expr"), t("ASSIGN"), n("Expr")],
        )
        .production(
            "forstep_assign",
            "ForStep",
            vec![n("Expr"), t("ASSIGN"), n("Expr")],
        )
        .production("forstep_incr", "ForStep", vec![n("Expr"), t("PLUSPLUS")])
        // --- expressions -------------------------------------------------------
        .production("expr_top", "Expr", vec![n("OrExpr")])
        .production("or_more", "OrExpr", vec![n("OrExpr"), t("OROR"), n("AndExpr")])
        .production("or_one", "OrExpr", vec![n("AndExpr")])
        .production(
            "and_more",
            "AndExpr",
            vec![n("AndExpr"), t("ANDAND"), n("CmpExpr")],
        )
        .production("and_one", "AndExpr", vec![n("CmpExpr")])
        .production("cmp_lt", "CmpExpr", vec![n("AddExpr"), t("LT"), n("AddExpr")])
        .production("cmp_le", "CmpExpr", vec![n("AddExpr"), t("LE"), n("AddExpr")])
        .production("cmp_gt", "CmpExpr", vec![n("AddExpr"), t("GT"), n("AddExpr")])
        .production("cmp_ge", "CmpExpr", vec![n("AddExpr"), t("GE"), n("AddExpr")])
        .production("cmp_eq", "CmpExpr", vec![n("AddExpr"), t("EQ"), n("AddExpr")])
        .production("cmp_ne", "CmpExpr", vec![n("AddExpr"), t("NE"), n("AddExpr")])
        .production("cmp_one", "CmpExpr", vec![n("AddExpr")])
        .production(
            "add_plus",
            "AddExpr",
            vec![n("AddExpr"), t("PLUS"), n("MulExpr")],
        )
        .production(
            "add_minus",
            "AddExpr",
            vec![n("AddExpr"), t("MINUS"), n("MulExpr")],
        )
        .production("add_one", "AddExpr", vec![n("MulExpr")])
        .production(
            "mul_star",
            "MulExpr",
            vec![n("MulExpr"), t("STAR"), n("UnaryExpr")],
        )
        .production(
            "mul_slash",
            "MulExpr",
            vec![n("MulExpr"), t("SLASH"), n("UnaryExpr")],
        )
        .production(
            "mul_percent",
            "MulExpr",
            vec![n("MulExpr"), t("PERCENT"), n("UnaryExpr")],
        )
        .production("mul_one", "MulExpr", vec![n("UnaryExpr")])
        .production("unary_neg", "UnaryExpr", vec![t("MINUS"), n("UnaryExpr")])
        .production("unary_not", "UnaryExpr", vec![t("NOT"), n("UnaryExpr")])
        .production(
            "unary_cast",
            "UnaryExpr",
            vec![t("LP"), n("Type"), t("RP"), n("UnaryExpr")],
        )
        .production("unary_post", "UnaryExpr", vec![n("PostfixExpr")])
        .production("post_primary", "PostfixExpr", vec![n("Primary")])
        .production("prim_int", "Primary", vec![t("INT_LIT")])
        .production("prim_float", "Primary", vec![t("FLOAT_LIT")])
        .production("prim_str", "Primary", vec![t("STR_LIT")])
        .production("prim_true", "Primary", vec![t("KW_TRUE")])
        .production("prim_false", "Primary", vec![t("KW_FALSE")])
        .production("prim_var", "Primary", vec![t("ID")])
        .production("prim_paren", "Primary", vec![t("LP"), n("Expr"), t("RP")])
        .production(
            "prim_call",
            "Primary",
            vec![t("ID"), t("LP"), n("ArgsOpt"), t("RP")],
        )
        .production("args_none", "ArgsOpt", vec![])
        .production("args_some", "ArgsOpt", vec![n("ExprList")])
        .production("exprs_one", "ExprList", vec![n("Expr")])
        .production(
            "exprs_more",
            "ExprList",
            vec![n("ExprList"), t("COMMA"), n("Expr")],
        )
}
