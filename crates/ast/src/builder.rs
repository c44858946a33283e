//! Span-free construction helpers for synthesized programs.
//!
//! Program generators (notably `cmm-fuzz`) build ASTs directly rather
//! than concatenating source strings, so every generated program is
//! well-formed by construction; [`crate::display::print_program`] then
//! renders it to parseable source. All nodes carry [`Span::SYNTH`].
//!
//! The helpers mirror the AST one-to-one and stay policy-free: anything
//! about *which* programs are interesting to generate lives in the
//! generator, not here.

use crate::{
    BinOp, Block, Expr, FoldKind, Function, Generator, IndexExpr, LValue, Param, Program, Span,
    Stmt, TransformSpec, Type, UnOp, WithOp,
};

/// A program from its functions (execution starts at `main`).
pub fn program(functions: Vec<Function>) -> Program {
    Program { functions }
}

/// A function definition.
pub fn function(ret: Type, name: &str, params: Vec<Param>, stmts: Vec<Stmt>) -> Function {
    Function {
        ret,
        name: name.to_string(),
        params,
        body: Block { stmts },
        span: Span::SYNTH,
    }
}

/// A function parameter.
pub fn param(ty: Type, name: &str) -> Param {
    Param { ty, name: name.to_string() }
}

/// A block from its statements.
pub fn block(stmts: Vec<Stmt>) -> Block {
    Block { stmts }
}

// ---------------------------------------------------------------- statements

/// `ty name = init;`
pub fn decl(ty: Type, name: &str, init: Expr) -> Stmt {
    Stmt::Decl {
        ty,
        name: name.to_string(),
        init: Some(init),
        span: Span::SYNTH,
    }
}

/// `ty name;`
pub fn decl_uninit(ty: Type, name: &str) -> Stmt {
    Stmt::Decl {
        ty,
        name: name.to_string(),
        init: None,
        span: Span::SYNTH,
    }
}

/// `target = value;`
pub fn assign(target: LValue, value: Expr) -> Stmt {
    assign_transformed(target, value, Vec::new())
}

/// `name = value;`
pub fn assign_var(name: &str, value: Expr) -> Stmt {
    assign(lv_var(name), value)
}

/// `target = value transform ...;`
pub fn assign_transformed(target: LValue, value: Expr, transforms: Vec<TransformSpec>) -> Stmt {
    Stmt::Assign {
        target,
        value,
        transforms,
        span: Span::SYNTH,
    }
}

/// `if (cond) { .. }`
pub fn if_stmt(cond: Expr, then_blk: Vec<Stmt>) -> Stmt {
    Stmt::If {
        cond,
        then_blk: block(then_blk),
        else_blk: None,
        span: Span::SYNTH,
    }
}

/// `if (cond) { .. } else { .. }`
pub fn if_else(cond: Expr, then_blk: Vec<Stmt>, else_blk: Vec<Stmt>) -> Stmt {
    Stmt::If {
        cond,
        then_blk: block(then_blk),
        else_blk: Some(block(else_blk)),
        span: Span::SYNTH,
    }
}

/// `while (cond) { .. }`
pub fn while_stmt(cond: Expr, body: Vec<Stmt>) -> Stmt {
    Stmt::While {
        cond,
        body: block(body),
        span: Span::SYNTH,
    }
}

/// `for (int var = lo; var < hi; var++) { .. }` — the canonical counted
/// loop (rendered with `var = var + 1` as the step).
pub fn for_range(var: &str, lo: Expr, hi: Expr, body: Vec<Stmt>) -> Stmt {
    Stmt::For {
        init: Box::new(decl(Type::Int, var, lo)),
        cond: binary(BinOp::Lt, var_ref(var), hi),
        step: Box::new(assign_var(var, binary(BinOp::Add, var_ref(var), int(1)))),
        body: block(body),
        span: Span::SYNTH,
    }
}

/// `return value;`
pub fn ret(value: Expr) -> Stmt {
    Stmt::Return {
        value: Some(value),
        span: Span::SYNTH,
    }
}

/// `return;`
pub fn ret_void() -> Stmt {
    Stmt::Return { value: None, span: Span::SYNTH }
}

/// `expr;`
pub fn expr_stmt(expr: Expr) -> Stmt {
    Stmt::ExprStmt { expr, span: Span::SYNTH }
}

/// `spawn target = call;` (pass `None` for a void spawn).
pub fn spawn(target: Option<&str>, call: Expr) -> Stmt {
    Stmt::Spawn {
        target: target.map(str::to_string),
        call,
        span: Span::SYNTH,
    }
}

/// `sync;`
pub fn sync() -> Stmt {
    Stmt::Sync { span: Span::SYNTH }
}

// ------------------------------------------------------------------ lvalues

/// Plain-variable assignment target.
pub fn lv_var(name: &str) -> LValue {
    LValue::Var(name.to_string(), Span::SYNTH)
}

/// Indexed assignment target `base[indices] = ...`.
pub fn lv_index(base: &str, indices: Vec<IndexExpr>) -> LValue {
    LValue::Index {
        base: base.to_string(),
        indices,
        span: Span::SYNTH,
    }
}

/// Tuple-destructuring target `(a, b) = ...`.
pub fn lv_tuple(names: &[&str]) -> LValue {
    LValue::Tuple(names.iter().map(|n| n.to_string()).collect(), Span::SYNTH)
}

// -------------------------------------------------------------- expressions

/// Integer literal.
pub fn int(v: i64) -> Expr {
    Expr::IntLit(v, Span::SYNTH)
}

/// Float literal.
pub fn float(v: f32) -> Expr {
    Expr::FloatLit(v, Span::SYNTH)
}

/// Boolean literal.
pub fn boolean(v: bool) -> Expr {
    Expr::BoolLit(v, Span::SYNTH)
}

/// Variable reference.
pub fn var_ref(name: &str) -> Expr {
    Expr::Var(name.to_string(), Span::SYNTH)
}

/// Unary operation.
pub fn unary(op: UnOp, operand: Expr) -> Expr {
    Expr::Unary {
        op,
        operand: Box::new(operand),
        span: Span::SYNTH,
    }
}

/// Binary operation.
pub fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
    Expr::Binary {
        op,
        left: Box::new(left),
        right: Box::new(right),
        span: Span::SYNTH,
    }
}

/// Function or builtin call.
pub fn call(name: &str, args: Vec<Expr>) -> Expr {
    Expr::Call {
        name: name.to_string(),
        args,
        span: Span::SYNTH,
    }
}

/// Matrix indexing `base[indices]`.
pub fn index(base: Expr, indices: Vec<IndexExpr>) -> Expr {
    Expr::Index {
        base: Box::new(base),
        indices,
        span: Span::SYNTH,
    }
}

/// Single-subscript helper: `at(e)` is the `[e]` subscript.
pub fn at(e: Expr) -> IndexExpr {
    IndexExpr::At(e)
}

/// Anonymous tuple `(a, b, ..)`.
pub fn tuple(items: Vec<Expr>) -> Expr {
    Expr::Tuple(items, Span::SYNTH)
}

/// With-loop generator over `vars` with exclusive upper bounds.
pub fn generator(vars: &[&str], lower: Vec<Expr>, upper: Vec<Expr>) -> Generator {
    assert_eq!(vars.len(), lower.len());
    assert_eq!(vars.len(), upper.len());
    Generator {
        lower,
        vars: vars.iter().map(|v| v.to_string()).collect(),
        upper,
        upper_inclusive: false,
    }
}

/// `with (gen) genarray([shape], body)`.
pub fn with_genarray(gen: Generator, shape: Vec<Expr>, body: Expr) -> Expr {
    Expr::With {
        generator: Box::new(gen),
        op: WithOp::Genarray { shape, body: Box::new(body) },
        span: Span::SYNTH,
    }
}

/// `with (gen) fold(op, base, body)`.
pub fn with_fold(gen: Generator, op: FoldKind, base: Expr, body: Expr) -> Expr {
    Expr::With {
        generator: Box::new(gen),
        op: WithOp::Fold {
            op,
            base: Box::new(base),
            body: Box::new(body),
        },
        span: Span::SYNTH,
    }
}

/// `with (gen) modarray(src, body)`.
pub fn with_modarray(gen: Generator, src: Expr, body: Expr) -> Expr {
    Expr::With {
        generator: Box::new(gen),
        op: WithOp::Modarray { src: Box::new(src), body: Box::new(body) },
        span: Span::SYNTH,
    }
}

/// `matrixMap(func, matrix, [dims..])`.
pub fn matrix_map(func: &str, matrix: Expr, dims: Vec<i64>) -> Expr {
    Expr::MatrixMap {
        func: func.to_string(),
        matrix: Box::new(matrix),
        dims,
        span: Span::SYNTH,
    }
}

/// `init(ty, dims..)` — zero-initialized matrix.
pub fn init_matrix(ty: Type, dims: Vec<Expr>) -> Expr {
    Expr::Init { ty, dims, span: Span::SYNTH }
}

/// `rcAlloc(elem, len)`.
pub fn rc_alloc(elem: crate::ElemKind, len: Expr) -> Expr {
    Expr::RcAlloc {
        elem,
        len: Box::new(len),
        span: Span::SYNTH,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::display::print_program;

    /// Built ASTs must render to source the display module prints
    /// deterministically; parseability is covered end-to-end by the
    /// cmm-fuzz tests, which round-trip through the real frontend.
    #[test]
    fn builder_renders_canonical_source() {
        let prog = program(vec![function(
            Type::Int,
            "main",
            vec![],
            vec![
                decl(Type::Int, "n", int(4)),
                decl(
                    Type::Matrix(crate::ElemKind::Float, 1),
                    "v",
                    with_genarray(
                        generator(&["i"], vec![int(0)], vec![var_ref("n")]),
                        vec![var_ref("n")],
                        call("toFloat", vec![var_ref("i")]),
                    ),
                ),
                expr_stmt(call("printFloat", vec![index(var_ref("v"), vec![at(int(2))])])),
                ret(int(0)),
            ],
        )]);
        let text = print_program(&prog);
        assert!(text.contains("int main()"), "{text}");
        assert!(text.contains("with ([0] <= [i] < [n]) genarray([n], toFloat(i))"), "{text}");
        assert!(text.contains("printFloat(v[2]);"), "{text}");
    }

    #[test]
    fn for_range_renders_c_style_loop() {
        let stmt = for_range(
            "i",
            int(0),
            int(8),
            vec![expr_stmt(call("printInt", vec![var_ref("i")]))],
        );
        let text = print_program(&program(vec![function(Type::Void, "f", vec![], vec![stmt])]));
        assert!(text.contains("for (int i = 0; (i < 8); i = (i + 1))"), "{text}");
    }
}
