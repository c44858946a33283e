use crate::display::{print_expr, print_program};
use crate::*;

fn sp() -> Span {
    Span::new(1, 1)
}

#[test]
fn type_display() {
    assert_eq!(Type::Matrix(ElemKind::Float, 3).to_string(), "Matrix float <3>");
    assert_eq!(
        Type::Tuple(vec![Type::Int, Type::Bool]).to_string(),
        "(int, bool)"
    );
    assert_eq!(Type::Rc(ElemKind::Int).to_string(), "rc<int>");
}

#[test]
fn type_accepts_promotion() {
    assert!(Type::Float.accepts(&Type::Int));
    assert!(!Type::Int.accepts(&Type::Float));
    assert!(Type::Error.accepts(&Type::Matrix(ElemKind::Bool, 2)));
    assert!(Type::Matrix(ElemKind::Int, 1).accepts(&Type::Error));
    assert!(!Type::Matrix(ElemKind::Int, 1).accepts(&Type::Matrix(ElemKind::Int, 2)));
}

#[test]
fn elem_kind_scalar_roundtrip() {
    for k in [ElemKind::Int, ElemKind::Float, ElemKind::Bool] {
        assert_eq!(k.scalar().as_elem(), Some(k));
    }
}

#[test]
fn binop_classification() {
    assert!(BinOp::Lt.is_comparison());
    assert!(!BinOp::Add.is_comparison());
    assert_eq!(BinOp::ElemMul.c_symbol(), "*");
    assert_eq!(BinOp::Ne.c_symbol(), "!=");
}

#[test]
fn transform_referenced_indices() {
    let t = TransformSpec::Split {
        index: "j".into(),
        by: 4,
        inner: "jin".into(),
        outer: "jout".into(),
    };
    assert_eq!(t.referenced_indices(), vec!["j"]);
    let r = TransformSpec::Reorder {
        order: vec!["a".into(), "b".into(), "c".into()],
    };
    assert_eq!(r.referenced_indices(), vec!["a", "b", "c"]);
}

#[test]
fn expr_spans() {
    let e = Expr::Binary {
        op: BinOp::Add,
        left: Box::new(Expr::IntLit(1, Span::new(2, 3))),
        right: Box::new(Expr::IntLit(2, Span::new(2, 7))),
        span: Span::new(2, 5),
    };
    assert_eq!(e.span(), Span::new(2, 5));
}

#[test]
fn diag_display() {
    let d = Diag::error(Span::new(3, 9), "rank mismatch");
    assert_eq!(d.to_string(), "3:9: error: rank mismatch");
}

#[test]
fn print_with_loop_roundtrips_structure() {
    // The Fig 1 temporal-mean with-loop, printed.
    let with = Expr::With {
        generator: Box::new(Generator {
            lower: vec![Expr::IntLit(0, sp()), Expr::IntLit(0, sp())],
            vars: vec!["i".into(), "j".into()],
            upper: vec![Expr::Var("m".into(), sp()), Expr::Var("n".into(), sp())],
            upper_inclusive: false,
        }),
        op: WithOp::Genarray {
            shape: vec![Expr::Var("m".into(), sp()), Expr::Var("n".into(), sp())],
            body: Box::new(Expr::IntLit(0, sp())),
        },
        span: sp(),
    };
    let s = print_expr(&with);
    assert_eq!(s, "with ([0, 0] <= [i, j] < [m, n]) genarray([m, n], 0)");
}

#[test]
fn print_program_with_transforms() {
    let prog = Program {
        functions: vec![Function {
            ret: Type::Void,
            name: "f".into(),
            params: vec![Param {
                ty: Type::Matrix(ElemKind::Float, 2),
                name: "x".into(),
            }],
            body: Block {
                stmts: vec![Stmt::Assign {
                    target: LValue::Var("y".into(), sp()),
                    value: Expr::Var("x".into(), sp()),
                    transforms: vec![
                        TransformSpec::Split {
                            index: "j".into(),
                            by: 4,
                            inner: "jin".into(),
                            outer: "jout".into(),
                        },
                        TransformSpec::Vectorize { index: "jin".into() },
                        TransformSpec::Parallelize { index: "i".into() },
                    ],
                    span: sp(),
                }],
            },
            span: sp(),
        }],
    };
    let s = print_program(&prog);
    assert!(s.contains("void f(Matrix float <2> x)"));
    assert!(
        s.contains("y = x transform split j by 4, jin, jout. vectorize jin. parallelize i;"),
        "{s}"
    );
}

#[test]
fn print_indexing_modes() {
    let e = Expr::Index {
        base: Box::new(Expr::Var("data".into(), sp())),
        indices: vec![
            IndexExpr::At(Expr::IntLit(0, sp())),
            IndexExpr::Range(Box::new(Expr::IntLit(0, sp())), Box::new(Expr::End(sp()))),
            IndexExpr::All,
        ],
        span: sp(),
    };
    assert_eq!(print_expr(&e), "data[0, 0 : end, :]");
}

#[test]
fn print_tuple_and_rc() {
    let t = Expr::Tuple(
        vec![Expr::Var("x".into(), sp()), Expr::IntLit(3, sp())],
        sp(),
    );
    assert_eq!(print_expr(&t), "(x, 3)");
    let r = Expr::RcAlloc {
        elem: ElemKind::Float,
        len: Box::new(Expr::IntLit(8, sp())),
        span: sp(),
    };
    assert_eq!(print_expr(&r), "rcAlloc(float, 8)");
}

#[test]
fn node_sizes_stay_small() {
    use std::mem::size_of;
    // The AST of a 120 KB program is ~10^5 of these; at 120 / 240 / 208
    // bytes they were a third of `cmmc emit`'s page faults (EXPERIMENTS.md E-B1).
    assert!(size_of::<Expr>() <= 64, "Expr is {} bytes", size_of::<Expr>());
    assert!(size_of::<IndexExpr>() <= 64, "IndexExpr is {} bytes", size_of::<IndexExpr>());
    assert!(size_of::<Stmt>() <= 152, "Stmt is {} bytes", size_of::<Stmt>());
}
