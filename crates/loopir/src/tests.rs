use crate::ir::*;
use crate::transform::{apply, apply_all, LoopTransform};
use crate::*;
use proptest::prelude::*;

use IrBinOp as B;

fn v(n: &str) -> IrExpr {
    IrExpr::Var(n.into())
}
fn i(x: i64) -> IrExpr {
    IrExpr::Int(x)
}

/// The Fig 3 temporal-mean loop nest as an IR function:
///
/// ```c
/// void mean(cmm_mat* mat, cmm_mat* means, int m, int n, int p) {
///     for (i in 0..m) for (j in 0..n) {
///         float acc = 0;
///         for (k in 0..p) acc += mat[(i*n + j)*p + k];
///         means[i*n + j] = acc / p;
///     }
/// }
/// ```
fn mean_function(m: i64, n: i64, p: i64) -> IrFunction {
    let flat_ij = IrExpr::add(IrExpr::mul(v("i"), i(n)), v("j"));
    let flat_ijk = IrExpr::add(IrExpr::mul(flat_ij.clone(), i(p)), v("k"));
    let body_k = vec![IrStmt::Assign {
        name: "acc".into(),
        value: IrExpr::add(
            v("acc"),
            IrExpr::Load {
                elem: Elem::F32,
                buf: Box::new(v("mat")),
                idx: Box::new(flat_ijk),
            },
        ),
    }];
    let body_j = vec![
        IrStmt::Decl {
            ty: CType::Float,
            name: "acc".into(),
            init: Some(IrExpr::Float(0.0)),
        },
        IrStmt::For(ForLoop {
            schedule: None,
            var: "k".into(),
            lo: i(0),
            hi: i(p),
            body: body_k,
            parallel: false,
            vector: false,
        }),
        IrStmt::Store {
            elem: Elem::F32,
            buf: v("means"),
            idx: flat_ij,
            value: IrExpr::bin(B::Div, v("acc"), IrExpr::CastFloat(Box::new(i(p)))),
        },
    ];
    let nest = IrStmt::For(ForLoop {
        schedule: None,
        var: "i".into(),
        lo: i(0),
        hi: i(m),
        body: vec![IrStmt::For(ForLoop {
            schedule: None,
            var: "j".into(),
            lo: i(0),
            hi: i(n),
            body: body_j,
            parallel: false,
            vector: false,
        })],
        parallel: false,
        vector: false,
    });
    IrFunction {
        name: "mean".into(),
        params: vec![
            ("mat".into(), CType::Buf(Elem::F32)),
            ("means".into(), CType::Buf(Elem::F32)),
        ],
        ret: CType::Void,
        ret_tuple: None,
        body: vec![nest],
    }
}

/// Program that fills a cube, runs `mean`, and prints every mean.
fn mean_program(m: i64, n: i64, p: i64) -> IrProgram {
    let fill = IrStmt::For(ForLoop {
        schedule: None,
        var: "x".into(),
        lo: i(0),
        hi: i(m * n * p),
        body: vec![IrStmt::Store {
            elem: Elem::F32,
            buf: v("mat"),
            idx: v("x"),
            value: IrExpr::CastFloat(Box::new(IrExpr::bin(B::Rem, IrExpr::mul(v("x"), i(37)), i(101)))),
        }],
        parallel: false,
        vector: false,
    });
    let print = IrStmt::For(ForLoop {
        schedule: None,
        var: "y".into(),
        lo: i(0),
        hi: i(m * n),
        body: vec![IrStmt::Expr(IrExpr::Builtin(
            Builtin::PrintF32,
            vec![IrExpr::Load {
                elem: Elem::F32,
                buf: Box::new(v("means")),
                idx: Box::new(v("y")),
            }],
        ))],
        parallel: false,
        vector: false,
    });
    let main = IrFunction {
        name: "main".into(),
        params: vec![],
        ret: CType::Void,
        ret_tuple: None,
        body: vec![
            IrStmt::Decl {
                ty: CType::Buf(Elem::F32),
                name: "mat".into(),
                init: Some(IrExpr::Builtin(Builtin::AllocMat(Elem::F32), vec![i(m), i(n), i(p)])),
            },
            IrStmt::Decl {
                ty: CType::Buf(Elem::F32),
                name: "means".into(),
                init: Some(IrExpr::Builtin(Builtin::AllocMat(Elem::F32), vec![i(m), i(n)])),
            },
            fill,
            IrStmt::Expr(IrExpr::Call("mean".into(), vec![v("mat"), v("means")])),
            print,
        ],
    };
    IrProgram {
        functions: vec![main, mean_function(m, n, p)],
    }
}

/// `v[t] = 3t + 1` over `t in 0..n` — bound written as the literal or as
/// a variable holding it — then a literal-bound readback sums every slot
/// and prints the total. Unwritten slots read back 0, so any dropped
/// tail iteration changes the output.
fn tail_sum_kernel(n: i64, symbolic: bool) -> IrProgram {
    let bound = if symbolic { v("n") } else { i(n) };
    let body = vec![
        IrStmt::Decl {
            ty: CType::Int,
            name: "n".into(),
            init: Some(i(n)),
        },
        IrStmt::Decl {
            ty: CType::Buf(Elem::I32),
            name: "vbuf".into(),
            init: Some(IrExpr::Builtin(Builtin::AllocMat(Elem::I32), vec![i(n)])),
        },
        IrStmt::For(ForLoop {
            schedule: None,
            var: "t".into(),
            lo: i(0),
            hi: bound,
            body: vec![IrStmt::Store {
                elem: Elem::I32,
                buf: v("vbuf"),
                idx: v("t"),
                value: IrExpr::add(IrExpr::mul(v("t"), i(3)), i(1)),
            }],
            parallel: false,
            vector: false,
        }),
        IrStmt::Decl {
            ty: CType::Int,
            name: "s".into(),
            init: Some(i(0)),
        },
        IrStmt::For(ForLoop {
            schedule: None,
            var: "u".into(),
            lo: i(0),
            hi: i(n),
            body: vec![IrStmt::Assign {
                name: "s".into(),
                value: IrExpr::add(
                    v("s"),
                    IrExpr::Load {
                        elem: Elem::I32,
                        buf: Box::new(v("vbuf")),
                        idx: Box::new(v("u")),
                    },
                ),
            }],
            parallel: false,
            vector: false,
        }),
        IrStmt::Expr(IrExpr::Builtin(Builtin::PrintI32, vec![v("s")])),
    ];
    IrProgram {
        functions: vec![IrFunction {
            name: "main".into(),
            params: vec![],
            ret: CType::Void,
            ret_tuple: None,
            body,
        }],
    }
}

/// Two-deep `x`/`y` nest storing `x*n + y` into an `m*n` buffer (bounds
/// literal or symbolic), then a literal-bound readback prints the sum —
/// the tile-equivalence analogue of [`tail_sum_kernel`].
fn grid_kernel(m: i64, n: i64, symbolic: bool) -> IrProgram {
    let (bm, bn) = if symbolic {
        (v("m"), v("n"))
    } else {
        (i(m), i(n))
    };
    let flat = IrExpr::add(IrExpr::mul(v("x"), i(n)), v("y"));
    let body = vec![
        IrStmt::Decl {
            ty: CType::Int,
            name: "m".into(),
            init: Some(i(m)),
        },
        IrStmt::Decl {
            ty: CType::Int,
            name: "n".into(),
            init: Some(i(n)),
        },
        IrStmt::Decl {
            ty: CType::Buf(Elem::I32),
            name: "c".into(),
            init: Some(IrExpr::Builtin(Builtin::AllocMat(Elem::I32), vec![i(m), i(n)])),
        },
        IrStmt::For(ForLoop {
            schedule: None,
            var: "x".into(),
            lo: i(0),
            hi: bm,
            body: vec![IrStmt::For(ForLoop {
                schedule: None,
                var: "y".into(),
                lo: i(0),
                hi: bn,
                body: vec![IrStmt::Store {
                    elem: Elem::I32,
                    buf: v("c"),
                    idx: flat.clone(),
                    value: flat.clone(),
                }],
                parallel: false,
                vector: false,
            })],
            parallel: false,
            vector: false,
        }),
        IrStmt::Decl {
            ty: CType::Int,
            name: "s".into(),
            init: Some(i(0)),
        },
        IrStmt::For(ForLoop {
            schedule: None,
            var: "z".into(),
            lo: i(0),
            hi: i(m * n),
            body: vec![IrStmt::Assign {
                name: "s".into(),
                value: IrExpr::add(
                    v("s"),
                    IrExpr::Load {
                        elem: Elem::I32,
                        buf: Box::new(v("c")),
                        idx: Box::new(v("z")),
                    },
                ),
            }],
            parallel: false,
            vector: false,
        }),
        IrStmt::Expr(IrExpr::Builtin(Builtin::PrintI32, vec![v("s")])),
    ];
    IrProgram {
        functions: vec![IrFunction {
            name: "main".into(),
            params: vec![],
            ret: CType::Void,
            ret_tuple: None,
            body,
        }],
    }
}

fn run(program: &IrProgram, threads: usize) -> (Value, String) {
    let interp = Interp::new(program, threads);
    let v = interp.run_main().unwrap();
    (v, interp.output())
}

mod ir_tests {
    use super::*;

    #[test]
    fn substitute_rewrites_var() {
        let e = IrExpr::add(v("j"), IrExpr::mul(v("j"), i(2)));
        let r = e.substitute("j", &IrExpr::add(IrExpr::mul(v("jout"), i(4)), v("jin")));
        assert!(!r.uses_var("j"));
        assert!(r.uses_var("jout") && r.uses_var("jin"));
    }

    #[test]
    fn substitute_respects_shadowing() {
        // for (j ...) { body uses j } — substituting j outside must not
        // touch the shadowed body.
        let inner = IrStmt::For(ForLoop {
            schedule: None,
            var: "j".into(),
            lo: i(0),
            hi: v("j"), // bound sees outer j
            body: vec![IrStmt::Assign {
                name: "x".into(),
                value: v("j"),
            }],
            parallel: false,
            vector: false,
        });
        let r = inner.substitute("j", &i(9));
        let IrStmt::For(f) = r else { panic!() };
        assert_eq!(f.hi, i(9), "bound substituted");
        assert_eq!(
            f.body[0],
            IrStmt::Assign {
                name: "x".into(),
                value: v("j")
            },
            "shadowed body untouched"
        );
    }

    #[test]
    fn uses_var_deep() {
        let e = IrExpr::Load {
            elem: Elem::F32,
            buf: Box::new(v("m")),
            idx: Box::new(IrExpr::add(v("a"), i(1))),
        };
        assert!(e.uses_var("a"));
        assert!(e.uses_var("m"));
        assert!(!e.uses_var("b"));
    }
}

mod transform_tests {
    use super::*;

    fn find_loop<'a>(stmts: &'a [IrStmt], var: &str) -> Option<&'a ForLoop> {
        for s in stmts {
            match s {
                IrStmt::For(f) => {
                    if &*f.var == var {
                        return Some(f);
                    }
                    if let Some(r) = find_loop(&f.body, var) {
                        return Some(r);
                    }
                }
                IrStmt::Block(b) => {
                    if let Some(r) = find_loop(b, var) {
                        return Some(r);
                    }
                }
                IrStmt::If { then_b, else_b, .. } => {
                    if let Some(r) = find_loop(then_b, var).or_else(|| find_loop(else_b, var)) {
                        return Some(r);
                    }
                }
                IrStmt::While { body, .. } => {
                    if let Some(r) = find_loop(body, var) {
                        return Some(r);
                    }
                }
                _ => {}
            }
        }
        None
    }

    #[test]
    fn split_produces_fig10_structure() {
        // Fig 9 line 6: split j by 4, jin, jout.
        let mut body = mean_function(6, 8, 10).body;
        apply(
            &mut body,
            &LoopTransform::Split {
                index: "j".into(),
                by: 4,
                inner: "jin".into(),
                outer: "jout".into(),
            },
        )
        .unwrap();
        // Structure: i { jout { jin { ... } } }, j replaced by jout*4+jin.
        let iloop = find_loop(&body, "i").expect("i loop");
        let jout = find_loop(&iloop.body, "jout").expect("jout loop");
        assert_eq!(jout.hi, IrExpr::bin(B::Div, i(8), i(4)));
        let jin = find_loop(&jout.body, "jin").expect("jin loop");
        assert_eq!(jin.lo, i(0));
        assert_eq!(jin.hi, i(4));
        assert!(find_loop(&body, "j").is_none(), "original j loop replaced");
        // The body must reference jout*4+jin.
        let IrStmt::Store { idx, .. } = &jin.body[2] else {
            panic!("expected store as third stmt");
        };
        assert!(idx.uses_var("jout") && idx.uses_var("jin"));
    }

    #[test]
    fn split_nondivisible_literal_gets_remainder_loop() {
        let mut stmts = vec![IrStmt::For(ForLoop {
            schedule: None,
            var: "x".into(),
            lo: i(0),
            hi: i(10),
            body: vec![IrStmt::Assign {
                name: "s".into(),
                value: IrExpr::add(v("s"), v("x")),
            }],
            parallel: false,
            vector: false,
        })];
        apply(
            &mut stmts,
            &LoopTransform::Split {
                index: "x".into(),
                by: 4,
                inner: "xin".into(),
                outer: "xout".into(),
            },
        )
        .unwrap();
        // Remainder loop with the original var covering 8..10.
        let rem = find_loop(&stmts, "x").expect("remainder loop");
        assert_eq!(rem.lo, i(8));
        assert_eq!(rem.hi, i(10));
    }

    #[test]
    fn split_errors() {
        let mut body = mean_function(4, 4, 4).body;
        assert_eq!(
            apply(
                &mut body,
                &LoopTransform::Split {
                    index: "zz".into(),
                    by: 4,
                    inner: "a".into(),
                    outer: "b".into()
                }
            ),
            Err(TransformError::LoopNotFound { index: "zz".into() })
        );
        assert_eq!(
            apply(
                &mut body,
                &LoopTransform::Split {
                    index: "j".into(),
                    by: 0,
                    inner: "a".into(),
                    outer: "b".into()
                }
            ),
            Err(TransformError::BadFactor { factor: 0 })
        );
        assert_eq!(
            apply(
                &mut body,
                &LoopTransform::Split {
                    index: "j".into(),
                    by: 4,
                    inner: "i".into(),
                    outer: "b".into()
                }
            ),
            Err(TransformError::NameCollision { name: "i".into() })
        );
    }

    #[test]
    fn vectorize_requires_0_to_4_bounds() {
        let mut body = mean_function(6, 8, 10).body;
        // j runs 0..8: not vectorizable directly.
        assert!(matches!(
            apply(&mut body, &LoopTransform::Vectorize { index: "j".into() }),
            Err(TransformError::BadVectorLoop { .. })
        ));
        // After split by 4, jin runs 0..4: vectorizable (Fig 9 order).
        apply_all(
            &mut body,
            &[
                LoopTransform::Split {
                    index: "j".into(),
                    by: 4,
                    inner: "jin".into(),
                    outer: "jout".into(),
                },
                LoopTransform::Vectorize { index: "jin".into() },
                LoopTransform::Parallelize { index: "i".into() },
            ],
        )
        .unwrap();
        assert!(find_loop(&body, "jin").unwrap().vector);
        assert!(find_loop(&body, "i").unwrap().parallel);
    }

    #[test]
    fn interchange_swaps_nest() {
        let mut body = mean_function(6, 8, 10).body;
        apply(
            &mut body,
            &LoopTransform::Interchange {
                a: "i".into(),
                b: "j".into(),
            },
        )
        .unwrap();
        // Now j is outermost.
        let IrStmt::For(outer) = &body[0] else { panic!() };
        assert_eq!(&*outer.var, "j");
        assert_eq!(&*find_loop(&outer.body, "i").unwrap().var, "i");
    }

    #[test]
    fn reorder_requires_perfect_nest() {
        // The j loop body has a decl + k loop + store: reordering j and k
        // is not possible (k is not the only statement).
        let mut body = mean_function(6, 8, 10).body;
        assert!(matches!(
            apply(
                &mut body,
                &LoopTransform::Reorder {
                    order: vec!["k".into(), "j".into()]
                }
            ),
            Err(TransformError::NotPerfectlyNested { .. })
        ));
    }

    #[test]
    fn tile_is_two_splits_and_reorder() {
        // Perfect 2-deep nest.
        let mut stmts = vec![IrStmt::For(ForLoop {
            schedule: None,
            var: "x".into(),
            lo: i(0),
            hi: i(8),
            body: vec![IrStmt::For(ForLoop {
                schedule: None,
                var: "y".into(),
                lo: i(0),
                hi: i(8),
                body: vec![IrStmt::Store {
                    elem: Elem::F32,
                    buf: v("c"),
                    idx: IrExpr::add(IrExpr::mul(v("x"), i(8)), v("y")),
                    value: IrExpr::Float(1.0),
                }],
                parallel: false,
                vector: false,
            })],
            parallel: false,
            vector: false,
        })];
        apply(
            &mut stmts,
            &LoopTransform::Tile {
                i: "x".into(),
                j: "y".into(),
                bi: 4,
                bj: 2,
            },
        )
        .unwrap();
        // Expected nest order: x_out, y_out, x_in, y_in (§V).
        let xo = find_loop(&stmts, "x_out").expect("x_out");
        let yo = find_loop(&xo.body, "y_out").expect("y_out under x_out");
        let xi = find_loop(&yo.body, "x_in").expect("x_in under y_out");
        let yi = find_loop(&xi.body, "y_in").expect("y_in under x_in");
        assert_eq!(yi.hi, i(2));
    }

    #[test]
    fn transforms_preserve_semantics() {
        // Interpret the mean program before and after each transformation
        // recipe; printed output must be identical.
        let base = mean_program(4, 8, 5);
        let (_, expected) = run(&base, 2);
        let recipes: Vec<Vec<LoopTransform>> = vec![
            vec![LoopTransform::Split {
                index: "j".into(),
                by: 4,
                inner: "jin".into(),
                outer: "jout".into(),
            }],
            vec![
                LoopTransform::Split {
                    index: "j".into(),
                    by: 4,
                    inner: "jin".into(),
                    outer: "jout".into(),
                },
                LoopTransform::Vectorize { index: "jin".into() },
                LoopTransform::Parallelize { index: "i".into() },
            ],
            vec![LoopTransform::Interchange {
                a: "i".into(),
                b: "j".into(),
            }],
            vec![LoopTransform::Unroll {
                index: "k".into(),
                by: 2,
            }],
            vec![LoopTransform::Unroll {
                index: "k".into(),
                by: 3,
            }],
            vec![LoopTransform::Parallelize { index: "i".into() }],
        ];
        for (ri, recipe) in recipes.iter().enumerate() {
            let mut prog = base.clone();
            let mean = prog
                .functions
                .iter_mut()
                .find(|f| &*f.name == "mean")
                .expect("mean function");
            apply_all(&mut mean.body, recipe).unwrap_or_else(|e| panic!("recipe {ri}: {e}"));
            let (_, got) = run(&prog, 3);
            assert_eq!(got, expected, "recipe {ri} changed semantics");
        }
    }

    #[test]
    fn split_and_unroll_keep_tail_iterations() {
        // Explicit corners of the tail-drop bugfix: divisible,
        // non-divisible, extent < factor, and extent 1 — each with the
        // loop bound written as a literal and as a symbolic variable.
        for &(n, by) in &[(12, 4), (10, 4), (3, 4), (1, 2), (7, 3)] {
            for symbolic in [false, true] {
                let base = tail_sum_kernel(n, symbolic);
                let (_, expected) = run(&base, 1);
                let recipes = [
                    LoopTransform::Split {
                        index: "t".into(),
                        by,
                        inner: "tin".into(),
                        outer: "tout".into(),
                    },
                    LoopTransform::Unroll { index: "t".into(), by },
                ];
                for tf in recipes {
                    let mut prog = base.clone();
                    apply(&mut prog.functions[0].body, &tf)
                        .unwrap_or_else(|e| panic!("{tf:?} on n={n}: {e}"));
                    for threads in [1, 3] {
                        let (_, got) = run(&prog, threads);
                        assert_eq!(
                            got, expected,
                            "{tf:?} dropped iterations (n={n}, by={by}, symbolic={symbolic})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tile_keeps_tail_iterations() {
        // Non-divisible extents leave i- and j-tails; both must run.
        for &(m, n, bi, bj) in &[(8, 8, 4, 2), (10, 6, 4, 4), (5, 7, 3, 5), (2, 2, 4, 4)] {
            for symbolic in [false, true] {
                let base = grid_kernel(m, n, symbolic);
                let (_, expected) = run(&base, 1);
                let mut prog = base.clone();
                apply(
                    &mut prog.functions[0].body,
                    &LoopTransform::Tile {
                        i: "x".into(),
                        j: "y".into(),
                        bi,
                        bj,
                    },
                )
                .unwrap_or_else(|e| panic!("tile {m}x{n} by {bi},{bj}: {e}"));
                for threads in [1, 2] {
                    let (_, got) = run(&prog, threads);
                    assert_eq!(
                        got, expected,
                        "tile dropped iterations (m={m}, n={n}, bi={bi}, bj={bj}, symbolic={symbolic})"
                    );
                }
            }
        }
    }
}

mod interp_tests {
    use super::*;

    fn simple_main(body: Vec<IrStmt>) -> IrProgram {
        IrProgram {
            functions: vec![IrFunction {
                name: "main".into(),
                params: vec![],
                ret: CType::Void,
                ret_tuple: None,
                body,
            }],
        }
    }

    #[test]
    fn arithmetic_and_print() {
        let prog = simple_main(vec![
            IrStmt::Decl {
                ty: CType::Int,
                name: "x".into(),
                init: Some(IrExpr::add(i(40), i(2))),
            },
            IrStmt::Expr(IrExpr::Builtin(Builtin::PrintI32, vec![v("x")])),
            IrStmt::Expr(IrExpr::Builtin(
                Builtin::PrintF32,
                vec![IrExpr::bin(B::Div, IrExpr::Float(1.0), IrExpr::Float(4.0))],
            )),
        ]);
        let (_, out) = run(&prog, 1);
        assert_eq!(out, "42\n0.250000\n");
    }

    #[test]
    fn control_flow() {
        let prog = simple_main(vec![
            IrStmt::Decl {
                ty: CType::Int,
                name: "s".into(),
                init: Some(i(0)),
            },
            IrStmt::Decl {
                ty: CType::Int,
                name: "n".into(),
                init: Some(i(0)),
            },
            IrStmt::While {
                cond: IrExpr::bin(B::Lt, v("n"), i(5)),
                body: vec![
                    IrStmt::If {
                        cond: IrExpr::bin(B::Eq, IrExpr::bin(B::Rem, v("n"), i(2)), i(0)),
                        then_b: vec![IrStmt::Assign {
                            name: "s".into(),
                            value: IrExpr::add(v("s"), v("n")),
                        }],
                        else_b: vec![],
                    },
                    IrStmt::Assign {
                        name: "n".into(),
                        value: IrExpr::add(v("n"), i(1)),
                    },
                ],
            },
            IrStmt::Expr(IrExpr::Builtin(Builtin::PrintI32, vec![v("s")])),
        ]);
        let (_, out) = run(&prog, 1);
        assert_eq!(out, "6\n"); // 0 + 2 + 4
    }

    #[test]
    fn function_calls_and_returns() {
        let prog = IrProgram {
            functions: vec![
                IrFunction {
                    name: "main".into(),
                    params: vec![],
                    ret: CType::Void,
                    ret_tuple: None,
                    body: vec![IrStmt::Expr(IrExpr::Builtin(
                        Builtin::PrintI32,
                        vec![IrExpr::Call("square".into(), vec![i(7)])],
                    ))],
                },
                IrFunction {
                    name: "square".into(),
                    params: vec![("x".into(), CType::Int)],
                    ret: CType::Int,
                    ret_tuple: None,
                    body: vec![IrStmt::Return(Some(IrExpr::mul(v("x"), v("x"))))],
                },
            ],
        };
        let (_, out) = run(&prog, 1);
        assert_eq!(out, "49\n");
    }

    #[test]
    fn buffers_and_dims() {
        let prog = simple_main(vec![
            IrStmt::Decl {
                ty: CType::Buf(Elem::I32),
                name: "m".into(),
                init: Some(IrExpr::Builtin(Builtin::AllocMat(Elem::I32), vec![i(2), i(3)])),
            },
            IrStmt::Store {
                elem: Elem::I32,
                buf: v("m"),
                idx: i(5),
                value: i(99),
            },
            IrStmt::Expr(IrExpr::Builtin(
                Builtin::PrintI32,
                vec![IrExpr::Load {
                    elem: Elem::I32,
                    buf: Box::new(v("m")),
                    idx: Box::new(i(5)),
                }],
            )),
            IrStmt::Expr(IrExpr::Builtin(
                Builtin::PrintI32,
                vec![IrExpr::Builtin(Builtin::Dim, vec![v("m"), i(1)])],
            )),
            IrStmt::Expr(IrExpr::Builtin(
                Builtin::PrintI32,
                vec![IrExpr::Builtin(Builtin::Len, vec![v("m")])],
            )),
        ]);
        let (_, out) = run(&prog, 1);
        assert_eq!(out, "99\n3\n6\n");
    }

    #[test]
    fn refcount_and_use_after_free() {
        let prog = simple_main(vec![
            IrStmt::Decl {
                ty: CType::Buf(Elem::F32),
                name: "m".into(),
                init: Some(IrExpr::Builtin(Builtin::AllocMat(Elem::F32), vec![i(4)])),
            },
            IrStmt::Expr(IrExpr::Builtin(Builtin::RcIncr, vec![v("m")])),
            IrStmt::Expr(IrExpr::Builtin(
                Builtin::PrintI32,
                vec![IrExpr::Builtin(Builtin::RcCount, vec![v("m")])],
            )),
            IrStmt::Expr(IrExpr::Builtin(Builtin::RcDecr, vec![v("m")])),
            IrStmt::Expr(IrExpr::Builtin(Builtin::RcDecr, vec![v("m")])),
            // Access after the count reached zero: use-after-free.
            IrStmt::Expr(IrExpr::Load {
                elem: Elem::F32,
                buf: Box::new(v("m")),
                idx: Box::new(i(0)),
            }),
        ]);
        let interp = Interp::new(&prog, 1);
        let err = interp.run_main().unwrap_err();
        assert!(err.message.contains("use after free"), "{err}");
        assert_eq!(interp.output(), "2\n");
    }

    #[test]
    fn out_of_bounds_reported() {
        let prog = simple_main(vec![
            IrStmt::Decl {
                ty: CType::Buf(Elem::I32),
                name: "m".into(),
                init: Some(IrExpr::Builtin(Builtin::AllocMat(Elem::I32), vec![i(2)])),
            },
            IrStmt::Store {
                elem: Elem::I32,
                buf: v("m"),
                idx: i(2),
                value: i(0),
            },
        ]);
        let interp = Interp::new(&prog, 1);
        assert!(interp.run_main().unwrap_err().message.contains("out of bounds"));
    }

    #[test]
    fn parallel_loop_writes_disjoint() {
        for threads in [1, 2, 4] {
            let prog = simple_main(vec![
                IrStmt::Decl {
                    ty: CType::Buf(Elem::I32),
                    name: "m".into(),
                    init: Some(IrExpr::Builtin(Builtin::AllocMat(Elem::I32), vec![i(1000)])),
                },
                IrStmt::For(ForLoop {
                    schedule: None,
                    var: "x".into(),
                    lo: i(0),
                    hi: i(1000),
                    body: vec![IrStmt::Store {
                        elem: Elem::I32,
                        buf: v("m"),
                        idx: v("x"),
                        value: IrExpr::mul(v("x"), i(3)),
                    }],
                    parallel: true,
                    vector: false,
                }),
                IrStmt::Expr(IrExpr::Builtin(
                    Builtin::PrintI32,
                    vec![IrExpr::Load {
                        elem: Elem::I32,
                        buf: Box::new(v("m")),
                        idx: Box::new(i(999)),
                    }],
                )),
            ]);
            let (_, out) = run(&prog, threads);
            assert_eq!(out, "2997\n", "threads = {threads}");
        }
    }

    #[test]
    fn return_in_scheduled_parallel_loop_is_typed_error() {
        // Regression: the chunk-claim loop must surface `Flow::Return`
        // from a worker as the typed "return inside a parallel loop"
        // error under every scheduling policy — not execute the return,
        // and (the failure mode this guards) not leave other participants
        // draining their deques forever. A body returning from one
        // mid-range iteration exercises the early-exit path of the claim
        // loop rather than the first claim.
        let schedules = [
            Schedule::Static,
            Schedule::Dynamic { chunk: 1 },
            Schedule::Dynamic { chunk: 3 },
            Schedule::Guided { min_chunk: 2 },
        ];
        for process_default in schedules {
            for per_loop in [None, Some(Schedule::Dynamic { chunk: 2 })] {
                for threads in [1, 4] {
                    let prog = simple_main(vec![IrStmt::For(ForLoop {
                        var: "x".into(),
                        lo: i(0),
                        hi: i(64),
                        body: vec![IrStmt::If {
                            cond: IrExpr::bin(B::Eq, v("x"), i(37)),
                            then_b: vec![IrStmt::Return(None)],
                            else_b: vec![],
                        }],
                        parallel: true,
                        vector: false,
                        schedule: per_loop,
                    })]);
                    let interp = Interp::new(&prog, threads).with_schedule(process_default);
                    let err = interp.run_main().expect_err("return must not succeed");
                    assert!(
                        err.message.contains("return inside a parallel loop is not supported"),
                        "schedule {process_default:?}/{per_loop:?}, threads {threads}: {}",
                        err.message
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_mean() {
        let prog = mean_program(6, 8, 10);
        let (_, seq) = run(&prog, 1);
        let mut par = prog.clone();
        let mean = par.functions.iter_mut().find(|f| &*f.name == "mean").unwrap();
        crate::transform::apply(
            &mut mean.body,
            &LoopTransform::Parallelize { index: "i".into() },
        )
        .unwrap();
        let (_, got) = run(&par, 4);
        assert_eq!(got, seq);
    }

    #[test]
    fn cow_builtin_copy_on_shared() {
        let prog = simple_main(vec![
            IrStmt::Decl {
                ty: CType::Buf(Elem::I32),
                name: "a".into(),
                init: Some(IrExpr::Builtin(Builtin::AllocMat(Elem::I32), vec![i(2)])),
            },
            // b = a (share + incr)
            IrStmt::Decl {
                ty: CType::Buf(Elem::I32),
                name: "b".into(),
                init: Some(v("a")),
            },
            IrStmt::Expr(IrExpr::Builtin(Builtin::RcIncr, vec![v("a")])),
            // b = cow(b); b[0] = 7 — a must stay 0.
            IrStmt::Assign {
                name: "b".into(),
                value: IrExpr::Builtin(Builtin::Cow(Elem::I32), vec![v("b")]),
            },
            IrStmt::Store {
                elem: Elem::I32,
                buf: v("b"),
                idx: i(0),
                value: i(7),
            },
            IrStmt::Expr(IrExpr::Builtin(
                Builtin::PrintI32,
                vec![IrExpr::Load {
                    elem: Elem::I32,
                    buf: Box::new(v("a")),
                    idx: Box::new(i(0)),
                }],
            )),
            IrStmt::Expr(IrExpr::Builtin(
                Builtin::PrintI32,
                vec![IrExpr::Load {
                    elem: Elem::I32,
                    buf: Box::new(v("b")),
                    idx: Box::new(i(0)),
                }],
            )),
        ]);
        let (_, out) = run(&prog, 1);
        assert_eq!(out, "0\n7\n");
    }

    #[test]
    fn matrix_file_roundtrip() {
        let path = std::env::temp_dir().join(format!("cmm-loopir-{}.cmmx", std::process::id()));
        let path_s = path.to_str().unwrap().to_string();
        let prog = simple_main(vec![
            IrStmt::Decl {
                ty: CType::Buf(Elem::F32),
                name: "m".into(),
                init: Some(IrExpr::Builtin(Builtin::AllocMat(Elem::F32), vec![i(2), i(2)])),
            },
            IrStmt::Store {
                elem: Elem::F32,
                buf: v("m"),
                idx: i(3),
                value: IrExpr::Float(1.5),
            },
            IrStmt::Expr(IrExpr::Builtin(
                Builtin::WriteMat(Elem::F32),
                vec![IrExpr::Str(path_s.clone()), v("m")],
            )),
            IrStmt::Decl {
                ty: CType::Buf(Elem::F32),
                name: "r".into(),
                init: Some(IrExpr::Builtin(
                    Builtin::ReadMat(Elem::F32),
                    vec![IrExpr::Str(path_s.clone())],
                )),
            },
            IrStmt::Expr(IrExpr::Builtin(
                Builtin::PrintF32,
                vec![IrExpr::Load {
                    elem: Elem::F32,
                    buf: Box::new(v("r")),
                    idx: Box::new(i(3)),
                }],
            )),
        ]);
        let (_, out) = run(&prog, 1);
        assert_eq!(out, "1.500000\n");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn undefined_variable_and_function_errors() {
        let p1 = simple_main(vec![IrStmt::Expr(IrExpr::Var("nope".into()))]);
        assert!(Interp::new(&p1, 1)
            .run_main()
            .unwrap_err()
            .message
            .contains("undefined variable"));
        let p2 = simple_main(vec![IrStmt::Expr(IrExpr::Call("nope".into(), vec![]))]);
        assert!(Interp::new(&p2, 1)
            .run_main()
            .unwrap_err()
            .message
            .contains("undefined function"));
    }

    #[test]
    fn division_by_zero() {
        let p = simple_main(vec![IrStmt::Expr(IrExpr::bin(B::Div, i(1), i(0)))]);
        assert!(Interp::new(&p, 1)
            .run_main()
            .unwrap_err()
            .message
            .contains("division by zero"));
    }
}

mod emit_tests {
    use super::*;
    use crate::emit::emit_program;

    /// The prelude's `cmm_mat` holds `MAX_RANK` extents, and its CMMX
    /// reader refuses a wider file before it stores one.
    #[test]
    fn the_prelude_holds_max_rank_extents_and_reads_no_more() {
        let c = emit_program(&IrProgram::default()).unwrap();
        assert!(c.contains(&format!("    long long dims[{MAX_RANK}];\n")));
        let guard = format!(
            "    if (rank > {MAX_RANK}) {{ fprintf(stderr, \"readMatrix(%s): invalid header: \
             rank %d exceeds {MAX_RANK}\\n\", path, rank); exit(1); }}\n"
        );
        let (guard_at, loop_at) = (c.find(&guard), c.find("for (int d = 0; d < rank; d++) {\n        unsigned char b8[8];"));
        assert!(guard_at.is_some() && guard_at < loop_at, "{guard_at:?} {loop_at:?}");
    }

    /// The builtin table against the prelude: every variant's C name is a
    /// function the emitted runtime defines, and names map back to their
    /// variant (how the emitter spots a user function that would collide).
    /// A user function or variable spelled like one is renamed — for every
    /// variant, which holds the emitter's shortcut by initial to the table.
    #[test]
    fn every_builtin_is_defined_by_the_prelude_and_found_by_name() {
        let c = emit_program(&IrProgram::default()).unwrap();
        for b in Builtin::ALL {
            let name = b.c_name();
            assert_eq!(Builtin::from_c_name(name), Some(b));
            let defined = c
                .lines()
                .any(|l| l.starts_with("static ") && l.contains(&format!(" {name}(")));
            assert!(defined, "the prelude does not define {name}");

            let user = IrProgram {
                functions: vec![IrFunction {
                    name: name.into(),
                    params: vec![(name.into(), CType::Int)],
                    ret: CType::Int,
                    ret_tuple: None,
                    body: vec![IrStmt::Return(Some(IrExpr::Var(name.into())))],
                }],
            };
            let c = emit_program(&user).unwrap();
            let renamed = format!("int cmm_user_{name}(int cmm_user_{name}) {{\n    return cmm_user_{name};");
            assert!(c.contains(&renamed), "{name} as a user name:\n{}", &c[c.len() - 200..]);
        }
        assert_eq!(Builtin::from_c_name("main"), None);
    }

    #[test]
    fn emits_openmp_pragma_for_parallel() {
        let mut prog = mean_program(4, 8, 4);
        let mean = prog.functions.iter_mut().find(|f| &*f.name == "mean").unwrap();
        apply(
            &mut mean.body,
            &LoopTransform::Parallelize { index: "i".into() },
        )
        .unwrap();
        let c = emit_program(&prog).expect("emit");
        assert!(c.contains("#pragma omp parallel for"), "{c}");
    }

    #[test]
    fn emits_sse_for_vectorized() {
        let mut prog = mean_program(4, 8, 4);
        let mean = prog.functions.iter_mut().find(|f| &*f.name == "mean").unwrap();
        apply_all(
            &mut mean.body,
            &[
                LoopTransform::Split {
                    index: "j".into(),
                    by: 4,
                    inner: "jin".into(),
                    outer: "jout".into(),
                },
                LoopTransform::Vectorize { index: "jin".into() },
            ],
        )
        .unwrap();
        let c = emit_program(&prog).expect("emit");
        assert!(c.contains("__m128"), "{c}");
        assert!(c.contains("_mm_add_ps") || c.contains("_mm_set_ps"), "{c}");
        assert!(c.contains("_mm_storeu_ps") || c.contains("vspill"), "{c}");
    }

    #[test]
    fn emitted_c_contains_runtime_and_signatures() {
        let prog = mean_program(2, 4, 2);
        let c = emit_program(&prog).expect("emit");
        assert!(c.contains("typedef struct"));
        assert!(c.contains("int main(void)"));
        assert!(c.contains("void mean(cmm_mat* mat, cmm_mat* means)"));
        assert!(c.contains("rc_decr"));
        assert!(c.contains("alloc_mat_f32(2, 2, 4)"), "rank-prefixed alloc: {c}");
    }

    fn fn_with_body(name: &str, body: Vec<IrStmt>) -> IrFunction {
        IrFunction {
            name: name.into(),
            params: vec![],
            ret: CType::Void,
            ret_tuple: None,
            body,
        }
    }

    #[test]
    fn unpack_without_call_is_a_typed_error_not_a_panic() {
        let prog = IrProgram {
            functions: vec![fn_with_body(
                "main",
                vec![
                    IrStmt::Decl {
                        ty: CType::Int,
                        name: "a".into(),
                        init: None,
                    },
                    IrStmt::UnpackCall {
                        targets: vec!["a".into()],
                        call: IrExpr::Var("x".into()),
                    },
                ],
            )],
        };
        let err = emit_program(&prog).unwrap_err();
        assert_eq!(
            err,
            crate::emit::EmitError::UnpackWithoutCall {
                function: "main".into()
            }
        );
        assert!(err.to_string().contains("main"), "{err}");
    }

    #[test]
    fn tuple_outside_return_is_a_typed_error_not_a_panic() {
        // A tuple as a declaration initializer has no C equivalent.
        let prog = IrProgram {
            functions: vec![fn_with_body(
                "helper",
                vec![IrStmt::Decl {
                    ty: CType::Int,
                    name: "t".into(),
                    init: Some(IrExpr::Tuple(vec![IrExpr::Int(1), IrExpr::Int(2)])),
                }],
            )],
        };
        let err = emit_program(&prog).unwrap_err();
        assert_eq!(
            err,
            crate::emit::EmitError::TupleOutsideReturn {
                function: "helper".into()
            }
        );

        // Nested tuples inside a returned tuple are equally unmappable.
        let nested = IrProgram {
            functions: vec![IrFunction {
                name: "pair".into(),
                params: vec![],
                ret: CType::Void,
                ret_tuple: Some(vec![CType::Int, CType::Int]),
                body: vec![IrStmt::Return(Some(IrExpr::Tuple(vec![
                    IrExpr::Int(1),
                    IrExpr::Tuple(vec![IrExpr::Int(2)]),
                ])))],
            }],
        };
        assert!(matches!(
            emit_program(&nested).unwrap_err(),
            crate::emit::EmitError::TupleOutsideReturn { .. }
        ));
    }

    #[test]
    fn the_emitter_returns_the_first_invalid_functions_error() {
        let tuple_decl = fn_with_body(
            "first",
            vec![IrStmt::Decl {
                ty: CType::Int,
                name: "t".into(),
                init: Some(IrExpr::Tuple(vec![IrExpr::Int(1)])),
            }],
        );
        let unpack = fn_with_body(
            "second",
            vec![IrStmt::UnpackCall {
                targets: vec!["a".into()],
                call: IrExpr::Var("x".into()),
            }],
        );
        let valid = fn_with_body("valid", vec![IrStmt::Return(None)]);
        let prog = IrProgram {
            functions: vec![valid.clone(), tuple_decl, unpack],
        };
        let mut emitter = crate::emit::Emitter::default();
        let first = prog.functions.iter().find_map(|f| emitter.function(f).err());
        let expected = crate::emit::EmitError::TupleOutsideReturn {
            function: "first".into(),
        };
        assert_eq!(first, Some(expected.clone()));
        assert_eq!(emit_program(&prog).unwrap_err(), expected);
        // The invalid function appended nothing.
        let only_valid = IrProgram {
            functions: vec![valid],
        };
        assert_eq!(emitter.finish(), emit_program(&only_valid).unwrap());
    }

    #[test]
    fn tuple_directly_under_return_still_emits() {
        let prog = IrProgram {
            functions: vec![
                IrFunction {
                    name: "pair".into(),
                    params: vec![],
                    ret: CType::Void,
                    ret_tuple: Some(vec![CType::Int, CType::Float]),
                    body: vec![IrStmt::Return(Some(IrExpr::Tuple(vec![
                        IrExpr::Int(1),
                        IrExpr::Float(2.0),
                    ])))],
                },
                fn_with_body("main", vec![IrStmt::Return(None)]),
            ],
        };
        let c = emit_program(&prog).expect("emit");
        assert!(c.contains("pair"), "{c}");
    }

    #[test]
    fn non_finite_floats_emit_valid_c_spellings() {
        // `1e40` overflows f32 to +inf during parsing, so non-finite
        // literals reach the emitter from real source; `{:?}` would print
        // `inff` / `NaNf`, which C rejects.
        let prog = IrProgram {
            functions: vec![fn_with_body(
                "main",
                vec![
                    IrStmt::Decl {
                        ty: CType::Float,
                        name: "p".into(),
                        init: Some(IrExpr::Float(f32::INFINITY)),
                    },
                    IrStmt::Decl {
                        ty: CType::Float,
                        name: "q".into(),
                        init: Some(IrExpr::Float(f32::NEG_INFINITY)),
                    },
                    IrStmt::Decl {
                        ty: CType::Float,
                        name: "r".into(),
                        init: Some(IrExpr::Float(f32::NAN)),
                    },
                ],
            )],
        };
        let c = emit_program(&prog).expect("emit");
        assert!(c.contains("#include <math.h>"), "{c}");
        assert!(c.contains("float p = INFINITY;"), "{c}");
        assert!(c.contains("float q = (-INFINITY);"), "{c}");
        assert!(c.contains("float r = ((float)NAN);"), "{c}");
        assert!(!c.contains("inff"), "invalid C float literal: {c}");
        assert!(!c.contains("NaNf"), "invalid C float literal: {c}");
    }

    /// String literals are spelled for C, not by Rust's `Debug`: a control
    /// byte is three octal digits, so NUL followed by `1` stays two
    /// characters (C would read `\01` as one), and `\u{1}` never appears.
    #[test]
    fn string_literals_use_c_escapes() {
        let text = "a\u{0}1\u{1}\"\\\n\t\r\u{7f}é'";
        let print = IrExpr::Builtin(Builtin::PrintStr, vec![IrExpr::Str(text.into())]);
        let prog = IrProgram {
            functions: vec![fn_with_body("main", vec![IrStmt::Expr(print)])],
        };
        let c = emit_program(&prog).expect("emit");
        assert!(c.contains(r#"print_str("a\0001\001\"\\\n\t\r\177é'");"#), "{c}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_split_preserves_mean_output(
        m in 1i64..5, n in 1i64..9, p in 1i64..6, by in 1i64..5, threads in 1usize..4
    ) {
        let base = mean_program(m, n, p);
        let (_, expected) = run(&base, 1);
        let mut prog = base.clone();
        let mean = prog.functions.iter_mut().find(|f| &*f.name == "mean").unwrap();
        apply(&mut mean.body, &LoopTransform::Split {
            index: "j".into(), by, inner: "jin".into(), outer: "jout".into(),
        }).unwrap();
        let (_, got) = run(&prog, threads);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn prop_tile_preserves_matmul_like_store(bi in 1i64..6, bj in 1i64..6) {
        // c[x*8+y] = x*8+y over an 8x8 grid, tiled arbitrarily.
        let build = || vec![
            IrStmt::Decl {
                ty: CType::Buf(Elem::I32),
                name: "c".into(),
                init: Some(IrExpr::Builtin(Builtin::AllocMat(Elem::I32), vec![i(8), i(8)])),
            },
            IrStmt::For(ForLoop {
                schedule: None,
                var: "x".into(), lo: i(0), hi: i(8),
                body: vec![IrStmt::For(ForLoop {
                    schedule: None,
                    var: "y".into(), lo: i(0), hi: i(8),
                    body: vec![IrStmt::Store {
                        elem: Elem::I32,
                        buf: v("c"),
                        idx: IrExpr::add(IrExpr::mul(v("x"), i(8)), v("y")),
                        value: IrExpr::add(IrExpr::mul(v("x"), i(8)), v("y")),
                    }],
                    parallel: false, vector: false,
                })],
                parallel: false, vector: false,
            }),
            IrStmt::For(ForLoop {
                schedule: None,
                var: "z".into(), lo: i(0), hi: i(64),
                body: vec![IrStmt::Expr(IrExpr::Builtin(Builtin::PrintI32, vec![
                    IrExpr::Load { elem: Elem::I32, buf: Box::new(v("c")), idx: Box::new(v("z")) },
                ]))],
                parallel: false, vector: false,
            }),
        ];
        let base = IrProgram { functions: vec![IrFunction {
            name: "main".into(), params: vec![], ret: CType::Void, ret_tuple: None, body: build(),
        }]};
        let (_, expected) = run(&base, 1);
        let mut tiled = base.clone();
        apply(&mut tiled.functions[0].body, &LoopTransform::Tile {
            i: "x".into(), j: "y".into(), bi, bj,
        }).expect("tile accepts any positive factors; remainders get tail loops");
        let (_, got) = run(&tiled, 2);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn prop_split_unroll_cover_all_iterations(
        n in 1i64..25, by in 1i64..6, symbolic in any::<bool>(), threads in 1usize..4
    ) {
        // The tail-drop regression, generalized: for any extent/factor
        // pair, divisible or not, literal or symbolic bound, every
        // iteration of a split or unrolled loop must still execute.
        let base = tail_sum_kernel(n, symbolic);
        let (_, expected) = run(&base, 1);
        let recipes = [
            LoopTransform::Split {
                index: "t".into(), by, inner: "tin".into(), outer: "tout".into(),
            },
            LoopTransform::Unroll { index: "t".into(), by },
        ];
        for tf in recipes {
            let mut prog = base.clone();
            apply(&mut prog.functions[0].body, &tf).unwrap();
            let (_, got) = run(&prog, threads);
            prop_assert_eq!(&got, &expected, "{:?} n={} symbolic={}", tf, n, symbolic);
        }
    }

    #[test]
    fn prop_tile_covers_all_iterations(
        m in 1i64..9, n in 1i64..9, bi in 1i64..5, bj in 1i64..5, symbolic in any::<bool>()
    ) {
        let base = grid_kernel(m, n, symbolic);
        let (_, expected) = run(&base, 1);
        let mut prog = base.clone();
        apply(&mut prog.functions[0].body, &LoopTransform::Tile {
            i: "x".into(), j: "y".into(), bi, bj,
        }).unwrap();
        let (_, got) = run(&prog, 2);
        prop_assert_eq!(&got, &expected, "m={} n={} bi={} bj={} symbolic={}", m, n, bi, bj, symbolic);
    }
}

mod vm_tests {
    use super::*;

    /// Run under one tier.
    fn run_tier(program: &IrProgram, threads: usize, tier: Tier) -> (String, String, u64) {
        let interp = Interp::new(program, threads).with_tier(tier);
        let v = interp.run_main().unwrap_or_else(|e| panic!("{tier:?}: {e}"));
        (format!("{v:?}"), interp.output(), interp.steps_used())
    }

    /// Both tiers must produce bitwise-identical output, return value,
    /// and — the accounting-equivalence contract — step totals.
    fn assert_tiers_agree(program: &IrProgram, threads: usize) -> u64 {
        let (vt, ot, st) = run_tier(program, threads, Tier::Tree);
        let (vv, ov, sv) = run_tier(program, threads, Tier::Vm);
        assert_eq!(ov, ot, "output differs between tiers");
        assert_eq!(vv, vt, "return value differs between tiers");
        assert_eq!(sv, st, "step accounting differs between tiers");
        st
    }

    /// Both tiers must fail with the same typed error and the same
    /// output produced before the failure.
    fn assert_error_parity(program: &IrProgram, threads: usize) -> InterpError {
        let it = Interp::new(program, threads).with_tier(Tier::Tree);
        let et = it.run_main().unwrap_err();
        let iv = Interp::new(program, threads).with_tier(Tier::Vm);
        let ev = iv.run_main().unwrap_err();
        assert_eq!(ev, et, "error differs between tiers");
        assert_eq!(iv.output(), it.output(), "pre-error output differs");
        et
    }

    fn main_with(body: Vec<IrStmt>) -> IrProgram {
        IrProgram {
            functions: vec![IrFunction {
                name: "main".into(),
                params: vec![],
                ret: CType::Void,
                ret_tuple: None,
                body,
            }],
        }
    }

    fn fuel(f: u64) -> Limits {
        Limits {
            fuel: Some(f),
            ..Limits::default()
        }
    }

    #[test]
    fn vm_matches_tree_on_corpus_kernels() {
        for threads in [1, 4] {
            assert_tiers_agree(&mean_program(3, 4, 5), threads);
            assert_tiers_agree(&tail_sum_kernel(17, false), threads);
            assert_tiers_agree(&tail_sum_kernel(17, true), threads);
            assert_tiers_agree(&grid_kernel(5, 7, false), threads);
            assert_tiers_agree(&grid_kernel(5, 7, true), threads);
        }
    }

    #[test]
    fn vm_matches_tree_on_control_flow_and_casts() {
        // while / if-else / rem / casts / unary ops / short-circuit.
        let prog = main_with(vec![
            IrStmt::Decl { ty: CType::Int, name: "s".into(), init: Some(i(0)) },
            IrStmt::Decl { ty: CType::Int, name: "n".into(), init: Some(i(0)) },
            IrStmt::While {
                cond: IrExpr::bin(B::Lt, v("n"), i(12)),
                body: vec![
                    IrStmt::If {
                        cond: IrExpr::bin(
                            B::And,
                            IrExpr::bin(B::Eq, IrExpr::bin(B::Rem, v("n"), i(2)), i(0)),
                            IrExpr::bin(
                                B::Or,
                                IrExpr::bin(B::Gt, v("n"), i(5)),
                                IrExpr::Not(Box::new(IrExpr::bin(B::Ge, v("n"), i(3)))),
                            ),
                        ),
                        then_b: vec![IrStmt::Assign {
                            name: "s".into(),
                            value: IrExpr::add(v("s"), v("n")),
                        }],
                        else_b: vec![IrStmt::Assign {
                            name: "s".into(),
                            value: IrExpr::bin(B::Sub, v("s"), i(1)),
                        }],
                    },
                    IrStmt::Assign { name: "n".into(), value: IrExpr::add(v("n"), i(1)) },
                ],
            },
            IrStmt::Expr(IrExpr::Builtin(Builtin::PrintI32, vec![v("s")])),
            IrStmt::Expr(IrExpr::Builtin(
                Builtin::PrintF32,
                vec![IrExpr::CastFloat(Box::new(IrExpr::Neg(Box::new(v("s")))))],
            )),
            IrStmt::Expr(IrExpr::Builtin(
                Builtin::PrintI32,
                vec![IrExpr::CastInt(Box::new(IrExpr::Float(-7.9)))],
            )),
        ]);
        assert_tiers_agree(&prog, 1);
    }

    #[test]
    fn vm_matches_tree_on_parallel_schedules() {
        let schedules = [
            Schedule::Static,
            Schedule::Dynamic { chunk: 1 },
            Schedule::Dynamic { chunk: 7 },
            Schedule::Guided { min_chunk: 2 },
        ];
        for process_default in schedules {
            for per_loop in [None, Some(Schedule::Dynamic { chunk: 3 })] {
                for threads in [1, 4] {
                    let prog = main_with(vec![
                        IrStmt::Decl {
                            ty: CType::Buf(Elem::I32),
                            name: "m".into(),
                            init: Some(IrExpr::Builtin(Builtin::AllocMat(Elem::I32), vec![i(500)])),
                        },
                        IrStmt::For(ForLoop {
                            schedule: per_loop,
                            var: "x".into(),
                            lo: i(0),
                            hi: i(500),
                            body: vec![IrStmt::Store {
                                elem: Elem::I32,
                                buf: v("m"),
                                idx: v("x"),
                                value: IrExpr::mul(v("x"), i(3)),
                            }],
                            parallel: true,
                            vector: false,
                        }),
                        IrStmt::Decl { ty: CType::Int, name: "s".into(), init: Some(i(0)) },
                        IrStmt::For(ForLoop {
                            schedule: None,
                            var: "y".into(),
                            lo: i(0),
                            hi: i(500),
                            body: vec![IrStmt::Assign {
                                name: "s".into(),
                                value: IrExpr::add(
                                    v("s"),
                                    IrExpr::Load {
                                        elem: Elem::I32,
                                        buf: Box::new(v("m")),
                                        idx: Box::new(v("y")),
                                    },
                                ),
                            }],
                            parallel: false,
                            vector: false,
                        }),
                        IrStmt::Expr(IrExpr::Builtin(Builtin::PrintI32, vec![v("s")])),
                    ]);
                    let st = {
                        let it = Interp::new(&prog, threads)
                            .with_schedule(process_default)
                            .with_tier(Tier::Tree);
                        it.run_main().unwrap();
                        assert_eq!(it.output(), "374250\n");
                        it.steps_used()
                    };
                    let iv = Interp::new(&prog, threads)
                        .with_schedule(process_default)
                        .with_tier(Tier::Vm);
                    iv.run_main().unwrap();
                    assert_eq!(iv.output(), "374250\n", "{process_default:?}/{per_loop:?}");
                    assert_eq!(iv.steps_used(), st, "{process_default:?}/{per_loop:?}");
                }
            }
        }
    }

    #[test]
    fn vm_matches_tree_on_spawn_sync_and_tuples() {
        let square = IrFunction {
            name: "square".into(),
            params: vec![("x".into(), CType::Int)],
            ret: CType::Int,
            ret_tuple: None,
            body: vec![IrStmt::Return(Some(IrExpr::mul(v("x"), v("x"))))],
        };
        let divmod = IrFunction {
            name: "divmod".into(),
            params: vec![("a".into(), CType::Int), ("b".into(), CType::Int)],
            ret: CType::Void,
            ret_tuple: Some(vec![CType::Int, CType::Int]),
            body: vec![IrStmt::Return(Some(IrExpr::Tuple(vec![
                IrExpr::bin(B::Div, v("a"), v("b")),
                IrExpr::bin(B::Rem, v("a"), v("b")),
            ])))],
        };
        let main = IrFunction {
            name: "main".into(),
            params: vec![],
            ret: CType::Void,
            ret_tuple: None,
            body: vec![
                IrStmt::Decl { ty: CType::Int, name: "a".into(), init: Some(i(0)) },
                IrStmt::Decl { ty: CType::Int, name: "b".into(), init: Some(i(0)) },
                IrStmt::Spawn {
                    target: Some("a".into()),
                    target_is_buf: false,
                    func: "square".into(),
                    args: vec![i(7)],
                },
                IrStmt::Spawn {
                    target: Some("b".into()),
                    target_is_buf: false,
                    func: "square".into(),
                    args: vec![i(9)],
                },
                IrStmt::Sync,
                IrStmt::Expr(IrExpr::Builtin(
                    Builtin::PrintI32,
                    vec![IrExpr::add(v("a"), v("b"))],
                )),
                IrStmt::Decl { ty: CType::Int, name: "q".into(), init: None },
                IrStmt::Decl { ty: CType::Int, name: "r".into(), init: None },
                IrStmt::UnpackCall {
                    targets: vec!["q".into(), "r".into()],
                    call: IrExpr::Call("divmod".into(), vec![i(17), i(5)]),
                },
                IrStmt::Expr(IrExpr::Builtin(Builtin::PrintI32, vec![v("q")])),
                IrStmt::Expr(IrExpr::Builtin(Builtin::PrintI32, vec![v("r")])),
            ],
        };
        let prog = IrProgram { functions: vec![main, square, divmod] };
        for threads in [1, 3] {
            assert_tiers_agree(&prog, threads);
        }
        let (_, out, _) = run_tier(&prog, 2, Tier::Vm);
        assert_eq!(out, "130\n3\n2\n");
    }

    #[test]
    fn fuel_boundary_pins_identical_step_totals() {
        for (name, prog, threads) in [
            ("mean", mean_program(2, 3, 4), 1),
            ("tail_sum", tail_sum_kernel(9, false), 1),
            ("grid", grid_kernel(4, 4, true), 1),
        ] {
            let steps = assert_tiers_agree(&prog, threads);
            for tier in [Tier::Tree, Tier::Vm] {
                let ok = Interp::new(&prog, threads).with_tier(tier).with_limits(fuel(steps));
                ok.run_main()
                    .unwrap_or_else(|e| panic!("{name}/{tier:?}: fuel == {steps} must succeed: {e}"));
                assert_eq!(ok.steps_used(), steps, "{name}/{tier:?}");
                let tight = Interp::new(&prog, threads).with_tier(tier).with_limits(fuel(steps - 1));
                let err = tight.run_main().unwrap_err();
                assert_eq!(
                    err.limit_kind(),
                    Some(LimitKind::Fuel),
                    "{name}/{tier:?}: fuel == {} must hit the fuel limit, got {err}",
                    steps - 1
                );
            }
        }
    }

    #[test]
    fn fuel_sweep_agrees_at_every_budget() {
        // Every budget below the exact step total must fail under both
        // tiers, and the exact total must succeed under both: the
        // LimitExceeded *boundary* is tier-invariant even though the VM
        // charges per block rather than per node.
        let prog = tail_sum_kernel(4, false);
        let steps = assert_tiers_agree(&prog, 1);
        for f in 1..=steps {
            let rt = Interp::new(&prog, 1).with_tier(Tier::Tree).with_limits(fuel(f)).run_main();
            let rv = Interp::new(&prog, 1).with_tier(Tier::Vm).with_limits(fuel(f)).run_main();
            assert_eq!(rt.is_ok(), rv.is_ok(), "fuel {f}/{steps}");
            if let (Err(et), Err(ev)) = (&rt, &rv) {
                assert_eq!(et.limit_kind(), ev.limit_kind(), "fuel {f}/{steps}");
            }
        }
    }

    #[test]
    fn full_i32_range_loop_hits_fuel_instead_of_overflowing() {
        // Regression: the iteration count was computed as `(hi - lo) as
        // usize`, which overflows i32 (debug-build panic) for the full
        // i32 range; indices were built with unchecked `lo + k`. Both
        // now wrap, matching emitted-C arithmetic, so a full-range loop
        // simply burns fuel until the budget stops it — in both tiers.
        for parallel in [false, true] {
            for tier in [Tier::Tree, Tier::Vm] {
                let prog = main_with(vec![
                    IrStmt::Decl { ty: CType::Int, name: "s".into(), init: Some(i(0)) },
                    IrStmt::For(ForLoop {
                        schedule: None,
                        var: "x".into(),
                        lo: i(i64::from(i32::MIN)),
                        hi: i(i64::from(i32::MAX)),
                        body: vec![IrStmt::Assign {
                            name: "s".into(),
                            value: IrExpr::add(v("s"), i(1)),
                        }],
                        parallel,
                        vector: false,
                    }),
                ]);
                let interp = Interp::new(&prog, 2).with_tier(tier).with_limits(fuel(10_000));
                let err = interp.run_main().unwrap_err();
                assert_eq!(
                    err.limit_kind(),
                    Some(LimitKind::Fuel),
                    "{tier:?} parallel={parallel}: {err}"
                );
            }
        }
    }

    #[test]
    fn near_max_loop_indices_match_between_tiers() {
        // Index construction near i32::MAX must produce the same values
        // in both tiers (wrapping `lo + k`), sequential and parallel.
        for parallel in [false, true] {
            let prog = main_with(vec![IrStmt::For(ForLoop {
                schedule: None,
                var: "x".into(),
                lo: i(i64::from(i32::MAX) - 5),
                hi: i(i64::from(i32::MAX)),
                body: vec![IrStmt::Expr(IrExpr::Builtin(Builtin::PrintI32, vec![v("x")]))],
                parallel,
                vector: false,
            })]);
            let steps = assert_tiers_agree(&prog, 1);
            assert!(steps > 0);
            let (_, out, _) = run_tier(&prog, 1, Tier::Vm);
            assert_eq!(out, "2147483642\n2147483643\n2147483644\n2147483645\n2147483646\n");
        }
    }

    #[test]
    fn runtime_errors_identical_between_tiers() {
        // Division by zero, mid-program.
        let div0 = main_with(vec![
            IrStmt::Expr(IrExpr::Builtin(Builtin::PrintI32, vec![i(1)])),
            IrStmt::Expr(IrExpr::bin(B::Div, i(1), i(0))),
        ]);
        assert!(assert_error_parity(&div0, 1).message.contains("division by zero"));

        // `INT_MIN / -1` and `INT_MIN % -1` have no int result: the same
        // typed error from the tree tier's `eval_bin` and the VM's int
        // fast path ...
        let int_min = i(i64::from(i32::MIN));
        for op in [B::Div, B::Rem] {
            let overflow = main_with(vec![
                IrStmt::Expr(IrExpr::Builtin(Builtin::PrintI32, vec![i(1)])),
                IrStmt::Expr(IrExpr::bin(op, int_min.clone(), i(-1))),
            ]);
            assert_eq!(assert_error_parity(&overflow, 1).message, "integer division overflow");
            // ... and after a bail from an unboxed loop, at iteration 2.
            let in_loop = main_with(vec![IrStmt::For(ForLoop {
                schedule: None,
                var: "x".into(),
                lo: i(0),
                hi: i(4),
                body: vec![IrStmt::Decl {
                    ty: CType::Int,
                    name: "q".into(),
                    init: Some(IrExpr::bin(op, int_min.clone(), IrExpr::bin(B::Sub, v("x"), i(3)))),
                }],
                parallel: false,
                vector: false,
            })]);
            assert_eq!(assert_error_parity(&in_loop, 1).message, "integer division overflow");
        }
        // Unary minus wraps in both tiers (it used to panic debug builds).
        let negated = main_with(vec![IrStmt::Expr(IrExpr::Builtin(
            Builtin::PrintI32,
            vec![IrExpr::Neg(Box::new(int_min))],
        ))]);
        assert_tiers_agree(&negated, 1);
        assert_eq!(run_tier(&negated, 1, Tier::Vm).1, "-2147483648\n");

        // Negative and out-of-bounds indices.
        let neg = main_with(vec![
            IrStmt::Decl {
                ty: CType::Buf(Elem::I32),
                name: "m".into(),
                init: Some(IrExpr::Builtin(Builtin::AllocMat(Elem::I32), vec![i(2)])),
            },
            IrStmt::Store { elem: Elem::I32, buf: v("m"), idx: i(-1), value: i(0) },
        ]);
        assert!(assert_error_parity(&neg, 1).message.contains("negative store index"));
        let oob = main_with(vec![
            IrStmt::Decl {
                ty: CType::Buf(Elem::I32),
                name: "m".into(),
                init: Some(IrExpr::Builtin(Builtin::AllocMat(Elem::I32), vec![i(2)])),
            },
            IrStmt::Expr(IrExpr::Load {
                elem: Elem::I32,
                buf: Box::new(v("m")),
                idx: Box::new(i(5)),
            }),
        ]);
        assert!(assert_error_parity(&oob, 1).message.contains("out of bounds"));

        // Name-resolution failures.
        let undef_var = main_with(vec![IrStmt::Expr(IrExpr::Var("nope".into()))]);
        assert!(assert_error_parity(&undef_var, 1).message.contains("undefined variable"));
        let undef_fn = main_with(vec![IrStmt::Expr(IrExpr::Call("nope".into(), vec![]))]);
        assert!(assert_error_parity(&undef_fn, 1).message.contains("undefined function"));

        // Arity mismatch against a user function.
        let mut arity = main_with(vec![IrStmt::Expr(IrExpr::Call("square".into(), vec![]))]);
        arity.functions.push(IrFunction {
            name: "square".into(),
            params: vec![("x".into(), CType::Int)],
            ret: CType::Int,
            ret_tuple: None,
            body: vec![IrStmt::Return(Some(v("x")))],
        });
        assert!(assert_error_parity(&arity, 1).message.contains("takes 1 arguments, got 0"));

        // Arity mismatch against every builtin hand-built IR can name: a
        // typed error in both tiers, never an index panic.
        for b in Builtin::ALL {
            let Some(arity) = b.arity() else { continue };
            for n in [arity - 1, arity + 1] {
                let call = IrExpr::Builtin(b, vec![i(0); n]);
                let err = assert_error_parity(&main_with(vec![IrStmt::Expr(call)]), 1);
                let want = format!("'{}' takes {arity} arguments, got {n}", b.c_name());
                assert!(err.message.contains(&want), "{}", err.message);
            }
        }

        // Use after free, with output produced before the fault.
        let uaf = main_with(vec![
            IrStmt::Decl {
                ty: CType::Buf(Elem::F32),
                name: "m".into(),
                init: Some(IrExpr::Builtin(Builtin::AllocMat(Elem::F32), vec![i(4)])),
            },
            IrStmt::Expr(IrExpr::Builtin(Builtin::PrintI32, vec![IrExpr::Builtin(Builtin::RcCount, vec![v("m")])])),
            IrStmt::Expr(IrExpr::Builtin(Builtin::RcDecr, vec![v("m")])),
            IrStmt::Expr(IrExpr::Load {
                elem: Elem::F32,
                buf: Box::new(v("m")),
                idx: Box::new(i(0)),
            }),
        ]);
        assert!(assert_error_parity(&uaf, 1).message.contains("use after free"));

        // Return from inside a parallel region.
        let ret_par = main_with(vec![IrStmt::For(ForLoop {
            schedule: None,
            var: "x".into(),
            lo: i(0),
            hi: i(8),
            body: vec![IrStmt::Return(None)],
            parallel: true,
            vector: false,
        })]);
        assert!(assert_error_parity(&ret_par, 1)
            .message
            .contains("return inside a parallel loop is not supported"));
    }

    // ---- CMMX container validation, against both tiers ----

    fn cmmx_bytes(tag: u8, rank: u8, dims: &[u64], cells: &[u32]) -> Vec<u8> {
        let mut b = b"CMMX".to_vec();
        b.push(tag);
        b.push(rank);
        b.extend([0, 0]);
        for d in dims {
            b.extend(d.to_le_bytes());
        }
        for c in cells {
            b.extend(c.to_le_bytes());
        }
        b
    }

    fn read_i32_prog(path: &str) -> IrProgram {
        main_with(vec![
            IrStmt::Decl {
                ty: CType::Buf(Elem::I32),
                name: "m".into(),
                init: Some(IrExpr::Builtin(
                    Builtin::ReadMat(Elem::I32),
                    vec![IrExpr::Str(path.into())],
                )),
            },
            IrStmt::Expr(IrExpr::Builtin(
                Builtin::PrintI32,
                vec![IrExpr::Builtin(Builtin::Len, vec![v("m")])],
            )),
            IrStmt::Expr(IrExpr::Builtin(
                Builtin::PrintI32,
                vec![IrExpr::Load {
                    elem: Elem::I32,
                    buf: Box::new(v("m")),
                    idx: Box::new(i(0)),
                }],
            )),
        ])
    }

    fn assert_cmmx_rejected(name: &str, bytes: &[u8], want: &str) {
        let path = std::env::temp_dir().join(format!(
            "cmm-vmtest-{}-{name}.cmmx",
            std::process::id()
        ));
        std::fs::write(&path, bytes).unwrap();
        let prog = read_i32_prog(path.to_str().unwrap());
        let err = assert_error_parity(&prog, 1);
        assert!(
            err.message.contains("readMatrix(") && err.message.contains(want),
            "{name}: {}",
            err.message
        );
        // Both tiers read through the one codec.
        match crate::cmmx::parse(bytes, Elem::I32) {
            Err(e) => assert!(e.to_string().contains(want), "{name}: {e}"),
            Ok(h) => panic!("{name}: the codec accepted a malformed container: {h:?}"),
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn cmmx_valid_container_reads_in_both_tiers() {
        let path = std::env::temp_dir().join(format!("cmm-vmtest-{}-ok.cmmx", std::process::id()));
        std::fs::write(&path, cmmx_bytes(0, 1, &[3], &[41, 42, 43])).unwrap();
        let prog = read_i32_prog(path.to_str().unwrap());
        assert_tiers_agree(&prog, 1);
        let (_, out, _) = run_tier(&prog, 1, Tier::Vm);
        assert_eq!(out, "3\n41\n");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn cmmx_malformed_containers_rejected_by_both_tiers() {
        assert_cmmx_rejected("badmagic", b"CMMY\x00\x01\x00\x00", "not a CMMX file");
        assert_cmmx_rejected("short", b"CMMX", "not a CMMX file");
        assert_cmmx_rejected(
            "elemtag",
            &cmmx_bytes(1, 1, &[1], &[0]),
            "element type mismatch",
        );
        assert_cmmx_rejected("zerorank", &cmmx_bytes(0, 0, &[], &[]), "rank 0");
        // Rank 8 declared on a file that ends at the 8-byte header.
        assert_cmmx_rejected("rank8", &cmmx_bytes(0, 8, &[], &[]), "truncated header");
        // Rank 255 is past `MAX_RANK`, whatever follows the header.
        assert_cmmx_rejected("rank255", &cmmx_bytes(0, 255, &[], &[]), "rank 255 exceeds 8");
        // Rank 2 with only one dimension recorded.
        assert_cmmx_rejected(
            "truncdims",
            &cmmx_bytes(0, 2, &[3], &[]),
            "truncated header",
        );
        // Payload shorter than the dimensions require.
        assert_cmmx_rejected(
            "truncpayload",
            &cmmx_bytes(0, 1, &[3], &[1, 2]),
            "truncated file",
        );
        // One byte of trailing garbage after a valid payload.
        let mut trailing = cmmx_bytes(0, 1, &[2], &[1, 2]);
        trailing.push(0xEE);
        assert_cmmx_rejected("trailing", &trailing, "trailing byte(s)");
        // Dimension product overflowing usize.
        assert_cmmx_rejected(
            "overflow",
            &cmmx_bytes(0, 2, &[u64::MAX / 2, 8], &[]),
            "overflow",
        );
    }

    // --- kernel ops -----------------------------------------------------

    fn sequential_for(var: &str, hi: IrExpr, body: Vec<IrStmt>) -> ForLoop {
        ForLoop {
            var: var.into(),
            lo: i(0),
            hi,
            body,
            parallel: false,
            vector: false,
            schedule: None,
        }
    }

    /// `main`: fill `a` (m×k) and `b` (k×n), run `kernel(dst = a · b)`
    /// with the scalar nest in the shape lowering gives it, print every
    /// cell of `dst`. `site_elem` is what the kernel call *claims*;
    /// `dst` names the result variable (`"c"`, a fresh m×n buffer, or an
    /// operand, to make the call decline).
    fn product_program(elem: Elem, site_elem: Elem, (m, k, n): (i64, i64, i64), dst: &str) -> IrProgram {
        let alloc = Builtin::AllocMat(elem);
        let cell = |q: IrExpr, salt: i64| {
            let int = IrExpr::bin(
                B::Sub,
                IrExpr::bin(B::Rem, IrExpr::add(IrExpr::mul(q, i(7)), i(salt)), i(11)),
                i(5),
            );
            if elem == Elem::F32 {
                IrExpr::mul(IrExpr::CastFloat(Box::new(int)), IrExpr::Float(0.37))
            } else {
                IrExpr::mul(int, i(40009))
            }
        };
        let fill = |buf: &str, len: i64, salt: i64| {
            IrStmt::For(sequential_for(
                "q",
                i(len),
                vec![IrStmt::Store { elem, buf: v(buf), idx: v("q"), value: cell(v("q"), salt) }],
            ))
        };
        let load = |buf: &str, idx: IrExpr| IrExpr::Load {
            elem,
            buf: Box::new(v(buf)),
            idx: Box::new(idx),
        };
        let (acc_ty, zero) = if elem == Elem::F32 {
            (CType::Float, IrExpr::Float(0.0))
        } else {
            (CType::Int, i(0))
        };
        let inner = IrStmt::For(sequential_for(
            "kk",
            i(k),
            vec![IrStmt::Assign {
                name: "acc".into(),
                value: IrExpr::add(
                    v("acc"),
                    IrExpr::mul(
                        load("a", IrExpr::add(IrExpr::mul(v("i"), i(k)), v("kk"))),
                        load("b", IrExpr::add(IrExpr::mul(v("kk"), i(n)), v("j"))),
                    ),
                ),
            }],
        ));
        let columns = IrStmt::For(sequential_for(
            "j",
            i(n),
            vec![
                IrStmt::Decl { ty: acc_ty, name: "acc".into(), init: Some(zero) },
                inner,
                IrStmt::Store {
                    elem,
                    buf: v(dst),
                    idx: IrExpr::add(IrExpr::mul(v("i"), i(n)), v("j")),
                    value: v("acc"),
                },
            ],
        ));
        let mut rows = sequential_for("i", i(m), vec![columns]);
        rows.parallel = true;
        let print = match elem {
            Elem::F32 => Builtin::PrintF32,
            Elem::I32 => Builtin::PrintI32,
            Elem::Bool => Builtin::PrintB,
        };
        main_with(vec![
            IrStmt::Decl {
                ty: CType::Buf(elem),
                name: "a".into(),
                init: Some(IrExpr::Builtin(alloc, vec![i(m), i(k)])),
            },
            IrStmt::Decl {
                ty: CType::Buf(elem),
                name: "b".into(),
                init: Some(IrExpr::Builtin(alloc, vec![i(k), i(n)])),
            },
            IrStmt::Decl {
                ty: CType::Buf(elem),
                name: "c".into(),
                init: Some(IrExpr::Builtin(alloc, vec![i(m), i(n)])),
            },
            fill("a", m * k, 3),
            fill("b", k * n, 8),
            IrStmt::Kernel {
                call: KernelCall::MatMul {
                    dst: dst.into(),
                    a: "a".into(),
                    b: "b".into(),
                    elem: site_elem,
                    parallel: true,
                },
                fallback: vec![IrStmt::For(rows)],
            },
            IrStmt::For(sequential_for(
                "q",
                i(m * n),
                vec![IrStmt::Expr(IrExpr::Builtin(print, vec![load(dst, v("q"))]))],
            )),
        ])
    }

    fn kernel_calls(program: &IrProgram, tier: Tier) -> u64 {
        let interp = Interp::new(program, 1).with_tier(tier).with_profiling(true);
        interp.run_main().unwrap();
        interp.profile().kernel_calls
    }

    #[test]
    fn kernel_op_matches_its_nest() {
        for elem in [Elem::F32, Elem::I32] {
            for shape in [(3, 4, 2), (1, 1, 1), (0, 3, 2), (3, 0, 2), (3, 4, 0), (70, 5, 9)] {
                let prog = product_program(elem, elem, shape, "c");
                for threads in [1, 4] {
                    assert_tiers_agree(&prog, threads);
                }
                assert_eq!(kernel_calls(&prog, Tier::Vm), 1, "{elem:?} {shape:?}");
                assert_eq!(kernel_calls(&prog, Tier::Tree), 0);
            }
        }
    }

    #[test]
    fn kernel_op_fuel_boundary_is_tier_invariant() {
        // The kernel charges a row tile at a time, the nest a statement
        // at a time; a budget must still fail or pass both tiers alike.
        let prog = product_program(Elem::F32, Elem::F32, (3, 4, 2), "c");
        let steps = assert_tiers_agree(&prog, 1);
        for f in 1..=steps {
            let rt = Interp::new(&prog, 1).with_tier(Tier::Tree).with_limits(fuel(f)).run_main();
            let rv = Interp::new(&prog, 1).with_tier(Tier::Vm).with_limits(fuel(f)).run_main();
            assert_eq!(rt.is_ok(), rv.is_ok(), "fuel {f}/{steps}");
            if let (Err(et), Err(ev)) = (&rt, &rv) {
                assert_eq!(et.limit_kind(), ev.limit_kind(), "fuel {f}/{steps}");
            }
        }
    }

    #[test]
    fn kernel_op_declines_operands_it_does_not_describe() {
        // A site claiming the wrong element type, and a result buffer
        // that is also an operand (square, so the shapes still conform):
        // the VM must run the nest — in-place updates and all — not the
        // kernel, and so still agree with the tree tier.
        let wrong_elem = product_program(Elem::F32, Elem::I32, (3, 4, 2), "c");
        let dst_is_a = product_program(Elem::I32, Elem::I32, (3, 3, 3), "a");
        let dst_is_b = product_program(Elem::F32, Elem::F32, (3, 3, 3), "b");
        // (One thread: rows of an in-place product depend on each other.)
        for prog in [&wrong_elem, &dst_is_a, &dst_is_b] {
            assert_tiers_agree(prog, 1);
            assert_eq!(kernel_calls(prog, Tier::Vm), 0);
        }
        // An operand name that is not in scope stays the nest's lazy
        // "undefined variable" error.
        let mut unbound = product_program(Elem::F32, Elem::F32, (3, 4, 2), "c");
        for s in &mut unbound.functions[0].body {
            if let IrStmt::Kernel { call: KernelCall::MatMul { a, .. }, fallback } = s {
                *a = "nowhere".into();
                *fallback = vec![fallback[0].substitute("a", &v("nowhere"))];
            }
        }
        let e = assert_error_parity(&unbound, 2);
        assert_eq!(e.message, "undefined variable 'nowhere'");
    }

    #[test]
    fn transforming_the_nest_retires_the_kernel_call() {
        let mut prog = product_program(Elem::F32, Elem::F32, (5, 4, 3), "c");
        let before = assert_tiers_agree(&prog, 2);
        apply(
            &mut prog.functions[0].body,
            &LoopTransform::Split {
                index: "j".into(),
                by: 2,
                inner: "jin".into(),
                outer: "jout".into(),
            },
        )
        .unwrap();
        assert!(
            !prog.functions[0].body.iter().any(|s| matches!(s, IrStmt::Kernel { .. })),
            "a rewritten nest is no longer what the kernel call's fuel describes"
        );
        let after = assert_tiers_agree(&prog, 2);
        assert_ne!(after, before, "the split nest costs different fuel, in both tiers");
        assert_eq!(kernel_calls(&prog, Tier::Vm), 0);
    }
}

mod probe_tests {
    use super::*;

    fn main_fn(body: Vec<IrStmt>) -> IrFunction {
        IrFunction {
            name: "main".into(),
            params: vec![],
            ret: CType::Void,
            ret_tuple: None,
            body,
        }
    }

    fn for_loop(var: &str, hi: IrExpr, parallel: bool, body: Vec<IrStmt>) -> IrStmt {
        IrStmt::For(ForLoop {
            var: var.into(),
            lo: i(0),
            hi,
            body,
            parallel,
            vector: false,
            schedule: None,
        })
    }

    fn print(e: IrExpr) -> IrStmt {
        IrStmt::Expr(IrExpr::Builtin(Builtin::PrintI32, vec![e]))
    }

    /// The cost probe's records, steps and output on both tiers, which
    /// must agree; returns them.
    fn probe_parity(program: &IrProgram) -> (Vec<LoopCost>, u64, String) {
        let [tree, vm] = [Tier::Tree, Tier::Vm].map(|tier| {
            let interp = Interp::new(program, 2).with_tier(tier).with_cost_probe(true);
            interp.run_main().unwrap_or_else(|e| panic!("{tier:?}: {e}"));
            (interp.loop_costs(), interp.steps_used(), interp.output())
        });
        assert_eq!(vm, tree, "the probe differs between tiers");
        tree
    }

    /// Only the outer of two nested parallel loops records; each of its
    /// iterations costs its own step, the inner loop statement, and two
    /// steps per inner iteration.
    #[test]
    fn nested_parallel_loops_record_the_outer_loop_on_both_tiers() {
        let inner = for_loop("j", v("i"), true, vec![print(IrExpr::add(IrExpr::mul(v("i"), i(10)), v("j")))]);
        let program = IrProgram {
            functions: vec![main_fn(vec![for_loop("i", i(4), true, vec![inner])])],
        };
        let (costs, steps, output) = probe_parity(&program);
        assert_eq!(
            costs,
            [LoopCost { name: "i".into(), schedule: None, iters: vec![2, 4, 6, 8] }]
        );
        assert_eq!(steps, 1 + 20);
        assert_eq!(output, "10\n20\n21\n30\n31\n32\n");
    }

    /// A parallel body's spawn runs at the end of its iteration, as in
    /// the region, so the probe charges it to that iteration: a body that
    /// spawns `work(i)` costs what a body that calls it does.
    #[test]
    fn a_spawn_in_a_parallel_body_costs_its_iteration() {
        let work = IrFunction {
            name: "work".into(),
            params: vec![("n".into(), CType::Int)],
            ret: CType::Void,
            ret_tuple: None,
            body: vec![for_loop("k", v("n"), false, vec![print(v("k"))])],
        };
        let with_body = |stmt: IrStmt| IrProgram {
            functions: vec![main_fn(vec![for_loop("i", i(4), true, vec![stmt])]), work.clone()],
        };
        let spawned = with_body(IrStmt::Spawn {
            target: None,
            target_is_buf: false,
            func: "work".into(),
            args: vec![v("i")],
        });
        let called = with_body(IrStmt::Expr(IrExpr::Call("work".into(), vec![v("i")])));
        let probed = probe_parity(&spawned);
        assert_eq!(probed, probe_parity(&called));
        let (costs, _, output) = probed;
        assert_eq!(costs.len(), 1);
        assert!(costs[0].iters.windows(2).all(|w| w[0] < w[1]), "{:?}", costs[0].iters);
        assert_eq!(output, "0\n0\n1\n0\n1\n2\n");
    }

    /// A function with more slots than a `u16` register can name is an
    /// error on the VM, naming the function, and still runs on the tree
    /// tier.
    #[test]
    fn a_function_over_the_bytecode_limits_fails_on_the_vm_only() {
        let slots = u16::MAX as usize + 1;
        let mut body: Vec<IrStmt> = (0..slots)
            .map(|k| IrStmt::Decl {
                ty: CType::Int,
                name: format!("x{k}").into(),
                init: Some(i(k as i64 % 7)),
            })
            .collect();
        body.push(print(v(&format!("x{}", slots - 1))));
        let wide = IrFunction {
            name: "wide".into(),
            params: vec![],
            ret: CType::Void,
            ret_tuple: None,
            body,
        };
        let call = IrStmt::Expr(IrExpr::Call("wide".into(), vec![]));
        let program = IrProgram { functions: vec![main_fn(vec![call]), wide] };
        let vm = Interp::new(&program, 1).with_tier(Tier::Vm);
        let e = vm.run_main().expect_err("the VM cannot run `wide`");
        assert_eq!(e.kind, InterpErrorKind::VmLimit);
        assert_eq!(e.to_string(), "bytecode limit: function 'wide': too many frame slots");
        assert_eq!(vm.output(), "");
        let tree = Interp::new(&program, 1).with_tier(Tier::Tree);
        tree.run_main().expect("the tree tier runs it");
        assert_eq!(tree.output(), format!("{}\n", (slots - 1) % 7));
    }
}

mod cmmx_tests {
    use crate::cmmx::{self, CmmxError};
    use crate::{Elem, MAX_RANK};

    #[test]
    fn encode_then_parse_gives_back_dims_and_cells() {
        for (elem, cells) in [
            (Elem::I32, vec![(-1i32) as u32, 0, 1, i32::MAX as u32, 7, 8]),
            (Elem::F32, [0.25f32, -1.5, 3.0, f32::MIN, 0.0, 9.5].map(f32::to_bits).to_vec()),
            (Elem::Bool, vec![1, 0, 1, 1, 0, 0]),
        ] {
            let bytes = cmmx::encode(elem, &[2, 3], &cells);
            let header = cmmx::parse(&bytes, elem).expect("a valid container");
            assert_eq!((header.dims.as_slice(), header.len), (&[2, 3][..], 6));
            let back: Vec<u32> = cmmx::cell_bits(&bytes, &header, elem).collect();
            assert_eq!(back, cells, "{elem:?}");
        }
    }

    #[test]
    fn a_rank_above_max_rank_is_a_typed_error() {
        let ones = |rank: usize| vec![1usize; rank];
        let widest = cmmx::encode(Elem::I32, &ones(MAX_RANK), &[5]);
        assert_eq!(cmmx::parse(&widest, Elem::I32).unwrap().dims, ones(MAX_RANK));
        // A complete, well-formed rank-12 container: only its rank is wrong.
        let wide = cmmx::encode(Elem::I32, &ones(12), &[5]);
        let err = cmmx::parse(&wide, Elem::I32).unwrap_err();
        assert_eq!(err, CmmxError::RankTooHigh { rank: 12 });
        assert_eq!(err.to_string(), "invalid header: rank 12 exceeds 8");
    }
}

mod kernel_tests {
    use crate::kernels::*;
    use cmm_forkjoin::{ForkJoinPool, Schedule};

    fn pool() -> ForkJoinPool {
        ForkJoinPool::new(3)
    }

    #[test]
    fn parallel_temporal_mean_is_the_fig3_nest() {
        let (m, n, p) = (6, 8, 10);
        let mat: Vec<f32> = (0..m * n * p)
            .map(|x| ((x * 37 % 101) as f32) * 0.125 - 5.0)
            .collect();
        let mut fig3 = vec![0.0; m * n];
        let mut parallel = vec![-1.0; m * n];
        temporal_mean_fig3(&mat, m, n, p, &mut fig3);
        temporal_mean_parallel(&pool(), &mat, m, n, p, &mut parallel);
        assert_eq!(parallel, fig3);
    }

    #[test]
    fn matmul_variants_agree() {
        let (m, k, n) = (7, 9, 11);
        let a: Vec<f32> = (0..m * k).map(|x| (x % 13) as f32 - 6.0).collect();
        let b: Vec<f32> = (0..k * n).map(|x| (x % 7) as f32 * 0.5).collect();
        let mut want = vec![0.0; m * n];
        matmul_naive(&a, &b, &mut want, m, k, n);
        for t in [1, 2, 4, 16] {
            let mut c = vec![-1.0; m * n];
            matmul_tiled(&a, &b, &mut c, m, k, n, t);
            assert_eq!(c, want, "tile {t}");
            let mut c = vec![-1.0; m * n];
            try_matmul_tiles(&pool(), Schedule::Static, &a, &b, &mut c, (m, k, n), t, |_| true)
                .unwrap();
            assert_eq!(c, want, "row tiles of {t}");
        }
        let mut c = vec![-1.0; m * n];
        matmul_parallel_blocked(&pool(), &a, &b, &mut c, m, k, n);
        assert_eq!(c, want);
    }

    #[test]
    fn matmul_rows_matches_naive() {
        let (m, k, n) = (3, 4, 2);
        let a: Vec<f32> = (0..m * k).map(|x| x as f32).collect();
        let b: Vec<f32> = (0..k * n).map(|x| (x / n) as f32 - (x % n) as f32).collect();
        let mut c = vec![0.0f32; m * n];
        matmul_naive(&a, &b, &mut c, m, k, n);
        let mut rows = vec![-1.0f32; m * n];
        matmul_rows(&a, &b, &mut rows, 0..m, k, n);
        assert_eq!(rows, c);
    }

    #[test]
    fn matmul_rows_computes_any_row_range_and_wraps_ints() {
        // Int products wrap (as the interpreted nest does) instead of
        // panicking in debug builds.
        let (m, k, n) = (7usize, 5usize, 6usize);
        let a: Vec<i32> = (0..m * k).map(|x| (x as i32 % 11 - 5) * 40_009).collect();
        let b: Vec<i32> = (0..k * n).map(|x| (x as i32 % 13 - 6) * 30_011).collect();
        let want = wrapping_product(&a, &b, m, k, n);
        let mut whole = vec![-1i32; m * n];
        matmul_rows(&a, &b, &mut whole, 0..m, k, n);
        assert_eq!(whole, want);
        // A row range writes exactly those rows, whatever they held.
        let mut part = vec![-1i32; 3 * n];
        matmul_rows(&a, &b, &mut part, 2..5, k, n);
        assert_eq!(part, want[2 * n..5 * n]);
    }

    /// The `int` product the interpreted nest computes: ascending `k`,
    /// wrapping.
    fn wrapping_product(a: &[i32], b: &[i32], m: usize, k: usize, n: usize) -> Vec<i32> {
        let mut want = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    let p = a[i * k + kk].wrapping_mul(b[kk * n + j]);
                    want[i * n + j] = want[i * n + j].wrapping_add(p);
                }
            }
        }
        want
    }

    /// Both copies of the row kernel — the one `matmul_rows` picks (AVX2
    /// where the CPU has it) and the baseline `row_kernel` — compute
    /// `matmul_naive`'s bits at every `k % 4` (the four-`k` passes and the
    /// one-`k` tail), at row widths around the vector lengths and on row
    /// ranges that start past row 0, for non-dyadic and negative `float`s
    /// and for `int`s that overflow.
    #[test]
    fn both_copies_of_the_row_kernel_match_the_nest() {
        let m = 5;
        for k in [0, 1, 3, 4, 5, 7, 8, 9] {
            for n in [1, 7, 8, 9, 15, 16, 17, 33] {
                let what = format!("k {k}, n {n}");
                let af: Vec<f32> = (0..m * k).map(|x| (x % 17) as f32 * 0.1 - 0.7).collect();
                let bf: Vec<f32> = (0..k * n).map(|x| 1.3 - (x % 11) as f32 / 3.0).collect();
                let mut want = vec![0.0f32; m * n];
                matmul_naive(&af, &bf, &mut want, m, k, n);
                let ai: Vec<i32> = (0..m * k)
                    .map(|x| (x as i32 % 9 - 4).wrapping_mul(0x3fff_fffb))
                    .collect();
                let bi: Vec<i32> = (0..k * n)
                    .map(|x| (x as i32 % 7 - 3).wrapping_mul(0x2aaa_aaab))
                    .collect();
                let want_i = wrapping_product(&ai, &bi, m, k, n);
                for rows in [0..m, 1..4, 3..5, 2..2] {
                    let cells = rows.start * n..rows.end * n;
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    for copy in [matmul_rows::<f32>, row_kernel::<f32>] {
                        let mut c = vec![f32::NAN; rows.len() * n];
                        copy(&af, &bf, &mut c, rows.clone(), k, n);
                        assert_eq!(bits(&c), bits(&want[cells.clone()]), "{what}");
                    }
                    for copy in [matmul_rows::<i32>, row_kernel::<i32>] {
                        let mut c = vec![-1i32; rows.len() * n];
                        copy(&ai, &bi, &mut c, rows.clone(), k, n);
                        assert_eq!(c, want_i[cells.clone()], "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn refused_tiles_are_left_untouched() {
        let (m, k, n, t) = (10usize, 3usize, 4usize, 4usize);
        let a = vec![1.0f32; m * k];
        let b = vec![2.0f32; k * n];
        let mut c = vec![-1.0f32; m * n];
        let schedule = Schedule::Dynamic { chunk: 1 };
        try_matmul_tiles(&pool(), schedule, &a, &b, &mut c, (m, k, n), t, |rows| rows.start != 4)
            .unwrap();
        for (i, row) in c.chunks(n).enumerate() {
            let want = if (4..8).contains(&i) { -1.0 } else { 6.0 };
            assert!(row.iter().all(|&x| x == want), "row {i}: {row:?}");
        }
    }

    #[test]
    #[should_panic(expected = "assertion `left == right` failed")]
    fn matmul_parallel_blocked_checks_operand_lengths() {
        let mut c = vec![0.0f32; 4];
        matmul_parallel_blocked(&pool(), &[1.0; 3], &[1.0; 4], &mut c, 2, 2, 2);
    }
}
