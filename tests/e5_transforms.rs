//! Experiments E5/E6/E7 — the §V explicit-transformation pipeline:
//! Fig 9's directives produce the Fig 10 split structure and the Fig 11
//! SSE/OpenMP artifacts in the emitted C, `tile` behaves as "two splits
//! and a reorder", and the §V semantic checks reject bad directives.

use cmm::eddy::programs::full_compiler;
use cmm::loopir::emit::emit_program;
use cmm::loopir::{ForLoop, IrExpr, IrStmt};

fn fig9(transform: &str) -> String {
    format!(
        r#"
int main() {{
    int m = 4;
    int n = 8;
    int p = 5;
    Matrix float <3> mat = init(Matrix float <3>, m, n, p);
    Matrix float <2> means = init(Matrix float <2>, m, n);
    means = with ([0, 0] <= [i, j] < [m, n])
        genarray([m, n],
            with ([0] <= [k] < [p]) fold(+, 0.0, mat[i, j, k]) / toFloat(p)){transform};
    return 0;
}}
"#
    )
}

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
    // Fig 9 line 6 → Fig 10: j replaced by jout/jin with j = jout*4 + jin.
    let compiler = full_compiler();
    let ir = compiler
        .compile(&fig9("\n        transform split j by 4, jin, jout"))
        .expect("translate");
    let main = ir.function("main").expect("main");
    let i_loop = find_loop(&main.body, "i").expect("i loop");
    let jout = find_loop(&i_loop.body, "jout").expect("jout under i");
    let jin = find_loop(&jout.body, "jin").expect("jin under jout");
    assert_eq!(jin.lo, IrExpr::Int(0));
    assert_eq!(jin.hi, IrExpr::Int(4));
    // n is a runtime variable, so the compiler cannot prove the extent
    // divides 4: the split keeps a sequential epilogue over the original
    // index starting at (n/4)*4 (zero iterations here, since n = 8).
    let epi = find_loop(&main.body, "j").expect("symbolic split keeps a tail epilogue");
    let lo_shape = format!("{:?}", epi.lo);
    assert!(
        lo_shape.contains("Div") && lo_shape.contains("Int(4)"),
        "epilogue resumes after the last full chunk of 4: {lo_shape}"
    );
    assert!(
        matches!(epi.hi, IrExpr::Var(_)),
        "epilogue runs to the original (hoisted) upper bound: {:?}",
        epi.hi
    );
    assert!(!epi.parallel);
    // §V: user-directed transformation suppresses auto-parallelization.
    assert!(!i_loop.parallel);
}

#[test]
fn split_symbolic_nondivisible_executes_every_iteration() {
    // The headline bugfix: with symbolic bounds and an extent that does
    // not divide the factor, the pre-fix split silently dropped the tail
    // iterations (rows 8 and 9 here stayed zero). The fold sums every
    // element, so a dropped tail is visible in the output.
    let compiler = full_compiler();
    let src = r#"
int main() {
    int n = 10;
    Matrix int <1> v = init(Matrix int <1>, n);
    v = with ([0] <= [x] < [n]) genarray([n], x + 1)
        transform split x by 4, xin, xout;
    int s = with ([0] <= [x] < [n]) fold(+, 0, v[x]);
    printInt(s);
    return 0;
}
"#;
    for threads in [1, 3] {
        let r = compiler.run(src, threads).expect("run");
        assert_eq!(r.output, "55\n", "1+2+...+10, tail included");
    }
}

#[test]
fn fig9_full_recipe_produces_fig11_artifacts() {
    let compiler = full_compiler();
    let src = fig9("\n        transform split j by 4, jin, jout. vectorize jin. parallelize i");
    let ir = compiler.compile(&src).expect("translate");
    let main = ir.function("main").expect("main");
    let i_loop = find_loop(&main.body, "i").expect("i loop");
    assert!(i_loop.parallel, "parallelize i");
    let jin = find_loop(&i_loop.body, "jin").expect("jin loop");
    assert!(jin.vector, "vectorize jin");

    let c = emit_program(&ir).expect("emit");
    assert!(c.contains("#pragma omp parallel for"), "Fig 11's parallel outer loop");
    assert!(c.contains("__m128"), "Fig 11's SSE vectors");
    assert!(
        c.contains("_mm_add_ps") || c.contains("_mm_div_ps"),
        "vector arithmetic: {c}"
    );
    assert!(
        c.contains("_mm_set_ps") || c.contains("_mm_loadu_ps"),
        "the lifted vector-load temporaries of Fig 11"
    );
}

#[test]
fn tile_is_two_splits_and_a_reorder() {
    // §V: "a transformation specification to tile two nested loops
    // indexed by x and y can be specified as two splits and a reorder"
    // — nest order xout, yout, xin, yin.
    let compiler = full_compiler();
    let src = r#"
int main() {
    int n = 8;
    Matrix int <2> grid = init(Matrix int <2>, n, n);
    grid = with ([0, 0] <= [x, y] < [n, n]) genarray([n, n], x * 8 + y)
        transform tile x, y by 4, 4;
    printInt(grid[7, 7]);
    return 0;
}
"#;
    let ir = compiler.compile(src).expect("translate");
    let main = ir.function("main").expect("main");
    let xo = find_loop(&main.body, "x_out").expect("x_out");
    let yo = find_loop(&xo.body, "y_out").expect("y_out under x_out");
    let xi = find_loop(&yo.body, "x_in").expect("x_in under y_out");
    let _yi = find_loop(&xi.body, "y_in").expect("y_in under x_in");

    // And it still computes the right thing.
    let r = compiler.run(src, 2).expect("run");
    assert_eq!(r.output, "63\n");
}

#[test]
fn transforms_compose_in_source_order() {
    // interchange then unroll; semantics preserved at several thread
    // counts.
    let compiler = full_compiler();
    let src = r#"
int main() {
    int m = 6;
    int n = 8;
    Matrix int <2> a = init(Matrix int <2>, m, n);
    a = with ([0, 0] <= [r, c] < [m, n]) genarray([m, n], r * 100 + c)
        transform interchange r, c. unroll r by 2;
    int s = with ([0, 0] <= [r, c] < [m, n]) fold(+, 0, a[r, c]);
    printInt(s);
    return 0;
}
"#;
    let expected = (0..6)
        .flat_map(|r| (0..8).map(move |c| r * 100 + c))
        .sum::<i64>();
    for threads in [1, 2] {
        let r = compiler.run(src, threads).expect("run");
        assert_eq!(r.output, format!("{expected}\n"));
    }
}

#[test]
fn schedule_directive_parallelizes_and_pins_policy() {
    // `schedule i dynamic, 2` both parallelizes the loop (like
    // `parallelize i`) and pins its self-scheduling policy on the IR.
    let compiler = full_compiler();
    let src = fig9("\n        transform schedule i dynamic, 2");
    let ir = compiler.compile(&src).expect("translate");
    let main = ir.function("main").expect("main");
    let i_loop = find_loop(&main.body, "i").expect("i loop");
    assert!(i_loop.parallel, "schedule implies parallel");
    assert_eq!(
        i_loop.schedule,
        Some(cmm::loopir::Schedule::Dynamic { chunk: 2 })
    );

    // The emitted C self-schedules through the runtime helper instead of
    // a static `omp parallel for`.
    let c = emit_program(&ir).expect("emit");
    assert!(c.contains("cmm_sched_next"), "self-scheduling helper used");
    assert!(c.contains("#pragma omp parallel"), "still an OpenMP region");
}

#[test]
fn schedule_variants_run_identically() {
    let compiler = full_compiler();
    let mut outputs = Vec::new();
    for directive in [
        "",
        "\n        transform schedule x static",
        "\n        transform schedule x dynamic",
        "\n        transform schedule x dynamic, 3",
        "\n        transform schedule x guided",
        "\n        transform schedule x guided, 2",
    ] {
        let src = format!(
            r#"
int main() {{
    int n = 23;
    Matrix int <1> v = init(Matrix int <1>, n);
    v = with ([0] <= [x] < [n]) genarray([n], x * x){directive};
    int s = with ([0] <= [x] < [n]) fold(+, 0, v[x]);
    printInt(s);
    return 0;
}}
"#
        );
        for threads in [1, 4] {
            let r = compiler.run(&src, threads).expect("run");
            outputs.push(r.output);
        }
    }
    let expected = (0..23).map(|x| x * x).sum::<i64>();
    for o in &outputs {
        assert_eq!(o, &format!("{expected}\n"));
    }
}

#[test]
fn schedule_rejects_zero_chunk() {
    let compiler = full_compiler();
    let err = compiler
        .compile(&fig9("\n        transform schedule i dynamic, 0"))
        .expect_err("must reject");
    assert!(err.to_string().contains("positive"), "{err}");
}

#[test]
fn vectorize_requires_a_width_4_loop() {
    let compiler = full_compiler();
    // j runs 0..8 — not directly vectorizable; the §V semantic check
    // reports it at translation time.
    let err = compiler
        .compile(&fig9("\n        transform vectorize j"))
        .expect_err("must reject");
    let msg = err.to_string();
    assert!(msg.contains("vectorize") || msg.contains("0..4"), "{msg}");
}

#[test]
fn unknown_index_rejected_with_domain_error() {
    let compiler = full_compiler();
    let err = compiler
        .compile(&fig9("\n        transform parallelize zz"))
        .expect_err("must reject");
    assert!(
        err.to_string().contains("does not correspond to a loop"),
        "{err}"
    );
}

#[test]
fn reorder_requires_perfect_nest() {
    let compiler = full_compiler();
    // k is inside j but the j body also declares/stores: not a perfect
    // nest with k.
    let err = compiler
        .compile(&fig9("\n        transform reorder k, j"))
        .expect_err("must reject");
    let msg = err.to_string();
    assert!(msg.contains("perfect") || msg.contains("nest"), "{msg}");
}

// ------------------------------------------------------- compositions
//
// The autotuner proposes directive *combinations* (tile + schedule,
// split + schedule, …), so the compositions it can emit are pinned
// here: legal ones keep their semantics including the tail epilogues
// non-divisible extents need, and conflicting ones die in the legality
// checks with a typed error — never a miscompile.

#[test]
fn tile_then_schedule_the_tiled_outer_loop() {
    // `tile` introduces `x_out`; a subsequent `schedule` addresses it
    // like any other loop and pins its policy on the tiled nest.
    let compiler = full_compiler();
    let src = r#"
int main() {
    int n = 8;
    Matrix int <2> g = init(Matrix int <2>, n, n);
    g = with ([0, 0] <= [x, y] < [n, n]) genarray([n, n], x * 8 + y)
        transform tile x, y by 4, 4. schedule x_out dynamic, 1;
    printInt(g[7, 7]);
    return 0;
}
"#;
    let ir = compiler.compile(src).expect("translate");
    let main = ir.function("main").expect("main");
    let xo = find_loop(&main.body, "x_out").expect("x_out");
    assert!(xo.parallel, "schedule implies parallel");
    assert_eq!(xo.schedule, Some(cmm::loopir::Schedule::Dynamic { chunk: 1 }));
    for threads in [1, 4] {
        let r = compiler.run(src, threads).expect("run");
        assert_eq!(r.output, "63\n");
    }
}

#[test]
fn split_of_a_tiled_loop_composes() {
    // Splitting one of tile's product loops nests a third level inside
    // the tile body.
    let compiler = full_compiler();
    let src = r#"
int main() {
    int n = 8;
    Matrix int <2> g = init(Matrix int <2>, n, n);
    g = with ([0, 0] <= [x, y] < [n, n]) genarray([n, n], x * 8 + y)
        transform tile x, y by 4, 4. split x_in by 2, xa, xb;
    int s = with ([0, 0] <= [x, y] < [n, n]) fold(+, 0, g[x, y]);
    printInt(s);
    return 0;
}
"#;
    let ir = compiler.compile(src).expect("translate");
    let main = ir.function("main").expect("main");
    let xo = find_loop(&main.body, "x_out").expect("x_out");
    let xb = find_loop(&xo.body, "xb").expect("xb (split outer) inside the tile");
    find_loop(&xb.body, "xa").expect("xa (split inner) under xb");
    let expected: i64 = (0..8).flat_map(|x| (0..8).map(move |y| x * 8 + y)).sum();
    let r = compiler.run(src, 2).expect("run");
    assert_eq!(r.output, format!("{expected}\n"));
}

#[test]
fn composed_transforms_keep_tail_epilogues() {
    // 10×7 tiled by 3×3 — neither extent divides — then the tiled outer
    // loop is self-scheduled. Every element must still be written
    // exactly once (the fold sees any dropped tail).
    let compiler = full_compiler();
    let src = r#"
int main() {
    int m = 10;
    int n = 7;
    Matrix int <2> g = init(Matrix int <2>, m, n);
    g = with ([0, 0] <= [x, y] < [m, n]) genarray([m, n], x * 100 + y)
        transform tile x, y by 3, 3. schedule x_out dynamic, 1;
    int s = with ([0, 0] <= [x, y] < [m, n]) fold(+, 0, g[x, y]);
    printInt(s);
    return 0;
}
"#;
    let expected: i64 = (0..10).flat_map(|x| (0..7).map(move |y| x * 100 + y)).sum();
    for threads in [1, 3] {
        let r = compiler.run(src, threads).expect("run");
        assert_eq!(r.output, format!("{expected}\n"), "dropped tail at {threads} threads");
    }

    // Same property for split + unroll + schedule on a 10-element loop
    // split by 4: the epilogue survives both follow-on transforms.
    let src2 = r#"
int main() {
    int n = 10;
    Matrix int <1> v = init(Matrix int <1>, n);
    v = with ([0] <= [x] < [n]) genarray([n], x + 1)
        transform split x by 4, xin, xout. unroll xin by 2. schedule xout guided;
    int s = with ([0] <= [x] < [n]) fold(+, 0, v[x]);
    printInt(s);
    return 0;
}
"#;
    for threads in [1, 4] {
        let r = compiler.run(src2, threads).expect("run");
        assert_eq!(r.output, "55\n", "1+2+...+10 with tail, at {threads} threads");
    }
}

#[test]
fn conflicting_directives_fail_with_typed_errors() {
    let compiler = full_compiler();
    // Re-tiling a tiled nest collides on the product names.
    let err = compiler
        .compile(
            r#"
int main() {
    int n = 8;
    Matrix int <2> g = init(Matrix int <2>, n, n);
    g = with ([0, 0] <= [x, y] < [n, n]) genarray([n, n], x * 8 + y)
        transform tile x, y by 4, 4. tile x, y by 2, 2;
    return 0;
}
"#,
        )
        .expect_err("tile of tile must reject");
    assert!(err.to_string().contains("collides"), "{err}");

    // A split whose product name shadows an existing loop, likewise.
    let err = compiler
        .compile(
            r#"
int main() {
    int n = 8;
    Matrix int <1> v = init(Matrix int <1>, n);
    v = with ([0] <= [x] < [n]) genarray([n], x + 1)
        transform split x by 4, xin, xout. split xin by 2, xin, deep;
    return 0;
}
"#,
        )
        .expect_err("split name reuse must reject");
    assert!(err.to_string().contains("collides"), "{err}");

    // A duplicated index in interchange/reorder would rebuild the nest
    // with one loop repeated, silently dropping another — rejected as
    // ambiguous instead of miscompiled.
    for directive in ["interchange x, x", "reorder x, x"] {
        let err = compiler
            .compile(&format!(
                r#"
int main() {{
    int n = 8;
    Matrix int <2> g = init(Matrix int <2>, n, n);
    g = with ([0, 0] <= [x, y] < [n, n]) genarray([n, n], x * 8 + y)
        transform {directive};
    return 0;
}}
"#
            ))
            .expect_err("duplicate index must reject");
        assert!(err.to_string().contains("more than one"), "{directive}: {err}");
    }
}

#[test]
fn duplicate_schedules_last_one_wins() {
    // Two schedules on the same loop compose in source order like any
    // other directive pair: the second overwrites the policy.
    let compiler = full_compiler();
    let src = r#"
int main() {
    int n = 8;
    Matrix int <1> v = init(Matrix int <1>, n);
    v = with ([0] <= [x] < [n]) genarray([n], x + 1)
        transform schedule x dynamic, 2. schedule x guided;
    int s = with ([0] <= [x] < [n]) fold(+, 0, v[x]);
    printInt(s);
    return 0;
}
"#;
    let ir = compiler.compile(src).expect("translate");
    let main = ir.function("main").expect("main");
    let x = find_loop(&main.body, "x").expect("x loop");
    assert_eq!(x.schedule, Some(cmm::loopir::Schedule::Guided { min_chunk: 1 }));
    let r = compiler.run(src, 4).expect("run");
    assert_eq!(r.output, "36\n");
}
