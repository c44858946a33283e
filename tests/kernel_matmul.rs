//! `A * B` in an `.xc` program: the VM tier runs the product as one
//! blocked-kernel call, the emitted C as one call of its prelude's row
//! kernel, the tree tier interprets the scalar nest the operator lowers
//! to, and nothing but time may tell them apart — same output, same result
//! bits, same `steps_used()`, same typed errors when a budget runs out
//! part-way, and same messages for bad operands.

use cmm::core::{compile_and_run_c, gcc_available_or_skip};
use cmm::eddy::programs::full_compiler;
use cmm::forkjoin::Schedule;
use cmm::loopir::transform::{apply, LoopTransform};
use cmm::loopir::{
    cmmx, emit, Builtin, Elem, Interp, InterpError, IrExpr, IrProgram, IrStmt, KernelCall,
    LimitKind, Limits, Tier, Value,
};
use proptest::prelude::*;
use std::time::Duration;

/// Small shapes at the edges the random cases may miss: empty extents,
/// one, a long dot product of width one, and extents around the kernels'
/// tile edges (48 or 64 rows in the VM, four values of `k` a pass in C).
const EDGE_SHAPES: [(i32, i32, i32); 10] = [
    (0, 0, 0),
    (0, 5, 3),
    (4, 0, 3),
    (4, 5, 0),
    (1, 1, 1),
    (1, 130, 1),
    (65, 3, 49),
    (47, 48, 49),
    (49, 47, 48),
    (130, 6, 130),
];

/// `product(m, k, n, s)` builds an `m×k` and a `k×n` operand from the seed
/// `s`, prints a fold of their product and returns it. Float entries are
/// not exactly representable, so every rounding step of every dot product
/// shows in the result bits; int entries are large enough that products
/// wrap. `main` is the program's `main` function.
fn product_program(elem: &str, main: &str) -> String {
    let (entry_a, entry_b, zero) = if elem == "float" {
        (
            "toFloat((i * 7 + j * 13 + s) % 101) * 0.37 - 11.3",
            "toFloat((i * 5 + j * 11 + s) % 103) * 0.21 - 9.7",
            "0.0",
        )
    } else {
        (
            "((i * 7 + j * 13 + s) % 101 - 50) * 40009",
            "((i * 5 + j * 11 + s) % 103 - 51) * 30011",
            "0",
        )
    };
    let print = if elem == "float" {
        "printFloat"
    } else {
        "printInt"
    };
    format!(
        "Matrix {elem} <2> product(int m, int k, int n, int s) {{
    Matrix {elem} <2> a = with ([0, 0] <= [i, j] < [m, k]) genarray([m, k], {entry_a});
    Matrix {elem} <2> b = with ([0, 0] <= [i, j] < [k, n]) genarray([k, n], {entry_b});
    Matrix {elem} <2> c = a * b;
    {print}(with ([0, 0] <= [i, j] < [m, n]) fold(+, {zero}, c[i, j]));
    return c;
}}
{main}
"
    )
}

/// [`product_program`] with a `main` that does nothing: the tiers call
/// `product` directly.
fn product_source(elem: &str) -> String {
    product_program(elem, "int main() { return 0; }")
}

fn compile(src: &str) -> IrProgram {
    full_compiler().compile(src).expect("program compiles")
}

/// What a run of `product` leaves behind that a user (or a budget) can see.
#[derive(Debug, PartialEq)]
struct Observed {
    output: String,
    bits: Vec<u32>,
    steps: u64,
}

fn run_product(
    ir: &IrProgram,
    tier: Tier,
    threads: usize,
    schedule: Schedule,
    shape: (i32, i32, i32, i32),
) -> Observed {
    run_product_on(
        &Interp::new(ir, threads)
            .with_schedule(schedule)
            .with_tier(tier),
        shape,
    )
}

fn run_product_on(interp: &Interp, (m, k, n, s): (i32, i32, i32, i32)) -> Observed {
    let args = vec![Value::I(m), Value::I(k), Value::I(n), Value::I(s)];
    let Value::Buf(c) = interp.call("product", args).expect("product runs") else {
        panic!("product returns a matrix");
    };
    assert_eq!(c.dims(), [m as usize, n as usize]);
    // `to_i32_vec` reads the raw 4-byte cells whatever the element type.
    let bits = c
        .to_i32_vec()
        .expect("result is live")
        .into_iter()
        .map(|x| x as u32)
        .collect();
    Observed {
        output: interp.output(),
        bits,
        steps: interp.steps_used(),
    }
}

const SCHEDULES: [Schedule; 3] = [
    Schedule::Static,
    Schedule::Dynamic { chunk: 1 },
    Schedule::Guided { min_chunk: 1 },
];

/// The nest's closed form: `1 + m·(2 + n·(4 + 2k))`.
fn product_steps(m: u64, k: u64, n: u64) -> u64 {
    1 + m * (2 + n * (4 + 2 * k))
}

proptest! {
    // Each case interprets up to 130³ inner iterations in the (unoptimised)
    // tree tier once, then runs the VM under every thread count × schedule.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Extents straddle the cache-derived tile edge (48 on a 32 KiB L1d,
    /// 64 on 48 KiB: up to two full tiles and a remainder) and include
    /// empty operands.
    #[test]
    fn prop_vm_product_is_the_tree_product(
        m in 0i32..131,
        k in 0i32..131,
        n in 0i32..131,
        s in 0i32..1000,
        float in any::<bool>(),
    ) {
        let ir = compile(&product_source(if float { "float" } else { "int" }));
        let shape = (m, k, n, s);
        let want = run_product(&ir, Tier::Tree, 2, Schedule::Static, shape);
        for threads in [1, 2, 4] {
            for schedule in SCHEDULES {
                let got = run_product(&ir, Tier::Vm, threads, schedule, shape);
                prop_assert_eq!(&got, &want, "vm at {} threads, {}", threads, schedule);
            }
        }
        // Profiled runs meter every charge instead of batching them, and
        // count: the VM dispatched one kernel, the tree tier none, and the
        // kernel stands in for the nest's parallel loop in the loop counts.
        let profiled = |tier| {
            let interp = Interp::new(&ir, 2).with_tier(tier).with_profiling(true);
            let seen = run_product_on(&interp, shape);
            (seen, interp.profile())
        };
        let (tree_seen, tree) = profiled(Tier::Tree);
        let (vm_seen, vm) = profiled(Tier::Vm);
        prop_assert_eq!(&tree_seen, &want);
        prop_assert_eq!(&vm_seen, &want);
        prop_assert_eq!((tree.kernel_calls, vm.kernel_calls), (0, 1));
        prop_assert_eq!((vm.par_loops, vm.par_iters), (tree.par_loops, tree.par_iters));
    }
}

/// [`EDGE_SHAPES`] in both tiers, plus the closed form itself: the
/// product's share of `steps_used()` is exactly `1 + m·(2 + n·(4 + 2k))`.
#[test]
fn edge_shapes_agree_and_cost_the_closed_form() {
    for elem in ["float", "int"] {
        let ir = compile(&product_source(elem));
        for (m, k, n) in EDGE_SHAPES {
            let want = run_product(&ir, Tier::Tree, 1, Schedule::Static, (m, k, n, 7));
            let got = run_product(&ir, Tier::Vm, 2, Schedule::Static, (m, k, n, 7));
            assert_eq!(got, want, "{elem} {m}x{k}x{n}");
            if k == 0 {
                assert!(
                    got.bits.iter().all(|&b| b == 0),
                    "empty dot products are +0"
                );
            }
        }
        // Same operands, one more column of B: everything but the product
        // and the fold over C costs the same, so the difference isolates
        // the product's own closed form.
        let steps = |n| run_product(&ir, Tier::Vm, 1, Schedule::Static, (9, 6, n, 7)).steps;
        let tree_steps = |n| run_product(&ir, Tier::Tree, 1, Schedule::Static, (9, 6, n, 7)).steps;
        assert_eq!(steps(11) - steps(10), tree_steps(11) - tree_steps(10));
        let product_delta = product_steps(9, 6, 11) - product_steps(9, 6, 10);
        assert!(
            steps(11) - steps(10) > product_delta,
            "the product's steps are charged"
        );
    }
}

fn limited(
    ir: &IrProgram,
    tier: Tier,
    threads: usize,
    limits: Limits,
) -> (Result<Value, InterpError>, u64) {
    let interp = Interp::new(ir, threads).with_tier(tier).with_limits(limits);
    let r = interp.run_main();
    (r, interp.steps_used())
}

#[test]
fn fuel_running_out_inside_the_product_is_a_fuel_error_in_both_tiers() {
    let src = "int main() {
    Matrix float <2> a = init(Matrix float <2>, 40, 40);
    Matrix float <2> c = a * a;
    printFloat(c[0, 0]);
    return 0;
}";
    let ir = compile(src);
    let (ok, total) = limited(&ir, Tier::Vm, 2, Limits::default());
    ok.expect("unmetered run completes");
    let inside = product_steps(40, 40, 40);
    assert!(
        total > inside && total - inside < 100,
        "the product dominates: {total}"
    );
    // Half the product's own fuel: enough to get into it, not through it.
    let fuel = total - inside / 2;
    for tier in [Tier::Vm, Tier::Tree] {
        for threads in [1, 2] {
            let limits = Limits {
                fuel: Some(fuel),
                ..Limits::default()
            };
            let (r, _) = limited(&ir, tier, threads, limits);
            let e = r.expect_err("the budget is smaller than the program");
            assert_eq!(e.limit_kind(), Some(LimitKind::Fuel), "{tier:?} tier: {e}");
        }
        // And a budget of exactly the total lets both tiers finish.
        let limits = Limits {
            fuel: Some(total),
            ..Limits::default()
        };
        let (r, used) = limited(&ir, tier, 2, limits);
        r.expect("exact budget suffices");
        assert_eq!(used, total, "{tier:?} tier");
    }
}

/// A product is one instruction, but not one uninterruptible unit: each
/// row tile is charged before it runs, and that charge checks the clock.
#[test]
fn deadline_stops_a_large_product_part_way() {
    let src = "int main() {
    Matrix float <2> a = init(Matrix float <2>, 768, 768);
    Matrix float <2> c = a * a;
    printFloat(c[0, 0]);
    return 0;
}";
    let ir = compile(src);
    for threads in [1, 2] {
        let limits = Limits {
            deadline: Some(Duration::from_millis(5)),
            ..Limits::default()
        };
        let (r, used) = limited(&ir, Tier::Vm, threads, limits);
        let e = r.expect_err("453 M multiply-adds do not fit in 5 ms");
        assert_eq!(e.limit_kind(), Some(LimitKind::Deadline), "{e}");
        assert!(
            used < product_steps(768, 768, 768),
            "stopped inside the product, at {used}"
        );
    }
}

fn run_error(ir: &IrProgram, tier: Tier) -> String {
    let (r, _) = limited(ir, tier, 2, Limits::default());
    r.expect_err("program fails").to_string()
}

#[test]
fn bad_operands_keep_their_messages_in_both_tiers() {
    let mismatch = compile(
        "int main() {
    Matrix float <2> a = init(Matrix float <2>, 3, 4);
    Matrix float <2> b = init(Matrix float <2>, 5, 6);
    Matrix float <2> c = a * b;
    printFloat(c[0, 0]);
    return 0;
}",
    );
    for tier in [Tier::Vm, Tier::Tree] {
        assert_eq!(
            run_error(&mismatch, tier),
            "runtime error: program panic: matrix multiplication dimension mismatch"
        );
    }

    // Use after free cannot be written in the language (the compiler
    // inserts the reference counting), so free the operand in the IR,
    // immediately before the kernel statement.
    let mut freed = compile(
        "int main() {
    Matrix float <2> a = init(Matrix float <2>, 4, 4);
    Matrix float <2> c = a * a;
    printFloat(c[0, 0]);
    return 0;
}",
    );
    let main = freed
        .functions
        .iter_mut()
        .find(|f| &*f.name == "main")
        .expect("main");
    let (at, operand) = main
        .body
        .iter()
        .enumerate()
        .find_map(|(at, s)| match s {
            IrStmt::Kernel {
                call: KernelCall::MatMul { a, .. },
                ..
            } => Some((at, a.clone())),
            _ => None,
        })
        .expect("the product lowers to a kernel statement in main's body");
    // Two references are live here: the `init` temporary's and `a`'s.
    let release = IrStmt::Expr(IrExpr::Builtin(Builtin::RcDecr, vec![IrExpr::var(&operand)]));
    main.body.splice(at..at, [release.clone(), release]);
    for tier in [Tier::Vm, Tier::Tree] {
        assert_eq!(
            run_error(&freed, tier),
            "runtime error: use after free: matrix accessed after its reference count reached zero"
        );
    }
}

/// A `main` that stores `product(m, k, n, 7)` of each shape to
/// `<dir>/<index>.cmmx`, in order.
fn writing_main(elem: &str, shapes: &[(i32, i32, i32)], dir: &std::path::Path) -> String {
    let mut main = String::from("int main() {\n");
    for (at, (m, k, n)) in shapes.iter().enumerate() {
        main += &format!(
            "    Matrix {elem} <2> c{at} = product({m}, {k}, {n}, 7);\n    writeMatrix(\"{}/{at}.cmmx\", c{at});\n",
            dir.display()
        );
    }
    main + "    return 0;\n}"
}

/// The definition of `product` in emitted C (after its forward declaration).
fn product_definition(c: &str) -> &str {
    c.rsplit_once(" product(int").expect("product is emitted").1
}

/// Build and run emitted C at `threads` OpenMP threads: it must print what
/// the tree tier printed for `want`'s shapes, one after another, and write
/// each shape's result bits to `<dir>/<index>.cmmx`.
fn assert_c_writes(c: &str, threads: usize, elem: Elem, want: &[Observed], dir: &std::path::Path) {
    let out = compile_and_run_c(c, threads).expect("gcc builds and runs the emitted C");
    let printed: String = want.iter().map(|w| w.output.as_str()).collect();
    assert_eq!(out, printed, "{elem:?} at {threads} thread(s)");
    for (at, w) in want.iter().enumerate() {
        let bytes = std::fs::read(dir.join(format!("{at}.cmmx"))).expect("the result was written");
        let header = cmmx::parse(&bytes, elem).expect("a CMMX container");
        let bits: Vec<u32> = cmmx::cell_bits(&bytes, &header, elem).collect();
        assert_eq!(bits, w.bits, "{elem:?} product {at} at {threads} thread(s)");
    }
}

/// The emitted C runs a product of numbers as one call of its prelude's
/// row kernel. Built as documented (`gcc -O2 -fopenmp -msse2`), it prints
/// the tree tier's output and writes the tree tier's result bits for every
/// edge shape of both element types at 1, 2 and 4 OpenMP threads, and on
/// the sequential branch a `--no-parallel` compile takes.
#[test]
fn emitted_c_kernel_writes_the_tree_tier_bits() {
    if !gcc_available_or_skip("emitted_c_kernel_writes_the_tree_tier_bits") {
        return;
    }
    let dir = std::env::temp_dir().join(format!("cmm-kernel-c-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (elem, cell) in [("float", Elem::F32), ("int", Elem::I32)] {
        let ir = compile(&product_source(elem));
        let want: Vec<Observed> = EDGE_SHAPES
            .iter()
            .map(|&(m, k, n)| run_product(&ir, Tier::Tree, 1, Schedule::Static, (m, k, n, 7)))
            .collect();
        let src = product_program(elem, &writing_main(elem, &EDGE_SHAPES, &dir));
        let mut compiler = full_compiler();
        let parallel = compiler.compile_to_c(&src).expect("program emits");
        compiler.options.parallelize = false;
        let sequential = compiler.compile_to_c(&src).expect("program emits");
        let kernel = if cell == Elem::F32 { "cmm_matmul_f32(" } else { "cmm_matmul_i32(" };
        for (c, flag, threads) in [(&parallel, ", 1);", &[1, 2, 4][..]), (&sequential, ", 0);", &[2])] {
            let calls: Vec<&str> = product_definition(c)
                .lines()
                .filter(|l| l.contains("cmm_matmul_"))
                .collect();
            assert_eq!(calls.len(), 1, "one kernel call and no nest: {calls:?}");
            assert!(calls[0].contains(kernel) && calls[0].ends_with(flag), "{}", calls[0]);
            for &t in threads {
                assert_c_writes(c, t, cell, &want, &dir);
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A `transform` that rewrites a loop of the product's nest retires the
/// kernel call (the statement becomes a block of the rewritten nest), so
/// the emitted C prints that nest and calls no kernel; built with gcc, it
/// still writes the tree tier's bits.
#[test]
fn a_transformed_product_emits_its_nest() {
    let dir = std::env::temp_dir().join(format!("cmm-kernel-nest-{}", std::process::id()));
    let shape = [(9, 10, 12)];
    let mut ir = compile(&product_program("float", &writing_main("float", &shape, &dir)));
    let product = ir
        .functions
        .iter_mut()
        .find(|f| &*f.name == "product")
        .expect("product");
    let j = product
        .body
        .iter()
        .find_map(|s| match s {
            IrStmt::Kernel { fallback, .. } => match &fallback[..] {
                [IrStmt::For(rows)] => match &rows.body[..] {
                    [IrStmt::For(cols)] => Some(cols.var.to_string()),
                    _ => None,
                },
                _ => None,
            },
            _ => None,
        })
        .expect("the product's kernel statement, an i/j/k nest");
    let split = LoopTransform::Split {
        index: j,
        by: 4,
        inner: "jin".into(),
        outer: "jout".into(),
    };
    apply(&mut product.body, &split).expect("the split applies");
    let c = emit::emit_program(&ir).expect("program emits");
    let definition = product_definition(&c);
    assert!(!definition.contains("cmm_matmul_"), "{definition}");
    assert!(definition.contains("jout"), "the split nest is emitted: {definition}");
    if gcc_available_or_skip("a_transformed_product_emits_its_nest") {
        std::fs::create_dir_all(&dir).expect("temp dir");
        let (m, k, n) = shape[0];
        let want = run_product(
            &compile(&product_source("float")),
            Tier::Tree,
            1,
            Schedule::Static,
            (m, k, n, 7),
        );
        assert_c_writes(&c, 2, Elem::F32, &[want], &dir);
        std::fs::remove_dir_all(&dir).ok();
    }
}
