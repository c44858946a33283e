//! `A * B` in an `.xc` program: the VM tier runs the product as one
//! blocked-kernel call, the tree tier interprets the scalar nest the
//! operator lowers to, and nothing but time may tell them apart — same
//! output, same result bits, same `steps_used()`, same typed errors when a
//! budget runs out part-way, same messages for bad operands, and emitted C
//! that never changed.

use cmm::eddy::programs::full_compiler;
use cmm::forkjoin::Schedule;
use cmm::loopir::{
    Builtin, Interp, InterpError, IrExpr, IrProgram, IrStmt, KernelCall, LimitKind, Limits, Tier,
    Value,
};
use proptest::prelude::*;
use std::time::Duration;

/// `product(m, k, n, s)` builds an `m×k` and a `k×n` operand from the seed
/// `s`, prints a fold of their product and returns it. Float entries are
/// not exactly representable, so every rounding step of every dot product
/// shows in the result bits; int entries are large enough that products
/// wrap.
fn product_source(elem: &str) -> String {
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
int main() {{ return 0; }}
"
    )
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

fn run_product_on(interp: &Interp<'_>, (m, k, n, s): (i32, i32, i32, i32)) -> Observed {
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

/// Small shapes at the edges the random cases may miss, in both tiers
/// under every schedule, plus the closed form itself: the product's share
/// of `steps_used()` is exactly `1 + m·(2 + n·(4 + 2k))`.
#[test]
fn edge_shapes_agree_and_cost_the_closed_form() {
    for elem in ["float", "int"] {
        let ir = compile(&product_source(elem));
        for (m, k, n) in [
            (0, 0, 0),
            (0, 5, 3),
            (4, 0, 3),
            (4, 5, 0),
            (1, 1, 1),
            (1, 130, 1),
            (65, 3, 49),
        ] {
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
            assert_eq!(e.limit_kind(), Some(LimitKind::Fuel), "{tier} tier: {e}");
        }
        // And a budget of exactly the total lets both tiers finish.
        let limits = Limits {
            fuel: Some(total),
            ..Limits::default()
        };
        let (r, used) = limited(&ir, tier, 2, limits);
        r.expect("exact budget suffices");
        assert_eq!(used, total, "{tier} tier");
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

/// The C emitter sees only the scalar nest, so `cmmc emit` of a product
/// is what it was before the kernel statement existed. The golden is
/// shared with `tests/emit_golden.rs`, which says how to regenerate it.
#[test]
fn emitted_c_is_unchanged() {
    let src = include_str!("../examples/matmul.xc");
    let emitted = full_compiler().compile_to_c(src).expect("example emits");
    assert_eq!(emitted, include_str!("golden/emit/matmul.c"));
}
