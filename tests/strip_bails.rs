//! A loop that fails part-way through a strip fails as the tree tier does,
//! end to end: `cmmc run` (the VM) prints the error line the tree tier's
//! error makes and nothing else, and the library reports the same
//! `steps_used()` on both tiers. Iteration 333 of a loop is lane 77 of its third
//! strip, so the failing lane is neither a strip's first nor its last.

use cmm::eddy::programs::full_compiler;
use cmm::loopir::{
    BufHandle, CType, Elem, ForLoop, Interp, InterpProfile, IrBinOp, IrExpr, IrFunction, IrProgram,
    IrStmt, LimitKind, Limits, Tier, Value, UNBOXED_STRIP as STRIP,
};
use std::process::{Command, Output};

const FAIL_AT: usize = 2 * STRIP + 77;

/// `x` has 333 cells; the fold reads 433 of them.
const FOLD: &str = "int main() {
    int n = 333;
    Matrix int <1> x = with ([0] <= [i] < [n]) genarray([n], i * 3 % 7);
    printInt(with ([0] <= [i] < [n + 100]) fold(+, 0, x[i] * 2));
    return 0;
}";

/// The genarray's inner loop loads `x[j]` and stores cell `[i, j]` of its
/// result, whose rows have 433: the load leaves `x` at 333. (A genarray's
/// own store cannot leave its buffer in a source program — lowering checks
/// the generator against the shape first — so the failing store is driven
/// through the IR below.)
const GENARRAY: &str = "int main() {
    int n = 333;
    Matrix int <1> x = with ([0] <= [i] < [n]) genarray([n], i * 3 % 7);
    Matrix int <2> y = with ([0, 0] <= [i, j] < [2, n + 100])
        genarray([2, n + 100], x[j] + i);
    printInt(y[1, 5]);
    return 0;
}";

/// Four strips of a fold, the last a short one: every budget below the
/// run's total stops it somewhere, many of them inside a strip.
const LONG_FOLD: &str = "int main() {
    int n = 424;
    Matrix int <1> x = with ([0] <= [i] < [n]) genarray([n], i * 3 % 7);
    printInt(with ([0] <= [i] < [n]) fold(+, 0, x[i] * 2));
    return 0;
}";

fn write_program(name: &str, src: &str) -> String {
    let path = std::env::temp_dir().join(format!("cmmc-{}-{name}", std::process::id()));
    std::fs::write(&path, src).expect("write program");
    path.display().to_string()
}

/// `cmmc run` of `src`, which fails, against the tree tier's run of it in
/// the library under the same `fuel`: the same stdout, and the tree tier's
/// error as `cmmc`'s one-line diagnostic. Returns the diagnostic and the
/// exit code.
fn cli_parity(name: &str, src: &str, fuel: Option<u64>) -> (String, i32) {
    let path = write_program(name, src);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cmmc"));
    cmd.args(["run", &path, "--threads", "1"]);
    if let Some(fuel) = fuel {
        cmd.args(["--fuel", &fuel.to_string()]);
    }
    let vm: Output = cmd.output().expect("spawn cmmc");
    std::fs::remove_file(&path).ok();
    let ir = full_compiler().compile(src).expect("compiles");
    let limits = Limits {
        fuel,
        ..Limits::default()
    };
    let tree = Interp::new(&ir, 1).with_tier(Tier::Tree).with_limits(limits);
    let error = tree.run_main().expect_err("the program fails");
    let stderr = String::from_utf8_lossy(&vm.stderr).into_owned();
    assert_eq!(stderr, format!("cmmc: {error}\n"), "{name}");
    assert_eq!(String::from_utf8_lossy(&vm.stdout), tree.output(), "{name}");
    (stderr, vm.status.code().expect("exited"))
}

/// Run `src` on `tier` in the library: the output or the error text, the
/// steps used, and the profile.
fn library_run(
    src: &str,
    tier: Tier,
    fuel: Option<u64>,
) -> (Result<String, String>, u64, InterpProfile) {
    let ir = full_compiler().compile(src).expect("compiles");
    let limits = Limits {
        fuel,
        ..Limits::default()
    };
    let interp = Interp::new(&ir, 1)
        .with_tier(tier)
        .with_limits(limits)
        .with_profiling(true);
    let result = interp.run_main().map(|_| interp.output());
    let result = result.map_err(|e| {
        if fuel.is_some() {
            assert_eq!(e.limit_kind(), Some(LimitKind::Fuel), "{e}");
        }
        e.to_string()
    });
    (result, interp.steps_used(), interp.profile())
}

#[test]
fn a_load_that_leaves_its_buffer_mid_strip_fails_as_the_tree_tier_does() {
    let message = format!("index {FAIL_AT} out of bounds for buffer of {FAIL_AT}");
    for (name, src) in [("fold.xc", FOLD), ("genarray.xc", GENARRAY)] {
        let (stderr, code) = cli_parity(name, src, None);
        assert_eq!(
            stderr,
            format!("cmmc: runtime error: {message}\n"),
            "{name}"
        );
        assert_eq!(code, 1, "{name}");
        // (Steps are not compared: on a runtime error the VM has charged
        // the failing statement group whole, the tree tier statement by
        // statement.)
        let (vm, _, profile) = library_run(src, Tier::Vm, None);
        assert_eq!(vm, library_run(src, Tier::Tree, None).0, "{name}");
        assert_eq!(vm, Err(format!("runtime error: {message}")), "{name}");
        assert_eq!(
            (profile.unboxed_bails, profile.unboxed_strip_iters),
            (1, FAIL_AT as u64),
            "{name}: the lanes before the failing one ran in strips"
        );
    }
}

/// `void main(out)`: `out[j] = j` for `j` below 433, `out` 333 cells long.
#[test]
fn a_store_that_leaves_its_buffer_mid_strip_fails_as_the_tree_tier_does() {
    let cells = FAIL_AT;
    let ir = IrProgram {
        functions: vec![IrFunction {
            name: "main".into(),
            params: vec![("out".into(), CType::Buf(Elem::I32))],
            ret: CType::Void,
            ret_tuple: None,
            body: vec![IrStmt::For(ForLoop {
                var: "j".into(),
                lo: IrExpr::Int(0),
                hi: IrExpr::Int(cells as i64 + 100),
                body: vec![IrStmt::Store {
                    elem: Elem::I32,
                    buf: IrExpr::Var("out".into()),
                    idx: IrExpr::Var("j".into()),
                    value: IrExpr::bin(IrBinOp::Mul, IrExpr::Var("j".into()), IrExpr::Int(3)),
                }],
                parallel: false,
                vector: false,
                schedule: None,
            })],
        }],
    };
    let run = |tier| {
        let out = BufHandle::from_i32(vec![cells], &vec![-1; cells]);
        let interp = Interp::new(&ir, 1).with_tier(tier).with_profiling(true);
        let e = interp
            .call("main", vec![Value::Buf(out.clone())])
            .expect_err("the store fails");
        let profile = interp.profile();
        let cells = out.to_i32_vec().expect("live");
        ((e.to_string(), cells, interp.steps_used()), profile)
    };
    let (vm, profile) = run(Tier::Vm);
    let (tree, _) = run(Tier::Tree);
    assert_eq!(vm, tree);
    assert_eq!(
        vm.0,
        format!("runtime error: index {FAIL_AT} out of bounds for buffer of {FAIL_AT}")
    );
    assert_eq!(vm.1, (0..FAIL_AT as i32).map(|j| j * 3).collect::<Vec<_>>());
    assert_eq!(
        (profile.unboxed_strip_iters, profile.unboxed_bails),
        (FAIL_AT as u64, 1),
        "the lanes before the failing one ran in strips"
    );
}

/// Budgets that run out inside the fold's third strip stop both tiers
/// with the same error, in the library and through `cmmc run --fuel`
/// (exit 5). The VM charges an iteration's steps whole and the tree tier
/// statement by statement, so `steps_used()` is equal where a budget runs
/// out on an iteration's last step and elsewhere the VM's count is the end
/// of that iteration.
#[test]
fn a_fuel_budget_that_runs_out_mid_strip_stops_both_tiers_alike() {
    let (done, total, profile) = library_run(LONG_FOLD, Tier::Vm, None);
    assert_eq!(done, Ok("2542\n".into()));
    assert_eq!(profile.unboxed_full_strips, 3);
    assert_eq!(library_run(LONG_FOLD, Tier::Tree, None).1, total);
    // The fold's iterations cost three steps each and end the run, so
    // these budgets run out at its iterations 324 to 337.
    let mut equal = 0;
    for fuel in total - 300..total - 260 {
        let (vm, vm_used, _) = library_run(LONG_FOLD, Tier::Vm, Some(fuel));
        let (tree, tree_used, _) = library_run(LONG_FOLD, Tier::Tree, Some(fuel));
        assert_eq!(vm, tree, "fuel {fuel}");
        assert!(vm.is_err(), "fuel {fuel} of {total}");
        assert!(
            tree_used <= vm_used && vm_used < tree_used + 3,
            "fuel {fuel}: vm {vm_used}, tree {tree_used}"
        );
        equal += usize::from(vm_used == tree_used);
    }
    assert!(equal >= 13, "{equal} of 40 budgets ended an iteration");
    let fuel = total - 280;
    let (stderr, code) = cli_parity("long_fold.xc", LONG_FOLD, Some(fuel));
    assert_eq!(code, 5, "{stderr}");
    assert_eq!(
        stderr,
        format!("cmmc: limit exceeded (fuel): fuel budget of {fuel} steps exhausted\n")
    );
}
