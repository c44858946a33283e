//! The product run path — bytecode built one function at a time as
//! lowering hands each function out (`Compiler::run*`) — runs what the
//! whole-program path runs: `Interp::new(&compiler.compile(src)?)
//! .with_tier(Tier::Vm)`. For every example, corpus program and the
//! `compile_wide` templates, at one and two threads (and stopped by fuel
//! half-way at one), both give the same output, steps,
//! allocations and leaks, error text and kind, `--profile` function table
//! and boxed loops. Then the cases the streamed build must order as the
//! whole program does: a lowering error beats an earlier function's
//! bytecode limit, and a user function calls the functions lifted out of
//! its `matrixMap`s.

use std::path::Path;

use cmm::core::{CompileError, Compiler, Registry, ALL_EXTENSIONS};
use cmm::forkjoin::Schedule;
use cmm::loopir::{
    BoxedLoop, Interp, InterpError, InterpErrorKind, IrProgram, Limits, Tier,
};

fn compiler() -> Compiler {
    Registry::standard()
        .compiler(&ALL_EXTENSIONS)
        .expect("full language")
}

/// What a run leaves behind that a user can see.
#[derive(Debug, PartialEq)]
struct Observed {
    output: String,
    /// The run's error: its kind and the text `cmmc` prints.
    error: Option<(InterpErrorKind, String)>,
    steps: u64,
    allocations: u32,
    leaked: u32,
    /// `(name, calls, steps)` of the profile's function table; steps only
    /// at one thread, where no other thread's work lands in a call.
    functions: Vec<(String, u64, Option<u64>)>,
    boxed: Vec<BoxedLoop>,
    per_iteration: Vec<BoxedLoop>,
}

fn kind_of(e: &CompileError) -> InterpErrorKind {
    match e {
        CompileError::Runtime(_) => InterpErrorKind::Runtime,
        CompileError::Limit { kind, .. } => InterpErrorKind::LimitExceeded(*kind),
        CompileError::Panic(_) => InterpErrorKind::WorkerPanic,
        CompileError::VmLimit(_) => InterpErrorKind::VmLimit,
        other => panic!("not a run error: {other}"),
    }
}

/// The product path: `Compiler::run_profiled_outcome`, checked against
/// the unprofiled `Compiler::run_keeping_output`.
fn product(c: &Compiler, src: &str, threads: usize, limits: Limits) -> Observed {
    let (outcome, report) = c
        .run_profiled_outcome(src, threads, limits.clone(), Schedule::Static)
        .expect("compiles");
    let plain = c.run_keeping_output(src, threads, limits, Schedule::Static);
    let profile = report.interp.expect("a profile");
    let (output, error, counts) = match outcome {
        Ok(r) => {
            let plain = plain.expect("the unprofiled run succeeds too");
            assert_eq!(
                (&plain.output, plain.allocations, plain.leaked, plain.steps_used),
                (&r.output, r.allocations, r.leaked, r.steps_used)
            );
            assert_eq!(r.steps_used, profile.total_steps);
            (r.output, None, Some((r.allocations, r.leaked)))
        }
        Err(failure) => {
            let plain = plain.expect_err("the unprofiled run fails too");
            assert_eq!(plain.error.to_string(), failure.error.to_string());
            assert_eq!(plain.output, failure.output);
            let error = (kind_of(&failure.error), failure.error.to_string());
            (failure.output, Some(error), None)
        }
    };
    // A failed run reports no buffer counts; the reference's are taken
    // where the product's are.
    let (allocations, leaked) = counts.unwrap_or((u32::MAX, u32::MAX));
    Observed {
        output,
        error,
        steps: profile.total_steps,
        allocations,
        leaked,
        functions: table(&profile.functions, threads),
        boxed: profile.boxed_loops,
        per_iteration: profile.per_iteration_loops,
    }
}

/// The whole-program path on the same IR.
fn reference(ir: &IrProgram, threads: usize, limits: Limits) -> Observed {
    let interp = Interp::new(ir, threads)
        .with_limits(limits)
        .with_profiling(true)
        .with_tier(Tier::Vm);
    let ran = interp.run_main();
    let profile = interp.profile();
    let failed = ran.as_ref().err().map(|e: &InterpError| (e.kind, e.to_string()));
    let (allocations, leaked) = match failed {
        None => (interp.alloc_count(), interp.live_buffers()),
        Some(_) => (u32::MAX, u32::MAX),
    };
    Observed {
        output: interp.output(),
        error: failed,
        steps: interp.steps_used(),
        allocations,
        leaked,
        functions: table(&profile.functions, threads),
        boxed: profile.boxed_loops,
        per_iteration: profile.per_iteration_loops,
    }
}

fn table(functions: &[cmm::loopir::FnProfile], threads: usize) -> Vec<(String, u64, Option<u64>)> {
    let mut rows: Vec<_> = functions
        .iter()
        .map(|f| (f.name.clone(), f.calls, (threads == 1).then_some(f.steps)))
        .collect();
    rows.sort();
    rows
}

fn programs() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths = Vec::new();
    for dir in ["examples", "tests/corpus"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("a program directory") {
            let path = entry.expect("readable entry").path();
            if path.extension().is_some_and(|x| x == "xc") {
                paths.push(path);
            }
        }
    }
    paths.sort();
    paths.push(root.join("tests/golden/wide_templates.xc"));
    paths
        .into_iter()
        .map(|p| {
            let src = std::fs::read_to_string(&p).expect("readable program");
            (p.display().to_string(), src)
        })
        .collect()
}

#[test]
fn the_run_path_runs_what_the_whole_program_path_runs() {
    let c = compiler();
    let mut stopped = 0;
    for (name, src) in programs() {
        let ir = c.compile(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        for threads in [1, 2] {
            let whole = reference(&ir, threads, Limits::default());
            assert_eq!(whole.error, None, "{name}: {:?}", whole.error);
            assert_eq!(product(&c, &src, threads, Limits::default()), whole, "{name} at {threads}");
            if threads > 1 {
                // Where a fuel stop falls depends on how the threads race.
                continue;
            }
            // Stopped by fuel half-way: the error, and what was printed and
            // counted before it.
            let half = Limits { fuel: Some(whole.steps / 2), ..Limits::default() };
            let whole = reference(&ir, threads, half.clone());
            stopped += usize::from(whole.error.is_some());
            assert_eq!(product(&c, &src, threads, half), whole, "{name}, half fuel");
        }
    }
    assert!(stopped > 0, "no run stopped at its fuel budget");
}

/// A function with more frame slots than the bytecode can name: 65 537
/// block-scoped declarations.
fn over_the_limits(name: &str) -> String {
    format!("void {name}() {{{}}}\n", "{int a;}".repeat(u16::MAX as usize + 1))
}

/// A function whose lowering fails: its `transform` names no loop.
const LOWERING_ERROR: &str = "
int broken() {
    Matrix int <1> v = init(Matrix int <1>, 4);
    v = with ([0] <= [i] < [4]) genarray([4], i) transform split zz by 2, a, b;
    return v[0];
}
";

#[test]
fn a_lowering_error_beats_an_earlier_bytecode_limit() {
    let c = compiler();
    let main = "int main() { printInt(1); return 0; }\n";
    let limited = format!("{}{main}", over_the_limits("wide"));
    let e = c.run(&limited, 1).expect_err("`wide` does not fit");
    assert!(matches!(e, CompileError::VmLimit(_)), "{e}");
    assert_eq!(e.to_string(), "bytecode limit: function 'wide': too many frame slots");

    let both = format!("{}{LOWERING_ERROR}{main}", over_the_limits("wide"));
    let e = c.run(&both, 1).expect_err("`broken` does not lower");
    assert!(matches!(e, CompileError::Lower(_)), "{e}");
    let whole = c.compile(&both).expect_err("`broken` does not lower");
    assert_eq!(e.to_string(), whole.to_string());
    assert!(e.to_string().contains("'zz' does not correspond to a loop"), "{e}");

    let path = std::env::temp_dir().join(format!("cmmc-{}-precedence.xc", std::process::id()));
    std::fs::write(&path, &both).expect("write program");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cmmc"))
        .arg("run")
        .arg(&path)
        .output()
        .expect("spawn cmmc");
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(4));
    assert_eq!(String::from_utf8_lossy(&out.stdout), "");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("'zz' does not correspond to a loop"), "{stderr}");
}

#[test]
fn user_functions_call_the_functions_lifted_out_of_their_maps() {
    let src = "
Matrix float <1> twice(Matrix float <1> row) {
    int n = dimSize(row, 0);
    return with ([0] <= [i] < [n]) genarray([n], row[i] * 2.0);
}
Matrix float <1> halve(Matrix float <1> row) {
    int n = dimSize(row, 0);
    return with ([0] <= [i] < [n]) genarray([n], row[i] / 2.0);
}
float doubled(Matrix float <2> m) {
    Matrix float <2> d = matrixMap(twice, m, [1]);
    return d[1, 2];
}
float halved(Matrix float <2> m) {
    Matrix float <2> h = matrixMap(halve, m, [0]);
    Matrix float <2> q = matrixMap(halve, h, [1]);
    return q[2, 1];
}
int main() {
    Matrix float <2> m = with ([0, 0] <= [i, j] < [3, 4]) genarray([3, 4], toFloat(i * 4 + j));
    printFloat(doubled(m));
    printFloat(halved(m));
    return 0;
}
";
    let c = compiler();
    let ir = c.compile(src).expect("compiles");
    let lifted: Vec<&str> = ir.functions[5..].iter().map(|f| &*f.name).collect();
    assert_eq!(lifted.len(), 3, "{lifted:?}");
    for threads in [1, 2] {
        let whole = reference(&ir, threads, Limits::default());
        assert_eq!(whole.output, "12.000000\n2.250000\n");
        assert_eq!(product(&c, src, threads, Limits::default()), whole);
    }
}
