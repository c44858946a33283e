//! Ceilings on counts no host can move, for one program at one size.
//! `tests/golden/wide_templates.xc` (one instance of each `compile_wide`
//! benchmark template) lowers to at most so many IR statements, emits at
//! most so many bytes of C, and allocates at most so many times while it
//! lowers and while it emits, each 1.02 × the count measured when its
//! ceiling was set. A change that lowers a count lowers its ceiling in
//! the same diff; one that raises a count says why. The emit and run
//! paths' peaks of live bytes have ceilings too: `compile_to_c` lowers and
//! emits one function at a time, `Compiler::run` lowers and compiles to
//! bytecode one function at a time, and a change that keeps the whole IR
//! (or the whole resolved form) again raises its peak to the
//! whole-program path's.
//!
//! Its own test binary, because it installs a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cmm::core::{Registry, ALL_EXTENSIONS};
use cmm::lang::{check_program, lower_functions, parse_program};
use cmm::loopir::emit::emit_program;
use cmm::loopir::{Interp, IrProgram, Tier};

/// [`System`], counting the allocations of the threads that asked to and
/// the peak of the bytes they hold.
struct Counting;

/// What one thread's allocations came to while it counted.
#[derive(Clone, Copy, Default)]
struct Tally {
    allocations: u64,
    /// Bytes allocated less bytes freed since counting began.
    live: i64,
    /// The highest `live` reached.
    peak: i64,
}

thread_local! {
    static TALLY: Cell<Option<Tally>> = const { Cell::new(None) };
}

fn count(delta: i64, allocation: bool) {
    let _ = TALLY.try_with(|t| {
        if let Some(mut n) = t.get() {
            n.allocations += allocation as u64;
            n.live += delta;
            n.peak = n.peak.max(n.live);
            t.set(Some(n));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the tally is a thread-local `Cell` that
// allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64, true);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64), false);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` allocates on this thread, and its result.
fn tally<T>(f: impl FnOnce() -> T) -> (Tally, T) {
    TALLY.with(|t| t.set(Some(Tally::default())));
    let result = f();
    let tally = TALLY.with(|t| t.replace(None)).expect("counting");
    (tally, result)
}

/// Allocations `f` makes on this thread, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let (t, result) = tally(f);
    (t.allocations, result)
}

/// What pass `pass` counts on `wide_templates.xc`: IR statements for
/// `lower`, bytes of C for `emit`.
fn pass_items(pass: &str) -> u64 {
    let src = include_str!("golden/wide_templates.xc");
    let compiler = Registry::standard()
        .compiler(&ALL_EXTENSIONS)
        .expect("full language");
    let (_, metrics) = compiler.compile_to_c_metered(src).expect("compiles");
    metrics
        .passes
        .iter()
        .find(|p| p.name == pass)
        .unwrap_or_else(|| panic!("no {pass} pass"))
        .items
}

#[test]
fn wide_templates_lower_to_few_statements() {
    // 341 measured: with-loop bounds in place, only guards that can fire,
    // counted `for` loops, no release after a `return` (580 before).
    let stmts = pass_items("lower");
    assert!(
        stmts <= 347,
        "lowering: {stmts} IR statements (ceiling 347)"
    );
}

#[test]
fn wide_templates_emit_few_bytes() {
    // 28 861 measured, the C prelude included (39 601 before).
    let bytes = pass_items("emit");
    assert!(
        bytes <= 29_438,
        "emission: {bytes} bytes of C (ceiling 29 438)"
    );
}

#[test]
fn wide_templates_lower_and_emit_with_few_allocations() {
    let src = include_str!("golden/wide_templates.xc");
    let compiler = Registry::standard()
        .compiler(&ALL_EXTENSIONS)
        .expect("full language");
    let ast = (parse_program(compiler.parser(), compiler.handlers(), src))
        .expect("parses")
        .expect("builds");
    let (info, _) = check_program(&ast, compiler.extensions());
    let (lowering, functions) = allocations(|| {
        lower_functions(&ast, &info, &compiler.options).collect::<Result<Vec<_>, _>>()
    });
    let ir = IrProgram {
        functions: functions.expect("lowers"),
    };
    let (emission, c) = allocations(|| emit_program(&ir));
    c.expect("emits");
    // 1 561 and 42 measured (per IR statement, the bound these replace,
    // 4.58 and 0.12; the string-per-node emitter and the cloned names
    // read 7.02 and 6.73).
    assert!(
        lowering <= 1_592,
        "lowering: {lowering} allocations (ceiling 1 592)"
    );
    assert!(emission <= 42, "emission: {emission} allocations (ceiling 42)");
}

#[test]
fn the_emit_path_holds_one_function_at_a_time() {
    let src = include_str!("golden/wide_templates.xc");
    let compiler = Registry::standard()
        .compiler(&ALL_EXTENSIONS)
        .expect("full language");
    // Warm the parser cache, so that neither run counts its tables.
    compiler.compile_to_c(src).expect("compiles");

    let (streamed, c) = tally(|| compiler.compile_to_c(src));
    let (whole, whole_c) = tally(|| {
        let ir = compiler.compile(src).expect("compiles");
        emit_program(&ir)
    });
    assert_eq!(c.expect("compiles"), whole_c.expect("emits"));
    // 1.25 × the peak measured when the bound was set (131 057 bytes; the
    // whole-program path, which the parent's `compile_to_c` was, reads
    // 245 543 there).
    assert!(streamed.peak <= 163_800, "compile_to_c peaks at {} bytes", streamed.peak);
    assert!(
        streamed.peak < whole.peak,
        "compile_to_c peaks at {} bytes, compile + emit_program at {}",
        streamed.peak,
        whole.peak
    );
}

#[test]
fn the_run_path_holds_one_function_at_a_time() {
    let src = include_str!("golden/wide_templates.xc");
    let compiler = Registry::standard()
        .compiler(&ALL_EXTENSIONS)
        .expect("full language");
    // Warm the parser cache, so that neither run counts its tables.
    compiler.run(src, 1).expect("runs");

    let (streamed, result) = tally(|| compiler.run(src, 1));
    let (whole, whole_output) = tally(|| {
        let ir = compiler.compile(src).expect("compiles");
        let interp = Interp::new(&ir, 1).with_tier(Tier::Vm);
        interp.run_main().expect("runs");
        interp.output()
    });
    assert_eq!(result.expect("runs").output, whole_output);
    // 1.25 × the peak measured when the bound was set (133 066 bytes; the
    // whole-program path, `compile` + `Interp::new` + `with_tier`, reads
    // 203 526 there).
    assert!(streamed.peak <= 166_333, "Compiler::run peaks at {} bytes", streamed.peak);
    assert!(
        streamed.peak < whole.peak,
        "Compiler::run peaks at {} bytes, compile + Interp::new + with_tier at {}",
        streamed.peak,
        whole.peak
    );
}
