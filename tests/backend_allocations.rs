//! How much the back end allocates, per IR statement, on one instance of
//! each `compile_wide` benchmark template (`tests/golden/wide_templates.xc`),
//! and how many bytes the emit path holds at its peak. The emitter writes
//! straight into its output buffers and lowering makes each IR name once;
//! a change that brings back a string per node or a copied name per
//! reference multiplies these ratios. `compile_to_c` lowers and emits one
//! function at a time; a change that keeps the whole IR again raises its
//! peak to the whole-program path's. Counts, not timings: they do not
//! depend on the host.
//!
//! Its own test binary, because it installs a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cmm::core::{Registry, ALL_EXTENSIONS};
use cmm::lang::{check_program, lower_program, parse_program};
use cmm::loopir::emit::emit_program;

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

#[test]
fn lowering_and_emission_allocate_little_per_statement() {
    let src = include_str!("golden/wide_templates.xc");
    let compiler = Registry::standard()
        .compiler(&ALL_EXTENSIONS)
        .expect("full language");
    let (_, metrics) = compiler.compile_to_c_metered(src).expect("compiles");
    let lower = metrics.passes.iter().find(|p| p.name == "lower").expect("lower pass");
    let stmts = lower.items as f64;
    let ast = (parse_program(compiler.parser(), compiler.handlers(), src))
        .expect("parses")
        .expect("builds");
    let (info, _) = check_program(&ast, compiler.extensions());

    let (lowering, ir) = allocations(|| lower_program(&ast, &info, &compiler.options));
    let ir = ir.expect("lowers");
    let (emission, c) = allocations(|| emit_program(&ir));
    c.expect("emits");

    // 1.25 × the ratios measured when the bounds were set (lowering 3.67,
    // emission 0.26 per statement); the string-per-node emitter and the
    // cloned names read 7.02 and 6.73.
    let (lowering, emission) = (lowering as f64 / stmts, emission as f64 / stmts);
    assert!(lowering <= 4.6, "lowering: {lowering:.2} allocations per IR statement");
    assert!(emission <= 0.33, "emission: {emission:.2} allocations per IR statement");
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
