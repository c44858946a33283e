//! How much the back end allocates, per IR statement, on one instance of
//! each `compile_wide` benchmark template (`tests/golden/wide_templates.xc`).
//! The emitter writes straight into its output buffer and lowering makes
//! each IR name once; a change that brings back a string per node or a
//! copied name per reference multiplies these ratios. Counts, not
//! timings: they do not depend on the host.
//!
//! Its own test binary, because it installs a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cmm::core::{Registry, ALL_EXTENSIONS};
use cmm::lang::{check_program, lower_program, parse_program};
use cmm::loopir::emit::emit_program;

/// [`System`], counting the allocations of the threads that asked to.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the count is a thread-local `Cell` that
// allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get().map(|n| n + 1)));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    ALLOCATIONS.with(|n| n.set(Some(0)));
    let result = f();
    let count = ALLOCATIONS.with(|n| n.replace(None)).expect("counting");
    (count, result)
}

#[test]
fn lowering_and_emission_allocate_little_per_statement() {
    let src = include_str!("golden/wide_templates.xc");
    let compiler = Registry::standard()
        .compiler(&ALL_EXTENSIONS)
        .expect("full language");
    let (_, _, metrics) = compiler.compile_to_c_metered(src).expect("compiles");
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
