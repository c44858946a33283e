//! How much a cold start allocates: the first full-language compiler of a
//! process, which every `cmmc` invocation builds. The standard composition
//! is read from the tables and the grammar view written when `cmm-core`
//! was built; a change that composes the grammar again at start-up (its
//! regex parses, name maps and cloned fragments) multiplies this count.
//! Counts, not timings: they do not depend on the host.
//!
//! Its own test binary, because it installs a counting global allocator
//! and needs the process's composition cache to be empty.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cmm::core::{Registry, ALL_EXTENSIONS};

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

#[test]
fn the_first_full_language_compiler_allocates_little() {
    ALLOCATIONS.with(|n| n.set(Some(0)));
    let registry = Registry::standard();
    let compiler = registry.compiler(&ALL_EXTENSIONS).expect("full language");
    let count = ALLOCATIONS.with(|n| n.replace(None)).expect("counting");
    assert_eq!(
        registry.parser_cache_stats().prebuilt,
        1,
        "not read from the built tables"
    );
    drop(compiler);
    // 1.25 × the count measured when the bound was set (960, nearly all
    // of them the fragments `Registry::standard` holds); composing the
    // grammar at start-up, as before, read 2 668.
    assert!(count <= 1200, "the first compiler made {count} allocations");
}
