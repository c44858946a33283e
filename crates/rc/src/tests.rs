use crate::pool::size_class;
use crate::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn new_fills_buffer() {
    let b = RcBuf::new(5, 7i32);
    assert_eq!(b.as_slice(), &[7, 7, 7, 7, 7]);
    assert_eq!(b.len(), 5);
    assert!(!b.is_empty());
}

#[test]
fn empty_buffer() {
    let b = RcBuf::new(0, 0u8);
    assert!(b.is_empty());
    assert_eq!(b.as_slice(), &[] as &[u8]);
}

#[test]
fn clone_bumps_refcount_and_shares_storage() {
    let a = RcBuf::new(3, 1i32);
    assert_eq!(a.ref_count(), 1);
    let b = a.clone();
    assert_eq!(a.ref_count(), 2);
    assert_eq!(b.ref_count(), 2);
    assert_eq!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
    drop(b);
    assert_eq!(a.ref_count(), 1);
}

#[test]
fn concurrent_clone_drop_stress() {
    let a = RcBuf::new(64, 3i32);
    std::thread::scope(|s| {
        for _ in 0..8 {
            let a = a.clone();
            s.spawn(move || {
                for _ in 0..10_000 {
                    let b = a.clone();
                    assert_eq!(b.as_slice()[0], 3);
                }
            });
        }
    });
    assert_eq!(a.ref_count(), 1);
}

#[test]
fn pool_recycles_blocks() {
    reset_pool();
    set_pool_enabled(true);
    let p1 = {
        let b = RcBuf::new(100, 0u64);
        b.as_slice().as_ptr() as usize
    };
    // Same size class, so the freed block should be reused immediately by
    // this thread's cache.
    let b2 = RcBuf::new(100, 1u64);
    assert_eq!(b2.as_slice().as_ptr() as usize, p1);
    assert_eq!(b2.as_slice(), vec![1u64; 100].as_slice());
    let stats = pool_stats();
    assert!(stats.hits >= 1, "expected a pool hit, got {stats:?}");
    assert!(stats.recycled >= 1);
}

#[test]
fn pool_disabled_goes_to_system() {
    reset_pool();
    set_pool_enabled(false);
    let before = pool_stats();
    drop(RcBuf::new(64, 0u8));
    drop(RcBuf::new(64, 0u8));
    let after = pool_stats();
    assert_eq!(before.hits, after.hits);
    assert_eq!(before.recycled, after.recycled);
    set_pool_enabled(true);
}

#[test]
fn size_class_rounds_to_power_of_two() {
    assert_eq!(size_class(1), Some(0));
    assert_eq!(size_class(2), Some(1));
    assert_eq!(size_class(3), Some(2));
    assert_eq!(size_class(1024), Some(10));
    assert_eq!(size_class(1025), Some(11));
}

#[test]
fn oversize_requests_are_rejected_not_panicked() {
    // At the limit: still classifiable.
    assert_eq!(size_class(MAX_BLOCK_BYTES), Some(31));
    // Past the limit (would previously overflow next_power_of_two or
    // index past the class table): rejected.
    assert_eq!(size_class(MAX_BLOCK_BYTES + 1), None);
    assert_eq!(size_class(usize::MAX), None);

    // The fallible block constructor surfaces a typed Oversize error
    // without touching the allocator.
    let r = PoolBlock::try_zeroed(MAX_BLOCK_BYTES + 1);
    assert!(matches!(r, Err(AllocError::Oversize { .. })));
}

#[test]
#[should_panic(expected = "exceeds the")]
fn oversize_buffer_panics_with_the_typed_message() {
    let _ = RcBuf::<u64>::new(usize::MAX / 2, 0);
}

#[test]
fn pool_block_is_zeroed_and_recycled() {
    reset_pool();
    let before = pool_stats();
    let block = PoolBlock::try_zeroed(256).expect("alloc");
    assert_eq!(block.len(), 256);
    assert_eq!(block.as_ptr() as usize % 16, 0, "16-byte aligned");
    // Dirty the block, free it, and reacquire: the pool must hand the
    // recycled block back zeroed.
    unsafe { std::ptr::write_bytes(block.as_ptr(), 0xab, 256) };
    drop(block);
    let block2 = PoolBlock::try_zeroed(256).expect("alloc");
    let data = unsafe { std::slice::from_raw_parts(block2.as_ptr(), 256) };
    assert!(data.iter().all(|&b| b == 0), "recycled blocks must be re-zeroed");
    let after = pool_stats();
    assert!(after.recycled > before.recycled, "free captured by a cache");
}

#[test]
fn alignment_suits_vector_lanes() {
    for len in [1usize, 3, 4, 17] {
        let b = RcBuf::new(len, 0f32);
        assert_eq!(
            b.as_slice().as_ptr() as usize % 16,
            0,
            "f32 data must be 16-byte aligned for 4-lane vectors"
        );
    }
}

#[test]
fn drop_frees_exactly_once() {
    // Indirectly observed via refcount on a tracked payload: use an index
    // into a counter table since elements must be Copy.
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    DROPS.store(0, Ordering::SeqCst);
    let a = RcBuf::new(8, 1u32);
    let clones: Vec<_> = (0..100).map(|_| a.clone()).collect();
    assert_eq!(a.ref_count(), 101);
    drop(clones);
    assert_eq!(a.ref_count(), 1);
}

proptest! {
    #[test]
    fn prop_clone_chain_refcounts(n in 1usize..64) {
        let a = RcBuf::new(4, 0u8);
        let clones: Vec<_> = (0..n).map(|_| a.clone()).collect();
        prop_assert_eq!(a.ref_count() as usize, n + 1);
        drop(clones);
        prop_assert_eq!(a.ref_count(), 1);
    }
}

#[test]
fn concurrent_clone_drop_stress_keeps_buffer_alive() {
    // Hammers the Relaxed-increment / Release-decrement + Acquire-fence
    // protocol pinned in rcbuf.rs: many threads clone from a shared
    // handle, read through their clone, and drop, while the main thread
    // keeps one handle alive. Under a wrong ordering (e.g. Relaxed on the
    // drop path) the final free could race an in-flight reader; under
    // tsan/miri this test is the reproducer, and under plain execution it
    // still checks the count converges exactly.
    let origin = RcBuf::new(64, 63u64);
    let threads = 8;
    let rounds = 200;
    std::thread::scope(|s| {
        for _ in 0..threads {
            let origin = &origin;
            s.spawn(move || {
                for r in 0..rounds {
                    let c = origin.clone();
                    // Read through the clone so the buffer must outlive it.
                    assert_eq!(c.as_slice()[r % 64], 63);
                    let d = c.clone();
                    drop(c);
                    assert_eq!(d.as_slice()[63], 63);
                    drop(d);
                }
            });
        }
    });
    assert_eq!(origin.ref_count(), 1);
    assert_eq!(origin.as_slice()[7], 63);
}

#[test]
fn concurrent_final_drop_races_are_exactly_once() {
    // All handles are dropped from racing threads (the owner hands its
    // handle off too), so the *final* decrement — the one that frees —
    // happens on an arbitrary thread. Exercises the Release/Acquire pair
    // on the path where the freeing thread is not the last writer. Runs
    // many generations so the freed block is recycled by the pool and any
    // double-free or use-after-free corrupts a subsequent generation's
    // fill pattern.
    for generation in 0..200u64 {
        let origin = RcBuf::new(32, generation);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = origin.clone();
                s.spawn(move || {
                    assert_eq!(c.as_slice()[31], generation);
                    drop(c);
                });
            }
        });
        assert_eq!(origin.ref_count(), 1);
        assert_eq!(origin.as_slice()[0], generation);
    }
}
