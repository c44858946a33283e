//! Work partitioning helpers shared by every parallel construct.

use std::ops::Range;
use std::sync::Mutex;

use crate::ForkJoinPool;

/// Contiguous slice of `0..total` assigned to participant `tid` of
/// `nthreads`, balanced so sizes differ by at most one (the first
/// `total % nthreads` participants get the extra element).
///
/// ```
/// assert_eq!(cmm_forkjoin::chunk_range(10, 4, 0), 0..3);
/// assert_eq!(cmm_forkjoin::chunk_range(10, 4, 1), 3..6);
/// assert_eq!(cmm_forkjoin::chunk_range(10, 4, 2), 6..8);
/// assert_eq!(cmm_forkjoin::chunk_range(10, 4, 3), 8..10);
/// ```
pub fn chunk_range(total: usize, nthreads: usize, tid: usize) -> Range<usize> {
    assert!(nthreads > 0, "nthreads must be positive");
    assert!(tid < nthreads, "tid {tid} out of range for {nthreads} threads");
    let base = total / nthreads;
    let extra = total % nthreads;
    let start = tid * base + tid.min(extra);
    let len = base + usize::from(tid < extra);
    start..start + len
}

/// `f(0) ++ f(1) ++ … ++ f(count - 1)`, computed over `pool`: each
/// participant maps its contiguous [`chunk_range`] of indices into its
/// own `Vec`, and the parts are concatenated in index order, so the
/// result does not depend on the thread count.
pub fn map_slices<U: Send, I: IntoIterator<Item = U>>(
    pool: &ForkJoinPool,
    count: usize,
    f: impl Fn(usize) -> I + Sync,
) -> Vec<U> {
    let parts = Mutex::new(Vec::new());
    pool.run(|tid, nthreads| {
        let mut out = Vec::new();
        for k in chunk_range(count, nthreads, tid) {
            out.extend(f(k));
        }
        parts
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((tid, out));
    });
    let mut parts = parts.into_inner().unwrap_or_else(|e| e.into_inner());
    parts.sort_unstable_by_key(|&(tid, _)| tid);
    parts.into_iter().flat_map(|(_, out)| out).collect()
}
