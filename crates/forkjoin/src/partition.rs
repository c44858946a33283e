//! Work partitioning helpers shared by every parallel construct.

use std::ops::Range;

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

