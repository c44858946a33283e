//! Native mirror kernels of the loop nests the translator generates.
//!
//! The loop-IR interpreter (crate `cmm-loopir`) executes transformed
//! programs faithfully but pays interpretation overhead, which would drown
//! the cache and SIMD effects the §V transformations exist to exploit.
//! These kernels are hand-written Rust renderings of the *exact* loop
//! structures of Figs 3, 10 and 11 (and the tiled variant described in
//! §V), compiled natively, so the ablation benchmarks (experiments E7,
//! E11, E14) measure the structural effect of each transformation the way
//! the paper's generated C would.
//!
//! All kernels compute the running example: the temporal mean of an
//! `m × n × p` sea-surface-height cube (`means[i,j] = Σ_k mat[i,j,k] / p`),
//! or a dense matrix product for the tiling sweep.

use std::ops::Range;

use cmm_forkjoin::{chunk_range, ForkJoinPool, RegionPanic, Schedule};

use crate::element::Numeric;

/// Fig 3 — the loop nest produced by the untransformed with-loops: two
/// outer loops and an inner accumulation, writing `means` directly (the
/// with-loop/assignment fusion already applied).
pub fn temporal_mean_fig3(mat: &[f32], m: usize, n: usize, p: usize, means: &mut [f32]) {
    assert_eq!(mat.len(), m * n * p);
    assert_eq!(means.len(), m * n);
    for i in 0..m {
        for j in 0..n {
            let mut mean = 0.0f32;
            let base = (i * n + j) * p;
            for k in 0..p {
                mean += mat[base + k];
            }
            means[i * n + j] = mean / p as f32;
        }
    }
}

/// The "library implementation" the paper contrasts against (§III-A4):
/// the with-loop result is evaluated into a temporary which is then copied
/// into `means`, and each fold first materializes the slice `mat[i,j,:]`
/// as its own allocation. Both extra costs are what the extension's
/// high-level optimizations remove.
pub fn temporal_mean_library(mat: &[f32], m: usize, n: usize, p: usize, means: &mut [f32]) {
    assert_eq!(mat.len(), m * n * p);
    assert_eq!(means.len(), m * n);
    let mut temp = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            // Materialized slice copy (the removed matrix indexing).
            let base = (i * n + j) * p;
            let slice: Vec<f32> = mat[base..base + p].to_vec();
            let mut mean = 0.0f32;
            for &v in &slice {
                mean += v;
            }
            temp[i * n + j] = mean / p as f32;
        }
    }
    // Extraneous copy from the temporary into the assignment target.
    means.copy_from_slice(&temp);
}

/// Fig 10 — after `split j by 4, jin, jout`: the `j` loop becomes
/// `jout`/`jin` with `j = jout * 4 + jin`. (As in the paper, `n` is
/// assumed to be a multiple of 4.)
pub fn temporal_mean_fig10(mat: &[f32], m: usize, n: usize, p: usize, means: &mut [f32]) {
    assert_eq!(n % 4, 0, "Fig 10 assumes n is a multiple of 4");
    for i in 0..m {
        for jout in 0..n / 4 {
            for jin in 0..4 {
                let j = jout * 4 + jin;
                let mut mean = 0.0f32;
                let base = (i * n + j) * p;
                for k in 0..p {
                    mean += mat[base + k];
                }
                means[i * n + j] = mean / p as f32;
            }
        }
    }
}

/// Fig 11 — after `vectorize jin` (+ the parallel outer loop handled by
/// [`temporal_mean_fig11_parallel`]): the four `jin` lanes are processed
/// as one 4-wide vector. Rust arrays of 4 floats compile to SSE on
/// x86-64, mirroring the `_mm_*` code of Fig 11.
pub fn temporal_mean_fig11(mat: &[f32], m: usize, n: usize, p: usize, means: &mut [f32]) {
    assert_eq!(n % 4, 0, "Fig 11 assumes n is a multiple of 4");
    for i in 0..m {
        for jout in 0..n / 4 {
            let j0 = jout * 4;
            let mut acc = [0.0f32; 4];
            let bases = [
                (i * n + j0) * p,
                (i * n + j0 + 1) * p,
                (i * n + j0 + 2) * p,
                (i * n + j0 + 3) * p,
            ];
            for k in 0..p {
                // One 4-lane vector add per k, as the SSE body does.
                for lane in 0..4 {
                    acc[lane] += mat[bases[lane] + k];
                }
            }
            let inv = 1.0 / p as f32;
            for lane in 0..4 {
                means[i * n + j0 + lane] = acc[lane] * inv;
            }
        }
    }
}

/// Fig 11 with the `parallelize i` transformation: the outer loop is
/// distributed over the fork-join pool (the generated C uses
/// `#pragma omp parallel for`).
pub fn temporal_mean_fig11_parallel(
    pool: &ForkJoinPool,
    mat: &[f32],
    m: usize,
    n: usize,
    p: usize,
    means: &mut [f32],
) {
    assert_eq!(n % 4, 0);
    assert_eq!(means.len(), m * n);
    let means_ptr = SendPtr(means.as_mut_ptr());
    pool.run(|tid, nthreads| {
        let rows = chunk_range(m, nthreads, tid);
        for i in rows {
            for jout in 0..n / 4 {
                let j0 = jout * 4;
                let mut acc = [0.0f32; 4];
                for k in 0..p {
                    for (lane, a) in acc.iter_mut().enumerate() {
                        *a += mat[(i * n + j0 + lane) * p + k];
                    }
                }
                let inv = 1.0 / p as f32;
                for (lane, &a) in acc.iter().enumerate() {
                    // Safety: rows are partitioned disjointly across tids.
                    unsafe {
                        *means_ptr.get().add(i * n + j0 + lane) = a * inv;
                    }
                }
            }
        }
    });
}

/// Plain parallel temporal mean (no split/vectorize), the automatic
/// parallelization of §III-C used by the scaling experiment E8.
pub fn temporal_mean_parallel(
    pool: &ForkJoinPool,
    mat: &[f32],
    m: usize,
    n: usize,
    p: usize,
    means: &mut [f32],
) {
    assert_eq!(means.len(), m * n);
    let means_ptr = SendPtr(means.as_mut_ptr());
    pool.run(|tid, nthreads| {
        for cell in chunk_range(m * n, nthreads, tid) {
            let base = cell * p;
            let mut mean = 0.0f32;
            for k in 0..p {
                mean += mat[base + k];
            }
            // Safety: cells are partitioned disjointly across tids.
            unsafe { *means_ptr.get().add(cell) = mean / p as f32 };
        }
    });
}

/// Naive triple-loop matrix product (`C = A·B`, row-major), the untiled
/// baseline of the §V tiling discussion.
pub fn matmul_naive(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    assert_eq!(c.len(), m * n);
    c.fill(0.0);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[i * k + kk] * b[kk * n + j];
            }
            c[i * n + j] = acc;
        }
    }
}

/// The workspace's one blocked matrix-product nest: rows `rows` of
/// `C = A·B` (`A` is `m × k` with `rows.end <= m`, `B` is `k × n`, both
/// row-major) written into `c_rows`, the `rows.len() × n` slice of `C`
/// those rows occupy. `c_rows` is overwritten, not accumulated into.
///
/// The nest is i0/k0/j0-blocked with square tiles of edge `t` so an A
/// panel, a B panel and a C block stay cache-resident together. Per
/// output element the k accumulation still ascends from zero (k0 blocks
/// ascend, the inner `kk` ascends) in [`Numeric::mul_acc`] steps, so the
/// result is bitwise identical to [`matmul_naive`] — and to the loop-IR
/// interpreter running the lowered scalar nest — for every tile edge and
/// every partition of the rows.
pub fn matmul_rows<T: Numeric>(
    a: &[T],
    b: &[T],
    c_rows: &mut [T],
    rows: Range<usize>,
    k: usize,
    n: usize,
    t: usize,
) {
    assert!(t > 0);
    assert!(rows.start <= rows.end && rows.end * k <= a.len());
    assert_eq!(b.len(), k * n);
    assert_eq!(c_rows.len(), rows.len() * n);
    c_rows.fill(T::zero());
    for i0 in rows.clone().step_by(t) {
        let imax = (i0 + t).min(rows.end);
        for k0 in (0..k).step_by(t) {
            let kmax = (k0 + t).min(k);
            for j0 in (0..n).step_by(t) {
                let jmax = (j0 + t).min(n);
                for i in i0..imax {
                    let c0 = (i - rows.start) * n;
                    let crow = &mut c_rows[c0 + j0..c0 + jmax];
                    for kk in k0..kmax {
                        let aik = a[i * k + kk];
                        let brow = &b[kk * n + j0..kk * n + jmax];
                        for (c, &bv) in crow.iter_mut().zip(brow) {
                            *c = T::mul_acc(*c, aik, bv);
                        }
                    }
                }
            }
        }
    }
}

/// Tiled matrix product: the §V "tile two nested loops = two splits plus a
/// reorder" transformation applied with square tiles of size `t`.
pub fn matmul_tiled(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, t: usize) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    assert_eq!(c.len(), m * n);
    matmul_rows(a, b, c, 0..m, k, n, t);
}

/// Parallel (unblocked) matrix product: rows distributed over the pool.
pub fn matmul_parallel(
    pool: &ForkJoinPool,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    assert_eq!(c.len(), m * n);
    c.fill(0.0);
    let c_ptr = SendPtr(c.as_mut_ptr());
    pool.run(|tid, nthreads| {
        for i in chunk_range(m, nthreads, tid) {
            for kk in 0..k {
                let aik = a[i * k + kk];
                for j in 0..n {
                    // Safety: row i belongs to exactly one tid, and
                    // `i * n + j < m * n == c.len()` (asserted above).
                    unsafe {
                        *c_ptr.get().add(i * n + j) += aik * b[kk * n + j];
                    }
                }
            }
        }
    });
}

/// Cache-blocked parallel matrix product: `C` is cut into row tiles of
/// `t` rows, the tiles are self-scheduled over the pool under `schedule`
/// (stolen when a participant runs dry), and each admitted tile is one
/// [`matmul_rows`] call — no scratch or packing buffers. `admit` is asked
/// once per tile, on the participant about to compute it, with the
/// tile's row range; a tile it refuses is left untouched (the loop-IR VM
/// meters fuel and the deadline there and refuses the rest of a product
/// once a budget is spent). Worker panics are reported, not re-raised.
#[allow(clippy::too_many_arguments)]
pub fn try_matmul_tiles<T: Numeric>(
    pool: &ForkJoinPool,
    schedule: Schedule,
    a: &[T],
    b: &[T],
    c: &mut [T],
    (m, k, n): (usize, usize, usize),
    t: usize,
    admit: impl Fn(Range<usize>) -> bool + Sync,
) -> Result<(), RegionPanic> {
    assert!(t > 0);
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    assert_eq!(c.len(), m * n);
    let c_ptr = SendPtr(c.as_mut_ptr());
    pool.try_run_scheduled(m.div_ceil(t), schedule, |_tid, tiles| {
        for tile in tiles {
            let rows = tile * t..((tile + 1) * t).min(m);
            if !admit(rows.clone()) {
                continue;
            }
            // Safety: the region hands each tile index to exactly one
            // participant, tiles cover disjoint row ranges, and
            // `rows.end <= m` keeps the slice inside `c` (length `m * n`,
            // asserted above), so this is the only live reference to
            // these rows of `c`.
            let c_rows = unsafe {
                std::slice::from_raw_parts_mut(c_ptr.get().add(rows.start * n), rows.len() * n)
            };
            matmul_rows(a, b, c_rows, rows, k, n, t);
        }
    })
}

/// Cache-blocked parallel matrix product with the pool's cache-derived
/// tile edge ([`cmm_forkjoin::TilePolicy::matmul_tile`]), one tile per
/// claim. Bitwise identical to [`matmul_naive`] and [`matmul_parallel`]
/// regardless of tile size, thread count, or schedule (see
/// [`matmul_rows`]).
pub fn matmul_parallel_blocked(
    pool: &ForkJoinPool,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let t = pool.tile_policy().matmul_tile(std::mem::size_of::<f32>());
    let schedule = Schedule::Dynamic { chunk: 1 };
    if let Err(e) = try_matmul_tiles(pool, schedule, a, b, c, (m, k, n), t, |_| true) {
        panic!("a fork-join worker panicked during a parallel region ({e})");
    }
}

/// Raw pointer wrapper so disjoint-row writers can cross the closure
/// boundary; safety rests on the row partitioning at each use site. The
/// accessor (rather than a public field) keeps edition-2021 disjoint
/// closure capture from capturing the bare pointer.
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    #[inline]
    fn get(&self) -> *mut T {
        self.0
    }
}
