//! Native kernels: the matrix-product row kernel the VM calls for
//! `A * B`, and the temporal-mean nests the examples and tests compare
//! compiled programs against.
//!
//! The product that counts is [`matmul_rows`], the row kernel the VM runs
//! for `A * B` (the C prelude's `CMM_MATMUL` in Rust); [`matmul_naive`]
//! is its reference, and [`matmul_tiled`] and [`matmul_parallel_blocked`]
//! keep the names the benchmark's probes call, both running the row
//! kernel over row tiles. [`temporal_mean_fig3`] is the Fig 3 nest of the
//! running example (`means[i,j] = Σ_k mat[i,j,k] / p` over an
//! `m × n × p` sea-surface-height cube) and [`temporal_mean_parallel`]
//! its automatically parallelized form (§III-C).

use std::ops::Range;

use cmm_forkjoin::{map_slices, ForkJoinPool, RegionPanic, Schedule};

/// Elements the matrix-product kernels accept (`int` and `float`).
pub trait Numeric: Copy + Send + Sync + 'static {
    /// Additive identity.
    fn zero() -> Self;
    /// `acc + a * b`, the step of a matrix product, as two separately
    /// rounded operations — never a fused multiply-add — and wrapping for
    /// `int`. This is exactly what the loop-IR interpreter computes for
    /// the lowered scalar nest, so kernels built on it agree with
    /// interpreted programs bit for bit.
    fn mul_acc(acc: Self, a: Self, b: Self) -> Self;
}

impl Numeric for i32 {
    fn zero() -> Self {
        0
    }
    #[inline]
    fn mul_acc(acc: Self, a: Self, b: Self) -> Self {
        acc.wrapping_add(a.wrapping_mul(b))
    }
}

impl Numeric for f32 {
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn mul_acc(acc: Self, a: Self, b: Self) -> Self {
        acc + a * b
    }
}

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

/// Plain parallel temporal mean (no split/vectorize), the automatic
/// parallelization of §III-C used by the scaling experiment E8. Each
/// participant averages its contiguous chunk of cells ([`map_slices`]).
pub fn temporal_mean_parallel(
    pool: &ForkJoinPool,
    mat: &[f32],
    m: usize,
    n: usize,
    p: usize,
    means: &mut [f32],
) {
    assert_eq!(means.len(), m * n);
    let cells = map_slices(pool, m * n, |cell| {
        let series = &mat[cell * p..(cell + 1) * p];
        [series.iter().fold(0.0f32, |mean, &x| mean + x) / p as f32]
    });
    means.copy_from_slice(&cells);
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

/// The workspace's one matrix-product kernel, the Rust twin of the C
/// prelude's `CMM_MATMUL`: rows `rows` of `C = A·B` (`A` is `m × k` with
/// `rows.end <= m`, `B` is `k × n`, both row-major) written into `c_rows`,
/// the `rows.len() × n` slice of `C` those rows occupy. `c_rows` is
/// overwritten, not accumulated into.
///
/// Each row is zeroed, then updated as
/// `c[i,:] = (((c[i,:] + a[i,k]·b[k,:]) + a[i,k+1]·b[k+1,:]) + …)`, four
/// `k` to a pass over the row and a one-`k` tail, every step a
/// [`Numeric::mul_acc`]. Per output element the accumulation therefore
/// ascends from zero in separately rounded steps, so the result is bitwise
/// identical to [`matmul_naive`] — and to the loop-IR interpreter running
/// the lowered scalar nest — for every partition of the rows.
///
/// The body (`row_kernel`) is compiled twice: for the target's baseline
/// and with AVX2, which runs where the CPU has it (`std` detects that once
/// per process). Neither enables `fma`, and Rust never contracts a
/// multiply and an add into one, so the copies compute the same bits.
/// Both copies start on a 64-byte boundary ([`crate::pin_layout`]).
pub fn matmul_rows<T: Numeric>(
    a: &[T],
    b: &[T],
    c_rows: &mut [T],
    rows: Range<usize>,
    k: usize,
    n: usize,
) {
    crate::pin_layout();
    assert!(rows.start <= rows.end && rows.end * k <= a.len());
    assert_eq!(b.len(), k * n);
    assert_eq!(c_rows.len(), rows.len() * n);
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU has AVX2, checked just above.
        return unsafe { matmul_rows_avx2(a, b, c_rows, rows, k, n) };
    }
    row_kernel(a, b, c_rows, rows, k, n);
}

/// [`row_kernel`] built with AVX2.
///
/// # Safety
///
/// The CPU must have AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_rows_avx2<T: Numeric>(
    a: &[T],
    b: &[T],
    c_rows: &mut [T],
    rows: Range<usize>,
    k: usize,
    n: usize,
) {
    crate::pin_layout();
    row_kernel(a, b, c_rows, rows, k, n);
}

/// [`matmul_rows`]' body, inlined into each copy: its baseline copy when
/// called directly. The caller checked the operand lengths.
#[inline(always)]
pub(crate) fn row_kernel<T: Numeric>(
    a: &[T],
    b: &[T],
    c_rows: &mut [T],
    rows: Range<usize>,
    k: usize,
    n: usize,
) {
    if n == 0 {
        return;
    }
    for (i, ci) in rows.zip(c_rows.chunks_exact_mut(n)) {
        ci.fill(T::zero());
        let ai = &a[i * k..(i + 1) * k];
        let (quads, tail) = ai.split_at(k - k % 4);
        for (aq, bq) in quads.chunks_exact(4).zip(b.chunks_exact(4 * n)) {
            let (b0, bq) = bq.split_at(n);
            let (b1, bq) = bq.split_at(n);
            let (b2, b3) = bq.split_at(n);
            let [a0, a1, a2, a3] = [aq[0], aq[1], aq[2], aq[3]];
            let bs = b0.iter().zip(b1).zip(b2).zip(b3);
            for (c, (((&x0, &x1), &x2), &x3)) in ci.iter_mut().zip(bs) {
                let acc = T::mul_acc(T::mul_acc(*c, a0, x0), a1, x1);
                *c = T::mul_acc(T::mul_acc(acc, a2, x2), a3, x3);
            }
        }
        let b_tail = &b[quads.len() * n..];
        for (&aik, bk) in tail.iter().zip(b_tail.chunks_exact(n)) {
            for (c, &x) in ci.iter_mut().zip(bk) {
                *c = T::mul_acc(*c, aik, x);
            }
        }
    }
}

/// Matrix product over row tiles of `t` rows, as the VM runs a sequential
/// `A * B`. It does not block over `k` or `j`: `t` stays for the
/// benchmark's `runtime.*` probes, which time this product at the pool's
/// [`cmm_forkjoin::TilePolicy::matmul_tile`].
pub fn matmul_tiled(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, t: usize) {
    assert!(t > 0);
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    assert_eq!(c.len(), m * n);
    for i0 in (0..m).step_by(t) {
        let rows = i0..(i0 + t).min(m);
        matmul_rows(a, b, &mut c[rows.start * n..rows.end * n], rows, k, n);
    }
}

/// Parallel matrix product: `C` is cut into row tiles of `t` rows, the
/// tiles are self-scheduled over the pool under `schedule`
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
            matmul_rows(a, b, c_rows, rows, k, n);
        }
    })
}

/// Parallel matrix product in row tiles of the pool's cache-derived edge
/// ([`cmm_forkjoin::TilePolicy::matmul_tile`]), one tile per claim.
/// Bitwise identical to [`matmul_naive`] regardless of tile size, thread
/// count, or schedule (see [`matmul_rows`]).
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
