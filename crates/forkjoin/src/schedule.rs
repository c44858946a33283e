//! OpenMP-style loop self-scheduling over the enhanced fork-join pool.
//!
//! [`ForkJoinPool::run`] hands each participant a fixed `(tid, nthreads)`
//! pair and leaves partitioning to the caller, which every consumer in the
//! workspace does statically with [`crate::chunk_range`]. That is optimal
//! for uniform bodies but serializes imbalanced ones behind the slowest
//! chunk — the `imbalance_ratio` telemetry exists precisely to show this.
//!
//! [`Schedule`] selects the claim policy (static / dynamic / guided, the
//! OpenMP triple). A scheduled region seeds each participant's Chase–Lev
//! deque with that participant's static partition; owners repeatedly take
//! a schedule-sized *bite* off their chunk, pushing the stealable remainder
//! back **before** executing the bite, and participants whose deques run
//! dry steal chunks from random victims. The schedule thus decides only
//! the splitting granularity — load redistribution is the thief's job.

use std::str::FromStr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use crate::deque::{Task, VictimRng};
use crate::{
    chunk_range, current_region_tid, drain_tasks, execute_task, steal_sweep,
    ForkJoinPool, RegionExec, RegionPanic, Sweep,
};

/// Loop-scheduling policy for one parallel region (the OpenMP triple).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Schedule {
    /// One bite of up to [`crate::TilePolicy::static_grain`] iterations at
    /// a time. For loops that fit in a single grain this is exactly the
    /// classic one-chunk-per-participant partition; larger loops are
    /// split into cache-sized bites whose tails remain stealable.
    #[default]
    Static,
    /// Fixed-size bites of `chunk` iterations. Smallest bites → best
    /// balance, most splitting traffic.
    Dynamic {
        /// Iterations per bite (≥ 1).
        chunk: usize,
    },
    /// Exponentially decreasing bites: each take is
    /// `max(remaining_in_chunk / nthreads, min_chunk)`. Front-loads big
    /// cheap bites, back-fills with small ones — the usual compromise
    /// between `Static`'s low overhead and `Dynamic`'s balance.
    Guided {
        /// Lower bound on the bite size (≥ 1).
        min_chunk: usize,
    },
}

/// Default chunk size for `dynamic` when none is given (OpenMP uses 1;
/// we pick a slightly coarser default because the interpreter's
/// per-iteration cost is tiny relative to a claim).
pub const DEFAULT_DYNAMIC_CHUNK: usize = 1;

/// Default minimum chunk for `guided` when none is given.
pub const DEFAULT_GUIDED_MIN_CHUNK: usize = 1;

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Schedule::Static => write!(f, "static"),
            Schedule::Dynamic { chunk } => write!(f, "dynamic:{chunk}"),
            Schedule::Guided { min_chunk } => write!(f, "guided:{min_chunk}"),
        }
    }
}

/// Error returned by [`Schedule::from_str`] for an unrecognized spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseScheduleError(pub String);

impl std::fmt::Display for ParseScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid schedule '{}': expected static, dynamic[:N], or guided[:N] with N >= 1",
            self.0
        )
    }
}

impl std::error::Error for ParseScheduleError {}

impl FromStr for Schedule {
    type Err = ParseScheduleError;

    /// Parse `static`, `dynamic`, `dynamic:N`, `guided`, or `guided:N`
    /// (the `cmmc run --schedule=` spelling).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (kind, arg) = match s.split_once(':') {
            Some((k, a)) => (k, Some(a)),
            None => (s, None),
        };
        let parse_arg = |default: usize| -> Result<usize, ParseScheduleError> {
            match arg {
                None => Ok(default),
                Some(a) => match a.parse::<usize>() {
                    Ok(n) if n >= 1 => Ok(n),
                    _ => Err(ParseScheduleError(s.to_string())),
                },
            }
        };
        match kind {
            "static" if arg.is_none() => Ok(Schedule::Static),
            "dynamic" => Ok(Schedule::Dynamic {
                chunk: parse_arg(DEFAULT_DYNAMIC_CHUNK)?,
            }),
            "guided" => Ok(Schedule::Guided {
                min_chunk: parse_arg(DEFAULT_GUIDED_MIN_CHUNK)?,
            }),
            _ => Err(ParseScheduleError(s.to_string())),
        }
    }
}

/// Size of the bite an owner takes off the front of a chunk of `len`
/// iterations under `schedule`. `static_grain` is the pool's cache-derived
/// cap on static bites ([`crate::TilePolicy::static_grain`]): a static
/// chunk no larger than one grain executes whole (the classic partition),
/// a larger one is split so its tail stays stealable and its write set
/// stays cache-sized.
#[inline]
pub(crate) fn bite_size(
    schedule: Schedule,
    len: usize,
    nthreads: usize,
    static_grain: usize,
) -> usize {
    match schedule {
        Schedule::Static => len.min(static_grain.max(1)),
        Schedule::Dynamic { chunk } => chunk.max(1).min(len),
        Schedule::Guided { min_chunk } => {
            (len / nthreads.max(1)).max(min_chunk.max(1)).min(len)
        }
    }
}

/// State of one active deque-scheduled region, type-erased into
/// `Shared::region_exec` so any participant holding a `Task::Chunk` —
/// the drain loop, a nested help-join, a scavenger — can execute it.
struct ScheduledRegion<'a, F> {
    pool: &'a ForkJoinPool,
    nthreads: usize,
    schedule: Schedule,
    grain: usize,
    metered: bool,
    f: &'a F,
}

impl<F> ScheduledRegion<'_, F>
where
    F: Fn(usize, std::ops::Range<usize>) + Sync,
{
    /// Execute one deque chunk as participant `tid`: bite off the front,
    /// push the remainder back *first* (so it is stealable while the bite
    /// runs), then run the bite. Panics in the body are caught here —
    /// recorded on the region, never unwound into a deque drain loop — so
    /// deques always drain completely even for a panicking region.
    fn execute_chunk(&self, tid: usize, start: usize, end: usize) {
        let len = end - start;
        let bite = bite_size(self.schedule, len, self.nthreads, self.grain);
        if bite < len {
            self.pool.shared.deques[tid].push(Task::Chunk { start: start + bite, end });
        }
        if self.metered {
            self.pool.record_chunk(tid);
        }
        let body = || (self.f)(tid, start..start + bite);
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).is_err() {
            self.pool.shared.panicked.store(true, Ordering::Release);
            self.pool.shared.panics_recovered.fetch_add(1, Ordering::Relaxed);
        }
    }

    unsafe fn run_erased(data: *const (), tid: usize, start: usize, end: usize) {
        let region = unsafe { &*data.cast::<Self>() };
        region.execute_chunk(tid, start, end);
    }
}

impl ForkJoinPool {
    /// Execute `0..total` as one self-scheduled parallel region: the
    /// iteration space is partitioned across the participants' deques,
    /// each participant takes schedule-sized bites off its own chunk and
    /// calls `f(tid, range)` on them, and finished participants steal
    /// from the others until the space is drained.
    ///
    /// The whole existing protocol applies: a pool of one (or a foreign
    /// thread hitting a busy pool) drains the space on the calling thread
    /// with the same bite structure, worker panics are re-raised after
    /// the region, and the stop-barrier watchdog covers a participant
    /// stuck inside a bite. A *nested* call from a participant of the
    /// active region runs in parallel through that participant's deque
    /// (see [`ForkJoinPool::nested_batch`]).
    ///
    /// When region telemetry is enabled ([`Self::set_metrics_enabled`]),
    /// each executed bite bumps the region's `chunks_issued` and the
    /// executor's `chunks_taken[tid]`; steals are counted always (see
    /// [`crate::PoolMetrics`]).
    pub fn run_scheduled<F>(&self, total: usize, schedule: Schedule, f: F)
    where
        F: Fn(usize, std::ops::Range<usize>) + Sync,
    {
        if let Err(e) = self.try_run_scheduled(total, schedule, f) {
            panic!("a fork-join worker panicked during a parallel region ({e})");
        }
    }

    /// [`ForkJoinPool::run_scheduled`] that reports worker panics as a
    /// typed [`crate::RegionPanic`] instead of re-raising.
    ///
    /// A panic inside one bite is caught where it ran; the region keeps
    /// draining (work stealing redistributes the dead participant's
    /// remaining chunks), and the caller gets `Err` once the whole region
    /// has completed.
    pub fn try_run_scheduled<F>(
        &self,
        total: usize,
        schedule: Schedule,
        f: F,
    ) -> Result<(), RegionPanic>
    where
        F: Fn(usize, std::ops::Range<usize>) + Sync,
    {
        if total == 0 {
            return Ok(());
        }
        let n = self.threads();
        let grain = self.tile_policy().static_grain;
        if n > 1 {
            if let Some(tid) = current_region_tid(&self.shared) {
                // Nested scheduled region from a participant: run it as a
                // stealable job batch on this participant's deque.
                self.regions.fetch_add(1, Ordering::Relaxed);
                self.nested_parallel.fetch_add(1, Ordering::Relaxed);
                let metered = self.metrics_enabled();
                let region_start = if metered { Some(Instant::now()) } else { None };
                let result = self.nested_batch(tid, n, total, schedule, &f, metered);
                self.finish_nested_metrics(region_start);
                return result;
            }
        }
        self.regions.fetch_add(1, Ordering::Relaxed);
        let metered = self.metrics_enabled();
        let region_start = if metered { Some(Instant::now()) } else { None };
        if n == 1 {
            self.run_bites_sequential(total, schedule, 1, metered, &f, grain);
            self.finish_region_metrics(region_start, true);
            return Ok(());
        }
        if !self.acquire_busy() {
            // Foreign thread racing an active region: same sequential
            // fallback the plain `run` path takes.
            self.nested_sequential.fetch_add(1, Ordering::Relaxed);
            self.run_bites_sequential(total, schedule, n, metered, &f, grain);
            self.finish_region_metrics(region_start, true);
            return Ok(());
        }
        // We own the pool and every worker is parked, so the main thread
        // owns all deques: seed one chunk per participant from the static
        // partition. Owners bite off schedule-sized pieces, pushing each
        // stealable tail back before running the bite.
        for tid in 0..n {
            let r = chunk_range(total, n, tid);
            if !r.is_empty() {
                self.shared.deques[tid].push(Task::Chunk { start: r.start, end: r.end });
            }
        }
        let region = ScheduledRegion {
            pool: self,
            nthreads: n,
            schedule,
            grain,
            metered,
            f: &f,
        };
        // Publish the chunk executor before the epoch flip (inside
        // `run_region_locked`) releases the workers; the flip's Release
        // ordering makes it visible to their Acquire epoch loads.
        unsafe {
            *self.shared.region_exec.get() = Some(RegionExec {
                data: std::ptr::from_ref(&region).cast::<()>(),
                run: ScheduledRegion::<F>::run_erased,
            });
        }
        self.run_region_locked(
            |tid, nthreads| drain_tasks(&self.shared, tid, nthreads),
            n,
            metered,
            region_start,
        )
    }

    /// Sequential fallback with the same bite structure (and therefore the
    /// same telemetry shape) as the parallel path: each virtual tid's
    /// partition is drained in schedule-sized bites on the calling thread.
    fn run_bites_sequential<F>(
        &self,
        total: usize,
        schedule: Schedule,
        nthreads: usize,
        metered: bool,
        f: &F,
        grain: usize,
    ) where
        F: Fn(usize, std::ops::Range<usize>) + Sync,
    {
        for tid in 0..nthreads {
            let r = chunk_range(total, nthreads, tid);
            let mut start = r.start;
            while start < r.end {
                let bite = bite_size(schedule, r.end - start, nthreads, grain);
                if metered {
                    self.record_chunk(tid);
                }
                f(tid, start..start + bite);
                start += bite;
            }
        }
    }

    /// Run `0..total` as a batch of stealable jobs submitted from inside
    /// an active region by participant `tid` — the nested-parallelism
    /// path for both nested scheduled loops and cilk `spawn`/`sync`.
    ///
    /// The batch is pushed onto the submitter's own deque, where region
    /// peers scavenge it; the submitter *help-joins*: it pops its own
    /// deque (jobs first — they sit above any outer-region chunk tail),
    /// steals from peers when empty, and spins down only when the batch's
    /// completion latch reaches zero. Every job runs under its own
    /// `catch_unwind` and decrements the latch as its very last access,
    /// so the job structs (on this stack frame) never dangle and a stuck
    /// thief is the only way to wait here — which the stop-barrier
    /// watchdog then attributes to that thief's tid.
    pub(crate) fn nested_batch<F>(
        &self,
        tid: usize,
        nthreads: usize,
        total: usize,
        schedule: Schedule,
        f: &F,
        count_chunks: bool,
    ) -> Result<(), RegionPanic>
    where
        F: Fn(usize, std::ops::Range<usize>) + Sync,
    {
        if total == 0 {
            return Ok(());
        }
        struct NestedJob<'a, F> {
            f: &'a F,
            start: usize,
            end: usize,
            latch: &'a AtomicUsize,
            panics: &'a AtomicU64,
            pool: &'a ForkJoinPool,
            count_chunks: bool,
        }
        unsafe fn exec_job<F>(data: *const (), etid: usize)
        where
            F: Fn(usize, std::ops::Range<usize>) + Sync,
        {
            let job = unsafe { &*data.cast::<NestedJob<'_, F>>() };
            if job.count_chunks {
                job.pool.record_chunk(etid);
            }
            let body = || (job.f)(etid, job.start..job.end);
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).is_err() {
                job.panics.fetch_add(1, Ordering::Relaxed);
                job.pool.shared.panics_recovered.fetch_add(1, Ordering::Relaxed);
            }
            // Release-decrement is the last access to the job struct: it
            // pairs with the submitter's Acquire latch load, after which
            // the submitter may pop the batch off its stack.
            job.latch.fetch_sub(1, Ordering::Release);
        }

        let shared = &self.shared;
        // Bound the batch to a few jobs per participant; the schedule's
        // chunk size acts as a floor so `dynamic:64` never produces jobs
        // finer than its outer-loop granularity.
        let max_jobs = 4 * nthreads.max(1);
        let sched_min = match schedule {
            Schedule::Static => total.div_ceil(nthreads.max(1)),
            Schedule::Dynamic { chunk } => chunk,
            Schedule::Guided { min_chunk } => min_chunk,
        };
        let per_job = sched_min.max(1).max(total.div_ceil(max_jobs));
        let count = total.div_ceil(per_job);
        let latch = AtomicUsize::new(count);
        let panics = AtomicU64::new(0);
        let jobs: Vec<NestedJob<'_, F>> = (0..count)
            .map(|k| NestedJob {
                f,
                start: k * per_job,
                end: ((k + 1) * per_job).min(total),
                latch: &latch,
                panics: &panics,
                pool: self,
                count_chunks,
            })
            .collect();
        let own = &shared.deques[tid];
        // Reverse push so the submitter's LIFO pops walk the space in
        // ascending order while thieves take the tail.
        for job in jobs.iter().rev() {
            own.push(Task::Job {
                data: std::ptr::from_ref(job).cast::<()>(),
                exec: exec_job::<F>,
            });
        }
        let mut rng = VictimRng::new(tid.wrapping_add(nthreads));
        while latch.load(Ordering::Acquire) != 0 {
            if let Some(task) = own.pop() {
                // Usually one of our jobs; may also be an outer-region
                // chunk tail that was beneath the batch — executing it
                // while we wait is productive either way.
                execute_task(shared, tid, task);
                continue;
            }
            match steal_sweep(shared, tid, nthreads, &mut rng) {
                Sweep::Task(task) => execute_task(shared, tid, task),
                // The jobs left are running on thieves, who release the
                // latch within the region: keep sweeping for work meanwhile.
                Sweep::Contended | Sweep::Empty => std::hint::spin_loop(),
            }
        }
        let p = panics.load(Ordering::Relaxed);
        if p > 0 {
            return Err(RegionPanic {
                workers: p,
                epoch: shared.epoch.load(Ordering::Relaxed),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn parse_specs() {
        assert_eq!("static".parse::<Schedule>(), Ok(Schedule::Static));
        assert_eq!(
            "dynamic".parse::<Schedule>(),
            Ok(Schedule::Dynamic { chunk: DEFAULT_DYNAMIC_CHUNK })
        );
        assert_eq!(
            "dynamic:16".parse::<Schedule>(),
            Ok(Schedule::Dynamic { chunk: 16 })
        );
        assert_eq!(
            "guided:4".parse::<Schedule>(),
            Ok(Schedule::Guided { min_chunk: 4 })
        );
        assert!("static:2".parse::<Schedule>().is_err());
        assert!("dynamic:0".parse::<Schedule>().is_err());
        assert!("fair".parse::<Schedule>().is_err());
        assert!("dynamic:x".parse::<Schedule>().is_err());
    }

    #[test]
    fn run_scheduled_visits_every_index_once() {
        for (threads, total) in [(4usize, 257usize), (3, 193)] {
            let pool = ForkJoinPool::new(threads);
            pool.set_metrics_enabled(true);
            for schedule in [
                Schedule::Static,
                Schedule::Dynamic { chunk: 3 },
                Schedule::Dynamic { chunk: 4 },
                Schedule::Guided { min_chunk: 1 },
                Schedule::Guided { min_chunk: 2 },
            ] {
                pool.reset_metrics();
                let hit: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
                let chunks = AtomicUsize::new(0);
                pool.run_scheduled(total, schedule, |_tid, range| {
                    assert!(!range.is_empty(), "{schedule} issued an empty chunk");
                    chunks.fetch_add(1, Ordering::Relaxed);
                    for i in range {
                        hit[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
                for (i, h) in hit.iter().enumerate() {
                    assert_eq!(h.load(Ordering::Relaxed), 1, "{schedule} index {i}");
                }
                // Telemetry counts exactly the bites the body saw.
                let m = pool.metrics();
                assert_eq!(m.chunks_issued, chunks.into_inner() as u64, "{schedule}");
                assert_eq!(m.chunks_taken.iter().sum::<u64>(), m.chunks_issued, "{schedule}");
            }
        }
    }

    #[test]
    fn run_scheduled_zero_total_is_noop() {
        let pool = ForkJoinPool::new(2);
        pool.run_scheduled(0, Schedule::Dynamic { chunk: 1 }, |_, _| {
            panic!("body must not run for an empty space")
        });
    }

    #[test]
    fn run_scheduled_nested_runs_in_parallel() {
        // A nested scheduled region from a participant goes through the
        // deque batch path — counted as nested_parallel, never as the
        // sequential fallback.
        let pool = ForkJoinPool::new(4);
        let seen = Mutex::new(HashSet::new());
        pool.run(|tid, _| {
            if tid == 0 {
                pool.run_scheduled(10, Schedule::Dynamic { chunk: 2 }, |_, r| {
                    let mut s = seen.lock().unwrap();
                    for i in r {
                        assert!(s.insert(i));
                    }
                });
            }
        });
        assert_eq!(seen.into_inner().unwrap().len(), 10);
        assert_eq!(pool.nested_sequential_runs(), 0);
        assert!(pool.nested_parallel_runs() >= 1);
    }

    #[test]
    fn deeply_nested_scheduled_regions_complete() {
        let pool = ForkJoinPool::new(4);
        let count = AtomicUsize::new(0);
        pool.run_scheduled(8, Schedule::Dynamic { chunk: 1 }, |_, outer| {
            for _ in outer {
                pool.run_scheduled(8, Schedule::Dynamic { chunk: 1 }, |_, inner| {
                    count.fetch_add(inner.len(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(count.into_inner(), 64);
        assert_eq!(pool.nested_sequential_runs(), 0);
    }

    #[test]
    fn run_scheduled_records_chunk_metrics() {
        let pool = ForkJoinPool::new(2);
        pool.set_metrics_enabled(true);
        pool.run_scheduled(16, Schedule::Dynamic { chunk: 4 }, |_, _| {});
        let m = pool.metrics();
        assert_eq!(m.chunks_issued, 4);
        assert_eq!(m.chunks_taken.iter().sum::<u64>(), 4);
        assert_eq!(m.chunks_taken.len(), 2);
        assert_eq!(m.steals.len(), 2);
        assert_eq!(m.steal_failures.len(), 2);
    }
}
