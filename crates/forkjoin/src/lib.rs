//! SAC-style *enhanced fork-join* execution substrate (paper §III-C).
//!
//! A naive translation of parallel matrix constructs spawns and joins
//! threads at every parallel region, paying thread-management overhead each
//! time. The paper instead adopts the enhanced fork-join model from SAC:
//! the necessary number of threads is spawned once at program start and
//! parked in a spin lock; when the main thread encounters a parallel
//! construct it "flips the condition that keeps the threads spinning,
//! which releases all of them at once"; each worker then passes through a
//! stop barrier and returns to the spin lock, while the main thread waits
//! in the stop barrier for all workers.
//!
//! [`ForkJoinPool`] implements exactly that protocol (the condition flip is
//! an epoch counter, the stop barrier an atomic countdown), and
//! [`naive_run`] implements the spawn-per-region baseline. Experiment E9
//! benchmarks one against the other; everything else in the workspace
//! (the loop-IR interpreter's parallel loops and kernel ops, the native
//! `matrixMap`) runs on [`ForkJoinPool`].
//!
//! ## Work distribution
//!
//! Inside a region, work moves through per-participant Chase–Lev deques
//! ([`deque`]): scheduled loops seed one chunk per participant, owners
//! take schedule-sized bites off their own chunk (pushing the stealable
//! tail back), and a participant whose deque runs dry steals from a
//! random victim. Nested regions — cilk `spawn`/`sync` from inside a
//! parallel loop, or a scheduled loop inside a scheduled loop — push job
//! batches onto the *current worker's* deque and help-join, so they run
//! in parallel instead of serializing.
//!
//! ## Fault tolerance
//!
//! The pool is built to *degrade* rather than die:
//!
//! * a failed `thread::Builder::spawn` shrinks the pool instead of
//!   panicking (the program runs with less parallelism and a warning);
//! * a panicking worker body is caught, counted, and re-raised on the main
//!   thread after the region completes — the pool itself stays usable for
//!   subsequent regions;
//! * the stop-barrier wait carries a **watchdog**: if workers fail to
//!   reach the barrier within a configurable deadline, the pool reports a
//!   diagnosable [`RegionStall`] (region id, epoch, stalled worker tids)
//!   instead of spinning forever in silence. The default action logs the
//!   stall once and keeps waiting with a sleeping backoff (the only sound
//!   options while a worker may still hold the region closure are to wait
//!   or abort; [`StallAction::Abort`] selects the latter).
//!
//! [`ForkJoinPool::health`] exposes all of this as a [`PoolHealth`]
//! snapshot, and a [`faultinject::FaultPlan`] given to
//! [`ForkJoinPool::with_fault_plan`] provokes each failure mode in that
//! one pool, deterministically, for the stress tests.

use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub(crate) mod deque;
pub mod faultinject;
pub mod makespan;
mod partition;
pub mod schedule;
pub mod tile;
pub use deque::CachePadded;
pub use makespan::{deque_makespan, Makespan};
pub use partition::chunk_range;
pub use schedule::{ParseScheduleError, Schedule};
pub use tile::{cache_geometry, CacheGeometry, TilePolicy, DEFAULT_GEOMETRY};

use deque::{Steal, Task, VictimRng, WorkDeque};
use faultinject::{FaultPlan, Faults};

/// Type-erased reference to the closure of the current parallel region.
/// Stored as a raw wide pointer; the epoch protocol orders the store before
/// any worker dereference, and the stop barrier orders every dereference
/// before `run` returns (so the borrow never escapes the region).
type TaskPtr = *const (dyn Fn(usize, usize) + Sync);

/// Type-erased executor for `Task::Chunk` deque entries: points at the
/// active scheduled region's state (`data`) and its monomorphized
/// chunk-runner. Installed before the epoch flip of a scheduled region
/// and read by whichever participant ends up holding a chunk — the
/// region's own drain loop, a nested help-join loop, or a scavenging
/// participant. A stale descriptor after a region is harmless: chunk
/// tasks cannot outlive their region (the deques drain before the stop
/// barrier), so a stale pointer is never dereferenced.
#[derive(Clone, Copy)]
pub(crate) struct RegionExec {
    pub data: *const (),
    pub run: unsafe fn(*const (), usize, usize, usize),
}

pub(crate) struct Shared {
    /// The spin-lock "condition": workers spin until it changes.
    pub epoch: AtomicU64,
    /// Stop barrier: number of workers still executing the current region.
    remaining: AtomicUsize,
    /// Current region's closure; valid only between the epoch flip and the
    /// stop barrier reaching zero.
    task: UnsafeCell<Option<TaskPtr>>,
    shutdown: AtomicBool,
    /// Set when any participant panicked during the current region.
    pub panicked: AtomicBool,
    /// Cumulative count of worker panics caught and recovered.
    pub panics_recovered: AtomicU64,
    /// Total threads participating in a region (workers + main). Atomic
    /// because a failed spawn shrinks the pool after workers may already
    /// be parked.
    threads: AtomicUsize,
    /// Per-worker progress: epoch of the last region worker `tid` passed
    /// through the stop barrier for (index `tid - 1`). Read by the
    /// watchdog to name the stalled workers. Cache-padded so one worker's
    /// progress store never invalidates a neighbor's line.
    done_epoch: Vec<CachePadded<AtomicU64>>,
    /// Region telemetry switch. Off by default: the hot path takes no
    /// timestamps unless a profiler asked for them.
    metrics_enabled: AtomicBool,
    /// Per-participant busy time in nanoseconds (index 0 = main thread,
    /// `tid` = worker `tid`), accumulated only while metrics are enabled.
    /// Cache-padded: these are written on every region by every
    /// participant, and packing them into shared lines was measurable
    /// false sharing.
    busy_nanos: Vec<CachePadded<AtomicU64>>,
    /// Per-participant chunk claims made through the self-scheduler
    /// ([`ForkJoinPool::run_scheduled`]), accumulated only while metrics
    /// are enabled. Same indexing and padding rationale as `busy_nanos`.
    chunks_taken: Vec<CachePadded<AtomicU64>>,
    /// Per-participant work-stealing deques (index = tid). Owned by
    /// participant `tid` during a region; owned by the main thread (for
    /// seeding) between regions.
    pub deques: Vec<WorkDeque>,
    /// Per-participant successful steals. Always recorded (a steal is
    /// already a slow path), zeroed by [`ForkJoinPool::reset_metrics`].
    steals: Vec<CachePadded<AtomicU64>>,
    /// Per-participant failed steal attempts (lost CAS races).
    steal_failures: Vec<CachePadded<AtomicU64>>,
    /// Chunk-execution descriptor of the active scheduled region; see
    /// [`RegionExec`]. Written only by the region submitter while it
    /// holds the `busy` flag, before the epoch flip publishes it.
    pub region_exec: UnsafeCell<Option<RegionExec>>,
    /// Injected faults ([`ForkJoinPool::with_fault_plan`]); fixed at
    /// construction, so the probes read it without a lock.
    faults: Option<Faults>,
}

// Safety: `task` and `region_exec` are only written by the region
// submitter while all workers are parked (remaining == 0 and epoch
// unchanged), and only read by participants after the Release/Acquire
// epoch handshake. The raw pointers they hold refer to `Sync` state kept
// alive by the stop barrier, so sharing the cells across threads under
// that protocol is sound.
unsafe impl Sync for Shared {}
unsafe impl Send for Shared {}

thread_local! {
    /// Identity of the pool region this thread is currently executing:
    /// `(Shared address, tid)`. Lets a nested `run`/`run_scheduled` on
    /// the *same* pool detect that it is a participant and push jobs onto
    /// its own deque instead of serializing.
    static WORKER_CTX: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// The tid under which the current thread participates in an active
/// region of `shared`'s pool, if any.
pub(crate) fn current_region_tid(shared: &Shared) -> Option<usize> {
    let key = std::ptr::from_ref(shared) as usize;
    WORKER_CTX.with(|c| match c.get() {
        Some((p, tid)) if p == key => Some(tid),
        _ => None,
    })
}

/// Installs the worker context for the duration of a region body,
/// restoring the previous value (panic-safe) on drop.
pub(crate) struct CtxGuard {
    prev: Option<(usize, usize)>,
}

impl CtxGuard {
    pub fn install(shared: &Shared, tid: usize) -> Self {
        let key = std::ptr::from_ref(shared) as usize;
        CtxGuard { prev: WORKER_CTX.with(|c| c.replace(Some((key, tid)))) }
    }
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        WORKER_CTX.with(|c| c.set(prev));
    }
}

/// Execute one deque task as participant `tid`: chunks go through the
/// active scheduled region's descriptor, jobs through their own erased
/// entry point. Neither unwinds: both executors catch panics internally
/// and record them on the region/batch they belong to.
pub(crate) fn execute_task(shared: &Shared, tid: usize, task: Task) {
    match task {
        Task::Chunk { start, end } => {
            let exec = unsafe { *shared.region_exec.get() }
                .expect("chunk task outside a scheduled region");
            unsafe { (exec.run)(exec.data, tid, start, end) };
        }
        Task::Job { data, exec } => unsafe { exec(data, tid) },
    }
}

/// One pass over all victims' deques in random rotation.
pub(crate) enum Sweep {
    /// Stole a task.
    Task(Task),
    /// Every deque looked empty but at least one steal lost a race — work
    /// may remain, sweep again.
    Contended,
    /// Every victim's deque was observed empty with no races.
    Empty,
}

pub(crate) fn steal_sweep(
    shared: &Shared,
    tid: usize,
    nthreads: usize,
    rng: &mut VictimRng,
) -> Sweep {
    let offset = rng.next() as usize;
    let mut contended = false;
    for k in 0..nthreads {
        let victim = (offset + k) % nthreads;
        if victim == tid {
            continue;
        }
        match shared.deques[victim].steal() {
            Steal::Success(task) => {
                shared.steals[tid].fetch_add(1, Ordering::Relaxed);
                return Sweep::Task(task);
            }
            Steal::Retry => {
                contended = true;
                shared.steal_failures[tid].fetch_add(1, Ordering::Relaxed);
            }
            Steal::Empty => {}
        }
    }
    if contended {
        Sweep::Contended
    } else {
        Sweep::Empty
    }
}

/// Drain own deque LIFO, then steal FIFO from random victims, until a
/// full sweep finds every deque empty. Because a chunk's stealable tail
/// is pushed back *before* its bite executes, and nested jobs are joined
/// by their submitter, "all deques empty" means no further work can
/// appear for this region except from still-running participants' own
/// nested batches — which their submitters self-execute. This is both the
/// body of a scheduled region and the pre-barrier scavenge of a plain
/// region (helping nested batches pushed by other participants).
pub(crate) fn drain_tasks(shared: &Shared, tid: usize, nthreads: usize) {
    let own = &shared.deques[tid];
    let mut rng = VictimRng::new(tid);
    loop {
        while let Some(task) = own.pop() {
            execute_task(shared, tid, task);
        }
        match steal_sweep(shared, tid, nthreads, &mut rng) {
            Sweep::Task(task) => execute_task(shared, tid, task),
            Sweep::Contended => std::hint::spin_loop(),
            Sweep::Empty => break,
        }
    }
}

/// Typed error for a parallel region in which one or more workers
/// panicked.
///
/// The pool always recovers — every panicking worker is caught by its
/// `catch_unwind`, reaches the stop barrier, and parks for the next
/// region — so the only question is how the fault is *reported*.
/// [`ForkJoinPool::run`] re-raises it as a panic on the main thread
/// (historic behavior, right for tests and ad-hoc tools);
/// [`ForkJoinPool::try_run`] returns this value instead, which is what
/// long-running hosts (the interpreter under `cmmc serve`) need: one
/// tenant's panic becomes that tenant's error, not a process-level
/// unwind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionPanic {
    /// Panics caught during the failed region (≥ 1).
    pub workers: u64,
    /// Pool epoch of the region, for correlation with fault-injection
    /// schedules and stall diagnostics.
    pub epoch: u64,
}

impl std::fmt::Display for RegionPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} worker(s) panicked during parallel region (epoch {}); pool recovered",
            self.workers, self.epoch
        )
    }
}

impl std::error::Error for RegionPanic {}

/// What the stop-barrier watchdog does once a stall is detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallAction {
    /// Log a one-line diagnostic, record the stall in [`PoolHealth`], and
    /// keep waiting with a sleeping backoff (default).
    Warn,
    /// Log the diagnostic and abort the process. The barrier cannot be
    /// abandoned safely — a stalled worker may still dereference the
    /// region closure — so "give up" can only mean process exit.
    Abort,
}

/// Diagnosable description of a stop-barrier stall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionStall {
    /// Ordinal of the stalled region (1-based, counting every `run`).
    pub region: u64,
    /// Pool epoch of the stalled region.
    pub epoch: u64,
    /// Worker tids that had not reached the stop barrier at detection
    /// time.
    pub stalled_tids: Vec<usize>,
    /// How long the barrier had been waiting when the stall was detected.
    pub waited: Duration,
}

impl std::fmt::Display for RegionStall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "region {} (epoch {}) stalled after {:?}: workers {:?} have not reached the stop barrier",
            self.region, self.epoch, self.waited, self.stalled_tids
        )
    }
}

/// Health snapshot of a [`ForkJoinPool`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolHealth {
    /// Actual degree of parallelism (workers + main thread).
    pub threads: usize,
    /// Degree of parallelism originally requested.
    pub requested_threads: usize,
    /// Worker spawns that failed during construction (pool shrank).
    pub spawn_failures: usize,
    /// Parallel regions executed so far.
    pub regions_run: u64,
    /// Regions that ran sequentially because they were issued while
    /// another region was active *and* the caller was not a participant
    /// of it (a foreign thread racing the pool).
    pub nested_sequential: u64,
    /// Nested regions executed in parallel through the submitting
    /// participant's deque (spawn/sync batches, nested scheduled loops).
    pub nested_parallel: u64,
    /// Worker panics caught by the pool and re-raised on the main thread.
    pub panics_recovered: u64,
    /// Stop-barrier stalls detected by the watchdog.
    pub stalls_detected: u64,
    /// Most recent stall, if any.
    pub last_stall: Option<RegionStall>,
}

/// Region telemetry snapshot, accumulated while
/// [`ForkJoinPool::set_metrics_enabled`] is on.
///
/// All durations are wall-clock nanoseconds summed over the measured
/// regions. `busy_nanos[0]` is the main thread (participant 0 of every
/// region); `busy_nanos[tid]` is worker `tid`.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolMetrics {
    /// Regions executed while metrics were enabled.
    pub regions_measured: u64,
    /// Total wall time spent inside `run` (fork → all participants
    /// through the stop barrier).
    pub region_nanos: u64,
    /// Time the main thread spent waiting in the stop barrier after
    /// finishing its own partition — the join overhead the enhanced
    /// fork-join model (§III-C) exists to minimize.
    pub barrier_wait_nanos: u64,
    /// Per-participant busy time (time spent executing region closures).
    pub busy_nanos: Vec<u64>,
    /// Chunks claimed through the self-scheduler across all measured
    /// regions ([`ForkJoinPool::run_scheduled`]); 0 when every region
    /// used the plain static `run` path.
    pub chunks_issued: u64,
    /// Per-participant claim counts (same indexing as `busy_nanos`). The
    /// spread across participants shows whether dynamic/guided
    /// scheduling actually redistributed work.
    pub chunks_taken: Vec<u64>,
    /// Per-participant successful steals from other participants'
    /// deques. Nonzero steals are work redistribution the shared counter
    /// could only express as claim-count spread.
    pub steals: Vec<u64>,
    /// Per-participant steal attempts that lost a CAS race (contention
    /// indicator; the thief moves to the next victim and retries).
    pub steal_failures: Vec<u64>,
}

impl PoolMetrics {
    /// Load-imbalance ratio: max participant busy time over the mean
    /// across all participants (1.0 = perfectly balanced; an idle worker
    /// pulls the ratio up). When nothing was measured — no participants,
    /// or every participant idle — all participants are trivially equal,
    /// so the ratio is 1.0, keeping "balanced" the floor of the scale
    /// (0.0 used to leak out and read as impossibly better than
    /// balanced).
    pub fn imbalance_ratio(&self) -> f64 {
        let max = self.busy_nanos.iter().copied().max().unwrap_or(0) as f64;
        let sum: u64 = self.busy_nanos.iter().sum();
        if sum == 0 || self.busy_nanos.is_empty() {
            return 1.0;
        }
        let mean = sum as f64 / self.busy_nanos.len() as f64;
        max / mean
    }
}

/// Persistent worker pool implementing the enhanced fork-join model.
///
/// `ForkJoinPool::new(n)` spawns `n - 1` workers; the main thread acts as
/// participant 0 of every region, so `n` is the total degree of parallelism
/// (the paper's command-line thread-count argument).
///
/// ```
/// use cmm_forkjoin::ForkJoinPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = ForkJoinPool::new(4);
/// let sum = AtomicUsize::new(0);
/// pool.run(|tid, nthreads| {
///     let part = cmm_forkjoin::chunk_range(100, nthreads, tid);
///     sum.fetch_add(part.sum::<usize>(), Ordering::Relaxed);
/// });
/// assert_eq!(sum.into_inner(), (0..100).sum());
/// ```
pub struct ForkJoinPool {
    pub(crate) shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Guards against concurrent root regions; a nested call from a
    /// participant of the active region bypasses it via [`WORKER_CTX`].
    busy: AtomicBool,
    pub(crate) regions: AtomicU64,
    pub(crate) nested_sequential: AtomicU64,
    pub(crate) nested_parallel: AtomicU64,
    requested_threads: usize,
    spawn_failures: usize,
    /// Stop-barrier watchdog deadline in milliseconds (0 = disabled).
    stall_timeout_ms: AtomicU64,
    stall_action: AtomicU8,
    stalls: AtomicU64,
    last_stall: Mutex<Option<RegionStall>>,
    /// Telemetry accumulated while metrics are enabled (main-thread side;
    /// per-worker busy time lives in `Shared`).
    regions_measured: AtomicU64,
    region_nanos: AtomicU64,
    barrier_wait_nanos: AtomicU64,
    chunks_issued: AtomicU64,
    /// Cache-derived tile sizes, selected once at construction.
    tile: TilePolicy,
}

/// Default stop-barrier watchdog deadline.
pub const DEFAULT_STALL_TIMEOUT: Duration = Duration::from_secs(30);

impl ForkJoinPool {
    /// Spawn a pool with `threads` total participants (minimum 1; 1 means
    /// fully sequential with zero synchronization).
    ///
    /// Worker-spawn failures do not panic: the pool shrinks to the workers
    /// that did spawn, emits a one-line warning, and records the failure
    /// in [`PoolHealth::spawn_failures`].
    pub fn new(threads: usize) -> Self {
        Self::with_fault_plan(threads, FaultPlan::new())
    }

    /// [`ForkJoinPool::new`] with injected faults. `plan` fires in this
    /// pool only: its epochs are this pool's region epochs, its spawn
    /// failures this constructor's spawns, and its allocation ordinals
    /// count this pool's [`ForkJoinPool::should_fail_alloc`] calls.
    pub fn with_fault_plan(threads: usize, plan: FaultPlan) -> Self {
        let requested = threads.max(1);
        let shared = Arc::new(Shared {
            epoch: AtomicU64::new(0),
            remaining: AtomicUsize::new(0),
            task: UnsafeCell::new(None),
            shutdown: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            panics_recovered: AtomicU64::new(0),
            threads: AtomicUsize::new(requested),
            done_epoch: (1..requested).map(|_| CachePadded(AtomicU64::new(0))).collect(),
            metrics_enabled: AtomicBool::new(false),
            busy_nanos: (0..requested).map(|_| CachePadded(AtomicU64::new(0))).collect(),
            chunks_taken: (0..requested).map(|_| CachePadded(AtomicU64::new(0))).collect(),
            deques: (0..requested).map(|_| WorkDeque::new()).collect(),
            steals: (0..requested).map(|_| CachePadded(AtomicU64::new(0))).collect(),
            steal_failures: (0..requested).map(|_| CachePadded(AtomicU64::new(0))).collect(),
            region_exec: UnsafeCell::new(None),
            faults: Faults::new(plan),
        });
        let mut handles = Vec::with_capacity(requested - 1);
        let mut spawn_failures = 0usize;
        for tid in 1..requested {
            let spawned = if shared.faults.as_ref().is_some_and(|f| f.fails_spawn(tid)) {
                Err(std::io::Error::other("fault injection: spawn refused"))
            } else {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cmm-worker-{tid}"))
                    .spawn(move || worker_loop(&shared, tid))
            };
            match spawned {
                Ok(h) => handles.push(h),
                Err(e) => {
                    // Worker tids must stay dense (partitioning assumes
                    // 0..n), so a failed spawn caps the pool at the
                    // workers already running.
                    spawn_failures = requested - 1 - handles.len();
                    eprintln!(
                        "cmm-forkjoin: warning: failed to spawn worker {tid} of {}: {e}; \
                         continuing with {} thread(s)",
                        requested - 1,
                        handles.len() + 1
                    );
                    break;
                }
            }
        }
        shared.threads.store(handles.len() + 1, Ordering::SeqCst);
        Self {
            shared,
            handles,
            busy: AtomicBool::new(false),
            regions: AtomicU64::new(0),
            nested_sequential: AtomicU64::new(0),
            nested_parallel: AtomicU64::new(0),
            requested_threads: requested,
            spawn_failures,
            stall_timeout_ms: AtomicU64::new(DEFAULT_STALL_TIMEOUT.as_millis() as u64),
            stall_action: AtomicU8::new(StallAction::Warn as u8),
            stalls: AtomicU64::new(0),
            last_stall: Mutex::new(None),
            regions_measured: AtomicU64::new(0),
            region_nanos: AtomicU64::new(0),
            barrier_wait_nanos: AtomicU64::new(0),
            chunks_issued: AtomicU64::new(0),
            tile: TilePolicy::from_geometry(cache_geometry()),
        }
    }

    /// Total degree of parallelism (workers + main thread).
    pub fn threads(&self) -> usize {
        self.shared.threads.load(Ordering::Relaxed)
    }

    /// Number of parallel regions executed so far.
    pub fn regions_run(&self) -> u64 {
        self.regions.load(Ordering::Relaxed)
    }

    /// Number of regions that ran sequentially because the pool was busy
    /// and the caller was not a participant of the active region.
    pub fn nested_sequential_runs(&self) -> u64 {
        self.nested_sequential.load(Ordering::Relaxed)
    }

    /// Number of nested regions executed in parallel via the submitting
    /// participant's deque.
    pub fn nested_parallel_runs(&self) -> u64 {
        self.nested_parallel.load(Ordering::Relaxed)
    }

    /// Cache-derived tile policy selected at pool construction: the
    /// matmul tile edge and the static-schedule claim grain.
    pub fn tile_policy(&self) -> TilePolicy {
        self.tile
    }

    /// Enable or disable region telemetry. Disabled by default: with
    /// metrics off, `run` takes no timestamps (the overhead is a single
    /// relaxed load per region and per worker wake-up).
    pub fn set_metrics_enabled(&self, enabled: bool) {
        self.shared.metrics_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether region telemetry is currently enabled.
    pub fn metrics_enabled(&self) -> bool {
        self.shared.metrics_enabled.load(Ordering::Relaxed)
    }

    /// Snapshot of the region telemetry accumulated so far (see
    /// [`PoolMetrics`]). Busy times are reported for live participants
    /// only (a shrunk pool's unspawned workers are dropped).
    pub fn metrics(&self) -> PoolMetrics {
        let live = self.threads();
        let snap = |v: &Vec<CachePadded<AtomicU64>>| -> Vec<u64> {
            v.iter().take(live).map(|n| n.load(Ordering::Relaxed)).collect()
        };
        PoolMetrics {
            regions_measured: self.regions_measured.load(Ordering::Relaxed),
            region_nanos: self.region_nanos.load(Ordering::Relaxed),
            barrier_wait_nanos: self.barrier_wait_nanos.load(Ordering::Relaxed),
            busy_nanos: snap(&self.shared.busy_nanos),
            chunks_issued: self.chunks_issued.load(Ordering::Relaxed),
            chunks_taken: snap(&self.shared.chunks_taken),
            steals: snap(&self.shared.steals),
            steal_failures: snap(&self.shared.steal_failures),
        }
    }

    /// Count one self-scheduler claim by participant `tid`. Telemetry
    /// only — called once per executed bite by the deque drain loop (and
    /// by the legacy counter path per claim), when metrics are enabled.
    pub fn record_chunk(&self, tid: usize) {
        self.chunks_issued.fetch_add(1, Ordering::Relaxed);
        if let Some(n) = self.shared.chunks_taken.get(tid) {
            n.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Zero the region telemetry counters (not the health counters).
    pub fn reset_metrics(&self) {
        self.regions_measured.store(0, Ordering::Relaxed);
        self.region_nanos.store(0, Ordering::Relaxed);
        self.barrier_wait_nanos.store(0, Ordering::Relaxed);
        self.chunks_issued.store(0, Ordering::Relaxed);
        for v in [
            &self.shared.busy_nanos,
            &self.shared.chunks_taken,
            &self.shared.steals,
            &self.shared.steal_failures,
        ] {
            for n in v.iter() {
                n.store(0, Ordering::Relaxed);
            }
        }
    }

    /// Configure the stop-barrier watchdog deadline. `None` disables the
    /// watchdog; the default is [`DEFAULT_STALL_TIMEOUT`].
    pub fn set_stall_timeout(&self, timeout: Option<Duration>) {
        let ms = timeout.map_or(0, |d| d.as_millis().max(1) as u64);
        self.stall_timeout_ms.store(ms, Ordering::Relaxed);
    }

    /// Configure what the watchdog does on a detected stall.
    pub fn set_stall_action(&self, action: StallAction) {
        self.stall_action.store(action as u8, Ordering::Relaxed);
    }

    /// Allocation probe for code that allocates on this pool's behalf
    /// (the loop-IR interpreter's matrix allocator): advances the pool's
    /// allocation ordinal and reports whether its fault plan fails this
    /// allocation. Always `false` on a pool without a plan.
    pub fn should_fail_alloc(&self) -> bool {
        self.shared.faults.as_ref().is_some_and(Faults::fails_alloc)
    }

    /// Health snapshot: thread counts, region/panic/stall counters, and
    /// the most recent stall diagnostic.
    pub fn health(&self) -> PoolHealth {
        PoolHealth {
            threads: self.threads(),
            requested_threads: self.requested_threads,
            spawn_failures: self.spawn_failures,
            regions_run: self.regions_run(),
            nested_sequential: self.nested_sequential_runs(),
            nested_parallel: self.nested_parallel_runs(),
            panics_recovered: self.shared.panics_recovered.load(Ordering::Relaxed),
            stalls_detected: self.stalls.load(Ordering::Relaxed),
            last_stall: lock_ignore_poison(&self.last_stall).clone(),
        }
    }

    /// Execute one parallel region. `f(tid, nthreads)` runs once for every
    /// `tid in 0..nthreads`, concurrently; the call returns when all
    /// participants have passed the stop barrier.
    ///
    /// A nested call from a participant of the active region pushes the
    /// partitions onto that participant's deque as stealable jobs and
    /// help-joins them (parallel nested execution); a call from a foreign
    /// thread while the pool is busy runs all partitions sequentially on
    /// the calling thread.
    ///
    /// # Panics
    /// Re-raises on the main thread when any worker's portion panicked
    /// (after the region completes, so the pool stays healthy). Hosts
    /// that must not unwind use [`ForkJoinPool::try_run`] instead.
    pub fn run<F>(&self, f: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        if let Err(e) = self.try_run(f) {
            panic!("a fork-join worker panicked during a parallel region ({e})");
        }
    }

    /// [`ForkJoinPool::run`] that reports worker panics as a typed
    /// [`RegionPanic`] instead of re-raising them on the main thread.
    ///
    /// The region always completes the full stop-barrier protocol first
    /// (every worker — panicked or not — reaches the barrier before this
    /// returns), so on `Err` the pool is already healthy and immediately
    /// reusable; only the *result* of this one region is lost. A panic on
    /// the calling thread's own partition still unwinds out of this call
    /// — that is an ordinary caller panic, not a worker fault — but the
    /// drop guard releases the region first, so even then the pool
    /// survives.
    pub fn try_run<F>(&self, f: F) -> Result<(), RegionPanic>
    where
        F: Fn(usize, usize) + Sync,
    {
        let n = self.threads();
        if n > 1 {
            if let Some(tid) = current_region_tid(&self.shared) {
                // Nested region from a participant: run the partitions as
                // stealable jobs on this participant's deque.
                return self.run_nested_region(tid, n, &f);
            }
        }
        self.regions.fetch_add(1, Ordering::Relaxed);
        // Telemetry is opt-in: the common (disabled) path costs one
        // relaxed load and never reads the clock.
        let metered = self.shared.metrics_enabled.load(Ordering::Relaxed);
        let region_start = if metered { Some(Instant::now()) } else { None };
        if n == 1 {
            f(0, 1);
            self.finish_region_metrics(region_start, true);
            return Ok(());
        }
        if !self.acquire_busy() {
            // The pool is running someone else's region and we are not a
            // participant of it: run every partition on this thread.
            self.nested_sequential.fetch_add(1, Ordering::Relaxed);
            for tid in 0..n {
                f(tid, n);
            }
            self.finish_region_metrics(region_start, true);
            return Ok(());
        }
        self.run_region_locked(f, n, metered, region_start)
    }

    /// Try to claim root-region ownership.
    pub(crate) fn acquire_busy(&self) -> bool {
        self.busy
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Execute a root region's fork/join protocol. Caller holds `busy`
    /// (released by the drop guard) and has already published any
    /// region-exec descriptor and deque seeds.
    pub(crate) fn run_region_locked<F>(
        &self,
        f: F,
        n: usize,
        metered: bool,
        region_start: Option<Instant>,
    ) -> Result<(), RegionPanic>
    where
        F: Fn(usize, usize) + Sync,
    {
        let panics_before = self.shared.panics_recovered.load(Ordering::Relaxed);

        let wide: *const (dyn Fn(usize, usize) + Sync + '_) = &f;
        // Erase the lifetime: the stop barrier below keeps the borrow
        // inside this call frame.
        let wide: TaskPtr = unsafe { std::mem::transmute(wide) };
        unsafe { *self.shared.task.get() = Some(wide) };
        self.shared.remaining.store(n - 1, Ordering::Relaxed);
        // The "condition flip": release all parked workers at once.
        self.shared.epoch.fetch_add(1, Ordering::Release);

        // Main thread participates as tid 0. Even if it panics, the drop
        // guard waits in the stop barrier first — the closure must stay
        // alive until every worker is done with it.
        let guard = RegionGuard {
            pool: self,
            main_panicked: true,
            metered,
        };
        {
            let _ctx = CtxGuard::install(&self.shared, 0);
            f(0, n);
            // Scavenge before waiting in the barrier: nested batches
            // pushed by still-running workers become parallel instead of
            // burning the main thread on a pure spin wait.
            drain_tasks(&self.shared, 0, n);
        }
        if let Some(t0) = region_start {
            // Main-thread busy time: fork to end of its own partition
            // (plus whatever it scavenged).
            self.shared.busy_nanos[0]
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        let mut guard = guard;
        guard.main_panicked = false;
        drop(guard);
        self.finish_region_metrics(region_start, false);

        if self.shared.panicked.swap(false, Ordering::AcqRel) {
            // Every worker is already through the stop barrier (the guard
            // waited for them), so the count below is this region's final
            // tally.
            let workers = self
                .shared
                .panics_recovered
                .load(Ordering::Relaxed)
                .saturating_sub(panics_before)
                .max(1);
            return Err(RegionPanic {
                workers,
                epoch: self.shared.epoch.load(Ordering::Relaxed),
            });
        }
        Ok(())
    }

    /// Nested plain region from participant `tid`: cover every virtual
    /// tid `0..n` as stealable jobs (see [`ForkJoinPool::nested_batch`]).
    fn run_nested_region<F>(&self, tid: usize, n: usize, f: &F) -> Result<(), RegionPanic>
    where
        F: Fn(usize, usize) + Sync,
    {
        self.regions.fetch_add(1, Ordering::Relaxed);
        self.nested_parallel.fetch_add(1, Ordering::Relaxed);
        let metered = self.metrics_enabled();
        let region_start = if metered { Some(Instant::now()) } else { None };
        let body = |_etid: usize, range: std::ops::Range<usize>| {
            for virtual_tid in range {
                f(virtual_tid, n);
            }
        };
        let result = self.nested_batch(tid, n, n, Schedule::Dynamic { chunk: 1 }, &body, false);
        self.finish_nested_metrics(region_start);
        result
    }

    /// Record a completed region's duration. `main_is_whole_region` is
    /// true on the sequential paths (pool of one / fallback), where the
    /// main thread's busy time equals the region duration.
    pub(crate) fn finish_region_metrics(
        &self,
        region_start: Option<Instant>,
        main_is_whole_region: bool,
    ) {
        let Some(t0) = region_start else { return };
        let nanos = t0.elapsed().as_nanos() as u64;
        self.regions_measured.fetch_add(1, Ordering::Relaxed);
        self.region_nanos.fetch_add(nanos, Ordering::Relaxed);
        if main_is_whole_region {
            self.shared.busy_nanos[0].fetch_add(nanos, Ordering::Relaxed);
        }
    }

    /// Record a completed nested region's duration. Participant busy time
    /// is already covered by the executors' own region windows, so only
    /// the region count and duration are added.
    pub(crate) fn finish_nested_metrics(&self, region_start: Option<Instant>) {
        let Some(t0) = region_start else { return };
        self.regions_measured.fetch_add(1, Ordering::Relaxed);
        self.region_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Whether the pool is *quiescent*: no region in flight, every worker
    /// parked past the stop barrier, and no unconsumed worker-panic flag.
    /// This is the epoch/stop-barrier handshake read from the outside —
    /// after any `run`/`try_run` variant returns, the barrier guarantees
    /// all of these hold on the calling thread.
    pub fn quiescent(&self) -> bool {
        self.shared.remaining.load(Ordering::Acquire) == 0
            && !self.busy.load(Ordering::Acquire)
            && !self.shared.panicked.load(Ordering::Acquire)
    }

    /// Whether the pool carries permanent damage that makes it unfit to
    /// hand to a new session: a failed worker spawn (fewer threads than
    /// requested), any recovered worker panic, or a detected stop-barrier
    /// stall. Tainted pools should be dropped, never recycled — a panic
    /// may have left user state (not pool state) inconsistent, and a
    /// shrunk or stalled pool would silently under-serve its next owner.
    pub fn tainted(&self) -> bool {
        self.spawn_failures > 0
            || self.threads() < self.requested_threads
            || self.shared.panics_recovered.load(Ordering::Relaxed) > 0
            || self.stalls.load(Ordering::Relaxed) > 0
    }

    /// Reset the pool for reuse by a new, unrelated session (the
    /// `cmmc serve` pool-cache checkin gate). Returns `false` — leaving
    /// the pool untouched — unless the pool is [`quiescent`] and not
    /// [`tainted`]; on `true` all region telemetry is zeroed and metrics
    /// collection is switched off, so the next session observes a pool
    /// indistinguishable from a fresh one (health lifetime counters such
    /// as `regions_run` keep accumulating; they are diagnostics, not
    /// session state).
    ///
    /// [`quiescent`]: ForkJoinPool::quiescent
    /// [`tainted`]: ForkJoinPool::tainted
    pub fn reset_for_reuse(&self) -> bool {
        if !self.quiescent() || self.tainted() {
            return false;
        }
        self.set_metrics_enabled(false);
        self.reset_metrics();
        true
    }
}

impl Drop for ForkJoinPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.epoch.fetch_add(1, Ordering::Release);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Waits in the stop barrier and releases region state even when the main
/// thread's portion of the work panics. Runs the stall watchdog while
/// waiting.
struct RegionGuard<'a> {
    pool: &'a ForkJoinPool,
    main_panicked: bool,
    metered: bool,
}

impl Drop for RegionGuard<'_> {
    fn drop(&mut self) {
        let pool = self.pool;
        let shared = &pool.shared;
        let timeout_ms = pool.stall_timeout_ms.load(Ordering::Relaxed);
        let wait_start = if self.metered { Some(Instant::now()) } else { None };
        let mut spins = 0u32;
        let mut started: Option<Instant> = None;
        let mut stalled = false;
        while shared.remaining.load(Ordering::Acquire) != 0 {
            if stalled {
                // Already diagnosed: wait politely instead of burning CPU.
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            if timeout_ms != 0 && spins >= 512 {
                // Check the clock only on the slow (yielding) path; the
                // hot path where workers finish promptly never takes a
                // timestamp.
                let t0 = *started.get_or_insert_with(Instant::now);
                if t0.elapsed() >= Duration::from_millis(timeout_ms) {
                    stalled = true;
                    report_stall(pool, t0.elapsed());
                    continue;
                }
            }
            backoff(&mut spins);
        }
        if let Some(t0) = wait_start {
            pool.barrier_wait_nanos
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        unsafe { *shared.task.get() = None };
        if self.main_panicked {
            // The original panic is already unwinding; just clear the
            // worker flag so the next region starts clean.
            shared.panicked.store(false, Ordering::Release);
        }
        pool.busy.store(false, Ordering::Release);
    }
}

/// Record and log a stop-barrier stall; abort if configured to.
fn report_stall(pool: &ForkJoinPool, waited: Duration) {
    let shared = &pool.shared;
    let epoch = shared.epoch.load(Ordering::Acquire);
    // Only live workers are candidates: a shrunk pool's trailing
    // `done_epoch` slots belong to workers that never spawned.
    let stalled_tids: Vec<usize> = shared
        .done_epoch
        .iter()
        .take(pool.threads().saturating_sub(1))
        .enumerate()
        .filter(|(_, done)| done.load(Ordering::Acquire) < epoch)
        .map(|(i, _)| i + 1)
        .collect();
    let stall = RegionStall {
        region: pool.regions.load(Ordering::Relaxed),
        epoch,
        stalled_tids,
        waited,
    };
    pool.stalls.fetch_add(1, Ordering::Relaxed);
    eprintln!("cmm-forkjoin: warning: {stall}");
    *lock_ignore_poison(&pool.last_stall) = Some(stall);
    if pool.stall_action.load(Ordering::Relaxed) == StallAction::Abort as u8 {
        eprintln!("cmm-forkjoin: aborting (stall action is Abort)");
        std::process::abort();
    }
}

fn worker_loop(shared: &Shared, tid: usize) {
    let mut seen = 0u64;
    loop {
        // Spin lock: idle until the main thread flips the condition.
        let mut spins = 0u32;
        let mut epoch = shared.epoch.load(Ordering::Acquire);
        while epoch == seen {
            backoff(&mut spins);
            epoch = shared.epoch.load(Ordering::Acquire);
        }
        seen = epoch;
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Safety: the epoch Acquire pairs with the Release flip performed
        // after the task pointer was stored, and the closure outlives the
        // region because `run` blocks on the stop barrier.
        let task = unsafe { (*shared.task.get()).expect("epoch flipped without a task") };
        let task = unsafe { &*task };
        let nthreads = shared.threads.load(Ordering::Relaxed);
        // A panicking body must still reach the stop barrier or the main
        // thread would wait forever; record it and re-raise over there.
        let body = || {
            if let Some(faults) = &shared.faults {
                faults.on_worker_region(seen, tid);
            }
            task(tid, nthreads);
        };
        let busy_start = if shared.metrics_enabled.load(Ordering::Relaxed) {
            Some(Instant::now())
        } else {
            None
        };
        {
            // The context makes nested pool calls from inside the body
            // (and from scavenged tasks) participant-aware.
            let _ctx = CtxGuard::install(shared, tid);
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).is_err() {
                shared.panicked.store(true, Ordering::Release);
                shared.panics_recovered.fetch_add(1, Ordering::Relaxed);
            }
            // Scavenge before parking: pick up split chunk tails and
            // nested job batches other participants are still producing.
            // Task executors catch their own panics, so this never
            // unwinds past the barrier below.
            drain_tasks(shared, tid, nthreads);
        }
        if let Some(t0) = busy_start {
            shared.busy_nanos[tid].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        // Progress mark for the watchdog, then the stop barrier.
        shared.done_epoch[tid - 1].store(seen, Ordering::Release);
        shared.remaining.fetch_sub(1, Ordering::Release);
    }
}

/// Spin-then-yield backoff: burn a few hundred spins (cheap wake-up when
/// work arrives immediately, the case the enhanced model optimizes for),
/// then yield so oversubscribed configurations still make progress.
#[inline]
pub(crate) fn backoff(spins: &mut u32) {
    if *spins < 512 {
        std::hint::spin_loop();
        *spins += 1;
    } else {
        std::thread::yield_now();
    }
}

/// The naive fork-join baseline: spawn `threads` OS threads for this one
/// region and join them all, paying creation/destruction cost every time
/// (the model the paper's enhanced pool replaces).
pub fn naive_run<F>(threads: usize, f: F)
where
    F: Fn(usize, usize) + Sync,
{
    let threads = threads.max(1);
    if threads == 1 {
        f(0, 1);
        return;
    }
    std::thread::scope(|s| {
        for tid in 1..threads {
            let f = &f;
            s.spawn(move || f(tid, threads));
        }
        f(0, threads);
    });
}

#[cfg(test)]
mod tests;
