//! Deterministic fault injection for the execution substrate.
//!
//! Robustness claims ("the pool recovers from a worker panic", "an
//! allocation failure never leaks a buffer") are only testable if the
//! failures can be provoked *reproducibly*. This module holds a
//! process-global [`FaultPlan`] — a seeded schedule of worker panics,
//! worker delays, allocation failures and spawn failures — that the pool
//! and the allocators consult at well-defined probe points:
//!
//! * [`on_worker_region`] — called by every pool worker at region entry;
//!   may panic (exercising the panic-recovery path) or sleep (exercising
//!   the stop-barrier watchdog).
//! * [`should_fail_alloc`] — consulted by the loop-IR interpreter's
//!   matrix allocator; each call advances a global allocation counter so
//!   "fail the K-th allocation" is exact.
//! * [`should_fail_spawn`] — consulted by `ForkJoinPool::new` before each
//!   `thread::Builder::spawn`, simulating thread-exhaustion without
//!   actually exhausting the OS.
//!
//! Plans are installed with [`install`], which returns a guard holding a
//! global lock: concurrently running tests serialize instead of trampling
//! each other's schedules, and the plan is cleared when the guard drops.
//! When no plan is installed every probe is a single relaxed atomic load.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// A worker panic scheduled at a (region epoch, worker tid) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanicAt {
    /// Region epoch (1-based: the pool's first parallel region runs at
    /// epoch 1).
    pub epoch: u64,
    /// Worker thread id (1-based; tid 0 is the main thread and is never
    /// targeted — a main-thread panic is an ordinary user panic).
    pub tid: usize,
}

/// A worker delay scheduled at a (region epoch, worker tid) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelayAt {
    /// Region epoch.
    pub epoch: u64,
    /// Worker thread id.
    pub tid: usize,
    /// How long the worker sleeps before running its partition.
    pub millis: u64,
}

/// A deterministic schedule of injected faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Worker panics by (epoch, tid).
    pub worker_panics: Vec<PanicAt>,
    /// Worker delays by (epoch, tid).
    pub worker_delays: Vec<DelayAt>,
    /// 1-based indices of fallible allocations that fail (the K-th call
    /// to [`should_fail_alloc`] after installation).
    pub alloc_failures: Vec<u64>,
    /// 1-based worker tids whose spawn attempt fails in
    /// `ForkJoinPool::new`.
    pub spawn_failures: Vec<usize>,
}

impl FaultPlan {
    /// Empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pseudo-random plan derived from `seed` (SplitMix64): `panics`
    /// worker panics and `delays` short delays scattered over the first
    /// `epochs` regions of a pool with `threads` participants, plus
    /// `alloc_failures` failed allocations among the first `allocs`
    /// fallible allocations. The same seed always yields the same plan.
    pub fn from_seed(
        seed: u64,
        epochs: u64,
        threads: usize,
        panics: usize,
        delays: usize,
        allocs: u64,
        alloc_failures: usize,
    ) -> Self {
        let mut state = seed;
        let mut next = move || {
            // SplitMix64: statelessly seedable, good enough dispersion for
            // schedule generation.
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        let workers = threads.saturating_sub(1).max(1);
        let mut plan = FaultPlan::new();
        for _ in 0..panics {
            plan.worker_panics.push(PanicAt {
                epoch: 1 + next() % epochs.max(1),
                tid: 1 + (next() as usize) % workers,
            });
        }
        for _ in 0..delays {
            plan.worker_delays.push(DelayAt {
                epoch: 1 + next() % epochs.max(1),
                tid: 1 + (next() as usize) % workers,
                millis: 1 + next() % 20,
            });
        }
        for _ in 0..alloc_failures {
            plan.alloc_failures.push(1 + next() % allocs.max(1));
        }
        plan
    }

    /// Schedule a worker panic.
    pub fn panic_at(mut self, epoch: u64, tid: usize) -> Self {
        self.worker_panics.push(PanicAt { epoch, tid });
        self
    }

    /// Schedule a worker delay.
    pub fn delay_at(mut self, epoch: u64, tid: usize, millis: u64) -> Self {
        self.worker_delays.push(DelayAt { epoch, tid, millis });
        self
    }

    /// Fail the `k`-th fallible allocation (1-based).
    pub fn fail_alloc(mut self, k: u64) -> Self {
        self.alloc_failures.push(k);
        self
    }

    /// Fail the spawn attempt for worker `tid` (1-based).
    pub fn fail_spawn(mut self, tid: usize) -> Self {
        self.spawn_failures.push(tid);
        self
    }
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static ALLOC_COUNTER: AtomicU64 = AtomicU64::new(0);
static PANICS_INJECTED: AtomicU64 = AtomicU64::new(0);
static ALLOC_FAILURES_INJECTED: AtomicU64 = AtomicU64::new(0);
static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);
/// Serializes installations: two tests cannot hold plans concurrently.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Guard returned by [`install`]; clears the plan (and releases the
/// exclusivity lock) when dropped.
pub struct InjectionGuard {
    _exclusive: MutexGuard<'static, ()>,
}

impl Drop for InjectionGuard {
    fn drop(&mut self) {
        ACTIVE.store(false, Ordering::SeqCst);
        *lock_ignore_poison(&PLAN) = None;
    }
}

/// Install a fault plan, resetting all injection counters. Blocks until
/// any previously installed plan has been dropped.
#[must_use = "the plan is cleared when the guard drops"]
pub fn install(plan: FaultPlan) -> InjectionGuard {
    let exclusive = lock_ignore_poison(&EXCLUSIVE);
    *lock_ignore_poison(&PLAN) = Some(plan);
    ALLOC_COUNTER.store(0, Ordering::SeqCst);
    PANICS_INJECTED.store(0, Ordering::SeqCst);
    ALLOC_FAILURES_INJECTED.store(0, Ordering::SeqCst);
    ACTIVE.store(true, Ordering::SeqCst);
    InjectionGuard {
        _exclusive: exclusive,
    }
}

/// Whether a plan is currently installed.
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Number of worker panics injected since the current plan was installed.
pub fn panics_injected() -> u64 {
    PANICS_INJECTED.load(Ordering::Relaxed)
}

/// Number of allocation failures injected since the current plan was
/// installed.
pub fn alloc_failures_injected() -> u64 {
    ALLOC_FAILURES_INJECTED.load(Ordering::Relaxed)
}

/// Probe point for pool workers at region entry. May sleep (injected
/// delay) and may panic (injected worker panic); panics unwind into the
/// pool's `catch_unwind`, exactly like a fault in user code.
pub fn on_worker_region(epoch: u64, tid: usize) {
    if !active() {
        return;
    }
    let (delay, panic) = {
        let plan = lock_ignore_poison(&PLAN);
        let Some(plan) = plan.as_ref() else { return };
        (
            plan.worker_delays
                .iter()
                .find(|d| d.epoch == epoch && d.tid == tid)
                .map(|d| d.millis),
            plan.worker_panics
                .iter()
                .any(|p| p.epoch == epoch && p.tid == tid),
        )
    };
    if let Some(millis) = delay {
        std::thread::sleep(Duration::from_millis(millis));
    }
    if panic {
        PANICS_INJECTED.fetch_add(1, Ordering::Relaxed);
        panic!("fault injection: worker {tid} panics at region epoch {epoch}");
    }
}

/// Probe point for fallible allocators: advances the global allocation
/// counter and reports whether this allocation is scheduled to fail.
pub fn should_fail_alloc() -> bool {
    if !active() {
        return false;
    }
    let k = ALLOC_COUNTER.fetch_add(1, Ordering::SeqCst) + 1;
    let fail = lock_ignore_poison(&PLAN)
        .as_ref()
        .is_some_and(|p| p.alloc_failures.contains(&k));
    if fail {
        ALLOC_FAILURES_INJECTED.fetch_add(1, Ordering::Relaxed);
    }
    fail
}

/// Probe point for `ForkJoinPool::new`: whether the spawn of worker `tid`
/// is scheduled to fail.
pub fn should_fail_spawn(tid: usize) -> bool {
    active()
        && lock_ignore_poison(&PLAN)
            .as_ref()
            .is_some_and(|p| p.spawn_failures.contains(&tid))
}
