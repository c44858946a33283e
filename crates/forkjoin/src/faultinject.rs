//! Deterministic fault injection for the execution substrate.
//!
//! Robustness claims ("the pool recovers from a worker panic", "an
//! allocation failure never leaks a buffer") are only testable if the
//! failures can be provoked *reproducibly*. A [`FaultPlan`] is a schedule
//! of worker panics, worker delays, allocation failures and spawn
//! failures, given to the one pool it targets by
//! [`ForkJoinPool::with_fault_plan`]. That pool consults it at three
//! probe points:
//!
//! * **region entry** — every worker of the pool, before its partition;
//!   may sleep (exercising the stop-barrier watchdog) or panic
//!   (exercising the panic-recovery path);
//! * **spawn** — the constructor, before each `thread::Builder::spawn`,
//!   simulating thread exhaustion without exhausting the OS;
//! * **allocation** — [`ForkJoinPool::should_fail_alloc`], called by
//!   the loop-IR interpreter's matrix allocator on the pool it runs on.
//!   Each call advances the pool's own allocation ordinal, so "fail the
//!   K-th allocation" counts that pool's allocations only.
//!
//! The plan never changes after construction, so the probes read it
//! without a lock; the allocation ordinal is the only mutable state, one
//! atomic per pool. A pool built by `ForkJoinPool::new` carries no plan
//! and each probe is one `Option` test. No plan is process-wide: two
//! pools, in one test or in two tests running side by side, never see
//! each other's faults.
//!
//! [`ForkJoinPool::with_fault_plan`]: crate::ForkJoinPool::with_fault_plan
//! [`ForkJoinPool::should_fail_alloc`]: crate::ForkJoinPool::should_fail_alloc

use std::sync::atomic::{AtomicU64, Ordering};
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
    /// 1-based indices of fallible allocations that fail (the K-th
    /// allocation probed on the pool).
    pub alloc_failures: Vec<u64>,
    /// 1-based worker tids whose spawn attempt the pool's constructor
    /// refuses.
    pub spawn_failures: Vec<usize>,
}

impl FaultPlan {
    /// Empty plan.
    pub fn new() -> Self {
        Self::default()
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

/// A non-empty plan bound to its pool, with that pool's allocation
/// ordinal. Lives in the pool's shared state for the pool's lifetime.
pub(crate) struct Faults {
    plan: FaultPlan,
    allocs: AtomicU64,
}

impl Faults {
    /// `None` for an empty plan, so an unplanned pool's probes test one
    /// `Option` and nothing else.
    pub(crate) fn new(plan: FaultPlan) -> Option<Faults> {
        let empty = plan.worker_panics.is_empty()
            && plan.worker_delays.is_empty()
            && plan.alloc_failures.is_empty()
            && plan.spawn_failures.is_empty();
        (!empty).then(|| Faults { plan, allocs: AtomicU64::new(0) })
    }

    /// Region-entry probe of worker `tid` at region `epoch`. May sleep
    /// (injected delay) and may panic (injected worker panic); the panic
    /// unwinds into the pool's `catch_unwind`, exactly like a fault in
    /// user code, and is counted there as a recovered panic.
    pub(crate) fn on_worker_region(&self, epoch: u64, tid: usize) {
        let plan = &self.plan;
        if let Some(d) = plan.worker_delays.iter().find(|d| d.epoch == epoch && d.tid == tid) {
            std::thread::sleep(Duration::from_millis(d.millis));
        }
        if plan.worker_panics.iter().any(|p| p.epoch == epoch && p.tid == tid) {
            panic!("fault injection: worker {tid} panics at region epoch {epoch}");
        }
    }

    /// Spawn probe: whether the spawn of worker `tid` is refused.
    pub(crate) fn fails_spawn(&self, tid: usize) -> bool {
        self.plan.spawn_failures.contains(&tid)
    }

    /// Allocation probe: advances the ordinal and reports whether this
    /// allocation fails.
    pub(crate) fn fails_alloc(&self) -> bool {
        let k = self.allocs.fetch_add(1, Ordering::Relaxed) + 1;
        self.plan.alloc_failures.contains(&k)
    }
}
