//! A persistent [`ForkJoinPool`] session cache: checkout/checkin keyed
//! by clamped thread count, with a health gate so degraded or tainted
//! pools are dropped — never recycled.
//!
//! Before this cache, every `run` session constructed a fresh pool —
//! thread spawns, stack allocation, deque setup — which dominated the
//! round trip for small programs (the traced `serve_mixed` run of
//! `benchmark/` reports `serve.pool_checkout_miss_us` against
//! `serve.pool_checkout_hit_us`; see `benchmark/README.md`).
//! Pools are cheap to *keep* (parked workers cost no CPU) and expensive
//! to *make*, so the daemon shelves them between sessions.
//!
//! Safety of reuse rests on two gates at checkin time:
//!
//! * **Exclusivity** — `Arc::strong_count == 1`: the session released
//!   every clone, so no interpreter or panicked stack frame can still
//!   touch the pool.
//! * **Health** — [`ForkJoinPool::reset_for_reuse`]: the pool is
//!   quiescent under the epoch/stop-barrier handshake and carries no
//!   taint (recovered panic, spawn shortfall, stall). A tainted pool is
//!   dropped and counted as an eviction; the next checkout for that
//!   thread count pays construction again. Dropping is deliberate: a
//!   pool that has ever misbehaved is never handed to another tenant.
//!
//! Sessions that panic past the typed-error path never reach checkin at
//! all — the unwind drops their `Arc` clone and the pool with it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cmm_forkjoin::faultinject::FaultPlan;
use cmm_forkjoin::ForkJoinPool;

/// Counter snapshot reported in server stats (see
/// [`crate::ServeStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCacheStats {
    /// Checkouts served from the shelf (no pool construction).
    pub hits: u64,
    /// Checkouts that had to construct a pool.
    pub misses: u64,
    /// Pools offered back but dropped: still shared, unhealthy, or over
    /// capacity.
    pub evictions: u64,
    /// Pools currently shelved.
    pub cached: usize,
    /// Total nanoseconds spent constructing session pools (misses only).
    pub construct_nanos: u64,
}

/// The cache proper: one shelf of idle pools per clamped thread count.
pub struct PoolCache {
    shelves: Mutex<HashMap<usize, Vec<Arc<ForkJoinPool>>>>,
    /// Total shelved pools across all thread counts (gauge).
    cached: AtomicUsize,
    /// Cap on `cached`; checkins past it are dropped as evictions.
    max_total: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    construct_nanos: AtomicU64,
    /// Faults every pool this cache builds carries (empty outside tests).
    fault_plan: FaultPlan,
}

impl PoolCache {
    /// An empty cache holding at most `max_total` idle pools.
    pub fn new(max_total: usize) -> PoolCache {
        PoolCache::with_fault_plan(max_total, FaultPlan::new())
    }

    /// [`PoolCache::new`] whose pools are built with
    /// [`ForkJoinPool::with_fault_plan`]: each session pool carries its
    /// own copy of `fault_plan`. A test seam, reached only through
    /// [`crate::ServeConfig::fault_plan`].
    pub(crate) fn with_fault_plan(max_total: usize, fault_plan: FaultPlan) -> PoolCache {
        PoolCache {
            shelves: Mutex::new(HashMap::new()),
            cached: AtomicUsize::new(0),
            max_total,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            construct_nanos: AtomicU64::new(0),
            fault_plan,
        }
    }

    /// Take a pool with `threads` participants: shelved if available,
    /// freshly constructed otherwise. Returns the pool, whether this was
    /// a cache hit, and the construction time in nanoseconds (0 on hit).
    pub fn checkout(&self, threads: usize) -> (Arc<ForkJoinPool>, bool, u64) {
        let shelved = {
            let mut shelves = self.shelves.lock().unwrap_or_else(|e| e.into_inner());
            shelves.get_mut(&threads).and_then(Vec::pop)
        };
        if let Some(pool) = shelved {
            self.cached.fetch_sub(1, Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (pool, true, 0);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let pool = Arc::new(ForkJoinPool::with_fault_plan(threads, self.fault_plan.clone()));
        let ns = t0.elapsed().as_nanos() as u64;
        self.construct_nanos.fetch_add(ns, Ordering::Relaxed);
        (pool, false, ns)
    }

    /// Offer a pool back under its checkout key. Shelved only when the
    /// session holds the sole reference, the health gate passes, and the
    /// cache is under capacity; otherwise the pool is dropped and
    /// counted as an eviction. Returns whether the pool was shelved.
    pub fn checkin(&self, threads: usize, pool: Arc<ForkJoinPool>) -> bool {
        if Arc::strong_count(&pool) != 1 || !pool.reset_for_reuse() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        // Reserve capacity first so concurrent checkins cannot overshoot
        // `max_total`; losers back out and evict.
        if self.cached.fetch_add(1, Ordering::Relaxed) >= self.max_total {
            self.cached.fetch_sub(1, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let mut shelves = self.shelves.lock().unwrap_or_else(|e| e.into_inner());
        shelves.entry(threads).or_default().push(pool);
        true
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolCacheStats {
        PoolCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            cached: self.cached.load(Ordering::Relaxed),
            construct_nanos: self.construct_nanos.load(Ordering::Relaxed),
        }
    }

    /// Drop every shelved pool (shutdown path; not counted as
    /// evictions — the pools are healthy, the daemon is just leaving).
    pub fn clear(&self) {
        let mut shelves = self.shelves.lock().unwrap_or_else(|e| e.into_inner());
        for (_, shelf) in shelves.drain() {
            self.cached.fetch_sub(shelf.len(), Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_roundtrip() {
        let cache = PoolCache::new(4);
        let (pool, hit, ns) = cache.checkout(2);
        assert!(!hit);
        assert!(ns > 0, "a miss must report construction time");
        assert!(cache.checkin(2, pool), "healthy sole-owner pool shelves");
        let (_pool, hit, ns) = cache.checkout(2);
        assert!(hit, "second checkout must reuse the shelved pool");
        assert_eq!(ns, 0);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
        assert_eq!(s.cached, 0);
    }

    #[test]
    fn shelves_are_keyed_by_thread_count() {
        let cache = PoolCache::new(4);
        let (p2, _, _) = cache.checkout(2);
        cache.checkin(2, p2);
        let (_p3, hit, _) = cache.checkout(3);
        assert!(!hit, "a 3-thread checkout must not get the 2-thread pool");
        assert_eq!(cache.stats().cached, 1, "the 2-thread pool stays shelved");
    }

    #[test]
    fn shared_pool_is_evicted_not_shelved() {
        let cache = PoolCache::new(4);
        let (pool, _, _) = cache.checkout(2);
        let extra = Arc::clone(&pool);
        assert!(!cache.checkin(2, pool), "a still-shared pool must not shelve");
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.cached, 0);
        drop(extra);
    }

    #[test]
    fn capacity_cap_evicts_excess_checkins() {
        let cache = PoolCache::new(1);
        let (a, _, _) = cache.checkout(1);
        let (b, _, _) = cache.checkout(1);
        assert!(cache.checkin(1, a));
        assert!(!cache.checkin(1, b), "over-capacity checkin must drop");
        let s = cache.stats();
        assert_eq!(s.cached, 1);
        assert_eq!(s.evictions, 1);
    }

    #[test]
    fn clear_empties_without_counting_evictions() {
        let cache = PoolCache::new(4);
        let (a, _, _) = cache.checkout(1);
        let (b, _, _) = cache.checkout(2);
        cache.checkin(1, a);
        cache.checkin(2, b);
        assert_eq!(cache.stats().cached, 2);
        cache.clear();
        let s = cache.stats();
        assert_eq!(s.cached, 0);
        assert_eq!(s.evictions, 0);
    }
}
