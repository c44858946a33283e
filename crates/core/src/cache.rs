//! Bounded, thread-safe LRU memo used for the process-global composition
//! cache.
//!
//! The original parser cache was an unbounded `HashMap` — harmless for a
//! one-shot CLI, but a genuine memory leak in a long-running daemon
//! (`cmmc serve`): every distinct extension set a tenant ever requested
//! pinned a full LALR(1) table forever. [`LruCache`] caps the entry count
//! and evicts the least-recently-used composition, counting evictions so
//! the `--metrics-json` / serve telemetry can show cache churn.
//!
//! Recency is a monotone tick stamped on every hit under the same lock
//! that guards the map, so the LRU order is exact, not approximate.
//! Eviction scans for the minimum stamp — O(capacity) — which is
//! irrelevant at the tiny capacities parser tables warrant (each entry is
//! hundreds of kilobytes; the default cap is
//! [`crate::DEFAULT_PARSER_CACHE_CAPACITY`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::metrics::ParserCacheStats;

struct Entry<V> {
    value: V,
    /// Tick of the most recent hit or insertion (monotone; larger =
    /// more recent).
    last_used: u64,
}

struct Inner<V> {
    map: HashMap<Vec<String>, Entry<V>>,
    tick: u64,
}

/// Thread-safe LRU cache keyed by canonical (sorted) name sets.
pub(crate) struct LruCache<V> {
    inner: Mutex<Inner<V>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    prebuilt: AtomicU64,
}

impl<V: Clone> LruCache<V> {
    /// Empty cache holding at most `capacity` entries (minimum 1).
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        LruCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            prebuilt: AtomicU64::new(0),
        }
    }

    /// Maximum number of entries retained.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Look up `key`, building and inserting on a miss; evicts the
    /// least-recently-used entry when the insert would exceed capacity.
    ///
    /// The build runs under the map lock: concurrent requests for the
    /// same key would otherwise duplicate the exact construction the
    /// cache exists to avoid. A hit on another key waits out that build
    /// too (≈2 ms, once per set); a per-key wait is parked in ROADMAP
    /// item 2(c) until a workload shows hits queueing behind misses.
    /// Build failures are never cached.
    pub(crate) fn get_or_build<E>(
        &self,
        key: Vec<String>,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.map.get_mut(&key) {
            entry.last_used = tick;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(entry.value.clone());
        }
        let value = build()?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        if inner.map.len() >= self.capacity {
            if let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.map.insert(
            key,
            Entry {
                value: value.clone(),
                last_used: tick,
            },
        );
        Ok(value)
    }

    /// Entries currently resident.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).map.len()
    }

    /// Whether `key` is currently resident (no recency update).
    #[cfg(test)]
    pub(crate) fn contains(&self, key: &[String]) -> bool {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .contains_key(key)
    }

    /// Count a miss whose build found its value prebuilt (called from
    /// the build closure, before the miss itself is counted).
    pub(crate) fn count_prebuilt(&self) {
        self.prebuilt.fetch_add(1, Ordering::Relaxed);
    }

    /// Hit/miss/eviction/prebuilt counters.
    pub(crate) fn stats(&self) -> ParserCacheStats {
        ParserCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            prebuilt: self.prebuilt.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> Vec<String> {
        vec![s.to_string()]
    }

    fn get(c: &LruCache<u32>, k: &str, v: u32) -> u32 {
        c.get_or_build::<()>(key(k), || Ok(v)).unwrap()
    }

    #[test]
    fn hit_returns_cached_value_without_rebuilding() {
        let c = LruCache::with_capacity(4);
        assert_eq!(get(&c, "a", 1), 1);
        let r = c.get_or_build::<()>(key("a"), || panic!("must not rebuild on hit"));
        assert_eq!(r.unwrap(), 1);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.prebuilt), (1, 1, 0, 0));
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let c = LruCache::with_capacity(2);
        get(&c, "a", 1);
        get(&c, "b", 2);
        get(&c, "a", 1); // refresh "a": "b" is now the LRU entry
        get(&c, "c", 3); // evicts "b"
        assert!(c.contains(&key("a")));
        assert!(!c.contains(&key("b")));
        assert!(c.contains(&key("c")));
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        // Re-requesting the evicted key is a fresh miss (rebuild).
        let rebuilt = std::sync::atomic::AtomicBool::new(false);
        c.get_or_build::<()>(key("b"), || {
            rebuilt.store(true, Ordering::Relaxed);
            Ok(2)
        })
        .unwrap();
        assert!(rebuilt.load(Ordering::Relaxed));
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn build_errors_are_not_cached() {
        let c: LruCache<u32> = LruCache::with_capacity(2);
        assert_eq!(c.get_or_build(key("a"), || Err("boom")), Err("boom"));
        assert_eq!(c.len(), 0);
        // The failure did not poison the key: a later success is cached.
        assert_eq!(c.get_or_build::<&str>(key("a"), || Ok(7)), Ok(7));
        assert!(c.contains(&key("a")));
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let c = LruCache::with_capacity(0);
        assert_eq!(c.capacity(), 1);
        get(&c, "a", 1);
        get(&c, "b", 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let c = std::sync::Arc::new(LruCache::with_capacity(8));
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let c = std::sync::Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..100u32 {
                    let k = format!("k{}", (t + i) % 6);
                    let got = c
                        .get_or_build::<()>(vec![k.clone()], || Ok((t + i) % 6))
                        .unwrap();
                    assert_eq!(format!("k{got}"), k);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 800);
        assert_eq!(s.evictions, 0); // 6 keys fit in capacity 8
        assert_eq!(c.len(), 6);
    }
}
