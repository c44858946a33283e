use crate::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[test]
fn single_thread_pool_runs_inline() {
    let pool = ForkJoinPool::new(1);
    let hit = std::sync::atomic::AtomicBool::new(false);
    pool.run(|tid, n| {
        assert_eq!((tid, n), (0, 1));
        hit.store(true, Ordering::Relaxed);
    });
    assert!(hit.into_inner());
    assert_eq!(pool.regions_run(), 1);
}

#[test]
fn all_tids_run_exactly_once() {
    let pool = ForkJoinPool::new(4);
    for _ in 0..100 {
        let seen = [(); 4].map(|_| AtomicUsize::new(0));
        pool.run(|tid, n| {
            assert_eq!(n, 4);
            seen[tid].fetch_add(1, Ordering::Relaxed);
        });
        for s in &seen {
            assert_eq!(s.load(Ordering::Relaxed), 1);
        }
    }
    assert_eq!(pool.regions_run(), 100);
}

#[test]
fn regions_are_synchronized_barriers() {
    // Writes from region k must be visible in region k+1 without extra
    // synchronization (stop barrier provides happens-before).
    let pool = ForkJoinPool::new(4);
    let data = Mutex::new(vec![0u64; 4]);
    for round in 1..50u64 {
        pool.run(|tid, _| {
            data.lock().unwrap()[tid] = round;
        });
        let d = data.lock().unwrap();
        assert!(d.iter().all(|&v| v == round), "round {round}: {d:?}");
    }
}

#[test]
fn pool_reuses_same_workers() {
    let pool = ForkJoinPool::new(3);
    let ids = Mutex::new(std::collections::HashSet::new());
    for _ in 0..20 {
        pool.run(|_, _| {
            ids.lock().unwrap().insert(std::thread::current().id());
        });
    }
    // 2 workers + main thread.
    assert_eq!(ids.lock().unwrap().len(), 3);
}

#[test]
fn nested_run_executes_in_parallel_not_sequential() {
    let pool = ForkJoinPool::new(2);
    let count = AtomicUsize::new(0);
    pool.run(|_, _| {
        pool.run(|_, n| {
            assert_eq!(n, 2);
            count.fetch_add(1, Ordering::Relaxed);
        });
    });
    // Two outer participants each ran the inner region over 2 virtual
    // tids — through their deques as stealable jobs, never the
    // sequential fallback.
    assert_eq!(count.load(Ordering::Relaxed), 4);
    assert_eq!(pool.nested_sequential_runs(), 0);
    assert_eq!(pool.nested_parallel_runs(), 2);
}

#[test]
fn foreign_thread_on_busy_pool_degrades_to_sequential() {
    // A thread that is NOT a participant of the active region still gets
    // the sequential fallback: it cannot push to anyone's deque.
    let pool = std::sync::Arc::new(ForkJoinPool::new(2));
    let gate = std::sync::Barrier::new(2);
    let count = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let p = std::sync::Arc::clone(&pool);
        let gate = &gate;
        let count = &count;
        s.spawn(move || {
            gate.wait(); // pool is busy with the outer region now
            p.run(|_, n| {
                assert_eq!(n, 2);
                count.fetch_add(1, Ordering::Relaxed);
            });
            gate.wait(); // let the outer region finish
        });
        pool.run(|tid, _| {
            if tid == 0 {
                gate.wait();
                gate.wait();
            }
        });
    });
    assert_eq!(count.load(Ordering::Relaxed), 2);
    assert_eq!(pool.nested_sequential_runs(), 1);
}

#[test]
fn imbalanced_scheduled_region_records_steals() {
    // tid 0 creeps through its partition; the other participants finish
    // theirs and must steal tid 0's pushed-back tail.
    let pool = ForkJoinPool::new(4);
    pool.set_metrics_enabled(true);
    let visited = AtomicUsize::new(0);
    pool.run_scheduled(64, Schedule::Dynamic { chunk: 1 }, |_, range| {
        for i in range {
            if i < 16 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            visited.fetch_add(1, Ordering::Relaxed);
        }
    });
    assert_eq!(visited.into_inner(), 64);
    let m = pool.metrics();
    assert_eq!(m.steals.len(), 4);
    assert!(
        m.steals.iter().sum::<u64>() > 0,
        "slow partition's tail was never stolen: {m:?}"
    );
}

#[test]
fn metrics_disabled_records_nothing() {
    let pool = ForkJoinPool::new(4);
    assert!(!pool.metrics_enabled());
    pool.run(|_, _| {});
    let m = pool.metrics();
    assert_eq!(m.regions_measured, 0);
    assert_eq!(m.region_nanos, 0);
    assert_eq!(m.barrier_wait_nanos, 0);
    assert!(m.busy_nanos.iter().all(|&b| b == 0), "{m:?}");
    assert_eq!(m.imbalance_ratio(), 1.0, "no data reads as balanced");
    // The health counter is independent of metering.
    assert_eq!(pool.regions_run(), 1);
}

#[test]
fn metrics_capture_regions_and_busy_time() {
    let pool = ForkJoinPool::new(4);
    pool.set_metrics_enabled(true);
    for _ in 0..5 {
        pool.run(|_, _| {
            // Do a little real work so busy times are nonzero.
            let mut acc = 0u64;
            for i in 0..20_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            std::hint::black_box(acc);
        });
    }
    let m = pool.metrics();
    assert_eq!(m.regions_measured, 5);
    assert_eq!(m.regions_measured, pool.regions_run());
    assert!(m.region_nanos > 0, "{m:?}");
    assert_eq!(m.busy_nanos.len(), 4);
    assert!(
        m.busy_nanos.iter().all(|&b| b > 0),
        "every participant did work: {m:?}"
    );
    assert!(m.imbalance_ratio() >= 1.0, "{m:?}");

    // reset_metrics zeroes telemetry but not the health counters.
    pool.reset_metrics();
    let m = pool.metrics();
    assert_eq!(m.regions_measured, 0);
    assert_eq!(m.region_nanos, 0);
    assert!(m.busy_nanos.iter().all(|&b| b == 0));
    assert_eq!(pool.regions_run(), 5);
}

#[test]
fn metrics_cover_sequential_and_nested_paths() {
    let pool = ForkJoinPool::new(2);
    pool.set_metrics_enabled(true);
    // Nested regions run as deque job batches but are still measured:
    // the outer region plus one inner region per outer participant.
    pool.run(|_, _| {
        pool.run(|_, _| {});
    });
    let m = pool.metrics();
    assert_eq!(m.regions_measured, 3, "{m:?}");

    let single = ForkJoinPool::new(1);
    single.set_metrics_enabled(true);
    single.run(|_, _| {});
    let m = single.metrics();
    assert_eq!(m.regions_measured, 1);
    assert_eq!(m.busy_nanos.len(), 1);
}

/// A region that finds its worker parked counts a wake-up, and one whose
/// submitter waits long in the stop barrier counts a park there.
#[test]
fn parked_waits_are_counted() {
    let pool = ForkJoinPool::new(2);
    pool.set_metrics_enabled(true);
    let nap = Duration::from_millis(50);
    // The worker spins out its wait and parks.
    std::thread::sleep(nap);
    pool.run(|tid, _| {
        if tid == 1 {
            std::thread::sleep(nap);
        }
    });
    let m = pool.metrics();
    assert_eq!((m.wakeups, m.barrier_parks), (1, 1));
    pool.reset_metrics();
    assert_eq!((pool.metrics().wakeups, pool.metrics().barrier_parks), (0, 0));
}

#[test]
fn imbalance_ratio_math() {
    let m = PoolMetrics {
        regions_measured: 1,
        region_nanos: 100,
        barrier_wait_nanos: 0,
        busy_nanos: vec![100, 50, 50],
        chunks_issued: 0,
        chunks_taken: vec![0, 0, 0],
        steals: vec![0, 0, 0],
        steal_failures: vec![0, 0, 0],
        wakeups: 0,
        barrier_parks: 0,
    };
    // max = 100, mean = 200/3 ≈ 66.7 → ratio 1.5.
    assert!((m.imbalance_ratio() - 1.5).abs() < 1e-9);
    let balanced = PoolMetrics {
        busy_nanos: vec![80, 80],
        ..m.clone()
    };
    assert!((balanced.imbalance_ratio() - 1.0).abs() < 1e-9);
    // All-idle participants are trivially balanced, not "0.0 imbalanced"
    // (which would compare as better than a perfectly balanced run).
    let idle = PoolMetrics {
        busy_nanos: vec![0, 0, 0],
        ..m.clone()
    };
    assert_eq!(idle.imbalance_ratio(), 1.0);
    let empty = PoolMetrics {
        busy_nanos: vec![],
        ..m
    };
    assert_eq!(empty.imbalance_ratio(), 1.0);
}

#[test]
fn naive_run_covers_all_tids() {
    for threads in [1, 2, 3, 8] {
        let seen = Mutex::new(vec![0u32; threads]);
        naive_run(threads, |tid, n| {
            assert_eq!(n, threads);
            seen.lock().unwrap()[tid] += 1;
        });
        assert!(seen.lock().unwrap().iter().all(|&c| c == 1));
    }
}

#[test]
fn parallel_sum_matches_sequential() {
    let pool = ForkJoinPool::new(4);
    let n = 1_000_000usize;
    let total = AtomicU64::new(0);
    pool.run(|tid, nt| {
        let r = chunk_range(n, nt, tid);
        let local: u64 = r.map(|i| i as u64).sum();
        total.fetch_add(local, Ordering::Relaxed);
    });
    assert_eq!(total.into_inner(), (n as u64 - 1) * n as u64 / 2);
}

#[test]
fn drop_joins_workers() {
    // Must not hang or leak: create and drop several pools.
    for _ in 0..5 {
        let pool = ForkJoinPool::new(4);
        pool.run(|_, _| {});
        drop(pool);
    }
}

#[test]
fn zero_threads_clamped_to_one() {
    let pool = ForkJoinPool::new(0);
    assert_eq!(pool.threads(), 1);
    pool.run(|tid, n| assert_eq!((tid, n), (0, 1)));
}

#[test]
fn chunk_range_examples() {
    assert_eq!(chunk_range(10, 1, 0), 0..10);
    assert_eq!(chunk_range(0, 4, 2), 0..0);
    assert_eq!(chunk_range(3, 4, 3), 3..3);
    assert_eq!(chunk_range(7, 2, 0), 0..4);
    assert_eq!(chunk_range(7, 2, 1), 4..7);
}

#[test]
fn map_slices_concatenates_in_slice_order() {
    for threads in [1, 2, 4] {
        let pool = ForkJoinPool::new(threads);
        for count in [0, 1, 3, 10] {
            let got = map_slices(&pool, count, |k| vec![k; k % 3]);
            let want: Vec<usize> = (0..count).flat_map(|k| vec![k; k % 3]).collect();
            assert_eq!(got, want, "{threads} threads, {count} slices");
        }
    }
}

#[test]
fn chunk_range_fewer_items_than_threads() {
    // total < nthreads: the surplus participants must get empty ranges
    // while the chunks still partition 0..total exactly — the interpreter
    // leans on this for parallel loops whose trip count is below the
    // pool width.
    for (total, nthreads) in [(3, 4), (1, 8), (0, 4), (5, 16)] {
        let mut next = 0;
        for tid in 0..nthreads {
            let r = chunk_range(total, nthreads, tid);
            assert_eq!(r.start, next, "gap at tid {tid} of {total}/{nthreads}");
            assert!(r.len() <= 1, "over-wide chunk {r:?} for {total}/{nthreads}");
            next = r.end;
        }
        assert_eq!(next, total, "chunks must cover 0..{total}");
    }
}

#[test]
#[should_panic(expected = "out of range")]
fn chunk_range_tid_checked() {
    let _ = chunk_range(10, 2, 2);
}

proptest! {
    #[test]
    fn prop_chunks_partition_exactly(total in 0usize..10_000, nthreads in 1usize..17) {
        let chunks: Vec<_> = (0..nthreads).map(|t| chunk_range(total, nthreads, t)).collect();
        prop_assert_eq!(chunks.len(), nthreads);
        let mut next = 0;
        for c in &chunks {
            prop_assert_eq!(c.start, next);
            next = c.end;
        }
        prop_assert_eq!(next, total);
        // Balanced: sizes differ by at most one.
        let sizes: Vec<_> = chunks.iter().map(|c| c.len()).collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        prop_assert!(max - min <= 1);
    }

    #[test]
    fn prop_pool_sum_any_shape(n in 0usize..50_000, threads in 1usize..6) {
        let pool = ForkJoinPool::new(threads);
        let total = AtomicU64::new(0);
        pool.run(|tid, nt| {
            let local: u64 = chunk_range(n, nt, tid).map(|i| i as u64 + 1).sum();
            total.fetch_add(local, Ordering::Relaxed);
        });
        prop_assert_eq!(total.into_inner(), (1..=n as u64).sum::<u64>());
    }
}

#[test]
fn try_run_surfaces_worker_panic_as_typed_error() {
    let pool = ForkJoinPool::with_fault_plan(3, FaultPlan::new().panic_at(1, 1));
    let done = [(); 3].map(|_| AtomicUsize::new(0));
    let err = pool
        .try_run(|tid, _| {
            done[tid].fetch_add(1, Ordering::Relaxed);
        })
        .expect_err("injected worker panic must surface as RegionPanic");
    assert_eq!(err.workers, 1);
    assert_eq!(err.epoch, 1);
    // The panicked worker (tid 1) never ran its partition, but the others
    // did, and the stop barrier was fully released: the pool is healthy
    // and the next region runs all partitions.
    assert_eq!(done[0].load(Ordering::Relaxed), 1);
    assert_eq!(done[2].load(Ordering::Relaxed), 1);
    assert_eq!(pool.health().panics_recovered, 1);
    let again = [(); 3].map(|_| AtomicUsize::new(0));
    pool.try_run(|tid, _| {
        again[tid].fetch_add(1, Ordering::Relaxed);
    })
    .expect("pool must be reusable after a recovered panic");
    for a in &again {
        assert_eq!(a.load(Ordering::Relaxed), 1);
    }
}

#[test]
fn try_run_scheduled_panicked_chunk_releases_barrier() {
    // A panic inside a *scheduled chunk* must neither abort the process
    // nor hang the epoch: the worker's catch_unwind still reaches the
    // stop barrier and the caller gets a typed region error while the
    // remaining participants drain the claim counter.
    let pool = ForkJoinPool::with_fault_plan(3, FaultPlan::new().panic_at(1, 1));
    let visited = AtomicUsize::new(0);
    let err = pool
        .try_run_scheduled(64, Schedule::Dynamic { chunk: 4 }, |_, range| {
            visited.fetch_add(range.len(), Ordering::Relaxed);
        })
        .expect_err("injected chunk panic must surface as RegionPanic");
    assert_eq!(err.workers, 1);
    // The surviving participants drained every remaining chunk (only the
    // panicking worker's zero claims are missing — it panicked at region
    // entry before claiming).
    assert_eq!(visited.load(Ordering::Relaxed), 64);
    assert_eq!(pool.health().panics_recovered, 1);
    let clean = AtomicUsize::new(0);
    pool.try_run_scheduled(32, Schedule::Guided { min_chunk: 1 }, |_, range| {
        clean.fetch_add(range.len(), Ordering::Relaxed);
    })
    .expect("scheduled regions must work after recovery");
    assert_eq!(clean.load(Ordering::Relaxed), 32);
}

#[test]
fn run_still_panics_for_compat() {
    let pool = ForkJoinPool::with_fault_plan(2, FaultPlan::new().panic_at(1, 1));
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.run(|_, _| {});
    }));
    assert!(r.is_err(), "run() keeps the re-raise contract");
    assert_eq!(pool.health().panics_recovered, 1);
}

#[test]
fn a_fault_plan_fires_only_in_its_own_pool() {
    // Two pools run their regions side by side, every region of one
    // overlapping a region of the other: the main threads meet at a
    // barrier inside each region body. Worker 1 of the planned pool
    // panics in each of its N regions; the unplanned pool's workers
    // never do, however the two pools' epochs line up.
    const N: u64 = 16;
    let plan = (1..=N).fold(FaultPlan::new(), |plan, epoch| plan.panic_at(epoch, 1));
    let planned = ForkJoinPool::with_fault_plan(3, plan);
    let unplanned = ForkJoinPool::new(3);
    let meet = std::sync::Barrier::new(2);
    let regions = |pool: &ForkJoinPool| {
        (0..N)
            .filter(|_| {
                pool.try_run(|tid, _| {
                    if tid == 0 {
                        meet.wait();
                    }
                })
                .is_err()
            })
            .count() as u64
    };
    let (planned_errors, unplanned_errors) = std::thread::scope(|s| {
        let other = s.spawn(|| regions(&unplanned));
        (regions(&planned), other.join().unwrap())
    });
    assert_eq!(planned_errors, N);
    assert_eq!(planned.health().panics_recovered, N);
    assert_eq!(unplanned_errors, 0);
    assert_eq!(unplanned.health().panics_recovered, 0);
}

#[test]
fn multi_worker_panic_counts_workers() {
    let pool = ForkJoinPool::with_fault_plan(4, FaultPlan::new().panic_at(1, 1).panic_at(1, 2));
    let err = pool.try_run(|_, _| {}).expect_err("two injected panics");
    assert_eq!(err.workers, 2);
    assert_eq!(pool.health().panics_recovered, 2);
}

// ───────────────────── pool reuse / reset API ─────────────────────

#[test]
fn quiescent_pool_resets_for_reuse() {
    let pool = ForkJoinPool::new(3);
    pool.set_metrics_enabled(true);
    let sum = AtomicUsize::new(0);
    pool.run(|tid, _| {
        sum.fetch_add(tid + 1, Ordering::Relaxed);
    });
    assert_eq!(sum.load(Ordering::Relaxed), 6);
    assert!(pool.quiescent(), "stop barrier passed, pool must be quiescent");
    assert!(!pool.tainted());
    assert!(pool.metrics().regions_measured > 0);
    assert!(pool.reset_for_reuse());
    // Reuse-ready means a fresh-looking pool: telemetry zeroed, metrics
    // collection off, full thread count intact.
    assert!(!pool.metrics_enabled());
    assert_eq!(pool.metrics().regions_measured, 0);
    assert_eq!(pool.metrics().chunks_issued, 0);
    assert_eq!(pool.threads(), 3);
    // And it still executes regions correctly afterwards.
    let again = AtomicUsize::new(0);
    pool.run(|tid, _| {
        again.fetch_add(tid + 1, Ordering::Relaxed);
    });
    assert_eq!(again.load(Ordering::Relaxed), 6);
}

#[test]
fn panicked_pool_is_tainted_and_refuses_reuse() {
    let pool = ForkJoinPool::with_fault_plan(2, FaultPlan::new().panic_at(1, 1));
    let err = pool.try_run(|_, _| {}).expect_err("injected panic");
    assert!(err.workers >= 1);
    // The pool recovered (quiescent) but is permanently panic-tainted.
    assert!(pool.quiescent(), "try_run completes the barrier protocol");
    assert!(pool.tainted(), "a recovered panic must taint the pool");
    assert!(!pool.reset_for_reuse(), "tainted pools must never be recycled");
}

#[test]
fn spawn_degraded_pool_is_tainted() {
    let pool = ForkJoinPool::with_fault_plan(4, FaultPlan::new().fail_spawn(2));
    assert!(pool.threads() < 4, "spawn refusal must shrink the pool");
    assert!(pool.tainted(), "a shrunk pool must not be recycled");
    assert!(!pool.reset_for_reuse());
    // It still runs (degraded), it just can't be cached.
    let n = AtomicUsize::new(0);
    pool.run(|_, _| {
        n.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(n.load(Ordering::Relaxed), pool.threads());
}

// ───────────────────── idle waits: spin, then park ─────────────────────

/// The calling thread's `/proc/self/task/<tid>` directory.
#[cfg(target_os = "linux")]
fn own_task_dir() -> std::path::PathBuf {
    let link = std::fs::read_link("/proc/thread-self").expect("/proc/thread-self");
    std::path::Path::new("/proc").join(link)
}

/// User plus system CPU time of the task in `dir`, in milliseconds
/// (`/proc` counts it in `USER_HZ`, 100 ticks a second).
#[cfg(target_os = "linux")]
fn task_cpu_ms(dir: &std::path::Path) -> u64 {
    let stat = std::fs::read_to_string(dir.join("stat")).expect("task stat");
    // utime and stime are fields 14 and 15 of the line, 12 and 13 after
    // the parenthesised command name.
    let rest = &stat[stat.rfind(')').expect("comm") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("tick count");
    (ticks(11) + ticks(12)) * 10
}

#[cfg(target_os = "linux")]
#[test]
fn an_idle_pool_parks_its_worker() {
    let pool = ForkJoinPool::new(2);
    let worker = Mutex::new(None);
    pool.run(|tid, _| {
        if tid == 1 {
            *worker.lock().unwrap() = Some(own_task_dir());
        }
    });
    let worker = worker.into_inner().unwrap().expect("worker 1 ran");
    // Well past the worker's spins.
    std::thread::sleep(Duration::from_millis(20));
    let before = task_cpu_ms(&worker);
    std::thread::sleep(Duration::from_millis(200));
    let used = task_cpu_ms(&worker) - before;
    assert!(used <= 5, "an idle worker used {used} ms of CPU in 200 ms");
}

#[test]
fn dropping_a_parked_pool_joins_promptly() {
    let pool = ForkJoinPool::new(4);
    pool.run(|_, _| {});
    std::thread::sleep(Duration::from_millis(20));
    let t = Instant::now();
    drop(pool);
    let took = t.elapsed();
    assert!(took < Duration::from_millis(100), "drop took {took:?}");
}

#[test]
fn regions_after_seeded_gaps_never_stall() {
    // Gaps of 0–300 µs put the next flip before, at and after the moment
    // a worker parks. A lost wake-up at the start gate shows as a stall
    // (the watchdog unparks the workers, so the run still ends); one in
    // the stop barrier, where the delays make the submitter park, as a
    // barrier wait of a whole stall deadline.
    const REGIONS: u64 = 10_000;
    const DEADLINE: Duration = Duration::from_secs(5);
    let delays = (1..=REGIONS)
        .step_by(97)
        .fold(FaultPlan::new(), |plan, epoch| plan.delay_at(epoch, 1 + epoch as usize % 2, 1));
    for plan in [FaultPlan::new(), delays] {
        let pool = ForkJoinPool::with_fault_plan(3, plan);
        pool.set_stall_timeout(Some(DEADLINE));
        pool.set_metrics_enabled(true);
        let hits = AtomicU64::new(0);
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..REGIONS {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let gap = Duration::from_micros(seed % 301);
            let t = Instant::now();
            while t.elapsed() < gap {
                std::hint::spin_loop();
            }
            pool.run(|_, _| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(hits.into_inner(), 3 * REGIONS);
        let health = pool.health();
        assert_eq!(health.stalls_detected, 0, "{:?}", health.last_stall);
        let waited = Duration::from_nanos(pool.metrics().barrier_wait_nanos);
        assert!(waited < DEADLINE / 2, "{waited:?} in the stop barrier");
    }
}

#[test]
fn parked_workers_keep_the_watchdog_and_the_reuse_gate() {
    // Region 2 starts with its worker parked, then the worker oversleeps
    // the deadline: the stall is reported, and the pool still completes.
    let pool = ForkJoinPool::with_fault_plan(2, FaultPlan::new().delay_at(2, 1, 300));
    pool.set_stall_timeout(Some(Duration::from_millis(50)));
    pool.run(|_, _| {});
    std::thread::sleep(Duration::from_millis(20));
    pool.run(|_, _| {});
    let health = pool.health();
    assert_eq!(health.stalls_detected, 1);
    assert_eq!(health.last_stall.expect("stall").stalled_tids, vec![1]);
    assert!(pool.quiescent());
    assert!(!pool.reset_for_reuse(), "a stalled pool is tainted");

    // A panic in a region that parked workers wake for is recovered.
    let pool = ForkJoinPool::with_fault_plan(3, FaultPlan::new().panic_at(2, 2));
    pool.run(|_, _| {});
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(pool.try_run(|_, _| {}).expect_err("injected panic").workers, 1);
    assert!(pool.quiescent());

    let pool = ForkJoinPool::new(3);
    pool.run(|_, _| {});
    std::thread::sleep(Duration::from_millis(20));
    assert!(pool.quiescent() && pool.reset_for_reuse());
    let sum = AtomicUsize::new(0);
    pool.run(|tid, _| {
        sum.fetch_add(tid + 1, Ordering::Relaxed);
    });
    assert_eq!(sum.into_inner(), 6);
}

/// A deliberate flaw for [`explore`] to find: one handshake with its two
/// steps in the wrong order.
#[derive(Clone, Copy, PartialEq)]
enum Flaw {
    None,
    /// The worker reads the epoch before it counts itself a sleeper.
    GateReadsFirst,
    /// The submitter reads the countdown before it raises its flag.
    BarrierReadsFirst,
}

/// One state of the abstract pool: a submitter (thread 0) that runs
/// `regions` regions and then drops the pool, and its workers (threads
/// 1..). Every step is one SeqCst access, or a park or unpark, so
/// interleaving the steps is the exact model. A thread's `token` is its
/// park token: `unpark` sets it, `park` waits for it and clears it.
/// Spurious wake-ups only add runs that the wait loops re-check, and
/// would hide a lost wake-up, so the model has none.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Model {
    epoch: u8,
    sleepers: u8,
    remaining: u8,
    submitter_parked: bool,
    shutdown: bool,
    token: Vec<bool>,
    /// Program counter, per thread.
    pc: Vec<u8>,
    /// Last value each thread loaded.
    read: Vec<u8>,
    /// Worker's last epoch (submitter: regions run).
    seen: Vec<u8>,
}

const DONE: u8 = 99;

impl Model {
    /// The state after thread `t`'s next step, or `None` when it cannot
    /// step: parked without a token, joining, or done.
    fn step(&self, t: usize, regions: u8, flaw: Flaw) -> Option<Model> {
        let mut m = self.clone();
        let workers = self.pc.len() - 1;
        let (pc, read, seen) = (self.pc[t], self.read[t], self.seen[t]);
        if t == 0 {
            match pc {
                // run_region_locked
                0 if seen == regions => m.pc[t] = 10,
                0 => {
                    m.remaining = workers as u8;
                    m.pc[t] = 1;
                }
                1 => {
                    m.epoch += 1;
                    m.pc[t] = 2;
                }
                2 => {
                    m.read[0] = m.sleepers;
                    m.pc[t] = 3;
                }
                3 => {
                    if read != 0 {
                        m.token[1..].fill(true);
                    }
                    m.pc[t] = 4;
                }
                // RegionGuard::drop: the spin, then flag and re-check.
                4 if m.remaining == 0 => m.pc[t] = 8,
                4 if flaw == Flaw::BarrierReadsFirst => {
                    m.read[0] = m.remaining;
                    m.pc[t] = 5;
                }
                4 => {
                    m.submitter_parked = true;
                    m.pc[t] = 6;
                }
                5 => {
                    m.submitter_parked = true;
                    m.pc[t] = if read == 0 { 8 } else { 7 };
                }
                6 => m.pc[t] = if m.remaining == 0 { 8 } else { 7 },
                7 if m.token[0] => {
                    m.token[0] = false;
                    m.pc[t] = 4;
                }
                7 => return None,
                8 => {
                    m.submitter_parked = false;
                    m.seen[0] += 1;
                    m.pc[t] = 0;
                }
                // Drop: shutdown, flip, unpark every worker, join.
                10 => {
                    m.shutdown = true;
                    m.pc[t] = 11;
                }
                11 => {
                    m.epoch += 1;
                    m.token[1..].fill(true);
                    m.pc[t] = 12;
                }
                12 if self.pc[1..].iter().all(|&p| p == DONE) => m.pc[t] = DONE,
                _ => return None,
            }
            return Some(m);
        }
        match pc {
            // await_epoch: one look while spinning (more looks add
            // nothing), then count itself a sleeper and look again.
            0 if m.epoch != seen => {
                m.read[t] = m.epoch;
                m.pc[t] = 6;
            }
            0 => m.pc[t] = 1,
            1 if flaw == Flaw::GateReadsFirst => {
                m.read[t] = m.epoch;
                m.pc[t] = 2;
            }
            1 => {
                m.sleepers += 1;
                m.pc[t] = 2;
            }
            2 if flaw == Flaw::GateReadsFirst => {
                m.sleepers += 1;
                m.pc[t] = 3;
            }
            2 => {
                m.read[t] = m.epoch;
                m.pc[t] = 3;
            }
            3 if read == seen && m.token[t] => {
                m.token[t] = false;
                m.pc[t] = 4;
            }
            3 if read == seen => return None,
            3 => m.pc[t] = 4,
            4 => {
                m.sleepers -= 1;
                m.pc[t] = if read != seen { 6 } else { 1 };
            }
            // The region, then the stop barrier.
            6 => {
                m.seen[t] = read;
                m.pc[t] = if m.shutdown { DONE } else { 7 };
            }
            7 => {
                m.read[t] = m.remaining;
                m.remaining -= 1;
                m.pc[t] = 8;
            }
            8 if read == 1 => {
                m.read[t] = u8::from(m.submitter_parked);
                m.pc[t] = 9;
            }
            8 => m.pc[t] = 0,
            9 => {
                if read == 1 {
                    m.token[0] = true;
                }
                m.pc[t] = 0;
            }
            _ => return None,
        }
        Some(m)
    }
}

/// Every interleaving of `workers` workers and a submitter running
/// `regions` regions: the number of states, or a state in which no
/// thread can step before the pool is dropped (a lost wake-up).
fn explore(workers: usize, regions: u8, flaw: Flaw) -> Result<usize, String> {
    let threads = workers + 1;
    let start = Model {
        epoch: 0,
        sleepers: 0,
        remaining: 0,
        submitter_parked: false,
        shutdown: false,
        token: vec![false; threads],
        pc: vec![0; threads],
        read: vec![0; threads],
        seen: vec![0; threads],
    };
    let mut seen = std::collections::HashSet::from([start.clone()]);
    let mut stack = vec![start];
    while let Some(state) = stack.pop() {
        let next: Vec<Model> = (0..threads).filter_map(|t| state.step(t, regions, flaw)).collect();
        if next.is_empty() && state.pc[0] != DONE {
            return Err(format!("stuck at pc {:?}, tokens {:?}", state.pc, state.token));
        }
        for n in next {
            if seen.insert(n.clone()) {
                stack.push(n);
            }
        }
    }
    Ok(seen.len())
}

#[test]
fn park_handshakes_lose_no_wake_up_in_any_interleaving() {
    for workers in 1..=2 {
        for regions in 1..=3 {
            let states = explore(workers, regions, Flaw::None)
                .unwrap_or_else(|e| panic!("{workers} worker(s), {regions} region(s): {e}"));
            assert!(states > 10, "{states} states");
        }
    }
    // The check has teeth: either handshake with its steps swapped loses
    // a wake-up.
    assert!(explore(1, 1, Flaw::GateReadsFirst).is_err());
    assert!(explore(1, 1, Flaw::BarrierReadsFirst).is_err());
}
