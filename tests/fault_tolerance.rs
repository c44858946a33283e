//! Fault-tolerance and resource-limit integration tests.
//!
//! Every test builds a pool with a deterministic [`FaultPlan`] (or runs a
//! program under [`Limits`]) and asserts that the system degrades the
//! way the design promises: pools survive worker panics, the watchdog
//! names stalled workers, failed spawns shrink the pool, injected
//! allocation failures surface as errors instead of leaks, and exceeded
//! budgets produce structured `Limit` errors. A plan belongs to the pool
//! it was built into, so these tests run side by side under the default
//! parallel runner without seeing each other's faults.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use cmm::core::{CompileError, Compiler, Registry, RunResult};
use cmm::forkjoin::faultinject::FaultPlan;
use cmm::forkjoin::{chunk_range, ForkJoinPool, Schedule};
use cmm::loopir::{LimitKind, Limits};

fn compiler() -> Compiler {
    Registry::standard()
        .compiler(&["ext-matrix", "ext-tuples", "ext-rcptr", "ext-transform", "ext-cilk"])
        .expect("standard composition")
}

const INFINITE_LOOP: &str = r#"
int main() {
    int n = 0;
    while (1 > 0) { n = n + 1; }
    return 0;
}
"#;

const BIG_ALLOC: &str = r#"
int main() {
    int n = 1000000;
    Matrix int <1> v = with ([0] <= [i] < [n]) genarray([n], i);
    printInt(v[0]);
    return 0;
}
"#;

const SMALL_PROGRAM: &str = r#"
int main() {
    int n = 8;
    Matrix int <1> v = with ([0] <= [i] < [n]) genarray([n], i * i);
    printInt(with ([0] <= [i] < [n]) fold(+, 0, v[i]));
    return 0;
}
"#;

/// Sum 0..100 over the pool and check the result — the "is the pool still
/// functional" probe used after every injected failure.
fn pool_still_works(pool: &ForkJoinPool) {
    let sum = AtomicUsize::new(0);
    pool.run(|tid, nthreads| {
        sum.fetch_add(chunk_range(100, nthreads, tid).sum::<usize>(), Ordering::Relaxed);
    });
    assert_eq!(sum.into_inner(), (0..100).sum::<usize>());
}

/// Run `src` on `pool` with default limits and the static schedule.
fn run_on(c: &Compiler, src: &str, pool: &Arc<ForkJoinPool>) -> Result<RunResult, CompileError> {
    c.run_on_pool(src, Arc::clone(pool), Limits::default(), Schedule::Static)
}

fn assert_injected_alloc_failure(result: Result<RunResult, CompileError>) {
    match result {
        Err(CompileError::Runtime(msg)) => {
            assert!(msg.contains("injected allocation failure"), "{msg}")
        }
        other => panic!("expected an injected Runtime error, got {other:?}"),
    }
}

#[test]
fn pool_survives_repeated_worker_panics() {
    let pool = ForkJoinPool::with_fault_plan(
        4,
        FaultPlan::new()
            .panic_at(1, 1)
            .panic_at(2, 1)
            .panic_at(3, 2),
    );
    for round in 1..=3u64 {
        let r = catch_unwind(AssertUnwindSafe(|| pool.run(|_, _| {})));
        assert!(r.is_err(), "round {round}: injected panic must re-raise on main");
        assert_eq!(pool.health().panics_recovered, round);
    }
    // After three injected panics the pool must be fully healthy.
    pool_still_works(&pool);
    let h = pool.health();
    assert_eq!(h.panics_recovered, 3);
    assert_eq!(h.threads, 4);
}

#[test]
fn watchdog_reports_stalled_worker() {
    let pool = ForkJoinPool::with_fault_plan(3, FaultPlan::new().delay_at(1, 1, 300));
    pool.set_stall_timeout(Some(Duration::from_millis(50)));
    pool.run(|_, _| {});
    let h = pool.health();
    assert!(h.stalls_detected >= 1, "watchdog must fire: {h:?}");
    let stall = h.last_stall.expect("stall recorded");
    assert_eq!(stall.region, 1);
    assert!(
        stall.stalled_tids.contains(&1),
        "delayed worker 1 must be named: {stall:?}"
    );
    assert!(stall.waited >= Duration::from_millis(50));
    // The region completed despite the stall — and the next one is clean.
    pool_still_works(&pool);
    assert_eq!(pool.health().stalls_detected, h.stalls_detected);
}

#[test]
fn failed_spawn_shrinks_pool() {
    let pool = ForkJoinPool::with_fault_plan(4, FaultPlan::new().fail_spawn(2));
    let h = pool.health();
    assert_eq!(h.requested_threads, 4);
    assert_eq!(h.threads, 2, "worker 1 spawned, worker 2 refused: {h:?}");
    assert_eq!(h.spawn_failures, 2);
    // The shrunk pool still partitions work correctly.
    pool_still_works(&pool);
}

#[test]
fn injected_interp_alloc_failure_then_clean_rerun() {
    let c = compiler();
    let pool = Arc::new(ForkJoinPool::with_fault_plan(2, FaultPlan::new().fail_alloc(1)));
    assert_injected_alloc_failure(run_on(&c, SMALL_PROGRAM, &pool));
    // The plan failed the pool's first allocation only: the same program
    // on the same pool now runs leak-free.
    let result = run_on(&c, SMALL_PROGRAM, &pool).expect("clean rerun");
    assert_eq!(result.output, "140\n");
    assert_eq!(result.leaked, 0);
}

#[test]
fn an_alloc_failure_fires_only_on_its_own_pool() {
    // Each round, one thread runs on a pool whose first allocation fails
    // while another runs the same program on an unplanned pool, both
    // released by one barrier. The planned run always fails; the
    // unplanned one never does, however their allocations interleave.
    let c = compiler();
    let start = Barrier::new(2);
    for round in 0..8 {
        let planned = Arc::new(ForkJoinPool::with_fault_plan(2, FaultPlan::new().fail_alloc(1)));
        let unplanned = Arc::new(ForkJoinPool::new(2));
        let (failed, clean) = std::thread::scope(|s| {
            let other = s.spawn(|| {
                start.wait();
                run_on(&c, SMALL_PROGRAM, &unplanned)
            });
            start.wait();
            (run_on(&c, SMALL_PROGRAM, &planned), other.join().unwrap())
        });
        assert_injected_alloc_failure(failed);
        let clean = clean.unwrap_or_else(|e| panic!("round {round}: unplanned run failed: {e:?}"));
        assert_eq!(clean.output, "140\n");
        assert_eq!(clean.leaked, 0);
    }
}

#[test]
fn fuel_limit_stops_infinite_loop() {
    let c = compiler();
    let limits = Limits {
        fuel: Some(10_000),
        ..Limits::default()
    };
    let err = c
        .run_with_limits(INFINITE_LOOP, 2, limits)
        .expect_err("infinite loop must exhaust fuel");
    match err {
        CompileError::Limit { kind, message } => {
            assert_eq!(kind, LimitKind::Fuel);
            assert!(message.contains("fuel budget"), "{message}");
        }
        other => panic!("expected Limit error, got {other:?}"),
    }
}

#[test]
fn deadline_limit_stops_infinite_loop() {
    let c = compiler();
    let limits = Limits {
        deadline: Some(Duration::from_millis(50)),
        ..Limits::default()
    };
    let err = c
        .run_with_limits(INFINITE_LOOP, 2, limits)
        .expect_err("infinite loop must hit the deadline");
    match err {
        CompileError::Limit { kind, .. } => assert_eq!(kind, LimitKind::Deadline),
        other => panic!("expected Limit error, got {other:?}"),
    }
}

#[test]
fn memory_limit_rejects_oversized_matrix() {
    let c = compiler();
    let limits = Limits {
        max_matrix_bytes: Some(64 * 1024),
        ..Limits::default()
    };
    let err = c
        .run_with_limits(BIG_ALLOC, 2, limits)
        .expect_err("4 MB matrix must exceed the 64 KB budget");
    match err {
        CompileError::Limit { kind, message } => {
            assert_eq!(kind, LimitKind::Memory);
            assert!(message.contains("matrix budget"), "{message}");
        }
        other => panic!("expected Limit error, got {other:?}"),
    }
}

#[test]
fn live_buffer_limit_rejects_first_allocation() {
    let c = compiler();
    let limits = Limits {
        max_live_buffers: Some(0),
        ..Limits::default()
    };
    let err = c
        .run_with_limits(SMALL_PROGRAM, 2, limits)
        .expect_err("budget of zero live buffers rejects any allocation");
    match err {
        CompileError::Limit { kind, .. } => assert_eq!(kind, LimitKind::LiveBuffers),
        other => panic!("expected Limit error, got {other:?}"),
    }
}

#[test]
fn generous_limits_do_not_change_behaviour() {
    let c = compiler();
    let limits = Limits {
        fuel: Some(10_000_000),
        max_matrix_bytes: Some(1 << 30),
        max_live_buffers: Some(1 << 20),
        deadline: Some(Duration::from_secs(60)),
    };
    let result = c
        .run_with_limits(SMALL_PROGRAM, 2, limits)
        .expect("program fits comfortably in the budgets");
    assert_eq!(result.output, "140\n");
    assert_eq!(result.leaked, 0);
}
