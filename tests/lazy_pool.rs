//! When the interpreter creates its fork-join pool: `Interp::new` spawns
//! no thread until the program's first parallel region, kernel call or
//! concurrent spawn, so a program that never forks never pays for workers.
//! A pool given to `Interp::with_pool` is used from the start, fault plan
//! included.
//!
//! Its own test binary with one test, because it counts the process's
//! threads: no other test may start or end one meanwhile.

#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use cmm::core::{Registry, ALL_EXTENSIONS};
use cmm::forkjoin::faultinject::FaultPlan;
use cmm::forkjoin::ForkJoinPool;
use cmm::loopir::{Interp, IrProgram};

/// Threads of this process, as the kernel lists them.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .count()
}

/// [`threads`] once it reads `n`: a joined thread can stay listed for a
/// moment after `join` returns, until the kernel reaps it.
fn threads_settle_at(n: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let now = threads();
        if now == n || Instant::now() > deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn lowered(src: &str) -> IrProgram {
    let compiler = Registry::standard()
        .compiler(&ALL_EXTENSIONS)
        .expect("full language");
    compiler.compile(src).expect("compiles")
}

const SCALAR: &str = r#"
int twice(int x) { return x + x; }
int main() {
    int s = 0;
    for (int i = 0; i < 100; i = i + 1) { s = s + twice(i); }
    printInt(s);
    return 0;
}
"#;

/// The only parallel loop runs after a sequential prelude, in a branch
/// taken late.
const LATE_LOOP: &str = r#"
int main() {
    int s = 0;
    for (int i = 0; i < 1000; i = i + 1) { s = s + i; }
    printInt(s);
    if (s > 100) {
        int n = 4096;
        Matrix int <1> v = with ([0] <= [i] < [n]) genarray([n], i * 3);
        printInt(with ([0] <= [i] < [n]) fold(+, 0, v[i]));
    }
    return 0;
}
"#;

#[test]
fn the_pool_comes_with_the_first_parallel_region() {
    let (scalar, late) = (lowered(SCALAR), lowered(LATE_LOOP));
    let before = threads();

    // A program that never forks spawns no thread.
    let interp = Interp::new(&scalar, 4);
    interp.run_main().expect("runs");
    assert_eq!(interp.output(), "9900\n");
    assert_eq!(
        threads(),
        before,
        "a region-free program started pool workers"
    );
    drop(interp);

    // A parallel loop in a late branch still gets its pool, which lives as
    // long as the interpreter.
    let interp = Interp::new(&late, 4);
    assert_eq!(threads(), before, "construction started pool workers");
    interp.run_main().expect("runs");
    assert_eq!(interp.output(), "499500\n25159680\n");
    assert_eq!(
        threads(),
        before + 3,
        "the loop ran without its three workers"
    );
    drop(interp);
    assert_eq!(
        threads_settle_at(before),
        before,
        "dropping the interpreter joins its workers"
    );

    // A pool given with a fault plan fails the planned allocation; the plan
    // fired once, so the same pool then runs the program clean.
    let pool = Arc::new(ForkJoinPool::with_fault_plan(
        2,
        FaultPlan::new().fail_alloc(1),
    ));
    let err = Interp::with_pool(&late, Arc::clone(&pool))
        .run_main()
        .expect_err("planned failure");
    assert!(
        err.to_string().contains("injected allocation failure"),
        "{err}"
    );
    let interp = Interp::with_pool(&late, pool);
    interp.run_main().expect("clean rerun");
    assert_eq!(interp.output(), "499500\n25159680\n");
}
