//! Property-based schedule-equivalence tests: a parallel loop must
//! compute the same result under every scheduling policy — static,
//! dynamic with any chunk size, guided — as the sequential single-thread
//! execution, because schedules only repartition *which participant runs
//! which iterations*, never the iteration space itself. Folds lower
//! sequentially, so even float programs must agree bitwise.
//!
//! A second family re-checks equivalence under deterministic fault
//! injection (a refused worker spawn shrinks the pool), pinning down
//! that the chunk-claim protocol keys off the *live* participant count
//! and drops no iterations when the pool comes up short.

use std::sync::Arc;

use cmm::core::Compiler;
use cmm::eddy::programs::full_compiler;
use cmm::forkjoin::faultinject::FaultPlan;
use cmm::forkjoin::{ForkJoinPool, Schedule};
use cmm::loopir::Limits;
use cmm::runtime::kernels::{matmul_naive, matmul_parallel, matmul_parallel_blocked, matmul_tiled};
use proptest::prelude::*;

fn run_sched(c: &Compiler, src: &str, threads: usize, schedule: Schedule) -> (String, u32) {
    let r = c
        .run_with_schedule(src, threads, Limits::default(), schedule)
        .expect("program runs");
    (r.output, r.leaked)
}

/// Every policy the self-scheduler supports, with the chunk parameter
/// swept over `chunk`.
fn all_schedules(chunk: usize) -> Vec<Schedule> {
    vec![
        Schedule::Static,
        Schedule::Dynamic { chunk },
        Schedule::Guided { min_chunk: chunk },
    ]
}

/// Data-dependent imbalanced program: row i does `v[i] % 7 + 7` units of
/// inner work, so chunks are genuinely uneven and a scheduling bug that
/// skips or duplicates iterations shows up in the printed sum.
fn imbalanced_program(vals: &[i64]) -> String {
    let n = vals.len();
    let assigns: String = vals
        .iter()
        .enumerate()
        .map(|(i, v)| format!("v[{i}] = {v};\n"))
        .collect();
    format!(
        r#"
        int rowWork(Matrix int <1> v, int i) {{
            int w = v[i] - (v[i] / 7) * 7 + 7;
            return with ([0] <= [j] < [w]) fold(+, 0, v[i] + j);
        }}
        int main() {{
            Matrix int <1> v = init(Matrix int <1>, {n});
            {assigns}
            Matrix int <1> work = with ([0] <= [i] < [{n}])
                genarray([{n}], rowWork(v, i));
            printInt(with ([0] <= [i] < [{n}]) fold(+, 0, work[i]));
            return 0;
        }}
        "#
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_schedules_match_sequential(
        vals in proptest::collection::vec(0i64..50, 1..24),
        threads in 2usize..5,
        chunk in 1usize..9,
    ) {
        let c = full_compiler();
        let src = imbalanced_program(&vals);
        let (seq, seq_leaked) = run_sched(&c, &src, 1, Schedule::Static);
        prop_assert_eq!(seq_leaked, 0);
        for schedule in all_schedules(chunk) {
            let (out, leaked) = run_sched(&c, &src, threads, schedule);
            prop_assert_eq!(leaked, 0, "leak under {:?}", schedule);
            prop_assert_eq!(&out, &seq, "output diverged under {:?}", schedule);
        }
    }

    #[test]
    fn prop_float_schedules_bitwise_identical(
        n in 1usize..32,
        threads in 2usize..5,
        chunk in 1usize..9,
    ) {
        // Folds lower sequentially (only genarray loops parallelize, and
        // they write disjoint elements), so float output must be bitwise
        // identical across schedules — not merely close.
        let c = full_compiler();
        let src = format!(
            r#"
            int main() {{
                Matrix float <1> v = with ([0] <= [i] < [{n}])
                    genarray([{n}], toFloat(i) * 0.3 + 1.0 / toFloat(i + 1));
                printFloat(with ([0] <= [i] < [{n}]) fold(+, 0.0, v[i]));
                return 0;
            }}
            "#
        );
        let (seq, _) = run_sched(&c, &src, 1, Schedule::Static);
        for schedule in all_schedules(chunk) {
            let (out, leaked) = run_sched(&c, &src, threads, schedule);
            prop_assert_eq!(leaked, 0);
            prop_assert_eq!(&out, &seq, "float drift under {:?}", schedule);
        }
    }

    #[test]
    fn prop_per_loop_directive_matches_sequential(
        vals in proptest::collection::vec(0i64..40, 2..16),
        threads in 2usize..5,
        chunk in 1usize..7,
    ) {
        // The per-loop `schedule` transform directive pins the policy on
        // one loop; results must still match the plain sequential run.
        let c = full_compiler();
        let n = vals.len();
        let assigns: String = vals
            .iter()
            .enumerate()
            .map(|(i, v)| format!("v[{i}] = {v};\n"))
            .collect();
        let plain = format!(
            r#"
            int main() {{
                Matrix int <1> v = init(Matrix int <1>, {n});
                {assigns}
                Matrix int <1> w = init(Matrix int <1>, {n});
                w = with ([0] <= [x] < [{n}])
                    genarray([{n}], v[x] * 3 + x){{}};
                printInt(with ([0] <= [x] < [{n}]) fold(+, 0, w[x]));
                return 0;
            }}
            "#
        );
        let (seq, _) = run_sched(&c, &plain.replace("{}", ""), 1, Schedule::Static);
        for directive in [
            format!("\n    transform schedule x dynamic, {chunk}"),
            format!("\n    transform schedule x guided, {chunk}"),
            "\n    transform schedule x static".to_string(),
        ] {
            let src = plain.replace("{}", &directive);
            let (out, leaked) = run_sched(&c, &src, threads, Schedule::Static);
            prop_assert_eq!(leaked, 0);
            prop_assert_eq!(&out, &seq, "directive {} diverged", directive.trim());
        }
    }

    #[test]
    fn prop_blocked_matmul_bitwise_identical_to_naive(
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..24,
        tile in 1usize..12,
        threads in 1usize..5,
        seed in any::<u64>(),
    ) {
        // Cache blocking and work stealing only reorder *which* (i0, k0,
        // j0) block is computed when; per output element the k
        // accumulation always ascends from zero, so every variant —
        // sequential tiled at any tile size, row-parallel, and the
        // blocked self-scheduled kernel under stealing — must be bitwise
        // identical to the naive triple loop, not merely close.
        let mut state = seed | 1;
        let mut next = || {
            // xorshift64*: deterministic, no external RNG dependency.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / 65536.0 - 128.0
        };
        let a: Vec<f32> = (0..m * k).map(|_| next()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
        let mut want = vec![0.0f32; m * n];
        matmul_naive(&a, &b, &mut want, m, k, n);
        let bits = |c: &[f32]| c.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();

        let mut tiled = vec![0.0f32; m * n];
        matmul_tiled(&a, &b, &mut tiled, m, k, n, tile);
        prop_assert_eq!(bits(&tiled), bits(&want), "tiled t={} drifted", tile);

        let pool = ForkJoinPool::new(threads);
        let mut par = vec![0.0f32; m * n];
        matmul_parallel(&pool, &a, &b, &mut par, m, k, n);
        prop_assert_eq!(bits(&par), bits(&want), "row-parallel drifted");

        let mut blocked = vec![0.0f32; m * n];
        matmul_parallel_blocked(&pool, &a, &b, &mut blocked, m, k, n);
        prop_assert_eq!(bits(&blocked), bits(&want), "blocked stolen kernel drifted");
    }

    #[test]
    fn prop_nested_spawn_matches_sequential_reference(
        depth in 3u32..11,
        threads in 2usize..5,
    ) {
        // Recursive spawn: fib(n) spawns fib(n-1)/fib(n-2), whose syncs
        // fire *inside* the outer parallel region. Under the deque
        // substrate those children are pushed onto the current worker's
        // deque and stolen — the result must still equal the 1-thread
        // reference for every depth and pool width.
        let c = full_compiler();
        let src = format!(
            r#"
            int fib(int n) {{
                if (n < 2) {{ return n; }}
                int a = 0;
                int b = 0;
                spawn a = fib(n - 1);
                spawn b = fib(n - 2);
                sync;
                return a + b;
            }}
            int main() {{
                printInt(fib({depth}));
                return 0;
            }}
            "#
        );
        let (seq, seq_leaked) = run_sched(&c, &src, 1, Schedule::Static);
        prop_assert_eq!(seq_leaked, 0);
        for schedule in all_schedules(2) {
            let (out, leaked) = run_sched(&c, &src, threads, schedule);
            prop_assert_eq!(leaked, 0, "leak under {:?}", schedule);
            prop_assert_eq!(&out, &seq, "nested spawn diverged under {:?}", schedule);
        }
    }

    #[test]
    fn prop_schedules_match_under_fault_injection(
        vals in proptest::collection::vec(0i64..50, 1..16),
        chunk in 1usize..9,
    ) {
        // A refused spawn shrinks the pool (requested 4, got 2): every
        // schedule must still cover the full iteration space through the
        // shared-counter claim loop.
        let c = full_compiler();
        let src = imbalanced_program(&vals);
        let (seq, leaked) = run_sched(&c, &src, 1, Schedule::Static);
        prop_assert_eq!(leaked, 0);
        for schedule in all_schedules(chunk) {
            let pool = Arc::new(ForkJoinPool::with_fault_plan(4, FaultPlan::new().fail_spawn(2)));
            let r = c
                .run_on_pool(&src, pool, Limits::default(), schedule)
                .expect("program runs on the shrunk pool");
            prop_assert_eq!(r.leaked, 0, "leak under {:?} with shrunk pool", schedule);
            prop_assert_eq!(&r.output, &seq, "shrunk-pool divergence under {:?}", schedule);
        }
    }
}
