//! Experiments E8/E9: the paper's quantitative claims, measured.
//!
//! * §V: the parallel code generated from the matrix constructs "scales
//!   nearly linearly with the number of cores" — measured here as
//!   speedup vs pool threads for the with-loop temporal mean, parallel
//!   `matrixMap` scoring, and the compiled Fig 1 program.
//! * §III-C: the enhanced fork-join model (persistent spin-barrier pool)
//!   vs the naive spawn-per-region model, and what one empty region and
//!   an idle pool cost.
//!
//! Run with `--release`; thread counts beyond the machine's cores are
//! included to show saturation (this container has few cores — the
//! paper's testbed had two 6-core processors).
//!
//! ```sh
//! cargo run --release --example scaling_report
//! ```

use std::time::{Duration, Instant};

use cmm::eddy::programs::{full_compiler, temporal_mean_program};
use cmm::eddy::{score_all, synthetic_ssh, write_f32, SshParams};
use cmm::forkjoin::{naive_run, ForkJoinPool};
use cmm::runtime::kernels::temporal_mean_parallel;

fn time<F: FnMut()>(mut f: F, reps: usize) -> f64 {
    // One warmup, then best-of-reps wall time in milliseconds.
    f();
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::MAX, f64::min)
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("machine cores: {cores}");
    // Calibration: raw two-thread speedup of pure ALU work on this
    // machine. Shared/hyperthreaded vCPUs commonly top out well below 2x;
    // all speedups below should be read against this ceiling.
    {
        #[inline(never)]
        fn spin(n: u64, seed: u64) -> u64 {
            let mut acc = seed;
            for i in 0..n {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            acc
        }
        let n = 400_000_000u64;
        let t1 = time(
            || {
                std::hint::black_box(spin(n, 1));
            },
            3,
        );
        let t2 = time(
            || {
                std::thread::scope(|s| {
                    let h = s.spawn(|| std::hint::black_box(spin(n / 2, 2)));
                    std::hint::black_box(spin(n / 2, 3));
                    h.join().expect("join");
                });
            },
            3,
        );
        println!(
            "raw 2-thread ALU ceiling on this machine: {:.2}x\n",
            t1 / t2
        );
    }
    let threads = [1usize, 2, 4];

    // --- E8a: native with-loop temporal mean --------------------------
    let (m, n, p) = (96usize, 192usize, 128usize);
    let mat: Vec<f32> = (0..m * n * p).map(|x| (x % 101) as f32 * 0.01).collect();
    let mut means = vec![0.0f32; m * n];
    println!("E8a — temporal mean ({m}x{n}x{p}), with-loop kernel");
    println!("{:<9} {:>10} {:>9}", "threads", "ms", "speedup");
    let mut t1 = 0.0;
    for &t in &threads {
        let pool = ForkJoinPool::new(t);
        let ms = time(|| temporal_mean_parallel(&pool, &mat, m, n, p, &mut means), 5);
        if t == 1 {
            t1 = ms;
        }
        println!("{t:<9} {ms:>10.2} {:>8.2}x", t1 / ms);
    }

    // --- E8b: parallel matrixMap eddy scoring --------------------------
    let scored = SshParams {
        lat: 48,
        lon: 64,
        time: 128,
        ..Default::default()
    };
    let cube = synthetic_ssh(&scored);
    println!("\nE8b — eddy scoring via matrixMap (48x64x128)");
    println!("{:<9} {:>10} {:>9}", "threads", "ms", "speedup");
    let mut t1 = 0.0;
    for &t in &threads {
        let pool = ForkJoinPool::new(t);
        let ms = time(|| drop(score_all(&pool, &cube, scored.dims())), 3);
        if t == 1 {
            t1 = ms;
        }
        println!("{t:<9} {ms:>10.2} {:>8.2}x", t1 / ms);
    }

    // --- E8c: the compiled Fig 1 program -------------------------------
    let dir = std::env::temp_dir();
    let input = dir.join("cmm_scale_in.cmmx").display().to_string();
    let output = dir.join("cmm_scale_out.cmmx").display().to_string();
    let small = SshParams {
        lat: 32,
        lon: 48,
        time: 64,
        ..Default::default()
    };
    write_f32(&input, &small.dims(), &synthetic_ssh(&small)).expect("write input");
    let compiler = full_compiler();
    let program = temporal_mean_program(&input, &output, "");
    // Translate once; time only execution (the paper measures the
    // generated code, not the translator).
    let ir = compiler.compile(&program).expect("translate");
    println!("\nE8c — compiled Fig 1 program on the interpreter (32x48x64)");
    println!("{:<9} {:>10} {:>9}", "threads", "ms", "speedup");
    let mut t1 = 0.0;
    for &t in &threads {
        let ms = time(
            || {
                let interp = cmm::loopir::Interp::new(&ir, t);
                interp.run_main().expect("run");
            },
            3,
        );
        if t == 1 {
            t1 = ms;
        }
        println!("{t:<9} {ms:>10.2} {:>8.2}x", t1 / ms);
    }
    std::fs::remove_file(&input).ok();
    std::fs::remove_file(&output).ok();

    // --- E9: enhanced fork-join vs naive spawn-per-region ---------------
    println!("\nE9 — thread management overhead (§III-C), 200 parallel regions");
    let regions = 200;
    let work = 20_000usize;
    let body = |tid: usize, nt: usize| {
        let r = cmm::forkjoin::chunk_range(work, nt, tid);
        let mut acc = 0u64;
        for i in r {
            acc = acc.wrapping_add((i as u64).wrapping_mul(2654435761));
        }
        std::hint::black_box(acc);
    };
    for &t in &[2usize, 4] {
        let pool = ForkJoinPool::new(t);
        let pool_ms = time(
            || {
                for _ in 0..regions {
                    pool.run(body);
                }
            },
            3,
        );
        let naive_ms = time(
            || {
                for _ in 0..regions {
                    naive_run(t, body);
                }
            },
            3,
        );
        println!(
            "  {t} threads: enhanced pool {pool_ms:8.2} ms   naive spawn {naive_ms:8.2} ms   ({:.1}x)",
            naive_ms / pool_ms
        );
    }

    // --- E9b: one empty region, and an idle pool -------------------------
    println!("\nE9b — 2000 empty 2-thread regions, and an idle pool");
    let pool = ForkJoinPool::new(2);
    for gap_us in [0u64, 200] {
        let (median, mean) = region_us(&pool, Duration::from_micros(gap_us));
        println!(
            "  after {gap_us:>3} us of main-thread work: median {median:7.2} us, mean {mean:7.2} us per region"
        );
    }
    std::thread::sleep(Duration::from_millis(50));
    match process_cpu_ticks() {
        Some(before) => {
            std::thread::sleep(Duration::from_secs(1));
            let ticks = process_cpu_ticks().unwrap_or(before) - before;
            println!("  idle pool, 1 s: {:.2} CPU", ticks as f64 / CLOCK_TICKS_PER_S);
        }
        None => println!("  idle pool: no /proc/self/stat on this host"),
    }
}

/// Median and mean wall time of one empty region on `pool`, each issued
/// after `gap` of busy work on the calling thread.
fn region_us(pool: &ForkJoinPool, gap: Duration) -> (f64, f64) {
    let mut samples: Vec<f64> = (0..2000)
        .map(|_| {
            let t = Instant::now();
            while t.elapsed() < gap {
                std::hint::spin_loop();
            }
            let t = Instant::now();
            pool.run(|_, _| {});
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    (samples[samples.len() / 2], mean)
}

/// `USER_HZ`, the unit of `/proc` CPU times on Linux.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// CPU time this process has used (user + system), in clock ticks.
fn process_cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The fields after the parenthesised command name; utime and stime
    // are fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    Some(fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?)
}
