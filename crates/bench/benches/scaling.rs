//! Experiment E8 — the §V scaling claim: speedup vs pool threads of
//! `matrixMap` (eddy scoring) and the native temporal-mean kernel. Read
//! against the machine's raw 2-thread ceiling (see
//! `examples/scaling_report.rs` and EXPERIMENTS.md).

use cmm_bench::{config, cube, cube_matrix};
use cmm_eddy::score_all;
use cmm_forkjoin::ForkJoinPool;
use cmm_runtime::kernels::temporal_mean_parallel;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let threads = [1usize, 2, 4];

    {
        let ssh = cube_matrix(48, 64, 128);
        let mut g = c.benchmark_group("scaling_matrixmap_scoring");
        for &t in &threads {
            let pool = ForkJoinPool::new(t);
            g.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, _| {
                b.iter(|| score_all(&pool, black_box(&ssh)).expect("scoring"))
            });
        }
        g.finish();
    }

    {
        let (m, n, p) = (64, 128, 96);
        let mat = cube(m, n, p);
        let mut means = vec![0.0f32; m * n];
        let mut g = c.benchmark_group("scaling_temporal_mean_kernel");
        for &t in &threads {
            let pool = ForkJoinPool::new(t);
            g.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, _| {
                b.iter(|| temporal_mean_parallel(&pool, black_box(&mat), m, n, p, &mut means))
            });
        }
        g.finish();
    }
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench
}
criterion_main!(benches);
