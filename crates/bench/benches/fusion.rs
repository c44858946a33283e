//! Experiment E11 at the compiler level — the §III-A4 high-level
//! optimizations, measured end to end on compiled programs running on the
//! interpreter: with-loop/assignment copy elision on vs off (the
//! "library implementation" strawman), and slice-index fusion on vs off
//! (the removed "copied slice of mat").

use cmm_bench::config;
use cmm_core::Registry;
use cmm_lang::LowerOptions;
use cmm_loopir::Interp;
use criterion::{criterion_group, criterion_main, Criterion};

const PROGRAM_ASSIGN: &str = r#"
int main() {
    int n = 64;
    Matrix float <2> acc = init(Matrix float <2>, n, n);
    for (int r = 0; r < 10; r++) {
        acc = with ([0, 0] <= [i, j] < [n, n])
            genarray([n, n], toFloat(i + j + r));
    }
    printFloat(acc[0, 0]);
    return 0;
}
"#;

const PROGRAM_SLICE: &str = r#"
int main() {
    int n = 48;
    int p = 64;
    Matrix float <2> mat = init(Matrix float <2>, n, p);
    Matrix float <1> sums = with ([0] <= [i] < [n])
        genarray([n],
            with ([0] <= [k] < [p]) fold(+, 0.0, mat[i, :][k]));
    printFloat(sums[0]);
    return 0;
}
"#;

fn compile(src: &str, opts: LowerOptions) -> cmm_loopir::IrProgram {
    let registry = Registry::standard();
    let mut compiler = registry
        .compiler(&cmm_core::ALL_EXTENSIONS)
        .expect("compose");
    compiler.options = opts;
    compiler.compile(src).expect("translate")
}

fn bench(c: &mut Criterion) {
    {
        let fused = compile(PROGRAM_ASSIGN, LowerOptions::default());
        let library = compile(
            PROGRAM_ASSIGN,
            LowerOptions {
                fuse_with_assign: false,
                ..Default::default()
            },
        );
        let mut g = c.benchmark_group("fusion_with_assign");
        g.bench_function("copy_elision_on", |b| {
            b.iter(|| Interp::new(&fused, 1).run_main().expect("run"))
        });
        g.bench_function("library_copy", |b| {
            b.iter(|| Interp::new(&library, 1).run_main().expect("run"))
        });
        g.finish();
    }
    {
        let fused = compile(PROGRAM_SLICE, LowerOptions::default());
        let materialized = compile(
            PROGRAM_SLICE,
            LowerOptions {
                fuse_slice_index: false,
                ..Default::default()
            },
        );
        let mut g = c.benchmark_group("fusion_slice_index");
        g.bench_function("slice_fusion_on", |b| {
            b.iter(|| Interp::new(&fused, 1).run_main().expect("run"))
        });
        g.bench_function("slice_materialized", |b| {
            b.iter(|| Interp::new(&materialized, 1).run_main().expect("run"))
        });
        g.finish();
    }
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench
}
criterion_main!(benches);
