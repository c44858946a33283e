//! Translator-side costs: composing the language (running `isComposable`
//! and building the LALR tables and scanner DFA, the paper's
//! "compiler-generating tools") and translating the Fig 8 application
//! through the full pipeline. Not a paper experiment per se, but the cost
//! the paper's workflow pays per composition — "the cost of the
//! experiment is rather low" (§II).

use cmm_bench::config;
use cmm_core::Registry;
use cmm_eddy::programs::eddy_scoring_program;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("translator");
    g.bench_function("compose_standard_language", |b| {
        b.iter(|| {
            Registry::standard()
                .compiler(&cmm_core::ALL_EXTENSIONS)
                .expect("compose")
        })
    });

    let compiler = Registry::standard()
        .compiler(&cmm_core::ALL_EXTENSIONS)
        .expect("compose");
    let program = eddy_scoring_program("in.cmmx", "out.cmmx");
    g.bench_function("translate_fig8_program", |b| {
        b.iter(|| compiler.compile(&program).expect("translate"))
    });
    g.bench_function("emit_c_fig8_program", |b| {
        let ir = compiler.compile(&program).expect("translate");
        b.iter(|| cmm_loopir::emit::emit_program(&ir).expect("emit"))
    });
    g.bench_function("run_modular_analyses", |b| {
        let registry = Registry::standard();
        b.iter(|| {
            (
                registry.composability_reports(),
                registry.well_definedness_reports(),
            )
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench
}
criterion_main!(benches);
