//! Translator-side costs: composing the language (running `isComposable`
//! and building the LALR tables and scanner DFA, the paper's
//! "compiler-generating tools") and translating the Fig 8 application
//! through the full pipeline. Not a paper experiment per se, but the cost
//! the paper's workflow pays per composition — "the cost of the
//! experiment is rather low" (§II). The standard full language is
//! verified and built when `cmm-core` is built; any other composition once
//! per process, and found in the cache afterwards. So the cold pieces are
//! timed one by one over the public `cmm_grammar` functions and
//! `compose_warm` times what every later `Registry::compiler` call pays.

use cmm_bench::config;
use cmm_core::Registry;
use cmm_eddy::programs::eddy_scoring_program;
use cmm_grammar::dfa::Dfa;
use cmm_grammar::{is_composable, lalr, ComposedGrammar};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("translator");
    let registry = Registry::standard();
    let fragments: Vec<_> = registry.extensions().iter().map(|e| &e.grammar).collect();
    let full = ComposedGrammar::compose(registry.host(), &fragments).expect("compose");
    g.bench_function("build_lalr_full_language", |b| {
        b.iter(|| lalr::build(&full).num_states)
    });
    g.bench_function("build_scanner_full_language", |b| {
        b.iter(|| Dfa::build(&full.patterns[1..]).num_states())
    });
    let matrix = &registry.extensions()[0];
    assert_eq!(matrix.name, "ext-matrix");
    g.bench_function("is_composable_matrix", |b| {
        b.iter(|| is_composable(registry.host(), &matrix.grammar).passed)
    });
    // The first composition in this process: every one after it is warm.
    let compiler = registry
        .compiler(&cmm_core::ALL_EXTENSIONS)
        .expect("compose");
    g.bench_function("compose_warm", |b| {
        b.iter(|| {
            registry
                .compiler(&cmm_core::ALL_EXTENSIONS)
                .expect("compose")
        })
    });

    let program = eddy_scoring_program("in.cmmx", "out.cmmx");
    g.bench_function("translate_fig8_program", |b| {
        b.iter(|| compiler.compile(&program).expect("translate"))
    });
    g.bench_function("emit_c_fig8_program", |b| {
        let ir = compiler.compile(&program).expect("translate");
        b.iter(|| cmm_loopir::emit::emit_program(&ir).expect("emit"))
    });
    g.bench_function("run_modular_analyses", |b| {
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
