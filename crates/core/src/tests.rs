use crate::*;

fn full() -> Compiler {
    Registry::standard()
        .compiler(&["ext-matrix", "ext-tuples", "ext-rcptr", "ext-transform"])
        .expect("standard composition")
}

mod registry {
    use super::*;

    #[test]
    fn matrix_and_rcptr_pass_iscomposable() {
        // E12: the paper's verdicts reproduced.
        let reg = Registry::standard();
        let reports = reg.composability_reports();
        let verdict = |name: &str| {
            reports
                .iter()
                .find(|r| r.extension == name)
                .unwrap_or_else(|| panic!("no report for {name}"))
        };
        let mx = verdict("ext-matrix");
        assert!(mx.passed, "{mx}");
        assert!(mx.marking_terminals.contains(&"KW_WITH".to_string()));
        assert!(mx.marking_terminals.contains(&"KW_MATRIX".to_string()));
        assert!(mx.marking_terminals.contains(&"KW_MATRIXMAP".to_string()));
        assert!(verdict("ext-rcptr").passed);
        // Tuples fail on the host's left paren, exactly as §VI-A says.
        let tup = verdict("ext-tuples");
        assert!(!tup.passed);
        assert!(
            tup.violations.iter().any(|v| v.contains("'LP'")),
            "{:?}",
            tup.violations
        );
        // The transform clause begins with host syntax.
        let tr = verdict("ext-transform");
        assert!(!tr.passed);
    }

    #[test]
    fn all_extensions_pass_well_definedness() {
        // E13: "All extensions described above pass this analysis."
        let reg = Registry::standard();
        for report in reg.well_definedness_reports() {
            assert!(report.passed, "{report}");
        }
    }

    #[test]
    fn composition_of_passing_extensions_is_lalr() {
        // The §VI-A theorem, checked on the real language.
        let reg = Registry::standard();
        let mx = &reg.extensions[0].grammar;
        let rc = &reg.extensions[1].grammar;
        assert!(cmm_grammar::is_lalr(&reg.host, &[mx]).unwrap());
        assert!(cmm_grammar::is_lalr(&reg.host, &[rc]).unwrap());
        assert!(cmm_grammar::is_lalr(&reg.host, &[mx, rc]).unwrap());
    }

    #[test]
    fn unknown_extension_rejected() {
        assert!(matches!(
            Registry::standard().compiler(&["ext-nope"]),
            Err(CompileError::UnknownExtension(_))
        ));
    }

    #[test]
    fn host_only_compiler_rejects_matrix_syntax() {
        let c = Registry::standard().compiler(&[]).unwrap();
        // `with` is not a keyword without the matrix extension: scanning
        // sees an identifier and parsing fails.
        let err = c
            .frontend("int main() { Matrix int <1> v = init(Matrix int <1>, 2); return 0; }")
            .unwrap_err();
        assert!(matches!(err, CompileError::Parse(_)), "{err}");
    }

    #[test]
    fn transform_requires_matrix_packaging() {
        // transform alone (no matrix) doesn't activate.
        let c = Registry::standard().compiler(&["ext-transform"]).unwrap();
        let err = c
            .frontend("int main() { int x = 0; x = 1 transform parallelize i; return 0; }")
            .unwrap_err();
        assert!(matches!(err, CompileError::Parse(_)));
    }
}

mod parser_cache {
    use super::*;

    #[test]
    fn same_set_shares_one_parser() {
        let reg = Registry::standard();
        let a = reg.compiler(&["ext-matrix", "ext-rcptr"]).unwrap();
        let b = reg.compiler(&["ext-matrix", "ext-rcptr"]).unwrap();
        assert!(std::ptr::eq(a.parser(), b.parser()));
    }

    #[test]
    fn request_order_does_not_split_the_key() {
        // The key is the sorted *selected* set, so permuted requests
        // resolve to the same cached parser.
        let reg = Registry::standard();
        let a = reg.compiler(&["ext-rcptr", "ext-matrix"]).unwrap();
        let b = reg.compiler(&["ext-matrix", "ext-rcptr"]).unwrap();
        assert!(std::ptr::eq(a.parser(), b.parser()));
    }

    #[test]
    fn packaging_rules_canonicalize_the_key() {
        // ext-transform without ext-matrix selects no fragments at all
        // (it is packaged with the matrix extension), so it shares the
        // host-only parser.
        let reg = Registry::standard();
        let host_only = reg.compiler(&[]).unwrap();
        let transform_alone = reg.compiler(&["ext-transform"]).unwrap();
        assert!(std::ptr::eq(host_only.parser(), transform_alone.parser()));
    }

    #[test]
    fn distinct_sets_get_distinct_parsers() {
        let reg = Registry::standard();
        let host_only = reg.compiler(&[]).unwrap();
        let matrix = reg.compiler(&["ext-matrix"]).unwrap();
        assert!(!std::ptr::eq(host_only.parser(), matrix.parser()));
    }

    #[test]
    fn separate_standard_registries_share_the_cache() {
        let a = Registry::standard().compiler(&["ext-matrix"]).unwrap();
        let hits_before = a.parser_cache_stats().hits;
        let b = Registry::standard().compiler(&["ext-matrix"]).unwrap();
        assert!(std::ptr::eq(a.parser(), b.parser()));
        assert!(b.parser_cache_stats().hits > hits_before);
    }
}

mod composition {
    use super::*;
    use cmm_grammar::{Sym, Terminal};

    /// The standard registry on a cache of its own, so that counts and
    /// timings below see no other test.
    fn private_registry() -> Registry {
        Registry {
            parser_cache: Arc::new(ParserCache::with_capacity(DEFAULT_PARSER_CACHE_CAPACITY)),
            ..Registry::standard()
        }
    }

    /// `unless a b`: a marking terminal of its own (rule 1 holds), but two
    /// juxtaposed operands — `unless a - b` reads two ways, so host ∪
    /// extension is not LALR(1) and the analysis must reject it.
    fn unless_extension() -> Extension {
        let n = |s: &str| Sym::N(s.to_string());
        Extension {
            name: "ext-unless".to_string(),
            grammar: GrammarFragment::new("ext-unless")
                .terminal(Terminal::keyword("KW_UNLESS", "unless"))
                .production(
                    "prim_unless",
                    "Primary",
                    vec![Sym::T("KW_UNLESS".to_string()), n("AddExpr"), n("AddExpr")],
                ),
            ag: AgFragment::new("ext-unless"),
            packaged: None,
            requires: None,
            ext: Ext::Cilk,
        }
    }

    #[test]
    fn failing_extension_is_rejected_with_its_report_every_time() {
        let mut reg = private_registry();
        reg.extensions.push(unless_extension());
        let rejection = |reg: &Registry| match reg.compiler(&["ext-matrix", "ext-unless"]) {
            Err(CompileError::Composition(reports)) => {
                assert_eq!(reports.len(), 1, "only the failing extension is reported");
                assert_eq!(reports[0].extension, "ext-unless");
                assert!(!reports[0].passed && !reports[0].is_lalr_with_host);
                assert_eq!(reports[0].marking_terminals, ["KW_UNLESS"]);
                assert!(
                    reports[0].violations.iter().all(|v| v.contains("LALR conflict")),
                    "{:?}",
                    reports[0].violations
                );
                CompileError::Composition(reports).to_string()
            }
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("a non-LALR extension composed"),
        };
        let first = rejection(&reg);
        assert!(first.starts_with("extension composition rejected:\nextension 'ext-unless': NOT COMPOSABLE\n"));
        // Failures are not cached — the analysis ran again — and its
        // diagnostics name the same states in the same order.
        assert_eq!(rejection(&reg), first);
        let stats = reg.parser_cache.stats();
        assert_eq!((stats.hits, stats.misses, reg.parser_cache.len()), (0, 0, 0));
        // The same registry still composes what does pass.
        let compiler = reg.compiler(&["ext-matrix"]).expect("matrix alone composes");
        let r = compiler
            .run("int main() { printInt(with ([0] <= [i] < [4]) fold(+, 0, i)); return 0; }", 1)
            .unwrap();
        assert_eq!(r.output, "6\n");
        assert_eq!(reg.parser_cache.stats().misses, 1);
    }

    #[test]
    fn a_hundred_warm_compositions_cost_less_than_the_cold_one() {
        // A ratio that survives a host change: the cold call verifies
        // three extensions and builds the tables and the scanner; a warm
        // call is a lookup. (Before the analysis moved into the miss path
        // a warm call was about two fifths of a cold one.)
        let reg = private_registry();
        let t0 = Instant::now();
        reg.compiler(&ALL_EXTENSIONS).expect("cold composition");
        let cold = t0.elapsed();
        let t0 = Instant::now();
        for _ in 0..100 {
            reg.compiler(&ALL_EXTENSIONS).expect("warm composition");
        }
        let warm = t0.elapsed();
        assert!(warm < cold, "100 warm calls took {warm:?}, the cold call {cold:?}");
        let stats = reg.parser_cache.stats();
        assert_eq!((stats.hits, stats.misses), (100, 1));
    }
}

mod pipeline {
    use super::*;

    #[test]
    fn run_produces_output_and_no_leaks() {
        let c = full();
        let r = c
            .run(
                r#"
                int main() {
                    int n = 16;
                    Matrix int <1> v = with ([0] <= [i] < [n]) genarray([n], i * i);
                    printInt(with ([0] <= [i] < [n]) fold(+, 0, v[i]));
                    return 0;
                }
                "#,
                2,
            )
            .unwrap();
        assert_eq!(r.output, "1240\n");
        assert_eq!(r.leaked, 0, "allocations: {}", r.allocations);
    }

    #[test]
    fn type_errors_surface_as_compile_errors() {
        let c = full();
        let err = c.frontend("int main() { printInt(zzz); return 0; }").unwrap_err();
        match err {
            CompileError::Type(diags) => {
                assert!(diags[0].message.contains("undefined variable"));
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn compile_to_c_is_selfcontained() {
        let c = full();
        let src = r#"
            int main() {
                Matrix float <2> m = init(Matrix float <2>, 2, 2);
                m[0, 0] = 1.5;
                printFloat(m[0, 0]);
                return 0;
            }
        "#;
        let ccode = c.compile_to_c(src).unwrap();
        assert!(ccode.contains("#include <stdio.h>"));
        assert!(ccode.contains("int main(void)"));
        assert!(ccode.contains("cmm_mat"));
    }

    #[test]
    fn gcc_roundtrip_matches_interpreter() {
        if !gcc_available() {
            eprintln!("gcc not available; skipping round trip");
            return;
        }
        let c = full();
        let src = r#"
            int main() {
                int m = 3;
                int n = 4;
                int p = 6;
                Matrix float <3> mat = init(Matrix float <3>, m, n, p);
                for (int a = 0; a < m; a++) {
                    for (int b = 0; b < n; b++) {
                        for (int q = 0; q < p; q++) { mat[a, b, q] = toFloat(a * 31 + b * 7 + q); }
                    }
                }
                Matrix float <2> means = init(Matrix float <2>, m, n);
                means = with ([0, 0] <= [i, j] < [m, n])
                    genarray([m, n],
                        with ([0] <= [k] < [p]) fold(+, 0.0, mat[i, j, k]) / toFloat(p))
                    transform split j by 4, jin, jout. vectorize jin. parallelize i;
                for (int a = 0; a < m; a++) {
                    for (int b = 0; b < n; b++) { printFloat(means[a, b]); }
                }
                printInt(dimSize(means, 1));
                return 0;
            }
        "#;
        let interp_out = c.run(src, 2).unwrap().output;
        let ccode = c.compile_to_c(src).unwrap();
        let gcc_out = compile_and_run_c(&ccode, 2).unwrap();
        assert_eq!(interp_out, gcc_out);
    }
}
