//! End-to-end tests: parse → build → check → lower → interpret.

use cmm_grammar::{ComposedGrammar, Parser};
use cmm_loopir::Interp;

use crate::typecheck::ExtSet;
use crate::*;

fn parser() -> Parser {
    let host = host_grammar();
    let mx = cmm_ext_matrix::grammar();
    let tup = cmm_ext_tuples::grammar();
    let rc = cmm_ext_rcptr::grammar();
    let tr = cmm_ext_transform::grammar();
    let g = ComposedGrammar::compose(&host, &[&mx, &tup, &rc, &tr]).unwrap();
    Parser::new(g).expect("composed grammar is LALR(1)")
}

/// Parse and build `src`, panicking on any error.
fn build(p: &Parser, src: &str) -> cmm_ast::Program {
    parse_program(p, &Handlers::new(p.view()), src)
        .unwrap_or_else(|e| panic!("parse error: {e}"))
        .unwrap_or_else(|e| panic!("build error: {e}"))
}

/// Full pipeline: returns captured `print*` output.
fn run_src(src: &str, threads: usize) -> String {
    run_opts(src, threads, &LowerOptions::default())
}

fn run_opts(src: &str, threads: usize, opts: &LowerOptions) -> String {
    let p = parser();
    let ast = build(&p, src);
    let (info, diags) = check_program(&ast, ExtSet::default());
    assert!(diags.is_empty(), "type errors: {diags:?}");
    let ir = lower_program(&ast, &info, opts).unwrap_or_else(|e| panic!("lowering error: {e}"));
    let interp = Interp::new(&ir, threads);
    interp
        .run_main()
        .unwrap_or_else(|e| panic!("runtime error: {e}\nprogram output so far:\n{}", interp.output()));
    interp.output()
}

/// Expect at least one type error whose message contains `needle`.
fn expect_error(src: &str, needle: &str) {
    let p = parser();
    let ast = build(&p, src);
    let (_info, diags) = check_program(&ast, ExtSet::default());
    assert!(
        diags.iter().any(|d| d.message.contains(needle)),
        "expected an error containing {needle:?}, got: {diags:?}"
    );
}

mod host_ag_memory {
    use super::*;

    /// Resident pages of this process, where `/proc` says (Linux).
    fn resident_pages() -> Option<i64> {
        let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
        statm.split_whitespace().nth(1)?.parse().ok()
    }

    /// Derives and drops the host AG module 2000 times and prints how far
    /// the resident set grew. A leak of the 24 nonterminal names per call
    /// (what the host AG module used to `Box::leak`) is ≥ 1.5 MB of it.
    #[test]
    #[ignore = "run alone in a child process by host_ag_does_not_leak"]
    fn host_ag_resident_growth() {
        let host = host_grammar();
        drop(ag_fragment(&host, None));
        let before = resident_pages().expect("statm");
        for _ in 0..2000 {
            drop(ag_fragment(&host, None));
        }
        println!("resident growth {} pages", resident_pages().expect("statm") - before);
    }

    #[test]
    fn host_ag_does_not_leak() {
        if resident_pages().is_none() {
            return;
        }
        // A process of its own: no other test allocates while it measures.
        let name = "tests::host_ag_memory::host_ag_resident_growth";
        let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args(["--ignored", "--exact", name, "--nocapture", "--test-threads=1"])
            .output()
            .expect("spawn the test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let pages: i64 = stdout
            .split("resident growth ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no measurement in: {stdout}"));
        assert!(pages * 4096 < 512 * 1024, "ag_fragment() grew the resident set by {pages} pages");
    }
}

mod pipeline {
    use super::*;

    #[test]
    fn hello_scalar_world() {
        let out = run_src(
            r#"
            int main() {
                int x = 40 + 2;
                printInt(x);
                printFloat(1.0 / 4.0);
                printBool(x > 10);
                return 0;
            }
            "#,
            1,
        );
        assert_eq!(out, "42\n0.250000\n1\n");
    }

    #[test]
    fn control_flow_and_functions() {
        let out = run_src(
            r#"
            int fib(int n) {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            int main() {
                for (int i = 0; i < 8; i++) { printInt(fib(i)); }
                int s = 0;
                int k = 0;
                while (k < 5) { s = s + k; k = k + 1; }
                printInt(s);
                return 0;
            }
            "#,
            1,
        );
        assert_eq!(out, "0\n1\n1\n2\n3\n5\n8\n13\n10\n");
    }

    #[test]
    fn matrix_init_index_and_dim_size() {
        let out = run_src(
            r#"
            int main() {
                Matrix int <2> m = init(Matrix int <2>, 2, 3);
                m[1, 2] = 42;
                printInt(m[1, 2]);
                printInt(m[0, 0]);
                printInt(dimSize(m, 0));
                printInt(dimSize(m, 1));
                return 0;
            }
            "#,
            1,
        );
        assert_eq!(out, "42\n0\n2\n3\n");
    }

    #[test]
    fn fig1_temporal_mean() {
        // The paper's running example (Fig 1), on a synthetic cube.
        let out = run_src(
            r#"
            int main() {
                int m = 3;
                int n = 4;
                int p = 5;
                Matrix float <3> mat = init(Matrix float <3>, m, n, p);
                for (int i = 0; i < m; i++) {
                    for (int j = 0; j < n; j++) {
                        for (int k = 0; k < p; k++) {
                            mat[i, j, k] = toFloat(i + j + k);
                        }
                    }
                }
                Matrix float <2> means =
                    with ([0, 0] <= [i, j] < [m, n])
                        genarray([m, n],
                            with ([0] <= [k] < [p]) fold(+, 0.0, mat[i, j, k]) / toFloat(p));
                printFloat(means[0, 0]);
                printFloat(means[2, 3]);
                return 0;
            }
            "#,
            2,
        );
        // mean over k of (i+j+k) = i + j + 2
        assert_eq!(out, "2.000000\n7.000000\n");
    }

    #[test]
    fn genarray_zero_fills_outside_generator() {
        let out = run_src(
            r#"
            int main() {
                Matrix int <1> v = with ([1] <= [i] < [3]) genarray([5], i * 10);
                for (int q = 0; q < 5; q++) { printInt(v[q]); }
                return 0;
            }
            "#,
            1,
        );
        assert_eq!(out, "0\n10\n20\n0\n0\n");
    }

    #[test]
    fn inclusive_upper_bound() {
        let out = run_src(
            r#"
            int main() {
                int s = with ([0] <= [i] <= [4]) fold(+, 0, i);
                printInt(s);
                return 0;
            }
            "#,
            1,
        );
        assert_eq!(out, "10\n");
    }

    #[test]
    fn modarray_with_loop() {
        // SAC's third with-loop operation (§VIII future work implemented).
        let out = run_src(
            r#"
            int main() {
                int n = 5;
                Matrix int <1> v = with ([0] <= [i] < [n]) genarray([n], i + 1);
                Matrix int <1> w = with ([1] <= [i] < [3]) modarray(v, i * 100);
                for (int q = 0; q < n; q++) { printInt(w[q]); }
                for (int q = 0; q < n; q++) { printInt(v[q]); }
                return 0;
            }
            "#,
            2,
        );
        // w: copy of v with positions 1..3 replaced; v untouched.
        assert_eq!(out, "1\n100\n200\n4\n5\n1\n2\n3\n4\n5\n");
    }

    #[test]
    fn modarray_type_errors() {
        expect_error(
            r#"
            int main() {
                Matrix int <2> m = init(Matrix int <2>, 2, 2);
                Matrix int <2> w = with ([0] <= [i] < [2]) modarray(m, 1);
                return 0;
            }
            "#,
            "rank 2 but the generator binds 1",
        );
        expect_error(
            r#"
            int main() {
                int x = 3;
                Matrix int <1> w = with ([0] <= [i] < [2]) modarray(x, 1);
                return 0;
            }
            "#,
            "must be a matrix",
        );
    }

    #[test]
    fn fold_max_and_min() {
        let out = run_src(
            r#"
            int main() {
                Matrix int <1> v = init(Matrix int <1>, 5);
                v[0] = 3; v[1] = 9; v[2] = 1; v[3] = 7; v[4] = 5;
                printInt(with ([0] <= [i] < [5]) fold(max, 0, v[i]));
                printInt(with ([0] <= [i] < [5]) fold(min, 100, v[i]));
                printInt(with ([0] <= [i] < [5]) fold(*, 1, v[i]));
                return 0;
            }
            "#,
            1,
        );
        assert_eq!(out, "9\n1\n945\n");
    }

    #[test]
    fn elementwise_ops_and_comparisons() {
        let out = run_src(
            r#"
            int main() {
                Matrix float <1> a = init(Matrix float <1>, 3);
                Matrix float <1> b = init(Matrix float <1>, 3);
                a[0] = 1.0; a[1] = 2.0; a[2] = 3.0;
                b[0] = 10.0; b[1] = 20.0; b[2] = 30.0;
                Matrix float <1> c = a + b .* a - 1.0;
                printFloat(c[0]);
                printFloat(c[1]);
                printFloat(c[2]);
                Matrix bool <1> g = b > 15.0;
                printBool(g[0]);
                printBool(g[1]);
                return 0;
            }
            "#,
            1,
        );
        // c = a + (b .* a) - 1 = [1+10-1, 2+40-1, 3+90-1]
        assert_eq!(out, "10.000000\n41.000000\n92.000000\n0\n1\n");
    }

    #[test]
    fn matmul_星() {
        let out = run_src(
            r#"
            int main() {
                Matrix float <2> a = init(Matrix float <2>, 2, 2);
                Matrix float <2> b = init(Matrix float <2>, 2, 2);
                a[0,0] = 1.0; a[0,1] = 2.0; a[1,0] = 3.0; a[1,1] = 4.0;
                b[0,0] = 5.0; b[0,1] = 6.0; b[1,0] = 7.0; b[1,1] = 8.0;
                Matrix float <2> c = a * b;
                printFloat(c[0,0]);
                printFloat(c[0,1]);
                printFloat(c[1,0]);
                printFloat(c[1,1]);
                return 0;
            }
            "#,
            2,
        );
        assert_eq!(out, "19.000000\n22.000000\n43.000000\n50.000000\n");
    }

    #[test]
    fn indexing_modes_and_end() {
        let out = run_src(
            r#"
            int main() {
                Matrix int <2> m = init(Matrix int <2>, 3, 4);
                for (int i = 0; i < 3; i++) {
                    for (int j = 0; j < 4; j++) { m[i, j] = i * 10 + j; }
                }
                printInt(m[1, end]);
                Matrix int <1> row = m[1, :];
                printInt(dimSize(row, 0));
                printInt(row[2]);
                Matrix int <2> blk = m[0 : 1, end - 2 : end];
                printInt(dimSize(blk, 0));
                printInt(dimSize(blk, 1));
                printInt(blk[1, 0]);
                return 0;
            }
            "#,
            1,
        );
        assert_eq!(out, "13\n4\n12\n2\n3\n11\n");
    }

    #[test]
    fn logical_indexing() {
        let out = run_src(
            r#"
            int main() {
                Matrix int <1> v = init(Matrix int <1>, 6);
                for (int i = 0; i < 6; i++) { v[i] = i; }
                Matrix int <1> odd = v[v % 2 == 1];
                printInt(dimSize(odd, 0));
                printInt(odd[0]);
                printInt(odd[2]);
                return 0;
            }
            "#,
            1,
        );
        assert_eq!(out, "3\n1\n5\n");
    }

    #[test]
    fn indexed_assignment_with_range() {
        // scores[beginning : i] = computeArea(trough) — the Fig 8 pattern.
        let out = run_src(
            r#"
            int main() {
                Matrix float <1> scores = init(Matrix float <1>, 6);
                Matrix float <1> area = init(Matrix float <1>, 3);
                area[0] = 2.5; area[1] = 2.5; area[2] = 2.5;
                scores[1 : 3] = area;
                printFloat(scores[0]);
                printFloat(scores[1]);
                printFloat(scores[3]);
                printFloat(scores[4]);
                scores[0 : 1] = 9.0;
                printFloat(scores[0]);
                printFloat(scores[1]);
                return 0;
            }
            "#,
            1,
        );
        assert_eq!(out, "0.000000\n2.500000\n2.500000\n0.000000\n9.000000\n9.000000\n");
    }

    #[test]
    fn value_semantics_via_cow() {
        let out = run_src(
            r#"
            int main() {
                Matrix int <1> a = init(Matrix int <1>, 2);
                a[0] = 1;
                Matrix int <1> b = a;
                b[0] = 99;
                printInt(a[0]);
                printInt(b[0]);
                return 0;
            }
            "#,
            1,
        );
        assert_eq!(out, "1\n99\n");
    }

    #[test]
    fn matrix_map_fig5_equivalent() {
        let out = run_src(
            r#"
            Matrix float <2> double2d(Matrix float <2> s) {
                return with ([0, 0] <= [a, b] < [dimSize(s, 0), dimSize(s, 1)])
                    genarray([dimSize(s, 0), dimSize(s, 1)], s[a, b] * 2.0);
            }
            int main() {
                Matrix float <3> d = init(Matrix float <3>, 2, 2, 3);
                for (int i = 0; i < 2; i++) {
                    for (int j = 0; j < 2; j++) {
                        for (int t = 0; t < 3; t++) { d[i, j, t] = toFloat(i * 100 + j * 10 + t); }
                    }
                }
                Matrix float <3> r = matrixMap(double2d, d, [0, 1]);
                printFloat(r[1, 1, 2]);
                printFloat(r[0, 1, 0]);
                return 0;
            }
            "#,
            2,
        );
        assert_eq!(out, "224.000000\n20.000000\n");
    }

    #[test]
    fn tuples_destructuring_and_returns() {
        let out = run_src(
            r#"
            (int, float, bool) trio(int x) {
                return (x * 2, toFloat(x) / 2.0, x > 3);
            }
            int main() {
                int a = 0;
                float b = 0.0;
                bool c = false;
                (a, b, c) = trio(5);
                printInt(a);
                printFloat(b);
                printBool(c);
                (int, int) pair = (7, 8);
                printInt(0);
                return 0;
            }
            "#,
            1,
        );
        assert_eq!(out, "10\n2.500000\n1\n0\n");
    }

    #[test]
    fn tuple_with_matrix_component() {
        // getTrough returns (Matrix float <1>, int, int) — Fig 8.
        let out = run_src(
            r#"
            (Matrix float <1>, int, int) take(Matrix float <1> ts, int a, int b) {
                return (ts[a : b], a, b);
            }
            int main() {
                Matrix float <1> ts = init(Matrix float <1>, 5);
                for (int i = 0; i < 5; i++) { ts[i] = toFloat(i * i); }
                Matrix float <1> part = init(Matrix float <1>, 1);
                int lo = 0;
                int hi = 0;
                (part, lo, hi) = take(ts, 1, 3);
                printInt(dimSize(part, 0));
                printFloat(part[0]);
                printFloat(part[2]);
                printInt(lo);
                printInt(hi);
                return 0;
            }
            "#,
            1,
        );
        assert_eq!(out, "3\n1.000000\n9.000000\n1\n3\n");
    }

    #[test]
    fn rc_pointers() {
        let out = run_src(
            r#"
            int main() {
                rc<int> p = rcAlloc(int, 4);
                rcSet(p, 0, 11);
                rcSet(p, 3, 44);
                rc<int> q = p;
                rcSet(q, 0, 99);
                printInt(rcGet(p, 0));
                printInt(rcGet(p, 3));
                printInt(rcLen(p));
                return 0;
            }
            "#,
            1,
        );
        // Reference semantics: writes through q are visible through p.
        assert_eq!(out, "99\n44\n4\n");
    }

    #[test]
    fn casts_and_promotion() {
        let out = run_src(
            r#"
            int main() {
                float f = 7.9;
                printInt((int)(f));
                printFloat((float)(3));
                int i = 3;
                printFloat(toFloat(i) / 2.0);
                Matrix int <1> v = init(Matrix int <1>, 2);
                v[0] = 5; v[1] = 6;
                Matrix float <1> fv = toFloat(v) / 2.0;
                printFloat(fv[0]);
                printFloat(fv[1]);
                return 0;
            }
            "#,
            1,
        );
        assert_eq!(out, "7\n3.000000\n1.500000\n2.500000\n3.000000\n");
    }

    #[test]
    fn transform_clause_preserves_semantics() {
        // Fig 9: split + vectorize + parallelize on the temporal mean.
        let base = r#"
            int main() {
                int m = 4;
                int n = 8;
                int p = 5;
                Matrix float <3> mat = init(Matrix float <3>, m, n, p);
                for (int a = 0; a < m; a++) {
                    for (int b = 0; b < n; b++) {
                        for (int c = 0; c < p; c++) { mat[a, b, c] = toFloat(a * 37 + b * 11 + c); }
                    }
                }
                Matrix float <2> means = init(Matrix float <2>, m, n);
                means = with ([0, 0] <= [i, j] < [m, n])
                    genarray([m, n],
                        with ([0] <= [k] < [p]) fold(+, 0.0, mat[i, j, k]) / toFloat(p))TRANSFORM;
                for (int a = 0; a < m; a++) {
                    for (int b = 0; b < n; b++) { printFloat(means[a, b]); }
                }
                return 0;
            }
        "#;
        let plain = base.replace("TRANSFORM", "");
        let transformed = base.replace(
            "TRANSFORM",
            " transform split j by 4, jin, jout. vectorize jin. parallelize i",
        );
        let out_plain = run_src(&plain, 2);
        let out_tr = run_src(&transformed, 2);
        assert_eq!(out_plain, out_tr);
    }

    #[test]
    fn transform_bad_index_is_a_semantic_error() {
        // §V: the extension checks "that the loop indices in the
        // transformations correspond to loops in the code".
        let src = r#"
            int main() {
                int n = 4;
                Matrix int <1> v = init(Matrix int <1>, n);
                v = with ([0] <= [i] < [n]) genarray([n], i)
                    transform split zz by 4, a, b;
                return 0;
            }
        "#;
        let p = parser();
        let ast = build(&p, src);
        let (info, diags) = check_program(&ast, ExtSet::default());
        assert!(diags.is_empty());
        let err = lower_program(&ast, &info, &LowerOptions::default()).unwrap_err();
        assert!(err.message.contains("does not correspond to a loop"), "{err:?}");
    }

    #[test]
    fn parallel_thread_counts_agree() {
        let src = r#"
            int main() {
                int n = 100;
                Matrix int <1> v = with ([0] <= [i] < [n]) genarray([n], i * 3);
                int s = with ([0] <= [i] < [n]) fold(+, 0, v[i]);
                printInt(s);
                return 0;
            }
        "#;
        let a = run_src(src, 1);
        let b = run_src(src, 2);
        let c = run_src(src, 4);
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a, format!("{}\n", 3 * 99 * 100 / 2));
    }

    #[test]
    fn matrix_file_io_roundtrip() {
        let path = std::env::temp_dir().join(format!("cmm-lang-{}.cmmx", std::process::id()));
        let src = format!(
            r#"
            int main() {{
                Matrix float <2> m = init(Matrix float <2>, 2, 2);
                m[0, 0] = 1.5; m[1, 1] = 4.5;
                writeMatrix("{p}", m);
                Matrix float <2> r = readMatrix("{p}");
                printFloat(r[0, 0]);
                printFloat(r[1, 1]);
                return 0;
            }}
            "#,
            p = path.display()
        );
        let out = run_src(&src, 1);
        assert_eq!(out, "1.500000\n4.500000\n");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn no_leaks_across_the_pipeline() {
        // Every buffer allocated by the lowered program must be freed by
        // the inserted reference-counting operations (§III-B).
        let src = r#"
            Matrix float <1> helper(Matrix float <1> x) {
                Matrix float <1> y = x + 1.0;
                return y[0 : 1];
            }
            int main() {
                Matrix float <1> a = init(Matrix float <1>, 4);
                for (int i = 0; i < 3; i++) {
                    Matrix float <1> b = helper(a);
                    a[i] = b[0];
                }
                Matrix float <1> c = a[1 : 2];
                printFloat(c[0]);
                return 0;
            }
        "#;
        let p = parser();
        let ast = build(&p, src);
        let (info, diags) = check_program(&ast, ExtSet::default());
        assert!(diags.is_empty(), "{diags:?}");
        let ir = lower_program(&ast, &info, &LowerOptions::default()).unwrap();
        let interp = Interp::new(&ir, 2);
        interp.run_main().unwrap();
        assert_eq!(
            interp.live_buffers(),
            0,
            "leaked buffers: {} allocated, {} freed",
            interp.alloc_count(),
            interp.free_count()
        );
    }

    #[test]
    fn library_mode_matches_fused_semantics() {
        let src = r#"
            int main() {
                int n = 6;
                Matrix int <1> v = with ([0] <= [i] < [n]) genarray([n], i * i);
                Matrix int <1> w = v;
                w[0] = 100;
                printInt(v[0]);
                printInt(w[0]);
                printInt(v[5]);
                return 0;
            }
        "#;
        let fused = run_src(src, 1);
        let library = run_opts(
            src,
            1,
            &LowerOptions {
                fuse_with_assign: false,
                ..Default::default()
            },
        );
        assert_eq!(fused, library);
    }

    #[test]
    fn slice_fusion_preserves_semantics() {
        // mat[i, j, :][k] — the §III-A4 pattern — with and without fusion.
        let src = r#"
            int main() {
                int m = 2; int n = 3; int p = 4;
                Matrix float <3> mat = init(Matrix float <3>, m, n, p);
                for (int a = 0; a < m; a++) {
                    for (int b = 0; b < n; b++) {
                        for (int c = 0; c < p; c++) { mat[a, b, c] = toFloat(a + b * 2 + c * 3); }
                    }
                }
                Matrix float <2> means = with ([0, 0] <= [i, j] < [m, n])
                    genarray([m, n],
                        with ([0] <= [k] < [p]) fold(+, 0.0, mat[i, j, :][k]) / toFloat(p));
                printFloat(means[1, 2]);
                return 0;
            }
        "#;
        let with_fusion = run_src(src, 1);
        let without = run_opts(
            src,
            1,
            &LowerOptions {
                fuse_slice_index: false,
                ..Default::default()
            },
        );
        assert_eq!(with_fusion, without);
    }

    #[test]
    fn slice_fusion_eliminates_allocations() {
        let src = r#"
            int main() {
                int n = 8; int p = 10;
                Matrix float <2> mat = init(Matrix float <2>, n, p);
                Matrix float <1> sums = with ([0] <= [i] < [n])
                    genarray([n],
                        with ([0] <= [k] < [p]) fold(+, 0.0, mat[i, :][k]));
                printFloat(sums[0]);
                return 0;
            }
        "#;
        let p = parser();
        let ast = build(&p, src);
        let (info, diags) = check_program(&ast, ExtSet::default());
        assert!(diags.is_empty());
        let count_allocs = |opts: &LowerOptions| {
            let ir = lower_program(&ast, &info, opts).unwrap();
            let interp = Interp::new(&ir, 1);
            interp.run_main().unwrap();
            interp.alloc_count()
        };
        let fused = count_allocs(&LowerOptions::default());
        let unfused = count_allocs(&LowerOptions {
            fuse_slice_index: false,
            ..Default::default()
        });
        // Without fusion each of the 8 genarray iterations materializes a
        // slice copy.
        assert!(
            unfused >= fused + 8,
            "expected ≥8 extra allocations without fusion: fused={fused} unfused={unfused}"
        );
    }
}

mod leak_paths {
    use super::*;

    fn assert_leak_free(src: &str) {
        let p = parser();
        let ast = build(&p, src);
        let (info, diags) = check_program(&ast, ExtSet::default());
        assert!(diags.is_empty(), "{diags:?}");
        let ir = lower_program(&ast, &info, &LowerOptions::default()).unwrap();
        let interp = Interp::new(&ir, 2);
        interp.run_main().unwrap_or_else(|e| panic!("{e}\n{}", interp.output()));
        assert_eq!(
            interp.live_buffers(),
            0,
            "leak: {} allocated, {} freed",
            interp.alloc_count(),
            interp.free_count()
        );
    }

    #[test]
    fn matrix_temps_in_while_condition() {
        // The condition allocates a slice temp every iteration; the
        // re-evaluation scope must release each one.
        assert_leak_free(
            r#"
            int main() {
                Matrix float <1> v = init(Matrix float <1>, 8);
                int i = 0;
                while (v[0 : 3][i % 4] < 0.5 && i < 10) {
                    v[i % 8] = toFloat(i);
                    i = i + 1;
                }
                printInt(i);
                return 0;
            }
            "#,
        );
    }

    #[test]
    fn early_return_from_nested_scopes() {
        assert_leak_free(
            r#"
            Matrix int <1> pick(Matrix int <1> v, int flag) {
                Matrix int <1> a = v + 1;
                if (flag > 0) {
                    Matrix int <1> b = a + 1;
                    return b[0 : 1];
                }
                while (flag < 0) {
                    Matrix int <1> c = a + 2;
                    return c;
                }
                return a;
            }
            int main() {
                Matrix int <1> v = init(Matrix int <1>, 4);
                Matrix int <1> x = pick(v, 1);
                Matrix int <1> y = pick(v, -1);
                Matrix int <1> z = pick(v, 0);
                printInt(x[0] + y[0] + z[0]);
                return 0;
            }
            "#,
        );
    }

    #[test]
    fn matrix_map_over_all_dims() {
        // Mapped dims == rank: no outer loops, a single lifted call.
        assert_leak_free(
            r#"
            Matrix float <2> flip(Matrix float <2> s) {
                return 0.0 - s;
            }
            int main() {
                Matrix float <2> m = with ([0, 0] <= [i, j] < [3, 3])
                    genarray([3, 3], toFloat(i - j));
                Matrix float <2> f = matrixMap(flip, m, [0, 1]);
                printFloat(f[0, 2]);
                return 0;
            }
            "#,
        );
    }

    #[test]
    fn temps_inside_loop_bodies_are_per_iteration() {
        assert_leak_free(
            r#"
            int main() {
                Matrix float <1> acc = init(Matrix float <1>, 4);
                for (int r = 0; r < 20; r++) {
                    Matrix float <1> t = acc + toFloat(r);
                    acc = t;
                }
                printFloat(acc[0]);
                return 0;
            }
            "#,
        );
    }

    #[test]
    fn logical_index_masks_released() {
        assert_leak_free(
            r#"
            int main() {
                Matrix int <1> v = with ([0] <= [i] < [20]) genarray([20], i % 5);
                for (int r = 0; r < 5; r++) {
                    Matrix int <1> sel = v[v > r];
                    printInt(dimSize(sel, 0));
                }
                return 0;
            }
            "#,
        );
    }
}

mod errors {
    use super::*;

    #[test]
    fn generator_binding_one_variable_twice() {
        // Accepted, it wrote only the diagonal: the sum printed 3.
        expect_error(
            r#"
            int main() {
                Matrix int <2> m = with ([0, 0] <= [i, i] < [3, 3]) genarray([3, 3], i);
                return 0;
            }
            "#,
            "generator variable 'i' is bound twice",
        );
        // A generator variable may still shadow an outer one.
        let shadowing = r#"
            int main() {
                int i = 7;
                Matrix int <1> m = with ([0] <= [i] < [3]) genarray([3], i);
                printInt(m[2] + i);
                return 0;
            }
            "#;
        assert_eq!(run_src(shadowing, 1), "9\n");
    }

    #[test]
    fn rank_mismatch_in_elementwise_op() {
        expect_error(
            r#"
            int main() {
                Matrix int <1> a = init(Matrix int <1>, 2);
                Matrix int <2> b = init(Matrix int <2>, 2, 2);
                Matrix int <1> c = a + b;
                return 0;
            }
            "#,
            "same type and rank",
        );
    }

    #[test]
    fn elem_type_mismatch() {
        expect_error(
            r#"
            int main() {
                Matrix int <1> a = init(Matrix int <1>, 2);
                Matrix float <1> b = init(Matrix float <1>, 2);
                Matrix int <1> c = a + b;
                return 0;
            }
            "#,
            "same type and rank",
        );
    }

    #[test]
    fn matmul_requires_rank_2() {
        expect_error(
            r#"
            int main() {
                Matrix float <1> a = init(Matrix float <1>, 2);
                Matrix float <1> b = init(Matrix float <1>, 2);
                Matrix float <1> c = a * b;
                return 0;
            }
            "#,
            "use '.*'",
        );
    }

    #[test]
    fn with_loop_arity_checked() {
        expect_error(
            r#"
            int main() {
                Matrix int <1> v = with ([0, 0] <= [i] < [5]) genarray([5], i);
                return 0;
            }
            "#,
            "arity mismatch",
        );
    }

    #[test]
    fn genarray_shape_arity_checked() {
        expect_error(
            r#"
            int main() {
                Matrix int <2> v = with ([0] <= [i] < [5]) genarray([5, 5], i);
                return 0;
            }
            "#,
            "generator binds",
        );
    }

    #[test]
    fn genarray_rank_above_max_rank_rejected() {
        expect_error(
            r#"
            int main() {
                printInt(dimSize(with ([0,0,0,0,0,0,0,0,0] <= [a,b,c,d,e,f,g,h,q]
                    < [1,1,1,1,1,1,1,1,2]) genarray([1,1,1,1,1,1,1,1,2], 0), 8));
                return 0;
            }
            "#,
            "genarray shape has 9 dimensions; a matrix has at most 8",
        );
    }

    /// The emitted C's `cmm_mat` holds `MAX_RANK` extents: a wider matrix
    /// type is a construction error at its rank token, not a C overflow.
    #[test]
    fn matrix_rank_above_max_rank_rejected() {
        let p = parser();
        let src = "int main() {\n    Matrix int <9> m = init(Matrix int <9>, 1,1,1,1,1,1,1,1,2);\n    return 0;\n}\n";
        let err = parse_program(&p, &Handlers::new(p.view()), src)
            .expect("the program parses")
            .expect_err("rank 9 is rejected");
        assert_eq!(err.to_string(), "2:17: matrix rank 9 exceeds 8");
        let widest = src.replace("<9>", "<8>").replace("1,2)", "2)");
        build(&p, &widest);
    }

    #[test]
    fn subscript_count_checked() {
        expect_error(
            r#"
            int main() {
                Matrix int <2> m = init(Matrix int <2>, 2, 2);
                printInt(m[0]);
                return 0;
            }
            "#,
            "rank 2 indexed with 1 subscripts",
        );
    }

    #[test]
    fn end_outside_subscript_rejected() {
        expect_error(
            r#"
            int main() {
                int x = end;
                return 0;
            }
            "#,
            "only valid inside a matrix subscript",
        );
    }

    #[test]
    fn read_matrix_needs_context() {
        expect_error(
            r#"
            int main() {
                int x = 0;
                x = readMatrix("f.data");
                return 0;
            }
            "#,
            "matrix-typed context",
        );
    }

    #[test]
    fn matrix_map_signature_checked() {
        expect_error(
            r#"
            int wrong(int x) { return x; }
            int main() {
                Matrix float <3> d = init(Matrix float <3>, 2, 2, 2);
                Matrix float <3> r = matrixMap(wrong, d, [0, 1]);
                return 0;
            }
            "#,
            "to take",
        );
    }

    #[test]
    fn matrix_map_dims_checked() {
        expect_error(
            r#"
            Matrix float <2> f(Matrix float <2> s) { return s; }
            int main() {
                Matrix float <3> d = init(Matrix float <3>, 2, 2, 2);
                Matrix float <3> r = matrixMap(f, d, [1, 0]);
                return 0;
            }
            "#,
            "invalid for a rank-3 matrix",
        );
    }

    #[test]
    fn tuple_arity_checked() {
        expect_error(
            r#"
            (int, int) pair() { return (1, 2); }
            int main() {
                int a = 0;
                int b = 0;
                int c = 0;
                (a, b, c) = pair();
                return 0;
            }
            "#,
            "arity mismatch",
        );
    }

    #[test]
    fn undefined_names_reported() {
        expect_error("int main() { printInt(nope); return 0; }", "undefined variable");
        expect_error("int main() { nope(1); return 0; }", "undefined function");
    }

    #[test]
    fn condition_must_be_bool() {
        expect_error(
            "int main() { if (1 + 2) { } return 0; }",
            "condition must be bool",
        );
    }

    #[test]
    fn disabled_extension_rejected() {
        let src = r#"
            int main() {
                Matrix int <1> v = init(Matrix int <1>, 2);
                return 0;
            }
        "#;
        let p = parser();
        let ast = build(&p, src);
        let (_info, diags) = check_program(
            &ast,
            ExtSet {
                matrix: false,
                ..Default::default()
            },
        );
        assert!(diags.iter().any(|d| d.message.contains("matrix extension")));
    }

    /// The builtin table's rules, as the checker applies them: the names
    /// are reserved, the owning extension must be on, arity is the table's.
    #[test]
    fn source_builtins_are_reserved_gated_and_arity_checked() {
        for b in SurfaceBuiltin::ALL {
            assert_eq!(SurfaceBuiltin::from_name(b.name()), Some(b));
            expect_error(
                &format!("int {}(int x) {{ return x; }} int main() {{ return 0; }}", b.name()),
                &format!("cannot define function '{}'", b.name()),
            );
        }
        expect_error("int main() { printInt(toInt(1, 2)); return 0; }", "toInt takes one argument");
        expect_error(
            "int main() { printInt(dimSize(range(1, 3))); return 0; }",
            "dimSize(matrix, dim) takes two arguments",
        );
        let p = parser();
        let ast = build(&p, "int main() { printInt(dimSize(range(1, 3), 0)); return 0; }");
        let (_info, diags) = check_program(&ast, ExtSet::HOST.with(Ext::Rcptr));
        assert!(
            diags.iter().any(|d| d.message.contains("dimSize requires the matrix extension")),
            "{diags:?}"
        );
    }

    #[test]
    fn runtime_superset_check_fires() {
        // The §III-A4 runtime check: generator outside the shape.
        let src = r#"
            int main() {
                int n = 10;
                Matrix int <1> v = with ([0] <= [i] < [n]) genarray([5], i);
                return 0;
            }
        "#;
        let p = parser();
        let ast = build(&p, src);
        let (info, diags) = check_program(&ast, ExtSet::default());
        assert!(diags.is_empty());
        let ir = lower_program(&ast, &info, &LowerOptions::default()).unwrap();
        let interp = Interp::new(&ir, 1);
        let err = interp.run_main().unwrap_err();
        assert!(err.message.contains("superset"), "{err}");
    }
}

mod emission {
    use super::*;
    use cmm_loopir::emit::emit_program;

    #[test]
    fn emitted_c_for_fig9_contains_fig11_artifacts() {
        let src = r#"
            int main() {
                int m = 4;
                int n = 8;
                int p = 5;
                Matrix float <3> mat = init(Matrix float <3>, m, n, p);
                Matrix float <2> means = init(Matrix float <2>, m, n);
                means = with ([0, 0] <= [i, j] < [m, n])
                    genarray([m, n],
                        with ([0] <= [k] < [p]) fold(+, 0.0, mat[i, j, k]) / toFloat(p))
                    transform split j by 4, jin, jout. vectorize jin. parallelize i;
                return 0;
            }
        "#;
        let p = parser();
        let ast = build(&p, src);
        let (info, diags) = check_program(&ast, ExtSet::default());
        assert!(diags.is_empty());
        let ir = lower_program(&ast, &info, &LowerOptions::default()).unwrap();
        let c = emit_program(&ir).expect("emit");
        assert!(c.contains("#pragma omp parallel for"), "parallelize i → OpenMP");
        assert!(c.contains("__m128"), "vectorize jin → SSE");
        assert!(c.contains("jout"), "split j → jout loop");
        assert!(c.contains("rc_decr"), "reference counting in generated C");
    }
}
