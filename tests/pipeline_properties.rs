//! Property-based cross-validation: programs generated over random data
//! must print what a direct Rust computation of the same values gives
//! (iterator sums and maxima, closed forms), and must never leak buffers.

use cmm::eddy::programs::full_compiler;
use proptest::prelude::*;

fn run_output(src: &str, threads: usize) -> (String, u32) {
    let compiler = full_compiler();
    let r = compiler.run(src, threads).expect("program runs");
    (r.output, r.leaked)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_fold_add_matches_runtime(
        vals in proptest::collection::vec(-50i64..50, 1..24),
    ) {
        let n = vals.len();
        let assigns: String = vals
            .iter()
            .enumerate()
            .map(|(i, v)| format!("v[{i}] = {v};\n"))
            .collect();
        let src = format!(
            r#"
            int main() {{
                Matrix int <1> v = init(Matrix int <1>, {n});
                {assigns}
                printInt(with ([0] <= [i] < [{n}]) fold(+, 0, v[i]));
                printInt(with ([0] <= [i] < [{n}]) fold(max, -1000000, v[i]));
                return 0;
            }}
            "#
        );
        let (out, leaked) = run_output(&src, 2);
        prop_assert_eq!(leaked, 0);

        let sum: i64 = vals.iter().sum();
        let max = vals.iter().copied().fold(-1_000_000, i64::max);
        prop_assert_eq!(out, format!("{sum}\n{max}\n"));
    }

    #[test]
    fn prop_genarray_matches_runtime(
        rows in 1usize..5,
        cols in 1usize..5,
        a in -9i64..9,
        b in -9i64..9,
    ) {
        let src = format!(
            r#"
            int main() {{
                Matrix int <2> g = with ([0, 0] <= [i, j] < [{rows}, {cols}])
                    genarray([{rows}, {cols}], i * {a} + j * {b});
                for (int i = 0; i < {rows}; i++) {{
                    for (int j = 0; j < {cols}; j++) {{ printInt(g[i, j]); }}
                }}
                return 0;
            }}
            "#
        );
        let (out, leaked) = run_output(&src, 2);
        prop_assert_eq!(leaked, 0);

        let expect: String = (0..rows as i64)
            .flat_map(|i| (0..cols as i64).map(move |j| format!("{}\n", i * a + j * b)))
            .collect();
        prop_assert_eq!(out, expect);
    }

    #[test]
    fn prop_range_indexing_matches_runtime(
        n in 2usize..12,
        lo in 0usize..10,
        hi in 0usize..10,
    ) {
        let lo = lo % n;
        let hi = lo + (hi % (n - lo).max(1));
        let src = format!(
            r#"
            int main() {{
                Matrix int <1> v = with ([0] <= [i] < [{n}]) genarray([{n}], i * 3 + 1);
                Matrix int <1> s = v[{lo} : {hi}];
                printInt(dimSize(s, 0));
                for (int i = 0; i < dimSize(s, 0); i++) {{ printInt(s[i]); }}
                return 0;
            }}
            "#
        );
        let (out, leaked) = run_output(&src, 1);
        prop_assert_eq!(leaked, 0);
        let mut expect = format!("{}\n", hi - lo + 1);
        for i in lo..=hi {
            expect.push_str(&format!("{}\n", i * 3 + 1));
        }
        prop_assert_eq!(out, expect);
    }

    #[test]
    fn prop_thread_count_invariance(threads in 1usize..5, n in 1usize..40) {
        let src = format!(
            r#"
            int main() {{
                Matrix float <1> v = with ([0] <= [i] < [{n}])
                    genarray([{n}], toFloat(i) * 1.5);
                printFloat(with ([0] <= [i] < [{n}]) fold(+, 0.0, v[i]));
                return 0;
            }}
            "#
        );
        let (seq, _) = run_output(&src, 1);
        let (par, leaked) = run_output(&src, threads);
        prop_assert_eq!(leaked, 0);
        prop_assert_eq!(seq, par);
    }
}
