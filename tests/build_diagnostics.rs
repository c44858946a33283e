//! The exact `cmmc check` diagnostic, text and line:col, of one malformed
//! program for every AST-construction error a standard-language program
//! can reach (`crates/lang/src/builder.rs`), plus the order rules between
//! them: where two errors meet, the one the left-to-right, outside-in
//! reading of the program reaches first is reported, and a syntax error
//! anywhere wins over every construction error.
//!
//! The builder's remaining messages are not reachable from the standard
//! language: `unexpected … production` needs a production with no rule
//! (`crates/core/src/tests.rs` reaches it through an added extension), and
//! a float literal always parses.

use std::process::Command;

/// `(file stem, program, the one line cmmc check prints on stderr)`.
const CASES: &[(&str, &str, &str)] = &[
    (
        "matrix-elem",
        "int main() {\n    Matrix void <1> m;\n    return 0;\n}",
        "cmmc: 2:5: matrices can only contain int, bool or float elements, not void",
    ),
    (
        "matrix-rank-big",
        "int main() {\n    Matrix int <300> m;\n    return 0;\n}",
        "cmmc: 2:17: matrix rank '300' is not a small integer",
    ),
    (
        "matrix-rank-zero",
        "int main() {\n    Matrix float <0> m;\n    return 0;\n}",
        "cmmc: 2:19: matrix rank must be at least 1",
    ),
    (
        "rc-elem",
        "int main() {\n    rc<void> p;\n    return 0;\n}",
        "cmmc: 2:5: rc pointers hold int, float or bool elements, not void",
    ),
    (
        "spawn-target",
        "int f() { return 1; }\nint main() {\n    Matrix int <1> a = init(Matrix int <1>, 2);\n    \
         spawn a[0] = f();\n    sync;\n    return 0;\n}",
        "cmmc: 4:5: spawn targets must be plain variables",
    ),
    (
        "spawn-assign-call",
        "int main() {\n    int x = 0;\n    spawn x = 1 + 2;\n    sync;\n    return 0;\n}",
        "cmmc: 3:5: spawn applies to function calls",
    ),
    (
        "spawn-call",
        "int main() {\n    spawn 3;\n    return 0;\n}",
        "cmmc: 2:5: spawn applies to function calls",
    ),
    (
        "incr-target",
        "int main() {\n    Matrix int <1> a = init(Matrix int <1>, 2);\n    int i = 0;\n    \
         for (i = 0; i < 2; a[0]++) { }\n    return 0;\n}",
        "cmmc: 4:24: '++' applies to plain variables only",
    ),
    (
        "index-target",
        "int f() { return 1; }\nint main() {\n    f()[0] = 1;\n    return 0;\n}",
        "cmmc: 3:5: indexed assignment target must be a matrix variable",
    ),
    (
        "tuple-target",
        "int main() {\n    int a = 0;\n    Matrix int <1> b = init(Matrix int <1>, 2);\n    \
         (a, b[0]) = (1, 2);\n    return 0;\n}",
        "cmmc: 4:9: tuple assignment targets must be plain variables",
    ),
    (
        "invalid-target",
        "int main() {\n    int a = 0;\n    a + 1 = 3;\n    return 0;\n}",
        "cmmc: 3:5: invalid assignment target",
    ),
    (
        "transform-factor",
        "int main() {\n    Matrix int <1> v = init(Matrix int <1>, 8);\n    \
         v = with ([0] <= [j] < [8]) genarray([8], j) transform split j by 99999999999999999999, jin, jout;\n    \
         return 0;\n}",
        "cmmc: 3:71: bad transformation factor '99999999999999999999'",
    ),
    (
        "int-literal",
        "int main() {\n    int x = 99999999999999999999;\n    return 0;\n}",
        "cmmc: 2:13: integer literal '99999999999999999999' out of range",
    ),
    (
        "matrixmap-dims",
        "int g(Matrix int <1> r) { return 0; }\nint main() {\n    int d = 0;\n    \
         Matrix int <2> m = init(Matrix int <2>, 2, 2);\n    Matrix int <2> n = matrixMap(g, m, [d]);\n    \
         return 0;\n}",
        "cmmc: 5:41: matrixMap dimension lists must be integer literals",
    ),
    (
        "rcalloc-elem",
        "int main() {\n    rc<int> p = rcAlloc(void, 4);\n    return 0;\n}",
        "cmmc: 2:17: rcAlloc element type must be int, float or bool, not void",
    ),
    (
        "generator-vars",
        "int main() {\n    Matrix int <1> v = with ([0] <= [i + 1] < [4]) genarray([4], 0);\n    return 0;\n}",
        "cmmc: 2:38: with-loop generator variables must be plain identifiers",
    ),
    // The spawn target is read before the call: its error wins over one
    // inside the call, although the call is complete first.
    (
        "order-spawn",
        "int f(int x) { return x; }\nint main() {\n    Matrix int <1> a = init(Matrix int <1>, 2);\n    \
         spawn a[0] = f(99999999999999999999);\n    sync;\n    return 0;\n}",
        "cmmc: 4:5: spawn targets must be plain variables",
    ),
    // The element type is checked before the rank.
    (
        "order-type",
        "int main() {\n    Matrix void <300> m;\n    return 0;\n}",
        "cmmc: 2:5: matrices can only contain int, bool or float elements, not void",
    ),
    // A construction error on line 2, a syntax error on line 9: the syntax
    // error is reported, whether the scanner or the parser finds it.
    (
        "precedence-scan",
        "int main() {\n    int x = 99999999999999999999;\n    return 0;\n}\nint g() {\n    return 0;\n}\n\
         int h() {\n    return 1 +;\n}",
        "cmmc: line 9:15: no valid token here; expected one of: INT_LIT, FLOAT_LIT, STR_LIT, ID, \
         KW_TRUE, KW_FALSE, LP, MINUS, NOT, KW_WITH, KW_MATRIXMAP, KW_INIT, KW_END, KW_RCALLOC",
    ),
    (
        "precedence-eof",
        "int main() {\n    (1, 2)[0] = 3;\n    return 0;\n}\nint g() {\n    return 0;\n}\n\
         int h() {\n    return 1 +",
        "cmmc: line 9:15: unexpected EOF ''; expected one of: INT_LIT, FLOAT_LIT, STR_LIT, ID, \
         KW_TRUE, KW_FALSE, LP, MINUS, NOT, KW_WITH, KW_MATRIXMAP, KW_INIT, KW_END, KW_RCALLOC",
    ),
];

#[test]
fn every_construction_error_reads_as_before() {
    let mut wrong = Vec::new();
    for (stem, src, expected) in CASES {
        let path = std::env::temp_dir().join(format!("cmmc-{}-diag-{stem}.xc", std::process::id()));
        std::fs::write(&path, src).expect("write program");
        let out = Command::new(env!("CARGO_BIN_EXE_cmmc"))
            .arg("check")
            .arg(&path)
            .output()
            .expect("spawn cmmc");
        std::fs::remove_file(&path).ok();
        let stderr = String::from_utf8_lossy(&out.stderr);
        if out.status.code() != Some(4)
            || stderr != format!("{expected}\n")
            || !out.stdout.is_empty()
        {
            wrong.push(format!(
                "{stem}: exit {:?}, stderr {stderr:?}\n  expected {expected:?}",
                out.status.code()
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
