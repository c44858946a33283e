//! The edges of the lowering rule that emits a check only where it can
//! fail. A with-loop bound or shape that is a literal or a variable is
//! used in place; the lower-bound guard goes for a non-negative literal,
//! the superset guard for a bound that is the shape's own variable or a
//! literal no larger than it. Every guard that can fire stays, and fails
//! with the same message on the tree tier, on the VM (`cmmc run`, exit 1)
//! and in the gcc-built C (exit 1). A `for` loop is a counted
//! `IrStmt::For` only when its bound cannot move; the loops here must stay
//! `while` loops and print what they printed as `while` loops.

use std::process::Command;

use std::time::Duration;

use cmm::core::{build_and_run_c, gcc_available_or_skip};
use cmm::eddy::programs::full_compiler;
use cmm::loopir::{Interp, IrProgram, IrStmt, Tier};

const LOWER: &str = "with-loop generator lower bound is negative";
const GENARRAY: &str = "with-loop generator exceeds the genarray shape (the shape must be a \
                        superset of the generator indexes)";
const MODARRAY: &str = "with-loop generator exceeds the modarray source shape";

/// Output, error text and steps of one in-process run on `tier`. A run
/// that completes leaves no buffer behind.
fn interp(ir: &IrProgram, tier: Tier) -> (String, Option<String>, u64) {
    let interp = Interp::new(ir, 2).with_tier(tier);
    let err = interp.run_main().err().map(|e| e.to_string());
    if err.is_none() {
        assert_eq!(interp.live_buffers(), 0, "{tier:?}: leaked buffers");
    }
    (interp.output(), err, interp.steps_used())
}

/// A program whose `main` runs `body`.
fn program(body: &str) -> String {
    format!("int main() {{\n{body}\nreturn 0;\n}}\n")
}

/// Runs `src` on both interpreter tiers: each must print `want`, fail
/// with exactly `error` when one is named, and count the same steps.
fn tiers_agree(name: &str, src: &str, want: &str, error: Option<&str>) {
    let ir = full_compiler()
        .compile(src)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let (tree_out, tree_err, tree_steps) = interp(&ir, Tier::Tree);
    let (vm_out, vm_err, vm_steps) = interp(&ir, Tier::Vm);
    assert_eq!(tree_out, want, "{name}: tree-tier output");
    assert_eq!(tree_err.as_deref(), error, "{name}: tree-tier error");
    assert_eq!(
        (vm_out, vm_err),
        (tree_out, tree_err),
        "{name}: VM against the tree tier"
    );
    assert_eq!(vm_steps, tree_steps, "{name}: steps");
}

/// Runs `src` on all three back ends: each must print `want` and, when
/// `panic` names a message, fail with exactly that message and exit 1.
fn agree(name: &str, src: &str, want: &str, panic: Option<&str>) {
    let message = panic.map(|m| format!("runtime error: program panic: {m}"));
    tiers_agree(name, src, want, message.as_deref());

    let path = std::env::temp_dir().join(format!("cmm-bound-{}-{name}.xc", std::process::id()));
    std::fs::write(&path, src).expect("write program");
    let cli = Command::new(env!("CARGO_BIN_EXE_cmmc"))
        .args(["run", &path.display().to_string(), "--threads", "2"])
        .output()
        .expect("spawn cmmc");
    std::fs::remove_file(&path).ok();
    // A failed run prints what it printed before failing, then the error.
    let stderr = String::from_utf8_lossy(&cli.stderr);
    match &message {
        Some(m) => {
            assert_eq!(cli.status.code(), Some(1), "{name}: cmmc run exit");
            assert_eq!(stderr, format!("cmmc: {m}\n"), "{name}");
        }
        None => assert!(cli.status.success(), "{name}: {stderr}"),
    }
    assert_eq!(
        String::from_utf8_lossy(&cli.stdout),
        want,
        "{name}: cmmc run output"
    );

    if !gcc_available_or_skip(name) {
        return;
    }
    let c = full_compiler().compile_to_c(src).expect("emit C");
    let run = build_and_run_c(&c, 2, Duration::from_secs(120)).expect("gcc builds and runs the C");
    assert_eq!(run.stdout, want, "{name}: C output");
    match &message {
        Some(m) => {
            assert_eq!(run.status.code(), Some(1), "{name}: C exit");
            assert_eq!(run.stderr, format!("{}\n", m.trim_start_matches("runtime error: ")), "{name}: C");
        }
        None => assert!(run.status.success(), "{name}: C failed: {}", run.stderr),
    }
}

#[test]
fn a_negative_lower_bound_fails_alike_literal_or_computed() {
    let literal = "Matrix int <1> v = with ([-1] <= [i] < [3]) genarray([3], i);\nprintInt(v[0]);";
    agree("lo_literal", &program(literal), "", Some(LOWER));
    let computed = "int a = 2;\nprintInt(7);\n\
                    printInt(with ([a - 3] <= [i] < [3]) fold(+, 0, i));";
    agree("lo_computed", &program(computed), "7\n", Some(LOWER));
    // A variable lower bound keeps its guard: it is negative here.
    let var = "int a = 0 - 2;\nprintInt(with ([0, a] <= [i, j] < [2, 2]) fold(+, 0, i + j));";
    agree("lo_variable", &program(var), "", Some(LOWER));
}

#[test]
fn a_shape_smaller_than_its_bound_fails_alike() {
    let cases = [
        (
            "shape_literal",
            "Matrix int <1> v = with ([0] <= [i] < [5]) genarray([4], i);",
            GENARRAY,
        ),
        (
            "shape_variable",
            "int n = 5;\nint m = 4;\nMatrix int <1> v = with ([0] <= [i] < [n]) genarray([m], i);",
            GENARRAY,
        ),
        (
            "shape_inclusive_literal",
            "Matrix int <1> v = with ([0] <= [i] <= [4]) genarray([4], i);",
            GENARRAY,
        ),
        (
            "shape_inclusive_variable",
            "int n = 4;\nMatrix int <1> v = with ([0] <= [i] <= [n]) genarray([n], i);",
            GENARRAY,
        ),
        (
            "modarray_literal",
            "Matrix int <1> s = with ([0] <= [i] < [4]) genarray([4], i);\n\
             Matrix int <1> v = with ([0] <= [i] < [5]) modarray(s, i * 2);",
            MODARRAY,
        ),
        (
            "modarray_inclusive_variable",
            "int n = 4;\nMatrix int <1> s = with ([0] <= [i] < [n]) genarray([n], i);\n\
             Matrix int <1> v = with ([0] <= [i] <= [n]) modarray(s, i * 2);",
            MODARRAY,
        ),
    ];
    for (name, body, message) in cases {
        let src = program(&format!("printInt(1);\n{body}\nprintInt(v[0]);"));
        agree(name, &src, "1\n", Some(message));
    }
}

#[test]
fn bounds_that_fit_their_shape_run_alike() {
    let body = "int n = 4;\n\
                Matrix int <2> a = with ([0, 0] <= [i, j] <= [3, 2]) genarray([4, n], i * 10 + j);\n\
                Matrix int <2> b = with ([1, 1] <= [i, j] < [n, n]) modarray(a, 0 - i - j);\n\
                Matrix int <1> c = with ([0] <= [i] < [n]) genarray([n], i + 1);\n\
                printInt(with ([0, 0] <= [i, j] < [4, n]) fold(+, 0, a[i, j] + b[i, j]));\n\
                printInt(with ([0] <= [i] <= [3]) fold(*, 1, c[i]));";
    agree("fitting", &program(body), "219\n24\n", None);
}

/// How many `while` and sequential `for` loops the lowered `main` holds.
fn loops(src: &str) -> (usize, usize) {
    fn walk(stmts: &[IrStmt], n: &mut (usize, usize)) {
        for s in stmts {
            match s {
                IrStmt::While { body, .. } => {
                    n.0 += 1;
                    walk(body, n);
                }
                IrStmt::For(f) => {
                    n.1 += usize::from(!f.parallel);
                    walk(&f.body, n);
                }
                IrStmt::If { then_b, else_b, .. } => {
                    walk(then_b, n);
                    walk(else_b, n);
                }
                IrStmt::Block(b) | IrStmt::Kernel { fallback: b, .. } => walk(b, n),
                _ => {}
            }
        }
    }
    let ir = full_compiler().compile(src).expect("compiles");
    let main = ir
        .functions
        .iter()
        .find(|f| &*f.name == "main")
        .expect("main");
    let mut n = (0, 0);
    walk(&main.body, &mut n);
    n
}

#[test]
fn for_loops_whose_bound_can_move_stay_while_loops() {
    let cases = [
        (
            "assigns_v",
            "for (int i = 0; i < 10; i++) { printInt(i); i = i + 2; }",
            "0\n3\n6\n9\n",
        ),
        (
            "assigns_bound",
            "int n = 5;\nfor (int i = 0; i < n; i++) { n = n - 1; printInt(i); }\nprintInt(n);",
            "0\n1\n2\n2\n",
        ),
        (
            "inclusive",
            "for (int i = 0; i <= 3; i++) { printInt(i); }",
            "0\n1\n2\n3\n",
        ),
        (
            "step_two",
            "for (int i = 0; i < 7; i = i + 2) { printInt(i); }",
            "0\n2\n4\n6\n",
        ),
        (
            "assignment_init",
            "int i = 0;\nfor (i = 2; i < 5; i++) { printInt(i); }\nprintInt(i);",
            "2\n3\n4\n5\n",
        ),
    ];
    for (name, body, want) in cases {
        let src = program(body);
        assert_eq!(loops(&src), (1, 0), "{name}: lowered as a while loop");
        agree(name, &src, want, None);
    }
}

#[test]
fn a_for_loop_with_a_fixed_bound_is_a_counted_for() {
    let body = "int n = 4;\nint s = 0;\n\
                for (int i = 0; i < n * 2; i++) { s = s + i; }\n\
                printInt(s);\n\
                Matrix int <1> v = with ([0] <= [i] < [n]) genarray([n], i * i);\n\
                Matrix int <1> w = init(Matrix int <1>, n);\n\
                for (int i = 1; i < dimSize(v, 0); i++) { w[i] = v[i] + w[i - 1]; }\n\
                printInt(w[3]);";
    let src = program(body);
    assert_eq!(loops(&src), (0, 2), "two counted loops");
    agree("counted", &src, "28\n14\n", None);
    // A `return` inside a counted loop leaves it and releases once, the
    // trip's own matrix included.
    let ret = "int first(Matrix int <1> v) {\n\
               for (int i = 0; i < dimSize(v, 0); i++) {\n\
               Matrix int <1> w = with ([0] <= [j] < [i + 1]) genarray([i + 1], v[j]);\n\
               if (w[i] > 5) { Matrix int <1> u = w; return u[0] + i; }\n\
               }\n\
               return 0 - 1;\n}\n";
    let src = format!(
        "{ret}{}",
        program("printInt(first(with ([0] <= [i] < [6]) genarray([6], i * 3)));")
    );
    agree("counted_return", &src, "2\n", None);
}

#[test]
fn a_bound_named_like_its_own_generator_variable_reads_the_outer_value() {
    // A parameter read as a bound, shape or offset by a generator whose
    // variable has the parameter's name: the bound is the caller's value,
    // read before the loop binds the name.
    let params = "int f(int n) {\n\
                  Matrix int <1> v = with ([0] <= [n] < [n]) genarray([n], n);\n\
                  return with ([0] <= [k] < [n]) fold(+, 0, v[k]);\n}\n\
                  int g(int n) { return with ([n] <= [n] < [n + 3]) fold(+, 0, n); }\n\
                  int h(int i) {\n\
                  Matrix int <2> m = with ([0, 0] <= [i, j] < [2, i]) genarray([2, i], j);\n\
                  return with ([0, 0] <= [a, b] < [2, i]) fold(+, 0, m[a, b] * (a + 1));\n}\n\
                  Matrix int <1> twice(Matrix int <1> s, int n) {\n\
                  return with ([0] <= [n] < [n]) modarray(s, n * 2);\n}\n";
    let main = program(
        "printInt(f(4));\nprintInt(g(2));\nprintInt(h(3));\n\
         Matrix int <1> s = with ([0] <= [i] < [5]) genarray([5], 1);\n\
         Matrix int <1> t = twice(s, 3);\n\
         printInt(t[2]);\nprintInt(t[3]);",
    );
    agree(
        "param_shadowed",
        &format!("{params}{main}"),
        "6\n9\n9\n4\n1\n",
        None,
    );
}

#[test]
fn an_inner_generator_reusing_an_outer_generator_variable_reads_the_outer_value() {
    let body = "printInt(with ([0] <= [i] < [4]) fold(+, 0, with ([0] <= [i] < [i]) fold(+, 0, i)));\n\
                Matrix int <1> v = with ([0] <= [i] < [3]) \
                genarray([3], with ([0] <= [i] <= [i]) fold(+, 0, i));\n\
                printInt(v[0]);\nprintInt(v[1]);\nprintInt(v[2]);\n\
                printInt(with ([1] <= [i] < [3]) fold(+, 0, with ([i] <= [i] < [i + 2]) fold(*, 1, i)));";
    agree("nested_shadowed", &program(body), "4\n0\n1\n3\n8\n", None);
    // The shadowed bound fails its guard with the outer value: the inner
    // genarray outgrows its shape when the outer `i` reaches 2.
    let guard = "printInt(1);\n\
                 printInt(with ([0] <= [i] < [3]) \
                 fold(+, 0, dimSize(with ([0] <= [i] < [i]) genarray([1], i), 0)));";
    agree(
        "nested_shadowed_guard",
        &program(guard),
        "1\n",
        Some(GENARRAY),
    );
    // The same case inside a called function.
    let callee = format!("int f() {{\n{guard}\nreturn 0;\n}}\n{}", program("printInt(f());"));
    agree("nested_shadowed_guard_callee", &callee, "1\n", Some(GENARRAY));
}

#[test]
fn a_runtime_error_in_a_called_function_counts_the_steps_that_ran() {
    // The VM charges a run of simple statements before the first of them
    // runs; a runtime error gives back, in every frame it leaves, the
    // part of that charge whose statements never started.
    let guard = "Matrix int <1> v = with ([0] <= [k] < [m]) genarray([2], k);";
    let callee = format!("int f(int m) {{\n{guard}\nreturn v[0];\n}}\n");
    let src = format!("{callee}{}", program("printInt(f(3));"));
    agree("callee_guard", &src, "", Some(GENARRAY));
    let in_main = program(&format!("int m = 3;\n{guard}\nprintInt(v[0]);"));
    agree("main_guard", &in_main, "", Some(GENARRAY));
    // A failing load has no guard, and the emitted C does not check it:
    // the interpreter tiers only.
    let index = "int g(int i) {\n\
                 Matrix int <1> v = with ([0] <= [k] < [3]) genarray([3], k);\n\
                 printInt(v[1]);\nint x = v[i];\nprintInt(x);\nreturn x;\n}\n";
    tiers_agree(
        "callee_index",
        &format!("{index}{}", program("printInt(g(5));")),
        "1\n",
        Some("runtime error: index 5 out of bounds for buffer of 3"),
    );
}
