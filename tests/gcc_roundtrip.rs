//! Experiment E6 (validation leg) — the emitted "plain parallel C"
//! compiles with a traditional compiler and produces byte-identical
//! output to the interpreter, across the paper's feature set: with-loops,
//! matrixMap, all indexing modes, tuples, rc pointers, and the §V
//! transformations (OpenMP + SSE paths).

use cmm::core::{compile_and_run_c, gcc_available_or_skip};
use cmm::eddy::programs::full_compiler;
use cmm::loopir::{cmmx, Elem};

fn roundtrip(src: &str) {
    if !gcc_available_or_skip("gcc_roundtrip") {
        return;
    }
    let compiler = full_compiler();
    let interp_out = compiler.run(src, 2).expect("interpreter run").output;
    let c = compiler.compile_to_c(src).expect("emit C");
    let gcc_out = compile_and_run_c(&c, 2).expect("gcc compile+run");
    assert_eq!(interp_out, gcc_out, "interpreter and gcc outputs differ");
}

#[test]
fn scalars_and_control_flow() {
    roundtrip(
        r#"
        int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        int main() {
            for (int i = 0; i < 10; i++) { printInt(fib(i)); }
            float x = 1.0;
            while (x < 10.0) { x = x * 2.5; }
            printFloat(x);
            printBool(x > 14.0);
            return 0;
        }
        "#,
    );
}

#[test]
fn with_loops_and_indexing() {
    roundtrip(
        r#"
        int main() {
            int n = 12;
            Matrix float <2> a = with ([0, 0] <= [i, j] < [n, n])
                genarray([n, n], toFloat(i * 3 + j));
            printFloat(with ([0, 0] <= [i, j] < [n, n]) fold(+, 0.0, a[i, j]));
            printFloat(with ([0, 0] <= [i, j] < [n, n]) fold(max, 0.0, a[i, j]));
            Matrix float <1> col = a[:, 3];
            printInt(dimSize(col, 0));
            printFloat(col[end]);
            Matrix float <2> blk = a[2 : 5, end - 1 : end];
            printFloat(blk[0, 0]);
            printFloat(blk[3, 1]);
            a[0 : 1, 0 : 1] = 99.0;
            printFloat(a[1, 1]);
            return 0;
        }
        "#,
    );
}

#[test]
fn logical_indexing_and_masks() {
    roundtrip(
        r#"
        int main() {
            int n = 10;
            Matrix int <1> v = with ([0] <= [i] < [n]) genarray([n], i * i % 7);
            Matrix int <1> big = v[v > 2];
            printInt(dimSize(big, 0));
            for (int i = 0; i < dimSize(big, 0); i++) { printInt(big[i]); }
            return 0;
        }
        "#,
    );
}

#[test]
fn matrix_map_and_matmul() {
    roundtrip(
        r#"
        Matrix float <1> cumsum(Matrix float <1> row) {
            int n = dimSize(row, 0);
            Matrix float <1> out = init(Matrix float <1>, n);
            float acc = 0.0;
            for (int i = 0; i < n; i++) {
                acc = acc + row[i];
                out[i] = acc;
            }
            return out;
        }
        int main() {
            Matrix float <2> m = with ([0, 0] <= [i, j] < [4, 6])
                genarray([4, 6], toFloat(i + j));
            Matrix float <2> c = matrixMap(cumsum, m, [1]);
            printFloat(c[3, 5]);
            Matrix float <2> a = with ([0, 0] <= [i, j] < [3, 3])
                genarray([3, 3], toFloat(i * 3 + j));
            Matrix float <2> p = a * a;
            printFloat(p[2, 2]);
            return 0;
        }
        "#,
    );
}

#[test]
fn tuples_and_rc_pointers() {
    roundtrip(
        r#"
        (int, float) divide(int a, int b) {
            return (a / b, toFloat(a) / toFloat(b));
        }
        int main() {
            int q = 0;
            float f = 0.0;
            (q, f) = divide(22, 7);
            printInt(q);
            printFloat(f);
            rc<float> buf = rcAlloc(float, 8);
            for (int i = 0; i < 8; i++) { rcSet(buf, i, toFloat(i) * 0.5); }
            rc<float> alias = buf;
            printFloat(rcGet(alias, 7));
            printInt(rcLen(buf));
            return 0;
        }
        "#,
    );
}

#[test]
fn transformed_loops_sse_and_openmp() {
    roundtrip(
        r#"
        int main() {
            int m = 4;
            int n = 8;
            int p = 6;
            Matrix float <3> mat = init(Matrix float <3>, m, n, p);
            for (int a = 0; a < m; a++) {
                for (int b = 0; b < n; b++) {
                    for (int c = 0; c < p; c++) {
                        mat[a, b, c] = toFloat(a * 37 + b * 11 + c * 3) / 7.0;
                    }
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
            return 0;
        }
        "#,
    );
}

/// Non-finite float constants must emit as C spellings (`INFINITY` from
/// `<math.h>`), not Rust debug literals like `inff` that gcc rejects. The
/// 40-digit literal overflows f32 to +inf during parsing, exercising the
/// constant path; `1.0 / 0.0` exercises the runtime path. Both print as
/// `inf`/`-inf` identically in the interpreter and glibc printf. (NaN is
/// deliberately not printed: Rust says `NaN`, C says `nan`.)
#[test]
fn non_finite_floats_compile_and_roundtrip() {
    if !gcc_available_or_skip("non_finite_floats_compile_and_roundtrip") {
        return;
    }
    let src = r#"
        int main() {
            float huge = 10000000000000000000000000000000000000000.0;
            printFloat(huge);
            float q = 1.0 / 0.0;
            printFloat(q);
            printFloat(0.0 - q);
            printBool(q > 1000000.0);
            printBool(q > huge);
            return 0;
        }
        "#;
    let compiler = full_compiler();
    let c = compiler.compile_to_c(src).expect("emit C");
    assert!(c.contains("INFINITY"), "overflowed literal should emit as INFINITY: {c}");
    assert!(!c.contains("inff"), "invalid C float literal: {c}");
    let interp_out = compiler.run(src, 2).expect("interpreter run").output;
    assert!(interp_out.contains("inf"), "{interp_out}");
    let gcc_out = compile_and_run_c(&c, 2).expect("gcc compile+run");
    assert_eq!(interp_out, gcc_out, "interpreter and gcc outputs differ");
}

/// A control character in a string literal reaches C as an octal escape
/// (Rust's `\u{1}` spelling does not compile): the gcc binary writes the
/// file the interpreter writes, under the same name and with the same
/// bytes.
#[test]
fn control_character_in_a_path_names_the_same_file() {
    if !gcc_available_or_skip("control_character_in_a_path_names_the_same_file") {
        return;
    }
    let dir = std::env::temp_dir().join(format!("cmm-control-path-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let src = format!(
        r#"
        int main() {{
            Matrix int <1> v = with ([0] <= [i] < [3]) genarray([3], i + 1);
            writeMatrix("{}/o{}.cmmx", v);
            return 0;
        }}
        "#,
        dir.display(),
        '\u{1}'
    );
    // The files in `dir` (name, bytes), which it then removes.
    let written = || {
        let mut files = Vec::new();
        for entry in std::fs::read_dir(&dir).expect("temp dir") {
            let path = entry.expect("directory entry").path();
            let bytes = std::fs::read(&path).expect("written file");
            files.push((path.file_name().expect("file name").to_owned(), bytes));
            std::fs::remove_file(&path).expect("remove written file");
        }
        files
    };
    let compiler = full_compiler();
    compiler.run(&src, 1).expect("interpreter run");
    let by_vm = written();
    let c = compiler.compile_to_c(&src).expect("emit C");
    let by_gcc = compile_and_run_c(&c, 1).map(|_| written());
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(by_vm.len(), 1, "{by_vm:?}");
    assert_eq!(by_vm[0].0, "o\u{1}.cmmx");
    assert_eq!(by_gcc.expect("gcc compile+run"), by_vm);
}

/// The C runtime's CMMX codec, which moves a payload through a staging
/// buffer: the files emitted C writes for an int, a float (NaN and −0.0
/// among its cells) and a bool matrix are the bytes `cmmx::encode` makes
/// of the same cells; it reads them back, reads a bool cell byte of 2 as
/// 1, and rejects a truncated file, one with a trailing byte, one whose
/// extents overflow and one too large to allocate, each with its message.
#[test]
fn c_codec_writes_reads_and_rejects_cmmx() {
    if !gcc_available_or_skip("c_codec_writes_reads_and_rejects_cmmx") {
        return;
    }
    let dir = std::env::temp_dir().join(format!("cmm-c-codec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = |name: &str| dir.join(name).display().to_string();
    // One bool cell whose byte is 2: it must read as true, that is as
    // equal to a cell that holds 1.
    let twos = cmmx::encode(Elem::Bool, &[3], &[1, 2, 0]);
    std::fs::write(path("twos.cmmx"), &twos).expect("write bool input");
    let src = format!(
        r#"
        int main() {{
            Matrix int <2> i = with ([0, 0] <= [r, c] < [3, 5])
                genarray([3, 5], (r * 5 + c - 7) * 123457);
            writeMatrix("{i}", i);
            float zero = 0.0;
            Matrix float <1> f = init(Matrix float <1>, 4);
            f[0] = zero / zero;
            f[1] = zero * (0.0 - 1.0);
            f[2] = 1.5;
            f[3] = 0.0 - 1.0 / zero;
            writeMatrix("{f}", f);
            Matrix bool <1> b = with ([0] <= [x] < [5]) genarray([5], x % 2 == 0);
            writeMatrix("{b}", b);
            Matrix int <2> i2 = readMatrix("{i}");
            printInt(with ([0, 0] <= [r, c] < [3, 5]) fold(+, 0, i2[r, c] % 1000));
            Matrix float <1> f2 = readMatrix("{f}");
            printBool(f2[0] == f2[0]);
            printFloat(1.0 / f2[1]);
            printFloat(f2[2] + f2[3]);
            Matrix bool <1> b2 = readMatrix("{b}");
            printBool(b2[0] && !b2[1] && b2[4]);
            Matrix bool <1> t = readMatrix("{twos}");
            printBool(t[0] == t[1]);
            printBool(t[2]);
            return 0;
        }}
        "#,
        i = path("i.cmmx"),
        f = path("f.cmmx"),
        b = path("b.cmmx"),
        twos = path("twos.cmmx"),
    );
    let c = full_compiler().compile_to_c(&src).expect("emit C");
    let out = compile_and_run_c(&c, 1).expect("gcc compile+run");
    assert_eq!(out, "0\n0\n-inf\n-inf\n1\n1\n0\n");
    let zero = std::hint::black_box(0.0f32);
    let ints: Vec<u32> = (0..15).map(|q: i32| ((q - 7) * 123457) as u32).collect();
    let floats = [zero / zero, -zero, 1.5, -1.0 / zero].map(f32::to_bits);
    let bools = [1, 0, 1, 0, 1];
    for (name, elem, dims, cells) in [
        ("i.cmmx", Elem::I32, &[3, 5][..], &ints[..]),
        ("f.cmmx", Elem::F32, &[4], &floats),
        ("b.cmmx", Elem::Bool, &[5], &bools),
    ] {
        let written = std::fs::read(path(name)).expect("written by the C");
        assert_eq!(written, cmmx::encode(elem, dims, cells), "{name}");
    }
    // The same reader on a file one byte short of its payload, on one
    // with a byte after it, on headers whose extents are negative as a
    // `long long` or whose product overflows, and on one whose payload
    // cannot be allocated.
    let ints_file = cmmx::encode(Elem::I32, &[3, 5], &ints);
    let bad = path("bad.cmmx");
    let overflow = format!("readMatrix({bad}): invalid header: dimensions overflow");
    for (bytes, message) in [
        (ints_file[..ints_file.len() - 1].to_vec(), "readMatrix: truncated".to_string()),
        (
            [&ints_file[..], &[0]].concat(),
            format!("readMatrix({bad}): trailing byte(s) after the payload"),
        ),
        (cmmx::encode(Elem::I32, &[usize::MAX, 5], &ints), overflow.clone()),
        (cmmx::encode(Elem::I32, &[1 << 62, 4], &ints), overflow.clone()),
        (cmmx::encode(Elem::I32, &[1 << 40, 1 << 40], &ints), overflow),
        (
            cmmx::encode(Elem::I32, &[1 << 30, 1 << 30], &ints),
            format!("readMatrix({bad}): cannot allocate {} cells", 1u64 << 60),
        ),
    ] {
        std::fs::write(path("bad.cmmx"), bytes).expect("write bad input");
        let src = format!(
            r#"int main() {{ Matrix int <2> m = readMatrix("{}"); printInt(dimSize(m, 0)); return 0; }}"#,
            path("bad.cmmx")
        );
        let c = full_compiler().compile_to_c(&src).expect("emit C");
        let err = compile_and_run_c(&c, 1).expect_err("the reader rejects the file");
        assert!(err.ends_with(&format!("{message}\n")), "{err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn modarray_with_loop() {
    roundtrip(
        r#"
        int main() {
            int n = 6;
            Matrix float <2> base = with ([0, 0] <= [i, j] < [n, n])
                genarray([n, n], toFloat(i * 6 + j));
            Matrix float <2> patched = with ([2, 2] <= [i, j] < [4, 5])
                modarray(base, 0.0 - toFloat(i + j));
            printFloat(with ([0, 0] <= [i, j] < [n, n]) fold(+, 0.0, patched[i, j]));
            printFloat(patched[0, 0]);
            printFloat(patched[3, 4]);
            return 0;
        }
        "#,
    );
}

#[test]
fn tiled_loops() {
    roundtrip(
        r#"
        int main() {
            int n = 8;
            Matrix int <2> g = init(Matrix int <2>, n, n);
            g = with ([0, 0] <= [x, y] < [n, n]) genarray([n, n], x * 8 + y)
                transform tile x, y by 4, 2;
            int s = with ([0, 0] <= [x, y] < [n, n]) fold(+, 0, g[x, y]);
            printInt(s);
            return 0;
        }
        "#,
    );
}

/// Regression for the loop-index overflow fix: indices near `i32::MAX`
/// are built with wrapping arithmetic in the interpreter (both tiers),
/// matching the emitted C exactly. Before the fix, the unchecked
/// `lo + k` / `hi - lo` index construction panicked in debug builds
/// instead of agreeing with the compiled program.
#[test]
fn near_i32_max_loop_bounds_match_emitted_c() {
    roundtrip(
        r#"
        int main() {
            int sum = 0;
            for (int i = 2147483641; i < 2147483646; i++) {
                printInt(i);
                printInt(i - 2147483000);
                sum = sum + (i - 2147483640);
            }
            printInt(sum);
            return 0;
        }
        "#,
    );
}

#[test]
fn scheduled_loops_self_schedule_in_c() {
    // The schedule directive must survive the trip to C: the emitted
    // program claims chunks through `cmm_sched_next` (C11 atomics inside
    // an `omp parallel` region) and computes the same answer as the
    // interpreter. Also correct when gcc runs it without OpenMP threads:
    // a single thread just drains every chunk.
    roundtrip(
        r#"
        int main() {
            int n = 23;
            Matrix int <1> v = init(Matrix int <1>, n);
            v = with ([0] <= [x] < [n]) genarray([n], x * x)
                transform schedule x dynamic, 3;
            Matrix int <1> w = init(Matrix int <1>, n);
            w = with ([0] <= [x] < [n]) genarray([n], x + 1)
                transform schedule x guided;
            int s = with ([0] <= [x] < [n]) fold(+, 0, v[x] + w[x]);
            printInt(s);
            return 0;
        }
        "#,
    );
}

/// The C reader stores a file's extents in `cmm_mat`'s `dims[8]`: a
/// well-formed rank-12 file makes the built program exit 1 before it
/// stores one, as the VM reports it at run time.
#[test]
fn a_file_wider_than_max_rank_exits_1_in_c() {
    if !gcc_available_or_skip("a_file_wider_than_max_rank_exits_1_in_c") {
        return;
    }
    let path = std::env::temp_dir()
        .join(format!("cmm-rank12-{}.cmmx", std::process::id()))
        .display()
        .to_string();
    std::fs::write(&path, cmmx::encode(Elem::I32, &[1; 12], &[5])).expect("write input");
    let src = format!(
        r#"int main() {{ Matrix int <2> m = readMatrix("{path}"); printInt(dimSize(m, 0)); return 0; }}"#
    );
    let compiler = full_compiler();
    let vm = compiler.run(&src, 1).expect_err("the VM rejects the file");
    let c = compiler.compile_to_c(&src).expect("emit C");
    let gcc = compile_and_run_c(&c, 1).expect_err("the C reader rejects the file");
    std::fs::remove_file(&path).ok();
    let message = format!("readMatrix({path}): invalid header: rank 12 exceeds 8");
    assert!(vm.to_string().contains("invalid header: rank 12 exceeds 8"), "{vm}");
    assert!(gcc.starts_with("binary exited with exit status: 1: "), "{gcc}");
    assert!(gcc.ends_with(&format!("{message}\n")), "{gcc}");
}
