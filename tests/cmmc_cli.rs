//! Smoke tests for the `cmmc` command-line translator.

use std::process::Command;

fn cmmc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cmmc"))
}

fn write_program(name: &str, src: &str) -> String {
    let path = std::env::temp_dir().join(format!("cmmc-{}-{name}", std::process::id()));
    std::fs::write(&path, src).expect("write program");
    path.display().to_string()
}

const PROGRAM: &str = r#"
int main() {
    int n = 8;
    Matrix int <1> v = with ([0] <= [i] < [n]) genarray([n], i * i);
    printInt(with ([0] <= [i] < [n]) fold(+, 0, v[i]));
    return 0;
}
"#;

#[test]
fn run_executes_and_prints() {
    let path = write_program("run.xc", PROGRAM);
    let out = cmmc()
        .args(["run", &path, "--threads", "2"])
        .output()
        .expect("spawn cmmc");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout), "140\n");
    std::fs::remove_file(path).ok();
}

#[test]
fn check_reports_ok_and_errors() {
    let good = write_program("good.xc", PROGRAM);
    let out = cmmc().args(["check", &good]).output().expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("ok (1 function)"));
    std::fs::remove_file(good).ok();

    let bad = write_program("bad.xc", "int main() { printInt(zzz); return 0; }");
    let out = cmmc().args(["check", &bad]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("undefined variable"));
    std::fs::remove_file(bad).ok();
}

#[test]
fn emit_produces_c() {
    let path = write_program("emit.xc", PROGRAM);
    let out = cmmc().args(["emit", &path]).output().expect("spawn");
    assert!(out.status.success());
    let c = String::from_utf8_lossy(&out.stdout);
    assert!(c.contains("int main(void)"));
    assert!(c.contains("cmm_mat"));
    std::fs::remove_file(path).ok();
}

/// Both analyses' verdicts, byte for byte: `tests/golden/analyses.txt` is
/// `cmmc analyses > tests/golden/analyses.txt`.
#[test]
fn analyses_prints_verdicts() {
    let out = cmmc().arg("analyses").output().expect("spawn");
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), include_str!("golden/analyses.txt"));
    // What an extension author reads must not depend on the process that
    // printed it (LALR states used to be numbered in hash-map order).
    let again = cmmc().arg("analyses").output().expect("spawn");
    assert_eq!(again.stdout, out.stdout, "two runs of `cmmc analyses` differ");
}

const INFINITE_LOOP: &str = r#"
int main() {
    int n = 0;
    while (1 > 0) { n = n + 1; }
    return 0;
}
"#;

#[test]
fn fuel_limit_kills_infinite_loop() {
    let path = write_program("fuel.xc", INFINITE_LOOP);
    let out = cmmc()
        .args(["run", &path, "--fuel", "10000"])
        .output()
        .expect("spawn cmmc");
    assert_eq!(out.status.code(), Some(5), "limit errors exit with code 5");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("limit exceeded (fuel)"), "{stderr}");
    assert!(stderr.contains("fuel budget of 10000 steps"), "{stderr}");
    assert!(!stderr.contains("panicked"), "no panic backtraces: {stderr}");
    std::fs::remove_file(path).ok();
}

#[test]
fn deadline_kills_infinite_loop() {
    let path = write_program("deadline.xc", INFINITE_LOOP);
    let out = cmmc()
        .args(["run", &path, "--deadline-ms", "100"])
        .output()
        .expect("spawn cmmc");
    assert_eq!(out.status.code(), Some(5));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("limit exceeded (deadline)"), "{stderr}");
    std::fs::remove_file(path).ok();
}

#[test]
fn max_mem_rejects_oversized_matrix() {
    let path = write_program(
        "bigalloc.xc",
        r#"
        int main() {
            int n = 1000000;
            Matrix int <1> v = with ([0] <= [i] < [n]) genarray([n], i);
            printInt(v[0]);
            return 0;
        }
        "#,
    );
    let out = cmmc()
        .args(["run", &path, "--max-mem", "64k"])
        .output()
        .expect("spawn cmmc");
    assert_eq!(out.status.code(), Some(5));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("limit exceeded (memory)"), "{stderr}");
    std::fs::remove_file(path).ok();
}

#[test]
fn limits_do_not_affect_well_behaved_programs() {
    let path = write_program("limited-ok.xc", PROGRAM);
    let out = cmmc()
        .args(["run", &path, "--fuel", "1000000", "--max-mem", "1m", "--deadline-ms", "60000"])
        .output()
        .expect("spawn cmmc");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout), "140\n");
    std::fs::remove_file(path).ok();
}

#[test]
fn runtime_error_is_one_line_with_exit_1() {
    let path = write_program(
        "divzero.xc",
        "int main() { int a = 5; int b = 0; printInt(a / b); return 0; }",
    );
    let out = cmmc().args(["run", &path]).output().expect("spawn cmmc");
    assert_eq!(out.status.code(), Some(1), "runtime errors exit with code 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "one-line diagnostic, got: {stderr}");
    assert!(lines[0].starts_with("cmmc: runtime error:"), "{stderr}");
    assert!(lines[0].contains("division by zero"), "{stderr}");
    std::fs::remove_file(path).ok();
}

/// The tree-walking reference tier's run of `src`: its output, or the
/// one-line diagnostic `cmmc` would print for its error.
fn tree_run(src: &str) -> Result<String, String> {
    use cmm::loopir::{Interp, Tier};
    let ir = cmm::eddy::programs::full_compiler().compile(src).expect("compile");
    let interp = Interp::new(&ir, 2).with_tier(Tier::Tree);
    match interp.run_main() {
        Ok(_) => Ok(interp.output()),
        Err(e) => Err(format!("cmmc: {e}\n")),
    }
}

/// `INT_MIN / -1` and `INT_MIN % -1` have no `int` result: a program error
/// like division by zero, reported the same way by both tiers — not a
/// panic of the interpreter (exit 101 and a backtrace). `cmmc run` runs
/// the VM; the tree tier is run through the library.
#[test]
fn int_min_divided_by_minus_one_is_a_runtime_error_in_both_tiers() {
    let overflow = "cmmc: runtime error: integer division overflow\n";
    for op in ["/", "%"] {
        let src = format!(
            "int main() {{ int a = 0 - 2147483647 - 1; int b = 0 - 1; printInt(a {op} b); return 0; }}"
        );
        let path = write_program(
            &format!("divoverflow{}.xc", if op == "/" { "div" } else { "rem" }),
            &src,
        );
        let out = cmmc().args(["run", &path]).output().expect("spawn cmmc");
        assert_eq!(out.status.code(), Some(1), "a {op} b exits with code 1");
        assert_eq!(String::from_utf8_lossy(&out.stderr), overflow, "a {op} b");
        assert_eq!(tree_run(&src), Err(overflow.to_string()), "tree: a {op} b");
        std::fs::remove_file(path).ok();
    }
    // Unary minus wraps, as the binary int operators do.
    let src = "int main() { int a = 0 - 2147483647 - 1; printInt(-a); return 0; }";
    let path = write_program("negmin.xc", src);
    let out = cmmc().args(["run", &path]).output().expect("spawn cmmc");
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stdout), "-2147483648\n");
    assert_eq!(tree_run(src).as_deref(), Ok("-2147483648\n"));
    std::fs::remove_file(path).ok();
}

#[test]
fn usage_error_exits_2() {
    let out = cmmc()
        .args(["run", "whatever.xc", "--bogus-flag"])
        .output()
        .expect("spawn cmmc");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));

    let out = cmmc()
        .args(["run", "whatever.xc", "--fuel", "not-a-number"])
        .output()
        .expect("spawn cmmc");
    assert_eq!(out.status.code(), Some(2));

    // `--tier` is not an option: programs run on the VM.
    let path = write_program("tier.xc", PROGRAM);
    let out = cmmc().args(["run", &path, "--tier", "vm"]).output().expect("spawn cmmc");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    std::fs::remove_file(path).ok();
}

#[test]
fn unreadable_file_exits_3() {
    let out = cmmc()
        .args(["run", "/nonexistent/program.xc"])
        .output()
        .expect("spawn cmmc");
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn compile_error_exits_4() {
    let path = write_program("typeerr.xc", "int main() { printInt(zzz); return 0; }");
    let out = cmmc().args(["run", &path]).output().expect("spawn cmmc");
    assert_eq!(out.status.code(), Some(4), "compile errors exit with code 4");
    std::fs::remove_file(path).ok();
}

/// A function the bytecode VM cannot address — 65 536 locals overflow its
/// `u16` registers — is a compile error naming the function, not a run on
/// a slower tier.
#[test]
fn a_function_over_the_bytecode_limits_exits_4() {
    let decls: String = (0..=u16::MAX as u32).map(|k| format!("int x{k} = {};\n", k % 7)).collect();
    let src = format!("int main() {{\n{decls}printInt(x65535);\nreturn 0;\n}}\n");
    let path = write_program("wide.xc", &src);
    let out = cmmc().args(["run", &path]).output().expect("spawn cmmc");
    assert_eq!(out.status.code(), Some(4));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "cmmc: bytecode limit: function 'main': too many frame slots\n"
    );
    assert!(out.stdout.is_empty());
    std::fs::remove_file(path).ok();
}

#[test]
fn redefining_a_source_builtin_is_a_compile_error_naming_it() {
    for (builtin, def) in [
        ("toInt", "int toInt(int x) { return x + 100; }"),
        ("range", "int range(int a, int b) { return a - b; }"),
    ] {
        let path = write_program(
            &format!("redef-{builtin}.xc"),
            &format!("{def}\nint main() {{ return 0; }}"),
        );
        let out = cmmc().args(["check", &path]).output().expect("spawn cmmc");
        assert_eq!(out.status.code(), Some(4), "redefining {builtin} must not compile");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("'{builtin}'")) && stderr.contains("builtin"),
            "diagnostic must name the builtin: {stderr}"
        );
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn profile_prints_table_on_stderr_output_on_stdout() {
    let path = write_program("profile.xc", PROGRAM);
    let out = cmmc()
        .args(["run", &path, "--threads", "2", "--profile"])
        .output()
        .expect("spawn cmmc");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // Program output stays clean on stdout; the profile goes to stderr.
    assert_eq!(String::from_utf8_lossy(&out.stdout), "140\n");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for section in ["compile passes", "fork-join regions", "interpreter", "rc pool"] {
        assert!(stderr.contains(section), "missing {section} in: {stderr}");
    }
    assert!(stderr.contains("parse"), "{stderr}");
    assert!(stderr.contains("barrier wait"), "{stderr}");
    std::fs::remove_file(path).ok();
}

#[test]
fn metrics_json_writes_schema_tagged_file() {
    let path = write_program("mjson.xc", PROGRAM);
    let json_path = std::env::temp_dir().join(format!("cmmc-{}-metrics.json", std::process::id()));
    let out = cmmc()
        .args(["run", &path, "--metrics-json", &json_path.display().to_string()])
        .output()
        .expect("spawn cmmc");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // --metrics-json alone keeps stderr quiet (no table).
    assert_eq!(String::from_utf8_lossy(&out.stderr), "");
    assert_eq!(String::from_utf8_lossy(&out.stdout), "140\n");
    let json = std::fs::read_to_string(&json_path).expect("metrics file written");
    assert!(json.contains("\"schema\": \"cmm-metrics-v1\""), "{json}");
    for key in ["\"passes\"", "\"pool\"", "\"interp\"", "\"rc\"", "\"imbalance_ratio\""] {
        assert!(json.contains(key), "missing {key} in: {json}");
    }
    std::fs::remove_file(path).ok();
    std::fs::remove_file(json_path).ok();
}

/// A `cmmc` process composes once: the default (full) language from the
/// tables built with `cmmc`, a `--ext` subset with the analyses and the
/// builders. The parser-cache block says which.
#[test]
fn metrics_json_says_whether_the_composition_was_prebuilt() {
    let path = write_program("prebuilt.xc", PROGRAM);
    for (ext, prebuilt) in [(None, 1), (Some("ext-matrix"), 0)] {
        let json_path = std::env::temp_dir().join(format!("cmmc-{}-prebuilt-{prebuilt}.json", std::process::id()));
        let json_path = json_path.display().to_string();
        let mut cmd = cmmc();
        cmd.args(["run", &path, "--metrics-json", &json_path]);
        if let Some(ext) = ext {
            cmd.args(["--ext", ext]);
        }
        let out = cmd.output().expect("spawn cmmc");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let written = std::fs::read_to_string(&json_path).expect("metrics file written");
        let doc = cmm::core::json::parse(&written).expect("the metrics file parses");
        let count = |key: &str| doc.get("parser_cache").and_then(|c| c.get(key)).and_then(|n| n.as_u64());
        assert_eq!((count("misses"), count("prebuilt")), (Some(1), Some(prebuilt)), "{ext:?}: {written}");
        std::fs::remove_file(json_path).ok();
    }
    std::fs::remove_file(path).ok();
}

/// `emit` and `check` take `--profile` and `--metrics-json` too: the
/// compile-only report (`"pool": null`, `"interp": null`) with the six
/// passes of a translation or the three of a check — and what they print
/// or write otherwise is what they print or write without the flags.
#[test]
fn emit_and_check_report_their_passes() {
    let path = write_program("passes.xc", PROGRAM);
    let tmp = |name: &str| {
        let file = format!("cmmc-{}-passes-{name}", std::process::id());
        std::env::temp_dir().join(file).display().to_string()
    };
    let pass_names = |json: &str| -> Vec<String> {
        let names = json.split("{\"name\": \"").skip(1);
        names.map(|rest| rest[..rest.find('"').expect("closing quote")].to_string()).collect()
    };
    let run = |args: &[&str]| {
        let out = cmmc().args(args).output().expect("spawn cmmc");
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        out
    };
    let compile_only = |json_path: &str, passes: &[&str]| {
        let json = std::fs::read_to_string(json_path).expect("metrics file written");
        assert!(json.contains("\"schema\": \"cmm-metrics-v1\""), "{json}");
        assert!(json.contains("\"pool\": null") && json.contains("\"interp\": null"), "{json}");
        assert_eq!(pass_names(&json), passes, "{json}");
        std::fs::remove_file(json_path).ok();
    };
    let six = ["parse", "build", "check", "optimize", "lower", "emit"];

    // emit to stdout.
    let json = tmp("emit.json");
    let plain = run(&["emit", &path]);
    let metered = run(&["emit", &path, "--metrics-json", &json]);
    assert_eq!(metered.stdout, plain.stdout);
    assert_eq!(String::from_utf8_lossy(&metered.stderr), "", "no table without --profile");
    compile_only(&json, &six);

    // emit -o, with the table as well.
    let (c_plain, c_metered) = (tmp("plain.c"), tmp("metered.c"));
    run(&["emit", &path, "-o", &c_plain]);
    let metered = run(&["emit", &path, "-o", &c_metered, "--profile", "--metrics-json", &json]);
    let written = |p: &str| std::fs::read(p).expect("C written");
    assert_eq!(written(&c_metered), written(&c_plain));
    assert_eq!(written(&c_plain), plain.stdout);
    let table = String::from_utf8_lossy(&metered.stderr).to_string();
    for pass in six {
        assert!(table.lines().any(|l| l.starts_with(pass)), "missing {pass} in: {table}");
    }
    assert!(!table.contains("interpreter") && !table.contains("fork-join"), "{table}");
    compile_only(&json, &six);
    std::fs::remove_file(c_plain).ok();
    std::fs::remove_file(c_metered).ok();

    // check.
    let plain = run(&["check", &path]);
    let metered = run(&["check", &path, "--metrics-json", &json]);
    assert_eq!(metered.stdout, plain.stdout);
    compile_only(&json, &["parse", "build", "check"]);
    std::fs::remove_file(path).ok();
}

/// A run that a limit or a runtime error stops still reports — it is the
/// run whose profile says where the steps went — and then exits with the
/// run's own code, which also wins over a report that cannot be written.
#[test]
fn a_failed_run_still_prints_its_table_and_writes_its_file() {
    let json_path = std::env::temp_dir().join(format!("cmmc-{}-failed.json", std::process::id()));
    let json_path = json_path.display().to_string();
    let failing = ["run", "examples/imbalanced.xc", "--fuel", "5000"];
    let plain = cmmc().args(failing).output().expect("spawn cmmc");
    let metered = cmmc()
        .args(failing)
        .args(["--profile", "--metrics-json", &json_path])
        .output()
        .expect("spawn cmmc");
    assert_eq!((plain.status.code(), metered.status.code()), (Some(5), Some(5)));
    assert_eq!(metered.stdout, plain.stdout);
    let stderr = String::from_utf8_lossy(&metered.stderr);
    assert!(stderr.contains("fuel budget of 5000 steps exhausted"), "{stderr}");
    assert!(stderr.contains("total steps"), "{stderr}");
    let written = std::fs::read_to_string(&json_path).expect("metrics file written");
    let doc = cmm::core::json::parse(&written).expect("the metrics file parses");
    let steps = doc.get("interp").and_then(|i| i.get("total_steps")).and_then(|n| n.as_u64());
    assert!(steps.is_some_and(|n| n >= 5000), "{written}");
    std::fs::remove_file(json_path).ok();

    let path = write_program("failed-div.xc", "int main() { int z = 0; printInt(1 / z); return 0; }");
    let out = cmmc()
        .args(["run", &path, "--profile", "--metrics-json", "/nonexistent/dir/m.json"])
        .output()
        .expect("spawn cmmc");
    assert_eq!(out.status.code(), Some(1), "the runtime error's code, not the write's 3");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("total steps") && stderr.contains("cannot write"), "{stderr}");
    std::fs::remove_file(path).ok();
}

#[test]
fn metrics_json_unwritable_path_exits_3() {
    let path = write_program("mjson-bad.xc", PROGRAM);
    let out = cmmc()
        .args(["run", &path, "--metrics-json", "/nonexistent/dir/m.json"])
        .output()
        .expect("spawn cmmc");
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot write"));
    std::fs::remove_file(path).ok();
}

#[test]
fn metrics_json_without_value_is_usage_error() {
    let out = cmmc()
        .args(["run", "whatever.xc", "--metrics-json"])
        .output()
        .expect("spawn cmmc");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn a_valued_flag_without_its_value_is_a_usage_error() {
    let path = write_program("novalue.xc", PROGRAM);
    for args in [
        vec!["emit", &path, "-o"],
        vec!["tune", &path, "-o"],
        vec!["tune", &path, "--apply", "-o"],
        vec!["tune", &path, "--report"],
    ] {
        let out = cmmc().args(&args).output().expect("spawn cmmc");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"), "{args:?}");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn a_numeric_flag_without_a_number_is_a_usage_error() {
    let path = write_program("nonumber.xc", PROGRAM);
    let cases = [
        (vec!["run", &path], "--threads"),
        (vec!["run", &path], "--fuel"),
        (vec!["fuzz"], "--seed"),
        // Never listens: the flags are read before the address is bound.
        (vec!["serve", "127.0.0.1:0"], "--workers"),
    ];
    for (lead, flag) in cases {
        for value in [None, Some("x")] {
            let mut args = lead.clone();
            args.push(flag);
            args.extend(value);
            let out = cmmc().args(&args).output().expect("spawn cmmc");
            assert_eq!(out.status.code(), Some(2), "{args:?}");
            assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"), "{args:?}");
        }
    }
    // Counts that must be above zero.
    for args in [["serve", "127.0.0.1:0", "--workers", "0"], ["tune", &path, "--threads", "0"]] {
        let out = cmmc().args(args).output().expect("spawn cmmc");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn an_unknown_oracle_is_named_with_every_known_one() {
    let out = cmmc().args(["fuzz", "--oracle", "bogus"]).output().expect("spawn cmmc");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    for oracle in ["transform", "schedule", "limits", "vm", "gcc", "tuned"] {
        assert!(stderr.contains(oracle), "{oracle} missing from: {stderr}");
    }
}

#[test]
fn restricted_extension_set() {
    let path = write_program("noext.xc", PROGRAM);
    let out = cmmc()
        .args(["run", &path, "--ext", "ext-rcptr"])
        .output()
        .expect("spawn");
    // Matrix syntax must not parse without the matrix extension.
    assert!(!out.status.success());
    std::fs::remove_file(path).ok();
}

/// CPU time of process `pid` so far, in clock ticks (`USER_HZ`, 100 a
/// second): utime and stime, fields 14 and 15 of `/proc/<pid>/stat`.
#[cfg(target_os = "linux")]
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("stat");
    let rest = &stat[stat.rfind(')').expect("comm") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime")
}

/// The daemon's two-thread session pool stays cached after the request;
/// its idle worker parks instead of spinning.
#[cfg(target_os = "linux")]
#[test]
fn an_idle_serve_daemon_uses_no_cpu_after_a_two_thread_run() {
    use std::io::{BufRead, BufReader, Write};
    use std::process::Stdio;

    let mut child = cmmc()
        .args(["serve", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cmmc serve");
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut line = String::new();
    stderr.read_line(&mut line).expect("listening line");
    let addr = line
        .trim()
        .strip_prefix("cmmc serve: listening on ")
        .unwrap_or_else(|| panic!("cmmc serve did not start: {line}"))
        .to_string();
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    let src = "int main() { Matrix int <1> v = with ([0] <= [i] < [4096]) genarray([4096], i * 3); \
               printInt(with ([0] <= [i] < [4096]) fold(+, 0, v[i])); return 0; }";
    let request = format!(r#"{{"id": "t2", "cmd": "run", "threads": 2, "src": "{src}"}}"#);
    stream.write_all(format!("{request}\n").as_bytes()).expect("send");
    let mut response = String::new();
    BufReader::new(&stream).read_line(&mut response).expect("response");
    assert!(response.contains("\"code\": 0"), "{response}");
    assert!(response.contains("25159680"), "{response}");

    let pid = child.id();
    let worker = std::fs::read_dir(format!("/proc/{pid}/task"))
        .expect("daemon threads")
        .filter_map(Result::ok)
        .any(|task| {
            std::fs::read_to_string(task.path().join("comm")).is_ok_and(|c| c.trim() == "cmm-worker-1")
        });
    assert!(worker, "the two-thread run left no pool worker in the daemon");
    std::thread::sleep(std::time::Duration::from_millis(50));
    let before = cpu_ticks(pid);
    std::thread::sleep(std::time::Duration::from_millis(300));
    let used = cpu_ticks(pid) - before;
    child.kill().expect("kill cmmc serve");
    child.wait().expect("reap cmmc serve");
    assert!(used <= 2, "an idle daemon used {used} CPU ticks in 300 ms");
}
