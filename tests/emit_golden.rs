//! The C that `cmmc emit` writes for every example, every corpus program
//! and one instance of each `compile_wide` benchmark template
//! (`tests/golden/wide_templates.xc`: the first functions of a generated
//! `wide0.xc`, up to the thirteenth template, plus a `main` that prints
//! their results) is pinned byte for byte in `tests/golden/emit/`, one
//! `<program>.c` per program. After an intended change to the emitted C,
//! regenerate a golden with `cmmc emit <program> > tests/golden/emit/<program>.c`
//! and explain the diff.

use std::path::{Path, PathBuf};

use cmm::eddy::programs::full_compiler;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn programs() -> Vec<PathBuf> {
    let mut paths = vec![root().join("tests/golden/wide_templates.xc")];
    for dir in ["examples", "tests/corpus"] {
        for entry in std::fs::read_dir(root().join(dir)).expect("program directory") {
            let path = entry.expect("directory entry").path();
            if path.extension().is_some_and(|x| x == "xc") {
                paths.push(path);
            }
        }
    }
    paths.sort();
    paths
}

/// `c` with the grain argument of each `cmm_sched_next` call masked: it
/// is half the emitting host's L2 cache in iterations, the one part of
/// the text that depends on the host.
fn mask_grain(c: &str) -> String {
    let mask = |line: &str| {
        if !line.contains("cmm_sched_next(&") {
            return line.to_string();
        }
        let mut args: Vec<&str> = line.split(", ").collect();
        args[5] = "GRAIN";
        args.join(", ")
    };
    c.split('\n').map(mask).collect::<Vec<_>>().join("\n")
}

#[test]
fn emitted_c_matches_its_golden() {
    let compiler = full_compiler();
    let goldens = root().join("tests/golden/emit");
    let programs = programs();
    let mut differ = Vec::new();
    for path in &programs {
        let name = path.file_stem().expect("file name").to_string_lossy();
        let golden = std::fs::read_to_string(goldens.join(format!("{name}.c")))
            .unwrap_or_else(|e| panic!("{name}: no golden ({e})"));
        let src = std::fs::read_to_string(path).expect("readable program");
        let c = compiler
            .compile_to_c(&src)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let (c, golden) = (mask_grain(&c), mask_grain(&golden));
        if c != golden {
            let at = c.lines().zip(golden.lines()).position(|(a, b)| a != b);
            differ.push(format!("{name}.c (first differing line: {:?})", at.map(|i| i + 1)));
        }
    }
    assert!(differ.is_empty(), "emitted C differs from:\n{}", differ.join("\n"));
    let count = std::fs::read_dir(&goldens).expect("golden directory").count();
    assert_eq!(count, programs.len(), "a golden without its program");
}
