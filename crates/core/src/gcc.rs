//! Helper for round-tripping emitted C through a real C compiler.
//!
//! The paper's translator output is "plain C code, which can then be
//! compiled for execution by a traditional compiler" (§II). These helpers
//! let tests and experiments do exactly that: compile the emitted
//! translation unit with `gcc -O2 -fopenmp -msse2` and run the binary,
//! so interpreter output can be diffed against real compiled output.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

/// Whether a usable `gcc` is on PATH (tests skip the round trip when the
/// environment has no C toolchain).
pub fn gcc_available() -> bool {
    Command::new("gcc")
        .arg("--version")
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false)
}

/// [`gcc_available`], but when gcc is absent prints one
/// `SKIP: gcc not found (<context>)` line to stderr so CI logs show
/// exactly which oracle or test was skipped rather than silently
/// passing. `context` names the caller (e.g. a test function or the
/// fuzz gcc oracle).
pub fn gcc_available_or_skip(context: &str) -> bool {
    let ok = gcc_available();
    if !ok {
        eprintln!("SKIP: gcc not found ({context})");
    }
    ok
}

/// Compile `c_source` with gcc and run it, returning its stdout.
///
/// `threads` sets `OMP_NUM_THREADS` for the run. Returns an error string
/// describing compilation or execution failure. The compiled binary gets
/// a generous wall-clock allowance; use
/// [`compile_and_run_c_with_timeout`] to pick it explicitly.
pub fn compile_and_run_c(c_source: &str, threads: usize) -> Result<String, String> {
    compile_and_run_c_with_timeout(c_source, threads, std::time::Duration::from_secs(120))
}

/// [`compile_and_run_c`] with an explicit wall-clock budget for the
/// *compiled binary's* run (compilation itself is not budgeted). A
/// binary still running at the deadline is killed and reported as an
/// error — callers feeding machine-generated programs (the fuzz
/// minimizer) must not hang on a candidate that loops forever.
pub fn compile_and_run_c_with_timeout(
    c_source: &str,
    threads: usize,
    timeout: std::time::Duration,
) -> Result<String, String> {
    let run = build_and_run_c(c_source, threads, timeout)?;
    if !run.status.success() {
        return Err(format!("binary exited with {}: {}", run.status, run.stderr));
    }
    Ok(run.stdout)
}

/// What a gcc-built program did: how it exited and what it printed.
pub struct CRun {
    pub status: std::process::ExitStatus,
    pub stdout: String,
    pub stderr: String,
}

/// [`compile_and_run_c_with_timeout`] that returns a failed run's
/// output too. `Err` is a build, spawn or time-out failure.
pub fn build_and_run_c(
    c_source: &str,
    threads: usize,
    timeout: std::time::Duration,
) -> Result<CRun, String> {
    // One name per call: concurrent callers in one process (tests) must
    // not build or run each other's files.
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir();
    let tag = format!(
        "cmmc-{}-{}",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    );
    let c_path: PathBuf = dir.join(format!("{tag}.c"));
    let bin_path: PathBuf = dir.join(tag.clone());
    let out_path: PathBuf = dir.join(format!("{tag}.out"));
    let err_path: PathBuf = dir.join(format!("{tag}.err"));
    std::fs::write(&c_path, c_source).map_err(|e| format!("write: {e}"))?;
    let cleanup = || {
        std::fs::remove_file(&c_path).ok();
        std::fs::remove_file(&bin_path).ok();
        std::fs::remove_file(&out_path).ok();
        std::fs::remove_file(&err_path).ok();
    };

    let compile = Command::new("gcc")
        .args(["-O2", "-fopenmp", "-msse2", "-o"])
        .arg(&bin_path)
        .arg(&c_path)
        .arg("-lm")
        .output()
        .map_err(|e| format!("gcc spawn: {e}"))?;
    if !compile.status.success() {
        let err = String::from_utf8_lossy(&compile.stderr).into_owned();
        cleanup();
        return Err(format!("gcc failed:\n{err}"));
    }

    // Redirect to files and poll: reading pipes from a killed child is a
    // deadlock trap, files are not.
    let out_file = std::fs::File::create(&out_path).map_err(|e| format!("out: {e}"))?;
    let err_file = std::fs::File::create(&err_path).map_err(|e| format!("err: {e}"))?;
    let mut child = Command::new(&bin_path)
        .env("OMP_NUM_THREADS", threads.to_string())
        .stdout(out_file)
        .stderr(err_file)
        .spawn()
        .map_err(|e| format!("run: {e}"))?;
    let started = std::time::Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => {
                if started.elapsed() >= timeout {
                    let _ = child.kill();
                    let _ = child.wait();
                    cleanup();
                    return Err(format!(
                        "binary timed out after {timeout:?} (killed)"
                    ));
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            Err(e) => {
                cleanup();
                return Err(format!("wait: {e}"));
            }
        }
    };
    let stdout = std::fs::read_to_string(&out_path).unwrap_or_default();
    let stderr = std::fs::read_to_string(&err_path).unwrap_or_default();
    cleanup();
    Ok(CRun { status, stdout, stderr })
}
