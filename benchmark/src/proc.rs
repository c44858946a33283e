//! Child processes timed from spawn to exit, with the peak resident set
//! `wait4(2)` reports for exactly that child.
//!
//! A child's `ru_maxrss` is never below the resident set of the process
//! that executed it (Linux carries the old image's high-water mark over
//! `execve`), and this harness is about as large as `cmmc` itself. Timed
//! children are therefore started by a *spawner*: this same binary run as
//! `cmm-benchmark spawn PROGRAM ARGS...`, which touches ≈ 1 MB, starts
//! the program, waits for it and reports what `wait4` said on its
//! standard error. The wall time is the spawner's, from just before it
//! starts the program until `wait4` returns.

use std::io::{self, Read};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// `struct rusage` on 64-bit Linux: two timevals (two longs each) and
/// fourteen longs, the first of which is `ru_maxrss`.
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

#[derive(Debug, Clone, PartialEq)]
pub struct Exit {
    pub wall_ms: f64,
    pub maxrss_kb: i64,
    /// Exit code; -1 when a signal ended the child.
    pub code: i32,
    pub stdout: String,
}

impl Exit {
    pub fn ok(&self) -> bool {
        self.code == 0
    }
}

/// Run `cmd` (program, arguments, environment additions and working
/// directory) to completion through the spawner. Its stdout is captured
/// (the programs under test print a few lines), its stderr discarded.
pub fn run(cmd: &Command) -> io::Result<Exit> {
    let mut spawner = Command::new(std::env::current_exe()?);
    spawner
        .arg("spawn")
        .arg(cmd.get_program())
        .args(cmd.get_args());
    for (key, value) in cmd.get_envs() {
        match value {
            Some(value) => spawner.env(key, value),
            None => spawner.env_remove(key),
        };
    }
    if let Some(dir) = cmd.get_current_dir() {
        spawner.current_dir(dir);
    }
    let mut child = spawner
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    // The program's output is a few lines and the spawner writes its
    // report only after the program has ended: reading one pipe after
    // the other cannot block either writer.
    let (mut stdout, mut report) = (String::new(), String::new());
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut stdout)?;
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut report)?;
    child.wait()?;
    parse_report(&report, stdout)
}

fn parse_report(report: &str, stdout: String) -> io::Result<Exit> {
    let bad = || io::Error::other(format!("spawner: {}", report.trim()));
    let fields: Vec<&str> = report.split_whitespace().collect();
    let [wall_ms, maxrss_kb, code] = fields[..] else {
        return Err(bad());
    };
    Ok(Exit {
        wall_ms: wall_ms.parse().map_err(|_| bad())?,
        maxrss_kb: maxrss_kb.parse().map_err(|_| bad())?,
        code: code.parse().map_err(|_| bad())?,
        stdout,
    })
}

/// `cmm-benchmark spawn PROGRAM ARGS...`: start the program with this
/// process's stdout, wait for it, and print `wall_ms maxrss_kb code` on
/// stderr.
pub fn spawner(args: &[String]) -> ExitCode {
    let Some((program, rest)) = args.split_first() else {
        eprintln!("usage: cmm-benchmark spawn PROGRAM ARGS...");
        return ExitCode::from(2);
    };
    let t0 = Instant::now();
    let reaped = Command::new(program)
        .args(rest)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .and_then(|child| reap(child.id()));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    match reaped {
        Ok((code, maxrss_kb)) => {
            eprintln!("{wall_ms} {maxrss_kb} {code}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot run {program}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Wait for `pid` (a child of this process that nothing else reaps) and
/// return its exit code and peak resident set in KiB.
pub fn reap(pid: u32) -> io::Result<(i32, i64)> {
    let mut status = 0i32;
    // SAFETY: `Rusage` matches the kernel's layout for this target and
    // both out-pointers are valid for the call.
    let mut ru: Rusage = unsafe { std::mem::zeroed() };
    let got = unsafe { wait4(pid as i32, &mut status, 0, &mut ru) };
    if got < 0 {
        return Err(io::Error::last_os_error());
    }
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -1
    };
    Ok((code, ru.maxrss_kb))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawner_report() {
        let exit = parse_report("412.5 5372 0\n", "7\n".into()).expect("well-formed report");
        assert_eq!(
            exit,
            Exit {
                wall_ms: 412.5,
                maxrss_kb: 5372,
                code: 0,
                stdout: "7\n".into()
            }
        );
        assert!(exit.ok());
        assert!(!parse_report("1.0 100 -1\n", String::new())
            .expect("killed child")
            .ok());
        assert!(parse_report(
            "cannot run nothing: No such file or directory\n",
            String::new()
        )
        .is_err());
    }
}
