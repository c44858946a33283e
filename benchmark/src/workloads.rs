//! The four workloads: what each sets up, which operations it times,
//! and how every output is checked against the generator's reference.
//!
//! Every workload reports the same end-to-end metrics (the driver's
//! contract); what the two timings are on each is the table in
//! `README.md` and the `what` of each slot here:
//!
//! * `op_ms` — the operation the workload's user waits for;
//! * `guard_ms` — the companion number that must not be traded away for
//!   it (the emitted C, one-thread cost, start-up cost, tail latency).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use crate::gen::{self, Program, Stream};
use crate::harness::{Slot, Tally, Values};
use crate::proc;
use crate::serve::{all_at_once, Connection, Server};
use crate::stats;

pub const WORKLOADS: [&str; 4] = [
    "matmul_dense",
    "imbalanced_fold",
    "compile_wide",
    "serve_mixed",
];

/// Sizes, chosen so that every timed `cmmc run` lasts at least
/// `MIN_SAMPLE_MS` on the calibration host and a round of samples between
/// one and two seconds.
pub const MATMUL_N: usize = 256;
pub const IMBALANCED_ROWS: usize = 192;
pub const IMBALANCED_WIDTH: usize = 800;
pub const IMBALANCED_DIRECTIVE: &str = "schedule i dynamic, 4";
pub const WIDE_FILES: usize = 4;
/// 32 sets of the 13 templates: 416 functions, about 120 KB a file.
pub const WIDE_SETS: usize = 32;
/// Length of one serve latency slice: eleven of them, each followed by a
/// canary reading, fill the 24 s window, and at ≈ 450 requests a second
/// each holds ≈ 950 requests, so its p95 has ≈ 47 samples beyond it.
pub const SLICE: Duration = Duration::from_millis(2100);
pub const SERVE_CONNECTIONS: usize = 2;
/// Requests each connection sends in the concurrent warm-up of the
/// daemon in set-up: an amount of work, not of time, so that `setup_s`
/// scales with the host's speed as the canary does.
const WARM_UP_REQUESTS: usize = 120;

pub struct Ctx {
    pub cmmc: PathBuf,
    /// Scratch directory of this run (`benchmark/out/<workload>`).
    pub dir: PathBuf,
    pub threads: usize,
    pub seed: u64,
    /// Whether there is a gcc to build emitted C with. Without one the
    /// native metric is omitted and flagged, never estimated.
    pub gcc: bool,
    /// Deliberately wrong references, to show that a mismatch is caught.
    pub corrupt: bool,
}

pub fn gcc_present() -> bool {
    Command::new("gcc")
        .arg("--version")
        .output()
        .is_ok_and(|out| out.status.success())
}

/// Whether gcc accepted the command line. Emitted C that gcc rejects is a
/// failed operation of the translator, not an error of the benchmark.
pub fn gcc_accepts(dir: &Path, args: &[&str]) -> bool {
    let out = Command::new("gcc").args(args).current_dir(dir).output();
    match &out {
        Ok(out) if !out.status.success() => {
            eprintln!("gcc {args:?}: {}", String::from_utf8_lossy(&out.stderr))
        }
        Ok(_) => {}
        Err(e) => eprintln!("gcc {args:?}: {e}"),
    }
    out.is_ok_and(|out| out.status.success())
}

impl Ctx {
    fn cmmc(&self, args: &[&str]) -> Command {
        let mut c = Command::new(&self.cmmc);
        c.args(args).current_dir(&self.dir);
        c
    }

    fn write(&self, name: &str, mut program: Program) -> io::Result<Program> {
        fs::write(self.dir.join(name), &program.src)?;
        if self.corrupt {
            program.expected.insert(0, '9');
        }
        Ok(program)
    }

    fn threads_arg(&self) -> String {
        self.threads.to_string()
    }
}

/// Run a command line, check exit code and stdout, account for it, and
/// return its wall time when it succeeded.
fn timed(cmd: Command, expected: Option<&str>, is_cmmc: bool, tally: &mut Tally) -> Option<f64> {
    let exit = proc::run(&cmd).ok();
    let ok = exit
        .as_ref()
        .is_some_and(|e| e.ok() && expected.is_none_or(|x| e.stdout == x));
    tally.record(ok);
    let exit = exit.filter(|_| ok)?;
    if is_cmmc {
        tally.peak_rss_kb = tally.peak_rss_kb.max(exit.maxrss_kb);
    }
    Some(exit.wall_ms)
}

fn one(name: &'static str, wall_ms: Option<f64>) -> Values {
    wall_ms.map(|ms| vec![(name, ms)]).unwrap_or_default()
}

/// A set-up workload: its slots borrow it.
pub enum Ready {
    /// `matmul_dense` (`native`: with the emitted C built beside it) and
    /// `imbalanced_fold`: one program.
    Single {
        file: &'static str,
        program: Program,
        native: bool,
    },
    Wide {
        files: Vec<(String, Program)>,
        three: Program,
    },
    Serve {
        server: Server,
        connections: Vec<Connection>,
    },
}

/// Set-up: generate inputs and references, verify every output once,
/// build the native binary, start and warm the daemon. Each verification
/// counts as an attempted operation.
pub fn setup(name: &str, ctx: &Ctx, tally: &mut Tally) -> io::Result<Ready> {
    let _ = fs::remove_dir_all(&ctx.dir);
    fs::create_dir_all(&ctx.dir)?;
    let t = ctx.threads_arg();
    match name {
        "matmul_dense" => {
            let file = "matmul.xc";
            let program = ctx.write(file, gen::matmul(ctx.seed, MATMUL_N))?;
            timed(
                ctx.cmmc(&["run", file, "--threads", &t]),
                Some(&program.expected),
                true,
                tally,
            );
            timed(
                ctx.cmmc(&["emit", file, "-o", "native.c"]),
                None,
                true,
                tally,
            );
            if ctx.gcc {
                tally.record(gcc_accepts(
                    &ctx.dir,
                    &[
                        "-O2", "-fopenmp", "-msse2", "native.c", "-o", "native", "-lm",
                    ],
                ));
                timed(native(ctx), Some(&program.expected), false, tally);
            }
            Ok(Ready::Single {
                file,
                program,
                native: true,
            })
        }
        "imbalanced_fold" => {
            let file = "imbalanced.xc";
            let program = gen::imbalanced(
                ctx.seed,
                IMBALANCED_ROWS,
                IMBALANCED_WIDTH,
                IMBALANCED_DIRECTIVE,
            );
            let program = ctx.write(file, program)?;
            timed(
                ctx.cmmc(&["run", file, "--threads", &t]),
                Some(&program.expected),
                true,
                tally,
            );
            Ok(Ready::Single {
                file,
                program,
                native: false,
            })
        }
        "compile_wide" => {
            let mut files = Vec::new();
            for i in 0..WIDE_FILES {
                let file = format!("wide{i}.xc");
                let program = ctx.write(&file, gen::wide_file(ctx.seed, i, WIDE_SETS))?;
                let c = format!("wide{i}.c");
                timed(
                    ctx.cmmc(&["run", &file, "--threads", &t]),
                    Some(&program.expected),
                    true,
                    tally,
                );
                timed(ctx.cmmc(&["emit", &file, "-o", &c]), None, true, tally);
                if ctx.gcc {
                    tally.record(gcc_accepts(
                        &ctx.dir,
                        &["-fsyntax-only", "-fopenmp", "-msse2", &c],
                    ));
                }
                files.push((file, program));
            }
            let three = ctx.write("three.xc", gen::three_line(ctx.seed))?;
            timed(
                ctx.cmmc(&["run", "three.xc"]),
                Some(&three.expected),
                true,
                tally,
            );
            Ok(Ready::Wide { files, three })
        }
        "serve_mixed" => {
            let server = Server::start(&ctx.cmmc, ctx.threads)?;
            let mut connections = Vec::new();
            for c in 0..SERVE_CONNECTIONS {
                connections.push(Connection::open(
                    &server.addr,
                    Stream::new(ctx.seed, c, ctx.corrupt),
                )?);
            }
            // Warm-up, first one block on one connection: its first
            // `compile` response is compiled with gcc and run, which
            // checks the emitted C end to end.
            let mut checked_c = !ctx.gcc;
            for _ in 0..20 {
                let (req, done, resp) = connections[0].next();
                let mut ok = done.ok;
                if ok && !checked_c && req.class == gen::Class::Compile {
                    checked_c = true;
                    let c = crate::serve::json_str(&resp, "output").unwrap_or_default();
                    fs::write(ctx.dir.join("served.c"), c)?;
                    ok = gcc_accepts(
                        &ctx.dir,
                        &[
                            "-O2", "-fopenmp", "-msse2", "served.c", "-o", "served", "-lm",
                        ],
                    ) && proc::run(&Command::new(ctx.dir.join("served")))
                        .is_ok_and(|e| e.ok() && e.stdout == req.program.expected);
                }
                tally.record(ok);
            }
            // ... then all connections at once, as measured, so that both
            // workers and their session pools are warm.
            for done in all_at_once(&mut connections, |_, c| c.drive_n(WARM_UP_REQUESTS)) {
                tally.record(done.ok);
            }
            Ok(Ready::Serve {
                server,
                connections,
            })
        }
        other => Err(io::Error::other(format!(
            "unknown workload '{other}' (one of {WORKLOADS:?})"
        ))),
    }
}

fn native(ctx: &Ctx) -> Command {
    let mut c = Command::new(ctx.dir.join("native"));
    c.env("OMP_NUM_THREADS", ctx.threads_arg())
        .current_dir(&ctx.dir);
    c
}

/// The timed operations of a set-up workload.
pub fn slots<'a>(ready: &'a mut Ready, ctx: &'a Ctx) -> Vec<Slot<'a>> {
    let t = ctx.threads;
    match ready {
        Ready::Single {
            file,
            program,
            native: with_native,
        } => {
            let (file, expected) = (*file, program.expected.as_str());
            let mut slots = vec![Slot {
                what: format!("op_ms = run_ms: cmmc run {file} --threads {t}"),
                parallel: t > 1,
                whole: false,
                run: Box::new(move |tally| {
                    one(
                        "op_ms",
                        timed(
                            ctx.cmmc(&["run", file, "--threads", &ctx.threads_arg()]),
                            Some(expected),
                            true,
                            tally,
                        ),
                    )
                }),
            }];
            if !*with_native {
                slots.push(Slot {
                    what: format!("guard_ms = run_t1_ms: cmmc run {file} --threads 1"),
                    parallel: false,
                    whole: false,
                    run: Box::new(move |tally| {
                        one(
                            "guard_ms",
                            timed(
                                ctx.cmmc(&["run", file, "--threads", "1"]),
                                Some(expected),
                                true,
                                tally,
                            ),
                        )
                    }),
                });
            } else if ctx.gcc {
                slots.push(Slot {
                    what: format!("guard_ms = native_ms: the emitted C built with gcc -O2 -fopenmp, OMP_NUM_THREADS={t}"),
                    parallel: t > 1,
                    whole: false,
                    run: Box::new(move |tally| one("guard_ms", timed(native(ctx), Some(expected), false, tally))),
                });
            }
            slots
        }
        Ready::Wide { files, three } => {
            let (files, three) = (&*files, &*three);
            vec![
                Slot {
                    what: format!("op_ms = emit_ms: cmmc emit wideN.xc -o wideN.c, summed over {WIDE_FILES} files"),
                    parallel: false,
                    whole: false,
                    run: Box::new(move |tally| {
                        // One failure fails the whole operation.
                        let mut sum = Some(0.0);
                        for (i, (file, _)) in files.iter().enumerate() {
                            let wall = timed(ctx.cmmc(&["emit", file, "-o", &format!("wide{i}.c")]), None, true, tally);
                            sum = sum.zip(wall).map(|(sum, ms)| sum + ms);
                        }
                        one("op_ms", sum)
                    }),
                },
                Slot {
                    what: "guard_ms = cli_start_ms: cmmc run of the three-line program".into(),
                    parallel: false,
                    whole: false,
                    run: Box::new(move |tally| {
                        one("guard_ms", timed(ctx.cmmc(&["run", "three.xc"]), Some(&three.expected), true, tally))
                    }),
                },
            ]
        }
        Ready::Serve { connections, .. } => {
            vec![Slot {
                what: format!(
                    "op_ms = serve_p50_ms, guard_ms = serve_p95_ms: {SERVE_CONNECTIONS} closed-loop connections for {} ms",
                    SLICE.as_millis()
                ),
                parallel: t > 1,
                whole: true,
                run: Box::new(move |tally| {
                    let deadline = Instant::now() + SLICE;
                    let done = all_at_once(connections, |_, c| c.drive(deadline));
                    let mut latencies = Vec::new();
                    for d in &done {
                        tally.record(d.ok);
                        if d.ok {
                            latencies.push(d.latency_ms);
                        }
                    }
                    if latencies.is_empty() {
                        return Vec::new();
                    }
                    let s = stats::sorted(&latencies);
                    vec![("op_ms", stats::percentile(&s, 50.0)), ("guard_ms", stats::percentile(&s, 95.0))]
                }),
            }]
        }
    }
}

/// Tear down: stop the daemon and fold its resident set into the tally.
pub fn teardown(ready: Ready, tally: &mut Tally) {
    if let Ready::Serve {
        server,
        connections,
        ..
    } = ready
    {
        drop(connections);
        let (clean, rss_kb) = server.stop();
        tally.record(clean);
        tally.peak_rss_kb = tally.peak_rss_kb.max(rss_kb);
    }
}
