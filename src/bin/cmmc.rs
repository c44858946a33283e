//! `cmmc` — the extended-C translator as a command-line tool.
//!
//! ```text
//! cmmc run  program.xc [--threads N]        # translate + interpret
//! cmmc emit program.xc [-o out.c]           # translate to plain parallel C
//! cmmc check program.xc                     # parse + semantic analysis only
//! cmmc analyses                             # print the §VI analysis verdicts
//! cmmc fuzz [--seed N] [--cases K]          # differential fuzzing campaign
//!           [--oracle transform|schedule|limits|vm|gcc|tuned]...
//!           [--corpus-dir DIR]              # reproducer dir (default tests/corpus)
//! cmmc tune program.xc [--seed N]           # autotune transform directives
//!           [--budget N] [--threads N]      # candidates per site / modeled threads
//!           [--apply] [-o FILE]             # emit tuned source (stdout or FILE)
//!           [--report FILE]                 # write the report JSON to FILE
//!           [--host-geometry]               # model probed caches, not defaults
//! cmmc serve ADDR                           # multi-tenant compile/run daemon
//!           [--unix PATH] [--workers N] [--max-in-flight N]
//!           [--queue-deadline-ms N] [--drain-deadline-ms N]
//!           [--max-deadline-ms N] [--session-threads N]
//!
//! options:
//!   --ext a,b,c      extensions to compose (default: all five)
//!   --threads N      fork-join pool size for `run` (default 2)
//!   --no-parallel    disable automatic parallelization (§III-C)
//!   --no-fusion      disable the §III-A4 high-level optimizations
//!   --fuel N         abort `run` after N interpreter steps
//!   --max-mem BYTES  cap live matrix memory (suffixes k/m/g allowed)
//!   --deadline-ms N  wall-clock budget for `run` in milliseconds
//!   --schedule S     default loop schedule for `run`:
//!                    static | dynamic[:CHUNK] | guided[:MIN_CHUNK]
//!   --profile        print a pass/region/interpreter profile to stderr
//!                    (`check`, `emit`: the compile passes only)
//!   --metrics-json F write the profile as JSON (schema cmm-metrics-v1) to F
//! ```
//!
//! Exit codes: 0 success, 1 runtime error, 2 usage error, 3 unreadable
//! or unwritable file, 4 compile error, 5 resource limit exceeded.

use std::io::Write;
use std::mem::ManuallyDrop;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use cmm::core::{CompileError, CompileMetrics, ProfileReport, Registry, ALL_EXTENSIONS};
use cmm::loopir::{Limits, Schedule};

const EXIT_RUNTIME: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_FILE: u8 = 3;
const EXIT_COMPILE: u8 = 4;
const EXIT_LIMIT: u8 = 5;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cmmc <run|emit|check|analyses|fuzz|tune|serve> [file.xc|addr] [options]\n\
         options: --ext a,b,c | --threads N | -o out.c | --no-parallel | --no-fusion\n\
         \x20        --fuel N | --max-mem BYTES[k|m|g] | --deadline-ms N\n\
         \x20        --schedule static|dynamic[:N]|guided[:N]\n\
         \x20        --profile | --metrics-json FILE\n\
         fuzz:    --seed N | --cases K | --oracle transform|schedule|limits|gcc|vm|tuned\n\
         \x20        --corpus-dir DIR\n\
         tune:    --seed N | --budget N | --threads N | --apply | -o FILE\n\
         \x20        --report FILE | --host-geometry\n\
         serve:   --unix PATH | --workers N | --max-in-flight N\n\
         \x20        --queue-deadline-ms N | --drain-deadline-ms N\n\
         \x20        --max-deadline-ms N | --session-threads N\n\
         \x20        --tenant-quota N | --max-cached-pools N\n\
         \x20        --stream-chunk-bytes N"
    );
    ExitCode::from(EXIT_USAGE)
}

/// `cmmc serve ADDR`: run the crash-isolated multi-tenant daemon until
/// SIGTERM/SIGINT, then drain and print the final stats as JSON.
fn serve_command(args: &[String]) -> ExitCode {
    use cmm::serve::{signal, start, ServeConfig};

    let mut cfg = ServeConfig::default();
    let mut addr: Option<String> = None;
    let mut it = args.iter();
    let mut parse = || {
        while let Some(a) = it.next() {
            match a.as_str() {
                "--unix" => cfg.unix = Some(text(&mut it)?.into()),
                "--workers" => cfg.workers = positive(&mut it)?,
                "--max-in-flight" => cfg.max_in_flight = number(&mut it)?,
                "--session-threads" => cfg.session_threads = positive(&mut it)?,
                "--queue-deadline-ms" => {
                    cfg.queue_deadline = Duration::from_millis(number(&mut it)?);
                }
                "--drain-deadline-ms" => {
                    cfg.drain_deadline = Duration::from_millis(number(&mut it)?);
                }
                "--max-deadline-ms" => cfg.max_deadline = Duration::from_millis(number(&mut it)?),
                "--tenant-quota" => cfg.tenant_quota = Some(number(&mut it)?),
                "--max-cached-pools" => cfg.max_cached_pools = number(&mut it)?,
                "--stream-chunk-bytes" => cfg.stream_chunk_bytes = positive(&mut it)?,
                other if !other.starts_with('-') && addr.is_none() => {
                    addr = Some(other.to_string());
                }
                _ => return Err(usage()),
            }
        }
        Ok(())
    };
    if let Err(code) = parse() {
        return code;
    }
    let Some(addr) = addr else {
        eprintln!("cmmc serve: missing listen address (e.g. 127.0.0.1:7878)");
        return usage();
    };
    cfg.tcp = addr;

    signal::install();
    let handle = match start(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cmmc serve: cannot bind: {e}");
            return ExitCode::from(EXIT_FILE);
        }
    };
    eprintln!("cmmc serve: listening on {}", handle.local_addr());
    while !signal::termination_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("cmmc serve: termination requested; draining");
    let report = handle.shutdown();
    eprintln!(
        "cmmc serve: drained {} in {}ms",
        if report.clean { "cleanly" } else { "UNCLEANLY (session abandoned)" },
        report.waited.as_millis()
    );
    println!("{}", report.stats.to_json().to_line());
    if report.clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_RUNTIME)
    }
}

/// `cmmc fuzz`: run a differential fuzzing campaign and report findings.
fn fuzz_command(args: &[String]) -> ExitCode {
    use cmm::fuzz::{FuzzConfig, OracleKind, fuzz};

    let mut cfg = FuzzConfig::new(42, 100);
    cfg.corpus_dir = Some("tests/corpus".into());
    let mut oracles: Vec<OracleKind> = Vec::new();
    let mut it = args.iter();
    let mut parse = || {
        while let Some(a) = it.next() {
            match a.as_str() {
                "--seed" => cfg.seed = number(&mut it)?,
                "--cases" => cfg.cases = number(&mut it)?,
                "--oracle" => {
                    let v = text(&mut it)?;
                    let Some(kind) = OracleKind::parse(v) else {
                        eprintln!("cmmc: unknown oracle '{v}' (transform|schedule|limits|vm|gcc|tuned)");
                        return Err(ExitCode::from(EXIT_USAGE));
                    };
                    if !oracles.contains(&kind) {
                        oracles.push(kind);
                    }
                }
                "--corpus-dir" => cfg.corpus_dir = Some(text(&mut it)?.into()),
                _ => return Err(usage()),
            }
        }
        Ok(())
    };
    if let Err(code) = parse() {
        return code;
    }
    if !oracles.is_empty() {
        cfg.oracles = oracles;
    }

    let outcome = match fuzz(&cfg) {
        Ok(o) => o,
        Err(e) => return fail(&e),
    };
    let names: Vec<&str> = cfg.oracles.iter().map(|o| o.name()).collect();
    println!(
        "fuzz: seed {} · {} case(s) · oracles [{}] · comparisons: \
         transform {}, schedule {}, limits {}, vm {} ({} entered an unboxed loop, {} ran a full strip), \
         vm steps {}, tuned {}, gcc {}",
        cfg.seed,
        outcome.cases,
        names.join(", "),
        outcome.counts.transform,
        outcome.counts.schedule,
        outcome.counts.limits,
        outcome.counts.vm,
        outcome.counts.unboxed,
        outcome.counts.full_strip,
        outcome.counts.steps,
        outcome.counts.tuned,
        outcome.counts.gcc,
    );
    if outcome.findings.is_empty() {
        println!("fuzz: clean — no differential disagreements");
        return ExitCode::SUCCESS;
    }
    for f in &outcome.findings {
        let oracle = f.failure.oracle.map(|o| o.name()).unwrap_or("baseline");
        eprintln!("\nfuzz: FINDING case {} [{oracle}]: {}", f.case_index, f.failure.detail);
        match &f.corpus_path {
            Some(p) => eprintln!("fuzz: minimized reproducer written to {}", p.display()),
            None => eprintln!("fuzz: minimized reproducer:\n{}", f.minimized),
        }
    }
    eprintln!("\nfuzz: {} finding(s)", outcome.findings.len());
    ExitCode::from(EXIT_RUNTIME)
}

/// `cmmc tune`: autotune transform directives for a program. Without
/// `--apply`, the report JSON goes to stdout; with it, the tuned source
/// goes to stdout (or `-o FILE`) and the report to `--report FILE`.
fn tune_command(args: &[String]) -> ExitCode {
    use cmm::tune::{tune, TuneConfig, TuneError};

    let mut cfg = TuneConfig::default();
    let mut file: Option<String> = None;
    let mut apply = false;
    let mut out_file: Option<String> = None;
    let mut report_file: Option<String> = None;
    let mut it = args.iter();
    let mut parse = || {
        while let Some(a) = it.next() {
            match a.as_str() {
                "--seed" => cfg.seed = number(&mut it)?,
                "--budget" => cfg.budget = positive(&mut it)?,
                "--threads" => cfg.threads = positive(&mut it)?,
                "--fuel" => cfg.probe_fuel = number(&mut it)?,
                "--apply" => apply = true,
                "--host-geometry" => cfg.use_host_geometry = true,
                "-o" => out_file = Some(text(&mut it)?.clone()),
                "--report" => report_file = Some(text(&mut it)?.clone()),
                other if !other.starts_with('-') && file.is_none() => {
                    file = Some(other.to_string());
                }
                _ => return Err(usage()),
            }
        }
        Ok(())
    };
    if let Err(code) = parse() {
        return code;
    }
    let Some(file) = file else { return usage() };
    let src = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cmmc: cannot read {file}: {e}");
            return ExitCode::from(EXIT_FILE);
        }
    };
    cfg.program = file.clone();

    let outcome = match tune(&src, &cfg) {
        Ok(o) => o,
        Err(TuneError::Compile(e)) => return fail(&e),
        Err(e @ TuneError::Baseline(_)) => {
            eprintln!("cmmc: {e}");
            return ExitCode::from(EXIT_RUNTIME);
        }
    };
    if let Some(path) = &report_file {
        if let Err(e) = std::fs::write(path, &outcome.report) {
            eprintln!("cmmc: cannot write {path}: {e}");
            return ExitCode::from(EXIT_FILE);
        }
    }
    if apply {
        match out_file {
            Some(path) => {
                if let Err(e) = std::fs::write(&path, &outcome.tuned_source) {
                    eprintln!("cmmc: cannot write {path}: {e}");
                    return ExitCode::from(EXIT_FILE);
                }
                eprintln!("wrote {path}");
            }
            None => print!("{}", outcome.tuned_source),
        }
        eprintln!(
            "cmmc tune: modeled cost {} -> {} ({}changed, verified {})",
            outcome.baseline_cost,
            outcome.tuned_cost,
            if outcome.changed { "" } else { "un" },
            outcome.verified
        );
    } else if report_file.is_none() {
        print!("{}", outcome.report);
    }
    ExitCode::SUCCESS
}

/// The value after a flag, or the usage error when there is none.
fn text<'a>(it: &mut impl Iterator<Item = &'a String>) -> Result<&'a String, ExitCode> {
    it.next().ok_or_else(usage)
}

/// The number after a flag, or the usage error when it is missing or
/// does not parse.
fn number<'a, T: FromStr>(it: &mut impl Iterator<Item = &'a String>) -> Result<T, ExitCode> {
    it.next().and_then(|v| v.parse().ok()).ok_or_else(usage)
}

/// [`number`] for a count that must be above zero.
fn positive<'a>(it: &mut impl Iterator<Item = &'a String>) -> Result<usize, ExitCode> {
    it.next()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .ok_or_else(usage)
}

/// Parse a byte count with an optional binary k/m/g suffix ("64k", "2M").
fn parse_bytes(s: &str) -> Option<u64> {
    let s = s.trim();
    let (num, shift) = match s.chars().last()? {
        'k' | 'K' => (&s[..s.len() - 1], 10),
        'm' | 'M' => (&s[..s.len() - 1], 20),
        'g' | 'G' => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    num.parse::<u64>().ok()?.checked_shl(shift)
}

/// One-line stderr diagnostic (multi-line errors are collapsed so scripts
/// can match on a single line) plus the distinct exit code for the error
/// class.
fn fail(e: &CompileError) -> ExitCode {
    let msg = e.to_string();
    let one_line: Vec<&str> = msg.lines().map(str::trim).filter(|l| !l.is_empty()).collect();
    eprintln!("cmmc: {}", one_line.join("; "));
    let code = match e {
        // A worker panic is a runtime-class failure at the CLI (the serve
        // protocol reports it distinctly; exit codes stay stable).
        CompileError::Runtime(_) | CompileError::Panic(_) => EXIT_RUNTIME,
        CompileError::Limit { .. } => EXIT_LIMIT,
        _ => EXIT_COMPILE,
    };
    ExitCode::from(code)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        return usage();
    };
    if command == "fuzz" {
        return fuzz_command(&args[1..]);
    }
    if command == "serve" {
        return serve_command(&args[1..]);
    }
    if command == "tune" {
        return tune_command(&args[1..]);
    }
    // One-shot commands behave like Unix filters: a closed stdout pipe
    // (`cmmc analyses | head`) ends the process, it doesn't panic. The
    // daemon path above must keep SIGPIPE ignored — for it, a client
    // resetting a connection mid-write is an io::Error, not a signal.
    cmm::serve::signal::sigpipe_default();

    let mut file: Option<String> = None;
    let mut out_file: Option<String> = None;
    let mut threads = 2usize;
    let mut parallel = true;
    let mut fusion = true;
    let mut limits = Limits::default();
    let mut profile = false;
    let mut schedule = Schedule::Static;
    let mut metrics_json: Option<String> = None;
    let mut exts: Vec<String> = ALL_EXTENSIONS.map(String::from).to_vec();
    let mut it = args.iter().skip(1);
    let mut parse = || {
        while let Some(a) = it.next() {
            match a.as_str() {
                "--threads" => threads = number(&mut it)?,
                "--fuel" => limits.fuel = Some(number(&mut it)?),
                "--max-mem" => {
                    limits.max_matrix_bytes = Some(parse_bytes(text(&mut it)?).ok_or_else(usage)?);
                }
                "--deadline-ms" => limits.deadline = Some(Duration::from_millis(number(&mut it)?)),
                "--schedule" => {
                    schedule = text(&mut it)?.parse().map_err(|e| {
                        eprintln!("cmmc: {e}");
                        ExitCode::from(EXIT_USAGE)
                    })?;
                }
                "--ext" => {
                    exts = text(&mut it)?.split(',').map(|s| s.trim().to_string()).collect();
                    exts.retain(|e| !e.is_empty());
                }
                "-o" => out_file = Some(text(&mut it)?.clone()),
                "--profile" => profile = true,
                "--metrics-json" => metrics_json = Some(text(&mut it)?.clone()),
                "--no-parallel" => parallel = false,
                "--no-fusion" => fusion = false,
                other if !other.starts_with('-') && file.is_none() => {
                    file = Some(other.to_string());
                }
                _ => return Err(usage()),
            }
        }
        Ok(())
    };
    if let Err(code) = parse() {
        return code;
    }

    // Left to the process's exit, as the compiler is (see below).
    let registry = ManuallyDrop::new(Registry::standard());

    if command == "analyses" {
        println!("modular determinism analysis (isComposable, §VI-A):");
        for r in registry.composability_reports() {
            print!("{r}");
        }
        println!("\nmodular well-definedness analysis (§VI-B):");
        for r in registry.well_definedness_reports() {
            print!("{r}");
        }
        return ExitCode::SUCCESS;
    }

    let Some(file) = file else { return usage() };
    let src = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cmmc: cannot read {file}: {e}");
            return ExitCode::from(EXIT_FILE);
        }
    };

    let ext_refs: Vec<&str> = exts.iter().map(String::as_str).collect();
    let mut compiler = match registry.compiler(&ext_refs) {
        Ok(c) => ManuallyDrop::new(c),
        Err(e) => return fail(&e),
    };
    compiler.options.parallelize = parallel;
    compiler.options.fuse_with_assign = fusion;
    compiler.options.fuse_slice_index = fusion;

    // `--profile` to stderr, `--metrics-json` to its file; for `check` and
    // `emit` the report is the compile-only one (no pool, no interpreter).
    let metered = profile || metrics_json.is_some();
    let report_to = |report: &ProfileReport| {
        if profile {
            eprint!("{}", report.render_table());
        }
        let Some(path) = &metrics_json else {
            return ExitCode::SUCCESS;
        };
        match std::fs::write(path, report.to_json().to_pretty()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("cmmc: cannot write {path}: {e}");
                ExitCode::from(EXIT_FILE)
            }
        }
    };
    let report_passes = |compile: Option<CompileMetrics>| match compile {
        Some(compile) => report_to(&ProfileReport {
            compile,
            threads,
            ..ProfileReport::default()
        }),
        None => ExitCode::SUCCESS,
    };

    // `check` leaves the AST and `emit` the AST and the C text to the
    // process's exit instead of dropping them, and `run`, `check` and
    // `emit` the registry and the compiler: freeing a large program node by node, or a grammar
    // string by string, costs time that nothing reads, and the operating
    // system takes the pages back at once. (`emit` does drop each
    // function's IR once it is emitted: the next function reuses those
    // pages.) The library API and `cmmc serve`, which live on, drop them
    // as usual.
    match command {
        "check" => {
            let checked = if metered {
                let checked = compiler.frontend_metered(&src);
                checked.map(|(prog, m)| (prog, Some(m)))
            } else {
                compiler.frontend(&src).map(|prog| (prog, None))
            };
            match checked {
                Ok((prog, passes)) => {
                    println!(
                        "{file}: ok ({} function{})",
                        prog.functions.len(),
                        if prog.functions.len() == 1 { "" } else { "s" }
                    );
                    std::mem::forget(prog);
                    report_passes(passes)
                }
                Err(e) => fail(&e),
            }
        }
        "emit" => {
            let emitted = if metered {
                let emitted = compiler.emitter_metered(&src);
                emitted.map(|(c, m, front_end)| (c, Some(m), front_end))
            } else {
                compiler.emitter(&src).map(|(c, front_end)| (c, None, front_end))
            };
            match emitted {
                Ok((c, passes, front_end)) => {
                    let written = match &out_file {
                        Some(path) => {
                            std::fs::File::create(path).and_then(|mut f| c.write_to(&mut f))
                        }
                        None => {
                            let mut stdout = std::io::stdout().lock();
                            c.write_to(&mut stdout).and_then(|()| stdout.flush())
                        }
                    };
                    let path = out_file.as_deref().unwrap_or("stdout");
                    if let Err(e) = written {
                        eprintln!("cmmc: cannot write {path}: {e}");
                        return ExitCode::from(EXIT_FILE);
                    }
                    if out_file.is_some() {
                        eprintln!("wrote {path} (compile with: gcc -O2 -fopenmp -msse2 {path})");
                    }
                    std::mem::forget((c, front_end));
                    report_passes(passes)
                }
                Err(e) => fail(&e),
            }
        }
        "run" => {
            // A run stopped by a limit or a runtime error still reports:
            // its profile is the one that says where the steps went. The
            // run's own exit code wins over a failed report write.
            let (outcome, report) = if metered {
                match compiler.run_profiled_outcome(&src, threads, limits, schedule) {
                    Ok((outcome, report)) => (outcome, Some(report)),
                    Err(e) => return fail(&e),
                }
            } else {
                (compiler.run_keeping_output(&src, threads, limits, schedule), None)
            };
            // A failed run prints what it printed before the failure, as
            // the gcc-built program does, then the diagnostic.
            match &outcome {
                Ok(result) => {
                    print!("{}", result.output);
                    if result.leaked > 0 {
                        eprintln!(
                            "cmmc: warning: {} of {} buffers leaked",
                            result.leaked, result.allocations
                        );
                    }
                }
                Err(failure) => print!("{}", failure.output),
            }
            let reported = report.map_or(ExitCode::SUCCESS, |report| report_to(&report));
            match outcome {
                Ok(_) => reported,
                Err(failure) => fail(&failure.error),
            }
        }
        _ => usage(),
    }
}
