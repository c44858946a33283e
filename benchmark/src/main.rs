//! `cmm-benchmark`: run one named workload against the real `cmmc`
//! binary, check every output against an independent reference, and
//! print every metric by name. See `README.md` beside this crate.

mod aa;
mod canary;
mod gen;
mod harness;
mod layers;
mod proc;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Instant, SystemTime};

use harness::Tally;
use stats::Summary;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20140909;
/// Measuring window used when `--seconds` is not given; `run_seconds`
/// in `BENCHMARK.json` is the same number.
pub const DEFAULT_SECONDS: f64 = 24.0;
/// The end-to-end metrics every workload reports, with the share of the
/// parent's median each may worsen by (`BENCHMARK.json` says the same).
pub const END_TO_END: [(&str, &str, f64); 4] = [
    ("setup_s", "s", 0.25),
    ("op_ms", "ms", 0.2),
    ("guard_ms", "ms", 0.25),
    ("peak_rss_mb", "MB", 0.06),
];
/// Complete set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// 3 samples a metric and one set-up: a smoke run, never gated.
    pub quick: bool,
    pub threads: usize,
    pub oversubscribed: bool,
    pub corrupt_reference: bool,
    pub root: PathBuf,
}

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Sample count and quartiles, for metrics that are medians.
    pub summary: Option<Summary>,
    /// Median before the canary adjustment.
    pub raw: Option<f64>,
}

impl Metric {
    pub fn plain(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            summary: None,
            raw: None,
        }
    }
}

pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Lines printed above the metrics: host, threads, what each metric
    /// is on this workload.
    pub notes: Vec<String>,
}

impl Report {
    fn print(&self, oversubscribed: bool) {
        let mark = if oversubscribed {
            " [oversubscribed]"
        } else {
            ""
        };
        for note in &self.notes {
            println!("# {note}");
        }
        for m in &self.metrics {
            let mut line = format!("metric {} {} {}", m.name, m.value, m.unit);
            if let Some(s) = &m.summary {
                line += &format!(" n={} p25={:.4} p75={:.4}", s.n, s.p25, s.p75);
            }
            if let Some(raw) = m.raw {
                line += &format!(" raw.{}={:.4}", m.name, raw);
            }
            println!("{line}{mark}");
        }
        println!(
            "operations attempted={} failed={}{mark}",
            self.tally.attempted, self.tally.failed
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        );
    }
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split(' ').next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// The `cmmc` under test: the release binary of the root package, in
/// `CARGO_TARGET_DIR` when that is set.
pub fn cmmc_path(root: &Path) -> io::Result<PathBuf> {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| "target".into());
    let target = if target.is_absolute() {
        target
    } else {
        root.join(target)
    };
    let cmmc = target.join("release").join("cmmc");
    let built = cmmc.metadata().and_then(|m| m.modified()).map_err(|e| {
        io::Error::other(format!(
            "{}: {e} (build it: cargo build --release --offline)",
            cmmc.display()
        ))
    })?;
    // A binary older than the sources it was built from would measure
    // some other commit.
    let mut newest = SystemTime::UNIX_EPOCH;
    let mut stack = vec![
        root.join("src"),
        root.join("crates"),
        root.join("Cargo.toml"),
    ];
    while let Some(p) = stack.pop() {
        let meta = p.metadata()?;
        if meta.is_dir() {
            for entry in p.read_dir()? {
                let entry = entry?;
                if entry.file_name() != "target" {
                    stack.push(entry.path());
                }
            }
        } else if p.extension().is_some_and(|e| e == "rs" || e == "toml") {
            newest = newest.max(meta.modified()?);
        }
    }
    if built < newest {
        return Err(io::Error::other(format!(
            "{} is older than the library sources; rebuild with cargo build --release --offline",
            cmmc.display()
        )));
    }
    cmmc.canonicalize()
}

fn run_untraced(opts: &Options) -> io::Result<Report> {
    let ctx = workloads::Ctx {
        cmmc: cmmc_path(&opts.root)?,
        dir: scratch_dir(&opts.root, &opts.workload)?,
        threads: opts.threads,
        seed: opts.seed,
        gcc: workloads::gcc_present(),
        corrupt: opts.corrupt_reference,
    };
    let mut tally = Tally::default();

    // Set-up, several times over: `setup_s` is the median, and the last
    // set-up is the one measured. A canary reading sits between every
    // two, as between timing samples.
    let setups = if opts.quick { 1 } else { SETUPS };
    let mut setup_s = harness::Series::default();
    let mut ready = None;
    let mut before = canary::read(opts.threads);
    for _ in 0..setups {
        if let Some(previous) = ready.take() {
            workloads::teardown(previous, &mut tally);
        }
        let t0 = Instant::now();
        ready = Some(workloads::setup(&opts.workload, &ctx, &mut tally)?);
        let raw = t0.elapsed().as_secs_f64();
        let after = canary::read(opts.threads);
        setup_s.push(raw, before, after);
        before = after;
    }
    let mut ready = ready.expect("at least one set-up");

    let mut slots = workloads::slots(&mut ready, &ctx);
    let notes_what: Vec<String> = slots.iter().map(|s| s.what.clone()).collect();
    let mut measured = harness::measure(
        &mut slots,
        opts.seconds,
        opts.threads,
        opts.quick,
        &mut tally,
    );
    drop(slots);
    workloads::teardown(ready, &mut tally);
    measured.series.insert("setup_s", setup_s);

    // Every sample with the canary readings around it, for calibration.
    let mut samples =
        String::from("metric\tsample\traw\tadjusted\tcanary_before_ms\tcanary_after_ms\n");
    for (name, series) in &measured.series {
        for (i, (before, after)) in series.canaries.iter().enumerate() {
            samples += &format!(
                "{name}\t{i}\t{}\t{}\t{before}\t{after}\n",
                series.raw[i], series.adjusted[i]
            );
        }
    }
    std::fs::write(
        opts.root
            .join("benchmark/out")
            .join(format!("{}.samples.tsv", opts.workload)),
        samples,
    )?;

    let mut metrics = Vec::new();
    let mut flags = Vec::new();
    if !ctx.gcc {
        flags.push("gcc absent: the emitted C was neither checked nor timed".to_string());
    }
    for (name, unit, _) in END_TO_END
        .iter()
        .filter(|(name, _, _)| *name != "peak_rss_mb")
    {
        // A metric without samples is omitted and flagged, never estimated.
        let Some(series) = measured.series.get(name) else {
            flags.push(format!("{name} omitted: it has no successful sample"));
            continue;
        };
        let summary = stats::summarize(&series.adjusted);
        metrics.push(Metric {
            name: name.to_string(),
            unit,
            value: summary.median,
            summary: Some(summary),
            raw: Some(stats::median(&series.raw)),
        });
    }
    metrics.push(Metric::plain(
        "peak_rss_mb",
        "MB",
        tally.peak_rss_kb as f64 / 1024.0,
    ));

    let mut notes = vec![
        format!(
            "workload={} seed={} seconds={} trace=0 T={} host.cpus={} load_threads={} rounds={}{}",
            opts.workload,
            opts.seed,
            opts.seconds,
            opts.threads,
            host_cpus(),
            if opts.workload == "serve_mixed" { workloads::SERVE_CONNECTIONS } else { 1 },
            measured.rounds,
            if opts.quick { " QUICK (ungated)" } else { "" }
        ),
        format!(
            "host.canary_ms={:.3} host.canary_iqr_pct={:.2} host.loadavg={:.2} (nominal canary {} ms)",
            stats::median(&measured.canaries),
            stats::iqr_share(&measured.canaries) * 100.0,
            loadavg(),
            canary::CANARY_NOMINAL_MS
        ),
    ];
    notes.extend(notes_what);
    notes.extend(flags);
    Ok(Report {
        tally,
        metrics,
        notes,
    })
}

/// Scratch directory of a run: `benchmark/out/<workload>`.
pub fn scratch_dir(root: &Path, workload: &str) -> io::Result<PathBuf> {
    let dir = root.join("benchmark/out").join(workload);
    std::fs::create_dir_all(&dir)?;
    dir.canonicalize()
}

pub fn run(opts: &Options) -> io::Result<Report> {
    if opts.trace {
        layers::run_traced(opts)
    } else {
        run_untraced(opts)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cmm-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]\n\
         \x20                     [--threads T [--oversubscribed]] [--corrupt-reference] [--root DIR]\n\
         \x20      cmm-benchmark aa [--sets 3] [--seed N] [--seconds S] [--root DIR]\n\
         workloads: {}",
        workloads::WORKLOADS.join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("cmm-benchmark: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "spawn") {
        return proc::spawner(&args[1..]);
    }
    let aa_mode = args.first().is_some_and(|a| a == "aa");
    let mut opts = Options {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        threads: host_cpus().min(2),
        oversubscribed: false,
        corrupt_reference: false,
        root: PathBuf::from("."),
    };
    let mut sets = 3usize;
    let mut it = args.iter().skip(usize::from(aa_mode));
    while let Some(a) = it.next() {
        let mut value = || it.next().map(String::as_str);
        let parsed = match a.as_str() {
            "--workload" => value().map(|v| opts.workload = v.to_string()),
            "--seed" => value().and_then(|v| v.parse().ok()).map(|v| opts.seed = v),
            "--seconds" => value()
                .and_then(|v| v.parse().ok())
                .map(|v| opts.seconds = v),
            "--trace" => value()
                .and_then(|v| v.parse::<u8>().ok())
                .map(|v| opts.trace = v != 0),
            "--threads" => value()
                .and_then(|v| v.parse().ok())
                .filter(|&v| v > 0)
                .map(|v| opts.threads = v),
            "--sets" => value()
                .and_then(|v| v.parse().ok())
                .filter(|&v| v > 0)
                .map(|v| sets = v),
            "--root" => value().map(|v| opts.root = PathBuf::from(v)),
            flag => match flag {
                "--quick" => Some(&mut opts.quick),
                "--oversubscribed" => Some(&mut opts.oversubscribed),
                "--corrupt-reference" => Some(&mut opts.corrupt_reference),
                _ => None,
            }
            .map(|flag| *flag = true),
        };
        if parsed.is_none() {
            return usage();
        }
    }
    // More pool threads than processors measures the host's scheduler,
    // not the program (ROADMAP item 2's rule).
    if opts.threads > host_cpus() && !opts.oversubscribed {
        eprintln!(
            "cmm-benchmark: --threads {} exceeds the {} processor(s) of this host; pass --oversubscribed to run anyway (every line is then marked)",
            opts.threads,
            host_cpus()
        );
        return ExitCode::from(2);
    }
    let oversubscribed = opts.threads > host_cpus();

    if aa_mode {
        return match aa::run(&opts, sets) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("cmm-benchmark aa: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if !workloads::WORKLOADS.contains(&opts.workload.as_str()) {
        return usage();
    }
    match run(&opts) {
        Ok(report) => {
            report.print(oversubscribed);
            if report.tally.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "cmm-benchmark: {} of {} operations failed",
                    report.tally.failed, report.tally.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("cmm-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written by hand; the names, units, bounds,
    /// workloads and run length in it must be the ones this crate uses.
    #[test]
    fn benchmark_json_matches_the_crate() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit, bound) in END_TO_END {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"lower\", \"bound\": {bound}}}");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for workload in workloads::WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")),
                "BENCHMARK.json lacks {workload}"
            );
        }
        assert!(json.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS},")));
        assert!(json.contains("\"command\": [\"bash\", \"benchmark/run.sh\"]"));
    }
}
