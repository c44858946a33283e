//! # cmm-fuzz — differential fuzzing of the composed extension pipeline
//!
//! The paper's claim is that independently developed extensions compose
//! safely and that the §V transformations are semantics-preserving.
//! This crate turns that claim into a machine-checkable property:
//!
//! * [`generator`] builds seeded, well-typed-by-construction programs
//!   over the whole composed surface (scalars, matrices with
//!   `with`-loops / `matrixMap` / slices, tuples, rc-pointers,
//!   `spawn`/`sync`, and every `transform` directive);
//! * [`oracle`] cross-checks each program down six independent paths
//!   (untransformed reference, every schedule policy × thread count,
//!   metered execution, tree-walker vs bytecode-VM tier, fixed-seed
//!   autotuned rewrite, gcc-compiled emitted C) and requires bitwise
//!   identical output;
//! * [`minimize`] delta-reduces any disagreement to a small reproducer,
//!   which [`fuzz`] writes into a corpus directory replayed by
//!   `tests/corpus_regressions.rs` on every `cargo test`.
//!
//! Driven by `cmmc fuzz --seed N --cases K [--oracle ...]` locally and
//! in CI.

pub mod generator;
pub mod minimize;
pub mod oracle;

pub use generator::generate_source;
pub use minimize::minimize;
pub use oracle::{ALL_ORACLES, CheckCounts, Failure, Harness, OracleKind};

use std::path::PathBuf;

/// One fuzzing campaign's configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Base seed; case `i` derives its own stream from `(seed, i)`.
    pub seed: u64,
    /// Number of generated programs to check.
    pub cases: u32,
    /// Oracles to run (default: all six).
    pub oracles: Vec<OracleKind>,
    /// Where to write minimized reproducers (`tests/corpus/` in the
    /// repo); `None` disables corpus writing.
    pub corpus_dir: Option<PathBuf>,
    /// Stop after this many findings (minimization is expensive).
    pub max_findings: u32,
}

impl FuzzConfig {
    /// All oracles, no corpus writing.
    pub fn new(seed: u64, cases: u32) -> FuzzConfig {
        FuzzConfig {
            seed,
            cases,
            oracles: ALL_ORACLES.to_vec(),
            corpus_dir: None,
            max_findings: 5,
        }
    }
}

/// A minimized disagreement.
#[derive(Debug)]
pub struct Finding {
    /// Index of the generated case within the campaign.
    pub case_index: u32,
    /// What disagreed.
    pub failure: Failure,
    /// The generated program as emitted.
    pub source: String,
    /// The delta-minimized reproducer.
    pub minimized: String,
    /// Where the reproducer was written, when a corpus dir was given.
    pub corpus_path: Option<PathBuf>,
}

/// Campaign result.
#[derive(Debug)]
pub struct FuzzOutcome {
    /// Cases generated and checked.
    pub cases: u32,
    /// Executed comparisons per oracle.
    pub counts: CheckCounts,
    /// True when the gcc oracle was requested but gcc is absent.
    pub gcc_skipped: bool,
    /// Disagreements found (empty = clean campaign).
    pub findings: Vec<Finding>,
}

/// Run a fuzzing campaign: generate `cases` programs from `seed`, check
/// each against the configured oracles, and delta-minimize any
/// disagreement into `corpus_dir`.
///
/// # Errors
///
/// Returns the composition error if the standard extension set fails to
/// build a compiler (which would itself be a regression).
pub fn fuzz(cfg: &FuzzConfig) -> Result<FuzzOutcome, cmm_core::CompileError> {
    let harness = Harness::new()?;
    let gcc_requested = cfg.oracles.contains(&OracleKind::Gcc);
    let mut outcome = FuzzOutcome {
        cases: 0,
        counts: CheckCounts::default(),
        gcc_skipped: gcc_requested && !harness.gcc_available(),
        findings: Vec::new(),
    };

    // Set CMM_FUZZ_PROGRESS=1 to trace campaign progress on stderr —
    // invaluable when a slow oracle (gcc on a loaded machine) makes a
    // long campaign look stuck.
    let progress = std::env::var_os("CMM_FUZZ_PROGRESS").is_some();
    for case in 0..cfg.cases {
        let src = generate_source(cfg.seed, case);
        if progress {
            eprintln!("fuzz: case {case}");
        }
        outcome.cases += 1;
        match harness.check(&src, &cfg.oracles) {
            Ok(counts) => outcome.counts.add(&counts),
            Err(failure) => {
                let minimized = minimize(&harness, &src, &cfg.oracles, &failure);
                let corpus_path = cfg.corpus_dir.as_ref().and_then(|dir| {
                    write_reproducer(dir, cfg.seed, case, &failure, &minimized).ok()
                });
                outcome.findings.push(Finding {
                    case_index: case,
                    failure,
                    source: src,
                    minimized,
                    corpus_path,
                });
                if outcome.findings.len() as u32 >= cfg.max_findings {
                    break;
                }
            }
        }
    }
    Ok(outcome)
}

/// Write a minimized reproducer into the corpus with a provenance
/// header, returning its path.
fn write_reproducer(
    dir: &std::path::Path,
    seed: u64,
    case: u32,
    failure: &Failure,
    minimized: &str,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let oracle = failure.oracle.map(|o| o.name()).unwrap_or("baseline");
    let path = dir.join(format!("fuzz-seed{seed}-case{case}-{oracle}.xc"));
    let header: String = failure
        .detail
        .lines()
        .map(|l| format!("// {l}\n"))
        .collect();
    let body = format!(
        "// cmm-fuzz reproducer: seed {seed}, case {case}, oracle {oracle}\n{header}\n{minimized}"
    );
    std::fs::write(&path, body)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The end-to-end smoke: a small campaign over every oracle must
    /// come back clean. (The 500-case acceptance run is driven via
    /// `cmmc fuzz --seed 42 --cases 500`; this keeps `cargo test` fast.)
    #[test]
    fn small_campaign_is_clean() {
        let cfg = FuzzConfig::new(42, 25);
        let outcome = fuzz(&cfg).expect("harness builds");
        for f in &outcome.findings {
            eprintln!(
                "finding at case {}: {}\n--- source\n{}\n--- minimized\n{}",
                f.case_index, f.failure.detail, f.source, f.minimized
            );
        }
        assert!(outcome.findings.is_empty(), "{} finding(s)", outcome.findings.len());
        assert_eq!(outcome.cases, 25);
        assert_eq!(outcome.counts.transform, 25);
        // 3 policies × {1, 2, 4} threads.
        assert_eq!(outcome.counts.schedule, 25 * 9);
        assert_eq!(outcome.counts.limits, 25);
        assert_eq!(outcome.counts.vm, 25);
        assert_eq!(outcome.counts.steps, 25);
        assert_eq!(outcome.counts.tuned, 25);
    }

    /// Distinct seeds explore distinct programs (weak but cheap
    /// coverage signal).
    #[test]
    fn seeds_diversify_programs() {
        let a: Vec<String> = (0..10).map(|i| generate_source(7, i)).collect();
        let distinct: std::collections::HashSet<&String> = a.iter().collect();
        assert!(distinct.len() >= 9, "only {} distinct programs in 10 cases", distinct.len());
    }

    /// A known-bad "compiler" scenario: force a mismatch by checking a
    /// program whose source the harness cannot even compile, and make
    /// sure it is reported as a baseline failure (oracle = None).
    #[test]
    fn baseline_failures_are_reported() {
        let h = Harness::new().expect("harness");
        let err = h
            .check("int main() { return undefinedVariable; }", &ALL_ORACLES)
            .expect_err("must fail");
        assert!(err.oracle.is_none());
    }
}
