//! Golden-report determinism for `cmm::tune` on the checked-in example
//! programs: the `cmm-tune-report-v1` document must be a byte-for-byte
//! pure function of `(source, TuneConfig)`, the winning directive sets
//! must be stable, and on the deliberately imbalanced example the
//! winner must model at least as well as the hand-written
//! `schedule i dynamic, 4` it was written to showcase.

use cmm::core::ALL_EXTENSIONS;
use cmm::tune::{tune, CandidateStatus, TuneConfig, REPORT_SCHEMA};

fn cfg_for(program: &str, seed: u64) -> TuneConfig {
    TuneConfig { seed, program: program.into(), ..TuneConfig::default() }
}

fn tune_example(name: &str, seed: u64) -> (String, cmm::tune::TuneOutcome) {
    let src = std::fs::read_to_string(format!("examples/{name}")).expect("example exists");
    let out = tune(&src, &cfg_for(name, seed)).expect("tune succeeds");
    (src, out)
}

/// Two independent runs over the same input and config must agree on
/// every byte of the report and on the tuned source.
fn assert_deterministic(name: &str) {
    let (_, a) = tune_example(name, 42);
    let (_, b) = tune_example(name, 42);
    assert_eq!(a.report, b.report, "{name}: report not byte-identical");
    assert_eq!(a.tuned_source, b.tuned_source, "{name}: tuned source drifted");
    let winners_a: Vec<String> = a
        .sites
        .iter()
        .map(|s| s.candidates[s.winner].rendered.clone())
        .collect();
    let winners_b: Vec<String> = b
        .sites
        .iter()
        .map(|s| s.candidates[s.winner].rendered.clone())
        .collect();
    assert_eq!(winners_a, winners_b, "{name}: winning directive sets drifted");
    assert!(a.report.contains(REPORT_SCHEMA));
    assert!(a.verified, "{name}: joint tuned result must verify");
    // The empty directive set is always a candidate, so the tuner may
    // leave a program alone but never pessimize it.
    assert!(
        a.tuned_cost <= a.baseline_cost,
        "{name}: tuned {} models worse than baseline {}",
        a.tuned_cost,
        a.baseline_cost
    );
}

#[test]
fn imbalanced_report_is_deterministic() {
    assert_deterministic("imbalanced.xc");
}

#[test]
fn pipeline_profile_report_is_deterministic() {
    assert_deterministic("pipeline_profile.xc");
}

/// The triangular workload's tuned winner must model at least as well
/// as the hand-written `schedule i dynamic, 4` the example was built
/// to showcase — the whole point of the tuner is matching that expert
/// choice automatically.
#[test]
fn imbalanced_winner_models_at_least_as_well_as_dynamic4() {
    let (_, out) = tune_example("imbalanced.xc", 42);
    let work = out
        .sites
        .iter()
        .find(|s| s.site.target == "work")
        .expect("imbalanced work site discovered");
    let winner = &work.candidates[work.winner];
    let dyn4 = work
        .candidates
        .iter()
        .find(|c| c.rendered == "schedule i dynamic, 4")
        .expect("dynamic,4 candidate evaluated");
    let (
        CandidateStatus::Scored { modeled_cost: w, .. },
        CandidateStatus::Scored { modeled_cost: d, .. },
    ) = (&winner.status, &dyn4.status)
    else {
        panic!("winner and dynamic,4 must both score");
    };
    assert!(
        w <= d,
        "winner `{}` modeled {w}, worse than hand-written dynamic,4 at {d}",
        winner.rendered
    );
    assert!(
        out.changed && out.verified && out.tuned_cost < out.baseline_cost,
        "imbalanced must verifiably improve on the untuned baseline ({} vs {})",
        out.tuned_cost,
        out.baseline_cost
    );
}

/// Applying the winners preserves semantics end-to-end on both
/// examples: same printed output as the untuned program, nothing
/// leaked, across 1 and 4 pool threads.
#[test]
fn tuned_examples_reproduce_untuned_output() {
    let registry = cmm::core::Registry::standard();
    let compiler = registry.compiler(&ALL_EXTENSIONS).expect("compose");
    for name in ["imbalanced.xc", "pipeline_profile.xc"] {
        let (src, out) = tune_example(name, 42);
        for threads in [1usize, 4] {
            let base = compiler.run(&src, threads).expect("untuned runs");
            let tuned = compiler.run(&out.tuned_source, threads).expect("tuned runs");
            assert_eq!(base.output, tuned.output, "{name} diverged at {threads} threads");
            assert_eq!(tuned.leaked, 0, "{name} leaked at {threads} threads");
        }
    }
}
