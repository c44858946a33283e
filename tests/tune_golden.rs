//! Golden-report determinism for `cmm::tune` on the checked-in example
//! programs: the `cmm-tune-report-v1` document must be a byte-for-byte
//! pure function of `(source, TuneConfig)`, the winning directive sets
//! must be stable, and on the deliberately imbalanced example the
//! winner must model at least as well as the hand-written
//! `schedule i dynamic, 4` it was written to showcase.

use cmm::core::json::{self, Json};
use cmm::core::ALL_EXTENSIONS;
use cmm::tune::{tune, CandidateStatus, TuneConfig, REPORT_SCHEMA};

/// What `cmmc tune examples/<name> --seed <seed>` does: the program label
/// is the path as given.
fn tune_example(name: &str, seed: u64) -> (String, cmm::tune::TuneOutcome) {
    let path = format!("examples/{name}");
    let src = std::fs::read_to_string(&path).expect("example exists");
    let cfg = TuneConfig { seed, program: path, ..TuneConfig::default() };
    let out = tune(&src, &cfg).expect("tune succeeds");
    (src, out)
}

fn at<'a>(v: &'a Json, key: &str) -> &'a Json {
    v.get(key).unwrap_or_else(|| panic!("no {key} in {v:?}"))
}

/// The report read as a consumer reads it: parsed, then navigated.
fn assert_well_formed(name: &str, out: &cmm::tune::TuneOutcome) {
    let report = json::parse(&out.report).unwrap_or_else(|e| panic!("{name}: {e}"));
    let Json::Obj(members) = &report else { panic!("{name}: the report is an object") };
    let keys: Vec<&str> = members.iter().map(|(k, _)| &**k).collect();
    assert_eq!(
        keys,
        [
            "schema", "program", "seed", "budget", "threads", "static_grain", "tile_edge",
            "baseline", "sites", "tuned", "improvement_pct"
        ]
    );
    assert_eq!(at(&report, "schema").as_str(), Some(REPORT_SCHEMA));
    let tuned = at(&report, "tuned");
    assert_eq!(at(tuned, "verified").as_bool(), Some(true));
    assert_eq!(at(tuned, "changed").as_bool(), Some(out.changed));
    let cost = |v: &Json| at(v, "modeled_cost").as_u64().expect("a modeled cost");
    let baseline = at(&report, "baseline");
    assert_eq!((cost(tuned), cost(baseline)), (out.tuned_cost, out.baseline_cost));
    assert!(cost(tuned) <= cost(baseline));
    let sites = at(&report, "sites").as_array().expect("sites");
    assert_eq!(sites.len(), out.sites.len());
    for (site, want) in sites.iter().zip(&out.sites) {
        let candidates = at(site, "candidates").as_array().expect("candidates");
        assert!(!candidates.is_empty() && candidates.len() == want.candidates.len(), "{name}");
        let winner = want.candidates[want.winner].rendered.as_str();
        assert_eq!(at(site, "winner").as_str(), Some(winner));
    }
}

/// Two independent runs over the same input and config must agree on
/// every byte of the report and on the tuned source.
fn assert_deterministic(name: &str) -> cmm::tune::TuneOutcome {
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
    assert_well_formed(name, &a);
    assert!(a.verified, "{name}: joint tuned result must verify");
    // The empty directive set is always a candidate, so the tuner may
    // leave a program alone but never pessimize it.
    assert!(
        a.tuned_cost <= a.baseline_cost,
        "{name}: tuned {} models worse than baseline {}",
        a.tuned_cost,
        a.baseline_cost
    );
    a
}

#[test]
fn imbalanced_report_is_deterministic() {
    let out = assert_deterministic("imbalanced.xc");
    // ... and byte for byte what `cmmc tune examples/imbalanced.xc --seed
    // 42 --threads 4` printed before the report was built as a value.
    assert_eq!(out.report, include_str!("golden/tune_imbalanced.json"));
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
