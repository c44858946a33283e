//! `cmm-tune` — profile-guided autotuner for `[ext-transform]`
//! directives (ROADMAP item 2).
//!
//! Programmers hand-write `transform split/tile/schedule` directives;
//! picking good ones demands exactly the expert judgment the paper's
//! composable-extension pitch says non-experts shouldn't need. The
//! tuner closes that gap with a search harness over the directive
//! space, scored *without running full workloads on real clocks*:
//!
//! 1. **Sites** ([`site`]): every matrix-producing with-loop statement
//!    is a tunable loop nest; declarations are desugared to
//!    `init` + transformed assignment AST-level (never text patching).
//! 2. **Candidates** ([`search`]): a deterministic grid (schedules with
//!    chunk sizes, cache-geometry tile shapes, splits, unrolls, and
//!    their compositions) extended by seeded samples from the *same*
//!    directive sampler the fuzz generator uses — the fuzzer's
//!    well-typed generator doubles as the search-space mutator.
//! 3. **Pruning**: each candidate is compiled through the real
//!    pipeline; the existing `cmm-ext-transform` legality checks
//!    (`TransformError` surfaced as `CompileError::Lower`) reject
//!    illegal or conflicting combinations, and the typed error is
//!    recorded in the report rather than hidden.
//! 4. **Scoring**: the VM's loop-cost probe
//!    ([`cmm_loopir::Interp::with_cost_probe`]) yields total fuel and
//!    per-iteration costs of every parallel loop; each loop's cost
//!    vector is replayed through the virtual-time makespan model over
//!    the pool's real deque claim protocol
//!    ([`cmm_forkjoin::deque_makespan`]). Modeled program cost =
//!    serial fuel + Σ modeled makespans. Per-pass `CompileMetrics`
//!    item counts (never nanos) break ties toward cheaper compiles.
//! 5. **Report**: a byte-deterministic `cmm-tune-report-v1` JSON
//!    ranking every candidate per site; `--apply` injects the winning
//!    directives and the joint result is verified against the baseline
//!    output before it is handed back.
//!
//! Everything the report contains is a pure function of
//! `(source, TuneConfig)`: the probe runs parallel loops sequentially
//! on the calling thread and reads exact fuel, the makespan model is
//! clock-free, and the default cache geometry is the conservative
//! [`cmm_forkjoin::DEFAULT_GEOMETRY`] rather than the probed host's.

use std::fmt;

use cmm_ast::display::{print_program, print_transform};
use cmm_ast::TransformSpec;
use cmm_core::json::{Json, Member};
use cmm_core::{CompileError, Compiler, Registry};
use cmm_forkjoin::{deque_makespan, Schedule, TilePolicy, DEFAULT_GEOMETRY};
use cmm_loopir::{Interp, Limits, LoopCost, Tier};

pub mod search;
pub mod site;

pub use search::{candidate_grid, sample_rank1, sample_rank2, DirectiveRng, TuneRng};
pub use site::Site;

/// Report schema identifier.
pub const REPORT_SCHEMA: &str = "cmm-tune-report-v1";

/// Tuning parameters. Everything that influences the report is here,
/// so `(source, TuneConfig)` determines the report byte-for-byte.
#[derive(Debug, Clone)]
pub struct TuneConfig {
    /// Seed for the sampled exploration candidates.
    pub seed: u64,
    /// Maximum candidates evaluated per site (grid first, then
    /// samples; the baseline always counts as one).
    pub budget: usize,
    /// Modeled participant count for the makespan model.
    pub threads: usize,
    /// Cap on the number of sites tuned (`0` = all). The fuzz oracle
    /// uses a small cap to bound per-case work.
    pub max_sites: usize,
    /// Fuel budget for each probe run; a candidate that exhausts it is
    /// recorded as failed, not scored.
    pub probe_fuel: u64,
    /// Program label echoed into the report.
    pub program: String,
    /// Model the probed host cache geometry instead of the
    /// conservative default. Off by default so reports are
    /// host-independent.
    pub use_host_geometry: bool,
}

impl Default for TuneConfig {
    fn default() -> Self {
        TuneConfig {
            seed: 0,
            budget: 16,
            threads: 4,
            max_sites: 0,
            probe_fuel: 1 << 26,
            program: String::from("<source>"),
            use_host_geometry: false,
        }
    }
}

/// Why the tuner could not produce a report at all. Candidate-level
/// failures (illegal directives, probe limits) are *recorded*, not
/// raised; this error covers only a broken input program.
#[derive(Debug)]
pub enum TuneError {
    /// The untuned input failed to compile.
    Compile(CompileError),
    /// The untuned input failed the baseline probe run (runtime error
    /// or probe fuel exhausted) — there is no baseline to score
    /// against.
    Baseline(String),
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::Compile(e) => write!(f, "input does not compile: {e}"),
            TuneError::Baseline(m) => write!(f, "baseline probe failed: {m}"),
        }
    }
}

/// One evaluated candidate.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The directive list.
    pub directives: Vec<TransformSpec>,
    /// Surface-syntax rendering (empty string = the compiler's
    /// auto-parallel default, no directives).
    pub rendered: String,
    /// Evaluation outcome.
    pub status: CandidateStatus,
}

/// Outcome of evaluating one candidate.
#[derive(Debug, Clone)]
pub enum CandidateStatus {
    /// Compiled and probed; lower `modeled_cost` is better.
    Scored {
        /// Serial fuel + Σ modeled makespans — the ranking key.
        modeled_cost: u64,
        /// Σ modeled makespans of the parallel loops alone.
        makespan: u64,
        /// Total probe fuel (single-threaded execution cost).
        fuel: u64,
        /// Σ deterministic per-pass work items from `CompileMetrics`
        /// (tie-breaker; no nanos anywhere).
        compile_items: u64,
    },
    /// Rejected by the legality checks at compile time.
    Pruned {
        /// The typed `TransformError` rendered through its diagnostic.
        error: String,
    },
    /// Compiled but the probe run failed (fuel, runtime error, or
    /// output divergence from the baseline).
    Failed {
        /// Failure description.
        error: String,
    },
}

impl CandidateStatus {
    /// Ranking key: scored candidates by modeled cost then compile
    /// items; everything else sorts last.
    fn key(&self) -> (u64, u64) {
        match self {
            CandidateStatus::Scored { modeled_cost, compile_items, .. } => {
                (*modeled_cost, *compile_items)
            }
            _ => (u64::MAX, u64::MAX),
        }
    }
}

/// Per-site tuning result.
#[derive(Debug, Clone)]
pub struct SiteResult {
    /// The site tuned.
    pub site: Site,
    /// Candidates in evaluation order; index 0 is the baseline.
    pub candidates: Vec<Candidate>,
    /// Index of the winning candidate.
    pub winner: usize,
}

impl SiteResult {
    /// The winning directive list.
    pub fn winning_directives(&self) -> &[TransformSpec] {
        &self.candidates[self.winner].directives
    }
}

/// Everything `tune` produces.
#[derive(Debug)]
pub struct TuneOutcome {
    /// Per-site rankings.
    pub sites: Vec<SiteResult>,
    /// Modeled cost of the untuned program.
    pub baseline_cost: u64,
    /// Modeled cost with every winning directive applied.
    pub tuned_cost: u64,
    /// Source with winning directives injected (identical to the input
    /// when nothing improved on the baseline).
    pub tuned_source: String,
    /// Whether any site changed.
    pub changed: bool,
    /// The jointly tuned program compiled, ran clean, and reproduced
    /// the baseline output bit-for-bit (always true when unchanged).
    pub verified: bool,
    /// The `cmm-tune-report-v1` JSON document.
    pub report: String,
}

/// A scored probe of one whole program.
struct Probe {
    fuel: u64,
    makespan: u64,
    modeled: u64,
    compile_items: u64,
    output: String,
    leaked: u32,
}

fn probe_limits(cfg: &TuneConfig) -> Limits {
    // Fuel only: a wall-clock deadline would make scoring host-dependent.
    Limits { fuel: Some(cfg.probe_fuel), ..Limits::default() }
}

/// Compile and probe one candidate program. `Err(Ok(diag))` = pruned by
/// the legality checks, `Err(Err(msg))` = probe failure.
fn score(
    compiler: &Compiler,
    src: &str,
    cfg: &TuneConfig,
    grain: usize,
) -> Result<Probe, Result<String, String>> {
    let (ir, metrics) = match compiler.compile_metered(src) {
        Ok(x) => x,
        Err(CompileError::Lower(d)) => return Err(Ok(d.to_string())),
        Err(e) => return Err(Ok(e.to_string())),
    };
    let compile_items: u64 = metrics.passes.iter().map(|p| p.items).sum();
    let interp = Interp::new(&ir, 1)
        .with_limits(probe_limits(cfg))
        .with_tier(Tier::Vm)
        .with_cost_probe(true);
    if let Err(e) = interp.run_main() {
        return Err(Err(e.to_string()));
    }
    let fuel = interp.steps_used();
    let records: Vec<LoopCost> = interp.loop_costs();
    let mut par_fuel = 0u64;
    let mut makespan = 0u64;
    for r in &records {
        par_fuel += r.iters.iter().sum::<u64>();
        makespan += deque_makespan(
            &r.iters,
            r.schedule.unwrap_or(Schedule::Static),
            cfg.threads,
            grain,
        )
        .makespan;
    }
    Ok(Probe {
        fuel,
        makespan,
        modeled: fuel.saturating_sub(par_fuel) + makespan,
        compile_items,
        output: interp.output(),
        leaked: interp.live_buffers(),
    })
}

fn scored(p: &Probe) -> CandidateStatus {
    CandidateStatus::Scored {
        modeled_cost: p.modeled,
        makespan: p.makespan,
        fuel: p.fuel,
        compile_items: p.compile_items,
    }
}

fn render(directives: &[TransformSpec]) -> String {
    directives.iter().map(print_transform).collect::<Vec<_>>().join("; ")
}

/// Tune `src`: enumerate, prune, and score directive candidates for
/// every site, pick winners greedily (each site tuned with the others
/// at baseline), verify the joint result, and emit the deterministic
/// report.
pub fn tune(src: &str, cfg: &TuneConfig) -> Result<TuneOutcome, TuneError> {
    let registry = Registry::standard();
    let compiler = registry.compiler(&cmm_core::ALL_EXTENSIONS).map_err(TuneError::Compile)?;
    let policy = if cfg.use_host_geometry {
        TilePolicy::default()
    } else {
        TilePolicy::from_geometry(DEFAULT_GEOMETRY)
    };
    let grain = policy.static_grain;
    let tile_edge = policy.matmul_tile(4);

    let ast = compiler.frontend(src).map_err(TuneError::Compile)?;
    let baseline = score(&compiler, src, cfg, grain).map_err(|e| {
        TuneError::Baseline(match e {
            Ok(d) => d,
            Err(m) => m,
        })
    })?;

    let mut sites = site::discover(&ast);
    if cfg.max_sites > 0 {
        sites.truncate(cfg.max_sites);
    }

    let mut results: Vec<SiteResult> = Vec::with_capacity(sites.len());
    for s in &sites {
        // Candidate list: baseline first, then the deterministic grid,
        // then seeded samples, deduplicated by rendering, capped by the
        // budget. The baseline needs no probe — the untuned program was
        // already scored.
        let mut lists: Vec<Vec<TransformSpec>> = vec![s.baseline.clone()];
        lists.extend(candidate_grid(&s.indices, tile_edge));
        let mut rng = TuneRng::new(cfg.seed ^ (s.id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        lists.extend(search::sampled_candidates(&mut rng, &s.indices, cfg.budget));
        let mut seen = std::collections::HashSet::new();
        let mut candidates: Vec<Candidate> = Vec::new();
        for (k, directives) in lists.into_iter().enumerate() {
            if candidates.len() >= cfg.budget.max(1) {
                break;
            }
            let rendered = render(&directives);
            if !seen.insert(rendered.clone()) {
                continue;
            }
            let status = if k == 0 {
                scored(&baseline)
            } else {
                let mutated = site::apply(&ast, &[(s.id, directives.clone())]);
                let csrc = print_program(&mutated);
                match score(&compiler, &csrc, cfg, grain) {
                    Ok(p) if p.output != baseline.output => CandidateStatus::Failed {
                        error: String::from("output diverged from baseline"),
                    },
                    Ok(p) if p.leaked != 0 => CandidateStatus::Failed {
                        error: format!("{} buffers leaked", p.leaked),
                    },
                    Ok(p) => scored(&p),
                    Err(Ok(d)) => CandidateStatus::Pruned { error: d },
                    Err(Err(m)) => CandidateStatus::Failed { error: m },
                }
            };
            candidates.push(Candidate { directives, rendered, status });
        }
        let winner = candidates
            .iter()
            .enumerate()
            .min_by_key(|(idx, c)| (c.status.key(), *idx))
            .map(|(idx, _)| idx)
            .unwrap_or(0);
        results.push(SiteResult { site: s.clone(), candidates, winner });
    }

    // Joint application of every winning non-baseline candidate,
    // verified end-to-end before it is handed back.
    let changes: Vec<(usize, Vec<TransformSpec>)> = results
        .iter()
        .filter(|r| r.winner != 0)
        .map(|r| (r.site.id, r.winning_directives().to_vec()))
        .collect();
    let (tuned_source, tuned_cost, changed, verified, joint_note) = if changes.is_empty() {
        (src.to_string(), baseline.modeled, false, true, None)
    } else {
        let tuned_ast = site::apply(&ast, &changes);
        let tsrc = print_program(&tuned_ast);
        match score(&compiler, &tsrc, cfg, grain) {
            Ok(p) if p.output == baseline.output && p.leaked == 0 => {
                (tsrc, p.modeled, true, true, None)
            }
            Ok(_) => (
                src.to_string(),
                baseline.modeled,
                false,
                false,
                Some(String::from("joint result diverged; reverted to baseline")),
            ),
            Err(e) => {
                let m = match e {
                    Ok(d) => d,
                    Err(m) => m,
                };
                (
                    src.to_string(),
                    baseline.modeled,
                    false,
                    false,
                    Some(format!("joint result failed ({m}); reverted to baseline")),
                )
            }
        }
    };

    let mut outcome = TuneOutcome {
        sites: results,
        baseline_cost: baseline.modeled,
        tuned_cost,
        tuned_source,
        changed,
        verified,
        report: String::new(),
    };
    outcome.report =
        report(cfg, grain, tile_edge, &baseline, &outcome, joint_note).to_pretty();
    Ok(outcome)
}

fn pct_vs(baseline: u64, tuned: u64) -> Json {
    let pct = if baseline == 0 {
        0.0
    } else {
        100.0 * (baseline as f64 - tuned as f64) / baseline as f64
    };
    Json::fixed(pct, 1)
}

/// The `cmm-tune-report-v1` document for `outcome`.
fn report(
    cfg: &TuneConfig,
    grain: usize,
    tile_edge: usize,
    baseline: &Probe,
    outcome: &TuneOutcome,
    joint_note: Option<String>,
) -> Json {
    let candidate = |c: &Candidate| {
        let error = |e: &str| vec![("error".into(), e.into())];
        let (status, rest) = match &c.status {
            CandidateStatus::Scored { modeled_cost, makespan, fuel, compile_items } => {
                ("ok", score_members(*modeled_cost, *makespan, *fuel, *compile_items).to_vec())
            }
            CandidateStatus::Pruned { error: e } => ("pruned", error(e)),
            CandidateStatus::Failed { error: e } => ("failed", error(e)),
        };
        let mut members = vec![
            ("directives".into(), c.rendered.as_str().into()),
            ("status".into(), status.into()),
        ];
        members.extend(rest);
        Json::Obj(members)
    };
    let site = |r: &SiteResult| {
        let winner = &r.candidates[r.winner];
        let mut members = vec![
            ("id".into(), r.site.id.into()),
            ("function".into(), r.site.function.as_str().into()),
            ("target".into(), r.site.target.as_str().into()),
            ("indices".into(), Json::arr(r.site.indices.iter().map(String::as_str))),
            ("winner".into(), winner.rendered.as_str().into()),
        ];
        if let CandidateStatus::Scored { modeled_cost, .. } = winner.status {
            members.push(("winner_improvement_pct".into(), pct_vs(baseline.modeled, modeled_cost)));
        }
        members.push(("candidates".into(), Json::arr(r.candidates.iter().map(candidate))));
        Json::Obj(members)
    };
    let Probe { modeled, makespan, fuel, compile_items, .. } = *baseline;
    let mut tuned = vec![
        ("modeled_cost".into(), outcome.tuned_cost.into()),
        ("changed".into(), outcome.changed.into()),
        ("verified".into(), outcome.verified.into()),
    ];
    tuned.extend(joint_note.map(|note| ("note".into(), note.into())));
    Json::obj([
        ("schema", REPORT_SCHEMA.into()),
        ("program", cfg.program.as_str().into()),
        ("seed", cfg.seed.into()),
        ("budget", cfg.budget.into()),
        ("threads", cfg.threads.into()),
        ("static_grain", grain.into()),
        ("tile_edge", tile_edge.into()),
        ("baseline", Json::obj(score_members(modeled, makespan, fuel, compile_items))),
        ("sites", Json::arr(outcome.sites.iter().map(site))),
        ("tuned", Json::Obj(tuned)),
        ("improvement_pct", pct_vs(baseline.modeled, outcome.tuned_cost)),
    ])
}

/// The four numbers of a scored probe, as the baseline and every scored
/// candidate report them.
fn score_members(modeled_cost: u64, makespan: u64, fuel: u64, compile_items: u64) -> [Member; 4] {
    [
        ("modeled_cost".into(), modeled_cost.into()),
        ("makespan".into(), makespan.into()),
        ("fuel".into(), fuel.into()),
        ("compile_items".into(), compile_items.into()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRIANGULAR: &str = r#"
float rowWork(Matrix float <2> grid, int i) {
    return with ([0] <= [j] < [(i + 1) * 8])
        fold(+, 0.0, grid[i, j / 8] * 0.5);
}

int main() {
    int m = 16;
    int n = 16;
    Matrix float <2> grid = with ([0, 0] <= [i, j] < [m, n])
        genarray([m, n], toFloat(i + j) * 0.25);
    Matrix float <1> work = with ([0] <= [i] < [m])
        genarray([m], rowWork(grid, i));
    float total = with ([0] <= [i] < [m]) fold(+, 0.0, work[i]);
    printFloat(total / toFloat(m));
    return 0;
}
"#;

    #[test]
    fn tune_is_deterministic_and_improving() {
        let cfg = TuneConfig { seed: 42, program: "triangular".into(), ..TuneConfig::default() };
        let a = tune(TRIANGULAR, &cfg).expect("tune");
        let b = tune(TRIANGULAR, &cfg).expect("tune again");
        assert_eq!(a.report, b.report, "report must be byte-identical across runs");
        assert_eq!(a.tuned_source, b.tuned_source);
        assert!(a.verified);
        assert!(a.tuned_cost <= a.baseline_cost);
        assert!(a.report.contains(REPORT_SCHEMA));
    }

    #[test]
    fn tuned_source_preserves_semantics() {
        let cfg = TuneConfig { seed: 7, ..TuneConfig::default() };
        let out = tune(TRIANGULAR, &cfg).expect("tune");
        let registry = Registry::standard();
        let c = registry.compiler(&cmm_core::ALL_EXTENSIONS).expect("compose");
        let base = c.run(TRIANGULAR, 4).expect("base");
        let tuned = c.run(&out.tuned_source, 4).expect("tuned");
        assert_eq!(base.output, tuned.output);
        assert_eq!(tuned.leaked, 0);
    }

    #[test]
    fn triangular_winner_beats_static_model() {
        let cfg = TuneConfig { seed: 42, ..TuneConfig::default() };
        let out = tune(TRIANGULAR, &cfg).expect("tune");
        // The imbalanced rank-1 site (target `work`) must pick a
        // self-scheduling candidate whose modeled cost is at most the
        // hand-written `schedule i dynamic, 4`.
        let work = out
            .sites
            .iter()
            .find(|r| r.site.target == "work")
            .expect("work site discovered");
        let dyn4 = work
            .candidates
            .iter()
            .find(|c| c.rendered.contains("dynamic, 4"))
            .expect("dynamic,4 candidate present");
        let (CandidateStatus::Scored { modeled_cost: w, .. }, CandidateStatus::Scored { modeled_cost: d, .. }) =
            (&work.candidates[work.winner].status, &dyn4.status)
        else {
            panic!("winner and dynamic,4 must both be scored");
        };
        assert!(w <= d, "winner {w} must be <= dynamic,4 {d}");
    }

    #[test]
    fn broken_input_is_a_compile_error() {
        let cfg = TuneConfig::default();
        assert!(matches!(
            tune("int main() { return x; }", &cfg),
            Err(TuneError::Compile(_))
        ));
    }
}
