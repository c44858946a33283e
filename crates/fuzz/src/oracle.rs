//! The six differential oracles and the harness that runs them.
//!
//! Baseline: the optimized pipeline (default [`LowerOptions`])
//! interpreted on the bytecode VM with 2 pool threads under the static
//! schedule. Each oracle re-executes the same program down a different
//! path and requires bitwise-identical output:
//!
//! 1. **transform** — `transform` directives stripped from the AST,
//!    compiled with every high-level optimization off, run
//!    single-threaded: the untransformed reference semantics. The
//!    reference must leak nothing, and when gcc is present its emitted C
//!    must print the same.
//! 2. **schedule** — every schedule policy (static / dynamic / guided)
//!    at 1, 2, and 4 threads: nine runs per case.
//! 3. **limits** — a metered run under generous [`Limits`] budgets:
//!    metering must never change what executes.
//! 4. **vm** — the tree-walking interpreter re-runs the baseline's IR as
//!    the reference oracle for the bytecode VM: identical output and
//!    allocation/leak counts are required.
//! 5. **tuned** — `cmm_tune::tune` with a fixed seed and a small
//!    budget rewrites the program's directives; the tuned source must
//!    reproduce the untuned baseline output bitwise and leak-free, and
//!    no candidate the tuner probes may diverge semantically. The
//!    autotuner searches the same directive space the generator
//!    samples, so every case doubles as a tuner-correctness check.
//! 6. **gcc** — the emitted C compiled with gcc and executed, when a C
//!    toolchain is present (skipped, not failed, otherwise).

use cmm_ast::{Block, Program, Stmt};
use cmm_core::{
    CompileError, Compiler, Registry, compile_and_run_c_with_timeout, gcc_available_or_skip,
};
use cmm_lang::LowerOptions;
use cmm_loopir::{Interp, Limits, Schedule, Tier, snapshot};
use std::time::Duration;

/// The differential oracles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// Optimized/transformed vs. untransformed interpretation.
    Transform,
    /// Sequential vs. every schedule policy × thread count.
    Schedule,
    /// Metered (generous [`Limits`]) vs. unmetered run.
    Limits,
    /// Bytecode-VM baseline vs. the tree-walking reference interpreter.
    Vm,
    /// Autotuned (fixed-seed `cmm_tune::tune`) vs. untuned run.
    Tuned,
    /// Interpreter vs. gcc-compiled emitted C.
    Gcc,
}

/// All six oracles, in check order (gcc last — it is the slowest).
pub const ALL_ORACLES: [OracleKind; 6] = [
    OracleKind::Transform,
    OracleKind::Schedule,
    OracleKind::Limits,
    OracleKind::Vm,
    OracleKind::Tuned,
    OracleKind::Gcc,
];

impl OracleKind {
    /// CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::Transform => "transform",
            OracleKind::Schedule => "schedule",
            OracleKind::Limits => "limits",
            OracleKind::Vm => "vm",
            OracleKind::Tuned => "tuned",
            OracleKind::Gcc => "gcc",
        }
    }

    /// Parse a CLI oracle name.
    pub fn parse(s: &str) -> Option<OracleKind> {
        ALL_ORACLES.into_iter().find(|o| o.name() == s)
    }
}

/// A differential disagreement (or a failure to compile/run at all).
#[derive(Debug, Clone)]
pub struct Failure {
    /// The oracle that disagreed; `None` when the program failed to
    /// compile or run on the baseline path.
    pub oracle: Option<OracleKind>,
    /// Human-readable description, including both outputs on mismatch.
    pub detail: String,
}

impl Failure {
    /// Whether `other` is the same class of failure (used by the
    /// minimizer to accept a reduction only if it preserves the bug).
    pub fn same_class(&self, other: &Failure) -> bool {
        self.oracle == other.oracle
    }
}

/// Per-oracle executed-check counters for one [`Harness::check`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckCounts {
    /// Transform-oracle comparisons run.
    pub transform: u64,
    /// Schedule-oracle comparisons run (policy × thread-count pairs).
    pub schedule: u64,
    /// Limits-oracle comparisons run.
    pub limits: u64,
    /// Vm-oracle comparisons run (tree-walker reference re-runs).
    pub vm: u64,
    /// Of those, the cases whose VM run entered an unboxed loop
    /// (`cmm_loopir`'s typed inner-loop executor, which the `vm` and
    /// `limits` oracles are the differential oracles of). A campaign in
    /// which this is not a clear majority no longer tests that executor.
    pub unboxed: u64,
    /// Of those, the cases in which some strip of such a loop ran all its
    /// lanes: the generator's long vectors (`generator::LONG_EXTENT`).
    /// Zero means the campaign never saw a full strip or a strip boundary.
    pub full_strip: u64,
    /// Vm-oracle comparisons that compared the steps of the two completed
    /// runs.
    pub steps: u64,
    /// Tuned-oracle comparisons run (autotune + tuned re-run).
    pub tuned: u64,
    /// Gcc-oracle comparisons run (0 when gcc is absent).
    pub gcc: u64,
}

impl CheckCounts {
    /// Accumulate another count set.
    pub fn add(&mut self, o: &CheckCounts) {
        self.transform += o.transform;
        self.schedule += o.schedule;
        self.limits += o.limits;
        self.vm += o.vm;
        self.unboxed += o.unboxed;
        self.full_strip += o.full_strip;
        self.steps += o.steps;
        self.tuned += o.tuned;
        self.gcc += o.gcc;
    }
}

/// Generous budgets for the limits oracle: far above anything a
/// generated case needs, so an exceeded budget is a metering bug.
fn generous_limits() -> Limits {
    Limits {
        fuel: Some(50_000_000),
        max_matrix_bytes: Some(64 << 20),
        max_live_buffers: Some(4096),
        deadline: Some(Duration::from_secs(60)),
    }
}

/// Budgets for [`Harness::check_bounded`]: still far above what any
/// generated program uses, but finite on every interpreted path. The
/// minimizer mutates programs structurally, and deleting (say) a loop
/// counter increment turns a terminating loop into an infinite one — an
/// unmetered candidate run would then spin forever.
fn bounded_limits() -> Limits {
    Limits {
        fuel: Some(20_000_000),
        max_matrix_bytes: Some(64 << 20),
        max_live_buffers: Some(4096),
        deadline: Some(Duration::from_secs(10)),
    }
}

/// Wall-clock allowance for a gcc-compiled candidate binary in bounded
/// mode (generated programs finish in milliseconds).
const BOUNDED_GCC_TIMEOUT: Duration = Duration::from_secs(20);

/// Wall-clock allowance for a gcc-compiled binary: bounded mode's, or a
/// generous one for trusted generated programs.
fn gcc_timeout(bounded: bool) -> Duration {
    if bounded { BOUNDED_GCC_TIMEOUT } else { Duration::from_secs(120) }
}

/// Marker every interpreter budget-exceeded error carries (see
/// `InterpErrorKind::LimitExceeded` formatting). [`minimize`] uses it to
/// tell "this candidate diverges" apart from "this candidate still
/// shows the original bug".
///
/// [`minimize`]: crate::minimize::minimize
pub const LIMIT_EXCEEDED_MARKER: &str = "limit exceeded (";

/// Fixed seed for the tuned oracle's exploration candidates, so every
/// campaign tunes a given case identically (the campaign's own seed
/// already varies the *programs*).
pub const TUNED_ORACLE_SEED: u64 = 0x7u64;

/// Remove every `transform` clause from the program, recursively.
pub fn strip_transforms(prog: &Program) -> Program {
    fn strip_block(b: &mut Block) {
        for s in &mut b.stmts {
            match s {
                Stmt::Assign { transforms, .. } => transforms.clear(),
                Stmt::If { then_blk, else_blk, .. } => {
                    strip_block(then_blk);
                    if let Some(e) = else_blk {
                        strip_block(e);
                    }
                }
                Stmt::While { body, .. } | Stmt::For { body, .. } => strip_block(body),
                Stmt::Nested(b) => strip_block(b),
                _ => {}
            }
        }
    }
    let mut out = prog.clone();
    for f in &mut out.functions {
        strip_block(&mut f.body);
    }
    out
}

/// Two compilers over the full extension set — the optimized default
/// pipeline and an everything-off reference — plus gcc availability.
pub struct Harness {
    opt: Compiler,
    plain: Compiler,
    gcc: bool,
}

impl Harness {
    /// Build the two pipelines. Probes for gcc once (printing a `SKIP`
    /// line if absent, so logs show which oracles actually ran).
    pub fn new() -> Result<Harness, CompileError> {
        let registry = Registry::standard();
        let opt = registry.compiler(&cmm_core::ALL_EXTENSIONS)?;
        let mut plain = registry.compiler(&cmm_core::ALL_EXTENSIONS)?;
        plain.options = LowerOptions {
            parallelize: false,
            fuse_with_assign: false,
            fuse_slice_index: false,
        };
        Ok(Harness {
            opt,
            plain,
            gcc: gcc_available_or_skip("fuzz gcc oracle"),
        })
    }

    /// Whether the gcc oracle will run.
    pub fn gcc_available(&self) -> bool {
        self.gcc
    }

    /// The optimized-pipeline compiler (used by the minimizer to
    /// re-derive ASTs from reproducer sources).
    pub fn compiler(&self) -> &Compiler {
        &self.opt
    }

    /// Run `src` through the requested oracles. `Ok` carries how many
    /// comparisons ran; `Err` carries the first disagreement.
    ///
    /// Every interpreted path is unmetered: `src` is trusted to
    /// terminate (the generator only builds terminating programs).
    pub fn check(&self, src: &str, oracles: &[OracleKind]) -> Result<CheckCounts, Failure> {
        self.check_inner(src, oracles, false)
    }

    /// [`Harness::check`], but with every execution path under a finite
    /// budget ([`bounded_limits`], plus a kill-timeout on the compiled
    /// binary). For untrusted sources — the minimizer's structurally
    /// mutated candidates, which may no longer terminate.
    pub fn check_bounded(&self, src: &str, oracles: &[OracleKind]) -> Result<CheckCounts, Failure> {
        self.check_inner(src, oracles, true)
    }

    fn check_inner(
        &self,
        src: &str,
        oracles: &[OracleKind],
        bounded: bool,
    ) -> Result<CheckCounts, Failure> {
        let progress = std::env::var_os("CMM_FUZZ_PROGRESS").is_some();
        let mut counts = CheckCounts::default();
        if progress {
            eprintln!("  check: baseline");
        }
        let base = if bounded {
            self.opt.run_with_limits(src, 2, bounded_limits())
        } else {
            self.opt.run(src, 2)
        }
        .map_err(|e| Failure {
            oracle: None,
            detail: format!("baseline compile/run failed: {e}"),
        })?;

        for &oracle in oracles {
            if progress {
                eprintln!("  check: oracle {}", oracle.name());
            }
            match oracle {
                OracleKind::Transform => {
                    self.check_transform(src, &base.output, base.leaked, bounded)?;
                    counts.transform += 1;
                }
                OracleKind::Schedule => {
                    counts.schedule += self.check_schedule(src, &base.output, bounded)?;
                }
                OracleKind::Limits => {
                    self.check_limits(src, &base.output)?;
                    counts.limits += 1;
                }
                OracleKind::Vm => {
                    self.check_vm(src, &base, bounded)?;
                    counts.vm += 1;
                    counts.steps += 1;
                    let (entered, full_strip) = self.unboxed_reach(src, bounded)?;
                    counts.unboxed += u64::from(entered);
                    counts.full_strip += u64::from(full_strip);
                }
                OracleKind::Tuned => {
                    self.check_tuned(src, &base, bounded)?;
                    counts.tuned += 1;
                }
                OracleKind::Gcc => {
                    if self.gcc {
                        self.check_gcc(src, &base.output, bounded)?;
                        counts.gcc += 1;
                    }
                }
            }
        }
        Ok(counts)
    }

    fn check_transform(
        &self,
        src: &str,
        expected: &str,
        leaked: u32,
        bounded: bool,
    ) -> Result<(), Failure> {
        let fail = |detail: String| Failure { oracle: Some(OracleKind::Transform), detail };
        if leaked != 0 {
            return Err(fail(format!(
                "optimized run leaked {leaked} buffer(s); inserted reference counting must free everything"
            )));
        }
        let ast = self.opt.frontend(src).map_err(|e| {
            fail(format!("frontend failed while deriving the untransformed reference: {e}"))
        })?;
        let stripped = strip_transforms(&ast);
        let plain_src = cmm_ast::display::print_program(&stripped);
        let reference = if bounded {
            self.plain.run_with_limits(&plain_src, 1, bounded_limits())
        } else {
            self.plain.run(&plain_src, 1)
        }
        .map_err(|e| fail(format!("untransformed reference failed to run: {e}")))?;
        if reference.leaked != 0 {
            return Err(fail(format!(
                "untransformed reference leaked {} buffer(s); the unfused path must free everything\n\
                 --- reference source\n{plain_src}",
                reference.leaked
            )));
        }
        if reference.output != expected {
            // Show what the optimizing pipeline actually changed.
            let ir_note = match (self.opt.compile(src), self.plain.compile(&plain_src)) {
                (Ok(opt_ir), Ok(plain_ir)) => snapshot::diff(&plain_ir, &opt_ir)
                    .unwrap_or_else(|| "IR identical (divergence is runtime-side)".to_string()),
                _ => String::new(),
            };
            return Err(fail(format!(
                "optimized/transformed output differs from untransformed reference\n\
                 --- reference (plain, 1 thread)\n{}\n--- optimized (2 threads)\n{}\n{ir_note}",
                reference.output, expected
            )));
        }
        // The reference's own C: the unfused code and the kernel's
        // sequential branch (no loop is parallel here) under gcc.
        if self.gcc {
            let c = self
                .plain
                .compile_to_c(&plain_src)
                .map_err(|e| fail(format!("C emission of the untransformed reference failed: {e}")))?;
            let out = compile_and_run_c_with_timeout(&c, 1, gcc_timeout(bounded))
                .map_err(|e| fail(format!("untransformed reference under gcc: {e}")))?;
            if out != expected {
                return Err(fail(format!(
                    "gcc-compiled untransformed reference differs from the optimized run\n\
                     --- gcc (plain)\n{out}\n--- optimized (2 threads)\n{expected}"
                )));
            }
        }
        Ok(())
    }

    fn check_schedule(&self, src: &str, expected: &str, bounded: bool) -> Result<u64, Failure> {
        let mut ran = 0u64;
        let policies = [
            Schedule::Static,
            Schedule::Dynamic { chunk: 2 },
            Schedule::Guided { min_chunk: 1 },
        ];
        let limits = if bounded { bounded_limits() } else { Limits::default() };
        let progress = std::env::var_os("CMM_FUZZ_PROGRESS").is_some();
        for policy in policies {
            for threads in [1usize, 2, 4] {
                if progress {
                    eprintln!("    schedule: {policy:?} x {threads}");
                }
                let r = self
                    .opt
                    .run_with_schedule(src, threads, limits.clone(), policy)
                    .map_err(|e| Failure {
                        oracle: Some(OracleKind::Schedule),
                        detail: format!("run failed under {policy:?} × {threads} threads: {e}"),
                    })?;
                if r.output != expected {
                    return Err(Failure {
                        oracle: Some(OracleKind::Schedule),
                        detail: format!(
                            "output under {policy:?} × {threads} threads differs from baseline\n\
                             --- baseline\n{expected}\n--- {policy:?} × {threads}\n{}",
                            r.output
                        ),
                    });
                }
                ran += 1;
            }
        }
        Ok(ran)
    }

    fn check_limits(&self, src: &str, expected: &str) -> Result<(), Failure> {
        let r = self
            .opt
            .run_with_limits(src, 2, generous_limits())
            .map_err(|e| Failure {
                oracle: Some(OracleKind::Limits),
                detail: format!("metered run failed under generous budgets: {e}"),
            })?;
        if r.output != expected {
            return Err(Failure {
                oracle: Some(OracleKind::Limits),
                detail: format!(
                    "metered output differs from unmetered baseline\n\
                     --- unmetered\n{expected}\n--- metered\n{}",
                    r.output
                ),
            });
        }
        Ok(())
    }

    /// Run the optimized pipeline's IR on the tree-walking reference
    /// tier and require bitwise agreement with the baseline, the product
    /// run path (bytecode built one function at a time): same output,
    /// same allocation and leak counts, and — both runs having completed —
    /// the same steps. Both tiers run one IR, so a divergence is the
    /// tiers' own.
    fn check_vm(
        &self,
        src: &str,
        base: &cmm_core::RunResult,
        bounded: bool,
    ) -> Result<(), Failure> {
        let fail = |detail: String| Failure { oracle: Some(OracleKind::Vm), detail };
        let ir = self
            .opt
            .compile(src)
            .map_err(|e| fail(format!("recompiling the baseline failed: {e}")))?;
        let limits = if bounded { bounded_limits() } else { Limits::default() };
        let reference = Interp::new(&ir, 2).with_limits(limits).with_tier(Tier::Tree);
        reference
            .run_main()
            .map_err(|e| fail(format!("tree-walker reference failed where the VM succeeded: {e}")))?;
        let output = reference.output();
        if output != base.output {
            return Err(fail(format!(
                "bytecode VM output differs from tree-walker reference\n\
                 --- tree-walker\n{output}\n--- vm\n{}\n\
                 IR identical (divergence is tier-side)",
                base.output
            )));
        }
        let (allocations, leaked) = (reference.alloc_count(), reference.live_buffers());
        if (allocations, leaked) != (base.allocations, base.leaked) {
            return Err(fail(format!(
                "buffer accounting differs between tiers: tree {allocations}/{leaked} alloc/leaked, vm {}/{}",
                base.allocations, base.leaked
            )));
        }
        let steps = reference.steps_used();
        if steps != base.steps_used {
            return Err(fail(format!(
                "steps differ between tiers: tree {steps}, vm {}",
                base.steps_used
            )));
        }
        Ok(())
    }

    /// Whether a VM run of `src` enters an unboxed loop, and whether it
    /// runs a full strip of one: a profiled run (the counters are only kept
    /// under profiling) of a program the baseline already ran.
    pub fn unboxed_reach(&self, src: &str, bounded: bool) -> Result<(bool, bool), Failure> {
        let limits = if bounded { bounded_limits() } else { Limits::default() };
        let (_, report) = self
            .opt
            .run_profiled_scheduled(src, 2, limits, Schedule::Static)
            .map_err(|e| Failure {
                oracle: Some(OracleKind::Vm),
                detail: format!("profiled VM run failed where the unprofiled one succeeded: {e}"),
            })?;
        let profile = report.interp.unwrap_or_default();
        Ok((profile.unboxed_loops > 0, profile.unboxed_full_strips > 0))
    }

    /// Autotune the program with a fixed seed and a small budget, then
    /// require the tuned source to reproduce the untuned baseline
    /// bitwise and leak-free. Three classes of tuner bug surface here:
    /// a probed candidate whose output diverges (an unsound transform
    /// the legality checks let through), a candidate that leaks (rc
    /// insertion broken under rewritten directives), and a joint
    /// application that fails where every per-site candidate passed.
    fn check_tuned(
        &self,
        src: &str,
        base: &cmm_core::RunResult,
        bounded: bool,
    ) -> Result<(), Failure> {
        let fail = |detail: String| Failure { oracle: Some(OracleKind::Tuned), detail };
        let cfg = cmm_tune::TuneConfig {
            seed: TUNED_ORACLE_SEED,
            budget: 6,
            threads: 2,
            max_sites: 2,
            probe_fuel: if bounded { 20_000_000 } else { 50_000_000 },
            program: String::from("<fuzz-case>"),
            ..cmm_tune::TuneConfig::default()
        };
        let outcome = cmm_tune::tune(src, &cfg)
            .map_err(|e| fail(format!("tuner failed on a program the baseline ran: {e}")))?;
        for site in &outcome.sites {
            for c in &site.candidates {
                if let cmm_tune::CandidateStatus::Failed { error } = &c.status {
                    // Probe-budget exhaustion is a legitimate candidate
                    // failure; semantic divergence and leaks are not.
                    if !error.contains(LIMIT_EXCEEDED_MARKER) {
                        return Err(fail(format!(
                            "candidate `{}` at site {} ({}) failed semantically: {error}",
                            c.rendered, site.site.id, site.site.target
                        )));
                    }
                }
            }
        }
        if !outcome.verified {
            return Err(fail(String::from(
                "joint tuned program failed verification where every per-site candidate passed",
            )));
        }
        if !outcome.changed {
            return Ok(()); // tuned source is the input; nothing new to run
        }
        let tuned = if bounded {
            self.opt.run_with_limits(&outcome.tuned_source, 2, bounded_limits())
        } else {
            self.opt.run(&outcome.tuned_source, 2)
        }
        .map_err(|e| fail(format!("tuned source failed to run: {e}")))?;
        if tuned.output != base.output {
            return Err(fail(format!(
                "tuned output differs from untuned baseline\n\
                 --- untuned\n{}\n--- tuned\n{}\n--- tuned source\n{}",
                base.output, tuned.output, outcome.tuned_source
            )));
        }
        if tuned.leaked != 0 {
            return Err(fail(format!(
                "tuned run leaked {} buffer(s)\n--- tuned source\n{}",
                tuned.leaked, outcome.tuned_source
            )));
        }
        Ok(())
    }

    fn check_gcc(&self, src: &str, expected: &str, bounded: bool) -> Result<(), Failure> {
        let fail = |detail: String| Failure { oracle: Some(OracleKind::Gcc), detail };
        let c = self
            .opt
            .compile_to_c(src)
            .map_err(|e| fail(format!("C emission failed: {e}")))?;
        let out = compile_and_run_c_with_timeout(&c, 2, gcc_timeout(bounded))
            .map_err(|e| fail(format!("gcc oracle: {e}")))?;
        if out != expected {
            return Err(fail(format!(
                "gcc-compiled output differs from interpreter\n\
                 --- interpreter\n{expected}\n--- gcc\n{out}"
            )));
        }
        Ok(())
    }
}
