//! Pipeline observability: pass timings, pool/region telemetry, and
//! interpreter execution profiles, with human-table and JSON rendering.
//!
//! Collection is opt-in at every layer — [`crate::Compiler::compile_metered`]
//! times passes only when called, the fork-join pool only meters regions
//! after `set_metrics_enabled(true)`, and the interpreter only collects a
//! profile under `with_profiling(true)` — so the default pipeline pays
//! nothing for any of this.
//!
//! The document is a [`crate::json::Json`] value, versioned via the
//! top-level `"schema": "cmm-metrics-v1"` tag; tools consuming `cmmc run
//! --metrics-json` should check it. The tag moves only when existing keys
//! change meaning or shape; purely additive keys (the pool block's
//! per-worker `steals` / `steal_failures`, added with the work-stealing
//! scheduler; the interp block's six `unboxed_*` counters and its
//! `boxed_loops` / `per_iteration_loops` arrays of `{"function", "var",
//! "reason"}`; the parser cache's `prebuilt` count, appended last; the
//! interp block's `strip_isa`, `"avx2"` or `"baseline"`, the compiled copy
//! of the unboxed loops' strip walk this host runs — the AVX2 build of the
//! sweeps where the CPU has AVX2 — so that a timing can be traced to the
//! code that produced it) keep the tag. The interpreter, rc-pool and parser-cache rows are listed once
//! and both renderings walk the list, so whatever the `--profile` table
//! prints there the document carries too.

use std::fmt::Write as _;

use cmm_forkjoin::PoolMetrics;
use cmm_loopir::{BoxedLoop, InterpProfile, Tier};
use cmm_rc::PoolStats;

use crate::json::{Json, Member};

/// JSON schema tag emitted by [`ProfileReport::to_json`].
pub const METRICS_SCHEMA: &str = "cmm-metrics-v1";

/// One timed compiler pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassTiming {
    /// Pass name (`parse`, `build`, `check`, `optimize`, `lower`, `emit`).
    pub name: &'static str,
    /// Wall time in nanoseconds.
    pub nanos: u64,
    /// Work-item count for the pass (what `unit` says it counts).
    pub items: u64,
    /// What `items` counts (`bytes`, `functions`, `fusions`, `stmts`).
    pub unit: &'static str,
}

/// Hit/miss counters for the composition cache, sampled at metering
/// time. These are process-lifetime totals (the cache is shared by every
/// [`crate::Registry::standard`] instance), so a warm process shows hits
/// accumulating while misses stay at the number of distinct extension
/// sets composed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParserCacheStats {
    /// Compiler constructions served from the cache.
    pub hits: u64,
    /// Compiler constructions that had to verify the extensions and build
    /// the LALR(1) tables and scanner.
    pub misses: u64,
    /// Compositions evicted by the LRU bound
    /// ([`crate::DEFAULT_PARSER_CACHE_CAPACITY`]); nonzero eviction churn
    /// on a daemon means the working set of extension sets exceeds the
    /// cache capacity.
    pub evictions: u64,
    /// Misses served from the tables `build.rs` wrote when `cmmc` was
    /// built (the standard full language): these ran neither the analyses
    /// nor the builders, so `misses - prebuilt` is the count that did.
    pub prebuilt: u64,
}

impl ParserCacheStats {
    /// `{hits, misses, evictions, prebuilt}`: the cache as the metrics
    /// document and the serve stats both report it.
    pub fn to_json(&self) -> Json {
        Json::Obj(json_rows(&parser_cache_rows(self)))
    }
}

/// Timings for one front-to-back compilation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompileMetrics {
    /// Per-pass wall time and item counts, in pipeline order.
    pub passes: Vec<PassTiming>,
    /// Composed-parser cache activity for the process as of this compile.
    pub parser_cache: ParserCacheStats,
}

impl CompileMetrics {
    /// Sum of all pass times in nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.passes.iter().map(|p| p.nanos).sum()
    }

    /// Look up a pass by name.
    pub fn pass(&self, name: &str) -> Option<&PassTiming> {
        self.passes.iter().find(|p| p.name == name)
    }
}

/// Everything `cmmc run --profile` reports: compile-pass timings plus
/// (when the program was executed) runtime telemetry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    /// Compiler pass timings.
    pub compile: CompileMetrics,
    /// Fork-join region telemetry for the run, if the program ran.
    pub pool: Option<PoolMetrics>,
    /// Interpreter execution profile, if the program ran.
    pub interp: Option<InterpProfile>,
    /// `cmm-rc` pool activity attributable to this run (counter deltas,
    /// not process-lifetime totals, so consecutive runs don't accumulate).
    pub rc: PoolStats,
    /// Pool threads the run used.
    pub threads: usize,
    /// Execution tier that actually ran (`vm` unless the program fell
    /// back to the tree-walker or the tree tier was requested).
    pub tier: Tier,
}

fn fmt_nanos(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.3}s", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.3}ms", n as f64 / 1e6)
    } else {
        format!("{:.1}µs", n as f64 / 1e3)
    }
}

impl ProfileReport {
    /// Render as an aligned human-readable table (what `--profile` prints
    /// to stderr).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "── compile passes ──────────────────────────");
        for p in &self.compile.passes {
            let _ = writeln!(
                out,
                "{:<10} {:>12}   {:>8} {}",
                p.name,
                fmt_nanos(p.nanos),
                p.items,
                p.unit
            );
        }
        let _ = writeln!(
            out,
            "{:<10} {:>12}",
            "total",
            fmt_nanos(self.compile.total_nanos())
        );
        if let Some(pool) = &self.pool {
            let _ = writeln!(out, "── fork-join regions ({} threads) ──────────", self.threads);
            let _ = writeln!(out, "{:<22} {:>10}", "regions", pool.regions_measured);
            let _ = writeln!(out, "{:<22} {:>10}", "region time", fmt_nanos(pool.region_nanos));
            let _ = writeln!(
                out,
                "{:<22} {:>10}",
                "barrier wait (main)",
                fmt_nanos(pool.barrier_wait_nanos)
            );
            for (tid, &busy) in pool.busy_nanos.iter().enumerate() {
                let who = if tid == 0 { "busy[main]".to_string() } else { format!("busy[w{tid}]") };
                let _ = writeln!(out, "{who:<22} {:>10}", fmt_nanos(busy));
            }
            let _ = writeln!(
                out,
                "{:<22} {:>10.2}",
                "load imbalance",
                pool.imbalance_ratio()
            );
            if pool.chunks_issued > 0 {
                let _ = writeln!(out, "{:<22} {:>10}", "chunks issued", pool.chunks_issued);
                for (tid, &taken) in pool.chunks_taken.iter().enumerate() {
                    let who = if tid == 0 {
                        "chunks[main]".to_string()
                    } else {
                        format!("chunks[w{tid}]")
                    };
                    let _ = writeln!(out, "{who:<22} {taken:>10}");
                }
            }
            let stolen: u64 = pool.steals.iter().sum();
            let missed: u64 = pool.steal_failures.iter().sum();
            if stolen > 0 || missed > 0 {
                let _ = writeln!(out, "{:<22} {:>10}", "steals", stolen);
                for (tid, &s) in pool.steals.iter().enumerate() {
                    let who = if tid == 0 {
                        "steals[main]".to_string()
                    } else {
                        format!("steals[w{tid}]")
                    };
                    let _ = writeln!(out, "{who:<22} {s:>10}");
                }
                let _ = writeln!(out, "{:<22} {:>10}", "steal failures", missed);
            }
        }
        if let Some(interp) = &self.interp {
            let _ = writeln!(out, "── interpreter ({} tier) ───────────────────", self.tier);
            table_rows(&mut out, &interp_rows(interp));
            for f in &interp.functions {
                let _ = writeln!(
                    out,
                    "fuel {:<17} {:>10}   ({} calls)",
                    f.name, f.steps, f.calls
                );
            }
        }
        let _ = writeln!(out, "── rc pool ─────────────────────────────────");
        table_rows(&mut out, &rc_rows(&self.rc));
        let _ = writeln!(out, "── parser cache ────────────────────────────");
        table_rows(&mut out, &parser_cache_rows(&self.compile.parser_cache));
        out
    }

    /// The report as a [`METRICS_SCHEMA`] document (`--metrics-json`
    /// writes its [`Json::to_pretty`] layout).
    pub fn to_json(&self) -> Json {
        let passes = self.compile.passes.iter().map(|p| {
            Json::obj([
                ("name", p.name.into()),
                ("nanos", p.nanos.into()),
                ("items", p.items.into()),
                ("unit", p.unit.into()),
            ])
        });
        let pool = self.pool.as_ref().map_or(Json::Null, |pool| {
            let per_worker = |counts: &[u64]| Json::arr(counts.iter().copied());
            Json::obj([
                ("regions", pool.regions_measured.into()),
                ("region_nanos", pool.region_nanos.into()),
                ("barrier_wait_nanos", pool.barrier_wait_nanos.into()),
                ("busy_nanos", per_worker(&pool.busy_nanos)),
                ("chunks_issued", pool.chunks_issued.into()),
                ("chunks_taken", per_worker(&pool.chunks_taken)),
                ("steals", per_worker(&pool.steals)),
                ("steal_failures", per_worker(&pool.steal_failures)),
                ("imbalance_ratio", Json::fixed(pool.imbalance_ratio(), 6)),
            ])
        });
        let interp = self.interp.as_ref().map_or(Json::Null, |interp| {
            let functions = interp.functions.iter().map(|f| {
                Json::obj([
                    ("name", f.name.as_str().into()),
                    ("calls", f.calls.into()),
                    ("steps", f.steps.into()),
                ])
            });
            let mut members = json_rows(&interp_rows(interp));
            members.push(("functions".into(), Json::arr(functions)));
            Json::Obj(members)
        });
        Json::obj([
            ("schema", METRICS_SCHEMA.into()),
            ("threads", self.threads.into()),
            ("tier", self.tier.to_string().into()),
            ("passes", Json::arr(passes)),
            ("total_nanos", self.compile.total_nanos().into()),
            ("pool", pool),
            ("interp", interp),
            ("rc", Json::Obj(json_rows(&rc_rows(&self.rc)))),
            ("parser_cache", self.compile.parser_cache.to_json()),
        ])
    }
}

/// One row of the interpreter, rc-pool or parser-cache section: its label
/// in the table, its key in the document, its value. Both renderings walk
/// these lists, so the table and the document cannot drift apart.
enum Row<'a> {
    /// A counter.
    Count(&'static str, &'static str, u64),
    /// Loops that did not take a fast path, one table line each.
    Loops(&'static str, &'static str, &'a [BoxedLoop]),
    /// A name.
    Text(&'static str, &'static str, &'static str),
}

fn interp_rows(p: &InterpProfile) -> [Row<'_>; 14] {
    [
        Row::Count("total steps", "total_steps", p.total_steps),
        Row::Count("parallel loops", "par_loops", p.par_loops),
        Row::Count("parallel iterations", "par_iters", p.par_iters),
        Row::Count("kernel calls", "kernel_calls", p.kernel_calls),
        Row::Count("unboxed loops", "unboxed_loops", p.unboxed_loops),
        Row::Count("unboxed iterations", "unboxed_iters", p.unboxed_iters),
        Row::Count("strip iterations", "unboxed_strip_iters", p.unboxed_strip_iters),
        Row::Count("full strips", "unboxed_full_strips", p.unboxed_full_strips),
        Row::Text("strip walk", "strip_isa", p.strip_isa.name()),
        Row::Count("unboxed declines", "unboxed_declines", p.unboxed_declines),
        Row::Count("unboxed bails", "unboxed_bails", p.unboxed_bails),
        Row::Loops("boxed", "boxed_loops", &p.boxed_loops),
        Row::Loops("per-iteration", "per_iteration_loops", &p.per_iteration_loops),
        Row::Count("peak live bytes", "peak_live_bytes", p.peak_live_bytes),
    ]
}

fn rc_rows(rc: &PoolStats) -> [Row<'static>; 3] {
    [
        Row::Count("hits", "hits", rc.hits),
        Row::Count("misses", "misses", rc.misses),
        Row::Count("recycled", "recycled", rc.recycled),
    ]
}

fn parser_cache_rows(cache: &ParserCacheStats) -> [Row<'static>; 4] {
    [
        Row::Count("hits", "hits", cache.hits),
        Row::Count("misses", "misses", cache.misses),
        Row::Count("evictions", "evictions", cache.evictions),
        Row::Count("prebuilt", "prebuilt", cache.prebuilt),
    ]
}

fn table_rows(out: &mut String, rows: &[Row]) {
    for row in rows {
        match row {
            Row::Count(label, _, n) => {
                let _ = writeln!(out, "{label:<22} {n:>10}");
            }
            Row::Text(label, _, text) => {
                let _ = writeln!(out, "{label:<22} {text:>10}");
            }
            Row::Loops(label, _, loops) => {
                for l in *loops {
                    let _ = writeln!(out, "{label} {}: loop {} — {}", l.function, l.var, l.reason);
                }
            }
        }
    }
}

fn json_rows(rows: &[Row]) -> Vec<Member> {
    let member = |row: &Row| match *row {
        Row::Count(_, key, n) => (key.into(), n.into()),
        Row::Text(_, key, text) => (key.into(), text.into()),
        Row::Loops(_, key, loops) => {
            let loops = loops.iter().map(|l| {
                Json::obj([
                    ("function", l.function.as_str().into()),
                    ("var", l.var.as_str().into()),
                    ("reason", l.reason.into()),
                ])
            });
            (key.into(), Json::arr(loops))
        }
    };
    rows.iter().map(member).collect()
}
