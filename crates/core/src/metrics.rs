//! Pipeline observability: pass timings, pool/region telemetry, and
//! interpreter execution profiles, with human-table and JSON rendering.
//!
//! Collection is opt-in at every layer — [`crate::Compiler::compile_metered`]
//! times passes only when called, the fork-join pool only meters regions
//! after `set_metrics_enabled(true)`, and the interpreter only collects a
//! profile under `with_profiling(true)` — so the default pipeline pays
//! nothing for any of this.
//!
//! The JSON schema is hand-rolled (no serde in this workspace) and
//! versioned via the top-level `"schema": "cmm-metrics-v1"` tag; tools
//! consuming `cmmc run --metrics-json` should check it. The tag moves
//! only when existing keys change meaning or shape; purely additive
//! keys (the pool block's per-worker `steals` / `steal_failures`,
//! added with the work-stealing scheduler; the interp block's five
//! `unboxed_*` counters) keep the tag.

use std::fmt::Write as _;

use cmm_forkjoin::PoolMetrics;
use cmm_loopir::{InterpProfile, Tier};
use cmm_rc::PoolStats;

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
            let _ = writeln!(out, "{:<22} {:>10}", "total steps", interp.total_steps);
            let _ = writeln!(out, "{:<22} {:>10}", "parallel loops", interp.par_loops);
            let _ = writeln!(out, "{:<22} {:>10}", "parallel iterations", interp.par_iters);
            let _ = writeln!(out, "{:<22} {:>10}", "kernel calls", interp.kernel_calls);
            let _ = writeln!(out, "{:<22} {:>10}", "unboxed loops", interp.unboxed_loops);
            let _ = writeln!(out, "{:<22} {:>10}", "unboxed iterations", interp.unboxed_iters);
            let _ = writeln!(out, "{:<22} {:>10}", "strip iterations", interp.unboxed_strip_iters);
            let _ = writeln!(out, "{:<22} {:>10}", "full strips", interp.unboxed_full_strips);
            let _ = writeln!(out, "{:<22} {:>10}", "unboxed declines", interp.unboxed_declines);
            let _ = writeln!(out, "{:<22} {:>10}", "unboxed bails", interp.unboxed_bails);
            for l in &interp.boxed_loops {
                let _ = writeln!(out, "boxed {}: loop {} — {}", l.function, l.var, l.reason);
            }
            for l in &interp.per_iteration_loops {
                let (function, var, reason) = (&l.function, &l.var, l.reason);
                let _ = writeln!(out, "per-iteration {function}: loop {var} — {reason}");
            }
            let _ = writeln!(
                out,
                "{:<22} {:>10}",
                "peak live bytes",
                interp.peak_live_bytes
            );
            for f in &interp.functions {
                let _ = writeln!(
                    out,
                    "fuel {:<17} {:>10}   ({} calls)",
                    f.name, f.steps, f.calls
                );
            }
        }
        let _ = writeln!(out, "── rc pool ─────────────────────────────────");
        let _ = writeln!(out, "{:<22} {:>10}", "hits", self.rc.hits);
        let _ = writeln!(out, "{:<22} {:>10}", "misses", self.rc.misses);
        let _ = writeln!(out, "{:<22} {:>10}", "recycled", self.rc.recycled);
        let _ = writeln!(out, "── parser cache ────────────────────────────");
        let _ = writeln!(out, "{:<22} {:>10}", "hits", self.compile.parser_cache.hits);
        let _ = writeln!(out, "{:<22} {:>10}", "misses", self.compile.parser_cache.misses);
        let _ = writeln!(
            out,
            "{:<22} {:>10}",
            "evictions", self.compile.parser_cache.evictions
        );
        out
    }

    /// Render as JSON with the stable [`METRICS_SCHEMA`] layout (what
    /// `--metrics-json` writes).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{METRICS_SCHEMA}\",");
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"tier\": \"{}\",", self.tier);
        out.push_str("  \"passes\": [\n");
        for (i, p) in self.compile.passes.iter().enumerate() {
            let comma = if i + 1 < self.compile.passes.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"nanos\": {}, \"items\": {}, \"unit\": {}}}{comma}",
                json_str(p.name),
                p.nanos,
                p.items,
                json_str(p.unit)
            );
        }
        out.push_str("  ],\n");
        let _ = writeln!(out, "  \"total_nanos\": {},", self.compile.total_nanos());
        match &self.pool {
            Some(pool) => {
                out.push_str("  \"pool\": {\n");
                let _ = writeln!(out, "    \"regions\": {},", pool.regions_measured);
                let _ = writeln!(out, "    \"region_nanos\": {},", pool.region_nanos);
                let _ = writeln!(out, "    \"barrier_wait_nanos\": {},", pool.barrier_wait_nanos);
                let busy: Vec<String> = pool.busy_nanos.iter().map(|b| b.to_string()).collect();
                let _ = writeln!(out, "    \"busy_nanos\": [{}],", busy.join(", "));
                let _ = writeln!(out, "    \"chunks_issued\": {},", pool.chunks_issued);
                let taken: Vec<String> =
                    pool.chunks_taken.iter().map(|c| c.to_string()).collect();
                let _ = writeln!(out, "    \"chunks_taken\": [{}],", taken.join(", "));
                let steals: Vec<String> = pool.steals.iter().map(|s| s.to_string()).collect();
                let _ = writeln!(out, "    \"steals\": [{}],", steals.join(", "));
                let fails: Vec<String> =
                    pool.steal_failures.iter().map(|s| s.to_string()).collect();
                let _ = writeln!(out, "    \"steal_failures\": [{}],", fails.join(", "));
                let _ = writeln!(out, "    \"imbalance_ratio\": {:.6}", pool.imbalance_ratio());
                out.push_str("  },\n");
            }
            None => out.push_str("  \"pool\": null,\n"),
        }
        match &self.interp {
            Some(interp) => {
                out.push_str("  \"interp\": {\n");
                let _ = writeln!(out, "    \"total_steps\": {},", interp.total_steps);
                let _ = writeln!(out, "    \"par_loops\": {},", interp.par_loops);
                let _ = writeln!(out, "    \"par_iters\": {},", interp.par_iters);
                let _ = writeln!(out, "    \"kernel_calls\": {},", interp.kernel_calls);
                let _ = writeln!(out, "    \"unboxed_loops\": {},", interp.unboxed_loops);
                let _ = writeln!(out, "    \"unboxed_iters\": {},", interp.unboxed_iters);
                let _ = writeln!(
                    out,
                    "    \"unboxed_strip_iters\": {},",
                    interp.unboxed_strip_iters
                );
                let _ = writeln!(out, "    \"unboxed_declines\": {},", interp.unboxed_declines);
                let _ = writeln!(out, "    \"unboxed_bails\": {},", interp.unboxed_bails);
                let _ = writeln!(out, "    \"peak_live_bytes\": {},", interp.peak_live_bytes);
                out.push_str("    \"functions\": [\n");
                for (i, f) in interp.functions.iter().enumerate() {
                    let comma = if i + 1 < interp.functions.len() { "," } else { "" };
                    let _ = writeln!(
                        out,
                        "      {{\"name\": {}, \"calls\": {}, \"steps\": {}}}{comma}",
                        json_str(&f.name),
                        f.calls,
                        f.steps
                    );
                }
                out.push_str("    ]\n  },\n");
            }
            None => out.push_str("  \"interp\": null,\n"),
        }
        let _ = writeln!(
            out,
            "  \"rc\": {{\"hits\": {}, \"misses\": {}, \"recycled\": {}}},",
            self.rc.hits, self.rc.misses, self.rc.recycled
        );
        let _ = writeln!(
            out,
            "  \"parser_cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}}}",
            self.compile.parser_cache.hits,
            self.compile.parser_cache.misses,
            self.compile.parser_cache.evictions
        );
        out.push_str("}\n");
        out
    }
}

/// Escape and quote `s` as a JSON string literal — the one escaper every
/// JSON writer in the workspace (metrics, serve responses, tune reports)
/// goes through.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
