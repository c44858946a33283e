//! Pipeline observability (PR 2): pass timings from `compile_metered`,
//! fork-join region telemetry and rc-pool deltas from `run_profiled`, and
//! the stable `cmm-metrics-v1` document — written, parsed back with the
//! workspace's own `cmm::core::json`, and read as a value.

use std::sync::Mutex;

use cmm::core::json::{self, Json};
use cmm::core::{CompileMetrics, Extension, ProfileReport, Registry, ALL_EXTENSIONS, METRICS_SCHEMA};
use cmm::grammar::{GrammarFragment, Sym, Terminal};
use cmm::eddy::programs::full_compiler;
use cmm::loopir::Limits;

/// The profile target CI smokes and the `pipeline` bench measures: two
/// parallel with-loops (genarray over `scores`, fold over `scores`) and a
/// scalar helper called per row.
const PROGRAM: &str = include_str!("../examples/pipeline_profile.xc");

/// rc-pool counters are process-global, and cargo runs tests in this
/// binary concurrently; serialize the ones that assert on per-run deltas.
static RC_LOCK: Mutex<()> = Mutex::new(());

fn profiled(threads: usize) -> ProfileReport {
    let compiler = full_compiler();
    let (result, report) = compiler
        .run_profiled(PROGRAM, threads, Limits::default())
        .expect("profiled run");
    assert_eq!(result.output, "17214.904297\n");
    report
}

#[test]
fn pass_timings_are_ordered_and_nonzero() {
    let compiler = full_compiler();
    let (_, metrics) = compiler.compile_metered(PROGRAM).expect("compile");
    let names: Vec<&str> = metrics.passes.iter().map(|p| p.name).collect();
    assert_eq!(
        names,
        ["parse", "build", "check", "optimize", "lower", "emit"],
        "passes must appear in pipeline order"
    );
    for p in &metrics.passes {
        assert!(p.nanos > 0, "pass {} reported zero wall time", p.name);
    }
    assert_eq!(
        metrics.total_nanos(),
        metrics.passes.iter().map(|p| p.nanos).sum::<u64>()
    );
    // Item counts describe the work each pass saw.
    assert_eq!(metrics.pass("parse").unwrap().items, PROGRAM.len() as u64);
    assert_eq!(metrics.pass("build").unwrap().items, 2, "two functions");
    assert!(metrics.pass("lower").unwrap().items > 0, "lowered stmts");
    assert!(metrics.pass("emit").unwrap().items > 0, "emitted C bytes");
}

#[test]
fn plain_compile_and_metered_compile_agree() {
    let compiler = full_compiler();
    let plain = compiler.compile(PROGRAM).expect("compile");
    let (metered, _) = compiler.compile_metered(PROGRAM).expect("compile");
    assert_eq!(plain, metered, "metering must not change the produced IR");
}

#[test]
fn region_telemetry_matches_program_shape() {
    let _guard = RC_LOCK.lock().unwrap();
    let report = profiled(4);
    let pool = report.pool.expect("pool metrics");
    // The program runs exactly two parallel with-loops, and the pool is
    // created fresh for the run, so regions measured == regions run == 2.
    assert_eq!(pool.regions_measured, 2);
    assert!(pool.region_nanos > 0);
    assert_eq!(pool.busy_nanos.len(), 4, "one slot per participant");
    assert!(pool.imbalance_ratio() >= 1.0);
    assert_eq!(report.threads, 4);

    let interp = report.interp.expect("interp profile");
    assert_eq!(interp.par_loops, 2);
    assert_eq!(interp.par_iters, 48 + 48, "48 rows per parallel loop");
    assert!(interp.total_steps > 0);
    // grid (48*64*4 bytes) and scores (48*4 bytes) are live together.
    assert!(interp.peak_live_bytes >= 48 * 64 * 4);
    let names: Vec<&str> = interp.functions.iter().map(|f| f.name.as_str()).collect();
    assert!(names.contains(&"main") && names.contains(&"rowScore"), "{names:?}");
    let row = interp.functions.iter().find(|f| f.name == "rowScore").unwrap();
    assert_eq!(row.calls, 48, "one call per row");
}

#[test]
fn rc_counters_are_per_run_deltas_not_cumulative() {
    let _guard = RC_LOCK.lock().unwrap();
    let first = profiled(2);
    let second = profiled(2);
    // Each run allocates exactly two matrix buffers (grid, scores) and
    // frees both; a cumulative counter would report 4 on the second run.
    assert_eq!(first.rc.hits + first.rc.misses, 2, "{:?}", first.rc);
    assert_eq!(second.rc.hits + second.rc.misses, 2, "{:?}", second.rc);
    assert_eq!(first.rc.recycled, 2);
    assert_eq!(second.rc.recycled, 2);
    // The first run warmed the size classes, so the second never mallocs.
    assert_eq!(second.rc.misses, 0, "{:?}", second.rc);
}

/// What `--metrics-json` writes for `report`, parsed back.
fn document(report: &ProfileReport) -> Json {
    json::parse(&report.to_json().to_pretty()).expect("the metrics document parses")
}

/// Member `path` (keys joined by dots) of `doc`.
fn member<'a>(doc: &'a Json, path: &str) -> &'a Json {
    let found = path.split('.').try_fold(doc, |v, key| v.get(key));
    found.unwrap_or_else(|| panic!("no {path} in {doc:?}"))
}

fn uint(doc: &Json, path: &str) -> u64 {
    member(doc, path).as_u64().unwrap_or_else(|| panic!("{path} is not a uint in {doc:?}"))
}

fn uints(doc: &Json, path: &str) -> Vec<u64> {
    let items = member(doc, path).as_array().unwrap_or_else(|| panic!("{path} is not an array"));
    items.iter().map(|n| n.as_u64().expect("uint item")).collect()
}

#[test]
fn metrics_json_round_trips_without_serde() {
    let _guard = RC_LOCK.lock().unwrap();
    let report = profiled(3);
    let doc = document(&report);
    assert_eq!(doc, report.to_json(), "parse(write(v)) == v");

    assert_eq!(member(&doc, "schema").as_str(), Some(METRICS_SCHEMA));
    assert_eq!(member(&doc, "tier").as_str(), Some("vm"));
    assert_eq!(uint(&doc, "threads"), 3);
    assert_eq!(uint(&doc, "total_nanos"), report.compile.total_nanos());
    let passes = member(&doc, "passes").as_array().expect("passes");
    assert_eq!(passes.len(), report.compile.passes.len());
    for (p, want) in passes.iter().zip(&report.compile.passes) {
        assert_eq!(member(p, "name").as_str(), Some(want.name));
        assert_eq!((uint(p, "nanos"), uint(p, "items")), (want.nanos, want.items));
        assert_eq!(member(p, "unit").as_str(), Some(want.unit));
    }
    let names: Vec<_> = passes.iter().map(|p| member(p, "name").as_str().expect("name")).collect();
    assert_eq!(names, ["parse", "build", "check", "optimize", "lower", "emit"]);
    let pool = report.pool.as_ref().expect("pool metrics");
    assert_eq!(uint(&doc, "pool.regions"), pool.regions_measured);
    assert_eq!(uint(&doc, "pool.region_nanos"), pool.region_nanos);
    assert_eq!(uint(&doc, "pool.barrier_wait_nanos"), pool.barrier_wait_nanos);
    // One array entry per participant, mirroring PoolMetrics.
    assert_eq!(uints(&doc, "pool.busy_nanos"), pool.busy_nanos);
    assert_eq!(uints(&doc, "pool.chunks_taken"), pool.chunks_taken);
    assert_eq!(uints(&doc, "pool.steals"), pool.steals);
    assert_eq!(uints(&doc, "pool.steal_failures"), pool.steal_failures);
    for per_worker in ["busy_nanos", "chunks_taken", "steals", "steal_failures"] {
        assert_eq!(uints(&doc, &format!("pool.{per_worker}")).len(), 3, "{per_worker}");
    }
    let ratio = member(&doc, "pool.imbalance_ratio").as_f64().expect("imbalance_ratio");
    assert!((ratio - pool.imbalance_ratio()).abs() < 1e-6);
    let interp = report.interp.as_ref().expect("interp profile");
    assert_eq!(uint(&doc, "interp.total_steps"), interp.total_steps);
    assert_eq!(uint(&doc, "interp.par_iters"), interp.par_iters);
    assert_eq!(uint(&doc, "interp.kernel_calls"), 0, "no matrix product here");
    assert_eq!(uint(&doc, "interp.peak_live_bytes"), interp.peak_live_bytes);
    let functions = member(&doc, "interp.functions").as_array().expect("functions");
    let names: Vec<_> = functions.iter().map(|f| member(f, "name").as_str()).collect();
    assert!(names.contains(&Some("main")) && names.contains(&Some("rowScore")), "{names:?}");
    assert_eq!(uint(&doc, "rc.hits"), report.rc.hits);
    assert_eq!(uint(&doc, "rc.misses"), report.rc.misses);
    assert_eq!(uint(&doc, "rc.recycled"), report.rc.recycled);
    assert_eq!(uint(&doc, "parser_cache.hits"), report.compile.parser_cache.hits);
    assert_eq!(uint(&doc, "parser_cache.misses"), report.compile.parser_cache.misses);
    assert_eq!(uint(&doc, "parser_cache.evictions"), report.compile.parser_cache.evictions);
    assert_eq!(uint(&doc, "parser_cache.prebuilt"), report.compile.parser_cache.prebuilt);
}

/// Under a self-scheduling default (`cmmc run examples/imbalanced.xc
/// --threads 4 --schedule dynamic:4 --metrics-json`) the pool block carries
/// the chunk-claim and steal telemetry, one entry per participant.
#[test]
fn a_scheduled_run_reports_chunk_and_steal_telemetry() {
    let _guard = RC_LOCK.lock().unwrap();
    let src = include_str!("../examples/imbalanced.xc");
    let schedule = "dynamic:4".parse().expect("a schedule");
    let (_, report) = full_compiler()
        .run_profiled_scheduled(src, 4, Limits::default(), schedule)
        .expect("profiled run");
    let doc = document(&report);
    assert_eq!(uint(&doc, "threads"), 4);
    assert!(uint(&doc, "pool.chunks_issued") > 0, "{doc:?}");
    let taken = uints(&doc, "pool.chunks_taken");
    assert_eq!(taken.len(), 4);
    assert_eq!(taken.iter().sum::<u64>(), uint(&doc, "pool.chunks_issued"));
    assert_eq!((uints(&doc, "pool.steals").len(), uints(&doc, "pool.steal_failures").len()), (4, 4));
    assert!(member(&doc, "pool.imbalance_ratio").as_f64().expect("a ratio") >= 1.0);
}

/// The interpreter, rc-pool and parser-cache sections say the same thing
/// in both renderings: with every counter given its own value, the
/// numbers down the table's rows are the numbers down the document's
/// members, in order — a counter added to one and not the other shows.
#[test]
fn every_counter_row_of_the_table_is_a_key_of_the_document() {
    let report = ProfileReport {
        interp: Some(cmm::loopir::InterpProfile {
            total_steps: 101,
            par_loops: 102,
            par_iters: 103,
            kernel_calls: 104,
            unboxed_loops: 105,
            unboxed_iters: 106,
            unboxed_strip_iters: 107,
            unboxed_full_strips: 108,
            unboxed_declines: 109,
            unboxed_bails: 110,
            peak_live_bytes: 111,
            ..Default::default()
        }),
        rc: cmm::rc::PoolStats { hits: 201, misses: 202, recycled: 203 },
        compile: CompileMetrics {
            parser_cache: cmm::core::ParserCacheStats { hits: 301, misses: 302, evictions: 303, prebuilt: 304 },
            ..Default::default()
        },
        ..Default::default()
    };
    let table = report.render_table();
    let doc = document(&report);
    for (section, key) in [("interpreter", "interp"), ("rc pool", "rc"), ("parser cache", "parser_cache")] {
        let rows = table.lines().skip_while(|l| !l.contains(section)).skip(1);
        let in_table: Vec<u64> = rows
            .take_while(|l| !l.starts_with('─'))
            // The one row that names rather than counts (and its member,
            // a string, is no `u64` below).
            .filter(|l| !l.starts_with("strip walk "))
            .map(|l| l.split_whitespace().last().and_then(|n| n.parse().ok()).expect(l))
            .collect();
        let Json::Obj(members) = member(&doc, key) else { panic!("{key} is not an object") };
        let in_document: Vec<u64> = members.iter().filter_map(|(_, v)| v.as_u64()).collect();
        assert!(in_table.len() >= 3, "{section}: {table}");
        assert_eq!(in_table, in_document, "{section} / {key}:\n{table}\n{doc:?}");
    }
}

#[test]
fn parser_cache_amortizes_repeat_compositions() {
    // Two compilers over the same extension set: the second construction
    // must be served from the composed-parser cache. Counters are
    // process-global and other tests in this binary construct compilers
    // concurrently, so assert monotonic deltas plus pointer identity
    // rather than exact counts.
    let a = full_compiler();
    let (_, first) = a.compile_metered(PROGRAM).expect("compile");
    let b = full_compiler();
    let (_, second) = b.compile_metered(PROGRAM).expect("compile");
    assert!(
        std::ptr::eq(a.parser(), b.parser()),
        "same extension set must share one cached parser"
    );
    assert!(
        second.parser_cache.hits > first.parser_cache.hits,
        "second construction must hit: {:?} then {:?}",
        first.parser_cache,
        second.parser_cache
    );
    assert!(second.parser_cache.misses >= first.parser_cache.misses);
    assert!(first.parser_cache.misses >= 1, "someone built the tables once");
}

/// `prebuilt` counts the misses served from the tables built with `cmmc`:
/// the standard full language only. A registry with an added extension
/// composes into a cache of its own, so its counts are exact.
#[test]
fn prebuilt_counts_only_the_standard_full_language() {
    let mut registry = Registry::standard();
    let kw = |s: &str| Sym::T(s.to_string());
    registry
        .add_extension(Extension {
            name: "ext-twice".to_string(),
            grammar: GrammarFragment::new("ext-twice")
                .terminal(Terminal::keyword("KW_TWICE", "twice"))
                .production("prim_twice", "Primary", vec![kw("KW_TWICE"), kw("LP"), Sym::N("Expr".into()), kw("RP")]),
            packaged: None,
            requires: None,
            ext: cmm::lang::Ext::Cilk,
        })
        .expect("a new name");
    let cache = |enabled: &[&str]| {
        let compiler = registry.compiler(enabled).expect("composes");
        let (_, metrics) = compiler.compile_metered(PROGRAM).expect("compile");
        let doc = document(&ProfileReport { compile: metrics, ..Default::default() });
        (uint(&doc, "parser_cache.misses"), uint(&doc, "parser_cache.prebuilt"))
    };
    let mut with_twice = ALL_EXTENSIONS.to_vec();
    with_twice.push("ext-twice");
    assert_eq!(cache(&with_twice), (1, 0), "selecting the added extension builds");
    assert_eq!(cache(&ALL_EXTENSIONS), (2, 1), "the standard full language is read");
    assert_eq!(cache(&["ext-matrix"]), (3, 1), "a subset builds");
}

#[test]
fn render_table_mentions_every_section() {
    let _guard = RC_LOCK.lock().unwrap();
    let table = profiled(2).render_table();
    for section in ["compile passes", "fork-join regions", "interpreter", "rc pool", "parser cache"] {
        assert!(table.contains(section), "missing {section} in:\n{table}");
    }
    assert!(table.contains("fuel rowScore"), "{table}");
    assert!(table.contains("load imbalance"), "{table}");
}

#[test]
fn metrics_default_is_empty() {
    let m = CompileMetrics::default();
    assert_eq!(m.total_nanos(), 0);
    assert!(m.pass("parse").is_none());
}

/// Kernel dispatches are visible — and only the dispatching tier reports
/// any: the VM runs both products of `examples/matmul.xc` as kernel
/// calls, the tree tier interprets their nests, and either way the
/// product counts as the one parallel loop its nest's outer loop is.
#[test]
fn kernel_calls_are_counted_per_tier() {
    // Allocates matrices while it runs: keep it out of the windows the
    // rc-delta tests measure.
    let _guard = RC_LOCK.lock().unwrap();
    let src = include_str!("../examples/matmul.xc");
    let profile = |tier| {
        let mut compiler = full_compiler();
        compiler.tier = tier;
        let (_, report) = compiler
            .run_profiled(src, 2, Limits::default())
            .expect("profiled run");
        report
    };
    let vm = profile(cmm::loopir::Tier::Vm);
    let tree = profile(cmm::loopir::Tier::Tree);
    let (vi, ti) = (vm.interp.as_ref().unwrap(), tree.interp.as_ref().unwrap());
    assert_eq!((vi.kernel_calls, ti.kernel_calls), (2, 0));
    assert_eq!((vi.par_loops, vi.par_iters), (ti.par_loops, ti.par_iters));
    assert_eq!(vi.total_steps, ti.total_steps);
    assert_eq!(uint(&document(&vm), "interp.kernel_calls"), 2);
    assert!(vm.render_table().contains("kernel calls                    2\n"));
}

/// Unboxed loops are visible the same way — their counters in the table
/// and the document, zero in the tree tier — and a loop that stayed boxed
/// says why, in both.
#[test]
fn unboxed_loops_are_counted_and_boxed_loops_say_why() {
    let _guard = RC_LOCK.lock().unwrap();
    let src = "int twice(int x) { return x * 2; }
int main() {
    printInt(with ([0] <= [k] < [10]) fold(+, 0, k * k));
    printInt(with ([0] <= [i] < [10]) fold(+, 0, twice(i)));
    return 0;
}";
    let profile = |tier| {
        let mut compiler = full_compiler();
        compiler.tier = tier;
        let (result, report) = compiler.run_profiled(src, 2, Limits::default()).expect("profiled run");
        assert_eq!(result.output, "285\n90\n");
        report
    };
    let vm = profile(cmm::loopir::Tier::Vm);
    let tree = profile(cmm::loopir::Tier::Tree);
    let (vi, ti) = (vm.interp.as_ref().unwrap(), tree.interp.as_ref().unwrap());
    assert_eq!(
        (vi.unboxed_loops, vi.unboxed_iters, vi.unboxed_declines, vi.unboxed_bails),
        (1, 10, 0, 0)
    );
    assert_eq!((ti.unboxed_loops, ti.unboxed_iters), (0, 0));
    assert_eq!(ti.boxed_loops, []);
    assert_eq!(vi.total_steps, ti.total_steps);
    let doc = document(&vm);
    for (key, want) in [
        ("interp.unboxed_loops", 1),
        ("interp.unboxed_iters", 10),
        ("interp.unboxed_strip_iters", 10),
        ("interp.unboxed_full_strips", 0),
        ("interp.unboxed_declines", 0),
        ("interp.unboxed_bails", 0),
    ] {
        assert_eq!(uint(&doc, key), want, "{key}");
    }
    let boxed = Json::obj([
        ("function", "main".into()),
        ("var", "i".into()),
        ("reason", "body calls a user function".into()),
    ]);
    assert_eq!(member(&doc, "interp.boxed_loops"), &Json::arr([boxed]));
    assert_eq!(member(&doc, "interp.per_iteration_loops"), &Json::arr::<Json>([]));
    let table = vm.render_table();
    assert!(table.contains("unboxed loops                   1\n"), "{table}");
    assert!(table.contains("unboxed iterations             10\n"), "{table}");
    assert!(table.contains("strip iterations               10\n"), "{table}");
    // Which compiled copy of the strip walk produced the timing: the
    // host's, in both renderings.
    let isa = cmm::loopir::StripIsa::host().name();
    assert_eq!(member(&doc, "interp.strip_isa").as_str(), Some(isa));
    assert!(table.contains(&format!("strip walk{isa:>23}\n")), "{table}");
    assert!(table.contains("boxed main: loop i — body calls a user function\n"), "{table}");
    assert!(!table.contains("loop k —"), "{table}");
}

/// Every unboxed iteration of `examples/imbalanced.xc` runs in a strip:
/// its three loop shapes all have a plan and no entry is short.
#[test]
fn the_imbalanced_example_runs_every_unboxed_iteration_in_strips() {
    let _guard = RC_LOCK.lock().unwrap();
    let src = include_str!("../examples/imbalanced.xc");
    let (_, report) = full_compiler()
        .run_profiled(src, 2, Limits::default())
        .expect("profiled run");
    let interp = report.interp.as_ref().expect("interp profile");
    assert_eq!((interp.unboxed_strip_iters, interp.unboxed_iters), (191_280, 191_280));
    assert_eq!(interp.per_iteration_loops, []);
    assert_eq!(uint(&document(&report), "interp.unboxed_strip_iters"), 191_280);
}

/// A translated loop whose body has no strip plan is listed with the
/// reason, beside the boxed ones (no with-loop lowers to such a body;
/// `tests/kernel_scalar_loop.rs` builds them from IR).
#[test]
fn a_loop_without_a_strip_plan_says_why() {
    let note = |var: &str, reason| cmm::loopir::BoxedLoop {
        function: "scan".into(),
        var: var.into(),
        reason,
    };
    let report = ProfileReport {
        interp: Some(cmm::loopir::InterpProfile {
            boxed_loops: vec![note("k", "branch in body")],
            per_iteration_loops: vec![note("j", "checked operation depends on a loop-carried value")],
            ..Default::default()
        }),
        ..Default::default()
    };
    let table = report.render_table();
    let boxed = table.find("boxed scan: loop k — branch in body\n").expect("boxed line");
    let per_iteration = table
        .find("per-iteration scan: loop j — checked operation depends on a loop-carried value\n")
        .expect("per-iteration line");
    assert!(boxed < per_iteration, "{table}");
    let doc = document(&report);
    let listed = member(&doc, "interp.per_iteration_loops").as_array().expect("array");
    assert_eq!(member(&listed[0], "var").as_str(), Some("j"));
}
