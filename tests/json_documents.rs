//! Every JSON document the system writes goes through `cmm::core::json`:
//! what it writes it reads back (property), the request parser reads the
//! writer's own strings (property), and the documents are byte for byte
//! what the hand-laid writers before it produced (`tests/golden/`, text
//! captured from the binary of the commit before the one writer; the
//! parser cache's `prebuilt` count, appended since, re-captured in).

use cmm::core::json::{self, Json};
use cmm::core::{CompileMetrics, ParserCacheStats, PassTiming, ProfileReport};
use cmm::forkjoin::PoolMetrics;
use cmm::loopir::{BoxedLoop, FnProfile, InterpProfile, StripIsa};
use cmm::rc::PoolStats;
use cmm::serve::{PoolCacheStats, Request, RespCode, RespMetrics, Response, ServeStats};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

// ───────────────────────────── properties ──────────────────────────────

/// Strings over what the escaper and the parser treat specially: the two
/// escaped punctuation marks, C0 controls, DEL (written raw), BMP and
/// astral characters.
fn random_string(rng: &mut TestRng) -> String {
    const ALPHABET: [char; 16] = [
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{0}', '\u{1f}', '\u{7f}', 'é',
        '√', '😀',
    ];
    let len = rng.next_u64() % 12;
    (0..len)
        .map(|_| ALPHABET[(rng.next_u64() % 16) as usize])
        .collect()
}

fn random_json(rng: &mut TestRng, depth: usize) -> Json {
    // Containers only while there is depth left: trees are at most six deep.
    let kinds = if depth < 6 { 11 } else { 9 };
    match rng.next_u64() % kinds {
        0 => Json::Null,
        1 => (rng.next_u64() & 1 == 1).into(),
        2 => rng.next_u64().into(),
        3 => (rng.next_u64() as i64).into(),
        4 => u64::MAX.into(),
        5 => i64::MIN.into(),
        6 => Json::fixed(
            rng.next_unit_f64() * 200.0 - 100.0,
            (rng.next_u64() % 7) as usize,
        ),
        7 | 8 => random_string(rng).into(),
        9 => Json::arr(
            (0..rng.next_u64() % 4)
                .map(|_| random_json(rng, depth + 1))
                .collect::<Vec<_>>(),
        ),
        _ => Json::obj(
            (0..rng.next_u64() % 4)
                .map(|_| (random_string(rng), random_json(rng, depth + 1)))
                .collect::<Vec<_>>(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_both_layouts_parse_back_to_the_value(seed in any::<u64>()) {
        let v = random_json(&mut TestRng::with_seed(seed), 0);
        prop_assert_eq!(json::parse(&v.to_line()), Ok(v.clone()));
        prop_assert_eq!(json::parse(&v.to_pretty()), Ok(v.clone()));
        prop_assert!(!v.to_line().contains('\n') && v.to_pretty().ends_with('\n'));
    }

    /// The request parser reads what the response writer writes: an id or
    /// a source sent as the writer spells it comes back as it was.
    #[test]
    fn prop_request_parse_reads_the_writers_strings(seed in any::<u64>()) {
        let mut rng = TestRng::with_seed(seed);
        let (id, src) = (random_string(&mut rng), random_string(&mut rng));
        let line = Json::obj([
            ("id", id.as_str().into()),
            ("cmd", "check".into()),
            ("src", src.as_str().into()),
        ])
        .to_line();
        let req = Request::parse(&line).expect("a well-formed request");
        prop_assert_eq!((req.id, req.src), (id, src));
    }
}

// ─────────────────────────────── goldens ───────────────────────────────

/// A name that takes every branch of the escaper.
const AWKWARD: &str = "we\"ird\\name\u{1}\t\u{7f}é√😀";

fn compile_metrics() -> CompileMetrics {
    let pass = |name, nanos, items, unit| PassTiming {
        name,
        nanos,
        items,
        unit,
    };
    CompileMetrics {
        passes: vec![
            pass("parse", 1_234_567, 1792, "bytes"),
            pass("build", 45_678, 2, "functions"),
            pass("check", 9_001, 2, "functions"),
            pass("optimize", 7, 0, "fusions"),
            pass("lower", 88_888, 41, "stmts"),
            pass("emit", 123_456, 4096, "bytes"),
        ],
        parser_cache: ParserCacheStats {
            hits: 3,
            misses: 1,
            evictions: 0,
            prebuilt: 1,
        },
    }
}

fn run_report() -> ProfileReport {
    ProfileReport {
        compile: compile_metrics(),
        pool: Some(PoolMetrics {
            regions_measured: 2,
            region_nanos: u64::MAX,
            barrier_wait_nanos: 789,
            busy_nanos: vec![300, 100],
            chunks_issued: 7,
            chunks_taken: vec![4, 3],
            steals: vec![1, 0],
            steal_failures: vec![0, 2],
            wakeups: 5,
            barrier_parks: 3,
        }),
        interp: Some(InterpProfile {
            functions: vec![
                FnProfile {
                    name: "main".into(),
                    calls: 1,
                    steps: 9_007_199_254_740_993,
                },
                FnProfile {
                    name: AWKWARD.into(),
                    calls: 48,
                    steps: 4242,
                },
            ],
            par_loops: 2,
            par_iters: 96,
            kernel_calls: 5,
            unboxed_loops: 11,
            unboxed_iters: 1300,
            unboxed_strip_iters: 1290,
            unboxed_full_strips: 10,
            strip_isa: StripIsa::Avx2,
            unboxed_declines: 1,
            unboxed_bails: 2,
            boxed_loops: vec![BoxedLoop {
                function: "main".into(),
                var: "i".into(),
                reason: "body calls a user function",
            }],
            per_iteration_loops: vec![BoxedLoop {
                function: "scan".into(),
                var: "j".into(),
                reason: "checked operation depends on a loop-carried value",
            }],
            peak_live_bytes: 12_480,
            total_steps: 9_007_199_254_740_993,
        }),
        rc: PoolStats {
            hits: 6,
            misses: 2,
            recycled: 8,
        },
        threads: 2,
    }
}

/// What `cmmc check --metrics-json` reports: three passes, nothing ran.
fn check_report() -> ProfileReport {
    let mut compile = compile_metrics();
    compile.passes.truncate(3);
    ProfileReport {
        compile,
        threads: 4,
        ..ProfileReport::default()
    }
}

fn serve_stats() -> ServeStats {
    ServeStats {
        connections: 69,
        requests: u64::MAX,
        in_flight: 3,
        draining: true,
        codes: [40, 1, 41, 0, 42, 43, 7, 2],
        degraded_sessions: 1,
        server_threads: 3,
        open_connections: 64,
        streamed: 5,
        active_tenants: 2,
        pool_cache: PoolCacheStats {
            hits: 9,
            misses: 4,
            evictions: 1,
            cached: 3,
            construct_nanos: 987_654,
        },
        compose_cache: ParserCacheStats {
            hits: 116,
            misses: 4,
            evictions: 0,
            prebuilt: 1,
        },
    }
}

fn resp_metrics() -> RespMetrics {
    RespMetrics {
        elapsed_ms: 12,
        queue_ms: 3,
        threads: 2,
        degraded: true,
        allocations: 4,
        leaked: 0,
        pool_hit: true,
        pool_construct_ns: 0,
    }
}

/// The keys added to the `interp` object of `cmm-metrics-v1` since the
/// golden document was recorded: three the `--profile` table had rows for
/// and the document did not, and the strip walk's compiled copy.
const ADDED_INTERP_KEYS: [&str; 4] = [
    "unboxed_full_strips",
    "strip_isa",
    "boxed_loops",
    "per_iteration_loops",
];

#[test]
fn metrics_documents_are_the_parents_bytes() {
    assert_eq!(
        check_report().to_json().to_pretty(),
        include_str!("golden/metrics_check.json")
    );

    // A run's document is the parent's plus the additive keys.
    let Json::Obj(mut doc) = run_report().to_json() else {
        panic!("an object")
    };
    let interp = doc.iter_mut().find(|(k, _)| k == "interp").map(|(_, v)| v);
    let Some(Json::Obj(interp)) = interp else {
        panic!("interp is an object")
    };
    let before = interp.len();
    interp.retain(|(k, _)| !ADDED_INTERP_KEYS.contains(&&**k));
    assert_eq!(before - interp.len(), ADDED_INTERP_KEYS.len());
    assert_eq!(
        Json::Obj(doc).to_pretty(),
        include_str!("golden/metrics_run.json")
    );
}

#[test]
fn serve_lines_are_the_parents_bytes() {
    let stats_line = serve_stats().to_json().to_line() + "\n";
    assert_eq!(stats_line, include_str!("golden/serve_stats.json"));

    let ok = Response::ok(
        AWKWARD,
        Some(format!("17\n{AWKWARD}\n")),
        Some(resp_metrics()),
    );
    let mut err = Response::err(
        "42",
        RespCode::Limit,
        "fuel budget of 20000 steps exhausted",
    );
    err.metrics = Some(RespMetrics {
        threads: 1,
        ..RespMetrics::default()
    });
    let shed = Response::err(
        "?",
        RespCode::Overloaded,
        "admission cap reached (16 in flight); retry with backoff",
    );
    let mut stats = Response::ok("s", None, None);
    stats.stats = Some(Box::new(serve_stats()));
    let lines = [
        ok.to_line(),
        err.to_line(),
        shed.to_line(),
        Response::ok("c", None, Some(RespMetrics::default())).to_line(),
        stats.to_line(),
        ok.to_stream_header(20, 3),
        Response::stream_frame(AWKWARD, 0, "0\n1\n2\n3\n", false),
        Response::stream_frame("st", 2, "8\n9\n", true),
    ];
    let golden = include_str!("golden/serve_lines.jsonl");
    assert_eq!(golden.lines().count(), lines.len());
    for (line, want) in lines.iter().zip(golden.lines()) {
        assert_eq!(line, want);
        let v = json::parse(line).expect("a response line parses");
        assert_eq!(v.to_line(), *line, "and is laid out as the value says");
    }
}
