//! Chaos test for `cmmc serve`: the PR 1 fault-injection harness wired
//! into the daemon.
//!
//! With faults injected at every layer at once — worker panics in
//! parallel regions, allocation failures, worker-spawn refusal — a
//! 4-client × 50-request mixed workload of well-behaved and hostile
//! programs must satisfy the isolation contract:
//!
//! * every hostile request is answered with its *typed* error code on
//!   its own connection (panic → 7, fuel bomb → 5, injected allocation
//!   failure → 1, compile error → 4);
//! * every well-behaved request still gets its exact output — including
//!   the ones whose sessions lost a worker to spawn refusal, which
//!   degrade to fewer threads and say so in their metrics;
//! * the daemon itself never crashes: it answers a ping after the storm
//!   and drains cleanly on shutdown.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use cmm::forkjoin::faultinject::FaultPlan;
use cmm::serve::json::{self, Json};
use cmm::serve::{start, ServeConfig};

const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 50;

/// Well-behaved program: pure scalar arithmetic. No matrix allocations
/// (immune to injected allocation failures) and no parallel regions
/// (immune to injected worker panics); asking for 3 threads makes its
/// session hit the injected spawn refusal of worker 2, exercising the
/// sequential-fallback path while the answer must stay exact.
fn good_request(id: &str, value: i64) -> String {
    format!(
        r#"{{"id": "{id}", "cmd": "run", "threads": 3, "src": "int main() {{ int x = {value}; printInt(x * 2 + 1); return 0; }}"}}"#
    )
}

/// Fuel bomb: infinite loop under a small fuel budget → code 5 (limit).
fn fuel_bomb_request(id: &str) -> String {
    format!(
        r#"{{"id": "{id}", "cmd": "run", "threads": 1, "fuel": 20000, "src": "int main() {{ int n = 0; while (1 > 0) {{ n = n + 1; }} return 0; }}"}}"#
    )
}

/// Malformed program → code 4 (compile).
fn compile_error_request(id: &str) -> String {
    format!(r#"{{"id": "{id}", "cmd": "run", "src": "int main( {{ return 0; }}"}}"#)
}

/// Panic class: two cilk spawns of a scalar helper force a parallel
/// region on a 2-thread pool, whose worker 1 is scheduled to panic at
/// region epoch 1 (every session pool's first region). No matrix
/// allocations, so the allocation-failure schedule cannot fire first.
fn panic_request(id: &str) -> String {
    format!(
        r#"{{"id": "{id}", "cmd": "run", "threads": 2, "src": "int f(int x) {{ return x * 2; }} int main() {{ int a = 0; int b = 0; spawn a = f(10); spawn b = f(11); sync; printInt(a + b); return 0; }}"}}"#
    )
}

/// OOM class: allocates a matrix while every fallible allocation is
/// scheduled to fail → code 1 (runtime, "injected allocation failure").
fn oom_request(id: &str) -> String {
    format!(
        r#"{{"id": "{id}", "cmd": "run", "threads": 1, "src": "int main() {{ int n = 8; Matrix int <1> v = with ([0] <= [i] < [n]) genarray([n], i); printInt(v[0]); return 0; }}"}}"#
    )
}

fn code(v: &Json) -> u64 {
    v.get("code").and_then(Json::as_u64).expect("code field")
}

#[test]
fn chaos_mixed_workload_under_full_fault_injection() {
    // Every fault class at once, in every session pool the daemon builds:
    // * worker 1 panics in the pool's first parallel region;
    // * every fallible allocation fails (the schedule lists far more
    //   indices than any one pool can reach);
    // * spawning worker 2 fails, so any session asking for 3+ threads
    //   runs degraded.
    let mut plan = FaultPlan::new().panic_at(1, 1).fail_spawn(2);
    plan.alloc_failures = (1..=50_000).collect();
    let cfg = ServeConfig {
        workers: 4,
        // Admission shedding is tested separately; the chaos contract is
        // that every request gets its *typed* answer, so the cap must
        // not bite here.
        max_in_flight: 256,
        queue_deadline: Duration::from_secs(60),
        drain_deadline: Duration::from_secs(10),
        fault_plan: plan,
        ..ServeConfig::default()
    };
    let handle = start(cfg).expect("start server");
    let addr = handle.local_addr();

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut writer = stream;
                // Per-class response tallies: [good, fuel, compile, panic, oom]
                let mut seen = [0u32; 5];
                for i in 0..REQUESTS_PER_CLIENT {
                    let id = format!("c{c}-r{i}");
                    let class = i % 5;
                    let line = match class {
                        0 => good_request(&id, (c * 100 + i) as i64),
                        1 => fuel_bomb_request(&id),
                        2 => compile_error_request(&id),
                        3 => panic_request(&id),
                        _ => oom_request(&id),
                    };
                    // Single write per line: two small writes would trip
                    // the client-side Nagle + delayed-ACK stall.
                    writer.write_all(format!("{line}\n").as_bytes()).expect("send");
                    let mut resp = String::new();
                    reader.read_line(&mut resp).expect("recv");
                    let v = json::parse(&resp)
                        .unwrap_or_else(|e| panic!("bad response JSON ({e}): {resp}"));
                    assert_eq!(
                        v.get("id").unwrap().as_str(),
                        Some(id.as_str()),
                        "responses must stay in order per connection"
                    );
                    match class {
                        0 => {
                            // Well-behaved: exact output, degraded session
                            // (requested 3 threads, spawn of worker 2 refused).
                            assert_eq!(code(&v), 0, "good request failed: {resp}");
                            let expect = format!("{}\n", (c * 100 + i) * 2 + 1);
                            assert_eq!(
                                v.get("output").unwrap().as_str(),
                                Some(expect.as_str()),
                                "{resp}"
                            );
                            let m = v.get("metrics").expect("metrics");
                            assert_eq!(
                                m.get("degraded").unwrap().as_bool(),
                                Some(true),
                                "3-thread session must report spawn degradation: {resp}"
                            );
                            assert_eq!(m.get("threads").unwrap().as_u64(), Some(2));
                            // A degraded pool is tainted and must never
                            // be recycled, so no good-class session can
                            // ever be served from the pool cache.
                            assert_eq!(
                                m.get("pool_hit").unwrap().as_bool(),
                                Some(false),
                                "degraded pools must not come from the cache: {resp}"
                            );
                        }
                        1 => {
                            assert_eq!(code(&v), 5, "fuel bomb must hit the limit: {resp}");
                            assert_eq!(v.get("retryable").unwrap().as_bool(), Some(false));
                        }
                        2 => {
                            assert_eq!(code(&v), 4, "compile error: {resp}");
                        }
                        3 => {
                            assert_eq!(code(&v), 7, "worker panic must be typed: {resp}");
                            let err = v.get("error").unwrap().as_str().unwrap();
                            assert!(err.contains("panic"), "{resp}");
                        }
                        _ => {
                            assert_eq!(code(&v), 1, "injected alloc failure: {resp}");
                            let err = v.get("error").unwrap().as_str().unwrap();
                            assert!(err.contains("allocation failure"), "{resp}");
                        }
                    }
                    seen[class] += 1;
                }
                seen
            })
        })
        .collect();

    let mut totals = [0u32; 5];
    for c in clients {
        let seen = c.join().expect("client thread must not die");
        for (t, s) in totals.iter_mut().zip(seen) {
            *t += s;
        }
    }
    assert_eq!(totals, [40, 40, 40, 40, 40]);

    // The daemon survived the storm: control plane still answers.
    {
        let stream = TcpStream::connect(addr).expect("post-storm connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        // The id is spelled as Python's default `json.dumps` spells
        // `alive-😀`; the client matches its answer by the id it chose.
        writeln!(writer, r#"{{"id": "alive-\ud83d\ude00", "cmd": "ping"}}"#).unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        let v = json::parse(&resp).unwrap();
        assert_eq!(code(&v), 0, "daemon must answer ping after chaos: {resp}");
        assert_eq!(v.get("id").unwrap().as_str(), Some("alive-😀"), "{resp}");
        assert!(resp.starts_with(r#"{"id": "alive-😀", "#), "echoed verbatim: {resp}");
    }

    let report = handle.shutdown();
    assert!(report.clean, "drain must be clean after the storm");
    let stats = report.stats;
    assert_eq!(stats.ok(), 40 + 1, "40 good runs + 1 ping");
    // The server's own tallies are the injection bookkeeping: each
    // injected panic is one isolated session and each injected
    // allocation failure one runtime error, and no fault fired anywhere
    // else.
    assert_eq!(stats.panics_isolated(), 40, "one isolation per panic request");
    assert_eq!(stats.codes[5], 40, "fuel bombs");
    assert_eq!(stats.codes[4], 40, "compile errors");
    assert_eq!(stats.codes[1], 40, "injected allocation failures");
    assert_eq!(stats.shed(), 0, "nothing may be shed under this config");
    assert_eq!(stats.degraded_sessions, 40, "every 3-thread session degraded");
    assert_eq!(stats.requests, 201);
    assert_eq!(stats.in_flight, 0);

    // Pool-cache health gate under chaos: every tainted pool is dropped,
    // never recycled. The 40 spawn-degraded sessions and the 40
    // panic-tainted sessions each try to check their pool back in and
    // must be refused (counted as evictions); the good class always
    // misses (no clean 3-thread pool ever exists to reuse); and the
    // clean 1-thread classes do recycle pools, so hits are non-zero.
    let pc = stats.pool_cache;
    assert!(pc.evictions >= 80, "tainted checkins must be refused: {pc:?}");
    assert!(pc.misses >= 40, "degraded class can never hit: {pc:?}");
    assert!(pc.hits >= 1, "clean sessions must recycle pools: {pc:?}");
    assert_eq!(pc.hits + pc.misses, 200, "every run session checks the cache: {pc:?}");
}

/// Two tenants whose names a client escaped (`"\ud83d\ude00"`,
/// `"\ud83d\ude01"`) are two tenants: each is admitted up to its own
/// quota and shed past it. This daemon is built without a fault plan, so
/// the chaos test's faults, which live in that daemon's pools, never
/// reach it.
#[test]
fn escaped_tenant_names_keep_their_own_quota() {
    let cfg = ServeConfig { tenant_quota: Some(1), ..ServeConfig::default() };
    let handle = start(cfg).expect("start server");
    let connect = || {
        let stream = TcpStream::connect(handle.local_addr()).expect("connect");
        (BufReader::new(stream.try_clone().expect("clone")), stream)
    };
    // Holds its tenant's one slot until the deadline stops it.
    let spin = |id: &str, tenant: &str| {
        format!(
            r#"{{"id": "{id}", "cmd": "run", "threads": 1, "tenant": "{tenant}", "deadline_ms": 2000, "src": "int main() {{ while (1 > 0) {{ }} return 0; }}"}}"#
        )
    };
    let recv = |reader: &mut BufReader<TcpStream>| {
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("recv");
        json::parse(&resp).unwrap_or_else(|e| panic!("bad response JSON ({e}): {resp}"))
    };

    let mut held = Vec::new();
    for (n, (escaped, name)) in [(r"\ud83d\ude00", "😀"), (r"\ud83d\ude01", "😁")].into_iter().enumerate() {
        // The tenant's first request is admitted, whoever else is at quota ...
        let (reader, mut writer) = connect();
        writeln!(writer, "{}", spin(&format!("hold-{n}"), escaped)).unwrap();
        while handle.stats().in_flight <= n {
            assert!(handle.stats().shed() <= n as u64, "tenant {name} was shed below its quota");
            std::thread::sleep(Duration::from_millis(1));
        }
        held.push((reader, writer));
        // ... and its second is shed, in its own name.
        let (mut reader, mut writer) = connect();
        writeln!(writer, "{}", spin(&format!("over-{n}"), escaped)).unwrap();
        let v = recv(&mut reader);
        assert_eq!(code(&v), 6, "{v:?}");
        let error = v.get("error").unwrap().as_str().unwrap();
        assert!(error.contains(&format!("tenant '{name}' quota reached")), "{error}");
    }
    assert_eq!(handle.stats().active_tenants, 2);
    for (n, (mut reader, _writer)) in held.into_iter().enumerate() {
        let v = recv(&mut reader);
        assert_eq!(v.get("id").unwrap().as_str(), Some(format!("hold-{n}").as_str()));
        assert_eq!(code(&v), 5, "stopped by its deadline: {v:?}");
    }
    assert!(handle.shutdown().clean);
}
