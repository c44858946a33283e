//! Serve-crate tests: protocol parsing, code mapping, and in-process
//! end-to-end runs over real TCP and unix sockets.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::json::{self, Json};
use crate::protocol::{classify, Cmd, Request, RespCode, Response};
use crate::{start, ServeConfig};

// ───────────────────────── protocol unit tests ─────────────────────────

#[test]
fn request_parses_all_fields() {
    let req = Request::parse(
        r#"{"id": "abc", "cmd": "run", "src": "int main() { return 0; }",
            "ext": ["ext-matrix"], "threads": 3, "fuel": 500,
            "max_mem": 4096, "deadline_ms": 250, "schedule": "dynamic:8"}"#,
    )
    .unwrap();
    assert_eq!(req.id, "abc");
    assert_eq!(req.cmd, Cmd::Run);
    assert_eq!(req.ext.as_deref(), Some(&["ext-matrix".to_string()][..]));
    assert_eq!(req.threads, Some(3));
    assert_eq!(req.fuel, Some(500));
    assert_eq!(req.max_mem, Some(4096));
    assert_eq!(req.deadline, Some(Duration::from_millis(250)));
    assert!(req.schedule.is_some());
}

#[test]
fn request_numeric_id_echoes_as_integer() {
    for (id, echoed) in [("7", "7"), ("7.0", "7"), ("-3", "-3"), ("2.5", "2.5"), ("9007199254740993", "9007199254740993")] {
        let req = Request::parse(&format!(r#"{{"id": {id}, "cmd": "ping"}}"#)).unwrap();
        assert_eq!(req.id, echoed);
    }
}

/// What Python's default `json.dumps` sends for `job-😀`: the id a client
/// matches its response by, and the tenant its quota is counted under.
#[test]
fn request_strings_decode_surrogate_pairs() {
    let req = Request::parse(r#"{"id": "job-\ud83d\ude00", "cmd": "ping", "tenant": "\ud83d\ude01"}"#)
        .unwrap();
    assert_eq!((req.id.as_str(), req.tenant.as_str()), ("job-😀", "😁"));
    assert!(Response::ok(&req.id, None, None).to_line().starts_with(r#"{"id": "job-😀", "#));
}

#[test]
fn request_rejections_keep_the_id_when_recoverable() {
    // id present → returned so the error response still correlates.
    let (id, msg) = Request::parse(r#"{"id": "x", "cmd": "explode"}"#).unwrap_err();
    assert_eq!(id.as_deref(), Some("x"));
    assert!(msg.contains("unknown cmd"), "{msg}");

    let (id, _) = Request::parse(r#"{"id": "y", "cmd": "run"}"#).unwrap_err();
    assert_eq!(id.as_deref(), Some("y"), "missing src should keep id");

    // No id at all → None.
    let (id, msg) = Request::parse(r#"{"cmd": "ping"}"#).unwrap_err();
    assert!(id.is_none());
    assert!(msg.contains("'id'"), "{msg}");

    // Not JSON — by RFC 8259, not by what `f64` parsing lets through.
    for line in [
        "run it please",
        r#"{"id": 1e400, "cmd": "ping"}"#,
        r#"{"id": 01, "cmd": "ping"}"#,
        "{\"id\": \"a\tb\", \"cmd\": \"ping\"}",
        r#"{"id": "\ud83d", "cmd": "ping"}"#,
    ] {
        let (id, msg) = Request::parse(line).unwrap_err();
        assert!(id.is_none() && msg.starts_with("invalid JSON: "), "{line}: {msg}");
    }

    // 2^64 is a number, but no budget: `u64::MAX as f64` is 2^64 too, so a
    // range check in `f64` lets it in and the cast saturates.
    let line = r#"{"id": "z", "cmd": "run", "src": "", "fuel": 18446744073709551616}"#;
    let (id, msg) = Request::parse(line).unwrap_err();
    assert_eq!((id.as_deref(), msg.as_str()), (Some("z"), "field 'fuel' must be a non-negative integer"));
    let line = r#"{"id": "z", "cmd": "run", "src": "", "fuel": 9007199254740993}"#;
    assert_eq!(Request::parse(line).unwrap().fuel, Some(9_007_199_254_740_993));
}

#[test]
fn response_codes_mirror_cli_exit_codes() {
    use cmm_core::CompileError;
    // The CLI maps runtime→1, usage→2, io→3, compile→4, limit→5; the
    // serve codes must line up so clients can share handling.
    assert_eq!(classify(&CompileError::Runtime("x".into())) as u8, 1);
    assert_eq!(classify(&CompileError::UnknownExtension("x".into())) as u8, 2);
    assert_eq!(classify(&CompileError::Parse("x".into())) as u8, 4);
    assert_eq!(classify(&CompileError::Compose("x".into())) as u8, 4);
    assert_eq!(
        classify(&CompileError::Limit {
            kind: cmm_loopir::LimitKind::Fuel,
            message: "x".into()
        }) as u8,
        5
    );
    assert_eq!(classify(&CompileError::Panic("x".into())) as u8, 7);
    // Only overloaded is retryable.
    for code in [
        RespCode::Ok,
        RespCode::Runtime,
        RespCode::BadRequest,
        RespCode::Io,
        RespCode::Compile,
        RespCode::Limit,
        RespCode::Panic,
    ] {
        assert!(!code.retryable(), "{code:?} must not be retryable");
    }
    assert!(RespCode::Overloaded.retryable());
}

#[test]
fn response_line_is_valid_json_with_stable_fields() {
    let mut resp = Response::ok("r1", Some("4\n2\n".to_string()), None);
    resp.metrics = Some(crate::RespMetrics {
        elapsed_ms: 12,
        queue_ms: 3,
        threads: 2,
        degraded: true,
        allocations: 5,
        leaked: 0,
        pool_hit: false,
        pool_construct_ns: 0,
    });
    let v = json::parse(&resp.to_line()).expect("response must be valid JSON");
    assert_eq!(v.get("id").unwrap().as_str(), Some("r1"));
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(v.get("code").unwrap().as_u64(), Some(0));
    assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(v.get("retryable").unwrap().as_bool(), Some(false));
    assert_eq!(v.get("output").unwrap().as_str(), Some("4\n2\n"));
    let m = v.get("metrics").unwrap();
    assert_eq!(m.get("threads").unwrap().as_u64(), Some(2));
    assert_eq!(m.get("degraded").unwrap().as_bool(), Some(true));

    let err = Response::err("r2", RespCode::Overloaded, "busy \"now\"\n");
    let v = json::parse(&err.to_line()).unwrap();
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(v.get("code").unwrap().as_u64(), Some(6));
    assert_eq!(v.get("retryable").unwrap().as_bool(), Some(true));
    assert_eq!(v.get("error").unwrap().as_str(), Some("busy \"now\"\n"));
}

// ───────────────────────── end-to-end over TCP ─────────────────────────

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { reader, writer: stream }
    }

    fn send(&mut self, req: &str) {
        // Single write per line: two small writes (line then newline)
        // would trip the client-side Nagle + delayed-ACK stall.
        self.writer.write_all(format!("{req}\n").as_bytes()).expect("send");
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        json::parse(&line).unwrap_or_else(|e| panic!("bad response JSON ({e}): {line}"))
    }

    fn roundtrip(&mut self, req: &str) -> Json {
        self.send(req);
        self.recv()
    }
}

fn code(v: &Json) -> u64 {
    v.get("code").and_then(Json::as_u64).expect("code field")
}

#[test]
fn serves_run_compile_check_ping_stats_over_tcp() {
    let handle = start(ServeConfig::default()).expect("start");
    let mut c = Client::connect(handle.local_addr());

    let v = c.roundtrip(r#"{"id": "p", "cmd": "ping"}"#);
    assert_eq!(code(&v), 0);
    assert_eq!(v.get("output").unwrap().as_str(), Some("pong"));

    let v = c.roundtrip(
        r#"{"id": "r", "cmd": "run", "src": "int main() { printInt(6 * 7); return 0; }"}"#,
    );
    assert_eq!(code(&v), 0, "{v:?}");
    assert_eq!(v.get("output").unwrap().as_str(), Some("42\n"));
    let m = v.get("metrics").expect("run metrics");
    assert_eq!(m.get("degraded").unwrap().as_bool(), Some(false));
    assert!(m.get("threads").unwrap().as_u64().unwrap() >= 1);

    let v = c.roundtrip(
        r#"{"id": "c", "cmd": "compile", "src": "int main() { return 0; }", "ext": []}"#,
    );
    assert_eq!(code(&v), 0);
    let c_src = v.get("output").unwrap().as_str().unwrap();
    assert!(c_src.contains("int main"), "emitted C: {c_src}");

    let v = c.roundtrip(r#"{"id": "k", "cmd": "check", "src": "int main() { return 0; }"}"#);
    assert_eq!(code(&v), 0);

    // Compile-class failure → code 4, not a dropped connection.
    let v = c.roundtrip(r#"{"id": "bad", "cmd": "check", "src": "int main( {"}"#);
    assert_eq!(code(&v), 4, "{v:?}");
    assert_eq!(v.get("retryable").unwrap().as_bool(), Some(false));

    // Unknown extension is the client's mistake → bad_request.
    let v = c.roundtrip(
        r#"{"id": "ux", "cmd": "check", "src": "int main() { return 0; }", "ext": ["ext-nope"]}"#,
    );
    assert_eq!(code(&v), 2, "{v:?}");

    // Fuel bomb → limit, the daemon answers and survives.
    let v = c.roundtrip(
        r#"{"id": "fb", "cmd": "run", "src": "int main() { int n = 0; while (1 > 0) { n = n + 1; } return 0; }", "fuel": 10000}"#,
    );
    assert_eq!(code(&v), 5, "{v:?}");

    let v = c.roundtrip(r#"{"id": "s", "cmd": "stats"}"#);
    assert_eq!(code(&v), 0);
    let stats = v.get("stats").expect("stats payload");
    assert_eq!(
        stats.get("schema").unwrap().as_str(),
        Some(crate::STATS_SCHEMA)
    );
    assert!(stats.get("requests").unwrap().as_u64().unwrap() >= 7);
    assert_eq!(stats.get("codes").unwrap().get("limit").unwrap().as_u64(), Some(1));

    let report = handle.shutdown();
    assert!(report.clean, "drain should be clean with no work in flight");
    assert_eq!(report.stats.codes[4], 1, "one compile error");
    assert_eq!(report.stats.codes[2], 1, "one bad request");
}

/// `INT_MIN / -1` is the tenant's program error (code 1, like division by
/// zero), not a panic of the session (code 7, a compiler-bug report), and
/// the daemon goes on answering.
#[test]
fn int_division_overflow_is_a_runtime_error_not_a_panic() {
    let handle = start(ServeConfig::default()).expect("start");
    let mut c = Client::connect(handle.local_addr());
    for op in ["/", "%"] {
        let v = c.roundtrip(&format!(
            r#"{{"id": "o", "cmd": "run", "src": "int main() {{ int a = 0 - 2147483647 - 1; int b = 0 - 1; printInt(a {op} b); return 0; }}"}}"#
        ));
        assert_eq!(code(&v), 1, "a {op} b: {v:?}");
        assert_eq!(v.get("status").unwrap().as_str(), Some("runtime"));
        let error = v.get("error").unwrap().as_str().unwrap();
        assert!(error.contains("integer division overflow"), "{error}");
    }
    let v = c.roundtrip(
        r#"{"id": "after", "cmd": "run", "src": "int main() { printInt(6 * 7); return 0; }"}"#,
    );
    assert_eq!(code(&v), 0, "{v:?}");
    assert_eq!(v.get("output").unwrap().as_str(), Some("42\n"));
    let report = handle.shutdown();
    assert!(report.clean);
    assert_eq!(report.stats.codes[RespCode::Runtime as usize], 2);
    assert_eq!(report.stats.codes[RespCode::Panic as usize], 0);
}

#[test]
fn malformed_lines_get_bad_request_and_keep_the_connection() {
    let handle = start(ServeConfig::default()).expect("start");
    let mut c = Client::connect(handle.local_addr());

    let v = c.roundtrip(r#"{"id": "m1", "cmd":"#);
    assert_eq!(code(&v), 2);
    let v = c.roundtrip(r#"{"cmd": "ping"}"#);
    assert_eq!(code(&v), 2, "missing id is a bad request");
    // The connection is still usable afterwards.
    let v = c.roundtrip(r#"{"id": "m3", "cmd": "ping"}"#);
    assert_eq!(code(&v), 0);
    handle.shutdown();
}

#[test]
fn oversized_request_line_is_rejected() {
    let cfg = ServeConfig {
        max_request_bytes: 256,
        ..ServeConfig::default()
    };
    let handle = start(cfg).expect("start");
    let mut c = Client::connect(handle.local_addr());
    let huge = format!(
        r#"{{"id": "big", "cmd": "check", "src": "{}"}}"#,
        "x".repeat(1024)
    );
    let v = c.roundtrip(&huge);
    assert_eq!(code(&v), 2, "{v:?}");
    assert!(v.get("error").unwrap().as_str().unwrap().contains("exceeds"));
    handle.shutdown();
}

#[test]
fn admission_cap_sheds_with_retryable_overloaded() {
    // Cap of zero: every data-plane request is shed, deterministically.
    let cfg = ServeConfig {
        max_in_flight: 0,
        ..ServeConfig::default()
    };
    let handle = start(cfg).expect("start");
    let mut c = Client::connect(handle.local_addr());
    let v = c.roundtrip(r#"{"id": "r", "cmd": "run", "src": "int main() { return 0; }"}"#);
    assert_eq!(code(&v), 6, "{v:?}");
    assert_eq!(v.get("retryable").unwrap().as_bool(), Some(true));
    // Control plane still answers under full shed.
    let v = c.roundtrip(r#"{"id": "p", "cmd": "ping"}"#);
    assert_eq!(code(&v), 0);
    let report = handle.shutdown();
    assert_eq!(report.stats.shed(), 1);
}

#[test]
fn queue_deadline_sheds_stale_jobs() {
    // A zero queue deadline means every job is stale by the time a
    // worker picks it up — again deterministic, no timing races.
    let cfg = ServeConfig {
        queue_deadline: Duration::ZERO,
        ..ServeConfig::default()
    };
    let handle = start(cfg).expect("start");
    let mut c = Client::connect(handle.local_addr());
    let v = c.roundtrip(r#"{"id": "r", "cmd": "run", "src": "int main() { return 0; }"}"#);
    assert_eq!(code(&v), 6, "{v:?}");
    assert!(v.get("error").unwrap().as_str().unwrap().contains("queue deadline"));
    let report = handle.shutdown();
    assert_eq!(report.stats.shed(), 1);
    assert_eq!(report.stats.in_flight, 0, "shed jobs must release their slot");
}

#[test]
fn draining_server_sheds_new_requests() {
    let handle = start(ServeConfig::default()).expect("start");
    let addr = handle.local_addr();
    let mut c = Client::connect(addr);
    // Establish the connection's server thread first (otherwise the
    // accept loop might see the drain flag before accepting us at all).
    let v = c.roundtrip(r#"{"id": "p", "cmd": "ping"}"#);
    assert_eq!(code(&v), 0);
    // Flip the drain flag directly (what SIGTERM does via the CLI loop).
    handle.shared.draining.store(true, std::sync::atomic::Ordering::SeqCst);
    let v = c.roundtrip(r#"{"id": "r", "cmd": "run", "src": "int main() { return 0; }"}"#);
    assert_eq!(code(&v), 6);
    assert!(v.get("error").unwrap().as_str().unwrap().contains("draining"));
    let report = handle.shutdown();
    assert!(report.clean);
}

#[test]
fn serves_over_unix_socket_and_cleans_up_the_file() {
    let path = std::env::temp_dir().join(format!(
        "cmm-serve-test-{}.sock",
        std::process::id()
    ));
    let cfg = ServeConfig {
        unix: Some(path.clone()),
        ..ServeConfig::default()
    };
    let handle = start(cfg).expect("start");
    let stream = std::os::unix::net::UnixStream::connect(&path).expect("unix connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writeln!(
        writer,
        r#"{{"id": "u", "cmd": "run", "src": "int main() {{ printInt(7); return 0; }}"}}"#
    )
    .unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let v = json::parse(&line).unwrap();
    assert_eq!(code(&v), 0, "{line}");
    assert_eq!(v.get("output").unwrap().as_str(), Some("7\n"));
    handle.shutdown();
    assert!(!path.exists(), "socket file must be removed on drain");
}

#[test]
fn concurrent_clients_each_get_their_own_answers() {
    let handle = start(ServeConfig::default()).expect("start");
    let addr = handle.local_addr();
    let threads: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                for round in 0..5 {
                    let expect = i * 100 + round;
                    let v = c.roundtrip(&format!(
                        r#"{{"id": "t{i}-{round}", "cmd": "run", "src": "int main() {{ printInt({expect}); return 0; }}"}}"#
                    ));
                    assert_eq!(code(&v), 0, "{v:?}");
                    assert_eq!(
                        v.get("output").unwrap().as_str(),
                        Some(format!("{expect}\n").as_str())
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    let report = handle.shutdown();
    assert!(report.clean);
    assert_eq!(report.stats.ok(), 20);
    assert_eq!(report.stats.connections, 4);
}

#[test]
fn limits_are_capped_server_side() {
    // The request asks for far more fuel than the server allows; the cap
    // must win and the fuel bomb must still die with a limit error.
    let cfg = ServeConfig {
        max_fuel: 5_000,
        ..ServeConfig::default()
    };
    let handle = start(cfg).expect("start");
    let mut c = Client::connect(handle.local_addr());
    let v = c.roundtrip(
        r#"{"id": "greedy", "cmd": "run", "src": "int main() { int n = 0; while (1 > 0) { n = n + 1; } return 0; }", "fuel": 999999999999}"#,
    );
    assert_eq!(code(&v), 5, "{v:?}");
    handle.shutdown();
}

#[test]
fn streaming_chunks_long_output_and_errors_never_stream() {
    // One-byte chunks make the frame count exact: "42\n" → 3 frames.
    let cfg = ServeConfig {
        stream_chunk_bytes: 1,
        ..ServeConfig::default()
    };
    let handle = start(cfg).expect("start");
    let mut c = Client::connect(handle.local_addr());

    c.send(
        r#"{"id": "st", "cmd": "run", "stream": true, "src": "int main() { printInt(42); return 0; }"}"#,
    );
    let header = c.recv();
    assert_eq!(code(&header), 0, "{header:?}");
    assert_eq!(header.get("stream").unwrap().as_bool(), Some(true));
    assert_eq!(header.get("output_bytes").unwrap().as_u64(), Some(3));
    assert_eq!(header.get("chunks").unwrap().as_u64(), Some(3));
    assert!(header.get("output").is_none(), "streamed header carries no inline output");
    assert!(header.get("metrics").is_some(), "metrics ride on the header");

    let mut reassembled = String::new();
    for seq in 0..3u64 {
        let frame = c.recv();
        assert_eq!(frame.get("id").unwrap().as_str(), Some("st"));
        assert_eq!(frame.get("seq").unwrap().as_u64(), Some(seq));
        assert_eq!(frame.get("last").unwrap().as_bool(), Some(seq == 2));
        reassembled.push_str(frame.get("data").unwrap().as_str().unwrap());
    }
    assert_eq!(reassembled, "42\n");

    // Errors answer as a single plain response even when the client
    // asked to stream.
    let v = c.roundtrip(r#"{"id": "se", "cmd": "check", "stream": true, "src": "int main( {"}"#);
    assert_eq!(code(&v), 4, "{v:?}");
    assert!(v.get("stream").is_none());

    // The connection still serves plain requests after a stream.
    let v = c.roundtrip(r#"{"id": "p", "cmd": "ping"}"#);
    assert_eq!(code(&v), 0);

    let v = c.roundtrip(r#"{"id": "s", "cmd": "stats"}"#);
    let stats = v.get("stats").expect("stats payload");
    assert_eq!(stats.get("streamed").unwrap().as_u64(), Some(1));

    let report = handle.shutdown();
    assert!(report.clean);
    assert_eq!(report.stats.streamed, 1);
}

#[test]
fn tenant_quota_sheds_with_retryable_overloaded() {
    // A zero per-tenant quota sheds every data-plane request while the
    // global cap alone would have admitted it — the message names the
    // tenant so clients can tell which cap they hit.
    let cfg = ServeConfig {
        tenant_quota: Some(0),
        ..ServeConfig::default()
    };
    let handle = start(cfg).expect("start");
    let mut c = Client::connect(handle.local_addr());
    let v = c.roundtrip(
        r#"{"id": "r", "cmd": "run", "tenant": "acme", "src": "int main() { return 0; }"}"#,
    );
    assert_eq!(code(&v), 6, "{v:?}");
    assert_eq!(v.get("retryable").unwrap().as_bool(), Some(true));
    let msg = v.get("error").unwrap().as_str().unwrap();
    assert!(msg.contains("tenant 'acme'") && msg.contains("quota"), "{msg}");
    // Control plane is not subject to tenant quotas.
    let v = c.roundtrip(r#"{"id": "p", "cmd": "ping"}"#);
    assert_eq!(code(&v), 0);
    let report = handle.shutdown();
    assert_eq!(report.stats.shed(), 1);
    assert_eq!(report.stats.in_flight, 0, "tenant shed must release the global slot");
}

#[test]
fn ping_and_stats_answer_inline_while_workers_are_saturated() {
    // One worker, and a session that holds it for its full wall-clock
    // deadline. The control plane must keep answering from the event
    // thread — it never queues behind the busy worker.
    let cfg = ServeConfig {
        workers: 1,
        max_fuel: u64::MAX,
        ..ServeConfig::default()
    };
    let handle = start(cfg).expect("start");
    let addr = handle.local_addr();
    let mut bomber = Client::connect(addr);
    bomber.send(
        r#"{"id": "bomb", "cmd": "run", "src": "int main() { int n = 0; while (1 > 0) { n = n + 1; } return 0; }", "deadline_ms": 1500}"#,
    );

    let mut probe = Client::connect(addr);
    // Wait until the bomb is observably in flight…
    let t0 = std::time::Instant::now();
    loop {
        let v = probe.roundtrip(r#"{"id": "s", "cmd": "stats"}"#);
        let in_flight = v
            .get("stats")
            .and_then(|s| s.get("in_flight"))
            .and_then(Json::as_u64)
            .unwrap();
        if in_flight >= 1 {
            break;
        }
        assert!(t0.elapsed() < Duration::from_secs(10), "bomb never became in-flight");
        std::thread::sleep(Duration::from_millis(5));
    }
    // …then ping must answer promptly while the only worker is pinned.
    let t1 = std::time::Instant::now();
    let v = probe.roundtrip(r#"{"id": "p", "cmd": "ping"}"#);
    assert_eq!(code(&v), 0);
    assert!(
        t1.elapsed() < Duration::from_millis(1000),
        "ping took {:?} — it queued behind the busy worker",
        t1.elapsed()
    );

    let v = bomber.recv();
    assert_eq!(code(&v), 5, "deadline kills the bomb with a limit error: {v:?}");
    let report = handle.shutdown();
    assert!(report.clean);
}

#[test]
fn pool_cache_reuses_pools_across_sessions_on_one_connection() {
    let handle = start(ServeConfig::default()).expect("start");
    let mut c = Client::connect(handle.local_addr());

    // First session at the default thread count constructs its pool…
    let v = c.roundtrip(r#"{"id": "a", "cmd": "run", "src": "int main() { printInt(1); return 0; }"}"#);
    assert_eq!(code(&v), 0, "{v:?}");
    let m = v.get("metrics").expect("metrics");
    assert_eq!(m.get("pool_hit").unwrap().as_bool(), Some(false));
    assert!(m.get("pool_construct_ns").unwrap().as_u64().unwrap() > 0);

    // …and the second reuses it from the cache.
    let v = c.roundtrip(r#"{"id": "b", "cmd": "run", "src": "int main() { printInt(2); return 0; }"}"#);
    assert_eq!(code(&v), 0, "{v:?}");
    let m = v.get("metrics").expect("metrics");
    assert_eq!(m.get("pool_hit").unwrap().as_bool(), Some(true), "{v:?}");
    assert_eq!(m.get("pool_construct_ns").unwrap().as_u64(), Some(0));

    let v = c.roundtrip(r#"{"id": "s", "cmd": "stats"}"#);
    let pc = v.get("stats").unwrap().get("pool_cache").expect("pool_cache stats");
    assert!(pc.get("hits").unwrap().as_u64().unwrap() >= 1);
    assert_eq!(pc.get("misses").unwrap().as_u64(), Some(1));
    handle.shutdown();
}

#[test]
fn stats_report_the_composition_cache_after_the_pool_cache() {
    let handle = start(ServeConfig::default()).expect("start");
    let mut c = Client::connect(handle.local_addr());
    // The composition cache is the process's and other tests run servers
    // beside this one, so counts are compared as differences.
    let lookups = |s: &cmm_core::ParserCacheStats| s.hits + s.misses;
    let before = handle.stats().compose_cache;
    for (id, ext) in [("a", r#"["ext-matrix"]"#), ("b", "[]"), ("c", r#"["ext-matrix"]"#)] {
        let v = c.roundtrip(&format!(
            r#"{{"id": "{id}", "cmd": "check", "ext": {ext}, "src": "int main() {{ return 0; }}"}}"#
        ));
        assert_eq!(code(&v), 0, "{v:?}");
    }
    // Answered before a compiler is asked for: no lookup.
    let v = c.roundtrip(r#"{"id": "d", "cmd": "check", "ext": ["ext-nope"], "src": ""}"#);
    assert_eq!(code(&v), 2, "{v:?}");
    let after = handle.stats().compose_cache;
    assert!(lookups(&after) - lookups(&before) >= 3, "{before:?} then {after:?}");
    assert!(after.hits > before.hits, "the repeated set must hit: {before:?} then {after:?}");

    let v = c.roundtrip(r#"{"id": "s", "cmd": "stats"}"#);
    let cc = v.get("stats").unwrap().get("compose_cache").expect("compose_cache stats");
    for key in ["hits", "misses", "evictions", "prebuilt"] {
        assert!(cc.get(key).and_then(Json::as_u64).is_some(), "{key} missing: {v:?}");
    }
    assert!(cc.get("hits").unwrap().as_u64().unwrap() >= after.hits);
    // Readers that take the first "hits" in the line for the pool
    // cache's (the benchmark does) rely on the order.
    let line = handle.stats().to_json().to_line();
    assert!(line.find("\"pool_cache\"").unwrap() < line.find("\"compose_cache\"").unwrap());
    handle.shutdown();
}

#[test]
fn pool_cache_survives_concurrent_mixed_thread_counts() {
    let handle = start(ServeConfig::default()).expect("start");
    let addr = handle.local_addr();
    let threads: Vec<_> = (0..4)
        .map(|i: usize| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                for round in 0..8 {
                    let session_threads = (i + round) % 3 + 1;
                    let expect = i * 100 + round;
                    let v = c.roundtrip(&format!(
                        r#"{{"id": "m{i}-{round}", "cmd": "run", "threads": {session_threads}, "src": "int main() {{ printInt({expect}); return 0; }}"}}"#
                    ));
                    assert_eq!(code(&v), 0, "{v:?}");
                    assert_eq!(
                        v.get("output").unwrap().as_str(),
                        Some(format!("{expect}\n").as_str())
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    let report = handle.shutdown();
    assert_eq!(report.stats.ok(), 32);
    let pc = report.stats.pool_cache;
    assert_eq!(pc.hits + pc.misses, 32, "every session checks the cache: {pc:?}");
    assert!(pc.hits >= 1, "sequential same-key sessions must hit: {pc:?}");
    assert!(
        pc.cached <= ServeConfig::default().max_cached_pools,
        "cache respects its capacity: {pc:?}"
    );
}

#[test]
fn signal_flag_roundtrip() {
    crate::signal::set_termination_requested(false);
    assert!(!crate::signal::termination_requested());
    crate::signal::install();
    crate::signal::set_termination_requested(true);
    assert!(crate::signal::termination_requested());
    crate::signal::set_termination_requested(false);
}
