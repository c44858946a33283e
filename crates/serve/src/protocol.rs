//! The `cmmc serve` wire protocol: newline-delimited JSON requests and
//! responses.
//!
//! One request per line, one response per line, in order, per
//! connection. Response `code` values mirror the `cmmc` CLI exit codes so
//! a client that already understands the CLI can reuse its handling:
//!
//! | code | status        | meaning                                   | retryable |
//! |------|---------------|-------------------------------------------|-----------|
//! | 0    | `ok`          | request succeeded                         | —         |
//! | 1    | `runtime`     | program failed at runtime                 | no        |
//! | 2    | `bad_request` | malformed request / unknown extension     | no        |
//! | 3    | `io`          | server-side I/O failure                   | no        |
//! | 4    | `compile`     | composition/parse/type/lowering error     | no        |
//! | 5    | `limit`       | fuel/memory/deadline budget exceeded      | no        |
//! | 6    | `overloaded`  | admission control shed the request        | **yes**   |
//! | 7    | `panic`       | a worker panicked; session was isolated   | no        |
//!
//! Only `overloaded` is retryable: every other class is deterministic for
//! the same request, so clients should back off and retry *only* on 6.
//! `overloaded` covers the drain flag, the global in-flight cap, the
//! per-tenant quota, and the queue deadline — all transient, all safe to
//! retry with backoff.
//!
//! Two optional request fields extend the v1 protocol additively:
//!
//! * `"tenant"` — a tenant id string used for per-tenant admission
//!   quotas and fair scheduling. Absent means the shared `"default"`
//!   bucket.
//! * `"stream": true` — ask for chunked response streaming. Instead of
//!   one line embedding the whole `output`, the server sends a *header*
//!   line (the normal response object with `"stream": true`,
//!   `"output_bytes"` and `"chunks"` but no `"output"`), then `chunks`
//!   *data frames* `{"id", "seq", "data", "last"}` in order, `seq`
//!   counting from 0 and `last: true` on the final frame. Error
//!   responses never stream; a `"stream": true` request that fails gets
//!   the ordinary single-line error.

use std::time::Duration;

use cmm_core::CompileError;
use cmm_forkjoin::Schedule;

use crate::json::{self, Json};
use crate::ServeStats;

/// Typed response code. The numeric value is the wire `code` and mirrors
/// the CLI exit code of the same failure class (6 and 7 have no CLI
/// equivalent: the CLI cannot be overloaded, and reports worker panics as
/// runtime failures).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RespCode {
    /// Request succeeded.
    Ok = 0,
    /// Program failed at runtime (CLI exit 1).
    Runtime = 1,
    /// Malformed request, unknown command, or unknown extension (CLI
    /// usage exit 2).
    BadRequest = 2,
    /// Server-side I/O failure (CLI exit 3).
    Io = 3,
    /// Compile-class failure: composition, parse, type, lowering,
    /// emission (CLI exit 4).
    Compile = 4,
    /// A resource budget (fuel, memory, deadline) was exceeded (CLI
    /// exit 5).
    Limit = 5,
    /// Admission control shed the request; retry with backoff.
    Overloaded = 6,
    /// A fork-join worker panicked executing this session's program. The
    /// daemon and all other sessions are unaffected.
    Panic = 7,
}

impl RespCode {
    /// Stable lowercase status string for the wire `status` field.
    pub fn status(self) -> &'static str {
        match self {
            RespCode::Ok => "ok",
            RespCode::Runtime => "runtime",
            RespCode::BadRequest => "bad_request",
            RespCode::Io => "io",
            RespCode::Compile => "compile",
            RespCode::Limit => "limit",
            RespCode::Overloaded => "overloaded",
            RespCode::Panic => "panic",
        }
    }

    /// Whether a client should retry this request. Only admission-control
    /// shedding is transient; everything else is deterministic.
    pub fn retryable(self) -> bool {
        matches!(self, RespCode::Overloaded)
    }
}

/// Map a pipeline failure onto its wire code.
pub fn classify(err: &CompileError) -> RespCode {
    match err {
        CompileError::Runtime(_) => RespCode::Runtime,
        CompileError::Limit { .. } => RespCode::Limit,
        CompileError::Panic(_) => RespCode::Panic,
        CompileError::UnknownExtension(_) => RespCode::BadRequest,
        CompileError::Composition(_)
        | CompileError::Compose(_)
        | CompileError::Parse(_)
        | CompileError::Build(_)
        | CompileError::Type(_)
        | CompileError::Lower(_)
        | CompileError::Emit(_)
        | CompileError::VmLimit(_) => RespCode::Compile,
    }
}

/// What a request asks the daemon to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmd {
    /// Compile and execute `src`; respond with the program's output.
    Run,
    /// Compile `src` to parallel C; respond with the emitted source.
    Compile,
    /// Compile `src` to IR, discard it; respond ok/compile-error.
    Check,
    /// Liveness probe; responds `ok` immediately, bypassing admission.
    Ping,
    /// Daemon statistics snapshot (see [`crate::ServeStats`]).
    Stats,
}

/// A parsed protocol request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: String,
    /// Requested operation.
    pub cmd: Cmd,
    /// Program source (required for run/compile/check).
    pub src: String,
    /// Extension set to compose (defaults to all standard extensions).
    pub ext: Option<Vec<String>>,
    /// Pool threads for `run` (clamped to the server's per-session cap).
    pub threads: Option<usize>,
    /// Interpreter fuel budget.
    pub fuel: Option<u64>,
    /// Matrix-memory budget in bytes.
    pub max_mem: Option<u64>,
    /// Per-request deadline in milliseconds (clamped to the server cap).
    pub deadline: Option<Duration>,
    /// Default loop schedule for `run` (same syntax as `cmmc --schedule`).
    pub schedule: Option<Schedule>,
    /// Tenant id for per-tenant quotas and fair scheduling (`"default"`
    /// when the request names none).
    pub tenant: String,
    /// Whether the client asked for chunked response streaming.
    pub stream: bool,
}

/// Tenant bucket used when a request carries no `tenant` field.
pub const DEFAULT_TENANT: &str = "default";

impl Request {
    /// Parse one request line. Errors are client-facing `bad_request`
    /// messages; when the id could be recovered it is returned alongside
    /// so the response still correlates.
    pub fn parse(line: &str) -> Result<Request, (Option<String>, String)> {
        let v = json::parse(line).map_err(|e| (None, format!("invalid JSON: {e}")))?;
        let id = match v.get("id") {
            Some(Json::Str(s)) => s.clone(),
            // Integral ids echo exactly and without a trailing ".0" (an
            // `f64` prints that way too).
            Some(n @ Json::Num(_)) => match n.as_u64() {
                Some(n) => n.to_string(),
                None => n.as_f64().expect("a number").to_string(),
            },
            Some(_) => return Err((None, "field 'id' must be a string or number".into())),
            None => return Err((None, "missing required field 'id'".into())),
        };
        let fail = |msg: String| (Some(id.clone()), msg);

        let cmd = match v.get("cmd").and_then(Json::as_str) {
            Some("run") => Cmd::Run,
            Some("compile") => Cmd::Compile,
            Some("check") => Cmd::Check,
            Some("ping") => Cmd::Ping,
            Some("stats") => Cmd::Stats,
            Some(other) => {
                return Err(fail(format!(
                    "unknown cmd '{other}' (expected run|compile|check|ping|stats)"
                )))
            }
            None => return Err(fail("missing required field 'cmd' (string)".into())),
        };

        let src = match v.get("src") {
            Some(Json::Str(s)) => s.clone(),
            Some(_) => return Err(fail("field 'src' must be a string".into())),
            None if matches!(cmd, Cmd::Run | Cmd::Compile | Cmd::Check) => {
                return Err(fail(format!(
                    "cmd '{}' requires field 'src'",
                    v.get("cmd").and_then(Json::as_str).unwrap_or("?")
                )))
            }
            None => String::new(),
        };

        let ext = match v.get("ext") {
            None | Some(Json::Null) => None,
            Some(Json::Arr(items)) => {
                let mut names = Vec::with_capacity(items.len());
                for item in items {
                    match item.as_str() {
                        Some(s) => names.push(s.to_string()),
                        None => return Err(fail("field 'ext' must be an array of strings".into())),
                    }
                }
                Some(names)
            }
            Some(_) => return Err(fail("field 'ext' must be an array of strings".into())),
        };

        let uint = |key: &str| -> Result<Option<u64>, (Option<String>, String)> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(j) => j.as_u64().map(Some).ok_or_else(|| {
                    (Some(id.clone()), format!("field '{key}' must be a non-negative integer"))
                }),
            }
        };
        let threads = uint("threads")?.map(|t| t as usize);
        let fuel = uint("fuel")?;
        let max_mem = uint("max_mem")?;
        let deadline = uint("deadline_ms")?.map(Duration::from_millis);

        let schedule = match v.get("schedule") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) => Some(
                s.parse::<Schedule>()
                    .map_err(|e| (Some(id.clone()), format!("bad schedule: {e}")))?,
            ),
            Some(_) => return Err(fail("field 'schedule' must be a string".into())),
        };

        let tenant = match v.get("tenant") {
            None | Some(Json::Null) => DEFAULT_TENANT.to_string(),
            Some(Json::Str(s)) if s.is_empty() => DEFAULT_TENANT.to_string(),
            Some(Json::Str(s)) => s.clone(),
            Some(_) => return Err(fail("field 'tenant' must be a string".into())),
        };

        let stream = match v.get("stream") {
            None | Some(Json::Null) => false,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err(fail("field 'stream' must be a boolean".into())),
        };

        Ok(Request {
            id,
            cmd,
            src,
            ext,
            threads,
            fuel,
            max_mem,
            deadline,
            schedule,
            tenant,
            stream,
        })
    }
}

/// Per-request execution metrics included in run/compile responses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RespMetrics {
    /// Wall time spent executing the request (after dequeue).
    pub elapsed_ms: u64,
    /// Time the request waited in the admission queue.
    pub queue_ms: u64,
    /// Pool threads the session actually ran with.
    pub threads: usize,
    /// True when the session got fewer pool threads than it asked for
    /// (worker spawn failed; the run completed on the surviving threads).
    pub degraded: bool,
    /// Matrix buffers the program allocated (run only).
    pub allocations: u32,
    /// Buffers still live at program exit (run only; 0 = clean).
    pub leaked: u32,
    /// True when the session's pool came from the persistent pool cache
    /// (run only; a hit skips pool construction entirely).
    pub pool_hit: bool,
    /// Nanoseconds spent constructing this session's pool (0 on a cache
    /// hit).
    pub pool_construct_ns: u64,
}

/// A protocol response, serialized with [`Response::to_line`].
#[derive(Debug, Clone)]
pub struct Response {
    /// Correlation id echoed from the request ("?" when unrecoverable).
    pub id: String,
    /// Response class.
    pub code: RespCode,
    /// Program output (run) or emitted C (compile) on success.
    pub output: Option<String>,
    /// Human-readable diagnostic on failure.
    pub error: Option<String>,
    /// Execution metrics for run/compile/check responses.
    pub metrics: Option<RespMetrics>,
    /// The snapshot a `stats` response carries (boxed: every other
    /// response travels without one).
    pub stats: Option<Box<ServeStats>>,
}

impl Response {
    /// A success response carrying `output`.
    pub fn ok(id: &str, output: Option<String>, metrics: Option<RespMetrics>) -> Response {
        Response {
            id: id.to_string(),
            code: RespCode::Ok,
            output,
            error: None,
            metrics,
            stats: None,
        }
    }

    /// A failure response of class `code` carrying a diagnostic.
    pub fn err(id: &str, code: RespCode, message: impl Into<String>) -> Response {
        Response {
            id: id.to_string(),
            code,
            output: None,
            error: Some(message.into()),
            metrics: None,
            stats: None,
        }
    }

    /// Serialize as one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json(None).to_line()
    }

    /// Serialize as a streaming *header* line: the normal response
    /// object with `"stream": true`, the total `output_bytes` and the
    /// `chunks` count — but without the `output` itself, which follows
    /// as data frames (see [`Response::stream_frame`]).
    pub fn to_stream_header(&self, output_bytes: usize, chunks: usize) -> String {
        self.to_json(Some((output_bytes, chunks))).to_line()
    }

    /// Serialize one streaming *data frame* (no trailing newline):
    /// `{"id", "seq", "data", "last"}`. Frames carry consecutive `seq`
    /// values from 0; `last: true` marks the final frame of the
    /// response.
    pub fn stream_frame(id: &str, seq: usize, data: &str, last: bool) -> String {
        Json::obj([
            ("id", id.into()),
            ("seq", seq.into()),
            ("data", data.into()),
            ("last", last.into()),
        ])
        .to_line()
    }

    /// The response object; `stream` is a header's `(output_bytes,
    /// chunks)`, which stand in for the `output`.
    fn to_json(&self, stream: Option<(usize, usize)>) -> Json {
        // Five members always, at most four more (a streamed header).
        let mut members = Vec::with_capacity(9);
        members.extend([
            ("id".into(), self.id.as_str().into()),
            ("ok".into(), (self.code == RespCode::Ok).into()),
            ("code".into(), (self.code as u8).into()),
            ("status".into(), self.code.status().into()),
            ("retryable".into(), self.code.retryable().into()),
        ]);
        match stream {
            Some((output_bytes, chunks)) => members.extend([
                ("stream".into(), true.into()),
                ("output_bytes".into(), output_bytes.into()),
                ("chunks".into(), chunks.into()),
            ]),
            None => members.extend(self.output.as_deref().map(|o| ("output".into(), o.into()))),
        }
        members.extend(self.error.as_deref().map(|e| ("error".into(), e.into())));
        if let Some(m) = &self.metrics {
            let metrics = Json::obj([
                ("elapsed_ms", m.elapsed_ms.into()),
                ("queue_ms", m.queue_ms.into()),
                ("threads", m.threads.into()),
                ("degraded", m.degraded.into()),
                ("allocations", m.allocations.into()),
                ("leaked", m.leaked.into()),
                ("pool_hit", m.pool_hit.into()),
                ("pool_construct_ns", m.pool_construct_ns.into()),
            ]);
            members.push(("metrics".into(), metrics));
        }
        members.extend(self.stats.as_ref().map(|s| ("stats".into(), s.to_json())));
        Json::Obj(members)
    }
}
