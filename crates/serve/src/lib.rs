//! `cmmc serve`: a crash-isolated, multi-tenant compile-and-execute
//! daemon for the cmm toolchain.
//!
//! The daemon listens on TCP (and optionally a unix socket) for
//! newline-delimited JSON requests (see [`protocol`]), compiles and runs
//! programs for many concurrent clients, and holds four properties that
//! a batch CLI never has to think about:
//!
//! * **Connection multiplexing.** All connections — TCP and unix — are
//!   served by one readiness-polling event thread (see [`poll`] and the
//!   internal event loop): an idle connection costs a file descriptor
//!   and a few hundred bytes of buffer, not an OS thread. Only the
//!   bounded worker pool runs sessions, so the daemon's thread count is
//!   O(workers), not O(connections). `ping` and `stats` are answered
//!   inline on the event thread and never touch the workers.
//! * **Session isolation.** Every request executes on a bounded worker
//!   pool under `catch_unwind`, with its own [`ForkJoinPool`] and its
//!   own [`Limits`]. A hostile program — fuel bomb, allocation bomb,
//!   worker panic — costs exactly one typed error response to its own
//!   client; the daemon and every other tenant keep running. Session
//!   pools come from a persistent [`PoolCache`]: healthy pools are
//!   recycled across sessions (skipping per-session pool construction),
//!   while degraded or panic-tainted pools are dropped, never reused.
//! * **Admission control.** A global max-in-flight cap plus per-tenant
//!   quotas bound admitted requests, jobs that wait in the queue past a
//!   deadline are shed, and dispatch is FIFO per tenant with round-robin
//!   across tenants (see [`sched`]). Every shed path answers with the
//!   distinct retryable `overloaded` code instead of silently queueing
//!   forever.
//! * **Graceful drain.** On SIGTERM/ctrl-c (see [`signal`]) or
//!   [`ServerHandle::shutdown`], listeners stop accepting, in-flight
//!   sessions run to completion under a drain deadline, and the final
//!   statistics snapshot is reported.
//!
//! The request deadline propagates into the interpreter's wall-clock
//! budget: `deadline = min(request deadline_ms, server cap)`, measured
//! from execution start (queue wait is reported separately in
//! `metrics.queue_ms`). Fuel and matrix-memory budgets are likewise
//! capped server-side, so no request can exceed the operator's ceiling
//! by simply not asking for a limit.
//!
//! Long outputs can be streamed: a request with `"stream": true` gets a
//! header line plus bounded data frames instead of one giant response
//! line, so the per-connection write buffer stays O(chunk) (see
//! [`protocol`] for the framing).

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use cmm_core::{CompileError, Json, ParserCacheStats, Registry};
use cmm_forkjoin::faultinject::FaultPlan;
use cmm_loopir::Limits;

mod event;
pub mod json;
pub mod poll;
pub mod poolcache;
pub mod protocol;
pub mod sched;
pub mod signal;

pub use poolcache::{PoolCache, PoolCacheStats};
pub use protocol::{classify, Cmd, Request, RespCode, RespMetrics, Response};

use sched::{TenantGate, TenantScheduler};

#[cfg(test)]
mod tests;

/// Stats JSON schema tag emitted by [`ServeStats::to_json`]. The event
/// loop, pool cache and tenant fields extend v1 additively, so the tag
/// is unchanged: every v1 field is still present with v1 semantics.
pub const STATS_SCHEMA: &str = "cmm-serve-stats-v1";

/// Daemon configuration. [`ServeConfig::default`] is sized for a small
/// shared box: 4 workers, 16 admitted requests, 2 s queue deadline,
/// 10 s hard per-request deadline, 5 s drain window.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP listen address, e.g. `127.0.0.1:7878` (port 0 picks a free
    /// port; see [`ServerHandle::local_addr`]).
    pub tcp: String,
    /// Optional unix-socket path to listen on as well (stale socket
    /// files are removed on bind; the file is removed again on drain).
    pub unix: Option<PathBuf>,
    /// Session worker threads: the bound on concurrently *executing*
    /// requests.
    pub workers: usize,
    /// Admission cap: queued + executing requests above this are shed
    /// immediately with `overloaded`.
    pub max_in_flight: usize,
    /// Per-tenant in-flight quota, checked after the global cap. `None`
    /// falls back to `max_in_flight` — i.e. no extra restriction beyond
    /// the global cap, preserving pre-tenant behavior.
    pub tenant_quota: Option<usize>,
    /// Jobs that wait in the queue longer than this are shed with
    /// `overloaded` instead of running late.
    pub queue_deadline: Duration,
    /// How long [`ServerHandle::shutdown`] waits for in-flight sessions
    /// before giving up on a clean drain.
    pub drain_deadline: Duration,
    /// Hard cap on the per-request interpreter deadline; requests asking
    /// for more (or for nothing) get this.
    pub max_deadline: Duration,
    /// Hard cap on per-request interpreter fuel.
    pub max_fuel: u64,
    /// Hard cap on per-request live matrix bytes.
    pub max_matrix_bytes: u64,
    /// Fork-join threads per session when the request doesn't choose.
    pub session_threads: usize,
    /// Cap on per-session fork-join threads (requests are clamped).
    pub max_session_threads: usize,
    /// Maximum accepted request-line length in bytes; longer lines are
    /// rejected and the connection closed (framing is lost).
    pub max_request_bytes: usize,
    /// Cap on idle session pools kept in the [`PoolCache`] across all
    /// thread counts.
    pub max_cached_pools: usize,
    /// Data-frame payload size for streamed responses, in bytes (frames
    /// snap to UTF-8 character boundaries).
    pub stream_chunk_bytes: usize,
    /// Faults injected into every session pool the daemon builds: the
    /// [`PoolCache`] gives each its own copy through
    /// `ForkJoinPool::with_fault_plan`. Empty by default; only tests set
    /// it — no flag, request field or environment variable does.
    pub fault_plan: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            tcp: "127.0.0.1:0".to_string(),
            unix: None,
            workers: 4,
            max_in_flight: 16,
            tenant_quota: None,
            queue_deadline: Duration::from_secs(2),
            drain_deadline: Duration::from_secs(5),
            max_deadline: Duration::from_secs(10),
            max_fuel: 50_000_000,
            max_matrix_bytes: 256 << 20,
            session_threads: 2,
            max_session_threads: 8,
            max_request_bytes: 1 << 20,
            max_cached_pools: 8,
            stream_chunk_bytes: 64 << 10,
            fault_plan: FaultPlan::new(),
        }
    }
}

impl ServeConfig {
    /// The per-tenant quota actually enforced (`tenant_quota` or the
    /// global cap when unset).
    pub fn effective_tenant_quota(&self) -> usize {
        self.tenant_quota.unwrap_or(self.max_in_flight)
    }
}

/// Point-in-time daemon statistics (see [`ServerHandle::stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections accepted (TCP + unix).
    pub connections: u64,
    /// Request lines received (including malformed ones).
    pub requests: u64,
    /// Requests currently admitted (queued + executing).
    pub in_flight: usize,
    /// Whether the daemon is draining.
    pub draining: bool,
    /// Responses sent, indexed by wire code 0..=7.
    pub codes: [u64; 8],
    /// Sessions that ran with fewer pool threads than requested because
    /// worker spawn failed (the run still completed).
    pub degraded_sessions: u64,
    /// Threads the daemon itself runs: the event thread plus the session
    /// workers. Independent of how many connections are open.
    pub server_threads: usize,
    /// Connections currently open (gauge).
    pub open_connections: usize,
    /// Responses delivered as chunked streams.
    pub streamed: u64,
    /// Tenants with at least one request in flight (gauge).
    pub active_tenants: usize,
    /// Session pool cache counters.
    pub pool_cache: PoolCacheStats,
    /// Composition cache counters ([`Registry::compiler`]): a miss is a
    /// set of extensions verified and composed for the first time, a hit
    /// a request that found its compiler already decided. The cache is
    /// the process's, so these are process-lifetime totals.
    pub compose_cache: ParserCacheStats,
}

impl ServeStats {
    /// Successful responses.
    pub fn ok(&self) -> u64 {
        self.codes[RespCode::Ok as usize]
    }

    /// Requests shed by admission control (cap, tenant quota, or queue
    /// deadline).
    pub fn shed(&self) -> u64 {
        self.codes[RespCode::Overloaded as usize]
    }

    /// Sessions that panicked and were isolated (the `panic` responses).
    pub fn panics_isolated(&self) -> u64 {
        self.codes[RespCode::Panic as usize]
    }

    /// The snapshot as a [`STATS_SCHEMA`] document (the `stats` command
    /// payload and what `cmmc serve` prints, as one line, after draining).
    pub fn to_json(&self) -> Json {
        let codes = [
            RespCode::Ok,
            RespCode::Runtime,
            RespCode::BadRequest,
            RespCode::Io,
            RespCode::Compile,
            RespCode::Limit,
            RespCode::Overloaded,
            RespCode::Panic,
        ];
        Json::obj([
            ("schema", STATS_SCHEMA.into()),
            ("connections", self.connections.into()),
            ("requests", self.requests.into()),
            ("in_flight", self.in_flight.into()),
            ("draining", self.draining.into()),
            ("codes", Json::obj(codes.map(|c| (c.status(), self.codes[c as usize].into())))),
            ("shed", self.shed().into()),
            ("panics_isolated", self.panics_isolated().into()),
            ("degraded_sessions", self.degraded_sessions.into()),
            ("server_threads", self.server_threads.into()),
            ("open_connections", self.open_connections.into()),
            ("streamed", self.streamed.into()),
            ("active_tenants", self.active_tenants.into()),
            (
                "pool_cache",
                Json::obj([
                    ("hits", self.pool_cache.hits.into()),
                    ("misses", self.pool_cache.misses.into()),
                    ("evictions", self.pool_cache.evictions.into()),
                    ("cached", self.pool_cache.cached.into()),
                    ("construct_ns", self.pool_cache.construct_nanos.into()),
                ]),
            ),
            ("compose_cache", self.compose_cache.to_json()),
        ])
    }
}

/// Outcome of [`ServerHandle::shutdown`].
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// True when every in-flight session completed within the drain
    /// deadline; false means a session was still running when the
    /// deadline expired (its worker thread is abandoned).
    pub clean: bool,
    /// How long the drain took.
    pub waited: Duration,
    /// Final statistics snapshot.
    pub stats: ServeStats,
}

/// State shared by the event thread and the session workers.
pub(crate) struct Shared {
    pub(crate) cfg: ServeConfig,
    pub(crate) draining: AtomicBool,
    /// Set (after draining) to make the event thread exit.
    pub(crate) stop: AtomicBool,
    /// Admitted requests: queued + executing. Incremented at admission,
    /// decremented when the worker finishes (or sheds) the job.
    pub(crate) in_flight: AtomicUsize,
    pub(crate) connections: AtomicU64,
    pub(crate) open_connections: AtomicUsize,
    pub(crate) requests: AtomicU64,
    pub(crate) codes: [AtomicU64; 8],
    pub(crate) degraded_sessions: AtomicU64,
    pub(crate) streamed: AtomicU64,
    pub(crate) pool_cache: PoolCache,
    /// The one registry every worker composes from.
    registry: Registry,
    pub(crate) gate: TenantGate,
    pub(crate) scheduler: TenantScheduler<Job>,
    /// Write end of the event thread's wake pipe: workers nudge the
    /// poll loop after queueing a completion.
    wake_tx: UnixStream,
}

impl Shared {
    fn new(cfg: ServeConfig, wake_tx: UnixStream) -> Shared {
        let pool_cache = PoolCache::with_fault_plan(cfg.max_cached_pools, cfg.fault_plan.clone());
        Shared {
            cfg,
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            connections: AtomicU64::new(0),
            open_connections: AtomicUsize::new(0),
            requests: AtomicU64::new(0),
            codes: Default::default(),
            degraded_sessions: AtomicU64::new(0),
            streamed: AtomicU64::new(0),
            pool_cache,
            registry: Registry::standard(),
            gate: TenantGate::new(),
            scheduler: TenantScheduler::new(),
            wake_tx,
        }
    }

    pub(crate) fn record(&self, code: RespCode) {
        self.codes[code as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Nudge the event thread out of `poll`. A full pipe buffer means a
    /// wake-up is already pending, so EAGAIN is success.
    pub(crate) fn wake(&self) {
        use std::io::Write;
        let _ = (&self.wake_tx).write(&[1]);
    }

    pub(crate) fn snapshot(&self) -> ServeStats {
        let mut codes = [0u64; 8];
        for (dst, src) in codes.iter_mut().zip(self.codes.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        ServeStats {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::SeqCst),
            draining: self.draining.load(Ordering::SeqCst),
            codes,
            degraded_sessions: self.degraded_sessions.load(Ordering::Relaxed),
            server_threads: self.cfg.workers.max(1) + 1,
            open_connections: self.open_connections.load(Ordering::Relaxed),
            streamed: self.streamed.load(Ordering::Relaxed),
            active_tenants: self.gate.active_tenants(),
            pool_cache: self.pool_cache.stats(),
            compose_cache: self.registry.parser_cache_stats(),
        }
    }
}

/// One admitted request travelling from the event thread to a worker.
pub(crate) struct Job {
    pub(crate) req: Request,
    pub(crate) enqueued: Instant,
    /// Connection token (slot index + generation) for response routing.
    pub(crate) token: u64,
}

/// A finished request travelling from a worker back to the event thread.
pub(crate) struct Completion {
    pub(crate) token: u64,
    /// Whether the request asked for chunked streaming.
    pub(crate) stream: bool,
    pub(crate) resp: Response,
}

/// A running daemon. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::shutdown`] (or let the process exit).
pub struct ServerHandle {
    pub(crate) shared: Arc<Shared>,
    local_addr: SocketAddr,
    unix_path: Option<PathBuf>,
    event: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound TCP address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> ServeStats {
        self.shared.snapshot()
    }

    /// Stop accepting, drain in-flight sessions under the drain
    /// deadline, stop the workers, stop the event thread, and report.
    pub fn shutdown(mut self) -> DrainReport {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.wake();
        let t0 = Instant::now();
        let mut clean = true;
        while self.shared.in_flight.load(Ordering::SeqCst) > 0 {
            if t0.elapsed() > self.shared.cfg.drain_deadline {
                clean = false;
                break;
            }
            thread::sleep(Duration::from_millis(2));
        }
        self.shared.scheduler.stop();
        if clean {
            // Every worker is idle (in_flight hit 0), so each exits once
            // the scheduler reports stopped; a dirty drain may have a
            // wedged worker, which we abandon rather than hang the
            // shutdown.
            for h in self.workers.drain(..) {
                let _ = h.join();
            }
        }
        // Workers are done (or abandoned): every completion they will
        // ever send is queued. Tell the event thread to flush and exit.
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.wake();
        if let Some(h) = self.event.take() {
            let _ = h.join();
        }
        self.shared.pool_cache.clear();
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        DrainReport {
            clean,
            waited: t0.elapsed(),
            stats: self.shared.snapshot(),
        }
    }
}

/// Bind the listeners, start the worker pool and the event thread, and
/// return the handle.
pub fn start(cfg: ServeConfig) -> io::Result<ServerHandle> {
    let tcp = TcpListener::bind(&cfg.tcp)?;
    let local_addr = tcp.local_addr()?;
    let unix = match &cfg.unix {
        Some(path) => {
            // A stale socket file from a previous run blocks bind.
            let _ = std::fs::remove_file(path);
            Some(UnixListener::bind(path)?)
        }
        None => None,
    };
    let unix_path = cfg.unix.clone();
    // Dependency-free self-pipe: workers write a byte to wake the event
    // thread out of poll(2) when a completion is ready.
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    let shared = Arc::new(Shared::new(cfg, wake_tx));

    let (completions_tx, completions_rx) = mpsc::channel::<Completion>();
    let workers: Vec<JoinHandle<()>> = (0..shared.cfg.workers.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            let tx = completions_tx.clone();
            thread::Builder::new()
                .name(format!("cmm-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared, &tx))
                .expect("spawn serve worker")
        })
        .collect();
    drop(completions_tx);

    let event = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("cmm-serve-event".to_string())
            .spawn(move || event::event_loop(shared, tcp, unix, wake_rx, completions_rx))
            .expect("spawn serve event loop")
    };

    Ok(ServerHandle {
        shared,
        local_addr,
        unix_path,
        event: Some(event),
        workers,
    })
}

/// Session worker: pull jobs in tenant-fair order, shed stale ones,
/// execute the rest inside `catch_unwind`, and hand the response back to
/// the event thread. Every worker composes from the daemon's one
/// registry, whose cache entry for an extension set holds the parser and
/// the `isComposable` verdict: the first request for a set verifies and
/// composes it (other workers' lookups wait for that one build), every
/// later request pays a lookup.
fn worker_loop(shared: &Arc<Shared>, completions: &Sender<Completion>) {
    while let Some(job) = shared.scheduler.pop() {
        let queued = job.enqueued.elapsed();
        let resp = if queued > shared.cfg.queue_deadline {
            Response::err(
                &job.req.id,
                RespCode::Overloaded,
                format!(
                    "shed after {}ms in queue (queue deadline {}ms); retry with backoff",
                    queued.as_millis(),
                    shared.cfg.queue_deadline.as_millis()
                ),
            )
        } else {
            execute(shared, &job.req, queued)
        };
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        shared.gate.release(&job.req.tenant);
        // A vanished client (closed connection) is not a worker error;
        // the event thread still records the response code.
        let _ = completions.send(Completion {
            token: job.token,
            stream: job.req.stream,
            resp,
        });
        shared.wake();
    }
}

/// Run one admitted request with last-ditch panic isolation. The normal
/// worker-panic path is already typed ([`CompileError::Panic`] via the
/// pool's `try_run`); this `catch_unwind` additionally contains panics
/// from the compiler itself or interpreter bugs, so no tenant program
/// can take the worker thread down. An unwind also drops the session's
/// pool before it can reach the cache checkin, so a panicked pool is
/// never recycled.
fn execute(shared: &Arc<Shared>, req: &Request, queued: Duration) -> Response {
    let start = Instant::now();
    let mut resp = match catch_unwind(AssertUnwindSafe(|| run_request(shared, req))) {
        Ok(resp) => resp,
        Err(payload) => Response::err(
            &req.id,
            RespCode::Panic,
            format!(
                "session panicked: {}; session isolated, daemon unaffected",
                panic_message(payload.as_ref())
            ),
        ),
    };
    let m = resp.metrics.get_or_insert_with(RespMetrics::default);
    m.elapsed_ms = start.elapsed().as_millis() as u64;
    m.queue_ms = queued.as_millis() as u64;
    resp
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

fn run_request(shared: &Arc<Shared>, req: &Request) -> Response {
    let cfg = &shared.cfg;
    let enabled: Vec<&str> = match &req.ext {
        Some(names) => names.iter().map(String::as_str).collect(),
        None => cmm_core::ALL_EXTENSIONS.to_vec(),
    };
    let compiler = match shared.registry.compiler(&enabled) {
        Ok(c) => c,
        Err(e) => return compile_error_response(&req.id, &e),
    };

    // Server-side ceilings: a request may tighten any budget but never
    // loosen past the operator's cap, and every budget is always set.
    let limits = Limits {
        fuel: Some(req.fuel.unwrap_or(cfg.max_fuel).min(cfg.max_fuel)),
        max_matrix_bytes: Some(
            req.max_mem
                .unwrap_or(cfg.max_matrix_bytes)
                .min(cfg.max_matrix_bytes),
        ),
        max_live_buffers: None,
        deadline: Some(req.deadline.unwrap_or(cfg.max_deadline).min(cfg.max_deadline)),
    };

    match req.cmd {
        Cmd::Check => match compiler.compile(&req.src) {
            Ok(_) => Response::ok(&req.id, None, None),
            Err(e) => compile_error_response(&req.id, &e),
        },
        Cmd::Compile => match compiler.compile_to_c(&req.src) {
            Ok(c) => Response::ok(&req.id, Some(c), None),
            Err(e) => compile_error_response(&req.id, &e),
        },
        Cmd::Run => {
            let requested = req
                .threads
                .unwrap_or(cfg.session_threads)
                .clamp(1, cfg.max_session_threads.max(1));
            // Checkout from the persistent cache: a hit skips pool
            // construction entirely (the former per-session hot-path
            // cost); a miss constructs and reports the nanos it took.
            let (pool, pool_hit, pool_construct_ns) = shared.pool_cache.checkout(requested);
            // Spawn refusal degrades to fewer threads (possibly fully
            // sequential); the run proceeds and the shortfall is
            // surfaced per-request and in the daemon stats.
            let degraded = pool.threads() < requested;
            if degraded {
                shared.degraded_sessions.fetch_add(1, Ordering::Relaxed);
            }
            let mut metrics = RespMetrics {
                threads: pool.threads(),
                degraded,
                pool_hit,
                pool_construct_ns,
                ..RespMetrics::default()
            };
            let schedule = req.schedule.unwrap_or_default();
            let result = compiler.run_on_pool(&req.src, Arc::clone(&pool), limits, schedule);
            // Offer the pool back; the cache's health gate drops it if
            // this session degraded, panicked, or stalled it.
            shared.pool_cache.checkin(requested, pool);
            match result {
                Ok(result) => {
                    metrics.allocations = result.allocations;
                    metrics.leaked = result.leaked;
                    Response::ok(&req.id, Some(result.output), Some(metrics))
                }
                Err(e) => {
                    let mut resp = compile_error_response(&req.id, &e);
                    resp.metrics = Some(metrics);
                    resp
                }
            }
        }
        Cmd::Ping | Cmd::Stats => unreachable!("handled inline on the event thread"),
    }
}

fn compile_error_response(id: &str, e: &CompileError) -> Response {
    Response::err(id, classify(e), e.to_string())
}
