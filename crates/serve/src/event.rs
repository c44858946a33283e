//! The readiness-polling event loop behind `cmmc serve`.
//!
//! One thread multiplexes every connection — the TCP listener, the
//! optional unix listener, and all accepted sockets — through
//! [`poll::wait`]. The old front end spent one OS thread per connection
//! blocked in `read`; here an idle connection costs a pollfd entry and
//! its buffers, so 64 idle clients and 4 active ones are served by the
//! same single thread.
//!
//! Division of labor:
//!
//! * **Event thread (this module).** Accepts, reads, frames request
//!   lines, answers the control plane (`ping`/`stats`) inline, runs
//!   admission (drain flag → global cap → tenant quota), dispatches
//!   admitted jobs to the worker scheduler, delivers completed
//!   responses, pumps stream frames, and flushes write buffers — all
//!   nonblocking.
//! * **Workers.** Compile and execute sessions (the only blocking
//!   work), then push a [`Completion`] and wake the event thread
//!   through the self-pipe.
//!
//! Per-connection ordering: at most one data-plane request is in flight
//! per connection, and parsing is paused while one is (or while a
//! stream is being written), so responses are strictly in request order
//! without any reordering buffer. Pipelined bytes just wait in `rbuf`.
//!
//! Back-pressure is structural: a connection's write buffer only grows
//! past the low-water mark by one response (or one stream frame), and a
//! client that stops reading stops its own stream pump, not the daemon.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::poll::{self, PollFd, POLLIN, POLLOUT};
use crate::protocol::{Cmd, Request, RespCode, Response};
use crate::{Completion, Job, Shared};

/// Socket read granularity.
const READ_CHUNK: usize = 16 * 1024;
/// Poll timeout: the staleness bound on externally flipped flags
/// (`draining` set directly by tests / the CLI signal loop). All normal
/// wake-ups — completions, shutdown — arrive via the wake pipe.
const POLL_TIMEOUT_MS: i32 = 250;
/// After `stop`, how long the loop keeps trying to flush pending
/// output before abandoning unflushed connections.
const STOP_FLUSH_GRACE: Duration = Duration::from_millis(750);

/// A connected client socket (TCP or unix), nonblocking.
enum Sock {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Sock {
    fn fd(&self) -> RawFd {
        match self {
            Sock::Tcp(s) => s.as_raw_fd(),
            Sock::Unix(s) => s.as_raw_fd(),
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.read(buf),
            Sock::Unix(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.write(buf),
            Sock::Unix(s) => s.write(buf),
        }
    }
}

/// An in-progress chunked response stream.
struct StreamState {
    id: String,
    data: String,
    /// Byte offset of the next frame's payload.
    pos: usize,
    /// Next frame sequence number.
    seq: usize,
}

/// Per-connection state.
struct Conn {
    sock: Sock,
    /// Routing token: `generation << 32 | slot index`. Stale completions
    /// (for a connection that died and whose slot was reused) fail the
    /// token comparison and are dropped.
    token: u64,
    /// Unparsed request bytes.
    rbuf: Vec<u8>,
    /// Prefix of `rbuf` already scanned without finding a newline.
    scanned: usize,
    /// Pending response bytes and the flushed prefix length.
    wbuf: Vec<u8>,
    wpos: usize,
    /// A data-plane request is with the workers; parsing is paused.
    inflight: bool,
    /// A chunked response is being pumped; parsing is paused.
    stream: Option<StreamState>,
    /// Read side hit EOF.
    eof: bool,
    /// Close once the write buffer drains (protocol-fatal request).
    close_after_flush: bool,
    /// Socket error; drop the connection without further I/O.
    dead: bool,
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    fn wants_read(&self) -> bool {
        !self.eof && !self.dead && !self.inflight && self.stream.is_none() && !self.close_after_flush
    }

    fn push_line(&mut self, line: &str) {
        self.wbuf.extend_from_slice(line.as_bytes());
        self.wbuf.push(b'\n');
    }

    /// Nonblocking flush of the write buffer.
    fn flush(&mut self) {
        while self.wpos < self.wbuf.len() {
            match self.sock.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
    }

    /// Append stream frames while the write buffer is under the
    /// low-water mark, keeping per-connection memory O(chunk) instead
    /// of O(output).
    fn pump_stream(&mut self, chunk: usize) {
        while let Some(st) = self.stream.as_mut() {
            if self.wbuf.len() - self.wpos >= chunk {
                break;
            }
            let end = chunk_end(&st.data, st.pos, chunk);
            let last = end >= st.data.len();
            let frame = Response::stream_frame(&st.id, st.seq, &st.data[st.pos..end], last);
            st.pos = end;
            st.seq += 1;
            let done = last;
            self.wbuf.extend_from_slice(frame.as_bytes());
            self.wbuf.push(b'\n');
            if done {
                self.stream = None;
            }
        }
    }

    fn should_close(&self) -> bool {
        if self.dead {
            return true;
        }
        if self.inflight || self.stream.is_some() || self.pending_out() > 0 {
            return false;
        }
        self.close_after_flush || (self.eof && self.rbuf.is_empty())
    }
}

/// End of the chunk starting at byte `pos`: at most `chunk` bytes,
/// snapped back to a UTF-8 character boundary (or forward, when a
/// single character is wider than `chunk`). Always advances past `pos`
/// unless the data is exhausted.
fn chunk_end(data: &str, pos: usize, chunk: usize) -> usize {
    let mut end = pos.saturating_add(chunk).min(data.len());
    while end > pos && !data.is_char_boundary(end) {
        end -= 1;
    }
    if end == pos && pos < data.len() {
        end = pos + 1;
        while end < data.len() && !data.is_char_boundary(end) {
            end += 1;
        }
    }
    end
}

/// Number of frames a streamed `data` will need at `chunk` bytes per
/// frame (at least one, so even an empty output gets its `last` frame).
fn count_chunks(data: &str, chunk: usize) -> usize {
    if data.is_empty() {
        return 1;
    }
    let (mut pos, mut n) = (0usize, 0usize);
    while pos < data.len() {
        pos = chunk_end(data, pos, chunk);
        n += 1;
    }
    n
}

/// Outcome of handling one parsed request line on the event thread.
enum Handled {
    /// Answered inline (control plane, parse error, or shed).
    Inline(Response),
    /// Admitted and queued for the workers; the connection waits.
    Dispatched,
}

pub(crate) fn event_loop(
    shared: Arc<Shared>,
    tcp: TcpListener,
    unix: Option<UnixListener>,
    wake_rx: UnixStream,
    completions: Receiver<Completion>,
) {
    let mut lp = EventLoop {
        shared,
        tcp,
        unix,
        wake_rx,
        completions,
        conns: Vec::new(),
        free: Vec::new(),
        generation: 0,
        stop_seen: None,
    };
    let _ = lp.tcp.set_nonblocking(true);
    if let Some(u) = &lp.unix {
        let _ = u.set_nonblocking(true);
    }
    let _ = lp.wake_rx.set_nonblocking(true);
    lp.run();
}

/// What each pollfd entry refers to.
enum Target {
    Wake,
    TcpListener,
    UnixListener,
    Conn(usize),
}

struct EventLoop {
    shared: Arc<Shared>,
    tcp: TcpListener,
    unix: Option<UnixListener>,
    wake_rx: UnixStream,
    completions: Receiver<Completion>,
    /// Connection slab; `free` holds reusable indices.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Bumped per accepted connection; the high half of every token.
    generation: u64,
    /// When the stop flag was first observed (starts the flush grace).
    stop_seen: Option<Instant>,
}

impl EventLoop {
    fn run(&mut self) {
        loop {
            self.drain_completions();
            self.progress_all();
            if self.should_exit() {
                break;
            }
            self.poll_once();
        }
    }

    /// Deliver every queued completion to its connection.
    fn drain_completions(&mut self) {
        while let Ok(c) = self.completions.try_recv() {
            self.deliver(c);
        }
    }

    fn deliver(&mut self, c: Completion) {
        // Response accounting happens here — exactly once per response,
        // even when the client has already disconnected.
        self.shared.record(c.resp.code);
        let idx = (c.token & 0xffff_ffff) as usize;
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        if conn.token != c.token {
            return;
        }
        conn.inflight = false;
        let stream_it = c.stream && c.resp.code == RespCode::Ok && c.resp.output.is_some();
        if stream_it {
            let output = c.resp.output.clone().unwrap_or_default();
            let chunk = self.shared.cfg.stream_chunk_bytes.max(1);
            let header = c.resp.to_stream_header(output.len(), count_chunks(&output, chunk));
            conn.push_line(&header);
            conn.stream = Some(StreamState {
                id: c.resp.id.clone(),
                data: output,
                pos: 0,
                seq: 0,
            });
            self.shared.streamed.fetch_add(1, Ordering::Relaxed);
        } else {
            conn.push_line(&c.resp.to_line());
        }
    }

    /// Advance every connection's state machine: pump streams, flush,
    /// parse newly readable lines, and reap finished connections.
    fn progress_all(&mut self) {
        let shared = Arc::clone(&self.shared);
        let chunk = shared.cfg.stream_chunk_bytes.max(1);
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_mut() else {
                continue;
            };
            if !conn.dead {
                conn.pump_stream(chunk);
                conn.flush();
                if !conn.dead && !conn.inflight && conn.stream.is_none() && !conn.close_after_flush
                {
                    parse_lines(&shared, conn);
                    conn.pump_stream(chunk);
                    conn.flush();
                }
            }
            if conn.should_close() {
                self.conns[idx] = None;
                self.free.push(idx);
                shared.open_connections.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    fn should_exit(&mut self) -> bool {
        if !self.shared.stop.load(Ordering::SeqCst) {
            return false;
        }
        let first = *self.stop_seen.get_or_insert_with(Instant::now);
        let pending = self
            .conns
            .iter()
            .flatten()
            .any(|c| !c.dead && (c.pending_out() > 0 || c.stream.is_some()));
        !pending || first.elapsed() > STOP_FLUSH_GRACE
    }

    /// Build the poll set, wait for readiness, and do the I/O.
    fn poll_once(&mut self) {
        let draining = self.shared.draining.load(Ordering::SeqCst);
        let mut fds: Vec<PollFd> = Vec::with_capacity(3 + self.conns.len());
        let mut targets: Vec<Target> = Vec::with_capacity(fds.capacity());
        fds.push(PollFd::new(self.wake_rx.as_raw_fd(), POLLIN));
        targets.push(Target::Wake);
        if !draining {
            fds.push(PollFd::new(self.tcp.as_raw_fd(), POLLIN));
            targets.push(Target::TcpListener);
            if let Some(u) = &self.unix {
                fds.push(PollFd::new(u.as_raw_fd(), POLLIN));
                targets.push(Target::UnixListener);
            }
        }
        for (idx, slot) in self.conns.iter().enumerate() {
            let Some(conn) = slot else { continue };
            let mut events = 0i16;
            if conn.wants_read() {
                events |= POLLIN;
            }
            if conn.pending_out() > 0 {
                events |= POLLOUT;
            }
            if events != 0 {
                fds.push(PollFd::new(conn.sock.fd(), events));
                targets.push(Target::Conn(idx));
            }
        }
        if poll::wait(&mut fds, POLL_TIMEOUT_MS).is_err() {
            // EINVAL/ENOMEM-class failure: back off instead of spinning.
            std::thread::sleep(Duration::from_millis(5));
            return;
        }
        for (fd, target) in fds.iter().zip(&targets) {
            match target {
                Target::Wake => {
                    if fd.readable() {
                        self.drain_wake_pipe();
                    }
                }
                Target::TcpListener => {
                    if fd.readable() {
                        self.accept_tcp();
                    }
                }
                Target::UnixListener => {
                    if fd.readable() {
                        self.accept_unix();
                    }
                }
                Target::Conn(idx) => {
                    if let Some(conn) = self.conns[*idx].as_mut() {
                        if fd.readable() {
                            read_conn(&self.shared, conn);
                        }
                        if fd.writable() {
                            conn.flush();
                        }
                    }
                }
            }
        }
    }

    fn drain_wake_pipe(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn accept_tcp(&mut self) {
        loop {
            match self.tcp.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_nonblocking(true);
                    self.add_conn(Sock::Tcp(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn accept_unix(&mut self) {
        let Some(listener) = self.unix.take() else { return };
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(true);
                    self.add_conn(Sock::Unix(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        self.unix = Some(listener);
    }

    fn add_conn(&mut self, sock: Sock) {
        self.shared.connections.fetch_add(1, Ordering::Relaxed);
        self.shared.open_connections.fetch_add(1, Ordering::Relaxed);
        self.generation += 1;
        let idx = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let token = (self.generation << 32) | idx as u64;
        self.conns[idx] = Some(Conn {
            sock,
            token,
            rbuf: Vec::new(),
            scanned: 0,
            wbuf: Vec::new(),
            wpos: 0,
            inflight: false,
            stream: None,
            eof: false,
            close_after_flush: false,
            dead: false,
        });
    }
}

/// Nonblocking read into the connection's request buffer.
fn read_conn(shared: &Arc<Shared>, conn: &mut Conn) {
    let mut buf = [0u8; READ_CHUNK];
    loop {
        match conn.sock.read(&mut buf) {
            Ok(0) => {
                conn.eof = true;
                break;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&buf[..n]);
                // Past the line cap without a newline: stop reading; the
                // parser will answer TooLong and close.
                if conn.rbuf.len() > shared.cfg.max_request_bytes {
                    break;
                }
                if n < buf.len() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
}

/// Frame and handle every complete request line in `rbuf`, stopping
/// when a data-plane request is dispatched (ordering) or the connection
/// turns protocol-fatal.
fn parse_lines(shared: &Arc<Shared>, conn: &mut Conn) {
    loop {
        let nl = conn.rbuf[conn.scanned..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|p| conn.scanned + p);
        match nl {
            Some(pos) => {
                let line: Vec<u8> = conn.rbuf.drain(..=pos).collect();
                conn.scanned = 0;
                handle_line_bytes(shared, conn, &line[..line.len() - 1]);
            }
            None => {
                conn.scanned = conn.rbuf.len();
                if conn.rbuf.len() > shared.cfg.max_request_bytes {
                    reject_too_long(shared, conn);
                    conn.rbuf.clear();
                    conn.scanned = 0;
                }
                break;
            }
        }
        if conn.inflight || conn.close_after_flush || conn.stream.is_some() {
            return;
        }
    }
    // EOF with a trailing unterminated line: treat it as final, exactly
    // like the blocking reader did.
    if conn.eof
        && !conn.rbuf.is_empty()
        && !conn.inflight
        && !conn.close_after_flush
        && conn.stream.is_none()
    {
        let line = std::mem::take(&mut conn.rbuf);
        conn.scanned = 0;
        handle_line_bytes(shared, conn, &line);
    }
}

fn reject_too_long(shared: &Arc<Shared>, conn: &mut Conn) {
    shared.requests.fetch_add(1, Ordering::Relaxed);
    let resp = Response::err(
        "?",
        RespCode::BadRequest,
        format!(
            "request line exceeds {} bytes; closing connection",
            shared.cfg.max_request_bytes
        ),
    );
    shared.record(resp.code);
    conn.push_line(&resp.to_line());
    conn.close_after_flush = true;
}

/// Handle one framed request line (newline stripped, length unchecked).
fn handle_line_bytes(shared: &Arc<Shared>, conn: &mut Conn, bytes: &[u8]) {
    if bytes.len() > shared.cfg.max_request_bytes {
        reject_too_long(shared, conn);
        return;
    }
    let line = match std::str::from_utf8(bytes) {
        Ok(s) => s,
        Err(_) => {
            shared.requests.fetch_add(1, Ordering::Relaxed);
            let resp = Response::err("?", RespCode::BadRequest, "request is not valid UTF-8");
            shared.record(resp.code);
            conn.push_line(&resp.to_line());
            conn.close_after_flush = true;
            return;
        }
    };
    if line.trim().is_empty() {
        return;
    }
    shared.requests.fetch_add(1, Ordering::Relaxed);
    match admit(shared, line, conn.token) {
        Handled::Inline(resp) => {
            shared.record(resp.code);
            conn.push_line(&resp.to_line());
        }
        Handled::Dispatched => conn.inflight = true,
    }
}

/// Parse one request and either answer it inline or admit and dispatch
/// it to the workers.
fn admit(shared: &Arc<Shared>, line: &str, token: u64) -> Handled {
    let req = match Request::parse(line) {
        Ok(req) => req,
        Err((id, msg)) => {
            return Handled::Inline(Response::err(
                id.as_deref().unwrap_or("?"),
                RespCode::BadRequest,
                msg,
            ))
        }
    };

    // Control plane answered inline on the event thread: no worker hop,
    // no admission — `ping` and `stats` must answer even (especially)
    // when every worker is saturated or the daemon is draining.
    match req.cmd {
        Cmd::Ping => return Handled::Inline(Response::ok(&req.id, Some("pong".to_string()), None)),
        Cmd::Stats => {
            let mut resp = Response::ok(&req.id, None, None);
            resp.stats = Some(Box::new(shared.snapshot()));
            return Handled::Inline(resp);
        }
        Cmd::Run | Cmd::Compile | Cmd::Check => {}
    }

    if shared.draining.load(Ordering::SeqCst) {
        return Handled::Inline(Response::err(
            &req.id,
            RespCode::Overloaded,
            "server is draining; retry against another instance",
        ));
    }
    // Global admission: reserve a slot or shed. fetch_add-then-check
    // keeps the cap exact under contention (losers release their
    // reservation).
    let admitted = shared.in_flight.fetch_add(1, Ordering::SeqCst);
    if admitted >= shared.cfg.max_in_flight {
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        return Handled::Inline(Response::err(
            &req.id,
            RespCode::Overloaded,
            format!(
                "admission cap reached ({} in flight); retry with backoff",
                shared.cfg.max_in_flight
            ),
        ));
    }
    // Per-tenant quota on top of the global cap.
    let quota = shared.cfg.effective_tenant_quota();
    if !shared.gate.try_admit(&req.tenant, quota) {
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        return Handled::Inline(Response::err(
            &req.id,
            RespCode::Overloaded,
            format!(
                "tenant '{}' quota reached ({quota} in flight); retry with backoff",
                req.tenant
            ),
        ));
    }
    let tenant = req.tenant.clone();
    shared.scheduler.push(
        &tenant,
        Job {
            req,
            enqueued: Instant::now(),
            token,
        },
    );
    Handled::Dispatched
}

#[cfg(test)]
mod tests {
    use super::{chunk_end, count_chunks};

    #[test]
    fn chunking_respects_utf8_boundaries() {
        let s = "aé√b"; // 1 + 2 + 3 + 1 bytes
        // A 2-byte chunk cannot split '√' (3 bytes): the chunk snaps
        // back to the boundary before it, then carries it whole.
        assert_eq!(chunk_end(s, 0, 2), 1, "cannot split 'é'");
        assert_eq!(chunk_end(s, 1, 2), 3, "'é' fits exactly");
        assert_eq!(chunk_end(s, 3, 2), 6, "'√' is wider than the chunk but must advance");
        assert_eq!(chunk_end(s, 6, 2), 7);
        assert_eq!(count_chunks(s, 2), 4);
        assert_eq!(count_chunks(s, 100), 1);
        assert_eq!(count_chunks("", 4), 1, "empty output still gets its last frame");
        // Reassembling the chunks yields the original string.
        let mut pos = 0;
        let mut out = String::new();
        while pos < s.len() {
            let end = chunk_end(s, pos, 2);
            out.push_str(&s[pos..end]);
            pos = end;
        }
        assert_eq!(out, s);
    }
}
