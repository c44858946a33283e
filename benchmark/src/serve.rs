//! A child `cmmc serve` and the closed-loop client that loads it.
//!
//! Closed loop, because this daemon's callers (an editor, a CI job, a
//! notebook cell) each wait for their reply before sending the next
//! request: one connection per tenant, the next request goes out when
//! the previous response line has arrived.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::gen::{Class, Expect, Request, Stream};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;

/// A child `cmmc serve`. Dropping it kills and reaps the daemon, so no
/// early return can leave one running (a daemon that has served
/// two-thread requests keeps two processors busy while idle, which would
/// poison every later measurement on the host); `stop` is the orderly
/// way out.
pub struct Server {
    /// `None` once `stop` has reaped the daemon.
    child: Option<Child>,
    pid: u32,
    pub addr: String,
    /// Drains the daemon's stderr so it can never block on it; ends when
    /// the daemon closes the pipe.
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// `cmmc serve 127.0.0.1:0 --workers W --session-threads 1`; returns
    /// once the daemon has printed the address it listens on.
    pub fn start(cmmc: &Path, workers: usize) -> io::Result<Server> {
        let mut child = Command::new(cmmc)
            .args([
                "serve",
                "127.0.0.1:0",
                "--session-threads",
                "1",
                "--workers",
            ])
            .arg(workers.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut server = Server {
            pid: child.id(),
            child: Some(child),
            addr: String::new(),
            drain: None,
        };
        let mut line = String::new();
        stderr.read_line(&mut line)?;
        let Some(addr) = line.trim().strip_prefix("cmmc serve: listening on ") else {
            return Err(io::Error::other(format!(
                "cmmc serve did not start: {line}"
            )));
        };
        server.addr = addr.to_string();
        server.drain = Some(std::thread::spawn(move || {
            let _ = io::copy(&mut stderr, &mut io::sink());
        }));
        Ok(server)
    }

    fn proc_file(&self, name: &str) -> String {
        std::fs::read_to_string(format!("/proc/{}/{name}", self.pid)).unwrap_or_default()
    }

    /// CPU milliseconds the daemon has used so far (utime + stime from
    /// `/proc/<pid>/stat`, in 10 ms ticks).
    pub fn cpu_ms(&self) -> f64 {
        let stat = self.proc_file("stat");
        // Fields after the parenthesised command name; utime and stime
        // are the 14th and 15th of the whole line.
        let after = stat.rsplit_once(") ").map(|(_, rest)| rest).unwrap_or("");
        let f: Vec<&str> = after.split(' ').collect();
        let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
        (ticks(11) + ticks(12)) * 10.0
    }

    /// The daemon's peak resident set in KiB: `VmHWM` of its own address
    /// space, which unlike `ru_maxrss` does not start from the size of
    /// the process that started it.
    pub fn peak_rss_kb(&self) -> i64 {
        let status = self.proc_file("status");
        let hwm = status.lines().find_map(|l| {
            l.strip_prefix("VmHWM:")?
                .trim()
                .strip_suffix("kB")?
                .trim()
                .parse()
                .ok()
        });
        hwm.unwrap_or(0)
    }

    fn signal(&self, sig: i32) {
        if self.child.is_some() {
            // SAFETY: plain syscall on a child this process owns and has
            // not reaped yet.
            unsafe { kill(self.pid as i32, sig) };
        }
    }

    /// SIGTERM, wait for the drain, and return (clean exit, peak resident
    /// set in KiB).
    pub fn stop(mut self) -> (bool, i64) {
        let rss_kb = self.peak_rss_kb();
        self.signal(SIGTERM);
        let clean = self.reap().is_some_and(|status| status.success());
        (clean, rss_kb)
    }

    fn reap(&mut self) -> Option<std::process::ExitStatus> {
        let status = self.child.take()?.wait().ok();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        status
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.signal(SIGKILL);
        self.reap();
    }
}

pub struct Connection {
    reader: BufReader<TcpStream>,
    pub stream: Stream,
}

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    pub class: Class,
    pub hot: bool,
    pub latency_ms: f64,
    pub ok: bool,
}

impl Connection {
    pub fn open(addr: &str, stream: Stream) -> io::Result<Connection> {
        let tcp = TcpStream::connect(addr)?;
        tcp.set_nodelay(true)?;
        tcp.set_read_timeout(Some(Duration::from_secs(20)))?;
        Ok(Connection {
            reader: BufReader::new(tcp),
            stream,
        })
    }

    /// Send one line, wait for the full response line.
    pub fn roundtrip(&mut self, line: &str) -> io::Result<(f64, String)> {
        let t0 = Instant::now();
        self.reader.get_mut().write_all(line.as_bytes())?;
        let mut resp = String::new();
        if self.reader.read_line(&mut resp)? == 0 {
            return Err(io::Error::other("connection closed by the daemon"));
        }
        Ok((t0.elapsed().as_secs_f64() * 1e3, resp))
    }

    /// Send the stream's next request and check the response against
    /// the generator's reference.
    pub fn next(&mut self) -> (Request, Done, String) {
        let req = self.stream.next().expect("endless stream");
        let (latency_ms, resp) = self.roundtrip(&req.line).unwrap_or((0.0, String::new()));
        let ok = response_ok(&resp, &req.expect);
        let done = Done {
            class: req.class,
            hot: req.hot,
            latency_ms,
            ok,
        };
        (req, done, resp)
    }

    /// The next `n` requests in closed loop.
    pub fn drive_n(&mut self, n: usize) -> Vec<Done> {
        (0..n).map(|_| self.next().1).collect()
    }

    /// Closed loop until `deadline`.
    pub fn drive(&mut self, deadline: Instant) -> Vec<Done> {
        let mut done = Vec::new();
        while Instant::now() < deadline {
            done.push(self.next().1);
        }
        done
    }
}

/// Every connection at once, each on a thread of its own; `drive` gets
/// the connection's number.
pub fn all_at_once<R: Send>(
    connections: &mut [Connection],
    drive: impl Fn(usize, &mut Connection) -> Vec<R> + Sync,
) -> Vec<R> {
    std::thread::scope(|scope| {
        let drive = &drive;
        let handles: Vec<_> = connections
            .iter_mut()
            .enumerate()
            .map(|(i, c)| scope.spawn(move || drive(i, c)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// `code` must be 0 and the output what the generator expects.
pub fn response_ok(resp: &str, expect: &Expect) -> bool {
    if json_u64(resp, "code") != Some(0) {
        return false;
    }
    match expect {
        Expect::Output(text) => json_str(resp, "output").as_deref() == Some(text.as_str()),
        Expect::EmittedC => json_str(resp, "output").is_some_and(|c| c.contains("int main(")),
        Expect::Nothing => json_str(resp, "output").is_none(),
    }
}

/// The value of top-level numeric field `key` in a response line. The
/// daemon writes `"key": value` with its fixed field order, `id` first,
/// and ids here never contain a quote, so a textual scan is exact.
pub fn json_u64(line: &str, key: &str) -> Option<u64> {
    let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The unescaped value of string field `key`.
pub fn json_str(line: &str, key: &str) -> Option<String> {
    let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
    let mut out = String::new();
    let mut chars = line[at..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No early return may leave a daemon behind: dropping the handle of
    /// a running (here: sleeping) daemon kills and reaps it.
    #[test]
    fn dropping_the_server_kills_the_daemon() {
        use std::os::unix::fs::PermissionsExt;
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-server-drop");
        std::fs::create_dir_all(&dir).expect("scratch directory");
        let fake = dir.join("cmmc");
        std::fs::write(
            &fake,
            "#!/bin/sh\necho 'cmmc serve: listening on 127.0.0.1:9' >&2\nexec sleep 600\n",
        )
        .expect("script");
        std::fs::set_permissions(&fake, std::fs::Permissions::from_mode(0o755)).expect("chmod");
        let server = Server::start(&fake, 2).expect("the fake daemon starts");
        assert_eq!(server.addr, "127.0.0.1:9");
        let proc_dir = format!("/proc/{}", server.pid);
        assert!(Path::new(&proc_dir).exists());
        drop(server);
        assert!(
            !Path::new(&proc_dir).exists(),
            "the daemon outlived its handle"
        );
    }

    #[test]
    fn response_fields() {
        let line = r#"{"id": "t0-3", "ok": true, "code": 0, "status": "ok", "retryable": false, "output": "12\n\"x\"A", "metrics": {"elapsed_ms": 4, "queue_ms": 1}}"#;
        assert_eq!(json_u64(line, "code"), Some(0));
        assert_eq!(json_u64(line, "queue_ms"), Some(1));
        assert_eq!(json_str(line, "output").as_deref(), Some("12\n\"x\"A"));
        assert_eq!(json_str(line, "missing"), None);
        assert!(response_ok(line, &Expect::Output("12\n\"x\"A".into())));
        assert!(!response_ok(line, &Expect::Output("13\n".into())));
        assert!(!response_ok(line, &Expect::Nothing));
        assert!(!response_ok(
            &line.replace("\"code\": 0", "\"code\": 4"),
            &Expect::Output("12\n\"x\"A".into())
        ));
    }
}
