//! The TCP front end: line-delimited JSON requests in, line-delimited
//! JSON records out.
//!
//! Each connection is served on a thread of its own. The thread reads a
//! request line, answers it, and writes the whole reply before it reads
//! the next line, so replies leave in request order by construction.
//! Traced `run` responses stream the job's captured records (`type:
//! "run"` / `"summary"`) — byte-identical to an `sz-bench --trace`
//! file — followed by exactly one terminal line whose `type` is
//! `result`, `accepted`, `rejected`, or `error`. Clients read until
//! they see a terminal line.
//!
//! A `run` with `wait: true` blocks its connection's thread in
//! [`Scheduler::wait`] until the job settles; after 600 s the reply
//! degrades to an `accepted` line. A connection costs one OS
//! thread, idle or not, and nothing but the process's file-descriptor
//! limit bounds how many are open. A client that sends more requests
//! than the socket buffers hold before it reads a reply stalls only its
//! own connection.
//!
//! Stopping — a `shutdown` request, or the stop handle — shuts down
//! every open connection, idle ones included, and then the scheduler,
//! so `serve()` never waits on a silent client.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Scope;
use std::time::Duration;

use sz_harness::Json;
use sz_sentinel::{ParsedLine, RunSample, Sentinel, SentinelConfig};

use crate::event_loop::ffi;
use crate::exec::JobOutput;
use crate::proto::{Request, RunRequest, DEFAULT_ADDR};
use crate::scheduler::{JobState, Scheduler, SchedulerConfig, SubmitOutcome};

/// How long a `wait: true` request may block before the server
/// degrades it to an `accepted` line (the job keeps running; the
/// client can poll). Generous on purpose: per-job deadlines
/// (`deadline_ms`) are the intended bound.
const WAIT_CAP: Duration = Duration::from_secs(600);

/// The largest request line, newline included, a connection may send
/// (1 MiB). A longer line closes the connection and counts a
/// `conn_error`; nothing in the protocol comes close to this.
const MAX_LINE: usize = 1 << 20;

/// How often the accept loop looks at the stop flag when no client
/// connects. A `shutdown` request wakes it at once.
const ACCEPT_POLL: Duration = Duration::from_millis(100);

/// How long one write of pushed alerts may block. Alerts are written
/// on the worker that settled the job, so a watcher that stops reading
/// holds that worker up at most this long before it is dropped.
const ALERT_WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// Server sizing and bind address.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:7457` (port 0 for ephemeral).
    pub addr: String,
    /// Scheduler sizing.
    pub scheduler: SchedulerConfig,
    /// Unused: each connection has a thread of its own, so there are no
    /// event loops to size. Kept only because sz-benchmark's `serve.rs`
    /// (a package that builds [`ServerConfig`] with every field named)
    /// still sets it; ROADMAP.md item 8 drops it from the next change
    /// to that package.
    pub loops: usize,
    /// Unused; see [`FederationConfig`].
    pub federation: FederationConfig,
}

/// An empty placeholder: the server runs as one node and nothing reads
/// this. It is kept only because sz-benchmark's `serve.rs` (a package
/// that builds [`ServerConfig`] with every field named) still sets it;
/// ROADMAP.md item 8 drops both from the next change to that package.
#[derive(Debug, Clone, Default)]
pub struct FederationConfig {}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: DEFAULT_ADDR.to_string(),
            scheduler: SchedulerConfig::default(),
            loops: 2,
            federation: FederationConfig::default(),
        }
    }
}

/// A bound experiment server, not yet serving.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener, starts the scheduler's workers, and wires
    /// the settle notifier to the sentinel feed.
    ///
    /// # Errors
    ///
    /// Propagates the bind or listen failure.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        ffi::raise_backlog(listener.as_raw_fd())?;
        let wake_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            scheduler: Scheduler::new(config.scheduler),
            stop: Arc::new(AtomicBool::new(false)),
            wake_addr,
            net: NetStats::default(),
            conns: Mutex::new(HashMap::new()),
            watch: Mutex::new(WatchState {
                sentinel: Sentinel::new(SentinelConfig::default()),
                watchers: Vec::new(),
                alerts_emitted: 0,
            }),
        });
        // The notifier holds a Weak so a dropped server tears down
        // cleanly: scheduler -> notifier -> shared -> scheduler would
        // otherwise be a strong cycle.
        let weak = Arc::downgrade(&shared);
        shared.scheduler.set_notifier(Arc::new(move |id| {
            if let Some(shared) = weak.upgrade() {
                shared.feed_sentinel(id);
            }
        }));
        Ok(Server { listener, shared })
    }

    /// The bound address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that makes `serve` return from another thread (within
    /// 100 ms, without waiting on idle clients).
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shared.stop)
    }

    /// Accepts connections, each served on a thread of its own, until a
    /// `shutdown` request (or the stop handle) fires. Then it shuts
    /// down every open connection, idle ones included, and the
    /// scheduler, and returns once every connection thread has ended.
    ///
    /// # Errors
    ///
    /// Propagates setting the listener nonblocking; per-connection
    /// I/O errors are counted in the stats, never returned.
    pub fn serve(&self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let shared = &*self.shared;
        let mut fds = [ffi::PollFd {
            fd: self.listener.as_raw_fd(),
            events: ffi::POLLIN,
            revents: 0,
        }];
        std::thread::scope(|scope| {
            let mut next_id = 0;
            while !shared.stop.load(Ordering::SeqCst) {
                if ffi::poll_fds(&mut fds, ACCEPT_POLL.as_millis() as i32) <= 0
                    || shared.stop.load(Ordering::SeqCst)
                {
                    continue;
                }
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        next_id += 1;
                        shared.open(scope, next_id, stream);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    // A transient failure (e.g. fd exhaustion): count it
                    // and let the next poll retry.
                    Err(_) => NetStats::bump(&shared.net.conn_errors),
                }
            }
            for conn in shared.conns.lock().expect("connection registry").values() {
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
            shared.scheduler.shutdown();
        });
        Ok(())
    }
}

/// Connection-level counters, surfaced through the `stats` request.
#[derive(Debug, Default)]
struct NetStats {
    /// Connections accepted since start.
    accepted: AtomicU64,
    /// Currently open connections.
    open: AtomicU64,
    /// Read-side failures: accept errors, read errors, over-long or
    /// non-UTF-8 lines, connection threads that could not start.
    conn_errors: AtomicU64,
    /// Write-side failures: replies or pushed alerts the peer did not
    /// take.
    write_errors: AtomicU64,
}

impl NetStats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// One client connection. Its thread reads through `&stream`; replies
/// and pushed alerts write through it under `write`, so two writers
/// never interleave inside a line.
struct Conn {
    id: u64,
    stream: TcpStream,
    write: Mutex<()>,
}

impl Conn {
    fn send(&self, bytes: &[u8]) -> io::Result<()> {
        let _writing = self.write.lock().expect("connection write lock");
        (&self.stream).write_all(bytes)
    }
}

/// Everything the connection threads and the settle notifier share.
struct Shared {
    scheduler: Scheduler,
    stop: Arc<AtomicBool>,
    /// The listener's address, where a connect wakes the accept loop.
    wake_addr: SocketAddr,
    net: NetStats,
    /// Open connections by id, so that stopping can shut each one down.
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    watch: Mutex<WatchState>,
}

/// The regression sentinel riding on the job stream, plus its
/// subscribers: the connections that sent `watch` and are still open.
/// A connection leaves the list when its thread ends.
struct WatchState {
    sentinel: Sentinel,
    watchers: Vec<Arc<Conn>>,
    alerts_emitted: u64,
}

impl Shared {
    /// Registers an accepted connection and starts its thread. The
    /// registry entry comes first, so stopping reaches every thread.
    fn open<'scope>(&'scope self, scope: &'scope Scope<'scope, '_>, id: u64, stream: TcpStream) {
        NetStats::bump(&self.net.accepted);
        self.net.open.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_nodelay(true);
        let conn = Arc::new(Conn {
            id,
            stream,
            write: Mutex::new(()),
        });
        self.conns
            .lock()
            .expect("connection registry")
            .insert(id, Arc::clone(&conn));
        let thread_conn = Arc::clone(&conn);
        let started = conn.stream.set_nonblocking(false).is_ok()
            && std::thread::Builder::new()
                .spawn_scoped(scope, move || self.serve_conn(&thread_conn))
                .is_ok();
        if !started {
            NetStats::bump(&self.net.conn_errors);
            self.close(&conn);
        }
    }

    /// Serves one connection until the client closes it, a framing
    /// error, a failed write, a `shutdown` request, or stop.
    fn serve_conn(&self, conn: &Arc<Conn>) {
        let mut reader = BufReader::new(&conn.stream);
        let mut buf = Vec::new();
        loop {
            buf.clear();
            match reader
                .by_ref()
                .take(MAX_LINE as u64)
                .read_until(b'\n', &mut buf)
            {
                Ok(0) => break,
                // Over-long, or an unterminated last line at EOF, which
                // is dropped.
                Ok(n) if buf.last() != Some(&b'\n') => {
                    if n == MAX_LINE {
                        NetStats::bump(&self.net.conn_errors);
                    }
                    break;
                }
                Ok(_) => {}
                Err(_) => {
                    NetStats::bump(&self.net.conn_errors);
                    break;
                }
            }
            let Ok(line) = std::str::from_utf8(&buf) else {
                NetStats::bump(&self.net.conn_errors);
                break;
            };
            let line = line.trim_end_matches(['\r', '\n']);
            if line.trim().is_empty() {
                continue;
            }
            let request = Request::parse(line);
            let shutdown = matches!(request, Ok(Request::Shutdown));
            let failed = self.answer(conn, request).is_err();
            if failed {
                NetStats::bump(&self.net.write_errors);
            }
            // After the reply, so that stopping cannot cut it off; and
            // even if the client hung up before reading it.
            if shutdown {
                self.stop();
            }
            if failed || shutdown {
                break;
            }
        }
        self.close(conn);
    }

    /// Shuts a connection down and forgets it.
    fn close(&self, conn: &Conn) {
        let _ = conn.stream.shutdown(Shutdown::Both);
        self.conns
            .lock()
            .expect("connection registry")
            .remove(&conn.id);
        self.watch
            .lock()
            .expect("watch state")
            .watchers
            .retain(|watcher| watcher.id != conn.id);
        self.net.open.fetch_sub(1, Ordering::Relaxed);
    }

    /// Sets the stop flag and wakes the accept loop with a connection
    /// of its own, so it need not wait out its poll.
    fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.wake_addr, ACCEPT_POLL);
    }

    /// Writes the reply to one request.
    fn answer(&self, conn: &Arc<Conn>, request: Result<Request, String>) -> io::Result<()> {
        let reply = match request {
            Err(message) => render_line(&Json::obj([
                ("type", "error".into()),
                ("message", message.into()),
            ])),
            Ok(Request::Run(spec)) => self.respond_run(spec),
            Ok(Request::Status { job }) => {
                let state = self.scheduler.status(job);
                let mut fields = vec![
                    ("type".to_string(), Json::from("status")),
                    ("job".to_string(), job.into()),
                    (
                        "state".to_string(),
                        state.as_ref().map_or("unknown", JobState::name).into(),
                    ),
                ];
                if let Some(JobState::Failed(err)) = &state {
                    fields.push(("reason".to_string(), err.reason().into()));
                }
                render_line(&Json::Obj(fields))
            }
            Ok(Request::Cancel { job }) => {
                let ok = self.scheduler.cancel(job);
                render_line(&Json::obj([
                    ("type", "cancelled".into()),
                    ("job", job.into()),
                    ("ok", ok.into()),
                ]))
            }
            Ok(Request::Stats) => self.respond_stats(),
            Ok(Request::Watch) => return self.subscribe(conn),
            Ok(Request::Shutdown) => render_line(&Json::obj([("type", "shutdown".into())])),
        };
        conn.send(&reply)
    }

    fn respond_run(&self, spec: RunRequest) -> Vec<u8> {
        let wants_trace = spec.trace;
        let wait = spec.wait;
        let experiment = spec.experiment.name();
        match self.scheduler.submit(spec) {
            SubmitOutcome::Cached(hit) => run_reply(&hit.output, wants_trace, &hit.hit_line),
            SubmitOutcome::Rejected { retry_after_ms } => render_rejected(retry_after_ms),
            SubmitOutcome::Accepted(id) if !wait => render_accepted(id),
            SubmitOutcome::Accepted(id) => match self.scheduler.wait(id, WAIT_CAP) {
                Some(JobState::Done(output)) => run_reply(
                    &output,
                    wants_trace,
                    &output.result_line(experiment, Some(id)),
                ),
                Some(JobState::Failed(err)) => render_error(Some(id), &err.reason()),
                _ => render_accepted(id),
            },
        }
    }

    /// Subscribes `conn` to the alert stream and writes its ack. The
    /// ack goes out under the connection's write lock, taken before the
    /// connection joins the watchers, so no alert can overtake it.
    fn subscribe(&self, conn: &Arc<Conn>) -> io::Result<()> {
        conn.stream.set_write_timeout(Some(ALERT_WRITE_TIMEOUT))?;
        let _writing = conn.write.lock().expect("connection write lock");
        let ack = {
            let mut state = self.watch.lock().expect("watch state");
            state.watchers.push(Arc::clone(conn));
            render_line(&Json::obj([
                ("type", "watch_ack".into()),
                ("watchers", state.watchers.len().into()),
                ("runs_seen", state.sentinel.runs_seen().into()),
                ("alerts_emitted", state.alerts_emitted.into()),
            ]))
        };
        (&conn.stream).write_all(&ack)
    }

    /// Feeds a settled job's captured trace through the sentinel and
    /// writes any resulting alert lines to every watcher. Called from
    /// the settle notifier, which fires exactly once per settle —
    /// cache hits answer without settling, so no result is ever
    /// ingested twice. The trace is parsed before the `watch` lock is
    /// taken, and the alerts are written after it is released: `stats`
    /// and `watch` take that lock on connection threads. A watcher
    /// whose write fails or times out is dropped and its connection
    /// shut down.
    fn feed_sentinel(&self, id: u64) {
        let Some(JobState::Done(output)) = self.scheduler.status(id) else {
            return;
        };
        // Server-captured traces are machine-written; a line the
        // sentinel rejects (e.g. an embedded non-run payload) is
        // skipped rather than poisoning the feed.
        let samples: Vec<RunSample> = output
            .trace
            .lines()
            .map(str::trim)
            .filter_map(|line| match sz_sentinel::parse_line(line, 0) {
                Ok(ParsedLine::Run(sample)) => Some(sample),
                _ => None,
            })
            .collect();
        if samples.is_empty() {
            return;
        }
        let mut bytes = Vec::new();
        let mut state = self.watch.lock().expect("watch state");
        for sample in &samples {
            for alert in state.sentinel.ingest_run(sample) {
                state.alerts_emitted += 1;
                bytes.extend_from_slice(&render_line(&alert));
            }
        }
        if bytes.is_empty() {
            return;
        }
        let watchers = state.watchers.clone();
        drop(state);
        for watcher in watchers {
            if watcher.send(&bytes).is_err() {
                NetStats::bump(&self.net.write_errors);
                let _ = watcher.stream.shutdown(Shutdown::Both);
                self.watch
                    .lock()
                    .expect("watch state")
                    .watchers
                    .retain(|w| w.id != watcher.id);
            }
        }
    }

    fn respond_stats(&self) -> Vec<u8> {
        let mut fields = vec![("type".to_string(), Json::from("stats"))];
        if let Json::Obj(stats) = self.scheduler.stats_json() {
            fields.extend(stats);
        }
        {
            let watch = self.watch.lock().expect("watch state");
            fields.push(("watchers".to_string(), watch.watchers.len().into()));
            fields.push((
                "sentinel_runs".to_string(),
                watch.sentinel.runs_seen().into(),
            ));
            fields.push(("sentinel_alerts".to_string(), watch.alerts_emitted.into()));
        }
        for (name, counter) in [
            ("connections_accepted", &self.net.accepted),
            ("connections_open", &self.net.open),
            ("conn_errors", &self.net.conn_errors),
            ("write_errors", &self.net.write_errors),
        ] {
            fields.push((name.to_string(), counter.load(Ordering::Relaxed).into()));
        }
        render_line(&Json::Obj(fields))
    }
}

fn render_line(value: &Json) -> Vec<u8> {
    format!("{value}\n").into_bytes()
}

fn render_accepted(id: u64) -> Vec<u8> {
    render_line(&Json::obj([
        ("type", "accepted".into()),
        ("job", id.into()),
    ]))
}

fn render_rejected(retry_after_ms: u64) -> Vec<u8> {
    render_line(&Json::obj([
        ("type", "rejected".into()),
        ("retry_after_ms", retry_after_ms.into()),
    ]))
}

fn render_error(job: Option<u64>, message: &str) -> Vec<u8> {
    let mut fields = vec![("type".to_string(), Json::from("error"))];
    if let Some(id) = job {
        fields.push(("job".to_string(), id.into()));
    }
    fields.push(("message".to_string(), message.into()));
    render_line(&Json::Obj(fields))
}

/// The bytes of a completed `run` reply: optional trace records (the
/// captured JSONL is relayed byte-for-byte, so cached and fresh
/// responses are identical) followed by the terminal `result` line.
fn run_reply(output: &JobOutput, wants_trace: bool, result_line: &[u8]) -> Vec<u8> {
    if wants_trace {
        [output.trace.as_bytes(), result_line].concat()
    } else {
        result_line.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufWriter;
    use std::thread::JoinHandle;
    use std::time::Instant;

    /// Every socket read in these tests gives up after this long, so a
    /// lost reply fails the test instead of hanging it.
    const READ_TIMEOUT: Duration = Duration::from_secs(30);

    /// A server with `workers` scheduler workers on an ephemeral port,
    /// with its stop handle.
    fn start(workers: usize) -> (SocketAddr, Arc<AtomicBool>, JoinHandle<()>) {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            scheduler: SchedulerConfig {
                workers,
                queue_capacity: 4,
                exec_threads: 1,
                cache_budget: 4 << 20,
            },
            ..ServerConfig::default()
        })
        .expect("bind ephemeral");
        let addr = server.local_addr().expect("local addr");
        let stop = server.stop_handle();
        let handle = std::thread::spawn(move || server.serve().expect("serve"));
        (addr, stop, handle)
    }

    fn spawn_server() -> (SocketAddr, JoinHandle<()>) {
        let (addr, _, handle) = start(1);
        (addr, handle)
    }

    fn connect(addr: SocketAddr) -> TcpStream {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .expect("read timeout");
        stream
    }

    /// Reads one reply: trace lines, if any, then its terminal line.
    fn read_reply(reader: &mut impl BufRead) -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            assert!(
                reader.read_line(&mut line).expect("recv") > 0,
                "EOF mid-reply"
            );
            let terminal =
                !line.starts_with(r#"{"type":"run""#) && !line.starts_with(r#"{"type":"summary""#);
            lines.push(line);
            if terminal {
                return lines;
            }
        }
    }

    fn reply_type(line: &str) -> String {
        let value = Json::parse(line).expect("well-formed reply");
        value
            .get("type")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    }

    fn roundtrip(addr: SocketAddr, lines: &[String]) -> Vec<Json> {
        let stream = connect(addr);
        let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
        let mut reader = BufReader::new(stream);
        let mut responses = Vec::new();
        for line in lines {
            writeln!(writer, "{line}").expect("send");
            writer.flush().expect("flush");
            loop {
                let mut response = String::new();
                if reader.read_line(&mut response).expect("recv") == 0 {
                    return responses;
                }
                let value = Json::parse(&response).expect("well-formed response");
                let ty = value.get("type").and_then(Json::as_str).unwrap_or("");
                let terminal = matches!(
                    ty,
                    "result"
                        | "accepted"
                        | "rejected"
                        | "error"
                        | "status"
                        | "cancelled"
                        | "stats"
                        | "shutdown"
                );
                responses.push(value);
                if terminal {
                    break;
                }
            }
        }
        responses
    }

    #[test]
    fn malformed_lines_get_an_error_response() {
        let (addr, handle) = spawn_server();
        let responses = roundtrip(
            addr,
            &[
                "this is not json".to_string(),
                r#"{"type":"shutdown"}"#.to_string(),
            ],
        );
        assert_eq!(responses[0].get("type").unwrap().as_str(), Some("error"));
        assert_eq!(responses[1].get("type").unwrap().as_str(), Some("shutdown"));
        handle.join().expect("server exits cleanly");
    }

    #[test]
    fn stats_and_status_respond_on_a_fresh_server() {
        let (addr, handle) = spawn_server();
        let responses = roundtrip(
            addr,
            &[
                r#"{"type":"stats"}"#.to_string(),
                r#"{"type":"status","job":42}"#.to_string(),
                r#"{"type":"shutdown"}"#.to_string(),
            ],
        );
        assert_eq!(responses[0].get("type").unwrap().as_str(), Some("stats"));
        assert_eq!(responses[0].get("queue_depth").unwrap().as_u64(), Some(0));
        // Satellite: connection-error counters are first-class stats.
        assert_eq!(responses[0].get("conn_errors").unwrap().as_u64(), Some(0));
        assert_eq!(responses[0].get("write_errors").unwrap().as_u64(), Some(0));
        assert!(responses[0].get("federation").is_none());
        assert_eq!(responses[1].get("state").unwrap().as_str(), Some("unknown"));
        handle.join().expect("server exits cleanly");
    }

    #[test]
    fn watch_acks_and_stats_count_watchers() {
        let (addr, handle) = spawn_server();
        // A dedicated watch connection: one request, one ack line,
        // then the socket only ever receives pushed alerts.
        let stream = connect(addr);
        let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
        let mut reader = BufReader::new(stream);
        writeln!(writer, r#"{{"type":"watch"}}"#).expect("send");
        writer.flush().expect("flush");
        let mut ack = String::new();
        reader.read_line(&mut ack).expect("recv ack");
        let ack = Json::parse(&ack).expect("well-formed ack");
        assert_eq!(ack.get("type").unwrap().as_str(), Some("watch_ack"));
        assert_eq!(ack.get("watchers").unwrap().as_u64(), Some(1));
        assert_eq!(ack.get("alerts_emitted").unwrap().as_u64(), Some(0));

        // The sentinel sees completed jobs even with no trace flag on
        // the request, and stats reflect both watcher and feed counts.
        let responses = roundtrip(
            addr,
            &[
                r#"{"type":"run","experiment":"selftest-sleep","sleep_ms":1}"#.to_string(),
                r#"{"type":"stats"}"#.to_string(),
                r#"{"type":"shutdown"}"#.to_string(),
            ],
        );
        assert_eq!(responses[0].get("type").unwrap().as_str(), Some("result"));
        let stats = &responses[1];
        assert_eq!(stats.get("watchers").unwrap().as_u64(), Some(1));
        assert!(stats.get("sentinel_runs").is_some());
        assert_eq!(stats.get("sentinel_alerts").unwrap().as_u64(), Some(0));
        handle.join().expect("server exits cleanly");
    }

    /// A request line nesting past the parser's depth limit used to
    /// overflow the event-loop thread's stack and abort the daemon. It
    /// now gets an `error` reply, and the same connection goes on being
    /// served. The traced run then checks that the sentinel feed counts
    /// every streamed run record.
    #[test]
    fn deeply_nested_lines_get_an_error_and_the_server_keeps_serving() {
        let (addr, handle) = spawn_server();
        let line_cap = 1 << 20;
        let brackets = "[".repeat(line_cap - 1);
        let objects = r#"{"a":"#.repeat((line_cap - 1) / 5);
        let responses = roundtrip(
            addr,
            &[
                brackets,
                objects,
                r#"{"type":"run","experiment":"table1","benchmarks":["bzip2"],"scale":"tiny","runs":2,"trace":true}"#
                    .to_string(),
            ],
        );
        for nested in &responses[..2] {
            assert_eq!(nested.get("type").unwrap().as_str(), Some("error"));
            let message = nested.get("message").unwrap().as_str().unwrap();
            assert!(message.contains("nest deeper than 128"), "{message}");
        }
        let traced = &responses[2..];
        assert_eq!(
            traced.last().unwrap().get("type").unwrap().as_str(),
            Some("result")
        );
        let runs = traced
            .iter()
            .filter(|r| r.get("type").and_then(Json::as_str) == Some("run"))
            .count() as u64;
        assert!(runs > 0, "the traced run streams its run records");
        // The settle notifier replies before it feeds the sentinel.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let stats = roundtrip(addr, &[r#"{"type":"stats"}"#.to_string()]);
            if stats[0].get("sentinel_runs").unwrap().as_u64() == Some(runs) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "sentinel_runs never reached {runs}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        roundtrip(addr, &[r#"{"type":"shutdown"}"#.to_string()]);
        handle.join().expect("server exits cleanly");
    }

    /// Every closed watch connection leaves the subscriber list, so
    /// alerts are never cloned for dead tokens and `watchers` counts
    /// only live subscribers.
    #[test]
    fn closed_watch_connections_leave_the_watcher_list() {
        let (addr, handle) = spawn_server();
        let watchers = || {
            let stats = roundtrip(addr, &[r#"{"type":"stats"}"#.to_string()]);
            stats[0].get("watchers").unwrap().as_u64()
        };
        let mut open = Vec::new();
        for n in 1..=5u64 {
            let stream = connect(addr);
            writeln!(&stream, r#"{{"type":"watch"}}"#).expect("send");
            let mut ack = String::new();
            BufReader::new(&stream)
                .read_line(&mut ack)
                .expect("recv ack");
            let ack = Json::parse(&ack).expect("well-formed ack");
            assert_eq!(ack.get("watchers").unwrap().as_u64(), Some(n));
            open.push(stream);
        }
        assert_eq!(watchers(), Some(5));
        drop(open);
        let deadline = Instant::now() + Duration::from_secs(10);
        while watchers() != Some(0) {
            assert!(
                Instant::now() < deadline,
                "closed watch connections are still subscribed"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        roundtrip(addr, &[r#"{"type":"shutdown"}"#.to_string()]);
        handle.join().expect("server exits cleanly");
    }

    /// A `wait: true` run blocks its connection's thread; the lines sent
    /// behind it wait in the socket and are answered after it, in
    /// request order.
    #[test]
    fn a_waiting_run_and_pipelined_lines_are_answered_in_request_order() {
        let (addr, handle) = spawn_server();
        let stream = connect(addr);
        let lines = concat!(
            r#"{"type":"run","experiment":"selftest-sleep","sleep_ms":100}"#,
            "\n",
            r#"{"type":"stats"}"#,
            "\n",
            r#"{"type":"status","job":1}"#,
            "\n",
        );
        (&stream).write_all(lines.as_bytes()).expect("send");
        let mut reader = BufReader::new(&stream);
        let replies: Vec<Json> = (0..3)
            .map(|_| Json::parse(&read_reply(&mut reader)[0]).expect("well-formed"))
            .collect();
        let types: Vec<_> = replies
            .iter()
            .map(|r| r.get("type").unwrap().as_str())
            .collect();
        assert_eq!(types, [Some("result"), Some("stats"), Some("status")]);
        assert_eq!(replies[0].get("job").unwrap().as_u64(), Some(1));
        assert_eq!(replies[1].get("completed").unwrap().as_u64(), Some(1));
        assert_eq!(replies[2].get("state").unwrap().as_str(), Some("done"));
        roundtrip(addr, &[r#"{"type":"shutdown"}"#.to_string()]);
        handle.join().expect("server exits cleanly");
    }

    /// Small requests sent all at once, whose replies alternate traced
    /// runs larger than the socket buffers (a short interval gives each
    /// run many period records) with one-line replies: each reply
    /// arrives whole and in request order, and the cached traced
    /// replies repeat the first one's trace byte for byte.
    #[test]
    fn pipelined_large_and_small_replies_arrive_whole_and_in_order() {
        let (addr, handle) = spawn_server();
        let traced = r#"{"type":"run","experiment":"table1","benchmarks":["bzip2"],"runs":40,"interval_ms":0.0005,"trace":true}"#;
        let lines = [
            traced,
            r#"{"type":"stats"}"#,
            traced,
            r#"{"type":"status","job":1}"#,
            traced,
            r#"{"type":"stats"}"#,
        ];
        let stream = connect(addr);
        (&stream)
            .write_all(format!("{}\n", lines.join("\n")).as_bytes())
            .expect("send");
        let mut reader = BufReader::new(&stream);
        let replies: Vec<Vec<String>> = lines.iter().map(|_| read_reply(&mut reader)).collect();
        let types: Vec<String> = replies
            .iter()
            .map(|r| reply_type(r.last().unwrap()))
            .collect();
        assert_eq!(
            types,
            ["result", "stats", "result", "status", "result", "stats"]
        );
        let trace = |reply: &[String]| reply[..reply.len() - 1].concat();
        let first = trace(&replies[0]);
        // More than the most a loopback send buffer grows to by default
        // (4 MiB), so the writes of each reply block and resume.
        assert!(first.len() > 4 << 20, "{} trace bytes", first.len());
        assert_eq!(trace(&replies[2]), first);
        assert_eq!(trace(&replies[4]), first);
        roundtrip(addr, &[r#"{"type":"shutdown"}"#.to_string()]);
        handle.join().expect("server exits cleanly");
    }

    #[test]
    fn shutdown_is_answered_then_the_connection_reaches_eof() {
        let (addr, handle) = spawn_server();
        let stream = connect(addr);
        writeln!(&stream, r#"{{"type":"shutdown"}}"#).expect("send");
        let mut reader = BufReader::new(&stream);
        assert_eq!(reply_type(&read_reply(&mut reader)[0]), "shutdown");
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).expect("eof"), 0);
        handle.join().expect("server exits cleanly");
    }

    /// Stopping shuts down every open connection, so clients that never
    /// send a byte cannot hold up `serve()`.
    #[test]
    fn the_stop_handle_alone_returns_serve_with_idle_clients_connected() {
        let (addr, stop, handle) = start(1);
        let idle: Vec<TcpStream> = (0..8).map(|_| connect(addr)).collect();
        // Let the accept loop start their threads.
        std::thread::sleep(Duration::from_millis(50));
        let started = Instant::now();
        stop.store(true, Ordering::SeqCst);
        handle.join().expect("server exits cleanly");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "stop waited {:?} on silent clients",
            started.elapsed()
        );
        for stream in &idle {
            let mut rest = String::new();
            assert_eq!(BufReader::new(stream).read_line(&mut rest).unwrap_or(0), 0);
        }
    }

    /// Each connection waits on its own thread, so two waiting runs on
    /// a 2-worker server run side by side.
    #[test]
    fn waiting_runs_on_two_connections_run_at_the_same_time() {
        let (addr, _, handle) = start(2);
        let started = Instant::now();
        let clients: Vec<_> = (0..2)
            .map(|_| {
                std::thread::spawn(move || {
                    roundtrip(
                        addr,
                        &[
                            r#"{"type":"run","experiment":"selftest-sleep","sleep_ms":300}"#
                                .to_string(),
                        ],
                    )
                })
            })
            .collect();
        for client in clients {
            let replies = client.join().expect("client thread");
            assert_eq!(replies[0].get("type").unwrap().as_str(), Some("result"));
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(500),
            "two 300 ms runs took {elapsed:?}, as if one waited for the other"
        );
        roundtrip(addr, &[r#"{"type":"shutdown"}"#.to_string()]);
        handle.join().expect("server exits cleanly");
    }
}
