//! The TCP front end: line-delimited JSON requests in, line-delimited
//! JSON records out.
//!
//! Connections are multiplexed by the [`event_loop`] pool — a few
//! threads holding every client — rather than one thread per
//! connection. Each request line produces one or more response lines.
//! Traced `run` responses stream the job's captured records (`type:
//! "run"` / `"summary"`) — byte-identical to an `sz-bench --trace`
//! file — followed by exactly one terminal line whose `type` is
//! `result`, `accepted`, `rejected`, or `error`. Clients read until
//! they see a terminal line.
//!
//! A blocking `run` no longer parks a thread: the connection's reply
//! is registered as a *pending wait* and the scheduler's settle
//! notifier pushes the result through [`Completions`] when the job
//! finishes. An event-loop thread therefore never blocks on a job —
//! it only parses, submits, and moves on to the next ready socket.
//!
//! [`event_loop`]: crate::event_loop

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sz_harness::Json;
use sz_sentinel::{ParsedLine, RunSample, Sentinel, SentinelConfig};

use crate::event_loop::{Completions, ConnHandler, ConnToken, EventLoops, LineOutcome, NetStats};
use crate::exec::JobOutput;
use crate::proto::{Request, RunRequest, DEFAULT_ADDR};
use crate::scheduler::{JobState, Scheduler, SchedulerConfig, SubmitOutcome};

/// How long a `wait: true` request may stay pending before the server
/// degrades it to an `accepted` line (the job keeps running; the
/// client can poll). Generous on purpose: per-job deadlines
/// (`deadline_ms`) are the intended bound.
const WAIT_CAP: Duration = Duration::from_secs(600);

/// Server sizing and bind address.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:7457` (port 0 for ephemeral).
    pub addr: String,
    /// Scheduler sizing.
    pub scheduler: SchedulerConfig,
    /// Event-loop threads multiplexing the connections.
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
    scheduler: Arc<Scheduler>,
    stop: Arc<AtomicBool>,
    loops: EventLoops,
    handler: Arc<ServeHandler>,
}

impl Server {
    /// Binds the listener, starts the scheduler's workers, and wires
    /// the settle notifier to the event loops.
    ///
    /// # Errors
    ///
    /// Propagates the bind or self-pipe failure.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let stop = Arc::new(AtomicBool::new(false));
        let loops = EventLoops::new(config.loops, Arc::clone(&stop))?;
        let scheduler = Arc::new(Scheduler::new(config.scheduler));
        let handler = Arc::new(ServeHandler {
            scheduler: Arc::clone(&scheduler),
            completions: loops.completions(),
            net: loops.net_stats(),
            waits: Mutex::new(HashMap::new()),
            watch: Mutex::new(WatchState {
                sentinel: Sentinel::new(SentinelConfig::default()),
                watchers: Vec::new(),
                alerts_emitted: 0,
            }),
            stop: Arc::clone(&stop),
        });
        // The notifier holds a Weak so a dropped server tears down
        // cleanly: scheduler -> notifier -> handler -> scheduler would
        // otherwise be a strong cycle.
        let weak = Arc::downgrade(&handler);
        scheduler.set_notifier(Arc::new(move |id| {
            if let Some(handler) = weak.upgrade() {
                handler.try_complete(id);
                handler.feed_sentinel(id);
            }
        }));
        Ok(Server {
            listener,
            scheduler,
            stop,
            loops,
            handler,
        })
    }

    /// The bound address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that makes `serve` return from another thread (within
    /// one poll timeout, without waiting on idle clients).
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Runs the event loops until a `shutdown` request (or the stop
    /// handle) fires, then drains the scheduler and returns. Every
    /// open connection — idle ones included — is flushed best-effort
    /// and closed on the way out.
    ///
    /// # Errors
    ///
    /// Propagates listener setup failures; per-connection I/O errors
    /// are counted in the stats, never returned.
    pub fn serve(&self) -> std::io::Result<()> {
        let handler: Arc<dyn ConnHandler> = Arc::clone(&self.handler) as Arc<dyn ConnHandler>;
        self.loops.run(&self.listener, &handler)?;
        self.scheduler.shutdown();
        Ok(())
    }
}

/// A connection whose `run` reply is waiting on a scheduler job.
struct Waiter {
    token: ConnToken,
    experiment: &'static str,
    wants_trace: bool,
    /// When to degrade to an `accepted` line ([`WAIT_CAP`]).
    deadline: Instant,
}

/// The per-request brain the event loops call into. Never blocks:
/// long work lives on scheduler workers, and replies come back through
/// [`Completions`].
struct ServeHandler {
    scheduler: Arc<Scheduler>,
    completions: Completions,
    net: Arc<NetStats>,
    waits: Mutex<HashMap<u64, Waiter>>,
    watch: Mutex<WatchState>,
    stop: Arc<AtomicBool>,
}

/// The regression sentinel riding on the job stream, plus its
/// subscribers: the connections that sent `watch` and are still open.
/// [`ConnHandler::on_close`] drops a connection's token when it leaves
/// its event loop, so the list never holds a dead subscriber.
struct WatchState {
    sentinel: Sentinel,
    watchers: Vec<ConnToken>,
    alerts_emitted: u64,
}

impl ServeHandler {
    fn respond_run(&self, token: ConnToken, spec: RunRequest) -> LineOutcome {
        let wants_trace = spec.trace;
        let wait = spec.wait;
        let experiment = spec.experiment.name();
        match self.scheduler.submit(spec) {
            SubmitOutcome::Cached(hit) => {
                LineOutcome::Reply(run_reply(&hit.output, wants_trace, &hit.hit_line))
            }
            SubmitOutcome::Rejected { retry_after_ms } => {
                LineOutcome::Reply(render_rejected(retry_after_ms))
            }
            SubmitOutcome::Accepted(id) => {
                if !wait {
                    return LineOutcome::Reply(render_accepted(id));
                }
                self.waits.lock().expect("wait registry").insert(
                    id,
                    Waiter {
                        token,
                        experiment,
                        wants_trace,
                        deadline: Instant::now() + WAIT_CAP,
                    },
                );
                // The job may have settled before the waiter was
                // registered (the notifier fires on the worker
                // thread); re-check so the reply cannot be lost.
                if self
                    .scheduler
                    .status(id)
                    .is_some_and(|s| matches!(s, JobState::Done(_) | JobState::Failed(_)))
                {
                    self.try_complete(id);
                }
                LineOutcome::Pending
            }
        }
    }

    /// Completes the pending wait for `id`, if any. Called from the
    /// scheduler's settle notifier and from the register-time
    /// re-check; the registry lock makes the removal idempotent.
    fn try_complete(&self, id: u64) {
        let (waiter, state) = {
            let mut waits = self.waits.lock().expect("wait registry");
            if !waits.contains_key(&id) {
                return;
            }
            match self.scheduler.status(id) {
                Some(state @ (JobState::Done(_) | JobState::Failed(_))) => {
                    (waits.remove(&id).expect("checked above"), state)
                }
                _ => return,
            }
        };
        let bytes = match state {
            JobState::Done(output) => run_reply(
                &output,
                waiter.wants_trace,
                &output.result_line(waiter.experiment, Some(id)),
            ),
            JobState::Failed(err) => render_error(Some(id), &err.reason()),
            _ => unreachable!("settled above"),
        };
        self.completions.send(waiter.token, bytes);
    }

    /// Feeds a settled job's captured trace through the sentinel and
    /// pushes any resulting alert lines to every watcher. Called from
    /// the settle notifier, which fires exactly once per settle —
    /// cache hits answer without settling, so no result is ever
    /// ingested twice. The trace is parsed before the `watch` lock is
    /// taken: `stats` and `watch` take that lock on an event-loop
    /// thread.
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
        for token in watchers {
            self.completions.send(token, bytes.clone());
        }
    }

    fn respond_watch(&self, token: ConnToken) -> LineOutcome {
        let mut state = self.watch.lock().expect("watch state");
        state.watchers.push(token);
        let ack = Json::obj([
            ("type", "watch_ack".into()),
            ("watchers", state.watchers.len().into()),
            ("runs_seen", state.sentinel.runs_seen().into()),
            ("alerts_emitted", state.alerts_emitted.into()),
        ]);
        LineOutcome::Reply(render_line(&ack))
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
        // Connection-level failures used to vanish: a try_clone error
        // dropped the connection silently and final-flush errors were
        // ignored. Now they are counted and visible.
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

impl ConnHandler for ServeHandler {
    fn on_line(&self, token: ConnToken, line: &str) -> LineOutcome {
        let request = match Request::parse(line) {
            Ok(request) => request,
            Err(message) => {
                return LineOutcome::Reply(render_line(&Json::obj([
                    ("type", "error".into()),
                    ("message", message.into()),
                ])));
            }
        };
        match request {
            Request::Run(spec) => self.respond_run(token, spec),
            Request::Status { job } => {
                let line = match self.scheduler.status(job) {
                    None => Json::obj([
                        ("type", "status".into()),
                        ("job", job.into()),
                        ("state", "unknown".into()),
                    ]),
                    Some(state) => {
                        let mut fields = vec![
                            ("type".to_string(), Json::from("status")),
                            ("job".to_string(), job.into()),
                            ("state".to_string(), state.name().into()),
                        ];
                        if let JobState::Failed(err) = &state {
                            fields.push(("reason".to_string(), err.reason().into()));
                        }
                        Json::Obj(fields)
                    }
                };
                LineOutcome::Reply(render_line(&line))
            }
            Request::Cancel { job } => {
                let ok = self.scheduler.cancel(job);
                LineOutcome::Reply(render_line(&Json::obj([
                    ("type", "cancelled".into()),
                    ("job", job.into()),
                    ("ok", ok.into()),
                ])))
            }
            Request::Stats => LineOutcome::Reply(self.respond_stats()),
            Request::Watch => self.respond_watch(token),
            Request::Shutdown => {
                self.stop.store(true, Ordering::SeqCst);
                self.completions.wake_all();
                LineOutcome::ReplyAndClose(render_line(&Json::obj([("type", "shutdown".into())])))
            }
        }
    }

    /// Drops a closed connection from the watcher list.
    fn on_close(&self, token: ConnToken) {
        let mut state = self.watch.lock().expect("watch state");
        state.watchers.retain(|&watcher| watcher != token);
    }

    /// Sweeps pending waits past [`WAIT_CAP`], degrading each to an
    /// `accepted` line so the connection is never wedged forever.
    fn tick(&self) {
        let now = Instant::now();
        let expired: Vec<(u64, ConnToken)> = {
            let mut waits = self.waits.lock().expect("wait registry");
            let ids: Vec<u64> = waits
                .iter()
                .filter(|(_, w)| w.deadline <= now)
                .map(|(&id, _)| id)
                .collect();
            ids.into_iter()
                .map(|id| {
                    let waiter = waits.remove(&id).expect("listed above");
                    (id, waiter.token)
                })
                .collect()
        };
        for (id, token) in expired {
            self.completions.send(token, render_accepted(id));
        }
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
    use std::io::{BufRead, BufReader, BufWriter, Write};
    use std::net::TcpStream;

    fn spawn_server() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            scheduler: SchedulerConfig {
                workers: 1,
                queue_capacity: 4,
                exec_threads: 1,
                cache_budget: 4 << 20,
            },
            loops: 2,
            ..ServerConfig::default()
        })
        .expect("bind ephemeral");
        let addr = server.local_addr().expect("local addr");
        let handle = std::thread::spawn(move || server.serve().expect("serve"));
        (addr, handle)
    }

    fn roundtrip(addr: SocketAddr, lines: &[String]) -> Vec<Json> {
        let stream = TcpStream::connect(addr).expect("connect");
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
        let stream = TcpStream::connect(addr).expect("connect");
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
            let stream = TcpStream::connect(addr).expect("connect");
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
}
