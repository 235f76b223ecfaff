//! `serve_cold` and `serve_hit`: an in-process sz-serve (2 scheduler
//! workers, 1 pool thread per job, 1 event loop) driven by one client
//! thread over 2 connections in a closed loop. sz-serve callers block
//! on their reply, so each connection sends its next request only once
//! the previous reply's terminal line has arrived.
//!
//! Op classes: serve_cold's 36 (benchmark, level pair) cells, which
//! every block of 36 requests holds once each, split by the samples an
//! adaptive request used; serve_hit's `stats` request and each primed
//! key with and without `trace`.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sz_harness::{pool, Json};
use sz_rng::{fisher_yates, SplitMix64};
use sz_sentinel::{Sentinel, SentinelConfig};
use sz_serve::cache::cache_key;
use sz_serve::event_loop::ffi;
use sz_serve::exec::execute;
use sz_serve::scheduler::SchedulerConfig;
use sz_serve::{AdaptiveParams, Experiment, FederationConfig, Request, RunRequest, ServerConfig};

use crate::cpus;
use crate::metrics::THREADS;
use crate::trace::Tracer;
use crate::workload::{derive_seed, digest, Load, Size, Traced, Workload};

/// Client connections, each a caller blocked on its reply.
const CLIENTS: usize = 2;
/// Result-cache budget: small enough that serve_cold fills it early in
/// every run, so memory use does not grow with the request count.
const CACHE_BUDGET: usize = 8 << 20;
/// Requests executed per pool dispatch in the side pass.
const SIDE_CHUNK: u64 = 16;
/// Requests serve_hit sends from one CPU before moving to the next.
const HIT_TURN: u64 = 10_000;
/// Most samples a serve_cold request uses: 8 runs on each arm.
const MAX_SAMPLES: usize = 16;

/// An in-process server on an ephemeral port; dropping it shuts the
/// server down and joins its thread.
struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl Server {
    fn start() -> Server {
        let server = sz_serve::Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            scheduler: SchedulerConfig {
                workers: THREADS,
                queue_capacity: 8,
                exec_threads: 1,
                cache_budget: CACHE_BUDGET,
            },
            loops: 1,
            federation: FederationConfig::default(),
        })
        .expect("bind an ephemeral port on 127.0.0.1");
        let addr = server.local_addr().expect("bound address");
        let stop = server.stop_handle();
        let thread = std::thread::spawn(move || server.serve());
        Server {
            addr,
            stop,
            thread: Some(thread),
        }
    }

    /// One `stats` round trip on a connection of its own.
    fn stats(&self) -> Json {
        let stream = TcpStream::connect(self.addr).expect("connect to the in-process server");
        writeln!(&stream, "{}", Request::Stats.to_json()).expect("send a stats request");
        let mut line = String::new();
        BufReader::new(&stream)
            .read_line(&mut line)
            .expect("read the stats reply");
        Json::parse(&line).expect("stats replies are JSON")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(stream) = TcpStream::connect(self.addr) {
            let _ = writeln!(&stream, "{}", Request::Shutdown.to_json());
            let _ = BufReader::new(&stream).read_line(&mut String::new());
        }
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// One completed request as the client saw it.
struct Reply<'a> {
    index: u64,
    /// Every reply line, the terminal one last.
    bytes: &'a [u8],
    /// The terminal line, without its newline.
    terminal: &'a [u8],
    sent: Instant,
    first_byte: Instant,
    done: Instant,
}

/// Trace records precede a reply's terminal line.
fn is_terminal(line: &[u8]) -> bool {
    !(line.starts_with(b"{\"type\":\"run\"") || line.starts_with(b"{\"type\":\"summary\""))
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    written: usize,
    buf: Vec<u8>,
    line_start: usize,
    /// The request in flight: index, send time, first-byte time.
    pending: Option<(u64, Instant, Option<Instant>)>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to the in-process server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream
            .set_nonblocking(true)
            .expect("make the socket nonblocking");
        Conn {
            stream,
            out: Vec::new(),
            written: 0,
            buf: Vec::new(),
            line_start: 0,
            pending: None,
        }
    }

    fn send(&mut self, index: u64, line: &str) -> bool {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.written = 0;
        self.pending = Some((index, Instant::now(), None));
        self.flush()
    }

    /// Writes what the socket takes; false when the connection failed.
    fn flush(&mut self) -> bool {
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return false,
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        true
    }

    /// Advances the connection's I/O and hands over a completed reply;
    /// false when the connection failed.
    fn pump(&mut self, on_reply: &mut impl FnMut(Reply<'_>)) -> bool {
        if !self.flush() {
            return false;
        }
        let mut chunk = [0u8; 1 << 16];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return false,
                Ok(n) => {
                    if let Some((_, _, first @ None)) = &mut self.pending {
                        *first = Some(Instant::now());
                    }
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        while let Some(offset) = self.buf[self.line_start..].iter().position(|&b| b == b'\n') {
            let start = self.line_start;
            let end = start + offset;
            self.line_start = end + 1;
            if !is_terminal(&self.buf[start..end]) {
                continue;
            }
            let done = Instant::now();
            // A terminal line with no request in flight breaks the protocol.
            let Some((index, sent, first)) = self.pending.take() else {
                return false;
            };
            on_reply(Reply {
                index,
                bytes: &self.buf[..=end],
                terminal: &self.buf[start..end],
                sent,
                first_byte: first.unwrap_or(done),
                done,
            });
            self.buf.drain(..=end);
            self.line_start = 0;
        }
        true
    }
}

/// Drives [`CLIENTS`] connections in a closed loop until `next` runs
/// dry and every reply is in. Returns the indices of requests lost to
/// a failed connection, which is replaced by a fresh one.
fn drive(
    addr: SocketAddr,
    mut next: impl FnMut() -> Option<(u64, String)>,
    mut on_reply: impl FnMut(Reply<'_>),
) -> Vec<u64> {
    let mut conns: Vec<Conn> = (0..CLIENTS).map(|_| Conn::connect(addr)).collect();
    let mut lost = Vec::new();
    let mut fds = Vec::with_capacity(CLIENTS);
    let mut slots = Vec::with_capacity(CLIENTS);
    let mut exhausted = false;
    loop {
        for conn in &mut conns {
            if conn.pending.is_some() || exhausted {
                continue;
            }
            match next() {
                Some((index, line)) => {
                    if !conn.send(index, &line) {
                        lost.push(index);
                        *conn = Conn::connect(addr);
                    }
                }
                None => exhausted = true,
            }
        }
        fds.clear();
        slots.clear();
        for (k, conn) in conns.iter().enumerate() {
            if conn.pending.is_some() {
                let write = if conn.written < conn.out.len() {
                    ffi::POLLOUT
                } else {
                    0
                };
                fds.push(ffi::PollFd {
                    fd: conn.stream.as_raw_fd(),
                    events: ffi::POLLIN | write,
                    revents: 0,
                });
                slots.push(k);
            }
        }
        if fds.is_empty() {
            return lost;
        }
        if ffi::poll_fds(&mut fds, 1_000) < 0 {
            let err = io::Error::last_os_error();
            assert!(
                err.kind() == io::ErrorKind::Interrupted,
                "poll failed: {err}"
            );
            continue;
        }
        for (slot, &k) in slots.iter().enumerate() {
            if fds[slot].revents != 0 && !conns[k].pump(&mut on_reply) {
                if let Some((index, ..)) = conns[k].pending {
                    lost.push(index);
                }
                conns[k] = Conn::connect(addr);
            }
        }
    }
}

/// The measured phase both serve workloads share: requests `0, 1, ...`
/// in the closed loop until the prefix is done and `budget` has passed.
/// With `turn`, the process moves to the next CPU after every `turn`
/// replies. `check` returns a correct reply's op class and fingerprint,
/// or why it is wrong; only correct replies are timed.
fn closed_loop(
    server: &Server,
    prefix: u64,
    budget: Duration,
    turn: Option<u64>,
    line: impl Fn(u64) -> String,
    mut check: impl FnMut(&Reply<'_>) -> Result<(usize, u128), String>,
) -> Load {
    let mut load = Load {
        prefix: vec![0; prefix as usize],
        ..Load::default()
    };
    let mut prefix_done = 0;
    let mut issued = 0;
    let start = Instant::now();
    let lost = drive(
        server.addr,
        || {
            if issued >= prefix && start.elapsed() >= budget {
                return None;
            }
            issued += 1;
            Some((issued - 1, line(issued - 1)))
        },
        |reply| {
            let i = reply.index;
            load.attempted += 1;
            match check(&reply) {
                Ok((class, fingerprint)) => {
                    load.ops.record(class, reply.done - reply.sent);
                    if i < prefix {
                        load.prefix[i as usize] = fingerprint;
                    }
                }
                Err(message) => {
                    load.failed += 1;
                    load.fail(format!("request {i}: {message}"));
                }
            }
            if let Some(turn) = turn.filter(|t| load.attempted.is_multiple_of(*t)) {
                cpus::pin_process((load.attempted / turn) as usize);
            }
            if i < prefix {
                prefix_done += 1;
                if prefix_done == prefix {
                    load.prefix_wall = start.elapsed();
                }
            }
        },
    );
    load.wall = start.elapsed();
    for index in lost {
        load.attempted += 1;
        load.failed += 1;
        load.fail(format!("request {index} lost with its connection"));
    }
    load
}

/// Requests replayed with client spans, as the traced runs see them.
struct Replayed {
    traced: Traced,
    latency_ns: Vec<f64>,
    reply_bytes: u64,
}

/// Replays requests `0..n` against `server` with a span per request
/// (send → terminal line) and its first-byte / read-reply children.
fn replay(
    server: &Server,
    n: u64,
    line: impl Fn(u64) -> String,
    fingerprint: impl Fn(&Reply<'_>) -> u128,
    tracer: &Tracer,
) -> Replayed {
    let mut out = Replayed {
        traced: Traced {
            prefix: vec![0; n as usize],
            ..Traced::default()
        },
        latency_ns: vec![0.0; n as usize],
        reply_bytes: 0,
    };
    let mut issued = 0;
    let start = Instant::now();
    let lost = drive(
        server.addr,
        || {
            (issued < n).then(|| {
                issued += 1;
                (issued - 1, line(issued - 1))
            })
        },
        |reply| {
            let req = Some(reply.index);
            let id = tracer.span_at("serve.request", reply.sent, reply.done, None, req);
            tracer.span_at(
                "szserve.first_byte",
                reply.sent,
                reply.first_byte,
                Some(id),
                req,
            );
            tracer.span_at(
                "szserve.read_reply",
                reply.first_byte,
                reply.done,
                Some(id),
                req,
            );
            let i = reply.index as usize;
            out.latency_ns[i] = (reply.done - reply.sent).as_nanos() as f64;
            out.traced.prefix[i] = fingerprint(&reply);
            out.reply_bytes += reply.bytes.len() as u64;
        },
    );
    out.traced.wall = start.elapsed();
    if !lost.is_empty() {
        out.traced
            .failures
            .push(format!("traced replay lost requests {lost:?}"));
    }
    out
}

/// Side pass after a traced replay, outside its wall: the layers behind
/// the front end, called directly on the same request lines. Returns
/// each request's `exec::execute` time (0 when `run_jobs` is false).
fn side_pass(n: u64, line: impl Fn(u64) -> String, run_jobs: bool, tracer: &Tracer) -> Vec<f64> {
    let cancel = AtomicBool::new(false);
    let mut sentinel = Sentinel::new(SentinelConfig::default());
    let mut execute_ns = vec![0.0; n as usize];
    let mut first = 0;
    while first < n {
        let jobs: Vec<(u64, RunRequest)> = (first..n.min(first + SIDE_CHUNK))
            .filter_map(|i| {
                let line = line(i);
                let parsed = tracer.time("szserve.parse", None, Some(i), || Request::parse(&line));
                let Ok(Request::Run(spec)) = parsed else {
                    return None;
                };
                tracer.time("szserve.cache_key", None, Some(i), || cache_key(&spec));
                run_jobs.then_some((i, spec))
            })
            .collect();
        first += SIDE_CHUNK;
        let outputs = pool::run_indexed(THREADS, jobs.len(), |k| {
            let (i, spec) = &jobs[k];
            let span = tracer.span("szserve.execute", None, Some(*i));
            let output = execute(spec, 1, &cancel, None);
            (*i, output, span.end())
        });
        for (i, output, ns) in outputs {
            execute_ns[i as usize] = ns;
            if let Ok(output) = output {
                tracer.time("szsentinel.feed", None, Some(i), || {
                    for line in output.trace.lines() {
                        let _ = sentinel.ingest_line(line);
                    }
                });
            }
        }
    }
    execute_ns
}

/// Fills the per-layer values both serve workloads share.
fn finish(
    replayed: Replayed,
    execute_ns: &[f64],
    before: &Json,
    after: &Json,
    tracer: &Tracer,
) -> Traced {
    let mut traced = replayed.traced;
    let delta = |path: &[&str]| {
        let read = |s: &Json| {
            path.iter()
                .try_fold(s, |v, key| v.get(key))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN)
        };
        read(after) - read(before)
    };
    let queue_wait: f64 = replayed
        .latency_ns
        .iter()
        .zip(execute_ns)
        .map(|(latency, exec)| (latency - exec).max(0.0))
        .sum();
    traced.capacity_s = THREADS as f64 * traced.wall.as_secs_f64();
    traced.attributed_s = [
        "szserve.parse",
        "szserve.cache_key",
        "szserve.execute",
        "szsentinel.feed",
    ]
    .iter()
    .map(|n| tracer.seconds(n))
    .sum();
    traced.values = vec![
        ("szserve.reply_bytes", replayed.reply_bytes as f64),
        ("szserve.queue_wait_s", queue_wait / 1e9),
        ("szserve.cache_hits", delta(&["cache", "hits"])),
        ("szserve.cache_misses", delta(&["cache", "misses"])),
        ("szserve.rejected", delta(&["rejected"])),
        ("szserve.conn_errors", delta(&["conn_errors"])),
    ];
    traced
}

/// A seeded order of `n` benchmarks for block `block` of requests.
fn block_order(seed: u64, block: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    fisher_yates(&mut order, &mut SplitMix64::new(derive_seed(seed, block)));
    order
}

/// A fixed-protocol `evaluate` of one benchmark at Tiny scale, 8 runs.
fn evaluate(benchmark: &str, seed_base: u64, upgrade: bool) -> RunRequest {
    let mut spec = RunRequest::quick(Experiment::Evaluate);
    spec.benchmarks = Some(vec![benchmark.to_string()]);
    spec.runs = 8;
    spec.seed_base = seed_base;
    if upgrade {
        spec.before_opt = "O2".into();
        spec.after_opt = "O3".into();
    }
    spec
}

fn wire(spec: RunRequest) -> String {
    Request::Run(spec).to_json().to_string()
}

/// `serve_cold`: `evaluate` requests that all miss the cache.
pub struct Cold {
    server: Server,
    seed_base: u64,
    names: Vec<&'static str>,
    /// Requests in the pinned prefix.
    prefix: u64,
    /// Leading requests re-executed directly through `exec::execute`.
    checked: u64,
}

impl Cold {
    /// Request `i`. Each block of `2 × suite` requests holds every
    /// benchmark once as O1→O2 and once as O2→O3, a fixed quarter of
    /// them adaptive, in a seeded order; every request has a fresh
    /// `seed_base` so it misses the cache. Every seed thus sends the
    /// same mix, and every block of it costs about the same.
    fn spec(&self, i: u64) -> RunRequest {
        let cell = self.cell(i);
        let (benchmark, upgrade) = (cell / 2, cell % 2 == 1);
        let seed_base = derive_seed(self.seed_base, i + 1);
        let mut spec = evaluate(self.names[benchmark], seed_base, upgrade);
        if (benchmark + cell % 2).is_multiple_of(4) {
            spec.adaptive = Some(AdaptiveParams {
                max_runs: spec.runs,
                ..AdaptiveParams::default()
            });
        }
        spec
    }

    /// The cell of its block that request `i` runs.
    fn cell(&self, i: u64) -> usize {
        let cells = 2 * self.names.len();
        block_order(self.seed_base, i / cells as u64, cells)[(i % cells as u64) as usize]
    }

    fn line(&self, i: u64) -> String {
        wire(self.spec(i))
    }
}

/// A cold reply's checked content, the `result` line's summary and
/// sample counts (the job id depends on arrival order and is left out),
/// and the samples it used.
fn cold_result(terminal: &[u8]) -> Result<(String, usize), String> {
    let text = String::from_utf8_lossy(terminal);
    let v = Json::parse(&text).map_err(|e| format!("unparsable reply {text}: {e}"))?;
    if v.get("type").and_then(Json::as_str) != Some("result") {
        return Err(format!("got {text}"));
    }
    if v.get("cached").and_then(Json::as_bool) != Some(false) {
        return Err(format!(
            "a fresh seed_base was served from the cache: {text}"
        ));
    }
    let field = |k: &str| v.get(k).map(ToString::to_string).unwrap_or_default();
    let used = v
        .get("samples_used")
        .and_then(Json::as_u64)
        .and_then(|n| usize::try_from(n).ok())
        .filter(|&n| n <= MAX_SAMPLES)
        .ok_or_else(|| format!("samples_used missing or above {MAX_SAMPLES}: {text}"))?;
    let content = format!(
        "{}|{}|{}",
        field("summary"),
        field("samples_used"),
        field("samples_saved")
    );
    Ok((content, used))
}

impl Workload for Cold {
    const IN_FLIGHT: usize = CLIENTS;

    fn setup(seed: u64, size: Size) -> Self {
        let server = Server::start();
        // One warm-up evaluate per worker, outside the measured seeds.
        collect(&server, &[1, 2].map(|s| wire(evaluate("hmmer", s, s == 2))));
        Cold {
            server,
            seed_base: derive_seed(seed, 17),
            names: sz_workloads::suite().iter().map(|s| s.name).collect(),
            prefix: match size {
                Size::Full => 400,
                Size::Tiny => 8,
            },
            checked: 8,
        }
    }

    fn sizes(&self) -> Json {
        Json::obj([
            ("prefix_requests", self.prefix.into()),
            ("checked_requests", self.checked.into()),
            ("clients", CLIENTS.into()),
            ("workers", THREADS.into()),
            ("seed_base", self.seed_base.into()),
        ])
    }

    fn measure(&mut self, budget: Duration) -> Load {
        let mut checked = vec![String::new(); self.checked as usize];
        let mut load = closed_loop(
            &self.server,
            self.prefix,
            budget,
            None,
            |i| self.line(i),
            |reply| {
                let (content, used) = cold_result(reply.terminal)?;
                let fingerprint = digest(content.as_bytes());
                if let Some(slot) = checked.get_mut(reply.index as usize) {
                    *slot = content;
                }
                let class = self.cell(reply.index) * (MAX_SAMPLES + 1) + used;
                Ok((class, fingerprint))
            },
        );
        let prefix_bytes: Vec<u8> = load.prefix.iter().flat_map(|d| d.to_le_bytes()).collect();
        load.digest = digest(&prefix_bytes);

        let cancel = AtomicBool::new(false);
        for (i, served) in checked.iter().enumerate() {
            let direct = execute(&self.spec(i as u64), 1, &cancel, None)
                .map(|out| format!("{}|{}|{}", out.summary, out.samples_used, out.samples_saved));
            if direct.as_ref() != Ok(served) {
                load.fail(format!(
                    "request {i}: served {served}, exec::execute gives {direct:?}"
                ));
            }
        }
        load
    }

    fn trace(&mut self, _load: &Load, tracer: &Tracer) -> Traced {
        // A fresh server: the measured run left these results cached.
        let server = Server::start();
        let before = server.stats();
        let replayed = replay(
            &server,
            self.prefix,
            |i| self.line(i),
            |reply| cold_result(reply.terminal).map_or(0, |(c, _)| digest(c.as_bytes())),
            tracer,
        );
        let after = server.stats();
        drop(server);
        let execute_ns = side_pass(self.prefix, |i| self.line(i), true, tracer);
        finish(replayed, &execute_ns, &before, &after, tracer)
    }
}

/// `serve_hit`: cache hits on primed results interleaved with `stats`.
pub struct Hit {
    server: Server,
    seed_base: u64,
    /// Per primed key, the request line without and with `trace`.
    lines: Vec<[String; 2]>,
    /// Per primed key, the hit reply without and with `trace`.
    canonical: Vec<[Vec<u8>; 2]>,
    /// Per primed key, the traced reply of the priming miss.
    primed: Vec<Vec<u8>>,
    stats_line: String,
    /// Requests in the pinned prefix.
    prefix: u64,
}

enum Ask {
    Stats,
    Hit { key: usize, trace: bool },
}

impl Hit {
    /// Request `i`: every fourth is `stats`; the rest cycle through the
    /// primed keys, one in eight asking for the traced replay. Traced
    /// replies are then 9% of requests, so p95 lies inside them rather
    /// than on the edge between them and plain hits.
    fn ask(&self, i: u64) -> Ask {
        if i % 4 == 3 {
            return Ask::Stats;
        }
        let h = 3 * (i / 4) + i % 4;
        Ask::Hit {
            key: (h % self.lines.len() as u64) as usize,
            trace: (h + h / 16).is_multiple_of(8),
        }
    }

    fn line(&self, i: u64) -> String {
        match self.ask(i) {
            Ask::Stats => self.stats_line.clone(),
            Ask::Hit { key, trace } => self.lines[key][usize::from(trace)].clone(),
        }
    }

    /// Request `i`'s op class, which is also what a correct reply to it
    /// fingerprints to.
    fn class(&self, i: u64) -> usize {
        match self.ask(i) {
            Ask::Stats => 0,
            Ask::Hit { key, trace } => 1 + 2 * key + usize::from(trace),
        }
    }

    /// A reply's fingerprint: its request's [`Hit::class`] when it is
    /// right, its content digest when it is not.
    fn fingerprint(&self, reply: &Reply<'_>) -> u128 {
        let right = match self.ask(reply.index) {
            Ask::Stats => reply.terminal.starts_with(b"{\"type\":\"stats\""),
            Ask::Hit { key, trace } => reply.bytes == self.canonical[key][usize::from(trace)],
        };
        if right {
            self.class(reply.index) as u128
        } else {
            digest(reply.bytes)
        }
    }

    /// Hits must be `"cached":true`; a traced hit must replay the
    /// priming run's trace byte for byte and end with the plain hit's
    /// line.
    fn check_primed(&self, load: &mut Load) {
        for (k, (hit, miss)) in self.canonical.iter().zip(&self.primed).enumerate() {
            let (trace, terminal) = split_terminal(&hit[1]);
            let (miss_trace, miss_terminal) = split_terminal(miss);
            let cached = |line: &[u8]| String::from_utf8_lossy(line).contains("\"cached\":true");
            if !cached(terminal) || cached(miss_terminal) {
                load.fail(format!(
                    "key {k}: priming or hit reply has the wrong cached flag"
                ));
            }
            if trace != miss_trace || trace.is_empty() {
                load.fail(format!(
                    "key {k}: the traced hit does not replay the priming trace"
                ));
            }
            if hit[0] != terminal {
                load.fail(format!("key {k}: plain and traced hits end differently"));
            }
        }
    }
}

/// Splits a reply into its trace lines and its terminal line (with
/// its newline).
fn split_terminal(reply: &[u8]) -> (&[u8], &[u8]) {
    let body = &reply[..reply.len().saturating_sub(1)];
    let cut = body.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
    reply.split_at(cut)
}

/// Sends `lines` through the closed loop and returns every reply.
fn collect(server: &Server, lines: &[String]) -> Vec<Vec<u8>> {
    let mut replies = vec![Vec::new(); lines.len()];
    let mut next = 0;
    let lost = drive(
        server.addr,
        || {
            let i = next;
            next += 1;
            lines.get(i).map(|l| (i as u64, l.clone()))
        },
        |reply| replies[reply.index as usize] = reply.bytes.to_vec(),
    );
    assert!(lost.is_empty(), "set-up requests {lost:?} lost");
    replies
}

impl Workload for Hit {
    const IN_FLIGHT: usize = CLIENTS;

    /// Pins the process to one CPU before the server starts, so its
    /// threads inherit it. The load is two busy threads, the client and
    /// the event loop; left to the scheduler they share one CPU in some
    /// runs and use two in others, and tail latency differs by ~20%
    /// between the two cases.
    fn setup(seed: u64, size: Size) -> Self {
        cpus::pin_process(0);
        let suite = sz_workloads::suite();
        let (keys, prefix) = match size {
            Size::Full => (suite.len(), 200_000),
            Size::Tiny => (4, 200),
        };
        let seed_base = derive_seed(seed, 19);
        // One key per benchmark with a fixed level pair, so every seed's
        // traced replies have the same sizes; the seed picks the layouts.
        let lines: Vec<[String; 2]> = suite[..keys]
            .iter()
            .enumerate()
            .map(|(k, bench)| {
                let spec = evaluate(bench.name, derive_seed(seed_base, k as u64 + 1), k % 2 == 1);
                let traced = RunRequest {
                    trace: true,
                    ..spec.clone()
                };
                [wire(spec), wire(traced)]
            })
            .collect();
        let server = Server::start();
        let traced: Vec<String> = lines.iter().map(|l| l[1].clone()).collect();
        let primed = collect(&server, &traced);
        let both: Vec<String> = lines.iter().flat_map(|l| l.iter().cloned()).collect();
        let canonical = collect(&server, &both)
            .chunks(2)
            .map(|pair| [pair[0].clone(), pair[1].clone()])
            .collect();
        Hit {
            server,
            seed_base,
            lines,
            canonical,
            primed,
            stats_line: Request::Stats.to_json().to_string(),
            prefix,
        }
    }

    fn sizes(&self) -> Json {
        Json::obj([
            ("primed_keys", self.lines.len().into()),
            ("prefix_requests", self.prefix.into()),
            ("clients", CLIENTS.into()),
            ("seed_base", self.seed_base.into()),
        ])
    }

    fn measure(&mut self, budget: Duration) -> Load {
        let mut load = closed_loop(
            &self.server,
            self.prefix,
            budget,
            Some(HIT_TURN),
            |i| self.line(i),
            |reply| {
                let class = self.class(reply.index);
                let fingerprint = self.fingerprint(reply);
                if fingerprint == class as u128 {
                    Ok((class, fingerprint))
                } else {
                    Err(format!(
                        "unexpected reply {}",
                        String::from_utf8_lossy(reply.terminal)
                    ))
                }
            },
        );
        self.check_primed(&mut load);
        let canonical: Vec<u8> = self.canonical.iter().flatten().flatten().copied().collect();
        load.digest = digest(&canonical);
        load
    }

    fn trace(&mut self, _load: &Load, tracer: &Tracer) -> Traced {
        let before = self.server.stats();
        let replayed = replay(
            &self.server,
            self.prefix,
            |i| self.line(i),
            |reply| self.fingerprint(reply),
            tracer,
        );
        let after = self.server.stats();
        // Hits never execute: the side pass only parses and keys.
        let execute_ns = side_pass(self.prefix, |i| self.line(i), false, tracer);
        finish(replayed, &execute_ns, &before, &after, tracer)
    }
}
