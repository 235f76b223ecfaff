//! An open-loop load generator for sz-serve.
//!
//! One thread drives N concurrent clients through `poll(2)`
//! ([`crate::event_loop::ffi`]). Each client alternates a cache-hit `run` request with a `stats`
//! request, measuring the wall time from enqueueing the request to
//! receiving its terminal reply line. Latencies land in an HDR-style
//! log-linear histogram: exact microsecond buckets below 64 µs, then
//! 32 sub-buckets per power of two — constant ~3% relative error at
//! any magnitude, constant memory.
//!
//! Requests run in `waves`: every client issues its quota, the wave's
//! p99 is recorded, and the next wave starts on the same connections.
//! Per-wave p99s are the *samples* the benchmark gate judges
//! (`samples_p99_us` in `BENCH_sim.json`), so a latency regression is
//! assessed with the same robust statistics as every other gate.
//!
//! The cache-hit run is primed once before the waves begin, so the
//! steady state exercises the front end and the cache path — not the
//! simulator. The server gives each connection a thread of its own, so
//! N clients are N server threads, and the first wave also pays for
//! starting them.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use sz_harness::{Json, RingBuffer};

use crate::event_loop::ffi;

/// The cacheable request every client hammers (tiny, one benchmark).
pub const HIT_REQUEST: &str =
    r#"{"type":"run","experiment":"table1","benchmarks":["bzip2"],"runs":2}"#;
/// The metadata request interleaved with the cache hits.
const STATS_REQUEST: &str = r#"{"type":"stats"}"#;

/// Load-generator sizing.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server to connect to (`host:port`).
    pub addr: String,
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests per client per wave.
    pub requests_per_client: usize,
    /// Waves (each contributes one p99 sample).
    pub waves: usize,
    /// Abort if a single wave exceeds this.
    pub wave_timeout: Duration,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: crate::proto::DEFAULT_ADDR.to_string(),
            clients: 128,
            requests_per_client: 4,
            waves: 5,
            wave_timeout: Duration::from_secs(120),
        }
    }
}

/// HDR-style log-linear latency histogram over microseconds: exact
/// buckets for `0..64`, then 32 linear sub-buckets per octave.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    max: u64,
}

/// Exact one-microsecond buckets below this value.
const LINEAR_CUTOFF: u64 = 64;
/// Sub-buckets per octave above the cutoff.
const SUB_BUCKETS: u64 = 32;

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram covering the full `u64` microsecond range.
    pub fn new() -> Histogram {
        // Octaves 6..=63, 32 sub-buckets each, after the linear run.
        let buckets = LINEAR_CUTOFF as usize + (64 - 6) * SUB_BUCKETS as usize;
        Histogram {
            buckets: vec![0; buckets],
            count: 0,
            max: 0,
        }
    }

    fn index(us: u64) -> usize {
        if us < LINEAR_CUTOFF {
            return us as usize;
        }
        let octave = 63 - us.leading_zeros() as u64; // >= 6
        let sub = (us >> (octave - 5)) & (SUB_BUCKETS - 1);
        (LINEAR_CUTOFF + (octave - 6) * SUB_BUCKETS + sub) as usize
    }

    /// The lower bound of bucket `idx` (what quantiles report).
    fn bucket_value(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < LINEAR_CUTOFF {
            return idx;
        }
        let octave = 6 + (idx - LINEAR_CUTOFF) / SUB_BUCKETS;
        let sub = (idx - LINEAR_CUTOFF) % SUB_BUCKETS;
        (1u64 << octave) + (sub << (octave - 5))
    }

    /// Records one latency.
    pub fn record(&mut self, us: u64) {
        self.buckets[Self::index(us)] += 1;
        self.count += 1;
        self.max = self.max.max(us);
    }

    /// Recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The exact largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (0..=1) in microseconds, with the histogram's
    /// ~3% bucket resolution. Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_value(idx);
            }
        }
        self.max
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }
}

/// What a load-generation session measured.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Concurrent connections driven.
    pub clients: usize,
    /// Replies received across all waves.
    pub requests: u64,
    /// Connections lost to I/O errors.
    pub errors: u64,
    /// Total wall time across the waves.
    pub elapsed_ms: f64,
    /// Median request latency (µs).
    pub p50_us: u64,
    /// 90th-percentile latency (µs).
    pub p90_us: u64,
    /// 99th-percentile latency (µs), all waves pooled.
    pub p99_us: u64,
    /// Largest observed latency (µs).
    pub max_us: u64,
    /// One p99 per wave — the gate's per-sample array.
    pub samples_p99_us: Vec<u64>,
    /// Replies per second across the session.
    pub throughput_rps: f64,
}

impl LoadgenReport {
    /// The `loadgen` object embedded in `BENCH_sim.json`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("clients", self.clients.into()),
            ("requests", self.requests.into()),
            ("errors", self.errors.into()),
            ("elapsed_ms", self.elapsed_ms.into()),
            ("p50_us", self.p50_us.into()),
            ("p90_us", self.p90_us.into()),
            ("p99_us", self.p99_us.into()),
            ("max_us", self.max_us.into()),
            (
                "samples_p99_us",
                Json::Arr(self.samples_p99_us.iter().map(|&v| v.into()).collect()),
            ),
            ("throughput_rps", self.throughput_rps.into()),
        ])
    }
}

/// One driven connection's state machine.
struct Client {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    sent_at: Option<Instant>,
    /// Requests still to issue this wave (not counting the in-flight
    /// one).
    remaining: usize,
    /// Lifetime request counter — drives the run/stats alternation.
    sequence: u64,
    dead: bool,
}

impl Client {
    fn enqueue_next(&mut self, now: Instant) {
        let line = if self.sequence.is_multiple_of(2) {
            HIT_REQUEST
        } else {
            STATS_REQUEST
        };
        self.sequence += 1;
        self.wbuf.extend_from_slice(line.as_bytes());
        self.wbuf.push(b'\n');
        self.sent_at = Some(now);
    }

    fn wants_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    fn idle(&self) -> bool {
        self.dead || (self.remaining == 0 && self.sent_at.is_none() && !self.wants_write())
    }
}

/// Primes the server's result cache so the waves measure the cache
/// path, then returns.
///
/// # Errors
///
/// Connection or protocol failures against `addr`.
pub fn prime_cache(addr: &str) -> io::Result<()> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = &stream;
    writeln!(writer, "{HIT_REQUEST}")?;
    let mut reader = BufReader::new(&stream);
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed during cache priming",
        ));
    }
    if !line.contains("\"type\":\"result\"") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("cache priming got {}", line.trim_end()),
        ));
    }
    Ok(())
}

/// Connects `config.clients` clients and drives the waves.
///
/// # Errors
///
/// Failing to connect the fleet or to prime the cache; a wave
/// exceeding `wave_timeout`. Individual connection failures mid-wave
/// are counted in `errors`, not returned.
pub fn run_loadgen(config: &LoadgenConfig) -> io::Result<LoadgenReport> {
    prime_cache(&config.addr)?;

    let mut clients = Vec::with_capacity(config.clients);
    for _ in 0..config.clients {
        let stream = TcpStream::connect(&config.addr)?;
        stream.set_nodelay(true).ok();
        stream.set_nonblocking(true)?;
        clients.push(Client {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            sent_at: None,
            remaining: 0,
            sequence: 0,
            dead: false,
        });
    }

    let mut pooled = Histogram::new();
    // Bounded per-wave p99 store: the shared harness ring keeps the
    // most recent waves if a caller ever asks for more waves than the
    // gate's sample budget needs.
    let mut samples_p99_us = RingBuffer::new(config.waves.max(1));
    let mut errors = 0u64;
    let started = Instant::now();

    for _ in 0..config.waves.max(1) {
        let mut wave = Histogram::new();
        let wave_started = Instant::now();
        let now = Instant::now();
        for client in clients.iter_mut().filter(|c| !c.dead) {
            client.remaining = config.requests_per_client.max(1) - 1;
            client.enqueue_next(now);
        }

        let mut fds: Vec<ffi::PollFd> = Vec::new();
        let mut slots: Vec<usize> = Vec::new();
        while !clients.iter().all(Client::idle) {
            if wave_started.elapsed() > config.wave_timeout {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "loadgen wave timed out",
                ));
            }
            fds.clear();
            slots.clear();
            for (idx, client) in clients.iter().enumerate() {
                if client.idle() {
                    continue;
                }
                let mut events = ffi::POLLIN;
                if client.wants_write() {
                    events |= ffi::POLLOUT;
                }
                fds.push(ffi::PollFd {
                    fd: std::os::unix::io::AsRawFd::as_raw_fd(&client.stream),
                    events,
                    revents: 0,
                });
                slots.push(idx);
            }
            let n = ffi::poll_fds(&mut fds, 100);
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(err);
            }
            for (slot, &idx) in slots.iter().enumerate() {
                if fds[slot].revents == 0 {
                    continue;
                }
                let client = &mut clients[idx];
                if !pump(client, &mut wave) {
                    client.dead = true;
                    errors += 1;
                }
            }
        }
        samples_p99_us.push(wave.quantile(0.99));
        pooled.merge(&wave);
    }

    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    Ok(LoadgenReport {
        clients: config.clients,
        requests: pooled.count(),
        errors,
        elapsed_ms,
        p50_us: pooled.quantile(0.50),
        p90_us: pooled.quantile(0.90),
        p99_us: pooled.quantile(0.99),
        max_us: pooled.max(),
        samples_p99_us: samples_p99_us.to_vec(),
        throughput_rps: pooled.count() as f64 / (elapsed_ms / 1e3).max(1e-9),
    })
}

/// Advances one client's I/O; false means the connection failed.
fn pump(client: &mut Client, wave: &mut Histogram) -> bool {
    while client.wants_write() {
        match client.stream.write(&client.wbuf[client.wpos..]) {
            Ok(0) => return false,
            Ok(n) => client.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    if client.wpos == client.wbuf.len() {
        client.wbuf.clear();
        client.wpos = 0;
    }

    let mut chunk = [0u8; 4096];
    loop {
        match client.stream.read(&mut chunk) {
            Ok(0) => return client.sent_at.is_none() && client.remaining == 0,
            Ok(n) => client.rbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    while let Some(pos) = client.rbuf.iter().position(|&b| b == b'\n') {
        client.rbuf.drain(..=pos);
        // Every loadgen request gets exactly one reply line
        // (trace is never requested), so a newline is a terminal.
        if let Some(sent) = client.sent_at.take() {
            wave.record(sent.elapsed().as_micros() as u64);
            if client.remaining > 0 {
                client.remaining -= 1;
                client.enqueue_next(Instant::now());
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_monotonic_and_exact_below_cutoff() {
        for us in 0..LINEAR_CUTOFF {
            assert_eq!(Histogram::bucket_value(Histogram::index(us)), us);
        }
        let mut last = 0;
        for us in [64u64, 65, 100, 1_000, 10_000, 1_000_000, u64::MAX / 2] {
            let idx = Histogram::index(us);
            let lo = Histogram::bucket_value(idx);
            assert!(lo <= us, "bucket lower bound {lo} > {us}");
            // Log-linear: the bucket is within ~1/32 of the value.
            assert!((us - lo) as f64 <= us as f64 / 16.0, "{us} -> {lo}");
            assert!(idx >= last, "indices must be monotone");
            last = idx;
        }
    }

    #[test]
    fn quantiles_track_recorded_values() {
        let mut h = Histogram::new();
        for us in 1..=1000u64 {
            h.record(us);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        assert!((450..=550).contains(&p50), "p50 {p50}");
        assert!((950..=1000).contains(&p99), "p99 {p99}");
        assert!(h.quantile(1.0) >= p99);
        assert_eq!(Histogram::new().quantile(0.99), 0);
    }

    #[test]
    fn merge_pools_counts_and_max() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(5_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 5_000);
    }

    #[test]
    fn report_json_has_the_gate_fields() {
        let report = LoadgenReport {
            clients: 8,
            requests: 64,
            errors: 0,
            elapsed_ms: 12.5,
            p50_us: 100,
            p90_us: 200,
            p99_us: 300,
            max_us: 400,
            samples_p99_us: vec![290, 300, 310],
            throughput_rps: 5120.0,
        };
        let json = report.to_json();
        assert_eq!(json.get("p99_us").unwrap().as_u64(), Some(300));
        assert_eq!(
            json.get("samples_p99_us").unwrap().as_arr().unwrap().len(),
            3
        );
    }
}
