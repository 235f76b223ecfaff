//! End-to-end tests against a live `sz-serve` instance on an
//! ephemeral port: cache-hit bit-identity, cache keys, backpressure,
//! cancellation, the adaptive-stopping golden run, and a 64-client
//! burst.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use sz_harness::Json;
use sz_serve::scheduler::SchedulerConfig;
use sz_serve::{Server, ServerConfig};

fn start(workers: usize, queue_capacity: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        scheduler: SchedulerConfig {
            workers,
            queue_capacity,
            exec_threads: 2,
            cache_budget: 32 << 20,
        },
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("resolved addr");
    let handle = std::thread::spawn(move || server.serve().expect("serve"));
    (addr, handle)
}

/// One request over a fresh connection; returns every response line
/// (trace records included) up to and including the terminal line.
fn request(addr: SocketAddr, line: &str) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
    writeln!(writer, "{line}").expect("send");
    writer.flush().expect("flush");
    let mut lines = Vec::new();
    for response in BufReader::new(stream).lines() {
        let response = response.expect("receive");
        let value = Json::parse(&response).expect("responses are well-formed JSON");
        let ty = value.get("type").and_then(Json::as_str).expect("typed");
        let terminal = !matches!(ty, "run" | "summary");
        lines.push(response);
        if terminal {
            return lines;
        }
    }
    panic!("connection closed before a terminal line");
}

fn terminal(lines: &[String]) -> Json {
    Json::parse(lines.last().expect("at least one line")).expect("well-formed")
}

fn shutdown(addr: SocketAddr, handle: std::thread::JoinHandle<()>) {
    let lines = request(addr, r#"{"type":"shutdown"}"#);
    assert_eq!(
        terminal(&lines).get("type").unwrap().as_str(),
        Some("shutdown")
    );
    handle.join().expect("server exits cleanly");
}

/// A hit replays its miss byte for byte: the same trace lines, then
/// the miss's terminal line without its `"job":N,` and with `"cached"`
/// flipped to true. Covers table1, a fixed and an adaptive evaluate,
/// each asked for plain and traced.
#[test]
fn cache_hits_replay_the_miss_byte_for_byte() {
    let (addr, handle) = start(2, 8);
    let bodies = [
        r#""experiment":"table1","benchmarks":["bzip2"],"runs":4"#,
        r#""experiment":"evaluate","benchmarks":["hmmer"],"runs":4"#,
        r#""experiment":"evaluate","benchmarks":["hmmer"],"runs":8,"adaptive":{"max_runs":8}"#,
    ];
    let cases: Vec<(&str, bool)> = bodies
        .iter()
        .flat_map(|&body| [(body, false), (body, true)])
        .collect();
    for (seed, &(body, trace)) in cases.iter().enumerate() {
        // A seed of its own, so each case's first request misses.
        let run = format!(r#"{{"type":"run",{body},"seed_base":{seed},"trace":{trace}}}"#);
        let miss = request(addr, &run);
        let hit = request(addr, &run);
        let (miss_line, hit_line) = (miss.last().unwrap(), hit.last().unwrap());
        assert!(miss_line.contains(r#""cached":false"#), "{run} must miss");
        assert_eq!(
            miss.len() > 1,
            trace,
            "{run}: only traced replies stream run records before the result"
        );
        // Bit-identity: every streamed trace line — full sample vectors
        // and per-period counter snapshots — matches the cold run's
        // bytes.
        assert_eq!(
            &miss[..miss.len() - 1],
            &hit[..hit.len() - 1],
            "{run}: the hit must replay the miss's trace byte for byte"
        );
        let job = terminal(&miss).get("job").unwrap().as_u64().unwrap();
        let job_field = format!(r#""job":{job},"#);
        assert_eq!(miss_line.matches(&job_field).count(), 1, "{miss_line}");
        let expected = miss_line.replacen(&job_field, "", 1).replacen(
            r#""cached":false"#,
            r#""cached":true"#,
            1,
        );
        assert_eq!(hit_line, &expected, "{run}");
    }

    let stats = terminal(&request(addr, r#"{"type":"stats"}"#));
    let cache = stats.get("cache").expect("stats carry cache counters");
    let cases = cases.len() as u64;
    assert_eq!(cache.get("hits").unwrap().as_u64(), Some(cases));
    assert_eq!(cache.get("insertions").unwrap().as_u64(), Some(cases));
    shutdown(addr, handle);
}

/// `band` decides the adaptive verdict and when sampling stops, so two
/// requests that differ only in `band` are two keys: both miss, and
/// each reports its own band.
#[test]
fn adaptive_requests_differing_only_in_band_both_miss() {
    let (addr, handle) = start(1, 4);
    let mut verdicts = Vec::new();
    for band in [0.05, 0.5] {
        let reply = terminal(&request(
            addr,
            &format!(
                r#"{{"type":"run","experiment":"evaluate","benchmarks":["hmmer"],"runs":8,"adaptive":{{"band":{band},"max_runs":8}}}}"#
            ),
        ));
        assert_eq!(
            reply.get("cached").unwrap().as_bool(),
            Some(false),
            "band {band} must miss"
        );
        let practical = reply.get("summary").unwrap().get("practical").unwrap();
        assert_eq!(practical.get("band").unwrap().as_f64(), Some(band));
        verdicts.push(
            practical
                .get("verdict")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string(),
        );
    }
    // A hit keyed without the band would have answered the second
    // request with the first one's verdict.
    assert_eq!(verdicts, ["robustly-faster", "equivalent"]);
    shutdown(addr, handle);
}

#[test]
fn full_queue_rejects_with_retry_after() {
    let (addr, handle) = start(1, 1);
    // Occupy the single worker and the single queue slot with slow
    // sleeps submitted without waiting.
    let sleep = r#"{"type":"run","experiment":"selftest-sleep","sleep_ms":1500,"wait":false}"#;
    assert_eq!(
        terminal(&request(addr, sleep))
            .get("type")
            .unwrap()
            .as_str(),
        Some("accepted")
    );
    // Let the worker dequeue the first job so the next occupies the queue.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        terminal(&request(addr, sleep))
            .get("type")
            .unwrap()
            .as_str(),
        Some("accepted")
    );
    let rejected = terminal(&request(addr, sleep));
    assert_eq!(rejected.get("type").unwrap().as_str(), Some("rejected"));
    let retry = rejected.get("retry_after_ms").unwrap().as_u64().unwrap();
    assert!(retry >= 25, "retry hint should be meaningful, got {retry}");
    shutdown(addr, handle);
}

#[test]
fn queued_jobs_cancel_and_report_status() {
    let (addr, handle) = start(1, 4);
    let sleep = r#"{"type":"run","experiment":"selftest-sleep","sleep_ms":3000,"wait":false}"#;
    let running = terminal(&request(addr, sleep))
        .get("job")
        .unwrap()
        .as_u64()
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let queued = terminal(&request(addr, sleep))
        .get("job")
        .unwrap()
        .as_u64()
        .unwrap();

    let status = terminal(&request(
        addr,
        &format!(r#"{{"type":"status","job":{queued}}}"#),
    ));
    assert_eq!(status.get("state").unwrap().as_str(), Some("queued"));

    let cancelled = terminal(&request(
        addr,
        &format!(r#"{{"type":"cancel","job":{queued}}}"#),
    ));
    assert_eq!(cancelled.get("ok").unwrap().as_bool(), Some(true));
    let status = terminal(&request(
        addr,
        &format!(r#"{{"type":"status","job":{queued}}}"#),
    ));
    assert_eq!(status.get("state").unwrap().as_str(), Some("failed"));
    assert_eq!(status.get("reason").unwrap().as_str(), Some("cancelled"));

    // The running job is flagged best-effort and settles promptly —
    // the sleep checks its cancellation flag every few milliseconds.
    let cancelled = terminal(&request(
        addr,
        &format!(r#"{{"type":"cancel","job":{running}}}"#),
    ));
    assert_eq!(cancelled.get("ok").unwrap().as_bool(), Some(true));
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let status = terminal(&request(
            addr,
            &format!(r#"{{"type":"status","job":{running}}}"#),
        ));
        if status.get("state").unwrap().as_str() == Some("failed") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "running job did not honor its cancellation flag"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    shutdown(addr, handle);
}

/// The adaptive-stopping golden run: gobmk O1 -> O2, fixed seed. The
/// stop point is pinned — any drift means the sampling stream, the
/// stopping rule, or the statistics changed.
#[test]
fn adaptive_stopping_matches_fixed_verdict_with_fewer_samples() {
    let (addr, handle) = start(1, 4);
    let fixed = terminal(&request(
        addr,
        r#"{"type":"run","experiment":"evaluate","benchmarks":["gobmk"],"runs":30}"#,
    ));
    assert_eq!(fixed.get("type").unwrap().as_str(), Some("result"));
    let fixed_summary = fixed.get("summary").unwrap();
    assert_eq!(fixed_summary.get("mode").unwrap().as_str(), Some("fixed"));
    assert_eq!(fixed.get("samples_used").unwrap().as_u64(), Some(60));
    let fixed_practical = fixed_summary
        .get("practical")
        .expect("fixed mode must report a practical verdict");
    let fixed_verdict = fixed_practical.get("verdict").unwrap().as_str().unwrap();

    let adaptive = terminal(&request(
        addr,
        r#"{"type":"run","experiment":"evaluate","benchmarks":["gobmk"],"runs":30,"adaptive":{"half_width":0.05,"batch":5,"min_runs":5,"max_runs":30}}"#,
    ));
    let summary = adaptive.get("summary").unwrap();
    assert_eq!(summary.get("mode").unwrap().as_str(), Some("adaptive"));
    assert_eq!(summary.get("stopped_early").unwrap().as_bool(), Some(true));

    // Same accept/reject verdict as the fixed 30-run protocol...
    assert_eq!(
        summary.get("significant").unwrap().as_bool(),
        fixed_summary.get("significant").unwrap().as_bool(),
        "adaptive and fixed protocols must agree on the verdict"
    );
    // ...from strictly fewer samples, with the savings reported.
    let used = adaptive.get("samples_used").unwrap().as_u64().unwrap();
    let saved = adaptive.get("samples_saved").unwrap().as_u64().unwrap();
    assert!(used < 60, "adaptive must stop early, used {used}");
    assert_eq!(used + saved, 60, "savings are measured against fixed-30");

    // Golden stop point for seed 0x5EED0000: the first batch where the
    // stopping rule can fire. Samples are a bit-identical prefix of
    // the fixed stream, so this is stable across machines and thread
    // counts.
    assert_eq!(summary.get("samples_per_arm").unwrap().as_u64(), Some(5));

    // The practical verdict ships full audit metadata and matches the
    // fixed protocol's call (gobmk O1 -> O2 is a clear, large win).
    let practical = summary
        .get("practical")
        .expect("adaptive mode must report a practical verdict");
    assert_eq!(
        practical.get("verdict").unwrap().as_str(),
        Some(fixed_verdict),
        "adaptive and fixed must agree on the practical verdict"
    );
    assert_eq!(fixed_verdict, "robustly-faster");
    for key in ["effect_ratio", "effect_lo", "effect_hi", "band"] {
        assert!(
            practical.get(key).unwrap().as_f64().unwrap().is_finite(),
            "{key} must be a finite number"
        );
    }
    assert_eq!(practical.get("n_a").unwrap().as_u64(), Some(5));
    shutdown(addr, handle);
}

#[test]
fn server_survives_a_64_client_concurrent_burst() {
    let (addr, handle) = start(2, 64);
    let clients: Vec<_> = (0..64)
        .map(|i| {
            std::thread::spawn(move || {
                // Mix cacheable work (all clients share one nist key)
                // with uncacheable sleeps so the queue sees pressure.
                let line = if i % 2 == 0 {
                    r#"{"type":"run","experiment":"nist"}"#.to_string()
                } else {
                    r#"{"type":"run","experiment":"selftest-sleep","sleep_ms":5}"#.to_string()
                };
                let lines = request(addr, &line);
                terminal(&lines)
            })
        })
        .collect();
    let mut results = 0;
    let mut rejections = 0;
    for client in clients {
        let response = client.join().expect("client thread survives");
        match response.get("type").unwrap().as_str().unwrap() {
            "result" => results += 1,
            "rejected" => rejections += 1,
            other => panic!("unexpected terminal line type {other:?}"),
        }
    }
    assert_eq!(results + rejections, 64);
    assert!(results > 0, "the burst must make forward progress");
    // The server is still healthy: stats respond and shutdown drains.
    let stats = terminal(&request(addr, r#"{"type":"stats"}"#));
    assert_eq!(stats.get("type").unwrap().as_str(), Some("stats"));
    shutdown(addr, handle);
}

/// Regression: an early thread-per-connection front end joined every
/// handler thread on shutdown, so a connected client that never sent
/// a byte parked its handler in a blocking `read` and hung `serve()`
/// indefinitely. Stopping now shuts down every open connection first,
/// which ends each blocked `read`.
#[test]
fn shutdown_with_a_silent_connected_client_completes_within_the_deadline() {
    let (addr, handle) = start(1, 4);
    // Clients that connect and then go silent — no request, no EOF.
    let silent: Vec<TcpStream> = (0..4)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    std::thread::sleep(Duration::from_millis(100));

    let started = std::time::Instant::now();
    let lines = request(addr, r#"{"type":"shutdown"}"#);
    assert_eq!(
        terminal(&lines).get("type").unwrap().as_str(),
        Some("shutdown")
    );
    handle.join().expect("server exits cleanly");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown must not wait on silent clients (took {:?})",
        started.elapsed()
    );
    drop(silent);
}

/// Satellite: connection and write failures are counted, not dropped.
/// An over-long request line is a `conn_error`; the old front end had
/// no visible counter for either failure class.
#[test]
fn stats_count_connection_errors() {
    let (addr, handle) = start(1, 4);
    let baseline = terminal(&request(addr, r#"{"type":"stats"}"#));
    assert_eq!(baseline.get("conn_errors").unwrap().as_u64(), Some(0));
    assert_eq!(baseline.get("write_errors").unwrap().as_u64(), Some(0));

    // A 1 MiB+ line without a newline overflows the read buffer; the
    // server closes the connection and counts the error.
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let huge = vec![b'x'; (1 << 20) + 4096];
    let _ = (&stream).write_all(&huge);
    let mut closed = String::new();
    assert_eq!(
        BufReader::new(&stream).read_line(&mut closed).unwrap_or(0),
        0,
        "oversized lines close the connection without a reply"
    );
    drop(stream);

    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let stats = terminal(&request(addr, r#"{"type":"stats"}"#));
        if stats.get("conn_errors").unwrap().as_u64() == Some(1) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "conn_errors never incremented"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    shutdown(addr, handle);
}
