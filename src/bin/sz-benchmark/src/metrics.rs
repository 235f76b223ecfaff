//! The declared metrics, the latency sampler, and the result records.
//!
//! `BENCHMARK.json` at the repository root declares the same names,
//! units, directions and bounds; a unit test keeps the two in step.

use std::path::Path;
use std::sync::OnceLock;
use std::time::Duration;

use sz_harness::Json;

/// Worker threads of every pool the benchmark drives, the server's
/// scheduler workers included. Sized for a 2-core host.
pub const THREADS: usize = 2;

/// Version of the header that stamps every result record.
pub const SCHEMA: u64 = 1;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric. `bound` is the share of the baseline median by
/// which an end-to-end metric may worsen before a change counts as a
/// regression; per-layer metrics have none.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every untraced run of every
/// workload. An "op" is the workload's unit of work: a stabilized run
/// (fig7_small), a fuzzed program (fuzz_diff), a request (serve_*), or
/// a trace line (sentinel_replay).
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.20),
    e2e("latency_p50_ms", "ms", Lower, 0.20),
    e2e("latency_p95_ms", "ms", Lower, 0.20),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
];

/// Per-layer metrics, reported by traced runs. Layers are crate names;
/// times are thread-seconds over the workload's pinned prefix of work,
/// corrected for the cost of reading the clock. A layer a workload
/// never calls reads 0.
pub const PER_LAYER: [Metric; 51] = [
    layer("szworkloads.build_s", "s", Lower),
    layer("szopt.optimize_s", "s", Lower),
    layer("szopt.optimize_calls", "count", Lower),
    layer("core.prepare_s", "s", Lower),
    layer("szvm.decode_s", "s", Lower),
    layer("szvm.decode_calls", "count", Lower),
    layer("core.engine_prepare_s", "s", Lower),
    layer("core.enter_s", "s", Lower),
    layer("core.enter_calls", "count", Lower),
    layer("core.pad_s", "s", Lower),
    layer("core.pad_calls", "count", Lower),
    layer("core.tick_s", "s", Lower),
    layer("core.tick_calls", "count", Lower),
    layer("szheap.malloc_free_s", "s", Lower),
    layer("szheap.malloc_free_calls", "count", Lower),
    layer("core.rerandomizations", "count", Lower),
    layer("core.relocations", "count", Lower),
    layer("szvm.run_self_s", "s", Lower),
    layer("szvm.instructions", "count", Lower),
    layer("szvm.ns_per_instr", "ns", Lower),
    layer("szmachine.cycles", "count", Lower),
    layer("szmachine.l1d_misses", "count", Lower),
    layer("szmachine.l3_misses", "count", Lower),
    layer("szmachine.itlb_misses", "count", Lower),
    layer("szmachine.branch_mispredicts", "count", Lower),
    layer("szharness.pool_busy_s", "s", Lower),
    layer("szharness.pool_idle_s", "s", Lower),
    layer("szstats.compare_s", "s", Lower),
    layer("szstats.compare_calls", "count", Lower),
    layer("szfuzz.gen_s", "s", Lower),
    layer("szfuzz.check_s", "s", Lower),
    layer("szfuzz.programs", "count", Higher),
    layer("szserve.first_byte_s", "s", Lower),
    layer("szserve.read_reply_s", "s", Lower),
    layer("szserve.reply_bytes", "bytes", Lower),
    layer("szserve.queue_wait_s", "s", Lower),
    layer("szserve.cache_hits", "count", Higher),
    layer("szserve.cache_misses", "count", Lower),
    layer("szserve.rejected", "count", Lower),
    layer("szserve.conn_errors", "count", Lower),
    layer("szserve.parse_s", "s", Lower),
    layer("szserve.cache_key_s", "s", Lower),
    layer("szserve.execute_s", "s", Lower),
    layer("szsentinel.feed_s", "s", Lower),
    layer("szsentinel.ingest_s", "s", Lower),
    layer("szsentinel.forest_s", "s", Lower),
    layer("szsentinel.lines", "count", Higher),
    layer("szsentinel.alerts", "count", Lower),
    layer("szharness.json_parse_s", "s", Lower),
    layer("trace.unattributed_frac", "fraction", Lower),
    layer("trace.overhead_frac", "fraction", Lower),
];

/// The fewest ops for which p95 has ten samples beyond it, as the
/// percentile rule asks.
pub const MIN_OPS: u64 = 200;

/// Host time of every op, by op class. The ops of one class repeat the
/// same work (one fig7 cell, one fuzz program, one trace line, one kind
/// of request), so the spread inside a class comes from the host, not
/// the workload. A class's time is the fastest of its repeats: on a
/// shared host, interference only ever adds time, and another guest
/// keeping a vCPU's core busy can halve its speed for stretches of
/// milliseconds to seconds, so the fastest repeat is what recurs from
/// run to run.
#[derive(Debug, Clone, Default)]
pub struct OpTimes {
    classes: Vec<Class>,
    count: u64,
}

#[derive(Debug, Clone, Copy)]
struct Class {
    fastest_ns: u64,
    seen: u64,
}

/// The end-to-end timing of a run, from its [`OpTimes`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Ops in flight ÷ mean op time (Little's law for a closed loop).
    pub ops_per_s: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    /// Op classes that ran.
    pub classes: usize,
}

impl OpTimes {
    pub fn record(&mut self, class: usize, d: Duration) {
        if class >= self.classes.len() {
            self.classes.resize(
                class + 1,
                Class {
                    fastest_ns: u64::MAX,
                    seen: 0,
                },
            );
        }
        let c = &mut self.classes[class];
        c.fastest_ns = c
            .fastest_ns
            .min(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        c.seen += 1;
        self.count += 1;
    }

    /// Ops recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Every op takes its class's time. p50 and p95 are percentiles over
    /// the ops, and `in_flight` ops at a time complete at `in_flight` ÷
    /// the mean.
    pub fn timing(&self, in_flight: usize) -> Timing {
        let mut times: Vec<(f64, u64)> = self
            .classes
            .iter()
            .filter(|c| c.seen > 0)
            .map(|c| (c.fastest_ns as f64 / 1e6, c.seen))
            .collect();
        times.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total: u64 = times.iter().map(|t| t.1).sum();
        let mean_ms = times.iter().map(|&(t, n)| t * n as f64).sum::<f64>() / total as f64;
        let percentile = |q: f64| {
            let rank = (q * total as f64).ceil() as u64;
            let mut below = 0;
            for &(t, n) in &times {
                below += n;
                if below >= rank {
                    return t;
                }
            }
            f64::NAN
        };
        Timing {
            ops_per_s: in_flight as f64 * 1e3 / mean_ms,
            p50_ms: percentile(0.50),
            p95_ms: percentile(0.95),
            classes: times.len(),
        }
    }
}

/// Quartiles the way Python's `statistics.quantiles(values, n=4)` and
/// `statistics.median` compute them: `(q1, median, q3)`.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, f64::NAN, f64::NAN);
    }
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    if n < 2 {
        return (v[0], median, v[0]);
    }
    // The "exclusive" method: positions i * (n + 1) / 4, interpolated.
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(1), median, quartile(3))
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The commit being measured, read from the nearest `.git` above the
/// working directory; `unknown` outside a git checkout.
pub fn git_sha() -> String {
    let Ok(mut dir) = std::env::current_dir() else {
        return "unknown".into();
    };
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            return read_head(&git).unwrap_or_else(|| "unknown".into());
        }
        if !dir.pop() {
            return "unknown".into();
        }
    }
}

fn read_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (sha, name) = l.split_once(' ')?;
        (name == reference).then(|| sha.to_string())
    })
}

/// CPUs the process may use, as first seen: serve_hit and
/// sentinel_replay pin themselves to one CPU at a time after this is
/// read.
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(0, |n| n.get()))
}

/// The `{"schema":1}` header stamped on every result record.
pub fn header(workload: &str, seed: u64, seconds: u64, traced: bool, sizes: Json) -> Json {
    Json::obj([
        ("schema", SCHEMA.into()),
        ("git_sha", git_sha().into()),
        ("nproc", nproc().into()),
        ("threads", THREADS.into()),
        ("workload", workload.into()),
        ("seed", seed.into()),
        ("seconds", seconds.into()),
        ("trace", traced.into()),
        ("sizes", sizes),
    ])
}

/// The final line of a run: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric with its value and unit.
pub fn result_line(correct: bool, attempted: u64, failed: u64, values: &[(&Metric, f64)]) -> Json {
    let metrics = values
        .iter()
        .map(|(m, v)| {
            (
                m.name.to_string(),
                Json::obj([("value", Json::F64(*v)), ("unit", m.unit.into())]),
            )
        })
        .collect();
    Json::obj([
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", Json::Obj(metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use sz_serve::loadgen::Histogram;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn p95_of_200_ops_has_ten_beyond_it() {
        let mut ops = OpTimes::default();
        let mut hist = Histogram::new();
        for us in 1..=200u64 {
            ops.record(us as usize, Duration::from_micros(us * 10));
            hist.record(us * 10);
        }
        assert_eq!(ops.count(), MIN_OPS);
        // p95 of 200 ops is the 190th: ten lie beyond it.
        let t = ops.timing(1);
        assert_eq!((t.p50_ms, t.p95_ms, t.classes), (1.0, 1.9, 200));
        // loadgen's histogram reports the lower bound of the bucket
        // holding the same rank, within its 1/32 resolution.
        let bucket_ms = hist.quantile(0.95) as f64 / 1e3;
        assert!(
            bucket_ms <= t.p95_ms && t.p95_ms - bucket_ms <= t.p95_ms / 32.0,
            "{bucket_ms} vs {}",
            t.p95_ms
        );
    }

    #[test]
    fn each_class_takes_its_fastest_repeat_weighted_by_its_ops() {
        let mut ops = OpTimes::default();
        // Class 0: nine ops of 1..=9 ms, most slowed by the host. Class 1:
        // three ops of 6 ms.
        for ms in [9, 3, 8, 2, 7, 1, 6, 4, 5] {
            ops.record(0, Duration::from_millis(ms));
        }
        for _ in 0..3 {
            ops.record(1, Duration::from_millis(6));
        }
        let t = ops.timing(2);
        // Mean op time (9 × 1 + 3 × 6) / 12 = 2.25 ms, two in flight.
        assert!((t.ops_per_s - 2e3 / 2.25).abs() < 1e-9, "{t:?}");
        assert_eq!((t.p50_ms, t.p95_ms, t.classes), (1.0, 6.0, 2));
        assert_eq!(ops.count(), 12);
    }
}
