//! The workload interface and the runner that sets a workload up,
//! measures it, checks its outputs and, in a traced run, re-drives its
//! pinned prefix of work through the tracer.

use std::path::Path;
use std::time::{Duration, Instant};

use sz_harness::report::render_table;
use sz_harness::Json;

use crate::metrics::{
    self, header, peak_rss_mb, quartiles, result_line, Metric, OpTimes, END_TO_END, MIN_OPS,
    PER_LAYER,
};
use crate::trace::Tracer;
use crate::yardstick::{self, Yardstick};
use crate::{cpus, fig7, fuzz, sentinel, serve};

/// Set-ups per run: at least the first count, and more while their
/// total stays under the time, up to the second count. `setup_s` is
/// their median.
const SETUPS: (usize, Duration, usize) = (5, Duration::from_secs(1), 50);

/// The workloads, in the order the one-command mode runs them, with
/// why each was chosen.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "fig7_small",
        "the paper's headline experiment: long stabilized runs, where VM dispatch, MemorySystem and the engine do the work",
    ),
    (
        "fuzz_diff",
        "tens of thousands of tiny programs: generation, decode, engine set-up and the reference interpreter dominate",
    ),
    (
        "serve_cold",
        "evaluate requests that all miss the cache: parse, queue, simulate, judge, trace capture and the sentinel feed",
    ),
    (
        "serve_hit",
        "cache hits only, no simulation: protocol parse, cache lookup, reply rendering and the event-loop write path",
    ),
    (
        "sentinel_replay",
        "sentinel scans of a recorded trace, no simulation: the JSON parser plus change-point verdicts",
    ),
];

/// How much work a workload does: `Full` for measurement, `Tiny` for
/// the unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// What the untraced measured phase produced.
#[derive(Debug, Default)]
pub struct Load {
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of the whole measured phase.
    pub wall: Duration,
    /// Wall time until the pinned prefix of work was complete.
    pub prefix_wall: Duration,
    /// Host time of every op, by op class.
    pub ops: OpTimes,
    /// Digest of the prefix's results (simulated results, fuzz
    /// summary, replies, alerts): equal seeds give equal digests.
    pub digest: u128,
    /// One fingerprint per op of the prefix; a traced replica must
    /// reproduce them exactly.
    pub prefix: Vec<u128>,
    /// Failed correctness checks.
    pub failures: Vec<String>,
}

impl Load {
    /// Notes a failed check (the first 20 are kept).
    pub fn fail(&mut self, message: String) {
        if self.failures.len() < 20 {
            self.failures.push(message);
        }
    }
}

/// What a traced replica of the prefix produced.
#[derive(Debug, Default)]
pub struct Traced {
    /// Wall time of the replica.
    pub wall: Duration,
    /// Thread-seconds available during the replica, and the part the
    /// layer spans account for.
    pub capacity_s: f64,
    pub attributed_s: f64,
    /// Per-layer values that are not plain span totals.
    pub values: Vec<(&'static str, f64)>,
    /// The replica's per-op fingerprints.
    pub prefix: Vec<u128>,
    pub failures: Vec<String>,
}

pub trait Workload: Sized {
    /// Ops in flight at a time: pool threads or client connections.
    const IN_FLIGHT: usize;
    /// Builds the inputs from `seed` (and starts any server).
    fn setup(seed: u64, size: Size) -> Self;
    /// The sizes stamped in the result header.
    fn sizes(&self) -> Json;
    /// Runs the pinned prefix, then keeps going until `budget` has
    /// passed; checks every output.
    fn measure(&mut self, budget: Duration) -> Load;
    /// Re-drives the prefix of `load` with spans around each layer call.
    fn trace(&mut self, load: &Load, tracer: &Tracer) -> Traced;
}

/// One workload's run, ready to print.
#[derive(Debug)]
pub struct Report {
    pub header: Json,
    pub lines: Vec<String>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Vec<(&'static Metric, f64)>,
    pub digest: String,
}

impl Report {
    pub fn result_line(&self) -> Json {
        result_line(self.correct, self.attempted, self.failed, &self.values)
    }
}

/// Runs the workload called `name`; `None` for an unknown name.
pub fn run_named(
    name: &str,
    seed: u64,
    seconds: u64,
    trace_dir: Option<&Path>,
    size: Size,
) -> Option<Report> {
    Some(match name {
        "fig7_small" => run::<fig7::Fig7>(name, seed, seconds, trace_dir, size),
        "fuzz_diff" => run::<fuzz::Fuzz>(name, seed, seconds, trace_dir, size),
        "serve_cold" => run::<serve::Cold>(name, seed, seconds, trace_dir, size),
        "serve_hit" => run::<serve::Hit>(name, seed, seconds, trace_dir, size),
        "sentinel_replay" => run::<sentinel::Replay>(name, seed, seconds, trace_dir, size),
        _ => return None,
    })
}

fn run<W: Workload>(
    name: &str,
    seed: u64,
    seconds: u64,
    trace_dir: Option<&Path>,
    size: Size,
) -> Report {
    // Both read what the process may use before any workload pins it.
    metrics::nproc();
    cpus::allowed();
    let (mut workload, first_setup) = timed_setup::<W>(seed, size);
    let header = header(name, seed, seconds, trace_dir.is_some(), workload.sizes());

    let mut yardstick = Yardstick::default();
    let mut load = match trace_dir {
        // A traced run only needs the prefix it replays.
        Some(_) => workload.measure(Duration::ZERO),
        None => {
            yardstick.sample();
            yardstick.during(|| workload.measure(Duration::from_secs(seconds)))
        }
    };
    let peak_rss = peak_rss_mb();
    if size == Size::Full && load.ops.count() < MIN_OPS {
        load.failures.push(format!(
            "{} ops ran, fewer than {MIN_OPS}, so p95 would have fewer than 10 beyond it",
            load.ops.count()
        ));
    }
    let mut lines = Vec::new();
    let values = match trace_dir {
        None => {
            // The other set-ups run after the measured phase, so neither
            // its time nor its peak memory sees their leftovers.
            drop(workload);
            let (least, time, most) = SETUPS;
            let mut setups = vec![first_setup];
            while setups.len() < least
                || (setups.len() < most && setups.iter().sum::<f64>() < time.as_secs_f64())
            {
                setups.push(timed_setup::<W>(seed, size).1);
            }
            yardstick.sample();
            end_to_end(
                name,
                &load,
                W::IN_FLIGHT,
                &setups,
                &yardstick,
                peak_rss,
                &mut lines,
            )
        }
        Some(dir) => {
            let tracer = Tracer::new();
            let traced = workload.trace(&load, &tracer);
            load.failures.extend(traced.failures.iter().cloned());
            if let Some(i) = (0..load.prefix.len().max(traced.prefix.len()))
                .find(|&i| load.prefix.get(i) != traced.prefix.get(i))
            {
                load.failures.push(format!(
                    "traced replica differs from the untraced run at op {i} of {}",
                    load.prefix.len()
                ));
            }
            let values = per_layer(&load, &traced, &tracer);
            let table = layer_table(&values);
            if let Err(e) = write_trace(dir, name, &header, &tracer, &table) {
                load.failures
                    .push(format!("writing the trace to {}: {e}", dir.display()));
            }
            lines.push(table);
            lines.push(format!(
                "{name}: spans in {}/{name}.spans.jsonl, layer table in {}/{name}.layers.txt",
                dir.display(),
                dir.display()
            ));
            values
        }
    };
    for failure in &load.failures {
        lines.push(format!("{name}: check FAILED: {failure}"));
    }
    if load.failures.is_empty() {
        lines.push(format!("{name}: all checks passed"));
    }
    Report {
        header,
        lines,
        correct: load.failures.is_empty(),
        attempted: load.attempted,
        failed: load.failed,
        values,
        digest: format!("{:032x}", load.digest),
    }
}

/// One set-up and its duration; the instance is dropped by the caller,
/// untimed.
fn timed_setup<W: Workload>(seed: u64, size: Size) -> (W, f64) {
    let start = Instant::now();
    let workload = W::setup(seed, size);
    (workload, start.elapsed().as_secs_f64())
}

fn end_to_end(
    name: &str,
    load: &Load,
    in_flight: usize,
    setups: &[f64],
    yardstick: &Yardstick,
    peak_rss: f64,
    lines: &mut Vec<String>,
) -> Vec<(&'static Metric, f64)> {
    let n = load.ops.count();
    let t = load.ops.timing(in_flight);
    // Every time is divided by the host's slowness.
    let s = yardstick.slowness();
    let setup = quartiles(setups).1;
    let classes = format!("{} op classes, n={n}", t.classes);
    let raw = |v: f64| format!("{v:.6} as timed");
    let values = [
        setup / s,
        t.ops_per_s * s,
        t.p50_ms / s,
        t.p95_ms / s,
        peak_rss,
    ];
    let notes = [
        format!("{}; median of {} set-ups", raw(setup), setups.len()),
        format!(
            "{}; {in_flight} in flight / mean op time; {classes}; {:.6}/s over the wall",
            raw(t.ops_per_s),
            load.attempted as f64 / load.wall.as_secs_f64().max(1e-9)
        ),
        format!("{}; {classes}", raw(t.p50_ms)),
        format!("{}; {classes}", raw(t.p95_ms)),
        "VmHWM after the measured phase".to_string(),
    ];
    lines.push(format!(
        "{name:<16} host slowness {s:.6} (fastest of {} yardstick slices / {} ns); times below are divided by it",
        yardstick.slices(),
        yardstick::NOMINAL_NS
    ));
    END_TO_END
        .iter()
        .zip(values)
        .zip(notes)
        .map(|((m, v), note)| {
            lines.push(format!(
                "{name:<16} {:<16} {v:>14.6} {:<4} {note}",
                m.name, m.unit
            ));
            (m, v)
        })
        .collect()
}

fn per_layer(load: &Load, traced: &Traced, tracer: &Tracer) -> Vec<(&'static Metric, f64)> {
    let unattributed = if traced.capacity_s > 0.0 {
        (1.0 - traced.attributed_s / traced.capacity_s).max(0.0)
    } else {
        0.0
    };
    let overhead = traced.wall.as_secs_f64() / load.prefix_wall.as_secs_f64().max(1e-9) - 1.0;
    PER_LAYER
        .iter()
        .map(|m| {
            let explicit = traced.values.iter().find(|(n, _)| *n == m.name);
            let v = match (m.name, explicit) {
                (_, Some(&(_, v))) => v,
                ("trace.unattributed_frac", None) => unattributed,
                ("trace.overhead_frac", None) => overhead,
                (name, None) => {
                    if let Some(span) = name.strip_suffix("_s") {
                        tracer.seconds(span)
                    } else if let Some(span) = name.strip_suffix("_calls") {
                        tracer.calls(span) as f64
                    } else {
                        0.0
                    }
                }
            };
            (m, v)
        })
        .collect()
}

fn layer_table(values: &[(&'static Metric, f64)]) -> String {
    let rows: Vec<Vec<String>> = values
        .iter()
        .map(|(m, v)| vec![m.name.to_string(), format!("{v:.6}"), m.unit.to_string()])
        .collect();
    render_table(&["layer metric", "value", "unit"], &rows)
}

fn write_trace(
    dir: &Path,
    name: &str,
    header: &Json,
    tracer: &Tracer,
    table: &str,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    tracer.write_jsonl(&dir.join(format!("{name}.spans.jsonl")), header)?;
    std::fs::write(
        dir.join(format!("{name}.layers.txt")),
        format!("{header}\n{table}\n"),
    )
}

/// A 128-bit FNV-1a digest of `bytes` (the cache's content hash).
pub fn digest(bytes: &[u8]) -> u128 {
    sz_serve::cache::fnv1a_128(bytes)
}

/// Deterministic per-workload input seeds derived from the CLI seed,
/// kept below 2^48 so `seed_base + run index` never overflows.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    use sz_rng::{Rng, SplitMix64};
    SplitMix64::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64() >> 16
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(values: &[(&'static Metric, f64)]) -> Vec<&'static str> {
        values.iter().map(|(m, _)| m.name).collect()
    }

    /// Runs `name` at tiny size untraced (seed 1), traced (seed 1) and
    /// untraced again (seed 2).
    fn check(name: &str) {
        let one = run_named(name, 1, 0, None, Size::Tiny).expect("a known workload");
        assert!(one.correct, "{name}: {:#?}", one.lines);
        assert_eq!(names(&one.values), END_TO_END.map(|m| m.name));
        for (m, v) in &one.values {
            assert!(v.is_finite() && *v > 0.0, "{name} {}: {v}", m.name);
        }
        let line = one.result_line();
        let Json::Obj(fields) = &line else {
            panic!("{line}")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let unit = line
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .and_then(|m| m.get("unit"));
        assert_eq!(unit.and_then(Json::as_str), Some("s"));

        // The traced replica must reproduce the untraced prefix bit for
        // bit (a mismatch is a failed check) and give the same digest.
        let dir = std::env::temp_dir().join(format!("sz-benchmark-{}-{name}", std::process::id()));
        let traced = run_named(name, 1, 0, Some(&dir), Size::Tiny).expect("a known workload");
        assert!(traced.correct, "{name} traced: {:#?}", traced.lines);
        assert_eq!(
            traced.digest, one.digest,
            "{name}: traced and untraced digests"
        );
        assert_eq!(names(&traced.values), PER_LAYER.map(|m| m.name));
        assert!(
            traced.values.iter().all(|(_, v)| v.is_finite()),
            "{name}: {:?}",
            traced.values
        );
        let spans = std::fs::read_to_string(dir.join(format!("{name}.spans.jsonl")))
            .expect("the traced run writes its spans");
        let header = Json::parse(spans.lines().next().unwrap_or_default()).expect("a JSON header");
        assert_eq!(header.get("schema").and_then(Json::as_u64), Some(1));
        assert!(spans.contains("\"type\":\"span\""));
        std::fs::remove_dir_all(&dir).expect("remove the trace directory");

        let other = run_named(name, 2, 0, None, Size::Tiny).expect("a known workload");
        assert!(other.correct, "{name} seed 2: {:#?}", other.lines);
        assert_ne!(
            other.digest, one.digest,
            "{name}: another seed must give other inputs"
        );
    }

    #[test]
    fn fig7_small_at_tiny_size() {
        check("fig7_small");
    }

    #[test]
    fn fuzz_diff_at_tiny_size() {
        check("fuzz_diff");
    }

    #[test]
    fn serve_cold_at_tiny_size() {
        check("serve_cold");
    }

    #[test]
    fn serve_hit_at_tiny_size() {
        check("serve_hit");
    }

    #[test]
    fn sentinel_replay_at_tiny_size() {
        check("sentinel_replay");
    }

    #[test]
    fn unknown_workloads_are_refused() {
        assert!(run_named("no_such_workload", 1, 0, None, Size::Tiny).is_none());
    }
}
