//! `sentinel_replay`: scans of a recorded trace by the regression
//! sentinel, alternating a clean copy and a copy with a +50% step in
//! one seeded series.
//!
//! Set-up records a seeded fig7-quick trace at 12 runs per level (the
//! change-point test needs two windows of 4) with its `{"schema":1}`
//! header, as a file-backed trace carries it; the scans read it from
//! memory. Each pass is `Sentinel::scan`'s loop, one `ingest_line` per
//! line (an op), followed by the end-of-stream anomaly pass, which is
//! timed as part of the last line. Each line of each copy is an op
//! class. The scans run on one CPU at a time, moving to the next CPU
//! every two passes (see `cpus`).

use std::io::BufRead;
use std::time::{Duration, Instant};

use sz_harness::experiments::fig7;
use sz_harness::runner::ExperimentOptions;
use sz_harness::{Json, TraceSink, TRACE_SCHEMA};
use sz_sentinel::{Sentinel, SentinelConfig};

use crate::cpus;
use crate::metrics::THREADS;
use crate::trace::Tracer;
use crate::workload::{derive_seed, digest, Load, Size, Traced, Workload};

/// Runs per level in the recorded trace.
const RUNS: usize = 12;
/// First run index of the stepped series that carries the step.
const STEP_AT: u64 = 6;
const STEP: f64 = 1.5;
/// Where the change-point detector (windows of 4) must alert: the
/// first arrival whose new window holds only stepped runs.
const ALERT_AT: u64 = STEP_AT + 3;

pub struct Replay {
    clean: String,
    stepped: String,
    /// Lines of each copy.
    lines: usize,
    /// The stepped series, `benchmark/variant`.
    series: String,
    /// Scan passes in the pinned prefix (clean and stepped alternate).
    passes: usize,
    seed_base: u64,
}

impl Workload for Replay {
    const IN_FLIGHT: usize = 1;

    fn setup(seed: u64, size: Size) -> Self {
        let mut opts = ExperimentOptions::quick();
        if size == Size::Tiny {
            opts.benchmarks = Some(vec!["bzip2".into(), "mcf".into()]);
        }
        opts.threads = THREADS;
        opts.runs = RUNS;
        opts.seed_base = derive_seed(seed, 13);
        let (sink, buffer) = TraceSink::in_memory();
        sink.record(&Json::obj([("schema", TRACE_SCHEMA.into())]));
        fig7::run_traced(&opts, Some(&sink));
        sink.flush();
        let clean = buffer.contents();

        let suite = opts.selected_suite();
        let benchmark = suite[(derive_seed(seed, 14) % suite.len() as u64) as usize].name;
        let variant = ["O1", "O2", "O3"][(derive_seed(seed, 15) % 3) as usize];
        let stepped = clean
            .lines()
            .map(|line| step(line, benchmark, variant))
            .collect::<Vec<_>>()
            .join("\n");
        Replay {
            lines: clean.lines().count(),
            clean,
            stepped,
            series: format!("{benchmark}/{variant}"),
            passes: match size {
                Size::Full => 40,
                Size::Tiny => 2,
            },
            seed_base: opts.seed_base,
        }
    }

    fn sizes(&self) -> Json {
        Json::obj([
            ("trace_lines", self.lines.into()),
            ("trace_bytes", self.clean.len().into()),
            ("runs_per_level", RUNS.into()),
            ("prefix_passes", self.passes.into()),
            ("stepped_series", self.series.as_str().into()),
            ("seed_base", self.seed_base.into()),
        ])
    }

    fn measure(&mut self, budget: Duration) -> Load {
        let mut load = Load::default();
        let mut first: [Option<String>; 2] = [None, None];
        let start = Instant::now();
        let mut pass = 0;
        while pass < self.passes || start.elapsed() < budget {
            cpus::pin_process(pass / 2);
            let text = self.text(pass);
            let first_class = (pass % 2) * self.lines;
            let mut sentinel = Sentinel::new(SentinelConfig::default());
            let mut records = Vec::new();
            let mut last = None;
            for (k, line) in text.as_bytes().lines().enumerate() {
                let line = line.expect("reads from memory cannot fail");
                let t = Instant::now();
                let outcome = sentinel.ingest_line(&line);
                if let Some((class, took)) = last.replace((first_class + k, t.elapsed())) {
                    load.ops.record(class, took);
                }
                load.attempted += 1;
                match outcome {
                    Ok(alerts) => records.extend(alerts),
                    Err(e) => {
                        load.failed += 1;
                        load.fail(format!("pass {pass}: the sentinel rejected a line: {e}"));
                    }
                }
            }
            let t = Instant::now();
            records.extend(sentinel.anomalies());
            if let Some((class, took)) = last {
                load.ops.record(class, took + t.elapsed());
            }
            let rendered = render(&records);
            match &first[pass % 2] {
                None => {
                    self.check(pass, &records, &mut load);
                    first[pass % 2] = Some(rendered.clone());
                }
                Some(expected) if *expected != rendered => {
                    load.fail(format!(
                        "pass {pass} differs from the first scan of its copy"
                    ));
                }
                Some(_) => {}
            }
            if pass < self.passes {
                load.prefix.push(digest(rendered.as_bytes()));
            }
            pass += 1;
            if pass == self.passes {
                load.prefix_wall = start.elapsed();
            }
        }
        load.wall = start.elapsed();
        cpus::unpin_process();
        let [clean, stepped] = first.map(Option::unwrap_or_default);
        load.digest = digest(format!("{clean}\n{stepped}").as_bytes());
        load
    }

    fn trace(&mut self, _load: &Load, tracer: &Tracer) -> Traced {
        let mut traced = Traced::default();
        let mut lines = 0u64;
        let mut alerts = 0u64;
        let start = Instant::now();
        for pass in 0..self.passes {
            let pass_span = tracer.span("sentinel.scan", None, Some(pass as u64));
            let parent = Some(pass_span.id());
            let mut sentinel = Sentinel::new(SentinelConfig::default());
            let mut records = Vec::new();
            for line in self.text(pass).as_bytes().lines() {
                let line = line.expect("reads from memory cannot fail");
                let req = Some(lines);
                if let Ok(r) = tracer.time("szsentinel.ingest", parent, req, || {
                    sentinel.ingest_line(&line)
                }) {
                    records.extend(r);
                }
                lines += 1;
            }
            records.extend(tracer.time("szsentinel.forest", parent, None, || sentinel.anomalies()));
            alerts += sentinel.alerts_emitted();
            traced.prefix.push(digest(render(&records).as_bytes()));
            pass_span.end();
        }
        traced.wall = start.elapsed();
        traced.capacity_s = traced.wall.as_secs_f64();
        traced.attributed_s =
            tracer.seconds("szsentinel.ingest") + tracer.seconds("szsentinel.forest");

        // The JSON layer alone, over the same lines, outside the wall.
        let mut line_no = 0u64;
        for pass in 0..self.passes {
            for line in self.text(pass).lines() {
                let parsed = tracer.time("szharness.json_parse", None, Some(line_no), || {
                    Json::parse(line)
                });
                if let Err(e) = parsed {
                    traced
                        .failures
                        .push(format!("Json::parse rejected trace line {line_no}: {e}"));
                }
                line_no += 1;
            }
        }
        traced.values = vec![
            ("szsentinel.lines", lines as f64),
            ("szsentinel.alerts", alerts as f64),
        ];
        traced
    }
}

impl Replay {
    fn text(&self, pass: usize) -> &str {
        if pass.is_multiple_of(2) {
            &self.clean
        } else {
            &self.stepped
        }
    }

    /// The clean copy must scan alert-free; the stepped copy must raise
    /// exactly one alert: a robustly-slower `seconds` shift in the
    /// stepped series at [`ALERT_AT`].
    fn check(&self, pass: usize, records: &[Json], load: &mut Load) {
        let alerts: Vec<&Json> = records
            .iter()
            .filter(|r| r.get("type").and_then(Json::as_str) == Some("alert"))
            .collect();
        if pass.is_multiple_of(2) {
            if let Some(alert) = alerts.first() {
                load.fail(format!(
                    "the clean trace raised {} alert(s): {alert}",
                    alerts.len()
                ));
            }
            return;
        }
        let field = |a: &Json, key: &str| a.get(key).map(ToString::to_string).unwrap_or_default();
        let expected = (
            format!("\"{}\"", self.series),
            "\"seconds\"".to_string(),
            ALERT_AT.to_string(),
            "\"robustly-slower\"".to_string(),
        );
        let got: Vec<_> = alerts
            .iter()
            .map(|a| {
                (
                    field(a, "benchmark"),
                    field(a, "metric"),
                    field(a, "at"),
                    field(a, "verdict"),
                )
            })
            .collect();
        if got != [expected.clone()] {
            load.fail(format!(
                "the stepped trace raised {got:?}, expected [{expected:?}]"
            ));
        }
    }
}

/// Multiplies `seconds` by [`STEP`] on the runs of one series from
/// [`STEP_AT`] on; every other line passes through byte for byte.
fn step(line: &str, benchmark: &str, variant: &str) -> String {
    let Ok(Json::Obj(fields)) = Json::parse(line) else {
        return line.to_string();
    };
    let is = |key: &str, want: &str| {
        fields
            .iter()
            .any(|(k, v)| k == key && v.as_str() == Some(want))
    };
    let run = fields
        .iter()
        .find(|(k, _)| k == "run")
        .and_then(|(_, v)| v.as_u64());
    if !(is("type", "run") && is("benchmark", benchmark) && is("variant", variant))
        || run.is_none_or(|r| r < STEP_AT)
    {
        return line.to_string();
    }
    let fields = fields
        .into_iter()
        .map(|(k, v)| match (k.as_str(), v.as_f64()) {
            ("seconds", Some(s)) => (k, Json::F64(s * STEP)),
            _ => (k, v),
        })
        .collect();
    Json::Obj(fields).to_string()
}

fn render(records: &[Json]) -> String {
    records
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n")
}
