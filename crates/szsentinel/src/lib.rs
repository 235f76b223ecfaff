//! szsentinel: a continuous regression sentinel over the trace stream.
//!
//! STABILIZER's layout randomization makes per-run timings i.i.d.
//! enough for sound inference; the batch harness exploits that one
//! experiment at a time. This crate runs the same statistics
//! *online*: it ingests `run` records from any JSONL trace source
//! (recorded `TraceSink` files, sz-serve's live job output, stdin)
//! into bounded ring buffers keyed by `(benchmark, metric)` and runs
//! two detectors over the trajectories:
//!
//! - a **change-point detector** ([`ChangePointDetector`]) that
//!   frames "did this metric shift?" as a rolling two-window
//!   hypothesis test through `sz_stats::judge` — bootstrap effect
//!   CI, ±band practical equivalence, Welch interval — alerting
//!   only on a robustly-slower/faster verdict, never on a fixed
//!   percentage threshold;
//! - an **isolation-forest anomaly scorer** ([`forest::score_matrix`])
//!   over multi-counter feature vectors (CPI, cache/TLB miss rates,
//!   branch mispredict rates) that surfaces layout-sensitivity
//!   outliers per benchmark by rank, with a seeded deterministic
//!   forest.
//!
//! Everything is single-threaded and seeded, so for a given input
//! stream the emitted alert JSONL is byte-for-byte identical across
//! runs and across the thread count of whatever produced the trace.

pub mod change;
pub mod forest;
pub mod stream;

pub use change::{ChangeAlert, ChangeConfig, ChangePointDetector};
pub use forest::{score_matrix, ForestConfig};
pub use stream::{parse_line, ParsedLine, RunSample, StreamError, FEATURE_NAMES};

use std::collections::BTreeMap;
use std::io::BufRead;

use sz_harness::{Json, RingBuffer};

/// Engine parameters.
#[derive(Debug, Clone)]
pub struct SentinelConfig {
    /// Change-point detector parameters (shared by every series).
    pub change: ChangeConfig,
    /// Which scalar metrics get a change-point series. Metrics a
    /// record does not carry are simply absent from its series.
    pub metrics: Vec<String>,
    /// Anomaly forest parameters.
    pub forest: ForestConfig,
    /// Minimum runs per benchmark before the forest scores it.
    pub min_forest_samples: usize,
    /// Feature-vector ring capacity per benchmark.
    pub feature_capacity: usize,
    /// Outliers surfaced per benchmark (by score rank).
    pub top_k: usize,
}

impl Default for SentinelConfig {
    fn default() -> SentinelConfig {
        SentinelConfig {
            change: ChangeConfig::default(),
            metrics: vec!["seconds".to_string(), "cpi".to_string()],
            forest: ForestConfig::default(),
            min_forest_samples: 8,
            feature_capacity: 64,
            top_k: 3,
        }
    }
}

/// The online engine: feed it trace lines, collect alert records.
#[derive(Debug)]
pub struct Sentinel {
    config: SentinelConfig,
    /// (benchmark, metric) → detector. BTreeMap so end-of-stream
    /// passes iterate in a deterministic order.
    series: BTreeMap<(String, String), ChangePointDetector>,
    /// benchmark → recent (run, feature vector) pairs.
    features: BTreeMap<String, RingBuffer<(u64, Vec<f64>)>>,
    schema: Option<u64>,
    lines: u64,
    runs: u64,
    alerts: u64,
}

impl Sentinel {
    /// Creates an engine with the given configuration.
    pub fn new(config: SentinelConfig) -> Sentinel {
        Sentinel {
            config,
            series: BTreeMap::new(),
            features: BTreeMap::new(),
            schema: None,
            lines: 0,
            runs: 0,
            alerts: 0,
        }
    }

    /// Stream schema declared by the header, if one was seen.
    pub fn schema(&self) -> Option<u64> {
        self.schema
    }

    /// Total non-blank lines ingested.
    pub fn lines_seen(&self) -> u64 {
        self.lines
    }

    /// Total `run` records ingested.
    pub fn runs_seen(&self) -> u64 {
        self.runs
    }

    /// Total change-point alerts emitted.
    pub fn alerts_emitted(&self) -> u64 {
        self.alerts
    }

    /// Ingests one line; returns the alert records (possibly empty)
    /// it triggered, as JSON objects ready for JSONL output.
    ///
    /// Blank lines are ignored; record types other than `run` are
    /// skipped. A `{"schema":N}` header anywhere in the stream is
    /// accepted (streams concatenated from several files carry
    /// several), as are headerless legacy streams.
    ///
    /// # Errors
    ///
    /// Malformed JSON and headers newer than the supported trace
    /// schema are [`StreamError`]s.
    pub fn ingest_line(&mut self, line: &str) -> Result<Vec<Json>, StreamError> {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return Ok(Vec::new());
        }
        self.lines += 1;
        match parse_line(trimmed, self.lines)? {
            ParsedLine::Header(version) => {
                self.schema = Some(version);
                Ok(Vec::new())
            }
            ParsedLine::Skipped => Ok(Vec::new()),
            ParsedLine::Run(sample) => Ok(self.ingest_run(&sample)),
        }
    }

    /// Feeds one parsed run sample through both detectors' stores and
    /// returns any change-point alerts.
    pub fn ingest_run(&mut self, sample: &RunSample) -> Vec<Json> {
        self.runs += 1;
        let mut out = Vec::new();
        for (metric, value) in &sample.metrics {
            if !self.config.metrics.iter().any(|m| m == metric) {
                continue;
            }
            let key = (sample.benchmark.clone(), metric.to_string());
            let detector = self
                .series
                .entry(key)
                .or_insert_with(|| ChangePointDetector::new(self.config.change.clone()));
            if let Some(alert) = detector.push(*value) {
                self.alerts += 1;
                out.push(alert_json(&sample.benchmark, metric, &alert));
            }
        }
        if let Some(features) = &sample.features {
            let capacity = self.config.feature_capacity;
            self.features
                .entry(sample.benchmark.clone())
                .or_insert_with(|| RingBuffer::new(capacity))
                .push((sample.run, features.clone()));
        }
        out
    }

    /// End-of-stream anomaly pass: per benchmark with enough runs,
    /// scores the buffered feature vectors with the seeded isolation
    /// forest and returns the top-k outliers by rank. Purely
    /// informational records — no thresholds, no exit-code impact.
    pub fn anomalies(&self) -> Vec<Json> {
        let mut out = Vec::new();
        for (benchmark, ring) in &self.features {
            if ring.len() < self.config.min_forest_samples.max(2) {
                continue;
            }
            let rows: Vec<&[f64]> = ring.iter().map(|(_, f)| f.as_slice()).collect();
            let scores = score_matrix(&rows, &self.config.forest);
            let mut ranked: Vec<(usize, f64)> = scores.into_iter().enumerate().collect();
            ranked.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.0.cmp(&b.0))
            });
            for (rank, (index, score)) in ranked.iter().take(self.config.top_k).enumerate() {
                let (run, _) = ring.get(*index).expect("ranked index in range");
                out.push(Json::obj([
                    ("type", "anomaly".into()),
                    ("detector", "isolation-forest".into()),
                    ("benchmark", benchmark.as_str().into()),
                    ("run", Json::U64(*run)),
                    ("sample", Json::U64(*index as u64)),
                    ("score", Json::F64(*score)),
                    ("rank", Json::U64(rank as u64 + 1)),
                    ("of", Json::U64(ring.len() as u64)),
                ]));
            }
        }
        out
    }

    /// Scans a whole stream: ingests every line, then appends the
    /// end-of-stream anomaly records. Returns all emitted records in
    /// order.
    ///
    /// # Errors
    ///
    /// I/O failures and stream-protocol violations.
    pub fn scan(&mut self, reader: impl BufRead) -> Result<Vec<Json>, ScanError> {
        let mut out = Vec::new();
        for line in reader.lines() {
            let line = line.map_err(ScanError::Io)?;
            out.extend(self.ingest_line(&line).map_err(ScanError::Stream)?);
        }
        out.extend(self.anomalies());
        Ok(out)
    }
}

/// Failures from [`Sentinel::scan`].
#[derive(Debug)]
pub enum ScanError {
    /// Reading the input failed.
    Io(std::io::Error),
    /// The stream violated the trace protocol.
    Stream(StreamError),
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanError::Io(e) => write!(f, "trace read failed: {e}"),
            ScanError::Stream(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ScanError {}

/// Renders one change-point alert as a JSON object. The offending
/// windows ride along verbatim so an operator (or the CI armed
/// control) can see exactly which samples tripped the verdict.
fn alert_json(benchmark: &str, metric: &str, alert: &ChangeAlert) -> Json {
    let window = |samples: &[f64]| Json::Arr(samples.iter().map(|v| Json::F64(*v)).collect());
    Json::obj([
        ("type", "alert".into()),
        ("detector", "change-point".into()),
        ("benchmark", benchmark.into()),
        ("metric", metric.into()),
        ("at", Json::U64(alert.at)),
        ("window", Json::U64(alert.new_window.len() as u64)),
        ("verdict", alert.report.verdict.as_str().into()),
        ("ratio", Json::F64(alert.report.effect.ratio)),
        ("ratio_lo", Json::F64(alert.report.effect.lo)),
        ("ratio_hi", Json::F64(alert.report.effect.hi)),
        ("welch_lo", Json::F64(alert.report.welch.lo)),
        ("welch_hi", Json::F64(alert.report.welch.hi)),
        ("band", Json::F64(alert.report.band)),
        ("old_window", window(&alert.old_window)),
        ("new_window", window(&alert.new_window)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use sz_rng::{Rng, SplitMix64};

    fn run_line(benchmark: &str, run: usize, seconds: f64) -> String {
        format!(
            concat!(
                "{{\"type\":\"run\",\"experiment\":\"t\",\"benchmark\":\"{}\",",
                "\"variant\":\"default\",\"run\":{},\"engine\":\"vm\",\"seconds\":{},",
                "\"counters\":{{\"instructions\":1000,\"cycles\":1500,",
                "\"l1i_misses\":10,\"l1d_misses\":20,\"l2_misses\":5,\"l3_misses\":1,",
                "\"itlb_misses\":2,\"dtlb_misses\":3,\"branches\":200,",
                "\"branch_mispredicts\":8}}}}"
            ),
            benchmark, run, seconds
        )
    }

    fn synthetic_stream(step_at: Option<usize>, n: usize, seed: u64) -> Vec<String> {
        let mut rng = SplitMix64::new(seed);
        let mut lines = vec!["{\"schema\":1}".to_string()];
        for i in 0..n {
            let mut mean = 10.0;
            if let Some(at) = step_at {
                if i >= at {
                    mean = 14.0;
                }
            }
            let u = rng.next_f64() + rng.next_f64() + rng.next_f64() - 1.5;
            lines.push(run_line("bzip2", i, mean * (1.0 + 0.01 * u)));
        }
        lines
    }

    #[test]
    fn injected_step_alerts_and_clean_stream_does_not() {
        let mut clean = Sentinel::new(SentinelConfig::default());
        for line in synthetic_stream(None, 24, 11) {
            assert!(clean.ingest_line(&line).unwrap().is_empty());
        }
        assert_eq!(clean.alerts_emitted(), 0);
        assert_eq!(clean.schema(), Some(1));
        assert_eq!(clean.runs_seen(), 24);

        let mut stepped = Sentinel::new(SentinelConfig::default());
        let mut alerts = Vec::new();
        for line in synthetic_stream(Some(12), 24, 11) {
            alerts.extend(stepped.ingest_line(&line).unwrap());
        }
        assert_eq!(stepped.alerts_emitted(), 1, "one step, one alert");
        let rendered = alerts[0].to_string();
        assert!(rendered.contains("\"type\":\"alert\""), "{rendered}");
        assert!(
            rendered.contains("\"benchmark\":\"bzip2/default\""),
            "{rendered}"
        );
        assert!(
            rendered.contains("\"verdict\":\"robustly-slower\""),
            "{rendered}"
        );
        assert!(rendered.contains("\"old_window\""), "{rendered}");
    }

    #[test]
    fn scan_is_byte_deterministic() {
        let stream = synthetic_stream(Some(12), 24, 99).join("\n");
        let render = |records: Vec<Json>| {
            records
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        };
        let a = render(
            Sentinel::new(SentinelConfig::default())
                .scan(stream.as_bytes())
                .unwrap(),
        );
        let b = render(
            Sentinel::new(SentinelConfig::default())
                .scan(stream.as_bytes())
                .unwrap(),
        );
        assert_eq!(a, b, "same stream, byte-identical output");
        assert!(!a.is_empty());
    }

    #[test]
    fn anomaly_pass_surfaces_ranked_outliers() {
        let mut sentinel = Sentinel::new(SentinelConfig::default());
        for line in synthetic_stream(None, 16, 5) {
            sentinel.ingest_line(&line).unwrap();
        }
        let anomalies = sentinel.anomalies();
        assert_eq!(anomalies.len(), 3, "top-k per benchmark");
        let first = anomalies[0].to_string();
        assert!(
            first.contains("\"detector\":\"isolation-forest\""),
            "{first}"
        );
        assert!(first.contains("\"rank\":1"), "{first}");
    }

    #[test]
    fn malformed_line_is_an_error_but_unknown_type_is_not() {
        let mut sentinel = Sentinel::new(SentinelConfig::default());
        assert!(sentinel
            .ingest_line("{\"type\":\"result\"}")
            .unwrap()
            .is_empty());
        assert!(sentinel.ingest_line("").unwrap().is_empty());
        assert!(sentinel.ingest_line("not json").is_err());
    }
}
