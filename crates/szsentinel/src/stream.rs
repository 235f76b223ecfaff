//! Parsing of `TraceSink` JSONL streams into per-run samples.
//!
//! The sentinel consumes the same line protocol everywhere it taps
//! the stack: recorded trace files, sz-serve's live job output, and
//! stdin pipes. File-backed traces open with a `{"schema":N}`
//! header (see `sz_harness::TRACE_SCHEMA`); streamed and legacy
//! traces have none. Both are accepted — a missing header means
//! version 0. Record types other than `run` (summaries, szctl
//! result lines mixed into a captured stream) are skipped, not
//! errors, so the sentinel can tail any JSONL source that embeds
//! run records.

use sz_harness::{Json, TRACE_SCHEMA};

/// Feature names for the multi-counter anomaly vector, in the order
/// they appear in [`RunSample::features`]. Rates are normalized per
/// kilo-instruction (or per kilo-branch for mispredicts) so
/// benchmarks of different lengths land in comparable ranges.
pub const FEATURE_NAMES: [&str; 8] = [
    "cpi",
    "l1i_mpki",
    "l1d_mpki",
    "l2_mpki",
    "l3_mpki",
    "itlb_mpki",
    "dtlb_mpki",
    "mispredict_pkb",
];

/// One `run` record reduced to the quantities the detectors consume.
#[derive(Debug, Clone)]
pub struct RunSample {
    /// Series key: `benchmark/variant`.
    pub benchmark: String,
    /// Run index as recorded (informational; arrival order is what
    /// the detectors key on).
    pub run: u64,
    /// Scalar metric trajectory points: `(metric name, value)`.
    pub metrics: Vec<(&'static str, f64)>,
    /// Multi-counter feature vector ([`FEATURE_NAMES`] order), when
    /// the record carries counters.
    pub features: Option<Vec<f64>>,
}

/// Outcome of parsing one stream line.
#[derive(Debug)]
pub enum ParsedLine {
    /// A `{"schema":N}` stream header.
    Header(u64),
    /// A `run` record.
    Run(RunSample),
    /// Any other well-formed record (summary, szctl result, ...).
    Skipped,
}

/// Stream-level failures. Malformed JSON is an error (the stream is
/// a machine-written protocol, not free text); unknown record types
/// are not.
#[derive(Debug)]
pub enum StreamError {
    /// The line was not valid JSON.
    Malformed { line_no: u64, detail: String },
    /// The stream header declares a schema newer than this build.
    UnsupportedSchema { found: u64, supported: u64 },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Malformed { line_no, detail } => {
                write!(f, "malformed trace line {line_no}: {detail}")
            }
            StreamError::UnsupportedSchema { found, supported } => write!(
                f,
                "trace schema {found} is newer than supported schema {supported}"
            ),
        }
    }
}

impl std::error::Error for StreamError {}

fn counter(counters: &Json, key: &str) -> f64 {
    counters
        .get(key)
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
        .max(0.0)
}

/// The top-level fields [`parse_line`] reads. The rest of a record
/// (`periods`, most of a run line's bytes) is validated and skipped.
const FIELDS: [&str; 7] = [
    "type",
    "schema",
    "benchmark",
    "variant",
    "run",
    "seconds",
    "counters",
];

/// Parses one line of a trace stream. `line_no` is 1-based and only
/// used for error reporting.
pub fn parse_line(line: &str, line_no: u64) -> Result<ParsedLine, StreamError> {
    let value = Json::parse_fields(line, &FIELDS).map_err(|e| StreamError::Malformed {
        line_no,
        detail: e.to_string(),
    })?;
    if value.get("type").is_none() {
        if let Some(schema) = value.get("schema").and_then(Json::as_u64) {
            if schema > TRACE_SCHEMA {
                return Err(StreamError::UnsupportedSchema {
                    found: schema,
                    supported: TRACE_SCHEMA,
                });
            }
            return Ok(ParsedLine::Header(schema));
        }
        return Ok(ParsedLine::Skipped);
    }
    if value.get("type").and_then(Json::as_str) != Some("run") {
        return Ok(ParsedLine::Skipped);
    }

    let bench = value
        .get("benchmark")
        .and_then(Json::as_str)
        .unwrap_or("unknown");
    let variant = value
        .get("variant")
        .and_then(Json::as_str)
        .unwrap_or("default");
    let benchmark = format!("{bench}/{variant}");
    let run = value.get("run").and_then(Json::as_u64).unwrap_or(0);

    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    if let Some(seconds) = value.get("seconds").and_then(Json::as_f64) {
        metrics.push(("seconds", seconds));
    }

    let features = value.get("counters").map(|counters| {
        let instructions = counter(counters, "instructions");
        let cycles = counter(counters, "cycles");
        let branches = counter(counters, "branches");
        let per_ki = |n: f64| {
            if instructions > 0.0 {
                n * 1000.0 / instructions
            } else {
                0.0
            }
        };
        let cpi = if instructions > 0.0 {
            cycles / instructions
        } else {
            0.0
        };
        if cpi > 0.0 {
            metrics.push(("cpi", cpi));
        }
        vec![
            cpi,
            per_ki(counter(counters, "l1i_misses")),
            per_ki(counter(counters, "l1d_misses")),
            per_ki(counter(counters, "l2_misses")),
            per_ki(counter(counters, "l3_misses")),
            per_ki(counter(counters, "itlb_misses")),
            per_ki(counter(counters, "dtlb_misses")),
            if branches > 0.0 {
                counter(counters, "branch_mispredicts") * 1000.0 / branches
            } else {
                0.0
            },
        ]
    });

    Ok(ParsedLine::Run(RunSample {
        benchmark,
        run,
        metrics,
        features,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_and_legacy_streams_both_parse() {
        match parse_line("{\"schema\":1}", 1).unwrap() {
            ParsedLine::Header(1) => {}
            other => panic!("expected header, got {other:?}"),
        }
        match parse_line("{\"type\":\"summary\",\"experiment\":\"x\"}", 1).unwrap() {
            ParsedLine::Skipped => {}
            other => panic!("expected skip, got {other:?}"),
        }
    }

    #[test]
    fn future_schema_is_rejected() {
        let err = parse_line("{\"schema\":999}", 1).unwrap_err();
        assert!(matches!(
            err,
            StreamError::UnsupportedSchema { found: 999, .. }
        ));
    }

    #[test]
    fn malformed_line_reports_position() {
        let err = parse_line("{nope", 7).unwrap_err();
        match err {
            StreamError::Malformed { line_no, .. } => assert_eq!(line_no, 7),
            other => panic!("expected malformed, got {other:?}"),
        }
    }

    #[test]
    fn run_record_yields_metrics_and_features() {
        let line = concat!(
            "{\"type\":\"run\",\"experiment\":\"t\",\"benchmark\":\"bzip2\",",
            "\"variant\":\"stabilized\",\"run\":3,\"engine\":\"vm\",\"seconds\":0.5,",
            "\"counters\":{\"instructions\":1000,\"cycles\":1500,\"l1i_misses\":10,",
            "\"l1d_misses\":20,\"l2_misses\":5,\"l3_misses\":1,\"itlb_misses\":2,",
            "\"dtlb_misses\":3,\"branches\":200,\"branch_mispredicts\":8}}"
        );
        match parse_line(line, 1).unwrap() {
            ParsedLine::Run(sample) => {
                assert_eq!(sample.benchmark, "bzip2/stabilized");
                assert_eq!(sample.run, 3);
                assert_eq!(sample.metrics[0], ("seconds", 0.5));
                assert_eq!(sample.metrics[1], ("cpi", 1.5));
                let features = sample.features.expect("counters present");
                assert_eq!(features.len(), FEATURE_NAMES.len());
                assert_eq!(features[0], 1.5); // cpi
                assert_eq!(features[1], 10.0); // l1i per kilo-instruction
                assert_eq!(features[7], 40.0); // mispredicts per kilo-branch
            }
            other => panic!("expected run, got {other:?}"),
        }
    }
}
