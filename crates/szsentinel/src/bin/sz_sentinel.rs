//! Offline trace scanner: replay recorded JSONL traces through the
//! sentinel and print alert/anomaly records as JSONL.
//!
//! Exit codes: 0 = scanned clean, 1 = at least one change-point
//! alert, 2 = usage or stream error. `--inject-step` exists for the
//! CI armed negative control: it multiplies the `seconds` metric of
//! late runs by a factor before detection, so a clean recorded trace
//! doubles as its own regression fixture.

use std::io::{self, BufRead, BufReader, Write};
use std::process::ExitCode;

use sz_sentinel::{parse_line, ParsedLine, Sentinel, SentinelConfig};

struct Options {
    config: SentinelConfig,
    inject_step: Option<f64>,
    inject_at: u64,
    files: Vec<String>,
}

fn usage() -> String {
    [
        "usage: sz-sentinel [options] [FILE ...]",
        "",
        "Scans JSONL trace streams (stdin when no FILE) for metric",
        "shifts and layout-sensitivity outliers; prints alerts as JSONL.",
        "",
        "options:",
        "  --window N        samples per change-point window (default 4)",
        "  --band F          practical-equivalence band (default 0.05)",
        "  --confidence F    CI confidence level (default 0.95)",
        "  --resamples N     bootstrap resamples (default 1000)",
        "  --metrics A,B     metrics to watch (default seconds,cpi)",
        "  --top-k N         anomalies surfaced per benchmark (default 3)",
        "  --no-anomalies    change-point alerts only",
        "  --inject-step F   multiply seconds of runs >= --inject-at by F",
        "  --inject-at N     first run index the injection hits (default 0)",
        "",
        "exit: 0 clean, 1 alerted, 2 error",
    ]
    .join("\n")
}

fn parse_options(args: Vec<String>) -> Result<(Options, bool), String> {
    let mut options = Options {
        config: SentinelConfig::default(),
        inject_step: None,
        inject_at: 0,
        files: Vec::new(),
    };
    let mut anomalies = true;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--help" | "-h" => return Err(usage()),
            "--window" => {
                options.config.change.window = value("--window")?
                    .parse::<usize>()
                    .map_err(|e| format!("--window: {e}"))?
                    .max(2)
            }
            "--band" => {
                options.config.change.verdict.band = value("--band")?
                    .parse::<f64>()
                    .map_err(|e| format!("--band: {e}"))?
            }
            "--confidence" => {
                options.config.change.verdict.confidence = value("--confidence")?
                    .parse::<f64>()
                    .map_err(|e| format!("--confidence: {e}"))?
            }
            "--resamples" => {
                options.config.change.verdict.resamples = value("--resamples")?
                    .parse::<usize>()
                    .map_err(|e| format!("--resamples: {e}"))?
            }
            "--metrics" => {
                options.config.metrics = value("--metrics")?
                    .split(',')
                    .map(|m| m.trim().to_string())
                    .filter(|m| !m.is_empty())
                    .collect()
            }
            "--top-k" => {
                options.config.top_k = value("--top-k")?
                    .parse::<usize>()
                    .map_err(|e| format!("--top-k: {e}"))?
            }
            "--no-anomalies" => anomalies = false,
            "--inject-step" => {
                options.inject_step = Some(
                    value("--inject-step")?
                        .parse::<f64>()
                        .map_err(|e| format!("--inject-step: {e}"))?,
                )
            }
            "--inject-at" => {
                options.inject_at = value("--inject-at")?
                    .parse::<u64>()
                    .map_err(|e| format!("--inject-at: {e}"))?
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown option {other}\n{}", usage()))
            }
            file => options.files.push(file.to_string()),
        }
    }
    // Checked here so a bad value is a usage error (exit 2), not the
    // detector's construction panic (exit 101).
    options
        .config
        .change
        .verdict
        .check()
        .map_err(|e| format!("out-of-range option: {e}\n{}", usage()))?;
    Ok((options, anomalies))
}

fn scan_reader(
    sentinel: &mut Sentinel,
    reader: impl BufRead,
    options: &Options,
    out: &mut impl Write,
) -> Result<(), String> {
    let mut line_no = 0u64;
    for line in reader.lines() {
        let line = line.map_err(|e| format!("read failed: {e}"))?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let records = match options.inject_step {
            None => sentinel.ingest_line(trimmed).map_err(|e| e.to_string())?,
            Some(factor) => {
                line_no += 1;
                match parse_line(trimmed, line_no).map_err(|e| e.to_string())? {
                    ParsedLine::Run(mut sample) => {
                        if sample.run >= options.inject_at {
                            for (metric, v) in &mut sample.metrics {
                                if *metric == "seconds" {
                                    *v *= factor;
                                }
                            }
                        }
                        sentinel.ingest_run(&sample)
                    }
                    _ => {
                        // Headers/summaries pass through untouched; feed
                        // them to the engine for schema tracking.
                        sentinel.ingest_line(trimmed).map_err(|e| e.to_string())?
                    }
                }
            }
        };
        for record in records {
            writeln!(out, "{record}").map_err(|e| format!("write failed: {e}"))?;
        }
    }
    Ok(())
}

fn run() -> Result<bool, String> {
    let (options, anomalies) = parse_options(std::env::args().skip(1).collect())?;
    let mut sentinel = Sentinel::new(options.config.clone());
    let stdout = io::stdout();
    let mut out = stdout.lock();
    if options.files.is_empty() {
        let stdin = io::stdin();
        scan_reader(&mut sentinel, stdin.lock(), &options, &mut out)?;
    } else {
        for path in &options.files {
            let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
            scan_reader(&mut sentinel, BufReader::new(file), &options, &mut out)?;
        }
    }
    if anomalies {
        for record in sentinel.anomalies() {
            writeln!(out, "{record}").map_err(|e| format!("write failed: {e}"))?;
        }
    }
    eprintln!(
        "sz-sentinel: {} lines, {} runs, {} alerts",
        sentinel.lines_seen(),
        sentinel.runs_seen(),
        sentinel.alerts_emitted()
    );
    Ok(sentinel.alerts_emitted() > 0)
}

fn main() -> ExitCode {
    match run() {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rejected(args: &[&str]) -> String {
        match parse_options(args.iter().map(|a| a.to_string()).collect()) {
            Ok(_) => panic!("{args:?} was accepted"),
            Err(message) => {
                assert!(message.contains("usage: sz-sentinel"), "{message}");
                message
            }
        }
    }

    #[test]
    fn confidence_above_one_is_a_usage_error() {
        assert!(rejected(&["--confidence", "1.5", "t.jsonl"]).contains("confidence"));
    }

    #[test]
    fn confidence_zero_is_a_usage_error() {
        assert!(rejected(&["--confidence", "0"]).contains("confidence"));
    }

    #[test]
    fn band_zero_is_a_usage_error() {
        assert!(rejected(&["--band", "0"]).contains("band"));
    }

    #[test]
    fn negative_band_is_a_usage_error() {
        assert!(rejected(&["--band", "-0.1"]).contains("band"));
    }

    #[test]
    fn one_resample_is_a_usage_error() {
        assert!(rejected(&["--resamples", "1"]).contains("resamples"));
    }

    #[test]
    fn in_range_options_parse() {
        let args = ["--band", "0.2", "--confidence", "0.99", "--resamples", "2"];
        let (options, _) = parse_options(args.iter().map(|a| a.to_string()).collect())
            .expect("in-range options parse");
        assert_eq!(options.config.change.verdict.band, 0.2);
        assert_eq!(options.config.change.verdict.resamples, 2);
    }
}
