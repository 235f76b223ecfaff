//! sz-benchmark: the end-to-end benchmark of the STABILIZER
//! reproduction. Five workloads, each measured in a process of its own,
//! with every output checked; a traced run attributes host time to the
//! crates (layers) from outside, by timing the benchmark's calls into
//! their public functions. See README.md for the workloads, metrics,
//! bounds and how to read the spans.

mod cpus;
mod fig7;
mod fuzz;
mod metrics;
mod sentinel;
mod serve;
mod trace;
mod workload;
mod yardstick;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use sz_harness::Json;

use metrics::{header, quartiles, END_TO_END, PER_LAYER};
use workload::{run_named, Size, WORKLOADS};

/// Measured seconds per run (`run_seconds` in BENCHMARK.json).
const DEFAULT_SECONDS: u64 = 20;
/// Where `--trace 1` writes spans and layer tables.
const DEFAULT_TRACE_DIR: &str = "target/sz-benchmark-trace";

const USAGE: &str = "\
usage: sz-benchmark --seed N [--workload NAME] [--seconds S] [--trace 0|1|DIR] [--repeat R]

  --seed N         workload seed; equal seeds give equal inputs and digests
  --workload NAME  run one workload in this process and end with its JSON
                   result line; without it, every workload runs in a child
                   process of its own
  --seconds S      measured seconds per run (default 20); every run first
                   completes its workload's pinned prefix of work
  --trace 0|1|DIR  1 or DIR: a traced run, reporting per-layer metrics and
                   writing spans (DIR defaults to target/sz-benchmark-trace)
  --repeat R       run each workload R times, alternating the order; print
                   each metric's median, quartiles and spread against its
                   bound, and check that every run's digest agrees

workloads: fig7_small fuzz_diff serve_cold serve_hit sentinel_replay
exit: 0 every check passed, 1 a check failed, 2 usage error";

#[derive(Debug, Clone)]
struct Args {
    seed: u64,
    workload: Option<String>,
    seconds: u64,
    trace: Option<PathBuf>,
    repeat: Option<usize>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut seed = None;
    let mut parsed = Args {
        seed: 0,
        workload: None,
        seconds: DEFAULT_SECONDS,
        trace: None,
        repeat: None,
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--seed" => seed = Some(number(value()?)?),
            "--seconds" => parsed.seconds = number(value()?)?,
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|(w, _)| *w == name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                parsed.workload = Some(name);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => None,
                    "1" => Some(PathBuf::from(DEFAULT_TRACE_DIR)),
                    dir => Some(PathBuf::from(dir)),
                }
            }
            "--repeat" => match usize::try_from(number(value()?)?) {
                Ok(r) if r >= 1 => parsed.repeat = Some(r),
                _ => return Err("--repeat needs a count of at least 1".into()),
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    parsed.seed = seed.ok_or("--seed is required")?;
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("sz-benchmark: {message}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match (&args.workload, args.repeat) {
        (Some(name), None) => run_one(name, &args),
        (only, repeat) => run_set(only.as_deref(), repeat, &args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs one workload in this process; its JSON result is the last line.
fn run_one(name: &str, args: &Args) -> bool {
    let report = run_named(
        name,
        args.seed,
        args.seconds,
        args.trace.as_deref(),
        Size::Full,
    )
    .expect("workload names are validated when parsed");
    println!("{}", report.header);
    for line in &report.lines {
        println!("{line}");
    }
    println!("digest {name} {}", report.digest);
    println!("{}", report.result_line());
    report.correct
}

/// One child process's run of one workload.
struct ChildRun {
    workload: &'static str,
    ok: bool,
    result: Option<Json>,
    digest: Option<String>,
}

fn run_child(workload: &'static str, seed: u64, args: &Args, echo: bool) -> ChildRun {
    let trace = args
        .trace
        .as_ref()
        .map_or("0".to_string(), |dir| dir.display().to_string());
    let output = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--trace", &trace])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
    });
    let Ok(output) = output else {
        eprintln!("sz-benchmark: could not run the {workload} child process");
        return ChildRun {
            workload,
            ok: false,
            result: None,
            digest: None,
        };
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    let result = stdout.lines().last().and_then(|l| Json::parse(l).ok());
    let prefix = format!("digest {workload} ");
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix(&prefix).map(str::to_string));
    let correct = result
        .as_ref()
        .and_then(|r| r.get("correct"))
        .and_then(Json::as_bool)
        == Some(true);
    ChildRun {
        workload,
        ok: output.status.success() && correct,
        result,
        digest,
    }
}

/// Runs every workload (or the one named) `repeat` times, each run in a
/// child process, alternating the workload order between rounds.
fn run_set(only: Option<&str>, repeat: Option<usize>, args: &Args) -> bool {
    let names: Vec<&'static str> = WORKLOADS
        .iter()
        .map(|(w, _)| *w)
        .filter(|w| only.is_none_or(|o| o == *w))
        .collect();
    let rounds = repeat.unwrap_or(1);
    let sizes = Json::obj([
        ("repeat", rounds.into()),
        (
            "workloads",
            Json::Arr(names.iter().map(|&w| w.into()).collect()),
        ),
    ]);
    println!(
        "{}",
        header("set", args.seed, args.seconds, args.trace.is_some(), sizes)
    );
    let mut runs = Vec::new();
    for round in 0..rounds {
        let mut order = names.clone();
        if round % 2 == 1 {
            order.reverse();
        }
        for &w in &order {
            let run = run_child(w, args.seed, args, repeat.is_none());
            if repeat.is_some() {
                println!(
                    "round {round} {w}: {}",
                    if run.ok { "ok" } else { "FAILED" }
                );
            }
            runs.push(run);
        }
    }
    let mut ok = runs.iter().all(|r| r.ok);
    if repeat.is_some() {
        ok &= summarize(&names, &runs, args.trace.is_some());
    }
    let passed = runs.iter().filter(|r| r.ok).count();
    println!(
        "sz-benchmark: {passed}/{} runs passed every check",
        runs.len()
    );
    ok
}

/// Prints each metric's median, quartiles and spread against its bound
/// (flagging a spread beyond it), and checks that every run of a
/// workload gave the same digest. False on a digest mismatch.
fn summarize(names: &[&'static str], runs: &[ChildRun], traced: bool) -> bool {
    let metrics = if traced {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let mut digests_agree = true;
    println!(
        "{:<16} {:<30} {:<6} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "better", "q1", "median", "q3", "spread", "bound"
    );
    for &w in names {
        let mine: Vec<&ChildRun> = runs.iter().filter(|r| r.workload == w).collect();
        for m in metrics {
            let values: Vec<f64> = mine
                .iter()
                .filter_map(|r| {
                    r.result
                        .as_ref()?
                        .get("metrics")?
                        .get(m.name)?
                        .get("value")?
                        .as_f64()
                })
                .collect();
            let (q1, median, q3) = quartiles(&values);
            let spread = (q3 - q1) / median.abs();
            let bound = m.bound.map_or("-".to_string(), |b| format!("{b:.2}"));
            let flag = match m.bound {
                Some(b) if spread.is_nan() || spread > b => "  SPREAD EXCEEDS BOUND",
                _ => "",
            };
            println!(
                "{w:<16} {:<30} {:<6} {q1:>14.6} {median:>14.6} {q3:>14.6} {spread:>8.4} {bound:>6}{flag}",
                m.name,
                m.better.as_str()
            );
        }
        let digests: Vec<&Option<String>> = mine.iter().map(|r| &r.digest).collect();
        if digests.windows(2).any(|pair| pair[0] != pair[1]) || digests.contains(&&None) {
            digests_agree = false;
            println!("{w}: DIGESTS DIFFER across runs of one seed: {digests:?}");
        } else if let Some(Some(d)) = digests.first() {
            println!("{w}: digest {d} in all {} runs", digests.len());
        }
    }
    digests_agree
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_in_the_form_benchmark_json_runs_them() {
        let a = args(&[
            "--workload",
            "fuzz_diff",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "0",
        ])
        .expect("valid arguments");
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds),
            (Some("fuzz_diff"), 7, 3)
        );
        assert!(a.trace.is_none());
        let traced = args(&["--seed", "1", "--trace", "1"]).expect("valid arguments");
        assert_eq!(traced.trace, Some(PathBuf::from(DEFAULT_TRACE_DIR)));
        assert_eq!(traced.seconds, DEFAULT_SECONDS);
        assert!(
            args(&["--workload", "fig7_small"]).is_err(),
            "the seed is required"
        );
        assert!(args(&["--seed", "1", "--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1", "--repeat", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
    }

    #[test]
    fn benchmark_json_declares_exactly_this_binary_s_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
        let Json::Obj(fields) = &doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).expect(key).to_vec();
        let text_of = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).map(str::to_string);
        assert_eq!(list("paths"), [Json::Str("src/bin/sz-benchmark".into())]);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(DEFAULT_SECONDS)
        );
        let manifest = Json::Str("src/bin/sz-benchmark/Cargo.toml".into());
        assert!(list("command").contains(&manifest));

        let workloads: Vec<(Option<String>, Option<String>)> = list("workloads")
            .iter()
            .map(|w| (text_of(w, "name"), text_of(w, "why")))
            .collect();
        let expected: Vec<_> = WORKLOADS
            .iter()
            .map(|(n, w)| (Some(n.to_string()), Some(w.to_string())))
            .collect();
        assert_eq!(workloads, expected);

        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared = list(key);
            assert_eq!(declared.len(), table.len(), "{key}");
            for (d, m) in declared.iter().zip(table) {
                assert_eq!(text_of(d, "name").as_deref(), Some(m.name));
                assert_eq!(text_of(d, "unit").as_deref(), Some(m.unit), "{}", m.name);
                assert_eq!(
                    text_of(d, "better").as_deref(),
                    Some(m.better.as_str()),
                    "{}",
                    m.name
                );
                assert_eq!(d.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
            }
        }
    }
}
