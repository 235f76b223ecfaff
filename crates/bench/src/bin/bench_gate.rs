//! `bench_gate` — the statistically sound throughput-regression gate.
//!
//! ```text
//! bench_gate [--gates a,b] --baseline BENCH_sim.json fresh1.json fresh2.json ...
//! ```
//!
//! Replaces the old fixed "median > baseline × 1.20 fails" rule with a
//! practical-equivalence verdict: for each gated metric the committed
//! baseline's per-sample timings form one arm, the fresh runs form the
//! other (one bootstrap run per fresh file), and a hierarchical
//! bootstrap ratio CI plus Welch CI classify the change as
//! robustly-faster / robustly-slower / equivalent / inconclusive at a
//! multiplicative band of `SZ_GATE_BAND` (default 0.20, i.e. ±20%).
//!
//! Only **robustly-slower** fails the gate: the whole confidence
//! interval must clear the band before a regression is called, so a
//! single noisy CI run can neither fail the build nor mask a real
//! slowdown behind a lucky median. Every verdict is printed with its
//! full audit metadata (ratio CI, band, seed, samples per arm).
//!
//! `--gates` restricts the run to a comma-separated subset of gate
//! labels (unknown labels are an error), so CI can judge the serving
//! latency gate against freshly measured files without re-reading the
//! interpreter sections.
//!
//! Samples are compared only like with like: a fresh file whose
//! top-level `machine` or `schema_version`, or a judged section's
//! `threads`, differs from the baseline's is refused with exit 2, and
//! the message names the field and both values.
//!
//! Requires `schema_version` >= 5 baselines (per-sample arrays; the
//! `loadgen` gate needs >= 6); exit codes: 0 pass, 1 regression,
//! 2 usage/parse error or configuration mismatch.

use std::process::ExitCode;

use sz_harness::{fmt_verdict, Json};
use sz_stats::{judge_hierarchical, EffectVerdict, VerdictConfig};

/// Fixed bootstrap seed so gate verdicts are reproducible bit-for-bit
/// from the same input files.
const GATE_SEED: u64 = 0x6A7E_5EED;

/// The gated metrics: `(label, section, samples key)`. Sections carry
/// raw per-sample arrays; lower is better for all of them.
const GATES: [(&str, &str, &str); 5] = [
    ("vm_dispatch", "vm_dispatch", "samples_ns_per_instr"),
    ("fused_dispatch", "fused_dispatch", "samples_ns_per_instr"),
    ("fetch_span", "fetch_span", "samples_ns_per_instr"),
    ("fig6_quick", "fig6_quick", "wall_samples"),
    ("loadgen", "loadgen", "samples_p99_us"),
];

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(text.trim()).map_err(|e| format!("{path}: {e:?}"))
}

fn samples(doc: &Json, section: &str, key: &str, path: &str) -> Result<Vec<f64>, String> {
    let arr = doc
        .get(section)
        .and_then(|s| s.get(key))
        .and_then(Json::as_arr)
        .ok_or_else(|| {
            format!("{path}: missing {section}.{key} (needs schema_version >= 5 — re-baseline?)")
        })?;
    let out: Vec<f64> = arr.iter().filter_map(Json::as_f64).collect();
    if out.len() < 2 || out.len() != arr.len() {
        return Err(format!("{path}: {section}.{key} must be >= 2 numbers"));
    }
    Ok(out)
}

/// Top-level fields that must match between baseline and fresh files.
const SAME_FIELDS: [&str; 2] = ["machine", "schema_version"];

/// Errors unless `fresh` was recorded under the baseline's
/// configuration: the same `machine` and `schema_version`, and the
/// same `threads` in each of `sections` (absent counts as a value).
fn check_comparable(
    baseline: &Json,
    fresh: &Json,
    path: &str,
    sections: &[&str],
) -> Result<(), String> {
    fn threads<'a>(doc: &'a Json, section: &str) -> Option<&'a Json> {
        doc.get(section).and_then(|s| s.get("threads"))
    }
    let fields = SAME_FIELDS
        .iter()
        .map(|&key| (key.to_string(), baseline.get(key), fresh.get(key)))
        .chain(sections.iter().map(|&section| {
            (
                format!("{section}.threads"),
                threads(baseline, section),
                threads(fresh, section),
            )
        }));
    for (field, want, got) in fields {
        if want != got {
            let show = |v: Option<&Json>| v.map_or_else(|| "absent".to_string(), Json::to_string);
            return Err(format!(
                "{path}: {field} is {} but the baseline's is {}; \
                 samples from different configurations cannot be compared",
                show(got),
                show(want)
            ));
        }
    }
    Ok(())
}

fn run() -> Result<bool, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut selected: Option<Vec<String>> = None;
    if args.first().is_some_and(|a| a == "--gates") {
        if args.len() < 2 {
            return Err("--gates needs a comma-separated label list".to_string());
        }
        let list: Vec<String> = args[1].split(',').map(str::to_string).collect();
        for label in &list {
            if !GATES.iter().any(|(l, _, _)| l == label) {
                return Err(format!("unknown gate label {label:?}"));
            }
        }
        args.drain(..2);
        selected = Some(list);
    }
    let (baseline_path, fresh_paths) = match args.split_first() {
        Some((flag, rest)) if flag == "--baseline" && rest.len() >= 2 => (&rest[0], &rest[1..]),
        _ => {
            return Err("usage: bench_gate [--gates a,b] --baseline BENCH_sim.json \
                 fresh1.json [fresh2.json ...]"
                .to_string())
        }
    };
    let band = match std::env::var("SZ_GATE_BAND") {
        Ok(v) if v.is_empty() => 0.20,
        Ok(v) => {
            let b: f64 = v
                .parse()
                .map_err(|_| format!("SZ_GATE_BAND={v:?} is not a number"))?;
            if !(b.is_finite() && b > 0.0) {
                return Err(format!("SZ_GATE_BAND={v:?} must be a positive number"));
            }
            b
        }
        Err(_) => 0.20,
    };
    let cfg = VerdictConfig {
        band,
        resamples: 2000,
        seed: GATE_SEED,
        ..VerdictConfig::default()
    };

    let baseline = load(baseline_path)?;
    let fresh: Vec<(String, Json)> = fresh_paths
        .iter()
        .map(|p| load(p).map(|doc| (p.clone(), doc)))
        .collect::<Result<_, _>>()?;
    let gates: Vec<(&str, &str, &str)> = GATES
        .into_iter()
        .filter(|(label, _, _)| {
            selected
                .as_ref()
                .is_none_or(|list| list.iter().any(|l| l == label))
        })
        .collect();
    let sections: Vec<&str> = gates.iter().map(|&(_, section, _)| section).collect();
    for (path, doc) in &fresh {
        check_comparable(&baseline, doc, path, &sections)?;
    }

    let mut failed = Vec::new();
    for (label, section, key) in gates {
        let base_arm = vec![samples(&baseline, section, key, baseline_path)?];
        let fresh_arm: Vec<Vec<f64>> = fresh
            .iter()
            .map(|(p, doc)| samples(doc, section, key, p))
            .collect::<Result<_, _>>()?;
        // Arm `a` is the committed baseline, `b` the fresh runs, so
        // ratio > 1 means fresh got faster and robustly-slower means
        // the whole CI clears the band in the wrong direction.
        let report = judge_hierarchical(&base_arm, &fresh_arm, &cfg)
            .map_err(|e| format!("{label}: verdict not computable: {e}"))?;
        println!("{label}: {}", fmt_verdict(&report));
        if report.verdict == EffectVerdict::RobustlySlower {
            failed.push(format!(
                "{label} regressed: fresh/baseline ratio {:.4}, \
                 ratio CI [{:.4}, {:.4}] entirely below 1/(1+{band:.2}), \
                 welch CI [{:.4}, {:.4}], resamples {}, seed {:#x}, n {}+{}",
                report.effect.ratio,
                report.effect.lo,
                report.effect.hi,
                report.welch.lo,
                report.welch.hi,
                report.effect.resamples,
                report.effect.seed,
                report.n_a,
                report.n_b,
            ));
        }
    }
    for f in &failed {
        eprintln!("bench_gate FAIL: {f}");
    }
    Ok(failed.is_empty())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => {
            println!("bench_gate: no robust regressions");
            ExitCode::SUCCESS
        }
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("bench_gate: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn different_configurations_are_refused() {
        let doc = |machine: &str, schema: u64, threads: u64| {
            Json::parse(&format!(
                r#"{{"schema_version":{schema},"machine":"{machine}","fig6_quick":{{"threads":{threads}}},"loadgen":{{}}}}"#
            ))
            .unwrap()
        };
        let baseline = doc("core_i3_550", 6, 1);
        let sections = ["fig6_quick", "loadgen"];
        assert_eq!(
            check_comparable(&baseline, &doc("core_i3_550", 6, 1), "f.json", &sections),
            Ok(())
        );
        for (fresh, field, got, want) in [
            (doc("core_i3_550", 6, 2), "fig6_quick.threads", "2", "1"),
            (doc("tiny", 6, 1), "machine", "\"tiny\"", "\"core_i3_550\""),
            (doc("core_i3_550", 7, 1), "schema_version", "7", "6"),
        ] {
            let err = check_comparable(&baseline, &fresh, "f.json", &sections).unwrap_err();
            assert!(
                err.starts_with(&format!(
                    "f.json: {field} is {got} but the baseline's is {want};"
                )),
                "{err}"
            );
        }
        // A section that is not judged is not compared.
        assert_eq!(
            check_comparable(&baseline, &doc("core_i3_550", 6, 2), "f.json", &["loadgen"]),
            Ok(())
        );
        let missing = Json::parse(r#"{"schema_version":6,"machine":"core_i3_550"}"#).unwrap();
        let err = check_comparable(&baseline, &missing, "f.json", &sections).unwrap_err();
        assert!(err.contains("fig6_quick.threads is absent"), "{err}");
    }

    #[test]
    fn samples_extracts_and_validates() {
        let doc = Json::parse(r#"{"m":{"samples_ns_per_instr":[1.0,2.0,3.0]}}"#).unwrap();
        assert_eq!(
            samples(&doc, "m", "samples_ns_per_instr", "x.json").unwrap(),
            vec![1.0, 2.0, 3.0]
        );
        let missing = Json::parse(r#"{"m":{"ns_per_instr":1.0}}"#).unwrap();
        let err = samples(&missing, "m", "samples_ns_per_instr", "x.json").unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
        let short = Json::parse(r#"{"m":{"samples_ns_per_instr":[1.0]}}"#).unwrap();
        assert!(samples(&short, "m", "samples_ns_per_instr", "x.json").is_err());
    }
}
