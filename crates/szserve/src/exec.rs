//! Request execution: one [`RunRequest`] in, one [`JobOutput`] out.
//!
//! Every experiment is executed through the same `run_traced` entry
//! points the `sz-bench` binaries use, with an in-memory
//! [`TraceSink`] capturing the per-run records. The captured JSONL is
//! the unit of caching: it embeds the full sample vectors and
//! per-period counter snapshots, so replaying it from the cache is
//! observationally identical to a cold run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use sz_harness::experiments::{anova, bias, fig5, fig6, fig7, nist, table1};
use sz_harness::runner::{stabilized_reports, ExperimentOptions};
use sz_harness::{Json, TraceSink};
use sz_machine::{MachineConfig, SimTime};
use sz_opt::{optimize, OptLevel};
use sz_stats::{mean, welch_t_test, ALPHA};
use sz_vm::RunReport;

use crate::adaptive::{adaptive_evaluate, outcome_json, AdaptiveOutcome};
use crate::proto::{Experiment, RunRequest};

/// Why a job did not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The job's cancellation flag was set.
    Cancelled,
    /// The job's deadline passed before it could finish.
    Deadline,
    /// The request was executable in principle but failed.
    Failed(String),
}

impl ExecError {
    /// Wire string for `status` / `result` lines.
    pub fn reason(&self) -> String {
        match self {
            ExecError::Cancelled => "cancelled".to_string(),
            ExecError::Deadline => "deadline exceeded".to_string(),
            ExecError::Failed(msg) => msg.clone(),
        }
    }
}

/// A job's cancellation flag and deadline, checked together at every
/// interruption point.
#[derive(Clone, Copy)]
pub struct JobCtl<'a> {
    /// Set by `cancel` requests and scheduler shutdown.
    pub cancel: &'a AtomicBool,
    /// Absolute cutoff, fixed when the worker dequeues the job.
    pub deadline: Option<Instant>,
}

impl JobCtl<'_> {
    /// Fails fast when the job was cancelled or its deadline passed.
    ///
    /// # Errors
    ///
    /// [`ExecError::Cancelled`] / [`ExecError::Deadline`].
    pub fn checkpoint(&self) -> Result<(), ExecError> {
        if self.cancel.load(Ordering::SeqCst) {
            return Err(ExecError::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(ExecError::Deadline);
        }
        Ok(())
    }
}

/// The product of one executed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutput {
    /// Captured JSONL trace: every `run` record (sample + period
    /// snapshots) plus the experiment's `summary` records.
    pub trace: String,
    /// Experiment-level result fields for the `result` line.
    pub summary: Json,
    /// Benchmark executions performed.
    pub samples_used: u64,
    /// Executions avoided by adaptive stopping (0 elsewhere).
    pub samples_saved: u64,
}

impl JobOutput {
    /// The terminal `result` line of a reply carrying this output,
    /// newline included. The reply to the job's own request names the
    /// job (`Some(id)`, `"cached":false`); a cache hit names none
    /// (`None`, `"cached":true`).
    pub fn result_line(&self, experiment: &str, job: Option<u64>) -> Vec<u8> {
        let mut fields = vec![
            ("type".to_string(), Json::from("result")),
            ("experiment".to_string(), experiment.into()),
            ("cached".to_string(), job.is_none().into()),
            ("samples_used".to_string(), self.samples_used.into()),
            ("samples_saved".to_string(), self.samples_saved.into()),
            ("summary".to_string(), self.summary.clone()),
        ];
        if let Some(id) = job {
            fields.insert(1, ("job".to_string(), id.into()));
        }
        format!("{}\n", Json::Obj(fields)).into_bytes()
    }
}

/// Builds the harness options for a request. `threads` is the
/// server-side worker count (already resolved from the request hint).
pub fn options(spec: &RunRequest, threads: usize) -> ExperimentOptions {
    ExperimentOptions {
        scale: spec.scale,
        runs: spec.runs,
        machine: MachineConfig::core_i3_550(),
        interval: SimTime::from_millis(spec.interval_ms),
        seed_base: spec.seed_base,
        threads,
        benchmarks: spec.benchmarks.clone(),
    }
}

fn opt_level(name: &str) -> Result<OptLevel, ExecError> {
    Ok(match name {
        "O0" => OptLevel::O0,
        "O1" => OptLevel::O1,
        "O2" => OptLevel::O2,
        "O3" => OptLevel::O3,
        other => return Err(ExecError::Failed(format!("unknown opt level {other:?}"))),
    })
}

/// Executes one request to completion on the calling thread.
///
/// Cancellation and deadlines are honored at the boundaries the
/// execution layer controls: before starting, between an `evaluate`
/// job's sampling batches, between a `bias` job's benchmarks, and in
/// 5 ms slices of `selftest-sleep`. A monolithic experiment call
/// (`table1`, `fig6`, …) that is already running completes and is
/// then discarded if it was cancelled meanwhile.
///
/// # Errors
///
/// [`ExecError`] on cancellation, deadline expiry, or a request that
/// names no usable benchmarks.
pub fn execute(
    spec: &RunRequest,
    threads: usize,
    cancel: &AtomicBool,
    deadline: Option<Instant>,
) -> Result<JobOutput, ExecError> {
    let ctl = JobCtl { cancel, deadline };
    ctl.checkpoint()?;
    let opts = options(spec, threads);
    let (sink, buffer) = TraceSink::in_memory();
    let suite_len = opts.selected_suite().len();
    if suite_len == 0
        && !matches!(
            spec.experiment,
            Experiment::Nist | Experiment::SelftestSleep
        )
    {
        return Err(ExecError::Failed(
            "benchmark filter matched nothing".to_string(),
        ));
    }

    let runs = spec.runs as u64;
    let (summary, samples_used, samples_saved) = match spec.experiment {
        Experiment::Table1 => {
            let rows = table1::run_traced(&opts, Some(&sink));
            let s = table1::summarize(&rows);
            (
                Json::obj([
                    ("benchmarks", s.total.into()),
                    ("non_normal_one_time", s.non_normal_one_time.into()),
                    ("non_normal_rerandomized", s.non_normal_rerandomized.into()),
                    ("variance_changed", s.variance_changed.into()),
                ]),
                2 * runs * rows.len() as u64,
                0,
            )
        }
        Experiment::Fig5 => {
            let rows = table1::run_traced(&opts, Some(&sink));
            let panels = fig5::from_table1_traced(&rows, Some(&sink));
            (
                Json::obj([("panels", panels.len().into())]),
                2 * runs * rows.len() as u64,
                0,
            )
        }
        Experiment::Fig6 => {
            let result = fig6::run_traced(&opts, Some(&sink));
            (
                Json::obj([
                    ("benchmarks", result.rows.len().into()),
                    ("median_full_overhead", result.median_full_overhead.into()),
                ]),
                // One randomized-link baseline plus three stabilized
                // configurations per benchmark.
                4 * runs * result.rows.len() as u64,
                0,
            )
        }
        Experiment::Fig7 => {
            let rows = fig7::run_traced(&opts, Some(&sink));
            let s = fig7::summarize(&rows);
            (
                Json::obj([
                    ("benchmarks", s.total.into()),
                    ("significant_o2", s.significant_o2.into()),
                    ("significant_o3", s.significant_o3.into()),
                    ("regressions_o2", s.regressions_o2.into()),
                    ("regressions_o3", s.regressions_o3.into()),
                ]),
                3 * runs * rows.len() as u64,
                0,
            )
        }
        Experiment::Anova => {
            let rows = fig7::run_traced(&opts, Some(&sink));
            let result = anova::run_traced(&rows, Some(&sink))
                .map_err(|e| ExecError::Failed(format!("anova needs >= 2 benchmarks: {e}")))?;
            (
                Json::obj([
                    ("benchmarks", rows.len().into()),
                    ("o2_vs_o1_p", result.o2_vs_o1.p_value.into()),
                    ("o3_vs_o2_p", result.o3_vs_o2.p_value.into()),
                ]),
                3 * runs * rows.len() as u64,
                0,
            )
        }
        Experiment::Nist => {
            let draws = match spec.scale {
                sz_workloads::Scale::Tiny => 2_048,
                sz_workloads::Scale::Small => 8_192,
                sz_workloads::Scale::Full => 65_536,
            };
            let rows = nist::run_traced(draws, &[2, 16, 64, 256], Some(&sink));
            let sources = Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("source", r.source.as_str().into()),
                            ("passes", r.passes().into()),
                            ("tests", r.results.len().into()),
                        ])
                    })
                    .collect(),
            );
            (
                Json::obj([("draws", draws.into()), ("sources", sources)]),
                draws as u64,
                0,
            )
        }
        Experiment::Bias => {
            let mut sweeps = Vec::new();
            let n = spec.runs.max(4);
            for bench_spec in opts.selected_suite() {
                ctl.checkpoint()?;
                let link = bias::link_order_sweep_traced(&opts, bench_spec.name, n, Some(&sink));
                let env = bias::env_size_sweep_traced(&opts, bench_spec.name, n, Some(&sink));
                sweeps.push(Json::obj([
                    ("benchmark", bench_spec.name.into()),
                    ("link_order_swing", link.swing.into()),
                    ("env_size_swing", env.swing.into()),
                ]));
            }
            let used = 2 * n as u64 * suite_len as u64;
            (Json::obj([("sweeps", Json::Arr(sweeps))]), used, 0)
        }
        Experiment::Evaluate => return evaluate(spec, &opts, &ctl, &sink, &buffer),
        Experiment::SelftestSleep => {
            let start = Instant::now();
            while (start.elapsed().as_millis() as u64) < spec.sleep_ms {
                ctl.checkpoint()?;
                std::thread::sleep(std::time::Duration::from_millis(
                    5.min(spec.sleep_ms - start.elapsed().as_millis() as u64)
                        .max(1),
                ));
            }
            sink.summary_record("selftest-sleep", vec![("slept_ms", spec.sleep_ms.into())]);
            (Json::obj([("slept_ms", spec.sleep_ms.into())]), 0, 0)
        }
    };
    // A monolithic experiment that was cancelled while running still
    // completed; honor the cancellation by discarding its result.
    ctl.checkpoint()?;
    sink.flush();
    Ok(JobOutput {
        trace: buffer.contents(),
        summary,
        samples_used,
        samples_saved,
    })
}

/// The §2.4 change evaluation of one benchmark: fixed-N or adaptive
/// sampling of its before/after programs, a `verdict` summary record
/// at the end of the trace.
fn evaluate(
    spec: &RunRequest,
    opts: &ExperimentOptions,
    ctl: &JobCtl<'_>,
    sink: &TraceSink,
    buffer: &sz_harness::TraceBuffer,
) -> Result<JobOutput, ExecError> {
    let suite = opts.selected_suite();
    let bench_spec = suite
        .first()
        .ok_or_else(|| ExecError::Failed("evaluate needs a benchmark".to_string()))?;
    if suite.len() > 1 {
        return Err(ExecError::Failed(
            "evaluate takes exactly one benchmark".to_string(),
        ));
    }
    let benchmark = bench_spec.name;
    let base = bench_spec.program(opts.scale);
    let before = optimize(&base, opt_level(&spec.before_opt)?);
    let after = optimize(&base, opt_level(&spec.after_opt)?);

    let (outcome, adaptive) = match &spec.adaptive {
        Some(params) => (
            adaptive_evaluate(&before, &after, opts, params, benchmark, ctl, Some(sink))?,
            true,
        ),
        None => (
            fixed_evaluate(&before, &after, opts, benchmark, ctl, sink)?,
            false,
        ),
    };

    let mut summary_fields = vec![
        ("benchmark".to_string(), Json::from(benchmark)),
        ("before".to_string(), spec.before_opt.as_str().into()),
        ("after".to_string(), spec.after_opt.as_str().into()),
    ];
    if let Json::Obj(fields) = outcome_json(&outcome, adaptive) {
        summary_fields.extend(fields);
    }
    sink.summary_record(
        "evaluate",
        vec![
            ("benchmark", benchmark.into()),
            ("event", "verdict".into()),
            ("significant", outcome.significant.into()),
            ("p_value", outcome.p_value.into()),
            ("speedup", outcome.speedup.into()),
            ("samples_per_arm", outcome.samples_per_arm.into()),
            (
                "practical",
                outcome
                    .verdict
                    .as_ref()
                    .map_or("no-verdict", |r| r.verdict.as_str())
                    .into(),
            ),
        ],
    );
    sink.flush();
    Ok(JobOutput {
        trace: buffer.contents(),
        summary: Json::Obj(summary_fields),
        samples_used: 2 * outcome.samples_per_arm as u64,
        samples_saved: if adaptive {
            outcome.samples_saved() as u64
        } else {
            0
        },
    })
}

/// The fixed protocol: `opts.runs` re-randomized runs per arm, then
/// one Welch test, effect CI and practical verdict over the full arms.
fn fixed_evaluate(
    before: &sz_ir::Program,
    after: &sz_ir::Program,
    opts: &ExperimentOptions,
    benchmark: &str,
    ctl: &JobCtl<'_>,
    sink: &TraceSink,
) -> Result<AdaptiveOutcome, ExecError> {
    let mut arms: Vec<Vec<f64>> = Vec::new();
    for (program, variant) in [(before, "before"), (after, "after")] {
        ctl.checkpoint()?;
        let reports = stabilized_reports(program, opts, stabilizer::Config::default(), opts.runs);
        sink.run_records("evaluate", benchmark, variant, &reports);
        arms.push(reports.iter().map(RunReport::seconds).collect());
    }
    let after_s = arms.pop().expect("two arms");
    let before_s = arms.pop().expect("two arms");
    let p_value = welch_t_test(&before_s, &after_s).map_or(1.0, |t| t.p_value);
    let rel = sz_stats::diff_ci(&after_s, &before_s, 0.95)
        .map(|ci| ci.relative_margin(mean(&before_s)))
        .unwrap_or(f64::INFINITY);
    let verdict = sz_stats::judge(&before_s, &after_s, &sz_stats::VerdictConfig::default()).ok();
    Ok(AdaptiveOutcome {
        samples_per_arm: opts.runs,
        max_runs: opts.runs,
        stopped_early: false,
        relative_half_width: rel,
        p_value,
        significant: p_value < ALPHA,
        speedup: mean(&before_s) / mean(&after_s),
        verdict,
        before: before_s,
        after: after_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::cache_key;

    fn run(spec: &RunRequest) -> JobOutput {
        let cancel = AtomicBool::new(false);
        execute(spec, 2, &cancel, None).expect("job succeeds")
    }

    fn quick(experiment: Experiment) -> RunRequest {
        let mut spec = RunRequest::quick(experiment);
        spec.benchmarks = Some(vec!["bzip2".into()]);
        spec.runs = 4;
        spec
    }

    #[test]
    fn table1_produces_run_records_and_a_summary() {
        let out = run(&quick(Experiment::Table1));
        assert!(out.trace.contains(r#""type":"run""#));
        assert!(out.trace.contains(r#""variant":"rerandomized""#));
        assert_eq!(out.summary.get("benchmarks").unwrap().as_u64(), Some(1));
        assert_eq!(out.samples_used, 8);
    }

    #[test]
    fn execution_is_deterministic_and_thread_invariant() {
        let spec = quick(Experiment::Table1);
        let cancel = AtomicBool::new(false);
        let a = execute(&spec, 1, &cancel, None).unwrap();
        let b = execute(&spec, 4, &cancel, None).unwrap();
        assert_eq!(a.trace, b.trace, "threads must not change the bytes");
        assert_eq!(a.summary, b.summary);
        // This equality is what makes cache hits exact, and the key
        // deliberately omits the thread count.
        assert_eq!(cache_key(&spec), cache_key(&spec));
    }

    #[test]
    fn empty_benchmark_filter_is_an_error() {
        let mut spec = quick(Experiment::Fig7);
        spec.benchmarks = Some(vec!["no-such-benchmark".into()]);
        let cancel = AtomicBool::new(false);
        let err = execute(&spec, 2, &cancel, None).unwrap_err();
        assert!(matches!(err, ExecError::Failed(_)));
    }

    #[test]
    fn evaluate_fixed_mode_reports_a_verdict() {
        let mut spec = quick(Experiment::Evaluate);
        spec.benchmarks = Some(vec!["gobmk".into()]);
        spec.runs = 6;
        let out = run(&spec);
        assert_eq!(out.summary.get("mode").unwrap().as_str(), Some("fixed"));
        assert!(out.summary.get("p_value").unwrap().as_f64().is_some());
        let practical = out.summary.get("practical").expect("practical verdict");
        assert!(practical.get("verdict").unwrap().as_str().is_some());
        assert!(practical.get("effect_lo").unwrap().as_f64().is_some());
        assert!(out.trace.contains(r#""practical":"#));
        assert_eq!(out.samples_used, 12);
        assert_eq!(out.samples_saved, 0);
        assert!(out.trace.contains(r#""variant":"before""#));
        assert!(out.trace.contains(r#""variant":"after""#));
    }

    #[test]
    fn selftest_sleep_is_cancellable() {
        let mut spec = RunRequest::quick(Experiment::SelftestSleep);
        spec.sleep_ms = 10_000;
        let cancel = AtomicBool::new(true);
        let err = execute(&spec, 1, &cancel, None).unwrap_err();
        assert_eq!(err, ExecError::Cancelled);
    }
}
