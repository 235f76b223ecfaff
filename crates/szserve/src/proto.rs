//! The wire protocol: one JSON object per line, in both directions.
//!
//! Requests and responses are plain [`Json`] values — the same
//! hand-rolled type the trace sinks emit — so the protocol needs no
//! new dependencies and every run record the server streams back is
//! byte-compatible with the JSONL traces `sz-bench` writes.
//!
//! ## Requests
//!
//! | `type` | fields |
//! |---|---|
//! | `run` | `experiment`, plus the options below |
//! | `status` | `job` |
//! | `cancel` | `job` |
//! | `stats` | — |
//! | `watch` | — |
//! | `shutdown` | — |
//!
//! `run` options (all optional unless noted): `benchmarks` (array of
//! names; default all), `scale` (`tiny`/`small`/`full`), `runs` (at
//! most [`MAX_RUNS`], as is an adaptive `max_runs`),
//! `seed_base`, `interval_ms`, `trace` (stream per-run records),
//! `wait` (default `true`; `false` returns an `accepted` line with a
//! job id to poll), `deadline_ms`, `before`/`after` (opt levels for
//! `evaluate`), `adaptive` (object: `half_width`, `confidence`,
//! `band`, `batch`, `min_runs`, `max_runs`), `sleep_ms`
//! (`selftest-sleep` only).
//!
//! ## Responses
//!
//! A `run` with `wait` answers with zero or more trace lines (`run` /
//! `summary` records, when `trace` is set) followed by exactly one
//! terminal line: `result`, `rejected` (backpressure, with
//! `retry_after_ms`), or `error`. Other requests answer with a single
//! line of their own type.

use sz_harness::Json;
use sz_workloads::Scale;

/// Default listen / connect address.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7457";

/// The most runs per configuration a request may ask for, as `runs` or
/// as an adaptive `max_runs`. The paper uses 30; an unbounded count
/// let one request line make a job reserve its result vector up front
/// and abort the daemon on a failed allocation.
pub const MAX_RUNS: u64 = 10_000;

/// The experiments the service can run: the seven paper artifacts,
/// the §2.4 change evaluation (fixed or adaptive), and a sleep used
/// by health checks and the test suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Table 1 — normality / variance-homogeneity p-values.
    Table1,
    /// Figure 5 — QQ panels (derived from Table 1's samples).
    Fig5,
    /// Figure 6 — overhead vs randomized link order.
    Fig6,
    /// Figure 7 — optimization speedups with significance.
    Fig7,
    /// §6.1 — suite-wide ANOVA (derived from Figure 7's samples).
    Anova,
    /// §3.2 — NIST randomness of heap addresses.
    Nist,
    /// §1/§5 — link-order and environment measurement bias.
    Bias,
    /// §2.4 — does a change matter? Fixed-N or adaptive sampling.
    Evaluate,
    /// Sleeps `sleep_ms`, checking cancellation — never cached.
    SelftestSleep,
}

impl Experiment {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            Experiment::Table1 => "table1",
            Experiment::Fig5 => "fig5",
            Experiment::Fig6 => "fig6",
            Experiment::Fig7 => "fig7",
            Experiment::Anova => "anova",
            Experiment::Nist => "nist",
            Experiment::Bias => "bias",
            Experiment::Evaluate => "evaluate",
            Experiment::SelftestSleep => "selftest-sleep",
        }
    }

    /// Parses a wire name.
    pub fn from_name(name: &str) -> Option<Experiment> {
        Some(match name {
            "table1" => Experiment::Table1,
            "fig5" => Experiment::Fig5,
            "fig6" => Experiment::Fig6,
            "fig7" => Experiment::Fig7,
            "anova" => Experiment::Anova,
            "nist" => Experiment::Nist,
            "bias" => Experiment::Bias,
            "evaluate" => Experiment::Evaluate,
            "selftest-sleep" => Experiment::SelftestSleep,
            _ => return None,
        })
    }

    /// Whether results of this experiment may be cached. Only the
    /// sleep is excluded: it exists to occupy a worker, not to
    /// produce a result worth keeping.
    pub fn cacheable(self) -> bool {
        !matches!(self, Experiment::SelftestSleep)
    }
}

/// Parameters of the adaptive sequential-sampling mode.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveParams {
    /// Stop once the confidence interval's half-width, relative to the
    /// baseline mean, drops to or below this value.
    pub half_width: f64,
    /// Confidence level of the interval (default 0.95).
    pub confidence: f64,
    /// Practical-equivalence band half-width for the verdict stopping
    /// rule: effects inside `[1/(1+band), 1+band]` are equivalent.
    pub band: f64,
    /// Samples drawn per arm per batch.
    pub batch: usize,
    /// Minimum samples per arm before the stopping rule may fire.
    pub min_runs: usize,
    /// Hard cap per arm — also the "fixed protocol" run count the
    /// savings are reported against (the paper uses 30).
    pub max_runs: usize,
}

impl Default for AdaptiveParams {
    fn default() -> Self {
        AdaptiveParams {
            half_width: 0.1,
            confidence: 0.95,
            band: 0.05,
            batch: 5,
            min_runs: 5,
            max_runs: 30,
        }
    }
}

/// One `run` request: which experiment, over which benchmarks, under
/// which options. `threads`, `trace`, `wait`, and `deadline_ms` are
/// execution hints and do **not** enter the cache key (results are
/// bit-identical regardless).
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    /// The experiment to run.
    pub experiment: Experiment,
    /// Restrict to these benchmarks (None = the whole suite).
    pub benchmarks: Option<Vec<String>>,
    /// Workload scale.
    pub scale: Scale,
    /// Runs per configuration.
    pub runs: usize,
    /// Base seed; run `i` uses `seed_base + i`.
    pub seed_base: u64,
    /// Re-randomization interval in simulated milliseconds.
    pub interval_ms: f64,
    /// Worker threads for this job (None = server default).
    pub threads: Option<usize>,
    /// Stream per-run JSONL records back to the client.
    pub trace: bool,
    /// Block until the job completes (`false`: return a job id).
    pub wait: bool,
    /// Fail the job if it cannot finish within this many wall-clock
    /// milliseconds of submission.
    pub deadline_ms: Option<u64>,
    /// `evaluate` only: optimization level of the "before" program.
    pub before_opt: String,
    /// `evaluate` only: optimization level of the "after" program.
    pub after_opt: String,
    /// `evaluate` only: adaptive sequential sampling parameters
    /// (None = fixed `runs`-sample protocol).
    pub adaptive: Option<AdaptiveParams>,
    /// `selftest-sleep` only: how long to sleep.
    pub sleep_ms: u64,
}

impl RunRequest {
    /// A quick request for `experiment` with test-friendly defaults
    /// (Tiny scale, 6 runs).
    pub fn quick(experiment: Experiment) -> RunRequest {
        RunRequest {
            experiment,
            benchmarks: None,
            scale: Scale::Tiny,
            runs: 6,
            seed_base: 0x5EED_0000,
            interval_ms: 0.005,
            threads: None,
            trace: false,
            wait: true,
            deadline_ms: None,
            before_opt: "O1".to_string(),
            after_opt: "O2".to_string(),
            adaptive: None,
            sleep_ms: 25,
        }
    }
}

/// A parsed client request.
///
/// `Run` dwarfs the other variants, but requests are parsed once per
/// line and consumed immediately — never stored in bulk — so boxing
/// the spec would buy nothing and cost an allocation per request.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run an experiment.
    Run(RunRequest),
    /// Poll a job's state.
    Status {
        /// Job id from an `accepted` line.
        job: u64,
    },
    /// Cancel a queued (always) or running (best-effort) job.
    Cancel {
        /// Job id from an `accepted` line.
        job: u64,
    },
    /// Server counters: cache, scheduler, adaptive savings.
    Stats,
    /// Subscribe this connection to the sentinel's alert stream: the
    /// server answers with one `watch_ack` line, then pushes `alert`
    /// lines as completed jobs trip the change-point detector. The
    /// connection should be dedicated to watching.
    Watch,
    /// Stop accepting connections, drain, and exit.
    Shutdown,
}

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Full => "full",
    }
}

fn scale_from_name(name: &str) -> Option<Scale> {
    Some(match name {
        "tiny" => Scale::Tiny,
        "small" => Scale::Small,
        "full" => Scale::Full,
        _ => return None,
    })
}

/// Default re-randomization interval (simulated ms) for a scale —
/// matches `ExperimentOptions::{quick, paper}`.
fn default_interval_ms(scale: Scale) -> f64 {
    match scale {
        Scale::Tiny => 0.005,
        Scale::Small | Scale::Full => 0.05,
    }
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed JSON, an unknown
    /// `type` / `experiment` / `scale`, or ill-typed fields.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        let kind = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or("request is missing a string \"type\" field")?;
        match kind {
            "run" => Ok(Request::Run(parse_run(&v)?)),
            "status" => Ok(Request::Status { job: job_id(&v)? }),
            "cancel" => Ok(Request::Cancel { job: job_id(&v)? }),
            "stats" => Ok(Request::Stats),
            "watch" => Ok(Request::Watch),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request type {other:?}")),
        }
    }

    /// Encodes the request as its wire object (inverse of
    /// [`Request::parse`]).
    pub fn to_json(&self) -> Json {
        match self {
            Request::Run(run) => run_to_json(run),
            Request::Status { job } => {
                Json::obj([("type", "status".into()), ("job", (*job).into())])
            }
            Request::Cancel { job } => {
                Json::obj([("type", "cancel".into()), ("job", (*job).into())])
            }
            Request::Stats => Json::obj([("type", "stats".into())]),
            Request::Watch => Json::obj([("type", "watch".into())]),
            Request::Shutdown => Json::obj([("type", "shutdown".into())]),
        }
    }
}

/// Reads a run count, which must be an integer no greater than
/// [`MAX_RUNS`].
fn at_most_max_runs(field: &str, value: &Json) -> Result<usize, String> {
    let n = value
        .as_u64()
        .ok_or_else(|| format!("{field:?} must be an integer"))?;
    if n > MAX_RUNS {
        return Err(format!("{field:?} must be at most {MAX_RUNS}"));
    }
    Ok(n as usize)
}

fn job_id(v: &Json) -> Result<u64, String> {
    v.get("job")
        .and_then(Json::as_u64)
        .ok_or_else(|| "missing integer \"job\" field".to_string())
}

fn parse_run(v: &Json) -> Result<RunRequest, String> {
    let name = v
        .get("experiment")
        .and_then(Json::as_str)
        .ok_or("run request is missing a string \"experiment\" field")?;
    let experiment =
        Experiment::from_name(name).ok_or_else(|| format!("unknown experiment {name:?}"))?;
    let mut req = RunRequest::quick(experiment);

    if let Some(b) = v.get("benchmarks") {
        let arr = b.as_arr().ok_or("\"benchmarks\" must be an array")?;
        let names: Result<Vec<String>, String> = arr
            .iter()
            .map(|j| {
                j.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "\"benchmarks\" entries must be strings".to_string())
            })
            .collect();
        req.benchmarks = Some(names?);
    }
    if let Some(s) = v.get("scale") {
        let name = s.as_str().ok_or("\"scale\" must be a string")?;
        req.scale = scale_from_name(name).ok_or_else(|| format!("unknown scale {name:?}"))?;
        req.interval_ms = default_interval_ms(req.scale);
    }
    if let Some(r) = v.get("runs") {
        req.runs = at_most_max_runs("runs", r)?;
    }
    if req.runs == 0 {
        return Err("\"runs\" must be at least 1".to_string());
    }
    if let Some(s) = v.get("seed_base") {
        req.seed_base = s.as_u64().ok_or("\"seed_base\" must be an integer")?;
    }
    if let Some(i) = v.get("interval_ms") {
        let ms = i.as_f64().ok_or("\"interval_ms\" must be a number")?;
        if !(ms.is_finite() && ms > 0.0) {
            return Err("\"interval_ms\" must be a positive number".to_string());
        }
        req.interval_ms = ms;
    }
    if let Some(t) = v.get("threads") {
        req.threads = Some(t.as_u64().ok_or("\"threads\" must be an integer")? as usize);
    }
    if let Some(t) = v.get("trace") {
        req.trace = t.as_bool().ok_or("\"trace\" must be a bool")?;
    }
    if let Some(w) = v.get("wait") {
        req.wait = w.as_bool().ok_or("\"wait\" must be a bool")?;
    }
    if let Some(d) = v.get("deadline_ms") {
        req.deadline_ms = Some(d.as_u64().ok_or("\"deadline_ms\" must be an integer")?);
    }
    for (field, slot) in [
        ("before", &mut req.before_opt),
        ("after", &mut req.after_opt),
    ] {
        if let Some(o) = v.get(field) {
            let name = o.as_str().ok_or("opt levels must be strings")?;
            if !matches!(name, "O0" | "O1" | "O2" | "O3") {
                return Err(format!("unknown optimization level {name:?}"));
            }
            *slot = name.to_string();
        }
    }
    if let Some(a) = v.get("adaptive") {
        let mut params = AdaptiveParams {
            max_runs: req.runs.max(AdaptiveParams::default().min_runs),
            ..AdaptiveParams::default()
        };
        if let Some(h) = a.get("half_width") {
            params.half_width = h.as_f64().ok_or("\"half_width\" must be a number")?;
            if !(params.half_width.is_finite() && params.half_width > 0.0) {
                return Err("\"half_width\" must be a positive number".to_string());
            }
        }
        if let Some(c) = a.get("confidence") {
            params.confidence = c.as_f64().ok_or("\"confidence\" must be a number")?;
            if !(params.confidence > 0.0 && params.confidence < 1.0) {
                return Err("\"confidence\" must be in (0, 1)".to_string());
            }
        }
        if let Some(b) = a.get("band") {
            params.band = b.as_f64().ok_or("\"band\" must be a number")?;
            if !(params.band.is_finite() && params.band > 0.0) {
                return Err("\"band\" must be a positive number".to_string());
            }
        }
        if let Some(b) = a.get("batch") {
            params.batch = b.as_u64().ok_or("\"batch\" must be an integer")?.max(1) as usize;
        }
        if let Some(m) = a.get("min_runs") {
            params.min_runs = m.as_u64().ok_or("\"min_runs\" must be an integer")?.max(2) as usize;
        }
        if let Some(m) = a.get("max_runs") {
            params.max_runs = at_most_max_runs("max_runs", m)?;
        }
        if params.max_runs < params.min_runs {
            return Err("\"max_runs\" must be >= \"min_runs\"".to_string());
        }
        req.adaptive = Some(params);
    }
    if let Some(s) = v.get("sleep_ms") {
        req.sleep_ms = s.as_u64().ok_or("\"sleep_ms\" must be an integer")?;
    }
    if req.adaptive.is_some() && req.experiment != Experiment::Evaluate {
        return Err("\"adaptive\" only applies to the evaluate experiment".to_string());
    }
    Ok(req)
}

fn run_to_json(run: &RunRequest) -> Json {
    let mut fields: Vec<(String, Json)> = vec![
        ("type".to_string(), "run".into()),
        ("experiment".to_string(), run.experiment.name().into()),
        ("scale".to_string(), scale_name(run.scale).into()),
        ("runs".to_string(), run.runs.into()),
        ("seed_base".to_string(), run.seed_base.into()),
        ("interval_ms".to_string(), run.interval_ms.into()),
        ("trace".to_string(), run.trace.into()),
        ("wait".to_string(), run.wait.into()),
        ("before".to_string(), run.before_opt.as_str().into()),
        ("after".to_string(), run.after_opt.as_str().into()),
        ("sleep_ms".to_string(), run.sleep_ms.into()),
    ];
    if let Some(b) = &run.benchmarks {
        fields.push((
            "benchmarks".to_string(),
            Json::Arr(b.iter().map(|n| n.as_str().into()).collect()),
        ));
    }
    if let Some(t) = run.threads {
        fields.push(("threads".to_string(), t.into()));
    }
    if let Some(d) = run.deadline_ms {
        fields.push(("deadline_ms".to_string(), d.into()));
    }
    if let Some(a) = &run.adaptive {
        fields.push((
            "adaptive".to_string(),
            Json::obj([
                ("half_width", a.half_width.into()),
                ("confidence", a.confidence.into()),
                ("band", a.band.into()),
                ("batch", a.batch.into()),
                ("min_runs", a.min_runs.into()),
                ("max_runs", a.max_runs.into()),
            ]),
        ));
    }
    Json::Obj(fields)
}

/// Canonical scale name on the wire (re-exported for the cache key
/// and the client).
pub fn scale_wire_name(scale: Scale) -> &'static str {
    scale_name(scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_request_round_trips() {
        let mut run = RunRequest::quick(Experiment::Fig7);
        run.benchmarks = Some(vec!["bzip2".into(), "mcf".into()]);
        run.runs = 12;
        run.threads = Some(3);
        run.deadline_ms = Some(5_000);
        run.trace = true;
        run.adaptive = None;
        let line = Request::Run(run.clone()).to_json().to_string();
        let parsed = Request::parse(&line).unwrap();
        assert_eq!(parsed, Request::Run(run));
    }

    #[test]
    fn adaptive_round_trips() {
        let mut run = RunRequest::quick(Experiment::Evaluate);
        run.benchmarks = Some(vec!["gobmk".into()]);
        run.adaptive = Some(AdaptiveParams {
            half_width: 0.05,
            confidence: 0.9,
            band: 0.03,
            batch: 4,
            min_runs: 8,
            max_runs: 24,
        });
        let line = Request::Run(run.clone()).to_json().to_string();
        assert_eq!(Request::parse(&line).unwrap(), Request::Run(run));
    }

    #[test]
    fn simple_requests_round_trip() {
        for req in [
            Request::Status { job: 7 },
            Request::Cancel { job: 9 },
            Request::Stats,
            Request::Watch,
            Request::Shutdown,
        ] {
            let line = req.to_json().to_string();
            assert_eq!(Request::parse(&line).unwrap(), req);
        }
    }

    #[test]
    fn defaults_are_quick() {
        let parsed = Request::parse(r#"{"type":"run","experiment":"table1"}"#).unwrap();
        let Request::Run(run) = parsed else {
            panic!("expected run")
        };
        assert_eq!(run.scale, Scale::Tiny);
        assert_eq!(run.runs, 6);
        assert!(run.wait);
        assert!(!run.trace);
        assert!(run.benchmarks.is_none());
    }

    #[test]
    fn scale_implies_interval_unless_overridden() {
        let Request::Run(small) =
            Request::parse(r#"{"type":"run","experiment":"fig6","scale":"small"}"#).unwrap()
        else {
            panic!()
        };
        assert_eq!(small.interval_ms, 0.05);
        let Request::Run(explicit) = Request::parse(
            r#"{"type":"run","experiment":"fig6","scale":"small","interval_ms":0.02}"#,
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(explicit.interval_ms, 0.02);
    }

    /// Parse must fail AND say why: clients see these strings verbatim
    /// on `error` lines, so the message text is part of the protocol.
    fn expect_error(line: &str, needle: &str) {
        let err = Request::parse(line).expect_err(&format!("accepted {line:?}"));
        assert!(
            err.contains(needle),
            "error for {line:?} was {err:?}, expected it to mention {needle:?}"
        );
    }

    #[test]
    fn malformed_json_reports_the_parse_error() {
        expect_error("not json", "parse error at byte 0");
        expect_error("{\"type\":\"run\"", "parse error at byte");
        expect_error("{\"type\":\"run\"} trailing", "trailing");
        expect_error("", "parse error at byte");
    }

    #[test]
    fn unknown_request_kinds_are_named_in_the_error() {
        expect_error(r#"{"type":"warp"}"#, "unknown request type \"warp\"");
        // The old federation's shard message no longer parses as a run.
        expect_error(
            r#"{"type":"run_shard","experiment":"evaluate","shard_start":0,"shard_count":1}"#,
            "unknown request type \"run_shard\"",
        );
        // A non-string or absent type is a different failure than an
        // unknown one.
        expect_error(r#"{"type":7}"#, "missing a string \"type\"");
        expect_error(r#"{"experiment":"fig7"}"#, "missing a string \"type\"");
        expect_error(r#"[1,2,3]"#, "missing a string \"type\"");
    }

    #[test]
    fn missing_required_fields_are_reported() {
        expect_error(r#"{"type":"run"}"#, "missing a string \"experiment\"");
        expect_error(r#"{"type":"status"}"#, "missing integer \"job\"");
        expect_error(r#"{"type":"cancel"}"#, "missing integer \"job\"");
        expect_error(
            r#"{"type":"status","job":"seven"}"#,
            "missing integer \"job\"",
        );
    }

    #[test]
    fn ill_typed_run_fields_are_reported() {
        expect_error(
            r#"{"type":"run","experiment":"fig99"}"#,
            "unknown experiment \"fig99\"",
        );
        expect_error(
            r#"{"type":"run","experiment":"fig7","scale":"huge"}"#,
            "unknown scale \"huge\"",
        );
        expect_error(
            r#"{"type":"run","experiment":"fig7","scale":3}"#,
            "\"scale\" must be a string",
        );
        expect_error(
            r#"{"type":"run","experiment":"fig7","benchmarks":"bzip2"}"#,
            "\"benchmarks\" must be an array",
        );
        expect_error(
            r#"{"type":"run","experiment":"fig7","benchmarks":[1]}"#,
            "\"benchmarks\" entries must be strings",
        );
        expect_error(
            r#"{"type":"run","experiment":"fig7","runs":"many"}"#,
            "\"runs\" must be an integer",
        );
        expect_error(
            r#"{"type":"run","experiment":"fig7","runs":0}"#,
            "\"runs\" must be at least 1",
        );
        expect_error(
            r#"{"type":"run","experiment":"fig7","interval_ms":-1}"#,
            "\"interval_ms\" must be a positive number",
        );
        expect_error(
            r#"{"type":"run","experiment":"fig7","trace":"yes"}"#,
            "\"trace\" must be a bool",
        );
        expect_error(
            r#"{"type":"run","experiment":"evaluate","before":"O9"}"#,
            "unknown optimization level \"O9\"",
        );
    }

    #[test]
    fn adaptive_constraints_are_reported() {
        expect_error(
            r#"{"type":"run","experiment":"table1","adaptive":{}}"#,
            "only applies to the evaluate experiment",
        );
        expect_error(
            r#"{"type":"run","experiment":"evaluate","adaptive":{"half_width":0}}"#,
            "\"half_width\" must be a positive number",
        );
        expect_error(
            r#"{"type":"run","experiment":"evaluate","adaptive":{"confidence":1.5}}"#,
            "\"confidence\" must be in (0, 1)",
        );
        expect_error(
            r#"{"type":"run","experiment":"evaluate","adaptive":{"band":-0.1}}"#,
            "\"band\" must be a positive number",
        );
        expect_error(
            r#"{"type":"run","experiment":"evaluate","adaptive":{"min_runs":20,"max_runs":10}}"#,
            "\"max_runs\" must be >= \"min_runs\"",
        );
    }

    /// A run count past [`MAX_RUNS`] used to reach the job, whose pool
    /// reserved a result slot per run up front: 1e12 runs aborted the
    /// daemon on a 168 TB allocation.
    #[test]
    fn run_counts_above_the_bound_are_rejected() {
        for n in ["10001", "1000000000000"] {
            expect_error(
                &format!(r#"{{"type":"run","experiment":"table1","runs":{n}}}"#),
                "\"runs\" must be at most 10000",
            );
            expect_error(
                &format!(
                    r#"{{"type":"run","experiment":"evaluate","adaptive":{{"batch":{n},"max_runs":{n}}}}}"#
                ),
                "\"max_runs\" must be at most 10000",
            );
        }
        let Request::Run(run) =
            Request::parse(r#"{"type":"run","experiment":"table1","runs":10000}"#).unwrap()
        else {
            panic!("expected run")
        };
        assert_eq!(run.runs, 10_000);
        let Request::Run(run) = Request::parse(
            r#"{"type":"run","experiment":"evaluate","adaptive":{"max_runs":10000}}"#,
        )
        .unwrap() else {
            panic!("expected run")
        };
        assert_eq!(run.adaptive.unwrap().max_runs, 10_000);
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad in [
            "not json",
            r#"{"type":"warp"}"#,
            r#"{"type":"run"}"#,
            r#"{"type":"run","experiment":"fig99"}"#,
            r#"{"type":"run","experiment":"fig7","scale":"huge"}"#,
            r#"{"type":"run","experiment":"fig7","runs":0}"#,
            r#"{"type":"run","experiment":"table1","adaptive":{}}"#,
            r#"{"type":"run","experiment":"evaluate","before":"O9"}"#,
            r#"{"type":"status"}"#,
        ] {
            assert!(Request::parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
