//! Job scheduling: a bounded queue drained by worker threads, layered
//! on the same determinism contract as the rest of the harness.
//!
//! The scheduler owns the [`ResultCache`]: `submit` consults it before
//! queueing (cache hits never occupy a queue slot and are therefore
//! immune to backpressure), and workers insert successful results
//! after execution. Keys and hit lines are built outside the scheduler
//! lock, which guards only the lookup and the insert. When the queue
//! is full, submission is rejected with a `retry_after_ms` hint
//! derived from a moving average of recent job durations — the caller
//! is told how long the backlog is actually taking to drain, not a
//! constant.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use sz_harness::Json;

use crate::cache::{cache_key, CachedResult, ResultCache};
use crate::exec::{execute, ExecError, JobOutput};
use crate::proto::RunRequest;

/// Called with a job id whenever that job settles (done, failed, or
/// cancelled), strictly outside the scheduler lock, on the thread that
/// settled it. The server registers one to feed the sentinel and push
/// its alerts to watchers; replies wait in [`Scheduler::wait`].
pub type SettleNotifier = Arc<dyn Fn(u64) + Send + Sync>;

/// How many finished job records `status` can still see.
const FINISHED_RETENTION: usize = 256;
/// Retry hint before any job has completed (nothing to average yet).
const DEFAULT_JOB_MS: f64 = 250.0;

/// Scheduler sizing.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Worker threads draining the queue (concurrent jobs).
    pub workers: usize,
    /// Jobs that may wait in the queue before rejection.
    pub queue_capacity: usize,
    /// Harness pool threads each job runs with (per-job parallelism).
    pub exec_threads: usize,
    /// Result-cache byte budget.
    pub cache_budget: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: 2,
            queue_capacity: 32,
            exec_threads: 2,
            cache_budget: 64 << 20,
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Waiting in the queue.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished successfully.
    Done(Arc<JobOutput>),
    /// Cancelled, past deadline, or failed.
    Failed(ExecError),
}

impl JobState {
    /// Wire name for `status` lines.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
        }
    }

    fn settled(&self) -> bool {
        matches!(self, JobState::Done(_) | JobState::Failed(_))
    }
}

/// The scheduler's answer to a `run` submission.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitOutcome {
    /// Served from the cache without queueing.
    Cached(Arc<CachedResult>),
    /// Queued; the id can be used with `status` / `cancel` / `wait`.
    Accepted(u64),
    /// Queue full — try again after roughly this many milliseconds.
    Rejected { retry_after_ms: u64 },
}

struct JobRecord {
    spec: RunRequest,
    state: JobState,
    cancel: Arc<AtomicBool>,
}

struct Inner {
    queue: VecDeque<u64>,
    jobs: HashMap<u64, JobRecord>,
    finished: VecDeque<u64>,
    cache: ResultCache,
    running: usize,
    shutdown: bool,
    next_id: u64,
    avg_job_ms: f64,
    submitted: u64,
    completed: u64,
    failed: u64,
    cancelled: u64,
    rejected: u64,
    notifier: Option<SettleNotifier>,
}

impl Inner {
    fn retry_after_ms(&self, workers: usize) -> u64 {
        let pending = (self.queue.len() + self.running + 1) as f64;
        let avg = if self.avg_job_ms > 0.0 {
            self.avg_job_ms
        } else {
            DEFAULT_JOB_MS
        };
        (pending / workers.max(1) as f64 * avg).clamp(25.0, 60_000.0) as u64
    }

    fn settle(&mut self, id: u64, state: JobState) {
        if let Some(job) = self.jobs.get_mut(&id) {
            job.state = state;
            self.finished.push_back(id);
            while self.finished.len() > FINISHED_RETENTION {
                if let Some(old) = self.finished.pop_front() {
                    self.jobs.remove(&old);
                }
            }
        }
    }
}

/// The scheduler state and its two wake-up channels. Workers wait on
/// `work`, which a submit wakes one at a time; callers of
/// [`Scheduler::wait`] wait on `settled`, so a submit never wakes a
/// waiter in place of an idle worker.
struct Shared {
    inner: Mutex<Inner>,
    /// A job was queued, or the scheduler is shutting down.
    work: Condvar,
    /// A job settled, or the scheduler is shutting down.
    settled: Condvar,
}

/// Bounded-queue job scheduler with a content-addressed result cache.
pub struct Scheduler {
    shared: Arc<Shared>,
    config: SchedulerConfig,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Scheduler {
    /// Starts `config.workers` worker threads.
    pub fn new(config: SchedulerConfig) -> Scheduler {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                jobs: HashMap::new(),
                finished: VecDeque::new(),
                cache: ResultCache::new(config.cache_budget),
                running: 0,
                shutdown: false,
                next_id: 1,
                avg_job_ms: 0.0,
                submitted: 0,
                completed: 0,
                failed: 0,
                cancelled: 0,
                rejected: 0,
                notifier: None,
            }),
            work: Condvar::new(),
            settled: Condvar::new(),
        });
        let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let exec_threads = config.exec_threads;
                std::thread::spawn(move || worker_loop(&shared, exec_threads, host_threads))
            })
            .collect();
        Scheduler {
            shared,
            config,
            workers: Mutex::new(workers),
        }
    }

    /// Registers the settle notifier (replacing any previous one).
    /// It fires for every future settle — completion, failure,
    /// cancellation, shutdown drain — outside the scheduler lock.
    pub fn set_notifier(&self, notifier: SettleNotifier) {
        self.shared.inner.lock().expect("scheduler lock").notifier = Some(notifier);
    }

    /// Submits a request: cache hit, queued job, or rejection.
    pub fn submit(&self, spec: RunRequest) -> SubmitOutcome {
        let key = spec.experiment.cacheable().then(|| cache_key(&spec));
        let mut inner = self.shared.inner.lock().expect("scheduler lock");
        inner.submitted += 1;
        if let Some(hit) = key.as_ref().and_then(|key| inner.cache.get(key)) {
            return SubmitOutcome::Cached(hit);
        }
        if inner.queue.len() >= self.config.queue_capacity || inner.shutdown {
            inner.rejected += 1;
            let retry = inner.retry_after_ms(self.config.workers);
            return SubmitOutcome::Rejected {
                retry_after_ms: retry,
            };
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.jobs.insert(
            id,
            JobRecord {
                spec,
                state: JobState::Queued,
                cancel: Arc::new(AtomicBool::new(false)),
            },
        );
        inner.queue.push_back(id);
        self.shared.work.notify_one();
        SubmitOutcome::Accepted(id)
    }

    /// The job's current state, if it is still known.
    pub fn status(&self, id: u64) -> Option<JobState> {
        let inner = self.shared.inner.lock().expect("scheduler lock");
        inner.jobs.get(&id).map(|j| j.state.clone())
    }

    /// Cancels a job. Queued jobs are removed immediately; running
    /// jobs are flagged and stop at their next checkpoint (best
    /// effort — monolithic experiment calls finish first and are then
    /// discarded). Returns false for unknown or already-settled jobs.
    pub fn cancel(&self, id: u64) -> bool {
        let mut inner = self.shared.inner.lock().expect("scheduler lock");
        let state = match inner.jobs.get(&id) {
            None => return false,
            Some(job) => job.state.clone(),
        };
        match state {
            JobState::Queued => {
                inner.queue.retain(|&q| q != id);
                inner.cancelled += 1;
                inner.settle(id, JobState::Failed(ExecError::Cancelled));
                self.shared.settled.notify_all();
                let notifier = inner.notifier.clone();
                drop(inner);
                if let Some(notify) = notifier {
                    notify(id);
                }
                true
            }
            JobState::Running => {
                inner.jobs[&id].cancel.store(true, Ordering::SeqCst);
                true
            }
            _ => false,
        }
    }

    /// Blocks until the job settles or `timeout` passes. Returns the
    /// settled state, or `None` on timeout / unknown id.
    pub fn wait(&self, id: u64, timeout: Duration) -> Option<JobState> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.shared.inner.lock().expect("scheduler lock");
        loop {
            match inner.jobs.get(&id) {
                None => return None,
                Some(job) if job.state.settled() => return Some(job.state.clone()),
                Some(_) => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .shared
                .settled
                .wait_timeout(inner, deadline - now)
                .expect("scheduler lock");
            inner = guard;
        }
    }

    /// A point-in-time stats snapshot as a wire object.
    pub fn stats_json(&self) -> Json {
        let inner = self.shared.inner.lock().expect("scheduler lock");
        Json::obj([
            ("workers", self.config.workers.into()),
            ("queue_capacity", self.config.queue_capacity.into()),
            ("queue_depth", inner.queue.len().into()),
            ("running", inner.running.into()),
            ("submitted", inner.submitted.into()),
            ("completed", inner.completed.into()),
            ("failed", inner.failed.into()),
            ("cancelled", inner.cancelled.into()),
            ("rejected", inner.rejected.into()),
            ("avg_job_ms", inner.avg_job_ms.into()),
            ("cache", inner.cache.stats_json()),
        ])
    }

    /// Stops accepting work, cancels queued jobs, and joins workers.
    /// Running jobs get their cancellation flag set and are joined, so
    /// every job has settled, and every [`Scheduler::wait`] returned,
    /// once this returns.
    pub fn shutdown(&self) {
        let (drained, notifier) = {
            let mut inner = self.shared.inner.lock().expect("scheduler lock");
            inner.shutdown = true;
            let mut drained = Vec::new();
            while let Some(id) = inner.queue.pop_front() {
                inner.cancelled += 1;
                inner.settle(id, JobState::Failed(ExecError::Cancelled));
                drained.push(id);
            }
            for job in inner.jobs.values() {
                if job.state == JobState::Running {
                    job.cancel.store(true, Ordering::SeqCst);
                }
            }
            self.shared.work.notify_all();
            self.shared.settled.notify_all();
            (drained, inner.notifier.clone())
        };
        if let Some(notify) = notifier {
            for id in drained {
                notify(id);
            }
        }
        let handles: Vec<_> = self
            .workers
            .lock()
            .expect("worker list")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// The pool threads a job runs on: the request's `threads` hint capped
/// at the host's parallelism, else the server's default. Replies do not
/// depend on it (`tests/determinism.rs`), so the cap changes no byte;
/// it keeps one request from starting an unbounded number of threads.
fn job_threads(hint: Option<usize>, default: usize, host: usize) -> usize {
    hint.map_or(default, |threads| threads.min(host)).max(1)
}

fn worker_loop(shared: &Shared, exec_threads: usize, host_threads: usize) {
    loop {
        let (id, spec, cancel) = {
            let mut inner = shared.inner.lock().expect("scheduler lock");
            loop {
                if let Some(id) = inner.queue.pop_front() {
                    let job = inner.jobs.get_mut(&id).expect("queued job exists");
                    job.state = JobState::Running;
                    inner.running += 1;
                    break (
                        id,
                        inner.jobs[&id].spec.clone(),
                        Arc::clone(&inner.jobs[&id].cancel),
                    );
                }
                if inner.shutdown {
                    return;
                }
                inner = shared.work.wait(inner).expect("scheduler lock");
            }
        };

        let threads = job_threads(spec.threads, exec_threads, host_threads);
        let deadline = spec
            .deadline_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        let started = Instant::now();
        // A panicking job must not take its worker down with it — the
        // burst test hammers the server with 64 concurrent clients
        // and every worker has to survive arbitrary request payloads.
        let result = catch_unwind(AssertUnwindSafe(|| {
            execute(&spec, threads, &cancel, deadline)
        }))
        .unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "job panicked".to_string());
            Err(ExecError::Failed(format!("panic: {msg}")))
        });
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        let result = result.map(Arc::new);
        let stored = match &result {
            Ok(output) if spec.experiment.cacheable() => Some((
                cache_key(&spec),
                Arc::new(CachedResult {
                    output: Arc::clone(output),
                    hit_line: output.result_line(spec.experiment.name(), None),
                }),
            )),
            _ => None,
        };

        let notifier = {
            let mut inner = shared.inner.lock().expect("scheduler lock");
            inner.running -= 1;
            inner.avg_job_ms = if inner.avg_job_ms == 0.0 {
                elapsed_ms
            } else {
                0.7 * inner.avg_job_ms + 0.3 * elapsed_ms
            };
            match result {
                Ok(output) => {
                    if let Some((key, value)) = stored {
                        inner.cache.insert(key, value);
                    }
                    inner.completed += 1;
                    inner.settle(id, JobState::Done(output));
                }
                Err(err) => {
                    if err == ExecError::Cancelled {
                        inner.cancelled += 1;
                    } else {
                        inner.failed += 1;
                    }
                    inner.settle(id, JobState::Failed(err));
                }
            }
            shared.settled.notify_all();
            inner.notifier.clone()
        };
        if let Some(notify) = notifier {
            notify(id);
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{Experiment, RunRequest};

    fn sched(workers: usize, queue: usize) -> Scheduler {
        Scheduler::new(SchedulerConfig {
            workers,
            queue_capacity: queue,
            exec_threads: 1,
            cache_budget: 4 << 20,
        })
    }

    fn sleep_spec(ms: u64) -> RunRequest {
        let mut spec = RunRequest::quick(Experiment::SelftestSleep);
        spec.sleep_ms = ms;
        spec
    }

    #[test]
    fn second_submission_is_a_cache_hit() {
        let s = sched(1, 8);
        let mut spec = RunRequest::quick(Experiment::Table1);
        spec.benchmarks = Some(vec!["bzip2".into()]);
        spec.runs = 3;
        let SubmitOutcome::Accepted(id) = s.submit(spec.clone()) else {
            panic!("first submission should queue");
        };
        let JobState::Done(first) = s.wait(id, Duration::from_secs(60)).unwrap() else {
            panic!("job should finish");
        };
        let SubmitOutcome::Cached(hit) = s.submit(spec) else {
            panic!("second submission should hit the cache");
        };
        assert!(
            Arc::ptr_eq(&first, &hit.output),
            "hit returns the stored arc"
        );
        assert_eq!(hit.hit_line, first.result_line("table1", None));
    }

    #[test]
    fn full_queue_rejects_with_a_retry_hint() {
        let s = sched(1, 1);
        assert!(matches!(
            s.submit(sleep_spec(400)),
            SubmitOutcome::Accepted(_)
        ));
        // Give the worker a moment to start the first job, then fill
        // the single queue slot and overflow it.
        std::thread::sleep(Duration::from_millis(50));
        assert!(matches!(
            s.submit(sleep_spec(400)),
            SubmitOutcome::Accepted(_)
        ));
        let SubmitOutcome::Rejected { retry_after_ms } = s.submit(sleep_spec(400)) else {
            panic!("third submission should be rejected");
        };
        assert!(retry_after_ms >= 25);
        let stats = s.stats_json();
        assert_eq!(stats.get("rejected").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn queued_jobs_cancel_immediately_and_running_jobs_stop() {
        let s = sched(1, 4);
        let SubmitOutcome::Accepted(running) = s.submit(sleep_spec(5_000)) else {
            panic!("accepted");
        };
        let SubmitOutcome::Accepted(queued) = s.submit(sleep_spec(5_000)) else {
            panic!("accepted");
        };
        assert!(s.cancel(queued), "queued jobs are cancellable");
        assert_eq!(
            s.wait(queued, Duration::from_secs(5)).unwrap(),
            JobState::Failed(ExecError::Cancelled)
        );
        std::thread::sleep(Duration::from_millis(50));
        assert!(s.cancel(running), "running jobs are flagged");
        assert_eq!(
            s.wait(running, Duration::from_secs(5)).unwrap(),
            JobState::Failed(ExecError::Cancelled)
        );
    }

    #[test]
    fn deadline_expiry_fails_the_job() {
        let s = sched(1, 4);
        let mut spec = sleep_spec(5_000);
        spec.deadline_ms = Some(30);
        let SubmitOutcome::Accepted(id) = s.submit(spec) else {
            panic!("accepted");
        };
        assert_eq!(
            s.wait(id, Duration::from_secs(5)).unwrap(),
            JobState::Failed(ExecError::Deadline)
        );
    }

    #[test]
    fn the_threads_hint_is_capped_at_the_host() {
        assert_eq!(job_threads(Some(1 << 40), 2, 4), 4);
        assert_eq!(job_threads(Some(usize::MAX), 2, 4), 4);
        assert_eq!(job_threads(Some(3), 2, 8), 3);
        assert_eq!(job_threads(Some(0), 2, 8), 1);
        assert_eq!(job_threads(None, 2, 8), 2);
        // The server's own default is configuration, not a request hint.
        assert_eq!(job_threads(None, 16, 8), 16);
    }

    #[test]
    fn shutdown_drains_the_queue_and_joins_workers() {
        let s = sched(1, 8);
        let SubmitOutcome::Accepted(_) = s.submit(sleep_spec(100)) else {
            panic!("accepted");
        };
        let SubmitOutcome::Accepted(queued) = s.submit(sleep_spec(100)) else {
            panic!("accepted");
        };
        s.shutdown();
        assert_eq!(
            s.status(queued).unwrap(),
            JobState::Failed(ExecError::Cancelled)
        );
        assert!(matches!(
            s.submit(sleep_spec(10)),
            SubmitOutcome::Rejected { .. }
        ));
    }
}
