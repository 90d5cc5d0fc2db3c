use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::{Duration, Instant};

use asha_core::telemetry::{DropCause, EventKind, NoopRecorder, Recorder};
use asha_core::{Driver, Job, Scheduler, TrialId};
use asha_metrics::{FaultStats, RunTrace, TraceEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::objective::{Evaluation, JobCtx, JobDropped, Objective};

/// How the executor reacts when a job misbehaves (see DESIGN.md, "Fault
/// model", and paper Section 4.4).
///
/// * A **panic** inside the objective is always caught (the pool survives)
///   and poisons the trial: the scheduler observes `f64::INFINITY`.
/// * A **timeout** (attempt exceeding [`job_timeout`](Self::job_timeout)) or
///   a **dropped result** ([`JobDropped`] unwind) is retried from the last
///   reported checkpoint, with exponential backoff, up to
///   [`max_retries`](Self::max_retries) times; exhausting the budget poisons
///   the trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Wall-clock budget for one attempt; `None` disables timeouts (and the
    /// per-attempt monitor thread that enforces them).
    pub job_timeout: Option<Duration>,
    /// Retries allowed per job after the first attempt.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub backoff: Duration,
    /// Upper bound on the backoff delay.
    pub backoff_cap: Duration,
}

impl Default for FaultPolicy {
    /// No timeout, two retries, 1 ms initial backoff capped at 100 ms.
    fn default() -> Self {
        FaultPolicy {
            job_timeout: None,
            max_retries: 2,
            backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(100),
        }
    }
}

impl FaultPolicy {
    /// Enforce a per-attempt wall-clock budget.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.job_timeout = Some(timeout);
        self
    }

    /// Allow `max_retries` retries per job after the first attempt.
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Set the initial backoff and its cap.
    pub fn with_backoff(mut self, backoff: Duration, cap: Duration) -> Self {
        self.backoff = backoff;
        self.backoff_cap = cap;
        self
    }

    /// Backoff before retry number `retry` (1-based): `backoff * 2^(retry-1)`
    /// capped at `backoff_cap`.
    fn backoff_before(&self, retry: u32) -> Duration {
        let shift = retry.saturating_sub(1).min(16);
        self.backoff
            .saturating_mul(1 << shift)
            .min(self.backoff_cap)
    }
}

/// Parallel execution parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// Stop after this many completed jobs.
    pub max_jobs: usize,
    /// Optional wall-clock limit.
    pub wall_limit: Option<Duration>,
    /// Timeout/retry/panic handling.
    pub faults: FaultPolicy,
}

impl ExecConfig {
    /// `workers` threads, a 100k-job cap, no wall-clock limit, and the
    /// default [`FaultPolicy`].
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        ExecConfig {
            workers,
            max_jobs: 100_000,
            wall_limit: None,
            faults: FaultPolicy::default(),
        }
    }

    /// Stop after `max_jobs` completions.
    ///
    /// # Panics
    ///
    /// Panics if `max_jobs == 0`.
    pub fn with_max_jobs(mut self, max_jobs: usize) -> Self {
        assert!(max_jobs > 0, "max_jobs must be positive");
        self.max_jobs = max_jobs;
        self
    }

    /// Stop after the given wall-clock duration.
    pub fn with_wall_limit(mut self, limit: Duration) -> Self {
        self.wall_limit = Some(limit);
        self
    }

    /// Replace the fault policy.
    pub fn with_fault_policy(mut self, faults: FaultPolicy) -> Self {
        self.faults = faults;
        self
    }

    /// Check every field: `workers > 0`, `max_jobs > 0`, and a positive
    /// wall limit if one is set. Returns a typed [`asha_core::Error`] (kind
    /// `Config`) instead of panicking like [`ExecConfig::new`].
    ///
    /// ```
    /// use asha_exec::ExecConfig;
    ///
    /// let mut config = ExecConfig::new(8).with_max_jobs(500);
    /// assert!(config.validate().is_ok());
    /// config.workers = 0;
    /// assert!(config.validate().is_err());
    /// ```
    pub fn validate(&self) -> Result<(), asha_core::Error> {
        if self.workers == 0 {
            return Err(asha_core::Error::config("need at least one worker thread"));
        }
        if self.max_jobs == 0 {
            return Err(asha_core::Error::config("max_jobs must be positive"));
        }
        if self.wall_limit.is_some_and(|limit| limit.is_zero()) {
            return Err(asha_core::Error::config("wall limit must be positive"));
        }
        Ok(())
    }
}

/// Outcome of a parallel tuning run.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// Completions in wall-clock order (times in seconds since start).
    pub trace: RunTrace,
    /// Number of completed jobs (including poisoned ones).
    pub jobs_completed: usize,
    /// Best `(trial, validation loss)` observed, if any.
    pub best: Option<(TrialId, f64)>,
    /// The best trial's configuration.
    pub best_config: Option<asha_space::Config>,
    /// Whether the scheduler reported [`Decision::Finished`].
    ///
    /// [`Decision::Finished`]: asha_core::Decision::Finished
    pub scheduler_finished: bool,
    /// Total wall-clock time.
    pub elapsed: Duration,
    /// Fault ledger: drops, retries, timeouts, panics, poisonings.
    pub faults: FaultStats,
}

/// One execution attempt's outcome, as the coordinator sees it.
enum Attempt<C> {
    Done(Evaluation, C),
    Panicked,
    Dropped,
    TimedOut,
}

fn interpret<C>(result: Result<(Evaluation, C), Box<dyn std::any::Any + Send>>) -> Attempt<C> {
    match result {
        Ok((eval, ckpt)) => Attempt::Done(eval, ckpt),
        Err(payload) if payload.is::<JobDropped>() => Attempt::Dropped,
        Err(_) => Attempt::Panicked,
    }
}

/// Run one attempt, isolating panics and (when configured) enforcing the
/// timeout by running the attempt on a scoped thread and abandoning it if it
/// overruns. An abandoned attempt's late result is discarded — exactly the
/// "job ran but the result was lost" drop semantics — though its thread is
/// still joined when the pool shuts down.
fn run_attempt<'scope, C, F>(
    scope: &'scope thread::Scope<'scope, '_>,
    timeout: Option<Duration>,
    attempt_fn: F,
) -> Attempt<C>
where
    C: Send + 'static,
    F: FnOnce() -> (Evaluation, C) + Send + 'scope,
{
    match timeout {
        None => interpret(catch_unwind(AssertUnwindSafe(attempt_fn))),
        Some(limit) => {
            let (tx, rx) = mpsc::channel();
            scope.spawn(move || {
                // Catch inside the attempt thread: an uncaught panic here
                // would take down the whole scope at join time.
                let result = catch_unwind(AssertUnwindSafe(attempt_fn));
                let _ = tx.send(result);
            });
            match rx.recv_timeout(limit) {
                Ok(result) => interpret(result),
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                    Attempt::TimedOut
                }
            }
        }
    }
}

/// `(job, attempt, checkpoint)`: one attempt of a job, handed to a pool
/// thread. Attempt `n > 1` is a retry and sleeps its backoff first.
type Task<C> = (Job, u32, Option<C>);

/// A pool of worker threads driving one scheduler; see the crate docs.
#[derive(Debug, Clone)]
pub struct ParallelTuner {
    config: ExecConfig,
}

impl ParallelTuner {
    /// Create a tuner with the given execution parameters.
    pub fn new(config: ExecConfig) -> Self {
        ParallelTuner { config }
    }

    /// Run `scheduler` against `objective` until the scheduler finishes, the
    /// job cap is hit, or the wall-clock limit expires. `seed` drives the
    /// scheduler's sampling RNG.
    ///
    /// The calling thread is the one coordinator: it alone touches the
    /// scheduler, so neither it nor a recorder needs to be `Send`.
    /// Objective evaluations run in parallel on the pool. Objective panics
    /// and timeouts never propagate out of the pool — they are absorbed per
    /// the configured [`FaultPolicy`] and tallied in `ExecResult::faults`.
    pub fn run<S: Scheduler, O: Objective>(
        &self,
        scheduler: S,
        objective: &O,
        seed: u64,
    ) -> ExecResult {
        self.run_recorded(scheduler, objective, seed, &mut NoopRecorder)
    }

    /// Like [`run`](ParallelTuner::run), but emit structured telemetry into
    /// `recorder`: decisions, job lifecycle, fault-policy firings (drops,
    /// timeouts, retries), and idle rounds.
    ///
    /// Timestamps are wall-clock seconds since run start — the same clock as
    /// this backend's [`TraceEvent::time`] — and are read by the
    /// coordinator alone, so they are monotone. With the default
    /// [`NoopRecorder`] every telemetry guard folds away and this is exactly
    /// [`run`](ParallelTuner::run).
    pub fn run_recorded<S: Scheduler, O: Objective, R: Recorder>(
        &self,
        scheduler: S,
        objective: &O,
        seed: u64,
        recorder: &mut R,
    ) -> ExecResult {
        let cfg = &self.config;
        let start = Instant::now();
        let clock = || start.elapsed().as_secs_f64();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut trace = RunTrace::new(scheduler.name());
        let mut driver = Driver::new(scheduler);
        let mut faults = FaultStats::none();
        let mut best_trial = None;
        let mut checkpoints: HashMap<TrialId, O::Checkpoint> = HashMap::new();
        let mut retry: VecDeque<(Job, u32)> = VecDeque::new();
        thread::scope(|scope| {
            let (report, reports) = mpsc::channel();
            let workers: Vec<mpsc::Sender<Task<O::Checkpoint>>> = (0..cfg.workers)
                .map(|w| {
                    let (tx, tasks) = mpsc::channel::<Task<O::Checkpoint>>();
                    let report = report.clone();
                    scope.spawn(move || {
                        for (job, attempt, checkpoint) in tasks {
                            if attempt > 1 {
                                thread::sleep(cfg.faults.backoff_before(attempt - 1));
                            }
                            let ctx = JobCtx {
                                trial: job.trial.0,
                                rung: job.rung,
                                bracket: job.bracket,
                                attempt,
                            };
                            // The attempt closure owns everything it touches:
                            // on timeout it is abandoned and may outlive us.
                            let (config, resource) = (job.config.clone(), job.resource);
                            let result = run_attempt(scope, cfg.faults.job_timeout, move || {
                                objective.run_ctx(ctx, &config, resource, checkpoint)
                            });
                            if report.send((w, job, attempt, result)).is_err() {
                                return;
                            }
                        }
                    });
                    tx
                })
                .collect();
            drop(report);
            let mut idle: Vec<usize> = (0..cfg.workers).rev().collect();
            loop {
                // Hand work to idle workers: retries first, then the
                // scheduler until it stops or the run's limits are reached.
                // A lost attempt is retried even past the limits.
                let stopping = driver.jobs_completed() >= cfg.max_jobs
                    || cfg.wall_limit.is_some_and(|limit| start.elapsed() >= limit);
                while let Some(&w) = idle.last() {
                    let now = clock();
                    let (job, attempt) = match retry.pop_front() {
                        Some((job, attempt)) => {
                            driver.retry(now, &job, recorder);
                            (job, attempt)
                        }
                        None if stopping => break,
                        None => match driver.next(now, &mut rng, recorder) {
                            Some(job) => (job, 1),
                            None => break,
                        },
                    };
                    // Resume from the trial's checkpoint, or inherit one.
                    let checkpoint = checkpoints
                        .get(&job.trial)
                        .or_else(|| job.inherit_from.and_then(|src| checkpoints.get(&src)))
                        .cloned();
                    idle.pop();
                    let task = (job, attempt, checkpoint);
                    workers[w].send(task).expect("pool threads outlive the run");
                }
                // Nothing in flight: the scheduler finished, or it waits on
                // nothing that can ever complete (drained), or we stopped.
                if idle.len() == cfg.workers {
                    break;
                }
                if recorder.enabled() && !idle.is_empty() {
                    recorder.record(clock(), EventKind::WorkerIdle { idle: idle.len() });
                }
                let (w, job, attempt, result) =
                    reports.recv().expect("pool threads outlive the run");
                idle.push(w);
                let now = clock();
                // Poisoned jobs still complete — the scheduler's contract is
                // that failures arrive as `+inf` observations, so rung
                // bookkeeping (especially SyncSha's barriers) stays whole.
                let (val, test) = match result {
                    Attempt::Done(eval, ckpt) => {
                        checkpoints.insert(job.trial, ckpt);
                        (eval.val_loss, eval.test_loss)
                    }
                    Attempt::Panicked => {
                        faults.jobs_panicked += 1;
                        (f64::INFINITY, f64::INFINITY)
                    }
                    Attempt::Dropped | Attempt::TimedOut => {
                        let cause = if matches!(result, Attempt::Dropped) {
                            faults.jobs_dropped += 1;
                            DropCause::Dropped
                        } else {
                            faults.jobs_timed_out += 1;
                            DropCause::Timeout
                        };
                        driver.lost(now, &job, cause, recorder);
                        if attempt <= cfg.faults.max_retries {
                            faults.jobs_retried += 1;
                            retry.push_back((job, attempt + 1));
                            continue;
                        }
                        (f64::INFINITY, f64::INFINITY)
                    }
                };
                let outcome = driver.complete(now, &job, val, test, recorder);
                faults.jobs_poisoned += usize::from(outcome.poisoned);
                if outcome.improved {
                    best_trial = Some(job.trial);
                }
                trace.push(TraceEvent {
                    time: now,
                    trial: job.trial.0,
                    bracket: job.bracket,
                    rung: job.rung,
                    resource: job.resource,
                    val_loss: outcome.val_loss,
                    test_loss: outcome.test_loss,
                });
            }
        });
        let best = driver.incumbent();
        ExecResult {
            trace,
            jobs_completed: driver.jobs_completed(),
            best: best_trial.zip(best.map(|b| b.1)),
            best_config: best.map(|b| b.0.clone()),
            scheduler_finished: driver.finished(),
            elapsed: start.elapsed(),
            faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{Evaluation, FnObjective};
    use asha_core::{Asha, AshaConfig};
    use asha_space::{Scale, SearchSpace};

    fn space() -> SearchSpace {
        SearchSpace::builder()
            .continuous("x", 0.0, 1.0, Scale::Linear)
            .build()
            .unwrap()
    }

    #[test]
    #[should_panic(expected = "max_jobs must be positive")]
    fn zero_job_cap_rejected() {
        let _ = ExecConfig::new(4).with_max_jobs(0);
    }

    /// Objective: loss = |x - 0.3| + 1/resource, checkpoint = resource seen.
    type ObjFn = FnObjective<f64, fn(&asha_space::Config, f64, Option<f64>) -> (Evaluation, f64)>;

    fn objective() -> ObjFn {
        fn eval(c: &asha_space::Config, r: f64, ckpt: Option<f64>) -> (Evaluation, f64) {
            // Checkpoints must be cumulative: resource never decreases.
            if let Some(prev) = ckpt {
                assert!(r >= prev, "resource went backwards: {prev} -> {r}");
            }
            let x = match c.values()[0] {
                asha_space::ParamValue::Float(v) => v,
                _ => unreachable!("space is continuous"),
            };
            (Evaluation::of((x - 0.3).abs() + 1.0 / r), r)
        }
        FnObjective::new(eval as fn(&asha_space::Config, f64, Option<f64>) -> (Evaluation, f64))
    }

    #[test]
    fn asha_runs_to_trial_cap_in_parallel() {
        let asha = Asha::new(space(), AshaConfig::new(1.0, 27.0, 3.0).with_max_trials(30));
        let result = ParallelTuner::new(ExecConfig::new(4)).run(asha, &objective(), 1);
        assert!(result.scheduler_finished);
        assert!(result.jobs_completed >= 30, "{}", result.jobs_completed);
        let (_, best) = result.best.unwrap();
        assert!(best < 0.4, "best loss {best}");
        assert!(!result.trace.is_empty());
        assert!(result.faults.is_clean(), "{}", result.faults);
    }

    #[test]
    fn single_worker_matches_serial_semantics() {
        let asha = Asha::new(space(), AshaConfig::new(1.0, 9.0, 3.0).with_max_trials(9));
        let result = ParallelTuner::new(ExecConfig::new(1)).run(asha, &objective(), 0);
        assert!(result.scheduler_finished);
        // 9 trials at rung 0, 3 promotions to rung 1, 1 to rung 2. The exact
        // count is seed-dependent (a late record-breaker can promote an
        // extra trial under Algorithm 2's incremental promotion); this seed
        // follows the canonical trajectory.
        assert_eq!(result.jobs_completed, 13);
    }

    #[test]
    fn job_cap_stops_random_search() {
        let rs = Asha::new(space(), AshaConfig::random(10.0));
        let result =
            ParallelTuner::new(ExecConfig::new(4).with_max_jobs(50)).run(rs, &objective(), 3);
        assert!(result.jobs_completed >= 50);
        assert!(!result.scheduler_finished);
    }

    #[test]
    fn trace_times_are_monotone() {
        let rs = Asha::new(space(), AshaConfig::random(5.0));
        let result =
            ParallelTuner::new(ExecConfig::new(8).with_max_jobs(100)).run(rs, &objective(), 4);
        let times: Vec<f64> = result.trace.events().iter().map(|e| e.time).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn drained_wait_does_not_deadlock() {
        // A trial cap of 3 with 4 workers: once all trials are issued the
        // spare workers Wait; after everything completes the scheduler
        // finishes. Must terminate.
        let asha = Asha::new(space(), AshaConfig::new(1.0, 9.0, 3.0).with_max_trials(3));
        let result = ParallelTuner::new(ExecConfig::new(4)).run(asha, &objective(), 5);
        assert!(result.jobs_completed >= 3);
    }

    #[test]
    fn a_scheduler_waiting_on_nothing_in_flight_ends_the_run() {
        // The simulator's drain rule: a `Wait` with no job in flight can
        // never be unblocked, so the run ends instead of hanging.
        struct Stuck;
        impl Scheduler for Stuck {
            fn suggest(&mut self, _rng: &mut dyn rand::RngCore) -> asha_core::Decision {
                asha_core::Decision::Wait
            }
            fn observe(&mut self, _obs: asha_core::Observation) {}
            fn name(&self) -> &str {
                "stuck"
            }
        }
        let result = ParallelTuner::new(ExecConfig::new(4)).run(Stuck, &objective(), 0);
        assert_eq!(result.jobs_completed, 0);
        assert!(!result.scheduler_finished);
    }

    /// The scheduler and the recorder never leave the calling thread, so
    /// neither needs to be `Send`: this recorder counts through an `Rc`.
    #[test]
    fn a_recorder_that_is_not_send_runs_the_pool() {
        use std::cell::Cell;
        use std::rc::Rc;
        struct Ends(Rc<Cell<usize>>);
        impl Recorder for Ends {
            fn enabled(&self) -> bool {
                true
            }
            fn record(&mut self, _now: f64, kind: EventKind) {
                if matches!(kind, EventKind::JobEnd { .. }) {
                    self.0.set(self.0.get() + 1);
                }
            }
        }
        let ends = Rc::new(Cell::new(0));
        let asha = Asha::new(space(), AshaConfig::new(1.0, 9.0, 3.0).with_max_trials(9));
        let mut recorder = Ends(Rc::clone(&ends));
        let result = ParallelTuner::new(ExecConfig::new(3)).run_recorded(
            asha,
            &objective(),
            0,
            &mut recorder,
        );
        assert!(result.scheduler_finished);
        assert_eq!(ends.get(), result.jobs_completed);
    }

    #[test]
    fn same_seed_single_worker_runs_produce_identical_traces() {
        // One worker runs the coordinator's decisions in order, so two
        // identical runs produce identical traces (wall-clock timestamps
        // aside).
        let run = || {
            let asha = Asha::new(space(), AshaConfig::new(1.0, 27.0, 3.0).with_max_trials(20));
            ParallelTuner::new(ExecConfig::new(1)).run(asha, &objective(), 11)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.jobs_completed, b.jobs_completed);
        let key = |r: &ExecResult| -> Vec<(u64, usize, usize, u64, u64)> {
            r.trace
                .events()
                .iter()
                .map(|e| {
                    (
                        e.trial,
                        e.bracket,
                        e.rung,
                        e.resource.to_bits(),
                        e.val_loss.to_bits(),
                    )
                })
                .collect()
        };
        assert_eq!(key(&a), key(&b));
        assert_eq!(
            a.best.map(|(t, l)| (t, l.to_bits())),
            b.best.map(|(t, l)| (t, l.to_bits()))
        );
    }

    /// Objective whose behaviour is keyed off the execution context, for
    /// deterministic fault tests.
    struct CtxObjective<F: Fn(JobCtx) -> Option<f64> + Send + Sync>(F);

    impl<F: Fn(JobCtx) -> Option<f64> + Send + Sync> Objective for CtxObjective<F> {
        type Checkpoint = f64;

        fn run(
            &self,
            _config: &asha_space::Config,
            resource: f64,
            _ckpt: Option<f64>,
        ) -> (Evaluation, f64) {
            (Evaluation::of(1.0 / resource), resource)
        }

        fn run_ctx(
            &self,
            ctx: JobCtx,
            _config: &asha_space::Config,
            resource: f64,
            _ckpt: Option<f64>,
        ) -> (Evaluation, f64) {
            match (self.0)(ctx) {
                Some(loss) => (Evaluation::of(loss), resource),
                None => std::panic::panic_any(JobDropped),
            }
        }
    }

    #[test]
    fn panicking_objective_never_kills_the_pool() {
        struct Bomb;
        impl Objective for Bomb {
            type Checkpoint = f64;
            fn run(&self, c: &asha_space::Config, r: f64, _ckpt: Option<f64>) -> (Evaluation, f64) {
                let x = match c.values()[0] {
                    asha_space::ParamValue::Float(v) => v,
                    _ => 0.0,
                };
                // Half the space detonates.
                if x >= 0.5 {
                    std::panic::panic_any(crate::chaos::ChaosPanic);
                }
                (Evaluation::of(x + 1.0 / r), r)
            }
        }
        crate::install_quiet_panic_hook();
        let asha = Asha::new(space(), AshaConfig::new(1.0, 9.0, 3.0).with_max_trials(30));
        let result = ParallelTuner::new(ExecConfig::new(4)).run(asha, &Bomb, 6);
        // The run terminated via the scheduler, not a propagated panic, and
        // every panic was tallied and poisoned.
        assert!(result.scheduler_finished);
        assert!(result.faults.jobs_panicked > 0);
        assert_eq!(result.faults.jobs_panicked, result.faults.jobs_poisoned);
        // Survivors still produced a finite best.
        let (_, best) = result.best.expect("some configs are below 0.5");
        assert!(best.is_finite());
    }

    #[test]
    fn dropped_results_are_retried_from_checkpoint() {
        // First attempt of every job drops its result; retries succeed.
        let obj = CtxObjective(|ctx: JobCtx| {
            if ctx.attempt == 1 {
                None
            } else {
                Some(ctx.trial as f64 / 100.0)
            }
        });
        crate::install_quiet_panic_hook();
        let result = ParallelTuner::new(ExecConfig::new(2).with_max_jobs(10)).run(
            Asha::new(space(), AshaConfig::random(4.0)),
            &obj,
            7,
        );
        assert!(result.jobs_completed >= 10);
        assert_eq!(result.faults.jobs_dropped, result.jobs_completed);
        assert_eq!(result.faults.jobs_retried, result.jobs_completed);
        assert_eq!(result.faults.jobs_poisoned, 0);
        assert_eq!(result.faults.jobs_panicked, 0);
    }

    #[test]
    fn exhausted_retries_poison_the_trial() {
        // Every attempt drops: with max_retries = 1 each job consumes two
        // attempts and then poisons.
        let obj = CtxObjective(|_| None);
        crate::install_quiet_panic_hook();
        let policy = FaultPolicy::default()
            .with_max_retries(1)
            .with_backoff(Duration::from_micros(100), Duration::from_millis(1));
        let result = ParallelTuner::new(
            ExecConfig::new(2)
                .with_max_jobs(6)
                .with_fault_policy(policy),
        )
        .run(Asha::new(space(), AshaConfig::random(4.0)), &obj, 8);
        assert!(result.jobs_completed >= 6);
        assert_eq!(result.faults.jobs_poisoned, result.jobs_completed);
        assert_eq!(result.faults.jobs_dropped, 2 * result.jobs_completed);
        assert_eq!(result.faults.jobs_retried, result.jobs_completed);
        // Nothing finite was ever observed.
        assert!(result.best.is_none());
        assert!(result
            .trace
            .events()
            .iter()
            .all(|e| e.val_loss.is_infinite()));
    }

    #[test]
    fn timeouts_retry_then_poison() {
        let obj = FnObjective::new(|_c: &asha_space::Config, r: f64, _ckpt: Option<f64>| {
            std::thread::sleep(Duration::from_millis(50));
            (Evaluation::of(1.0 / r), r)
        });
        let policy = FaultPolicy::default()
            .with_timeout(Duration::from_millis(2))
            .with_max_retries(1)
            .with_backoff(Duration::from_micros(100), Duration::from_millis(1));
        let result = ParallelTuner::new(
            ExecConfig::new(1)
                .with_max_jobs(2)
                .with_fault_policy(policy),
        )
        .run(Asha::new(space(), AshaConfig::random(4.0)), &obj, 9);
        assert_eq!(result.faults.jobs_timed_out, 2 * result.jobs_completed);
        assert_eq!(result.faults.jobs_retried, result.jobs_completed);
        assert_eq!(result.faults.jobs_poisoned, result.jobs_completed);
        assert!(result.best.is_none());
    }

    #[test]
    fn interpret_classifies_panic_payloads() {
        // Arbitrary payloads poison; only the JobDropped marker is retryable.
        let dropped: Attempt<f64> = interpret(Err(Box::new(JobDropped)));
        assert!(matches!(dropped, Attempt::Dropped));
        let arbitrary: Attempt<f64> = interpret(Err(Box::new("boom".to_string())));
        assert!(matches!(arbitrary, Attempt::Panicked));
        let fine: Attempt<f64> = interpret(Ok((Evaluation::of(0.1), 1.0)));
        assert!(matches!(fine, Attempt::Done(_, _)));
    }

    #[test]
    fn nan_losses_are_sanitized_and_counted() {
        let obj = FnObjective::new(|_c: &asha_space::Config, r: f64, _ckpt: Option<f64>| {
            (Evaluation::of(f64::NAN), r)
        });
        let result = ParallelTuner::new(ExecConfig::new(2).with_max_jobs(5)).run(
            Asha::new(space(), AshaConfig::random(4.0)),
            &obj,
            10,
        );
        assert!(result.jobs_completed >= 5);
        assert_eq!(result.faults.jobs_poisoned, result.jobs_completed);
        assert!(result
            .trace
            .events()
            .iter()
            .all(|e| e.val_loss == f64::INFINITY));
        assert!(result.best.is_none());
    }
}
