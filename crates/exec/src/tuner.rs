use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use asha_core::telemetry::{DropCause, EventKind, NoopRecorder, Recorder};
use asha_core::{Decision, Job, Observation, Scheduler, TrialId};
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
    pub fn with_max_jobs(mut self, max_jobs: usize) -> Self {
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
    pub scheduler_finished: bool,
    /// Total wall-clock time.
    pub elapsed: Duration,
    /// Fault ledger: drops, retries, timeouts, panics, poisonings.
    pub faults: FaultStats,
}

struct Shared<S, C, R> {
    scheduler: S,
    rng: StdRng,
    /// Telemetry sink. Lives under the same lock as the scheduler, and
    /// timestamps are computed while holding it, so recorded times are
    /// monotone even with many workers reporting concurrently.
    recorder: R,
    checkpoints: HashMap<TrialId, C>,
    /// `(seq, event)`: `seq` is assigned under this lock, so sorting by
    /// `(time, seq)` gives a total, reproducible order even when wall-clock
    /// timestamps collide.
    trace: Vec<(u64, TraceEvent)>,
    jobs_completed: usize,
    best: Option<(TrialId, f64)>,
    best_config: Option<asha_space::Config>,
    faults: FaultStats,
    stop: bool,
    finished: bool,
    idle_workers: usize,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // Worker panics are caught before they can poison the lock; if one ever
    // slips through, the state is still consistent (mutations are atomic
    // under the lock), so recover rather than cascade.
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One execution attempt's outcome, as seen by the retry loop.
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

/// What the retry loop settled on for one job.
enum JobOutcome<C> {
    /// The objective returned; loss may still be non-finite.
    Finished(Evaluation, C),
    /// Panic, or retry budget exhausted: observe `f64::INFINITY`.
    Poisoned,
}

fn worker_loop<'scope, 'env, S, O, R>(
    scope: &'scope thread::Scope<'scope, 'env>,
    cfg: &'env ExecConfig,
    start: Instant,
    shared: &'env Mutex<Shared<S, O::Checkpoint, R>>,
    wake: &'env Condvar,
    objective: &'env O,
    // Whether the recorder collects anything, hoisted out of the lock so the
    // fault path can skip its extra lock acquisitions when telemetry is off.
    recording: bool,
) where
    S: Scheduler + Send,
    O: Objective,
    R: Recorder + Send,
{
    loop {
        // Acquire a job (or learn we are done).
        let job: Job = {
            let mut guard = lock(shared);
            loop {
                let s = &mut *guard;
                if s.stop
                    || s.jobs_completed >= cfg.max_jobs
                    || cfg.wall_limit.is_some_and(|limit| start.elapsed() >= limit)
                {
                    s.stop = true;
                    wake.notify_all();
                    return;
                }
                let decision = s.scheduler.suggest(&mut s.rng);
                if s.recorder.enabled() {
                    // Timestamps are taken while holding the lock, so they
                    // are monotone across all workers.
                    let t = start.elapsed().as_secs_f64();
                    s.recorder.record(t, EventKind::of_decision(&decision));
                    if let Decision::Run(job) = &decision {
                        s.recorder.record(t, EventKind::job_start(job));
                    }
                }
                match decision {
                    Decision::Run(job) => break job,
                    Decision::Finished => {
                        s.finished = true;
                        s.stop = true;
                        wake.notify_all();
                        return;
                    }
                    Decision::Wait => {
                        // Block until some completion might unblock the
                        // scheduler. If every worker is waiting, nothing can
                        // ever complete: drain to avoid deadlock.
                        s.idle_workers += 1;
                        if s.idle_workers == cfg.workers {
                            s.stop = true;
                            s.idle_workers -= 1;
                            wake.notify_all();
                            return;
                        }
                        if s.recorder.enabled() {
                            let t = start.elapsed().as_secs_f64();
                            let idle = s.idle_workers;
                            s.recorder.record(t, EventKind::WorkerIdle { idle });
                        }
                        guard = wake.wait(guard).unwrap_or_else(PoisonError::into_inner);
                        guard.idle_workers -= 1;
                    }
                }
            }
        };

        // Fetch (or inherit) the checkpoint. No other worker can hold this
        // trial concurrently, so one fetch serves every retry attempt.
        let checkpoint = {
            let s = lock(shared);
            s.checkpoints
                .get(&job.trial)
                .or_else(|| job.inherit_from.and_then(|src| s.checkpoints.get(&src)))
                .cloned()
        };

        // Train outside the lock, absorbing faults per the policy.
        let mut local_faults = FaultStats::none();
        let mut attempt: u32 = 0;
        let outcome = loop {
            attempt += 1;
            let ctx = JobCtx {
                trial: job.trial.0,
                rung: job.rung,
                bracket: job.bracket,
                attempt,
            };
            // The attempt closure owns everything it touches: on timeout it
            // is abandoned and may outlive this iteration.
            let config = job.config.clone();
            let resource = job.resource;
            let ckpt = checkpoint.clone();
            let result = run_attempt(scope, cfg.faults.job_timeout, move || {
                objective.run_ctx(ctx, &config, resource, ckpt)
            });
            match result {
                Attempt::Done(eval, ckpt) => break JobOutcome::Finished(eval, ckpt),
                Attempt::Panicked => {
                    local_faults.jobs_panicked += 1;
                    break JobOutcome::Poisoned;
                }
                Attempt::Dropped | Attempt::TimedOut => {
                    let cause = if matches!(result, Attempt::Dropped) {
                        local_faults.jobs_dropped += 1;
                        DropCause::Dropped
                    } else {
                        local_faults.jobs_timed_out += 1;
                        DropCause::Timeout
                    };
                    if recording {
                        let mut s = lock(shared);
                        let t = start.elapsed().as_secs_f64();
                        s.recorder.record(
                            t,
                            EventKind::Drop {
                                trial: job.trial.0,
                                rung: job.rung,
                                cause,
                            },
                        );
                    }
                    if attempt <= cfg.faults.max_retries {
                        local_faults.jobs_retried += 1;
                        thread::sleep(cfg.faults.backoff_before(attempt));
                        if recording {
                            // The retry runs on this same worker after the
                            // backoff: re-announce the attempt so busy-worker
                            // accounting balances the drop above.
                            let mut s = lock(shared);
                            let t = start.elapsed().as_secs_f64();
                            s.recorder.record(
                                t,
                                EventKind::Retry {
                                    trial: job.trial.0,
                                    rung: job.rung,
                                },
                            );
                            s.recorder.record(t, EventKind::job_start(&job));
                        }
                        continue;
                    }
                    break JobOutcome::Poisoned;
                }
            }
        };

        // Report. Poisoned jobs still complete — the scheduler's documented
        // contract is that failures arrive as f64::INFINITY observations, so
        // rung bookkeeping (especially SyncSha's barriers) stays consistent.
        let mut s = lock(shared);
        s.faults = s.faults.merge(&local_faults);
        let (val_loss, test_loss) = match outcome {
            JobOutcome::Finished(eval, ckpt) => {
                s.checkpoints.insert(job.trial, ckpt);
                let val = if eval.val_loss.is_nan() {
                    f64::INFINITY
                } else {
                    eval.val_loss
                };
                let test = if eval.test_loss.is_nan() {
                    f64::INFINITY
                } else {
                    eval.test_loss
                };
                if !val.is_finite() {
                    s.faults.jobs_poisoned += 1;
                }
                (val, test)
            }
            JobOutcome::Poisoned => {
                s.faults.jobs_poisoned += 1;
                (f64::INFINITY, f64::INFINITY)
            }
        };
        s.jobs_completed += 1;
        if val_loss.is_finite() && s.best.is_none_or(|(_, l)| val_loss < l) {
            s.best = Some((job.trial, val_loss));
            s.best_config = Some(job.config.clone());
        }
        let seq = s.trace.len() as u64;
        let t = start.elapsed().as_secs_f64();
        s.trace.push((
            seq,
            TraceEvent {
                time: t,
                trial: job.trial.0,
                bracket: job.bracket,
                rung: job.rung,
                resource: job.resource,
                val_loss,
                test_loss,
            },
        ));
        if s.recorder.enabled() {
            // Same timestamp as the TraceEvent: telemetry and traces share
            // this backend's wall-clock-seconds time base.
            s.recorder.record(
                t,
                EventKind::JobEnd {
                    trial: job.trial.0,
                    rung: job.rung,
                    resource: job.resource,
                    loss: val_loss,
                },
            );
        }
        s.scheduler.observe(Observation::for_job(&job, val_loss));
        wake.notify_all();
    }
}

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
    /// Worker threads hold the scheduler lock only while asking for or
    /// reporting work; objective evaluations run in parallel outside it.
    /// Objective panics and timeouts never propagate out of the pool — they
    /// are absorbed per the configured [`FaultPolicy`] and tallied in
    /// [`ExecResult::faults`].
    pub fn run<S, O>(&self, scheduler: S, objective: &O, seed: u64) -> ExecResult
    where
        S: Scheduler + Send,
        O: Objective,
    {
        self.run_recorded(scheduler, objective, seed, &mut NoopRecorder)
    }

    /// Like [`run`](ParallelTuner::run), but emit structured telemetry into
    /// `recorder`: decisions, job lifecycle, fault-policy firings (drops,
    /// timeouts, retries), and idle waits.
    ///
    /// Timestamps are wall-clock seconds since run start — the same clock as
    /// this backend's [`TraceEvent::time`] — and are taken while holding the
    /// scheduler lock, so they are monotone across workers. With the default
    /// [`NoopRecorder`] every telemetry guard folds away and this is exactly
    /// [`run`](ParallelTuner::run).
    pub fn run_recorded<S, O, R>(
        &self,
        scheduler: S,
        objective: &O,
        seed: u64,
        recorder: &mut R,
    ) -> ExecResult
    where
        S: Scheduler + Send,
        O: Objective,
        R: Recorder + Send,
    {
        self.run_resumed(scheduler, objective, StdRng::seed_from_u64(seed), recorder)
    }

    /// Like [`run_recorded`](ParallelTuner::run_recorded), but with an
    /// explicit RNG instead of a fresh seed — the entry point durable-run
    /// recovery uses: a scheduler rebuilt from a snapshot plus the RNG state
    /// captured alongside it continues exactly where the crashed run left
    /// off (the pool's RNG is consumed only by `Scheduler::suggest`, never
    /// by objectives, so scheduler state + RNG state fully determine the
    /// remaining decision stream).
    pub fn run_resumed<S, O, R>(
        &self,
        scheduler: S,
        objective: &O,
        rng: StdRng,
        recorder: &mut R,
    ) -> ExecResult
    where
        S: Scheduler + Send,
        O: Objective,
        R: Recorder + Send,
    {
        let start = Instant::now();
        let name = scheduler.name().to_owned();
        let recording = recorder.enabled();
        let shared = Mutex::new(Shared {
            scheduler,
            rng,
            recorder,
            checkpoints: HashMap::<TrialId, O::Checkpoint>::new(),
            trace: Vec::new(),
            jobs_completed: 0,
            best: None,
            best_config: None,
            faults: FaultStats::none(),
            stop: false,
            finished: false,
            idle_workers: 0,
        });
        let wake = Condvar::new();
        let cfg = &self.config;

        let shared_ref = &shared;
        let wake_ref = &wake;
        thread::scope(|scope| {
            for _ in 0..cfg.workers {
                scope.spawn(move || {
                    worker_loop(
                        scope, cfg, start, shared_ref, wake_ref, objective, recording,
                    )
                });
            }
        });

        let shared = shared.into_inner().unwrap_or_else(PoisonError::into_inner);
        let mut events = shared.trace;
        events.sort_by(|(sa, a), (sb, b)| {
            a.time
                .partial_cmp(&b.time)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(sa.cmp(sb))
        });
        let mut trace = RunTrace::new(name);
        for (_, e) in events {
            trace.push(e);
        }
        ExecResult {
            trace,
            jobs_completed: shared.jobs_completed,
            best: shared.best,
            best_config: shared.best_config,
            scheduler_finished: shared.finished,
            elapsed: start.elapsed(),
            faults: shared.faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{Evaluation, FnObjective};
    use asha_core::{Asha, AshaConfig, RandomSearch};
    use asha_space::{Scale, SearchSpace};

    fn space() -> SearchSpace {
        SearchSpace::builder()
            .continuous("x", 0.0, 1.0, Scale::Linear)
            .build()
            .unwrap()
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
        let rs = RandomSearch::new(space(), 10.0);
        let result =
            ParallelTuner::new(ExecConfig::new(4).with_max_jobs(50)).run(rs, &objective(), 3);
        assert!(result.jobs_completed >= 50);
        assert!(!result.scheduler_finished);
    }

    #[test]
    fn trace_times_are_monotone() {
        let rs = RandomSearch::new(space(), 5.0);
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
    fn same_seed_single_worker_runs_produce_identical_traces() {
        // Regression test for the trace-ordering fix: events now carry a
        // monotonic sequence tiebreak, so two identical runs produce
        // identical traces (wall-clock timestamps aside).
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
                    std::panic::panic_any(crate::ChaosPanic);
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
            RandomSearch::new(space(), 4.0),
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
        .run(RandomSearch::new(space(), 4.0), &obj, 8);
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
        .run(RandomSearch::new(space(), 4.0), &obj, 9);
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
            RandomSearch::new(space(), 4.0),
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
