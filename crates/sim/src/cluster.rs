use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use asha_core::telemetry::{DropCause, EventKind, NoopRecorder, Recorder};
use asha_core::{Decision, FxHashMap, Job, Observation, Scheduler, TrialId};
use asha_metrics::{FaultStats, RunTrace, TraceEvent};
use asha_surrogate::{BenchmarkModel, ConfigProfile, TrainingState};
use rand::Rng;

/// How promotions pay for training already performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResumePolicy {
    /// Trials are checkpointed: a job trains only from the trial's current
    /// resource to the job's target (Section 3.2's iterative setting). The
    /// default.
    #[default]
    Checkpoint,
    /// Every job trains from scratch to its target resource — the accounting
    /// used by Figure 2 and the Appendix A.1 simulated workloads.
    FromScratch,
}

/// How much of the completion stream a run records.
///
/// Long-horizon runs complete up to [`SimConfig::max_jobs`] (5M) jobs, and a
/// [`TraceEvent`] per completion dominates memory well before the event loop
/// dominates time. The incumbent curve — what every experiment actually
/// plots — only changes O(incumbent-updates) times, so leaner modes keep
/// exactly what downstream analysis needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Record every completion: O(jobs) memory. The default.
    #[default]
    Full,
    /// Record only completions that improve the best validation loss so far:
    /// O(incumbent-updates) memory. [`RunTrace::incumbent_curve`] is
    /// identical to [`TraceMode::Full`]'s; per-job analyses (rung counts,
    /// `configs_trained_to`) see only the incumbent subsequence.
    ///
    /// [`RunTrace::incumbent_curve`]: asha_metrics::RunTrace::incumbent_curve
    IncumbentOnly,
    /// Record no events at all: O(1) memory. Only the scalar aggregates on
    /// [`SimResult`] (`jobs_completed`, `distinct_trials`, `best_config`,
    /// `end_time`, faults) survive.
    Aggregated,
}

/// Simulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of parallel workers.
    pub workers: usize,
    /// Simulated-time horizon; events past this time are not processed.
    pub max_time: f64,
    /// Safety cap on completed jobs (guards against runaway schedulers).
    pub max_jobs: usize,
    /// Straggler noise: job durations are multiplied by `1 + |z|`,
    /// `z ~ N(0, straggler_std)`. Zero disables stragglers.
    pub straggler_std: f64,
    /// Probability that a running job is dropped in any given time unit.
    pub drop_prob: f64,
    /// Whether promoted trials resume from checkpoints or retrain.
    pub resume: ResumePolicy,
    /// How much of the completion stream to record.
    pub trace_mode: TraceMode,
}

impl SimConfig {
    /// A cluster of `workers` simulated for `max_time` time units, without
    /// stragglers or drops, with checkpoint resume.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or `max_time <= 0`.
    pub fn new(workers: usize, max_time: f64) -> Self {
        assert!(workers > 0, "need at least one worker");
        assert!(max_time > 0.0, "horizon must be positive");
        SimConfig {
            workers,
            max_time,
            max_jobs: 5_000_000,
            straggler_std: 0.0,
            drop_prob: 0.0,
            resume: ResumePolicy::Checkpoint,
            trace_mode: TraceMode::Full,
        }
    }

    /// Enable straggler noise.
    pub fn with_stragglers(mut self, std: f64) -> Self {
        assert!(std >= 0.0, "straggler std must be non-negative");
        self.straggler_std = std;
        self
    }

    /// Enable job drops with per-time-unit probability `p`.
    pub fn with_drops(mut self, p: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "drop probability must be in [0, 1)"
        );
        self.drop_prob = p;
        self
    }

    /// Set the resume policy.
    pub fn with_resume(mut self, resume: ResumePolicy) -> Self {
        self.resume = resume;
        self
    }

    /// Cap the number of completed jobs.
    ///
    /// # Panics
    ///
    /// Panics if `max_jobs == 0`.
    pub fn with_max_jobs(mut self, max_jobs: usize) -> Self {
        assert!(max_jobs > 0, "max_jobs must be positive");
        self.max_jobs = max_jobs;
        self
    }

    /// Select how much of the completion stream to record.
    pub fn with_trace_mode(mut self, mode: TraceMode) -> Self {
        self.trace_mode = mode;
        self
    }

    /// Check every field: `workers > 0`, `max_time > 0`, `max_jobs > 0`,
    /// `straggler_std >= 0`, `drop_prob` in `[0, 1)`. Returns a typed
    /// [`asha_core::Error`] (kind `Config`) so configuration coming from
    /// CLIs, stored files or the service layer is rejected gracefully; the
    /// constructors above panic on the same conditions.
    ///
    /// ```
    /// use asha_sim::SimConfig;
    ///
    /// let mut config = SimConfig::new(25, 400.0).with_stragglers(0.3).with_drops(0.05);
    /// assert!(config.validate().is_ok());
    /// config.workers = 0;
    /// assert!(config.validate().is_err());
    /// ```
    pub fn validate(&self) -> Result<(), asha_core::Error> {
        if self.workers == 0 {
            return Err(asha_core::Error::config("need at least one worker"));
        }
        // NaN must fail both bounds checks, so compare for the invalid
        // range rather than negating the valid one.
        if self.max_time.is_nan() || self.max_time <= 0.0 {
            return Err(asha_core::Error::config(format!(
                "horizon must be positive, got {}",
                self.max_time
            )));
        }
        if self.max_jobs == 0 {
            return Err(asha_core::Error::config("max_jobs must be positive"));
        }
        if self.straggler_std.is_nan() || self.straggler_std < 0.0 {
            return Err(asha_core::Error::config(format!(
                "straggler std must be non-negative, got {}",
                self.straggler_std
            )));
        }
        if !(0.0..1.0).contains(&self.drop_prob) {
            return Err(asha_core::Error::config(format!(
                "drop probability must be in [0, 1), got {}",
                self.drop_prob
            )));
        }
        Ok(())
    }
}

/// Outcome of a simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Job completions in simulated-time order; which completions are
    /// present depends on [`SimConfig::trace_mode`].
    pub trace: RunTrace,
    /// Simulated time when the run stopped.
    pub end_time: f64,
    /// Jobs that ran to completion.
    pub jobs_completed: usize,
    /// Distinct trials with at least one completed job. Maintained online,
    /// so it is exact in every [`TraceMode`] (unlike
    /// `trace.distinct_trials()`, which only sees recorded events).
    pub distinct_trials: usize,
    /// Fault tally, using the same semantics as the real executor
    /// (`asha-exec`): every simulated drop is counted in `jobs_dropped` and,
    /// because the simulator always requeues lost work, in `jobs_retried`.
    pub faults: FaultStats,
    /// Whether the scheduler reported [`Decision::Finished`].
    pub scheduler_finished: bool,
    /// The configuration with the best validation loss, with that loss and
    /// its cumulative resource: `(config, val_loss, resource)`.
    pub best_config: Option<(asha_space::Config, f64, f64)>,
}

/// One in-flight job on the event heap. Plain old data: the job itself
/// (with its heap-allocated [`Config`]) lives in the engine's job slab and
/// is referenced by `slot`, so heap sift operations move 24-byte entries
/// instead of whole [`Job`] structs.
///
/// [`Config`]: asha_space::Config
#[derive(Debug, Clone, Copy)]
struct Event {
    time: f64,
    seq: u64,
    slot: u32,
    dropped: bool,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by (time, seq): BinaryHeap is a max-heap, so reverse.
        // `total_cmp` keeps the ordering a total order even if a NaN time
        // ever reaches the heap; `partial_cmp(..).unwrap_or(Equal)` would
        // silently corrupt the heap invariant instead.
        other
            .time
            .total_cmp(&self.time)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Per-trial bookkeeping kept across a trial's jobs.
#[derive(Debug)]
struct TrialSlot {
    state: TrainingState,
    /// `bench.time_per_unit(&config)` is deterministic per config and a
    /// trial's config never changes, so it is computed once at the trial's
    /// first job instead of on every issue — on cheap surrogates the unit
    /// cost is a nontrivial share of per-job simulator overhead.
    time_per_unit: f64,
    /// Whether any job of this trial has completed (drives the online
    /// `distinct_trials` count).
    completed: bool,
    /// Memoized [`BenchmarkModel::profile`] of the trial's config, when the
    /// model supports profiles. Derived data: never serialized; restored
    /// slots refill it lazily at their next completion. Profiles are
    /// bitwise-identical to the per-call model methods, so the memo is
    /// unobservable.
    profile: Option<ConfigProfile>,
}

/// The discrete-event cluster simulator. See the crate docs for the model.
#[derive(Debug, Clone)]
pub struct ClusterSim {
    config: SimConfig,
}

impl ClusterSim {
    /// Create a simulator with the given parameters.
    pub fn new(config: SimConfig) -> Self {
        ClusterSim { config }
    }

    /// Run `scheduler` against `bench` until the time horizon, the job cap,
    /// or scheduler completion — whichever comes first. Deterministic given
    /// the RNG state.
    pub fn run<S: Scheduler>(
        &self,
        scheduler: S,
        bench: &dyn BenchmarkModel,
        rng: &mut dyn rand::RngCore,
    ) -> SimResult {
        self.run_recorded(scheduler, bench, rng, &mut NoopRecorder)
    }

    /// Like [`run`](ClusterSim::run), but emit structured telemetry into
    /// `recorder`: every scheduler decision, job start/end, drop, retry, and
    /// idle round, stamped with *simulated* time — the same clock as
    /// [`TraceEvent::time`], so an event log and the run trace are joinable.
    ///
    /// Recording never consumes randomness, so a recorded run is
    /// event-for-event identical to an unrecorded one with the same seed,
    /// and the same seed always produces the same event stream. With the
    /// default [`NoopRecorder`] every telemetry guard folds away and this is
    /// exactly [`run`](ClusterSim::run).
    pub fn run_recorded<S: Scheduler, R: Recorder>(
        &self,
        scheduler: S,
        bench: &dyn BenchmarkModel,
        rng: &mut dyn rand::RngCore,
        recorder: &mut R,
    ) -> SimResult {
        let mut engine = SimEngine::new(self.config.clone(), scheduler, bench);
        while engine.step(rng, recorder) {}
        engine.into_result()
    }
}

/// Snapshot of one trial's per-run bookkeeping (see [`SimRunState`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TrialSlotState {
    /// The trial this slot belongs to.
    pub trial: u64,
    /// The trial's training-curve state.
    pub state: TrainingState,
    /// Memoized `bench.time_per_unit(&config)`.
    pub time_per_unit: f64,
    /// Whether any job of this trial has completed.
    pub completed: bool,
}

/// Snapshot of one in-flight job on the event heap (see [`SimRunState`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PendingJob {
    /// Simulated completion (or drop) time.
    pub time: f64,
    /// Heap tiebreaker sequence number.
    pub seq: u64,
    /// The job being executed.
    pub job: Job,
    /// Whether the job will be dropped rather than completed.
    pub dropped: bool,
}

/// Everything a [`SimEngine`] keeps between steps, as plain serializable
/// data — the simulator half of a durable snapshot. The scheduler and the
/// RNG are captured separately (`asha-core::state`, `StdRng::state`);
/// together the three reconstruct a run that continues bit-for-bit
/// identically to one that was never interrupted.
///
/// Collections are sorted (slots by trial, pending jobs by `(time, seq)`)
/// so the same logical state always snapshots to the same bytes; heap pop
/// order depends only on the unique `(time, seq)` keys, so rebuilding the
/// heap from the sorted list is exact.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRunState {
    /// Simulated clock.
    pub now: f64,
    /// Last issued heap sequence number.
    pub seq: u64,
    /// Workers currently free.
    pub free_workers: usize,
    /// Jobs that ran to completion so far.
    pub jobs_completed: usize,
    /// Distinct trials with at least one completed job.
    pub distinct_trials: usize,
    /// Fault tally so far.
    pub faults: FaultStats,
    /// Whether the scheduler reported [`Decision::Finished`].
    pub scheduler_finished: bool,
    /// Best validation loss recorded by the incumbent filter.
    pub incumbent_val: f64,
    /// Best `(config, val_loss, resource)` so far.
    pub best_config: Option<(asha_space::Config, f64, f64)>,
    /// Per-trial bookkeeping, sorted by trial id.
    pub slots: Vec<TrialSlotState>,
    /// In-flight jobs, sorted by `(time, seq)`.
    pub pending: Vec<PendingJob>,
    /// Dropped jobs awaiting reissue, in queue (FIFO) order.
    pub retry: Vec<Job>,
    /// The scheduler name the trace was started with.
    pub searcher: String,
    /// Completions recorded so far (per the run's [`TraceMode`]).
    pub trace: Vec<TraceEvent>,
}

/// The cluster simulator's event loop as a stepwise, resumable state
/// machine.
///
/// [`ClusterSim::run_recorded`] is a thin wrapper that drives an engine to
/// completion; callers that need durability instead alternate
/// [`SimEngine::step`] with snapshot exports ([`SimEngine::export_state`])
/// and later rebuild the engine with [`SimEngine::restore`]. One `step` is
/// one iteration of the event loop: issue work to every free worker, then
/// process the single next event — so between steps the engine is always at
/// a quiescent point where its state is fully captured by
/// ([`SimRunState`], scheduler state, RNG state).
pub struct SimEngine<'b, S> {
    cfg: SimConfig,
    scheduler: S,
    bench: &'b dyn BenchmarkModel,
    trace: RunTrace,
    states: FxHashMap<TrialId, TrialSlot>,
    // The keys of `states` in the order the engine first saw them, which
    // export writes slots in: sorted whenever trial ids only grow, as every
    // single-ladder scheduler's do, so a checkpoint pays no sort for them.
    order: Vec<TrialId>,
    heap: BinaryHeap<Event>,
    // Slab backing the heap's `slot` references plus its free list; at most
    // `workers` jobs are in flight, so both stabilize at that size.
    jobs: Vec<Option<Job>>,
    free_slots: Vec<u32>,
    retry: VecDeque<Job>,
    // The scheduler answered `Wait` and guarantees (`wait_is_stable`) that
    // re-asking before its next observation would answer `Wait` again with
    // no side effects — so don't re-ask. Cleared on every observation.
    // Derived data: not serialized; a restored engine re-asks once.
    waiting: bool,
    free_workers: usize,
    now: f64,
    seq: u64,
    jobs_completed: usize,
    distinct_trials: usize,
    faults: FaultStats,
    scheduler_finished: bool,
    best_config: Option<(asha_space::Config, f64, f64)>,
    // Mirror of `RunTrace::incumbent_curve`'s filter, tracked online so
    // `TraceMode::IncumbentOnly` records exactly the events that curve
    // keeps (the conditions differ on NaN losses, so this cannot reuse
    // the `best_config` update).
    incumbent_val: f64,
    done: bool,
}

impl<S> std::fmt::Debug for SimEngine<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimEngine")
            .field("now", &self.now)
            .field("jobs_completed", &self.jobs_completed)
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl<'b, S: Scheduler> SimEngine<'b, S> {
    /// A fresh engine at simulated time zero.
    pub fn new(config: SimConfig, scheduler: S, bench: &'b dyn BenchmarkModel) -> Self {
        let trace = RunTrace::new(scheduler.name());
        let free_workers = config.workers;
        SimEngine {
            // At most `workers` events are ever outstanding, so the event
            // heap, the job slab, and the retry queue reach their final
            // capacity up front and never reallocate inside the loop.
            heap: BinaryHeap::with_capacity(config.workers + 1),
            jobs: Vec::with_capacity(config.workers + 1),
            free_slots: Vec::with_capacity(config.workers + 1),
            retry: VecDeque::with_capacity(config.workers.min(64)),
            cfg: config,
            scheduler,
            bench,
            trace,
            states: FxHashMap::default(),
            order: Vec::new(),
            waiting: false,
            free_workers,
            now: 0.0,
            seq: 0,
            jobs_completed: 0,
            distinct_trials: 0,
            faults: FaultStats::none(),
            scheduler_finished: false,
            best_config: None,
            incumbent_val: f64::INFINITY,
            done: false,
        }
    }

    /// Simulated time of the last processed event.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Jobs completed so far.
    pub fn jobs_completed(&self) -> usize {
        self.jobs_completed
    }

    /// Read-only access to the scheduler (for state export at snapshots).
    pub fn scheduler(&self) -> &S {
        &self.scheduler
    }

    /// Run one iteration of the event loop: hand work to every free worker,
    /// then process the next event. Returns `false` once the run is over
    /// (the call that detects the end condition also returns `false`).
    pub fn step<R: Recorder>(&mut self, rng: &mut dyn rand::RngCore, recorder: &mut R) -> bool {
        if self.done {
            return false;
        }
        let cfg = &self.cfg;
        // Hand work to free workers: retries first, then the scheduler.
        while self.free_workers > 0 {
            let (job, is_retry) = if let Some(job) = self.retry.pop_front() {
                (job, true)
            } else if self.scheduler_finished || self.waiting {
                break;
            } else {
                let decision = self.scheduler.suggest(rng);
                if recorder.enabled() {
                    recorder.record(self.now, EventKind::of_decision(&decision));
                }
                match decision {
                    Decision::Run(job) => (job, false),
                    Decision::Wait => {
                        // A stable Wait stays a Wait until the next
                        // observation, so skip the redundant re-asks on
                        // every round until then. Recorded runs keep
                        // re-asking: each Wait decision is a telemetry
                        // event, and eliding it would change the stream.
                        if !recorder.enabled() && self.scheduler.wait_is_stable() {
                            self.waiting = true;
                        }
                        break;
                    }
                    Decision::Finished => {
                        self.scheduler_finished = true;
                        break;
                    }
                }
            };
            if recorder.enabled() {
                if is_retry {
                    recorder.record(
                        self.now,
                        EventKind::Retry {
                            trial: job.trial.0,
                            rung: job.rung,
                        },
                    );
                }
                recorder.record(self.now, EventKind::job_start(&job));
            }
            if !self.states.contains_key(&job.trial) {
                // PBT-style inheritance: copy the parent's checkpoint
                // (curve state) if the job asks for it. The unit cost is
                // always the trial's *own* — PBT children inherit weights,
                // not the parent's architecture-dependent step time.
                let state = job
                    .inherit_from
                    .and_then(|src| self.states.get(&src).map(|s| s.state))
                    .unwrap_or_else(|| self.bench.init_state(&job.config, rng));
                let profile = self.bench.profile(&job.config);
                let time_per_unit = profile.as_ref().map_or_else(
                    || self.bench.time_per_unit(&job.config),
                    |p| p.time_per_unit,
                );
                self.order.push(job.trial);
                self.states.insert(
                    job.trial,
                    TrialSlot {
                        state,
                        time_per_unit,
                        completed: false,
                        profile,
                    },
                );
            }
            let slot = self.states.get_mut(&job.trial).expect("state just ensured");
            let trained_from = match cfg.resume {
                ResumePolicy::Checkpoint => slot.state.resource,
                ResumePolicy::FromScratch => 0.0,
            };
            let delta = (job.resource - trained_from).max(0.0);
            let mut duration = delta * slot.time_per_unit;
            if cfg.straggler_std > 0.0 {
                duration *= 1.0 + asha_math::dist::half_normal(rng, cfg.straggler_std);
            }
            // Zero-length jobs (already past target) still take a tick so
            // the event loop always advances.
            duration = duration.max(1e-9);
            let dropped = if cfg.drop_prob > 0.0 {
                // Time to drop is geometric per unit time; survive the
                // whole duration with probability (1-p)^duration.
                let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                let t_drop = u.ln() / (1.0 - cfg.drop_prob).ln();
                if t_drop < duration {
                    duration = t_drop.max(1e-9);
                    true
                } else {
                    false
                }
            } else {
                false
            };
            self.seq += 1;
            let slot = match self.free_slots.pop() {
                Some(slot) => {
                    self.jobs[slot as usize] = Some(job);
                    slot
                }
                None => {
                    self.jobs.push(Some(job));
                    (self.jobs.len() - 1) as u32
                }
            };
            self.heap.push(Event {
                time: self.now + duration,
                seq: self.seq,
                slot,
                dropped,
            });
            self.free_workers -= 1;
        }

        // A round that leaves workers idle while jobs are still in
        // flight is the signature of a waiting scheduler (or a drained
        // one); record it so reports can show where parallelism stalled.
        if recorder.enabled() && self.free_workers > 0 && !self.heap.is_empty() {
            recorder.record(
                self.now,
                EventKind::WorkerIdle {
                    idle: self.free_workers,
                },
            );
        }

        let Some(event) = self.heap.pop() else {
            // No outstanding work: either finished, or a waiting
            // scheduler that can never be unblocked (drained).
            self.done = true;
            return false;
        };
        if event.time > cfg.max_time {
            self.now = cfg.max_time;
            self.done = true;
            return false;
        }
        self.now = event.time;
        self.free_workers += 1;
        let job = self.jobs[event.slot as usize]
            .take()
            .expect("heap entries reference live slab jobs");
        self.free_slots.push(event.slot);

        if event.dropped {
            self.faults.jobs_dropped += 1;
            self.faults.jobs_retried += 1;
            if recorder.enabled() {
                recorder.record(
                    self.now,
                    EventKind::Drop {
                        trial: job.trial.0,
                        rung: job.rung,
                        cause: DropCause::Dropped,
                    },
                );
            }
            // Work lost; retry from the last checkpoint.
            self.retry.push_back(job);
        } else {
            self.jobs_completed += 1;
            let slot = self
                .states
                .get_mut(&job.trial)
                .expect("state created at issue time");
            if slot.profile.is_none() {
                // A restored slot: profiles are derived data and not
                // serialized, so refill the memo on first use.
                slot.profile = self.bench.profile(&job.config);
            }
            let (val, test) = match &slot.profile {
                Some(p) => {
                    p.advance(&mut slot.state, job.resource);
                    (
                        p.validation_loss(&slot.state, rng),
                        p.test_loss(&slot.state),
                    )
                }
                None => {
                    self.bench
                        .advance(&job.config, &mut slot.state, job.resource, rng);
                    (
                        self.bench.validation_loss(&job.config, &slot.state, rng),
                        self.bench.test_loss(&job.config, &slot.state),
                    )
                }
            };
            if !slot.completed {
                slot.completed = true;
                self.distinct_trials += 1;
            }
            // A NaN never becomes best: every later `val < NaN` is false, so
            // it would never be replaced.
            if !val.is_nan() && self.best_config.as_ref().is_none_or(|&(_, l, _)| val < l) {
                self.best_config = Some((job.config.clone(), val, job.resource));
            }
            let improved = val < self.incumbent_val;
            if improved {
                self.incumbent_val = val;
            }
            let record = match cfg.trace_mode {
                TraceMode::Full => true,
                TraceMode::IncumbentOnly => improved,
                TraceMode::Aggregated => false,
            };
            if record {
                self.trace.push(TraceEvent {
                    time: self.now,
                    trial: job.trial.0,
                    bracket: job.bracket,
                    rung: job.rung,
                    resource: job.resource,
                    val_loss: val,
                    test_loss: test,
                });
            }
            if recorder.enabled() {
                // Same `now` as the TraceEvent above: telemetry and
                // traces share the simulated clock.
                recorder.record(
                    self.now,
                    EventKind::JobEnd {
                        trial: job.trial.0,
                        rung: job.rung,
                        resource: job.resource,
                        loss: val,
                    },
                );
            }
            self.scheduler.observe(Observation::for_job(&job, val));
            // The scheduler saw new information; a sticky Wait (if any)
            // may now be resolvable.
            self.waiting = false;
        }

        if self.jobs_completed >= cfg.max_jobs {
            self.done = true;
            return false;
        }
        true
    }

    /// Capture the engine's loop state as plain data. Must be called between
    /// steps (any time the caller holds the engine, by construction).
    pub fn export_state(&self) -> SimRunState {
        let mut slots: Vec<TrialSlotState> = self
            .order
            .iter()
            .map(|t| {
                let s = &self.states[t];
                TrialSlotState {
                    trial: t.0,
                    state: s.state,
                    time_per_unit: s.time_per_unit,
                    completed: s.completed,
                }
            })
            .collect();
        // First-seen order is id order unless ids interleave (async
        // Hyperband's per-bracket strides).
        if !slots.is_sorted_by_key(|s| s.trial) {
            slots.sort_unstable_by_key(|s| s.trial);
        }
        let mut pending: Vec<PendingJob> = self
            .heap
            .iter()
            .map(|e| PendingJob {
                time: e.time,
                seq: e.seq,
                job: self.jobs[e.slot as usize]
                    .clone()
                    .expect("heap entries reference live slab jobs"),
                dropped: e.dropped,
            })
            .collect();
        pending.sort_unstable_by(|a, b| a.time.total_cmp(&b.time).then(a.seq.cmp(&b.seq)));
        SimRunState {
            now: self.now,
            seq: self.seq,
            free_workers: self.free_workers,
            jobs_completed: self.jobs_completed,
            distinct_trials: self.distinct_trials,
            faults: self.faults,
            scheduler_finished: self.scheduler_finished,
            incumbent_val: self.incumbent_val,
            best_config: self.best_config.clone(),
            slots,
            pending,
            retry: self.retry.iter().cloned().collect(),
            searcher: self.trace.searcher().to_owned(),
            trace: self.trace.events().to_vec(),
        }
    }

    /// Rebuild an engine from a state captured by
    /// [`SimEngine::export_state`], with the scheduler restored separately.
    /// Continuing the restored engine with the original RNG state produces
    /// exactly the events the uninterrupted run would have produced. The
    /// slots must be strictly increasing by trial, as export writes them.
    pub fn restore(
        config: SimConfig,
        scheduler: S,
        bench: &'b dyn BenchmarkModel,
        state: SimRunState,
    ) -> Self {
        let mut trace = RunTrace::new(&state.searcher);
        for event in &state.trace {
            trace.push(*event);
        }
        let capacity = config.workers.max(state.pending.len()) + 1;
        let mut heap: BinaryHeap<Event> = BinaryHeap::with_capacity(capacity);
        let mut jobs: Vec<Option<Job>> = Vec::with_capacity(capacity);
        for p in state.pending {
            heap.push(Event {
                time: p.time,
                seq: p.seq,
                slot: jobs.len() as u32,
                dropped: p.dropped,
            });
            jobs.push(Some(p.job));
        }
        let mut retry: VecDeque<Job> =
            VecDeque::with_capacity(config.workers.min(64).max(state.retry.len()));
        retry.extend(state.retry);
        let free_slots = Vec::with_capacity(config.workers + 1);
        let order = state.slots.iter().map(|s| TrialId(s.trial)).collect();
        SimEngine {
            cfg: config,
            scheduler,
            bench,
            trace,
            states: state
                .slots
                .into_iter()
                .map(|s| {
                    (
                        TrialId(s.trial),
                        TrialSlot {
                            state: s.state,
                            time_per_unit: s.time_per_unit,
                            completed: s.completed,
                            // Refilled lazily at the trial's next completion
                            // (the config lives in jobs, not slots).
                            profile: None,
                        },
                    )
                })
                .collect(),
            order,
            heap,
            jobs,
            free_slots,
            retry,
            waiting: false,
            free_workers: state.free_workers,
            now: state.now,
            seq: state.seq,
            jobs_completed: state.jobs_completed,
            distinct_trials: state.distinct_trials,
            faults: state.faults,
            scheduler_finished: state.scheduler_finished,
            best_config: state.best_config,
            incumbent_val: state.incumbent_val,
            done: false,
        }
    }

    /// Finish the run and produce its [`SimResult`].
    pub fn into_result(self) -> SimResult {
        SimResult {
            trace: self.trace,
            end_time: self.now.min(self.cfg.max_time),
            jobs_completed: self.jobs_completed,
            distinct_trials: self.distinct_trials,
            faults: self.faults,
            scheduler_finished: self.scheduler_finished,
            best_config: self.best_config,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asha_core::{Asha, AshaConfig, RandomSearch, ShaConfig, SyncSha};
    use asha_surrogate::presets;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn asha_keeps_all_workers_busy() {
        let bench = presets::cifar10_cuda_convnet(1);
        let asha = Asha::new(bench.space().clone(), AshaConfig::new(1.0, 256.0, 4.0));
        let result = ClusterSim::new(SimConfig::new(25, 100.0)).run(asha, &bench, &mut rng(0));
        assert!(result.jobs_completed > 100, "{}", result.jobs_completed);
        assert!(result.faults.is_clean(), "{}", result.faults);
        assert!(!result.scheduler_finished);
        assert!(result.end_time <= 100.0);
    }

    #[test]
    fn trace_is_time_ordered_and_improving() {
        let bench = presets::cifar10_cuda_convnet(1);
        let asha = Asha::new(bench.space().clone(), AshaConfig::new(1.0, 256.0, 4.0));
        let result = ClusterSim::new(SimConfig::new(9, 200.0)).run(asha, &bench, &mut rng(1));
        let events = result.trace.events();
        assert!(events.windows(2).all(|w| w[0].time <= w[1].time));
        // The incumbent's *validation* loss is monotone by construction;
        // the reported test loss may fluctuate with it.
        let mut best = f64::INFINITY;
        let mut updates = 0;
        for e in events {
            if e.val_loss < best {
                best = e.val_loss;
                updates += 1;
            }
        }
        assert!(updates >= 3, "expected several incumbent updates");
        assert_eq!(
            result.trace.incumbent_curve().points().len(),
            updates,
            "one curve point per incumbent update"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let bench = presets::cifar10_cuda_convnet(1);
        let run = |seed| {
            let asha = Asha::new(bench.space().clone(), AshaConfig::new(1.0, 256.0, 4.0));
            ClusterSim::new(SimConfig::new(5, 50.0)).run(asha, &bench, &mut rng(seed))
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a.trace, b.trace);
        assert_ne!(a.trace, c.trace);
    }

    #[test]
    fn snapshot_restore_mid_run_is_bitwise_identical() {
        use asha_core::NoopRecorder;

        let bench = presets::cifar10_cuda_convnet(1);
        let cfg = SimConfig::new(5, 50.0)
            .with_stragglers(0.3)
            .with_drops(0.02);

        // Reference: uninterrupted run.
        let asha = Asha::new(bench.space().clone(), AshaConfig::new(1.0, 256.0, 4.0));
        let reference =
            ClusterSim::new(cfg.clone()).run_recorded(asha, &bench, &mut rng(9), &mut NoopRecorder);

        // Same run, but snapshot (sim + scheduler + RNG state) after every
        // step, restore fresh objects from each snapshot, and continue from
        // there — as crash recovery would.
        for kill_after in [1usize, 5, 17, 43, 101] {
            let asha = Asha::new(bench.space().clone(), AshaConfig::new(1.0, 256.0, 4.0));
            let mut engine = SimEngine::new(cfg.clone(), asha, &bench);
            let mut rng9 = rng(9);
            let mut steps = 0usize;
            while steps < kill_after && engine.step(&mut rng9, &mut NoopRecorder) {
                steps += 1;
            }
            let sim_state = engine.export_state();
            let sched_state = engine.scheduler().export_state();
            let rng_state = rng9.state();
            drop(engine);

            let restored_sched = Asha::from_state(bench.space().clone(), sched_state);
            let mut restored =
                SimEngine::restore(cfg.clone(), restored_sched, &bench, sim_state.clone());
            assert_eq!(restored.export_state(), sim_state, "restore round-trips");
            let mut rng_restored = rand::rngs::StdRng::from_state(rng_state);
            while restored.step(&mut rng_restored, &mut NoopRecorder) {}
            let result = restored.into_result();
            assert_eq!(
                result.trace, reference.trace,
                "trace diverged after restore at step {kill_after}"
            );
            assert_eq!(result.jobs_completed, reference.jobs_completed);
            assert_eq!(result.faults, reference.faults);
            assert_eq!(result.best_config, reference.best_config);
        }
    }

    /// Export writes slots strictly increasing by trial where first-seen
    /// order is not id order (async Hyperband's per-bracket strides) and
    /// where another scheduler issues the ids (growing synchronous SHA), and
    /// a restored engine exports exactly what it was restored from.
    #[test]
    fn export_writes_slots_in_trial_order_and_restore_round_trips() {
        use asha_core::{AsyncHyperband, HyperbandConfig, NoopRecorder, RandomSampler};

        fn run<S: Scheduler>(mut engine: SimEngine<'_, S>) -> SimEngine<'_, S> {
            let mut rng = rng(21);
            for _ in 0..400 {
                engine.step(&mut rng, &mut NoopRecorder);
            }
            engine
        }
        fn check<S: Scheduler>(engine: &SimEngine<'_, S>, restore: impl Fn(&S) -> S) {
            let state = engine.export_state();
            assert!(state.slots.len() > 20, "{} slots", state.slots.len());
            assert!(state.slots.windows(2).all(|w| w[0].trial < w[1].trial));
            let (cfg, scheduler) = (engine.cfg.clone(), restore(engine.scheduler()));
            let restored = SimEngine::restore(cfg, scheduler, engine.bench, state.clone());
            assert_eq!(restored.export_state(), state);
        }

        let bench = presets::cifar10_cuda_convnet(1);
        let space = bench.space().clone();
        let cfg = SimConfig::new(25, 1e6).with_drops(0.02);
        let ahb = AsyncHyperband::new(space.clone(), HyperbandConfig::new(1.0, 9.0, 3.0));
        let ahb = run(SimEngine::new(cfg.clone(), ahb, &bench));
        assert!(!ahb.order.is_sorted(), "the brackets never interleaved");
        check(&ahb, |s| {
            let fresh = |_| Box::new(RandomSampler::new()) as Box<dyn asha_core::ConfigSampler>;
            AsyncHyperband::from_state_with_sampler_factory(space.clone(), s.export_state(), fresh)
        });
        let sha = SyncSha::new(
            space.clone(),
            ShaConfig::new(16, 16.0, 256.0, 4.0).growing(),
        );
        let sha = run(SimEngine::new(cfg, sha, &bench));
        check(&sha, |s| {
            let fresh = Box::new(RandomSampler::new());
            SyncSha::from_state_with_sampler(space.clone(), s.export_state(), fresh)
        });
    }

    #[test]
    fn sync_sha_finishes_and_reports_completion() {
        let bench = presets::cifar10_cuda_convnet(1);
        let sha = SyncSha::new(bench.space().clone(), ShaConfig::new(16, 16.0, 256.0, 4.0));
        let result = ClusterSim::new(SimConfig::new(4, 1e6)).run(sha, &bench, &mut rng(2));
        assert!(result.scheduler_finished);
        // 16 + 4 + 1 jobs.
        assert_eq!(result.jobs_completed, 21);
    }

    #[test]
    fn drops_are_retried_and_work_still_completes() {
        let bench = presets::cifar10_cuda_convnet(1);
        let sha = SyncSha::new(bench.space().clone(), ShaConfig::new(16, 16.0, 256.0, 4.0));
        // 0.1 per job over 21+ jobs makes "at least one drop" near-certain
        // rather than a property of one lucky rng stream.
        let result =
            ClusterSim::new(SimConfig::new(4, 1e7).with_drops(0.1)).run(sha, &bench, &mut rng(3));
        assert!(result.faults.jobs_dropped > 0, "expected some drops");
        assert_eq!(result.faults.jobs_retried, result.faults.jobs_dropped);
        assert!(result.scheduler_finished, "bracket must still complete");
        assert_eq!(result.jobs_completed, 21);
    }

    #[test]
    fn stragglers_slow_the_clock_but_not_correctness() {
        let bench = presets::cifar10_cuda_convnet(1);
        let mk = || SyncSha::new(bench.space().clone(), ShaConfig::new(16, 16.0, 256.0, 4.0));
        let clean = ClusterSim::new(SimConfig::new(4, 1e7)).run(mk(), &bench, &mut rng(4));
        let slow = ClusterSim::new(SimConfig::new(4, 1e7).with_stragglers(1.5)).run(
            mk(),
            &bench,
            &mut rng(4),
        );
        assert!(slow.end_time > clean.end_time);
        assert_eq!(slow.jobs_completed, clean.jobs_completed);
    }

    #[test]
    fn checkpoint_resume_is_cheaper_than_scratch() {
        let bench = presets::cifar10_cuda_convnet(1);
        let mk = || {
            Asha::new(
                bench.space().clone(),
                AshaConfig::new(1.0, 256.0, 4.0).with_max_trials(64),
            )
        };
        let ckpt = ClusterSim::new(SimConfig::new(8, 1e7)).run(mk(), &bench, &mut rng(5));
        let scratch = ClusterSim::new(
            SimConfig::new(8, 1e7).with_resume(ResumePolicy::FromScratch),
        )
        .run(mk(), &bench, &mut rng(5));
        assert!(ckpt.scheduler_finished && scratch.scheduler_finished);
        assert!(
            scratch.end_time > ckpt.end_time,
            "scratch {} should exceed checkpoint {}",
            scratch.end_time,
            ckpt.end_time
        );
    }

    #[test]
    fn job_cap_stops_runaway() {
        let bench = presets::cifar10_cuda_convnet(1);
        let rs = RandomSearch::new(bench.space().clone(), 256.0);
        let result = ClusterSim::new(SimConfig::new(100, 1e12).with_max_jobs(500)).run(
            rs,
            &bench,
            &mut rng(6),
        );
        assert_eq!(result.jobs_completed, 500);
    }

    #[test]
    fn horizon_truncates_cleanly() {
        let bench = presets::cifar10_cuda_convnet(1);
        let rs = RandomSearch::new(bench.space().clone(), 256.0);
        let result = ClusterSim::new(SimConfig::new(2, 10.0)).run(rs, &bench, &mut rng(7));
        assert!(result.trace.events().iter().all(|e| e.time <= 10.0));
        assert!(result.end_time <= 10.0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = SimConfig::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "max_jobs must be positive")]
    fn zero_job_cap_rejected() {
        let _ = SimConfig::new(4, 1.0).with_max_jobs(0);
    }

    #[test]
    fn incumbent_only_matches_full_incumbent_curve() {
        let bench = presets::cifar10_cuda_convnet(1);
        let run = |mode| {
            let asha = Asha::new(bench.space().clone(), AshaConfig::new(1.0, 256.0, 4.0));
            ClusterSim::new(SimConfig::new(25, 150.0).with_trace_mode(mode)).run(
                asha,
                &bench,
                &mut rng(11),
            )
        };
        let full = run(TraceMode::Full);
        let lean = run(TraceMode::IncumbentOnly);
        assert_eq!(
            full.trace.incumbent_curve(),
            lean.trace.incumbent_curve(),
            "IncumbentOnly must preserve the incumbent curve exactly"
        );
        assert!(
            lean.trace.len() < full.trace.len() / 4,
            "IncumbentOnly should be far smaller: {} vs {}",
            lean.trace.len(),
            full.trace.len()
        );
        // Scalar aggregates are mode-independent.
        assert_eq!(full.jobs_completed, lean.jobs_completed);
        assert_eq!(full.distinct_trials, lean.distinct_trials);
        assert_eq!(full.end_time, lean.end_time);
        assert_eq!(
            full.best_config.as_ref().map(|&(_, v, r)| (v, r)),
            lean.best_config.as_ref().map(|&(_, v, r)| (v, r))
        );
    }

    #[test]
    fn aggregated_mode_keeps_scalars_but_no_events() {
        let bench = presets::cifar10_cuda_convnet(1);
        let run = |mode| {
            let asha = Asha::new(bench.space().clone(), AshaConfig::new(1.0, 256.0, 4.0));
            ClusterSim::new(SimConfig::new(9, 100.0).with_trace_mode(mode)).run(
                asha,
                &bench,
                &mut rng(12),
            )
        };
        let full = run(TraceMode::Full);
        let agg = run(TraceMode::Aggregated);
        assert!(agg.trace.is_empty());
        assert_eq!(agg.jobs_completed, full.jobs_completed);
        assert_eq!(agg.distinct_trials, full.distinct_trials);
        assert_eq!(agg.end_time, full.end_time);
        assert_eq!(
            agg.best_config.as_ref().map(|&(_, v, r)| (v, r)),
            full.best_config.as_ref().map(|&(_, v, r)| (v, r))
        );
    }

    #[test]
    fn distinct_trials_counter_matches_full_trace() {
        let bench = presets::cifar10_cuda_convnet(1);
        let asha = Asha::new(bench.space().clone(), AshaConfig::new(1.0, 256.0, 4.0));
        let result = ClusterSim::new(SimConfig::new(9, 120.0)).run(asha, &bench, &mut rng(13));
        assert_eq!(result.distinct_trials, result.trace.distinct_trials());
        assert!(result.distinct_trials > 0);
    }
}
