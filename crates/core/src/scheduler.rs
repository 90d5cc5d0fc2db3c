use std::fmt;

use asha_space::Config;
use serde::{Deserialize, Serialize};

/// Opaque identifier of a trial (one hyperparameter configuration being
/// evaluated, possibly across several rungs).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TrialId(pub u64);

impl fmt::Display for TrialId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trial#{}", self.0)
    }
}

/// A unit of work issued by a scheduler: train `config` until its cumulative
/// resource reaches `resource`, then report the validation loss.
///
/// `resource` is *cumulative*: with checkpointing, an executor only trains
/// for the difference between `resource` and the trial's previous resource
/// (Section 3.2: "when training is iterative, ASHA can return an answer in
/// `time(R)`, since incrementally trained configurations can be checkpointed
/// and resumed").
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Which trial this job belongs to.
    pub trial: TrialId,
    /// The hyperparameter configuration to train.
    pub config: Config,
    /// The rung this job trains for (0 = base rung).
    pub rung: usize,
    /// Cumulative resource the trial should reach (e.g. SGD iterations).
    pub resource: f64,
    /// Which bracket issued the job (always 0 for plain ASHA/SHA; used by
    /// the Hyperband wrappers).
    pub bracket: usize,
    /// If set, the executor must copy the named trial's checkpoint into this
    /// trial before training — PBT's exploit step copies both weights and
    /// hyperparameters from a stronger population member.
    pub inherit_from: Option<TrialId>,
}

/// A completed job's result, reported back to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// The trial the result belongs to.
    pub trial: TrialId,
    /// The rung that was trained.
    pub rung: usize,
    /// Cumulative resource the trial has now been trained for.
    pub resource: f64,
    /// Validation loss after training (lower is better).
    pub loss: f64,
}

impl Observation {
    /// Convenience constructor.
    pub fn new(trial: TrialId, rung: usize, resource: f64, loss: f64) -> Self {
        Observation {
            trial,
            rung,
            resource,
            loss,
        }
    }

    /// Build the observation matching a job with a measured loss.
    pub fn for_job(job: &Job, loss: f64) -> Self {
        Observation {
            trial: job.trial,
            rung: job.rung,
            resource: job.resource,
            loss,
        }
    }
}

/// What a scheduler wants a free worker to do next.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// Run this job.
    Run(Job),
    /// No job is currently available, but outstanding jobs may unblock one;
    /// ask again after the next completion. (Synchronous schedulers block
    /// here; ASHA never does.)
    Wait,
    /// The schedule is complete; the worker can shut down.
    Finished,
}

impl Decision {
    /// The job, if this decision is [`Decision::Run`].
    pub fn job(self) -> Option<Job> {
        match self {
            Decision::Run(job) => Some(job),
            _ => None,
        }
    }

    /// Whether this is [`Decision::Wait`].
    pub fn is_wait(&self) -> bool {
        matches!(self, Decision::Wait)
    }

    /// Whether this is [`Decision::Finished`].
    pub fn is_finished(&self) -> bool {
        matches!(self, Decision::Finished)
    }
}

/// A pull-based hyperparameter scheduler.
///
/// The contract mirrors Algorithm 2 of the paper: an execution layer (the
/// simulator, the thread-pool executor, or a test) calls [`suggest`] once per
/// free worker and [`observe`] once per completed job. Implementations must
/// tolerate any interleaving of the two calls: an arbitrary number of
/// suggested jobs may be outstanding when an observation arrives, and
/// observations may arrive out of issue order (that is the whole point of
/// asynchrony).
///
/// Losses are minimized. Executors report `f64::INFINITY` for diverged or
/// failed trials; schedulers must treat such trials as worst-possible rather
/// than erroring.
///
/// # Fault model
///
/// Real execution layers retry, time out, and lose jobs (paper Section 4.4;
/// DESIGN.md "Fault model"), so every implementation must additionally be
/// robust to the observation stream those faults produce:
///
/// * **Non-finite losses** (`INFINITY` from a poisoned — panicked or
///   retry-exhausted — trial, or `NaN` from a numerically diverged one) must
///   never panic the scheduler and must never be *promoted*: a trial with a
///   non-finite loss stays at its rung forever.
/// * **Duplicate observations** for the same `(trial, rung)` — an executor
///   retry whose first attempt actually landed — must be idempotent: the
///   first report wins and later ones are ignored.
/// * **Observations for never-issued trials** (a misrouted or corrupted
///   report) must be ignored outright.
///
/// [`suggest`]: Scheduler::suggest
/// [`observe`]: Scheduler::observe
pub trait Scheduler {
    /// Ask for work for one free worker.
    ///
    /// `rng` drives any randomness (sampling new configurations, PBT
    /// exploration). Deterministic given the RNG stream and call order.
    fn suggest(&mut self, rng: &mut dyn rand::RngCore) -> Decision;

    /// Report a completed job.
    ///
    /// Unsolicited observations (for jobs the scheduler did not issue, or
    /// duplicates) are ignored rather than panicking, so executors can retry
    /// dropped jobs conservatively.
    fn observe(&mut self, obs: Observation);

    /// Human-readable name used in experiment output (e.g. `"ASHA"`).
    fn name(&self) -> &str;

    /// Whether a [`Decision::Wait`] from this scheduler is *stable*: once
    /// `suggest` returns `Wait`, every further `suggest` before the next
    /// [`Scheduler::observe`] is guaranteed to also return `Wait`, consume
    /// no RNG, and mutate nothing.
    ///
    /// Execution layers use this to batch idle workers: instead of re-asking
    /// once per free worker per event, a stable `Wait` is remembered until
    /// an observation arrives. The conservative default is `false` (always
    /// re-ask); only return `true` when the guarantee genuinely holds, or
    /// restored runs may diverge from uninterrupted ones.
    fn wait_is_stable(&self) -> bool {
        false
    }
}

// Allow `Box<dyn Scheduler>` to be used wherever `impl Scheduler` is.
impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn suggest(&mut self, rng: &mut dyn rand::RngCore) -> Decision {
        (**self).suggest(rng)
    }

    fn observe(&mut self, obs: Observation) {
        (**self).observe(obs)
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn wait_is_stable(&self) -> bool {
        (**self).wait_is_stable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Jobs cross threads (the executor's pool, the parallel runner).
    const _: () = {
        const fn shareable<T: Send + Sync>() {}
        shareable::<Job>();
    };

    #[test]
    fn trial_id_display() {
        assert_eq!(TrialId(7).to_string(), "trial#7");
    }

    #[test]
    fn decision_helpers() {
        assert!(Decision::Wait.is_wait());
        assert!(Decision::Finished.is_finished());
        assert!(Decision::Wait.job().is_none());
        let job = Job {
            trial: TrialId(1),
            config: Config::default(),
            rung: 0,
            resource: 1.0,
            bracket: 0,
            inherit_from: None,
        };
        assert_eq!(Decision::Run(job.clone()).job(), Some(job));
    }

    #[test]
    fn observation_for_job_copies_fields() {
        let job = Job {
            trial: TrialId(3),
            config: Config::default(),
            rung: 2,
            resource: 9.0,
            bracket: 1,
            inherit_from: None,
        };
        let obs = Observation::for_job(&job, 0.25);
        assert_eq!(obs.trial, TrialId(3));
        assert_eq!(obs.rung, 2);
        assert_eq!(obs.resource, 9.0);
        assert_eq!(obs.loss, 0.25);
    }
}
