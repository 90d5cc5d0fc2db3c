//! The job lifecycle both execution layers share, with no clock and no I/O.
//!
//! The simulator (`asha-sim`) and the thread-pool executor (`asha-exec`)
//! differ in how time passes and how work runs, and in nothing else a
//! scheduler can see. [`Driver`] owns that common part: it asks the
//! scheduler for work (remembering a stable `Wait` and `Finished`), stamps
//! the lifecycle telemetry with whatever clock the caller passes, and turns
//! each raw result into one observation under one poison rule. Each layer
//! keeps its own clock, retry policy, trace filter and fault tally, and
//! calls the same four methods: [`Driver::next`], [`Driver::retry`],
//! [`Driver::lost`] and [`Driver::complete`].

use asha_space::Config;

use crate::scheduler::{Decision, Job, Observation, Scheduler};
use crate::telemetry::{DropCause, EventKind, Recorder};

/// What [`Driver::complete`] made of one job's raw losses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// The validation loss the scheduler observed: `+inf` if the raw loss
    /// was not finite.
    pub val_loss: f64,
    /// The test loss, with NaN read as `+inf`.
    pub test_loss: f64,
    /// Whether the raw validation loss was not finite (NaN, `±inf`).
    pub poisoned: bool,
    /// Whether the job beat the incumbent and replaced it.
    pub improved: bool,
}

/// One scheduler's run state between jobs: the scheduler, whether it is
/// parked on a stable `Wait` or has finished, the completed-job count and
/// the incumbent `(config, val_loss, resource)`.
pub struct Driver<S> {
    scheduler: S,
    // The scheduler answered `Wait` and guarantees (`wait_is_stable`) that
    // re-asking before its next observation would answer `Wait` again with
    // no side effects, so `next` does not re-ask. Cleared on every
    // observation. Derived data: a resumed driver re-asks once.
    waiting: bool,
    finished: bool,
    jobs_completed: usize,
    incumbent: Option<(Config, f64, f64)>,
}

impl<S> std::fmt::Debug for Driver<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Driver")
            .field("finished", &self.finished)
            .field("jobs_completed", &self.jobs_completed)
            .finish_non_exhaustive()
    }
}

impl<S: Scheduler> Driver<S> {
    /// A driver that has run nothing yet.
    pub fn new(scheduler: S) -> Self {
        Driver::resume(scheduler, false, 0, None)
    }

    /// A driver continuing a run that had completed `jobs_completed` jobs,
    /// seen the scheduler finish (`finished`) and kept `incumbent`.
    pub fn resume(
        scheduler: S,
        finished: bool,
        jobs_completed: usize,
        incumbent: Option<(Config, f64, f64)>,
    ) -> Self {
        Driver {
            scheduler,
            waiting: false,
            finished,
            jobs_completed,
            incumbent,
        }
    }

    /// The scheduler, read-only (for state export at checkpoints).
    pub fn scheduler(&self) -> &S {
        &self.scheduler
    }

    /// Whether the scheduler has reported [`Decision::Finished`].
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Jobs completed so far, poisoned ones included.
    pub fn jobs_completed(&self) -> usize {
        self.jobs_completed
    }

    /// The best finite `(config, val_loss, resource)` completed so far.
    pub fn incumbent(&self) -> Option<&(Config, f64, f64)> {
        self.incumbent.as_ref()
    }

    /// Ask the scheduler for a job for a free worker, unless it has finished
    /// or is parked on a stable `Wait`, and record the decision and the
    /// job's start at `now`. `None` means no job this round.
    ///
    /// A stable `Wait` is remembered only when `recorder` is off: each
    /// `Wait` answer is a telemetry event, and eliding one would change the
    /// recorded stream.
    #[inline]
    pub fn next<R: Recorder>(
        &mut self,
        now: f64,
        rng: &mut dyn rand::RngCore,
        recorder: &mut R,
    ) -> Option<Job> {
        if self.finished || self.waiting {
            return None;
        }
        let decision = self.scheduler.suggest(rng);
        if recorder.enabled() {
            recorder.record(now, EventKind::of_decision(&decision));
        }
        match decision {
            Decision::Run(job) => {
                if recorder.enabled() {
                    recorder.record(now, EventKind::job_start(&job));
                }
                Some(job)
            }
            Decision::Wait => {
                self.waiting = !recorder.enabled() && self.scheduler.wait_is_stable();
                None
            }
            Decision::Finished => {
                self.finished = true;
                None
            }
        }
    }

    /// Record that a job whose attempt was lost starts again at `now`.
    #[inline]
    pub fn retry<R: Recorder>(&self, now: f64, job: &Job, recorder: &mut R) {
        if recorder.enabled() {
            let (trial, rung) = (job.trial.0, job.rung);
            recorder.record(now, EventKind::Retry { trial, rung });
            recorder.record(now, EventKind::job_start(job));
        }
    }

    /// Record that an attempt of `job` was lost at `now`; the scheduler
    /// hears nothing until the job completes.
    #[inline]
    pub fn lost<R: Recorder>(&self, now: f64, job: &Job, cause: DropCause, recorder: &mut R) {
        if recorder.enabled() {
            let (trial, rung) = (job.trial.0, job.rung);
            recorder.record(now, EventKind::Drop { trial, rung, cause });
        }
    }

    /// Complete `job` at `now` with its raw losses. The poison rule: a
    /// validation loss that is not finite is observed, recorded and
    /// returned as `+inf` and counts as poisoned, so it never ranks or
    /// becomes the incumbent, and a NaN test loss reads `+inf`.
    #[inline]
    pub fn complete<R: Recorder>(
        &mut self,
        now: f64,
        job: &Job,
        val: f64,
        test: f64,
        recorder: &mut R,
    ) -> Completion {
        let poisoned = !val.is_finite();
        let val_loss = if poisoned { f64::INFINITY } else { val };
        let test_loss = if test.is_nan() { f64::INFINITY } else { test };
        let improved = val_loss < self.incumbent.as_ref().map_or(f64::INFINITY, |b| b.1);
        if improved {
            self.incumbent = Some((job.config.clone(), val_loss, job.resource));
        }
        self.jobs_completed += 1;
        if recorder.enabled() {
            let (trial, rung, resource) = (job.trial.0, job.rung, job.resource);
            let loss = val_loss;
            recorder.record(
                now,
                EventKind::JobEnd {
                    trial,
                    rung,
                    resource,
                    loss,
                },
            );
        }
        self.scheduler.observe(Observation::for_job(job, val_loss));
        // New information: a parked `Wait` may now resolve.
        self.waiting = false;
        Completion {
            val_loss,
            test_loss,
            poisoned,
            improved,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Asha, AshaConfig, NoopRecorder};
    use asha_space::{Scale, SearchSpace};
    use rand::SeedableRng;

    fn space() -> SearchSpace {
        SearchSpace::builder()
            .continuous("x", 0.0, 1.0, Scale::Linear)
            .build()
            .unwrap()
    }

    #[test]
    fn non_finite_losses_are_poisoned_and_never_the_incumbent() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut driver = Driver::new(Asha::new(space(), AshaConfig::random(1.0)));
        let mut done = Vec::new();
        for (val, test) in [(f64::NAN, f64::NAN), (f64::NEG_INFINITY, 0.5), (0.7, 0.6)] {
            let job = driver.next(0.0, &mut rng, &mut NoopRecorder).unwrap();
            done.push(driver.complete(1.0, &job, val, test, &mut NoopRecorder));
        }
        let inf = f64::INFINITY;
        assert_eq!(
            done.iter()
                .map(|c| (c.val_loss, c.test_loss))
                .collect::<Vec<_>>(),
            [(inf, inf), (inf, 0.5), (0.7, 0.6)]
        );
        assert_eq!(
            done.iter().map(|c| c.poisoned).collect::<Vec<_>>(),
            [true, true, false]
        );
        assert_eq!(
            done.iter().map(|c| c.improved).collect::<Vec<_>>(),
            [false, false, true]
        );
        assert_eq!(driver.jobs_completed(), 3);
        assert_eq!(driver.incumbent().map(|b| b.1), Some(0.7));
    }

    #[test]
    fn a_stable_wait_is_parked_until_an_observation_unless_recorded() {
        // Counts the `Wait` answers a recorded run logs.
        struct Waits(usize);
        impl Recorder for Waits {
            fn enabled(&self) -> bool {
                true
            }
            fn record(&mut self, _now: f64, kind: EventKind) {
                self.0 += usize::from(matches!(kind, EventKind::Suggest { .. }));
            }
        }
        // Two trials, one rung: once both are out, ASHA's answer is a
        // stable `Wait` until one completes.
        let cfg = AshaConfig::new(1.0, 1.0, 3.0).with_max_trials(2);
        let mut driver = Driver::new(Asha::new(space(), cfg));
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let a = driver.next(0.0, &mut rng, &mut NoopRecorder).unwrap();
        let b = driver.next(0.0, &mut rng, &mut NoopRecorder).unwrap();
        let mut waits = Waits(0);
        assert!(driver.next(0.0, &mut rng, &mut waits).is_none());
        assert!(driver.next(0.0, &mut rng, &mut waits).is_none());
        assert_eq!((waits.0, driver.waiting), (2, false), "recorded: re-asked");
        assert!(driver.next(0.0, &mut rng, &mut NoopRecorder).is_none());
        assert!(driver.waiting, "unrecorded: parked");
        driver.complete(1.0, &a, 0.5, 0.5, &mut NoopRecorder);
        assert!(!driver.waiting);
        driver.complete(1.0, &b, 0.4, 0.4, &mut NoopRecorder);
        assert!(driver.next(1.0, &mut rng, &mut NoopRecorder).is_none());
        assert!(driver.finished());
    }
}
