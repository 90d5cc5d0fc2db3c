//! Structured run telemetry: scheduling events and the [`Recorder`] sink.
//!
//! Every claim about ASHA is a claim about *scheduling dynamics under
//! parallelism* — who sits in which rung, how long promotable configurations
//! wait, how busy the workers stay when stragglers and drops hit. This
//! module defines the event vocabulary for observing those dynamics and the
//! sink trait execution layers emit into. The collection side (append-only
//! JSONL event logs, the online metrics registry, run reports) lives in the
//! `asha-obs` crate; this module holds only what the hot paths need, so the
//! scheduling core stays dependency-free.
//!
//! # Zero cost when disabled
//!
//! Emitters guard every event behind [`Recorder::enabled`]. The execution
//! layers (`asha-sim`, `asha-exec`) are generic over `R: Recorder`, so with
//! the default [`NoopRecorder`] the check monomorphizes to a constant
//! `false` and the whole telemetry path — including [`EventKind`]
//! construction — compiles away. [`EventKind`] is `Copy` and holds only
//! scalars, so even with recording *on* the hot path performs no
//! allocations per event (the collecting recorder amortizes its buffer).
//!
//! # Clocks
//!
//! Event timestamps use the *driving execution layer's clock*: simulated
//! time in `asha-sim` (the same clock as `asha_metrics::TraceEvent::time`)
//! and wall-clock seconds since run start in `asha-exec` (again matching
//! that backend's `TraceEvent::time`). A telemetry event log and the
//! `RunTrace` of the same run are therefore directly joinable on time.
//! Recorders may assume timestamps are non-decreasing and sequence numbers
//! strictly increasing; the collecting recorder in `asha-obs` debug-asserts
//! both.

use crate::scheduler::{Decision, Job};

/// Why a suggest call produced no job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleKind {
    /// The scheduler returned [`Decision::Wait`].
    Wait,
    /// The scheduler returned [`Decision::Finished`].
    Finished,
}

impl IdleKind {
    /// Stable lowercase name used in the JSONL schema.
    pub fn name(self) -> &'static str {
        match self {
            IdleKind::Wait => "wait",
            IdleKind::Finished => "finished",
        }
    }
}

/// Why a running attempt's result was lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// The result was dropped in flight (simulated network drop, or an
    /// executor drop fault).
    Dropped,
    /// The attempt exceeded its wall-clock budget and its (eventual) result
    /// was discarded.
    Timeout,
}

impl DropCause {
    /// Stable lowercase name used in the JSONL schema.
    pub fn name(self) -> &'static str {
        match self {
            DropCause::Dropped => "drop",
            DropCause::Timeout => "timeout",
        }
    }
}

/// One telemetry event. All fields are scalars (no `Config` clones), so
/// constructing a kind is allocation-free.
///
/// The schema is stable and append-only: renames or semantic changes require
/// a new kind, never a repurposed field (logs must stay diffable across
/// versions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A suggest call returned no job (`decision` says whether the scheduler
    /// is waiting or finished). Suggest calls that *do* return a job appear
    /// as [`EventKind::Promote`] or [`EventKind::GrowBottom`] instead.
    Suggest {
        /// Wait or Finished.
        decision: IdleKind,
    },
    /// A suggest call promoted an existing trial one rung up.
    Promote {
        /// The promoted trial.
        trial: u64,
        /// Bracket that issued the job.
        bracket: usize,
        /// Rung the trial was promoted out of.
        from: usize,
        /// Rung the trial now trains for (`from + 1`).
        to: usize,
        /// Cumulative resource target of the new job.
        resource: f64,
    },
    /// A suggest call grew the bottom rung with a freshly sampled trial.
    GrowBottom {
        /// The new trial.
        trial: u64,
        /// Bracket that issued the job.
        bracket: usize,
        /// Cumulative resource target of the base-rung job.
        resource: f64,
    },
    /// A job (or a retry attempt of one) began executing on a worker.
    JobStart {
        /// The trial being trained.
        trial: u64,
        /// Bracket that issued the job.
        bracket: usize,
        /// Rung the job trains for.
        rung: usize,
        /// Cumulative resource target.
        resource: f64,
    },
    /// A job completed and its loss was reported to the scheduler.
    JobEnd {
        /// The trial that completed.
        trial: u64,
        /// Rung the job trained for.
        rung: usize,
        /// Cumulative resource reached.
        resource: f64,
        /// Validation loss observed (`f64::INFINITY` for poisoned trials).
        loss: f64,
    },
    /// A running attempt's result was lost; the worker is free again.
    Drop {
        /// The affected trial.
        trial: u64,
        /// Rung the lost attempt trained for.
        rung: usize,
        /// Drop vs. timeout.
        cause: DropCause,
    },
    /// A previously dropped job was re-issued (always immediately followed
    /// by the matching [`EventKind::JobStart`]).
    Retry {
        /// The retried trial.
        trial: u64,
        /// Rung being retried.
        rung: usize,
    },
    /// A scheduling round left workers idle (the scheduler is waiting while
    /// other jobs run).
    WorkerIdle {
        /// Number of workers with nothing to do.
        idle: usize,
    },
}

impl EventKind {
    /// Stable lowercase name of this kind, as used in the JSONL `ev` field.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Suggest { .. } => "suggest",
            EventKind::Promote { .. } => "promote",
            EventKind::GrowBottom { .. } => "grow_bottom",
            EventKind::JobStart { .. } => "job_start",
            EventKind::JobEnd { .. } => "job_end",
            EventKind::Drop { .. } => "drop",
            EventKind::Retry { .. } => "retry",
            EventKind::WorkerIdle { .. } => "worker_idle",
        }
    }

    /// Classify a scheduler decision. A `Run` job targeting rung 0 grew the
    /// bottom rung; a job targeting a higher rung is a promotion out of
    /// `rung - 1` (every scheduler in this workspace issues rung `k > 0`
    /// jobs only by promoting from rung `k - 1`).
    pub fn of_decision(decision: &Decision) -> EventKind {
        match decision {
            Decision::Run(job) => {
                if job.rung > 0 {
                    EventKind::Promote {
                        trial: job.trial.0,
                        bracket: job.bracket,
                        from: job.rung - 1,
                        to: job.rung,
                        resource: job.resource,
                    }
                } else {
                    EventKind::GrowBottom {
                        trial: job.trial.0,
                        bracket: job.bracket,
                        resource: job.resource,
                    }
                }
            }
            Decision::Wait => EventKind::Suggest {
                decision: IdleKind::Wait,
            },
            Decision::Finished => EventKind::Suggest {
                decision: IdleKind::Finished,
            },
        }
    }

    /// The job-start event for `job`.
    pub fn job_start(job: &Job) -> EventKind {
        EventKind::JobStart {
            trial: job.trial.0,
            bracket: job.bracket,
            rung: job.rung,
            resource: job.resource,
        }
    }
}

/// A recorded event: a kind stamped with a sequence number and a timestamp.
///
/// `seq` is strictly increasing within one run, so two events at the same
/// timestamp (common in simulated time) still have a total, deterministic,
/// diffable order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Monotone sequence number (0-based, no gaps).
    pub seq: u64,
    /// Timestamp on the driving execution layer's clock (see module docs).
    pub time: f64,
    /// What happened.
    pub kind: EventKind,
}

/// A sink for telemetry events.
///
/// The default methods are no-ops and report `enabled() == false`, so
/// implementing a collecting recorder means overriding both, while the
/// [`NoopRecorder`] is a one-liner. Emitters must guard event construction
/// behind [`enabled`](Recorder::enabled):
///
/// ```
/// # use asha_core::telemetry::{EventKind, IdleKind, Recorder};
/// # fn emit<R: Recorder>(recorder: &mut R, now: f64) {
/// if recorder.enabled() {
///     recorder.record(now, EventKind::Suggest { decision: IdleKind::Wait });
/// }
/// # }
/// ```
///
/// so that a monomorphized no-op recorder erases the entire path.
pub trait Recorder {
    /// Whether this recorder collects anything. Hot paths skip event
    /// construction entirely when this is `false`.
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    /// Record `kind` at time `now`. Callers guarantee `now` is
    /// non-decreasing across calls within one run.
    #[inline]
    fn record(&mut self, now: f64, kind: EventKind) {
        let _ = (now, kind);
    }
}

/// The always-off recorder: every telemetry guard folds to `false`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

impl<R: Recorder + ?Sized> Recorder for &mut R {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn record(&mut self, now: f64, kind: EventKind) {
        (**self).record(now, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::TrialId;
    use asha_space::Config;

    #[test]
    fn kind_names_are_stable() {
        let names = [
            EventKind::Suggest {
                decision: IdleKind::Wait,
            }
            .name(),
            EventKind::Promote {
                trial: 0,
                bracket: 0,
                from: 0,
                to: 1,
                resource: 1.0,
            }
            .name(),
            EventKind::GrowBottom {
                trial: 0,
                bracket: 0,
                resource: 1.0,
            }
            .name(),
            EventKind::JobStart {
                trial: 0,
                bracket: 0,
                rung: 0,
                resource: 1.0,
            }
            .name(),
            EventKind::JobEnd {
                trial: 0,
                rung: 0,
                resource: 1.0,
                loss: 0.1,
            }
            .name(),
            EventKind::Drop {
                trial: 0,
                rung: 0,
                cause: DropCause::Dropped,
            }
            .name(),
            EventKind::Retry { trial: 0, rung: 0 }.name(),
            EventKind::WorkerIdle { idle: 1 }.name(),
        ];
        assert_eq!(
            names,
            [
                "suggest",
                "promote",
                "grow_bottom",
                "job_start",
                "job_end",
                "drop",
                "retry",
                "worker_idle"
            ]
        );
    }

    #[test]
    fn decisions_classify_by_target_rung() {
        let job = |rung| Job {
            trial: TrialId(7),
            config: Config::default(),
            rung,
            resource: 4.0,
            bracket: 1,
            inherit_from: None,
        };
        match EventKind::of_decision(&Decision::Run(job(0))) {
            EventKind::GrowBottom { trial, bracket, .. } => {
                assert_eq!((trial, bracket), (7, 1));
            }
            other => panic!("expected grow_bottom, got {other:?}"),
        }
        match EventKind::of_decision(&Decision::Run(job(3))) {
            EventKind::Promote { from, to, .. } => assert_eq!((from, to), (2, 3)),
            other => panic!("expected promote, got {other:?}"),
        }
        assert_eq!(
            EventKind::of_decision(&Decision::Wait),
            EventKind::Suggest {
                decision: IdleKind::Wait
            }
        );
        assert_eq!(
            EventKind::of_decision(&Decision::Finished),
            EventKind::Suggest {
                decision: IdleKind::Finished
            }
        );
    }

    #[test]
    fn noop_recorder_is_disabled() {
        let mut noop = NoopRecorder;
        assert!(!noop.enabled());
        // Recording into it is a no-op, not a panic.
        noop.record(1.0, EventKind::WorkerIdle { idle: 3 });
    }
}
