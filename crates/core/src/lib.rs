//! The Asynchronous Successive Halving Algorithm (ASHA) and its relatives.
//!
//! This crate implements the scheduling core of *Li et al., "A System for
//! Massively Parallel Hyperparameter Tuning" (MLSys 2020)*:
//!
//! * [`Asha`] — Algorithm 2 of the paper: promote a configuration to the
//!   next rung whenever possible; otherwise grow the bottom rung.
//!   [`AshaConfig::delayed`] switches it to Hyper-Tune's delayed promotion
//!   rule (D-ASHA): per-rung promotions never exceed the exact `1/eta` quota.
//! * [`SyncSha`] — Algorithm 1, the synchronous Successive Halving
//!   Algorithm, including the bracket-growing parallelization of Falkner
//!   et al. (2018) that the paper compares against.
//! * [`Hyperband`] / [`AsyncHyperband`] — loop over SHA/ASHA brackets with
//!   different early-stopping rates.
//! * [`RandomSearch`] — the embarrassingly parallel baseline.
//! * [`budget`] — [`budget::Geometry`], the one place `(r, R, eta, s)` is
//!   validated and turned into rung counts and rung resources; plus the
//!   closed-form promotion/budget tables of Figure 1 and the wall-clock
//!   bounds of Section 3.2.
//! * [`state`] — every durable scheduler's state as plain data
//!   ([`SchedulerState`]) and [`DurableScheduler`], the one interface a
//!   store needs to persist and restore any of them.
//! * [`telemetry`] — the structured-event vocabulary (suggest / promote /
//!   grow_bottom / job lifecycle / faults), the zero-cost [`Recorder`] sink
//!   both execution layers emit into, and the [`InstrumentedScheduler`]
//!   decorator; collection and reporting live in `asha-obs`.
//! * [`error`] — the unified [`Error`] type (kind + context chain) every
//!   fallible surface in the workspace converges on.
//!
//! All schedulers implement the pull-based [`Scheduler`] trait, so the same
//! implementation runs under the discrete-event simulator (`asha-sim`), the
//! real thread-pool executor (`asha-exec`), and plain unit tests.
//!
//! # Examples
//!
//! Drive ASHA by hand for a few steps:
//!
//! ```
//! use asha_core::{Asha, AshaConfig, Decision, Observation, Scheduler};
//! use asha_space::{Scale, SearchSpace};
//! use rand::SeedableRng;
//!
//! let space = SearchSpace::builder()
//!     .continuous("lr", 1e-4, 1.0, Scale::Log)
//!     .build()?;
//! let mut asha = Asha::new(space, AshaConfig::new(1.0, 9.0, 3.0));
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//!
//! // Nothing has run yet, so the first job grows the bottom rung.
//! let job = match asha.suggest(&mut rng) {
//!     Decision::Run(job) => job,
//!     other => panic!("expected a job, got {other:?}"),
//! };
//! assert_eq!(job.rung, 0);
//! asha.observe(Observation::new(job.trial, job.rung, job.resource, 0.5));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asha;
pub mod budget;
pub mod durability;
pub mod error;
pub mod fx;
mod hyperband;
mod random;
#[cfg(any(test, feature = "reference"))]
pub mod reference;
mod rung;
mod sampler;
mod scheduler;
mod sha;
pub mod state;
pub mod telemetry;

pub use crate::asha::{Asha, AshaConfig};
pub use crate::durability::Durability;
pub use crate::error::{Error, ErrorKind, ResultContext};
pub use crate::fx::{FxHashMap, FxHashSet};
pub use crate::hyperband::{AsyncHyperband, Hyperband, HyperbandConfig};
pub use crate::random::RandomSearch;
pub use crate::rung::{PromotionRule, Rung, RungLadder, ScanOrder};
pub use crate::sampler::{ConfigSampler, Fidelity, RandomSampler};
pub use crate::scheduler::{Decision, Job, Observation, Scheduler, TrialId};
pub use crate::sha::{ShaConfig, SyncSha};
pub use crate::state::{
    AshaState, AsyncHyperbandState, BracketState, DurableScheduler, RungState, SchedulerState,
    SyncShaState,
};
pub use crate::telemetry::{
    DropCause, Event, EventKind, IdleKind, InstrumentedScheduler, NoopRecorder, Recorder,
};
