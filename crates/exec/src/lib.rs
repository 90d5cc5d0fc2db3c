//! Real multi-threaded parallel execution of `asha` schedulers.
//!
//! The simulator (`asha-sim`) replays schedulers against surrogate models in
//! virtual time; this crate runs them for real. The calling thread is the
//! one coordinator: it drives any [`asha_core::Scheduler`] through the same
//! [`asha_core::Driver`] the simulator runs on, hands each job to a pool of
//! worker threads that train an [`Objective`] (e.g. an `asha-ml` network),
//! checkpoints trial state so rung promotions resume instead of retraining,
//! and records a wall-clock [`asha_metrics::RunTrace`].
//!
//! The asynchronous contract is exactly Algorithm 2's: a job is requested
//! (`get_job`, here [`asha_core::Scheduler::suggest`]) the moment a worker
//! frees up, and completions are reported in whatever order they finish. PBT's weight copies are honoured by cloning the parent trial's
//! checkpoint when a job carries `inherit_from`.
//!
//! Faults never escape the pool (paper Section 4.4; DESIGN.md "Fault
//! model"): a panicking objective or a non-finite loss poisons its trial
//! (the scheduler observes `f64::INFINITY`), timeouts and dropped results
//! are retried from the last reported checkpoint with exponential backoff
//! per the configured [`FaultPolicy`], and every event is tallied in
//! `ExecResult::faults`.
//! [`ChaosObjective`] injects exactly these faults deterministically for
//! testing.
//!
//! # Examples
//!
//! ```
//! use asha_core::{Asha, AshaConfig};
//! use asha_exec::{Evaluation, ExecConfig, FnObjective, ParallelTuner};
//! use asha_space::{Scale, SearchSpace};
//!
//! let space = SearchSpace::builder()
//!     .continuous("x", 0.0, 1.0, Scale::Linear)
//!     .build()?;
//! // A cheap synthetic objective: checkpoint is the cumulative resource.
//! let objective = FnObjective::new(|config: &asha_space::Config, resource: f64, _ckpt: Option<f64>| {
//!     let x = config.values()[0].clone();
//!     let loss = match x { asha_space::ParamValue::Float(v) => (v - 0.3).abs(), _ => 1.0 };
//!     (Evaluation::of(loss / resource.max(1.0)), resource)
//! });
//! let asha = Asha::new(space, AshaConfig::new(1.0, 9.0, 3.0).with_max_trials(20));
//! let result = ParallelTuner::new(ExecConfig::new(4)).run(asha, &objective, 7);
//! assert!(result.jobs_completed > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod chaos;
mod objective;
mod tuner;

pub use chaos::{install_quiet_panic_hook, ChaosConfig, ChaosObjective};
pub use objective::{Evaluation, FnObjective, JobCtx, JobDropped, Objective};
pub use tuner::{ExecConfig, FaultPolicy, ParallelTuner};
