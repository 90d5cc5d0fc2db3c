//! # asha — massively parallel hyperparameter tuning
//!
//! A from-scratch Rust reproduction of *Li et al., "A System for Massively
//! Parallel Hyperparameter Tuning" (MLSys 2020)*: the **Asynchronous
//! Successive Halving Algorithm (ASHA)**, its synchronous relatives, the
//! baselines the paper compares against, a discrete-event cluster simulator
//! for the paper's experiments, and a real thread-pool executor for tuning
//! actual training jobs.
//!
//! This crate is a facade: each subsystem lives in its own crate and is
//! re-exported here under a module of the same name.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`space`] | `asha-space` | search-space DSL + the paper's spaces |
//! | [`core`] | `asha-core` | ASHA, SHA, Hyperband, async Hyperband, random search |
//! | [`baselines`] | `asha-baselines` | PBT, BOHB/TPE, Vizier-like, Fabolas-like |
//! | [`surrogate`] | `asha-surrogate` | synthetic learning-curve benchmarks |
//! | [`sim`] | `asha-sim` | discrete-event cluster simulator |
//! | [`exec`] | `asha-exec` | real multi-threaded executor |
//! | [`metrics`] | `asha-metrics` | traces, incumbent curves, aggregation |
//! | [`obs`] | `asha-obs` | JSONL event logs, metrics registry, run reports |
//! | [`math`] | `asha-math` | GP, KDE, distributions, stats, Cholesky |
//! | [`ml`] | `asha-ml` | tiny MLP/SGD substrate for real tuning demos |
//! | [`store`] | `asha-store` | durable WAL + snapshots, crash recovery, supervisor |
//! | [`service`] | `asha-service` | `asha-serve` daemon, wire protocol, client |
//!
//! The blessed, stability-tracked surface is this facade plus
//! [`prelude`]; paths *inside* the re-exported crates (e.g.
//! `asha::core::rung::...`) are implementation detail and may move
//! between minor versions.
//!
//! # Quickstart
//!
//! Tune a surrogate CIFAR-10 benchmark with ASHA on a simulated 25-worker
//! cluster:
//!
//! ```
//! use asha::core::{Asha, AshaConfig};
//! use asha::sim::{ClusterSim, SimConfig};
//! use asha::surrogate::{presets, BenchmarkModel};
//! use rand::SeedableRng;
//!
//! let bench = presets::cifar10_cuda_convnet(2020);
//! let tuner = Asha::new(bench.space().clone(), AshaConfig::new(1.0, 256.0, 4.0));
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let result = ClusterSim::new(SimConfig::new(25, 150.0)).run(tuner, &bench, &mut rng);
//! let (best_val, best_test) = result.trace.final_best().expect("jobs completed");
//! assert!(best_val.is_finite() && best_test.is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod tune;

pub use asha_baselines as baselines;
pub use asha_core as core;
pub use asha_exec as exec;
pub use asha_math as math;
pub use asha_metrics as metrics;
pub use asha_ml as ml;
pub use asha_obs as obs;
pub use asha_service as service;
pub use asha_sim as sim;
pub use asha_space as space;
pub use asha_store as store;
pub use asha_surrogate as surrogate;

/// The curated import surface: everything a typical tuning program needs,
/// one `use` away.
///
/// ```
/// use asha::prelude::*;
/// use rand::SeedableRng;
///
/// let bench = presets::svm_vehicle(7);
/// let tuner = Asha::new(bench.space().clone(), AshaConfig::new(1.0, 27.0, 3.0));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let result = ClusterSim::new(SimConfig::new(4, 40.0)).run(tuner, &bench, &mut rng);
/// assert!(result.jobs_completed > 0);
/// ```
pub mod prelude {
    pub use asha_core::{
        Asha, AshaConfig, AsyncHyperband, Decision, Durability, Error, ErrorKind, Hyperband,
        HyperbandConfig, Job, Observation, RandomSearch, ResultContext, Scheduler, ShaConfig,
        SyncSha, TrialId,
    };
    pub use asha_exec::{ExecConfig, FnObjective, Objective, ParallelTuner};
    pub use asha_obs::{RunRecorder, RunReport};
    pub use asha_service::{Client, Daemon, ServeOptions};
    pub use asha_sim::{ClusterSim, SimConfig};
    pub use asha_space::SearchSpace;
    pub use asha_store::{
        BenchSpec, DurableRun, ExperimentMeta, ExperimentSupervisor, RunOptions, SchedulerState,
    };
    pub use asha_surrogate::{presets, BenchmarkModel, CurveBenchmark};

    pub use crate::tune::{BestConfig, SimTune, TuneOutcome};
}
