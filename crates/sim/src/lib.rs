//! Discrete-event cluster simulator for hyperparameter tuning schedulers.
//!
//! The paper's distributed experiments (Sections 4.2–4.3) run schedulers on
//! 16–500 GPU workers; its robustness study (Appendix A.1, Figures 7–8)
//! uses *simulated workloads* with stragglers and dropped jobs. This crate
//! is that substrate: a deterministic discrete-event simulation of a worker
//! pool executing jobs from any [`asha_core::Scheduler`] against any
//! [`asha_surrogate::BenchmarkModel`].
//!
//! Faithfulness to the paper's Appendix A.1 setup:
//!
//! * **Stragglers** — each job's expected duration is multiplied by
//!   `1 + |z|` with `z ~ N(0, straggler_std)`.
//! * **Dropped jobs** — a job is dropped with probability `p` per time
//!   unit, i.e. it survives `d` units with probability `(1-p)^d`; dropped
//!   jobs lose their work and are retried from the last checkpoint, and the
//!   worker is freed meanwhile.
//! * **Poisoned losses** — a NaN or ±∞ validation loss is observed and
//!   traced as `+inf` and counted as poisoned: the simulator runs the same
//!   [`asha_core::Driver`] job lifecycle as the real executor.
//! * **Resume policy** — [`ResumePolicy::Checkpoint`] trains only the
//!   resource delta since the trial's checkpoint (Section 3.2's iterative
//!   setting); [`ResumePolicy::FromScratch`] pays the full rung resource
//!   (the accounting of Figures 1–2 and the Appendix A.1 simulations).
//! * **Trace modes** — [`TraceMode::Full`] records every completion;
//!   [`TraceMode::IncumbentOnly`] keeps O(incumbent-updates) memory while
//!   producing the identical incumbent curve; [`TraceMode::Aggregated`]
//!   keeps only scalar aggregates. Long-horizon runs complete millions of
//!   jobs, so the lean modes are what make 500-worker sweeps affordable.
//!
//! # Examples
//!
//! ```
//! use asha_core::{Asha, AshaConfig};
//! use asha_sim::{ClusterSim, SimConfig};
//! use asha_surrogate::{presets, BenchmarkModel};
//! use rand::SeedableRng;
//!
//! let bench = presets::cifar10_cuda_convnet(2020);
//! let asha = Asha::new(bench.space().clone(), AshaConfig::new(1.0, 256.0, 4.0));
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let result = ClusterSim::new(SimConfig::new(25, 150.0)).run(asha, &bench, &mut rng);
//! assert!(result.jobs_completed > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod cluster;

pub use cluster::{
    ClusterSim, PendingJob, ResumePolicy, SimConfig, SimEngine, SimResult, SimRunState, TraceMode,
    TrialSlotState,
};
