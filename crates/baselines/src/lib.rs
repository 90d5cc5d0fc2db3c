//! Baseline hyperparameter tuners the ASHA paper compares against.
//!
//! BOHB and Vizier are [`asha_core::ConfigSampler`]s on the shared ladders
//! (they differ from SHA and random search only in how configurations are
//! sampled); only PBT and Fabolas keep [`asha_core::Scheduler`]s of their
//! own. The simulator and the executor drive them all exactly like ASHA:
//!
//! * [`TpeSampler`] — a rung-conditioned Tree-structured Parzen Estimator;
//!   plugging it into synchronous SHA yields **BOHB** ([`bohb`]), into ASHA
//!   yields **ASHA+TPE** ([`bohb_asha`], the A-BOHB direction), and into
//!   D-ASHA yields **D-ASHA+TPE** (the Hyper-Tune combination).
//! * [`GpSampler`] — rung-conditioned GP-EI as a pluggable sampler (the
//!   async counterpart of [`vizier`]'s model).
//! * [`Sampler`] — the three sampler kinds (random, TPE, GP-EI) as a value:
//!   what a method description, `meta.json` and a snapshot name, and the
//!   one place a kind becomes a sampler.
//! * [`vizier`] — a stand-in for Google Vizier's default algorithm: batched
//!   GP-EI with a constant-liar heuristic on random search's one rung, so
//!   *no* early stopping (the paper's "Vizier without the performance curve
//!   early-stopping rule").
//! * [`Pbt`] — Population Based Training with truncation selection and
//!   perturb/resample exploration, following Appendix A.3 (including frozen
//!   architecture hyperparameters and the bounded-lag fairness rule).
//! * [`Fabolas`] — a stand-in for Fabolas: cost-aware Bayesian optimization
//!   over the joint (configuration, dataset-fraction) space, with periodic
//!   full-budget incumbent evaluations mirroring Klein et al.'s offline
//!   validation protocol.
//!
//! # Examples
//!
//! ```
//! use asha_baselines::bohb;
//! use asha_core::{BracketLoopConfig, Scheduler};
//! use asha_space::{Scale, SearchSpace};
//! use rand::SeedableRng;
//!
//! let space = SearchSpace::builder()
//!     .continuous("lr", 1e-4, 1.0, Scale::Log)
//!     .build()?;
//! let mut tuner = bohb(space, BracketLoopConfig::sha(9, 1.0, 9.0, 3.0));
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! assert!(matches!(tuner.suggest(&mut rng), asha_core::Decision::Run(_)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod bohb;
mod cursor;
mod fabolas;
mod gp;
mod pbt;
mod sampler;
mod tpe;
mod vizier;

pub use bohb::{bohb, bohb_asha};
pub use fabolas::{Fabolas, FabolasConfig};
pub use gp::{GpSampler, GpSamplerConfig};
pub use pbt::{Pbt, PbtConfig};
pub use sampler::Sampler;
pub use tpe::{TpeConfig, TpeSampler};
pub use vizier::{vizier, VizierConfig};
