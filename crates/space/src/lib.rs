//! Hyperparameter search-space definitions for the `asha` tuning system.
//!
//! A [`SearchSpace`] is an ordered list of named, typed hyperparameters
//! ([`ParamSpec`]). Spaces know how to
//!
//! * sample random configurations ([`SearchSpace::sample`]),
//! * map configurations to and from the unit hypercube
//!   ([`SearchSpace::to_unit`] / [`SearchSpace::from_unit`]) — the
//!   representation used by the model-based baselines (TPE, GP-EI), and
//! * perturb configurations the way Population Based Training does
//!   ([`SearchSpace::perturb`]).
//!
//! The search spaces used by the ASHA paper's experiments (its Tables 1–3,
//! plus the cuda-convnet and SVM benchmarks) are provided in [`presets`].
//!
//! # Examples
//!
//! ```
//! use asha_space::{SearchSpace, Scale};
//! use rand::SeedableRng;
//!
//! let space = SearchSpace::builder()
//!     .continuous("learning_rate", 1e-5, 1e1, Scale::Log)
//!     .discrete("batch_size", 16, 256)
//!     .ordinal("filters", &[16.0, 32.0, 48.0, 64.0])
//!     .build()?;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let config = space.sample(&mut rng);
//! assert!(config.float("learning_rate", &space)? >= 1e-5);
//! # Ok::<(), asha_space::SpaceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod config;
mod error;
mod param;
pub mod presets;
mod space;

pub use config::{Config, ParamValue};
pub use error::SpaceError;
pub use param::{ParamSpec, Scale};
pub use space::SearchSpace;
