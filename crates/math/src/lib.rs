//! From-scratch numerics for the `asha` workspace.
//!
//! Everything the model-based baselines and the simulator need, with no
//! dependencies beyond `rand`:
//!
//! * [`dist`] — normal / truncated-normal sampling (Box–Muller), the standard
//!   normal pdf/cdf used by expected improvement.
//! * [`stats`] — descriptive statistics, quantiles, argsort, ECDF, and
//!   Spearman rank correlation (used to validate surrogate fidelity).
//! * `linalg` — a small dense matrix type with Cholesky factorization and
//!   triangular solves, enough to implement Gaussian-process regression.
//! * `gp` — Gaussian-process regression with a squared-exponential ARD
//!   kernel and the expected-improvement acquisition (the Vizier-like and
//!   Fabolas-like baselines).
//! * `kde` — one-dimensional Gaussian kernel density estimation (the TPE
//!   sampler inside BOHB), with a batch density of bounded relative error.
//!
//! # Examples
//!
//! ```
//! use asha_math::stats::{mean, quantile};
//!
//! let xs = [1.0, 2.0, 3.0, 4.0];
//! assert_eq!(mean(&xs), 2.5);
//! assert_eq!(quantile(&xs, 0.5), 2.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod dist;
mod gp;
mod kde;
mod linalg;
pub mod stats;

pub use gp::{expected_improvement, Gp, GpConfig};
pub use kde::Kde1d;
pub use linalg::{CholeskyError, Matrix};
