//! A tiny from-scratch machine-learning substrate for real tuning demos.
//!
//! The ASHA paper tunes real neural networks; most of this repository's
//! experiments substitute surrogate benchmarks, but the examples and the
//! thread-pool executor also demonstrate tuning *actual* iterative training.
//! This crate supplies the minimum for that to be honest work:
//!
//! * [`Dataset`] — synthetic classification data (Gaussian blobs, two
//!   spirals) with train/validation/test splits,
//! * [`Mlp`] — a dense multi-layer perceptron with ReLU/Tanh activations and
//!   softmax cross-entropy, trained by
//! * [`Trainer`] — minibatch SGD with momentum, ℓ2 weight decay, and stepwise
//!   learning-rate decay. The trainer *is* the checkpoint: training more
//!   epochs resumes exactly, which is what ASHA's rung promotions need.
//!
//! # Examples
//!
//! ```
//! use asha_ml::{Dataset, Mlp, Trainer, TrainConfig};
//!
//! let data = Dataset::gaussian_blobs(3, 2, 300, 0.5, 42).split(0.6, 0.2);
//! let mlp = Mlp::new(2, &[16], 3, asha_ml::Activation::Relu, 0.1, 7);
//! let mut trainer = Trainer::new(mlp, TrainConfig::default());
//! trainer.train_epochs(&data.train, 5);
//! let (loss, acc) = trainer.evaluate(&data.validation);
//! assert!(loss.is_finite() && (0.0..=1.0).contains(&acc));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod data;
mod kernel;
mod nn;
mod trainer;

pub use data::{Dataset, Split};
pub use kernel::{KernelRidge, KernelRidgeConfig};
pub use nn::{Activation, Mlp};
pub use trainer::{TrainConfig, Trainer};
