//! Synthetic learning-curve benchmarks reproducing the ASHA paper workloads.
//!
//! The paper's experiments train real CNNs/LSTMs on CIFAR-10, SVHN, and Penn
//! Treebank. Those substrates are unavailable here, so this crate provides
//! *surrogate* benchmarks: parametric models that map a hyperparameter
//! configuration to
//!
//! * an **asymptotic loss** (a multi-modal response surface over the paper's
//!   own search spaces),
//! * a **convergence rate** (how quickly partial training approaches the
//!   asymptote),
//! * a **training cost** per resource unit (config-dependent, matching the
//!   benchmark-2 property that training time has mean ≈ 30 min and std ≈ 27
//!   min), and
//! * optional **divergence** behaviour (the PTB benchmarks' "perplexities
//!   that are orders of magnitude larger than the average case").
//!
//! Curves are *Markovian*: the loss after `Δr` more resource depends only on
//! the current `(loss, asymptote, rate)` state. This makes both ASHA's
//! checkpoint/resume and PBT's weight inheritance (copying a parent's curve
//! state into a child) first-class operations.
//!
//! What early-stopping schedulers actually rely on is preserved and tested:
//! partial losses are rank-correlated with final losses; better configs
//! stay better in expectation; pathological configs exist.
//!
//! # Examples
//!
//! ```
//! use asha_surrogate::{presets, BenchmarkModel};
//! use rand::SeedableRng;
//!
//! let bench = presets::cifar10_small_cnn(7);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let config = bench.space().sample(&mut rng);
//! let mut state = bench.init_state(&config, &mut rng);
//! bench.advance(&config, &mut state, bench.max_resource(), &mut rng);
//! let loss = bench.validation_loss(&config, &state, &mut rng);
//! assert!(loss > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod curve;
mod model;
pub mod presets;
mod pseudo;

pub use curve::CurveBenchmark;
pub use model::{BenchmarkModel, ConfigProfile, TrainingState};
pub(crate) use pseudo::SmoothPseudo;

// The parallel experiment runner (asha-bench) shares one `&dyn
// BenchmarkModel` across worker threads, so every benchmark must stay plain
// immutable data: `Send + Sync`, no interior mutability. Enforced at compile
// time so a Cell/RefCell sneaking into a model is caught here, not in a
// downstream crate's type error.
const _: () = {
    const fn assert_send_sync<T: Send + Sync + ?Sized>() {}
    assert_send_sync::<CurveBenchmark>();
    assert_send_sync::<SmoothPseudo>();
    assert_send_sync::<dyn BenchmarkModel>();
};
