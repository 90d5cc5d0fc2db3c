//! The four named workloads, and what they share.

use std::path::Path;

use asha::core::AshaConfig;

use crate::harness::{Size, Workload};

pub mod durable;
pub mod serve;
pub mod sim;
pub mod tpe;

/// Every workload's name, in reporting order.
pub const NAMES: [&str; 4] = ["sim-500w", "suggest-tpe", "durable-500w", "serve-e2e-25w"];

/// The paper's ASHA setting on the cuda-convnet benchmark: r = 1, R = 256,
/// eta = 4.
pub fn asha_config() -> AshaConfig {
    AshaConfig::new(1.0, 256.0, 4.0)
}

/// Simulated-time horizon no experiment reaches: every run is capped by its
/// job count, so the work per experiment is fixed.
pub const HORIZON: f64 = 1e12;

/// The surrogate preset every workload tunes.
pub const PRESET: &str = "cifar10_cuda_convnet";

/// A workload's size at full and at `--quick` scale.
pub fn size(name: &str, quick: bool) -> Size {
    let (full, small) = match name {
        "sim-500w" => (sim::FULL, sim::QUICK),
        "suggest-tpe" => (tpe::FULL, tpe::QUICK),
        "durable-500w" => (durable::FULL, durable::QUICK),
        "serve-e2e-25w" => (serve::FULL, serve::QUICK),
        other => panic!("unknown workload {other:?}"),
    };
    if quick {
        small
    } else {
        full
    }
}

/// Build the named workload's panel from `seed`. Stores and sockets of the
/// store-backed workloads live under `scratch`.
pub fn build(name: &str, seed: u64, size: Size, scratch: &Path) -> Box<dyn Workload> {
    match name {
        "sim-500w" => Box::new(sim::Sim::new(seed, size)),
        "suggest-tpe" => Box::new(tpe::Tpe::new(seed, size)),
        "durable-500w" => Box::new(durable::Durable::new(seed, size, scratch)),
        "serve-e2e-25w" => Box::new(serve::Serve::new(seed, size, scratch)),
        other => panic!("unknown workload {other:?}"),
    }
}
