//! Race every searcher in the workspace — ASHA, synchronous SHA, Hyperband
//! (sync and async), BOHB, PBT, Vizier-like GP-EI, and random search — on
//! the small-CNN architecture benchmark with 16 simulated workers.
//!
//! Run with: `cargo run --release --example compare_searchers`

use asha::baselines::{bohb, vizier, GpSamplerConfig, Pbt, PbtConfig};
use asha::core::{Asha, AshaConfig, BracketLoop, BracketLoopConfig, Scheduler};
use asha::sim::{ClusterSim, SimConfig};
use asha::surrogate::{presets, BenchmarkModel};
use rand::SeedableRng;

const R: f64 = 256.0;
const ETA: f64 = 4.0;
const WORKERS: usize = 16;
const HORIZON: f64 = 200.0; // minutes

fn main() {
    let bench = presets::cifar10_small_cnn(presets::DEFAULT_SURFACE_SEED);
    let space = bench.space().clone();

    let searchers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(Asha::new(space.clone(), AshaConfig::new(1.0, R, ETA))),
        Box::new(BracketLoop::new(
            space.clone(),
            BracketLoopConfig::sha(256, 1.0, R, ETA).growing(),
        )),
        Box::new(BracketLoop::new(
            space.clone(),
            BracketLoopConfig::hyperband(1.0, R, ETA),
        )),
        Box::new(BracketLoop::new(
            space.clone(),
            BracketLoopConfig::async_hyperband(1.0, R, ETA),
        )),
        Box::new(bohb(
            space.clone(),
            BracketLoopConfig::sha(256, 1.0, R, ETA).growing(),
        )),
        Box::new(Pbt::new(
            space.clone(),
            PbtConfig::new(16, R, R / 30.0)
                .with_frozen(&["batch_size", "n_layers", "n_filters"])
                .spawning(),
        )),
        Box::new(vizier(space.clone(), R, GpSamplerConfig::vizier())),
        Box::new(Asha::new(space.clone(), AshaConfig::random(R))),
    ];

    println!(
        "racing {} searchers on `{}` ({WORKERS} workers, {HORIZON} simulated minutes)\n",
        searchers.len(),
        bench.name()
    );
    println!(
        "{:<22} {:>10} {:>10} {:>12} {:>12}",
        "searcher", "jobs", "configs", "best test", "t(<=0.23)"
    );
    for searcher in searchers {
        let name = searcher.name().to_owned();
        let mut rng = rand::rngs::StdRng::seed_from_u64(123);
        let result =
            ClusterSim::new(SimConfig::new(WORKERS, HORIZON)).run(searcher, &bench, &mut rng);
        let curve = result.trace.incumbent_curve();
        let best = curve.last_value().unwrap_or(f64::NAN);
        let reach = curve
            .time_to_reach(0.23)
            .map(|t| format!("{t:.1}"))
            .unwrap_or_else(|| "—".into());
        println!(
            "{:<22} {:>10} {:>10} {:>12.4} {:>12}",
            name,
            result.jobs_completed,
            result.trace.distinct_trials(),
            best,
            reach
        );
    }
    println!("\nLower test error and earlier t(<=0.23) are better; note how the");
    println!("asynchronous methods evaluate far more configurations in the same budget.");
}
