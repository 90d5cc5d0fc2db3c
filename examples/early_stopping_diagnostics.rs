//! Should you early-stop aggressively on *your* workload? This example runs
//! ASHA on two surrogate benchmarks and uses `asha::metrics::analysis` to
//! quantify how informative partial training is: rung-to-rung rank
//! correlations and promotion agreement.
//!
//! Run with: `cargo run --release --example early_stopping_diagnostics`

use asha::metrics::analysis;
use asha::sim::{ClusterSim, SimConfig};
use asha::surrogate::{presets, BenchmarkModel};
use asha::tune::Searcher;
use rand::SeedableRng;

fn diagnose(bench: &dyn BenchmarkModel, horizon: f64) {
    let scheduler = Searcher::default_asha(bench.max_resource()).build(bench.space());
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let outcome = ClusterSim::new(SimConfig::new(25, horizon)).run(scheduler, bench, &mut rng);
    println!(
        "\n{} — {} jobs, {} configs",
        bench.name(),
        outcome.jobs_completed,
        outcome.distinct_trials
    );
    println!(
        "{:>6} {:>8} {:>12} {:>22}",
        "rung", "pairs", "spearman", "promotion agreement"
    );
    for (rung, pairs, rho) in analysis::rung_rank_correlation(&outcome.trace, 10) {
        let agree = analysis::promotion_agreement(&outcome.trace, rung, 4.0)
            .map(|a| format!("{:.0}%", a * 100.0))
            .unwrap_or_else(|| "—".into());
        println!("{rung:>6} {pairs:>8} {rho:>12.3} {agree:>22}");
    }
}

fn main() {
    println!("Rank structure of partial vs deeper training under ASHA (eta = 4):");
    println!("high spearman / agreement => aggressive early stopping (s = 0) is safe.");
    diagnose(
        &presets::cifar10_cuda_convnet(presets::DEFAULT_SURFACE_SEED),
        150.0,
    );
    diagnose(&presets::ptb_lstm(presets::DEFAULT_SURFACE_SEED), 4.0);
    println!("\nNote the caveat: these are *conditional* correlations among survivors —");
    println!("the rungs only contain configurations ASHA already considered promising.");
}
