//! Calibration tool: print the distribution of full-training losses and
//! costs for each surrogate benchmark under uniform random sampling. Used to
//! sanity-check that surfaces make the paper's comparisons meaningful (e.g.
//! "best of ~2k random full evaluations" vs "best of ~50k early-stopped
//! ones" for Figure 5).
//!
//! ```text
//! cargo run --release -p asha-bench --bin surface_quantiles -- [SAMPLES]
//! ```
//!
//! `SAMPLES` is the number of random configurations per benchmark (default
//! 20 000); a malformed count is a usage error (exit 2), not the default.

use asha::math::stats::{mean, quantile, std_dev};
use asha::surrogate::{presets, BenchmarkModel};
use asha_bench::cli::Cli;
use asha_bench::outln;
use rand::rngs::StdRng;
use rand::SeedableRng;

const CLI: Cli = Cli {
    bin: "surface_quantiles",
    synopsis: "[SAMPLES]",
    flags: &[],
    positionals: 1,
};

fn main() {
    let args = CLI.parse();
    let n: usize = args
        .positionals
        .first()
        .map_or(20_000, |raw| args.parse_value("SAMPLES", raw));
    let seed = presets::DEFAULT_SURFACE_SEED;
    let benches = [
        presets::cifar10_cuda_convnet(seed),
        presets::cifar10_small_cnn(seed),
        presets::svhn_small_cnn(seed),
        presets::ptb_lstm(seed),
        presets::ptb_dropconnect_lstm(seed),
        presets::svm_vehicle(seed),
        presets::svm_mnist(seed),
    ];
    outln!("full-training loss quantiles over {n} uniform random configurations\n");
    outln!(
        "{:<24} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>11} {:>9}",
        "benchmark",
        "min",
        "p0.1%",
        "p1%",
        "p10%",
        "p50%",
        "p99%",
        "cost mean",
        "cost std"
    );
    for b in &benches {
        let mut rng = StdRng::seed_from_u64(9999);
        let mut losses = Vec::with_capacity(n);
        let mut costs = Vec::with_capacity(n);
        for _ in 0..n {
            let c = b.space().sample(&mut rng);
            let mut s = b.init_state(&c, &mut rng);
            b.advance(&c, &mut s, b.max_resource(), &mut rng);
            losses.push(b.validation_loss(&c, &s, &mut rng));
            costs.push(b.time_full(&c));
        }
        outln!(
            "{:<24} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>11.2} {:>9.2}",
            b.name(),
            quantile(&losses, 0.0),
            quantile(&losses, 0.001),
            quantile(&losses, 0.01),
            quantile(&losses, 0.10),
            quantile(&losses, 0.50),
            quantile(&losses, 0.99),
            mean(&costs),
            std_dev(&costs),
        );
    }
}
