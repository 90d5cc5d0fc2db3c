//! Command-line front end: tune any surrogate benchmark with any searcher
//! on a simulated cluster.
//!
//! ```text
//! cargo run --release -p asha-bench --bin tune_sim -- \
//!     --bench ptb-lstm --searcher asha --workers 100 --horizon 4
//! ```
//!
//! Flags (all optional except `--bench`; a missing or malformed value, a
//! repeated flag and any other argument are usage errors, exit 2):
//!   --bench       cuda-convnet | small-cnn | svhn | ptb-lstm | dropconnect |
//!                 svm-vehicle | svm-mnist
//!   --searcher    asha | dasha | sha | hyperband | async-hyperband | bohb |
//!                 pbt | vizier | fabolas | random     (default asha), on the
//!                 ladder r = max(R/256, 1), R, eta = 4
//!   --workers     worker count                        (default 25)
//!   --horizon     simulated-time budget               (default 10 x time(R))
//!   --stragglers  straggler std (1+|z|)               (default 0)
//!   --drops       per-time-unit drop probability      (default 0)
//!   --seed        RNG seed                            (default 0)

use asha::sim::{ClusterSim, SimConfig};
use asha::surrogate::{presets, BenchmarkModel, CurveBenchmark};
use asha::tune::Searcher;
use asha_bench::cli::Cli;
use asha_bench::outln;
use rand::SeedableRng;

const CLI: Cli = Cli {
    bin: "tune_sim",
    synopsis: "--bench NAME [--searcher M] [--workers N] [--horizon T] [--stragglers S] \
        [--drops P] [--seed N]\n\
        benchmarks: cuda-convnet small-cnn svhn ptb-lstm dropconnect svm-vehicle svm-mnist",
    flags: &[
        "--bench NAME",
        "--searcher M",
        "--workers N",
        "--horizon T",
        "--stragglers S",
        "--drops P",
        "--seed N",
    ],
    positionals: 0,
};

fn benchmark_by_name(name: &str) -> Option<CurveBenchmark> {
    let seed = presets::DEFAULT_SURFACE_SEED;
    Some(match name {
        "cuda-convnet" => presets::cifar10_cuda_convnet(seed),
        "small-cnn" => presets::cifar10_small_cnn(seed),
        "svhn" => presets::svhn_small_cnn(seed),
        "ptb-lstm" => presets::ptb_lstm(seed),
        "dropconnect" => presets::ptb_dropconnect_lstm(seed),
        "svm-vehicle" => presets::svm_vehicle(seed),
        "svm-mnist" => presets::svm_mnist(seed),
        _ => return None,
    })
}

fn main() {
    let args = CLI.parse();
    let Some(bench_name) = args.value("--bench") else {
        args.usage_error("--bench is required")
    };
    let Some(bench) = benchmark_by_name(bench_name) else {
        args.usage_error(format!("unknown benchmark `{bench_name}`"))
    };
    let searcher_name = args.value("--searcher").unwrap_or("asha");
    let max_r = bench.max_resource();
    let Some(searcher) = Searcher::from_name(searcher_name, (max_r / 256.0).max(1.0), max_r, 4.0)
    else {
        args.usage_error(format!("unknown searcher `{searcher_name}`"))
    };
    let space = bench.space();
    let sim = SimConfig {
        workers: args.number("--workers").unwrap_or(25),
        max_time: args
            .number("--horizon")
            .unwrap_or_else(|| bench.time_full(&space.default_config()) * 10.0),
        straggler_std: args.number("--stragglers").unwrap_or(0.0),
        drop_prob: args.number("--drops").unwrap_or(0.0),
        ..SimConfig::new(1, 1.0)
    };
    let seed: u64 = args.number("--seed").unwrap_or(0);
    if let Err(e) = sim.validate() {
        args.usage_error(e);
    }

    outln!(
        "tuning `{}` with {searcher_name} on {} simulated workers for {:.1} time units",
        bench.name(),
        sim.workers,
        sim.max_time
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let result = ClusterSim::new(sim).run(searcher.build(space), &bench, &mut rng);

    outln!(
        "\ncompleted {} jobs over {} configurations ({} dropped), sim time {:.1}",
        result.jobs_completed,
        result.distinct_trials,
        result.faults.jobs_dropped,
        result.end_time
    );
    match &result.best_config {
        Some((config, val_loss, resource)) => {
            outln!("best validation loss {val_loss:.4} at resource {resource:.0}:");
            let summary = space
                .display(config)
                .unwrap_or_else(|_| "<foreign config>".to_owned());
            for pair in summary.split(' ') {
                outln!("    {pair}");
            }
        }
        None => outln!("no job completed within the horizon"),
    }
    outln!("\nincumbent trajectory (last 5 improvements):");
    let curve = result.trace.incumbent_curve();
    for &(t, v) in curve
        .points()
        .iter()
        .rev()
        .take(5)
        .collect::<Vec<_>>()
        .iter()
        .rev()
    {
        outln!("    t = {t:9.2}   test loss = {v:.4}");
    }
}
