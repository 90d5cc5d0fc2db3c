//! Command-line front end: tune any surrogate benchmark with any searcher
//! on a simulated cluster.
//!
//! ```text
//! cargo run --release -p asha-bench --bin tune_sim -- \
//!     --bench ptb-lstm --searcher asha --workers 100 --horizon 4 --seed 3
//! ```
//!
//! Flags (all optional except `--bench`):
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

use asha::sim::SimConfig;
use asha::surrogate::{presets, BenchmarkModel, CurveBenchmark};
use asha::tune::{Searcher, SimTune};

fn parse_flag(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

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
    let args: Vec<String> = std::env::args().collect();
    let Some(bench_name) = parse_flag(&args, "--bench") else {
        eprintln!("usage: tune_sim --bench <name> [--searcher asha] [--workers 25] ...");
        eprintln!(
            "benchmarks: cuda-convnet small-cnn svhn ptb-lstm dropconnect svm-vehicle svm-mnist"
        );
        std::process::exit(2);
    };
    let Some(bench) = benchmark_by_name(&bench_name) else {
        eprintln!("unknown benchmark `{bench_name}`");
        std::process::exit(2);
    };
    let searcher_name = parse_flag(&args, "--searcher").unwrap_or_else(|| "asha".into());
    let max_r = bench.max_resource();
    let Some(searcher) = Searcher::from_name(&searcher_name, (max_r / 256.0).max(1.0), max_r, 4.0)
    else {
        eprintln!("unknown searcher `{searcher_name}`");
        std::process::exit(2);
    };
    let workers: usize = parse_flag(&args, "--workers")
        .and_then(|s| s.parse().ok())
        .unwrap_or(25);
    let horizon: f64 = parse_flag(&args, "--horizon")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| bench.time_full(&bench.space().default_config()) * 10.0);
    let stragglers: f64 = parse_flag(&args, "--stragglers")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.0);
    let drops: f64 = parse_flag(&args, "--drops")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.0);
    let seed: u64 = parse_flag(&args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    // `SimTune::run` builds its `SimConfig` through the panicking
    // constructors; reject the same conditions here as a usage error.
    let flags = SimConfig {
        workers,
        max_time: horizon,
        straggler_std: stragglers,
        drop_prob: drops,
        ..SimConfig::new(1, 1.0)
    };
    if let Err(e) = flags.validate() {
        eprintln!("tune_sim: {e}");
        std::process::exit(2);
    }

    println!(
        "tuning `{}` with {searcher_name} on {workers} simulated workers for {horizon:.1} time units",
        bench.name()
    );
    let outcome = SimTune::new(&bench)
        .searcher(searcher)
        .workers(workers)
        .horizon(horizon)
        .stragglers(stragglers)
        .drops(drops)
        .seed(seed)
        .run();

    println!(
        "\ncompleted {} jobs over {} configurations ({} dropped), sim time {:.1}",
        outcome.jobs_completed,
        outcome.configs_evaluated,
        outcome.faults.jobs_dropped,
        outcome.end_time
    );
    match &outcome.best {
        Some(best) => {
            println!(
                "best validation loss {:.4} at resource {:.0}:",
                best.val_loss, best.resource
            );
            for pair in best.summary.split(' ') {
                println!("    {pair}");
            }
        }
        None => println!("no job completed within the horizon"),
    }
    println!("\nincumbent trajectory (last 5 improvements):");
    let curve = outcome.trace.incumbent_curve();
    for &(t, v) in curve
        .points()
        .iter()
        .rev()
        .take(5)
        .collect::<Vec<_>>()
        .iter()
        .rev()
    {
        println!("    t = {t:9.2}   test loss = {v:.4}");
    }
}
