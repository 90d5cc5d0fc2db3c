//! Command-line front end: tune any surrogate benchmark with any searcher
//! on a simulated cluster.
//!
//! ```text
//! cargo run --release -p asha-bench --bin tune_sim -- \
//!     --bench ptb-lstm --searcher asha --workers 100 --horizon 4
//! ```
//!
//! Flags (all optional except `--bench`; any other argument is a usage
//! error):
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

use std::collections::HashMap;

use asha::sim::{ClusterSim, SimConfig};
use asha::surrogate::{presets, BenchmarkModel, CurveBenchmark};
use asha::tune::Searcher;
use rand::SeedableRng;

/// Every flag `tune_sim` takes; each is followed by its value.
const FLAGS: [&str; 7] = [
    "--bench",
    "--searcher",
    "--workers",
    "--horizon",
    "--stragglers",
    "--drops",
    "--seed",
];

/// A malformed command line: one `tune_sim: ...` line on stderr, exit 2.
fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("tune_sim: {msg}");
    std::process::exit(2);
}

/// The command line as flag -> value, the first occurrence of each flag
/// winning. An unknown flag, a stray argument or a flag without its value is
/// a usage error, so `--wrokers 500` never runs the default worker count.
fn parse_flags() -> HashMap<&'static str, String> {
    let mut flags = HashMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let Some(&flag) = FLAGS.iter().find(|&&flag| flag == arg) else {
            usage_error(format!("unknown argument {arg:?}"))
        };
        let Some(value) = args.next() else {
            usage_error(format!("{flag} needs a value"))
        };
        flags.entry(flag).or_insert(value);
    }
    flags
}

/// The number after `flag`, or `default()` when the flag is absent. A
/// malformed value is a usage error, so `--workers 2S` never runs the
/// default worker count.
fn number<T: std::str::FromStr>(
    flags: &HashMap<&str, String>,
    flag: &str,
    default: impl FnOnce() -> T,
) -> T {
    let Some(raw) = flags.get(flag) else {
        return default();
    };
    raw.parse()
        .unwrap_or_else(|_| usage_error(format!("{flag}: not a number: {raw:?}")))
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
    let flags = parse_flags();
    let Some(bench_name) = flags.get("--bench") else {
        eprintln!("usage: tune_sim --bench <name> [--searcher asha] [--workers 25] ...");
        eprintln!(
            "benchmarks: cuda-convnet small-cnn svhn ptb-lstm dropconnect svm-vehicle svm-mnist"
        );
        std::process::exit(2);
    };
    let Some(bench) = benchmark_by_name(bench_name) else {
        eprintln!("unknown benchmark `{bench_name}`");
        std::process::exit(2);
    };
    let searcher_name = flags.get("--searcher").map_or("asha", String::as_str);
    let max_r = bench.max_resource();
    let Some(searcher) = Searcher::from_name(searcher_name, (max_r / 256.0).max(1.0), max_r, 4.0)
    else {
        eprintln!("unknown searcher `{searcher_name}`");
        std::process::exit(2);
    };
    let space = bench.space();
    let sim = SimConfig {
        workers: number(&flags, "--workers", || 25),
        max_time: number(&flags, "--horizon", || {
            bench.time_full(&space.default_config()) * 10.0
        }),
        straggler_std: number(&flags, "--stragglers", || 0.0),
        drop_prob: number(&flags, "--drops", || 0.0),
        ..SimConfig::new(1, 1.0)
    };
    let seed: u64 = number(&flags, "--seed", || 0);
    if let Err(e) = sim.validate() {
        usage_error(e);
    }

    println!(
        "tuning `{}` with {searcher_name} on {} simulated workers for {:.1} time units",
        bench.name(),
        sim.workers,
        sim.max_time
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let result = ClusterSim::new(sim).run(searcher.build(space), &bench, &mut rng);

    println!(
        "\ncompleted {} jobs over {} configurations ({} dropped), sim time {:.1}",
        result.jobs_completed, result.distinct_trials, result.faults.jobs_dropped, result.end_time
    );
    match &result.best_config {
        Some((config, val_loss, resource)) => {
            println!("best validation loss {val_loss:.4} at resource {resource:.0}:");
            let summary = space
                .display(config)
                .unwrap_or_else(|_| "<foreign config>".to_owned());
            for pair in summary.split(' ') {
                println!("    {pair}");
            }
        }
        None => println!("no job completed within the horizon"),
    }
    println!("\nincumbent trajectory (last 5 improvements):");
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
        println!("    t = {t:9.2}   test loss = {v:.4}");
    }
}
