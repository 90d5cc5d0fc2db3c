//! The Appendix A.1 sweep behind Figures 7 and 8: ASHA vs synchronous SHA on
//! a simulated workload as straggler variance and drop probability grow.
//!
//! Paper settings: η = 4, r = 1, R = 256, n = 256; "the expected training
//! time for each job is the same as the allocated resource" (so the resume
//! policy is from-scratch and the surrogate cost is 1 time unit per resource
//! unit); stragglers multiply expected time by `1 + |z|`,
//! `z ~ N(0, std)`; jobs drop with probability `p` per time unit.

use asha::tune::Searcher;
use asha_core::{AshaConfig, ShaConfig};
use asha_metrics::{write_csv, RunTrace};
use asha_sim::{ClusterSim, ResumePolicy, SimConfig};
use asha_space::{Scale, SearchSpace};
use asha_surrogate::{BenchmarkModel, CurveBenchmark};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Maximum resource `R` of the workload.
pub const R: f64 = 256.0;
/// Simulated-time horizon of every run.
pub const HORIZON: f64 = 2000.0;
const WORKERS: usize = 25;
/// Simulations averaged per (std, drop, method) cell.
const SIMS: usize = 25;
const ETA: f64 = 4.0;

/// A featureless benchmark whose cost is exactly 1 time unit per resource
/// unit — the Appendix A.1 workload (losses are irrelevant to the metrics).
fn unit_cost_benchmark() -> CurveBenchmark {
    let space = SearchSpace::builder()
        .continuous("x", 0.0, 1.0, Scale::Linear)
        .build()
        .expect("valid space");
    CurveBenchmark::builder("unit-cost", space, R, 7)
        .cost(R, &[0.0])
        .noise(0.01, 0.01)
        .build()
}

/// Run the `stds × drops` grid under the banner `what`, print one table row
/// per cell and write them to `csv` as `train_std, drop_prob, <columns[0]>,
/// <columns[1]>`.
///
/// Each cell is the mean of `metric` over `SIMS` runs of ASHA and of SHA;
/// simulation `k` of drop-axis cell `i` seeds its RNG with
/// `seed_bases[method] + i + k`.
pub fn run(
    what: &str,
    stds: &[f64],
    drops: &[f64],
    seed_bases: [u64; 2],
    metric: fn(&RunTrace) -> f64,
    csv: &str,
    columns: [&str; 2],
) {
    let bench = unit_cost_benchmark();
    let asha = Searcher::asha(AshaConfig::new(1.0, R, ETA));
    let sha = Searcher::sha(ShaConfig::new(256, 1.0, R, ETA).growing());
    let mut rows = Vec::new();
    println!("{what} ({WORKERS} workers, {SIMS} sims/cell)");
    println!(
        "{:>10} {:>10} {:>12} {:>12}",
        "train std", "drop prob", "ASHA", "SHA"
    );
    for &std in stds {
        for (i, &p) in drops.iter().enumerate() {
            let sim = ClusterSim::new(
                SimConfig::new(WORKERS, HORIZON)
                    .with_stragglers(std)
                    .with_drops(p)
                    .with_resume(ResumePolicy::FromScratch),
            );
            let mean = |searcher: &Searcher, seed_base: u64| {
                let total: f64 = (0..SIMS as u64)
                    .map(|k| {
                        let mut rng = StdRng::seed_from_u64(seed_base + i as u64 + k);
                        let scheduler = searcher.build(bench.space());
                        metric(&sim.run(scheduler, &bench, &mut rng).trace)
                    })
                    .sum();
                total / SIMS as f64
            };
            let (asha, sha) = (mean(&asha, seed_bases[0]), mean(&sha, seed_bases[1]));
            println!("{std:>10.2} {p:>10.4} {asha:>12.1} {sha:>12.1}");
            rows.push(vec![std, p, asha, sha]);
        }
        println!();
    }
    let header = ["train_std", "drop_prob", columns[0], columns[1]];
    if let Err(e) = write_csv(csv, &header, &rows) {
        eprintln!("warning: {e}");
    }
}
