//! Why asynchrony matters: ASHA vs synchronous SHA under stragglers and
//! dropped jobs (a compact version of the paper's Appendix A.1 study).
//!
//! Run with: `cargo run --release --example straggler_robustness`

use asha::core::{Asha, AshaConfig, BracketLoop, BracketLoopConfig};
use asha::sim::{ClusterSim, ResumePolicy, SimConfig};
use asha::space::{Scale, SearchSpace};
use asha::surrogate::{BenchmarkModel, CurveBenchmark};
use rand::SeedableRng;

const R: f64 = 256.0;

fn benchmark() -> CurveBenchmark {
    let space = SearchSpace::builder()
        .continuous("x", 0.0, 1.0, Scale::Linear)
        .build()
        .expect("valid space");
    // Cost = 1 time unit per resource unit, the Appendix A.1 workload.
    CurveBenchmark::builder("unit-cost", space, R, 7)
        .cost(R, &[0.0])
        .build()
}

fn main() {
    let bench = benchmark();
    println!("configs trained to R within 2000 time units (25 workers, mean of 5 sims)\n");
    println!(
        "{:>14} {:>12} {:>10} {:>10}",
        "straggler std", "drop prob", "ASHA", "SHA"
    );
    for (std, p) in [
        (0.0, 0.0),
        (0.5, 0.0),
        (1.5, 0.0),
        (0.0, 2e-3),
        (0.5, 2e-3),
        (1.5, 4e-3),
    ] {
        let mut asha_total = 0usize;
        let mut sha_total = 0usize;
        for seed in 0..5 {
            let sim = ClusterSim::new(
                SimConfig::new(25, 2000.0)
                    .with_stragglers(std)
                    .with_drops(p)
                    .with_resume(ResumePolicy::FromScratch),
            );
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let asha = Asha::new(bench.space().clone(), AshaConfig::new(1.0, R, 4.0));
            asha_total += sim
                .run(asha, &bench, &mut rng)
                .trace
                .configs_trained_to(R, 2000.0);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let sha = BracketLoop::new(
                bench.space().clone(),
                BracketLoopConfig::sha(256, 1.0, R, 4.0).growing(),
            );
            sha_total += sim
                .run(sha, &bench, &mut rng)
                .trace
                .configs_trained_to(R, 2000.0);
        }
        println!(
            "{:>14.2} {:>12.4} {:>10.1} {:>10.1}",
            std,
            p,
            asha_total as f64 / 5.0,
            sha_total as f64 / 5.0
        );
    }
    println!("\nSynchronous SHA stalls behind the slowest job in every rung; ASHA promotes");
    println!("whenever possible, so stragglers and drops cost it far less throughput.");
}
