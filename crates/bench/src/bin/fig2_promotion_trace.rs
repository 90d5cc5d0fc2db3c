//! Figure 2: chronological job traces of synchronous SHA vs ASHA on
//! bracket 0 of the toy setting (r = 1, R = 9, η = 3), run on a single
//! worker with deterministic losses (configuration `i` has loss `i`; lower
//! is better, so configurations 0, 1, 2 are the promotion-worthy ones).
//! Takes no arguments: any is a usage error (exit 2).

use asha::core::{AshaConfig, BracketLoopConfig, Decision, Observation, Scheduler};
use asha::space::{Scale, SearchSpace};
use asha::tune::Searcher;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn toy_space() -> SearchSpace {
    SearchSpace::builder()
        .continuous("x", 0.0, 1.0, Scale::Linear)
        .build()
        .expect("valid space")
}

/// Run a method serially, completing each job immediately with loss =
/// trial id, and return the chronological (trial, rung, budget) list.
fn serial_trace(searcher: Searcher, max_jobs: usize) -> Vec<(u64, usize, f64)> {
    let mut scheduler = searcher.build(&toy_space());
    let mut rng = StdRng::seed_from_u64(0);
    let mut out = Vec::new();
    while out.len() < max_jobs {
        match scheduler.suggest(&mut rng) {
            Decision::Run(job) => {
                out.push((job.trial.0, job.rung, job.resource));
                scheduler.observe(Observation::for_job(&job, job.trial.0 as f64));
            }
            Decision::Finished => break,
            Decision::Wait => unreachable!("single worker never waits"),
        }
    }
    out
}

fn print_trace(title: &str, trace: &[(u64, usize, f64)]) {
    println!("\n{title}");
    println!("{:>5} {:>8} {:>6} {:>8}", "job", "config", "rung", "budget");
    for (i, (trial, rung, budget)) in trace.iter().enumerate() {
        println!("{:>5} {:>8} {:>6} {:>8}", i + 1, trial, rung, budget);
    }
}

fn main() {
    asha_bench::cli::Cli::no_args("fig2_promotion_trace").parse();
    println!("Figure 2: promotion schemes of SHA vs ASHA (bracket 0, r=1, R=9, eta=3)");

    let sha_trace = serial_trace(
        Searcher::bracket_loop(BracketLoopConfig::sha(9, 1.0, 9.0, 3.0)),
        13,
    );
    print_trace("Successive Halving (Synchronous):", &sha_trace);

    let asha_trace = serial_trace(Searcher::asha(AshaConfig::new(1.0, 9.0, 3.0)), 13);
    print_trace("Successive Halving (Asynchronous):", &asha_trace);

    // The structural claims of the figure, checked programmatically.
    let sha_first_promo = sha_trace.iter().position(|&(_, rung, _)| rung == 1);
    let asha_first_promo = asha_trace.iter().position(|&(_, rung, _)| rung == 1);
    println!(
        "\nSHA first promotion at job {} (after the whole rung of 9); \
         ASHA at job {} (as soon as eta configs have completed).",
        sha_first_promo.map_or(0, |i| i + 1),
        asha_first_promo.map_or(0, |i| i + 1)
    );
    assert_eq!(sha_first_promo, Some(9));
    assert_eq!(asha_first_promo, Some(3));
    println!("ASHA keeps each rung at ~1/eta of the rung below while growing the bottom rung.");
}
