//! Figure 8 (Appendix A.1): the time until the *first* configuration is
//! trained for the maximum resource R, under stragglers and dropped jobs —
//! ASHA vs synchronous SHA on the simulated workload of Figure 7.
//!
//! Runs that fail to produce a full-budget configuration within the 2000
//! time-unit horizon are reported at the horizon (matching the flat-topped
//! curves of the paper's plot).
//! Takes no arguments: any is a usage error (exit 2).

use asha_bench::outln;
use asha_bench::sweep::{self, HORIZON, R};

fn main() {
    asha_bench::cli::Cli::no_args("fig8_time_to_first").parse();
    sweep::run(
        "Figure 8: time until the first configuration trained for R",
        &[0.0, 0.33, 0.67, 1.0, 1.33, 1.67],
        &[0.0, 1e-3, 2e-3, 3e-3],
        [3000, 4000],
        |trace| trace.first_time_trained_to(R).unwrap_or(HORIZON),
        "results/fig8_time_to_first.csv",
        ["asha_first_time", "sha_first_time"],
    );
    outln!("Expected shape (paper): ASHA reaches a fully-trained configuration much sooner,");
    outln!("and degrades gracefully where SHA's time blows up toward the horizon.");
}
