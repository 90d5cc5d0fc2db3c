//! Figure 7 (Appendix A.1): the number of configurations trained to the
//! maximum resource R within 2000 time units, as drop probability and
//! straggler variance grow — ASHA vs synchronous SHA, simulated workloads
//! (settings in [`asha_bench::sweep`]).
//! Takes no arguments: any is a usage error (exit 2).

use asha_bench::sweep::{self, HORIZON, R};

fn main() {
    asha_bench::cli::Cli::no_args("fig7_stragglers").parse();
    sweep::run(
        &format!("Figure 7: configs trained to R within {HORIZON} time units"),
        &[0.10, 0.24, 0.56, 1.33],
        &[0.0, 2e-3, 4e-3, 6e-3, 8e-3, 1e-2],
        [1000, 2000],
        |trace| trace.configs_trained_to(R, HORIZON) as f64,
        "results/fig7_stragglers.csv",
        ["asha_configs_at_r", "sha_configs_at_r"],
    );
    println!("Expected shape (paper): ASHA trains many more configurations to R, and its");
    println!("advantage grows with straggler variance and drop probability.");
}
