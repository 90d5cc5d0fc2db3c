//! Figure 1 (right): the SHA promotion scheme for n = 9, r = 1, R = 9,
//! η = 3, for brackets s = 0, 1, 2 — plus the Section 3.1/3.2 wall-clock
//! facts and the paper-experiment-scale table (n = 256, η = 4).
//! Takes no arguments: any is a usage error (exit 2).

use asha::core::budget;

fn print_bracket(n: usize, r: f64, max_r: f64, eta: f64, s: usize) {
    let rows = budget::promotion_table(n, r, max_r, eta, s);
    for row in &rows {
        println!(
            "{s:>8} {:>6} {:>6} {:>10} {:>14}",
            row.rung, row.num_configs, row.resource, row.budget
        );
    }
    println!(
        "{:>8} {:>6} {:>6} {:>10} {:>14.0}  (bracket total)",
        "",
        "",
        "",
        "",
        budget::bracket_budget(n, r, max_r, eta, s)
    );
}

fn main() {
    asha_bench::cli::Cli::no_args("fig1_promotion_table").parse();
    println!("Figure 1 (right): promotion scheme for n=9, r=1, R=9, eta=3");
    println!(
        "{:>8} {:>6} {:>6} {:>10} {:>14}",
        "bracket", "rung", "n_i", "r_i", "budget"
    );
    for s in 0..=2 {
        print_bracket(9, 1.0, 9.0, 3.0, s);
    }

    println!("\nSection 3.1/3.2 wall-clock facts (units of time(R)):");
    println!(
        "  synchronous SHA time to a fully-trained config (bracket 0): {}",
        budget::sha_time_to_completion(1.0, 9.0, 3.0, 0)
    );
    println!(
        "  ASHA time with {} machines: {:.4} (= 13/9)",
        budget::asha_workers_for_full_throughput(1.0, 9.0, 3.0, 0),
        budget::asha_time_to_completion(1.0, 9.0, 3.0, 0)
    );
    for (r, max_r, eta, label) in [
        (1.0, 256.0, 4.0, "paper experiments (R/r=256, eta=4)"),
        (1.0, 1024.0, 2.0, "eta=2 stress"),
    ] {
        println!(
            "  ASHA bound check [{label}]: {:.4} <= 2",
            budget::asha_time_to_completion(r, max_r, eta, 0)
        );
    }

    println!("\nSections 4.1-4.2 scale: promotion scheme for n=256, r=1, R=256, eta=4");
    println!(
        "{:>8} {:>6} {:>6} {:>10} {:>14}",
        "bracket", "rung", "n_i", "r_i", "budget"
    );
    print_bracket(256, 1.0, 256.0, 4.0, 0);
}
