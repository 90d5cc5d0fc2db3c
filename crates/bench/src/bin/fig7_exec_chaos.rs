//! Figure 7's robustness story on the *real* executor: ASHA vs synchronous
//! SHA as fault rates grow, with faults injected deterministically by
//! [`asha::exec::ChaosObjective`] instead of simulated drops.
//!
//! Each cell runs the multi-threaded [`ParallelTuner`] over a cheap
//! closed-form objective wrapped in chaos: jobs panic (poisoning the trial),
//! drop their results (retried from checkpoint), or report NaN losses
//! (sanitized to `INFINITY`) at the swept rate. The metric mirrors Appendix
//! A.1: configurations trained to the full resource R, plus the fault tally
//! the executor survived.

use asha::core::{AshaConfig, ShaConfig};
use asha::exec::{
    install_quiet_panic_hook, ChaosConfig, ChaosObjective, Evaluation, ExecConfig, FaultPolicy,
    FnObjective, ParallelTuner,
};
use asha::metrics::{write_csv, FaultStats};
use asha::space::{Config, ParamValue, Scale, SearchSpace};
use asha::tune::Searcher;

const R: f64 = 256.0;
const ETA: f64 = 4.0;
const N: usize = 256;
const WORKERS: usize = 8;
const RUNS: usize = 3;

fn space() -> SearchSpace {
    SearchSpace::builder()
        .continuous("x", 0.0, 1.0, Scale::Linear)
        .build()
        .expect("valid space")
}

/// Closed-form objective: instant to evaluate, improves with resource, so
/// the sweep measures fault handling rather than training time.
fn objective() -> impl asha::exec::Objective<Checkpoint = f64> {
    FnObjective::new(|config: &Config, resource: f64, _ckpt: Option<f64>| {
        let x = match config.values()[0] {
            ParamValue::Float(v) => v,
            _ => unreachable!("space is continuous"),
        };
        let loss = (x - 0.3).abs() + 1.0 / (1.0 + resource);
        (Evaluation::of(loss), resource)
    })
}

struct Cell {
    configs_at_r: usize,
    best: f64,
    faults: FaultStats,
}

fn run_cell(searcher: Searcher, rate: f64, seed_base: u64) -> Cell {
    let space = space();
    let mut configs_at_r = 0usize;
    let mut best = f64::INFINITY;
    let mut faults = FaultStats::none();
    for run in 0..RUNS {
        let chaos = ChaosObjective::new(
            objective(),
            ChaosConfig::new(seed_base + run as u64)
                .with_panics(rate)
                .with_drops(rate)
                .with_nan_losses(rate / 2.0),
        );
        let exec =
            ExecConfig::new(WORKERS).with_fault_policy(FaultPolicy::default().with_max_retries(2));
        let result =
            ParallelTuner::new(exec).run(searcher.build(&space), &chaos, seed_base + run as u64);
        configs_at_r += result.trace.configs_trained_to(R, f64::INFINITY);
        if let Some((_, loss)) = result.best {
            best = best.min(loss);
        }
        faults = faults.merge(&result.faults);
    }
    Cell {
        configs_at_r,
        best,
        faults,
    }
}

fn main() {
    install_quiet_panic_hook();
    println!(
        "Executor chaos sweep: configs trained to R = {R} over {RUNS} runs/cell ({WORKERS} workers)"
    );
    let rates = [0.0, 0.02, 0.05, 0.1, 0.2];
    let mut rows = Vec::new();
    println!(
        "{:>10} {:>10} {:>12} {:>10} {:>12} {:>10}",
        "rate", "ASHA@R", "ASHA best", "SHA@R", "SHA best", "faults"
    );
    for (i, &rate) in rates.iter().enumerate() {
        let asha = run_cell(
            Searcher::asha(AshaConfig::new(1.0, R, ETA).with_max_trials(N)),
            rate,
            1000 + i as u64,
        );
        let sha = run_cell(
            Searcher::sha(ShaConfig::new(N, 1.0, R, ETA)),
            rate,
            2000 + i as u64,
        );
        let total_faults = asha.faults.total() + sha.faults.total();
        println!(
            "{rate:>10.2} {:>10} {:>12.4} {:>10} {:>12.4} {total_faults:>10}",
            asha.configs_at_r, asha.best, sha.configs_at_r, sha.best
        );
        rows.push(vec![
            rate,
            asha.configs_at_r as f64,
            asha.best,
            asha.faults.jobs_poisoned as f64,
            sha.configs_at_r as f64,
            sha.best,
            sha.faults.jobs_poisoned as f64,
        ]);
    }
    if let Err(e) = write_csv(
        "results/fig7_exec_chaos.csv",
        &[
            "chaos_rate",
            "asha_configs_at_r",
            "asha_best",
            "asha_poisoned",
            "sha_configs_at_r",
            "sha_best",
            "sha_poisoned",
        ],
        &rows,
    ) {
        eprintln!("warning: {e}");
    }
    println!("\nExpected shape: both finish every sweep cell (faults never kill the pool);");
    println!("ASHA keeps pushing survivors to R as rates grow, while the synchronous");
    println!("barrier stalls brackets whose rungs collect poisoned trials.");
}
