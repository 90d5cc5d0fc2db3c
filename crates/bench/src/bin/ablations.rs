//! Ablation studies of the design choices DESIGN.md calls out:
//!
//! 1. **Promotion scan order** — Algorithm 2's top-down scan vs a bottom-up
//!    alternative (which keeps lower rungs flowing but delays full-budget
//!    results).
//! 2. **Resume policy** — checkpointed promotions (Section 3.2's iterative
//!    setting) vs retraining from scratch at every rung.
//! 3. **Early-stopping rate `s`** — the paper argues aggressive early
//!    stopping (`s = 0`) works best (Section 2's discussion of Li et al.
//!    2018); this sweeps `s = 0..=3` on benchmark 2.
//! 4. **Reduction factor `eta`** — 2 vs 4 vs 8 on the same budget.

use asha::core::{AshaConfig, ScanOrder};
use asha::sim::{ClusterSim, ResumePolicy, SimConfig};
use asha::surrogate::{presets, BenchmarkModel};
use asha::tune::Searcher;
use asha_bench::{
    print_comparison, run_experiment_parallel, threads_from_args, ExperimentConfig, MethodSpec,
};
use rand::SeedableRng;

const R: f64 = 256.0;

fn asha(eta: f64) -> AshaConfig {
    AshaConfig::new(1.0, R, eta)
}

fn main() {
    let bench = presets::cifar10_small_cnn(presets::DEFAULT_SURFACE_SEED);
    let threads = threads_from_args();
    let cfg = ExperimentConfig::new(25, 150.0, 5, 0.9);
    let compare = |title: &str, methods: Vec<MethodSpec>| {
        let results = run_experiment_parallel(&bench, &methods, &cfg, threads);
        print_comparison(title, &results, &[25.0, 50.0, 100.0, 150.0]);
    };

    // 1. Scan order.
    compare(
        "Ablation 1 — promotion scan order (benchmark 2, 25 workers)",
        vec![
            MethodSpec::new("top-down (paper)", Searcher::asha(asha(4.0))),
            MethodSpec::new(
                "bottom-up",
                Searcher::asha(asha(4.0).with_scan_order(ScanOrder::BottomUp)),
            ),
        ],
    );

    // 2. Resume policy.
    let methods = vec![MethodSpec::new("ASHA", Searcher::asha(asha(4.0)))];
    let mut ckpt_cfg = cfg.clone();
    ckpt_cfg.sim_tweak = |c: SimConfig| c.with_resume(ResumePolicy::Checkpoint);
    let mut scratch_cfg = cfg.clone();
    scratch_cfg.sim_tweak = |c: SimConfig| c.with_resume(ResumePolicy::FromScratch);
    let ckpt = run_experiment_parallel(&bench, &methods, &ckpt_cfg, threads);
    let scratch = run_experiment_parallel(&bench, &methods, &scratch_cfg, threads);
    println!("\n== Ablation 2 — resume policy (benchmark 2, 25 workers) ==");
    println!("{:>22} {:>14} {:>14}", "", "checkpoint", "from-scratch");
    println!(
        "{:>22} {:>14.4} {:>14.4}",
        "final mean test error",
        ckpt[0].aggregate.final_mean(),
        scratch[0].aggregate.final_mean()
    );
    println!(
        "{:>22} {:>14.0} {:>14.0}",
        "configs/trial", ckpt[0].mean_configs, scratch[0].mean_configs
    );

    // 3. Early-stopping rate s.
    compare(
        "Ablation 3 — early-stopping rate (benchmark 2, 25 workers)",
        (0..=3)
            .map(|s| {
                MethodSpec::new(
                    &format!("s = {s}"),
                    Searcher::asha(asha(4.0).with_stop_rate(s)),
                )
            })
            .collect(),
    );

    // 4. Reduction factor eta.
    compare(
        "Ablation 4 — reduction factor (benchmark 2, 25 workers)",
        [2.0, 4.0, 8.0]
            .iter()
            .map(|&eta| MethodSpec::new(&format!("eta = {eta}"), Searcher::asha(asha(eta))))
            .collect(),
    );

    // 5. Incumbent accounting (Section 3.3): intermediate losses vs
    //    final-rung-only outputs.
    let scheduler = Searcher::asha(asha(4.0)).build(bench.space());
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let result = ClusterSim::new(SimConfig::new(25, 150.0)).run(scheduler, &bench, &mut rng);
    let by_any = result.trace.incumbent_curve();
    let final_only = result.trace.incumbent_curve_final_only(R);
    println!("\n== Ablation 5 — incumbent accounting (Section 3.3) ==");
    println!(
        "{:>8} {:>22} {:>22}",
        "time", "intermediate losses", "final-rung only"
    );
    for t in [15.0, 30.0, 60.0, 100.0, 150.0] {
        println!(
            "{t:>8.0} {:>22.4} {:>22.4}",
            by_any.eval_or(t, f64::NAN),
            final_only.eval_or(t, f64::NAN)
        );
    }

    println!("\nExpected: top-down ≈ bottom-up early but top-down reaches full-budget configs");
    println!("sooner; checkpointing beats from-scratch; aggressive early stopping (s = 0) and");
    println!("eta = 4 are solid defaults, as the paper argues.");
}
