//! Sample-efficiency figure: time-to-target-loss for model-based sampling
//! and delayed promotion on top of asynchronous early stopping.
//!
//! Compares uniform-sampling ASHA against the sampling-plane crosses —
//! ASHA+TPE (A-BOHB-style model-based proposals), D-ASHA (Hyper-Tune's
//! delayed promotion rule), and D-ASHA+TPE — with synchronous SHA and BOHB
//! as the blocking-promotion reference points. The interesting read-out is
//! the `time to reach` table: model-based proposals should reach tight
//! loss targets earlier than uniform sampling at equal parallelism, and
//! delayed promotion should not cost much wall-clock on a clean cluster.

use asha::baselines::{bohb, bohb_asha, dasha_tpe};
use asha::core::{Asha, AshaConfig, ShaConfig, SyncSha};
use asha::space::SearchSpace;
use asha::surrogate::{presets, BenchmarkModel, CurveBenchmark};
use asha_bench::{
    print_comparison, print_time_to_reach, run_experiment_parallel, threads_from_args,
    write_results, ExperimentConfig, MethodSpec,
};

const R: f64 = 256.0;
const ETA: f64 = 4.0;
const WORKERS: usize = 9;
const TRIALS: usize = 10;

fn methods(space: &SearchSpace) -> Vec<MethodSpec> {
    let s1 = space.clone();
    let s2 = space.clone();
    let s3 = space.clone();
    let s4 = space.clone();
    let s5 = space.clone();
    let s6 = space.clone();
    vec![
        MethodSpec::new("ASHA", move || {
            Asha::new(s1.clone(), AshaConfig::new(1.0, R, ETA))
        }),
        MethodSpec::new("ASHA+TPE", move || {
            bohb_asha(s2.clone(), AshaConfig::new(1.0, R, ETA))
        }),
        MethodSpec::new("D-ASHA", move || {
            Asha::new(s3.clone(), AshaConfig::new(1.0, R, ETA).delayed())
        }),
        MethodSpec::new("D-ASHA+TPE", move || {
            dasha_tpe(s4.clone(), AshaConfig::new(1.0, R, ETA))
        }),
        MethodSpec::new("SyncSHA", move || {
            SyncSha::new(s5.clone(), ShaConfig::new(256, 1.0, R, ETA).growing())
        }),
        MethodSpec::new("BOHB", move || {
            bohb(s6.clone(), ShaConfig::new(256, 1.0, R, ETA).growing())
        }),
    ]
}

fn run(bench: &CurveBenchmark, default_loss: f64, thresholds: &[f64], stem: &str) {
    let cfg = ExperimentConfig::new(WORKERS, 600.0, TRIALS, default_loss);
    let results =
        run_experiment_parallel(bench, &methods(bench.space()), &cfg, threads_from_args());
    print_comparison(
        &format!(
            "Sample efficiency — {} ({WORKERS} workers, mean of {TRIALS} trials, test error)",
            bench.name()
        ),
        &results,
        &[50.0, 100.0, 200.0, 300.0, 450.0, 600.0],
    );
    for &threshold in thresholds {
        print_time_to_reach(&results, threshold);
    }
    write_results(stem, &results);
}

fn main() {
    println!("Sample efficiency: model-based sampling and delayed promotion on ASHA...");
    run(
        &presets::cifar10_cuda_convnet(presets::DEFAULT_SURFACE_SEED),
        0.65,
        &[0.25, 0.21],
        "fig_sample_efficiency_bench1",
    );
    run(
        &presets::cifar10_small_cnn(presets::DEFAULT_SURFACE_SEED),
        0.90,
        &[0.26, 0.23],
        "fig_sample_efficiency_bench2",
    );
    println!("\nExpected shape: the TPE crosses reach tight targets at or before uniform");
    println!("ASHA; D-ASHA tracks ASHA closely (delayed promotion trades a little");
    println!("wall-clock for strictly top-1/eta promotions); SyncSHA/BOHB trail on");
    println!("time-to-target because promotions block on full rungs.");
}
