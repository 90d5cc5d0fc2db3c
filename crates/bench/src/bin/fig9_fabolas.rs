//! Figure 9 (Appendix A.2): the sequential comparison with Fabolas on four
//! tasks — SVM on `vehicle`, SVM on MNIST, the cuda-convnet CIFAR-10 model,
//! and the small-CNN SVHN task. Hyperband is evaluated under both incumbent
//! accountings: "by rung" (using intermediate losses, as ASHA does) and "by
//! bracket" (only at bracket completions, as Klein et al. evaluated it).
//! Takes no arguments: any is a usage error (exit 2).

use asha::baselines::FabolasConfig;
use asha::core::BracketLoopConfig;
use asha::metrics::{aggregate, uniform_grid, write_csv, AggregateCurve, RunTrace, StepCurve};
use asha::sim::{ClusterSim, SimConfig};
use asha::surrogate::{presets, BenchmarkModel, CurveBenchmark};
use asha::tune::Searcher;
use rand::rngs::StdRng;
use rand::SeedableRng;

const TRIALS: usize = 10;
const ETA: f64 = 4.0;

/// The traces of `TRIALS` sequential runs; trial `t` is seeded `seed_base + t`.
fn traces(
    searcher: &Searcher,
    bench: &CurveBenchmark,
    horizon: f64,
    seed_base: u64,
) -> Vec<RunTrace> {
    let sim = ClusterSim::new(SimConfig::new(1, horizon));
    (0..TRIALS as u64)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(seed_base + t);
            sim.run(searcher.build(bench.space()), bench, &mut rng)
                .trace
        })
        .collect()
}

fn run_task(bench: &CurveBenchmark, horizon: f64, default_loss: f64, stem: &str) {
    let grid = uniform_grid(horizon, 160);
    let max_r = bench.max_resource();

    // Hyperband: one set of runs, two accountings.
    let hyperband = Searcher::bracket_loop(BracketLoopConfig::hyperband(max_r / 64.0, max_r, ETA));
    let hyperband = traces(&hyperband, bench, horizon, 100);
    let fabolas = Searcher::Fabolas(FabolasConfig::new(max_r));
    let fabolas = traces(&fabolas, bench, horizon, 200);
    let random = Searcher::random(max_r);
    let random = traces(&random, bench, horizon, 300);

    let by_rung = RunTrace::incumbent_curve as fn(&RunTrace) -> StepCurve;
    let series = [
        ("Hyperband (by rung)", &hyperband, by_rung),
        (
            "Hyperband (by bracket)",
            &hyperband,
            RunTrace::incumbent_curve_by_bracket,
        ),
        ("Fabolas", &fabolas, by_rung),
        ("Random", &random, by_rung),
    ]
    .map(|(name, traces, curve)| {
        let curves: Vec<_> = traces.iter().map(curve).collect();
        (name, aggregate(&curves, &grid, default_loss))
    });

    println!(
        "\n== Figure 9 — {} (1 worker, mean of {TRIALS} trials, test error) ==",
        bench.name()
    );
    print!("{:>10}", "time");
    for (name, _) in &series {
        print!("{name:>24}");
    }
    println!();
    for frac in [0.1, 0.25, 0.5, 0.75, 1.0] {
        let t = horizon * frac;
        let idx = grid.iter().position(|&g| g >= t).unwrap_or(grid.len() - 1);
        print!("{t:>10.0}");
        for (_, agg) in &series {
            print!("{:>24.4}", agg.mean[idx]);
        }
        println!();
    }
    // Variance comparison the paper highlights: Hyperband (by rung) should
    // show a tighter final spread than Fabolas.
    let spread = |agg: &AggregateCurve| agg.max.last().unwrap() - agg.min.last().unwrap();
    println!(
        "final spread (max-min): by-rung {:.4}, fabolas {:.4}",
        spread(&series[0].1),
        spread(&series[2].1)
    );

    let rows: Vec<Vec<f64>> = (0..grid.len())
        .map(|i| {
            let means = series.iter().map(|(_, agg)| agg.mean[i]);
            std::iter::once(grid[i]).chain(means).collect()
        })
        .collect();
    if let Err(e) = write_csv(
        format!("results/{stem}.csv"),
        &["time", "hb_by_rung", "hb_by_bracket", "fabolas", "random"],
        &rows,
    ) {
        eprintln!("warning: {e}");
    }
}

fn main() {
    asha_bench::cli::Cli::no_args("fig9_fabolas").parse();
    println!("Figure 9: sequential Fabolas comparison on four tasks...");
    let seed = presets::DEFAULT_SURFACE_SEED;
    run_task(&presets::svm_vehicle(seed), 800.0, 0.75, "fig9_svm_vehicle");
    run_task(&presets::svm_mnist(seed), 800.0, 0.90, "fig9_svm_mnist");
    run_task(
        &presets::cifar10_cuda_convnet(seed),
        2500.0,
        0.65,
        "fig9_cifar10_convnet",
    );
    run_task(&presets::svhn_small_cnn(seed), 2500.0, 0.85, "fig9_svhn");
    println!("\nExpected shape (paper): Hyperband (by rung) is competitive with or better than");
    println!("Fabolas, with lower variance; Hyperband (by bracket) lags until bracket 0 ends.");
}
