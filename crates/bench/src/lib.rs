//! Shared harness for the paper-reproduction experiment binaries.
//!
//! Most figures follow one recipe: pick a surrogate benchmark, define the
//! competing methods, run repeated simulated trials, aggregate incumbent
//! curves, print a compact table, and drop CSVs under `results/`. This crate
//! hosts that recipe; the figures that are nothing but the recipe with
//! different constants are rows of [`FIGURES`], run by the `figures` binary,
//! and the bespoke ones (`fig1_promotion_table`, `fig9_fabolas`, …) keep a
//! binary each.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod figures;
pub mod sweep;

pub use figures::{Figure, Panel, FIGURES};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use asha::tune::Searcher;
use asha_metrics::{aggregate, uniform_grid, AggregateCurve, StepCurve};
use asha_sim::{ClusterSim, SimConfig};
use asha_surrogate::BenchmarkModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A named method: what a figure calls it and the [`Searcher`] value that
/// builds a fresh scheduler for every trial.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodSpec {
    /// Display name used in tables and CSV files.
    pub name: String,
    /// The method itself.
    pub searcher: Searcher,
}

impl MethodSpec {
    /// Convenience constructor.
    pub fn new(name: &str, searcher: Searcher) -> Self {
        MethodSpec {
            name: name.to_owned(),
            searcher,
        }
    }
}

/// One experiment's execution parameters.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Worker count of the simulated cluster.
    pub workers: usize,
    /// Simulated-time horizon.
    pub horizon: f64,
    /// Number of repeated trials per method.
    pub trials: usize,
    /// Points on the shared aggregation grid.
    pub grid_points: usize,
    /// Loss plotted before any result exists (the top of the paper's axes).
    pub default_loss: f64,
    /// Base RNG seed; trial `t` of any method uses `base_seed + t`.
    pub base_seed: u64,
    /// Extra simulator knobs applied to every run.
    pub sim_tweak: fn(SimConfig) -> SimConfig,
}

impl ExperimentConfig {
    /// A clean cluster (no stragglers or drops) with 200 grid points.
    pub fn new(workers: usize, horizon: f64, trials: usize, default_loss: f64) -> Self {
        ExperimentConfig {
            workers,
            horizon,
            trials,
            grid_points: 200,
            default_loss,
            base_seed: 42,
            sim_tweak: |c| c,
        }
    }
}

/// Result of running one method across trials.
pub struct MethodResult {
    /// Method display name.
    pub name: String,
    /// Per-trial incumbent (test-loss) curves.
    pub curves: Vec<StepCurve>,
    /// Aggregated envelope on the shared grid.
    pub aggregate: AggregateCurve,
    /// Mean jobs completed per trial.
    pub mean_jobs: f64,
    /// Mean distinct configurations evaluated per trial.
    pub mean_configs: f64,
}

/// Output of one (method, trial) cell — the unit of work both runners share.
struct CellOutcome {
    curve: StepCurve,
    jobs: usize,
    configs: usize,
}

/// Run trial `t` of one method: the exact recipe both the sequential and the
/// parallel runner execute, so their outputs are identical by construction.
fn run_cell(
    bench: &dyn BenchmarkModel,
    method: &MethodSpec,
    cfg: &ExperimentConfig,
    t: usize,
) -> CellOutcome {
    let mut rng = StdRng::seed_from_u64(cfg.base_seed + t as u64);
    let scheduler = method.searcher.build(bench.space());
    let sim = ClusterSim::new((cfg.sim_tweak)(SimConfig::new(cfg.workers, cfg.horizon)));
    let result = sim.run(scheduler, bench, &mut rng);
    CellOutcome {
        curve: result.trace.incumbent_curve(),
        jobs: result.jobs_completed,
        configs: result.distinct_trials,
    }
}

/// Fold one method's per-trial outcomes (in trial order) into a
/// [`MethodResult`].
fn assemble_method(
    name: &str,
    outcomes: Vec<CellOutcome>,
    cfg: &ExperimentConfig,
    grid: &[f64],
) -> MethodResult {
    let mut curves = Vec::with_capacity(outcomes.len());
    let mut jobs = 0usize;
    let mut configs = 0usize;
    for outcome in outcomes {
        jobs += outcome.jobs;
        configs += outcome.configs;
        curves.push(outcome.curve);
    }
    let agg = aggregate(&curves, grid, cfg.default_loss);
    MethodResult {
        name: name.to_owned(),
        curves,
        aggregate: agg,
        mean_jobs: jobs as f64 / cfg.trials as f64,
        mean_configs: configs as f64 / cfg.trials as f64,
    }
}

/// Run every method for `cfg.trials` trials on `bench` and aggregate,
/// sequentially on the calling thread.
pub fn run_experiment(
    bench: &dyn BenchmarkModel,
    methods: &[MethodSpec],
    cfg: &ExperimentConfig,
) -> Vec<MethodResult> {
    let grid = uniform_grid(cfg.horizon, cfg.grid_points);
    methods
        .iter()
        .map(|m| {
            let outcomes = (0..cfg.trials)
                .map(|t| run_cell(bench, m, cfg, t))
                .collect();
            assemble_method(&m.name, outcomes, cfg, &grid)
        })
        .collect()
}

/// Run every method for `cfg.trials` trials on `bench` and aggregate, on
/// `threads` worker threads (`0` = one per available hardware thread). Same
/// contract and output as [`run_experiment`]; only wall-clock differs.
///
/// Every (method, trial) cell of an experiment is independent: trial `t` of
/// any method always seeds its own `StdRng` with `base_seed + t`, and the
/// simulator is deterministic given that stream. The cells are therefore
/// fanned across scoped worker threads with a shared atomic cursor, each
/// outcome is stored in its cell's slot (indexed by cell, never by arrival),
/// and per-method results are assembled in trial order afterwards —
/// producing **bitwise-identical** output to [`run_experiment`] for any
/// thread count and any completion order.
pub fn run_experiment_parallel(
    bench: &dyn BenchmarkModel,
    methods: &[MethodSpec],
    cfg: &ExperimentConfig,
    threads: usize,
) -> Vec<MethodResult> {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        threads
    };
    let grid = uniform_grid(cfg.horizon, cfg.grid_points);
    let cells = methods.len() * cfg.trials;
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<CellOutcome>>> = (0..cells).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(cells.max(1)) {
            scope.spawn(|| loop {
                let cell = next.fetch_add(1, Ordering::Relaxed);
                if cell >= cells {
                    break;
                }
                let (m, t) = (cell / cfg.trials, cell % cfg.trials);
                let outcome = run_cell(bench, &methods[m], cfg, t);
                *slots[cell].lock().expect("cell slot poisoned") = Some(outcome);
            });
        }
    });
    let mut slots = slots.into_iter();
    methods
        .iter()
        .map(|m| {
            let outcomes = (0..cfg.trials)
                .map(|_| {
                    slots
                        .next()
                        .expect("one slot per cell")
                        .into_inner()
                        .expect("cell slot poisoned")
                        .expect("every cell was computed")
                })
                .collect();
            assemble_method(&m.name, outcomes, cfg, &grid)
        })
        .collect()
}

/// Thread-count knob shared by the experiment binaries: `--threads N` (or
/// `--threads=N`) on the command line, else the `ASHA_THREADS` environment
/// variable, else `0` (one thread per core — [`run_experiment_parallel`]
/// resolves it).
pub fn threads_from_args() -> usize {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == "--threads" {
            if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                return n;
            }
        } else if let Some(rest) = arg.strip_prefix("--threads=") {
            if let Ok(n) = rest.parse() {
                return n;
            }
        }
    }
    std::env::var("ASHA_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Print a fixed-width comparison table: one row per sampled time, one
/// column per method (mean incumbent loss).
pub fn print_comparison(title: &str, results: &[MethodResult], sample_times: &[f64]) {
    println!("\n== {title} ==");
    print!("{:>12}", "time");
    for r in results {
        print!("{:>18}", r.name);
    }
    println!();
    for &t in sample_times {
        print!("{t:>12.1}");
        for r in results {
            let idx = nearest_grid_index(&r.aggregate.grid, t);
            print!("{:>18.4}", r.aggregate.mean[idx]);
        }
        println!();
    }
    print!("{:>12}", "final");
    for r in results {
        print!("{:>18.4}", r.aggregate.final_mean());
    }
    println!();
    print!("{:>12}", "jobs/trial");
    for r in results {
        print!("{:>18.0}", r.mean_jobs);
    }
    println!();
    print!("{:>12}", "configs");
    for r in results {
        print!("{:>18.0}", r.mean_configs);
    }
    println!();
}

/// Print "time to reach threshold" per method — the paper's headline
/// comparisons ("ASHA finds a configuration below X in Y minutes").
pub fn print_time_to_reach(results: &[MethodResult], threshold: f64) {
    println!("\n-- time to reach mean loss <= {threshold} --");
    for r in results {
        match r.aggregate.time_to_reach(threshold) {
            Some(t) => println!("{:>20}: {t:.1}", r.name),
            None => println!("{:>20}: not reached", r.name),
        }
    }
}

/// Write every method's aggregate to `results/<file_stem>_<method>.csv`.
pub fn write_results(file_stem: &str, results: &[MethodResult]) {
    write_results_to("results", file_stem, results);
}

/// Write every method's aggregate to `<dir>/<file_stem>_<method>.csv` —
/// same format as [`write_results`] with an explicit output directory.
pub fn write_results_to(
    dir: impl AsRef<std::path::Path>,
    file_stem: &str,
    results: &[MethodResult],
) {
    for r in results {
        let rows: Vec<Vec<f64>> = r
            .aggregate
            .grid
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                vec![
                    t,
                    r.aggregate.mean[i],
                    r.aggregate.q25[i],
                    r.aggregate.q75[i],
                    r.aggregate.min[i],
                    r.aggregate.max[i],
                ]
            })
            .collect();
        let slug: String = r
            .name
            .chars()
            .map(|c| {
                if c.is_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect();
        let path = dir.as_ref().join(format!("{file_stem}_{slug}.csv"));
        if let Err(e) =
            asha_metrics::write_csv(&path, &["time", "mean", "q25", "q75", "min", "max"], &rows)
        {
            eprintln!("warning: {e}");
        }
    }
}

fn nearest_grid_index(grid: &[f64], t: f64) -> usize {
    grid.iter()
        .enumerate()
        .min_by(|a, b| {
            (a.1 - t)
                .abs()
                .partial_cmp(&(b.1 - t).abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asha_core::AshaConfig;
    use asha_surrogate::presets;

    #[test]
    fn harness_runs_and_orders_methods_sensibly() {
        let bench = presets::cifar10_cuda_convnet(2020);
        let methods = vec![
            MethodSpec::new("ASHA", Searcher::asha(AshaConfig::new(1.0, 256.0, 4.0))),
            MethodSpec::new(
                "Random",
                Searcher::Random {
                    max_resource: 256.0,
                },
            ),
        ];
        let cfg = ExperimentConfig::new(9, 120.0, 2, 0.9);
        let results = run_experiment(&bench, &methods, &cfg);
        assert_eq!(results.len(), 2);
        // ASHA must evaluate far more configurations than random search in
        // the same budget, and end at least as good on average.
        assert!(results[0].mean_configs > results[1].mean_configs * 2.0);
        assert!(results[0].aggregate.final_mean() <= results[1].aggregate.final_mean() + 0.02);
    }

    #[test]
    fn nearest_grid_index_picks_closest() {
        let grid = [0.0, 1.0, 2.0];
        assert_eq!(nearest_grid_index(&grid, 0.4), 0);
        assert_eq!(nearest_grid_index(&grid, 0.6), 1);
        assert_eq!(nearest_grid_index(&grid, 99.0), 2);
    }
}
