//! The figures that are one recipe with different constants, as data: each
//! row of [`FIGURES`] names its benchmark panels, methods, cluster shape and
//! read-outs, and [`Figure::run`] is the recipe. Anything that wants a
//! figure's scenario without its printing (other seeds, more trials) starts
//! from [`Figure::config`] and [`Figure::methods`].

use asha::tune::Searcher;
use asha_baselines::{GpSamplerConfig, PbtConfig};
use asha_core::{AshaConfig, BracketLoopConfig};
use asha_sim::SimConfig;
use asha_space::SearchSpace;
use asha_surrogate::{presets, BenchmarkModel, CurveBenchmark};

use crate::{
    print_comparison, print_time_to_reach, run_experiment_parallel, write_results,
    ExperimentConfig, MethodSpec,
};

/// One benchmark a figure runs its methods on.
pub struct Panel {
    /// Surrogate preset, built with [`presets::DEFAULT_SURFACE_SEED`].
    pub bench: fn(u64) -> CurveBenchmark,
    /// Loss plotted before any result exists (the top of the paper's axes).
    pub default_loss: f64,
    /// Mean-loss targets of the "time to reach" read-outs.
    pub thresholds: &'static [f64],
    /// CSV stem: results land in `results/<stem>_<method>.csv`.
    pub stem: &'static str,
}

/// One figure: a row of [`FIGURES`].
pub struct Figure {
    /// Name on the `figures` command line.
    pub name: &'static str,
    /// First line printed.
    pub banner: &'static str,
    /// Table title; `{bench}` stands for the panel's benchmark name.
    pub title: &'static str,
    /// Benchmarks, run in order.
    pub panels: &'static [Panel],
    /// The competing methods over a panel's search space.
    pub methods: fn(&SearchSpace) -> Vec<MethodSpec>,
    /// Simulated workers.
    pub workers: usize,
    /// Simulated-time horizon.
    pub horizon: f64,
    /// Trials per method.
    pub trials: usize,
    /// Points on the aggregation grid.
    pub grid_points: usize,
    /// Times sampled by the comparison table.
    pub sample_times: &'static [f64],
    /// The paper's expected shape, printed last.
    pub expected: &'static str,
}

impl Figure {
    /// The experiment parameters of `panel` under this figure.
    pub fn config(&self, panel: &Panel) -> ExperimentConfig {
        let sim = SimConfig::new(self.workers, self.horizon);
        let mut cfg = ExperimentConfig::new(sim, self.trials, panel.default_loss);
        cfg.grid_points = self.grid_points;
        cfg
    }

    /// Run every panel on `threads` worker threads, print the tables and
    /// write the CSVs.
    pub fn run(&self, threads: usize) {
        println!("{}", self.banner);
        for panel in self.panels {
            let bench = (panel.bench)(presets::DEFAULT_SURFACE_SEED);
            let methods = (self.methods)(bench.space());
            let results = run_experiment_parallel(&bench, &methods, &self.config(panel), threads);
            let title = self.title.replace("{bench}", bench.name());
            print_comparison(&title, &results, self.sample_times);
            for &threshold in panel.thresholds {
                print_time_to_reach(&results, threshold);
            }
            write_results(panel.stem, &results);
        }
        println!("\n{}", self.expected);
    }
}

/// Both CIFAR-10 benchmarks, at the losses the paper's axes start from.
const fn cifar_panels(stems: [&'static str; 2], thresholds: [&'static [f64]; 2]) -> [Panel; 2] {
    [
        Panel {
            bench: presets::cifar10_cuda_convnet,
            default_loss: 0.65,
            thresholds: thresholds[0],
            stem: stems[0],
        },
        Panel {
            bench: presets::cifar10_small_cnn,
            default_loss: 0.90,
            thresholds: thresholds[1],
            stem: stems[1],
        },
    ]
}

const ETA: f64 = 4.0;

/// ASHA at the paper's `r = 1`, `eta = 4`, `s = 0`.
fn asha(max_r: f64) -> AshaConfig {
    AshaConfig::new(1.0, max_r, ETA)
}

/// Synchronous brackets of `n = 256` (Appendix A.3), regrown when done.
fn sha256() -> BracketLoopConfig {
    BracketLoopConfig::sha(256, 1.0, 256.0, ETA).growing()
}

/// Appendix A.3's PBT for the CIFAR-10 tasks: population 25, explore/exploit
/// every 1000 of 30k iterations (≈ R/30), architecture parameters frozen
/// where the space has them.
fn pbt_cifar(space: &SearchSpace) -> Searcher {
    let config = PbtConfig::new(25, 256.0, 256.0 / 30.0).spawning();
    Searcher::Pbt(if space.index_of("n_layers").is_ok() {
        config.with_frozen(&["batch_size", "n_layers", "n_filters"])
    } else {
        config
    })
}

fn fig3_methods(space: &SearchSpace) -> Vec<MethodSpec> {
    let hyperband = BracketLoopConfig::hyperband(1.0, 256.0, ETA);
    let async_hyperband = BracketLoopConfig::async_hyperband(1.0, 256.0, ETA);
    vec![
        MethodSpec::new("SHA", Searcher::bracket_loop(sha256())),
        MethodSpec::new("Hyperband", Searcher::bracket_loop(hyperband)),
        MethodSpec::new("Random", Searcher::random(256.0)),
        MethodSpec::new("PBT", pbt_cifar(space)),
        MethodSpec::new("ASHA", Searcher::asha(asha(256.0))),
        MethodSpec::new("Hyperband (async)", Searcher::bracket_loop(async_hyperband)),
        MethodSpec::new("BOHB", Searcher::bohb(sha256())),
    ]
}

fn fig4_methods(space: &SearchSpace) -> Vec<MethodSpec> {
    vec![
        MethodSpec::new("ASHA", Searcher::asha(asha(256.0))),
        MethodSpec::new("PBT", pbt_cifar(space)),
        MethodSpec::new("SHA", Searcher::bracket_loop(sha256())),
        MethodSpec::new("BOHB", Searcher::bohb(sha256())),
    ]
}

/// Paper settings: R = 64 with r = R/64; asynchronous Hyperband loops
/// brackets s = 0..=3; Vizier runs without early stopping.
fn fig5_methods(_: &SearchSpace) -> Vec<MethodSpec> {
    // Keep the O(n^3) GP affordable at 500-worker scale.
    let sampler = GpSamplerConfig {
        max_model_points: 150,
        candidates: 64,
        refit_every: 16,
        ..GpSamplerConfig::vizier()
    };
    vec![
        MethodSpec::new("ASHA", Searcher::asha(asha(64.0))),
        MethodSpec::new(
            "Hyperband (loop brackets)",
            Searcher::bracket_loop(
                BracketLoopConfig::async_hyperband(1.0, 64.0, ETA).with_brackets(4),
            ),
        ),
        MethodSpec::new(
            "Vizier",
            Searcher::Vizier {
                max_resource: 64.0,
                sampler,
            },
        ),
    ]
}

/// Paper settings: ASHA with r = 1 epoch, R = 256 epochs; PBT with
/// population 20 and explore/exploit every 8 epochs.
fn fig6_methods(_: &SearchSpace) -> Vec<MethodSpec> {
    vec![
        MethodSpec::new(
            "PBT",
            Searcher::Pbt(PbtConfig::new(20, 256.0, 8.0).spawning()),
        ),
        MethodSpec::new("ASHA", Searcher::asha(asha(256.0))),
    ]
}

/// Uniform-sampling ASHA against the sampling-plane crosses — ASHA+TPE
/// (A-BOHB-style proposals), D-ASHA (Hyper-Tune's delayed promotion) and
/// D-ASHA+TPE — with synchronous SHA and BOHB as the blocking-promotion
/// reference points.
fn sample_efficiency_methods(_: &SearchSpace) -> Vec<MethodSpec> {
    vec![
        MethodSpec::new("ASHA", Searcher::asha(asha(256.0))),
        MethodSpec::new("ASHA+TPE", Searcher::asha_tpe(asha(256.0))),
        MethodSpec::new("D-ASHA", Searcher::asha(asha(256.0).delayed())),
        MethodSpec::new("D-ASHA+TPE", Searcher::asha_tpe(asha(256.0).delayed())),
        MethodSpec::new("SyncSHA", Searcher::bracket_loop(sha256())),
        MethodSpec::new("BOHB", Searcher::bohb(sha256())),
    ]
}

/// Every table-driven figure, in paper order.
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "fig3",
        banner: "Figure 3: sequential experiments (this may take a minute)...",
        title: "Figure 3 — {bench} (1 worker, mean of 10 trials, test error)",
        panels: &cifar_panels(["fig3_bench1", "fig3_bench2"], [&[0.21], &[0.23]]),
        methods: fig3_methods,
        workers: 1,
        horizon: 2500.0,
        trials: 10,
        grid_points: 200,
        sample_times: &[250.0, 500.0, 1000.0, 1500.0, 2000.0, 2500.0],
        expected: "Expected shape (paper): SHA-family and BOHB beat PBT by ~3x on benchmark 1;\n\
                   all methods beat Random on benchmark 2 with SHA/ASHA/BOHB/PBT roughly tied.",
    },
    Figure {
        name: "fig4",
        banner: "Figure 4: 25-worker distributed experiments...",
        title: "Figure 4 — {bench} (25 workers, 150 min, mean of 5 trials, test error)",
        panels: &cifar_panels(["fig4_bench1", "fig4_bench2"], [&[0.21], &[0.23]]),
        methods: fig4_methods,
        workers: 25,
        horizon: 150.0,
        trials: 5,
        grid_points: 200,
        sample_times: &[20.0, 40.0, 60.0, 90.0, 120.0, 150.0],
        expected: "Expected shape (paper): ASHA reaches a good config in ≈ time(R);\n\
                   ASHA ≈ 1.5x faster than SHA/BOHB on benchmark 1 and clearly ahead on benchmark 2.",
    },
    // Horizon 6 x time(R): the surrogate's time unit *is* time(R). Observed
    // perplexities are capped at 1000 (the paper's own mitigation).
    Figure {
        name: "fig5",
        banner: "Figure 5: 500-worker PTB LSTM benchmark (this is the heavy one)...",
        title: "Figure 5 — LSTM on PTB (500 workers, units of time(R), perplexity)",
        panels: &[Panel {
            bench: presets::ptb_lstm,
            default_loss: 1000.0,
            thresholds: &[80.0],
            stem: "fig5_ptb",
        }],
        methods: fig5_methods,
        workers: 500,
        horizon: 6.0,
        trials: 5,
        grid_points: 120,
        sample_times: &[0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        expected: "Expected shape (paper): ASHA/async-Hyperband find good configs in ≈ 1 x time(R)\n\
                   and are ≈ 3x faster than Vizier to perplexity 80; async Hyperband lags ASHA early.",
    },
    Figure {
        name: "fig6",
        banner: "Figure 6: 16-worker DropConnect LSTM benchmark...",
        title: "Figure 6 — LSTM with DropConnect on PTB (16 workers, minutes, validation perplexity)",
        panels: &[Panel {
            bench: presets::ptb_dropconnect_lstm,
            default_loss: 110.0,
            thresholds: &[61.0],
            stem: "fig6_dropconnect",
        }],
        methods: fig6_methods,
        workers: 16,
        horizon: 1400.0,
        trials: 5,
        grid_points: 200,
        sample_times: &[100.0, 200.0, 400.0, 600.0, 800.0, 1000.0, 1200.0, 1400.0],
        expected: "Expected shape (paper): PBT leads early; ASHA catches up and finds a better\n\
                   final configuration (non-overlapping min/max ranges at the end).",
    },
    // Not a paper figure; the read-out is the `time to reach` tables.
    Figure {
        name: "fig_sample_efficiency",
        banner: "Sample efficiency: model-based sampling and delayed promotion on ASHA...",
        title: "Sample efficiency — {bench} (9 workers, mean of 10 trials, test error)",
        panels: &cifar_panels(
            ["fig_sample_efficiency_bench1", "fig_sample_efficiency_bench2"],
            [&[0.25, 0.21], &[0.26, 0.23]],
        ),
        methods: sample_efficiency_methods,
        workers: 9,
        horizon: 600.0,
        trials: 10,
        grid_points: 200,
        sample_times: &[50.0, 100.0, 200.0, 300.0, 450.0, 600.0],
        expected: "Expected shape: the TPE crosses reach tight targets at or before uniform\n\
                   ASHA; D-ASHA tracks ASHA closely (delayed promotion trades a little\n\
                   wall-clock for strictly top-1/eta promotions); SyncSHA/BOHB trail on\n\
                   time-to-target because promotions block on full rungs.",
    },
];
