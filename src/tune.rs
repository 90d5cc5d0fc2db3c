//! High-level tuning front end: pick a searcher by name, point it at a
//! benchmark (simulated) or an objective (real threads), set a budget, run.
//!
//! This is the "system" layer over the algorithmic crates: everything it
//! does can also be done by wiring `asha_core` + `asha_sim`/`asha_exec`
//! together by hand, but downstream users mostly want exactly this:
//!
//! ```
//! use asha::core::AshaConfig;
//! use asha::surrogate::presets;
//! use asha::tune::{Searcher, SimTune};
//!
//! let bench = presets::cifar10_cuda_convnet(presets::DEFAULT_SURFACE_SEED);
//! let outcome = SimTune::new(&bench)
//!     .searcher(Searcher::asha(AshaConfig::new(1.0, 256.0, 4.0)))
//!     .workers(25)
//!     .horizon(60.0)
//!     .seed(7)
//!     .run();
//! let best = outcome.best.expect("jobs completed");
//! println!("best validation loss {:.4}: {}", best.val_loss, best.summary);
//! ```

use asha_baselines::{
    bohb, bohb_asha, vizier, Fabolas, FabolasConfig, GpSamplerConfig, Pbt, PbtConfig,
};
use asha_core::{
    Asha, AshaConfig, BracketLoop, BracketLoopConfig, DurableScheduler, Opening, PromotionRule,
    Scheduler,
};
use asha_metrics::{FaultStats, RunTrace};
use asha_sim::{ClusterSim, SimConfig, SimResult, TraceMode};
use asha_space::{Config, SearchSpace};
use asha_surrogate::BenchmarkModel;
use rand::SeedableRng;

pub use asha_baselines::Sampler;

/// A tuning method as a plain value: the scheduler kind plus that
/// scheduler's own config struct, so anything the underlying crate can
/// express (stop rate, scan order, D-ASHA's `config.rule`, PBT's frozen
/// parameters, …) is expressible here. [`Searcher::build`] is the one place
/// a description becomes a scheduler. The methods with a [`Sampler`] are
/// the persistable ones ([`Searcher::durable`]): one value describes a
/// figure's row, a `DurableRun`'s `meta.json` and a daemon experiment.
#[derive(Debug, Clone, PartialEq)]
pub enum Searcher {
    /// Asynchronous Successive Halving (Algorithm 2); D-ASHA when
    /// `config.rule` is delayed, ASHA+TPE / D-ASHA+TPE under [`Sampler::Tpe`],
    /// and random search on a one-rung ladder ([`Searcher::random`]).
    Asha {
        /// Ladder geometry, stop rate, scan order and promotion rule.
        config: AshaConfig,
        /// Source of new configurations.
        sampler: Sampler,
    },
    /// SHA, Hyperband or asynchronous Hyperband, by `config.opening`; SHA
    /// under [`Sampler::Tpe`] is BOHB.
    BracketLoop {
        /// Ladder geometry and when a bracket opens.
        config: BracketLoopConfig,
        /// Source of new configurations: one shared by a synchronous
        /// loop's brackets, one instance per asynchronous bracket.
        sampler: Sampler,
    },
    /// Population Based Training (Appendix A.3 settings).
    Pbt(PbtConfig),
    /// Vizier-like GP-EI without early stopping: random search at the full
    /// budget `R` whose configurations a GP-EI sampler picks.
    Vizier {
        /// The budget every configuration trains for.
        max_resource: f64,
        /// The GP-EI sampler's knobs.
        sampler: GpSamplerConfig,
    },
    /// Fabolas-like cost-aware BO over (config, subset) space.
    Fabolas(FabolasConfig),
}

impl Searcher {
    /// ASHA (or D-ASHA, by `config.rule`) with uniform sampling.
    pub fn asha(config: AshaConfig) -> Self {
        Searcher::Asha {
            config,
            sampler: Sampler::Random,
        }
    }

    /// ASHA+TPE (or D-ASHA+TPE, by `config.rule`).
    pub fn asha_tpe(config: AshaConfig) -> Self {
        Searcher::Asha {
            config,
            sampler: Sampler::Tpe,
        }
    }

    /// Random search at full budget `R`: ASHA on [`AshaConfig::random`]'s
    /// one-rung ladder, named `Random`.
    pub fn random(max_resource: f64) -> Self {
        Searcher::asha(AshaConfig::random(max_resource))
    }

    /// Vizier at full budget `R`, its sampler at
    /// [`GpSamplerConfig::vizier`]'s settings.
    pub fn vizier(max_resource: f64) -> Self {
        Searcher::Vizier {
            max_resource,
            sampler: GpSamplerConfig::vizier(),
        }
    }

    /// A bracket loop with uniform sampling.
    pub fn bracket_loop(config: BracketLoopConfig) -> Self {
        Searcher::BracketLoop {
            config,
            sampler: Sampler::Random,
        }
    }

    /// A bracket loop with TPE sampling: BOHB under a SHA opening, named
    /// `Hyperband+tpe` or `Hyperband (async)+tpe` under the others.
    pub fn bohb(config: BracketLoopConfig) -> Self {
        Searcher::BracketLoop {
            config,
            sampler: Sampler::Tpe,
        }
    }

    /// The paper's default ASHA settings for a maximum resource `R`:
    /// `r = R/256` (floored at 1), `eta = 4`, `s = 0`.
    pub fn default_asha(max_resource: f64) -> Self {
        Searcher::asha(AshaConfig::new(
            (max_resource / 256.0).max(1.0),
            max_resource,
            4.0,
        ))
    }

    /// The method's [`Sampler`], if it draws new configurations through
    /// one — exactly the persistable methods ([`Searcher::durable`]).
    pub fn sampler_mut(&mut self) -> Option<&mut Sampler> {
        match self {
            Searcher::Asha { sampler, .. } | Searcher::BracketLoop { sampler, .. } => Some(sampler),
            _ => None,
        }
    }

    /// Instantiate a fresh scheduler over `space`.
    ///
    /// # Panics
    ///
    /// Panics if the carried config is invalid (same preconditions as the
    /// underlying constructors).
    pub fn build(&self, space: &SearchSpace) -> Box<dyn Scheduler + Send> {
        let space = space.clone();
        match self.clone() {
            Searcher::Pbt(config) => Box::new(Pbt::new(space, config)),
            Searcher::Vizier {
                max_resource,
                sampler,
            } => Box::new(vizier(space, max_resource, sampler)),
            Searcher::Fabolas(config) => Box::new(Fabolas::new(space, config)),
            _ => self
                .durable(&space)
                .expect("every other method has a sampler, so persists"),
        }
    }

    /// A fresh scheduler over `space` that a durable store can checkpoint,
    /// or `None` for a method without a [`Sampler`]: the only constructor of
    /// the persistable kinds. TPE keeps the names the figures print
    /// (`ASHA+TPE`, `BOHB`); the other crosses name themselves (`D-ASHA+tpe`).
    ///
    /// # Panics
    ///
    /// Panics if the carried config is invalid.
    pub fn durable(&self, space: &SearchSpace) -> Option<Box<dyn DurableScheduler + Send>> {
        let fresh = |kind: Sampler| kind.build(space);
        let space = space.clone();
        Some(match self.clone() {
            Searcher::Asha { config, sampler } => Box::new(match (sampler, config.rule) {
                (Sampler::Tpe, PromotionRule::Eager) => bohb_asha(space, config),
                (sampler, _) => Asha::with_sampler(space, config, fresh(sampler)),
            }),
            Searcher::BracketLoop { config, sampler } => {
                Box::new(match (sampler, config.opening) {
                    (Sampler::Tpe, Opening::Sha { .. }) => bohb(space, config),
                    (sampler, _) => {
                        BracketLoop::with_sampler_factory(space, config, |_| fresh(sampler))
                    }
                })
            }
            _ => return None,
        })
    }

    /// Parse a method from its CLI name on the ladder `r`, `R`, `eta`:
    /// `asha`, `dasha`, `sha` (a growing bracket of `R/r` configurations),
    /// `bohb`, `hyperband`, `async-hyperband` (at most four brackets),
    /// `random` (one rung, at `R`), and `pbt`, `vizier`, `fabolas`, which
    /// also read only `R`. The one name table of `tune_sim`,
    /// `run_report --demo` and `asha-ctl create`; every name before `pbt` is
    /// persistable ([`Searcher::durable`]).
    ///
    /// # Panics
    ///
    /// On a ladder no method can climb, for the Hyperband names; check one
    /// first with [`AshaConfig::validate`].
    pub fn from_name(name: &str, r: f64, max_r: f64, eta: f64) -> Option<Self> {
        let asha = || AshaConfig::new(r, max_r, eta);
        let n = (max_r / r).round() as usize;
        let sha = || BracketLoopConfig::sha(n, r, max_r, eta).growing();
        Some(match name {
            "asha" => Searcher::asha(asha()),
            "dasha" => Searcher::asha(asha().delayed()),
            "sha" => Searcher::bracket_loop(sha()),
            "bohb" => Searcher::bohb(sha()),
            "hyperband" => Searcher::bracket_loop(BracketLoopConfig::hyperband(r, max_r, eta)),
            "async-hyperband" => {
                let mut config = BracketLoopConfig::async_hyperband(r, max_r, eta);
                if let Opening::AsyncHyperband { num_brackets } = &mut config.opening {
                    *num_brackets = (*num_brackets).min(4);
                }
                Searcher::bracket_loop(config)
            }
            "random" => Searcher::random(max_r),
            "pbt" => Searcher::Pbt(PbtConfig::new(25, max_r, (max_r / 30.0).max(1.0)).spawning()),
            "vizier" => Searcher::vizier(max_r),
            "fabolas" => Searcher::Fabolas(FabolasConfig::new(max_r)),
            _ => return None,
        })
    }
}

/// The best configuration a tuning run found.
#[derive(Debug, Clone, PartialEq)]
pub struct BestConfig {
    /// The winning hyperparameter configuration.
    pub config: Config,
    /// Its validation loss.
    pub val_loss: f64,
    /// The cumulative resource it was trained for when observed.
    pub resource: f64,
    /// `name=value` rendering of the configuration.
    pub summary: String,
}

/// Outcome of a [`SimTune`] run.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// The best configuration found, if any job completed.
    pub best: Option<BestConfig>,
    /// The full completion trace.
    pub trace: RunTrace,
    /// Jobs completed.
    pub jobs_completed: usize,
    /// Fault tally of the simulated cluster (drops are always retried), in
    /// the same format the real executor reports.
    pub faults: FaultStats,
    /// Distinct configurations evaluated.
    pub configs_evaluated: usize,
    /// Simulated end time.
    pub end_time: f64,
}

impl TuneOutcome {
    fn from_sim(result: SimResult, space: &SearchSpace) -> Self {
        // The simulator's online counter is exact in every trace mode; the
        // trace itself may be thinned (IncumbentOnly) or empty (Aggregated).
        let configs_evaluated = result.distinct_trials;
        let best = result.best_config.map(|(config, val_loss, resource)| {
            let summary = space
                .display(&config)
                .unwrap_or_else(|_| "<foreign config>".to_owned());
            BestConfig {
                config,
                val_loss,
                resource,
                summary,
            }
        });
        TuneOutcome {
            best,
            trace: result.trace,
            jobs_completed: result.jobs_completed,
            faults: result.faults,
            configs_evaluated,
            end_time: result.end_time,
        }
    }
}

/// Builder for a simulated tuning run over a [`BenchmarkModel`]; see the
/// module docs for an example.
pub struct SimTune<'a> {
    bench: &'a dyn BenchmarkModel,
    searcher: Searcher,
    workers: usize,
    horizon: f64,
    straggler_std: f64,
    drop_prob: f64,
    trace_mode: TraceMode,
    seed: u64,
}

impl<'a> SimTune<'a> {
    /// Tune `bench` with the paper-default ASHA on 25 workers for 10 full
    /// training times; override anything via the builder methods.
    pub fn new(bench: &'a dyn BenchmarkModel) -> Self {
        let horizon = bench.time_full(&bench.space().default_config()) * 10.0;
        SimTune {
            searcher: Searcher::default_asha(bench.max_resource()),
            bench,
            workers: 25,
            horizon,
            straggler_std: 0.0,
            drop_prob: 0.0,
            trace_mode: TraceMode::Full,
            seed: 0,
        }
    }

    /// Select the searcher.
    pub fn searcher(mut self, searcher: Searcher) -> Self {
        self.searcher = searcher;
        self
    }

    /// Number of simulated workers.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Simulated-time budget.
    pub fn horizon(mut self, horizon: f64) -> Self {
        self.horizon = horizon;
        self
    }

    /// Straggler noise (Appendix A.1's `1 + |z|` multiplier).
    pub fn stragglers(mut self, std: f64) -> Self {
        self.straggler_std = std;
        self
    }

    /// Per-time-unit job-drop probability.
    pub fn drops(mut self, p: f64) -> Self {
        self.drop_prob = p;
        self
    }

    /// How much of the completion stream to keep. [`TraceMode::Full`] (the
    /// default) records every job; [`TraceMode::IncumbentOnly`] keeps
    /// O(incumbent-updates) memory on long horizons with the identical
    /// incumbent curve; [`TraceMode::Aggregated`] keeps scalars only.
    #[cfg(test)]
    pub(crate) fn trace_mode(mut self, mode: TraceMode) -> Self {
        self.trace_mode = mode;
        self
    }

    /// RNG seed (sampling, noise, stragglers).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Run the simulation.
    ///
    /// # Panics
    ///
    /// Panics if the searcher parameters are invalid for the benchmark's
    /// resource scale, or `workers == 0` / `horizon <= 0`.
    pub fn run(self) -> TuneOutcome {
        let space = self.bench.space().clone();
        let scheduler = self.searcher.build(&space);
        let sim = ClusterSim::new(
            SimConfig::new(self.workers, self.horizon)
                .with_stragglers(self.straggler_std)
                .with_drops(self.drop_prob)
                .with_trace_mode(self.trace_mode),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        TuneOutcome::from_sim(sim.run(scheduler, self.bench, &mut rng), &space)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asha_surrogate::presets;

    #[test]
    fn every_named_searcher_builds_and_runs() {
        let bench = presets::svm_vehicle(presets::DEFAULT_SURFACE_SEED);
        let max_r = bench.max_resource();
        for name in [
            "asha",
            "dasha",
            "sha",
            "hyperband",
            "async-hyperband",
            "bohb",
            "pbt",
            "vizier",
            "fabolas",
            "random",
        ] {
            let searcher = Searcher::from_name(name, (max_r / 256.0).max(1.0), max_r, 4.0)
                .expect("known name");
            let outcome = SimTune::new(&bench)
                .searcher(searcher)
                .workers(4)
                .horizon(120.0)
                .seed(1)
                .run();
            assert!(outcome.jobs_completed > 0, "{name} did nothing");
            let best = outcome.best.expect("at least one completion");
            assert!(best.val_loss.is_finite());
            assert!(best.summary.contains('='), "summary: {}", best.summary);
        }
        assert!(Searcher::from_name("nope", 1.0, 64.0, 4.0).is_none());
    }

    #[test]
    fn default_asha_matches_paper_settings() {
        match Searcher::default_asha(256.0) {
            Searcher::Asha { config, sampler } => {
                assert_eq!(config.min_resource, 1.0);
                assert_eq!(config.reduction_factor, 4.0);
                assert_eq!(config.stop_rate, 0);
                assert_eq!(sampler, Sampler::Random);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn outcome_reports_the_best_config_consistently() {
        let bench = presets::cifar10_cuda_convnet(presets::DEFAULT_SURFACE_SEED);
        let outcome = SimTune::new(&bench).workers(9).horizon(100.0).seed(3).run();
        let best = outcome.best.expect("jobs completed");
        // The reported best must agree with the trace's final best.
        let (trace_val, _) = outcome.trace.final_best().expect("events exist");
        assert_eq!(best.val_loss, trace_val);
        assert!(best.resource > 0.0);
        assert!(outcome.configs_evaluated > 10);
    }

    #[test]
    fn trace_modes_preserve_outcome_scalars() {
        let bench = presets::cifar10_cuda_convnet(presets::DEFAULT_SURFACE_SEED);
        let run = |mode| {
            SimTune::new(&bench)
                .workers(9)
                .horizon(80.0)
                .seed(4)
                .trace_mode(mode)
                .run()
        };
        let full = run(TraceMode::Full);
        let lean = run(TraceMode::IncumbentOnly);
        let agg = run(TraceMode::Aggregated);
        assert_eq!(full.trace.incumbent_curve(), lean.trace.incumbent_curve());
        assert!(lean.trace.len() < full.trace.len());
        assert!(agg.trace.is_empty());
        for other in [&lean, &agg] {
            assert_eq!(full.jobs_completed, other.jobs_completed);
            assert_eq!(full.configs_evaluated, other.configs_evaluated);
            assert_eq!(full.end_time, other.end_time);
            assert_eq!(
                full.best.as_ref().map(|b| b.val_loss),
                other.best.as_ref().map(|b| b.val_loss)
            );
        }
    }

    #[test]
    fn stragglers_and_drops_are_plumbed_through() {
        let bench = presets::svm_vehicle(presets::DEFAULT_SURFACE_SEED);
        let clean = SimTune::new(&bench).workers(4).horizon(300.0).seed(5).run();
        let noisy = SimTune::new(&bench)
            .workers(4)
            .horizon(300.0)
            .stragglers(1.0)
            .drops(5e-3)
            .seed(5)
            .run();
        assert!(noisy.faults.jobs_dropped > 0);
        assert!(noisy.jobs_completed < clean.jobs_completed);
    }
}
