//! Tuning methods as values: pick a searcher by name or by config, build a
//! fresh scheduler from it, and hand that to the simulator (`asha_sim`), the
//! real executor (`asha_exec`) or the durable store (`asha_store`).
//!
//! A [`Searcher`] is the one description of a method; a simulated run is one
//! `SimConfig` driven by `ClusterSim`:
//!
//! ```
//! use asha::core::AshaConfig;
//! use asha::sim::{ClusterSim, SimConfig};
//! use asha::surrogate::{presets, BenchmarkModel};
//! use asha::tune::Searcher;
//! use rand::SeedableRng;
//!
//! let bench = presets::cifar10_cuda_convnet(presets::DEFAULT_SURFACE_SEED);
//! let scheduler = Searcher::asha(AshaConfig::new(1.0, 256.0, 4.0)).build(bench.space());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let result = ClusterSim::new(SimConfig::new(25, 60.0)).run(scheduler, &bench, &mut rng);
//! let (config, val_loss, _resource) = result.best_config.expect("jobs completed");
//! let summary = bench.space().display(&config).expect("a config of this space");
//! println!("best validation loss {val_loss:.4}: {summary}");
//! ```

use asha_baselines::{
    bohb, bohb_asha, vizier, Fabolas, FabolasConfig, GpSamplerConfig, Pbt, PbtConfig,
};
use asha_core::{
    Asha, AshaConfig, BracketLoop, BracketLoopConfig, DurableScheduler, Opening, PromotionRule,
    Scheduler,
};
use asha_space::SearchSpace;

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

#[cfg(test)]
mod tests {
    use super::*;
    use asha_sim::{ClusterSim, SimConfig, SimResult};
    use asha_surrogate::{presets, BenchmarkModel, CurveBenchmark};
    use rand::SeedableRng;

    /// `searcher` on `bench` over a simulated cluster seeded with `seed`.
    fn simulate(
        bench: &CurveBenchmark,
        searcher: &Searcher,
        sim: SimConfig,
        seed: u64,
    ) -> SimResult {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        ClusterSim::new(sim).run(searcher.build(bench.space()), bench, &mut rng)
    }

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
            let result = simulate(&bench, &searcher, SimConfig::new(4, 120.0), 1);
            assert!(result.jobs_completed > 0, "{name} did nothing");
            let (_, val_loss, _) = result.best_config.expect("at least one completion");
            assert!(val_loss.is_finite());
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
        let searcher = Searcher::default_asha(bench.max_resource());
        let result = simulate(&bench, &searcher, SimConfig::new(9, 100.0), 3);
        let (_, val_loss, resource) = result.best_config.expect("jobs completed");
        // The reported best must agree with the trace's final best.
        let (trace_val, _) = result.trace.final_best().expect("events exist");
        assert_eq!(val_loss, trace_val);
        assert!(resource > 0.0);
        assert!(result.distinct_trials > 10);
    }

    #[test]
    fn stragglers_and_drops_are_plumbed_through() {
        let bench = presets::svm_vehicle(presets::DEFAULT_SURFACE_SEED);
        let searcher = Searcher::default_asha(bench.max_resource());
        let clean = simulate(&bench, &searcher, SimConfig::new(4, 300.0), 5);
        let noisy = SimConfig::new(4, 300.0)
            .with_stragglers(1.0)
            .with_drops(5e-3);
        let noisy = simulate(&bench, &searcher, noisy, 5);
        assert!(noisy.faults.jobs_dropped > 0);
        assert!(noisy.jobs_completed < clean.jobs_completed);
    }
}
