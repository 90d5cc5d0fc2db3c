//! A stand-in for Google Vizier's default algorithm (Golovin et al., 2017):
//! batched Gaussian-process Bayesian optimization with expected improvement,
//! a constant-liar heuristic for parallel suggestions, and **no early
//! stopping** — every configuration trains for the full resource `R`. The
//! paper compares against exactly this setting ("Vizier *without* the
//! performance curve early-stopping rule").
//!
//! Without early stopping, Vizier is random search with a model choosing
//! the configurations: [`Asha`] on [`AshaConfig::random`]'s one rung with a
//! GP-EI [`ConfigSampler`].
//!
//! Faithful weaknesses are kept on purpose: the GP models raw losses, so the
//! divergent-perplexity tail of the PTB benchmark degrades the fit even when
//! losses are capped at 1000 — the behaviour the paper observes in
//! Section 4.3.

use asha_core::{Asha, AshaConfig, ConfigSampler};
use asha_math::{Gp, GpConfig};
use asha_space::{Config, SearchSpace};

use crate::gp::ei_argmax;

/// Configuration of a [`vizier`] scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct VizierConfig {
    /// Resource every evaluation trains for (the full `R`).
    pub max_resource: f64,
    /// Random configurations evaluated before the model kicks in.
    pub warmup: usize,
    /// Re-fit the GP after this many new completions.
    pub refit_every: usize,
    /// At most this many (most recent) observations enter the GP — keeps
    /// the `O(n^3)` Cholesky affordable at 500-worker scale.
    pub max_model_points: usize,
    /// Random candidates scored by EI per suggestion.
    pub candidates: usize,
}

impl VizierConfig {
    /// Defaults matching the large-scale experiment's needs.
    ///
    /// # Panics
    ///
    /// Panics if `max_resource <= 0`.
    pub fn new(max_resource: f64) -> Self {
        assert!(max_resource > 0.0, "maximum resource must be positive");
        VizierConfig {
            max_resource,
            warmup: 10,
            refit_every: 8,
            max_model_points: 300,
            candidates: 256,
        }
    }
}

/// The Vizier-like scheduler, named `Vizier`: every job trains a fresh
/// trial to `R` at rung 0 of bracket 0, and a GP-EI model of the completed
/// losses picks its configuration; see the module docs.
///
/// # Panics
///
/// Panics if `config.max_resource <= 0`.
pub fn vizier(space: SearchSpace, config: VizierConfig) -> Asha {
    let ladder = AshaConfig::random(config.max_resource);
    let sampler = Box::new(VizierSampler::new(space.clone(), config));
    let mut asha = Asha::with_sampler(space, ladder, sampler);
    asha.set_name("Vizier");
    asha
}

/// Vizier's model as a [`ConfigSampler`]: the completed full-budget
/// evaluations, the in-flight proposals the constant liar stands in for,
/// and a GP refit every [`VizierConfig::refit_every`] completions.
///
/// The pending set is keyed by each proposal's unit vector: `propose`
/// pushes it and `record` removes the first equal one. That is the proposal
/// the report belongs to whenever no two in-flight proposals embed to the
/// same unit point, which any space with a continuous parameter guarantees
/// (the PTB space of Figure 5 among them).
struct VizierSampler {
    space: SearchSpace,
    config: VizierConfig,
    /// Completed evaluations: unit point and loss.
    completed: Vec<(Vec<f64>, f64)>,
    /// Outstanding evaluations' unit points (for the constant liar).
    pending: Vec<Vec<f64>>,
    model: Option<Gp>,
    completions_since_fit: usize,
}

impl VizierSampler {
    fn new(space: SearchSpace, config: VizierConfig) -> Self {
        VizierSampler {
            space,
            config,
            completed: Vec::new(),
            pending: Vec::new(),
            model: None,
            completions_since_fit: 0,
        }
    }

    fn best_loss(&self) -> f64 {
        self.completed
            .iter()
            .map(|&(_, l)| l)
            .fold(f64::INFINITY, f64::min)
    }

    fn refit(&mut self) {
        // Constant liar: pending points are assumed to achieve the current
        // best loss, discouraging duplicate suggestions in a batch.
        let liar = self.best_loss();
        let start = self
            .completed
            .len()
            .saturating_sub(self.config.max_model_points);
        let mut xs: Vec<Vec<f64>> = self.completed[start..]
            .iter()
            .map(|(u, _)| u.clone())
            .collect();
        let mut ys: Vec<f64> = self.completed[start..].iter().map(|&(_, l)| l).collect();
        for u in &self.pending {
            xs.push(u.clone());
            ys.push(liar);
        }
        self.model = Gp::fit(&xs, &ys, GpConfig::default()).ok();
        self.completions_since_fit = 0;
    }

    fn choose(&mut self, space: &SearchSpace, rng: &mut dyn rand::RngCore) -> Config {
        if self.completed.len() < self.config.warmup {
            return space.sample(rng);
        }
        if self.model.is_none() || self.completions_since_fit >= self.config.refit_every {
            self.refit();
        }
        let Some(model) = &self.model else {
            return space.sample(rng);
        };
        let best = self.best_loss();
        ei_argmax(model, best, self.config.candidates, space, rng)
    }
}

impl ConfigSampler for VizierSampler {
    fn propose(&mut self, space: &SearchSpace, rng: &mut dyn rand::RngCore) -> Config {
        let config = self.choose(space, rng);
        let unit = self
            .space
            .to_unit(&config)
            .expect("proposals come from this space");
        self.pending.push(unit);
        config
    }

    fn record(&mut self, config: &Config, _rung: usize, _resource: f64, loss: f64) {
        let Ok(unit) = self.space.to_unit(config) else {
            return;
        };
        let Some(pos) = self.pending.iter().position(|u| *u == unit) else {
            return;
        };
        let unit = self.pending.swap_remove(pos);
        let loss = if loss.is_nan() { f64::INFINITY } else { loss };
        // Infinite losses would poison the GP's target standardization;
        // store a large finite proxy instead (mirrors the paper's capping).
        self.completed.push((unit, loss.min(1e9)));
        self.completions_since_fit += 1;
    }

    fn name(&self) -> &str {
        "vizier"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asha_core::{Observation, Scheduler, TrialId};
    use asha_space::Scale;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> SearchSpace {
        SearchSpace::builder()
            .continuous("x", 0.0, 1.0, Scale::Linear)
            .continuous("y", 0.0, 1.0, Scale::Linear)
            .build()
            .unwrap()
    }

    #[test]
    fn every_job_is_a_fresh_trial_at_full_budget() {
        let mut v = vizier(space(), VizierConfig::new(256.0));
        assert_eq!(v.name(), "Vizier");
        let mut rng = StdRng::seed_from_u64(0);
        for i in 0..30 {
            let job = v.suggest(&mut rng).job().expect("vizier always has work");
            assert_eq!(
                (job.trial, job.rung, job.resource, job.bracket),
                (TrialId(i), 0, 256.0, 0)
            );
            v.observe(Observation::for_job(&job, 1.0));
        }
    }

    #[test]
    fn model_concentrates_proposals() {
        // Quadratic bowl at (0.3, 0.7); after warmup the EI proposals should
        // be much closer to the optimum than uniform sampling.
        let s = space();
        let mut v = vizier(s.clone(), VizierConfig::new(1.0));
        let mut rng = StdRng::seed_from_u64(1);
        let mut dists = Vec::new();
        for i in 0..80 {
            let job = v.suggest(&mut rng).job().unwrap();
            let u = s.to_unit(&job.config).unwrap();
            if i >= 40 {
                dists.push(((u[0] - 0.3).powi(2) + (u[1] - 0.7).powi(2)).sqrt());
            }
            let loss = (u[0] - 0.3).powi(2) + (u[1] - 0.7).powi(2);
            v.observe(Observation::for_job(&job, loss));
        }
        let mean_dist = dists.iter().sum::<f64>() / dists.len() as f64;
        assert!(
            mean_dist < 0.30,
            "mean distance {mean_dist} (uniform ≈ 0.48)"
        );
    }

    #[test]
    fn batch_constant_liar_diversifies_pending() {
        // Issue a batch of 10 with no observations: after warmup data the
        // liar should keep proposals from collapsing to one point.
        let s = space();
        let mut v = vizier(s.clone(), VizierConfig::new(1.0));
        let mut rng = StdRng::seed_from_u64(2);
        // Warmup data.
        for _ in 0..12 {
            let job = v.suggest(&mut rng).job().unwrap();
            let u = s.to_unit(&job.config).unwrap();
            v.observe(Observation::for_job(&job, (u[0] - 0.5).powi(2)));
        }
        let batch: Vec<Vec<f64>> = (0..10)
            .map(|_| {
                let job = v.suggest(&mut rng).job().unwrap();
                s.to_unit(&job.config).unwrap()
            })
            .collect();
        // Not all identical.
        let first = &batch[0];
        assert!(
            batch
                .iter()
                .any(|u| { (u[0] - first[0]).abs() > 1e-3 || (u[1] - first[1]).abs() > 1e-3 }),
            "batch collapsed to a single point"
        );
    }

    #[test]
    fn unproposed_and_infinite_losses_are_handled() {
        let s = space();
        let mut sampler = VizierSampler::new(s.clone(), VizierConfig::new(1.0));
        let mut rng = StdRng::seed_from_u64(3);
        sampler.record(&s.sample(&mut rng), 0, 1.0, 0.5);
        assert!(sampler.completed.is_empty());
        let config = sampler.propose(&s, &mut rng);
        sampler.record(&config, 0, 1.0, f64::NAN);
        assert_eq!(sampler.completed.len(), 1);
        assert!(sampler.pending.is_empty());
        assert_eq!(sampler.best_loss(), 1e9);
        // Later proposals still work.
        assert_eq!(sampler.propose(&s, &mut rng).len(), 2);
    }
}
