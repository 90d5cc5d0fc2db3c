//! A stand-in for Google Vizier's default algorithm (Golovin et al., 2017):
//! batched Gaussian-process Bayesian optimization with expected improvement,
//! a constant-liar heuristic for parallel suggestions, and **no early
//! stopping** — every configuration trains for the full resource `R`. The
//! paper compares against exactly this setting ("Vizier *without* the
//! performance curve early-stopping rule").
//!
//! Faithful weaknesses are kept on purpose: the GP models raw losses, so the
//! divergent-perplexity tail of the PTB benchmark degrades the fit even when
//! losses are capped at 1000 — the behaviour the paper observes in
//! Section 4.3.

use asha_core::{Decision, Job, Observation, Scheduler, TrialId};
use asha_math::{Gp, GpConfig};
use asha_space::{Config, SearchSpace};

use crate::gp::ei_argmax;

/// Configuration of a [`Vizier`] scheduler.
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

/// The Vizier-like scheduler; see the module docs.
pub struct Vizier {
    space: SearchSpace,
    config: VizierConfig,
    /// Completed evaluations: unit point and loss.
    completed: Vec<(Vec<f64>, f64)>,
    /// Outstanding evaluations' unit points (for the constant liar).
    pending: Vec<(TrialId, Vec<f64>)>,
    model: Option<Gp>,
    completions_since_fit: usize,
    next_trial: u64,
    name: String,
}

impl std::fmt::Debug for Vizier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vizier")
            .field("completed", &self.completed.len())
            .field("pending", &self.pending.len())
            .finish_non_exhaustive()
    }
}

impl Vizier {
    /// Create a Vizier-like scheduler.
    pub fn new(space: SearchSpace, config: VizierConfig) -> Self {
        Vizier {
            space,
            config,
            completed: Vec::new(),
            pending: Vec::new(),
            model: None,
            completions_since_fit: 0,
            next_trial: 0,
            name: "Vizier".to_owned(),
        }
    }

    /// Number of completed full evaluations.
    #[cfg(test)]
    pub(crate) fn completed(&self) -> usize {
        self.completed.len()
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
        for (_, u) in &self.pending {
            xs.push(u.clone());
            ys.push(liar);
        }
        self.model = Gp::fit(&xs, &ys, GpConfig::default()).ok();
        self.completions_since_fit = 0;
    }

    fn propose(&mut self, rng: &mut dyn rand::RngCore) -> Config {
        if self.completed.len() < self.config.warmup {
            return self.space.sample(rng);
        }
        if self.model.is_none() || self.completions_since_fit >= self.config.refit_every {
            self.refit();
        }
        let Some(model) = &self.model else {
            return self.space.sample(rng);
        };
        let best = self.best_loss();
        ei_argmax(model, best, self.config.candidates, &self.space, rng)
    }
}

impl Scheduler for Vizier {
    fn suggest(&mut self, rng: &mut dyn rand::RngCore) -> Decision {
        let config = self.propose(rng);
        let trial = TrialId(self.next_trial);
        self.next_trial += 1;
        let unit = self
            .space
            .to_unit(&config)
            .expect("proposals come from this space");
        self.pending.push((trial, unit));
        // A new pending point changes the constant-liar set; force a refit
        // on the next proposal if the batch grows large.
        Decision::Run(Job {
            trial,
            config,
            rung: 0,
            resource: self.config.max_resource,
            bracket: 0,
            inherit_from: None,
        })
    }

    fn observe(&mut self, obs: Observation) {
        let Some(pos) = self.pending.iter().position(|(t, _)| *t == obs.trial) else {
            return;
        };
        let (_, unit) = self.pending.swap_remove(pos);
        let loss = if obs.loss.is_nan() {
            f64::INFINITY
        } else {
            obs.loss
        };
        // Infinite losses would poison the GP's target standardization;
        // store a large finite proxy instead (mirrors the paper's capping).
        let loss = loss.min(1e9);
        self.completed.push((unit, loss));
        self.completions_since_fit += 1;
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn always_full_budget_and_never_waits() {
        let mut v = Vizier::new(space(), VizierConfig::new(256.0));
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..30 {
            let job = v.suggest(&mut rng).job().expect("vizier always has work");
            assert_eq!(job.resource, 256.0);
            v.observe(Observation::for_job(&job, 1.0));
        }
        assert_eq!(v.completed(), 30);
    }

    #[test]
    fn model_concentrates_proposals() {
        // Quadratic bowl at (0.3, 0.7); after warmup the EI proposals should
        // be much closer to the optimum than uniform sampling.
        let s = space();
        let mut v = Vizier::new(s.clone(), VizierConfig::new(1.0));
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
        let mut v = Vizier::new(s.clone(), VizierConfig::new(1.0));
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
    fn unsolicited_and_infinite_losses_are_handled() {
        let mut v = Vizier::new(space(), VizierConfig::new(1.0));
        let mut rng = StdRng::seed_from_u64(3);
        v.observe(Observation::new(TrialId(42), 0, 1.0, 0.5));
        assert_eq!(v.completed(), 0);
        let job = v.suggest(&mut rng).job().unwrap();
        v.observe(Observation::for_job(&job, f64::INFINITY));
        assert_eq!(v.completed(), 1);
        // Later proposals still work.
        assert!(v.suggest(&mut rng).job().is_some());
    }
}
