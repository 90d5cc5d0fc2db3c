//! A stand-in for Fabolas (Klein et al., 2017): Bayesian optimization over
//! the joint (configuration, dataset-fraction) space with a cost-aware
//! acquisition — expected improvement at the *full* dataset divided by the
//! cost of the proposed cheap evaluation.
//!
//! Protocol details mirror the paper's Appendix A.2 evaluation: most
//! evaluations use small training subsets; periodically the current
//! *predicted* incumbent is trained on the full budget (Klein et al.'s
//! "offline validation step"), which is when the run trace actually
//! improves. This reproduces Fabolas's characteristic profile — fast early
//! progress, higher variance, and a handicap against Hyperband's by-rung
//! accounting (Figure 9).

use asha_core::{Decision, Job, Observation, Scheduler, TrialId};
use asha_math::{expected_improvement, Gp, GpConfig};
use asha_space::{Config, SearchSpace};
use rand::Rng;

/// Configuration of a [`Fabolas`] scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct FabolasConfig {
    /// Full training budget `R`.
    pub max_resource: f64,
    /// Subset fractions available for cheap evaluations.
    pub fractions: Vec<f64>,
    /// Random (config, fraction) evaluations before the model kicks in.
    pub warmup: usize,
    /// Every `incumbent_every` suggestions, evaluate the predicted-best
    /// configuration on the full budget.
    pub incumbent_every: usize,
    /// At most this many recent observations enter the GP.
    pub max_model_points: usize,
    /// Random candidates scored per suggestion.
    pub candidates: usize,
}

impl FabolasConfig {
    /// Defaults: fractions `{1/64, 1/16, 1/4}`, full-budget incumbent
    /// evaluation every 8 suggestions.
    ///
    /// # Panics
    ///
    /// Panics if `max_resource <= 0`.
    pub fn new(max_resource: f64) -> Self {
        assert!(max_resource > 0.0, "maximum resource must be positive");
        FabolasConfig {
            max_resource,
            fractions: vec![1.0 / 64.0, 1.0 / 16.0, 1.0 / 4.0],
            warmup: 9,
            incumbent_every: 8,
            max_model_points: 250,
            candidates: 200,
        }
    }
}

/// The Fabolas-like scheduler; see the module docs.
pub struct Fabolas {
    space: SearchSpace,
    config: FabolasConfig,
    /// Joint observations: config unit point + fraction, and loss.
    observations: Vec<(Vec<f64>, f64)>,
    /// Issued-but-unreported jobs: trial id and its joint unit point.
    pending: Vec<(TrialId, Vec<f64>)>,
    model: Option<Gp>,
    stale: bool,
    suggestions: usize,
    next_trial: u64,
    name: String,
}

impl std::fmt::Debug for Fabolas {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabolas")
            .field("observations", &self.observations.len())
            .field("suggestions", &self.suggestions)
            .finish_non_exhaustive()
    }
}

impl Fabolas {
    /// Create a Fabolas-like scheduler.
    pub fn new(space: SearchSpace, config: FabolasConfig) -> Self {
        Fabolas {
            space,
            config,
            observations: Vec::new(),
            pending: Vec::new(),
            model: None,
            stale: true,
            suggestions: 0,
            next_trial: 0,
            name: "Fabolas".to_owned(),
        }
    }

    /// Number of recorded observations (all fidelities).
    #[cfg(test)]
    pub(crate) fn observations(&self) -> usize {
        self.observations.len()
    }

    fn refit(&mut self) {
        let start = self
            .observations
            .len()
            .saturating_sub(self.config.max_model_points);
        let xs: Vec<Vec<f64>> = self.observations[start..]
            .iter()
            .map(|(u, _)| u.clone())
            .collect();
        let ys: Vec<f64> = self.observations[start..].iter().map(|&(_, l)| l).collect();
        self.model = Gp::fit(&xs, &ys, GpConfig::default()).ok();
        self.stale = false;
    }

    /// Predicted loss at the full dataset for a config unit point.
    fn predict_full(&self, unit_config: &[f64]) -> (f64, f64) {
        let model = self.model.as_ref().expect("model fitted before predict");
        let mut joint = unit_config.to_vec();
        joint.push(1.0);
        model.predict(&joint)
    }

    /// Best *predicted* full-budget loss over the configs evaluated so far.
    fn predicted_incumbent(&self) -> Option<(Vec<f64>, f64)> {
        let model = self.model.as_ref()?;
        let mut best: Option<(Vec<f64>, f64)> = None;
        for (joint, _) in &self.observations {
            let unit_config = &joint[..joint.len() - 1];
            let mu = model.mean(&[unit_config, &[1.0]].concat());
            if best.as_ref().is_none_or(|(_, b)| mu < *b) {
                best = Some((unit_config.to_vec(), mu));
            }
        }
        best
    }

    fn make_job(&mut self, config: Config, resource: f64) -> Job {
        let trial = TrialId(self.next_trial);
        self.next_trial += 1;
        let mut joint = self
            .space
            .to_unit(&config)
            .expect("proposals come from this space");
        joint.push((resource / self.config.max_resource).clamp(0.0, 1.0));
        self.pending.push((trial, joint));
        Job {
            trial,
            config,
            rung: 0,
            resource,
            bracket: 0,
            inherit_from: None,
        }
    }
}

impl Scheduler for Fabolas {
    fn suggest(&mut self, rng: &mut dyn rand::RngCore) -> Decision {
        self.suggestions += 1;
        let dims = self.space.len();
        // Warmup: random configs cycling through the subset fractions.
        if self.observations.len() < self.config.warmup {
            let frac = self.config.fractions[self.suggestions % self.config.fractions.len()];
            let config = self.space.sample(rng);
            let resource = frac * self.config.max_resource;
            return Decision::Run(self.make_job(config, resource));
        }
        if self.stale || self.model.is_none() {
            self.refit();
        }
        if self.model.is_none() {
            let config = self.space.sample(rng);
            return Decision::Run(self.make_job(config, self.config.max_resource));
        }
        // Periodic offline incumbent evaluation at the full budget.
        if self.suggestions.is_multiple_of(self.config.incumbent_every) {
            if let Some((unit, _)) = self.predicted_incumbent() {
                let config = self.space.from_unit(&unit);
                return Decision::Run(self.make_job(config, self.config.max_resource));
            }
        }
        // Cost-aware acquisition: EI at full fidelity per unit of cost of
        // the cheap evaluation actually proposed.
        let best_full = self
            .predicted_incumbent()
            .map(|(_, mu)| mu)
            .unwrap_or(f64::INFINITY);
        let mut best_score = f64::NEG_INFINITY;
        let mut best_choice: Option<(Vec<f64>, f64)> = None;
        for _ in 0..self.config.candidates {
            let u: Vec<f64> = (0..dims).map(|_| rng.gen::<f64>()).collect();
            let (mu_full, var_full) = self.predict_full(&u);
            let ei = expected_improvement(mu_full, var_full, best_full);
            for &frac in &self.config.fractions {
                // Cost grows with the fraction; information too, but EI is
                // measured at full fidelity, so small fractions win unless
                // the model is already confident.
                let mut joint = u.clone();
                joint.push(frac);
                let (_, var_at) = self
                    .model
                    .as_ref()
                    .expect("model fitted above")
                    .predict(&joint);
                // Prefer cheap, informative (high-variance) evaluations.
                let score = (ei * var_at.sqrt()).ln() - frac.ln();
                if score > best_score {
                    best_score = score;
                    best_choice = Some((u.clone(), frac));
                }
            }
        }
        match best_choice {
            Some((u, frac)) => {
                let config = self.space.from_unit(&u);
                let resource = frac * self.config.max_resource;
                Decision::Run(self.make_job(config, resource))
            }
            None => {
                let config = self.space.sample(rng);
                Decision::Run(self.make_job(config, self.config.max_resource))
            }
        }
    }

    fn observe(&mut self, obs: Observation) {
        let Some(pos) = self.pending.iter().position(|(t, _)| *t == obs.trial) else {
            return;
        };
        let (_, joint) = self.pending.swap_remove(pos);
        let loss = if obs.loss.is_finite() { obs.loss } else { 1e9 };
        self.observations.push((joint, loss));
        self.stale = true;
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

    /// Surrogate objective: loss shrinks toward the config's quality as the
    /// fraction grows (partial data is pessimistic but informative).
    fn loss_of(u: &[f64], frac: f64) -> f64 {
        let quality = (u[0] - 0.3).powi(2) + (u[1] - 0.6).powi(2);
        quality + 0.3 * (1.0 - frac)
    }

    fn drive(f: &mut Fabolas, s: &SearchSpace, rng: &mut StdRng, steps: usize) -> Vec<Job> {
        let mut jobs = Vec::new();
        for _ in 0..steps {
            let job = f.suggest(rng).job().expect("fabolas always has work");
            let u = s.to_unit(&job.config).unwrap();
            let frac = job.resource / f.config.max_resource;
            f.observe(Observation::for_job(&job, loss_of(&u, frac)));
            jobs.push(job);
        }
        jobs
    }

    #[test]
    fn warmup_uses_subset_fractions() {
        let s = space();
        let mut f = Fabolas::new(s.clone(), FabolasConfig::new(64.0));
        let mut rng = StdRng::seed_from_u64(0);
        let jobs = drive(&mut f, &s, &mut rng, 9);
        assert!(jobs.iter().all(|j| j.resource < 64.0), "warmup is cheap");
        assert_eq!(f.observations(), 9);
    }

    #[test]
    fn most_evaluations_are_cheap_but_incumbents_run_full() {
        let s = space();
        let mut f = Fabolas::new(s.clone(), FabolasConfig::new(64.0));
        let mut rng = StdRng::seed_from_u64(1);
        let jobs = drive(&mut f, &s, &mut rng, 60);
        let full: Vec<&Job> = jobs.iter().filter(|j| j.resource == 64.0).collect();
        let cheap = jobs.len() - full.len();
        assert!(!full.is_empty(), "no full-budget incumbent evaluations");
        assert!(cheap > full.len(), "cheap evaluations should dominate");
    }

    #[test]
    fn full_budget_incumbents_improve_over_warmup() {
        let s = space();
        let mut f = Fabolas::new(s.clone(), FabolasConfig::new(64.0));
        let mut rng = StdRng::seed_from_u64(2);
        let jobs = drive(&mut f, &s, &mut rng, 80);
        // The last full-budget evaluation should be near the optimum (0.3, 0.6).
        let last_full = jobs
            .iter()
            .rev()
            .find(|j| j.resource == 64.0)
            .expect("at least one incumbent evaluation");
        let u = s.to_unit(&last_full.config).unwrap();
        let dist = ((u[0] - 0.3).powi(2) + (u[1] - 0.6).powi(2)).sqrt();
        assert!(dist < 0.35, "incumbent distance {dist} from optimum");
    }

    #[test]
    fn unsolicited_observations_ignored() {
        let s = space();
        let mut f = Fabolas::new(s, FabolasConfig::new(64.0));
        f.observe(Observation::new(TrialId(999), 0, 1.0, 0.1));
        assert_eq!(f.observations(), 0);
        assert_eq!(f.name(), "Fabolas");
    }
}
