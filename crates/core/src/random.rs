//! Random search: the embarrassingly parallel baseline. Every configuration
//! is trained for the full maximum resource `R`.

use asha_space::SearchSpace;

use crate::sampler::{ConfigSampler, RandomSampler};
use crate::scheduler::{Decision, Job, Observation, Scheduler, TrialId};

/// Random search over a search space, training every sampled configuration
/// to the maximum resource.
pub struct RandomSearch {
    space: SearchSpace,
    max_resource: f64,
    sampler: Box<dyn ConfigSampler>,
    next_trial: u64,
    completed: usize,
    best_loss: f64,
    name: String,
}

impl std::fmt::Debug for RandomSearch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RandomSearch")
            .field("max_resource", &self.max_resource)
            .field("completed", &self.completed)
            .finish_non_exhaustive()
    }
}

impl RandomSearch {
    /// Create a random-search scheduler training each configuration for
    /// `max_resource`.
    ///
    /// # Panics
    ///
    /// Panics if `max_resource` is not positive.
    pub fn new(space: SearchSpace, max_resource: f64) -> Self {
        assert!(max_resource > 0.0, "maximum resource must be positive");
        RandomSearch {
            space,
            max_resource,
            sampler: Box::new(RandomSampler::new()),
            next_trial: 0,
            completed: 0,
            best_loss: f64::INFINITY,
            name: "Random".to_owned(),
        }
    }

    /// Number of completed evaluations.
    #[cfg(test)]
    pub(crate) fn completed(&self) -> usize {
        self.completed
    }

    /// Best loss observed so far (`INFINITY` before the first completion).
    #[cfg(test)]
    pub(crate) fn best_loss(&self) -> f64 {
        self.best_loss
    }
}

impl Scheduler for RandomSearch {
    fn suggest(&mut self, rng: &mut dyn rand::RngCore) -> Decision {
        let trial = TrialId(self.next_trial);
        self.next_trial += 1;
        Decision::Run(Job {
            trial,
            config: self.sampler.propose(&self.space, rng),
            rung: 0,
            resource: self.max_resource,
            bracket: 0,
            inherit_from: None,
        })
    }

    fn observe(&mut self, obs: Observation) {
        self.completed += 1;
        if obs.loss < self.best_loss {
            self.best_loss = obs.loss;
        }
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

    #[test]
    fn always_runs_full_budget() {
        let space = SearchSpace::builder()
            .continuous("x", 0.0, 1.0, Scale::Linear)
            .build()
            .unwrap();
        let mut rs = RandomSearch::new(space, 100.0);
        let mut rng = StdRng::seed_from_u64(0);
        for i in 0..10 {
            let job = rs.suggest(&mut rng).job().unwrap();
            assert_eq!(job.resource, 100.0);
            assert_eq!(job.rung, 0);
            assert_eq!(job.trial, TrialId(i));
            rs.observe(Observation::for_job(&job, 1.0 / (i + 1) as f64));
        }
        assert_eq!(rs.completed(), 10);
        assert!((rs.best_loss() - 0.1).abs() < 1e-12);
        assert_eq!(rs.name(), "Random");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_budget_rejected() {
        let space = SearchSpace::builder()
            .continuous("x", 0.0, 1.0, Scale::Linear)
            .build()
            .unwrap();
        let _ = RandomSearch::new(space, 0.0);
    }
}
