use asha_space::{Config, SearchSpace};

/// The fidelity a proposed configuration will first be evaluated at: the
/// rung index and its resource level. Multi-fidelity samplers (A-BOHB style)
/// use it to condition their model on the rung whose observations are most
/// informative for the proposal; single-fidelity samplers ignore it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fidelity {
    /// Rung index the new configuration enters at (0 for ASHA's bottom rung).
    pub rung: usize,
    /// Resource level of that rung.
    pub resource: f64,
}

impl Fidelity {
    /// Fidelity of the base rung at resource `r`.
    pub(crate) fn base(resource: f64) -> Self {
        Fidelity { rung: 0, resource }
    }
}

/// Strategy for proposing new configurations to try in the bottom rung.
///
/// SHA and ASHA sample uniformly at random ([`RandomSampler`]); BOHB swaps in
/// a Tree-structured Parzen Estimator (`asha_baselines::TpeSampler`) — per
/// the paper, "BOHB uses SHA to perform early-stopping and differs only in
/// how configurations are sampled".
pub trait ConfigSampler: Send {
    /// Propose the next configuration to evaluate.
    fn propose(&mut self, space: &SearchSpace, rng: &mut dyn rand::RngCore) -> Config;

    /// Propose the next configuration for evaluation at a known fidelity.
    /// Schedulers call this (not [`ConfigSampler::propose`]) so that
    /// multi-fidelity samplers can condition on the target rung; the default
    /// ignores the fidelity, which keeps single-fidelity samplers (including
    /// [`RandomSampler`]) byte-for-byte identical in RNG consumption to the
    /// plain propose path.
    fn propose_at(
        &mut self,
        space: &SearchSpace,
        fidelity: Fidelity,
        rng: &mut dyn rand::RngCore,
    ) -> Config {
        let _ = fidelity;
        self.propose(space, rng)
    }

    /// Feed back an observed result so adaptive samplers can update their
    /// model. `rung` and `resource` identify the fidelity of the loss.
    fn record(&mut self, config: &Config, rung: usize, resource: f64, loss: f64);

    /// Whether this sampler consumes [`ConfigSampler::record`] calls at all.
    /// Schedulers use this to skip the per-observation config lookup on the
    /// hot path; samplers whose `record` is a no-op return `false`.
    fn wants_reports(&self) -> bool {
        true
    }

    /// Name used to label experiment output (e.g. `"random"`, `"tpe"`).
    fn name(&self) -> &str {
        "sampler"
    }

    /// Serialize the sampler's internal cursor (model state, observation
    /// buffer) for durable snapshots. The format is sampler-defined and
    /// opaque to the caller; stateless samplers return `None` (the default).
    fn export_cursor(&self) -> Option<String> {
        None
    }

    /// Restore a cursor previously produced by
    /// [`ConfigSampler::export_cursor`]. Stateless samplers ignore it (the
    /// default).
    fn restore_cursor(&mut self, _cursor: &str) {}
}

/// Uniform random sampling over the search space — the sampler of SHA, ASHA,
/// Hyperband, and random search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RandomSampler;

impl RandomSampler {
    /// Create a random sampler.
    pub fn new() -> Self {
        RandomSampler
    }
}

impl ConfigSampler for RandomSampler {
    fn propose(&mut self, space: &SearchSpace, rng: &mut dyn rand::RngCore) -> Config {
        space.sample(rng)
    }

    fn record(&mut self, _config: &Config, _rung: usize, _resource: f64, _loss: f64) {}

    fn wants_reports(&self) -> bool {
        false
    }

    fn name(&self) -> &str {
        "random"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asha_space::Scale;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_sampler_draws_from_space() {
        let space = SearchSpace::builder()
            .continuous("x", 0.0, 1.0, Scale::Linear)
            .build()
            .unwrap();
        let mut s = RandomSampler::new();
        let mut rng = StdRng::seed_from_u64(0);
        let c = s.propose(&space, &mut rng);
        let x = c.float("x", &space).unwrap();
        assert!((0.0..=1.0).contains(&x));
        // record is a no-op but must not panic.
        s.record(&c, 0, 1.0, 0.5);
        assert_eq!(s.name(), "random");
    }

    #[test]
    fn sampler_is_object_safe() {
        let _boxed: Box<dyn ConfigSampler> = Box::new(RandomSampler::new());
    }
}
