use asha_math::dist::normal;
use asha_space::{Config, SearchSpace};

/// The evolving state of one training run.
///
/// The state is Markovian *and config-free*: it stores the current loss plus
/// run-level randomness (weight-init luck, data order, divergence luck), but
/// no config-derived quantities. [`BenchmarkModel::advance`] recomputes the
/// target asymptote and rate from the configuration every call, so copying a
/// state across configurations — exactly what PBT's exploit step does when
/// it copies weights — behaves correctly: the child resumes from the
/// parent's loss and converges toward *its own* asymptote.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingState {
    /// Cumulative resource this run has been trained for.
    pub resource: f64,
    /// Current (noise-free) training loss.
    pub loss: f64,
    /// Run-level additive jitter on the asymptotic loss (weight-init luck).
    pub asym_jitter: f64,
    /// Run-level multiplicative jitter on the convergence rate.
    pub rate_jitter: f64,
    /// Run-level uniform draw deciding if/when the run diverges.
    pub divergence_draw: f64,
    /// Whether the run has diverged.
    pub diverged: bool,
}

impl TrainingState {}

/// Precomputed per-configuration response of a benchmark: everything the
/// simulator needs to advance a run and score it, with the config-dependent
/// parts (unit-space projection, quality/rate/gap field evaluations, cost
/// model) already folded into plain numbers.
///
/// The hot loop of a large simulation evaluates the same configuration's
/// response at every rung a trial reaches; recomputing the smooth
/// pseudo-random fields each time dominated benchmark cost. A profile is
/// computed once per trial via [`BenchmarkModel::profile`] and then evaluated
/// with no trait dispatch at all. Its methods are **bitwise-identical** to
/// the corresponding [`BenchmarkModel`] methods — the simulator's snapshot
/// tests rely on caching being unobservable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfigProfile {
    /// The benchmark's maximum resource `R`.
    pub max_resource: f64,
    /// Asymptotic loss of this configuration before run jitter.
    pub asym_base: f64,
    /// Lower clamp applied to the jittered asymptote.
    pub asym_floor: f64,
    /// Convergence rate of this configuration before run jitter.
    pub rate: f64,
    /// Standard deviation of validation-loss observation noise.
    pub noise_std: f64,
    /// Deterministic generalization gap added by `test_loss`.
    pub gap: f64,
    /// Upper clamp applied to reported losses.
    pub loss_cap: f64,
    /// Probability that a run of this configuration diverges.
    pub diverge_p: f64,
    /// Loss reported by a diverged run.
    pub diverge_magnitude: f64,
    /// Wall-clock time per unit of resource for this configuration.
    pub time_per_unit: f64,
}

impl ConfigProfile {
    fn clamp_loss(&self, loss: f64) -> f64 {
        loss.clamp(0.0, self.loss_cap)
    }

    /// Train from `state.resource` up to `target_resource`; bitwise-equal
    /// to the originating model's [`BenchmarkModel::advance`].
    pub fn advance(&self, state: &mut TrainingState, target_resource: f64) {
        let target = target_resource.min(self.max_resource);
        if target <= state.resource || state.diverged {
            state.resource = state.resource.max(target);
            return;
        }
        // Higher risk diverges earlier; always within the first half of
        // training, like real learning-rate blowups.
        let p = self.diverge_p;
        if p > 0.0
            && state.divergence_draw < p
            && (state.divergence_draw / p) * 0.5 * self.max_resource <= target
        {
            state.diverged = true;
            state.loss = self.diverge_magnitude;
            state.resource = target;
            return;
        }
        let asym = (self.asym_base + state.asym_jitter).max(self.asym_floor);
        let rate = self.rate * state.rate_jitter;
        let delta = (target - state.resource) / self.max_resource;
        state.loss = asym + (state.loss - asym) * (-rate * delta).exp();
        state.resource = target;
    }

    /// Validation loss of the current state; draws the same noise from the
    /// same RNG stream as [`BenchmarkModel::validation_loss`].
    pub fn validation_loss(&self, state: &TrainingState, rng: &mut dyn rand::RngCore) -> f64 {
        if state.diverged {
            return self.clamp_loss(state.loss);
        }
        self.clamp_loss(state.loss + normal(rng, 0.0, self.noise_std))
    }

    /// Test loss of the current state; equals
    /// [`BenchmarkModel::test_loss`].
    pub fn test_loss(&self, state: &TrainingState) -> f64 {
        if state.diverged {
            return self.clamp_loss(state.loss);
        }
        self.clamp_loss(state.loss + self.gap)
    }
}

/// A tunable benchmark: the substitute for `run_then_return_val_loss` in
/// Algorithms 1–2.
///
/// Implementations must be cheap to evaluate (they are called millions of
/// times by the simulator) and deterministic given the RNG stream.
pub trait BenchmarkModel: Send + Sync {
    /// The hyperparameter search space being tuned.
    fn space(&self) -> &SearchSpace;

    /// The maximum resource `R` a configuration can be trained for.
    fn max_resource(&self) -> f64;

    /// Start a new training run of `config`. Run-level randomness (weight
    /// initialization, data order) is drawn here, so two runs of the same
    /// configuration differ slightly.
    fn init_state(&self, config: &Config, rng: &mut dyn rand::RngCore) -> TrainingState;

    /// Train from `state.resource` up to `target_resource` (no-op if the
    /// state is already past the target).
    fn advance(
        &self,
        config: &Config,
        state: &mut TrainingState,
        target_resource: f64,
        rng: &mut dyn rand::RngCore,
    );

    /// Validation loss of the current state: the noise-free loss plus
    /// evaluation noise. This is what schedulers observe.
    fn validation_loss(
        &self,
        config: &Config,
        state: &TrainingState,
        rng: &mut dyn rand::RngCore,
    ) -> f64;

    /// Test loss of the current state: the noise-free loss plus a
    /// deterministic generalization gap. Experiments report this for the
    /// incumbent; schedulers never see it.
    fn test_loss(&self, config: &Config, state: &TrainingState) -> f64;

    /// Wall-clock time to train `config` for one unit of resource,
    /// excluding straggler noise (the simulator adds that). Deterministic
    /// per config.
    fn time_per_unit(&self, config: &Config) -> f64;

    /// Wall-clock time to train `config` from scratch to the full resource
    /// `R`: `time_per_unit * R`.
    fn time_full(&self, config: &Config) -> f64 {
        self.time_per_unit(config) * self.max_resource()
    }

    /// Precompute this configuration's full response as a
    /// [`ConfigProfile`], or `None` if the model cannot (the simulator then
    /// falls back to the per-call methods). Implementations must guarantee
    /// the profile's methods are bitwise-identical to their own.
    fn profile(&self, config: &Config) -> Option<ConfigProfile> {
        let _ = config;
        None
    }

    /// A short name for experiment output.
    fn name(&self) -> &str {
        "benchmark"
    }
}
