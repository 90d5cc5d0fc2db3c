//! The parametric learning-curve benchmark: a response surface over the
//! search space plus exponential-decay training dynamics.

use asha_math::dist::normal;
use asha_space::{Config, SearchSpace};
use rand::{Rng, SeedableRng};

use crate::model::{BenchmarkModel, ConfigProfile, TrainingState};
use crate::pseudo::SmoothPseudo;

/// Divergence behaviour: configurations whose `dim`-th unit coordinate
/// exceeds `threshold` risk diverging, producing losses "orders of magnitude
/// larger than the average case" (Section 4.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DivergenceSpec {
    /// Index of the hyperparameter that drives divergence (typically the
    /// learning rate).
    pub dim: usize,
    /// Unit-space coordinate above which divergence risk turns on.
    pub threshold: f64,
    /// Loss reported by a diverged run.
    pub magnitude: f64,
}

/// A synthetic benchmark built from
///
/// * a multi-modal **quality surface** `q: [0,1]^d -> [0,1]` (weighted
///   anisotropic distance from an optimum, plus a smooth pseudo-random
///   field),
/// * an **asymptote** `floor + range * q(u)` with per-run jitter,
/// * exponential **training dynamics**
///   `loss' = asym + (loss - asym) * exp(-rate * Δr / R)`,
/// * a config-dependent **cost model**
///   `time_per_unit = (cost_base / R) * exp(Σ cw_i (u_i - 0.5))`, and
/// * optional **divergence** for pathological configurations.
///
/// Construct via [`CurveBenchmark::builder`].
#[derive(Debug, Clone)]
pub struct CurveBenchmark {
    name: String,
    space: SearchSpace,
    max_resource: f64,
    opt: Vec<f64>,
    weights: Vec<f64>,
    asym_up: Vec<f64>,
    sharpness: f64,
    roughness: f64,
    quality_field: SmoothPseudo,
    rate_field: SmoothPseudo,
    gap_field: SmoothPseudo,
    floor: f64,
    range: f64,
    init_loss: f64,
    rate_base: f64,
    rate_span: f64,
    rate_quality_coupling: f64,
    noise_std: f64,
    jitter_std: f64,
    gap_frac: f64,
    cost_base: f64,
    cost_weights: Vec<f64>,
    divergence: Option<DivergenceSpec>,
    loss_cap: f64,
}

impl CurveBenchmark {
    /// Start building a benchmark over `space` with maximum resource `R`,
    /// deterministic for the given `seed`.
    pub fn builder(
        name: &str,
        space: SearchSpace,
        max_resource: f64,
        seed: u64,
    ) -> CurveBenchmarkBuilder {
        CurveBenchmarkBuilder::new(name, space, max_resource, seed)
    }

    /// The noise-free asymptotic loss of a configuration (no run jitter):
    /// the ground-truth quality the tuner is trying to find.
    pub fn asymptote(&self, config: &Config) -> f64 {
        self.profile_of(config).asym_base
    }

    /// The noise-free convergence rate of a configuration.
    pub fn convergence_rate(&self, config: &Config) -> f64 {
        self.profile_of(config).rate
    }

    /// Probability that a run of this configuration diverges.
    pub fn divergence_probability(&self, config: &Config) -> f64 {
        self.profile_of(config).diverge_p
    }

    /// The one place each formula of the curve lives: `config`'s response
    /// as a [`ConfigProfile`]. [`BenchmarkModel::profile`], the per-call
    /// methods and the accessors above all evaluate through it, so profiled
    /// and unprofiled evaluation agree bit for bit by construction.
    fn profile_of(&self, config: &Config) -> ConfigProfile {
        let u = self
            .space
            .to_unit(config)
            .expect("config must come from this benchmark's space");
        let quality = self.quality(&u);
        // Better configurations converge faster as well as lower — the
        // coupling that makes partial losses informative of final quality,
        // which real learning curves exhibit (and which early stopping
        // fundamentally relies on).
        let rate = self.rate_base
            * (self.rate_span * (self.rate_field.eval(&u) - 0.5)).exp()
            * (self.rate_quality_coupling * (0.5 - quality)).exp();
        let diverge_p = self.divergence.map_or(0.0, |spec| {
            let x = u[spec.dim];
            if x <= spec.threshold {
                0.0
            } else {
                ((x - spec.threshold) / (1.0 - spec.threshold)).clamp(0.0, 1.0)
            }
        });
        let mut exponent = 0.0;
        for (i, &ui) in u.iter().enumerate() {
            exponent += self.cost_weights.get(i).copied().unwrap_or(0.0) * (ui - 0.5);
        }
        ConfigProfile {
            max_resource: self.max_resource,
            asym_base: self.floor + self.range * quality,
            asym_floor: self.floor * 0.5,
            rate,
            noise_std: self.noise_std,
            gap: self.gap_frac * self.range * self.gap_field.eval(&u),
            loss_cap: self.loss_cap,
            diverge_p,
            diverge_magnitude: self.divergence.map_or(0.0, |s| s.magnitude),
            time_per_unit: (self.cost_base / self.max_resource) * exponent.exp(),
        }
    }

    fn quality(&self, u: &[f64]) -> f64 {
        let mut total = 0.0;
        let mut wsum = 0.0;
        for (i, (&ui, &oi)) in u.iter().zip(&self.opt).enumerate() {
            let d = ui - oi;
            let w = self.weights[i];
            // Asymmetric penalty: overshooting (e.g. too-high learning rate)
            // can be configured to hurt more than undershooting.
            let asym = if d > 0.0 { 1.0 + self.asym_up[i] } else { 1.0 };
            total += w * asym * d * d;
            wsum += w;
        }
        let bowl = if wsum > 0.0 { total / wsum } else { 0.0 };
        let rough = self.roughness * (self.quality_field.eval(u) - 0.5);
        (self.sharpness * bowl + rough).clamp(0.0, 1.0)
    }
}

impl BenchmarkModel for CurveBenchmark {
    fn space(&self) -> &SearchSpace {
        &self.space
    }

    fn max_resource(&self) -> f64 {
        self.max_resource
    }

    fn init_state(&self, _config: &Config, rng: &mut dyn rand::RngCore) -> TrainingState {
        TrainingState {
            resource: 0.0,
            loss: self.init_loss,
            asym_jitter: normal(rng, 0.0, self.jitter_std),
            rate_jitter: normal(rng, 0.0, 0.15).exp(),
            divergence_draw: rng.gen::<f64>(),
            diverged: false,
        }
    }

    fn advance(
        &self,
        config: &Config,
        state: &mut TrainingState,
        target_resource: f64,
        _rng: &mut dyn rand::RngCore,
    ) {
        self.profile_of(config).advance(state, target_resource);
    }

    fn validation_loss(
        &self,
        config: &Config,
        state: &TrainingState,
        rng: &mut dyn rand::RngCore,
    ) -> f64 {
        self.profile_of(config).validation_loss(state, rng)
    }

    fn test_loss(&self, config: &Config, state: &TrainingState) -> f64 {
        self.profile_of(config).test_loss(state)
    }

    fn time_per_unit(&self, config: &Config) -> f64 {
        self.profile_of(config).time_per_unit
    }

    fn profile(&self, config: &Config) -> Option<ConfigProfile> {
        Some(self.profile_of(config))
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Builder for [`CurveBenchmark`]; see the crate docs for the modelling
/// background. All setters have sensible defaults, so presets only override
/// what each paper benchmark needs.
#[derive(Debug, Clone)]
pub struct CurveBenchmarkBuilder {
    inner: CurveBenchmark,
}

impl CurveBenchmarkBuilder {
    fn new(name: &str, space: SearchSpace, max_resource: f64, seed: u64) -> Self {
        assert!(max_resource > 0.0, "maximum resource must be positive");
        let dims = space.len().max(1);
        // Default optimum: deterministic interior point per seed.
        let mut r = rand::rngs::StdRng::seed_from_u64(seed.wrapping_mul(0x517c_c1b7_2722_0a95));
        let opt: Vec<f64> = (0..dims).map(|_| 0.2 + 0.6 * r.gen::<f64>()).collect();
        CurveBenchmarkBuilder {
            inner: CurveBenchmark {
                name: name.to_owned(),
                space,
                max_resource,
                opt,
                weights: vec![1.0; dims],
                asym_up: vec![0.0; dims],
                sharpness: 2.5,
                roughness: 0.15,
                quality_field: SmoothPseudo::new(seed ^ 0x01, dims, 5),
                rate_field: SmoothPseudo::new(seed ^ 0x02, dims, 4),
                gap_field: SmoothPseudo::new(seed ^ 0x03, dims, 4),
                floor: 0.1,
                range: 0.4,
                init_loss: 0.9,
                rate_base: 8.0,
                rate_span: 1.2,
                rate_quality_coupling: 0.6,
                noise_std: 0.01,
                jitter_std: 0.01,
                gap_frac: 0.08,
                cost_base: 1.0,
                cost_weights: vec![0.0; dims],
                divergence: None,
                loss_cap: 1.0,
            },
        }
    }

    /// Optimum location in unit space (one entry per dimension).
    ///
    /// # Panics
    ///
    /// Panics if the length does not match the space dimensionality.
    pub(crate) fn optimum(mut self, opt: &[f64]) -> Self {
        assert_eq!(opt.len(), self.inner.space.len(), "optimum dimensionality");
        self.inner.opt = opt.to_vec();
        self
    }

    /// Per-dimension quality weights (importance of each hyperparameter).
    ///
    /// # Panics
    ///
    /// Panics if the length does not match the space dimensionality.
    pub(crate) fn weights(mut self, w: &[f64]) -> Self {
        assert_eq!(w.len(), self.inner.space.len(), "weights dimensionality");
        self.inner.weights = w.to_vec();
        self
    }

    /// Extra penalty multiplier for overshooting dimension `dim` (e.g. 3.0
    /// makes too-high learning rates much worse than too-low ones).
    pub(crate) fn asymmetric(mut self, dim: usize, up_penalty: f64) -> Self {
        self.inner.asym_up[dim] = up_penalty;
        self
    }

    /// Loss range: asymptotes lie in `[floor, floor + range]` (before
    /// jitter); `init_loss` is the untrained loss; `cap` clamps outputs.
    pub(crate) fn losses(mut self, floor: f64, range: f64, init_loss: f64, cap: f64) -> Self {
        assert!(
            range > 0.0 && floor >= 0.0 && cap > floor,
            "invalid loss shape"
        );
        self.inner.floor = floor;
        self.inner.range = range;
        self.inner.init_loss = init_loss;
        self.inner.loss_cap = cap;
        self
    }

    /// Quality-surface shape: `sharpness` scales the distance bowl,
    /// `roughness` the pseudo-random field's amplitude.
    pub(crate) fn shape(mut self, sharpness: f64, roughness: f64) -> Self {
        self.inner.sharpness = sharpness;
        self.inner.roughness = roughness;
        self
    }

    /// Convergence dynamics: `rate_base` is the median exponential rate per
    /// full-`R` of training; `rate_span` the log-spread across configs.
    pub(crate) fn dynamics(mut self, rate_base: f64, rate_span: f64) -> Self {
        assert!(rate_base > 0.0, "rate must be positive");
        self.inner.rate_base = rate_base;
        self.inner.rate_span = rate_span;
        self
    }

    /// How strongly convergence speed correlates with final quality
    /// (log-rate bonus for a quality-0 config relative to a quality-1 one
    /// is `2 * coupling`). Zero decouples them entirely, making early
    /// losses rank configurations by speed rather than quality.
    pub(crate) fn rate_quality_coupling(mut self, coupling: f64) -> Self {
        self.inner.rate_quality_coupling = coupling;
        self
    }

    /// Observation noise (std of validation loss) and run-level jitter (std
    /// of the per-run asymptote shift).
    pub fn noise(mut self, noise_std: f64, jitter_std: f64) -> Self {
        self.inner.noise_std = noise_std;
        self.inner.jitter_std = jitter_std;
        self
    }

    /// Generalization gap: test loss exceeds validation loss by up to
    /// `gap_frac * range`.
    pub(crate) fn gap(mut self, gap_frac: f64) -> Self {
        self.inner.gap_frac = gap_frac;
        self
    }

    /// Cost model: training the *median* config to `R` takes `time_full`
    /// wall-clock units; per-dimension log-weights make expensive regions
    /// (large models, small batches) slower.
    ///
    /// # Panics
    ///
    /// Panics if the weight length does not match the space dimensionality.
    pub fn cost(mut self, time_full: f64, cost_weights: &[f64]) -> Self {
        assert!(time_full > 0.0, "cost must be positive");
        assert_eq!(
            cost_weights.len(),
            self.inner.space.len(),
            "cost weights dimensionality"
        );
        self.inner.cost_base = time_full;
        self.inner.cost_weights = cost_weights.to_vec();
        self
    }

    /// Enable divergence for configurations with a high coordinate on `dim`.
    pub(crate) fn divergence(mut self, spec: DivergenceSpec) -> Self {
        assert!(spec.dim < self.inner.space.len(), "divergence dim in range");
        self.inner.divergence = Some(spec);
        self
    }

    /// Finish building.
    pub fn build(self) -> CurveBenchmark {
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asha_math::stats::spearman;
    use asha_space::Scale;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bench() -> CurveBenchmark {
        let space = SearchSpace::builder()
            .continuous("lr", 1e-4, 1.0, Scale::Log)
            .continuous("reg", 1e-5, 1.0, Scale::Log)
            .build()
            .unwrap();
        CurveBenchmark::builder("test", space, 100.0, 11)
            .losses(0.1, 0.4, 0.9, 1.0)
            .noise(0.005, 0.005)
            .build()
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn loss_decreases_monotonically_toward_asymptote() {
        let b = bench();
        let mut r = rng();
        let c = b.space().sample(&mut r);
        let mut state = b.init_state(&c, &mut r);
        let mut prev = state.loss;
        for step in 1..=10 {
            b.advance(&c, &mut state, step as f64 * 10.0, &mut r);
            assert!(state.loss <= prev + 1e-12, "loss increased at step {step}");
            prev = state.loss;
        }
        let asym = b.asymptote(&c);
        assert!(
            (state.loss - asym).abs() < 0.2,
            "loss {} vs asym {asym}",
            state.loss
        );
    }

    #[test]
    fn advance_is_idempotent_past_target() {
        let b = bench();
        let mut r = rng();
        let c = b.space().sample(&mut r);
        let mut state = b.init_state(&c, &mut r);
        b.advance(&c, &mut state, 50.0, &mut r);
        let snapshot = state;
        b.advance(&c, &mut state, 30.0, &mut r); // earlier target: no-op
        assert_eq!(state, snapshot);
    }

    #[test]
    fn incremental_equals_single_shot() {
        // Markov property: 0->30->100 must equal 0->100 exactly.
        let b = bench();
        let mut r = rng();
        let c = b.space().sample(&mut r);
        let s0 = b.init_state(&c, &mut r);
        let mut a = s0;
        b.advance(&c, &mut a, 30.0, &mut r);
        b.advance(&c, &mut a, 100.0, &mut r);
        let mut d = s0;
        b.advance(&c, &mut d, 100.0, &mut r);
        assert!((a.loss - d.loss).abs() < 1e-12);
    }

    #[test]
    fn partial_losses_rank_correlate_with_final() {
        let b = bench();
        let mut r = rng();
        let mut early = Vec::new();
        let mut fin = Vec::new();
        for _ in 0..200 {
            let c = b.space().sample(&mut r);
            let mut s = b.init_state(&c, &mut r);
            b.advance(&c, &mut s, 25.0, &mut r);
            early.push(s.loss);
            b.advance(&c, &mut s, 100.0, &mut r);
            fin.push(s.loss);
        }
        let rho = spearman(&early, &fin);
        assert!(rho > 0.65, "early/final rank correlation too weak: {rho}");
        assert!(rho < 0.999, "correlation suspiciously perfect: {rho}");
    }

    #[test]
    fn better_asymptote_means_better_final_loss() {
        let b = bench();
        let mut r = rng();
        let mut pairs = Vec::new();
        for _ in 0..100 {
            let c = b.space().sample(&mut r);
            let mut s = b.init_state(&c, &mut r);
            b.advance(&c, &mut s, 100.0, &mut r);
            pairs.push((b.asymptote(&c), s.loss));
        }
        let (a, l): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        assert!(spearman(&a, &l) > 0.9);
    }

    #[test]
    fn quality_surface_spans_a_useful_range() {
        let b = bench();
        let mut r = rng();
        let asyms: Vec<f64> = (0..500)
            .map(|_| b.asymptote(&b.space().sample(&mut r)))
            .collect();
        let best = asyms.iter().copied().fold(f64::INFINITY, f64::min);
        let worst = asyms.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(best < 0.2, "best asymptote {best} not near the floor");
        assert!(worst > 0.35, "worst asymptote {worst} not spread out");
    }

    #[test]
    fn validation_noise_is_small_but_present() {
        let b = bench();
        let mut r = rng();
        let c = b.space().sample(&mut r);
        let mut s = b.init_state(&c, &mut r);
        b.advance(&c, &mut s, 100.0, &mut r);
        let v1 = b.validation_loss(&c, &s, &mut r);
        let v2 = b.validation_loss(&c, &s, &mut r);
        assert_ne!(v1, v2);
        assert!((v1 - s.loss).abs() < 0.05);
    }

    #[test]
    fn test_loss_has_nonnegative_gap_and_is_deterministic() {
        let b = bench();
        let mut r = rng();
        let c = b.space().sample(&mut r);
        let mut s = b.init_state(&c, &mut r);
        b.advance(&c, &mut s, 100.0, &mut r);
        let t1 = b.test_loss(&c, &s);
        let t2 = b.test_loss(&c, &s);
        assert_eq!(t1, t2);
        assert!(t1 >= s.loss);
    }

    #[test]
    fn cost_varies_with_config_when_weighted() {
        let space = SearchSpace::builder()
            .discrete("layers", 1, 8)
            .continuous("lr", 1e-3, 1.0, Scale::Log)
            .build()
            .unwrap();
        let b = CurveBenchmark::builder("cost", space, 10.0, 3)
            .cost(30.0, &[1.5, 0.0])
            .build();
        let mut r = rng();
        let times: Vec<f64> = (0..200)
            .map(|_| b.time_full(&b.space().sample(&mut r)))
            .collect();
        let mean = asha_math::stats::mean(&times);
        let std = asha_math::stats::std_dev(&times);
        assert!(std / mean > 0.2, "cost variation too small: {std}/{mean}");
        // All positive, centered near the nominal 30.
        assert!(times.iter().all(|&t| t > 0.0));
        assert!((mean - 30.0).abs() / 30.0 < 0.5, "mean time {mean}");
    }

    #[test]
    fn divergence_only_hits_risky_configs() {
        let space = SearchSpace::builder()
            .continuous("lr", 1e-4, 1.0, Scale::Log)
            .build()
            .unwrap();
        let b = CurveBenchmark::builder("div", space, 100.0, 5)
            .losses(50.0, 200.0, 1000.0, 1e5)
            .divergence(DivergenceSpec {
                dim: 0,
                threshold: 0.8,
                magnitude: 5e4,
            })
            .build();
        let mut r = rng();
        let safe = b.space().from_unit(&[0.5]);
        assert_eq!(b.divergence_probability(&safe), 0.0);
        let risky = b.space().from_unit(&[0.99]);
        assert!(b.divergence_probability(&risky) > 0.9);
        // A risky run actually diverges.
        let mut diverged_any = false;
        for _ in 0..20 {
            let mut s = b.init_state(&risky, &mut r);
            b.advance(&risky, &mut s, 100.0, &mut r);
            if s.diverged {
                assert_eq!(s.loss, 5e4);
                diverged_any = true;
            }
        }
        assert!(diverged_any);
        // A safe run never does.
        let mut s = b.init_state(&safe, &mut r);
        b.advance(&safe, &mut s, 100.0, &mut r);
        assert!(!s.diverged);
    }

    #[test]
    fn pbt_style_state_copy_converges_to_new_configs_asymptote() {
        let b = bench();
        let mut r = rng();
        let good = b.space().from_unit(&[0.45, 0.45]);
        let bad = b.space().from_unit(&[0.95, 0.95]);
        // Train the bad config halfway, then "copy weights" and continue
        // under the good config.
        let mut s = b.init_state(&bad, &mut r);
        b.advance(&bad, &mut s, 50.0, &mut r);
        let mut inherited = s;
        b.advance(&good, &mut inherited, 100.0, &mut r);
        let target = b.asymptote(&good);
        assert!(
            (inherited.loss - target).abs() < 0.25,
            "inherited loss {} should head toward {target}",
            inherited.loss
        );
        // And it beats continuing under the bad config.
        let mut stayed = s;
        b.advance(&bad, &mut stayed, 100.0, &mut r);
        assert!(inherited.loss < stayed.loss);
    }

    #[test]
    fn asymmetric_penalty_punishes_overshoot() {
        let space = SearchSpace::builder()
            .continuous("lr", 1e-4, 1.0, Scale::Log)
            .build()
            .unwrap();
        let b = CurveBenchmark::builder("asym", space, 10.0, 2)
            .optimum(&[0.5])
            .shape(2.5, 0.0)
            .asymmetric(0, 4.0)
            .build();
        let under = b.asymptote(&b.space().from_unit(&[0.3]));
        let over = b.asymptote(&b.space().from_unit(&[0.7]));
        assert!(
            over > under,
            "overshoot {over} must exceed undershoot {under}"
        );
    }

    #[test]
    fn deterministic_across_instances_with_same_seed() {
        let a = bench();
        let b = bench();
        let c = a.space().from_unit(&[0.3, 0.6]);
        assert_eq!(a.asymptote(&c), b.asymptote(&c));
        assert_eq!(a.convergence_rate(&c), b.convergence_rate(&c));
        assert_eq!(a.time_per_unit(&c), b.time_per_unit(&c));
    }
}
