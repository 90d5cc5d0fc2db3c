//! A rung-conditioned Gaussian-process EI sampler — GP-EI as a pluggable
//! [`ConfigSampler`], the async counterpart of the [`crate::vizier`]
//! scheduler's model.
//!
//! Observations are grouped by rung, exactly like [`crate::TpeSampler`]; a
//! proposal fits a GP to the *highest* rung with enough observations (the
//! A-BOHB conditioning: higher-fidelity losses dominate as soon as enough of
//! them exist) and maximizes expected improvement over random candidates.
//! Losses from different rungs are never mixed into one model — a rung-0
//! loss and a rung-3 loss of the same configuration are different
//! quantities.
//!
//! The model is refit from the observation buffer on every proposal, which
//! keeps the sampler a pure function of `(by_rung, rng)` — that purity is
//! what makes the serialized cursor (the buffer alone) sufficient for
//! byte-identical crash recovery. The fit cost is bounded by
//! [`GpSamplerConfig::max_model_points`].

use std::collections::BTreeMap;

use asha_core::ConfigSampler;
use asha_math::{expected_improvement, Gp, GpConfig};
use asha_space::{Config, SearchSpace};
use rand::Rng;

use crate::cursor::{decode_by_rung, encode_by_rung, rows_fit};

/// Version header of the GP sampler cursor format.
const CURSOR_HEADER: &str = "gp-v1";

/// Tuning knobs of [`GpSampler`].
#[derive(Debug, Clone, PartialEq)]
pub struct GpSamplerConfig {
    /// Minimum observations at a rung before it is modelled; below this the
    /// sampler falls back to uniform random. Zero means "auto" (`d + 3`).
    pub min_points: usize,
    /// Random candidates scored by EI per proposal.
    pub candidates: usize,
    /// At most this many (most recent) observations enter the GP — bounds
    /// the `O(n^3)` Cholesky per proposal.
    pub max_model_points: usize,
    /// Probability of proposing a uniform random configuration anyway,
    /// keeping exploration alive once the model takes over.
    pub random_fraction: f64,
}

impl Default for GpSamplerConfig {
    fn default() -> Self {
        GpSamplerConfig {
            min_points: 0,
            candidates: 64,
            max_model_points: 200,
            random_fraction: 0.25,
        }
    }
}

/// GP-EI as a [`ConfigSampler`]; see the module docs.
#[derive(Debug, Clone)]
pub struct GpSampler {
    space: SearchSpace,
    config: GpSamplerConfig,
    /// Observations per rung: unit-space points and losses.
    by_rung: BTreeMap<usize, Vec<(Vec<f64>, f64)>>,
}

impl GpSampler {
    /// Create a GP-EI sampler over `space` with the given knobs.
    pub fn new(space: SearchSpace, config: GpSamplerConfig) -> Self {
        GpSampler {
            space,
            config,
            by_rung: BTreeMap::new(),
        }
    }

    fn min_points(&self) -> usize {
        if self.config.min_points > 0 {
            self.config.min_points
        } else {
            self.space.len() + 3
        }
    }

    /// The highest rung with enough observations to model, if any.
    fn model_rung(&self) -> Option<usize> {
        let need = self.min_points();
        self.by_rung
            .iter()
            .rev()
            .find(|(_, obs)| obs.len() >= need)
            .map(|(&rung, _)| rung)
    }
}

/// The EI step of this sampler and [`crate::vizier`]'s: the first of
/// `candidates` uniform points whose expected improvement on `best` is a
/// strict maximum, or a uniform sample if none beats `-inf`.
pub(crate) fn ei_argmax(
    model: &Gp,
    best: f64,
    candidates: usize,
    space: &SearchSpace,
    rng: &mut dyn rand::RngCore,
) -> Config {
    let mut argmax = (f64::NEG_INFINITY, None);
    for _ in 0..candidates {
        let u: Vec<f64> = (0..space.len()).map(|_| rng.gen::<f64>()).collect();
        let (mu, var) = model.predict(&u);
        let ei = expected_improvement(mu, var, best);
        if ei > argmax.0 {
            argmax = (ei, Some(u));
        }
    }
    match argmax.1 {
        Some(u) => space.from_unit(&u),
        None => space.sample(rng),
    }
}

impl ConfigSampler for GpSampler {
    fn propose(&mut self, space: &SearchSpace, rng: &mut dyn rand::RngCore) -> Config {
        if rng.gen::<f64>() < self.config.random_fraction {
            return space.sample(rng);
        }
        let Some(rung) = self.model_rung() else {
            return space.sample(rng);
        };
        let obs = &self.by_rung[&rung];
        let start = obs.len().saturating_sub(self.config.max_model_points);
        let xs: Vec<Vec<f64>> = obs[start..].iter().map(|(u, _)| u.clone()).collect();
        // Infinite losses would poison the GP's target standardization;
        // store a large finite proxy instead (mirrors Vizier's capping).
        let ys: Vec<f64> = obs[start..].iter().map(|&(_, l)| l.min(1e9)).collect();
        let Ok(model) = Gp::fit(&xs, &ys, GpConfig::default()) else {
            return space.sample(rng);
        };
        let best = ys.iter().copied().fold(f64::INFINITY, f64::min);
        ei_argmax(&model, best, self.config.candidates, space, rng)
    }

    fn record(&mut self, config: &Config, rung: usize, _resource: f64, loss: f64) {
        // A config from a foreign space cannot be embedded; drop it rather
        // than corrupting the model.
        if let Ok(u) = self.space.to_unit(config) {
            self.by_rung
                .entry(rung)
                .or_default()
                .push((u, if loss.is_nan() { f64::INFINITY } else { loss }));
        }
    }

    fn name(&self) -> &str {
        "gp"
    }

    fn export_cursor(&self) -> Option<String> {
        Some(encode_by_rung(CURSOR_HEADER, &self.by_rung))
    }

    fn restore_cursor(&mut self, cursor: &str) {
        if let Some(by_rung) = decode_by_rung(CURSOR_HEADER, cursor)
            .filter(|by_rung| rows_fit(by_rung, self.space.len()))
        {
            self.by_rung = by_rung;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::ByRung;
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
    fn falls_back_to_random_without_data() {
        let s = space();
        let mut gp = GpSampler::new(s.clone(), GpSamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(0);
        let c = gp.propose(&s, &mut rng);
        assert_eq!(c.len(), 2);
        assert_eq!(gp.name(), "gp");
    }

    #[test]
    fn model_concentrates_on_the_optimum() {
        // Quadratic bowl at (0.3, 0.7); EI proposals should get closer than
        // uniform sampling once the model has data.
        let s = space();
        let mut gp = GpSampler::new(
            s.clone(),
            GpSamplerConfig {
                random_fraction: 0.0,
                ..GpSamplerConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..60 {
            let c = s.sample(&mut rng);
            let u = s.to_unit(&c).unwrap();
            let loss = (u[0] - 0.3).powi(2) + (u[1] - 0.7).powi(2);
            gp.record(&c, 0, 1.0, loss);
        }
        let mut dist_sum = 0.0;
        let n = 30;
        for _ in 0..n {
            let c = gp.propose(&s, &mut rng);
            let u = s.to_unit(&c).unwrap();
            dist_sum += ((u[0] - 0.3).powi(2) + (u[1] - 0.7).powi(2)).sqrt();
        }
        let mean_dist = dist_sum / n as f64;
        assert!(
            mean_dist < 0.35,
            "mean distance {mean_dist} (uniform ≈ 0.48)"
        );
    }

    #[test]
    fn conditions_on_the_highest_modelled_rung() {
        let s = space();
        let mut gp = GpSampler::new(s.clone(), GpSamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let c = s.sample(&mut rng);
            gp.record(&c, 0, 1.0, 0.5);
        }
        for _ in 0..3 {
            let c = s.sample(&mut rng);
            gp.record(&c, 2, 9.0, 0.4);
        }
        // Rung 2 has too few points (need d+3 = 5): the model rung is 0.
        assert_eq!(gp.model_rung(), Some(0));
        for _ in 0..5 {
            let c = s.sample(&mut rng);
            gp.record(&c, 2, 9.0, 0.4);
        }
        assert_eq!(gp.model_rung(), Some(2));
    }

    #[test]
    fn cursor_roundtrip_restores_identical_proposals() {
        let s = space();
        let mut warm = GpSampler::new(s.clone(), GpSamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..30 {
            let c = s.sample(&mut rng);
            warm.record(&c, i % 2, 1.0, (i as f64).cos());
        }
        let cursor = warm.export_cursor().expect("gp keeps a cursor");
        let mut cold = GpSampler::new(s.clone(), GpSamplerConfig::default());
        cold.restore_cursor(&cursor);
        assert_eq!(cold.export_cursor().as_deref(), Some(cursor.as_str()));
        let mut ra = StdRng::seed_from_u64(9);
        let mut rb = StdRng::seed_from_u64(9);
        for _ in 0..10 {
            let a = warm.propose(&s, &mut ra);
            let b = cold.propose(&s, &mut rb);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn a_cursor_that_does_not_fit_the_space_stays_cold() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(6);
        let mut short = ByRung::new();
        short.insert(
            0,
            (0..20)
                .map(|i| (vec![rng.gen::<f64>()], f64::from(i)))
                .collect(),
        );
        let mut out_of_range = ByRung::new();
        out_of_range.insert(0, vec![(vec![0.5, 1.5], 0.1); 20]);
        for by_rung in [short, out_of_range] {
            let mut gp = GpSampler::new(
                s.clone(),
                GpSamplerConfig {
                    random_fraction: 0.0,
                    ..GpSamplerConfig::default()
                },
            );
            gp.restore_cursor(&encode_by_rung(CURSOR_HEADER, &by_rung));
            assert_eq!(gp.export_cursor().as_deref(), Some(CURSOR_HEADER));
            assert_eq!(gp.propose(&s, &mut rng).len(), 2);
        }
    }
}
