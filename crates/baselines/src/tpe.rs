//! Tree-structured Parzen Estimator sampling (the model inside BOHB).
//!
//! Observations are grouped by rung; the sampler models the highest rung
//! with enough data, splits it into "good" (top `gamma` fraction) and "bad"
//! configurations, fits a per-dimension 1-D KDE to each group in unit space,
//! and proposes the candidate maximizing the density ratio `l(x)/g(x)` among
//! a handful of samples from the good model — the standard TPE acquisition,
//! factorized over dimensions as BOHB does.

use std::collections::BTreeMap;

use asha_core::ConfigSampler;
use asha_math::Kde1d;
use asha_space::{Config, SearchSpace};
use rand::Rng;

use crate::cursor::{decode_by_rung, encode_by_rung};

/// Version header of the TPE sampler cursor format.
const CURSOR_HEADER: &str = "tpe-v1";

/// Tuning knobs of [`TpeSampler`].
#[derive(Debug, Clone, PartialEq)]
pub struct TpeConfig {
    /// Fraction of observations treated as "good" (BOHB's default 0.15).
    pub gamma: f64,
    /// Minimum observations at a rung before it is modelled; below this the
    /// sampler falls back to uniform random. Zero means "auto" (`d + 3`,
    /// BOHB's default).
    pub min_points: usize,
    /// Number of candidates drawn from the good KDE per proposal.
    pub candidates: usize,
    /// Probability of proposing a uniform random configuration anyway
    /// (BOHB's random fraction, keeping the theoretical guarantees).
    pub random_fraction: f64,
    /// Bandwidth floor of the per-dimension KDEs.
    pub min_bandwidth: f64,
}

impl Default for TpeConfig {
    fn default() -> Self {
        TpeConfig {
            gamma: 0.15,
            min_points: 0,
            candidates: 24,
            random_fraction: 1.0 / 3.0,
            min_bandwidth: 0.03,
        }
    }
}

/// A [`ConfigSampler`] implementing TPE, bound to its search space (needed
/// because [`ConfigSampler::record`] does not receive the space).
#[derive(Debug, Clone)]
pub struct TpeSampler {
    space: SearchSpace,
    config: TpeConfig,
    /// Observations per rung: unit-space points and losses.
    by_rung: BTreeMap<usize, Vec<(Vec<f64>, f64)>>,
}

impl TpeSampler {
    /// Create a TPE sampler over `space` with the given knobs.
    pub fn new(space: SearchSpace, config: TpeConfig) -> Self {
        TpeSampler {
            space,
            config,
            by_rung: BTreeMap::new(),
        }
    }

    /// Number of recorded observations at the given rung.
    #[cfg(test)]
    pub(crate) fn observations_at(&self, rung: usize) -> usize {
        self.by_rung.get(&rung).map_or(0, Vec::len)
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

impl ConfigSampler for TpeSampler {
    fn propose(&mut self, space: &SearchSpace, rng: &mut dyn rand::RngCore) -> Config {
        let dims = space.len();
        if rng.gen::<f64>() < self.config.random_fraction {
            return space.sample(rng);
        }
        let Some(rung) = self.model_rung() else {
            return space.sample(rng);
        };
        let obs = &self.by_rung[&rung];
        // Split into good/bad by loss.
        let mut order: Vec<usize> = (0..obs.len()).collect();
        order.sort_by(|&a, &b| {
            obs[a]
                .1
                .partial_cmp(&obs[b].1)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let n_good = ((obs.len() as f64 * self.config.gamma).ceil() as usize)
            .max(2)
            .min(obs.len() - 1);
        let (good_idx, bad_idx) = order.split_at(n_good);
        if bad_idx.is_empty() {
            return space.sample(rng);
        }
        // Per-dimension KDEs.
        let kde_dim = |idx: &[usize], d: usize| {
            let pts: Vec<f64> = idx.iter().map(|&i| obs[i].0[d]).collect();
            Kde1d::new(&pts, self.config.min_bandwidth)
        };
        let good: Vec<Kde1d> = (0..dims).map(|d| kde_dim(good_idx, d)).collect();
        let bad: Vec<Kde1d> = (0..dims).map(|d| kde_dim(bad_idx, d)).collect();
        // Sample candidates from the good model; keep the best density
        // ratio l(x)/g(x).
        let mut best_u: Option<Vec<f64>> = None;
        let mut best_score = f64::NEG_INFINITY;
        for _ in 0..self.config.candidates {
            let u: Vec<f64> = good.iter().map(|k| k.sample(rng)).collect();
            let score: f64 = u
                .iter()
                .enumerate()
                .map(|(d, &ud)| good[d].pdf(ud).ln() - bad[d].pdf(ud).ln())
                .sum();
            if score > best_score {
                best_score = score;
                best_u = Some(u);
            }
        }
        match best_u {
            Some(u) => space.from_unit(&u),
            None => space.sample(rng),
        }
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
        "tpe"
    }

    fn export_cursor(&self) -> Option<String> {
        Some(encode_by_rung(CURSOR_HEADER, &self.by_rung))
    }

    fn restore_cursor(&mut self, cursor: &str) {
        // Atomic: an unrecognized or malformed cursor leaves the sampler
        // cold rather than half-restored.
        if let Some(by_rung) = decode_by_rung(CURSOR_HEADER, cursor) {
            self.by_rung = by_rung;
        }
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
    fn falls_back_to_random_without_data() {
        let s = space();
        let mut tpe = TpeSampler::new(s.clone(), TpeConfig::default());
        let mut rng = StdRng::seed_from_u64(0);
        let c = tpe.propose(&s, &mut rng);
        assert_eq!(c.len(), 2);
        assert_eq!(tpe.observations_at(0), 0);
        assert_eq!(tpe.name(), "tpe");
    }

    #[test]
    fn concentrates_on_the_good_region() {
        // Loss = distance from (0.2, 0.8): TPE should propose near there.
        let s = space();
        let mut tpe = TpeSampler::new(
            s.clone(),
            TpeConfig {
                random_fraction: 0.0,
                ..TpeConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..120 {
            let c = s.sample(&mut rng);
            let u = s.to_unit(&c).unwrap();
            let loss = (u[0] - 0.2).powi(2) + (u[1] - 0.8).powi(2);
            tpe.record(&c, 0, 1.0, loss);
        }
        let mut dist_sum = 0.0;
        let n = 50;
        for _ in 0..n {
            let c = tpe.propose(&s, &mut rng);
            let u = s.to_unit(&c).unwrap();
            dist_sum += ((u[0] - 0.2).powi(2) + (u[1] - 0.8).powi(2)).sqrt();
        }
        let mean_dist = dist_sum / n as f64;
        // Uniform sampling would average ≈ 0.56 from that corner point.
        assert!(mean_dist < 0.35, "mean distance {mean_dist} too large");
    }

    #[test]
    fn uses_the_highest_rung_with_enough_data() {
        let s = space();
        let mut tpe = TpeSampler::new(s.clone(), TpeConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let c = s.sample(&mut rng);
            tpe.record(&c, 0, 1.0, 0.5);
        }
        for _ in 0..3 {
            let c = s.sample(&mut rng);
            tpe.record(&c, 1, 4.0, 0.4);
        }
        // Rung 1 has too few points (need d+3 = 5): the model rung is 0.
        assert_eq!(tpe.model_rung(), Some(0));
        for _ in 0..5 {
            let c = s.sample(&mut rng);
            tpe.record(&c, 1, 4.0, 0.4);
        }
        assert_eq!(tpe.model_rung(), Some(1));
    }

    #[test]
    fn nan_losses_are_sanitized() {
        let s = space();
        let mut tpe = TpeSampler::new(s.clone(), TpeConfig::default());
        let c = s.default_config();
        tpe.record(&c, 0, 1.0, f64::NAN);
        assert_eq!(tpe.observations_at(0), 1);
    }

    #[test]
    fn foreign_configs_are_dropped() {
        let s = space();
        let mut tpe = TpeSampler::new(s.clone(), TpeConfig::default());
        let other = SearchSpace::builder()
            .continuous("z", 0.0, 1.0, Scale::Linear)
            .build()
            .unwrap();
        tpe.record(&other.default_config(), 0, 1.0, 0.5);
        assert_eq!(tpe.observations_at(0), 0);
    }

    #[test]
    fn cursor_roundtrip_restores_identical_proposals() {
        let s = space();
        let mut warm = TpeSampler::new(s.clone(), TpeConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..40 {
            let c = s.sample(&mut rng);
            warm.record(&c, i % 3, 1.0, (i as f64).sin());
        }
        let cursor = warm.export_cursor().expect("tpe keeps a cursor");
        let mut cold = TpeSampler::new(s.clone(), TpeConfig::default());
        cold.restore_cursor(&cursor);
        assert_eq!(cold.export_cursor().as_deref(), Some(cursor.as_str()));
        // Identical proposals from identical RNG streams.
        let mut ra = StdRng::seed_from_u64(9);
        let mut rb = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let a = warm.propose(&s, &mut ra);
            let b = cold.propose(&s, &mut rb);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn malformed_cursor_is_ignored() {
        let s = space();
        let mut tpe = TpeSampler::new(s.clone(), TpeConfig::default());
        let c = s.default_config();
        tpe.record(&c, 0, 1.0, 0.5);
        tpe.restore_cursor("gp-v1"); // wrong kind
        tpe.restore_cursor("tpe-v1;0=broken"); // malformed body
        assert_eq!(tpe.observations_at(0), 1, "state must survive bad cursors");
    }

    #[test]
    fn proposals_stay_in_the_space() {
        let s = SearchSpace::builder()
            .continuous("lr", 1e-4, 1.0, Scale::Log)
            .discrete("n", 1, 8)
            .ordinal("b", &[32.0, 64.0])
            .build()
            .unwrap();
        let mut tpe = TpeSampler::new(
            s.clone(),
            TpeConfig {
                random_fraction: 0.0,
                ..TpeConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..30 {
            let c = s.sample(&mut rng);
            tpe.record(&c, 0, 1.0, i as f64);
        }
        for _ in 0..20 {
            let c = tpe.propose(&s, &mut rng);
            let lr = c.float("lr", &s).unwrap();
            assert!((1e-4..=1.0).contains(&lr));
            let n = c.int("n", &s).unwrap();
            assert!((1..=8).contains(&n));
        }
    }
}
