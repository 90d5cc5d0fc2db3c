//! Deterministic smooth pseudo-random fields over the unit hypercube.
//!
//! The surrogate response surfaces need "texture": reproducible, smooth,
//! multi-modal structure beyond a simple quadratic bowl, so that the search
//! problem is neither trivial nor adversarial. A [`SmoothPseudo`] field is a
//! sum of a few random sinusoidal projections — a cheap Fourier-feature
//! random field — fully determined by its seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A smooth deterministic field `f: [0,1]^d -> [0,1]`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SmoothPseudo {
    directions: Vec<Vec<f64>>,
    phases: Vec<f64>,
    frequencies: Vec<f64>,
}

impl SmoothPseudo {
    /// Build a field over `dims` dimensions with `waves` sinusoidal
    /// components, deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `waves == 0` or `dims == 0`.
    pub(crate) fn new(seed: u64, dims: usize, waves: usize) -> Self {
        assert!(dims > 0, "field needs at least one dimension");
        assert!(waves > 0, "field needs at least one wave");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut directions = Vec::with_capacity(waves);
        let mut phases = Vec::with_capacity(waves);
        let mut frequencies = Vec::with_capacity(waves);
        for _ in 0..waves {
            // Unit direction vector.
            let mut v: Vec<f64> = (0..dims).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
            let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-9);
            for x in &mut v {
                *x /= norm;
            }
            directions.push(v);
            phases.push(rng.gen::<f64>() * std::f64::consts::TAU);
            // Low frequencies keep the field smooth (1 to 3 cycles across
            // the cube).
            frequencies.push(1.0 + 2.0 * rng.gen::<f64>());
        }
        SmoothPseudo {
            directions,
            phases,
            frequencies,
        }
    }

    /// Evaluate the field at a point (coordinates are used as given; points
    /// outside the cube extrapolate smoothly). Result lies in `[0, 1]`.
    pub(crate) fn eval(&self, u: &[f64]) -> f64 {
        let mut acc = 0.0;
        for ((v, phase), freq) in self
            .directions
            .iter()
            .zip(&self.phases)
            .zip(&self.frequencies)
        {
            let dot: f64 = v.iter().zip(u).map(|(a, b)| a * b).sum();
            acc += (std::f64::consts::TAU * freq * dot + phase).sin();
        }
        // Average of sines in [-1, 1] mapped to [0, 1].
        (acc / self.directions.len() as f64 + 1.0) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_a_seed() {
        let a = SmoothPseudo::new(42, 5, 4);
        let b = SmoothPseudo::new(42, 5, 4);
        let u = [0.1, 0.9, 0.5, 0.3, 0.7];
        assert_eq!(a.eval(&u), b.eval(&u));
    }

    #[test]
    fn different_seeds_differ() {
        let a = SmoothPseudo::new(1, 3, 4);
        let b = SmoothPseudo::new(2, 3, 4);
        let u = [0.25, 0.5, 0.75];
        assert_ne!(a.eval(&u), b.eval(&u));
    }

    #[test]
    fn range_is_unit_interval() {
        let f = SmoothPseudo::new(7, 4, 6);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..2000 {
            let u: Vec<f64> = (0..4).map(|_| rng.gen::<f64>()).collect();
            let v = f.eval(&u);
            assert!((0.0..=1.0).contains(&v), "value {v} out of range");
        }
    }

    #[test]
    fn field_is_smooth() {
        // Nearby points give nearby values: |f(u) - f(u + h)| = O(|h|).
        let f = SmoothPseudo::new(3, 3, 4);
        let u = [0.4, 0.4, 0.4];
        let v = [0.401, 0.4, 0.4];
        assert!((f.eval(&u) - f.eval(&v)).abs() < 0.05);
    }

    #[test]
    fn field_is_not_constant() {
        let f = SmoothPseudo::new(9, 2, 4);
        let vals: Vec<f64> = (0..20).map(|i| f.eval(&[i as f64 / 19.0, 0.5])).collect();
        let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 0.05, "field looks constant: {min}..{max}");
    }

    #[test]
    #[should_panic(expected = "at least one wave")]
    fn zero_waves_rejected() {
        let _ = SmoothPseudo::new(0, 2, 0);
    }
}
