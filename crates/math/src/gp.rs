//! Gaussian-process regression with a squared-exponential ARD kernel, plus
//! the expected-improvement acquisition function.
//!
//! This is the modelling core of the Vizier-like and Fabolas-like baselines.
//! Inputs are expected to live in the unit hypercube (see
//! `asha_space::SearchSpace::to_unit`); targets are standardized internally
//! so kernel amplitudes are well-scaled regardless of the loss magnitude.

use crate::dist::{normal_cdf, normal_pdf};
use crate::linalg::{CholeskyError, Matrix};
use crate::stats::{mean, std_dev};

/// Hyperparameters of the squared-exponential GP.
#[derive(Debug, Clone, PartialEq)]
pub struct GpConfig {
    /// Per-dimension length scales; a single element is broadcast to every
    /// dimension.
    pub length_scales: Vec<f64>,
    /// Signal variance (kernel amplitude) in standardized-target units.
    pub signal_variance: f64,
    /// Observation-noise variance in standardized-target units.
    pub noise_variance: f64,
}

impl Default for GpConfig {
    fn default() -> Self {
        GpConfig {
            length_scales: vec![0.2],
            signal_variance: 1.0,
            noise_variance: 1e-3,
        }
    }
}

/// A fitted Gaussian-process posterior.
///
/// # Examples
///
/// ```
/// use asha_math::{Gp, GpConfig};
///
/// let xs = vec![vec![0.0], vec![0.5], vec![1.0]];
/// let ys = vec![1.0, 0.0, 1.0];
/// let gp = Gp::fit(&xs, &ys, GpConfig::default())?;
/// let (mu, var) = gp.predict(&[0.5]);
/// assert!((mu - 0.0).abs() < 0.1);
/// assert!(var >= 0.0);
/// # Ok::<(), asha_math::CholeskyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Gp {
    xs: Vec<Vec<f64>>,
    alpha: Vec<f64>,
    chol: crate::linalg::Cholesky,
    config: GpConfig,
    y_mean: f64,
    y_std: f64,
}

impl Gp {
    /// Fit a GP to observations; `xs[i]` is a point in `[0,1]^d`, `ys[i]` its
    /// target (e.g. validation loss).
    ///
    /// The kernel matrix gets progressively more diagonal jitter (up to
    /// `1e-2`) if the initial factorization fails.
    ///
    /// # Errors
    ///
    /// Returns [`CholeskyError`] if the kernel matrix cannot be factorized
    /// even with maximum jitter (pathological duplicate inputs).
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `ys` have different lengths or `xs` is empty.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], config: GpConfig) -> Result<Self, CholeskyError> {
        assert_eq!(xs.len(), ys.len(), "xs and ys must have the same length");
        assert!(!xs.is_empty(), "cannot fit a GP to zero observations");
        let y_mean = mean(ys);
        let y_std = {
            let s = std_dev(ys);
            if s > 1e-12 {
                s
            } else {
                1.0
            }
        };
        let yz: Vec<f64> = ys.iter().map(|y| (y - y_mean) / y_std).collect();

        let n = xs.len();
        let base = Matrix::from_fn(n, n, |i, j| kernel(&config, &xs[i], &xs[j]));
        let mut jitter = config.noise_variance.max(1e-10);
        let mut last_err = CholeskyError { pivot: 0 };
        while jitter <= 1e-2 {
            let mut k = base.clone();
            for i in 0..n {
                k[(i, i)] += jitter;
            }
            match k.cholesky() {
                Ok(chol) => {
                    let alpha = chol.solve(&yz);
                    return Ok(Gp {
                        xs: xs.to_vec(),
                        alpha,
                        chol,
                        config,
                        y_mean,
                        y_std,
                    });
                }
                Err(e) => {
                    last_err = e;
                    jitter *= 10.0;
                }
            }
        }
        Err(last_err)
    }

    /// Posterior mean and variance at a query point, in the original target
    /// units.
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        let kx = self.cross_kernel(x);
        let v = self.chol.solve_lower(&kx);
        let var_z =
            (self.config.signal_variance - v.iter().map(|vi| vi * vi).sum::<f64>()).max(1e-12);
        (self.mean_of(&kx), var_z * self.y_std * self.y_std)
    }

    /// Posterior mean at a query point, in the original target units: the
    /// mean of [`Gp::predict`], bit for bit, without the O(n²) variance.
    pub fn mean(&self, x: &[f64]) -> f64 {
        self.mean_of(&self.cross_kernel(x))
    }

    /// The kernel between every training point and `x`.
    fn cross_kernel(&self, x: &[f64]) -> Vec<f64> {
        self.xs
            .iter()
            .map(|xi| kernel(&self.config, xi, x))
            .collect()
    }

    /// The posterior mean given the cross-kernel vector `kx`.
    fn mean_of(&self, kx: &[f64]) -> f64 {
        let mu_z: f64 = kx.iter().zip(&self.alpha).map(|(k, a)| k * a).sum();
        self.y_mean + self.y_std * mu_z
    }

    /// Number of training observations.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the GP has no training points (never true for a fitted GP).
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }
}

fn kernel(config: &GpConfig, a: &[f64], b: &[f64]) -> f64 {
    let mut d2 = 0.0;
    for (i, (ai, bi)) in a.iter().zip(b).enumerate() {
        let ls = config
            .length_scales
            .get(i)
            .or_else(|| config.length_scales.first())
            .copied()
            .unwrap_or(0.2);
        let d = (ai - bi) / ls;
        d2 += d * d;
    }
    config.signal_variance * (-0.5 * d2).exp()
}

/// Expected improvement of a *minimization* objective at a point with
/// posterior `(mu, var)` over the incumbent `best`.
///
/// Returns 0 when the posterior is (numerically) deterministic.
pub fn expected_improvement(mu: f64, var: f64, best: f64) -> f64 {
    let sigma = var.max(0.0).sqrt();
    if sigma < 1e-12 {
        return (best - mu).max(0.0);
    }
    let z = (best - mu) / sigma;
    // Clamp at zero: EI is non-negative by definition, but the rational
    // erf approximation's absolute error (~1e-7) can push the far tail
    // microscopically negative.
    ((best - mu) * normal_cdf(z) + sigma * normal_pdf(z)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn grid_1d(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect()
    }

    #[test]
    fn interpolates_training_points() {
        let xs = grid_1d(6);
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 6.0).sin()).collect();
        let gp = Gp::fit(
            &xs,
            &ys,
            GpConfig {
                noise_variance: 1e-8,
                ..GpConfig::default()
            },
        )
        .unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let (mu, var) = gp.predict(x);
            assert!((mu - y).abs() < 0.05, "mu={mu} y={y}");
            assert!(var < 0.1);
        }
    }

    #[test]
    fn mean_is_the_mean_of_predict_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(11);
        let xs: Vec<Vec<f64>> = (0..40)
            .map(|_| (0..3).map(|_| rng.gen::<f64>()).collect())
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0].sin() + x[1] * x[2]).collect();
        let gp = Gp::fit(&xs, &ys, GpConfig::default()).unwrap();
        for _ in 0..200 {
            let x: Vec<f64> = (0..3).map(|_| rng.gen::<f64>()).collect();
            assert_eq!(gp.mean(&x).to_bits(), gp.predict(&x).0.to_bits(), "{x:?}");
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let xs = vec![vec![0.0], vec![0.1]];
        let ys = vec![0.0, 0.1];
        let gp = Gp::fit(&xs, &ys, GpConfig::default()).unwrap();
        let (_, var_near) = gp.predict(&[0.05]);
        let (_, var_far) = gp.predict(&[1.0]);
        assert!(var_far > var_near, "far {var_far} near {var_near}");
    }

    #[test]
    fn duplicate_points_do_not_break_fit() {
        let xs = vec![vec![0.5], vec![0.5], vec![0.5], vec![0.7]];
        let ys = vec![1.0, 1.0, 1.0, 2.0];
        let gp = Gp::fit(&xs, &ys, GpConfig::default()).unwrap();
        let (mu, _) = gp.predict(&[0.5]);
        assert!(mu.is_finite());
        assert_eq!(gp.len(), 4);
        assert!(!gp.is_empty());
    }

    #[test]
    fn constant_targets_are_handled() {
        let xs = grid_1d(4);
        let ys = vec![3.0; 4];
        let gp = Gp::fit(&xs, &ys, GpConfig::default()).unwrap();
        let (mu, _) = gp.predict(&[0.5]);
        assert!((mu - 3.0).abs() < 0.2);
    }

    #[test]
    fn ard_length_scales_apply_per_dimension() {
        // Short scale in dim 0, long in dim 1: correlation should decay much
        // faster along dim 0.
        let cfg = GpConfig {
            length_scales: vec![0.05, 2.0],
            signal_variance: 1.0,
            noise_variance: 1e-6,
        };
        let k_same = kernel(&cfg, &[0.0, 0.0], &[0.0, 0.0]);
        let k_d0 = kernel(&cfg, &[0.0, 0.0], &[0.3, 0.0]);
        let k_d1 = kernel(&cfg, &[0.0, 0.0], &[0.0, 0.3]);
        assert!(k_same > k_d1 && k_d1 > k_d0);
    }

    #[test]
    fn ei_known_values() {
        // Deterministic posterior: EI = max(best - mu, 0).
        assert_eq!(expected_improvement(1.0, 0.0, 2.0), 1.0);
        assert_eq!(expected_improvement(3.0, 0.0, 2.0), 0.0);
        // At mu == best with sigma = 1, EI = phi(0) ≈ 0.3989.
        assert!((expected_improvement(2.0, 1.0, 2.0) - 0.398_942_3).abs() < 1e-5);
        // EI decreases as mu rises above best.
        assert!(expected_improvement(2.5, 1.0, 2.0) < expected_improvement(2.0, 1.0, 2.0));
        // EI is non-negative everywhere.
        assert!(expected_improvement(10.0, 0.5, 0.0) >= 0.0);
    }

    #[test]
    #[should_panic(expected = "zero observations")]
    fn empty_fit_panics() {
        let _ = Gp::fit(&[], &[], GpConfig::default());
    }
}
