//! One-dimensional Gaussian kernel density estimation.
//!
//! The Tree-structured Parzen Estimator inside the BOHB baseline factorizes
//! its density over dimensions, so a 1-D KDE per hyperparameter (in unit
//! space) is all it needs.

use rand::Rng;

use crate::dist::{normal_pdf_scaled, truncated_normal};

/// A Gaussian KDE over points in `[0, 1]`, with Scott's-rule bandwidth and a
/// bandwidth floor so degenerate samples still produce a usable density.
#[derive(Debug, Clone, PartialEq)]
pub struct Kde1d {
    points: Vec<f64>,
    bandwidth: f64,
}

impl Kde1d {
    /// Build a KDE from sample points (values are clamped to `[0, 1]`).
    ///
    /// Uses Scott's rule `h = sigma * n^(-1/5)` with a floor of `min_bandwidth`.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty.
    pub fn new(points: &[f64], min_bandwidth: f64) -> Self {
        assert!(!points.is_empty(), "KDE requires at least one point");
        let points: Vec<f64> = points.iter().map(|p| p.clamp(0.0, 1.0)).collect();
        let sigma = crate::stats::std_dev(&points);
        let n = points.len() as f64;
        let bandwidth = (sigma * n.powf(-0.2)).max(min_bandwidth);
        Kde1d { points, bandwidth }
    }

    /// The bandwidth in use.
    #[cfg(test)]
    pub(crate) fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Number of kernel centers.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the KDE has no centers (never true for a constructed KDE).
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Density at `x`, mixed with a small uniform component (weight 0.05) so
    /// the TPE ratio `l(x)/g(x)` stays bounded on `[0, 1]`.
    pub fn pdf(&self, x: f64) -> f64 {
        let kernel_mix: f64 = self
            .points
            .iter()
            .map(|&p| normal_pdf_scaled(x, p, self.bandwidth))
            .sum::<f64>()
            / self.points.len() as f64;
        0.95 * kernel_mix + 0.05
    }

    /// Sample from the KDE: pick a kernel center uniformly, then draw from a
    /// normal truncated to `[0, 1]` around it.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let center = self.points[rng.gen_range(0..self.points.len())];
        truncated_normal(rng, center, self.bandwidth, 0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn density_peaks_at_the_data() {
        let kde = Kde1d::new(&[0.2, 0.21, 0.19, 0.2], 0.05);
        assert!(kde.pdf(0.2) > kde.pdf(0.8));
    }

    #[test]
    fn single_point_uses_bandwidth_floor() {
        let kde = Kde1d::new(&[0.5], 0.1);
        assert_eq!(kde.bandwidth(), 0.1);
        assert!(kde.pdf(0.5) > kde.pdf(0.0));
        assert_eq!(kde.len(), 1);
        assert!(!kde.is_empty());
    }

    #[test]
    fn samples_stay_in_unit_interval() {
        let kde = Kde1d::new(&[0.05, 0.95], 0.1);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..500 {
            let x = kde.sample(&mut rng);
            assert!((0.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn samples_concentrate_near_centers() {
        let kde = Kde1d::new(&[0.3], 0.02);
        let mut rng = StdRng::seed_from_u64(6);
        let mut near = 0;
        let n = 1000;
        for _ in 0..n {
            if (kde.sample(&mut rng) - 0.3).abs() < 0.1 {
                near += 1;
            }
        }
        assert!(near > n * 9 / 10, "only {near}/{n} samples near the center");
    }

    #[test]
    fn pdf_has_uniform_floor() {
        let kde = Kde1d::new(&[0.0], 0.01);
        // Far from the only kernel the density approaches the uniform mix.
        assert!(kde.pdf(1.0) >= 0.05 - 1e-12);
    }

    #[test]
    fn out_of_range_points_are_clamped() {
        let kde = Kde1d::new(&[-0.5, 1.5], 0.05);
        assert!(kde.pdf(0.0) > kde.pdf(0.5));
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_kde_panics() {
        let _ = Kde1d::new(&[], 0.1);
    }
}
