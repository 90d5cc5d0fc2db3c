//! Synthetic classification datasets.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A labelled classification dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Feature vectors, one per example.
    pub xs: Vec<Vec<f64>>,
    /// Class labels in `0..num_classes`.
    pub ys: Vec<usize>,
    /// Number of classes.
    pub num_classes: usize,
}

/// Train/validation/test partition of a [`Dataset`].
#[derive(Debug, Clone, PartialEq)]
pub struct Split {
    /// Training set.
    pub train: Dataset,
    /// Validation set (drives tuning decisions).
    pub validation: Dataset,
    /// Test set (reported, never optimized against).
    pub test: Dataset,
}

fn box_muller(rng: &mut StdRng) -> f64 {
    let mut u1: f64 = rng.gen();
    while u1 <= f64::MIN_POSITIVE {
        u1 = rng.gen();
    }
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

impl Dataset {
    /// `k` Gaussian clusters in `dims` dimensions, `per_class` points each,
    /// with the given within-cluster standard deviation. Deterministic for a
    /// seed.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `dims == 0`, or `per_class == 0`.
    pub fn gaussian_blobs(k: usize, dims: usize, per_class: usize, noise: f64, seed: u64) -> Self {
        assert!(
            k > 0 && dims > 0 && per_class > 0,
            "degenerate dataset shape"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<Vec<f64>> = (0..k)
            .map(|_| (0..dims).map(|_| rng.gen_range(-2.0..2.0)).collect())
            .collect();
        let mut xs = Vec::with_capacity(k * per_class);
        let mut ys = Vec::with_capacity(k * per_class);
        for (label, center) in centers.iter().enumerate() {
            for _ in 0..per_class {
                xs.push(
                    center
                        .iter()
                        .map(|&c| c + noise * box_muller(&mut rng))
                        .collect(),
                );
                ys.push(label);
            }
        }
        Dataset {
            xs,
            ys,
            num_classes: k,
        }
    }

    /// The classic two-spirals binary task: `per_class` points per arm with
    /// angular noise. A real nonlinear benchmark for small MLPs.
    ///
    /// # Panics
    ///
    /// Panics if `per_class == 0`.
    pub fn two_spirals(per_class: usize, noise: f64, seed: u64) -> Self {
        assert!(per_class > 0, "degenerate dataset shape");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::with_capacity(2 * per_class);
        let mut ys = Vec::with_capacity(2 * per_class);
        for label in 0..2usize {
            for i in 0..per_class {
                let t = 0.25 + 3.5 * i as f64 / per_class as f64; // radius/angle
                let angle = t * std::f64::consts::PI + label as f64 * std::f64::consts::PI;
                let r = t;
                xs.push(vec![
                    r * angle.cos() + noise * box_muller(&mut rng),
                    r * angle.sin() + noise * box_muller(&mut rng),
                ]);
                ys.push(label);
            }
        }
        Dataset {
            xs,
            ys,
            num_classes: 2,
        }
    }

    /// The classic two-moons binary task: two interleaved half circles with
    /// Gaussian noise.
    ///
    /// # Panics
    ///
    /// Panics if `per_class == 0`.
    pub fn two_moons(per_class: usize, noise: f64, seed: u64) -> Self {
        assert!(per_class > 0, "degenerate dataset shape");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::with_capacity(2 * per_class);
        let mut ys = Vec::with_capacity(2 * per_class);
        for label in 0..2usize {
            for i in 0..per_class {
                let t = std::f64::consts::PI * i as f64 / per_class as f64;
                let (cx, cy, sign) = if label == 0 {
                    (0.0, 0.0, 1.0)
                } else {
                    (1.0, 0.4, -1.0)
                };
                xs.push(vec![
                    cx + t.cos() * sign + noise * box_muller(&mut rng),
                    cy + t.sin() * sign + noise * box_muller(&mut rng),
                ]);
                ys.push(label);
            }
        }
        Dataset {
            xs,
            ys,
            num_classes: 2,
        }
    }

    /// Standardize features to zero mean and unit variance (in place),
    /// returning the per-dimension `(mean, std)` used — apply the same
    /// transform to validation/test splits.
    pub fn standardize(&mut self) -> Vec<(f64, f64)> {
        let dims = self.dims();
        let n = self.len() as f64;
        let mut stats = Vec::with_capacity(dims);
        for d in 0..dims {
            let mean = self.xs.iter().map(|x| x[d]).sum::<f64>() / n;
            let var = self.xs.iter().map(|x| (x[d] - mean).powi(2)).sum::<f64>() / n;
            let std = var.sqrt().max(1e-12);
            for x in &mut self.xs {
                x[d] = (x[d] - mean) / std;
            }
            stats.push((mean, std));
        }
        stats
    }

    /// Apply a standardization computed on another split.
    ///
    /// # Panics
    ///
    /// Panics if `stats.len()` does not match the feature dimension.
    #[cfg(test)]
    pub(crate) fn apply_standardization(&mut self, stats: &[(f64, f64)]) {
        assert_eq!(stats.len(), self.dims(), "dimension mismatch");
        for x in &mut self.xs {
            for (v, &(mean, std)) in x.iter_mut().zip(stats) {
                *v = (*v - mean) / std;
            }
        }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the dataset has no examples.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Feature dimensionality.
    pub(crate) fn dims(&self) -> usize {
        self.xs.first().map_or(0, Vec::len)
    }

    /// Shuffle-split into train/validation/test with the given fractions
    /// (the remainder is the test set). Deterministic: uses a seed derived
    /// from the dataset size.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < train_frac`, `0 <= val_frac`, and
    /// `train_frac + val_frac < 1`.
    pub fn split(&self, train_frac: f64, val_frac: f64) -> Split {
        assert!(
            train_frac > 0.0 && val_frac >= 0.0 && train_frac + val_frac < 1.0,
            "fractions must leave room for a test set"
        );
        let n = self.len();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(n as u64 ^ 0x0DA7_A5E7);
        // Fisher–Yates.
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let n_train = (n as f64 * train_frac).round() as usize;
        let n_val = (n as f64 * val_frac).round() as usize;
        let take = |idx: &[usize]| Dataset {
            xs: idx.iter().map(|&i| self.xs[i].clone()).collect(),
            ys: idx.iter().map(|&i| self.ys[i]).collect(),
            num_classes: self.num_classes,
        };
        Split {
            train: take(&order[..n_train]),
            validation: take(&order[n_train..n_train + n_val]),
            test: take(&order[n_train + n_val..]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blobs_have_expected_shape() {
        let d = Dataset::gaussian_blobs(3, 4, 50, 0.3, 1);
        assert_eq!(d.len(), 150);
        assert_eq!(d.dims(), 4);
        assert_eq!(d.num_classes, 3);
        assert!(d.ys.iter().all(|&y| y < 3));
        assert!(!d.is_empty());
    }

    #[test]
    fn blobs_are_deterministic_per_seed() {
        let a = Dataset::gaussian_blobs(2, 2, 10, 0.1, 9);
        let b = Dataset::gaussian_blobs(2, 2, 10, 0.1, 9);
        let c = Dataset::gaussian_blobs(2, 2, 10, 0.1, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn spirals_are_balanced_and_2d() {
        let d = Dataset::two_spirals(100, 0.05, 3);
        assert_eq!(d.len(), 200);
        assert_eq!(d.dims(), 2);
        assert_eq!(d.ys.iter().filter(|&&y| y == 0).count(), 100);
    }

    #[test]
    fn split_partitions_everything() {
        let d = Dataset::gaussian_blobs(2, 2, 100, 0.2, 5);
        let s = d.split(0.6, 0.2);
        assert_eq!(s.train.len(), 120);
        assert_eq!(s.validation.len(), 40);
        assert_eq!(s.test.len(), 40);
        assert_eq!(s.train.num_classes, 2);
    }

    #[test]
    fn moons_are_balanced_and_distinct() {
        let d = Dataset::two_moons(80, 0.05, 7);
        assert_eq!(d.len(), 160);
        assert_eq!(d.num_classes, 2);
        assert_eq!(d.ys.iter().filter(|&&y| y == 0).count(), 80);
        // The two classes occupy different regions on average.
        let mean_y = |label: usize| {
            let pts: Vec<f64> =
                d.xs.iter()
                    .zip(&d.ys)
                    .filter(|(_, &y)| y == label)
                    .map(|(x, _)| x[1])
                    .collect();
            pts.iter().sum::<f64>() / pts.len() as f64
        };
        assert!((mean_y(0) - mean_y(1)).abs() > 0.2);
    }

    #[test]
    fn standardization_centers_and_scales() {
        let mut d = Dataset::gaussian_blobs(2, 3, 100, 0.7, 13);
        let stats = d.standardize();
        assert_eq!(stats.len(), 3);
        for dim in 0..3 {
            let mean = d.xs.iter().map(|x| x[dim]).sum::<f64>() / d.len() as f64;
            let var = d.xs.iter().map(|x| (x[dim] - mean).powi(2)).sum::<f64>() / d.len() as f64;
            assert!(mean.abs() < 1e-9);
            assert!((var - 1.0).abs() < 1e-9);
        }
        // Applying the same stats to a copy reproduces the transform.
        let mut other = Dataset::gaussian_blobs(2, 3, 100, 0.7, 13);
        other.apply_standardization(&stats);
        assert_eq!(d, other);
    }

    #[test]
    #[should_panic(expected = "room for a test set")]
    fn bad_split_fractions_rejected() {
        let d = Dataset::gaussian_blobs(2, 2, 10, 0.2, 5);
        let _ = d.split(0.8, 0.2);
    }
}
