//! An RBF kernel ridge classifier trained on data *subsets* — the real
//! analogue of the paper's SVM benchmark, where the resource is the number
//! of training points (Appendix A.2: "for the SVM task, the allocated
//! resource is number of training datapoints").
//!
//! One-vs-all kernel ridge regression: for each class, solve
//! `(K + λ n I) α = y` on the first `n` training points via Cholesky, and
//! classify by the largest discriminant. Training cost grows superlinearly
//! in `n`, exactly the structure Fabolas-style methods exploit.

use asha_math::Matrix;

use crate::data::Dataset;

/// Hyperparameters of the kernel classifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelRidgeConfig {
    /// Ridge regularization `λ` (the inverse of an SVM's `C`).
    pub lambda: f64,
    /// RBF kernel width: `k(x, y) = exp(-gamma * |x - y|^2)`.
    pub gamma: f64,
}

impl Default for KernelRidgeConfig {
    fn default() -> Self {
        KernelRidgeConfig {
            lambda: 1e-3,
            gamma: 1.0,
        }
    }
}

/// A fitted one-vs-all RBF kernel ridge classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRidge {
    config: KernelRidgeConfig,
    support: Vec<Vec<f64>>,
    /// One dual-coefficient vector per class.
    alphas: Vec<Vec<f64>>,
}

impl KernelRidge {
    /// Fit on the first `subset` points of `data` (the trial's resource).
    ///
    /// # Errors
    ///
    /// Returns the underlying factorization error when the regularized
    /// kernel matrix is numerically singular (pathological `lambda`/`gamma`).
    ///
    /// # Panics
    ///
    /// Panics if `subset == 0` or `data` is empty.
    pub fn fit(
        data: &Dataset,
        subset: usize,
        config: KernelRidgeConfig,
    ) -> Result<Self, asha_math::CholeskyError> {
        assert!(subset > 0, "need at least one training point");
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        let n = subset.min(data.len());
        let xs: Vec<Vec<f64>> = data.xs[..n].to_vec();
        let k = Matrix::from_fn(n, n, |i, j| rbf(&xs[i], &xs[j], config.gamma));
        let mut reg = k;
        for i in 0..n {
            reg[(i, i)] += config.lambda * n as f64 + 1e-10;
        }
        let chol = reg.cholesky()?;
        let alphas = (0..data.num_classes)
            .map(|class| {
                let y: Vec<f64> = data.ys[..n]
                    .iter()
                    .map(|&label| if label == class { 1.0 } else { -1.0 })
                    .collect();
                chol.solve(&y)
            })
            .collect();
        Ok(KernelRidge {
            config,
            support: xs,
            alphas,
        })
    }

    /// Number of support points (the subset size it was fit on).
    #[cfg(test)]
    pub(crate) fn support_size(&self) -> usize {
        self.support.len()
    }

    /// Per-class discriminant values for one example.
    pub(crate) fn decision(&self, x: &[f64]) -> Vec<f64> {
        let k: Vec<f64> = self
            .support
            .iter()
            .map(|s| rbf(s, x, self.config.gamma))
            .collect();
        self.alphas
            .iter()
            .map(|alpha| alpha.iter().zip(&k).map(|(a, ki)| a * ki).sum())
            .collect()
    }

    /// Predicted class for one example.
    pub(crate) fn predict(&self, x: &[f64]) -> usize {
        self.decision(x)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Classification error rate on a dataset.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn error_rate(&self, data: &Dataset) -> f64 {
        assert!(!data.is_empty(), "cannot evaluate on an empty dataset");
        let wrong = data
            .xs
            .iter()
            .zip(&data.ys)
            .filter(|(x, &y)| self.predict(x) != y)
            .count();
        wrong as f64 / data.len() as f64
    }
}

fn rbf(a: &[f64], b: &[f64], gamma: f64) -> f64 {
    let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    (-gamma * d2).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Dataset {
        Dataset::gaussian_blobs(3, 2, 80, 0.35, 17)
    }

    #[test]
    fn separable_blobs_are_learned() {
        let data = blobs();
        let split = data.split(0.7, 0.0);
        let model = KernelRidge::fit(
            &split.train,
            split.train.len(),
            KernelRidgeConfig::default(),
        )
        .expect("well-conditioned fit");
        let err = model.error_rate(&split.test);
        // Random blob centers can overlap slightly; chance level is 2/3.
        assert!(err < 0.15, "error rate {err}");
        assert_eq!(model.support_size(), split.train.len());
    }

    #[test]
    fn more_data_monotonically_helps_on_average() {
        // The property the SVM benchmark's resource axis relies on.
        let data = blobs();
        let split = data.split(0.7, 0.0);
        let cfg = KernelRidgeConfig::default();
        let err_small = KernelRidge::fit(&split.train, 10, cfg)
            .expect("fit")
            .error_rate(&split.test);
        let err_large = KernelRidge::fit(&split.train, split.train.len(), cfg)
            .expect("fit")
            .error_rate(&split.test);
        assert!(
            err_large <= err_small + 0.02,
            "more data hurt: {err_small} -> {err_large}"
        );
    }

    #[test]
    fn hyperparameters_matter() {
        // Absurd gamma (every point an island) should underperform a sane one.
        let data = Dataset::two_spirals(120, 0.05, 9);
        let split = data.split(0.7, 0.0);
        let good = KernelRidge::fit(
            &split.train,
            split.train.len(),
            KernelRidgeConfig {
                lambda: 1e-4,
                gamma: 2.0,
            },
        )
        .expect("fit")
        .error_rate(&split.test);
        let bad = KernelRidge::fit(
            &split.train,
            split.train.len(),
            KernelRidgeConfig {
                lambda: 10.0,
                gamma: 1e-6,
            },
        )
        .expect("fit")
        .error_rate(&split.test);
        assert!(good + 0.1 < bad, "good {good} vs bad {bad}");
    }

    #[test]
    fn subset_is_clamped_to_dataset_size() {
        let data = blobs();
        let model = KernelRidge::fit(&data, 10_000, KernelRidgeConfig::default()).expect("fit");
        assert_eq!(model.support_size(), data.len());
    }

    #[test]
    fn decision_has_one_score_per_class() {
        let data = blobs();
        let model = KernelRidge::fit(&data, 30, KernelRidgeConfig::default()).expect("fit");
        assert_eq!(model.decision(&data.xs[0]).len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one training point")]
    fn zero_subset_rejected() {
        let _ = KernelRidge::fit(&blobs(), 0, KernelRidgeConfig::default());
    }
}
