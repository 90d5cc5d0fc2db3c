//! Descriptive statistics used throughout the workspace: means, variances,
//! linear-interpolation quantiles, argsort, top-k selection, ECDF, and
//! Spearman rank correlation.

/// Arithmetic mean; `NaN` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance; `NaN` for an empty slice.
pub(crate) fn variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation; `NaN` for an empty slice.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Linear-interpolation quantile (the "linear" method of NumPy), `q` in
/// `[0, 1]`. `NaN` for an empty slice.
///
/// # Panics
///
/// Panics in debug builds if `q` is outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    quantile_sorted(&sorted, q)
}

/// Quantile of an already-sorted slice (ascending).
pub(crate) fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = pos - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Indices that would sort `xs` ascending (NaN values sort last).
pub(crate) fn argsort(xs: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| {
        xs[a]
            .partial_cmp(&xs[b])
            .unwrap_or_else(|| xs[a].is_nan().cmp(&xs[b].is_nan()))
    });
    idx
}

/// Fractional ranks (average rank for ties), 1-based, as used by Spearman
/// correlation.
pub(crate) fn fractional_ranks(xs: &[f64]) -> Vec<f64> {
    let order = argsort(xs);
    let n = xs.len();
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        // Group ties.
        while j + 1 < n && xs[order[j + 1]] == xs[order[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &o in &order[i..=j] {
            ranks[o] = avg_rank;
        }
        i = j + 1;
    }
    ranks
}

/// Pearson correlation coefficient; `NaN` when either input is constant or
/// the lengths differ.
pub(crate) fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    if xs.len() != ys.len() || xs.len() < 2 {
        return f64::NAN;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx).powi(2);
        syy += (y - my).powi(2);
    }
    if sxx == 0.0 || syy == 0.0 {
        return f64::NAN;
    }
    sxy / (sxx * syy).sqrt()
}

/// Spearman rank correlation: Pearson correlation of fractional ranks. Used
/// to verify that the surrogate benchmarks preserve early-vs-final loss rank
/// structure (the property early stopping relies on).
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    pearson(&fractional_ranks(xs), &fractional_ranks(ys))
}

/// Empirical cumulative distribution function of a sample.
///
/// # Examples
///
/// ```
/// let ecdf = asha_math::stats::Ecdf::new(&[1.0, 2.0, 3.0]);
/// assert_eq!(ecdf.eval(2.0), 2.0 / 3.0);
/// assert_eq!(ecdf.eval(0.0), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build the ECDF of a sample (NaN values are dropped).
    pub fn new(xs: &[f64]) -> Self {
        let mut sorted: Vec<f64> = xs.iter().copied().filter(|x| !x.is_nan()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after filter"));
        Ecdf { sorted }
    }

    /// Fraction of the sample `<= x`.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        // partition_point returns the count of elements <= x for a sorted
        // slice when the predicate is `v <= x`.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Number of (non-NaN) points.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the ECDF has no points.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Indices of the `k` smallest values of `xs` (ties broken by index order).
    /// Returns fewer than `k` indices when `xs` is shorter than `k`.
    fn bottom_k_indices(xs: &[f64], k: usize) -> Vec<usize> {
        let mut idx = argsort(xs);
        idx.truncate(k);
        idx
    }

    #[test]
    fn mean_variance_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert_eq!(variance(&xs), 4.0);
        assert_eq!(std_dev(&xs), 2.0);
        assert!(mean(&[]).is_nan());
        assert!(variance(&[]).is_nan());
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert!((quantile(&xs, 0.25) - 1.75).abs() < 1e-12);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn quantile_single_element() {
        assert_eq!(quantile(&[7.0], 0.3), 7.0);
    }

    #[test]
    fn argsort_orders_and_handles_nan() {
        let xs = [3.0, f64::NAN, 1.0, 2.0];
        let idx = argsort(&xs);
        assert_eq!(&idx[..3], &[2, 3, 0]);
        assert_eq!(idx[3], 1); // NaN last
    }

    #[test]
    fn bottom_k_selects_smallest() {
        let xs = [0.5, 0.1, 0.9, 0.3];
        assert_eq!(bottom_k_indices(&xs, 2), vec![1, 3]);
        assert_eq!(bottom_k_indices(&xs, 10).len(), 4);
        assert!(bottom_k_indices(&xs, 0).is_empty());
    }

    #[test]
    fn fractional_ranks_average_ties() {
        let xs = [1.0, 2.0, 2.0, 3.0];
        assert_eq!(fractional_ranks(&xs), vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn spearman_of_monotone_is_one() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [10.0, 100.0, 1000.0, 10_000.0, 100_000.0];
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-12);
        let rev: Vec<f64> = ys.iter().rev().copied().collect();
        assert!((spearman(&xs, &rev) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_cases() {
        assert!(pearson(&[1.0, 2.0], &[1.0]).is_nan());
        assert!(pearson(&[1.0, 1.0], &[1.0, 2.0]).is_nan());
        assert!(pearson(&[], &[]).is_nan());
    }

    #[test]
    fn ecdf_basic() {
        let e = Ecdf::new(&[3.0, 1.0, 2.0, f64::NAN]);
        assert_eq!(e.len(), 3);
        assert_eq!(e.eval(0.5), 0.0);
        assert!((e.eval(1.0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((e.eval(2.5) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(e.eval(10.0), 1.0);
        assert!(Ecdf::new(&[]).eval(0.0).is_nan());
        assert!(Ecdf::new(&[]).is_empty());
    }
}
