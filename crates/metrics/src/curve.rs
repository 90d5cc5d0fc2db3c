use serde::{Deserialize, Serialize};

/// A right-continuous step function of time: the value at `t` is the value
/// of the last point at or before `t`, or `None` before the first point.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StepCurve {
    points: Vec<(f64, f64)>,
}

impl StepCurve {
    /// Build from `(time, value)` points.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the times are not non-decreasing.
    pub(crate) fn new(points: Vec<(f64, f64)>) -> Self {
        debug_assert!(
            points.windows(2).all(|w| w[0].0 <= w[1].0),
            "step curve points must be time-ordered"
        );
        StepCurve { points }
    }

    /// The underlying `(time, value)` points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of change points.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the curve has no points.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Value at time `t` (the last change at or before `t`).
    pub fn eval(&self, t: f64) -> Option<f64> {
        let idx = self.points.partition_point(|&(time, _)| time <= t);
        if idx == 0 {
            None
        } else {
            Some(self.points[idx - 1].1)
        }
    }

    /// Value at `t`, substituting `default` before the first change point.
    pub fn eval_or(&self, t: f64, default: f64) -> f64 {
        self.eval(t).unwrap_or(default)
    }

    /// Final value, if any.
    pub fn last_value(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// First time at which the curve is at or below `threshold` — "time to
    /// reach test error X", the headline comparisons of Sections 4.2–4.3.
    pub fn time_to_reach(&self, threshold: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|&&(_, v)| v <= threshold)
            .map(|&(t, _)| t)
    }
}

/// Mean/quantile/extreme envelopes of several step curves on a shared grid:
/// the aggregated bands plotted in Figures 3–6 and 9.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregateCurve {
    /// The shared time grid.
    pub grid: Vec<f64>,
    /// Mean across curves at each grid time.
    pub mean: Vec<f64>,
    /// Lower quartile (25%).
    pub q25: Vec<f64>,
    /// Upper quartile (75%).
    pub q75: Vec<f64>,
    /// Minimum across curves.
    pub min: Vec<f64>,
    /// Maximum across curves.
    pub max: Vec<f64>,
}

impl AggregateCurve {
    /// Mean value at the final grid point.
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty.
    pub fn final_mean(&self) -> f64 {
        *self.mean.last().expect("aggregate grid must be non-empty")
    }

    /// First grid time at which the mean is at or below `threshold`.
    pub fn time_to_reach(&self, threshold: f64) -> Option<f64> {
        self.grid
            .iter()
            .zip(&self.mean)
            .find(|&(_, &m)| m <= threshold)
            .map(|(&t, _)| t)
    }
}

/// Aggregate step curves on `grid`. Curves that have no value yet at a grid
/// time contribute `default` (e.g. the untrained loss), mirroring how the
/// paper plots "no result yet" at the top of the axis.
///
/// # Panics
///
/// Panics if `curves` is empty.
pub fn aggregate(curves: &[StepCurve], grid: &[f64], default: f64) -> AggregateCurve {
    assert!(!curves.is_empty(), "cannot aggregate zero curves");
    let mut mean = Vec::with_capacity(grid.len());
    let mut q25 = Vec::with_capacity(grid.len());
    let mut q75 = Vec::with_capacity(grid.len());
    let mut min = Vec::with_capacity(grid.len());
    let mut max = Vec::with_capacity(grid.len());
    for &t in grid {
        let vals: Vec<f64> = curves.iter().map(|c| c.eval_or(t, default)).collect();
        mean.push(asha_stats_mean(&vals));
        q25.push(asha_stats_quantile(&vals, 0.25));
        q75.push(asha_stats_quantile(&vals, 0.75));
        min.push(vals.iter().copied().fold(f64::INFINITY, f64::min));
        max.push(vals.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }
    AggregateCurve {
        grid: grid.to_vec(),
        mean,
        q25,
        q75,
        min,
        max,
    }
}

/// Build a uniform time grid of `n` points over `[0, end]`.
///
/// # Panics
///
/// Panics if `n < 2` or `end <= 0`.
pub fn uniform_grid(end: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2, "grid needs at least two points");
    assert!(end > 0.0, "grid end must be positive");
    (0..n).map(|i| end * i as f64 / (n - 1) as f64).collect()
}

// Tiny local stats (avoid a circular dependency on asha-math, which does not
// depend on serde).
fn asha_stats_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn asha_stats_quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] * (1.0 - (pos - lo as f64)) + sorted[hi] * (pos - lo as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_curve_eval() {
        let c = StepCurve::new(vec![(1.0, 10.0), (3.0, 5.0)]);
        assert_eq!(c.eval(0.5), None);
        assert_eq!(c.eval(1.0), Some(10.0));
        assert_eq!(c.eval(2.9), Some(10.0));
        assert_eq!(c.eval(3.0), Some(5.0));
        assert_eq!(c.eval(100.0), Some(5.0));
        assert_eq!(c.eval_or(0.0, 42.0), 42.0);
        assert_eq!(c.last_value(), Some(5.0));
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn time_to_reach_threshold() {
        let c = StepCurve::new(vec![(1.0, 0.5), (2.0, 0.3), (3.0, 0.2)]);
        assert_eq!(c.time_to_reach(0.35), Some(2.0));
        assert_eq!(c.time_to_reach(0.1), None);
        assert_eq!(c.time_to_reach(0.5), Some(1.0));
    }

    #[test]
    fn aggregate_mean_and_envelopes() {
        let a = StepCurve::new(vec![(0.0, 1.0), (10.0, 0.2)]);
        let b = StepCurve::new(vec![(0.0, 0.8), (5.0, 0.4)]);
        let agg = aggregate(&[a, b], &[0.0, 5.0, 10.0], 1.0);
        assert_eq!(agg.mean[0], 0.9);
        assert_eq!(agg.mean[1], (1.0 + 0.4) / 2.0);
        assert_eq!(agg.mean[2], (0.2 + 0.4) / 2.0);
        assert_eq!(agg.min[2], 0.2);
        assert_eq!(agg.max[2], 0.4);
        assert!((agg.final_mean() - 0.3).abs() < 1e-12);
        assert_eq!(agg.time_to_reach(0.7), Some(5.0));
    }

    #[test]
    fn aggregate_uses_default_before_first_point() {
        let a = StepCurve::new(vec![(5.0, 0.1)]);
        let agg = aggregate(&[a], &[0.0, 5.0], 0.9);
        assert_eq!(agg.mean[0], 0.9);
        assert_eq!(agg.mean[1], 0.1);
    }

    #[test]
    fn uniform_grid_spans_range() {
        let g = uniform_grid(10.0, 5);
        assert_eq!(g, vec![0.0, 2.5, 5.0, 7.5, 10.0]);
    }

    #[test]
    #[should_panic(expected = "zero curves")]
    fn aggregate_empty_panics() {
        let _ = aggregate(&[], &[0.0], 1.0);
    }
}
