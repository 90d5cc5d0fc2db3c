//! Ladder geometry and the closed-form promotion and budget arithmetic built
//! on it: the tables of Figure 1 and the wall-clock bounds of Sections
//! 3.1–3.2.

use crate::error::Error;

/// `floor(log_eta(R/r))`: how many times `r` can be multiplied by `eta`
/// without exceeding `R`.
///
/// Counted by repeated multiplication rather than `ln(R/r)/ln(eta)`, whose
/// rounding lands just below the integer at exact powers (`log_3(243)`
/// evaluates to 4.999…) and would cost the ladder its top rung. The relative
/// epsilon absorbs the rounding of `r * eta^k` itself; dividing (rather than
/// scaling `R` up) keeps the loop finite for `R` near `f64::MAX`.
fn s_max(r: f64, max_r: f64, eta: f64) -> usize {
    let mut k = 0;
    while r * eta.powi(k + 1) / max_r <= 1.0 + 1e-9 {
        k += 1;
    }
    k as usize
}

/// The fewest base-rung configurations a synchronous bracket needs for one
/// to reach rung `top`, when each rung keeps `floor(n / eta)` of its `n`.
///
/// Iterated down from the top: one survivor there needs `ceil(eta)` below
/// it, `m` survivors need `ceil(m * eta)`. That is `eta^top` for a whole
/// `eta`; for any other `eta` the rounding compounds and `eta^top` is too
/// few (`eta = 2.5`, two rungs up: 8, not 6).
pub(crate) fn min_configs(eta: f64, top: usize) -> usize {
    (0..top).fold(1, |m, _| (m as f64 * eta).ceil() as usize)
}

/// The rung geometry of one bracket — `(r, R, eta, s)`, validated — and the
/// only place the workspace derives rung counts and rung resources from
/// them. Every scheduler config checks itself by building one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Geometry {
    min_resource: f64,
    max_resource: f64,
    eta: f64,
    stop_rate: usize,
    max_rung: Option<usize>,
}

impl Geometry {
    /// Check `(r, R, eta, s)` and derive the ladder shape. `max_r = None` is
    /// the infinite horizon (Section 3.3): no top rung, any `s`.
    ///
    /// Fails (kind `Config`) unless `eta >= 2`, `0 < r <= R`, all three are
    /// finite, and `s <= floor(log_eta(R/r))`.
    pub(crate) fn new(r: f64, max_r: Option<f64>, eta: f64, s: usize) -> Result<Self, Error> {
        // Written so that NaN fails each check.
        if !(eta >= 2.0 && eta.is_finite()) {
            return Err(Error::config(format!(
                "reduction factor eta must be >= 2, got {eta}"
            )));
        }
        let max_resource = max_r.unwrap_or(f64::INFINITY);
        if !(r > 0.0 && r.is_finite() && max_resource >= r && max_r.is_none_or(f64::is_finite)) {
            return Err(Error::config(format!(
                "resources must satisfy 0 < r <= R < inf, got r={r}, R={max_resource}"
            )));
        }
        let max_rung = match max_r {
            None => None,
            Some(max_r) => {
                let s_max = s_max(r, max_r, eta);
                if s > s_max {
                    return Err(Error::config(format!(
                        "early-stopping rate s={s} exceeds log_eta(R/r)={s_max}"
                    )));
                }
                Some(s_max - s)
            }
        };
        Ok(Geometry {
            min_resource: r,
            max_resource,
            eta,
            stop_rate: s,
            max_rung,
        })
    }

    /// [`Geometry::new`] over a finite horizon, for in-process callers whose
    /// constructors document a panic on invalid input.
    pub(crate) fn finite_or_panic(r: f64, max_r: f64, eta: f64, s: usize) -> Self {
        Geometry::new(r, Some(max_r), eta, s).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The reduction factor `eta`.
    pub(crate) fn eta(&self) -> f64 {
        self.eta
    }

    /// The early-stopping rate `s`.
    #[cfg(test)]
    pub(crate) fn stop_rate(&self) -> usize {
        self.stop_rate
    }

    /// Index of the top rung, `floor(log_eta(R/r)) - s`; `None` in the
    /// infinite horizon.
    pub(crate) fn max_rung(&self) -> Option<usize> {
        self.max_rung
    }

    /// Number of rungs, `floor(log_eta(R/r)) - s + 1`.
    ///
    /// # Panics
    ///
    /// Panics in the infinite horizon, which has no last rung.
    pub(crate) fn num_rungs(&self) -> usize {
        self.max_rung.expect("infinite horizon has no rung count") + 1
    }

    /// Cumulative resource of a trial at rung `k`: `min(r * eta^(s + k), R)`.
    pub(crate) fn resource(&self, rung: usize) -> f64 {
        (self.min_resource * self.eta.powi((self.stop_rate + rung) as i32)).min(self.max_resource)
    }
}

/// One row of a bracket's promotion table: rung index, number of
/// configurations, per-configuration resource, and the rung's total budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RungRow {
    /// Rung index `i` within the bracket (0 = base).
    pub rung: usize,
    /// Number of configurations evaluated at this rung, `n_i = floor(n * eta^-i)`.
    pub num_configs: usize,
    /// Per-configuration cumulative resource, `r_i = r * eta^(s+i)`.
    pub resource: f64,
    /// Total budget of the rung, `n_i * r_i`.
    pub budget: f64,
}

/// The promotion scheme of a synchronous SHA bracket (Figure 1, right):
/// rows `(i, n_i, r_i, n_i * r_i)` for `i = 0 ..= floor(log_eta(R/r)) - s`.
///
/// # Panics
///
/// Panics if `eta < 2`, resources are invalid, or `s > floor(log_eta(R/r))`.
///
/// # Examples
///
/// ```
/// let rows = asha_core::budget::promotion_table(9, 1.0, 9.0, 3.0, 0);
/// let (n, r): (Vec<_>, Vec<_>) = rows.iter().map(|row| (row.num_configs, row.resource)).unzip();
/// assert_eq!(n, [9, 3, 1]);
/// assert_eq!(r, [1.0, 3.0, 9.0]);
/// ```
pub fn promotion_table(n: usize, r: f64, max_r: f64, eta: f64, s: usize) -> Vec<RungRow> {
    let geometry = Geometry::finite_or_panic(r, max_r, eta, s);
    (0..geometry.num_rungs())
        .map(|i| {
            let num_configs = (n as f64 * eta.powi(-(i as i32))).floor() as usize;
            let resource = geometry.resource(i);
            RungRow {
                rung: i,
                num_configs,
                resource,
                budget: num_configs as f64 * resource,
            }
        })
        .collect()
}

/// Total budget of a synchronous SHA bracket: the sum of its rung budgets.
/// Asynchronous Hyperband uses this as the per-bracket allotment before
/// switching brackets.
pub fn bracket_budget(n: usize, r: f64, max_r: f64, eta: f64, s: usize) -> f64 {
    promotion_table(n, r, max_r, eta, s)
        .iter()
        .map(|row| row.budget)
        .sum()
}

/// Minimum wall-clock time (in units of `time(R)`, assuming training time
/// scales linearly with resource) for *synchronous* SHA to return a
/// configuration trained to completion: one `time(R)`-equivalent per rung
/// (Section 3.1: "(log_eta(R/r) - s + 1) x time(R)").
pub fn sha_time_to_completion(r: f64, max_r: f64, eta: f64, s: usize) -> f64 {
    Geometry::finite_or_panic(r, max_r, eta, s).num_rungs() as f64
}

/// Wall-clock time (in units of `time(R)`) for ASHA to return a
/// configuration trained to completion given one worker per
/// rung-promotion slot (Section 3.2):
/// `sum_{i=s}^{log_eta(R)} eta^(i - log_eta(R)) <= 2`.
pub fn asha_time_to_completion(r: f64, max_r: f64, eta: f64, s: usize) -> f64 {
    let rungs = Geometry::finite_or_panic(r, max_r, eta, s).num_rungs() as i32;
    (1..=rungs).map(|i| eta.powi(i - rungs)).sum()
}

/// Number of machines needed for ASHA to advance configurations to the next
/// rung in the same time it takes to train a single configuration in that
/// rung (Section 3.2: `eta^(log_eta(R) - s)` machines).
pub fn asha_workers_for_full_throughput(r: f64, max_r: f64, eta: f64, s: usize) -> usize {
    let top = Geometry::finite_or_panic(r, max_r, eta, s).num_rungs() - 1;
    eta.powi(top as i32) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_bracket0() {
        let rows = promotion_table(9, 1.0, 9.0, 3.0, 0);
        assert_eq!(rows.len(), 3);
        assert_eq!(
            rows.iter().map(|r| r.num_configs).collect::<Vec<_>>(),
            vec![9, 3, 1]
        );
        assert_eq!(
            rows.iter().map(|r| r.resource).collect::<Vec<_>>(),
            vec![1.0, 3.0, 9.0]
        );
        // Figure 1: each rung of bracket 0 has total budget 9.
        assert!(rows.iter().all(|r| r.budget == 9.0));
        assert_eq!(bracket_budget(9, 1.0, 9.0, 3.0, 0), 27.0);
    }

    #[test]
    fn figure1_bracket1_and_2() {
        // Bracket 1: n_i = {9, 3}, r_i = {3, 9}, budgets {27, 27}.
        let rows = promotion_table(9, 1.0, 9.0, 3.0, 1);
        assert_eq!(
            rows.iter()
                .map(|r| (r.num_configs, r.resource))
                .collect::<Vec<_>>(),
            vec![(9, 3.0), (3, 9.0)]
        );
        assert!(rows.iter().all(|r| r.budget == 27.0));
        // Bracket 2: single rung of 9 configs at R = 9, budget 81.
        let rows = promotion_table(9, 1.0, 9.0, 3.0, 2);
        assert_eq!(
            rows.iter()
                .map(|r| (r.num_configs, r.resource))
                .collect::<Vec<_>>(),
            vec![(9, 9.0)]
        );
        assert_eq!(bracket_budget(9, 1.0, 9.0, 3.0, 2), 81.0);
    }

    #[test]
    fn paper_experiment_budget_scale() {
        // Sections 4.1-4.2: n=256, eta=4, r=R/256 -> 5 rungs 256..1.
        let rows = promotion_table(256, 1.0, 256.0, 4.0, 0);
        assert_eq!(rows.len(), 5);
        assert_eq!(
            rows.iter().map(|r| r.num_configs).collect::<Vec<_>>(),
            vec![256, 64, 16, 4, 1]
        );
        assert_eq!(rows.last().unwrap().resource, 256.0);
    }

    #[test]
    fn sha_completion_time_matches_section31() {
        // Bracket 0 of Figure 1: "3 x time(R), since there are three rungs".
        assert_eq!(sha_time_to_completion(1.0, 9.0, 3.0, 0), 3.0);
        assert_eq!(sha_time_to_completion(1.0, 9.0, 3.0, 1), 2.0);
    }

    #[test]
    fn asha_completion_time_matches_section32() {
        // Bracket 0 of Figure 1 with 9 machines: 13/9 x time(R).
        let t = asha_time_to_completion(1.0, 9.0, 3.0, 0);
        assert!((t - 13.0 / 9.0).abs() < 1e-12, "t = {t}");
        // The bound of Section 3.2: always <= 2 time(R).
        for (r, max_r, eta) in [(1.0, 256.0, 4.0), (1.0, 1024.0, 2.0), (1.0, 9.0, 3.0)] {
            assert!(asha_time_to_completion(r, max_r, eta, 0) <= 2.0);
        }
    }

    #[test]
    fn worker_count_for_throughput() {
        assert_eq!(asha_workers_for_full_throughput(1.0, 9.0, 3.0, 0), 9);
        assert_eq!(asha_workers_for_full_throughput(1.0, 256.0, 4.0, 0), 256);
        assert_eq!(asha_workers_for_full_throughput(1.0, 256.0, 4.0, 2), 16);
    }

    #[test]
    fn resource_clamped_to_max() {
        let rows = promotion_table(10, 1.0, 10.0, 3.0, 0);
        assert!(rows.iter().all(|r| r.resource <= 10.0));
    }

    #[test]
    fn geometry_rejects_what_no_ladder_can_be_built_from() {
        let err = |r, max_r, eta, s| Geometry::new(r, max_r, eta, s).unwrap_err().to_string();
        assert!(err(1.0, Some(9.0), 1.5, 0).contains("eta must be >= 2"));
        assert!(err(1.0, Some(9.0), f64::NAN, 0).contains("eta must be >= 2"));
        assert!(err(1.0, Some(9.0), 3.0, 3).contains("exceeds log_eta"));
        assert!(err(0.0, Some(9.0), 3.0, 0).contains("0 < r <= R"));
        assert!(err(10.0, Some(9.0), 3.0, 0).contains("0 < r <= R"));
        assert!(err(1.0, Some(f64::INFINITY), 3.0, 0).contains("0 < r <= R"));
        assert!(err(f64::NAN, None, 3.0, 0).contains("0 < r <= R"));
        assert_eq!(
            Geometry::new(1.0, Some(9.0), 1.5, 0).unwrap_err().kind(),
            crate::ErrorKind::Config
        );
        // The largest finite R terminates, and the infinite horizon takes
        // any stop rate.
        assert!(Geometry::new(1.0, Some(f64::MAX), 2.0, 1023).is_ok());
        assert_eq!(Geometry::new(1.0, None, 3.0, 40).unwrap().max_rung(), None);
    }

    #[test]
    #[should_panic(expected = "exceeds log_eta")]
    fn invalid_stop_rate_panics() {
        let _ = promotion_table(9, 1.0, 9.0, 3.0, 5);
    }
}
