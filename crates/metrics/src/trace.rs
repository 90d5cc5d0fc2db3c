use serde::{Deserialize, Serialize};

use crate::curve::StepCurve;

/// One completed job in a tuning run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Completion time (simulated or wall-clock, in the run's time unit).
    pub time: f64,
    /// Trial identifier (raw `u64` of `asha_core::TrialId`).
    pub trial: u64,
    /// Bracket that issued the job.
    pub bracket: usize,
    /// Rung the job trained for.
    pub rung: usize,
    /// Cumulative resource the trial reached.
    pub resource: f64,
    /// Validation loss observed by the scheduler.
    pub val_loss: f64,
    /// Test loss of this trial at this point (never shown to schedulers).
    pub test_loss: f64,
}

/// The full record of one tuning run: every job completion in time order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunTrace {
    searcher: String,
    events: Vec<TraceEvent>,
}

impl RunTrace {
    /// Create an empty trace for the named searcher.
    pub fn new(searcher: impl Into<String>) -> Self {
        RunTrace {
            searcher: searcher.into(),
            events: Vec::new(),
        }
    }

    /// The searcher name this trace belongs to.
    pub fn searcher(&self) -> &str {
        &self.searcher
    }

    /// Append a completion event.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if events are pushed out of time order.
    pub fn push(&mut self, event: TraceEvent) {
        debug_assert!(
            self.events.last().is_none_or(|e| e.time <= event.time),
            "events must be pushed in time order"
        );
        self.events.push(event);
    }

    /// All events in time order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no job has completed.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Incumbent test loss over time, updating at *every* observation: the
    /// accounting ASHA uses ("Hyperband (by rung)" in Appendix A.2 uses the
    /// same intermediate-loss idea). The incumbent is the trial with the
    /// best validation loss so far; the curve reports that trial's test
    /// loss — mirroring the paper's offline-validation evaluation scheme.
    pub fn incumbent_curve(&self) -> StepCurve {
        let mut points = Vec::new();
        let mut best_val = f64::INFINITY;
        for e in &self.events {
            if e.val_loss < best_val {
                best_val = e.val_loss;
                points.push((e.time, e.test_loss));
            }
        }
        StepCurve::new(points)
    }

    /// Incumbent test loss revealed only at bracket boundaries ("Hyperband
    /// (by bracket)" in Appendix A.2): the best configuration so far is
    /// recorded, but the curve only updates when the running bracket index
    /// changes (or at the final event).
    pub fn incumbent_curve_by_bracket(&self) -> StepCurve {
        let mut points = Vec::new();
        let mut best_val = f64::INFINITY;
        let mut best_test = f64::INFINITY;
        let mut current_bracket: Option<usize> = None;
        for e in &self.events {
            if current_bracket.is_some() && current_bracket != Some(e.bracket) {
                // Bracket boundary: reveal what we had.
                if best_val.is_finite() {
                    points.push((e.time, best_test));
                }
            }
            current_bracket = Some(e.bracket);
            if e.val_loss < best_val {
                best_val = e.val_loss;
                best_test = e.test_loss;
            }
        }
        if let (Some(last), true) = (self.events.last(), best_val.is_finite()) {
            points.push((last.time, best_test));
        }
        StepCurve::new(points)
    }

    /// Incumbent test loss considering only observations at or above
    /// `min_resource` — "only considering the final SHA outputs" (Section
    /// 3.3 contrasts this with ASHA's intermediate-loss accounting, which
    /// [`RunTrace::incumbent_curve`] implements).
    pub fn incumbent_curve_final_only(&self, min_resource: f64) -> StepCurve {
        let mut points = Vec::new();
        let mut best_val = f64::INFINITY;
        for e in &self.events {
            if e.resource >= min_resource && e.val_loss < best_val {
                best_val = e.val_loss;
                points.push((e.time, e.test_loss));
            }
        }
        StepCurve::new(points)
    }

    /// Write all events to a CSV file (one row per completion).
    ///
    /// # Errors
    ///
    /// Returns [`crate::CsvError`] on I/O failure.
    #[cfg(test)]
    pub(crate) fn write_events_csv(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), crate::CsvError> {
        let rows: Vec<Vec<f64>> = self
            .events
            .iter()
            .map(|e| {
                vec![
                    e.time,
                    e.trial as f64,
                    e.bracket as f64,
                    e.rung as f64,
                    e.resource,
                    e.val_loss,
                    e.test_loss,
                ]
            })
            .collect();
        crate::write_csv(
            path,
            &[
                "time",
                "trial",
                "bracket",
                "rung",
                "resource",
                "val_loss",
                "test_loss",
            ],
            &rows,
        )
    }

    /// Number of distinct trials trained to at least `resource` by `deadline`
    /// (Figure 7's y-axis: "# configurations trained for R").
    pub fn configs_trained_to(&self, resource: f64, deadline: f64) -> usize {
        let mut seen = std::collections::HashSet::new();
        for e in &self.events {
            if e.time <= deadline && e.resource >= resource {
                seen.insert(e.trial);
            }
        }
        seen.len()
    }

    /// Time of the first completion with at least `resource` (Figure 8's
    /// y-axis: "time until first configuration trained for R"), if any.
    pub fn first_time_trained_to(&self, resource: f64) -> Option<f64> {
        self.events
            .iter()
            .find(|e| e.resource >= resource)
            .map(|e| e.time)
    }

    /// Number of distinct trials that have at least one event.
    pub fn distinct_trials(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        for e in &self.events {
            seen.insert(e.trial);
        }
        seen.len()
    }

    /// Best validation loss and the matching test loss at the end of the
    /// run, if any job completed with a loss that is not NaN.
    pub fn final_best(&self) -> Option<(f64, f64)> {
        let mut best: Option<(f64, f64)> = None;
        for e in &self.events {
            if !e.val_loss.is_nan() && best.is_none_or(|(v, _)| e.val_loss < v) {
                best = Some((e.val_loss, e.test_loss));
            }
        }
        best
    }

    /// Time of the last event, or 0 for an empty trace.
    #[cfg(test)]
    pub(crate) fn end_time(&self) -> f64 {
        self.events.last().map_or(0.0, |e| e.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: f64, trial: u64, bracket: usize, resource: f64, val: f64, test: f64) -> TraceEvent {
        TraceEvent {
            time,
            trial,
            bracket,
            rung: 0,
            resource,
            val_loss: val,
            test_loss: test,
        }
    }

    #[test]
    fn incumbent_tracks_best_validation_but_reports_test() {
        let mut t = RunTrace::new("x");
        t.push(ev(1.0, 0, 0, 1.0, 0.5, 0.52));
        t.push(ev(2.0, 1, 0, 1.0, 0.6, 0.10)); // better test, worse val: ignored
        t.push(ev(3.0, 2, 0, 1.0, 0.4, 0.45));
        let c = t.incumbent_curve();
        assert_eq!(c.eval(1.5), Some(0.52));
        assert_eq!(c.eval(2.5), Some(0.52));
        assert_eq!(c.eval(3.5), Some(0.45));
        assert_eq!(c.eval(0.5), None);
    }

    #[test]
    fn by_bracket_reveals_late() {
        let mut t = RunTrace::new("hb");
        t.push(ev(1.0, 0, 0, 1.0, 0.5, 0.50));
        t.push(ev(2.0, 1, 0, 1.0, 0.3, 0.35));
        t.push(ev(5.0, 2, 1, 1.0, 0.6, 0.65)); // bracket switch at t=5
        t.push(ev(9.0, 3, 1, 1.0, 0.2, 0.25));
        let by_bracket = t.incumbent_curve_by_bracket();
        // Nothing revealed during bracket 0.
        assert_eq!(by_bracket.eval(2.5), None);
        // At the bracket-1 boundary (t=5) the bracket-0 best appears.
        assert_eq!(by_bracket.eval(5.0), Some(0.35));
        // Final event reveals the overall best.
        assert_eq!(by_bracket.eval(9.0), Some(0.25));
        // The by-observation curve is strictly earlier.
        assert_eq!(t.incumbent_curve().eval(2.5), Some(0.35));
    }

    #[test]
    fn configs_trained_to_counts_distinct_trials() {
        let mut t = RunTrace::new("x");
        t.push(ev(1.0, 0, 0, 256.0, 0.5, 0.5));
        t.push(ev(2.0, 0, 0, 256.0, 0.5, 0.5)); // same trial again
        t.push(ev(3.0, 1, 0, 64.0, 0.5, 0.5)); // not full budget
        t.push(ev(4.0, 2, 0, 256.0, 0.5, 0.5));
        t.push(ev(99.0, 3, 0, 256.0, 0.5, 0.5)); // past deadline
        assert_eq!(t.configs_trained_to(256.0, 10.0), 2);
        assert_eq!(t.configs_trained_to(256.0, 100.0), 3);
        assert_eq!(t.distinct_trials(), 4);
    }

    #[test]
    fn first_time_trained_to_finds_earliest() {
        let mut t = RunTrace::new("x");
        assert_eq!(t.first_time_trained_to(9.0), None);
        t.push(ev(1.0, 0, 0, 3.0, 0.5, 0.5));
        t.push(ev(4.0, 1, 0, 9.0, 0.5, 0.5));
        t.push(ev(6.0, 2, 0, 9.0, 0.5, 0.5));
        assert_eq!(t.first_time_trained_to(9.0), Some(4.0));
    }

    #[test]
    fn final_best_and_end_time() {
        let mut t = RunTrace::new("x");
        assert_eq!(t.final_best(), None);
        assert_eq!(t.end_time(), 0.0);
        t.push(ev(1.0, 0, 0, 1.0, 0.5, 0.52));
        t.push(ev(2.0, 1, 0, 1.0, 0.3, 0.31));
        assert_eq!(t.final_best(), Some((0.3, 0.31)));
        assert_eq!(t.end_time(), 2.0);
        assert_eq!(t.searcher(), "x");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn final_only_incumbent_lags_intermediate() {
        let mut t = RunTrace::new("x");
        t.push(ev(1.0, 0, 0, 4.0, 0.5, 0.5)); // partial training
        t.push(ev(5.0, 0, 0, 16.0, 0.4, 0.4)); // full budget
        let by_any = t.incumbent_curve();
        let by_final = t.incumbent_curve_final_only(16.0);
        assert_eq!(by_any.eval(1.0), Some(0.5));
        assert_eq!(by_final.eval(1.0), None, "final-only has nothing yet");
        assert_eq!(by_final.eval(5.0), Some(0.4));
    }

    #[test]
    fn events_round_trip_through_csv() {
        let mut t = RunTrace::new("x");
        t.push(ev(1.5, 3, 1, 4.0, 0.25, 0.3));
        let dir = std::env::temp_dir().join("asha-trace-test");
        let path = dir.join("events.csv");
        t.write_events_csv(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            "time,trial,bracket,rung,resource,val_loss,test_loss"
        );
        assert_eq!(lines.next().unwrap(), "1.5,3,1,0,4,0.25,0.3");
        std::fs::remove_dir_all(&dir).ok();
    }
}
