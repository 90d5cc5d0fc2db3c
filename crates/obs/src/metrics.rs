//! Online metrics maintained from the telemetry event stream: counters,
//! gauges, and fixed-bucket histograms, all with O(1) updates so recording a
//! 500-worker simulation stays cheap.

use std::collections::HashMap;

use asha_core::telemetry::{Event, EventKind, IdleKind};

/// A monotonically increasing counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Increment by one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// A signed gauge tracking its running minimum and maximum.
///
/// Telemetry gauges (rung occupancy, pending promotions, busy workers) are
/// counts of real things, so a well-formed event stream never drives them
/// negative — `min()` staying `>= 0` is one of the registry's tested
/// invariants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauge {
    value: i64,
    min: i64,
    max: i64,
}

impl Gauge {
    /// Increment by one.
    pub fn inc(&mut self) {
        self.add(1);
    }

    /// Decrement by one.
    pub fn dec(&mut self) {
        self.add(-1);
    }

    /// Add a (possibly negative) delta.
    pub fn add(&mut self, delta: i64) {
        self.value += delta;
        self.min = self.min.min(self.value);
        self.max = self.max.max(self.value);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.value
    }

    /// Lowest value ever held (starts at 0).
    pub fn min(&self) -> i64 {
        self.min
    }

    /// Highest value ever held (starts at 0).
    pub fn max(&self) -> i64 {
        self.max
    }
}

/// The bucket core [`Histogram`] and
/// [`HistogramSnapshot`](crate::HistogramSnapshot) share: strictly
/// increasing finite upper bounds and one count per bucket, the last being
/// the overflow above the top bound. Bucket `i` counts observations in
/// `(bounds[i-1], bounds[i]]`. A histogram's total is the sum of its
/// buckets, so the two cannot disagree.
///
/// Sum, min and max stay with each type, because each pinned contract rules
/// out one representation. Whole nanoseconds would break `report.json`:
/// `run_report --demo --seed 0` writes `promotion_latency.max`
/// 23.46396760814339 and `mean` 0.2248693042659694, and neither is a whole
/// number of nanoseconds. An f64 sum would break the daemon's exact merges:
/// `shared_props.rs` merges up to 400 values of up to 1e6 s, a sum past
/// 2^53 ns, where f64 addition stops being exact and merge order shows.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Buckets {
    bounds: Vec<f64>,
    counts: Vec<u64>,
}

impl Buckets {
    /// Zeroed buckets; panics unless `bounds` are valid.
    pub(crate) fn new(bounds: Vec<f64>) -> Buckets {
        assert!(
            valid_bounds(&bounds),
            "bucket bounds must be non-empty, finite and strictly increasing"
        );
        let counts = vec![0; bounds.len() + 1];
        Buckets { bounds, counts }
    }

    /// Buckets decoded from outside the program: `None` unless the bounds
    /// are valid, there is one count per bucket and they sum to `total`.
    pub(crate) fn decoded(bounds: Vec<f64>, counts: Vec<u64>, total: u64) -> Option<Buckets> {
        let sum = counts.iter().try_fold(0u64, |acc, &n| acc.checked_add(n));
        (valid_bounds(&bounds) && counts.len() == bounds.len() + 1 && sum == Some(total))
            .then_some(Buckets { bounds, counts })
    }

    /// Zeroed buckets over bounds `first * factor^i` for `i in 0..n`.
    pub(crate) fn exponential(first: f64, factor: f64, n: usize) -> Buckets {
        assert!(first > 0.0 && factor > 1.0 && n > 0, "invalid bucket spec");
        Buckets::new((0..n).map(|i| first * factor.powi(i as i32)).collect())
    }

    pub(crate) fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// The bucket a value `v` falls in (NaN falls in the first).
    #[inline]
    pub(crate) fn index(&self, v: f64) -> usize {
        self.bounds.partition_point(|&b| b < v)
    }

    /// Total observations (saturating).
    pub(crate) fn count(&self) -> u64 {
        self.counts.iter().fold(0, |acc, &n| acc.saturating_add(n))
    }

    /// Per-bucket `(upper_bound, count)` pairs; the final entry is the
    /// overflow bucket with an infinite bound.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(f64::INFINITY))
            .zip(self.counts.iter().copied())
    }

    /// Upper-bound estimate of the `q`-quantile (`q` clamped to `[0, 1]`):
    /// the bound of the first bucket whose cumulative count reaches
    /// `ceil(q * n)`, clamped to the exact maximum `max`. NaN when empty.
    pub(crate) fn quantile(&self, q: f64, max: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return f64::NAN;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (bound, n) in self.iter() {
            seen = seen.saturating_add(n);
            if seen >= target {
                return bound.min(max);
            }
        }
        max
    }

    /// Add `counts` bucket by bucket (saturating).
    pub(crate) fn add(&mut self, counts: impl IntoIterator<Item = u64>) {
        for (dst, n) in self.counts.iter_mut().zip(counts) {
            *dst = dst.saturating_add(n);
        }
    }
}

fn valid_bounds(bounds: &[f64]) -> bool {
    !bounds.is_empty()
        && bounds.iter().all(|b| b.is_finite())
        && bounds.windows(2).all(|w| w[0] < w[1])
}

/// A fixed-bucket histogram over f64 observations: the shared bucket core
/// plus exact f64 sum/min/max. `observe` is O(log buckets) (a binary
/// search over ~24 bounds); no allocation after construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    buckets: Buckets,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// A histogram over the given strictly increasing upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty, not finite or not strictly increasing.
    pub fn new(bounds: Vec<f64>) -> Self {
        Histogram::over(Buckets::new(bounds))
    }

    /// Exponential bounds `first * factor^i` for `i in 0..n` — the default
    /// shape for latency-like quantities whose scale is unknown a priori.
    ///
    /// # Panics
    ///
    /// Panics if `first <= 0`, `factor <= 1`, or `n == 0`.
    pub fn exponential(first: f64, factor: f64, n: usize) -> Self {
        Histogram::over(Buckets::exponential(first, factor, n))
    }

    /// Latency buckets from 1e-3 to 1e-3·2^23 = 8 388.608 time units (24
    /// doubling buckets), used for every duration histogram in the registry.
    pub fn latency() -> Self {
        Histogram::exponential(1e-3, 2.0, 24)
    }

    fn over(buckets: Buckets) -> Self {
        Histogram {
            buckets,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation. Non-finite values land in the overflow
    /// bucket (and are excluded from `sum`, like NaN cells in CSV export).
    pub fn observe(&mut self, value: f64) {
        let idx = if value.is_finite() {
            self.sum += value;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
            self.buckets.index(value)
        } else {
            self.buckets.bounds.len()
        };
        self.buckets.counts[idx] += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.count()
    }

    /// Sum of all finite observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of finite observations (NaN when empty).
    pub fn mean(&self) -> f64 {
        self.sum / self.count() as f64
    }

    /// Smallest finite observation (infinite when none).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest finite observation (`-inf` when none).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Per-bucket `(upper_bound, count)` pairs; the final entry is the
    /// overflow bucket with an infinite bound.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.buckets.iter()
    }

    /// Upper-bound estimate of the `q`-quantile (`q` clamped to `[0, 1]`):
    /// the bound of the first bucket whose cumulative count reaches
    /// `ceil(q * n)`, clamped to the exact observed maximum. NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        self.buckets.quantile(q, self.max)
    }
}

impl Default for Histogram {
    /// The default latency buckets ([`Histogram::latency`]).
    fn default() -> Self {
        Histogram::latency()
    }
}

/// Per-kind decision counters (the four outcomes of a suggest call).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionCounters {
    /// Suggest calls that promoted a trial.
    pub promote: Counter,
    /// Suggest calls that grew the bottom rung.
    pub grow_bottom: Counter,
    /// Suggest calls that returned `Wait`.
    pub wait: Counter,
    /// Suggest calls that returned `Finished`.
    pub finished: Counter,
}

/// The online metrics registry: every gauge, counter, and histogram the
/// telemetry layer maintains, updated in O(1) per event by
/// [`MetricsRegistry::apply`].
///
/// The registry is derived *only* from the event stream, so replaying a
/// JSONL log through it reproduces exactly the metrics the live run saw —
/// that is what makes `run_report` trustworthy.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    /// Suggest outcomes by kind.
    pub decisions: DecisionCounters,
    /// Promotions out of each rung (index = source rung).
    pub promotions_per_rung: Vec<Counter>,
    /// Distinct trials with a completed job at each rung.
    pub rung_occupancy: Vec<Gauge>,
    /// Trials completed at a rung and not (yet) promoted out of it — the
    /// depth of the promotion backlog per rung. The top rung never promotes,
    /// so its backlog grows for the whole run by construction.
    pub pending_promotions: Vec<Gauge>,
    /// Workers currently executing a job.
    pub busy_workers: Gauge,
    /// Job attempts started (including retries).
    pub jobs_started: Counter,
    /// Jobs completed (a loss reached the scheduler).
    pub jobs_completed: Counter,
    /// Attempts whose result was lost (drop or timeout).
    pub jobs_dropped: Counter,
    /// Re-issues of dropped attempts.
    pub jobs_retried: Counter,
    /// Scheduling rounds that left workers idle.
    pub idle_rounds: Counter,
    /// Time from a trial's first completion at a rung to its promotion out
    /// of that rung — the paper's "how long do promotable configs wait".
    pub promotion_wait: Histogram,
    /// Time from an attempt's start to its completion.
    pub job_latency: Histogram,
    /// Time a dropped job waited before being re-issued.
    pub queue_delay: Histogram,
    /// First resource target seen for each rung (for the report table).
    rung_resource: Vec<f64>,
    /// Busy-worker time integral (for mean utilization).
    busy_integral: f64,
    last_time: f64,
    end_time: f64,
    start_times: HashMap<(u64, usize), f64>,
    complete_times: HashMap<(u64, usize), f64>,
    drop_times: HashMap<(u64, usize), f64>,
}

impl MetricsRegistry {
    /// An empty registry with the default latency buckets.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn at_rung<T: Default + Clone>(vec: &mut Vec<T>, rung: usize) -> &mut T {
        if rung >= vec.len() {
            vec.resize(rung + 1, T::default());
        }
        &mut vec[rung]
    }

    /// Fold one event into the registry. Events must arrive in `seq` order
    /// with non-decreasing times (what any [`Recorder`] is guaranteed);
    /// malformed streams (promotions without completions, ends without
    /// starts) are tolerated without panicking or driving gauges negative.
    ///
    /// [`Recorder`]: asha_core::telemetry::Recorder
    pub fn apply(&mut self, event: &Event) {
        // Time-weighted busy integral: account the interval since the last
        // event at the old busy level before applying this transition.
        let dt = (event.time - self.last_time).max(0.0);
        self.busy_integral += self.busy_workers.value() as f64 * dt;
        self.last_time = event.time;
        self.end_time = self.end_time.max(event.time);

        match event.kind {
            EventKind::Suggest { decision } => match decision {
                IdleKind::Wait => self.decisions.wait.inc(),
                IdleKind::Finished => self.decisions.finished.inc(),
            },
            EventKind::Promote { trial, from, .. } => {
                self.decisions.promote.inc();
                Self::at_rung(&mut self.promotions_per_rung, from).inc();
                // Promotion latency and backlog only make sense relative to
                // a recorded completion; a promote with no completion (a
                // hostile or truncated log) is counted but otherwise ignored.
                if let Some(done) = self.complete_times.remove(&(trial, from)) {
                    self.promotion_wait.observe(event.time - done);
                    Self::at_rung(&mut self.pending_promotions, from).dec();
                }
            }
            EventKind::GrowBottom { .. } => self.decisions.grow_bottom.inc(),
            EventKind::JobStart {
                trial,
                rung,
                resource,
                ..
            } => {
                self.jobs_started.inc();
                self.busy_workers.inc();
                let slot = Self::at_rung(&mut self.rung_resource, rung);
                if *slot == 0.0 {
                    *slot = resource;
                }
                self.start_times.insert((trial, rung), event.time);
            }
            EventKind::JobEnd { trial, rung, .. } => {
                self.jobs_completed.inc();
                // Only a matched start frees a worker: executors report a
                // poisoned job_end after its final drop already freed it.
                if let Some(started) = self.start_times.remove(&(trial, rung)) {
                    self.busy_workers.dec();
                    self.job_latency.observe(event.time - started);
                }
                if let std::collections::hash_map::Entry::Vacant(slot) =
                    self.complete_times.entry((trial, rung))
                {
                    slot.insert(event.time);
                    Self::at_rung(&mut self.rung_occupancy, rung).inc();
                    Self::at_rung(&mut self.pending_promotions, rung).inc();
                }
            }
            EventKind::Drop { trial, rung, .. } => {
                self.jobs_dropped.inc();
                if self.start_times.remove(&(trial, rung)).is_some() {
                    self.busy_workers.dec();
                }
                self.drop_times.insert((trial, rung), event.time);
            }
            EventKind::Retry { trial, rung } => {
                self.jobs_retried.inc();
                if let Some(dropped) = self.drop_times.remove(&(trial, rung)) {
                    self.queue_delay.observe(event.time - dropped);
                }
            }
            EventKind::WorkerIdle { .. } => self.idle_rounds.inc(),
        }
    }

    /// Timestamp of the last applied event.
    pub fn end_time(&self) -> f64 {
        self.end_time
    }

    /// The busy-worker time integral so far.
    pub fn busy_integral(&self) -> f64 {
        self.busy_integral
    }

    /// Mean worker utilization over `[0, end_time]` for a pool of `workers`
    /// (NaN before any event). Clamped to 1.0: the integral is a sum of
    /// thousands of `busy * dt` terms, so a fully-busy pool can otherwise
    /// land a few ulps above the exact ratio.
    pub fn mean_utilization(&self, workers: usize) -> f64 {
        let mean = self.busy_integral / (workers.max(1) as f64 * self.end_time);
        if mean > 1.0 {
            1.0
        } else {
            mean
        }
    }

    /// First resource target observed at `rung`, if any job started there.
    pub fn rung_resource(&self, rung: usize) -> Option<f64> {
        self.rung_resource.get(rung).copied().filter(|&r| r != 0.0)
    }

    /// Number of rungs any metric has touched.
    pub fn rung_count(&self) -> usize {
        self.promotions_per_rung
            .len()
            .max(self.rung_occupancy.len())
            .max(self.pending_promotions.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asha_core::telemetry::DropCause;

    fn ev(seq: u64, time: f64, kind: EventKind) -> Event {
        Event { seq, time, kind }
    }

    #[test]
    fn gauge_tracks_min_and_max() {
        let mut g = Gauge::default();
        g.inc();
        g.inc();
        g.dec();
        g.dec();
        g.dec();
        assert_eq!(g.value(), -1);
        assert_eq!(g.max(), 2);
        assert_eq!(g.min(), -1);
    }

    #[test]
    fn histogram_counts_sum_to_total() {
        let mut h = Histogram::latency();
        for v in [0.0005, 0.1, 3.0, 1e9, f64::INFINITY, f64::NAN] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        let bucket_sum: u64 = h.buckets().map(|(_, c)| c).sum();
        assert_eq!(bucket_sum, 6);
        assert_eq!(h.min(), 0.0005);
        assert_eq!(h.max(), 1e9);
    }

    #[test]
    fn histogram_quantiles_bound_the_data() {
        let mut h = Histogram::exponential(1.0, 2.0, 10);
        for i in 1..=100 {
            h.observe(i as f64);
        }
        let p50 = h.quantile(0.5);
        let p95 = h.quantile(0.95);
        assert!((50.0..=64.0).contains(&p50), "p50 {p50}");
        assert!((95.0..=100.0).contains(&p95), "p95 {p95}");
        assert!(p50 <= p95);
        assert_eq!(h.quantile(1.0), 100.0);
        assert!((h.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_quantile_is_nan() {
        let h = Histogram::latency();
        assert!(h.quantile(0.5).is_nan());
        assert!(h.mean().is_nan());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_rejected() {
        let _ = Histogram::new(vec![1.0, 1.0]);
    }

    #[test]
    fn job_lifecycle_updates_gauges_and_latency() {
        let mut m = MetricsRegistry::new();
        m.apply(&ev(
            0,
            0.0,
            EventKind::GrowBottom {
                trial: 0,
                bracket: 0,
                resource: 1.0,
            },
        ));
        m.apply(&ev(
            1,
            0.0,
            EventKind::JobStart {
                trial: 0,
                bracket: 0,
                rung: 0,
                resource: 1.0,
            },
        ));
        assert_eq!(m.busy_workers.value(), 1);
        m.apply(&ev(
            2,
            2.0,
            EventKind::JobEnd {
                trial: 0,
                rung: 0,
                resource: 1.0,
                loss: 0.4,
            },
        ));
        assert_eq!(m.busy_workers.value(), 0);
        assert_eq!(m.job_latency.count(), 1);
        assert_eq!(m.job_latency.max(), 2.0);
        assert_eq!(m.rung_occupancy[0].value(), 1);
        assert_eq!(m.pending_promotions[0].value(), 1);
        m.apply(&ev(
            3,
            5.0,
            EventKind::Promote {
                trial: 0,
                bracket: 0,
                from: 0,
                to: 1,
                resource: 4.0,
            },
        ));
        assert_eq!(m.pending_promotions[0].value(), 0);
        assert_eq!(m.promotion_wait.count(), 1);
        assert_eq!(m.promotion_wait.max(), 3.0);
        assert_eq!(m.promotions_per_rung[0].get(), 1);
        // Busy for 2 of 5 time units on 1 worker.
        assert!((m.mean_utilization(1) - 0.4).abs() < 1e-12);
        assert_eq!(m.rung_resource(0), Some(1.0));
        assert_eq!(m.rung_resource(1), None);
    }

    #[test]
    fn drop_retry_cycle_keeps_gauges_non_negative() {
        let mut m = MetricsRegistry::new();
        let start = |trial| EventKind::JobStart {
            trial,
            bracket: 0,
            rung: 0,
            resource: 1.0,
        };
        m.apply(&ev(0, 0.0, start(0)));
        m.apply(&ev(
            1,
            1.0,
            EventKind::Drop {
                trial: 0,
                rung: 0,
                cause: DropCause::Dropped,
            },
        ));
        assert_eq!(m.busy_workers.value(), 0);
        m.apply(&ev(2, 1.5, EventKind::Retry { trial: 0, rung: 0 }));
        m.apply(&ev(3, 1.5, start(0)));
        m.apply(&ev(
            4,
            3.0,
            EventKind::JobEnd {
                trial: 0,
                rung: 0,
                resource: 1.0,
                loss: 0.2,
            },
        ));
        assert_eq!(m.busy_workers.value(), 0);
        assert_eq!(m.busy_workers.min(), 0);
        assert_eq!(m.queue_delay.count(), 1);
        assert_eq!(m.queue_delay.max(), 0.5);
        assert_eq!(m.jobs_dropped.get(), 1);
        assert_eq!(m.jobs_retried.get(), 1);
    }

    #[test]
    fn hostile_streams_never_drive_gauges_negative() {
        // Ends without starts, promotes without completions, double drops.
        let mut m = MetricsRegistry::new();
        m.apply(&ev(
            0,
            0.0,
            EventKind::JobEnd {
                trial: 9,
                rung: 3,
                resource: 1.0,
                loss: 0.1,
            },
        ));
        m.apply(&ev(
            1,
            0.0,
            EventKind::Promote {
                trial: 42,
                bracket: 0,
                from: 5,
                to: 6,
                resource: 8.0,
            },
        ));
        m.apply(&ev(
            2,
            0.0,
            EventKind::Drop {
                trial: 1,
                rung: 0,
                cause: DropCause::Timeout,
            },
        ));
        assert!(m.busy_workers.min() >= 0);
        assert!(m.pending_promotions.iter().all(|g| g.min() >= 0));
        assert!(m.rung_occupancy.iter().all(|g| g.min() >= 0));
    }
}
