//! Lock-free metrics primitives safe to update from any thread.
//!
//! The run-layer [`MetricsRegistry`](crate::MetricsRegistry) is
//! single-threaded by design: one recorder folds one event stream. The
//! *daemon* layer (reactor loop, worker pool, WAL tailers, store fsyncs)
//! is many threads touching the same cells on hot paths, so this module
//! provides the concurrent counterparts — plain atomics, no locks, no
//! dependencies:
//!
//! * [`SharedCounter`] — monotone `u64` counter.
//! * [`SharedGauge`] — signed instantaneous value (queue depths, open
//!   connections).
//! * [`SharedHistogram`] — fixed-bucket latency histogram, sharded to
//!   keep concurrent `observe` calls from bouncing one cache line, with a
//!   mergeable [`HistogramSnapshot`] for export. Both share their buckets
//!   with the run layer's [`Histogram`](crate::Histogram).
//! * [`metric_cells!`](crate::metric_cells) — declares a struct of these
//!   cells and its metrics table ([`Row`]s) in one list, so a host renders
//!   every cell by walking the table instead of naming each one again.
//!
//! # Clock discipline
//!
//! Histograms take observations in **seconds** (`f64`) but store
//! fixed-point **nanoseconds** (`u64`). Integer addition commutes exactly,
//! so a snapshot merged from N shards — or from N processes — equals the
//! single-threaded reference bit-for-bit: per-bucket counts (and so
//! `count`), `sum_nanos`, `min_nanos`, and `max_nanos` are all
//! order-independent.
//! That exactness is what the concurrency proptests assert.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

use asha_metrics::JsonValue;

use crate::metrics::Buckets;

/// Number of independent shards per [`SharedHistogram`]. Eight covers the
/// daemon's thread count (reactor + workers + tailers) without letting a
/// snapshot scan get expensive.
const SHARDS: usize = 8;

/// A monotone counter updatable from any thread.
#[derive(Debug, Default)]
pub struct SharedCounter(AtomicU64);

impl SharedCounter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        SharedCounter(AtomicU64::new(0))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (e.g. a queue depth) updatable from any
/// thread.
#[derive(Debug, Default)]
pub struct SharedGauge(AtomicI64);

impl SharedGauge {
    /// A zeroed gauge.
    pub const fn new() -> Self {
        SharedGauge(AtomicI64::new(0))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtract one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Add `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Overwrite with `value`.
    #[inline]
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One shard's cells. `min_nanos` starts at `u64::MAX` so `fetch_min`
/// works without a sentinel branch; the total is the sum of `counts`.
#[derive(Debug)]
struct Shard {
    counts: Box<[AtomicU64]>,
    sum_nanos: AtomicU64,
    min_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

/// A fixed-bucket histogram whose `observe` is safe and cheap from any
/// thread.
///
/// Its buckets are the single-threaded [`Histogram`](crate::Histogram)'s:
/// `bounds` are strictly increasing upper edges, bucket `i` counts
/// observations `<= bounds[i]` (and above the previous edge), plus one
/// overflow bucket above the last edge. Observations are clamped to
/// `[0, +inf)`; a NaN counts as zero.
#[derive(Debug)]
pub struct SharedHistogram {
    /// The bucket layout, as the snapshot every scan starts from.
    empty: HistogramSnapshot,
    shards: Box<[Shard]>,
}

impl SharedHistogram {
    /// A histogram over explicit bucket upper edges.
    ///
    /// # Panics
    ///
    /// If `bounds` is empty, not finite or not strictly increasing.
    pub fn new(bounds: Vec<f64>) -> Self {
        SharedHistogram::over(Buckets::new(bounds))
    }

    /// The standard latency shape used across the daemon: powers of two
    /// from 1 µs to 1e-6·2^25 ≈ 33.6 s (26 edges). Wide enough for an fsync
    /// stall, fine enough to resolve a microsecond-scale reactor iteration.
    pub fn latency() -> Self {
        SharedHistogram::over(Buckets::exponential(1e-6, 2.0, 26))
    }

    fn over(buckets: Buckets) -> Self {
        let shard = || Shard {
            counts: (0..=buckets.bounds().len())
                .map(|_| AtomicU64::new(0))
                .collect(),
            sum_nanos: AtomicU64::new(0),
            min_nanos: AtomicU64::new(u64::MAX),
            max_nanos: AtomicU64::new(0),
        };
        SharedHistogram {
            shards: (0..SHARDS).map(|_| shard()).collect(),
            empty: HistogramSnapshot::over(buckets),
        }
    }

    /// The bucket upper edges (excluding the implicit `+inf`).
    pub fn bounds(&self) -> &[f64] {
        self.empty.bounds()
    }

    /// Record one observation, in seconds.
    #[inline]
    pub fn observe(&self, seconds: f64) {
        // NaN.max(0.0) is 0.0, so a NaN lands in the first bucket with
        // zero contribution to the sum instead of poisoning it.
        let v = seconds.max(0.0);
        let nanos = to_nanos(v);
        let shard = &self.shards[shard_index()];
        shard.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        shard.min_nanos.fetch_min(nanos, Ordering::Relaxed);
        shard.max_nanos.fetch_max(nanos, Ordering::Relaxed);
        // Counted last: where stores stay in order (x86), a racing
        // snapshot never shows a count without its min and max, which
        // `from_json` would refuse.
        shard.counts[self.empty.buckets.index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a [`std::time::Duration`].
    #[inline]
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Merge every shard into one consistent-enough snapshot. Updates
    /// racing with the scan may straddle it (a count landing without its
    /// sum); each cell is individually exact and monotone.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = self.empty.clone();
        for shard in self.shards.iter() {
            snap.absorb(
                shard.counts.iter().map(|n| n.load(Ordering::Relaxed)),
                shard.sum_nanos.load(Ordering::Relaxed),
                shard.min_nanos.load(Ordering::Relaxed),
                shard.max_nanos.load(Ordering::Relaxed),
            );
        }
        snap
    }
}

impl Default for SharedHistogram {
    /// The daemon's latency buckets ([`SharedHistogram::latency`]).
    fn default() -> Self {
        SharedHistogram::latency()
    }
}

/// Saturating fixed-point conversion: seconds → whole nanoseconds.
#[inline]
fn to_nanos(seconds: f64) -> u64 {
    let v = seconds * 1e9;
    if v >= u64::MAX as f64 {
        u64::MAX
    } else {
        v as u64
    }
}

/// Stable per-thread shard assignment: each thread gets the next slot
/// from a global counter on first use, then reuses it, so a thread's
/// observations never migrate between shards mid-run.
#[inline]
fn shard_index() -> usize {
    use std::cell::Cell;
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SLOT.with(|slot| {
        let mut v = slot.get();
        if v == usize::MAX {
            v = NEXT.fetch_add(1, Ordering::Relaxed);
            slot.set(v);
        }
        v % SHARDS
    })
}

/// A point-in-time copy of a [`SharedHistogram`], mergeable across
/// histograms with identical bounds (shards, threads, or processes).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    buckets: Buckets,
    sum_nanos: u64,
    /// `u64::MAX` when empty.
    min_nanos: u64,
    max_nanos: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot over the given bounds.
    ///
    /// # Panics
    ///
    /// If `bounds` is empty, not finite or not strictly increasing.
    pub fn empty(bounds: Vec<f64>) -> Self {
        HistogramSnapshot::over(Buckets::new(bounds))
    }

    fn over(buckets: Buckets) -> Self {
        HistogramSnapshot {
            buckets,
            sum_nanos: 0,
            min_nanos: u64::MAX,
            max_nanos: 0,
        }
    }

    /// The bucket upper edges (excluding the implicit `+inf`).
    pub fn bounds(&self) -> &[f64] {
        self.buckets.bounds()
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.count()
    }

    /// Sum of observations, in seconds.
    pub fn sum(&self) -> f64 {
        self.sum_nanos as f64 / 1e9
    }

    /// Exact sum in fixed-point nanoseconds.
    pub fn sum_nanos(&self) -> u64 {
        self.sum_nanos
    }

    /// Mean observation in seconds (NaN when empty).
    pub fn mean(&self) -> f64 {
        self.sum() / self.count() as f64
    }

    /// Smallest observation in seconds (NaN when empty).
    pub fn min(&self) -> f64 {
        self.seconds(self.min_nanos)
    }

    /// Largest observation in seconds (NaN when empty).
    pub fn max(&self) -> f64 {
        self.seconds(self.max_nanos)
    }

    fn seconds(&self, nanos: u64) -> f64 {
        if self.count() == 0 {
            f64::NAN
        } else {
            nanos as f64 / 1e9
        }
    }

    /// Iterate `(upper_edge, bucket_count)` pairs, ending with the
    /// `+inf` overflow bucket.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.buckets.iter()
    }

    /// Approximate quantile (`q` in `[0, 1]`): the upper edge of the
    /// bucket containing the target rank, clamped to the largest observed
    /// value so a lone overflow observation does not report `+inf`. NaN
    /// when empty. Matches [`Histogram::quantile`](crate::Histogram).
    pub fn quantile(&self, q: f64) -> f64 {
        self.buckets.quantile(q, self.max())
    }

    /// Fold `other` into `self`. Counts and sums saturate at `u64::MAX`.
    ///
    /// # Panics
    ///
    /// If the bucket bounds differ — merging histograms with different
    /// shapes is a caller bug, not a runtime condition.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(
            self.bounds(),
            other.bounds(),
            "cannot merge histogram snapshots with different bounds"
        );
        let counts = other.buckets.iter().map(|(_, n)| n);
        self.absorb(counts, other.sum_nanos, other.min_nanos, other.max_nanos);
    }

    fn absorb(&mut self, counts: impl Iterator<Item = u64>, sum: u64, min: u64, max: u64) {
        self.buckets.add(counts);
        self.sum_nanos = self.sum_nanos.saturating_add(sum);
        self.min_nanos = self.min_nanos.min(min);
        self.max_nanos = self.max_nanos.max(max);
    }

    /// Encode as JSON. Bounds are carried as a finite `le` array (the
    /// `+inf` overflow edge is implicit), so the encoding survives JSON's
    /// lack of infinities; nanosecond cells stay exact integers.
    pub fn to_json(&self) -> JsonValue {
        let count = self.count();
        JsonValue::obj(vec![
            ("count", JsonValue::Int(count)),
            ("sum_ns", JsonValue::Int(self.sum_nanos)),
            (
                "min_ns",
                if count == 0 {
                    JsonValue::Null
                } else {
                    JsonValue::Int(self.min_nanos)
                },
            ),
            ("max_ns", JsonValue::Int(self.max_nanos)),
            (
                "le",
                JsonValue::Arr(self.bounds().iter().map(|&b| JsonValue::Num(b)).collect()),
            ),
            (
                "counts",
                JsonValue::Arr(self.buckets().map(|(_, n)| JsonValue::Int(n)).collect()),
            ),
        ])
    }

    /// Decode a snapshot produced by [`HistogramSnapshot::to_json`].
    /// Returns `None` on a malformed or inconsistent value: `le` empty,
    /// not finite or not strictly increasing, a count per bucket missing,
    /// `count` other than the sum of `counts`, or `min_ns > max_ns` in a
    /// non-empty snapshot.
    pub fn from_json(v: &JsonValue) -> Option<HistogramSnapshot> {
        let array = |key: &str| match v.get(key)? {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        };
        let bounds = array("le")?
            .iter()
            .map(JsonValue::as_f64)
            .collect::<Option<_>>()?;
        let counts = array("counts")?
            .iter()
            .map(JsonValue::as_u64)
            .collect::<Option<_>>()?;
        let count = v.get("count")?.as_u64()?;
        let snap = HistogramSnapshot {
            buckets: Buckets::decoded(bounds, counts, count)?,
            sum_nanos: v.get("sum_ns")?.as_u64()?,
            min_nanos: match v.get("min_ns") {
                Some(JsonValue::Null) | None => u64::MAX,
                Some(n) => n.as_u64()?,
            },
            max_nanos: v.get("max_ns")?.as_u64()?,
        };
        (count == 0 || snap.min_nanos <= snap.max_nanos).then_some(snap)
    }
}

/// A cell as a metrics table reads it.
#[derive(Debug, Clone, Copy)]
pub enum Cell<'a> {
    /// A monotone counter.
    Counter(&'a SharedCounter),
    /// A signed gauge.
    Gauge(&'a SharedGauge),
    /// A latency histogram.
    Histogram(&'a SharedHistogram),
}

/// One row of a metrics table: a cell of an `S` and how it is exposed.
/// [`metric_cells!`](crate::metric_cells) writes these; a host walks them
/// to render every cell without naming it again.
pub struct Row<S> {
    /// The cell's key in a JSON snapshot (its field name).
    pub json: &'static str,
    /// Its Prometheus family; empty for a cell shown in JSON only.
    pub family: &'static str,
    /// Its Prometheus type: `counter`, `gauge` or `histogram`.
    pub kind: &'static str,
    /// Its Prometheus help text, which is also the field's doc.
    pub help: &'static str,
    /// Reads the cell off an `S`.
    pub cell: fn(&S) -> Cell<'_>,
}

/// Declares a struct of shared cells and its metrics table in one list.
/// Each field is written once, as
/// `name: kind "prometheus_family" "help",` with `kind` one of `counter`,
/// `gauge` or `histogram`. The help is also the field's doc. The struct
/// derives `Debug` and `Default`, and its `ROWS` constant lists one
/// [`Row`](crate::shared::Row) per field, in field order.
///
/// ```
/// asha_obs::metric_cells! {
///     /// Cells of a toy server.
///     pub struct Toy {
///         pub hits: counter "toy_hits_total" "Requests served",
///         pub wait: histogram "toy_wait_seconds" "Queue wait",
///     }
/// }
/// let toy = Toy::default();
/// toy.hits.inc();
/// assert_eq!(Toy::ROWS[0].json, "hits");
/// assert_eq!(Toy::ROWS[1].kind, "histogram");
/// ```
#[macro_export]
macro_rules! metric_cells {
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fattr:meta])* $fvis:vis $field:ident: $kind:ident $family:literal $help:literal,)*
        }
    ) => {
        $(#[$attr])*
        #[derive(Debug, Default)]
        $vis struct $name {
            $(#[doc = $help] $(#[$fattr])* $fvis $field: $crate::metric_cells!(@type $kind),)*
        }

        impl $name {
            /// The metrics table of these cells, in field order.
            $vis const ROWS: &'static [$crate::shared::Row<$name>] = &[$(
                $crate::shared::Row {
                    json: stringify!($field),
                    family: $family,
                    kind: stringify!($kind),
                    help: $help,
                    cell: |cells| $crate::metric_cells!(@cell $kind, &cells.$field),
                },
            )*];
        }
    };
    (@type counter) => { $crate::SharedCounter };
    (@type gauge) => { $crate::SharedGauge };
    (@type histogram) => { $crate::SharedHistogram };
    (@cell counter, $cell:expr) => { $crate::shared::Cell::Counter($cell) };
    (@cell gauge, $cell:expr) => { $crate::shared::Cell::Gauge($cell) };
    (@cell histogram, $cell:expr) => { $crate::shared::Cell::Histogram($cell) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_and_gauge_basics() {
        let c = SharedCounter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = SharedGauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-3);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = SharedHistogram::new(vec![0.001, 0.01, 0.1]);
        for _ in 0..90 {
            h.observe(0.0005);
        }
        for _ in 0..9 {
            h.observe(0.005);
        }
        h.observe(5.0); // overflow
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        let counts: Vec<u64> = s.buckets().map(|(_, n)| n).collect();
        assert_eq!(counts, vec![90, 9, 0, 1]);
        assert_eq!(s.quantile(0.5), 0.001);
        assert_eq!(s.quantile(0.99), 0.01);
        // p100 hits the overflow bucket but clamps to the observed max.
        assert_eq!(s.quantile(1.0), 5.0);
        assert!((s.sum() - (90.0 * 0.0005 + 9.0 * 0.005 + 5.0)).abs() < 1e-6);
    }

    #[test]
    fn empty_histogram_is_nan_not_garbage() {
        let s = SharedHistogram::latency().snapshot();
        assert_eq!(s.count(), 0);
        assert!(s.quantile(0.5).is_nan());
        assert!(s.min().is_nan());
        assert!(s.max().is_nan());
    }

    #[test]
    fn nan_observation_counts_as_zero() {
        let h = SharedHistogram::new(vec![1.0]);
        h.observe(f64::NAN);
        let s = h.snapshot();
        assert_eq!(s.count(), 1);
        assert_eq!(s.sum_nanos(), 0);
        assert_eq!(s.quantile(1.0), 0.0);
    }

    #[test]
    fn concurrent_observes_are_all_counted() {
        let h = Arc::new(SharedHistogram::latency());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        h.observe(1e-6 * (t * 1000 + i) as f64);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(h.snapshot().count(), 8000);
    }

    #[test]
    fn json_round_trip_is_exact() {
        let h = SharedHistogram::latency();
        h.observe(0.0023);
        h.observe(1.7);
        h.observe(123.0);
        let s = h.snapshot();
        let back = HistogramSnapshot::from_json(&s.to_json()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn merge_matches_single_stream() {
        let a = SharedHistogram::new(vec![0.01, 0.1, 1.0]);
        let b = SharedHistogram::new(vec![0.01, 0.1, 1.0]);
        let all = SharedHistogram::new(vec![0.01, 0.1, 1.0]);
        for i in 0..50 {
            let v = 0.003 * (i + 1) as f64;
            if i % 2 == 0 {
                a.observe(v);
            } else {
                b.observe(v);
            }
            all.observe(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
    }

    /// A valid encoded snapshot (three observations) with `key` replaced.
    fn encoded_with(key: &str, value: JsonValue) -> JsonValue {
        let h = SharedHistogram::new(vec![0.001, 0.01, 0.1]);
        for v in [0.0005, 0.005, 0.05] {
            h.observe(v);
        }
        let mut json = h.snapshot().to_json();
        assert!(HistogramSnapshot::from_json(&json).is_some());
        if let JsonValue::Obj(fields) = &mut json {
            fields.iter_mut().find(|(k, _)| k == key).unwrap().1 = value;
        }
        json
    }

    fn nums(values: &[f64]) -> JsonValue {
        JsonValue::Arr(values.iter().map(|&v| JsonValue::Num(v)).collect())
    }

    #[test]
    fn from_json_refuses_le_not_strictly_increasing() {
        let json = encoded_with("le", nums(&[0.001, 0.1, 0.01]));
        assert_eq!(HistogramSnapshot::from_json(&json), None);
        let json = encoded_with("le", nums(&[0.001, 0.01, 0.01]));
        assert_eq!(HistogramSnapshot::from_json(&json), None);
    }

    #[test]
    fn from_json_refuses_le_not_finite() {
        let json = encoded_with("le", nums(&[0.001, 0.01, f64::INFINITY]));
        assert_eq!(HistogramSnapshot::from_json(&json), None);
        let json = encoded_with("le", nums(&[f64::NAN, 0.01, 0.1]));
        assert_eq!(HistogramSnapshot::from_json(&json), None);
    }

    #[test]
    fn from_json_refuses_count_other_than_bucket_sum() {
        let json = encoded_with("count", JsonValue::Int(4));
        assert_eq!(HistogramSnapshot::from_json(&json), None);
    }

    #[test]
    fn from_json_refuses_min_above_max_when_not_empty() {
        let json = encoded_with("min_ns", JsonValue::Int(60_000_000));
        assert_eq!(HistogramSnapshot::from_json(&json), None);
    }

    #[test]
    fn merging_decoded_snapshots_saturates_instead_of_overflowing() {
        let json = encoded_with("sum_ns", JsonValue::Int(u64::MAX - 1));
        let big = HistogramSnapshot::from_json(&json).unwrap();
        let mut merged = big.clone();
        merged.merge(&big);
        assert_eq!(merged.sum_nanos(), u64::MAX);
        assert_eq!(merged.count(), 6);
    }
}
