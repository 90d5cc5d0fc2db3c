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
//!   mergeable [`HistogramSnapshot`] for export.
//!
//! # Clock discipline
//!
//! Histograms take observations in **seconds** (`f64`) but store
//! fixed-point **nanoseconds** (`u64`). Integer addition commutes exactly,
//! so a snapshot merged from N shards — or from N processes — equals the
//! single-threaded reference bit-for-bit: `count`, per-bucket counts,
//! `sum_nanos`, `min_nanos`, and `max_nanos` are all order-independent.
//! That exactness is what the concurrency proptests assert.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

use asha_metrics::JsonValue;

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
/// works without a sentinel branch; an empty shard is detected by
/// `count == 0`.
#[derive(Debug)]
struct Shard {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum_nanos: AtomicU64,
    min_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl Shard {
    fn new(buckets: usize) -> Self {
        Shard {
            counts: (0..buckets).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            min_nanos: AtomicU64::new(u64::MAX),
            max_nanos: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket histogram whose `observe` is safe and cheap from any
/// thread.
///
/// Bucket semantics match the single-threaded
/// [`Histogram`](crate::Histogram): `bounds` are strictly increasing
/// upper edges, bucket `i` counts observations `<= bounds[i]` (and above
/// the previous edge), plus one overflow bucket above the last edge.
/// Observations are clamped to `[0, +inf)`; a NaN counts as zero.
#[derive(Debug)]
pub struct SharedHistogram {
    bounds: Vec<f64>,
    shards: Box<[Shard]>,
}

impl SharedHistogram {
    /// A histogram over explicit bucket upper edges.
    ///
    /// # Panics
    ///
    /// If `bounds` is empty or not strictly increasing.
    pub fn new(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let buckets = bounds.len() + 1;
        SharedHistogram {
            bounds,
            shards: (0..SHARDS).map(|_| Shard::new(buckets)).collect(),
        }
    }

    /// `n` exponentially spaced bounds starting at `first`.
    pub fn exponential(first: f64, factor: f64, n: usize) -> Self {
        assert!(first > 0.0 && factor > 1.0 && n > 0);
        let mut bounds = Vec::with_capacity(n);
        let mut b = first;
        for _ in 0..n {
            bounds.push(b);
            b *= factor;
        }
        SharedHistogram::new(bounds)
    }

    /// The standard latency shape used across the daemon: powers of two
    /// from 1µs to ~33s (26 edges). Wide enough for an fsync stall, fine
    /// enough to resolve a microsecond-scale reactor iteration.
    pub fn latency() -> Self {
        SharedHistogram::exponential(1e-6, 2.0, 26)
    }

    /// The bucket upper edges (excluding the implicit `+inf`).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Record one observation, in seconds.
    #[inline]
    pub fn observe(&self, seconds: f64) {
        // NaN.max(0.0) is 0.0, so a NaN lands in the first bucket with
        // zero contribution to the sum instead of poisoning it.
        let v = seconds.max(0.0);
        let nanos = to_nanos(v);
        let idx = self.bounds.partition_point(|&b| b < v);
        let shard = &self.shards[shard_index()];
        shard.counts[idx].fetch_add(1, Ordering::Relaxed);
        shard.count.fetch_add(1, Ordering::Relaxed);
        shard.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        shard.min_nanos.fetch_min(nanos, Ordering::Relaxed);
        shard.max_nanos.fetch_max(nanos, Ordering::Relaxed);
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
        let mut snap = HistogramSnapshot::empty(self.bounds.clone());
        for shard in self.shards.iter() {
            for (dst, src) in snap.counts.iter_mut().zip(shard.counts.iter()) {
                *dst += src.load(Ordering::Relaxed);
            }
            snap.count += shard.count.load(Ordering::Relaxed);
            snap.sum_nanos += shard.sum_nanos.load(Ordering::Relaxed);
            snap.min_nanos = snap.min_nanos.min(shard.min_nanos.load(Ordering::Relaxed));
            snap.max_nanos = snap.max_nanos.max(shard.max_nanos.load(Ordering::Relaxed));
        }
        snap
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
    bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) counts; `bounds.len() + 1` entries,
    /// the last being the overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum_nanos: u64,
    /// `u64::MAX` when empty.
    min_nanos: u64,
    max_nanos: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot over the given bounds.
    pub fn empty(bounds: Vec<f64>) -> Self {
        let buckets = bounds.len() + 1;
        HistogramSnapshot {
            bounds,
            counts: vec![0; buckets],
            count: 0,
            sum_nanos: 0,
            min_nanos: u64::MAX,
            max_nanos: 0,
        }
    }

    /// The bucket upper edges (excluding the implicit `+inf`).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
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
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum() / self.count as f64
        }
    }

    /// Smallest observation in seconds (NaN when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min_nanos as f64 / 1e9
        }
    }

    /// Largest observation in seconds (NaN when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max_nanos as f64 / 1e9
        }
    }

    /// Iterate `(upper_edge, bucket_count)` pairs, ending with the
    /// `+inf` overflow bucket.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(f64::INFINITY))
            .zip(self.counts.iter().copied())
    }

    /// Approximate quantile (`q` in `[0, 1]`): the upper edge of the
    /// bucket containing the target rank, clamped to the largest observed
    /// value so a lone overflow observation does not report `+inf`. NaN
    /// when empty. Matches [`Histogram::quantile`](crate::Histogram).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (bound, n) in self.buckets() {
            seen += n;
            if seen >= target {
                return bound.min(self.max());
            }
        }
        self.max()
    }

    /// Fold `other` into `self`.
    ///
    /// # Panics
    ///
    /// If the bucket bounds differ — merging histograms with different
    /// shapes is a caller bug, not a runtime condition.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histogram snapshots with different bounds"
        );
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum_nanos += other.sum_nanos;
        self.min_nanos = self.min_nanos.min(other.min_nanos);
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }

    /// Encode as JSON. Bounds are carried as a finite `le` array (the
    /// `+inf` overflow edge is implicit), so the encoding survives JSON's
    /// lack of infinities; nanosecond cells stay exact integers.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("count", JsonValue::Int(self.count)),
            ("sum_ns", JsonValue::Int(self.sum_nanos)),
            (
                "min_ns",
                if self.count == 0 {
                    JsonValue::Null
                } else {
                    JsonValue::Int(self.min_nanos)
                },
            ),
            ("max_ns", JsonValue::Int(self.max_nanos)),
            (
                "le",
                JsonValue::Arr(self.bounds.iter().map(|&b| JsonValue::Num(b)).collect()),
            ),
            (
                "counts",
                JsonValue::Arr(self.counts.iter().map(|&c| JsonValue::Int(c)).collect()),
            ),
        ])
    }

    /// Decode a snapshot produced by [`HistogramSnapshot::to_json`].
    /// Returns `None` on a malformed or inconsistent value.
    pub fn from_json(v: &JsonValue) -> Option<HistogramSnapshot> {
        let bounds: Vec<f64> = match v.get("le")? {
            JsonValue::Arr(items) => items.iter().map(|b| b.as_f64()).collect::<Option<_>>()?,
            _ => return None,
        };
        let counts: Vec<u64> = match v.get("counts")? {
            JsonValue::Arr(items) => items.iter().map(|c| c.as_u64()).collect::<Option<_>>()?,
            _ => return None,
        };
        if counts.len() != bounds.len() + 1 {
            return None;
        }
        let count = v.get("count")?.as_u64()?;
        let sum_nanos = v.get("sum_ns")?.as_u64()?;
        let min_nanos = match v.get("min_ns") {
            Some(JsonValue::Null) | None => u64::MAX,
            Some(n) => n.as_u64()?,
        };
        let max_nanos = v.get("max_ns")?.as_u64()?;
        Some(HistogramSnapshot {
            bounds,
            counts,
            count,
            sum_nanos,
            min_nanos,
            max_nanos,
        })
    }
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
}
