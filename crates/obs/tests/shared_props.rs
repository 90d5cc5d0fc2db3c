//! Property-based tests of the concurrent metrics plane: whatever the
//! thread interleaving, a sharded histogram must agree *exactly* with a
//! single-threaded reference fill. The cells record durations in integer
//! nanoseconds, and integer addition is order-independent, so equality
//! here is `==`, not "within epsilon".

use std::sync::Arc;
use std::thread;

use asha_obs::{HistogramSnapshot, SharedCounter, SharedGauge, SharedHistogram};
use proptest::prelude::*;

/// Observation values spanning the latency buckets (1 µs .. 1e-6·2^25 ≈
/// 33.6 s) plus out-of-range extremes that land in the +Inf bucket or clamp
/// at zero.
fn arb_values() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        (0u8..10, 1e-7f64..100.0).prop_map(|(tag, x)| match tag {
            0 => 0.0,     // clamps at the first bucket
            1 => x * 1e4, // up to 1e6 s: lands in the +Inf bucket
            _ => x,       // the normal latency range
        }),
        0..400,
    )
}

fn reference_fill(values: &[f64]) -> HistogramSnapshot {
    let h = SharedHistogram::latency();
    for &v in values {
        h.observe(v);
    }
    h.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn concurrent_fill_equals_sequential_reference(
        values in arb_values(),
        threads in 1usize..6,
    ) {
        let shared = Arc::new(SharedHistogram::latency());
        let chunk = values.len().div_ceil(threads).max(1);
        thread::scope(|s| {
            for part in values.chunks(chunk) {
                let shared = Arc::clone(&shared);
                s.spawn(move || {
                    for &v in part {
                        shared.observe(v);
                    }
                });
            }
        });
        prop_assert_eq!(shared.snapshot(), reference_fill(&values));
    }

    #[test]
    fn merged_partition_snapshots_equal_one_fill(
        values in arb_values(),
        parts in 1usize..5,
    ) {
        // Split the stream across independent histograms (as per-op cells
        // do), merge the snapshots, and require exact agreement with one
        // histogram that saw everything.
        let chunk = values.len().div_ceil(parts).max(1);
        let mut merged = HistogramSnapshot::empty(SharedHistogram::latency().bounds().to_vec());
        for part in values.chunks(chunk) {
            merged.merge(&reference_fill(part));
        }
        prop_assert_eq!(merged, reference_fill(&values));
    }

    #[test]
    fn snapshot_survives_json_round_trip(values in arb_values()) {
        let snap = reference_fill(&values);
        let back = HistogramSnapshot::from_json(&snap.to_json());
        prop_assert_eq!(back.as_ref(), Some(&snap));
    }

    #[test]
    fn concurrent_counter_and_gauge_totals_are_exact(
        increments in prop::collection::vec(1u64..100, 0..64),
        threads in 1usize..6,
    ) {
        let counter = Arc::new(SharedCounter::new());
        let gauge = Arc::new(SharedGauge::new());
        let chunk = increments.len().div_ceil(threads).max(1);
        thread::scope(|s| {
            for part in increments.chunks(chunk) {
                let counter = Arc::clone(&counter);
                let gauge = Arc::clone(&gauge);
                s.spawn(move || {
                    for &n in part {
                        counter.add(n);
                        gauge.add(n as i64);
                        gauge.dec();
                    }
                });
            }
        });
        let total: u64 = increments.iter().sum();
        prop_assert_eq!(counter.get(), total);
        prop_assert_eq!(gauge.get(), total as i64 - increments.len() as i64);
    }
}
