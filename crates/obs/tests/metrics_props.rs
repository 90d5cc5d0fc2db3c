//! Property-based tests of the telemetry metrics: histogram bookkeeping and
//! gauge non-negativity must hold for arbitrary observation sets and
//! arbitrary (even hostile) event streams, and a registry fed a real
//! scheduler's events agrees with that scheduler's own rung state.

use asha_core::{Asha, AshaConfig, Observation, Scheduler};
use asha_obs::{Event, EventKind, Histogram, IdleKind, MetricsRegistry, Recorder, RunRecorder};
use asha_space::{Scale, SearchSpace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One arbitrary event kind, biased toward the job lifecycle (the events
/// that move gauges). Trials and rungs are drawn from small ranges so
/// streams frequently produce matched and mismatched pairs.
fn arb_kind() -> impl Strategy<Value = EventKind> {
    (0u8..8, 0u64..4, 0usize..3, 0.0f64..10.0).prop_map(|(tag, trial, rung, x)| match tag {
        0 => EventKind::Suggest {
            decision: if trial % 2 == 0 {
                IdleKind::Wait
            } else {
                IdleKind::Finished
            },
        },
        1 => EventKind::Promote {
            trial,
            bracket: 0,
            from: rung,
            to: rung + 1,
            resource: x,
        },
        2 => EventKind::GrowBottom {
            trial,
            bracket: 0,
            resource: x,
        },
        3 => EventKind::JobStart {
            trial,
            bracket: 0,
            rung,
            resource: x,
        },
        4 => EventKind::JobEnd {
            trial,
            rung,
            resource: x,
            loss: x,
        },
        5 => EventKind::Drop {
            trial,
            rung,
            cause: asha_obs::DropCause::Dropped,
        },
        6 => EventKind::Retry { trial, rung },
        _ => EventKind::WorkerIdle { idle: rung },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn histogram_bucket_counts_sum_to_observation_count(
        values in prop::collection::vec(-1e6f64..1e6, 0..200),
        extremes in prop::collection::vec(0usize..3, 0..5),
    ) {
        let mut h = Histogram::latency();
        for &v in &values {
            h.observe(v);
        }
        // Mix in values outside any finite bucket.
        for &e in &extremes {
            h.observe([f64::INFINITY, f64::NEG_INFINITY, f64::NAN][e]);
        }
        let total = values.len() + extremes.len();
        prop_assert_eq!(h.count(), total as u64);
        let bucket_sum: u64 = h.buckets().map(|(_, c)| c).sum();
        prop_assert_eq!(bucket_sum, total as u64);
    }

    #[test]
    fn histogram_quantiles_are_monotone_and_bounded_by_max(
        values in prop::collection::vec(0.0f64..1e4, 1..200),
    ) {
        let mut h = Histogram::latency();
        for &v in &values {
            h.observe(v);
        }
        let qs: Vec<f64> = [0.1, 0.5, 0.9, 0.95, 1.0]
            .iter()
            .map(|&q| h.quantile(q))
            .collect();
        for w in qs.windows(2) {
            prop_assert!(w[0] <= w[1], "quantiles not monotone: {:?}", qs);
        }
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for &q in &qs {
            prop_assert!(q <= max, "quantile {q} above exact max {max}");
        }
        prop_assert_eq!(h.quantile(1.0), max);
    }

    #[test]
    fn gauges_never_go_negative_on_arbitrary_streams(
        kinds in prop::collection::vec(arb_kind(), 0..300),
    ) {
        let mut m = MetricsRegistry::new();
        for (i, kind) in kinds.iter().enumerate() {
            m.apply(&Event { seq: i as u64, time: i as f64, kind: *kind });
            // The invariant holds at every prefix, not just at the end.
            prop_assert!(m.busy_workers.value() >= 0);
        }
        prop_assert!(m.busy_workers.min() >= 0, "busy dipped to {}", m.busy_workers.min());
        for g in &m.rung_occupancy {
            prop_assert!(g.min() >= 0);
        }
        for g in &m.pending_promotions {
            prop_assert!(g.min() >= 0);
        }
    }

    #[test]
    fn latency_histogram_counts_match_matched_pairs(
        kinds in prop::collection::vec(arb_kind(), 0..300),
    ) {
        // Whatever the stream, each latency observation requires a matched
        // pair, so counts are bounded by the rarer side.
        let mut m = MetricsRegistry::new();
        for (i, kind) in kinds.iter().enumerate() {
            m.apply(&Event { seq: i as u64, time: i as f64, kind: *kind });
        }
        prop_assert!(m.job_latency.count() <= m.jobs_started.get().min(m.jobs_completed.get()));
        prop_assert!(m.promotion_wait.count() <= m.decisions.promote.get().min(m.jobs_completed.get()));
        prop_assert!(m.queue_delay.count() <= m.jobs_dropped.get().min(m.jobs_retried.get()));
    }
}

#[test]
fn recorded_metrics_agree_with_ladder_state() {
    let space = SearchSpace::builder()
        .continuous("lr", 1e-4, 1.0, Scale::Log)
        .discrete("layers", 2, 8)
        .build()
        .unwrap();
    let mut asha = Asha::new(space, AshaConfig::new(1.0, 64.0, 4.0));
    let mut recorder = RunRecorder::new();
    let mut rng = StdRng::seed_from_u64(7);
    // Drive by hand, recording what an execution layer records: the
    // decision, its job's start, then its end, each job observed at once.
    for step in 0..400 {
        let now = step as f64;
        let decision = asha.suggest(&mut rng);
        recorder.record(now, EventKind::of_decision(&decision));
        let Some(job) = decision.job() else {
            break;
        };
        recorder.record(now, EventKind::job_start(&job));
        let loss = ((job.trial.0 * 7919) % 1009) as f64 / (job.rung + 1) as f64;
        recorder.record(
            now,
            EventKind::JobEnd {
                trial: job.trial.0,
                rung: job.rung,
                resource: job.resource,
                loss,
            },
        );
        asha.observe(Observation::for_job(&job, loss));
    }

    let m = recorder.metrics();
    assert_eq!(m.jobs_started.get(), m.jobs_completed.get());
    assert_eq!(m.busy_workers.value(), 0);
    // Per-rung occupancy equals the ladder's record count, promotions out
    // of each rung its promoted count, and completed = promoted + pending.
    for (rung_idx, rung) in asha.ladder().rungs().iter().enumerate() {
        let occupancy = m.rung_occupancy.get(rung_idx).map_or(0, |g| g.value());
        assert_eq!(
            occupancy as usize,
            rung.len(),
            "occupancy at rung {rung_idx}"
        );
        let promoted = m.promotions_per_rung.get(rung_idx).map_or(0, |c| c.get());
        assert_eq!(
            promoted as usize,
            rung.promoted_count(),
            "promotions at rung {rung_idx}"
        );
        let pending = m.pending_promotions.get(rung_idx).map_or(0, |g| g.value());
        assert_eq!(occupancy, promoted as i64 + pending);
    }
    // The decision counters partition the issued jobs.
    let d = &m.decisions;
    assert_eq!(d.promote.get() + d.grow_bottom.get(), m.jobs_started.get());
    assert!(d.promote.get() > 0, "expected some promotions in 400 steps");
}
