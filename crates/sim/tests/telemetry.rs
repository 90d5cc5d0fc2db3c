//! Telemetry integration tests against the full simulator: the recorded
//! stream must be consistent (gauges non-negative, seq gap-free), share the
//! simulated clock with the run trace, and leave the simulation itself
//! untouched.

use asha_core::{Asha, AshaConfig};
use asha_obs::{EventKind, RunRecorder};
use asha_sim::{ClusterSim, SimConfig};
use asha_surrogate::{presets, BenchmarkModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn chaos_sim() -> ClusterSim {
    ClusterSim::new(
        SimConfig::new(25, 60.0)
            .with_stragglers(0.5)
            .with_drops(0.01),
    )
}

fn recorded_chaos_run(seed: u64) -> (asha_sim::SimResult, RunRecorder) {
    let bench = presets::cifar10_cuda_convnet(1);
    let asha = Asha::new(bench.space().clone(), AshaConfig::new(1.0, 256.0, 4.0));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut recorder = RunRecorder::new();
    let result = chaos_sim().run_recorded(asha, &bench, &mut rng, &mut recorder);
    (result, recorder)
}

#[test]
fn recording_does_not_perturb_the_simulation() {
    let bench = presets::cifar10_cuda_convnet(1);
    let run_bare = || {
        let asha = Asha::new(bench.space().clone(), AshaConfig::new(1.0, 256.0, 4.0));
        let mut rng = StdRng::seed_from_u64(3);
        chaos_sim().run(asha, &bench, &mut rng)
    };
    let bare = run_bare();
    let (recorded, recorder) = recorded_chaos_run(3);
    assert!(!recorder.is_empty());
    assert_eq!(bare.jobs_completed, recorded.jobs_completed);
    assert_eq!(bare.end_time, recorded.end_time);
    assert_eq!(
        bare.trace, recorded.trace,
        "recording must be a pure observer"
    );
}

#[test]
fn gauges_never_negative_across_a_full_chaos_run() {
    // Replay the recorded stream event by event: the busy-worker gauge must
    // stay within [0, workers] at *every* prefix, and the rung gauges must
    // never dip below zero. The chaos config guarantees drops and retries
    // actually exercise the matched-start accounting.
    let (result, recorder) = recorded_chaos_run(5);
    assert!(
        result.faults.jobs_dropped > 0,
        "chaos config should drop jobs"
    );

    let mut replay = asha_obs::MetricsRegistry::new();
    for event in recorder.events() {
        replay.apply(event);
        let busy = replay.busy_workers.value();
        assert!((0..=25).contains(&busy), "busy gauge out of range: {busy}");
    }
    assert!(replay.busy_workers.min() >= 0);
    assert!(replay.rung_occupancy.iter().all(|g| g.min() >= 0));
    assert!(replay.pending_promotions.iter().all(|g| g.min() >= 0));

    // The counters match the simulator's own ledger.
    assert_eq!(replay.jobs_completed.get() as usize, result.jobs_completed);
    assert_eq!(
        replay.jobs_dropped.get() as usize,
        result.faults.jobs_dropped
    );
    assert_eq!(
        replay.jobs_retried.get() as usize,
        result.faults.jobs_retried
    );
}

#[test]
fn telemetry_shares_the_simulated_clock_with_the_trace() {
    // Satellite contract: telemetry timestamps are simulated time, the same
    // clock as `TraceEvent::time`. Every job_end event must therefore match
    // a trace event with the identical timestamp, trial, and rung — bitwise,
    // not approximately.
    let (result, recorder) = recorded_chaos_run(7);
    let trace_keys: Vec<(u64, u64, usize)> = result
        .trace
        .events()
        .iter()
        .map(|e| (e.time.to_bits(), e.trial, e.rung))
        .collect();
    let end_keys: Vec<(u64, u64, usize)> = recorder
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::JobEnd { trial, rung, .. } => Some((e.time.to_bits(), trial, rung)),
            _ => None,
        })
        .collect();
    assert_eq!(
        end_keys, trace_keys,
        "job_end telemetry and TraceEvents must be the same completions on the same clock"
    );

    // Timestamps stay within the configured horizon and are non-decreasing.
    let times: Vec<f64> = recorder.events().iter().map(|e| e.time).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
    assert!(times.iter().all(|&t| (0.0..=60.0).contains(&t)));
}

#[test]
fn sequence_numbers_are_gap_free_and_events_well_formed() {
    let (_, recorder) = recorded_chaos_run(9);
    for (i, event) in recorder.events().iter().enumerate() {
        assert_eq!(event.seq, i as u64, "seq must be 0-based and gap-free");
    }
    // Every retry is immediately followed by the matching job_start.
    let events = recorder.events();
    for (i, event) in events.iter().enumerate() {
        if let EventKind::Retry { trial, rung } = event.kind {
            match events.get(i + 1).map(|e| e.kind) {
                Some(EventKind::JobStart {
                    trial: t, rung: r, ..
                }) => {
                    assert_eq!((t, r), (trial, rung), "retry not followed by its start");
                }
                other => panic!("retry followed by {other:?}"),
            }
        }
    }
}
