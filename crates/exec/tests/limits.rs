//! Stop-condition and stress tests of the parallel executor.

use std::time::Duration;

use asha_core::{Asha, AshaConfig};
use asha_exec::{Evaluation, ExecConfig, FnObjective, ParallelTuner};
use asha_space::{Config, Scale, SearchSpace};

fn space() -> SearchSpace {
    SearchSpace::builder()
        .continuous("x", 0.0, 1.0, Scale::Linear)
        .build()
        .expect("valid space")
}

fn instant_objective() -> impl asha_exec::Objective<Checkpoint = f64> {
    FnObjective::new(|_c: &Config, r: f64, _ckpt: Option<f64>| (Evaluation::of(1.0 / r), r))
}

fn slow_objective() -> impl asha_exec::Objective<Checkpoint = f64> {
    FnObjective::new(|_c: &Config, r: f64, _ckpt: Option<f64>| {
        std::thread::sleep(Duration::from_millis(20));
        (Evaluation::of(1.0 / r), r)
    })
}

#[test]
fn wall_limit_stops_an_endless_scheduler() {
    let rs = Asha::new(space(), AshaConfig::random(10.0));
    let result = ParallelTuner::new(ExecConfig::new(2).with_wall_limit(Duration::from_millis(150)))
        .run(rs, &slow_objective(), 0);
    assert!(!result.scheduler_finished);
    assert!(result.elapsed < Duration::from_secs(5));
    assert!(result.jobs_completed >= 1);
}

#[test]
fn many_workers_with_instant_jobs_do_not_race() {
    let asha = Asha::new(
        space(),
        AshaConfig::new(1.0, 81.0, 3.0).with_max_trials(200),
    );
    let result = ParallelTuner::new(ExecConfig::new(16)).run(asha, &instant_objective(), 1);
    assert!(result.scheduler_finished);
    // Every trace event is unique per (trial, rung).
    let mut seen = std::collections::HashSet::new();
    for e in result.trace.events() {
        assert!(seen.insert((e.trial, e.rung)), "duplicate completion");
    }
    assert!(result.jobs_completed >= 200);
    assert_eq!(result.jobs_completed, result.trace.len());
    // Best config is reported and consistent with `best`.
    let (_, best_loss) = result.best.expect("jobs ran");
    assert!(result.best_config.is_some());
    assert!(best_loss <= 1.0);
}

#[test]
fn single_job_cap_is_respected_exactly_enough() {
    let rs = Asha::new(space(), AshaConfig::random(10.0));
    let result =
        ParallelTuner::new(ExecConfig::new(4).with_max_jobs(10)).run(rs, &instant_objective(), 2);
    // Workers can overshoot by at most the number of in-flight jobs.
    assert!(result.jobs_completed >= 10);
    assert!(result.jobs_completed <= 14, "{}", result.jobs_completed);
}

#[test]
fn trace_is_sorted_and_names_survive() {
    let asha = Asha::new(space(), AshaConfig::new(1.0, 9.0, 3.0).with_max_trials(9));
    let result = ParallelTuner::new(ExecConfig::new(4)).run(asha, &instant_objective(), 3);
    assert_eq!(result.trace.searcher(), "ASHA");
    let times: Vec<f64> = result.trace.events().iter().map(|e| e.time).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
}
