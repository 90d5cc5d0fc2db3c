//! End-to-end chaos testing of the real executor: deterministic fault
//! injection through [`ChaosObjective`], exercised at the integration level
//! the paper's Section 4.4 reliability claims live at. Two same-seed chaos
//! runs must be identical, the fault tally must match what was injected,
//! faults must never kill the worker pool, and tuning quality must degrade
//! gracefully.

use asha::core::{Asha, AshaConfig, BracketLoop, BracketLoopConfig};
use asha::exec::{
    install_quiet_panic_hook, ChaosConfig, ChaosObjective, Evaluation, ExecConfig, FaultPolicy,
    FnObjective, ParallelTuner,
};
use asha::metrics::RunTrace;
use asha::space::{Config, ParamValue, Scale, SearchSpace};
use std::time::Duration;

fn space() -> SearchSpace {
    SearchSpace::builder()
        .continuous("x", 0.0, 1.0, Scale::Linear)
        .build()
        .expect("valid space")
}

/// Bounded away from zero so "within 2x of the fault-free best" is a
/// meaningful, stable margin for any finite completion.
fn objective() -> impl asha::exec::Objective<Checkpoint = f64> {
    FnObjective::new(|config: &Config, resource: f64, _ckpt: Option<f64>| {
        let x = match config.values()[0] {
            ParamValue::Float(v) => v,
            _ => unreachable!("space is continuous"),
        };
        let loss = 1.0 + (x - 0.3).abs() + 1.0 / (1.0 + resource);
        (Evaluation::of(loss), resource)
    })
}

fn asha(max_trials: usize) -> Asha {
    Asha::new(
        space(),
        AshaConfig::new(1.0, 9.0, 3.0).with_max_trials(max_trials),
    )
}

fn event_key(trace: &RunTrace) -> Vec<(u64, usize, u64, u64)> {
    trace
        .events()
        .iter()
        .map(|e| (e.trial, e.rung, e.resource.to_bits(), e.val_loss.to_bits()))
        .collect()
}

#[test]
fn same_seed_chaos_runs_are_bitwise_identical() {
    install_quiet_panic_hook();
    let run = || {
        let chaos = ChaosObjective::new(
            objective(),
            ChaosConfig::new(99)
                .with_panics(0.1)
                .with_drops(0.15)
                .with_nan_losses(0.05),
        );
        let result = ParallelTuner::new(ExecConfig::new(1)).run(asha(20), &chaos, 7);
        (event_key(&result.trace), result.faults, chaos.injected())
    };
    let (trace_a, faults_a, injected_a) = run();
    let (trace_b, faults_b, injected_b) = run();
    assert!(!trace_a.is_empty());
    assert_eq!(trace_a, trace_b, "same-seed chaos runs diverged");
    assert_eq!(faults_a, faults_b);
    assert_eq!(injected_a, injected_b);
}

#[test]
fn fault_stats_match_injected_counts() {
    install_quiet_panic_hook();
    let chaos = ChaosObjective::new(
        objective(),
        ChaosConfig::new(4)
            .with_panics(0.1)
            .with_drops(0.2)
            .with_nan_losses(0.1),
    );
    let exec = ExecConfig::new(4).with_fault_policy(FaultPolicy::default().with_max_retries(2));
    let result = ParallelTuner::new(exec).run(asha(40), &chaos, 11);
    assert!(result.scheduler_finished, "chaos run must still finish");
    let injected = chaos.injected();
    assert!(injected.panics > 0 && injected.drops > 0 && injected.nans > 0);
    assert_eq!(result.faults.jobs_panicked, injected.panics);
    assert_eq!(result.faults.jobs_dropped, injected.drops);
    assert_eq!(result.faults.jobs_timed_out, 0, "no timeout configured");
    // Poisonings come from panics, retry-exhausted drops, and NaN losses.
    assert!(result.faults.jobs_poisoned >= injected.panics);
    assert!(
        result.faults.jobs_poisoned
            <= injected.panics + injected.drops + injected.nans + injected.infs
    );
    // Every drop within the retry budget was retried.
    assert!(result.faults.jobs_retried <= result.faults.jobs_dropped);
    assert!(result.faults.jobs_retried > 0);
}

#[test]
fn chaos_best_stays_within_2x_of_fault_free_run() {
    install_quiet_panic_hook();
    for seed in [1u64, 2, 3] {
        let clean = ParallelTuner::new(ExecConfig::new(4)).run(asha(40), &objective(), seed);
        let chaos_obj = ChaosObjective::new(
            objective(),
            ChaosConfig::new(seed)
                .with_panics(0.1)
                .with_drops(0.1)
                .with_nan_losses(0.05),
        );
        let noisy = ParallelTuner::new(ExecConfig::new(4)).run(asha(40), &chaos_obj, seed);
        assert!(noisy.scheduler_finished);
        let clean_best = clean.best.expect("clean run found a config").1;
        let noisy_best = noisy.best.expect("chaos run found a config").1;
        assert!(
            noisy_best <= 2.0 * clean_best,
            "seed {seed}: chaos best {noisy_best} vs clean best {clean_best}"
        );
    }
}

#[test]
fn panics_and_timeouts_never_kill_the_pool() {
    install_quiet_panic_hook();
    // Panic-heavy chaos plus real delays against a tight job timeout: the
    // pool must absorb everything and stop at the job cap (random search
    // itself never finishes).
    let chaos = ChaosObjective::new(
        objective(),
        ChaosConfig::new(8)
            .with_panics(0.3)
            .with_delays(0.5, Duration::from_millis(20)),
    );
    let exec = ExecConfig::new(4).with_max_jobs(30).with_fault_policy(
        FaultPolicy::default()
            .with_timeout(Duration::from_millis(5))
            .with_max_retries(1)
            .with_backoff(Duration::from_micros(100), Duration::from_millis(1)),
    );
    let result =
        ParallelTuner::new(exec).run(Asha::new(space(), AshaConfig::random(3.0)), &chaos, 13);
    assert!(!result.scheduler_finished, "random search has no end");
    assert!(result.jobs_completed >= 30, "{}", result.jobs_completed);
    assert!(result.faults.jobs_panicked > 0, "{}", result.faults);
    assert!(result.faults.jobs_timed_out > 0, "{}", result.faults);
    // An abandoned (timed-out) attempt keeps running and may still hit its
    // scripted panic, which counts as injected but was reported as a
    // timeout — so injection is an upper bound here, not an equality.
    assert!(result.faults.jobs_panicked <= chaos.injected().panics);
}

#[test]
fn sync_sha_barrier_survives_poisoned_rungs() {
    install_quiet_panic_hook();
    // A third of all jobs crash. SHA's barrier still releases (poisoned
    // jobs are observed as INFINITY), poisoned trials are never promoted,
    // and the bracket terminates.
    let chaos = ChaosObjective::new(objective(), ChaosConfig::new(2).with_panics(0.33));
    let sha = BracketLoop::new(space(), BracketLoopConfig::sha(9, 1.0, 9.0, 3.0));
    let result = ParallelTuner::new(ExecConfig::new(3)).run(sha, &chaos, 5);
    assert!(
        result.scheduler_finished,
        "the bracket must run to completion"
    );
    assert!(result.faults.jobs_panicked > 0);
    // No trial that reported INFINITY at rung k ever appears at rung k+1.
    let mut poisoned: Vec<(u64, usize)> = Vec::new();
    for e in result.trace.events() {
        if e.val_loss.is_infinite() {
            poisoned.push((e.trial, e.rung));
        }
    }
    for e in result.trace.events() {
        if e.rung > 0 {
            assert!(
                !poisoned.contains(&(e.trial, e.rung - 1)),
                "poisoned trial {} promoted past rung {}",
                e.trial,
                e.rung - 1
            );
        }
    }
}
