//! Parity between the two execution layers: with one worker, no noise, and
//! the same seed, the real thread-pool executor (`asha-exec`) and the
//! discrete-event simulator (`asha-sim`) must drive a scheduler through the
//! *same* sequence of jobs — the scheduler cannot tell which layer it is
//! running on.
//!
//! The benchmark/objective pair below computes an identical closed-form loss
//! on both sides and never draws from the RNG, so the only randomness is the
//! scheduler's own sampling stream, which both layers seed identically. Its
//! poisoning variant pins the one fault model: both layers complete a NaN or
//! `-inf` loss the same way.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use asha::core::{Asha, AshaConfig, BracketLoop, BracketLoopConfig};
use asha::exec::{Evaluation, ExecConfig, FnObjective, ParallelTuner};
use asha::metrics::RunTrace;
use asha::sim::{ClusterSim, SimConfig};
use asha::space::{Config, ParamValue, Scale, SearchSpace};
use asha::surrogate::{BenchmarkModel, TrainingState};
use rand::SeedableRng;

fn space() -> SearchSpace {
    SearchSpace::builder()
        .continuous("x", 0.0, 1.0, Scale::Linear)
        .build()
        .expect("valid space")
}

fn x_of(config: &Config) -> f64 {
    match config.values()[0] {
        ParamValue::Float(v) => v,
        _ => unreachable!("space is continuous"),
    }
}

/// The shared closed-form loss: strictly improving in resource, fully
/// determined by `(x, resource)`.
fn loss_fn(x: f64, resource: f64) -> f64 {
    (x - 0.3).abs() + 1.0 / (1.0 + resource)
}

/// With `poison` on, the loss the `call`-th completion reports (0-based):
/// the second is NaN and the fifth `-inf`, every other one `loss`.
fn reported(poison: bool, call: usize, loss: f64) -> f64 {
    match (poison, call) {
        (true, 1) => f64::NAN,
        (true, 4) => f64::NEG_INFINITY,
        _ => loss,
    }
}

/// An rng-free [`BenchmarkModel`]: every method is a pure function of the
/// configuration and target resource (and, when poisoning, of how many
/// completions came before), so the simulator's RNG stream is consumed only
/// by the scheduler under test.
struct DeterministicBenchmark {
    space: SearchSpace,
    poison: bool,
    calls: AtomicUsize,
}

fn bench(poison: bool) -> DeterministicBenchmark {
    let calls = AtomicUsize::new(0);
    DeterministicBenchmark {
        space: space(),
        poison,
        calls,
    }
}

impl BenchmarkModel for DeterministicBenchmark {
    fn space(&self) -> &SearchSpace {
        &self.space
    }

    fn max_resource(&self) -> f64 {
        9.0
    }

    fn init_state(&self, config: &Config, _rng: &mut dyn rand::RngCore) -> TrainingState {
        TrainingState {
            resource: 0.0,
            loss: loss_fn(x_of(config), 0.0),
            asym_jitter: 0.0,
            rate_jitter: 0.0,
            divergence_draw: 0.0,
            diverged: false,
        }
    }

    fn advance(
        &self,
        config: &Config,
        state: &mut TrainingState,
        target_resource: f64,
        _rng: &mut dyn rand::RngCore,
    ) {
        if target_resource > state.resource {
            state.resource = target_resource;
        }
        state.loss = loss_fn(x_of(config), state.resource);
    }

    fn validation_loss(
        &self,
        _config: &Config,
        state: &TrainingState,
        _rng: &mut dyn rand::RngCore,
    ) -> f64 {
        reported(
            self.poison,
            self.calls.fetch_add(1, Ordering::Relaxed),
            state.loss,
        )
    }

    fn test_loss(&self, _config: &Config, state: &TrainingState) -> f64 {
        state.loss
    }

    fn time_per_unit(&self, _config: &Config) -> f64 {
        1.0
    }
}

/// The same loss through the real executor's objective interface.
fn objective(poison: bool) -> impl asha::exec::Objective<Checkpoint = f64> {
    let calls = AtomicUsize::new(0);
    FnObjective::new(move |config: &Config, resource: f64, _ckpt: Option<f64>| {
        let call = calls.fetch_add(1, Ordering::Relaxed);
        let loss = reported(poison, call, loss_fn(x_of(config), resource));
        (Evaluation::of(loss), resource)
    })
}

/// The multiset of completed jobs and the loss each one reported, keyed by
/// `(trial, rung, resource bits)`.
fn job_multiset(trace: &RunTrace) -> HashMap<(u64, usize, u64), (usize, u64)> {
    let mut jobs: HashMap<(u64, usize, u64), (usize, u64)> = HashMap::new();
    for e in trace.events() {
        let entry = jobs
            .entry((e.trial, e.rung, e.resource.to_bits()))
            .or_insert((0, e.val_loss.to_bits()));
        entry.0 += 1;
        assert_eq!(
            entry.1,
            e.val_loss.to_bits(),
            "same job reported two losses"
        );
    }
    jobs
}

fn assert_parity(exec_trace: &RunTrace, sim_trace: &RunTrace) {
    let exec_jobs = job_multiset(exec_trace);
    let sim_jobs = job_multiset(sim_trace);
    assert!(!exec_jobs.is_empty(), "executor completed no jobs");
    assert_eq!(
        exec_jobs, sim_jobs,
        "executor and simulator completed different job multisets"
    );
}

#[test]
fn asha_sees_the_same_run_on_both_layers() {
    let seed = 17;
    let mk = || Asha::new(space(), AshaConfig::new(1.0, 9.0, 3.0).with_max_trials(12));

    let exec = ParallelTuner::new(ExecConfig::new(1)).run(mk(), &objective(false), seed);
    assert!(exec.scheduler_finished);

    let bench = bench(false);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let sim = ClusterSim::new(SimConfig::new(1, 1e9)).run(mk(), &bench, &mut rng);
    assert!(sim.scheduler_finished);

    assert_parity(&exec.trace, &sim.trace);
    // The layers also agree on the winner, bit for bit.
    let exec_best = exec.best.expect("jobs ran").1;
    let sim_best = sim.best_config.expect("jobs ran").1;
    assert_eq!(exec_best.to_bits(), sim_best.to_bits());
}

#[test]
fn sync_sha_sees_the_same_run_on_both_layers() {
    let seed = 23;
    let mk = || BracketLoop::new(space(), BracketLoopConfig::sha(9, 1.0, 9.0, 3.0));

    let exec = ParallelTuner::new(ExecConfig::new(1)).run(mk(), &objective(false), seed);
    assert!(exec.scheduler_finished);
    // Figure 1 bracket: 9 + 3 + 1 jobs.
    assert_eq!(exec.jobs_completed, 13);

    let bench = bench(false);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let sim = ClusterSim::new(SimConfig::new(1, 1e9)).run(mk(), &bench, &mut rng);
    assert!(sim.scheduler_finished);

    assert_parity(&exec.trace, &sim.trace);
}

/// One fault model on both layers: a NaN and a `-inf` loss are each
/// traced and observed as `+inf`, counted as poisoned, and never become the
/// incumbent, and the two layers still run the same jobs.
#[test]
fn poisoned_losses_complete_the_same_way_on_both_layers() {
    let seed = 17;
    let mk = || Asha::new(space(), AshaConfig::new(1.0, 9.0, 3.0).with_max_trials(12));

    let exec = ParallelTuner::new(ExecConfig::new(1)).run(mk(), &objective(true), seed);
    let bench = bench(true);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let sim = ClusterSim::new(SimConfig::new(1, 1e9)).run(mk(), &bench, &mut rng);

    let exec_best = exec.best.expect("jobs ran").1;
    let sim_best = sim.best_config.expect("jobs ran").1;
    for (layer, trace, poisoned, best) in [
        (
            "executor",
            &exec.trace,
            exec.faults.jobs_poisoned,
            exec_best,
        ),
        ("simulator", &sim.trace, sim.faults.jobs_poisoned, sim_best),
    ] {
        let losses: Vec<f64> = trace.events().iter().map(|e| e.val_loss).collect();
        assert_eq!(losses[1], f64::INFINITY, "{layer}: the NaN job");
        assert_eq!(losses[4], f64::INFINITY, "{layer}: the -inf job");
        assert_eq!(
            losses.iter().filter(|l| !l.is_finite()).count(),
            2,
            "{layer}: {losses:?}"
        );
        assert_eq!(poisoned, 2, "{layer}");
        let finite_min = losses.iter().copied().filter(|l| l.is_finite());
        assert_eq!(Some(best), finite_min.reduce(f64::min), "{layer}");
    }
    assert_parity(&exec.trace, &sim.trace);
}
