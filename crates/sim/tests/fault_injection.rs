//! Failure-injection tests of the simulated cluster: checkpoint inheritance,
//! drop/retry semantics, straggler accounting, and resume-policy costs under
//! adversarial settings.

use asha_core::{Asha, AshaConfig, Decision, Job, Observation, Scheduler, TrialId};
use asha_sim::{ClusterSim, ResumePolicy, SimConfig};
use asha_space::{Config, Scale, SearchSpace};
use asha_surrogate::{BenchmarkModel, CurveBenchmark, TrainingState};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench() -> CurveBenchmark {
    let space = SearchSpace::builder()
        .continuous("x", 0.0, 1.0, Scale::Linear)
        .build()
        .expect("valid space");
    CurveBenchmark::builder("unit", space, 16.0, 5)
        .cost(16.0, &[0.0])
        .noise(0.0, 0.0)
        .build()
}

/// A minimal scheduler that runs one trial in two segments, the second
/// inheriting from a *different* trial — to pin down inheritance semantics.
struct InheritProbe {
    step: usize,
}

impl Scheduler for InheritProbe {
    fn suggest(&mut self, rng: &mut dyn rand::RngCore) -> Decision {
        use rand::Rng as _;
        let _ = rng.gen::<f64>();
        self.step += 1;
        let space = bench().space().clone();
        match self.step {
            // Parent trains to 8 units.
            1 => Decision::Run(Job {
                trial: TrialId(0),
                config: space.from_unit(&[0.2]),
                rung: 0,
                resource: 8.0,
                bracket: 0,
                inherit_from: None,
            }),
            // Child inherits the parent's checkpoint and continues to 16.
            2 => Decision::Run(Job {
                trial: TrialId(1),
                config: space.from_unit(&[0.2]),
                rung: 1,
                resource: 16.0,
                bracket: 0,
                inherit_from: Some(TrialId(0)),
            }),
            // A fresh trial with a dangling inherit source: must fall back
            // to fresh initialization, not crash.
            3 => Decision::Run(Job {
                trial: TrialId(2),
                config: space.from_unit(&[0.2]),
                rung: 0,
                resource: 16.0,
                bracket: 0,
                inherit_from: Some(TrialId(99)),
            }),
            _ => Decision::Finished,
        }
    }

    fn observe(&mut self, _obs: Observation) {}

    fn name(&self) -> &str {
        "inherit-probe"
    }
}

#[test]
fn inheritance_copies_checkpoints_and_tolerates_dangling_sources() {
    let b = bench();
    let mut rng = StdRng::seed_from_u64(0);
    // Sequential worker so events land in a known order.
    let result =
        ClusterSim::new(SimConfig::new(1, 1e6)).run(InheritProbe { step: 0 }, &b, &mut rng);
    assert!(result.scheduler_finished);
    let events = result.trace.events();
    assert_eq!(events.len(), 3);
    // The child continued from the parent's checkpoint: its job (8 -> 16
    // units under checkpoint resume) took 8 time units, not 16.
    let parent_done = events[0].time;
    let child_done = events[1].time;
    assert!((parent_done - 8.0).abs() < 1e-6);
    assert!(
        (child_done - parent_done - 8.0).abs() < 1e-6,
        "child took {} (inheritance failed?)",
        child_done - parent_done
    );
    // Dangling source: fresh state, trains the full 16 units.
    let fresh_done = events[2].time;
    assert!((fresh_done - child_done - 16.0).abs() < 1e-6);
    // And the child's loss continued improving past the parent's.
    assert!(events[1].val_loss <= events[0].val_loss);
}

#[test]
fn certain_drops_prevent_completion_but_terminate() {
    // With p = 0.9 per unit, a 16-unit job essentially never completes; the
    // simulator must still terminate at the horizon with zero completions.
    let b = bench();
    let mut rng = StdRng::seed_from_u64(1);
    let result = ClusterSim::new(SimConfig::new(2, 200.0).with_drops(0.9)).run(
        InheritProbe { step: 0 },
        &b,
        &mut rng,
    );
    assert_eq!(result.jobs_completed, 0);
    assert!(
        result.faults.jobs_dropped > 50,
        "{} drops",
        result.faults.jobs_dropped
    );
}

#[test]
fn straggler_multiplier_only_stretches_time() {
    let b = bench();
    let run = |std: f64| {
        let mut rng = StdRng::seed_from_u64(2);
        ClusterSim::new(SimConfig::new(1, 1e6).with_stragglers(std)).run(
            InheritProbe { step: 0 },
            &b,
            &mut rng,
        )
    };
    let clean = run(0.0);
    let slow = run(2.0);
    assert_eq!(clean.jobs_completed, slow.jobs_completed);
    assert!(slow.end_time > clean.end_time);
    // Losses are essentially unaffected by stragglers (straggler sampling
    // shifts the RNG stream, so run-level jitter differs microscopically).
    let clean_losses: Vec<f64> = clean.trace.events().iter().map(|e| e.val_loss).collect();
    let slow_losses: Vec<f64> = slow.trace.events().iter().map(|e| e.val_loss).collect();
    for (a, b) in clean_losses.iter().zip(&slow_losses) {
        assert!((a - b).abs() < 5e-3, "{a} vs {b}");
    }
}

#[test]
fn from_scratch_resume_repays_full_budget() {
    let b = bench();
    let mut rng = StdRng::seed_from_u64(3);
    let result = ClusterSim::new(SimConfig::new(1, 1e6).with_resume(ResumePolicy::FromScratch))
        .run(InheritProbe { step: 0 }, &b, &mut rng);
    let events = result.trace.events();
    // Parent 8, child 16 (full, from scratch), fresh 16.
    assert!((events[0].time - 8.0).abs() < 1e-6);
    assert!((events[1].time - 24.0).abs() < 1e-6);
    assert!((events[2].time - 40.0).abs() < 1e-6);
}

#[test]
fn best_config_matches_trace_best() {
    let b = bench();
    let mut rng = StdRng::seed_from_u64(4);
    let result =
        ClusterSim::new(SimConfig::new(1, 1e6)).run(InheritProbe { step: 0 }, &b, &mut rng);
    let (best_val, _) = result.trace.final_best().expect("events exist");
    let (_, val, _) = result.best_config.expect("events exist");
    assert_eq!(val, best_val);
}

/// A benchmark whose first validation loss is NaN, the rest its inner's.
struct FirstLossNan {
    inner: CurveBenchmark,
    calls: std::sync::atomic::AtomicUsize,
}

impl BenchmarkModel for FirstLossNan {
    fn space(&self) -> &SearchSpace {
        self.inner.space()
    }
    fn max_resource(&self) -> f64 {
        self.inner.max_resource()
    }
    fn init_state(&self, config: &Config, rng: &mut dyn rand::RngCore) -> TrainingState {
        self.inner.init_state(config, rng)
    }
    fn advance(
        &self,
        config: &Config,
        state: &mut TrainingState,
        target_resource: f64,
        rng: &mut dyn rand::RngCore,
    ) {
        self.inner.advance(config, state, target_resource, rng)
    }
    fn validation_loss(
        &self,
        config: &Config,
        state: &TrainingState,
        rng: &mut dyn rand::RngCore,
    ) -> f64 {
        let loss = self.inner.validation_loss(config, state, rng);
        let call = self
            .calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if call == 0 {
            f64::NAN
        } else {
            loss
        }
    }
    fn test_loss(&self, config: &Config, state: &TrainingState) -> f64 {
        self.inner.test_loss(config, state)
    }
    fn time_per_unit(&self, config: &Config) -> f64 {
        self.inner.time_per_unit(config)
    }
}

/// A NaN loss never becomes the incumbent: the first completion used to be
/// taken unconditionally, and no later `val < NaN` could replace it.
#[test]
fn a_nan_loss_never_becomes_best() {
    let b = FirstLossNan {
        inner: asha_surrogate::presets::cifar10_cuda_convnet(1),
        calls: Default::default(),
    };
    let tuner = Asha::new(b.space().clone(), AshaConfig::new(1.0, 256.0, 4.0));
    let mut rng = StdRng::seed_from_u64(0);
    let mut cfg = SimConfig::new(4, 1e9);
    cfg.max_jobs = 200;
    let result = ClusterSim::new(cfg).run(tuner, &b, &mut rng);
    assert!(result.trace.events().iter().any(|e| e.val_loss.is_nan()));
    let (best_val, best_test) = result.trace.final_best().expect("jobs completed");
    assert!(best_val.is_finite() && best_test.is_finite(), "{best_val}");
    let (_, val, _) = result.best_config.expect("jobs completed");
    assert_eq!(val, best_val);
}
