//! Behavioural integration tests of the baselines: the properties the
//! paper's comparisons hinge on, checked directly against each scheduler.

use asha_baselines::{bohb, vizier, Fabolas, FabolasConfig, Pbt, PbtConfig, VizierConfig};
use asha_core::{BracketLoopConfig, Decision, Observation, Scheduler};
use asha_space::{Scale, SearchSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn space() -> SearchSpace {
    SearchSpace::builder()
        .continuous("x", 0.0, 1.0, Scale::Linear)
        .continuous("y", 0.0, 1.0, Scale::Linear)
        .build()
        .expect("valid space")
}

/// Serial driver with a quadratic objective; returns unit points of the
/// last `tail` base-rung proposals.
fn drive_tail<S: Scheduler>(
    scheduler: &mut S,
    steps: usize,
    tail: usize,
    full_resource_only: bool,
) -> Vec<Vec<f64>> {
    let s = space();
    let mut rng = StdRng::seed_from_u64(1);
    let mut proposals = Vec::new();
    for _ in 0..steps {
        match scheduler.suggest(&mut rng) {
            Decision::Run(job) => {
                let u = s.to_unit(&job.config).expect("config from space");
                let loss =
                    (u[0] - 0.7).powi(2) + (u[1] - 0.2).powi(2) + 0.3 * (1.0 - job.resource / 64.0);
                if !full_resource_only || job.resource == 64.0 {
                    proposals.push(u);
                }
                scheduler.observe(Observation::for_job(&job, loss));
            }
            Decision::Finished => break,
            Decision::Wait => panic!("serial driver should not wait"),
        }
    }
    let start = proposals.len().saturating_sub(tail);
    proposals[start..].to_vec()
}

fn mean_distance(points: &[Vec<f64>], target: (f64, f64)) -> f64 {
    points
        .iter()
        .map(|u| ((u[0] - target.0).powi(2) + (u[1] - target.1).powi(2)).sqrt())
        .sum::<f64>()
        / points.len().max(1) as f64
}

#[test]
fn bohb_proposals_adapt_toward_the_optimum() {
    let mut tuner = bohb(
        space(),
        BracketLoopConfig::sha(64, 1.0, 64.0, 4.0).growing(),
    );
    let late = drive_tail(&mut tuner, 600, 60, false);
    let dist = mean_distance(&late, (0.7, 0.2));
    // Uniform sampling over the unit square averages ≈ 0.50 from (0.7, 0.2).
    assert!(dist < 0.40, "BOHB late proposals not adaptive: {dist:.3}");
}

#[test]
fn vizier_proposals_adapt_toward_the_optimum() {
    let mut tuner = vizier(space(), VizierConfig::new(64.0));
    let late = drive_tail(&mut tuner, 120, 30, false);
    let dist = mean_distance(&late, (0.7, 0.2));
    assert!(dist < 0.35, "Vizier late proposals not adaptive: {dist:.3}");
}

#[test]
fn fabolas_spends_most_work_on_subsets() {
    let mut tuner = Fabolas::new(space(), FabolasConfig::new(64.0));
    let mut rng = StdRng::seed_from_u64(2);
    let mut cheap = 0usize;
    let mut full = 0usize;
    for _ in 0..100 {
        if let Decision::Run(job) = tuner.suggest(&mut rng) {
            if job.resource < 64.0 {
                cheap += 1;
            } else {
                full += 1;
            }
            tuner.observe(Observation::for_job(&job, 0.5 - job.resource / 640.0));
        }
    }
    assert!(cheap > full * 2, "cheap {cheap} vs full {full}");
    assert!(full > 0, "no full-budget incumbent evaluations");
}

#[test]
fn pbt_population_mean_improves_over_generations() {
    let s = space();
    let mut pbt = Pbt::new(s.clone(), PbtConfig::new(12, 60.0, 4.0));
    let mut rng = StdRng::seed_from_u64(3);
    let mut early_losses = Vec::new();
    let mut late_losses = Vec::new();
    let mut step = 0usize;
    loop {
        match pbt.suggest(&mut rng) {
            Decision::Run(job) => {
                let u = s.to_unit(&job.config).expect("config from space");
                // Pure configuration quality (no training-progress term), so
                // improvement must come from exploit/explore.
                let loss = (u[0] - 0.7).powi(2) + (u[1] - 0.2).powi(2);
                if step < 24 {
                    early_losses.push(loss);
                } else {
                    late_losses.push(loss);
                }
                step += 1;
                pbt.observe(Observation::for_job(&job, loss));
            }
            Decision::Finished => break,
            Decision::Wait => panic!("serial PBT should not wait"),
        }
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    assert!(
        mean(&late_losses) < mean(&early_losses),
        "PBT did not improve: {:.4} -> {:.4}",
        mean(&early_losses),
        mean(&late_losses)
    );
    assert!(pbt.exploit_count() > 0);
}

#[test]
fn bohb_and_sha_share_bracket_structure() {
    // BOHB's early stopping is exactly SHA's: same rung resources and
    // counts on a deterministic serial run.
    let mut tuner = bohb(space(), BracketLoopConfig::sha(16, 4.0, 64.0, 4.0));
    let mut rng = StdRng::seed_from_u64(4);
    let mut per_rung = [0usize; 3];
    while let Decision::Run(job) = tuner.suggest(&mut rng) {
        per_rung[job.rung] += 1;
        tuner.observe(Observation::for_job(&job, job.trial.0 as f64));
    }
    assert_eq!(per_rung, [16, 4, 1]);
}
