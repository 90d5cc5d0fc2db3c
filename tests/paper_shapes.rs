//! Fast regression tests of the paper's headline *comparative* claims, at
//! reduced scale so they run in CI. The full-scale versions live in the
//! `asha-bench` figure binaries; these guard against changes that would
//! silently break the reproduction's shape.

use asha::baselines::VizierConfig;
use asha::core::{AshaConfig, HyperbandConfig, ShaConfig};
use asha::sim::{ClusterSim, ResumePolicy, SimConfig};
use asha::space::{Scale, SearchSpace};
use asha::surrogate::{presets, BenchmarkModel, CurveBenchmark};
use asha::tune::{Searcher, SimTune};
use rand::SeedableRng;

/// Mean final incumbent over a few seeds (keeps single-run noise out of CI).
fn mean_final(bench: &CurveBenchmark, searcher: Searcher, workers: usize, horizon: f64) -> f64 {
    let mut total = 0.0;
    let seeds = [11, 22, 33, 44, 55];
    for &seed in &seeds {
        let outcome = SimTune::new(bench)
            .searcher(searcher.clone())
            .workers(workers)
            .horizon(horizon)
            .seed(seed)
            .run();
        total += outcome
            .trace
            .incumbent_curve()
            .last_value()
            .unwrap_or(f64::INFINITY);
    }
    total / seeds.len() as f64
}

#[test]
fn asha_beats_random_search_clearly_on_benchmark1() {
    // Section 4.2's regime: the same parallel budget, vastly more configs.
    let bench = presets::cifar10_cuda_convnet(presets::DEFAULT_SURFACE_SEED);
    let asha = mean_final(&bench, Searcher::default_asha(256.0), 25, 100.0);
    let random = mean_final(
        &bench,
        Searcher::Random {
            max_resource: 256.0,
        },
        25,
        100.0,
    );
    assert!(
        asha + 0.01 < random,
        "ASHA {asha:.4} should clearly beat random {random:.4}"
    );
}

#[test]
fn asha_withstands_stragglers_better_than_sync_sha() {
    // The Appendix A.1 claim at small scale: under heavy stragglers ASHA
    // pushes more configurations to the full budget.
    let space = SearchSpace::builder()
        .continuous("x", 0.0, 1.0, Scale::Linear)
        .build()
        .expect("valid space");
    let bench = CurveBenchmark::builder("unit", space, 64.0, 3)
        .cost(64.0, &[0.0])
        .build();
    let mut asha_total = 0usize;
    let mut sha_total = 0usize;
    for seed in 0..4 {
        let sim = ClusterSim::new(
            SimConfig::new(8, 600.0)
                .with_stragglers(1.0)
                .with_drops(2e-3)
                .with_resume(ResumePolicy::FromScratch),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let asha = Searcher::asha(AshaConfig::new(1.0, 64.0, 4.0)).build(bench.space());
        asha_total += sim
            .run(asha, &bench, &mut rng)
            .trace
            .configs_trained_to(64.0, 600.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sha = Searcher::sha(ShaConfig::new(64, 1.0, 64.0, 4.0).growing()).build(bench.space());
        sha_total += sim
            .run(sha, &bench, &mut rng)
            .trace
            .configs_trained_to(64.0, 600.0);
    }
    assert!(
        asha_total > sha_total,
        "ASHA completed {asha_total} vs SHA {sha_total} under stragglers+drops"
    );
}

#[test]
fn early_stopping_dominates_full_budget_evaluation_under_time_pressure() {
    // The large-scale-regime premise on the PTB surrogate: in ~2x time(R),
    // ASHA must beat the no-early-stopping model-based baseline.
    let bench = presets::ptb_lstm(presets::DEFAULT_SURFACE_SEED);
    let asha = mean_final(&bench, Searcher::default_asha(64.0), 50, 2.0);
    let vizier = mean_final(&bench, Searcher::Vizier(VizierConfig::new(64.0)), 50, 2.0);
    assert!(
        asha < vizier,
        "ASHA {asha:.2} should beat Vizier {vizier:.2} at 2 x time(R)"
    );
}

#[test]
fn by_rung_accounting_never_trails_by_bracket() {
    // Appendix A.2: using intermediate losses can only reveal the incumbent
    // earlier. Structural property of the two accountings on any trace.
    let bench = presets::svm_vehicle(presets::DEFAULT_SURFACE_SEED);
    let outcome = SimTune::new(&bench)
        .searcher(Searcher::Hyperband(HyperbandConfig::new(
            1.0,
            bench.max_resource(),
            4.0,
        )))
        .workers(1)
        .horizon(500.0)
        .seed(4)
        .run();
    let by_rung = outcome.trace.incumbent_curve();
    let by_bracket = outcome.trace.incumbent_curve_by_bracket();
    // "Earlier" is about *when* the incumbent is revealed, not a pointwise
    // ordering of test losses: both curves plot the test loss of the best
    // *validation* config, so observation noise can make a newer incumbent's
    // test loss momentarily worse than a stale one's. The invariant that does
    // hold on any trace: every value by-bracket reveals was already revealed
    // by-rung at an earlier (or equal) time.
    assert!(!by_bracket.points().is_empty(), "by-bracket curve is empty");
    for &(tb, v) in by_bracket.points() {
        let revealed_earlier = by_rung
            .points()
            .iter()
            .any(|&(tr, vr)| tr <= tb && vr.to_bits() == v.to_bits());
        assert!(
            revealed_earlier,
            "by-bracket value {v} at t={tb} was never revealed earlier by-rung"
        );
    }
    // Both accountings agree on the final incumbent.
    assert_eq!(
        by_rung.last_value().map(f64::to_bits),
        by_bracket.last_value().map(f64::to_bits),
        "final incumbents disagree"
    );
}

#[test]
fn divergent_configs_never_reach_high_rungs() {
    // ASHA's robustness to pathological configurations (Section 4.3): a
    // diverged trial's capped loss keeps it in the bottom rungs.
    let bench = presets::ptb_lstm(presets::DEFAULT_SURFACE_SEED);
    let asha = Searcher::asha(AshaConfig::new(1.0, 64.0, 4.0)).build(bench.space());
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let result = ClusterSim::new(SimConfig::new(25, 2.0)).run(asha, &bench, &mut rng);
    for e in result.trace.events() {
        if e.val_loss >= 1000.0 {
            assert!(
                e.rung <= 1,
                "a capped-loss trial reached rung {} (loss {})",
                e.rung,
                e.val_loss
            );
        }
    }
}
