//! Cross-crate integration: every scheduler in the workspace runs against
//! every surrogate benchmark under the discrete-event simulator, produces a
//! well-formed trace, and is deterministic given its seed.

use asha::baselines::{FabolasConfig, PbtConfig, VizierConfig};
use asha::core::{AshaConfig, BracketLoopConfig, Scheduler};
use asha::sim::{ClusterSim, SimConfig};
use asha::space::SearchSpace;
use asha::surrogate::{presets, BenchmarkModel, CurveBenchmark};
use asha::tune::Searcher;
use rand::SeedableRng;

fn all_schedulers(space: &SearchSpace, max_r: f64) -> Vec<Box<dyn Scheduler + Send>> {
    let eta = 4.0;
    let n = 64;
    let r = max_r / 64.0;
    [
        Searcher::asha(AshaConfig::new(r, max_r, eta)),
        Searcher::bracket_loop(BracketLoopConfig::sha(n, r, max_r, eta).growing()),
        Searcher::bracket_loop(BracketLoopConfig::hyperband(r, max_r, eta)),
        Searcher::bracket_loop(BracketLoopConfig::async_hyperband(r, max_r, eta)),
        Searcher::bohb(BracketLoopConfig::sha(n, r, max_r, eta).growing()),
        Searcher::Pbt(PbtConfig::new(8, max_r, max_r / 16.0).spawning()),
        Searcher::Vizier(VizierConfig::new(max_r)),
        Searcher::Fabolas(FabolasConfig::new(max_r)),
        Searcher::random(max_r),
    ]
    .iter()
    .map(|searcher| searcher.build(space))
    .collect()
}

fn benchmarks() -> Vec<CurveBenchmark> {
    let seed = presets::DEFAULT_SURFACE_SEED;
    vec![
        presets::cifar10_cuda_convnet(seed),
        presets::cifar10_small_cnn(seed),
        presets::ptb_lstm(seed),
        presets::svm_vehicle(seed),
    ]
}

#[test]
fn every_scheduler_runs_on_every_benchmark() {
    for bench in benchmarks() {
        let max_r = bench.max_resource();
        // A short horizon relative to each benchmark's cost scale.
        let horizon = bench.time_full(&bench.space().default_config()) * 3.0;
        for scheduler in all_schedulers(bench.space(), max_r) {
            let name = scheduler.name().to_owned();
            let mut rng = rand::rngs::StdRng::seed_from_u64(9);
            let result = ClusterSim::new(SimConfig::new(8, horizon).with_max_jobs(3000))
                .run(scheduler, &bench, &mut rng);
            assert!(
                result.jobs_completed > 0,
                "{name} completed nothing on {}",
                bench.name()
            );
            let events = result.trace.events();
            assert!(events.windows(2).all(|w| w[0].time <= w[1].time));
            assert!(
                events
                    .iter()
                    .all(|e| e.val_loss.is_finite() && e.resource > 0.0),
                "{name} produced malformed events on {}",
                bench.name()
            );
            // Resources never exceed R.
            assert!(
                events.iter().all(|e| e.resource <= max_r + 1e-9),
                "{name} over-allocated resources on {}",
                bench.name()
            );
        }
    }
}

#[test]
fn runs_are_deterministic_given_seed() {
    let bench = presets::cifar10_small_cnn(presets::DEFAULT_SURFACE_SEED);
    let run = |seed: u64| {
        let asha = Searcher::default_asha(256.0).build(bench.space());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        ClusterSim::new(SimConfig::new(16, 60.0))
            .run(asha, &bench, &mut rng)
            .trace
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6));
}

#[test]
fn early_stopping_methods_evaluate_many_more_configs_than_full_budget_ones() {
    let bench = presets::cifar10_small_cnn(presets::DEFAULT_SURFACE_SEED);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let asha = Searcher::default_asha(256.0).build(bench.space());
    let asha_configs = ClusterSim::new(SimConfig::new(25, 100.0))
        .run(asha, &bench, &mut rng)
        .trace
        .distinct_trials();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let random = Searcher::random(256.0).build(bench.space());
    let random_configs = ClusterSim::new(SimConfig::new(25, 100.0))
        .run(random, &bench, &mut rng)
        .trace
        .distinct_trials();
    assert!(
        asha_configs > random_configs * 10,
        "ASHA {asha_configs} vs random {random_configs}: the large-scale-regime \
         premise (orders of magnitude more configurations) failed"
    );
}

#[test]
fn pbt_inheritance_flows_through_the_simulator() {
    // A PBT run on a surrogate must end with a population whose best loss
    // beats the best *initial* sample, which requires weight inheritance to
    // actually transfer curve state through the simulator's checkpoint map.
    let bench = presets::cifar10_cuda_convnet(presets::DEFAULT_SURFACE_SEED);
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let pbt = Searcher::Pbt(PbtConfig::new(10, 256.0, 16.0)).build(bench.space());
    let result = ClusterSim::new(SimConfig::new(10, 500.0)).run(pbt, &bench, &mut rng);
    let events = result.trace.events();
    // First generation: the 10 founding trials' first observations.
    let first_gen_best = events
        .iter()
        .filter(|e| e.trial < 10)
        .map(|e| e.val_loss)
        .fold(f64::INFINITY, f64::min);
    let overall_best = result.trace.final_best().expect("events exist").0;
    assert!(
        overall_best < first_gen_best,
        "PBT never improved on its founding population: {overall_best} vs {first_gen_best}"
    );
    // Inherited trials exist (trial ids beyond the founding population).
    assert!(events.iter().any(|e| e.trial >= 10));
}
