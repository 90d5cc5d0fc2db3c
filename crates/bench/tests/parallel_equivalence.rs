//! The parallel runner's determinism contract: for any thread count, output
//! is bitwise-identical to the sequential runner — same curves, same
//! aggregates, same CSV bytes — because results are collected by cell index,
//! never by completion order.

use asha::sim::SimConfig;
use asha::tune::Searcher;
use asha_bench::{
    run_experiment, run_experiment_parallel, write_results_to, ExperimentConfig, MethodSpec,
};
use asha_core::{AshaConfig, BracketLoopConfig};
use asha_surrogate::{presets, CurveBenchmark};

const R: f64 = 256.0;

fn methods(_: &CurveBenchmark) -> Vec<MethodSpec> {
    vec![
        MethodSpec::new("ASHA", Searcher::asha(AshaConfig::new(1.0, R, 4.0))),
        MethodSpec::new(
            "AsyncHB",
            Searcher::bracket_loop(
                BracketLoopConfig::async_hyperband(1.0, R, 4.0).with_brackets(4),
            ),
        ),
        MethodSpec::new("Random", Searcher::random(R)),
    ]
}

fn cfg() -> ExperimentConfig {
    ExperimentConfig::new(SimConfig::new(9, 60.0), 5, 0.65)
}

#[test]
fn parallel_matches_sequential_bitwise_for_any_thread_count() {
    let bench = presets::cifar10_cuda_convnet(2020);
    let cfg = cfg();
    let sequential = run_experiment(&bench, &methods(&bench), &cfg);
    // 0 = one thread per hardware thread.
    for threads in [0usize, 1, 2, 8] {
        let parallel = run_experiment_parallel(&bench, &methods(&bench), &cfg, threads);
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(s.name, p.name);
            // f64 vectors compared with ==: bitwise, not approximate.
            assert_eq!(s.aggregate.grid, p.aggregate.grid, "{threads} threads");
            assert_eq!(s.aggregate.mean, p.aggregate.mean, "{threads} threads");
            assert_eq!(s.aggregate.q25, p.aggregate.q25, "{threads} threads");
            assert_eq!(s.aggregate.q75, p.aggregate.q75, "{threads} threads");
            assert_eq!(s.aggregate.min, p.aggregate.min, "{threads} threads");
            assert_eq!(s.aggregate.max, p.aggregate.max, "{threads} threads");
            assert_eq!(s.mean_jobs, p.mean_jobs, "{threads} threads");
            assert_eq!(s.mean_configs, p.mean_configs, "{threads} threads");
            assert_eq!(s.curves.len(), p.curves.len());
            for (sc, pc) in s.curves.iter().zip(&p.curves) {
                assert_eq!(sc.points(), pc.points(), "{threads} threads");
            }
        }
    }
}

#[test]
fn parallel_and_sequential_csvs_are_byte_identical() {
    let bench = presets::cifar10_cuda_convnet(2020);
    let cfg = cfg();
    let sequential = run_experiment(&bench, &methods(&bench), &cfg);
    let parallel = run_experiment_parallel(&bench, &methods(&bench), &cfg, 4);

    let root = std::env::temp_dir().join(format!("asha-par-eq-{}", std::process::id()));
    let seq_dir = root.join("seq");
    let par_dir = root.join("par");
    write_results_to(&seq_dir, "eq", &sequential);
    write_results_to(&par_dir, "eq", &parallel);

    let mut names: Vec<_> = std::fs::read_dir(&seq_dir)
        .expect("seq dir written")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    names.sort();
    assert_eq!(names.len(), 3, "one CSV per method");
    for name in &names {
        let a = std::fs::read(seq_dir.join(name)).expect("sequential csv");
        let b = std::fs::read(par_dir.join(name)).expect("parallel csv");
        assert_eq!(a, b, "CSV bytes differ for {name:?}");
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn more_threads_than_cells_is_fine() {
    let bench = presets::cifar10_cuda_convnet(2020);
    let mut cfg = cfg();
    cfg.trials = 1;
    let sequential = run_experiment(&bench, &methods(&bench), &cfg);
    let parallel = run_experiment_parallel(&bench, &methods(&bench), &cfg, 32);
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(s.aggregate.mean, p.aggregate.mean);
    }
}
