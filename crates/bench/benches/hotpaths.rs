//! Microbenchmarks of the two hot paths the perf_baseline binary tracks at
//! the macro level: the rung promotion scan (`Rung::promotable` /
//! `RungLadder::find_promotable`) at paper-scale record counts, and the
//! cluster simulator event loop at the paper's 25- and 500-worker regimes.

use asha_core::{
    Asha, AshaConfig, Observation, PromotionRule, Rung, RungLadder, ScanOrder, Scheduler, TrialId,
};
use asha_sim::{ClusterSim, SimConfig, TraceMode};
use asha_space::{Scale, SearchSpace};
use asha_surrogate::{presets, BenchmarkModel};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn space() -> SearchSpace {
    SearchSpace::builder()
        .continuous("lr", 1e-5, 1.0, Scale::Log)
        .continuous("wd", 1e-6, 1e-2, Scale::Log)
        .discrete("layers", 2, 8)
        .build()
        .expect("valid space")
}

/// A rung holding `n` records with every promotable trial already promoted,
/// which is the steady state a long ASHA run scans over and over.
fn saturated_rung(n: usize) -> Rung {
    let mut rung = Rung::new();
    for i in 0..n {
        rung.record(TrialId(i as u64), ((i * 7919) % 1009) as f64);
    }
    while let Some((t, _)) = rung.promotable(4.0, PromotionRule::Eager) {
        rung.mark_promoted(t);
    }
    rung
}

fn bench_rung_promotable(c: &mut Criterion) {
    let mut group = c.benchmark_group("rung_promotable");
    for &size in &[10_000usize, 100_000] {
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            let rung = saturated_rung(size);
            b.iter(|| std::hint::black_box(rung.promotable(4.0, PromotionRule::Eager)));
        });
    }
    group.finish();
}

fn bench_ladder_find_promotable(c: &mut Criterion) {
    let mut group = c.benchmark_group("ladder_find_promotable");
    for &size in &[10_000usize, 100_000] {
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            // Fill the full ladder through ASHA itself so the record
            // distribution across rungs matches a real run.
            let mut asha = Asha::new(space(), AshaConfig::new(1.0, 256.0, 4.0));
            let mut rng = StdRng::seed_from_u64(0);
            for i in 0..size {
                let job = asha.suggest(&mut rng).job().expect("asha always runs");
                asha.observe(Observation::for_job(&job, ((i * 7919) % 1009) as f64));
            }
            let ladder: &RungLadder = asha.ladder();
            b.iter(|| {
                std::hint::black_box(
                    ladder.find_promotable(ScanOrder::TopDown, PromotionRule::Eager),
                )
            });
        });
    }
    group.finish();
}

fn bench_cluster_sim_events(c: &mut Criterion) {
    let bench = presets::cifar10_cuda_convnet(2020);
    let mut group = c.benchmark_group("cluster_sim_events");
    group.sample_size(10);
    for &workers in &[25usize, 500] {
        group.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let asha = Asha::new(bench.space().clone(), AshaConfig::new(1.0, 256.0, 4.0));
                    let sim = ClusterSim::new(
                        SimConfig::new(workers, 60.0).with_trace_mode(TraceMode::IncumbentOnly),
                    );
                    let mut rng = StdRng::seed_from_u64(7);
                    std::hint::black_box(sim.run(asha, &bench, &mut rng))
                });
            },
        );
    }
    group.finish();
}

/// Telemetry cost on the simulator event loop: the same 25-worker run with
/// the no-op recorder (the guards must fold away — this case should match
/// `cluster_sim_events/25` within noise) and with the collecting recorder
/// (the full price of structured telemetry).
fn bench_sim_telemetry(c: &mut Criterion) {
    let bench = presets::cifar10_cuda_convnet(2020);
    let mut group = c.benchmark_group("cluster_sim_telemetry");
    group.sample_size(10);
    let sim = ClusterSim::new(SimConfig::new(25, 60.0).with_trace_mode(TraceMode::IncumbentOnly));
    group.bench_function(BenchmarkId::from_parameter("off"), |b| {
        b.iter(|| {
            let asha = Asha::new(bench.space().clone(), AshaConfig::new(1.0, 256.0, 4.0));
            let mut rng = StdRng::seed_from_u64(7);
            std::hint::black_box(sim.run_recorded(
                asha,
                &bench,
                &mut rng,
                &mut asha_obs::NoopRecorder,
            ))
        });
    });
    group.bench_function(BenchmarkId::from_parameter("on"), |b| {
        b.iter(|| {
            let asha = Asha::new(bench.space().clone(), AshaConfig::new(1.0, 256.0, 4.0));
            let mut rng = StdRng::seed_from_u64(7);
            let mut recorder = asha_obs::RunRecorder::new();
            let result = sim.run_recorded(asha, &bench, &mut rng, &mut recorder);
            std::hint::black_box((result, recorder))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_rung_promotable,
    bench_ladder_find_promotable,
    bench_cluster_sim_events,
    bench_sim_telemetry
);
criterion_main!(benches);
