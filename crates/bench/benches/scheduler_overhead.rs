//! Microbenchmarks of the scheduling hot path: one `suggest` + `observe`
//! round trip per worker request. The paper's 500-worker experiment issues
//! hundreds of thousands of jobs, so the promotion scan must stay effectively
//! constant-time as rungs grow (see `asha_core::rung` for the design).

use asha_core::{
    Asha, AshaConfig, AsyncHyperband, HyperbandConfig, Observation, PromotionRule, ScanOrder,
    Scheduler, ShaConfig, SyncSha,
};
use asha_space::{Scale, SearchSpace};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn space() -> SearchSpace {
    SearchSpace::builder()
        .continuous("lr", 1e-5, 1.0, Scale::Log)
        .continuous("wd", 1e-6, 1e-2, Scale::Log)
        .discrete("layers", 2, 8)
        .ordinal("batch", &[64.0, 128.0, 256.0, 512.0])
        .build()
        .expect("valid space")
}

/// Pre-fill an ASHA instance with `n` completed bottom-rung trials.
fn prefilled_asha(n: usize) -> Asha {
    let mut asha = Asha::new(space(), AshaConfig::new(1.0, 256.0, 4.0));
    let mut rng = StdRng::seed_from_u64(0);
    for i in 0..n {
        let job = asha.suggest(&mut rng).job().expect("asha always runs");
        asha.observe(Observation::for_job(&job, (i % 1009) as f64));
    }
    asha
}

fn bench_asha_round_trip(c: &mut Criterion) {
    let mut group = c.benchmark_group("asha_suggest_observe");
    for &size in &[100usize, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            let mut asha = prefilled_asha(size);
            let mut rng = StdRng::seed_from_u64(1);
            let mut i = 0u64;
            b.iter(|| {
                let job = asha.suggest(&mut rng).job().expect("asha always runs");
                asha.observe(Observation::for_job(&job, (i % 997) as f64));
                i += 1;
            });
        });
    }
    group.finish();
}

fn bench_sync_sha_round_trip(c: &mut Criterion) {
    c.bench_function("sync_sha_suggest_observe", |b| {
        let mut sha = SyncSha::new(space(), ShaConfig::new(256, 1.0, 256.0, 4.0).growing());
        let mut rng = StdRng::seed_from_u64(2);
        let mut i = 0u64;
        b.iter(|| {
            let job = sha
                .suggest(&mut rng)
                .job()
                .expect("growing sha always runs");
            sha.observe(Observation::for_job(&job, (i % 997) as f64));
            i += 1;
        });
    });
}

fn bench_async_hyperband_round_trip(c: &mut Criterion) {
    c.bench_function("async_hyperband_suggest_observe", |b| {
        let mut hb = AsyncHyperband::new(space(), HyperbandConfig::new(1.0, 256.0, 4.0));
        let mut rng = StdRng::seed_from_u64(3);
        let mut i = 0u64;
        b.iter(|| {
            let job = hb.suggest(&mut rng).job().expect("asha never waits");
            hb.observe(Observation::for_job(&job, (i % 997) as f64));
            i += 1;
        });
    });
}

fn bench_promotion_scan_cost(c: &mut Criterion) {
    // Isolate the `get_job` promotion scan at a large, stable rung size.
    let asha = prefilled_asha(50_000);
    c.bench_function("promotion_scan_50k", |b| {
        b.iter(|| {
            std::hint::black_box(
                asha.ladder()
                    .find_promotable(ScanOrder::TopDown, PromotionRule::Eager),
            )
        });
    });
}

criterion_group!(
    benches,
    bench_asha_round_trip,
    bench_sync_sha_round_trip,
    bench_async_hyperband_round_trip,
    bench_promotion_scan_cost
);
criterion_main!(benches);
