//! Same seed ⇒ same bytes, for the simulator itself: an FNV-1a digest of the
//! `Debug` rendering of [`SimResult`] (Rust prints floats so that they
//! round-trip exactly, so the rendering pins every bit) for each surrogate
//! preset under four scheduler set-ups. The constants were generated once
//! and are not expected to move: a change to `sim`, `core`, `surrogate` or
//! `space` that alters any simulated number, decision or ordering fails
//! here. On a deliberate numerics change, the failure message prints the
//! replacement table.

use std::fmt::Write;

use asha::core::{AshaConfig, HyperbandConfig, ShaConfig};
use asha::sim::{ClusterSim, SimConfig, SimResult, TraceMode};
use asha::surrogate::{presets, BenchmarkModel, CurveBenchmark};
use asha::tune::Searcher;
use rand::SeedableRng;

const SEED: u64 = 7;
const JOBS: usize = 3_000;
const SETUPS: [&str; 4] = ["asha-25w", "asha-500w-chaos", "sync-sha", "async-hyperband"];

/// `(preset, [digest per entry of SETUPS])`.
#[rustfmt::skip]
const GOLDEN: [(&str, [u64; 4]); 7] = [
    ("cifar10-cuda-convnet", [0x4567dd77daf3b2af, 0xfa232a4beaaa006e, 0x80cee955ae44327c, 0x8baae5aa00386925]),
    ("cifar10-small-cnn", [0x19c6000b6b59bddf, 0xe452831ec4e98b44, 0x7087fdfcba0d82b8, 0xe752d0bd3b0f2710]),
    ("svhn-small-cnn", [0xccefd8032e5f16a7, 0x8c65b39b98552c5f, 0x618db5f60a2e118d, 0xa7bdaf6fe0195d62]),
    ("ptb-lstm", [0x91bb561cfb8d4221, 0x2e1fb03da0ac3300, 0xf08dd55a1efce5ea, 0x36d8c81a7fafaf1d]),
    ("ptb-dropconnect-lstm", [0xfd3b6f5b354ddb83, 0xaf59e3d25c4e016b, 0x59dcec54c4cc178b, 0x035c7621b7561a28]),
    ("svm-vehicle", [0x9e718c9131934fd0, 0x073c4f8a4c28bb19, 0x28892e337e8bc1ef, 0x2aacc8055500c9f7]),
    ("svm-mnist", [0xef4a84edba653c2a, 0x5ebe37f278cddb1f, 0x9a876dd29773b5b9, 0x522f5f18cfbf3497]),
];

struct Fnv1a(u64);

impl Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

fn digest(result: &SimResult) -> u64 {
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    write!(h, "{result:?}").expect("hashing cannot fail");
    h.0
}

fn run(bench: &CurveBenchmark, setup: &str) -> SimResult {
    let max_r = bench.max_resource();
    let (r, eta) = (max_r / 64.0, 4.0);
    let sim = |workers| {
        SimConfig::new(workers, 1e12)
            .with_max_jobs(JOBS)
            .with_trace_mode(TraceMode::Full)
    };
    let asha = Searcher::asha(AshaConfig::new(r, max_r, eta));
    let (config, searcher) = match setup {
        "asha-25w" => (sim(25), asha),
        "asha-500w-chaos" => (sim(500).with_stragglers(0.5).with_drops(0.001), asha),
        "sync-sha" => (
            sim(25),
            Searcher::sha(ShaConfig::new(64, r, max_r, eta).growing()),
        ),
        "async-hyperband" => (
            sim(25),
            Searcher::async_hyperband(HyperbandConfig::new(r, max_r, eta)),
        ),
        other => unreachable!("unknown set-up {other}"),
    };
    let scheduler = searcher.build(bench.space());
    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);
    ClusterSim::new(config).run(scheduler, bench, &mut rng)
}

#[test]
fn sim_results_match_committed_digests() {
    let benches = [
        presets::cifar10_cuda_convnet(SEED),
        presets::cifar10_small_cnn(SEED),
        presets::svhn_small_cnn(SEED),
        presets::ptb_lstm(SEED),
        presets::ptb_dropconnect_lstm(SEED),
        presets::svm_vehicle(SEED),
        presets::svm_mnist(SEED),
    ];
    let mut table = String::new();
    let mut moved = Vec::new();
    for (bench, (name, golden)) in benches.iter().zip(GOLDEN) {
        assert_eq!(bench.name(), name, "GOLDEN rows follow presets.rs order");
        let mut row = Vec::new();
        for (setup, want) in SETUPS.iter().zip(golden) {
            let result = run(bench, setup);
            assert_eq!(result.jobs_completed, JOBS, "{name}/{setup} ran short");
            let got = digest(&result);
            if got != want {
                moved.push(format!("{name}/{setup}"));
            }
            row.push(format!("{got:#018x}"));
        }
        writeln!(table, "    (\"{name}\", [{}]),", row.join(", ")).expect("String write");
    }
    assert!(
        moved.is_empty(),
        "simulator output changed for {moved:?}; if intended, GOLDEN becomes:\n{table}"
    );
}
