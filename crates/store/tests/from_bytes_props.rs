//! `Snapshot::from_bytes` against hostile payloads: a CRC-valid checkpoint
//! file can still hold anything, and recovery decodes it straight into typed
//! state. Arbitrary bytes, and real checkpoints of every persistable
//! scheduler kind × sampler cut short, byte-flipped or spliced with noise,
//! must each come back as `Err` or a `Snapshot` — never a panic, and never
//! an allocation a count alone sized.

use std::sync::OnceLock;

use asha_baselines::Sampler;
use asha_core::{
    Asha, AshaConfig, AsyncHyperband, HyperbandConfig, SchedulerState, ShaConfig, SyncSha,
};
use asha_sim::SimConfig;
use asha_store::{
    load_latest, BenchSpec, Durability, DurableRun, ExperimentMeta, RunOptions, Snapshot,
};
use asha_surrogate::BenchmarkModel;
use proptest::prelude::*;

/// The latest full checkpoint's payload of a short 25-worker run of each
/// scheduler kind (ASHA, synchronous SHA, async Hyperband) × sampler
/// (random, TPE).
fn payloads() -> &'static [Vec<u8>] {
    static PAYLOADS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    PAYLOADS.get_or_init(|| {
        let spec = BenchSpec {
            preset: "svm_vehicle".to_owned(),
            seed: 11,
        };
        let bench = spec.build().unwrap();
        let space = bench.space().clone();
        let mut payloads = Vec::new();
        for sampler in [Sampler::Random, Sampler::Tpe] {
            let asha = Asha::with_sampler(
                space.clone(),
                AshaConfig::new(1.0, 27.0, 3.0),
                sampler.build(&space),
            );
            let sha = SyncSha::with_sampler(
                space.clone(),
                ShaConfig::new(27, 1.0, 27.0, 3.0).growing(),
                sampler.build(&space),
            );
            let ahb = AsyncHyperband::with_sampler_factory(
                space.clone(),
                HyperbandConfig::new(1.0, 27.0, 3.0),
                |_| sampler.build(&space),
            );
            let initials = [
                SchedulerState::Asha(asha.export_state()),
                SchedulerState::SyncSha(sha.export_state()),
                SchedulerState::AsyncHyperband(ahb.export_state()),
            ];
            for initial in initials {
                let name = format!("{}-{}", initial.kind(), sampler.name());
                let dir = std::env::temp_dir().join(format!(
                    "asha-store-from-bytes-{name}-{}",
                    std::process::id()
                ));
                std::fs::remove_dir_all(&dir).ok();
                let meta = ExperimentMeta {
                    name,
                    space: space.clone(),
                    initial,
                    sampler: Some(sampler),
                    seed: 3,
                    sim: SimConfig::new(25, 1e6).with_drops(0.02),
                    bench: spec.clone(),
                };
                let opts = RunOptions {
                    sync: Durability::Flush,
                    snapshot_jobs: 40,
                    delta_chain: 0,
                };
                let mut run = DurableRun::create(&dir, &meta, &bench, opts).unwrap();
                run.run_until_jobs(150).unwrap();
                drop(run);
                let (snap, _) = load_latest(&dir).unwrap().expect("checkpoints were taken");
                assert!(snap.sim.as_ref().is_some_and(|sim| !sim.pending.is_empty()));
                let mut payload = Vec::new();
                snap.encode(&mut payload);
                payloads.push(payload);
                std::fs::remove_dir_all(&dir).ok();
            }
        }
        payloads
    })
}

#[test]
fn real_checkpoints_decode_to_what_they_encode() {
    for payload in payloads() {
        let snap = Snapshot::from_bytes(payload).unwrap();
        let mut again = Vec::new();
        snap.encode(&mut again);
        assert!(&again == payload, "{}", snap.scheduler.kind());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = Snapshot::from_bytes(&bytes);
    }

    /// A strict prefix of a payload is an error; flipped bytes or a tail of
    /// noise are at worst one.
    #[test]
    fn cut_flipped_and_spliced_checkpoints_never_panic(
        which in any::<usize>(),
        cut in any::<usize>(),
        flips in prop::collection::vec((any::<usize>(), 1u8..=255), 1..4),
        noise in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let payload = &payloads()[which % payloads().len()];
        let cut = cut % payload.len();
        prop_assert!(Snapshot::from_bytes(&payload[..cut]).is_err());

        let mut flipped = payload.clone();
        for (at, bits) in flips {
            let at = at % flipped.len();
            flipped[at] ^= bits;
        }
        let _ = Snapshot::from_bytes(&flipped);

        let mut spliced = payload[..cut].to_vec();
        spliced.extend_from_slice(&noise);
        let _ = Snapshot::from_bytes(&spliced);
    }
}
