//! Crash-recovery integration tests: a durable run killed at an arbitrary
//! point and recovered must finish with a result bitwise-identical to an
//! uninterrupted run of the same seed — the store's core guarantee.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};

use asha_baselines::{bohb_asha, Sampler};
use asha_core::telemetry::EventKind;
use asha_core::{Asha, AshaConfig, Decision, Observation, Scheduler};
use asha_sim::{SimConfig, SimResult};
use asha_space::{Config, ParamValue};
use asha_store::binary::{decode_value, put_value};
use asha_store::delta::apply_bytes;
use asha_store::format::encode_record;
use asha_store::{
    load_latest, read_meta, read_wal, replay_scheduler, upgrade, write_document, BenchSpec,
    DeltaDoc, Durability, DurableRun, EncodeBuf, ErrorKind, ExperimentMeta, ExperimentStatus,
    ExperimentSupervisor, RunOptions, SchedulerState, Snapshot, StoredScheduler, WalRecord,
    WAL_FILE,
};
use asha_surrogate::BenchmarkModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asha-store-crash-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small chaos experiment (stragglers + drops) over a real surrogate.
fn chaos_meta(name: &str, seed: u64) -> ExperimentMeta {
    let spec = BenchSpec {
        preset: "svm_vehicle".to_owned(),
        seed: 11,
    };
    let bench = spec.build().unwrap();
    let space = bench.space().clone();
    let asha = Asha::new(space.clone(), AshaConfig::new(1.0, 27.0, 3.0));
    ExperimentMeta {
        name: name.to_owned(),
        space,
        initial: SchedulerState::Asha(asha.export_state()),
        sampler: None,
        seed,
        sim: SimConfig::new(6, 50.0)
            .with_stragglers(0.4)
            .with_drops(0.02),
        bench: spec,
    }
}

/// Like [`chaos_meta`] but with a TPE sampler attached — on ASHA or, when
/// `delayed` is set, on D-ASHA. Exercises the sampling plane's durability:
/// snapshots must carry the sampler's model cursor, and recovery must
/// resume the model warm.
fn tpe_meta(name: &str, seed: u64, delayed: bool) -> ExperimentMeta {
    let spec = BenchSpec {
        preset: "svm_vehicle".to_owned(),
        seed: 11,
    };
    let bench = spec.build().unwrap();
    let space = bench.space().clone();
    let config = AshaConfig::new(1.0, 27.0, 3.0);
    let initial = if delayed {
        let sampler = Sampler::Tpe.build(&space);
        SchedulerState::Asha(
            Asha::with_sampler(space.clone(), config.delayed(), sampler).export_state(),
        )
    } else {
        SchedulerState::Asha(bohb_asha(space.clone(), config).export_state())
    };
    ExperimentMeta {
        name: name.to_owned(),
        space,
        initial,
        sampler: Some(Sampler::Tpe),
        seed,
        sim: SimConfig::new(6, 50.0)
            .with_stragglers(0.4)
            .with_drops(0.02),
        bench: spec,
    }
}

fn opts(snapshot_jobs: usize) -> RunOptions {
    RunOptions {
        sync: Durability::EveryN(16),
        snapshot_jobs,
        delta_chain: 8,
    }
}

fn assert_results_identical(a: &SimResult, b: &SimResult) {
    assert_eq!(a.jobs_completed, b.jobs_completed);
    assert_eq!(a.distinct_trials, b.distinct_trials);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.scheduler_finished, b.scheduler_finished);
    assert_eq!(a.end_time.to_bits(), b.end_time.to_bits());
    assert_eq!(
        a.trace, b.trace,
        "completion traces must match event-for-event"
    );
    match (&a.best_config, &b.best_config) {
        (Some((ca, la, ra)), Some((cb, lb, rb))) => {
            assert_eq!(ca, cb);
            assert_eq!(
                la.to_bits(),
                lb.to_bits(),
                "incumbent loss must be bitwise equal"
            );
            assert_eq!(ra.to_bits(), rb.to_bits());
        }
        (None, None) => {}
        other => panic!("incumbent mismatch: {other:?}"),
    }
}

fn uninterrupted_result(meta: &ExperimentMeta, dir: &Path, o: RunOptions) -> SimResult {
    let bench = meta.bench.build().unwrap();
    DurableRun::create(dir, meta, &bench, o)
        .unwrap()
        .run_to_completion()
        .unwrap()
}

#[test]
fn recovery_after_hard_kill_matches_uninterrupted_run() {
    // With delta chains (the default) and with full snapshots only.
    let full_only = RunOptions {
        delta_chain: 0,
        ..opts(30)
    };
    for (tag, o) in [("delta", opts(30)), ("full", full_only)] {
        recovery_after_hard_kill(tag, o);
    }
}

fn recovery_after_hard_kill(tag: &str, o: RunOptions) {
    let root = tmpdir(&format!("kill-{tag}"));
    let meta = chaos_meta("kill", 42);
    let reference = uninterrupted_result(&meta, &root.join("ref"), o);

    // Kill at several points: before the first snapshot-after-0, right
    // around cadence boundaries, and deep into the run.
    for &kill_after in &[1usize, 17, 30, 31, 95, 200] {
        let dir = root.join(format!("kill-{kill_after}"));
        let bench = meta.bench.build().unwrap();
        let mut run = DurableRun::create(&dir, &meta, &bench, o).unwrap();
        let alive = run.run_until_jobs(kill_after).unwrap();
        if alive {
            // Die without destructors: buffered WAL lines are lost, exactly
            // as in a SIGKILL. (The leaked file handle closes at process
            // exit without flushing the BufWriter.)
            std::mem::forget(run);
        } else {
            drop(run);
        }

        let recovered_meta = read_meta(&dir).unwrap();
        let bench2 = recovered_meta.bench.build().unwrap();
        let resumed = DurableRun::resume(&dir, &recovered_meta, &bench2, o).unwrap();
        let result = resumed.run_to_completion().unwrap();
        assert_results_identical(&reference, &result);
    }
    std::fs::remove_dir_all(&root).ok();
}

/// The sampling plane's crash-recovery guarantee: a killed-and-recovered
/// run with a model-based sampler finishes bitwise identical to an
/// uninterrupted one — which can only happen if the snapshot carried the
/// sampler's observation buffer and resume restored it exactly (a sampler
/// silently reset to cold would propose different configurations within a
/// few suggests of the model threshold).
#[test]
fn recovery_with_model_sampler_matches_uninterrupted_run() {
    for (tag, delayed) in [("asha-tpe", false), ("dasha-tpe", true)] {
        let root = tmpdir(tag);
        let o = opts(30);
        let meta = tpe_meta(tag, 42, delayed);
        let ref_dir = root.join("ref");
        let reference = uninterrupted_result(&meta, &ref_dir, o);

        // Kill points straddle the sampler's model threshold (d + 3
        // observations) and the snapshot cadence.
        for &kill_after in &[1usize, 17, 31, 95, 200] {
            let dir = root.join(format!("kill-{kill_after}"));
            let bench = meta.bench.build().unwrap();
            let mut run = DurableRun::create(&dir, &meta, &bench, o).unwrap();
            let alive = run.run_until_jobs(kill_after).unwrap();
            if alive {
                std::mem::forget(run);
            } else {
                drop(run);
            }

            let recovered_meta = read_meta(&dir).unwrap();
            assert_eq!(
                recovered_meta.sampler,
                Some(Sampler::Tpe),
                "sampler kind must survive the meta roundtrip"
            );
            let bench2 = recovered_meta.bench.build().unwrap();
            let resumed = DurableRun::resume(&dir, &recovered_meta, &bench2, o).unwrap();
            let result = resumed.run_to_completion().unwrap();
            assert_results_identical(&reference, &result);

            // Telemetry byte-identity, not just result equality: the
            // recovered run regenerated the exact events the crash lost.
            let tele = |d: &Path| -> Vec<_> {
                read_wal(&d.join(WAL_FILE))
                    .unwrap()
                    .telemetry()
                    .copied()
                    .collect()
            };
            assert_eq!(tele(&ref_dir), tele(&dir));
        }
        std::fs::remove_dir_all(&root).ok();
    }
}

/// Every checkpoint file (`snap-*` / `delta-*`) in `dir`, by name.
fn checkpoint_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter_map(|path| {
            let name = path.file_name()?.to_str()?.to_owned();
            let checkpoint = name.starts_with("snap-") || name.starts_with("delta-");
            checkpoint.then(|| (name, std::fs::read(&path).unwrap()))
        })
        .collect()
}

/// The WAL's checkpoint markers in order, each beside the jobs completed
/// (`job_end` events) before it.
fn markers(dir: &Path) -> Vec<(WalRecord, usize)> {
    let mut jobs = 0;
    let mut found = Vec::new();
    for record in read_wal(&dir.join(WAL_FILE)).unwrap().records {
        if let WalRecord::SnapshotMarker { .. } = record {
            found.push((record, jobs));
        } else if matches!(record.event(), Some(e) if matches!(e.kind, EventKind::JobEnd { .. })) {
            jobs += 1;
        }
    }
    found
}

/// A resumed run takes exactly the checkpoints the uninterrupted run takes:
/// the same markers at the same points, and the same checkpoint files byte
/// for byte — under the amortised default, whose trigger counts WAL bytes
/// (which the `resumed` record must not add to), and under an explicit job
/// cadence. Kills land one job before, at and one job after every
/// checkpoint the reference run took on its cadence. At seed 1 one
/// amortised checkpoint falls due within a `resumed` record's bytes of the
/// end of its step, so a writer that counted that record would move it.
#[test]
fn a_resumed_run_takes_the_uninterrupted_runs_checkpoints() {
    let every_25 = RunOptions {
        snapshot_jobs: 25,
        ..RunOptions::default()
    };
    for (tag, o, seed) in [
        ("amortised-1", RunOptions::default(), 1),
        ("amortised-42", RunOptions::default(), 42),
        ("every-25", every_25, 42),
    ] {
        let meta = chaos_meta("cadence", seed);
        let bench = meta.bench.build().unwrap();
        let root = tmpdir(&format!("cadence-{tag}"));
        let ref_dir = root.join("ref");
        let reference = uninterrupted_result(&meta, &ref_dir, o);
        let ref_markers = markers(&ref_dir);
        let ref_files = checkpoint_files(&ref_dir);
        // Snapshot 0 at create and the final one at the end are not on the
        // cadence.
        let cadence = &ref_markers[1..ref_markers.len() - 1];
        assert!(
            cadence.len() >= 3,
            "{tag}: only {} checkpoints",
            cadence.len()
        );
        let mut kills: Vec<usize> = cadence
            .iter()
            .flat_map(|&(_, jobs)| [jobs.saturating_sub(1), jobs, jobs + 1])
            .filter(|&jobs| (1..reference.jobs_completed).contains(&jobs))
            .collect();
        kills.dedup();
        for kill_after in kills {
            let dir = root.join(format!("kill-{kill_after}"));
            let mut run = DurableRun::create(&dir, &meta, &bench, o).unwrap();
            assert!(run.run_until_jobs(kill_after).unwrap());
            std::mem::forget(run);
            let result = DurableRun::resume(&dir, &meta, &bench, o)
                .unwrap()
                .run_to_completion()
                .unwrap();
            assert_results_identical(&reference, &result);
            let what = format!("{tag}, killed after {kill_after} jobs");
            assert!(markers(&dir) == ref_markers, "{what}: markers differ");
            let files = checkpoint_files(&dir);
            assert_eq!(
                files.keys().collect::<Vec<_>>(),
                ref_files.keys().collect::<Vec<_>>(),
                "{what}"
            );
            for (name, bytes) in &ref_files {
                assert!(files[name] == *bytes, "{what}: {name} differs");
            }
        }
        std::fs::remove_dir_all(&root).ok();
    }
}

/// The amortisation bound of the default cadence on a 500-worker run of
/// 20 000 jobs: the telemetry bytes written between two checkpoints reach
/// the first one's payload, so every checkpoint but the newest is paid for
/// by the WAL and their payloads sum to at most the telemetry bytes; the
/// WAL past the newest checkpoint (what a recovery replays) is shorter than
/// its payload; and since a payload holds the whole history, checkpoints
/// thin out geometrically — a handful where a 200-job cadence writes 100.
#[test]
fn amortised_checkpoints_are_paid_for_by_the_wal() {
    const JOBS: usize = 20_000;
    let spec = BenchSpec {
        preset: "cifar10_cuda_convnet".to_owned(),
        seed: 5,
    };
    let bench = spec.build().unwrap();
    let space = bench.space().clone();
    let asha = Asha::new(space.clone(), AshaConfig::new(1.0, 256.0, 4.0));
    let meta = ExperimentMeta {
        name: "amortised".to_owned(),
        space,
        initial: SchedulerState::Asha(asha.export_state()),
        sampler: None,
        seed: 5,
        sim: SimConfig::new(500, 1e12).with_max_jobs(JOBS + 1_000),
        bench: spec,
    };
    let root = tmpdir("amortised");
    let dir = root.join("run");
    let mut run = DurableRun::create(&dir, &meta, &bench, RunOptions::default()).unwrap();
    assert!(run.run_until_jobs(JOBS).unwrap());
    drop(run);

    // Each checkpoint's payload: a full snapshot's as stored, a delta's
    // patched onto the payload before it.
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    for file in upgrade::checkpoints(&dir).unwrap() {
        let stored = file.payload().unwrap();
        if file.delta == 0 {
            payloads.push(stored);
            continue;
        }
        let delta = DeltaDoc::from_json(&decode_value(&stored).unwrap()).unwrap();
        let (mut patch, mut patched) = (Vec::new(), Vec::new());
        put_value(&mut patch, &delta.patch);
        apply_bytes(payloads.last().unwrap(), &patch, &mut patched).unwrap();
        payloads.push(patched);
    }
    let payload_len: Vec<u64> = payloads.iter().map(|p| p.len() as u64).collect();

    // The telemetry bytes (as framed on disk) after each checkpoint's
    // marker, up to the next one.
    let mut buf = EncodeBuf::default();
    let mut spans: Vec<u64> = Vec::new();
    for record in read_wal(&dir.join(WAL_FILE)).unwrap().records {
        if let WalRecord::SnapshotMarker { .. } = record {
            spans.push(0);
        } else if record.event().is_some() {
            encode_record(&record, &mut buf);
            let span = spans.last_mut().expect("snapshot 0 precedes all telemetry");
            *span += buf.bytes.len() as u64;
        }
    }
    let at_jobs: Vec<usize> = markers(&dir).into_iter().map(|(_, jobs)| jobs).collect();
    assert_eq!(
        spans.len(),
        payload_len.len(),
        "one marker per checkpoint file"
    );
    let newest = payload_len.len() - 1;
    for i in 0..newest {
        assert!(
            spans[i] >= payload_len[i],
            "checkpoint {i} ({} B) was followed by only {} B of WAL",
            payload_len[i],
            spans[i]
        );
    }
    let telemetry: u64 = spans.iter().sum();
    let encoded: u64 = payload_len.iter().sum();
    assert!(encoded <= telemetry + payload_len[newest]);
    assert!(
        spans[newest] < payload_len[newest],
        "replay outgrew the checkpoint"
    );

    // Logarithmic in J: every checkpoint on the cadence at least doubles
    // the jobs of the one before, so there are at most log2(J) + 2.
    for w in at_jobs[1..].windows(2) {
        assert!(w[1] >= 2 * w[0], "checkpoints at {at_jobs:?} jobs");
    }
    assert!(
        payload_len.len() <= JOBS.ilog2() as usize + 2,
        "{} checkpoints in {JOBS} jobs (at {at_jobs:?})",
        payload_len.len()
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn recovery_tolerates_torn_wal_tail() {
    let root = tmpdir("torn");
    let o = opts(25);
    let meta = chaos_meta("torn", 7);
    let reference = uninterrupted_result(&meta, &root.join("ref"), o);

    let dir = root.join("torn");
    let bench = meta.bench.build().unwrap();
    let mut run = DurableRun::create(&dir, &meta, &bench, o).unwrap();
    run.run_until_jobs(60).unwrap();
    std::mem::forget(run);

    // Simulate a crash mid-append: a partial final line on top of whatever
    // the kill already left.
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join(WAL_FILE))
        .unwrap();
    f.write_all(b"{\"seq\":999999,\"t\":3.2,\"ev\":\"job_en")
        .unwrap();
    drop(f);

    let resumed = DurableRun::resume(&dir, &meta, &bench, o).unwrap();
    let result = resumed.run_to_completion().unwrap();
    assert_results_identical(&reference, &result);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn double_crash_during_recovery_still_recovers() {
    let root = tmpdir("double");
    let o = opts(20);
    let meta = chaos_meta("double", 13);
    let reference = uninterrupted_result(&meta, &root.join("ref"), o);

    let dir = root.join("exp");
    let bench = meta.bench.build().unwrap();
    let mut run = DurableRun::create(&dir, &meta, &bench, o).unwrap();
    run.run_until_jobs(50).unwrap();
    std::mem::forget(run);

    // First recovery crashes again almost immediately.
    let mut resumed = DurableRun::resume(&dir, &meta, &bench, o).unwrap();
    resumed
        .run_until_jobs(resumed.jobs_completed() + 5)
        .unwrap();
    std::mem::forget(resumed);

    // Second recovery runs to the end.
    let resumed = DurableRun::resume(&dir, &meta, &bench, o).unwrap();
    let result = resumed.run_to_completion().unwrap();
    assert_results_identical(&reference, &result);
    std::fs::remove_dir_all(&root).ok();
}

/// Scheduler-level WAL replay (the executor's recovery path): restore a
/// scheduler from an earlier state, replay the WAL suffix into it, and its
/// next decisions must match a scheduler that never stopped.
#[test]
fn wal_suffix_replay_reconstructs_scheduler_decisions() {
    let spec = BenchSpec {
        preset: "svm_vehicle".to_owned(),
        seed: 11,
    };
    let bench = spec.build().unwrap();
    let space = bench.space().clone();
    let mut live = StoredScheduler::new(Asha::new(space.clone(), AshaConfig::new(1.0, 27.0, 3.0)));
    let mut rng = StdRng::seed_from_u64(99);
    let mut pending: VecDeque<asha_core::Job> = VecDeque::new();
    let mut records = Vec::new();
    let mut seq = 0u64;
    let mut snapshot: Option<(SchedulerState, [u64; 4], u64)> = None;

    use asha_core::telemetry::{Event, EventKind};
    use asha_store::WalRecord;
    for step in 0..300 {
        if step == 120 {
            snapshot = Some((live.export_state(), rng.state(), seq));
        }
        if step % 3 == 2 {
            if let Some(job) = pending.pop_front() {
                let loss = (job.trial.0 as f64 * 0.29).cos();
                live.observe(Observation::for_job(&job, loss));
                records.push(WalRecord::telemetry(Event {
                    seq,
                    time: step as f64,
                    kind: EventKind::JobEnd {
                        trial: job.trial.0,
                        rung: job.rung,
                        resource: job.resource,
                        loss,
                    },
                }));
                seq += 1;
            }
        }
        let d = live.suggest(&mut rng);
        records.push(WalRecord::telemetry(Event {
            seq,
            time: step as f64,
            kind: EventKind::of_decision(&d),
        }));
        seq += 1;
        if let Decision::Run(job) = d {
            pending.push_back(job);
        }
    }

    let (state, rng_words, skip) = snapshot.expect("snapshot point reached");
    let mut restored = StoredScheduler::from_state(space, state, Sampler::Random);
    let mut replay_rng = StdRng::from_state(rng_words);
    let replayed = replay_scheduler(&mut restored, &mut replay_rng, &records, skip).unwrap();
    assert!(replayed > 0, "suffix must contain events to replay");

    // Both schedulers (and RNGs) must now agree on the future.
    let words = rng.state();
    let mut rng_a = StdRng::from_state(words);
    let mut rng_b = StdRng::from_state(words);
    let mut pending_b = pending.clone();
    for step in 0..80 {
        if step % 3 == 2 {
            if let (Some(ja), Some(jb)) = (pending.pop_front(), pending_b.pop_front()) {
                assert_eq!(ja, jb);
                let loss = (ja.trial.0 as f64 * 0.29).cos();
                live.observe(Observation::for_job(&ja, loss));
                restored.observe(Observation::for_job(&jb, loss));
            }
        }
        let da = live.suggest(&mut rng_a);
        let db = restored.suggest(&mut rng_b);
        assert_eq!(da, db, "post-replay decisions diverged at step {step}");
        if let Decision::Run(job) = da {
            pending.push_back(job.clone());
            pending_b.push_back(job);
        }
    }
}

#[test]
fn replay_detects_log_state_mismatch() {
    let spec = BenchSpec {
        preset: "svm_vehicle".to_owned(),
        seed: 11,
    };
    let bench = spec.build().unwrap();
    let space = bench.space().clone();
    let mut scheduler =
        StoredScheduler::new(Asha::new(space.clone(), AshaConfig::new(1.0, 27.0, 3.0)));
    let mut rng = StdRng::seed_from_u64(5);
    let d = scheduler.suggest(&mut rng);
    let trial = match &d {
        Decision::Run(job) => job.trial.0,
        other => panic!("fresh ASHA must issue work, got {other:?}"),
    };

    // A log claiming a different trial was grown must be rejected.
    use asha_core::telemetry::{Event, EventKind};
    use asha_store::WalRecord;
    let bogus = vec![WalRecord::telemetry(Event {
        seq: 0,
        time: 0.0,
        kind: EventKind::GrowBottom {
            trial: trial + 1000,
            bracket: 0,
            resource: 1.0,
        },
    })];
    let mut fresh = StoredScheduler::new(Asha::new(space, AshaConfig::new(1.0, 27.0, 3.0)));
    let mut rng2 = StdRng::seed_from_u64(5);
    let err = replay_scheduler(&mut fresh, &mut rng2, &bogus, 0).unwrap_err();
    assert!(err.to_string().contains("mismatch"), "got: {err}");
}

#[test]
fn supervisor_runs_concurrent_experiments_with_independent_pause() {
    let root = tmpdir("supervisor");
    let o = opts(40);
    let meta_a = chaos_meta("exp-a", 1);
    let meta_b = chaos_meta("exp-b", 2);
    let ref_a = uninterrupted_result(&meta_a, &root.join("ref-a"), o);
    let ref_b = uninterrupted_result(&meta_b, &root.join("ref-b"), o);

    let sup_root = root.join("sup");
    let mut sup = ExperimentSupervisor::open(&sup_root).unwrap();
    sup.create(&meta_a, o).unwrap();
    sup.create(&meta_b, o).unwrap();
    assert_eq!(sup.status("exp-a"), Some(ExperimentStatus::Created));

    sup.start("exp-a", o).unwrap();
    sup.start("exp-b", o).unwrap();
    assert_eq!(sup.active(), vec!["exp-a".to_owned(), "exp-b".to_owned()]);

    // Pause A; B keeps running to completion regardless.
    sup.pause("exp-a").unwrap();
    assert_eq!(sup.status("exp-a"), Some(ExperimentStatus::Paused));
    let result_b = sup.join("exp-b").unwrap().expect("B ran to completion");
    assert_results_identical(&ref_b, &result_b);
    assert_eq!(sup.status("exp-b"), Some(ExperimentStatus::Finished));

    // Resume A in place and let it finish: the pause must not change its
    // trajectory.
    sup.resume("exp-a").unwrap();
    let result_a = sup.join("exp-a").unwrap().expect("A ran to completion");
    assert_results_identical(&ref_a, &result_a);
    assert_eq!(sup.status("exp-a"), Some(ExperimentStatus::Finished));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn supervisor_abort_leaves_resumable_store_and_manifest_survives_reopen() {
    let root = tmpdir("abort");
    let o = opts(25);
    let meta = chaos_meta("exp", 3);
    let reference = uninterrupted_result(&meta, &root.join("ref"), o);

    let sup_root = root.join("sup");
    {
        let mut sup = ExperimentSupervisor::open(&sup_root).unwrap();
        sup.create(&meta, o).unwrap();
        sup.start("exp", o).unwrap();
        sup.abort("exp").unwrap();
        assert_eq!(sup.status("exp"), Some(ExperimentStatus::Aborted));
    }

    // A new supervisor (fresh process, conceptually) sees the manifest and
    // can restart the aborted experiment; the result is unchanged.
    let mut sup = ExperimentSupervisor::open(&sup_root).unwrap();
    assert_eq!(sup.status("exp"), Some(ExperimentStatus::Aborted));
    sup.start("exp", o).unwrap();
    let result = sup.join("exp").unwrap().expect("ran to completion");
    assert_results_identical(&reference, &result);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn wal_of_recovered_run_equals_uninterrupted_telemetry() {
    let root = tmpdir("wal-eq");
    let o = opts(20);
    let meta = chaos_meta("wal", 21);
    let ref_dir = root.join("ref");
    uninterrupted_result(&meta, &ref_dir, o);

    let dir = root.join("crashed");
    let bench = meta.bench.build().unwrap();
    let mut run = DurableRun::create(&dir, &meta, &bench, o).unwrap();
    run.run_until_jobs(45).unwrap();
    std::mem::forget(run);
    DurableRun::resume(&dir, &meta, &bench, o)
        .unwrap()
        .run_to_completion()
        .unwrap();

    // The telemetry stream (store markers aside) must be identical — the
    // recovered run regenerated exactly the events the crash destroyed.
    let tele = |d: &Path| -> Vec<_> {
        read_wal(&d.join(WAL_FILE))
            .unwrap()
            .telemetry()
            .copied()
            .collect()
    };
    assert_eq!(tele(&ref_dir), tele(&dir));
    std::fs::remove_dir_all(&root).ok();
}

/// A checkpoint can be well-formed, CRC-valid and still not of this
/// experiment: the config decoder accepts any tagged values. A stored
/// config that does not fit the experiment's space must be refused at
/// resume with a typed error — not handed to the benchmark model, which
/// panics on a foreign config at that job's completion.
#[test]
fn resume_refuses_a_snapshot_whose_configs_do_not_fit_the_space() {
    let root = tmpdir("hostile-config");
    let o = RunOptions {
        delta_chain: 0,
        ..opts(20)
    };
    let meta = chaos_meta("hostile", 42);
    let bench = meta.bench.build().unwrap();
    let dir = root.join("run");
    let mut run = DurableRun::create(&dir, &meta, &bench, o).unwrap();
    assert!(run.run_until_jobs(45).unwrap());
    drop(run);

    let (good, path) = load_latest(&dir).unwrap().expect("checkpoints were taken");
    let file_name = path.file_name().unwrap().to_str().unwrap().to_owned();
    let write = |snap: &Snapshot| {
        let mut payload = Vec::new();
        snap.encode(&mut payload);
        write_document(&dir, &file_name, &payload).unwrap();
    };
    // One value short of the space's arity, and a value of the wrong kind.
    let short = |c: &Config| Config::new(c.values()[1..].to_vec());
    let wrong_kind = |c: &Config| {
        let mut c = c.clone();
        c.values_mut()[0] = ParamValue::Index(0);
        c
    };
    fn sim(s: &mut Snapshot) -> &mut asha_sim::SimRunState {
        s.sim.as_mut().expect("simulated run")
    }
    type Tamper<'a> = Box<dyn Fn(&mut Snapshot) + 'a>;
    let hostile: Vec<(&str, Tamper)> = vec![
        (
            "pending job",
            Box::new(|s| {
                let job = &mut sim(s).pending[0].job;
                job.config = short(&job.config);
            }),
        ),
        (
            "retry entry",
            Box::new(|s| {
                let mut job = sim(s).pending[0].job.clone();
                job.config = short(&job.config);
                sim(s).retry.push(job);
            }),
        ),
        (
            "scheduler trial",
            Box::new(|s| match &mut s.scheduler {
                SchedulerState::Asha(a) => a.trials[0].1 = short(&a.trials[0].1),
                other => panic!("chaos_meta runs ASHA, got {}", other.kind()),
            }),
        ),
        (
            "incumbent",
            Box::new(|s| {
                let best = sim(s).best_config.as_mut().expect("jobs completed");
                best.0 = wrong_kind(&best.0);
            }),
        ),
    ];
    for (what, tamper) in &hostile {
        let mut snap = good.clone();
        tamper(&mut snap);
        write(&snap);
        let err = DurableRun::resume(&dir, &meta, &bench, o)
            .err()
            .unwrap_or_else(|| panic!("resume accepted a hostile {what}"));
        assert_eq!(err.kind(), ErrorKind::Corrupt, "{what}: {err}");
        assert_eq!(err.path(), Some(path.as_path()), "{what}: {err}");
    }
    // A refused resume leaves the store as it was: with the original
    // checkpoint back in place the run recovers and finishes.
    write(&good);
    let result = DurableRun::resume(&dir, &meta, &bench, o)
        .unwrap()
        .run_to_completion()
        .unwrap();
    let reference = uninterrupted_result(&meta, &root.join("ref"), o);
    assert_results_identical(&reference, &result);
    std::fs::remove_dir_all(&root).ok();
}

/// A CRC-valid checkpoint whose scheduler state no scheduler can hold — a
/// rung record of a trial that was never sampled, a gap in the trial table,
/// simulator slots out of order — must be refused at resume as `Corrupt`,
/// naming the checkpoint, not restored into a scheduler that panics at its
/// first `suggest`.
#[test]
fn resume_refuses_a_snapshot_the_scheduler_cannot_hold() {
    let root = tmpdir("unholdable");
    let o = RunOptions {
        delta_chain: 0,
        ..opts(20)
    };
    let meta = chaos_meta("unholdable", 42);
    let bench = meta.bench.build().unwrap();
    let dir = root.join("run");
    let mut run = DurableRun::create(&dir, &meta, &bench, o).unwrap();
    assert!(run.run_until_jobs(45).unwrap());
    drop(run);

    let (good, path) = load_latest(&dir).unwrap().expect("checkpoints were taken");
    let file_name = path.file_name().unwrap().to_str().unwrap().to_owned();
    type Tamper = fn(&mut Snapshot);
    let hostile: [(&str, Tamper); 4] = [
        ("orphan record", |s| {
            let SchedulerState::Asha(a) = &mut s.scheduler else {
                unreachable!("chaos_meta runs ASHA")
            };
            a.rungs[0].records.push((a.next_trial + 100, 0.5));
        }),
        ("trial table gap", |s| {
            let SchedulerState::Asha(a) = &mut s.scheduler else {
                unreachable!("chaos_meta runs ASHA")
            };
            a.trials.remove(1);
            a.next_trial -= 1;
        }),
        ("outstanding past the ladder", |s| {
            let SchedulerState::Asha(a) = &mut s.scheduler else {
                unreachable!("chaos_meta runs ASHA")
            };
            a.outstanding.push((0, 7));
        }),
        ("slots out of order", |s| {
            s.sim.as_mut().expect("simulated run").slots.swap(0, 1);
        }),
    ];
    for (what, tamper) in hostile {
        let mut snap = good.clone();
        tamper(&mut snap);
        let mut payload = Vec::new();
        snap.encode(&mut payload);
        write_document(&dir, &file_name, &payload).unwrap();
        let err = DurableRun::resume(&dir, &meta, &bench, o)
            .err()
            .unwrap_or_else(|| panic!("resume accepted a snapshot: {what}"));
        assert_eq!(err.kind(), ErrorKind::Corrupt, "{what}: {err}");
        assert_eq!(err.path(), Some(path.as_path()), "{what}: {err}");
    }
    std::fs::remove_dir_all(&root).ok();
}

/// The same state as a run's initial one is refused by `DurableRun::create`
/// as a `config` error before the directory exists.
#[test]
fn create_refuses_an_initial_state_the_scheduler_cannot_hold() {
    let root = tmpdir("unholdable-initial");
    let mut meta = chaos_meta("unholdable-initial", 42);
    let SchedulerState::Asha(initial) = &mut meta.initial else {
        unreachable!("chaos_meta runs ASHA")
    };
    initial.rungs[0].records = (100..108).map(|t| (t, 0.5)).collect();
    let bench = meta.bench.build().unwrap();
    let dir = root.join("run");
    let err = DurableRun::create(&dir, &meta, &bench, opts(20))
        .err()
        .expect("create accepted an orphan rung record");
    assert_eq!(err.kind(), ErrorKind::Config, "{err}");
    assert!(!dir.exists(), "a refused create left {dir:?} behind");
    std::fs::remove_dir_all(&root).ok();
}
