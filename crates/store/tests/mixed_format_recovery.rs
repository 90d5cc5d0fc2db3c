//! Mixed-format recovery: the codec redesign's compatibility guarantees.
//!
//! `jsonl-v1` is an input only, read by `asha_store::upgrade`: the
//! committed pre-redesign fixture must be converted to `binary-v2` in place
//! — by a resume, by a supervisor opening it, from any crash point of the
//! conversion itself — and then resume to the uninterrupted result, with
//! binary delta chains patched on top of its converted v1 full snapshot.
//! Alongside the integration tests, property tests pin the binary codec's
//! record roundtrip and the delta diff/patch algebra, and byte-surgery
//! tests distinguish a torn tail (truncate and continue) from mid-file
//! corruption (hard error).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use asha_baselines::Sampler;
use asha_core::telemetry::{DropCause, Event, EventKind, IdleKind};
use asha_core::{Asha, AshaConfig};
use asha_metrics::JsonValue;
use asha_sim::{SimConfig, SimResult};
use asha_store::binary::{decode_value, json_eq, put_value};
use asha_store::delta::{apply_bytes, diff_bytes};
use asha_store::format::{decode_step, encode_document, encode_record, WAL_MAGIC};
use asha_store::{
    delta_file_name, read_meta, read_wal, upgrade, BenchSpec, DecodeStep, DeltaDoc, Durability,
    DurableRun, EncodeBuf, ErrorKind, ExperimentMeta, ExperimentStatus, ExperimentSupervisor,
    RunOptions, SchedulerState, SnapMarker, Snapshot, StoreEvent, WalRecord, WalTail,
    MANIFEST_FILE, MANIFEST_SCHEMA, SNAPSHOT_SCHEMA, WAL_FILE,
};
use asha_surrogate::BenchmarkModel;
use proptest::prelude::*;

mod keyed;

/// `diff_bytes` or `apply_bytes`.
type DeltaOp = fn(&[u8], &[u8], &mut Vec<u8>) -> Result<(), String>;

/// Run one of the byte-level delta operations on two trees: encode both,
/// apply `op`, decode what it wrote.
fn on_bytes(op: DeltaOp, a: &JsonValue, b: &JsonValue) -> Result<JsonValue, String> {
    let (mut a_bytes, mut b_bytes, mut out) = (Vec::new(), Vec::new(), Vec::new());
    put_value(&mut a_bytes, a);
    put_value(&mut b_bytes, b);
    op(&a_bytes, &b_bytes, &mut out)?;
    decode_value(&out)
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asha-store-mixed-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small chaos experiment (stragglers + drops) over a real surrogate —
/// the same shape the crash-recovery suite uses.
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

fn bin_opts(snapshot_jobs: usize) -> RunOptions {
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
    assert_eq!(a.trace, b.trace, "completion traces must match");
    match (&a.best_config, &b.best_config) {
        (Some((ca, la, ra)), Some((cb, lb, rb))) => {
            assert_eq!(ca, cb);
            assert_eq!(la.to_bits(), lb.to_bits());
            assert_eq!(ra.to_bits(), rb.to_bits());
        }
        (None, None) => {}
        other => panic!("incumbent mismatch: {other:?}"),
    }
}

fn uninterrupted(meta: &ExperimentMeta, dir: &Path, o: RunOptions) -> SimResult {
    let bench = meta.bench.build().unwrap();
    DurableRun::create(dir, meta, &bench, o)
        .unwrap()
        .run_to_completion()
        .unwrap()
}

/// Every file in `dir` with the given extension.
fn files_with_ext(dir: &Path, ext: &str) -> Vec<PathBuf> {
    let mut found: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    found.sort();
    found
}

// ---------------------------------------------------------------------------
// Cross-dialect stores
// ---------------------------------------------------------------------------

/// A committed fixture store.
fn fixture_dir(fixture: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(fixture)
}

/// A fresh temp copy of a committed fixture store: `(root, experiment dir)`.
fn fixture_copy(fixture: &str, tag: &str) -> (PathBuf, PathBuf) {
    let fixture_dir = fixture_dir(fixture);
    let root = tmpdir(tag);
    let dir = root.join("exp");
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(&fixture_dir).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    (root, dir)
}

/// Every file in `dir` with its bytes, by name.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect()
}

fn telemetry(dir: &Path) -> Vec<Event> {
    read_wal(&dir.join(WAL_FILE))
        .unwrap()
        .telemetry()
        .copied()
        .collect()
}

/// Resuming the `jsonl-v1` fixture rewrites its WAL as `binary-v2` — the v1
/// records up to the checkpoint marker, then `resumed` — converts the v1
/// snapshots to `.bin` files holding the same documents, chains binary
/// deltas onto the converted base, survives a second crash mid-chain, and
/// finishes identical to an uninterrupted run.
#[test]
fn v1_fixture_resume_up_converts_the_wal_and_chains_deltas_on_the_v1_base() {
    let (root, dir) = fixture_copy("v1-demo-store", "v1-upconvert");
    let meta = read_meta(&dir).unwrap();
    let bench = meta.bench.build().unwrap();
    let reference = uninterrupted(&meta, &root.join("ref"), RunOptions::default());

    // The fixture's kill lost everything past its last marker; put a suffix
    // back — two complete lines and a torn one — as a later kill would.
    let wal_path = dir.join(WAL_FILE);
    let (committed, _) = upgrade::read_wal(&wal_path).unwrap();
    let marker_idx = committed.records.len() - 1;
    assert!(matches!(
        committed.records[marker_idx],
        WalRecord::SnapshotMarker { .. }
    ));
    {
        use std::io::Write;
        let mut wal = std::fs::OpenOptions::new()
            .append(true)
            .open(&wal_path)
            .unwrap();
        for record in &committed.records[3..5] {
            writeln!(wal, "{}", record.render_jsonl()).unwrap();
        }
        wal.write_all(b"{\"seq\":290,\"t\":1.02,\"ev\":\"job_e")
            .unwrap();
    }
    let (v1, dialect) = upgrade::read_wal(&wal_path).unwrap();
    assert_eq!(dialect, "jsonl-v1");
    assert!(v1.torn_tail);
    assert_eq!(v1.records.len(), marker_idx + 3);

    // A tight cadence so the reopened chain grows several deltas.
    let tight = bin_opts(10);
    let mut run = DurableRun::resume(&dir, &meta, &bench, tight).unwrap();
    run.flush().unwrap();
    assert!(std::fs::read(&wal_path).unwrap().starts_with(WAL_MAGIC));
    let converted = read_wal(&wal_path).unwrap();
    assert!(!converted.torn_tail);
    let (resumed, kept) = converted.records.split_last().unwrap();
    assert_eq!(kept, &v1.records[..=marker_idx]);
    assert!(matches!(
        resumed,
        WalRecord::Meta {
            event: StoreEvent::Resumed,
            ..
        }
    ));

    // Die again mid-chain: `.bin` deltas hang off the converted v1 base.
    run.run_until_jobs(run.jobs_completed() + 45).unwrap();
    std::mem::forget(run);
    let marker = read_wal(&wal_path)
        .unwrap()
        .last_snapshot_marker()
        .expect("store has checkpoint markers");
    assert!(marker.delta > 0, "the crash must land mid-delta-chain");
    // The chain's base full snapshot is the v1 file, converted: a `.bin`
    // holding the payload the `.json` decodes to.
    let base_payload = |dir: &Path, dialect: &str| {
        let checkpoints = upgrade::checkpoints(dir).unwrap().into_iter();
        let mut base = checkpoints.filter(|c| (c.snap, c.delta) == (marker.snap, 0));
        let base = base
            .find(|c| c.dialect == dialect)
            .expect("base snapshot exists");
        base.payload().unwrap()
    };
    assert_eq!(
        base_payload(&dir, "binary-v2"),
        base_payload(&fixture_dir("v1-demo-store"), "jsonl-v1")
    );
    assert_eq!(files_with_ext(&dir, "json"), [dir.join("meta.json")]);
    for k in 1..=marker.delta {
        assert!(
            dir.join(delta_file_name(marker.snap, k)).exists(),
            "delta {k} of the chain must be a binary file"
        );
    }

    let result = DurableRun::resume(&dir, &meta, &bench, tight)
        .unwrap()
        .run_to_completion()
        .unwrap();
    assert_results_identical(&reference, &result);
    assert_eq!(telemetry(&root.join("ref")), telemetry(&dir));
    std::fs::remove_dir_all(&root).ok();
}

/// A crash right after the up-converting rename — before `resumed` or
/// anything else reaches the new file — leaves a binary WAL ending at the
/// marker; resuming that finishes exactly like a single resume.
#[test]
fn double_resume_of_the_v1_fixture_equals_a_single_resume() {
    let (root_once, once) = fixture_copy("v1-demo-store", "v1-once");
    let (root_twice, twice) = fixture_copy("v1-demo-store", "v1-twice");
    let meta = read_meta(&once).unwrap();
    let bench = meta.bench.build().unwrap();
    let o = RunOptions::default();

    let single = DurableRun::resume(&once, &meta, &bench, o)
        .unwrap()
        .run_to_completion()
        .unwrap();

    // Dropped without destructors before any step: the buffered `resumed`
    // record never lands.
    std::mem::forget(DurableRun::resume(&twice, &meta, &bench, o).unwrap());
    let after_crash = read_wal(&twice.join(WAL_FILE)).unwrap();
    assert!(std::fs::read(twice.join(WAL_FILE))
        .unwrap()
        .starts_with(WAL_MAGIC));
    assert!(matches!(
        after_crash.records.last(),
        Some(WalRecord::SnapshotMarker { .. })
    ));
    let double = DurableRun::resume(&twice, &meta, &bench, o)
        .unwrap()
        .run_to_completion()
        .unwrap();

    assert_results_identical(&single, &double);
    assert_eq!(telemetry(&once), telemetry(&twice));
    std::fs::remove_dir_all(&root_once).ok();
    std::fs::remove_dir_all(&root_twice).ok();
}

/// A tail pointed at the v1 WAL refuses it — a v1 file is not a second
/// dialect to follow — and once the resume has upgraded the store it
/// delivers exactly what a fresh tail of the converted file delivers, with
/// no rewind: it had delivered nothing to take back.
#[test]
fn a_tail_on_the_v1_wal_refuses_it_until_the_upgrade() {
    let (root, dir) = fixture_copy("v1-demo-store", "v1-tail");
    let meta = read_meta(&dir).unwrap();
    let bench = meta.bench.build().unwrap();
    let wal_path = dir.join(WAL_FILE);

    let mut tail = WalTail::new(&wal_path);
    let err = tail.poll().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");

    DurableRun::resume(&dir, &meta, &bench, RunOptions::default())
        .unwrap()
        .run_to_completion()
        .unwrap();

    let after = tail.poll().unwrap();
    assert!(!after.rewound);
    let fresh = WalTail::new(&wal_path).poll().unwrap();
    assert_eq!(after.lines, fresh.lines);
    assert_eq!(tail.poll().unwrap(), Default::default(), "all delivered");
    std::fs::remove_dir_all(&root).ok();
}

/// A supervisor root listing the v1 fixture as an `interrupted`
/// experiment: opening it converts the store — binary WAL, no `.json`
/// checkpoint left — a fresh tail yields the v1 file's lines exactly, and
/// the supervisor's resume finishes equal to an uninterrupted run.
#[test]
fn supervisor_open_upgrades_an_interrupted_v1_experiment() {
    let (root, dir) = fixture_copy("v1-demo-store", "v1-supervisor");
    let meta = read_meta(&dir).unwrap();
    let reference_root = tmpdir("v1-supervisor-ref");
    let reference = uninterrupted(&meta, &reference_root, RunOptions::default());
    let wal_path = dir.join(WAL_FILE);
    let v1_text = String::from_utf8(std::fs::read(&wal_path).unwrap()).unwrap();
    let manifest = JsonValue::obj([
        ("schema", JsonValue::Str(MANIFEST_SCHEMA.to_owned())),
        (
            "experiments",
            JsonValue::Arr(vec![JsonValue::obj([
                ("name", JsonValue::Str("exp".to_owned())),
                ("status", JsonValue::Str("interrupted".to_owned())),
            ])]),
        ),
    ]);
    std::fs::write(root.join(MANIFEST_FILE), manifest.render()).unwrap();

    let mut sup = ExperimentSupervisor::open(&root).unwrap();
    assert_eq!(sup.status("exp"), Some(ExperimentStatus::Interrupted));
    assert!(std::fs::read(&wal_path).unwrap().starts_with(WAL_MAGIC));
    assert_eq!(files_with_ext(&dir, "json"), [dir.join("meta.json")]);
    let fresh = WalTail::new(&wal_path).poll().unwrap();
    assert_eq!(fresh.lines, v1_text.lines().collect::<Vec<_>>());

    sup.start("exp", RunOptions::default()).unwrap();
    let result = sup.join("exp").unwrap().expect("the run finishes");
    assert_results_identical(&reference, &result);
    assert_eq!(telemetry(&reference_root), telemetry(&dir));
    std::fs::remove_dir_all(&root).ok();
    std::fs::remove_dir_all(&reference_root).ok();
}

/// The conversion completes from any point a crash can stop it at: `k` of
/// the three `.bin` files written (with the next one's temp file cut
/// short), the WAL converted or not (or its temp file cut short), `j` of
/// the three `.json` files removed. Converting each such directory leaves
/// exactly the files one conversion of the pristine copy leaves, and a
/// resume of it finishes equal to an uninterrupted run.
#[test]
fn every_crash_point_of_the_upgrade_converts_to_the_same_store() {
    let (root, pristine) = fixture_copy("v1-demo-store", "crash-points");
    let (done_root, done) = fixture_copy("v1-demo-store", "crash-points-done");
    upgrade::store(&done).unwrap();
    let want = files(&done);
    let meta = read_meta(&done).unwrap();
    let bench = meta.bench.build().unwrap();
    let reference = uninterrupted(&meta, &done_root.join("ref"), RunOptions::default());
    // The fixture's snapshots are 0, 1 and 2.
    let json = |seq: u64| format!("snap-{seq:08}.json");
    let bin = |seq: u64| Snapshot::file_name(seq);

    // Each state: the `.bin` files written so far, an optional torn temp
    // file, whether the WAL is converted, the `.json` files removed.
    let mut states: Vec<(u64, Option<String>, bool, u64)> = Vec::new();
    for k in 0..=3 {
        states.push((k, None, false, 0));
        let torn = if k < 3 { bin(k) } else { WAL_FILE.to_owned() };
        states.push((k, Some(format!("{torn}.tmp")), false, 0));
    }
    states.extend((0..=3).map(|j| (3, None, true, j)));

    for (i, (k, torn, wal_done, j)) in states.into_iter().enumerate() {
        let dir = root.join(format!("state-{i}"));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, bytes) in files(&pristine) {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
        for seq in 0..k {
            std::fs::write(dir.join(bin(seq)), &want[&bin(seq)]).unwrap();
        }
        if let Some(tmp) = &torn {
            let of = &want[tmp.trim_end_matches(".tmp")];
            std::fs::write(dir.join(tmp), &of[..of.len() / 2]).unwrap();
        }
        if wal_done {
            std::fs::write(dir.join(WAL_FILE), &want[WAL_FILE]).unwrap();
        }
        for seq in 0..j {
            std::fs::remove_file(dir.join(json(seq))).unwrap();
        }

        upgrade::store(&dir).unwrap();
        let state =
            format!("{k} .bin written, torn {torn:?}, WAL converted {wal_done}, {j} .json removed");
        assert_eq!(files(&dir), want, "{state}");
        let result = DurableRun::resume(&dir, &meta, &bench, RunOptions::default())
            .unwrap()
            .run_to_completion()
            .unwrap();
        assert_results_identical(&reference, &result);
    }
    std::fs::remove_dir_all(&root).ok();
    std::fs::remove_dir_all(&done_root).ok();
}

/// A committed fixture store must open under today's defaults, report the
/// scheduler kind it was written with, resume to the same result as a
/// fresh run of its own metadata, and re-encode — metadata and every
/// checkpoint — to exactly the committed bytes. This is the
/// backward-compatibility contract in file form: if it fails, an on-disk
/// format change broke real stores (or made new ones unreadable by old
/// code).
fn fixture_opens_resumes_and_reencodes(fixture: &str, kind: &str) {
    let (root, dir) = fixture_copy(fixture, fixture);

    let meta = read_meta(&dir).expect("fixture metadata parses");
    assert_eq!(meta.initial.kind(), kind);
    assert_eq!(
        meta.to_json().render().into_bytes(),
        std::fs::read(dir.join("meta.json")).unwrap(),
        "meta.json must re-encode byte-identically"
    );
    // Every `.bin` and `.json` file but `meta.json` is a checkpoint, and
    // the v1 ones are read through the upgrade.
    let checkpoints = upgrade::checkpoints(&dir).unwrap();
    let files = files_with_ext(&dir, "bin").len() + files_with_ext(&dir, "json").len();
    assert_eq!(checkpoints.len(), files - 1);
    let mut full_snapshots = 0;
    for checkpoint in &checkpoints {
        let path = &checkpoint.path;
        let doc = decode_value(&checkpoint.payload().unwrap()).unwrap();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let reencoded = if name.starts_with("snap-") {
            let snap = Snapshot::from_json(&doc).unwrap();
            assert_eq!(snap.scheduler.kind(), kind, "{name}");
            full_snapshots += 1;
            // A schema-v1 document is re-encoded by the keyed writer that
            // produced it, which the library no longer has.
            if doc.get("schema").and_then(JsonValue::as_str) == Some(SNAPSHOT_SCHEMA) {
                snap.to_json()
            } else {
                keyed::snapshot_to_json(&snap)
            }
        } else {
            DeltaDoc::from_json(&doc).unwrap().to_json()
        };
        let mut bytes = Vec::new();
        if path.extension().unwrap() == "bin" {
            encode_document(&reencoded, &mut bytes);
        } else {
            // What the retired v1 writer produced: the compact rendering
            // and a newline.
            let mut text = String::new();
            reencoded.render_compact_into(&mut text);
            text.push('\n');
            bytes = text.into_bytes();
        }
        assert_eq!(
            bytes,
            std::fs::read(path).unwrap(),
            "{name} must re-encode byte-identically"
        );
    }
    assert!(full_snapshots > 0, "fixture must hold a full snapshot");

    let reference = uninterrupted(&meta, &root.join("ref"), RunOptions::default());
    let bench = meta.bench.build().unwrap();
    let resumed = DurableRun::resume(&dir, &meta, &bench, RunOptions::default()).unwrap();
    assert!(
        resumed.jobs_completed() > 0,
        "fixture must restore mid-run state, not restart from scratch"
    );
    let result = resumed.run_to_completion().unwrap();
    assert_results_identical(&reference, &result);
    std::fs::remove_dir_all(&root).ok();
}

/// The pre-redesign fixture: a `jsonl-v1` ASHA store generated before the
/// codec API existed and killed at 100 jobs.
#[test]
fn pre_redesign_fixture_opens_and_resumes() {
    fixture_opens_resumes_and_reencodes("v1-demo-store", "asha");
}

/// A `binary-v2` D-ASHA+TPE store killed at 100 jobs, one delta past its
/// full snapshot; its `meta.json` and WAL were written while D-ASHA was
/// still its own scheduler type, its checkpoints (schema v2) since: the
/// `"dasha"` kind tag, the rule-less config document and the TPE cursor
/// must all keep their meaning (the resume patches the delta — which holds
/// the scheduler state and the cursor — onto the base).
#[test]
fn dasha_tpe_fixture_opens_and_resumes() {
    fixture_opens_resumes_and_reencodes("dasha-tpe-store", "dasha");
}

/// The method comes from `meta.json` alone. The `dasha-tpe-store` fixture
/// with its experiment's sampler changed to GP-EI holds checkpoints of a
/// TPE model, which are not this experiment's: the resume is refused as
/// corrupt, naming the checkpoint, and leaves the store as it was — it
/// neither runs the checkpoint's TPE nor a cold GP.
#[test]
fn a_checkpoint_of_another_sampler_kind_is_refused_on_resume() {
    let (root, dir) = fixture_copy("dasha-tpe-store", "sampler-mismatch");
    let meta_path = dir.join("meta.json");
    let text = std::fs::read_to_string(&meta_path).unwrap();
    let gp = text.replace("\"sampler\": \"tpe\"", "\"sampler\": \"gp\"");
    assert_ne!(gp, text, "the fixture names its sampler");
    std::fs::write(&meta_path, gp).unwrap();
    let meta = read_meta(&dir).unwrap();
    assert_eq!(meta.sampler, Some(Sampler::Gp));

    let before = files(&dir);
    let bench = meta.bench.build().unwrap();
    let err = DurableRun::resume(&dir, &meta, &bench, RunOptions::default())
        .err()
        .expect("a GP experiment must not resume a TPE checkpoint");
    assert_eq!(err.kind(), ErrorKind::Corrupt, "{err}");
    let snapshot = dir.join(Snapshot::file_name(0));
    assert_eq!(err.path(), Some(snapshot.as_path()), "{err}");
    assert_eq!(files(&dir), before, "a refused resume changes nothing");
    std::fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------------
// Byte surgery on binary WALs
// ---------------------------------------------------------------------------

/// A partial binary frame at the tail (the bytes a crash left mid-append)
/// is discarded as torn, and the resumed run still finishes identical.
#[test]
fn torn_binary_tail_is_discarded_on_resume() {
    let root = tmpdir("torn-bin");
    let meta = chaos_meta("torn-bin", 7);
    let o = bin_opts(25);
    let reference = uninterrupted(&meta, &root.join("ref"), o);

    let dir = root.join("exp");
    let bench = meta.bench.build().unwrap();
    let mut run = DurableRun::create(&dir, &meta, &bench, o).unwrap();
    run.run_until_jobs(60).unwrap();
    std::mem::forget(run);

    // A frame promising 64 payload bytes but delivering only a few: exactly
    // what a power cut mid-`write` leaves behind.
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join(WAL_FILE))
        .unwrap();
    f.write_all(&[0x40, 0x05, 0x17, 0x2a]).unwrap();
    drop(f);

    let contents = read_wal(&dir.join(WAL_FILE)).unwrap();
    assert!(contents.torn_tail, "the partial frame reads as torn");

    let result = DurableRun::resume(&dir, &meta, &bench, o)
        .unwrap()
        .run_to_completion()
        .unwrap();
    assert_results_identical(&reference, &result);
    std::fs::remove_dir_all(&root).ok();
}

/// A CRC failure on the *final* frame is indistinguishable from a torn
/// append (the crash may have written only part of the record's bytes), so
/// the reader truncates it rather than failing the store.
#[test]
fn tail_crc_flip_truncates_like_a_torn_append() {
    let root = tmpdir("tail-crc");
    let meta = chaos_meta("tail-crc", 31);
    let o = bin_opts(25);
    let reference = uninterrupted(&meta, &root.join("ref"), o);

    let dir = root.join("exp");
    let bench = meta.bench.build().unwrap();
    let mut run = DurableRun::create(&dir, &meta, &bench, o).unwrap();
    run.run_until_jobs(50).unwrap();
    drop(run); // clean flush: the file ends exactly at a frame boundary

    let wal_path = dir.join(WAL_FILE);
    let intact = read_wal(&wal_path).unwrap();
    assert!(!intact.torn_tail);

    let mut bytes = std::fs::read(&wal_path).unwrap();
    *bytes.last_mut().unwrap() ^= 0xff; // the last CRC byte of the final frame
    std::fs::write(&wal_path, &bytes).unwrap();

    let damaged = read_wal(&wal_path).unwrap();
    assert!(damaged.torn_tail, "tail CRC mismatch reads as torn");
    assert_eq!(damaged.records.len(), intact.records.len() - 1);

    let result = DurableRun::resume(&dir, &meta, &bench, o)
        .unwrap()
        .run_to_completion()
        .unwrap();
    assert_results_identical(&reference, &result);
    std::fs::remove_dir_all(&root).ok();
}

/// A CRC failure *before* well-formed records is not a torn append — it is
/// data damage, and pretending otherwise would silently drop acknowledged
/// history. The reader must refuse the file.
#[test]
fn mid_file_crc_flip_is_reported_as_corruption() {
    let root = tmpdir("mid-crc");
    let meta = chaos_meta("mid-crc", 37);
    let o = bin_opts(25);

    let dir = root.join("exp");
    let bench = meta.bench.build().unwrap();
    let mut run = DurableRun::create(&dir, &meta, &bench, o).unwrap();
    run.run_until_jobs(40).unwrap();
    drop(run);

    // Locate the first frame after the magic and flip its final CRC byte.
    let wal_path = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let magic = WAL_MAGIC.len();
    let DecodeStep::Record { consumed, .. } = decode_step(&bytes[magic..]) else {
        panic!("WAL must start with a well-formed record");
    };
    bytes[magic + consumed - 1] ^= 0xff;
    std::fs::write(&wal_path, &bytes).unwrap();

    let err = read_wal(&wal_path).unwrap_err();
    assert!(
        err.to_string().contains("CRC mismatch"),
        "corruption must name the failed check, got: {err}"
    );
    let err = match DurableRun::resume(&dir, &meta, &bench, o) {
        Err(e) => e,
        Ok(_) => panic!("resume must refuse a corrupted WAL"),
    };
    assert!(err.to_string().contains("CRC mismatch"), "got: {err}");
    std::fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------------
// Property tests: the binary record codec and the delta algebra
// ---------------------------------------------------------------------------

/// An `f64` that is never NaN (so derived `PartialEq` on records is exact)
/// but otherwise covers the full bit range, infinities and subnormals
/// included — much wilder than the finite-only `any::<f64>()`.
fn wild_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| {
        let f = f64::from_bits(bits);
        if f.is_nan() {
            f64::INFINITY
        } else {
            f
        }
    })
}

/// A short printable name.
fn name() -> impl Strategy<Value = String> {
    any::<u64>().prop_map(|n| format!("exp-{}", n % 10_000))
}

fn event_kind() -> impl Strategy<Value = EventKind> {
    prop_oneof![
        prop_oneof![Just(IdleKind::Wait), Just(IdleKind::Finished)]
            .prop_map(|decision| EventKind::Suggest { decision }),
        (any::<u64>(), 0usize..64, 0usize..32, 0usize..32, wild_f64()).prop_map(
            |(trial, bracket, from, to, resource)| EventKind::Promote {
                trial,
                bracket,
                from,
                to,
                resource,
            }
        ),
        (any::<u64>(), 0usize..64, wild_f64()).prop_map(|(trial, bracket, resource)| {
            EventKind::GrowBottom {
                trial,
                bracket,
                resource,
            }
        }),
        (any::<u64>(), 0usize..64, 0usize..32, wild_f64()).prop_map(
            |(trial, bracket, rung, resource)| EventKind::JobStart {
                trial,
                bracket,
                rung,
                resource,
            }
        ),
        (any::<u64>(), 0usize..32, wild_f64(), wild_f64()).prop_map(
            |(trial, rung, resource, loss)| EventKind::JobEnd {
                trial,
                rung,
                resource,
                loss,
            }
        ),
        (
            any::<u64>(),
            0usize..32,
            prop_oneof![Just(DropCause::Dropped), Just(DropCause::Timeout)]
        )
            .prop_map(|(trial, rung, cause)| EventKind::Drop { trial, rung, cause }),
        (any::<u64>(), 0usize..32).prop_map(|(trial, rung)| EventKind::Retry { trial, rung }),
        (0usize..4096).prop_map(|idle| EventKind::WorkerIdle { idle }),
    ]
}

fn wal_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        (any::<u64>(), wild_f64(), event_kind())
            .prop_map(|(seq, time, kind)| WalRecord::telemetry(Event { seq, time, kind })),
        (wild_f64(), any::<u64>(), any::<u64>()).prop_map(|(time, snap, events)| {
            WalRecord::SnapshotMarker {
                time,
                marker: SnapMarker::Full { snap, events },
            }
        }),
        (wild_f64(), any::<u64>(), 1u64..64, any::<u64>()).prop_map(
            |(time, snap, delta, events)| WalRecord::SnapshotMarker {
                time,
                marker: SnapMarker::Delta {
                    snap,
                    delta,
                    events
                },
            }
        ),
        (wild_f64(), name()).prop_map(|(time, name)| WalRecord::Meta {
            time,
            event: StoreEvent::ExperimentCreated { name },
        }),
        wild_f64().prop_map(|time| WalRecord::Meta {
            time,
            event: StoreEvent::Paused,
        }),
        wild_f64().prop_map(|time| WalRecord::Meta {
            time,
            event: StoreEvent::Resumed,
        }),
        wild_f64().prop_map(|time| WalRecord::Meta {
            time,
            event: StoreEvent::ExperimentFinished,
        }),
    ]
}

/// A JSON value nested up to `depth` levels, with unique object keys and
/// the full numeric range in the leaves — the shape snapshots use.
fn json_value(depth: u32) -> BoxedStrategy<JsonValue> {
    let leaf = prop_oneof![
        Just(JsonValue::Null),
        any::<bool>().prop_map(JsonValue::Bool),
        any::<u64>().prop_map(JsonValue::Int),
        wild_f64().prop_map(JsonValue::Num),
        name().prop_map(JsonValue::Str),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let inner = json_value(depth - 1);
    prop_oneof![
        leaf,
        prop::collection::vec(json_value(depth - 1), 0..5).prop_map(JsonValue::Arr),
        prop::collection::vec(inner, 0..5).prop_map(|vals| {
            JsonValue::Obj(
                vals.into_iter()
                    .enumerate()
                    .map(|(i, v)| (format!("k{i}"), v))
                    .collect(),
            )
        }),
    ]
    .boxed()
}

fn json_doc() -> impl Strategy<Value = JsonValue> {
    json_value(3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every record the binary codec can write, it reads back exactly —
    /// one frame, fully consumed, structurally equal.
    #[test]
    fn binary_wal_records_roundtrip(record in wal_record()) {
        let mut buf = EncodeBuf::default();
        encode_record(&record, &mut buf);
        match decode_step(&buf.bytes) {
            DecodeStep::Record { consumed, record: decoded } => {
                prop_assert_eq!(consumed, buf.bytes.len(), "one frame, no slack");
                prop_assert_eq!(decoded, record);
            }
            other => prop_assert!(false, "expected a record, got {:?}", other),
        }
    }

    /// Truncating a binary frame at any interior point reads as Incomplete
    /// (a torn append), never as a bogus record or a hard error.
    #[test]
    fn truncated_binary_frames_read_as_incomplete(record in wal_record(), cut in any::<usize>()) {
        let mut buf = EncodeBuf::default();
        encode_record(&record, &mut buf);
        let cut = cut % buf.bytes.len(); // 0..len, always a strict prefix
        prop_assert!(matches!(
            decode_step(&buf.bytes[..cut]),
            DecodeStep::Incomplete
        ));
    }

    /// The delta algebra: `apply(base, diff(base, new))` reconstructs `new`
    /// bit-for-bit, and diffing a document against itself is a no-op patch.
    #[test]
    fn delta_diff_apply_roundtrips(base in json_doc(), new in json_doc()) {
        let patch = on_bytes(diff_bytes, &base, &new)?;
        let rebuilt = on_bytes(apply_bytes, &base, &patch)?;
        prop_assert!(json_eq(&rebuilt, &new), "patched document must equal the target");

        let noop = on_bytes(diff_bytes, &base, &base)?;
        prop_assert!(
            matches!(noop.get("u"), Some(JsonValue::Int(1))),
            "self-diff must be the no-op patch"
        );
        let same = on_bytes(apply_bytes, &base, &noop)?;
        prop_assert!(json_eq(&same, &base));
    }
}
