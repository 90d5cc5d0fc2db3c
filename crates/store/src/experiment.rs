//! One experiment's on-disk store and the durable run driver on top of it.
//!
//! Directory layout (one directory per experiment):
//!
//! ```text
//! <dir>/meta.json             immutable: space, scheduler, seed, sim, benchmark
//! <dir>/wal.jsonl             write-ahead log (`binary-v2`; the name is
//!                             historical)
//! <dir>/snap-<seq>.bin        full-state snapshots (scheduler + RNG + sim loop)
//! <dir>/delta-<seq>-<k>.bin   delta snapshots: diffs chained on snap <seq>
//! ```
//!
//! Everything is written and read as `binary-v2`. A pre-redesign
//! `jsonl-v1` store is converted in place by [`crate::upgrade::store`],
//! which [`DurableRun::resume`] runs first.
//!
//! The recovery protocol pivots on the WAL's checkpoint *markers*: a
//! checkpoint file (full snapshot or delta) is fsynced **before** its
//! marker is appended, so the newest marker in the WAL always names a
//! durable recovery point. Recovery loads the marker's base full snapshot,
//! applies its chained deltas, discards the WAL suffix past the marker
//! (the resumed engine deterministically regenerates the identical
//! events), and continues — producing a final log and result bit-for-bit
//! equal to a run that never crashed.

use std::path::{Path, PathBuf};

use asha_baselines::Sampler;
use asha_core::telemetry::{Event, EventKind, IdleKind, Recorder};
use asha_core::{Decision, Durability, Observation, Scheduler, SchedulerState, TrialId};
use asha_metrics::JsonValue;
use asha_sim::{SimConfig, SimEngine, SimResult};
use asha_space::SearchSpace;
use asha_surrogate::CurveBenchmark;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::binary::{from_tree, tree_of, Reader, ValueWriter};
use crate::codec;
use crate::delta;
use crate::error::{Error, StoreError};
use crate::snapshot::{self, Snapshot, StoredScheduler};
use crate::wal::{read_wal, rewrite_to_marker, SnapMarker, StoreEvent, WalRecord, WalWriter};

/// Schema tag written into every `meta.json`.
pub const META_SCHEMA: &str = "asha-store-meta-v1";
/// File name of the experiment metadata.
pub const META_FILE: &str = "meta.json";
/// File name of the write-ahead log.
pub const WAL_FILE: &str = "wal.jsonl";

/// Which surrogate benchmark an experiment runs against, by preset name —
/// benchmarks are code, so the store records how to rebuild one rather
/// than trying to serialize it.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSpec {
    /// An `asha_surrogate::presets` constructor name.
    pub preset: String,
    /// The surrogate's surface seed.
    pub seed: u64,
}

impl BenchSpec {
    /// Rebuild the benchmark. Fails on an unknown preset name (e.g. a store
    /// written by a newer version).
    pub fn build(&self) -> Result<CurveBenchmark, Error> {
        use asha_surrogate::presets;
        Ok(match self.preset.as_str() {
            "cifar10_cuda_convnet" => presets::cifar10_cuda_convnet(self.seed),
            "cifar10_small_cnn" => presets::cifar10_small_cnn(self.seed),
            "svhn_small_cnn" => presets::svhn_small_cnn(self.seed),
            "ptb_lstm" => presets::ptb_lstm(self.seed),
            "ptb_dropconnect_lstm" => presets::ptb_dropconnect_lstm(self.seed),
            "svm_vehicle" => presets::svm_vehicle(self.seed),
            "svm_mnist" => presets::svm_mnist(self.seed),
            other => return Err(Error::codec(format!("unknown benchmark preset {other:?}"))),
        })
    }
}

/// Everything needed to start (or restart from nothing) one experiment.
///
/// `initial` is the scheduler's exported state *before any call* — storing
/// a state rather than a config means recovery has a single path: rebuild
/// from a [`SchedulerState`], whether that state came from `meta.json` or
/// from a snapshot.
#[derive(Debug, Clone)]
pub struct ExperimentMeta {
    /// The experiment's name (unique within a supervisor).
    pub name: String,
    /// The search space.
    pub space: SearchSpace,
    /// The scheduler's initial exported state.
    pub initial: SchedulerState,
    /// The sampler attached to the scheduler; `None` means
    /// [`Sampler::Random`]. Stored here — not in the scheduler state —
    /// because samplers are code: the store records which one to rebuild
    /// (a resume takes it from here alone), snapshots its model cursor.
    pub sampler: Option<Sampler>,
    /// Seed of the run's RNG.
    pub seed: u64,
    /// Simulation parameters.
    pub sim: SimConfig,
    /// The surrogate benchmark to run against.
    pub bench: BenchSpec,
}

impl ExperimentMeta {
    /// Encode as JSON. The `sampler` key is present only for model-based
    /// samplers, so random-run metas are byte-identical to earlier store
    /// versions (and old metas decode with `sampler: None`).
    pub fn to_json(&self) -> JsonValue {
        tree_of(|w| self.put(w))
    }

    fn put(&self, w: &mut ValueWriter<'_>) {
        let sampler = self.sampler.filter(|&kind| kind != Sampler::Random);
        w.obj(7 + usize::from(sampler.is_some()));
        w.key("schema").str(META_SCHEMA);
        w.key("name").str(&self.name);
        codec::put_space(w.key("space"), &self.space);
        codec::put_scheduler_state(w.key("scheduler"), &self.initial);
        if let Some(kind) = sampler {
            w.key("sampler").str(kind.name());
        }
        w.key("seed").int(self.seed);
        codec::put_sim_config(w.key("sim"), &self.sim);
        w.key("bench").obj(2);
        w.key("preset").str(&self.bench.preset);
        w.key("seed").int(self.bench.seed);
    }

    /// Decode, verifying the schema tag. A `sampler` that is not the name
    /// of a [`Sampler`] is a `config` error.
    pub fn from_json(v: &JsonValue) -> Result<Self, Error> {
        from_tree(v, ExperimentMeta::get)
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, Error> {
        let sampler = |r: &mut Reader<'_>| {
            let name = r.str().map_err(|e| Error::config(e.message()))?;
            let unknown = || Error::config(format!("unknown sampler {name:?}"));
            Sampler::from_name(name).ok_or_else(unknown)
        };
        let bench = |r: &mut Reader<'_>| {
            r.object(|o| {
                let preset = o.get("preset", Reader::string)?;
                let seed = o.get("seed", Reader::u64)?;
                Ok(BenchSpec { preset, seed })
            })
        };
        r.object(|o| {
            o.schema(&[META_SCHEMA])?;
            Ok(ExperimentMeta {
                name: o.get("name", Reader::string)?,
                space: o.get("space", codec::get_space)?,
                initial: o.get("scheduler", codec::get_scheduler_state)?,
                seed: o.get("seed", Reader::u64)?,
                sim: o.get("sim", codec::get_sim_config)?,
                bench: o.get("bench", bench)?,
                sampler: o.opt("sampler", sampler)?,
            })
        })
    }
}

/// Write `meta.json` crash-safely (temp file + fsync + rename).
pub fn write_meta(dir: &Path, meta: &ExperimentMeta) -> Result<(), StoreError> {
    let text = meta.to_json().render();
    snapshot::write_atomic(dir, META_FILE, &[text.as_bytes()]).map(|_| ())
}

/// Read and decode `<dir>/meta.json`.
pub fn read_meta(dir: &Path) -> Result<ExperimentMeta, StoreError> {
    let path = dir.join(META_FILE);
    let text = std::fs::read_to_string(&path).map_err(|e| StoreError::io(&path, e))?;
    JsonValue::parse(&text)
        .map_err(|e| Error::codec(e.to_string()))
        .and_then(|v| ExperimentMeta::from_json(&v))
        .map_err(|e| e.corrupt_at(&path))
}

/// A [`Recorder`] that appends every telemetry event to the WAL, stamping
/// gap-free sequence numbers. `Recorder::record` is infallible by trait, so
/// I/O errors are stashed and surfaced by [`WalRecorder::take_error`] after
/// each step.
#[derive(Debug)]
pub struct WalRecorder {
    writer: WalWriter,
    next_seq: u64,
    error: Option<StoreError>,
}

impl WalRecorder {
    /// Wrap a WAL writer; `next_seq` is the next telemetry sequence number
    /// (0 for a fresh run, the snapshot's event count after recovery).
    pub fn new(writer: WalWriter, next_seq: u64) -> Self {
        WalRecorder {
            writer,
            next_seq,
            error: None,
        }
    }

    /// The next telemetry sequence number (== events written so far).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Access the underlying writer (for store events and syncs).
    pub fn writer(&mut self) -> &mut WalWriter {
        &mut self.writer
    }

    /// Surface any I/O error that occurred inside `record`.
    pub fn take_error(&mut self) -> Result<(), StoreError> {
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Recorder for WalRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, now: f64, kind: EventKind) {
        if self.error.is_some() {
            return;
        }
        let event = Event {
            seq: self.next_seq,
            time: now,
            kind,
        };
        match self.writer.append(&WalRecord::telemetry(event)) {
            Ok(()) => self.next_seq += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

/// Durability knobs for a [`DurableRun`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// WAL fsync cadence.
    pub sync: Durability,
    /// Checkpoint cadence. `N > 0` checkpoints every `N` completed jobs.
    /// `0` (the default) is *amortised*: a checkpoint is taken once the
    /// telemetry bytes appended to the WAL since the last checkpoint reach
    /// that checkpoint's payload length (the encoded full document, whether
    /// written whole or diffed into a delta). So every checkpoint but the
    /// newest is paid for by at least its size in WAL — the checkpoint
    /// bytes a run encodes stay within the WAL bytes it writes plus one
    /// payload — and a recovery replays less WAL than the checkpoint it
    /// loads, plus at most one event-loop step. A payload holds the whole
    /// history, so checkpoints thin out as the run grows: O(log J) of them
    /// in J jobs. Both sides of the test repeat across a crash
    /// ([`WalWriter::telemetry_bytes`] counts telemetry frames only; a
    /// resume seeds the payload length from the document it patched
    /// together), so a resumed run takes exactly the uninterrupted run's
    /// checkpoints.
    pub snapshot_jobs: usize,
    /// Maximum delta snapshots between full snapshots. `0` disables delta
    /// checkpoints entirely (every checkpoint is a full snapshot);
    /// otherwise each full snapshot is followed by up to this many diffs
    /// before the next full one, bounding recovery to `delta_chain` patch
    /// applications. The default is 1: at amortised spacing two
    /// consecutive checkpoints differ by about what they hold, so a delta
    /// saves little disk and costs more to write than a full snapshot, and
    /// a chain of one bounds recovery to a single patch.
    pub delta_chain: usize,
}

impl Default for RunOptions {
    /// Fsync every 64 WAL records, amortised checkpoints
    /// (`snapshot_jobs: 0`), with one delta per full snapshot.
    fn default() -> Self {
        RunOptions {
            sync: Durability::default(),
            snapshot_jobs: 0,
            delta_chain: 1,
        }
    }
}

impl RunOptions {
    /// Check the knobs: a valid [`Durability`] (every `snapshot_jobs` is
    /// valid, 0 meaning amortised). Returns a typed [`asha_core::Error`]
    /// (kind `Config`); decoders of untrusted input call this.
    ///
    /// ```
    /// use asha_store::{Durability, RunOptions};
    ///
    /// let mut opts = RunOptions { sync: Durability::Sync, snapshot_jobs: 50, ..RunOptions::default() };
    /// assert!(opts.validate().is_ok());
    /// opts.snapshot_jobs = 0;
    /// assert!(opts.validate().is_ok());
    /// opts.sync = Durability::EveryN(0);
    /// assert!(opts.validate().is_err());
    /// ```
    pub fn validate(&self) -> Result<(), asha_core::Error> {
        self.sync.validate()
    }
}

/// The in-memory tail of the delta chain: which full snapshot it hangs
/// off, how long it is, and the previous checkpoint's document (diff base).
#[derive(Debug)]
struct ChainState {
    /// Base full snapshot's sequence number.
    snap: u64,
    /// Deltas written on top so far.
    len: u64,
    /// The previous checkpoint's snapshot payload (as written, or as
    /// patched together on recovery), kept as the base for the next diff.
    doc: Vec<u8>,
}

/// A simulated tuning run with durable state: every telemetry event goes to
/// the WAL and checkpoints (full snapshots plus bounded delta chains) are
/// taken on the [`RunOptions::snapshot_jobs`] cadence, so the run can be
/// killed at any instant and [resumed](DurableRun::resume) to the identical
/// final result.
pub struct DurableRun<'b> {
    dir: PathBuf,
    engine: SimEngine<'b, StoredScheduler>,
    rng: StdRng,
    recorder: WalRecorder,
    next_snap: u64,
    last_snapshot_jobs: usize,
    /// The writer's [`WalWriter::telemetry_bytes`] at which an amortised
    /// checkpoint falls due: its count at the last checkpoint plus that
    /// checkpoint's payload length.
    checkpoint_due_bytes: u64,
    opts: RunOptions,
    finished_recorded: bool,
    /// The live delta chain; `None` until the first full snapshot lands
    /// (or when `delta_chain` is 0, which never opens a chain).
    chain: Option<ChainState>,
    /// Optional durability-plane histograms (snapshot-write latency; the
    /// WAL writer holds its own handle for append/fsync).
    metrics: Option<std::sync::Arc<crate::StoreMetrics>>,
    /// Reused encode buffers, so a steady-state checkpoint allocates
    /// nothing: the snapshot payload being written (swapped with the
    /// chain's previous one after a delta) and the delta document.
    payload_buf: Vec<u8>,
    delta_buf: Vec<u8>,
}

impl<'b> DurableRun<'b> {
    /// Initialize a fresh experiment directory and the run driving it.
    /// Builds the scheduler first — an initial state it cannot hold
    /// ([`SchedulerState::validate`]) is refused, kind `Config`, before
    /// anything is written — then writes `meta.json`, starts the WAL, and
    /// takes snapshot 0 (the pristine state), so the directory is
    /// recoverable from the first instant.
    pub fn create(
        dir: &Path,
        meta: &ExperimentMeta,
        bench: &'b dyn asha_surrogate::BenchmarkModel,
        opts: RunOptions,
    ) -> Result<Self, StoreError> {
        meta.initial
            .validate()
            .map_err(|e| e.context("initial scheduler state"))?;
        let scheduler = StoredScheduler::from_state(
            meta.space.clone(),
            meta.initial.clone(),
            meta.sampler.unwrap_or_default(),
        );
        std::fs::create_dir_all(dir).map_err(|e| StoreError::io(dir, e))?;
        write_meta(dir, meta)?;
        let mut wal = WalWriter::create(&dir.join(WAL_FILE), opts.sync)?;
        wal.append(&WalRecord::Meta {
            time: 0.0,
            event: StoreEvent::ExperimentCreated {
                name: meta.name.clone(),
            },
        })?;
        let engine = SimEngine::new(meta.sim.clone(), scheduler, bench);
        let rng = StdRng::seed_from_u64(meta.seed);
        let mut run = DurableRun {
            dir: dir.to_owned(),
            engine,
            rng,
            recorder: WalRecorder::new(wal, 0),
            next_snap: 0,
            last_snapshot_jobs: 0,
            checkpoint_due_bytes: 0,
            opts,
            finished_recorded: false,
            chain: None,
            metrics: None,
            payload_buf: Vec::new(),
            delta_buf: Vec::new(),
        };
        run.write_snapshot()?;
        Ok(run)
    }

    /// Recover a run from its experiment directory: load the snapshot named
    /// by the newest durable WAL marker, discard the WAL suffix past it
    /// (the resumed engine regenerates those events identically), and
    /// continue. A `jsonl-v1` store is first converted to `binary-v2` in
    /// place ([`crate::upgrade::store`]).
    ///
    /// The caller owns the benchmark; rebuild it from
    /// [`ExperimentMeta::bench`] (via [`read_meta`]) or pass the original.
    pub fn resume(
        dir: &Path,
        meta: &ExperimentMeta,
        bench: &'b dyn asha_surrogate::BenchmarkModel,
        opts: RunOptions,
    ) -> Result<Self, StoreError> {
        crate::upgrade::store(dir)?;
        let wal_path = dir.join(WAL_FILE);
        let contents = read_wal(&wal_path)?;
        let marker = contents.last_snapshot_marker().ok_or_else(|| {
            StoreError::corrupt(
                &wal_path,
                "no checkpoint marker in WAL (store never initialized?)",
            )
        })?;
        let snap_path = Snapshot::find(dir, marker.snap).ok_or_else(|| {
            StoreError::corrupt(
                dir,
                format!(
                    "full snapshot {} named by the WAL marker is missing",
                    marker.snap
                ),
            )
        })?;
        // Rebuild the checkpoint document on its bytes: the base full
        // snapshot, then the marker's delta chain patched on top in order.
        // Only the final document is decoded, straight into typed state.
        let mut doc = snapshot::read_payload(&snap_path)?;
        let mut patched = Vec::new();
        for k in 1..=marker.delta {
            let (path, delta_doc, patch) = snapshot::load_delta_payload(dir, marker.snap, k)?;
            patched.clear();
            delta::apply_bytes(&doc, &delta_doc[patch], &mut patched)
                .map_err(|msg| StoreError::corrupt(&path, format!("applying delta: {msg}")))?;
            std::mem::swap(&mut doc, &mut patched);
        }
        let snap = Snapshot::from_bytes(&doc).map_err(|e| e.corrupt_at(&snap_path))?;
        if snap.events != marker.events {
            return Err(StoreError::corrupt(
                &snap_path,
                format!(
                    "checkpoint covers {} events but its WAL marker says {}",
                    snap.events, marker.events
                ),
            ));
        }
        // The method comes from `meta.json` alone.
        let sampler = meta.sampler.unwrap_or_default();
        snap.check_fits(&meta.space, sampler)
            .map_err(|e| e.corrupt_at(&snap_path))?;
        rewrite_to_marker(&wal_path, &contents, marker)?;
        let sim_state = snap.sim.ok_or_else(|| {
            StoreError::corrupt(&snap_path, "snapshot has no simulator state to resume")
        })?;
        // Rebuild the sampling plane alongside the scheduler: a fresh
        // sampler of the experiment's kind, rehydrated from the snapshot's
        // cursors, so an adaptive sampler resumes warm — not silently reset
        // to cold — and the recovered run stays byte-identical.
        let mut scheduler =
            StoredScheduler::from_state(meta.space.clone(), snap.scheduler, sampler);
        if let Some(spec) = &snap.sampler {
            scheduler.restore_sampler_spec(spec);
        }
        let engine = SimEngine::restore(meta.sim.clone(), scheduler, bench, sim_state);
        let rng = StdRng::from_state(snap.rng);
        let mut wal = WalWriter::open_append(&wal_path, opts.sync, marker.events)?;
        wal.append(&WalRecord::Meta {
            time: engine.now(),
            event: StoreEvent::Resumed,
        })?;
        let jobs = engine.jobs_completed();
        // Reopen the cadence and the delta chain exactly where the marker
        // left them, so the post-recovery checkpoint schedule (and hence
        // every file written from here on) matches the uninterrupted run's
        // byte for byte. The fresh writer has counted no telemetry bytes —
        // the `resumed` record is not telemetry — just as the uninterrupted
        // run had counted none past its checkpoint.
        let checkpoint_due_bytes = doc.len() as u64;
        let chain = (opts.delta_chain > 0).then_some(ChainState {
            snap: marker.snap,
            len: marker.delta,
            doc,
        });
        Ok(DurableRun {
            dir: dir.to_owned(),
            engine,
            rng,
            recorder: WalRecorder::new(wal, marker.events),
            next_snap: marker.snap + 1,
            last_snapshot_jobs: jobs,
            checkpoint_due_bytes,
            opts,
            finished_recorded: false,
            chain,
            metrics: None,
            payload_buf: patched,
            delta_buf: Vec::new(),
        })
    }

    /// Attach durability-plane histograms: snapshot writes record here,
    /// and the underlying WAL writer gets the same handle for appends and
    /// fsyncs.
    pub fn set_metrics(&mut self, metrics: std::sync::Arc<crate::StoreMetrics>) {
        self.recorder.writer().set_metrics(metrics.clone());
        self.metrics = Some(metrics);
    }

    /// The experiment directory this run persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Jobs completed so far.
    pub fn jobs_completed(&self) -> usize {
        self.engine.jobs_completed()
    }

    /// Whether the run has ended.
    pub fn is_done(&self) -> bool {
        self.engine.is_done()
    }

    /// Push any WAL records still buffered in userspace to the OS (no
    /// fsync). Crash durability still follows the configured
    /// [`Durability`]; this only narrows the loss window for buffered
    /// records, e.g. before a long idle stretch.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        self.recorder.writer().flush()
    }

    /// Advance the run by one event-loop step, persisting telemetry and
    /// snapshotting on the configured cadence. Returns `false` when the run
    /// is over (and its final snapshot + `experiment_finished` marker are
    /// durable).
    pub fn step(&mut self) -> Result<bool, StoreError> {
        let alive = self.engine.step(&mut self.rng, &mut self.recorder);
        self.recorder.take_error()?;
        if alive {
            let due = match self.opts.snapshot_jobs {
                0 => self.recorder.writer().telemetry_bytes() >= self.checkpoint_due_bytes,
                every => self.engine.jobs_completed() - self.last_snapshot_jobs >= every,
            };
            if due {
                self.write_snapshot()?;
            }
        } else if !self.finished_recorded {
            self.finished_recorded = true;
            self.append_meta(StoreEvent::ExperimentFinished)?;
            self.write_snapshot()?;
        }
        Ok(alive)
    }

    /// Drive the run to completion and return its result.
    pub fn run_to_completion(mut self) -> Result<SimResult, StoreError> {
        while self.step()? {}
        Ok(self.into_result())
    }

    /// Step until at least `jobs` jobs have completed (or the run ends).
    /// Returns whether the run is still live — the hook crash-injection
    /// tests use to die at a controlled point.
    pub fn run_until_jobs(&mut self, jobs: usize) -> Result<bool, StoreError> {
        while self.engine.jobs_completed() < jobs {
            if !self.step()? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Persist a pause point: snapshot the full state, then append a
    /// `paused` marker and sync. After this the process can idle (or exit)
    /// and the run resumes from exactly here.
    pub fn mark_paused(&mut self) -> Result<(), StoreError> {
        self.write_snapshot()?;
        self.append_meta(StoreEvent::Paused)?;
        self.recorder.writer().sync()
    }

    /// Append a `resumed` marker after a pause.
    pub fn mark_resumed(&mut self) -> Result<(), StoreError> {
        self.append_meta(StoreEvent::Resumed)?;
        self.recorder.writer().sync()
    }

    /// Append a lifecycle record stamped with the run's clock.
    fn append_meta(&mut self, event: StoreEvent) -> Result<(), StoreError> {
        let time = self.engine.now();
        self.recorder
            .writer()
            .append(&WalRecord::Meta { time, event })
    }

    /// Take a checkpoint now (also called automatically on the cadence
    /// and at the end of the run): a delta while the current chain is
    /// shorter than [`RunOptions::delta_chain`], a full snapshot otherwise.
    ///
    /// The choice is a pure function of the chain position — never of
    /// content sizes — so an interrupted-and-recovered run makes exactly
    /// the same full/delta decisions as an uninterrupted one, keeping the
    /// two stores byte-identical.
    pub fn write_snapshot(&mut self) -> Result<(), StoreError> {
        let events = self.recorder.next_seq();
        let delta_chain = self.opts.delta_chain;
        let open_chain = self
            .chain
            .as_mut()
            .filter(|chain| (chain.len as usize) < delta_chain);
        let start = self.metrics.is_some().then(std::time::Instant::now);
        // A delta keeps its chain's base seq: patching the chain onto the
        // base must reproduce this document exactly.
        let seq = open_chain
            .as_ref()
            .map_or(self.next_snap, |chain| chain.snap);
        // Typed state -> payload bytes -> file: no tree in between.
        let mut doc = std::mem::take(&mut self.payload_buf);
        doc.clear();
        Snapshot {
            seq,
            events,
            scheduler: self.engine.scheduler().export_state(),
            sampler: self.engine.scheduler().export_sampler_spec(),
            rng: self.rng.state(),
            sim: Some(self.engine.export_state()),
        }
        .encode(&mut doc);
        let payload_len = doc.len() as u64;
        let marker = if let Some(chain) = open_chain {
            let delta = chain.len + 1;
            self.delta_buf.clear();
            snapshot::put_delta_header(
                &mut ValueWriter::new(&mut self.delta_buf),
                seq,
                delta,
                events,
            );
            delta::diff_bytes(&chain.doc, &doc, &mut self.delta_buf).map_err(|msg| {
                StoreError::corrupt(&self.dir, format!("diffing snapshots: {msg}"))
            })?;
            let (_, bytes) = snapshot::write_document(
                &self.dir,
                &snapshot::delta_file_name(seq, delta),
                &self.delta_buf,
            )?;
            if let (Some(m), Some(t0)) = (&self.metrics, start) {
                m.snapshot_delta_write.observe_duration(t0.elapsed());
                m.snapshot_delta_bytes.add(bytes);
            }
            chain.len = delta;
            // The new payload becomes the diff base; the old one's buffer
            // takes the next encode.
            self.payload_buf = std::mem::replace(&mut chain.doc, doc);
            SnapMarker::Delta {
                snap: seq,
                delta,
                events,
            }
        } else {
            let (_, bytes) = snapshot::write_document(&self.dir, &Snapshot::file_name(seq), &doc)?;
            if let (Some(m), Some(t0)) = (&self.metrics, start) {
                m.snapshot_write.observe_duration(t0.elapsed());
                m.snapshot_full_bytes.add(bytes);
            }
            self.next_snap = seq + 1;
            // A new chain opens on this payload; whichever buffer that
            // frees takes the next encode.
            let spare = if delta_chain > 0 {
                let chain = ChainState {
                    snap: seq,
                    len: 0,
                    doc,
                };
                self.chain.replace(chain).map(|closed| closed.doc)
            } else {
                Some(doc)
            };
            self.payload_buf = spare.unwrap_or_default();
            SnapMarker::Full { snap: seq, events }
        };
        // Marker only after the checkpoint file is durable: the newest
        // marker in the WAL must always name a loadable recovery point.
        let record = WalRecord::SnapshotMarker {
            time: self.engine.now(),
            marker,
        };
        let wal = self.recorder.writer();
        wal.append(&record)?;
        wal.sync()?;
        self.checkpoint_due_bytes = wal.telemetry_bytes() + payload_len;
        self.last_snapshot_jobs = self.engine.jobs_completed();
        Ok(())
    }

    /// Finish and produce the run's [`SimResult`].
    pub fn into_result(self) -> SimResult {
        self.engine.into_result()
    }
}

/// Replay a WAL telemetry suffix into a snapshot-restored scheduler,
/// reconstructing a scheduler (and RNG) decision-for-decision identical to
/// the one that emitted the log.
///
/// For every logged decision event (`suggest`/`promote`/`grow_bottom`) the
/// scheduler's `suggest` is re-invoked with `rng` and the produced decision
/// is checked against the log — a mismatch means the snapshot, the log, and
/// the code disagree, and recovery must not silently continue. `job_end`
/// events are fed to `observe`; worker-side events (`job_start`, `drop`,
/// `retry`, `worker_idle`) carry no scheduler state and are skipped.
///
/// This is sound whenever the scheduler is the only RNG consumer — true
/// for `asha-exec` (objectives get no RNG), not for `asha-sim` (the
/// benchmark model shares the stream), which is why simulated runs resume
/// from full snapshots instead.
///
/// Returns the number of telemetry events replayed.
pub fn replay_scheduler(
    scheduler: &mut dyn Scheduler,
    rng: &mut dyn rand::RngCore,
    records: &[WalRecord],
    skip_telemetry: u64,
) -> Result<u64, Error> {
    let mut seen = 0u64;
    let mut replayed = 0u64;
    for record in records {
        let Some(event) = record.event() else {
            continue;
        };
        seen += 1;
        if seen <= skip_telemetry {
            continue;
        }
        match event.kind {
            EventKind::Suggest { decision } => {
                let d = scheduler.suggest(rng);
                let matches = matches!(
                    (&d, decision),
                    (Decision::Wait, IdleKind::Wait) | (Decision::Finished, IdleKind::Finished)
                );
                if !matches {
                    return Err(Error::codec(format!(
                        "replay mismatch at event {}: log says idle {:?}, scheduler said {d:?}",
                        event.seq, decision
                    )));
                }
            }
            EventKind::Promote { .. } | EventKind::GrowBottom { .. } => {
                let d = scheduler.suggest(rng);
                let got = EventKind::of_decision(&d);
                if got != event.kind {
                    return Err(Error::codec(format!(
                        "replay mismatch at event {}: log says {:?}, scheduler said {got:?}",
                        event.seq, event.kind
                    )));
                }
            }
            EventKind::JobEnd {
                trial,
                rung,
                resource,
                loss,
            } => {
                scheduler.observe(Observation::new(TrialId(trial), rung, resource, loss));
            }
            EventKind::JobStart { .. }
            | EventKind::Drop { .. }
            | EventKind::Retry { .. }
            | EventKind::WorkerIdle { .. } => {}
        }
        replayed += 1;
    }
    Ok(replayed)
}
