//! Versioned full-state snapshots, delta documents, and the scheduler
//! wrapper they restore.
//!
//! A snapshot is everything needed to continue a run bit-for-bit: the
//! scheduler's exported state, the raw RNG state words, and (for simulated
//! runs) the simulator's [`SimRunState`]. Between full snapshots the store
//! may write *delta* documents — structural diffs (see [`crate::delta`])
//! against the previous checkpoint — so steady-state checkpoint bytes are
//! proportional to change.
//!
//! A checkpoint document exists in memory as its binvalue *payload*
//! ([`Snapshot::encode`]; a delta's header fields followed by a
//! [`crate::delta::diff_bytes`] patch) and on disk as that payload in a
//! `binary-v2` frame ([`write_document`]). Recovery decodes the payload
//! straight into typed state ([`Snapshot::from_bytes`]); the [`JsonValue`]
//! forms (`to_json`, `from_json`) are for tools and tests. All files are
//! written crash-safely — one temp file, written and fsynced through the
//! same handle, renamed into place, directory fsynced — so a crash
//! mid-write never damages the previous checkpoint and recovery can always
//! fall back along the chain.

use std::fs::File;
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};

use asha_baselines::Sampler;
use asha_core::{
    Asha, AsyncHyperband, Decision, DurableScheduler, Observation, Scheduler, SchedulerState,
    SyncSha,
};
use asha_metrics::JsonValue;
use asha_sim::SimRunState;
use asha_space::{Config, SearchSpace};

use crate::binary::{from_tree, tree_of, Fields, Reader, ValueWriter};
use crate::codec;
use crate::error::{Error, StoreError};
use crate::format::{document_frame, document_payload};

/// Schema tag written into every snapshot file: the document layout, not
/// the file dialect. v2 writes the simulator's rows and every config value
/// positionally (see [`crate::codec`]).
pub const SNAPSHOT_SCHEMA: &str = "asha-store-snapshot-v2";

/// The layout before v2, with keyed rows and config values: still read.
const SNAPSHOT_SCHEMA_V1: &str = "asha-store-snapshot-v1";

/// Schema tag written into every delta-snapshot file.
pub const DELTA_SCHEMA: &str = "asha-store-delta-v1";

/// The sampling-plane half of a snapshot: which [`Sampler`] kind the
/// scheduler runs and each sampler instance's serialized model cursor.
///
/// `cursors` holds one entry per sampler instance — a single element for
/// `Asha`/`SyncSha`, one per bracket for `AsyncHyperband`. A `None` entry
/// means that instance keeps no cursor (stateless sampler).
#[derive(Debug, Clone, PartialEq)]
pub struct SamplerSpec {
    /// The sampler's kind, written as its name: `"tpe"` or `"gp"` (the
    /// random sampler is encoded as the *absence* of a spec, keeping
    /// random-run snapshots byte-identical to earlier store versions).
    pub kind: Sampler,
    /// Per-instance serialized cursors.
    pub cursors: Vec<Option<String>>,
}

impl SamplerSpec {
    fn put(&self, w: &mut ValueWriter<'_>) {
        w.obj(2);
        w.key("kind").str(self.kind.name());
        w.key("cursors").arr(self.cursors.len());
        for cursor in &self.cursors {
            match cursor {
                Some(s) => w.str(s),
                None => w.null(),
            }
        }
    }

    /// Encode as JSON.
    pub fn to_json(&self) -> JsonValue {
        tree_of(|w| self.put(w))
    }

    /// Decode from JSON written by [`SamplerSpec::to_json`].
    pub fn from_json(v: &JsonValue) -> Result<Self, Error> {
        from_tree(v, SamplerSpec::get)
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.object(|o| {
            let name = o.get("kind", Reader::str)?;
            let unknown = || Error::codec(format!("unknown sampler kind {name:?}"));
            Ok(SamplerSpec {
                kind: Sampler::from_name(name).ok_or_else(unknown)?,
                cursors: o.get("cursors", |r| r.list(|r| r.nullable(Reader::string)))?,
            })
        })
    }
}

/// A scheduler of any durable kind, restorable from a [`SchedulerState`].
///
/// The store cannot be generic over the scheduler type (the kind is data,
/// read from a file), so it holds the scheduler behind
/// [`DurableScheduler`]; the one place that still names the concrete
/// types is the restore in [`StoredScheduler::from_state`].
#[derive(Debug)]
pub struct StoredScheduler(Box<dyn DurableScheduler>);

impl StoredScheduler {
    /// Wrap a live scheduler.
    pub fn new(scheduler: impl DurableScheduler + 'static) -> Self {
        StoredScheduler(Box::new(scheduler))
    }

    /// Export the wrapped scheduler's full state.
    pub fn export_state(&self) -> SchedulerState {
        self.0.durable_state()
    }

    /// Rebuild a scheduler from an exported state with a fresh, cold
    /// `sampler` attached: the one restore, of a run's initial state and of
    /// a checkpoint alike. Rehydrate a checkpoint's sampler model with
    /// [`StoredScheduler::restore_sampler_spec`].
    ///
    /// # Panics
    ///
    /// Panics if the state is one the scheduler cannot hold
    /// ([`SchedulerState::validate`], which `DurableRun` checks first).
    pub fn from_state(space: SearchSpace, state: SchedulerState, sampler: Sampler) -> Self {
        let fresh = {
            let space = space.clone();
            move |_| sampler.build(&space)
        };
        StoredScheduler(match state {
            SchedulerState::Asha(s) => Box::new(Asha::from_state_with_sampler(space, s, fresh(0))),
            SchedulerState::SyncSha(s) => {
                Box::new(SyncSha::from_state_with_sampler(space, s, fresh(0)))
            }
            SchedulerState::AsyncHyperband(s) => Box::new(
                AsyncHyperband::from_state_with_sampler_factory(space, s, fresh),
            ),
        })
    }

    /// Export the sampling plane's state for a snapshot. `None` for the
    /// random sampler (nothing to persist — and random-run snapshot bytes
    /// stay identical to earlier store versions) and for a sampler no
    /// [`Sampler`] names, which no store can rebuild.
    pub fn export_sampler_spec(&self) -> Option<SamplerSpec> {
        let kind = Sampler::from_name(self.0.sampler_name())?;
        (kind != Sampler::Random).then(|| SamplerSpec {
            kind,
            cursors: self.0.sampler_cursors(),
        })
    }

    /// Restore the sampling plane from a snapshot's [`SamplerSpec`]:
    /// rehydrates each sampler instance's model cursor. A malformed cursor
    /// leaves the affected sampler cold (samplers reject foreign cursors
    /// atomically) rather than failing recovery; a spec of another kind
    /// than the experiment's is refused before this, by
    /// [`crate::DurableRun::resume`].
    pub fn restore_sampler_spec(&mut self, spec: &SamplerSpec) {
        self.0.restore_sampler_cursors(&spec.cursors);
    }
}

impl Scheduler for StoredScheduler {
    fn suggest(&mut self, rng: &mut dyn rand::RngCore) -> Decision {
        self.0.suggest(rng)
    }

    fn observe(&mut self, obs: Observation) {
        self.0.observe(obs)
    }

    fn name(&self) -> &str {
        self.0.name()
    }

    fn wait_is_stable(&self) -> bool {
        self.0.wait_is_stable()
    }
}

/// A full durable checkpoint of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The snapshot's sequence number (monotone per experiment).
    pub seq: u64,
    /// Number of telemetry events the WAL held when this snapshot was
    /// taken; recovery replays the WAL from this position.
    pub events: u64,
    /// The scheduler's exported state.
    pub scheduler: SchedulerState,
    /// The sampling plane's state: sampler kind + model cursors. `None`
    /// for the default random sampler — the field is then omitted from the
    /// file entirely, so random-run snapshots are byte-identical to
    /// earlier store versions (and old snapshots decode as `None`).
    pub sampler: Option<SamplerSpec>,
    /// Raw xoshiro256++ state words of the run's RNG.
    pub rng: [u64; 4],
    /// The simulator's loop state (absent for executor-driven runs).
    pub sim: Option<SimRunState>,
}

impl Snapshot {
    /// The file name for snapshot `seq` (zero-padded so lexicographic and
    /// numeric order agree).
    pub fn file_name(seq: u64) -> String {
        format!("snap-{seq:08}.{EXT}")
    }

    /// Locate snapshot `seq` in `dir`.
    pub fn find(dir: &Path, seq: u64) -> Option<PathBuf> {
        Some(dir.join(Self::file_name(seq))).filter(|path| path.exists())
    }

    /// Check that the snapshot is of the experiment with `space` and
    /// `sampler`, and that the run can hold it: its sampler spec is of that
    /// kind (none for [`Sampler::Random`]); its scheduler state is one the
    /// scheduler can hold ([`SchedulerState::validate`]) and its simulator
    /// slots are strictly increasing by trial; and every stored
    /// configuration fits the space ([`SearchSpace::check`]) — the
    /// scheduler's trials, the simulator's in-flight and retry jobs, and
    /// the incumbent. The decoders accept any well-formed document, so this
    /// is where one not of this experiment is refused: before its cursors
    /// reach a sampler of another kind, its state a scheduler that panics on
    /// it, and its configs a benchmark model, which panics on a foreign
    /// config.
    pub(crate) fn check_fits(&self, space: &SearchSpace, sampler: Sampler) -> Result<(), Error> {
        let stored = self.sampler.as_ref().map_or(Sampler::Random, |s| s.kind);
        if stored != sampler {
            let (stored, sampler) = (stored.name(), sampler.name());
            let msg = format!("{stored} checkpoint of a {sampler} experiment");
            return Err(Error::codec(msg));
        }
        self.scheduler.validate()?;
        let mut slots = self.sim.iter().flat_map(|sim| sim.slots.windows(2));
        if let Some(w) = slots.find(|w| w[0].trial >= w[1].trial) {
            let (a, b) = (w[0].trial, w[1].trial);
            return Err(Error::codec(format!(
                "simulator slot of trial {b} after {a}"
            )));
        }
        let check = |config: &Config| {
            space
                .check(config)
                .map_err(|e| Error::codec(format!("stored config {config:?}: {e}")))
        };
        match &self.scheduler {
            SchedulerState::Asha(s) => s.trials.iter().try_for_each(|(_, c)| check(c))?,
            SchedulerState::SyncSha(s) => {
                s.trial_meta.iter().try_for_each(|(_, _, c)| check(c))?;
                let mut queued = s.brackets.iter().flat_map(|b| &b.queue);
                queued.try_for_each(|(_, c)| check(c))?;
            }
            SchedulerState::AsyncHyperband(s) => {
                let mut trials = s.brackets.iter().flat_map(|b| &b.trials);
                trials.try_for_each(|(_, c)| check(c))?;
            }
        }
        if let Some(sim) = &self.sim {
            sim.pending.iter().try_for_each(|p| check(&p.job.config))?;
            sim.retry.iter().try_for_each(|j| check(&j.config))?;
            sim.best_config.iter().try_for_each(|(c, _, _)| check(c))?;
        }
        Ok(())
    }

    /// Append the snapshot document's binvalue payload to `out`: what a
    /// checkpoint holds in memory and frames on disk.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.put(&mut ValueWriter::new(out));
    }

    /// The one encoder. The `sampler` key is present only when the run has
    /// a model-based sampler attached.
    fn put(&self, w: &mut ValueWriter<'_>) {
        w.obj(6 + usize::from(self.sampler.is_some()));
        w.key("schema").str(SNAPSHOT_SCHEMA);
        w.key("seq").int(self.seq);
        w.key("events").int(self.events);
        codec::put_scheduler_state(w.key("scheduler"), &self.scheduler);
        if let Some(spec) = &self.sampler {
            spec.put(w.key("sampler"));
        }
        codec::put_u64s(w.key("rng"), &self.rng);
        match &self.sim {
            Some(s) => codec::put_sim_run_state(w.key("sim"), s),
            None => w.key("sim").null(),
        }
    }

    /// Encode as JSON.
    pub fn to_json(&self) -> JsonValue {
        tree_of(|w| self.put(w))
    }

    /// Decode a snapshot document's payload, of either schema, straight
    /// into typed state (no tree is built), verifying the tag.
    pub fn from_bytes(payload: &[u8]) -> Result<Self, Error> {
        Reader::whole(payload, Snapshot::get)
    }

    /// Decode a snapshot document's tree: [`Snapshot::from_bytes`] of its
    /// bytes.
    pub fn from_json(v: &JsonValue) -> Result<Self, Error> {
        from_tree(v, Snapshot::get)
    }

    /// The optional `sampler` is asked for last: the fields it precedes
    /// are then read where they stand whether or not it is there.
    fn get(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.object(|o| {
            o.schema(&[SNAPSHOT_SCHEMA, SNAPSHOT_SCHEMA_V1])?;
            Ok(Snapshot {
                seq: o.get("seq", Reader::u64)?,
                events: o.get("events", Reader::u64)?,
                scheduler: o.get("scheduler", codec::get_scheduler_state)?,
                rng: o.get("rng", codec::get_rng_state)?,
                sim: o.get("sim", |r| r.nullable(codec::get_sim_run_state))?,
                sampler: o
                    .opt("sampler", |r| r.nullable(SamplerSpec::get))?
                    .flatten(),
            })
        })
    }
}

/// The file name for delta `delta` on top of full snapshot `snap`.
pub fn delta_file_name(snap: u64, delta: u64) -> String {
    format!("delta-{snap:08}-{delta:04}.{EXT}")
}

/// The extension of every checkpoint file.
pub(crate) const EXT: &str = "bin";

/// The chain position a checkpoint file's name states — `(snap, 0)` for a
/// full snapshot, `(snap, delta)` for a delta — when `name` is one with
/// extension `ext`.
pub(crate) fn checkpoint_position(name: &str, ext: &str) -> Option<(u64, u64)> {
    let stem = name.strip_suffix(ext)?.strip_suffix('.')?;
    if let Some(seq) = stem.strip_prefix("snap-") {
        return Some((seq.parse().ok()?, 0));
    }
    let (snap, delta) = stem.strip_prefix("delta-")?.split_once('-')?;
    Some((snap.parse().ok()?, delta.parse().ok()?)).filter(|&(_, delta)| delta > 0)
}

/// A delta-snapshot document: a [`crate::delta`] patch plus enough chain
/// metadata to validate its position on recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaDoc {
    /// The chain's base full-snapshot sequence number.
    pub snap: u64,
    /// Position in the chain (1-based).
    pub delta: u64,
    /// Telemetry events covered after applying this delta.
    pub events: u64,
    /// The structural patch against the previous checkpoint's document.
    pub patch: JsonValue,
}

/// Start a delta document's payload: every field up to and including the
/// `patch` key. The caller appends the patch value — a
/// [`crate::delta::diff_bytes`] result on the write path, an encoded tree in
/// [`DeltaDoc::to_json`].
pub(crate) fn put_delta_header(w: &mut ValueWriter<'_>, snap: u64, delta: u64, events: u64) {
    w.obj(5);
    w.key("schema").str(DELTA_SCHEMA);
    w.key("snap").int(snap);
    w.key("delta").int(delta);
    w.key("events").int(events);
    w.key("patch");
}

impl DeltaDoc {
    /// Encode as JSON.
    pub fn to_json(&self) -> JsonValue {
        tree_of(|w| {
            put_delta_header(w, self.snap, self.delta, self.events);
            w.tree(&self.patch);
        })
    }

    /// Decode, verifying the schema tag.
    pub fn from_json(v: &JsonValue) -> Result<Self, Error> {
        let delta = |o: &mut Fields<'_, '_>| {
            o.schema(&[DELTA_SCHEMA])?;
            Ok(DeltaDoc {
                snap: o.get("snap", Reader::u64)?,
                delta: o.get("delta", Reader::u64)?,
                events: o.get("events", Reader::u64)?,
                patch: o.get("patch", Reader::tree)?,
            })
        };
        from_tree(v, |r| r.object(delta))
    }
}

/// Read delta `delta` of chain `snap` from `dir` as its payload, verify
/// schema and chain position on the bytes, and locate the patch value
/// inside it — recovery applies that range without decoding it. Returns
/// the file's path, its payload and the patch's range.
pub(crate) fn load_delta_payload(
    dir: &Path,
    snap: u64,
    delta: u64,
) -> Result<(PathBuf, Vec<u8>, Range<usize>), StoreError> {
    let path = dir.join(delta_file_name(snap, delta));
    if !path.exists() {
        let missing = format!("delta {delta} of snapshot {snap} is missing");
        return Err(StoreError::corrupt(dir, missing));
    }
    let payload = read_payload(&path)?;
    // Only the small header fields are decoded; the patch stays bytes.
    let patch = Reader::whole(&payload, |r| {
        r.object(|o| {
            o.schema(&[DELTA_SCHEMA])?;
            let file = (o.get("snap", Reader::u64)?, o.get("delta", Reader::u64)?);
            if file != (snap, delta) {
                let (file_snap, file_delta) = file;
                return Err(Error::codec(format!(
                    "delta chain mismatch: file says snap {file_snap} delta {file_delta}, expected snap {snap} delta {delta}"
                )));
            }
            o.get("patch", Reader::range)
        })
    });
    let patch = patch.map_err(|e| e.corrupt_at(&path))?;
    Ok((path, payload, patch))
}

/// Write `parts`, concatenated, to `dir/file_name` crash-safely: one temp
/// file, written and fsynced through the same handle, renamed into place,
/// then the directory fsynced. Returns the final path.
pub(crate) fn write_atomic(
    dir: &Path,
    file_name: &str,
    parts: &[&[u8]],
) -> Result<PathBuf, StoreError> {
    let final_path = dir.join(file_name);
    let tmp_path = dir.join(format!("{file_name}.tmp"));
    File::create(&tmp_path)
        .and_then(|mut f| {
            for part in parts {
                f.write_all(part)?;
            }
            f.sync_all()
        })
        .map_err(|e| StoreError::io(&tmp_path, e))?;
    std::fs::rename(&tmp_path, &final_path).map_err(|e| StoreError::io(&final_path, e))?;
    fsync_dir(dir)?;
    Ok(final_path)
}

/// Write a checkpoint document crash-safely into `dir`: `payload` (the
/// document's binvalue bytes) in its `binary-v2` frame. Returns the final
/// path and the file's size.
pub fn write_document(
    dir: &Path,
    file_name: &str,
    payload: &[u8],
) -> Result<(PathBuf, u64), StoreError> {
    let (head, crc) = document_frame(payload);
    let path = write_atomic(dir, file_name, &[&head, payload, &crc])?;
    Ok((path, (head.len() + payload.len() + crc.len()) as u64))
}

/// Read a checkpoint document as its binvalue payload: the frame's
/// CRC-verified bytes.
pub(crate) fn read_payload(path: &Path) -> Result<Vec<u8>, StoreError> {
    let bytes = std::fs::read(path).map_err(|e| StoreError::io(path, e))?;
    document_payload(bytes).map_err(|msg| StoreError::corrupt(path, msg))
}

/// Fsync a directory so a just-renamed file's entry is durable (POSIX
/// requires syncing the containing directory, not just the file).
///
/// Failing to open the directory or to sync it is an error: the rename it
/// was to make durable may not survive a crash, so no marker may name it.
/// The one exception is a filesystem that cannot fsync a directory at all
/// and says so with [`std::io::ErrorKind::Unsupported`] or
/// [`std::io::ErrorKind::InvalidInput`]; there the entry is as durable as
/// that filesystem makes it.
pub fn fsync_dir(dir: &Path) -> Result<(), StoreError> {
    // `Path::parent` of a bare file name is the empty path.
    let dir = if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    };
    let f = File::open(dir).map_err(|e| StoreError::io(dir, e))?;
    match f.sync_all() {
        Err(e)
            if !matches!(
                e.kind(),
                std::io::ErrorKind::Unsupported | std::io::ErrorKind::InvalidInput
            ) =>
        {
            Err(StoreError::io(dir, e))
        }
        _ => Ok(()),
    }
}

/// Every snapshot in `dir`, sorted by sequence number.
pub fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut snaps = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| StoreError::io(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io(dir, e))?;
        if let Some((seq, 0)) = checkpoint_position(&entry.file_name().to_string_lossy(), EXT) {
            snaps.push((seq, entry.path()));
        }
    }
    snaps.sort_by_key(|&(seq, _)| seq);
    Ok(snaps)
}

/// Load the newest parseable snapshot in `dir`, walking the chain backwards
/// past any unreadable file (a crash can only damage the newest one, and
/// only on filesystems that reorder the rename).
pub fn load_latest(dir: &Path) -> Result<Option<(Snapshot, PathBuf)>, StoreError> {
    let snaps = list_snapshots(dir)?;
    for (_, path) in snaps.iter().rev() {
        let parsed = read_payload(path)
            .and_then(|payload| Snapshot::from_bytes(&payload).map_err(|e| e.corrupt_at(path)));
        if let Ok(snapshot) = parsed {
            return Ok(Some((snapshot, path.clone())));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsync_dir_reports_a_directory_it_cannot_open() {
        let missing =
            std::env::temp_dir().join(format!("asha-store-fsync-missing-{}", std::process::id()));
        let err = fsync_dir(&missing).unwrap_err();
        assert!(
            err.to_string().contains("asha-store-fsync-missing"),
            "{err}"
        );
        fsync_dir(&std::env::temp_dir()).unwrap();
        fsync_dir(Path::new("")).unwrap();
    }
}
