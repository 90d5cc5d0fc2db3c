//! The write-ahead event log: durable typed records.
//!
//! A WAL holds one stream of [`WalRecord`]s — [`WalRecord::Telemetry`]
//! events (scheduler decisions and execution-plane events alike), snapshot
//! markers (full and delta), and experiment-lifecycle [`WalRecord::Meta`]
//! events. How records become bytes is [`crate::format`]'s business: the
//! writer appends `binary-v2` length-prefixed CRC-guarded frames after the
//! file's magic, and the reader reads nothing else (a pre-redesign
//! `jsonl-v1` WAL is converted by [`crate::upgrade`] first).
//!
//! Durability follows a [`Durability`] policy: appends always reach the OS
//! (flushed through the userspace buffer at each commit point), and
//! `fsync` is issued per policy so a machine crash loses at most the
//! configured window. [`WalWriter::sync`] is the only place the log is
//! fsynced, and its error is always returned. A process crash mid-append
//! can leave a *torn tail* — a partial final record — which the reader
//! tolerates by discarding it; any damage *before* the tail is real
//! corruption and is reported as an error.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

pub use asha_core::Durability;
use asha_metrics::{push_json_f64, push_json_str, push_json_u64};
use asha_obs::Event;

use crate::format::{decode_step, encode_record, encode_wal, DecodeStep, EncodeBuf, WAL_MAGIC};
use asha_core::Error;

/// An experiment-lifecycle record (everything that is neither telemetry
/// nor a snapshot marker).
#[derive(Debug, Clone, PartialEq)]
pub enum StoreEvent {
    /// The experiment directory was initialized.
    ExperimentCreated {
        /// The experiment's name.
        name: String,
    },
    /// The experiment was paused by the supervisor.
    Paused,
    /// The experiment was resumed (after a pause or a crash recovery).
    Resumed,
    /// The experiment ran to completion.
    ExperimentFinished,
}

impl StoreEvent {
    /// Stable lowercase name used in the JSONL `ev` field.
    pub fn name(&self) -> &'static str {
        match self {
            StoreEvent::ExperimentCreated { .. } => "experiment_created",
            StoreEvent::Paused => "paused",
            StoreEvent::Resumed => "resumed",
            StoreEvent::ExperimentFinished => "experiment_finished",
        }
    }
}

/// A durably recorded checkpoint marker. The marker is appended only
/// *after* the checkpoint file it names is durable, so the newest marker
/// in a WAL always points at a loadable recovery point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapMarker {
    /// A full snapshot file (`snap-<snap>.<ext>`).
    Full {
        /// The snapshot's sequence number.
        snap: u64,
        /// Telemetry events the snapshot covers; WAL replay starts after
        /// this many telemetry records.
        events: u64,
    },
    /// A delta snapshot (`delta-<snap>-<delta>.<ext>`): a state diff on
    /// top of full snapshot `snap` and the `delta - 1` deltas before it.
    Delta {
        /// The chain's base full-snapshot sequence number.
        snap: u64,
        /// Position in the chain (1-based).
        delta: u64,
        /// Telemetry events covered after applying the whole chain.
        events: u64,
    },
}

impl SnapMarker {
    /// Telemetry events covered by this checkpoint.
    pub fn events(&self) -> u64 {
        match self {
            SnapMarker::Full { events, .. } | SnapMarker::Delta { events, .. } => *events,
        }
    }

    /// The base full snapshot's sequence number.
    pub fn snap(&self) -> u64 {
        match self {
            SnapMarker::Full { snap, .. } | SnapMarker::Delta { snap, .. } => *snap,
        }
    }

    /// Chain position: 0 for a full snapshot, 1-based for deltas.
    pub fn delta(&self) -> u64 {
        match self {
            SnapMarker::Full { .. } => 0,
            SnapMarker::Delta { delta, .. } => *delta,
        }
    }
}

/// One typed WAL record. Codecs serialize these — call sites never hand
/// the writer free-form JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A telemetry event: a scheduler decision (`suggest` / `promote` /
    /// `grow_bottom`) or an execution-plane event (job lifecycle, faults,
    /// idle workers).
    Telemetry(Event),
    /// A checkpoint became durable.
    SnapshotMarker {
        /// Timestamp on the run's clock (simulated time).
        time: f64,
        /// Which checkpoint.
        marker: SnapMarker,
    },
    /// An experiment-lifecycle event.
    Meta {
        /// Timestamp on the run's clock (simulated time).
        time: f64,
        /// The event.
        event: StoreEvent,
    },
}

impl WalRecord {
    /// The telemetry event inside, if this is a telemetry record.
    pub fn event(&self) -> Option<&Event> {
        match self {
            WalRecord::Telemetry(event) => Some(event),
            _ => None,
        }
    }

    /// Render this record as its JSON line (no trailing newline), the
    /// line the retired `jsonl-v1` writer put on disk. `store_inspect`
    /// dumps WALs through this, and the service tailer uses it to fan
    /// records out as JSON events. Never written to a store file.
    pub fn render_jsonl(&self) -> String {
        // A line grown from empty reallocates five times on its way to the
        // ~100 bytes of an event; the tail renders one per record. The room
        // past that holds the push envelope the service's tailer writes in
        // front of the line, in place.
        let mut out = String::with_capacity(192);
        match self {
            WalRecord::Telemetry(event) => {
                asha_obs::encode_event_into(&mut out, event);
            }
            WalRecord::SnapshotMarker { time, marker } => {
                out.push_str(match marker {
                    SnapMarker::Full { .. } => "{\"ev\":\"snapshot\",\"t\":",
                    SnapMarker::Delta { .. } => "{\"ev\":\"delta_snapshot\",\"t\":",
                });
                push_json_f64(&mut out, *time);
                out.push_str(",\"snap\":");
                push_json_u64(&mut out, marker.snap());
                if let SnapMarker::Delta { delta, .. } = marker {
                    out.push_str(",\"delta\":");
                    push_json_u64(&mut out, *delta);
                }
                out.push_str(",\"events\":");
                push_json_u64(&mut out, marker.events());
                out.push('}');
            }
            WalRecord::Meta { time, event } => {
                out.push_str("{\"ev\":");
                push_json_str(&mut out, event.name());
                out.push_str(",\"t\":");
                push_json_f64(&mut out, *time);
                if let StoreEvent::ExperimentCreated { name } = event {
                    out.push_str(",\"name\":");
                    push_json_str(&mut out, name);
                }
                out.push('}');
            }
        }
        out
    }
}

/// Append-only writer for a WAL file.
///
/// Appends go through a userspace buffer that is flushed to the OS at every
/// commit point crossing [`Durability`]'s fsync cadence, and unconditionally
/// on [`WalWriter::sync`] and on drop (so a cleanly exiting process never
/// loses records even with [`Durability::Flush`]).
#[derive(Debug)]
pub struct WalWriter {
    file: BufWriter<File>,
    path: PathBuf,
    policy: Durability,
    since_sync: usize,
    telemetry_appended: u64,
    telemetry_bytes: u64,
    buf: EncodeBuf,
    /// Optional durability-plane metrics; `None` (the default) keeps
    /// clock reads off the append path entirely.
    metrics: Option<std::sync::Arc<crate::StoreMetrics>>,
}

impl WalWriter {
    /// Create a fresh `binary-v2` WAL (truncating any existing file). The
    /// magic is written and flushed immediately: a file this writer left
    /// lacks it only when the process died before those 8 bytes landed.
    pub fn create(path: &Path, policy: Durability) -> Result<Self, Error> {
        let file = File::create(path).map_err(|e| Error::io(path, e))?;
        WalWriter::from_file(file, path, policy, 0).with_magic()
    }

    /// Open an existing `binary-v2` WAL for appending (a missing or empty
    /// file is started fresh).
    /// `telemetry_so_far` seeds the telemetry counter (the recovered event
    /// count), so snapshot markers written after recovery carry correct
    /// positions.
    pub(crate) fn open_append(
        path: &Path,
        policy: Durability,
        telemetry_so_far: u64,
    ) -> Result<Self, Error> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| Error::io(path, e))?;
        let empty = file.metadata().map_err(|e| Error::io(path, e))?.len() == 0;
        let writer = WalWriter::from_file(file, path, policy, telemetry_so_far);
        if empty {
            writer.with_magic()
        } else {
            Ok(writer)
        }
    }

    fn from_file(file: File, path: &Path, policy: Durability, telemetry_so_far: u64) -> Self {
        WalWriter {
            file: BufWriter::new(file),
            path: path.to_owned(),
            policy,
            since_sync: 0,
            telemetry_appended: telemetry_so_far,
            telemetry_bytes: 0,
            buf: EncodeBuf::default(),
            metrics: None,
        }
    }

    fn with_magic(mut self) -> Result<Self, Error> {
        self.file
            .write_all(WAL_MAGIC)
            .map_err(|e| Error::io(&self.path, e))?;
        self.flush()?;
        Ok(self)
    }

    /// Attach durability-plane histograms; subsequent appends and fsyncs
    /// record their latency into `metrics`.
    pub(crate) fn set_metrics(&mut self, metrics: std::sync::Arc<crate::StoreMetrics>) {
        self.metrics = Some(metrics);
    }

    /// Telemetry events written (including any recovered count passed to
    /// [`WalWriter::open_append`]).
    #[cfg(test)]
    pub(crate) fn telemetry_appended(&self) -> u64 {
        self.telemetry_appended
    }

    /// Bytes of the telemetry records this writer appended — frames of
    /// [`WalRecord::Telemetry`] only, never markers or lifecycle records,
    /// and counted from 0 at open. A run that regenerates the same events
    /// after recovery counts the same bytes, which is what lets the
    /// amortised checkpoint rule ([`crate::RunOptions`]) repeat across a
    /// crash.
    pub(crate) fn telemetry_bytes(&self) -> u64 {
        self.telemetry_bytes
    }

    /// Append one record. This is the only write entry point: every call
    /// site hands the writer a typed [`WalRecord`], and [`encode_record`]
    /// owns the bytes.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), Error> {
        let start = self.metrics.is_some().then(std::time::Instant::now);
        encode_record(record, &mut self.buf);
        self.file
            .write_all(&self.buf.bytes)
            .map_err(|e| Error::io(&self.path, e))?;
        if matches!(record, WalRecord::Telemetry(_)) {
            self.telemetry_appended += 1;
            self.telemetry_bytes += self.buf.bytes.len() as u64;
        }
        self.since_sync += 1;
        if self.policy.fsync_due(self.since_sync) {
            self.sync()?;
        }
        if let (Some(m), Some(t0)) = (&self.metrics, start) {
            m.wal_append.observe_duration(t0.elapsed());
        }
        Ok(())
    }

    /// Flush userspace buffers to the OS (no fsync).
    pub(crate) fn flush(&mut self) -> Result<(), Error> {
        self.file.flush().map_err(|e| Error::io(&self.path, e))
    }

    /// Flush and fsync: every appended record is crash-durable when this
    /// returns `Ok`.
    pub fn sync(&mut self) -> Result<(), Error> {
        let start = self.metrics.is_some().then(std::time::Instant::now);
        self.flush()?;
        self.file
            .get_ref()
            .sync_all()
            .map_err(|e| Error::io(&self.path, e))?;
        self.since_sync = 0;
        if let (Some(m), Some(t0)) = (&self.metrics, start) {
            m.wal_fsync.observe_duration(t0.elapsed());
        }
        Ok(())
    }
}

impl Drop for WalWriter {
    fn drop(&mut self) {
        // Best effort: a cleanly dropped writer leaves nothing in userspace
        // buffers, and syncs so even Durability::Flush survives a machine
        // crash shortly after exit.
        let _ = self.sync();
    }
}

/// A checkpoint reference resolved from WAL markers: full snapshot `snap`
/// plus `delta` chained diffs, covering `events` telemetry events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkerRef {
    /// The base full snapshot's sequence number.
    pub snap: u64,
    /// How many deltas to apply on top (0 = the full snapshot itself).
    pub delta: u64,
    /// Telemetry events covered.
    pub events: u64,
}

/// The parsed contents of a WAL file.
#[derive(Debug, Clone, PartialEq)]
pub struct WalContents {
    /// Every well-formed record, in append order.
    pub records: Vec<WalRecord>,
    /// Whether a torn (partial or damaged) tail was discarded.
    pub torn_tail: bool,
}

impl WalContents {
    /// The telemetry events only, in append order.
    pub fn telemetry(&self) -> impl Iterator<Item = &Event> {
        self.records.iter().filter_map(WalRecord::event)
    }

    /// Number of telemetry events.
    #[cfg(test)]
    pub(crate) fn telemetry_len(&self) -> u64 {
        self.telemetry().count() as u64
    }

    /// The last durably recorded checkpoint marker, if any.
    pub fn last_snapshot_marker(&self) -> Option<MarkerRef> {
        self.records.iter().rev().find_map(|r| match r {
            WalRecord::SnapshotMarker { marker, .. } => Some(MarkerRef {
                snap: marker.snap(),
                delta: marker.delta(),
                events: marker.events(),
            }),
            _ => None,
        })
    }
}

/// Read a `binary-v2` WAL file, tolerating a torn tail: damage at the very
/// end (a short or CRC-failing last frame) is discarded, damage followed by
/// a valid record is corruption. A file shorter than the magic that is a
/// prefix of it (a crash before the magic landed) reads as empty; any other
/// file without the magic is corrupt.
pub fn read_wal(path: &Path) -> Result<WalContents, Error> {
    let bytes = std::fs::read(path).map_err(|e| Error::io(path, e))?;
    if !bytes.starts_with(WAL_MAGIC) && !WAL_MAGIC.starts_with(&bytes) {
        return Err(Error::corrupt(path, "not a binary-v2 WAL (no magic)"));
    }
    let mut records = Vec::new();
    let mut torn_tail = !bytes.is_empty() && bytes.len() < WAL_MAGIC.len();
    // The first damaged record: a torn tail unless a valid record follows.
    let mut damage = None;
    let mut pos = WAL_MAGIC.len();
    while pos < bytes.len() {
        let at = records.len() + 1;
        match decode_step(&bytes[pos..]) {
            DecodeStep::Record { consumed, record } => {
                if let Some(why) = damage {
                    return Err(Error::corrupt(path, why));
                }
                records.push(record);
                pos += consumed;
            }
            DecodeStep::Invalid { consumed, why } => {
                damage.get_or_insert(format!("record {at}: {why}"));
                pos += consumed;
            }
            // Destroyed framing cannot come from a torn append (partial
            // writes decode as Incomplete): before any damage, corruption.
            DecodeStep::Lost(why) if damage.is_none() => {
                return Err(Error::corrupt(path, format!("record {at}: {why}")));
            }
            DecodeStep::Incomplete | DecodeStep::Lost(_) => {
                torn_tail = true;
                break;
            }
        }
    }
    torn_tail |= damage.is_some();
    Ok(WalContents { records, torn_tail })
}

/// Rewrite the WAL at `wal_path` to end exactly at the record for
/// checkpoint `marker` (crash-safe: temp file + fsync + rename): recovery's
/// suffix discard. No-op when the marker is the final record and the tail
/// is clean.
pub(crate) fn rewrite_to_marker(
    wal_path: &Path,
    contents: &WalContents,
    marker: MarkerRef,
) -> Result<(), Error> {
    let marker_idx = contents
        .records
        .iter()
        .rposition(|r| {
            matches!(
                r,
                WalRecord::SnapshotMarker { marker: m, .. }
                    if m.snap() == marker.snap && m.delta() == marker.delta
            )
        })
        .ok_or_else(|| Error::corrupt(wal_path, "checkpoint marker vanished"))?;
    if marker_idx + 1 == contents.records.len() && !contents.torn_tail {
        return Ok(());
    }
    let (Some(dir), Some(name)) = (wal_path.parent(), wal_path.file_name()) else {
        return Err(Error::corrupt(wal_path, "WAL path names no file"));
    };
    let bytes = encode_wal(&contents.records[..=marker_idx]);
    crate::snapshot::write_atomic(dir, &name.to_string_lossy(), &[&bytes]).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use asha_core::telemetry::EventKind;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("asha-store-wal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ev(seq: u64, time: f64) -> Event {
        Event {
            seq,
            time,
            kind: EventKind::GrowBottom {
                trial: seq,
                bracket: 0,
                resource: 1.0,
            },
        }
    }

    #[test]
    fn every_n_fsyncs_inline_on_the_nth_append() {
        let dir = tmpdir("every-n");
        let mut wal = WalWriter::create(&dir.join("wal"), Durability::EveryN(2)).unwrap();
        let metrics = crate::StoreMetrics::new();
        wal.set_metrics(std::sync::Arc::clone(&metrics));
        wal.append(&WalRecord::Telemetry(ev(0, 0.0))).unwrap();
        assert_eq!(metrics.wal_fsync.snapshot().count(), 0);
        wal.append(&WalRecord::Telemetry(ev(1, 0.5))).unwrap();
        assert_eq!(metrics.wal_fsync.snapshot().count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `/dev/null` takes every write and refuses `fsync` (`EINVAL`): the
    /// one failure here is the fsync itself, and it must reach the caller
    /// from `sync` and from an append whose policy made an fsync due.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_fsync_is_returned_not_swallowed() {
        let path = Path::new("/dev/null");
        let mut wal = WalWriter::open_append(path, Durability::Sync, 0).unwrap();
        let metrics = crate::StoreMetrics::new();
        wal.set_metrics(std::sync::Arc::clone(&metrics));
        let err = wal.sync().unwrap_err();
        assert_eq!(err.kind(), crate::ErrorKind::Io);
        assert_eq!(err.path(), Some(path));
        assert!(wal.append(&WalRecord::Telemetry(ev(0, 0.0))).is_err());
        assert_eq!(metrics.wal_fsync.snapshot().count(), 0);
    }

    #[test]
    fn wal_reads_telemetry_and_store_events() {
        let records = vec![
            WalRecord::Meta {
                time: 0.0,
                event: StoreEvent::ExperimentCreated {
                    name: "exp".to_owned(),
                },
            },
            WalRecord::Telemetry(ev(0, 0.0)),
            WalRecord::Telemetry(ev(1, 0.5)),
            WalRecord::SnapshotMarker {
                time: 0.5,
                marker: SnapMarker::Full { snap: 0, events: 2 },
            },
            WalRecord::SnapshotMarker {
                time: 0.75,
                marker: SnapMarker::Delta {
                    snap: 0,
                    delta: 1,
                    events: 2,
                },
            },
            WalRecord::Meta {
                time: 1.0,
                event: StoreEvent::ExperimentFinished,
            },
        ];
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal");
        {
            let mut wal = WalWriter::create(&path, Durability::Sync).unwrap();
            for record in &records {
                wal.append(record).unwrap();
            }
            assert_eq!(wal.telemetry_appended(), 2);
        }
        let contents = read_wal(&path).unwrap();
        assert!(!contents.torn_tail);
        assert_eq!(contents.records, records);
        assert_eq!(contents.telemetry_len(), 2);
        assert_eq!(
            contents.last_snapshot_marker(),
            Some(MarkerRef {
                snap: 0,
                delta: 1,
                events: 2
            })
        );

        // Appending continues the binary file; a missing file starts fresh.
        for path in [path, dir.join("fresh")] {
            let before = read_wal(&path).map_or(0, |c| c.telemetry_len());
            {
                let mut wal = WalWriter::open_append(&path, Durability::Flush, before).unwrap();
                wal.append(&WalRecord::Telemetry(ev(before, 2.0))).unwrap();
                assert_eq!(wal.telemetry_appended(), before + 1);
            }
            let contents = read_wal(&path).unwrap();
            assert!(std::fs::read(&path).unwrap().starts_with(WAL_MAGIC));
            assert_eq!(contents.telemetry_len(), before + 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `telemetry_bytes` counts the frames of telemetry records only —
    /// markers and lifecycle records (`resumed` among them) leave it alone —
    /// and a reopened writer counts from 0.
    #[test]
    fn telemetry_bytes_count_telemetry_frames_only() {
        let dir = tmpdir("telemetry-bytes");
        let path = dir.join("wal");
        let records = [
            WalRecord::Meta {
                time: 0.0,
                event: StoreEvent::ExperimentCreated {
                    name: "exp".to_owned(),
                },
            },
            WalRecord::Telemetry(ev(0, 0.0)),
            WalRecord::SnapshotMarker {
                time: 0.5,
                marker: SnapMarker::Full { snap: 0, events: 1 },
            },
            WalRecord::Meta {
                time: 0.5,
                event: StoreEvent::Resumed,
            },
            WalRecord::Telemetry(ev(1, 0.75)),
        ];
        let mut wal = WalWriter::create(&path, Durability::Flush).unwrap();
        let (mut frame, mut expected) = (EncodeBuf::default(), 0);
        for record in &records {
            wal.append(record).unwrap();
            if record.event().is_some() {
                encode_record(record, &mut frame);
                expected += frame.bytes.len() as u64;
            }
            assert_eq!(wal.telemetry_bytes(), expected, "after {record:?}");
        }
        drop(wal);
        let reopened = WalWriter::open_append(&path, Durability::Flush, 2).unwrap();
        assert_eq!(reopened.telemetry_bytes(), 0);
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A binary WAL whose first byte flipped is not a second dialect: it
    /// is refused, with the file named.
    #[test]
    fn read_wal_refuses_a_file_without_the_magic() {
        let dir = tmpdir("no-magic");
        let path = dir.join("wal.jsonl");
        let mut bytes = encode_wal(&[WalRecord::Telemetry(ev(0, 0.0))]);
        bytes[0] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_wal(&path).unwrap_err();
        assert_eq!(err.kind(), asha_core::ErrorKind::Corrupt);
        assert_eq!(err.path(), Some(path.as_path()));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A crash between creating the file and writing its magic leaves a
    /// prefix of the magic: an empty log, torn when any byte landed.
    #[test]
    fn read_wal_reads_a_magic_prefix_as_empty() {
        let dir = tmpdir("magic-prefix");
        let path = dir.join("wal.jsonl");
        for cut in 0..WAL_MAGIC.len() {
            std::fs::write(&path, &WAL_MAGIC[..cut]).unwrap();
            let contents = read_wal(&path).unwrap();
            assert!(contents.records.is_empty(), "cut at {cut}");
            assert_eq!(contents.torn_tail, cut > 0, "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn binary_torn_tail_and_crc_damage() {
        let dir = tmpdir("binary-torn");
        let path = dir.join("wal.bin");
        {
            let mut wal = WalWriter::create(&path, Durability::Flush).unwrap();
            for i in 0..4 {
                wal.append(&WalRecord::Telemetry(ev(i, i as f64))).unwrap();
            }
        }
        let clean = std::fs::read(&path).unwrap();

        // A truncated final frame is a torn tail.
        std::fs::write(&path, &clean[..clean.len() - 3]).unwrap();
        let contents = read_wal(&path).unwrap();
        assert!(contents.torn_tail);
        assert_eq!(contents.telemetry_len(), 3);

        // A flipped bit in the final record: CRC failure at EOF, torn tail.
        let mut tail_flip = clean.clone();
        let n = tail_flip.len();
        tail_flip[n - 6] ^= 0x01;
        std::fs::write(&path, &tail_flip).unwrap();
        let contents = read_wal(&path).unwrap();
        assert!(contents.torn_tail);
        assert_eq!(contents.telemetry_len(), 3);

        // The same flip mid-file (valid records after it) is corruption.
        let mut mid_flip = clean.clone();
        mid_flip[12] ^= 0x01;
        std::fs::write(&path, &mid_flip).unwrap();
        assert_eq!(
            read_wal(&path).unwrap_err().kind(),
            asha_core::ErrorKind::Corrupt
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_n_policy_counts_records() {
        let dir = tmpdir("everyn");
        let path = dir.join("wal.jsonl");
        let mut wal = WalWriter::create(&path, Durability::EveryN(2)).unwrap();
        for i in 0..5 {
            wal.append(&WalRecord::Telemetry(ev(i, i as f64))).unwrap();
        }
        // Records are at least flushed per policy; all 5 parse back after a
        // plain flush (the buffered tail).
        wal.flush().unwrap();
        let contents = read_wal(&path).unwrap();
        assert_eq!(contents.telemetry_len(), 5);
        drop(wal);
        std::fs::remove_dir_all(&dir).ok();
    }
}
