//! Incremental tailing of a live `binary-v2` WAL.
//!
//! A [`WalTail`] follows a WAL file that another process (or thread) is
//! appending to and yields each *complete* record exactly once, rendered
//! as its JSON line — so consumers (the service tailer fanning events out
//! to subscribers, ad-hoc follow tools) see one stable JSON surface. A tail
//! pointed at a path before the writer creates the file waits for it; a
//! file that is not a `binary-v2` WAL is an
//! [`InvalidData`](std::io::ErrorKind::InvalidData) error, never a second
//! dialect (stores from before the redesign are converted by
//! [`crate::upgrade`] when they are opened).
//!
//! Three realities of live WALs shape the API:
//!
//! * **Torn tails.** The writer may be mid-append when we poll. A record
//!   never yields until its full CRC-checked frame has landed, and a file
//!   still shorter than the magic stays pending, so a torn tail is simply
//!   "not yet".
//! * **Truncation / rewrite.** Crash recovery rewrites a WAL in place
//!   (temp file + rename), discarding a suffix. A shorter file is the
//!   obvious case, but not the only one: a live resume truncates the WAL
//!   and the (deterministic) run immediately regrows it, so between two
//!   polls the file can end up *longer* than the consumed offset with
//!   entirely different bytes at it. The tail therefore keeps a content
//!   anchor — the last consumed bytes — and re-verifies it against the
//!   file on every poll; a shrink or an anchor mismatch rewinds to the
//!   start and reports the rewind so the consumer can reset derived
//!   state.
//! * **Bounded reads.** Several tails may follow one file with a lagging
//!   reader capped at the lead reader's byte offset
//!   ([`WalTail::poll_to`]); offsets are plain byte positions, so the
//!   bound composes across tails.
//!
//! The tail re-opens the file on every poll, so it also survives the
//! rename-over-inode pattern used by crash-safe rewriters.

use std::io::{Read, Seek, SeekFrom};
use std::path::PathBuf;

use crate::format::{decode_step, DecodeStep, WAL_MAGIC};
use crate::wal::{StoreEvent, WalRecord};

/// What a consumer routing a rendered line needs to know about it, so it
/// never has to parse the line back: taken from the typed record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LineTag {
    /// The telemetry sequence number; `None` for store markers.
    pub seq: Option<u64>,
    /// Whether this is the `experiment_finished` marker.
    pub finished: bool,
}

impl LineTag {
    fn of_record(record: &WalRecord) -> LineTag {
        LineTag {
            seq: record.event().map(|event| event.seq),
            finished: matches!(
                record,
                WalRecord::Meta {
                    event: StoreEvent::ExperimentFinished,
                    ..
                }
            ),
        }
    }
}

/// What one [`WalTail::poll`] observed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WalChunk {
    /// Complete records in file order, each rendered as its JSON line (no
    /// trailing newline).
    pub lines: Vec<String>,
    /// One tag per entry of `lines`, in the same order.
    pub tags: Vec<LineTag>,
    /// True when the file shrank below the previous offset (it was
    /// truncated or rewritten) and the tail rewound to the start: `lines`
    /// begins at byte 0 again and the consumer should reset derived state.
    pub rewound: bool,
}

/// Follows a WAL file across appends, truncations, and rewrites.
#[derive(Debug)]
pub struct WalTail {
    path: PathBuf,
    /// Byte offset of the first byte not yet consumed as a complete
    /// record. Bytes held in `partial` count as consumed here, so a
    /// bounded follower given this offset re-reads and re-holds the same
    /// pending fragment.
    offset: u64,
    /// Bytes read past the last complete record, pending completion.
    partial: Vec<u8>,
    /// The last up-to-[`ANCHOR`] bytes of the consumed stream, ending at
    /// `offset`. Re-read from the file on every poll: a mismatch means
    /// the file was rewritten underneath us (even if it is now as long as
    /// or longer than `offset`) and the tail must rewind.
    anchor: Vec<u8>,
}

/// How many trailing consumed bytes are kept to detect rewrites. One CRC
/// plus a couple of frames' worth — an accidental 64-byte collision at
/// the same offset of a rewritten log is not a realistic event.
const ANCHOR: usize = 64;

impl WalTail {
    /// Tail `path` from the beginning (the first poll yields every
    /// complete record already in the file).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        WalTail {
            path: path.into(),
            offset: 0,
            partial: Vec::new(),
            anchor: Vec::new(),
        }
    }

    /// Byte offset of the next unconsumed byte (pending partial-record
    /// bytes included).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Read any new complete records. A missing file is not an error — the
    /// writer may not have created it yet — and yields an empty chunk; a
    /// file that does not start with the WAL magic is
    /// [`InvalidData`](std::io::ErrorKind::InvalidData), and the tail
    /// starts over on the next poll.
    pub fn poll(&mut self) -> std::io::Result<WalChunk> {
        self.poll_to(u64::MAX)
    }

    /// Like [`WalTail::poll`], but never reads past byte offset `limit`.
    ///
    /// Rewind detection still compares against the file's *real* length,
    /// so a truncating rewrite is noticed even when it happens beyond the
    /// limit.
    pub fn poll_to(&mut self, limit: u64) -> std::io::Result<WalChunk> {
        let mut file = match std::fs::File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalChunk::default()),
            Err(e) => return Err(e),
        };
        let real_len = file.metadata()?.len();
        let len = real_len.min(limit);
        let mut chunk = WalChunk::default();
        if real_len < self.offset || !self.anchor_matches(&mut file)? {
            // The file was truncated or rewritten: start over. The anchor
            // check catches the rewrite even when the new file has
            // already regrown past our offset (a live resume truncates
            // the WAL and the deterministic run re-extends it at full
            // speed, so a pure length comparison can race and miss it).
            self.restart();
            chunk.rewound = true;
        }
        if len <= self.offset {
            return Ok(chunk);
        }
        file.seek(SeekFrom::Start(self.offset))?;
        let mut buf = std::mem::take(&mut self.partial);
        let held = buf.len();
        file.take(len - self.offset).read_to_end(&mut buf)?;
        self.offset += (buf.len() - held) as u64;
        // The anchor tracks the consumed stream's trailing bytes, ending
        // at the (just advanced) offset. Partial bytes are file bytes
        // too, so they belong in it.
        let fresh = &buf[held..];
        let fresh = &fresh[fresh.len().saturating_sub(ANCHOR)..];
        self.anchor.extend_from_slice(fresh);
        self.anchor
            .drain(..self.anchor.len().saturating_sub(ANCHOR));

        // Consume complete records from the front of the pending buffer;
        // whatever remains is a torn tail that stays pending until a later
        // poll completes it. When the buffer starts at byte 0, the magic
        // comes first and counts as consumed prefix.
        let mut start = 0usize;
        let magic = WAL_MAGIC.as_slice();
        if self.offset == buf.len() as u64 {
            if buf.len() < magic.len() && magic.starts_with(&buf) {
                self.partial = buf;
                return Ok(chunk);
            }
            if !buf.starts_with(magic) {
                self.restart();
                // A consumer reset by this poll's rewind hears of it
                // first; the next poll reports the file.
                if chunk.rewound {
                    return Ok(chunk);
                }
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{}: not a binary-v2 WAL (no magic)", self.path.display()),
                ));
            }
            start = magic.len();
        }
        while start < buf.len() {
            match decode_step(&buf[start..]) {
                DecodeStep::Record { consumed, record } => {
                    start += consumed;
                    chunk.tags.push(LineTag::of_record(&record));
                    chunk.lines.push(record.render_jsonl());
                }
                // Incomplete: the writer is mid-append. Invalid or lost
                // mid-stream: hold position — either the bytes complete
                // into sense on a later poll or crash recovery rewrites
                // the file and we rewind.
                DecodeStep::Incomplete | DecodeStep::Invalid { .. } | DecodeStep::Lost(_) => break,
            }
        }
        self.partial = buf.split_off(start);
        Ok(chunk)
    }

    /// Forget everything consumed: the next poll reads from byte 0.
    fn restart(&mut self) {
        self.offset = 0;
        self.partial.clear();
        self.anchor.clear();
    }

    /// Check that the file still holds the consumed stream's trailing
    /// bytes at `[offset - anchor.len(), offset)`. A short read counts as
    /// a mismatch (the file is being swapped underneath us), not an
    /// error. Only called once `real_len >= offset`, so the seek target
    /// is in range.
    fn anchor_matches(&self, file: &mut std::fs::File) -> std::io::Result<bool> {
        if self.anchor.is_empty() {
            return Ok(true);
        }
        let mut on_disk = vec![0u8; self.anchor.len()];
        file.seek(SeekFrom::Start(self.offset - self.anchor.len() as u64))?;
        match file.read_exact(&mut on_disk) {
            Ok(()) => Ok(on_disk == self.anchor),
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(false),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::encode_wal;
    use crate::wal::SnapMarker;
    use asha_core::telemetry::{Event, EventKind};
    use asha_metrics::JsonValue;
    use std::io::Write;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("asha-store-tail-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ev(seq: u64) -> WalRecord {
        WalRecord::telemetry(Event {
            seq,
            time: seq as f64,
            kind: EventKind::WorkerIdle { idle: seq as usize },
        })
    }

    /// The service tailer's retired per-line parse, kept as the oracle a
    /// tag must agree with: what the rendered line says about itself.
    fn parse_rec(line: &str) -> LineTag {
        let value = JsonValue::parse(line).expect("rendered lines are JSON");
        LineTag {
            seq: value.get("seq").and_then(|s| s.as_u64()),
            finished: value.get("ev").and_then(|e| e.as_str()) == Some("experiment_finished"),
        }
    }

    fn meta(time: f64, event: StoreEvent) -> WalRecord {
        WalRecord::Meta { time, event }
    }

    /// One record of every kind the writer emits.
    fn every_kind() -> Vec<WalRecord> {
        vec![
            meta(
                0.0,
                StoreEvent::ExperimentCreated {
                    name: "demo".into(),
                },
            ),
            ev(0),
            WalRecord::telemetry(Event {
                seq: 1,
                time: 1.0,
                kind: EventKind::GrowBottom {
                    trial: 3,
                    bracket: 0,
                    resource: 1.0,
                },
            }),
            WalRecord::SnapshotMarker {
                time: 1.5,
                marker: SnapMarker::Full { snap: 1, events: 2 },
            },
            meta(2.0, StoreEvent::Paused),
            meta(2.0, StoreEvent::Resumed),
            ev(2),
            WalRecord::SnapshotMarker {
                time: 2.5,
                marker: SnapMarker::Delta {
                    snap: 1,
                    delta: 1,
                    events: 3,
                },
            },
            meta(3.0, StoreEvent::ExperimentFinished),
        ]
    }

    #[test]
    fn every_record_yields_its_line_tagged_as_the_line_reads() {
        let records = every_kind();
        let dir = tmpdir("kinds");
        let path = dir.join("wal.jsonl");
        std::fs::write(&path, encode_wal(&records)).unwrap();
        let chunk = WalTail::new(&path).poll().unwrap();
        assert!(!chunk.rewound);
        let want: Vec<String> = records.iter().map(WalRecord::render_jsonl).collect();
        assert_eq!(chunk.lines, want);
        let oracle: Vec<LineTag> = chunk.lines.iter().map(|l| parse_rec(l)).collect();
        assert_eq!(chunk.tags, oracle, "a tag is what its line says");
        let seqs: Vec<Option<u64>> = chunk.tags.iter().map(|t| t.seq).collect();
        assert_eq!(
            seqs,
            [
                None,
                Some(0),
                Some(1),
                None,
                None,
                None,
                Some(2),
                None,
                None
            ]
        );
        let finished: Vec<bool> = chunk.tags.iter().map(|t| t.finished).collect();
        assert_eq!(finished.iter().filter(|f| **f).count(), 1);
        assert!(finished[records.len() - 1]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn binary_torn_frame_stays_pending_until_complete() {
        let dir = tmpdir("torn");
        let path = dir.join("wal.jsonl");
        let records: Vec<WalRecord> = (0..3).map(ev).collect();
        let bytes = encode_wal(&records);
        // Cut mid-way through the final frame.
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let mut tail = WalTail::new(&path);
        assert_eq!(tail.poll().unwrap().lines.len(), 2);
        assert!(tail.poll().unwrap().lines.is_empty(), "torn frame pending");
        // Completing the frame releases exactly the third record.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&bytes[bytes.len() - 5..]).unwrap();
        drop(f);
        assert_eq!(tail.poll().unwrap().lines, vec![records[2].render_jsonl()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_magic_prefix_stays_pending() {
        let dir = tmpdir("prefix");
        let path = dir.join("wal.jsonl");
        let bytes = encode_wal(&[ev(0)]);
        // Only part of the magic on disk: nothing yields, nothing fails.
        std::fs::write(&path, &bytes[..4]).unwrap();
        let mut tail = WalTail::new(&path);
        assert_eq!(tail.poll().unwrap(), WalChunk::default());
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(tail.poll().unwrap().lines, vec![ev(0).render_jsonl()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A binary WAL whose first byte flipped is not a second dialect: every
    /// poll refuses it, after first reporting the rewind owed to a
    /// consumer that had read the file it replaced.
    #[test]
    fn poll_refuses_a_file_without_the_magic() {
        let dir = tmpdir("no-magic");
        let path = dir.join("wal.jsonl");
        let records: Vec<WalRecord> = (0..3).map(ev).collect();
        let good = encode_wal(&records);
        let mut bad = good.clone();
        bad[0] ^= 0x01;

        std::fs::write(&path, &bad).unwrap();
        let mut tail = WalTail::new(&path);
        for _ in 0..2 {
            let err = tail.poll().unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("wal.jsonl"), "{err}");
        }

        std::fs::write(&path, &good).unwrap();
        assert_eq!(tail.poll().unwrap().lines.len(), 3);
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &bad).unwrap();
        std::fs::rename(&tmp, &path).unwrap();
        let chunk = tail.poll().unwrap();
        assert!(chunk.rewound && chunk.lines.is_empty());
        assert_eq!(
            tail.poll().unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rewinds_after_truncating_rewrite() {
        let dir = tmpdir("rewind");
        let path = dir.join("wal.jsonl");
        let records: Vec<WalRecord> = (0..3).map(ev).collect();
        std::fs::write(&path, encode_wal(&records)).unwrap();
        let mut tail = WalTail::new(&path);
        assert_eq!(tail.poll().unwrap().lines.len(), 3);

        // Crash recovery rewrites the log shorter (rename-over pattern).
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, encode_wal(&records[..1])).unwrap();
        std::fs::rename(&tmp, &path).unwrap();
        let chunk = tail.poll().unwrap();
        assert!(chunk.rewound);
        assert_eq!(chunk.lines, vec![records[0].render_jsonl()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rewind_detected_when_rewrite_regrows_past_the_offset() {
        // The race from a live resume: the WAL is truncated at a marker
        // and the deterministic run immediately regrows it, so by the
        // next poll the file is *longer* than the consumed offset while
        // holding different bytes at it. Length comparison alone misses
        // this; the content anchor must catch it.
        let dir = tmpdir("regrow");
        let path = dir.join("wal.jsonl");
        let records: Vec<WalRecord> = (0..6).map(ev).collect();
        std::fs::write(&path, encode_wal(&records)).unwrap();
        let mut tail = WalTail::new(&path);
        assert_eq!(tail.poll().unwrap().lines.len(), 6);

        // Rewrite: keep the first two records, splice in a marker (the
        // `resumed` analogue, shifting every later byte), then regrow
        // well past the old end of file.
        let mut rewritten = vec![records[0].clone(), records[1].clone()];
        rewritten.push(WalRecord::Meta {
            time: 1.0,
            event: StoreEvent::Resumed,
        });
        rewritten.extend((2..20).map(ev));
        let bytes = encode_wal(&rewritten);
        assert!(
            bytes.len() as u64 > tail.offset(),
            "must regrow past the tail"
        );
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &bytes).unwrap();
        std::fs::rename(&tmp, &path).unwrap();

        let chunk = tail.poll().unwrap();
        assert!(chunk.rewound, "regrown rewrite must rewind the tail");
        let want: Vec<String> = rewritten.iter().map(|r| r.render_jsonl()).collect();
        assert_eq!(chunk.lines, want);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bounded_poll_stops_at_the_limit_and_resumes() {
        let dir = tmpdir("bounded");
        let path = dir.join("wal.jsonl");
        let records: Vec<WalRecord> = (0..3).map(ev).collect();
        let bytes = encode_wal(&records);
        std::fs::write(&path, &bytes).unwrap();
        let mut tail = WalTail::new(&path);
        // A limit cutting mid-frame yields only the records before it and
        // holds the cut prefix; raising the limit releases the rest.
        let limit = bytes.len() as u64 - 7;
        let chunk = tail.poll_to(limit).unwrap();
        assert_eq!(chunk.lines.len(), 2);
        assert_eq!(tail.offset(), limit);
        let chunk = tail.poll().unwrap();
        assert_eq!(chunk.lines, vec![records[2].render_jsonl()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn marker_records_render_with_store_fields() {
        let dir = tmpdir("markers");
        let path = dir.join("wal.jsonl");
        let records = every_kind();
        std::fs::write(&path, encode_wal(&records)).unwrap();
        let mut tail = WalTail::new(&path);
        let chunk = tail.poll().unwrap();
        assert_eq!(chunk.lines.len(), records.len());
        for (i, name) in [
            (0, "experiment_created"),
            (3, "snapshot"),
            (4, "paused"),
            (5, "resumed"),
            (7, "delta_snapshot"),
            (8, "experiment_finished"),
        ] {
            let line = &chunk.lines[i];
            assert!(line.contains(&format!("\"ev\":\"{name}\"")), "{line}");
            assert_eq!(chunk.tags[i].seq, None, "{name} is a marker, not telemetry");
            assert_eq!(chunk.tags[i].finished, name == "experiment_finished");
            assert_eq!(chunk.tags[i], parse_rec(line));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
