//! Streaming, durability-aware JSONL event-log writing.
//!
//! [`RunRecorder::write_jsonl`](crate::RunRecorder::write_jsonl) serializes
//! a finished in-memory run in one shot; this module covers the other two
//! needs: streaming events to disk *while* a run progresses, and making the
//! written bytes survive a crash. Durability is explicit — [`Durability`]
//! picks between flushing to the OS (survives a process crash) and fsyncing
//! (survives a machine crash) — and the writer flushes on drop so a cleanly
//! exiting process never loses buffered lines.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

pub use asha_core::Durability;

/// An append-only JSONL event-log writer with explicit durability.
///
/// Lines are buffered; [`JsonlWriter::commit`] (or drop) makes everything
/// appended so far durable at the configured [`Durability`] level. The
/// encoding matches [`encode_event`](crate::encode_event), so files written
/// here parse back with [`parse_jsonl`](crate::parse_jsonl) and are
/// byte-identical to
/// `RunRecorder::write_jsonl` output for
/// the same event stream.
#[derive(Debug)]
pub struct JsonlWriter {
    out: BufWriter<File>,
    durability: Durability,
    written: u64,
    /// Lines committed since the last fsync (drives
    /// [`Durability::EveryN`]'s cadence).
    since_sync: usize,
}

impl JsonlWriter {
    /// Create (truncating) a JSONL log at `path`, creating parent
    /// directories as needed.
    pub fn create(path: impl AsRef<Path>, durability: Durability) -> std::io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        Ok(JsonlWriter {
            out: BufWriter::new(File::create(path)?),
            durability,
            written: 0,
            since_sync: 0,
        })
    }

    /// Events appended so far.
    #[cfg(test)]
    pub(crate) fn written(&self) -> u64 {
        self.written
    }

    /// Append one event as a JSONL line (buffered; see
    /// [`JsonlWriter::commit`]).
    #[cfg(test)]
    pub(crate) fn append(&mut self, event: &asha_core::telemetry::Event) -> std::io::Result<()> {
        self.out
            .write_all(crate::log::encode_event(event).as_bytes())?;
        self.out.write_all(b"\n")?;
        self.written += 1;
        Ok(())
    }

    /// Append one pre-encoded JSONL line (no trailing newline expected).
    ///
    /// For logs that are JSONL but not telemetry events — the service
    /// daemon's request/response trace streams through this, with the same
    /// buffering and [`Durability`] as an event line.
    pub fn append_raw(&mut self, line: &str) -> std::io::Result<()> {
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n")?;
        self.written += 1;
        Ok(())
    }

    /// Make everything appended so far durable at the configured level:
    /// flush to the OS, plus `fsync` on [`Durability`]'s cadence (every
    /// commit under `Sync`, every Nth under `EveryN`, never under `Flush`).
    pub fn commit(&mut self) -> std::io::Result<()> {
        self.out.flush()?;
        self.since_sync += 1;
        if self.durability.fsync_due(self.since_sync) {
            self.out.get_ref().sync_all()?;
            self.since_sync = 0;
        }
        Ok(())
    }

    /// Commit and close, surfacing any final I/O error (drop would swallow
    /// it).
    #[cfg(test)]
    pub(crate) fn finish(mut self) -> std::io::Result<()> {
        self.commit()
    }
}

impl Drop for JsonlWriter {
    fn drop(&mut self) {
        // Best effort: finish() reports errors, drop cannot.
        let _ = self.commit();
    }
}

/// Fsync `path` and its parent directory, upgrading an already-written log
/// to machine-crash durability (used by `RunRecorder::write_jsonl_durable`).
pub(crate) fn sync_file_and_dir(path: &Path) -> std::io::Result<()> {
    File::open(path)?.sync_all()?;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            // Directory fsync is what makes the new file's entry durable on
            // POSIX; platforms that refuse to open directories degrade
            // gracefully to writeback.
            if let Ok(dir) = File::open(parent) {
                let _ = dir.sync_all();
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use asha_core::telemetry::{Event, EventKind};

    fn ev(seq: u64) -> Event {
        Event {
            seq,
            time: seq as f64,
            kind: EventKind::WorkerIdle { idle: seq as usize },
        }
    }

    #[test]
    fn streamed_log_matches_batch_encoding() {
        let dir = std::env::temp_dir().join(format!("asha-obs-writer-{}", std::process::id()));
        let path = dir.join("events.jsonl");
        let events: Vec<Event> = (0..4).map(ev).collect();
        {
            let mut w = JsonlWriter::create(&path, Durability::Sync).unwrap();
            for e in &events {
                w.append(e).unwrap();
            }
            assert_eq!(w.written(), 4);
            w.finish().unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, crate::log::encode_jsonl(&events));
        assert_eq!(crate::log::parse_jsonl(&text).unwrap(), events);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drop_flushes_buffered_lines() {
        let dir = std::env::temp_dir().join(format!("asha-obs-writer-drop-{}", std::process::id()));
        let path = dir.join("events.jsonl");
        {
            let mut w = JsonlWriter::create(&path, Durability::Flush).unwrap();
            w.append(&ev(0)).unwrap();
            // No commit: drop must flush.
        }
        assert_eq!(
            crate::log::parse_jsonl(&std::fs::read_to_string(&path).unwrap())
                .unwrap()
                .len(),
            1
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
