//! Streaming JSONL log writing.
//!
//! [`RunRecorder::write_jsonl`](crate::RunRecorder::write_jsonl) serializes
//! a finished in-memory run in one shot; this module streams lines to disk
//! *while* a process runs — the service daemon's request trace and its
//! slow-request log. Each commit flushes to the OS, so a process crash
//! loses nothing committed; nothing is fsynced, so a machine crash may
//! lose the writeback window (the WAL, which must survive one, has its own
//! writer and [`asha_core::Durability`]). The writer flushes on drop too,
//! so a cleanly exiting process never loses buffered lines.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// An append-only JSONL log writer that flushes to the OS on every
/// [`JsonlWriter::commit`] and on drop.
#[derive(Debug)]
pub struct JsonlWriter {
    out: BufWriter<File>,
}

impl JsonlWriter {
    /// Create (truncating) a JSONL log at `path`, creating parent
    /// directories as needed.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        Ok(JsonlWriter {
            out: BufWriter::new(File::create(path)?),
        })
    }

    /// Append one pre-encoded JSONL line (no trailing newline expected);
    /// buffered until [`JsonlWriter::commit`].
    pub fn append_raw(&mut self, line: &str) -> std::io::Result<()> {
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n")
    }

    /// Flush everything appended so far to the OS.
    pub fn commit(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}

impl Drop for JsonlWriter {
    fn drop(&mut self) {
        // Best effort: commit() reports errors, drop cannot.
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
        let mut w = JsonlWriter::create(&path).unwrap();
        for e in &events {
            w.append_raw(&crate::log::encode_event(e)).unwrap();
        }
        w.commit().unwrap();
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
            let mut w = JsonlWriter::create(&path).unwrap();
            w.append_raw(&crate::log::encode_event(&ev(0))).unwrap();
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
