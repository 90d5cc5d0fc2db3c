//! The collecting recorder: buffers the event stream, stamps sequence
//! numbers, and keeps the online metrics registry up to date as events
//! arrive.

use std::io::Write;
use std::path::Path;

use asha_core::telemetry::{Event, EventKind, Recorder};

use crate::log::encode_jsonl;
use crate::metrics::MetricsRegistry;
use crate::report::RunReport;

/// A [`Recorder`] that collects every event into memory and folds it into a
/// [`MetricsRegistry`] as it arrives.
///
/// Sequence numbers are assigned here (0-based, gap-free), so emitters only
/// supply timestamps. In debug builds the recorder asserts the contract the
/// execution layers promise: timestamps never decrease within one run.
/// Recording performs one `Vec` push and an O(1) registry update per event —
/// no per-event allocation once the buffer has warmed up.
#[derive(Debug, Clone, Default)]
pub struct RunRecorder {
    events: Vec<Event>,
    metrics: MetricsRegistry,
    next_seq: u64,
    last_time: f64,
}

impl RunRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        RunRecorder {
            metrics: MetricsRegistry::new(),
            ..Default::default()
        }
    }

    /// The recorded events, in `seq` order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The online metrics derived from the stream so far.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Encode the whole run as a JSONL document.
    pub fn to_jsonl(&self) -> String {
        encode_jsonl(&self.events)
    }

    /// Write the JSONL event log to `path`, creating parent directories as
    /// needed.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn write_jsonl(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(self.to_jsonl().as_bytes())?;
        out.flush()
    }

    /// Like [`RunRecorder::write_jsonl`], but also fsync the file and its
    /// parent directory so the log survives a machine crash, not just a
    /// process crash.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn write_jsonl_durable(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        self.write_jsonl(path)?;
        crate::writer::sync_file_and_dir(path)
    }

    /// Summarize the recorded run (see [`RunReport`]). `workers` sizes the
    /// utilization denominator when the caller knows the pool size.
    pub fn report(&self, workers: Option<usize>) -> RunReport {
        RunReport::from_events(&self.events, workers)
    }
}

impl Recorder for RunRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, now: f64, kind: EventKind) {
        debug_assert!(
            now >= self.last_time,
            "telemetry clock went backwards: {now} < {}",
            self.last_time
        );
        self.last_time = now;
        let event = Event {
            seq: self.next_seq,
            time: now,
            kind,
        };
        debug_assert!(
            self.events.last().is_none_or(|prev| event.seq > prev.seq),
            "sequence numbers must strictly increase"
        );
        self.next_seq += 1;
        self.metrics.apply(&event);
        self.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assigns_gap_free_sequence_numbers() {
        let mut rec = RunRecorder::new();
        assert!(rec.enabled());
        assert!(rec.is_empty());
        for i in 0..5 {
            rec.record(i as f64, EventKind::WorkerIdle { idle: i });
        }
        assert_eq!(rec.len(), 5);
        let seqs: Vec<u64> = rec.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        assert_eq!(rec.metrics().idle_rounds.get(), 5);
    }

    #[test]
    #[should_panic(expected = "clock went backwards")]
    #[cfg(debug_assertions)]
    fn rejects_time_travel_in_debug_builds() {
        use asha_core::telemetry::IdleKind;
        let mut rec = RunRecorder::new();
        rec.record(1.0, EventKind::WorkerIdle { idle: 0 });
        rec.record(
            0.5,
            EventKind::Suggest {
                decision: IdleKind::Wait,
            },
        );
    }

    #[test]
    fn jsonl_output_round_trips() {
        let mut rec = RunRecorder::new();
        rec.record(
            0.0,
            EventKind::GrowBottom {
                trial: 0,
                bracket: 0,
                resource: 1.0,
            },
        );
        rec.record(
            0.0,
            EventKind::JobStart {
                trial: 0,
                bracket: 0,
                rung: 0,
                resource: 1.0,
            },
        );
        let text = rec.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        let back = crate::log::parse_jsonl(&text).unwrap();
        assert_eq!(back, rec.events());
    }

    #[test]
    fn writes_log_to_disk() {
        let dir = std::env::temp_dir().join("asha-obs-recorder-test");
        let path = dir.join("events.jsonl");
        let mut rec = RunRecorder::new();
        rec.record(0.0, EventKind::WorkerIdle { idle: 2 });
        rec.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, rec.to_jsonl());
        std::fs::remove_dir_all(&dir).ok();
    }
}
