//! Structured run telemetry for asha: collect the scheduling-event stream
//! defined in [`asha_core::telemetry`], maintain online metrics over it, and
//! turn event logs into reports.
//!
//! The paper's central claims are about scheduling dynamics — how quickly
//! promotable configurations move up the rungs and how busy a large worker
//! pool stays while they do. This crate makes those dynamics inspectable
//! for any run:
//!
//! * [`RunRecorder`] — the collecting [`Recorder`]: buffers every event and
//!   stamps gap-free sequence numbers; [`RunRecorder::report`] folds them.
//!   Plug it into `ClusterSim::run_recorded` or
//!   `ParallelTuner::run_recorded`.
//! * `log` — the JSONL event-log codec: deterministic one-line-per-event
//!   encoding (same seed ⇒ byte-identical log) and a strict parser.
//! * [`MetricsRegistry`] — counters (decisions by kind, promotions per
//!   rung), gauges (rung occupancy, pending promotions, busy workers), and
//!   fixed-bucket [`Histogram`]s (promotion wait, job latency, retry queue
//!   delay), all updated in O(1) per event.
//! * [`RunReport`] — replays an event stream into a per-rung promotion
//!   table, latency quantiles, and a worker-utilization timeline, as text
//!   or JSON (consumed by the `run_report` binary in `asha-bench`).
//!
//! # Example
//!
//! Record a simulated run and summarize it:
//!
//! ```
//! use asha_obs::RunRecorder;
//! use asha_core::telemetry::EventKind;
//! use asha_core::Recorder as _;
//!
//! let mut recorder = RunRecorder::new();
//! recorder.record(
//!     0.0,
//!     EventKind::GrowBottom { trial: 0, bracket: 0, resource: 1.0 },
//! );
//! recorder.record(
//!     0.0,
//!     EventKind::JobStart { trial: 0, bracket: 0, rung: 0, resource: 1.0 },
//! );
//! recorder.record(
//!     2.5,
//!     EventKind::JobEnd { trial: 0, rung: 0, resource: 1.0, loss: 0.4 },
//! );
//!
//! let log = recorder.to_jsonl();
//! assert_eq!(log.lines().count(), 3);
//! let report = recorder.report(Some(1));
//! assert_eq!(report.metrics().jobs_completed.get(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod log;
mod metrics;
mod recorder;
mod report;
pub mod shared;
mod writer;

pub use crate::log::{encode_event, encode_event_into, event_from_json, parse_jsonl, LogError};
pub use crate::metrics::{Histogram, MetricsRegistry};
pub use crate::recorder::RunRecorder;
pub use crate::report::RunReport;
pub use crate::shared::{HistogramSnapshot, SharedCounter, SharedGauge, SharedHistogram};
pub use crate::writer::JsonlWriter;

// Re-export the core vocabulary so downstream users need only this crate.
pub use asha_core::telemetry::{DropCause, Event, EventKind, IdleKind, NoopRecorder, Recorder};
