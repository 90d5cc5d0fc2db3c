//! Run traces, incumbent-over-time curves, multi-trial aggregation, and CSV
//! export for `asha` experiments.
//!
//! Every figure in the paper is a plot of "best test error / perplexity
//! found so far" against wall-clock time, aggregated over repeated trials
//! (mean with quartile or min/max envelopes). This crate provides exactly
//! those pieces:
//!
//! * [`RunTrace`] — the sequence of job completions of one tuning run,
//!   with helpers for the quantities the paper reports (incumbent curves,
//!   configurations trained to `R`, time to the first full-budget
//!   completion).
//! * [`StepCurve`] — a right-continuous step function of time.
//! * [`aggregate`] — mean/quantile/min/max envelopes of several curves on a
//!   shared time grid (the shaded bands of Figures 3–6 and 9).
//! * [`write_csv`] — plain CSV export used by the benchmark harness.
//! * [`write_json`] / [`JsonValue`] — hand-rolled JSON export for small
//!   structured reports (`report.json`, the daemon's metrics snapshot),
//!   with [`JsonValue::parse`] as the matching reader so telemetry event
//!   logs and reports can be replayed without a serde dependency.
//!
//! # Examples
//!
//! ```
//! use asha_metrics::{RunTrace, TraceEvent};
//!
//! let mut trace = RunTrace::new("ASHA");
//! trace.push(TraceEvent { time: 1.0, trial: 0, bracket: 0, rung: 0,
//!                         resource: 1.0, val_loss: 0.5, test_loss: 0.55 });
//! trace.push(TraceEvent { time: 2.0, trial: 1, bracket: 0, rung: 0,
//!                         resource: 1.0, val_loss: 0.4, test_loss: 0.42 });
//! let curve = trace.incumbent_curve();
//! assert_eq!(curve.eval(1.5), Some(0.55));
//! assert_eq!(curve.eval(2.5), Some(0.42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod analysis;
mod curve;
mod export;
mod faults;
mod grisu;
mod trace;

pub use curve::{aggregate, uniform_grid, AggregateCurve, StepCurve};
pub use export::{
    push_json_f64, push_json_str, push_json_u64, write_csv, write_json, CsvError, JsonValue,
};
pub use faults::FaultStats;
pub use trace::{RunTrace, TraceEvent};
