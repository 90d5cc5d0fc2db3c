//! Run reports: replay an event stream into a human-readable summary and a
//! machine-readable JSON document.
//!
//! A report is derived entirely from the event log, so `run_report` applied
//! to a written JSONL file reproduces exactly what a live
//! [`RunRecorder`](crate::RunRecorder) would have summarized.

use std::fmt::Write as _;

use asha_core::telemetry::Event;
use asha_metrics::JsonValue;

use crate::metrics::{Histogram, MetricsRegistry};

/// Version tag of the JSON report schema.
pub(crate) const REPORT_SCHEMA: &str = "asha-run-report-v1";

/// A summarized run: the final metrics registry plus the busy-worker step
/// function needed for the utilization timeline.
#[derive(Debug, Clone)]
pub struct RunReport {
    metrics: MetricsRegistry,
    workers: Option<usize>,
    events: usize,
    /// `(time, busy)` after every change in the busy-worker count.
    busy_steps: Vec<(f64, i64)>,
}

impl RunReport {
    /// Replay `events` (in stream order) into a report. `workers` is the
    /// pool size for utilization percentages; when unknown, the peak
    /// concurrent busy count is used as the denominator.
    pub fn from_events(events: &[Event], workers: Option<usize>) -> Self {
        let mut metrics = MetricsRegistry::new();
        let mut busy_steps = Vec::new();
        let mut last_busy = 0i64;
        for event in events {
            metrics.apply(event);
            let busy = metrics.busy_workers.value();
            if busy != last_busy {
                busy_steps.push((event.time, busy));
                last_busy = busy;
            }
        }
        RunReport {
            metrics,
            workers,
            events: events.len(),
            busy_steps,
        }
    }

    /// The final metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Number of events summarized.
    #[cfg(test)]
    pub(crate) fn event_count(&self) -> usize {
        self.events
    }

    /// The utilization denominator: the configured pool size, or the peak
    /// concurrent busy count when the pool size is unknown.
    pub(crate) fn worker_denominator(&self) -> usize {
        self.workers
            .unwrap_or_else(|| self.metrics.busy_workers.max().max(0) as usize)
            .max(1)
    }

    /// Mean fraction of the pool kept busy over `[0, end_time]` (NaN for an
    /// empty run).
    pub fn mean_utilization(&self) -> f64 {
        self.metrics.mean_utilization(self.worker_denominator())
    }

    /// Mean utilization per time bin: `bins` equal slices of
    /// `[0, end_time]`, each the time-weighted average busy fraction within
    /// that slice. Empty when the run has no duration.
    pub(crate) fn utilization_timeline(&self, bins: usize) -> Vec<f64> {
        let end = self.metrics.end_time();
        if bins == 0 || end <= 0.0 {
            return Vec::new();
        }
        let width = end / bins as f64;
        let denom = self.worker_denominator() as f64;
        let mut integral = vec![0.0f64; bins];
        // Accumulate each constant-busy interval of the step function into
        // every bin it overlaps. A boundary-walking cursor would be O(n)
        // instead of O(n * bins), but its termination hinges on exact
        // floating-point bin arithmetic; reports are built once per run, so
        // the simple overlap scan wins.
        {
            let mut add = |t0: f64, t1: f64, busy: i64| {
                if busy == 0 || t1 <= t0 {
                    return;
                }
                for (bin, slot) in integral.iter_mut().enumerate() {
                    let lo = width * bin as f64;
                    let hi = if bin + 1 == bins {
                        end
                    } else {
                        width * (bin + 1) as f64
                    };
                    let overlap = t1.min(hi) - t0.max(lo);
                    if overlap > 0.0 {
                        *slot += busy as f64 * overlap;
                    }
                }
            };
            let mut prev_time = 0.0f64;
            let mut busy = 0i64;
            for &(time, next_busy) in &self.busy_steps {
                add(prev_time, time.min(end), busy);
                prev_time = time.min(end);
                busy = next_busy;
            }
            add(prev_time, end, busy);
        }
        integral
            .into_iter()
            .map(|area| area / (width * denom))
            .collect()
    }

    /// Render the human-readable summary.
    pub fn render_text(&self) -> String {
        let m = &self.metrics;
        let mut out = String::new();
        let _ = writeln!(out, "asha run report");
        let _ = writeln!(out, "===============");
        let _ = writeln!(
            out,
            "events: {}   end time: {:.3}   workers: {}",
            self.events,
            m.end_time(),
            match self.workers {
                Some(w) => w.to_string(),
                None => format!("unknown (peak busy {})", self.worker_denominator()),
            }
        );
        let _ = writeln!(out);

        let d = &m.decisions;
        let _ = writeln!(
            out,
            "decisions: promote {}  grow_bottom {}  wait {}  finished {}",
            d.promote.get(),
            d.grow_bottom.get(),
            d.wait.get(),
            d.finished.get()
        );
        let _ = writeln!(
            out,
            "jobs: started {}  completed {}  dropped {}  retried {}  idle rounds {}",
            m.jobs_started.get(),
            m.jobs_completed.get(),
            m.jobs_dropped.get(),
            m.jobs_retried.get(),
            m.idle_rounds.get()
        );
        let _ = writeln!(out);

        let _ = writeln!(out, "rung  resource  completed  pending  promoted out");
        let _ = writeln!(out, "----  --------  ---------  -------  ------------");
        for rung in 0..m.rung_count() {
            let resource = m
                .rung_resource(rung)
                .map_or_else(|| "-".to_owned(), |r| format!("{r:.1}"));
            let occupancy = m.rung_occupancy.get(rung).map_or(0, |g| g.value());
            let pending = m.pending_promotions.get(rung).map_or(0, |g| g.value());
            let promoted = m.promotions_per_rung.get(rung).map_or(0, |c| c.get());
            let _ = writeln!(
                out,
                "{rung:>4}  {resource:>8}  {occupancy:>9}  {pending:>7}  {promoted:>12}"
            );
        }
        let _ = writeln!(out);

        let _ = writeln!(
            out,
            "latency (time units)    count      p50      p95      max     mean"
        );
        for (label, hist) in [
            ("promotion wait      ", &m.promotion_wait),
            ("job latency         ", &m.job_latency),
            ("retry queue delay   ", &m.queue_delay),
        ] {
            let _ = writeln!(
                out,
                "{label}{:>9}  {}  {}  {}  {}",
                hist.count(),
                fmt_stat(hist.quantile(0.5)),
                fmt_stat(hist.quantile(0.95)),
                fmt_stat(hist.max()),
                fmt_stat(hist.mean()),
            );
        }
        let _ = writeln!(out);

        let mean = self.mean_utilization();
        let _ = writeln!(
            out,
            "worker utilization: mean {}  peak busy {}",
            fmt_pct(mean),
            m.busy_workers.max()
        );
        let timeline = self.utilization_timeline(TIMELINE_BINS);
        if !timeline.is_empty() {
            let end = m.end_time();
            let width = end / timeline.len() as f64;
            for (i, u) in timeline.iter().enumerate() {
                let bar_len = (u.clamp(0.0, 1.0) * 30.0).round() as usize;
                let _ = writeln!(
                    out,
                    "  [{:>8.2}, {:>8.2})  {:<30}  {}",
                    width * i as f64,
                    width * (i + 1) as f64,
                    "#".repeat(bar_len),
                    fmt_pct(*u)
                );
            }
        }
        out
    }

    /// Build the machine-readable report document (schema
    /// `REPORT_SCHEMA`).
    pub fn to_json(&self) -> JsonValue {
        let m = &self.metrics;
        let d = &m.decisions;
        let rungs = (0..m.rung_count())
            .map(|rung| {
                JsonValue::obj([
                    ("rung", JsonValue::Int(rung as u64)),
                    (
                        "resource",
                        m.rung_resource(rung)
                            .map_or(JsonValue::Null, JsonValue::Num),
                    ),
                    (
                        "completed",
                        JsonValue::Int(
                            m.rung_occupancy.get(rung).map_or(0, |g| g.value().max(0)) as u64
                        ),
                    ),
                    (
                        "pending",
                        JsonValue::Int(
                            m.pending_promotions
                                .get(rung)
                                .map_or(0, |g| g.value().max(0)) as u64,
                        ),
                    ),
                    (
                        "promoted_out",
                        JsonValue::Int(m.promotions_per_rung.get(rung).map_or(0, |c| c.get())),
                    ),
                ])
            })
            .collect();
        JsonValue::obj([
            ("schema", JsonValue::Str(REPORT_SCHEMA.to_owned())),
            (
                "workers",
                self.workers
                    .map_or(JsonValue::Null, |w| JsonValue::Int(w as u64)),
            ),
            ("end_time", JsonValue::Num(m.end_time())),
            ("events", JsonValue::Int(self.events as u64)),
            (
                "decisions",
                JsonValue::obj([
                    ("promote", JsonValue::Int(d.promote.get())),
                    ("grow_bottom", JsonValue::Int(d.grow_bottom.get())),
                    ("wait", JsonValue::Int(d.wait.get())),
                    ("finished", JsonValue::Int(d.finished.get())),
                ]),
            ),
            (
                "jobs",
                JsonValue::obj([
                    ("started", JsonValue::Int(m.jobs_started.get())),
                    ("completed", JsonValue::Int(m.jobs_completed.get())),
                    ("dropped", JsonValue::Int(m.jobs_dropped.get())),
                    ("retried", JsonValue::Int(m.jobs_retried.get())),
                    ("idle_rounds", JsonValue::Int(m.idle_rounds.get())),
                ]),
            ),
            ("rungs", JsonValue::Arr(rungs)),
            ("promotion_latency", hist_json(&m.promotion_wait)),
            ("job_latency", hist_json(&m.job_latency)),
            ("queue_delay", hist_json(&m.queue_delay)),
            (
                "utilization",
                JsonValue::obj([
                    ("mean", num_or_null(self.mean_utilization())),
                    (
                        "peak_busy",
                        JsonValue::Int(m.busy_workers.max().max(0) as u64),
                    ),
                    (
                        "timeline",
                        JsonValue::Arr(
                            self.utilization_timeline(TIMELINE_BINS)
                                .into_iter()
                                .map(JsonValue::Num)
                                .collect(),
                        ),
                    ),
                ]),
            ),
        ])
    }
}

/// Number of bins in the utilization timeline (text and JSON).
pub(crate) const TIMELINE_BINS: usize = 12;

fn hist_json(h: &Histogram) -> JsonValue {
    JsonValue::obj([
        ("count", JsonValue::Int(h.count())),
        ("p50", num_or_null(h.quantile(0.5))),
        ("p95", num_or_null(h.quantile(0.95))),
        ("max", num_or_null(h.max())),
        ("mean", num_or_null(h.mean())),
    ])
}

/// Non-finite stats (empty histograms, zero-duration runs) have no JSON
/// number representation; encode them as `null` so the document always
/// parses back to itself.
fn num_or_null(v: f64) -> JsonValue {
    if v.is_finite() {
        JsonValue::Num(v)
    } else {
        JsonValue::Null
    }
}

fn fmt_stat(v: f64) -> String {
    if v.is_finite() {
        format!("{v:>7.3}")
    } else {
        format!("{:>7}", "-")
    }
}

fn fmt_pct(v: f64) -> String {
    if v.is_finite() {
        format!("{:.1}%", v * 100.0)
    } else {
        "-".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asha_core::telemetry::EventKind;

    fn lifecycle_events() -> Vec<Event> {
        // Two workers: trial 0 busy on [0, 2], trial 1 busy on [0, 4];
        // trial 0 promoted at t=4.
        let kinds: Vec<(f64, EventKind)> = vec![
            (
                0.0,
                EventKind::GrowBottom {
                    trial: 0,
                    bracket: 0,
                    resource: 1.0,
                },
            ),
            (
                0.0,
                EventKind::JobStart {
                    trial: 0,
                    bracket: 0,
                    rung: 0,
                    resource: 1.0,
                },
            ),
            (
                0.0,
                EventKind::GrowBottom {
                    trial: 1,
                    bracket: 0,
                    resource: 1.0,
                },
            ),
            (
                0.0,
                EventKind::JobStart {
                    trial: 1,
                    bracket: 0,
                    rung: 0,
                    resource: 1.0,
                },
            ),
            (
                2.0,
                EventKind::JobEnd {
                    trial: 0,
                    rung: 0,
                    resource: 1.0,
                    loss: 0.25,
                },
            ),
            (
                4.0,
                EventKind::JobEnd {
                    trial: 1,
                    rung: 0,
                    resource: 1.0,
                    loss: 0.5,
                },
            ),
            (
                4.0,
                EventKind::Promote {
                    trial: 0,
                    bracket: 0,
                    from: 0,
                    to: 1,
                    resource: 4.0,
                },
            ),
            (
                4.0,
                EventKind::JobStart {
                    trial: 0,
                    bracket: 0,
                    rung: 1,
                    resource: 4.0,
                },
            ),
            (
                8.0,
                EventKind::JobEnd {
                    trial: 0,
                    rung: 1,
                    resource: 4.0,
                    loss: 0.125,
                },
            ),
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, (time, kind))| Event {
                seq: i as u64,
                time,
                kind,
            })
            .collect()
    }

    #[test]
    fn report_summarizes_the_stream() {
        let events = lifecycle_events();
        let report = RunReport::from_events(&events, Some(2));
        let m = report.metrics();
        assert_eq!(m.jobs_completed.get(), 3);
        assert_eq!(m.decisions.promote.get(), 1);
        assert_eq!(m.decisions.grow_bottom.get(), 2);
        assert_eq!(m.promotion_wait.count(), 1);
        assert_eq!(m.promotion_wait.max(), 2.0);
        // Busy worker-time: [0,2]x2 + [2,4]x1 + [4,8]x1 = 10 of 16.
        assert!((report.mean_utilization() - 10.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn timeline_integrates_the_step_function() {
        let events = lifecycle_events();
        let report = RunReport::from_events(&events, Some(2));
        let timeline = report.utilization_timeline(4);
        // Bins of width 2 over [0,8]: busy counts 2, 1, 1, 1 of 2 workers.
        let expect = [1.0, 0.5, 0.5, 0.5];
        for (got, want) in timeline.iter().zip(expect) {
            assert!((got - want).abs() < 1e-12, "{timeline:?}");
        }
    }

    #[test]
    fn text_report_mentions_all_sections() {
        let report = RunReport::from_events(&lifecycle_events(), Some(2));
        let text = report.render_text();
        for needle in [
            "asha run report",
            "decisions:",
            "rung  resource",
            "promotion wait",
            "worker utilization",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn json_report_has_the_stable_schema() {
        let report = RunReport::from_events(&lifecycle_events(), Some(2));
        let json = report.to_json();
        assert_eq!(
            json.get("schema").and_then(|v| v.as_str()),
            Some(REPORT_SCHEMA)
        );
        assert_eq!(json.get("workers").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(json.get("events").and_then(|v| v.as_u64()), Some(9));
        let rungs = json.get("rungs").and_then(|v| v.as_array()).unwrap();
        assert_eq!(rungs.len(), 2);
        assert_eq!(
            rungs[0].get("promoted_out").and_then(|v| v.as_u64()),
            Some(1)
        );
        let promo = json.get("promotion_latency").unwrap();
        assert_eq!(promo.get("count").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(promo.get("max").and_then(|v| v.as_f64()), Some(2.0));
        // The rendered document parses back and re-renders identically
        // (valid JSON end to end; integral floats re-parse as ints, so
        // value equality is checked on the rendering).
        let text = json.render();
        assert_eq!(JsonValue::parse(&text).unwrap().render(), text);
    }

    #[test]
    fn empty_run_reports_gracefully() {
        let report = RunReport::from_events(&[], None);
        assert_eq!(report.event_count(), 0);
        assert!(report.utilization_timeline(8).is_empty());
        let text = report.render_text();
        assert!(text.contains("events: 0"), "{text}");
        let json = report.to_json();
        assert!(json.get("workers").unwrap().is_null());
    }
}
