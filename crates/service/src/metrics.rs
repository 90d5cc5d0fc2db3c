//! The daemon's observability plane: one [`ServiceMetrics`] instance
//! shared by the reactor, the worker pool, every tailer thread, and the
//! store's durability hooks.
//!
//! Everything here is built on the lock-free primitives in
//! [`asha_obs::shared`], so hot paths (reactor loop, request execution)
//! record without taking a lock. The only mutex is around the
//! per-experiment tailer map, touched on subscribe and snapshot — never
//! per frame.
//!
//! # Clock discipline
//!
//! All durations are measured on one monotonic clock: `Instant` deltas
//! against the daemon's start (`now_nanos`). Cross-thread timestamps
//! (request ids are stamped at decode on the reactor thread and the
//! queue-wait measured on a worker thread) are safe because `Instant` is
//! monotonic across threads.
//!
//! # Exposure
//!
//! Three read paths share the same cells:
//!
//! * [`ServiceMetrics::daemon_stats`] — the legacy [`DaemonStats`]
//!   projection answering `Request::Stats` (kept wire-compatible);
//! * [`ServiceMetrics::snapshot_json`] — the full JSON snapshot answering
//!   `Request::Metrics` (schema [`METRICS_SCHEMA`]);
//! * [`ServiceMetrics::render_prometheus`] — Prometheus text exposition
//!   (format 0.0.4) for `GET /metrics`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use asha_metrics::JsonValue;
use asha_obs::{HistogramSnapshot, SharedCounter, SharedGauge, SharedHistogram};
use asha_store::StoreMetrics;

use crate::proto::DaemonStats;

/// Schema tag carried by every `Request::Metrics` reply.
pub const METRICS_SCHEMA: &str = "asha-daemon-metrics-v1";

/// Request kinds tracked with per-op latency histograms. `invalid` buckets
/// frames that failed to decode into any known op.
pub const OPS: [&str; 14] = [
    "ping",
    "create",
    "start",
    "pause",
    "resume",
    "abort",
    "status",
    "list",
    "stats",
    "metrics",
    "subscribe",
    "unsubscribe",
    "shutdown",
    "invalid",
];

fn op_index(op: &str) -> usize {
    OPS.iter().position(|&o| o == op).unwrap_or(OPS.len() - 1)
}

/// Per-request-kind cells.
#[derive(Debug)]
struct OpMetrics {
    count: SharedCounter,
    errors: SharedCounter,
    /// Decode → worker pickup.
    queue_wait: SharedHistogram,
    /// Worker pickup → reply queued.
    execute: SharedHistogram,
}

impl OpMetrics {
    fn new() -> OpMetrics {
        OpMetrics {
            count: SharedCounter::new(),
            errors: SharedCounter::new(),
            queue_wait: SharedHistogram::latency(),
            execute: SharedHistogram::latency(),
        }
    }
}

/// Per-experiment tailer cells. Entries are created on first subscribe and
/// kept for the daemon's lifetime so counter totals survive tailer
/// restarts; gauges are zeroed when the tailer exits.
#[derive(Debug)]
pub struct TailerMetrics {
    /// Live subscribers attached to this experiment's tailer.
    pub subscribers: SharedGauge,
    /// Records in the shared backlog the slowest Live subscriber has not
    /// consumed yet.
    pub lag_records: SharedGauge,
    /// Live subscribers demoted to CatchUp because they fell further
    /// behind than the backlog window.
    pub window_evictions: SharedCounter,
    /// Event frames fanned out to subscriber queues.
    pub fanout_frames: SharedCounter,
    /// Times the tailer waited for room in a full subscriber queue.
    pub jam_waits: SharedCounter,
    /// Those waits that ran out their bound instead of being woken by the
    /// drain that made room.
    pub jam_timeouts: SharedCounter,
}

impl TailerMetrics {
    fn new() -> Arc<TailerMetrics> {
        Arc::new(TailerMetrics {
            subscribers: SharedGauge::new(),
            lag_records: SharedGauge::new(),
            window_evictions: SharedCounter::new(),
            fanout_frames: SharedCounter::new(),
            jam_waits: SharedCounter::new(),
            jam_timeouts: SharedCounter::new(),
        })
    }
}

/// Every metric the daemon exposes, updated lock-free from all threads.
#[derive(Debug)]
pub struct ServiceMetrics {
    epoch: Instant,
    next_req_id: AtomicU64,

    // Reactor.
    accepts: SharedCounter,
    bytes_read: SharedCounter,
    bytes_written: SharedCounter,
    decode_errors: SharedCounter,
    read_pauses: SharedCounter,
    iterations: SharedCounter,
    iteration: SharedHistogram,
    wake_dispatch: SharedHistogram,
    http_requests: SharedCounter,

    // Protocol connections.
    connections_total: SharedCounter,
    connections_open: SharedGauge,

    // Worker pool.
    queue_depth: SharedGauge,

    // Requests.
    requests: SharedCounter,
    request_errors: SharedCounter,
    slow_requests: SharedCounter,
    per_op: Vec<OpMetrics>,

    // Subscriptions.
    subscriptions_open: SharedGauge,
    events_sent: SharedCounter,
    events_lagged: SharedCounter,

    // Tailers, by experiment name.
    tailers: Mutex<HashMap<String, Arc<TailerMetrics>>>,

    // Store durability plane.
    store: Arc<StoreMetrics>,
}

impl ServiceMetrics {
    /// A zeroed plane.
    pub fn new() -> Arc<ServiceMetrics> {
        Arc::new(ServiceMetrics {
            epoch: Instant::now(),
            next_req_id: AtomicU64::new(1),
            accepts: SharedCounter::new(),
            bytes_read: SharedCounter::new(),
            bytes_written: SharedCounter::new(),
            decode_errors: SharedCounter::new(),
            read_pauses: SharedCounter::new(),
            iterations: SharedCounter::new(),
            iteration: SharedHistogram::latency(),
            wake_dispatch: SharedHistogram::latency(),
            http_requests: SharedCounter::new(),
            connections_total: SharedCounter::new(),
            connections_open: SharedGauge::new(),
            queue_depth: SharedGauge::new(),
            requests: SharedCounter::new(),
            request_errors: SharedCounter::new(),
            slow_requests: SharedCounter::new(),
            per_op: OPS.iter().map(|_| OpMetrics::new()).collect(),
            subscriptions_open: SharedGauge::new(),
            events_sent: SharedCounter::new(),
            events_lagged: SharedCounter::new(),
            tailers: Mutex::new(HashMap::new()),
            store: StoreMetrics::new(),
        })
    }

    /// Monotonic nanoseconds since the daemon started (callers treat
    /// timestamps as opaque and only difference them).
    #[inline]
    pub fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Allocate the next request id (assigned at decode time, before the
    /// frame is queued for a worker).
    #[inline]
    pub fn next_request_id(&self) -> u64 {
        self.next_req_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The store durability plane tied to this daemon.
    pub fn store(&self) -> Arc<StoreMetrics> {
        Arc::clone(&self.store)
    }

    // ---- Reactor-side recorders -------------------------------------

    /// A socket was accepted (any listener, including `/metrics`).
    pub fn accept(&self) {
        self.accepts.inc();
    }

    /// Bytes read off a socket.
    pub fn record_bytes_read(&self, n: u64) {
        self.bytes_read.add(n);
    }

    /// Bytes written to a socket.
    pub fn record_bytes_written(&self, n: u64) {
        self.bytes_written.add(n);
    }

    /// A frame failed to decode (malformed, oversized, torn).
    pub fn decode_error(&self) {
        self.decode_errors.inc();
    }

    /// A connection's reads were paused by the backlog high-water mark.
    pub fn read_pause(&self) {
        self.read_pauses.inc();
    }

    /// One reactor iteration that dispatched at least one readiness event.
    pub fn reactor_iteration(&self, seconds: f64) {
        self.iterations.inc();
        self.iteration.observe(seconds);
    }

    /// Producer doorbell → reactor dispatch latency.
    pub fn wake_to_dispatch(&self, seconds: f64) {
        self.wake_dispatch.observe(seconds);
    }

    /// A request line arrived on the HTTP `/metrics` listener.
    pub fn http_request(&self) {
        self.http_requests.inc();
    }

    // ---- Connection lifecycle ---------------------------------------

    /// A protocol connection opened.
    pub fn conn_opened(&self) {
        self.connections_total.inc();
        self.connections_open.inc();
    }

    /// A protocol connection closed.
    pub fn conn_closed(&self) {
        self.connections_open.dec();
    }

    // ---- Worker pool ------------------------------------------------

    /// A visit entered the worker queue.
    pub fn visit_queued(&self) {
        self.queue_depth.inc();
    }

    /// A visit left the worker queue.
    pub fn visit_dequeued(&self) {
        self.queue_depth.dec();
    }

    /// One request finished: op, outcome, and both latency legs.
    pub fn request_observed(&self, op: &str, ok: bool, queue_wait_s: f64, execute_s: f64) {
        self.requests.inc();
        if !ok {
            self.request_errors.inc();
        }
        let cells = &self.per_op[op_index(op)];
        cells.count.inc();
        if !ok {
            cells.errors.inc();
        }
        cells.queue_wait.observe(queue_wait_s);
        cells.execute.observe(execute_s);
    }

    /// A request crossed the slow-request threshold.
    pub fn slow_request(&self) {
        self.slow_requests.inc();
    }

    // ---- Subscriptions ----------------------------------------------

    /// A subscription opened.
    pub fn sub_opened(&self) {
        self.subscriptions_open.inc();
    }

    /// A subscription closed.
    pub fn sub_closed(&self) {
        self.subscriptions_open.dec();
    }

    /// A push frame was delivered to a subscriber queue.
    pub fn event_sent(&self) {
        self.events_sent.inc();
    }

    /// A lossy push was dropped on a full subscriber queue.
    pub fn event_lagged(&self) {
        self.events_lagged.inc();
    }

    /// The per-experiment tailer cells, created on first use. Stable for
    /// the daemon's lifetime so counters survive tailer restarts.
    pub fn tailer(&self, experiment: &str) -> Arc<TailerMetrics> {
        let mut map = self.tailers.lock().unwrap();
        Arc::clone(
            map.entry(experiment.to_owned())
                .or_insert_with(TailerMetrics::new),
        )
    }

    // ---- Read paths -------------------------------------------------

    /// The legacy [`DaemonStats`] counters, projected from the plane so
    /// `Request::Stats` and `Request::Metrics` can never diverge.
    pub fn daemon_stats(&self) -> DaemonStats {
        DaemonStats {
            connections_total: self.connections_total.get(),
            connections_open: self.connections_open.get().max(0) as u64,
            requests: self.requests.get(),
            subscriptions_open: self.subscriptions_open.get().max(0) as u64,
            events_sent: self.events_sent.get(),
            events_lagged: self.events_lagged.get(),
        }
    }

    /// The full plane as JSON (the `Request::Metrics` reply payload).
    /// Histograms use [`HistogramSnapshot::to_json`], so a client can
    /// rebuild exact snapshots and compute quantiles locally.
    pub fn snapshot_json(&self) -> JsonValue {
        let by_op: Vec<(String, JsonValue)> = OPS
            .iter()
            .zip(self.per_op.iter())
            .filter(|(_, cells)| cells.count.get() > 0)
            .map(|(op, cells)| {
                (
                    (*op).to_owned(),
                    JsonValue::obj(vec![
                        ("count", JsonValue::Int(cells.count.get())),
                        ("errors", JsonValue::Int(cells.errors.get())),
                        ("queue_wait", cells.queue_wait.snapshot().to_json()),
                        ("execute", cells.execute.snapshot().to_json()),
                    ]),
                )
            })
            .collect();
        let tailers: Vec<(String, JsonValue)> = {
            let map = self.tailers.lock().unwrap();
            let mut rows: Vec<_> = map
                .iter()
                .map(|(name, t)| {
                    (
                        name.clone(),
                        JsonValue::obj(vec![
                            (
                                "subscribers",
                                JsonValue::Int(t.subscribers.get().max(0) as u64),
                            ),
                            (
                                "lag_records",
                                JsonValue::Int(t.lag_records.get().max(0) as u64),
                            ),
                            ("window_evictions", JsonValue::Int(t.window_evictions.get())),
                            ("fanout_frames", JsonValue::Int(t.fanout_frames.get())),
                            ("jam_waits", JsonValue::Int(t.jam_waits.get())),
                            ("jam_timeouts", JsonValue::Int(t.jam_timeouts.get())),
                        ]),
                    )
                })
                .collect();
            rows.sort_by(|a, b| a.0.cmp(&b.0));
            rows
        };
        JsonValue::obj(vec![
            ("schema", JsonValue::Str(METRICS_SCHEMA.to_owned())),
            // Constant: older `asha-ctl` builds read it to pick a rendering.
            ("enabled", JsonValue::Bool(true)),
            (
                "uptime_s",
                JsonValue::Num(self.epoch.elapsed().as_secs_f64()),
            ),
            (
                "reactor",
                JsonValue::obj(vec![
                    ("accepts", JsonValue::Int(self.accepts.get())),
                    ("bytes_read", JsonValue::Int(self.bytes_read.get())),
                    ("bytes_written", JsonValue::Int(self.bytes_written.get())),
                    ("decode_errors", JsonValue::Int(self.decode_errors.get())),
                    ("read_pauses", JsonValue::Int(self.read_pauses.get())),
                    ("iterations", JsonValue::Int(self.iterations.get())),
                    ("iteration", self.iteration.snapshot().to_json()),
                    ("wake_dispatch", self.wake_dispatch.snapshot().to_json()),
                ]),
            ),
            (
                "connections",
                JsonValue::obj(vec![
                    ("total", JsonValue::Int(self.connections_total.get())),
                    (
                        "open",
                        JsonValue::Int(self.connections_open.get().max(0) as u64),
                    ),
                ]),
            ),
            (
                "http",
                JsonValue::obj(vec![("requests", JsonValue::Int(self.http_requests.get()))]),
            ),
            (
                "workers",
                JsonValue::obj(vec![(
                    "queue_depth",
                    JsonValue::Int(self.queue_depth.get().max(0) as u64),
                )]),
            ),
            (
                "requests",
                JsonValue::obj(vec![
                    ("total", JsonValue::Int(self.requests.get())),
                    ("errors", JsonValue::Int(self.request_errors.get())),
                    ("slow", JsonValue::Int(self.slow_requests.get())),
                    ("by_op", JsonValue::Obj(by_op)),
                ]),
            ),
            (
                "subscriptions",
                JsonValue::obj(vec![
                    (
                        "open",
                        JsonValue::Int(self.subscriptions_open.get().max(0) as u64),
                    ),
                    ("events_sent", JsonValue::Int(self.events_sent.get())),
                    ("events_lagged", JsonValue::Int(self.events_lagged.get())),
                ]),
            ),
            ("tailers", JsonValue::Obj(tailers)),
            (
                "store",
                JsonValue::obj(vec![
                    ("wal_append", self.store.wal_append.snapshot().to_json()),
                    ("wal_fsync", self.store.wal_fsync.snapshot().to_json()),
                    (
                        "snapshot_write",
                        self.store.snapshot_write.snapshot().to_json(),
                    ),
                    (
                        "snapshot_delta_write",
                        self.store.snapshot_delta_write.snapshot().to_json(),
                    ),
                    (
                        "snapshot_full_bytes",
                        JsonValue::Int(self.store.snapshot_full_bytes.get()),
                    ),
                    (
                        "snapshot_delta_bytes",
                        JsonValue::Int(self.store.snapshot_delta_bytes.get()),
                    ),
                ]),
            ),
        ])
    }

    /// Render the plane in the Prometheus text exposition format (0.0.4).
    ///
    /// Naming follows the Prometheus conventions: `asha_` prefix,
    /// `_total` suffix on counters, `_seconds` base unit on histograms
    /// (exposed as cumulative `_bucket{le=...}` series plus `_sum` /
    /// `_count`). Fixed-name series always appear; per-op histograms
    /// appear once the op has been seen, per-experiment tailer series
    /// once the experiment has a tailer.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(8 * 1024);
        counter(
            &mut out,
            "asha_connections_total",
            "Protocol connections accepted over the daemon's lifetime",
            self.connections_total.get(),
        );
        gauge(
            &mut out,
            "asha_connections_open",
            "Currently open protocol connections",
            self.connections_open.get(),
        );
        counter(
            &mut out,
            "asha_reactor_accepts_total",
            "Sockets accepted by the reactor (all listeners)",
            self.accepts.get(),
        );
        counter(
            &mut out,
            "asha_reactor_bytes_read_total",
            "Bytes read off sockets",
            self.bytes_read.get(),
        );
        counter(
            &mut out,
            "asha_reactor_bytes_written_total",
            "Bytes written to sockets",
            self.bytes_written.get(),
        );
        counter(
            &mut out,
            "asha_reactor_frame_decode_errors_total",
            "Frames that failed to decode (malformed, oversized, torn)",
            self.decode_errors.get(),
        );
        counter(
            &mut out,
            "asha_reactor_read_pauses_total",
            "Connection reads paused by the backlog high-water mark",
            self.read_pauses.get(),
        );
        counter(
            &mut out,
            "asha_reactor_iterations_total",
            "Reactor iterations that dispatched at least one event",
            self.iterations.get(),
        );
        histogram(
            &mut out,
            "asha_reactor_iteration_seconds",
            "Time spent dispatching one reactor readiness batch",
            "",
            &self.iteration.snapshot(),
        );
        histogram(
            &mut out,
            "asha_reactor_wake_dispatch_seconds",
            "Producer doorbell to reactor dispatch latency",
            "",
            &self.wake_dispatch.snapshot(),
        );
        counter(
            &mut out,
            "asha_http_requests_total",
            "Requests served on the HTTP metrics listener",
            self.http_requests.get(),
        );
        gauge(
            &mut out,
            "asha_worker_queue_depth",
            "Connection visits queued for the worker pool",
            self.queue_depth.get(),
        );
        counter(
            &mut out,
            "asha_requests_total",
            "Protocol requests served (including failed ones)",
            self.requests.get(),
        );
        counter(
            &mut out,
            "asha_request_errors_total",
            "Protocol requests answered with an error frame",
            self.request_errors.get(),
        );
        counter(
            &mut out,
            "asha_slow_requests_total",
            "Requests that crossed the slow-request threshold",
            self.slow_requests.get(),
        );
        // Per-op histograms share one metric family per leg, labelled by op.
        let seen: Vec<(usize, &OpMetrics)> = self
            .per_op
            .iter()
            .enumerate()
            .filter(|(_, cells)| cells.count.get() > 0)
            .collect();
        header(
            &mut out,
            "asha_request_queue_wait_seconds",
            "Request decode to worker pickup latency",
            "histogram",
        );
        for (i, cells) in &seen {
            histogram_series(
                &mut out,
                "asha_request_queue_wait_seconds",
                &format!("op=\"{}\"", OPS[*i]),
                &cells.queue_wait.snapshot(),
            );
        }
        header(
            &mut out,
            "asha_request_execute_seconds",
            "Request execution latency (worker pickup to reply queued)",
            "histogram",
        );
        for (i, cells) in &seen {
            histogram_series(
                &mut out,
                "asha_request_execute_seconds",
                &format!("op=\"{}\"", OPS[*i]),
                &cells.execute.snapshot(),
            );
        }
        gauge(
            &mut out,
            "asha_subscriptions_open",
            "Currently live subscriptions",
            self.subscriptions_open.get(),
        );
        counter(
            &mut out,
            "asha_sub_events_sent_total",
            "Push frames delivered to subscriber queues",
            self.events_sent.get(),
        );
        counter(
            &mut out,
            "asha_sub_events_lagged_total",
            "Lossy push frames dropped on full subscriber queues",
            self.events_lagged.get(),
        );
        // Tailer series, labelled by experiment.
        {
            let map = self.tailers.lock().unwrap();
            let mut names: Vec<&String> = map.keys().collect();
            names.sort();
            type Read = fn(&TailerMetrics) -> f64;
            let series: [(&str, &str, &str, Read); 6] = [
                (
                    "asha_tailer_subscribers",
                    "Subscribers attached to the experiment's tailer",
                    "gauge",
                    |t| t.subscribers.get() as f64,
                ),
                (
                    "asha_tailer_lag_records",
                    "Backlog records the slowest live subscriber has not consumed",
                    "gauge",
                    |t| t.lag_records.get() as f64,
                ),
                (
                    "asha_tailer_window_evictions_total",
                    "Live subscribers demoted to catch-up after falling out of the backlog window",
                    "counter",
                    |t| t.window_evictions.get() as f64,
                ),
                (
                    "asha_tailer_fanout_frames_total",
                    "Event frames fanned out to subscriber queues",
                    "counter",
                    |t| t.fanout_frames.get() as f64,
                ),
                (
                    "asha_tailer_jam_waits_total",
                    "Waits for room in a full subscriber queue",
                    "counter",
                    |t| t.jam_waits.get() as f64,
                ),
                (
                    "asha_tailer_jam_timeouts_total",
                    "Waits for room ended by their time bound, not by the drain",
                    "counter",
                    |t| t.jam_timeouts.get() as f64,
                ),
            ];
            for (metric, help, kind, read) in series {
                header(&mut out, metric, help, kind);
                for name in &names {
                    let label = format!("experiment=\"{}\"", escape_label(name));
                    sample(&mut out, metric, &label, read(&map[name.as_str()]));
                }
            }
        }
        histogram(
            &mut out,
            "asha_wal_append_seconds",
            "WAL record append latency",
            "",
            &self.store.wal_append.snapshot(),
        );
        histogram(
            &mut out,
            "asha_wal_fsync_seconds",
            "WAL flush+fsync latency",
            "",
            &self.store.wal_fsync.snapshot(),
        );
        histogram(
            &mut out,
            "asha_snapshot_write_seconds",
            "Experiment snapshot write latency",
            "",
            &self.store.snapshot_write.snapshot(),
        );
        histogram(
            &mut out,
            "asha_snapshot_delta_write_seconds",
            "Delta snapshot diff+write latency",
            "",
            &self.store.snapshot_delta_write.snapshot(),
        );
        counter(
            &mut out,
            "asha_snapshot_full_bytes_total",
            "Bytes written by full snapshots",
            self.store.snapshot_full_bytes.get(),
        );
        counter(
            &mut out,
            "asha_snapshot_delta_bytes_total",
            "Bytes written by delta snapshots",
            self.store.snapshot_delta_bytes.get(),
        );
        gauge_f64(
            &mut out,
            "asha_uptime_seconds",
            "Seconds since the daemon started",
            self.epoch.elapsed().as_secs_f64(),
        );
        out
    }
}

// ---- Prometheus text helpers ------------------------------------------

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help);
    out.push_str("\n# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

fn sample(out: &mut String, name: &str, labels: &str, value: f64) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        out.push_str(labels);
        out.push('}');
    }
    out.push(' ');
    push_num(out, value);
    out.push('\n');
}

fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    header(out, name, help, "counter");
    sample(out, name, "", value as f64);
}

fn gauge(out: &mut String, name: &str, help: &str, value: i64) {
    header(out, name, help, "gauge");
    sample(out, name, "", value as f64);
}

fn gauge_f64(out: &mut String, name: &str, help: &str, value: f64) {
    header(out, name, help, "gauge");
    sample(out, name, "", value);
}

fn histogram(out: &mut String, name: &str, help: &str, labels: &str, snap: &HistogramSnapshot) {
    header(out, name, help, "histogram");
    histogram_series(out, name, labels, snap);
}

/// One labelled series of an (already-headed) histogram family:
/// cumulative `_bucket` samples, then `_sum` and `_count`.
fn histogram_series(out: &mut String, name: &str, labels: &str, snap: &HistogramSnapshot) {
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cumulative = 0u64;
    for (bound, n) in snap.buckets() {
        cumulative += n;
        out.push_str(name);
        out.push_str("_bucket{");
        out.push_str(labels);
        out.push_str(sep);
        out.push_str("le=\"");
        if bound.is_infinite() {
            out.push_str("+Inf");
        } else {
            push_num(out, bound);
        }
        out.push_str("\"} ");
        push_num(out, cumulative as f64);
        out.push('\n');
    }
    let suffix = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    out.push_str(name);
    out.push_str("_sum");
    out.push_str(&suffix);
    out.push(' ');
    push_num(out, snap.sum());
    out.push('\n');
    out.push_str(name);
    out.push_str("_count");
    out.push_str(&suffix);
    out.push(' ');
    push_num(out, snap.count() as f64);
    out.push('\n');
}

/// Prometheus numbers: integers without a decimal point, floats via
/// Rust's shortest round-trip `Display`.
fn push_num(out: &mut String, v: f64) {
    use std::fmt::Write;
    if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Escape a label value per the exposition format: backslash, quote,
/// newline.
fn escape_label(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_projection_tracks_cells() {
        let m = ServiceMetrics::new();
        m.conn_opened();
        m.conn_opened();
        m.conn_closed();
        m.request_observed("ping", true, 1e-6, 2e-6);
        m.sub_opened();
        m.event_sent();
        m.event_lagged();
        let s = m.daemon_stats();
        assert_eq!(s.connections_total, 2);
        assert_eq!(s.connections_open, 1);
        assert_eq!(s.requests, 1);
        assert_eq!(s.subscriptions_open, 1);
        assert_eq!(s.events_sent, 1);
        assert_eq!(s.events_lagged, 1);
    }

    #[test]
    fn unknown_op_buckets_as_invalid() {
        let m = ServiceMetrics::new();
        m.request_observed("frobnicate", false, 0.0, 0.0);
        let snap = m.snapshot_json();
        let by_op = snap.get("requests").and_then(|r| r.get("by_op")).unwrap();
        assert!(by_op.get("invalid").is_some());
    }

    #[test]
    fn snapshot_json_carries_schema() {
        let m = ServiceMetrics::new();
        let v = m.snapshot_json();
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some(METRICS_SCHEMA)
        );
        // Round-trips through the hand-rolled parser.
        let text = v.render_compact();
        let back = JsonValue::parse(&text).unwrap();
        assert_eq!(
            back.get("schema").and_then(|s| s.as_str()),
            Some(METRICS_SCHEMA)
        );
    }
}
