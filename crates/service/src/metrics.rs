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
//! # One table
//!
//! Every cell is declared once, by [`asha_obs::metric_cells!`], in the
//! struct of its JSON group, with its Prometheus family, type and help.
//! One walk over those tables (`ServiceMetrics::readings`) feeds both
//! renderings, so a new cell needs a field and a recorder, nothing more.
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

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use asha_metrics::JsonValue;
use asha_obs::shared::{Cell, Row};
use asha_obs::{metric_cells, HistogramSnapshot};
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

metric_cells! {
    /// The `connections` group.
    struct Connections {
        total: counter "asha_connections_total"
            "Protocol connections accepted over the daemon's lifetime",
        open: gauge "asha_connections_open" "Currently open protocol connections",
    }
}

metric_cells! {
    /// The `reactor` group.
    struct Reactor {
        accepts: counter "asha_reactor_accepts_total"
            "Sockets accepted by the reactor (all listeners)",
        bytes_read: counter "asha_reactor_bytes_read_total" "Bytes read off sockets",
        bytes_written: counter "asha_reactor_bytes_written_total" "Bytes written to sockets",
        decode_errors: counter "asha_reactor_frame_decode_errors_total"
            "Frames that failed to decode (malformed, oversized, torn)",
        read_pauses: counter "asha_reactor_read_pauses_total"
            "Connection reads paused by the backlog high-water mark",
        iterations: counter "asha_reactor_iterations_total"
            "Reactor iterations that dispatched at least one event",
        iteration: histogram "asha_reactor_iteration_seconds"
            "Time spent dispatching one reactor readiness batch",
        wake_dispatch: histogram "asha_reactor_wake_dispatch_seconds"
            "Producer doorbell to reactor dispatch latency",
    }
}

metric_cells! {
    /// The `http` group.
    struct Http {
        requests: counter "asha_http_requests_total"
            "Requests served on the HTTP metrics listener",
    }
}

metric_cells! {
    /// The `workers` group.
    struct Workers {
        queue_depth: gauge "asha_worker_queue_depth" "Connection visits queued for the worker pool",
    }
}

metric_cells! {
    /// The `requests` group.
    struct Requests {
        total: counter "asha_requests_total" "Protocol requests served (including failed ones)",
        errors: counter "asha_request_errors_total"
            "Protocol requests answered with an error frame",
        slow: counter "asha_slow_requests_total"
            "Requests that crossed the slow-request threshold",
    }
}

metric_cells! {
    /// Per-request-kind cells, under `requests.by_op.<op>` and labelled
    /// `op` in Prometheus, which shows only the two latency legs.
    struct OpMetrics {
        count: counter "" "Requests of this kind",
        errors: counter "" "Requests of this kind answered with an error frame",
        queue_wait: histogram "asha_request_queue_wait_seconds"
            "Request decode to worker pickup latency",
        execute: histogram "asha_request_execute_seconds"
            "Request execution latency (worker pickup to reply queued)",
    }
}

metric_cells! {
    /// The `subscriptions` group.
    struct Subscriptions {
        open: gauge "asha_subscriptions_open" "Currently live subscriptions",
        events_sent: counter "asha_sub_events_sent_total"
            "Push frames delivered to subscriber queues",
        events_lagged: counter "asha_sub_events_lagged_total"
            "Lossy push frames dropped on full subscriber queues",
    }
}

metric_cells! {
    /// Per-experiment tailer cells, under `tailers.<experiment>` and
    /// labelled `experiment` in Prometheus. Entries are created on first
    /// subscribe and kept for the daemon's lifetime so counter totals
    /// survive tailer restarts; gauges are zeroed when the tailer exits.
    pub struct TailerMetrics {
        pub subscribers: gauge "asha_tailer_subscribers"
            "Subscribers attached to the experiment's tailer",
        pub lag_records: gauge "asha_tailer_lag_records"
            "Backlog records the slowest live subscriber has not consumed",
        pub window_evictions: counter "asha_tailer_window_evictions_total"
            "Live subscribers demoted to catch-up after falling out of the backlog window",
        pub fanout_frames: counter "asha_tailer_fanout_frames_total"
            "Event frames fanned out to subscriber queues",
        pub jam_waits: counter "asha_tailer_jam_waits_total"
            "Waits for room in a full subscriber queue",
        pub jam_timeouts: counter "asha_tailer_jam_timeouts_total"
            "Waits for room ended by their time bound, not by the drain",
    }
}

/// The JSON snapshot's top-level order. Prometheus lists families in walk
/// order instead, which puts `connections` first and uptime last.
const JSON_ORDER: [&str; 11] = [
    "schema",
    "enabled",
    "uptime_s",
    "reactor",
    "connections",
    "http",
    "workers",
    "requests",
    "subscriptions",
    "tailers",
    "store",
];

/// One table row read for every series it has right now.
struct Reading<'a> {
    /// Path of the JSON object the row's series live under.
    path: &'static [&'static str],
    json: &'static str,
    family: &'static str,
    kind: &'static str,
    help: &'static str,
    /// `(JSON key of the series or "", Prometheus labels, cell)`.
    series: Vec<(&'a str, String, Cell<'a>)>,
}

/// Reads each of `rows` off the one set of `cells` of a JSON group.
fn group<'a, S>(
    out: &mut Vec<Reading<'a>>,
    path: &'static [&'static str],
    rows: &'static [Row<S>],
    cells: &'a S,
) {
    each(out, path, "", rows, &[("", cells)]);
}

/// Reads each of `rows` for every `(key, cells)` in `series`; `label`
/// names the Prometheus label the keys become (none for `""`).
fn each<'a, S>(
    out: &mut Vec<Reading<'a>>,
    path: &'static [&'static str],
    label: &str,
    rows: &'static [Row<S>],
    series: &[(&'a str, &'a S)],
) {
    for row in rows {
        let series = series.iter().map(|&(key, cells)| {
            let labels = match label {
                "" => String::new(),
                _ => format!("{label}=\"{}\"", escape_label(key)),
            };
            (key, labels, (row.cell)(cells))
        });
        out.push(Reading {
            path,
            json: row.json,
            family: row.family,
            kind: row.kind,
            help: row.help,
            series: series.collect(),
        });
    }
}

/// Every metric the daemon exposes, updated lock-free from all threads.
#[derive(Debug)]
pub struct ServiceMetrics {
    epoch: Instant,
    next_req_id: AtomicU64,
    connections: Connections,
    reactor: Reactor,
    http: Http,
    workers: Workers,
    requests: Requests,
    per_op: [OpMetrics; OPS.len()],
    subscriptions: Subscriptions,
    tailers: Mutex<BTreeMap<String, Arc<TailerMetrics>>>,
    store: Arc<StoreMetrics>,
}

impl ServiceMetrics {
    /// A zeroed plane.
    pub fn new() -> Arc<ServiceMetrics> {
        Arc::new(ServiceMetrics {
            epoch: Instant::now(),
            next_req_id: AtomicU64::new(1),
            connections: Connections::default(),
            reactor: Reactor::default(),
            http: Http::default(),
            workers: Workers::default(),
            requests: Requests::default(),
            per_op: Default::default(),
            subscriptions: Subscriptions::default(),
            tailers: Mutex::default(),
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
        self.reactor.accepts.inc();
    }

    /// Bytes read off a socket.
    pub fn record_bytes_read(&self, n: u64) {
        self.reactor.bytes_read.add(n);
    }

    /// Bytes written to a socket.
    pub fn record_bytes_written(&self, n: u64) {
        self.reactor.bytes_written.add(n);
    }

    /// A frame failed to decode (malformed, oversized, torn).
    pub fn decode_error(&self) {
        self.reactor.decode_errors.inc();
    }

    /// A connection's reads were paused by the backlog high-water mark.
    pub fn read_pause(&self) {
        self.reactor.read_pauses.inc();
    }

    /// One reactor iteration that dispatched at least one readiness event.
    pub fn reactor_iteration(&self, seconds: f64) {
        self.reactor.iterations.inc();
        self.reactor.iteration.observe(seconds);
    }

    /// Producer doorbell → reactor dispatch latency.
    pub fn wake_to_dispatch(&self, seconds: f64) {
        self.reactor.wake_dispatch.observe(seconds);
    }

    /// A request line arrived on the HTTP `/metrics` listener.
    pub fn http_request(&self) {
        self.http.requests.inc();
    }

    // ---- Connection lifecycle ---------------------------------------

    /// A protocol connection opened.
    pub fn conn_opened(&self) {
        self.connections.total.inc();
        self.connections.open.inc();
    }

    /// A protocol connection closed.
    pub fn conn_closed(&self) {
        self.connections.open.dec();
    }

    // ---- Worker pool ------------------------------------------------

    /// A visit entered the worker queue.
    pub fn visit_queued(&self) {
        self.workers.queue_depth.inc();
    }

    /// A visit left the worker queue.
    pub fn visit_dequeued(&self) {
        self.workers.queue_depth.dec();
    }

    /// One request finished: op, outcome, and both latency legs.
    pub fn request_observed(&self, op: &str, ok: bool, queue_wait_s: f64, execute_s: f64) {
        self.requests.total.inc();
        if !ok {
            self.requests.errors.inc();
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
        self.requests.slow.inc();
    }

    // ---- Subscriptions ----------------------------------------------

    /// A subscription opened.
    pub fn sub_opened(&self) {
        self.subscriptions.open.inc();
    }

    /// A subscription closed.
    pub fn sub_closed(&self) {
        self.subscriptions.open.dec();
    }

    /// A push frame was delivered to a subscriber queue.
    pub fn event_sent(&self) {
        self.subscriptions.events_sent.inc();
    }

    /// A lossy push was dropped on a full subscriber queue.
    pub fn event_lagged(&self) {
        self.subscriptions.events_lagged.inc();
    }

    /// The per-experiment tailer cells, created on first use. Stable for
    /// the daemon's lifetime so counters survive tailer restarts.
    pub fn tailer(&self, experiment: &str) -> Arc<TailerMetrics> {
        let mut map = self.tailers.lock().expect("tailer map lock poisoned");
        Arc::clone(map.entry(experiment.to_owned()).or_default())
    }

    // ---- Read paths -------------------------------------------------

    /// The legacy [`DaemonStats`] counters, projected from the plane so
    /// `Request::Stats` and `Request::Metrics` can never diverge.
    pub fn daemon_stats(&self) -> DaemonStats {
        DaemonStats {
            connections_total: self.connections.total.get(),
            connections_open: self.connections.open.get().max(0) as u64,
            requests: self.requests.total.get(),
            subscriptions_open: self.subscriptions.open.get().max(0) as u64,
            events_sent: self.subscriptions.events_sent.get(),
            events_lagged: self.subscriptions.events_lagged.get(),
        }
    }

    /// The one walk both renderings share: every row of every table, in
    /// Prometheus family order, with the series it has now. Per-op rows
    /// cover the ops seen so far; tailer rows every experiment in `tailers`.
    fn readings<'a>(
        &'a self,
        tailers: &'a BTreeMap<String, Arc<TailerMetrics>>,
    ) -> Vec<Reading<'a>> {
        let seen: Vec<_> = OPS
            .iter()
            .zip(&self.per_op)
            .filter(|(_, cells)| cells.count.get() > 0)
            .map(|(op, cells)| (*op, cells))
            .collect();
        let tailers: Vec<_> = tailers
            .iter()
            .map(|(name, t)| (name.as_str(), &**t))
            .collect();
        let mut out = Vec::new();
        group(
            &mut out,
            &["connections"],
            Connections::ROWS,
            &self.connections,
        );
        group(&mut out, &["reactor"], Reactor::ROWS, &self.reactor);
        group(&mut out, &["http"], Http::ROWS, &self.http);
        group(&mut out, &["workers"], Workers::ROWS, &self.workers);
        group(&mut out, &["requests"], Requests::ROWS, &self.requests);
        each(
            &mut out,
            &["requests", "by_op"],
            "op",
            OpMetrics::ROWS,
            &seen,
        );
        group(
            &mut out,
            &["subscriptions"],
            Subscriptions::ROWS,
            &self.subscriptions,
        );
        each(
            &mut out,
            &["tailers"],
            "experiment",
            TailerMetrics::ROWS,
            &tailers,
        );
        group(&mut out, &["store"], StoreMetrics::ROWS, &self.store);
        out
    }

    fn uptime_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// The full plane as JSON (the `Request::Metrics` reply payload).
    /// Histograms use [`HistogramSnapshot::to_json`], so a client can
    /// rebuild exact snapshots and compute quantiles locally. Gauges are
    /// clamped at 0; ops never seen are left out.
    pub fn snapshot_json(&self) -> JsonValue {
        let tailers = self.tailers.lock().expect("tailer map lock poisoned");
        let mut root = vec![
            (
                "schema".to_owned(),
                JsonValue::Str(METRICS_SCHEMA.to_owned()),
            ),
            // Constant: older `asha-ctl` builds read it to pick a rendering.
            ("enabled".to_owned(), JsonValue::Bool(true)),
            ("uptime_s".to_owned(), JsonValue::Num(self.uptime_s())),
        ];
        for reading in self.readings(&tailers) {
            let group = object_at(&mut root, reading.path);
            for (key, _, cell) in reading.series {
                let value = match cell {
                    Cell::Counter(c) => JsonValue::Int(c.get()),
                    Cell::Gauge(g) => JsonValue::Int(g.get().max(0) as u64),
                    Cell::Histogram(h) => h.snapshot().to_json(),
                };
                let path: &[&str] = if key.is_empty() { &[] } else { &[key] };
                object_at(group, path).push((reading.json.to_owned(), value));
            }
        }
        root.sort_by_key(|(key, _)| JSON_ORDER.iter().position(|k| k == key));
        JsonValue::Obj(root)
    }

    /// Render the plane in the Prometheus text exposition format (0.0.4).
    ///
    /// Naming follows the Prometheus conventions: `asha_` prefix,
    /// `_total` suffix on counters, `_seconds` base unit on histograms
    /// (exposed as cumulative `_bucket{le=...}` series plus `_sum` /
    /// `_count`). Every family is headed even when it has no series yet;
    /// per-op series appear once the op has been seen, per-experiment
    /// tailer series once the experiment has a tailer. Gauges are not
    /// clamped.
    pub fn render_prometheus(&self) -> String {
        let tailers = self.tailers.lock().expect("tailer map lock poisoned");
        let mut out = String::with_capacity(8 * 1024);
        for reading in self.readings(&tailers) {
            let family = reading.family;
            if family.is_empty() {
                continue;
            }
            header(&mut out, family, reading.help, reading.kind);
            for (_, labels, cell) in &reading.series {
                match cell {
                    Cell::Counter(c) => sample(&mut out, family, labels, c.get() as f64),
                    Cell::Gauge(g) => sample(&mut out, family, labels, g.get() as f64),
                    Cell::Histogram(h) => histogram_series(&mut out, family, labels, &h.snapshot()),
                }
            }
        }
        // Uptime is a clock reading, not a cell: first in JSON, last here.
        let uptime = "asha_uptime_seconds";
        header(
            &mut out,
            uptime,
            "Seconds since the daemon started",
            "gauge",
        );
        sample(&mut out, uptime, "", self.uptime_s());
        out
    }
}

/// The object at `path` below `obj`, created empty (and appended) where
/// missing.
fn object_at<'a>(
    mut obj: &'a mut Vec<(String, JsonValue)>,
    path: &[&str],
) -> &'a mut Vec<(String, JsonValue)> {
    for key in path {
        let at = match obj.iter().position(|(k, _)| k == key) {
            Some(at) => at,
            None => {
                obj.push(((*key).to_owned(), JsonValue::Obj(Vec::new())));
                obj.len() - 1
            }
        };
        obj = match &mut obj[at].1 {
            JsonValue::Obj(fields) => fields,
            _ => unreachable!("metric groups only ever hold objects at {key}"),
        };
    }
    obj
}

// ---- Prometheus text helpers ------------------------------------------

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
}

fn sample(out: &mut String, name: &str, labels: &str, value: f64) {
    out.push_str(name);
    if !labels.is_empty() {
        let _ = write!(out, "{{{labels}}}");
    }
    out.push(' ');
    push_num(out, value);
    out.push('\n');
}

/// One labelled series of an (already-headed) histogram family:
/// cumulative `_bucket` samples, then `_sum` and `_count`.
fn histogram_series(out: &mut String, name: &str, labels: &str, snap: &HistogramSnapshot) {
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cumulative = 0u64;
    for (bound, n) in snap.buckets() {
        cumulative += n;
        let _ = write!(out, "{name}_bucket{{{labels}{sep}le=\"");
        if bound.is_infinite() {
            out.push_str("+Inf");
        } else {
            push_num(out, bound);
        }
        out.push_str("\"} ");
        push_num(out, cumulative as f64);
        out.push('\n');
    }
    sample(out, &format!("{name}_sum"), labels, snap.sum());
    sample(out, &format!("{name}_count"), labels, snap.count() as f64);
}

/// Prometheus numbers: integers without a decimal point, floats via
/// Rust's shortest round-trip `Display`.
fn push_num(out: &mut String, v: f64) {
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
