//! Golden tests of the Prometheus text exposition: the output must be
//! structurally valid format 0.0.4 (every sample preceded by its family's
//! `# TYPE` header, histogram buckets cumulative and capped by `+Inf`,
//! `_count` equal to the `+Inf` bucket) and must carry exact values for
//! deterministically recorded cells.

use std::collections::HashMap;

use asha_metrics::JsonValue;
use asha_service::ServiceMetrics;

/// `family name -> (type, samples)`; each sample is
/// `(series name, labels, value)`.
type Families = HashMap<String, (String, Vec<(String, String, f64)>)>;

/// A deterministically populated plane: a few requests across two ops,
/// reactor traffic, a tailer, and store latencies.
fn populated_plane() -> std::sync::Arc<ServiceMetrics> {
    let m = ServiceMetrics::new();
    for _ in 0..3 {
        m.accept();
    }
    m.conn_opened();
    m.conn_opened();
    m.record_bytes_read(1024);
    m.record_bytes_written(2048);
    m.decode_error();
    m.http_request();
    m.request_observed("ping", true, 10e-6, 5e-6);
    m.request_observed("ping", true, 20e-6, 8e-6);
    m.request_observed("status", false, 15e-6, 100e-6);
    m.slow_request();
    let t = m.tailer("exp-a");
    t.subscribers.set(4);
    t.lag_records.set(17);
    t.fanout_frames.add(250);
    t.jam_waits.add(9);
    t.jam_timeouts.add(2);
    m.store().wal_fsync.observe(3e-3);
    m.render_prometheus(); // rendering must not perturb any cell
    m
}

/// Minimal format-0.0.4 validator.
fn parse_exposition(text: &str) -> Families {
    let mut families: Families = HashMap::new();
    let mut current: Option<String> = None;
    for line in text.lines() {
        assert!(!line.trim().is_empty(), "blank line in exposition");
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().expect("TYPE line has a name").to_owned();
            let kind = it.next().expect("TYPE line has a kind").to_owned();
            assert!(
                matches!(kind.as_str(), "counter" | "gauge" | "histogram"),
                "unknown family kind {kind:?}"
            );
            let fresh = families.insert(name.clone(), (kind, Vec::new())).is_none();
            assert!(fresh, "family {name} declared twice");
            current = Some(name);
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP
        }
        let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
        let value: f64 = value.parse().unwrap_or_else(|e| {
            panic!("unparseable sample value in {line:?}: {e}");
        });
        let (name, labels) = match series.split_once('{') {
            Some((n, rest)) => {
                let labels = rest.strip_suffix('}').expect("labels close with '}'");
                (n.to_owned(), labels.to_owned())
            }
            None => (series.to_owned(), String::new()),
        };
        let family = current.as_ref().expect("sample before any TYPE header");
        // Histogram samples extend the family name (_bucket/_sum/_count);
        // everything else must match it exactly.
        assert!(
            name == *family
                || [
                    format!("{family}_bucket"),
                    format!("{family}_sum"),
                    format!("{family}_count"),
                ]
                .contains(&name),
            "sample {name} outside current family {family}"
        );
        families
            .get_mut(family)
            .unwrap()
            .1
            .push((name, labels, value));
    }
    families
}

fn sample_value(families: &Families, family: &str, name: &str, labels: &str) -> f64 {
    let (_, samples) = families
        .get(family)
        .unwrap_or_else(|| panic!("missing family {family}"));
    samples
        .iter()
        .find(|(n, l, _)| n == name && l == labels)
        .unwrap_or_else(|| panic!("missing sample {name}{{{labels}}}"))
        .2
}

/// Check one labelled histogram series: buckets cumulative, last bucket is
/// `+Inf`, `_count` matches it. Returns (count, sum).
fn check_histogram(families: &Families, family: &str, label_prefix: &str) -> (u64, f64) {
    let (kind, samples) = families
        .get(family)
        .unwrap_or_else(|| panic!("missing histogram {family}"));
    assert_eq!(kind, "histogram", "{family}");
    let series: Vec<_> = samples
        .iter()
        .filter(|(_, l, _)| {
            label_prefix.is_empty() || l.starts_with(label_prefix) || l == label_prefix
        })
        .collect();
    let buckets: Vec<_> = series
        .iter()
        .filter(|(n, _, _)| n.ends_with("_bucket"))
        .collect();
    assert!(!buckets.is_empty(), "{family}: no buckets");
    let mut last = -1.0f64;
    for (_, labels, v) in &buckets {
        assert!(*v >= last, "{family}: buckets not cumulative");
        last = *v;
        assert!(labels.contains("le=\""), "{family}: bucket without le");
    }
    let (_, inf_labels, inf) = buckets.last().unwrap();
    assert!(
        inf_labels.contains("le=\"+Inf\""),
        "{family}: last bucket must be +Inf, got {inf_labels}"
    );
    let count = series
        .iter()
        .find(|(n, _, _)| n.ends_with("_count"))
        .unwrap_or_else(|| panic!("{family}: missing _count"))
        .2;
    let sum = series
        .iter()
        .find(|(n, _, _)| n.ends_with("_sum"))
        .unwrap_or_else(|| panic!("{family}: missing _sum"))
        .2;
    assert_eq!(count, *inf, "{family}: _count must equal +Inf bucket");
    (count as u64, sum)
}

#[test]
fn exposition_is_structurally_valid_and_values_are_exact() {
    let m = populated_plane();
    let text = m.render_prometheus();
    let families = parse_exposition(&text);

    // Exact counter/gauge values from the deterministic recording.
    for (family, value) in [
        ("asha_reactor_accepts_total", 3.0),
        ("asha_connections_total", 2.0),
        ("asha_connections_open", 2.0),
        ("asha_reactor_bytes_read_total", 1024.0),
        ("asha_reactor_bytes_written_total", 2048.0),
        ("asha_reactor_frame_decode_errors_total", 1.0),
        ("asha_http_requests_total", 1.0),
        ("asha_requests_total", 3.0),
        ("asha_request_errors_total", 1.0),
        ("asha_slow_requests_total", 1.0),
        ("asha_worker_queue_depth", 0.0),
    ] {
        assert_eq!(
            sample_value(&families, family, family, ""),
            value,
            "{family}"
        );
    }

    // Per-op histograms: one family per leg, series labelled by op.
    let (ping_n, ping_sum) =
        check_histogram(&families, "asha_request_queue_wait_seconds", "op=\"ping\"");
    assert_eq!(ping_n, 2);
    assert!((ping_sum - 30e-6).abs() < 1e-9, "queue-wait sum {ping_sum}");
    let (status_n, _) = check_histogram(&families, "asha_request_execute_seconds", "op=\"status\"");
    assert_eq!(status_n, 1);

    // Fixed-name histograms are present even when empty.
    let (iter_n, _) = check_histogram(&families, "asha_reactor_iteration_seconds", "");
    assert_eq!(iter_n, 0);
    let (fsync_n, fsync_sum) = check_histogram(&families, "asha_wal_fsync_seconds", "");
    assert_eq!(fsync_n, 1);
    assert!((fsync_sum - 3e-3).abs() < 1e-9);

    // Tailer series carry the experiment label.
    for (family, value) in [
        ("asha_tailer_subscribers", 4.0),
        ("asha_tailer_lag_records", 17.0),
        ("asha_tailer_fanout_frames_total", 250.0),
        ("asha_tailer_jam_waits_total", 9.0),
        ("asha_tailer_jam_timeouts_total", 2.0),
    ] {
        assert_eq!(
            sample_value(&families, family, family, "experiment=\"exp-a\""),
            value,
            "{family}"
        );
    }
}

#[test]
fn every_family_has_help_and_type_in_order() {
    let text = populated_plane().render_prometheus();
    let mut pending_help: Option<String> = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap().to_owned();
            assert!(pending_help.is_none(), "HELP without TYPE before {name}");
            pending_help = Some(name);
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split_whitespace().next().unwrap();
            assert_eq!(
                pending_help.take().as_deref(),
                Some(name),
                "TYPE must directly follow its HELP"
            );
        }
    }
    assert!(pending_help.is_none(), "trailing HELP without TYPE");
}

#[test]
fn experiment_label_values_are_escaped() {
    let m = ServiceMetrics::new();
    m.tailer("weird\"name\\with\nstuff");
    let text = m.render_prometheus();
    assert!(
        text.contains("experiment=\"weird\\\"name\\\\with\\nstuff\""),
        "label not escaped:\n{text}"
    );
    // The raw newline must not appear inside any label (it would split the
    // sample line and corrupt the exposition).
    for line in text.lines() {
        assert!(
            !line.contains("experiment=\"weird\"n"),
            "unescaped quote leaked: {line}"
        );
    }
}

/// Operators' dashboards and `asha-ctl top` key on these names, so the
/// whole surface is pinned, in order: every Prometheus family with its
/// type, and every `snapshot_json` key path (a histogram is one leaf).
/// Adding, renaming, reordering or dropping a series fails here first.
#[test]
fn family_set_and_snapshot_key_paths_are_pinned() {
    const FAMILIES: &[&str] = &[
        "asha_connections_total counter",
        "asha_connections_open gauge",
        "asha_reactor_accepts_total counter",
        "asha_reactor_bytes_read_total counter",
        "asha_reactor_bytes_written_total counter",
        "asha_reactor_frame_decode_errors_total counter",
        "asha_reactor_read_pauses_total counter",
        "asha_reactor_iterations_total counter",
        "asha_reactor_iteration_seconds histogram",
        "asha_reactor_wake_dispatch_seconds histogram",
        "asha_http_requests_total counter",
        "asha_worker_queue_depth gauge",
        "asha_requests_total counter",
        "asha_request_errors_total counter",
        "asha_slow_requests_total counter",
        "asha_request_queue_wait_seconds histogram",
        "asha_request_execute_seconds histogram",
        "asha_subscriptions_open gauge",
        "asha_sub_events_sent_total counter",
        "asha_tailer_subscribers gauge",
        "asha_tailer_lag_records gauge",
        "asha_tailer_fanout_frames_total counter",
        "asha_tailer_jam_waits_total counter",
        "asha_tailer_jam_timeouts_total counter",
        "asha_wal_append_seconds histogram",
        "asha_wal_fsync_seconds histogram",
        "asha_snapshot_write_seconds histogram",
        "asha_snapshot_delta_write_seconds histogram",
        "asha_snapshot_full_bytes_total counter",
        "asha_snapshot_delta_bytes_total counter",
        "asha_uptime_seconds gauge",
    ];
    const KEY_PATHS: &[&str] = &[
        "schema",
        "enabled",
        "uptime_s",
        "reactor.accepts",
        "reactor.bytes_read",
        "reactor.bytes_written",
        "reactor.decode_errors",
        "reactor.read_pauses",
        "reactor.iterations",
        "reactor.iteration",
        "reactor.wake_dispatch",
        "connections.total",
        "connections.open",
        "http.requests",
        "workers.queue_depth",
        "requests.total",
        "requests.errors",
        "requests.slow",
        "requests.by_op.ping.count",
        "requests.by_op.ping.errors",
        "requests.by_op.ping.queue_wait",
        "requests.by_op.ping.execute",
        "requests.by_op.status.count",
        "requests.by_op.status.errors",
        "requests.by_op.status.queue_wait",
        "requests.by_op.status.execute",
        "subscriptions.open",
        "subscriptions.events_sent",
        "tailers.exp-a.subscribers",
        "tailers.exp-a.lag_records",
        "tailers.exp-a.fanout_frames",
        "tailers.exp-a.jam_waits",
        "tailers.exp-a.jam_timeouts",
        "store.wal_append",
        "store.wal_fsync",
        "store.snapshot_write",
        "store.snapshot_delta_write",
        "store.snapshot_full_bytes",
        "store.snapshot_delta_bytes",
    ];

    fn key_paths(prefix: &str, v: &JsonValue, out: &mut Vec<String>) {
        match v {
            JsonValue::Obj(fields) if !fields.iter().any(|(k, _)| k == "le") => {
                for (k, child) in fields {
                    let path = if prefix.is_empty() {
                        k.clone()
                    } else {
                        format!("{prefix}.{k}")
                    };
                    key_paths(&path, child, out);
                }
            }
            _ => out.push(prefix.to_owned()),
        }
    }

    let m = populated_plane();
    let text = m.render_prometheus();
    let families: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .collect();
    assert_eq!(families, FAMILIES);
    let mut paths = Vec::new();
    key_paths("", &m.snapshot_json(), &mut paths);
    assert_eq!(paths, KEY_PATHS);
}

/// Replaces the value after `key` (up to the next `,`, `}` or newline) with
/// `<uptime>`: the one reading that depends on the clock.
fn mask_uptime(text: &str, key: &str) -> String {
    let start = text.find(key).expect("uptime key present") + key.len();
    let end = text[start..]
        .find([',', '}', '\n'])
        .map_or(text.len(), |n| start + n);
    format!("{}<uptime>{}", &text[..start], &text[end..])
}

/// Both renderings of the populated plane, byte for byte. Together with
/// the test below they also pin where the two outputs differ.
#[test]
fn both_renderings_of_the_populated_plane_are_pinned() {
    let m = populated_plane();
    assert_eq!(
        mask_uptime(&m.render_prometheus(), "\nasha_uptime_seconds "),
        POPULATED_PROMETHEUS
    );
    assert_eq!(
        mask_uptime(&m.snapshot_json().render_compact(), "\"uptime_s\":"),
        POPULATED_JSON
    );
}

/// JSON clamps gauges at 0 and Prometheus does not; JSON omits ops never
/// seen while Prometheus still heads both per-op families.
#[test]
fn the_two_renderings_keep_their_differences() {
    let m = ServiceMetrics::new();
    m.conn_closed();
    let prom = m.render_prometheus();
    let json = m.snapshot_json().render_compact();
    assert!(prom.contains("\nasha_connections_open -1\n"), "{prom}");
    assert!(
        json.contains("\"connections\":{\"total\":0,\"open\":0}"),
        "{json}"
    );
    assert!(json.contains("\"by_op\":{}"), "{json}");
    for (family, next) in [
        (
            "asha_request_queue_wait_seconds",
            "asha_request_execute_seconds",
        ),
        ("asha_request_execute_seconds", "asha_subscriptions_open"),
    ] {
        let empty = format!("# TYPE {family} histogram\n# HELP {next} ");
        assert!(prom.contains(&empty), "{family} lost its header:\n{prom}");
    }
}

/// `populated_plane().render_prometheus()`, uptime masked.
const POPULATED_PROMETHEUS: &str = r##"# HELP asha_connections_total Protocol connections accepted over the daemon's lifetime
# TYPE asha_connections_total counter
asha_connections_total 2
# HELP asha_connections_open Currently open protocol connections
# TYPE asha_connections_open gauge
asha_connections_open 2
# HELP asha_reactor_accepts_total Sockets accepted by the reactor (all listeners)
# TYPE asha_reactor_accepts_total counter
asha_reactor_accepts_total 3
# HELP asha_reactor_bytes_read_total Bytes read off sockets
# TYPE asha_reactor_bytes_read_total counter
asha_reactor_bytes_read_total 1024
# HELP asha_reactor_bytes_written_total Bytes written to sockets
# TYPE asha_reactor_bytes_written_total counter
asha_reactor_bytes_written_total 2048
# HELP asha_reactor_frame_decode_errors_total Frames that failed to decode (malformed, oversized, torn)
# TYPE asha_reactor_frame_decode_errors_total counter
asha_reactor_frame_decode_errors_total 1
# HELP asha_reactor_read_pauses_total Connection reads paused by the backlog high-water mark
# TYPE asha_reactor_read_pauses_total counter
asha_reactor_read_pauses_total 0
# HELP asha_reactor_iterations_total Reactor iterations that dispatched at least one event
# TYPE asha_reactor_iterations_total counter
asha_reactor_iterations_total 0
# HELP asha_reactor_iteration_seconds Time spent dispatching one reactor readiness batch
# TYPE asha_reactor_iteration_seconds histogram
asha_reactor_iteration_seconds_bucket{le="0.000001"} 0
asha_reactor_iteration_seconds_bucket{le="0.000002"} 0
asha_reactor_iteration_seconds_bucket{le="0.000004"} 0
asha_reactor_iteration_seconds_bucket{le="0.000008"} 0
asha_reactor_iteration_seconds_bucket{le="0.000016"} 0
asha_reactor_iteration_seconds_bucket{le="0.000032"} 0
asha_reactor_iteration_seconds_bucket{le="0.000064"} 0
asha_reactor_iteration_seconds_bucket{le="0.000128"} 0
asha_reactor_iteration_seconds_bucket{le="0.000256"} 0
asha_reactor_iteration_seconds_bucket{le="0.000512"} 0
asha_reactor_iteration_seconds_bucket{le="0.001024"} 0
asha_reactor_iteration_seconds_bucket{le="0.002048"} 0
asha_reactor_iteration_seconds_bucket{le="0.004096"} 0
asha_reactor_iteration_seconds_bucket{le="0.008192"} 0
asha_reactor_iteration_seconds_bucket{le="0.016384"} 0
asha_reactor_iteration_seconds_bucket{le="0.032768"} 0
asha_reactor_iteration_seconds_bucket{le="0.065536"} 0
asha_reactor_iteration_seconds_bucket{le="0.131072"} 0
asha_reactor_iteration_seconds_bucket{le="0.262144"} 0
asha_reactor_iteration_seconds_bucket{le="0.524288"} 0
asha_reactor_iteration_seconds_bucket{le="1.048576"} 0
asha_reactor_iteration_seconds_bucket{le="2.097152"} 0
asha_reactor_iteration_seconds_bucket{le="4.194304"} 0
asha_reactor_iteration_seconds_bucket{le="8.388608"} 0
asha_reactor_iteration_seconds_bucket{le="16.777216"} 0
asha_reactor_iteration_seconds_bucket{le="33.554432"} 0
asha_reactor_iteration_seconds_bucket{le="+Inf"} 0
asha_reactor_iteration_seconds_sum 0
asha_reactor_iteration_seconds_count 0
# HELP asha_reactor_wake_dispatch_seconds Producer doorbell to reactor dispatch latency
# TYPE asha_reactor_wake_dispatch_seconds histogram
asha_reactor_wake_dispatch_seconds_bucket{le="0.000001"} 0
asha_reactor_wake_dispatch_seconds_bucket{le="0.000002"} 0
asha_reactor_wake_dispatch_seconds_bucket{le="0.000004"} 0
asha_reactor_wake_dispatch_seconds_bucket{le="0.000008"} 0
asha_reactor_wake_dispatch_seconds_bucket{le="0.000016"} 0
asha_reactor_wake_dispatch_seconds_bucket{le="0.000032"} 0
asha_reactor_wake_dispatch_seconds_bucket{le="0.000064"} 0
asha_reactor_wake_dispatch_seconds_bucket{le="0.000128"} 0
asha_reactor_wake_dispatch_seconds_bucket{le="0.000256"} 0
asha_reactor_wake_dispatch_seconds_bucket{le="0.000512"} 0
asha_reactor_wake_dispatch_seconds_bucket{le="0.001024"} 0
asha_reactor_wake_dispatch_seconds_bucket{le="0.002048"} 0
asha_reactor_wake_dispatch_seconds_bucket{le="0.004096"} 0
asha_reactor_wake_dispatch_seconds_bucket{le="0.008192"} 0
asha_reactor_wake_dispatch_seconds_bucket{le="0.016384"} 0
asha_reactor_wake_dispatch_seconds_bucket{le="0.032768"} 0
asha_reactor_wake_dispatch_seconds_bucket{le="0.065536"} 0
asha_reactor_wake_dispatch_seconds_bucket{le="0.131072"} 0
asha_reactor_wake_dispatch_seconds_bucket{le="0.262144"} 0
asha_reactor_wake_dispatch_seconds_bucket{le="0.524288"} 0
asha_reactor_wake_dispatch_seconds_bucket{le="1.048576"} 0
asha_reactor_wake_dispatch_seconds_bucket{le="2.097152"} 0
asha_reactor_wake_dispatch_seconds_bucket{le="4.194304"} 0
asha_reactor_wake_dispatch_seconds_bucket{le="8.388608"} 0
asha_reactor_wake_dispatch_seconds_bucket{le="16.777216"} 0
asha_reactor_wake_dispatch_seconds_bucket{le="33.554432"} 0
asha_reactor_wake_dispatch_seconds_bucket{le="+Inf"} 0
asha_reactor_wake_dispatch_seconds_sum 0
asha_reactor_wake_dispatch_seconds_count 0
# HELP asha_http_requests_total Requests served on the HTTP metrics listener
# TYPE asha_http_requests_total counter
asha_http_requests_total 1
# HELP asha_worker_queue_depth Connection visits queued for the worker pool
# TYPE asha_worker_queue_depth gauge
asha_worker_queue_depth 0
# HELP asha_requests_total Protocol requests served (including failed ones)
# TYPE asha_requests_total counter
asha_requests_total 3
# HELP asha_request_errors_total Protocol requests answered with an error frame
# TYPE asha_request_errors_total counter
asha_request_errors_total 1
# HELP asha_slow_requests_total Requests that crossed the slow-request threshold
# TYPE asha_slow_requests_total counter
asha_slow_requests_total 1
# HELP asha_request_queue_wait_seconds Request decode to worker pickup latency
# TYPE asha_request_queue_wait_seconds histogram
asha_request_queue_wait_seconds_bucket{op="ping",le="0.000001"} 0
asha_request_queue_wait_seconds_bucket{op="ping",le="0.000002"} 0
asha_request_queue_wait_seconds_bucket{op="ping",le="0.000004"} 0
asha_request_queue_wait_seconds_bucket{op="ping",le="0.000008"} 0
asha_request_queue_wait_seconds_bucket{op="ping",le="0.000016"} 1
asha_request_queue_wait_seconds_bucket{op="ping",le="0.000032"} 2
asha_request_queue_wait_seconds_bucket{op="ping",le="0.000064"} 2
asha_request_queue_wait_seconds_bucket{op="ping",le="0.000128"} 2
asha_request_queue_wait_seconds_bucket{op="ping",le="0.000256"} 2
asha_request_queue_wait_seconds_bucket{op="ping",le="0.000512"} 2
asha_request_queue_wait_seconds_bucket{op="ping",le="0.001024"} 2
asha_request_queue_wait_seconds_bucket{op="ping",le="0.002048"} 2
asha_request_queue_wait_seconds_bucket{op="ping",le="0.004096"} 2
asha_request_queue_wait_seconds_bucket{op="ping",le="0.008192"} 2
asha_request_queue_wait_seconds_bucket{op="ping",le="0.016384"} 2
asha_request_queue_wait_seconds_bucket{op="ping",le="0.032768"} 2
asha_request_queue_wait_seconds_bucket{op="ping",le="0.065536"} 2
asha_request_queue_wait_seconds_bucket{op="ping",le="0.131072"} 2
asha_request_queue_wait_seconds_bucket{op="ping",le="0.262144"} 2
asha_request_queue_wait_seconds_bucket{op="ping",le="0.524288"} 2
asha_request_queue_wait_seconds_bucket{op="ping",le="1.048576"} 2
asha_request_queue_wait_seconds_bucket{op="ping",le="2.097152"} 2
asha_request_queue_wait_seconds_bucket{op="ping",le="4.194304"} 2
asha_request_queue_wait_seconds_bucket{op="ping",le="8.388608"} 2
asha_request_queue_wait_seconds_bucket{op="ping",le="16.777216"} 2
asha_request_queue_wait_seconds_bucket{op="ping",le="33.554432"} 2
asha_request_queue_wait_seconds_bucket{op="ping",le="+Inf"} 2
asha_request_queue_wait_seconds_sum{op="ping"} 0.00003
asha_request_queue_wait_seconds_count{op="ping"} 2
asha_request_queue_wait_seconds_bucket{op="status",le="0.000001"} 0
asha_request_queue_wait_seconds_bucket{op="status",le="0.000002"} 0
asha_request_queue_wait_seconds_bucket{op="status",le="0.000004"} 0
asha_request_queue_wait_seconds_bucket{op="status",le="0.000008"} 0
asha_request_queue_wait_seconds_bucket{op="status",le="0.000016"} 1
asha_request_queue_wait_seconds_bucket{op="status",le="0.000032"} 1
asha_request_queue_wait_seconds_bucket{op="status",le="0.000064"} 1
asha_request_queue_wait_seconds_bucket{op="status",le="0.000128"} 1
asha_request_queue_wait_seconds_bucket{op="status",le="0.000256"} 1
asha_request_queue_wait_seconds_bucket{op="status",le="0.000512"} 1
asha_request_queue_wait_seconds_bucket{op="status",le="0.001024"} 1
asha_request_queue_wait_seconds_bucket{op="status",le="0.002048"} 1
asha_request_queue_wait_seconds_bucket{op="status",le="0.004096"} 1
asha_request_queue_wait_seconds_bucket{op="status",le="0.008192"} 1
asha_request_queue_wait_seconds_bucket{op="status",le="0.016384"} 1
asha_request_queue_wait_seconds_bucket{op="status",le="0.032768"} 1
asha_request_queue_wait_seconds_bucket{op="status",le="0.065536"} 1
asha_request_queue_wait_seconds_bucket{op="status",le="0.131072"} 1
asha_request_queue_wait_seconds_bucket{op="status",le="0.262144"} 1
asha_request_queue_wait_seconds_bucket{op="status",le="0.524288"} 1
asha_request_queue_wait_seconds_bucket{op="status",le="1.048576"} 1
asha_request_queue_wait_seconds_bucket{op="status",le="2.097152"} 1
asha_request_queue_wait_seconds_bucket{op="status",le="4.194304"} 1
asha_request_queue_wait_seconds_bucket{op="status",le="8.388608"} 1
asha_request_queue_wait_seconds_bucket{op="status",le="16.777216"} 1
asha_request_queue_wait_seconds_bucket{op="status",le="33.554432"} 1
asha_request_queue_wait_seconds_bucket{op="status",le="+Inf"} 1
asha_request_queue_wait_seconds_sum{op="status"} 0.000015
asha_request_queue_wait_seconds_count{op="status"} 1
# HELP asha_request_execute_seconds Request execution latency (worker pickup to reply queued)
# TYPE asha_request_execute_seconds histogram
asha_request_execute_seconds_bucket{op="ping",le="0.000001"} 0
asha_request_execute_seconds_bucket{op="ping",le="0.000002"} 0
asha_request_execute_seconds_bucket{op="ping",le="0.000004"} 0
asha_request_execute_seconds_bucket{op="ping",le="0.000008"} 2
asha_request_execute_seconds_bucket{op="ping",le="0.000016"} 2
asha_request_execute_seconds_bucket{op="ping",le="0.000032"} 2
asha_request_execute_seconds_bucket{op="ping",le="0.000064"} 2
asha_request_execute_seconds_bucket{op="ping",le="0.000128"} 2
asha_request_execute_seconds_bucket{op="ping",le="0.000256"} 2
asha_request_execute_seconds_bucket{op="ping",le="0.000512"} 2
asha_request_execute_seconds_bucket{op="ping",le="0.001024"} 2
asha_request_execute_seconds_bucket{op="ping",le="0.002048"} 2
asha_request_execute_seconds_bucket{op="ping",le="0.004096"} 2
asha_request_execute_seconds_bucket{op="ping",le="0.008192"} 2
asha_request_execute_seconds_bucket{op="ping",le="0.016384"} 2
asha_request_execute_seconds_bucket{op="ping",le="0.032768"} 2
asha_request_execute_seconds_bucket{op="ping",le="0.065536"} 2
asha_request_execute_seconds_bucket{op="ping",le="0.131072"} 2
asha_request_execute_seconds_bucket{op="ping",le="0.262144"} 2
asha_request_execute_seconds_bucket{op="ping",le="0.524288"} 2
asha_request_execute_seconds_bucket{op="ping",le="1.048576"} 2
asha_request_execute_seconds_bucket{op="ping",le="2.097152"} 2
asha_request_execute_seconds_bucket{op="ping",le="4.194304"} 2
asha_request_execute_seconds_bucket{op="ping",le="8.388608"} 2
asha_request_execute_seconds_bucket{op="ping",le="16.777216"} 2
asha_request_execute_seconds_bucket{op="ping",le="33.554432"} 2
asha_request_execute_seconds_bucket{op="ping",le="+Inf"} 2
asha_request_execute_seconds_sum{op="ping"} 0.000013
asha_request_execute_seconds_count{op="ping"} 2
asha_request_execute_seconds_bucket{op="status",le="0.000001"} 0
asha_request_execute_seconds_bucket{op="status",le="0.000002"} 0
asha_request_execute_seconds_bucket{op="status",le="0.000004"} 0
asha_request_execute_seconds_bucket{op="status",le="0.000008"} 0
asha_request_execute_seconds_bucket{op="status",le="0.000016"} 0
asha_request_execute_seconds_bucket{op="status",le="0.000032"} 0
asha_request_execute_seconds_bucket{op="status",le="0.000064"} 0
asha_request_execute_seconds_bucket{op="status",le="0.000128"} 1
asha_request_execute_seconds_bucket{op="status",le="0.000256"} 1
asha_request_execute_seconds_bucket{op="status",le="0.000512"} 1
asha_request_execute_seconds_bucket{op="status",le="0.001024"} 1
asha_request_execute_seconds_bucket{op="status",le="0.002048"} 1
asha_request_execute_seconds_bucket{op="status",le="0.004096"} 1
asha_request_execute_seconds_bucket{op="status",le="0.008192"} 1
asha_request_execute_seconds_bucket{op="status",le="0.016384"} 1
asha_request_execute_seconds_bucket{op="status",le="0.032768"} 1
asha_request_execute_seconds_bucket{op="status",le="0.065536"} 1
asha_request_execute_seconds_bucket{op="status",le="0.131072"} 1
asha_request_execute_seconds_bucket{op="status",le="0.262144"} 1
asha_request_execute_seconds_bucket{op="status",le="0.524288"} 1
asha_request_execute_seconds_bucket{op="status",le="1.048576"} 1
asha_request_execute_seconds_bucket{op="status",le="2.097152"} 1
asha_request_execute_seconds_bucket{op="status",le="4.194304"} 1
asha_request_execute_seconds_bucket{op="status",le="8.388608"} 1
asha_request_execute_seconds_bucket{op="status",le="16.777216"} 1
asha_request_execute_seconds_bucket{op="status",le="33.554432"} 1
asha_request_execute_seconds_bucket{op="status",le="+Inf"} 1
asha_request_execute_seconds_sum{op="status"} 0.0001
asha_request_execute_seconds_count{op="status"} 1
# HELP asha_subscriptions_open Currently live subscriptions
# TYPE asha_subscriptions_open gauge
asha_subscriptions_open 0
# HELP asha_sub_events_sent_total Push frames delivered to subscriber queues
# TYPE asha_sub_events_sent_total counter
asha_sub_events_sent_total 0
# HELP asha_tailer_subscribers Subscribers attached to the experiment's tailer
# TYPE asha_tailer_subscribers gauge
asha_tailer_subscribers{experiment="exp-a"} 4
# HELP asha_tailer_lag_records Records read but not yet delivered, for the subscriber holding the most
# TYPE asha_tailer_lag_records gauge
asha_tailer_lag_records{experiment="exp-a"} 17
# HELP asha_tailer_fanout_frames_total Event frames fanned out to subscriber queues
# TYPE asha_tailer_fanout_frames_total counter
asha_tailer_fanout_frames_total{experiment="exp-a"} 250
# HELP asha_tailer_jam_waits_total Waits for room in a full subscriber queue
# TYPE asha_tailer_jam_waits_total counter
asha_tailer_jam_waits_total{experiment="exp-a"} 9
# HELP asha_tailer_jam_timeouts_total Waits for room ended by their time bound, not by the drain
# TYPE asha_tailer_jam_timeouts_total counter
asha_tailer_jam_timeouts_total{experiment="exp-a"} 2
# HELP asha_wal_append_seconds WAL record append latency
# TYPE asha_wal_append_seconds histogram
asha_wal_append_seconds_bucket{le="0.000001"} 0
asha_wal_append_seconds_bucket{le="0.000002"} 0
asha_wal_append_seconds_bucket{le="0.000004"} 0
asha_wal_append_seconds_bucket{le="0.000008"} 0
asha_wal_append_seconds_bucket{le="0.000016"} 0
asha_wal_append_seconds_bucket{le="0.000032"} 0
asha_wal_append_seconds_bucket{le="0.000064"} 0
asha_wal_append_seconds_bucket{le="0.000128"} 0
asha_wal_append_seconds_bucket{le="0.000256"} 0
asha_wal_append_seconds_bucket{le="0.000512"} 0
asha_wal_append_seconds_bucket{le="0.001024"} 0
asha_wal_append_seconds_bucket{le="0.002048"} 0
asha_wal_append_seconds_bucket{le="0.004096"} 0
asha_wal_append_seconds_bucket{le="0.008192"} 0
asha_wal_append_seconds_bucket{le="0.016384"} 0
asha_wal_append_seconds_bucket{le="0.032768"} 0
asha_wal_append_seconds_bucket{le="0.065536"} 0
asha_wal_append_seconds_bucket{le="0.131072"} 0
asha_wal_append_seconds_bucket{le="0.262144"} 0
asha_wal_append_seconds_bucket{le="0.524288"} 0
asha_wal_append_seconds_bucket{le="1.048576"} 0
asha_wal_append_seconds_bucket{le="2.097152"} 0
asha_wal_append_seconds_bucket{le="4.194304"} 0
asha_wal_append_seconds_bucket{le="8.388608"} 0
asha_wal_append_seconds_bucket{le="16.777216"} 0
asha_wal_append_seconds_bucket{le="33.554432"} 0
asha_wal_append_seconds_bucket{le="+Inf"} 0
asha_wal_append_seconds_sum 0
asha_wal_append_seconds_count 0
# HELP asha_wal_fsync_seconds WAL flush+fsync latency
# TYPE asha_wal_fsync_seconds histogram
asha_wal_fsync_seconds_bucket{le="0.000001"} 0
asha_wal_fsync_seconds_bucket{le="0.000002"} 0
asha_wal_fsync_seconds_bucket{le="0.000004"} 0
asha_wal_fsync_seconds_bucket{le="0.000008"} 0
asha_wal_fsync_seconds_bucket{le="0.000016"} 0
asha_wal_fsync_seconds_bucket{le="0.000032"} 0
asha_wal_fsync_seconds_bucket{le="0.000064"} 0
asha_wal_fsync_seconds_bucket{le="0.000128"} 0
asha_wal_fsync_seconds_bucket{le="0.000256"} 0
asha_wal_fsync_seconds_bucket{le="0.000512"} 0
asha_wal_fsync_seconds_bucket{le="0.001024"} 0
asha_wal_fsync_seconds_bucket{le="0.002048"} 0
asha_wal_fsync_seconds_bucket{le="0.004096"} 1
asha_wal_fsync_seconds_bucket{le="0.008192"} 1
asha_wal_fsync_seconds_bucket{le="0.016384"} 1
asha_wal_fsync_seconds_bucket{le="0.032768"} 1
asha_wal_fsync_seconds_bucket{le="0.065536"} 1
asha_wal_fsync_seconds_bucket{le="0.131072"} 1
asha_wal_fsync_seconds_bucket{le="0.262144"} 1
asha_wal_fsync_seconds_bucket{le="0.524288"} 1
asha_wal_fsync_seconds_bucket{le="1.048576"} 1
asha_wal_fsync_seconds_bucket{le="2.097152"} 1
asha_wal_fsync_seconds_bucket{le="4.194304"} 1
asha_wal_fsync_seconds_bucket{le="8.388608"} 1
asha_wal_fsync_seconds_bucket{le="16.777216"} 1
asha_wal_fsync_seconds_bucket{le="33.554432"} 1
asha_wal_fsync_seconds_bucket{le="+Inf"} 1
asha_wal_fsync_seconds_sum 0.003
asha_wal_fsync_seconds_count 1
# HELP asha_snapshot_write_seconds Experiment snapshot write latency
# TYPE asha_snapshot_write_seconds histogram
asha_snapshot_write_seconds_bucket{le="0.000001"} 0
asha_snapshot_write_seconds_bucket{le="0.000002"} 0
asha_snapshot_write_seconds_bucket{le="0.000004"} 0
asha_snapshot_write_seconds_bucket{le="0.000008"} 0
asha_snapshot_write_seconds_bucket{le="0.000016"} 0
asha_snapshot_write_seconds_bucket{le="0.000032"} 0
asha_snapshot_write_seconds_bucket{le="0.000064"} 0
asha_snapshot_write_seconds_bucket{le="0.000128"} 0
asha_snapshot_write_seconds_bucket{le="0.000256"} 0
asha_snapshot_write_seconds_bucket{le="0.000512"} 0
asha_snapshot_write_seconds_bucket{le="0.001024"} 0
asha_snapshot_write_seconds_bucket{le="0.002048"} 0
asha_snapshot_write_seconds_bucket{le="0.004096"} 0
asha_snapshot_write_seconds_bucket{le="0.008192"} 0
asha_snapshot_write_seconds_bucket{le="0.016384"} 0
asha_snapshot_write_seconds_bucket{le="0.032768"} 0
asha_snapshot_write_seconds_bucket{le="0.065536"} 0
asha_snapshot_write_seconds_bucket{le="0.131072"} 0
asha_snapshot_write_seconds_bucket{le="0.262144"} 0
asha_snapshot_write_seconds_bucket{le="0.524288"} 0
asha_snapshot_write_seconds_bucket{le="1.048576"} 0
asha_snapshot_write_seconds_bucket{le="2.097152"} 0
asha_snapshot_write_seconds_bucket{le="4.194304"} 0
asha_snapshot_write_seconds_bucket{le="8.388608"} 0
asha_snapshot_write_seconds_bucket{le="16.777216"} 0
asha_snapshot_write_seconds_bucket{le="33.554432"} 0
asha_snapshot_write_seconds_bucket{le="+Inf"} 0
asha_snapshot_write_seconds_sum 0
asha_snapshot_write_seconds_count 0
# HELP asha_snapshot_delta_write_seconds Delta snapshot diff+write latency
# TYPE asha_snapshot_delta_write_seconds histogram
asha_snapshot_delta_write_seconds_bucket{le="0.000001"} 0
asha_snapshot_delta_write_seconds_bucket{le="0.000002"} 0
asha_snapshot_delta_write_seconds_bucket{le="0.000004"} 0
asha_snapshot_delta_write_seconds_bucket{le="0.000008"} 0
asha_snapshot_delta_write_seconds_bucket{le="0.000016"} 0
asha_snapshot_delta_write_seconds_bucket{le="0.000032"} 0
asha_snapshot_delta_write_seconds_bucket{le="0.000064"} 0
asha_snapshot_delta_write_seconds_bucket{le="0.000128"} 0
asha_snapshot_delta_write_seconds_bucket{le="0.000256"} 0
asha_snapshot_delta_write_seconds_bucket{le="0.000512"} 0
asha_snapshot_delta_write_seconds_bucket{le="0.001024"} 0
asha_snapshot_delta_write_seconds_bucket{le="0.002048"} 0
asha_snapshot_delta_write_seconds_bucket{le="0.004096"} 0
asha_snapshot_delta_write_seconds_bucket{le="0.008192"} 0
asha_snapshot_delta_write_seconds_bucket{le="0.016384"} 0
asha_snapshot_delta_write_seconds_bucket{le="0.032768"} 0
asha_snapshot_delta_write_seconds_bucket{le="0.065536"} 0
asha_snapshot_delta_write_seconds_bucket{le="0.131072"} 0
asha_snapshot_delta_write_seconds_bucket{le="0.262144"} 0
asha_snapshot_delta_write_seconds_bucket{le="0.524288"} 0
asha_snapshot_delta_write_seconds_bucket{le="1.048576"} 0
asha_snapshot_delta_write_seconds_bucket{le="2.097152"} 0
asha_snapshot_delta_write_seconds_bucket{le="4.194304"} 0
asha_snapshot_delta_write_seconds_bucket{le="8.388608"} 0
asha_snapshot_delta_write_seconds_bucket{le="16.777216"} 0
asha_snapshot_delta_write_seconds_bucket{le="33.554432"} 0
asha_snapshot_delta_write_seconds_bucket{le="+Inf"} 0
asha_snapshot_delta_write_seconds_sum 0
asha_snapshot_delta_write_seconds_count 0
# HELP asha_snapshot_full_bytes_total Bytes written by full snapshots
# TYPE asha_snapshot_full_bytes_total counter
asha_snapshot_full_bytes_total 0
# HELP asha_snapshot_delta_bytes_total Bytes written by delta snapshots
# TYPE asha_snapshot_delta_bytes_total counter
asha_snapshot_delta_bytes_total 0
# HELP asha_uptime_seconds Seconds since the daemon started
# TYPE asha_uptime_seconds gauge
asha_uptime_seconds <uptime>
"##;

/// `populated_plane().snapshot_json().render_compact()`, uptime masked.
const POPULATED_JSON: &str = concat!(
    "{\"schema\":\"asha-daemon-metrics-v1\",",
    "\"enabled\":true,",
    "\"uptime_s\":<uptime>,",
    "\"reactor\":{\"accepts\":3,",
    "\"bytes_read\":1024,",
    "\"bytes_written\":2048,",
    "\"decode_errors\":1,",
    "\"read_pauses\":0,",
    "\"iterations\":0,",
    "\"iteration\":{\"count\":0,\"sum_ns\":0,\"min_ns\":null,\"max_ns\":0,\"le\":[0.000001,0.000002,0.000004,0.000008,0.000016,0.000032,0.000064,0.000128,0.000256,0.000512,0.001024,0.002048,0.004096,0.008192,0.016384,0.032768,0.065536,0.131072,0.262144,0.524288,1.048576,2.097152,4.194304,8.388608,16.777216,33.554432],\"counts\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},",
    "\"wake_dispatch\":{\"count\":0,\"sum_ns\":0,\"min_ns\":null,\"max_ns\":0,\"le\":[0.000001,0.000002,0.000004,0.000008,0.000016,0.000032,0.000064,0.000128,0.000256,0.000512,0.001024,0.002048,0.004096,0.008192,0.016384,0.032768,0.065536,0.131072,0.262144,0.524288,1.048576,2.097152,4.194304,8.388608,16.777216,33.554432],\"counts\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}},",
    "\"connections\":{\"total\":2,",
    "\"open\":2},",
    "\"http\":{\"requests\":1},",
    "\"workers\":{\"queue_depth\":0},",
    "\"requests\":{\"total\":3,",
    "\"errors\":1,",
    "\"slow\":1,",
    "\"by_op\":{\"ping\":{\"count\":2,",
    "\"errors\":0,",
    "\"queue_wait\":{\"count\":2,\"sum_ns\":30000,\"min_ns\":10000,\"max_ns\":20000,\"le\":[0.000001,0.000002,0.000004,0.000008,0.000016,0.000032,0.000064,0.000128,0.000256,0.000512,0.001024,0.002048,0.004096,0.008192,0.016384,0.032768,0.065536,0.131072,0.262144,0.524288,1.048576,2.097152,4.194304,8.388608,16.777216,33.554432],\"counts\":[0,0,0,0,1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},",
    "\"execute\":{\"count\":2,\"sum_ns\":13000,\"min_ns\":5000,\"max_ns\":8000,\"le\":[0.000001,0.000002,0.000004,0.000008,0.000016,0.000032,0.000064,0.000128,0.000256,0.000512,0.001024,0.002048,0.004096,0.008192,0.016384,0.032768,0.065536,0.131072,0.262144,0.524288,1.048576,2.097152,4.194304,8.388608,16.777216,33.554432],\"counts\":[0,0,0,2,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}},",
    "\"status\":{\"count\":1,",
    "\"errors\":1,",
    "\"queue_wait\":{\"count\":1,\"sum_ns\":15000,\"min_ns\":15000,\"max_ns\":15000,\"le\":[0.000001,0.000002,0.000004,0.000008,0.000016,0.000032,0.000064,0.000128,0.000256,0.000512,0.001024,0.002048,0.004096,0.008192,0.016384,0.032768,0.065536,0.131072,0.262144,0.524288,1.048576,2.097152,4.194304,8.388608,16.777216,33.554432],\"counts\":[0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},",
    "\"execute\":{\"count\":1,\"sum_ns\":100000,\"min_ns\":100000,\"max_ns\":100000,\"le\":[0.000001,0.000002,0.000004,0.000008,0.000016,0.000032,0.000064,0.000128,0.000256,0.000512,0.001024,0.002048,0.004096,0.008192,0.016384,0.032768,0.065536,0.131072,0.262144,0.524288,1.048576,2.097152,4.194304,8.388608,16.777216,33.554432],\"counts\":[0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}}}},",
    "\"subscriptions\":{\"open\":0,",
    "\"events_sent\":0},",
    "\"tailers\":{\"exp-a\":{\"subscribers\":4,",
    "\"lag_records\":17,",
    "\"fanout_frames\":250,",
    "\"jam_waits\":9,",
    "\"jam_timeouts\":2}},",
    "\"store\":{\"wal_append\":{\"count\":0,\"sum_ns\":0,\"min_ns\":null,\"max_ns\":0,\"le\":[0.000001,0.000002,0.000004,0.000008,0.000016,0.000032,0.000064,0.000128,0.000256,0.000512,0.001024,0.002048,0.004096,0.008192,0.016384,0.032768,0.065536,0.131072,0.262144,0.524288,1.048576,2.097152,4.194304,8.388608,16.777216,33.554432],\"counts\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},",
    "\"wal_fsync\":{\"count\":1,\"sum_ns\":3000000,\"min_ns\":3000000,\"max_ns\":3000000,\"le\":[0.000001,0.000002,0.000004,0.000008,0.000016,0.000032,0.000064,0.000128,0.000256,0.000512,0.001024,0.002048,0.004096,0.008192,0.016384,0.032768,0.065536,0.131072,0.262144,0.524288,1.048576,2.097152,4.194304,8.388608,16.777216,33.554432],\"counts\":[0,0,0,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},",
    "\"snapshot_write\":{\"count\":0,\"sum_ns\":0,\"min_ns\":null,\"max_ns\":0,\"le\":[0.000001,0.000002,0.000004,0.000008,0.000016,0.000032,0.000064,0.000128,0.000256,0.000512,0.001024,0.002048,0.004096,0.008192,0.016384,0.032768,0.065536,0.131072,0.262144,0.524288,1.048576,2.097152,4.194304,8.388608,16.777216,33.554432],\"counts\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},",
    "\"snapshot_delta_write\":{\"count\":0,\"sum_ns\":0,\"min_ns\":null,\"max_ns\":0,\"le\":[0.000001,0.000002,0.000004,0.000008,0.000016,0.000032,0.000064,0.000128,0.000256,0.000512,0.001024,0.002048,0.004096,0.008192,0.016384,0.032768,0.065536,0.131072,0.262144,0.524288,1.048576,2.097152,4.194304,8.388608,16.777216,33.554432],\"counts\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},",
    "\"snapshot_full_bytes\":0,",
    "\"snapshot_delta_bytes\":0}}",
);
