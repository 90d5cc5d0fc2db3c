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
    t.window_evictions.inc();
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
        ("asha_tailer_window_evictions_total", 1.0),
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
        "asha_sub_events_lagged_total counter",
        "asha_tailer_subscribers gauge",
        "asha_tailer_lag_records gauge",
        "asha_tailer_window_evictions_total counter",
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
        "subscriptions.events_lagged",
        "tailers.exp-a.subscribers",
        "tailers.exp-a.lag_records",
        "tailers.exp-a.window_evictions",
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
