//! End-to-end observability checks against a live daemon: the HTTP
//! `/metrics` listener must serve parseable Prometheus text with non-zero
//! request histograms, the `metrics` protocol frame must return the JSON
//! snapshot, `stats` must stay a consistent projection of the plane, and
//! the slow-request log must capture requests over the threshold.

#![cfg(unix)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use asha_metrics::JsonValue;
use asha_obs::HistogramSnapshot;
use asha_service::{Client, Daemon, ServeOptions, METRICS_SCHEMA};

fn tmp_root(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("asha-svc-obs-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start_daemon(tag: &str) -> (Daemon, std::path::PathBuf) {
    let root = tmp_root(tag);
    let mut opts = ServeOptions::new(&root);
    opts.tcp = Some("127.0.0.1:0".to_owned());
    opts.metrics_addr = Some("127.0.0.1:0".to_owned());
    opts.slow_log = Some(root.join("slow.jsonl"));
    // Every request is "slow" at a zero threshold, exercising the log.
    opts.slow_threshold = Duration::from_millis(0);
    (Daemon::start(opts).unwrap(), root)
}

fn connect(daemon: &Daemon) -> Client {
    let addr = daemon.tcp_addr().unwrap();
    let mut client = Client::connect_tcp(&addr.to_string()).unwrap();
    client.set_call_timeout(Some(Duration::from_secs(30)));
    client
}

/// One blocking HTTP exchange against the metrics listener.
fn http_get(addr: std::net::SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

#[test]
fn http_scrape_returns_prometheus_text_with_request_histograms() {
    let (daemon, root) = start_daemon("scrape");
    let mut client = connect(&daemon);
    for _ in 0..5 {
        client.ping().unwrap();
    }

    let addr = daemon.metrics_addr().expect("metrics listener bound");
    let response = http_get(addr, "GET /metrics HTTP/1.0\r\n\r\n");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
    assert!(
        head.contains("Content-Type: text/plain; version=0.0.4"),
        "{head}"
    );

    // The body must parse as the exposition format and carry the pings the
    // client just issued in the per-op request histogram.
    let mut ping_count = None;
    for line in body.lines() {
        assert!(
            line.starts_with('#')
                || line
                    .rsplit_once(' ')
                    .is_some_and(|(_, v)| v.parse::<f64>().is_ok()),
            "unparseable exposition line: {line:?}"
        );
        if let Some(rest) = line.strip_prefix("asha_request_execute_seconds_count{op=\"ping\"}") {
            ping_count = rest.trim().parse::<f64>().ok();
        }
    }
    assert!(
        ping_count.is_some_and(|n| n >= 5.0),
        "ping histogram count missing or zero: {ping_count:?}"
    );
    for required in [
        "asha_worker_queue_depth",
        "asha_wal_fsync_seconds_count",
        "asha_requests_total",
        "asha_connections_open",
        "asha_tailer_jam_waits_total",
        "asha_tailer_jam_timeouts_total",
    ] {
        assert!(body.contains(required), "missing {required}");
    }

    // Scrapes are not protocol connections and must not leak into either
    // side of the stats projection.
    let stats = client.stats().unwrap();
    assert_eq!(stats.connections_open, 1, "only the client connection");

    client.shutdown().unwrap();
    daemon.wait().unwrap();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn http_listener_rejects_bad_method_and_path() {
    let (daemon, root) = start_daemon("reject");
    let addr = daemon.metrics_addr().unwrap();
    let response = http_get(addr, "POST /metrics HTTP/1.0\r\n\r\n");
    assert!(response.starts_with("HTTP/1.0 405"), "{response}");
    let response = http_get(addr, "GET /other HTTP/1.0\r\n\r\n");
    assert!(response.starts_with("HTTP/1.0 404"), "{response}");
    // A valid scrape still works after the rejects.
    let response = http_get(addr, "GET /metrics HTTP/1.0\r\n\r\n");
    assert!(response.starts_with("HTTP/1.0 200"), "{response}");

    let mut client = connect(&daemon);
    client.shutdown().unwrap();
    daemon.wait().unwrap();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn metrics_frame_returns_snapshot_and_stats_stays_a_projection() {
    let (daemon, root) = start_daemon("frame");
    let mut client = connect(&daemon);
    for _ in 0..3 {
        client.ping().unwrap();
    }

    let snap = client.metrics().unwrap();
    assert_eq!(
        snap.get("schema").and_then(JsonValue::as_str),
        Some(METRICS_SCHEMA)
    );
    // Constant on the wire: older `asha-ctl top` builds key their header on it.
    assert_eq!(snap.get("enabled").and_then(JsonValue::as_bool), Some(true));
    let ping = snap
        .get("requests")
        .and_then(|r| r.get("by_op"))
        .and_then(|b| b.get("ping"))
        .expect("ping op present after pings");
    assert_eq!(ping.get("count").and_then(JsonValue::as_u64), Some(3));
    let execute = ping
        .get("execute")
        .and_then(HistogramSnapshot::from_json)
        .expect("execute histogram decodes");
    assert_eq!(execute.count(), 3);
    assert!(execute.quantile(0.99) >= 0.0);

    // `stats` is a thin projection of the same cells: its request total
    // can only sit at or above the snapshot taken just before it.
    let total = snap
        .get("requests")
        .and_then(|r| r.get("total"))
        .and_then(JsonValue::as_u64)
        .unwrap();
    let stats = client.stats().unwrap();
    assert!(
        stats.requests >= total,
        "stats.requests {} < snapshot total {total}",
        stats.requests
    );
    assert_eq!(stats.connections_open, 1);

    client.shutdown().unwrap();
    daemon.wait().unwrap();

    // Zero threshold: every request must have landed in the slow log.
    let log = std::fs::read_to_string(root.join("slow.jsonl")).unwrap();
    let lines: Vec<&str> = log.lines().collect();
    assert!(
        lines.len() >= 5,
        "expected one slow row per request, got {}",
        lines.len()
    );
    for line in &lines {
        let row = JsonValue::parse(line).expect("slow log rows are JSON");
        assert!(row.get("req_id").and_then(JsonValue::as_u64).is_some());
        assert!(row.get("op").and_then(JsonValue::as_str).is_some());
        assert!(row.get("total_s").and_then(JsonValue::as_f64).is_some());
    }
    std::fs::remove_dir_all(&root).ok();
}
