//! Scaled fan-out: ≥512 concurrent connections against one daemon on its
//! fixed thread pool, mixing plain requests with streaming subscriptions.
//! Every subscriber must see a gap-free telemetry stream (contiguous
//! `seq`, identical across subscribers) even though most of them sit
//! undrained — queues full, sockets jammed — for the whole run.
//!
//! The old thread-per-connection server would need 512+ threads here; the
//! reactor must hold the process thread count roughly flat, which the test
//! asserts directly from `/proc/self/status` on Linux.

use std::time::{Duration, Instant};

use asha_core::{Asha, AshaConfig};
use asha_metrics::JsonValue;
use asha_service::{Client, Daemon, Push, ServeOptions};
use asha_store::{
    BenchSpec, Durability, ExperimentMeta, ExperimentStatus, RunOptions, SchedulerState,
};
use asha_surrogate::BenchmarkModel;

const CLIENTS: usize = 512;
/// Every Nth connection subscribes; the rest issue plain requests.
const SUB_STRIDE: usize = 4;

fn tmp_root(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("asha-svc-scaled-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_meta(name: &str) -> ExperimentMeta {
    let spec = BenchSpec {
        preset: "svm_vehicle".to_owned(),
        seed: 11,
    };
    let bench = spec.build().unwrap();
    let space = bench.space().clone();
    let asha = Asha::new(space.clone(), AshaConfig::new(1.0, 27.0, 3.0));
    ExperimentMeta {
        name: name.to_owned(),
        space,
        initial: SchedulerState::Asha(asha.export_state()),
        sampler: None,
        seed: 5,
        sim: asha_sim::SimConfig::new(4, 40.0)
            .with_stragglers(0.3)
            .with_drops(0.02),
        bench: spec,
    }
}

fn opts() -> RunOptions {
    RunOptions {
        sync: Durability::EveryN(32),
        snapshot_jobs: 200,
        ..RunOptions::default()
    }
}

/// The metrics frame's `group.key` counter.
fn count(snap: &JsonValue, group: &str, key: &str) -> u64 {
    snap.get(group)
        .and_then(|g| g.get(key))
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("{group}.{key} missing"))
}

/// Current thread count of this process (test + in-process daemon).
#[cfg(target_os = "linux")]
fn process_threads() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Read one subscriber to its `End`, returning every telemetry line
/// (compact-rendered). Everything a subscriber is owed — events and
/// status pushes alike — is held and retried, never dropped, so the
/// stream is complete without resubscribing and a `lag` fails the test.
fn drain_to_end(client: &mut Client, sub: u64) -> Vec<String> {
    let mut lines = Vec::new();
    loop {
        match client.next_push(Some(Duration::from_secs(60))).unwrap() {
            Some(push) => {
                if push.sub() != sub {
                    continue;
                }
                match push {
                    Push::Event { data, .. } => {
                        if data.get("seq").is_some() {
                            lines.push(data.render_compact());
                        }
                    }
                    Push::Rewind { .. } => lines.clear(),
                    Push::Status { .. } => {}
                    Push::Lag { dropped, .. } => {
                        panic!("subscriber {sub} was sent a lag push ({dropped} dropped)")
                    }
                    Push::End { .. } => break,
                }
            }
            None => panic!("subscriber {sub} stalled for 60s"),
        }
    }
    lines
}

#[test]
fn daemon_sustains_512_mixed_clients_on_a_fixed_thread_pool() {
    let root = tmp_root("fleet");
    let mut serve = ServeOptions::new(&root);
    serve.tcp = Some("127.0.0.1:0".to_owned());
    // Shallow per-connection queues: with 128 undrained subscribers the
    // event tier must jam and hold-and-retry rather than drop.
    serve.queue_depth = 16;
    let daemon = Daemon::start(serve).unwrap();
    let addr = daemon.tcp_addr().unwrap().to_string();

    let mut admin = Client::connect_tcp(&addr).unwrap();
    admin.create(&small_meta("exp"), opts()).unwrap();
    admin.start("exp", opts()).unwrap();

    // Connect the whole fleet up front so all 512 sockets are registered
    // with the reactor at once.
    let mut fleet: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::connect_tcp(&addr).unwrap())
        .collect();

    // Subscribers attach from seq 0 and then sit undrained while the run
    // produces telemetry — their queues must fill and hold, not drop.
    let mut subs: Vec<(usize, u64)> = Vec::new();
    for (i, client) in fleet.iter_mut().enumerate() {
        if i % SUB_STRIDE == 0 {
            subs.push((i, client.subscribe("exp", 0).unwrap()));
        }
    }
    assert!(subs.len() >= CLIENTS / SUB_STRIDE);

    // Mix requests over every connection — including the subscribers, whose
    // replies must interleave cleanly with buffered push frames.
    for round in 0..2 {
        for (i, client) in fleet.iter_mut().enumerate() {
            client.ping().unwrap();
            if i % 16 == round {
                let rows = client.list().unwrap();
                assert!(rows.iter().any(|r| r.name == "exp"));
            }
        }
    }

    // With all 512 connections live and the run in flight, the process must
    // still be running on a small fixed thread inventory (reactor + worker
    // pool + one tailer + experiment workers), nowhere near one per client.
    #[cfg(target_os = "linux")]
    {
        let threads = process_threads().expect("/proc/self/status unreadable");
        assert!(
            threads < 64,
            "expected a fixed thread pool, saw {threads} threads for {CLIENTS} connections"
        );
    }

    let snap = admin.metrics().unwrap();
    let open = count(&snap, "connections", "open");
    assert!(
        open >= CLIENTS as u64,
        "connections.open {open} < fleet {CLIENTS}"
    );
    // Subscriptions may already have completed (short runs deliver End the
    // moment the WAL is fully queued), so the gauge is bounded, not exact.
    assert!(count(&snap, "subscriptions", "open") <= subs.len() as u64);

    // Let the run finish while the fleet stays connected.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = admin.status("exp").unwrap();
        if status.status == ExperimentStatus::Finished {
            break;
        }
        assert!(Instant::now() < deadline, "run did not finish in 120s");
        std::thread::sleep(Duration::from_millis(50));
    }

    // Drain every subscriber to End and check gap-freedom: seq must be
    // exactly 0..n with no holes, and every subscriber must see the
    // identical stream.
    let mut reference: Option<Vec<String>> = None;
    for &(idx, sub) in &subs {
        let lines = drain_to_end(&mut fleet[idx], sub);
        assert!(!lines.is_empty(), "subscriber {idx} saw no telemetry");
        for (pos, line) in lines.iter().enumerate() {
            let needle = format!("\"seq\":{pos}");
            assert!(
                line.contains(&needle),
                "subscriber {idx} gap at position {pos}: {line}"
            );
        }
        match &reference {
            None => reference = Some(lines),
            Some(first) => assert_eq!(
                first, &lines,
                "subscriber {idx} diverged from the first stream"
            ),
        }
    }

    // Every subscription ended cleanly, so the gauge must be back to zero.
    let snap = admin.metrics().unwrap();
    assert_eq!(
        count(&snap, "subscriptions", "open"),
        0,
        "subscriptions leaked"
    );
    assert!(count(&snap, "subscriptions", "events_sent") > 0);
    assert!(count(&snap, "connections", "total") > CLIENTS as u64);

    drop(fleet);
    admin.shutdown().unwrap();
    daemon.wait().unwrap();
    std::fs::remove_dir_all(&root).ok();
}
