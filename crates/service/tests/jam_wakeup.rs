//! A subscriber behind a 4-frame queue — an eighth of 4 is 0, so the event
//! frames may fill all of it — follows a run of more than 20 000 WAL
//! records to its end, and is owed everything on the way:
//!
//! * a live reader's tailer is woken by the drain that makes room, not by
//!   its timer: its own counters show that nearly every wait for room
//!   ended with the doorbell — the check is on counts, never on wall time;
//! * a reader that stops while the experiment is paused and resumed is
//!   sent the newest status once it reads again, and never a `lag`.
//!
//! Either way the stream must be the WAL, whole and in order.

#![cfg(unix)]

use std::path::PathBuf;
use std::time::{Duration, Instant};

use asha_core::{Asha, AshaConfig};
use asha_metrics::JsonValue;
use asha_service::{Client, Daemon, Push, ServeOptions};
use asha_store::{
    BenchSpec, ExperimentMeta, ExperimentStatus, RunOptions, SchedulerState, WalTail, WAL_FILE,
};
use asha_surrogate::BenchmarkModel;

const NAME: &str = "jam";
const WAIT: Duration = Duration::from_secs(60);

fn meta() -> ExperimentMeta {
    let spec = BenchSpec {
        preset: "svm_vehicle".to_owned(),
        seed: 3,
    };
    let space = spec.build().unwrap().space().clone();
    let asha = Asha::new(space.clone(), AshaConfig::new(1.0, 27.0, 3.0));
    ExperimentMeta {
        name: NAME.to_owned(),
        space,
        initial: SchedulerState::Asha(asha.export_state()),
        sampler: None,
        seed: 17,
        sim: asha_sim::SimConfig::new(25, 1e12).with_max_jobs(7_000),
        bench: spec,
    }
}

/// A daemon on a Unix socket whose connections queue 4 frames, running
/// [`NAME`]; returns it with its root and a client that started the run.
fn started(tag: &str) -> (Daemon, PathBuf, Client) {
    let root = std::env::temp_dir().join(format!("asha-svc-jam-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).unwrap();
    let mut serve = ServeOptions::new(&root);
    serve.unix = Some(root.join("sock"));
    serve.queue_depth = 4;
    let daemon = Daemon::start(serve).unwrap();

    let mut client = Client::connect_unix(root.join("sock")).unwrap();
    client.set_call_timeout(Some(WAIT));
    let opts = RunOptions {
        snapshot_jobs: 2_000,
        ..RunOptions::default()
    };
    client.create(&meta(), opts).unwrap();
    client.start(NAME, opts).unwrap();
    (daemon, root, client)
}

/// The tailer's `key` counter in a metrics frame (0 before the tailer's
/// first turn).
fn tailer_count(frame: &JsonValue, key: &str) -> u64 {
    let cell = frame.get("tailers").and_then(|t| t.get(NAME));
    cell.and_then(|t| t.get(key))
        .and_then(|v| v.as_u64())
        .unwrap_or(0)
}

/// Read subscription `sub` to its `end`: the event frames' bodies and the
/// statuses pushed, in arrival order.
fn read_to_end(client: &mut Client, sub: u64) -> (Vec<String>, Vec<ExperimentStatus>) {
    let (mut lines, mut statuses) = (Vec::new(), Vec::new());
    loop {
        let push = client
            .next_push(Some(WAIT))
            .unwrap()
            .expect("the stream stalled");
        assert_eq!(push.sub(), sub);
        match push {
            Push::Event { data, .. } => lines.push(data.render_compact()),
            Push::Status { state, .. } => statuses.push(state.status),
            Push::Lag { dropped, .. } => panic!("the daemon sent a lag push ({dropped} dropped)"),
            Push::Rewind { .. } => panic!("unexpected rewind"),
            Push::End { .. } => return (lines, statuses),
        }
    }
}

fn wal_lines(root: &std::path::Path) -> Vec<String> {
    let wal = WalTail::new(root.join(NAME).join(WAL_FILE)).poll().unwrap();
    assert!(wal.lines.len() >= 20_000, "{} records", wal.lines.len());
    wal.lines
}

#[test]
fn a_jammed_tailer_is_woken_by_the_drain() {
    let (daemon, root, mut client) = started("drain");
    let sub = client.subscribe(NAME, 0).unwrap();
    let (lines, _) = read_to_end(&mut client, sub);
    let wal = wal_lines(&root);
    assert!(lines == wal, "the pushed stream is not the WAL");

    let frame = client.metrics().unwrap();
    let (waits, timeouts) = (
        tailer_count(&frame, "jam_waits"),
        tailer_count(&frame, "jam_timeouts"),
    );
    assert_eq!(tailer_count(&frame, "fanout_frames"), wal.len() as u64);
    assert!(waits >= 500, "a 4-frame queue jams often: {waits} waits");
    assert!(
        timeouts * 4 <= waits,
        "{timeouts} of {waits} waits for room ran out their bound"
    );

    client.shutdown().unwrap();
    daemon.wait().unwrap();
    std::fs::remove_dir_all(&root).ok();
}

/// A subscriber that reads nothing while the experiment is paused and
/// resumed: neither status may be lost to its full queue. Once it reads
/// again it is sent the statuses in transition order, the newest among
/// them, never a `lag`, and the whole WAL.
#[test]
fn a_jammed_subscriber_is_owed_the_newest_status_and_never_a_lag() {
    let (daemon, root, mut client) = started("status");
    let mut admin = Client::connect_unix(root.join("sock")).unwrap();
    admin.set_call_timeout(Some(WAIT));

    // Subscribe once the WAL's frames overfill the queue and the socket
    // behind it (a third of the run), and pause at once: the paused run
    // cannot finish before the queue is full for good.
    let wal = root.join(NAME).join(WAL_FILE);
    let deadline = Instant::now() + WAIT;
    while std::fs::metadata(&wal).map_or(0, |m| m.len()) < 200_000 {
        assert!(Instant::now() < deadline, "the WAL did not grow");
        std::thread::sleep(Duration::from_millis(1));
    }
    let sub = client.subscribe(NAME, 0).unwrap();
    admin.pause(NAME).unwrap();

    // Full for good: over a stretch of waits for room, every one ran out
    // its bound, because nobody drains the queue.
    let mut last = None;
    loop {
        let frame = admin.metrics().unwrap();
        let now = (
            tailer_count(&frame, "jam_waits"),
            tailer_count(&frame, "jam_timeouts"),
        );
        if let Some((waits, timeouts)) = last {
            if now.0 >= waits + 3 && now.1 - timeouts == now.0 - waits {
                break;
            }
        }
        assert!(Instant::now() < deadline, "the queue never stayed full");
        last = Some(now);
        std::thread::sleep(Duration::from_millis(20));
    }
    admin.resume(NAME).unwrap();

    let (lines, statuses) = read_to_end(&mut client, sub);
    use ExperimentStatus::{Finished, Paused, Running};
    let order: Vec<usize> = statuses
        .iter()
        .map(|s| [Paused, Running, Finished].iter().position(|t| t == s))
        .map(|at| at.unwrap_or_else(|| panic!("unexpected status in {statuses:?}")))
        .collect();
    assert!(
        order.windows(2).all(|w| w[0] < w[1]),
        "statuses out of transition order: {statuses:?}"
    );
    assert!(
        order.last().is_some_and(|&at| at >= 1),
        "the resume's status, owed while the queue was full, never came: {statuses:?}"
    );
    assert!(
        lines == wal_lines(&root),
        "the pushed stream is not the WAL"
    );

    admin.shutdown().unwrap();
    daemon.wait().unwrap();
    std::fs::remove_dir_all(&root).ok();
}
