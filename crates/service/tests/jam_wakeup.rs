//! A tailer held up by a full connection queue is woken by the drain that
//! makes room, not by its timer: one live reader behind a 4-frame queue
//! follows a run of more than 20 000 WAL records to its end. The stream
//! must be the WAL, whole and in order, and the tailer's own counters must
//! show that nearly every wait for room ended with the doorbell — the
//! check is on counts, never on wall time.

#![cfg(unix)]

use std::time::Duration;

use asha_core::{Asha, AshaConfig};
use asha_service::{Client, Daemon, Push, ServeOptions};
use asha_store::{BenchSpec, ExperimentMeta, RunOptions, SchedulerState, WalTail, WAL_FILE};
use asha_surrogate::BenchmarkModel;

const NAME: &str = "jam";

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

#[test]
fn a_jammed_tailer_is_woken_by_the_drain() {
    let root = std::env::temp_dir().join(format!("asha-svc-jam-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).unwrap();
    let socket = root.join("sock");
    let mut serve = ServeOptions::new(&root);
    serve.unix = Some(socket.clone());
    serve.queue_depth = 4;
    let daemon = Daemon::start(serve).unwrap();

    let mut client = Client::connect_unix(&socket).unwrap();
    client.set_call_timeout(Some(Duration::from_secs(60)));
    let opts = RunOptions {
        snapshot_jobs: 2_000,
        ..RunOptions::default()
    };
    client.create(&meta(), opts).unwrap();
    client.start(NAME, opts).unwrap();

    // WAL frames are held, never dropped, so the stream is whole without
    // resubscribing; a `lag` only says a status push did not fit.
    let sub = client.subscribe(NAME, 0).unwrap();
    let mut lines = Vec::new();
    loop {
        let push = client
            .next_push(Some(Duration::from_secs(60)))
            .unwrap()
            .expect("the stream stalled");
        assert_eq!(push.sub(), sub);
        match push {
            Push::Event { data, .. } => lines.push(data.render_compact()),
            Push::Lag { .. } | Push::Status { .. } => {}
            Push::Rewind { .. } => panic!("unexpected rewind"),
            Push::End { .. } => break,
        }
    }
    let wal = WalTail::new(root.join(NAME).join(WAL_FILE)).poll().unwrap();
    assert!(wal.lines.len() >= 20_000, "{} records", wal.lines.len());
    assert!(lines == wal.lines, "the pushed stream is not the WAL");

    let frame = client.metrics().unwrap();
    let count = |key: &str| {
        let cell = frame.get("tailers").and_then(|t| t.get(NAME));
        cell.and_then(|t| t.get(key))
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("tailers.{NAME}.{key} missing"))
    };
    let (waits, timeouts) = (count("jam_waits"), count("jam_timeouts"));
    assert_eq!(count("fanout_frames"), wal.lines.len() as u64);
    assert!(waits >= 500, "a 4-frame queue jams often: {waits} waits");
    assert!(
        timeouts * 4 <= waits,
        "{timeouts} of {waits} waits for room ran out their bound"
    );

    client.shutdown().unwrap();
    daemon.wait().unwrap();
    std::fs::remove_dir_all(&root).ok();
}
