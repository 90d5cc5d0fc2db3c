//! Many concurrent clients against one daemon: the acceptance bar is ≥32
//! simultaneous connections doing mixed requests and streaming
//! subscriptions with no deadlock, consistent manifest answers, and the
//! traffic visible in the metrics frame.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use asha_core::{Asha, AshaConfig, ErrorKind};
use asha_metrics::JsonValue;
use asha_service::{
    encode_frame, Client, Daemon, Frame, FrameReader, Push, Reply, Request, ServeOptions,
    DEFAULT_MAX_FRAME,
};
use asha_store::{
    BenchSpec, Durability, ExperimentMeta, ExperimentStatus, RunOptions, SchedulerState,
};
use asha_surrogate::BenchmarkModel;

const CLIENTS: usize = 36;

fn tmp_root(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("asha-svc-conc-{tag}-{}", std::process::id()));
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

/// Follow a subscription to its end, returning every telemetry line seen
/// (rendered compact). The daemon never drops a push, so a `lag` fails
/// the test.
fn drain_stream(client: &mut Client, name: &str) -> Vec<String> {
    let mut sub = client.subscribe(name, 0).unwrap();
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
                    Push::Lag { dropped, .. } => {
                        panic!("the daemon sent a lag push ({dropped} dropped)")
                    }
                    Push::Rewind { .. } => {
                        lines.clear();
                        let _ = client.unsubscribe(sub);
                        sub = client.subscribe(name, 0).unwrap();
                    }
                    Push::Status { .. } => {}
                    Push::End { .. } => break,
                }
            }
            None => panic!("stream stalled for 60s"),
        }
    }
    lines
}

#[test]
fn daemon_sustains_36_concurrent_clients() {
    let root = tmp_root("many");
    let mut serve = ServeOptions::new(&root);
    serve.tcp = Some("127.0.0.1:0".to_owned());
    // A deliberately shallow queue so subscriber backpressure paths
    // (lag accounting, hold-and-retry event delivery) actually exercise.
    serve.queue_depth = 32;
    let daemon = Daemon::start(serve).unwrap();
    let addr = daemon.tcp_addr().unwrap().to_string();

    let mut admin = Client::connect_tcp(&addr).unwrap();
    admin.create(&small_meta("exp"), opts()).unwrap();
    admin.start("exp", opts()).unwrap();

    let errors = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for i in 0..CLIENTS {
        let addr = addr.clone();
        let errors = Arc::clone(&errors);
        handles.push(thread::spawn(move || {
            let run = || -> Result<(), asha_core::Error> {
                let mut client = Client::connect_tcp(&addr)?;
                match i % 3 {
                    // A third of the fleet streams the WAL to completion.
                    0 => {
                        let lines = drain_stream(&mut client, "exp");
                        if lines.is_empty() {
                            return Err(asha_core::Error::invalid("empty stream"));
                        }
                    }
                    // A third hammers cheap requests while the run is live.
                    1 => {
                        for _ in 0..40 {
                            client.ping()?;
                            let rows = client.list()?;
                            if rows.iter().all(|r| r.name != "exp") {
                                return Err(asha_core::Error::invalid("exp missing from list"));
                            }
                            let status = client.status("exp")?;
                            status.status.as_str(); // must be a known state
                            client.metrics()?;
                        }
                    }
                    // The rest subscribe briefly, then walk away mid-stream
                    // (exercises tailer teardown while frames are in flight).
                    _ => {
                        let sub = client.subscribe("exp", 0)?;
                        let mut seen = 0;
                        while seen < 20 {
                            match client.next_push(Some(Duration::from_secs(30)))? {
                                Some(Push::End { .. }) => break,
                                Some(_) => seen += 1,
                                None => break,
                            }
                        }
                        let _ = client.unsubscribe(sub);
                    }
                }
                Ok(())
            };
            if let Err(e) = run() {
                eprintln!("client {i}: {e}");
                errors.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }
    assert_eq!(errors.load(Ordering::Relaxed), 0, "client threads failed");

    // The run must have finished and every manifest answer must agree.
    let status = admin.status("exp").unwrap();
    assert_eq!(status.status, ExperimentStatus::Finished);

    let snap = admin.metrics().unwrap();
    let count = |group: &str, key: &str| {
        snap.get(group)
            .and_then(|g| g.get(key))
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("{group}.{key} missing"))
    };
    let connections = count("connections", "total");
    assert!(
        connections > CLIENTS as u64,
        "expected >{CLIENTS} connections, saw {connections}"
    );
    let requests = count("requests", "total");
    assert!(requests > CLIENTS as u64, "requests {requests}");
    assert!(
        count("subscriptions", "events_sent") > 0,
        "no events delivered"
    );

    // Attach-after-finish: two fresh subscribers replaying the finished
    // WAL must see byte-identical streams.
    let mut a = Client::connect_tcp(&addr).unwrap();
    let mut b = Client::connect_tcp(&addr).unwrap();
    let lines_a = drain_stream(&mut a, "exp");
    let lines_b = drain_stream(&mut b, "exp");
    assert!(!lines_a.is_empty());
    assert_eq!(lines_a, lines_b, "replays diverged");

    admin.shutdown().unwrap();
    daemon.wait().unwrap();
    std::fs::remove_dir_all(&root).ok();
}

#[cfg(unix)]
#[test]
fn unix_socket_serves_subscribers_and_pause_resume() {
    let root = tmp_root("unix");
    let sock = root.join("ctl.sock");
    let mut serve = ServeOptions::new(&root);
    serve.unix = Some(sock.clone());
    let daemon = Daemon::start(serve).unwrap();

    let mut admin = Client::connect_unix(&sock).unwrap();
    admin.create(&small_meta("exp"), opts()).unwrap();
    admin.start("exp", opts()).unwrap();

    // A streaming watcher rides through a pause/resume cycle.
    let watcher = {
        let sock = sock.clone();
        thread::spawn(move || {
            let mut client = Client::connect_unix(&sock).unwrap();
            drain_stream(&mut client, "exp")
        })
    };

    // Pause, then resume; both must land (tolerating the run finishing
    // first, which reports a typed error rather than hanging).
    thread::sleep(Duration::from_millis(100));
    let paused = admin.pause("exp").is_ok();
    if paused {
        let status = admin.status("exp").unwrap();
        assert!(
            matches!(
                status.status,
                ExperimentStatus::Paused | ExperimentStatus::Finished
            ),
            "unexpected status {:?}",
            status.status
        );
        if status.status == ExperimentStatus::Paused {
            admin.resume("exp").unwrap();
        }
    }

    let lines = watcher.join().unwrap();
    assert!(!lines.is_empty(), "watcher saw no telemetry");
    assert_eq!(
        admin.status("exp").unwrap().status,
        ExperimentStatus::Finished
    );

    admin.shutdown().unwrap();
    daemon.wait().unwrap();
    assert!(!sock.exists(), "socket not cleaned up on shutdown");
    std::fs::remove_dir_all(&root).ok();
}

/// A `create` frame whose config parses but cannot build a ladder or a
/// simulator must come back as a typed `config` error — not reach a
/// panicking constructor under the supervisor lock, which used to poison
/// the mutex and take the housekeeper and every later `create` down. A
/// `sampler` no method has is refused the same way, at decode, and a state
/// no scheduler can hold before the run is built: no refused create may
/// leave a directory behind.
#[test]
fn hostile_create_frames_get_typed_errors_and_the_daemon_keeps_serving() {
    let root = tmp_root("hostile");
    let mut serve = ServeOptions::new(&root);
    serve.tcp = Some("127.0.0.1:0".to_owned());
    let daemon = Daemon::start(serve).unwrap();
    let addr = daemon.tcp_addr().unwrap().to_string();

    // A wedged or dead worker must fail the test, not hang it.
    let connect = || {
        let mut client = Client::connect_tcp(&addr).unwrap();
        client.set_call_timeout(Some(Duration::from_secs(20)));
        client
    };
    let with_asha = |edit: fn(&mut AshaConfig)| {
        let mut meta = small_meta("hostile");
        let SchedulerState::Asha(state) = &mut meta.initial else {
            unreachable!("small_meta builds an ASHA state");
        };
        edit(&mut state.config);
        meta
    };
    let with_sim = |edit: fn(&mut asha_sim::SimConfig)| {
        let mut meta = small_meta("hostile");
        edit(&mut meta.sim);
        meta
    };
    // Decodes fine, but rung 0 holds trials no `Asha` ever sampled: the
    // first `suggest` would have panicked on the worker thread.
    let orphan_records = {
        let mut meta = small_meta("hostile");
        let SchedulerState::Asha(state) = &mut meta.initial else {
            unreachable!("small_meta builds an ASHA state");
        };
        state.rungs[0].records = (100..108).map(|t| (t, 0.5)).collect();
        meta
    };
    let hostile = [
        ("eta < 2", with_asha(|c| c.reduction_factor = 1.5)),
        ("r > R", with_asha(|c| c.min_resource = 81.0)),
        ("s > s_max", with_asha(|c| c.stop_rate = 4)),
        ("workers = 0", with_sim(|s| s.workers = 0)),
        ("max_time = 0", with_sim(|s| s.max_time = 0.0)),
        ("max_time < 0", with_sim(|s| s.max_time = -3.0)),
        ("max_time NaN", with_sim(|s| s.max_time = f64::NAN)),
        ("drop_prob = 2", with_sim(|s| s.drop_prob = 2.0)),
        ("drop_prob < 0", with_sim(|s| s.drop_prob = -0.1)),
        ("orphan rung records", orphan_records),
    ];
    let mut first = connect();
    for (what, bad) in &hostile {
        let err = first
            .create(bad, opts())
            .expect_err("a hostile create must be refused");
        assert_eq!(err.kind(), ErrorKind::Config, "{what}: {err}");
        // The same connection is neither wedged nor closed.
        first.ping().unwrap_or_else(|e| panic!("{what}: ping: {e}"));
    }
    // No `ExperimentMeta` encodes these, so they go out as raw frames.
    let with_sampler = |sampler: JsonValue| {
        let request = Request::Create {
            meta: small_meta("hostile"),
            opts: opts(),
        };
        let mut frame = request.to_frame(9);
        let JsonValue::Obj(fields) = &mut frame else {
            unreachable!("a frame is an object")
        };
        let Some((_, JsonValue::Obj(meta))) = fields.iter_mut().find(|(key, _)| key == "meta")
        else {
            unreachable!("a create frame carries its meta")
        };
        meta.push(("sampler".to_owned(), sampler));
        encode_frame(&frame)
    };
    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut replies = FrameReader::new(raw.try_clone().unwrap());
    for (what, sampler) in [
        ("sampler \"bogus\"", JsonValue::Str("bogus".to_owned())),
        ("sampler 5", JsonValue::Int(5)),
    ] {
        raw.write_all(with_sampler(sampler).as_bytes()).unwrap();
        let (id, reply) = match replies.read_frame() {
            Ok(Frame::Value(frame)) => Reply::from_frame(&frame, "create").unwrap(),
            other => panic!("{what}: no reply frame: {other:?}"),
        };
        let err = reply.expect_err("a create naming no sampler must be refused");
        assert_eq!((id, err.kind()), (9, ErrorKind::Config), "{what}: {err}");
    }
    assert!(
        first.list().unwrap().is_empty(),
        "no hostile frame may leave an experiment behind"
    );
    let left: Vec<_> = std::fs::read_dir(&root)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.is_dir())
        .collect();
    assert!(left.is_empty(), "a refused create left {left:?} behind");

    // A second connection finds a fully working daemon: create, start and a
    // complete subscription, which the first connection can follow too.
    let mut second = connect();
    second.ping().unwrap();
    second.create(&small_meta("good"), opts()).unwrap();
    second.start("good", opts()).unwrap();
    let seen_by_second = drain_stream(&mut second, "good");
    assert!(!seen_by_second.is_empty());
    assert_eq!(drain_stream(&mut first, "good"), seen_by_second);

    first.shutdown().unwrap();
    daemon.wait().unwrap();
    std::fs::remove_dir_all(&root).ok();
}

/// A frame nested deeper than the parser follows — well inside the frame
/// size limit — must come back as a typed `protocol` error. Inbound frames
/// are parsed on the reactor thread, so a parser that recursed as deep as
/// the frame asked overflowed that thread's stack and took the daemon, and
/// every experiment it was running, down with one line from any client.
#[test]
fn deeply_nested_frames_get_a_protocol_error_and_the_daemon_keeps_serving() {
    let root = tmp_root("deep");
    let mut serve = ServeOptions::new(&root);
    serve.tcp = Some("127.0.0.1:0".to_owned());
    let daemon = Daemon::start(serve).unwrap();
    let addr = daemon.tcp_addr().unwrap().to_string();

    let levels = 1_000_000;
    assert!(
        levels < DEFAULT_MAX_FRAME,
        "the frame must pass the size check"
    );
    let hostile = [
        ("arrays", "[".repeat(levels)),
        ("objects", "{\"a\":".repeat(levels / 5)),
        ("a mix", "[{\"a\":[".repeat(levels / 7)),
        // Closed properly: refused for its depth, not for being cut short.
        (
            "balanced",
            format!("{}{}", "[".repeat(200), "]".repeat(200)),
        ),
    ];

    let mut raw = TcpStream::connect(&addr).unwrap();
    let timeout = Some(Duration::from_secs(20));
    raw.set_read_timeout(timeout).unwrap();
    raw.set_write_timeout(timeout).unwrap();
    let mut replies = FrameReader::new(raw.try_clone().unwrap());
    let mut reply_to = |line: &str, op: &str| {
        raw.write_all(line.as_bytes()).unwrap();
        raw.write_all(b"\n").unwrap();
        match replies.read_frame() {
            Ok(Frame::Value(frame)) => Reply::from_frame(&frame, op).unwrap(),
            other => panic!("no reply frame: {other:?}"),
        }
    };
    for (what, frame) in &hostile {
        let (id, reply) = reply_to(frame, "ping");
        let err = reply.expect_err("a frame that deep must be refused");
        assert_eq!((id, err.kind()), (0, ErrorKind::Protocol), "{what}: {err}");
        assert!(err.to_string().contains("nesting deeper"), "{what}: {err}");
        // The same connection is neither wedged nor closed.
        let ping = encode_frame(&Request::Ping.to_frame(7));
        assert_eq!(reply_to(ping.trim_end(), "ping"), (7, Ok(Reply::Pong)));
    }

    // A new connection finds a fully working daemon: create, start and a
    // complete subscription.
    let mut client = Client::connect_tcp(&addr).unwrap();
    client.set_call_timeout(timeout);
    client.create(&small_meta("after"), opts()).unwrap();
    client.start("after", opts()).unwrap();
    assert!(!drain_stream(&mut client, "after").is_empty());

    client.shutdown().unwrap();
    daemon.wait().unwrap();
    std::fs::remove_dir_all(&root).ok();
}

/// At a queue depth of 0 every connection's reads would pause for good and
/// no stream frame would ever fit: the daemon refuses that as a `config`
/// error before it creates the root.
#[test]
fn a_zero_queue_depth_is_refused_before_the_root_is_created() {
    let root = std::env::temp_dir().join(format!("asha-svc-conc-depth0-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let mut serve = ServeOptions::new(&root);
    serve.tcp = Some("127.0.0.1:0".to_owned());
    serve.queue_depth = 0;
    let err = Daemon::start(serve).err().expect("depth 0 must be refused");
    assert_eq!(err.kind(), ErrorKind::Config, "{err}");
    assert!(!root.exists(), "the refused daemon created its root");
}
