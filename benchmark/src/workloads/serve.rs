//! `serve-e2e-25w`: what `asha-ctl create` + `watch` does, against an
//! in-process daemon — `create` → `start` → `subscribe(name, 0)` → follow the
//! pushes live to `End` → render the run report. Checkpoints are sparse, so
//! WAL append, `WalTail`, tailer fan-out, reactor, protocol, client parse and
//! the report carry the wall; checkpointing is `durable-500w`'s business.
//! Closed loop, one client connection.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use asha::core::telemetry::Event;
use asha::core::Asha;
use asha::metrics::JsonValue;
use asha::obs::{parse_jsonl, HistogramSnapshot, RunRecorder, RunReport};
use asha::service::{Client, Daemon, Push, ServeOptions};
use asha::sim::{ClusterSim, SimConfig};
use asha::store::{
    read_wal, BenchSpec, ExperimentMeta, RunOptions, SchedulerState, WalTail, WAL_FILE,
};
use asha::surrogate::BenchmarkModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{derive_seed, timed_region, Digest, Metric, Outcome, Size, Traced, Workload};
use crate::stats::{median, quartiles};
use crate::trace::{ratio, timed, Tracer};
use crate::workloads::{asha_config, HORIZON, PRESET};
use crate::wrappers::TimedRecorder;

pub const FULL: Size = Size {
    panel: 4,
    work: 16_000,
    pass_secs: 4.0,
};
pub const QUICK: Size = Size {
    panel: 1,
    work: 1_500,
    pass_secs: 0.2,
};

const WORKERS: usize = 25;
const NAME: &str = "e2e";
/// Bound on every blocking client call, and on the whole follow loop: a
/// wedged tailer fails the experiment instead of hanging the run.
const CALL_DEADLINE: Duration = Duration::from_secs(30);
const FOLLOW_DEADLINE: Duration = Duration::from_secs(60);

pub struct Serve {
    metas: Vec<ExperimentMeta>,
    scratch: PathBuf,
    jobs: usize,
}

impl Serve {
    pub fn new(seed: u64, size: Size, scratch: &Path) -> Serve {
        let metas = (0..size.panel as u64)
            .map(|i| {
                let spec = BenchSpec {
                    preset: PRESET.to_owned(),
                    seed: derive_seed(seed, 2 * i),
                };
                let space = spec.build().expect("known preset").space().clone();
                let initial = Asha::new(space.clone(), asha_config()).export_state();
                ExperimentMeta {
                    name: NAME.to_owned(),
                    space,
                    initial: SchedulerState::Asha(initial),
                    sampler: None,
                    seed: derive_seed(seed, 2 * i + 1),
                    sim: SimConfig::new(WORKERS, HORIZON).with_max_jobs(size.work),
                    bench: spec,
                }
            })
            .collect();
        Serve {
            metas,
            scratch: scratch.to_owned(),
            jobs: size.work,
        }
    }

    /// Sparse checkpoints: about three per experiment.
    fn run_options(&self) -> RunOptions {
        RunOptions {
            snapshot_jobs: (self.jobs / 3).max(1),
            ..RunOptions::default()
        }
    }
}

/// A fresh daemon and one client connection to it. Dropping it shuts the
/// daemon down by request and joins it, on every path out of an experiment.
struct Served {
    daemon: Option<Daemon>,
    client: Client,
    root: PathBuf,
}

impl Served {
    fn start(root: PathBuf, socket: &Path) -> Result<Served, asha::core::Error> {
        let _ = std::fs::remove_dir_all(&root);
        let mut opts = ServeOptions::new(&root);
        opts.unix = Some(socket.to_owned());
        let daemon = Daemon::start(opts)?;
        let client = Client::connect_unix(socket).map(|mut client| {
            client.set_call_timeout(Some(CALL_DEADLINE));
            client
        });
        match client {
            Ok(client) => Ok(Served {
                daemon: Some(daemon),
                client,
                root,
            }),
            Err(e) => {
                daemon.begin_shutdown();
                let _ = daemon.wait();
                Err(e)
            }
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(daemon) = self.daemon.take() {
            if self.client.shutdown().is_err() {
                daemon.begin_shutdown();
            }
            let _ = daemon.wait();
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// What following one subscription to its end saw.
struct Followed {
    events: Vec<Event>,
    /// Bytes of event JSON rendered on the way.
    rendered_bytes: usize,
    subscribed: Instant,
    first_event: Option<Instant>,
    last_event: Option<Instant>,
    ended: Instant,
}

/// `asha-ctl`'s follow loop: subscribe from `from_seq`, collect telemetry
/// until `End`. A `lag` push is the daemon's documented backpressure, not a
/// failure: resubscribe from the next sequence number. A gap in `seq` is.
fn follow(client: &mut Client, t: Option<&Tracer>, from_seq: u64) -> Result<Followed, String> {
    let err = |e: asha::core::Error| e.to_string();
    let mut sub =
        timed(t, "service.subscribe", || client.subscribe(NAME, from_seq)).map_err(err)?;
    let subscribed = Instant::now();
    let deadline = subscribed + FOLLOW_DEADLINE;
    let mut seen = Followed {
        events: Vec::new(),
        rendered_bytes: 0,
        subscribed,
        first_event: None,
        last_event: None,
        ended: subscribed,
    };
    loop {
        let wait = deadline.saturating_duration_since(Instant::now());
        let push = timed(t, "service.next_push", || client.next_push(Some(wait)))
            .map_err(err)?
            .ok_or("the stream stalled or the connection closed before End")?;
        if push.sub() != sub {
            continue;
        }
        match push {
            Push::Event { data, .. } => {
                if data.get("seq").is_none() {
                    continue; // a store marker, not telemetry
                }
                let line = timed(t, "metrics.json_render", || data.render_compact());
                seen.rendered_bytes += line.len();
                let parsed = timed(t, "obs.parse_jsonl", || parse_jsonl(&line))
                    .map_err(|e| format!("bad telemetry line: {e}"))?;
                for event in parsed {
                    let expected = from_seq + seen.events.len() as u64;
                    if event.seq != expected {
                        return Err(format!("seq {} pushed, expected {expected}", event.seq));
                    }
                    seen.events.push(event);
                }
                let now = Instant::now();
                seen.first_event.get_or_insert(now);
                seen.last_event = Some(now);
            }
            Push::Lag { .. } => {
                let next = from_seq + seen.events.len() as u64;
                let _ = client.unsubscribe(sub);
                sub = client.subscribe(NAME, next).map_err(err)?;
            }
            Push::Status { .. } => {}
            Push::Rewind { .. } => return Err("unexpected rewind push".to_owned()),
            Push::End { .. } => {
                seen.ended = Instant::now();
                return Ok(seen);
            }
        }
    }
}

impl Workload for Serve {
    fn name(&self) -> &'static str {
        "serve-e2e-25w"
    }

    fn panel(&self) -> usize {
        self.metas.len()
    }

    fn run(&self, i: usize, tracer: Option<&Arc<Tracer>>) -> Outcome {
        let meta = &self.metas[i];
        let t = tracer.map(Arc::as_ref);
        let opts = self.run_options();
        let failed = |wall, why: String| Outcome {
            wall,
            work: 0,
            digest: 0,
            failure: Some(why),
            extras: Vec::new(),
        };
        let mut served = match Served::start(
            self.scratch.join(format!("serve-{i}")),
            &self.scratch.join(format!("serve-{i}.sock")),
        ) {
            Ok(served) => served,
            Err(e) => return failed(Duration::ZERO, format!("starting the daemon: {e}")),
        };
        let client = &mut served.client;

        let (result, wall) = timed_region(tracer, || {
            let err = |e: asha::core::Error| e.to_string();
            timed(t, "service.create", || client.create(meta, opts)).map_err(err)?;
            timed(t, "service.start", || client.start(NAME, opts)).map_err(err)?;
            let seen = follow(client, t, 0)?;
            let report = timed(t, "obs.report", || {
                RunReport::from_events(&seen.events, Some(WORKERS)).render_text()
            });
            Ok::<_, String>((seen, report))
        });
        let (seen, report) = match result {
            Ok(pair) => pair,
            Err(why) => return failed(wall, why),
        };

        // The pushed stream must be the WAL's telemetry, whole, and the
        // report the one the WAL itself gives.
        let wal_path = served.root.join(NAME).join(WAL_FILE);
        let failure = match read_wal(&wal_path) {
            Err(e) => Some(format!("reading the WAL back: {e}")),
            Ok(wal) => {
                let logged: Vec<Event> = wal.telemetry().cloned().collect();
                if logged.len() != seen.events.len() {
                    Some(format!(
                        "{} events pushed, {} in the WAL",
                        seen.events.len(),
                        logged.len()
                    ))
                } else if RunReport::from_events(&logged, Some(WORKERS)).render_text() != report {
                    Some("the report differs from the one built from the WAL".to_owned())
                } else {
                    None
                }
            }
        };

        let mut extras = Vec::new();
        if tracer.is_some() && failure.is_none() {
            extras = stream_extras(&seen);
            match finished_daemon_extras(client, &wal_path, seen.events.len()) {
                Ok(more) => extras.extend(more),
                Err(why) => return failed(wall, why),
            }
        }
        let mut digest = Digest::new();
        digest.word(seen.events.len() as u64);
        digest.bytes(report.as_bytes());
        Outcome {
            wall,
            work: self.jobs as u64,
            digest: digest.finish(),
            failure,
            extras,
        }
    }

    fn layers(&self, traced: &Traced) -> Vec<Metric> {
        let s = &traced.summary;
        let med = |name| traced.extra_median(name);
        let ms = |span| s.get(span).mean_ns() / 1e6;
        let mut metrics = vec![
            Metric::new("store.tail_poll_us", med("tail_poll_us"), "us"),
            Metric::new("store.tail_records_per_s", med("tail_records_per_s"), "1/s"),
            Metric::new("service.create_ms", ms("service.create"), "ms"),
            Metric::new("service.start_ms", ms("service.start"), "ms"),
            Metric::new("service.subscribe_ms", ms("service.subscribe"), "ms"),
            Metric::new("service.first_event_ms", med("first_event_ms"), "ms"),
            Metric::new("service.end_lag_ms", med("end_lag_ms"), "ms"),
            Metric::new(
                "service.stream_events_per_s",
                med("stream_events_per_s"),
                "1/s",
            ),
            Metric::new(
                "service.replay_events_per_s",
                med("replay_events_per_s"),
                "1/s",
            ),
            Metric::new("service.req_p50_us", med("req_p50_us"), "us"),
            Metric::new("service.req_p99_us", med("req_p99_us"), "us"),
        ];
        for (name, unit) in DAEMON_COUNTERS {
            metrics.push(Metric::new(name, med(name), unit));
        }
        metrics.extend([
            Metric::new(
                "obs.parse_event_ns",
                s.get("obs.parse_jsonl").mean_ns(),
                "ns",
            ),
            Metric::new("obs.report_ms", ms("obs.report"), "ms"),
            Metric::new(
                "metrics.json_render_ns_per_byte",
                ratio(
                    s.get("metrics.json_render").total_ns as f64,
                    traced.extra_sum("rendered_bytes") * traced.passes as f64,
                ),
                "ns/B",
            ),
            Metric::new(
                "metrics.json_parse_ns_per_byte",
                med("json_parse_ns_per_byte"),
                "ns/B",
            ),
            Metric::new("obs.record_ns", self.record_ns(), "ns"),
        ]);
        metrics
    }
}

impl Serve {
    /// Mean cost of one `RunRecorder::record` under `run_recorded`, on a
    /// store-less run of the first experiment's inputs.
    fn record_ns(&self) -> f64 {
        let meta = &self.metas[0];
        let bench = meta.bench.build().expect("known preset");
        let tracer = Tracer::new();
        let mut recorder = TimedRecorder::new(RunRecorder::new(), &tracer);
        ClusterSim::new(meta.sim.clone()).run_recorded(
            Asha::new(bench.space().clone(), asha_config()),
            &bench,
            &mut StdRng::seed_from_u64(meta.seed),
            &mut recorder,
        );
        let spans = tracer.take();
        let total: u64 = spans.iter().map(|s| s.end_ns - s.start_ns).sum();
        ratio(total as f64, spans.len() as f64)
    }
}

/// Client-observed timings of the live stream.
fn stream_extras(seen: &Followed) -> Vec<(&'static str, f64)> {
    let first = seen.first_event.unwrap_or(seen.ended);
    let last = seen.last_event.unwrap_or(seen.ended);
    vec![
        ("rendered_bytes", seen.rendered_bytes as f64),
        (
            "first_event_ms",
            (first - seen.subscribed).as_secs_f64() * 1e3,
        ),
        ("end_lag_ms", (seen.ended - last).as_secs_f64() * 1e3),
        (
            "stream_events_per_s",
            ratio(seen.events.len() as f64, (seen.ended - first).as_secs_f64()),
        ),
    ]
}

/// Daemon counters read from the existing `Request::Metrics` frame.
const DAEMON_COUNTERS: [(&str, &str); 7] = [
    ("service.pool_queue_wait_us_p99", "us"),
    ("service.pool_execute_us", "us"),
    ("service.reactor_iteration_us", "us"),
    ("service.wake_dispatch_us", "us"),
    ("service.tailer_fanout_frames", "count"),
    ("service.tailer_lag_records", "count"),
    ("service.bytes_out", "B"),
];

const REQUESTS: usize = 2_001;

/// Measurements against the daemon still holding the finished experiment:
/// a catch-up replay, a closed-loop request mix, the daemon's own counters,
/// and the store's tail read path on the WAL it left.
fn finished_daemon_extras(
    client: &mut Client,
    wal_path: &Path,
    events: usize,
) -> Result<Vec<(&'static str, f64)>, String> {
    let err = |e: asha::core::Error| e.to_string();
    // The counters first, so they describe the live experiment alone.
    let frame = client.metrics().map_err(err)?;
    let mut extras = daemon_counters(&frame);

    let replay = follow(client, None, 0)?;
    if replay.events.len() != events {
        return Err(format!(
            "replay pushed {} events, the live stream {events}",
            replay.events.len()
        ));
    }
    extras.push((
        "replay_events_per_s",
        ratio(
            events as f64,
            (replay.ended - replay.subscribed).as_secs_f64(),
        ),
    ));

    let mut latencies_us = Vec::with_capacity(REQUESTS);
    for k in 0..REQUESTS {
        let start = Instant::now();
        match k % 3 {
            0 => client.ping().map_err(err)?,
            1 => drop(client.status(NAME).map_err(err)?),
            _ => drop(client.list().map_err(err)?),
        }
        latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    extras.push(("req_p50_us", median(&latencies_us)));
    // 2 001 samples leave 20 beyond the 99th percentile.
    extras.push(("req_p99_us", latencies_us[REQUESTS * 99 / 100]));

    let mut tail = WalTail::new(wal_path);
    let start = Instant::now();
    let chunk = tail.poll().map_err(|e| e.to_string())?;
    let first_poll = start.elapsed();
    let idle_polls: Vec<f64> = (0..50)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(tail.poll().map(|c| c.lines.len()).unwrap_or(0));
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    extras.push(("tail_poll_us", quartiles(&idle_polls)[1]));
    extras.push((
        "tail_records_per_s",
        ratio(chunk.lines.len() as f64, first_poll.as_secs_f64()),
    ));

    let bytes: usize = chunk.lines.iter().map(String::len).sum();
    let start = Instant::now();
    for line in &chunk.lines {
        std::hint::black_box(JsonValue::parse(line).map_err(|e| e.to_string())?);
    }
    extras.push((
        "json_parse_ns_per_byte",
        ratio(start.elapsed().as_nanos() as f64, bytes as f64),
    ));
    Ok(extras)
}

fn daemon_counters(frame: &JsonValue) -> Vec<(&'static str, f64)> {
    let path = |path: &str| path.split('.').try_fold(frame, |v, key| v.get(key));
    let hist = |p: &str| path(p).and_then(HistogramSnapshot::from_json);
    let int = |p: &str| path(p).and_then(JsonValue::as_u64).unwrap_or(0) as f64;
    // Queue wait and execute time over every op the pool ran.
    let mut queue_wait: Option<HistogramSnapshot> = None;
    let (mut execute_s, mut executed) = (0.0, 0u64);
    if let Some(JsonValue::Obj(by_op)) = path("requests.by_op") {
        for (_, cells) in by_op {
            if let Some(h) = cells
                .get("queue_wait")
                .and_then(HistogramSnapshot::from_json)
            {
                match &mut queue_wait {
                    Some(all) => all.merge(&h),
                    None => queue_wait = Some(h),
                }
            }
            if let Some(h) = cells.get("execute").and_then(HistogramSnapshot::from_json) {
                execute_s += h.sum();
                executed += h.count();
            }
        }
    }
    let mean_us = |h: Option<HistogramSnapshot>| h.map_or(0.0, |h| h.mean() * 1e6);
    vec![
        (
            "service.pool_queue_wait_us_p99",
            queue_wait.map_or(0.0, |h| h.quantile(0.99) * 1e6),
        ),
        (
            "service.pool_execute_us",
            ratio(execute_s, executed as f64) * 1e6,
        ),
        (
            "service.reactor_iteration_us",
            mean_us(hist("reactor.iteration")),
        ),
        (
            "service.wake_dispatch_us",
            mean_us(hist("reactor.wake_dispatch")),
        ),
        (
            "service.tailer_fanout_frames",
            int(&format!("tailers.{NAME}.fanout_frames")),
        ),
        (
            "service.tailer_lag_records",
            int(&format!("tailers.{NAME}.lag_records")),
        ),
        ("service.bytes_out", int("reactor.bytes_written")),
    ]
}
