//! `asha-ctl` — command-line client for the `asha-serve` daemon.
//!
//! Usage:
//!
//! ```text
//! asha-ctl (--unix PATH | --tcp ADDR)
//!          [--connect-timeout SECS] [--timeout SECS] COMMAND [ARGS]
//!
//! Commands:
//!   ping                              liveness probe
//!   create NAME --preset P [opts]     create an experiment (not started)
//!   start NAME [--sync S] [--snapshot-jobs N] [--delta-chain N]
//!   pause NAME | resume NAME | abort NAME
//!   status NAME | list | stats
//!   metrics                           dump the full metrics snapshot (JSON)
//!   top [--interval SECS] [--count N] live daemon metrics view (like top(1))
//!   tail NAME [--from SEQ]            print the live WAL stream
//!   watch NAME [--from SEQ] [--out FILE] [--workers N]
//!                                     follow to completion, then emit the
//!                                     run report (text + JSON)
//!   shutdown                          gracefully stop the daemon
//! ```
//!
//! `create` options: `--preset P --bench-seed N --seed N --workers N
//! --max-time T --straggler-std S --drop-prob Q --min-r R --max-r R
//! --eta E --scheduler M --sampler (random|tpe|gp)
//! --sync (never|always|N) --snapshot-jobs N --delta-chain N`.
//! `--scheduler` is a persistable `Searcher::from_name` method (asha, dasha,
//! sha, bohb, async-hyperband) on the ladder `--min-r`, `--max-r`, `--eta`;
//! `--sampler` replaces its own (bohb's is tpe, the others' random).
//! `--snapshot-jobs N` checkpoints every N jobs; 0, the default, is
//! amortised: a checkpoint once the WAL written since the last one
//! outweighs it. `--delta-chain` caps delta snapshots between full ones
//! (0 = always full; default 1).
//!
//! `--connect-timeout` (default 10) bounds TCP connection establishment;
//! `--timeout` (default 30, `0` disables) bounds each request's wait for a
//! reply, so a dead or wedged daemon fails the command instead of hanging
//! the terminal forever. Streaming waits in `tail`/`watch` are separate
//! and remain generous (an idle experiment is not a dead daemon).
//!
//! `watch` doubles as *attach*: subscribing replays the experiment's WAL
//! from the requested sequence, so re-running `watch` after a daemon
//! restart (even one recovering from SIGKILL) rebuilds the identical run
//! report from the recovered log.

use std::collections::HashMap;
use std::time::Duration;

use asha::core::AshaConfig;
use asha::metrics::JsonValue;
use asha::obs::{event_from_json, Event, HistogramSnapshot, RunReport};
use asha::service::{Client, Push};
use asha::sim::SimConfig;
use asha::store::{BenchSpec, Durability, ExperimentMeta, RunOptions};
use asha::surrogate::BenchmarkModel as _;
use asha::tune::{Sampler, Searcher};

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("asha-ctl: error: {msg}");
    std::process::exit(1);
}

fn usage() -> ! {
    eprintln!(
        "usage: asha-ctl (--unix PATH | --tcp ADDR)\n\
         \x20              [--connect-timeout SECS] [--timeout SECS] COMMAND [ARGS]\n\
         commands: ping, create, start, pause, resume, abort, status, list,\n\
         \x20         stats, metrics, top, tail, watch, shutdown\n\
         \x20         (see source header for flags)"
    );
    std::process::exit(2);
}

/// Flag parser over the remaining arguments: positionals in order plus
/// `--flag value` pairs.
struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut positional = Vec::new();
        let mut flags = HashMap::new();
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = it
                    .next()
                    .unwrap_or_else(|| fail(format!("--{name} needs a value")));
                flags.insert(name.to_owned(), value.clone());
            } else {
                positional.push(arg.clone());
            }
        }
        Args { positional, flags }
    }

    fn positional(&self, idx: usize, what: &str) -> &str {
        self.positional
            .get(idx)
            .unwrap_or_else(|| fail(format!("missing {what}")))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> T
    where
        T::Err: std::fmt::Display,
    {
        match self.get(name) {
            Some(raw) => raw
                .parse()
                .unwrap_or_else(|e| fail(format!("--{name}: {e}"))),
            None => default,
        }
    }
}

fn run_options(args: &Args) -> RunOptions {
    let sync = match args.get("sync") {
        None => Durability::default(),
        Some("never") | Some("flush") => Durability::Flush,
        Some("always") | Some("sync") => Durability::Sync,
        Some(n) => Durability::EveryN(
            n.parse()
                .unwrap_or_else(|e| fail(format!("--sync: expected never/always/N: {e}"))),
        ),
    };
    let opts = RunOptions {
        sync,
        snapshot_jobs: args.num("snapshot-jobs", RunOptions::default().snapshot_jobs),
        delta_chain: args.num("delta-chain", RunOptions::default().delta_chain),
    };
    opts.validate().unwrap_or_else(|e| fail(e));
    opts
}

fn connect(
    unix: Option<&str>,
    tcp: Option<&str>,
    connect_timeout: Duration,
    call_timeout: Option<Duration>,
) -> Client {
    let mut client = match (unix, tcp) {
        (Some(path), _) => Client::connect_unix(path).unwrap_or_else(|e| fail(e)),
        (None, Some(addr)) => {
            Client::connect_tcp_timeout(addr, connect_timeout).unwrap_or_else(|e| fail(e))
        }
        (None, None) => fail("need --unix PATH or --tcp ADDR before the command"),
    };
    client.set_call_timeout(call_timeout);
    client
}

fn cmd_create(client: &mut Client, args: &Args) {
    let name = args.positional(0, "experiment name");
    let preset = args
        .get("preset")
        .unwrap_or_else(|| fail("--preset is required"));
    let spec = BenchSpec {
        preset: preset.to_owned(),
        seed: args.num("bench-seed", 0u64),
    };
    let bench = spec.build().unwrap_or_else(|e| fail(e));
    let space = bench.space().clone();
    let min_r = args.num("min-r", 1.0f64);
    let max_r = args.num("max-r", 27.0f64);
    let eta = args.num("eta", 3.0f64);
    if let Err(e) = AshaConfig::new(min_r, max_r, eta).validate() {
        fail(e)
    }
    let kind = args.get("scheduler").unwrap_or("asha");
    let mut searcher = Searcher::from_name(kind, min_r, max_r, eta)
        .unwrap_or_else(|| fail(format!("--scheduler: unknown method {kind:?}")));
    // The sampler kind travels in the meta; the daemon rebuilds the sampler
    // server-side and snapshots carry its model cursor.
    let sampler = searcher
        .sampler_mut()
        .unwrap_or_else(|| fail(format!("--scheduler: {kind:?} cannot run durably")));
    if let Some(name) = args.get("sampler") {
        *sampler = Sampler::from_name(name)
            .unwrap_or_else(|| fail(format!("--sampler: unknown kind {name:?} (random/tpe/gp)")));
    }
    let sampler = *sampler;
    let scheduler = searcher
        .durable(&space)
        .expect("a method with a sampler is persistable");

    let sim = SimConfig {
        workers: args.num("workers", 4usize),
        max_time: args.num("max-time", 100.0f64),
        straggler_std: args.num("straggler-std", 0.0f64),
        drop_prob: args.num("drop-prob", 0.0f64),
        ..SimConfig::new(1, 1.0)
    };
    sim.validate().unwrap_or_else(|e| fail(e));

    let meta = ExperimentMeta {
        name: name.to_owned(),
        space,
        initial: scheduler.durable_state(),
        sampler: Some(sampler),
        seed: args.num("seed", 0u64),
        sim,
        bench: spec,
    };
    client
        .create(&meta, run_options(args))
        .unwrap_or_else(|e| fail(e));
    println!("created {name}");
}

/// Follow a subscription; returns the accumulated telemetry when the
/// stream ends (`print_lines` echoes every frame for `tail`).
///
/// A `lag` push means the daemon dropped frames rather than stall the run;
/// this consumer needs a gap-free stream, so it resubscribes from the last
/// telemetry sequence it saw (the protocol's prescribed recovery). Pushes
/// from the abandoned subscription are discarded by id.
fn follow(client: &mut Client, name: &str, from_seq: u64, print_lines: bool) -> Vec<Event> {
    let mut sub = client.subscribe(name, from_seq).unwrap_or_else(|e| fail(e));
    let mut events: Vec<Event> = Vec::new();
    let mut last_note = 0usize;
    loop {
        match client.next_push(Some(Duration::from_secs(3600))) {
            Ok(Some(push)) => {
                if push.sub() != sub {
                    continue;
                }
                match push {
                    Push::Event { data, .. } => {
                        if print_lines {
                            println!("{}", data.render_compact());
                        }
                        if data.get("seq").is_some() {
                            match event_from_json(&data) {
                                Ok(event) => events.push(event),
                                Err(e) => eprintln!("asha-ctl: bad telemetry line: {e}"),
                            }
                            if !print_lines && events.len() >= last_note + 500 {
                                last_note = events.len();
                                let t = events.last().map(|e| e.time).unwrap_or(0.0);
                                eprintln!("asha-ctl: {} events, sim t {t:.1}", events.len());
                            }
                        } else if !print_lines {
                            let ev = data.get("ev").and_then(|e| e.as_str()).unwrap_or("?");
                            eprintln!("asha-ctl: store marker: {ev}");
                        }
                    }
                    Push::Lag { dropped, .. } => {
                        let next_seq = events.last().map(|e| e.seq + 1).unwrap_or(from_seq);
                        eprintln!(
                            "asha-ctl: lagged ({dropped} frames dropped); resubscribing from seq {next_seq}"
                        );
                        let _ = client.unsubscribe(sub);
                        sub = client.subscribe(name, next_seq).unwrap_or_else(|e| fail(e));
                    }
                    Push::Status { state, .. } => {
                        eprintln!(
                            "asha-ctl: status: {} -> {}",
                            state.name,
                            state.status.as_str()
                        );
                    }
                    Push::Rewind { .. } => {
                        // The WAL was rewritten shorter; restart clean from
                        // the original offset so a prior lag-resubscribe
                        // filter can't hide the rewritten prefix.
                        eprintln!("asha-ctl: log rewound (crash recovery); resetting");
                        events.clear();
                        last_note = 0;
                        let _ = client.unsubscribe(sub);
                        sub = client.subscribe(name, from_seq).unwrap_or_else(|e| fail(e));
                    }
                    Push::End { .. } => break,
                }
            }
            Ok(None) => fail("subscription timed out or connection closed"),
            Err(e) => fail(e),
        }
    }
    events
}

fn cmd_watch(client: &mut Client, args: &Args) {
    let name = args.positional(0, "experiment name");
    let from_seq = args.num("from", 0u64);
    let events = follow(client, name, from_seq, false);
    let workers = args.get("workers").map(|_| args.num("workers", 0usize));
    let report = RunReport::from_events(&events, workers);
    println!("{}", report.render_text());
    if let Some(path) = args.get("out") {
        std::fs::write(path, report.to_json().render())
            .unwrap_or_else(|e| fail(format!("writing {path}: {e}")));
        eprintln!("asha-ctl: report written to {path}");
    }
}

/// Walk a dotted path through nested JSON objects.
fn jpath<'a>(root: &'a JsonValue, path: &str) -> Option<&'a JsonValue> {
    path.split('.').try_fold(root, |v, key| v.get(key))
}

fn jint(root: &JsonValue, path: &str) -> u64 {
    jpath(root, path).and_then(JsonValue::as_u64).unwrap_or(0)
}

/// Decode the histogram at `path` and format `p50/p99` in human units.
fn jhist(root: &JsonValue, path: &str) -> String {
    match jpath(root, path).and_then(HistogramSnapshot::from_json) {
        Some(h) if h.count() > 0 => {
            format!(
                "{} / {}",
                fmt_secs(h.quantile(0.50)),
                fmt_secs(h.quantile(0.99))
            )
        }
        _ => "- / -".to_owned(),
    }
}

fn fmt_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.0}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

/// One rendered frame of the `top` view.
fn render_top(snap: &JsonValue, rows: &[asha::service::WireStatus]) {
    println!(
        "asha-serve — up {:.0}s — metrics on",
        jpath(snap, "uptime_s")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0),
    );
    println!(
        "conns {} open / {} total   workers queue {}   subs {} open   http scrapes {}",
        jint(snap, "connections.open"),
        jint(snap, "connections.total"),
        jint(snap, "workers.queue_depth"),
        jint(snap, "subscriptions.open"),
        jint(snap, "http.requests"),
    );
    println!(
        "reactor: {} iters (p50/p99 {}), wake {}, {} B in / {} B out, {} decode errs, {} read pauses",
        jint(snap, "reactor.iterations"),
        jhist(snap, "reactor.iteration"),
        jhist(snap, "reactor.wake_dispatch"),
        jint(snap, "reactor.bytes_read"),
        jint(snap, "reactor.bytes_written"),
        jint(snap, "reactor.decode_errors"),
        jint(snap, "reactor.read_pauses"),
    );
    println!(
        "requests: {} total, {} errors, {} slow   events: {} sent, {} lagged",
        jint(snap, "requests.total"),
        jint(snap, "requests.errors"),
        jint(snap, "requests.slow"),
        jint(snap, "subscriptions.events_sent"),
        jint(snap, "subscriptions.events_lagged"),
    );
    if let Some(JsonValue::Obj(by_op)) = jpath(snap, "requests.by_op") {
        println!(
            "  {:<12} {:>8} {:>6}  {:<20} EXEC p50/p99",
            "OP", "COUNT", "ERRS", "QUEUE p50/p99"
        );
        for (op, cells) in by_op {
            println!(
                "  {:<12} {:>8} {:>6}  {:<20} {}",
                op,
                jint(cells, "count"),
                jint(cells, "errors"),
                jhist(cells, "queue_wait"),
                jhist(cells, "execute"),
            );
        }
    }
    if let Some(JsonValue::Obj(tailers)) = snap.get("tailers") {
        if !tailers.is_empty() {
            println!(
                "  {:<24} {:>5} {:>8} {:>7} {:>10} {:>8} {:>8}",
                "TAILER", "SUBS", "LAG", "EVICT", "FANOUT", "JAMS", "TIMEDOUT"
            );
            for (name, t) in tailers {
                println!(
                    "  {:<24} {:>5} {:>8} {:>7} {:>10} {:>8} {:>8}",
                    name,
                    jint(t, "subscribers"),
                    jint(t, "lag_records"),
                    jint(t, "window_evictions"),
                    jint(t, "fanout_frames"),
                    jint(t, "jam_waits"),
                    jint(t, "jam_timeouts"),
                );
            }
        }
    }
    println!(
        "store: wal append {}   fsync {}   snapshot write {}",
        jhist(snap, "store.wal_append"),
        jhist(snap, "store.wal_fsync"),
        jhist(snap, "store.snapshot_write"),
    );
    if !rows.is_empty() {
        println!("experiments:");
        for row in rows {
            println!("  {:<24} {}", row.name, row.status.as_str());
        }
    }
}

fn cmd_top(client: &mut Client, args: &Args) {
    let interval = args.num("interval", 2.0f64);
    if interval <= 0.0 {
        fail("--interval must be positive");
    }
    let count = args.num("count", 0u64); // 0 = run until interrupted
    let mut frames = 0u64;
    loop {
        let snap = client.metrics().unwrap_or_else(|e| fail(e));
        let rows = client.list().unwrap_or_else(|e| fail(e));
        if frames > 0 {
            // Clear between frames only, so a single `--count 1` shot (and
            // anything piping the output) gets plain text.
            print!("\x1b[2J\x1b[H");
        }
        render_top(&snap, &rows);
        frames += 1;
        if count != 0 && frames >= count {
            break;
        }
        std::thread::sleep(Duration::from_secs_f64(interval));
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // Connection flags come before the command; everything after belongs
    // to the subcommand.
    let mut unix = None;
    let mut tcp = None;
    let mut connect_timeout = Duration::from_secs(10);
    let mut call_timeout = Some(Duration::from_secs(30));
    let mut idx = 0;
    let take_value = |raw: &[String], idx: usize, name: &str| -> String {
        raw.get(idx + 1)
            .cloned()
            .unwrap_or_else(|| fail(format!("{name} needs a value")))
    };
    while idx < raw.len() {
        match raw[idx].as_str() {
            "--unix" => {
                unix = Some(take_value(&raw, idx, "--unix"));
                idx += 2;
            }
            "--tcp" => {
                tcp = Some(take_value(&raw, idx, "--tcp"));
                idx += 2;
            }
            "--connect-timeout" => {
                let secs: f64 = take_value(&raw, idx, "--connect-timeout")
                    .parse()
                    .unwrap_or_else(|e| fail(format!("--connect-timeout: {e}")));
                if secs <= 0.0 {
                    fail("--connect-timeout must be positive");
                }
                connect_timeout = Duration::from_secs_f64(secs);
                idx += 2;
            }
            "--timeout" => {
                let secs: f64 = take_value(&raw, idx, "--timeout")
                    .parse()
                    .unwrap_or_else(|e| fail(format!("--timeout: {e}")));
                // 0 disables the bound (block forever, the old behavior).
                call_timeout = (secs > 0.0).then(|| Duration::from_secs_f64(secs));
                idx += 2;
            }
            "--help" | "-h" => usage(),
            _ => break,
        }
    }
    let Some(command) = raw.get(idx) else { usage() };
    let args = Args::parse(&raw[idx + 1..]);
    let mut client = connect(
        unix.as_deref(),
        tcp.as_deref(),
        connect_timeout,
        call_timeout,
    );

    match command.as_str() {
        "ping" => {
            client.ping().unwrap_or_else(|e| fail(e));
            println!("pong");
        }
        "create" => cmd_create(&mut client, &args),
        "start" => {
            let name = args.positional(0, "experiment name");
            client
                .start(name, run_options(&args))
                .unwrap_or_else(|e| fail(e));
            println!("started {name}");
        }
        "pause" | "resume" | "abort" => {
            let name = args.positional(0, "experiment name");
            let result = match command.as_str() {
                "pause" => client.pause(name),
                "resume" => client.resume(name),
                _ => client.abort(name),
            };
            result.unwrap_or_else(|e| fail(e));
            println!("{command} {name}: ok");
        }
        "status" => {
            let name = args.positional(0, "experiment name");
            let status = client.status(name).unwrap_or_else(|e| fail(e));
            println!("{} {}", status.name, status.status.as_str());
        }
        "list" => {
            for row in client.list().unwrap_or_else(|e| fail(e)) {
                println!("{:<24} {}", row.name, row.status.as_str());
            }
        }
        "stats" => {
            let s = client.stats().unwrap_or_else(|e| fail(e));
            println!("connections_total   {}", s.connections_total);
            println!("connections_open    {}", s.connections_open);
            println!("requests            {}", s.requests);
            println!("subscriptions_open  {}", s.subscriptions_open);
            println!("events_sent         {}", s.events_sent);
            println!("events_lagged       {}", s.events_lagged);
        }
        "metrics" => {
            let snap = client.metrics().unwrap_or_else(|e| fail(e));
            print!("{}", snap.render());
        }
        "top" => cmd_top(&mut client, &args),
        "tail" => {
            let name = args.positional(0, "experiment name");
            follow(&mut client, name, args.num("from", 0u64), true);
        }
        "watch" => cmd_watch(&mut client, &args),
        "shutdown" => {
            client.shutdown().unwrap_or_else(|e| fail(e));
            println!("shutdown requested");
        }
        other => fail(format!("unknown command {other:?}")),
    }
}
