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
//!   status NAME | list
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
//! sha, bohb, hyperband, async-hyperband, random) on the ladder `--min-r`,
//! `--max-r`, `--eta` (random reads only `--max-r`); `--sampler` replaces its
//! own (bohb's is tpe, the others' random).
//! `--snapshot-jobs N` checkpoints every N jobs; 0, the default, is
//! amortised: a checkpoint once the WAL written since the last one
//! outweighs it. `--delta-chain` caps delta snapshots between full ones
//! (0 = always full; default 1).
//!
//! `--connect-timeout` (default 10 s, must be positive) bounds TCP
//! connection establishment; `--timeout` (default 30 s, `0` disables)
//! bounds each request's wait for a reply, so a dead or wedged daemon fails
//! the command instead of hanging the terminal forever. Streaming waits in
//! `tail`/`watch` are separate and remain generous (an idle experiment is
//! not a dead daemon).
//!
//! The whole command line is read before connecting: a malformed one
//! (a missing or malformed value, an unknown or repeated flag, a stray
//! argument, a `create` the daemon would refuse) is a usage error, exit 2;
//! `--help` prints the usage line (exit 0). Runtime errors exit 1.
//!
//! `watch` doubles as *attach*: subscribing replays the experiment's WAL
//! from the requested sequence, so re-running `watch` after a daemon
//! restart (even one recovering from SIGKILL) rebuilds the identical run
//! report from the recovered log.

use std::time::Duration;

use asha::core::AshaConfig;
use asha::metrics::JsonValue;
use asha::obs::{event_from_json, Event, HistogramSnapshot, RunReport};
use asha::service::{Client, Push};
use asha::sim::SimConfig;
use asha::store::{BenchSpec, Durability, ExperimentMeta, RunOptions};
use asha::surrogate::BenchmarkModel as _;
use asha_bench::cli::{Cli, CommandLine};
use asha_bench::durable_method;

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("asha-ctl: error: {msg}");
    std::process::exit(1);
}

const CLI: Cli = Cli {
    bin: "asha-ctl",
    synopsis: "(--unix PATH | --tcp ADDR)\n\
        \x20              [--connect-timeout SECS] [--timeout SECS] COMMAND [ARGS]\n\
        commands: ping, create, start, pause, resume, abort, status, list,\n\
        \x20         metrics, top, tail, watch, shutdown\n\
        \x20         (see source header for flags)",
    flags: &[
        "--unix PATH",
        "--tcp ADDR",
        "--connect-timeout SECS",
        "--timeout SECS",
    ],
    positionals: 1,
};

/// The flags of `start`, which `create` takes too.
const RUN_FLAGS: &[&str] = &["--sync S", "--snapshot-jobs N", "--delta-chain N"];

/// Each command's flags and how many positionals it takes.
const COMMANDS: [(&str, &[&str], usize); 13] = [
    ("ping", &[], 0),
    (
        "create",
        &[
            "--preset P",
            "--bench-seed N",
            "--seed N",
            "--workers N",
            "--max-time T",
            "--straggler-std S",
            "--drop-prob Q",
            "--min-r R",
            "--max-r R",
            "--eta E",
            "--scheduler M",
            "--sampler K",
            "--sync S",
            "--snapshot-jobs N",
            "--delta-chain N",
        ],
        1,
    ),
    ("start", RUN_FLAGS, 1),
    ("pause", &[], 1),
    ("resume", &[], 1),
    ("abort", &[], 1),
    ("status", &[], 1),
    ("list", &[], 0),
    ("metrics", &[], 0),
    ("top", &["--interval SECS", "--count N"], 0),
    ("tail", &["--from SEQ"], 1),
    ("watch", &["--from SEQ", "--out FILE", "--workers N"], 1),
    ("shutdown", &[], 0),
];

fn run_options(args: &CommandLine) -> RunOptions {
    let sync = match args.value("--sync") {
        None => Durability::default(),
        Some("never") | Some("flush") => Durability::Flush,
        Some("always") | Some("sync") => Durability::Sync,
        Some(n) => Durability::EveryN(n.parse().unwrap_or_else(|_| {
            args.usage_error(format!("--sync: expected never/always/N: {n:?}"))
        })),
    };
    let defaults = RunOptions::default();
    let opts = RunOptions {
        sync,
        snapshot_jobs: args
            .number("--snapshot-jobs")
            .unwrap_or(defaults.snapshot_jobs),
        delta_chain: args.number("--delta-chain").unwrap_or(defaults.delta_chain),
    };
    opts.validate().unwrap_or_else(|e| args.usage_error(e));
    opts
}

/// The experiment `create` asks for: its metadata and run options.
fn create_request(args: &CommandLine) -> (ExperimentMeta, RunOptions) {
    let name = args.positional("experiment name");
    let Some(preset) = args.value("--preset") else {
        args.usage_error("--preset is required")
    };
    let spec = BenchSpec {
        preset: preset.to_owned(),
        seed: args.number("--bench-seed").unwrap_or(0),
    };
    let bench = spec.build().unwrap_or_else(|e| args.usage_error(e));
    let space = bench.space().clone();
    let min_r = args.number("--min-r").unwrap_or(1.0);
    let max_r = args.number("--max-r").unwrap_or(27.0);
    let eta = args.number("--eta").unwrap_or(3.0);
    if let Err(e) = AshaConfig::new(min_r, max_r, eta).validate() {
        args.usage_error(e)
    }
    // The sampler kind travels in the meta; the daemon rebuilds the sampler
    // server-side and snapshots carry its model cursor.
    let (scheduler, sampler) = durable_method(args, &space, [min_r, max_r, eta]);

    let sim = SimConfig {
        workers: args.number("--workers").unwrap_or(4),
        max_time: args.number("--max-time").unwrap_or(100.0),
        straggler_std: args.number("--straggler-std").unwrap_or(0.0),
        drop_prob: args.number("--drop-prob").unwrap_or(0.0),
        ..SimConfig::new(1, 1.0)
    };
    sim.validate().unwrap_or_else(|e| args.usage_error(e));

    let meta = ExperimentMeta {
        name: name.to_owned(),
        space,
        initial: scheduler.durable_state(),
        sampler: Some(sampler),
        seed: args.number("--seed").unwrap_or(0),
        sim,
        bench: spec,
    };
    (meta, run_options(args))
}

/// Follow a subscription; returns the accumulated telemetry when the
/// stream ends (`print_lines` echoes every frame for `tail`).
///
/// The daemon drops nothing it owes a subscriber, so a `lag` push is a
/// protocol breach and fails the command. Pushes from a subscription
/// abandoned on `rewind` are discarded by id.
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
                    Push::Lag { dropped, .. } => fail(format!(
                        "protocol: the daemon sent a lag push ({dropped} frames dropped), \
                         which it never should"
                    )),
                    Push::Status { state, .. } => {
                        eprintln!(
                            "asha-ctl: status: {} -> {}",
                            state.name,
                            state.status.as_str()
                        );
                    }
                    Push::Rewind { .. } => {
                        // The WAL was rewritten shorter; restart clean from
                        // the original offset.
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
        "requests: {} total, {} errors, {} slow   events: {} sent",
        jint(snap, "requests.total"),
        jint(snap, "requests.errors"),
        jint(snap, "requests.slow"),
        jint(snap, "subscriptions.events_sent"),
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
                "  {:<24} {:>5} {:>8} {:>10} {:>8} {:>8}",
                "TAILER", "SUBS", "LAG", "FANOUT", "JAMS", "TIMEDOUT"
            );
            for (name, t) in tailers {
                println!(
                    "  {:<24} {:>5} {:>8} {:>10} {:>8} {:>8}",
                    name,
                    jint(t, "subscribers"),
                    jint(t, "lag_records"),
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

fn main() {
    let (conn, args) = CLI.parse_command(&COMMANDS);
    // The whole command line is read before connecting, so a malformed one
    // is a usage error whether or not a daemon is listening.
    let connect_timeout = conn
        .seconds("--connect-timeout")
        .unwrap_or(Duration::from_secs(10));
    if connect_timeout.is_zero() {
        conn.usage_error("--connect-timeout must be positive");
    }
    // `--timeout 0` disables the bound (block forever).
    let call_timeout = conn.seconds("--timeout").unwrap_or(Duration::from_secs(30));
    let call_timeout = (!call_timeout.is_zero()).then_some(call_timeout);
    let name = || args.positional("experiment name");
    let command = conn.positionals[0].as_str();
    let run: Box<dyn FnOnce(&mut Client)> = match command {
        "ping" => Box::new(|client| {
            client.ping().unwrap_or_else(|e| fail(e));
            println!("pong");
        }),
        "create" => {
            let (meta, opts) = create_request(&args);
            Box::new(move |client| {
                client.create(&meta, opts).unwrap_or_else(|e| fail(e));
                println!("created {}", meta.name);
            })
        }
        "start" => {
            let (name, opts) = (name(), run_options(&args));
            Box::new(move |client| {
                client.start(name, opts).unwrap_or_else(|e| fail(e));
                println!("started {name}");
            })
        }
        "pause" | "resume" | "abort" => {
            let name = name();
            Box::new(move |client| {
                let result = match command {
                    "pause" => client.pause(name),
                    "resume" => client.resume(name),
                    _ => client.abort(name),
                };
                result.unwrap_or_else(|e| fail(e));
                println!("{command} {name}: ok");
            })
        }
        "status" => {
            let name = name();
            Box::new(move |client| {
                let status = client.status(name).unwrap_or_else(|e| fail(e));
                println!("{} {}", status.name, status.status.as_str());
            })
        }
        "list" => Box::new(|client| {
            for row in client.list().unwrap_or_else(|e| fail(e)) {
                println!("{:<24} {}", row.name, row.status.as_str());
            }
        }),
        "metrics" => Box::new(|client| {
            let snap = client.metrics().unwrap_or_else(|e| fail(e));
            print!("{}", snap.render());
        }),
        "top" => {
            let interval = args.seconds("--interval").unwrap_or(Duration::from_secs(2));
            if interval.is_zero() {
                args.usage_error("--interval must be positive");
            }
            let count = args.number("--count").unwrap_or(0); // 0 = until interrupted
            Box::new(move |client| {
                for frame in 0.. {
                    let snap = client.metrics().unwrap_or_else(|e| fail(e));
                    let rows = client.list().unwrap_or_else(|e| fail(e));
                    if frame > 0 {
                        // Clear between frames only, so a single `--count 1`
                        // shot (and anything piping the output) gets plain text.
                        print!("\x1b[2J\x1b[H");
                    }
                    render_top(&snap, &rows);
                    if frame + 1 == count {
                        break;
                    }
                    std::thread::sleep(interval);
                }
            })
        }
        "tail" => {
            let (name, from) = (name(), args.number("--from").unwrap_or(0));
            Box::new(move |client| drop(follow(client, name, from, true)))
        }
        "watch" => {
            let (name, from) = (name(), args.number("--from").unwrap_or(0));
            let (out, workers) = (args.value("--out"), args.number("--workers"));
            Box::new(move |client| {
                let events = follow(client, name, from, false);
                let report = RunReport::from_events(&events, workers);
                println!("{}", report.render_text());
                if let Some(path) = out {
                    std::fs::write(path, report.to_json().render())
                        .unwrap_or_else(|e| fail(format!("writing {path}: {e}")));
                    eprintln!("asha-ctl: report written to {path}");
                }
            })
        }
        "shutdown" => Box::new(|client| {
            client.shutdown().unwrap_or_else(|e| fail(e));
            println!("shutdown requested");
        }),
        other => unreachable!("{other:?} is not in COMMANDS"),
    };
    let mut client = match (conn.value("--unix"), conn.value("--tcp")) {
        (Some(path), _) => Client::connect_unix(path).unwrap_or_else(|e| fail(e)),
        (None, Some(addr)) => {
            Client::connect_tcp_timeout(addr, connect_timeout).unwrap_or_else(|e| fail(e))
        }
        (None, None) => conn.usage_error("need --unix PATH or --tcp ADDR before the command"),
    };
    client.set_call_timeout(call_timeout);
    run(&mut client);
}
