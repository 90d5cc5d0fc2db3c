//! Replay a telemetry event log (JSONL) into a human-readable run summary
//! and, optionally, a machine-readable `report.json`.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p asha-bench --bin run_report -- events.jsonl
//!     [--workers N]     pool size for utilization percentages
//!     [--json PATH]     also write the JSON report document
//!     [--demo]          generate events.jsonl first from a seeded 25-worker
//!                       chaos simulation (stragglers + drops), then report on
//!                       it — a self-contained worked example
//!     [--seed N]        RNG seed for --demo (default 0)
//!     [--scheduler K]   method for --demo at r = 1, R = 256, eta = 4: any
//!                       persistable `Searcher::from_name` name — asha
//!                       (default), dasha, sha, bohb, async-hyperband
//!     [--sampler K]     config sampler for --demo: random, tpe or gp
//!                       (default: the method's own; bohb's is tpe)
//!     [--store DIR]     run the --demo through the durable experiment store:
//!                       every event goes to DIR/wal.jsonl and snapshots are
//!                       taken periodically, so the run is crash-recoverable
//!     [--crash-after-jobs N]
//!                       with --store: die abruptly (SIGABRT, no cleanup)
//!                       once N jobs have completed — for exercising recovery
//!     [--resume DIR]    recover a crashed/aborted store run from DIR, finish
//!                       it, and report on the completed log
//!     [--snapshot-jobs N]
//!                       checkpoint every N jobs for --store/--resume
//!                       (default 0: amortised, once the WAL written since
//!                       the last checkpoint outweighs it)
//!     [--delta-chain N] max delta snapshots between full snapshots for
//!                       --store/--resume (0 = always full; default 1)
//! ```
//!
//! A flag missing its value, a malformed number or an unknown sampler is a
//! usage error (exit 2).
//!
//! The report is derived entirely from the log, so it reproduces exactly the
//! metrics the live run's recorder saw: per-rung promotion table, decision
//! and fault counts, promotion-wait / job-latency / queue-delay quantiles,
//! and a worker-utilization timeline. A `--store` run that crashed and was
//! `--resume`d produces the same telemetry stream — and therefore the same
//! report — as one that never crashed.

use std::path::Path;

use asha::core::DurableScheduler;
use asha::obs::{parse_jsonl, Event, RunRecorder, RunReport};
use asha::sim::{ClusterSim, SimConfig};
use asha::store::{read_meta, read_wal, BenchSpec, DurableRun, ExperimentMeta, RunOptions};
use asha::surrogate::{presets, BenchmarkModel};
use asha::tune::{Sampler, Searcher};
use rand::rngs::StdRng;
use rand::SeedableRng;

const USAGE: &str = "usage: run_report <events.jsonl> [--workers N] [--json PATH] [--demo] \
     [--seed N] [--scheduler M] [--sampler K] [--store DIR] [--crash-after-jobs N] \
     [--resume DIR] [--snapshot-jobs N] [--delta-chain N]";

/// Worker count used by `--demo` (the paper's small-cluster regime).
const DEMO_WORKERS: usize = 25;

struct Opts {
    log: Option<String>,
    workers: Option<usize>,
    json: Option<String>,
    demo: bool,
    seed: u64,
    scheduler: String,
    sampler: Option<Sampler>,
    store: Option<String>,
    crash_after_jobs: Option<usize>,
    resume: Option<String>,
    snapshot_jobs: Option<usize>,
    delta_chain: Option<usize>,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        log: None,
        workers: None,
        json: None,
        demo: false,
        seed: 0,
        scheduler: "asha".to_owned(),
        sampler: None,
        store: None,
        crash_after_jobs: None,
        resume: None,
        snapshot_jobs: None,
        delta_chain: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        match flag {
            "--workers" => opts.workers = Some(number(flag, args.next())),
            "--json" => opts.json = args.next(),
            "--demo" => opts.demo = true,
            "--seed" => opts.seed = number(flag, args.next()),
            "--scheduler" => opts.scheduler = value(flag, args.next()),
            "--sampler" => {
                let kind = value(flag, args.next());
                opts.sampler = Some(Sampler::from_name(&kind).unwrap_or_else(|| {
                    usage_error(format!("--sampler: unknown kind {kind:?} (random/tpe/gp)"))
                }));
            }
            "--store" => opts.store = args.next(),
            "--crash-after-jobs" => opts.crash_after_jobs = Some(number(flag, args.next())),
            "--resume" => opts.resume = args.next(),
            "--snapshot-jobs" => opts.snapshot_jobs = Some(number(flag, args.next())),
            "--delta-chain" => opts.delta_chain = Some(number(flag, args.next())),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if !other.starts_with("--") && opts.log.is_none() => {
                opts.log = Some(other.to_owned());
            }
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }
    opts
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// A malformed command line: the message and the usage line, exit 2.
fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// The value after `flag`, which must be there.
fn value(flag: &str, raw: Option<String>) -> String {
    raw.unwrap_or_else(|| usage_error(format!("{flag} needs a value")))
}

/// The number after `flag`: a missing or malformed one is a usage error, so
/// `--crash-after-jobs 2OO` never runs uninterrupted in place of a crash.
fn number<T: std::str::FromStr>(flag: &str, raw: Option<String>) -> T {
    let raw = value(flag, raw);
    raw.parse()
        .unwrap_or_else(|_| usage_error(format!("{flag}: not a number: {raw:?}")))
}

/// The `--demo` experiment: the `--scheduler` / `--sampler` method on a
/// seeded 25-worker chaos simulation (stragglers + drops), described as
/// durable-store metadata, and the fresh scheduler its initial state was
/// taken from.
fn demo(opts: &Opts) -> (ExperimentMeta, Box<dyn DurableScheduler + Send>) {
    let spec = BenchSpec {
        preset: "cifar10_cuda_convnet".to_owned(),
        seed: presets::DEFAULT_SURFACE_SEED,
    };
    let space = spec.build().expect("demo preset exists").space().clone();
    let kind = &opts.scheduler;
    let mut searcher = Searcher::from_name(kind, 1.0, 256.0, 4.0)
        .unwrap_or_else(|| fail(format!("--scheduler: unknown method {kind:?}")));
    let sampler = searcher
        .sampler_mut()
        .unwrap_or_else(|| fail(format!("--scheduler: {kind:?} cannot run durably")));
    *sampler = opts.sampler.unwrap_or(*sampler);
    let sampler = *sampler;
    let scheduler = searcher
        .durable(&space)
        .expect("a method with a sampler is persistable");
    let meta = ExperimentMeta {
        name: "run-report-demo".to_owned(),
        initial: scheduler.durable_state(),
        space,
        sampler: Some(sampler),
        seed: opts.seed,
        sim: SimConfig::new(DEMO_WORKERS, 60.0)
            .with_stragglers(0.5)
            .with_drops(0.01),
        bench: spec,
    };
    (meta, scheduler)
}

/// Run the demo simulation with recording on and write its event log to
/// `path`.
fn write_demo_log(path: &str, opts: &Opts) {
    let (meta, scheduler) = demo(opts);
    let bench = meta.bench.build().unwrap_or_else(|e| fail(e));
    let mut recorder = RunRecorder::new();
    let mut rng = StdRng::seed_from_u64(meta.seed);
    let result = ClusterSim::new(meta.sim).run_recorded(scheduler, &bench, &mut rng, &mut recorder);
    if let Err(e) = recorder.write_jsonl_durable(path) {
        fail(format!("failed to write {path}: {e}"));
    }
    println!(
        "demo: simulated {} jobs on {DEMO_WORKERS} workers (seed {}), wrote {} events to {path}\n",
        result.jobs_completed,
        meta.seed,
        recorder.len(),
    );
}

/// Run the demo through the durable store, optionally dying abruptly after
/// `crash_after_jobs` completed jobs.
fn run_demo_store(dir: &Path, opts: &Opts, run_opts: RunOptions) {
    let (meta, _) = demo(opts);
    let seed = opts.seed;
    let bench = meta.bench.build().unwrap_or_else(|e| fail(e));
    let mut run = DurableRun::create(dir, &meta, &bench, run_opts).unwrap_or_else(|e| fail(e));
    if let Some(jobs) = opts.crash_after_jobs {
        let alive = run.run_until_jobs(jobs).unwrap_or_else(|e| fail(e));
        if alive {
            println!(
                "store demo: {} jobs completed in {}, crashing now (no cleanup)",
                run.jobs_completed(),
                dir.display()
            );
            // Die like SIGKILL would: no destructors, no flushes. Recovery
            // must work from exactly what is already on disk.
            std::process::abort();
        }
        // The run finished before reaching the crash point; fall through.
    }
    while run.step().unwrap_or_else(|e| fail(e)) {}
    let result = run.into_result();
    println!(
        "store demo: simulated {} jobs on {DEMO_WORKERS} workers (seed {seed}), store in {}\n",
        result.jobs_completed,
        dir.display()
    );
}

/// Recover a store run from `dir` and drive it to completion.
fn resume_store(dir: &Path, opts: RunOptions) {
    let meta = read_meta(dir).unwrap_or_else(|e| fail(e));
    let bench = meta.bench.build().unwrap_or_else(|e| fail(e));
    let mut run = DurableRun::resume(dir, &meta, &bench, opts).unwrap_or_else(|e| fail(e));
    let recovered_jobs = run.jobs_completed();
    while run.step().unwrap_or_else(|e| fail(e)) {}
    let result = run.into_result();
    println!(
        "resumed {:?} from {} at {recovered_jobs} jobs; finished with {} jobs\n",
        meta.name,
        dir.display(),
        result.jobs_completed
    );
}

/// The telemetry stream of a store directory's WAL (store markers skipped).
fn wal_events(dir: &Path) -> Vec<Event> {
    let contents = read_wal(&dir.join(asha::store::WAL_FILE)).unwrap_or_else(|e| fail(e));
    contents.telemetry().copied().collect()
}

fn main() {
    let mut opts = parse_opts();

    // Store-backed paths: the report comes from the WAL, not a loose log.
    let mut run_opts = RunOptions::default();
    if let Some(jobs) = opts.snapshot_jobs {
        run_opts.snapshot_jobs = jobs;
    }
    if let Some(chain) = opts.delta_chain {
        run_opts.delta_chain = chain;
    }
    let store_dir = if let Some(dir) = &opts.resume {
        resume_store(Path::new(dir), run_opts);
        Some(dir.clone())
    } else if let (true, Some(dir)) = (opts.demo, opts.store.clone()) {
        run_demo_store(Path::new(&dir), &opts, run_opts);
        Some(dir)
    } else {
        None
    };
    if let Some(dir) = store_dir {
        let dir = Path::new(&dir);
        let events = wal_events(dir);
        let meta = read_meta(dir).unwrap_or_else(|e| fail(e));
        let workers = opts.workers.unwrap_or(meta.sim.workers);
        let report = RunReport::from_events(&events, Some(workers));
        print!("{}", report.render_text());
        if let Some(json_path) = opts.json {
            match asha::metrics::write_json(&json_path, &report.to_json()) {
                Ok(()) => println!("\nwrote {json_path}"),
                Err(e) => fail(e),
            }
        }
        return;
    }

    if opts.demo {
        let path = opts
            .log
            .clone()
            .unwrap_or_else(|| "events.jsonl".to_owned());
        write_demo_log(&path, &opts);
        opts.log = Some(path);
        opts.workers = opts.workers.or(Some(DEMO_WORKERS));
    }
    let Some(log_path) = opts.log else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };

    let text = match std::fs::read_to_string(&log_path) {
        Ok(text) => text,
        Err(e) => fail(format!("cannot read {log_path}: {e}")),
    };
    let events = match parse_jsonl(&text) {
        Ok(events) => events,
        Err(e) => fail(format!("{log_path}: {e}")),
    };

    let report = RunReport::from_events(&events, opts.workers);
    print!("{}", report.render_text());

    if let Some(json_path) = opts.json {
        match asha::metrics::write_json(&json_path, &report.to_json()) {
            Ok(()) => println!("\nwrote {json_path}"),
            Err(e) => fail(e),
        }
    }
}
