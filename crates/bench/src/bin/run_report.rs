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
//!                       (default), dasha, sha, bohb, hyperband,
//!                       async-hyperband, random
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
//! A flag missing its value, a malformed number, a repeated or unknown flag
//! and an unknown method or sampler are usage errors (exit 2): nothing runs.
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
use asha_bench::cli::{Cli, CommandLine};
use asha_bench::durable_method;
use rand::rngs::StdRng;
use rand::SeedableRng;

const CLI: Cli = Cli {
    bin: "run_report",
    synopsis: "<events.jsonl> [--workers N] [--json PATH] [--demo] [--seed N] [--scheduler M] \
        [--sampler K] [--store DIR] [--crash-after-jobs N] [--resume DIR] [--snapshot-jobs N] \
        [--delta-chain N]",
    flags: &[
        "--workers N",
        "--json PATH",
        "--demo",
        "--seed N",
        "--scheduler M",
        "--sampler K",
        "--store DIR",
        "--crash-after-jobs N",
        "--resume DIR",
        "--snapshot-jobs N",
        "--delta-chain N",
    ],
    positionals: 1,
};

/// Worker count used by `--demo` (the paper's small-cluster regime).
const DEMO_WORKERS: usize = 25;

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// The `--demo` experiment: the `--scheduler` / `--sampler` method on a
/// seeded 25-worker chaos simulation (stragglers + drops), described as
/// durable-store metadata, and the fresh scheduler its initial state was
/// taken from.
fn demo(args: &CommandLine) -> (ExperimentMeta, Box<dyn DurableScheduler + Send>) {
    let spec = BenchSpec {
        preset: "cifar10_cuda_convnet".to_owned(),
        seed: presets::DEFAULT_SURFACE_SEED,
    };
    let space = spec.build().expect("demo preset exists").space().clone();
    let (scheduler, sampler) = durable_method(args, &space, [1.0, 256.0, 4.0]);
    let meta = ExperimentMeta {
        name: "run-report-demo".to_owned(),
        initial: scheduler.durable_state(),
        space,
        sampler: Some(sampler),
        seed: args.number("--seed").unwrap_or(0),
        sim: SimConfig::new(DEMO_WORKERS, 60.0)
            .with_stragglers(0.5)
            .with_drops(0.01),
        bench: spec,
    };
    (meta, scheduler)
}

/// Run the demo simulation with recording on and write its event log to
/// `path`.
fn write_demo_log(path: &str, meta: ExperimentMeta, scheduler: Box<dyn DurableScheduler + Send>) {
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
fn run_demo_store(
    dir: &Path,
    meta: &ExperimentMeta,
    crash_after_jobs: Option<usize>,
    run_opts: RunOptions,
) {
    let bench = meta.bench.build().unwrap_or_else(|e| fail(e));
    let mut run = DurableRun::create(dir, meta, &bench, run_opts).unwrap_or_else(|e| fail(e));
    if let Some(jobs) = crash_after_jobs {
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
        "store demo: simulated {} jobs on {DEMO_WORKERS} workers (seed {}), store in {}\n",
        result.jobs_completed,
        meta.seed,
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

/// The telemetry stream of a JSONL event log.
fn read_log(path: &str) -> Vec<Event> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    parse_jsonl(&text).unwrap_or_else(|e| fail(format!("{path}: {e}")))
}

fn main() {
    let args = CLI.parse();
    // Every flag is read before anything runs, so a malformed or repeated
    // one is a usage error that has written nothing.
    let workers: Option<usize> = args.number("--workers");
    let (json, demo_run) = (args.value("--json"), args.has("--demo"));
    let crash_after_jobs = args.number("--crash-after-jobs");
    let defaults = RunOptions::default();
    let run_opts = RunOptions {
        snapshot_jobs: args
            .number("--snapshot-jobs")
            .unwrap_or(defaults.snapshot_jobs),
        delta_chain: args.number("--delta-chain").unwrap_or(defaults.delta_chain),
        ..defaults
    };
    let (meta, scheduler) = demo(&args);

    let store_dir = match (args.value("--resume"), args.value("--store")) {
        (Some(dir), _) => {
            resume_store(Path::new(dir), run_opts);
            Some(dir)
        }
        (None, Some(dir)) if demo_run => {
            run_demo_store(Path::new(dir), &meta, crash_after_jobs, run_opts);
            Some(dir)
        }
        _ => None,
    };
    // Store-backed paths: the report comes from the WAL, not a loose log.
    let (events, workers) = if let Some(dir) = store_dir.map(Path::new) {
        let meta = read_meta(dir).unwrap_or_else(|e| fail(e));
        (wal_events(dir), Some(workers.unwrap_or(meta.sim.workers)))
    } else if demo_run {
        let path = args
            .positionals
            .first()
            .map_or("events.jsonl", String::as_str);
        write_demo_log(path, meta, scheduler);
        (read_log(path), Some(workers.unwrap_or(DEMO_WORKERS)))
    } else {
        (read_log(args.positional("event log")), workers)
    };

    let report = RunReport::from_events(&events, workers);
    print!("{}", report.render_text());
    if let Some(json_path) = json {
        match asha::metrics::write_json(json_path, &report.to_json()) {
            Ok(()) => println!("\nwrote {json_path}"),
            Err(e) => fail(e),
        }
    }
}
