//! Perf baseline: measures the two hot paths every large-scale experiment
//! leans on — simulator event throughput and scheduler suggest+observe
//! throughput — plus the parallel-runner speedup on a multi-method sweep,
//! and writes the numbers to `BENCH_sim.json` so the perf trajectory is
//! recorded PR over PR.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p asha-bench --bin perf_baseline            # full
//! cargo run --release -p asha-bench --bin perf_baseline -- --smoke # CI-sized
//!     --quick          alias for --smoke
//!     [--threads N]    extra thread count for the parallel sweep rows
//!     [--out PATH]     output path (default BENCH_sim.json)
//! ```
//!
//! Numbers are wall-clock on whatever machine runs the binary; treat them as
//! a trajectory (same-machine ratios PR over PR), not absolute truth.

use std::time::Instant;

use asha::baselines::bohb_asha;
use asha::core::{
    Asha, AshaConfig, AsyncHyperband, HyperbandConfig, Observation, Scheduler, ShaConfig, SyncSha,
};
use asha::metrics::JsonValue;
use asha::sim::{ClusterSim, SimConfig, TraceMode};
use asha::space::SearchSpace;
use asha::store::{
    read_wal, replay_scheduler, BenchSpec, CommitPipeline, DeltaDoc, Durability, DurableRun,
    ExperimentMeta, RunOptions, SchedulerState, Snapshot, StoreFormat, StoredScheduler, WalRecord,
    WalWriter,
};
use asha::surrogate::{presets, BenchmarkModel};
use asha_bench::{
    run_experiment, run_experiment_parallel, threads_from_args, ExperimentConfig, MethodSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const R: f64 = 256.0;
const ETA: f64 = 4.0;

struct Opts {
    smoke: bool,
    threads: usize,
    out: String,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        smoke: false,
        threads: threads_from_args(),
        out: "BENCH_sim.json".to_owned(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" | "--quick" => opts.smoke = true,
            "--out" => {
                if let Some(path) = args.next() {
                    opts.out = path;
                }
            }
            _ => {}
        }
    }
    opts
}

/// Simulator throughput: completed jobs per wall-clock second for one ASHA
/// run at the given scale and trace mode.
fn sim_throughput(
    bench: &dyn BenchmarkModel,
    workers: usize,
    horizon: f64,
    mode: TraceMode,
) -> JsonValue {
    let asha = Asha::new(bench.space().clone(), AshaConfig::new(1.0, R, ETA));
    let sim = ClusterSim::new(SimConfig::new(workers, horizon).with_trace_mode(mode));
    let mut rng = StdRng::seed_from_u64(0);
    let start = Instant::now();
    let result = sim.run(asha, bench, &mut rng);
    let secs = start.elapsed().as_secs_f64();
    let events_per_sec = result.jobs_completed as f64 / secs.max(1e-9);
    let mode_name = match mode {
        TraceMode::Full => "full",
        TraceMode::IncumbentOnly => "incumbent_only",
        TraceMode::Aggregated => "aggregated",
    };
    println!(
        "  sim {workers:>3} workers, trace {mode_name:<14}: {:>9} jobs in {secs:>7.3}s = {events_per_sec:>12.0} events/s",
        result.jobs_completed
    );
    JsonValue::obj([
        ("workers", JsonValue::Int(workers as u64)),
        ("trace_mode", JsonValue::Str(mode_name.to_owned())),
        ("horizon", JsonValue::Num(horizon)),
        (
            "jobs_completed",
            JsonValue::Int(result.jobs_completed as u64),
        ),
        ("trace_events", JsonValue::Int(result.trace.len() as u64)),
        ("wall_secs", JsonValue::Num(secs)),
        ("events_per_sec", JsonValue::Num(events_per_sec)),
    ])
}

/// Scheduler throughput: suggest+observe round trips per second against a
/// synthetic loss stream (no simulator in the loop).
fn scheduler_throughput(name: &str, mut scheduler: Box<dyn Scheduler>, rounds: usize) -> JsonValue {
    let mut rng = StdRng::seed_from_u64(1);
    let start = Instant::now();
    let mut issued = 0usize;
    for i in 0..rounds {
        let Some(job) = scheduler.suggest(&mut rng).job() else {
            break;
        };
        scheduler.observe(Observation::for_job(&job, (i % 997) as f64));
        issued += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    let per_sec = issued as f64 / secs.max(1e-9);
    println!(
        "  scheduler {name:<16}: {issued:>8} round trips in {secs:>7.3}s = {per_sec:>12.0} suggests/s"
    );
    JsonValue::obj([
        ("name", JsonValue::Str(name.to_owned())),
        ("round_trips", JsonValue::Int(issued as u64)),
        ("wall_secs", JsonValue::Num(secs)),
        ("suggests_per_sec", JsonValue::Num(per_sec)),
    ])
}

/// Telemetry overhead: the same 25-worker Full-mode simulation with
/// recording off vs on. The two runs must complete identical job counts —
/// recording never consumes randomness — and the delta is the full price of
/// structured telemetry (event construction + JSONL-able buffering + online
/// metrics), reported as events logged per second and a wall-clock ratio.
fn telemetry_overhead(bench: &dyn BenchmarkModel, workers: usize, horizon: f64) -> JsonValue {
    let make = || Asha::new(bench.space().clone(), AshaConfig::new(1.0, R, ETA));
    let sim = ClusterSim::new(SimConfig::new(workers, horizon));

    let mut rng = StdRng::seed_from_u64(0);
    let start = Instant::now();
    let off = sim.run(make(), bench, &mut rng);
    let off_secs = start.elapsed().as_secs_f64();

    let mut rng = StdRng::seed_from_u64(0);
    let mut recorder = asha::obs::RunRecorder::new();
    let start = Instant::now();
    let on = sim.run_recorded(make(), bench, &mut rng, &mut recorder);
    let on_secs = start.elapsed().as_secs_f64();

    assert_eq!(
        off.jobs_completed, on.jobs_completed,
        "recording must not perturb the run"
    );
    let events_per_sec = recorder.len() as f64 / on_secs.max(1e-9);
    let overhead = on_secs / off_secs.max(1e-9);
    println!(
        "  telemetry {workers:>3} workers: off {off_secs:>7.3}s, on {on_secs:>7.3}s ({overhead:>5.2}x), {:>9} events = {events_per_sec:>12.0} events logged/s",
        recorder.len()
    );
    JsonValue::obj([
        ("workers", JsonValue::Int(workers as u64)),
        ("horizon", JsonValue::Num(horizon)),
        ("jobs_completed", JsonValue::Int(on.jobs_completed as u64)),
        ("events_logged", JsonValue::Int(recorder.len() as u64)),
        ("off_secs", JsonValue::Num(off_secs)),
        ("on_secs", JsonValue::Num(on_secs)),
        ("events_logged_per_sec", JsonValue::Num(events_per_sec)),
        ("overhead_ratio", JsonValue::Num(overhead)),
    ])
}

/// One interleaved A/B measurement of the WAL streaming tax at a given
/// scale: the same simulation with telemetry logged the pre-store way
/// (in-memory recorder, one bulk JSONL write at the end — lost entirely if
/// the process dies first) vs streamed through the durable store's WAL as
/// each event happens. Both runs are timed to the same mid-run job
/// checkpoint with all telemetry pushed to the OS, then finish untimed and
/// must complete identical job counts (persistence never consumes
/// randomness). The ratio isolates the per-event WAL streaming tax; fsync
/// cadence and snapshot costs are one-knob cadence choices whose total
/// cost is `cadence x unit price`, metered separately in [`persistence`].
struct WalTax {
    jobs: usize,
    checkpoint: usize,
    off_secs: f64,
    on_secs: f64,
    ratio: f64,
}

fn wal_tax(
    bench: &dyn BenchmarkModel,
    workers: usize,
    horizon: f64,
    reps: usize,
    dir: &std::path::Path,
) -> WalTax {
    let sim_cfg = SimConfig::new(workers, horizon);
    let make = || Asha::new(bench.space().clone(), AshaConfig::new(1.0, R, ETA));
    // `Flush` isolates streaming cost from fsync cost, and snapshots are
    // pushed past any reachable job count so no checkpoint lands inside
    // the timed window.
    let opts = RunOptions {
        sync: Durability::Flush,
        snapshot_jobs: usize::MAX / 2,
        ..RunOptions::default()
    };

    // Untimed scout run to learn the total job count, so the timed window
    // below can stop at a checkpoint strictly inside the run (the final
    // snapshot at completion is a separately-metered cost, not WAL tax).
    let sim = ClusterSim::new(sim_cfg.clone());
    let mut rng = StdRng::seed_from_u64(0);
    let total_jobs = sim.run(make(), bench, &mut rng).jobs_completed;
    let checkpoint = total_jobs * 9 / 10;

    let meta = ExperimentMeta {
        name: format!("perf-baseline-{workers}w"),
        space: bench.space().clone(),
        initial: SchedulerState::Asha(make().export_state()),
        sampler: None,
        seed: 0,
        sim: sim_cfg.clone(),
        bench: BenchSpec {
            preset: "cifar10_cuda_convnet".to_owned(),
            seed: presets::DEFAULT_SURFACE_SEED,
        },
    };

    // The timed windows are tens of milliseconds, so a single pair is at
    // the mercy of scheduler noise: interleave several repetitions of each
    // side and compare the per-side minima. Experiment creation (meta
    // write + first snapshot, a handful of fsyncs) happens outside the
    // timed window — it is a per-experiment constant, not part of the
    // per-event tax.
    let mut off_samples = Vec::with_capacity(reps);
    let mut on_samples = Vec::with_capacity(reps);
    let mut off_jobs = 0usize;
    let mut on_jobs = 0usize;
    for rep in 0..reps {
        // Baseline: record in memory while the engine runs, bulk-write the
        // JSONL log when the checkpoint is reached.
        let mut engine =
            asha::sim::SimEngine::new(sim_cfg.clone(), StoredScheduler::new(make()), bench);
        let mut rng = StdRng::seed_from_u64(0);
        let mut recorder = asha::obs::RunRecorder::new();
        let start = Instant::now();
        while engine.jobs_completed() < checkpoint && engine.step(&mut rng, &mut recorder) {}
        recorder
            .write_jsonl(dir.join(format!("baseline-{workers}.jsonl")))
            .expect("baseline log write");
        off_samples.push(start.elapsed().as_secs_f64());
        while engine.step(&mut rng, &mut recorder) {}
        off_jobs = engine.jobs_completed();

        // Same engine, same seed, but every event streams through the
        // durable store's WAL as it happens: kill the process anywhere in
        // this window and the run recovers.
        let run_dir = dir.join(format!("run-{workers}-{rep}"));
        let mut run = DurableRun::create(&run_dir, &meta, bench, opts).expect("store create");
        let start = Instant::now();
        let live = run.run_until_jobs(checkpoint).expect("durable run");
        run.flush().expect("wal flush");
        on_samples.push(start.elapsed().as_secs_f64());
        assert!(live, "checkpoint must land strictly mid-run");
        let on = run.run_to_completion().expect("durable finish");
        on_jobs = on.jobs_completed;
    }
    assert_eq!(off_jobs, on_jobs, "persistence must not perturb the run");
    // Minimum over repetitions: both sides are deterministic CPU-plus-
    // page-cache work, so the fastest observation is the least-noise one.
    let floor = |samples: &[f64]| samples.iter().copied().fold(f64::INFINITY, f64::min);
    let off_secs = floor(&off_samples);
    let on_secs = floor(&on_samples);
    WalTax {
        jobs: on_jobs,
        checkpoint,
        off_secs,
        on_secs,
        ratio: on_secs / off_secs.max(1e-9),
    }
}

/// Persistence tax, metered knob by knob: the WAL streaming A/B at the
/// 25-worker regime (budget 1.10x) and at the paper's 500-worker regime
/// (budget 1.05x — per-event overhead must amortize *better* as scale
/// grows, or durability caps scale-out), WAL append and replay throughput
/// through the default `binary-v2` codec, full and delta snapshot write
/// latency (budget 100 ms), and the group-commit pipeline's fsync
/// amortization across concurrently committing WALs.
fn persistence(
    bench: &dyn BenchmarkModel,
    workers: usize,
    horizon: f64,
    rounds: usize,
    scale_reps: usize,
) -> JsonValue {
    let dir = std::env::temp_dir().join(format!("asha-perf-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("perf tmp dir");
    // The timed windows below need enough work to rise above scheduler
    // noise, so these rows never run shorter than horizon 240 even in
    // smoke mode.
    let horizon = horizon.max(240.0);
    let tax = wal_tax(bench, workers, horizon, 7, &dir);
    // The 500-worker regime completes far more jobs per wall-clock second,
    // so each event's fixed cost is amortized harder and the budget
    // tightens to 1.05x. Fewer repetitions: the timed windows are ~10x
    // longer, so scheduler noise is already small next to the signal.
    let scale = wal_tax(bench, 500, horizon, scale_reps, &dir);

    // WAL append throughput: pre-generate an exec-style event stream by
    // driving a scheduler (RNG consumed only in suggest), then time pure
    // appends through the default binary-v2 codec.
    use asha::core::telemetry::{Event, EventKind};
    let mut scheduler = make_asha(bench);
    let mut gen_rng = StdRng::seed_from_u64(7);
    let mut events = Vec::with_capacity(rounds * 2);
    let mut seq = 0u64;
    for i in 0..rounds {
        let d = scheduler.suggest(&mut gen_rng);
        events.push(Event {
            seq,
            time: i as f64,
            kind: EventKind::of_decision(&d),
        });
        seq += 1;
        if let Some(job) = d.job() {
            let loss = (i % 997) as f64;
            scheduler.observe(Observation::for_job(&job, loss));
            events.push(Event {
                seq,
                time: i as f64,
                kind: EventKind::JobEnd {
                    trial: job.trial.0,
                    rung: job.rung,
                    resource: job.resource,
                    loss,
                },
            });
            seq += 1;
        }
    }
    let wal_path = dir.join("append.wal");
    let start = Instant::now();
    let mut writer = WalWriter::create(&wal_path, Durability::EveryN(64)).expect("wal create");
    for event in &events {
        writer
            .append(&WalRecord::telemetry(*event))
            .expect("wal append");
    }
    writer.sync().expect("wal sync");
    drop(writer);
    let append_secs = start.elapsed().as_secs_f64();
    let append_per_sec = events.len() as f64 / append_secs.max(1e-9);

    // Replay speed: a fresh scheduler + same-seed RNG re-derives every
    // decision in the log, with match assertions on.
    let contents = read_wal(&wal_path).expect("wal read");
    let mut replay_sched = StoredScheduler::new(Asha::new(
        bench.space().clone(),
        AshaConfig::new(1.0, R, ETA),
    ));
    let mut replay_rng = StdRng::seed_from_u64(7);
    let start = Instant::now();
    let replayed =
        replay_scheduler(&mut replay_sched, &mut replay_rng, &contents.records, 0).expect("replay");
    let replay_secs = start.elapsed().as_secs_f64();
    let replay_per_sec = replayed as f64 / replay_secs.max(1e-9);

    // Full-snapshot write latency for the mid-run scheduler state (encode
    // + tmp write + fsync + rename + directory fsync, binary codec).
    let snap = Snapshot {
        seq: 0,
        events: replayed,
        scheduler: replay_sched.export_state(),
        sampler: None,
        rng: replay_rng.state(),
        sim: None,
    };
    let snap_dir = dir.join("snaps");
    std::fs::create_dir_all(&snap_dir).expect("snap dir");
    let iters = 5;
    let start = Instant::now();
    let mut snap_written = (snap_dir.clone(), 0u64);
    for _ in 0..iters {
        snap_written = snap.write(&snap_dir).expect("snapshot write");
    }
    let snap_ms = start.elapsed().as_secs_f64() * 1000.0 / iters as f64;
    let snap_bytes = snap_written.1;

    // Delta-snapshot write latency: advance the same scheduler a few
    // hundred rounds — the state drift between two adjacent checkpoints of
    // a live run — then time diff-against-base + delta write. This is the
    // steady-state checkpoint price under a delta chain.
    let base_doc = snap.to_json();
    let mut extra_events = 0u64;
    for i in 0..500 {
        let d = replay_sched.suggest(&mut replay_rng);
        extra_events += 1;
        if let Some(job) = d.job() {
            replay_sched.observe(Observation::for_job(&job, (i % 991) as f64));
            extra_events += 1;
        }
    }
    let next = Snapshot {
        seq: 0,
        events: replayed + extra_events,
        scheduler: replay_sched.export_state(),
        sampler: None,
        rng: replay_rng.state(),
        sim: None,
    };
    let next_doc = next.to_json();
    let start = Instant::now();
    let mut delta_written = (snap_dir.clone(), 0u64);
    for _ in 0..iters {
        let doc = DeltaDoc {
            snap: 0,
            delta: 1,
            events: next.events,
            patch: asha::store::delta::diff(&base_doc, &next_doc),
        };
        delta_written = doc.write(&snap_dir).expect("delta write");
    }
    let delta_ms = start.elapsed().as_secs_f64() * 1000.0 / iters as f64;
    let delta_bytes = delta_written.1;

    // Group commit: several WALs committing concurrently behind one
    // pipeline. Each writer's EveryN cadence files an asynchronous
    // durability request; the pipeline coalesces every request landing
    // inside one commit window into a single fsync per file, so the
    // request:fsync ratio is the amortization factor an N-experiment
    // supervisor gets over per-writer fsyncs.
    let pipeline = CommitPipeline::new(std::time::Duration::from_millis(2));
    let group_wals = 4usize;
    let mut writers: Vec<WalWriter> = (0..group_wals)
        .map(|w| {
            let mut writer =
                WalWriter::create(&dir.join(format!("group-{w}.wal")), Durability::EveryN(8))
                    .expect("group wal create");
            let handle = pipeline
                .register(writer.file_clone().expect("wal fd dup"))
                .expect("pipeline register");
            writer.set_group_commit(handle);
            writer
        })
        .collect();
    for (i, event) in events.iter().enumerate() {
        writers[i % group_wals]
            .append(&WalRecord::telemetry(*event))
            .expect("group append");
    }
    for writer in &mut writers {
        writer.sync().expect("group sync");
    }
    drop(writers);
    let group_requests = pipeline.requests();
    let group_fsyncs = pipeline.fsyncs_issued().max(1);
    let amortization = group_requests as f64 / group_fsyncs as f64;
    drop(pipeline);
    std::fs::remove_dir_all(&dir).ok();

    println!(
        "  persistence {:>3} workers to job {}: log-at-end {:>7.3}s, wal-on {:>7.3}s ({:>5.2}x, budget 1.10x)",
        workers, tax.checkpoint, tax.off_secs, tax.on_secs, tax.ratio
    );
    println!(
        "  persistence 500 workers to job {}: log-at-end {:>7.3}s, wal-on {:>7.3}s ({:>5.2}x, budget 1.05x)",
        scale.checkpoint, scale.off_secs, scale.on_secs, scale.ratio
    );
    println!(
        "  persistence wal append: {:>8} events in {append_secs:>7.3}s = {append_per_sec:>12.0} events/s ({})",
        events.len(),
        StoreFormat::default().name()
    );
    println!(
        "  persistence replay:     {replayed:>8} events in {replay_secs:>7.3}s = {replay_per_sec:>12.0} events/s"
    );
    println!(
        "  persistence snapshot:   full {snap_ms:>7.3} ms ({snap_bytes} B), delta {delta_ms:>7.3} ms ({delta_bytes} B), budget 100 ms"
    );
    println!(
        "  persistence group commit: {group_requests} requests -> {group_fsyncs} fsyncs = {amortization:.1}x amortization ({group_wals} WALs, 2 ms window)"
    );
    JsonValue::obj([
        ("workers", JsonValue::Int(workers as u64)),
        ("horizon", JsonValue::Num(horizon)),
        (
            "wal_format",
            JsonValue::Str(StoreFormat::default().name().to_owned()),
        ),
        ("jobs_completed", JsonValue::Int(tax.jobs as u64)),
        ("checkpoint_jobs", JsonValue::Int(tax.checkpoint as u64)),
        ("overhead_sync_policy", JsonValue::Str("flush".to_owned())),
        ("log_at_end_secs", JsonValue::Num(tax.off_secs)),
        ("wal_on_secs", JsonValue::Num(tax.on_secs)),
        ("wal_overhead_ratio", JsonValue::Num(tax.ratio)),
        ("wal_overhead_budget", JsonValue::Num(1.10)),
        ("wal_events_appended", JsonValue::Int(events.len() as u64)),
        ("wal_append_events_per_sec", JsonValue::Num(append_per_sec)),
        ("replay_events", JsonValue::Int(replayed)),
        ("replay_events_per_sec", JsonValue::Num(replay_per_sec)),
        ("snapshot_write_ms", JsonValue::Num(snap_ms)),
        ("snapshot_bytes", JsonValue::Int(snap_bytes)),
        ("snapshot_delta_write_ms", JsonValue::Num(delta_ms)),
        ("snapshot_delta_bytes", JsonValue::Int(delta_bytes)),
        ("snapshot_budget_ms", JsonValue::Num(100.0)),
        ("group_commit_window_ms", JsonValue::Num(2.0)),
        ("group_commit_wals", JsonValue::Int(group_wals as u64)),
        ("group_commit_requests", JsonValue::Int(group_requests)),
        ("group_commit_fsyncs", JsonValue::Int(group_fsyncs)),
        ("group_commit_amortization", JsonValue::Num(amortization)),
        (
            "at_scale",
            JsonValue::obj([
                ("workers", JsonValue::Int(500)),
                ("jobs_completed", JsonValue::Int(scale.jobs as u64)),
                ("checkpoint_jobs", JsonValue::Int(scale.checkpoint as u64)),
                ("log_at_end_secs", JsonValue::Num(scale.off_secs)),
                ("wal_on_secs", JsonValue::Num(scale.on_secs)),
                ("wal_overhead_ratio", JsonValue::Num(scale.ratio)),
                ("wal_overhead_budget", JsonValue::Num(1.05)),
            ]),
        ),
    ])
}

fn make_asha(bench: &dyn BenchmarkModel) -> Asha {
    Asha::new(bench.space().clone(), AshaConfig::new(1.0, R, ETA))
}

fn sweep_methods(space: &SearchSpace) -> Vec<MethodSpec> {
    let s1 = space.clone();
    let s2 = space.clone();
    let s3 = space.clone();
    vec![
        MethodSpec::new("ASHA", move || {
            Asha::new(s1.clone(), AshaConfig::new(1.0, R, ETA))
        }),
        MethodSpec::new("SHA", move || {
            SyncSha::new(s2.clone(), ShaConfig::new(256, 1.0, R, ETA).growing())
        }),
        MethodSpec::new("AsyncHB", move || {
            AsyncHyperband::new(
                s3.clone(),
                HyperbandConfig::new(1.0, R, ETA).with_brackets(4),
            )
        }),
    ]
}

/// Sequential vs parallel runner on a multi-method sweep, with an output
/// equality check so a wrong-but-fast parallel path can never post a number.
fn sweep_speedup(bench: &dyn BenchmarkModel, cfg: &ExperimentConfig, threads: usize) -> JsonValue {
    let start = Instant::now();
    let sequential = run_experiment(bench, &sweep_methods(bench.space()), cfg);
    let seq_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let parallel = run_experiment_parallel(bench, &sweep_methods(bench.space()), cfg, threads);
    let par_secs = start.elapsed().as_secs_f64();

    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(
            s.aggregate.mean, p.aggregate.mean,
            "parallel runner diverged on {}",
            s.name
        );
        assert_eq!(
            s.mean_jobs, p.mean_jobs,
            "parallel runner diverged on {}",
            s.name
        );
    }
    let resolved = asha_bench::ParallelRunner::new(threads).threads();
    let speedup = seq_secs / par_secs.max(1e-9);
    println!(
        "  sweep {} methods x {} trials, {} workers: sequential {seq_secs:.3}s, parallel({resolved} threads) {par_secs:.3}s = {speedup:.2}x",
        sequential.len(),
        cfg.trials,
        cfg.workers
    );
    JsonValue::obj([
        ("methods", JsonValue::Int(sequential.len() as u64)),
        ("trials", JsonValue::Int(cfg.trials as u64)),
        ("workers", JsonValue::Int(cfg.workers as u64)),
        ("horizon", JsonValue::Num(cfg.horizon)),
        ("threads", JsonValue::Int(resolved as u64)),
        ("sequential_secs", JsonValue::Num(seq_secs)),
        ("parallel_secs", JsonValue::Num(par_secs)),
        ("speedup", JsonValue::Num(speedup)),
        ("outputs_identical", JsonValue::Bool(true)),
    ])
}

fn main() {
    let opts = parse_opts();
    let bench = presets::cifar10_cuda_convnet(presets::DEFAULT_SURFACE_SEED);
    println!(
        "perf_baseline ({}) on {}...",
        if opts.smoke { "smoke" } else { "full" },
        bench.name()
    );

    // Simulator event-loop throughput at the paper's two worker regimes.
    let horizon = if opts.smoke { 60.0 } else { 600.0 };
    let mut sim_rows = Vec::new();
    for &workers in &[25usize, 500] {
        for &mode in &[TraceMode::Full, TraceMode::IncumbentOnly] {
            sim_rows.push(sim_throughput(&bench, workers, horizon, mode));
        }
    }
    // The paper's extreme-scale regime (Section 4.4 tunes with thousands of
    // workers): incumbent-only tracing, since nobody keeps a full per-job
    // trace at this size. Long full-mode horizons hit the 5M job cap, which
    // is fine — events/s is computed over completed jobs either way.
    sim_rows.push(sim_throughput(
        &bench,
        5000,
        horizon,
        TraceMode::IncumbentOnly,
    ));

    // Scheduler round-trip throughput (the `suggest` promotion scan is the
    // algorithmic hot path; see asha-core::rung).
    let rounds = if opts.smoke { 20_000 } else { 200_000 };
    let space = bench.space().clone();
    let scheduler_rows = vec![
        scheduler_throughput(
            "ASHA",
            Box::new(Asha::new(space.clone(), AshaConfig::new(1.0, R, ETA))),
            rounds,
        ),
        scheduler_throughput(
            "SyncSHA",
            Box::new(SyncSha::new(
                space.clone(),
                ShaConfig::new(256, 1.0, R, ETA).growing(),
            )),
            rounds,
        ),
        scheduler_throughput(
            "AsyncHyperband",
            Box::new(AsyncHyperband::new(
                space.clone(),
                HyperbandConfig::new(1.0, R, ETA).with_brackets(4),
            )),
            rounds,
        ),
        scheduler_throughput(
            "D-ASHA",
            Box::new(Asha::new(
                space.clone(),
                AshaConfig::new(1.0, R, ETA).delayed(),
            )),
            rounds,
        ),
        // Model-on row: TPE reads every observation it has recorded on each
        // non-random proposal, so suggests/s falls as the run grows — this
        // row prices that tax at a fixed (smaller) round count. The random
        // rows above are the regression-gated hot path; this one is a
        // trajectory of model cost, not a floor.
        scheduler_throughput(
            "ASHA+TPE",
            Box::new(bohb_asha(space.clone(), AshaConfig::new(1.0, R, ETA))),
            rounds / 20,
        ),
    ];

    // Telemetry on/off throughput delta at the small-cluster regime.
    let telemetry = telemetry_overhead(&bench, 25, horizon);

    // Durable-store tax at the same regime.
    let persistence = persistence(&bench, 25, horizon, rounds, if opts.smoke { 2 } else { 3 });

    // Parallel sweep speedup at 1 thread (the no-parallelism sanity row)
    // and at a multi-core count, so the report always shows both ends of
    // the runner's scaling. `--threads` adds a third, user-chosen row.
    let cfg = if opts.smoke {
        ExperimentConfig::new(25, 30.0, 2, 0.65)
    } else {
        ExperimentConfig::new(25, 150.0, 8, 0.65)
    };
    let mut thread_counts = vec![1usize, 4];
    if opts.threads > 0 && !thread_counts.contains(&opts.threads) {
        thread_counts.push(opts.threads);
    }
    let sweep_rows: Vec<JsonValue> = thread_counts
        .iter()
        .map(|&threads| sweep_speedup(&bench, &cfg, threads))
        .collect();

    let report = JsonValue::obj([
        ("schema", JsonValue::Str("asha-perf-baseline-v2".to_owned())),
        (
            "mode",
            JsonValue::Str(if opts.smoke { "smoke" } else { "full" }.to_owned()),
        ),
        ("benchmark", JsonValue::Str(bench.name().to_owned())),
        ("sim", JsonValue::Arr(sim_rows)),
        ("scheduler", JsonValue::Arr(scheduler_rows)),
        ("telemetry", telemetry),
        ("persistence", persistence),
        ("sweep", JsonValue::Arr(sweep_rows)),
    ]);
    match asha::metrics::write_json(&opts.out, &report) {
        Ok(()) => println!("wrote {}", opts.out),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
