//! `durable-500w`: a durable run that is killed half way and recovered —
//! `DurableRun::create` → `run_until_jobs(J/2)` → drop → `DurableRun::resume`
//! → `run_to_completion`, with default `RunOptions`. `store` does most of the
//! work, with its write path (WAL, checkpoints) and its read path (recovery)
//! in one run, so a change that speeds one by slowing the other shows.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use asha::core::{Asha, Observation, Scheduler};
use asha::sim::{ClusterSim, SimConfig, TraceMode};
use asha::store::{
    load_latest, read_wal, BenchSpec, DurableRun, ExperimentMeta, RunOptions, SchedulerState,
    StoreMetrics, WAL_FILE,
};
use asha::surrogate::{BenchmarkModel, CurveBenchmark};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{
    derive_seed, fastest_of, timed_region, Digest, Metric, Outcome, Size, Traced, Workload,
};
use crate::trace::{ratio, timed, Tracer};
use crate::workloads::{asha_config, HORIZON, PRESET};

pub const FULL: Size = Size {
    panel: 8,
    work: 4_100,
    pass_secs: 2.65,
};
// Large enough to write a full snapshot after the first delta chain, and
// cut so the crash falls between two checkpoints.
pub const QUICK: Size = Size {
    panel: 1,
    work: 2_100,
    pass_secs: 0.2,
};

const WORKERS: usize = 500;

struct Input {
    meta: ExperimentMeta,
    bench: CurveBenchmark,
    dir: PathBuf,
    /// Digest of an uninterrupted `ClusterSim::run` of the same inputs.
    reference: u64,
}

pub struct Durable {
    inputs: Vec<Input>,
    jobs: usize,
}

impl Durable {
    pub fn new(seed: u64, size: Size, scratch: &Path) -> Durable {
        let inputs = (0..size.panel as u64)
            .map(|i| {
                let spec = BenchSpec {
                    preset: PRESET.to_owned(),
                    seed: derive_seed(seed, 2 * i),
                };
                let bench = spec.build().expect("known preset");
                let space = bench.space().clone();
                let sim = SimConfig::new(WORKERS, HORIZON)
                    .with_max_jobs(size.work)
                    .with_trace_mode(TraceMode::IncumbentOnly);
                let rng_seed = derive_seed(seed, 2 * i + 1);
                let reference = ClusterSim::new(sim.clone()).run(
                    Asha::new(space.clone(), asha_config()),
                    &bench,
                    &mut StdRng::seed_from_u64(rng_seed),
                );
                let initial = Asha::new(space.clone(), asha_config()).export_state();
                Input {
                    meta: ExperimentMeta {
                        name: format!("durable-{i}"),
                        space,
                        initial: SchedulerState::Asha(initial),
                        sampler: None,
                        seed: rng_seed,
                        sim,
                        bench: spec,
                    },
                    bench,
                    dir: scratch.join(format!("durable-{i}")),
                    reference: Digest::of_debug(&reference),
                }
            })
            .collect();
        Durable {
            inputs,
            jobs: size.work,
        }
    }
}

impl Workload for Durable {
    fn name(&self) -> &'static str {
        "durable-500w"
    }

    fn panel(&self) -> usize {
        self.inputs.len()
    }

    fn run(&self, i: usize, tracer: Option<&Arc<Tracer>>) -> Outcome {
        let input = &self.inputs[i];
        let (meta, bench, dir) = (&input.meta, &input.bench, input.dir.as_path());
        let _ = std::fs::remove_dir_all(dir);
        let t = tracer.map(Arc::as_ref);
        // `DurableRun` owns its writer, so the write path is timed by the
        // cells the store itself exposes, not by wrapping from outside.
        let metrics = tracer.map(|_| StoreMetrics::new());
        let mut replayed = 0;

        let (result, wall) = timed_region(tracer, || {
            let mut run = timed(t, "store.create", || {
                DurableRun::create(dir, meta, bench, RunOptions::default())
            })?;
            if let Some(m) = &metrics {
                run.set_metrics(Arc::clone(m));
            }
            timed(t, "store.run", || run.run_until_jobs(self.jobs / 2))?;
            let at_crash = run.jobs_completed();
            drop(run);
            let mut run = timed(t, "store.resume", || {
                DurableRun::resume(dir, meta, bench, RunOptions::default())
            })?;
            if let Some(m) = &metrics {
                run.set_metrics(Arc::clone(m));
            }
            replayed = at_crash - run.jobs_completed();
            timed(t, "store.run", || run.run_to_completion())
        });

        let mut extras = Vec::new();
        if let Some(m) = &metrics {
            extras = write_path_extras(m, dir, wall.as_secs_f64(), self.jobs);
            extras.push(("resume_replayed_jobs", replayed as f64));
            extras.extend(read_path_extras(dir));
        }
        let _ = std::fs::remove_dir_all(dir);

        let (work, digest, failure) = match result {
            Ok(result) => {
                let digest = Digest::of_debug(&result);
                let failure = if result.jobs_completed != self.jobs {
                    Some(format!(
                        "completed {} jobs, expected {}",
                        result.jobs_completed, self.jobs
                    ))
                } else if digest != input.reference {
                    Some("resumed result differs from an uninterrupted ClusterSim::run".to_owned())
                } else {
                    None
                };
                (result.jobs_completed as u64, digest, failure)
            }
            Err(e) => (0, 0, Some(format!("store error: {e}"))),
        };
        Outcome {
            wall,
            work,
            digest,
            failure,
            extras,
        }
    }

    fn layers(&self, traced: &Traced) -> Vec<Metric> {
        let s = &traced.summary;
        let sum = |name| traced.extra_sum(name);
        let med = |name| traced.extra_median(name);
        vec![
            Metric::new("core.export_state_ms", self.export_state_ms(), "ms"),
            Metric::new("store.wal_appends", sum("wal_appends"), "count"),
            Metric::new("store.wal_append_ns", med("wal_append_ns"), "ns"),
            Metric::new("store.wal_fsyncs", sum("wal_fsyncs"), "count"),
            Metric::new("store.wal_fsync_us", med("wal_fsync_us"), "us"),
            Metric::new("store.wal_bytes_per_job", med("wal_bytes_per_job"), "B"),
            Metric::new("store.snapshot_fulls", sum("snapshot_fulls"), "count"),
            Metric::new("store.snapshot_full_ms", med("snapshot_full_ms"), "ms"),
            Metric::new("store.snapshot_deltas", sum("snapshot_deltas"), "count"),
            Metric::new("store.snapshot_delta_ms", med("snapshot_delta_ms"), "ms"),
            Metric::new("store.checkpoint_share", med("checkpoint_share"), "share"),
            Metric::new("store.disk_bytes_per_job", med("disk_bytes_per_job"), "B"),
            Metric::new(
                "store.recover_ms",
                s.get("store.resume").mean_ns() / 1e6,
                "ms",
            ),
            Metric::new("store.load_latest_ms", med("load_latest_ms"), "ms"),
            Metric::new("store.read_wal_ms", med("read_wal_ms"), "ms"),
            Metric::new(
                "store.resume_replayed_jobs",
                sum("resume_replayed_jobs"),
                "count",
            ),
        ]
    }
}

impl Durable {
    /// Wall of `Asha::export_state` on a scheduler that has seen one
    /// experiment's worth of jobs: what every checkpoint pays first.
    fn export_state_ms(&self) -> f64 {
        let input = &self.inputs[0];
        let mut asha = Asha::new(input.meta.space.clone(), asha_config());
        let mut rng = StdRng::seed_from_u64(input.meta.seed);
        for i in 0..self.jobs {
            let job = asha.suggest(&mut rng).job().expect("ASHA never waits");
            asha.observe(Observation::for_job(&job, (i % 997) as f64));
        }
        fastest_of(5, || asha.export_state()).as_secs_f64() * 1e3
    }
}

/// The store's own write-path cells for one experiment, plus what it left on
/// disk.
fn write_path_extras(
    m: &StoreMetrics,
    dir: &Path,
    wall_s: f64,
    jobs: usize,
) -> Vec<(&'static str, f64)> {
    let append = m.wal_append.snapshot();
    let fsync = m.wal_fsync.snapshot();
    let full = m.snapshot_write.snapshot();
    let delta = m.snapshot_delta_write.snapshot();
    let file_len = |path: &Path| std::fs::metadata(path).map_or(0, |meta| meta.len());
    let disk_bytes: u64 = std::fs::read_dir(dir)
        .map(|entries| entries.flatten().map(|e| file_len(&e.path())).sum())
        .unwrap_or(0);
    vec![
        ("wal_appends", append.count() as f64),
        ("wal_append_ns", append.mean() * 1e9),
        ("wal_fsyncs", fsync.count() as f64),
        ("wal_fsync_us", fsync.mean() * 1e6),
        (
            "wal_bytes_per_job",
            file_len(&dir.join(WAL_FILE)) as f64 / jobs as f64,
        ),
        ("snapshot_fulls", full.count() as f64),
        ("snapshot_full_ms", full.mean() * 1e3),
        ("snapshot_deltas", delta.count() as f64),
        ("snapshot_delta_ms", delta.mean() * 1e3),
        ("checkpoint_share", ratio(full.sum() + delta.sum(), wall_s)),
        ("disk_bytes_per_job", disk_bytes as f64 / jobs as f64),
    ]
}

/// The read path, timed directly on the store a finished experiment left.
fn read_path_extras(dir: &Path) -> Vec<(&'static str, f64)> {
    let start = Instant::now();
    load_latest(dir)
        .expect("a finished store loads")
        .expect("a finished store has a snapshot");
    let load_latest_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    read_wal(&dir.join(WAL_FILE)).expect("a finished store's WAL reads");
    let read_wal_ms = start.elapsed().as_secs_f64() * 1e3;
    vec![
        ("load_latest_ms", load_latest_ms),
        ("read_wal_ms", read_wal_ms),
    ]
}
