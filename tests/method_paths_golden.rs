//! One method, four paths, one digest table. Every persistable method —
//! `asha`, `dasha`, `sha` and `async-hyperband` at r = 1, R = 256, η = 4,
//! each drawing configurations at random, from TPE and from GP-EI — runs one
//! seeded chaos simulation four ways:
//!
//! 1. `ClusterSim::run_recorded`, no store;
//! 2. a `DurableRun`, uninterrupted;
//! 3. a `DurableRun` dropped at a job drawn from the seed, then resumed;
//! 4. an in-process `Daemon`, as the telemetry one subscriber receives.
//!
//! The three `SimResult`s must be equal, the four telemetry streams must be
//! equal, and each row's `(result, telemetry)` digest pair — FNV-1a of the
//! `Debug` rendering, as in `sim_golden` — must match the committed table.
//! The table was generated before the four paths shared one constructor,
//! so it also pins that the shared constructor builds the schedulers the
//! separate ones did. On a deliberate numerics change the failure prints
//! the replacement table.

use std::fmt::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

use asha::core::telemetry::Event;
use asha::core::Scheduler;
use asha::obs::{event_from_json, RunRecorder};
use asha::service::{Client, Daemon, Push, ServeOptions};
use asha::sim::{ClusterSim, SimConfig, SimResult};
use asha::space::SearchSpace;
use asha::store::{
    read_wal, BenchSpec, Durability, DurableRun, ExperimentMeta, RunOptions, WAL_FILE,
};
use asha::surrogate::{presets, BenchmarkModel, CurveBenchmark};
use asha::tune::{Sampler, Searcher};
use rand::{Rng, SeedableRng};

const METHODS: [&str; 4] = ["asha", "dasha", "sha", "async-hyperband"];
const SAMPLERS: [&str; 3] = ["random", "tpe", "gp"];
const JOBS: usize = 300;

/// `(method, sampler, SimResult digest, telemetry digest)`.
#[rustfmt::skip]
const GOLDEN: [(&str, &str, u64, u64); 12] = [
    ("asha", "random", 0xd26786cf425f8e6f, 0x8821aa1c7630cf76),
    ("asha", "tpe", 0xbd76e886b669f553, 0xb2acbd1b3ff8fea5),
    ("asha", "gp", 0x17e0911e488171a7, 0x93ee1e5f7ab6219c),
    ("dasha", "random", 0xdc35d170999224c3, 0x7aa7b48e948a7f90),
    ("dasha", "tpe", 0x34dba013262b4284, 0x6970d84773c3c0b7),
    ("dasha", "gp", 0x97a20e3425452a09, 0x16609c7be0275e08),
    ("sha", "random", 0x75d020f0dd2b7d0c, 0xadcff63d9b66039a),
    ("sha", "tpe", 0xbef97ee2b37c437e, 0xf46b126389590e94),
    ("sha", "gp", 0x9fcf9945c9e15031, 0x0dd970bd02e3ecf6),
    ("async-hyperband", "random", 0x13d56584d65a5ad5, 0x4807eedc9dad4e0d),
    ("async-hyperband", "tpe", 0x473aca5c57f0b0c7, 0xb2c4b624c534c25b),
    ("async-hyperband", "gp", 0x99962f25ad9e5d03, 0xf63ecb8dbcd60953),
];

struct Fnv1a(u64);

impl Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

fn digest(value: &impl std::fmt::Debug) -> u64 {
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    write!(h, "{value:?}").expect("hashing cannot fail");
    h.0
}

fn tmp_root() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asha-method-paths-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The row's method, by the names `asha-ctl create` takes.
fn searcher(method: &str, sampler: &str) -> Searcher {
    let mut searcher = Searcher::from_name(method, 1.0, 256.0, 4.0).expect("a method name");
    *searcher.sampler_mut().expect("a persistable method") =
        Sampler::from_name(sampler).expect("a sampler name");
    searcher
}

/// The row's scheduler for the simulator path.
fn fresh(method: &str, sampler: &str, space: &SearchSpace) -> Box<dyn Scheduler + Send> {
    searcher(method, sampler).build(space)
}

/// The row as durable-store metadata.
fn meta(method: &str, sampler: &str, seed: u64) -> ExperimentMeta {
    let spec = BenchSpec {
        preset: "cifar10_cuda_convnet".to_owned(),
        seed: presets::DEFAULT_SURFACE_SEED,
    };
    let space = spec.build().unwrap().space().clone();
    let initial = searcher(method, sampler)
        .durable(&space)
        .unwrap()
        .durable_state();
    ExperimentMeta {
        name: format!("{method}-{sampler}"),
        space,
        initial,
        sampler: Sampler::from_name(sampler),
        seed,
        sim: SimConfig::new(25, 1e9)
            .with_stragglers(0.5)
            .with_drops(0.01)
            .with_max_jobs(JOBS),
        bench: spec,
    }
}

/// Checkpoint every 50 jobs, so a resumed run patches deltas onto a base.
fn opts() -> RunOptions {
    RunOptions {
        sync: Durability::Flush,
        snapshot_jobs: 50,
        ..RunOptions::default()
    }
}

fn wal_telemetry(dir: &Path) -> Vec<Event> {
    read_wal(&dir.join(WAL_FILE))
        .unwrap()
        .telemetry()
        .copied()
        .collect()
}

/// Paths 1–3: `(SimResult, telemetry)` of each.
fn local_paths(
    method: &str,
    sampler: &str,
    meta: &ExperimentMeta,
    bench: &CurveBenchmark,
    root: &Path,
) -> [(SimResult, Vec<Event>); 3] {
    let mut recorder = RunRecorder::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(meta.seed);
    let scheduler = fresh(method, sampler, bench.space());
    let sim =
        ClusterSim::new(meta.sim.clone()).run_recorded(scheduler, bench, &mut rng, &mut recorder);
    let simulated = (sim, recorder.events().to_vec());

    let dir = root.join(format!("{}-whole", meta.name));
    let result = DurableRun::create(&dir, meta, bench, opts())
        .unwrap()
        .run_to_completion()
        .unwrap();
    let whole = (result, wal_telemetry(&dir));

    let kill = rand::rngs::StdRng::seed_from_u64(!meta.seed).gen_range(1..JOBS);
    let dir = root.join(format!("{}-resumed", meta.name));
    let mut run = DurableRun::create(&dir, meta, bench, opts()).unwrap();
    assert!(
        run.run_until_jobs(kill).unwrap(),
        "{}: ended before job {kill}",
        meta.name
    );
    drop(run);
    let result = DurableRun::resume(&dir, meta, bench, opts())
        .unwrap()
        .run_to_completion()
        .unwrap();
    let resumed = (result, wal_telemetry(&dir));
    [simulated, whole, resumed]
}

/// Path 4: every telemetry event one subscriber receives, resubscribing
/// past a `lag` as a careful consumer does.
fn served(client: &mut Client, name: &str) -> Vec<Event> {
    let mut sub = client.subscribe(name, 0).unwrap();
    let mut events: Vec<Event> = Vec::new();
    loop {
        let push = client
            .next_push(Some(Duration::from_secs(120)))
            .unwrap()
            .unwrap_or_else(|| panic!("{name}: stream stalled"));
        if push.sub() != sub {
            continue;
        }
        match push {
            Push::Event { data, .. } => {
                if data.get("seq").is_some() {
                    events.push(event_from_json(&data).unwrap());
                }
            }
            Push::Lag { .. } => {
                let next = events.len() as u64;
                let _ = client.unsubscribe(sub);
                sub = client.subscribe(name, next).unwrap();
            }
            Push::Rewind { .. } => panic!("{name}: nothing crashed, nothing may rewind"),
            Push::Status { .. } => {}
            Push::End { .. } => return events,
        }
    }
}

#[test]
fn every_persistable_method_agrees_on_every_path() {
    let root = tmp_root();
    let mut serve = ServeOptions::new(root.join("daemon"));
    serve.unix = Some(root.join("ctl.sock"));
    let daemon = Daemon::start(serve).unwrap();
    let mut client = Client::connect_unix(root.join("ctl.sock")).unwrap();
    client.set_call_timeout(Some(Duration::from_secs(60)));

    let rows: Vec<(&str, &str, ExperimentMeta)> = METHODS
        .iter()
        .flat_map(|m| SAMPLERS.iter().map(move |s| (*m, *s)))
        .enumerate()
        .map(|(i, (method, sampler))| (method, sampler, meta(method, sampler, 100 + i as u64)))
        .collect();
    for (_, _, meta) in &rows {
        client.create(meta, opts()).unwrap();
        client.start(&meta.name, opts()).unwrap();
    }

    let bench = rows[0].2.bench.build().unwrap();
    let mut table = String::new();
    let mut moved = Vec::new();
    for ((method, sampler, meta), golden) in rows.iter().zip(GOLDEN) {
        assert_eq!(
            (*method, *sampler),
            (golden.0, golden.1),
            "GOLDEN rows follow METHODS × SAMPLERS"
        );
        let [simulated, whole, resumed] = local_paths(method, sampler, meta, &bench, &root);
        let served = served(&mut client, &meta.name);
        assert_eq!(simulated.0.jobs_completed, JOBS, "{}: ran short", meta.name);
        let results = [&simulated.0, &whole.0, &resumed.0].map(digest);
        let streams = [&simulated.1, &whole.1, &resumed.1, &served].map(digest);
        assert_eq!(
            results, [results[0]; 3],
            "{}: sim, durable, resumed results differ",
            meta.name
        );
        assert_eq!(
            streams, [streams[0]; 4],
            "{}: sim, durable, resumed, served telemetry differ",
            meta.name
        );
        if (results[0], streams[0]) != (golden.2, golden.3) {
            moved.push(meta.name.clone());
        }
        writeln!(
            table,
            "    (\"{method}\", \"{sampler}\", {:#018x}, {:#018x}),",
            results[0], streams[0]
        )
        .expect("String write");
    }
    client.shutdown().unwrap();
    daemon.wait().unwrap();
    std::fs::remove_dir_all(&root).ok();
    assert!(
        moved.is_empty(),
        "method paths changed for {moved:?}; if intended, GOLDEN becomes:\n{table}"
    );
}
