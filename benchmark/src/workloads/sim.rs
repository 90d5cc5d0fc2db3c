//! `sim-500w`: `ClusterSim::run` of ASHA on 500 simulated workers — the
//! paper's large-scale regime with no store and no service, so `sim`, `core`
//! (the promotion scan), `surrogate` and `space` do all the work.

use std::sync::Arc;

use asha::core::{Asha, RandomSampler};
use asha::sim::{ClusterSim, SimConfig, TraceMode};
use asha::surrogate::{presets, BenchmarkModel, CurveBenchmark};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{
    derive_seed, fastest_of, timed_region, Digest, Metric, Outcome, Size, Traced, Workload,
};
use crate::trace::{ratio, Tracer};
use crate::workloads::{asha_config, HORIZON};
use crate::wrappers::{TimedModel, TimedSampler, TimedScheduler};

pub const FULL: Size = Size {
    panel: 48,
    work: 25_000,
    pass_secs: 2.2,
};
pub const QUICK: Size = Size {
    panel: 3,
    work: 2_000,
    pass_secs: 0.015,
};

const WORKERS: usize = 500;

struct Input {
    bench: CurveBenchmark,
    rng_seed: u64,
}

pub struct Sim {
    inputs: Vec<Input>,
    jobs: usize,
}

impl Sim {
    pub fn new(seed: u64, size: Size) -> Sim {
        let inputs = (0..size.panel as u64)
            .map(|i| Input {
                bench: presets::cifar10_cuda_convnet(derive_seed(seed, 2 * i)),
                rng_seed: derive_seed(seed, 2 * i + 1),
            })
            .collect();
        Sim {
            inputs,
            jobs: size.work,
        }
    }

    fn cluster(&self, workers: usize) -> ClusterSim {
        ClusterSim::new(
            SimConfig::new(workers, HORIZON)
                .with_max_jobs(self.jobs)
                .with_trace_mode(TraceMode::IncumbentOnly),
        )
    }

    /// Nanoseconds per job of an untraced run at another worker count, same
    /// job cap: the scaling side runs.
    fn ns_per_job_at(&self, workers: usize) -> f64 {
        let input = &self.inputs[0];
        let sim = self.cluster(workers);
        let wall = fastest_of(3, || {
            let asha = Asha::new(input.bench.space().clone(), asha_config());
            let mut rng = StdRng::seed_from_u64(input.rng_seed);
            sim.run(asha, &input.bench, &mut rng)
        });
        wall.as_nanos() as f64 / self.jobs as f64
    }
}

impl Workload for Sim {
    fn name(&self) -> &'static str {
        "sim-500w"
    }

    fn panel(&self) -> usize {
        self.inputs.len()
    }

    fn run(&self, i: usize, tracer: Option<&Arc<Tracer>>) -> Outcome {
        let input = &self.inputs[i];
        let space = input.bench.space().clone();
        let sim = self.cluster(WORKERS);
        let mut rng = StdRng::seed_from_u64(input.rng_seed);
        let (result, wall) = match tracer {
            None => {
                let asha = Asha::new(space, asha_config());
                timed_region(None, || sim.run(asha, &input.bench, &mut rng))
            }
            Some(t) => {
                let sampler = TimedSampler::new(RandomSampler::new(), t, "space.sample", "");
                let asha = Asha::with_sampler(space, asha_config(), Box::new(sampler));
                let scheduler = TimedScheduler::new(asha, t);
                let model = TimedModel::new(&input.bench, t);
                timed_region(tracer, || {
                    t.time("sim.run", || sim.run(scheduler, &model, &mut rng))
                })
            }
        };
        let failure = (result.jobs_completed != self.jobs).then(|| {
            format!(
                "completed {} jobs, expected {}",
                result.jobs_completed, self.jobs
            )
        });
        Outcome {
            wall,
            work: result.jobs_completed as u64,
            digest: Digest::of_debug(&result),
            failure,
            extras: Vec::new(),
        }
    }

    fn layers(&self, traced: &Traced) -> Vec<Metric> {
        let s = &traced.summary;
        let suggests = traced.count("core.suggest");
        let promotions = traced.count("core.suggest.promote");
        let jobs = (traced.work_per_pass * traced.passes as u64) as f64;
        let ns_25w = self.ns_per_job_at(25);
        let ns_2000w = self.ns_per_job_at(2000);
        vec![
            Metric::new("space.sample_ns", s.get("space.sample").mean_ns(), "ns"),
            Metric::new(
                "core.suggest_ns",
                s.prefixed("core.suggest").mean_self_ns(),
                "ns",
            ),
            Metric::new(
                "core.observe_ns",
                s.get("core.observe").mean_self_ns(),
                "ns",
            ),
            Metric::new("core.suggests", suggests, "count"),
            Metric::new("core.promotions", promotions, "count"),
            Metric::new("core.grows", traced.count("core.suggest.grow"), "count"),
            Metric::new("core.waits", traced.count("core.suggest.wait"), "count"),
            Metric::new("core.promote_share", ratio(promotions, suggests), "share"),
            Metric::new("surrogate.eval_ns", s.get("surrogate.eval").mean_ns(), "ns"),
            Metric::new("surrogate.evals", traced.count("surrogate.eval"), "count"),
            Metric::new(
                "sim.self_ns_per_job",
                ratio(s.get("sim.run").self_ns as f64, jobs),
                "ns",
            ),
            Metric::new("sim.ns_per_job_25w", ns_25w, "ns"),
            Metric::new("sim.ns_per_job_2000w", ns_2000w, "ns"),
            Metric::new("sim.scaling_ratio", ns_2000w / ns_25w, "ratio"),
        ]
    }
}
