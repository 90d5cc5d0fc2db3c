//! `suggest-tpe`: ASHA+TPE (`baselines::bohb_asha`) driven suggest → observe
//! against a seeded synthetic loss stream, with no simulator. `baselines`
//! and `math` do most of the work, and `core` is used through its grow path
//! rather than its promotion scan — the mirror image of `sim-500w`.

use std::sync::Arc;

use asha::baselines::{bohb_asha, GpSampler, GpSamplerConfig, TpeConfig, TpeSampler};
use asha::core::{Asha, ConfigSampler, Observation, Scheduler};
use asha::math::{Kde1d, Matrix};
use asha::space::{ParamValue, SearchSpace};
use asha::surrogate::{presets, BenchmarkModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::harness::{
    derive_seed, fastest_of, timed_region, Digest, Metric, Outcome, Size, Traced, Workload,
};
use crate::trace::Tracer;
use crate::workloads::asha_config;
use crate::wrappers::{TimedSampler, TimedScheduler};

pub const FULL: Size = Size {
    panel: 96,
    work: 2_000,
    pass_secs: 3.2,
};
pub const QUICK: Size = Size {
    panel: 3,
    work: 300,
    pass_secs: 0.02,
};

pub struct Tpe {
    space: SearchSpace,
    seeds: Vec<u64>,
    round_trips: usize,
}

impl Tpe {
    pub fn new(seed: u64, size: Size) -> Tpe {
        Tpe {
            space: presets::cifar10_cuda_convnet(presets::DEFAULT_SURFACE_SEED)
                .space()
                .clone(),
            seeds: (0..size.panel as u64)
                .map(|i| derive_seed(seed, i))
                .collect(),
            round_trips: size.work,
        }
    }
}

/// The closed suggest → observe loop; returns round trips made and a digest
/// of every job issued.
fn drive(scheduler: &mut impl Scheduler, seed: u64, round_trips: usize) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut losses = StdRng::seed_from_u64(derive_seed(seed, 0));
    let mut digest = Digest::new();
    let mut done = 0;
    for _ in 0..round_trips {
        let Some(job) = scheduler.suggest(&mut rng).job() else {
            break;
        };
        digest.word(job.trial.0);
        digest.word(job.rung as u64);
        for value in job.config.values() {
            digest.word(match *value {
                ParamValue::Float(v) => v.to_bits(),
                ParamValue::Int(v) => v as u64,
                ParamValue::Index(v) => v as u64,
            });
        }
        scheduler.observe(Observation::for_job(&job, losses.gen::<f64>()));
        done += 1;
    }
    (done, digest.finish())
}

impl Workload for Tpe {
    fn name(&self) -> &'static str {
        "suggest-tpe"
    }

    fn panel(&self) -> usize {
        self.seeds.len()
    }

    fn run(&self, i: usize, tracer: Option<&Arc<Tracer>>) -> Outcome {
        let seed = self.seeds[i];
        let ((done, digest), wall) = match tracer {
            None => {
                let mut scheduler = bohb_asha(self.space.clone(), asha_config());
                timed_region(None, || drive(&mut scheduler, seed, self.round_trips))
            }
            Some(t) => {
                // `bohb_asha` with its sampler wrapped.
                let tpe = TpeSampler::new(self.space.clone(), TpeConfig::default());
                let sampler =
                    TimedSampler::new(tpe, t, "baselines.tpe_propose", "baselines.tpe_record");
                let mut asha =
                    Asha::with_sampler(self.space.clone(), asha_config(), Box::new(sampler));
                asha.set_name("ASHA+TPE");
                let mut scheduler = TimedScheduler::new(asha, t);
                timed_region(tracer, || drive(&mut scheduler, seed, self.round_trips))
            }
        };
        let failure = (done != self.round_trips as u64)
            .then(|| format!("made {done} round trips, expected {}", self.round_trips));
        Outcome {
            wall,
            work: done,
            digest,
            failure,
            extras: Vec::new(),
        }
    }

    fn layers(&self, traced: &Traced) -> Vec<Metric> {
        let propose = traced.summary.get("baselines.tpe_propose");
        vec![
            Metric::new("baselines.tpe_propose_us", propose.mean_ns() / 1e3, "us"),
            Metric::new(
                "baselines.tpe_proposals",
                traced.count("baselines.tpe_propose"),
                "count",
            ),
            Metric::new(
                "baselines.tpe_share",
                traced.share(&["baselines.tpe_propose", "baselines.tpe_record"]),
                "share",
            ),
            Metric::new("baselines.gp_propose_us", self.gp_propose_us(), "us"),
            Metric::new("math.kde_fit_us_n64", kde_fit_us(64), "us"),
            Metric::new("math.kde_fit_us_n1024", kde_fit_us(1024), "us"),
            Metric::new("math.cholesky_us_n256", cholesky_us(256), "us"),
        ]
    }
}

impl Tpe {
    /// A fixed GP-EI loop: 64 recorded observations, then 16 proposals. No
    /// workload runs the GP sampler yet; this is its row until one does.
    fn gp_propose_us(&self) -> f64 {
        const PROPOSALS: u32 = 16;
        let mut rng = StdRng::seed_from_u64(self.seeds[0]);
        let mut gp = GpSampler::new(self.space.clone(), GpSamplerConfig::default());
        for _ in 0..64 {
            let config = self.space.sample(&mut rng);
            gp.record(&config, 0, 1.0, rng.gen::<f64>());
        }
        let wall = fastest_of(3, || {
            let mut rng = StdRng::seed_from_u64(self.seeds[0]);
            for _ in 0..PROPOSALS {
                std::hint::black_box(gp.propose(&self.space, &mut rng));
            }
        });
        wall.as_secs_f64() * 1e6 / f64::from(PROPOSALS)
    }
}

fn kde_fit_us(n: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(n as u64);
    let points: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
    let wall = fastest_of(20, || Kde1d::new(std::hint::black_box(&points), 0.03));
    wall.as_secs_f64() * 1e6
}

fn cholesky_us(n: usize) -> f64 {
    // Diagonally dominant, hence positive definite.
    let a = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            n as f64
        } else {
            1.0 / (1.0 + i.abs_diff(j) as f64)
        }
    });
    let wall = fastest_of(5, || {
        std::hint::black_box(&a)
            .cholesky()
            .expect("positive definite")
    });
    wall.as_secs_f64() * 1e6
}
