//! The real analogue of the paper's SVM benchmark (Appendix A.2): tune an
//! RBF kernel classifier where the **resource is the number of training
//! points** — small subsets are genuinely cheap (kernel solves are
//! superlinear in n), so ASHA's early stopping buys real wall-clock time.
//!
//! Run with: `cargo run --release --example svm_subset_tuning`

use asha::core::{Asha, AshaConfig, Scheduler};
use asha::exec::{Evaluation, ExecConfig, FnObjective, ParallelTuner};
use asha::ml::{Dataset, KernelRidge, KernelRidgeConfig};
use asha::space::{Config, Scale, SearchSpace};

fn main() {
    let space = SearchSpace::builder()
        .continuous("lambda", 1e-6, 1.0, Scale::Log)
        .continuous("gamma", 1e-3, 1e3, Scale::Log)
        .build()
        .expect("valid space");

    // Two noisy moons; 1024 training points, so R = 1024 and r = 16.
    let mut data = Dataset::two_moons(640, 0.18, 3);
    let stats = data.standardize();
    let split = data.split(0.8, 0.1);
    let _ = stats;

    let space_obj = space.clone();
    let train = split.train.clone();
    let val = split.validation.clone();
    let objective = FnObjective::new(move |config: &Config, resource: f64, _ckpt: Option<()>| {
        let cfg = KernelRidgeConfig {
            lambda: config.float("lambda", &space_obj).expect("float"),
            gamma: config.float("gamma", &space_obj).expect("float"),
        };
        let subset = resource.round() as usize;
        let eval = match KernelRidge::fit(&train, subset, cfg) {
            Ok(model) => Evaluation::of(model.error_rate(&val)),
            // Numerically singular kernels count as failed trials.
            Err(_) => Evaluation::of(1.0),
        };
        (eval, ())
    });

    let max_r = split.train.len() as f64;
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get().min(8));

    // ASHA with eta = 4: subsets of 16, 64, 256, 1024 points.
    let run = |name: &str, scheduler: Box<dyn Scheduler + Send>, cap: usize| {
        let result = ParallelTuner::new(ExecConfig::new(workers).with_max_jobs(cap))
            .run(scheduler, &objective, 5);
        let (_, best) = result.best.expect("jobs ran");
        println!(
            "{name:<8} {:>5} fits in {:>8.3?}  -> best validation error {best:.4}",
            result.jobs_completed, result.elapsed
        );
        best
    };

    println!("tuning an RBF kernel classifier on two-moons ({workers} threads, resource = subset size)\n");
    let asha_best = run(
        "ASHA",
        Box::new(Asha::new(
            space.clone(),
            AshaConfig::new(max_r / 64.0, max_r, 4.0).with_max_trials(64),
        )),
        500,
    );
    // Random search gets the same number of *full-size* fits as ASHA had
    // full-budget slots — the classic comparison.
    let random_best = run(
        "Random",
        Box::new(Asha::new(space.clone(), AshaConfig::random(max_r))),
        16,
    );
    println!(
        "\nASHA explored 64 configurations for roughly the cost of 16 full fits \
         (best {asha_best:.4} vs random's {random_best:.4})."
    );
}
