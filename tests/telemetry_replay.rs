//! Deterministic-replay smoke tests for run telemetry: the JSONL event log
//! is a pure function of the seed (byte-identical across runs), parses back
//! into the identical event stream, and the executor's telemetry stays
//! consistent under chaos.

use asha::core::{Asha, AshaConfig};
use asha::exec::{ExecConfig, FaultPolicy, JobCtx, ParallelTuner};
use asha::obs::{parse_jsonl, RunRecorder, RunReport};
use asha::sim::{ClusterSim, SimConfig};
use asha::space::{Scale, SearchSpace};
use asha::surrogate::{presets, BenchmarkModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn chaos_jsonl(seed: u64) -> (String, RunRecorder) {
    let bench = presets::cifar10_cuda_convnet(1);
    let asha = Asha::new(bench.space().clone(), AshaConfig::new(1.0, 256.0, 4.0));
    let sim = ClusterSim::new(
        SimConfig::new(25, 40.0)
            .with_stragglers(0.5)
            .with_drops(0.01),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut recorder = RunRecorder::new();
    sim.run_recorded(asha, &bench, &mut rng, &mut recorder);
    (recorder.to_jsonl(), recorder)
}

#[test]
fn same_seed_produces_byte_identical_jsonl() {
    // Run the identical recorded simulation twice: logs must match byte for
    // byte — the property that makes telemetry diffs meaningful.
    let (first, _) = chaos_jsonl(2020);
    let (second, _) = chaos_jsonl(2020);
    assert!(!first.is_empty());
    assert_eq!(
        first, second,
        "telemetry must be deterministic given the seed"
    );

    // A different seed must not collide (sanity that the check above is not
    // vacuous).
    let (other, _) = chaos_jsonl(2021);
    assert_ne!(first, other);
}

#[test]
fn log_round_trips_and_reports_sanely() {
    let (text, recorder) = chaos_jsonl(3);
    let events = parse_jsonl(&text).expect("own log must parse");
    assert_eq!(events, recorder.events(), "parse(encode(x)) == x");

    // A report built from the parsed log equals one built live.
    let from_log = RunReport::from_events(&events, Some(25));
    let live = recorder.report(Some(25));
    assert_eq!(from_log.to_json(), live.to_json());

    // Sanity: a 25-worker chaos run promotes, completes jobs, and keeps the
    // pool mostly busy.
    let m = from_log.metrics();
    assert!(m.jobs_completed.get() > 100);
    assert!(m.decisions.promote.get() > 0);
    assert!(m.promotion_wait.count() > 0);
    let mean = from_log.mean_utilization();
    assert!(
        (0.5..=1.0).contains(&mean),
        "ASHA should keep 25 workers busy, got {mean}"
    );
}

#[test]
fn executor_telemetry_is_consistent_under_chaos() {
    // An objective whose first attempt of every job drops its result: the
    // executor retries in place, which is exactly the path where naive
    // busy-worker accounting would go negative.
    struct Flaky;
    impl asha::exec::Objective for Flaky {
        type Checkpoint = f64;
        fn run(
            &self,
            _config: &asha::space::Config,
            resource: f64,
            _ckpt: Option<f64>,
        ) -> (asha::exec::Evaluation, f64) {
            (asha::exec::Evaluation::of(1.0 / resource), resource)
        }
        fn run_ctx(
            &self,
            ctx: JobCtx,
            config: &asha::space::Config,
            resource: f64,
            ckpt: Option<f64>,
        ) -> (asha::exec::Evaluation, f64) {
            if ctx.attempt == 1 && ctx.trial.is_multiple_of(3) {
                std::panic::panic_any(asha::exec::JobDropped);
            }
            self.run(config, resource, ckpt)
        }
    }

    asha::exec::install_quiet_panic_hook();
    let space = SearchSpace::builder()
        .continuous("x", 0.0, 1.0, Scale::Linear)
        .build()
        .unwrap();
    let workers = 4;
    let asha = Asha::new(space, AshaConfig::new(1.0, 27.0, 3.0).with_max_trials(30));
    let policy = FaultPolicy::default().with_backoff(
        std::time::Duration::from_micros(100),
        std::time::Duration::from_millis(1),
    );
    let mut recorder = RunRecorder::new();
    let result = ParallelTuner::new(ExecConfig::new(workers).with_fault_policy(policy))
        .run_recorded(asha, &Flaky, 1, &mut recorder);

    assert!(result.faults.jobs_dropped > 0, "flaky objective must drop");
    let m = recorder.metrics();
    assert!(m.busy_workers.min() >= 0, "busy gauge went negative");
    assert!(
        m.busy_workers.max() <= workers as i64,
        "busy gauge exceeded the pool"
    );
    assert_eq!(m.busy_workers.value(), 0, "all starts must be balanced");
    assert_eq!(m.jobs_completed.get() as usize, result.jobs_completed);
    assert_eq!(m.jobs_dropped.get() as usize, result.faults.jobs_dropped);
    assert_eq!(m.jobs_retried.get() as usize, result.faults.jobs_retried);

    // Wall-clock timestamps are monotone because they are taken under the
    // scheduler lock.
    let times: Vec<f64> = recorder.events().iter().map(|e| e.time).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]));

    // The log round-trips through JSONL like the simulator's.
    let events = parse_jsonl(&recorder.to_jsonl()).expect("own log must parse");
    assert_eq!(events, recorder.events());
}

/// `report.json` and the text report of one seeded chaos run, byte for
/// byte: the histogram quantiles, maxima and means they print are the
/// f64 accumulators' readings.
#[test]
fn chaos_report_bytes_are_pinned() {
    let (_, recorder) = chaos_jsonl(3);
    let report = recorder.report(Some(25));
    assert_eq!(report.to_json().render(), CHAOS_REPORT_JSON);
    assert_eq!(report.render_text(), CHAOS_REPORT_TEXT);
}

/// `chaos_jsonl(3)`'s `RunReport::to_json().render()`, 25 workers.
const CHAOS_REPORT_JSON: &str = r#"{
  "schema": "asha-run-report-v1",
  "workers": 25,
  "end_time": 39.96564566901143,
  "events": 5516,
  "decisions": {
    "promote": 471,
    "grow_bottom": 1366,
    "wait": 0,
    "finished": 0
  },
  "jobs": {
    "started": 1847,
    "completed": 1812,
    "dropped": 10,
    "retried": 10,
    "idle_rounds": 0
  },
  "rungs": [
    {
      "rung": 0,
      "resource": 1,
      "completed": 1360,
      "pending": 1003,
      "promoted_out": 357
    },
    {
      "rung": 1,
      "resource": 4,
      "completed": 349,
      "pending": 262,
      "promoted_out": 87
    },
    {
      "rung": 2,
      "resource": 16,
      "completed": 86,
      "pending": 63,
      "promoted_out": 23
    },
    {
      "rung": 3,
      "resource": 64,
      "completed": 17,
      "pending": 13,
      "promoted_out": 4
    }
  ],
  "promotion_latency": {
    "count": 471,
    "p50": 0.001,
    "p95": 2.048,
    "max": 24.293742544004136,
    "mean": 0.5422608645088696
  },
  "job_latency": {
    "count": 1812,
    "p50": 0.256,
    "p95": 2.048,
    "max": 13.634157806921039,
    "mean": 0.5029317642680258
  },
  "queue_delay": {
    "count": 10,
    "p50": 0,
    "p95": 0,
    "max": 0,
    "mean": 0
  },
  "utilization": {
    "mean": 1,
    "peak_busy": 25,
    "timeline": [
      0.9999999999999994,
      1.0000000000000002,
      0.9999999999999991,
      1.0000000000000004,
      1,
      1.0000000000000004,
      1.0000000000000004,
      1,
      1.0000000000000002,
      0.9999999999999991,
      1.000000000000001,
      0.9999999999999993
    ]
  }
}
"#;

/// `chaos_jsonl(3)`'s `RunReport::render_text()`, 25 workers.
const CHAOS_REPORT_TEXT: &str = r#"asha run report
===============
events: 5516   end time: 39.966   workers: 25

decisions: promote 471  grow_bottom 1366  wait 0  finished 0
jobs: started 1847  completed 1812  dropped 10  retried 10  idle rounds 0

rung  resource  completed  pending  promoted out
----  --------  ---------  -------  ------------
   0       1.0       1360     1003           357
   1       4.0        349      262            87
   2      16.0         86       63            23
   3      64.0         17       13             4

latency (time units)    count      p50      p95      max     mean
promotion wait            471    0.001    2.048   24.294    0.542
job latency              1812    0.256    2.048   13.634    0.503
retry queue delay          10    0.000    0.000    0.000    0.000

worker utilization: mean 100.0%  peak busy 25
  [    0.00,     3.33)  ##############################  100.0%
  [    3.33,     6.66)  ##############################  100.0%
  [    6.66,     9.99)  ##############################  100.0%
  [    9.99,    13.32)  ##############################  100.0%
  [   13.32,    16.65)  ##############################  100.0%
  [   16.65,    19.98)  ##############################  100.0%
  [   19.98,    23.31)  ##############################  100.0%
  [   23.31,    26.64)  ##############################  100.0%
  [   26.64,    29.97)  ##############################  100.0%
  [   29.97,    33.30)  ##############################  100.0%
  [   33.30,    36.64)  ##############################  100.0%
  [   36.64,    39.97)  ##############################  100.0%
"#;
