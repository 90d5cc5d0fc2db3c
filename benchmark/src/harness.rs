//! What the four workloads share: the panel-and-passes estimator, output
//! digests, the attempted/failed tally, and the traced variant of a run.
//!
//! A run is one untimed warm-up pass plus a fixed number of identical passes
//! over a *panel* of small experiments whose inputs all derive from
//! `--seed`. An experiment's wall is the **fastest** of its passes
//! (interference on a shared box only ever adds time) and the run's value is
//! the **median over the panel** of work ÷ fastest wall (one experiment's
//! cost depends on its seed). There are no time loops, so counts repeat.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::stats::median;
use crate::trace::{ratio, Span, Summary, Tracer};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// How big a workload runs: `panel` experiments of `work` units each, one
/// pass over which nominally takes `pass_secs` on the reference box. The
/// pass count comes from this constant, never from a clock.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub panel: usize,
    pub work: usize,
    pub pass_secs: f64,
}

impl Size {
    /// Timed passes that fill `seconds`.
    pub fn passes(&self, seconds: f64) -> usize {
        ((seconds / self.pass_secs).round() as usize).max(1)
    }
}

/// What one execution of one experiment produced.
#[derive(Debug)]
pub struct Outcome {
    /// Wall of the timed region only (constructors and checks excluded).
    pub wall: Duration,
    /// Units of work done (jobs, round trips).
    pub work: u64,
    /// Digest of the experiment's outputs: same seed ⇒ same digest.
    pub digest: u64,
    /// Why the outputs are wrong, if they are.
    pub failure: Option<String>,
    /// Per-layer numbers taken on the side of a traced execution.
    pub extras: Vec<(&'static str, f64)>,
}

/// A named workload: a panel of experiments that can each be run any number
/// of times, plainly or under a tracer.
pub trait Workload {
    fn name(&self) -> &'static str;

    /// Number of experiments in the panel.
    fn panel(&self) -> usize;

    /// Construct experiment `i` afresh, run it, check its outputs.
    fn run(&self, i: usize, tracer: Option<&Arc<Tracer>>) -> Outcome;

    /// The per-layer metrics this workload is home to, from a traced run.
    fn layers(&self, traced: &Traced) -> Vec<Metric>;
}

/// Operations attempted and failed; every execution of an experiment is one
/// operation.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one execution; `expected` is the warm-up pass's digest.
    fn count(&mut self, workload: &dyn Workload, i: usize, o: &Outcome, expected: Option<u64>) {
        self.attempted += 1;
        let failure = o.failure.clone().or_else(|| {
            expected
                .is_some_and(|d| d != o.digest)
                .then(|| "output digest differs from the warm-up pass's".to_owned())
        });
        if let Some(why) = failure {
            self.failed += 1;
            eprintln!("{} experiment {i}: FAILED: {why}", workload.name());
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The warm-up pass: runs every experiment once, untimed, and keeps the
/// digests every later pass must reproduce.
fn warm_up(workload: &dyn Workload, tally: &mut Tally) -> Vec<Outcome> {
    (0..workload.panel())
        .map(|i| {
            let o = workload.run(i, None);
            tally.count(workload, i, &o, None);
            o
        })
        .collect()
}

/// Result of an untraced run.
#[derive(Debug)]
pub struct Measured {
    pub work_per_s: f64,
    pub setup_s: f64,
    pub tally: Tally,
}

/// The untraced run: finish setting up (set-up is everything from process
/// start through the cold warm-up pass), then `passes` timed passes over the
/// panel.
pub fn measure(process_start: Instant, workload: &dyn Workload, passes: usize) -> Measured {
    let mut tally = Tally::default();
    let warm = warm_up(workload, &mut tally);
    let setup_s = process_start.elapsed().as_secs_f64();

    let mut fastest = vec![Duration::MAX; workload.panel()];
    for _ in 0..passes {
        for (i, reference) in warm.iter().enumerate() {
            let o = workload.run(i, None);
            tally.count(workload, i, &o, Some(reference.digest));
            fastest[i] = fastest[i].min(o.wall);
        }
    }
    let rates: Vec<f64> = warm
        .iter()
        .zip(&fastest)
        .map(|(o, wall)| ratio(o.work as f64, wall.as_secs_f64()))
        .collect();
    Measured {
        work_per_s: median(&rates),
        setup_s,
        tally,
    }
}

/// Result of a traced run of one workload.
#[derive(Debug)]
pub struct Traced {
    /// Span totals over every traced execution.
    pub summary: Summary,
    /// The spans of the first traced execution, for the span file.
    pub spans: Vec<Span>,
    /// Side numbers of every traced execution, by name.
    pub extras: BTreeMap<&'static str, Vec<f64>>,
    /// Traced passes made (span counts and extras cover this many).
    pub passes: usize,
    /// Work units of one pass over the panel.
    pub work_per_pass: u64,
    /// Median over the panel of traced ÷ untraced fastest wall.
    pub overhead_ratio: f64,
    pub tally: Tally,
}

impl Traced {
    /// A span count per pass over the panel.
    pub fn count(&self, name: &str) -> f64 {
        self.summary.prefixed(name).count as f64 / self.passes as f64
    }

    /// Median of a side number over the traced executions (0 if absent).
    pub fn extra_median(&self, name: &str) -> f64 {
        self.extras.get(name).map_or(0.0, |v| median(v))
    }

    /// Sum of a side number per pass over the panel.
    pub fn extra_sum(&self, name: &str) -> f64 {
        self.extras
            .get(name)
            .map_or(0.0, |v| v.iter().sum::<f64>() / self.passes as f64)
    }

    /// Share of the experiments' wall that `names` cover.
    pub fn share(&self, names: &[&str]) -> f64 {
        let covered: u64 = names.iter().map(|n| self.summary.get(n).total_ns).sum();
        ratio(covered as f64, self.summary.get(ROOT_SPAN).total_ns as f64)
    }

    /// Share of the experiments' wall no layer span covers.
    pub fn unattributed_share(&self) -> f64 {
        let root = self.summary.get(ROOT_SPAN);
        ratio(root.self_ns as f64, root.total_ns as f64)
    }
}

/// The traced run: a warm-up, then `passes` untraced and `passes` traced
/// passes of the same panel, so the two fastest walls give the tracing
/// overhead.
pub fn trace(workload: &dyn Workload, passes: usize) -> Traced {
    let mut tally = Tally::default();
    let warm = warm_up(workload, &mut tally);
    let panel = workload.panel();
    // Fastest wall per experiment, untraced and traced.
    let mut plain = vec![Duration::MAX; panel];
    let mut traced = vec![Duration::MAX; panel];
    let mut summary = Summary::default();
    let mut first_spans = None;
    let mut extras: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();

    for _ in 0..passes {
        for (i, reference) in warm.iter().enumerate() {
            let o = workload.run(i, None);
            tally.count(workload, i, &o, Some(reference.digest));
            plain[i] = plain[i].min(o.wall);
        }
    }
    for _ in 0..passes {
        for (i, reference) in warm.iter().enumerate() {
            let tracer = Tracer::new();
            let o = workload.run(i, Some(&tracer));
            tally.count(workload, i, &o, Some(reference.digest));
            traced[i] = traced[i].min(o.wall);
            let spans = tracer.take();
            summary.add(&spans);
            first_spans.get_or_insert(spans);
            for (name, value) in o.extras {
                extras.entry(name).or_default().push(value);
            }
        }
    }
    let ratios: Vec<f64> = traced
        .iter()
        .zip(&plain)
        .map(|(t, p)| ratio(t.as_secs_f64(), p.as_secs_f64()))
        .collect();
    Traced {
        summary,
        spans: first_spans.unwrap_or_default(),
        extras,
        passes,
        work_per_pass: warm.iter().map(|o| o.work).sum(),
        overhead_ratio: median(&ratios),
        tally,
    }
}

/// Name of the span that covers an experiment's timed region.
pub const ROOT_SPAN: &str = "experiment";

/// Run `f` as an experiment's timed region: under the root span when
/// tracing, and against the wall clock either way.
pub fn timed_region<T>(tracer: Option<&Arc<Tracer>>, f: impl FnOnce() -> T) -> (T, Duration) {
    let _root = tracer.map(|t| t.span(ROOT_SPAN));
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Fastest wall of `reps` calls of `f`, for the short side measurements.
pub fn fastest_of<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed()
        })
        .min()
        .expect("at least one repetition")
}

/// An independent seed for stream `stream` of `seed` (splitmix64), so every
/// input of every experiment derives from the one `--seed`.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over words and bytes: the output digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01B3);
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.word(u64::from(b));
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }

    /// Digest of a value's `Debug` rendering (floats print round-trip
    /// exactly, so equal digests mean equal values).
    pub fn of_debug(value: &impl std::fmt::Debug) -> u64 {
        let mut d = Digest::new();
        d.bytes(format!("{value:?}").as_bytes());
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_count_rounds_and_never_reaches_zero() {
        let size = Size {
            panel: 4,
            work: 10,
            pass_secs: 2.2,
        };
        assert_eq!(size.passes(20.0), 9);
        assert_eq!(size.passes(3.0), 1);
        assert_eq!(size.passes(0.1), 1);
    }

    #[test]
    fn derived_seeds_differ_by_stream_and_repeat() {
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
        assert_ne!(derive_seed(7, 3), derive_seed(7, 4));
        assert_ne!(derive_seed(7, 3), derive_seed(8, 3));
    }

    #[test]
    fn digest_separates_values_and_repeats() {
        assert_eq!(
            Digest::of_debug(&(1.5f64, "a")),
            Digest::of_debug(&(1.5f64, "a"))
        );
        assert_ne!(
            Digest::of_debug(&0.1f64),
            Digest::of_debug(&0.1000000001f64)
        );
    }
}
