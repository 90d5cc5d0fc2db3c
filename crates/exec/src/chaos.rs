//! Deterministic fault injection for any [`Objective`].
//!
//! Section 4.4 of the paper argues ASHA is robust to exactly the failures
//! real clusters produce — stragglers and dropped jobs. The simulator
//! models those in virtual time; [`ChaosObjective`] brings them to the real
//! executor: it wraps any inner objective and injects panics, delays,
//! dropped results, and NaN/Inf losses, with every decision derived purely
//! from `(seed, trial, rung, attempt)`. Two runs with the same seed inject
//! the *same* faults into the *same* jobs regardless of thread interleaving,
//! which is what makes executor fault-handling testable at all.
//!
//! # Examples
//!
//! ```
//! use asha_core::{Asha, AshaConfig};
//! use asha_exec::{
//!     ChaosConfig, ChaosObjective, Evaluation, ExecConfig, FnObjective, ParallelTuner,
//! };
//! use asha_space::{Scale, SearchSpace};
//!
//! asha_exec::install_quiet_panic_hook();
//! let space = SearchSpace::builder()
//!     .continuous("x", 0.0, 1.0, Scale::Linear)
//!     .build()?;
//! let inner = FnObjective::new(|c: &asha_space::Config, r: f64, _ckpt: Option<f64>| {
//!     let x = match c.values()[0] { asha_space::ParamValue::Float(v) => v, _ => 1.0 };
//!     (Evaluation::of((x - 0.3).abs() + 1.0 / r), r)
//! });
//! let chaos = ChaosObjective::new(inner, ChaosConfig::new(42).with_drops(0.2).with_panics(0.1));
//! let asha = Asha::new(space, AshaConfig::new(1.0, 9.0, 3.0).with_max_trials(20));
//! let result = ParallelTuner::new(ExecConfig::new(4)).run(asha, &chaos, 7);
//! // The pool survived every injected fault and accounted for them.
//! assert_eq!(result.faults.jobs_panicked, chaos.injected().panics);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::panic::panic_any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::objective::{Evaluation, JobCtx, JobDropped, Objective};

/// Panic payload of an injected (non-retryable) crash.
///
/// The executor treats it like any other panic — the trial is poisoned —
/// but [`install_quiet_panic_hook`] recognises it and keeps test output
/// clean.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChaosPanic;

/// Silence panic-hook output for *injected* faults (`ChaosPanic` and
/// [`JobDropped`] payloads), delegating every other panic to the previous
/// hook. Idempotent and safe to call from concurrent tests.
pub fn install_quiet_panic_hook() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            if payload.is::<ChaosPanic>() || payload.is::<JobDropped>() {
                return;
            }
            prev(info);
        }));
    });
}

/// Fault-injection rates, all decided per `(trial, rung, attempt)`.
///
/// Rates are probabilities in `[0, 1]`. Injection order per attempt:
/// delay, then panic (before the inner objective runs), then drop (after it
/// ran — the work happened, the result is lost), then NaN/Inf loss
/// corruption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed mixed with each attempt's identity; fixes the full fault script.
    pub seed: u64,
    /// Probability an attempt panics before training (`ChaosPanic`).
    pub panic_rate: f64,
    /// Probability an attempt's result is dropped after training
    /// ([`JobDropped`]).
    pub drop_rate: f64,
    /// Probability an attempt stalls before training (a straggler).
    pub delay_rate: f64,
    /// Stall duration is uniform in `[0, max_delay]`.
    pub max_delay: Duration,
    /// Probability the reported validation loss is corrupted to NaN.
    pub nan_rate: f64,
    /// Probability the reported validation loss is corrupted to +∞
    /// (evaluated only if the NaN draw did not fire).
    pub inf_rate: f64,
}

fn assert_rate(rate: f64, name: &str) {
    assert!(
        (0.0..=1.0).contains(&rate),
        "{name} = {rate} is not a probability"
    );
}

impl ChaosConfig {
    /// No faults at all; `seed` fixes the script once rates are raised.
    pub fn new(seed: u64) -> Self {
        ChaosConfig {
            seed,
            panic_rate: 0.0,
            drop_rate: 0.0,
            delay_rate: 0.0,
            max_delay: Duration::from_millis(10),
            nan_rate: 0.0,
            inf_rate: 0.0,
        }
    }

    /// Panic (crash the attempt) with probability `rate`.
    pub fn with_panics(mut self, rate: f64) -> Self {
        assert_rate(rate, "panic_rate");
        self.panic_rate = rate;
        self
    }

    /// Drop the attempt's result with probability `rate`.
    pub fn with_drops(mut self, rate: f64) -> Self {
        assert_rate(rate, "drop_rate");
        self.drop_rate = rate;
        self
    }

    /// Stall the attempt with probability `rate`, for up to `max_delay`.
    pub fn with_delays(mut self, rate: f64, max_delay: Duration) -> Self {
        assert_rate(rate, "delay_rate");
        self.delay_rate = rate;
        self.max_delay = max_delay;
        self
    }

    /// Corrupt the validation loss to NaN with probability `rate`.
    pub fn with_nan_losses(mut self, rate: f64) -> Self {
        assert_rate(rate, "nan_rate");
        self.nan_rate = rate;
        self
    }

    /// Corrupt the validation loss to +∞ with probability `rate`.
    #[cfg(test)]
    pub(crate) fn with_inf_losses(mut self, rate: f64) -> Self {
        assert_rate(rate, "inf_rate");
        self.inf_rate = rate;
        self
    }
}

/// Tally of faults a [`ChaosObjective`] actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionReport {
    /// Attempts crashed before training.
    pub panics: usize,
    /// Attempt results dropped after training.
    pub drops: usize,
    /// Attempts stalled.
    pub delays: usize,
    /// Losses corrupted to NaN.
    pub nans: usize,
    /// Losses corrupted to +∞.
    pub infs: usize,
}

#[derive(Default)]
struct Counters {
    panics: AtomicUsize,
    drops: AtomicUsize,
    delays: AtomicUsize,
    nans: AtomicUsize,
    infs: AtomicUsize,
}

/// Wraps an [`Objective`] and deterministically injects faults into it; see
/// the module docs.
pub struct ChaosObjective<O> {
    inner: O,
    config: ChaosConfig,
    counters: Counters,
}

impl<O> ChaosObjective<O> {
    /// Wrap `inner` with the given fault script.
    pub fn new(inner: O, config: ChaosConfig) -> Self {
        ChaosObjective {
            inner,
            config,
            counters: Counters::default(),
        }
    }

    /// Faults injected so far (exact, not sampled — compare against
    /// `ExecResult::faults`).
    pub fn injected(&self) -> InjectionReport {
        InjectionReport {
            panics: self.counters.panics.load(Ordering::Relaxed),
            drops: self.counters.drops.load(Ordering::Relaxed),
            delays: self.counters.delays.load(Ordering::Relaxed),
            nans: self.counters.nans.load(Ordering::Relaxed),
            infs: self.counters.infs.load(Ordering::Relaxed),
        }
    }
}

/// Mix the chaos seed with an attempt's identity (SplitMix64-style finalizer
/// per field). The result fully determines the attempt's fault script.
fn attempt_seed(seed: u64, ctx: JobCtx) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for v in [
        ctx.trial,
        ctx.rung as u64,
        ctx.bracket as u64,
        ctx.attempt as u64,
    ] {
        h ^= v.wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
    }
    h
}

impl<O: Objective> Objective for ChaosObjective<O> {
    type Checkpoint = O::Checkpoint;

    /// Context-free entry point: **no injection** (there is no identity to
    /// key the script off), the inner objective runs untouched. The executor
    /// always calls [`run_ctx`](Objective::run_ctx).
    fn run(
        &self,
        config: &asha_space::Config,
        resource: f64,
        checkpoint: Option<O::Checkpoint>,
    ) -> (Evaluation, O::Checkpoint) {
        self.inner.run(config, resource, checkpoint)
    }

    fn run_ctx(
        &self,
        ctx: JobCtx,
        config: &asha_space::Config,
        resource: f64,
        checkpoint: Option<O::Checkpoint>,
    ) -> (Evaluation, O::Checkpoint) {
        let mut rng = StdRng::seed_from_u64(attempt_seed(self.config.seed, ctx));
        // Fixed draw order, every draw consumed unconditionally: enabling
        // one fault class never shifts another's script.
        let delay_draw = rng.gen::<f64>();
        let delay_frac = rng.gen::<f64>();
        let panic_draw = rng.gen::<f64>();
        let drop_draw = rng.gen::<f64>();
        let nan_draw = rng.gen::<f64>();
        let inf_draw = rng.gen::<f64>();

        if delay_draw < self.config.delay_rate {
            self.counters.delays.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.config.max_delay.mul_f64(delay_frac));
        }
        if panic_draw < self.config.panic_rate {
            self.counters.panics.fetch_add(1, Ordering::Relaxed);
            panic_any(ChaosPanic);
        }
        let (mut eval, ckpt) = self.inner.run_ctx(ctx, config, resource, checkpoint);
        if drop_draw < self.config.drop_rate {
            self.counters.drops.fetch_add(1, Ordering::Relaxed);
            panic_any(JobDropped);
        }
        if nan_draw < self.config.nan_rate {
            self.counters.nans.fetch_add(1, Ordering::Relaxed);
            eval.val_loss = f64::NAN;
        } else if inf_draw < self.config.inf_rate {
            self.counters.infs.fetch_add(1, Ordering::Relaxed);
            eval.val_loss = f64::INFINITY;
        }
        (eval, ckpt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::FnObjective;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn inner() -> impl Objective<Checkpoint = f64> {
        FnObjective::new(|_c: &asha_space::Config, r: f64, _ckpt: Option<f64>| {
            (Evaluation::of(1.0 / r), r)
        })
    }

    fn ctx(trial: u64, rung: usize, attempt: u32) -> JobCtx {
        JobCtx {
            trial,
            rung,
            bracket: 0,
            attempt,
        }
    }

    /// Classify what one attempt did, absorbing its unwind.
    fn outcome_of<O: Objective<Checkpoint = f64>>(obj: &O, c: JobCtx) -> String {
        install_quiet_panic_hook();
        let config = asha_space::Config::default();
        match catch_unwind(AssertUnwindSafe(|| obj.run_ctx(c, &config, 4.0, None))) {
            Ok((eval, _)) if eval.val_loss.is_nan() => "nan".into(),
            Ok((eval, _)) if eval.val_loss.is_infinite() => "inf".into(),
            Ok(_) => "ok".into(),
            Err(p) if p.is::<JobDropped>() => "drop".into(),
            Err(p) if p.is::<ChaosPanic>() => "panic".into(),
            Err(_) => "other".into(),
        }
    }

    #[test]
    fn zero_rates_are_a_transparent_wrapper() {
        let chaos = ChaosObjective::new(inner(), ChaosConfig::new(1));
        for t in 0..50 {
            assert_eq!(outcome_of(&chaos, ctx(t, 0, 1)), "ok");
        }
        assert_eq!(chaos.injected(), InjectionReport::default());
    }

    #[test]
    fn same_seed_same_script_regardless_of_call_order() {
        let cfg = ChaosConfig::new(99)
            .with_panics(0.2)
            .with_drops(0.2)
            .with_nan_losses(0.1)
            .with_inf_losses(0.1);
        let a = ChaosObjective::new(inner(), cfg);
        let b = ChaosObjective::new(inner(), cfg);
        let ctxs: Vec<JobCtx> = (0..100)
            .flat_map(|t| (1..=2).map(move |k| ctx(t, (t % 3) as usize, k)))
            .collect();
        let forward: Vec<String> = ctxs.iter().map(|&c| outcome_of(&a, c)).collect();
        let backward: Vec<String> = ctxs.iter().rev().map(|&c| outcome_of(&b, c)).collect();
        let backward: Vec<String> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward);
        assert_eq!(a.injected(), b.injected());
        // The rates actually fire somewhere in 200 attempts.
        for kind in ["panic", "drop", "ok"] {
            assert!(
                forward.iter().any(|o| o == kind),
                "no {kind} in {forward:?}"
            );
        }
    }

    #[test]
    fn different_attempts_get_independent_draws() {
        // A drop on attempt 1 must not force a drop on attempt 2, or retries
        // would be pointless. With drop_rate 0.5, some trial has differing
        // outcomes across attempts.
        let cfg = ChaosConfig::new(3).with_drops(0.5);
        let chaos = ChaosObjective::new(inner(), cfg);
        let differs =
            (0..100).any(|t| outcome_of(&chaos, ctx(t, 0, 1)) != outcome_of(&chaos, ctx(t, 0, 2)));
        assert!(differs);
    }

    #[test]
    fn injection_counts_match_outcomes() {
        let cfg = ChaosConfig::new(7).with_panics(0.3).with_drops(0.3);
        let chaos = ChaosObjective::new(inner(), cfg);
        let outcomes: Vec<String> = (0..200).map(|t| outcome_of(&chaos, ctx(t, 0, 1))).collect();
        let report = chaos.injected();
        assert_eq!(
            report.panics,
            outcomes.iter().filter(|o| *o == "panic").count()
        );
        assert_eq!(
            report.drops,
            outcomes.iter().filter(|o| *o == "drop").count()
        );
        assert!(report.panics > 0 && report.drops > 0);
    }

    #[test]
    fn nan_and_inf_corruption_fires() {
        let cfg = ChaosConfig::new(5)
            .with_nan_losses(0.3)
            .with_inf_losses(0.3);
        let chaos = ChaosObjective::new(inner(), cfg);
        let outcomes: Vec<String> = (0..200).map(|t| outcome_of(&chaos, ctx(t, 0, 1))).collect();
        let report = chaos.injected();
        assert_eq!(report.nans, outcomes.iter().filter(|o| *o == "nan").count());
        assert_eq!(report.infs, outcomes.iter().filter(|o| *o == "inf").count());
        assert!(report.nans > 0 && report.infs > 0);
    }

    #[test]
    fn context_free_run_injects_nothing() {
        let cfg = ChaosConfig::new(11).with_panics(1.0);
        let chaos = ChaosObjective::new(inner(), cfg);
        let (eval, _) = chaos.run(&asha_space::Config::default(), 4.0, None);
        assert!(eval.val_loss.is_finite());
        assert_eq!(chaos.injected().panics, 0);
    }
}
