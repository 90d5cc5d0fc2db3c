//! Plain-data snapshots of scheduler state, for durable persistence.
//!
//! Each scheduler (`Asha`, `SyncSha`, `AsyncHyperband`) can export its full
//! mutable state as one of these structs and be rebuilt from it so that the
//! restored instance is *decision-for-decision identical* to the original:
//! given the same RNG stream and the same `suggest`/`observe` call sequence,
//! both produce the same decisions forever after. That contract is what
//! `asha-store`'s snapshot + write-ahead-log recovery relies on.
//!
//! The structs deliberately contain only owned plain data (ids as raw
//! `u64`, configurations by value, collections as sorted `Vec`s) so they can
//! be serialized by any codec without touching scheduler internals. Sorting
//! matters: the live schedulers keep some collections in hash maps whose
//! iteration order is nondeterministic, and a snapshot must be byte-stable
//! for a given logical state.

use asha_space::Config;

use crate::asha::Barrier;
use crate::error::Error;
use crate::hyperband::BracketLoop;
use crate::rung::{PromotionRule, Rung};
use crate::scheduler::Scheduler;

/// Snapshot of one `Rung`: every recorded `(trial, loss)` in arrival
/// order, plus which trials have been promoted out.
///
/// Losses are stored post-normalization (the rung records every non-finite
/// loss as `+inf`), so replaying `records` through `Rung::record`
/// reproduces the rung exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RungState {
    /// `(trial, loss)` in arrival order.
    pub records: Vec<(u64, f64)>,
    /// Trials promoted out of this rung, in arrival order.
    pub promoted: Vec<u64>,
}

impl RungState {
    /// Capture the state of a rung.
    pub(crate) fn of(rung: &Rung) -> Self {
        let records: Vec<(u64, f64)> = rung.records().iter().map(|&(t, l)| (t.0, l)).collect();
        let promoted = rung
            .records()
            .iter()
            .filter(|&&(t, _)| rung.is_promoted(t))
            .map(|&(t, _)| t.0)
            .collect();
        RungState { records, promoted }
    }
}

/// Snapshot of an [`Asha`](crate::Asha) scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct AshaState {
    /// The scheduler's configuration (the ladder is rebuilt from it).
    pub config: crate::AshaConfig,
    /// Per-rung history, bottom rung first.
    pub rungs: Vec<RungState>,
    /// Every trial's sampled configuration: trial ids `0..next_trial`, in
    /// order.
    pub trials: Vec<(u64, Config)>,
    /// Issued-but-unreported `(trial, rung)` jobs, sorted.
    pub outstanding: Vec<(u64, usize)>,
    /// Next trial id to assign.
    pub next_trial: u64,
    /// Number of distinct trials started.
    pub trials_started: usize,
    /// The scheduler's display name.
    pub name: String,
}

impl AshaState {
    /// Check that an [`Asha`](crate::Asha) can hold this state, which
    /// [`Asha::from_state`](crate::Asha::from_state) panics on otherwise: a
    /// valid config; `trials` exactly the ids `0..n` in order, with
    /// `next_trial == n`; every rung record, promoted id and outstanding id
    /// below `n`; and every rung, and the rung of every outstanding job, on
    /// the ladder. The codecs accept any well-formed document, so the
    /// boundaries that restore an untrusted state call this first.
    pub(crate) fn validate(&self) -> Result<(), Error> {
        let top = self.config.geometry()?.max_rung();
        let n = self.trials.len() as u64;
        if let Some((&(t, _), i)) = self.trials.iter().zip(0..).find(|&(&(t, _), i)| t != i) {
            return Err(Error::config(format!(
                "trial {t} sits at position {i} of the trial table"
            )));
        }
        if self.next_trial != n {
            return Err(Error::config(format!(
                "next_trial is {} but the trial table holds {n} trials",
                self.next_trial
            )));
        }
        let rungs = self.rungs.len();
        if let Some(max) = top.filter(|&max| rungs > max + 1) {
            return Err(Error::config(format!(
                "{rungs} rungs on a ladder whose top rung is {max}"
            )));
        }
        let unknown = |t: u64, at: String| {
            Error::config(format!("{at} names trial {t}, past the {n} trials sampled"))
        };
        for (k, rung) in self.rungs.iter().enumerate() {
            let ids = rung.records.iter().map(|&(t, _)| t);
            if let Some(t) = ids.chain(rung.promoted.iter().copied()).find(|&t| t >= n) {
                return Err(unknown(t, format!("rung {k}")));
            }
        }
        for &(t, k) in &self.outstanding {
            if t >= n {
                return Err(unknown(t, format!("an outstanding job at rung {k}")));
            }
            if k > top.unwrap_or(rungs) {
                return Err(Error::config(format!(
                    "an outstanding job of trial {t} at rung {k}, past the ladder"
                )));
            }
        }
        Ok(())
    }
}

/// Snapshot of one open bracket of a bracket loop: its ladder, trials and
/// jobs as the same [`AshaState`] an [`Asha`](crate::Asha) exports (trial
/// ids local, a barrier's closed rungs empty), and its [`Barrier`] if it
/// runs under one, as a [`SyncSha`](crate::SyncSha) bracket does.
#[derive(Debug, Clone, PartialEq)]
pub struct BracketState {
    /// The bracket's index: its trial `t` is the scheduler's
    /// `index * n + t` (SHA's bracket size `n`), or `index * 2^40 + t`.
    pub index: usize,
    /// The bracket's ladder, trials and jobs.
    pub asha: AshaState,
    /// The bracket's barrier.
    pub barrier: Option<Barrier>,
}

/// Snapshot of a [`SyncSha`](crate::SyncSha) scheduler: the brackets it
/// runs. A finished bracket is freed, so it is in no document.
#[derive(Debug, Clone, PartialEq)]
pub struct ShaState {
    /// The scheduler's configuration.
    pub config: crate::ShaConfig,
    /// Brackets opened so far, finished ones included.
    pub opened: usize,
    /// The open brackets, ascending by index.
    pub brackets: Vec<BracketState>,
    /// The scheduler's display name.
    pub name: String,
}

impl ShaState {
    /// Check that a [`SyncSha`](crate::SyncSha) can hold this state, which
    /// [`SyncSha::from_state_with_sampler`](crate::SyncSha::from_state_with_sampler)
    /// panics on otherwise: a valid config, trial ids of every bracket
    /// opened below `2^64`, and the open brackets as the loop checks them
    /// (`BracketLoop::validate`).
    pub(crate) fn validate(&self) -> Result<(), Error> {
        self.config.validate()?;
        let (opened, n) = (self.opened, self.config.num_configs as u64);
        if (opened as u64).checked_mul(n).is_none() {
            return Err(Error::config(format!("{opened} brackets of {n} trials")));
        }
        BracketLoop::validate(opened, &self.brackets, |_| self.config.bracket_config())
    }
}

/// Snapshot of an [`AsyncHyperband`](crate::AsyncHyperband) scheduler: one
/// bracket per `s`, none under a barrier, plus the round-robin budget
/// cursor. Per-bracket budgets are a pure function of the configuration
/// and are recomputed on restore.
#[derive(Debug, Clone, PartialEq)]
pub struct AsyncHyperbandState {
    /// The scheduler's configuration.
    pub config: crate::HyperbandConfig,
    /// Bracket `s` at index `s`, `s = 0` first.
    pub brackets: Vec<BracketState>,
    /// Resource issued in the current activation of the current bracket.
    pub spent: f64,
    /// Index of the bracket currently being filled.
    pub current: usize,
    /// The scheduler's display name.
    pub name: String,
}

impl AsyncHyperbandState {
    /// Check that an [`AsyncHyperband`](crate::AsyncHyperband) can hold
    /// this state: a valid config, one bracket per configured bracket, a
    /// current bracket among them, a finite `spent` of at least 0 (a NaN
    /// would never reach a budget, and the loop would never rotate), and
    /// the brackets as the loop checks them (`BracketLoop::validate`).
    pub(crate) fn validate(&self) -> Result<(), Error> {
        self.config.validate()?;
        let brackets = self.brackets.len();
        if brackets != self.config.num_brackets || self.current >= brackets {
            return Err(Error::config(format!(
                "bracket {} of {brackets} current, {} configured",
                self.current, self.config.num_brackets
            )));
        }
        if !(self.spent.is_finite() && self.spent >= 0.0) {
            let spent = self.spent;
            return Err(Error::config(format!("spent {spent} is no resource")));
        }
        let config = |s| self.config.bracket_config(s, false);
        BracketLoop::validate(brackets, &self.brackets, config)
    }
}

/// Exported state of any durable scheduler, tagged by kind.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulerState {
    /// An [`Asha`](crate::Asha) scheduler — ASHA or, when the embedded
    /// config carries [`PromotionRule::Delayed`], D-ASHA.
    Asha(AshaState),
    /// A [`SyncSha`](crate::SyncSha) scheduler.
    SyncSha(ShaState),
    /// An [`AsyncHyperband`](crate::AsyncHyperband) scheduler.
    AsyncHyperband(AsyncHyperbandState),
}

impl SchedulerState {
    /// Stable kind tag used in snapshot files and experiment metadata.
    /// `"dasha"` is an [`AshaState`] under the delayed rule: the rule
    /// travels in the tag, not in the config document, which keeps every
    /// store written before the rule became a config field readable (and
    /// everything written since, byte-identical to it). `"sha"` took over
    /// from `"sync_sha"`, whose document listed every bracket and trial
    /// ever opened; the store still reads that one.
    pub fn kind(&self) -> &'static str {
        match self {
            SchedulerState::Asha(s) => match s.config.rule {
                PromotionRule::Eager => "asha",
                PromotionRule::Delayed => "dasha",
            },
            SchedulerState::SyncSha(_) => "sha",
            SchedulerState::AsyncHyperband(_) => "async_hyperband",
        }
    }

    /// Check that the scheduler of this kind can hold the state (see
    /// `AshaState::validate`, `ShaState::validate`,
    /// `AsyncHyperbandState::validate`). An error is of kind `Config`.
    pub fn validate(&self) -> Result<(), Error> {
        match self {
            SchedulerState::Asha(s) => s.validate(),
            SchedulerState::SyncSha(s) => s.validate(),
            SchedulerState::AsyncHyperband(s) => s.validate(),
        }
    }
}

/// The one interface a durable store needs from a scheduler beyond
/// [`Scheduler`] itself: its state as plain data and its samplers' cursors.
/// A scheduler becomes durable by implementing this (plus one restore arm
/// where the store rebuilds it from a [`SchedulerState`]).
pub trait DurableScheduler: Scheduler + std::fmt::Debug {
    /// The scheduler's full mutable state.
    fn durable_state(&self) -> SchedulerState;

    /// The attached samplers' name (`"random"`, `"tpe"`, ...); a scheduler
    /// with several sampler instances uses one kind for all of them.
    fn sampler_name(&self) -> &str;

    /// Each sampler instance's serialized cursor (see
    /// [`ConfigSampler::export_cursor`](crate::ConfigSampler::export_cursor)):
    /// one entry for single-ladder schedulers, one per bracket for
    /// [`AsyncHyperband`](crate::AsyncHyperband).
    fn sampler_cursors(&self) -> Vec<Option<String>>;

    /// Restore cursors produced by [`DurableScheduler::sampler_cursors`].
    /// Extra or missing entries are ignored (an instance without a cursor
    /// stays cold).
    fn restore_sampler_cursors(&mut self, cursors: &[Option<String>]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AsyncHyperband, Decision, HyperbandConfig, Observation, ShaConfig, SyncSha};
    use asha_space::{Scale, SearchSpace};
    use rand::SeedableRng;

    fn space() -> SearchSpace {
        SearchSpace::builder()
            .continuous("x", 0.0, 1.0, Scale::Linear)
            .build()
            .unwrap()
    }

    /// A growing SHA mid-run: bracket 0 at rung 1 with one survivor issued
    /// and two queued, bracket 1 with one of its nine trials issued.
    fn mid_run() -> ShaState {
        let config = ShaConfig::new(9, 1.0, 9.0, 3.0).growing();
        let mut sha = SyncSha::new(space(), config);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let jobs: Vec<_> = (0..10)
            .filter_map(|_| sha.suggest(&mut rng).job())
            .collect();
        for job in &jobs[..9] {
            sha.observe(Observation::for_job(job, job.trial.0 as f64));
        }
        assert!(matches!(sha.suggest(&mut rng), Decision::Run(j) if j.rung == 1));
        sha.export_state()
    }

    fn barrier(s: &mut ShaState) -> &mut Barrier {
        s.brackets[0]
            .barrier
            .as_mut()
            .expect("a SHA bracket has a barrier")
    }

    fn refused(tamper: fn(&mut ShaState), why: &str) {
        let mut state = mid_run();
        tamper(&mut state);
        let err = SchedulerState::SyncSha(state).validate().unwrap_err();
        assert_eq!(err.kind(), crate::ErrorKind::Config, "{err}");
        assert!(err.to_string().contains(why), "{err}");
    }

    #[test]
    fn a_mid_run_sha_state_validates_and_round_trips() {
        let state = mid_run();
        let (b0, b1) = (&state.brackets[0], &state.brackets[1]);
        let barrier = b0.barrier.as_ref().unwrap();
        assert_eq!((state.opened, barrier.rung, barrier.queue.len()), (2, 1, 2));
        assert_eq!((b1.index, b1.asha.outstanding.len()), (1, 1));
        SchedulerState::SyncSha(state.clone()).validate().unwrap();
        let sampler = Box::new(crate::RandomSampler::new());
        let restored = SyncSha::from_state_with_sampler(space(), state.clone(), sampler);
        assert_eq!(restored.export_state(), state);
    }

    #[test]
    fn sha_bracket_past_the_brackets_opened_is_refused() {
        refused(|s| s.brackets[1].index = 2, "an index");
    }

    #[test]
    fn sha_brackets_out_of_order_are_refused() {
        refused(|s| s.brackets.swap(0, 1), "an index");
    }

    #[test]
    fn sha_brackets_opened_past_the_trial_ids_are_refused() {
        refused(|s| s.opened = usize::MAX, "brackets of 9 trials");
    }

    #[test]
    fn sha_bracket_of_a_config_the_loop_does_not_open_is_refused() {
        refused(|s| s.brackets[0].asha.config.max_trials = None, "config");
        refused(|s| s.brackets[1].asha.config.stop_rate = 1, "config");
        refused(|s| s.brackets[1].barrier = None, "barrier");
    }

    #[test]
    fn sha_job_outstanding_off_the_barrier_rung_is_refused() {
        refused(
            |s| s.brackets[0].asha.outstanding[0].1 = 0,
            "off the barrier",
        );
    }

    #[test]
    fn sha_queued_trial_never_sampled_is_refused() {
        refused(|s| barrier(s).queue[0] = 9, "off the barrier");
    }

    #[test]
    fn sha_trial_both_queued_and_issued_is_refused() {
        let twice = |s: &mut ShaState| barrier(s).queue[0] = s.brackets[0].asha.outstanding[0].0;
        refused(twice, "named twice");
    }

    #[test]
    fn sha_rung_past_the_ladder_is_refused() {
        refused(|s| barrier(s).rung = 3, "off the barrier");
    }

    #[test]
    fn sha_record_below_the_barrier_rung_is_refused() {
        refused(
            |s| s.brackets[0].asha.rungs[0].records.push((4, 0.5)),
            "off the barrier",
        );
    }

    #[test]
    fn sha_trials_started_other_than_sampled_are_refused() {
        refused(
            |s| s.brackets[1].asha.trials_started = 2,
            "no open bracket reaches",
        );
    }

    #[test]
    fn sha_bracket_opened_before_the_last_sampled_all_is_refused() {
        let unsampled = |s: &mut ShaState| {
            let b = &mut s.brackets[0];
            b.barrier = Some(Barrier::default());
            b.asha.outstanding = vec![(0, 0)];
            b.asha.trials.pop();
            (b.asha.next_trial, b.asha.trials_started) = (8, 8);
        };
        refused(unsampled, "no open bracket reaches");
    }

    #[test]
    fn sha_finished_bracket_left_open_is_refused() {
        let done = |s: &mut ShaState| {
            let b = &mut s.brackets[0];
            b.asha.outstanding.clear();
            b.barrier.as_mut().unwrap().queue.clear();
        };
        refused(done, "no open bracket reaches");
    }

    fn hyperband() -> AsyncHyperbandState {
        AsyncHyperband::new(space(), HyperbandConfig::new(1.0, 9.0, 3.0)).export_state()
    }

    #[test]
    fn async_hyperband_spent_that_is_no_resource_is_refused() {
        for spent in [f64::NAN, -1.0, f64::INFINITY] {
            let state = AsyncHyperbandState {
                spent,
                ..hyperband()
            };
            let err = SchedulerState::AsyncHyperband(state)
                .validate()
                .unwrap_err();
            assert_eq!(err.kind(), crate::ErrorKind::Config, "{err}");
        }
    }

    #[test]
    fn async_hyperband_bracket_of_another_stop_rate_or_under_a_barrier_is_refused() {
        let mut state = hyperband();
        SchedulerState::AsyncHyperband(state.clone())
            .validate()
            .unwrap();
        let (b0, b1) = state.brackets.split_at_mut(1);
        std::mem::swap(&mut b0[0].asha, &mut b1[0].asha);
        let err = SchedulerState::AsyncHyperband(state)
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("bracket 0"), "{err}");
        let mut state = hyperband();
        state.brackets[2].barrier = Some(Barrier::default());
        let err = SchedulerState::AsyncHyperband(state)
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("bracket 2"), "{err}");
    }
}
