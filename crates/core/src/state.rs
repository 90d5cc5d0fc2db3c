//! Plain-data snapshots of scheduler state, for durable persistence.
//!
//! Each scheduler (`Asha`, `BracketLoop`) can export its full
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

use std::collections::BTreeSet;

use asha_space::Config;

use crate::asha::Barrier;
use crate::bracket_loop::{BracketLoopConfig, Opening};
use crate::error::Error;
use crate::fx::FxHashSet;
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
///
/// The trial table is the one trial count: its length is both the next
/// trial id and the number of trials started. The store's document still
/// carries `next_trial` and `trials_started` keys for readers of older
/// stores; it writes `trials.len()` under both and refuses a document
/// whose keys disagree with its table.
#[derive(Debug, Clone, PartialEq)]
pub struct AshaState {
    /// The scheduler's configuration (the ladder is rebuilt from it).
    pub config: crate::AshaConfig,
    /// Per-rung history, bottom rung first.
    pub rungs: Vec<RungState>,
    /// Every trial's sampled configuration: trial ids `0..len`, in order.
    pub trials: Vec<(u64, Config)>,
    /// Issued-but-unreported `(trial, rung)` jobs, sorted.
    pub outstanding: Vec<(u64, usize)>,
    /// The scheduler's display name.
    pub name: String,
}

impl AshaState {
    /// Check that an [`Asha`](crate::Asha) can hold this state, which
    /// [`Asha::from_state`](crate::Asha::from_state) panics on otherwise, or
    /// would not export again as it was: a valid config; `trials` exactly
    /// the ids `0..n` in order; every rung record, promoted id and
    /// outstanding id below `n`; every rung, and the rung of every
    /// outstanding job, on the ladder; no trial recorded or promoted twice
    /// in one rung, none promoted that the rung did not record, and none
    /// promoted out of a finite ladder's top rung (which keeps no promotion
    /// index). The codecs accept any well-formed document, so the
    /// boundaries that restore an untrusted state call this first.
    pub(crate) fn validate(&self) -> Result<(), Error> {
        let top = self.config.geometry()?.max_rung();
        let n = self.trials.len() as u64;
        if let Some((&(t, _), i)) = self.trials.iter().zip(0..).find(|&(&(t, _), i)| t != i) {
            return Err(Error::config(format!(
                "trial {t} sits at position {i} of the trial table"
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
            let (mut recorded, mut promoted) = (FxHashSet::default(), FxHashSet::default());
            if let Some(&(t, _)) = rung.records.iter().find(|&&(t, _)| !recorded.insert(t)) {
                return Err(Error::config(format!("rung {k} records trial {t} twice")));
            }
            let stray =
                |&&t: &&u64| top == Some(k) || !recorded.contains(&t) || !promoted.insert(t);
            if let Some(t) = rung.promoted.iter().find(stray) {
                return Err(Error::config(format!(
                    "rung {k} promotes trial {t} twice, unrecorded or at the top"
                )));
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
/// runs under one, as a SHA or Hyperband bracket does.
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

/// Snapshot of a [`BracketLoop`](crate::BracketLoop): the brackets it has
/// opened, the open ones (a finished bracket is freed, so it is in no
/// document), and asynchronous Hyperband's turn. Per-bracket budgets are a
/// pure function of the configuration and are recomputed on restore.
#[derive(Debug, Clone, PartialEq)]
pub struct BracketLoopState {
    /// The scheduler's configuration.
    pub config: BracketLoopConfig,
    /// Brackets opened so far, finished ones included.
    pub opened: usize,
    /// The open brackets, ascending by index.
    pub brackets: Vec<BracketState>,
    /// Resource the current bracket has issued in its turn (asynchronous
    /// Hyperband; 0 otherwise).
    pub spent: f64,
    /// The bracket whose turn it is (asynchronous Hyperband; 0 otherwise).
    pub current: usize,
    /// The scheduler's display name.
    pub name: String,
}

impl BracketLoopState {
    /// Check that a [`BracketLoop`](crate::BracketLoop) can hold this
    /// state, which [`BracketLoop::from_state`](crate::BracketLoop::from_state)
    /// panics on otherwise: a valid config; trial ids of every bracket
    /// opened below `2^64`; Hyperband's one generation open at most;
    /// asynchronous Hyperband's one bracket per `s`, a current one among
    /// them and a finite `spent` of at least 0 (a NaN would never reach a
    /// budget, and the loop would never rotate), and no turn elsewhere.
    ///
    /// The open brackets, ascending, each have an index below `opened`, the
    /// config the loop opens there and a barrier exactly if it caps its
    /// trials, and an `Asha` state (`AshaState::validate`). A barrier runs
    /// a rung on the ladder, the only one with records or jobs, with no
    /// promotion; its queued, outstanding and reported trials are sampled
    /// and distinct; only the last bracket has trials left to sample, at
    /// rung 0; survivors queue above rung 0; and work is left, for a
    /// finished bracket is freed.
    pub(crate) fn validate(&self) -> Result<(), Error> {
        self.config.validate()?;
        let (opened, stride) = (self.opened, self.config.stride());
        if (opened as u64).checked_mul(stride).is_none() {
            return Err(Error::config(format!(
                "{opened} brackets of {stride} trials"
            )));
        }
        let (open, spent, current) = (self.brackets.len(), self.spent, self.current);
        let turn = match self.config.opening {
            Opening::AsyncHyperband { num_brackets: k } => {
                (open, opened) == (k, k) && current < k && spent.is_finite() && spent >= 0.0
            }
            Opening::Hyperband { .. } if open > 1 => {
                return Err(Error::config(format!("{open} generations open at once")));
            }
            _ => (spent, current) == (0.0, 0),
        };
        if !turn {
            return Err(Error::config(format!(
                "bracket {current} of {open} open ({opened} opened) has spent {spent}"
            )));
        }
        let mut next = 0;
        for bracket in &self.brackets {
            let (b, state) = (bracket.index, &bracket.asha);
            let refuse = |why| Err(Error::config(format!("bracket {b} of {opened}: {why}")));
            let opens =
                (next..opened).contains(&b) && state.config == self.config.bracket_config(b);
            if !opens || bracket.barrier.is_some() != state.config.max_trials.is_some() {
                return refuse("an index, config or barrier the loop does not open");
            }
            let at = format!("bracket {b}");
            state.validate().map_err(|e| e.context(at))?;
            next = b + 1;
            let Some(Barrier { rung, queue }) = &bracket.barrier else {
                continue;
            };
            let rung = *rung;
            let (n, sampled) = (state.config.max_trials.unwrap_or(0), state.trials.len());
            let top = state.config.geometry()?.max_rung().unwrap_or(0);
            let records = state.rungs.get(rung).map_or(&[][..], |r| &r.records[..]);
            let jobs = state.outstanding.iter().map(|&(t, _)| t);
            let mut ids = (queue.iter().copied().chain(jobs)).chain(records.iter().map(|r| r.0));
            let mut seen = BTreeSet::new();
            let stray = |(k, r): (usize, &RungState)| {
                !r.promoted.is_empty() || (k != rung && !r.records.is_empty())
            };
            if rung > top
                || state.rungs.iter().enumerate().any(stray)
                || state.outstanding.iter().any(|&(_, k)| k != rung)
                || !ids.all(|t| t < sampled as u64 && seen.insert(t))
            {
                return refuse("a rung, record or job off the barrier, or a trial named twice");
            }
            if sampled > n
                || (sampled < n && (rung > 0 || next < opened))
                || (rung == 0 && !queue.is_empty())
                || (sampled == n && queue.is_empty() && state.outstanding.is_empty())
            {
                return refuse("trials sampled, a rung and a queue no open bracket reaches");
            }
        }
        Ok(())
    }
}

/// Exported state of any durable scheduler, tagged by kind.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulerState {
    /// An [`Asha`](crate::Asha) scheduler — ASHA or, when the embedded
    /// config carries [`PromotionRule::Delayed`], D-ASHA.
    Asha(AshaState),
    /// A [`BracketLoop`](crate::BracketLoop): SHA, Hyperband or
    /// asynchronous Hyperband, by its config's opening.
    BracketLoop(BracketLoopState),
}

impl SchedulerState {
    /// Stable kind tag used in snapshot files and experiment metadata.
    /// `"dasha"` is an [`AshaState`] under the delayed rule: the rule
    /// travels in the tag, not in the config document, which keeps every
    /// store written before the rule became a config field readable (and
    /// everything written since, byte-identical to it). A bracket loop's
    /// opening travels in the tag the same way: `"sha"`, `"hyperband"` or
    /// `"async_hyperband"`. `"sha"` took over from `"sync_sha"`, whose
    /// document listed every bracket and trial ever opened; the store still
    /// reads that one.
    pub fn kind(&self) -> &'static str {
        match self {
            SchedulerState::Asha(s) => match s.config.rule {
                PromotionRule::Eager => "asha",
                PromotionRule::Delayed => "dasha",
            },
            SchedulerState::BracketLoop(s) => match s.config.opening {
                Opening::Sha { .. } => "sha",
                Opening::Hyperband { .. } => "hyperband",
                Opening::AsyncHyperband { .. } => "async_hyperband",
            },
        }
    }

    /// Check that the scheduler of this kind can hold the state (see
    /// `AshaState::validate`, `BracketLoopState::validate`). An error is of
    /// kind `Config`.
    pub fn validate(&self) -> Result<(), Error> {
        match self {
            SchedulerState::Asha(s) => s.validate(),
            SchedulerState::BracketLoop(s) => s.validate(),
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
    /// one entry for single-sampler schedulers, one per bracket for
    /// asynchronous Hyperband.
    fn sampler_cursors(&self) -> Vec<Option<String>>;

    /// Restore cursors produced by [`DurableScheduler::sampler_cursors`].
    /// Extra or missing entries are ignored (an instance without a cursor
    /// stays cold).
    fn restore_sampler_cursors(&mut self, cursors: &[Option<String>]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BracketLoop, Decision, Observation, Scheduler};
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
    fn mid_run() -> BracketLoopState {
        let config = BracketLoopConfig::sha(9, 1.0, 9.0, 3.0).growing();
        let mut sha = BracketLoop::new(space(), config);
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

    /// A synchronous Hyperband on `(1, 9, 3)` run serially into its second
    /// generation, bracket 1 at `s = 1`.
    fn hyperband_mid_run() -> BracketLoopState {
        let config = BracketLoopConfig::hyperband(1.0, 9.0, 3.0);
        let mut hb = BracketLoop::new(space(), config);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        while let Decision::Run(job) = hb.suggest(&mut rng) {
            hb.observe(Observation::for_job(&job, job.trial.0 as f64));
            if job.bracket == 1 {
                break;
            }
        }
        hb.export_state()
    }

    fn barrier(s: &mut BracketLoopState) -> &mut Barrier {
        s.brackets[0]
            .barrier
            .as_mut()
            .expect("a SHA bracket has a barrier")
    }

    fn refused_from(
        state: fn() -> BracketLoopState,
        tamper: impl FnOnce(&mut BracketLoopState),
        why: &str,
    ) {
        let mut state = state();
        tamper(&mut state);
        let err = SchedulerState::BracketLoop(state).validate().unwrap_err();
        assert_eq!(err.kind(), crate::ErrorKind::Config, "{err}");
        assert!(err.to_string().contains(why), "{err}");
    }

    fn refused(tamper: fn(&mut BracketLoopState), why: &str) {
        refused_from(mid_run, tamper, why);
    }

    #[test]
    fn a_mid_run_sha_state_validates_and_round_trips() {
        let state = mid_run();
        let (b0, b1) = (&state.brackets[0], &state.brackets[1]);
        let barrier = b0.barrier.as_ref().unwrap();
        assert_eq!((state.opened, barrier.rung, barrier.queue.len()), (2, 1, 2));
        assert_eq!((b1.index, b1.asha.outstanding.len()), (1, 1));
        SchedulerState::BracketLoop(state.clone())
            .validate()
            .unwrap();
        let fresh = |_| Box::new(crate::RandomSampler::new()) as Box<dyn crate::ConfigSampler>;
        let restored = BracketLoop::from_state(space(), state.clone(), fresh);
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
    fn sha_with_a_turn_is_refused() {
        refused(|s| s.spent = 1.0, "has spent 1");
        refused(|s| s.current = 1, "bracket 1 of 2");
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
        let twice = |s: &mut BracketLoopState| {
            barrier(s).queue[0] = s.brackets[0].asha.outstanding[0].0;
        };
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

    /// An `Asha` mid-run on `(1, 9, 3)`: rung 0 has promoted trial 0 to
    /// rung 1, where trials 0, 1 and 2 reached the top rung 2.
    fn asha_mid_run() -> AshaState {
        let mut asha = crate::Asha::new(space(), crate::AshaConfig::new(1.0, 9.0, 3.0));
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        for _ in 0..40 {
            if let Decision::Run(job) = asha.suggest(&mut rng) {
                asha.observe(Observation::for_job(&job, job.trial.0 as f64));
            }
        }
        asha.export_state()
    }

    #[test]
    fn an_asha_state_that_would_not_export_as_it_was_is_refused() {
        let state = asha_mid_run();
        assert!(!state.rungs[1].promoted.is_empty() && !state.rungs[2].records.is_empty());
        SchedulerState::Asha(state.clone()).validate().unwrap();
        type Tamper = fn(&mut [RungState]);
        let tampers: [(Tamper, &str); 4] = [
            (|r| r[0].records.push(r[0].records[0]), "records trial"),
            (|r| r[0].promoted.push(r[0].promoted[0]), "promotes trial"),
            (
                |r| r[1].promoted.push(r[0].records.last().unwrap().0),
                "promotes trial",
            ),
            (|r| r[2].promoted.push(r[2].records[0].0), "promotes trial"),
        ];
        for (tamper, why) in tampers {
            let mut state = state.clone();
            tamper(&mut state.rungs);
            let err = SchedulerState::Asha(state).validate().unwrap_err();
            assert_eq!(err.kind(), crate::ErrorKind::Config, "{err}");
            assert!(err.to_string().contains(why), "{err}");
        }
    }

    #[test]
    fn sha_bracket_opened_before_the_last_sampled_all_is_refused() {
        let unsampled = |s: &mut BracketLoopState| {
            let b = &mut s.brackets[0];
            b.barrier = Some(Barrier::default());
            b.asha.outstanding = vec![(0, 0)];
            b.asha.trials.pop();
        };
        refused(unsampled, "no open bracket reaches");
    }

    #[test]
    fn sha_finished_bracket_left_open_is_refused() {
        let done = |s: &mut BracketLoopState| {
            let b = &mut s.brackets[0];
            b.asha.outstanding.clear();
            b.barrier.as_mut().unwrap().queue.clear();
        };
        refused(done, "no open bracket reaches");
    }

    #[test]
    fn a_mid_run_hyperband_state_validates_and_round_trips() {
        let state = hyperband_mid_run();
        assert_eq!((state.opened, state.brackets.len()), (2, 1));
        assert_eq!(state.brackets[0].asha.config.stop_rate, 1);
        SchedulerState::BracketLoop(state.clone())
            .validate()
            .unwrap();
        let fresh = |_| Box::new(crate::RandomSampler::new()) as Box<dyn crate::ConfigSampler>;
        let restored = BracketLoop::from_state(space(), state.clone(), fresh);
        assert_eq!(restored.export_state(), state);
    }

    #[test]
    fn hyperband_with_two_generations_open_is_refused() {
        let two = |s: &mut BracketLoopState| {
            let mut next = s.brackets[0].clone();
            next.index = 2;
            s.brackets.push(next);
            s.opened = 3;
        };
        refused_from(hyperband_mid_run, two, "2 generations open at once");
    }

    #[test]
    fn hyperband_bracket_at_a_rate_other_than_its_generations_is_refused() {
        // Generation 1 is bracket `s = 1`; generation 4 wraps to `s = 1`.
        let wrapped = |s: &mut BracketLoopState| {
            (s.brackets[0].index, s.opened) = (4, 5);
        };
        let mut state = hyperband_mid_run();
        wrapped(&mut state);
        SchedulerState::BracketLoop(state).validate().unwrap();
        let at = |s: &mut BracketLoopState| {
            (s.brackets[0].index, s.opened) = (3, 4);
        };
        refused_from(hyperband_mid_run, at, "config");
    }

    #[test]
    fn hyperband_generations_past_the_trial_ids_are_refused() {
        let past = |s: &mut BracketLoopState| s.opened = 1 << 24;
        refused_from(
            hyperband_mid_run,
            past,
            "16777216 brackets of 1099511627776 trials",
        );
    }

    fn async_hyperband() -> BracketLoopState {
        let config = BracketLoopConfig::async_hyperband(1.0, 9.0, 3.0);
        BracketLoop::new(space(), config).export_state()
    }

    #[test]
    fn async_hyperband_spent_that_is_no_resource_is_refused() {
        for spent in [f64::NAN, -1.0, f64::INFINITY] {
            let state = BracketLoopState {
                spent,
                ..async_hyperband()
            };
            let err = SchedulerState::BracketLoop(state).validate().unwrap_err();
            assert_eq!(err.kind(), crate::ErrorKind::Config, "{err}");
        }
    }

    #[test]
    fn async_hyperband_bracket_of_another_stop_rate_or_under_a_barrier_is_refused() {
        let mut state = async_hyperband();
        SchedulerState::BracketLoop(state.clone())
            .validate()
            .unwrap();
        let (b0, b1) = state.brackets.split_at_mut(1);
        std::mem::swap(&mut b0[0].asha, &mut b1[0].asha);
        let err = SchedulerState::BracketLoop(state).validate().unwrap_err();
        assert!(err.to_string().contains("bracket 0"), "{err}");
        let mut state = async_hyperband();
        state.brackets[2].barrier = Some(Barrier::default());
        let err = SchedulerState::BracketLoop(state).validate().unwrap_err();
        assert!(err.to_string().contains("bracket 2"), "{err}");
    }
}
