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

use crate::error::Error;
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

/// Snapshot of one synchronous SHA bracket: the live state of its barrier
/// (see [`SyncSha`](crate::SyncSha)).
#[derive(Debug, Clone, PartialEq)]
pub struct BracketState {
    /// Base-rung configurations not yet sampled.
    pub remaining_to_sample: usize,
    /// Survivors queued for issue at the current rung (LIFO pop order, as
    /// stored by the live bracket).
    pub queue: Vec<(u64, Config)>,
    /// Jobs issued at the current rung and not yet reported.
    pub outstanding: usize,
    /// Trials currently issued and unreported, sorted by trial id.
    pub issued: Vec<u64>,
    /// Results gathered at the current rung, in arrival order.
    pub results: Vec<(u64, f64)>,
    /// Current rung index.
    pub rung: usize,
    /// Whether the bracket has run to completion.
    pub done: bool,
}

/// Snapshot of a [`SyncSha`](crate::SyncSha) scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncShaState {
    /// The scheduler's configuration.
    pub config: crate::ShaConfig,
    /// Every bracket started so far, in creation order.
    pub brackets: Vec<BracketState>,
    /// `(trial, bracket, config)` for every sampled trial, sorted by trial
    /// id.
    pub trial_meta: Vec<(u64, usize, Config)>,
    /// Next trial id to assign.
    pub next_trial: u64,
    /// The scheduler's display name.
    pub name: String,
}

impl SyncShaState {
    /// Check that a [`SyncSha`](crate::SyncSha) can hold this state, which
    /// [`SyncSha::from_state_with_sampler`](crate::SyncSha::from_state_with_sampler)
    /// panics on otherwise: a valid config; `trial_meta` exactly the ids
    /// `0..next_trial` in order, trial `t` under bracket `t / n`, every
    /// bracket but the last fully sampled; and per bracket, at most `n`
    /// trials, a rung on the ladder, `outstanding == issued.len()`, its
    /// queued, issued and result trials distinct and its own, and `done`
    /// exactly when nothing is left to sample, issue or report (a bracket
    /// samples only at rung 0, and queues only above it).
    pub(crate) fn validate(&self) -> Result<(), Error> {
        self.config.validate()?;
        let (n, rungs) = (self.config.num_configs, self.config.num_rungs());
        let mut sampled = 0;
        for (b, bracket) in self.brackets.iter().enumerate() {
            let own = n.saturating_sub(bracket.remaining_to_sample);
            let first = (b * n) as u64;
            let mut seen = std::collections::BTreeSet::new();
            let queued = bracket.queue.iter().map(|(t, _)| t);
            let results = bracket.results.iter().map(|(t, _)| t);
            let mut ids = queued.chain(&bracket.issued).chain(results);
            let idle = own == n && bracket.queue.is_empty() && bracket.issued.is_empty();
            let problem = if bracket.remaining_to_sample > n {
                "more trials left than it holds"
            } else if own < n && b + 1 < self.brackets.len() {
                "a later bracket opened before it sampled all its trials"
            } else if bracket.rung >= rungs {
                "a rung past the ladder"
            } else if bracket.outstanding != bracket.issued.len() {
                "an outstanding count that is not the issued trials'"
            } else if !ids.all(|&t| (first..first + own as u64).contains(&t) && seen.insert(t)) {
                "a queued, issued or result trial not its own, or named twice"
            } else if (own < n && bracket.rung > 0)
                || (bracket.rung == 0 && !bracket.queue.is_empty())
                || bracket.done != idle
                || (bracket.done && !bracket.results.is_empty())
            {
                "a rung, queue and done flag no bracket reaches"
            } else {
                sampled += own;
                continue;
            };
            return Err(Error::config(format!("bracket {b}: {problem}")));
        }
        for (i, &(t, b, _)) in (0..).zip(&self.trial_meta) {
            if t != i || b != i as usize / n {
                return Err(Error::config(format!(
                    "trial {t} of bracket {b} sits at position {i} of the trial table"
                )));
            }
        }
        if self.trial_meta.len() != sampled || self.next_trial != sampled as u64 {
            return Err(Error::config(format!(
                "next_trial is {} for {} trials in the table, {sampled} sampled",
                self.next_trial,
                self.trial_meta.len()
            )));
        }
        Ok(())
    }
}

/// Snapshot of an [`AsyncHyperband`](crate::AsyncHyperband) scheduler: one
/// [`AshaState`] per bracket plus the round-robin budget cursor. Per-bracket
/// budgets are a pure function of the configuration and are recomputed on
/// restore.
#[derive(Debug, Clone, PartialEq)]
pub struct AsyncHyperbandState {
    /// The scheduler's configuration.
    pub config: crate::HyperbandConfig,
    /// Per-bracket ASHA state, `s = 0` first.
    pub brackets: Vec<AshaState>,
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
    /// current bracket among them, and every bracket an ASHA state
    /// ([`AshaState::validate`]).
    pub(crate) fn validate(&self) -> Result<(), Error> {
        self.config.validate()?;
        let brackets = self.brackets.len();
        if brackets != self.config.num_brackets || self.current >= brackets {
            return Err(Error::config(format!(
                "bracket {} of {brackets} current, {} configured",
                self.current, self.config.num_brackets
            )));
        }
        for (s, bracket) in self.brackets.iter().enumerate() {
            bracket
                .validate()
                .map_err(|e| e.context(format!("bracket {s}")))?;
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
    /// A [`SyncSha`](crate::SyncSha) scheduler.
    SyncSha(SyncShaState),
    /// An [`AsyncHyperband`](crate::AsyncHyperband) scheduler.
    AsyncHyperband(AsyncHyperbandState),
}

impl SchedulerState {
    /// Stable kind tag used in snapshot files and experiment metadata.
    /// `"dasha"` is an [`AshaState`] under the delayed rule: the rule
    /// travels in the tag, not in the config document, which keeps every
    /// store written before the rule became a config field readable (and
    /// everything written since, byte-identical to it).
    pub fn kind(&self) -> &'static str {
        match self {
            SchedulerState::Asha(s) => match s.config.rule {
                PromotionRule::Eager => "asha",
                PromotionRule::Delayed => "dasha",
            },
            SchedulerState::SyncSha(_) => "sync_sha",
            SchedulerState::AsyncHyperband(_) => "async_hyperband",
        }
    }

    /// Check that the scheduler of this kind can hold the state (see
    /// `AshaState::validate`, `SyncShaState::validate`,
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
    use crate::{Decision, Observation, ShaConfig, SyncSha};
    use asha_space::{Scale, SearchSpace};
    use rand::SeedableRng;

    /// A growing SHA mid-run: bracket 0 at rung 1 with one survivor issued
    /// and two queued, bracket 1 with one of its nine trials issued.
    fn mid_run() -> (SearchSpace, SyncShaState) {
        let space = SearchSpace::builder()
            .continuous("x", 0.0, 1.0, Scale::Linear)
            .build()
            .unwrap();
        let config = ShaConfig::new(9, 1.0, 9.0, 3.0).growing();
        let mut sha = SyncSha::new(space.clone(), config);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let jobs: Vec<_> = (0..10)
            .filter_map(|_| sha.suggest(&mut rng).job())
            .collect();
        for job in &jobs[..9] {
            sha.observe(Observation::for_job(job, job.trial.0 as f64));
        }
        assert!(matches!(sha.suggest(&mut rng), Decision::Run(j) if j.rung == 1));
        (space, sha.export_state())
    }

    fn refused(tamper: fn(&mut SyncShaState)) {
        let (_, mut state) = mid_run();
        tamper(&mut state);
        let err = SchedulerState::SyncSha(state).validate().unwrap_err();
        assert_eq!(err.kind(), crate::ErrorKind::Config, "{err}");
    }

    #[test]
    fn a_mid_run_sha_state_validates_and_round_trips() {
        let (space, state) = mid_run();
        assert_eq!(state.brackets[0].queue.len(), 2);
        assert_eq!((state.brackets[1].issued.len(), state.next_trial), (1, 10));
        SchedulerState::SyncSha(state.clone()).validate().unwrap();
        let sampler = Box::new(crate::RandomSampler::new());
        let restored = SyncSha::from_state_with_sampler(space, state.clone(), sampler);
        assert_eq!(restored.export_state(), state);
    }

    #[test]
    fn sha_trial_filed_under_a_bracket_out_of_range_is_refused() {
        refused(|s| s.trial_meta[3].1 = 5);
    }

    #[test]
    fn sha_outstanding_count_other_than_the_issued_trials_is_refused() {
        refused(|s| s.brackets[1].outstanding = 2);
    }

    #[test]
    fn sha_issued_trial_of_another_bracket_is_refused() {
        refused(|s| s.brackets[0].issued = vec![9]);
    }

    #[test]
    fn sha_queued_trial_never_sampled_is_refused() {
        refused(|s| s.brackets[0].queue[0].0 = 50);
    }

    #[test]
    fn sha_rung_past_the_ladder_is_refused() {
        refused(|s| s.brackets[0].rung = 3);
    }

    #[test]
    fn sha_more_trials_left_than_a_bracket_holds_is_refused() {
        refused(|s| s.brackets[1].remaining_to_sample = 10);
    }

    #[test]
    fn sha_next_trial_below_a_sampled_trial_is_refused() {
        refused(|s| s.next_trial = 5);
    }

    #[test]
    fn sha_bracket_opened_before_the_last_sampled_all_is_refused() {
        refused(|s| s.brackets[0].remaining_to_sample = 1);
    }

    #[test]
    fn sha_done_bracket_with_work_left_is_refused() {
        refused(|s| s.brackets[0].done = true);
    }

    #[test]
    fn sha_trial_both_queued_and_issued_is_refused() {
        refused(|s| {
            let issued = s.brackets[0].issued[0];
            s.brackets[0].queue[0].0 = issued;
        });
    }
}
