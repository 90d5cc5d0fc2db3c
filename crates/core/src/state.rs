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
use crate::rung::{PromotionRule, Rung, RungLadder};
use crate::scheduler::{Scheduler, TrialId};

/// Snapshot of one [`Rung`]: every recorded `(trial, loss)` in arrival
/// order, plus which trials have been promoted out.
///
/// Losses are stored post-normalization (the rung records NaN as
/// `+inf`), so replaying `records` through [`Rung::record`] reproduces the
/// rung exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct RungState {
    /// `(trial, loss)` in arrival order.
    pub records: Vec<(u64, f64)>,
    /// Trials promoted out of this rung, in arrival order.
    pub promoted: Vec<u64>,
}

impl RungState {
    /// Capture the state of a rung.
    pub fn of(rung: &Rung) -> Self {
        let records: Vec<(u64, f64)> = rung.records().iter().map(|&(t, l)| (t.0, l)).collect();
        let promoted = rung
            .records()
            .iter()
            .filter(|&&(t, _)| rung.is_promoted(t))
            .map(|&(t, _)| t.0)
            .collect();
        RungState { records, promoted }
    }

    /// Replay this rung's history into rung `k` of a fresh ladder.
    pub fn replay_into(&self, ladder: &mut RungLadder, k: usize) {
        for &(trial, loss) in &self.records {
            ladder.record(k, TrialId(trial), loss);
        }
        for &trial in &self.promoted {
            ladder.mark_promoted(k, TrialId(trial));
        }
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
    pub fn validate(&self) -> Result<(), Error> {
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

/// Snapshot of one synchronous SHA bracket (private to `SyncSha`; exported
/// here as plain data).
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
    pub fn validate(&self) -> Result<(), Error> {
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
    /// [`AshaState::validate`], [`AsyncHyperbandState::validate`]; a
    /// `SyncSha` state's config). An error is of kind `Config`.
    pub fn validate(&self) -> Result<(), Error> {
        match self {
            SchedulerState::Asha(s) => s.validate(),
            SchedulerState::SyncSha(s) => s.config.validate(),
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
