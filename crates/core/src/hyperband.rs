//! The bracket loop: SHA, Hyperband and asynchronous Hyperband.
//!
//! Hyperband runs SHA brackets with different early-stopping rates `s` to
//! hedge over the choice of `s`. The asynchronous variant of Section 3.2
//! "loops through brackets of ASHA sequentially as is done in the original
//! Hyperband", switching brackets "when a budget corresponding to a
//! hypothetical bracket of SHA would be depleted". Growing SHA (Falkner et
//! al.) loops over identical brackets. All three are one [`BracketLoop`]
//! over [`Bracket`]s, and differ only in which bracket opens next and when.

use std::collections::{BTreeMap, BTreeSet};

use asha_space::SearchSpace;

use crate::asha::{display_name, AshaConfig, Barrier, Bracket, Engine};
use crate::budget::{self, min_configs, Geometry};
use crate::error::Error;
use crate::sampler::{ConfigSampler, RandomSampler};
use crate::scheduler::{Decision, Observation, TrialId};
use crate::state::{AsyncHyperbandState, BracketState, RungState};

/// Trial-id stride separating the namespaces of different Hyperband
/// brackets, so that an observation routes back to the bracket that issued
/// it without a lookup table.
const BRACKET_STRIDE: u64 = 1 << 40;
/// Configuration shared by [`Hyperband`] and [`AsyncHyperband`].
#[derive(Debug, Clone, PartialEq)]
pub struct HyperbandConfig {
    /// Minimum resource `r` (the most aggressive bracket's base allocation).
    pub min_resource: f64,
    /// Maximum resource `R`.
    pub max_resource: f64,
    /// Reduction factor `eta >= 2`.
    pub reduction_factor: f64,
    /// Number of brackets to loop through (early-stopping rates
    /// `s = 0..num_brackets`). Defaults to `floor(log_eta(R/r)) + 1`, i.e.
    /// every bracket from the most aggressive to "no early stopping".
    pub num_brackets: usize,
}

impl HyperbandConfig {
    /// Standard configuration covering every early-stopping rate.
    ///
    /// # Panics
    ///
    /// Panics if `eta < 2` or the resources are invalid.
    pub fn new(min_resource: f64, max_resource: f64, eta: f64) -> Self {
        let num_brackets =
            Geometry::finite_or_panic(min_resource, max_resource, eta, 0).num_rungs();
        HyperbandConfig {
            min_resource,
            max_resource,
            reduction_factor: eta,
            num_brackets,
        }
    }

    /// Restrict to the first `num_brackets` early-stopping rates
    /// (`s = 0..num_brackets`). The paper's Figure 5 uses brackets
    /// `s = 0, 1, 2, 3`.
    pub fn with_brackets(mut self, num_brackets: usize) -> Self {
        assert!(num_brackets >= 1, "need at least one bracket");
        self.num_brackets = num_brackets;
        self
    }

    /// `floor(log_eta(R/r))`, the largest early-stopping rate a bracket of
    /// this config can have.
    fn s_max(&self) -> Result<usize, Error> {
        let widest = Geometry::new(
            self.min_resource,
            Some(self.max_resource),
            self.reduction_factor,
            0,
        )?;
        Ok(widest.num_rungs() - 1)
    }

    /// Check the config without building a scheduler: a valid geometry and
    /// `1 <= num_brackets <= floor(log_eta(R/r)) + 1` (every bracket's `s`
    /// must fit the ladder). Decoders of untrusted input call this; the
    /// schedulers' constructors panic on the same conditions.
    pub fn validate(&self) -> Result<(), Error> {
        let s_max = self.s_max()?;
        if !(1..=s_max + 1).contains(&self.num_brackets) {
            return Err(Error::config(format!(
                "num_brackets must be in 1..={}, got {}",
                s_max + 1,
                self.num_brackets
            )));
        }
        Ok(())
    }

    /// The number of base-rung configurations Hyperband assigns to bracket
    /// `s`: `ceil((s_max + 1) * eta^(s_max - s) / (s_max - s + 1))`, which
    /// equalizes total budget across brackets (Li et al., 2018), adapted to
    /// this paper's convention that `s = 0` is the *most* aggressive
    /// bracket.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid (see [`HyperbandConfig::validate`]).
    pub fn bracket_num_configs(&self, s: usize) -> usize {
        let s_max = self.s_max().unwrap_or_else(|e| panic!("{e}"));
        let s = s.min(s_max);
        let rungs = (s_max - s + 1) as f64;
        let n = ((s_max as f64 + 1.0) * self.reduction_factor.powi((s_max - s) as i32) / rungs)
            .ceil() as usize;
        // Algorithm 1's precondition: enough configurations to reach R.
        n.max(min_configs(self.reduction_factor, s_max - s))
    }

    /// Bracket `s` of the loop: a barrier bracket of
    /// `bracket_num_configs(s)` trials if `barrier`, else an ASHA bracket.
    pub(crate) fn bracket_config(&self, s: usize, barrier: bool) -> AshaConfig {
        let (r, max_r, eta) = (self.min_resource, self.max_resource, self.reduction_factor);
        let config = AshaConfig::new(r, max_r, eta).with_stop_rate(s);
        match barrier {
            true => config.with_max_trials(self.bracket_num_configs(s)),
            false => config,
        }
    }
}

/// Builds one bracket of a loop from its config, under a barrier if asked:
/// the indexed [`Bracket`], or the twin in `reference`.
type NewBracket = fn(AshaConfig, bool) -> Box<dyn Engine>;

/// A loop over brackets: trial `t` of bracket `b` is
/// `TrialId(b * stride + t)`, where the stride is the bracket size `n` for
/// SHA and `2^40` for Hyperband, so an observation routes home by division.
/// Which bracket opens next, and when, is the caller's: [`SyncSha`],
/// [`Hyperband`] and [`AsyncHyperband`] each hold their own config. A
/// bracket is freed once it finishes, so the loop holds the open ones only.
///
/// [`SyncSha`]: crate::SyncSha
pub(crate) struct BracketLoop {
    space: SearchSpace,
    /// The open brackets, by index.
    pub(crate) brackets: BTreeMap<usize, Box<dyn Engine>>,
    /// Brackets opened so far, finished ones included.
    pub(crate) opened: usize,
    /// Open brackets that may have a job to issue, a superset of those that
    /// do: one joins when it opens or takes a report and leaves when it
    /// answers `Wait`, so `suggest` visits each blocked bracket once per
    /// report instead of on every call.
    pub(crate) ready: BTreeSet<usize>,
    /// One shared sampler, or one per bracket (asynchronous Hyperband).
    pub(crate) samplers: Vec<Box<dyn ConfigSampler>>,
    stride: u64,
    new_bracket: NewBracket,
    pub(crate) name: String,
}

impl std::fmt::Debug for BracketLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (brackets, open) = (self.opened, self.brackets.len());
        write!(f, "{} ({brackets} brackets, {open} open)", self.name)
    }
}

impl BracketLoop {
    /// A loop of indexed brackets with no bracket yet.
    pub(crate) fn new(
        space: SearchSpace,
        samplers: Vec<Box<dyn ConfigSampler>>,
        stride: u64,
        name: String,
    ) -> Self {
        BracketLoop {
            space,
            brackets: BTreeMap::new(),
            opened: 0,
            ready: BTreeSet::new(),
            samplers,
            stride,
            new_bracket: |config, barrier| Box::new(Bracket::new(config, barrier)),
            name,
        }
    }

    /// Rebuild this fresh loop's brackets, and build every later one, with
    /// `new_bracket` (the twin's).
    #[cfg(any(test, feature = "reference"))]
    pub(crate) fn rebuild(&mut self, new_bracket: NewBracket) {
        self.new_bracket = new_bracket;
        for bracket in self.brackets.values_mut() {
            let barrier = bracket.barrier().is_some();
            *bracket = new_bracket(bracket.export_state("").config, barrier);
        }
    }

    /// Open bracket `opened` with `config`.
    pub(crate) fn open(&mut self, config: AshaConfig, barrier: bool) {
        self.ready.insert(self.opened);
        let bracket = (self.new_bracket)(config, barrier);
        self.brackets.insert(self.opened, bracket);
        self.opened += 1;
    }

    /// Open bracket `b`'s decision, its trial id lifted into the loop's
    /// namespace.
    pub(crate) fn issue(&mut self, b: usize, rng: &mut dyn rand::RngCore) -> Decision {
        let sampler = if self.samplers.len() == 1 { 0 } else { b };
        let sampler = &mut *self.samplers[sampler];
        let bracket = self.brackets.get_mut(&b).expect("an open bracket is live");
        let mut decision = bracket.suggest(&self.space, sampler, rng);
        if let Decision::Run(job) = &mut decision {
            job.trial = TrialId(b as u64 * self.stride + job.trial.0);
        }
        decision
    }

    /// The lowest open bracket that has a job issues it. If none has,
    /// `next(b, all_finished)` may give the config of a barrier bracket `b`
    /// to open and ask.
    pub(crate) fn suggest(
        &mut self,
        rng: &mut dyn rand::RngCore,
        next: impl FnOnce(usize, bool) -> Option<AshaConfig>,
    ) -> Decision {
        while let Some(&b) = self.ready.first() {
            let decision = self.issue(b, rng);
            if let Decision::Run(_) = decision {
                return decision;
            }
            self.ready.remove(&b);
        }
        if let Some(config) = next(self.opened, self.brackets.is_empty()) {
            self.open(config, true);
            return self.issue(self.opened - 1, rng);
        }
        if self.brackets.is_empty() {
            Decision::Finished
        } else {
            Decision::Wait
        }
    }

    pub(crate) fn observe(&mut self, obs: Observation) {
        let Ok(b) = usize::try_from(obs.trial.0 / self.stride) else {
            return;
        };
        let Some(bracket) = self.brackets.get_mut(&b) else {
            return; // unsolicited, or a finished bracket's stale report
        };
        let sampler = if self.samplers.len() == 1 { 0 } else { b };
        let local = Observation {
            trial: TrialId(obs.trial.0 % self.stride),
            ..obs
        };
        bracket.observe(local, &mut *self.samplers[sampler]);
        if bracket.finished() {
            self.brackets.remove(&b);
            self.ready.remove(&b);
        } else {
            self.ready.insert(b);
        }
    }

    /// The open brackets, ascending, each one's state named as async
    /// Hyperband's brackets are.
    pub(crate) fn export(&self) -> Vec<BracketState> {
        let name = display_name("ASHA", &*self.samplers[0]);
        let brackets = self.brackets.iter().map(|(&index, b)| BracketState {
            index,
            asha: b.export_state(&name),
            barrier: b.barrier().cloned(),
        });
        brackets.collect()
    }

    /// Take the open brackets, as [`BracketLoop::validate`] passed them, of
    /// a loop that has opened `opened`.
    pub(crate) fn restore(&mut self, opened: usize, open: Vec<BracketState>) {
        let restore = |b: BracketState| {
            let bracket = Bracket::from_state(b.asha, b.barrier);
            (b.index, Box::new(bracket) as Box<dyn Engine>)
        };
        self.brackets = open.into_iter().map(restore).collect();
        self.ready = self.brackets.keys().copied().collect();
        self.opened = opened;
    }

    /// Check that a loop that has opened `opened` brackets can hold the
    /// open ones, ascending: an index below `opened`, the config the loop
    /// opens there and a barrier exactly if it caps its trials, an `Asha`
    /// state (`AshaState::validate`). A barrier runs a rung on the ladder, the
    /// only one with records or jobs, with no promotion; its queued,
    /// outstanding and reported trials are sampled and distinct; only the
    /// last bracket has trials left to sample, at rung 0; survivors queue
    /// above rung 0; and work is left, for a finished bracket is freed.
    pub(crate) fn validate(
        opened: usize,
        open: &[BracketState],
        config: impl Fn(usize) -> AshaConfig,
    ) -> Result<(), Error> {
        let mut next = 0;
        for bracket in open {
            let (b, state) = (bracket.index, &bracket.asha);
            let refuse = |why| Err(Error::config(format!("bracket {b} of {opened}: {why}")));
            let opens = (next..opened).contains(&b) && state.config == config(b);
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
            if state.trials_started != sampled
                || sampled > n
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

/// `Scheduler` — and, given its state's `SchedulerState` variant,
/// `DurableScheduler` — for a public face of a [`BracketLoop`]: a struct
/// with the loop in `brackets`, a `next` that suggests, and an
/// `export_state`.
macro_rules! bracket_loop_scheduler {
    ($face:ident) => {
        impl $crate::Scheduler for $face {
            fn suggest(&mut self, rng: &mut dyn rand::RngCore) -> $crate::Decision {
                self.next(rng)
            }

            fn observe(&mut self, obs: $crate::Observation) {
                self.brackets.observe(obs);
            }

            fn name(&self) -> &str {
                &self.brackets.name
            }

            fn wait_is_stable(&self) -> bool {
                true // a blocked barrier's `Wait` draws and changes nothing
            }
        }
    };
    ($face:ident, $kind:ident) => {
        $crate::hyperband::bracket_loop_scheduler!($face);

        impl $crate::DurableScheduler for $face {
            fn durable_state(&self) -> $crate::SchedulerState {
                $crate::SchedulerState::$kind(self.export_state())
            }

            fn sampler_name(&self) -> &str {
                self.brackets.samplers[0].name() // one kind for every bracket
            }

            fn sampler_cursors(&self) -> Vec<Option<String>> {
                let samplers = self.brackets.samplers.iter();
                samplers.map(|s| s.export_cursor()).collect()
            }

            fn restore_sampler_cursors(&mut self, cursors: &[Option<String>]) {
                for (sampler, cursor) in self.brackets.samplers.iter_mut().zip(cursors) {
                    if let Some(cursor) = cursor {
                        sampler.restore_cursor(cursor);
                    }
                }
            }
        }
    };
}
pub(crate) use bracket_loop_scheduler;

/// Synchronous Hyperband: run SHA brackets `s = 0, 1, ..., num_brackets-1`
/// to completion, one after another, looping back to `s = 0` (the paper's
/// sequential experiments loop "through 5 brackets of SHA, moving from
/// bracket `s=0, r=R/256` to bracket `s=4, r=R`"). Generation `g` runs
/// `s = g % num_brackets` and opens once generation `g - 1` finishes, which
/// frees it.
#[derive(Debug)]
pub struct Hyperband {
    config: HyperbandConfig,
    brackets: BracketLoop,
}

bracket_loop_scheduler!(Hyperband);

impl Hyperband {
    /// Create a synchronous Hyperband scheduler.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`HyperbandConfig::new`]).
    pub fn new(space: SearchSpace, config: HyperbandConfig) -> Self {
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        let sampler: Box<dyn ConfigSampler> = Box::new(RandomSampler::new());
        let name = "Hyperband".to_owned();
        let mut brackets = BracketLoop::new(space, vec![sampler], BRACKET_STRIDE, name);
        brackets.open(config.bracket_config(0, true), true);
        Hyperband { config, brackets }
    }

    fn next(&mut self, rng: &mut dyn rand::RngCore) -> Decision {
        let config = &self.config;
        let sha = |g| config.bracket_config(g % config.num_brackets, true);
        self.brackets
            .suggest(rng, |g, all_finished| all_finished.then(|| sha(g)))
    }
}

/// Asynchronous Hyperband (Section 3.2): one ASHA bracket per `s`, visited
/// round-robin, switching when the bracket has *issued* as much resource as
/// a hypothetical synchronous SHA bracket would consume.
#[derive(Debug)]
pub struct AsyncHyperband {
    config: HyperbandConfig,
    pub(crate) brackets: BracketLoop,
    budgets: Vec<f64>,
    /// Resource issued in the current activation of `current`.
    spent: f64,
    current: usize,
}

bracket_loop_scheduler!(AsyncHyperband, AsyncHyperband);

impl AsyncHyperband {
    /// Create an asynchronous Hyperband scheduler.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`HyperbandConfig::new`]).
    pub fn new(space: SearchSpace, config: HyperbandConfig) -> Self {
        AsyncHyperband::with_sampler_factory(space, config, |_| Box::new(RandomSampler::new()))
    }

    /// Create an asynchronous Hyperband scheduler with a per-bracket sampler
    /// built by `factory` (called once per early-stopping rate `s`). Each
    /// bracket owns an independent sampler instance: brackets observe
    /// disjoint trial populations at different base fidelities, so sharing a
    /// model across them would mix incomparable losses.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`HyperbandConfig::new`]).
    pub fn with_sampler_factory(
        space: SearchSpace,
        config: HyperbandConfig,
        factory: impl Fn(usize) -> Box<dyn ConfigSampler>,
    ) -> Self {
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        let samplers: Vec<_> = (0..config.num_brackets).map(factory).collect();
        let name = display_name("Hyperband (async)", &*samplers[0]);
        let mut brackets = BracketLoop::new(space, samplers, BRACKET_STRIDE, name);
        for s in 0..config.num_brackets {
            brackets.open(config.bracket_config(s, false), false);
        }
        let (r, max_r, eta) = (
            config.min_resource,
            config.max_resource,
            config.reduction_factor,
        );
        let budget = |s| budget::bracket_budget(config.bracket_num_configs(s), r, max_r, eta, s);
        AsyncHyperband {
            budgets: (0..config.num_brackets).map(budget).collect(),
            config,
            brackets,
            spent: 0.0,
            current: 0,
        }
    }

    /// The current bracket issues, after switching to the next once it has
    /// spent its budget.
    fn next(&mut self, rng: &mut dyn rand::RngCore) -> Decision {
        if self.spent >= self.budgets[self.current] {
            self.current = (self.current + 1) % self.budgets.len();
            self.spent = 0.0;
        }
        let decision = self.brackets.issue(self.current, rng);
        if let Decision::Run(job) = &decision {
            self.spent += job.resource;
        }
        decision
    }

    /// Capture the scheduler's full mutable state as plain data (see
    /// [`SchedulerState`](crate::SchedulerState)): one
    /// [`AshaState`](crate::AshaState) per bracket plus
    /// the budget cursor. Per-bracket budgets are recomputed on restore.
    pub fn export_state(&self) -> AsyncHyperbandState {
        AsyncHyperbandState {
            config: self.config.clone(),
            brackets: self.brackets.export(),
            spent: self.spent,
            current: self.current,
            name: self.brackets.name.clone(),
        }
    }

    /// Rebuild a scheduler from a state captured by
    /// [`AsyncHyperband::export_state`], with per-bracket samplers built by
    /// `factory`. Sampler cursors, if any, are restored separately via
    /// [`DurableScheduler::restore_sampler_cursors`](crate::DurableScheduler::restore_sampler_cursors).
    ///
    /// # Panics
    ///
    /// Panics if the state is one no `AsyncHyperband` can hold (see
    /// `AsyncHyperbandState::validate`: an invalid config, a bracket
    /// count that does not match it, a bracket the loop cannot hold).
    pub fn from_state_with_sampler_factory(
        space: SearchSpace,
        state: AsyncHyperbandState,
        factory: impl Fn(usize) -> Box<dyn ConfigSampler>,
    ) -> Self {
        state.validate().unwrap_or_else(|e| panic!("{e}"));
        let mut ahb = AsyncHyperband::with_sampler_factory(space, state.config, factory);
        ahb.brackets.restore(ahb.budgets.len(), state.brackets);
        (ahb.spent, ahb.current) = (state.spent, state.current);
        ahb.brackets.name = state.name;
        ahb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Scheduler;
    use crate::ShaConfig;
    use asha_space::Scale;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> SearchSpace {
        SearchSpace::builder()
            .continuous("x", 0.0, 1.0, Scale::Linear)
            .build()
            .unwrap()
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    #[test]
    fn bracket_sizes_decrease_with_s() {
        let cfg = HyperbandConfig::new(1.0, 256.0, 4.0);
        assert_eq!(cfg.num_brackets, 5);
        let sizes: Vec<usize> = (0..5).map(|s| cfg.bracket_num_configs(s)).collect();
        assert_eq!(sizes[0], 256, "s=0 matches the paper's n=256 setup");
        for w in sizes.windows(2) {
            assert!(w[0] > w[1], "sizes must decrease: {sizes:?}");
        }
        assert_eq!(sizes[4], 5);
    }

    #[test]
    fn fractional_eta_brackets_are_big_enough_to_reach_the_top() {
        // ceil(3 * 2.5^2 / 3) = 7 would stop at 7 → 2 → 0.
        let cfg = HyperbandConfig::new(1.0, 6.25, 2.5);
        assert_eq!(cfg.bracket_num_configs(0), 8);
        let sha = ShaConfig::new(cfg.bracket_num_configs(0), 1.0, 6.25, 2.5);
        assert!(sha.validate().is_ok());
    }

    #[test]
    fn hyperband_moves_through_brackets() {
        let cfg = HyperbandConfig::new(1.0, 9.0, 3.0);
        let mut hb = Hyperband::new(space(), cfg);
        let mut r = rng();
        let mut brackets_seen = Vec::new();
        // Run serially; record bracket of each job.
        for _ in 0..100 {
            let job = hb.suggest(&mut r).job().expect("serial never waits");
            if brackets_seen.last() != Some(&job.bracket) {
                brackets_seen.push(job.bracket);
            }
            hb.observe(Observation::for_job(&job, job.trial.0 as f64));
        }
        // Must cycle s = 0, 1, 2 and wrap back to 0.
        assert!(
            brackets_seen.starts_with(&[0, 1, 2, 0]),
            "{brackets_seen:?}"
        );
    }

    /// Run `face` for 2 000 reports with up to `in_flight` jobs out, the
    /// oldest reported first, checking that its loop holds no finished
    /// bracket; the most brackets it held at once.
    fn run_long<S: Scheduler>(face: &mut S, of: fn(&S) -> &BracketLoop, in_flight: usize) -> usize {
        let (mut r, mut jobs, mut most) = (rng(), std::collections::VecDeque::new(), 0);
        for _ in 0..2_000 {
            while jobs.len() < in_flight {
                let Decision::Run(job) = face.suggest(&mut r) else {
                    break;
                };
                jobs.push_back(job);
            }
            let job = jobs.pop_front().expect("a job is out");
            face.observe(Observation::for_job(&job, job.trial.0 as f64));
            let brackets = &of(face).brackets;
            assert!(
                brackets.values().all(|b| !b.finished()),
                "a finished bracket kept"
            );
            most = most.max(brackets.len());
        }
        assert!(of(face).opened > 50, "brackets kept opening");
        most
    }

    #[test]
    fn a_long_hyperband_run_frees_finished_brackets() {
        let mut hb = Hyperband::new(space(), HyperbandConfig::new(1.0, 9.0, 3.0));
        assert_eq!(
            run_long(&mut hb, |hb| &hb.brackets, 1),
            1,
            "one generation alive"
        );
        // A freed generation's stale report routes to nothing.
        hb.observe(Observation::new(TrialId(0), 0, 1.0, 0.0));
        // Growing SHA with 12 jobs out opens a bracket whenever the open
        // ones are blocked, and each blocked one holds a job.
        let config = ShaConfig::new(9, 1.0, 9.0, 3.0).growing();
        let mut sha = crate::SyncSha::new(space(), config);
        let most = run_long(&mut sha, |sha| &sha.brackets, 12);
        assert!((2..=13).contains(&most), "{most} brackets open at once");
    }

    #[test]
    fn hyperband_waits_when_bracket_blocked() {
        let cfg = HyperbandConfig::new(1.0, 9.0, 3.0);
        let mut hb = Hyperband::new(space(), cfg.clone());
        let mut r = rng();
        let n0 = cfg.bracket_num_configs(0);
        let mut jobs = Vec::new();
        for _ in 0..n0 {
            jobs.push(hb.suggest(&mut r).job().unwrap());
        }
        assert!(hb.suggest(&mut r).is_wait());
        for job in &jobs {
            hb.observe(Observation::for_job(job, job.trial.0 as f64));
        }
        assert!(matches!(hb.suggest(&mut r), Decision::Run(_)));
    }

    #[test]
    fn async_hyperband_switches_on_budget() {
        let cfg = HyperbandConfig::new(1.0, 9.0, 3.0);
        let mut ahb = AsyncHyperband::new(space(), cfg);
        let mut r = rng();
        let mut brackets_seen = vec![];
        for _ in 0..500 {
            let job = ahb.suggest(&mut r).job().expect("asha never waits");
            if brackets_seen.last() != Some(&job.bracket) {
                brackets_seen.push(job.bracket);
            }
            ahb.observe(Observation::for_job(&job, job.trial.0 as f64));
        }
        assert!(
            brackets_seen.len() >= 4 && brackets_seen.starts_with(&[0, 1, 2, 0]),
            "bracket loop order: {brackets_seen:?}"
        );
    }

    #[test]
    fn async_hyperband_routes_observations_to_brackets() {
        let cfg = HyperbandConfig::new(1.0, 9.0, 3.0);
        let mut ahb = AsyncHyperband::new(space(), cfg);
        let mut r = rng();
        // Issue jobs until we are in bracket 1, then make sure the
        // observation lands in bracket 1's ladder.
        let job = loop {
            let job = ahb.suggest(&mut r).job().unwrap();
            if job.bracket == 1 {
                break job;
            }
            ahb.observe(Observation::for_job(&job, 1.0));
        };
        ahb.observe(Observation::for_job(&job, 0.123));
        let bracket1 = &ahb.export_state().brackets[1].asha;
        let local = job.trial.0 - BRACKET_STRIDE;
        assert_eq!(bracket1.rungs[job.rung].records, [(local, 0.123)]);
    }

    #[test]
    fn with_brackets_limits_the_loop() {
        let cfg = HyperbandConfig::new(1.0, 256.0, 4.0).with_brackets(4);
        let ahb = AsyncHyperband::new(space(), cfg);
        assert_eq!(ahb.export_state().brackets.len(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one bracket")]
    fn zero_brackets_rejected() {
        let _ = HyperbandConfig::new(1.0, 9.0, 3.0).with_brackets(0);
    }
}
