//! The bracket loop: SHA, Hyperband and asynchronous Hyperband.
//!
//! Hyperband runs SHA brackets with different early-stopping rates `s` to
//! hedge over the choice of `s`. The asynchronous variant of Section 3.2
//! "loops through brackets of ASHA sequentially as is done in the original
//! Hyperband", switching brackets "when a budget corresponding to a
//! hypothetical bracket of SHA would be depleted". Synchronous SHA
//! (Algorithm 1), grown as Falkner et al. (2018) do, loops over identical
//! barrier brackets. All three are one [`BracketLoop`] over [`Bracket`]s,
//! and differ only in their [`Opening`]: which bracket opens next, and when.

use std::collections::{BTreeMap, BTreeSet};

use asha_space::SearchSpace;

use crate::asha::{display_name, AshaConfig, Bracket, Engine};
use crate::budget::{self, min_configs, Geometry};
use crate::error::Error;
use crate::sampler::{ConfigSampler, RandomSampler};
use crate::scheduler::{Decision, Observation, Scheduler, TrialId};
use crate::state::{BracketLoopState, BracketState, DurableScheduler, SchedulerState};

/// Trial-id stride separating the namespaces of different Hyperband
/// brackets, so that an observation routes back to the bracket that issued
/// it without a lookup table.
const BRACKET_STRIDE: u64 = 1 << 40;

/// Which bracket a [`BracketLoop`] opens next, and when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Opening {
    /// Synchronous SHA: every bracket is a barrier bracket of `num_configs`
    /// trials at early-stopping rate `stop_rate`, and trial `t` of bracket
    /// `b` is `TrialId(b * num_configs + t)`, its jobs tagged bracket `b`.
    Sha {
        /// Number of configurations `n` in the base rung of each bracket.
        num_configs: usize,
        /// Early-stopping rate `s`.
        stop_rate: usize,
        /// Open a fresh bracket whenever every open one is blocked waiting
        /// on stragglers, the parallelization of Falkner et al. (2018)
        /// ("add brackets when there are no jobs available in existing
        /// brackets"). Without it, one bracket runs to completion and the
        /// loop then reports [`Decision::Finished`].
        grow: bool,
    },
    /// Synchronous Hyperband: generation `g` is a barrier bracket at
    /// `s = g % num_brackets` of `bracket_num_configs(s)` trials, opened
    /// once generation `g - 1` finishes (the paper's sequential experiments
    /// loop "through 5 brackets of SHA, moving from bracket `s=0, r=R/256`
    /// to bracket `s=4, r=R`").
    Hyperband {
        /// Early-stopping rates `s = 0..num_brackets` to loop through.
        num_brackets: usize,
    },
    /// Asynchronous Hyperband (Section 3.2): one ASHA bracket per `s`,
    /// visited round-robin, switching once the current one has *issued* as
    /// much resource as a synchronous bracket would consume
    /// (`budget::bracket_budget`).
    AsyncHyperband {
        /// Early-stopping rates `s = 0..num_brackets`, one bracket each.
        num_brackets: usize,
    },
}

/// Configuration of a [`BracketLoop`]: the ladder every bracket climbs and
/// the loop's [`Opening`].
#[derive(Debug, Clone, PartialEq)]
pub struct BracketLoopConfig {
    /// Minimum resource `r` (the most aggressive bracket's base allocation).
    pub min_resource: f64,
    /// Maximum resource `R`.
    pub max_resource: f64,
    /// Reduction factor `eta >= 2`.
    pub reduction_factor: f64,
    /// Which bracket opens next, and when.
    pub opening: Opening,
}

impl BracketLoopConfig {
    /// Synchronous SHA: one bracket of `num_configs` trials with `s = 0`.
    pub fn sha(num_configs: usize, min_resource: f64, max_resource: f64, eta: f64) -> Self {
        BracketLoopConfig {
            min_resource,
            max_resource,
            reduction_factor: eta,
            opening: Opening::Sha {
                num_configs,
                stop_rate: 0,
                grow: false,
            },
        }
    }

    /// Synchronous Hyperband over every early-stopping rate, from the most
    /// aggressive to "no early stopping": `floor(log_eta(R/r)) + 1`
    /// brackets.
    ///
    /// # Panics
    ///
    /// Panics if `eta < 2` or the resources are invalid.
    pub fn hyperband(min_resource: f64, max_resource: f64, eta: f64) -> Self {
        let num_brackets =
            Geometry::finite_or_panic(min_resource, max_resource, eta, 0).num_rungs();
        BracketLoopConfig {
            min_resource,
            max_resource,
            reduction_factor: eta,
            opening: Opening::Hyperband { num_brackets },
        }
    }

    /// Asynchronous Hyperband over every early-stopping rate.
    ///
    /// # Panics
    ///
    /// Panics if `eta < 2` or the resources are invalid.
    pub fn async_hyperband(min_resource: f64, max_resource: f64, eta: f64) -> Self {
        let mut config = BracketLoopConfig::hyperband(min_resource, max_resource, eta);
        if let Opening::Hyperband { num_brackets } = config.opening {
            config.opening = Opening::AsyncHyperband { num_brackets };
        }
        config
    }

    /// Keep adding SHA brackets when all open ones are blocked.
    ///
    /// # Panics
    ///
    /// Panics unless the opening is [`Opening::Sha`].
    pub fn growing(mut self) -> Self {
        match &mut self.opening {
            Opening::Sha { grow, .. } => *grow = true,
            other => panic!("only SHA grows brackets, not {other:?}"),
        }
        self
    }

    /// Restrict a Hyperband to the first `num_brackets` early-stopping rates
    /// (`s = 0..num_brackets`). The paper's Figure 5 uses `s = 0, 1, 2, 3`.
    ///
    /// # Panics
    ///
    /// Panics on zero brackets, or unless the opening is a Hyperband.
    pub fn with_brackets(mut self, num_brackets: usize) -> Self {
        assert!(num_brackets >= 1, "need at least one bracket");
        match &mut self.opening {
            Opening::Hyperband { num_brackets: k }
            | Opening::AsyncHyperband { num_brackets: k } => *k = num_brackets,
            Opening::Sha { .. } => panic!("SHA has no brackets to restrict"),
        }
        self
    }

    /// `floor(log_eta(R/r))`, the largest early-stopping rate a bracket of
    /// this ladder can have.
    fn s_max(&self) -> Result<usize, Error> {
        let (r, max_r, eta) = (self.min_resource, self.max_resource, self.reduction_factor);
        Ok(Geometry::new(r, Some(max_r), eta, 0)?.num_rungs() - 1)
    }

    /// Check the config without building a loop: a valid geometry; for SHA,
    /// enough configurations that at least one reaches `R` (Algorithm 1's
    /// `n >= eta^(s_max - s)`, rounded rung by rung for a fractional `eta`;
    /// see `budget::min_configs`); for a Hyperband,
    /// `1 <= num_brackets <= floor(log_eta(R/r)) + 1`, so every bracket's
    /// `s` fits the ladder. Decoders of untrusted input call this;
    /// [`BracketLoop::new`] panics on the same conditions.
    pub fn validate(&self) -> Result<(), Error> {
        let s_max = self.s_max()?;
        match self.opening {
            Opening::Sha { num_configs, .. } => {
                let top = self.bracket_config(0).geometry()?.num_rungs() - 1;
                let needed = min_configs(self.reduction_factor, top);
                if num_configs < needed {
                    return Err(Error::config(format!(
                        "n = {num_configs} too small: need at least {needed} to reach the top rung"
                    )));
                }
            }
            Opening::Hyperband { num_brackets } | Opening::AsyncHyperband { num_brackets } => {
                if !(1..=s_max + 1).contains(&num_brackets) {
                    return Err(Error::config(format!(
                        "num_brackets must be in 1..={}, got {num_brackets}",
                        s_max + 1
                    )));
                }
            }
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
    /// Panics if the ladder is invalid (see [`BracketLoopConfig::validate`]).
    pub fn bracket_num_configs(&self, s: usize) -> usize {
        let s_max = self.s_max().unwrap_or_else(|e| panic!("{e}"));
        let s = s.min(s_max);
        let rungs = (s_max - s + 1) as f64;
        let n = ((s_max as f64 + 1.0) * self.reduction_factor.powi((s_max - s) as i32) / rungs)
            .ceil() as usize;
        // Algorithm 1's precondition: enough configurations to reach R.
        n.max(min_configs(self.reduction_factor, s_max - s))
    }

    /// The config of bracket `b` as the loop opens it: a barrier bracket
    /// (its trials capped) under SHA and Hyperband, an ASHA bracket at
    /// `s = b` under asynchronous Hyperband.
    pub fn bracket_config(&self, b: usize) -> AshaConfig {
        let (r, max_r, eta) = (self.min_resource, self.max_resource, self.reduction_factor);
        let config = AshaConfig::new(r, max_r, eta);
        match self.opening {
            Opening::Sha {
                num_configs,
                stop_rate,
                ..
            } => config
                .with_stop_rate(stop_rate)
                .with_max_trials(num_configs),
            Opening::Hyperband { num_brackets } => {
                let s = b % num_brackets;
                config
                    .with_stop_rate(s)
                    .with_max_trials(self.bracket_num_configs(s))
            }
            Opening::AsyncHyperband { .. } => config.with_stop_rate(b),
        }
    }

    /// Trial `t` of bracket `b` is `TrialId(b * stride + t)`.
    pub(crate) fn stride(&self) -> u64 {
        match self.opening {
            Opening::Sha { num_configs, .. } => num_configs as u64,
            _ => BRACKET_STRIDE,
        }
    }
}

/// Builds one bracket of a loop from its config, under a barrier if asked:
/// the indexed [`Bracket`], or the twin in `reference`.
type NewBracket = fn(AshaConfig, bool) -> Box<dyn Engine>;

/// SHA, Hyperband and asynchronous Hyperband: a loop over brackets that
/// opens them as its config's [`Opening`] says. Trial `t` of bracket `b` is
/// `TrialId(b * stride + t)`, where the stride is the bracket size `n` for
/// SHA and `2^40` for the Hyperbands, so an observation routes home by
/// division. A bracket is freed once it finishes, so the loop holds the open
/// ones only.
pub struct BracketLoop {
    config: BracketLoopConfig,
    space: SearchSpace,
    /// The open brackets, by index.
    brackets: BTreeMap<usize, Box<dyn Engine>>,
    /// Brackets opened so far, finished ones included.
    opened: usize,
    /// Open brackets that may have a job to issue, a superset of those that
    /// do: one joins when it opens or takes a report and leaves when it
    /// answers `Wait`, so `suggest` visits each blocked bracket once per
    /// report instead of on every call.
    ready: BTreeSet<usize>,
    /// One shared sampler, or one per bracket (asynchronous Hyperband).
    samplers: Vec<Box<dyn ConfigSampler>>,
    new_bracket: NewBracket,
    name: String,
    /// Asynchronous Hyperband's budget per bracket; empty otherwise.
    budgets: Vec<f64>,
    /// Resource issued in the current turn of bracket `current`.
    spent: f64,
    current: usize,
}

impl std::fmt::Debug for BracketLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (brackets, open) = (self.opened, self.brackets.len());
        write!(f, "{} ({brackets} brackets, {open} open)", self.name)
    }
}

impl BracketLoop {
    /// Create a bracket loop with uniform random sampling.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`BracketLoopConfig::validate`]).
    pub fn new(space: SearchSpace, config: BracketLoopConfig) -> Self {
        BracketLoop::with_sampler_factory(space, config, |_| Box::new(RandomSampler::new()))
    }

    /// Create a bracket loop whose samplers `factory` builds: once under a
    /// barrier opening, whose brackets share one model (BOHB's TPE learns
    /// from every SHA bracket), and once per early-stopping rate `s` for
    /// asynchronous Hyperband, whose brackets observe disjoint trial
    /// populations at different base fidelities, so that sharing a model
    /// across them would mix incomparable losses.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`BracketLoopConfig::validate`]).
    pub fn with_sampler_factory(
        space: SearchSpace,
        config: BracketLoopConfig,
        factory: impl Fn(usize) -> Box<dyn ConfigSampler>,
    ) -> Self {
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        let (r, max_r, eta) = (
            config.min_resource,
            config.max_resource,
            config.reduction_factor,
        );
        let budget = |s| budget::bracket_budget(config.bracket_num_configs(s), r, max_r, eta, s);
        let (prefix, samplers, budgets) = match config.opening {
            Opening::Sha { .. } => ("SHA", vec![factory(0)], Vec::new()),
            Opening::Hyperband { .. } => ("Hyperband", vec![factory(0)], Vec::new()),
            Opening::AsyncHyperband { num_brackets } => (
                "Hyperband (async)",
                (0..num_brackets).map(factory).collect(),
                (0..num_brackets).map(budget).collect(),
            ),
        };
        let mut brackets = BracketLoop {
            name: display_name(prefix, &*samplers[0]),
            config,
            space,
            brackets: BTreeMap::new(),
            opened: 0,
            ready: BTreeSet::new(),
            samplers,
            new_bracket: |config, barrier| Box::new(Bracket::new(config, barrier)),
            budgets,
            spent: 0.0,
            current: 0,
        };
        for _ in 0..brackets.budgets.len().max(1) {
            brackets.open();
        }
        brackets
    }

    /// Rename the scheduler (used by wrappers such as BOHB).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
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

    /// Open bracket `opened`, under a barrier exactly if it caps its trials.
    fn open(&mut self) {
        let config = self.config.bracket_config(self.opened);
        let barrier = config.max_trials.is_some();
        self.ready.insert(self.opened);
        self.brackets
            .insert(self.opened, (self.new_bracket)(config, barrier));
        self.opened += 1;
    }

    /// Open bracket `b`'s decision, its trial id lifted into the loop's
    /// namespace (and, under SHA, its job tagged bracket `b`).
    fn issue(&mut self, b: usize, rng: &mut dyn rand::RngCore) -> Decision {
        let sampler = if self.samplers.len() == 1 { 0 } else { b };
        let sampler = &mut *self.samplers[sampler];
        let bracket = self.brackets.get_mut(&b).expect("an open bracket is live");
        let mut decision = bracket.suggest(&self.space, sampler, rng);
        if let Decision::Run(job) = &mut decision {
            job.trial = TrialId(b as u64 * self.config.stride() + job.trial.0);
            if let Opening::Sha { .. } = self.config.opening {
                job.bracket = b;
            }
        }
        decision
    }

    /// Asynchronous Hyperband's current bracket issues, after passing the
    /// turn to the next once it has spent its budget.
    fn rotate(&mut self, rng: &mut dyn rand::RngCore) -> Decision {
        if self.spent >= self.budgets[self.current] {
            self.current = (self.current + 1) % self.budgets.len();
            self.spent = 0.0;
        }
        let decision = self.issue(self.current, rng);
        if let Decision::Run(job) = &decision {
            self.spent += job.resource;
        }
        decision
    }

    /// Capture the scheduler's full mutable state as plain data (see
    /// [`SchedulerState`]): each open bracket's state and barrier, plus
    /// asynchronous Hyperband's turn. Restoring it with
    /// [`BracketLoop::from_state`] yields a scheduler that makes identical
    /// decisions given the same RNG stream.
    pub fn export_state(&self) -> BracketLoopState {
        let name = display_name("ASHA", &*self.samplers[0]);
        let brackets = self.brackets.iter().map(|(&index, b)| BracketState {
            index,
            asha: b.export_state(&name),
            barrier: b.barrier().cloned(),
        });
        BracketLoopState {
            config: self.config.clone(),
            opened: self.opened,
            brackets: brackets.collect(),
            spent: self.spent,
            current: self.current,
            name: self.name.clone(),
        }
    }

    /// Rebuild a scheduler from a state captured by
    /// [`BracketLoop::export_state`], with samplers built by `factory` (see
    /// [`BracketLoop::with_sampler_factory`]). Sampler cursors, if any, are
    /// restored separately via
    /// [`DurableScheduler::restore_sampler_cursors`].
    ///
    /// # Panics
    ///
    /// Panics if the state is one no `BracketLoop` can hold (see
    /// `BracketLoopState::validate`).
    pub fn from_state(
        space: SearchSpace,
        state: BracketLoopState,
        factory: impl Fn(usize) -> Box<dyn ConfigSampler>,
    ) -> Self {
        state.validate().unwrap_or_else(|e| panic!("{e}"));
        let mut restored = BracketLoop::with_sampler_factory(space, state.config, factory);
        let restore = |b: BracketState| {
            let bracket = Bracket::from_state(b.asha, b.barrier);
            (b.index, Box::new(bracket) as Box<dyn Engine>)
        };
        restored.brackets = state.brackets.into_iter().map(restore).collect();
        restored.ready = restored.brackets.keys().copied().collect();
        restored.opened = state.opened;
        (restored.spent, restored.current) = (state.spent, state.current);
        restored.name = state.name;
        restored
    }
}

impl Scheduler for BracketLoop {
    /// The lowest open bracket that has a job issues it. If none has, SHA
    /// opens a bracket when it grows and Hyperband once every bracket has
    /// finished; asynchronous Hyperband passes its turn by budget instead.
    fn suggest(&mut self, rng: &mut dyn rand::RngCore) -> Decision {
        if let Opening::AsyncHyperband { .. } = self.config.opening {
            return self.rotate(rng);
        }
        while let Some(&b) = self.ready.first() {
            let decision = self.issue(b, rng);
            if let Decision::Run(_) = decision {
                return decision;
            }
            self.ready.remove(&b);
        }
        let opens = match self.config.opening {
            Opening::Sha { grow, .. } => grow,
            _ => self.brackets.is_empty(),
        };
        if opens {
            self.open();
            return self.issue(self.opened - 1, rng);
        }
        if self.brackets.is_empty() {
            Decision::Finished
        } else {
            Decision::Wait
        }
    }

    fn observe(&mut self, obs: Observation) {
        let stride = self.config.stride();
        let Ok(b) = usize::try_from(obs.trial.0 / stride) else {
            return;
        };
        let Some(bracket) = self.brackets.get_mut(&b) else {
            return; // unsolicited, or a finished bracket's stale report
        };
        let sampler = if self.samplers.len() == 1 { 0 } else { b };
        let local = Observation {
            trial: TrialId(obs.trial.0 % stride),
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

    fn name(&self) -> &str {
        &self.name
    }

    fn wait_is_stable(&self) -> bool {
        true // a blocked barrier's `Wait` draws and changes nothing
    }
}

impl DurableScheduler for BracketLoop {
    fn durable_state(&self) -> SchedulerState {
        SchedulerState::BracketLoop(self.export_state())
    }

    fn sampler_name(&self) -> &str {
        self.samplers[0].name() // one kind for every bracket
    }

    fn sampler_cursors(&self) -> Vec<Option<String>> {
        self.samplers.iter().map(|s| s.export_cursor()).collect()
    }

    fn restore_sampler_cursors(&mut self, cursors: &[Option<String>]) {
        for (sampler, cursor) in self.samplers.iter_mut().zip(cursors) {
            if let Some(cursor) = cursor {
                sampler.restore_cursor(cursor);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Job;
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

    /// Synchronous SHA, one bracket of `n` trials on `(1, 9, 3)`.
    fn sha(n: usize) -> BracketLoop {
        BracketLoop::new(space(), BracketLoopConfig::sha(n, 1.0, 9.0, 3.0))
    }

    #[test]
    fn config_rungs_match_figure1() {
        let cfg = BracketLoopConfig::sha(9, 1.0, 9.0, 3.0);
        let geometry = |cfg: &BracketLoopConfig| cfg.bracket_config(0).geometry().unwrap();
        assert_eq!(geometry(&cfg).num_rungs(), 3);
        let resources: Vec<_> = (0..3).map(|k| geometry(&cfg).resource(k)).collect();
        assert_eq!(resources, [1.0, 3.0, 9.0]);
        let b1 = BracketLoopConfig {
            opening: Opening::Sha {
                num_configs: 9,
                stop_rate: 1,
                grow: false,
            },
            ..cfg
        };
        assert_eq!(geometry(&b1).num_rungs(), 2);
        assert_eq!(geometry(&b1).resource(0), 3.0);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn too_few_configs_is_rejected() {
        let _ = sha(8);
    }

    /// With `eta = 2.5` and two rungs above the base, each rung keeps
    /// `floor(n / 2.5)`: 7 → 2 → 0 never reaches `R`, 8 → 3 → 1 does.
    #[test]
    fn fractional_eta_needs_enough_configs_to_reach_the_top() {
        let too_few = BracketLoopConfig::sha(7, 1.0, 6.25, 2.5);
        assert!(too_few.validate().is_err(), "7 → 2 → 0 stops below R");
        let mut sha = BracketLoop::new(space(), BracketLoopConfig::sha(8, 1.0, 6.25, 2.5));
        let mut r = rng();
        let mut rung_sizes = [0usize; 3];
        while let Decision::Run(job) = sha.suggest(&mut r) {
            rung_sizes[job.rung] += 1;
            sha.observe(Observation::for_job(&job, job.trial.0 as f64));
        }
        assert_eq!(rung_sizes, [8, 3, 1]);
    }

    #[test]
    fn runs_one_bracket_to_completion() {
        let mut sha = sha(9);
        let mut r = rng();
        let mut job_count = 0;
        let mut rung_sizes = [0usize; 3];
        loop {
            match sha.suggest(&mut r) {
                Decision::Run(job) => {
                    job_count += 1;
                    rung_sizes[job.rung] += 1;
                    // Deterministic losses: trial id as loss.
                    sha.observe(Observation::for_job(&job, job.trial.0 as f64));
                }
                Decision::Finished => break,
                Decision::Wait => panic!("single worker never needs to wait"),
            }
        }
        // Figure 1 bracket 0: 9 + 3 + 1 = 13 jobs.
        assert_eq!(job_count, 13);
        assert_eq!(rung_sizes, [9, 3, 1]);
        assert!(sha.brackets.is_empty());
    }

    #[test]
    fn promotes_the_best_configs() {
        let mut sha = sha(9);
        let mut r = rng();
        let mut rung1_trials = Vec::new();
        let mut rung2_trials = Vec::new();
        while let Decision::Run(job) = sha.suggest(&mut r) {
            if job.rung == 1 {
                rung1_trials.push(job.trial.0);
            }
            if job.rung == 2 {
                rung2_trials.push(job.trial.0);
            }
            sha.observe(Observation::for_job(&job, job.trial.0 as f64));
        }
        rung1_trials.sort_unstable();
        assert_eq!(rung1_trials, vec![0, 1, 2], "lowest losses promoted");
        assert_eq!(rung2_trials, vec![0]);
    }

    #[test]
    fn synchronous_barrier_blocks_on_stragglers() {
        let mut sha = sha(9);
        let mut r = rng();
        let mut jobs = Vec::new();
        for _ in 0..9 {
            jobs.push(sha.suggest(&mut r).job().unwrap());
        }
        // Complete 8 of 9; the rung is not finished, so SHA must wait.
        for job in &jobs[..8] {
            sha.observe(Observation::for_job(job, job.trial.0 as f64));
        }
        assert!(sha.suggest(&mut r).is_wait(), "must wait for the straggler");
        sha.observe(Observation::for_job(&jobs[8], 8.0));
        let next = sha.suggest(&mut r).job().unwrap();
        assert_eq!(next.rung, 1);
    }

    #[test]
    fn growing_mode_adds_brackets_when_blocked() {
        let config = BracketLoopConfig::sha(9, 1.0, 9.0, 3.0).growing();
        let mut sha = BracketLoop::new(space(), config);
        let mut r = rng();
        let mut jobs = Vec::new();
        for _ in 0..9 {
            jobs.push(sha.suggest(&mut r).job().unwrap());
        }
        // All 9 outstanding: a 10th worker asks for work -> a new bracket.
        let job = sha.suggest(&mut r).job().unwrap();
        assert_eq!(job.bracket, 1);
        assert_eq!(sha.brackets.len(), 2);
        // Old bracket results still promote correctly.
        for job in &jobs {
            sha.observe(Observation::for_job(job, job.trial.0 as f64));
        }
        // First bracket now has rung-1 work; it is preferred over the new
        // bracket's base rung.
        let next = sha.suggest(&mut r).job().unwrap();
        assert_eq!((next.bracket, next.rung), (0, 1));
    }

    #[test]
    fn closed_rungs_hold_no_records() {
        let mut sha = sha(9);
        let mut r = rng();
        let records = |sha: &BracketLoop| {
            let rungs = &sha.export_state().brackets[0].asha.rungs;
            rungs.iter().map(|r| r.records.len()).collect::<Vec<_>>()
        };
        while let Decision::Run(job) = sha.suggest(&mut r) {
            sha.observe(Observation::for_job(&job, job.trial.0 as f64));
            match (job.trial.0, job.rung) {
                (8, 0) => assert_eq!(records(&sha), [0, 0, 0], "rung 0 closed"),
                (1, 1) => assert_eq!(records(&sha), [0, 2, 0], "rung 1 open"),
                (2, 1) => assert_eq!(records(&sha), [0, 0, 0], "rung 1 closed"),
                _ => {}
            }
        }
    }

    /// The document is the barrier bracket's live state, written out by
    /// hand here: rung 1 running, survivor 0 issued, survivors 2 and 1
    /// queued (best last), rung 0's records gone with the rung.
    #[test]
    fn export_writes_the_barrier_as_the_bracket_document() {
        let mut sha = sha(9);
        let mut r = rng();
        let jobs: Vec<Job> = (0..9).map(|_| sha.suggest(&mut r).job().unwrap()).collect();
        for job in jobs.iter().rev() {
            sha.observe(Observation::for_job(job, job.trial.0 as f64));
        }
        let survivor = sha.suggest(&mut r).job().unwrap();
        assert_eq!((survivor.trial, survivor.rung), (TrialId(0), 1));
        sha.observe(Observation::new(TrialId(5), 0, 1.0, 0.0)); // stale
        let state = sha.export_state();
        assert_eq!((state.opened, state.brackets.len()), (1, 1));
        let b = &state.brackets[0];
        let barrier = b.barrier.clone().unwrap();
        assert_eq!((b.index, barrier.rung, barrier.queue), (0, 1, vec![2, 1]));
        assert_eq!(b.asha.outstanding, [(0, 1)]);
        assert!(b.asha.rungs.iter().all(|r| r.records.is_empty()));
        assert_eq!(b.asha.trials.len(), 9);
        assert_eq!(b.asha.trials[2].1, jobs[2].config);
        sha.observe(Observation::for_job(&survivor, 0.5));
        let b = &sha.export_state().brackets[0];
        assert_eq!(b.asha.rungs[1].records, [(0, 0.5)]);
        assert!(b.asha.outstanding.is_empty());
    }

    #[test]
    fn stale_observations_are_ignored() {
        let mut sha = sha(9);
        let mut r = rng();
        let job = sha.suggest(&mut r).job().unwrap();
        sha.observe(Observation::for_job(&job, 1.0));
        sha.observe(Observation::for_job(&job, 0.0)); // duplicate
        sha.observe(Observation::new(TrialId(999), 0, 1.0, 0.0)); // unknown
                                                                  // One result recorded, eight to go.
        assert!(!sha.brackets.is_empty());
    }

    #[test]
    fn duplicate_reports_do_not_corrupt_the_barrier() {
        let mut sha = sha(9);
        let mut r = rng();
        let mut jobs = Vec::new();
        for _ in 0..9 {
            jobs.push(sha.suggest(&mut r).job().unwrap());
        }
        // Report the first job three times (an executor retrying a job whose
        // first attempt actually landed): the rung must NOT complete until
        // the other eight distinct trials report.
        for _ in 0..3 {
            sha.observe(Observation::for_job(&jobs[0], 0.0));
        }
        assert!(sha.suggest(&mut r).is_wait(), "8 trials still outstanding");
        for job in &jobs[1..] {
            sha.observe(Observation::for_job(job, job.trial.0 as f64));
        }
        let next = sha.suggest(&mut r).job().unwrap();
        assert_eq!(next.rung, 1);
    }

    /// The barrier keeps `Rung`'s `(loss, trial)` order: of two tied
    /// losses at the cut, the lower id survives whichever reported first.
    #[test]
    fn a_tie_at_the_cut_keeps_the_lower_trial_id() {
        let mut sha = BracketLoop::new(space(), BracketLoopConfig::sha(3, 1.0, 3.0, 3.0));
        let mut r = rng();
        let jobs: Vec<Job> = (0..3).map(|_| sha.suggest(&mut r).job().unwrap()).collect();
        for (i, loss) in [(2, 0.5), (1, 0.5), (0, 0.9)] {
            sha.observe(Observation::for_job(&jobs[i], loss));
        }
        let survivor = sha.suggest(&mut r).job().unwrap();
        assert_eq!((survivor.trial, survivor.rung), (TrialId(1), 1));
    }

    #[test]
    fn poisoned_trials_are_not_promoted() {
        let mut sha = sha(9);
        let mut r = rng();
        let mut promoted = Vec::new();
        while let Decision::Run(job) = sha.suggest(&mut r) {
            if job.rung > 0 {
                promoted.push(job.trial.0);
            }
            // Trials 0 and 1 crash (INFINITY / NaN); the rest are ranked by
            // id, so the rung-1 survivors must be trials 2, 3, 4.
            let loss = match job.trial.0 {
                0 => f64::INFINITY,
                1 => f64::NAN,
                t => t as f64,
            };
            sha.observe(Observation::for_job(&job, loss));
        }
        assert!(sha.brackets.is_empty());
        assert!(
            !promoted.contains(&0) && !promoted.contains(&1),
            "poisoned trials promoted: {promoted:?}"
        );
    }

    #[test]
    fn all_poisoned_rung_finishes_the_bracket() {
        let mut sha = sha(9);
        let mut r = rng();
        let mut count = 0;
        while let Decision::Run(job) = sha.suggest(&mut r) {
            count += 1;
            sha.observe(Observation::for_job(&job, f64::INFINITY));
            assert!(count < 100, "runaway bracket");
        }
        // No finite survivor: the bracket stops after the base rung.
        assert_eq!(count, 9);
        assert!(sha.brackets.is_empty());
    }

    #[test]
    fn nonsquare_n_still_terminates() {
        // n = 10 with eta = 3: rungs of 10, 3, 1.
        let mut sha = sha(10);
        let mut r = rng();
        let mut count = 0;
        while let Decision::Run(job) = sha.suggest(&mut r) {
            count += 1;
            sha.observe(Observation::for_job(&job, job.trial.0 as f64));
            assert!(count < 100, "runaway bracket");
        }
        assert_eq!(count, 14);
    }

    #[test]
    fn bracket_sizes_decrease_with_s() {
        let cfg = BracketLoopConfig::hyperband(1.0, 256.0, 4.0);
        assert_eq!(cfg.opening, Opening::Hyperband { num_brackets: 5 });
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
        let cfg = BracketLoopConfig::hyperband(1.0, 6.25, 2.5);
        assert_eq!(cfg.bracket_num_configs(0), 8);
        let sha = BracketLoopConfig::sha(cfg.bracket_num_configs(0), 1.0, 6.25, 2.5);
        assert!(sha.validate().is_ok());
    }

    #[test]
    fn hyperband_moves_through_brackets() {
        let cfg = BracketLoopConfig::hyperband(1.0, 9.0, 3.0);
        let mut hb = BracketLoop::new(space(), cfg);
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
    /// oldest reported first, checking that it holds no finished bracket;
    /// the most brackets it held at once.
    fn run_long(face: &mut BracketLoop, in_flight: usize) -> usize {
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
            let brackets = &face.brackets;
            assert!(
                brackets.values().all(|b| !b.finished()),
                "a finished bracket kept"
            );
            most = most.max(brackets.len());
        }
        assert!(face.opened > 50, "brackets kept opening");
        most
    }

    #[test]
    fn a_long_hyperband_run_frees_finished_brackets() {
        let config = BracketLoopConfig::hyperband(1.0, 9.0, 3.0);
        let mut hb = BracketLoop::new(space(), config);
        assert_eq!(run_long(&mut hb, 1), 1, "one generation alive");
        // A freed generation's stale report routes to nothing.
        hb.observe(Observation::new(TrialId(0), 0, 1.0, 0.0));
        // Growing SHA with 12 jobs out opens a bracket whenever the open
        // ones are blocked, and each blocked one holds a job.
        let config = BracketLoopConfig::sha(9, 1.0, 9.0, 3.0).growing();
        let mut sha = BracketLoop::new(space(), config);
        let most = run_long(&mut sha, 12);
        assert!((2..=13).contains(&most), "{most} brackets open at once");
    }

    #[test]
    fn hyperband_waits_when_bracket_blocked() {
        let cfg = BracketLoopConfig::hyperband(1.0, 9.0, 3.0);
        let mut hb = BracketLoop::new(space(), cfg.clone());
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
        let cfg = BracketLoopConfig::async_hyperband(1.0, 9.0, 3.0);
        let mut ahb = BracketLoop::new(space(), cfg);
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
        let cfg = BracketLoopConfig::async_hyperband(1.0, 9.0, 3.0);
        let mut ahb = BracketLoop::new(space(), cfg);
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
        let cfg = BracketLoopConfig::async_hyperband(1.0, 256.0, 4.0).with_brackets(4);
        let ahb = BracketLoop::new(space(), cfg);
        assert_eq!(ahb.export_state().brackets.len(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one bracket")]
    fn zero_brackets_rejected() {
        let _ = BracketLoopConfig::hyperband(1.0, 9.0, 3.0).with_brackets(0);
    }
}
