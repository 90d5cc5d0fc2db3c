//! Hyperband (synchronous) and asynchronous Hyperband.
//!
//! Hyperband runs SHA brackets with different early-stopping rates `s` to
//! hedge over the choice of `s`. The asynchronous variant of Section 3.2
//! "loops through brackets of ASHA sequentially as is done in the original
//! Hyperband", switching brackets "when a budget corresponding to a
//! hypothetical bracket of SHA would be depleted".

use asha_space::SearchSpace;

use crate::asha::{Asha, AshaConfig};
use crate::budget::{self, min_configs, Geometry};
use crate::error::Error;
use crate::sampler::ConfigSampler;
use crate::scheduler::{Decision, Job, Observation, Scheduler, TrialId};
use crate::sha::{ShaConfig, SyncSha};
use crate::state::{AsyncHyperbandState, DurableScheduler, SchedulerState};

/// Trial-id stride separating the namespaces of different brackets, so that
/// wrappers can route observations back to the bracket that issued them
/// without a lookup table.
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

    fn sha_config(&self, s: usize) -> ShaConfig {
        ShaConfig {
            num_configs: self.bracket_num_configs(s),
            min_resource: self.min_resource,
            max_resource: self.max_resource,
            reduction_factor: self.reduction_factor,
            stop_rate: s,
            grow_brackets: false,
        }
    }
}

/// Synchronous Hyperband: run SHA brackets `s = 0, 1, ..., num_brackets-1`
/// to completion, one after another, looping back to `s = 0` (the paper's
/// sequential experiments loop "through 5 brackets of SHA, moving from
/// bracket `s=0, r=R/256` to bracket `s=4, r=R`").
pub struct Hyperband {
    space: SearchSpace,
    config: HyperbandConfig,
    current: SyncSha,
    bracket_idx: usize,
    generation: u64,
    name: String,
}

impl std::fmt::Debug for Hyperband {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hyperband")
            .field("config", &self.config)
            .field("bracket_idx", &self.bracket_idx)
            .finish_non_exhaustive()
    }
}

impl Hyperband {
    /// Create a synchronous Hyperband scheduler.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`HyperbandConfig::new`]).
    pub fn new(space: SearchSpace, config: HyperbandConfig) -> Self {
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        let current = SyncSha::new(space.clone(), config.sha_config(0));
        Hyperband {
            space,
            config,
            current,
            bracket_idx: 0,
            generation: 0,
            name: "Hyperband".to_owned(),
        }
    }

    fn advance_bracket(&mut self) {
        self.bracket_idx = (self.bracket_idx + 1) % self.config.num_brackets;
        self.generation += 1;
        self.current = SyncSha::new(self.space.clone(), self.config.sha_config(self.bracket_idx));
    }

    fn tag(&self, mut job: Job) -> Job {
        job.trial = TrialId(job.trial.0 + self.generation * BRACKET_STRIDE);
        job.bracket = self.bracket_idx;
        job
    }
}

impl Scheduler for Hyperband {
    fn suggest(&mut self, rng: &mut dyn rand::RngCore) -> Decision {
        loop {
            match self.current.suggest(rng) {
                Decision::Run(job) => return Decision::Run(self.tag(job)),
                Decision::Wait => return Decision::Wait,
                Decision::Finished => self.advance_bracket(),
            }
        }
    }

    fn observe(&mut self, obs: Observation) {
        // Only the current bracket has outstanding jobs; results from an
        // earlier generation are stale by construction.
        if obs.trial.0 / BRACKET_STRIDE != self.generation {
            return;
        }
        let local = Observation {
            trial: TrialId(obs.trial.0 % BRACKET_STRIDE),
            ..obs
        };
        self.current.observe(local);
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn wait_is_stable(&self) -> bool {
        // A `Wait` comes straight from the current (stable) SyncSha bracket
        // without advancing generations, so re-asking is a pure re-read.
        true
    }
}

/// Asynchronous Hyperband (Section 3.2): one ASHA instance per bracket,
/// visited round-robin, switching when the bracket has *issued* as much
/// resource as a hypothetical synchronous SHA bracket would consume.
pub struct AsyncHyperband {
    config: HyperbandConfig,
    brackets: Vec<Asha>,
    /// Per-bracket budget of the hypothetical SHA bracket.
    budgets: Vec<f64>,
    /// Resource issued in the current activation of the current bracket.
    spent: f64,
    current: usize,
    name: String,
}

impl std::fmt::Debug for AsyncHyperband {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncHyperband")
            .field("config", &self.config)
            .field("current", &self.current)
            .field("spent", &self.spent)
            .finish_non_exhaustive()
    }
}

impl AsyncHyperband {
    /// Create an asynchronous Hyperband scheduler.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`HyperbandConfig::new`]).
    pub fn new(space: SearchSpace, config: HyperbandConfig) -> Self {
        AsyncHyperband::with_sampler_factory(space, config, |_| {
            Box::new(crate::sampler::RandomSampler::new())
        })
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
        let brackets: Vec<Asha> = (0..config.num_brackets)
            .map(|s| {
                Asha::with_sampler(
                    space.clone(),
                    AshaConfig::new(
                        config.min_resource,
                        config.max_resource,
                        config.reduction_factor,
                    )
                    .with_stop_rate(s),
                    factory(s),
                )
            })
            .collect();
        let budgets: Vec<f64> = (0..config.num_brackets)
            .map(|s| {
                budget::bracket_budget(
                    config.bracket_num_configs(s),
                    config.min_resource,
                    config.max_resource,
                    config.reduction_factor,
                    s,
                )
            })
            .collect();
        let name = match brackets[0].sampler_name() {
            "random" => "Hyperband (async)".to_owned(),
            sampler => format!("Hyperband (async)+{sampler}"),
        };
        AsyncHyperband {
            config,
            brackets,
            budgets,
            spent: 0.0,
            current: 0,
            name,
        }
    }

    /// Capture the scheduler's full mutable state as plain data (see
    /// [`SchedulerState`](crate::SchedulerState)): one
    /// [`AshaState`](crate::AshaState) per bracket plus
    /// the budget cursor. Per-bracket budgets are recomputed on restore.
    pub fn export_state(&self) -> AsyncHyperbandState {
        AsyncHyperbandState {
            config: self.config.clone(),
            brackets: self.brackets.iter().map(Asha::export_state).collect(),
            spent: self.spent,
            current: self.current,
            name: self.name.clone(),
        }
    }

    /// Rebuild a scheduler from a state captured by
    /// [`AsyncHyperband::export_state`], with per-bracket samplers built by
    /// `factory`. Sampler cursors, if any, are restored separately via
    /// [`DurableScheduler::restore_sampler_cursors`].
    ///
    /// # Panics
    ///
    /// Panics if the state is one no `AsyncHyperband` can hold (see
    /// `AsyncHyperbandState::validate`: an invalid config, a bracket
    /// count that does not match it, a bracket `Asha` cannot hold).
    pub fn from_state_with_sampler_factory(
        space: SearchSpace,
        state: AsyncHyperbandState,
        factory: impl Fn(usize) -> Box<dyn ConfigSampler>,
    ) -> Self {
        state.validate().unwrap_or_else(|e| panic!("{e}"));
        let mut ahb =
            AsyncHyperband::with_sampler_factory(space.clone(), state.config.clone(), &factory);
        ahb.brackets = state
            .brackets
            .into_iter()
            .enumerate()
            .map(|(s, b)| Asha::from_state_with_sampler(space.clone(), b, factory(s)))
            .collect();
        ahb.spent = state.spent;
        ahb.current = state.current;
        ahb.name = state.name;
        ahb
    }

    /// Read-only access to the per-bracket ASHA instances.
    #[cfg(test)]
    pub(crate) fn brackets(&self) -> &[Asha] {
        &self.brackets
    }

    /// Best `(trial, loss)` across every bracket, using intermediate losses.
    #[cfg(test)]
    pub(crate) fn best(&self) -> Option<(TrialId, f64)> {
        self.brackets
            .iter()
            .enumerate()
            .filter_map(|(b, asha)| {
                asha.best()
                    .map(|(t, l)| (TrialId(t.0 + b as u64 * BRACKET_STRIDE), l))
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
    }
}

impl Scheduler for AsyncHyperband {
    fn suggest(&mut self, rng: &mut dyn rand::RngCore) -> Decision {
        if self.spent >= self.budgets[self.current] {
            self.current = (self.current + 1) % self.brackets.len();
            self.spent = 0.0;
        }
        let b = self.current;
        match self.brackets[b].suggest(rng) {
            Decision::Run(mut job) => {
                self.spent += job.resource;
                job.trial = TrialId(job.trial.0 + b as u64 * BRACKET_STRIDE);
                job.bracket = b;
                Decision::Run(job)
            }
            // Per-bracket ASHA without a trial cap never waits/finishes, but
            // keep the fallthrough total.
            other => other,
        }
    }

    fn observe(&mut self, obs: Observation) {
        let b = (obs.trial.0 / BRACKET_STRIDE) as usize;
        if b >= self.brackets.len() {
            return;
        }
        let local = Observation {
            trial: TrialId(obs.trial.0 % BRACKET_STRIDE),
            ..obs
        };
        self.brackets[b].observe(local);
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn wait_is_stable(&self) -> bool {
        // A `Wait` can only come from a bracket whose own `Wait` is stable,
        // after any budget rotation already happened on the first call;
        // re-asking repeats the same rotation-free, RNG-free path.
        true
    }
}

impl DurableScheduler for AsyncHyperband {
    fn durable_state(&self) -> SchedulerState {
        SchedulerState::AsyncHyperband(self.export_state())
    }

    fn sampler_name(&self) -> &str {
        // Every bracket uses the same sampler kind by construction.
        self.brackets[0].sampler_name()
    }

    fn sampler_cursors(&self) -> Vec<Option<String>> {
        self.brackets
            .iter()
            .map(Asha::export_sampler_cursor)
            .collect()
    }

    fn restore_sampler_cursors(&mut self, cursors: &[Option<String>]) {
        for (bracket, cursor) in self.brackets.iter_mut().zip(cursors) {
            if let Some(cursor) = cursor {
                bracket.restore_sampler_cursor(cursor);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!(cfg.sha_config(0).validate().is_ok());
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
        let bracket1 = &ahb.brackets()[1];
        assert_eq!(bracket1.best().map(|(_, l)| l), Some(0.123));
    }

    #[test]
    fn async_hyperband_best_spans_brackets() {
        let cfg = HyperbandConfig::new(1.0, 9.0, 3.0);
        let mut ahb = AsyncHyperband::new(space(), cfg);
        let mut r = rng();
        for i in 0..50 {
            let job = ahb.suggest(&mut r).job().unwrap();
            ahb.observe(Observation::for_job(&job, 100.0 - i as f64));
        }
        let (_, best) = ahb.best().unwrap();
        assert_eq!(best, 51.0);
    }

    #[test]
    fn with_brackets_limits_the_loop() {
        let cfg = HyperbandConfig::new(1.0, 256.0, 4.0).with_brackets(4);
        let ahb = AsyncHyperband::new(space(), cfg);
        assert_eq!(ahb.brackets().len(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one bracket")]
    fn zero_brackets_rejected() {
        let _ = HyperbandConfig::new(1.0, 9.0, 3.0).with_brackets(0);
    }
}
