//! Synchronous Successive Halving (Algorithm 1 of the paper), including the
//! bracket-growing parallelization scheme of Falkner et al. (2018) that the
//! paper's distributed experiments compare against.

use std::collections::BTreeSet;

use asha_space::{Config, SearchSpace};

use crate::budget::Geometry;
use crate::error::Error;
use crate::fx::{FxHashMap, FxHashSet};
use crate::sampler::{ConfigSampler, RandomSampler};
use crate::scheduler::{Decision, Job, Observation, Scheduler, TrialId};
use crate::state::{BracketState, DurableScheduler, SchedulerState, SyncShaState};

/// Configuration of a [`SyncSha`] scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct ShaConfig {
    /// Number of configurations `n` evaluated in the base rung of each
    /// bracket.
    pub num_configs: usize,
    /// Minimum resource `r`.
    pub min_resource: f64,
    /// Maximum resource `R`.
    pub max_resource: f64,
    /// Reduction factor `eta >= 2`.
    pub reduction_factor: f64,
    /// Early-stopping rate `s`.
    pub stop_rate: usize,
    /// Grow a fresh bracket whenever every existing bracket is blocked
    /// waiting on stragglers — the parallelization scheme of Falkner et al.
    /// (2018) ("add brackets when there are no jobs available in existing
    /// brackets"). With `false`, a single bracket runs to completion and the
    /// scheduler then reports [`Decision::Finished`].
    pub grow_brackets: bool,
}

impl ShaConfig {
    /// Standard single-bracket configuration with `s = 0`.
    pub fn new(num_configs: usize, min_resource: f64, max_resource: f64, eta: f64) -> Self {
        ShaConfig {
            num_configs,
            min_resource,
            max_resource,
            reduction_factor: eta,
            stop_rate: 0,
            grow_brackets: false,
        }
    }

    /// Set the early-stopping rate `s`.
    pub fn with_stop_rate(mut self, stop_rate: usize) -> Self {
        self.stop_rate = stop_rate;
        self
    }

    /// Keep adding brackets when all existing ones are blocked.
    pub fn growing(mut self) -> Self {
        self.grow_brackets = true;
        self
    }

    /// The bracket's ladder geometry, or why the config describes none.
    pub fn geometry(&self) -> Result<Geometry, Error> {
        Geometry::new(
            self.min_resource,
            Some(self.max_resource),
            self.reduction_factor,
            self.stop_rate,
        )
    }

    /// Number of rungs in a bracket: `floor(log_eta(R/r)) - s + 1`.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid (see [`ShaConfig::validate`]).
    pub fn num_rungs(&self) -> usize {
        self.geometry()
            .unwrap_or_else(|e| panic!("{e}"))
            .num_rungs()
    }

    /// Cumulative resource of rung `k`: `min(r * eta^(s+k), R)`.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid (see [`ShaConfig::validate`]).
    pub fn rung_resource(&self, rung: usize) -> f64 {
        self.geometry()
            .unwrap_or_else(|e| panic!("{e}"))
            .resource(rung)
    }

    /// Check Algorithm 1's preconditions without building a scheduler: a
    /// valid geometry and `n >= eta^(s_max - s)` (line 3), so that at least
    /// one configuration reaches `R`. Decoders of untrusted input call this;
    /// [`SyncSha::new`] panics on the same conditions.
    pub fn validate(&self) -> Result<(), Error> {
        let top = self.geometry()?.num_rungs() - 1;
        let needed = self.reduction_factor.powi(top as i32) as usize;
        if self.num_configs < needed {
            return Err(Error::config(format!(
                "n = {} too small: need at least eta^(s_max - s) = {needed}",
                self.num_configs
            )));
        }
        Ok(())
    }
}

/// One synchronous bracket in flight.
#[derive(Debug)]
struct Bracket {
    /// Trials not yet sampled for the base rung.
    remaining_to_sample: usize,
    /// Survivors queued for issue at the current rung.
    queue: Vec<(TrialId, Config)>,
    /// Jobs issued at the current rung and not yet reported.
    outstanding: usize,
    /// Trials currently issued (and unreported) at the current rung. A
    /// report is accepted only for trials in this set, which makes duplicate
    /// reports (executor retries) and reports for never-issued trials
    /// harmless rather than barrier-corrupting.
    issued: FxHashSet<TrialId>,
    /// Results gathered at the current rung.
    results: Vec<(TrialId, f64)>,
    /// Current rung index.
    rung: usize,
    done: bool,
}

impl Bracket {
    fn fresh(num_configs: usize) -> Self {
        Bracket {
            remaining_to_sample: num_configs,
            queue: Vec::new(),
            outstanding: 0,
            issued: FxHashSet::default(),
            results: Vec::new(),
            rung: 0,
            done: false,
        }
    }

    fn has_work(&self) -> bool {
        !self.done && (self.remaining_to_sample > 0 || !self.queue.is_empty())
    }

    fn idle(&self) -> bool {
        self.done || (self.remaining_to_sample == 0 && self.queue.is_empty())
    }
}

/// Synchronous Successive Halving: every configuration in a rung must finish
/// before the top `1/eta` are promoted to the next rung — the property that
/// makes the algorithm sensitive to stragglers and dropped jobs (Section 3.1
/// and Appendix A.1).
pub struct SyncSha {
    space: SearchSpace,
    config: ShaConfig,
    geometry: Geometry,
    sampler: Box<dyn ConfigSampler>,
    brackets: Vec<Bracket>,
    /// Work index: exactly the bracket indices whose `has_work()` is true,
    /// kept in sync after every mutation so `suggest` finds the first
    /// issuable bracket in O(1) instead of scanning every bracket. Derived
    /// data — rebuilt on restore, never serialized.
    active: BTreeSet<usize>,
    trial_meta: FxHashMap<TrialId, (usize, Config)>,
    next_trial: u64,
    name: String,
}

impl std::fmt::Debug for SyncSha {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyncSha")
            .field("config", &self.config)
            .field("brackets", &self.brackets.len())
            .finish_non_exhaustive()
    }
}

impl SyncSha {
    /// Create a synchronous SHA scheduler with uniform random sampling.
    ///
    /// # Panics
    ///
    /// Panics if the configuration violates Algorithm 1's preconditions
    /// (`eta < 2`, bad resources, `s` too large, or `n < eta^(s_max - s)`).
    pub fn new(space: SearchSpace, config: ShaConfig) -> Self {
        SyncSha::with_sampler(space, config, Box::new(RandomSampler::new()))
    }

    /// Create a synchronous SHA scheduler with a custom sampler (BOHB uses a
    /// TPE here).
    ///
    /// # Panics
    ///
    /// Same conditions as [`SyncSha::new`].
    pub fn with_sampler(
        space: SearchSpace,
        config: ShaConfig,
        sampler: Box<dyn ConfigSampler>,
    ) -> Self {
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        let geometry = config.geometry().expect("validated above");
        let name = if sampler.name() == "random" {
            "SHA".to_owned()
        } else {
            format!("SHA+{}", sampler.name())
        };
        let first = Bracket::fresh(config.num_configs);
        let mut active = BTreeSet::new();
        if first.has_work() {
            active.insert(0);
        }
        SyncSha {
            space,
            config,
            geometry,
            sampler,
            brackets: vec![first],
            active,
            trial_meta: FxHashMap::default(),
            next_trial: 0,
            name,
        }
    }

    /// Rename the scheduler (used by wrappers such as BOHB).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The scheduler's configuration.
    pub fn config(&self) -> &ShaConfig {
        &self.config
    }

    /// Number of brackets started so far.
    pub fn bracket_count(&self) -> usize {
        self.brackets.len()
    }

    /// Whether every bracket has run to completion.
    pub fn all_done(&self) -> bool {
        self.brackets.iter().all(|b| b.done)
    }

    /// Capture the scheduler's full mutable state as plain data (see
    /// [`crate::state`]). Restoring it with
    /// [`SyncSha::from_state_with_sampler`] yields a
    /// scheduler that makes identical decisions given the same RNG stream.
    pub fn export_state(&self) -> SyncShaState {
        let brackets = self
            .brackets
            .iter()
            .map(|b| {
                let mut issued: Vec<u64> = b.issued.iter().map(|t| t.0).collect();
                issued.sort_unstable();
                BracketState {
                    remaining_to_sample: b.remaining_to_sample,
                    queue: b.queue.iter().map(|(t, c)| (t.0, c.clone())).collect(),
                    outstanding: b.outstanding,
                    issued,
                    results: b.results.iter().map(|&(t, l)| (t.0, l)).collect(),
                    rung: b.rung,
                    done: b.done,
                }
            })
            .collect();
        let mut trial_meta: Vec<(u64, usize, Config)> = self
            .trial_meta
            .iter()
            .map(|(t, (b, c))| (t.0, *b, c.clone()))
            .collect();
        trial_meta.sort_unstable_by_key(|&(t, _, _)| t);
        SyncShaState {
            config: self.config.clone(),
            brackets,
            trial_meta,
            next_trial: self.next_trial,
            name: self.name.clone(),
        }
    }

    /// Rebuild a scheduler from a state captured by
    /// [`SyncSha::export_state`], with a fresh `sampler` attached.
    ///
    /// # Panics
    ///
    /// Panics if the embedded config is invalid (same conditions as
    /// [`SyncSha::new`]).
    pub fn from_state_with_sampler(
        space: SearchSpace,
        state: SyncShaState,
        sampler: Box<dyn ConfigSampler>,
    ) -> Self {
        let mut sha = SyncSha::with_sampler(space, state.config.clone(), sampler);
        sha.brackets = state
            .brackets
            .into_iter()
            .map(|b| Bracket {
                remaining_to_sample: b.remaining_to_sample,
                queue: b.queue.into_iter().map(|(t, c)| (TrialId(t), c)).collect(),
                outstanding: b.outstanding,
                issued: b.issued.into_iter().map(TrialId).collect(),
                results: b
                    .results
                    .into_iter()
                    .map(|(t, l)| (TrialId(t), l))
                    .collect(),
                rung: b.rung,
                done: b.done,
            })
            .collect();
        // The work index is derived data: rebuild it from the restored
        // brackets (old snapshots carry no index fields and need none).
        sha.active = (0..sha.brackets.len())
            .filter(|&i| sha.brackets[i].has_work())
            .collect();
        sha.trial_meta = state
            .trial_meta
            .into_iter()
            .map(|(t, b, c)| (TrialId(t), (b, c)))
            .collect();
        sha.next_trial = state.next_trial;
        sha.name = state.name;
        sha
    }

    /// Re-derive one bracket's membership in the work index after a
    /// mutation.
    fn sync_active(&mut self, bracket_idx: usize) {
        if self.brackets[bracket_idx].has_work() {
            self.active.insert(bracket_idx);
        } else {
            self.active.remove(&bracket_idx);
        }
    }

    fn issue_from(&mut self, bracket_idx: usize, rng: &mut dyn rand::RngCore) -> Job {
        let rung = self.brackets[bracket_idx].rung;
        let (trial, config) = if self.brackets[bracket_idx].remaining_to_sample > 0 {
            self.brackets[bracket_idx].remaining_to_sample -= 1;
            let trial = TrialId(self.next_trial);
            self.next_trial += 1;
            let fidelity = crate::sampler::Fidelity::base(self.geometry.resource(0));
            let config = self.sampler.propose_at(&self.space, fidelity, rng);
            self.trial_meta.insert(trial, (bracket_idx, config.clone()));
            (trial, config)
        } else {
            self.brackets[bracket_idx]
                .queue
                .pop()
                .expect("issue_from called with work available")
        };
        self.brackets[bracket_idx].outstanding += 1;
        self.brackets[bracket_idx].issued.insert(trial);
        self.sync_active(bracket_idx);
        Job {
            trial,
            config,
            rung,
            resource: self.geometry.resource(rung),
            bracket: bracket_idx,
            inherit_from: None,
        }
    }

    fn complete_rung(&mut self, bracket_idx: usize) {
        let num_rungs = self.geometry.num_rungs();
        let eta = self.config.reduction_factor;
        let bracket = &mut self.brackets[bracket_idx];
        let k = (bracket.results.len() as f64 / eta).floor() as usize;
        if bracket.rung + 1 >= num_rungs || k == 0 {
            bracket.done = true;
            bracket.results.clear();
            self.sync_active(bracket_idx);
            return;
        }
        let mut sorted = std::mem::take(&mut bracket.results);
        // Poisoned trials (infinite or NaN loss — a crashed or diverged job)
        // are never promoted; `k` still follows Algorithm 1's |rung|/eta.
        sorted.retain(|&(_, loss)| loss.is_finite());
        sorted.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        sorted.truncate(k);
        if sorted.is_empty() {
            // Every survivor candidate was poisoned: the bracket cannot
            // continue meaningfully.
            bracket.done = true;
            self.sync_active(bracket_idx);
            return;
        }
        bracket.rung += 1;
        // Pop order is LIFO; reverse so the best survivor is issued first.
        let meta = &self.trial_meta;
        bracket.queue = sorted
            .into_iter()
            .rev()
            .map(|(t, _)| (t, meta[&t].1.clone()))
            .collect();
        self.sync_active(bracket_idx);
    }
}

impl Scheduler for SyncSha {
    fn suggest(&mut self, rng: &mut dyn rand::RngCore) -> Decision {
        // The work index holds exactly the brackets with issuable work, so
        // the lowest-index preference of the original linear scan is a
        // single ordered-set lookup.
        if let Some(&idx) = self.active.first() {
            return Decision::Run(self.issue_from(idx, rng));
        }
        if self.config.grow_brackets {
            // Every bracket is blocked (or done): start a new one, exactly
            // like the Falkner et al. scheme.
            self.brackets.push(Bracket::fresh(self.config.num_configs));
            let idx = self.brackets.len() - 1;
            self.sync_active(idx);
            return Decision::Run(self.issue_from(idx, rng));
        }
        if self.all_done() {
            Decision::Finished
        } else {
            Decision::Wait
        }
    }

    fn observe(&mut self, obs: Observation) {
        let Some((bracket_idx, config)) = self.trial_meta.get(&obs.trial).cloned() else {
            return; // unsolicited
        };
        {
            let bracket = &mut self.brackets[bracket_idx];
            if bracket.done || bracket.rung != obs.rung {
                return; // stale report
            }
            if !bracket.issued.remove(&obs.trial) {
                return; // duplicate, or never issued at this rung
            }
            bracket.outstanding -= 1;
            bracket.results.push((obs.trial, obs.loss));
        }
        self.sampler
            .record(&config, obs.rung, obs.resource, obs.loss);
        let bracket = &self.brackets[bracket_idx];
        if bracket.outstanding == 0 && bracket.idle() && !bracket.results.is_empty() {
            self.complete_rung(bracket_idx);
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn wait_is_stable(&self) -> bool {
        // `suggest` returns `Wait` only when no bracket has work and
        // growing is off; that check consumes no RNG and mutates nothing,
        // so the answer cannot change until an `observe` lands.
        true
    }
}

impl DurableScheduler for SyncSha {
    fn durable_state(&self) -> SchedulerState {
        SchedulerState::SyncSha(self.export_state())
    }

    fn sampler_name(&self) -> &str {
        self.sampler.name()
    }

    fn sampler_cursors(&self) -> Vec<Option<String>> {
        vec![self.sampler.export_cursor()]
    }

    fn restore_sampler_cursors(&mut self, cursors: &[Option<String>]) {
        if let Some(Some(cursor)) = cursors.first() {
            self.sampler.restore_cursor(cursor);
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
    fn config_rungs_match_figure1() {
        let cfg = ShaConfig::new(9, 1.0, 9.0, 3.0);
        assert_eq!(cfg.num_rungs(), 3);
        assert_eq!(cfg.rung_resource(0), 1.0);
        assert_eq!(cfg.rung_resource(1), 3.0);
        assert_eq!(cfg.rung_resource(2), 9.0);
        let b1 = cfg.clone().with_stop_rate(1);
        assert_eq!(b1.num_rungs(), 2);
        assert_eq!(b1.rung_resource(0), 3.0);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn too_few_configs_is_rejected() {
        let _ = SyncSha::new(space(), ShaConfig::new(8, 1.0, 9.0, 3.0));
    }

    #[test]
    fn runs_one_bracket_to_completion() {
        let mut sha = SyncSha::new(space(), ShaConfig::new(9, 1.0, 9.0, 3.0));
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
        assert!(sha.all_done());
    }

    #[test]
    fn promotes_the_best_configs() {
        let mut sha = SyncSha::new(space(), ShaConfig::new(9, 1.0, 9.0, 3.0));
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
        let mut sha = SyncSha::new(space(), ShaConfig::new(9, 1.0, 9.0, 3.0));
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
        let mut sha = SyncSha::new(space(), ShaConfig::new(9, 1.0, 9.0, 3.0).growing());
        let mut r = rng();
        let mut jobs = Vec::new();
        for _ in 0..9 {
            jobs.push(sha.suggest(&mut r).job().unwrap());
        }
        // All 9 outstanding: a 10th worker asks for work -> a new bracket.
        let job = sha.suggest(&mut r).job().unwrap();
        assert_eq!(job.bracket, 1);
        assert_eq!(sha.bracket_count(), 2);
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
    fn stale_observations_are_ignored() {
        let mut sha = SyncSha::new(space(), ShaConfig::new(9, 1.0, 9.0, 3.0));
        let mut r = rng();
        let job = sha.suggest(&mut r).job().unwrap();
        sha.observe(Observation::for_job(&job, 1.0));
        sha.observe(Observation::for_job(&job, 0.0)); // duplicate
        sha.observe(Observation::new(TrialId(999), 0, 1.0, 0.0)); // unknown
                                                                  // One result recorded, eight to go.
        assert!(!sha.all_done());
    }

    #[test]
    fn duplicate_reports_do_not_corrupt_the_barrier() {
        let mut sha = SyncSha::new(space(), ShaConfig::new(9, 1.0, 9.0, 3.0));
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

    #[test]
    fn poisoned_trials_are_not_promoted() {
        let mut sha = SyncSha::new(space(), ShaConfig::new(9, 1.0, 9.0, 3.0));
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
        assert!(sha.all_done());
        assert!(
            !promoted.contains(&0) && !promoted.contains(&1),
            "poisoned trials promoted: {promoted:?}"
        );
    }

    #[test]
    fn all_poisoned_rung_finishes_the_bracket() {
        let mut sha = SyncSha::new(space(), ShaConfig::new(9, 1.0, 9.0, 3.0));
        let mut r = rng();
        let mut count = 0;
        while let Decision::Run(job) = sha.suggest(&mut r) {
            count += 1;
            sha.observe(Observation::for_job(&job, f64::INFINITY));
            assert!(count < 100, "runaway bracket");
        }
        // No finite survivor: the bracket stops after the base rung.
        assert_eq!(count, 9);
        assert!(sha.all_done());
    }

    #[test]
    fn nonsquare_n_still_terminates() {
        // n = 10 with eta = 3: rungs of 10, 3, 1.
        let mut sha = SyncSha::new(space(), ShaConfig::new(10, 1.0, 9.0, 3.0));
        let mut r = rng();
        let mut count = 0;
        while let Decision::Run(job) = sha.suggest(&mut r) {
            count += 1;
            sha.observe(Observation::for_job(&job, job.trial.0 as f64));
            assert!(count < 100, "runaway bracket");
        }
        assert_eq!(count, 14);
    }
}
