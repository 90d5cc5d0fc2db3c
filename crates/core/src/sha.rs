//! Synchronous Successive Halving (Algorithm 1 of the paper), including the
//! bracket-growing parallelization scheme of Falkner et al. (2018) that the
//! paper's distributed experiments compare against.

use asha_space::SearchSpace;

use crate::asha::{display_name, AshaConfig};
use crate::budget::{min_configs, Geometry};
use crate::error::Error;
use crate::hyperband::{bracket_loop_scheduler, BracketLoop};
use crate::sampler::{ConfigSampler, RandomSampler};
use crate::scheduler::Decision;
use crate::state::ShaState;

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
    /// scheduler then reports [`Decision::Finished`](crate::Decision::Finished).
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

    /// Keep adding brackets when all existing ones are blocked.
    pub fn growing(mut self) -> Self {
        self.grow_brackets = true;
        self
    }

    /// The bracket's ladder geometry, or why the config describes none.
    pub(crate) fn geometry(&self) -> Result<Geometry, Error> {
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

    /// The barrier bracket of `n` trials each bracket of this SHA runs.
    pub fn bracket_config(&self) -> AshaConfig {
        AshaConfig::new(self.min_resource, self.max_resource, self.reduction_factor)
            .with_stop_rate(self.stop_rate)
            .with_max_trials(self.num_configs)
    }

    /// Check Algorithm 1's preconditions without building a scheduler: a
    /// valid geometry and enough configurations that at least one reaches
    /// `R` (line 3's `n >= eta^(s_max - s)`, rounded rung by rung for a
    /// fractional `eta`; see `budget::min_configs`). Decoders of untrusted
    /// input call this; [`SyncSha::new`] panics on the same conditions.
    pub fn validate(&self) -> Result<(), Error> {
        let top = self.geometry()?.num_rungs() - 1;
        let needed = min_configs(self.reduction_factor, top);
        if self.num_configs < needed {
            return Err(Error::config(format!(
                "n = {} too small: need at least {needed} to reach the top rung",
                self.num_configs
            )));
        }
        Ok(())
    }
}

/// Synchronous Successive Halving: every configuration in a rung must finish
/// before the top `1/eta` are promoted to the next rung — the property that
/// makes the algorithm sensitive to stragglers and dropped jobs (Section 3.1
/// and Appendix A.1). Each bracket is a barrier bracket of `n` trials;
/// trial `t` of bracket `b` is `TrialId(b * n + t)`, and its jobs are
/// tagged bracket `b`.
#[derive(Debug)]
pub struct SyncSha {
    config: ShaConfig,
    pub(crate) brackets: BracketLoop,
}

bracket_loop_scheduler!(SyncSha, SyncSha);

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
    /// TPE here), shared by every bracket.
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
        let name = display_name("SHA", &*sampler);
        let n = config.num_configs as u64;
        let mut brackets = BracketLoop::new(space, vec![sampler], n, name);
        brackets.open(config.bracket_config(), true);
        SyncSha { config, brackets }
    }

    /// Rename the scheduler (used by wrappers such as BOHB).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.brackets.name = name.into();
    }

    /// The lowest open bracket with a job issues it; with `grow_brackets`, a
    /// new bracket opens whenever every open one is blocked, exactly like
    /// the Falkner et al. scheme.
    fn next(&mut self, rng: &mut dyn rand::RngCore) -> Decision {
        let config = &self.config;
        let grow = |_, _| config.grow_brackets.then(|| config.bracket_config());
        let mut decision = self.brackets.suggest(rng, grow);
        if let Decision::Run(job) = &mut decision {
            job.bracket = (job.trial.0 / config.num_configs as u64) as usize;
        }
        decision
    }

    /// Capture the scheduler's full mutable state as plain data (see
    /// [`SchedulerState`](crate::SchedulerState)): each open bracket's
    /// state and barrier. Restoring it with
    /// [`SyncSha::from_state_with_sampler`] yields a scheduler that makes
    /// identical decisions given the same RNG stream.
    pub fn export_state(&self) -> ShaState {
        ShaState {
            config: self.config.clone(),
            opened: self.brackets.opened,
            brackets: self.brackets.export(),
            name: self.brackets.name.clone(),
        }
    }

    /// Rebuild a scheduler from a state captured by
    /// [`SyncSha::export_state`], with a fresh `sampler` attached.
    ///
    /// # Panics
    ///
    /// Panics if the state is one no `SyncSha` can hold (see
    /// `ShaState::validate`).
    pub fn from_state_with_sampler(
        space: SearchSpace,
        state: ShaState,
        sampler: Box<dyn ConfigSampler>,
    ) -> Self {
        state.validate().unwrap_or_else(|e| panic!("{e}"));
        let mut sha = SyncSha::with_sampler(space, state.config, sampler);
        sha.brackets.restore(state.opened, state.brackets);
        sha.brackets.name = state.name;
        sha
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{Job, Observation, Scheduler, TrialId};
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
        let resource = |cfg: &ShaConfig, k| cfg.geometry().unwrap().resource(k);
        assert_eq!(resource(&cfg, 0), 1.0);
        assert_eq!(resource(&cfg, 1), 3.0);
        assert_eq!(resource(&cfg, 2), 9.0);
        let b1 = ShaConfig {
            stop_rate: 1,
            ..cfg
        };
        assert_eq!(b1.num_rungs(), 2);
        assert_eq!(resource(&b1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn too_few_configs_is_rejected() {
        let _ = SyncSha::new(space(), ShaConfig::new(8, 1.0, 9.0, 3.0));
    }

    /// With `eta = 2.5` and two rungs above the base, each rung keeps
    /// `floor(n / 2.5)`: 7 → 2 → 0 never reaches `R`, 8 → 3 → 1 does.
    #[test]
    fn fractional_eta_needs_enough_configs_to_reach_the_top() {
        let too_few = ShaConfig::new(7, 1.0, 6.25, 2.5);
        assert!(too_few.validate().is_err(), "7 → 2 → 0 stops below R");
        let mut sha = SyncSha::new(space(), ShaConfig::new(8, 1.0, 6.25, 2.5));
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
        assert!(sha.brackets.brackets.is_empty());
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
        assert_eq!(sha.brackets.brackets.len(), 2);
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
        let mut sha = SyncSha::new(space(), ShaConfig::new(9, 1.0, 9.0, 3.0));
        let mut r = rng();
        let records = |sha: &SyncSha| {
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
        let mut sha = SyncSha::new(space(), ShaConfig::new(9, 1.0, 9.0, 3.0));
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
        assert_eq!((b.asha.trials.len(), b.asha.trials_started), (9, 9));
        assert_eq!(b.asha.trials[2].1, jobs[2].config);
        sha.observe(Observation::for_job(&survivor, 0.5));
        let b = &sha.export_state().brackets[0];
        assert_eq!(b.asha.rungs[1].records, [(0, 0.5)]);
        assert!(b.asha.outstanding.is_empty());
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
        assert!(!sha.brackets.brackets.is_empty());
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

    /// The barrier keeps `Rung`'s `(loss, trial)` order: of two tied
    /// losses at the cut, the lower id survives whichever reported first.
    #[test]
    fn a_tie_at_the_cut_keeps_the_lower_trial_id() {
        let mut sha = SyncSha::new(space(), ShaConfig::new(3, 1.0, 3.0, 3.0));
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
        assert!(sha.brackets.brackets.is_empty());
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
        assert!(sha.brackets.brackets.is_empty());
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
