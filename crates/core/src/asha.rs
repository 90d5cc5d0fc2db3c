//! The Asynchronous Successive Halving Algorithm (Algorithm 2 of the paper),
//! and the bracket engine it shares with synchronous SHA (Algorithm 1).

use asha_space::{Config, SearchSpace};

use crate::fx::FxHashSet;

use crate::budget::Geometry;
use crate::error::Error;
use crate::rung::{PromotionRule, RungLadder, ScanOrder};
use crate::sampler::{ConfigSampler, Fidelity, RandomSampler};
use crate::scheduler::{Decision, Job, Observation, Scheduler, TrialId};
use crate::state::{AshaState, DurableScheduler, SchedulerState};

/// Configuration of an [`Asha`] scheduler.
///
/// Mirrors the inputs of Algorithm 2: minimum resource `r`, maximum resource
/// `R`, reduction factor `eta`, and minimum early-stopping rate `s`.
#[derive(Debug, Clone, PartialEq)]
pub struct AshaConfig {
    /// Minimum resource `r` allocated at the base rung (before the `eta^s`
    /// shift from the early-stopping rate).
    pub min_resource: f64,
    /// Maximum resource `R` a single trial may consume. Ignored in the
    /// infinite horizon.
    pub max_resource: f64,
    /// Reduction factor `eta >= 2`; each rung keeps the top `1/eta`.
    pub reduction_factor: f64,
    /// Early-stopping rate `s`: the base rung trains for `r * eta^s`.
    pub stop_rate: usize,
    /// Run without a top rung (Section 3.3's infinite-horizon variant).
    pub infinite_horizon: bool,
    /// Optional cap on the number of trials added to the bottom rung. When
    /// the cap is reached and nothing is promotable, `suggest` returns
    /// [`Decision::Wait`] (and [`Decision::Finished`] once every trial has
    /// reached the top rung).
    pub max_trials: Option<usize>,
    /// Rung visiting order of the promotion scan. Algorithm 2 prescribes
    /// top-down; bottom-up exists for the ablation study.
    pub scan_order: ScanOrder,
    /// When a rung lets its best trial move up: Algorithm 2's eager rule, or
    /// Hyper-Tune's delayed rule — which is all that separates D-ASHA from
    /// ASHA.
    pub rule: PromotionRule,
}

impl AshaConfig {
    /// Standard finite-horizon configuration with `s = 0` (the paper's
    /// recommended aggressive early-stopping rate).
    pub fn new(min_resource: f64, max_resource: f64, reduction_factor: f64) -> Self {
        AshaConfig {
            min_resource,
            max_resource,
            reduction_factor,
            stop_rate: 0,
            infinite_horizon: false,
            max_trials: None,
            scan_order: ScanOrder::TopDown,
            rule: PromotionRule::Eager,
        }
    }

    /// Random search at full budget: a one-rung ladder with `r = R`, so
    /// every configuration trains to `R` and none is ever promoted; the
    /// bottom rung grows by one fresh draw per free worker (`eta` is moot).
    pub fn random(max_resource: f64) -> Self {
        AshaConfig::new(max_resource, max_resource, 2.0)
    }

    /// Set the early-stopping rate `s`.
    pub fn with_stop_rate(mut self, stop_rate: usize) -> Self {
        self.stop_rate = stop_rate;
        self
    }

    /// Cap the number of distinct trials.
    pub fn with_max_trials(mut self, max_trials: usize) -> Self {
        self.max_trials = Some(max_trials);
        self
    }

    /// Switch to the infinite horizon (no top rung).
    pub fn infinite(mut self) -> Self {
        self.infinite_horizon = true;
        self
    }

    /// Switch to the delayed promotion rule (D-ASHA): a rung promotes only
    /// while `promoted < floor(len/eta)`, so promotions never exceed the
    /// exact `1/eta` quota synchronous SHA would allot. A strong late
    /// arrival waits until the rung grows another slot; there is still no
    /// barrier anywhere.
    pub fn delayed(mut self) -> Self {
        self.rule = PromotionRule::Delayed;
        self
    }

    /// Use a non-default promotion scan order (ablation knob).
    pub fn with_scan_order(mut self, scan_order: ScanOrder) -> Self {
        self.scan_order = scan_order;
        self
    }

    /// The ladder geometry this config describes (`R` is ignored in the
    /// infinite horizon), or why it describes none.
    pub(crate) fn geometry(&self) -> Result<Geometry, Error> {
        Geometry::new(
            self.min_resource,
            (!self.infinite_horizon).then_some(self.max_resource),
            self.reduction_factor,
            self.stop_rate,
        )
    }

    /// Check the config without building a scheduler: `eta >= 2`,
    /// `0 < r <= R`, `s <= floor(log_eta(R/r))`. Decoders of untrusted
    /// input call this; [`Asha::new`] panics on the same conditions.
    pub fn validate(&self) -> Result<(), Error> {
        self.geometry().map(|_| ())
    }
}

/// Every scheduler's display name: `prefix`, `+sampler` unless random.
pub(crate) fn display_name(prefix: &str, sampler: &dyn ConfigSampler) -> String {
    match sampler.name() {
        "random" => prefix.to_owned(),
        sampler => format!("{prefix}+{sampler}"),
    }
}

/// An ASHA scheduler's display name: `ASHA` or `D-ASHA` by its rule, or
/// `Random` on a ladder of one rung, which never promotes.
pub(crate) fn asha_name(config: &AshaConfig, sampler: &dyn ConfigSampler) -> String {
    let one_rung = config.geometry().is_ok_and(|g| g.max_rung() == Some(0));
    let prefix = match config.rule {
        _ if one_rung => "Random",
        PromotionRule::Eager => "ASHA",
        PromotionRule::Delayed => "D-ASHA",
    };
    display_name(prefix, sampler)
}

/// Algorithm 1's barrier on a bracket of `max_trials` trials: every job
/// runs at `rung`, which closes on the last report it can receive (all
/// trials sampled, all survivors of the rung below issued). Its finite top
/// `floor(len/eta)` in `(loss, trial)` order then survive to the next rung.
/// With the bracket's [`AshaState`], it is a barrier bracket's state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Barrier {
    /// The rung whose jobs run; every rung below it has closed.
    pub rung: usize,
    /// Survivors of the rung below not yet issued, the best last.
    pub queue: Vec<u64>,
}

/// One bracket as a scheduler drives it, the sampler lent per call so that
/// one SHA run's brackets share a model: the indexed [`Bracket`], or the
/// brute-force twin in `reference`.
pub(crate) trait Engine: Send + std::fmt::Debug {
    /// Algorithm 2's `get_job`, or the barrier's next job.
    fn suggest(
        &mut self,
        space: &SearchSpace,
        sampler: &mut dyn ConfigSampler,
        rng: &mut dyn rand::RngCore,
    ) -> Decision;

    /// Take the report of a job this bracket issued; anything else (a
    /// duplicate, a retry, an unknown trial) is ignored.
    fn observe(&mut self, obs: Observation, sampler: &mut dyn ConfigSampler);

    /// The barrier, if the bracket runs under one.
    fn barrier(&self) -> Option<&Barrier>;

    /// Whether a barrier bracket is done: every trial sampled and reported,
    /// and no survivor left to issue.
    fn finished(&self) -> bool;

    /// The bracket as an `Asha` state document named `name`.
    fn export_state(&self, name: &str) -> AshaState;
}

/// One bracket: a rung ladder, its trials and their outstanding jobs,
/// promoting by `config.rule` or under a [`Barrier`]. [`Asha`] is a bracket
/// and its sampler; SHA and both Hyperbands loop brackets (`BracketLoop`).
#[derive(Debug)]
pub(crate) struct Bracket {
    config: AshaConfig,
    ladder: RungLadder,
    barrier: Option<Barrier>,
    /// Every trial's configuration, indexed by trial id: ids are dense
    /// `0..next_trial`, so `run` and `observe` index instead of hashing
    /// and an export walks the table in id order.
    trial_configs: Vec<Config>,
    outstanding: FxHashSet<(TrialId, usize)>,
    next_trial: u64,
    trials_started: usize,
}

impl Bracket {
    /// An empty bracket, under a barrier if `barrier`; panics on an invalid
    /// config.
    pub(crate) fn new(config: AshaConfig, barrier: bool) -> Self {
        Bracket {
            ladder: RungLadder::new(config.geometry().unwrap_or_else(|e| panic!("{e}"))),
            config,
            barrier: barrier.then(Barrier::default),
            trial_configs: Vec::new(),
            outstanding: FxHashSet::default(),
            next_trial: 0,
            trials_started: 0,
        }
    }

    /// Rebuild a bracket from `state` (checked by the caller) and `barrier`.
    pub(crate) fn from_state(state: AshaState, barrier: Option<Barrier>) -> Self {
        let mut bracket = Bracket::new(state.config, false);
        bracket.barrier = barrier;
        for (k, rung) in state.rungs.iter().enumerate() {
            for &(trial, loss) in &rung.records {
                bracket.ladder.record(k, TrialId(trial), loss);
            }
            for &trial in &rung.promoted {
                bracket.ladder.mark_promoted(k, TrialId(trial));
            }
        }
        bracket.trial_configs = state.trials.into_iter().map(|(_, c)| c).collect();
        let outstanding = state.outstanding.into_iter();
        bracket.outstanding = outstanding.map(|(t, r)| (TrialId(t), r)).collect();
        bracket.next_trial = state.next_trial;
        bracket.trials_started = state.trials_started;
        bracket
    }

    /// Issue `trial`'s job at `rung`.
    fn run(&mut self, trial: TrialId, rung: usize) -> Job {
        self.outstanding.insert((trial, rung));
        Job {
            trial,
            config: self.trial_configs[trial.0 as usize].clone(),
            rung,
            resource: self.ladder.resource(rung),
            bracket: self.config.stop_rate,
            inherit_from: None,
        }
    }
}

impl Engine for Bracket {
    fn suggest(
        &mut self,
        space: &SearchSpace,
        sampler: &mut dyn ConfigSampler,
        rng: &mut dyn rand::RngCore,
    ) -> Decision {
        // Lines 12–19 of Algorithm 2: look for a promotable configuration,
        // scanning rungs from the top down — or, under a barrier, take the
        // next survivor of the closed rung.
        let promotion = match &mut self.barrier {
            Some(barrier) => barrier.queue.pop().map(|t| (TrialId(t), barrier.rung)),
            None => {
                let scan = self
                    .ladder
                    .find_promotable(self.config.scan_order, self.config.rule);
                scan.map(|(trial, _, rung)| {
                    self.ladder.mark_promoted(rung, trial);
                    (trial, rung + 1)
                })
            }
        };
        if let Some((trial, rung)) = promotion {
            return Decision::Run(self.run(trial, rung));
        }
        // Line 20: otherwise grow the bottom rung — unless a trial cap says
        // we are done adding configurations.
        if self
            .config
            .max_trials
            .is_some_and(|cap| self.trials_started >= cap)
        {
            return if self.outstanding.is_empty() {
                Decision::Finished
            } else {
                Decision::Wait
            };
        }
        let trial = TrialId(self.next_trial);
        self.next_trial += 1;
        self.trials_started += 1;
        let fidelity = Fidelity::base(self.ladder.resource(0));
        self.trial_configs
            .push(sampler.propose_at(space, fidelity, rng));
        Decision::Run(self.run(trial, 0))
    }

    fn observe(&mut self, obs: Observation, sampler: &mut dyn ConfigSampler) {
        if !self.outstanding.remove(&(obs.trial, obs.rung)) {
            return;
        }
        self.ladder.record(obs.rung, obs.trial, obs.loss);
        // Skip the per-trial config lookup entirely for samplers that do not
        // consume reports (the random sampler) — this is the observe hot path.
        if sampler.wants_reports() {
            if let Some(config) = self.trial_configs.get(obs.trial.0 as usize) {
                sampler.record(config, obs.rung, obs.resource, obs.loss);
            }
        }
        // The last report a barrier rung can receive closes it: its
        // survivors queue for the rung above, or, at the top rung or with
        // none, the bracket stays finished.
        let finished = self.finished();
        if let Some(barrier) = self.barrier.as_mut().filter(|_| finished) {
            let survivors = self.ladder.close(barrier.rung);
            if !survivors.is_empty() {
                let queue = survivors.iter().rev().map(|t| t.0).collect();
                (barrier.queue, barrier.rung) = (queue, barrier.rung + 1);
            }
        }
    }

    fn barrier(&self) -> Option<&Barrier> {
        self.barrier.as_ref()
    }

    fn finished(&self) -> bool {
        self.barrier.as_ref().is_some_and(|b| b.queue.is_empty())
            && self.outstanding.is_empty()
            && self.config.max_trials == Some(self.trials_started)
    }

    fn export_state(&self, name: &str) -> AshaState {
        let trials = (0..).zip(&self.trial_configs);
        let trials = trials.map(|(t, c)| (t, c.clone())).collect();
        let mut outstanding: Vec<(u64, usize)> =
            self.outstanding.iter().map(|&(t, r)| (t.0, r)).collect();
        outstanding.sort_unstable();
        AshaState {
            config: self.config.clone(),
            rungs: self.ladder.states(),
            trials,
            outstanding,
            next_trial: self.next_trial,
            trials_started: self.trials_started,
            name: name.to_owned(),
        }
    }
}

/// Asynchronous Successive Halving (ASHA), Algorithm 2 of the paper.
///
/// Every call to [`Scheduler::suggest`] runs the `get_job` procedure: scan
/// the rungs from top to bottom for a configuration in the top `1/eta` of
/// its rung that has not yet been promoted; promote the best such
/// configuration one rung up, or grow the bottom rung with a freshly sampled
/// configuration if no promotion is possible. There is no synchronization
/// barrier anywhere, which is what makes the algorithm robust to stragglers
/// and dropped jobs.
pub struct Asha {
    space: SearchSpace,
    bracket: Bracket,
    sampler: Box<dyn ConfigSampler>,
    name: String,
}

impl std::fmt::Debug for Asha {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Asha")
            .field("config", &self.bracket.config)
            .field("trials_started", &self.bracket.trials_started)
            .field("outstanding", &self.bracket.outstanding.len())
            .finish_non_exhaustive()
    }
}

impl Asha {
    /// Create an ASHA scheduler with uniform random sampling.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid (`eta < 2`, non-positive resources,
    /// or `s > log_eta(R/r)`); see [`AshaConfig::validate`].
    pub fn new(space: SearchSpace, config: AshaConfig) -> Self {
        Asha::with_sampler(space, config, Box::new(RandomSampler::new()))
    }

    /// Create an ASHA scheduler with a custom configuration sampler (e.g.
    /// BOHB's TPE).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Asha::new`].
    pub fn with_sampler(
        space: SearchSpace,
        config: AshaConfig,
        sampler: Box<dyn ConfigSampler>,
    ) -> Self {
        Asha {
            space,
            name: asha_name(&config, &*sampler),
            bracket: Bracket::new(config, false),
            sampler,
        }
    }

    /// Rename the scheduler (used when ASHA is embedded in a larger method).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The rung ladder (read-only), for analysis and tests.
    pub fn ladder(&self) -> &RungLadder {
        &self.bracket.ladder
    }

    /// The attached sampler's serialized cursor, if it keeps one (see
    /// [`ConfigSampler::export_cursor`]). Durable stores persist this next
    /// to [`Asha::export_state`] so adaptive samplers survive recovery warm.
    pub fn export_sampler_cursor(&self) -> Option<String> {
        self.sampler.export_cursor()
    }

    /// Capture the scheduler's full mutable state as plain data (see
    /// [`SchedulerState`](crate::SchedulerState)). Restoring it with [`Asha::from_state`] yields a
    /// scheduler that makes identical decisions given the same RNG stream.
    pub fn export_state(&self) -> AshaState {
        self.bracket.export_state(&self.name)
    }

    /// Rebuild a scheduler from a state captured by [`Asha::export_state`],
    /// with uniform random sampling.
    ///
    /// # Panics
    ///
    /// Panics if the embedded config is invalid (same conditions as
    /// [`Asha::new`]) or the state is one no `Asha` can hold
    /// (`AshaState::validate`).
    pub fn from_state(space: SearchSpace, state: AshaState) -> Self {
        Asha::from_state_with_sampler(space, state, Box::new(RandomSampler::new()))
    }

    /// Rebuild a scheduler from a captured state with a custom sampler. The
    /// sampler's own cursor, if any, is restored separately via
    /// [`ConfigSampler::restore_cursor`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`Asha::from_state`], and if the state is one no
    /// `Asha` can hold (`AshaState::validate`).
    pub fn from_state_with_sampler(
        space: SearchSpace,
        state: AshaState,
        sampler: Box<dyn ConfigSampler>,
    ) -> Self {
        state.validate().unwrap_or_else(|e| panic!("{e}"));
        let (name, rungs) = (state.name.clone(), state.rungs.len());
        let mut bracket = Bracket::from_state(state, None);
        // Infinite-horizon ladders grow on demand; force the restored ladder
        // to the snapshot's length even if trailing rungs are empty.
        if bracket.config.infinite_horizon && rungs > 0 {
            bracket.ladder.rung_mut(rungs - 1);
        }
        Asha {
            space,
            bracket,
            sampler,
            name,
        }
    }
}

impl Scheduler for Asha {
    fn suggest(&mut self, rng: &mut dyn rand::RngCore) -> Decision {
        self.bracket.suggest(&self.space, &mut *self.sampler, rng)
    }

    fn observe(&mut self, obs: Observation) {
        self.bracket.observe(obs, &mut *self.sampler);
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn wait_is_stable(&self) -> bool {
        // `suggest` only returns `Wait` on the trial-cap path, which consumes
        // no RNG and mutates nothing: re-asking without an intervening
        // `observe` always yields `Wait` again.
        true
    }
}

impl DurableScheduler for Asha {
    fn durable_state(&self) -> SchedulerState {
        SchedulerState::Asha(self.export_state())
    }

    fn sampler_name(&self) -> &str {
        self.sampler.name()
    }

    fn sampler_cursors(&self) -> Vec<Option<String>> {
        vec![self.export_sampler_cursor()]
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

    /// Best `(trial, loss)` seen so far, using intermediate losses from every
    /// rung (Section 3.3).
    fn best(asha: &Asha) -> Option<(TrialId, f64)> {
        let records = asha
            .ladder()
            .rungs()
            .iter()
            .flat_map(|r| r.records().iter());
        records.copied().min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Helper: run a job synchronously with loss = f(trial id).
    fn complete(asha: &mut Asha, job: &Job, loss: f64) {
        asha.observe(Observation::for_job(job, loss));
    }

    #[test]
    fn first_jobs_grow_the_bottom_rung() {
        let mut asha = Asha::new(space(), AshaConfig::new(1.0, 9.0, 3.0));
        let mut r = rng();
        for i in 0..5 {
            let job = asha.suggest(&mut r).job().expect("asha never waits");
            assert_eq!(job.rung, 0);
            assert_eq!(job.resource, 1.0);
            assert_eq!(job.trial, TrialId(i));
        }
        assert_eq!(asha.bracket.trials_started, 5);
        assert_eq!(asha.bracket.outstanding.len(), 5);
    }

    #[test]
    fn promotes_after_eta_completions() {
        let mut asha = Asha::new(space(), AshaConfig::new(1.0, 9.0, 3.0));
        let mut r = rng();
        // Complete 3 bottom-rung trials with known losses.
        for loss in [0.3, 0.1, 0.2] {
            let job = asha.suggest(&mut r).job().unwrap();
            complete(&mut asha, &job, loss);
        }
        // Next suggest must promote the best (loss 0.1 = trial 1) to rung 1.
        let job = asha.suggest(&mut r).job().unwrap();
        assert_eq!(job.trial, TrialId(1));
        assert_eq!(job.rung, 1);
        assert_eq!(job.resource, 3.0);
    }

    #[test]
    fn never_waits_without_trial_cap() {
        let mut asha = Asha::new(space(), AshaConfig::new(1.0, 81.0, 3.0));
        let mut r = rng();
        for _ in 0..500 {
            match asha.suggest(&mut r) {
                Decision::Run(_) => {}
                other => panic!("ASHA should always have work, got {other:?}"),
            }
        }
    }

    #[test]
    fn asha_reproduces_figure2_promotion_order() {
        // Figure 2 (right): with 1 worker, losses equal to the config number
        // (configs 1..9 in arrival order, lower is better), ASHA's job
        // sequence is: 1,2,3 at rung 0, then promote config 1 to rung 1,
        // then 4,5,6 at rung 0, promote 6?? — the figure promotes configs
        // 1, 6, 8 based on *its* loss ordering. Here we use losses where
        // trial 0 is best of {0,1,2}: after 3 completions the best is
        // promoted immediately, matching the "promote whenever possible"
        // rule.
        let mut asha = Asha::new(space(), AshaConfig::new(1.0, 9.0, 3.0));
        let mut r = rng();
        let mut sequence = Vec::new();
        // Simulate a single worker: run each suggested job to completion.
        // Losses: lower trial id = better config.
        for _ in 0..13 {
            let job = asha.suggest(&mut r).job().unwrap();
            sequence.push((job.trial.0, job.rung));
            complete(&mut asha, &job, job.trial.0 as f64);
        }
        // Rung-0 jobs 0,1,2 then promotion of 0; then 3,4,5... after 6 more
        // rung-0 results another promotion becomes available, etc.
        assert_eq!(sequence[0..3], [(0, 0), (1, 0), (2, 0)]);
        assert_eq!(sequence[3], (0, 1), "best config promoted immediately");
        // Eventually a rung-2 job appears once rung 1 has 3 trials.
        assert!(
            sequence.iter().any(|&(_, rung)| rung == 2),
            "no rung-2 promotion in {sequence:?}"
        );
    }

    #[test]
    fn trial_cap_finishes_cleanly() {
        let mut asha = Asha::new(space(), AshaConfig::new(1.0, 9.0, 3.0).with_max_trials(3));
        let mut r = rng();
        let mut jobs = Vec::new();
        for _ in 0..3 {
            jobs.push(asha.suggest(&mut r).job().unwrap());
        }
        // Cap reached, jobs outstanding -> Wait.
        assert!(asha.suggest(&mut r).is_wait());
        for (job, loss) in jobs.iter().zip([0.2, 0.1, 0.3]) {
            complete(&mut asha, job, loss);
        }
        // One promotion available (trial 1).
        let promo = asha.suggest(&mut r).job().unwrap();
        assert_eq!(promo.rung, 1);
        assert!(asha.suggest(&mut r).is_wait());
        complete(&mut asha, &promo, 0.05);
        // Rung 1 has 1 trial; 1/3 floor = 0 promotable; nothing outstanding.
        assert!(asha.suggest(&mut r).is_finished());
    }

    #[test]
    fn infinite_horizon_keeps_promoting() {
        let mut asha = Asha::new(space(), AshaConfig::new(1.0, 9.0, 3.0).infinite());
        let mut r = rng();
        let mut max_rung = 0;
        for _ in 0..200 {
            let job = asha.suggest(&mut r).job().unwrap();
            max_rung = max_rung.max(job.rung);
            complete(&mut asha, &job, job.trial.0 as f64);
        }
        // In the finite horizon with R=9 the top rung would be 2; infinite
        // horizon must exceed it.
        assert!(max_rung > 2, "max rung {max_rung}");
    }

    #[test]
    fn unsolicited_observations_are_ignored() {
        let mut asha = Asha::new(space(), AshaConfig::new(1.0, 9.0, 3.0));
        asha.observe(Observation::new(TrialId(99), 0, 1.0, 0.1));
        assert_eq!(best(&asha), None);
    }

    #[test]
    fn duplicate_observations_are_ignored() {
        let mut asha = Asha::new(space(), AshaConfig::new(1.0, 9.0, 3.0));
        let mut r = rng();
        let job = asha.suggest(&mut r).job().unwrap();
        complete(&mut asha, &job, 0.5);
        complete(&mut asha, &job, 0.1); // retry of the same job
        assert_eq!(best(&asha), Some((job.trial, 0.5)));
    }

    #[test]
    fn stop_rate_shifts_base_resource() {
        let mut asha = Asha::new(space(), AshaConfig::new(1.0, 9.0, 3.0).with_stop_rate(1));
        let mut r = rng();
        let job = asha.suggest(&mut r).job().unwrap();
        assert_eq!(job.resource, 3.0, "s=1 starts at r*eta");
        assert_eq!(job.bracket, 1);
    }

    #[test]
    fn best_uses_intermediate_losses() {
        let mut asha = Asha::new(space(), AshaConfig::new(1.0, 9.0, 3.0));
        let mut r = rng();
        for loss in [0.5, 0.4, 0.6] {
            let job = asha.suggest(&mut r).job().unwrap();
            complete(&mut asha, &job, loss);
        }
        let promo = asha.suggest(&mut r).job().unwrap();
        complete(&mut asha, &promo, 0.2);
        assert_eq!(best(&asha).unwrap().1, 0.2);
    }

    #[test]
    fn name_reflects_sampler() {
        let asha = Asha::new(space(), AshaConfig::new(1.0, 9.0, 3.0));
        assert_eq!(asha.name(), "ASHA");
        assert!(format!("{asha:?}").contains("Asha"));
    }

    #[test]
    fn a_one_rung_ladder_is_random_search() {
        let mut random = Asha::new(space(), AshaConfig::random(100.0));
        assert_eq!(random.name(), "Random");
        let mut r = rng();
        for i in 0..10 {
            let job = random
                .suggest(&mut r)
                .job()
                .expect("random search never waits");
            assert_eq!((job.trial, job.rung, job.resource), (TrialId(i), 0, 100.0));
            assert_eq!(job.bracket, 0);
            complete(&mut random, &job, 1.0 / (i + 1) as f64);
        }
        assert_eq!(best(&random).unwrap().1, 0.1);
        assert_eq!(SchedulerState::Asha(random.export_state()).kind(), "asha");
    }

    #[test]
    #[should_panic(expected = "resources must satisfy")]
    fn random_search_needs_a_positive_budget() {
        let _ = Asha::new(space(), AshaConfig::random(0.0));
    }

    fn delayed() -> Asha {
        Asha::new(space(), AshaConfig::new(1.0, 9.0, 3.0).delayed())
    }

    #[test]
    fn delayed_rule_promotes_like_eager_under_quota() {
        let mut d = delayed();
        let mut r = rng();
        for loss in [0.3, 0.1, 0.2] {
            let job = d.suggest(&mut r).job().unwrap();
            complete(&mut d, &job, loss);
        }
        let job = d.suggest(&mut r).job().unwrap();
        assert_eq!(job.trial, TrialId(1));
        assert_eq!(job.rung, 1);
        assert_eq!(d.name(), "D-ASHA");
    }

    #[test]
    fn delayed_rule_delays_late_better_arrivals() {
        // Drive the scheduler through the quota corner case: after the
        // bottom rung promotes its floor(len/eta) quota, a strictly better
        // config arrives. Eager ASHA promotes it immediately; D-ASHA grows
        // the bottom rung instead until the quota reopens.
        let mut d = delayed();
        let mut r = StdRng::seed_from_u64(7);
        for loss in [0.5, 0.6, 0.7] {
            let job = d.suggest(&mut r).job().unwrap();
            complete(&mut d, &job, loss);
        }
        // Promote trial 0 (quota k=1 for len=3).
        let promo = d.suggest(&mut r).job().unwrap();
        assert_eq!((promo.trial, promo.rung), (TrialId(0), 1));
        // A better config lands in the bottom rung.
        let j = d.suggest(&mut r).job().unwrap();
        assert_eq!(j.rung, 0);
        complete(&mut d, &j, 0.1);
        // len=4, k=1, promoted=1: eager ASHA would promote the 0.1 trial
        // here; D-ASHA must keep growing the bottom rung.
        let j = d.suggest(&mut r).job().unwrap();
        assert_eq!(j.rung, 0, "delayed rule must not over-promote");
        complete(&mut d, &j, 0.9);
        let j = d.suggest(&mut r).job().unwrap();
        assert_eq!(j.rung, 0);
        complete(&mut d, &j, 0.9);
        // len=6, k=2 > promoted=1: the held-back trial is promoted now.
        let j = d.suggest(&mut r).job().unwrap();
        assert_eq!(j.rung, 1);
    }

    #[test]
    fn delayed_state_roundtrips_and_keeps_the_rule() {
        let mut d = delayed();
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            if let Some(job) = d.suggest(&mut r).job() {
                complete(&mut d, &job, job.trial.0 as f64 * 0.01);
            }
        }
        let state = d.export_state();
        assert_eq!(SchedulerState::Asha(state.clone()).kind(), "dasha");
        let mut restored = Asha::from_state(space(), state);
        assert_eq!(restored.bracket.config.rule, PromotionRule::Delayed);
        assert_eq!(restored.name(), d.name());
        // Identical decision streams from the same RNG.
        let mut ra = StdRng::seed_from_u64(11);
        let mut rb = StdRng::seed_from_u64(11);
        for _ in 0..30 {
            let a = d.suggest(&mut ra);
            let b = restored.suggest(&mut rb);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            if let (Some(ja), Some(jb)) = (a.job(), b.job()) {
                complete(&mut d, &ja, 0.42);
                complete(&mut restored, &jb, 0.42);
            }
        }
        assert_eq!(
            format!("{:?}", d.export_state()),
            format!("{:?}", restored.export_state())
        );
    }
}
