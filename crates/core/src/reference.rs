//! Naive linear-scan reference schedulers for differential testing.
//!
//! The production schedulers maintain incremental promotion-candidate
//! indexes (see [`crate::Rung`]) so the hot path stops being O(rung size).
//! The implementations in this module are the *specification*: they make
//! every decision by brute force — sorting the full rung on each query,
//! scanning every bracket linearly — with no caches, heaps, or work
//! indexes, while consuming the RNG stream at exactly the same points.
//! Property tests (`tests/asha_properties.rs`) drive an indexed scheduler
//! and its reference twin through identical hostile event streams and
//! assert bitwise-identical decisions and exported state at every step;
//! any divergence is a bug in the index maintenance.
//!
//! Compiled only for tests and under the `reference` cargo feature so the
//! production binary never carries the slow path.

use std::collections::{HashMap, HashSet};

use asha_space::{Config, SearchSpace};

use crate::budget::{self, Geometry};
use crate::rung::{PromotionRule, ScanOrder};
use crate::sampler::{ConfigSampler, Fidelity, RandomSampler};
use crate::scheduler::{Decision, Job, Observation, Scheduler, TrialId};
use crate::state::{AshaState, AsyncHyperbandState, BracketState, RungState, SyncShaState};
use crate::{AshaConfig, HyperbandConfig, ShaConfig};

/// One rung with no indexes: arrival-ordered records and a promoted set.
#[derive(Debug, Clone, Default)]
struct RefRung {
    /// `(trial, loss)` in arrival order, losses NaN-normalized to `+inf`.
    records: Vec<(TrialId, f64)>,
    promoted: Vec<TrialId>,
}

impl RefRung {
    fn record(&mut self, trial: TrialId, loss: f64) {
        if !self.records.iter().any(|&(t, _)| t == trial) {
            let loss = if loss.is_nan() { f64::INFINITY } else { loss };
            self.records.push((trial, loss));
        }
    }

    fn is_promoted(&self, trial: TrialId) -> bool {
        self.promoted.contains(&trial)
    }

    fn mark_promoted(&mut self, trial: TrialId) {
        if self.records.iter().any(|&(t, _)| t == trial) && !self.is_promoted(trial) {
            self.promoted.push(trial);
        }
    }

    /// The spec of the eager rule, by brute force: sort the whole rung by
    /// `(loss, trial)`, find the first unpromoted trial, and answer yes iff
    /// it ranks inside the top `floor(len/eta)` with a finite loss.
    fn promotable_eager(&self, eta: f64) -> Option<(TrialId, f64)> {
        let k = (self.records.len() as f64 / eta).floor() as usize;
        if k == 0 {
            return None;
        }
        let mut sorted: Vec<(f64, TrialId)> = self.records.iter().map(|&(t, l)| (l, t)).collect();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let (rank, &(loss, trial)) = sorted
            .iter()
            .enumerate()
            .find(|&(_, &(_, t))| !self.is_promoted(t))?;
        if rank < k && loss.is_finite() {
            Some((trial, loss))
        } else {
            None
        }
    }

    /// The spec of `Rung::promotable`: the delayed rule additionally
    /// requires the promoted count to stay under `floor(len/eta)`.
    fn promotable(&self, eta: f64, rule: PromotionRule) -> Option<(TrialId, f64)> {
        if rule == PromotionRule::Delayed {
            let k = (self.records.len() as f64 / eta).floor() as usize;
            if self.promoted.len() >= k {
                return None;
            }
        }
        self.promotable_eager(eta)
    }

    fn export(&self) -> RungState {
        RungState {
            records: self.records.iter().map(|&(t, l)| (t.0, l)).collect(),
            promoted: self
                .records
                .iter()
                .filter(|&&(t, _)| self.is_promoted(t))
                .map(|&(t, _)| t.0)
                .collect(),
        }
    }
}

/// Index-free rung ladder over the same [`Geometry`] as `RungLadder`: the
/// twins are an oracle for promotion decisions, not for rung arithmetic.
#[derive(Debug, Clone)]
struct RefLadder {
    rungs: Vec<RefRung>,
    geometry: Geometry,
}

impl RefLadder {
    fn new(config: &AshaConfig) -> Self {
        let geometry = config.geometry().unwrap_or_else(|e| panic!("{e}"));
        RefLadder {
            rungs: vec![RefRung::default(); geometry.max_rung().map_or(1, |max| max + 1)],
            geometry,
        }
    }

    fn resource(&self, rung: usize) -> f64 {
        self.geometry.resource(rung)
    }

    fn rung_mut(&mut self, k: usize) -> &mut RefRung {
        if let Some(max) = self.geometry.max_rung() {
            assert!(k <= max, "rung {k} exceeds finite-horizon top rung {max}");
        } else if k >= self.rungs.len() {
            self.rungs.resize_with(k + 1, RefRung::default);
        }
        &mut self.rungs[k]
    }

    fn find_promotable(
        &self,
        order: ScanOrder,
        rule: PromotionRule,
    ) -> Option<(TrialId, f64, usize)> {
        let top = match self.geometry.max_rung() {
            Some(max) => max,
            None => self.rungs.len(),
        };
        let limit = top.min(self.rungs.len());
        let scan = |k: usize| {
            self.rungs[k]
                .promotable(self.geometry.eta(), rule)
                .map(|(t, l)| (t, l, k))
        };
        match order {
            ScanOrder::TopDown => (0..limit).rev().find_map(scan),
            ScanOrder::BottomUp => (0..limit).find_map(scan),
        }
    }
}

/// Linear-scan ASHA: decision-for-decision identical to [`crate::Asha`]
/// under either [`PromotionRule`] (read from the config, as `Asha` does),
/// implemented with no promotion indexes. Supports the same pluggable
/// samplers as the indexed scheduler (an independent sampler instance fed
/// the identical observation stream proposes identical configurations, so
/// differential twins stay bitwise-equal with adaptive samplers too).
pub struct RefAsha {
    space: SearchSpace,
    config: AshaConfig,
    ladder: RefLadder,
    sampler: Box<dyn ConfigSampler>,
    trial_configs: HashMap<TrialId, Config>,
    outstanding: HashSet<(TrialId, usize)>,
    next_trial: u64,
    trials_started: usize,
    name: String,
}

impl std::fmt::Debug for RefAsha {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RefAsha")
            .field("config", &self.config)
            .field("trials_started", &self.trials_started)
            .finish_non_exhaustive()
    }
}

impl RefAsha {
    /// Create a reference ASHA scheduler with uniform random sampling.
    pub fn new(space: SearchSpace, config: AshaConfig) -> Self {
        RefAsha::with_sampler(space, config, Box::new(RandomSampler::new()))
    }

    /// Create a reference ASHA scheduler with a custom sampler, mirroring
    /// [`crate::Asha::with_sampler`]'s naming.
    pub fn with_sampler(
        space: SearchSpace,
        config: AshaConfig,
        sampler: Box<dyn ConfigSampler>,
    ) -> Self {
        let ladder = RefLadder::new(&config);
        let prefix = match config.rule {
            PromotionRule::Eager => "ASHA",
            PromotionRule::Delayed => "D-ASHA",
        };
        let name = if sampler.name() == "random" {
            prefix.to_owned()
        } else {
            format!("{prefix}+{}", sampler.name())
        };
        RefAsha {
            space,
            config,
            ladder,
            sampler,
            trial_configs: HashMap::new(),
            outstanding: HashSet::new(),
            next_trial: 0,
            trials_started: 0,
            name,
        }
    }

    /// The attached sampler's serialized cursor, if it keeps one.
    pub fn export_sampler_cursor(&self) -> Option<String> {
        self.sampler.export_cursor()
    }

    /// Export state in exactly [`crate::Asha::export_state`]'s format.
    pub fn export_state(&self) -> AshaState {
        let mut trials: Vec<(u64, Config)> = self
            .trial_configs
            .iter()
            .map(|(t, c)| (t.0, c.clone()))
            .collect();
        trials.sort_by_key(|&(t, _)| t);
        let mut outstanding: Vec<(u64, usize)> =
            self.outstanding.iter().map(|&(t, r)| (t.0, r)).collect();
        outstanding.sort_unstable();
        AshaState {
            config: self.config.clone(),
            rungs: self.ladder.rungs.iter().map(RefRung::export).collect(),
            trials,
            outstanding,
            next_trial: self.next_trial,
            trials_started: self.trials_started,
            name: self.name.clone(),
        }
    }
}

impl Scheduler for RefAsha {
    fn suggest(&mut self, rng: &mut dyn rand::RngCore) -> Decision {
        if let Some((trial, _loss, rung)) = self
            .ladder
            .find_promotable(self.config.scan_order, self.config.rule)
        {
            self.ladder.rung_mut(rung).mark_promoted(trial);
            let rung = rung + 1;
            self.outstanding.insert((trial, rung));
            return Decision::Run(Job {
                trial,
                config: self.trial_configs[&trial].clone(),
                rung,
                resource: self.ladder.resource(rung),
                bracket: self.config.stop_rate,
                inherit_from: None,
            });
        }
        if let Some(cap) = self.config.max_trials {
            if self.trials_started >= cap {
                return if self.outstanding.is_empty() {
                    Decision::Finished
                } else {
                    Decision::Wait
                };
            }
        }
        let trial = TrialId(self.next_trial);
        self.next_trial += 1;
        self.trials_started += 1;
        let fidelity = Fidelity::base(self.ladder.resource(0));
        let config = self.sampler.propose_at(&self.space, fidelity, rng);
        self.trial_configs.insert(trial, config.clone());
        self.outstanding.insert((trial, 0));
        Decision::Run(Job {
            trial,
            config,
            rung: 0,
            resource: self.ladder.resource(0),
            bracket: self.config.stop_rate,
            inherit_from: None,
        })
    }

    fn observe(&mut self, obs: Observation) {
        if !self.outstanding.remove(&(obs.trial, obs.rung)) {
            return;
        }
        self.ladder.rung_mut(obs.rung).record(obs.trial, obs.loss);
        if self.sampler.wants_reports() {
            if let Some(config) = self.trial_configs.get(&obs.trial) {
                self.sampler
                    .record(config, obs.rung, obs.resource, obs.loss);
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// One synchronous bracket with no issued-set shortcuts beyond the spec.
#[derive(Debug)]
struct RefBracket {
    remaining_to_sample: usize,
    queue: Vec<(TrialId, Config)>,
    outstanding: usize,
    issued: HashSet<TrialId>,
    results: Vec<(TrialId, f64)>,
    rung: usize,
    done: bool,
}

impl RefBracket {
    fn fresh(num_configs: usize) -> Self {
        RefBracket {
            remaining_to_sample: num_configs,
            queue: Vec::new(),
            outstanding: 0,
            issued: HashSet::new(),
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

/// Linear-scan synchronous SHA: decision-for-decision identical to
/// [`crate::SyncSha`], finding issuable brackets by scanning the full
/// bracket list every `suggest` instead of via a work index.
pub struct RefSyncSha {
    space: SearchSpace,
    config: ShaConfig,
    brackets: Vec<RefBracket>,
    trial_meta: HashMap<TrialId, (usize, Config)>,
    next_trial: u64,
    name: String,
}

impl std::fmt::Debug for RefSyncSha {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RefSyncSha")
            .field("config", &self.config)
            .field("brackets", &self.brackets.len())
            .finish_non_exhaustive()
    }
}

impl RefSyncSha {
    /// Create a reference synchronous SHA scheduler.
    ///
    /// # Panics
    ///
    /// Same configuration preconditions as [`crate::SyncSha::new`].
    pub fn new(space: SearchSpace, config: ShaConfig) -> Self {
        // Reuse the production validation so invalid configs fail the same.
        let _ = crate::SyncSha::new(space.clone(), config.clone());
        let first = RefBracket::fresh(config.num_configs);
        RefSyncSha {
            space,
            config,
            brackets: vec![first],
            trial_meta: HashMap::new(),
            next_trial: 0,
            name: "SHA".to_owned(),
        }
    }

    /// Whether every bracket has run to completion.
    pub(crate) fn all_done(&self) -> bool {
        self.brackets.iter().all(|b| b.done)
    }

    /// Export state in exactly [`crate::SyncSha::export_state`]'s format.
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
        trial_meta.sort_by_key(|&(t, _, _)| t);
        SyncShaState {
            config: self.config.clone(),
            brackets,
            trial_meta,
            next_trial: self.next_trial,
            name: self.name.clone(),
        }
    }

    fn issue_from(&mut self, bracket_idx: usize, rng: &mut dyn rand::RngCore) -> Job {
        let rung = self.brackets[bracket_idx].rung;
        let (trial, config) = if self.brackets[bracket_idx].remaining_to_sample > 0 {
            self.brackets[bracket_idx].remaining_to_sample -= 1;
            let trial = TrialId(self.next_trial);
            self.next_trial += 1;
            let config = self.space.sample(rng);
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
        Job {
            trial,
            config,
            rung,
            resource: self.config.rung_resource(rung),
            bracket: bracket_idx,
            inherit_from: None,
        }
    }

    fn complete_rung(&mut self, bracket_idx: usize) {
        let num_rungs = self.config.num_rungs();
        let eta = self.config.reduction_factor;
        let bracket = &mut self.brackets[bracket_idx];
        let k = (bracket.results.len() as f64 / eta).floor() as usize;
        if bracket.rung + 1 >= num_rungs || k == 0 {
            bracket.done = true;
            bracket.results.clear();
            return;
        }
        let mut sorted = std::mem::take(&mut bracket.results);
        sorted.retain(|&(_, loss)| loss.is_finite());
        sorted.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        sorted.truncate(k);
        if sorted.is_empty() {
            bracket.done = true;
            return;
        }
        bracket.rung += 1;
        let meta = &self.trial_meta;
        bracket.queue = sorted
            .into_iter()
            .rev()
            .map(|(t, _)| (t, meta[&t].1.clone()))
            .collect();
    }
}

impl Scheduler for RefSyncSha {
    fn suggest(&mut self, rng: &mut dyn rand::RngCore) -> Decision {
        // The original linear scan: first bracket (lowest index) with work.
        if let Some(idx) = (0..self.brackets.len()).find(|&i| self.brackets[i].has_work()) {
            return Decision::Run(self.issue_from(idx, rng));
        }
        if self.config.grow_brackets {
            self.brackets
                .push(RefBracket::fresh(self.config.num_configs));
            let idx = self.brackets.len() - 1;
            return Decision::Run(self.issue_from(idx, rng));
        }
        if self.all_done() {
            Decision::Finished
        } else {
            Decision::Wait
        }
    }

    fn observe(&mut self, obs: Observation) {
        let Some((bracket_idx, _config)) = self.trial_meta.get(&obs.trial).cloned() else {
            return;
        };
        {
            let bracket = &mut self.brackets[bracket_idx];
            if bracket.done || bracket.rung != obs.rung {
                return;
            }
            if !bracket.issued.remove(&obs.trial) {
                return;
            }
            bracket.outstanding -= 1;
            bracket.results.push((obs.trial, obs.loss));
        }
        let bracket = &self.brackets[bracket_idx];
        if bracket.outstanding == 0 && bracket.idle() && !bracket.results.is_empty() {
            self.complete_rung(bracket_idx);
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

const BRACKET_STRIDE: u64 = 1 << 40;

/// Linear-scan asynchronous Hyperband: [`RefAsha`] brackets behind the same
/// budget-rotation logic as [`crate::AsyncHyperband`].
pub struct RefAsyncHyperband {
    config: HyperbandConfig,
    brackets: Vec<RefAsha>,
    budgets: Vec<f64>,
    spent: f64,
    current: usize,
    name: String,
}

impl std::fmt::Debug for RefAsyncHyperband {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RefAsyncHyperband")
            .field("config", &self.config)
            .field("current", &self.current)
            .finish_non_exhaustive()
    }
}

impl RefAsyncHyperband {
    /// Create a reference asynchronous Hyperband scheduler.
    ///
    /// # Panics
    ///
    /// Same configuration preconditions as [`crate::AsyncHyperband::new`].
    pub fn new(space: SearchSpace, config: HyperbandConfig) -> Self {
        let brackets: Vec<RefAsha> = (0..config.num_brackets)
            .map(|s| {
                RefAsha::new(
                    space.clone(),
                    AshaConfig::new(
                        config.min_resource,
                        config.max_resource,
                        config.reduction_factor,
                    )
                    .with_stop_rate(s),
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
        RefAsyncHyperband {
            config,
            brackets,
            budgets,
            spent: 0.0,
            current: 0,
            name: "Hyperband (async)".to_owned(),
        }
    }

    /// Export state in [`crate::AsyncHyperband::export_state`]'s format.
    pub fn export_state(&self) -> AsyncHyperbandState {
        AsyncHyperbandState {
            config: self.config.clone(),
            brackets: self.brackets.iter().map(RefAsha::export_state).collect(),
            spent: self.spent,
            current: self.current,
            name: self.name.clone(),
        }
    }
}

impl Scheduler for RefAsyncHyperband {
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

    #[test]
    fn ref_asha_matches_indexed_on_a_serial_run() {
        let mut fast = crate::Asha::new(space(), AshaConfig::new(1.0, 27.0, 3.0));
        let mut slow = RefAsha::new(space(), AshaConfig::new(1.0, 27.0, 3.0));
        let mut rng_a = StdRng::seed_from_u64(11);
        let mut rng_b = StdRng::seed_from_u64(11);
        for i in 0..300u64 {
            let a = fast.suggest(&mut rng_a);
            let b = slow.suggest(&mut rng_b);
            assert_eq!(a, b, "diverged at step {i}");
            if let Decision::Run(job) = a {
                let loss = ((i * 37) % 101) as f64;
                fast.observe(Observation::for_job(&job, loss));
                slow.observe(Observation::for_job(&job, loss));
            }
        }
        assert_eq!(fast.export_state(), slow.export_state());
    }

    #[test]
    fn ref_dasha_matches_indexed_on_a_serial_run() {
        let mut fast = crate::Asha::new(space(), AshaConfig::new(1.0, 27.0, 3.0).delayed());
        let mut slow = RefAsha::new(space(), AshaConfig::new(1.0, 27.0, 3.0).delayed());
        let mut rng_a = StdRng::seed_from_u64(13);
        let mut rng_b = StdRng::seed_from_u64(13);
        for i in 0..300u64 {
            let a = fast.suggest(&mut rng_a);
            let b = slow.suggest(&mut rng_b);
            assert_eq!(a, b, "diverged at step {i}");
            if let Decision::Run(job) = a {
                let loss = ((i * 53) % 89) as f64;
                fast.observe(Observation::for_job(&job, loss));
                slow.observe(Observation::for_job(&job, loss));
            }
        }
        assert_eq!(fast.export_state(), slow.export_state());
    }

    #[test]
    fn ref_sync_sha_matches_indexed_to_completion() {
        let mut fast = crate::SyncSha::new(space(), ShaConfig::new(9, 1.0, 9.0, 3.0));
        let mut slow = RefSyncSha::new(space(), ShaConfig::new(9, 1.0, 9.0, 3.0));
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        loop {
            let a = fast.suggest(&mut rng_a);
            let b = slow.suggest(&mut rng_b);
            assert_eq!(a, b);
            match a {
                Decision::Run(job) => {
                    let loss = job.trial.0 as f64;
                    fast.observe(Observation::for_job(&job, loss));
                    slow.observe(Observation::for_job(&job, loss));
                }
                _ => break,
            }
        }
        assert_eq!(fast.export_state(), slow.export_state());
        assert!(fast.all_done() && slow.all_done());
    }
}
