//! Naive linear-scan reference schedulers for differential testing.
//!
//! The production schedulers maintain incremental promotion-candidate
//! indexes (see [`crate::Rung`]) so the hot path stops being O(rung size).
//! This module is the *specification*: [`RefAsha`]'s bracket keeps its own
//! index-free bookkeeping (trial table, outstanding list, trial cap) and
//! makes every promotion and barrier decision by brute force — sorting the
//! full rung on each query — with no caches or heaps. It is the one twin:
//! SHA and both Hyperbands are the same bracket loop over it
//! ([`bracket_loop`]) as the production schedulers are over `Asha`'s
//! bracket.
//! Property tests (`tests/asha_properties.rs`) drive an indexed scheduler
//! and its reference twin through identical hostile event streams and
//! assert bitwise-identical decisions and exported state at every step;
//! any divergence is a bug in the index maintenance or the barrier.
//!
//! Compiled only for tests and under the `reference` cargo feature so the
//! production binary never carries the slow path.

use asha_space::{Config, SearchSpace};

use crate::asha::{asha_name, Barrier, Engine};
use crate::budget::Geometry;
use crate::rung::{PromotionRule, ScanOrder};
use crate::sampler::{ConfigSampler, Fidelity, RandomSampler};
use crate::scheduler::{Decision, Job, Observation, Scheduler, TrialId};
use crate::state::{AshaState, RungState};
use crate::{AshaConfig, BracketLoop, BracketLoopConfig};

/// One rung with no indexes: arrival-ordered records and a promoted set.
#[derive(Debug, Clone, Default)]
struct RefRung {
    /// `(trial, loss)` in arrival order, non-finite losses recorded as
    /// `+inf`.
    records: Vec<(TrialId, f64)>,
    promoted: Vec<TrialId>,
}

impl RefRung {
    fn record(&mut self, trial: TrialId, loss: f64) {
        if !self.records.iter().any(|&(t, _)| t == trial) {
            let loss = if loss.is_finite() {
                loss
            } else {
                f64::INFINITY
            };
            self.records.push((trial, loss));
        }
    }

    fn is_promoted(&self, trial: TrialId) -> bool {
        self.promoted.contains(&trial)
    }

    /// The whole rung sorted by `(loss, trial)`, and its top `floor(len/eta)`.
    fn sorted(&self, eta: f64) -> (Vec<(TrialId, f64)>, usize) {
        let mut sorted = self.records.clone();
        sorted.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let k = (sorted.len() as f64 / eta).floor() as usize;
        (sorted, k)
    }

    /// The spec of `Rung::promotable`, by brute force: sort the whole rung,
    /// find the first unpromoted trial, and answer yes iff it ranks inside
    /// the top `floor(len/eta)` with a finite loss — and, under the delayed
    /// rule, the promoted count is still under `floor(len/eta)`.
    fn promotable(&self, eta: f64, rule: PromotionRule) -> Option<(TrialId, f64)> {
        let (sorted, k) = self.sorted(eta);
        if rule == PromotionRule::Delayed && self.promoted.len() >= k {
            return None;
        }
        let mut unpromoted = sorted.into_iter().enumerate();
        let (rank, (trial, loss)) = unpromoted.find(|&(_, (t, _))| !self.is_promoted(t))?;
        (rank < k && loss.is_finite()).then_some((trial, loss))
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

/// One bracket with no indexes, over the same [`Geometry`] as `Bracket`
/// (the twin is an oracle for decisions, not for rung arithmetic): a trial
/// table, an outstanding list scanned linearly, and the barrier by brute
/// force.
#[derive(Debug)]
struct BruteBracket {
    config: AshaConfig,
    geometry: Geometry,
    rungs: Vec<RefRung>,
    barrier: Option<Barrier>,
    trials: Vec<Config>,
    outstanding: Vec<(TrialId, usize)>,
}

impl BruteBracket {
    fn new(config: AshaConfig, barrier: bool) -> Self {
        let geometry = config.geometry().unwrap_or_else(|e| panic!("{e}"));
        BruteBracket {
            rungs: vec![RefRung::default(); geometry.max_rung().map_or(1, |max| max + 1)],
            config,
            geometry,
            barrier: barrier.then(Barrier::default),
            trials: Vec::new(),
            outstanding: Vec::new(),
        }
    }

    fn rung_mut(&mut self, k: usize) -> &mut RefRung {
        if let Some(max) = self.geometry.max_rung() {
            assert!(k <= max, "rung {k} exceeds finite-horizon top rung {max}");
        } else if k >= self.rungs.len() {
            self.rungs.resize_with(k + 1, RefRung::default);
        }
        &mut self.rungs[k]
    }

    fn find_promotable(&self) -> Option<(TrialId, usize)> {
        let top = self.geometry.max_rung().unwrap_or(self.rungs.len());
        let scan = |k: usize| {
            let promotable = self.rungs[k].promotable(self.geometry.eta(), self.config.rule);
            promotable.map(|(t, _)| (t, k))
        };
        match self.config.scan_order {
            ScanOrder::TopDown => (0..top.min(self.rungs.len())).rev().find_map(scan),
            ScanOrder::BottomUp => (0..top.min(self.rungs.len())).find_map(scan),
        }
    }

    fn capped(&self) -> bool {
        self.config
            .max_trials
            .is_some_and(|n| self.trials.len() >= n)
    }
}

impl Engine for BruteBracket {
    fn suggest(
        &mut self,
        space: &SearchSpace,
        sampler: &mut dyn ConfigSampler,
        rng: &mut dyn rand::RngCore,
    ) -> Decision {
        let promotion = match &mut self.barrier {
            Some(barrier) => barrier.queue.pop().map(|t| (TrialId(t), barrier.rung)),
            None => self.find_promotable().map(|(t, k)| {
                self.rungs[k].promoted.push(t);
                (t, k + 1)
            }),
        };
        let (trial, rung) = match promotion {
            Some(job) => job,
            None if self.capped() => {
                return match self.outstanding.is_empty() {
                    true => Decision::Finished,
                    false => Decision::Wait,
                };
            }
            None => {
                let fidelity = Fidelity::base(self.geometry.resource(0));
                self.trials.push(sampler.propose_at(space, fidelity, rng));
                (TrialId(self.trials.len() as u64 - 1), 0)
            }
        };
        self.outstanding.push((trial, rung));
        Decision::Run(Job {
            trial,
            config: self.trials[trial.0 as usize].clone(),
            rung,
            resource: self.geometry.resource(rung),
            bracket: self.config.stop_rate,
            inherit_from: None,
        })
    }

    fn observe(&mut self, obs: Observation, sampler: &mut dyn ConfigSampler) {
        let job = (obs.trial, obs.rung);
        let Some(i) = self.outstanding.iter().position(|&j| j == job) else {
            return;
        };
        self.outstanding.remove(i);
        self.rung_mut(obs.rung).record(obs.trial, obs.loss);
        if sampler.wants_reports() {
            let config = &self.trials[obs.trial.0 as usize];
            sampler.record(config, obs.rung, obs.resource, obs.loss);
        }
        // The barrier spec: once every trial is sampled, nothing is
        // outstanding and no survivor waits, the running rung (unless it is
        // the top) sorts; the finite ones among its top `floor(len/eta)`
        // queue for the rung above, best issued first. Nothing reads the
        // closed rung again, so its records go, as `Bracket`'s do.
        if !self.finished() {
            return;
        }
        let barrier = self
            .barrier
            .as_mut()
            .expect("a finished bracket has a barrier");
        let closed = std::mem::take(&mut self.rungs[barrier.rung]);
        if self.geometry.max_rung() != Some(barrier.rung) {
            let (mut top, k) = closed.sorted(self.geometry.eta());
            top.truncate(k);
            top.retain(|(_, loss)| loss.is_finite());
            if !top.is_empty() {
                barrier.queue = top.into_iter().rev().map(|(t, _)| t.0).collect();
                barrier.rung += 1;
            }
        }
    }

    fn barrier(&self) -> Option<&Barrier> {
        self.barrier.as_ref()
    }

    fn finished(&self) -> bool {
        let idle = |b: &Barrier| b.queue.is_empty() && self.outstanding.is_empty();
        self.barrier.as_ref().is_some_and(idle) && self.capped()
    }

    fn export_state(&self, name: &str) -> AshaState {
        let mut outstanding: Vec<(u64, usize)> =
            self.outstanding.iter().map(|&(t, r)| (t.0, r)).collect();
        outstanding.sort_unstable();
        AshaState {
            config: self.config.clone(),
            rungs: self.rungs.iter().map(RefRung::export).collect(),
            trials: (0..).zip(self.trials.iter().cloned()).collect(),
            outstanding,
            name: name.to_owned(),
        }
    }
}

/// Linear-scan ASHA: a [`BruteBracket`] and its sampler, decision-for-
/// decision identical to [`crate::Asha`] under either [`PromotionRule`].
/// An independent sampler instance fed the identical observation stream
/// proposes identical configurations, so the twins stay bitwise-equal with
/// adaptive samplers too.
pub struct RefAsha {
    space: SearchSpace,
    bracket: BruteBracket,
    sampler: Box<dyn ConfigSampler>,
    name: String,
}

impl std::fmt::Debug for RefAsha {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RefAsha")
            .field("config", &self.bracket.config)
            .field("trials_started", &self.bracket.trials.len())
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
        RefAsha {
            space,
            name: asha_name(&config, &*sampler),
            bracket: BruteBracket::new(config, false),
            sampler,
        }
    }

    /// The attached sampler's serialized cursor, if it keeps one.
    pub fn export_sampler_cursor(&self) -> Option<String> {
        self.sampler.export_cursor()
    }

    /// Export state in exactly [`crate::Asha::export_state`]'s format.
    pub fn export_state(&self) -> AshaState {
        self.bracket.export_state(&self.name)
    }
}

impl Scheduler for RefAsha {
    fn suggest(&mut self, rng: &mut dyn rand::RngCore) -> Decision {
        self.bracket.suggest(&self.space, &mut *self.sampler, rng)
    }

    fn observe(&mut self, obs: Observation) {
        self.bracket.observe(obs, &mut *self.sampler);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A bracket loop over [`RefAsha`]'s brute-force bracket: the twin of
/// [`crate::BracketLoop::new`], compared through
/// [`crate::BracketLoop::export_state`].
pub fn bracket_loop(space: SearchSpace, config: BracketLoopConfig) -> BracketLoop {
    let mut twin = BracketLoop::new(space, config);
    twin.rebuild(|config, barrier| Box::new(BruteBracket::new(config, barrier)));
    twin
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
        let config = BracketLoopConfig::sha(9, 1.0, 9.0, 3.0);
        let mut fast = BracketLoop::new(space(), config.clone());
        let mut slow = bracket_loop(space(), config);
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
        assert!(fast.export_state().brackets.is_empty());
    }
}
