//! Population Based Training (Jaderberg et al., 2017), implemented the way
//! the paper's Appendix A.3 configures it:
//!
//! * truncation selection — the bottom 20% of the population copies weights
//!   *and* hyperparameters from a uniformly sampled top-20% member;
//! * exploration — inherited hyperparameters are perturbed by ×1.2 or ×0.8
//!   (finite domains move to adjacent choices) 3/4 of the time and resampled
//!   uniformly 1/4 of the time;
//! * architecture hyperparameters are frozen during exploration ("vanilla
//!   PBT is not compatible with hyperparameters that change the architecture
//!   of the network");
//! * a bounded-lag fairness rule keeps all members within `max_lag` resource
//!   of each other so exploitation compares like with like;
//! * optionally, new populations are spawned whenever no job is available,
//!   "to maintain 100% worker efficiency" in the distributed experiments.

use asha_core::{Decision, Job, Observation, Scheduler, TrialId};
use asha_math::stats::quantile;
use asha_space::{Config, SearchSpace};
use rand::Rng;

/// Configuration of a [`Pbt`] scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct PbtConfig {
    /// Population size (the paper uses 25 for the CNN tasks, 20 for the
    /// DropConnect LSTM).
    pub population: usize,
    /// Maximum cumulative resource per member.
    pub max_resource: f64,
    /// Resource between exploit/explore rounds (1000 of 30000 iterations in
    /// Sections 4.1–4.2; 8 of 256 epochs in Section 4.3.1).
    pub interval: f64,
    /// Fraction replaced/copied by truncation selection (0.2).
    pub truncation: f64,
    /// Multiplicative perturbation factor (1.2, or its inverse).
    pub perturb_factor: f64,
    /// Probability that exploration perturbs (vs. resamples) — 3/4.
    pub perturb_prob: f64,
    /// Names of hyperparameters frozen during exploration.
    pub frozen: Vec<String>,
    /// Members may not train further than this many resource units ahead of
    /// the slowest active member (2000 iterations in the paper).
    pub max_lag: f64,
    /// Spawn a fresh population whenever no job is available.
    pub spawn_populations: bool,
}

impl PbtConfig {
    /// The paper's settings: truncation 0.2, perturb ×1.2 with probability
    /// 3/4, `max_lag = 2 * interval`, no extra populations.
    ///
    /// # Panics
    ///
    /// Panics if `population < 2`, or resources/interval are non-positive.
    pub fn new(population: usize, max_resource: f64, interval: f64) -> Self {
        assert!(population >= 2, "population needs at least two members");
        assert!(
            max_resource > 0.0 && interval > 0.0 && interval <= max_resource,
            "need 0 < interval <= max_resource"
        );
        PbtConfig {
            population,
            max_resource,
            interval,
            truncation: 0.2,
            perturb_factor: 1.2,
            perturb_prob: 0.75,
            frozen: Vec::new(),
            max_lag: 2.0 * interval,
            spawn_populations: false,
        }
    }

    /// Freeze the named hyperparameters during exploration.
    pub fn with_frozen(mut self, frozen: &[&str]) -> Self {
        self.frozen = frozen.iter().map(|s| (*s).to_owned()).collect();
        self
    }

    /// Spawn fresh populations when all members are busy or blocked.
    pub fn spawning(mut self) -> Self {
        self.spawn_populations = true;
        self
    }
}

#[derive(Debug, Clone)]
struct Member {
    trial: TrialId,
    config: Config,
    /// Completed cumulative resource.
    resource: f64,
    pending: bool,
    last_loss: Option<f64>,
    done: bool,
}

/// Population Based Training as an [`asha_core::Scheduler`]. Exploitation
/// copies checkpoints via [`Job::inherit_from`]; the executor (simulator or
/// thread pool) performs the actual weight copy.
pub struct Pbt {
    space: SearchSpace,
    config: PbtConfig,
    populations: Vec<Vec<Member>>,
    next_trial: u64,
    exploits: usize,
    name: String,
}

impl std::fmt::Debug for Pbt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pbt")
            .field("config", &self.config)
            .field("populations", &self.populations.len())
            .field("exploits", &self.exploits)
            .finish_non_exhaustive()
    }
}

impl Pbt {
    /// Create a PBT scheduler. Member configurations are sampled lazily on
    /// the first `suggest` calls.
    pub fn new(space: SearchSpace, config: PbtConfig) -> Self {
        Pbt {
            space,
            config,
            populations: Vec::new(),
            next_trial: 0,
            exploits: 0,
            name: "PBT".to_owned(),
        }
    }

    /// Number of exploit (truncation-copy) events so far.
    pub fn exploit_count(&self) -> usize {
        self.exploits
    }

    /// Number of populations spawned.
    #[cfg(test)]
    pub(crate) fn population_count(&self) -> usize {
        self.populations.len()
    }

    fn fresh_trial(&mut self) -> TrialId {
        let t = TrialId(self.next_trial);
        self.next_trial += 1;
        t
    }

    fn spawn_population(&mut self, rng: &mut dyn rand::RngCore) {
        let mut members = Vec::with_capacity(self.config.population);
        for _ in 0..self.config.population {
            let trial = self.fresh_trial();
            members.push(Member {
                trial,
                config: self.space.sample(rng),
                resource: 0.0,
                pending: false,
                last_loss: None,
                done: false,
            });
        }
        self.populations.push(members);
    }

    /// Pick the next member of a population to advance: the least-trained
    /// idle member within the lag window, if any.
    fn next_member(&self, pop: &[Member]) -> Option<usize> {
        let min_active = pop
            .iter()
            .filter(|m| !m.done)
            .map(|m| m.resource)
            .fold(f64::INFINITY, f64::min);
        pop.iter()
            .enumerate()
            .filter(|(_, m)| {
                !m.pending && !m.done && m.resource - min_active < self.config.max_lag - 1e-9
            })
            .min_by(|a, b| {
                a.1.resource
                    .partial_cmp(&b.1.resource)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
    }

    /// Truncation-selection exploit + explore for one member at an interval
    /// boundary. Returns the parent trial to inherit from, if any.
    fn exploit_explore(
        &mut self,
        pop_idx: usize,
        member_idx: usize,
        rng: &mut dyn rand::RngCore,
    ) -> Option<TrialId> {
        let losses: Vec<f64> = self.populations[pop_idx]
            .iter()
            .filter_map(|m| m.last_loss)
            .collect();
        if losses.len() < 2 {
            return None;
        }
        let my_loss = self.populations[pop_idx][member_idx].last_loss?;
        let n = losses.len();
        let k = ((n as f64 * self.config.truncation).ceil() as usize).max(1);
        // Rank strictly: the member is exploited only if at least `n - k`
        // members are strictly better (ties never trigger churn).
        let strictly_better = losses.iter().filter(|&&l| l < my_loss).count();
        if strictly_better < n - k {
            return None;
        }
        // Pick a parent uniformly from the top truncation fraction (strictly
        // better members only).
        let lo = quantile(&losses, self.config.truncation);
        let top: Vec<usize> = self.populations[pop_idx]
            .iter()
            .enumerate()
            .filter(|(i, m)| {
                *i != member_idx && m.last_loss.is_some_and(|l| l <= lo && l < my_loss)
            })
            .map(|(i, _)| i)
            .collect();
        let &parent_idx = match top.as_slice() {
            [] => return None,
            tops => &tops[rng.gen_range(0..tops.len())],
        };
        let parent = self.populations[pop_idx][parent_idx].clone();
        // Explore: perturb 3/4 of the time, resample 1/4 (frozen params
        // never change — inherited architecture weights must stay valid).
        let frozen: Vec<&str> = self.config.frozen.iter().map(String::as_str).collect();
        let child_config = if rng.gen::<f64>() < self.config.perturb_prob {
            self.space
                .perturb(&parent.config, self.config.perturb_factor, &frozen, rng)
                .expect("population configs come from this space")
        } else {
            let mut resampled = self.space.sample(rng);
            // Keep frozen values from the parent.
            for (i, (name, _)) in self.space.iter().enumerate() {
                if frozen.contains(&name) {
                    resampled.values_mut()[i] = parent.config.values()[i].clone();
                }
            }
            resampled
        };
        let child_trial = self.fresh_trial();
        let member = &mut self.populations[pop_idx][member_idx];
        member.trial = child_trial;
        member.config = child_config;
        member.resource = parent.resource;
        member.last_loss = parent.last_loss;
        self.exploits += 1;
        Some(parent.trial)
    }

    fn all_done(&self) -> bool {
        !self.populations.is_empty() && self.populations.iter().all(|p| p.iter().all(|m| m.done))
    }
}

impl Scheduler for Pbt {
    fn suggest(&mut self, rng: &mut dyn rand::RngCore) -> Decision {
        if self.populations.is_empty() {
            self.spawn_population(rng);
        }
        for pop_idx in 0..self.populations.len() {
            let Some(member_idx) = self.next_member(&self.populations[pop_idx]) else {
                continue;
            };
            // Exploit/explore at interval boundaries (not before the first
            // segment).
            let inherit_from = if self.populations[pop_idx][member_idx].resource > 0.0 {
                self.exploit_explore(pop_idx, member_idx, rng)
            } else {
                None
            };
            let member = &mut self.populations[pop_idx][member_idx];
            member.pending = true;
            let target = (member.resource + self.config.interval).min(self.config.max_resource);
            let rung = (member.resource / self.config.interval).round() as usize;
            return Decision::Run(Job {
                trial: member.trial,
                config: member.config.clone(),
                rung,
                resource: target,
                bracket: pop_idx,
                inherit_from,
            });
        }
        if self.config.spawn_populations {
            self.spawn_population(rng);
            // The fresh population always has an idle member at resource 0.
            return self.suggest(rng);
        }
        if self.all_done() {
            Decision::Finished
        } else {
            Decision::Wait
        }
    }

    fn observe(&mut self, obs: Observation) {
        for pop in &mut self.populations {
            if let Some(m) = pop.iter_mut().find(|m| m.trial == obs.trial) {
                if !m.pending {
                    return; // duplicate
                }
                m.pending = false;
                m.resource = obs.resource;
                m.last_loss = Some(if obs.loss.is_nan() {
                    f64::INFINITY
                } else {
                    obs.loss
                });
                if m.resource >= self.config.max_resource - 1e-9 {
                    m.done = true;
                }
                return;
            }
        }
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
            .continuous("lr", 1e-3, 1.0, Scale::Log)
            .discrete("layers", 2, 4)
            .build()
            .unwrap()
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    /// Drive PBT serially with loss = f(config), returning when finished.
    fn run_serial(
        pbt: &mut Pbt,
        r: &mut StdRng,
        mut loss_of: impl FnMut(&Config, f64) -> f64,
        max_steps: usize,
    ) -> usize {
        let mut steps = 0;
        for _ in 0..max_steps {
            match pbt.suggest(r) {
                Decision::Run(job) => {
                    steps += 1;
                    let loss = loss_of(&job.config, job.resource);
                    pbt.observe(Observation::for_job(&job, loss));
                }
                Decision::Finished => break,
                Decision::Wait => panic!("serial PBT should never wait"),
            }
        }
        steps
    }

    #[test]
    fn population_trains_to_completion() {
        let s = space();
        let mut pbt = Pbt::new(s.clone(), PbtConfig::new(4, 8.0, 2.0));
        let mut r = rng();
        let steps = run_serial(&mut pbt, &mut r, |_, _| 0.5, 1000);
        // 4 members x 4 segments each.
        assert_eq!(steps, 16);
        assert!(pbt.all_done());
        assert!(matches!(pbt.suggest(&mut r), Decision::Finished));
    }

    #[test]
    fn exploits_replace_weak_members() {
        let s = space();
        let mut pbt = Pbt::new(s.clone(), PbtConfig::new(10, 20.0, 2.0));
        let mut r = rng();
        let s2 = s.clone();
        // Loss determined by lr: members with bad lr should copy good ones.
        run_serial(
            &mut pbt,
            &mut r,
            move |c, _| (c.float("lr", &s2).unwrap().ln() - (-3.0)).abs(),
            10_000,
        );
        assert!(pbt.exploit_count() > 0, "no exploits happened");
    }

    #[test]
    fn exploited_jobs_carry_inheritance() {
        let s = space();
        let mut pbt = Pbt::new(s.clone(), PbtConfig::new(5, 50.0, 1.0));
        let mut r = rng();
        let mut saw_inherit = false;
        for _ in 0..500 {
            match pbt.suggest(&mut r) {
                Decision::Run(job) => {
                    if job.inherit_from.is_some() {
                        saw_inherit = true;
                        assert_ne!(job.inherit_from, Some(job.trial));
                    }
                    // Higher trial number = worse loss, forcing turnover.
                    pbt.observe(Observation::for_job(&job, job.trial.0 as f64));
                }
                Decision::Finished => break,
                Decision::Wait => panic!("serial PBT should never wait"),
            }
        }
        assert!(saw_inherit, "no inherited jobs were issued");
    }

    #[test]
    fn frozen_params_survive_exploration() {
        let s = space();
        let mut pbt = Pbt::new(
            s.clone(),
            PbtConfig::new(6, 30.0, 1.0).with_frozen(&["layers"]),
        );
        let mut r = rng();
        // Record each member's layers at birth via trial->layers map.
        let mut layers_of = std::collections::HashMap::new();
        for _ in 0..800 {
            match pbt.suggest(&mut r) {
                Decision::Run(job) => {
                    let layers = job.config.int("layers", &s).unwrap();
                    if let Some(src) = job.inherit_from {
                        let parent_layers = layers_of[&src.0];
                        assert_eq!(
                            layers, parent_layers,
                            "frozen architecture changed on inherit"
                        );
                    }
                    layers_of.insert(job.trial.0, layers);
                    pbt.observe(Observation::for_job(&job, job.trial.0 as f64));
                }
                Decision::Finished => break,
                Decision::Wait => panic!("serial PBT should never wait"),
            }
        }
    }

    #[test]
    fn lag_window_blocks_runaway_members() {
        let s = space();
        let mut pbt = Pbt::new(s.clone(), PbtConfig::new(2, 100.0, 1.0));
        let mut r = rng();
        // Run member A but never report member B's first job: A must stop
        // within max_lag = 2 units.
        let job_a = pbt.suggest(&mut r).job().unwrap();
        let _job_b = pbt.suggest(&mut r).job().unwrap();
        pbt.observe(Observation::for_job(&job_a, 0.1));
        let job_a2 = pbt.suggest(&mut r).job().unwrap();
        pbt.observe(Observation::for_job(&job_a2, 0.1));
        // A is now 2 ahead of B (still pending at 0): blocked.
        assert!(pbt.suggest(&mut r).is_wait());
    }

    #[test]
    fn spawning_mode_keeps_workers_busy() {
        let s = space();
        let mut pbt = Pbt::new(s.clone(), PbtConfig::new(2, 100.0, 1.0).spawning());
        let mut r = rng();
        // Saturate beyond one population without reporting anything.
        for _ in 0..5 {
            assert!(matches!(pbt.suggest(&mut r), Decision::Run(_)));
        }
        assert!(pbt.population_count() >= 2);
    }

    #[test]
    #[should_panic(expected = "at least two members")]
    fn tiny_population_rejected() {
        let _ = PbtConfig::new(1, 10.0, 1.0);
    }
}
