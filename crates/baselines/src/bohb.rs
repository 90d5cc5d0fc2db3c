//! BOHB (Falkner et al., 2018) as the paper frames it: synchronous SHA for
//! early stopping with TPE in place of random sampling — plus the
//! asynchronous cross wiring TPE into ASHA. The two keep the names the
//! paper's figures print (`BOHB`, `ASHA+TPE`); every other sampler cross
//! names itself (`D-ASHA+tpe`, `SHA+gp`, ...).

use asha_core::{Asha, AshaConfig, BracketLoop, BracketLoopConfig};
use asha_space::SearchSpace;

use crate::sampler::Sampler;

/// Build BOHB: synchronous SHA whose new configurations come from a TPE
/// model. Per Section 4.1, "BOHB uses SHA to perform early-stopping and
/// differs only in how configurations are sampled; while SHA uses random
/// sampling, BOHB uses Bayesian optimization to adaptively sample new
/// configurations." The paper runs BOHB "using the same early-stopping rate
/// as SHA and ASHA instead of looping through brackets", which is
/// [`BracketLoopConfig::sha`]; its brackets share one model.
///
/// # Panics
///
/// Panics under the same conditions as [`BracketLoop::new`].
///
/// # Examples
///
/// ```
/// use asha_baselines::bohb;
/// use asha_core::{BracketLoopConfig, Scheduler};
/// use asha_space::{Scale, SearchSpace};
///
/// let space = SearchSpace::builder()
///     .continuous("lr", 1e-3, 1.0, Scale::Log)
///     .build()?;
/// let tuner = bohb(space, BracketLoopConfig::sha(9, 1.0, 9.0, 3.0));
/// assert_eq!(tuner.name(), "BOHB");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn bohb(space: SearchSpace, config: BracketLoopConfig) -> BracketLoop {
    let tpe = |_| Sampler::Tpe.build(&space);
    let mut sha = BracketLoop::with_sampler_factory(space.clone(), config, tpe);
    sha.set_name("BOHB");
    sha
}

/// The asynchronous cross: ASHA promotions with TPE sampling. Not a paper
/// baseline, but a natural ablation ("can BOHB's model help ASHA?") used by
/// the ablation benches. On a one-rung ladder nothing is stopped early, so
/// the scheduler keeps its own name, `Random+tpe`.
///
/// # Panics
///
/// Panics under the same conditions as [`Asha::new`].
pub fn bohb_asha(space: SearchSpace, config: AshaConfig) -> Asha {
    let sampler = Sampler::Tpe.build(&space);
    let mut asha = Asha::with_sampler(space, config, sampler);
    if asha.ladder().max_rung() != Some(0) {
        asha.set_name("ASHA+TPE");
    }
    asha
}

#[cfg(test)]
mod tests {
    use super::*;
    use asha_core::{Decision, Observation, Scheduler};
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
    fn bohb_runs_a_bracket_like_sha() {
        let mut tuner = bohb(space(), BracketLoopConfig::sha(9, 1.0, 9.0, 3.0));
        let mut rng = StdRng::seed_from_u64(0);
        let mut jobs = 0;
        loop {
            match tuner.suggest(&mut rng) {
                Decision::Run(job) => {
                    jobs += 1;
                    tuner.observe(Observation::for_job(&job, job.trial.0 as f64));
                }
                Decision::Finished => break,
                Decision::Wait => panic!("serial BOHB never waits"),
            }
        }
        assert_eq!(jobs, 13, "same bracket shape as SHA");
    }

    #[test]
    fn bohb_sampling_adapts_after_enough_data() {
        // Feed a long-running growing BOHB and verify proposals concentrate:
        // losses favor x near 0.25.
        let s = space();
        let mut tuner = bohb(
            s.clone(),
            BracketLoopConfig::sha(9, 1.0, 9.0, 3.0).growing(),
        );
        let mut rng = StdRng::seed_from_u64(1);
        let mut late_xs = Vec::new();
        for i in 0..400 {
            match tuner.suggest(&mut rng) {
                Decision::Run(job) => {
                    let x = job.config.float("x", &s).unwrap();
                    if i > 300 && job.rung == 0 {
                        late_xs.push(x);
                    }
                    tuner.observe(Observation::for_job(&job, (x - 0.25).abs()));
                }
                _ => break,
            }
        }
        assert!(!late_xs.is_empty());
        let mean_dist =
            late_xs.iter().map(|x| (x - 0.25).abs()).sum::<f64>() / late_xs.len() as f64;
        // Uniform would give ≈ 0.28; TPE (with its 1/3 random fraction)
        // should do clearly better.
        assert!(mean_dist < 0.22, "mean distance {mean_dist}");
    }

    #[test]
    fn asha_tpe_cross_names_itself() {
        let tuner = bohb_asha(space(), asha_core::AshaConfig::new(1.0, 9.0, 3.0));
        assert_eq!(tuner.name(), "ASHA+TPE");
        let random = bohb_asha(space(), asha_core::AshaConfig::random(9.0));
        assert_eq!(random.name(), "Random+tpe");
    }
}
