//! Property-based tests of the scheduling core: ASHA's invariants must hold
//! under arbitrary interleavings of suggestions, completions, stragglers,
//! and losses — exactly the asynchrony the algorithm is designed for.

use std::collections::{HashMap, HashSet, VecDeque};

use asha::baselines::{TpeConfig, TpeSampler};
use asha::core::{
    Asha, AshaConfig, BracketLoop, BracketLoopConfig, Decision, Job, Observation, Scheduler,
    TrialId,
};
use asha::space::{Scale, SearchSpace};
use asha_core::reference::{self as twin, RefAsha};
use proptest::prelude::*;

fn space() -> SearchSpace {
    SearchSpace::builder()
        .continuous("x", 0.0, 1.0, Scale::Linear)
        .build()
        .expect("valid space")
}

/// Drive ASHA with a random interleaving: at each step either ask for a job
/// (if below the worker cap) or complete a random outstanding job with a
/// random loss. Returns everything needed to check invariants.
fn drive(
    steps: &[(bool, u8, u16)],
    workers: usize,
    eta: f64,
    max_r: f64,
) -> (Vec<Job>, HashMap<(u64, usize), f64>) {
    let mut asha = Asha::new(space(), AshaConfig::new(1.0, max_r, eta));
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    use rand::SeedableRng as _;
    let mut outstanding: VecDeque<Job> = VecDeque::new();
    let mut issued = Vec::new();
    let mut observed = HashMap::new();
    for &(ask, pick, loss) in steps {
        if ask && outstanding.len() < workers {
            if let Decision::Run(job) = asha.suggest(&mut rng) {
                issued.push(job.clone());
                outstanding.push_back(job);
            }
        } else if !outstanding.is_empty() {
            let idx = pick as usize % outstanding.len();
            let job = outstanding.remove(idx).expect("index in range");
            let loss = loss as f64 / 16.0;
            observed.insert((job.trial.0, job.rung), loss);
            asha.observe(Observation::for_job(&job, loss));
        }
    }
    (issued, observed)
}

/// The loss a hostile stream delivers for `raw`: `INFINITY`, `NaN` or
/// `-INFINITY` (poisoned or diverged trials), `-0.0` beside `0.0`, negative
/// losses, and a few values repeated exactly, so ties decide promotions.
fn hostile_loss(raw: u16) -> f64 {
    match raw % 8 {
        0 => f64::INFINITY,
        1 => f64::NAN,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => 0.0,
        5 => -(raw as f64) / 16.0,
        6 => (raw / 8 % 4) as f64,
        _ => raw as f64 / 16.0,
    }
}

/// Drive any scheduler with a *hostile* completion stream — the one a faulty
/// executor produces: losses from [`hostile_loss`], results may be delivered
/// more than once (retries whose first attempt landed), and observations may
/// arrive for trials that were never issued. Returns the issued jobs and the
/// first loss delivered per `(trial, rung)` — the one the scheduler contract
/// says wins.
fn drive_hostile<S: Scheduler>(
    mut sched: S,
    steps: &[(u8, u8, u16)],
    workers: usize,
) -> (Vec<Job>, HashMap<(u64, usize), f64>) {
    use rand::SeedableRng as _;
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let mut outstanding: VecDeque<Job> = VecDeque::new();
    let mut issued = Vec::new();
    let mut first_loss: HashMap<(u64, usize), f64> = HashMap::new();
    for &(action, pick, raw) in steps {
        let action = action % 8;
        if action < 3 && outstanding.len() < workers {
            if let Decision::Run(job) = sched.suggest(&mut rng) {
                issued.push(job.clone());
                outstanding.push_back(job);
            }
        } else if action == 3 {
            // A report for a trial that was never issued.
            sched.observe(Observation::new(
                TrialId(1_000_000_000 + raw as u64),
                (pick % 4) as usize,
                1.0,
                raw as f64,
            ));
        } else if !outstanding.is_empty() {
            let idx = pick as usize % outstanding.len();
            // action == 4: deliver a duplicate but keep the job outstanding,
            // so its "real" completion arrives again later.
            let job = if action == 4 {
                outstanding[idx].clone()
            } else {
                outstanding.remove(idx).expect("index in range")
            };
            let loss = hostile_loss(raw);
            first_loss.entry((job.trial.0, job.rung)).or_insert(loss);
            sched.observe(Observation::for_job(&job, loss));
        }
    }
    (issued, first_loss)
}

/// Drive an indexed scheduler and its linear-scan reference twin through the
/// same hostile event stream (the exact action/loss encoding of
/// [`drive_hostile`]), asserting identical decisions at every `suggest` and
/// identical exported state after every event. The reference implementations
/// (`asha_core::reference`) are the specification: any divergence is a bug
/// in the promotion-index maintenance.
///
/// States are compared by their `Debug` rendering rather than `PartialEq`:
/// f64's Debug output is round-trip exact and tells `-0.0` from `0.0`.
fn assert_differential<A, B, T>(
    mut fast: A,
    mut reference: B,
    steps: &[(u8, u8, u16)],
    workers: usize,
    export_fast: impl Fn(&A) -> T,
    export_ref: impl Fn(&B) -> T,
) -> Result<(), String>
where
    A: Scheduler,
    B: Scheduler,
    T: std::fmt::Debug,
{
    use rand::SeedableRng as _;
    // Twin RNGs with the same seed: both schedulers must consume the stream
    // at exactly the same points, or configs (and thus states) diverge.
    let mut rng_fast = rand::rngs::StdRng::seed_from_u64(21);
    let mut rng_ref = rand::rngs::StdRng::seed_from_u64(21);
    let mut outstanding: VecDeque<Job> = VecDeque::new();
    for (step, &(action, pick, raw)) in steps.iter().enumerate() {
        let action = action % 8;
        if action < 3 && outstanding.len() < workers {
            let fast_decision = fast.suggest(&mut rng_fast);
            let ref_decision = reference.suggest(&mut rng_ref);
            prop_assert_eq!(
                &fast_decision,
                &ref_decision,
                "decision diverged at step {}",
                step
            );
            if let Decision::Run(job) = fast_decision {
                outstanding.push_back(job);
            }
        } else if action == 3 {
            // A report for a trial that was never issued.
            let obs = Observation::new(
                TrialId(1_000_000_000 + raw as u64),
                (pick % 4) as usize,
                1.0,
                raw as f64,
            );
            fast.observe(obs);
            reference.observe(obs);
        } else if !outstanding.is_empty() {
            let idx = pick as usize % outstanding.len();
            let job = if action == 4 {
                outstanding[idx].clone()
            } else {
                outstanding.remove(idx).expect("index in range")
            };
            let loss = hostile_loss(raw);
            fast.observe(Observation::for_job(&job, loss));
            reference.observe(Observation::for_job(&job, loss));
        }
        prop_assert_eq!(
            format!("{:?}", export_fast(&fast)),
            format!("{:?}", export_ref(&reference)),
            "exported state diverged after step {}",
            step
        );
    }
    Ok(())
}

/// Trials promoted past a rung where their accepted loss was non-finite.
fn poisoned_promotions(issued: &[Job], first_loss: &HashMap<(u64, usize), f64>) -> Vec<u64> {
    issued
        .iter()
        .filter(|job| job.rung > 0)
        .filter(|job| {
            first_loss
                .get(&(job.trial.0, job.rung - 1))
                .is_some_and(|l| !l.is_finite())
        })
        .map(|job| job.trial.0)
        .collect()
}

/// Property body of `promotions_only_take_top_fraction_candidates`: one
/// serial ASHA run fed `losses` in order.
fn check_promotions_take_top_fraction(losses: &[u16]) -> Result<(), String> {
    // The exact Algorithm 2 invariant: whenever a trial is promoted out
    // of rung k, it is at that moment among the top floor(|rung k|/eta)
    // of rung k by loss.
    let eta = 3.0;
    let mut asha = Asha::new(space(), AshaConfig::new(1.0, 27.0, eta));
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    use rand::SeedableRng as _;
    for &loss in losses {
        // Snapshot rung contents before suggesting.
        let tops: Vec<Vec<u64>> = asha
            .ladder()
            .rungs()
            .iter()
            .map(|r| {
                let k = (r.len() as f64 / eta).floor() as usize;
                r.top_k(k).into_iter().map(|(t, _)| t.0).collect()
            })
            .collect();
        let job = match asha.suggest(&mut rng) {
            Decision::Run(job) => job,
            other => {
                prop_assert!(false, "unexpected {other:?}");
                unreachable!()
            }
        };
        if job.rung > 0 {
            let from = job.rung - 1;
            prop_assert!(
                tops[from].contains(&job.trial.0),
                "promoted trial {} was not in the top 1/eta of rung {from}",
                job.trial.0
            );
        }
        asha.observe(Observation::for_job(&job, loss as f64));
    }
    // And mispromotion *count* stays sane: promoted out of rung 0 is at
    // most len/eta plus a sqrt(len)-scale excess (the paper's Section
    // 3.3 law-of-large-numbers argument).
    let rung0 = &asha.ladder().rungs()[0];
    let bound = rung0.len() as f64 / eta + 2.5 * (rung0.len() as f64).sqrt() + 2.0;
    prop_assert!(
        (rung0.promoted_count() as f64) <= bound,
        "rung0 promoted {} of {} (bound {bound})",
        rung0.promoted_count(),
        rung0.len()
    );
    Ok(())
}

/// Property body of `rung_sizes_form_a_geometric_pyramid`.
fn check_geometric_pyramid(losses: &[u16]) -> Result<(), String> {
    // After a serial run, each rung holds roughly 1/eta of the rung
    // below (Figure 2's "simple rule").
    let eta = 3.0;
    let mut asha = Asha::new(space(), AshaConfig::new(1.0, 27.0, eta));
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    use rand::SeedableRng as _;
    for &loss in losses {
        if let Decision::Run(job) = asha.suggest(&mut rng) {
            asha.observe(Observation::for_job(&job, loss as f64));
        }
    }
    let rungs = asha.ladder().rungs();
    for k in 1..rungs.len() {
        let below = rungs[k - 1].len() as f64;
        let here = rungs[k].len() as f64;
        // Each rung holds ~1/eta of the rung below; late record-breaking
        // arrivals can promote past the quota (and cascade), but only
        // by a sqrt-scale excess (Section 3.3's argument).
        prop_assert!(
            here <= below / eta + 2.5 * below.sqrt() + 2.0,
            "rung {k} has {here} with {below} below"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn asha_survives_hostile_observation_streams(
        steps in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u16>()), 1..400),
        workers in 1usize..16,
    ) {
        let asha = Asha::new(space(), AshaConfig::new(1.0, 27.0, 3.0));
        let (issued, first_loss) = drive_hostile(asha, &steps, workers);
        let bad = poisoned_promotions(&issued, &first_loss);
        prop_assert!(bad.is_empty(), "poisoned trials promoted: {:?}", bad);
        // Duplicates are idempotent: no (trial, rung) is issued twice.
        let mut seen = HashSet::new();
        for job in &issued {
            prop_assert!(
                seen.insert((job.trial.0, job.rung)),
                "duplicate issue of trial {} rung {}", job.trial.0, job.rung
            );
        }
    }

    #[test]
    fn sync_sha_survives_hostile_observation_streams(
        steps in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u16>()), 1..400),
        workers in 1usize..16,
    ) {
        let sha = BracketLoop::new(space(), BracketLoopConfig::sha(9, 1.0, 9.0, 3.0).growing());
        let (issued, first_loss) = drive_hostile(sha, &steps, workers);
        let bad = poisoned_promotions(&issued, &first_loss);
        prop_assert!(bad.is_empty(), "poisoned trials promoted: {:?}", bad);
        let mut seen = HashSet::new();
        for job in &issued {
            prop_assert!(
                seen.insert((job.trial.0, job.rung)),
                "duplicate issue of trial {} rung {}", job.trial.0, job.rung
            );
        }
    }

    #[test]
    fn async_hyperband_survives_hostile_observation_streams(
        steps in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u16>()), 1..400),
        workers in 1usize..16,
    ) {
        let hb = BracketLoop::new(space(), BracketLoopConfig::async_hyperband(1.0, 27.0, 3.0));
        let (issued, first_loss) = drive_hostile(hb, &steps, workers);
        let bad = poisoned_promotions(&issued, &first_loss);
        prop_assert!(bad.is_empty(), "poisoned trials promoted: {:?}", bad);
    }

    #[test]
    fn dasha_survives_hostile_observation_streams(
        steps in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u16>()), 1..400),
        workers in 1usize..16,
    ) {
        let dasha = Asha::new(space(), AshaConfig::new(1.0, 27.0, 3.0).delayed());
        let (issued, first_loss) = drive_hostile(dasha, &steps, workers);
        let bad = poisoned_promotions(&issued, &first_loss);
        prop_assert!(bad.is_empty(), "poisoned trials promoted: {:?}", bad);
        let mut seen = HashSet::new();
        for job in &issued {
            prop_assert!(
                seen.insert((job.trial.0, job.rung)),
                "duplicate issue of trial {} rung {}", job.trial.0, job.rung
            );
        }
    }

    #[test]
    fn dasha_promotions_never_exceed_the_quota(
        steps in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u16>()), 1..400),
        workers in 1usize..16,
    ) {
        // The delayed rule's defining property, and what separates it from
        // eager ASHA: at every instant, every rung has promoted at most
        // floor(len / eta) trials — exactly, with no sqrt-scale excess.
        let mut dasha = Asha::new(space(), AshaConfig::new(1.0, 27.0, 3.0).delayed());
        use rand::SeedableRng as _;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut outstanding: VecDeque<Job> = VecDeque::new();
        let eta = 3.0f64;
        for &(action, pick, raw) in &steps {
            if action % 2 == 0 && outstanding.len() < workers {
                if let Decision::Run(job) = dasha.suggest(&mut rng) {
                    outstanding.push_back(job);
                }
            } else if !outstanding.is_empty() {
                let idx = pick as usize % outstanding.len();
                let job = outstanding.remove(idx).expect("index in range");
                dasha.observe(Observation::for_job(&job, raw as f64 / 16.0));
            }
            for (k, rung) in dasha.ladder().rungs().iter().enumerate() {
                let quota = (rung.len() as f64 / eta).floor() as usize;
                prop_assert!(
                    rung.promoted_count() <= quota,
                    "rung {k} promoted {} of {} (quota {quota})",
                    rung.promoted_count(), rung.len()
                );
            }
        }
    }

    #[test]
    fn indexed_dasha_matches_reference_on_hostile_streams(
        steps in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u16>()), 1..300),
        workers in 1usize..16,
    ) {
        let fast = Asha::new(space(), AshaConfig::new(1.0, 27.0, 3.0).delayed());
        let reference = RefAsha::new(space(), AshaConfig::new(1.0, 27.0, 3.0).delayed());
        assert_differential(
            fast, reference, &steps, workers,
            Asha::export_state, RefAsha::export_state,
        )?;
    }

    #[test]
    fn asha_tpe_matches_reference_on_hostile_streams(
        steps in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u16>()), 1..300),
        workers in 1usize..16,
    ) {
        // Model-based sampling on the indexed hot path: both twins carry an
        // independent TPE instance fed the identical observation stream, so
        // proposals — and the serialized sampler cursors — must stay equal.
        let tpe = || Box::new(TpeSampler::new(space(), TpeConfig::default()));
        let fast = Asha::with_sampler(space(), AshaConfig::new(1.0, 27.0, 3.0), tpe());
        let reference = RefAsha::with_sampler(space(), AshaConfig::new(1.0, 27.0, 3.0), tpe());
        assert_differential(
            fast, reference, &steps, workers,
            |a: &Asha| (a.export_state(), a.export_sampler_cursor()),
            |r: &RefAsha| (r.export_state(), r.export_sampler_cursor()),
        )?;
    }

    #[test]
    fn dasha_tpe_matches_reference_on_hostile_streams(
        steps in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u16>()), 1..300),
        workers in 1usize..16,
    ) {
        let tpe = || Box::new(TpeSampler::new(space(), TpeConfig::default()));
        let config = AshaConfig::new(1.0, 27.0, 3.0).delayed();
        let fast = Asha::with_sampler(space(), config.clone(), tpe());
        let reference = RefAsha::with_sampler(space(), config, tpe());
        assert_differential(
            fast, reference, &steps, workers,
            |a: &Asha| (a.export_state(), a.export_sampler_cursor()),
            |r: &RefAsha| (r.export_state(), r.export_sampler_cursor()),
        )?;
    }

    #[test]
    fn indexed_asha_matches_reference_on_hostile_streams(
        steps in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u16>()), 1..300),
        workers in 1usize..16,
        one_rung in any::<bool>(),
    ) {
        // `r = R` is random search: one rung, nothing ever promoted.
        let config = if one_rung {
            AshaConfig::random(27.0)
        } else {
            AshaConfig::new(1.0, 27.0, 3.0)
        };
        let fast = Asha::new(space(), config.clone());
        let reference = RefAsha::new(space(), config);
        assert_differential(
            fast, reference, &steps, workers,
            Asha::export_state, RefAsha::export_state,
        )?;
    }

    #[test]
    fn indexed_sync_sha_matches_reference_on_hostile_streams(
        steps in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u16>()), 1..300),
        workers in 1usize..16,
    ) {
        let config = BracketLoopConfig::sha(9, 1.0, 9.0, 3.0).growing();
        let fast = BracketLoop::new(space(), config.clone());
        let reference = twin::bracket_loop(space(), config);
        assert_differential(
            fast, reference, &steps, workers,
            BracketLoop::export_state, BracketLoop::export_state,
        )?;
    }

    #[test]
    fn indexed_hyperband_matches_reference_on_hostile_streams(
        steps in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u16>()), 1..300),
        workers in 1usize..16,
    ) {
        // Brackets of 9, 5 and 3 trials: a stream passes several
        // generations, wrapping back to `s = 0`.
        let config = BracketLoopConfig::hyperband(1.0, 9.0, 3.0);
        let fast = BracketLoop::new(space(), config.clone());
        let reference = twin::bracket_loop(space(), config);
        assert_differential(
            fast, reference, &steps, workers,
            BracketLoop::export_state, BracketLoop::export_state,
        )?;
    }

    #[test]
    fn indexed_async_hyperband_matches_reference_on_hostile_streams(
        steps in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u16>()), 1..300),
        workers in 1usize..16,
    ) {
        let config = BracketLoopConfig::async_hyperband(1.0, 27.0, 3.0);
        let fast = BracketLoop::new(space(), config.clone());
        let reference = twin::bracket_loop(space(), config);
        assert_differential(
            fast, reference, &steps, workers,
            BracketLoop::export_state, BracketLoop::export_state,
        )?;
    }

    #[test]
    fn asha_invariants_under_arbitrary_interleavings(
        steps in prop::collection::vec((any::<bool>(), any::<u8>(), any::<u16>()), 1..400),
        workers in 1usize..32,
    ) {
        let eta = 3.0;
        let max_r = 27.0;
        let (issued, _observed) = drive(&steps, workers, eta, max_r);

        // 1. No (trial, rung) pair is ever issued twice.
        let mut seen = HashSet::new();
        for job in &issued {
            prop_assert!(
                seen.insert((job.trial.0, job.rung)),
                "duplicate issue of trial {} rung {}", job.trial.0, job.rung
            );
        }

        // 2. Resources follow the geometric rung schedule and never exceed R.
        for job in &issued {
            let expected = (1.0 * eta.powi(job.rung as i32)).min(max_r);
            prop_assert_eq!(job.resource, expected);
        }

        // 3. A trial appears at rung k+1 only after appearing at rung k.
        let mut rungs_of: HashMap<u64, Vec<usize>> = HashMap::new();
        for job in &issued {
            rungs_of.entry(job.trial.0).or_default().push(job.rung);
        }
        for (trial, rungs) in &rungs_of {
            for (i, &r) in rungs.iter().enumerate() {
                prop_assert_eq!(
                    r, i,
                    "trial {} visited rungs {:?} out of order", trial, rungs
                );
            }
        }

        // 4. Plain ASHA never issues jobs beyond the top rung.
        let top = 3; // log_3(27)
        prop_assert!(issued.iter().all(|j| j.rung <= top));
    }

    #[test]
    fn promotions_only_take_top_fraction_candidates(
        losses in prop::collection::vec(0u16..1000, 30..300),
    ) {
        check_promotions_take_top_fraction(&losses)?;
    }

    #[test]
    fn rung_sizes_form_a_geometric_pyramid(
        losses in prop::collection::vec(0u16..1000, 100..400),
    ) {
        check_geometric_pyramid(&losses)?;
    }
}

// Failing inputs an upstream `proptest` once shrank to and recorded; the
// vendored runner keeps no regression file, so each is replayed by name
// against both properties that take a loss stream.

fn replay_recorded_losses(losses: &[u16]) {
    check_promotions_take_top_fraction(losses).expect("recorded loss stream");
    check_geometric_pyramid(losses).expect("recorded loss stream");
}

#[test]
fn recorded_losses_30_starting_with_a_tie() {
    replay_recorded_losses(&[
        0, 0, 108, 82, 294, 671, 536, 188, 430, 208, 295, 670, 973, 107, 428, 18, 640, 823, 174,
        412, 243, 670, 82, 443, 534, 920, 71, 953, 897, 509,
    ]);
}

#[test]
fn recorded_losses_150() {
    replay_recorded_losses(&[
        455, 394, 335, 849, 842, 484, 542, 876, 570, 730, 488, 981, 420, 570, 11, 397, 685, 767,
        603, 918, 447, 240, 301, 876, 859, 893, 947, 685, 306, 803, 788, 553, 570, 687, 712, 783,
        734, 918, 914, 610, 289, 754, 461, 695, 842, 123, 978, 837, 230, 122, 607, 735, 514, 522,
        837, 868, 936, 378, 624, 812, 843, 135, 829, 879, 606, 811, 734, 360, 908, 170, 49, 203,
        207, 377, 476, 792, 659, 94, 645, 474, 223, 694, 20, 360, 833, 987, 111, 897, 427, 504,
        125, 342, 295, 65, 299, 498, 905, 774, 206, 845, 511, 643, 673, 992, 151, 557, 238, 584,
        217, 897, 808, 900, 191, 194, 889, 386, 429, 60, 73, 915, 746, 187, 609, 242, 318, 547,
        243, 962, 220, 697, 511, 404, 136, 805, 238, 626, 532, 944, 572, 233, 688, 40, 617, 67,
        355, 72, 48, 397, 347, 924,
    ]);
}

#[test]
fn recorded_losses_100_starting_with_a_tie() {
    replay_recorded_losses(&[
        24, 24, 689, 218, 246, 23, 642, 795, 284, 700, 643, 629, 774, 648, 989, 937, 395, 807, 968,
        973, 126, 809, 851, 840, 827, 175, 407, 483, 847, 843, 898, 344, 993, 721, 908, 485, 688,
        865, 638, 362, 206, 234, 947, 733, 999, 72, 241, 852, 807, 598, 362, 566, 405, 907, 14,
        841, 734, 720, 575, 76, 694, 888, 136, 287, 450, 972, 144, 13, 11, 885, 881, 265, 776, 773,
        978, 582, 192, 221, 7, 181, 742, 348, 580, 249, 472, 282, 552, 353, 562, 311, 15, 964, 898,
        623, 344, 97, 530, 703, 872, 138,
    ]);
}
