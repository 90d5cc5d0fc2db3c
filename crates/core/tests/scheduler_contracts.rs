//! Contract tests of the public scheduling API across implementations:
//! behaviours every `Scheduler` must share, plus cross-scheduler
//! consistency checks that unit tests inside each module cannot express.

use asha_core::{
    Asha, AshaConfig, BracketLoop, BracketLoopConfig, Decision, Observation, Opening, ScanOrder,
    Scheduler, TrialId,
};
use asha_space::{Scale, SearchSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn space() -> SearchSpace {
    SearchSpace::builder()
        .continuous("x", 0.0, 1.0, Scale::Linear)
        .discrete("n", 1, 8)
        .build()
        .expect("valid space")
}

fn all_schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(Asha::new(space(), AshaConfig::new(1.0, 27.0, 3.0))),
        Box::new(BracketLoop::new(
            space(),
            BracketLoopConfig::sha(27, 1.0, 27.0, 3.0).growing(),
        )),
        Box::new(BracketLoop::new(
            space(),
            BracketLoopConfig::hyperband(1.0, 27.0, 3.0),
        )),
        Box::new(BracketLoop::new(
            space(),
            BracketLoopConfig::async_hyperband(1.0, 27.0, 3.0),
        )),
        Box::new(Asha::new(space(), AshaConfig::random(27.0))),
    ]
}

#[test]
fn unsolicited_observations_never_panic_or_corrupt() {
    for mut s in all_schedulers() {
        // Bogus observations before any suggestion.
        s.observe(Observation::new(TrialId(u64::MAX), 0, 1.0, 0.1));
        s.observe(Observation::new(TrialId(12345), 3, 27.0, f64::NAN));
        // The scheduler still works afterwards.
        let mut rng = StdRng::seed_from_u64(0);
        let name = s.name().to_owned();
        match s.suggest(&mut rng) {
            Decision::Run(job) => s.observe(Observation::for_job(&job, 0.5)),
            other => panic!("{name}: expected a first job, got {other:?}"),
        }
    }
}

#[test]
fn infinite_and_nan_losses_are_survivable() {
    for mut s in all_schedulers() {
        let mut rng = StdRng::seed_from_u64(1);
        let name = s.name().to_owned();
        for i in 0..60 {
            match s.suggest(&mut rng) {
                Decision::Run(job) => {
                    let loss = match i % 3 {
                        0 => f64::INFINITY,
                        1 => f64::NAN,
                        _ => i as f64,
                    };
                    s.observe(Observation::for_job(&job, loss));
                }
                Decision::Finished => break,
                Decision::Wait => panic!("{name}: serial run should not wait"),
            }
        }
    }
}

#[test]
fn duplicate_reports_do_not_double_count() {
    for mut s in all_schedulers() {
        let mut rng = StdRng::seed_from_u64(2);
        let name = s.name().to_owned();
        let mut issued = Vec::new();
        for _ in 0..9 {
            if let Decision::Run(job) = s.suggest(&mut rng) {
                issued.push(job);
            }
        }
        // Report each job twice, interleaved.
        for job in &issued {
            s.observe(Observation::for_job(job, job.trial.0 as f64));
            s.observe(Observation::for_job(job, 0.0)); // would be rank-breaking if counted
        }
        // The scheduler keeps making progress.
        assert!(
            matches!(s.suggest(&mut rng), Decision::Run(_)),
            "{name} stalled after duplicate reports"
        );
    }
}

#[test]
fn job_fields_are_internally_consistent() {
    for mut s in all_schedulers() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..40 {
            match s.suggest(&mut rng) {
                Decision::Run(job) => {
                    assert!(job.resource > 0.0 && job.resource <= 27.0);
                    assert_eq!(job.config.len(), 2);
                    assert!(job.inherit_from.is_none(), "no scheduler here inherits");
                    s.observe(Observation::for_job(&job, 1.0));
                }
                Decision::Finished => break,
                Decision::Wait => break,
            }
        }
    }
}

#[test]
fn boxed_scheduler_forwards_everything() {
    let mut boxed: Box<dyn Scheduler> =
        Box::new(Asha::new(space(), AshaConfig::new(1.0, 9.0, 3.0)));
    let mut rng = StdRng::seed_from_u64(4);
    assert_eq!(boxed.name(), "ASHA");
    let job = boxed.suggest(&mut rng).job().expect("asha runs");
    boxed.observe(Observation::for_job(&job, 0.1));
}

#[test]
fn scan_orders_agree_when_one_promotion_exists() {
    // With a single promotable candidate, top-down and bottom-up must pick
    // the same trial.
    let run = |order: ScanOrder| {
        let mut asha = Asha::new(
            space(),
            AshaConfig::new(1.0, 27.0, 3.0).with_scan_order(order),
        );
        let mut rng = StdRng::seed_from_u64(5);
        let mut first_promo = None;
        for i in 0..10 {
            let job = asha.suggest(&mut rng).job().expect("asha runs");
            if job.rung > 0 && first_promo.is_none() {
                first_promo = Some(job.trial);
            }
            asha.observe(Observation::for_job(&job, i as f64));
        }
        first_promo
    };
    assert_eq!(run(ScanOrder::TopDown), run(ScanOrder::BottomUp));
}

#[test]
fn scan_orders_diverge_when_multiple_rungs_are_promotable() {
    // Build a ladder state where both rung 0 and rung 1 hold promotable
    // candidates, by withholding observations and then releasing them.
    let build = |order: ScanOrder| {
        let mut asha = Asha::new(
            space(),
            AshaConfig::new(1.0, 81.0, 3.0).with_scan_order(order),
        );
        let mut rng = StdRng::seed_from_u64(6);
        // Issue 12 rung-0 jobs up front (all outstanding, nothing
        // promotable yet)...
        let jobs: Vec<_> = (0..12)
            .map(|_| asha.suggest(&mut rng).job().expect("runs"))
            .collect();
        assert!(jobs.iter().all(|j| j.rung == 0));
        // ...complete 9 of them, then walk 3 promotions through rung 1.
        for (i, job) in jobs[..9].iter().enumerate() {
            asha.observe(Observation::for_job(job, i as f64));
        }
        for i in 0..3 {
            let promo = asha.suggest(&mut rng).job().expect("runs");
            assert_eq!(promo.rung, 1);
            asha.observe(Observation::for_job(&promo, i as f64));
        }
        // Rung 1 now has 3 records (1 promotable). Releasing the withheld
        // rung-0 results grows rung 0 to 12 records, re-opening its quota.
        for (i, job) in jobs[9..].iter().enumerate() {
            asha.observe(Observation::for_job(job, 9.0 + i as f64));
        }
        asha.suggest(&mut rng).job().expect("runs").rung
    };
    let top_down = build(ScanOrder::TopDown);
    let bottom_up = build(ScanOrder::BottomUp);
    assert_eq!(top_down, 2, "top-down must promote from the highest rung");
    assert_eq!(bottom_up, 1, "bottom-up must prefer the lower rung");
}

#[test]
fn hyperband_generations_do_not_leak_observations() {
    // Complete bracket 0 fully, then send a stale observation for one of
    // its trials: the new bracket must ignore it.
    let mut hb = BracketLoop::new(space(), BracketLoopConfig::hyperband(1.0, 9.0, 3.0));
    let mut rng = StdRng::seed_from_u64(7);
    let mut last_job = None;
    for _ in 0..13 {
        let job = hb.suggest(&mut rng).job().expect("runs");
        hb.observe(Observation::for_job(&job, job.trial.0 as f64));
        last_job = Some(job);
    }
    // Bracket 0 done; next suggest starts bracket 1.
    let next = hb.suggest(&mut rng).job().expect("runs");
    assert_eq!(next.bracket, 1);
    // Stale report from generation 0: must be ignored, not crash or stall.
    hb.observe(Observation::for_job(&last_job.expect("ran jobs"), 0.0));
    assert!(matches!(hb.suggest(&mut rng), Decision::Run(_)));
}

#[test]
fn async_hyperband_budgets_match_bracket_tables() {
    let cfg = BracketLoopConfig::async_hyperband(1.0, 256.0, 4.0);
    assert_eq!(cfg.opening, Opening::AsyncHyperband { num_brackets: 5 });
    // The per-bracket budget used for switching equals the SHA bracket
    // budget for that bracket's n.
    for s in 0..5 {
        let n = cfg.bracket_num_configs(s);
        let budget = asha_core::budget::bracket_budget(n, 1.0, 256.0, 4.0, s);
        assert!(budget > 0.0);
        // Brackets cover every early-stopping rate exactly once.
        assert!(n >= 4f64.powi((4 - s) as i32) as usize);
    }
}
