//! Property tests of mid-run scheduler persistence: for every scheduler
//! kind, driving it partway through a run (with arbitrary interleavings of
//! suggestions and observations, including non-finite losses and pending
//! promotions), serializing its state to JSON, parsing that text back, and
//! restoring must yield a scheduler whose subsequent decision stream is
//! identical to the original's — the property crash recovery rests on.

use std::collections::VecDeque;

use asha_baselines::{bohb_asha, Sampler};
use asha_core::{
    Asha, AshaConfig, AsyncHyperband, Decision, HyperbandConfig, Job, Observation, Scheduler,
    ShaConfig, SyncSha,
};
use asha_metrics::JsonValue;
use asha_space::{Scale, SearchSpace};
use asha_store::codec::{scheduler_state_from_json, scheduler_state_to_json};
use asha_store::{SamplerSpec, StoredScheduler};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn space() -> SearchSpace {
    SearchSpace::builder()
        .continuous("lr", 1e-4, 1.0, Scale::Log)
        .discrete("layers", 1, 8)
        .categorical("opt", &["sgd", "adam", "rms"])
        .build()
        .expect("valid space")
}

/// Deterministic loss for a finished job: mostly finite, with the script
/// able to force divergence-style non-finite values.
fn loss_for(job: &Job, kind: u8) -> f64 {
    match kind {
        0 => f64::INFINITY,
        1 => f64::NAN,
        _ => 0.5 + ((job.trial.0 as f64 * 0.37 + job.rung as f64 * 0.11).sin() * 0.4),
    }
}

/// One driving step: whether to retire a pending job before suggesting, and
/// how its loss behaves (0 = +inf, 1 = NaN, else finite).
type ScriptStep = (bool, u8);

/// Drive `scheduler` through `script`, keeping issued-but-unfinished jobs in
/// a pending queue (so promotions can be outstanding when we stop).
fn drive(
    scheduler: &mut StoredScheduler,
    rng: &mut StdRng,
    pending: &mut VecDeque<Job>,
    script: &[ScriptStep],
) {
    for &(observe_first, loss_kind) in script {
        if observe_first {
            if let Some(job) = pending.pop_front() {
                let loss = loss_for(&job, loss_kind);
                scheduler.observe(Observation::for_job(&job, loss));
            }
        }
        match scheduler.suggest(rng) {
            Decision::Run(job) => pending.push_back(job),
            Decision::Wait | Decision::Finished => {}
        }
    }
}

/// Serialize → render → parse → restore, then check the original and the
/// restored copy produce identical decision streams from identical RNGs.
fn check_roundtrip(
    mut original: StoredScheduler,
    script: Vec<ScriptStep>,
    seed: u64,
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pending = VecDeque::new();
    drive(&mut original, &mut rng, &mut pending, &script);

    // Full JSON round trip through rendered text, exactly as a snapshot
    // file would store it.
    let state = original.export_state();
    let text = scheduler_state_to_json(&state).render();
    let parsed = JsonValue::parse(&text)
        .map_err(|e| e.to_string())
        .and_then(|v| scheduler_state_from_json(&v).map_err(|e| e.to_string()))?;
    // State equality is checked via re-rendered JSON (NaN losses make the
    // structural PartialEq vacuously false).
    prop_assert_eq!(&text, &scheduler_state_to_json(&parsed).render());
    // The sampling plane takes the same trip: kind + cursors through JSON,
    // then a fresh sampler instance rehydrated from the parsed spec — the
    // exact path `DurableRun::resume` walks.
    let spec = original.export_sampler_spec();
    let parsed_spec = match &spec {
        None => None,
        Some(s) => {
            let spec_text = s.to_json().render();
            let v = JsonValue::parse(&spec_text).map_err(|e| e.to_string())?;
            let back = SamplerSpec::from_json(&v).map_err(|e| e.to_string())?;
            prop_assert_eq!(s, &back, "sampler spec JSON roundtrip changed it");
            Some(back)
        }
    };
    let kind = parsed_spec
        .as_ref()
        .map(|s| s.kind)
        .unwrap_or(Sampler::Random);
    let mut restored = StoredScheduler::from_state(space(), parsed, kind);
    if let Some(s) = &parsed_spec {
        restored.restore_sampler_spec(s);
    }
    prop_assert_eq!(
        &spec,
        &restored.export_sampler_spec(),
        "restored sampler cursor differs from the exported one"
    );

    // Identical RNG streams from the captured state.
    let words = rng.state();
    let mut rng_a = StdRng::from_state(words);
    let mut rng_b = StdRng::from_state(words);
    let mut pending_b = pending.clone();

    for step in 0..60 {
        // Deterministically retire one job on alternating steps so rungs
        // keep filling and promotions keep happening.
        if step % 2 == 1 {
            if let (Some(ja), Some(jb)) = (pending.pop_front(), pending_b.pop_front()) {
                prop_assert_eq!(&ja, &jb);
                let loss = loss_for(&ja, (step % 5) as u8);
                original.observe(Observation::for_job(&ja, loss));
                restored.observe(Observation::for_job(&jb, loss));
            }
        }
        let da = original.suggest(&mut rng_a);
        let db = restored.suggest(&mut rng_b);
        prop_assert_eq!(&da, &db, "decision streams diverged at step {}", step);
        if let Decision::Run(job) = da {
            pending.push_back(job.clone());
            pending_b.push_back(job);
        }
    }
    // Continued-export equality: after sixty further events the restored
    // scheduler's *exportable state* — not just its decision stream — must
    // still match the original's. This is what pins the promotion indexes
    // (candidate caches, lazy heaps, rank sets) as pure derived data: a
    // ladder rebuilt by replay and then mutated further is observationally
    // identical to one that never went through serialization.
    prop_assert_eq!(
        scheduler_state_to_json(&original.export_state()).render(),
        scheduler_state_to_json(&restored.export_state()).render(),
        "continued exports diverged after restore"
    );
    // And the sampling plane too: sixty further shared observations must
    // leave both sampler models (cursors) identical — a restored model that
    // silently dropped observations would diverge here.
    prop_assert_eq!(
        original.export_sampler_spec(),
        restored.export_sampler_spec(),
        "continued sampler cursors diverged after restore"
    );
    Ok(())
}

/// Compatibility: snapshots written before the promotion-candidate indexes
/// existed contain only arrival-ordered records and promoted lists — no
/// index data. Loading such a snapshot must rebuild every index by replay
/// and make the exact promotion decisions the records imply.
///
/// The fixture is hand-written JSON in the v1 snapshot scheduler schema
/// (which the index work deliberately left unchanged): a two-rung ASHA
/// ladder mid-run, with rung 0 at its promotion quota and rung 1 holding an
/// unpromoted best trial.
#[test]
fn pre_index_snapshot_restores_and_promotes_correctly() {
    let fixture_space = SearchSpace::builder()
        .continuous("x", 0.0, 1.0, Scale::Linear)
        .build()
        .expect("valid space");
    let trials_json: String = (0..9)
        .map(|t| format!("[{t}, [{{\"float\": 0.{t}5}}]]"))
        .collect::<Vec<_>>()
        .join(", ");
    let text = format!(
        r#"{{
        "kind": "asha",
        "state": {{
            "config": {{
                "min_resource": 1.0, "max_resource": 9.0,
                "reduction_factor": 3.0, "stop_rate": 0,
                "infinite_horizon": false, "max_trials": null,
                "scan_order": "top_down"
            }},
            "rungs": [
                {{"records": [[0, 0.5], [1, 0.1], [2, 0.3], [3, 0.9], [4, 0.2],
                              [5, 0.6], [6, 0.05], [7, 0.8], [8, 0.7]],
                  "promoted": [1, 4, 6]}},
                {{"records": [[6, 0.06], [1, 0.12], [4, 0.22]], "promoted": []}}
            ],
            "trials": [{trials_json}],
            "outstanding": [],
            "next_trial": 9,
            "trials_started": 9,
            "name": "ASHA"
        }}
    }}"#
    );
    let parsed = JsonValue::parse(&text).expect("fixture parses");
    let state = scheduler_state_from_json(&parsed).expect("fixture decodes");
    let mut restored = StoredScheduler::from_state(fixture_space, state, Sampler::Random);
    let mut rng = StdRng::seed_from_u64(0);

    // Rung 1 (len 3, eta 3 -> k = 1, none promoted) holds the best
    // unpromoted trial 6 at loss 0.06: the top-down scan must promote it to
    // rung 2 at resource 9. Rung 0 must NOT promote: its best unpromoted
    // trial 2 (loss 0.3) ranks behind the three promoted trials (0.05, 0.1,
    // 0.2) with k = floor(9/3) = 3.
    let first = restored.suggest(&mut rng);
    match &first {
        Decision::Run(job) => {
            assert_eq!(job.trial.0, 6, "expected trial 6 promoted, got {first:?}");
            assert_eq!(job.rung, 2);
            assert_eq!(job.resource, 9.0);
        }
        other => panic!("expected a promotion, got {other:?}"),
    }

    // With trial 6 promoted, rung 1's quota (k = 1) is used and rung 0 is
    // still at quota, so the next decision must grow the bottom rung with a
    // freshly sampled trial 9 — exercising the rebuilt rank index's "no"
    // answer on both rungs.
    let second = restored.suggest(&mut rng);
    match &second {
        Decision::Run(job) => {
            assert_eq!(job.trial.0, 9, "expected fresh trial 9, got {second:?}");
            assert_eq!(job.rung, 0);
            assert_eq!(job.resource, 1.0);
        }
        other => panic!("expected a fresh sample, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn asha_roundtrips_mid_run(
        script in prop::collection::vec((any::<bool>(), 0u8..5), 1..80),
        seed in 0u64..1000,
    ) {
        let scheduler = StoredScheduler::new(Asha::new(
            space(),
            AshaConfig::new(1.0, 27.0, 3.0),
        ));
        check_roundtrip(scheduler, script, seed)?;
    }

    #[test]
    fn dasha_roundtrips_mid_run(
        script in prop::collection::vec((any::<bool>(), 0u8..5), 1..80),
        seed in 0u64..1000,
    ) {
        let scheduler = StoredScheduler::new(Asha::new(
            space(),
            AshaConfig::new(1.0, 27.0, 3.0).delayed(),
        ));
        check_roundtrip(scheduler, script, seed)?;
    }

    #[test]
    fn asha_tpe_roundtrips_mid_run(
        script in prop::collection::vec((any::<bool>(), 0u8..5), 1..80),
        seed in 0u64..1000,
    ) {
        // Model-based sampling through the snapshot path: the TPE cursor
        // must survive serialization and keep proposing identically.
        let scheduler = StoredScheduler::new(bohb_asha(
            space(),
            AshaConfig::new(1.0, 27.0, 3.0),
        ));
        check_roundtrip(scheduler, script, seed)?;
    }

    #[test]
    fn dasha_tpe_roundtrips_mid_run(
        script in prop::collection::vec((any::<bool>(), 0u8..5), 1..80),
        seed in 0u64..1000,
    ) {
        let scheduler = StoredScheduler::new(Asha::with_sampler(
            space(),
            AshaConfig::new(1.0, 27.0, 3.0).delayed(),
            Sampler::Tpe.build(&space()),
        ));
        check_roundtrip(scheduler, script, seed)?;
    }

    #[test]
    fn asha_gp_roundtrips_mid_run(
        script in prop::collection::vec((any::<bool>(), 0u8..5), 1..40),
        seed in 0u64..1000,
    ) {
        let scheduler = StoredScheduler::new(Asha::with_sampler(
            space(),
            AshaConfig::new(1.0, 27.0, 3.0),
            Sampler::Gp.build(&space()),
        ));
        check_roundtrip(scheduler, script, seed)?;
    }

    #[test]
    fn sync_sha_roundtrips_mid_run(
        script in prop::collection::vec((any::<bool>(), 0u8..5), 1..80),
        seed in 0u64..1000,
    ) {
        let scheduler = StoredScheduler::new(SyncSha::new(
            space(),
            ShaConfig::new(27, 1.0, 27.0, 3.0),
        ));
        check_roundtrip(scheduler, script, seed)?;
    }

    #[test]
    fn async_hyperband_roundtrips_mid_run(
        script in prop::collection::vec((any::<bool>(), 0u8..5), 1..80),
        seed in 0u64..1000,
    ) {
        let scheduler = StoredScheduler::new(AsyncHyperband::new(
            space(),
            HyperbandConfig::new(1.0, 27.0, 3.0),
        ));
        check_roundtrip(scheduler, script, seed)?;
    }
}
