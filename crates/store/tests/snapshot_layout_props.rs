//! The snapshot document's two layouts, pinned against each other.
//!
//! Schema v2, what the store writes, stores every simulator row and every
//! config value positionally; schema v1, what older stores hold, keyed them.
//! Arbitrary simulator and scheduler states — every scheduler kind, configs
//! mixing floats (infinities, NaN, −0.0, subnormals), extreme integers and
//! indexes — must decode back unchanged from either layout, v1 written by
//! the retired keyed writer kept in `keyed/` as the oracle. Since the v2
//! decoders index arrays, a row of the wrong length or element type, a
//! config value with a bad tag and a truncated payload must each be an
//! `Err`, never a panic. (That the layout leaves `meta.json` alone is
//! `mixed_format_recovery.rs`'s fixture re-encoding check.)

use asha_baselines::Sampler;
use asha_core::{
    AshaConfig, AshaState, Barrier, BracketLoopConfig, BracketLoopState, BracketState, Job,
    Opening, RungState, ScanOrder, SchedulerState, TrialId,
};
use asha_metrics::{FaultStats, JsonValue, TraceEvent};
use asha_sim::{PendingJob, SimRunState, TrialSlotState};
use asha_space::{Config, ParamValue};
use asha_store::binary::{decode_value, put_value};
use asha_store::codec::scheduler_state_from_json;
use asha_store::{SamplerSpec, Snapshot, SNAPSHOT_SCHEMA};
use asha_surrogate::TrainingState;
use proptest::prelude::*;

mod keyed;
mod legacy;

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// Any `f64` bit pattern, with the values a codec gets wrong weighted in.
fn wild_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        any::<u64>().prop_map(f64::from_bits),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
        Just(-0.0),
        Just(f64::from_bits(1)),
        Just(f64::MIN_POSITIVE / 4.0),
        Just(3.0),
    ]
}

fn wild_i64() -> impl Strategy<Value = i64> {
    prop_oneof![
        any::<i64>(),
        Just(i64::MIN),
        Just(i64::MAX),
        Just(-1i64),
        Just(0i64),
    ]
}

fn config() -> impl Strategy<Value = Config> {
    let value = prop_oneof![
        wild_f64().prop_map(ParamValue::Float),
        wild_i64().prop_map(ParamValue::Int),
        any::<usize>().prop_map(ParamValue::Index),
    ];
    prop::collection::vec(value, 0..5).prop_map(Config::new)
}

fn trial_configs() -> impl Strategy<Value = Vec<(u64, Config)>> {
    prop::collection::vec((any::<u64>(), config()), 0..4)
}

fn trial_losses() -> impl Strategy<Value = Vec<(u64, f64)>> {
    prop::collection::vec((any::<u64>(), wild_f64()), 0..5)
}

fn name() -> impl Strategy<Value = String> {
    any::<u16>().prop_map(|n| format!("sched-{n}"))
}

/// A valid ASHA config (decoders validate) on the 1..27, η = 3 ladder,
/// under the eager rule or — where the kind tag can carry it — either.
fn asha_config(any_rule: bool) -> impl Strategy<Value = AshaConfig> {
    (
        0usize..=3,
        any::<bool>(),
        0u8..3,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(move |(stop_rate, infinite, cap, bottom_up, delayed)| {
            let mut c = AshaConfig::new(1.0, 27.0, 3.0);
            c.stop_rate = stop_rate;
            c.infinite_horizon = infinite;
            c.max_trials = (cap > 0).then_some(cap as usize * 40);
            if bottom_up {
                c.scan_order = ScanOrder::BottomUp;
            }
            if any_rule && delayed {
                c = c.delayed();
            }
            c
        })
}

fn asha_state(any_rule: bool) -> impl Strategy<Value = AshaState> {
    let rung = (trial_losses(), prop::collection::vec(any::<u64>(), 0..3))
        .prop_map(|(records, promoted)| RungState { records, promoted });
    (
        asha_config(any_rule),
        prop::collection::vec(rung, 0..4),
        trial_configs(),
        prop::collection::vec((any::<u64>(), any::<usize>()), 0..3),
        (any::<u64>(), any::<usize>()),
        name(),
    )
        .prop_map(
            |(config, rungs, trials, outstanding, (next_trial, trials_started), name)| AshaState {
                config,
                rungs,
                trials,
                outstanding,
                next_trial,
                trials_started,
                name,
            },
        )
}

/// A SHA config on the 1..27, η = 3 ladder (decoders validate).
fn sha_config() -> impl Strategy<Value = BracketLoopConfig> {
    (0usize..=3, any::<bool>()).prop_map(|(stop_rate, grow)| BracketLoopConfig {
        opening: Opening::Sha {
            num_configs: 27,
            stop_rate,
            grow,
        },
        ..BracketLoopConfig::sha(27, 1.0, 27.0, 3.0)
    })
}

/// A barrier loop's state: SHA's, or synchronous Hyperband's on the same
/// ladder.
fn sha_state() -> impl Strategy<Value = BracketLoopState> {
    let hyperband =
        (1usize..=4).prop_map(|k| BracketLoopConfig::hyperband(1.0, 27.0, 3.0).with_brackets(k));
    let bracket = (
        any::<usize>(),
        asha_state(false),
        any::<usize>(),
        prop::collection::vec(any::<u64>(), 0..3),
    )
        .prop_map(|(index, asha, rung, queue)| BracketState {
            index,
            asha,
            barrier: Some(Barrier { rung, queue }),
        });
    (
        prop_oneof![sha_config(), hyperband],
        any::<usize>(),
        prop::collection::vec(bracket, 0..3),
        name(),
    )
        .prop_map(|(config, opened, brackets, name)| BracketLoopState {
            config,
            opened,
            brackets,
            spent: 0.0,
            current: 0,
            name,
        })
}

/// A `sync_sha` document's state, any counts and ids, small ones weighted
/// in so that some decode.
fn legacy_sync_sha_state() -> impl Strategy<Value = legacy::SyncShaState> {
    let small = || prop_oneof![0u64..60, any::<u64>()];
    let bracket = (
        (
            0usize..30,
            0usize..3,
            prop_oneof![0usize..5, any::<usize>()],
        ),
        prop::collection::vec((small(), config()), 0..4),
        prop::collection::vec(small(), 0..3),
        prop::collection::vec((small(), wild_f64()), 0..5),
        any::<bool>(),
    )
        .prop_map(
            |((remaining_to_sample, outstanding, rung), queue, issued, results, done)| {
                legacy::BracketState {
                    remaining_to_sample,
                    queue,
                    outstanding,
                    issued,
                    results,
                    rung,
                    done,
                }
            },
        );
    (
        sha_config(),
        prop::collection::vec(bracket, 0..3),
        prop::collection::vec((small(), 0usize..4, config()), 0..8),
        any::<u64>(),
        name(),
    )
        .prop_map(
            |(config, brackets, trial_meta, next_trial, name)| legacy::SyncShaState {
                config,
                brackets,
                trial_meta,
                next_trial,
                name,
            },
        )
}

fn hyperband_state() -> impl Strategy<Value = BracketLoopState> {
    (
        1usize..=4,
        prop::collection::vec(asha_state(false), 0..3),
        wild_f64(),
        any::<usize>(),
        name(),
    )
        .prop_map(
            |(num_brackets, brackets, spent, current, name)| BracketLoopState {
                config: BracketLoopConfig::async_hyperband(1.0, 27.0, 3.0)
                    .with_brackets(num_brackets),
                opened: brackets.len(),
                brackets: (0..)
                    .zip(brackets)
                    .map(|(index, asha)| BracketState {
                        index,
                        asha,
                        barrier: None,
                    })
                    .collect(),
                spent,
                current,
                name,
            },
        )
}

fn scheduler_state() -> impl Strategy<Value = SchedulerState> {
    prop_oneof![
        asha_state(true).prop_map(SchedulerState::Asha),
        sha_state().prop_map(SchedulerState::BracketLoop),
        hyperband_state().prop_map(SchedulerState::BracketLoop),
    ]
}

fn job() -> impl Strategy<Value = Job> {
    (
        any::<u64>(),
        config(),
        any::<usize>(),
        wild_f64(),
        any::<usize>(),
        prop_oneof![Just(None), any::<u64>().prop_map(Some)],
    )
        .prop_map(|(trial, config, rung, resource, bracket, inherit)| Job {
            trial: TrialId(trial),
            config,
            rung,
            resource,
            bracket,
            inherit_from: inherit.map(TrialId),
        })
}

fn slot() -> impl Strategy<Value = TrialSlotState> {
    let training = (
        wild_f64(),
        wild_f64(),
        wild_f64(),
        wild_f64(),
        wild_f64(),
        any::<bool>(),
    )
        .prop_map(
            |(resource, loss, asym_jitter, rate_jitter, divergence_draw, diverged)| TrainingState {
                resource,
                loss,
                asym_jitter,
                rate_jitter,
                divergence_draw,
                diverged,
            },
        );
    (any::<u64>(), training, wild_f64(), any::<bool>()).prop_map(
        |(trial, state, time_per_unit, completed)| TrialSlotState {
            trial,
            state,
            time_per_unit,
            completed,
        },
    )
}

fn pending() -> impl Strategy<Value = PendingJob> {
    (wild_f64(), any::<u64>(), job(), any::<bool>()).prop_map(|(time, seq, job, dropped)| {
        PendingJob {
            time,
            seq,
            job,
            dropped,
        }
    })
}

fn trace_event() -> impl Strategy<Value = TraceEvent> {
    (
        wild_f64(),
        any::<u64>(),
        any::<usize>(),
        any::<usize>(),
        wild_f64(),
        (wild_f64(), wild_f64()),
    )
        .prop_map(
            |(time, trial, bracket, rung, resource, (val_loss, test_loss))| TraceEvent {
                time,
                trial,
                bracket,
                rung,
                resource,
                val_loss,
                test_loss,
            },
        )
}

/// A simulator state whose row arrays hold at least `min_rows` rows each.
fn sim_state(min_rows: usize) -> impl Strategy<Value = SimRunState> {
    let rows = min_rows..min_rows + 4;
    let counters = (
        wild_f64(),
        any::<u64>(),
        any::<usize>(),
        any::<usize>(),
        any::<usize>(),
        any::<bool>(),
    );
    let faults = (
        any::<usize>(),
        any::<usize>(),
        any::<usize>(),
        any::<usize>(),
        any::<usize>(),
    )
        .prop_map(
            |(jobs_dropped, jobs_retried, jobs_timed_out, jobs_panicked, jobs_poisoned)| {
                FaultStats {
                    jobs_dropped,
                    jobs_retried,
                    jobs_timed_out,
                    jobs_panicked,
                    jobs_poisoned,
                }
            },
        );
    let best = prop_oneof![
        Just(None),
        (config(), wild_f64(), wild_f64()).prop_map(Some)
    ];
    let singletons = (faults, wild_f64(), best, name());
    let row_arrays = (
        prop::collection::vec(slot(), rows.clone()),
        prop::collection::vec(pending(), rows.clone()),
        prop::collection::vec(job(), rows.clone()),
        prop::collection::vec(trace_event(), rows),
    );
    (counters, singletons, row_arrays).prop_map(
        |(
            (now, seq, free_workers, jobs_completed, distinct_trials, scheduler_finished),
            (faults, incumbent_val, best_config, searcher),
            (slots, pending, retry, trace),
        )| SimRunState {
            now,
            seq,
            free_workers,
            jobs_completed,
            distinct_trials,
            faults,
            scheduler_finished,
            incumbent_val,
            best_config,
            slots,
            pending,
            retry,
            searcher,
            trace,
        },
    )
}

fn snapshot_with(
    sim: impl Strategy<Value = Option<SimRunState>>,
) -> impl Strategy<Value = Snapshot> {
    let sampler = prop_oneof![
        Just(None),
        prop::collection::vec(prop_oneof![Just(None), name().prop_map(Some)], 1..3).prop_map(
            |cursors| Some(SamplerSpec {
                kind: Sampler::Tpe,
                cursors,
            })
        ),
    ];
    (
        (any::<u64>(), any::<u64>()),
        scheduler_state(),
        sampler,
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        sim,
    )
        .prop_map(
            |((seq, events), scheduler, sampler, (a, b, c, d), sim)| Snapshot {
                seq,
                events,
                scheduler,
                sampler,
                rng: [a, b, c, d],
                sim,
            },
        )
}

fn snapshot() -> impl Strategy<Value = Snapshot> {
    snapshot_with(prop_oneof![Just(None), sim_state(0).prop_map(Some)])
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

fn encode(snap: &Snapshot) -> Vec<u8> {
    let mut bytes = Vec::new();
    snap.encode(&mut bytes);
    bytes
}

/// Decode a document of either layout the way recovery does: its bytes
/// through `Snapshot::from_bytes`.
fn from_tree(doc: &JsonValue) -> Result<Snapshot, String> {
    let mut bytes = Vec::new();
    put_value(&mut bytes, doc);
    Snapshot::from_bytes(&bytes).map_err(|e| e.to_string())
}

/// Structural equality that sees every float bit but one: `Debug` prints
/// floats shortest-round-trip (so `-0.0`, subnormals and infinities are
/// exact) and every NaN as `NaN`, which is all a document keeps of one.
fn same_state(a: &Snapshot, b: &Snapshot) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Every object key anywhere in `v`.
fn keys(v: &JsonValue, out: &mut Vec<String>) {
    match v {
        JsonValue::Arr(items) => items.iter().for_each(|i| keys(i, out)),
        JsonValue::Obj(fields) => {
            for (k, val) in fields {
                out.push(k.clone());
                keys(val, out);
            }
        }
        _ => {}
    }
}

fn objects(v: &JsonValue) -> usize {
    match v {
        JsonValue::Arr(items) => items.iter().map(objects).sum(),
        JsonValue::Obj(fields) => 1 + fields.iter().map(|(_, f)| objects(f)).sum::<usize>(),
        _ => 0,
    }
}

/// The element at `path` (array indexes and object keys, as strings).
fn at<'a>(doc: &'a mut JsonValue, path: &[&str]) -> &'a mut JsonValue {
    path.iter().fold(doc, |v, step| match v {
        JsonValue::Arr(items) => &mut items[step.parse::<usize>().unwrap()],
        JsonValue::Obj(fields) => {
            &mut fields
                .iter_mut()
                .find(|(k, _)| k == step)
                .unwrap_or_else(|| panic!("no field {step}"))
                .1
        }
        other => panic!("cannot step into {other:?}"),
    })
}

/// The v2 rows of a simulator half, as paths into the document, with the
/// length each must have.
const ROWS: [(&[&str], usize); 5] = [
    (&["sim", "slots", "0"], 9),
    (&["sim", "pending", "0"], 4),
    (&["sim", "pending", "0", "2"], 6),
    (&["sim", "retry", "0"], 6),
    (&["sim", "trace", "0"], 7),
];

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// v2 round trip: the written layout decodes to the state it was
    /// written from and re-encodes to the same bytes; its simulator half
    /// holds no object but `faults` and `best_config`, and no config value
    /// is an object.
    #[test]
    fn v2_documents_decode_to_the_state_they_were_written_from(snap in snapshot()) {
        let bytes = encode(&snap);
        let doc = decode_value(&bytes)?;
        prop_assert_eq!(doc.get("schema").and_then(JsonValue::as_str), Some(SNAPSHOT_SCHEMA));
        let back = from_tree(&doc)?;
        prop_assert!(same_state(&snap, &back), "{snap:?}\n!=\n{back:?}");
        prop_assert!(encode(&back) == bytes, "re-encoding changed the bytes");

        if let Some(sim) = &snap.sim {
            let expected = 2 + usize::from(sim.best_config.is_some());
            prop_assert_eq!(objects(doc.get("sim").unwrap()), expected);
        }
        let mut all = Vec::new();
        keys(&doc, &mut all);
        for tag in ["float", "int", "index"] {
            prop_assert!(!all.iter().any(|k| k == tag), "a config value kept its {tag:?} key");
        }
    }

    /// The oracle: the same state in the v1 layout, as the keyed writer
    /// wrote it, decodes to the same state too.
    #[test]
    fn v1_documents_from_the_keyed_writer_decode_to_the_same_state(snap in snapshot()) {
        let doc = keyed::snapshot_to_json(&snap);
        let back = from_tree(&doc)?;
        prop_assert!(same_state(&snap, &back), "{snap:?}\n!=\n{back:?}");
        prop_assert!(encode(&back) == encode(&snap), "v1 and v2 decode differently");
    }

    /// A `sync_sha` document, any counts and ids, decodes the same from
    /// either layout of its config values, and neither the reader nor the
    /// check of what it reads panics.
    #[test]
    fn legacy_sync_sha_documents_decode_alike_from_either_layout(
        state in legacy_sync_sha_state(),
    ) {
        let v2 = scheduler_state_from_json(&legacy::to_json(&state, false));
        let v1 = scheduler_state_from_json(&legacy::to_json(&state, true));
        prop_assert_eq!(format!("{v2:?}"), format!("{v1:?}"));
        if let Ok(decoded) = v2 {
            prop_assert_eq!(decoded.kind(), "sha");
            let _ = decoded.validate();
        }
    }

    /// Hostile rows: each v2 row one element short, one element long, with
    /// an element of the wrong type, or not an array at all, is refused.
    #[test]
    fn malformed_v2_rows_are_errors(
        snap in snapshot_with(sim_state(1).prop_map(Some)),
        row in 0usize..ROWS.len(),
        mutation in 0usize..4,
        element in any::<usize>(),
    ) {
        let mut doc = decode_value(&encode(&snap))?;
        let (path, len) = ROWS[row];
        let target = at(&mut doc, path);
        let JsonValue::Arr(items) = &mut *target else {
            return Err(format!("{path:?} is not a v2 row: {target:?}"));
        };
        prop_assert_eq!(items.len(), len);
        match mutation {
            0 => {
                items.pop();
            }
            1 => items.push(JsonValue::Int(0)),
            2 => items[element % len] = JsonValue::Obj(Vec::new()),
            _ => *target = JsonValue::Str("row".to_owned()),
        }
        prop_assert!(from_tree(&doc).is_err(), "{path:?} mutation {mutation} was accepted");
    }

    /// Hostile config values: a v2 tag that is short, long, unknown or
    /// carries the wrong type is refused wherever the config sits.
    #[test]
    fn malformed_v2_config_values_are_errors(
        snap in snapshot_with(sim_state(1).prop_map(Some)),
        bad in 0usize..6,
    ) {
        let mut doc = decode_value(&encode(&snap))?;
        let value = match bad {
            0 => JsonValue::Arr(vec![JsonValue::Int(1)]),
            1 => JsonValue::Arr(vec![JsonValue::Int(2), JsonValue::Int(0), JsonValue::Int(0)]),
            2 => JsonValue::Arr(vec![JsonValue::Int(3), JsonValue::Int(0)]),
            3 => JsonValue::Arr(vec![JsonValue::Int(2), JsonValue::Str("x".to_owned())]),
            4 => JsonValue::Arr(vec![JsonValue::Int(1), JsonValue::Num(0.5)]),
            _ => JsonValue::Bool(true),
        };
        let JsonValue::Arr(config) = at(&mut doc, &["sim", "retry", "0", "1"]) else {
            return Err("the retry job's config is not an array".to_owned());
        };
        config.push(value);
        prop_assert!(from_tree(&doc).is_err(), "bad config value {bad} was accepted");
    }

    /// A truncated payload is an error, and a flipped byte anywhere is at
    /// worst one: neither panics the decoder.
    #[test]
    fn truncated_and_flipped_payloads_never_panic(
        snap in snapshot(),
        cut in any::<usize>(),
        flip in any::<usize>(),
        bits in 1u8..=255,
    ) {
        let bytes = encode(&snap);
        let decode = |b: &[u8]| Snapshot::from_bytes(b).map_err(|e| e.to_string());
        prop_assert!(decode(&bytes[..cut % bytes.len()]).is_err());
        let mut flipped = bytes.clone();
        flipped[flip % bytes.len()] ^= bits;
        let _ = decode(&flipped);
    }
}

#[test]
fn an_unknown_snapshot_schema_is_refused() {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
    let mut doc = decode_value(&encode(&snapshot().generate(&mut rng))).unwrap();
    *at(&mut doc, &["schema"]) = JsonValue::Str("asha-store-snapshot-v3".to_owned());
    let err = from_tree(&doc).unwrap_err();
    assert!(err.contains("asha-store-snapshot-v3"), "{err}");
}
