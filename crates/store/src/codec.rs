//! Hand-rolled codecs for everything the store persists.
//!
//! The workspace's `serde` is an offline API stub, so durable state is
//! encoded explicitly. Every persisted type has exactly **one encoder**, a
//! `put_*` function streaming binvalue through a [`ValueWriter`], and **one
//! decoder**, a `get_*` function reading those bytes through a `Reader`
//! straight into the typed value: no tree is built on the checkpoint or the
//! recovery path. A tree form (`*_to_json`) is the encoder's bytes decoded
//! into a tree; a tree input (`meta.json`, `create` frames, tools) is
//! re-encoded for the byte decoder (`from_tree`). Two invariants the
//! codecs maintain:
//!
//! * **Exact `f64` round-trips.** `JsonValue::Num` renders with Rust's
//!   shortest-round-trip formatting, so finite floats survive a
//!   write/parse cycle bit-for-bit. Non-finite floats would render as
//!   `null`, so they are encoded as the strings `"inf"` / `"-inf"` /
//!   `"nan"` instead (`put_float`); decoding also accepts `null` as
//!   `+inf` for compatibility with the telemetry log's null-loss
//!   convention.
//! * **Deterministic bytes.** Object keys are emitted in a fixed order and
//!   the state structs sort their collections, so the same logical state
//!   always encodes to the same bytes.
//!
//! Rows — the entries of a document's long arrays — are fixed-order arrays
//! without keys (snapshot schema v2, listed at the simulator-state
//! encoders); a keyed v1 row or config value is handed to [`crate::upgrade`].
//!
//! A decoder's [`Error`] names the field of the first mismatch; callers
//! reading files recast it as `Corrupt` with the path. The config decoders
//! also *validate* (kind `Config`): the same documents arrive in `create`
//! frames, and a config that cannot build a ladder would panic the
//! constructor that meets it.

use crate::binary::{from_tree, tree_of, Reader, ValueWriter, TAG_ARR, TAG_INT, TAG_OBJ, TAG_STR};
use crate::upgrade;
use asha_core::Error;
use asha_core::{
    AshaConfig, AshaState, Barrier, BracketLoopConfig, BracketLoopState, BracketState, Job,
    Opening, PromotionRule, RungState, ScanOrder, SchedulerState, TrialId,
};
use asha_metrics::{FaultStats, JsonValue, TraceEvent};
use asha_sim::{PendingJob, ResumePolicy, SimConfig, SimRunState, TraceMode, TrialSlotState};
use asha_space::{Config, ParamSpec, ParamValue, Scale, SearchSpace};
use asha_surrogate::TrainingState;

/// An `f64` that may be non-finite: `JsonValue::Num` renders non-finite
/// values as `null`, which would not round-trip, so they are strings.
fn put_float(w: &mut ValueWriter<'_>, v: f64) {
    if v.is_finite() {
        w.num(v)
    } else if v == f64::INFINITY {
        w.str("inf")
    } else if v == f64::NEG_INFINITY {
        w.str("-inf")
    } else {
        w.str("nan")
    }
}

/// Element `key` of a positional row, named on error.
fn named<'a, T>(
    r: &mut Reader<'a>,
    key: &str,
    decode: impl FnOnce(&mut Reader<'a>) -> Result<T, Error>,
) -> Result<T, Error> {
    decode(r).map_err(|e| e.context(format!("field {key:?}")))
}

fn put_i64(w: &mut ValueWriter<'_>, v: i64) {
    if v >= 0 {
        w.int(v as u64)
    } else {
        // Negative integers have no exact JsonValue form; a string keeps
        // the full 64-bit range.
        w.str(&v.to_string())
    }
}

fn put_opt_int(w: &mut ValueWriter<'_>, v: Option<u64>) {
    match v {
        Some(n) => w.int(n),
        None => w.null(),
    }
}

/// An integer as [`put_i64`] writes it.
pub(crate) fn get_i64(r: &mut Reader<'_>) -> Result<i64, Error> {
    match r.peek()? {
        TAG_INT => {
            let n = r.u64()?;
            i64::try_from(n).map_err(|_| Error::codec(format!("integer {n} overflows i64")))
        }
        TAG_STR => {
            let s = r.str()?;
            let bad = || Error::codec(format!("expected an integer, got string {s:?}"));
            s.parse().map_err(|_| bad())
        }
        _ => Err(Error::codec("expected an integer")),
    }
}

// ---------------------------------------------------------------------------
// Search space and configurations
// ---------------------------------------------------------------------------

fn scale_name(s: Scale) -> &'static str {
    match s {
        Scale::Linear => "linear",
        Scale::Log => "log",
    }
}

/// A search space: an array of named parameter specs.
pub(crate) fn put_space(w: &mut ValueWriter<'_>, space: &SearchSpace) {
    w.arr(space.params().len());
    for p in space.params() {
        match p.spec() {
            ParamSpec::Continuous { low, high, scale } => {
                w.obj(5);
                w.key("name").str(p.name());
                w.key("kind").str("continuous");
                w.key("low").num(*low);
                w.key("high").num(*high);
                w.key("scale").str(scale_name(*scale));
            }
            ParamSpec::Discrete { low, high } => {
                w.obj(4);
                w.key("name").str(p.name());
                w.key("kind").str("discrete");
                put_i64(w.key("low"), *low);
                put_i64(w.key("high"), *high);
            }
            ParamSpec::Ordinal { values } => {
                w.obj(3);
                w.key("name").str(p.name());
                w.key("kind").str("ordinal");
                w.key("values").arr(values.len());
                for &v in values {
                    w.num(v);
                }
            }
            ParamSpec::Categorical { labels } => {
                w.obj(3);
                w.key("name").str(p.name());
                w.key("kind").str("categorical");
                w.key("labels").arr(labels.len());
                for l in labels {
                    w.str(l);
                }
            }
        }
    }
}

/// A search space as [`put_space`] writes it.
pub(crate) fn get_space(r: &mut Reader<'_>) -> Result<SearchSpace, Error> {
    let mut builder = SearchSpace::builder();
    for _ in 0..r.array()? {
        builder = r.object(|o| {
            let name = o.get("name", Reader::str)?;
            Ok(match o.get("kind", Reader::str)? {
                "continuous" => {
                    let (low, high) = (o.get("low", Reader::f64)?, o.get("high", Reader::f64)?);
                    let scale = match o.get("scale", Reader::str)? {
                        "linear" => Scale::Linear,
                        "log" => Scale::Log,
                        other => return Err(Error::codec(format!("unknown scale {other:?}"))),
                    };
                    builder.continuous(name, low, high, scale)
                }
                "discrete" => {
                    let low = o.get("low", get_i64)?;
                    builder.discrete(name, low, o.get("high", get_i64)?)
                }
                "ordinal" => builder.ordinal(name, &o.get("values", |r| r.list(Reader::f64))?),
                "categorical" => {
                    builder.categorical(name, &o.get("labels", |r| r.list(Reader::str))?)
                }
                other => return Err(Error::codec(format!("unknown parameter kind {other:?}"))),
            })
        })?;
    }
    builder.build().map_err(|e| Error::codec(e.to_string()))
}

/// Tags of the non-float config values (see [`put_config`]).
const CONFIG_INT: u64 = 1;
const CONFIG_INDEX: u64 = 2;

/// A config is an array of its values: a `Float` is the bare float
/// ([`put_float`]'s form), an `Int` is `[1, v]`, an `Index` is
/// `[2, i]`. Snapshot schema v1 wrote each value as a one-key object,
/// `{"float": x}` / `{"int": v}` / `{"index": i}`; [`crate::upgrade`] still
/// reads that.
fn put_config(w: &mut ValueWriter<'_>, config: &Config) {
    w.arr(config.values().len());
    for v in config.values() {
        match v {
            ParamValue::Float(x) => put_float(w, *x),
            ParamValue::Int(x) => {
                w.arr(2);
                w.int(CONFIG_INT);
                put_i64(w, *x);
            }
            ParamValue::Index(x) => {
                w.arr(2);
                w.int(CONFIG_INDEX);
                w.int(*x as u64);
            }
        }
    }
}

pub(crate) fn get_config(r: &mut Reader<'_>) -> Result<Config, Error> {
    Ok(Config::new(r.list(get_param_value)?))
}

fn get_param_value(r: &mut Reader<'_>) -> Result<ParamValue, Error> {
    let bad = || Error::codec("config value: expected a float, [1, int] or [2, index]");
    match r.peek()? {
        TAG_ARR => {
            if r.array()? != 2 || r.peek()? != TAG_INT {
                return Err(bad());
            }
            match r.u64()? {
                CONFIG_INT => Ok(ParamValue::Int(get_i64(r)?)),
                CONFIG_INDEX => Ok(ParamValue::Index(r.usize()?)),
                _ => Err(bad()),
            }
        }
        TAG_OBJ => upgrade::keyed_param_value(r),
        _ => Ok(ParamValue::Float(r.f64()?)),
    }
}

// ---------------------------------------------------------------------------
// Scheduler configurations and states
// ---------------------------------------------------------------------------

fn scan_order_name(order: ScanOrder) -> &'static str {
    match order {
        ScanOrder::TopDown => "top_down",
        ScanOrder::BottomUp => "bottom_up",
    }
}

fn scan_order_from(name: &str) -> Result<ScanOrder, Error> {
    match name {
        "top_down" => Ok(ScanOrder::TopDown),
        "bottom_up" => Ok(ScanOrder::BottomUp),
        other => Err(Error::codec(format!("unknown scan order {other:?}"))),
    }
}

/// The promotion rule is not part of the document: it travels as the
/// enclosing state's kind tag (see [`scheduler_state_to_json`]).
fn put_asha_config(w: &mut ValueWriter<'_>, c: &AshaConfig) {
    w.obj(7);
    put_float(w.key("min_resource"), c.min_resource);
    put_float(w.key("max_resource"), c.max_resource);
    put_float(w.key("reduction_factor"), c.reduction_factor);
    w.key("stop_rate").int(c.stop_rate as u64);
    w.key("infinite_horizon").bool(c.infinite_horizon);
    put_opt_int(w.key("max_trials"), c.max_trials.map(|n| n as u64));
    w.key("scan_order").str(scan_order_name(c.scan_order));
}

/// Decode and validate an [`AshaConfig`] (eager rule; the `"dasha"` kind
/// tag switches it).
fn get_asha_config(r: &mut Reader<'_>) -> Result<AshaConfig, Error> {
    r.object(|o| {
        let (min, max) = (
            o.get("min_resource", Reader::f64)?,
            o.get("max_resource", Reader::f64)?,
        );
        let mut c = AshaConfig::new(min, max, o.get("reduction_factor", Reader::f64)?);
        c.stop_rate = o.get("stop_rate", Reader::usize)?;
        c.infinite_horizon = o.get("infinite_horizon", Reader::bool)?;
        c.max_trials = o.get("max_trials", |r| r.nullable(Reader::usize))?;
        c.scan_order = scan_order_from(o.get("scan_order", Reader::str)?)?;
        c.validate()?;
        Ok(c)
    })
}

fn put_ladder(w: &mut ValueWriter<'_>, c: &BracketLoopConfig) {
    put_float(w.key("min_resource"), c.min_resource);
    put_float(w.key("max_resource"), c.max_resource);
    put_float(w.key("reduction_factor"), c.reduction_factor);
}

/// A bracket loop's config: SHA's six keys, or a Hyperband's four.
fn put_loop_config(w: &mut ValueWriter<'_>, c: &BracketLoopConfig) {
    match c.opening {
        Opening::Sha {
            num_configs,
            stop_rate,
            grow,
        } => {
            w.obj(6);
            w.key("num_configs").int(num_configs as u64);
            put_ladder(w, c);
            w.key("stop_rate").int(stop_rate as u64);
            w.key("grow_brackets").bool(grow);
        }
        Opening::Hyperband { num_brackets } | Opening::AsyncHyperband { num_brackets } => {
            w.obj(4);
            put_ladder(w, c);
            w.key("num_brackets").int(num_brackets as u64);
        }
    }
}

/// Decode and validate the config of a bracket loop whose document is of
/// `kind` (`"sha"`, `"hyperband"` or `"async_hyperband"`).
pub(crate) fn get_loop_config(r: &mut Reader<'_>, kind: &str) -> Result<BracketLoopConfig, Error> {
    let c = r.object(|o| {
        let num_configs = match kind {
            "sha" => Some(o.get("num_configs", Reader::usize)?),
            _ => None,
        };
        let (min_resource, max_resource, reduction_factor) = (
            o.get("min_resource", Reader::f64)?,
            o.get("max_resource", Reader::f64)?,
            o.get("reduction_factor", Reader::f64)?,
        );
        let opening = match (num_configs, kind) {
            (Some(num_configs), _) => Opening::Sha {
                num_configs,
                stop_rate: o.get("stop_rate", Reader::usize)?,
                grow: o.get("grow_brackets", Reader::bool)?,
            },
            (None, "hyperband") => Opening::Hyperband {
                num_brackets: o.get("num_brackets", Reader::usize)?,
            },
            (None, _) => Opening::AsyncHyperband {
                num_brackets: o.get("num_brackets", Reader::usize)?,
            },
        };
        Ok(BracketLoopConfig {
            min_resource,
            max_resource,
            reduction_factor,
            opening,
        })
    })?;
    c.validate()?;
    Ok(c)
}

fn put_trial_loss_pairs(w: &mut ValueWriter<'_>, pairs: &[(u64, f64)]) {
    w.arr(pairs.len());
    for &(t, l) in pairs {
        w.arr(2);
        w.int(t);
        put_float(w, l);
    }
}

pub(crate) fn get_trial_loss(r: &mut Reader<'_>) -> Result<(u64, f64), Error> {
    r.tuple(2, "[trial, loss] pair")?;
    Ok((r.u64()?, r.f64()?))
}

pub(crate) fn put_u64s(w: &mut ValueWriter<'_>, ids: &[u64]) {
    w.arr(ids.len());
    for &t in ids {
        w.int(t);
    }
}

fn put_trial_configs(w: &mut ValueWriter<'_>, trials: &[(u64, Config)]) {
    w.arr(trials.len());
    for (t, c) in trials {
        w.arr(2);
        w.int(*t);
        put_config(w, c);
    }
}

pub(crate) fn get_trial_config(r: &mut Reader<'_>) -> Result<(u64, Config), Error> {
    r.tuple(2, "[trial, config] pair")?;
    Ok((r.u64()?, get_config(r)?))
}

fn put_rung_state(w: &mut ValueWriter<'_>, r: &RungState) {
    w.obj(2);
    put_trial_loss_pairs(w.key("records"), &r.records);
    put_u64s(w.key("promoted"), &r.promoted);
}

fn get_rung_state(r: &mut Reader<'_>) -> Result<RungState, Error> {
    r.object(|o| {
        Ok(RungState {
            records: o.get("records", |r| r.list(get_trial_loss))?,
            promoted: o.get("promoted", |r| r.list(Reader::u64))?,
        })
    })
}

fn put_asha_state(w: &mut ValueWriter<'_>, s: &AshaState) {
    w.obj(7);
    put_asha_config(w.key("config"), &s.config);
    w.key("rungs").arr(s.rungs.len());
    for r in &s.rungs {
        put_rung_state(w, r);
    }
    put_trial_configs(w.key("trials"), &s.trials);
    w.key("outstanding").arr(s.outstanding.len());
    for &(t, k) in &s.outstanding {
        w.arr(2);
        w.int(t);
        w.int(k as u64);
    }
    w.key("next_trial").int(s.next_trial);
    w.key("trials_started").int(s.trials_started as u64);
    w.key("name").str(&s.name);
}

fn get_asha_state(r: &mut Reader<'_>) -> Result<AshaState, Error> {
    let outstanding = |r: &mut Reader<'_>| {
        r.tuple(2, "[trial, rung] pair")?;
        Ok((r.u64()?, r.usize()?))
    };
    r.object(|o| {
        Ok(AshaState {
            config: o.get("config", get_asha_config)?,
            rungs: o.get("rungs", |r| r.list(get_rung_state))?,
            trials: o.get("trials", |r| r.list(get_trial_config))?,
            outstanding: o.get("outstanding", |r| r.list(outstanding))?,
            next_trial: o.get("next_trial", Reader::u64)?,
            trials_started: o.get("trials_started", Reader::usize)?,
            name: o.get("name", Reader::string)?,
        })
    })
}

/// A bracket loop's document. SHA's and Hyperband's: the config, the
/// brackets opened, and each open one as its index (`bracket`), its
/// barrier's `rung` and `queue`, and its `asha` document. Asynchronous
/// Hyperband's: bracket `s` as its `s`-th `asha` document, then the turn.
fn put_loop_state(w: &mut ValueWriter<'_>, s: &BracketLoopState) {
    let rotates = matches!(s.config.opening, Opening::AsyncHyperband { .. });
    w.obj(if rotates { 5 } else { 4 });
    put_loop_config(w.key("config"), &s.config);
    if !rotates {
        w.key("opened").int(s.opened as u64);
    }
    w.key("brackets").arr(s.brackets.len());
    for b in &s.brackets {
        if rotates {
            put_asha_state(w, &b.asha);
            continue;
        }
        let barrier = b.barrier.as_ref();
        w.obj(4);
        w.key("bracket").int(b.index as u64);
        w.key("rung").int(barrier.map_or(0, |b| b.rung as u64));
        put_u64s(w.key("queue"), barrier.map_or(&[], |b| &b.queue));
        put_asha_state(w.key("asha"), &b.asha);
    }
    if rotates {
        put_float(w.key("spent"), s.spent);
        w.key("current").int(s.current as u64);
    }
    w.key("name").str(&s.name);
}

fn get_loop_state(r: &mut Reader<'_>, kind: &str) -> Result<BracketLoopState, Error> {
    let barrier_bracket = |r: &mut Reader<'_>| {
        r.object(|o| {
            let index = o.get("bracket", Reader::usize)?;
            let rung = o.get("rung", Reader::usize)?;
            let queue = o.get("queue", |r| r.list(Reader::u64))?;
            let asha = o.get("asha", get_asha_state)?;
            let barrier = Some(Barrier { rung, queue });
            Ok(BracketState {
                index,
                asha,
                barrier,
            })
        })
    };
    let rate_bracket = |(index, asha)| BracketState {
        index,
        asha,
        barrier: None,
    };
    r.object(|o| {
        let config = o.get("config", |r| get_loop_config(r, kind))?;
        let mut s = BracketLoopState {
            config,
            opened: 0,
            brackets: Vec::new(),
            spent: 0.0,
            current: 0,
            name: String::new(),
        };
        if let Opening::AsyncHyperband { .. } = s.config.opening {
            let ashas = o.get("brackets", |r| r.list(get_asha_state))?;
            s.brackets = ashas.into_iter().enumerate().map(rate_bracket).collect();
            s.opened = s.brackets.len();
            s.spent = o.get("spent", Reader::f64)?;
            s.current = o.get("current", Reader::usize)?;
        } else {
            s.opened = o.get("opened", Reader::usize)?;
            s.brackets = o.get("brackets", |r| r.list(barrier_bracket))?;
        }
        s.name = o.get("name", Reader::string)?;
        Ok(s)
    })
}

pub(crate) fn put_scheduler_state(w: &mut ValueWriter<'_>, s: &SchedulerState) {
    w.obj(2);
    w.key("kind").str(s.kind());
    w.key("state");
    match s {
        SchedulerState::Asha(s) => put_asha_state(w, s),
        SchedulerState::BracketLoop(s) => put_loop_state(w, s),
    }
}

/// Encode any scheduler's state as `{"kind": ..., "state": ...}`.
pub fn scheduler_state_to_json(s: &SchedulerState) -> JsonValue {
    tree_of(|w| put_scheduler_state(w, s))
}

/// Decode a state written by [`scheduler_state_to_json`]. The `"dasha"`
/// kind is an ASHA state under the delayed promotion rule; a `"sync_sha"`
/// state, SHA's document before `"sha"`, is read by [`crate::upgrade`].
pub fn scheduler_state_from_json(v: &JsonValue) -> Result<SchedulerState, Error> {
    from_tree(v, get_scheduler_state)
}

pub(crate) fn get_scheduler_state(r: &mut Reader<'_>) -> Result<SchedulerState, Error> {
    r.object(|o| {
        let kind = o.get("kind", Reader::str)?;
        o.get("state", |r| state_of(kind, r))
    })
}

fn state_of(kind: &str, r: &mut Reader<'_>) -> Result<SchedulerState, Error> {
    Ok(match kind {
        "asha" => SchedulerState::Asha(get_asha_state(r)?),
        "dasha" => {
            let mut s = get_asha_state(r)?;
            s.config.rule = PromotionRule::Delayed;
            SchedulerState::Asha(s)
        }
        "sha" | "hyperband" | "async_hyperband" => {
            SchedulerState::BracketLoop(get_loop_state(r, kind)?)
        }
        "sync_sha" => SchedulerState::BracketLoop(upgrade::sync_sha_state(r)?),
        other => return Err(Error::codec(format!("unknown scheduler kind {other:?}"))),
    })
}

// ---------------------------------------------------------------------------
// Simulator state
// ---------------------------------------------------------------------------
//
// Every row of the simulator half is a fixed-order array, like the
// scheduler half's `[trial, loss]` pairs (snapshot schema v2):
//
//   job      [trial, config, rung, resource, bracket, inherit_from|null]
//            (a `retry` entry; the third element of a `pending` row)
//   slots    [trial, resource, loss, asym_jitter, rate_jitter,
//             divergence_draw, diverged, time_per_unit, completed]
//            (the `TrainingState` is elements 1..=6)
//   pending  [time, seq, job, dropped]
//   trace    [time, trial, bracket, rung, resource, val_loss, test_loss]
//
// Schema v1 wrote each row as an object keyed by those names, with a slot's
// training state nested under `"state"`; each row decoder hands such an
// object to `upgrade`. Only the document's singletons — the top-level
// fields, `faults`, `best_config`, the scheduler and simulator configs —
// keep their keys: written once per document, they cost a few hundred bytes
// and name themselves to a reader.

fn put_job(w: &mut ValueWriter<'_>, j: &Job) {
    w.arr(6);
    w.int(j.trial.0);
    put_config(w, &j.config);
    w.int(j.rung as u64);
    put_float(w, j.resource);
    w.int(j.bracket as u64);
    put_opt_int(w, j.inherit_from.map(|t| t.0));
}

pub(crate) fn get_job(r: &mut Reader<'_>) -> Result<Job, Error> {
    if r.is_keyed_row(6, "job")? {
        return upgrade::keyed_row(r, upgrade::JOB, get_job);
    }
    Ok(Job {
        trial: TrialId(named(r, "trial", Reader::u64)?),
        config: named(r, "config", get_config)?,
        rung: named(r, "rung", Reader::usize)?,
        resource: named(r, "resource", Reader::f64)?,
        bracket: named(r, "bracket", Reader::usize)?,
        inherit_from: named(r, "inherit_from", |r| r.nullable(Reader::u64))?.map(TrialId),
    })
}

fn put_slot(w: &mut ValueWriter<'_>, slot: &TrialSlotState) {
    let s = &slot.state;
    w.arr(9);
    w.int(slot.trial);
    put_float(w, s.resource);
    put_float(w, s.loss);
    put_float(w, s.asym_jitter);
    put_float(w, s.rate_jitter);
    put_float(w, s.divergence_draw);
    w.bool(s.diverged);
    put_float(w, slot.time_per_unit);
    w.bool(slot.completed);
}

fn get_slot(r: &mut Reader<'_>) -> Result<TrialSlotState, Error> {
    if r.is_keyed_row(9, "slot")? {
        return upgrade::keyed_row(r, upgrade::SLOT, get_slot);
    }
    Ok(TrialSlotState {
        trial: named(r, "trial", Reader::u64)?,
        state: TrainingState {
            resource: named(r, "resource", Reader::f64)?,
            loss: named(r, "loss", Reader::f64)?,
            asym_jitter: named(r, "asym_jitter", Reader::f64)?,
            rate_jitter: named(r, "rate_jitter", Reader::f64)?,
            divergence_draw: named(r, "divergence_draw", Reader::f64)?,
            diverged: named(r, "diverged", Reader::bool)?,
        },
        time_per_unit: named(r, "time_per_unit", Reader::f64)?,
        completed: named(r, "completed", Reader::bool)?,
    })
}

fn put_pending(w: &mut ValueWriter<'_>, p: &PendingJob) {
    w.arr(4);
    put_float(w, p.time);
    w.int(p.seq);
    put_job(w, &p.job);
    w.bool(p.dropped);
}

fn get_pending(r: &mut Reader<'_>) -> Result<PendingJob, Error> {
    if r.is_keyed_row(4, "pending job")? {
        return upgrade::keyed_row(r, upgrade::PENDING, get_pending);
    }
    Ok(PendingJob {
        time: named(r, "time", Reader::f64)?,
        seq: named(r, "seq", Reader::u64)?,
        job: named(r, "job", get_job)?,
        dropped: named(r, "dropped", Reader::bool)?,
    })
}

fn put_fault_stats(w: &mut ValueWriter<'_>, f: &FaultStats) {
    w.obj(5);
    w.key("dropped").int(f.jobs_dropped as u64);
    w.key("retried").int(f.jobs_retried as u64);
    w.key("timed_out").int(f.jobs_timed_out as u64);
    w.key("panicked").int(f.jobs_panicked as u64);
    w.key("poisoned").int(f.jobs_poisoned as u64);
}

fn get_fault_stats(r: &mut Reader<'_>) -> Result<FaultStats, Error> {
    r.object(|o| {
        Ok(FaultStats {
            jobs_dropped: o.get("dropped", Reader::usize)?,
            jobs_retried: o.get("retried", Reader::usize)?,
            jobs_timed_out: o.get("timed_out", Reader::usize)?,
            jobs_panicked: o.get("panicked", Reader::usize)?,
            jobs_poisoned: o.get("poisoned", Reader::usize)?,
        })
    })
}

fn put_trace_event(w: &mut ValueWriter<'_>, e: &TraceEvent) {
    w.arr(7);
    put_float(w, e.time);
    w.int(e.trial);
    w.int(e.bracket as u64);
    w.int(e.rung as u64);
    put_float(w, e.resource);
    put_float(w, e.val_loss);
    put_float(w, e.test_loss);
}

fn get_trace_event(r: &mut Reader<'_>) -> Result<TraceEvent, Error> {
    if r.is_keyed_row(7, "trace event")? {
        return upgrade::keyed_row(r, upgrade::TRACE, get_trace_event);
    }
    Ok(TraceEvent {
        time: named(r, "time", Reader::f64)?,
        trial: named(r, "trial", Reader::u64)?,
        bracket: named(r, "bracket", Reader::usize)?,
        rung: named(r, "rung", Reader::usize)?,
        resource: named(r, "resource", Reader::f64)?,
        val_loss: named(r, "val_loss", Reader::f64)?,
        test_loss: named(r, "test_loss", Reader::f64)?,
    })
}

pub(crate) fn put_sim_config(w: &mut ValueWriter<'_>, c: &SimConfig) {
    w.obj(7);
    w.key("workers").int(c.workers as u64);
    put_float(w.key("max_time"), c.max_time);
    w.key("max_jobs").int(c.max_jobs as u64);
    put_float(w.key("straggler_std"), c.straggler_std);
    put_float(w.key("drop_prob"), c.drop_prob);
    w.key("resume").str(match c.resume {
        ResumePolicy::Checkpoint => "checkpoint",
        ResumePolicy::FromScratch => "from_scratch",
    });
    w.key("trace_mode").str(match c.trace_mode {
        TraceMode::Full => "full",
        TraceMode::IncumbentOnly => "incumbent_only",
        TraceMode::Aggregated => "aggregated",
    });
}

/// Decode and validate a [`SimConfig`].
pub(crate) fn get_sim_config(r: &mut Reader<'_>) -> Result<SimConfig, Error> {
    // A struct literal, not `SimConfig::new`: the constructor panics on
    // exactly the values `validate` is here to reject.
    let c = r.object(|o| {
        Ok(SimConfig {
            workers: o.get("workers", Reader::usize)?,
            max_time: o.get("max_time", Reader::f64)?,
            max_jobs: o.get("max_jobs", Reader::usize)?,
            straggler_std: o.get("straggler_std", Reader::f64)?,
            drop_prob: o.get("drop_prob", Reader::f64)?,
            resume: match o.get("resume", Reader::str)? {
                "checkpoint" => ResumePolicy::Checkpoint,
                "from_scratch" => ResumePolicy::FromScratch,
                other => return Err(Error::codec(format!("unknown resume policy {other:?}"))),
            },
            trace_mode: match o.get("trace_mode", Reader::str)? {
                "full" => TraceMode::Full,
                "incumbent_only" => TraceMode::IncumbentOnly,
                "aggregated" => TraceMode::Aggregated,
                other => return Err(Error::codec(format!("unknown trace mode {other:?}"))),
            },
        })
    })?;
    c.validate()?;
    Ok(c)
}

pub(crate) fn put_sim_run_state(w: &mut ValueWriter<'_>, s: &SimRunState) {
    w.obj(14);
    put_float(w.key("now"), s.now);
    w.key("seq").int(s.seq);
    w.key("free_workers").int(s.free_workers as u64);
    w.key("jobs_completed").int(s.jobs_completed as u64);
    w.key("distinct_trials").int(s.distinct_trials as u64);
    put_fault_stats(w.key("faults"), &s.faults);
    w.key("scheduler_finished").bool(s.scheduler_finished);
    put_float(w.key("incumbent_val"), s.incumbent_val);
    w.key("best_config");
    match &s.best_config {
        Some((c, loss, resource)) => {
            w.obj(3);
            put_config(w.key("config"), c);
            put_float(w.key("loss"), *loss);
            put_float(w.key("resource"), *resource);
        }
        None => w.null(),
    }
    w.key("slots").arr(s.slots.len());
    for slot in &s.slots {
        put_slot(w, slot);
    }
    w.key("pending").arr(s.pending.len());
    for p in &s.pending {
        put_pending(w, p);
    }
    w.key("retry").arr(s.retry.len());
    for j in &s.retry {
        put_job(w, j);
    }
    w.key("searcher").str(&s.searcher);
    w.key("trace").arr(s.trace.len());
    for e in &s.trace {
        put_trace_event(w, e);
    }
}

pub(crate) fn get_sim_run_state(r: &mut Reader<'_>) -> Result<SimRunState, Error> {
    let best_config = |r: &mut Reader<'_>| {
        r.object(|o| {
            let config = o.get("config", get_config)?;
            Ok((
                config,
                o.get("loss", Reader::f64)?,
                o.get("resource", Reader::f64)?,
            ))
        })
    };
    r.object(|o| {
        Ok(SimRunState {
            now: o.get("now", Reader::f64)?,
            seq: o.get("seq", Reader::u64)?,
            free_workers: o.get("free_workers", Reader::usize)?,
            jobs_completed: o.get("jobs_completed", Reader::usize)?,
            distinct_trials: o.get("distinct_trials", Reader::usize)?,
            faults: o.get("faults", get_fault_stats)?,
            scheduler_finished: o.get("scheduler_finished", Reader::bool)?,
            incumbent_val: o.get("incumbent_val", Reader::f64)?,
            best_config: o.get("best_config", |r| r.nullable(best_config))?,
            slots: o.get("slots", |r| r.list(get_slot))?,
            pending: o.get("pending", |r| r.list(get_pending))?,
            retry: o.get("retry", |r| r.list(get_job))?,
            searcher: o.get("searcher", Reader::string)?,
            trace: o.get("trace", |r| r.list(get_trace_event))?,
        })
    })
}

/// Raw xoshiro256++ state words captured by `StdRng::state`, as
/// [`put_u64s`] writes them.
pub(crate) fn get_rng_state(r: &mut Reader<'_>) -> Result<[u64; 4], Error> {
    r.tuple(4, "rng state")?;
    Ok([r.u64()?, r.u64()?, r.u64()?, r.u64()?])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `encode`'s bytes as a tree, through rendered text and back.
    fn roundtrip(encode: impl FnOnce(&mut ValueWriter<'_>)) -> JsonValue {
        JsonValue::parse(&tree_of(encode).render()).expect("rendered JSON reparses")
    }

    #[test]
    fn float_codec_handles_non_finite() {
        for v in [0.5, -3.25, f64::INFINITY, f64::NEG_INFINITY] {
            let back = from_tree(&roundtrip(|w| put_float(w, v)), |r| r.f64()).unwrap();
            assert_eq!(v.to_bits(), back.to_bits());
        }
        let nan = from_tree(&roundtrip(|w| put_float(w, f64::NAN)), |r| r.f64()).unwrap();
        assert!(nan.is_nan());
        // Telemetry-log compatibility: null decodes as +inf.
        let null = from_tree(&JsonValue::Null, |r| r.f64()).unwrap();
        assert_eq!(null, f64::INFINITY);
    }

    #[test]
    fn space_round_trips_every_param_kind() {
        let space = SearchSpace::builder()
            .continuous("lr", 1e-4, 1.0, Scale::Log)
            .continuous("mom", 0.0, 0.99, Scale::Linear)
            .discrete("layers", -2, 7)
            .ordinal("batch", &[32.0, 64.0, 128.0])
            .categorical("act", &["relu", "tanh"])
            .build()
            .unwrap();
        let back = from_tree(&roundtrip(|w| put_space(w, &space)), get_space).unwrap();
        let tree = |space: &SearchSpace| tree_of(|w| put_space(w, space)).render();
        assert_eq!(tree(&back), tree(&space));
    }

    #[test]
    fn config_round_trips() {
        let c = Config::new(vec![
            ParamValue::Float(0.125),
            ParamValue::Int(-5),
            ParamValue::Index(2),
        ]);
        let back = from_tree(&roundtrip(|w| put_config(w, &c)), get_config).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn job_round_trips() {
        let job = Job {
            trial: TrialId(42),
            config: Config::new(vec![ParamValue::Float(0.5)]),
            rung: 3,
            resource: 64.0,
            bracket: 1,
            inherit_from: Some(TrialId(7)),
        };
        let back = from_tree(&roundtrip(|w| put_job(w, &job)), get_job).unwrap();
        assert_eq!(back, job);
    }

    #[test]
    fn sim_config_round_trips() {
        let cfg = SimConfig::new(25, 60.0)
            .with_stragglers(0.5)
            .with_drops(0.01)
            .with_max_jobs(1000)
            .with_resume(ResumePolicy::FromScratch)
            .with_trace_mode(TraceMode::IncumbentOnly);
        let back = from_tree(&roundtrip(|w| put_sim_config(w, &cfg)), get_sim_config).unwrap();
        assert_eq!(back, cfg);
    }

    /// Fields are found by key in any order, a field passed over on the
    /// way to another is read later, and the first of repeated keys counts.
    #[test]
    fn fields_are_read_by_key_in_any_order() {
        let doc = JsonValue::parse(
            r#"{"state": {"x": 1}, "a": 5, "kind": "k", "a": 6, "extra": [1, [2]], "b": true}"#,
        )
        .unwrap();
        let read = from_tree(&doc, |r| {
            r.object(|o| {
                let b = o.get("b", Reader::bool)?;
                let kind = o.get("kind", Reader::string)?;
                let x = o.get("state", |r| r.object(|o| o.get("x", Reader::u64)))?;
                Ok((
                    b,
                    kind,
                    x,
                    o.get("a", Reader::u64)?,
                    o.opt("absent", Reader::u64)?,
                ))
            })
        });
        assert_eq!(read.unwrap(), (true, "k".to_owned(), 1, 5, None));
        let err = from_tree(&doc, |r| r.object(|o| o.get("missing", Reader::u64)));
        assert!(err.unwrap_err().to_string().contains("missing field"));
    }

    /// A count is a loop bound, never a reservation: arrays claiming
    /// 2⁶⁴ − 1 values are refused as soon as their bytes run out.
    #[test]
    fn a_huge_count_is_an_error_not_an_allocation() {
        let mut bytes = vec![TAG_ARR];
        crate::binary::put_varint(&mut bytes, u64::MAX);
        bytes.push(crate::binary::TAG_NUM);
        assert!(Reader::whole(&bytes, get_config).is_err());
        assert!(Reader::whole(&bytes, |r| r.list(get_slot)).is_err());
        assert!(Reader::whole(&bytes, |r| r.list(Reader::u64)).is_err());
    }
}
