//! Hand-rolled codecs for everything the store persists.
//!
//! The workspace's `serde` is an offline API stub, so durable state is
//! encoded explicitly. Every persisted type has exactly **one encoder**, a
//! `put_*` function that streams the document as binvalue bytes through a
//! [`ValueWriter`] — no [`JsonValue`] tree is built on the checkpoint path.
//! The public `*_to_json` functions are that same encoder decoded back into
//! a tree ([`crate::binary`]'s `tree_of`), for the callers that want text:
//! `meta.json`, the wire protocol, `store_inspect`. Decoders read trees.
//! Two invariants the codecs maintain:
//!
//! * **Exact `f64` round-trips.** `JsonValue::Num` renders with Rust's
//!   shortest-round-trip formatting, so finite floats survive a
//!   write/parse cycle bit-for-bit. Non-finite floats would render as
//!   `null`, so they are encoded as the strings `"inf"` / `"-inf"` /
//!   `"nan"` instead ([`float_to_json`]); decoding also accepts `null` as
//!   `+inf` for compatibility with the telemetry log's null-loss
//!   convention.
//! * **Deterministic bytes.** Object keys are emitted in a fixed order and
//!   the state structs sort their collections, so the same logical state
//!   always encodes to the same bytes.
//!
//! Rows — the entries of a document's long arrays — are fixed-order arrays
//! without keys (snapshot schema v2; the orders are listed at the
//! simulator-state encoders), and the decoders still read schema v1's keyed
//! rows.
//!
//! All decoders return an [`Error`] describing the first mismatch; callers
//! reading files recast it as [`ErrorKind::Corrupt`](asha_core::ErrorKind::Corrupt)
//! with the offending path. The config decoders also *validate* what they
//! decoded (kind `Config`): the same documents arrive in `create` frames
//! from the network, and a config that parses but cannot build a ladder
//! would otherwise panic the constructor that meets it.

use crate::binary::{tree_of, ValueWriter};
use crate::error::Error;
use asha_core::{
    AshaConfig, AshaState, AsyncHyperbandState, BracketState, HyperbandConfig, Job, PromotionRule,
    RungState, ScanOrder, SchedulerState, ShaConfig, SyncShaState, TrialId,
};
use asha_metrics::{FaultStats, JsonValue, TraceEvent};
use asha_sim::{PendingJob, ResumePolicy, SimConfig, SimRunState, TraceMode, TrialSlotState};
use asha_space::{Config, ParamSpec, ParamValue, Scale, SearchSpace};
use asha_surrogate::TrainingState;

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

/// Encode an `f64` that may be non-finite (`JsonValue::Num` renders
/// non-finite values as `null`, which would not round-trip).
pub fn float_to_json(v: f64) -> JsonValue {
    tree_of(|w| put_float(w, v))
}

/// Decode an `f64` written by [`float_to_json`]. `null` decodes to `+inf`
/// (the telemetry log's convention for a poisoned loss).
pub fn float_from_json(v: &JsonValue) -> Result<f64, Error> {
    match v {
        JsonValue::Null => Ok(f64::INFINITY),
        JsonValue::Str(s) => match s.as_str() {
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            "nan" => Ok(f64::NAN),
            other => Err(Error::codec(format!(
                "expected a float, got string {other:?}"
            ))),
        },
        other => other
            .as_f64()
            .ok_or_else(|| Error::codec(format!("expected a float, got {other:?}"))),
    }
}

pub(crate) fn get<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, Error> {
    v.get(key)
        .ok_or_else(|| Error::codec(format!("missing field {key:?}")))
}

fn f64_field(v: &JsonValue, key: &str) -> Result<f64, Error> {
    float_from_json(v).map_err(|e| e.context(format!("field {key:?}")))
}

fn u64_field(v: &JsonValue, key: &str) -> Result<u64, Error> {
    v.as_u64()
        .ok_or_else(|| Error::codec(format!("field {key:?}: expected an unsigned integer")))
}

fn bool_field(v: &JsonValue, key: &str) -> Result<bool, Error> {
    v.as_bool()
        .ok_or_else(|| Error::codec(format!("field {key:?}: expected a bool")))
}

fn get_f64(v: &JsonValue, key: &str) -> Result<f64, Error> {
    f64_field(get(v, key)?, key)
}

pub(crate) fn get_u64(v: &JsonValue, key: &str) -> Result<u64, Error> {
    u64_field(get(v, key)?, key)
}

fn get_usize(v: &JsonValue, key: &str) -> Result<usize, Error> {
    Ok(get_u64(v, key)? as usize)
}

fn get_bool(v: &JsonValue, key: &str) -> Result<bool, Error> {
    bool_field(get(v, key)?, key)
}

pub(crate) fn get_str<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, Error> {
    get(v, key)?
        .as_str()
        .ok_or_else(|| Error::codec(format!("field {key:?}: expected a string")))
}

/// Refuse a document whose `schema` tag is none of `known`.
pub(crate) fn check_schema(v: &JsonValue, known: &[&str]) -> Result<(), Error> {
    let schema = get_str(v, "schema")?;
    if known.contains(&schema) {
        return Ok(());
    }
    Err(Error::codec(format!(
        "unsupported schema {schema:?} (expected one of {known:?})"
    )))
}

pub(crate) fn get_arr<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], Error> {
    get(v, key)?
        .as_array()
        .ok_or_else(|| Error::codec(format!("field {key:?}: expected an array")))
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

fn i64_from_json(v: &JsonValue) -> Result<i64, Error> {
    match v {
        JsonValue::Int(n) => {
            i64::try_from(*n).map_err(|_| Error::codec(format!("integer {n} overflows i64")))
        }
        JsonValue::Str(s) => s
            .parse::<i64>()
            .map_err(|_| Error::codec(format!("expected an integer, got string {s:?}"))),
        other => Err(Error::codec(format!("expected an integer, got {other:?}"))),
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

/// Encode a search space as an array of named parameter specs.
pub fn space_to_json(space: &SearchSpace) -> JsonValue {
    tree_of(|w| put_space(w, space))
}

/// Decode a search space written by [`space_to_json`].
pub fn space_from_json(v: &JsonValue) -> Result<SearchSpace, Error> {
    let params = v.as_array().ok_or("search space: expected an array")?;
    let mut builder = SearchSpace::builder();
    for p in params {
        let name = get_str(p, "name")?;
        match get_str(p, "kind")? {
            "continuous" => {
                let scale = match get_str(p, "scale")? {
                    "linear" => Scale::Linear,
                    "log" => Scale::Log,
                    other => return Err(Error::codec(format!("unknown scale {other:?}"))),
                };
                builder = builder.continuous(name, get_f64(p, "low")?, get_f64(p, "high")?, scale);
            }
            "discrete" => {
                let low = i64_from_json(get(p, "low")?)?;
                let high = i64_from_json(get(p, "high")?)?;
                builder = builder.discrete(name, low, high);
            }
            "ordinal" => {
                let values: Vec<f64> = get_arr(p, "values")?
                    .iter()
                    .map(float_from_json)
                    .collect::<Result<_, _>>()?;
                builder = builder.ordinal(name, &values);
            }
            "categorical" => {
                let labels: Vec<String> = get_arr(p, "labels")?
                    .iter()
                    .map(|l| {
                        l.as_str()
                            .map(str::to_owned)
                            .ok_or_else(|| "categorical label must be a string".to_owned())
                    })
                    .collect::<Result<_, _>>()?;
                let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
                builder = builder.categorical(name, &refs);
            }
            other => return Err(Error::codec(format!("unknown parameter kind {other:?}"))),
        }
    }
    builder.build().map_err(|e| Error::codec(e.to_string()))
}

/// Tags of the non-float config values (see [`put_config`]).
const CONFIG_INT: u64 = 1;
const CONFIG_INDEX: u64 = 2;

/// A config is an array of its values: a `Float` is the bare float
/// ([`float_to_json`]'s form), an `Int` is `[1, v]`, an `Index` is
/// `[2, i]`. Snapshot schema v1 wrote each value as a one-key object,
/// `{"float": x}` / `{"int": v}` / `{"index": i}`; that is still read.
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

/// Encode a sampled configuration as an array of values.
pub fn config_to_json(config: &Config) -> JsonValue {
    tree_of(|w| put_config(w, config))
}

fn index_from_json(v: &JsonValue) -> Result<ParamValue, Error> {
    let i = v.as_u64().ok_or("index must be an unsigned integer")?;
    Ok(ParamValue::Index(i as usize))
}

fn param_value_from_json(v: &JsonValue) -> Result<ParamValue, Error> {
    match v {
        JsonValue::Arr(tagged) => match tagged.as_slice() {
            [JsonValue::Int(CONFIG_INT), x] => Ok(ParamValue::Int(i64_from_json(x)?)),
            [JsonValue::Int(CONFIG_INDEX), i] => index_from_json(i),
            _ => Err(Error::codec(
                "config value: expected a float, [1, int] or [2, index]",
            )),
        },
        JsonValue::Obj(_) => {
            if let Some(x) = v.get("float") {
                Ok(ParamValue::Float(float_from_json(x)?))
            } else if let Some(x) = v.get("int") {
                Ok(ParamValue::Int(i64_from_json(x)?))
            } else if let Some(i) = v.get("index") {
                index_from_json(i)
            } else {
                Err(Error::codec("config value must be tagged float/int/index"))
            }
        }
        float => Ok(ParamValue::Float(float_from_json(float)?)),
    }
}

/// Decode a configuration written by [`config_to_json`] (or schema v1's
/// keyed values).
pub fn config_from_json(v: &JsonValue) -> Result<Config, Error> {
    let arr = v.as_array().ok_or("config: expected an array")?;
    let values = arr
        .iter()
        .map(param_value_from_json)
        .collect::<Result<Vec<_>, Error>>()?;
    Ok(Config::new(values))
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
pub fn asha_config_from_json(v: &JsonValue) -> Result<AshaConfig, Error> {
    let mut c = AshaConfig::new(
        get_f64(v, "min_resource")?,
        get_f64(v, "max_resource")?,
        get_f64(v, "reduction_factor")?,
    );
    c.stop_rate = get_usize(v, "stop_rate")?;
    c.infinite_horizon = get_bool(v, "infinite_horizon")?;
    c.max_trials = if get(v, "max_trials")?.is_null() {
        None
    } else {
        Some(get_usize(v, "max_trials")?)
    };
    c.scan_order = scan_order_from(get_str(v, "scan_order")?)?;
    c.validate()?;
    Ok(c)
}

fn put_sha_config(w: &mut ValueWriter<'_>, c: &ShaConfig) {
    w.obj(6);
    w.key("num_configs").int(c.num_configs as u64);
    put_float(w.key("min_resource"), c.min_resource);
    put_float(w.key("max_resource"), c.max_resource);
    put_float(w.key("reduction_factor"), c.reduction_factor);
    w.key("stop_rate").int(c.stop_rate as u64);
    w.key("grow_brackets").bool(c.grow_brackets);
}

/// Decode and validate a [`ShaConfig`].
pub fn sha_config_from_json(v: &JsonValue) -> Result<ShaConfig, Error> {
    let mut c = ShaConfig::new(
        get_usize(v, "num_configs")?,
        get_f64(v, "min_resource")?,
        get_f64(v, "max_resource")?,
        get_f64(v, "reduction_factor")?,
    );
    c.stop_rate = get_usize(v, "stop_rate")?;
    c.grow_brackets = get_bool(v, "grow_brackets")?;
    c.validate()?;
    Ok(c)
}

fn put_hyperband_config(w: &mut ValueWriter<'_>, c: &HyperbandConfig) {
    w.obj(4);
    put_float(w.key("min_resource"), c.min_resource);
    put_float(w.key("max_resource"), c.max_resource);
    put_float(w.key("reduction_factor"), c.reduction_factor);
    w.key("num_brackets").int(c.num_brackets as u64);
}

/// Decode and validate a [`HyperbandConfig`].
pub fn hyperband_config_from_json(v: &JsonValue) -> Result<HyperbandConfig, Error> {
    let c = HyperbandConfig {
        min_resource: get_f64(v, "min_resource")?,
        max_resource: get_f64(v, "max_resource")?,
        reduction_factor: get_f64(v, "reduction_factor")?,
        num_brackets: get_usize(v, "num_brackets")?,
    };
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

fn trial_loss_pairs_from_json(v: &JsonValue, what: &str) -> Result<Vec<(u64, f64)>, Error> {
    v.as_array()
        .ok_or_else(|| Error::codec(format!("{what}: expected an array")))?
        .iter()
        .map(|pair| {
            let pair = pair
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| Error::codec(format!("{what}: expected [trial, loss] pairs")))?;
            let t = pair[0].as_u64().ok_or_else(|| {
                Error::codec(format!("{what}: trial must be an unsigned integer"))
            })?;
            Ok((t, float_from_json(&pair[1])?))
        })
        .collect()
}

pub(crate) fn put_u64s(w: &mut ValueWriter<'_>, ids: &[u64]) {
    w.arr(ids.len());
    for &t in ids {
        w.int(t);
    }
}

fn u64s_from_json(v: &JsonValue, what: &str) -> Result<Vec<u64>, Error> {
    v.as_array()
        .ok_or_else(|| Error::codec(format!("{what}: expected an array")))?
        .iter()
        .map(|t| {
            t.as_u64()
                .ok_or_else(|| Error::codec(format!("{what}: expected unsigned integers")))
        })
        .collect()
}

fn put_trial_configs(w: &mut ValueWriter<'_>, trials: &[(u64, Config)]) {
    w.arr(trials.len());
    for (t, c) in trials {
        w.arr(2);
        w.int(*t);
        put_config(w, c);
    }
}

fn trial_configs_from_json(v: &JsonValue, what: &str) -> Result<Vec<(u64, Config)>, Error> {
    v.as_array()
        .ok_or_else(|| Error::codec(format!("{what}: expected an array")))?
        .iter()
        .map(|pair| {
            let pair = pair
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| Error::codec(format!("{what}: expected [trial, config] pairs")))?;
            let t = pair[0].as_u64().ok_or_else(|| {
                Error::codec(format!("{what}: trial must be an unsigned integer"))
            })?;
            Ok((t, config_from_json(&pair[1])?))
        })
        .collect()
}

fn put_rung_state(w: &mut ValueWriter<'_>, r: &RungState) {
    w.obj(2);
    put_trial_loss_pairs(w.key("records"), &r.records);
    put_u64s(w.key("promoted"), &r.promoted);
}

fn rung_state_from_json(v: &JsonValue) -> Result<RungState, Error> {
    Ok(RungState {
        records: trial_loss_pairs_from_json(get(v, "records")?, "rung records")?,
        promoted: u64s_from_json(get(v, "promoted")?, "rung promoted")?,
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

/// Decode an [`AshaState`].
pub fn asha_state_from_json(v: &JsonValue) -> Result<AshaState, Error> {
    let outstanding = get_arr(v, "outstanding")?
        .iter()
        .map(|pair| {
            let pair = pair
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or("outstanding: expected [trial, rung] pairs")?;
            match (pair[0].as_u64(), pair[1].as_u64()) {
                (Some(t), Some(k)) => Ok((t, k as usize)),
                _ => Err(Error::codec("outstanding: expected unsigned integers")),
            }
        })
        .collect::<Result<Vec<_>, Error>>()?;
    Ok(AshaState {
        config: asha_config_from_json(get(v, "config")?)?,
        rungs: get_arr(v, "rungs")?
            .iter()
            .map(rung_state_from_json)
            .collect::<Result<_, _>>()?,
        trials: trial_configs_from_json(get(v, "trials")?, "trials")?,
        outstanding,
        next_trial: get_u64(v, "next_trial")?,
        trials_started: get_usize(v, "trials_started")?,
        name: get_str(v, "name")?.to_owned(),
    })
}

fn put_bracket_state(w: &mut ValueWriter<'_>, b: &BracketState) {
    w.obj(7);
    w.key("remaining_to_sample")
        .int(b.remaining_to_sample as u64);
    put_trial_configs(w.key("queue"), &b.queue);
    w.key("outstanding").int(b.outstanding as u64);
    put_u64s(w.key("issued"), &b.issued);
    put_trial_loss_pairs(w.key("results"), &b.results);
    w.key("rung").int(b.rung as u64);
    w.key("done").bool(b.done);
}

fn bracket_state_from_json(v: &JsonValue) -> Result<BracketState, Error> {
    Ok(BracketState {
        remaining_to_sample: get_usize(v, "remaining_to_sample")?,
        queue: trial_configs_from_json(get(v, "queue")?, "bracket queue")?,
        outstanding: get_usize(v, "outstanding")?,
        issued: u64s_from_json(get(v, "issued")?, "bracket issued")?,
        results: trial_loss_pairs_from_json(get(v, "results")?, "bracket results")?,
        rung: get_usize(v, "rung")?,
        done: get_bool(v, "done")?,
    })
}

fn put_sync_sha_state(w: &mut ValueWriter<'_>, s: &SyncShaState) {
    w.obj(5);
    put_sha_config(w.key("config"), &s.config);
    w.key("brackets").arr(s.brackets.len());
    for b in &s.brackets {
        put_bracket_state(w, b);
    }
    w.key("trial_meta").arr(s.trial_meta.len());
    for (t, b, c) in &s.trial_meta {
        w.arr(3);
        w.int(*t);
        w.int(*b as u64);
        put_config(w, c);
    }
    w.key("next_trial").int(s.next_trial);
    w.key("name").str(&s.name);
}

/// Decode a [`SyncShaState`].
pub fn sync_sha_state_from_json(v: &JsonValue) -> Result<SyncShaState, Error> {
    let trial_meta = get_arr(v, "trial_meta")?
        .iter()
        .map(|triple| {
            let triple = triple
                .as_array()
                .filter(|p| p.len() == 3)
                .ok_or("trial_meta: expected [trial, bracket, config] triples")?;
            match (triple[0].as_u64(), triple[1].as_u64()) {
                (Some(t), Some(b)) => Ok((t, b as usize, config_from_json(&triple[2])?)),
                _ => Err(Error::codec("trial_meta: expected unsigned integers")),
            }
        })
        .collect::<Result<Vec<_>, Error>>()?;
    Ok(SyncShaState {
        config: sha_config_from_json(get(v, "config")?)?,
        brackets: get_arr(v, "brackets")?
            .iter()
            .map(bracket_state_from_json)
            .collect::<Result<_, _>>()?,
        trial_meta,
        next_trial: get_u64(v, "next_trial")?,
        name: get_str(v, "name")?.to_owned(),
    })
}

fn put_hyperband_state(w: &mut ValueWriter<'_>, s: &AsyncHyperbandState) {
    w.obj(5);
    put_hyperband_config(w.key("config"), &s.config);
    w.key("brackets").arr(s.brackets.len());
    for b in &s.brackets {
        put_asha_state(w, b);
    }
    put_float(w.key("spent"), s.spent);
    w.key("current").int(s.current as u64);
    w.key("name").str(&s.name);
}

/// Decode an [`AsyncHyperbandState`].
pub fn hyperband_state_from_json(v: &JsonValue) -> Result<AsyncHyperbandState, Error> {
    Ok(AsyncHyperbandState {
        config: hyperband_config_from_json(get(v, "config")?)?,
        brackets: get_arr(v, "brackets")?
            .iter()
            .map(asha_state_from_json)
            .collect::<Result<_, _>>()?,
        spent: get_f64(v, "spent")?,
        current: get_usize(v, "current")?,
        name: get_str(v, "name")?.to_owned(),
    })
}

pub(crate) fn put_scheduler_state(w: &mut ValueWriter<'_>, s: &SchedulerState) {
    w.obj(2);
    w.key("kind").str(s.kind());
    w.key("state");
    match s {
        SchedulerState::Asha(s) => put_asha_state(w, s),
        SchedulerState::SyncSha(s) => put_sync_sha_state(w, s),
        SchedulerState::AsyncHyperband(s) => put_hyperband_state(w, s),
    }
}

/// Encode any scheduler's state as `{"kind": ..., "state": ...}`.
pub fn scheduler_state_to_json(s: &SchedulerState) -> JsonValue {
    tree_of(|w| put_scheduler_state(w, s))
}

/// Decode a state written by [`scheduler_state_to_json`]. The `"dasha"`
/// kind is an ASHA state under the delayed promotion rule.
pub fn scheduler_state_from_json(v: &JsonValue) -> Result<SchedulerState, Error> {
    let state = get(v, "state")?;
    Ok(match get_str(v, "kind")? {
        "asha" => SchedulerState::Asha(asha_state_from_json(state)?),
        "dasha" => {
            let mut s = asha_state_from_json(state)?;
            s.config.rule = PromotionRule::Delayed;
            SchedulerState::Asha(s)
        }
        "sync_sha" => SchedulerState::SyncSha(sync_sha_state_from_json(state)?),
        "async_hyperband" => SchedulerState::AsyncHyperband(hyperband_state_from_json(state)?),
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
// training state nested under `"state"`; each row decoder reads both. Only
// the document's singletons — the top-level fields, `faults`,
// `best_config`, the scheduler and simulator configs — keep their keys:
// written once per document, they cost a few hundred bytes and name
// themselves to a reader.

/// One row being decoded: a v2 array read by position, or a v1 object read
/// by key. A positional row's length is checked when it is opened, so a
/// short, long or mistyped row is an error, never a panic.
#[derive(Clone, Copy)]
enum Row<'a> {
    Positional(&'a [JsonValue]),
    Keyed(&'a JsonValue),
}

impl<'a> Row<'a> {
    fn open(v: &'a JsonValue, len: usize, what: &str) -> Result<Self, Error> {
        match v {
            JsonValue::Arr(items) if items.len() == len => Ok(Row::Positional(items)),
            JsonValue::Arr(items) => Err(Error::codec(format!(
                "{what}: expected {len} elements, got {}",
                items.len()
            ))),
            JsonValue::Obj(_) => Ok(Row::Keyed(v)),
            _ => Err(Error::codec(format!("{what}: expected an array"))),
        }
    }

    /// Element `i` of a positional row, field `key` of a keyed one.
    fn field(self, i: usize, key: &str) -> Result<&'a JsonValue, Error> {
        match self {
            Row::Positional(items) => items
                .get(i)
                .ok_or_else(|| Error::codec(format!("missing field {key:?}"))),
            Row::Keyed(v) => get(v, key),
        }
    }

    fn f64(self, i: usize, key: &str) -> Result<f64, Error> {
        f64_field(self.field(i, key)?, key)
    }

    fn u64(self, i: usize, key: &str) -> Result<u64, Error> {
        u64_field(self.field(i, key)?, key)
    }

    fn usize(self, i: usize, key: &str) -> Result<usize, Error> {
        Ok(self.u64(i, key)? as usize)
    }

    fn bool(self, i: usize, key: &str) -> Result<bool, Error> {
        bool_field(self.field(i, key)?, key)
    }
}

fn put_job(w: &mut ValueWriter<'_>, j: &Job) {
    w.arr(6);
    w.int(j.trial.0);
    put_config(w, &j.config);
    w.int(j.rung as u64);
    put_float(w, j.resource);
    w.int(j.bracket as u64);
    put_opt_int(w, j.inherit_from.map(|t| t.0));
}

/// Encode a [`Job`].
pub fn job_to_json(j: &Job) -> JsonValue {
    tree_of(|w| put_job(w, j))
}

/// Decode a [`Job`].
pub fn job_from_json(v: &JsonValue) -> Result<Job, Error> {
    let row = Row::open(v, 6, "job")?;
    let inherit_from = row.field(5, "inherit_from")?;
    Ok(Job {
        trial: TrialId(row.u64(0, "trial")?),
        config: config_from_json(row.field(1, "config")?)?,
        rung: row.usize(2, "rung")?,
        resource: row.f64(3, "resource")?,
        bracket: row.usize(4, "bracket")?,
        inherit_from: if inherit_from.is_null() {
            None
        } else {
            Some(TrialId(u64_field(inherit_from, "inherit_from")?))
        },
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

fn slot_from_json(v: &JsonValue) -> Result<TrialSlotState, Error> {
    let row = Row::open(v, 9, "slot")?;
    let state = match row {
        Row::Positional(_) => row,
        Row::Keyed(slot) => Row::Keyed(get(slot, "state")?),
    };
    Ok(TrialSlotState {
        trial: row.u64(0, "trial")?,
        state: TrainingState {
            resource: state.f64(1, "resource")?,
            loss: state.f64(2, "loss")?,
            asym_jitter: state.f64(3, "asym_jitter")?,
            rate_jitter: state.f64(4, "rate_jitter")?,
            divergence_draw: state.f64(5, "divergence_draw")?,
            diverged: state.bool(6, "diverged")?,
        },
        time_per_unit: row.f64(7, "time_per_unit")?,
        completed: row.bool(8, "completed")?,
    })
}

fn put_pending(w: &mut ValueWriter<'_>, p: &PendingJob) {
    w.arr(4);
    put_float(w, p.time);
    w.int(p.seq);
    put_job(w, &p.job);
    w.bool(p.dropped);
}

fn pending_from_json(v: &JsonValue) -> Result<PendingJob, Error> {
    let row = Row::open(v, 4, "pending job")?;
    Ok(PendingJob {
        time: row.f64(0, "time")?,
        seq: row.u64(1, "seq")?,
        job: job_from_json(row.field(2, "job")?)?,
        dropped: row.bool(3, "dropped")?,
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

fn fault_stats_from_json(v: &JsonValue) -> Result<FaultStats, Error> {
    Ok(FaultStats {
        jobs_dropped: get_usize(v, "dropped")?,
        jobs_retried: get_usize(v, "retried")?,
        jobs_timed_out: get_usize(v, "timed_out")?,
        jobs_panicked: get_usize(v, "panicked")?,
        jobs_poisoned: get_usize(v, "poisoned")?,
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

fn trace_event_from_json(v: &JsonValue) -> Result<TraceEvent, Error> {
    let row = Row::open(v, 7, "trace event")?;
    Ok(TraceEvent {
        time: row.f64(0, "time")?,
        trial: row.u64(1, "trial")?,
        bracket: row.usize(2, "bracket")?,
        rung: row.usize(3, "rung")?,
        resource: row.f64(4, "resource")?,
        val_loss: row.f64(5, "val_loss")?,
        test_loss: row.f64(6, "test_loss")?,
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

/// Encode a [`SimConfig`].
pub fn sim_config_to_json(c: &SimConfig) -> JsonValue {
    tree_of(|w| put_sim_config(w, c))
}

/// Decode and validate a [`SimConfig`].
pub fn sim_config_from_json(v: &JsonValue) -> Result<SimConfig, Error> {
    // A struct literal, not `SimConfig::new`: the constructor panics on
    // exactly the values `validate` is here to reject.
    let c = SimConfig {
        workers: get_usize(v, "workers")?,
        max_time: get_f64(v, "max_time")?,
        max_jobs: get_usize(v, "max_jobs")?,
        straggler_std: get_f64(v, "straggler_std")?,
        drop_prob: get_f64(v, "drop_prob")?,
        resume: match get_str(v, "resume")? {
            "checkpoint" => ResumePolicy::Checkpoint,
            "from_scratch" => ResumePolicy::FromScratch,
            other => return Err(Error::codec(format!("unknown resume policy {other:?}"))),
        },
        trace_mode: match get_str(v, "trace_mode")? {
            "full" => TraceMode::Full,
            "incumbent_only" => TraceMode::IncumbentOnly,
            "aggregated" => TraceMode::Aggregated,
            other => return Err(Error::codec(format!("unknown trace mode {other:?}"))),
        },
    };
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

/// Decode a [`SimRunState`].
pub fn sim_run_state_from_json(v: &JsonValue) -> Result<SimRunState, Error> {
    let best_config = {
        let b = get(v, "best_config")?;
        if b.is_null() {
            None
        } else {
            Some((
                config_from_json(get(b, "config")?)?,
                get_f64(b, "loss")?,
                get_f64(b, "resource")?,
            ))
        }
    };
    Ok(SimRunState {
        now: get_f64(v, "now")?,
        seq: get_u64(v, "seq")?,
        free_workers: get_usize(v, "free_workers")?,
        jobs_completed: get_usize(v, "jobs_completed")?,
        distinct_trials: get_usize(v, "distinct_trials")?,
        faults: fault_stats_from_json(get(v, "faults")?)?,
        scheduler_finished: get_bool(v, "scheduler_finished")?,
        incumbent_val: get_f64(v, "incumbent_val")?,
        best_config,
        slots: get_arr(v, "slots")?
            .iter()
            .map(slot_from_json)
            .collect::<Result<_, _>>()?,
        pending: get_arr(v, "pending")?
            .iter()
            .map(pending_from_json)
            .collect::<Result<_, _>>()?,
        retry: get_arr(v, "retry")?
            .iter()
            .map(job_from_json)
            .collect::<Result<_, _>>()?,
        searcher: get_str(v, "searcher")?.to_owned(),
        trace: get_arr(v, "trace")?
            .iter()
            .map(trace_event_from_json)
            .collect::<Result<_, _>>()?,
    })
}

/// Encode raw xoshiro256++ state words captured by `StdRng::state`.
pub fn rng_state_to_json(s: [u64; 4]) -> JsonValue {
    tree_of(|w| put_u64s(w, &s))
}

/// Decode RNG state words written by [`rng_state_to_json`].
pub fn rng_state_from_json(v: &JsonValue) -> Result<[u64; 4], Error> {
    let words = u64s_from_json(v, "rng state")?;
    let arr: [u64; 4] = words
        .try_into()
        .map_err(|_| "rng state must have exactly 4 words".to_owned())?;
    Ok(arr)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &JsonValue) -> JsonValue {
        JsonValue::parse(&v.render()).expect("rendered JSON reparses")
    }

    #[test]
    fn float_codec_handles_non_finite() {
        for v in [0.5, -3.25, f64::INFINITY, f64::NEG_INFINITY] {
            let back = float_from_json(&roundtrip(&float_to_json(v))).unwrap();
            assert_eq!(v.to_bits(), back.to_bits());
        }
        let nan = float_from_json(&roundtrip(&float_to_json(f64::NAN))).unwrap();
        assert!(nan.is_nan());
        // Telemetry-log compatibility: null decodes as +inf.
        assert_eq!(float_from_json(&JsonValue::Null).unwrap(), f64::INFINITY);
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
        let back = space_from_json(&roundtrip(&space_to_json(&space))).unwrap();
        assert_eq!(
            space_to_json(&back).render(),
            space_to_json(&space).render()
        );
    }

    #[test]
    fn config_round_trips() {
        let c = Config::new(vec![
            ParamValue::Float(0.125),
            ParamValue::Int(-5),
            ParamValue::Index(2),
        ]);
        let back = config_from_json(&roundtrip(&config_to_json(&c))).unwrap();
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
        assert_eq!(job_from_json(&roundtrip(&job_to_json(&job))).unwrap(), job);
    }

    #[test]
    fn sim_config_round_trips() {
        let cfg = SimConfig::new(25, 60.0)
            .with_stragglers(0.5)
            .with_drops(0.01)
            .with_max_jobs(1000)
            .with_resume(ResumePolicy::FromScratch)
            .with_trace_mode(TraceMode::IncumbentOnly);
        let back = sim_config_from_json(&roundtrip(&sim_config_to_json(&cfg))).unwrap();
        assert_eq!(back, cfg);
    }
}
