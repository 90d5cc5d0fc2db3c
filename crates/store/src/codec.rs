//! Hand-rolled JSON codecs for everything the store persists.
//!
//! The workspace's `serde` is an offline API stub, so durable state is
//! encoded explicitly over [`asha_metrics::JsonValue`]. Two invariants the
//! codecs maintain:
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
//! All decoders return an [`Error`] describing the first mismatch; callers
//! reading files recast it as [`ErrorKind::Corrupt`](asha_core::ErrorKind::Corrupt)
//! with the offending path. The config decoders also *validate* what they
//! decoded (kind `Config`): the same documents arrive in `create` frames
//! from the network, and a config that parses but cannot build a ladder
//! would otherwise panic the constructor that meets it.

use crate::error::Error;
use asha_core::{
    AshaConfig, AshaState, AsyncHyperbandState, BracketState, HyperbandConfig, Job, PromotionRule,
    RungState, ScanOrder, SchedulerState, ShaConfig, SyncShaState, TrialId,
};
use asha_metrics::{FaultStats, JsonValue, TraceEvent};
use asha_sim::{PendingJob, ResumePolicy, SimConfig, SimRunState, TraceMode, TrialSlotState};
use asha_space::{Config, ParamSpec, ParamValue, Scale, SearchSpace};
use asha_surrogate::TrainingState;

/// Encode an `f64` that may be non-finite (`JsonValue::Num` renders
/// non-finite values as `null`, which would not round-trip).
pub fn float_to_json(v: f64) -> JsonValue {
    if v.is_finite() {
        JsonValue::Num(v)
    } else if v == f64::INFINITY {
        JsonValue::Str("inf".to_owned())
    } else if v == f64::NEG_INFINITY {
        JsonValue::Str("-inf".to_owned())
    } else {
        JsonValue::Str("nan".to_owned())
    }
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

fn get<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, Error> {
    v.get(key)
        .ok_or_else(|| Error::codec(format!("missing field {key:?}")))
}

fn get_f64(v: &JsonValue, key: &str) -> Result<f64, Error> {
    float_from_json(get(v, key)?).map_err(|e| e.context(format!("field {key:?}")))
}

fn get_u64(v: &JsonValue, key: &str) -> Result<u64, Error> {
    get(v, key)?
        .as_u64()
        .ok_or_else(|| Error::codec(format!("field {key:?}: expected an unsigned integer")))
}

fn get_usize(v: &JsonValue, key: &str) -> Result<usize, Error> {
    Ok(get_u64(v, key)? as usize)
}

fn get_bool(v: &JsonValue, key: &str) -> Result<bool, Error> {
    get(v, key)?
        .as_bool()
        .ok_or_else(|| Error::codec(format!("field {key:?}: expected a bool")))
}

fn get_str<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, Error> {
    get(v, key)?
        .as_str()
        .ok_or_else(|| Error::codec(format!("field {key:?}: expected a string")))
}

fn get_arr<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], Error> {
    get(v, key)?
        .as_array()
        .ok_or_else(|| Error::codec(format!("field {key:?}: expected an array")))
}

fn i64_to_json(v: i64) -> JsonValue {
    if v >= 0 {
        JsonValue::Int(v as u64)
    } else {
        // Negative integers have no exact JsonValue form; a string keeps
        // the full 64-bit range.
        JsonValue::Str(v.to_string())
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

/// Encode a search space as an array of named parameter specs.
pub fn space_to_json(space: &SearchSpace) -> JsonValue {
    JsonValue::Arr(
        space
            .params()
            .iter()
            .map(|p| {
                let mut fields = vec![("name", JsonValue::Str(p.name().to_owned()))];
                match p.spec() {
                    ParamSpec::Continuous { low, high, scale } => {
                        fields.push(("kind", JsonValue::Str("continuous".to_owned())));
                        fields.push(("low", JsonValue::Num(*low)));
                        fields.push(("high", JsonValue::Num(*high)));
                        fields.push(("scale", JsonValue::Str(scale_name(*scale).to_owned())));
                    }
                    ParamSpec::Discrete { low, high } => {
                        fields.push(("kind", JsonValue::Str("discrete".to_owned())));
                        fields.push(("low", i64_to_json(*low)));
                        fields.push(("high", i64_to_json(*high)));
                    }
                    ParamSpec::Ordinal { values } => {
                        fields.push(("kind", JsonValue::Str("ordinal".to_owned())));
                        fields.push((
                            "values",
                            JsonValue::Arr(values.iter().map(|&v| JsonValue::Num(v)).collect()),
                        ));
                    }
                    ParamSpec::Categorical { labels } => {
                        fields.push(("kind", JsonValue::Str("categorical".to_owned())));
                        fields.push((
                            "labels",
                            JsonValue::Arr(
                                labels.iter().map(|l| JsonValue::Str(l.clone())).collect(),
                            ),
                        ));
                    }
                }
                JsonValue::obj(fields)
            })
            .collect(),
    )
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

/// Encode a sampled configuration as an array of tagged values.
pub fn config_to_json(config: &Config) -> JsonValue {
    JsonValue::Arr(
        config
            .values()
            .iter()
            .map(|v| match v {
                ParamValue::Float(x) => JsonValue::obj([("float", float_to_json(*x))]),
                ParamValue::Int(x) => JsonValue::obj([("int", i64_to_json(*x))]),
                ParamValue::Index(x) => JsonValue::obj([("index", JsonValue::Int(*x as u64))]),
            })
            .collect(),
    )
}

/// Decode a configuration written by [`config_to_json`].
pub fn config_from_json(v: &JsonValue) -> Result<Config, Error> {
    let arr = v.as_array().ok_or("config: expected an array")?;
    let values = arr
        .iter()
        .map(|v| {
            if let Some(x) = v.get("float") {
                Ok(ParamValue::Float(float_from_json(x)?))
            } else if let Some(x) = v.get("int") {
                Ok(ParamValue::Int(i64_from_json(x)?))
            } else if let Some(x) = v.get("index") {
                Ok(ParamValue::Index(
                    x.as_u64().ok_or("index must be an unsigned integer")? as usize,
                ))
            } else {
                Err(Error::codec("config value must be tagged float/int/index"))
            }
        })
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

/// Encode an [`AshaConfig`]. The promotion rule is not part of the
/// document: it travels as the enclosing state's kind tag (see
/// [`scheduler_state_to_json`]).
pub fn asha_config_to_json(c: &AshaConfig) -> JsonValue {
    JsonValue::obj([
        ("min_resource", float_to_json(c.min_resource)),
        ("max_resource", float_to_json(c.max_resource)),
        ("reduction_factor", float_to_json(c.reduction_factor)),
        ("stop_rate", JsonValue::Int(c.stop_rate as u64)),
        ("infinite_horizon", JsonValue::Bool(c.infinite_horizon)),
        (
            "max_trials",
            match c.max_trials {
                Some(n) => JsonValue::Int(n as u64),
                None => JsonValue::Null,
            },
        ),
        (
            "scan_order",
            JsonValue::Str(scan_order_name(c.scan_order).to_owned()),
        ),
    ])
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

/// Encode a [`ShaConfig`].
pub fn sha_config_to_json(c: &ShaConfig) -> JsonValue {
    JsonValue::obj([
        ("num_configs", JsonValue::Int(c.num_configs as u64)),
        ("min_resource", float_to_json(c.min_resource)),
        ("max_resource", float_to_json(c.max_resource)),
        ("reduction_factor", float_to_json(c.reduction_factor)),
        ("stop_rate", JsonValue::Int(c.stop_rate as u64)),
        ("grow_brackets", JsonValue::Bool(c.grow_brackets)),
    ])
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

/// Encode a [`HyperbandConfig`].
pub fn hyperband_config_to_json(c: &HyperbandConfig) -> JsonValue {
    JsonValue::obj([
        ("min_resource", float_to_json(c.min_resource)),
        ("max_resource", float_to_json(c.max_resource)),
        ("reduction_factor", float_to_json(c.reduction_factor)),
        ("num_brackets", JsonValue::Int(c.num_brackets as u64)),
    ])
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

fn trial_loss_pairs_to_json(pairs: &[(u64, f64)]) -> JsonValue {
    JsonValue::Arr(
        pairs
            .iter()
            .map(|&(t, l)| JsonValue::Arr(vec![JsonValue::Int(t), float_to_json(l)]))
            .collect(),
    )
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

fn u64s_to_json(ids: &[u64]) -> JsonValue {
    JsonValue::Arr(ids.iter().map(|&t| JsonValue::Int(t)).collect())
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

fn trial_configs_to_json(trials: &[(u64, Config)]) -> JsonValue {
    JsonValue::Arr(
        trials
            .iter()
            .map(|(t, c)| JsonValue::Arr(vec![JsonValue::Int(*t), config_to_json(c)]))
            .collect(),
    )
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

fn rung_state_to_json(r: &RungState) -> JsonValue {
    JsonValue::obj([
        ("records", trial_loss_pairs_to_json(&r.records)),
        ("promoted", u64s_to_json(&r.promoted)),
    ])
}

fn rung_state_from_json(v: &JsonValue) -> Result<RungState, Error> {
    Ok(RungState {
        records: trial_loss_pairs_from_json(get(v, "records")?, "rung records")?,
        promoted: u64s_from_json(get(v, "promoted")?, "rung promoted")?,
    })
}

/// Encode an [`AshaState`].
pub fn asha_state_to_json(s: &AshaState) -> JsonValue {
    JsonValue::obj([
        ("config", asha_config_to_json(&s.config)),
        (
            "rungs",
            JsonValue::Arr(s.rungs.iter().map(rung_state_to_json).collect()),
        ),
        ("trials", trial_configs_to_json(&s.trials)),
        (
            "outstanding",
            JsonValue::Arr(
                s.outstanding
                    .iter()
                    .map(|&(t, k)| {
                        JsonValue::Arr(vec![JsonValue::Int(t), JsonValue::Int(k as u64)])
                    })
                    .collect(),
            ),
        ),
        ("next_trial", JsonValue::Int(s.next_trial)),
        ("trials_started", JsonValue::Int(s.trials_started as u64)),
        ("name", JsonValue::Str(s.name.clone())),
    ])
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

fn bracket_state_to_json(b: &BracketState) -> JsonValue {
    JsonValue::obj([
        (
            "remaining_to_sample",
            JsonValue::Int(b.remaining_to_sample as u64),
        ),
        ("queue", trial_configs_to_json(&b.queue)),
        ("outstanding", JsonValue::Int(b.outstanding as u64)),
        ("issued", u64s_to_json(&b.issued)),
        ("results", trial_loss_pairs_to_json(&b.results)),
        ("rung", JsonValue::Int(b.rung as u64)),
        ("done", JsonValue::Bool(b.done)),
    ])
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

/// Encode a [`SyncShaState`].
pub fn sync_sha_state_to_json(s: &SyncShaState) -> JsonValue {
    JsonValue::obj([
        ("config", sha_config_to_json(&s.config)),
        (
            "brackets",
            JsonValue::Arr(s.brackets.iter().map(bracket_state_to_json).collect()),
        ),
        (
            "trial_meta",
            JsonValue::Arr(
                s.trial_meta
                    .iter()
                    .map(|(t, b, c)| {
                        JsonValue::Arr(vec![
                            JsonValue::Int(*t),
                            JsonValue::Int(*b as u64),
                            config_to_json(c),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("next_trial", JsonValue::Int(s.next_trial)),
        ("name", JsonValue::Str(s.name.clone())),
    ])
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

/// Encode an [`AsyncHyperbandState`].
pub fn hyperband_state_to_json(s: &AsyncHyperbandState) -> JsonValue {
    JsonValue::obj([
        ("config", hyperband_config_to_json(&s.config)),
        (
            "brackets",
            JsonValue::Arr(s.brackets.iter().map(asha_state_to_json).collect()),
        ),
        ("spent", float_to_json(s.spent)),
        ("current", JsonValue::Int(s.current as u64)),
        ("name", JsonValue::Str(s.name.clone())),
    ])
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

/// Encode any scheduler's state as `{"kind": ..., "state": ...}`.
pub fn scheduler_state_to_json(s: &SchedulerState) -> JsonValue {
    let state = match s {
        SchedulerState::Asha(s) => asha_state_to_json(s),
        SchedulerState::SyncSha(s) => sync_sha_state_to_json(s),
        SchedulerState::AsyncHyperband(s) => hyperband_state_to_json(s),
    };
    JsonValue::obj([
        ("kind", JsonValue::Str(s.kind().to_owned())),
        ("state", state),
    ])
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

/// Encode a [`Job`].
pub fn job_to_json(j: &Job) -> JsonValue {
    JsonValue::obj([
        ("trial", JsonValue::Int(j.trial.0)),
        ("config", config_to_json(&j.config)),
        ("rung", JsonValue::Int(j.rung as u64)),
        ("resource", float_to_json(j.resource)),
        ("bracket", JsonValue::Int(j.bracket as u64)),
        (
            "inherit_from",
            match j.inherit_from {
                Some(t) => JsonValue::Int(t.0),
                None => JsonValue::Null,
            },
        ),
    ])
}

/// Decode a [`Job`].
pub fn job_from_json(v: &JsonValue) -> Result<Job, Error> {
    Ok(Job {
        trial: TrialId(get_u64(v, "trial")?),
        config: config_from_json(get(v, "config")?)?,
        rung: get_usize(v, "rung")?,
        resource: get_f64(v, "resource")?,
        bracket: get_usize(v, "bracket")?,
        inherit_from: if get(v, "inherit_from")?.is_null() {
            None
        } else {
            Some(TrialId(get_u64(v, "inherit_from")?))
        },
    })
}

fn training_state_to_json(s: &TrainingState) -> JsonValue {
    JsonValue::obj([
        ("resource", float_to_json(s.resource)),
        ("loss", float_to_json(s.loss)),
        ("asym_jitter", float_to_json(s.asym_jitter)),
        ("rate_jitter", float_to_json(s.rate_jitter)),
        ("divergence_draw", float_to_json(s.divergence_draw)),
        ("diverged", JsonValue::Bool(s.diverged)),
    ])
}

fn training_state_from_json(v: &JsonValue) -> Result<TrainingState, Error> {
    Ok(TrainingState {
        resource: get_f64(v, "resource")?,
        loss: get_f64(v, "loss")?,
        asym_jitter: get_f64(v, "asym_jitter")?,
        rate_jitter: get_f64(v, "rate_jitter")?,
        divergence_draw: get_f64(v, "divergence_draw")?,
        diverged: get_bool(v, "diverged")?,
    })
}

fn fault_stats_to_json(f: &FaultStats) -> JsonValue {
    JsonValue::obj([
        ("dropped", JsonValue::Int(f.jobs_dropped as u64)),
        ("retried", JsonValue::Int(f.jobs_retried as u64)),
        ("timed_out", JsonValue::Int(f.jobs_timed_out as u64)),
        ("panicked", JsonValue::Int(f.jobs_panicked as u64)),
        ("poisoned", JsonValue::Int(f.jobs_poisoned as u64)),
    ])
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

fn trace_event_to_json(e: &TraceEvent) -> JsonValue {
    JsonValue::obj([
        ("time", float_to_json(e.time)),
        ("trial", JsonValue::Int(e.trial)),
        ("bracket", JsonValue::Int(e.bracket as u64)),
        ("rung", JsonValue::Int(e.rung as u64)),
        ("resource", float_to_json(e.resource)),
        ("val_loss", float_to_json(e.val_loss)),
        ("test_loss", float_to_json(e.test_loss)),
    ])
}

fn trace_event_from_json(v: &JsonValue) -> Result<TraceEvent, Error> {
    Ok(TraceEvent {
        time: get_f64(v, "time")?,
        trial: get_u64(v, "trial")?,
        bracket: get_usize(v, "bracket")?,
        rung: get_usize(v, "rung")?,
        resource: get_f64(v, "resource")?,
        val_loss: get_f64(v, "val_loss")?,
        test_loss: get_f64(v, "test_loss")?,
    })
}

/// Encode a [`SimConfig`].
pub fn sim_config_to_json(c: &SimConfig) -> JsonValue {
    JsonValue::obj([
        ("workers", JsonValue::Int(c.workers as u64)),
        ("max_time", float_to_json(c.max_time)),
        ("max_jobs", JsonValue::Int(c.max_jobs as u64)),
        ("straggler_std", float_to_json(c.straggler_std)),
        ("drop_prob", float_to_json(c.drop_prob)),
        (
            "resume",
            JsonValue::Str(
                match c.resume {
                    ResumePolicy::Checkpoint => "checkpoint",
                    ResumePolicy::FromScratch => "from_scratch",
                }
                .to_owned(),
            ),
        ),
        (
            "trace_mode",
            JsonValue::Str(
                match c.trace_mode {
                    TraceMode::Full => "full",
                    TraceMode::IncumbentOnly => "incumbent_only",
                    TraceMode::Aggregated => "aggregated",
                }
                .to_owned(),
            ),
        ),
    ])
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

/// Encode a [`SimRunState`].
pub fn sim_run_state_to_json(s: &SimRunState) -> JsonValue {
    JsonValue::obj([
        ("now", float_to_json(s.now)),
        ("seq", JsonValue::Int(s.seq)),
        ("free_workers", JsonValue::Int(s.free_workers as u64)),
        ("jobs_completed", JsonValue::Int(s.jobs_completed as u64)),
        ("distinct_trials", JsonValue::Int(s.distinct_trials as u64)),
        ("faults", fault_stats_to_json(&s.faults)),
        ("scheduler_finished", JsonValue::Bool(s.scheduler_finished)),
        ("incumbent_val", float_to_json(s.incumbent_val)),
        (
            "best_config",
            match &s.best_config {
                Some((c, loss, resource)) => JsonValue::obj([
                    ("config", config_to_json(c)),
                    ("loss", float_to_json(*loss)),
                    ("resource", float_to_json(*resource)),
                ]),
                None => JsonValue::Null,
            },
        ),
        (
            "slots",
            JsonValue::Arr(
                s.slots
                    .iter()
                    .map(|slot| {
                        JsonValue::obj([
                            ("trial", JsonValue::Int(slot.trial)),
                            ("state", training_state_to_json(&slot.state)),
                            ("time_per_unit", float_to_json(slot.time_per_unit)),
                            ("completed", JsonValue::Bool(slot.completed)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "pending",
            JsonValue::Arr(
                s.pending
                    .iter()
                    .map(|p| {
                        JsonValue::obj([
                            ("time", float_to_json(p.time)),
                            ("seq", JsonValue::Int(p.seq)),
                            ("job", job_to_json(&p.job)),
                            ("dropped", JsonValue::Bool(p.dropped)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "retry",
            JsonValue::Arr(s.retry.iter().map(job_to_json).collect()),
        ),
        ("searcher", JsonValue::Str(s.searcher.clone())),
        (
            "trace",
            JsonValue::Arr(s.trace.iter().map(trace_event_to_json).collect()),
        ),
    ])
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
            .map(|slot| {
                Ok(TrialSlotState {
                    trial: get_u64(slot, "trial")?,
                    state: training_state_from_json(get(slot, "state")?)?,
                    time_per_unit: get_f64(slot, "time_per_unit")?,
                    completed: get_bool(slot, "completed")?,
                })
            })
            .collect::<Result<_, Error>>()?,
        pending: get_arr(v, "pending")?
            .iter()
            .map(|p| {
                Ok(PendingJob {
                    time: get_f64(p, "time")?,
                    seq: get_u64(p, "seq")?,
                    job: job_from_json(get(p, "job")?)?,
                    dropped: get_bool(p, "dropped")?,
                })
            })
            .collect::<Result<_, Error>>()?,
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
    JsonValue::Arr(s.iter().map(|&w| JsonValue::Int(w)).collect())
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
