//! SHA's `sync_sha` document, as the store wrote it before SHA freed its
//! finished brackets: every bracket opened, each as its barrier's counts and
//! lists in global trial ids, and `trial_meta`, a table of every trial
//! sampled. Nothing in the library writes it any more (its state is a
//! `BracketLoopState`, kind `"sha"`); the tests keep the shape and its encoder, as
//! `keyed/` keeps the v1 keyed writer, as the oracle the legacy reader in
//! `asha_store::upgrade` is checked against.

// Each test target that includes this module uses only part of it.
#![allow(dead_code)]

use std::collections::BTreeMap;

use asha_core::{BracketLoopConfig, BracketLoopState, Opening};
use asha_metrics::JsonValue;
use asha_space::{Config, ParamValue};
use asha_store::binary::{decode_value, ValueWriter};

/// `(num_configs, stop_rate, grow)` of SHA's config.
fn sha(config: &BracketLoopConfig) -> (usize, usize, bool) {
    match config.opening {
        Opening::Sha {
            num_configs,
            stop_rate,
            grow,
        } => (num_configs, stop_rate, grow),
        other => panic!("a sync_sha document holds SHA, not {other:?}"),
    }
}

/// One bracket of a `sync_sha` document: the live state of its barrier.
#[derive(Debug, Clone, PartialEq)]
pub struct BracketState {
    /// Base-rung configurations not yet sampled.
    pub remaining_to_sample: usize,
    /// Survivors queued for issue at the current rung, the best last.
    pub queue: Vec<(u64, Config)>,
    /// Jobs issued at the current rung and not yet reported.
    pub outstanding: usize,
    /// Trials issued and unreported, sorted.
    pub issued: Vec<u64>,
    /// Results gathered at the current rung, in arrival order.
    pub results: Vec<(u64, f64)>,
    /// Current rung index.
    pub rung: usize,
    /// Whether the bracket has run to completion.
    pub done: bool,
}

/// A `sync_sha` document.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncShaState {
    /// SHA's config: its opening is [`Opening::Sha`].
    pub config: BracketLoopConfig,
    /// Every bracket opened, in order.
    pub brackets: Vec<BracketState>,
    /// `(trial, bracket, config)` of every trial sampled, by trial id.
    pub trial_meta: Vec<(u64, usize, Config)>,
    pub next_trial: u64,
    pub name: String,
}

/// The document a SHA whose state is `state` wrote, `configs` holding every
/// trial sampled by global id (a finished bracket's trials are in no
/// `BracketLoopState`). A finished bracket is written as the old writer
/// wrote it but for the rung it stopped at, which the reader passes by: 0
/// stands in.
pub fn of_run(state: &BracketLoopState, configs: &BTreeMap<u64, Config>) -> SyncShaState {
    let (n, _, _) = sha(&state.config);
    let mut open = state.brackets.iter().peekable();
    let brackets = (0..state.opened).map(|b| {
        let base = (b * n) as u64;
        let Some(open) = open.next_if(|o| o.index == b) else {
            return BracketState {
                remaining_to_sample: 0,
                queue: Vec::new(),
                outstanding: 0,
                issued: Vec::new(),
                results: Vec::new(),
                rung: 0,
                done: true,
            };
        };
        let asha = &open.asha;
        let barrier = open.barrier.as_ref().expect("a SHA bracket has a barrier");
        let (rung, queue) = (barrier.rung, &barrier.queue);
        let queued = |&t: &u64| (base + t, asha.trials[t as usize].1.clone());
        BracketState {
            remaining_to_sample: n - asha.trials_started,
            queue: queue.iter().map(queued).collect(),
            outstanding: asha.outstanding.len(),
            issued: asha.outstanding.iter().map(|&(t, _)| base + t).collect(),
            results: asha.rungs[rung]
                .records
                .iter()
                .map(|&(t, l)| (base + t, l))
                .collect(),
            rung,
            done: false,
        }
    });
    let trial_meta = configs.iter().map(|(&t, c)| (t, t as usize / n, c.clone()));
    SyncShaState {
        config: state.config.clone(),
        brackets: brackets.collect(),
        trial_meta: trial_meta.collect(),
        next_trial: configs.len() as u64,
        name: state.name.clone(),
    }
}

/// `{"kind": "sync_sha", "state": ...}` with every config value positional,
/// as the last writer of the document laid it out (snapshot schema v2), or
/// `keyed` as in schema v1.
pub fn to_json(s: &SyncShaState, keyed: bool) -> JsonValue {
    let put_config = if keyed { put_keyed_config } else { put_config };
    let mut bytes = Vec::new();
    let w = &mut ValueWriter::new(&mut bytes);
    w.obj(2);
    w.key("kind").str("sync_sha");
    w.key("state").obj(5);
    let (c, (n, stop_rate, grow)) = (&s.config, sha(&s.config));
    w.key("config").obj(6);
    w.key("num_configs").int(n as u64);
    put_float(w.key("min_resource"), c.min_resource);
    put_float(w.key("max_resource"), c.max_resource);
    put_float(w.key("reduction_factor"), c.reduction_factor);
    w.key("stop_rate").int(stop_rate as u64);
    w.key("grow_brackets").bool(grow);
    w.key("brackets").arr(s.brackets.len());
    for b in &s.brackets {
        w.obj(7);
        w.key("remaining_to_sample")
            .int(b.remaining_to_sample as u64);
        w.key("queue").arr(b.queue.len());
        for (t, c) in &b.queue {
            w.arr(2);
            w.int(*t);
            put_config(w, c);
        }
        w.key("outstanding").int(b.outstanding as u64);
        w.key("issued").arr(b.issued.len());
        for &t in &b.issued {
            w.int(t);
        }
        w.key("results").arr(b.results.len());
        for &(t, l) in &b.results {
            w.arr(2);
            w.int(t);
            put_float(w, l);
        }
        w.key("rung").int(b.rung as u64);
        w.key("done").bool(b.done);
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
    decode_value(&bytes).expect("the oracle's own output decodes")
}

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

fn put_i64(w: &mut ValueWriter<'_>, v: i64) {
    if v >= 0 {
        w.int(v as u64)
    } else {
        w.str(&v.to_string())
    }
}

fn put_config(w: &mut ValueWriter<'_>, config: &Config) {
    w.arr(config.values().len());
    for v in config.values() {
        match v {
            ParamValue::Float(x) => put_float(w, *x),
            ParamValue::Int(x) => {
                w.arr(2);
                w.int(1);
                put_i64(w, *x);
            }
            ParamValue::Index(x) => {
                w.arr(2);
                w.int(2);
                w.int(*x as u64);
            }
        }
    }
}

fn put_keyed_config(w: &mut ValueWriter<'_>, config: &Config) {
    w.arr(config.values().len());
    for v in config.values() {
        w.obj(1);
        match v {
            ParamValue::Float(x) => put_float(w.key("float"), *x),
            ParamValue::Int(x) => put_i64(w.key("int"), *x),
            ParamValue::Index(x) => w.key("index").int(*x as u64),
        }
    }
}
