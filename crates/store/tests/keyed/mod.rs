//! The snapshot writer as it was before schema v2: every simulator row and
//! every config value an object keyed by its field names. Nothing in the
//! library writes this layout any more; the tests keep it as the oracle the
//! v1 half of each row decoder is checked against, and to reproduce the
//! bytes of the committed `jsonl-v1` fixture's snapshots.
//!
//! Only the shapes that changed are spelled out differently from the
//! library's writer; the rest (scheduler configs, rung records, faults) is
//! the same document and is copied here so the oracle owes the code under
//! test nothing.

// Each test target that includes this module uses only part of it.
#![allow(dead_code)]

use asha_core::{
    AshaConfig, AshaState, AsyncHyperbandState, BracketState, HyperbandConfig, Job, RungState,
    ScanOrder, SchedulerState, ShaConfig, SyncShaState,
};
use asha_metrics::{FaultStats, JsonValue, TraceEvent};
use asha_sim::SimRunState;
use asha_space::{Config, ParamValue};
use asha_store::binary::{decode_value, ValueWriter};
use asha_store::Snapshot;
use asha_surrogate::TrainingState;

/// The v1 document of `snap`, as a tree.
pub fn snapshot_to_json(snap: &Snapshot) -> JsonValue {
    let mut bytes = Vec::new();
    put_snapshot(&mut ValueWriter::new(&mut bytes), snap);
    decode_value(&bytes).expect("the oracle's own output decodes")
}

/// The v1 document of a scheduler state, as a tree.
pub fn scheduler_state_to_json(s: &SchedulerState) -> JsonValue {
    let mut bytes = Vec::new();
    put_scheduler_state(&mut ValueWriter::new(&mut bytes), s);
    decode_value(&bytes).expect("the oracle's own output decodes")
}

fn put_snapshot(w: &mut ValueWriter<'_>, snap: &Snapshot) {
    w.obj(6 + usize::from(snap.sampler.is_some()));
    w.key("schema").str("asha-store-snapshot-v1");
    w.key("seq").int(snap.seq);
    w.key("events").int(snap.events);
    put_scheduler_state(w.key("scheduler"), &snap.scheduler);
    if let Some(spec) = &snap.sampler {
        w.key("sampler").tree(&spec.to_json());
    }
    put_u64s(w.key("rng"), &snap.rng);
    match &snap.sim {
        Some(s) => put_sim_run_state(w.key("sim"), s),
        None => w.key("sim").null(),
    }
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

fn put_opt_int(w: &mut ValueWriter<'_>, v: Option<u64>) {
    match v {
        Some(n) => w.int(n),
        None => w.null(),
    }
}

fn put_u64s(w: &mut ValueWriter<'_>, ids: &[u64]) {
    w.arr(ids.len());
    for &t in ids {
        w.int(t);
    }
}

fn put_config(w: &mut ValueWriter<'_>, config: &Config) {
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

fn put_asha_config(w: &mut ValueWriter<'_>, c: &AshaConfig) {
    w.obj(7);
    put_float(w.key("min_resource"), c.min_resource);
    put_float(w.key("max_resource"), c.max_resource);
    put_float(w.key("reduction_factor"), c.reduction_factor);
    w.key("stop_rate").int(c.stop_rate as u64);
    w.key("infinite_horizon").bool(c.infinite_horizon);
    put_opt_int(w.key("max_trials"), c.max_trials.map(|n| n as u64));
    w.key("scan_order").str(match c.scan_order {
        ScanOrder::TopDown => "top_down",
        ScanOrder::BottomUp => "bottom_up",
    });
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

fn put_hyperband_config(w: &mut ValueWriter<'_>, c: &HyperbandConfig) {
    w.obj(4);
    put_float(w.key("min_resource"), c.min_resource);
    put_float(w.key("max_resource"), c.max_resource);
    put_float(w.key("reduction_factor"), c.reduction_factor);
    w.key("num_brackets").int(c.num_brackets as u64);
}

fn put_trial_loss_pairs(w: &mut ValueWriter<'_>, pairs: &[(u64, f64)]) {
    w.arr(pairs.len());
    for &(t, l) in pairs {
        w.arr(2);
        w.int(t);
        put_float(w, l);
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

fn put_rung_state(w: &mut ValueWriter<'_>, r: &RungState) {
    w.obj(2);
    put_trial_loss_pairs(w.key("records"), &r.records);
    put_u64s(w.key("promoted"), &r.promoted);
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

fn put_scheduler_state(w: &mut ValueWriter<'_>, s: &SchedulerState) {
    w.obj(2);
    w.key("kind").str(s.kind());
    w.key("state");
    match s {
        SchedulerState::Asha(s) => put_asha_state(w, s),
        SchedulerState::SyncSha(s) => put_sync_sha_state(w, s),
        SchedulerState::AsyncHyperband(s) => put_hyperband_state(w, s),
    }
}

fn put_job(w: &mut ValueWriter<'_>, j: &Job) {
    w.obj(6);
    w.key("trial").int(j.trial.0);
    put_config(w.key("config"), &j.config);
    w.key("rung").int(j.rung as u64);
    put_float(w.key("resource"), j.resource);
    w.key("bracket").int(j.bracket as u64);
    put_opt_int(w.key("inherit_from"), j.inherit_from.map(|t| t.0));
}

fn put_training_state(w: &mut ValueWriter<'_>, s: &TrainingState) {
    w.obj(6);
    put_float(w.key("resource"), s.resource);
    put_float(w.key("loss"), s.loss);
    put_float(w.key("asym_jitter"), s.asym_jitter);
    put_float(w.key("rate_jitter"), s.rate_jitter);
    put_float(w.key("divergence_draw"), s.divergence_draw);
    w.key("diverged").bool(s.diverged);
}

fn put_fault_stats(w: &mut ValueWriter<'_>, f: &FaultStats) {
    w.obj(5);
    w.key("dropped").int(f.jobs_dropped as u64);
    w.key("retried").int(f.jobs_retried as u64);
    w.key("timed_out").int(f.jobs_timed_out as u64);
    w.key("panicked").int(f.jobs_panicked as u64);
    w.key("poisoned").int(f.jobs_poisoned as u64);
}

fn put_trace_event(w: &mut ValueWriter<'_>, e: &TraceEvent) {
    w.obj(7);
    put_float(w.key("time"), e.time);
    w.key("trial").int(e.trial);
    w.key("bracket").int(e.bracket as u64);
    w.key("rung").int(e.rung as u64);
    put_float(w.key("resource"), e.resource);
    put_float(w.key("val_loss"), e.val_loss);
    put_float(w.key("test_loss"), e.test_loss);
}

fn put_sim_run_state(w: &mut ValueWriter<'_>, s: &SimRunState) {
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
        w.obj(4);
        w.key("trial").int(slot.trial);
        put_training_state(w.key("state"), &slot.state);
        put_float(w.key("time_per_unit"), slot.time_per_unit);
        w.key("completed").bool(slot.completed);
    }
    w.key("pending").arr(s.pending.len());
    for p in &s.pending {
        w.obj(4);
        put_float(w.key("time"), p.time);
        w.key("seq").int(p.seq);
        put_job(w.key("job"), &p.job);
        w.key("dropped").bool(p.dropped);
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
