//! Wire-protocol round-trip tests: every request, reply, and push variant
//! must survive encode → render → parse → decode unchanged, and version /
//! error handling must follow the documented rules.

use asha_baselines::Sampler;
use asha_core::{Asha, AshaConfig, Error, ErrorKind, Scheduler};
use asha_metrics::JsonValue;
use asha_service::proto::{run_options_from_json, run_options_to_json};
use asha_service::{encode_frame, Push, Reply, Request, WireStatus, PROTOCOL_VERSION};
use asha_store::{
    BenchSpec, Durability, ExperimentMeta, ExperimentStatus, RunOptions, SchedulerState,
};
use asha_surrogate::BenchmarkModel;

fn sample_meta() -> ExperimentMeta {
    let spec = BenchSpec {
        preset: "svm_vehicle".to_owned(),
        seed: 11,
    };
    let bench = spec.build().unwrap();
    let space = bench.space().clone();
    let asha = Asha::new(space.clone(), AshaConfig::new(1.0, 27.0, 3.0));
    ExperimentMeta {
        name: "proto-roundtrip".to_owned(),
        space,
        initial: SchedulerState::Asha(asha.export_state()),
        sampler: None,
        seed: 7,
        sim: asha_sim::SimConfig::new(4, 60.0),
        bench: spec,
    }
}

/// The sampling-plane variant of [`sample_meta`]: a delayed-promotion
/// D-ASHA scheduler with a TPE sampler attached, as `asha-ctl` builds for
/// `create --scheduler dasha --sampler tpe`.
fn dasha_tpe_meta() -> ExperimentMeta {
    let spec = BenchSpec {
        preset: "svm_vehicle".to_owned(),
        seed: 11,
    };
    let bench = spec.build().unwrap();
    let space = bench.space().clone();
    let config = AshaConfig::new(1.0, 27.0, 3.0).delayed();
    let dasha = Asha::with_sampler(space.clone(), config, Sampler::Tpe.build(&space));
    ExperimentMeta {
        name: "proto-roundtrip-dasha-tpe".to_owned(),
        space,
        initial: SchedulerState::Asha(dasha.export_state()),
        sampler: Some(Sampler::Tpe),
        seed: 7,
        sim: asha_sim::SimConfig::new(4, 60.0),
        bench: spec,
    }
}

/// Encode on the wire and parse back, as the peer would see it.
fn wire_trip(frame: &JsonValue) -> JsonValue {
    let line = encode_frame(frame);
    assert!(line.ends_with('\n'));
    JsonValue::parse(line.trim_end()).expect("encoded frame must parse")
}

fn all_requests() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::Create {
            meta: sample_meta(),
            opts: RunOptions {
                sync: Durability::EveryN(16),
                snapshot_jobs: 50,
                delta_chain: 4,
            },
        },
        Request::Start {
            name: "exp-a".to_owned(),
            opts: RunOptions::default(),
        },
        Request::Pause {
            name: "exp-a".to_owned(),
        },
        Request::Resume {
            name: "exp-a".to_owned(),
        },
        Request::Abort {
            name: "exp-a".to_owned(),
        },
        Request::Status {
            name: "exp-a".to_owned(),
        },
        Request::List,
        Request::Metrics,
        Request::Subscribe {
            name: "exp-a".to_owned(),
            from_seq: 42,
        },
        Request::Unsubscribe { sub: 9 },
        Request::Shutdown,
    ]
}

#[test]
fn every_request_round_trips() {
    // `Request` has no `PartialEq` (ExperimentMeta is not comparable), so
    // equality is judged on the canonical encoding: decode(encode(r)) must
    // re-encode to the identical frame.
    for (i, request) in all_requests().into_iter().enumerate() {
        let id = 100 + i as u64;
        let frame = request.to_frame(id);
        let parsed = wire_trip(&frame);
        let (got_id, decoded) =
            Request::from_frame(&parsed).unwrap_or_else(|e| panic!("{}: {e}", request.op()));
        assert_eq!(got_id, id, "{}", request.op());
        assert_eq!(decoded.op(), request.op());
        assert_eq!(
            decoded.to_frame(id).render_compact(),
            frame.render_compact(),
            "{} re-encoding differs",
            request.op()
        );
    }
}

#[test]
fn dasha_tpe_create_round_trips_scheduler_and_sampler() {
    let meta = dasha_tpe_meta();
    let request = Request::Create {
        meta,
        opts: RunOptions::default(),
    };
    let frame = request.to_frame(1);
    let parsed = wire_trip(&frame);
    let (_, decoded) = Request::from_frame(&parsed).unwrap();
    assert_eq!(
        decoded.to_frame(1).render_compact(),
        frame.render_compact(),
        "re-encoding differs"
    );
    let Request::Create { meta: back, .. } = decoded else {
        panic!("decoded to a different op");
    };
    assert_eq!(back.sampler, Some(Sampler::Tpe));
    assert_eq!(
        back.initial.kind(),
        "dasha",
        "scheduler kind lost on the wire"
    );
    // The decoded meta must rebuild into the same named scheduler the
    // daemon would run: delayed promotion with the TPE sampler attached.
    let rebuilt = asha_store::StoredScheduler::from_state(
        back.space.clone(),
        back.initial,
        back.sampler.unwrap(),
    );
    assert_eq!(rebuilt.export_state().kind(), "dasha");
    assert_eq!(rebuilt.name(), "D-ASHA+tpe");
}

#[test]
fn every_reply_round_trips() {
    let status = WireStatus {
        name: "exp-a".to_owned(),
        status: ExperimentStatus::Running,
    };
    let cases: Vec<(Reply, &str)> = vec![
        (Reply::Ack, "start"),
        (Reply::Pong, "ping"),
        (Reply::Status(status.clone()), "status"),
        (
            Reply::List(vec![
                status.clone(),
                WireStatus {
                    name: "exp-b".to_owned(),
                    status: ExperimentStatus::Interrupted,
                },
            ]),
            "list",
        ),
        (Reply::List(Vec::new()), "list"),
        (
            // The metrics reply is raw JSON: old clients pass newer
            // snapshots through untouched, so the payload here is
            // deliberately not the current schema.
            Reply::Metrics(JsonValue::obj([
                (
                    "schema",
                    JsonValue::Str("asha-daemon-metrics-v1".to_owned()),
                ),
                ("requests", JsonValue::obj([("total", JsonValue::Int(17))])),
                ("future_field", JsonValue::Bool(true)),
            ])),
            "metrics",
        ),
        (Reply::Subscribed { sub: 4 }, "subscribe"),
    ];
    for (i, (reply, op)) in cases.into_iter().enumerate() {
        let id = 7 + i as u64;
        let parsed = wire_trip(&reply.to_frame(id));
        let (got_id, decoded) = Reply::from_frame(&parsed, op).unwrap();
        assert_eq!(got_id, id);
        assert_eq!(decoded.unwrap(), reply, "op {op}");
    }
}

#[test]
fn every_status_value_round_trips_in_a_reply() {
    for status in [
        ExperimentStatus::Created,
        ExperimentStatus::Running,
        ExperimentStatus::Paused,
        ExperimentStatus::Finished,
        ExperimentStatus::Aborted,
        ExperimentStatus::Interrupted,
    ] {
        let reply = Reply::Status(WireStatus {
            name: "x".to_owned(),
            status,
        });
        let parsed = wire_trip(&reply.to_frame(1));
        let (_, decoded) = Reply::from_frame(&parsed, "status").unwrap();
        assert_eq!(decoded.unwrap(), reply);
    }
}

#[test]
fn error_frames_carry_kind_and_message() {
    for err in [
        Error::protocol("bad frame"),
        Error::missing("no such experiment"),
        Error::config("workers must be positive"),
        Error::codec("mangled snapshot"),
    ] {
        let parsed = wire_trip(&Reply::error_frame(3, &err));
        let (id, decoded) = Reply::from_frame(&parsed, "start").unwrap();
        assert_eq!(id, 3);
        let back = decoded.unwrap_err();
        assert_eq!(back.kind(), err.kind(), "{err}");
        assert!(
            back.to_string().contains(&err.to_string()),
            "{back} should carry {err}"
        );
    }
}

#[test]
fn every_push_round_trips() {
    let pushes = vec![
        Push::Event {
            sub: 1,
            data: JsonValue::obj([
                ("seq", JsonValue::Int(12)),
                ("ev", JsonValue::Str("job_end".to_owned())),
            ]),
        },
        Push::Lag {
            sub: 2,
            dropped: 40,
        },
        Push::Status {
            sub: 3,
            state: WireStatus {
                name: "exp-a".to_owned(),
                status: ExperimentStatus::Paused,
            },
        },
        Push::Rewind { sub: 4 },
        Push::End { sub: 5 },
    ];
    for push in pushes {
        let frame = push.to_frame();
        assert!(Push::is_push_frame(&frame), "{}", push.name());
        let parsed = wire_trip(&frame);
        let decoded = Push::from_frame(parsed).unwrap();
        assert_eq!(decoded, push);
        assert_eq!(decoded.sub(), push.sub());
    }
}

#[test]
fn run_options_round_trip_all_sync_policies() {
    for sync in [
        Durability::Flush,
        Durability::Sync,
        Durability::EveryN(1),
        Durability::EveryN(64),
    ] {
        let opts = RunOptions {
            sync,
            snapshot_jobs: 123,
            delta_chain: 5,
        };
        let back = run_options_from_json(&run_options_to_json(&opts)).unwrap();
        assert_eq!(back, opts);
    }
}

/// Older clients put the dialect on the wire. `binary-v2` is what the
/// daemon writes anyway, so the key is ignored; asking for `jsonl-v1` (or
/// anything else) is refused with a typed `config` error instead of being
/// silently written as binary.
#[test]
fn create_frames_from_older_clients_may_still_name_a_format() {
    let create_with_format = |name: &str| {
        let request = Request::Create {
            meta: sample_meta(),
            opts: RunOptions::default(),
        };
        let JsonValue::Obj(mut fields) = request.to_frame(3) else {
            panic!("frames are objects");
        };
        for (key, value) in &mut fields {
            if let ("opts", JsonValue::Obj(opts)) = (key.as_str(), value) {
                opts.push(("format".to_owned(), JsonValue::Str(name.to_owned())));
            }
        }
        Request::from_frame(&wire_trip(&JsonValue::Obj(fields)))
    };
    let (id, request) = create_with_format("binary-v2").unwrap();
    assert_eq!(id, 3);
    let Request::Create { opts, .. } = request else {
        panic!("decoded a different op");
    };
    assert_eq!(opts, RunOptions::default());

    for name in ["jsonl-v1", "parquet"] {
        let err = create_with_format(name).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Config, "{name}: {err}");
        assert!(err.to_string().contains(name), "{err}");
    }
}

#[test]
fn run_options_without_format_fields_decode_with_defaults() {
    // A frame from a pre-codec-redesign client carries neither `format`
    // nor `delta_chain`; the latter must fall back to the default.
    let frame = JsonValue::parse(r#"{"sync":"always","snapshot_jobs":77}"#).unwrap();
    let opts = run_options_from_json(&frame).unwrap();
    assert_eq!(opts.sync, Durability::Sync);
    assert_eq!(opts.snapshot_jobs, 77);
    assert_eq!(opts.delta_chain, RunOptions::default().delta_chain);
}

/// `snapshot_jobs: 0` is the amortised cadence, the default: it crosses the
/// wire like any other cadence instead of being refused.
#[test]
fn amortised_run_options_cross_the_wire() {
    let opts = RunOptions::default();
    assert_eq!(opts.snapshot_jobs, 0);
    let back = run_options_from_json(&run_options_to_json(&opts)).unwrap();
    assert_eq!(back, opts);
    let frame = JsonValue::parse(r#"{"sync":"always","snapshot_jobs":0}"#).unwrap();
    assert_eq!(run_options_from_json(&frame).unwrap().snapshot_jobs, 0);
}

#[test]
fn unsupported_version_is_a_protocol_error_not_a_parse_failure() {
    let frame = JsonValue::parse(&format!(
        "{{\"v\":{},\"id\":1,\"op\":\"ping\"}}",
        PROTOCOL_VERSION + 1
    ))
    .unwrap();
    let err = Request::from_frame(&frame).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Protocol);
    assert!(err.to_string().contains("version"), "{err}");
}

#[test]
fn unknown_fields_are_ignored_for_additive_evolution() {
    let frame = JsonValue::parse(
        "{\"v\":1,\"id\":8,\"op\":\"subscribe\",\"name\":\"e\",\"from_seq\":3,\"future_field\":true}",
    )
    .unwrap();
    let (id, request) = Request::from_frame(&frame).unwrap();
    assert_eq!(id, 8);
    match request {
        Request::Subscribe { name, from_seq } => {
            assert_eq!(name, "e");
            assert_eq!(from_seq, 3);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn unknown_op_and_unknown_push_are_protocol_errors() {
    let bad_op = JsonValue::parse("{\"v\":1,\"id\":1,\"op\":\"frobnicate\"}").unwrap();
    assert_eq!(
        Request::from_frame(&bad_op).unwrap_err().kind(),
        ErrorKind::Protocol
    );
    // `stats` was an op once; an old client sending it gets the same error.
    let stats = JsonValue::parse("{\"v\":1,\"id\":2,\"op\":\"stats\"}").unwrap();
    let err = Request::from_frame(&stats).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Protocol);
    assert!(err.to_string().contains("unknown op \"stats\""), "{err}");
    let bad_push = JsonValue::parse("{\"v\":1,\"sub\":1,\"push\":\"mystery\"}").unwrap();
    assert_eq!(
        Push::from_frame(bad_push).unwrap_err().kind(),
        ErrorKind::Protocol
    );
}

#[test]
fn reply_with_neither_ok_nor_err_is_rejected() {
    let frame = JsonValue::parse("{\"v\":1,\"id\":1}").unwrap();
    let err = Reply::from_frame(&frame, "ping").unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Protocol);
}

/// Frames no encoder of ours writes. The decode moves `data` out of the
/// frame before it reads the other keys, which must not change what a frame
/// with `data` first, last, unused or repeated means — nor which frames are
/// refused, and why.
#[test]
fn push_decode_reads_reordered_frames_and_refuses_hostile_ones() {
    let event = |sub, data: &str| Push::Event {
        sub,
        data: JsonValue::parse(data).unwrap(),
    };
    let accepted = [
        // `data` first, and nested with an extra key after it.
        (
            r#"{"data":{"ev":"snapshot","t":1.5,"snap":2,"events":40},"v":1,"sub":1,"push":"event"}"#,
            event(1, r#"{"ev":"snapshot","t":1.5,"snap":2,"events":40}"#),
        ),
        (
            r#"{"v":1,"sub":1,"push":"event","data":{"a":[1,{"b":null}],"c":"x"},"extra":true}"#,
            event(1, r#"{"a":[1,{"b":null}],"c":"x"}"#),
        ),
        // A `data` field on a push that has no use for it.
        (
            r#"{"v":1,"sub":5,"push":"end","data":{"seq":1}}"#,
            Push::End { sub: 5 },
        ),
        // Of repeated keys the first is read.
        (
            r#"{"data":1,"v":1,"sub":7,"push":"event","data":2}"#,
            event(7, "1"),
        ),
    ];
    for (text, want) in accepted {
        let got = Push::from_frame(JsonValue::parse(text).unwrap());
        assert_eq!(got.unwrap(), want, "{text}");
    }
    use ErrorKind::{Codec, Protocol};
    let refused = [
        // The first `v` is the one read.
        (
            r#"{"data":{"x":1},"v":2,"v":1,"sub":7,"push":"event"}"#,
            Protocol,
            "version",
        ),
        // No data, wrong version, no version, no sub, bad sub, unknown push,
        // no push, incomplete lag and status, not an object.
        (
            r#"{"v":1,"sub":1,"push":"event"}"#,
            Protocol,
            "missing data",
        ),
        (
            r#"{"v":2,"sub":1,"push":"event","data":{}}"#,
            Protocol,
            "version",
        ),
        (r#"{"sub":1,"push":"event","data":{}}"#, Protocol, "v"),
        (r#"{"v":1,"push":"event","data":{}}"#, Protocol, "sub"),
        (
            r#"{"v":1,"sub":"one","push":"event","data":{}}"#,
            Protocol,
            "sub",
        ),
        (
            r#"{"v":1,"sub":1,"push":"mystery","data":{}}"#,
            Protocol,
            "mystery",
        ),
        (r#"{"v":1,"sub":1,"data":{}}"#, Protocol, "push"),
        (r#"{"v":1,"sub":2,"push":"lag"}"#, Protocol, "dropped"),
        (
            r#"{"v":1,"sub":3,"push":"status"}"#,
            Protocol,
            "missing state",
        ),
        (
            r#"{"v":1,"sub":3,"push":"status","state":{"name":"e","status":"levitating"}}"#,
            Codec,
            "levitating",
        ),
        (r#"[1,2,3]"#, Protocol, "v"),
        (r#"null"#, Protocol, "v"),
    ];
    for (text, kind, why) in refused {
        let err = Push::from_frame(JsonValue::parse(text).unwrap()).unwrap_err();
        assert_eq!(err.kind(), kind, "{text}: {err}");
        assert!(err.to_string().contains(why), "{text}: {err}");
    }
}
