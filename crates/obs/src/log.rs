//! The append-only JSONL event log: one compact JSON object per line, in
//! `seq` order, encoding exactly the [`Event`] stream a recorder saw.
//!
//! # Schema
//!
//! Every line carries `seq` (monotone, 0-based), `t` (timestamp on the
//! driving layer's clock), and `ev` (the kind name), followed by the kind's
//! fields in a fixed order:
//!
//! | `ev` | fields after `seq,t,ev` |
//! |---|---|
//! | `suggest` | `decision` (`"wait"` or `"finished"`) |
//! | `promote` | `trial, bracket, from, to, resource` |
//! | `grow_bottom` | `trial, bracket, resource` |
//! | `job_start` | `trial, bracket, rung, resource` |
//! | `job_end` | `trial, rung, resource, loss` (`null` = infinite loss) |
//! | `drop` | `trial, rung, cause` (`"drop"` or `"timeout"`) |
//! | `retry` | `trial, rung` |
//! | `worker_idle` | `idle` |
//!
//! The field order is part of the format: encoding is deterministic, so the
//! same seed produces a byte-identical log, and two logs can be diffed
//! line-by-line. Floats render in Rust's shortest-roundtrip `{}` form.
//! Decoding is by name, so extra fields added by future versions are
//! ignored rather than fatal.

use std::fmt;

use asha_core::telemetry::{DropCause, Event, EventKind, IdleKind};
use asha_metrics::{push_json_f64, push_json_str, push_json_u64, JsonValue};

/// Encode one event as a compact single-line JSON object (no trailing
/// newline).
pub fn encode_event(event: &Event) -> String {
    // The longest line of a real run is under 128 bytes: one allocation.
    let mut out = String::with_capacity(128);
    encode_event_into(&mut out, event);
    out
}

/// Encode one event as compact JSON appended to `out` (no trailing
/// newline): the schema's keys as literals in their fixed order, each value
/// through the writer [`JsonValue`] renders that kind of leaf with. The one
/// encoder — every log line, WAL dump and pushed event body is written
/// here; callers on hot paths reuse one buffer across many events.
pub fn encode_event_into(out: &mut String, event: &Event) {
    fn int(out: &mut String, key: &str, v: u64) {
        out.push_str(key);
        push_json_u64(out, v);
    }
    // Non-finite numbers (the loss of a poisoned trial) encode as `null`.
    fn num(out: &mut String, key: &str, v: f64) {
        out.push_str(key);
        push_json_f64(out, v);
    }
    fn name(out: &mut String, key: &str, v: &str) {
        out.push_str(key);
        push_json_str(out, v);
    }
    int(out, "{\"seq\":", event.seq);
    num(out, ",\"t\":", event.time);
    name(out, ",\"ev\":", event.kind.name());
    match event.kind {
        EventKind::Suggest { decision } => name(out, ",\"decision\":", decision.name()),
        EventKind::Promote {
            trial,
            bracket,
            from,
            to,
            resource,
        } => {
            int(out, ",\"trial\":", trial);
            int(out, ",\"bracket\":", bracket as u64);
            int(out, ",\"from\":", from as u64);
            int(out, ",\"to\":", to as u64);
            num(out, ",\"resource\":", resource);
        }
        EventKind::GrowBottom {
            trial,
            bracket,
            resource,
        } => {
            int(out, ",\"trial\":", trial);
            int(out, ",\"bracket\":", bracket as u64);
            num(out, ",\"resource\":", resource);
        }
        EventKind::JobStart {
            trial,
            bracket,
            rung,
            resource,
        } => {
            int(out, ",\"trial\":", trial);
            int(out, ",\"bracket\":", bracket as u64);
            int(out, ",\"rung\":", rung as u64);
            num(out, ",\"resource\":", resource);
        }
        EventKind::JobEnd {
            trial,
            rung,
            resource,
            loss,
        } => {
            int(out, ",\"trial\":", trial);
            int(out, ",\"rung\":", rung as u64);
            num(out, ",\"resource\":", resource);
            num(out, ",\"loss\":", loss);
        }
        EventKind::Drop { trial, rung, cause } => {
            int(out, ",\"trial\":", trial);
            int(out, ",\"rung\":", rung as u64);
            name(out, ",\"cause\":", cause.name());
        }
        EventKind::Retry { trial, rung } => {
            int(out, ",\"trial\":", trial);
            int(out, ",\"rung\":", rung as u64);
        }
        EventKind::WorkerIdle { idle } => int(out, ",\"idle\":", idle as u64),
    }
    out.push('}');
}

/// Encode a slice of events as a JSONL document (one line per event,
/// trailing newline after the last).
pub fn encode_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for event in events {
        encode_event_into(&mut out, event);
        out.push('\n');
    }
    out
}

/// Error decoding a JSONL event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event log line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for LogError {}

/// Decode a JSONL document (as produced by [`encode_jsonl`]) back into
/// events. Blank lines are skipped; `seq` order is *not* enforced here (the
/// metrics registry and report tolerate arbitrary streams), only per-line
/// validity.
///
/// # Errors
///
/// Returns [`LogError`] with a 1-based line number for unparseable JSON,
/// unknown `ev` kinds, or missing/mistyped fields.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, LogError> {
    let mut events = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(parse_line(line, idx + 1)?);
    }
    Ok(events)
}

/// Every key an event line can carry, all kinds together.
const KEYS: [&str; 13] = [
    "seq", "t", "ev", "trial", "rung", "resource", "bracket", "loss", "from", "to", "decision",
    "cause", "idle",
];

fn key_index(key: &str) -> Option<usize> {
    KEYS.iter().position(|k| *k == key)
}

/// One line, decoded as it is parsed: the fields go straight into a slot
/// per known key, and no tree of the line is built. `first_seen[i]` is what
/// `JsonValue::get(KEYS[i])` would find in that tree — the first value
/// under the key — so the result, error text included, is
/// `JsonValue::parse(line)` then [`event_from_json`].
fn parse_line(line: &str, lineno: usize) -> Result<Event, LogError> {
    let fail = |msg: String| LogError { line: lineno, msg };
    let mut first_seen: [Option<JsonValue>; KEYS.len()] = Default::default();
    JsonValue::parse_fields(line, |key, value| {
        if let Some(i) = key_index(key) {
            first_seen[i].get_or_insert(value);
        }
    })
    .map_err(|e| fail(e.to_string()))?;
    decode(|key| first_seen[key_index(key)?].as_ref()).map_err(fail)
}

/// Decode an event from the [`JsonValue`] form of its log line — for
/// callers that already hold the tree (a pushed frame's `data`, a WAL line
/// parsed to look at its `ev`). Fields are found by name, the first of a
/// repeated key wins, unknown keys are ignored.
///
/// # Errors
///
/// The message [`parse_jsonl`] puts in its [`LogError`]: an unknown `ev`
/// kind, or a missing or mistyped field.
pub fn event_from_json(value: &JsonValue) -> Result<Event, String> {
    decode(|key| value.get(key))
}

/// The one field-extraction body: `get` looks a key up in a tree or in
/// [`parse_line`]'s slots.
fn decode<'a>(get: impl Fn(&str) -> Option<&'a JsonValue>) -> Result<Event, String> {
    let want = |key: &str| get(key).ok_or_else(|| format!("missing field `{key}`"));
    let want_u64 = |key: &str| {
        want(key)?
            .as_u64()
            .ok_or_else(|| format!("field `{key}` is not an integer"))
    };
    let want_usize = |key: &str| want_u64(key).map(|v| v as usize);
    let want_f64 = |key: &str| {
        want(key)?
            .as_f64()
            .ok_or_else(|| format!("field `{key}` is not a number"))
    };
    let want_str = |key: &str| {
        want(key)?
            .as_str()
            .ok_or_else(|| format!("field `{key}` is not a string"))
    };

    let seq = want_u64("seq")?;
    let time = want_f64("t")?;
    let kind = match want_str("ev")? {
        "suggest" => EventKind::Suggest {
            decision: match want_str("decision")? {
                "wait" => IdleKind::Wait,
                "finished" => IdleKind::Finished,
                other => return Err(format!("unknown decision `{other}`")),
            },
        },
        "promote" => EventKind::Promote {
            trial: want_u64("trial")?,
            bracket: want_usize("bracket")?,
            from: want_usize("from")?,
            to: want_usize("to")?,
            resource: want_f64("resource")?,
        },
        "grow_bottom" => EventKind::GrowBottom {
            trial: want_u64("trial")?,
            bracket: want_usize("bracket")?,
            resource: want_f64("resource")?,
        },
        "job_start" => EventKind::JobStart {
            trial: want_u64("trial")?,
            bracket: want_usize("bracket")?,
            rung: want_usize("rung")?,
            resource: want_f64("resource")?,
        },
        "job_end" => EventKind::JobEnd {
            trial: want_u64("trial")?,
            rung: want_usize("rung")?,
            resource: want_f64("resource")?,
            // `null` is how non-finite losses were encoded.
            loss: if want("loss")?.is_null() {
                f64::INFINITY
            } else {
                want_f64("loss")?
            },
        },
        "drop" => EventKind::Drop {
            trial: want_u64("trial")?,
            rung: want_usize("rung")?,
            cause: match want_str("cause")? {
                "drop" => DropCause::Dropped,
                "timeout" => DropCause::Timeout,
                other => return Err(format!("unknown drop cause `{other}`")),
            },
        },
        "retry" => EventKind::Retry {
            trial: want_u64("trial")?,
            rung: want_usize("rung")?,
        },
        "worker_idle" => EventKind::WorkerIdle {
            idle: want_usize("idle")?,
        },
        other => return Err(format!("unknown event kind `{other}`")),
    };
    Ok(Event { seq, time, kind })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tree encoder [`encode_event_into`] replaced, kept as its oracle: the
    /// [`JsonValue`] form of an event, with the schema's field order.
    fn event_to_json(event: &Event) -> JsonValue {
        let mut fields = vec![
            ("seq".to_owned(), JsonValue::Int(event.seq)),
            ("t".to_owned(), JsonValue::Num(event.time)),
            (
                "ev".to_owned(),
                JsonValue::Str(event.kind.name().to_owned()),
            ),
        ];
        let mut int = |name: &str, v: u64| fields.push((name.to_owned(), JsonValue::Int(v)));
        match event.kind {
            EventKind::Suggest { decision } => fields.push((
                "decision".to_owned(),
                JsonValue::Str(decision.name().to_owned()),
            )),
            EventKind::Promote {
                trial,
                bracket,
                from,
                to,
                resource,
            } => {
                int("trial", trial);
                int("bracket", bracket as u64);
                int("from", from as u64);
                int("to", to as u64);
                fields.push(("resource".to_owned(), JsonValue::Num(resource)));
            }
            EventKind::GrowBottom {
                trial,
                bracket,
                resource,
            } => {
                int("trial", trial);
                int("bracket", bracket as u64);
                fields.push(("resource".to_owned(), JsonValue::Num(resource)));
            }
            EventKind::JobStart {
                trial,
                bracket,
                rung,
                resource,
            } => {
                int("trial", trial);
                int("bracket", bracket as u64);
                int("rung", rung as u64);
                fields.push(("resource".to_owned(), JsonValue::Num(resource)));
            }
            EventKind::JobEnd {
                trial,
                rung,
                resource,
                loss,
            } => {
                int("trial", trial);
                int("rung", rung as u64);
                fields.push(("resource".to_owned(), JsonValue::Num(resource)));
                // Non-finite losses (poisoned trials) encode as JSON null.
                fields.push(("loss".to_owned(), JsonValue::Num(loss)));
            }
            EventKind::Drop { trial, rung, cause } => {
                int("trial", trial);
                int("rung", rung as u64);
                fields.push(("cause".to_owned(), JsonValue::Str(cause.name().to_owned())));
            }
            EventKind::Retry { trial, rung } => {
                int("trial", trial);
                int("rung", rung as u64);
            }
            EventKind::WorkerIdle { idle } => int("idle", idle as u64),
        }
        JsonValue::Obj(fields)
    }

    /// Every kind, with every `DropCause` and `IdleKind`, around the given
    /// numbers.
    fn every_kind(trial: u64, index: usize, resource: f64, loss: f64) -> Vec<EventKind> {
        let (bracket, rung, from, to, idle) = (index, index, index, index, index);
        vec![
            EventKind::Suggest {
                decision: IdleKind::Wait,
            },
            EventKind::Suggest {
                decision: IdleKind::Finished,
            },
            EventKind::Promote {
                trial,
                bracket,
                from,
                to,
                resource,
            },
            EventKind::GrowBottom {
                trial,
                bracket,
                resource,
            },
            EventKind::JobStart {
                trial,
                bracket,
                rung,
                resource,
            },
            EventKind::JobEnd {
                trial,
                rung,
                resource,
                loss,
            },
            EventKind::Drop {
                trial,
                rung,
                cause: DropCause::Dropped,
            },
            EventKind::Drop {
                trial,
                rung,
                cause: DropCause::Timeout,
            },
            EventKind::Retry { trial, rung },
            EventKind::WorkerIdle { idle },
        ]
    }

    #[test]
    fn the_direct_encoder_writes_the_trees_bytes_at_every_edge() {
        let floats = [
            0.0,
            -0.0,
            1.0,
            0.421875,
            -2.5,
            1e-310,
            1e300,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::EPSILON,
            1.0 / 3.0,
        ];
        let losses = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let mut checked = 0;
        for (seq, trial, index) in [
            (0, 0, 0),
            (7, 42, 3),
            (u64::MAX, u64::MAX, usize::MAX),
            (u64::MAX - 1, 1 << 53, 1 << 31),
        ] {
            for &time in &floats {
                for &resource in &floats {
                    for &loss in floats.iter().chain(&losses) {
                        for kind in every_kind(trial, index, resource, loss) {
                            let event = Event { seq, time, kind };
                            let line = encode_event(&event);
                            assert_eq!(line, event_to_json(&event).render_compact());
                            let mut appended = String::from("before");
                            encode_event_into(&mut appended, &event);
                            assert_eq!(appended, format!("before{line}"));

                            // What was written reads back as what was meant:
                            // exactly, sign of zero included, except that a
                            // non-finite loss went out as `null` and comes
                            // back infinite.
                            let mut want = event;
                            if let EventKind::JobEnd { loss, .. } = &mut want.kind {
                                if !loss.is_finite() {
                                    *loss = f64::INFINITY;
                                }
                            }
                            let back = parse_jsonl(&line).unwrap();
                            assert_eq!(back, [want], "{line}");
                            assert_eq!(encode_event(&back[0]), encode_event(&want), "{line}");
                            assert_eq!(
                                event_from_json(&JsonValue::parse(&line).unwrap()),
                                Ok(want)
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(checked, 4 * 11 * 11 * 14 * 10);
    }

    #[test]
    fn a_non_finite_time_or_resource_encodes_as_null_like_the_tree() {
        // Nothing records one, but the encoder must not invent a token the
        // tree would not have written; such a line does not read back.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for (time, resource) in [(bad, 1.0), (1.0, bad)] {
                for kind in every_kind(1, 1, resource, 0.5) {
                    let event = Event { seq: 1, time, kind };
                    let line = encode_event(&event);
                    assert_eq!(line, event_to_json(&event).render_compact());
                    if line.contains("null") {
                        let err = parse_jsonl(&line).unwrap_err();
                        assert!(err.msg.contains("is not a number"), "{err}");
                    }
                }
            }
        }
    }

    fn sample_events() -> Vec<Event> {
        let kinds = [
            EventKind::GrowBottom {
                trial: 0,
                bracket: 0,
                resource: 1.0,
            },
            EventKind::JobStart {
                trial: 0,
                bracket: 0,
                rung: 0,
                resource: 1.0,
            },
            EventKind::Suggest {
                decision: IdleKind::Wait,
            },
            EventKind::WorkerIdle { idle: 24 },
            EventKind::Drop {
                trial: 0,
                rung: 0,
                cause: DropCause::Dropped,
            },
            EventKind::Retry { trial: 0, rung: 0 },
            EventKind::JobStart {
                trial: 0,
                bracket: 0,
                rung: 0,
                resource: 1.0,
            },
            EventKind::JobEnd {
                trial: 0,
                rung: 0,
                resource: 1.0,
                loss: 0.421875,
            },
            EventKind::Promote {
                trial: 0,
                bracket: 0,
                from: 0,
                to: 1,
                resource: 4.0,
            },
            EventKind::JobEnd {
                trial: 0,
                rung: 1,
                resource: 4.0,
                loss: f64::INFINITY,
            },
            EventKind::Suggest {
                decision: IdleKind::Finished,
            },
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| Event {
                seq: i as u64,
                time: i as f64 * 0.5,
                kind,
            })
            .collect()
    }

    #[test]
    fn every_kind_round_trips() {
        let events = sample_events();
        let text = encode_jsonl(&events);
        let back = parse_jsonl(&text).unwrap();
        // Infinite loss encodes as null and decodes as infinity; everything
        // else must round-trip exactly.
        assert_eq!(back, events);
    }

    #[test]
    fn lines_use_the_documented_field_order() {
        let line = encode_event(&Event {
            seq: 8,
            time: 4.0,
            kind: EventKind::Promote {
                trial: 0,
                bracket: 0,
                from: 0,
                to: 1,
                resource: 4.0,
            },
        });
        assert_eq!(
            line,
            r#"{"seq":8,"t":4,"ev":"promote","trial":0,"bracket":0,"from":0,"to":1,"resource":4}"#
        );
    }

    #[test]
    fn infinite_loss_encodes_as_null() {
        let line = encode_event(&Event {
            seq: 0,
            time: 0.0,
            kind: EventKind::JobEnd {
                trial: 3,
                rung: 1,
                resource: 4.0,
                loss: f64::INFINITY,
            },
        });
        assert!(line.ends_with(r#""loss":null}"#), "{line}");
    }

    #[test]
    fn blank_lines_are_skipped() {
        let events = sample_events();
        let text = format!("\n{}\n\n", encode_jsonl(&events));
        assert_eq!(parse_jsonl(&text).unwrap(), events);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let good = encode_event(&Event {
            seq: 0,
            time: 0.0,
            kind: EventKind::WorkerIdle { idle: 1 },
        });
        for (text, needle) in [
            (format!("{good}\nnot json"), "line 2"),
            (
                format!("{good}\n{{\"seq\":1,\"t\":0,\"ev\":\"bogus\"}}"),
                "unknown event kind",
            ),
            (
                format!("{good}\n{{\"seq\":1,\"t\":0,\"ev\":\"retry\",\"trial\":0}}"),
                "missing field `rung`",
            ),
            (
                "{\"seq\":-1,\"t\":0,\"ev\":\"worker_idle\",\"idle\":0}".to_owned(),
                "not an integer",
            ),
        ] {
            let err = parse_jsonl(&text).unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
