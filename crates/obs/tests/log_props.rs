//! Differential property test of the event-line decoder. `parse_jsonl`
//! decodes a line as it parses it, without building the line's tree; the
//! specification it must meet is the tree path — `JsonValue::parse`, then
//! `event_from_json` — for any line at all: keys shuffled, repeated (the
//! first wins), missing, mistyped or unknown, values nested, text cut short.
//! Equal means the same event or the same error, text and line number
//! included.

use asha_metrics::JsonValue;
use asha_obs::{
    encode_event, event_from_json, parse_jsonl, DropCause, Event, EventKind, IdleKind, LogError,
};
use proptest::prelude::*;

/// What the tree path makes of one line.
fn by_tree(line: &str) -> Result<Vec<Event>, LogError> {
    let fail = |msg: String| LogError { line: 1, msg };
    let value = JsonValue::parse(line).map_err(|e| fail(e.to_string()))?;
    event_from_json(&value)
        .map(|event| vec![event])
        .map_err(fail)
}

fn event(kind: u64, n: u64, x: f64) -> Event {
    let (trial, index, resource) = (n, (n % 7) as usize, 1.0 + (n % 5) as f64);
    let kind = match kind % 8 {
        0 => EventKind::Suggest {
            decision: [IdleKind::Wait, IdleKind::Finished][(n % 2) as usize],
        },
        1 => EventKind::Promote {
            trial,
            bracket: index,
            from: index,
            to: index + 1,
            resource,
        },
        2 => EventKind::GrowBottom {
            trial,
            bracket: index,
            resource,
        },
        3 => EventKind::JobStart {
            trial,
            bracket: index,
            rung: index,
            resource,
        },
        4 => EventKind::JobEnd {
            trial,
            rung: index,
            resource,
            loss: if n & 3 == 0 { f64::INFINITY } else { x },
        },
        5 => EventKind::Drop {
            trial,
            rung: index,
            cause: [DropCause::Dropped, DropCause::Timeout][(n % 2) as usize],
        },
        6 => EventKind::Retry { trial, rung: index },
        _ => EventKind::WorkerIdle { idle: index },
    };
    Event {
        seq: n,
        time: x,
        kind,
    }
}

/// Keys of the schema, and some that are not.
const KEYS: [&str; 16] = [
    "seq", "t", "ev", "trial", "rung", "resource", "bracket", "loss", "from", "to", "decision",
    "cause", "idle", "extra", "", "Seq",
];

/// A replacement value: every JSON type, right and wrong names included.
fn value(word: u64) -> JsonValue {
    let s = |text: &str| JsonValue::Str(text.to_owned());
    match word % 16 {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(true),
        2 => JsonValue::Int(word >> 8),
        3 => JsonValue::Num(-1.0),
        4 => JsonValue::Num(2.5),
        5 => JsonValue::Num(3.0),
        6 => s("job_end"),
        7 => s("retry"),
        8 => s("suggest"),
        9 => s("bogus"),
        10 => s("wait"),
        11 => s("timeout"),
        12 => s("a\"b\\c\n€"),
        13 => JsonValue::Arr(vec![JsonValue::Int(1), s("x")]),
        14 => JsonValue::obj([("seq", JsonValue::Int(9))]),
        _ => JsonValue::Int(u64::MAX),
    }
}

/// A valid event's line, then `edits` applied to its fields, then maybe the
/// text cut or padded.
fn arb_line() -> impl Strategy<Value = String> {
    (
        (any::<u64>(), 0u64..1_000, -4.0f64..4.0),
        prop::collection::vec((0u8..6, any::<u64>(), any::<u64>()), 0..5),
        any::<u64>(),
    )
        .prop_map(|((kind, n, x), edits, text_edit)| {
            let line = encode_event(&event(kind, n, x));
            let Ok(JsonValue::Obj(mut fields)) = JsonValue::parse(&line) else {
                panic!("an encoded event is an object: {line}");
            };
            for (edit, a, b) in edits {
                let at = |word: u64, len: usize| (word % len.max(1) as u64) as usize;
                let key = KEYS[at(b >> 32, KEYS.len())].to_owned();
                let len = fields.len();
                match edit {
                    // Missing.
                    0 if len > 0 => drop(fields.remove(at(a, len))),
                    // Mistyped in place.
                    1 if len > 0 => fields[at(a, len)].1 = value(b),
                    // Shuffled.
                    2 if len > 0 => fields.swap(at(a, len), at(b, len)),
                    // Repeated, before or after the original.
                    3 if len > 0 => {
                        let (key, _) = fields[at(a, len)].clone();
                        fields.insert(at(b, len + 1), (key, value(b >> 8)));
                    }
                    // Any key, any value, anywhere.
                    _ => fields.insert(at(a, len + 1), (key, value(b))),
                }
            }
            let mut line = JsonValue::Obj(fields).render_compact();
            match text_edit % 8 {
                0 => {
                    let mut cut = (text_edit >> 8) as usize % (line.len() + 1);
                    while !line.is_char_boundary(cut) {
                        cut -= 1;
                    }
                    line.truncate(cut);
                }
                1 => line = format!("  {line} \t"),
                2 => line.push_str(" x"),
                3 => line = format!("[{line}]"),
                _ => {}
            }
            line
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn the_tree_free_decoder_is_the_tree_decoder(line in arb_line()) {
        if line.trim().is_empty() {
            // No line at all: skipped, not decoded.
            prop_assert_eq!(parse_jsonl(&line), Ok(Vec::new()));
        } else {
            prop_assert_eq!(parse_jsonl(&line), by_tree(&line), "{}", line);
        }
    }
}

#[test]
fn the_generator_reaches_both_outcomes_and_every_kind_of_error() {
    use proptest::strategy::Strategy as _;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(24);
    let strategy = arb_line();
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..4096 {
        let line = strategy.generate(&mut rng);
        seen.insert(match by_tree(&line) {
            Ok(_) => "ok",
            Err(e) if e.msg.starts_with("json parse error") => "json",
            Err(e) if e.msg.starts_with("missing field") => "missing",
            Err(e) if e.msg.contains("is not a") => "mistyped",
            Err(e) if e.msg.starts_with("unknown") => "unknown",
            Err(e) => panic!("an error of no known kind: {e}"),
        });
    }
    assert_eq!(
        seen.into_iter().collect::<Vec<_>>(),
        ["json", "missing", "mistyped", "ok", "unknown"]
    );
}
