//! Property tests of the JSON codec: for any tree, what the writer renders
//! is a fixed point of parse → render, in both the compact and the pretty
//! form, and every string in it — keys included — comes back equal.
//!
//! Not `parse(render(v)) == v`: `Num(1.0)` renders as `1` and reads back as
//! `Int(1)`, and a non-finite `Num` renders as `null`. Both are the codec's
//! documented behaviour; the rendered text is what has to be stable.

use asha_metrics::JsonValue;
use proptest::prelude::*;

/// What strings are made of: plain ASCII, everything the writer escapes,
/// characters of every UTF-8 length, and nothing at all.
const PIECES: [&str; 16] = [
    "", "a", "key", " ", "\"", "\\", "/", "\n", "\r\t", "\u{0}", "\u{1f}", "\u{7f}", "ñ", "€",
    "😀", "\\u0041",
];

/// Words drawn by the strategy, consumed by the tree builder (the vendored
/// proptest has neither recursive nor string strategies).
struct Tape<'a> {
    words: &'a [u64],
    at: usize,
}

impl Tape<'_> {
    fn next(&mut self) -> u64 {
        let word = self.words[self.at % self.words.len()];
        self.at += 1;
        // Words repeat once the tape wraps; keep the repeats different.
        word.rotate_left((self.at / self.words.len()) as u32)
    }

    fn string(&mut self) -> String {
        let pieces = self.next() % 5;
        (0..pieces)
            .map(|_| PIECES[(self.next() % PIECES.len() as u64) as usize])
            .collect()
    }

    fn value(&mut self, depth: usize) -> JsonValue {
        let kinds = if depth >= 4 { 6 } else { 8 };
        match self.next() % kinds {
            0 => JsonValue::Null,
            1 => JsonValue::Bool(self.next() & 1 == 0),
            2 => JsonValue::Int(self.next() >> (self.next() % 64)),
            // Any bit pattern: subnormals, huge values, NaN and infinities.
            3 => JsonValue::Num(f64::from_bits(self.next())),
            4 => JsonValue::Num((self.next() % 2_000) as f64 / 8.0 - 100.0),
            5 => JsonValue::Str(self.string()),
            6 => JsonValue::Arr(
                (0..self.next() % 4)
                    .map(|_| self.value(depth + 1))
                    .collect(),
            ),
            _ => JsonValue::Obj(
                (0..self.next() % 4)
                    .map(|_| (self.string(), self.value(depth + 1)))
                    .collect(),
            ),
        }
    }
}

fn arb_tree() -> impl Strategy<Value = JsonValue> {
    prop::collection::vec(any::<u64>(), 1..64).prop_map(|words| {
        Tape {
            words: &words,
            at: 0,
        }
        .value(0)
    })
}

/// Every key and string value of the tree, in document order.
fn strings(value: &JsonValue, out: &mut Vec<String>) {
    match value {
        JsonValue::Str(s) => out.push(s.clone()),
        JsonValue::Arr(items) => items.iter().for_each(|item| strings(item, out)),
        JsonValue::Obj(fields) => {
            for (key, item) in fields {
                out.push(key.clone());
                strings(item, out);
            }
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn rendering_is_a_fixed_point_of_the_round_trip(tree in arb_tree()) {
        let compact = tree.render_compact();
        let pretty = tree.render();
        let from_compact = match JsonValue::parse(&compact) {
            Ok(value) => value,
            Err(e) => return Err(format!("{e} in {compact}")),
        };
        let from_pretty = match JsonValue::parse(&pretty) {
            Ok(value) => value,
            Err(e) => return Err(format!("{e} in {pretty}")),
        };
        prop_assert_eq!(from_compact.render_compact(), compact);
        prop_assert_eq!(from_pretty.render(), pretty);
        // Two spellings of one document.
        prop_assert_eq!(from_pretty.render_compact(), from_compact.render_compact());

        let (mut written, mut read) = (Vec::new(), Vec::new());
        strings(&tree, &mut written);
        strings(&from_compact, &mut read);
        prop_assert_eq!(written, read);

        let mut buffered = String::from("kept");
        tree.render_compact_into(&mut buffered);
        prop_assert_eq!(&buffered[4..], compact);
    }
}
