use std::borrow::Cow;
use std::error::Error;
use std::fmt;
use std::io::Write as _;
use std::path::Path;

/// Error writing experiment output.
#[derive(Debug)]
pub struct CsvError {
    path: String,
    source: std::io::Error,
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "failed to write csv `{}`: {}", self.path, self.source)
    }
}

impl Error for CsvError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.source)
    }
}

/// Write a table of numbers to a CSV file with the given header. The parent
/// directory is created if needed. Values are written with full `f64`
/// precision; NaNs become empty cells.
///
/// # Errors
///
/// Returns [`CsvError`] on any I/O failure.
///
/// # Examples
///
/// ```no_run
/// asha_metrics::write_csv(
///     "results/fig3.csv",
///     &["time", "mean", "q25", "q75"],
///     &[vec![0.0, 0.9, 0.85, 0.95]],
/// )?;
/// # Ok::<(), asha_metrics::CsvError>(())
/// ```
pub fn write_csv(
    path: impl AsRef<Path>,
    header: &[&str],
    rows: &[Vec<f64>],
) -> Result<(), CsvError> {
    let path = path.as_ref();
    let wrap = |source: std::io::Error| CsvError {
        path: path.display().to_string(),
        source,
    };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(wrap)?;
        }
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(wrap)?);
    writeln!(out, "{}", header.join(",")).map_err(wrap)?;
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .map(|v| {
                if v.is_nan() {
                    String::new()
                } else {
                    format!("{v}")
                }
            })
            .collect();
        writeln!(out, "{}", cells.join(",")).map_err(wrap)?;
    }
    out.flush().map_err(wrap)
}

/// A JSON value for small structured reports (perf baselines, run
/// summaries, telemetry event logs). The vendored `serde` stub has no
/// serializer, so exports that need machine-readable output build one of
/// these and render it directly; [`JsonValue::parse`] is the matching
/// reader, used by tools that replay previously written reports and logs.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// The JSON `null` literal.
    Null,
    /// A finite number (NaN/inf render as `null`, which JSON requires).
    Num(f64),
    /// An integer, rendered without a decimal point.
    Int(u64),
    /// A string (escaped on render).
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An ordered array.
    Arr(Vec<JsonValue>),
    /// An object; insertion order is preserved for stable diffs.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Deepest nesting of arrays and objects [`JsonValue::parse`] follows;
    /// one level more is a parse error. The number
    /// `asha_store::binary::MAX_DEPTH` uses for the binary form of the same
    /// trees, so a document either reader accepts, the other can hold.
    pub const MAX_DEPTH: usize = 128;

    /// Convenience constructor for an object.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, JsonValue)>) -> Self {
        JsonValue::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Render as pretty-printed JSON (two-space indent, trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out, 0);
        out.push('\n');
        out
    }

    /// Render as compact single-line JSON (no whitespace, no trailing
    /// newline) — the format of JSONL event logs, where one value per line
    /// keeps logs diffable and streamable.
    pub fn render_compact(&self) -> String {
        // An event line or a small frame in one allocation, not six.
        let mut out = String::with_capacity(128);
        self.write_compact(&mut out);
        out
    }

    /// Like [`JsonValue::render_compact`], but appends to an existing
    /// buffer — hot paths that encode many values (JSONL writers, the WAL)
    /// reuse one allocation instead of building a `String` per value.
    pub fn render_compact_into(&self, out: &mut String) {
        self.write_compact(out);
    }

    /// The value under `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view: `Num` or `Int` as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            JsonValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Integer view: `Int`, or a `Num` that is exactly a non-negative
    /// integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(v) => Some(*v),
            JsonValue::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is the `null` literal.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// Parse a JSON document.
    ///
    /// Accepts exactly what [`JsonValue::render`] and
    /// [`JsonValue::render_compact`] emit (standard JSON): objects, arrays,
    /// strings with escapes, numbers, booleans, and `null`. Non-negative
    /// integer literals parse as [`JsonValue::Int`]; everything else numeric
    /// parses as [`JsonValue::Num`].
    ///
    /// # Errors
    ///
    /// Returns [`JsonParseError`] (with a byte offset) on malformed input,
    /// trailing garbage, a number literal no finite `f64` holds, or
    /// containers nested deeper than [`JsonValue::MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<JsonValue, JsonParseError> {
        let mut p = Parser::new(text);
        p.skip_ws();
        let value = p.value()?;
        p.finish()?;
        Ok(value)
    }

    /// Parse a JSON document as [`JsonValue::parse`] does — same grammar,
    /// same errors at the same offsets — but, when it is an object, hand
    /// each top-level field to `visit` in document order instead of
    /// collecting them: the key borrowed, the value owned. A reader that
    /// wants a few scalars out of a flat line (an event log line) saves the
    /// object's `Vec` and a `String` per key. A document that is not an
    /// object is checked like any other and visits nothing.
    ///
    /// # Errors
    ///
    /// Exactly those of [`JsonValue::parse`]; fields before the error have
    /// been visited by then.
    pub fn parse_fields(
        text: &str,
        visit: impl FnMut(&str, JsonValue),
    ) -> Result<(), JsonParseError> {
        let mut p = Parser::new(text);
        p.skip_ws();
        if p.peek() == Some(b'{') {
            p.nested(|p| p.fields(visit))?;
        } else {
            p.value()?;
        }
        p.finish()
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Num(v) => push_json_f64(out, *v),
            JsonValue::Int(v) => push_json_u64(out, *v),
            JsonValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            JsonValue::Str(s) => push_json_str(out, s),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_str(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_into(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Num(v) => push_json_f64(out, *v),
            JsonValue::Int(v) => push_json_u64(out, *v),
            JsonValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            JsonValue::Str(s) => push_json_str(out, s),
            JsonValue::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write_into(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    push_json_str(out, key);
                    out.push_str(": ");
                    value.write_into(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

/// Append `s` to `out` as a JSON string literal (quoted and escaped): the
/// bytes [`JsonValue::Str`] renders as. Runs that need no escaping are
/// copied whole, so a plain key or name costs one `push_str`. Encoders that
/// know their shape ([`JsonValue`]'s renderers, the event log) write their
/// leaves through these three functions and so cannot disagree on a byte.
pub fn push_json_str(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    out.push('"');
    // Start of the run not yet copied. Every byte that ends a run is ASCII,
    // so `run` and `i` are always character boundaries.
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        // `None`: a control character with no short form.
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[run..i]);
        match escape {
            Some(escape) => out.push_str(escape),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Append `v` in decimal: the bytes [`JsonValue::Int`] renders as (what
/// `{v}` formats, without the `fmt` machinery).
pub fn push_json_u64(out: &mut String, mut v: u64) {
    // u64::MAX has 20 digits.
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ascii digits"));
}

/// Append `v` in Rust's shortest round-trip `{}` form, or `null` when it is
/// not finite (JSON has no NaN or infinity): the bytes [`JsonValue::Num`]
/// renders as.
pub fn push_json_f64(out: &mut String, v: f64) {
    use std::fmt::Write as _;
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Error parsing a JSON document with [`JsonValue::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the failure in the input.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl Error for JsonParseError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, msg: impl Into<String>) -> JsonParseError {
        JsonParseError {
            pos: self.pos,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{text}`")))
        }
    }

    /// Only whitespace may follow the document's value.
    fn finish(&mut self) -> Result<(), JsonParseError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(())
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?.into_owned())),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parse a container one level down, refusing to go below
    /// [`JsonValue::MAX_DEPTH`]: `value` recurses once per level, and a
    /// frame of a million `[` must cost its sender an error, not the
    /// parsing thread its stack.
    fn nested<T>(
        &mut self,
        container: impl FnOnce(&mut Self) -> Result<T, JsonParseError>,
    ) -> Result<T, JsonParseError> {
        if self.depth == JsonValue::MAX_DEPTH {
            return Err(self.err(format!(
                "nesting deeper than {} levels",
                JsonValue::MAX_DEPTH
            )));
        }
        self.depth += 1;
        let value = container(self)?;
        self.depth -= 1;
        Ok(value)
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        let mut fields = Vec::new();
        self.fields(|key, value| {
            if fields.is_empty() {
                // Room for an event line or a protocol frame in one go.
                fields.reserve(8);
            }
            fields.push((key.to_owned(), value));
        })?;
        Ok(JsonValue::Obj(fields))
    }

    /// The fields of the object whose `{` is next, each handed to `visit`.
    fn fields(&mut self, mut visit: impl FnMut(&str, JsonValue)) -> Result<(), JsonParseError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            visit(&key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(Vec::new()));
        }
        let mut items = Vec::with_capacity(4);
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    /// A string literal: borrowed from the input when it holds no escape
    /// (every key and name this repo writes), built otherwise.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonParseError> {
        self.expect(b'"')?;
        let first = self.pos;
        let mut out = String::new();
        loop {
            // Everything up to the next quote or backslash is taken as one
            // run. The input is a `str`, so multi-byte characters inside the
            // run are already valid, and both stop bytes are ASCII, so the
            // run's ends are character boundaries.
            let run = self.pos;
            let Some(len) = self.bytes[run..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            let plain = &self.text[run..run + len];
            self.pos = run + len + 1;
            if self.bytes[run + len] == b'"' {
                if run == first {
                    return Ok(Cow::Borrowed(plain));
                }
                out.push_str(plain);
                return Ok(Cow::Owned(out));
            }
            out.push_str(plain);
            let Some(esc) = self.peek() else {
                return Err(self.err("unterminated escape"));
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let mut code = self.hex4()?;
                    // A high surrogate followed by an escaped low one is one
                    // character beyond the BMP; a surrogate on its own is
                    // not a character and becomes U+FFFD.
                    if (0xD800..0xDC00).contains(&code)
                        && self.bytes[self.pos..].starts_with(b"\\u")
                    {
                        let second = self.pos;
                        self.pos += 2;
                        let low = self.hex4()?;
                        if (0xDC00..0xE000).contains(&low) {
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        } else {
                            self.pos = second;
                        }
                    }
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                _ => return Err(self.err("unknown escape")),
            }
        }
    }

    /// The four hex digits of a `\u` escape (exactly four, no sign).
    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("bad \\u escape"))?;
        let mut code = 0;
        for &d in digits {
            let d = (d as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad \\u escape"))?;
            code = code * 16 + d;
        }
        self.pos += 4;
        Ok(code)
    }

    /// Skip a run of ASCII digits; returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// The JSON number grammar, `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE]
    /// [+-]? [0-9]+)?`, in one scan that also accumulates the value of a
    /// plain non-negative integer — the common token of logs and frames.
    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let int_start = self.pos;
        // `None` once the digits no longer fit a u64.
        let mut int = Some(0u64);
        while let Some(d @ b'0'..=b'9') = self.peek() {
            int = int
                .and_then(|n| n.checked_mul(10))
                .and_then(|n| n.checked_add(u64::from(d - b'0')));
            self.pos += 1;
        }
        let int_len = self.pos - int_start;
        let mut valid = int_len == 1 || (int_len > 1 && self.bytes[int_start] != b'0');
        let mut integral = true;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            integral = false;
            valid &= self.digits() > 0;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            integral = false;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            valid &= self.digits() > 0;
        }
        if valid && integral && !negative {
            if let Some(n) = int {
                return Ok(JsonValue::Int(n));
            }
        }
        let token = &self.text[start..self.pos];
        // A literal too large for an `f64` would read as infinity, which
        // renders as `null`: refused, so that what parses also round-trips.
        match token.parse::<f64>() {
            Ok(v) if valid && v.is_finite() => Ok(JsonValue::Num(v)),
            _ => Err(self.err(format!("bad number `{token}`"))),
        }
    }
}

/// Write a [`JsonValue`] to a file, creating parent directories as needed.
///
/// # Errors
///
/// Returns [`CsvError`] (the crate's generic export error) on I/O failure.
pub fn write_json(path: impl AsRef<Path>, value: &JsonValue) -> Result<(), CsvError> {
    let path = path.as_ref();
    let wrap = |source: std::io::Error| CsvError {
        path: path.display().to_string(),
        source,
    };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(wrap)?;
        }
    }
    std::fs::write(path, value.render()).map_err(wrap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_header_and_rows() {
        let dir = std::env::temp_dir().join("asha-metrics-test");
        let path = dir.join("out.csv");
        write_csv(&path, &["a", "b"], &[vec![1.0, 2.5], vec![f64::NAN, 4.0]]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "a,b");
        assert_eq!(lines[1], "1,2.5");
        assert_eq!(lines[2], ",4");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_mentions_path() {
        // Route the path through an existing *file* so directory creation
        // must fail on any platform.
        let dir = std::env::temp_dir().join("asha-metrics-err-test");
        std::fs::create_dir_all(&dir).unwrap();
        let blocker = dir.join("blocker");
        std::fs::write(&blocker, b"not a dir").unwrap();
        let err = write_csv(blocker.join("x.csv"), &["a"], &[]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("x.csv"), "{msg}");
        assert!(err.source().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_renders_all_value_kinds() {
        let v = JsonValue::obj([
            ("num", JsonValue::Num(1.5)),
            ("int", JsonValue::Int(42)),
            ("nan", JsonValue::Num(f64::NAN)),
            ("flag", JsonValue::Bool(true)),
            ("text", JsonValue::Str("a\"b\n".to_owned())),
            (
                "arr",
                JsonValue::Arr(vec![JsonValue::Int(1), JsonValue::Int(2)]),
            ),
            ("empty_arr", JsonValue::Arr(vec![])),
            ("empty_obj", JsonValue::Obj(vec![])),
        ]);
        let text = v.render();
        assert!(text.contains("\"num\": 1.5"), "{text}");
        assert!(text.contains("\"int\": 42"), "{text}");
        assert!(text.contains("\"nan\": null"), "{text}");
        assert!(text.contains("\"flag\": true"), "{text}");
        assert!(text.contains("\\\"b\\n"), "{text}");
        assert!(text.contains("\"empty_arr\": []"), "{text}");
        assert!(text.contains("\"empty_obj\": {}"), "{text}");
        assert!(text.ends_with("}\n"), "{text}");
    }

    #[test]
    fn compact_render_is_single_line() {
        let v = JsonValue::obj([
            ("seq", JsonValue::Int(3)),
            ("t", JsonValue::Num(1.5)),
            ("ev", JsonValue::Str("promote".to_owned())),
            ("null", JsonValue::Null),
            (
                "arr",
                JsonValue::Arr(vec![JsonValue::Int(1), JsonValue::Int(2)]),
            ),
        ]);
        assert_eq!(
            v.render_compact(),
            r#"{"seq":3,"t":1.5,"ev":"promote","null":null,"arr":[1,2]}"#
        );
    }

    #[test]
    fn parse_round_trips_pretty_and_compact() {
        let v = JsonValue::obj([
            ("num", JsonValue::Num(-1.25e-3)),
            ("int", JsonValue::Int(u64::MAX)),
            ("nothing", JsonValue::Null),
            ("flag", JsonValue::Bool(false)),
            ("text", JsonValue::Str("a\"b\\c\nd\tñ€".to_owned())),
            (
                "arr",
                JsonValue::Arr(vec![JsonValue::Int(0), JsonValue::Str("x".to_owned())]),
            ),
            ("empty_arr", JsonValue::Arr(vec![])),
            ("empty_obj", JsonValue::Obj(vec![])),
        ]);
        assert_eq!(JsonValue::parse(&v.render()).unwrap(), v);
        assert_eq!(JsonValue::parse(&v.render_compact()).unwrap(), v);
    }

    #[test]
    fn parse_classifies_numbers() {
        assert_eq!(JsonValue::parse("42").unwrap(), JsonValue::Int(42));
        assert_eq!(JsonValue::parse("-42").unwrap(), JsonValue::Num(-42.0));
        assert_eq!(JsonValue::parse("0.5").unwrap(), JsonValue::Num(0.5));
        assert_eq!(JsonValue::parse("1e3").unwrap(), JsonValue::Num(1000.0));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "\"unterminated", "1 2"] {
            let err = JsonValue::parse(bad).unwrap_err();
            assert!(!err.to_string().is_empty(), "{bad}");
        }
    }

    /// `levels` containers around a `0`, alternating by `kinds` (`[` for an
    /// array level, `{` for an object level).
    fn nested(levels: usize, kinds: &[u8]) -> String {
        let mut open = String::new();
        let mut close = String::new();
        for level in 0..levels {
            if kinds[level % kinds.len()] == b'[' {
                open.push('[');
                close.insert(0, ']');
            } else {
                open.push_str("{\"k\":");
                close.insert(0, '}');
            }
        }
        format!("{open}0{close}")
    }

    #[test]
    fn nesting_is_followed_to_max_depth_and_no_further() {
        for kinds in [&b"["[..], b"{", b"[{", b"{[["] {
            let deepest = nested(JsonValue::MAX_DEPTH, kinds);
            let value = JsonValue::parse(&deepest).unwrap();
            assert_eq!(value.render_compact(), deepest);
            let err = JsonValue::parse(&nested(JsonValue::MAX_DEPTH + 1, kinds)).unwrap_err();
            assert!(err.msg.contains("nesting deeper than 128"), "{err}");
            // The depth is of what is open, not of what was ever opened.
            let wide = format!("[{}]", vec![nested(100, kinds); 3].join(","));
            assert!(JsonValue::parse(&wide).is_ok());
        }
        // A frame-sized run of brackets is an error, not a stack overflow.
        for hostile in ["[".repeat(1_000_000), "{\"a\":".repeat(200_000)] {
            assert!(JsonValue::parse(&hostile).is_err());
            assert!(JsonValue::parse_fields(&hostile, |_, _| {}).is_err());
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(
            JsonValue::parse(r#""\u0041\u00e9\u20AC""#).unwrap(),
            JsonValue::Str("Aé€".to_owned())
        );
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u41""#,
            r#""\u004""#,
            r#""\u00g1""#,
            r#""\u"#,
        ] {
            let err = JsonValue::parse(bad).unwrap_err();
            assert!(err.msg.contains("\\u escape"), "{bad}: {err}");
        }
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_are_replaced() {
        let parsed = |text: &str| JsonValue::parse(text).unwrap();
        let s = |text: &str| JsonValue::Str(text.to_owned());
        assert_eq!(parsed(r#""\ud83d\ude00""#), s("😀"));
        assert_eq!(parsed(r#""a\uD834\uDD1Eb""#), s("a𝄞b"));
        assert_eq!(parsed(r#""\ud83d""#), s("\u{fffd}"));
        assert_eq!(parsed(r#""\ude00""#), s("\u{fffd}"));
        assert_eq!(parsed(r#""\ud83dx""#), s("\u{fffd}x"));
        // A high surrogate followed by an escape that is not a low one:
        // the second escape stands for itself.
        assert_eq!(parsed(r#""\ud83d\u0041""#), s("\u{fffd}A"));
        assert_eq!(parsed(r#""\ud83d\ud83d\ude00""#), s("\u{fffd}😀"));
        assert_eq!(parsed(r#""\ud83d\n""#), s("\u{fffd}\n"));
        assert!(JsonValue::parse(r#""\ud83d\u+e00""#).is_err());
        // What the writer emits for the character reads back as it.
        assert_eq!(parsed(&s("😀").render_compact()), s("😀"));
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        for (text, want) in [
            ("0", JsonValue::Int(0)),
            ("10", JsonValue::Int(10)),
            ("18446744073709551615", JsonValue::Int(u64::MAX)),
            // One past u64: still a number, no longer an integer.
            (
                "18446744073709551616",
                JsonValue::Num(18446744073709551616.0),
            ),
            ("-0", JsonValue::Num(-0.0)),
            ("-7", JsonValue::Num(-7.0)),
            ("0.5", JsonValue::Num(0.5)),
            ("-0.25", JsonValue::Num(-0.25)),
            ("1e3", JsonValue::Num(1000.0)),
            ("1E+3", JsonValue::Num(1000.0)),
            ("25e-1", JsonValue::Num(2.5)),
            ("1.5e300", JsonValue::Num(1.5e300)),
            ("1e-400", JsonValue::Num(0.0)),
        ] {
            let got = JsonValue::parse(text).unwrap();
            assert_eq!(got, want, "{text}");
            // `==` cannot tell -0 from 0.
            assert_eq!(got.render_compact(), want.render_compact(), "{text}");
        }
        for bad in [
            "1.", "-.5", ".5", "007", "-01", "00", "-", "+1", "1e", "1e+", "1.e3", "1.5.3", "0x10",
            "1e5e5", "--1", "Infinity", "NaN",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad}");
            assert!(JsonValue::parse(&format!("[{bad}]")).is_err(), "[{bad}]");
        }
    }

    #[test]
    fn a_number_no_f64_holds_is_refused_so_parsing_round_trips() {
        for huge in ["1e999", "-1e999", "1e309", &"9".repeat(400)] {
            let err = JsonValue::parse(huge).unwrap_err();
            assert!(err.msg.contains("bad number"), "{huge}: {err}");
        }
        // The largest finite value still parses, and what parses renders to
        // something that parses to the same value.
        let max = JsonValue::parse("1.7976931348623157e308").unwrap();
        assert_eq!(max, JsonValue::Num(f64::MAX));
        assert_eq!(JsonValue::parse(&max.render_compact()).unwrap(), max);
    }

    /// The per-character escaper `push_json_str` replaced.
    fn escaped_one_char_at_a_time(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn leaf_writers_emit_what_the_slow_forms_did() {
        for v in [
            0,
            1,
            9,
            10,
            99,
            100,
            12_345,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut out = String::new();
            push_json_u64(&mut out, v);
            assert_eq!(out, format!("{v}"));
        }
        let every_control: String = (0u8..0x20).map(|b| b as char).collect();
        for s in [
            "",
            "plain",
            "\"",
            "\\",
            "a\"b\\c\nd\re\tf",
            "\"\"\\\\",
            "ends with a quote\"",
            "\u{7f}\u{80}ñ€😀",
            "mixed ñ \" € \\ 😀 \u{1}",
            every_control.as_str(),
        ] {
            let mut out = String::from("x");
            push_json_str(&mut out, s);
            assert_eq!(out[1..], escaped_one_char_at_a_time(s), "{s:?}");
            assert_eq!(
                JsonValue::parse(&out[1..]).unwrap(),
                JsonValue::Str(s.to_owned())
            );
        }
        for (v, want) in [
            (0.0, "0"),
            (-0.0, "-0"),
            (1.5, "1.5"),
            (1e-7, "0.0000001"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
        ] {
            let mut out = String::new();
            push_json_f64(&mut out, v);
            assert_eq!(out, want);
        }
    }

    #[test]
    fn parse_fields_visits_what_parse_collects() {
        for text in [
            r#"{"a":1,"b":[1,{"c":2}],"a":"again","k\"ey":null}"#,
            " { } ",
            "{}",
            "[1,2]",
            "7",
            r#"{"a":1,"b":}"#,
            r#"{"a":1,}"#,
            r#"{"a":1} x"#,
            r#"{"a" 1}"#,
            r#"{"a":1"#,
            "",
        ] {
            let mut seen = Vec::new();
            let visited = JsonValue::parse_fields(text, |k, v| seen.push((k.to_owned(), v)));
            match JsonValue::parse(text) {
                Ok(JsonValue::Obj(fields)) => {
                    assert_eq!(visited, Ok(()), "{text}");
                    assert_eq!(seen, fields, "{text}");
                }
                Ok(_) => {
                    assert_eq!(visited, Ok(()), "{text}");
                    assert!(seen.is_empty(), "{text}");
                }
                Err(e) => assert_eq!(visited, Err(e), "{text}"),
            }
        }
    }

    #[test]
    fn parse_accessors_navigate_objects() {
        let v = JsonValue::parse(r#"{"a":{"b":[1,2.5,"x",null,true]}}"#).unwrap();
        let arr = v.get("a").and_then(|a| a.get("b")).unwrap();
        let items = arr.as_array().unwrap();
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[1].as_f64(), Some(2.5));
        assert_eq!(items[0].as_f64(), Some(1.0));
        assert_eq!(items[2].as_str(), Some("x"));
        assert!(items[3].is_null());
        assert_eq!(items[4].as_bool(), Some(true));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn json_round_trips_through_file() {
        let dir = std::env::temp_dir().join("asha-metrics-json-test");
        let path = dir.join("report.json");
        let v = JsonValue::obj([("a", JsonValue::Arr(vec![JsonValue::Num(0.25)]))]);
        write_json(&path, &v).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, v.render());
        std::fs::remove_dir_all(&dir).ok();
    }
}
