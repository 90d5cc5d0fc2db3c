//! The byte-level toolkit of `binary-v2`: LEB128 varints, a compile-time
//! slicing-by-16 CRC32 (IEEE), and **binvalue** — a compact tagged binary
//! form of [`JsonValue`] trees that is the store's in-memory checkpoint
//! representation as well as its on-disk one.
//!
//! Binvalue is written two ways that emit the same bytes: [`ValueWriter`]
//! streams a document straight into a `Vec<u8>` (what the codecs and the
//! delta engine use — no tree is ever built on the checkpoint path), and
//! [`put_value`] walks an existing tree through that same writer. Readers
//! either decode a tree ([`get_value`]), walk the bytes in place
//! ([`skip_value`], [`find_field`]), or — the codecs' `Reader` — decode a
//! document straight into typed values, reading objects by key.
//!
//! Everything round-trips *exactly*: varints are canonical (minimal
//! length), floats are raw little-endian bits (so non-finite values and NaN
//! payloads survive, unlike JSON text), and the [`JsonValue::Int`] /
//! [`JsonValue::Num`] distinction is preserved, so a decoded tree
//! re-renders to byte-identical JSON text. The encoding is canonical and
//! prefix-free: two values are [`json_eq`] exactly when their bytes are
//! equal, which is what lets [`crate::delta`] decide "unchanged" by slice
//! comparison.

use asha_metrics::JsonValue;

use crate::error::Error;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, the zlib/PNG polynomial), tables built at compile time
// ---------------------------------------------------------------------------

/// Slicing-by-16 tables: `[0]` is the classic byte-at-a-time table, `[k]`
/// advances a byte's contribution past `k` further zero bytes.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 16] = crc32_tables();

/// The contribution of the four little-endian bytes of `word`, followed by
/// `after` more bytes: table lookups `[after + 3]` down to `[after]`.
#[inline(always)]
fn crc32_word(t: &[[u32; 256]; 16], word: u32, after: usize) -> u32 {
    t[after + 3][(word & 0xFF) as usize]
        ^ t[after + 2][((word >> 8) & 0xFF) as usize]
        ^ t[after + 1][((word >> 16) & 0xFF) as usize]
        ^ t[after][(word >> 24) as usize]
}

/// CRC32 (IEEE) of `bytes`: sixteen bytes per step, then at most one
/// eight-byte step (short WAL frames are mostly that), then bytes.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let mut c = 0xFFFF_FFFFu32;
    let mut wide = bytes.chunks_exact(16);
    for chunk in &mut wide {
        c = crc32_word(t, c ^ word(chunk), 12)
            ^ crc32_word(t, word(&chunk[4..]), 8)
            ^ crc32_word(t, word(&chunk[8..]), 4)
            ^ crc32_word(t, word(&chunk[12..]), 0);
    }
    let mut chunks = wide.remainder().chunks_exact(8);
    for chunk in &mut chunks {
        c = crc32_word(t, c ^ word(chunk), 4) ^ crc32_word(t, word(&chunk[4..]), 0);
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// LEB128 varints
// ---------------------------------------------------------------------------

/// Longest legal LEB128 encoding of a `u64` (10 bytes).
pub const MAX_VARINT_LEN: usize = 10;

/// Append `v` as an LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Insert `v` as an LEB128 varint at byte offset `at`, shifting what follows
/// — for a count that is only known once the items after it are written.
pub(crate) fn insert_varint(out: &mut Vec<u8>, at: usize, v: u64) {
    let end = out.len();
    put_varint(out, v);
    let width = out.len() - end;
    out[at..].rotate_right(width);
}

/// Outcome of reading a varint from the front of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarintRead {
    /// A complete varint: its value and encoded length.
    Done(u64, usize),
    /// The buffer ends mid-varint (torn tail).
    Short,
    /// More than [`MAX_VARINT_LEN`] continuation bytes: not a varint at
    /// all (corruption that destroyed framing).
    Malformed,
}

/// Read an LEB128 varint from the front of `buf`.
pub fn get_varint(buf: &[u8]) -> VarintRead {
    let mut value = 0u64;
    let mut shift = 0u32;
    for (i, &byte) in buf.iter().enumerate() {
        if i >= MAX_VARINT_LEN {
            return VarintRead::Malformed;
        }
        // The 10th byte of a u64 varint may only carry its lowest bit.
        if i == MAX_VARINT_LEN - 1 && byte > 1 {
            return VarintRead::Malformed;
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return VarintRead::Done(value, i + 1);
        }
        shift += 7;
    }
    VarintRead::Short
}

// ---------------------------------------------------------------------------
// Cursor-style readers used by the record and document decoders
// ---------------------------------------------------------------------------

/// Read a varint at `*pos`, advancing it. Errors on truncation/malformed
/// input (inside a CRC-verified payload both mean a decoder bug or a
/// version mismatch, not a torn tail).
#[inline]
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, String> {
    // Most varints in a document (tags' counts, lengths, small ids) are
    // one byte.
    if let Some(&byte) = buf.get(*pos).filter(|&&byte| byte < 0x80) {
        *pos += 1;
        return Ok(u64::from(byte));
    }
    match get_varint(&buf[(*pos).min(buf.len())..]) {
        VarintRead::Done(v, n) => {
            *pos += n;
            Ok(v)
        }
        VarintRead::Short => Err("truncated varint".to_owned()),
        VarintRead::Malformed => Err("malformed varint".to_owned()),
    }
}

/// Read one byte at `*pos`, advancing it.
#[inline]
pub fn read_u8(buf: &[u8], pos: &mut usize) -> Result<u8, String> {
    let b = *buf.get(*pos).ok_or("truncated byte")?;
    *pos += 1;
    Ok(b)
}

/// Read a little-endian `f64` (raw bits) at `*pos`, advancing it.
#[inline]
pub fn read_f64(buf: &[u8], pos: &mut usize) -> Result<f64, String> {
    let end = pos.checked_add(8).filter(|&e| e <= buf.len());
    let end = end.ok_or("truncated f64")?;
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&buf[*pos..end]);
    *pos = end;
    Ok(f64::from_le_bytes(raw))
}

/// Read a varint-length-prefixed byte string at `*pos`, advancing it. No
/// UTF-8 check: the in-place walkers compare and copy keys as bytes.
#[inline]
pub fn read_slice<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a [u8], String> {
    let len = usize::try_from(read_varint(buf, pos)?).map_err(|_| "implausible length")?;
    let end = pos.checked_add(len).filter(|&e| e <= buf.len());
    let end = end.ok_or("truncated string")?;
    let bytes = &buf[*pos..end];
    *pos = end;
    Ok(bytes)
}

/// Read a varint-length-prefixed UTF-8 string at `*pos`, advancing it.
pub fn read_str(buf: &[u8], pos: &mut usize) -> Result<String, String> {
    let s = std::str::from_utf8(read_slice(buf, pos)?).map_err(|_| "invalid UTF-8".to_owned())?;
    Ok(s.to_owned())
}

/// Append a raw little-endian `f64`.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a varint-length-prefixed byte string.
pub fn put_slice(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Append a varint-length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_slice(out, s.as_bytes());
}

// ---------------------------------------------------------------------------
// binvalue: compact tagged binary JsonValue
// ---------------------------------------------------------------------------

pub(crate) const TAG_NULL: u8 = 0;
pub(crate) const TAG_FALSE: u8 = 1;
pub(crate) const TAG_TRUE: u8 = 2;
pub(crate) const TAG_INT: u8 = 3;
pub(crate) const TAG_NUM: u8 = 4;
pub(crate) const TAG_STR: u8 = 5;
pub(crate) const TAG_ARR: u8 = 6;
pub(crate) const TAG_OBJ: u8 = 7;

/// Deepest nesting any binvalue reader follows. The store's documents nest
/// a handful of levels; hostile input could nest arbitrarily, so every
/// recursive walker stops here instead of exhausting the stack. The same
/// number as [`JsonValue::MAX_DEPTH`], the text parser's cap on the same
/// trees: what one reader accepts, the other can hold.
pub const MAX_DEPTH: u32 = 128;

/// The most items a reader reserves room for before it has read them: a
/// corrupt count must not force a huge reservation.
pub(crate) const MAX_RESERVE: usize = 4096;

/// Streams one binvalue document into a byte buffer: one tag byte per
/// node, varint integers and lengths, raw little-endian `f64`s — exactly
/// what [`put_value`] emits for the equivalent [`JsonValue`] tree, without
/// the tree. Containers are count-prefixed: [`arr`](Self::arr) and
/// [`obj`](Self::obj) state how many items (or keyed fields) follow, and the
/// caller then writes exactly that many.
#[derive(Debug)]
pub struct ValueWriter<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> ValueWriter<'a> {
    /// Append to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        ValueWriter { out }
    }

    /// `null`.
    pub fn null(&mut self) {
        self.out.push(TAG_NULL);
    }

    /// A boolean.
    pub fn bool(&mut self, v: bool) {
        self.out.push(if v { TAG_TRUE } else { TAG_FALSE });
    }

    /// An unsigned integer ([`JsonValue::Int`]).
    pub fn int(&mut self, v: u64) {
        self.out.push(TAG_INT);
        put_varint(self.out, v);
    }

    /// A float, raw bits ([`JsonValue::Num`]).
    pub fn num(&mut self, v: f64) {
        self.out.push(TAG_NUM);
        put_f64(self.out, v);
    }

    /// A string.
    pub fn str(&mut self, s: &str) {
        self.out.push(TAG_STR);
        put_str(self.out, s);
    }

    /// An array header: `count` values follow.
    pub fn arr(&mut self, count: usize) {
        self.out.push(TAG_ARR);
        put_varint(self.out, count as u64);
    }

    /// An object header: `count` fields follow, each a [`key`](Self::key)
    /// and then its value.
    pub fn obj(&mut self, count: usize) {
        self.out.push(TAG_OBJ);
        put_varint(self.out, count as u64);
    }

    /// The key of the next object field; its value is written next.
    pub fn key(&mut self, key: &str) -> &mut Self {
        put_str(self.out, key);
        self
    }

    /// A whole [`JsonValue`] tree.
    pub fn tree(&mut self, v: &JsonValue) {
        match v {
            JsonValue::Null => self.null(),
            JsonValue::Bool(b) => self.bool(*b),
            JsonValue::Int(n) => self.int(*n),
            JsonValue::Num(x) => self.num(*x),
            JsonValue::Str(s) => self.str(s),
            JsonValue::Arr(items) => {
                self.arr(items.len());
                for item in items {
                    self.tree(item);
                }
            }
            JsonValue::Obj(fields) => {
                self.obj(fields.len());
                for (key, val) in fields {
                    self.key(key).tree(val);
                }
            }
        }
    }
}

/// Append a [`JsonValue`] tree in binvalue form.
pub fn put_value(out: &mut Vec<u8>, v: &JsonValue) {
    ValueWriter::new(out).tree(v);
}

/// The tree a [`ValueWriter`] callback encodes: how the codecs' public
/// `*_to_json` functions are derived from their one byte encoder.
pub(crate) fn tree_of(encode: impl FnOnce(&mut ValueWriter<'_>)) -> JsonValue {
    let mut bytes = Vec::new();
    encode(&mut ValueWriter::new(&mut bytes));
    decode_value(&bytes).expect("an encoder's own output decodes")
}

/// Decode a binvalue tree at `*pos`, advancing it.
pub fn get_value(buf: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    get_value_depth(buf, pos, 0)
}

/// Decode a buffer that holds exactly one binvalue tree.
pub fn decode_value(buf: &[u8]) -> Result<JsonValue, String> {
    let mut pos = 0;
    let tree = get_value(buf, &mut pos)?;
    if pos != buf.len() {
        return Err(format!(
            "{} trailing bytes after the value",
            buf.len() - pos
        ));
    }
    Ok(tree)
}

fn get_value_depth(buf: &[u8], pos: &mut usize, depth: u32) -> Result<JsonValue, String> {
    if depth > MAX_DEPTH {
        return Err("binvalue nesting too deep".to_owned());
    }
    let capacity = |count: u64| count.min(MAX_RESERVE as u64) as usize;
    match read_u8(buf, pos)? {
        TAG_NULL => Ok(JsonValue::Null),
        TAG_FALSE => Ok(JsonValue::Bool(false)),
        TAG_TRUE => Ok(JsonValue::Bool(true)),
        TAG_INT => Ok(JsonValue::Int(read_varint(buf, pos)?)),
        TAG_NUM => Ok(JsonValue::Num(read_f64(buf, pos)?)),
        TAG_STR => Ok(JsonValue::Str(read_str(buf, pos)?)),
        TAG_ARR => {
            let count = read_varint(buf, pos)?;
            let mut items = Vec::with_capacity(capacity(count));
            for _ in 0..count {
                items.push(get_value_depth(buf, pos, depth + 1)?);
            }
            Ok(JsonValue::Arr(items))
        }
        TAG_OBJ => {
            let count = read_varint(buf, pos)?;
            let mut fields = Vec::with_capacity(capacity(count));
            for _ in 0..count {
                let key = read_str(buf, pos)?;
                let val = get_value_depth(buf, pos, depth + 1)?;
                fields.push((key, val));
            }
            Ok(JsonValue::Obj(fields))
        }
        other => Err(format!("unknown binvalue tag {other}")),
    }
}

/// Decode a tree with a byte decoder, by re-encoding it: how the tree
/// inputs reach the one decoder of their type.
pub(crate) fn from_tree<T>(
    v: &JsonValue,
    decode: impl for<'a> FnOnce(&mut Reader<'a>) -> Result<T, Error>,
) -> Result<T, Error> {
    let mut bytes = Vec::new();
    put_value(&mut bytes, v);
    Reader::whole(&bytes, decode)
}

// ---------------------------------------------------------------------------
// Reader: the typed decoders' cursor
// ---------------------------------------------------------------------------

/// A cursor over one binvalue payload. Each read checks the tag it expects
/// and the bytes it needs, so a short, mistyped or hostile document is an
/// `Err`, never a panic; a count is only a loop bound (each pass consumes
/// input or fails) and reserves at most [`MAX_RESERVE`] items.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Decode the one value `buf` holds, refusing bytes after it.
    pub(crate) fn whole<T>(
        buf: &'a [u8],
        decode: impl FnOnce(&mut Self) -> Result<T, Error>,
    ) -> Result<T, Error> {
        let mut r = Reader { buf, pos: 0 };
        let value = decode(&mut r)?;
        match buf.len() - r.pos {
            0 => Ok(value),
            n => Err(Error::codec(format!("{n} trailing bytes after the value"))),
        }
    }

    pub(crate) fn peek(&self) -> Result<u8, Error> {
        let tag = self.buf.get(self.pos).copied();
        tag.ok_or_else(|| Error::codec("truncated value"))
    }

    fn tag(&mut self) -> Result<u8, Error> {
        Ok(read_u8(self.buf, &mut self.pos)?)
    }

    /// Consume the tag at the cursor if it is `tag`.
    fn eat(&mut self, tag: u8) -> Result<bool, Error> {
        let hit = self.peek()? == tag;
        self.pos += usize::from(hit);
        Ok(hit)
    }

    fn expect(&mut self, tag: u8, what: &str) -> Result<(), Error> {
        match self.eat(tag)? {
            true => Ok(()),
            false => Err(Error::codec(format!("expected {what}"))),
        }
    }

    fn varint(&mut self) -> Result<u64, Error> {
        Ok(read_varint(self.buf, &mut self.pos)?)
    }

    /// A length-prefixed UTF-8 string: a key, or a string's body.
    fn text(&mut self) -> Result<&'a str, Error> {
        let bytes = read_slice(self.buf, &mut self.pos)?;
        std::str::from_utf8(bytes).map_err(|_| Error::codec("invalid UTF-8"))
    }

    /// Where the value at the cursor lies in the buffer; the cursor steps
    /// over it.
    pub(crate) fn range(&mut self) -> Result<std::ops::Range<usize>, Error> {
        let start = self.pos;
        self.pos = skip_value(self.buf, start)?;
        Ok(start..self.pos)
    }

    /// The bytes of the value at the cursor, which it steps over.
    pub(crate) fn span(&mut self) -> Result<&'a [u8], Error> {
        let range = self.range()?;
        Ok(&self.buf[range])
    }

    /// A copy of the cursor at the value it steps over, to read later.
    pub(crate) fn mark(&mut self) -> Result<Self, Error> {
        let at = *self;
        self.span()?;
        Ok(at)
    }

    /// The value at the cursor as a tree.
    pub(crate) fn tree(&mut self) -> Result<JsonValue, Error> {
        Ok(get_value(self.buf, &mut self.pos)?)
    }

    /// `None` for `null`, else what `decode` reads.
    pub(crate) fn nullable<T>(
        &mut self,
        decode: impl FnOnce(&mut Self) -> Result<T, Error>,
    ) -> Result<Option<T>, Error> {
        match self.eat(TAG_NULL)? {
            true => Ok(None),
            false => decode(self).map(Some),
        }
    }

    pub(crate) fn bool(&mut self) -> Result<bool, Error> {
        if self.eat(TAG_TRUE)? {
            return Ok(true);
        }
        self.expect(TAG_FALSE, "a bool").map(|()| false)
    }

    /// An unsigned integer, or a float that is exactly one.
    pub(crate) fn u64(&mut self) -> Result<u64, Error> {
        let unsigned = match self.tag()? {
            TAG_INT => return self.varint(),
            TAG_NUM => Some(read_f64(self.buf, &mut self.pos)?),
            _ => None,
        };
        match unsigned {
            Some(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => Ok(v as u64),
            _ => Err(Error::codec("expected an unsigned integer")),
        }
    }

    pub(crate) fn usize(&mut self) -> Result<usize, Error> {
        Ok(self.u64()? as usize)
    }

    /// A float as the codecs write it (non-finite ones as strings); an integer reads as itself,
    /// `null` as `+inf` (the telemetry log's convention for a poisoned
    /// loss).
    pub(crate) fn f64(&mut self) -> Result<f64, Error> {
        match self.tag()? {
            TAG_NUM => Ok(read_f64(self.buf, &mut self.pos)?),
            TAG_INT => Ok(self.varint()? as f64),
            TAG_NULL => Ok(f64::INFINITY),
            TAG_STR => match self.text()? {
                "inf" => Ok(f64::INFINITY),
                "-inf" => Ok(f64::NEG_INFINITY),
                "nan" => Ok(f64::NAN),
                other => Err(Error::codec(format!(
                    "expected a float, got string {other:?}"
                ))),
            },
            _ => Err(Error::codec("expected a float")),
        }
    }

    pub(crate) fn str(&mut self) -> Result<&'a str, Error> {
        self.expect(TAG_STR, "a string")?;
        self.text()
    }

    pub(crate) fn string(&mut self) -> Result<String, Error> {
        self.str().map(str::to_owned)
    }

    /// An array's header: how many values follow.
    pub(crate) fn array(&mut self) -> Result<u64, Error> {
        self.expect(TAG_ARR, "an array")?;
        self.varint()
    }

    /// The header of an array of exactly `len` values.
    pub(crate) fn tuple(&mut self, len: u64, what: &str) -> Result<(), Error> {
        match self.array().map_err(|e| e.context(what.to_owned()))? {
            n if n == len => Ok(()),
            n => Err(Error::codec(format!(
                "{what}: expected {len} elements, got {n}"
            ))),
        }
    }

    /// Whether the row at the cursor is a v1 keyed object, left unread for
    /// [`crate::upgrade`]; otherwise the header of a v2 positional row of
    /// exactly `len` values is read.
    pub(crate) fn is_keyed_row(&mut self, len: u64, what: &str) -> Result<bool, Error> {
        if self.peek()? == TAG_OBJ {
            return Ok(true);
        }
        self.tuple(len, what).map(|()| false)
    }

    /// The array at the cursor, each value read by `item`.
    pub(crate) fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, Error>,
    ) -> Result<Vec<T>, Error> {
        let count = self.array()?;
        let mut items = Vec::with_capacity(count.min(MAX_RESERVE as u64) as usize);
        for _ in 0..count {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// The object at the cursor, read by key through [`Fields`]; the cursor
    /// ends past the object, whichever fields `decode` read.
    pub(crate) fn object<T>(
        &mut self,
        decode: impl FnOnce(&mut Fields<'_, 'a>) -> Result<T, Error>,
    ) -> Result<T, Error> {
        self.expect(TAG_OBJ, "an object")?;
        let left = self.varint()?;
        let mut fields = Fields {
            r: self,
            left,
            passed: Vec::new(),
        };
        let value = decode(&mut fields)?;
        for _ in 0..fields.left {
            fields.r.text()?;
            fields.r.span()?;
        }
        Ok(value)
    }
}

/// An object's fields, read by key. Asked for in the order they were
/// written, each is read where it stands, in one pass; a field the cursor
/// has to pass to reach another is stepped over and kept to read later. Of
/// repeated keys the first counts, as `JsonValue::get` reads.
pub(crate) struct Fields<'r, 'a> {
    r: &'r mut Reader<'a>,
    /// Fields the cursor has not reached.
    left: u64,
    /// Fields it passed, with a cursor at each value.
    passed: Vec<(&'a str, Reader<'a>)>,
}

impl<'a> Fields<'_, 'a> {
    /// Field `key` read by `decode`, or `None` if the object has none; an
    /// error is wrapped in the field's name.
    pub(crate) fn opt<T>(
        &mut self,
        key: &str,
        decode: impl FnOnce(&mut Reader<'a>) -> Result<T, Error>,
    ) -> Result<Option<T>, Error> {
        let named = |e: Error| e.context(format!("field {key:?}"));
        if let Some(&(_, mut at)) = self.passed.iter().find(|&&(k, _)| k == key) {
            return decode(&mut at).map(Some).map_err(named);
        }
        while self.left > 0 {
            self.left -= 1;
            match self.r.text()? {
                k if k == key => return decode(&mut *self.r).map(Some).map_err(named),
                k => self.passed.push((k, self.r.mark()?)),
            }
        }
        Ok(None)
    }

    /// Field `key` read by `decode`; a missing field is an error.
    pub(crate) fn get<T>(
        &mut self,
        key: &str,
        decode: impl FnOnce(&mut Reader<'a>) -> Result<T, Error>,
    ) -> Result<T, Error> {
        let missing = || Error::codec(format!("missing field {key:?}"));
        self.opt(key, decode)?.ok_or_else(missing)
    }

    /// Refuse a document whose `schema` field is none of `known`.
    pub(crate) fn schema(&mut self, known: &[&str]) -> Result<(), Error> {
        let schema = self.get("schema", Reader::str)?;
        if known.contains(&schema) {
            return Ok(());
        }
        Err(Error::codec(format!(
            "unsupported schema {schema:?} (expected one of {known:?})"
        )))
    }
}

/// The end of the binvalue at `pos`, found without decoding it. Checks
/// framing (tags, lengths, nesting depth) but not UTF-8: skipped bytes are
/// only ever compared or copied.
pub fn skip_value(buf: &[u8], pos: usize) -> Result<usize, String> {
    skip_value_depth(buf, pos, 0)
}

/// [`skip_value`] for a value already `depth` levels down.
pub(crate) fn skip_value_depth(buf: &[u8], pos: usize, depth: u32) -> Result<usize, String> {
    try_skip(buf, pos, depth).ok_or_else(|| "malformed or truncated binvalue".to_owned())
}

/// [`skip_value_depth`] without a reason for failure — nothing is
/// allocated on either outcome, so the delta engine can *ask* whether a
/// value ends inside a prefix of a buffer. Scalars, most of a document's
/// values, are stepped over inline; only containers leave the caller's
/// loop.
#[inline]
pub(crate) fn try_skip(buf: &[u8], pos: usize, depth: u32) -> Option<usize> {
    if depth > MAX_DEPTH {
        return None;
    }
    let end = match *buf.get(pos)? {
        TAG_NULL | TAG_FALSE | TAG_TRUE => pos + 1,
        TAG_NUM => pos + 9,
        TAG_INT if *buf.get(pos + 1)? < 0x80 => pos + 2,
        _ => return try_skip_slow(buf, pos, depth),
    };
    (end <= buf.len()).then_some(end)
}

fn try_skip_slow(buf: &[u8], mut pos: usize, depth: u32) -> Option<usize> {
    let varint = |pos: &mut usize| match get_varint(buf.get(*pos..)?) {
        VarintRead::Done(v, n) => {
            *pos += n;
            Some(v)
        }
        _ => None,
    };
    let string = |pos: &mut usize| {
        let len = usize::try_from(varint(pos)?).ok()?;
        *pos = pos.checked_add(len).filter(|&end| end <= buf.len())?;
        Some(())
    };
    let tag = *buf.get(pos)?;
    pos += 1;
    match tag {
        TAG_INT => {
            varint(&mut pos)?;
        }
        TAG_STR => string(&mut pos)?,
        // A count is never trusted: each pass consumes input or fails.
        TAG_ARR => {
            for _ in 0..varint(&mut pos)? {
                pos = try_skip(buf, pos, depth + 1)?;
            }
        }
        TAG_OBJ => {
            for _ in 0..varint(&mut pos)? {
                string(&mut pos)?;
                pos = try_skip(buf, pos, depth + 1)?;
            }
        }
        // Every other tag is a fixed-size scalar `try_skip` has handled.
        _ => return None,
    }
    Some(pos)
}

/// Scan `count` object fields starting at `pos` for the first one keyed
/// `key`: its index and the position of its value. The fields sit `depth`
/// levels down.
pub(crate) fn find_key(
    buf: &[u8],
    mut pos: usize,
    count: u64,
    key: &[u8],
    depth: u32,
) -> Result<Option<(u64, usize)>, String> {
    for idx in 0..count {
        if read_slice(buf, &mut pos)? == key {
            return Ok(Some((idx, pos)));
        }
        pos = skip_value_depth(buf, pos, depth)?;
    }
    Ok(None)
}

/// The position of the value stored under `key` in the object at `pos`
/// (first match, like [`JsonValue::get`]), found without decoding.
pub fn find_field(buf: &[u8], mut pos: usize, key: &str) -> Result<Option<usize>, String> {
    if read_u8(buf, &mut pos)? != TAG_OBJ {
        return Err("expected an object".to_owned());
    }
    let count = read_varint(buf, &mut pos)?;
    Ok(find_key(buf, pos, count, key.as_bytes(), 1)?.map(|(_, at)| at))
}

/// Structural equality with bit-exact float comparison: two trees are equal
/// iff they encode (and render) to identical bytes. `JsonValue`'s derived
/// `PartialEq` is useless here — `NaN != NaN` would make any tree holding a
/// poisoned loss unequal to itself.
pub fn json_eq(a: &JsonValue, b: &JsonValue) -> bool {
    match (a, b) {
        (JsonValue::Null, JsonValue::Null) => true,
        (JsonValue::Bool(x), JsonValue::Bool(y)) => x == y,
        (JsonValue::Int(x), JsonValue::Int(y)) => x == y,
        (JsonValue::Num(x), JsonValue::Num(y)) => x.to_bits() == y.to_bits(),
        (JsonValue::Str(x), JsonValue::Str(y)) => x == y,
        (JsonValue::Arr(x), JsonValue::Arr(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(i, j)| json_eq(i, j))
        }
        (JsonValue::Obj(x), JsonValue::Obj(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((ka, va), (kb, vb))| ka == kb && json_eq(va, vb))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop `crc32` replaced: its reference twin.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE polynomial.
        for crc in [crc32, crc32_bytewise] {
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(crc(b""), 0);
        }
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_loop() {
        // Every length 0..=64 (so every remainder after whole 8-byte
        // steps) at every offset into an 8-aligned-or-not buffer.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let noise: Vec<u8> = (0..64 + 8)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 56) as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let bytes = &noise[offset..offset + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "{offset}+{len}");
            }
        }
    }

    #[test]
    fn writer_emits_what_put_value_emits_and_walkers_agree() {
        let mut streamed = Vec::new();
        let w = &mut ValueWriter::new(&mut streamed);
        w.obj(4);
        w.key("n").null();
        w.key("flags").arr(2);
        w.bool(true);
        w.bool(false);
        w.key("nums").arr(3);
        w.int(u64::MAX);
        w.num(-0.0);
        w.num(f64::NAN);
        w.key("inner").obj(1);
        w.key("s").str("héllo");
        let tree = JsonValue::obj([
            ("n", JsonValue::Null),
            (
                "flags",
                JsonValue::Arr(vec![JsonValue::Bool(true), JsonValue::Bool(false)]),
            ),
            (
                "nums",
                JsonValue::Arr(vec![
                    JsonValue::Int(u64::MAX),
                    JsonValue::Num(-0.0),
                    JsonValue::Num(f64::NAN),
                ]),
            ),
            (
                "inner",
                JsonValue::obj([("s", JsonValue::Str("héllo".to_owned()))]),
            ),
        ]);
        let mut walked = Vec::new();
        put_value(&mut walked, &tree);
        assert_eq!(streamed, walked);
        assert!(json_eq(&get_value(&streamed, &mut 0).unwrap(), &tree));

        // In-place walkers: the whole value, one field, a missing field.
        assert_eq!(skip_value(&streamed, 0), Ok(streamed.len()));
        let at = find_field(&streamed, 0, "inner").unwrap().unwrap();
        assert_eq!(skip_value(&streamed, at), Ok(streamed.len()));
        assert_eq!(find_field(&streamed, 0, "absent"), Ok(None));
        assert!(
            find_field(&streamed, at - 1, "s").is_err(),
            "not at an object"
        );
        for cut in 0..streamed.len() {
            assert!(skip_value(&streamed[..cut], 0).is_err(), "prefix {cut}");
        }
    }

    #[test]
    fn insert_varint_shifts_the_tail() {
        for v in [0u64, 127, 128, u64::MAX] {
            let mut out = b"headtail".to_vec();
            insert_varint(&mut out, 4, v);
            let mut expected = b"head".to_vec();
            put_varint(&mut expected, v);
            expected.extend_from_slice(b"tail");
            assert_eq!(out, expected);
        }
    }

    #[test]
    fn varint_round_trips_and_rejects_garbage() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(get_varint(&buf), VarintRead::Done(v, buf.len()), "{v}");
            // A truncated prefix is Short, not a wrong value.
            if buf.len() > 1 {
                assert_eq!(get_varint(&buf[..buf.len() - 1]), VarintRead::Short);
            }
        }
        assert_eq!(get_varint(&[]), VarintRead::Short);
        assert_eq!(get_varint(&[0x80; 11]), VarintRead::Malformed);
        // An overlong 10th byte overflows u64.
        let mut overlong = vec![0xFF; 9];
        overlong.push(0x7F);
        assert_eq!(get_varint(&overlong), VarintRead::Malformed);
    }

    #[test]
    fn binvalue_round_trips_every_variant() {
        let doc = JsonValue::obj([
            ("null", JsonValue::Null),
            ("t", JsonValue::Bool(true)),
            ("f", JsonValue::Bool(false)),
            ("int", JsonValue::Int(u64::MAX)),
            ("num", JsonValue::Num(0.30000000000000004)),
            ("neg", JsonValue::Num(-1.5e300)),
            ("nan", JsonValue::Num(f64::NAN)),
            ("inf", JsonValue::Num(f64::INFINITY)),
            ("s", JsonValue::Str("héllo \"world\"".to_owned())),
            (
                "arr",
                JsonValue::Arr(vec![
                    JsonValue::Int(0),
                    JsonValue::Num(0.5),
                    JsonValue::Str(String::new()),
                ]),
            ),
            ("obj", JsonValue::obj([("k", JsonValue::Int(7))])),
        ]);
        let mut buf = Vec::new();
        put_value(&mut buf, &doc);
        let mut pos = 0;
        let back = get_value(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len(), "decoder consumed everything");
        assert!(json_eq(&doc, &back));
        // Int/Num distinction survives: the re-encoded bytes are identical.
        let mut buf2 = Vec::new();
        put_value(&mut buf2, &back);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn binvalue_rejects_truncation() {
        let mut buf = Vec::new();
        put_value(
            &mut buf,
            &JsonValue::Arr(vec![JsonValue::Int(1), JsonValue::Str("abc".to_owned())]),
        );
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(
                get_value(&buf[..cut], &mut pos).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn json_eq_is_bitwise_on_floats() {
        assert!(json_eq(
            &JsonValue::Num(f64::NAN),
            &JsonValue::Num(f64::NAN)
        ));
        assert!(!json_eq(&JsonValue::Num(0.0), &JsonValue::Num(-0.0)));
        assert!(!json_eq(&JsonValue::Int(1), &JsonValue::Num(1.0)));
    }
}
