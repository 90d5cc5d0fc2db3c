//! Structural diffs over snapshot documents, computed and applied on their
//! binvalue bytes: the delta-snapshot engine.
//!
//! A delta snapshot stores [`diff_bytes`]`(previous, current)` instead of
//! the full document, so steady-state checkpoint *bytes* are proportional to
//! what changed (new rung records, promoted-set updates, appended trace
//! events, sampler cursors, the re-sorted in-flight queue) rather than to
//! total state size. Recovery rebuilds the full document by
//! [`apply_bytes`]-ing each delta in chain order on top of the newest full
//! snapshot.
//!
//! Neither direction builds a tree. Both walk two payloads in lock-step
//! ([`skip_value`] finds where a value ends), and "unchanged" is decided by
//! comparing byte slices: binvalue is canonical and prefix-free, so two
//! values are [`json_eq`] exactly when their bytes are equal. The only
//! allocation is the output buffer; nesting is followed to
//! [`MAX_DEPTH`] and no further; and since
//! the inputs may be files, nothing in them is trusted — a count is a loop
//! bound that must be paid for in input bytes, never a reservation, and a
//! malformed payload or a patch computed against a different base is an
//! `Err`, never a panic.
//!
//! The invariant everything rests on: for any two documents,
//! `apply(base, diff(base, new))` reproduces `new` **exactly** — same key
//! order, same `Int`-vs-`Num` variants, bit-identical floats — so a run
//! recovered through a delta chain re-renders byte-identically to one
//! recovered from a full snapshot.
//!
//! ## Patch grammar
//!
//! A patch is itself a binvalue document (so it rides inside a delta
//! document like any other field), shown here as JSON:
//!
//! * `{"u":1}` — unchanged; keep the base value.
//! * `{"r":V}` — replace the base value with `V`.
//! * `{"o":[entry…]}` — rebuild an object. Entries are listed in the *new*
//!   object's key order (robust to key reordering): `["=",key]` copies the
//!   base's value, `["p",key,patch]` recurses, `["+",key,V]` inserts `V`.
//!   Base keys not listed are dropped. A key is looked up at the position
//!   after the previous hit first (the same codec wrote both documents, so
//!   keys almost always line up), then from the start.
//! * `{"a":[keep,[[i,patch]…],[tail…]]}` — rebuild an array: take the
//!   first `keep` base elements, patch the listed indexes (strictly
//!   increasing), then append the tail. Covers the store's append-mostly
//!   arrays (trace, rungs) in O(appended) bytes.
//!
//! **No patch outgrows its value.** Below the root, a container that
//! differs is written as `{"r":V}` whenever its `o`/`a` patch would be at
//! least as long — that is, at least 4 bytes (the `{"r":` head) plus `V`'s
//! own encoding. Decided bottom-up, so a patch below the root is never more
//! than 4 bytes longer than the value it rebuilds: an array whose every row
//! changed (the in-flight queue, re-sorted by completion time) costs its own
//! bytes, not a patch per row. The root is never replaced, so a patch still
//! fails against a base of another shape. Readers need nothing new: `r` was
//! always legal at any depth.
//!
//! A patched document is never longer than its base plus its patch — each
//! base value is copied at most once by any patch [`diff_bytes`] emits for
//! documents with unique keys, the only kind the codecs write — and
//! [`apply_bytes`] enforces that, so a crafted patch cannot make recovery
//! allocate without bound by naming one large base value many times.

use crate::binary::{
    find_key, insert_varint, put_slice, put_varint, read_slice, read_u8, read_varint,
    skip_value_depth, try_skip, TAG_ARR, TAG_INT, TAG_OBJ, TAG_STR,
};
pub use crate::binary::{json_eq, skip_value, MAX_DEPTH};

/// `{"u":1}`, encoded.
const UNCHANGED: [u8; 6] = [TAG_OBJ, 1, 1, b'u', TAG_INT, 1];

/// The head of a one-operation patch object, `{"<name>":`; its argument
/// follows.
const fn op(name: u8) -> [u8; 4] {
    [TAG_OBJ, 1, 1, name]
}

/// The fields of one base object, with the lookup cursor both directions
/// share: the field after the previous hit is tried first, then the first
/// match from the start.
struct Fields<'a> {
    buf: &'a [u8],
    first: usize,
    count: u64,
    /// Nesting depth of the field values.
    depth: u32,
    next_idx: u64,
    next_pos: usize,
}

impl<'a> Fields<'a> {
    /// The object whose field count sits at `pos` (just past its tag).
    fn open(buf: &'a [u8], mut pos: usize, depth: u32) -> Result<Self, String> {
        let count = read_varint(buf, &mut pos)?;
        Ok(Fields {
            buf,
            first: pos,
            count,
            depth,
            next_idx: 0,
            next_pos: pos,
        })
    }

    /// The index of the field keyed `key` and the position of its value.
    fn find(&self, key: &[u8]) -> Result<Option<(u64, usize)>, String> {
        if self.next_idx < self.count {
            let mut pos = self.next_pos;
            if read_slice(self.buf, &mut pos)? == key {
                return Ok(Some((self.next_idx, pos)));
            }
        }
        find_key(self.buf, self.first, self.count, key, self.depth)
    }

    /// Move the cursor past field `idx`, whose value ends at `end`.
    fn advance(&mut self, idx: u64, end: usize) {
        self.next_idx = idx + 1;
        self.next_pos = end;
    }

    /// Where the object ends: past whatever fields follow the cursor.
    fn end(&self) -> Result<usize, String> {
        let mut pos = self.next_pos;
        for _ in self.next_idx..self.count {
            read_slice(self.buf, &mut pos)?;
            pos = skip_value_depth(self.buf, pos, self.depth)?;
        }
        Ok(pos)
    }
}

fn too_deep() -> String {
    "binvalue nesting too deep".to_owned()
}

/// Run `walk` appending to `out`; on failure leave `out` as it was.
fn appending(
    out: &mut Vec<u8>,
    walk: impl FnOnce(&mut Vec<u8>) -> Result<(), String>,
) -> Result<(), String> {
    let start = out.len();
    let result = walk(out);
    if result.is_err() {
        out.truncate(start);
    }
    result
}

/// How many leading bytes `a` and `b` share.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let words = a.chunks_exact(8).zip(b.chunks_exact(8));
    let same = 8 * words.take_while(|(x, y)| x == y).count();
    same + a[same..]
        .iter()
        .zip(&b[same..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// The longest base value [`Differ::value`] will call unchanged from the
/// bytes alone; longer ones are entered, and their children decided so.
/// Bounds what a changed container costs before it is entered.
const PROBE: usize = 4096;

struct Differ<'a> {
    base: &'a [u8],
    new: &'a [u8],
    out: &'a mut Vec<u8>,
    /// A run on which the payloads are known to agree, as `(b, n, len)`:
    /// `base[b..b + len] == new[n..n + len]`. Most of a checkpoint is
    /// unchanged, so one scan serves many consecutive values.
    agree: (usize, usize, usize),
}

impl Differ<'_> {
    /// How many bytes the payloads share from `base[b..]` / `new[n..]` on.
    fn agreement(&mut self, b: usize, n: usize) -> usize {
        let (run_b, run_n, len) = self.agree;
        if b >= run_b && b - run_b < len && n.wrapping_sub(run_n) == b - run_b {
            return len - (b - run_b);
        }
        let len = common_prefix(&self.base[b..], &self.new[n..]);
        self.agree = (b, n, len);
        len
    }

    /// Diff the base value at `b` against the new value at `n`, both
    /// `depth` levels down. Appends the patch — or nothing when the two are
    /// the same value — and returns where each value ends and whether they
    /// were the same.
    fn value(&mut self, b: usize, n: usize, depth: u32) -> Result<(usize, usize, bool), String> {
        if depth > MAX_DEPTH {
            return Err(too_deep());
        }
        let (base, new) = (self.base, self.new);
        // A base value lying wholly inside a run of agreeing bytes *is* the
        // new value (the encoding is prefix-free): the new side is not even
        // parsed.
        let probe = self.agreement(b, n).min(PROBE);
        if probe > 0 {
            if let Some(b_end) = try_skip(&base[..b + probe], b, depth) {
                return Ok((b_end, n + (b_end - b), true));
            }
        }
        let (mut b_in, mut n_in) = (b, n);
        let mark = self.out.len();
        let entered = match (read_u8(base, &mut b_in)?, read_u8(new, &mut n_in)?) {
            (TAG_OBJ, TAG_OBJ) => self.object(b_in, n_in, depth)?,
            (TAG_ARR, TAG_ARR) => self.array(b_in, n_in, depth)?,
            _ => {
                let b_end = skip_value_depth(base, b, depth)?;
                let n_end = skip_value_depth(new, n, depth)?;
                let same = base[b..b_end] == new[n..n_end];
                if !same {
                    self.replace(&new[n..n_end]);
                }
                return Ok((b_end, n_end, same));
            }
        };
        // Below the root, a container whose patch would be no shorter than
        // replacing it is replaced (the root never is, so a patch still
        // fails against a base of another shape).
        let (_, n_end, same) = entered;
        let value = &new[n..n_end];
        if !same && depth > 0 && self.out.len() - mark >= op(b'r').len() + value.len() {
            self.out.truncate(mark);
            self.replace(value);
        }
        Ok(entered)
    }

    /// Append `{"r": value}`.
    fn replace(&mut self, value: &[u8]) {
        self.out.extend_from_slice(&op(b'r'));
        self.out.extend_from_slice(value);
    }

    /// Start the object-patch entry `["<tag>", key, …]` of `parts` parts.
    fn entry(&mut self, parts: u8, tag: u8, key: &[u8]) {
        self.out
            .extend_from_slice(&[TAG_ARR, parts, TAG_STR, 1, tag, TAG_STR]);
        put_slice(self.out, key);
    }

    /// [`Differ::value`] for two objects, entered just past their tags.
    fn object(
        &mut self,
        b: usize,
        mut n: usize,
        depth: u32,
    ) -> Result<(usize, usize, bool), String> {
        let new = self.new;
        let mut fields = Fields::open(self.base, b, depth + 1)?;
        let n_count = read_varint(new, &mut n)?;
        let mark = self.out.len();
        self.out.extend_from_slice(&op(b'o'));
        self.out.push(TAG_ARR);
        put_varint(self.out, n_count);
        let mut same = fields.count == n_count;
        for i in 0..n_count {
            let key = read_slice(new, &mut n)?;
            match fields.find(key)? {
                Some((idx, at)) => {
                    // Written as a recursion; rewritten in place as a copy
                    // if there was nothing to recurse into.
                    let entry_mark = self.out.len();
                    self.entry(3, b'p', key);
                    let (b_end, n_end, eq) = self.value(at, n, depth + 1)?;
                    if eq {
                        self.out[entry_mark + 1] = 2;
                        self.out[entry_mark + 4] = b'=';
                    }
                    same &= eq && idx == i;
                    fields.advance(idx, b_end);
                    n = n_end;
                }
                None => {
                    let n_end = skip_value_depth(new, n, depth + 1)?;
                    self.entry(3, b'+', key);
                    self.out.extend_from_slice(&new[n..n_end]);
                    same = false;
                    n = n_end;
                }
            }
        }
        let b_end = fields.end()?;
        if same {
            self.out.truncate(mark);
        }
        Ok((b_end, n, same))
    }

    /// [`Differ::value`] for two arrays, entered just past their tags.
    fn array(
        &mut self,
        mut b: usize,
        mut n: usize,
        depth: u32,
    ) -> Result<(usize, usize, bool), String> {
        let (base, new) = (self.base, self.new);
        let b_count = read_varint(base, &mut b)?;
        let n_count = read_varint(new, &mut n)?;
        let keep = b_count.min(n_count);
        let mark = self.out.len();
        self.out.extend_from_slice(&op(b'a'));
        self.out.extend_from_slice(&[TAG_ARR, 3, TAG_INT]);
        put_varint(self.out, keep);
        self.out.push(TAG_ARR);
        // How many elements get patched is known only after walking them.
        let patched_at = self.out.len();
        let mut patched = 0u64;
        for i in 0..keep {
            let entry_mark = self.out.len();
            self.out.extend_from_slice(&[TAG_ARR, 2, TAG_INT]);
            put_varint(self.out, i);
            let (b_end, n_end, eq) = self.value(b, n, depth + 1)?;
            if eq {
                self.out.truncate(entry_mark);
            } else {
                patched += 1;
            }
            (b, n) = (b_end, n_end);
        }
        insert_varint(self.out, patched_at, patched);
        for _ in keep..b_count {
            b = skip_value_depth(base, b, depth + 1)?;
        }
        let tail = n;
        for _ in keep..n_count {
            n = skip_value_depth(new, n, depth + 1)?;
        }
        self.out.push(TAG_ARR);
        put_varint(self.out, n_count - keep);
        self.out.extend_from_slice(&new[tail..n]);
        let same = b_count == n_count && patched == 0;
        if same {
            self.out.truncate(mark);
        }
        Ok((b, n, same))
    }
}

/// Append to `out` the patch transforming the binvalue document `base` into
/// `new`. Fails — leaving `out` as it was — when either is not exactly one
/// well-formed binvalue.
pub fn diff_bytes(base: &[u8], new: &[u8], out: &mut Vec<u8>) -> Result<(), String> {
    appending(out, |out| {
        let agree = (0, 0, 0);
        let mut differ = Differ {
            base,
            new,
            out,
            agree,
        };
        let (b_end, n_end, same) = differ.value(0, 0, 0)?;
        if b_end != base.len() || n_end != new.len() {
            return Err("document has trailing bytes".to_owned());
        }
        if same {
            out.extend_from_slice(&UNCHANGED);
        }
        Ok(())
    })
}

struct Patcher<'a> {
    base: &'a [u8],
    patch: &'a [u8],
    out: &'a mut Vec<u8>,
    /// `out`'s length may not pass this (see the module docs).
    limit: usize,
}

impl<'a> Patcher<'a> {
    /// Copy `base[from..to]` to the output.
    fn copy_base(&mut self, from: usize, to: usize) -> Result<(), String> {
        if self.out.len() + (to - from) > self.limit {
            return Err("patch copies more of its base than the base holds".to_owned());
        }
        self.out.extend_from_slice(&self.base[from..to]);
        Ok(())
    }

    /// Copy the `count` base array elements starting at `b`; where they end.
    fn copy_items(&mut self, b: usize, count: u64, depth: u32) -> Result<usize, String> {
        let mut end = b;
        for _ in 0..count {
            end = skip_value_depth(self.base, end, depth)?;
        }
        self.copy_base(b, end)?;
        Ok(end)
    }

    /// Read the patch value at `*p`, which must be tagged `tag`, up to its
    /// varint: an integer's value or a container's count.
    fn expect(&self, p: &mut usize, tag: u8, what: &str) -> Result<u64, String> {
        if read_u8(self.patch, p)? != tag {
            return Err(format!("malformed patch: expected {what}"));
        }
        read_varint(self.patch, p)
    }

    /// Read the patch value at `*p`, which must be a string.
    fn string(&self, p: &mut usize, what: &str) -> Result<&'a [u8], String> {
        if read_u8(self.patch, p)? != TAG_STR {
            return Err(format!("malformed patch: expected {what}"));
        }
        read_slice(self.patch, p)
    }

    /// Apply the patch at `p` to the base value at `b`, both `depth` levels
    /// down, appending the patched value. Returns where the base value and
    /// the patch end.
    fn value(&mut self, b: usize, mut p: usize, depth: u32) -> Result<(usize, usize), String> {
        if depth > MAX_DEPTH {
            return Err(too_deep());
        }
        let (base, patch) = (self.base, self.patch);
        if self.expect(&mut p, TAG_OBJ, "a patch object")? != 1 {
            return Err("patch must hold exactly one operation".to_owned());
        }
        match read_slice(patch, &mut p)? {
            b"u" => {
                let b_end = skip_value_depth(base, b, depth)?;
                self.copy_base(b, b_end)?;
                Ok((b_end, skip_value_depth(patch, p, depth)?))
            }
            b"r" => {
                let p_end = skip_value_depth(patch, p, depth)?;
                self.out.extend_from_slice(&patch[p..p_end]);
                Ok((skip_value_depth(base, b, depth)?, p_end))
            }
            b"o" => self.object(b, p, depth),
            b"a" => self.array(b, p, depth),
            other => Err(format!(
                "unknown patch operation {:?}",
                String::from_utf8_lossy(other)
            )),
        }
    }

    /// `{"o":[entry…]}` with `p` at the entry list.
    fn object(&mut self, mut b: usize, mut p: usize, depth: u32) -> Result<(usize, usize), String> {
        let (base, patch) = (self.base, self.patch);
        if read_u8(base, &mut b)? != TAG_OBJ {
            return Err("object patch applied to non-object".to_owned());
        }
        let mut fields = Fields::open(base, b, depth + 1)?;
        let entries = self.expect(&mut p, TAG_ARR, "object patch entries")?;
        self.out.push(TAG_OBJ);
        put_varint(self.out, entries);
        for _ in 0..entries {
            let parts = self.expect(&mut p, TAG_ARR, "an object patch entry")?;
            let tag = self.string(&mut p, "an entry tag")?;
            let key = self.string(&mut p, "an entry key")?;
            put_slice(self.out, key);
            let lookup = |fields: &Fields<'_>| {
                fields.find(key)?.ok_or_else(|| {
                    format!(
                        "patch references missing key {:?}",
                        String::from_utf8_lossy(key)
                    )
                })
            };
            match (tag, parts) {
                (b"=", 2) => {
                    let (idx, at) = lookup(&fields)?;
                    let end = skip_value_depth(base, at, depth + 1)?;
                    self.copy_base(at, end)?;
                    fields.advance(idx, end);
                }
                (b"p", 3) => {
                    let (idx, at) = lookup(&fields)?;
                    let (end, p_end) = self.value(at, p, depth + 1)?;
                    fields.advance(idx, end);
                    p = p_end;
                }
                (b"+", 3) => {
                    let p_end = skip_value_depth(patch, p, depth + 1)?;
                    self.out.extend_from_slice(&patch[p..p_end]);
                    p = p_end;
                }
                _ => {
                    return Err(format!(
                        "malformed object patch entry tag {:?}",
                        String::from_utf8_lossy(tag)
                    ))
                }
            }
        }
        Ok((fields.end()?, p))
    }

    /// `{"a":[keep,[[i,patch]…],[tail…]]}` with `p` at the triple.
    fn array(&mut self, mut b: usize, mut p: usize, depth: u32) -> Result<(usize, usize), String> {
        let (base, patch) = (self.base, self.patch);
        if read_u8(base, &mut b)? != TAG_ARR {
            return Err("array patch applied to non-array".to_owned());
        }
        let b_count = read_varint(base, &mut b)?;
        if self.expect(&mut p, TAG_ARR, "[keep, patches, tail]")? != 3 {
            return Err("array patch must be [keep, patches, tail]".to_owned());
        }
        let keep = self.expect(&mut p, TAG_INT, "an integer keep")?;
        if keep > b_count {
            return Err(format!("array patch keeps {keep} of {b_count} elements"));
        }
        self.out.push(TAG_ARR);
        // The tail's length is only read after the patches are applied.
        let count_at = self.out.len();
        // Base elements before `next` are already in the output.
        let mut next = 0u64;
        for _ in 0..self.expect(&mut p, TAG_ARR, "array patch patches")? {
            if self.expect(&mut p, TAG_ARR, "[index, patch]")? != 2 {
                return Err("array patch entry must be [index, patch]".to_owned());
            }
            let idx = self.expect(&mut p, TAG_INT, "an integer index")?;
            if idx < next || idx >= keep {
                return Err(format!(
                    "array patch index {idx} out of range or out of order"
                ));
            }
            b = self.copy_items(b, idx - next, depth + 1)?;
            (b, p) = self.value(b, p, depth + 1)?;
            next = idx + 1;
        }
        b = self.copy_items(b, keep - next, depth + 1)?;
        for _ in keep..b_count {
            b = skip_value_depth(base, b, depth + 1)?;
        }
        let tail = self.expect(&mut p, TAG_ARR, "array patch tail")?;
        let tail_at = p;
        for _ in 0..tail {
            p = skip_value_depth(patch, p, depth + 1)?;
        }
        self.out.extend_from_slice(&patch[tail_at..p]);
        let count = keep.checked_add(tail).ok_or("array patch overflows")?;
        insert_varint(self.out, count_at, count);
        Ok((b, p))
    }
}

/// Append to `out` the binvalue document that `patch` (a [`diff_bytes`]
/// result) turns `base` into. Fails — leaving `out` as it was — on a
/// malformed input or a patch computed against a different base shape.
pub fn apply_bytes(base: &[u8], patch: &[u8], out: &mut Vec<u8>) -> Result<(), String> {
    appending(out, |out| {
        let limit = out.len() + base.len() + patch.len();
        let mut patcher = Patcher {
            base,
            patch,
            out,
            limit,
        };
        let (b_end, p_end) = patcher.value(0, 0, 0)?;
        if b_end != base.len() || p_end != patch.len() {
            return Err("document has trailing bytes".to_owned());
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::{decode_value, get_value, put_value};
    use asha_metrics::JsonValue;
    use proptest::prelude::*;

    fn encoded(v: &JsonValue) -> Vec<u8> {
        let mut bytes = Vec::new();
        put_value(&mut bytes, v);
        bytes
    }

    /// [`diff_bytes`] over trees.
    fn diff(base: &JsonValue, new: &JsonValue) -> JsonValue {
        let mut patch = Vec::new();
        diff_bytes(&encoded(base), &encoded(new), &mut patch).expect("shallow documents");
        decode_value(&patch).expect("a patch is a binvalue")
    }

    /// [`apply_bytes`] over trees.
    fn apply(base: &JsonValue, patch: &JsonValue) -> Result<JsonValue, String> {
        let mut out = Vec::new();
        apply_bytes(&encoded(base), &encoded(patch), &mut out)?;
        decode_value(&out)
    }

    /// The tree-walking diff/apply the byte engine replaced, kept as its
    /// reference twin: what the engine must reproduce byte for byte.
    mod oracle {
        use super::super::json_eq;
        use super::encoded;
        use asha_metrics::JsonValue;

        /// Compute a patch transforming `base` into `new`.
        pub fn diff(base: &JsonValue, new: &JsonValue) -> JsonValue {
            patch(base, new, true)
        }

        /// [`diff`] of a value at the root or below it. Below the root, a
        /// changed container whose patch is no shorter than `{"r": new}`
        /// is replaced.
        fn patch(base: &JsonValue, new: &JsonValue, root: bool) -> JsonValue {
            if json_eq(base, new) {
                return JsonValue::obj([("u", JsonValue::Int(1))]);
            }
            let replace = || JsonValue::obj([("r", new.clone())]);
            let entered = match (base, new) {
                (JsonValue::Obj(base_fields), JsonValue::Obj(new_fields)) => {
                    let mut entries = Vec::with_capacity(new_fields.len());
                    // `cursor` exploits the common case: the same codec wrote both
                    // documents, so keys almost always line up positionally and the
                    // lookup is O(1) instead of a scan.
                    let mut cursor = 0usize;
                    for (key, new_val) in new_fields {
                        let found = if base_fields.get(cursor).is_some_and(|(k, _)| k == key) {
                            Some(cursor)
                        } else {
                            base_fields.iter().position(|(k, _)| k == key)
                        };
                        match found {
                            Some(idx) => {
                                cursor = idx + 1;
                                let base_val = &base_fields[idx].1;
                                if json_eq(base_val, new_val) {
                                    entries.push(JsonValue::Arr(vec![
                                        JsonValue::Str("=".to_owned()),
                                        JsonValue::Str(key.clone()),
                                    ]));
                                } else {
                                    entries.push(JsonValue::Arr(vec![
                                        JsonValue::Str("p".to_owned()),
                                        JsonValue::Str(key.clone()),
                                        patch(base_val, new_val, false),
                                    ]));
                                }
                            }
                            None => entries.push(JsonValue::Arr(vec![
                                JsonValue::Str("+".to_owned()),
                                JsonValue::Str(key.clone()),
                                new_val.clone(),
                            ])),
                        }
                    }
                    JsonValue::obj([("o", JsonValue::Arr(entries))])
                }
                (JsonValue::Arr(base_items), JsonValue::Arr(new_items)) => {
                    let keep = base_items.len().min(new_items.len());
                    let mut patches = Vec::new();
                    for i in 0..keep {
                        if !json_eq(&base_items[i], &new_items[i]) {
                            patches.push(JsonValue::Arr(vec![
                                JsonValue::Int(i as u64),
                                patch(&base_items[i], &new_items[i], false),
                            ]));
                        }
                    }
                    let tail: Vec<JsonValue> = new_items[keep..].to_vec();
                    JsonValue::obj([(
                        "a",
                        JsonValue::Arr(vec![
                            JsonValue::Int(keep as u64),
                            JsonValue::Arr(patches),
                            JsonValue::Arr(tail),
                        ]),
                    )])
                }
                _ => return replace(),
            };
            if !root && encoded(&entered).len() >= encoded(&replace()).len() {
                return replace();
            }
            entered
        }

        /// Apply a patch produced by [`diff`]: `apply(base, &diff(base, new))`
        /// reproduces `new` exactly. Fails on a malformed patch or one computed
        /// against a different base shape.
        pub fn apply(base: &JsonValue, patch: &JsonValue) -> Result<JsonValue, String> {
            let JsonValue::Obj(fields) = patch else {
                return Err("patch must be an object".to_owned());
            };
            let [(op, arg)] = fields.as_slice() else {
                return Err("patch must hold exactly one operation".to_owned());
            };
            match op.as_str() {
                "u" => Ok(base.clone()),
                "r" => Ok(arg.clone()),
                "o" => {
                    let JsonValue::Obj(base_fields) = base else {
                        return Err("object patch applied to non-object".to_owned());
                    };
                    let JsonValue::Arr(entries) = arg else {
                        return Err("object patch entries must be an array".to_owned());
                    };
                    let mut out = Vec::with_capacity(entries.len());
                    let mut cursor = 0usize;
                    let lookup = |key: &str, cursor: &mut usize| -> Result<&JsonValue, String> {
                        let found = if base_fields.get(*cursor).is_some_and(|(k, _)| k == key) {
                            Some(*cursor)
                        } else {
                            base_fields.iter().position(|(k, _)| k == key)
                        };
                        let idx =
                            found.ok_or_else(|| format!("patch references missing key {key:?}"))?;
                        *cursor = idx + 1;
                        Ok(&base_fields[idx].1)
                    };
                    for entry in entries {
                        let JsonValue::Arr(parts) = entry else {
                            return Err("object patch entry must be an array".to_owned());
                        };
                        let tag = parts
                            .first()
                            .and_then(|t| t.as_str())
                            .ok_or("object patch entry missing tag")?;
                        let key = parts
                            .get(1)
                            .and_then(|k| k.as_str())
                            .ok_or("object patch entry missing key")?;
                        let value = match (tag, parts.get(2)) {
                            ("=", None) => lookup(key, &mut cursor)?.clone(),
                            ("p", Some(subpatch)) => apply(lookup(key, &mut cursor)?, subpatch)?,
                            ("+", Some(value)) => value.clone(),
                            _ => return Err(format!("malformed object patch entry tag {tag:?}")),
                        };
                        out.push((key.to_owned(), value));
                    }
                    Ok(JsonValue::Obj(out))
                }
                "a" => {
                    let JsonValue::Arr(base_items) = base else {
                        return Err("array patch applied to non-array".to_owned());
                    };
                    let JsonValue::Arr(parts) = arg else {
                        return Err("array patch must be an array".to_owned());
                    };
                    let [keep, patches, tail] = parts.as_slice() else {
                        return Err("array patch must be [keep, patches, tail]".to_owned());
                    };
                    let keep = keep.as_u64().ok_or("array patch keep must be an integer")? as usize;
                    if keep > base_items.len() {
                        return Err(format!(
                            "array patch keeps {keep} of {} elements",
                            base_items.len()
                        ));
                    }
                    let mut out: Vec<JsonValue> = base_items[..keep].to_vec();
                    let JsonValue::Arr(patches) = patches else {
                        return Err("array patch patches must be an array".to_owned());
                    };
                    for entry in patches {
                        let JsonValue::Arr(pair) = entry else {
                            return Err("array patch entry must be [index, patch]".to_owned());
                        };
                        let [idx, subpatch] = pair.as_slice() else {
                            return Err("array patch entry must be [index, patch]".to_owned());
                        };
                        let idx =
                            idx.as_u64().ok_or("array patch index must be an integer")? as usize;
                        let slot = out
                            .get(idx)
                            .ok_or_else(|| format!("array patch index {idx} out of range"))?;
                        out[idx] = apply(slot, subpatch)?;
                    }
                    let JsonValue::Arr(tail) = tail else {
                        return Err("array patch tail must be an array".to_owned());
                    };
                    out.extend(tail.iter().cloned());
                    Ok(JsonValue::Arr(out))
                }
                other => Err(format!("unknown patch operation {other:?}")),
            }
        }
    }

    fn roundtrip(base: &JsonValue, new: &JsonValue) -> JsonValue {
        let patch = diff(base, new);
        let rebuilt = apply(base, &patch).expect("patch applies");
        assert!(
            json_eq(&rebuilt, new),
            "apply(diff) mismatch: {} vs {}",
            rebuilt.render_compact(),
            new.render_compact()
        );
        patch
    }

    #[test]
    fn identical_docs_diff_to_unchanged() {
        let doc = JsonValue::obj([
            ("a", JsonValue::Int(1)),
            ("b", JsonValue::Arr(vec![JsonValue::Num(f64::NAN)])),
        ]);
        let patch = roundtrip(&doc, &doc.clone());
        assert_eq!(encoded(&patch), UNCHANGED);
    }

    #[test]
    fn appended_array_tail_costs_only_the_tail() {
        let base = JsonValue::Arr((0..1000).map(JsonValue::Int).collect());
        let mut grown = (0..1000).map(JsonValue::Int).collect::<Vec<_>>();
        grown.push(JsonValue::Int(1000));
        grown.push(JsonValue::Int(1001));
        let new = JsonValue::Arr(grown);
        let patch = roundtrip(&base, &new);
        // The patch should not embed the 1000 shared elements.
        assert!(
            patch.render_compact().len() < 80,
            "{}",
            patch.render_compact()
        );
    }

    #[test]
    fn array_truncation_and_inplace_edits() {
        let base = JsonValue::Arr(vec![
            JsonValue::Int(0),
            JsonValue::Int(1),
            JsonValue::Int(2),
            JsonValue::Int(3),
        ]);
        let new = JsonValue::Arr(vec![JsonValue::Int(0), JsonValue::Int(9)]);
        roundtrip(&base, &new);
        roundtrip(&new, &base);
        roundtrip(&base, &JsonValue::Arr(vec![]));
    }

    #[test]
    fn object_insert_drop_reorder_and_nested_edit() {
        let base = JsonValue::obj([
            ("schema", JsonValue::Str("v1".to_owned())),
            ("jobs", JsonValue::Arr(vec![JsonValue::Int(1)])),
            ("dropped", JsonValue::Bool(true)),
            ("rng", JsonValue::Int(7)),
        ]);
        let new = JsonValue::obj([
            ("rng", JsonValue::Int(8)),
            ("schema", JsonValue::Str("v1".to_owned())),
            (
                "jobs",
                JsonValue::Arr(vec![JsonValue::Int(1), JsonValue::Int(2)]),
            ),
            ("added", JsonValue::Null),
        ]);
        roundtrip(&base, &new);
    }

    #[test]
    fn type_changes_fall_back_to_replace() {
        let base = JsonValue::obj([("x", JsonValue::Arr(vec![]))]);
        let new = JsonValue::obj([("x", JsonValue::Int(3))]);
        roundtrip(&base, &new);
        roundtrip(&JsonValue::Null, &JsonValue::Str("s".to_owned()));
    }

    #[test]
    fn nan_payloads_survive_the_chain() {
        let base = JsonValue::obj([("loss", JsonValue::Num(0.5))]);
        let new = JsonValue::obj([("loss", JsonValue::Num(f64::NAN))]);
        let rebuilt = apply(&base, &diff(&base, &new)).unwrap();
        assert!(json_eq(&rebuilt, &new));
        // And the rebuilt doc renders identically to the original.
        assert_eq!(rebuilt.render_compact(), new.render_compact());
    }

    #[test]
    fn malformed_patches_are_rejected() {
        let base = JsonValue::obj([("a", JsonValue::Int(1))]);
        assert!(apply(&base, &JsonValue::Int(1)).is_err());
        assert!(apply(&base, &JsonValue::obj([("z", JsonValue::Null)])).is_err());
        // Patch computed against a different base shape.
        let patch = diff(
            &JsonValue::obj([("k", JsonValue::Int(1))]),
            &JsonValue::obj([("k", JsonValue::Int(2))]),
        );
        assert!(apply(&JsonValue::Arr(vec![]), &patch).is_err());
    }

    /// A value longer than [`PROBE`] is entered rather than decided from
    /// the bytes; whether it changed or not, the answer is the oracle's.
    #[test]
    fn values_longer_than_the_probe_are_still_decided_exactly() {
        let long = |last: u64| {
            let mut items: Vec<JsonValue> = (0..2 * PROBE as u64).map(JsonValue::Int).collect();
            items.push(JsonValue::Int(last));
            JsonValue::obj([
                ("s", JsonValue::Str("x".repeat(2 * PROBE))),
                ("a", JsonValue::Arr(items)),
            ])
        };
        for (base, new) in [(long(0), long(0)), (long(0), long(1))] {
            let patch = roundtrip(&base, &new);
            assert_eq!(encoded(&patch), encoded(&oracle::diff(&base, &new)));
        }
    }

    /// A crafted patch that copies one large base value many times is
    /// refused before it is materialised: output is bounded by its inputs.
    #[test]
    fn a_patch_cannot_amplify_its_base() {
        let base = JsonValue::obj([("big", JsonValue::Str("x".repeat(1 << 16)))]);
        let copy = JsonValue::Arr(vec![
            JsonValue::Str("=".to_owned()),
            JsonValue::Str("big".to_owned()),
        ]);
        let bomb = JsonValue::obj([("o", JsonValue::Arr(vec![copy.clone(); 1000]))]);
        assert!(
            oracle::apply(&base, &bomb).is_ok(),
            "the tree engine obliges"
        );
        let mut out = Vec::new();
        let err = apply_bytes(&encoded(&base), &encoded(&bomb), &mut out).unwrap_err();
        assert!(err.contains("copies more"), "{err}");
        assert!(out.is_empty() && out.capacity() < 4 << 16);
        // Once is what a real patch does.
        let once = JsonValue::obj([("o", JsonValue::Arr(vec![copy]))]);
        assert!(json_eq(&apply(&base, &once).unwrap(), &base));
    }

    /// 500 in-flight `[time, seq, job, dropped]` rows of which every one
    /// changed, the way a time-sorted queue shifts between checkpoints:
    /// replaced whole, not patched row by row (2.4x the array's bytes).
    #[test]
    fn an_all_different_array_costs_its_own_bytes() {
        let row = |k: u64| {
            let config = JsonValue::Arr(vec![JsonValue::Num(k as f64 / 7.0); 3]);
            let job = JsonValue::Arr(vec![
                JsonValue::Int(k),
                config,
                JsonValue::Int(k % 3),
                JsonValue::Num(1.0),
                JsonValue::Int(0),
                JsonValue::Null,
            ]);
            JsonValue::Arr(vec![
                JsonValue::Num(k as f64 * 0.25),
                JsonValue::Int(k),
                job,
                JsonValue::Bool(false),
            ])
        };
        let pending = |from: u64| JsonValue::Arr((from..from + 500).map(row).collect());
        let doc = |from: u64| JsonValue::obj([("pending", pending(from))]);
        let patch = roundtrip(&doc(0), &doc(200));
        let JsonValue::Obj(root) = &patch else {
            panic!("the root is an object patch")
        };
        let entries = root[0].1.as_array().expect("object patch entries");
        let part = entries[0].as_array().expect("one entry")[2].clone();
        assert!(
            encoded(&part).len() <= 4 + encoded(&pending(200)).len(),
            "{} B patch for a {} B array",
            encoded(&part).len(),
            encoded(&pending(200)).len()
        );
    }

    /// The bound on `patch`, which rebuilds `new`: below the root, no `o` /
    /// `a` patch is as long as `{"r": new}`, and every `r` carries exactly
    /// the new value.
    fn bounded(patch: &JsonValue, new: &JsonValue, root: bool) -> Result<(), String> {
        let JsonValue::Obj(fields) = patch else {
            return Err("patch must be an object".to_owned());
        };
        let [(name, arg)] = fields.as_slice() else {
            return Err("patch must hold exactly one operation".to_owned());
        };
        let items = || arg.as_array().ok_or("malformed patch");
        match (name.as_str(), new) {
            ("u", _) => return Ok(()),
            ("r", _) => {
                prop_assert_eq!(encoded(arg), encoded(new), "r carries the new value");
                return Ok(());
            }
            ("o", JsonValue::Obj(new_fields)) => {
                for entry in items()? {
                    if let [tag, key, sub] = entry.as_array().ok_or("malformed entry")? {
                        let (Some("p"), Some(key)) = (tag.as_str(), key.as_str()) else {
                            continue;
                        };
                        let (_, value) = new_fields
                            .iter()
                            .find(|(k, _)| k == key)
                            .ok_or("patched key missing from the new object")?;
                        bounded(sub, value, false)?;
                    }
                }
            }
            ("a", JsonValue::Arr(new_items)) => {
                for entry in items()?[1].as_array().ok_or("malformed patches")? {
                    let [idx, sub] = entry.as_array().ok_or("malformed entry")? else {
                        return Err("array patch entry must be [index, patch]".to_owned());
                    };
                    let idx = idx.as_u64().ok_or("malformed index")? as usize;
                    bounded(sub, &new_items[idx], false)?;
                }
            }
            (name, _) => return Err(format!("{name} patch for a value of another kind")),
        }
        let (size, value) = (encoded(patch).len(), encoded(new).len());
        prop_assert!(
            root || size < op(b'r').len() + value,
            "{size} B patch for a {value} B value: {:?}",
            patch
        );
        Ok(())
    }

    // -- strategies ---------------------------------------------------------

    /// Floats as raw bit patterns: every NaN payload, both infinities, both
    /// zeros and subnormals turn up.
    fn wild_f64() -> impl Strategy<Value = f64> {
        prop_oneof![
            any::<u64>().prop_map(f64::from_bits),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(-0.0),
            Just(0.0),
        ]
    }

    /// A document nested up to `depth` levels. Keys are unique within an
    /// object (the shape every codec writes) but drawn from a small
    /// alphabet in random order, so two documents share, reorder, insert
    /// and drop keys; leaves repeat often enough to be equal across
    /// documents.
    fn doc(depth: u32) -> BoxedStrategy<JsonValue> {
        let leaf = prop_oneof![
            Just(JsonValue::Null),
            any::<bool>().prop_map(JsonValue::Bool),
            (0u64..4).prop_map(JsonValue::Int),
            any::<u64>().prop_map(JsonValue::Int),
            wild_f64().prop_map(JsonValue::Num),
            (0usize..3).prop_map(|n| JsonValue::Str("s".repeat(n))),
        ];
        if depth == 0 {
            return leaf.boxed();
        }
        let fields = prop::collection::vec((0u8..6, doc(depth - 1)), 0..6).prop_map(|fields| {
            let mut seen = [false; 6];
            let fields = fields.into_iter().filter(|(k, _)| {
                let fresh = !seen[*k as usize];
                seen[*k as usize] = true;
                fresh
            });
            JsonValue::Obj(fields.map(|(k, v)| (format!("k{k}"), v)).collect())
        });
        prop_oneof![
            leaf,
            prop::collection::vec(doc(depth - 1), 0..6).prop_map(JsonValue::Arr),
            fields,
        ]
        .boxed()
    }

    /// `doc` and a relative of it: the same document with a few edits
    /// (so most of it is shared), or an unrelated one.
    fn doc_pair() -> impl Strategy<Value = (JsonValue, JsonValue)> {
        let edits = prop::collection::vec((any::<u64>(), doc(1)), 0..4);
        (doc(3), doc(3), edits, any::<bool>()).prop_map(|(base, other, edits, related)| {
            if !related {
                return (base, other);
            }
            let mut new = base.clone();
            for (at, value) in edits {
                edit(&mut new, at, value);
            }
            (base, new)
        })
    }

    /// Replace, insert or drop something somewhere inside `doc`, steered by
    /// the bits of `at`.
    fn edit(doc: &mut JsonValue, at: u64, value: JsonValue) {
        let (pick, rest) = ((at % 7) as usize, at / 7);
        match doc {
            JsonValue::Arr(items) if !items.is_empty() && rest % 3 != 0 => {
                let len = items.len();
                edit(&mut items[pick % len], rest / 3, value)
            }
            JsonValue::Obj(fields) if !fields.is_empty() && rest % 3 != 0 => {
                let len = fields.len();
                edit(&mut fields[pick % len].1, rest / 3, value)
            }
            JsonValue::Arr(items) => match (rest / 3) % 3 {
                0 => items.push(value),
                1 => items.truncate(pick % (items.len() + 1)),
                _ => items.insert(pick % (items.len() + 1), value),
            },
            JsonValue::Obj(fields) => match (rest / 3) % 3 {
                0 if fields.iter().all(|(k, _)| k != "new") => {
                    fields.insert(pick % (fields.len() + 1), ("new".to_owned(), value))
                }
                1 if !fields.is_empty() => {
                    fields.remove(pick % fields.len());
                }
                _ => fields.reverse(),
            },
            leaf => *leaf = value,
        }
    }

    /// [`diff_bytes`] or [`apply_bytes`].
    type Engine = fn(&[u8], &[u8], &mut Vec<u8>) -> Result<(), String>;

    /// Run one byte-engine call on untrusted input: it may fail but must
    /// return, and whatever it hands back is bounded by what it was given.
    fn contained(base: &[u8], other: &[u8], engine: Engine) -> Result<Vec<u8>, String> {
        let mut out = Vec::new();
        let result = engine(base, other, &mut out);
        let budget = 8 * (base.len() + other.len()) + 64;
        assert!(
            out.capacity() <= budget,
            "reserved {} for {} input bytes",
            out.capacity(),
            base.len() + other.len()
        );
        match result {
            Ok(()) => Ok(out),
            Err(e) => {
                assert!(out.is_empty(), "a failed call leaves its output untouched");
                Err(e)
            }
        }
    }

    /// A payload nested `levels` arrays deep around a null.
    fn nested(levels: usize) -> Vec<u8> {
        let mut bytes = [TAG_ARR, 1].repeat(levels);
        bytes.push(crate::binary::TAG_NULL);
        bytes
    }

    #[test]
    fn nesting_is_followed_to_the_decoders_depth_and_no_further() {
        let deepest = nested(MAX_DEPTH as usize);
        assert_eq!(skip_value(&deepest, 0), Ok(deepest.len()));
        // The JSON text parser stops at the same depth, so the deepest tree
        // one reader accepts makes the trip through the other.
        let tree = get_value(&deepest, &mut 0).unwrap();
        assert_eq!(MAX_DEPTH as usize, JsonValue::MAX_DEPTH);
        assert_eq!(JsonValue::parse(&tree.render_compact()), Ok(tree));
        let patch = contained(&deepest, &deepest, diff_bytes).unwrap();
        assert_eq!(patch, UNCHANGED);
        assert_eq!(contained(&deepest, &patch, apply_bytes).unwrap(), deepest);

        // One level more is refused by every walker rather than followed
        // (100 000 levels would otherwise overflow the stack).
        for levels in [MAX_DEPTH as usize + 1, 100_000] {
            let too_deep = nested(levels);
            assert!(skip_value(&too_deep, 0).is_err());
            assert!(get_value(&too_deep, &mut 0).is_err());
            assert!(contained(&too_deep, &deepest, diff_bytes).is_err());
            assert!(contained(&deepest, &too_deep, diff_bytes).is_err());
            let mut replace = op(b'r').to_vec();
            replace.extend_from_slice(&too_deep);
            assert!(contained(&deepest, &replace, apply_bytes).is_err());
        }
    }

    #[test]
    fn huge_counts_are_loop_bounds_not_reservations() {
        let mut huge = Vec::new();
        put_varint(&mut huge, 1 << 63);
        for tag in [TAG_ARR, TAG_OBJ, TAG_STR] {
            let mut doc = vec![tag];
            doc.extend_from_slice(&huge);
            assert!(skip_value(&doc, 0).is_err());
            assert!(get_value(&doc, &mut 0).is_err());
            let empty = [tag, 0];
            assert!(contained(&doc, &empty, diff_bytes).is_err());
            assert!(contained(&empty, &doc, diff_bytes).is_err());
            assert!(contained(&doc, &doc, diff_bytes).is_err());
        }
        // A patch that keeps, indexes, or appends 2^63 elements.
        let base = encoded(&JsonValue::Arr(vec![JsonValue::Int(1), JsonValue::Int(2)]));
        let array_patch = |keep: &[u8], patches: &[u8], tail: &[u8]| {
            let mut p = op(b'a').to_vec();
            p.extend_from_slice(&[TAG_ARR, 3, TAG_INT]);
            p.extend_from_slice(keep);
            p.push(TAG_ARR);
            p.extend_from_slice(patches);
            p.push(TAG_ARR);
            p.extend_from_slice(tail);
            p
        };
        assert_eq!(
            contained(&base, &array_patch(&[2], &[0], &[0]), apply_bytes).unwrap(),
            base
        );
        assert!(contained(&base, &array_patch(&huge, &[0], &[0]), apply_bytes).is_err());
        assert!(contained(&base, &array_patch(&[2], &huge, &[0]), apply_bytes).is_err());
        assert!(contained(&base, &array_patch(&[2], &[0], &huge), apply_bytes).is_err());
        let mut entries = op(b'o').to_vec();
        entries.push(TAG_ARR);
        entries.extend_from_slice(&huge);
        let object = encoded(&JsonValue::obj([("k", JsonValue::Null)]));
        assert!(contained(&object, &entries, apply_bytes).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The reference twin: on any two documents the byte engine emits
        /// exactly the oracle's patch and rebuilds exactly the oracle's
        /// document, and a self-diff is the no-op patch.
        #[test]
        fn byte_engine_matches_the_tree_oracle((base, new) in doc_pair()) {
            let (base_bytes, new_bytes) = (encoded(&base), encoded(&new));
            let patch = contained(&base_bytes, &new_bytes, diff_bytes)?;
            let oracle_patch = oracle::diff(&base, &new);
            prop_assert_eq!(&patch, &encoded(&oracle_patch), "diff of {:?} -> {:?}", base, new);

            let rebuilt = contained(&base_bytes, &patch, apply_bytes)?;
            prop_assert_eq!(&rebuilt, &encoded(&oracle::apply(&base, &oracle_patch)?));
            prop_assert_eq!(&rebuilt, &new_bytes, "apply(diff) must rebuild the target");

            prop_assert_eq!(contained(&base_bytes, &base_bytes, diff_bytes)?, UNCHANGED.to_vec());
            prop_assert_eq!(contained(&base_bytes, &UNCHANGED, apply_bytes)?, base_bytes);
        }

        /// Below the root, no container's patch is as long as replacing
        /// it, and every replacement is exactly the new value.
        #[test]
        fn no_patch_outgrows_its_value((base, new) in doc_pair()) {
            let patch = contained(&encoded(&base), &encoded(&new), diff_bytes)?;
            bounded(&get_value(&patch, &mut 0)?, &new, true)?;
        }

        /// Arbitrary bytes in any position: an error or a bounded answer,
        /// never a panic.
        #[test]
        fn arbitrary_bytes_never_panic(
            a in prop::collection::vec(any::<u8>(), 0..96),
            b in prop::collection::vec(0u8..9, 0..96),
            valid in doc(2),
        ) {
            let valid = encoded(&valid);
            for noise in [&a, &b] {
                let _ = skip_value(noise, 0);
                let _ = contained(noise, &valid, diff_bytes);
                let _ = contained(&valid, noise, diff_bytes);
                let _ = contained(noise, noise, diff_bytes);
                let _ = contained(noise, &valid, apply_bytes);
                let _ = contained(&valid, noise, apply_bytes);
            }
        }

        /// Every strict prefix of a valid payload or patch is refused.
        #[test]
        fn strict_prefixes_are_errors((base, new) in doc_pair()) {
            let (base, new) = (encoded(&base), encoded(&new));
            let patch = contained(&base, &new, diff_bytes)?;
            for cut in 0..new.len() {
                prop_assert!(skip_value(&new[..cut], 0).is_err());
                prop_assert!(contained(&base, &new[..cut], diff_bytes).is_err());
                prop_assert!(contained(&new[..cut], &base, diff_bytes).is_err());
            }
            for cut in 0..patch.len() {
                prop_assert!(contained(&base, &patch[..cut], apply_bytes).is_err());
            }
            for cut in 0..base.len() {
                prop_assert!(contained(&base[..cut], &patch, apply_bytes).is_err());
            }
        }

        /// One flipped bit in a valid patch, or a valid patch against the
        /// wrong base: refused, or applied to *something* bounded — and
        /// whenever the tree oracle accepts the same inputs with a result
        /// the byte engine also produces, the two agree.
        #[test]
        fn damaged_and_misapplied_patches_are_contained(
            (base, new) in doc_pair(),
            stranger in doc(3),
            flip in any::<usize>(),
        ) {
            let (base_bytes, new_bytes) = (encoded(&base), encoded(&new));
            let patch = contained(&base_bytes, &new_bytes, diff_bytes)?;

            let mut damaged = patch.clone();
            let bit = flip % (8 * damaged.len());
            damaged[bit / 8] ^= 1 << (bit % 8);
            if let Ok(out) = contained(&base_bytes, &damaged, apply_bytes) {
                prop_assert_eq!(skip_value(&out, 0), Ok(out.len()), "output is one value");
            }

            let stranger_bytes = encoded(&stranger);
            if let Ok(out) = contained(&stranger_bytes, &patch, apply_bytes) {
                let tree_patch = get_value(&patch, &mut 0)?;
                prop_assert_eq!(out, encoded(&oracle::apply(&stranger, &tree_patch)?));
            }
        }
    }
}
