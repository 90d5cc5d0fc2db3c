//! The one reader of `jsonl-v1`, the store's original dialect: one JSON
//! object per WAL line, each checkpoint a JSON document in a `.json` file.
//! [`store`] converts an experiment directory to `binary-v2` in place —
//! [`ExperimentSupervisor::open`](crate::ExperimentSupervisor::open) runs
//! it for every experiment it lists,
//! [`DurableRun::resume`](crate::DurableRun::resume) before anything else —
//! and tools that must not write read a v1 store in memory through
//! [`read_wal`] and [`checkpoints`]. No other module reads `jsonl-v1`.
//!
//! A `.json` checkpoint becomes its `.bin` holding the same binvalue
//! payload, so schema-v1 layouts and the deltas chained on them stay valid;
//! the WAL becomes `binary-v2` holding every complete v1 record. Each of
//! the three steps — write the `.bin` files, rewrite the WAL atomically,
//! remove the `.json` files and fsync the directory — completes from any
//! crash point, so running the conversion again finishes the job. What it
//! cannot read it leaves alone: a WAL with neither the magic nor a complete
//! v1 record is `Corrupt` before anything is written, and a `.json` file
//! that does not parse is neither converted nor removed (readers, knowing
//! only `.bin`, pass it by like any unreadable checkpoint).
//!
//! A converted checkpoint may still be of snapshot schema v1, whose rows and
//! config values are keyed objects, and any checkpoint or `meta.json` may
//! hold SHA's `sync_sha` document: what reads those lives here too, and
//! [`crate::codec`]'s decoders hand every keyed row and value, and every
//! `sync_sha` state, to it.

use std::io::Read;
use std::path::{Path, PathBuf};

use asha_metrics::JsonValue;
use asha_space::ParamValue;

use crate::binary::{put_value, put_varint, Reader, TAG_ARR};
use crate::codec;
use crate::experiment::WAL_FILE;
use crate::format::{encode_wal, WAL_MAGIC};
use crate::snapshot::{checkpoint_position, delta_file_name, fsync_dir, read_payload};
use crate::snapshot::{write_atomic, write_document, Snapshot, EXT};
use crate::wal::{SnapMarker, StoreEvent, WalContents, WalRecord};
use asha_core::{
    budget, AshaState, Barrier, BracketLoopState, BracketState, Error, Opening, RungState,
};

const V1: &str = "jsonl-v1";
const V2: &str = "binary-v2";

/// Convert the experiment store in `dir` to `binary-v2` in place (see the
/// module docs). Costs a store with nothing to convert, or a missing
/// directory, one listing and an 8-byte read.
pub fn store(dir: &Path) -> Result<(), Error> {
    if !dir.is_dir() {
        return Ok(());
    }
    let wal_path = dir.join(WAL_FILE);
    let v1_wal = v1_wal_bytes(&wal_path)?
        .map(|bytes| wal(&bytes).map_err(|msg| Error::corrupt(&wal_path, msg)))
        .transpose()?;
    let mut converted = Vec::new();
    for file in checkpoints(dir)?.into_iter().filter(|c| c.dialect == V1) {
        let Ok(payload) = file.payload() else {
            continue;
        };
        // A `.bin` twin is this file converted before a crash, or newer.
        let name = match file.delta {
            0 => Snapshot::file_name(file.snap),
            delta => delta_file_name(file.snap, delta),
        };
        if !dir.join(&name).exists() {
            write_document(dir, &name, &payload)?;
        }
        converted.push(file.path);
    }
    if let Some(contents) = v1_wal {
        write_atomic(dir, WAL_FILE, &[&encode_wal(&contents.records)])?;
    }
    for path in &converted {
        std::fs::remove_file(path).map_err(|e| Error::io(path, e))?;
    }
    if converted.is_empty() {
        return Ok(());
    }
    fsync_dir(dir)
}

/// Read the WAL at `path` without writing, whichever dialect it is in:
/// `binary-v2` through [`crate::read_wal`], anything else as `jsonl-v1`.
/// Returns the dialect's name beside the contents.
pub fn read_wal(path: &Path) -> Result<(WalContents, &'static str), Error> {
    match v1_wal_bytes(path)? {
        None => Ok((crate::read_wal(path)?, V2)),
        Some(bytes) => wal(&bytes)
            .map(|contents| (contents, V1))
            .map_err(|msg| Error::corrupt(path, msg)),
    }
}

/// The WAL's bytes when it neither starts with the `binary-v2` magic nor
/// is a prefix of it (a file its writer had only just created); `None`
/// when there is nothing to convert, a missing file included.
fn v1_wal_bytes(path: &Path) -> Result<Option<Vec<u8>>, Error> {
    let mut head = Vec::with_capacity(WAL_MAGIC.len());
    match std::fs::File::open(path) {
        Ok(file) => file.take(WAL_MAGIC.len() as u64).read_to_end(&mut head),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => Err(e),
    }
    .map_err(|e| Error::io(path, e))?;
    if WAL_MAGIC.starts_with(&head) {
        return Ok(None);
    }
    let bytes = std::fs::read(path).map_err(|e| Error::io(path, e))?;
    Ok(Some(bytes))
}

/// One checkpoint file, in either dialect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The chain's base full-snapshot sequence number.
    pub snap: u64,
    /// Position in the chain: 0 for the full snapshot, 1-based for deltas.
    pub delta: u64,
    /// The file.
    pub path: PathBuf,
    /// Its dialect: `"binary-v2"` or `"jsonl-v1"`.
    pub dialect: &'static str,
}

impl Checkpoint {
    /// The file's binvalue payload: what its `.bin` holds, or will hold.
    pub fn payload(&self) -> Result<Vec<u8>, Error> {
        if self.dialect == V2 {
            return read_payload(&self.path);
        }
        let bytes = std::fs::read(&self.path).map_err(|e| Error::io(&self.path, e))?;
        document(&bytes).map_err(|msg| Error::corrupt(&self.path, msg))
    }
}

/// Every checkpoint file in `dir`, in chain order (a `.bin` before a
/// `.json` of the same position).
pub fn checkpoints(dir: &Path) -> Result<Vec<Checkpoint>, Error> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| Error::io(dir, e))? {
        let (name, path) = entry
            .map(|e| (e.file_name(), e.path()))
            .map_err(|e| Error::io(dir, e))?;
        for (ext, dialect) in [(EXT, V2), ("json", V1)] {
            if let Some((snap, delta)) = checkpoint_position(&name.to_string_lossy(), ext) {
                let path = path.clone();
                found.push(Checkpoint {
                    snap,
                    delta,
                    path,
                    dialect,
                });
            }
        }
    }
    found.sort_by_key(|c| (c.snap, c.delta, c.dialect == V1));
    Ok(found)
}

/// A `jsonl-v1` checkpoint document's binvalue payload: its JSON text
/// parsed and re-encoded.
fn document(bytes: &[u8]) -> Result<Vec<u8>, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "invalid UTF-8".to_owned())?;
    let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
    let mut payload = Vec::new();
    put_value(&mut payload, &doc);
    Ok(payload)
}

/// The records of a `jsonl-v1` WAL, under the policy [`crate::read_wal`]
/// applies to `binary-v2`: damage at the end of the file (an unfinished or
/// unparseable last record) is a discarded torn tail, damage followed by a
/// record is an error. A line that does not start with `{` — blank, or
/// text an editor left — could never be a record, nor the torn start of
/// one, and is skipped. A file without one complete record is no WAL.
fn wal(bytes: &[u8]) -> Result<WalContents, String> {
    let mut records = Vec::new();
    let mut damage: Option<String> = None;
    let mut lines = bytes.split(|&b| b == b'\n');
    // What follows the final newline: a line the writer never finished.
    let unfinished = lines.next_back().is_some_and(|rest| !rest.is_empty());
    for (n, line) in lines.enumerate() {
        let line = line.trim_ascii();
        if !line.starts_with(b"{") {
            continue;
        }
        let parsed = std::str::from_utf8(line)
            .map_err(|_| "invalid UTF-8".to_owned())
            .and_then(parse_record);
        match (parsed, &damage) {
            (Ok(record), None) => records.push(record),
            (Ok(_), Some(why)) => return Err(why.clone()),
            (Err(why), _) => {
                damage.get_or_insert(format!("line {}: {why}", n + 1));
            }
        }
    }
    if records.is_empty() {
        return Err("no binary-v2 magic and no complete jsonl-v1 record".to_owned());
    }
    let torn_tail = unfinished || damage.is_some();
    Ok(WalContents { records, torn_tail })
}

/// Parse one `jsonl-v1` WAL line into a typed record.
fn parse_record(line: &str) -> Result<WalRecord, String> {
    let value = JsonValue::parse(line).map_err(|e| e.to_string())?;
    let ev = value.get("ev").and_then(JsonValue::as_str);
    let ev = ev.ok_or("missing ev field")?;
    let field = |key| {
        let n = value.get(key).and_then(JsonValue::as_u64);
        n.ok_or_else(|| format!("{ev} missing {key}"))
    };
    let event = match ev {
        "snapshot" | "delta_snapshot" => None,
        "experiment_created" => {
            let name = value.get("name").and_then(JsonValue::as_str);
            let name = name.ok_or("experiment_created missing name")?.to_owned();
            Some(StoreEvent::ExperimentCreated { name })
        }
        "paused" => Some(StoreEvent::Paused),
        "resumed" => Some(StoreEvent::Resumed),
        "experiment_finished" => Some(StoreEvent::ExperimentFinished),
        _ => return asha_obs::event_from_json(&value).map(WalRecord::Telemetry),
    };
    let time = value.get("t").and_then(JsonValue::as_f64);
    let time = time.ok_or("store event missing numeric t")?;
    if let Some(event) = event {
        return Ok(WalRecord::Meta { time, event });
    }
    let (snap, events) = (field("snap")?, field("events")?);
    let marker = match ev {
        "snapshot" => SnapMarker::Full { snap, events },
        _ => SnapMarker::Delta {
            snap,
            delta: field("delta")?,
            events,
        },
    };
    Ok(WalRecord::SnapshotMarker { time, marker })
}

// ---------------------------------------------------------------------------
// Snapshot schema v1: keyed rows and config values
// ---------------------------------------------------------------------------

/// The fields of schema v1's keyed rows, in the order of the v2 rows that
/// replaced them (see [`crate::codec`]); `outer/inner` names a field of the
/// one object nested in a row, a slot's training state.
pub(crate) const JOB: &str = "trial config rung resource bracket inherit_from";
pub(crate) const SLOT: &str = "trial state/resource state/loss state/asym_jitter \
    state/rate_jitter state/divergence_draw state/diverged time_per_unit completed";
pub(crate) const PENDING: &str = "time seq job dropped";
pub(crate) const TRACE: &str = "time trial bracket rung resource val_loss test_loss";

/// Decode the v1 keyed row at the cursor with `decode`, the decoder of its
/// v2 row: the fields `keys` names are found by key and laid out in order.
pub(crate) fn keyed_row<T>(
    r: &mut Reader<'_>,
    keys: &str,
    decode: impl for<'b> FnOnce(&mut Reader<'b>) -> Result<T, Error>,
) -> Result<T, Error> {
    let keys = keys.split_whitespace();
    let mut row = vec![TAG_ARR];
    put_varint(&mut row, keys.clone().count() as u64);
    r.object(|o| {
        let mut nested = None;
        for key in keys {
            let value = match key.split_once('/') {
                None => o.get(key, Reader::span)?,
                Some((outer, inner)) => {
                    let mut at = match nested {
                        Some(at) => at,
                        None => *nested.insert(o.get(outer, Reader::mark)?),
                    };
                    at.object(|o| o.get(inner, Reader::span))?
                }
            };
            row.extend_from_slice(value);
        }
        Ok(())
    })?;
    Reader::whole(&row, decode)
}

/// A v1 config value: the first of `float`, `int`, `index` it holds.
pub(crate) fn keyed_param_value(r: &mut Reader<'_>) -> Result<ParamValue, Error> {
    r.object(|o| {
        if let Some(x) = o.opt("float", Reader::f64)? {
            return Ok(ParamValue::Float(x));
        }
        if let Some(x) = o.opt("int", codec::get_i64)? {
            return Ok(ParamValue::Int(x));
        }
        let index = o.opt("index", Reader::usize)?;
        index
            .map(ParamValue::Index)
            .ok_or_else(|| Error::codec("config value must be tagged float/int/index"))
    })
}

/// A `sync_sha` document, SHA's state before it freed finished brackets:
/// every bracket opened, as its barrier's counts and lists in global ids,
/// and `trial_meta`, `[trial, bracket, config]` for every trial sampled, as
/// the [`BracketLoopState`] SHA holds now: each bracket not `done`, ids
/// made local, with the trials `trial_meta` files under it. What that
/// cannot carry (an `outstanding` count not the `issued` list's, a rung
/// past the ladder, a bracket whose trial ids pass `2^64`, one never
/// opened) is refused; `SchedulerState::validate` judges the rest (an id
/// of another bracket wraps past every trial sampled).
pub(crate) fn sync_sha_state(r: &mut Reader<'_>) -> Result<BracketLoopState, Error> {
    r.object(|o| {
        let config = o.get("config", |r| codec::get_loop_config(r, "sha"))?;
        let Opening::Sha { num_configs: n, .. } = config.opening else {
            unreachable!("a \"sha\" config is SHA's")
        };
        let (bracket_config, mut opened) = (config.bracket_config(0), 0);
        let (r, max_r, eta) = (
            config.min_resource,
            config.max_resource,
            config.reduction_factor,
        );
        let rungs = budget::promotion_table(n, r, max_r, eta, bracket_config.stop_rate).len();
        let base = |b: usize| (b as u64).wrapping_mul(n as u64);
        let bracket = |r: &mut Reader<'_>| {
            let (index, local) = (opened, move |t: u64| t.wrapping_sub(base(opened)));
            opened += 1;
            r.object(|o| {
                let sampled = n.saturating_sub(o.get("remaining_to_sample", Reader::usize)?);
                let queue = o.get("queue", |r| r.list(codec::get_trial_config))?;
                let outstanding = o.get("outstanding", Reader::usize)?;
                let issued = o.get("issued", |r| r.list(Reader::u64))?;
                let results = o.get("results", |r| r.list(codec::get_trial_loss))?;
                let (rung, done) = (o.get("rung", Reader::usize)?, o.get("done", Reader::bool)?);
                // Refusing ids past 2^64 before the ladder below is
                // allocated bounds the brackets a document can cost, as the
                // 64-rung cap bounds each one's ladder.
                let ids = (index as u64).checked_mul(n as u64);
                if outstanding != issued.len() || rung >= rungs || ids.is_none() {
                    return Err(Error::config(format!("bracket {index}: a count or a rung")));
                }
                let mut ladder = vec![RungState::default(); rungs];
                ladder[rung].records = results.into_iter().map(|(t, l)| (local(t), l)).collect();
                let asha = AshaState {
                    config: bracket_config.clone(),
                    rungs: ladder,
                    trials: Vec::new(),
                    outstanding: issued.into_iter().map(|t| (local(t), rung)).collect(),
                    next_trial: sampled as u64,
                    trials_started: sampled,
                    name: String::new(),
                };
                let queue = queue.into_iter().map(|(t, _)| local(t)).collect();
                let barrier = Some(Barrier { rung, queue });
                Ok((!done).then_some(BracketState {
                    index,
                    asha,
                    barrier,
                }))
            })
        };
        let brackets = o.get("brackets", |r| r.list(bracket))?;
        let mut brackets: Vec<_> = brackets.into_iter().flatten().collect();
        let trial = |r: &mut Reader<'_>| {
            r.tuple(3, "[trial, bracket, config] triple")?;
            Ok((r.u64()?, r.usize()?, codec::get_config(r)?))
        };
        for (t, b, c) in o.get("trial_meta", |r| r.list(trial))? {
            match brackets.binary_search_by_key(&b, |x| x.index) {
                Ok(i) => brackets[i].asha.trials.push((t.wrapping_sub(base(b)), c)),
                Err(_) if b >= opened => return Err(Error::config(format!("trial {t}: {b}"))),
                Err(_) => {} // a finished bracket's
            }
        }
        let name = o.get("name", Reader::string)?;
        Ok(BracketLoopState {
            config,
            opened,
            brackets,
            spent: 0.0,
            current: 0,
            name,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::tests::sample_records;
    use crate::wal::rewrite_to_marker;
    use crate::WalTail;
    use asha_core::telemetry::{Event, EventKind};
    use asha_core::ErrorKind;
    use proptest::prelude::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("asha-store-upgrade-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Removes its directory when dropped, however a test case ends: an
    /// early return, a failed `prop_assert!` or a panic.
    struct RemoveOnDrop(PathBuf);

    impl Drop for RemoveOnDrop {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    fn ev(seq: u64, time: f64) -> Event {
        Event {
            seq,
            time,
            kind: EventKind::GrowBottom {
                trial: seq,
                bracket: 0,
                resource: 1.0,
            },
        }
    }

    /// What the retired `jsonl-v1` writer put on disk for `records`: one
    /// rendered line each.
    fn v1_bytes(records: &[WalRecord]) -> Vec<u8> {
        let mut text = String::new();
        for record in records {
            text.push_str(&record.render_jsonl());
            text.push('\n');
        }
        text.into_bytes()
    }

    /// The v1 WAL at `path`, read in memory as tools read it.
    fn read_v1(path: &Path) -> Result<WalContents, Error> {
        let bytes = std::fs::read(path).map_err(|e| Error::io(path, e))?;
        wal(&bytes).map_err(|msg| Error::corrupt(path, msg))
    }

    /// Every file in `dir` with its bytes, by name.
    fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut all: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap())
            .map(|e| {
                let bytes = std::fs::read(e.path()).unwrap();
                (e.file_name().to_string_lossy().into_owned(), bytes)
            })
            .collect();
        all.sort();
        all
    }

    #[test]
    fn v1_decodes_every_record_kind() {
        let records = sample_records();
        let decoded = wal(&v1_bytes(&records)).unwrap();
        assert!(!decoded.torn_tail);
        assert_eq!(decoded.records, records, "jsonl-v1");
    }

    /// With `n = 2^63` only two brackets have trial ids: the third of a
    /// `sync_sha` document is refused before its 63-rung ladder is built.
    #[test]
    fn a_sync_sha_bracket_past_the_trial_ids_is_refused() {
        let bracket = r#"{"remaining_to_sample": 0, "queue": [], "outstanding": 0,
            "issued": [], "results": [], "rung": 0, "done": false}"#;
        let doc = format!(
            r#"{{"kind": "sync_sha", "state": {{"config": {{"num_configs": {n},
                "min_resource": 1, "max_resource": {max_r}, "reduction_factor": 2,
                "stop_rate": 0, "grow_brackets": true}}, "brackets": [{bracket}, {bracket},
                {bracket}], "trial_meta": [], "next_trial": 0, "name": "SHA"}}}}"#,
            n = 1u64 << 63,
            max_r = 2f64.powi(62)
        );
        let doc = JsonValue::parse(&doc).unwrap();
        let err = codec::scheduler_state_from_json(&doc).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Config, "{err}");
        assert!(err.to_string().contains("bracket 2"), "{err}");
    }

    #[test]
    fn v1_documents_decode_to_the_same_tree() {
        let doc = JsonValue::obj([
            ("schema", JsonValue::Str("x".to_owned())),
            ("seq", JsonValue::Int(3)),
            ("loss", JsonValue::Num(0.125)),
            (
                "arr",
                JsonValue::Arr(vec![JsonValue::Null, JsonValue::Bool(true)]),
            ),
        ]);
        // A v1 document is the compact rendering plus a newline.
        let mut v1 = String::new();
        doc.render_compact_into(&mut v1);
        v1.push('\n');
        let back = crate::binary::decode_value(&document(v1.as_bytes()).unwrap()).unwrap();
        assert!(crate::binary::json_eq(&doc, &back));
    }

    #[test]
    fn torn_tail_is_discarded_but_midfile_corruption_errors() {
        let dir = tmpdir("torn");
        let path = dir.join("wal.jsonl");
        // Two clean v1 lines, then a crash mid-append: a partial final line.
        let mut bytes = v1_bytes(&[
            WalRecord::Telemetry(ev(0, 0.0)),
            WalRecord::Telemetry(ev(1, 0.5)),
        ]);
        bytes.extend_from_slice(b"{\"seq\":2,\"t\":0.7,\"ev\":\"job_e");
        std::fs::write(&path, bytes).unwrap();
        let contents = read_v1(&path).unwrap();
        assert!(contents.torn_tail);
        assert_eq!(contents.telemetry_len(), 2);

        // Blank lines and CRLF endings (a WAL that passed through an editor)
        // are skipped, not counted as damage.
        let text = String::from_utf8(v1_bytes(&[WalRecord::Telemetry(ev(0, 0.0))])).unwrap();
        std::fs::write(&path, format!("\n{}\r\n  \n", text.trim_end())).unwrap();
        let contents = read_v1(&path).unwrap();
        assert!(!contents.torn_tail);
        assert_eq!(contents.records, vec![WalRecord::Telemetry(ev(0, 0.0))]);

        // The same garbage mid-file is corruption, not a torn tail.
        std::fs::write(
            &path,
            "{\"seq\":0,\"t\":0.0,\"ev\":\"job_e\n{\"seq\":1,\"t\":0.5,\"ev\":\"retry\",\"trial\":1,\"rung\":0}\n",
        )
        .unwrap();
        assert_eq!(
            read_v1(&path).unwrap_err().kind(),
            asha_core::ErrorKind::Corrupt
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Lines that could never have been records are passed by, and the
    /// converted WAL tails as exactly the records around them.
    #[test]
    fn v1_lines_that_are_not_json_are_skipped() {
        let dir = tmpdir("v1-junk");
        let path = dir.join("wal.jsonl");
        let ev = |seq| WalRecord::Telemetry(ev(seq, seq as f64));
        let mut bytes = v1_bytes(&[ev(0)]);
        bytes.extend_from_slice(b"\n   \nnot json\n");
        bytes.extend_from_slice(&v1_bytes(&[ev(1)]));
        std::fs::write(&path, bytes).unwrap();
        store(&dir).unwrap();
        let chunk = WalTail::new(&path).poll().unwrap();
        assert_eq!(
            chunk.lines,
            vec![ev(0).render_jsonl(), ev(1).render_jsonl()]
        );
        assert_eq!(chunk.tags.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A binary WAL whose first byte flipped reads as no v1 record at all:
    /// the upgrade refuses it, names it, and changes nothing in the
    /// directory — not even the `.json` checkpoint beside it.
    #[test]
    fn a_wal_it_cannot_read_is_corrupt_and_left_untouched() {
        let dir = tmpdir("no-magic");
        let mut bytes = encode_wal(&sample_records());
        bytes[0] ^= 0x01;
        std::fs::write(dir.join(WAL_FILE), &bytes).unwrap();
        std::fs::write(dir.join("snap-00000000.json"), "{\"schema\":\"x\"}\n").unwrap();
        let before = files(&dir);
        let err = store(&dir).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Corrupt);
        assert_eq!(err.path(), Some(dir.join(WAL_FILE).as_path()));
        assert_eq!(files(&dir), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A WAL shorter than the magic that is a prefix of it is the writer's
    /// own file, caught before its magic landed: nothing to convert.
    #[test]
    fn a_magic_prefix_wal_is_left_alone() {
        let dir = tmpdir("magic-prefix");
        for cut in 0..WAL_MAGIC.len() {
            std::fs::write(dir.join(WAL_FILE), &WAL_MAGIC[..cut]).unwrap();
            let before = files(&dir);
            store(&dir).unwrap();
            assert_eq!(files(&dir), before, "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A `.json` checkpoint that does not parse keeps its bytes and gets no
    /// `.bin`; the readable one beside it is converted and removed, and
    /// `load_latest` passes the unreadable one by.
    #[test]
    fn an_unparseable_json_checkpoint_is_neither_converted_nor_deleted() {
        let dir = tmpdir("bad-json");
        let snap = crate::Snapshot {
            seq: 0,
            events: 1,
            scheduler: crate::SchedulerState::Asha(
                asha_core::Asha::new(
                    asha_space::SearchSpace::builder()
                        .discrete("layers", 1, 4)
                        .build()
                        .unwrap(),
                    asha_core::AshaConfig::new(1.0, 9.0, 3.0),
                )
                .export_state(),
            ),
            sampler: None,
            rng: [1, 2, 3, 4],
            sim: None,
        };
        let mut text = String::new();
        snap.to_json().render_compact_into(&mut text);
        text.push('\n');
        std::fs::write(dir.join("snap-00000000.json"), &text).unwrap();
        std::fs::write(dir.join("snap-00000001.json"), "{\"seq\":1,\"sch").unwrap();
        std::fs::write(dir.join(WAL_FILE), v1_bytes(&sample_records())).unwrap();

        store(&dir).unwrap();
        let names: Vec<String> = files(&dir).into_iter().map(|(name, _)| name).collect();
        assert_eq!(
            names,
            ["snap-00000000.bin", "snap-00000001.json", "wal.jsonl"]
        );
        assert_eq!(
            std::fs::read(dir.join("snap-00000001.json")).unwrap(),
            b"{\"seq\":1,\"sch"
        );
        let (latest, path) = crate::load_latest(&dir).unwrap().unwrap();
        assert_eq!((latest, path), (snap, dir.join("snap-00000000.bin")));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A short record sequence dense in checkpoint markers, with finite
    /// timestamps (what the v1 writer could put on a line).
    fn records() -> impl Strategy<Value = Vec<WalRecord>> {
        let record = (0u8..6, 0u64..1000, 0u32..1_000_000).prop_map(|(pick, n, t)| {
            let time = t as f64 / 64.0;
            match pick {
                0 => WalRecord::SnapshotMarker {
                    time,
                    marker: SnapMarker::Full { snap: n, events: n },
                },
                1 => WalRecord::SnapshotMarker {
                    time,
                    marker: SnapMarker::Delta {
                        snap: n,
                        delta: 1 + n % 8,
                        events: n,
                    },
                },
                2 => WalRecord::Meta {
                    time,
                    event: StoreEvent::Resumed,
                },
                _ => WalRecord::Telemetry(ev(n, time)),
            }
        });
        prop::collection::vec(record, 1..40)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Up-conversion keeps exactly what recovery keeps: any v1 WAL, cut
        /// at any byte (a torn line included), converts to a clean binary
        /// WAL that recovery cuts back to the v1 records up to the last
        /// marker. A cut that leaves no complete record is refused and the
        /// file left as it was.
        #[test]
        fn v1_wal_cut_anywhere_up_converts_to_its_marker_prefix(
            records in records(),
            cut in any::<usize>(),
        ) {
            let dir = tmpdir("upconvert");
            let _cleanup = RemoveOnDrop(dir.clone());
            let path = dir.join(WAL_FILE);
            let bytes = v1_bytes(&records);
            let cut = &bytes[..=cut % bytes.len()];
            std::fs::write(&path, cut).unwrap();
            let Ok(v1) = read_v1(&path) else {
                prop_assert_eq!(store(&dir).unwrap_err().kind(), ErrorKind::Corrupt);
                prop_assert_eq!(std::fs::read(&path).unwrap(), cut);
                return Ok(());
            };
            store(&dir).unwrap();
            if let Some(marker) = v1.last_snapshot_marker() {
                let converted = crate::read_wal(&path).unwrap();
                prop_assert_eq!(&converted.records, &v1.records);
                rewrite_to_marker(&path, &converted, marker).unwrap();
                let keep = v1
                    .records
                    .iter()
                    .rposition(|r| matches!(r, WalRecord::SnapshotMarker { .. }))
                    .unwrap();
                let v2 = crate::read_wal(&path).unwrap();
                prop_assert!(std::fs::read(&path).unwrap().starts_with(WAL_MAGIC));
                prop_assert!(!v2.torn_tail);
                prop_assert_eq!(&v2.records[..], &v1.records[..=keep]);
                // A second pass (a crash right after the rename, then
                // another resume) leaves the file alone.
                let before = std::fs::read(&path).unwrap();
                store(&dir).unwrap();
                rewrite_to_marker(&path, &v2, marker).unwrap();
                prop_assert_eq!(before, std::fs::read(&path).unwrap());
            }
        }

        /// Hostile bytes into the v1 readers: arbitrary strings, and v1
        /// WALs and documents with one byte flipped, come back `Ok` or
        /// `Err` — never a panic.
        #[test]
        fn hostile_bytes_never_panic_the_v1_readers(
            junk in prop::collection::vec(any::<u8>(), 0..256),
            records in records(),
            at in any::<usize>(),
            flip in 1u8..=255,
        ) {
            let _ = wal(&junk);
            let _ = document(&junk);
            let mut v1 = v1_bytes(&records);
            let i = at % v1.len();
            v1[i] ^= flip;
            let _ = wal(&v1);
            let mut doc = String::new();
            JsonValue::Arr(records.iter().map(|r| JsonValue::Str(r.render_jsonl())).collect())
                .render_compact_into(&mut doc);
            let mut doc = doc.into_bytes();
            let i = at % doc.len();
            doc[i] ^= flip;
            let _ = document(&doc);
        }
    }
}
