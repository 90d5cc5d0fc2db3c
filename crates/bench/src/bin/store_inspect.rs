//! Inspect a durable experiment store on disk.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p asha-bench --bin store_inspect -- [FLAGS] DIR
//!     --format NAME   decode the WAL with the named codec (jsonl-v1 |
//!                     binary-v2) instead of sniffing each file's magic —
//!                     forensics for a store whose header bytes are damaged
//!     --dump          print every WAL record as its JSONL line (binary
//!                     records are decoded and re-rendered as JSON)
//! ```
//!
//! `DIR` may be a single experiment directory (contains `meta.json`) or a
//! supervisor root (contains `manifest.json`); for a root, every listed
//! experiment is inspected. For each experiment the tool prints the
//! metadata summary, the checkpoint chain (full snapshots and their delta
//! chains: sequence, covered events, file dialect and size, and the
//! snapshot layout — `v1` keyed rows or `v2` positional ones), and the WAL's
//! shape: detected dialect, record counts, telemetry sequence range, store
//! markers, and whether a torn tail was discarded. Dialects are detected
//! per file, so mixed-format stores (a `jsonl-v1` store after a resume:
//! binary WAL and new checkpoints beside the old `.json` snapshots) inspect
//! cleanly.

use std::path::Path;

use asha::metrics::JsonValue;
use asha::store::binary::{find_field, get_value, put_value};
use asha::store::delta::apply_bytes;
use asha::store::{
    read_manifest, read_meta, read_wal, DecodeStep, DeltaDoc, Snapshot, StoreFormat, WalContents,
    WalRecord, MANIFEST_FILE, META_FILE, WAL_FILE,
};

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

struct Opts {
    format: Option<StoreFormat>,
    dump: bool,
}

/// Decode a WAL with one specific codec, ignoring the file's own magic.
/// This is the `--format` escape hatch: when a header is damaged (or a
/// file was produced by a tool that forgot the magic), sniffing picks the
/// wrong dialect and the operator knows better.
fn read_wal_forced(path: &Path, format: StoreFormat) -> Result<WalContents, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let magic = asha::store::format::WAL_MAGIC;
    let mut offset = if format == StoreFormat::BinaryV2 && bytes.starts_with(magic) {
        magic.len()
    } else {
        0
    };
    let mut contents = WalContents {
        records: Vec::new(),
        torn_tail: false,
        format,
    };
    while offset < bytes.len() {
        match format.decode_step(&bytes[offset..]) {
            DecodeStep::Record { consumed, record } => {
                offset += consumed;
                contents.records.push(record);
            }
            DecodeStep::Blank { consumed } => offset += consumed,
            // Forced mode is forensics: treat anything undecodable as the
            // end of the usable prefix rather than failing the whole read.
            DecodeStep::Incomplete | DecodeStep::Invalid { .. } | DecodeStep::Lost(_) => {
                contents.torn_tail = true;
                break;
            }
        }
    }
    Ok(contents)
}

/// Read and decode one checkpoint document (full snapshot or delta),
/// reporting the dialect it was written in alongside the parsed value.
fn read_checkpoint_doc(path: &Path) -> Result<(StoreFormat, JsonValue), String> {
    let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
    let format = StoreFormat::detect_document(&bytes);
    let doc = format.decode_document(&bytes)?;
    Ok((format, doc))
}

fn inspect_experiment(dir: &Path, opts: &Opts) {
    println!("experiment store: {}", dir.display());

    match read_meta(dir) {
        Ok(meta) => {
            println!("  name:      {}", meta.name);
            println!("  scheduler: {}", meta.initial.kind());
            println!(
                "  benchmark: {} (surface seed {})",
                meta.bench.preset, meta.bench.seed
            );
            println!("  run seed:  {}", meta.seed);
            println!(
                "  sim:       {} workers, horizon {}, stragglers {}, drop prob {}",
                meta.sim.workers, meta.sim.max_time, meta.sim.straggler_std, meta.sim.drop_prob
            );
        }
        Err(e) => println!("  meta: unreadable ({e})"),
    }

    inspect_checkpoints(dir);
    inspect_wal(dir, opts);
}

/// The layout a snapshot document's payload was written in, from its schema
/// tag: `v1` (keyed rows) or `v2` (positional rows).
fn layout(payload: &[u8]) -> String {
    let schema = find_field(payload, 0, "schema")
        .ok()
        .flatten()
        .and_then(|mut at| get_value(payload, &mut at).ok());
    match schema.as_ref().and_then(JsonValue::as_str) {
        Some(tag) => tag
            .strip_prefix("asha-store-snapshot-")
            .unwrap_or(tag)
            .to_owned(),
        None => "?".to_owned(),
    }
}

/// The checkpoint chain: every full snapshot in sequence order, each
/// followed by its delta chain (if any), with per-file dialect and size and
/// the layout of the document each file restores — a delta's is that of
/// its base with the chain patched on, so an old store resumed under new
/// code shows as a v1 snapshot followed by v2 deltas.
fn inspect_checkpoints(dir: &Path) {
    match asha::store::list_snapshots(dir) {
        Ok(snaps) if snaps.is_empty() => println!("  snapshots: none"),
        Ok(snaps) => {
            println!("  snapshots: {}", snaps.len());
            for (seq, path) in &snaps {
                let size = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                // The document the chain has restored so far, as a payload.
                let mut chain = None;
                match read_checkpoint_doc(path).and_then(|(f, doc)| {
                    Ok((
                        f,
                        Snapshot::from_json(&doc).map_err(|e| e.to_string())?,
                        doc,
                    ))
                }) {
                    Ok((format, snap, doc)) => {
                        let payload = chain.insert(Vec::new());
                        put_value(payload, &doc);
                        println!(
                            "    snap {seq:>6}: covers {:>7} events, {size:>9} bytes ({}, layout {})",
                            snap.events,
                            format.name(),
                            layout(payload)
                        )
                    }
                    Err(e) => println!("    snap {seq:>6}: UNREADABLE, {size:>9} bytes ({e})"),
                }
                // The delta chain hanging off this full snapshot, in chain
                // order; `load` validates each file's claimed position.
                for k in 1.. {
                    let Some(path) = [StoreFormat::BinaryV2, StoreFormat::JsonlV1]
                        .into_iter()
                        .map(|f| dir.join(asha::store::delta_file_name(*seq, k, f)))
                        .find(|p| p.exists())
                    else {
                        break;
                    };
                    let size = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                    match (DeltaDoc::load(dir, *seq, k), read_checkpoint_doc(&path)) {
                        (Ok(delta), Ok((format, _))) => {
                            chain = chain.and_then(|base| {
                                let (mut patch, mut patched) = (Vec::new(), Vec::new());
                                put_value(&mut patch, &delta.patch);
                                apply_bytes(&base, &patch, &mut patched).ok()?;
                                Some(patched)
                            });
                            println!(
                                "      delta {seq:>4}+{k}: covers {:>7} events, {size:>9} bytes ({}, layout {})",
                                delta.events,
                                format.name(),
                                chain.as_deref().map_or_else(|| "?".to_owned(), layout)
                            )
                        }
                        (Err(e), _) => {
                            println!("      delta {seq:>4}+{k}: UNREADABLE, {size:>9} bytes ({e})")
                        }
                        (_, Err(e)) => {
                            println!("      delta {seq:>4}+{k}: UNREADABLE, {size:>9} bytes ({e})")
                        }
                    }
                }
            }
        }
        Err(e) => println!("  snapshots: unreadable ({e})"),
    }
}

fn inspect_wal(dir: &Path, opts: &Opts) {
    let wal_path = dir.join(WAL_FILE);
    let dialect = std::fs::read(&wal_path)
        .map(|bytes| StoreFormat::detect_wal(&bytes))
        .unwrap_or_default();
    let contents = match opts.format {
        Some(format) => read_wal_forced(&wal_path, format).map_err(asha::store::Error::codec),
        None => read_wal(&wal_path),
    };
    match contents {
        Ok(contents) => {
            let telemetry: Vec<_> = contents.telemetry().collect();
            let stores = contents.records.len() - telemetry.len();
            println!(
                "  wal:       {} records ({} telemetry + {stores} store markers), {} dialect{}",
                contents.records.len(),
                telemetry.len(),
                opts.format.unwrap_or(dialect).name(),
                if opts.format.is_some() {
                    " (forced)"
                } else {
                    ""
                }
            );
            match (telemetry.first(), telemetry.last()) {
                (Some(first), Some(last)) => println!(
                    "    telemetry seq {}..={} over t [{:.3}, {:.3}]",
                    first.seq, last.seq, first.time, last.time
                ),
                _ => println!("    no telemetry yet"),
            }
            for record in &contents.records {
                if let WalRecord::Meta { time, event } = record {
                    println!("    t {time:>10.3}  {}", event.name());
                }
                if let WalRecord::SnapshotMarker { time, marker } = record {
                    match marker.delta() {
                        0 => println!(
                            "    t {time:>10.3}  snapshot marker: snap {} @ {} events",
                            marker.snap(),
                            marker.events()
                        ),
                        k => println!(
                            "    t {time:>10.3}  delta marker: snap {}+{k} @ {} events",
                            marker.snap(),
                            marker.events()
                        ),
                    }
                }
            }
            if contents.torn_tail {
                println!("    torn tail: one partial final record discarded (crash mid-append)");
            }
            if opts.dump {
                println!("  records:");
                for record in &contents.records {
                    println!("    {}", record.render_jsonl());
                }
            }
        }
        Err(e) => println!("  wal: {e}"),
    }
}

fn usage(code: i32) -> ! {
    println!("usage: store_inspect [--format jsonl-v1|binary-v2] [--dump] <experiment-dir | supervisor-root>");
    std::process::exit(code);
}

fn main() {
    let mut opts = Opts {
        format: None,
        dump: false,
    };
    let mut dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => usage(0),
            "--dump" => opts.dump = true,
            "--format" => {
                let name = args
                    .next()
                    .unwrap_or_else(|| fail("--format needs a value"));
                opts.format = Some(
                    StoreFormat::from_name(&name)
                        .unwrap_or_else(|| fail(format!("unknown format {name:?}"))),
                );
            }
            other if dir.is_none() && !other.starts_with('-') => dir = Some(other.to_owned()),
            other => fail(format!("unexpected argument {other:?}")),
        }
    }
    let Some(dir) = dir else { usage(2) };
    let dir = Path::new(&dir);

    let manifest_path = dir.join(MANIFEST_FILE);
    if manifest_path.exists() {
        let entries = read_manifest(&manifest_path).unwrap_or_else(|e| fail(e));
        println!(
            "supervisor root: {} ({} experiments)",
            dir.display(),
            entries.len()
        );
        for entry in &entries {
            println!("  {:<24} {}", entry.name, entry.status.as_str());
        }
        for entry in &entries {
            println!();
            inspect_experiment(&dir.join(&entry.name), &opts);
        }
        return;
    }

    if !dir.join(META_FILE).exists() {
        fail(format!(
            "{} has neither {MANIFEST_FILE} nor {META_FILE}",
            dir.display()
        ));
    }
    inspect_experiment(dir, &opts);
}
