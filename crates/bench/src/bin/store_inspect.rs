//! Inspect a durable experiment store on disk.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p asha-bench --bin store_inspect -- [--dump] DIR
//!     --dump          print every WAL record as its JSON line
//! ```
//!
//! `DIR` may be a single experiment directory (contains `meta.json`) or a
//! supervisor root (contains `manifest.json`); for a root, every listed
//! experiment is inspected. For each experiment the tool prints the
//! metadata summary, the checkpoint chain (full snapshots and their delta
//! chains: sequence, covered events, file dialect and size, and the
//! snapshot layout — `v1` keyed rows or `v2` positional ones), and the WAL's
//! shape: dialect, record counts, telemetry sequence range, store markers,
//! and whether a torn tail was discarded. A store written before the
//! redesign (`jsonl-v1`) is read in memory through `asha_store::upgrade`,
//! and nothing is written: the tool shows it as it is on disk.

use std::path::Path;

use asha::metrics::JsonValue;
use asha::store::binary::{decode_value, find_field, get_value, put_value};
use asha::store::delta::apply_bytes;
use asha::store::upgrade::{self, Checkpoint};
use asha::store::{
    read_manifest, read_meta, DeltaDoc, Snapshot, WalRecord, MANIFEST_FILE, META_FILE, WAL_FILE,
};

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn inspect_experiment(dir: &Path, dump: bool) {
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
    inspect_wal(dir, dump);
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

/// A checkpoint's payload decoded as `T`, beside the payload itself.
fn decode<T>(
    file: &Checkpoint,
    from_json: impl Fn(&JsonValue) -> Result<T, asha::store::Error>,
) -> Result<(T, Vec<u8>), String> {
    let payload = file.payload().map_err(|e| e.to_string())?;
    let doc = decode_value(&payload)?;
    Ok((from_json(&doc).map_err(|e| e.to_string())?, payload))
}

/// The checkpoint chain: every full snapshot in sequence order, each
/// followed by its delta chain (if any), with per-file dialect and size and
/// the layout of the document each file restores — a delta's is that of
/// its base with the chain patched on, so an old store resumed under new
/// code shows as a v1 snapshot followed by v2 deltas.
fn inspect_checkpoints(dir: &Path) {
    let files = match upgrade::checkpoints(dir) {
        Ok(files) => files,
        Err(e) => return println!("  snapshots: unreadable ({e})"),
    };
    match files.iter().filter(|f| f.delta == 0).count() {
        0 => println!("  snapshots: none"),
        n => println!("  snapshots: {n}"),
    }
    // The document the chain has restored so far, as a payload, and the
    // chain position it was restored to.
    let (mut chain, mut at): (Option<Vec<u8>>, _) = (None, None);
    for file in &files {
        let size = std::fs::metadata(&file.path).map_or(0, |m| m.len());
        let (seq, k, dialect) = (file.snap, file.delta, file.dialect);
        if at.replace((seq, k)) != k.checked_sub(1).map(|prev| (seq, prev)) {
            chain = None;
        }
        if k == 0 {
            match decode(file, Snapshot::from_json) {
                Ok((snap, payload)) => println!(
                    "    snap {seq:>6}: covers {:>7} events, {size:>9} bytes ({dialect}, layout {})",
                    snap.events,
                    layout(chain.insert(payload))
                ),
                Err(e) => println!("    snap {seq:>6}: UNREADABLE, {size:>9} bytes ({e})"),
            }
            continue;
        }
        let delta = decode(file, DeltaDoc::from_json).and_then(|(delta, _)| {
            let (snap, k_file) = (delta.snap, delta.delta);
            if (snap, k_file) == (seq, k) {
                Ok(delta)
            } else {
                Err(format!(
                    "delta chain mismatch: file says snap {snap} delta {k_file}"
                ))
            }
        });
        match delta {
            Ok(delta) => {
                chain = chain.and_then(|base| {
                    let (mut patch, mut patched) = (Vec::new(), Vec::new());
                    put_value(&mut patch, &delta.patch);
                    apply_bytes(&base, &patch, &mut patched).ok()?;
                    Some(patched)
                });
                println!(
                    "      delta {seq:>4}+{k}: covers {:>7} events, {size:>9} bytes ({dialect}, layout {})",
                    delta.events,
                    chain.as_deref().map_or_else(|| "?".to_owned(), layout)
                )
            }
            Err(e) => println!("      delta {seq:>4}+{k}: UNREADABLE, {size:>9} bytes ({e})"),
        }
    }
}

fn inspect_wal(dir: &Path, dump: bool) {
    match upgrade::read_wal(&dir.join(WAL_FILE)) {
        Ok((contents, dialect)) => {
            let telemetry: Vec<_> = contents.telemetry().collect();
            let stores = contents.records.len() - telemetry.len();
            println!(
                "  wal:       {} records ({} telemetry + {stores} store markers), {dialect} dialect",
                contents.records.len(),
                telemetry.len(),
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
            if dump {
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
    println!("usage: store_inspect [--dump] <experiment-dir | supervisor-root>");
    std::process::exit(code);
}

fn main() {
    let mut dump = false;
    let mut dir: Option<String> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--help" | "-h" => usage(0),
            "--dump" => dump = true,
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
            inspect_experiment(&dir.join(&entry.name), dump);
        }
        return;
    }

    if !dir.join(META_FILE).exists() {
        fail(format!(
            "{} has neither {MANIFEST_FILE} nor {META_FILE}",
            dir.display()
        ));
    }
    inspect_experiment(dir, dump);
}
