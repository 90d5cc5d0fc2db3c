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
//!
//! Everything is written through one buffered stdout; when its reader goes
//! away (`store_inspect DIR | head`), the tool stops quietly with status 0.
//! A missing `DIR`, an unknown flag or a second directory is a usage error
//! (exit 2, the usage line on stderr).

use std::io::{self, BufWriter, ErrorKind, Write};
use std::path::Path;

use asha::metrics::JsonValue;
use asha::store::binary::{decode_value, find_field, get_value, put_value};
use asha::store::delta::apply_bytes;
use asha::store::upgrade::{self, Checkpoint};
use asha::store::{
    read_manifest, read_meta, DeltaDoc, Snapshot, WalRecord, MANIFEST_FILE, META_FILE, WAL_FILE,
};
use asha_bench::cli::Cli;

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn inspect_experiment(out: &mut impl Write, dir: &Path, dump: bool) -> io::Result<()> {
    writeln!(out, "experiment store: {}", dir.display())?;

    match read_meta(dir) {
        Ok(meta) => {
            writeln!(out, "  name:      {}", meta.name)?;
            writeln!(out, "  scheduler: {}", meta.initial.kind())?;
            writeln!(
                out,
                "  benchmark: {} (surface seed {})",
                meta.bench.preset, meta.bench.seed
            )?;
            writeln!(out, "  run seed:  {}", meta.seed)?;
            writeln!(
                out,
                "  sim:       {} workers, horizon {}, stragglers {}, drop prob {}",
                meta.sim.workers, meta.sim.max_time, meta.sim.straggler_std, meta.sim.drop_prob
            )?;
        }
        Err(e) => writeln!(out, "  meta: unreadable ({e})")?,
    }

    inspect_checkpoints(out, dir)?;
    inspect_wal(out, dir, dump)
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
fn inspect_checkpoints(out: &mut impl Write, dir: &Path) -> io::Result<()> {
    let files = match upgrade::checkpoints(dir) {
        Ok(files) => files,
        Err(e) => return writeln!(out, "  snapshots: unreadable ({e})"),
    };
    match files.iter().filter(|f| f.delta == 0).count() {
        0 => writeln!(out, "  snapshots: none")?,
        n => writeln!(out, "  snapshots: {n}")?,
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
                Ok((snap, payload)) => writeln!(
                    out,
                    "    snap {seq:>6}: covers {:>7} events, {size:>9} bytes ({dialect}, layout {})",
                    snap.events,
                    layout(chain.insert(payload))
                )?,
                Err(e) => writeln!(out, "    snap {seq:>6}: UNREADABLE, {size:>9} bytes ({e})")?,
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
                writeln!(
                    out,
                    "      delta {seq:>4}+{k}: covers {:>7} events, {size:>9} bytes ({dialect}, layout {})",
                    delta.events,
                    chain.as_deref().map_or_else(|| "?".to_owned(), layout)
                )?
            }
            Err(e) => writeln!(
                out,
                "      delta {seq:>4}+{k}: UNREADABLE, {size:>9} bytes ({e})"
            )?,
        }
    }
    Ok(())
}

fn inspect_wal(out: &mut impl Write, dir: &Path, dump: bool) -> io::Result<()> {
    match upgrade::read_wal(&dir.join(WAL_FILE)) {
        Ok((contents, dialect)) => {
            let telemetry: Vec<_> = contents.telemetry().collect();
            let stores = contents.records.len() - telemetry.len();
            writeln!(
                out,
                "  wal:       {} records ({} telemetry + {stores} store markers), {dialect} dialect",
                contents.records.len(),
                telemetry.len(),
            )?;
            match (telemetry.first(), telemetry.last()) {
                (Some(first), Some(last)) => writeln!(
                    out,
                    "    telemetry seq {}..={} over t [{:.3}, {:.3}]",
                    first.seq, last.seq, first.time, last.time
                )?,
                _ => writeln!(out, "    no telemetry yet")?,
            }
            for record in &contents.records {
                if let WalRecord::Meta { time, event } = record {
                    writeln!(out, "    t {time:>10.3}  {}", event.name())?;
                }
                if let WalRecord::SnapshotMarker { time, marker } = record {
                    match marker.delta() {
                        0 => writeln!(
                            out,
                            "    t {time:>10.3}  snapshot marker: snap {} @ {} events",
                            marker.snap(),
                            marker.events()
                        )?,
                        k => writeln!(
                            out,
                            "    t {time:>10.3}  delta marker: snap {}+{k} @ {} events",
                            marker.snap(),
                            marker.events()
                        )?,
                    }
                }
            }
            if contents.torn_tail {
                writeln!(
                    out,
                    "    torn tail: one partial final record discarded (crash mid-append)"
                )?;
            }
            if dump {
                writeln!(out, "  records:")?;
                for record in &contents.records {
                    writeln!(out, "    {}", record.render_jsonl())?;
                }
            }
        }
        Err(e) => writeln!(out, "  wal: {e}")?,
    }
    Ok(())
}

const CLI: Cli = Cli {
    bin: "store_inspect",
    synopsis: "[--dump] <experiment-dir | supervisor-root>",
    flags: &["--dump"],
    positionals: 1,
};

/// Inspect the store or supervisor root at `dir`, writing to `out`.
fn run(out: &mut impl Write, dir: &Path, dump: bool) -> io::Result<()> {
    let manifest_path = dir.join(MANIFEST_FILE);
    if manifest_path.exists() {
        let entries = read_manifest(&manifest_path).unwrap_or_else(|e| fail(e));
        writeln!(
            out,
            "supervisor root: {} ({} experiments)",
            dir.display(),
            entries.len()
        )?;
        for entry in &entries {
            writeln!(out, "  {:<24} {}", entry.name, entry.status.as_str())?;
        }
        for entry in &entries {
            writeln!(out)?;
            inspect_experiment(out, &dir.join(&entry.name), dump)?;
        }
        return Ok(());
    }

    if !dir.join(META_FILE).exists() {
        fail(format!(
            "{} has neither {MANIFEST_FILE} nor {META_FILE}",
            dir.display()
        ));
    }
    inspect_experiment(out, dir, dump)
}

fn main() {
    let args = CLI.parse();
    let dir = Path::new(args.positional("directory"));
    let mut out = BufWriter::new(io::stdout().lock());
    match run(&mut out, dir, args.has("--dump")).and_then(|()| out.flush()) {
        Ok(()) => {}
        // The reader went away (`store_inspect DIR | head`): stop quietly.
        Err(e) if e.kind() == ErrorKind::BrokenPipe => {}
        Err(e) => fail(e),
    }
}
