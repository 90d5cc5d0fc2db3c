//! Durable experiment store for ASHA runs: write-ahead event log, full and
//! delta snapshots, crash recovery, and a multi-experiment supervisor.
//!
//! The store makes a tuning run a *recoverable* object. Every telemetry
//! event the run emits is appended to a write-ahead log with an explicit
//! fsync discipline ([`Durability`]), and once the WAL written since the
//! last checkpoint outweighs it (or every N jobs, see [`RunOptions`]) the
//! full run state — scheduler rungs/brackets, sampler cursors, raw RNG
//! words, and the simulator's event loop — is checkpointed: a full
//! snapshot file, or a *delta* (a structural diff against the previous
//! checkpoint) while the chain stays short. A checkpoint is encoded from the typed state straight
//! to `binary-v2` bytes, diffed and patched as bytes, and decoded from the
//! bytes straight back into typed state at the end of a recovery: no tree
//! is built on either path. Everything is written and
//! read as `binary-v2` (length-prefixed, CRC-guarded frames); a store in
//! `jsonl-v1` (one JSON object per line / per file, the original dialect)
//! is converted in place by [`upgrade`] when it is opened. Because every
//! component of the system is deterministic given its state and the RNG
//! stream, recovery after a crash (load the newest durable checkpoint —
//! base snapshot plus its delta chain — discard the WAL suffix past its
//! marker, continue) produces a run whose decisions, telemetry, and final
//! result are bit-for-bit identical to one that never crashed.
//!
//! Layers, bottom up:
//!
//! - [`binary`]: the byte-level toolkit for `binary-v2` — slicing-by-16
//!   CRC32, LEB128 varints, and *binvalue*, the compact tagged encoding of
//!   JSON-shaped documents, with a streaming writer, a tree decoder and
//!   in-place walkers.
//! - [`codec`]: one hand-rolled byte encoder and one byte decoder per
//!   persisted type (the vendored `serde` is a stub), with the tree forms
//!   derived from them; exact `f64` round-trips and non-finite loss
//!   encoding.
//! - [`mod@format`]: the `binary-v2` codec — the record and document
//!   decoders and encoders.
//! - [`delta`]: structural diff/patch computed on binvalue bytes, the
//!   engine behind delta snapshots.
//! - [`wal`]: the append-only log of typed [`WalRecord`]s — scheduler
//!   decisions, job events, checkpoint markers, lifecycle events — with
//!   torn-tail-tolerant reading.
//! - [`snapshot`]: crash-safe checkpoint files (full and delta) and the
//!   [`StoredScheduler`] wrapper that restores any supported scheduler
//!   kind from data.
//! - [`tail`]: live WAL following ([`WalTail`]), every record rendered as
//!   its JSON line — what the service streams to subscribers.
//! - [`experiment`]: one experiment directory (`meta.json` + WAL +
//!   checkpoints) and [`DurableRun`], the persisting sim driver with
//!   [`DurableRun::create`] / [`DurableRun::resume`]; plus
//!   [`replay_scheduler`] for scheduler-level WAL-suffix replay in
//!   executor-driven runs.
//! - [`supervisor`]: many named experiments in one process, each on a
//!   worker thread with independent pause/resume/abort, under a crash-safe
//!   manifest.
//! - [`upgrade`]: the one reader of `jsonl-v1` — converts a pre-redesign
//!   store to `binary-v2` in place, or reads it in memory for tools — and
//!   of snapshot schema v1's keyed rows.
//!
//! # Example: kill-and-recover
//!
//! ```
//! use asha_store::{BenchSpec, DurableRun, ExperimentMeta, RunOptions, SchedulerState};
//! use asha_core::{Asha, AshaConfig};
//! use asha_sim::SimConfig;
//! use asha_surrogate::BenchmarkModel;
//!
//! let spec = BenchSpec { preset: "svm_vehicle".into(), seed: 1 };
//! let bench = spec.build().unwrap();
//! // The scheduler samples from the benchmark's own search space.
//! let space = bench.space().clone();
//! let scheduler = Asha::new(space.clone(), AshaConfig::new(1.0, 27.0, 3.0));
//! let meta = ExperimentMeta {
//!     name: "demo".into(),
//!     space,
//!     initial: SchedulerState::Asha(scheduler.export_state()),
//!     sampler: None,
//!     seed: 7,
//!     sim: SimConfig::new(4, 40.0),
//!     bench: spec,
//! };
//! let dir = std::env::temp_dir().join(format!("asha-store-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//!
//! // Run a while, then "crash" (drop without finishing).
//! let mut run = DurableRun::create(&dir, &meta, &bench, RunOptions::default()).unwrap();
//! run.run_until_jobs(10).unwrap();
//! drop(run);
//!
//! // Recover and finish: same result as a run that never stopped.
//! let resumed = DurableRun::resume(&dir, &meta, &bench, RunOptions::default()).unwrap();
//! let result = resumed.run_to_completion().unwrap();
//! assert!(result.jobs_completed >= 10);
//! std::fs::remove_dir_all(&dir).ok();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
pub mod codec;
pub mod delta;
mod error;
pub mod experiment;
pub mod format;
pub mod metrics;
pub mod snapshot;
pub mod supervisor;
pub mod tail;
pub mod upgrade;
pub mod wal;

pub use crate::error::{Error, ErrorKind, StoreError};
pub use crate::experiment::{
    read_meta, replay_scheduler, write_meta, BenchSpec, DurableRun, ExperimentMeta, RunOptions,
    WalRecorder, META_FILE, META_SCHEMA, WAL_FILE,
};
pub use crate::format::{DecodeStep, EncodeBuf};
pub use crate::metrics::StoreMetrics;
pub use crate::snapshot::{
    delta_file_name, list_snapshots, load_latest, write_document, DeltaDoc, SamplerSpec, Snapshot,
    StoredScheduler, DELTA_SCHEMA, SNAPSHOT_SCHEMA,
};
pub use crate::supervisor::{
    read_manifest, ExperimentStatus, ExperimentSupervisor, ManifestEntry, StatusListener,
    MANIFEST_FILE, MANIFEST_SCHEMA,
};
pub use crate::tail::{LineTag, WalChunk, WalTail};
pub use crate::wal::{
    read_wal, Durability, MarkerRef, SnapMarker, StoreEvent, WalContents, WalRecord, WalWriter,
};
pub use asha_core::SchedulerState;
