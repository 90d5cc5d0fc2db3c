//! Durability-plane metrics: where the store spends its time on disk.
//!
//! [`StoreMetrics`] is a small bundle of concurrent latency histograms and
//! counters (from [`asha_obs::shared`]) covering the operations whose cost
//! dominates a durable run: WAL record appends, WAL fsyncs, and full and
//! delta snapshot writes. The store never creates one itself — a host (the
//! service daemon, a bench harness) attaches a handle via
//! [`ExperimentSupervisor::set_metrics`](crate::ExperimentSupervisor::set_metrics)
//! or [`WalWriter::set_metrics`](crate::WalWriter::set_metrics), and every
//! run worker under that supervisor records into the same shared cells.
//! With no handle attached (the default, and all standalone use), the hot
//! paths skip the clock reads entirely.

use std::sync::Arc;

asha_obs::metric_cells! {
    /// Shared latency histograms and counters for the store's durability
    /// hot paths, with the daemon's metrics table rows for them.
    ///
    /// All histogram observations are wall-clock seconds from a monotonic
    /// [`std::time::Instant`] pair taken around the operation.
    pub struct StoreMetrics {
        /// Userspace buffer write, plus any policy-triggered fsync it absorbed.
        pub wal_append: histogram "asha_wal_append_seconds" "WAL record append latency",
        pub wal_fsync: histogram "asha_wal_fsync_seconds" "WAL flush+fsync latency",
        /// Serialize, temp file, fsync, rename.
        pub snapshot_write: histogram "asha_snapshot_write_seconds"
            "Experiment snapshot write latency",
        pub snapshot_delta_write: histogram "asha_snapshot_delta_write_seconds"
            "Delta snapshot diff+write latency",
        pub snapshot_full_bytes: counter "asha_snapshot_full_bytes_total"
            "Bytes written by full snapshots",
        /// Comparing against `snapshot_full_bytes` shows what the delta
        /// chain saves.
        pub snapshot_delta_bytes: counter "asha_snapshot_delta_bytes_total"
            "Bytes written by delta snapshots",
    }
}

impl StoreMetrics {
    /// A fresh, zeroed bundle behind an [`Arc`] ready to share across run
    /// workers.
    pub fn new() -> Arc<StoreMetrics> {
        Arc::default()
    }
}
