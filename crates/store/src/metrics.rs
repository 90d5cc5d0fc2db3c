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

use asha_obs::{SharedCounter, SharedHistogram};

/// Shared latency histograms and counters for the store's durability hot
/// paths.
///
/// All histogram observations are wall-clock seconds from a monotonic
/// [`std::time::Instant`] pair taken around the operation.
#[derive(Debug)]
pub struct StoreMetrics {
    /// One WAL record append (userspace buffer write, plus any
    /// policy-triggered fsync it absorbed).
    pub wal_append: SharedHistogram,
    /// One WAL flush+fsync.
    pub wal_fsync: SharedHistogram,
    /// One full snapshot write (serialize, temp file, fsync, rename).
    pub snapshot_write: SharedHistogram,
    /// One delta snapshot write (diff, serialize, temp file, fsync,
    /// rename).
    pub snapshot_delta_write: SharedHistogram,
    /// Bytes written by full snapshots.
    pub snapshot_full_bytes: SharedCounter,
    /// Bytes written by delta snapshots. Comparing against
    /// `snapshot_full_bytes` shows what the delta chain saves.
    pub snapshot_delta_bytes: SharedCounter,
}

impl StoreMetrics {
    /// A fresh, zeroed bundle behind an [`Arc`] ready to share across run
    /// workers.
    pub fn new() -> Arc<StoreMetrics> {
        Arc::new(StoreMetrics {
            wal_append: SharedHistogram::latency(),
            wal_fsync: SharedHistogram::latency(),
            snapshot_write: SharedHistogram::latency(),
            snapshot_delta_write: SharedHistogram::latency(),
            snapshot_full_bytes: SharedCounter::new(),
            snapshot_delta_bytes: SharedCounter::new(),
        })
    }
}
