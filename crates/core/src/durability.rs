//! The workspace-wide durability knob: *when does appended data become
//! crash-durable?* `asha-store`'s WAL asks it; `asha-obs`'s `JsonlWriter`,
//! whose logs a machine crash may cut short, always just flushes.
//!
//! Semantics, common to every writer that takes a [`Durability`]:
//!
//! * Appends always reach the OS (flushed through userspace buffers) at
//!   each commit point, so a *process* crash loses at most a torn tail.
//! * `fsync` cadence is what the variant controls: it bounds what a
//!   *machine* crash can lose.

use crate::error::Error;

/// When appended records become crash-durable (`fsync` cadence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Flush to the OS at every commit point but never fsync; rely on OS
    /// writeback. Fastest; a machine crash loses up to the writeback
    /// window.
    Flush,
    /// Fsync after every N committed records. The middle ground: bounded
    /// loss window, amortized fsync cost.
    EveryN(usize),
    /// Fsync at every commit point. Slowest, loses nothing.
    Sync,
}

impl Durability {
    /// Check the mode: an `EveryN` cadence must be positive. Decoders of
    /// untrusted input call this.
    pub fn validate(&self) -> Result<(), Error> {
        if let Durability::EveryN(0) = self {
            return Err(Error::config("fsync cadence must be positive"));
        }
        Ok(())
    }

    /// Whether an fsync is due after a commit point, given how many records
    /// were committed since the last fsync (including the current one).
    pub fn fsync_due(&self, since_sync: usize) -> bool {
        match self {
            Durability::Flush => false,
            Durability::EveryN(n) => since_sync >= (*n).max(1),
            Durability::Sync => true,
        }
    }
}

impl Default for Durability {
    /// Fsync every 64 records — the WAL's historical default.
    fn default() -> Self {
        Durability::EveryN(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsync_cadence() {
        assert!(!Durability::Flush.fsync_due(1_000_000));
        assert!(Durability::Sync.fsync_due(1));
        let every4 = Durability::EveryN(4);
        assert!(!every4.fsync_due(3));
        assert!(every4.fsync_due(4));
        // A zero cadence degrades to "every record", not a division hazard.
        assert!(Durability::EveryN(0).fsync_due(1));
    }

    #[test]
    fn validate_rejects_a_zero_cadence() {
        assert!(Durability::Flush.validate().is_ok());
        assert!(Durability::Sync.validate().is_ok());
        assert!(Durability::default().validate().is_ok());
        assert!(Durability::EveryN(0).validate().is_err());
    }
}
