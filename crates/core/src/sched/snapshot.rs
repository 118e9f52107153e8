//! Versioned published sketch snapshots.
//!
//! The USE/rewrite path of [`crate::middleware::Imp::execute`] reads
//! sketches *without* blocking maintenance: after every state change,
//! whoever holds the state lock publishes an immutable, epoch-stamped
//! [`ShardSnapshot`] of the store (`Arc`-shared plans and sketch bits)
//! into the [`SnapshotBoard`]'s one slot. Readers and writers lock the
//! slot only to clone or swap the `Arc`.

use crate::advisor::Lifecycle;
use imp_sketch::SketchSet;
use imp_sql::{LogicalPlan, QueryTemplate};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One published sketch: everything the query path needs to decide reuse
/// and rewrite, shared by `Arc` (cloning the struct copies no sketch or
/// plan data).
#[derive(Debug, Clone)]
pub struct PublishedSketch {
    /// Store key.
    pub template: QueryTemplate,
    /// Original SQL of the capturing query.
    pub sql: Arc<str>,
    /// Resolved plan (subsumption checks).
    pub plan: Arc<LogicalPlan>,
    /// Base tables (staleness checks).
    pub tables: Arc<[String]>,
    /// The sketch, valid as of `version`.
    pub sketch: Arc<SketchSet>,
    /// Database version the sketch is valid for.
    pub version: u64,
    /// Advisor lifecycle rung at publication (introspection: `/sketches`).
    pub lifecycle: Lifecycle,
    /// Heap bytes of the stored sketch state at publication.
    pub state_bytes: usize,
}

/// Immutable snapshot of the store's sketches.
#[derive(Debug, Default)]
pub struct ShardSnapshot {
    /// Board epoch at publication (0 = never published).
    pub epoch: u64,
    /// The store's sketches at that epoch.
    pub sketches: Vec<PublishedSketch>,
}

/// One snapshot slot, swapped atomically under a short mutex.
#[derive(Debug, Default)]
pub struct SnapshotBoard {
    slot: Mutex<Arc<ShardSnapshot>>,
    epoch: AtomicU64,
}

impl SnapshotBoard {
    /// Empty board.
    pub fn new() -> SnapshotBoard {
        SnapshotBoard::default()
    }

    /// Publish `sketches` as the new snapshot; returns its epoch.
    pub fn publish(&self, sketches: Vec<PublishedSketch>) -> u64 {
        let mut slot = self.slot.lock();
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        *slot = Arc::new(ShardSnapshot { epoch, sketches });
        epoch
    }

    /// The current snapshot (O(1): clones the `Arc`).
    pub fn read(&self) -> Arc<ShardSnapshot> {
        Arc::clone(&self.slot.lock())
    }

    /// Highest epoch published so far.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_bumps_epoch_and_swaps_slot() {
        let board = SnapshotBoard::new();
        assert_eq!(board.epoch(), 0);
        assert_eq!(board.read().epoch, 0);
        let e1 = board.publish(Vec::new());
        let first = board.read();
        let e2 = board.publish(Vec::new());
        assert!(e1 < e2);
        assert_eq!(first.epoch, e1, "a reader keeps the snapshot it read");
        assert_eq!(board.read().epoch, e2);
        assert_eq!(board.epoch(), e2);
    }
}
