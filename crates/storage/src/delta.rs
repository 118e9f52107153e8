//! Snapshot-versioned delta logs.
//!
//! IMP assumes "the DBMS uses snapshot isolation and we can use snapshot
//! identifiers used by the database internally to identify versions of
//! sketches and of the database" (paper §2). The backend substrate keeps a
//! per-table [`DeltaLog`]: every insert/delete is appended tagged with the
//! snapshot version of the update that produced it. Maintenance then
//! retrieves `Δ(D_v, D_now)` as the log suffix after version `v` — exactly
//! the paper's "fetch only delta tuples of updates that were executed after
//! the sketch was last maintained" (§8.1).

use crate::row::Row;

/// Insert or delete (the `Δ+` / `Δ-` tags of paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeltaOp {
    /// `Δ+t` — tuple inserted.
    Insert,
    /// `Δ-t` — tuple deleted.
    Delete,
}

impl DeltaOp {
    /// Signed multiplicity contribution: +1 for inserts, -1 for deletes.
    pub fn sign(self) -> i64 {
        match self {
            DeltaOp::Insert => 1,
            DeltaOp::Delete => -1,
        }
    }
}

/// One logged change.
#[derive(Debug, Clone)]
pub struct DeltaRecord {
    /// Snapshot version of the update statement that produced this change.
    pub version: u64,
    /// Insert or delete.
    pub op: DeltaOp,
    /// The affected tuple (full row image).
    pub row: Row,
    /// Multiplicity (bag semantics: the same tuple may be touched n times).
    pub mult: u64,
}

/// Append-only per-table change log ordered by version.
#[derive(Debug, Default, Clone)]
pub struct DeltaLog {
    records: Vec<DeltaRecord>,
    /// Version of the last record ever appended; truncation keeps it.
    last_version: u64,
}

impl DeltaLog {
    /// Empty log.
    pub fn new() -> DeltaLog {
        DeltaLog::default()
    }

    /// Append a change at `version`. Versions must be non-decreasing.
    pub fn append(&mut self, version: u64, op: DeltaOp, row: Row, mult: u64) {
        debug_assert!(
            self.records.last().is_none_or(|r| r.version <= version),
            "delta log versions must be non-decreasing"
        );
        self.records.push(DeltaRecord {
            version,
            op,
            row,
            mult,
        });
        self.last_version = version;
    }

    /// Version of the last change ever logged (0 if none), whether or not
    /// truncation has dropped it since: a consumer at a lower version has
    /// changes to read, or lost them to truncation.
    pub fn last_version(&self) -> u64 {
        self.last_version
    }

    /// All records strictly after `version` (the delta an incremental
    /// maintenance run consumes).
    pub fn since(&self, version: u64) -> &[DeltaRecord] {
        // Binary search for the first record with version > `version`.
        let idx = self.records.partition_point(|r| r.version <= version);
        &self.records[idx..]
    }

    /// Entire log.
    pub fn all(&self) -> &[DeltaRecord] {
        &self.records
    }

    /// Number of logged changes.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True iff nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drop records at or before `version` (log truncation after all
    /// sketches have been maintained past it).
    pub fn truncate_through(&mut self, version: u64) {
        let idx = self.records.partition_point(|r| r.version <= version);
        self.records.drain(..idx);
    }

    /// Approximate heap footprint.
    pub fn heap_size(&self) -> usize {
        self.records.capacity() * std::mem::size_of::<DeltaRecord>()
            + self
                .records
                .iter()
                .map(|r| r.row.heap_size())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    #[test]
    fn since_returns_suffix() {
        let mut log = DeltaLog::new();
        log.append(1, DeltaOp::Insert, row![1], 1);
        log.append(2, DeltaOp::Insert, row![2], 1);
        log.append(2, DeltaOp::Delete, row![1], 1);
        log.append(5, DeltaOp::Insert, row![3], 2);

        assert_eq!(log.since(0).len(), 4);
        assert_eq!(log.since(1).len(), 3);
        assert_eq!(log.since(2).len(), 1);
        assert_eq!(log.since(5).len(), 0);
        assert_eq!(log.since(99).len(), 0);
    }

    #[test]
    fn truncate() {
        let mut log = DeltaLog::new();
        log.append(1, DeltaOp::Insert, row![1], 1);
        log.append(3, DeltaOp::Insert, row![2], 1);
        log.truncate_through(1);
        assert_eq!(log.len(), 1);
        assert_eq!(log.all()[0].version, 3);
    }

    #[test]
    fn sign() {
        assert_eq!(DeltaOp::Insert.sign(), 1);
        assert_eq!(DeltaOp::Delete.sign(), -1);
    }
}
