//! Per-table delta routing.
//!
//! The router is the scheduler's single ingestion point: each committed
//! update is read out of the backend's delta log **once**, interned into
//! a shared [`TableDelta`] (rows are `Arc`-backed [`Row`]s deduplicated
//! by a [`RowInterner`], so the inbox holds pointers, not payloads), and
//! only when a stored sketch references the table. A table nobody
//! references is never materialised at all.
//!
//! Batches carry per-record versions: a maintainer skips
//! entries at or below its own maintained version, so routed batches may
//! safely overlap history a sketch has already consumed (registration
//! races, on-demand maintenance overtaking the queue). Per table, the
//! router guarantees batches cover disjoint, contiguous, monotonically
//! increasing version ranges.

use imp_engine::Database;
use imp_storage::{FxHashMap, FxHashSet, Row, RowInterner};
use std::sync::Arc;

/// One routed change: a shared row payload with signed multiplicity,
/// tagged with the snapshot version of the statement that produced it.
#[derive(Debug, Clone)]
pub struct RoutedEntry {
    /// The affected tuple (`Arc`-shared; clone is O(1)).
    pub row: Row,
    /// Signed multiplicity (+n insert, −n delete).
    pub mult: i64,
    /// Snapshot version of the producing statement.
    pub version: u64,
}

/// One table's update batch, shared (`Arc`) by every sketch over the
/// table. Cheap to ship between threads: entries hold `Arc` rows and
/// plain integers.
#[derive(Debug)]
pub struct TableDelta {
    /// The updated table (lowercase).
    pub table: String,
    /// Entries are strictly after this version…
    pub from_version: u64,
    /// …and at most this version (the max record version contained).
    pub to_version: u64,
    /// The changes, in log order.
    pub entries: Vec<RoutedEntry>,
}

/// Routes each table's delta-log suffix into the sketch store's inbox.
#[derive(Debug, Default)]
pub struct DeltaRouter {
    /// Tables at least one stored sketch references. Interest is sticky:
    /// a table whose last sketch is dropped keeps being routed (harmless,
    /// version-filtered batches) until restart.
    interest: FxHashSet<String>,
    /// Table → highest version already routed.
    last_routed: FxHashMap<String, u64>,
    /// Dedupe row payloads once, for all sketches. Self-bounding: the
    /// interner flushes its cache when it outgrows
    /// `imp_storage::pool::ROW_INTERNER_LIMIT` distinct rows, so a stream of
    /// fresh inserts cannot pin payloads for the router's lifetime
    /// (in-flight batches keep their own `Arc`s).
    interner: RowInterner,
}

impl DeltaRouter {
    /// Fresh router with no interests.
    pub fn new() -> DeltaRouter {
        DeltaRouter::default()
    }

    /// Register interest in `tables`. The first registration of a table
    /// starts routing *after* the table's current log tail — the
    /// registering sketch's capture already covers everything before it.
    pub fn register(&mut self, db: &Database, tables: &[String]) {
        for table in tables {
            let key = table.to_ascii_lowercase();
            self.interest.insert(key.clone());
            self.last_routed.entry(key).or_insert_with(|| {
                db.table(table)
                    .ok()
                    .and_then(|t| t.delta_log().all().last().map(|r| r.version))
                    .unwrap_or(0)
            });
        }
    }

    /// Build the shared batch for `table`'s unrouted log suffix, advancing
    /// the routing cursor. `None` when nobody is interested or nothing new
    /// was logged.
    pub fn collect(&mut self, db: &Database, table: &str) -> Option<Arc<TableDelta>> {
        let key = table.to_ascii_lowercase();
        if !self.interest.contains(&key) {
            return None;
        }
        let from_version = *self.last_routed.get(&key)?;
        let records = db.delta_since(&key, from_version).ok()?;
        if records.is_empty() {
            return None;
        }
        let mut entries = Vec::with_capacity(records.len());
        let mut to_version = from_version;
        for r in records {
            to_version = to_version.max(r.version);
            entries.push(RoutedEntry {
                row: self.interner.intern(r.row.clone()),
                mult: r.op.sign() * r.mult as i64,
                version: r.version,
            });
        }
        self.last_routed.insert(key.clone(), to_version);
        Some(Arc::new(TableDelta {
            table: key,
            from_version,
            to_version,
            entries,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_storage::{row, DataType, Field, Schema};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "t",
            Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Int),
            ]),
        )
        .unwrap();
        db.table_mut("t").unwrap().bulk_load([row![1, 10]]).unwrap();
        db
    }

    #[test]
    fn uninterested_tables_are_never_materialised() {
        let mut db = db();
        let mut router = DeltaRouter::new();
        db.execute_sql("INSERT INTO t VALUES (2, 20)").unwrap();
        assert!(router.collect(&db, "t").is_none());
    }

    #[test]
    fn registration_skips_history_then_routes_contiguously() {
        let mut db = db();
        let mut router = DeltaRouter::new();
        db.execute_sql("INSERT INTO t VALUES (2, 20)").unwrap();
        router.register(&db, &["t".into()]);
        // History before registration is covered by the capture.
        assert!(router.collect(&db, "t").is_none());
        db.execute_sql("INSERT INTO t VALUES (3, 30)").unwrap();
        db.execute_sql("DELETE FROM t WHERE k = 1").unwrap();
        let batch = router.collect(&db, "t").unwrap();
        assert_eq!(batch.entries.len(), 2);
        assert_eq!(batch.entries[0].mult, 1);
        assert_eq!(batch.entries[1].mult, -1);
        assert!(batch.from_version < batch.to_version);
        // The cursor advanced: nothing left to route.
        assert!(router.collect(&db, "t").is_none());
    }

    /// A second sketch over a routed table registers it again: the
    /// cursor stays where routing left it, so nothing logged in between
    /// is skipped.
    #[test]
    fn re_registering_a_table_keeps_its_cursor() {
        let mut db = db();
        let mut router = DeltaRouter::new();
        router.register(&db, &["t".into()]);
        db.execute_sql("INSERT INTO t VALUES (4, 40)").unwrap();
        router.register(&db, &["t".into()]);
        let batch = router.collect(&db, "t").unwrap();
        assert_eq!(batch.entries.len(), 1);
    }

    #[test]
    fn shared_rows_are_interned_across_batches() {
        let mut db = db();
        let mut router = DeltaRouter::new();
        router.register(&db, &["t".into()]);
        db.execute_sql("INSERT INTO t VALUES (5, 50)").unwrap();
        let a = router.collect(&db, "t").unwrap();
        db.execute_sql("DELETE FROM t WHERE k = 5").unwrap();
        let b = router.collect(&db, "t").unwrap();
        // Same tuple payload → same allocation through the interner.
        assert_eq!(a.entries[0].row.ptr_id(), b.entries[0].row.ptr_id());
    }
}
