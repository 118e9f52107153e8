//! The in-memory backend database.

use crate::error::EngineError;
use crate::eval::{execute, Bag, ExecStats};
use crate::update::{apply_statement, StatementResult};
use crate::Result;
use imp_sql::{Catalog, LogicalPlan, Resolver, Statement};
use imp_storage::{DeltaRecord, Row, Schema, Table};
use std::collections::BTreeMap;

/// Result of a query: output schema, result bag, execution statistics.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output schema.
    pub schema: Schema,
    /// Output rows with multiplicities.
    pub rows: Bag,
    /// Execution counters (scanned / skipped rows).
    pub stats: ExecStats,
}

impl QueryResult {
    /// Total output multiplicity.
    pub fn cardinality(&self) -> u64 {
        self.rows.iter().map(|(_, m)| *m as u64).sum()
    }

    /// Rows sorted by value with multiplicities folded — a canonical form
    /// used by tests to compare bags irrespective of order.
    pub fn canonical(&self) -> Vec<(Row, i64)> {
        canonical_bag(&self.rows)
    }
}

/// Fold duplicate rows and sort — canonical bag form for comparisons.
pub fn canonical_bag(bag: &Bag) -> Vec<(Row, i64)> {
    let mut map: BTreeMap<Row, i64> = BTreeMap::new();
    for (r, m) in bag {
        *map.entry(r.clone()).or_insert(0) += m;
    }
    map.into_iter().filter(|(_, m)| *m != 0).collect()
}

/// The backend database: named tables + a global snapshot version counter.
///
/// Every update statement commits under a fresh snapshot version; deltas
/// between versions are served from the per-table [`imp_storage::DeltaLog`]s.
#[derive(Debug, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    version: u64,
}

impl Database {
    /// Empty database at version 0.
    pub fn new() -> Database {
        Database::default()
    }

    /// Create an empty table.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<()> {
        let key = name.to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(EngineError::Storage(
                imp_storage::StorageError::DuplicateTable(key),
            ));
        }
        self.tables.insert(key.clone(), Table::new(key, schema));
        Ok(())
    }

    /// Register a pre-built table (used by the data generators).
    pub fn register_table(&mut self, table: Table) -> Result<()> {
        let key = table.name().to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(EngineError::Storage(
                imp_storage::StorageError::DuplicateTable(key),
            ));
        }
        self.tables.insert(key, table);
        Ok(())
    }

    /// Current snapshot version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Allocate the next snapshot version (one per update statement).
    pub fn next_version(&mut self) -> u64 {
        self.version += 1;
        self.version
    }

    /// Run one table mutation under the next snapshot version. The version
    /// is consumed only when `mutate` succeeds, so a statement that fails
    /// leaves [`Database::version`] where it was.
    pub(crate) fn commit<T>(
        &mut self,
        table: &str,
        mutate: impl FnOnce(&mut Table, u64) -> Result<T>,
    ) -> Result<(T, u64)> {
        let version = self.version + 1;
        let out = mutate(self.table_mut(table)?, version)?;
        self.version = version;
        Ok((out, version))
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables.get(&name.to_ascii_lowercase()).ok_or_else(|| {
            EngineError::Storage(imp_storage::StorageError::UnknownTable(name.to_string()))
        })
    }

    /// Mutable table access.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| {
                EngineError::Storage(imp_storage::StorageError::UnknownTable(name.to_string()))
            })
    }

    /// All table names.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Parse + resolve a SELECT into a plan.
    pub fn plan_sql(&self, sql: &str) -> Result<LogicalPlan> {
        match imp_sql::parse_one(sql)? {
            Statement::Select(s) => Ok(Resolver::new(self).resolve_select(&s)?),
            _ => Err(EngineError::Unsupported(
                "plan_sql expects a SELECT statement".into(),
            )),
        }
    }

    /// Execute a resolved plan.
    pub fn execute_plan(&self, plan: &LogicalPlan) -> Result<QueryResult> {
        let mut stats = ExecStats::default();
        let rows = execute(plan, self, &mut stats)?;
        Ok(QueryResult {
            schema: plan.schema(),
            rows,
            stats,
        })
    }

    /// Parse, resolve and execute a SELECT.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        let plan = self.plan_sql(sql)?;
        self.execute_plan(&plan)
    }

    /// Execute any statement (SELECT returns rows; updates return affected
    /// counts and commit a new snapshot version).
    pub fn execute_sql(&mut self, sql: &str) -> Result<StatementResult> {
        let stmt = imp_sql::parse_one(sql)?;
        self.execute_statement(&stmt)
    }

    /// Execute a parsed statement.
    pub fn execute_statement(&mut self, stmt: &Statement) -> Result<StatementResult> {
        apply_statement(self, stmt)
    }

    /// Delta records of `table` strictly after snapshot `version`.
    pub fn delta_since(&self, table: &str, version: u64) -> Result<&[DeltaRecord]> {
        Ok(self.table(table)?.delta_log().since(version))
    }

    /// VACUUM: compact every table's storage and truncate delta logs at or
    /// below `keep_after` (the oldest version any consumer still needs).
    /// Returns `(reclaimed row slots, dropped delta records)`.
    pub fn vacuum(&mut self, keep_after: u64) -> (usize, usize) {
        self.vacuum_by(|_| keep_after)
    }

    /// VACUUM with a per-table horizon: `keep_after(table)` is the oldest
    /// version any consumer of *that table's* log still needs, so a
    /// low-traffic table's lagging consumer no longer pins every other
    /// table's log. The callback receives the catalog key (lowercase),
    /// matching resolver/plan table names. Returns
    /// `(reclaimed row slots, dropped delta records)`.
    pub fn vacuum_by(&mut self, keep_after: impl Fn(&str) -> u64) -> (usize, usize) {
        let mut reclaimed = 0usize;
        let mut dropped = 0usize;
        for (key, table) in self.tables.iter_mut() {
            reclaimed += table.compact();
            let before = table.delta_log().len();
            let horizon = keep_after(key);
            table.delta_log_mut().truncate_through(horizon);
            dropped += before - table.delta_log().len();
        }
        (reclaimed, dropped)
    }

    /// Approximate heap footprint of all tables.
    pub fn heap_size(&self) -> usize {
        self.tables.values().map(Table::heap_size).sum()
    }
}

impl Catalog for Database {
    fn table_schema(&self, table: &str) -> Option<Schema> {
        self.tables
            .get(&table.to_ascii_lowercase())
            .map(|t| t.schema().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_storage::{row, DataType, Field};

    fn db_with_sales() -> Database {
        let mut db = Database::new();
        db.create_table(
            "sales",
            Schema::new(vec![
                Field::new("sid", DataType::Int),
                Field::new("brand", DataType::Str),
                Field::new("price", DataType::Int),
                Field::new("numsold", DataType::Int),
            ]),
        )
        .unwrap();
        let v = db.next_version();
        let rows = [
            row![1, "Lenovo", 349, 1],
            row![2, "Lenovo", 449, 2],
            row![3, "Apple", 1199, 1],
            row![4, "Apple", 3875, 1],
            row![5, "Dell", 1345, 1],
            row![6, "HP", 999, 4],
            row![7, "HP", 899, 1],
        ];
        for r in rows {
            db.table_mut("sales").unwrap().insert(r, v).unwrap();
        }
        db
    }

    #[test]
    fn running_example_qtop() {
        // Paper Fig. 1: only the Apple group passes HAVING.
        let db = db_with_sales();
        let res = db
            .query(
                "SELECT brand, SUM(price * numsold) AS rev FROM sales \
                 GROUP BY brand HAVING SUM(price * numsold) > 5000",
            )
            .unwrap();
        assert_eq!(res.canonical(), vec![(row!["Apple", 5074], 1)]);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = db_with_sales();
        assert!(db.create_table("sales", Schema::new(vec![])).is_err());
    }

    #[test]
    fn delta_since_reflects_updates() {
        let mut db = db_with_sales();
        let v0 = db.version();
        db.execute_sql("INSERT INTO sales VALUES (8, 'HP', 1299, 1)")
            .unwrap();
        let delta = db.delta_since("sales", v0).unwrap();
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].row, row![8, "HP", 1299, 1]);
    }
}
