//! Update execution: INSERT / DELETE / UPDATE / CREATE TABLE.
//!
//! Every update statement commits under a fresh snapshot version; the
//! delta model of paper §4.2 treats an UPDATE as a delete of the old tuple
//! followed by an insert of the new one, which is exactly how it is logged
//! here.
//!
//! An INSERT's literal VALUES cells arrive from the parser as values and
//! are stored as they are; only other cells are resolved and evaluated.
//!
//! The victim search of DELETE and UPDATE is the SELECT scan: range
//! constraints of the predicate prune chunks and pre-select rows in
//! storage, the full predicate decides. Both statements are atomic —
//! victims and replacement rows are determined before anything is
//! written, so an evaluation error leaves table, delta log and
//! [`Database::version`] untouched.

use crate::database::{Database, QueryResult};
use crate::error::EngineError;
use crate::eval::{extract_prune_ranges, PruneRanges};
use crate::Result;
use imp_sql::{AstExpr, Catalog, Expr, Resolver, Statement};
use imp_storage::{Field, Row, Schema, Value};

/// Outcome of executing a statement.
#[derive(Debug, Clone)]
pub enum StatementResult {
    /// SELECT output.
    Rows(QueryResult),
    /// EXPLAIN output: the rendered logical plan.
    Explained(String),
    /// Update outcome: affected row count and the snapshot version the
    /// change committed at.
    Affected {
        /// Table changed.
        table: String,
        /// Rows inserted + deleted (an UPDATE counts each row twice:
        /// one delete + one insert in the delta model).
        count: u64,
        /// Commit version.
        version: u64,
    },
    /// DDL succeeded.
    Created,
}

/// Execute `stmt` against `db`.
pub fn apply_statement(db: &mut Database, stmt: &Statement) -> Result<StatementResult> {
    match stmt {
        Statement::Select(s) => {
            let plan = Resolver::new(db).resolve_select(s)?;
            Ok(StatementResult::Rows(db.execute_plan(&plan)?))
        }
        Statement::Explain(s) => {
            let plan = Resolver::new(db).resolve_select(s)?;
            Ok(StatementResult::Explained(plan.explain()))
        }
        Statement::CreateTable { name, columns } => {
            let fields = columns
                .iter()
                .map(|(n, t)| Field::nullable(n.clone(), *t))
                .collect();
            db.create_table(name, Schema::new(fields))?;
            Ok(StatementResult::Created)
        }
        Statement::Insert {
            table,
            columns,
            rows,
        } => insert(db, table, columns.as_deref(), rows),
        Statement::Delete { table, filter } => delete(db, table, filter.as_ref()),
        Statement::Update {
            table,
            sets,
            filter,
        } => update(db, table, sets, filter.as_ref()),
    }
}

fn insert(
    db: &mut Database,
    table: &str,
    columns: Option<&[String]>,
    rows: &[Vec<AstExpr>],
) -> Result<StatementResult> {
    let schema = db
        .table_schema(table)
        .ok_or_else(|| EngineError::Sql(imp_sql::SqlError::UnknownTable(table.into())))?;
    // Map provided columns to schema positions.
    let positions: Vec<usize> = match columns {
        None => (0..schema.arity()).collect(),
        Some(cols) => cols
            .iter()
            .map(|c| {
                schema
                    .resolve(None, c)
                    .map_err(|_| EngineError::Sql(imp_sql::SqlError::UnknownColumn(c.clone())))
            })
            .collect::<Result<_>>()?,
    };
    let resolver = Resolver::new(db);
    let (empty_schema, empty) = (Schema::empty(), Row::new(vec![]));
    let mut materialized = Vec::with_capacity(rows.len());
    for row_exprs in rows {
        if row_exprs.len() != positions.len() {
            return Err(EngineError::Execution(format!(
                "INSERT expects {} values, found {}",
                positions.len(),
                row_exprs.len()
            )));
        }
        let mut vals = vec![Value::Null; schema.arity()];
        for (pos, e) in positions.iter().zip(row_exprs) {
            vals[*pos] = match e {
                AstExpr::Literal(value) => value.clone(),
                // Other VALUES expressions are constant: resolve over the
                // empty schema.
                e => resolver.resolve_expr(e, &empty_schema)?.eval(&empty)?,
            };
        }
        materialized.push(Row::new(vals));
    }
    let version = db.next_version();
    let count = materialized.len() as u64;
    let t = db.table_mut(table)?;
    for row in materialized {
        t.insert(row, version)?;
    }
    Ok(StatementResult::Affected {
        table: table.to_ascii_lowercase(),
        count,
        version,
    })
}

/// The qualified schema of a DELETE / UPDATE target and the statement's
/// resolved `WHERE` clause.
fn dml_target(
    db: &Database,
    table: &str,
    filter: Option<&AstExpr>,
) -> Result<(Schema, Option<Expr>)> {
    let schema = db
        .table_schema(table)
        .ok_or_else(|| EngineError::Sql(imp_sql::SqlError::UnknownTable(table.into())))?;
    let qualified = schema.with_qualifier(&table.to_ascii_lowercase());
    let predicate = match filter {
        Some(f) => Some(Resolver::new(db).resolve_expr(f, &qualified)?),
        None => None,
    };
    Ok((qualified, predicate))
}

/// Evaluate an optional DML predicate on one row (absent = every row).
fn matches(predicate: Option<&Expr>, row: &Row) -> Result<bool> {
    Ok(match predicate {
        Some(p) => p.eval_predicate(row)?,
        None => true,
    })
}

fn delete(db: &mut Database, table: &str, filter: Option<&AstExpr>) -> Result<StatementResult> {
    let (_, predicate) = dml_target(db, table, filter)?;
    let prune = predicate.as_ref().and_then(extract_prune_ranges);
    let (deleted, version) = db.commit(table, |t, version| {
        t.delete_where(
            version,
            prune.as_ref().map(PruneRanges::as_scan_arg),
            |row| matches(predicate.as_ref(), row),
        )
    })?;
    Ok(StatementResult::Affected {
        table: table.to_ascii_lowercase(),
        count: deleted.len() as u64,
        version,
    })
}

fn update(
    db: &mut Database,
    table: &str,
    sets: &[(String, AstExpr)],
    filter: Option<&AstExpr>,
) -> Result<StatementResult> {
    let (qualified, predicate) = dml_target(db, table, filter)?;
    let resolver = Resolver::new(db);
    let assignments: Vec<(usize, Expr)> = sets
        .iter()
        .map(|(col, e)| {
            let idx = qualified
                .resolve(None, col)
                .map_err(|_| EngineError::Sql(imp_sql::SqlError::UnknownColumn(col.clone())))?;
            Ok((idx, resolver.resolve_expr(e, &qualified)?))
        })
        .collect::<Result<_>>()?;
    let prune = predicate.as_ref().and_then(extract_prune_ranges);

    // Delta model: UPDATE = DELETE old ∪ INSERT new at one version.
    let (replaced, version) = db.commit(table, |t, version| {
        t.update_where(
            version,
            prune.as_ref().map(PruneRanges::as_scan_arg),
            |row| matches(predicate.as_ref(), row),
            |old| {
                let mut vals = old.values().to_vec();
                for (idx, e) in &assignments {
                    vals[*idx] = e.eval(old)?;
                }
                Ok(Row::new(vals))
            },
        )
    })?;
    Ok(StatementResult::Affected {
        table: table.to_ascii_lowercase(),
        count: replaced as u64 * 2,
        version,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_storage::{row, DataType, DeltaOp};

    fn db() -> Database {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE t (a INT, b INT)").unwrap();
        db.execute_sql("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
            .unwrap();
        db
    }

    #[test]
    fn insert_then_query() {
        let db = db();
        let r = db.query("SELECT a FROM t WHERE b >= 20").unwrap();
        assert_eq!(r.canonical(), vec![(row![2], 1), (row![3], 1)]);
    }

    #[test]
    fn insert_with_column_list() {
        let mut db = db();
        db.execute_sql("INSERT INTO t (b, a) VALUES (99, 9)")
            .unwrap();
        let r = db.query("SELECT a, b FROM t WHERE a = 9").unwrap();
        assert_eq!(r.canonical(), vec![(row![9, 99], 1)]);
    }

    #[test]
    fn delete_with_predicate() {
        let mut db = db();
        let StatementResult::Affected { count, .. } =
            db.execute_sql("DELETE FROM t WHERE b > 15").unwrap()
        else {
            panic!()
        };
        assert_eq!(count, 2);
        assert_eq!(db.query("SELECT * FROM t").unwrap().cardinality(), 1);
    }

    #[test]
    fn update_is_delete_plus_insert_in_log() {
        let mut db = db();
        let v0 = db.version();
        db.execute_sql("UPDATE t SET b = b + 1 WHERE a = 1")
            .unwrap();
        let delta = db.delta_since("t", v0).unwrap();
        assert_eq!(delta.len(), 2);
        assert_eq!(delta[0].op, DeltaOp::Delete);
        assert_eq!(delta[0].row, row![1, 10]);
        assert_eq!(delta[1].op, DeltaOp::Insert);
        assert_eq!(delta[1].row, row![1, 11]);
    }

    #[test]
    fn create_table_types() {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE x (i INT, f FLOAT, s TEXT, b BOOL)")
            .unwrap();
        let s = db.table_schema("x").unwrap();
        assert_eq!(s.field(1).dtype, DataType::Float);
        assert_eq!(s.field(2).dtype, DataType::Str);
    }

    #[test]
    fn versions_advance_per_statement() {
        let mut db = db();
        let v1 = db.version();
        db.execute_sql("INSERT INTO t VALUES (4, 40)").unwrap();
        db.execute_sql("INSERT INTO t VALUES (5, 50)").unwrap();
        assert_eq!(db.version(), v1 + 2);
    }

    /// `t(a, b) = {(0,1), (1,1), (2,1)}`: `a * i64::MAX` overflows on the
    /// third row only, after two rows evaluated fine.
    fn overflow_db() -> Database {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE t (a INT, b INT)").unwrap();
        db.execute_sql("INSERT INTO t VALUES (0, 1), (1, 1), (2, 1)")
            .unwrap();
        db
    }

    fn assert_untouched(db: &Database, version: u64) {
        assert_eq!(db.version(), version);
        let t = db.table("t").unwrap();
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.dead_rows(), 0);
        assert_eq!(t.delta_log().len(), 3);
        assert_eq!(
            db.query("SELECT a, b FROM t").unwrap().canonical(),
            vec![(row![0, 1], 1), (row![1, 1], 1), (row![2, 1], 1)]
        );
    }

    #[test]
    fn delete_is_atomic_under_evaluation_errors() {
        let mut db = overflow_db();
        let version = db.version();
        assert!(db
            .execute_sql("DELETE FROM t WHERE a * 9223372036854775807 >= 0")
            .is_err());
        assert_untouched(&db, version);
    }

    #[test]
    fn update_is_atomic_under_evaluation_errors() {
        let mut db = overflow_db();
        let version = db.version();
        // The SET expression fails on the last victim ...
        assert!(db
            .execute_sql("UPDATE t SET b = a * 9223372036854775807")
            .is_err());
        assert_untouched(&db, version);
        // ... the WHERE clause fails ...
        assert!(db
            .execute_sql("UPDATE t SET b = 2 WHERE a * 9223372036854775807 >= 0")
            .is_err());
        assert_untouched(&db, version);
        // ... or a replacement row does not fit the schema.
        assert!(db.execute_sql("UPDATE t SET b = 'text'").is_err());
        assert_untouched(&db, version);
    }

    #[test]
    fn dml_prunes_like_select_and_keeps_the_full_predicate() {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE t (a INT, b INT)").unwrap();
        let t = db.table_mut("t").unwrap();
        t.bulk_load((0..10_000).map(|i| row![i, i % 7])).unwrap();
        t.seal();
        // Range on `a` prunes and pre-selects; `b = 3` is the residual.
        let StatementResult::Affected { count, .. } = db
            .execute_sql("DELETE FROM t WHERE a >= 5000 AND a < 5014 AND b = 3")
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(count, 2);
        let StatementResult::Affected { count, .. } = db
            .execute_sql("UPDATE t SET b = 9 WHERE a > 9990 AND b < 2")
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(count, 2 * 2);
        assert_eq!(db.query("SELECT * FROM t").unwrap().cardinality(), 9_998);
        assert_eq!(
            db.query("SELECT a FROM t WHERE b = 9").unwrap().canonical(),
            vec![(row![9996], 1), (row![9997], 1)]
        );
    }
}
