//! Selection push-down into delta retrieval (paper §7.2).
//!
//! "If a query involves a selection and all operators in the subtree
//! rooted at \[the\] selection are stateless, then we can avoid fetching
//! delta tuples from the database that do not fulfill the selection's
//! condition … we can push the selection conditions into the query that
//! retrieves the delta."
//!
//! In this implementation, deltas come from the backend's per-table delta
//! logs, so "pushing into the retrieval query" means filtering the log
//! records before they are annotated and handed to the incremental
//! pipeline. The predicates eligible for push-down are exactly the filters
//! sitting on a stateless path between a table access and the first
//! stateful operator — of a table the plan scans once. A table's delta is
//! fetched once per run and every scan of the table reads it, so a
//! predicate over one scan of a table scanned twice (a self-join) would
//! drop rows the other scan must see.
//!
//! The resolver puts every WHERE or ON conjunct that reads one table of a
//! join directly on that table's scan (`imp_sql::Resolver`), so each
//! single-table predicate of a query arrives here as `Filter(Scan)`, below
//! its joins; a conjunct over two tables stays above them and is not
//! pushable.

use imp_sql::{Expr, LogicalPlan};

/// Collect, per base table the plan scans once, the predicates that can
/// be evaluated directly on that table's delta rows. Returns
/// `(table, predicate-over-base-row)` pairs.
pub fn pushable_predicates(plan: &LogicalPlan) -> Vec<(String, Expr)> {
    let (mut out, mut scans) = (Vec::new(), Vec::new());
    walk(plan, &mut out, &mut scans);
    out.retain(|(table, _)| scans.iter().filter(|s| *s == table).count() == 1);
    out
}

/// Push the pushable predicates onto `out` and every scanned table onto
/// `scans`, once per scan.
fn walk(plan: &LogicalPlan, out: &mut Vec<(String, Expr)>, scans: &mut Vec<String>) {
    match plan {
        // The shape `Filter(Scan)` is the push-down target: everything
        // below the filter (just the scan) is stateless, and the filter's
        // columns are base-table positions.
        LogicalPlan::Filter { input, predicate } => {
            if let LogicalPlan::Scan { table, .. } = input.as_ref() {
                out.push((table.clone(), predicate.clone()));
            }
            walk(input, out, scans);
        }
        LogicalPlan::Scan { table, .. } => scans.push(table.clone()),
        LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Distinct { input }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::TopK { input, .. } => walk(input, out, scans),
        LogicalPlan::Join { left, right, .. } | LogicalPlan::Except { left, right, .. } => {
            walk(left, out, scans);
            walk(right, out, scans);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_engine::Database;
    use imp_storage::{DataType, Field, Schema};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "r",
            Schema::new(vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::Int),
            ]),
        )
        .unwrap();
        db.create_table(
            "s",
            Schema::new(vec![
                Field::new("c", DataType::Int),
                Field::new("d", DataType::Int),
            ]),
        )
        .unwrap();
        db
    }

    #[test]
    fn where_over_scan_is_pushable() {
        let db = db();
        let plan = db
            .plan_sql("SELECT a, avg(b) FROM r WHERE b < 100 GROUP BY a")
            .unwrap();
        let p = pushable_predicates(&plan);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].0, "r");
    }

    #[test]
    fn both_join_sides_collected() {
        let db = db();
        let plan = db
            .plan_sql(
                "SELECT a, sum(d) FROM (SELECT a, b FROM r WHERE a > 3) t \
                 JOIN s ON (b = c) GROUP BY a",
            )
            .unwrap();
        let p = pushable_predicates(&plan);
        // Only r has a filter directly over its scan.
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].0, "r");
    }

    #[test]
    fn a_table_scanned_twice_pushes_nothing() {
        let db = db();
        let plan = db
            .plan_sql(
                "SELECT a2, a FROM (SELECT a AS a2, b AS b2 FROM r WHERE a < 30) x \
                 JOIN r ON (b2 = b) JOIN (SELECT c, d FROM s WHERE d > 1) y ON (a = c)",
            )
            .unwrap();
        let p = pushable_predicates(&plan);
        // r's filter would drop rows of r's unfiltered scan; s is scanned once.
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].0, "s");
    }

    /// Four tables `d0..d3` shaped like `bench_cycle`'s `chain-churn`.
    fn chain_db() -> Database {
        let mut db = Database::new();
        for (t, cols) in [
            ("d0", ["k0", "v0"]),
            ("d1", ["k1a", "k1b"]),
            ("d2", ["k2a", "k2b"]),
            ("d3", ["k3", "v3"]),
        ] {
            let fields = cols.iter().map(|c| Field::new(*c, DataType::Int));
            db.create_table(t, Schema::new(fields.collect())).unwrap();
        }
        db
    }

    #[test]
    fn the_chains_where_is_pushed_into_its_tables_delta() {
        let db = chain_db();
        let plan = db
            .plan_sql(
                "SELECT v0, v3 FROM d0 JOIN d1 ON (k0 = k1a) JOIN d2 ON (k1b = k2a) \
                 JOIN d3 ON (k2b = k3) WHERE v3 < 1000",
            )
            .unwrap();
        // `v3` is column 7 of the join and column 1 of `d3`.
        let pred = Expr::binary(
            imp_sql::BinOp::Lt,
            Expr::Col(1),
            Expr::Lit(imp_storage::Value::Int(1000)),
        );
        assert_eq!(pushable_predicates(&plan), vec![("d3".to_string(), pred)]);
    }

    #[test]
    fn a_self_join_where_pushes_nothing_for_the_table_scanned_twice() {
        let db = db();
        let plan = db
            .plan_sql(
                "SELECT x.a, y.b, d FROM r x JOIN r y ON (x.b = y.a) JOIN s ON (y.b = c) \
                 WHERE y.b < 2 AND d > 0",
            )
            .unwrap();
        // `y.b < 2` sits on one scan of r, but both scans read r's delta.
        let p = pushable_predicates(&plan);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].0, "s");
    }

    #[test]
    fn no_filter_no_pushdown() {
        let db = db();
        let plan = db.plan_sql("SELECT a, avg(b) FROM r GROUP BY a").unwrap();
        assert!(pushable_predicates(&plan).is_empty());
    }
}
