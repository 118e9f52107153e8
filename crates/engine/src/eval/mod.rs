//! Plan evaluation (bag semantics, Fig. 4 of the paper).
//!
//! Under any node, the **scan prefix** — the maximal chain
//! `Aggregate? ← (Project | Filter)* ← Scan` — runs as one pipeline on
//! column batches (`eval/scan.rs`): storage prunes and selects, the
//! pipeline refines the selection by the filters' range constraints and
//! evaluates what is left of them, and the survivors go into one of three
//! sinks:
//!
//! * the **group table** when the prefix ends in an aggregation — group
//!   keys and aggregate arguments are read as cells from the columns;
//! * **positions** when the prefix feeds a join, a filter or a projection
//!   above it — the batches and their selected rows, nothing evaluated;
//! * **rows** holding the prefix's output expressions only, in storage
//!   order, otherwise — for the caller, sort, top-k, distinct, except.
//!
//! Joins, and the filters, projections and aggregations above them, run
//! on **position tuples** over those batches (`eval/join.rs`): a join
//! concatenates positions, a filter reads the cells its predicate reaches,
//! a projection stays a list of expressions, an aggregation feeds the
//! group table cell by cell. Plan shape alone selects the pipeline. A
//! `Row` is built only for output: a group of the group table, a row of
//! the query's result, or a row of the bag a row-consuming operator (sort,
//! top-k, distinct, except) needs, holding its input expressions only.

mod aggregate;
mod hash_index;
mod join;
mod ranges;
mod scan;
mod topk;

pub use aggregate::NumAcc;
pub use ranges::{extract_prune_ranges, PruneRanges};
pub use scan::scan_table;
pub use topk::top_k;

use crate::database::Database;
use crate::Result;
use imp_sql::LogicalPlan;
use imp_storage::{Row, Value};

/// A bag of rows: each row with a positive multiplicity.
pub type Bag = Vec<(Row, i64)>;

/// Execution counters. `rows_skipped` counts live rows inside chunks that
/// zone-map pruning never touched — the quantity data skipping saves.
/// `rows_scanned + rows_skipped` is the live-row count of every scanned
/// table.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Live rows the scans looked at: the rows of every chunk that
    /// survived zone-map pruning, plus the open tails. Not the rows
    /// materialized — inside a surviving chunk only rows in a prune range
    /// are gathered.
    pub rows_scanned: u64,
    /// Live rows of the chunks skipped whole via zone-map pruning.
    pub rows_skipped: u64,
    /// Hash-join probe operations.
    pub join_probes: u64,
    /// Groups produced by aggregations.
    pub agg_groups: u64,
}

impl ExecStats {
    /// Merge counters from a sub-execution.
    pub fn absorb(&mut self, other: &ExecStats) {
        self.rows_scanned += other.rows_scanned;
        self.rows_skipped += other.rows_skipped;
        self.join_probes += other.join_probes;
        self.agg_groups += other.agg_groups;
    }
}

/// Evaluate `plan` against `db`.
pub fn execute(plan: &LogicalPlan, db: &Database, stats: &mut ExecStats) -> Result<Bag> {
    if let Some(prefix) = scan::ScanPrefix::of(plan) {
        return prefix.run(db, stats);
    }
    match plan {
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            ..
        } => join::relation(input, db, stats)?.aggregate(group_by, aggs, stats),
        LogicalPlan::Distinct { input } => {
            let rows = execute(input, db, stats)?;
            let mut seen: std::collections::BTreeMap<Row, ()> = Default::default();
            let mut out = Vec::new();
            for (row, _) in rows {
                if seen.insert(row.clone(), ()).is_none() {
                    out.push((row, 1));
                }
            }
            Ok(out)
        }
        LogicalPlan::Sort { input, keys } => {
            let mut rows = execute(input, db, stats)?;
            rows.sort_by(|a, b| imp_sql::plan::compare_rows(&a.0, &b.0, keys));
            Ok(rows)
        }
        LogicalPlan::TopK { input, keys, k } => {
            let rows = execute(input, db, stats)?;
            topk::top_k(rows, keys, *k)
        }
        LogicalPlan::Except { left, right, all } => {
            let l = execute(left, db, stats)?;
            let r = execute(right, db, stats)?;
            Ok(except(l, r, *all))
        }
        // Scan (a scan prefix), filter, projection, join.
        _ => join::relation(plan, db, stats)?.materialize(),
    }
}

/// Every row the engine builds: a group, an output row, a row of a bag an
/// operator consumes. Tests count them.
fn new_row(values: impl IntoIterator<Item = Value>) -> Row {
    #[cfg(test)]
    tests::ROWS_BUILT.with(|n| n.set(n.get() + 1));
    values.into_iter().collect()
}

/// Bag / set difference. `EXCEPT ALL`: multiplicity `max(L(t) − R(t), 0)`;
/// `EXCEPT`: `t` survives with multiplicity 1 iff `L(t) > 0 ∧ R(t) = 0`.
pub fn except(left: Bag, right: Bag, all: bool) -> Bag {
    let mut counts: std::collections::BTreeMap<Row, i64> = Default::default();
    for (row, m) in left {
        *counts.entry(row).or_insert(0) += m;
    }
    let mut suppressed: imp_storage::FxHashMap<Row, i64> = Default::default();
    for (row, m) in right {
        *suppressed.entry(row).or_insert(0) += m;
    }
    counts
        .into_iter()
        .filter_map(|(row, l)| {
            let r = suppressed.get(&row).copied().unwrap_or(0);
            if all {
                let m = l - r;
                (m > 0).then_some((row, m))
            } else {
                (l > 0 && r == 0).then_some((row, 1))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_sql::{AggFunc, AggSpec, Expr};
    use imp_storage::{row, DataType, Field, Schema};
    use std::cell::Cell;

    thread_local! {
        /// Rows [`new_row`] built on this thread.
        pub(super) static ROWS_BUILT: Cell<u64> = const { Cell::new(0) };
    }

    /// `plan`'s result and the number of rows the engine built for it.
    fn rows_built(db: &Database, plan: &LogicalPlan) -> (Bag, u64) {
        let before = ROWS_BUILT.with(Cell::get);
        let rows = execute(plan, db, &mut ExecStats::default()).unwrap();
        (rows, ROWS_BUILT.with(Cell::get) - before)
    }

    #[test]
    fn a_join_builds_rows_for_output_only() {
        let schema = |a: &str, b: &str| {
            Schema::new(vec![
                Field::new(a, DataType::Int),
                Field::new(b, DataType::Int),
            ])
        };
        let mut db = Database::new();
        db.create_table("l", schema("k", "v")).unwrap();
        db.create_table("r", schema("k", "w")).unwrap();
        let l = (0..40).map(|i| row![i % 4, i]);
        db.table_mut("l").unwrap().bulk_load(l).unwrap();
        db.table_mut("r")
            .unwrap()
            .bulk_load((0..6).map(|i| row![i, 10 * i]))
            .unwrap();
        let scan = |table: &str, a, b| LogicalPlan::Scan {
            table: table.into(),
            schema: schema(a, b),
        };
        // 30 of l's rows survive the filter; each meets one row of r.
        let selected = LogicalPlan::Filter {
            input: Box::new(scan("l", "k", "v")),
            predicate: Expr::binary(
                imp_sql::ast::BinOp::Lt,
                Expr::Col(1),
                Expr::Lit(Value::Int(30)),
            ),
        };
        let join = |right| LogicalPlan::Join {
            left: Box::new(selected.clone()),
            right: Box::new(right),
            left_keys: vec![0],
            right_keys: vec![0],
        };
        let aggregate = |input, group_by, func, arg| LogicalPlan::Aggregate {
            input: Box::new(input),
            group_by: vec![Expr::Col(group_by)],
            aggs: vec![AggSpec {
                func,
                arg: Some(Expr::Col(arg)),
                name: "a".into(),
            }],
            schema: schema("g", "a"),
        };

        // Aggregate(Join(prefix, prefix)): one row per group, nothing else.
        let plan = aggregate(join(scan("r", "k", "w")), 0, AggFunc::Sum, 1);
        let (rows, built) = rows_built(&db, &plan);
        assert_eq!(rows.len(), 4);
        assert_eq!(built, 4);

        // Project(Join(prefix, bag)): the output rows and the bag's rows.
        let bag = aggregate(scan("r", "k", "w"), 0, AggFunc::Max, 1);
        let plan = LogicalPlan::Project {
            input: Box::new(join(bag)),
            exprs: vec![Expr::Col(1), Expr::Col(3)],
            schema: schema("v", "m"),
        };
        let (rows, built) = rows_built(&db, &plan);
        assert_eq!(rows.len(), 30);
        assert_eq!(built, 30 + 6);
    }
}
