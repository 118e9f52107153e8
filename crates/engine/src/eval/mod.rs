//! Plan evaluation (bag semantics, Fig. 4 of the paper).
//!
//! Evaluation is operator-at-a-time over [`Bag`]s, except for the part of
//! a plan that touches a table. Under any node, the **scan prefix** — the
//! maximal chain `Aggregate? ← (Project | Filter)* ← Scan` — runs as one
//! pipeline on column batches (`eval/scan.rs`): storage prunes and
//! selects, the pipeline refines the selection by the filters' range
//! constraints and evaluates what is left of them, and the survivors go
//! into one of two sinks:
//!
//! * the **group table** when the prefix ends in an aggregation — group
//!   keys and aggregate arguments are read as cells from the columns, no
//!   row is ever built;
//! * a **bag of rows** otherwise — each row holds the prefix's output
//!   expressions only, in storage order — for the operators that need
//!   rows: join, sort, top-k, distinct, except.
//!
//! Plan shape alone selects the pipeline. The operators above it (and an
//! aggregation over a join) consume bags; the group table and its
//! accumulators are the same in both.

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
use imp_sql::{Expr, LogicalPlan};
use imp_storage::Row;

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
        LogicalPlan::Scan { .. } => unreachable!("a scan is a scan prefix"),
        LogicalPlan::Filter { input, predicate } => {
            // A constant-false predicate (empty sketch) needs no input.
            if matches!(predicate, Expr::Lit(imp_storage::Value::Bool(false))) {
                return Ok(Vec::new());
            }
            let rows = execute(input, db, stats)?;
            filter_bag(rows, predicate)
        }
        LogicalPlan::Project { input, exprs, .. } => {
            let rows = execute(input, db, stats)?;
            let mut out = Vec::with_capacity(rows.len());
            for (row, m) in rows {
                let vals = exprs
                    .iter()
                    .map(|e| e.eval(&row))
                    .collect::<std::result::Result<Vec<_>, _>>()?;
                out.push((Row::new(vals), m));
            }
            Ok(out)
        }
        LogicalPlan::Join {
            left,
            right,
            left_keys,
            right_keys,
        } => {
            let l = execute(left, db, stats)?;
            let r = execute(right, db, stats)?;
            join::join(l, r, left_keys, right_keys, stats)
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            ..
        } => {
            let rows = execute(input, db, stats)?;
            aggregate::aggregate(rows, group_by, aggs, stats)
        }
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
    }
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

/// Apply a predicate to a bag.
pub fn filter_bag(rows: Bag, predicate: &Expr) -> Result<Bag> {
    let mut out = Vec::new();
    for (row, m) in rows {
        if predicate.eval_predicate(&row)? {
            out.push((row, m));
        }
    }
    Ok(out)
}
