//! Table access: the scan prefix of a plan, executed on column batches.
//!
//! The *scan prefix* under a plan node is the maximal chain
//! `Aggregate? ← (Project | Filter)* ← Scan`. [`ScanPrefix::of`] composes it
//! into one pipeline over the scanned table's columns — projections are
//! substituted into whatever reads them, so stacked projections collapse —
//! and [`ScanPrefix::run`] drives it over the batches of
//! [`imp_storage::Table::scan_batches`]:
//!
//! 1. **prune + select** (storage): the range constraint that drives the
//!    scan skips chunks by zone map and selects rows on its column;
//! 2. **refine**: every other range constraint of the filters narrows the
//!    selection on its own column ([`super::ranges::split`] — all of them
//!    exact, so the predicate no longer repeats them);
//! 3. **residual**: what is left of each filter is evaluated per selected
//!    row, reading only the cells it reaches;
//! 4. **sink**: the group table — [`ScanPrefix::run`] on an aggregating
//!    prefix, which hands it each batch's columns and selection: a batch
//!    whose keys and arguments are NULL-free Int or Float columns is read
//!    as slices and grouped a batch at a time, any other batch row by row
//!    as cells, and key values are copied once per new group
//!    (`eval/aggregate.rs`); the same group table for a sketch capture —
//!    [`super::capture_groups`], which tells the capture each batch's
//!    groups and the partition column at its selected rows, from which it
//!    counts each group's rows per fragment of the table's partition;
//!    positions, the batches kept with their selections and nothing
//!    evaluated —
//!    [`ScanPrefix::relation`], for the joins, filters and projections
//!    above (`eval/join.rs`); or rows
//!    holding the output expressions only, in storage order —
//!    [`ScanPrefix::run`] otherwise, the one place a scan builds a `Row`.
//!
//! No [`Value`] is built for a cell the query neither outputs nor hands to
//! a general expression. An expression is evaluated only for the rows that
//! reach it, and only if something reads its result: a query that fails
//! operator-at-a-time fails here too unless the failing expression is one
//! the pipeline never needs.

use super::aggregate::{Aggregation, Grouping, Slice};
use super::join::{Pos, Relation};
use super::ranges::{extract_prune_ranges, split, ColumnRanges, PruneRanges};
use super::{new_row, Bag, ExecStats};
use crate::database::Database;
use crate::Result;
use imp_sql::{Expr, LogicalPlan, SqlError};
use imp_storage::{ColumnData, Row, Table, Value};
use std::borrow::Cow;

/// Deliver the live rows of `t` that satisfy `predicate` (all of them
/// without one) and return how many live rows the scan examined — the row
/// form of the scan, used by annotated capture.
///
/// Range constraints found in the predicate go down to storage, which
/// skips whole chunks by zone map (`on_chunk_skipped` gets their live-row
/// counts) and selects rows inside the surviving chunks on the constrained
/// column alone; the full predicate then runs inside the scan on the rows
/// that remain, so rows that do not qualify are never collected.
pub fn scan_table(
    t: &Table,
    predicate: Option<&Expr>,
    on_row: impl FnMut(Row),
    on_chunk_skipped: impl FnMut(usize),
) -> std::result::Result<usize, SqlError> {
    let prune = predicate.and_then(extract_prune_ranges);
    t.scan_where(
        prune.as_ref().map(PruneRanges::as_scan_arg),
        |row| predicate.map_or(Ok(true), |p| p.eval_predicate(row)),
        on_row,
        on_chunk_skipped,
    )
}

/// The scan prefix of a plan, composed over the scanned table's columns.
pub(super) struct ScanPrefix<'p> {
    pub table: &'p str,
    /// The chain's filters, innermost first.
    filters: Vec<Cow<'p, Expr>>,
    /// What the chain outputs; `None`: the table's columns as they are.
    exprs: Option<Vec<Expr>>,
    /// The aggregation on top of the chain.
    pub aggregate: Option<Aggregation<'p>>,
}

impl<'p> ScanPrefix<'p> {
    /// The pipeline for `plan`, if `plan` is the top of a scan prefix.
    pub fn of(plan: &'p LogicalPlan) -> Option<ScanPrefix<'p>> {
        let LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            ..
        } = plan
        else {
            return ScanPrefix::chain(plan);
        };
        let mut chain = ScanPrefix::chain(input)?;
        chain.aggregate = Some(Aggregation::new(group_by, aggs, |e| chain.over_columns(e)));
        Some(chain)
    }

    /// The `(Project | Filter)* ← Scan` part of a prefix.
    fn chain(plan: &'p LogicalPlan) -> Option<ScanPrefix<'p>> {
        match plan {
            LogicalPlan::Scan { table, .. } => Some(ScanPrefix {
                table,
                filters: Vec::new(),
                exprs: None,
                aggregate: None,
            }),
            LogicalPlan::Filter { input, predicate } => {
                let mut chain = ScanPrefix::chain(input)?;
                let predicate = chain.over_columns(predicate);
                chain.filters.push(predicate);
                Some(chain)
            }
            LogicalPlan::Project { input, exprs, .. } => {
                let mut chain = ScanPrefix::chain(input)?;
                let exprs = exprs.iter().map(|e| chain.over_columns(e).into_owned());
                chain.exprs = Some(exprs.collect());
                Some(chain)
            }
            _ => None,
        }
    }

    /// `e`, which reads the chain's output, as an expression over the
    /// table's columns.
    fn over_columns(&self, e: &'p Expr) -> Cow<'p, Expr> {
        match &self.exprs {
            None => Cow::Borrowed(e),
            Some(exprs) => Cow::Owned(e.substitute(&|i| exprs[i].clone())),
        }
    }

    /// Does the prefix end in an aggregation?
    pub fn aggregates(&self) -> bool {
        self.aggregate.is_some()
    }

    /// Execute the pipeline into the group table, or into rows holding the
    /// output expressions.
    pub fn run(&self, db: &Database, stats: &mut ExecStats) -> Result<Bag> {
        let t = db.table(self.table)?;
        let arity = t.schema().arity();
        if let Some(aggregation) = &self.aggregate {
            let mut grouping = Grouping::new(aggregation, arity);
            self.scan(t, stats, |columns, selection| {
                let slice = |c: usize| Slice::of(&columns[c]);
                if grouping.add_batch(selection.len(), slice, |i| selection[i], |_| 1)? {
                    return Ok(());
                }
                for &idx in selection {
                    let cell = |c: usize| columns[c].cell(idx);
                    grouping.add(cell, |c| column_value(columns, c, idx), 1)?;
                }
                Ok(())
            })?;
            return Ok(grouping.finish(stats));
        }
        let identity = || Cow::Owned((0..arity).map(Expr::Col).collect());
        let exprs: Cow<'_, [Expr]> = (self.exprs.as_deref()).map_or_else(identity, Cow::Borrowed);
        // Only an unfiltered scan knows its output size up front.
        let mut out = Vec::with_capacity(if self.filters.is_empty() {
            t.row_count()
        } else {
            0
        });
        let mut values = Vec::with_capacity(exprs.len());
        self.scan(t, stats, |columns, selection| {
            for &idx in selection {
                for e in exprs.iter() {
                    values.push(e.eval_with(&|c| column_value(columns, c, idx))?);
                }
                out.push((new_row(values.drain(..)), 1));
            }
            Ok(())
        })?;
        Ok(out)
    }

    /// Execute the pipeline, which does not aggregate, into positions: the
    /// surviving batches with their selected rows, and the output
    /// expressions still to evaluate.
    pub fn relation<'t>(&self, db: &'t Database, stats: &mut ExecStats) -> Result<Relation<'t>> {
        let t = db.table(self.table)?;
        let mut batches = Vec::new();
        let mut positions = Vec::new();
        self.scan(t, stats, |columns, selection| {
            if !selection.is_empty() {
                let batch = batches.len();
                batches.push(columns);
                positions.extend(selection.iter().map(|&row| Pos::new(batch, row)));
            }
            Ok(())
        })?;
        let (arity, exprs) = (t.schema().arity(), self.exprs.clone());
        Ok(Relation::scanned(
            t.name(),
            batches,
            arity,
            positions,
            exprs,
        ))
    }

    /// Steps 1–3 over every batch, then hand `sink` the batch's columns and
    /// its selection.
    pub fn scan<'t>(
        &self,
        t: &'t Table,
        stats: &mut ExecStats,
        mut sink: impl FnMut(&'t [ColumnData], &[usize]) -> Result<()>,
    ) -> Result<()> {
        // A constant-false filter (empty sketch) needs no scan.
        let is_false = |f: &Cow<'_, Expr>| matches!(**f, Expr::Lit(Value::Bool(false)));
        if self.filters.iter().any(is_false) {
            return Ok(());
        }
        let split = split(self.filters.iter().map(|f| &**f));
        // The bounds depend on the column type only: translate each
        // constraint once for every chunk and the tail.
        let mut driver = split.driver.as_ref().map(|c| translate(t, c)).transpose()?;
        let mut refine = Vec::with_capacity(split.refine.len());
        for constraint in &split.refine {
            let mut ranges = translate(t, constraint)?;
            ranges.narrow(|_, _| true);
            refine.push(ranges);
        }
        let mut skipped = 0u64;
        let examined = t.scan_batches(
            driver.as_mut(),
            |batch| {
                for ranges in &refine {
                    batch.columns[ranges.column()].refine_ranges(ranges, batch.selection);
                }
                for filter in &split.residual {
                    retain_where(batch.columns, batch.selection, filter)?;
                }
                sink(batch.columns, batch.selection)
            },
            |n| skipped += n as u64,
        )?;
        stats.rows_scanned += examined as u64;
        stats.rows_skipped += skipped;
        Ok(())
    }
}

pub(super) fn out_of_bounds(column: usize, arity: usize) -> SqlError {
    SqlError::Semantic(format!(
        "column index {column} out of bounds for arity {arity}"
    ))
}

/// `constraint` in the native domain of its column of `t`.
fn translate<'r>(
    t: &Table,
    constraint: &'r ColumnRanges,
) -> std::result::Result<imp_storage::PruneRanges<'r>, SqlError> {
    let column = constraint.column;
    let fields = t.schema().fields();
    let field = fields
        .get(column)
        .ok_or_else(|| out_of_bounds(column, fields.len()))?;
    Ok(
        imp_storage::PruneRanges::new(column, field.dtype, &constraint.ranges)
            .or_null(constraint.nulls),
    )
}

/// The value of column `column` in row `idx` of a batch, as
/// [`Expr::eval_with`] asks for it.
pub(super) fn column_value(
    columns: &[ColumnData],
    column: usize,
    idx: usize,
) -> std::result::Result<Value, SqlError> {
    match columns.get(column) {
        Some(c) => Ok(c.get(idx)),
        None => Err(out_of_bounds(column, columns.len())),
    }
}

/// Keep the selected rows `predicate` accepts; its first error aborts.
fn retain_where(
    columns: &[ColumnData],
    selection: &mut Vec<usize>,
    predicate: &Expr,
) -> std::result::Result<(), SqlError> {
    let mut failed = None;
    selection.retain(|&idx| {
        failed.is_none()
            && predicate
                .eval_predicate_with(&|c| column_value(columns, c, idx))
                .unwrap_or_else(|e| {
                    failed = Some(e);
                    false
                })
    });
    failed.map_or(Ok(()), Err)
}
