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
//! 4. **sink**: either the group table (key and argument cells read from
//!    the columns, a key row built once per new group) or a bag of rows
//!    holding the output expressions only, in storage order.
//!
//! No [`Value`] is built for a cell the query neither outputs nor hands to
//! a general expression. An expression is evaluated only for the rows that
//! reach it, and only if something reads its result: a query that fails
//! operator-at-a-time fails here too unless the failing expression is one
//! the pipeline never needs.

use super::aggregate::GroupTable;
use super::ranges::{extract_prune_ranges, split, ColumnRanges, PruneRanges};
use super::{Bag, ExecStats};
use crate::database::Database;
use crate::Result;
use imp_sql::{AggFunc, Expr, LogicalPlan, SqlError};
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
    table: &'p str,
    /// The chain's filters, innermost first.
    filters: Vec<Cow<'p, Expr>>,
    /// What the chain outputs; `None`: the table's columns as they are.
    exprs: Option<Vec<Expr>>,
    /// The aggregation on top of the chain.
    aggregate: Option<Aggregation<'p>>,
}

/// Group keys and aggregates (function and argument, `None` = `count(*)`)
/// over the table's columns.
struct Aggregation<'p> {
    group_by: Vec<Cow<'p, Expr>>,
    aggs: Vec<(AggFunc, Option<Cow<'p, Expr>>)>,
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
        let group_by = group_by.iter().map(|e| chain.over_columns(e));
        let aggs =
            (aggs.iter()).map(|spec| (spec.func, spec.arg.as_ref().map(|e| chain.over_columns(e))));
        chain.aggregate = Some(Aggregation {
            group_by: group_by.collect(),
            aggs: aggs.collect(),
        });
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

    /// Execute the pipeline.
    pub fn run(&self, db: &Database, stats: &mut ExecStats) -> Result<Bag> {
        let t = db.table(self.table)?;
        let arity = t.schema().arity();
        let mut sink = match &self.aggregate {
            Some(aggregation) => Sink::groups(aggregation, arity),
            None => {
                let identity = || Cow::Owned((0..arity).map(Expr::Col).collect());
                let exprs = (self.exprs.as_deref()).map_or_else(identity, Cow::Borrowed);
                // Only an unfiltered scan knows its output size up front.
                let rows = if self.filters.is_empty() {
                    t.row_count()
                } else {
                    0
                };
                Sink::Rows {
                    exprs,
                    out: Vec::with_capacity(rows),
                }
            }
        };
        // A constant-false filter (empty sketch) needs no scan.
        let is_false = |f: &Cow<'_, Expr>| matches!(**f, Expr::Lit(Value::Bool(false)));
        if !self.filters.iter().any(is_false) {
            self.scan(t, &mut sink, stats)?;
        }
        Ok(sink.finish(stats))
    }

    fn scan(&self, t: &Table, sink: &mut Sink<'_>, stats: &mut ExecStats) -> Result<()> {
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
                sink.consume(batch.columns, batch.selection)
            },
            |n| skipped += n as u64,
        )?;
        stats.rows_scanned += examined as u64;
        stats.rows_skipped += skipped;
        Ok(())
    }
}

fn out_of_bounds(column: usize, arity: usize) -> SqlError {
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
    Ok(imp_storage::PruneRanges::new(
        column,
        field.dtype,
        &constraint.ranges,
    ))
}

/// The value of column `column` in row `idx` of a batch, as
/// [`Expr::eval_with`] asks for it.
fn column_value(
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

/// Where a group key or an aggregate argument comes from: straight from a
/// column (read as a cell), or from a general expression (evaluated).
enum Operand<'a> {
    Column(usize),
    Computed(&'a Expr),
}

impl<'a> Operand<'a> {
    fn of(e: &'a Expr, arity: usize) -> Operand<'a> {
        match e {
            Expr::Col(c) if *c < arity => Operand::Column(*c),
            other => Operand::Computed(other),
        }
    }
}

/// What the pipeline feeds the selected rows of each batch into.
enum Sink<'a> {
    /// Rows holding the output expressions, for the operators that need
    /// rows (join, sort, top-k, distinct, except, the caller).
    Rows { exprs: Cow<'a, [Expr]>, out: Bag },
    /// The group table of the aggregation on top of the chain.
    Groups {
        keys: Vec<Operand<'a>>,
        /// `None`: `count(*)`.
        args: Vec<Option<Operand<'a>>>,
        table: GroupTable,
        /// The values of the computed keys of the current row.
        computed: Vec<Value>,
    },
}

impl<'a> Sink<'a> {
    fn groups(aggregation: &'a Aggregation<'_>, arity: usize) -> Sink<'a> {
        let Aggregation { group_by, aggs } = aggregation;
        let args = aggs.iter().map(|(_, arg)| arg.as_ref());
        Sink::Groups {
            keys: group_by.iter().map(|e| Operand::of(e, arity)).collect(),
            args: args.map(|a| a.map(|e| Operand::of(e, arity))).collect(),
            table: GroupTable::new(aggs.iter().map(|(func, _)| *func)),
            computed: vec![Value::Null; group_by.len()],
        }
    }

    fn consume(&mut self, columns: &[ColumnData], selection: &[usize]) -> Result<()> {
        match self {
            Sink::Rows { exprs, out } => {
                let mut values = Vec::with_capacity(exprs.len());
                for &idx in selection {
                    for e in exprs.iter() {
                        values.push(e.eval_with(&|c| column_value(columns, c, idx))?);
                    }
                    out.push((values.drain(..).collect(), 1));
                }
            }
            Sink::Groups {
                keys,
                args,
                table,
                computed,
            } => {
                for &idx in selection {
                    let eval = |e: &Expr| e.eval_with(&|c| column_value(columns, c, idx));
                    for (slot, key) in computed.iter_mut().zip(keys.iter()) {
                        if let Operand::Computed(e) = key {
                            *slot = eval(e)?;
                        }
                    }
                    let group = table.group(keys.len(), |i| match keys[i] {
                        Operand::Column(c) => columns[c].cell(idx),
                        Operand::Computed(_) => computed[i].as_cell(),
                    });
                    for (agg, arg) in args.iter().enumerate() {
                        match arg {
                            None => table.update(group, agg, None, 1)?,
                            Some(Operand::Column(c)) => {
                                table.update(group, agg, Some(columns[*c].cell(idx)), 1)?
                            }
                            Some(Operand::Computed(e)) => {
                                let value = eval(e)?;
                                table.update(group, agg, Some(value.as_cell()), 1)?
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn finish(self, stats: &mut ExecStats) -> Bag {
        match self {
            Sink::Rows { out, .. } => out,
            Sink::Groups { keys, table, .. } => table.finish(keys.is_empty(), stats),
        }
    }
}
