//! The capture feeders: what a sketch capture, which starts an incremental
//! circuit from the empty state, asks of the engine.
//!
//! A capture needs the engine's answer plus, for each tuple, where in the
//! partition `Φ` its inputs lie: the partition column's value in each
//! partitioned table the tuple is made of. The engine evaluates a
//! select-project-join plan on the pipelines it answers queries on and
//! reads those values as it goes:
//!
//! * [`capture_groups`] groups an aggregation over such a plan on the group
//!   table. Over a scan prefix it streams the scan's batches, handing the
//!   capture each batch's partition column and selected rows; over a join
//!   it builds the join's position tuples once (`eval/join.rs`, NULL-free
//!   Int keys hashed as `i64`s) and hands the capture every tuple at once,
//!   the partition columns gathered through the positions. Either way the
//!   capture is told each tuple's group, from which it counts per group
//!   the tuples in each fragment (`ℱ_g`); the groups come back as
//!   [`CapturedGroups`], keys and accumulators, with no row built.
//! * [`capture_rows`] materializes a join's result (what a join at the
//!   root, under top-k or under MIN/MAX starts from), with the same
//!   partition-column values per tuple.

use super::aggregate::{Aggregation, CapturedGroups, Grouping, Slice};
use super::join::relation;
use super::scan::{column_value, ScanPrefix};
use super::{Bag, ExecStats};
use crate::database::Database;
use crate::error::EngineError;
use crate::Result;
use imp_sql::LogicalPlan;
use imp_storage::{Cell, ColumnData};

/// A partition column's value for each tuple a capture is told of, in
/// tuple order.
#[derive(Debug)]
pub enum PartitionValues<'a> {
    /// The cells of a scanned batch's column in the selected rows.
    Rows(&'a ColumnData, &'a [usize]),
    /// A NULL-free Int column, gathered through a join's positions.
    Ints(Vec<i64>),
    /// Any other column, read through a join's positions as cells.
    Cells(Vec<Cell<'a>>),
}

/// What a capture is told of the tuples it groups, a batch at a time.
/// Each tuple counts once: a select-project-join plan over base tables
/// has no multiplicity but 1.
#[derive(Debug)]
pub struct CaptureBatch<'a> {
    /// The group of each tuple.
    pub groups: &'a [usize],
    /// Per source whose table has a partition column, in source order: the
    /// table, and the column's value in each tuple. A table scanned twice
    /// (a self-join) is listed twice.
    pub partitioned: &'a [(&'a str, PartitionValues<'a>)],
}

/// Where a capture is told of each batch [`capture_groups`] groups.
pub type GroupSink<'s> = dyn FnMut(&CaptureBatch<'_>) + 's;

/// A select-project-join plan's result as a capture needs it
/// ([`capture_rows`]).
#[derive(Debug)]
pub struct CapturedRows<'t> {
    /// The rows, each with its multiplicity, in tuple order.
    pub rows: Bag,
    /// Per source whose table has a partition column, as in
    /// [`CaptureBatch::partitioned`].
    pub partitioned: Vec<(&'t str, PartitionValues<'t>)>,
}

/// Is `plan` select-project-join over base tables (scans, filters,
/// projections and joins only)?
pub fn is_spj(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::Scan { .. } => true,
        LogicalPlan::Filter { input, .. } | LogicalPlan::Project { input, .. } => is_spj(input),
        LogicalPlan::Join { left, right, .. } => is_spj(left) && is_spj(right),
        _ => false,
    }
}

/// Is `plan` an aggregation over a select-project-join plan? Those are the
/// plans [`capture_groups`] groups.
pub fn aggregates_spj(plan: &LogicalPlan) -> bool {
    matches!(plan, LogicalPlan::Aggregate { input, .. } if is_spj(input))
}

/// Group `plan`, an aggregation over a select-project-join plan
/// ([`aggregates_spj`]), on the pipeline and group table
/// [`super::execute`] runs it on, and tell `sink` each tuple's group and
/// the value of each partitioned source's `partition_column` (module
/// docs).
pub fn capture_groups(
    plan: &LogicalPlan,
    db: &Database,
    partition_column: &dyn Fn(&str) -> Option<usize>,
    sink: &mut GroupSink<'_>,
    stats: &mut ExecStats,
) -> Result<CapturedGroups> {
    let LogicalPlan::Aggregate {
        input,
        group_by,
        aggs,
        ..
    } = plan
    else {
        return Err(unsupported(plan));
    };
    if !is_spj(input) {
        return Err(unsupported(plan));
    }
    let prefix = ScanPrefix::of(plan);
    if let Some((prefix, aggregation)) =
        (prefix.as_ref()).and_then(|p| Some((p, p.aggregate.as_ref()?)))
    {
        return scan_groups(prefix, aggregation, db, partition_column, sink, stats);
    }
    let rel = relation(input, db, stats)?;
    let (captured, groups) = rel.capture_groups(group_by, aggs, stats)?;
    sink(&CaptureBatch {
        groups: &groups,
        partitioned: &rel.partition_values(partition_column),
    });
    Ok(captured)
}

/// [`capture_groups`] over a scan prefix: batch after batch, as the scan
/// meets them.
fn scan_groups(
    prefix: &ScanPrefix<'_>,
    aggregation: &Aggregation<'_>,
    db: &Database,
    partition_column: &dyn Fn(&str) -> Option<usize>,
    sink: &mut GroupSink<'_>,
    stats: &mut ExecStats,
) -> Result<CapturedGroups> {
    let t = db.table(prefix.table)?;
    let column = partition_column(t.name());
    let mut grouping = Grouping::new(aggregation, t.schema().arity());
    let mut groups = Vec::new();
    prefix.scan(t, stats, |columns, selection| {
        let slice = |c: usize| Slice::of(&columns[c]);
        let groups = if grouping.add_batch(selection.len(), slice, |i| selection[i], |_| 1)? {
            grouping.batch_groups()
        } else {
            groups.clear();
            for &idx in selection.iter() {
                let cell = |c: usize| columns[c].cell(idx);
                groups.push(grouping.add(cell, |c| column_value(columns, c, idx), 1)?);
            }
            &groups
        };
        let partitioned = column.map(|c| (t.name(), PartitionValues::Rows(&columns[c], selection)));
        sink(&CaptureBatch {
            groups,
            partitioned: partitioned.as_slice(),
        });
        Ok(())
    })?;
    Ok(grouping.captured(stats))
}

/// The result of `plan`, a select-project-join plan, evaluated as
/// [`super::execute`] evaluates it, with the value of each partitioned
/// source's `partition_column` in each tuple.
pub fn capture_rows<'t>(
    plan: &LogicalPlan,
    db: &'t Database,
    partition_column: &dyn Fn(&str) -> Option<usize>,
    stats: &mut ExecStats,
) -> Result<CapturedRows<'t>> {
    if !is_spj(plan) {
        return Err(unsupported(plan));
    }
    let rel = relation(plan, db, stats)?;
    Ok(CapturedRows {
        partitioned: rel.partition_values(partition_column),
        rows: rel.materialize()?,
    })
}

fn unsupported(plan: &LogicalPlan) -> EngineError {
    EngineError::Unsupported(format!(
        "a capture evaluates select-project-join plans and aggregations over \
         them, not {}",
        plan.explain()
    ))
}
