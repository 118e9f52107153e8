//! Table access: the engine side of the storage selection path.

use super::{extract_prune_ranges, Bag, ExecStats, PruneRanges};
use crate::database::Database;
use crate::Result;
use imp_sql::{Expr, SqlError};
use imp_storage::{Row, Table};

/// Deliver the live rows of `t` that satisfy `predicate` (all of them
/// without one) and return how many live rows the scan examined.
///
/// Range constraints found in the predicate go down to storage, which
/// skips whole chunks by zone map (`on_chunk_skipped` gets their live-row
/// counts) and selects rows inside the surviving chunks on the constrained
/// column alone; the full predicate then runs inside the scan on the rows
/// that remain, so rows that do not qualify are never collected (this is
/// what makes the sketch use-rewrite fast, paper §1 / §8).
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

/// Scan a table into a bag, keeping the rows that satisfy `predicate`.
pub fn scan(
    db: &Database,
    table: &str,
    predicate: Option<&Expr>,
    stats: &mut ExecStats,
) -> Result<Bag> {
    let t = db.table(table)?;
    // Only an unfiltered scan knows its output size up front.
    let mut out = Vec::with_capacity(predicate.map_or(t.row_count(), |_| 0));
    let mut skipped = 0u64;
    let examined = scan_table(
        t,
        predicate,
        |row| out.push((row, 1)),
        |n| skipped += n as u64,
    )?;
    stats.rows_scanned += examined as u64;
    stats.rows_skipped += skipped;
    Ok(out)
}
