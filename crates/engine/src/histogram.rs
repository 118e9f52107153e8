//! Equi-depth histograms for range selection.
//!
//! "We use the bounds of equi-depth histograms maintained by many DBMS as
//! statistics as ranges. Note that we generate ranges to cover the whole
//! domain of an attribute instead of only its active domain" (paper §7.4).
//!
//! A partition with `n` fragments is represented by `n − 1` *cut points*
//! `c₁ < … < c_{n−1}`; fragment `i` covers `[c_i, c_{i+1})` with the first
//! and last fragments open toward the domain boundaries, so the partition
//! covers the entire domain regardless of future inserts.

use crate::database::Database;
use crate::Result;
use imp_storage::Value;

/// Compute up to `fragments − 1` equi-depth cut points for `table.column`.
///
/// Fewer cuts are returned when the column has fewer distinct values than
/// requested fragments (ranges must be non-empty and disjoint).
pub fn equi_depth_cuts(
    db: &Database,
    table: &str,
    column: &str,
    fragments: usize,
) -> Result<Vec<Value>> {
    let t = db.table(table)?;
    let idx = t.schema().index_of(column).ok_or_else(|| {
        crate::EngineError::Storage(imp_storage::StorageError::UnknownColumn(column.into()))
    })?;
    let mut values: Vec<Value> = t.column_values(idx).filter(|v| !v.is_null()).collect();
    values.sort();
    Ok(cuts_from_sorted(&values, fragments))
}

/// Cut points from an already-sorted value vector.
pub fn cuts_from_sorted(sorted: &[Value], fragments: usize) -> Vec<Value> {
    if fragments <= 1 || sorted.is_empty() {
        return Vec::new();
    }
    let n = sorted.len();
    let mut cuts: Vec<Value> = Vec::with_capacity(fragments - 1);
    for i in 1..fragments {
        let pos = (i * n) / fragments;
        let v = sorted[pos.min(n - 1)].clone();
        // Cuts must be strictly increasing.
        if cuts.last().is_none_or(|last| *last < v) {
            cuts.push(v);
        }
    }
    cuts
}

/// Estimate how many of a table's rows a sketch rewrite skips, given the
/// sketch's *marked fraction* of the table's fragments (its selectivity,
/// e.g. `SketchSet::partition_selectivity` in `imp-sketch`).
///
/// Fragments come from equi-depth histograms, so each holds roughly the
/// same number of tuples; an unmarked fragment's share of the table is
/// never scanned. This is the per-use benefit signal of the
/// `imp_core::advisor` cost model — an estimate (skew and later updates
/// shift real fragment populations), which is all selection needs.
pub fn estimate_skipped_rows(table_rows: usize, marked_fraction: f64) -> u64 {
    if !(0.0..1.0).contains(&marked_fraction) {
        return 0;
    }
    (table_rows as f64 * (1.0 - marked_fraction)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_storage::{row, DataType, Field, Schema};

    #[test]
    fn skipped_rows_follow_equi_depth_shares() {
        // 3 of 4 fragments unmarked → ~75% of rows skipped.
        assert_eq!(estimate_skipped_rows(1000, 0.25), 750);
        // Everything marked (or degenerate inputs): nothing skipped.
        assert_eq!(estimate_skipped_rows(1000, 1.0), 0);
        assert_eq!(estimate_skipped_rows(1000, 1.5), 0);
        assert_eq!(estimate_skipped_rows(1000, -0.1), 0);
        // Nothing marked: the whole table is skipped.
        assert_eq!(estimate_skipped_rows(1000, 0.0), 1000);
    }

    #[test]
    fn cuts_split_evenly() {
        let vals: Vec<Value> = (0..100).map(Value::Int).collect();
        let cuts = cuts_from_sorted(&vals, 4);
        assert_eq!(cuts, vec![Value::Int(25), Value::Int(50), Value::Int(75)]);
    }

    #[test]
    fn skewed_data_dedupes_cuts() {
        let mut vals: Vec<Value> = vec![Value::Int(7); 90];
        vals.extend((0..10).map(Value::Int));
        vals.sort();
        let cuts = cuts_from_sorted(&vals, 10);
        // Most quantiles collapse onto 7; cuts stay strictly increasing.
        for w in cuts.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn single_fragment_no_cuts() {
        let vals: Vec<Value> = (0..10).map(Value::Int).collect();
        assert!(cuts_from_sorted(&vals, 1).is_empty());
        assert!(cuts_from_sorted(&[], 5).is_empty());
    }

    #[test]
    fn from_database() {
        let mut db = Database::new();
        db.create_table("t", Schema::new(vec![Field::new("a", DataType::Int)]))
            .unwrap();
        for i in 0..1000 {
            db.table_mut("t").unwrap().insert(row![i], 1).unwrap();
        }
        let cuts = equi_depth_cuts(&db, "t", "a", 4).unwrap();
        assert_eq!(cuts.len(), 3);
        assert_eq!(cuts[1], Value::Int(500));
    }
}
