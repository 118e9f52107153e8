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
use imp_storage::{Table, Value};

/// Compute up to `fragments − 1` equi-depth cut points for `table.column`.
///
/// Fewer cuts are returned when the column has fewer distinct values than
/// requested fragments (ranges must be non-empty and disjoint). A column
/// whose every chunk and open tail is a NULL-free Int column is read and
/// sorted as `i64`s; any other as values. Both give the same cuts.
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
    if let Some(mut ints) = live_ints(t, idx) {
        ints.sort_unstable();
        return Ok((cuts_from_sorted(&ints, fragments).into_iter())
            .map(Value::Int)
            .collect());
    }
    Ok(value_cuts(t, idx, fragments))
}

/// The cuts of column `idx` of `t` from its live non-NULL values.
fn value_cuts(t: &Table, idx: usize, fragments: usize) -> Vec<Value> {
    let mut values: Vec<Value> = t.column_values(idx).filter(|v| !v.is_null()).collect();
    values.sort();
    cuts_from_sorted(&values, fragments)
}

/// The live values of column `idx` of `t` as `i64`s — the native slices of
/// the sealed chunks and the open tail, less their tombstones — if every
/// one of them is a NULL-free Int column.
fn live_ints(t: &Table, idx: usize) -> Option<Vec<i64>> {
    let mut ints = Vec::with_capacity(t.row_count());
    let gathered: std::result::Result<usize, ()> = t.scan_batches(
        None,
        |batch| {
            let values = batch.columns[idx].ints().ok_or(())?;
            ints.extend(batch.selection.iter().map(|&row| values[row]));
            Ok(())
        },
        |_| {},
    );
    gathered.ok().map(|_| ints)
}

/// Cut points from an already-sorted vector.
pub fn cuts_from_sorted<T: Ord + Clone>(sorted: &[T], fragments: usize) -> Vec<T> {
    if fragments <= 1 || sorted.is_empty() {
        return Vec::new();
    }
    let n = sorted.len();
    let mut cuts: Vec<T> = Vec::with_capacity(fragments - 1);
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
    use imp_storage::{row, DataType, Field, Schema, Table};

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
        assert!(cuts_from_sorted::<Value>(&[], 5).is_empty());
    }

    /// A NULL-free Int column is cut from its `i64`s, and the cuts are
    /// the value path's: across sealed chunks with tombstones, an open
    /// tail with its own, duplicates, and fewer distinct values than
    /// fragments.
    #[test]
    fn int_cuts_are_the_value_cuts() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        let cases: [(&str, Vec<i64>); 4] = [
            ("spread", (0..103).map(|i| (i * 37) % 101 - 50).collect()),
            ("duplicates", (0..90).map(|i| i % 7).collect()),
            ("few distinct", (0..40).map(|i| i % 3).collect()),
            ("one value", vec![5; 13]),
        ];
        for (name, values) in cases {
            let mut table = Table::with_chunk_capacity("t", schema.clone(), 8);
            table.bulk_load(values.iter().map(|&v| row![v])).unwrap();
            // Tombstones in sealed chunks and in the open tail.
            let n = values.len() as i64;
            let doomed = |r: &imp_storage::Row| {
                let v = r[0].as_i64().unwrap();
                Ok::<_, std::convert::Infallible>(v == values[3] || v == values[n as usize - 1])
            };
            table.delete_where(1, None, doomed).unwrap();
            assert!(table.row_count() < values.len(), "{name}");
            assert!(live_ints(&table, 0).is_some(), "{name}");
            let mut db = Database::new();
            db.register_table(table).unwrap();
            let t = db.table("t").unwrap();
            for fragments in [1, 2, 4, 10, 200] {
                let typed = equi_depth_cuts(&db, "t", "a", fragments).unwrap();
                assert_eq!(typed, value_cuts(t, 0, fragments), "{name}, {fragments}");
            }
        }
        // A NULL anywhere, even deleted, sends the column down the value
        // path.
        let nullable = Schema::new(vec![Field::nullable("a", DataType::Int)]);
        let mut table = Table::with_chunk_capacity("t", nullable, 8);
        let rows = (0..20).map(|i| if i == 17 { row![Value::Null] } else { row![i] });
        table.bulk_load(rows).unwrap();
        assert!(live_ints(&table, 0).is_none());
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
