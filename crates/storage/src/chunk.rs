//! Horizontal data chunks with zone maps.
//!
//! Tables are split into fixed-capacity horizontal chunks stored column-wise
//! (paper §7.1). Each chunk carries a [`ZoneMap`] — per-column min/max —
//! which is the physical-design hook that makes provenance-based data
//! skipping actually skip I/O: the *use rewrite* emits range predicates and
//! the scan prunes chunks whose zone maps cannot satisfy them (cf. zone
//! maps / small materialized aggregates, Moerkotte VLDB'98, cited as \[32\]).

use crate::bitvec::BitVec;
use crate::column::{ColumnData, PruneRanges};
use crate::row::Row;
use crate::schema::Schema;
use crate::value::Value;
use crate::Result;

/// Per-column min/max statistics of a chunk.
#[derive(Debug, Clone)]
pub struct ZoneMap {
    /// `Some((min, max))` per column; `None` when the column is all-NULL.
    pub ranges: Vec<Option<(Value, Value)>>,
}

impl ZoneMap {
    /// Can any row of the chunk have `column ∈ [lo, hi]` (inclusive,
    /// `None` = unbounded)? `true` means "cannot prune".
    pub fn may_overlap(&self, column: usize, lo: Option<&Value>, hi: Option<&Value>) -> bool {
        match &self.ranges[column] {
            None => false, // all NULL: no value can match a range predicate
            Some((cmin, cmax)) => {
                if let Some(lo) = lo {
                    if cmax < lo {
                        return false;
                    }
                }
                if let Some(hi) = hi {
                    if cmin > hi {
                        return false;
                    }
                }
                true
            }
        }
    }
}

/// An immutable horizontal slice of a table, stored column-wise.
#[derive(Debug, Clone)]
pub struct DataChunk {
    columns: Vec<ColumnData>,
    len: usize,
    zone_map: ZoneMap,
    /// Tombstones: set bits mark logically deleted rows. Lazily allocated.
    deleted: Option<BitVec>,
    live: usize,
}

impl DataChunk {
    /// Build a chunk from fully populated columns.
    fn from_columns(columns: Vec<ColumnData>) -> DataChunk {
        let len = columns.first().map_or(0, ColumnData::len);
        debug_assert!(columns.iter().all(|c| c.len() == len));
        let zone_map = ZoneMap {
            ranges: columns.iter().map(ColumnData::min_max).collect(),
        };
        DataChunk {
            columns,
            len,
            zone_map,
            deleted: None,
            live: len,
        }
    }

    /// Total rows (including tombstoned ones).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the chunk stores no rows at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Rows not deleted.
    pub fn live_rows(&self) -> usize {
        self.live
    }

    /// The chunk's zone map.
    pub fn zone_map(&self) -> &ZoneMap {
        &self.zone_map
    }

    /// Is row `idx` visible (not tombstoned)?
    pub fn is_live(&self, idx: usize) -> bool {
        match &self.deleted {
            Some(d) => !d.get(idx),
            None => true,
        }
    }

    /// Mark row `idx` deleted. Returns false when it was already dead.
    pub fn delete(&mut self, idx: usize) -> bool {
        let d = self.deleted.get_or_insert_with(|| BitVec::new(self.len));
        if d.get(idx) {
            return false;
        }
        d.set(idx, true);
        self.live -= 1;
        true
    }

    /// The chunk's selection vector: append to `out`, ascending, the live
    /// rows whose value in the pruned column lies in one of the inclusive
    /// ranges (every live row without `prune`). Returns `false`, appending
    /// nothing, when the zone map rules the whole chunk out; ranges the
    /// zone map excludes are dropped before the column kernel runs. The
    /// zone map tests a range's inclusive hull, the kernel its exact bounds.
    pub fn select(&self, prune: Option<&mut PruneRanges<'_>>, out: &mut Vec<usize>) -> bool {
        let Some(ranges) = prune else {
            select_live(self.len, self.deleted.as_ref(), out);
            return true;
        };
        let column = ranges.column();
        let reachable = ranges.narrow(|lo, hi| self.zone_map.may_overlap(column, lo, hi));
        // The zone map knows values only: a chunk that may hold a NULL is
        // kept when NULL passes.
        let nulls_pass = ranges.admits_null() && self.columns[column].has_nulls();
        if !(reachable || nulls_pass) {
            return false;
        }
        self.columns[column].select_ranges(ranges, self.deleted.as_ref(), out);
        true
    }

    /// The chunk's columns, in schema order (what a batch scan reads).
    pub fn columns(&self) -> &[ColumnData] {
        &self.columns
    }

    /// Materialize row `idx` (whether live or not).
    pub fn row(&self, idx: usize) -> Row {
        self.columns.iter().map(|c| c.get(idx)).collect()
    }

    /// Value of one cell.
    pub fn value(&self, column: usize, idx: usize) -> Value {
        self.columns[column].get(idx)
    }

    /// The live values of one column, in row order, without materializing
    /// the other columns.
    pub fn live_values(&self, column: usize) -> impl Iterator<Item = Value> + '_ {
        (0..self.len)
            .filter(|&i| self.is_live(i))
            .map(move |i| self.columns[column].get(i))
    }

    /// Approximate heap footprint.
    pub fn heap_size(&self) -> usize {
        self.columns
            .iter()
            .map(ColumnData::heap_size)
            .sum::<usize>()
            + self.deleted.as_ref().map_or(0, BitVec::heap_size)
    }
}

/// Append every index in `0..len` not set in `deleted`.
pub(crate) fn select_live(len: usize, deleted: Option<&BitVec>, out: &mut Vec<usize>) {
    match deleted {
        None => out.extend(0..len),
        Some(d) => out.extend((0..len).filter(|&i| !d.get(i))),
    }
}

/// Accumulates rows and seals them into [`DataChunk`]s.
#[derive(Debug)]
pub struct ChunkBuilder {
    schema: Schema,
    columns: Vec<ColumnData>,
    rows: usize,
}

impl ChunkBuilder {
    /// New builder for a schema.
    pub fn new(schema: &Schema) -> ChunkBuilder {
        ChunkBuilder {
            columns: schema
                .fields()
                .iter()
                .map(|f| ColumnData::new(f.dtype))
                .collect(),
            schema: schema.clone(),
            rows: 0,
        }
    }

    /// Would [`ChunkBuilder::push`] accept `row`? Checks arity and every
    /// value's type without storing anything.
    pub fn check(&self, row: &Row) -> Result<()> {
        if row.arity() != self.schema.arity() {
            return Err(crate::StorageError::ArityMismatch {
                expected: self.schema.arity(),
                found: row.arity(),
            });
        }
        match self
            .columns
            .iter()
            .zip(row.values())
            .find(|(col, val)| !col.accepts(val))
        {
            None => Ok(()),
            Some((col, val)) => Err(crate::StorageError::TypeMismatch {
                expected: col.dtype(),
                found: val.data_type(),
            }),
        }
    }

    /// Append one row. A refused row leaves the builder untouched: the
    /// columns filled before the offending value are rolled back.
    pub fn push(&mut self, row: &Row) -> Result<()> {
        if row.arity() != self.schema.arity() {
            return Err(crate::StorageError::ArityMismatch {
                expected: self.schema.arity(),
                found: row.arity(),
            });
        }
        for (filled, val) in row.values().iter().enumerate() {
            if let Err(refused) = self.columns[filled].push(val) {
                self.columns[..filled].iter_mut().for_each(ColumnData::pop);
                return Err(refused);
            }
        }
        self.rows += 1;
        Ok(())
    }

    /// The buffered columns.
    pub(crate) fn columns(&self) -> &[ColumnData] {
        &self.columns
    }

    /// Rows currently buffered.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True iff nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Seal the buffered rows into a chunk, resetting the builder.
    pub fn finish(&mut self) -> DataChunk {
        let columns = std::mem::replace(
            &mut self.columns,
            self.schema
                .fields()
                .iter()
                .map(|f| ColumnData::new(f.dtype))
                .collect(),
        );
        self.rows = 0;
        DataChunk::from_columns(columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::Field;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Str),
        ])
    }

    fn chunk() -> DataChunk {
        let mut b = ChunkBuilder::new(&schema());
        b.push(&row![1, "x"]).unwrap();
        b.push(&row![5, "y"]).unwrap();
        b.push(&row![3, "z"]).unwrap();
        b.finish()
    }

    #[test]
    fn zone_map_built() {
        let c = chunk();
        assert_eq!(c.zone_map().ranges[0], Some((Value::Int(1), Value::Int(5))));
    }

    #[test]
    fn zone_map_pruning() {
        let c = chunk();
        let zm = c.zone_map();
        assert!(zm.may_overlap(0, Some(&Value::Int(2)), Some(&Value::Int(4))));
        assert!(!zm.may_overlap(0, Some(&Value::Int(6)), None));
        assert!(!zm.may_overlap(0, None, Some(&Value::Int(0))));
        assert!(zm.may_overlap(0, None, None));
    }

    #[test]
    fn tombstones() {
        let mut c = chunk();
        assert_eq!(c.live_rows(), 3);
        assert!(c.delete(1));
        assert!(!c.delete(1));
        assert_eq!(c.live_rows(), 2);
        let mut live = Vec::new();
        assert!(c.select(None, &mut live));
        let rows: Vec<_> = live.iter().map(|&i| c.row(i)).collect();
        assert_eq!(rows, vec![row![1, "x"], row![3, "z"]]);
        assert_eq!(
            c.live_values(0).collect::<Vec<_>>(),
            vec![Value::Int(1), Value::Int(3)]
        );
    }

    #[test]
    fn typed_slices_only_for_null_free_columns_of_their_type() {
        let schema = Schema::new(vec![
            Field::nullable("i", DataType::Int),
            Field::nullable("f", DataType::Float),
            Field::nullable("s", DataType::Str),
        ]);
        let mut tail = ChunkBuilder::new(&schema);
        tail.push(&row![1, 0.5, "x"]).unwrap();
        tail.push(&row![2, 3, "y"]).unwrap();
        let [i, f, s] = tail.columns() else {
            panic!("three columns")
        };
        assert_eq!(i.ints(), Some(&[1, 2][..]));
        assert_eq!(f.floats(), Some(&[0.5, 3.0][..]));
        // Every other type answers `None`.
        assert_eq!(
            (i.floats(), f.ints(), s.ints(), s.floats()),
            (None, None, None, None)
        );

        let sealed = tail.finish();
        let [i, f, _] = sealed.columns() else {
            panic!("three columns")
        };
        assert_eq!(i.ints(), Some(&[1, 2][..]));
        assert_eq!(f.floats(), Some(&[0.5, 3.0][..]));

        // One NULL takes the slice away, in the tail and in the sealed
        // chunk alike.
        tail.push(&row![3, Value::Null, "z"]).unwrap();
        tail.push(&row![Value::Null, 1.5, "z"]).unwrap();
        let [i, f, _] = tail.columns() else {
            panic!("three columns")
        };
        assert_eq!((i.ints(), f.floats()), (None, None));
        let sealed = tail.finish();
        let [i, f, _] = sealed.columns() else {
            panic!("three columns")
        };
        assert_eq!((i.ints(), f.floats()), (None, None));

        // So does a NULL whose row was refused and rolled back: the bitmap
        // is never dropped.
        tail.push(&row![4, 1.0, "w"]).unwrap();
        assert!(tail.push(&row![Value::Null, Value::Null, 7]).is_err());
        let [i, f, _] = tail.columns() else {
            panic!("three columns")
        };
        assert_eq!((i.len(), f.len()), (1, 1));
        assert_eq!((i.ints(), f.floats()), (None, None));
    }

    #[test]
    fn arity_checked() {
        let mut b = ChunkBuilder::new(&schema());
        assert!(b.push(&row![1]).is_err());
    }

    #[test]
    fn refused_row_is_rolled_back() {
        let mut b = ChunkBuilder::new(&schema());
        b.push(&row![1, "x"]).unwrap();
        // Column `a` takes the value (and its first NULL) before `b` refuses.
        assert!(b.push(&row![2, 3]).is_err());
        assert!(b.push(&row![Value::Null, 3]).is_err());
        assert!(b.check(&row![2, 3]).is_err());
        b.push(&row![Value::Null, "y"]).unwrap();
        assert_eq!(b.len(), 2);
        let c = b.finish();
        assert_eq!(c.row(0), row![1, "x"]);
        assert_eq!(c.row(1), row![Value::Null, "y"]);
        assert_eq!(c.zone_map().ranges[0], Some((Value::Int(1), Value::Int(1))));
    }
}
