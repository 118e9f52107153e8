//! Typed column vectors with null bitmaps.

use crate::bitvec::BitVec;
use crate::error::StorageError;
use crate::table::{KeyRange, ValueRange};
use crate::value::{Cell, DataType, Value};
use crate::Result;
use std::cmp::Ordering;
use std::ops::Bound;
use std::sync::Arc;

/// The typed payload of a column.
#[derive(Debug, Clone)]
enum TypedVec {
    Bool(Vec<bool>),
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str(Vec<Arc<str>>),
}

/// A single column of a [`crate::DataChunk`], stored as a typed vector plus
/// an optional validity bitmap (absent ⇔ the column holds no NULLs).
///
/// The paper (§7.1) stores data "in a columnar representation for
/// horizontal chunks of a table"; this is that representation.
#[derive(Debug, Clone)]
pub struct ColumnData {
    values: TypedVec,
    /// Set bits mark NULL positions. Lazily allocated on first NULL.
    nulls: Option<BitVec>,
    dtype: DataType,
}

impl ColumnData {
    /// Empty column of the given type.
    pub fn new(dtype: DataType) -> ColumnData {
        ColumnData {
            values: match dtype {
                DataType::Bool => TypedVec::Bool(Vec::new()),
                DataType::Int => TypedVec::Int(Vec::new()),
                DataType::Float => TypedVec::Float(Vec::new()),
                DataType::Str => TypedVec::Str(Vec::new()),
            },
            nulls: None,
            dtype,
        }
    }

    /// Column type.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Number of entries (including NULLs).
    pub fn len(&self) -> usize {
        match &self.values {
            TypedVec::Bool(v) => v.len(),
            TypedVec::Int(v) => v.len(),
            TypedVec::Float(v) => v.len(),
            TypedVec::Str(v) => v.len(),
        }
    }

    /// True iff the column holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Would [`ColumnData::push`] accept `value`? NULL fits every column,
    /// `Int` widens into `Float` columns, every other mismatch is refused.
    pub fn accepts(&self, value: &Value) -> bool {
        matches!(
            (self.dtype, value),
            (_, Value::Null)
                | (DataType::Bool, Value::Bool(_))
                | (DataType::Int, Value::Int(_))
                | (DataType::Float, Value::Float(_) | Value::Int(_))
                | (DataType::Str, Value::Str(_))
        )
    }

    /// Append a value. `Int` values coerce into `Float` columns (SQL-style
    /// numeric widening); every other mismatch is an error.
    pub fn push(&mut self, value: &Value) -> Result<()> {
        match (&mut self.values, value) {
            // A placeholder fills the slot of a NULL; the bitmap marks it.
            (TypedVec::Bool(v), Value::Null) => v.push(false),
            (TypedVec::Int(v), Value::Null) => v.push(0),
            (TypedVec::Float(v), Value::Null) => v.push(0.0),
            (TypedVec::Str(v), Value::Null) => v.push(Arc::from("")),
            (TypedVec::Bool(v), Value::Bool(b)) => v.push(*b),
            (TypedVec::Int(v), Value::Int(i)) => v.push(*i),
            (TypedVec::Float(v), Value::Float(f)) => v.push(*f),
            (TypedVec::Float(v), Value::Int(i)) => v.push(*i as f64),
            (TypedVec::Str(v), Value::Str(s)) => v.push(s.clone()),
            _ => {
                return Err(StorageError::TypeMismatch {
                    expected: self.dtype,
                    found: value.data_type(),
                })
            }
        }
        // The bitmap, once allocated, always covers the whole column: the
        // range kernel and `get` index it without a length guard.
        match &mut self.nulls {
            Some(nulls) => nulls.push(value.is_null()),
            None if value.is_null() => {
                let mut nulls = BitVec::new(self.len() - 1);
                nulls.push(true);
                self.nulls = Some(nulls);
            }
            None => {}
        }
        Ok(())
    }

    /// The typed read: the cell at `idx` borrowed from the native vector
    /// and the null bitmap, with no [`Value`] built (a string stays in its
    /// shared allocation). Batch scans read filter, group-key and
    /// aggregate-argument cells this way.
    pub fn cell(&self, idx: usize) -> Cell<'_> {
        if self.nulls.as_ref().is_some_and(|n| n.get(idx)) {
            return Cell::Null;
        }
        match &self.values {
            TypedVec::Bool(v) => Cell::Bool(v[idx]),
            TypedVec::Int(v) => Cell::Int(v[idx]),
            TypedVec::Float(v) => Cell::Float(v[idx]),
            TypedVec::Str(v) => Cell::Str(&v[idx]),
        }
    }

    /// The native slice of an `Int` column that holds no NULL; `None` for
    /// a column of another type or one that ever held a NULL (its bitmap,
    /// once allocated, stays). Batch aggregation reads group keys and
    /// arguments this way.
    pub fn ints(&self) -> Option<&[i64]> {
        match (&self.values, &self.nulls) {
            (TypedVec::Int(v), None) => Some(v),
            _ => None,
        }
    }

    /// [`ColumnData::ints`] for a `Float` column.
    pub fn floats(&self) -> Option<&[f64]> {
        match (&self.values, &self.nulls) {
            (TypedVec::Float(v), None) => Some(v),
            _ => None,
        }
    }

    /// Read the value at `idx` (the owned form of [`ColumnData::cell`]).
    pub fn get(&self, idx: usize) -> Value {
        self.cell(idx).to_value()
    }

    /// Drop the last entry (undo of a [`ColumnData::push`]).
    pub(crate) fn pop(&mut self) {
        match &mut self.values {
            TypedVec::Bool(v) => drop(v.pop()),
            TypedVec::Int(v) => drop(v.pop()),
            TypedVec::Float(v) => drop(v.pop()),
            TypedVec::Str(v) => drop(v.pop()),
        }
        if let Some(nulls) = &mut self.nulls {
            nulls.pop();
        }
    }

    /// May the column hold a NULL? (Its bitmap, once allocated, stays.)
    pub fn has_nulls(&self) -> bool {
        self.nulls.is_some()
    }

    /// The range kernel: append to `out`, ascending, every index not set
    /// in `deleted` whose value is inside at least one of the active
    /// `ranges` (see [`PruneRanges::narrow`]) or, when the ranges admit
    /// it ([`PruneRanges::or_null`]), is NULL.
    ///
    /// Membership is exact under [`Value`]'s `Ord` — the comparison
    /// [`crate::ZoneMap::may_overlap`] and the SQL evaluator use —
    /// including excluded bounds, `Int`↔`Float` bounds and bounds of a
    /// foreign type, but it is decided on the native slice: `ranges` holds
    /// the bounds already translated into the column's own domain, and one
    /// tight loop per column type compares raw values. Panics when
    /// `ranges` was built for another column type.
    pub fn select_ranges(
        &self,
        ranges: &PruneRanges<'_>,
        deleted: Option<&BitVec>,
        out: &mut Vec<usize>,
    ) {
        let skip = |word: usize| {
            self.nulls.as_ref().map_or(0, |n| n.words()[word])
                | deleted.map_or(0, |d| d.words()[word])
        };
        let start = out.len();
        match (&self.values, &ranges.keys) {
            (TypedVec::Int(vals), NativeKeys::Int(r)) => {
                select_keys(vals, |v| *v, &r.active, skip, out)
            }
            (TypedVec::Float(vals), NativeKeys::Float(r)) => {
                select_keys(vals, |v| total_order_key(*v), &r.active, skip, out)
            }
            (TypedVec::Bool(vals), NativeKeys::Bool(r)) => {
                select_keys(vals, |v| *v, &r.active, skip, out)
            }
            (TypedVec::Str(vals), NativeKeys::Str(r)) => {
                select_keys(vals, |v| &**v, &r.active, skip, out)
            }
            _ => panic!("prune ranges were built for another column type"),
        }
        if let (true, Some(nulls)) = (ranges.nulls, &self.nulls) {
            out.extend(
                nulls
                    .iter_ones()
                    .filter(|&i| !deleted.is_some_and(|d| d.get(i))),
            );
            // The NULLs join the values' ascending run.
            out[start..].sort_unstable();
        }
    }

    /// The same kernel over an existing selection vector: keep in
    /// `selection` the indices whose value is inside at least one of the
    /// active `ranges` (or NULL, when they admit it), order preserved. A
    /// scan narrows its selection with one call per further range
    /// constraint, each on its own column; tombstones were dropped when
    /// the selection was first made.
    pub fn refine_ranges(&self, ranges: &PruneRanges<'_>, selection: &mut Vec<usize>) {
        // `Some(passes)` for a NULL, `None` for a value the ranges decide.
        let null = |idx: usize| {
            (self.nulls.as_ref())
                .is_some_and(|n| n.get(idx))
                .then_some(ranges.nulls)
        };
        match (&self.values, &ranges.keys) {
            (TypedVec::Int(vals), NativeKeys::Int(r)) => {
                selection.retain(|&i| null(i).unwrap_or_else(|| in_any(vals[i], &r.active)))
            }
            (TypedVec::Float(vals), NativeKeys::Float(r)) => selection.retain(|&i| {
                null(i).unwrap_or_else(|| in_any(total_order_key(vals[i]), &r.active))
            }),
            (TypedVec::Bool(vals), NativeKeys::Bool(r)) => {
                selection.retain(|&i| null(i).unwrap_or_else(|| in_any(vals[i], &r.active)))
            }
            (TypedVec::Str(vals), NativeKeys::Str(r)) => {
                selection.retain(|&i| null(i).unwrap_or_else(|| in_any(&*vals[i], &r.active)))
            }
            _ => panic!("prune ranges were built for another column type"),
        }
    }

    /// Min and max non-NULL values (zone-map input); `None` when all NULL
    /// or empty.
    pub fn min_max(&self) -> Option<(Value, Value)> {
        let mut min: Option<Value> = None;
        let mut max: Option<Value> = None;
        for i in 0..self.len() {
            let v = self.get(i);
            if v.is_null() {
                continue;
            }
            match &mut min {
                None => min = Some(v.clone()),
                Some(m) if v < *m => *m = v.clone(),
                _ => {}
            }
            match &mut max {
                None => max = Some(v),
                Some(m) => {
                    if v > *m {
                        *m = v;
                    }
                }
            }
        }
        min.zip(max)
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_size(&self) -> usize {
        let data = match &self.values {
            TypedVec::Bool(v) => v.capacity(),
            TypedVec::Int(v) => v.capacity() * 8,
            TypedVec::Float(v) => v.capacity() * 8,
            TypedVec::Str(v) => {
                v.capacity() * std::mem::size_of::<Arc<str>>()
                    + v.iter().map(|s| s.len()).sum::<usize>()
            }
        };
        data + self.nulls.as_ref().map_or(0, BitVec::heap_size)
    }
}

/// A range in a column's native key domain.
type NativeRange<K> = (Bound<K>, Bound<K>);

/// The inclusive hull of a source range — what a zone map can test.
type Hull<'a> = (Option<&'a Value>, Option<&'a Value>);

/// The ranges one scan constrains a column to, translated **once** into
/// the native key domain of the column's type (`i64`, the `f64`
/// total-order key, `bool`, `&str`): the translation depends on the column
/// type and the bounds only, so every chunk and the open tail share it.
/// Per chunk, [`PruneRanges::narrow`] picks the ranges the zone map leaves
/// reachable; [`ColumnData::select_ranges`] and
/// [`ColumnData::refine_ranges`] run over those.
#[derive(Debug)]
pub struct PruneRanges<'a> {
    column: usize,
    keys: NativeKeys<'a>,
    /// NULL passes too ([`PruneRanges::or_null`]).
    nulls: bool,
}

#[derive(Debug)]
enum NativeKeys<'a> {
    Bool(Translated<'a, bool>),
    Int(Translated<'a, i64>),
    Float(Translated<'a, i64>),
    Str(Translated<'a, &'a str>),
}

/// Source ranges with their native form, and the currently active subset.
#[derive(Debug)]
struct Translated<'a, K> {
    /// `None`: no value of the column type can lie in the range.
    all: Vec<(Hull<'a>, Option<NativeRange<K>>)>,
    /// The native ranges the kernel compares against (reused per chunk).
    active: Vec<NativeRange<K>>,
}

impl<'a> PruneRanges<'a> {
    /// Translate `ranges` over column number `column` of type `dtype`.
    /// Excluded bounds stay excluded: the kernels decide `column ∈ ranges`
    /// exactly, so a caller need not test the same bounds again.
    pub fn new(column: usize, dtype: DataType, ranges: &'a [KeyRange]) -> PruneRanges<'a> {
        let ranges = ranges.iter().map(|(lo, hi)| (lo.as_ref(), hi.as_ref()));
        PruneRanges::translate(column, dtype, ranges)
    }

    /// [`PruneRanges::new`] for inclusive ranges with optional endpoints.
    pub fn inclusive(column: usize, dtype: DataType, ranges: &'a [ValueRange]) -> PruneRanges<'a> {
        let side =
            |bound: &'a Option<Value>| bound.as_ref().map_or(Bound::Unbounded, Bound::Included);
        let ranges = ranges.iter().map(|(lo, hi)| (side(lo), side(hi)));
        PruneRanges::translate(column, dtype, ranges)
    }

    fn translate(
        column: usize,
        dtype: DataType,
        ranges: impl Iterator<Item = (Bound<&'a Value>, Bound<&'a Value>)>,
    ) -> PruneRanges<'a> {
        let rank = dtype.rank();
        let keys = match dtype {
            DataType::Int => {
                NativeKeys::Int(Translated::new(ranges, rank, |bound, is_lo| match bound {
                    Bound::Included(Value::Float(f)) => int_threshold(*f, is_lo, false),
                    Bound::Excluded(Value::Float(f)) => int_threshold(*f, is_lo, true),
                    other => map_bound(other, Value::as_i64),
                }))
            }
            DataType::Float => NativeKeys::Float(Translated::new(ranges, rank, |bound, _| {
                map_bound(bound, |v| v.as_f64().map(total_order_key))
            })),
            DataType::Bool => NativeKeys::Bool(Translated::new(ranges, rank, |bound, _| {
                map_bound(bound, Value::as_bool)
            })),
            DataType::Str => NativeKeys::Str(Translated::new(ranges, rank, |bound, _| {
                map_bound(bound, Value::as_str)
            })),
        };
        PruneRanges {
            column,
            keys,
            nulls: false,
        }
    }

    /// Let NULL pass too when `nulls` is set: the constraint becomes
    /// `column IS NULL OR column ∈ ranges` (a sketch's first fragment
    /// holds the rows whose partition value is NULL).
    pub fn or_null(mut self, nulls: bool) -> PruneRanges<'a> {
        self.nulls = nulls;
        self
    }

    /// Does NULL pass?
    pub fn admits_null(&self) -> bool {
        self.nulls
    }

    /// The constrained column's position in the schema.
    pub fn column(&self) -> usize {
        self.column
    }

    /// Make active exactly the ranges whose inclusive hull `(lo, hi)`
    /// (`None` = unbounded) `reachable` accepts (a chunk passes its
    /// zone-map test; the open tail accepts all). Returns whether it
    /// accepted any range at all.
    pub fn narrow(&mut self, reachable: impl Fn(Option<&Value>, Option<&Value>) -> bool) -> bool {
        match &mut self.keys {
            NativeKeys::Bool(r) => r.narrow(reachable),
            NativeKeys::Int(r) | NativeKeys::Float(r) => r.narrow(reachable),
            NativeKeys::Str(r) => r.narrow(reachable),
        }
    }
}

/// Convert the value inside a bound, keeping its kind (`None`: the
/// conversion failed).
fn map_bound<'a, K>(
    bound: Bound<&'a Value>,
    convert: impl Fn(&'a Value) -> Option<K>,
) -> Option<Bound<K>> {
    Some(match bound {
        Bound::Unbounded => Bound::Unbounded,
        Bound::Included(v) => Bound::Included(convert(v)?),
        Bound::Excluded(v) => Bound::Excluded(convert(v)?),
    })
}

impl<'a, K: Copy> Translated<'a, K> {
    /// `same_rank(bound, is_lo)` converts a bound of the column's own type
    /// family (`None`: nothing passes it). A bound of another family sorts
    /// wholly below or above every column value (`Value`'s type-rank
    /// order), which either lifts that side of the range or empties it.
    fn new(
        ranges: impl Iterator<Item = (Bound<&'a Value>, Bound<&'a Value>)>,
        rank: u8,
        same_rank: impl Fn(Bound<&'a Value>, bool) -> Option<Bound<K>>,
    ) -> Translated<'a, K> {
        let value = |bound: Bound<&'a Value>| match bound {
            Bound::Included(v) | Bound::Excluded(v) => Some(v),
            Bound::Unbounded => None,
        };
        let side = |bound: Bound<&'a Value>, is_lo: bool| -> Option<Bound<K>> {
            let Some(v) = value(bound) else {
                return Some(Bound::Unbounded);
            };
            match v.type_rank().cmp(&rank) {
                Ordering::Equal => same_rank(bound, is_lo),
                // Below every value: holds as a lower bound, never as an upper.
                Ordering::Less => is_lo.then_some(Bound::Unbounded),
                Ordering::Greater => (!is_lo).then_some(Bound::Unbounded),
            }
        };
        let all: Vec<_> = ranges
            .map(|(lo, hi)| {
                let native = side(lo, true).zip(side(hi, false));
                ((value(lo), value(hi)), native)
            })
            .collect();
        Translated {
            active: Vec::with_capacity(all.len()),
            all,
        }
    }

    fn narrow(&mut self, reachable: impl Fn(Option<&Value>, Option<&Value>) -> bool) -> bool {
        self.active.clear();
        let mut any = false;
        for ((lo, hi), native) in &self.all {
            if reachable(*lo, *hi) {
                any = true;
                self.active.extend(*native);
            }
        }
        any
    }
}

/// The inclusive `i64` bound equivalent to comparing widened ints against
/// `f`, which is how `Value::cmp` orders `Int` against `Float`: for a
/// lower bound the smallest `x` with `x as f64 >= f` (`> f` when `strict`),
/// for an upper one the largest with `x as f64 <= f` (`< f`), all in
/// `total_cmp` order. `None` when no `i64` passes.
fn int_threshold(f: f64, is_lo: bool, strict: bool) -> Option<Bound<i64>> {
    let passes = |x: i128| {
        let ord = (x as i64 as f64).total_cmp(&f);
        let beyond = if is_lo {
            Ordering::Greater
        } else {
            Ordering::Less
        };
        ord == beyond || (!strict && ord == Ordering::Equal)
    };
    // `x as f64` is monotone in `x`, so `passes` flips at most once over
    // the i64 domain: bisect for the flip.
    let (mut lo, mut hi) = (i128::from(i64::MIN), i128::from(i64::MAX));
    if !passes(if is_lo { hi } else { lo }) {
        return None;
    }
    while lo < hi {
        if is_lo {
            let mid = (lo + hi).div_euclid(2);
            if passes(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        } else {
            let mid = (lo + hi + 1).div_euclid(2);
            if passes(mid) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
    }
    Some(Bound::Included(lo as i64))
}

/// Map a float to an integer that orders like `f64::total_cmp`.
fn total_order_key(f: f64) -> i64 {
    let bits = f.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Is `k` inside at least one of `ranges`?
#[inline]
fn in_any<K: PartialOrd + Copy>(k: K, ranges: &[NativeRange<K>]) -> bool {
    ranges.iter().any(|&(lo, hi)| {
        (match lo {
            Bound::Unbounded => true,
            Bound::Included(lo) => k >= lo,
            Bound::Excluded(lo) => k > lo,
        }) && (match hi {
            Bound::Unbounded => true,
            Bound::Included(hi) => k <= hi,
            Bound::Excluded(hi) => k < hi,
        })
    })
}

/// The tight loop shared by every column type: 64 rows at a time, compare
/// the native key against the ranges into a hit word, mask out NULLs and
/// tombstones (`skip(word)`), emit the surviving bit positions.
fn select_keys<'a, T, K: PartialOrd + Copy>(
    vals: &'a [T],
    key: impl Fn(&'a T) -> K,
    ranges: &[NativeRange<K>],
    skip: impl Fn(usize) -> u64,
    out: &mut Vec<usize>,
) {
    if ranges.is_empty() {
        return;
    }
    for (word, block) in vals.chunks(64).enumerate() {
        let mut hits = 0u64;
        for (bit, v) in block.iter().enumerate() {
            hits |= u64::from(in_any(key(v), ranges)) << bit;
        }
        hits &= !skip(word);
        while hits != 0 {
            out.push(word * 64 + hits.trailing_zeros() as usize);
            hits &= hits - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut c = ColumnData::new(DataType::Int);
        c.push(&Value::Int(1)).unwrap();
        c.push(&Value::Int(-5)).unwrap();
        assert_eq!(c.get(0), Value::Int(1));
        assert_eq!(c.get(1), Value::Int(-5));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn nulls_tracked() {
        let mut c = ColumnData::new(DataType::Str);
        c.push(&Value::str("x")).unwrap();
        c.push(&Value::Null).unwrap();
        c.push(&Value::str("y")).unwrap();
        assert_eq!(c.get(0), Value::str("x"));
        assert_eq!(c.get(1), Value::Null);
        assert_eq!(c.get(2), Value::str("y"));
    }

    #[test]
    fn int_widens_to_float() {
        let mut c = ColumnData::new(DataType::Float);
        c.push(&Value::Int(2)).unwrap();
        assert_eq!(c.get(0), Value::Float(2.0));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut c = ColumnData::new(DataType::Int);
        let err = c.push(&Value::str("nope")).unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
    }

    #[test]
    fn min_max_skips_nulls() {
        let mut c = ColumnData::new(DataType::Int);
        for v in [Value::Null, Value::Int(5), Value::Int(-2), Value::Null] {
            c.push(&v).unwrap();
        }
        assert_eq!(c.min_max(), Some((Value::Int(-2), Value::Int(5))));
        let empty = ColumnData::new(DataType::Int);
        assert_eq!(empty.min_max(), None);
    }

    #[test]
    fn null_bitmap_grows_with_the_column_and_covers_it() {
        // Appending one bit per push keeps 50 k pushes linear (rebuilding
        // the bitmap on every NULL took seconds here).
        const N: usize = 50_000;
        let mut c = ColumnData::new(DataType::Int);
        for i in 0..N {
            let v = if i % 2 == 0 {
                Value::Null
            } else {
                Value::Int(i as i64)
            };
            c.push(&v).unwrap();
        }
        assert_eq!(c.nulls.as_ref().map(BitVec::len), Some(N));
        for i in 0..N {
            let expect = if i % 2 == 0 {
                Value::Null
            } else {
                Value::Int(i as i64)
            };
            assert_eq!(c.get(i), expect);
        }
        // A column that met its first NULL late is covered from slot 0.
        let mut late = ColumnData::new(DataType::Str);
        for v in [
            Value::str("a"),
            Value::str("b"),
            Value::Null,
            Value::str("c"),
        ] {
            late.push(&v).unwrap();
        }
        assert_eq!(late.nulls.as_ref().map(BitVec::len), Some(4));
        assert_eq!(late.get(1), Value::str("b"));
        assert_eq!(late.get(2), Value::Null);
    }

    /// Bounds of every type family, with the numeric corner cases where
    /// `Int`↔`Float` comparison is lossy or sign-sensitive.
    fn bound_pool() -> Vec<Option<Value>> {
        let mut pool = vec![
            None,
            Some(Value::Null),
            Some(Value::Bool(false)),
            Some(Value::Bool(true)),
            Some(Value::str("")),
            Some(Value::str("b")),
            Some(Value::str("zz")),
        ];
        for i in [i64::MIN, -3, 0, 1, 2, (1 << 53) + 1, i64::MAX] {
            pool.push(Some(Value::Int(i)));
        }
        for f in [
            f64::NEG_INFINITY,
            -2.5,
            -0.0,
            0.0,
            0.5,
            2.0,
            9.007_199_254_740_993e15,
            9.3e18,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ] {
            pool.push(Some(Value::Float(f)));
        }
        pool
    }

    /// Run the kernel over all of `ranges`, as the open tail does; the
    /// refining form must keep the same rows of the live selection.
    fn select(c: &ColumnData, mut prune: PruneRanges<'_>, deleted: Option<&BitVec>) -> Vec<usize> {
        prune.narrow(|_, _| true);
        let mut out = Vec::new();
        c.select_ranges(&prune, deleted, &mut out);
        let mut refined: Vec<usize> = (0..c.len())
            .filter(|&i| deleted.is_none_or(|d| !d.get(i)))
            .collect();
        c.refine_ranges(&prune, &mut refined);
        assert_eq!(refined, out);
        out
    }

    fn select_inclusive(c: &ColumnData, ranges: &[ValueRange]) -> Vec<usize> {
        select(c, PruneRanges::inclusive(0, c.dtype(), ranges), None)
    }

    fn kernel_matches_value_order(dtype: DataType, values: &[Value]) {
        let mut c = ColumnData::new(dtype);
        for v in values {
            c.push(v).unwrap();
        }
        let mut deleted = BitVec::new(values.len());
        deleted.set(1, true);
        let pool = bound_pool();
        // Every pair of bounds, each included and excluded.
        let bound = |b: &Option<Value>, strict: bool| match b {
            None => Bound::Unbounded,
            Some(v) if strict => Bound::Excluded(v.clone()),
            Some(v) => Bound::Included(v.clone()),
        };
        let above = |v: &Value, lo: &Bound<Value>| match lo {
            Bound::Unbounded => true,
            Bound::Included(lo) => v >= lo,
            Bound::Excluded(lo) => v > lo,
        };
        let below = |v: &Value, hi: &Bound<Value>| match hi {
            Bound::Unbounded => true,
            Bound::Included(hi) => v <= hi,
            Bound::Excluded(hi) => v < hi,
        };
        for (lo, hi) in pool
            .iter()
            .flat_map(|lo| pool.iter().map(move |hi| (lo, hi)))
        {
            for (strict_lo, strict_hi) in
                [(false, false), (true, false), (false, true), (true, true)]
            {
                let range = [(bound(lo, strict_lo), bound(hi, strict_hi))];
                for tombstones in [None, Some(&deleted)] {
                    let got = select(&c, PruneRanges::new(0, dtype, &range), tombstones);
                    let want: Vec<usize> = (0..values.len())
                        .filter(|&i| {
                            let v = c.get(i);
                            !v.is_null()
                                && tombstones.is_none_or(|d| !d.get(i))
                                && above(&v, &range[0].0)
                                && below(&v, &range[0].1)
                        })
                        .collect();
                    assert_eq!(got, want, "{dtype} column, range {range:?}");
                }
            }
        }
        // The inclusive form is the included-bounds case.
        let range = [(Some(values[0].clone()), None)];
        let exact = [(Bound::Included(values[0].clone()), Bound::Unbounded)];
        assert_eq!(
            select_inclusive(&c, &range),
            select(&c, PruneRanges::new(0, dtype, &exact), None)
        );
    }

    #[test]
    fn range_kernel_agrees_with_value_order_on_every_type() {
        let mut ints: Vec<Value> = [i64::MIN, -3, -1, 0, 1, 2, 3, 1 << 53, (1 << 53) + 1]
            .map(Value::Int)
            .into();
        ints.extend([Value::Null, Value::Int(i64::MAX - 1), Value::Int(i64::MAX)]);
        // More than one 64-row word, so the masks are indexed past word 0.
        ints.extend((0..70).map(Value::Int));
        kernel_matches_value_order(DataType::Int, &ints);

        let floats: Vec<Value> = [
            Value::Float(f64::NEG_INFINITY),
            Value::Float(-2.5),
            Value::Null,
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Int(2),
            Value::Float(2.5),
            Value::Float(9.3e18),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NAN),
        ]
        .into();
        kernel_matches_value_order(DataType::Float, &floats);

        let strs: Vec<Value> = ["", "a", "b", "ba", "zz", "zzz"]
            .map(Value::str)
            .into_iter()
            .chain([Value::Null])
            .collect();
        kernel_matches_value_order(DataType::Str, &strs);

        let bools = [
            Value::Bool(true),
            Value::Bool(false),
            Value::Null,
            Value::Bool(true),
        ];
        kernel_matches_value_order(DataType::Bool, &bools);
    }

    #[test]
    fn range_kernel_unions_ranges_and_skips_empty_input() {
        let mut c = ColumnData::new(DataType::Int);
        for i in 0..10 {
            c.push(&Value::Int(i)).unwrap();
        }
        let ranges = [
            (Some(Value::Int(1)), Some(Value::Int(2))),
            (Some(Value::str("x")), None), // no int reaches a string bound
            (Some(Value::Int(2)), Some(Value::Float(3.5))),
            (Some(Value::Int(8)), None),
        ];
        assert_eq!(select_inclusive(&c, &ranges), vec![1, 2, 3, 8, 9]);
        assert!(select_inclusive(&c, &[]).is_empty());
        // Narrowed to the ranges a zone map leaves reachable.
        let mut prune = PruneRanges::inclusive(0, DataType::Int, &ranges);
        assert!(prune.narrow(|lo, _| lo == Some(&Value::Int(8))));
        let mut got = Vec::new();
        c.select_ranges(&prune, None, &mut got);
        assert_eq!(got, vec![8, 9]);
        assert!(!prune.narrow(|_, _| false));
    }

    #[test]
    fn range_kernel_admits_nulls_in_storage_order() {
        let column = |values: &[Option<i64>]| {
            let mut c = ColumnData::new(DataType::Int);
            for v in values {
                c.push(&v.map_or(Value::Null, Value::Int)).unwrap();
            }
            c
        };
        // `c0 < 1 OR c0 IS NULL`, and the same range without the NULLs.
        let below_one = [(Bound::Unbounded, Bound::Excluded(Value::Int(1)))];
        let with_nulls = || PruneRanges::new(0, DataType::Int, &below_one).or_null(true);
        assert!(with_nulls().admits_null());
        assert!(!PruneRanges::new(0, DataType::Int, &below_one).admits_null());

        // Values and NULLs mixed: ascending, NULLs in place.
        let mixed = column(&[None, Some(0), Some(2), None, Some(1), Some(-1)]);
        assert!(mixed.has_nulls());
        assert_eq!(select(&mixed, with_nulls(), None), vec![0, 1, 3, 5]);
        let without = PruneRanges::new(0, DataType::Int, &below_one);
        assert_eq!(select(&mixed, without, None), vec![1, 5]);
        // A tombstoned NULL stays out.
        let mut deleted = BitVec::new(6);
        deleted.set(3, true);
        assert_eq!(select(&mixed, with_nulls(), Some(&deleted)), vec![0, 1, 5]);

        // Every value NULL: every row passes, in order.
        let all_null = column(&[None, None, None]);
        assert_eq!(select(&all_null, with_nulls(), None), vec![0, 1, 2]);
        // No NULL: the values alone.
        let no_null = column(&[Some(3), Some(0)]);
        assert!(!no_null.has_nulls());
        assert_eq!(select(&no_null, with_nulls(), None), vec![1]);

        // Appending keeps what `out` held, and sorts only the new run.
        let mut out = vec![7];
        let mut prune = with_nulls();
        prune.narrow(|_, _| true);
        mixed.select_ranges(&prune, None, &mut out);
        assert_eq!(out, vec![7, 0, 1, 3, 5]);
    }
}
