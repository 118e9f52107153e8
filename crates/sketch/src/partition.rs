//! Range partitions (Def. 4.1) and global fragment-id spaces.

use crate::error::SketchError;
use crate::Result;
use imp_engine::eval::PartitionValues;
use imp_engine::{equi_depth_cuts, Database};
use imp_storage::{Cell, Value};
use std::sync::Arc;

/// A range partition `F_{φ,a}(R)` of one table on one attribute.
///
/// The partition is represented by strictly increasing *cut points*
/// `c₁ < … < c_{n−1}`; fragment `i` covers `[cᵢ, cᵢ₊₁)` with the first and
/// last fragments unbounded toward the domain limits, so the fragments
/// cover the *whole* domain, not just its active part (paper §7.4 — this
/// is what keeps future inserts inside some fragment).
#[derive(Debug, Clone, PartialEq)]
pub struct RangePartition {
    /// Partitioned table.
    pub table: String,
    /// Partition attribute name.
    pub attribute: String,
    /// Position of the attribute in the base-table schema.
    pub column: usize,
    cuts: Vec<Value>,
}

impl RangePartition {
    /// Build from explicit cut points (must be strictly increasing and
    /// non-NULL).
    pub fn new(
        table: impl Into<String>,
        attribute: impl Into<String>,
        column: usize,
        cuts: Vec<Value>,
    ) -> Result<RangePartition> {
        for w in cuts.windows(2) {
            if w[0] >= w[1] {
                return Err(SketchError::InvalidPartition(format!(
                    "cut points must be strictly increasing: {} !< {}",
                    w[0], w[1]
                )));
            }
        }
        if cuts.iter().any(Value::is_null) {
            return Err(SketchError::InvalidPartition(
                "cut points must be non-NULL".into(),
            ));
        }
        Ok(RangePartition {
            table: table.into().to_ascii_lowercase(),
            attribute: attribute.into(),
            column,
            cuts,
        })
    }

    /// Build a partition with `fragments` equi-depth fragments from the
    /// current contents of `table.attribute` (paper §7.4: "we use the
    /// bounds of equi-depth histograms … as ranges").
    pub fn equi_depth(
        db: &Database,
        table: &str,
        attribute: &str,
        fragments: usize,
    ) -> Result<RangePartition> {
        let schema = db.table(table)?.schema().clone();
        let column = schema.index_of(attribute).ok_or_else(|| {
            SketchError::InvalidPartition(format!("unknown attribute {table}.{attribute}"))
        })?;
        let cuts = equi_depth_cuts(db, table, attribute, fragments)?;
        RangePartition::new(table, attribute, column, cuts)
    }

    /// Number of fragments (`|φ|`).
    pub fn fragment_count(&self) -> usize {
        self.cuts.len() + 1
    }

    /// Fragment a value belongs to. NULLs land in fragment 0 by convention.
    pub fn fragment_of(&self, v: &Value) -> usize {
        self.fragment_of_cell(v.as_cell())
    }

    /// [`RangePartition::fragment_of`] for a cell read from a column.
    fn fragment_of_cell(&self, v: Cell<'_>) -> usize {
        if v == Cell::Null {
            return 0;
        }
        // Number of cut points <= v.
        self.cuts.partition_point(|c| c.as_cell() <= v)
    }

    /// The typed fragment kernel: push [`RangePartition::fragment_of`] of
    /// each of `values` onto `out`, in order. NULL-free Int values (a
    /// column's `i64` slice, or `i64`s gathered through a join's positions)
    /// cut at Int points are decided as `i64`s, and a value inside the last
    /// fragment found is not searched for: runs of a clustered column cost
    /// two comparisons a value. Any other value is decided cell by cell.
    pub fn fragments_of(&self, values: &PartitionValues<'_>, out: &mut Vec<u32>) {
        let fragment = |n: usize| n as u32;
        let cuts = || (self.cuts.iter().map(Value::as_i64)).collect::<Option<Vec<_>>>();
        let ints = match values {
            PartitionValues::Rows(column, rows) => {
                if let Some((ints, cuts)) = column.ints().zip(cuts()) {
                    return int_fragments(&cuts, rows.iter().map(|&row| ints[row]), out);
                }
                let cells = rows.iter().map(|&row| column.cell(row));
                out.extend(cells.map(|cell| fragment(self.fragment_of_cell(cell))));
                return;
            }
            PartitionValues::Ints(ints) => ints,
            PartitionValues::Cells(cells) => {
                out.extend((cells.iter()).map(|&cell| fragment(self.fragment_of_cell(cell))));
                return;
            }
        };
        match cuts() {
            Some(cuts) => int_fragments(&cuts, ints.iter().copied(), out),
            None => {
                out.extend((ints.iter()).map(|&v| fragment(self.fragment_of_cell(Cell::Int(v)))))
            }
        }
    }

    /// Bounds of fragment `i`: inclusive lower, exclusive upper; `None`
    /// means unbounded (domain edge).
    pub fn fragment_bounds(&self, i: usize) -> (Option<&Value>, Option<&Value>) {
        let lo = if i == 0 {
            None
        } else {
            Some(&self.cuts[i - 1])
        };
        let hi = self.cuts.get(i);
        (lo, hi)
    }

    /// The raw cut points.
    pub fn cuts(&self) -> &[Value] {
        &self.cuts
    }

    /// Heap footprint of the boundary list — the "memory of ranges"
    /// quantity of paper Fig. 18.
    pub fn heap_size(&self) -> usize {
        self.cuts.capacity() * std::mem::size_of::<Value>()
            + self.cuts.iter().map(Value::heap_size).sum::<usize>()
            + self.table.len()
            + self.attribute.len()
    }
}

/// [`RangePartition::fragments_of`] for Int `values` and the partition's
/// Int `cuts`: the fragment of each value, the last fragment found
/// reused while the values stay inside it.
fn int_fragments(cuts: &[i64], values: impl Iterator<Item = i64>, out: &mut Vec<u32>) {
    // The last fragment found, as `[lo, hi]`; none at first.
    let (mut lo, mut hi, mut last) = (1, 0, 0);
    out.extend(values.map(|v| {
        if !(lo..=hi).contains(&v) {
            let f = cuts.partition_point(|&c| c <= v);
            // The cut above `v` exceeds it, so `c - 1` cannot overflow.
            lo = if f == 0 { i64::MIN } else { cuts[f - 1] };
            hi = cuts.get(f).map_or(i64::MAX, |&c| c - 1);
            last = f as u32;
        }
        last
    }));
}

/// The partitions `Φ` of every table a query touches, with a contiguous
/// global fragment-id space (partition `p`'s fragment `f` maps to
/// `offset(p) + f`). Tuple annotations and merge-operator state are
/// bitvectors / counters over this space.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSet {
    partitions: Vec<Arc<RangePartition>>,
    offsets: Vec<usize>,
    total: usize,
}

impl PartitionSet {
    /// Build from partitions (at most one per table).
    pub fn new(partitions: Vec<RangePartition>) -> Result<PartitionSet> {
        for (i, p) in partitions.iter().enumerate() {
            for q in &partitions[i + 1..] {
                if p.table == q.table {
                    return Err(SketchError::InvalidPartition(format!(
                        "duplicate partition for table {}",
                        p.table
                    )));
                }
            }
        }
        let mut offsets = Vec::with_capacity(partitions.len());
        let mut total = 0usize;
        for p in &partitions {
            offsets.push(total);
            total += p.fragment_count();
        }
        Ok(PartitionSet {
            partitions: partitions.into_iter().map(Arc::new).collect(),
            offsets,
            total,
        })
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// True iff no table is partitioned.
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// Total fragments across all partitions (`p` in the complexity
    /// analysis, §5.3).
    pub fn total_fragments(&self) -> usize {
        self.total
    }

    /// All partitions with their global offsets.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Arc<RangePartition>)> {
        self.offsets.iter().copied().zip(self.partitions.iter())
    }

    /// Partition (index, offset, partition) for a table, if any.
    pub fn for_table(&self, table: &str) -> Option<(usize, usize, &Arc<RangePartition>)> {
        let t = table.to_ascii_lowercase();
        self.partitions
            .iter()
            .enumerate()
            .find(|(_, p)| p.table == t)
            .map(|(i, p)| (i, self.offsets[i], p))
    }

    /// Global fragment id for `(partition index, fragment)`.
    pub fn global_id(&self, partition: usize, fragment: usize) -> usize {
        debug_assert!(fragment < self.partitions[partition].fragment_count());
        self.offsets[partition] + fragment
    }

    /// Map a global fragment id back to `(partition index, fragment)`.
    pub fn locate(&self, global: usize) -> (usize, usize) {
        debug_assert!(global < self.total);
        let p = self.offsets.partition_point(|&o| o <= global) - 1;
        (p, global - self.offsets[p])
    }

    /// Partition by index.
    pub fn partition(&self, i: usize) -> &Arc<RangePartition> {
        &self.partitions[i]
    }

    /// Heap footprint of all boundary lists (Fig. 18 "memory of ranges").
    pub fn heap_size(&self) -> usize {
        self.partitions.iter().map(|p| p.heap_size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_storage::{ColumnData, DataType};

    /// The running-example partition φ_price of Ex. 1.1:
    /// ρ1=[1,600], ρ2=[601,1000], ρ3=[1001,1500], ρ4=[1501,10000].
    pub fn phi_price() -> RangePartition {
        RangePartition::new(
            "sales",
            "price",
            2,
            vec![Value::Int(601), Value::Int(1001), Value::Int(1501)],
        )
        .unwrap()
    }

    #[test]
    fn fragment_lookup_matches_example() {
        let p = phi_price();
        assert_eq!(p.fragment_count(), 4);
        assert_eq!(p.fragment_of(&Value::Int(349)), 0); // ρ1: Lenovo 349
        assert_eq!(p.fragment_of(&Value::Int(999)), 1); // ρ2: HP 999
        assert_eq!(p.fragment_of(&Value::Int(1199)), 2); // ρ3: MacBook Air
        assert_eq!(p.fragment_of(&Value::Int(3875)), 3); // ρ4: MacBook Pro
        assert_eq!(p.fragment_of(&Value::Int(601)), 1); // boundary: inclusive lower
        assert_eq!(p.fragment_of(&Value::Int(600)), 0);
    }

    #[test]
    fn whole_domain_covered() {
        let p = phi_price();
        assert_eq!(p.fragment_of(&Value::Int(i64::MIN)), 0);
        assert_eq!(p.fragment_of(&Value::Int(i64::MAX)), 3);
        assert_eq!(p.fragment_of(&Value::Null), 0);
    }

    /// The typed kernel finds `fragment_of` of every cell: an Int slice,
    /// runs inside a fragment and jumps across it, the domain edges, and
    /// the cells of Float columns, NULLs, cuts of another type and a Str
    /// column.
    #[test]
    fn fragments_of_a_column_are_fragment_of_each_cell() {
        let column = |dtype, values: &[Value]| {
            let mut c = ColumnData::new(dtype);
            values.iter().for_each(|v| c.push(v).unwrap());
            c
        };
        let ints = [
            i64::MIN,
            600,
            600,
            601,
            601,
            1000,
            1001,
            1500,
            1501,
            1501,
            i64::MAX,
            349,
            999,
            0,
        ]
        .map(Value::Int);
        let floats = [-1.5, 600.5, 601.0, 1500.9, 1501.0, f64::MAX, 0.0].map(Value::Float);
        let mut nullable = ints.to_vec();
        nullable[4] = Value::Null;
        let strs = ["a", "b"].map(Value::str);
        let float_cuts =
            RangePartition::new("t", "a", 0, [600.5, 1001.0].map(Value::Float).to_vec()).unwrap();
        let cases = [
            (phi_price(), column(DataType::Int, &ints)),
            (phi_price(), column(DataType::Float, &floats)),
            (float_cuts.clone(), column(DataType::Float, &floats)),
            (float_cuts, column(DataType::Int, &ints)),
            (phi_price(), column(DataType::Int, &nullable)),
            (phi_price(), column(DataType::Str, &strs)),
        ];
        for (p, c) in cases {
            let rows: Vec<usize> = (0..c.len()).rev().chain(0..c.len()).collect();
            let want: Vec<u32> = (rows.iter())
                .map(|&row| p.fragment_of(&c.get(row)) as u32)
                .collect();
            // The same values as a batch's selected rows, as `i64`s gathered
            // through a join's positions (a NULL-free Int column), and as
            // cells read through them.
            let gathered = c
                .ints()
                .map(|ints| rows.iter().map(|&row| ints[row]).collect());
            let cells = rows.iter().map(|&row| c.cell(row)).collect();
            let forms = [
                Some(PartitionValues::Rows(&c, &rows)),
                gathered.map(PartitionValues::Ints),
            ];
            for values in forms
                .into_iter()
                .flatten()
                .chain([PartitionValues::Cells(cells)])
            {
                let mut out = Vec::new();
                p.fragments_of(&values, &mut out);
                assert_eq!(out, want, "{values:?} cut at {:?}", p.cuts());
            }
        }
    }

    #[test]
    fn bounds() {
        let p = phi_price();
        assert_eq!(p.fragment_bounds(0), (None, Some(&Value::Int(601))));
        assert_eq!(
            p.fragment_bounds(2),
            (Some(&Value::Int(1001)), Some(&Value::Int(1501)))
        );
        assert_eq!(p.fragment_bounds(3), (Some(&Value::Int(1501)), None));
    }

    #[test]
    fn rejects_bad_cuts() {
        assert!(RangePartition::new("t", "a", 0, vec![Value::Int(5), Value::Int(5)]).is_err());
        assert!(RangePartition::new("t", "a", 0, vec![Value::Int(5), Value::Int(1)]).is_err());
        assert!(RangePartition::new("t", "a", 0, vec![Value::Null]).is_err());
    }

    #[test]
    fn partition_set_global_ids() {
        // Fig. 5: φ_a has 2 fragments (f1,f2), φ_c has 2 (g1,g2).
        let pa = RangePartition::new("r", "a", 0, vec![Value::Int(6)]).unwrap();
        let pc = RangePartition::new("s", "c", 0, vec![Value::Int(7)]).unwrap();
        let ps = PartitionSet::new(vec![pa, pc]).unwrap();
        assert_eq!(ps.total_fragments(), 4);
        assert_eq!(ps.global_id(0, 1), 1); // f2
        assert_eq!(ps.global_id(1, 0), 2); // g1
        assert_eq!(ps.locate(3), (1, 1)); // g2
        let (idx, off, p) = ps.for_table("s").unwrap();
        assert_eq!((idx, off), (1, 2));
        assert_eq!(p.attribute, "c");
    }

    #[test]
    fn duplicate_table_rejected() {
        let pa = RangePartition::new("r", "a", 0, vec![]).unwrap();
        let pb = RangePartition::new("r", "b", 1, vec![]).unwrap();
        assert!(PartitionSet::new(vec![pa, pb]).is_err());
    }
}
