//! Annotated deltas flowing between incremental operators.
//!
//! A delta is a bag of `Δ±⟨t, P⟩ⁿ` entries (paper §4.3) represented with
//! *signed* multiplicities: `mult > 0` is an insertion, `mult < 0` a
//! deletion. The sign algebra makes the four-case join rule of §5.2.4 fall
//! out of multiplication (`Δ- × Δ- = Δ+`, `Δ- × Δ+ = Δ-`, …).
//!
//! # Retraction is first-class
//!
//! Every operator is *symmetric in the sign*: a high-churn batch mixing
//! inserts and deletes of the same tuples flows through selection,
//! projection, the join, and aggregation exactly like
//! an insert-only batch — state merges by `(row, annotation content)`
//! and cancels at zero multiplicity everywhere
//! ([`crate::opt::SideIndex`], aggregation groups), and
//! [`normalize_delta_with`] annihilates same-batch insert+delete pairs
//! before an operator's output reaches its parent. The `nary_differential`
//! suite drives eviction/restore cycles under such churn and requires
//! byte-identical sketches against the oracles.
//!
//! # The `DeltaBatch` / `AnnotPool` design
//!
//! Deltas are represented as [`DeltaBatch`]es: each [`DeltaEntry`] holds
//! an `Arc`-shared [`imp_storage::Row`] payload and a pooled [`AnnotId`]
//! instead of an owned bitvector. The batch is *interpreted against* the
//! maintainer's [`AnnotPool`], which hash-conses annotation bitvectors:
//!
//! * **Id stability / canonicity** — within one pool, equal ids ⇔ equal
//!   bitvectors, and an id stays valid until the pool is cleared. Ids
//!   are only live *within* one maintenance/bootstrap call (persistent
//!   operator state holds fragment counters or `Arc<BitVec>` content
//!   handles, never ids), so the pool may safely be flushed between
//!   runs — which happens on state eviction and when the pool outgrows
//!   its size bound. Operators compare, hash, and group by `u32` ids
//!   where the flat representation compared whole bitvectors.
//! * **Memoized unions** — `pool.union(a, b)` consults a symmetric memo
//!   table; each distinct unordered pair is computed at most once, via
//!   in-place [`imp_storage::BitVec::union_with`] on a single fresh
//!   clone. The join four-case rule and aggregate re-annotation thus
//!   allocate per *distinct annotation combination*, not per output row.
//! * **Interned rows** — delta ingestion routes payloads through a
//!   [`imp_storage::RowInterner`] so a stream that repeatedly touches the
//!   same tuple shares one allocation; [`delta_heap_sizes`] counts each
//!   shared payload / pooled annotation once, which is the quantity the
//!   Fig. 11/17 memory accounting reports.
//!
//! Ordering-sensitive operator state (top-k) stores `Arc<BitVec>` handles
//! obtained from [`AnnotPool::share`] instead of raw ids, so its ordering
//! follows annotation *content* and survives state eviction / restore
//! even though pool ids are reassigned on re-interning.

pub use imp_storage::{AnnotId, AnnotPool, DeltaBatch, DeltaEntry};
use imp_storage::{BitVec, DeltaColumns, FxHashMap, FxHashSet, Row};

/// Default batch size at which normalize switches to the columnar
/// sort-then-run-length kernel ([`DeltaColumns::merged`]); smaller
/// batches keep the row-at-a-time hash fold, whose setup cost is lower.
/// Configurable per run via `OpConfig::columnar_min`.
pub const NORMALIZE_COLUMNAR_MIN: usize = 32;

/// Fold entries with identical `(row, annotation-id)` into one, dropping
/// zero-multiplicity results, at the default columnar crossover. See
/// [`normalize_delta_with`].
pub fn normalize_delta(delta: DeltaBatch) -> DeltaBatch {
    normalize_delta_with(delta, NORMALIZE_COLUMNAR_MIN)
}

/// Fold entries with identical `(row, annotation-id)` into one, dropping
/// zero-multiplicity results. Keeps batches compact between operators,
/// and is where same-batch insert+delete churn annihilates.
///
/// Annotation ids are canonical within a pool, so the fold key never
/// touches bitvector contents. Batches of at least `columnar_min` rows
/// take the columnar sort-then-run-length kernel; both paths produce the
/// identical batch (merged, zero-filtered, sorted by
/// `(row, annotation)`).
pub fn normalize_delta_with(delta: DeltaBatch, columnar_min: usize) -> DeltaBatch {
    if delta.len() <= 1 {
        return delta;
    }
    if delta.len() >= columnar_min {
        DeltaColumns::from_owned(delta).merged()
    } else {
        normalize_delta_rowwise(delta)
    }
}

/// The row-at-a-time normalize fallback (also the property-test oracle
/// for the columnar kernel).
pub fn normalize_delta_rowwise(delta: DeltaBatch) -> DeltaBatch {
    if delta.len() <= 1 {
        return delta;
    }
    let mut map: FxHashMap<(Row, AnnotId), i64> = FxHashMap::default();
    for d in delta {
        *map.entry((d.row, d.annot)).or_insert(0) += d.mult;
    }
    let mut out: DeltaBatch = map
        .into_iter()
        .filter(|(_, m)| *m != 0)
        .map(|((row, annot), mult)| DeltaEntry { row, annot, mult })
        .collect();
    // Deterministic order for tests and reproducible merge processing.
    out.sort_by(|a, b| (&a.row, a.annot).cmp(&(&b.row, b.annot)));
    out
}

/// Total number of touched tuples (sum of |mult|).
pub fn delta_magnitude(delta: &DeltaBatch) -> u64 {
    delta.iter().map(|d| d.mult.unsigned_abs()).sum()
}

/// Scratch of [`delta_heap_sizes`]: the row allocations and annotation
/// ids already counted in the batch at hand. Reusable across batches.
#[derive(Debug, Default)]
pub struct DeltaSeen {
    rows: FxHashSet<usize>,
    annots: FxHashSet<AnnotId>,
}

/// `(pooled, flat)` heap footprint of a delta batch, in one pass (memory
/// experiments, Fig. 11/17). *Pooled* counts each shared row payload and
/// each pooled annotation once; *flat* is what the same batch would
/// occupy in the pre-pool representation (one owned row + bitvector per
/// entry) — the baseline the pool-aware number is compared against.
pub fn delta_heap_sizes(
    delta: &DeltaBatch,
    pool: &AnnotPool,
    seen: &mut DeltaSeen,
) -> (usize, usize) {
    seen.rows.clear();
    seen.annots.clear();
    let flat_entry =
        std::mem::size_of::<Row>() + std::mem::size_of::<BitVec>() + std::mem::size_of::<i64>();
    let mut pooled = delta.len() * std::mem::size_of::<DeltaEntry>();
    let mut flat = delta.len() * flat_entry;
    for d in delta.iter() {
        let (row, annot) = (d.row.heap_size(), pool.get(d.annot).heap_size());
        flat += row + annot;
        if seen.rows.insert(d.row.ptr_id()) {
            pooled += row;
        }
        if seen.annots.insert(d.annot) {
            pooled += annot;
        }
    }
    (pooled, flat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_storage::row;

    fn entry(pool: &mut AnnotPool, r: Row, bit: usize, mult: i64) -> DeltaEntry {
        DeltaEntry {
            row: r,
            annot: pool.singleton(bit),
            mult,
        }
    }

    #[test]
    fn normalize_merges_and_cancels() {
        let mut p = AnnotPool::new(4);
        let d: DeltaBatch = vec![
            entry(&mut p, row![1], 0, 2),
            entry(&mut p, row![1], 0, -2),
            entry(&mut p, row![2], 1, 1),
            entry(&mut p, row![2], 1, 3),
        ]
        .into();
        let n = normalize_delta(d);
        assert_eq!(n.len(), 1);
        assert_eq!(n[0].row, row![2]);
        assert_eq!(n[0].mult, 4);
    }

    #[test]
    fn distinct_annotations_not_merged() {
        let mut p = AnnotPool::new(4);
        let d: DeltaBatch = vec![entry(&mut p, row![1], 0, 1), entry(&mut p, row![1], 1, 1)].into();
        assert_eq!(normalize_delta(d).len(), 2);
    }

    #[test]
    fn magnitude_sums_absolute() {
        let mut p = AnnotPool::new(4);
        let d: DeltaBatch =
            vec![entry(&mut p, row![1], 0, 3), entry(&mut p, row![2], 1, -2)].into();
        assert_eq!(delta_magnitude(&d), 5);
    }

    #[test]
    fn pooled_heap_size_beats_flat_on_repetition() {
        // 100 entries over one shared row and one pooled annotation.
        let mut p = AnnotPool::new(64);
        let mut ri = imp_storage::RowInterner::new();
        let mut d = DeltaBatch::new();
        for i in 0..100i64 {
            let row = ri.intern(row![7, "same", 42]);
            d.push_entry(row, p.singleton(3), if i % 2 == 0 { 1 } else { -1 });
        }
        let (pooled, flat) = delta_heap_sizes(&d, &p, &mut DeltaSeen::default());
        // The pooled size is dominated by the fixed 32-byte entries; the
        // shared payload/annotation heap is counted exactly once.
        assert!(
            pooled < flat / 3,
            "pooled {pooled} should be far below flat {flat}"
        );
    }
}
