//! Interning pools for the delta pipeline.
//!
//! Sketch annotations are tiny, highly repetitive fragment sets: a base
//! table's delta rows carry singleton annotations (one per fragment the
//! partition assigns), and join outputs combine a handful of such sets
//! over and over. Allocating a fresh [`BitVec`] per delta row — as a flat
//! `Vec<(Row, BitVec, i64)>` representation forces — therefore wastes both
//! memory and the paper's core advantage that deltas are small.
//!
//! This module provides the arena-backed alternative:
//!
//! * [`AnnotPool`] hash-conses annotations: structurally equal bitvectors
//!   get the same small [`AnnotId`], unions of two ids are memoized and
//!   computed at most once (via in-place [`BitVec::union_with`]), and
//!   singleton annotations are served from a per-fragment cache without
//!   ever materialising a probe bitvector twice.
//! * [`RowInterner`] deduplicates structurally equal [`Row`] payloads so
//!   repeated updates of the same tuple share one `Arc` allocation.
//! * [`DeltaBatch`] is the batch representation flowing between
//!   incremental operators: rows are `Arc`-shared, annotations are plain
//!   `u32` ids into a pool, so cloning / shipping a batch (e.g. to another
//!   thread) copies no tuple or bitvector data.
//!
//! ## Invariants
//!
//! * **Id stability**: an [`AnnotId`] stays valid for the lifetime of its
//!   pool (until [`AnnotPool::clear`]); interning never moves or mutates
//!   pooled bitvectors.
//! * **Canonical ids**: two ids issued by the same pool are equal iff
//!   their bitvectors are structurally equal, so id comparison replaces
//!   bitvector comparison on hot paths.
//! * **Memoized unions**: `union(a, b)` consults a symmetric memo table;
//!   each distinct unordered pair is computed at most once.

use crate::bitvec::BitVec;
use crate::hash::{FxHashMap, FxHashSet};
use crate::row::Row;
use std::fmt;
use std::sync::Arc;

/// Handle to an interned annotation bitvector inside an [`AnnotPool`].
///
/// Ids are canonical within their pool: equal ids ⇔ equal bitvectors.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AnnotId(u32);

impl AnnotId {
    /// Index of the annotation inside its pool.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for AnnotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "α{}", self.0)
    }
}

/// Cumulative counters of pool activity (for the memory experiments and
/// the bench harness's memoization reporting).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Distinct bitvectors materialised in the pool.
    pub interned: u64,
    /// Intern requests answered by an existing entry (no allocation).
    pub intern_hits: u64,
    /// Unions actually computed (allocating exactly one result each).
    pub unions_computed: u64,
    /// Union requests answered from the memo table or a fast path
    /// (identical / empty / subset operands) — no allocation.
    pub union_memo_hits: u64,
    /// Distinct rows registered by the paired [`RowInterner`]. Zero in
    /// [`AnnotPool::stats`] (the pool holds no rows); populated by
    /// holders of both structures, e.g. a sketch maintainer.
    pub rows_interned: u64,
    /// Row intern requests answered by an existing allocation (same
    /// population rule as [`PoolStats::rows_interned`]).
    pub row_hits: u64,
}

/// Hash-consing arena for annotation bitvectors.
///
/// Id 0 is always the all-zero annotation of the pool's width.
#[derive(Debug)]
pub struct AnnotPool {
    width: usize,
    /// Id → bitvector. `Arc` so ordering-sensitive operator state can hold
    /// an O(1) content handle ([`AnnotPool::share`]).
    vecs: Vec<Arc<BitVec>>,
    /// Content → id (the hash-consing index).
    index: FxHashMap<Arc<BitVec>, AnnotId>,
    /// Fragment → singleton id, so per-row annotation of base-table deltas
    /// never allocates a probe bitvector after the first sighting.
    singletons: FxHashMap<u32, AnnotId>,
    /// Memoized unions, keyed by the unordered pair `(min, max)`.
    union_memo: FxHashMap<(AnnotId, AnnotId), AnnotId>,
    stats: PoolStats,
    /// Running Σ of the pooled bitvectors' bytes (contents + header).
    vec_bytes: usize,
    /// Entries re-registered by [`AnnotPool::adopt`] since the last clear.
    adopted: usize,
}

impl AnnotPool {
    /// Fresh pool over `width` fragments; id 0 is the empty annotation.
    pub fn new(width: usize) -> AnnotPool {
        AnnotPool::with_empty(width, Arc::new(BitVec::new(width)))
    }

    fn with_empty(width: usize, empty: Arc<BitVec>) -> AnnotPool {
        let mut pool = AnnotPool {
            width,
            vecs: Vec::with_capacity(1),
            index: FxHashMap::default(),
            singletons: FxHashMap::default(),
            union_memo: FxHashMap::default(),
            stats: PoolStats::default(),
            vec_bytes: 0,
            adopted: 0,
        };
        pool.insert_new(empty);
        pool
    }

    /// Number of bits of every pooled annotation.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of distinct pooled annotations (≥ 1: the empty one).
    pub fn len(&self) -> usize {
        self.vecs.len()
    }

    /// Always false — a pool holds at least the empty annotation.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Id of the all-zero annotation.
    pub fn empty_id(&self) -> AnnotId {
        AnnotId(0)
    }

    /// Intern a bitvector, returning its canonical id.
    pub fn intern(&mut self, bits: BitVec) -> AnnotId {
        assert_eq!(bits.len(), self.width, "annotation width mismatch");
        if let Some(&id) = self.index.get(&bits) {
            self.stats.intern_hits += 1;
            return id;
        }
        self.stats.interned += 1;
        self.insert_new(Arc::new(bits))
    }

    /// Intern an already-shared bitvector without copying its contents.
    pub fn intern_arc(&mut self, bits: Arc<BitVec>) -> AnnotId {
        assert_eq!(bits.len(), self.width, "annotation width mismatch");
        if let Some(&id) = self.index.get(bits.as_ref()) {
            self.stats.intern_hits += 1;
            return id;
        }
        self.stats.interned += 1;
        self.insert_new(bits)
    }

    /// Re-register an allocation that outlived [`AnnotPool::clear`]
    /// through an operator-state handle, so the pool owns — and
    /// [`AnnotPool::heap_size`] counts — it again. State handles of equal
    /// content share one allocation (they all came from this pool), so
    /// the first sighting adopts it and later ones are no-ops. Not an
    /// intern request: the activity counters do not move.
    pub fn adopt(&mut self, handle: &Arc<BitVec>) {
        debug_assert_eq!(handle.len(), self.width, "annotation width mismatch");
        match self.index.get_key_value(handle.as_ref()) {
            Some((owned, _)) => debug_assert!(Arc::ptr_eq(owned, handle), "forked allocation"),
            None => {
                self.adopted += 1;
                self.insert_new(Arc::clone(handle));
            }
        }
    }

    fn insert_new(&mut self, bits: Arc<BitVec>) -> AnnotId {
        let id = AnnotId(u32::try_from(self.vecs.len()).expect("annotation pool overflow"));
        self.vec_bytes += bits.heap_size() + std::mem::size_of::<BitVec>();
        self.index.insert(Arc::clone(&bits), id);
        self.vecs.push(bits);
        id
    }

    /// Singleton annotation `{bit}`, served from the per-fragment cache.
    pub fn singleton(&mut self, bit: usize) -> AnnotId {
        let key = u32::try_from(bit).expect("fragment id overflow");
        if let Some(&id) = self.singletons.get(&key) {
            self.stats.intern_hits += 1;
            return id;
        }
        let id = self.intern(BitVec::singleton(self.width, bit));
        self.singletons.insert(key, id);
        id
    }

    /// Union of two pooled annotations, memoized: each unordered pair is
    /// computed (in place, then interned) at most once. Fast paths
    /// (identical / empty / subset operands) and memo-table answers count
    /// as [`PoolStats::union_memo_hits`] — each is an allocation the flat
    /// per-row `BitVec::union` representation would have paid.
    pub fn union(&mut self, a: AnnotId, b: AnnotId) -> AnnotId {
        if a == b {
            self.stats.union_memo_hits += 1;
            return a;
        }
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        if lo == self.empty_id() {
            self.stats.union_memo_hits += 1;
            return hi;
        }
        if let Some(&id) = self.union_memo.get(&(lo, hi)) {
            self.stats.union_memo_hits += 1;
            return id;
        }
        // Subset fast paths avoid allocating when one side absorbs the
        // other (common for join outputs re-joining the same fragment).
        let id = if self.vecs[lo.index()].is_subset(&self.vecs[hi.index()]) {
            self.stats.union_memo_hits += 1;
            hi
        } else if self.vecs[hi.index()].is_subset(&self.vecs[lo.index()]) {
            self.stats.union_memo_hits += 1;
            lo
        } else {
            let mut out = (*self.vecs[lo.index()]).clone();
            out.union_with(&self.vecs[hi.index()]);
            self.stats.unions_computed += 1;
            self.intern(out)
        };
        self.union_memo.insert((lo, hi), id);
        id
    }

    /// The bitvector behind an id.
    pub fn get(&self, id: AnnotId) -> &BitVec {
        &self.vecs[id.index()]
    }

    /// O(1) shared handle to the bitvector behind an id (for operator
    /// state that must order entries by annotation *content*).
    pub fn share(&self, id: AnnotId) -> Arc<BitVec> {
        Arc::clone(&self.vecs[id.index()])
    }

    /// The pool's own handle for `bits`' content, if pooled (a read-only
    /// probe: nothing is interned, no counter moves).
    pub fn pooled(&self, bits: &BitVec) -> Option<&Arc<BitVec>> {
        self.index.get_key_value(bits).map(|(owned, _)| owned)
    }

    /// Cumulative activity counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Annotations interned since the last [`AnnotPool::clear`], not
    /// counting what [`AnnotPool::adopt`] re-registered afterwards — the
    /// growth a flush bound is measured against.
    pub fn grown(&self) -> usize {
        self.vecs.len() - self.adopted
    }

    /// Heap footprint of the pooled bitvectors and index structures. O(1):
    /// the bitvector bytes are a running total kept by intern / adopt /
    /// clear (pooled bitvectors are immutable), the rest are capacities.
    /// Operator state holds `Arc` handles into the pool and counts only
    /// the handles, so every annotation allocation is counted here, once.
    pub fn heap_size(&self) -> usize {
        self.vec_bytes
            + self.vecs.capacity() * std::mem::size_of::<Arc<BitVec>>()
            + self.index.capacity()
                * (std::mem::size_of::<Arc<BitVec>>() + std::mem::size_of::<AnnotId>() + 8)
            + self.union_memo.capacity()
                * (std::mem::size_of::<(AnnotId, AnnotId)>() + std::mem::size_of::<AnnotId>() + 8)
            + self.singletons.capacity()
                * (std::mem::size_of::<u32>() + std::mem::size_of::<AnnotId>() + 8)
    }

    /// Drop every pooled annotation except the empty one (the same
    /// allocation, so handles to it stay pool-owned), invalidating all
    /// previously issued ids. Statistics survive (they are cumulative).
    pub fn clear(&mut self) {
        let stats = self.stats;
        *self = AnnotPool::with_empty(self.width, Arc::clone(&self.vecs[0]));
        self.stats = stats;
    }
}

/// Deduplicating store for [`Row`] payloads.
///
/// Rows are already `Arc`-backed (cloning is O(1)); interning makes
/// structurally equal rows *share* one allocation, so a delta stream that
/// repeatedly touches the same tuples holds each payload once. The set is
/// bounded: once `limit` distinct rows accumulate it is flushed, trading a
/// cold restart of sharing for a hard memory cap.
#[derive(Debug)]
pub struct RowInterner {
    set: FxHashSet<Row>,
    limit: usize,
    interned: u64,
    hits: u64,
    /// Running Σ `Row::heap_size` of the held rows.
    row_bytes: usize,
}

/// Default bound on distinct rows held by a [`RowInterner`].
pub const ROW_INTERNER_LIMIT: usize = 1 << 16;

impl RowInterner {
    /// Interner with the default bound.
    pub fn new() -> RowInterner {
        RowInterner::with_limit(ROW_INTERNER_LIMIT)
    }

    /// Interner that flushes after `limit` distinct rows.
    pub fn with_limit(limit: usize) -> RowInterner {
        RowInterner {
            set: FxHashSet::default(),
            limit: limit.max(1),
            interned: 0,
            hits: 0,
            row_bytes: 0,
        }
    }

    /// Canonical handle for `row`: an existing allocation when one equal
    /// row was seen before, otherwise `row` itself (now registered).
    pub fn intern(&mut self, row: Row) -> Row {
        if let Some(existing) = self.set.get(&row) {
            self.hits += 1;
            return existing.clone();
        }
        if self.set.len() >= self.limit {
            self.clear();
        }
        self.interned += 1;
        self.row_bytes += row.heap_size();
        self.set.insert(row.clone());
        row
    }

    /// Distinct rows currently held.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// True iff no rows are held.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Requests answered by an existing allocation.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Distinct rows ever registered.
    pub fn interned(&self) -> u64 {
        self.interned
    }

    /// Drop all held rows (counters survive).
    pub fn clear(&mut self) {
        self.set.clear();
        self.row_bytes = 0;
    }

    /// Heap footprint of the held row payloads (O(1): a running total
    /// kept by intern / clear, plus the table's capacity).
    pub fn heap_size(&self) -> usize {
        self.row_bytes + self.set.capacity() * (std::mem::size_of::<Row>() + 8)
    }
}

impl Default for RowInterner {
    fn default() -> Self {
        RowInterner::new()
    }
}

/// One annotated delta tuple `Δ±⟨t, P⟩ⁿ` with a pooled annotation and
/// signed multiplicity (`mult > 0` ⇔ `Δ+`, `mult < 0` ⇔ `Δ-`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaEntry {
    /// The tuple (`Arc`-shared; clone is O(1)).
    pub row: Row,
    /// Pooled sketch annotation over the global fragment space.
    pub annot: AnnotId,
    /// Signed multiplicity.
    pub mult: i64,
}

/// A batch of annotated delta tuples with pool-interned annotations.
///
/// The batch derefs to its entry vector, so the usual `Vec` operations
/// (`push`, `retain`, iteration, sorting) apply directly. Entries are
/// interpreted against the [`AnnotPool`] they were built with; batches
/// never own bitvector or tuple data themselves, which makes cloning and
/// cross-thread shipping cheap.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaBatch {
    entries: Vec<DeltaEntry>,
}

impl DeltaBatch {
    /// Empty batch.
    pub fn new() -> DeltaBatch {
        DeltaBatch::default()
    }

    /// Empty batch with pre-allocated capacity.
    pub fn with_capacity(n: usize) -> DeltaBatch {
        DeltaBatch {
            entries: Vec::with_capacity(n),
        }
    }

    /// Append one annotated tuple.
    pub fn push_entry(&mut self, row: Row, annot: AnnotId, mult: i64) {
        self.entries.push(DeltaEntry { row, annot, mult });
    }

    /// The entries as a slice.
    pub fn entries(&self) -> &[DeltaEntry] {
        &self.entries
    }
}

impl std::ops::Deref for DeltaBatch {
    type Target = Vec<DeltaEntry>;
    fn deref(&self) -> &Vec<DeltaEntry> {
        &self.entries
    }
}

impl std::ops::DerefMut for DeltaBatch {
    fn deref_mut(&mut self) -> &mut Vec<DeltaEntry> {
        &mut self.entries
    }
}

impl From<Vec<DeltaEntry>> for DeltaBatch {
    fn from(entries: Vec<DeltaEntry>) -> DeltaBatch {
        DeltaBatch { entries }
    }
}

impl FromIterator<DeltaEntry> for DeltaBatch {
    fn from_iter<I: IntoIterator<Item = DeltaEntry>>(iter: I) -> DeltaBatch {
        DeltaBatch {
            entries: iter.into_iter().collect(),
        }
    }
}

impl Extend<DeltaEntry> for DeltaBatch {
    fn extend<I: IntoIterator<Item = DeltaEntry>>(&mut self, iter: I) {
        self.entries.extend(iter);
    }
}

impl IntoIterator for DeltaBatch {
    type Item = DeltaEntry;
    type IntoIter = std::vec::IntoIter<DeltaEntry>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl<'a> IntoIterator for &'a DeltaBatch {
    type Item = &'a DeltaEntry;
    type IntoIter = std::slice::Iter<'a, DeltaEntry>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use proptest::prelude::*;

    /// The accounting oracle: both sizes recomputed from the live
    /// contents by the walks the running totals replaced.
    impl AnnotPool {
        fn walked_heap_size(&self) -> usize {
            let header = std::mem::size_of::<BitVec>();
            let vecs: usize = self.vecs.iter().map(|v| v.heap_size() + header).sum();
            vecs + (self.heap_size() - self.vec_bytes)
        }
    }

    impl RowInterner {
        fn walked_heap_size(&self) -> usize {
            self.set.iter().map(Row::heap_size).sum::<usize>()
                + self.set.capacity() * (std::mem::size_of::<Row>() + 8)
        }
    }

    proptest! {
        #[test]
        fn running_totals_equal_the_walk(
            ops in prop::collection::vec((0usize..6, 0usize..24, 0usize..24), 1..80),
        ) {
            let mut pool = AnnotPool::new(24);
            let mut rows = RowInterner::with_limit(8);
            let mut ids = vec![pool.empty_id()];
            let mut held: Vec<Arc<BitVec>> = Vec::new();
            for (op, a, b) in ops {
                match op {
                    0 => ids.push(pool.singleton(a)),
                    1 => ids.push(pool.intern(BitVec::from_bits(24, [a, b]))),
                    2 => {
                        let (x, y) = (ids[a % ids.len()], ids[b % ids.len()]);
                        ids.push(pool.union(x, y));
                    }
                    3 => held.push(pool.share(ids[a % ids.len()])),
                    4 => {
                        // A flush: clear, then re-adopt what state holds.
                        pool.clear();
                        ids = vec![pool.empty_id()];
                        for h in &held {
                            pool.adopt(h);
                        }
                        prop_assert_eq!(pool.grown(), 1);
                        for h in &held {
                            prop_assert!(pool.pooled(h).is_some_and(|p| Arc::ptr_eq(p, h)));
                        }
                    }
                    _ => {
                        rows.intern(row![a as i64, "payload".repeat(b % 3)]);
                        if a == b {
                            rows.clear();
                        }
                    }
                }
                prop_assert_eq!(pool.heap_size(), pool.walked_heap_size());
                prop_assert_eq!(rows.heap_size(), rows.walked_heap_size());
            }
        }
    }

    #[test]
    fn interning_is_canonical() {
        let mut p = AnnotPool::new(16);
        let a = p.intern(BitVec::from_bits(16, [1, 3]));
        let b = p.intern(BitVec::from_bits(16, [1, 3]));
        let c = p.intern(BitVec::from_bits(16, [2]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(p.stats().interned, 2);
        assert_eq!(p.stats().intern_hits, 1);
        assert_eq!(p.get(a), &BitVec::from_bits(16, [1, 3]));
    }

    #[test]
    fn singleton_cache_hits() {
        let mut p = AnnotPool::new(8);
        let a = p.singleton(3);
        let b = p.singleton(3);
        assert_eq!(a, b);
        assert_eq!(p.stats().interned, 1);
        assert!(p.stats().intern_hits >= 1);
    }

    #[test]
    fn union_is_memoized_and_correct() {
        let mut p = AnnotPool::new(8);
        let a = p.singleton(1);
        let b = p.singleton(2);
        let u1 = p.union(a, b);
        let computed = p.stats().unions_computed;
        let u2 = p.union(b, a); // symmetric: memo hit
        assert_eq!(u1, u2);
        assert_eq!(p.stats().unions_computed, computed);
        assert!(p.stats().union_memo_hits >= 1);
        assert_eq!(p.get(u1), &BitVec::from_bits(8, [1, 2]));
    }

    #[test]
    fn union_fast_paths() {
        let mut p = AnnotPool::new(8);
        let a = p.singleton(1);
        let ab = p.intern(BitVec::from_bits(8, [1, 2]));
        assert_eq!(p.union(a, a), a);
        assert_eq!(p.union(p.empty_id(), a), a);
        // a ⊆ ab: no new allocation.
        let before = p.len();
        assert_eq!(p.union(a, ab), ab);
        assert_eq!(p.len(), before);
    }

    #[test]
    fn clear_invalidates_but_keeps_stats() {
        let mut p = AnnotPool::new(8);
        let a = p.singleton(1);
        let b = p.singleton(2);
        p.union(a, b);
        let stats = p.stats();
        p.clear();
        assert_eq!(p.len(), 1);
        assert_eq!(p.stats(), stats);
    }

    #[test]
    fn row_interner_shares_allocations() {
        let mut ri = RowInterner::new();
        let a = ri.intern(row![1, "x"]);
        let b = ri.intern(row![1, "x"]);
        assert_eq!(a.ptr_id(), b.ptr_id());
        assert_eq!(ri.hits(), 1);
        let c = ri.intern(row![2]);
        assert_ne!(a.ptr_id(), c.ptr_id());
        assert_eq!(ri.len(), 2);
    }

    #[test]
    fn row_interner_respects_limit() {
        let mut ri = RowInterner::with_limit(2);
        ri.intern(row![1]);
        ri.intern(row![2]);
        ri.intern(row![3]); // flushes, then registers
        assert_eq!(ri.len(), 1);
    }

    #[test]
    fn delta_batch_vec_ergonomics() {
        let mut p = AnnotPool::new(4);
        let a = p.singleton(0);
        let mut batch = DeltaBatch::new();
        batch.push_entry(row![1], a, 1);
        batch.push_entry(row![2], a, -1);
        assert_eq!(batch.len(), 2);
        batch.retain(|e| e.mult > 0);
        assert_eq!(batch.len(), 1);
        let cloned = batch.clone();
        assert_eq!(cloned, batch);
    }
}
