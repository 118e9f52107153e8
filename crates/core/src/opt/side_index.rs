//! Delta-maintained indexes over join inputs (`Q ⋈ Δ` caching).
//!
//! The paper outsources the `ΔQ₁ ⋈ Q₂ᴺᴱᵂ` terms of join maintenance to the
//! backend database (§1, §7): evaluating the non-delta side is a round
//! trip, paid on *every* batch. But the operator already receives exactly
//! the delta that separates the side's old state from its new one —
//! `Q₂ᴺᴱᵂ = Q₂ᴼᴸᴰ + ΔQ₂` — so the side can be materialised once and then
//! maintained in place, the classic IVM trick (cf. *Incremental
//! Maintenance for Leapfrog Triejoin*, Veldhuizen 2013, which keeps one
//! structure per relation). A [`SideIndex`] is that materialisation: the
//! input's `(row, annotation, multiplicity)` bag, grouped by join key,
//! built from one backend round trip the first time another input's delta
//! probes it and from absorbed deltas thereafter. The join operator
//! [`crate::ops::NaryJoinOp`] keys it by the input's participation in each
//! join class ([`ClassSpec`]); a cross-product input has no classes and
//! keeps every row in one bucket.
//!
//! # Layout: each key held once, in its own rows
//!
//! * **Buckets** live in an arena, one per key. A bucket is a
//!   `Vec<IndexEntry>` kept sorted by `(row, annotation content)`, so
//!   absorbing a delta row finds its entry by binary search — O(log b)
//!   comparisons in a bucket of b (`merge_entry`). No bucket stores its
//!   key: the key cells are read in place from its first entry's row.
//! * **The primary** maps the hash of a key's cells to its bucket, the
//!   buckets of one hash chained through `u32` links (the engine's
//!   `eval/hash_index.rs` pattern); a chain hit compares cells. Every
//!   fully bound probe goes here — every probe of a two-input join, and
//!   a probe of a deeper join that binds each of the input's classes.
//! * **Secondaries** chain the buckets by the hash of one key cell, and
//!   exist only for the positions a *partial* probe binds. A chain join
//!   `A ⋈ B ⋈ C` probing `C` from a `ΔA` seed knows only `C`'s
//!   `B`-adjacent class; that position's chain narrows the candidates
//!   without scanning the input. A one-class input and both inputs of a
//!   two-input join are always probed fully bound and carry none.
//!
//! Absorbing and probing hash the key cells where they lie — in the delta
//! row, in the probe's bound values — so neither copies a key.
//!
//! Deletion is lazy in the secondaries: a bucket whose entries cancel
//! away frees its allocation and leaves the primary, while secondary
//! chains keep the stale slot (probes skip empty buckets) until a
//! compaction rebuilds the arena — amortized O(|Δ|).
//!
//! Annotations are stored as `Arc<BitVec>` *content* handles from
//! [`AnnotPool::share`], never as [`imp_storage::AnnotId`]s: the index is
//! persistent operator state, and pool ids are only live within one
//! maintenance run (the pool may be flushed between runs — see the
//! `imp_core::delta` invariants). Probing re-enters the pool via
//! [`AnnotPool::intern_arc`], an O(1) probe for already-known contents.
//!
//! The index is memory-bounded by `OpConfig::join_index_budget` (entries
//! per input); the join operator falls back to per-batch re-evaluation
//! when an input outgrows the budget, mirroring the bounded MIN/MAX state.

use crate::delta::DeltaBatch;
use imp_storage::{AnnotPool, BitVec, FxHashMap, FxHasher, Row, Value};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};
use std::mem::size_of;
use std::sync::Arc;

/// One annotated tuple of a materialised join input.
#[derive(Debug, Clone)]
pub struct IndexEntry {
    /// The input's tuple (`Arc`-shared; clone is O(1)).
    pub row: Row,
    /// Annotation content handle (pool-independent).
    pub annot: Arc<BitVec>,
    /// Bag multiplicity of `(row, annot)` in the input's result.
    pub mult: i64,
}

/// An input's join key, one position per `(class id, columns of this
/// input in that class)`. An input whose row carries the same class in
/// several columns (self-equality) only indexes rows where those columns
/// agree — others can never join.
pub type ClassSpec = Vec<(usize, Vec<usize>)>;

/// Rebuild the arena once more than half of it is dead and the dead run
/// is big enough to be worth the rebuild.
const COMPACT_MIN_DEAD: usize = 16;

/// The end of a chain.
const END: u32 = u32::MAX;

/// Arena slots filed by hash: `hash → (first, last)`, the slots of one
/// hash linked in ascending order through `next`. Different keys can share
/// a hash: the caller compares cells.
#[derive(Debug, Clone, Default)]
struct Chains {
    heads: FxHashMap<u64, (u32, u32)>,
    next: Vec<u32>,
}

impl Chains {
    /// Append `slot`, newer than every slot already linked, to `hash`'s
    /// chain.
    fn link(&mut self, hash: u64, slot: u32) {
        if self.next.len() <= slot as usize {
            self.next.resize(slot as usize + 1, END);
        }
        match self.heads.entry(hash) {
            Entry::Occupied(mut o) => {
                let last = &mut o.get_mut().1;
                self.next[*last as usize] = slot;
                *last = slot;
            }
            Entry::Vacant(v) => {
                v.insert((slot, slot));
            }
        }
    }

    /// The slots filed under `hash`, in ascending order.
    fn chain(&self, hash: u64) -> impl Iterator<Item = u32> + '_ {
        let mut at = self.heads.get(&hash).map_or(END, |&(first, _)| first);
        std::iter::from_fn(move || {
            (at != END).then(|| {
                let slot = at;
                at = self.next[slot as usize];
                slot
            })
        })
    }

    /// Take `slot` out of `hash`'s chain, where it is linked.
    fn unlink(&mut self, hash: u64, slot: u32) {
        let Entry::Occupied(mut o) = self.heads.entry(hash) else {
            return;
        };
        let (first, last) = *o.get();
        let after = self.next[slot as usize];
        if first == slot && after == END {
            o.remove();
            return;
        }
        if first == slot {
            o.get_mut().0 = after;
            return;
        }
        let mut prev = first;
        while self.next[prev as usize] != slot {
            prev = self.next[prev as usize];
        }
        self.next[prev as usize] = after;
        if last == slot {
            o.get_mut().1 = prev;
        }
    }

    fn clear(&mut self) {
        self.heads.clear();
        self.next.clear();
    }

    fn heap_size(&self) -> usize {
        map_bytes(self.heads.capacity(), size_of::<(u64, (u32, u32))>())
            + self.next.capacity() * size_of::<u32>()
    }
}

/// Bytes a `HashMap` of this `capacity` allocates: a power-of-two number
/// of buckets, at least 8/7 of the capacity, each holding one `slot` and
/// one control byte, plus a trailing 16-byte control group.
fn map_bytes(capacity: usize, slot: usize) -> usize {
    match capacity {
        0 => 0,
        cap => (cap * 8 / 7).next_power_of_two() * (slot + 1) + 16,
    }
}

/// Hash of a key given value by value; a row's key hashes alike (see
/// [`SideIndex::row_hash`]).
fn hash_values<'a>(values: impl IntoIterator<Item = &'a Value>) -> u64 {
    let mut hasher = FxHasher::default();
    for v in values {
        v.hash(&mut hasher);
    }
    hasher.finish()
}

/// A persistent, delta-maintained index over one join input.
#[derive(Debug, Clone, Default)]
pub struct SideIndex {
    spec: ClassSpec,
    /// Buckets, each non-empty and sorted, or emptied (dead) until the
    /// next compaction.
    buckets: Vec<Vec<IndexEntry>>,
    /// Hash of the key cells → live buckets.
    primary: Chains,
    /// Per spec position, where a partial probe binds it: hash of that
    /// cell → buckets (may hold dead slots — probes skip them, compaction
    /// drops them).
    secondary: Vec<Option<Chains>>,
    entries: usize,
    heap_bytes: usize,
    dead: usize,
}

impl SideIndex {
    /// Empty index keyed by `spec`, with a secondary on each position in
    /// `partial` (the positions some partial probe binds).
    pub fn new(spec: ClassSpec, partial: &[usize]) -> SideIndex {
        let secondary = (0..spec.len())
            .map(|pos| partial.contains(&pos).then(Chains::default))
            .collect();
        SideIndex {
            spec,
            secondary,
            ..SideIndex::default()
        }
    }

    /// The key cell of `row` at spec position `pos`.
    fn cell<'r>(&self, row: &'r Row, pos: usize) -> &'r Value {
        &row[self.spec[pos].1[0]]
    }

    /// Hash of `row`'s key; `None` when a key column is NULL or the row's
    /// own columns of a class disagree (such a row joins nothing).
    fn row_hash(&self, row: &Row) -> Option<u64> {
        let mut hasher = FxHasher::default();
        for (_, cols) in &self.spec {
            let v = &row[cols[0]];
            if v.is_null() || cols[1..].iter().any(|&c| row[c] != *v) {
                return None;
            }
            v.hash(&mut hasher);
        }
        Some(hasher.finish())
    }

    /// The live bucket whose key hashes to `hash` and has `key(pos)` at
    /// every position.
    fn find<'k>(&self, hash: u64, key: impl Fn(usize) -> &'k Value) -> Option<u32> {
        self.primary.chain(hash).find(|&slot| {
            let row = &self.buckets[slot as usize][0].row;
            (0..self.spec.len()).all(|pos| *self.cell(row, pos) == *key(pos))
        })
    }

    /// File the arena's next slot under `row`'s key: in the primary by
    /// `hash`, in each secondary by its cell.
    fn link(&mut self, hash: u64, row: &Row) {
        let slot = self.buckets.len() as u32;
        self.primary.link(hash, slot);
        for ((_, cols), chains) in self.spec.iter().zip(&mut self.secondary) {
            if let Some(chains) = chains {
                chains.link(hash_values([&row[cols[0]]]), slot);
            }
        }
    }

    /// Absorb one delta of the input (`Qᴺᴱᵂ = Qᴼᴸᴰ + ΔQ`): each row merges
    /// into its key's bucket by `(row, annotation content)`, and cancels at
    /// zero multiplicity.
    pub fn apply(&mut self, delta: &DeltaBatch, pool: &AnnotPool) {
        self.apply_signed(delta, pool, 1);
    }

    /// Absorb a delta with *negated* multiplicities: rewinds an index
    /// evaluated at the new state back to the old one (the n-ary rule
    /// probes inputs right of the current term at their old state).
    pub fn apply_negated(&mut self, delta: &DeltaBatch, pool: &AnnotPool) {
        self.apply_signed(delta, pool, -1);
    }

    fn apply_signed(&mut self, delta: &DeltaBatch, pool: &AnnotPool, sign: i64) {
        for d in delta {
            let Some(hash) = self.row_hash(&d.row) else {
                continue;
            };
            // The slot, and the bucket capacity already booked for it.
            let (slot, booked) = match self.find(hash, |pos| self.cell(&d.row, pos)) {
                Some(slot) => (slot, self.buckets[slot as usize].capacity()),
                None => {
                    self.link(hash, &d.row);
                    self.buckets.push(Vec::with_capacity(1));
                    (self.buckets.len() as u32 - 1, 0)
                }
            };
            let bucket = &mut self.buckets[slot as usize];
            merge_entry(
                bucket,
                &d.row,
                pool.share(d.annot),
                d.mult * sign,
                &mut self.entries,
                &mut self.heap_bytes,
            );
            if bucket.is_empty() {
                // Lazy delete: free the bucket and unlink it from the
                // primary; the secondaries keep the stale slot.
                *bucket = Vec::new();
                self.primary.unlink(hash, slot);
                self.dead += 1;
            }
            self.heap_bytes += bucket.capacity() * size_of::<IndexEntry>();
            self.heap_bytes -= booked * size_of::<IndexEntry>();
        }
        if self.dead > COMPACT_MIN_DEAD && self.dead * 2 > self.buckets.len() {
            self.compact();
        }
    }

    /// Rebuild the arena and the chains from the live buckets.
    fn compact(&mut self) {
        let buckets = std::mem::take(&mut self.buckets);
        self.primary.clear();
        for chains in self.secondary.iter_mut().flatten() {
            chains.clear();
        }
        for bucket in buckets.into_iter().filter(|b| !b.is_empty()) {
            let hash = self
                .row_hash(&bucket[0].row)
                .expect("indexed rows have keys");
            self.link(hash, &bucket[0].row);
            self.buckets.push(bucket);
        }
        self.dead = 0;
    }

    /// Visit every bucket matching the bound values — `bound[class]` per
    /// join class, `None` where unbound. A fully bound probe hits the
    /// primary; a partial one walks the secondary of a bound position and
    /// compares the other bound cells; a probe binding nothing (a
    /// disconnected cross-product component) visits every live bucket.
    pub fn for_each_match(&self, bound: &[Option<Value>], f: &mut dyn FnMut(&[IndexEntry])) {
        let want = |pos: usize| bound[self.spec[pos].0].as_ref();
        let positions = 0..self.spec.len();
        if positions.clone().all(|pos| want(pos).is_some()) {
            let hash = hash_values(positions.filter_map(want));
            if let Some(slot) = self.find(hash, |pos| want(pos).expect("fully bound")) {
                f(&self.buckets[slot as usize]);
            }
            return;
        }
        let mut matching = |bucket: &Vec<IndexEntry>| {
            let hit = bucket.first().is_some_and(|e| {
                let mut positions = 0..self.spec.len();
                positions.all(|pos| want(pos).is_none_or(|v| self.cell(&e.row, pos) == v))
            });
            if hit {
                f(bucket);
            }
        };
        let narrow = positions.clone().find_map(|pos| {
            let chains = self.secondary[pos].as_ref()?;
            Some(chains.chain(hash_values([want(pos)?])))
        });
        match narrow {
            Some(slots) => slots.for_each(|slot| matching(&self.buckets[slot as usize])),
            None => self.buckets.iter().for_each(matching),
        }
    }

    /// Hand every annotation handle back to a just-flushed pool.
    pub fn readopt_annots(&self, pool: &mut AnnotPool) {
        for e in self.buckets.iter().flatten() {
            pool.adopt(&e.annot);
        }
    }

    /// Number of stored annotated tuples (the budgeted quantity).
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True iff the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Heap footprint of the index (Fig. 17), tracked incrementally so
    /// accounting stays O(|Δ|) per batch: entry rows and bucket
    /// allocations as a running total, the arena and the chains from their
    /// capacities. Annotation *contents* are counted like the top-k state
    /// counts them: the `Arc<BitVec>` handles are handles into the
    /// maintainer's pool (re-adopted by it after a flush), whose own
    /// `heap_size` accounts for the bitvectors.
    pub fn heap_size(&self) -> usize {
        let secondary: usize = self.secondary.iter().flatten().map(Chains::heap_size).sum();
        self.heap_bytes
            + self.buckets.capacity() * size_of::<Vec<IndexEntry>>()
            + self.primary.heap_size()
            + secondary
            + size_of::<SideIndex>()
    }
}

/// Bytes an entry's row payload is booked at; the entry itself is part of
/// its bucket's allocation.
fn entry_heap(e: &IndexEntry) -> usize {
    e.row.heap_size()
}

/// The order a bucket is kept in: by row, then by annotation content (an
/// `Arc` pointer match — entries built from one pool share allocations —
/// settles the annotation without reading it).
fn entry_cmp(e: &IndexEntry, row: &Row, annot: &Arc<BitVec>) -> Ordering {
    #[cfg(test)]
    tests::COMPARISONS.with(|c| c.set(c.get() + 1));
    e.row.cmp(row).then_with(|| {
        if Arc::ptr_eq(&e.annot, annot) {
            Ordering::Equal
        } else {
            e.annot.as_ref().cmp(annot)
        }
    })
}

/// Absorb `mult` copies of `(row, annot)` into a bucket kept sorted by
/// `(row, annotation content)`. A binary search finds the entry: its
/// multiplicity moves, and it leaves the bucket when that reaches zero; a
/// row not found is inserted in place. `entries` / `heap_bytes` are the
/// owning index's running totals.
fn merge_entry(
    bucket: &mut Vec<IndexEntry>,
    row: &Row,
    annot: Arc<BitVec>,
    mult: i64,
    entries: &mut usize,
    heap_bytes: &mut usize,
) {
    match bucket.binary_search_by(|e| entry_cmp(e, row, &annot)) {
        Ok(i) => {
            bucket[i].mult += mult;
            if bucket[i].mult == 0 {
                *heap_bytes -= entry_heap(&bucket[i]);
                *entries -= 1;
                bucket.remove(i);
            }
        }
        Err(_) if mult == 0 => {}
        Err(i) => {
            let e = IndexEntry {
                row: row.clone(),
                annot,
                mult,
            };
            *heap_bytes += entry_heap(&e);
            *entries += 1;
            // Grow by half, not by doubling from four: most buckets hold
            // one or two entries.
            if bucket.len() == bucket.capacity() {
                bucket.reserve_exact(bucket.len() / 2 + 1);
            }
            bucket.insert(i, e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DeltaEntry;
    use crate::heap_oracle::Walk;
    use imp_storage::row;
    use std::cell::Cell;

    thread_local! {
        /// Bucket-order comparisons made on this thread.
        pub(super) static COMPARISONS: Cell<u64> = const { Cell::new(0) };
    }

    /// The accounting oracle: `heap_bytes` recomputed from the live arena.
    impl SideIndex {
        fn live(&self) -> impl Iterator<Item = &Vec<IndexEntry>> {
            self.buckets.iter().filter(|b| !b.is_empty())
        }

        pub(crate) fn walked_heap_size(&self, w: &mut Walk<'_>) -> usize {
            let mut bytes = 0;
            for b in self.live() {
                w.visit(1 + b.len());
                bytes += b.capacity() * size_of::<IndexEntry>();
                for e in b {
                    bytes += entry_heap(e);
                    w.annot(&e.annot);
                }
            }
            bytes + (self.heap_size() - self.heap_bytes)
        }
    }

    fn batch(pool: &mut AnnotPool, items: &[(Row, usize, i64)]) -> DeltaBatch {
        items
            .iter()
            .map(|(r, bit, m)| DeltaEntry {
                row: r.clone(),
                annot: pool.singleton(*bit),
                mult: *m,
            })
            .collect()
    }

    fn build(mut idx: SideIndex, side: &DeltaBatch, pool: &AnnotPool) -> SideIndex {
        idx.apply(side, pool);
        idx
    }

    /// One class on column 0, probed fully bound only.
    fn on_first() -> SideIndex {
        SideIndex::new(vec![(0, vec![0])], &[])
    }

    /// The bucket under key `k` of a one-class index, if any.
    fn bucket(idx: &SideIndex, k: Value) -> Option<Vec<IndexEntry>> {
        let mut found = None;
        idx.for_each_match(&[Some(k)], &mut |entries| found = Some(entries.to_vec()));
        found
    }

    /// Two classes: class 0 on column 0, class 2 on column 1, both bound
    /// by partial probes.
    fn two_class() -> SideIndex {
        SideIndex::new(vec![(0, vec![0]), (2, vec![1])], &[0, 1])
    }

    /// Entries reached by a probe binding `bound` (indexed by class).
    fn matched(idx: &SideIndex, bound: &[Option<Value>]) -> usize {
        let mut n = 0;
        idx.for_each_match(bound, &mut |entries| n += entries.len());
        n
    }

    fn int(i: i64) -> Option<Value> {
        Some(Value::Int(i))
    }

    #[test]
    fn build_groups_by_key_and_merges() {
        let mut p = AnnotPool::new(8);
        let side = batch(
            &mut p,
            &[
                (row![1, 10], 0, 1),
                (row![1, 11], 0, 1),
                (row![2, 20], 1, 3),
                (row![1, 10], 0, 1), // duplicate of the first entry
            ],
        );
        let idx = build(on_first(), &side, &p);
        assert_eq!(idx.len(), 3);
        let ones = bucket(&idx, Value::Int(1)).unwrap();
        assert_eq!(ones.len(), 2);
        let dup = ones.iter().find(|e| e.row == row![1, 10]).unwrap();
        assert_eq!(dup.mult, 2);
        assert!(bucket(&idx, Value::Int(3)).is_none());
    }

    #[test]
    fn apply_deletes_cancel_entries() {
        let mut p = AnnotPool::new(8);
        let side = batch(&mut p, &[(row![1, 10], 0, 1), (row![2, 20], 1, 1)]);
        let mut idx = build(on_first(), &side, &p);
        let before = idx.heap_size();
        let delta = batch(&mut p, &[(row![1, 10], 0, -1)]);
        idx.apply(&delta, &p);
        assert_eq!(idx.len(), 1);
        assert!(bucket(&idx, Value::Int(1)).is_none());
        assert!(idx.heap_size() < before);
        // Re-insert brings it back.
        let delta = batch(&mut p, &[(row![1, 10], 0, 1)]);
        idx.apply(&delta, &p);
        assert_eq!(bucket(&idx, Value::Int(1)).unwrap().len(), 1);
    }

    #[test]
    fn absorbing_a_row_costs_log_comparisons_in_its_bucket() {
        // Finding an absorbed row's entry used to scan its whole bucket.
        // In the sorted bucket it takes at most 2⌈log₂ b⌉ + 2 comparisons,
        // whatever the bucket size b and wherever the row lands.
        for b in [8i64, 4096] {
            let mut p = AnnotPool::new(8);
            let rows: Vec<(Row, usize, i64)> = (0..b).map(|i| (row![1, i], 0, 1)).collect();
            let mut idx = build(on_first(), &batch(&mut p, &rows), &p);
            let bound = 2 * (b as f64).log2().ceil() as u64 + 2;
            for i in [-1, 0, b / 2, b - 1, b] {
                // Merge or insert, a second annotation of the same row,
                // then cancel both.
                for (bit, mult) in [(0, 1), (1, 1), (0, -1), (1, -1)] {
                    let delta = batch(&mut p, &[(row![1, i], bit, mult)]);
                    let before = COMPARISONS.with(Cell::get);
                    idx.apply(&delta, &p);
                    let made = COMPARISONS.with(Cell::get) - before;
                    assert!(made <= bound, "{made} comparisons in a bucket of {b}");
                }
            }
            let ones = bucket(&idx, Value::Int(1)).unwrap();
            assert_eq!(ones.len(), b as usize);
            assert!(ones.windows(2).all(|w| w[0].row < w[1].row));
        }
    }

    #[test]
    fn null_keys_are_skipped() {
        let mut p = AnnotPool::new(8);
        let side: DeltaBatch = vec![DeltaEntry {
            row: Row::new(vec![Value::Null, Value::Int(1)]),
            annot: p.singleton(0),
            mult: 1,
        }]
        .into();
        let idx = build(on_first(), &side, &p);
        assert!(idx.is_empty());
    }

    #[test]
    fn partial_probes_use_secondaries() {
        let mut p = AnnotPool::new(8);
        let side = batch(
            &mut p,
            &[
                (row![1, 10, 7], 0, 1),
                (row![1, 11, 8], 1, 1),
                (row![2, 10, 9], 2, 1),
            ],
        );
        let idx = build(two_class(), &side, &p);
        assert_eq!(idx.len(), 3);
        // Bind only class 0 = 1: two buckets.
        let mut seen = Vec::new();
        idx.for_each_match(&[int(1), None, None], &mut |entries| {
            seen.push(entries[0].row.clone());
        });
        assert_eq!(seen, [row![1, 10, 7], row![1, 11, 8]]);
        // Bind only class 2 = 10: two buckets across class-0 values.
        assert_eq!(matched(&idx, &[None, None, int(10)]), 2);
        // Fully bound: exactly one bucket.
        assert_eq!(matched(&idx, &[int(2), None, int(10)]), 1);
        // Unbound: full scan.
        assert_eq!(matched(&idx, &[None, None, None]), 3);
        // Without secondaries the same partial probes scan and filter.
        let plain = build(SideIndex::new(two_class().spec, &[]), &side, &p);
        assert_eq!(matched(&plain, &[int(1), None, None]), 2);
        assert_eq!(matched(&plain, &[None, None, int(10)]), 2);
    }

    #[test]
    fn cancellation_tombstones_then_reinserts() {
        let mut p = AnnotPool::new(8);
        let side = batch(&mut p, &[(row![1, 10, 7], 0, 1), (row![2, 20, 8], 1, 1)]);
        let mut idx = build(two_class(), &side, &p);
        idx.apply_negated(&batch(&mut p, &[(row![1, 10, 7], 0, 1)]), &p);
        assert_eq!(idx.len(), 1);
        assert_eq!(
            matched(&idx, &[int(1), None, None]),
            0,
            "emptied bucket must be skipped via stale link"
        );
        // Re-insert lands in a fresh slot and is visible again.
        idx.apply(&batch(&mut p, &[(row![1, 10, 7], 0, 1)]), &p);
        assert_eq!(matched(&idx, &[int(1), None, None]), 1);
        assert_eq!(matched(&idx, &[int(1), None, int(10)]), 1);
    }

    #[test]
    fn self_equality_and_nulls_excluded() {
        let mut p = AnnotPool::new(8);
        // Spec demanding columns 0 and 1 agree on class 0.
        let spec: ClassSpec = vec![(0, vec![0, 1])];
        let ok = row![5, 5, 1];
        let bad = row![5, 6, 1];
        let null = Row::new(vec![Value::Null, Value::Null, Value::Int(1)]);
        let side: DeltaBatch = vec![
            DeltaEntry {
                row: ok.clone(),
                annot: p.singleton(0),
                mult: 1,
            },
            DeltaEntry {
                row: bad,
                annot: p.singleton(1),
                mult: 1,
            },
            DeltaEntry {
                row: null,
                annot: p.singleton(2),
                mult: 1,
            },
        ]
        .into();
        let idx = build(SideIndex::new(spec, &[]), &side, &p);
        assert_eq!(idx.len(), 1);
        assert_eq!(matched(&idx, &[int(5)]), 1);
    }

    #[test]
    fn compaction_preserves_contents() {
        let mut p = AnnotPool::new(64);
        let mut idx = two_class();
        for i in 0..40i64 {
            idx.apply(&batch(&mut p, &[(row![i, i * 10, 0], 0, 1)]), &p);
        }
        // Cancel most buckets to trigger compaction.
        for i in 0..30i64 {
            idx.apply(&batch(&mut p, &[(row![i, i * 10, 0], 0, -1)]), &p);
        }
        assert_eq!(idx.len(), 10);
        assert!(idx.buckets.len() < 40, "compaction must have run");
        for i in 30..40i64 {
            assert_eq!(
                matched(&idx, &[int(i), None, None]),
                1,
                "row {i} must survive compaction"
            );
            assert_eq!(matched(&idx, &[int(i), None, int(i * 10)]), 1);
        }
    }

    #[test]
    fn distinct_keys_in_one_hash_chain_stay_apart() {
        // 0.0 and -0.0 hash alike (the hash normalizes the sign) but are
        // distinct values under `Value`'s total order.
        let (pos, neg) = ([Value::Float(0.0)], [Value::Float(-0.0)]);
        assert_ne!(pos, neg);
        assert_eq!(hash_values(&pos), hash_values(&neg));
        let mut p = AnnotPool::new(8);
        let rows = [
            (Row::new(vec![pos[0].clone(), Value::Int(1)]), 0, 1),
            (Row::new(vec![neg[0].clone(), Value::Int(2)]), 1, 1),
        ];
        let mut idx = build(on_first(), &batch(&mut p, &rows), &p);
        assert_eq!(idx.primary.chain(hash_values(&pos)).count(), 2);
        assert_eq!(bucket(&idx, pos[0].clone()).unwrap()[0].row, rows[0].0);
        assert_eq!(bucket(&idx, neg[0].clone()).unwrap()[0].row, rows[1].0);
        // Cancelling the first key unlinks it and leaves the second found.
        idx.apply_negated(&batch(&mut p, &rows[..1]), &p);
        assert!(bucket(&idx, pos[0].clone()).is_none());
        assert_eq!(bucket(&idx, neg[0].clone()).unwrap()[0].row, rows[1].0);
        assert_eq!(idx.primary.chain(hash_values(&pos)).count(), 1);
    }

    #[test]
    fn int_and_float_keys_share_a_bucket() {
        let mut p = AnnotPool::new(8);
        let side = batch(
            &mut p,
            &[
                (Row::new(vec![Value::Int(2), Value::str("a")]), 0, 1),
                (Row::new(vec![Value::Float(2.0), Value::str("b")]), 1, 1),
            ],
        );
        let idx = build(on_first(), &side, &p);
        assert_eq!(idx.live().count(), 1);
        assert_eq!(bucket(&idx, Value::Int(2)).unwrap().len(), 2);
        assert_eq!(bucket(&idx, Value::Float(2.0)).unwrap().len(), 2);
    }
}
