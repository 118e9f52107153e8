//! Delta-maintained hash indexes over the join sides (`Q ⋈ Δ` caching).
//!
//! The paper outsources the `ΔQ₁ ⋈ Q₂ᴺᴱᵂ` terms of join maintenance to the
//! backend database (§1, §7): evaluating the non-delta side is a round
//! trip, paid on *every* batch. But the operator already receives exactly
//! the delta that separates the side's old state from its new one —
//! `Q₂ᴺᴱᵂ = Q₂ᴼᴸᴰ + ΔQ₂` — so the side can be materialised once and then
//! maintained in place, the classic IVM trick (cf. *Incremental
//! Maintenance for Leapfrog Triejoin*, Veldhuizen 2013). A
//! [`JoinSideIndex`] is that materialisation: a hash index
//! `join key → [(row, annotation, multiplicity)]` built from one backend
//! round trip the first time the other side's delta probes it, and from
//! absorbed deltas thereafter, turning steady-state join maintenance from
//! O(|side|) per batch into O(|Δ|) amortized with zero round trips. A side
//! nothing probes is never built.
//!
//! Each bucket is kept sorted by `(row, annotation content)`, so absorbing
//! a delta row finds its entry by binary search — O(log b) comparisons in
//! a bucket of b entries, not a scan of it. `merge_entry` is that merge,
//! shared with the n-ary join's per-input indexes.
//!
//! Annotations are stored as `Arc<BitVec>` *content* handles from
//! [`AnnotPool::share`], never as [`imp_storage::AnnotId`]s: the index is
//! persistent operator state, and pool ids are only live within one
//! maintenance run (the pool may be flushed between runs — see the
//! `imp_core::delta` invariants). Probing re-enters the pool via
//! [`AnnotPool::intern_arc`], an O(1) probe for already-known contents.
//!
//! The index is memory-bounded by `OpConfig::join_index_budget` (entries
//! per side); the join operator falls back to per-batch re-evaluation
//! when a side outgrows the budget, mirroring the bounded MIN/MAX state.

use crate::delta::DeltaBatch;
use imp_storage::{codec, AnnotPool, BitVec, FxHashMap, Row, Value};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// One annotated tuple of a materialised join side.
#[derive(Debug, Clone)]
pub struct IndexEntry {
    /// The side's tuple (`Arc`-shared; clone is O(1)).
    pub row: Row,
    /// Annotation content handle (pool-independent).
    pub annot: Arc<BitVec>,
    /// Bag multiplicity of `(row, annot)` in the side's result.
    pub mult: i64,
}

/// A persistent, delta-maintained hash index over one join side.
#[derive(Debug, Clone, Default)]
pub struct JoinSideIndex {
    /// Join-key values → entries, merged by `(row, annotation content)`.
    map: FxHashMap<Vec<Value>, Vec<IndexEntry>>,
    entries: usize,
    heap_bytes: usize,
}

/// Join-key values of a row; `None` when any key attribute is NULL (such a
/// row joins nothing). An empty key set (cross product) maps every row to
/// the same bucket.
pub(crate) fn key_of(row: &Row, keys: &[usize]) -> Option<Vec<Value>> {
    let mut k = Vec::with_capacity(keys.len());
    for &i in keys {
        let v = row[i].clone();
        if v.is_null() {
            return None;
        }
        k.push(v);
    }
    Some(k)
}

pub(crate) fn key_heap(key: &[Value]) -> usize {
    key.iter().map(Value::heap_size).sum::<usize>() + std::mem::size_of_val(key)
}

impl JoinSideIndex {
    /// Build the index from a full evaluation of the side (one backend
    /// round trip, already at the state the index should represent).
    pub fn build(side: &DeltaBatch, keys: &[usize], pool: &AnnotPool) -> JoinSideIndex {
        let mut idx = JoinSideIndex::default();
        idx.apply(side, keys, pool);
        idx
    }

    /// Absorb one delta of the side: `Q₂ᴺᴱᵂ = Q₂ᴼᴸᴰ + ΔQ₂`, each row through
    /// `merge_entry`; a bucket that cancels away takes its key with it.
    pub fn apply(&mut self, delta: &DeltaBatch, keys: &[usize], pool: &AnnotPool) {
        for d in delta {
            let Some(key) = key_of(&d.row, keys) else {
                continue;
            };
            let mut slot = match self.map.entry(key) {
                Entry::Occupied(o) => o,
                Entry::Vacant(v) => {
                    self.heap_bytes += key_heap(v.key());
                    v.insert_entry(Vec::with_capacity(1))
                }
            };
            merge_entry(
                slot.get_mut(),
                &d.row,
                pool.share(d.annot),
                d.mult,
                &mut self.entries,
                &mut self.heap_bytes,
            );
            if slot.get().is_empty() {
                self.heap_bytes -= key_heap(slot.key());
                slot.remove();
            }
        }
    }

    /// Entries matching a join key.
    pub fn get(&self, key: &[Value]) -> Option<&[IndexEntry]> {
        self.map.get(key).map(Vec::as_slice)
    }

    /// Iterate the distinct join keys (bloom filters are rebuilt from
    /// these without a backend round trip).
    pub fn keys(&self) -> impl Iterator<Item = &Vec<Value>> {
        self.map.keys()
    }

    /// Hand every annotation handle back to a just-flushed pool.
    pub fn readopt_annots(&self, pool: &mut AnnotPool) {
        for e in self.map.values().flatten() {
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
    /// accounting stays O(|Δ|) per batch. Annotation *contents* are
    /// counted like the top-k state counts them: the `Arc<BitVec>`
    /// handles are handles into the maintainer's pool (re-adopted by it
    /// after a flush), whose own `heap_size` accounts for the bitvectors
    /// — only per-entry handle overhead is ours.
    pub fn heap_size(&self) -> usize {
        self.heap_bytes
            + self.map.capacity() * (std::mem::size_of::<Vec<Value>>() + 8)
            + std::mem::size_of::<JoinSideIndex>()
    }

    /// Serialize the index (annotations by content, so the encoding is
    /// independent of pool id assignment).
    pub fn encode_state(&self, buf: &mut bytes::BytesMut) {
        codec::encode_u64(buf, self.map.len() as u64);
        for (key, bucket) in &self.map {
            codec::encode_row(buf, &Row::new(key.clone()));
            codec::encode_u64(buf, bucket.len() as u64);
            for e in bucket {
                codec::encode_row(buf, &e.row);
                codec::encode_bitvec(buf, &e.annot);
                codec::encode_i64(buf, e.mult);
            }
        }
    }

    /// Restore an index written by [`JoinSideIndex::encode_state`],
    /// re-interning every annotation into `pool` so restored state shares
    /// allocations (and ids) with the live pipeline.
    pub fn decode_state(
        buf: &mut bytes::Bytes,
        pool: &mut AnnotPool,
    ) -> crate::Result<JoinSideIndex> {
        let mut idx = JoinSideIndex::default();
        let n_keys = codec::decode_u64(buf)?;
        for _ in 0..n_keys {
            let key = codec::decode_row(buf)?.values().to_vec();
            let len = codec::decode_u64(buf)?;
            let mut bucket = Vec::with_capacity(len as usize);
            idx.heap_bytes += key_heap(&key);
            for _ in 0..len {
                let row = codec::decode_row(buf)?;
                let id = pool.intern(codec::decode_bitvec(buf)?);
                let e = IndexEntry {
                    row,
                    annot: pool.share(id),
                    mult: codec::decode_i64(buf)?,
                };
                idx.heap_bytes += entry_heap(&e);
                idx.entries += 1;
                bucket.push(e);
            }
            idx.map.insert(key, bucket);
        }
        Ok(idx)
    }
}

pub(crate) fn entry_heap(e: &IndexEntry) -> usize {
    e.row.heap_size() + std::mem::size_of::<IndexEntry>()
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
/// `(row, annotation content)` — the one merge both side-index kinds use.
/// A binary search finds the entry: its multiplicity moves, and it leaves
/// the bucket when that reaches zero; a row not found is inserted in
/// place. `entries` / `heap_bytes` are the owning index's running totals.
pub(crate) fn merge_entry(
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

    /// The accounting oracle: `heap_bytes` recomputed from the live map.
    impl JoinSideIndex {
        pub(crate) fn walked_heap_size(&self, w: &mut Walk<'_>) -> usize {
            let mut bytes = 0;
            for (key, bucket) in &self.map {
                w.visit(1 + bucket.len());
                bytes += key_heap(key);
                for e in bucket {
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
        let idx = JoinSideIndex::build(&side, &[0], &p);
        assert_eq!(idx.len(), 3);
        let bucket = idx.get(&[Value::Int(1)]).unwrap();
        assert_eq!(bucket.len(), 2);
        let dup = bucket.iter().find(|e| e.row == row![1, 10]).unwrap();
        assert_eq!(dup.mult, 2);
        assert!(idx.get(&[Value::Int(3)]).is_none());
    }

    #[test]
    fn apply_deletes_cancel_entries() {
        let mut p = AnnotPool::new(8);
        let side = batch(&mut p, &[(row![1, 10], 0, 1), (row![2, 20], 1, 1)]);
        let mut idx = JoinSideIndex::build(&side, &[0], &p);
        let before = idx.heap_size();
        let delta = batch(&mut p, &[(row![1, 10], 0, -1)]);
        idx.apply(&delta, &[0], &p);
        assert_eq!(idx.len(), 1);
        assert!(idx.get(&[Value::Int(1)]).is_none());
        assert!(idx.heap_size() < before);
        // Re-insert brings it back.
        let delta = batch(&mut p, &[(row![1, 10], 0, 1)]);
        idx.apply(&delta, &[0], &p);
        assert_eq!(idx.get(&[Value::Int(1)]).unwrap().len(), 1);
    }

    #[test]
    fn absorbing_a_row_costs_log_comparisons_in_its_bucket() {
        // Finding an absorbed row's entry used to scan its whole bucket.
        // In the sorted bucket it takes at most 2⌈log₂ b⌉ + 2 comparisons,
        // whatever the bucket size b and wherever the row lands.
        for b in [8i64, 4096] {
            let mut p = AnnotPool::new(8);
            let rows: Vec<(Row, usize, i64)> = (0..b).map(|i| (row![1, i], 0, 1)).collect();
            let mut idx = JoinSideIndex::build(&batch(&mut p, &rows), &[0], &p);
            let bound = 2 * (b as f64).log2().ceil() as u64 + 2;
            for i in [-1, 0, b / 2, b - 1, b] {
                // Merge or insert, a second annotation of the same row,
                // then cancel both.
                for (bit, mult) in [(0, 1), (1, 1), (0, -1), (1, -1)] {
                    let delta = batch(&mut p, &[(row![1, i], bit, mult)]);
                    let before = COMPARISONS.with(Cell::get);
                    idx.apply(&delta, &[0], &p);
                    let made = COMPARISONS.with(Cell::get) - before;
                    assert!(made <= bound, "{made} comparisons in a bucket of {b}");
                }
            }
            let bucket = idx.get(&[Value::Int(1)]).unwrap();
            assert_eq!(bucket.len(), b as usize);
            assert!(bucket.windows(2).all(|w| w[0].row < w[1].row));
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
        let idx = JoinSideIndex::build(&side, &[0], &p);
        assert!(idx.is_empty());
    }

    #[test]
    fn codec_roundtrip_reinterns() {
        let mut p = AnnotPool::new(8);
        let side = batch(
            &mut p,
            &[
                (row![1, 10], 0, 1),
                (row![1, 11], 2, 2),
                (row![5, 50], 1, 1),
            ],
        );
        let idx = JoinSideIndex::build(&side, &[0], &p);
        let mut buf = bytes::BytesMut::new();
        idx.encode_state(&mut buf);
        // Restore into a *fresh* pool (mirrors post-eviction restore).
        let mut p2 = AnnotPool::new(8);
        let mut bytes = buf.freeze();
        let restored = JoinSideIndex::decode_state(&mut bytes, &mut p2).unwrap();
        assert!(bytes.is_empty());
        assert_eq!(restored.len(), idx.len());
        let a = idx.get(&[Value::Int(1)]).unwrap();
        let b = restored.get(&[Value::Int(1)]).unwrap();
        assert_eq!(a.len(), b.len());
        for e in a {
            assert!(b
                .iter()
                .any(|r| r.row == e.row && *r.annot == *e.annot && r.mult == e.mult));
        }
    }
}
