//! Incremental top-k (paper §5.2.7) with bounded buffers (§7.2, §8.4.3).
//!
//! State is an ordered multiset of annotated tuples `⟨t, P⟩`, ordered by
//! the ORDER BY key and then by tuple and annotation (a `BTreeMap`
//! standing in for the paper's balanced search tree). The paper computes
//! deltas the simple way — delete the previous top-k, insert the updated
//! one ("as k is typically relatively small, we select a simple
//! approach") — here the old/new diff is *incremental*: the previously
//! emitted top-k is cached together with its boundary key, a batch whose
//! touched keys all sort strictly beyond the boundary of a full top-k is
//! recognised as a no-op without walking the state, and otherwise a
//! single ordered merge of the cached old against the recomputed new
//! emits only the entries that actually changed (instead of
//! `-old ∪ +new` plus a normalization pass).
//!
//! Annotations are stored as `Arc<BitVec>` handles from
//! [`AnnotPool::share`](imp_storage::AnnotPool::share) — O(1) to obtain,
//! no per-entry bitvector copies — and keyed by *content*, so entry order
//! is canonical and survives a pool flush even though pool ids are
//! reassigned when the state is re-adopted.
//!
//! The multiset is a [`Bounded`] set at this `k`: with a buffer only the
//! best `l ≥ k` entries are stored, and if deletions exhaust it below `k`
//! the operator requests a full recapture (§8.4.3: "if there are less
//! than k groups stored in the state, our IMP will fully maintain the
//! sketches").

use super::{IncNode, MaintCtx};
use crate::delta::{DeltaBatch, DeltaEntry};
use crate::opt::{Bounded, BoundedEntry};
use crate::Result;
use imp_sql::plan::sort_key_values;
use imp_sql::SortKey;
use imp_storage::{AnnotPool, BitVec, Row, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// ORDER BY key with per-column direction baked into its `Ord`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderKey {
    vals: Vec<Value>,
    /// Ascending flags, parallel to `vals`.
    asc: Vec<bool>,
}

impl OrderKey {
    fn new(row: &Row, keys: &[SortKey]) -> OrderKey {
        OrderKey {
            vals: sort_key_values(row, keys),
            asc: keys.iter().map(|k| k.asc).collect(),
        }
    }
}

impl PartialOrd for OrderKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderKey {
    fn cmp(&self, other: &Self) -> Ordering {
        debug_assert_eq!(self.asc, other.asc);
        for ((a, b), asc) in self.vals.iter().zip(&other.vals).zip(&self.asc) {
            let ord = a.cmp(b);
            let ord = if *asc { ord } else { ord.reverse() };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }
}

/// One stored annotated tuple under its ORDER BY key.
type TopEntry = (OrderKey, Row, Arc<BitVec>);

/// Heap bytes one stored entry accounts for: its ORDER BY key and its
/// tuple. Annotation *contents* are not ours: every stored `Arc<BitVec>`
/// is a handle into the maintainer's pool, whose `heap_size` counts the
/// bitvectors.
impl BoundedEntry for TopEntry {
    fn heap_bytes(&self) -> usize {
        let (key, row, _) = self;
        key.vals.len() * std::mem::size_of::<Value>()
            + key.vals.iter().map(Value::heap_size).sum::<usize>()
            + 48
            + row.heap_size()
            + std::mem::size_of::<Arc<BitVec>>()
            + 56
    }
}

/// The top-k emitted at the end of the previous batch (`τ_{k,O}(S)`),
/// cached so a batch does not start by re-walking the state tree.
#[derive(Debug)]
struct TopKCache {
    /// The clipped top-k entries in state-iteration order, each carrying
    /// its ORDER BY key so the merge-diff compares without re-deriving.
    rows: Vec<(OrderKey, Row, Arc<BitVec>, i64)>,
    /// ORDER BY key of the last included entry; `None` when empty.
    boundary: Option<OrderKey>,
    /// Total clipped multiplicity (`min(k, Σ state multiplicities)`).
    total: i64,
}

/// Incremental top-k operator.
#[derive(Debug)]
pub struct TopKOp {
    input: Box<IncNode>,
    keys: Vec<SortKey>,
    k: u64,
    /// The best `l ≥ k` annotated tuples (all of them when unbounded).
    state: Bounded<TopEntry>,
    /// Cached previous top-k; `None` after a reset (recomputed
    /// from the state before the next batch is ingested).
    cache: Option<TopKCache>,
}

impl TopKOp {
    /// New top-k operator keeping the best `max(l, k)` entries when
    /// `buffer` is `Some(l)`.
    pub fn new(input: IncNode, keys: Vec<SortKey>, k: u64, buffer: Option<usize>) -> TopKOp {
        TopKOp {
            input: Box::new(input),
            keys,
            k,
            state: Bounded::new(k, buffer),
            cache: None,
        }
    }

    /// Current top-k: walk keys in order, tuples per key in deterministic
    /// order, clipping the boundary tuple's multiplicity (`τ_{k,O}`).
    /// Rows and annotations come back as O(1) shared handles.
    fn compute_topk(&self) -> TopKCache {
        let mut rows = Vec::new();
        let mut boundary = None;
        let mut remaining = self.k as i64;
        for ((key, row, annot), m) in self.state.iter() {
            if remaining <= 0 {
                break;
            }
            let take = m.min(remaining);
            rows.push((key.clone(), row.clone(), Arc::clone(annot), take));
            boundary = Some(key.clone());
            remaining -= take;
        }
        TopKCache {
            rows,
            boundary,
            total: self.k as i64 - remaining.max(0),
        }
    }

    /// Ordered merge-diff of the cached old top-k against the recomputed
    /// new one: emits `-m` for entries that left, `+m` for entries that
    /// entered, and the signed multiplicity change for entries present in
    /// both — nothing for the (typical) unchanged prefix. Both inputs are
    /// in state-iteration order (ORDER BY key, then `(row, annotation)`),
    /// so one linear pass suffices.
    fn diff_topk(&self, old: &TopKCache, new: &TopKCache, pool: &mut AnnotPool) -> DeltaBatch {
        let mut out = DeltaBatch::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < old.rows.len() || j < new.rows.len() {
            let ord = match (old.rows.get(i), new.rows.get(j)) {
                (Some((ok, or, oa, _)), Some((nk, nr, na, _))) => (ok, or, oa).cmp(&(nk, nr, na)),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => break,
            };
            match ord {
                Ordering::Less => {
                    let (_, row, annot, m) = &old.rows[i];
                    out.push(DeltaEntry {
                        row: row.clone(),
                        annot: pool.intern_arc(Arc::clone(annot)),
                        mult: -m,
                    });
                    i += 1;
                }
                Ordering::Greater => {
                    let (_, row, annot, m) = &new.rows[j];
                    out.push(DeltaEntry {
                        row: row.clone(),
                        annot: pool.intern_arc(Arc::clone(annot)),
                        mult: *m,
                    });
                    j += 1;
                }
                Ordering::Equal => {
                    let m = new.rows[j].3 - old.rows[i].3;
                    if m != 0 {
                        let (_, row, annot, _) = &new.rows[j];
                        out.push(DeltaEntry {
                            row: row.clone(),
                            annot: pool.intern_arc(Arc::clone(annot)),
                            mult: m,
                        });
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// Process one batch.
    pub fn process(&mut self, ctx: &mut MaintCtx<'_, '_>) -> Result<DeltaBatch> {
        let input = self.input.process(ctx)?;
        if input.is_empty() {
            return Ok(DeltaBatch::new());
        }
        // Old top-k: the cache when valid, else (fresh operator or state
        // just recaptured) one walk of the pre-batch state.
        let old_topk = match self.cache.take() {
            Some(c) => c,
            None => self.compute_topk(),
        };
        // A batch leaves the top-k untouched iff the old top-k was full
        // and every touched key sorts strictly beyond its boundary.
        let mut dirty = false;

        for d in input {
            ctx.metrics.rows_processed += 1;
            let key = OrderKey::new(&d.row, &self.keys);
            dirty = dirty
                || old_topk.total < self.k as i64
                || old_topk.boundary.as_ref().is_none_or(|b| key <= *b);
            let annot = ctx.pool.share(d.annot);
            if self.state.update((key, d.row, annot), d.mult) {
                ctx.needs_recapture = true;
            }
        }
        // Inserts may refill what deletions drained within one batch, so
        // exhaustion is read at its end.
        if self.state.exhausted() {
            ctx.needs_recapture = true;
        }
        if ctx.needs_recapture {
            // The maintainer will bootstrap from scratch; the cache dies
            // with the state.
            self.cache = None;
            return Ok(DeltaBatch::new());
        }

        if !dirty {
            // Every touched key sorts beyond the boundary of a full
            // top-k: `τ_{k,O}(S′) = τ_{k,O}(S)` without walking the state.
            self.cache = Some(old_topk);
            return Ok(DeltaBatch::new());
        }

        // Δ-τ_k(S) ∪ Δ+τ_k(S′), emitted as an ordered merge-diff so only
        // the entries that changed re-enter the pool (an O(1) content
        // probe for already-known annotations, no bitvector copy).
        let new_topk = self.compute_topk();
        let out = self.diff_topk(&old_topk, &new_topk, ctx.pool);
        self.cache = Some(new_topk);
        Ok(out)
    }

    /// Drop all state.
    pub fn reset(&mut self) {
        self.state.clear();
        self.cache = None;
        self.input.reset();
    }

    /// Number of stored annotated tuples (`l` in §8.4.3 / Fig. 15).
    pub fn stored_entries(&self) -> usize {
        self.state.len()
    }

    /// Hand every annotation handle of the state back to a just-flushed
    /// pool (the diff cache only clones handles present in the state).
    pub fn readopt_annots(&self, pool: &mut AnnotPool) {
        for ((_, _, annot), _) in self.state.iter() {
            pool.adopt(annot);
        }
    }

    /// Input child.
    pub fn input_child(&self) -> &IncNode {
        &self.input
    }

    /// Heap footprint of this operator's own state (excludes children) —
    /// the quantity Fig. 13e/f plots against the buffer bound. O(1): a
    /// running total.
    pub fn own_heap_size(&self) -> usize {
        self.state.heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap_oracle::Walk;

    /// The accounting oracle: the walk the running total replaced.
    impl TopKOp {
        pub(crate) fn walked_heap_size(&self, w: &mut Walk<'_>) -> usize {
            for ((_, _, annot), _) in self.state.iter() {
                w.annot(annot);
            }
            self.state.walked_heap_size(w)
        }
    }

    /// Run `batches` of `(value, tag, mult)` rows, ordered by value,
    /// through a top-`k` operator keeping `buffer` entries; returns the
    /// top-k rows after each batch, or `None` where it asked for a
    /// recapture.
    fn top_k_runs(k: u64, buffer: usize, batches: &[&[(i64, &str, i64)]]) -> Vec<Option<Vec<Row>>> {
        let input = IncNode::TableAccess { table: "r".into() };
        let keys = vec![SortKey {
            column: 0,
            asc: true,
        }];
        let mut op = TopKOp::new(input, keys, k, Some(buffer));
        let db = imp_engine::Database::new();
        let db = crate::ops::DbAccess::Held(&db);
        let pset = Arc::new(imp_sketch::PartitionSet::new(Vec::new()).unwrap());
        let mut pool = AnnotPool::new(0);
        let mut metrics = crate::metrics::MaintMetrics::default();
        let mut out = Vec::new();
        for batch in batches {
            let empty = pool.empty_id();
            let delta = batch.iter().map(|&(v, tag, mult)| DeltaEntry {
                row: imp_storage::row![v, tag],
                annot: empty,
                mult,
            });
            let deltas = [("r".to_string(), delta.collect())].into_iter().collect();
            let mut ctx = MaintCtx {
                db: &db,
                pset: &pset,
                deltas: &deltas,
                pool: &mut pool,
                metrics: &mut metrics,
                from_empty: false,
                needs_recapture: false,
            };
            op.process(&mut ctx).unwrap();
            let recapture = ctx.needs_recapture;
            let top = op.compute_topk().rows.into_iter().map(|(_, row, _, _)| row);
            out.push((!recapture).then(|| top.collect()));
        }
        out
    }

    /// A truncated buffer admits no insert that evicted entries may sort
    /// before: not past its last stored entry, ties of one key included,
    /// and nothing once deletions have emptied it. The top-k falls back to
    /// a recapture instead of answering without the evicted entries.
    #[test]
    fn a_truncated_buffer_admits_no_insert_past_its_last_entry() {
        // Buffer 1: (1, a) stays, (2, b) is evicted. Deleting (1, a) and
        // inserting (3, c) in one batch must not make (3, c) the top-1.
        let runs = top_k_runs(
            1,
            1,
            &[&[(1, "a", 1), (2, "b", 1)], &[(1, "a", -1), (3, "c", 1)]],
        );
        assert_eq!(runs[0], Some(vec![imp_storage::row![1, "a"]]));
        assert_eq!(runs[1], None);
        // Ties: (1, b) is evicted behind (0, x) and (1, a); (1, c) sorts
        // after (1, a) in the same key, so it is not admitted either, and
        // once (0, x) and (1, a) go, the top-1 is unknown.
        let batches: [&[_]; 3] = [
            &[(0, "x", 1), (1, "a", 1), (1, "b", 1)],
            &[(0, "x", -1), (1, "c", 1)],
            &[(1, "a", -1)],
        ];
        let runs = top_k_runs(1, 2, &batches);
        assert_eq!(runs[1], Some(vec![imp_storage::row![1, "a"]]));
        assert_eq!(runs[2], None);
    }

    #[test]
    fn order_key_directions() {
        let keys = [
            SortKey {
                column: 0,
                asc: false,
            },
            SortKey {
                column: 1,
                asc: true,
            },
        ];
        let a = OrderKey::new(&imp_storage::row![5, 1], &keys);
        let b = OrderKey::new(&imp_storage::row![3, 0], &keys);
        // DESC on column 0: 5 sorts before 3.
        assert!(a < b);
        let c = OrderKey::new(&imp_storage::row![5, 0], &keys);
        assert!(c < a);
    }
}
