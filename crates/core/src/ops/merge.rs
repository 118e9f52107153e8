//! The merge operator μ (paper §5.1).
//!
//! μ combines the partial sketches of all query result tuples into the
//! final sketch. Its state is a map `S : Φ → ℕ` counting, per range, the
//! result tuples whose sketch contains the range. A counter crossing zero
//! emits a sketch delta: `0 → n` inserts the fragment, `n → 0` removes it.

use crate::delta::DeltaBatch;
use crate::error::CoreError;
use crate::Result;
use imp_sketch::SketchDelta;
use imp_storage::AnnotPool;

/// Merge operator state: one signed counter per global fragment.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeOp {
    counts: Vec<i64>,
}

impl MergeOp {
    /// Fresh state over `total_fragments` counters.
    pub fn new(total_fragments: usize) -> MergeOp {
        MergeOp {
            counts: vec![0; total_fragments],
        }
    }

    /// Process the root operator's output delta, producing `ΔP`.
    ///
    /// `S′[ρ] = S[ρ] + |Δ+𝒟_ρ| − |Δ-𝒟_ρ|`, then
    /// `ΔP = {Δ+ρ | S[ρ]=0 ∧ S′[ρ]≠0} ∪ {Δ-ρ | S[ρ]≠0 ∧ S′[ρ]=0}`.
    ///
    /// `pool` resolves the batch's pooled annotation ids.
    pub fn process(&mut self, delta: &DeltaBatch, pool: &AnnotPool) -> Result<SketchDelta> {
        let mut out = SketchDelta::default();
        // Batch the per-fragment adjustments first so a fragment touched
        // by several delta tuples produces at most one transition.
        let mut old: imp_storage::FxHashMap<usize, i64> = imp_storage::FxHashMap::default();
        for d in delta {
            for frag in pool.get(d.annot).iter_ones() {
                old.entry(frag).or_insert(self.counts[frag]);
                self.counts[frag] += d.mult;
            }
        }
        for (frag, before) in old {
            let after = self.counts[frag];
            if after < 0 {
                return Err(CoreError::StateCorrupt(format!(
                    "merge counter for fragment {frag} went negative ({after})"
                )));
            }
            match (before == 0, after == 0) {
                (true, false) => out.added.push(frag),
                (false, true) => out.removed.push(frag),
                _ => {}
            }
        }
        out.added.sort_unstable();
        out.removed.sort_unstable();
        Ok(out)
    }

    /// Current counter of a fragment.
    pub fn count(&self, fragment: usize) -> i64 {
        self.counts[fragment]
    }

    /// Reset all counters.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
    }

    /// Heap footprint.
    pub fn heap_size(&self) -> usize {
        self.counts.capacity() * std::mem::size_of::<i64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DeltaEntry;
    use imp_storage::{row, BitVec};

    fn d(pool: &mut AnnotPool, bits: &[usize], mult: i64) -> DeltaEntry {
        DeltaEntry {
            row: row![0],
            annot: pool.intern(BitVec::from_bits(4, bits.iter().copied())),
            mult,
        }
    }

    fn batch(pool: &mut AnnotPool, items: &[(&[usize], i64)]) -> DeltaBatch {
        items.iter().map(|(bits, m)| d(pool, bits, *m)).collect()
    }

    #[test]
    fn example_5_2() {
        // S[ρ1]=1, S[ρ2]=3; delete ⟨t3,{ρ1,ρ2}⟩ → ΔP = {Δ-ρ1}.
        let mut pool = AnnotPool::new(4);
        let mut m = MergeOp::new(4);
        let b = batch(&mut pool, &[(&[1], 1), (&[2], 3)]);
        m.process(&b, &pool).unwrap();
        let del = batch(&mut pool, &[(&[1, 2], -1)]);
        let dp = m.process(&del, &pool).unwrap();
        assert_eq!(dp.removed, vec![1]);
        assert!(dp.added.is_empty());
        assert_eq!(m.count(2), 2);
    }

    #[test]
    fn fig5_merge_step() {
        // S: {f2:1, g1:1}; insert ⟨(5,7),{f1,g2}⟩ → Δ+{f1,g2}.
        // Fragment ids: f1=0, f2=1, g1=2, g2=3.
        let mut pool = AnnotPool::new(4);
        let mut m = MergeOp::new(4);
        let b = batch(&mut pool, &[(&[1, 2], 1)]);
        m.process(&b, &pool).unwrap();
        let ins = batch(&mut pool, &[(&[0, 3], 1)]);
        let dp = m.process(&ins, &pool).unwrap();
        assert_eq!(dp.added, vec![0, 3]);
        assert!(dp.removed.is_empty());
    }

    #[test]
    fn transition_counted_once_per_batch() {
        // A fragment going 0 → 1 → 0 within one batch emits nothing.
        let mut pool = AnnotPool::new(4);
        let mut m = MergeOp::new(2);
        let b = batch(&mut pool, &[(&[0], 1), (&[0], -1)]);
        let dp = m.process(&b, &pool).unwrap();
        assert!(dp.is_empty());
    }

    #[test]
    fn negative_counter_is_corruption() {
        let mut pool = AnnotPool::new(4);
        let mut m = MergeOp::new(2);
        let b = batch(&mut pool, &[(&[0], -1)]);
        assert!(m.process(&b, &pool).is_err());
    }
}
