//! Fragment counters.
//!
//! Aggregation state keeps, per group, "a map ℱ_g recording for each range
//! ρ of Φ the number of input tuples belonging to the group with ρ in
//! their provenance sketch" (§5.2.5); the merge operator μ keeps the same
//! shape globally (§5.1). Annotations are tiny for most tuples while the
//! partition can have thousands of ranges, so the per-group representation
//! is adaptive: a sorted small vector that promotes to a hash map once it
//! grows past a threshold.

use imp_storage::{BitVec, FxHashMap};

/// Entries above which [`FragCounts`] switches from the sorted-vec to the
/// hash-map representation.
const PROMOTE_AT: usize = 16;

/// Sparse counter map `fragment → signed count`.
#[derive(Debug, Clone, PartialEq)]
pub enum FragCounts {
    /// Sorted by fragment id; few entries.
    Small(Vec<(u32, i64)>),
    /// Many entries.
    Large(FxHashMap<u32, i64>),
}

impl Default for FragCounts {
    fn default() -> Self {
        FragCounts::Small(Vec::new())
    }
}

/// Zero-crossing transition of one counter update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// Count was zero, now non-zero → fragment enters the sketch.
    Appeared,
    /// Count was non-zero, now zero → fragment leaves the sketch.
    Disappeared,
    /// No zero crossing.
    None,
}

impl FragCounts {
    /// Empty counters.
    pub fn new() -> FragCounts {
        FragCounts::default()
    }

    /// Add `delta` to the counter of `frag`, reporting the transition.
    pub fn add(&mut self, frag: u32, delta: i64) -> Transition {
        if delta == 0 {
            return Transition::None;
        }
        let (old, new) = match self {
            FragCounts::Small(v) => match v.binary_search_by_key(&frag, |e| e.0) {
                Ok(i) => {
                    let old = v[i].1;
                    let new = old + delta;
                    if new == 0 {
                        v.remove(i);
                    } else {
                        v[i].1 = new;
                    }
                    (old, new)
                }
                Err(i) => {
                    v.insert(i, (frag, delta));
                    if v.len() > PROMOTE_AT {
                        let map: FxHashMap<u32, i64> = v.drain(..).collect();
                        *self = FragCounts::Large(map);
                    }
                    (0, delta)
                }
            },
            FragCounts::Large(m) => {
                let e = m.entry(frag).or_insert(0);
                let old = *e;
                *e += delta;
                let new = *e;
                if new == 0 {
                    m.remove(&frag);
                }
                (old, new)
            }
        };
        match (old == 0, new == 0) {
            (true, false) => Transition::Appeared,
            (false, true) => Transition::Disappeared,
            _ => Transition::None,
        }
    }

    /// Count of one fragment (0 when absent).
    pub fn get(&self, frag: u32) -> i64 {
        match self {
            FragCounts::Small(v) => v
                .binary_search_by_key(&frag, |e| e.0)
                .map(|i| v[i].1)
                .unwrap_or(0),
            FragCounts::Large(m) => m.get(&frag).copied().unwrap_or(0),
        }
    }

    /// Number of fragments with non-zero count.
    pub fn len(&self) -> usize {
        match self {
            FragCounts::Small(v) => v.len(),
            FragCounts::Large(m) => m.len(),
        }
    }

    /// True iff all counters are zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate `(fragment, count)` pairs with non-zero count.
    pub fn iter(&self) -> Box<dyn Iterator<Item = (u32, i64)> + '_> {
        match self {
            FragCounts::Small(v) => Box::new(v.iter().copied()),
            FragCounts::Large(m) => Box::new(m.iter().map(|(k, v)| (*k, *v))),
        }
    }

    /// Bitvector of fragments with positive count — the group's sketch
    /// `P′ = {ρ | ℱ′_g[ρ] > 0}` (§5.2.5).
    pub fn to_bits(&self, total: usize) -> BitVec {
        let mut bits = BitVec::new(total);
        for (f, c) in self.iter() {
            debug_assert!(c >= 0, "negative fragment count {c} for {f}");
            if c > 0 {
                bits.set(f as usize, true);
            }
        }
        bits
    }

    /// Any counter negative? (State-corruption detector.)
    pub fn any_negative(&self) -> bool {
        self.iter().any(|(_, c)| c < 0)
    }

    /// The only fragment with a count, if that count is positive: a
    /// one-bit sketch, which needs no bitvector.
    pub fn single(&self) -> Option<u32> {
        match self {
            FragCounts::Small(v) if v.len() == 1 && v[0].1 > 0 => Some(v[0].0),
            _ => None,
        }
    }

    /// Approximate heap footprint.
    pub fn heap_size(&self) -> usize {
        match self {
            FragCounts::Small(v) => v.capacity() * std::mem::size_of::<(u32, i64)>(),
            FragCounts::Large(m) => m.capacity() * (std::mem::size_of::<(u32, i64)>() + 8),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transitions() {
        let mut f = FragCounts::new();
        assert_eq!(f.add(3, 1), Transition::Appeared);
        assert_eq!(f.add(3, 2), Transition::None);
        assert_eq!(f.add(3, -3), Transition::Disappeared);
        assert_eq!(f.get(3), 0);
    }

    #[test]
    fn example_5_2_counts() {
        // S[ρ1]=1, S[ρ2]=3; delete ⟨t3,{ρ1,ρ2}⟩ → ρ1 disappears.
        let mut f = FragCounts::new();
        f.add(1, 1);
        f.add(2, 3);
        assert_eq!(f.add(1, -1), Transition::Disappeared);
        assert_eq!(f.add(2, -1), Transition::None);
        assert_eq!(f.get(2), 2);
    }

    #[test]
    fn promotes_to_large() {
        let mut f = FragCounts::new();
        for i in 0..40u32 {
            f.add(i, 1);
        }
        assert!(matches!(f, FragCounts::Large(_)));
        assert_eq!(f.len(), 40);
        for i in 0..40u32 {
            assert_eq!(f.get(i), 1);
        }
    }

    #[test]
    fn to_bits_only_positive() {
        let mut f = FragCounts::new();
        f.add(0, 2);
        f.add(5, 1);
        f.add(5, -1);
        let bits = f.to_bits(8);
        assert_eq!(bits.iter_ones().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn small_stays_sorted() {
        let mut f = FragCounts::new();
        for i in [5u32, 1, 3] {
            f.add(i, 1);
        }
        if let FragCounts::Small(v) = &f {
            let ids: Vec<u32> = v.iter().map(|e| e.0).collect();
            assert_eq!(ids, vec![1, 3, 5]);
        } else {
            panic!("should be small");
        }
    }
}
