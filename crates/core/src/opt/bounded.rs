//! Bounded ordered state (paper §7.2, "Optimizing Minimum, Maximum, and
//! Top-k"; §8.4.3): the one home of the best-`l` buffer that MIN / MAX
//! and top-k keep instead of their whole input.
//!
//! A [`Bounded`] is an ordered multiset with signed counts, best entry
//! first. With a bound `l` it stores at most `l` distinct entries; an
//! insert past that evicts the worst stored entry and marks the set
//! truncated. Its invariant: the stored entries are exactly the entries of
//! the full multiset up to the *horizon* (the worst stored entry), with
//! their full counts. Every rule keeps it:
//!
//! * an insert past the horizon of a truncated set is ignored (an evicted
//!   entry may sort before it);
//! * deleting an absent entry is a no-op past the horizon of a truncated
//!   set (it was evicted) and asks for a recapture otherwise, as does a
//!   count that goes negative;
//! * the set is *exhausted* — its best `k` are unknown — exactly when it
//!   is truncated and its stored multiplicities total less than `k`.
//!
//! The horizon is compared on the whole entry, so entries tied on an
//! ORDER BY key are told apart as they are stored. The bound is clamped to
//! at least `k`: a smaller buffer could not hold the best `k`, and every
//! run would end in a recapture that truncates it again.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// An entry of a [`Bounded`] set: ordered best first, with the heap bytes
/// one stored entry accounts for.
pub trait BoundedEntry: Ord {
    /// Heap bytes one stored entry (its count and tree node included)
    /// accounts for.
    fn heap_bytes(&self) -> usize;
}

/// An ordered multiset with signed counts, optionally bounded to its best
/// `l ≥ k` distinct entries (see the module docs).
#[derive(Debug, Clone)]
pub struct Bounded<T> {
    entries: BTreeMap<T, i64>,
    /// How many of the best entries (by multiplicity) must be known.
    k: i64,
    /// Store at most this many distinct entries; `None` = unbounded.
    bound: Option<usize>,
    /// An entry was evicted at some point.
    truncated: bool,
    /// Σ counts of the stored entries.
    total: i64,
    /// Running Σ [`BoundedEntry::heap_bytes`] over the stored entries.
    heap_bytes: usize,
}

impl<T: BoundedEntry> Bounded<T> {
    /// An empty set that must know its best `k`, storing at most
    /// `max(l, k)` distinct entries when `bound` is `Some(l)`.
    pub(crate) fn new(k: u64, bound: Option<usize>) -> Bounded<T> {
        Bounded {
            entries: BTreeMap::new(),
            k: i64::try_from(k).unwrap_or(i64::MAX),
            bound: bound.map(|l| l.max(usize::try_from(k).unwrap_or(usize::MAX))),
            truncated: false,
            total: 0,
            heap_bytes: 0,
        }
    }

    /// Apply `mult` copies of `entry`. Returns `true` when the stored
    /// entries no longer follow from the input seen — a deletion of an
    /// absent entry inside the horizon, or more deletions than insertions
    /// — and a recapture is required. (Exhaustion is [`Bounded::exhausted`].)
    pub(crate) fn update(&mut self, entry: T, mult: i64) -> bool {
        let evicted = self.truncated
            && self
                .entries
                .last_key_value()
                .is_none_or(|(last, _)| entry > *last);
        match self.entries.entry(entry) {
            Entry::Vacant(v) if mult > 0 => {
                if !evicted {
                    self.heap_bytes += v.key().heap_bytes();
                    self.total += mult;
                    v.insert(mult);
                    self.evict();
                }
                false
            }
            Entry::Vacant(_) => !evicted,
            Entry::Occupied(mut o) if *o.get() + mult > 0 => {
                *o.get_mut() += mult;
                self.total += mult;
                false
            }
            Entry::Occupied(o) => {
                let count = *o.get();
                self.total -= count;
                self.heap_bytes -= o.key().heap_bytes();
                o.remove();
                count + mult < 0
            }
        }
    }

    /// Drop the worst entries past the bound.
    fn evict(&mut self) {
        let Some(l) = self.bound else {
            return;
        };
        while self.entries.len() > l {
            if let Some((worst, count)) = self.entries.pop_last() {
                self.heap_bytes -= worst.heap_bytes();
                self.total -= count;
                self.truncated = true;
            }
        }
    }

    /// Deletions left a truncated set holding fewer than `k` tuples: its
    /// best `k` are unknown until a recapture (§8.4.3). O(1).
    pub(crate) fn exhausted(&self) -> bool {
        self.truncated && self.total < self.k
    }

    /// The best stored entry.
    pub(crate) fn best(&self) -> Option<&T> {
        self.entries.keys().next()
    }

    /// The stored entries, best first, with their counts.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&T, i64)> {
        self.entries.iter().map(|(e, &count)| (e, count))
    }

    /// Number of stored distinct entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Back to the empty, untruncated set.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.truncated = false;
        self.total = 0;
        self.heap_bytes = 0;
    }

    /// Heap footprint of the stored entries. O(1): a running total.
    pub(crate) fn heap_size(&self) -> usize {
        self.heap_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BoundedEntry for u8 {
        fn heap_bytes(&self) -> usize {
            1
        }
    }

    /// The best `k` tuples of `entries` (best first), counts clipped at
    /// `k` in all: what a top-`k` answers, MIN / MAX at `k = 1`.
    fn best_k<'a, T: 'a>(k: i64, entries: impl Iterator<Item = (&'a T, i64)>) -> Vec<(&'a T, i64)> {
        let mut left = k;
        let mut best = Vec::new();
        for (e, count) in entries {
            if left <= 0 {
                break;
            }
            best.push((e, count.min(left)));
            left -= count;
        }
        best
    }

    /// The set after `script` of unit `(entry, insert?)` steps, or `None`
    /// once a step asked for a recapture or left the set exhausted.
    fn run(k: u64, l: Option<usize>, script: &[(u8, bool)]) -> Option<Bounded<u8>> {
        let mut set = Bounded::new(k, l);
        for &(e, insert) in script {
            if set.update(e, if insert { 1 } else { -1 }) || set.exhausted() {
                return None;
            }
        }
        Some(set)
    }

    /// One state of the walk over scripts: the bounded set, whether a step
    /// since its last (re)capture asked for a recapture, and the full
    /// multiset.
    type Node = (Bounded<u8>, bool, BTreeMap<u8, i64>);

    /// Every script of at most `depth` more unit inserts and deletes over
    /// keys `0..3` from `node` (a delete only of a key the full multiset
    /// holds). After each step the set has asked for a recapture or knows
    /// the best `k` of the full multiset. With `batch_per_step` each step
    /// is a run of its own: a recapture rebuilds the set from the full
    /// multiset, which must then answer, and the script goes on.
    /// Otherwise the whole script is one run, which may end after any
    /// step: a request sticks until its end, and exhaustion is read where
    /// it ends.
    fn walk(node: &Node, depth: usize, batch_per_step: bool, cases: &mut usize) {
        if depth == 0 {
            return;
        }
        let (k, l) = (node.0.k, node.0.bound);
        for e in 0..3u8 {
            for insert in [true, false] {
                let (mut set, mut asked, mut full) = node.clone();
                let count = full.entry(e).or_default();
                if !insert && *count == 0 {
                    continue;
                }
                *count += if insert { 1 } else { -1 };
                full.retain(|_, &mut c| c > 0);
                asked |= set.update(e, if insert { 1 } else { -1 });
                *cases += 1;
                if asked || set.exhausted() {
                    if batch_per_step {
                        set = Bounded::new(k as u64, l);
                        for (&e, &c) in &full {
                            assert!(!set.update(e, c), "a capture asked for a recapture");
                        }
                        assert!(!set.exhausted(), "a capture cannot answer");
                        asked = false;
                    }
                } else {
                    let truth = best_k(k, full.iter().map(|(e, &c)| (e, c)));
                    assert_eq!(best_k(k, set.iter()), truth, "k {k}, l {l:?}");
                }
                assert_eq!(set.total, set.iter().map(|(_, c)| c).sum::<i64>());
                assert_eq!(set.heap_size(), set.len());
                walk(&(set, asked, full), depth - 1, batch_per_step, cases);
            }
        }
    }

    /// Thm. 6.1 for the bounded state alone, exhaustively in a small
    /// scope: every script of ≤ 5 unit inserts and deletes over 3 keys, at
    /// every bound `l ∈ {1, 2, 3, ∞}` and `k ∈ {1, 2}`, one run per step
    /// and one run for the whole script.
    #[test]
    fn every_short_script_is_answered_or_recaptured() {
        let mut cases = 0;
        for k in [1u64, 2] {
            for l in [Some(1), Some(2), Some(3), None] {
                for batch_per_step in [true, false] {
                    let root = (Bounded::new(k, l), false, BTreeMap::new());
                    walk(&root, 5, batch_per_step, &mut cases);
                }
            }
        }
        assert_eq!(cases, 22_560);
    }

    /// A bound below `k` is raised to `k`: a MIN / MAX buffer of 0 keeps
    /// one value and answers, instead of evicting every insert.
    #[test]
    fn the_bound_is_at_least_k() {
        assert_eq!(
            run(1, Some(0), &[(3, true), (1, true)]).unwrap().best(),
            Some(&1)
        );
        let top2 = run(2, Some(1), &[(3, true), (1, true), (2, true)]).unwrap();
        assert_eq!(best_k(2, top2.iter()), [(&1, 1), (&2, 1)]);
    }
}
