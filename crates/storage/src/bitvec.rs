//! Fixed-width bitvectors.
//!
//! Provenance sketches are "encoded compactly as bitvectors" with
//! "optimized (aggregate) functions and comparison operators for this
//! encoding" (paper §1): union of partial sketches is bitwise OR, sketch
//! containment is a subset test. [`BitVec`] provides exactly those
//! operations plus the population-count / iteration support the merge
//! operator μ and the use-rewrite need.

use std::fmt;

const WORD_BITS: usize = 64;

/// A fixed-length bitvector backed by `u64` words.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl BitVec {
    /// All-zero bitvector of length `len`.
    pub fn new(len: usize) -> BitVec {
        BitVec {
            len,
            words: vec![0; len.div_ceil(WORD_BITS)],
        }
    }

    /// Bitvector with a single bit set.
    pub fn singleton(len: usize, bit: usize) -> BitVec {
        let mut b = BitVec::new(len);
        b.set(bit, true);
        b
    }

    /// Bitvector with all bits in `bits` set.
    pub fn from_bits(len: usize, bits: impl IntoIterator<Item = usize>) -> BitVec {
        let mut b = BitVec::new(len);
        for i in bits {
            b.set(i, true);
        }
        b
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the vector has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `i` to `value`. Panics when out of bounds.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit {i} out of bounds (len {})", self.len);
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        if value {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Append one bit, growing the vector by one (amortised O(1)): the
    /// null bitmap of a column and the tombstones of the open tail grow
    /// with their rows.
    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(WORD_BITS) {
            self.words.push(0);
        }
        self.len += 1;
        if value {
            self.set(self.len - 1, true);
        }
    }

    /// Drop the last bit (undo of a [`BitVec::push`]). Panics when empty.
    pub fn pop(&mut self) {
        self.set(self.len - 1, false);
        self.len -= 1;
        self.words.truncate(self.len.div_ceil(WORD_BITS));
    }

    /// Read bit `i`. Panics when out of bounds.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of bounds (len {})", self.len);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True iff no bit is set.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place union (`self |= other`): the sketch-union aggregate.
    pub fn union_with(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "bitvec length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection (`self &= other`).
    pub fn intersect_with(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "bitvec length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference (`self &= !other`).
    pub fn difference_with(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "bitvec length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Union returning a new vector.
    ///
    /// Allocates a fresh bitvector per call — per-row delta paths must use
    /// [`BitVec::union_with`] (when the left operand is owned) or a
    /// memoized [`crate::pool::AnnotPool::union`] instead.
    #[must_use = "allocates a new BitVec; use union_with / AnnotPool::union on hot paths"]
    pub fn union(&self, other: &BitVec) -> BitVec {
        let mut r = self.clone();
        r.union_with(other);
        r
    }

    /// `self ⊆ other` — the sketch containment operator.
    pub fn is_subset(&self, other: &BitVec) -> bool {
        assert_eq!(self.len, other.len, "bitvec length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterate over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * WORD_BITS + b)
                }
            })
        })
    }

    /// Clear all bits.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Heap footprint in bytes — this is exactly the "memory of sketches"
    /// quantity reported in paper Fig. 18.
    pub fn heap_size(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// Raw words (the column kernels read NULL and tombstone masks a
    /// word at a time).
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, b) in self.iter_ones().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{b}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut b = BitVec::new(130);
        for i in [0, 1, 63, 64, 65, 128, 129] {
            assert!(!b.get(i));
            b.set(i, true);
            assert!(b.get(i));
        }
        assert_eq!(b.count_ones(), 7);
        b.set(64, false);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 6);
    }

    #[test]
    fn push_grows_across_word_boundaries() {
        let mut b = BitVec::new(0);
        for i in 0..200 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 200);
        assert_eq!(b, BitVec::from_bits(200, (0..200).step_by(3)));
        // Pushing onto a pre-sized vector appends after its last bit.
        let mut c = BitVec::new(64);
        c.push(true);
        assert_eq!(c, BitVec::singleton(65, 64));
        // Popping undoes a push, set bit and storage word included.
        c.pop();
        assert_eq!(c, BitVec::new(64));
        c.push(false);
        assert_eq!(c, BitVec::new(65));
    }

    #[test]
    fn union_intersect_difference() {
        let a = BitVec::from_bits(10, [1, 3, 5]);
        let b = BitVec::from_bits(10, [3, 4]);
        assert_eq!(a.union(&b), BitVec::from_bits(10, [1, 3, 4, 5]));
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i, BitVec::from_bits(10, [3]));
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d, BitVec::from_bits(10, [1, 5]));
    }

    #[test]
    fn subset() {
        let a = BitVec::from_bits(100, [2, 70]);
        let b = BitVec::from_bits(100, [2, 3, 70]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_subset(&a));
        assert!(BitVec::new(100).is_subset(&a));
    }

    #[test]
    fn iter_ones_ascending() {
        let bits = [0usize, 5, 63, 64, 99];
        let b = BitVec::from_bits(100, bits);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), bits.to_vec());
    }

    #[test]
    fn zero_length() {
        let b = BitVec::new(0);
        assert!(b.is_zero());
        assert_eq!(b.iter_ones().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        BitVec::new(8).get(8);
    }
}
