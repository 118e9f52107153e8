//! Hash lookup by key: the keys stay where they are (in rows, in columns,
//! in a join's gathered `i64`s), the index maps a key's hash to the ids
//! that carry it, and the caller compares keys on a hit. Group tables and
//! hash joins share it, so neither allocates a key per input row.

use imp_storage::{Cell, FxHashMap, FxHasher};
use std::hash::{Hash, Hasher};

const END: usize = usize::MAX;

/// `hash → ids` with the ids of one hash chained through `next`.
#[derive(Debug, Default)]
pub(super) struct HashIndex {
    heads: FxHashMap<u64, usize>,
    next: Vec<usize>,
}

impl HashIndex {
    /// An index expecting about `ids` entries.
    pub fn with_capacity(ids: usize) -> HashIndex {
        HashIndex {
            heads: FxHashMap::with_capacity_and_hasher(ids, Default::default()),
            next: Vec::with_capacity(ids),
        }
    }

    /// File `id` under `hash`. Each id is linked at most once.
    pub fn link(&mut self, hash: u64, id: usize) {
        if self.next.len() <= id {
            self.next.resize(id + 1, END);
        }
        self.next[id] = self.heads.insert(hash, id).unwrap_or(END);
    }

    /// The ids filed under `hash`, most recently linked first. Different
    /// keys can share a hash: the caller still compares.
    pub fn chain(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let mut at = self.heads.get(&hash).copied().unwrap_or(END);
        std::iter::from_fn(move || {
            (at != END).then(|| {
                let id = at;
                at = self.next[id];
                id
            })
        })
    }
}

/// Hash of a key given cell by cell: equal keys (under [`Cell`]'s
/// equality, `Int`/`Float` included) hash equally.
pub(super) fn hash_cells<'a>(cells: impl IntoIterator<Item = Cell<'a>>) -> u64 {
    let mut hasher = FxHasher::default();
    for cell in cells {
        cell.hash(&mut hasher);
    }
    hasher.finish()
}
