//! Differential test for a backlog, over the `Imp` cases of a small
//! scope (see `support/small_scope.rs`): each pool of one and two
//! workers takes both statements of a script while it is paused, so a
//! backlog deterministically exists for the resumed workers to sweep
//! (racing the caller's sweep); the zero-worker store takes the same
//! statements. Each store holds four sketches over overlapping tables
//! (`r`, `r ⋈ s`, `s`, and `r ⋈ s` filtered on `s` below the join), at
//! the default join-index budget and at a budget of one tuple.
//! Afterwards all stores must hold byte-identical sketch sets and
//! maintained versions, answer every query as the engine does, and hold
//! sketches equal to a fresh capture. (The suite keeps the name
//! it had when idle workers stole from other shards' inboxes; every
//! worker now sweeps the one store.)

#[path = "support/small_scope.rs"]
mod small_scope;

use imp_core::ops::DEFAULT_JOIN_INDEX_BUDGET;
use small_scope::{Between, ImpSlice, JOINS, ONE_TABLE, ON_S};

#[test]
fn stealing_pool_matches_sequential_store() {
    let slice = ImpSlice {
        // SUM with HAVING on `r`, SUM over `r ⋈ s`, top-k over SUM on `s`,
        // `r ⋈ s` with a WHERE on `s` (pushed into `s`'s delta).
        plans: &[ONE_TABLE[3], JOINS[3], ON_S, JOINS[6]],
        rows: [1, 1],
        between: Between::Batch,
        budgets: &[Some(DEFAULT_JOIN_INDEX_BUDGET), Some(1)],
    };
    assert_eq!(slice.walk("paused pools"), 800);
}
