//! Differential test for the maintenance scheduler, over the `Imp` cases
//! of a small scope (see `support/small_scope.rs`): every case runs
//! through the zero-worker store (`sched_workers = 0`: the caller
//! maintains every sketch through the fetching path) and through pools
//! of one and two workers (sweeping beside the caller's sweeps). Each
//! store holds four sketches over overlapping tables (`r`, `r ⋈ s`, `s`,
//! and `r ⋈ s` filtered on `s` below the join), and runs at the default
//! join-index budget and at a budget of one tuple (every join side over
//! budget, evaluated against the database while sweeps race). After the capture and after every statement all
//! stores must hold **byte-identical sketch sets and maintained
//! versions**, answer every query as the engine does, and hold sketches
//! equal to a fresh capture: how sweeps split the stream into runs, and
//! worker parallelism, may change cost, never results. Every script
//! evicts all operator state between its statements; the next query
//! recaptures it.

#[path = "support/small_scope.rs"]
mod small_scope;

use imp_core::ops::DEFAULT_JOIN_INDEX_BUDGET;
use small_scope::{Between, ImpSlice, JOINS, ONE_TABLE, ON_S};

#[test]
fn shard_pool_matches_sequential_store() {
    let slice = ImpSlice {
        // SUM with HAVING on `r`, SUM over `r ⋈ s`, top-k over SUM on `s`,
        // `r ⋈ s` with a WHERE on `s` (pushed into `s`'s delta).
        plans: &[ONE_TABLE[3], JOINS[3], ON_S, JOINS[6]],
        rows: [1, 1],
        between: Between::Evict,
        budgets: &[Some(DEFAULT_JOIN_INDEX_BUDGET), Some(1)],
    };
    assert_eq!(slice.walk("worker pools"), 800);
}
