//! Join maintenance under the three join-index settings (default budget,
//! indexes off, a budget of one tuple so every input falls back to
//! per-batch evaluation), over every join case of a small scope (see
//! `support/small_scope.rs`): the equi-join, the self-join, each also
//! with a WHERE on one input's scan, a cross product with a residual
//! filter, joins under aggregation and top-k, a two-key join with a
//! self-equality, an equi-join over a cross product and a three-input
//! chain. The index setting may only change cost, never results: after
//! every maintenance each maintainer's sketch must equal a fresh
//! capture, and its report's added/removed bits must be exactly the
//! difference between consecutive captures. Every script runs twice:
//! - batched: one run maintains both statements, so on `r ⋈ s` one
//!   delta changes both inputs (the ΔR ⋈ ΔS term) and on the self-join
//!   an insert and a delete of one row can meet in one delta;
//! - evicting between the statements, recapturing in place of the
//!   first one's maintenance, so the second statement's deletes meet a
//!   recaptured state with no side index.

#[path = "support/small_scope.rs"]
mod small_scope;

use imp_core::ops::DEFAULT_JOIN_INDEX_BUDGET;
use small_scope::{Between, Config, Slice, JOINS, JOIN_SHAPES};

#[test]
fn index_settings_match_a_fresh_capture_on_every_batch() {
    let plans: Vec<&str> = JOINS.iter().chain(&JOIN_SHAPES).copied().collect();
    let slice = Slice {
        plans: &plans,
        rows: 1,
        capacity: Some(2),
        cuts: &[&[1, 2]],
        between: &[Between::Batch, Between::Evict],
        configs: &[
            Config::join_index_budget("default budget", Some(DEFAULT_JOIN_INDEX_BUDGET)),
            Config::join_index_budget("no join index", None),
            Config::join_index_budget("budget of one", Some(1)),
        ],
    };
    assert_eq!(slice.walk("join-index settings"), 21920);
}
