//! Theorem 6.1 (correctness of incremental maintenance) and the PBDS
//! safety property, over every case of a small scope (see
//! `crates/core/tests/support/small_scope.rs` for the scope, the oracle
//! and the checks):
//!
//! 1. **Exactness**: after the capture and after every statement, the
//!    maintained sketch equals a fresh capture (with unbounded state the
//!    counter-based semantics is exact), and the report's sketch delta is
//!    the difference between consecutive captures. Under bounded
//!    MIN/MAX and top-k buffers it still covers the capture.
//! 2. **Safety**: on partitions over safe attributes, the query over the
//!    sketch-covered data equals the query over the full database
//!    (`Q(D_P) = Q(D)`).
//! 3. **Tuple correctness**: the capture's answer equals the engine's.

#[path = "../crates/core/tests/support/small_scope.rs"]
mod small_scope;

use small_scope::{Between, Config, Slice, BOUNDED, CUTS, JOINS, ONE_TABLE};

/// One-table plans without MIN/MAX or top-k state, with and without
/// selection pushdown.
#[test]
fn incremental_maintenance_is_exact_and_safe() {
    let slice = Slice {
        plans: &ONE_TABLE,
        rows: 2,
        capacity: None,
        cuts: &CUTS,
        between: &[Between::Maintain],
        configs: &[Config::plain(), Config::no_pushdown()],
    };
    assert_eq!(slice.walk("exact and safe"), 7440);
}

/// MIN/MAX and top-k plans, evicting and recapturing between the
/// statements, exact by default and sound (covering, and safe) under
/// buffers of one entry (§7.2's accuracy-for-performance trade).
#[test]
fn bounded_buffers_remain_sound() {
    let slice = Slice {
        plans: &BOUNDED,
        rows: 2,
        capacity: None,
        cuts: &CUTS,
        between: &[Between::Evict],
        configs: &[
            Config::plain(),
            Config::no_pushdown(),
            Config::buffers_of_one(),
        ],
    };
    assert_eq!(slice.walk("bounded buffers"), 4320);
}

/// Joins (equi-join, self-join, each also filtered on one input below
/// the join, cross product with a residual filter, under aggregation and
/// top-k), partitioned on either table or on both
/// (the Fig. 5 configuration), updated on both sides.
#[test]
fn join_maintenance_matches_capture() {
    let slice = Slice {
        plans: &JOINS,
        rows: 1,
        capacity: None,
        cuts: &[&[1, 2]],
        between: &[Between::Maintain],
        configs: &[
            Config::plain(),
            Config::no_pushdown(),
            Config::buffers_of_one(),
        ],
    };
    assert_eq!(slice.walk("joins"), 7360);
}

/// Range DELETEs and UPDATEs find their victims through the pruned
/// selection path (zone maps and the column kernel over chunks of two
/// rows, plus the open tail) and log them for maintenance.
#[test]
fn range_deletes_and_updates_keep_the_sketch_exact() {
    let slice = Slice {
        plans: &ONE_TABLE,
        rows: 3,
        capacity: Some(2),
        cuts: &[&[1, 2]],
        between: &[Between::Maintain],
        configs: &[Config::plain()],
    };
    assert_eq!(slice.walk("range deletes and updates"), 7280);
}
