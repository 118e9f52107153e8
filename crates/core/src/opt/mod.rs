//! The optimizations of paper §7.2 — selection push-down into delta
//! retrieval and the bounded best-`l` state of MIN / MAX and top-k — plus
//! the delta-maintained join-side indexes that eliminate the per-batch
//! `Q ⋈ Δ` round trips.

pub mod bounded;
pub mod pushdown;
pub mod side_index;

pub use bounded::{Bounded, BoundedEntry};
pub use pushdown::pushable_predicates;
pub use side_index::{ClassSpec, IndexEntry, SideIndex};
