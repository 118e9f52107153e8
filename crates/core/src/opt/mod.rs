//! The optimizations of paper §7.2, plus the delta-maintained join-side
//! indexes that eliminate the per-batch `Q ⋈ Δ` round trips.

pub mod pushdown;
pub mod side_index;

pub use pushdown::pushable_predicates;
pub use side_index::{ClassSpec, IndexEntry, SideIndex};
