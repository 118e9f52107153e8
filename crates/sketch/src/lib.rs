//! # imp-sketch
//!
//! Provenance-based data skipping (PBDS) — the substrate from Niu et al.,
//! "Provenance-based Data Skipping" (PVLDB'21, cited as \[37\]) that the IMP
//! paper builds on:
//!
//! * [`partition`] — range partitions `F_{φ,a}(R)` (Def. 4.1) and
//!   [`partition::PartitionSet`]s assigning a global fragment-id space to
//!   the partitions of all tables a query touches.
//! * [`sketch`] — provenance sketches as bitvectors over fragments
//!   (Def. 4.2), with deltas (`ΔP`, §4.2) and merged-range extraction.
//! * [`capture`](mod@capture) — batch *annotated* evaluation of a query, producing its
//!   accurate sketch `S(F(Q(𝒟)))`, the Thm. 6.1 oracle the maintainer is
//!   checked against. Re-running capture is exactly the
//!   "full maintenance" baseline of §8. Annotations flow as pooled
//!   [`imp_storage::AnnotId`]s (hash-consed, memoized unions) rather than
//!   per-row bitvectors.
//! * [`use_rewrite`] — instrument a query to skip data outside a sketch
//!   (the `WHERE … BETWEEN … OR … BETWEEN …` rewrite of §1, with adjacent
//!   ranges merged per footnote 2).
//! * [`safety`] — conservative safe-attribute analysis (§4.4, §7.4).

pub mod annotate;
pub mod capture;
pub mod error;
pub mod partition;
pub mod safety;
pub mod sketch;
pub mod use_rewrite;

pub use annotate::{
    annotate_delta, annotate_delta_with, annotation_for_row, annotation_id_for_row,
    annotation_ids_for_rows, ANNOTATE_COLUMNAR_MIN,
};
pub use capture::{capture, CaptureResult};
pub use error::SketchError;
pub use partition::{PartitionSet, RangePartition};
pub use safety::{safe_attributes, SafeAttribute};
pub use sketch::{SketchDelta, SketchSet};
pub use use_rewrite::apply_sketch_filter;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, SketchError>;
