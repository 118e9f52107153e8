//! # imp-engine
//!
//! The backend DBMS substrate IMP runs against. The paper evaluates
//! against PostgreSQL; here the backend is an in-process, in-memory,
//! bag-semantics relational engine with exactly the capabilities IMP
//! exercises:
//!
//! * evaluate full queries (the NS baseline and use-rewritten queries),
//! * evaluate capture queries (full maintenance),
//! * evaluate `Δℛ ⋈ 𝒮` joins on behalf of the incremental engine,
//! * execute updates under snapshot versioning and serve per-table deltas.
//!
//! Table access is filter-before-materialise, and it is one path: when a
//! predicate carries range constraints on a column
//! ([`eval::extract_prune_ranges`]) storage (1) **prunes** whole chunks
//! through zone maps, (2) **selects** the rows inside a range with a typed
//! kernel over that one column of each surviving chunk, (3) **gathers**
//! only the selected rows, and the engine's (4) **residual** — the full
//! predicate — runs inside the scan on what was gathered, so a
//! `Filter(Scan)` never builds a bag of non-qualifying rows. This is what
//! turns a provenance sketch into actual data skipping. `DELETE` and
//! `UPDATE` find their victims through the same path ([`update`]) and are
//! atomic: victims and replacement rows are determined before anything is
//! written.

pub mod database;
pub mod error;
pub mod eval;
pub mod histogram;
pub mod update;

pub use database::{Database, QueryResult};
pub use error::EngineError;
pub use eval::{execute, Bag, ExecStats};
pub use histogram::{equi_depth_cuts, estimate_skipped_rows};

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, EngineError>;
