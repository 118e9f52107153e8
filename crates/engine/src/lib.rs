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
//! Table access is filter-before-materialise, and it is one path: the
//! range constraints a predicate puts on single columns go to storage,
//! which (1) **prunes** whole chunks through zone maps, (2) **selects** the
//! rows inside a range with a typed kernel over that one column of each
//! surviving chunk and hands over column batches; the engine (3)
//! **refines** the selection by the remaining range constraints, evaluates
//! what is left of the predicate on the cells it needs, and (4) **sinks**
//! the survivors — into the group table when the scan feeds an
//! aggregation, into positions when it feeds a join (joins and the
//! operators above them run on position tuples and build a row only for
//! output), into rows that hold the output expressions only otherwise
//! ([`eval`]). This is what turns a provenance sketch into actual data
//! skipping. `DELETE` and `UPDATE` find their victims through the same
//! selection, gathered into rows ([`update`]), and are atomic: victims and
//! replacement rows are determined before anything is written.

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
