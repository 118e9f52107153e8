//! # imp-core
//!
//! **IMP — In-memory Incremental Maintenance of Provenance Sketches**: the
//! paper's primary contribution. An in-memory incremental engine over
//! sketch-annotated deltas, plus the middleware that manages a store of
//! sketches between the user and the backend database (paper Fig. 2).
//!
//! * [`delta`] — annotated deltas with signed multiplicities (§4.2/§4.3),
//!   represented as interned, arena-backed [`delta::DeltaBatch`]es whose
//!   annotations are hash-consed [`delta::AnnotId`]s with memoized unions
//!   (see the module docs for the design and its invariants).
//! * [`fragcount`] — the per-group / per-operator fragment counters `ℱ_g`
//!   and the merge-operator counter map `S : Φ → ℕ` (§5.1, §5.2.5).
//! * [`ops`] — the composable delta circuit: incremental versions of every
//!   relational operator the paper covers — table access, selection,
//!   projection, cross product / join, aggregation (SUM / COUNT / AVG /
//!   MIN / MAX), duplicate removal, and top-k (§5.2) — plus the merge
//!   operator `μ` (§5.1). Every join — two inputs or more, cross products
//!   included — compiles to one [`ops::NaryJoinOp`] maintaining
//!   `Δ(R₁ ⋈ … ⋈ Rₙ)` against n per-input indexes with no intermediate
//!   pair state.
//! * [`opt`] — the optimizations of §7.2: selection push-down into delta
//!   retrieval and bounded (top-l) state for MIN / MAX / top-k with
//!   recapture fallback — plus the delta-maintained [`opt::SideIndex`],
//!   one per join input, that answers steady-state `Q ⋈ Δ` join terms
//!   without backend round trips. (§7.2's join bloom filters are not
//!   kept: the round trip they could skip is one the indexes never make.)
//! * [`maintain`] — [`maintain::SketchMaintainer`], the incremental
//!   maintenance procedure `I(Q, Φ, S, Δ𝒟) = (ΔP, S′)` of Def. 4.5.
//! * [`advisor`] — workload-driven, cost-based sketch selection: a
//!   [`advisor::WorkloadTracker`] records per-sketch uses / estimated rows
//!   skipped / maintenance cost, a cost model scores each stored sketch
//!   (`benefit − α·maintain − β·heap`), and a lifecycle autopilot keeps
//!   the best set under [`middleware::ImpConfig::sketch_memory_budget`],
//!   demoting the rest (maintained → lazy → evicted → dropped) and
//!   promoting re-hot templates back.
//! * [`sched`] — the sketch store and its multi-query maintenance
//!   scheduler: the stored sketches behind one state lock that a stale
//!   query, a caller's control, or a [`sched::ShardPool`] worker takes
//!   to work on them; workers that an update nudges to sweep every stale
//!   sketch from the delta log; and versioned published
//!   [`sched::SnapshotBoard`] sketches for the USE path.
//! * [`obs`] — unified observability: a [`obs::MetricsRegistry`] of
//!   counters / gauges / log-bucketed latency histograms with Prometheus
//!   text and JSON exports, bounded per-thread span tracing over the full
//!   maintenance pipeline (Chrome trace-event export) — gated by
//!   [`middleware::ImpConfig::obs`] so the disabled hot path costs a
//!   branch and allocates nothing — served live by [`obsd`].
//! * [`strategy`] / [`middleware`] — eager / lazy / batched maintenance and
//!   the user-facing [`middleware::Imp`] system over one sketch store,
//!   split along Fig. 2 into configuration, capture, reuse, maintenance
//!   and administration, with the worker count set by [`middleware::ImpConfig::sched_workers`]
//!   (0: the caller does all the work).

pub mod advisor;
#[cfg(test)]
mod bootstrap_differential;
pub mod delta;
pub mod error;
pub mod fragcount;
#[cfg(test)]
mod heap_oracle;
pub mod maintain;
pub mod metrics;
pub mod middleware;
pub mod obs;
pub mod obsd;
pub mod ops;
pub mod opt;
pub mod sched;
pub mod strategy;

pub use advisor::{Advisor, AdvisorParams, AdvisorReport, Lifecycle, WorkloadTracker};
pub use delta::{
    delta_heap_sizes, delta_magnitude, normalize_delta, normalize_delta_with, AnnotId, AnnotPool,
    DeltaBatch, DeltaEntry,
};
pub use error::CoreError;
pub use fragcount::FragCounts;
pub use maintain::{MaintReport, SketchMaintainer};
pub use metrics::{MaintMetrics, SchedMetrics, SchedStats};
pub use middleware::{Imp, ImpConfig, ImpResponse, QueryMode, SketchStateView};
pub use obs::{
    HistSnapshot, LatencyHistogram, MetricSample, MetricsRegistry, Obs, ObsConfig, SampleValue,
};
pub use obsd::ObsdHandle;
pub use sched::Scheduler;
pub use strategy::MaintenanceStrategy;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
