//! # `imp_core::advisor` — workload-driven sketch selection and lifecycle
//! autopilot
//!
//! The maintenance pipeline keeps every captured sketch current forever —
//! a write-heavy table with a never-reused sketch burns the same memory
//! and maintenance budget as the hottest template in the store. This
//! module decides *which* sketches deserve that budget, following the
//! cost-based-selection insight (selection under a memory budget is
//! where real-world data-skipping wins come from) applied online:
//!
//! ## Flow: tracker → cost → select → autopilot
//!
//! ```text
//!   execute()/maintenance ──▶ WorkloadTracker   (uses, est. rows skipped,
//!            │                     │             delta rows maintained)
//!            │                     ▼
//!            │                AdvisorParams::score   benefit − α·maint − β·heap
//!            │                     │
//!            │                     ▼
//!            │                select_keep           greedy knapsack under
//!            │                     │                ImpConfig::sketch_memory_budget
//!            ▼                     ▼
//!   tick_maintenance() ──▶ autopilot rounds:  keepers → Maintained (promote)
//!                                             losers  → Lazy → Evicted → dropped
//! ```
//!
//! * [`tracker`] — [`WorkloadTracker`]: per-sketch USE hits (capture /
//!   fresh / maintained), estimated backend rows skipped (equi-depth
//!   histogram estimate × sketch selectivity), and maintenance cost
//!   (delta rows consumed, from each run's
//!   [`crate::maintain::MaintReport`]). Lifetime totals plus a decayed
//!   hot window.
//! * [`cost`] — [`AdvisorParams`]: scores each stored sketch in rows as
//!   `hot_rows_skipped − α·hot_maint_delta_rows − β·heap_size`, all
//!   counts (see [`cost`] for why no duration enters).
//! * [`select`] — [`select::select_keep`]: greedy knapsack choosing the
//!   keep-set under the configured memory budget.
//! * [`autopilot`] — plans and applies lifecycle transitions along the
//!   ladder `Maintained → Lazy → Evicted → dropped`, promoting re-hot
//!   sketches back up (maintain, or recapture an evicted one; a dropped
//!   template re-captures on its next query).
//!
//! The autopilot runs from [`crate::middleware::Imp::tick_maintenance`]
//! (and on demand via [`crate::middleware::Imp::advise`]); the
//! gather/apply steps run on the calling thread under the
//! [`crate::sched`] store's state lock, as every control does.
//! Decisions change **cost, never answers**: every demoted sketch still
//! answers through the store's existing on-demand maintenance /
//! re-capture paths, and a demoted-then-promoted sketch is byte-identical
//! (bits and version) to one that was maintained throughout —
//! split-invariant versioning makes promotion a pure cost event.

pub mod autopilot;
pub mod cost;
pub mod select;
pub mod tracker;

pub use autopilot::{AdviseAction, AdviseOp, ApplyOutcome, Lifecycle, PlannedRound, SketchCard};
pub use cost::AdvisorParams;
pub use tracker::{SketchKey, UseKind, UseStats, WorkloadTracker};

use std::sync::Arc;

/// Enforcement rounds an autopilot pass may run after the regular round
/// while the store is still over budget (round 1 forces losers to
/// [`Lifecycle::Evicted`], later rounds drop them). Two drop rounds give
/// slack for heap measured mid-escalation.
pub const MAX_ENFORCEMENT_ROUNDS: u32 = 3;

/// The advisor facade: the shared workload tracker plus the cost-model
/// parameters, owned by [`crate::middleware::Imp`].
#[derive(Debug)]
pub struct Advisor {
    tracker: Arc<WorkloadTracker>,
    params: AdvisorParams,
}

impl Advisor {
    /// Fresh advisor with the given cost-model parameters.
    pub fn new(params: AdvisorParams) -> Advisor {
        Advisor {
            tracker: Arc::new(WorkloadTracker::new()),
            params,
        }
    }

    /// The shared workload tracker (the sketch store hands clones to its
    /// workers).
    pub fn tracker(&self) -> &Arc<WorkloadTracker> {
        &self.tracker
    }

    /// The cost-model parameters.
    pub fn params(&self) -> &AdvisorParams {
        &self.params
    }
}

/// Outcome of one full autopilot pass ([`crate::middleware::Imp::advise`]):
/// the regular round plus any enforcement rounds it took to get the store
/// under budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdvisorReport {
    /// Configured budget the pass enforced.
    pub budget: usize,
    /// Store heap before the pass.
    pub heap_before: usize,
    /// Store heap after the pass (≤ `budget`).
    pub heap_after: usize,
    /// Keep-set size of the final round.
    pub kept: usize,
    /// Rounds executed (1 = the regular round sufficed).
    pub rounds: u32,
    /// Summed lifecycle transitions across all rounds.
    pub outcome: ApplyOutcome,
}
