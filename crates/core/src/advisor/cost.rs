//! The advisor's cost model.
//!
//! Every stored sketch is scored in *rows*:
//!
//! ```text
//!   score = hot_rows_skipped − α · hot_maint_delta_rows − β · heap_size
//! ```
//!
//! * **benefit** — the hot-window estimate of backend rows the sketch's
//!   rewrite skipped ([`crate::advisor::tracker::UseStats::hot_rows_skipped`]).
//!   A capture seeds the window with the query's own skip estimate, so a
//!   fresh sketch gets a grace period of a few passes before a cold
//!   template decays to zero benefit.
//! * **maintain_cost** — hot-window delta rows consumed by maintenance
//!   ([`crate::advisor::tracker::UseStats::hot_maint_delta_rows`]),
//!   weighted by `α`. It is a count, not a duration: how fast the machine
//!   happens to run never decides which sketch is demoted, so the same
//!   workload yields the same decisions on every run.
//! * **heap_size** — current heap bytes of the stored sketch (its
//!   maintainer's operator state, sketch and pools), weighted by `β` rows
//!   per byte: holding memory is a standing cost even for a sketch whose
//!   table never changes. It prices the sketch by its own size, so it
//!   does not depend on how a scheduler split the updates into runs.
//!   An evicted sketch is priced at what promoting it costs: promotion
//!   recaptures its operator state from the database, so the state
//!   bytes its eviction freed count on top of what it still holds.
//!
//! The absolute numbers are heuristic; what matters is the *ordering* it
//! induces (the greedy knapsack of [`crate::advisor::select`]) and the
//! sign: a sketch whose score is not positive pays more in maintenance
//! and memory than it returns in skipping, and is demoted even when the
//! budget has room.

use crate::advisor::tracker::UseStats;

/// Tuning weights of the advisor cost model (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdvisorParams {
    /// Weight of the maintenance term, in kept-benefit rows per delta row
    /// maintained.
    pub alpha: f64,
    /// Weight of the heap term, in rows per byte. The default charges one
    /// row per KiB held.
    pub beta: f64,
    /// Promotion hysteresis: a demoted sketch's score is damped by this
    /// factor when competing for the keep-set, so it must beat the
    /// incumbents by a real margin before displacing one. Without it two
    /// equally hot sketches under a one-sketch budget swap places every
    /// pass, paying a recapture each time (default 0.8 = a 25%
    /// advantage required).
    pub promote_margin: f64,
}

impl Default for AdvisorParams {
    fn default() -> Self {
        AdvisorParams {
            alpha: 1.0,
            beta: 1.0 / 1024.0,
            promote_margin: 0.8,
        }
    }
}

impl AdvisorParams {
    /// Score one stored sketch from its workload stats and current heap
    /// footprint, in rows.
    pub fn score(&self, stats: &UseStats, heap_bytes: usize) -> f64 {
        stats.hot_rows_skipped
            - self.alpha * stats.hot_maint_delta_rows
            - self.beta * heap_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_benefit_beats_costs() {
        let p = AdvisorParams::default();
        let hot = UseStats {
            hot_rows_skipped: 10_000.0,
            hot_maint_delta_rows: 100.0,
            ..Default::default()
        };
        assert!(p.score(&hot, 4096) > 0.0);
    }

    #[test]
    fn cold_sketch_scores_negative() {
        let p = AdvisorParams::default();
        let cold = UseStats {
            hot_rows_skipped: 0.0,
            hot_maint_delta_rows: 500.0,
            ..Default::default()
        };
        assert!(p.score(&cold, 4096) < 0.0);
    }

    #[test]
    fn heap_alone_is_a_standing_cost() {
        let p = AdvisorParams::default();
        // No uses, no maintenance — memory still pulls the score negative.
        assert!(p.score(&UseStats::default(), 10_240) < 0.0);
        assert_eq!(p.score(&UseStats::default(), 0), 0.0);
    }

    #[test]
    fn alpha_scales_the_maintenance_term() {
        let stats = UseStats {
            hot_rows_skipped: 1_000.0,
            hot_maint_delta_rows: 600.0,
            ..Default::default()
        };
        let cheap = AdvisorParams {
            alpha: 0.5,
            ..Default::default()
        };
        let dear = AdvisorParams {
            alpha: 2.0,
            ..Default::default()
        };
        assert!(cheap.score(&stats, 0) > 0.0);
        assert!(dear.score(&stats, 0) < 0.0);
    }
}
