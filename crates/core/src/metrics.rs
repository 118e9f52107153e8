//! Maintenance metrics: cost and memory accounting for the experiments,
//! plus the shared atomic counters of the [`crate::sched`] scheduler
//! (noted updates, maintenance runs, the pending-update depth).
//!
//! The scheduler counters are [`crate::obs::registry`] handles: when the
//! scheduler is built through [`crate::middleware::Imp`], they register in
//! the `Imp`'s unified [`crate::obs::MetricsRegistry`] (names prefixed
//! `imp_sched_`), so the text and JSON expositions show the backlog
//! alongside the latency histograms. [`SchedMetrics::default`] without a
//! registry keeps them detached (tests, standalone pools) — same
//! behavior, unexported.

use crate::obs::registry::{Counter, Gauge, MetricsRegistry};
use imp_storage::PoolStats;

/// Counters recorded during one maintenance run (reset per run).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MaintMetrics {
    /// Delta tuples fetched from the backend's delta logs.
    pub delta_rows_fetched: u64,
    /// Delta tuples pruned by selection push-down before entering the
    /// engine (§7.2 "Filtering Deltas Based On Selections").
    pub delta_rows_pruned: u64,
    /// Round trips to the backend (join evaluations).
    pub db_roundtrips: u64,
    /// Round trips avoided because a join-side index answered a `Q ⋈ Δ`
    /// term in memory (counted once per term per batch, only when no
    /// evaluation of that side happened in the batch).
    pub db_roundtrips_avoided: u64,
    /// Delta rows shipped to the backend for an outsourced `Q ⋈ Δ`
    /// evaluation. Bumped only when the term actually triggers a round
    /// trip — not when the side was already evaluated this batch (index
    /// build) or answered by a side index.
    pub rows_sent_to_db: u64,
    /// Delta rows answered by probing a join-side index instead of an
    /// outsourced evaluation.
    pub join_index_probes: u64,
    /// Join-side index (re)builds, each costing one backend round trip.
    pub join_index_builds: u64,
    /// Rows the backend scanned on our behalf.
    pub db_rows_scanned: u64,
    /// Tuples processed by incremental operators.
    pub rows_processed: u64,
    /// Groups touched by aggregation operators.
    pub groups_touched: u64,
    /// Pool-aware heap footprint of the run's input delta batches
    /// (shared rows / pooled annotations counted once).
    pub delta_bytes_pooled: u64,
    /// What the same batches would occupy in the flat pre-pool
    /// representation (owned row + bitvector per entry).
    pub delta_bytes_flat: u64,
    /// Annotation unions actually computed this run (each allocates one
    /// pooled bitvector at most once per distinct pair).
    pub pool_unions_computed: u64,
    /// Annotation unions answered from the memo table or a fast path.
    pub pool_union_memo_hits: u64,
    /// Distinct annotation bitvectors interned this run.
    pub pool_interned: u64,
    /// Intern requests answered by an existing pooled entry.
    pub pool_intern_hits: u64,
}

impl MaintMetrics {
    /// Merge counters from another run.
    pub fn absorb(&mut self, other: &MaintMetrics) {
        self.delta_rows_fetched += other.delta_rows_fetched;
        self.delta_rows_pruned += other.delta_rows_pruned;
        self.db_roundtrips += other.db_roundtrips;
        self.db_roundtrips_avoided += other.db_roundtrips_avoided;
        self.rows_sent_to_db += other.rows_sent_to_db;
        self.join_index_probes += other.join_index_probes;
        self.join_index_builds += other.join_index_builds;
        self.db_rows_scanned += other.db_rows_scanned;
        self.rows_processed += other.rows_processed;
        self.groups_touched += other.groups_touched;
        self.delta_bytes_pooled += other.delta_bytes_pooled;
        self.delta_bytes_flat += other.delta_bytes_flat;
        self.pool_unions_computed += other.pool_unions_computed;
        self.pool_union_memo_hits += other.pool_union_memo_hits;
        self.pool_interned += other.pool_interned;
        self.pool_intern_hits += other.pool_intern_hits;
    }

    /// Record the pool activity of one run as the difference between its
    /// cumulative stats before and after the run.
    pub fn record_pool_activity(&mut self, before: PoolStats, after: PoolStats) {
        self.pool_unions_computed += after.unions_computed - before.unions_computed;
        self.pool_union_memo_hits += after.union_memo_hits - before.union_memo_hits;
        self.pool_interned += after.interned - before.interned;
        self.pool_intern_hits += after.intern_hits - before.intern_hits;
    }
}

/// Shared atomic counters of the maintenance scheduler
/// ([`crate::sched`]): writers and every worker update them lock-free;
/// [`SchedMetrics::snapshot`] captures a consistent-enough view for
/// reporting (the `fig_sched` harness and tests).
#[derive(Debug)]
pub struct SchedMetrics {
    /// Updates noted for the workers (the writer returned without
    /// maintaining anything).
    pub staged_updates: Counter,
    /// Maintenance runs executed by the store (sweeps + on-demand).
    pub maintain_runs: Counter,
    /// Updates noted since the last sweep began (gauge): the work a
    /// worker has not started yet.
    queue_depth: Gauge,
    /// High-water [`Self::queue_depth`].
    max_queue_depth: Gauge,
}

impl Default for SchedMetrics {
    /// Fresh detached counters (not exported by any registry).
    fn default() -> SchedMetrics {
        SchedMetrics::registered(&MetricsRegistry::new())
    }
}

impl SchedMetrics {
    /// Counters registered in `registry` under `imp_sched_*` names.
    pub fn registered(registry: &MetricsRegistry) -> SchedMetrics {
        SchedMetrics {
            staged_updates: registry.counter("imp_sched_staged_updates"),
            maintain_runs: registry.counter("imp_sched_maintain_runs"),
            queue_depth: registry.gauge("imp_sched_queue_depth"),
            max_queue_depth: registry.gauge("imp_sched_max_queue_depth"),
        }
    }

    /// Record an update noted for the workers.
    pub fn noted(&self) {
        self.staged_updates.inc();
        let d = self.queue_depth.inc_get();
        self.max_queue_depth.max_of(d);
    }

    /// Record a sweep beginning: it covers every update noted so far.
    pub fn swept(&self) {
        self.queue_depth.set(0);
    }

    /// Plain-value view of the counters.
    pub fn snapshot(&self) -> SchedStats {
        SchedStats {
            routed_batches: 0,
            fanout_messages: 0,
            coalesced_batches: 0,
            backpressure_stalls: 0,
            staged_updates: self.staged_updates.get(),
            maintain_runs: self.maintain_runs.get(),
            per_shard: vec![ShardQueueStats {
                depth: self.queue_depth.get(),
                max_depth: self.max_queue_depth.get(),
            }],
        }
    }
}

/// Point-in-time values of [`SchedMetrics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedStats {
    /// Always 0: no update is copied out of the delta log any more; a
    /// sweep fetches each stale sketch's delta from the log itself. Kept
    /// for the `bench_cycle` report, which still reads it.
    pub routed_batches: u64,
    /// Always 0, like [`Self::routed_batches`]: nothing is pushed to a
    /// queue. Kept for the `bench_cycle` report.
    pub fanout_messages: u64,
    /// Always 0: a sweep maintains each stale sketch once from its own
    /// version, so there are no queued batches to fold. Kept for the
    /// `bench_cycle` report.
    pub coalesced_batches: u64,
    /// Always 0: a writer only notes its update, so nothing stalls it.
    /// Kept for the `bench_cycle` report.
    pub backpressure_stalls: u64,
    /// See [`SchedMetrics::staged_updates`].
    pub staged_updates: u64,
    /// See [`SchedMetrics::maintain_runs`].
    pub maintain_runs: u64,
    /// The store's pending-update gauges: always one entry. A `Vec` so
    /// that readers of `per_shard[].max_depth` (the `bench_cycle` report
    /// among them) keep working.
    pub per_shard: Vec<ShardQueueStats>,
}

/// Pending-update gauges of the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardQueueStats {
    /// Updates noted since the last sweep began.
    pub depth: u64,
    /// High-water depth since spawn.
    pub max_depth: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sweep_takes_every_noted_update() {
        let m = SchedMetrics::default();
        let depth = |m: &SchedMetrics| m.snapshot().per_shard[0].depth;
        assert_eq!(depth(&m), 0);
        m.noted();
        m.noted();
        assert_eq!(depth(&m), 2);
        m.swept();
        assert_eq!(depth(&m), 0);
        let snap = m.snapshot();
        assert_eq!(snap.per_shard[0].depth, 0);
        assert_eq!(snap.per_shard[0].max_depth, 2);
        assert_eq!(snap.staged_updates, 2);
    }

    #[test]
    fn registered_metrics_share_registry_cells() {
        let registry = MetricsRegistry::new();
        let m = SchedMetrics::registered(&registry);
        m.noted();
        m.maintain_runs.add(3);
        let text = registry.render_text();
        assert!(text.contains("imp_sched_staged_updates 1"));
        assert!(text.contains("imp_sched_maintain_runs 3"));
        assert!(text.contains("imp_sched_queue_depth 1"));
        assert!(text.contains("imp_sched_max_queue_depth 1"));
        assert_eq!(m.snapshot().routed_batches, 0, "nothing is routed");
    }
}
