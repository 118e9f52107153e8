//! Maintenance metrics: cost and memory accounting for the experiments,
//! plus the shared atomic counters of the [`crate::sched`] scheduler
//! (queue depth, coalescing, backpressure).
//!
//! The scheduler counters are [`crate::obs::registry`] handles: when the
//! scheduler is built through [`crate::middleware::Imp`], they register in
//! the `Imp`'s unified [`crate::obs::MetricsRegistry`] (names prefixed
//! `imp_sched_`, per-worker heartbeats labeled `worker="i"`), so the text
//! and JSON expositions show routing and backlog alongside the
//! latency histograms. [`SchedMetrics::new`] without a registry keeps
//! them detached (tests, standalone pools) — same behavior, unexported.

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
/// ([`crate::sched`]): the router and every worker update them
/// lock-free; [`SchedMetrics::snapshot`] captures a consistent-enough
/// view for reporting (the `fig_sched` harness and tests).
#[derive(Debug)]
pub struct SchedMetrics {
    /// Table-delta batches built by the router (one per table flush).
    pub routed_batches: Counter,
    /// Delta rows shipped inside routed batches.
    pub routed_rows: Counter,
    /// Pending same-table batches folded into an earlier batch by the
    /// inbox's coalescing pass.
    pub coalesced_batches: Counter,
    /// Updates that found the ingest staging queue full (or async ingest
    /// disabled) and fell back to inline ingestion on the writer's
    /// thread (backpressure onto the update path).
    pub backpressure_stalls: Counter,
    /// Updates staged for asynchronous ingestion (the writer returned
    /// without collecting).
    pub staged_updates: Counter,
    /// Maintenance runs executed by the store (routed + on-demand).
    pub maintain_runs: Counter,
    /// Per-worker liveness heartbeat (gauge): bumped once per worker-loop
    /// iteration. The health watchdogs compare them across ticks — no
    /// heartbeat advancing while the inbox is non-empty means the workers
    /// are wedged (parked, deadlocked, or stuck in one maintain).
    heartbeat: Vec<Gauge>,
    /// Current inbox depth (gauge): routed batches queued and not yet
    /// claimed.
    queue_depth: Gauge,
    /// High-water inbox depth.
    max_queue_depth: Gauge,
}

impl SchedMetrics {
    /// Fresh detached counters for `workers` workers (not exported by any
    /// registry).
    pub fn new(workers: usize) -> SchedMetrics {
        SchedMetrics::registered(workers, &MetricsRegistry::new())
    }

    /// Counters for `workers` workers, registered in `registry` under
    /// `imp_sched_*` names (heartbeats labeled `worker="i"`).
    pub fn registered(workers: usize, registry: &MetricsRegistry) -> SchedMetrics {
        SchedMetrics {
            routed_batches: registry.counter("imp_sched_routed_batches"),
            routed_rows: registry.counter("imp_sched_routed_rows"),
            coalesced_batches: registry.counter("imp_sched_coalesced_batches"),
            backpressure_stalls: registry.counter("imp_sched_backpressure_stalls"),
            staged_updates: registry.counter("imp_sched_staged_updates"),
            maintain_runs: registry.counter("imp_sched_maintain_runs"),
            heartbeat: (0..workers)
                .map(|i| registry.gauge_with("imp_sched_heartbeat", &[("worker", &i.to_string())]))
                .collect(),
            queue_depth: registry.gauge("imp_sched_queue_depth"),
            max_queue_depth: registry.gauge("imp_sched_max_queue_depth"),
        }
    }

    /// Record one loop iteration of worker `worker` (liveness heartbeat;
    /// see [`Self::heartbeat`]).
    #[inline]
    pub fn beat(&self, worker: usize) {
        self.heartbeat[worker].inc();
    }

    /// Record a batch entering the inbox.
    pub fn enqueued(&self) {
        let d = self.queue_depth.inc_get();
        self.max_queue_depth.max_of(d);
    }

    /// Record a batch leaving the inbox. Saturates at 0: a mismatched
    /// dequeue must not wrap the gauge to `u64::MAX`, which would trip
    /// the `queue_depth` watchdog until the pool restarts.
    pub fn dequeued(&self) {
        self.queue_depth.dec_saturating();
    }

    /// Plain-value view of the counters.
    pub fn snapshot(&self) -> SchedStats {
        let routed_batches = self.routed_batches.get();
        SchedStats {
            routed_batches,
            routed_rows: self.routed_rows.get(),
            fanout_messages: routed_batches,
            coalesced_batches: self.coalesced_batches.get(),
            backpressure_stalls: self.backpressure_stalls.get(),
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
    /// See [`SchedMetrics::routed_batches`].
    pub routed_batches: u64,
    /// See [`SchedMetrics::routed_rows`].
    pub routed_rows: u64,
    /// Inbox pushes: every routed batch lands in the one inbox once, so
    /// this equals [`Self::routed_batches`].
    pub fanout_messages: u64,
    /// See [`SchedMetrics::coalesced_batches`].
    pub coalesced_batches: u64,
    /// See [`SchedMetrics::backpressure_stalls`].
    pub backpressure_stalls: u64,
    /// See [`SchedMetrics::staged_updates`].
    pub staged_updates: u64,
    /// See [`SchedMetrics::maintain_runs`].
    pub maintain_runs: u64,
    /// The inbox's queue gauges: always one entry, since the store has
    /// one inbox. A `Vec` so that readers of `per_shard[].max_depth`
    /// (the `bench_cycle` report among them) keep working.
    pub per_shard: Vec<ShardQueueStats>,
}

/// Queue gauges of the inbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardQueueStats {
    /// Batches currently queued.
    pub depth: u64,
    /// High-water depth since spawn.
    pub max_depth: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dequeued_saturates_at_zero() {
        let m = SchedMetrics::new(2);
        // A mismatched dequeue on an empty queue must not wrap to
        // u64::MAX.
        m.dequeued();
        assert_eq!(m.snapshot().per_shard[0].depth, 0);
        m.enqueued();
        m.dequeued();
        m.dequeued();
        let snap = m.snapshot();
        assert_eq!(snap.per_shard[0].depth, 0);
        assert_eq!(snap.per_shard[0].max_depth, 1);
    }

    #[test]
    fn registered_metrics_share_registry_cells() {
        let registry = MetricsRegistry::new();
        let m = SchedMetrics::registered(2, &registry);
        m.routed_batches.add(3);
        m.enqueued();
        m.beat(1);
        m.beat(1);
        let text = registry.render_text();
        assert!(text.contains("imp_sched_routed_batches 3"));
        assert!(text.contains("imp_sched_heartbeat{worker=\"1\"} 2"));
        assert!(text.contains("imp_sched_queue_depth 1"));
        assert!(text.contains("imp_sched_max_queue_depth 1"));
        assert_eq!(m.snapshot().fanout_messages, 3, "one inbox push per batch");
    }
}
