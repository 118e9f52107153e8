//! # `imp_core::sched` — sharded multi-query maintenance scheduling
//!
//! The paper's middleware maintains *many* sketches against one shared
//! update stream. The in-line store serializes that work on whichever
//! thread triggers it; this module scales it out while preserving the
//! in-line semantics bit-for-bit (the differential property the
//! `sched_differential` and `steal_differential` suites prove).
//!
//! ## Flow: staging → router → shared inboxes → workers → snapshots
//!
//! ```text
//!   update ──▶ staging queue ─(worker drains)─▶ DeltaRouter
//!                │ (bounded; full ⇒ inline)        │ one collect per
//!                ▼                                 ▼ table, fan out
//!   query ◀── Imp::execute       ┌─────────┬─────────┬─────────┐
//!              ▲                 │ inbox 0 │ inbox 1 │ inbox N │
//!              │ read            └────┬────┴────┬────┴────┬────┘
//!       SnapshotBoard ◀─ publish ─ worker 0  worker 1  worker N
//!            (versioned)              └──── work stealing ───┘
//! ```
//!
//! * **Async ingest** — [`Scheduler::route`] *stages* the updated table
//!   name on a bounded queue and returns: the writer no longer pays for
//!   log collection or fan-out. Workers drain the staging queue; a full
//!   queue falls back to inline ingestion on the writer's thread
//!   (backpressure, counted in
//!   [`crate::metrics::SchedStats::backpressure_stalls`]).
//! * **[`router::DeltaRouter`]** ingests each table's delta-log suffix
//!   once, as a shared [`router::TableDelta`] (`Arc` rows via the row
//!   interner), pushed only into the inboxes of shards whose sketches
//!   reference the table. Per-record versions make redelivery/overlap
//!   harmless (receivers skip already-consumed versions).
//! * **`steal::SchedShared`** holds the per-shard inboxes and stores.
//!   Each worker drains its own inbox in claimed batches with per-table
//!   **coalescing** (pending batches for one table merge into a single
//!   maintenance run, bounded by
//!   [`crate::middleware::ImpConfig::coalesce_budget`]); an idle worker
//!   **steals** whole claims from loaded shards (serialized by the
//!   victim's state lock, so the result stays byte-identical).
//! * **[`snapshot::SnapshotBoard`]** publishes each shard's sketches as
//!   immutable, epoch-stamped snapshots after every state change, so the
//!   USE/rewrite path reads fresh sketches without ever blocking (or
//!   being blocked by) maintenance. Only a query that *needs* a stale
//!   sketch synchronizes with the owning shard.
//!
//! Maintenance arithmetic is split-invariant (see
//! [`crate::maintain::SketchMaintainer::maintain_from`]): however the
//! update stream is chopped into routed batches, coalesced groups, and
//! stolen claims, sketch bits and maintained versions equal the
//! sequential in-line outcome.

pub mod pool;
pub mod router;
pub mod shard;
pub mod snapshot;
pub(crate) mod steal;

pub use pool::{PausedShards, ShardPool, SHARD_QUEUE_CAP};
pub use router::{DeltaRouter, RoutedEntry, TableDelta};
pub use shard::{MaintainReply, ShardReport};
pub use snapshot::{PublishedSketch, ShardSnapshot, SnapshotBoard};

use crate::advisor::{AdviseAction, ApplyOutcome, SketchCard, WorkloadTracker};
use crate::maintain::MaintReport;
use crate::metrics::{SchedMetrics, SchedStats};
use crate::middleware::{plan_subsumes, ImpConfig, StoredSketch};
use crate::obs::{Obs, ObsEvent};
use crate::sched::shard::{ShardMsg, SketchFn};
use crate::sched::steal::SchedShared;
use crossbeam::channel::bounded;
use imp_engine::Database;
use imp_sql::{LogicalPlan, QueryTemplate};
use parking_lot::RwLock;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The scheduler facade: staging + router + shard pool + snapshot board.
pub struct Scheduler {
    pool: ShardPool,
    shared: Arc<SchedShared>,
    board: Arc<SnapshotBoard>,
    metrics: Arc<SchedMetrics>,
    obs: Arc<Obs>,
    db: Arc<RwLock<Database>>,
}

impl Scheduler {
    /// Spawn the scheduler for `config.sched_workers` shards (≥ 1).
    pub(crate) fn new(
        db: Arc<RwLock<Database>>,
        config: &ImpConfig,
        tracker: Arc<WorkloadTracker>,
        obs: Arc<Obs>,
    ) -> Scheduler {
        let workers = config.sched_workers.max(1);
        let board = Arc::new(SnapshotBoard::new(workers));
        let metrics = Arc::new(SchedMetrics::registered(workers, obs.registry()));
        let shared = Arc::new(SchedShared::new(
            workers,
            config.ingest_queue_cap,
            Arc::clone(&metrics),
            Arc::clone(&obs),
        ));
        let pool = ShardPool::spawn(
            workers, &db, config, &board, &metrics, &tracker, &shared, &obs,
        );
        Scheduler {
            pool,
            shared,
            board,
            metrics,
            obs,
            db,
        }
    }

    /// Number of shard workers.
    pub fn workers(&self) -> usize {
        self.pool.len()
    }

    /// The shard owning `template` (stable template-hash partitioning).
    pub fn shard_of(&self, template: &QueryTemplate) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        template.hash(&mut hasher);
        (hasher.finish() % self.pool.len() as u64) as usize
    }

    /// Current scheduler counters.
    pub fn stats(&self) -> SchedStats {
        self.metrics.snapshot()
    }

    /// Shared handle to the snapshot board (obsd's `/sketches` reads
    /// published snapshots through this without touching the scheduler).
    pub fn board_handle(&self) -> Arc<SnapshotBoard> {
        Arc::clone(&self.board)
    }

    /// Shared handle to the scheduler counters.
    pub fn metrics_handle(&self) -> Arc<SchedMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Epoch of the latest published snapshot (0 = none yet).
    pub fn snapshot_epoch(&self) -> u64 {
        self.board.epoch()
    }

    /// Number of sketches currently published across all shards.
    /// Snapshots are republished on every count-changing operation, so
    /// this equals the stored count without an inspection barrier.
    pub fn published_count(&self) -> usize {
        (0..self.pool.len())
            .map(|shard| self.board.read(shard).sketches.len())
            .sum()
    }

    /// Note that `table` committed an update. Normally this just stages
    /// the table name for asynchronous ingestion (a worker collects the
    /// delta-log suffix and fans it out); when the staging queue is full
    /// — or async ingest is disabled via
    /// [`ImpConfig::ingest_queue_cap`]` = 0` — the delta is ingested
    /// inline on this thread (backpressure, counted as a stall), which
    /// keeps ingestion live even while every worker is paused.
    pub fn route(&self, table: &str) {
        let _span = self.obs.span("route");
        if self.shared.stage(table) {
            self.obs.flight().record(crate::obs::FlightEvent::Staged {
                table: crate::obs::flight::fid(table),
                queued: 1,
            });
            self.obs.emit(|| ObsEvent::UpdateStaged {
                table: table.to_string(),
                queued: true,
            });
            self.shared.wake_any();
        } else {
            if self.shared.async_enabled() {
                // A full staging queue (not a disabled one) is pressure.
                self.metrics.backpressure_stalls.inc();
            }
            self.obs.flight().record(crate::obs::FlightEvent::Staged {
                table: crate::obs::flight::fid(table),
                queued: 0,
            });
            self.obs.emit(|| ObsEvent::UpdateStaged {
                table: table.to_string(),
                queued: false,
            });
            self.shared.ingest(&self.db, Some(table));
        }
    }

    /// Hand a freshly captured sketch to its owning shard (synchronous:
    /// the sketch is stored and published when this returns, so the next
    /// query sees it).
    pub(crate) fn add_sketch(&self, template: QueryTemplate, sketch: StoredSketch) {
        let shard = self.shard_of(&template);
        {
            let db = self.db.read();
            self.shared.register(&db, sketch.maintainer.tables(), shard);
        }
        let (tx, rx) = bounded(1);
        self.pool.send(
            shard,
            ShardMsg::AddSketch {
                template,
                sketch: Box::new(sketch),
                reply: tx,
            },
        );
        let _ = rx.recv();
    }

    /// The published candidate subsuming `plan`, if any (non-blocking
    /// snapshot read).
    pub fn find_published(
        &self,
        template: &QueryTemplate,
        plan: &LogicalPlan,
    ) -> Option<PublishedSketch> {
        let snapshot = self.board.read(self.shard_of(template));
        snapshot
            .sketches
            .iter()
            .find(|p| p.template == *template && plan_subsumes(&p.plan, plan))
            .cloned()
    }

    /// Ask the owning shard to bring the subsuming candidate fully
    /// current (synchronous; staged and queued routed deltas are
    /// processed first). `Ok(None)` when no stored candidate subsumes the
    /// plan anymore; a worker-side maintenance failure propagates like
    /// the in-line backend's would.
    pub(crate) fn maintain_sketch(
        &self,
        template: &QueryTemplate,
        plan: &LogicalPlan,
    ) -> crate::Result<Option<MaintainReply>> {
        let (tx, rx) = bounded(1);
        self.pool.send(
            self.shard_of(template),
            ShardMsg::MaintainSketch {
                template: template.clone(),
                plan: Box::new(plan.clone()),
                reply: tx,
            },
        );
        rx.recv().unwrap_or(Ok(None))
    }

    /// Scatter one control message to every shard, then gather every
    /// reply (shards process in parallel; replies collect in shard
    /// order). A shard whose worker died is skipped — its reply channel
    /// closes.
    fn broadcast<R>(&self, make: impl Fn(crossbeam::channel::Sender<R>) -> ShardMsg) -> Vec<R> {
        let mut replies = Vec::with_capacity(self.pool.len());
        for shard in 0..self.pool.len() {
            let (tx, rx) = bounded(1);
            self.pool.send(shard, make(tx));
            replies.push(rx);
        }
        replies
            .into_iter()
            .filter_map(|rx| rx.recv().ok())
            .collect()
    }

    /// Synchronously maintain every stale sketch on every shard (shards
    /// work in parallel; reports are collected in shard order). Every
    /// shard completes its sweep; the first error, if any, is returned
    /// after the successful reports are collected.
    pub fn maintain_stale(&self) -> crate::Result<Vec<MaintReport>> {
        let mut reports = Vec::new();
        let mut first_error = None;
        for (shard_reports, error) in
            self.broadcast(|tx| ShardMsg::MaintainStale { reply: Some(tx) })
        {
            reports.extend(shard_reports);
            if first_error.is_none() {
                first_error = error;
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(reports),
        }
    }

    /// Fire-and-forget maintain-stale sweep (background ticks).
    pub fn kick_maintenance(&self) {
        for shard in 0..self.pool.len() {
            self.pool
                .send(shard, ShardMsg::MaintainStale { reply: None });
        }
    }

    /// Barrier: returns once every update routed (or staged) before this
    /// call has been fully processed on every shard. Each worker drains
    /// the staging queue and flushes its own inbox before replying; a
    /// claim stolen mid-flight is finished before the thief releases the
    /// victim's state lock, which every subsequent store access takes.
    pub fn drain(&self) {
        let _: Vec<()> = self.broadcast(|tx| ShardMsg::Drain { reply: tx });
    }

    /// Park every worker after it finishes its current claim (inboxes
    /// keep accepting routed batches — the deterministic way to observe
    /// coalescing and queue depth). Resume by dropping the guard.
    pub fn pause(&self) -> PausedShards {
        self.pool.pause()
    }

    /// Synchronous store reports from every shard.
    pub fn inspect(&self) -> Vec<ShardReport> {
        self.broadcast(|tx| ShardMsg::Inspect { reply: tx })
    }

    /// Run `apply` over the stored sketches — one template's candidates
    /// on its owning shard, or (`None`) everything on every shard — as a
    /// control barrier; returns the sum of its results. The evict /
    /// pool-flush / version-trim admin calls of
    /// [`crate::middleware::Imp`] all travel this way.
    pub(crate) fn for_each(&self, template: Option<&QueryTemplate>, apply: SketchFn) -> usize {
        let msg = |tx| ShardMsg::ForEach {
            template: template.cloned(),
            apply: Arc::clone(&apply),
            reply: tx,
        };
        match template {
            None => self.broadcast(msg).into_iter().sum(),
            Some(t) => {
                let (tx, rx) = bounded(1);
                self.pool.send(self.shard_of(t), msg(tx));
                rx.recv().unwrap_or(0)
            }
        }
    }

    /// Gather the advisor's view of every stored sketch (control
    /// barrier; shards reply in parallel, order is normalized by the
    /// caller's sort).
    pub fn advise_gather(&self) -> Vec<SketchCard> {
        self.broadcast(|tx| ShardMsg::AdviseGather { reply: tx })
            .into_iter()
            .flatten()
            .collect()
    }

    /// Scatter one planned advisor round to the owning shards and gather
    /// the summed outcome. Promotion maintenance errors propagate (first
    /// error, after every shard replied).
    pub fn advise_apply(&self, actions: &[AdviseAction]) -> crate::Result<ApplyOutcome> {
        let mut per_shard: Vec<Vec<AdviseAction>> =
            (0..self.pool.len()).map(|_| Vec::new()).collect();
        for action in actions {
            per_shard[self.shard_of(&action.template)].push(action.clone());
        }
        let mut replies = Vec::new();
        for (shard, shard_actions) in per_shard.into_iter().enumerate() {
            if shard_actions.is_empty() {
                continue;
            }
            let (tx, rx) = bounded(1);
            self.pool.send(
                shard,
                ShardMsg::AdviseApply {
                    actions: shard_actions,
                    reply: tx,
                },
            );
            replies.push(rx);
        }
        let mut outcome = ApplyOutcome::default();
        let mut first_error = None;
        for rx in replies {
            match rx.recv() {
                Ok(Ok(o)) => outcome.absorb(&o),
                Ok(Err(e)) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
                Err(_) => {} // worker gone (shutdown race)
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(outcome),
        }
    }

    /// Recapture every sketch with fresh partitions on every shard.
    pub fn repartition_all(&self) -> usize {
        self.broadcast(|tx| ShardMsg::Repartition { reply: tx })
            .into_iter()
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::shard::{publish, run_claim};

    /// Test hooks for the accounting oracle ([`crate::heap_oracle`]).
    impl Scheduler {
        /// Visit every stored sketch of every shard, settled.
        pub(crate) fn for_each_stored(&self, f: &mut dyn FnMut(&StoredSketch)) {
            self.drain();
            for slot in &self.shared.slots {
                slot.state.lock().store.values().flatten().for_each(&mut *f);
            }
        }

        /// With the workers paused: ingest what is staged, then claim,
        /// maintain and publish every loaded shard on the calling thread
        /// — a worker's claim loop minus the worker. Returns claims run.
        pub(crate) fn work_on_caller(
            &self,
            config: &ImpConfig,
            tracker: &WorkloadTracker,
        ) -> usize {
            self.shared.ingest(&self.db, None);
            let mut claims = 0;
            for shard in 0..self.shared.slots.len() {
                let mut state = self.shared.slots[shard].state.lock();
                while let Some(claim) = self.shared.claim(shard, config.coalesce_budget) {
                    let routed = &claim.routed;
                    run_claim(
                        &mut state,
                        routed,
                        &self.db,
                        config,
                        &self.metrics,
                        tracker,
                        &self.obs,
                    );
                    publish(shard, &mut state, &self.board, &self.obs);
                    claims += 1;
                }
            }
            claims
        }
    }
}
