//! # `imp_core::sched` — the sketch store and its maintenance scheduler
//!
//! The paper's middleware maintains *many* sketches against one shared
//! update stream. This module is its one sketch store: the stored
//! sketches behind one state lock, plus the machinery that maintains them
//! beside the query path. Whoever holds the state lock may work on the
//! store: a background worker or the calling thread itself.
//!
//! ## Flow: staging → router → inbox → claims → snapshot
//!
//! ```text
//!   update ──▶ staging queue ─(drained)─▶ DeltaRouter
//!                │ (bounded; full ⇒ inline)  │ one collect per table
//!                ▼                           ▼
//!                                        ┌───────┐
//!                                        │ inbox │
//!                                        └───┬───┘
//!                                            ▼ claims under the state lock:
//!                                   worker 0 … worker N−1 (take turns)
//!   query ─┬─ fresh: read ──▶ SnapshotBoard ◀── publish ──┘
//!          └─ stale: take the state lock, maintain its own sketch, publish
//! ```
//!
//! * **Async ingest** — [`Scheduler::route`] *stages* the updated table
//!   name on a bounded queue and returns: the writer does not pay for
//!   log collection. Workers drain the staging queue; a full queue falls
//!   back to inline ingestion on the writer's thread (backpressure,
//!   counted in [`crate::metrics::SchedStats::backpressure_stalls`]).
//! * **[`router::DeltaRouter`]** ingests each table's delta-log suffix
//!   once, as a shared [`router::TableDelta`] (`Arc` rows via the row
//!   interner), pushed into the inbox only when a stored sketch
//!   references the table. Per-record versions make redelivery/overlap
//!   harmless (receivers skip already-consumed versions).
//! * **`inbox::SchedShared`** holds the inbox and the store. Workers
//!   drain the inbox in claimed batches with per-table **coalescing**
//!   (pending batches for one table merge into a single maintenance run,
//!   bounded by [`crate::middleware::ImpConfig::coalesce_budget`]). With
//!   several workers, each claims from the one inbox and they take turns
//!   on the one state lock. The benchmark measures one worker.
//! * **[`snapshot::SnapshotBoard`]** publishes the store's sketches as an
//!   immutable, epoch-stamped snapshot after every state change, so the
//!   USE/rewrite path reads a fresh sketch without blocking maintenance.
//! * **Caller-side controls.** A query that finds its sketch stale does
//!   not queue behind the inbox: it takes the state lock and maintains
//!   *its own* sketch through the fetching path, then publishes; routed
//!   batches still queued for that sketch become version-filtered no-ops.
//!   A claim holding the lock hands it over between two of its sketches,
//!   so the query waits for at most the one sketch run in progress.
//!   Captures, inspections, admin and advisor passes and
//!   [`Scheduler::drain`] likewise run on the calling thread under the
//!   state lock; all but captures and lock-only reads wait out a claim
//!   that handed the lock over. The lock order is a worker's: state lock,
//!   then the database read lock.
//! * **Zero workers** (`sched_workers: 0`, the default) is the same
//!   store with no threads: nothing is routed, so an update touches no
//!   sketch state, and the caller does all the work — a stale query
//!   maintains its sketch, `tick_maintenance` sweeps.
//!
//! Maintenance arithmetic is split-invariant (see
//! [`crate::maintain::SketchMaintainer::maintain_from`]): however the
//! update stream is chopped into routed batches, coalesced groups, and
//! claims, sketch bits and maintained versions equal the zero-worker
//! outcome.

pub(crate) mod inbox;
pub mod pool;
pub mod router;
pub mod shard;
pub mod snapshot;

pub use pool::{PausedShards, ShardPool, SHARD_QUEUE_CAP};
pub use router::{DeltaRouter, RoutedEntry, TableDelta};
pub use snapshot::{PublishedSketch, ShardSnapshot, SnapshotBoard};

use crate::advisor::{SketchKey, WorkloadTracker};
use crate::maintain::MaintReport;
use crate::metrics::SchedStats;
use crate::middleware::{
    maintain_entry, plan_subsumes, ImpConfig, Store, StoredSketch, MAX_SKETCHES_PER_TEMPLATE,
};
use crate::obs::{Obs, ObsEvent};
use crate::sched::inbox::SchedShared;
use crate::sched::shard::{maintain_stale, publish, ShardMsg};
use imp_engine::Database;
use imp_sketch::SketchSet;
use imp_sql::{LogicalPlan, QueryTemplate};
use parking_lot::RwLock;
use std::sync::Arc;

/// The sketch store: one inbox and state lock + staging + router +
/// worker pool + snapshot board.
pub struct Scheduler {
    pool: ShardPool,
    shared: Arc<SchedShared>,
}

impl Scheduler {
    /// The store for `config.sched_workers` background threads (0: none).
    pub(crate) fn new(
        db: Arc<RwLock<Database>>,
        config: &ImpConfig,
        tracker: Arc<WorkloadTracker>,
        obs: Arc<Obs>,
    ) -> Scheduler {
        let shared = Arc::new(SchedShared::new(db, config, tracker, obs));
        let pool = ShardPool::spawn(config.sched_workers, &shared);
        Scheduler { pool, shared }
    }

    /// Number of workers (0: callers do every claim).
    pub fn workers(&self) -> usize {
        self.pool.len()
    }

    /// Current scheduler counters.
    pub fn stats(&self) -> SchedStats {
        self.shared.metrics.snapshot()
    }

    /// Shared handle to the snapshot board (obsd's `/sketches` reads
    /// published snapshots through this without touching the scheduler).
    pub fn board_handle(&self) -> Arc<SnapshotBoard> {
        Arc::clone(&self.shared.board)
    }

    /// Epoch of the latest published snapshot (0 = none yet).
    pub fn snapshot_epoch(&self) -> u64 {
        self.shared.board.epoch()
    }

    /// Number of sketches currently published. Snapshots are republished
    /// on every count-changing operation, so this equals the stored count
    /// without taking the state lock.
    pub fn published_count(&self) -> usize {
        self.shared.board.read().sketches.len()
    }

    /// The last error of maintenance no caller waited for (a routed claim
    /// or a background sweep). Sticky: it stays reported until a newer
    /// error supersedes it.
    pub fn last_error(&self) -> Option<String> {
        self.shared.slot.state.lock().last_error.clone()
    }

    /// Note that `table` committed an update. Normally this just stages
    /// the table name for asynchronous ingestion (a worker collects the
    /// delta-log suffix into the inbox); when the staging queue is full
    /// — or async ingest is disabled via
    /// [`ImpConfig::ingest_queue_cap`]` = 0` — the delta is ingested
    /// inline on this thread (backpressure, counted as a stall), which
    /// keeps ingestion live even while every worker is paused. With no
    /// workers nothing would ever drain the inbox, so nothing is routed:
    /// the update touches no sketch state.
    pub fn route(&self, table: &str) {
        if self.pool.is_empty() {
            return;
        }
        let (shared, obs) = (&self.shared, &self.shared.obs);
        let _span = obs.span("route");
        let queued = shared.stage(table);
        if !queued && shared.async_enabled() {
            // A full staging queue (not a disabled one) is pressure.
            shared.metrics.backpressure_stalls.inc();
        }
        obs.flight().record(crate::obs::FlightEvent::Staged {
            table: crate::obs::flight::fid(table),
            queued: queued as u64,
        });
        obs.emit(|| ObsEvent::UpdateStaged {
            table: table.to_string(),
            queued,
        });
        if queued {
            shared.nudge(ShardMsg::Wake);
        } else {
            shared.ingest(Some(table));
        }
    }

    /// Store a freshly captured sketch, on the calling thread: the sketch
    /// is stored and published when this returns, so the next query sees
    /// it. A template already holding [`MAX_SKETCHES_PER_TEMPLATE`]
    /// candidates evicts its oldest.
    pub(crate) fn add_sketch(&self, template: QueryTemplate, sketch: StoredSketch) {
        self.shared.register(sketch.maintainer.tables());
        let mut state = self.shared.slot.state.lock();
        if let Some(entries) = state.store.get_mut(&template) {
            if entries.len() >= MAX_SKETCHES_PER_TEMPLATE {
                let old = entries.remove(0); // evict the oldest candidate
                let key = SketchKey::new(template.text(), old.sql);
                self.shared.tracker.forget(&key);
            }
        }
        state.store.entry(template).or_default().push(sketch);
        publish(&mut state, &self.shared.board, &self.shared.obs);
    }

    /// The published candidate subsuming `plan`, if any (non-blocking
    /// snapshot read).
    pub fn find_published(
        &self,
        template: &QueryTemplate,
        plan: &LogicalPlan,
    ) -> Option<PublishedSketch> {
        let snapshot = self.shared.board.read();
        snapshot
            .sketches
            .iter()
            .find(|p| p.template == *template && plan_subsumes(&p.plan, plan))
            .cloned()
    }

    /// Paper Fig. 2 (iii) on the calling thread: under the state lock,
    /// bring the candidate subsuming `plan` current through the fetching
    /// path, publish, and return the report with the fresh sketch. Only
    /// this sketch is maintained, and the query does not wait for the
    /// inbox: routed batches still queued for it become version-filtered
    /// no-ops. A routed claim holding the lock hands it over at its next
    /// sketch, so the wait is at most the one sketch run in progress.
    /// `Ok(None)` when no stored candidate subsumes the plan anymore.
    pub(crate) fn maintain_sketch(
        &self,
        template: &QueryTemplate,
        plan: &LogicalPlan,
    ) -> crate::Result<Option<(MaintReport, Arc<SketchSet>)>> {
        let mut state = self.shared.slot.lock_for_query();
        let mut entries = state.store.get_mut(template).into_iter().flatten();
        let Some(entry) = entries.find(|e| plan_subsumes(&e.plan, plan)) else {
            return Ok(None);
        };
        let report = {
            let db = self.shared.db.read();
            let _span = self.shared.obs.span("maintain_on_demand");
            let (config, obs, tracker) =
                (&self.shared.config, &self.shared.obs, &self.shared.tracker);
            maintain_entry(entry, template, &db, config, obs, tracker)?
        };
        let sketch = Arc::new(entry.maintainer.sketch().clone());
        self.shared.metrics.maintain_runs.inc();
        publish(&mut state, &self.shared.board, &self.shared.obs);
        Ok(Some((report, sketch)))
    }

    /// Run `f` on the first sketch stored for `template`, under the state
    /// lock (tests and inspection). `None` when the template has no
    /// stored sketch.
    pub(crate) fn with_sketch<R>(
        &self,
        template: &QueryTemplate,
        f: impl FnOnce(&StoredSketch) -> R,
    ) -> Option<R> {
        let state = self.shared.slot.state.lock();
        state.store.get(template).and_then(|v| v.first()).map(f)
    }

    /// Run `f` over the store on the calling thread, after a
    /// [`Self::drain`] — so `f` sees every update routed before the call.
    /// The state lock is taken with no claim in flight, and before the
    /// database read lock, a worker's order; with `publish_after`, the
    /// store is republished after `f`.
    pub(crate) fn visit(
        &self,
        publish_after: bool,
        f: impl FnOnce(&mut Store, &Database) -> crate::Result<()>,
    ) -> crate::Result<()> {
        self.drain();
        let mut state = self.shared.slot.lock_settled();
        let result = f(&mut state.store, &self.shared.db.read());
        if publish_after {
            publish(&mut state, &self.shared.board, &self.shared.obs);
        }
        result
    }

    /// Maintain every stale sketch on the calling thread, after a
    /// [`Self::drain`] (queued routed deltas first, in queue order, then
    /// the fetching path for what is still stale). The first error stops
    /// the sweep.
    pub fn maintain_stale(&self) -> crate::Result<Vec<MaintReport>> {
        self.drain();
        let mut reports = Vec::new();
        maintain_stale(&self.shared, &mut reports)?;
        Ok(reports)
    }

    /// Fire-and-forget maintain-stale sweep on one worker (background
    /// ticks; a no-op without workers). Never blocks: when that worker's
    /// message queue is full — a paused worker's, say — the sweep is
    /// dropped, and one already queued covers it.
    pub fn kick_maintenance(&self) {
        self.shared.nudge(ShardMsg::MaintainStale);
    }

    /// Barrier on the calling thread: ingest everything staged, then
    /// claim and run the inbox here — a worker's claim loop minus the
    /// worker, racing the workers for the same state lock. Returns once
    /// every update routed (or staged) before the call has been
    /// maintained: the state lock is taken with no claim in flight, so a
    /// claim another thread runs — one that handed the lock to a query
    /// included — is waited out. Works while the workers are paused.
    /// Returns the claims run here.
    pub fn drain(&self) -> usize {
        let shared = &self.shared;
        shared.ingest(None);
        let mut claims = 0;
        while shared.claim_and_run(shared.slot.lock_settled(), 0) {
            claims += 1;
        }
        claims
    }

    /// Park every worker after it finishes its current claim (the inbox
    /// keeps accepting routed batches — the deterministic way to observe
    /// coalescing and queue depth). Resume by dropping the guard.
    pub fn pause(&self) -> PausedShards {
        self.pool.pause()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::middleware::{capture_stored, choose_partitions, Imp};
    use crate::obs::ObsConfig;
    use crate::sched::inbox::ShardState;
    use crate::sched::shard::ShardWorker;
    use crossbeam::channel::bounded;
    use imp_storage::{row, DataType, Field, Schema};
    use std::sync::atomic::Ordering;

    const Q: &str = "SELECT g, sum(v) AS s FROM t GROUP BY g HAVING sum(v) > 100";

    fn seed_db() -> Database {
        let mut db = Database::new();
        let schema = Schema::new(vec![
            Field::new("g", DataType::Int),
            Field::new("v", DataType::Int),
        ]);
        db.create_table("t", schema).unwrap();
        let rows = (0..60).map(|i| row![i % 6, i]);
        db.table_mut("t").unwrap().bulk_load(rows).unwrap();
        db
    }

    /// Two workers, without a clock: no threads, a routed backlog, and
    /// one `work_once` of worker 1 run on this thread. Worker 0 never
    /// runs, so the claim is worker 1's: there is no owner, every worker
    /// claims from the one inbox. The sketch equals the zero-worker
    /// store's.
    #[test]
    fn any_worker_claims_the_backlog() {
        let config = ImpConfig {
            fragments: 6,
            sched_workers: 2,
            ..ImpConfig::default()
        };
        let db = Arc::new(RwLock::new(seed_db()));
        let obs = Obs::new(&ObsConfig::default());
        let tracker = Arc::new(WorkloadTracker::new());
        let shared = Arc::new(SchedShared::new(Arc::clone(&db), &config, tracker, obs));

        let template = {
            let imp_sql::Statement::Select(sel) = imp_sql::parse_one(Q).unwrap() else {
                unreachable!()
            };
            QueryTemplate::of(&sel)
        };
        let stored = {
            let db = db.read();
            let plan = db.plan_sql(Q).unwrap();
            let pset = choose_partitions(&db, &config, &plan).unwrap().unwrap();
            capture_stored(&db, &config, Q, plan, pset).unwrap().0
        };
        shared.register(stored.maintainer.tables());
        let mut state = shared.slot.state.lock();
        state.store.entry(template).or_default().push(stored);
        drop(state);

        let updates = ["INSERT INTO t VALUES (2, 500)", "DELETE FROM t WHERE v = 7"];
        for sql in updates {
            db.write().execute_sql(sql).unwrap();
            shared.ingest(Some("t"));
        }
        assert_eq!(shared.metrics.snapshot().per_shard[0].depth, 2);

        let workers: Vec<ShardWorker> = (0..2)
            .map(|id| ShardWorker::new(id, bounded(1).1, Arc::clone(&shared)))
            .collect();
        assert!(workers[1].work_once(), "worker 1 found the backlog");
        assert_eq!(shared.metrics.snapshot().per_shard[0].depth, 0, "one claim");
        assert!(!workers[1].work_once(), "nothing left");
        assert!(!workers[0].work_once(), "nothing left for worker 0 either");

        let mut sequential = Imp::new(
            seed_db(),
            ImpConfig {
                sched_workers: 0,
                ..config
            },
        );
        sequential.execute(Q).unwrap();
        for sql in updates {
            sequential.execute(sql).unwrap();
        }
        sequential.maintain_all_stale().unwrap();
        let state = shared.slot.state.lock();
        let claimed = state.store.values().flatten().next().unwrap();
        let expected = &sequential.sketch_states()[0];
        assert_eq!(claimed.maintainer.version(), expected.version);
        assert_eq!(claimed.maintainer.sketch().bits(), &expected.bits);
    }

    const Q2: &str = "SELECT g, max(v) AS m FROM t GROUP BY g HAVING max(v) > 50";

    /// Each stored sketch's SQL and maintained version, by SQL.
    fn versions(state: &ShardState) -> Vec<(String, u64)> {
        let entries = state.store.values().flatten();
        let mut out: Vec<_> = entries
            .map(|e| (e.sql.clone(), e.maintainer.version()))
            .collect();
        out.sort();
        out
    }

    /// The hand-over, without a clock: the zero-worker store (no
    /// threads), two sketches, a routed backlog for both, and a stale
    /// query counted as waiting before the claim starts. The claim, run
    /// on a spawned thread, stops after exactly one sketch with the claim
    /// in flight; in that gap another claimant skips the store and this
    /// thread — the query — maintains the other sketch. The claim then finishes,
    /// and both sketches equal the zero-worker store's.
    #[test]
    fn a_claim_hands_the_lock_to_a_waiting_query() {
        let config = ImpConfig {
            fragments: 6,
            sched_workers: 0,
            ..ImpConfig::default()
        };
        let mut imp = Imp::new(seed_db(), config.clone());
        let updates = [
            "INSERT INTO t VALUES (2, 500)",
            "DELETE FROM t WHERE v = 7",
            "INSERT INTO t VALUES (3, 900)",
        ];
        imp.execute(Q).unwrap();
        imp.execute(Q2).unwrap();
        let shared = Arc::clone(&imp.scheduler().unwrap().shared);
        let slot = &shared.slot;
        for sql in &updates[..2] {
            imp.execute(sql).unwrap();
            shared.ingest(Some("t"));
        }
        let captured = versions(&slot.state.lock());

        slot.waiting.store(1, Ordering::SeqCst);
        let claimant = std::thread::spawn({
            let shared = Arc::clone(&shared);
            move || shared.claim_and_run(shared.slot.state.lock(), 0)
        });
        let handed_over = loop {
            let state = slot.state.lock();
            if slot.claim_in_flight.load(Ordering::SeqCst) {
                break versions(&state);
            }
            assert!(!claimant.is_finished(), "the claim never handed over");
            drop(state);
            std::thread::yield_now();
        };
        let ran: Vec<bool> = (handed_over.iter().zip(&captured))
            .map(|(now, before)| now.1 > before.1)
            .collect();
        assert_eq!(ran.iter().filter(|&&ran| ran).count(), 1, "{ran:?}");

        // Routed work arriving in the gap waits for the claim in flight.
        imp.execute(updates[2]).unwrap();
        shared.ingest(Some("t"));
        assert!(!shared.claim_and_run(slot.state.lock(), 1), "second claim");

        // This thread is the waiting query: it maintains the other sketch.
        slot.waiting.fetch_sub(1, Ordering::SeqCst);
        let other = &handed_over[ran.iter().position(|&ran| !ran).unwrap()].0;
        let template = {
            let imp_sql::Statement::Select(sel) = imp_sql::parse_one(other).unwrap() else {
                unreachable!()
            };
            QueryTemplate::of(&sel)
        };
        let plan = imp.db().plan_sql(other).unwrap();
        let sched = imp.scheduler().unwrap();
        assert!(sched.maintain_sketch(&template, &plan).unwrap().is_some());
        let version = |sql: &str| {
            let state = slot.state.lock();
            versions(&state)
                .into_iter()
                .find(|(s, _)| s == sql)
                .unwrap()
                .1
        };
        assert_eq!(version(other), imp.db().version(), "through the gap");
        assert!(claimant.join().unwrap(), "the claim ran");
        assert!(!slot.claim_in_flight.load(Ordering::SeqCst));
        sched.drain();

        let mut sequential = Imp::new(seed_db(), config);
        sequential.execute(Q).unwrap();
        sequential.execute(Q2).unwrap();
        for sql in updates {
            sequential.execute(sql).unwrap();
        }
        sequential.maintain_all_stale().unwrap();
        assert_eq!(imp.sketch_states(), sequential.sketch_states());
    }
}
