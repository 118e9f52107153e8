//! # `imp_core::sched` — the sketch store and its maintenance scheduler
//!
//! The paper's middleware maintains *many* sketches against one shared
//! update stream. This module is its one sketch store: the stored
//! sketches behind one state lock, plus the workers that maintain them
//! beside the query path. Whoever holds the state lock may work on the
//! store: a background worker or the calling thread itself.
//!
//! ## Flow: note → sweep → snapshot
//!
//! ```text
//!   update ──▶ delta log (the database's own)
//!      └─ note + nudge ──▶ worker 0 … worker N−1 (take turns on the state lock)
//!                              │ sweep: per stale sketch, fetch its delta
//!                              │ from the log since its version, run it
//!                              ▼
//!   query ─┬─ fresh: read ──▶ SnapshotBoard ◀── publish
//!          └─ stale: take the state lock, maintain its own sketch, publish
//! ```
//!
//! * **Updates** — [`Scheduler::note_update`] counts the update and
//!   nudges one worker, and returns: the writer neither copies its delta
//!   nor maintains anything. The delta stays where the update wrote it,
//!   in the database's delta log.
//! * **Sweeps** — a worker that is nudged, or finds updates noted since
//!   the last sweep began, sweeps the store: every stale
//!   [`crate::advisor::Lifecycle::Maintained`] sketch is maintained
//!   through the fetching path a stale query uses, from that sketch's own
//!   version, so however many updates it missed fold into one run. With
//!   several workers, each sweeps the one store and they take turns on
//!   the one state lock. The benchmark measures one worker.
//! * **[`snapshot::SnapshotBoard`]** publishes the store's sketches as an
//!   immutable, epoch-stamped snapshot after every state change, so the
//!   USE/rewrite path reads a fresh sketch without blocking maintenance.
//! * **Caller-side controls.** A query that finds its sketch stale does
//!   not wait for the workers: it takes the state lock and maintains
//!   *its own* sketch through the fetching path, then publishes. A sweep
//!   holding the lock hands it over between two of its sketches, so the
//!   query waits for at most the one sketch run in progress. Captures,
//!   inspections, admin and advisor passes and [`Scheduler::drain`]
//!   likewise run on the calling thread under the state lock. The lock
//!   order is a worker's: state lock, then the database read lock.
//! * **Zero workers** (`sched_workers: 0`, the default) is the same
//!   store with no threads: nothing is noted, so an update touches no
//!   sketch state, and the caller does all the work — a stale query
//!   maintains its sketch, `tick_maintenance` sweeps.
//!
//! Maintenance arithmetic is split-invariant (a sketch's version is the
//! highest record version it consumed): however sweeps and stale queries
//! split the update stream into runs, sketch bits and maintained versions
//! equal the zero-worker outcome.

pub mod pool;
pub mod shard;
pub mod snapshot;
pub(crate) mod store;

pub use pool::{PausedShards, ShardPool, SHARD_QUEUE_CAP};
pub use snapshot::{PublishedSketch, ShardSnapshot, SnapshotBoard};

use crate::advisor::{SketchKey, WorkloadTracker};
use crate::maintain::MaintReport;
use crate::metrics::SchedStats;
use crate::middleware::{
    maintain_entry, plan_subsumes, ImpConfig, Store, StoredSketch, MAX_SKETCHES_PER_TEMPLATE,
};
use crate::obs::Obs;
use crate::ops::DbAccess;
use crate::sched::shard::{publish, sweep};
use crate::sched::store::{SchedShared, ShardState};
use imp_engine::Database;
use imp_sketch::SketchSet;
use imp_sql::{LogicalPlan, QueryTemplate};
use parking_lot::{MutexGuard, RwLock};
use std::sync::Arc;

/// The sketch store: one state lock + worker pool + snapshot board.
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

    /// Number of workers (0: callers do all the work).
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

    /// The last error of maintenance no caller waited for (a background
    /// sweep). Sticky: it stays reported until a newer error supersedes
    /// it.
    pub fn last_error(&self) -> Option<String> {
        self.shared.slot.state.lock().last_error.clone()
    }

    /// Note that `table` committed an update: count it and nudge a worker
    /// to sweep, without blocking. The delta stays in the database's log,
    /// where the sweep fetches it. With no workers nothing would sweep,
    /// so nothing is noted: the update touches no sketch state.
    pub fn note_update(&self, table: &str) {
        if self.pool.is_empty() {
            return;
        }
        let (shared, obs) = (&self.shared, &self.shared.obs);
        shared.metrics.noted();
        obs.flight().record(crate::obs::FlightEvent::Staged {
            table: crate::obs::flight::fid(table),
        });
        shared.nudge();
    }

    /// Store a freshly captured sketch, on the calling thread: the sketch
    /// is stored and published when this returns, so the next query sees
    /// it. A template already holding [`MAX_SKETCHES_PER_TEMPLATE`]
    /// candidates evicts its oldest.
    pub(crate) fn add_sketch(&self, template: QueryTemplate, sketch: StoredSketch) {
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
    /// workers. A sweep holding the lock hands it over at its next
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
            let db = DbAccess::Held(&db);
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

    /// Run `f` over the store on the calling thread, under the state lock
    /// and after a [`Self::drain`] under the same hold — so on a store with
    /// workers `f` sees every update made before the call maintained. The
    /// database read lock is taken after the state lock, a worker's order;
    /// with `publish_after`, the store is republished after `f`.
    pub(crate) fn visit(
        &self,
        publish_after: bool,
        f: impl FnOnce(&mut Store, &Database) -> crate::Result<()>,
    ) -> crate::Result<()> {
        let (mut state, _) = self.drained(&mut Vec::new());
        let result = f(&mut state.store, &self.shared.db.read());
        if publish_after {
            publish(&mut state, &self.shared.board, &self.shared.obs);
        }
        result
    }

    /// Maintain every stale sketch on the calling thread: one sweep (see
    /// [`shard::sweep`]). A failing sketch does not stop the sweep; the
    /// first error is returned once it is done.
    pub fn maintain_stale(&self) -> crate::Result<Vec<MaintReport>> {
        let mut reports = Vec::new();
        let state = self.shared.slot.state.lock();
        sweep(&self.shared, state, &mut reports).1?;
        Ok(reports)
    }

    /// Fire-and-forget sweep on one worker (background ticks; a no-op
    /// without workers). Never blocks: when that worker's message queue
    /// is full — a paused worker's, say — the nudge is dropped, and one
    /// already queued covers it.
    pub fn kick_maintenance(&self) {
        self.shared.nudge();
    }

    /// Barrier on the calling thread: with workers, run a sweep here,
    /// racing the workers for the same state lock. Returns once every
    /// update made before the call has been maintained — the sweep
    /// fetches each stale sketch's delta up to the current version — even
    /// while the workers are paused. Errors are parked in
    /// [`Self::last_error`]. Returns the maintenance runs made here (0
    /// without workers, where nothing is noted and queries maintain).
    pub fn drain(&self) -> usize {
        let mut reports = Vec::new();
        let _ = self.drained(&mut reports);
        reports.len()
    }

    /// The state lock after a [`Self::drain`] under it, with the sweep's
    /// outcome.
    fn drained(
        &self,
        reports: &mut Vec<MaintReport>,
    ) -> (MutexGuard<'_, ShardState>, crate::Result<()>) {
        let state = self.shared.slot.state.lock();
        if self.pool.is_empty() {
            return (state, Ok(()));
        }
        sweep(&self.shared, state, reports)
    }

    /// Park every worker after it finishes its current sweep (updates
    /// keep being noted — the deterministic way to observe a backlog).
    /// Resume by dropping the guard.
    pub fn pause(&self) -> PausedShards {
        self.pool.pause()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintain::SketchMaintainer;
    use crate::middleware::{capture_stored, choose_partitions, Imp, ImpResponse, QueryMode};
    use crate::obs::ObsConfig;
    use crate::sched::shard::ShardWorker;
    use crossbeam::channel::bounded;
    use imp_storage::{row, DataType, Field, Schema};
    use std::sync::atomic::Ordering;

    const Q: &str = "SELECT g, sum(v) AS s FROM t GROUP BY g HAVING sum(v) > 100";
    const Q2: &str = "SELECT g, max(v) AS m FROM t GROUP BY g HAVING max(v) > 50";

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

    fn template_of(sql: &str) -> QueryTemplate {
        let imp_sql::Statement::Select(sel) = imp_sql::parse_one(sql).unwrap() else {
            unreachable!()
        };
        QueryTemplate::of(&sel)
    }

    /// Each stored sketch's SQL and maintained version, by SQL.
    fn versions(state: &ShardState) -> Vec<(String, u64)> {
        let entries = state.store.values().flatten();
        let mut out: Vec<_> = entries
            .map(|e| (e.sql.clone(), e.maintainer.version()))
            .collect();
        out.sort();
        out
    }

    /// Two workers, without a clock: no threads, two noted updates, and
    /// one `work_once` of worker 1 run on this thread. Worker 0 never
    /// runs, so the sweep is worker 1's: there is no owner, every worker
    /// sweeps the one store. One run covers both updates, and the sketch
    /// equals the zero-worker store's.
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
        let stored = {
            let db = db.read();
            let plan = db.plan_sql(Q).unwrap();
            let pset = choose_partitions(&db, &config, &plan).unwrap().unwrap();
            capture_stored(&db, &config, Q, plan, pset).unwrap().0
        };
        let mut state = shared.slot.state.lock();
        state.store.entry(template_of(Q)).or_default().push(stored);
        drop(state);

        let updates = ["INSERT INTO t VALUES (2, 500)", "DELETE FROM t WHERE v = 7"];
        for sql in updates {
            db.write().execute_sql(sql).unwrap();
            shared.metrics.noted();
        }
        assert_eq!(shared.metrics.snapshot().per_shard[0].depth, 2);

        let workers: Vec<ShardWorker> = (0..2)
            .map(|id| ShardWorker::new(id, bounded(1).1, Arc::clone(&shared)))
            .collect();
        assert!(workers[1].work_once(false), "worker 1 found the backlog");
        let stats = shared.metrics.snapshot();
        assert_eq!(stats.per_shard[0].depth, 0, "one sweep takes both");
        assert_eq!(stats.maintain_runs, 1, "both updates fold into one run");
        assert!(!workers[1].work_once(false), "nothing left");
        assert!(
            !workers[0].work_once(false),
            "nothing left for worker 0 either"
        );

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
        let swept = state.store.values().flatten().next().unwrap();
        let expected = &sequential.sketch_states()[0];
        assert_eq!(swept.maintainer.version(), expected.version);
        assert_eq!(swept.maintainer.sketch().bits(), &expected.bits);
    }

    /// The hand-over, without a clock: the zero-worker store (no
    /// threads), two stale sketches, and a stale query counted as waiting
    /// before the sweep starts. The sweep, run on a spawned thread, stops
    /// after exactly one sketch; in that gap an update lands, and this
    /// thread — the query — maintains the other sketch through it. The
    /// sweep then finishes without running that sketch again, and both
    /// sketches equal the zero-worker store's.
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
        for sql in &updates[..2] {
            imp.execute(sql).unwrap();
        }
        let shared = Arc::clone(&imp.scheduler().unwrap().shared);
        let slot = &shared.slot;
        let captured = versions(&slot.state.lock());

        slot.waiting.store(1, Ordering::SeqCst);
        let sweeper = std::thread::spawn({
            let shared = Arc::clone(&shared);
            move || {
                let mut reports = Vec::new();
                let (_state, result) = sweep(&shared, shared.slot.state.lock(), &mut reports);
                result.map(|()| reports.len())
            }
        });
        // The sweep holds the lock until it hands over; it then waits for
        // a query, so this thread finds the gap by polling.
        let handed_over = loop {
            let state = slot.state.lock();
            let now = versions(&state);
            if now
                .iter()
                .zip(&captured)
                .any(|(now, before)| now.1 > before.1)
            {
                break now;
            }
            assert!(!sweeper.is_finished(), "the sweep never handed over");
            drop(state);
            std::thread::yield_now();
        };
        let ran: Vec<bool> = (handed_over.iter().zip(&captured))
            .map(|(now, before)| now.1 > before.1)
            .collect();
        assert_eq!(ran.iter().filter(|&&ran| ran).count(), 1, "{ran:?}");

        // An update lands in the gap; no order is left to protect, since
        // every run fetches from its sketch's own version.
        imp.execute(updates[2]).unwrap();

        // This thread is the waiting query: it maintains the other sketch.
        slot.waiting.fetch_sub(1, Ordering::SeqCst);
        let other = &handed_over[ran.iter().position(|&ran| !ran).unwrap()].0;
        let plan = imp.db().plan_sql(other).unwrap();
        let sched = imp.scheduler().unwrap();
        assert!(sched
            .maintain_sketch(&template_of(other), &plan)
            .unwrap()
            .is_some());
        let version = |sql: &str| {
            let state = slot.state.lock();
            let mut versions = versions(&state).into_iter();
            versions.find(|(s, _)| s == sql).unwrap().1
        };
        assert_eq!(version(other), imp.db().version(), "through the gap");
        assert_eq!(
            sweeper.join().unwrap().unwrap(),
            1,
            "the sweep ran one sketch"
        );
        imp.maintain_all_stale().unwrap();

        let mut sequential = Imp::new(seed_db(), config);
        sequential.execute(Q).unwrap();
        sequential.execute(Q2).unwrap();
        for sql in updates {
            sequential.execute(sql).unwrap();
        }
        sequential.maintain_all_stale().unwrap();
        assert_eq!(imp.sketch_states(), sequential.sketch_states());
    }

    /// A sketch whose every run fails does not stall a worker's sweep:
    /// one of two sketches loses its operator state (dropped, with no
    /// blob to restore it from), so the aggregate reports a DELETE as
    /// corrupt state. The sweep parks the error in `last_error` and
    /// brings the other sketch current; `maintain_all_stale` still
    /// returns the error.
    #[test]
    fn one_failing_sketch_does_not_stall_a_worker_sweep() {
        let config = ImpConfig {
            fragments: 6,
            sched_workers: 0,
            ..ImpConfig::default()
        };
        let mut imp = Imp::new(seed_db(), config);
        imp.execute(Q).unwrap();
        imp.execute(Q2).unwrap();
        let shared = Arc::clone(&imp.scheduler().unwrap().shared);
        {
            let mut state = shared.slot.state.lock();
            let entry = &mut state.store.get_mut(&template_of(Q)).unwrap()[0];
            entry.maintainer.drop_state();
        }
        imp.execute("DELETE FROM t WHERE v = 7").unwrap();

        let worker = ShardWorker::new(0, bounded(1).1, Arc::clone(&shared));
        assert!(worker.work_once(true));
        let error = imp.scheduler().unwrap().last_error();
        assert!(error.is_some(), "the failure was parked");
        assert!(
            error.unwrap().contains("state corrupt"),
            "not a codec error"
        );
        let current = imp.db().version();
        let state = versions(&shared.slot.state.lock());
        let version = |sql: &str| state.iter().find(|(s, _)| s == sql).unwrap().1;
        assert_eq!(version(Q2), current, "the other sketch is current");
        assert!(version(Q) < current, "the failing sketch stays stale");
        assert!(
            imp.maintain_all_stale().is_err(),
            "the caller sees the error"
        );
    }

    /// An evicted sketch whose state blob does not decode is recaptured
    /// from the database, as an exhausted MIN/MAX or top-k buffer is: the
    /// run reports `recaptured`, the answer equals the engine's, and the
    /// sketch equals a fresh capture on the final database (Thm. 6.1) —
    /// with no workers and with one, paused so that the stale query is
    /// the one that recaptures.
    #[test]
    fn an_undecodable_blob_is_recaptured_from_the_database() {
        for workers in [0, 1] {
            let config = ImpConfig {
                fragments: 6,
                sched_workers: workers,
                ..ImpConfig::default()
            };
            let mut imp = Imp::new(seed_db(), config.clone());
            imp.execute(Q).unwrap();
            assert!(imp.evict_state(&template_of(Q)).unwrap() > 0);
            let sched = imp.scheduler().unwrap();
            let paused = (workers > 0).then(|| sched.pause());
            {
                let mut state = sched.shared.slot.state.lock();
                let entry = &mut state.store.get_mut(&template_of(Q)).unwrap()[0];
                let blob = entry.evicted.take().unwrap();
                entry.evicted = Some(blob.slice(..blob.len() / 2));
            }
            imp.execute("INSERT INTO t VALUES (2, 500)").unwrap();

            let ImpResponse::Rows { result, mode } = imp.execute(Q).unwrap() else {
                panic!("rows expected")
            };
            let QueryMode::Maintained(report) = mode else {
                panic!("workers {workers}: the stale query maintains, got {mode:?}")
            };
            assert!(report.recaptured, "workers {workers}: {report:?}");
            drop(paused);
            let engine = imp.db().query(Q).unwrap();
            assert_eq!(result.canonical(), engine.canonical(), "workers {workers}");
            imp.maintain_all_stale().unwrap();
            assert_eq!(imp.scheduler().unwrap().last_error(), None);

            let state = imp.scheduler().unwrap().shared.slot.state.lock();
            let entry = &state.store[&template_of(Q)][0];
            assert!(entry.evicted.is_none(), "the bad blob is gone");
            let db = imp.db();
            let (fresh, _) = SketchMaintainer::capture(
                &entry.plan,
                &db,
                Arc::clone(entry.maintainer.partitions()),
                config.op_config(),
                config.selection_pushdown,
            )
            .unwrap();
            assert_eq!(entry.maintainer.version(), db.version());
            assert_eq!(
                entry.maintainer.sketch().bits(),
                fresh.sketch().bits(),
                "workers {workers}"
            );
        }
    }
}
