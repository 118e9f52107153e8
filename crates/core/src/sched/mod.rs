//! # `imp_core::sched` — the sketch store and its maintenance scheduler
//!
//! The paper's middleware maintains *many* sketches against one shared
//! update stream. This module is its one sketch store: the stored
//! sketches behind one state lock, plus the workers that maintain them
//! beside the query path. Whoever holds the state lock may work on the
//! store: a background worker or the calling thread itself.
//!
//! ```text
//!   update ──▶ delta log (the database's own)
//!      └─ note + wake signal ──▶ worker 0 … worker N−1 (take turns on the state lock)
//!                              │ sweep: per stale sketch, fetch its delta
//!                              │ from the log since its version, run it
//!                              ▼
//!   query ─┬─ fresh: read ──▶ SnapshotBoard ◀── publish
//!          └─ stale: take the state lock, maintain its own sketch, publish
//! ```
//!
//! * **Updates** — [`Scheduler::note_update`] counts the update and
//!   raises the workers' one wake signal ([`pool::Wake`]); the delta
//!   stays in the database's delta log, and the writer maintains nothing.
//! * **Sweeps** — the worker that takes the request maintains every stale,
//!   proactively maintained sketch (on the
//!   [`crate::advisor::Lifecycle::Maintained`] rung, state not evicted)
//!   through the fetching path a stale query uses, from that sketch's own
//!   version, so however many updates it missed fold into one run
//!   ([`shard::sweep`]).
//! * **Snapshots** — [`SnapshotBoard`] publishes the store after every
//!   state change, so the USE/rewrite path reads without blocking.
//! * **Caller-side controls** — a stale query maintains *its own* sketch
//!   under the state lock, which a sweep hands over between two of its
//!   sketches; captures, inspection, admin and advisor passes and
//!   [`Scheduler::drain`] also run on the calling thread.
//! * **Zero workers** (`sched_workers: 0`, the default) is the same store
//!   with no threads: nothing is noted, and the caller does all the work.
//!
//! Maintenance arithmetic is split-invariant: however sweeps and stale
//! queries split the update stream into runs, sketch bits and maintained
//! versions equal the zero-worker outcome (`sched_differential`).

pub mod pool;
pub mod shard;
pub mod snapshot;
pub(crate) mod store;

pub use pool::{PausedShards, ShardPool};
pub use snapshot::{PublishedSketch, ShardSnapshot, SnapshotBoard};

use crate::advisor::SketchKey;
use crate::maintain::MaintReport;
use crate::metrics::SchedStats;
use crate::middleware::{
    maintain_entry, plan_subsumes, ImpConfig, QueryMode, Store, StoredSketch,
    MAX_SKETCHES_PER_TEMPLATE,
};
use crate::ops::DbAccess;
use crate::sched::shard::{publish, sweep};
use crate::sched::store::{SchedShared, ShardState};
use imp_engine::Database;
use imp_sketch::SketchSet;
use imp_sql::{LogicalPlan, QueryTemplate};
use parking_lot::MutexGuard;
use std::sync::Arc;

/// The sketch store: one state lock + worker pool + snapshot board.
pub struct Scheduler {
    pool: ShardPool,
    shared: Arc<SchedShared>,
}

impl Scheduler {
    /// The store over `db` for `config.sched_workers` background threads
    /// (0: none).
    pub(crate) fn new(db: Database, config: ImpConfig) -> Scheduler {
        let workers = config.sched_workers;
        let shared = Arc::new(SchedShared::new(db, config));
        let pool = ShardPool::spawn(workers, &shared);
        Scheduler { pool, shared }
    }

    /// The store's one context: database, configuration, obs hub,
    /// tracker and counters.
    pub(crate) fn ctx(&self) -> &SchedShared {
        &self.shared
    }

    /// Number of workers (0: callers do all the work).
    pub fn workers(&self) -> usize {
        self.pool.len()
    }

    /// Current scheduler counters.
    pub fn stats(&self) -> SchedStats {
        self.shared.metrics.snapshot()
    }

    /// Shared handle to the snapshot board (obsd's `/sketches`).
    pub fn board_handle(&self) -> Arc<SnapshotBoard> {
        Arc::clone(&self.shared.board)
    }

    /// Epoch of the latest published snapshot (0 = none yet).
    pub fn snapshot_epoch(&self) -> u64 {
        self.shared.board.epoch()
    }

    /// Number of sketches published: the stored count, read without the
    /// state lock (every count-changing operation republishes).
    pub fn published_count(&self) -> usize {
        self.shared.board.read().sketches.len()
    }

    /// The last error of maintenance no caller waited for (a background
    /// sweep); it stays until a newer error supersedes it.
    pub fn last_error(&self) -> Option<String> {
        self.shared.slot.state.lock().last_error.clone()
    }

    /// Note that an update committed: count it and ask the workers for a
    /// sweep, without blocking. With no workers nothing would sweep, so
    /// nothing is noted.
    pub fn note_update(&self) {
        if self.pool.is_empty() {
            return;
        }
        self.shared.metrics.noted();
        self.shared.wake.nudge();
    }

    /// Store and publish a freshly captured sketch; a template already
    /// holding [`MAX_SKETCHES_PER_TEMPLATE`] candidates evicts its oldest.
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
        let subsumes =
            |p: &&PublishedSketch| p.template == *template && plan_subsumes(&p.plan, plan);
        snapshot.sketches.iter().find(subsumes).cloned()
    }

    /// Paper Fig. 2 (iii) on the calling thread: under the state lock
    /// (a sweep hands it over at its next sketch), bring the candidate
    /// subsuming `plan` current through the fetching path and publish.
    /// A candidate that a sweep brought current meanwhile is answered as
    /// it is, [`QueryMode::UsedFresh`], with no run. `Ok(None)` when no
    /// stored candidate subsumes the plan anymore.
    pub(crate) fn maintain_sketch(
        &self,
        template: &QueryTemplate,
        plan: &LogicalPlan,
    ) -> crate::Result<Option<(Arc<SketchSet>, QueryMode)>> {
        let mut state = self.shared.slot.lock_for_query();
        let mut entries = state.store.get_mut(template).into_iter().flatten();
        let Some(entry) = entries.find(|e| plan_subsumes(&e.plan, plan)) else {
            return Ok(None);
        };
        let report = {
            let db = self.shared.db.read();
            if !entry.maintainer.is_stale(&db) {
                let sketch = Arc::new(entry.maintainer.sketch().clone());
                return Ok(Some((sketch, QueryMode::UsedFresh)));
            }
            let _span = self.shared.obs.span("maintain_on_demand");
            let db = DbAccess::Held(&db);
            maintain_entry(&self.shared, entry, template, &db)?
        };
        let sketch = Arc::new(entry.maintainer.sketch().clone());
        publish(&mut state, &self.shared.board, &self.shared.obs);
        Ok(Some((sketch, QueryMode::Maintained(Box::new(report)))))
    }

    /// Run `f` on the first sketch stored for `template`, under the state
    /// lock (tests and inspection).
    pub(crate) fn with_sketch<R>(
        &self,
        template: &QueryTemplate,
        f: impl FnOnce(&StoredSketch) -> R,
    ) -> Option<R> {
        let state = self.shared.slot.state.lock();
        state.store.get(template).and_then(|v| v.first()).map(f)
    }

    /// Run `f` over the store under the state lock, after a
    /// [`Self::drain`] under the same hold, so `f` sees every earlier
    /// update maintained; with `publish_after`, republish after `f`.
    pub(crate) fn visit(
        &self,
        publish_after: bool,
        f: impl FnOnce(&mut Store, &Database) -> crate::Result<()>,
    ) -> crate::Result<()> {
        let mut state = self.drained(&mut Vec::new());
        let result = f(&mut state.store, &self.shared.db.read());
        if publish_after {
            publish(&mut state, &self.shared.board, &self.shared.obs);
        }
        result
    }

    /// Maintain every stale sketch on the calling thread: one sweep,
    /// which returns its first error once it is done.
    pub fn maintain_stale(&self) -> crate::Result<Vec<MaintReport>> {
        let mut reports = Vec::new();
        let state = self.shared.slot.state.lock();
        sweep(&self.shared, state, &mut reports).1?;
        Ok(reports)
    }

    /// Fire-and-forget sweep request (background ticks; nothing takes it
    /// without workers). Never blocks: while the workers are paused the
    /// request stays pending, and one of them takes it on resume.
    pub fn kick_maintenance(&self) {
        self.shared.wake.nudge();
    }

    /// Barrier on the calling thread: with workers, sweep here, so every
    /// earlier update is maintained when this returns, even while the
    /// workers are paused (errors go to [`Self::last_error`]). Returns
    /// the runs made here (0 without workers: queries maintain).
    pub fn drain(&self) -> usize {
        let mut reports = Vec::new();
        drop(self.drained(&mut reports));
        reports.len()
    }

    /// The state lock after a [`Self::drain`] under it.
    fn drained(&self, reports: &mut Vec<MaintReport>) -> MutexGuard<'_, ShardState> {
        let state = self.shared.slot.state.lock();
        if self.pool.is_empty() {
            return state;
        }
        sweep(&self.shared, state, reports).0
    }

    /// Park every worker once its current sweep ends; see
    /// [`PausedShards`].
    pub fn pause(&self) -> PausedShards {
        self.pool.pause()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintain::SketchMaintainer;
    use crate::middleware::capture::{capture_stored, choose_partitions};
    use crate::middleware::{Imp, ImpResponse, QueryMode};
    use crate::sched::shard::ShardWorker;
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

    /// Two workers, without a clock: no threads, two noted updates (each
    /// raising the wake signal, as `note_update` does), and one
    /// `work_once` of worker 1 run on this thread. Worker 0 never
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
        let shared = Arc::new(SchedShared::new(seed_db(), config.clone()));
        let db = &shared.db;
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
            shared.wake.nudge();
        }
        assert_eq!(shared.metrics.snapshot().per_shard[0].depth, 2);

        let workers: Vec<ShardWorker> = (0..2)
            .map(|_| ShardWorker::new(Arc::clone(&shared)))
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

    /// A stale query that loses the race for the state lock to a sweep
    /// finds its sketch current: it is answered as it is, with no run —
    /// no `imp_sched_maintain_runs` and no tracker maintenance record.
    #[test]
    fn a_current_sketch_is_answered_without_a_run() {
        let config = ImpConfig {
            fragments: 6,
            sched_workers: 0,
            ..ImpConfig::default()
        };
        let mut imp = Imp::new(seed_db(), config);
        imp.execute(Q).unwrap();
        imp.execute("INSERT INTO t VALUES (2, 500)").unwrap();
        imp.maintain_all_stale().unwrap(); // the sweep that won the race
        let sched = imp.scheduler().unwrap();
        let key = SketchKey::new(template_of(Q).text(), Q);
        let counts = || {
            (
                sched.stats().maintain_runs,
                sched.shared.tracker.get(&key).maint_runs,
            )
        };
        let before = counts();
        assert_eq!(before, (1, 1), "the sweep's run");

        let plan = imp.db().plan_sql(Q).unwrap();
        let answer = sched.maintain_sketch(&template_of(Q), &plan).unwrap();
        assert_eq!(counts(), before, "no run for a current sketch");
        let (sketch, mode) = answer.expect("the candidate is stored");
        assert!(matches!(mode, QueryMode::UsedFresh), "{mode:?}");
        let stored = imp.with_sketch(&template_of(Q), |e| e.maintainer.sketch().clone());
        assert_eq!(Some(&*sketch), stored.as_ref());
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
    /// one of two sketches loses its operator state (dropped without
    /// being marked evicted, so nothing recaptures it), so the aggregate
    /// reports a DELETE as
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

        let worker = ShardWorker::new(Arc::clone(&shared));
        assert!(worker.work_once(true));
        let error = imp.scheduler().unwrap().last_error();
        assert!(error.is_some(), "the failure was parked");
        assert!(error.unwrap().contains("state corrupt"), "a state error");
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

    /// An evicted sketch is recaptured from the database, as an exhausted
    /// MIN/MAX or top-k buffer is: the run reports `recaptured`, the
    /// answer equals the engine's, and the sketch equals a fresh capture
    /// on the final database (Thm. 6.1) — with no workers and with one,
    /// paused so that the stale query is the one that recaptures.
    #[test]
    fn an_evicted_sketch_is_recaptured_from_the_database() {
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
            assert!(entry.evicted.is_none(), "the state is back");
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

    /// Both recaptures of an aggregation over a scan, and over a join — a
    /// top-k buffer that underflows and an evicted sketch — group on the
    /// engine's group table, leave the accurate
    /// sketch (Thm. 6.1) and maintain on from there: every answer is the
    /// engine's.
    #[test]
    fn recaptures_of_an_aggregation_over_a_scan_group_on_the_group_table() {
        const OVER_SCAN: &str = "SELECT g, avg(v) AS a FROM t GROUP BY g ORDER BY g LIMIT 2";
        const OVER_JOIN: &str =
            "SELECT g, avg(v) AS a FROM t JOIN u ON (g = k) GROUP BY g ORDER BY g LIMIT 2";
        let mut joined = seed_db();
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("w", DataType::Int),
        ]);
        joined.create_table("u", schema).unwrap();
        let u = (0..6).map(|k| row![k, 10 * k]);
        joined.table_mut("u").unwrap().bulk_load(u).unwrap();
        for (db, topk) in [(seed_db(), OVER_SCAN), (joined, OVER_JOIN)] {
            recaptures_group_on_the_group_table(db, topk);
        }
    }

    fn recaptures_group_on_the_group_table(db: Database, topk: &str) {
        use crate::ops::aggregate::tests::TYPED_CAPTURES;
        let typed = || TYPED_CAPTURES.with(std::cell::Cell::get);
        let config = ImpConfig {
            fragments: 4,
            topk_buffer: Some(3),
            ..ImpConfig::default()
        };
        let mut imp = Imp::new(db, config);
        // An answer through `imp`, how it was made, and whether it is the
        // engine's and its sketch the accurate one.
        let answer = |imp: &mut Imp| {
            let ImpResponse::Rows { result, mode } = imp.execute(topk).unwrap() else {
                panic!("rows expected")
            };
            let engine = imp.db().query(topk).unwrap();
            assert_eq!(result.canonical(), engine.canonical(), "{topk}: {mode:?}");
            imp.scheduler()
                .unwrap()
                .with_sketch(&template_of(topk), |e| {
                    let accurate =
                        imp_sketch::capture(&e.plan, &imp.db(), e.maintainer.partitions()).unwrap();
                    assert_eq!(
                        e.maintainer.sketch().bits(),
                        accurate.sketch.bits(),
                        "{topk}: {mode:?}"
                    );
                })
                .expect("the sketch is stored");
            mode
        };
        let before = typed();
        assert!(matches!(answer(&mut imp), QueryMode::Captured));
        assert_eq!(typed(), before + 1, "the capture groups on the group table");

        // Groups 0 and 1 go: of the three buffered, one is left for k = 2.
        imp.execute("DELETE FROM t WHERE g < 2").unwrap();
        let QueryMode::Maintained(report) = answer(&mut imp) else {
            panic!("the stale query maintains")
        };
        assert!(report.recaptured, "the top-k buffer underflows");
        assert_eq!(typed(), before + 2);

        assert!(imp.evict_state(&template_of(topk)).unwrap() > 0);
        imp.execute("INSERT INTO t VALUES (0, 500)").unwrap();
        let QueryMode::Maintained(report) = answer(&mut imp) else {
            panic!("the stale query maintains")
        };
        assert!(report.recaptured, "the state was evicted");
        assert_eq!(typed(), before + 3);

        // Maintained from the recaptured state, no recapture.
        for update in ["INSERT INTO t VALUES (1, 7)", "DELETE FROM t WHERE v = 500"] {
            imp.execute(update).unwrap();
            let QueryMode::Maintained(report) = answer(&mut imp) else {
                panic!("the stale query maintains")
            };
            assert!(!report.recaptured, "{topk}: {update}");
        }
        assert_eq!(typed(), before + 3);
    }
}
