//! Workers, and the sweep that they and callers run.
//!
//! A worker waits on the pool's one wake signal
//! ([`crate::sched::pool::Wake`]) and sweeps each time it takes a sweep
//! request — an update's, or [`crate::Scheduler::kick_maintenance`]'s.
//! Every other control runs on the calling thread under the state lock.
//! A **sweep** ([`sweep`]) brings every stale sketch current from its own
//! version, so updates that arrived while the workers were busy or parked
//! fold into one run per sketch (the paper's batched-eager maintenance).
//! Workers never take the middleware lock: they read the database under
//! short read locks and publish immutable snapshots
//! ([`crate::sched::snapshot`]).

use crate::advisor::Lifecycle;
use crate::maintain::MaintReport;
use crate::middleware::{maintain_entry, stored_heap_size, StoredSketch};
use crate::obs::Obs;
use crate::ops::DbAccess;
use crate::sched::snapshot::{PublishedSketch, SnapshotBoard};
use crate::sched::store::{SchedShared, ShardState};
use crate::Result;
use imp_engine::Database;
use imp_sql::QueryTemplate;
use parking_lot::MutexGuard;
use std::sync::Arc;

/// One worker (runs on its own thread).
pub(crate) struct ShardWorker {
    shared: Arc<SchedShared>,
}

impl ShardWorker {
    pub(crate) fn new(shared: Arc<SchedShared>) -> ShardWorker {
        ShardWorker { shared }
    }

    /// The worker loop: take a sweep request, sweep, until the pool stops.
    pub(crate) fn run(self) {
        while self.shared.wake.next_sweep() {
            self.work_once(true);
        }
    }

    /// Sweep when `asked` or when a sweep request is pending (taking it);
    /// `false` when there was no reason to sweep.
    pub(crate) fn work_once(&self, asked: bool) -> bool {
        if !asked && !self.shared.wake.take() {
            return false;
        }
        let state = self.shared.slot.state.lock();
        let _ = sweep(&self.shared, state, &mut Vec::new());
        true
    }
}

impl Drop for ShardWorker {
    /// A pause no longer waits for a worker whose thread ended.
    fn drop(&mut self) {
        self.shared.wake.gone();
    }
}

/// Is `entry` one a sweep maintains: fully maintained, and stale?
/// Advisor-demoted sketches wait for a query that needs them.
fn due(entry: &StoredSketch, db: &Database) -> bool {
    entry.lifecycle == Lifecycle::Maintained && entry.maintainer.is_stale(db)
}

/// One sweep over the store, on the held state lock: every stale
/// [`Lifecycle::Maintained`] sketch is brought current through the
/// fetching path, one at a time, and its report pushed to `reports`.
/// A worker and a caller run the identical pass. A run keeps the database
/// read lock past its fetch only if its operators probe a base table
/// (see [`crate::maintain::SketchMaintainer::maintain`]).
///
/// Between two sketches the store is published and the lock goes to a
/// waiting stale query ([`crate::sched::store::ShardSlot::hand_over`]).
/// A capture may evict a candidate in that gap, so the sweep finds its
/// sketches by (template, SQL) and skips one that is no longer due. A
/// failing run does not stop the sweep: its error is parked in
/// `last_error`, and the first one is returned with the lock.
pub(crate) fn sweep<'a>(
    shared: &'a SchedShared,
    mut state: MutexGuard<'a, ShardState>,
    reports: &mut Vec<MaintReport>,
) -> (MutexGuard<'a, ShardState>, Result<()>) {
    shared.metrics.swept();
    let stale: Vec<(QueryTemplate, String)> = {
        let db = shared.db.read();
        (state.store.iter())
            .flat_map(|(template, entries)| {
                let stale = entries.iter().filter(|e| due(e, &db));
                stale.map(|e| (template.clone(), e.sql.clone()))
            })
            .collect()
    };
    let (config, obs, tracker) = (&shared.config, &shared.obs, &shared.tracker);
    let mut first_error = None;
    for (i, (template, sql)) in stale.iter().enumerate() {
        if i > 0 {
            // What is done is published before a query may take over.
            publish(&mut state, &shared.board, obs);
            state = shared.slot.hand_over(state);
        }
        let ShardState { store, last_error } = &mut *state;
        let mut entries = store.get_mut(template).into_iter().flatten();
        let Some(entry) = entries.find(|e| e.sql == *sql) else {
            continue; // evicted during a hand-over
        };
        if !due(entry, &shared.db.read()) {
            continue; // maintained or demoted during a hand-over
        }
        let _span = obs.span("maintain_stale");
        let db = DbAccess::shared(&shared.db);
        match maintain_entry(entry, template, &db, config, obs, tracker) {
            Ok(report) => {
                shared.metrics.maintain_runs.inc();
                reports.push(report);
            }
            Err(e) => {
                *last_error = Some(e.to_string());
                first_error.get_or_insert(e);
            }
        }
    }
    if !stale.is_empty() {
        publish(&mut state, &shared.board, obs);
    }
    (state, first_error.map_or(Ok(()), Err))
}

/// Publish the store's current sketches as an immutable snapshot, at a
/// cost proportional to what changed: every entry keeps what it last
/// published, so an entry whose version and partitions did not move
/// republishes the same `Arc<SketchSet>`, and `state_bytes` is an O(1)
/// read of running totals. Whoever holds the state lock publishes.
pub(crate) fn publish(state: &mut ShardState, board: &SnapshotBoard, obs: &Obs) {
    let _span = obs.span("snapshot_publish");
    let sketches: Vec<PublishedSketch> = state
        .store
        .iter_mut()
        .flat_map(|(template, entries)| {
            entries.iter_mut().map(|e| {
                let (version, state_bytes) = (e.maintainer.version(), stored_heap_size(e));
                let live = e.maintainer.sketch();
                let p = e.published.get_or_insert_with(|| PublishedSketch {
                    template: template.clone(),
                    sql: Arc::from(e.sql.as_str()),
                    plan: Arc::new(e.plan.clone()),
                    tables: e.maintainer.tables().to_vec().into(),
                    sketch: Arc::new(live.clone()),
                    version,
                    lifecycle: e.lifecycle,
                    state_bytes,
                });
                if p.version != version || !Arc::ptr_eq(p.sketch.partitions(), live.partitions()) {
                    p.sketch = Arc::new(live.clone());
                    p.version = version;
                }
                (p.lifecycle, p.state_bytes) = (e.lifecycle, state_bytes);
                p.clone()
            })
        })
        .collect();
    board.publish(sketches);
}
