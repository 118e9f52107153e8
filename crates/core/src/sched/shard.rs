//! Workers: background threads that sweep the store's stale sketches.
//!
//! A worker's loop reads the messages on its own channel — sweep nudges
//! (an update's, or the fire-and-forget one of
//! [`crate::Scheduler::kick_maintenance`]), pause and stop — and then
//! sweeps when asked to or when updates were noted since the last sweep
//! began. Nothing else travels on the channel: every other control — a
//! capture, a stale query's maintenance, inspection, admin and advisor
//! passes, drains — runs on the calling thread under the store's state
//! lock, the way a sweep does.
//!
//! A **sweep** ([`sweep`]) maintains every stale [`Lifecycle::Maintained`]
//! sketch through the fetching path, one sketch at a time, handing the
//! state lock to a waiting stale query between two sketches. A sketch
//! brings itself current from its own version, so updates that arrived
//! while the workers were busy or parked fold into one run per sketch
//! (the paper's batched-eager maintenance). With several workers, all
//! sweep the one store and take turns on the one state lock.
//!
//! When nothing is noted the worker blocks on its channel with a short
//! timeout (`IDLE_WAIT`) — nudges make a sweep prompt, the timeout is
//! only the safety net for a dropped nudge.
//!
//! Workers never take the middleware lock — they share the database via
//! `Arc<RwLock<Database>>` read guards and publish results as immutable
//! snapshots (see [`crate::sched::snapshot`]).

use crate::advisor::Lifecycle;
use crate::maintain::MaintReport;
use crate::middleware::{maintain_entry, stored_heap_size, StoredSketch};
use crate::obs::Obs;
use crate::ops::DbAccess;
use crate::sched::snapshot::{PublishedSketch, SnapshotBoard};
use crate::sched::store::{SchedShared, ShardState};
use crate::Result;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use imp_engine::Database;
use imp_sql::QueryTemplate;
use parking_lot::MutexGuard;
use std::sync::Arc;
use std::time::Duration;

/// Idle block on the message channel: the safety net behind nudges.
const IDLE_WAIT: Duration = Duration::from_millis(20);

/// Messages a worker understands: only work that must run on the
/// worker's own thread. No message carries a result back: every control
/// with a result runs on its caller's thread. (`Pause`'s ack only
/// confirms that the worker is parked.)
pub(crate) enum ShardMsg {
    /// Sweep the store (an update's nudge or a background tick); errors
    /// are parked in the store's sticky `last_error`.
    Sweep,
    /// Park the worker until `resume` yields (or its sender drops).
    Pause {
        /// Acked once parked.
        ack: Sender<()>,
        /// Unparks the worker.
        resume: Receiver<()>,
    },
    /// Exit the worker loop.
    Stop,
}

/// One worker (runs on its own thread; `id` labels its heartbeat).
pub(crate) struct ShardWorker {
    id: usize,
    rx: Receiver<ShardMsg>,
    shared: Arc<SchedShared>,
}

impl ShardWorker {
    pub(crate) fn new(id: usize, rx: Receiver<ShardMsg>, shared: Arc<SchedShared>) -> ShardWorker {
        ShardWorker { id, rx, shared }
    }

    /// The worker loop: messages → sweep → idle block.
    pub(crate) fn run(self) {
        loop {
            // Liveness heartbeat: the health watchdogs compare these gauges
            // across ticks — all frozen while updates wait means the
            // workers are wedged.
            self.shared.metrics.beat(self.id);
            let mut next = self.rx.try_recv().ok();
            if next.is_none() && !self.shared.metrics.pending() {
                // Idle: block until a message or the safety net fires.
                next = match self.rx.recv_timeout(IDLE_WAIT) {
                    Ok(msg) => Some(msg),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => return,
                };
            }
            let mut asked = false;
            while let Some(msg) = next {
                match msg {
                    ShardMsg::Sweep => asked = true,
                    ShardMsg::Pause { ack, resume } => {
                        let _ = ack.send(());
                        let _ = resume.recv(); // parked until resumed (or dropped)
                    }
                    ShardMsg::Stop => return,
                }
                next = self.rx.try_recv().ok();
            }
            self.work_once(asked);
        }
    }

    /// Sweep on this thread when `asked` or when updates were noted since
    /// the last sweep began; errors are parked in `last_error`. Returns
    /// `false` when there was no reason to sweep.
    pub(crate) fn work_once(&self, asked: bool) -> bool {
        if !asked && !self.shared.metrics.pending() {
            return false;
        }
        let state = self.shared.slot.state.lock();
        let _ = sweep(&self.shared, state, &mut Vec::new());
        true
    }
}

/// Is `entry` one a sweep maintains: fully maintained, and stale?
/// Advisor-demoted sketches wait for a query that needs them (the delta
/// log keeps their records; vacuum horizons respect every stored sketch's
/// maintained version).
fn due(entry: &StoredSketch, db: &Database) -> bool {
    entry.lifecycle == Lifecycle::Maintained && entry.maintainer.is_stale(db)
}

/// One sweep over the store, on the held state lock: every stale
/// [`Lifecycle::Maintained`] sketch is brought current through the
/// fetching path, one at a time, and its report pushed to `reports`.
/// Free function so a worker and a caller run the identical pass.
///
/// Each run fetches its delta under a short database read lock and keeps
/// the lock only if its operators probe a base table (see
/// [`crate::maintain::SketchMaintainer::maintain`]), so an update
/// statement does not wait for a run that never reads a table.
///
/// Between two sketches the store is published, so a query reading the
/// snapshot finds what is done fresh, and the lock goes to a waiting
/// stale query ([`crate::sched::store::ShardSlot::hand_over`]): the
/// query waits for at most the one sketch run in progress. A capture may
/// evict a candidate in that gap, so the sweep finds its sketches by
/// (template, SQL) after each hand-over, and skips one that is no longer
/// due. A sketch whose run fails does not stop the sweep: its error is
/// parked in the store's sticky `last_error`, and the first one is
/// returned with the lock once the sweep is done.
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
/// cost proportional to what changed since the last one: every entry
/// keeps what it last published, so an entry whose maintained version
/// (and partition set) did not move republishes the same
/// `Arc<SketchSet>` — only a changed sketch clones its bits, once — the
/// plan/SQL/tables are `Arc`-wrapped once per sketch, and `state_bytes`
/// is an O(1) read of running totals. Free function so whoever holds the
/// state lock — a worker or a caller — publishes it.
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
    let count = sketches.len();
    let epoch = board.publish(sketches);
    obs.flight().record(crate::obs::FlightEvent::Published {
        sketches: count as u64,
        epoch,
    });
}
