//! Workers: background threads that claim maintenance work from the
//! store's one inbox.
//!
//! A worker's loop alternates between two duties:
//!
//! 1. **Messages** on its own channel: wake nudges, the fire-and-forget
//!    stale sweep of [`crate::Scheduler::kick_maintenance`], pause and
//!    stop. Nothing else travels here: every other control — a capture's
//!    hand-over, a stale query's maintenance, inspection, admin and
//!    advisor passes, drains — runs on the calling thread under the
//!    store's state lock, the way a claim does.
//! 2. **Claims** — claim a coalesced whole-batch prefix of the inbox (see
//!    `crate::sched::inbox`) and run one maintenance pass over it, one
//!    sketch at a time, handing the state lock to a waiting stale query
//!    between two sketches. Routed batches gathered for the same table
//!    **coalesce** into one run per sketch (the paper's batched-eager
//!    maintenance), bounded by
//!    [`crate::middleware::ImpConfig::coalesce_budget`]. With several
//!    workers, all claim from the one inbox and take turns on the one
//!    state lock.
//!
//! When the inbox is empty the worker blocks on its channel with a short
//! timeout (`IDLE_WAIT`) — wake nudges make routed work prompt, the
//! timeout is only the safety net for lost nudges.
//!
//! Workers never take the middleware lock — they share the database via
//! `Arc<RwLock<Database>>` read guards and publish results as immutable
//! snapshots (see [`crate::sched::snapshot`]).

use crate::advisor::Lifecycle;
use crate::maintain::MaintReport;
use crate::middleware::{
    maintain_entry, record_run, restore_if_evicted, retain_version, stored_heap_size, Store,
    StoredSketch,
};
use crate::obs::{trace, Obs, ObsEvent};
use crate::ops::DbAccess;
use crate::sched::inbox::{ClaimInFlight, SchedShared, ShardState};
use crate::sched::router::TableDelta;
use crate::sched::snapshot::{PublishedSketch, SnapshotBoard};
use crate::Result;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use imp_sql::QueryTemplate;
use imp_storage::FxHashMap;
use parking_lot::MutexGuard;
use std::sync::Arc;
use std::time::Duration;

/// Idle block on the message channel: the safety net behind wake nudges.
const IDLE_WAIT: Duration = Duration::from_millis(20);

/// Messages a worker understands: only work that must run on the
/// worker's own thread. Routed deltas travel through the shared inbox
/// (`crate::sched::inbox`), and no message carries a result back: every
/// control with a result runs on its caller's thread. (`Pause`'s ack
/// only confirms that the worker is parked.)
pub(crate) enum ShardMsg {
    /// Nudge: queued work may exist (staged ingest or a routed batch).
    Wake,
    /// Maintain every stale sketch (background ticks); an error is parked
    /// in the store's sticky `last_error`.
    MaintainStale,
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

    /// The worker loop: messages → claims → idle block.
    pub(crate) fn run(self) {
        loop {
            // Liveness heartbeat: the health watchdogs compare these gauges
            // across ticks — all frozen while the inbox is non-empty means
            // the workers are wedged.
            self.shared.metrics.beat(self.id);
            let mut stop = false;
            while let Ok(msg) = self.rx.try_recv() {
                if self.handle(msg) {
                    stop = true;
                    break;
                }
            }
            if !stop {
                // One unit of maintenance work.
                if self.work_once() {
                    continue;
                }
                // Idle: block until a message or the safety net fires.
                stop = match self.rx.recv_timeout(IDLE_WAIT) {
                    Ok(msg) => self.handle(msg),
                    Err(RecvTimeoutError::Timeout) => false,
                    Err(RecvTimeoutError::Disconnected) => true,
                };
            }
            if stop {
                // Work queued before Stop is flushed before the thread
                // exits.
                while self.claim() {}
                break;
            }
        }
    }

    /// Handle one message; `true` = stop.
    fn handle(&self, msg: ShardMsg) -> bool {
        match msg {
            ShardMsg::Wake => false,
            ShardMsg::MaintainStale => {
                // The sweep parks its error in `last_error` itself.
                let _ = maintain_stale(&self.shared, &mut Vec::new());
                false
            }
            ShardMsg::Pause { ack, resume } => {
                let _ = ack.send(());
                let _ = resume.recv(); // parked until resumed (or dropped)
                false
            }
            ShardMsg::Stop => true,
        }
    }

    /// One unit of work: staged ingest, then a claim. Returns `false`
    /// when there was nothing to claim.
    pub(crate) fn work_once(&self) -> bool {
        if !self.shared.staging_is_empty() {
            self.shared.ingest(None);
        }
        self.claim()
    }

    /// Claim and process one coalesced batch group from the inbox. Blocks
    /// on the state lock: under contention the lock serializes claims, so
    /// claimants interleave whole claims in inbox order. Returns `false`
    /// when the inbox was empty or another claim is in flight.
    fn claim(&self) -> bool {
        if !self.shared.has_work() {
            return false;
        }
        let _span = self.shared.obs.span("shard_claim");
        let state = self.shared.slot.state.lock();
        self.shared.claim_and_run(state, self.id)
    }
}

/// Maintain every stale [`Lifecycle::Maintained`] sketch through the
/// fetching path, on the calling thread, and republish if anything
/// changed; advisor-demoted sketches wait for a query that needs them.
/// Any routed batch still queued for a maintained sketch becomes a
/// version-filtered no-op. Stops at the first error, which is also parked
/// in the store's sticky `last_error`.
pub(crate) fn maintain_stale(shared: &SchedShared, reports: &mut Vec<MaintReport>) -> Result<()> {
    let mut state = shared.slot.lock_settled();
    let before = reports.len();
    let result = sweep_stale(shared, &mut state.store, reports);
    if let Err(e) = &result {
        state.last_error = Some(e.to_string());
    }
    if result.is_err() || reports.len() > before {
        publish(&mut state, &shared.board, &shared.obs);
    }
    result
}

fn sweep_stale(
    shared: &SchedShared,
    store: &mut Store,
    reports: &mut Vec<MaintReport>,
) -> Result<()> {
    let db = shared.db.read();
    for (template, entries) in store.iter_mut() {
        let stale = |e: &&mut StoredSketch| {
            e.lifecycle == Lifecycle::Maintained && e.maintainer.is_stale(&db)
        };
        for entry in entries.iter_mut().filter(stale) {
            let _span = shared.obs.span("maintain_stale");
            let (config, obs, tracker) = (&shared.config, &shared.obs, &shared.tracker);
            reports.push(maintain_entry(entry, template, &db, config, obs, tracker)?);
            shared.metrics.maintain_runs.inc();
        }
    }
    Ok(())
}

/// One maintenance run over a claim's coalesced routed batches, one
/// sketch at a time, on the held state lock. Sketches the advisor
/// demoted below [`Lifecycle::Maintained`] are skipped — they are
/// brought current on demand by the next query that needs them (the
/// delta log keeps their records; vacuum horizons respect every stored
/// sketch's maintained version). The claim carries its deltas, so the
/// database is read-locked per sketch and only from that sketch's first
/// base-table read ([`DbAccess`]): an update statement does not wait for
/// a claim that never reads a table. Free function so a worker and a
/// draining caller run the identical pass.
///
/// Between two sketches the store is published, so a query reading the
/// snapshot finds what is done fresh, and the lock goes to a waiting
/// stale query ([`crate::sched::inbox::ShardSlot::hand_over`]): the
/// query waits for at most the one sketch run in progress. A capture may
/// evict a candidate in that gap, so the claim finds its sketches by
/// (template, SQL) after each hand-over. A sketch with no routed record
/// past its version — the query maintained it meanwhile, or overtook the
/// queue before the claim — is not run. Returns the lock, with the claim
/// no longer in flight.
pub(crate) fn run_claim<'a>(
    shared: &'a SchedShared,
    mut state: MutexGuard<'a, ShardState>,
    routed: &FxHashMap<String, Vec<Arc<TableDelta>>>,
) -> MutexGuard<'a, ShardState> {
    // A sketch the claim would only version-filter (a query overtook the
    // queue) is left alone: its run would change nothing.
    let pending = |entry: &StoredSketch| {
        let version = entry.maintainer.version();
        let newer = |t: &String| {
            routed
                .get(t)
                .into_iter()
                .flatten()
                .any(|b| b.to_version > version)
        };
        entry.lifecycle == Lifecycle::Maintained && entry.maintainer.tables().iter().any(newer)
    };
    let sketches: Vec<(QueryTemplate, String)> = (state.store.iter())
        .flat_map(|(template, entries)| {
            let pending = entries.iter().filter(|e| pending(e));
            pending.map(|e| (template.clone(), e.sql.clone()))
        })
        .collect();
    let (config, obs, tracker) = (&shared.config, &shared.obs, &shared.tracker);
    let _in_flight = ClaimInFlight(&shared.slot.claim_in_flight);
    for (i, (template, sql)) in sketches.iter().enumerate() {
        if i > 0 {
            // What is done is published before a query may take over.
            publish(&mut state, &shared.board, obs);
            state = shared.slot.hand_over(state);
        }
        let ShardState {
            store, last_error, ..
        } = &mut *state;
        let entries = store.get_mut(template).into_iter().flatten();
        let Some(entry) = entries.filter(|e| pending(e)).find(|e| e.sql == *sql) else {
            continue; // maintained, evicted or demoted during a hand-over
        };
        let _span = trace::span("maintain_routed");
        let from_version = entry.maintainer.version();
        let mut run = || -> Result<MaintReport> {
            restore_if_evicted(entry)?;
            let report = entry
                .maintainer
                .maintain_from(&DbAccess::shared(&shared.db), routed)?;
            retain_version(entry, config.retain_sketch_versions);
            Ok(report)
        };
        match run() {
            Ok(report) => {
                shared.metrics.maintain_runs.inc();
                record_run(entry, template, &report, from_version, obs, tracker);
            }
            Err(e) => *last_error = Some(e.to_string()),
        }
    }
    state
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
    obs.emit(|| ObsEvent::SnapshotPublish { sketches: count });
    let epoch = board.publish(sketches);
    obs.flight().record(crate::obs::FlightEvent::Published {
        sketches: count as u64,
        epoch,
    });
}
