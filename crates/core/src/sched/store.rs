//! The sketch store's shared state: the state lock, the hand-over to a
//! waiting stale query, and the worker nudges.
//!
//! * **[`ShardSlot`]** — the lockable [`ShardState`] (the sketch store).
//!   Whoever holds the state lock may work on the store — any worker, or
//!   a caller. Nothing about an update is queued: a writer only counts
//!   its update ([`crate::metrics::SchedMetrics::noted`]) and nudges a
//!   worker, and a sweep fetches each stale sketch's delta from the log,
//!   from that sketch's own version. So however sweeps and stale queries
//!   take turns on the lock, every sketch consumes its delta stream in
//!   version order, and the split-invariant arithmetic keeps the bits
//!   byte-identical (the `sched_differential` suite proves it).
//! * **Hand-over** — a sweep maintains its sketches one at a time. When a
//!   stale query waits for the state lock ([`ShardSlot::lock_for_query`]),
//!   the sweep hands the lock over between two sketches and takes it back
//!   once the query is done, so a stale query waits for at most the one
//!   sketch run in progress, not for the whole sweep.
//!
//! Lock order (no cycles): `state → db.read`. No thread waits for the
//! state lock while it holds the database lock, and a sweep handing over
//! holds no lock while it waits.

use crate::advisor::WorkloadTracker;
use crate::metrics::SchedMetrics;
use crate::middleware::{ImpConfig, Store};
use crate::obs::Obs;
use crate::sched::shard::ShardMsg;
use crate::sched::snapshot::SnapshotBoard;
use crossbeam::channel::Sender;
use imp_engine::Database;
use parking_lot::{Mutex, MutexGuard, RwLock};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// The lockable sketch store. Every access — a caller's control, a
/// query's maintenance, a worker's sweep — goes through the
/// [`ShardSlot::state`] lock, so none races another.
#[derive(Default)]
pub(crate) struct ShardState {
    /// Template → stored candidates.
    pub(crate) store: Store,
    /// Sticky last error of maintenance no caller waited for (background
    /// sweeps); see [`crate::Scheduler::last_error`].
    pub(crate) last_error: Option<String>,
}

/// The store's one shard: the lockable state.
#[derive(Default)]
pub(crate) struct ShardSlot {
    /// The store; holding it grants the right to work on it.
    pub(crate) state: Mutex<ShardState>,
    /// Stale queries waiting for [`Self::state`].
    pub(crate) waiting: AtomicUsize,
    /// Times a stale query took [`Self::state`] (a hand-over's signal).
    handed_over: AtomicU64,
}

impl ShardSlot {
    /// The state lock for a stale query: counted in [`Self::waiting`]
    /// until it is held, so a sweep in progress hands the lock over at its
    /// next sketch ([`Self::hand_over`]).
    pub(crate) fn lock_for_query(&self) -> MutexGuard<'_, ShardState> {
        self.waiting.fetch_add(1, Ordering::SeqCst);
        let state = self.state.lock();
        self.waiting.fetch_sub(1, Ordering::SeqCst);
        self.handed_over.fetch_add(1, Ordering::SeqCst);
        state
    }

    /// Between two sketches of a sweep: when a stale query waits, release
    /// the lock until the query holds it, and lock again — which waits for
    /// the query's run to finish.
    pub(crate) fn hand_over<'a>(
        &'a self,
        state: MutexGuard<'a, ShardState>,
    ) -> MutexGuard<'a, ShardState> {
        if self.waiting.load(Ordering::SeqCst) == 0 {
            return state;
        }
        let handed_over = self.handed_over.load(Ordering::SeqCst);
        drop(state);
        while self.handed_over.load(Ordering::SeqCst) == handed_over {
            std::thread::yield_now();
        }
        self.state.lock()
    }
}

/// State shared by the scheduler facade and every worker: everything a
/// sweep needs, whichever thread runs it.
pub(crate) struct SchedShared {
    /// The store.
    pub(crate) slot: ShardSlot,
    /// The backend database (read-locked per fetch, and per run that reads
    /// a base table).
    pub(crate) db: Arc<RwLock<Database>>,
    /// Middleware configuration (operator knobs).
    pub(crate) config: ImpConfig,
    /// Published sketch snapshots.
    pub(crate) board: Arc<SnapshotBoard>,
    /// Workload tracker (maintenance costs, template evictions).
    pub(crate) tracker: Arc<WorkloadTracker>,
    /// Shared scheduler counters.
    pub(crate) metrics: Arc<SchedMetrics>,
    /// Observability hub (spans, latency histograms, flight recorder).
    pub(crate) obs: Arc<Obs>,
    /// Worker channel senders, for nudges (set once after spawn).
    wakers: OnceLock<Vec<Sender<ShardMsg>>>,
    /// Round-robin cursor for [`SchedShared::nudge`].
    next_wake: AtomicUsize,
}

impl SchedShared {
    /// An empty store over `db`, with the scheduler counters of
    /// `config.sched_workers` workers registered in `obs`'s registry.
    pub(crate) fn new(
        db: Arc<RwLock<Database>>,
        config: &ImpConfig,
        tracker: Arc<WorkloadTracker>,
        obs: Arc<Obs>,
    ) -> SchedShared {
        SchedShared {
            slot: ShardSlot::default(),
            db,
            config: config.clone(),
            board: Arc::new(SnapshotBoard::new()),
            tracker,
            metrics: Arc::new(SchedMetrics::registered(
                config.sched_workers,
                obs.registry(),
            )),
            obs,
            wakers: OnceLock::new(),
            next_wake: AtomicUsize::new(0),
        }
    }

    /// Install the workers' channel senders (once, right after spawn).
    pub(crate) fn set_wakers(&self, wakers: Vec<Sender<ShardMsg>>) {
        let _ = self.wakers.set(wakers);
    }

    /// Ask one worker, round-robin, to sweep, without blocking: dropped
    /// when that worker's message queue is full — a sweep already queued
    /// covers this one, and a worker sweeps noted updates anyway.
    pub(crate) fn nudge(&self) {
        let Some(wakers) = self.wakers.get().filter(|w| !w.is_empty()) else {
            return;
        };
        let next = self.next_wake.fetch_add(1, Ordering::Relaxed) % wakers.len();
        let _ = wakers[next].try_send(ShardMsg::Sweep);
    }
}
