//! The sketch store's shared state: the state lock and the hand-over to
//! a waiting stale query.
//!
//! * **[`ShardSlot`]** — the lockable [`ShardState`]. Whoever holds the
//!   state lock may work on the store, a worker or a caller. A sweep
//!   fetches each stale sketch's delta from the log, from that sketch's
//!   own version, so whoever takes the lock, every sketch consumes its
//!   delta stream in version order.
//! * **Hand-over** — when a stale query waits for the state lock
//!   ([`ShardSlot::lock_for_query`]), a sweep hands the lock over between
//!   two sketches, so the query waits for at most the one sketch run in
//!   progress, not for the whole sweep.
//!
//! Lock order (no cycles): `state → db.read`.

use crate::advisor::WorkloadTracker;
use crate::metrics::SchedMetrics;
use crate::middleware::{ImpConfig, Store};
use crate::obs::Obs;
use crate::sched::pool::Wake;
use crate::sched::snapshot::SnapshotBoard;
use imp_engine::Database;
use parking_lot::{Mutex, MutexGuard, RwLock};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// The lockable sketch store: every access goes through the
/// [`ShardSlot::state`] lock.
#[derive(Default)]
pub(crate) struct ShardState {
    /// Template → stored candidates.
    pub(crate) store: Store,
    /// See [`crate::Scheduler::last_error`].
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

/// The store's one context: everything a run, a capture or a control
/// needs, whichever thread runs it. [`crate::middleware::Imp`] reads the
/// database, its configuration and the obs hub from here too.
pub(crate) struct SchedShared {
    /// The store.
    pub(crate) slot: ShardSlot,
    /// The backend database.
    pub(crate) db: RwLock<Database>,
    /// Middleware configuration (operator knobs).
    pub(crate) config: ImpConfig,
    /// Published sketch snapshots.
    pub(crate) board: Arc<SnapshotBoard>,
    /// Workload tracker (uses, maintenance costs, template evictions).
    pub(crate) tracker: Arc<WorkloadTracker>,
    /// Scheduler counters.
    pub(crate) metrics: SchedMetrics,
    /// Observability hub (spans, latency histograms).
    pub(crate) obs: Arc<Obs>,
    /// The workers' one wake signal (sweep requests, pause, stop).
    pub(crate) wake: Wake,
}

impl SchedShared {
    /// An empty store over `db`, with the obs hub `config.obs` asks for
    /// and the scheduler counters registered in its registry.
    pub(crate) fn new(
        db: Database,
        config: ImpConfig,
        tracker: Arc<WorkloadTracker>,
    ) -> SchedShared {
        let obs = Obs::new(&config.obs);
        SchedShared {
            slot: ShardSlot::default(),
            db: RwLock::new(db),
            config,
            board: Arc::new(SnapshotBoard::new()),
            tracker,
            metrics: SchedMetrics::registered(obs.registry()),
            obs,
            wake: Wake::default(),
        }
    }
}
