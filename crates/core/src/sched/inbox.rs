//! The sketch store's inbox, the async-ingest staging queue, and claims.
//!
//! Routed deltas live in *shared* state, not in a worker's private
//! channel:
//!
//! * **[`ShardSlot`]** — the FIFO `inbox` of routed [`TableDelta`]
//!   batches plus the lockable [`ShardState`] (the sketch store). Whoever
//!   holds the state lock may *claim* a coalesced prefix of the inbox and
//!   run maintenance — any worker, or a caller draining the store. Claims
//!   are serialized by the state lock and always take a version-ordered
//!   whole-batch prefix, so however claims move between threads, every
//!   sketch consumes its delta stream in exactly the sequential order —
//!   the split-invariant arithmetic keeps the bits byte-identical (the
//!   `sched_differential` suite proves it).
//! * **Async ingest** — [`SchedShared::stage`] appends the updated
//!   table's name to a bounded staging queue and returns immediately:
//!   the writer does not pay for log collection. Workers and drains empty
//!   the staging queue through [`SchedShared::ingest`], which collects
//!   and pushes **under one router hold** so inbox pushes happen in
//!   global collect order — the ordering claims rely on. A full staging
//!   queue falls back to inline ingestion on the writer's thread (counted
//!   as a backpressure stall), which keeps the update path live even
//!   while every worker is paused.
//! * **Hand-over** — a claim maintains its sketches one at a time. When a
//!   stale query waits for the state lock ([`ShardSlot::lock_for_query`]),
//!   the claimant hands the lock over between two sketches and takes it
//!   back once the query is done, so a stale query waits for at most the
//!   one sketch run in progress, not for the whole claim. The claim stays
//!   *in flight* meanwhile: no other claim starts, and drains, visits and
//!   sweeps wait it out ([`ShardSlot::lock_settled`]), so every sketch
//!   still consumes routed batches in inbox order.
//!
//! Lock order (no cycles): `router → db.read → staging/inbox` on the
//! ingest side, `state → inbox` on the claim side, `state → db.read`
//! while maintaining. No thread waits for the state lock while it holds
//! the database lock, and a claimant handing over holds no lock while it
//! waits.

use crate::advisor::WorkloadTracker;
use crate::metrics::SchedMetrics;
use crate::middleware::{ImpConfig, Store};
use crate::obs::{Obs, ObsEvent};
use crate::sched::router::{DeltaRouter, TableDelta};
use crate::sched::shard::{publish, run_claim, ShardMsg};
use crate::sched::snapshot::SnapshotBoard;
use crossbeam::channel::Sender;
use imp_engine::Database;
use imp_storage::FxHashMap;
use parking_lot::{Mutex, MutexGuard, RwLock};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// The lockable sketch store. Every access — a caller's control, a
/// query's claim, a worker's routed claim — goes through the
/// [`ShardSlot::state`] lock, so none races another.
#[derive(Default)]
pub(crate) struct ShardState {
    /// Template → stored candidates.
    pub(crate) store: Store,
    /// Sticky last error of maintenance no caller waited for (routed
    /// claims, background sweeps); see [`crate::Scheduler::last_error`].
    pub(crate) last_error: Option<String>,
}

/// The store's one shard: the routed-delta inbox plus the claimable state.
#[derive(Default)]
pub(crate) struct ShardSlot {
    /// FIFO of routed batches, in global collect order (pushes happen
    /// under the router lock). `inbox empty && state lock held && no
    /// claim in flight` ⇒ no batch is in flight.
    inbox: Mutex<VecDeque<Arc<TableDelta>>>,
    /// The store; holding it grants the right to claim.
    pub(crate) state: Mutex<ShardState>,
    /// A claim handed [`Self::state`] to a stale query between two of its
    /// sketches and has sketches left: no other claim may start. Set and
    /// cleared under the lock; an atomic so that a claim which panics
    /// still clears it ([`ClaimInFlight`]).
    pub(crate) claim_in_flight: AtomicBool,
    /// Stale queries waiting for [`Self::state`].
    pub(crate) waiting: AtomicUsize,
    /// Times a stale query took [`Self::state`] (a hand-over's signal).
    handed_over: AtomicU64,
}

impl ShardSlot {
    /// The state lock for a stale query: counted in [`Self::waiting`]
    /// until it is held, so a claim in progress hands the lock over at its
    /// next sketch ([`Self::hand_over`]).
    pub(crate) fn lock_for_query(&self) -> MutexGuard<'_, ShardState> {
        self.waiting.fetch_add(1, Ordering::SeqCst);
        let state = self.state.lock();
        self.waiting.fetch_sub(1, Ordering::SeqCst);
        self.handed_over.fetch_add(1, Ordering::SeqCst);
        state
    }

    /// The state lock with no claim in flight: a drain, visit or sweep
    /// waits out a claim that handed the lock to a query, and so never
    /// overtakes the claim's routed batches.
    pub(crate) fn lock_settled(&self) -> MutexGuard<'_, ShardState> {
        loop {
            let state = self.state.lock();
            if !self.claim_in_flight.load(Ordering::SeqCst) {
                return state;
            }
            drop(state);
            std::thread::yield_now();
        }
    }

    /// Between two sketches of a claim: when a stale query waits, mark the
    /// claim in flight, release the lock until the query holds it, and
    /// lock again — which waits for the query's run to finish.
    pub(crate) fn hand_over<'a>(
        &'a self,
        state: MutexGuard<'a, ShardState>,
    ) -> MutexGuard<'a, ShardState> {
        if self.waiting.load(Ordering::SeqCst) == 0 {
            return state;
        }
        self.claim_in_flight.store(true, Ordering::SeqCst);
        let handed_over = self.handed_over.load(Ordering::SeqCst);
        drop(state);
        while self.handed_over.load(Ordering::SeqCst) == handed_over {
            std::thread::yield_now();
        }
        self.state.lock()
    }
}

/// Held by a running claim: clears the in-flight mark when the claim
/// ends — by return, or by a panic, which would otherwise leave every
/// later drain waiting forever.
pub(crate) struct ClaimInFlight<'a>(pub(crate) &'a AtomicBool);

impl Drop for ClaimInFlight<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::SeqCst);
    }
}

/// A claimed, coalesced unit of maintenance work: a whole-batch FIFO
/// prefix of the inbox, grouped per table for a single
/// [`crate::maintain::SketchMaintainer::maintain_from`] pass.
pub(crate) struct Claim {
    /// Table → coalesced batches, in arrival (version) order.
    pub(crate) routed: FxHashMap<String, Vec<Arc<TableDelta>>>,
    /// Number of whole batches claimed.
    pub(crate) batches: u64,
}

/// In-progress claim accumulation (see [`SchedShared::claim`]).
struct ClaimBuilder {
    routed: FxHashMap<String, Vec<Arc<TableDelta>>>,
    rows: FxHashMap<String, usize>,
    batches: u64,
    max_to: u64,
}

impl ClaimBuilder {
    /// Add one batch; returns true when its table's rows reach `budget`.
    fn take(&mut self, batch: Arc<TableDelta>, budget: usize) -> bool {
        self.batches += 1;
        self.max_to = self.max_to.max(batch.to_version);
        let table_rows = self.rows.entry(batch.table.clone()).or_insert(0);
        *table_rows += batch.entries.len();
        let budget_hit = *table_rows >= budget.max(1);
        self.routed
            .entry(batch.table.clone())
            .or_default()
            .push(batch);
        budget_hit
    }
}

/// State shared by the scheduler facade and every worker: everything a
/// claim needs, whichever thread runs it.
pub(crate) struct SchedShared {
    /// The inbox and the store.
    pub(crate) slot: ShardSlot,
    /// The single ingestion point (log collection + interning).
    router: Mutex<DeltaRouter>,
    /// Async-ingest staging queue: table names awaiting collection.
    staging: Mutex<VecDeque<String>>,
    /// Staging capacity; `0` disables async ingest (inline routing).
    staging_cap: usize,
    /// The backend database (read-locked per maintenance run).
    pub(crate) db: Arc<RwLock<Database>>,
    /// Middleware configuration (operator knobs, coalescing).
    pub(crate) config: ImpConfig,
    /// Published sketch snapshots.
    pub(crate) board: Arc<SnapshotBoard>,
    /// Workload tracker (maintenance costs, template evictions).
    pub(crate) tracker: Arc<WorkloadTracker>,
    /// Shared scheduler counters.
    pub(crate) metrics: Arc<SchedMetrics>,
    /// Observability hub (spans, latency histograms, probe events).
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
            router: Mutex::new(DeltaRouter::new()),
            staging: Mutex::new(VecDeque::new()),
            staging_cap: config.ingest_queue_cap,
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

    /// Register interest in `tables` with the router.
    pub(crate) fn register(&self, tables: &[String]) {
        let mut router = self.router.lock();
        router.register(&self.db.read(), tables);
    }

    /// Stage `table` for asynchronous ingestion. Returns `false` when the
    /// staging queue is full (or async ingest is disabled) — the caller
    /// must then ingest inline.
    pub(crate) fn stage(&self, table: &str) -> bool {
        if self.staging_cap == 0 {
            return false;
        }
        let mut staging = self.staging.lock();
        if staging.len() >= self.staging_cap {
            return false;
        }
        staging.push_back(table.to_string());
        self.metrics.staged_updates.inc();
        true
    }

    /// True iff async ingest is enabled (nonzero staging capacity).
    pub(crate) fn async_enabled(&self) -> bool {
        self.staging_cap > 0
    }

    /// True iff nothing is staged (cheap idle check).
    pub(crate) fn staging_is_empty(&self) -> bool {
        self.staging.lock().is_empty()
    }

    /// Drain the staging queue (and collect `extra`, when given) under
    /// **one** router hold: every staged table is collected from the log
    /// and pushed before the hold ends, so "staging empty" is only
    /// observable once all its pushes have landed — the property
    /// [`crate::Scheduler::drain`] relies on.
    ///
    /// Deferred collection can produce batches whose version ranges
    /// *interleave*: `collect(hot)` may merge versions 1 and 3 into one
    /// batch while version 2 belongs to a still-staged table. Join
    /// maintenance is only split-invariant across version-contiguous
    /// runs, so interleaved batches must never land in different claims.
    /// Two rules enforce that: all of a drain's batches are pushed under a
    /// **single inbox hold** (a concurrent claim sees the whole group or
    /// none of it), and [`SchedShared::claim`] extends to version closure
    /// over the inbox. Staged-but-uncollected updates cannot interleave
    /// with a drain's batches: the staging queue is drained to empty under
    /// the router hold, and the middleware's single-writer update path
    /// stages each commit before the next one can produce a higher
    /// version.
    pub(crate) fn ingest(&self, extra: Option<&str>) {
        let _span = self.obs.span("router_ingest");
        let mut router = self.router.lock();
        let db = self.db.read();
        let mut collected: Vec<Arc<TableDelta>> = Vec::new();
        loop {
            let Some(table) = self.staging.lock().pop_front() else {
                break;
            };
            collected.extend(self.collect(&mut router, &db, &table));
        }
        if let Some(table) = extra {
            collected.extend(self.collect(&mut router, &db, table));
        }
        if collected.is_empty() {
            return;
        }
        self.inbox_push_group(collected);
        self.nudge(ShardMsg::Wake);
    }

    /// Collect `table`'s unrouted log suffix (caller holds the router).
    fn collect(
        &self,
        router: &mut DeltaRouter,
        db: &Database,
        table: &str,
    ) -> Option<Arc<TableDelta>> {
        let delta = router.collect(db, table)?;
        self.metrics.routed_batches.inc();
        self.metrics.routed_rows.add(delta.entries.len() as u64);
        self.obs.flight().record(crate::obs::FlightEvent::Routed {
            table: crate::obs::flight::fid(&delta.table),
            rows: delta.entries.len() as u64,
        });
        self.obs.emit(|| ObsEvent::RouterIngest {
            table: delta.table.clone(),
            rows: delta.entries.len() as u64,
        });
        Some(delta)
    }

    /// Push one drain's routed batches into the inbox under a single hold
    /// (claims must see the group whole — see [`SchedShared::ingest`]),
    /// counting coalescing (a same-table batch already queued will fold
    /// into one run).
    fn inbox_push_group(&self, batches: Vec<Arc<TableDelta>>) {
        let mut inbox = self.slot.inbox.lock();
        for batch in batches {
            if inbox.iter().any(|b| b.table == batch.table) {
                self.metrics.coalesced_batches.inc();
            }
            inbox.push_back(batch);
            self.metrics.enqueued();
        }
    }

    /// True iff the inbox has queued batches (lock-cheap peek).
    pub(crate) fn has_work(&self) -> bool {
        !self.slot.inbox.lock().is_empty()
    }

    /// Claim a whole-batch FIFO prefix of the inbox, stopping once any
    /// table's claimed rows reach `budget` (that batch is included —
    /// matching the PR 4 gather rule). Same-table batches group into one
    /// maintenance run. **Caller must hold the state lock.**
    ///
    /// After the budget stop the claim extends to **version closure**:
    /// while the next queued batch's first record is below the highest
    /// version already claimed, it is pulled in too. Deferred collection
    /// may merge a table's versions 1 and 3 into one batch while another
    /// table's version 2 sits behind it (see [`SchedShared::ingest`]);
    /// splitting those across claims would break the three-term join
    /// rule's telescoping (cross-run delta products are never produced).
    /// Closure over the front suffices because drain groups land under
    /// one inbox hold, interleaving only occurs within a group, and a
    /// group's batches are pushed in order of their first record. (A
    /// batch's `from_version` is its own table's cursor, so it says
    /// nothing about other tables' versions.)
    pub(crate) fn claim(&self, budget: usize) -> Option<Claim> {
        let mut inbox = self.slot.inbox.lock();
        if inbox.is_empty() {
            return None;
        }
        let mut claim = ClaimBuilder {
            routed: FxHashMap::default(),
            rows: FxHashMap::default(),
            batches: 0,
            max_to: 0,
        };
        while let Some(batch) = inbox.pop_front() {
            self.metrics.dequeued();
            if claim.take(batch, budget) {
                break;
            }
        }
        while (inbox.front().and_then(|front| front.entries.first()))
            .is_some_and(|first| first.version < claim.max_to)
        {
            let batch = inbox.pop_front().expect("front was Some");
            self.metrics.dequeued();
            claim.take(batch, budget);
        }
        Some(Claim {
            routed: claim.routed,
            batches: claim.batches,
        })
    }

    /// Claim one coalesced batch group from the inbox and run it —
    /// maintain, then publish — on the calling thread. `state` is the
    /// store's lock, held by the caller; the claim may hand it to a
    /// waiting stale query between two sketches (see
    /// [`ShardSlot::hand_over`]). `worker` is the claimant (a caller
    /// draining the store claims as worker 0). Returns `false` when the
    /// inbox was empty or another claim is in flight.
    pub(crate) fn claim_and_run(&self, state: MutexGuard<'_, ShardState>, worker: usize) -> bool {
        if self.slot.claim_in_flight.load(Ordering::SeqCst) {
            return false;
        }
        let Some(claim) = self.claim(self.config.coalesce_budget) else {
            return false;
        };
        self.obs.flight().record(crate::obs::FlightEvent::Claimed {
            worker: worker as u64,
            batches: claim.batches,
        });
        self.obs.emit(|| ObsEvent::ShardClaim {
            worker,
            batches: claim.batches,
        });
        let mut state = run_claim(self, state, &claim.routed);
        publish(&mut state, &self.board, &self.obs);
        true
    }

    /// Send `msg` to one worker, round-robin, without blocking: dropped
    /// when that worker's message queue is full — it will see queued work
    /// anyway, and a sweep already queued covers the next one.
    pub(crate) fn nudge(&self, msg: ShardMsg) {
        let Some(wakers) = self.wakers.get().filter(|w| !w.is_empty()) else {
            return;
        };
        let next = self.next_wake.fetch_add(1, Ordering::Relaxed) % wakers.len();
        let _ = wakers[next].try_send(msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::ObsConfig;
    use crate::sched::router::RoutedEntry;
    use imp_storage::row;

    /// A claim builder over an empty database.
    fn shared() -> SchedShared {
        let db = Arc::new(RwLock::new(Database::new()));
        let tracker = Arc::new(WorkloadTracker::new());
        let obs = Obs::new(&ObsConfig::default());
        SchedShared::new(db, &ImpConfig::default(), tracker, obs)
    }

    /// A routed batch of `table` after its cursor `from`, one row per
    /// version.
    fn batch(table: &str, from: u64, versions: &[u64]) -> Arc<TableDelta> {
        let entries = versions.iter().map(|&version| RoutedEntry {
            row: row![version as i64],
            mult: 1,
            version,
        });
        Arc::new(TableDelta {
            table: table.to_string(),
            from_version: from,
            to_version: *versions.iter().max().unwrap(),
            entries: entries.collect(),
        })
    }

    /// Claim sizes (in batches) until the inbox is empty.
    fn claims(shared: &SchedShared, budget: usize) -> Vec<u64> {
        std::iter::from_fn(|| shared.claim(budget).map(|c| c.batches)).collect()
    }

    /// Table `b`'s cursor (0) is below everything `a` claimed, but its
    /// batch's first record (version 2) is not: the claims split.
    #[test]
    fn other_tables_batches_are_not_pulled_into_a_claim() {
        let shared = shared();
        shared.inbox_push_group(vec![batch("a", 0, &[1]), batch("b", 0, &[2])]);
        assert_eq!(claims(&shared, 1), [1, 1]);
    }

    /// Deferred collection merged `a`'s versions 1 and 3 into one batch
    /// while `b`'s version 2 sits behind it: one claim takes both.
    #[test]
    fn an_interleaved_group_is_one_claim() {
        let shared = shared();
        shared.inbox_push_group(vec![batch("a", 0, &[1, 3]), batch("b", 0, &[2])]);
        shared.inbox_push_group(vec![batch("b", 2, &[4])]);
        assert_eq!(claims(&shared, 1), [2, 1]);
    }
}
