//! The IMP middleware (paper Fig. 2).
//!
//! "IMP operates as a middleware between the user and a DBMS. … For each
//! incoming query, IMP determines whether to (i) capture a new sketch,
//! (ii) use an existing non-stale sketch, or (iii) incrementally maintain
//! a stale sketch and then utilize the updated sketch to answer the
//! query." Updates route to the backend and, under the eager strategy,
//! trigger incremental maintenance of the affected sketches.
//!
//! The sketch store is one [`crate::sched::Scheduler`]: the stored
//! sketches behind one state lock. Queries read published sketch
//! snapshots; a query whose sketch is stale maintains that sketch itself,
//! on its own thread, under the state lock. [`ImpConfig::sched_workers`]
//! only adds help: with `0` (the default) the caller does all the work,
//! exactly as the paper describes; with `≥ 1`, background workers sweep
//! stale sketches beside the query path.

use crate::advisor::{
    Advisor, AdvisorParams, AdvisorReport, Lifecycle, SketchCard, SketchKey, UseKind,
    WorkloadTracker, MAX_ENFORCEMENT_ROUNDS,
};
use crate::error::CoreError;
use crate::maintain::{MaintReport, SketchMaintainer};
use crate::obs::{HealthConfig, Obs, ObsConfig, Probe};
use crate::obsd::{start_obsd, ObsdHandle, ObsdState, OBSD_ADDR_ENV};
use crate::ops::{DbAccess, OpConfig};
use crate::sched::{PublishedSketch, Scheduler};
use crate::strategy::MaintenanceStrategy;
use crate::Result;
use imp_engine::{Bag, Database, QueryResult};
use imp_engine::{EngineError, ExecStats};
use imp_sketch::{apply_sketch_filter, safety, PartitionSet, RangePartition, SketchSet};
use imp_sql::ast::BinOp;
use imp_sql::{Expr, LogicalPlan, QueryTemplate, Resolver, SelectStmt, Statement};
use imp_storage::{BitVec, FxHashMap};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Middleware configuration.
#[derive(Debug, Clone)]
pub struct ImpConfig {
    /// Eager or lazy maintenance (§2, §8.5). Lazy: a sketch is maintained
    /// when a query needs it. Eager: with no workers, an update
    /// maintains every sketch whose pending delta rows reached the batch
    /// size, on the updating thread; with workers, their sweeps supersede
    /// it (see [`Self::sched_workers`]).
    pub strategy: MaintenanceStrategy,
    /// Fragments per range partition (`#frag`, §8.3.5).
    pub fragments: usize,
    /// Ignored: join bloom filters (§7.2) are gone, since the join-side
    /// indexes already avoid the round trip they could skip. Kept only for
    /// the `bench_cycle` replica, which still reads it into an [`OpConfig`]
    /// struct literal; removed together with that replica.
    pub bloom: bool,
    /// Push selections into delta retrieval (§7.2).
    pub selection_pushdown: bool,
    /// Bounded MIN/MAX state: keep the best `l` values (§7.2). Bounded to
    /// [`crate::ops::DEFAULT_MINMAX_BUFFER`] by default; the recapture
    /// fallback keeps results exact when a buffer exhausts.
    pub minmax_buffer: Option<usize>,
    /// Bounded top-k state: keep the best `l` entries (§7.2/§8.4.3).
    pub topk_buffer: Option<usize>,
    /// Per-side join-index budget (annotated tuples): materialise join
    /// sides as delta-maintained indexes so steady-state `Q ⋈ Δ` terms
    /// skip the backend round trip; a side over budget falls back to
    /// per-batch evaluation. `None` disables the indexes. Bounded to
    /// [`crate::ops::DEFAULT_JOIN_INDEX_BUDGET`] by default.
    pub join_index_budget: Option<usize>,
    /// Ignored: every join compiles to [`crate::ops::NaryJoinOp`]. Kept
    /// only for the `bench_cycle` replica, which still reads it into an
    /// [`OpConfig`] struct literal; removed together with that replica.
    pub nary_join: bool,
    /// Batch size at which delta normalization and annotation switch
    /// from row-at-a-time to their columnar kernels.
    /// Defaults to [`crate::ops::DEFAULT_COLUMNAR_MIN`].
    pub columnar_min: usize,
    /// Explicit partition-attribute choices (table → attribute), taking
    /// precedence over the safety heuristic (§7.4).
    pub partition_overrides: Vec<(String, String)>,
    /// Permit partitions on attributes the safety analysis cannot prove
    /// safe (paper §4.4 assumes safety; Fig. 5 uses such an attribute).
    pub allow_unsafe_attributes: bool,
    /// Retain immutable past sketch versions (§2).
    pub retain_sketch_versions: bool,
    /// Background worker threads of the sketch store ([`crate::sched`]).
    /// With `0` (default) there are none: the caller does all the work —
    /// a stale query maintains its own sketch, an update touches no
    /// sketch state (or, under [`MaintenanceStrategy::Eager`], maintains
    /// the sketches whose batch filled), and [`Imp::tick_maintenance`]
    /// sweeps. With `N ≥ 1`, an update only nudges a worker, which sweeps
    /// the store: every stale sketch is brought current from the delta
    /// log, one at a time, however many updates it missed. The workers
    /// take turns on the store's one state lock (superseding the
    /// foreground behavior of `strategy`; the `maintenance` reports of
    /// [`ImpResponse::Affected`] are then always empty). A stale query
    /// still maintains its own sketch either way. One worker is what the
    /// benchmark measures; more share the one lock and have not measured
    /// faster.
    pub sched_workers: usize,
    /// Heap-byte budget for the sketch store, enforced by the
    /// [`crate::advisor`] autopilot: every [`Imp::tick_maintenance`] (and
    /// explicit [`Imp::advise`]) runs a selection pass that keeps the
    /// highest-scoring sketches fully maintained and demotes the rest
    /// along the lifecycle ladder until `store_heap_size() ≤ budget`.
    /// `None` (default) disables the autopilot; the workload tracker
    /// still records usage either way.
    pub sketch_memory_budget: Option<usize>,
    /// Cost-model weights of the advisor (`benefit − α·maintain − β·heap`).
    pub advisor: AdvisorParams,
    /// Observability: unified metrics registry, latency histograms, and
    /// pipeline tracing (see [`crate::obs`]). Off by default — the
    /// disabled hot path costs a branch and allocates nothing.
    pub obs: ObsConfig,
    /// Address of the obsd telemetry endpoint (see [`crate::obsd`]),
    /// e.g. `"127.0.0.1:9464"`; `"127.0.0.1:0"` binds an ephemeral port
    /// reported by [`Imp::obsd_addr`]. `None` (default) falls back to the
    /// `IMP_OBSD_ADDR` environment variable; unset means no endpoint.
    /// Starting obsd also starts the [`crate::obs::health`] watchdog
    /// ticker configured by `health`.
    pub obsd_addr: Option<String>,
    /// Health watchdog thresholds and cadence (active only while the
    /// obsd endpoint runs; see [`crate::obs::health`]).
    pub health: HealthConfig,
}

impl Default for ImpConfig {
    fn default() -> Self {
        ImpConfig {
            strategy: MaintenanceStrategy::Lazy,
            fragments: 100,
            bloom: true,
            selection_pushdown: true,
            minmax_buffer: Some(crate::ops::DEFAULT_MINMAX_BUFFER),
            topk_buffer: None,
            join_index_budget: Some(crate::ops::DEFAULT_JOIN_INDEX_BUDGET),
            nary_join: true,
            columnar_min: crate::ops::DEFAULT_COLUMNAR_MIN,
            partition_overrides: Vec::new(),
            allow_unsafe_attributes: false,
            retain_sketch_versions: true,
            sched_workers: 0,
            sketch_memory_budget: None,
            advisor: AdvisorParams::default(),
            obs: ObsConfig::default(),
            obsd_addr: None,
            health: HealthConfig::default(),
        }
    }
}

impl ImpConfig {
    pub(crate) fn op_config(&self) -> OpConfig {
        OpConfig {
            minmax_buffer: self.minmax_buffer,
            topk_buffer: self.topk_buffer,
            join_index_budget: self.join_index_budget,
            columnar_min: self.columnar_min,
            ..OpConfig::default()
        }
    }
}

/// How a SELECT was answered.
#[derive(Debug, Clone)]
pub enum QueryMode {
    /// No safe sketch attribute: answered directly, no sketch involved.
    NoSketch,
    /// A new sketch was captured (and used) for this query.
    Captured,
    /// An existing fresh sketch was used as-is.
    UsedFresh,
    /// A stale sketch was incrementally maintained, then used. Boxed: a
    /// report is far larger than the other (data-free) variants.
    Maintained(Box<MaintReport>),
}

/// Response of [`Imp::execute`].
#[derive(Debug, Clone)]
pub enum ImpResponse {
    /// SELECT result.
    Rows {
        /// The query result.
        result: QueryResult,
        /// How the query was answered.
        mode: QueryMode,
    },
    /// Update result, with any eager maintenance that ran.
    Affected {
        /// Updated table.
        table: String,
        /// Affected row count.
        count: u64,
        /// Commit version.
        version: u64,
        /// Reports of eagerly maintained sketches.
        maintenance: Vec<MaintReport>,
    },
    /// DDL succeeded.
    Created,
    /// EXPLAIN output: the resolved logical plan as text.
    Explained(String),
}

/// One stored sketch: "for each sketch we store the sketch itself, the
/// query it was captured for, the current state of incremental operators
/// for this query, and the database version it was last maintained at"
/// (§2).
#[derive(Debug)]
pub struct StoredSketch {
    /// Original SQL of the capturing query.
    pub sql: String,
    /// Resolved plan of the capturing query.
    pub plan: LogicalPlan,
    /// Sketch + operator state + version.
    pub maintainer: SketchMaintainer,
    /// Retained immutable sketch versions.
    pub(crate) versions: RetainedVersions,
    /// Delta rows accumulated since the last maintenance (eager batching).
    pub pending_rows: u64,
    /// Evicted operator state (paper §2: "when we are running out of
    /// memory and need to evict the operator states for a query"). When
    /// set, the in-memory state has been reset and must be restored from
    /// these bytes before the next maintenance.
    pub evicted: Option<bytes::Bytes>,
    /// Rung on the advisor's lifecycle ladder (see [`crate::advisor`]).
    /// Everything below [`Lifecycle::Maintained`] is excluded from
    /// proactive maintenance and only brought current on demand.
    pub lifecycle: Lifecycle,
    /// What the store last published for this sketch: the
    /// plan/SQL/tables wrapped in `Arc` once, and
    /// the sketch bits cloned once per *change* — see
    /// [`crate::sched::shard::publish`]. Survives repartitioning (the plan
    /// does not change; the new partition set retires the bits).
    pub(crate) published: Option<PublishedSketch>,
}

/// The retained immutable versions of one sketch (§2: version → bits),
/// with their heap bytes kept as a running total.
#[derive(Debug, Default)]
pub(crate) struct RetainedVersions {
    bits: BTreeMap<u64, BitVec>,
    heap_bytes: usize,
}

impl RetainedVersions {
    /// Record `bits` as the sketch at `version` (replacing an earlier
    /// record of the same version).
    fn retain(&mut self, version: u64, bits: BitVec) {
        self.heap_bytes += bits.heap_size();
        if let Some(old) = self.bits.insert(version, bits) {
            self.heap_bytes -= old.heap_size();
        }
    }

    /// Drop every version below `horizon`; returns the bytes released.
    fn trim_below(&mut self, horizon: u64) -> usize {
        let kept = self.bits.split_off(&horizon);
        let dropped = std::mem::replace(&mut self.bits, kept);
        let freed = dropped.values().map(BitVec::heap_size).sum();
        self.heap_bytes -= freed;
        freed
    }
}

/// One row of [`Imp::describe_sketches`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchSummary {
    /// Canonical query template.
    pub template: String,
    /// Original SQL the sketch was captured for.
    pub sql: String,
    /// Database version the sketch is valid for.
    pub version: u64,
    /// Marked fragments.
    pub fragments: usize,
    /// Fragments in the partition set.
    pub total_fragments: usize,
    /// Operator-state heap bytes.
    pub state_bytes: usize,
    /// Retained immutable versions.
    pub retained_versions: usize,
    /// Stale w.r.t. the current database?
    pub stale: bool,
    /// Rung on the advisor's lifecycle ladder.
    pub lifecycle: Lifecycle,
}

/// One row of [`Imp::sketch_states`]: the externally comparable state of
/// a stored sketch (the differential scheduler tests assert byte-identical
/// rows between the zero-worker store and worker pools).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SketchStateView {
    /// Canonical query template.
    pub template: String,
    /// Original SQL the sketch was captured for.
    pub sql: String,
    /// Database version the sketch is valid for.
    pub version: u64,
    /// The sketch bits.
    pub bits: BitVec,
}

/// Maximum sketches retained per query template (candidates differing in
/// constants; the template prefilter of §7.1 narrows to these).
pub(crate) const MAX_SKETCHES_PER_TEMPLATE: usize = 4;

/// The sketch store: template → stored candidates.
pub(crate) type Store = FxHashMap<QueryTemplate, Vec<StoredSketch>>;

/// The IMP system.
pub struct Imp {
    db: Arc<RwLock<Database>>,
    sched: Scheduler,
    config: ImpConfig,
    advisor: Advisor,
    obs: Arc<Obs>,
    obsd: Option<ObsdHandle>,
}

impl Imp {
    /// Wrap a backend database. With [`ImpConfig::sched_workers`] ≥ 1 the
    /// sketch store gets a worker pool (see [`crate::sched`]).
    pub fn new(db: Database, config: ImpConfig) -> Imp {
        let db = Arc::new(RwLock::new(db));
        let advisor = Advisor::new(config.advisor);
        let obs = Obs::new(&config.obs);
        let sched = Scheduler::new(
            Arc::clone(&db),
            &config,
            Arc::clone(advisor.tracker()),
            Arc::clone(&obs),
        );
        // An explicit empty address means "no endpoint", so a config can
        // override an inherited IMP_OBSD_ADDR environment variable off.
        let obsd_addr = config
            .obsd_addr
            .clone()
            .or_else(|| std::env::var(OBSD_ADDR_ENV).ok())
            .filter(|addr| !addr.is_empty());
        let obsd = obsd_addr.and_then(|addr| {
            let state = ObsdState {
                obs: Arc::clone(&obs),
                health: crate::obs::HealthState::new(),
                board: sched.board_handle(),
                tracker: Arc::clone(advisor.tracker()),
                advisor: config.advisor,
            };
            match start_obsd(&addr, state, config.health.clone()) {
                Ok(handle) => Some(handle),
                Err(e) => {
                    // Telemetry must never take the system down with it:
                    // a bad address degrades to "no endpoint", loudly.
                    eprintln!("imp: obsd failed to bind {addr}: {e}");
                    None
                }
            }
        });
        Imp {
            db,
            sched,
            config,
            advisor,
            obs,
            obsd,
        }
    }

    /// Address of the live obsd telemetry endpoint, when one is running
    /// (see [`ImpConfig::obsd_addr`]).
    pub fn obsd_addr(&self) -> Option<std::net::SocketAddr> {
        self.obsd.as_ref().map(ObsdHandle::addr)
    }

    /// Deterministic JSON dump of the always-on flight recorder (the
    /// programmatic twin of obsd's `/flight`).
    pub fn flight_dump(&self) -> String {
        self.obs.flight_dump()
    }

    /// The workload advisor (tracker access and cost-model parameters).
    pub fn advisor(&self) -> &Advisor {
        &self.advisor
    }

    /// The observability hub (metrics registry, tracer, probes).
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Prometheus-style text exposition of every registered metric.
    pub fn metrics_text(&self) -> String {
        self.obs.metrics_text()
    }

    /// Deterministic JSON snapshot of every registered metric.
    pub fn metrics_json(&self) -> String {
        self.obs.metrics_json()
    }

    /// Chrome trace-event JSON of all recorded pipeline spans (load in
    /// `chrome://tracing` or Perfetto). Empty `traceEvents` unless
    /// [`ObsConfig::trace`] is on.
    pub fn trace_export(&self) -> String {
        self.obs.trace_chrome_json()
    }

    /// Subscribe a typed-event probe (works even with obs disabled).
    pub fn subscribe_probe(&self, probe: Arc<dyn Probe>) {
        self.obs.subscribe(probe);
    }

    /// Shared read access to the backend database.
    pub fn db(&self) -> RwLockReadGuard<'_, Database> {
        self.db.read()
    }

    /// Exclusive backend access (loading data bypasses the middleware).
    pub fn db_mut(&mut self) -> RwLockWriteGuard<'_, Database> {
        self.db.write()
    }

    /// The shared database handle (workers and harnesses hold
    /// additional readers).
    pub fn shared_db(&self) -> &Arc<RwLock<Database>> {
        &self.db
    }

    /// Active configuration.
    pub fn config(&self) -> &ImpConfig {
        &self.config
    }

    /// The sketch store and its maintenance scheduler (always present;
    /// [`crate::sched::Scheduler::workers`] is 0 without a worker pool).
    pub fn scheduler(&self) -> Option<&Scheduler> {
        Some(&self.sched)
    }

    /// Number of stored sketches.
    pub fn sketch_count(&self) -> usize {
        // Snapshots mirror the store after every count-changing operation
        // (capture, template eviction, repartition, advisor drop).
        self.sched.published_count()
    }

    /// Run `f` on the first sketch stored for `template`, under the
    /// store's state lock (tests / inspection). `None` when the template
    /// has no stored sketch.
    pub fn with_sketch<R>(
        &self,
        template: &QueryTemplate,
        f: impl FnOnce(&StoredSketch) -> R,
    ) -> Option<R> {
        self.sched.with_sketch(template, f)
    }

    /// Total heap footprint of all sketch state.
    pub fn store_heap_size(&self) -> usize {
        let mut total = 0;
        let _ = self.sched.visit(false, |store, _| {
            total += store
                .values()
                .flatten()
                .map(stored_heap_size)
                .sum::<usize>();
            Ok(())
        });
        total
    }

    /// Comparable state of every stored sketch, sorted. Every worker
    /// count produces identical rows for identical maintenance histories
    /// (the scheduler's differential guarantee).
    pub fn sketch_states(&self) -> Vec<SketchStateView> {
        let mut out = Vec::new();
        let _ = self.sched.visit(false, |store, _| {
            for (template, entries) in store.iter() {
                out.extend(entries.iter().map(|e| SketchStateView {
                    template: template.text().to_string(),
                    sql: e.sql.clone(),
                    version: e.maintainer.version(),
                    bits: e.maintainer.sketch().bits().clone(),
                }));
            }
            Ok(())
        });
        out.sort();
        out
    }

    /// Run `apply` over the stored sketches — one template's candidates
    /// or (`None`) all of them — and sum its results.
    fn for_each_sketch(
        &mut self,
        template: Option<&QueryTemplate>,
        mut apply: impl FnMut(&mut StoredSketch) -> usize,
    ) -> usize {
        let mut total = 0;
        let _ = self.sched.visit(true, |store, _| {
            total += match template {
                Some(t) => store.get_mut(t).into_iter().flatten().map(&mut apply).sum(),
                None => store.values_mut().flatten().map(&mut apply).sum::<usize>(),
            };
            Ok(())
        });
        total
    }

    /// Evict the operator state of every stored sketch to its serialized
    /// form, freeing the in-memory structures (paper §2). State is
    /// restored transparently before the next maintenance.
    pub fn evict_all_states(&mut self) -> Result<usize> {
        Ok(self.for_each_sketch(None, evict_stored))
    }

    /// Evict the operator state of every sketch stored for one template
    /// (all constant-variant candidates), returning the bytes freed — the
    /// single-template counterpart of [`Self::evict_all_states`], used by
    /// the advisor autopilot and available for targeted memory pressure.
    /// Unknown templates free 0 bytes.
    pub fn evict_state(&mut self, template: &QueryTemplate) -> Result<usize> {
        Ok(self.for_each_sketch(Some(template), evict_stored))
    }

    /// Flush every stored sketch's annotation pool (the between-runs
    /// [`crate::maintain::POOL_FLUSH_LEN`] flush — see
    /// [`SketchMaintainer::flush_pool_caches`] — exposed for
    /// memory-pressure callers and the heap-accounting tests). Returns
    /// the number of sketches flushed.
    pub fn flush_pool_caches(&mut self) -> usize {
        self.for_each_sketch(None, |entry| {
            entry.maintainer.flush_pool_caches();
            1
        })
    }

    /// Recapture every sketch with fresh equi-depth partitions — the §7.4
    /// response to a significant change in data distribution ("we can
    /// simply update the ranges and recapture sketches").
    pub fn repartition_all(&mut self) -> Result<usize> {
        let mut recaptured = 0;
        self.sched.visit(true, |store, db| {
            recaptured += repartition_store(store, db, &self.config)?;
            Ok(())
        })?;
        Ok(recaptured)
    }

    /// VACUUM the backend: compact table storage and drop delta-log
    /// records that every stored sketch has already consumed. The horizon
    /// is per table — the minimum maintained version across the sketches
    /// *referencing* that table — so a low-traffic sketch does not pin
    /// every other table's log (maintained versions are table-local, see
    /// [`SketchMaintainer::maintain`]). An unreferenced table's log is
    /// reclaimed entirely. Retained sketch versions go with the log that
    /// could still maintain them: every sketch keeps its current version
    /// and the earlier ones at or above the horizon of each of its tables
    /// ([`trim_versions`]). Returns `(reclaimed row slots, dropped delta
    /// records)`.
    pub fn vacuum(&mut self) -> (usize, usize) {
        let mut horizons: FxHashMap<String, u64> = FxHashMap::default();
        let _ = self.sched.visit(false, |store, _| {
            for (table, version) in table_horizons(store.values().flatten()) {
                let v = horizons.entry(table).or_insert(version);
                *v = (*v).min(version);
            }
            Ok(())
        });
        self.for_each_sketch(None, |e| trim_versions(e, &horizons));
        let mut db = self.db.write();
        let everything = db.version();
        db.vacuum_by(|table| horizons.get(table).copied().unwrap_or(everything))
    }

    /// Summaries of all stored sketches (the store view of paper Fig. 2).
    pub fn describe_sketches(&self) -> Vec<SketchSummary> {
        let mut out = Vec::new();
        let _ = self.sched.visit(false, |store, db| {
            for (template, entries) in store.iter() {
                out.extend(entries.iter().map(|e| summarize(template, e, db)));
            }
            Ok(())
        });
        out.sort_by(|a: &SketchSummary, b| a.template.cmp(&b.template));
        out
    }

    /// Execute one SQL statement through the middleware.
    pub fn execute(&mut self, sql: &str) -> Result<ImpResponse> {
        let stmt = imp_sql::parse_one(sql).map_err(EngineError::from)?;
        match stmt {
            Statement::Select(select) => self.handle_select(sql, &select),
            other => self.handle_update(&other),
        }
    }

    /// Maintain every stale [`Lifecycle::Maintained`] sketch (used by
    /// eager flushes and the background maintainer; advisor-demoted
    /// sketches are only maintained on demand by a query), on this
    /// thread: one sweep of the store. A sketch whose run fails does not
    /// stop the sweep; the first error is returned once it is done.
    pub fn maintain_all_stale(&mut self) -> Result<Vec<MaintReport>> {
        self.sched.maintain_stale()
    }

    /// One background-maintenance tick: without workers it maintains all
    /// stale sketches on this thread; with workers it nudges one worker
    /// to sweep and returns immediately, without blocking even while the
    /// workers are paused (the sweep runs off this thread).
    /// With a [`ImpConfig::sketch_memory_budget`] configured, every tick
    /// also runs one advisor autopilot pass ([`Self::advise`]).
    pub fn tick_maintenance(&mut self) -> Result<usize> {
        let maintained = if self.sched.workers() == 0 {
            self.maintain_all_stale()?.len()
        } else {
            self.sched.kick_maintenance();
            0
        };
        if self.config.sketch_memory_budget.is_some() {
            self.advise()?;
        }
        Ok(maintained)
    }

    /// Run one advisor autopilot pass: score every stored sketch from the
    /// workload tracker, keep the best set under
    /// [`ImpConfig::sketch_memory_budget`], demote the losers along the
    /// lifecycle ladder (escalating until the store fits the budget), and
    /// promote re-hot demoted sketches back to full maintenance. A no-op
    /// (default report) when no budget is configured. The gather/apply
    /// steps run on this thread under the store's state lock.
    pub fn advise(&mut self) -> Result<AdvisorReport> {
        let Some(budget) = self.config.sketch_memory_budget else {
            return Ok(AdvisorReport::default());
        };
        let mut report = AdvisorReport {
            budget,
            ..AdvisorReport::default()
        };
        let mut applied_last = false;
        for escalation in 0..=MAX_ENFORCEMENT_ROUNDS {
            // One gather per round serves both planning and the budget
            // check — the cards' resident sum equals `store_heap_size`.
            let cards = self.gather_cards();
            let resident: usize = cards.iter().map(|c| c.resident).sum();
            if escalation == 0 {
                report.heap_before = resident;
                // Prune tracker entries orphaned by store removals, so
                // the tracker stays bounded by the live store.
                let live: imp_storage::FxHashSet<SketchKey> =
                    cards.iter().map(SketchCard::key).collect();
                self.advisor.tracker().retain_live(&live);
            }
            report.heap_after = resident;
            applied_last = false;
            if escalation > 0 && resident <= budget {
                break;
            }
            let planned = self.advisor.plan_round(&cards, budget, escalation);
            if escalation == 0 {
                // The regular round consumed the hot windows; cool them so
                // benefit/cost estimates are moving averages over passes.
                self.advisor.decay();
            }
            report.kept = planned.kept;
            if planned.actions.is_empty() {
                break;
            }
            report.rounds = escalation + 1;
            let outcome = self.apply_advice(&planned.actions)?;
            report.outcome.absorb(&outcome);
            applied_last = true;
        }
        if applied_last {
            // The final permitted round still applied actions: re-measure
            // so the report reflects the settled store.
            report.heap_after = self.gather_cards().iter().map(|c| c.resident).sum();
        }
        Ok(report)
    }

    /// The advisor's view of every stored sketch, sorted by store key so
    /// every worker count (and repeated passes) plans over identical
    /// orders.
    fn gather_cards(&self) -> Vec<SketchCard> {
        let mut cards = Vec::new();
        let _ = self.sched.visit(false, |store, _| {
            for (template, entries) in store.iter() {
                cards.extend(entries.iter().map(|e| advisor_card(template, e)));
            }
            Ok(())
        });
        cards.sort_by(|a: &SketchCard, b| {
            (a.template.text(), &a.sql).cmp(&(b.template.text(), &b.sql))
        });
        cards
    }

    /// Apply one planned advisor round to the store.
    fn apply_advice(
        &mut self,
        actions: &[crate::advisor::AdviseAction],
    ) -> Result<crate::advisor::ApplyOutcome> {
        let mut outcome = crate::advisor::ApplyOutcome::default();
        let (config, obs, tracker) = (&self.config, &self.obs, self.advisor.tracker());
        self.sched.visit(true, |store, db| {
            let applied = crate::advisor::autopilot::apply_to_store(
                store, db, config, obs, tracker, actions,
            )?;
            outcome.absorb(&applied);
            Ok(())
        })?;
        Ok(outcome)
    }

    // ---- updates ----

    fn handle_update(&mut self, stmt: &Statement) -> Result<ImpResponse> {
        let _span = self.obs.span("update");
        let result = self.db.write().execute_statement(stmt)?;
        match result {
            imp_engine::update::StatementResult::Created => Ok(ImpResponse::Created),
            imp_engine::update::StatementResult::Explained(text) => {
                Ok(ImpResponse::Explained(text))
            }
            imp_engine::update::StatementResult::Rows(_) => unreachable!("SELECT handled above"),
            imp_engine::update::StatementResult::Affected {
                table,
                count,
                version,
            } => {
                let maintenance = match self.config.strategy {
                    MaintenanceStrategy::Eager { batch_size } if self.sched.workers() == 0 => {
                        self.maintain_eager(&table, count, batch_size)?
                    }
                    // Nudge a worker to sweep (no workers: a no-op).
                    _ => {
                        self.sched.note_update(&table);
                        Vec::new()
                    }
                };
                Ok(ImpResponse::Affected {
                    table,
                    count,
                    version,
                    maintenance,
                })
            }
        }
    }

    /// Eager batching on the updating thread: count `rows` against every
    /// fully maintained sketch over `table`, and maintain each whose
    /// pending rows reached `batch_size`.
    fn maintain_eager(
        &self,
        table: &str,
        rows: u64,
        batch_size: usize,
    ) -> Result<Vec<MaintReport>> {
        let mut reports = Vec::new();
        let (config, obs, tracker) = (&self.config, &self.obs, self.advisor.tracker());
        self.sched.visit(true, |store, db| {
            for (template, entries) in store.iter_mut() {
                for entry in entries.iter_mut() {
                    if entry.lifecycle != Lifecycle::Maintained
                        || !entry.maintainer.tables().iter().any(|t| t == table)
                    {
                        continue;
                    }
                    entry.pending_rows += rows;
                    if entry.pending_rows as usize >= batch_size {
                        let db = &DbAccess::Held(db);
                        reports.push(maintain_entry(entry, template, db, config, obs, tracker)?);
                    }
                }
            }
            Ok(())
        })?;
        Ok(reports)
    }

    // ---- queries ----

    fn handle_select(&mut self, sql: &str, select: &SelectStmt) -> Result<ImpResponse> {
        let _span = self.obs.span("select");
        let start = std::time::Instant::now();
        let template = QueryTemplate::of(select);
        let plan = Resolver::new(&*self.db.read())
            .resolve_select(select)
            .map_err(EngineError::from)?;
        let response = self.select(sql, template, plan)?;
        if let ImpResponse::Rows { mode, .. } = &response {
            let label = match mode {
                QueryMode::NoSketch => "none",
                QueryMode::Captured => "capture",
                QueryMode::UsedFresh => "fresh",
                QueryMode::Maintained(_) => "maintained",
            };
            self.obs
                .query_observed(label, start.elapsed().as_nanos() as u64);
        }
        Ok(response)
    }

    /// The (i)/(ii)/(iii) decision of paper Fig. 2. The candidate is read
    /// from the published snapshot, without blocking maintenance; only a
    /// stale candidate takes the store's state lock,
    /// to maintain that one sketch on this thread.
    fn select(&self, sql: &str, template: QueryTemplate, plan: LogicalPlan) -> Result<ImpResponse> {
        // (ii)/(iii): an existing sketch with the same template — the
        // reuse condition (from [37]; here: structural subsumption) is
        // checked against every stored candidate.
        if let Some(published) = self.sched.find_published(&template, &plan) {
            let stale = {
                let db = self.db.read();
                published.tables.iter().any(|t| {
                    db.delta_since(t, published.version)
                        .map(|d| !d.is_empty())
                        .unwrap_or(false)
                })
            };
            let used = if stale {
                // (iii): maintain it here. `None`: the candidate vanished
                // since the snapshot; fall through to a fresh capture.
                self.sched
                    .maintain_sketch(&template, &plan)?
                    .map(|(report, sketch)| (sketch, QueryMode::Maintained(Box::new(report))))
            } else {
                // (ii): the published snapshot as-is. Evicted state stays
                // evicted: the rewrite only needs the sketch bits.
                Some((published.sketch, QueryMode::UsedFresh))
            };
            if let Some((sketch, mode)) = used {
                let kind = match &mode {
                    QueryMode::Maintained(_) => UseKind::Maintained,
                    _ => UseKind::Fresh,
                };
                let db = self.db.read();
                self.advisor.tracker().record_use(
                    SketchKey::new(template.text(), published.sql.to_string()),
                    kind,
                    estimate_rows_skipped(&db, &sketch),
                );
                let rewritten = apply_sketch_filter(&plan, &sketch)?;
                let result = db.execute_plan(&rewritten)?;
                return Ok(ImpResponse::Rows { result, mode });
            }
        }

        // (i): capture a new sketch — pick partition attributes.
        let (stored, result) = {
            let db = self.db.read();
            let Some(pset) = choose_partitions(&db, &self.config, &plan)? else {
                // No sketchable attribute: answer directly (NS path).
                let result = db.execute_plan(&plan)?;
                return Ok(ImpResponse::Rows {
                    result,
                    mode: QueryMode::NoSketch,
                });
            };
            let (stored, result) = capture_stored(&db, &self.config, sql, plan, pset)?;
            self.advisor.tracker().record_use(
                SketchKey::new(template.text(), stored.sql.clone()),
                UseKind::Captured,
                estimate_rows_skipped(&db, stored.maintainer.sketch()),
            );
            (stored, result)
        };
        self.sched.add_sketch(template, stored);
        Ok(ImpResponse::Rows {
            result,
            mode: QueryMode::Captured,
        })
    }
}

/// Capture a sketch for `plan` and package it as a [`StoredSketch`] plus
/// the (ordered) query result the capture produced.
pub(crate) fn capture_stored(
    db: &Database,
    config: &ImpConfig,
    sql: &str,
    plan: LogicalPlan,
    pset: Arc<PartitionSet>,
) -> Result<(StoredSketch, QueryResult)> {
    let (maintainer, rows) = SketchMaintainer::capture(
        &plan,
        db,
        pset,
        config.op_config(),
        config.selection_pushdown,
    )?;
    let result = QueryResult {
        schema: plan.schema(),
        rows: order_result(&plan, rows),
        stats: ExecStats::default(),
    };
    let mut stored = StoredSketch {
        sql: sql.to_string(),
        plan,
        maintainer,
        versions: RetainedVersions::default(),
        pending_rows: 0,
        evicted: None,
        lifecycle: Lifecycle::Maintained,
        published: None,
    };
    retain_version(&mut stored, config.retain_sketch_versions);
    Ok((stored, result))
}

/// Estimate the backend rows a rewrite with this sketch skips, summed
/// over its partitioned tables: per-partition sketch selectivity × the
/// table's equi-depth fragment shares (see
/// [`imp_engine::estimate_skipped_rows`]). The advisor's per-use benefit
/// signal.
pub(crate) fn estimate_rows_skipped(db: &Database, sketch: &SketchSet) -> u64 {
    let pset = sketch.partitions();
    let mut skipped = 0u64;
    for i in 0..pset.len() {
        let p = pset.partition(i);
        let rows = db.table(&p.table).map(|t| t.row_count()).unwrap_or(0);
        skipped += imp_engine::estimate_skipped_rows(rows, sketch.partition_selectivity(i));
    }
    skipped
}

/// Heap footprint of one stored sketch (state + retained versions); both
/// terms are running totals, so this is O(#operators).
pub(crate) fn stored_heap_size(s: &StoredSketch) -> usize {
    s.maintainer.state_heap_size() + s.versions.heap_bytes
}

/// Record the current sketch bits under the maintained version (§2
/// immutable version retention), when enabled.
pub(crate) fn retain_version(entry: &mut StoredSketch, retain: bool) {
    if retain {
        entry.versions.retain(
            entry.maintainer.version(),
            entry.maintainer.sketch().bits().clone(),
        );
    }
}

/// Per table, the minimum maintained version across the `entries`
/// referencing it — the table's vacuum horizon.
fn table_horizons<'a>(entries: impl Iterator<Item = &'a StoredSketch>) -> FxHashMap<String, u64> {
    let mut mins = FxHashMap::default();
    for e in entries {
        for table in e.maintainer.tables() {
            let v = mins.entry(table.clone()).or_insert(u64::MAX);
            *v = (*v).min(e.maintainer.version());
        }
    }
    mins
}

/// Drop the retained versions of `entry` that [`Imp::vacuum`]'s per-table
/// `horizons` leave unmaintainable: a version below the horizon of one of
/// the sketch's tables has lost log records it would need. Every horizon
/// is at most the sketch's own version, so the current one always stays.
/// Returns the bytes released.
pub(crate) fn trim_versions(entry: &mut StoredSketch, horizons: &FxHashMap<String, u64>) -> usize {
    let tables = entry.maintainer.tables().iter();
    let horizon = tables.filter_map(|t| horizons.get(t)).max();
    horizon.map_or(0, |&h| entry.versions.trim_below(h))
}

/// Restore (if evicted) and maintain one stored sketch through the
/// fetching path, resetting its eager batch counter and retaining the
/// new version — the per-entry maintenance step of every path (stale
/// queries, sweeps, eager batches, advisor promotions), so their
/// arithmetic and their bookkeeping cannot drift.
pub(crate) fn maintain_entry(
    entry: &mut StoredSketch,
    template: &QueryTemplate,
    db: &DbAccess<'_>,
    config: &ImpConfig,
    obs: &Obs,
    tracker: &WorkloadTracker,
) -> Result<MaintReport> {
    restore_if_evicted(entry)?;
    let from_version = entry.maintainer.version();
    // A store with workers splits a sketch's statements into runs by
    // timing; see `SketchMaintainer::maintain_with`.
    let report = entry
        .maintainer
        .maintain_with(db, config.sched_workers > 0)?;
    entry.pending_rows = 0;
    retain_version(entry, config.retain_sketch_versions);
    record_run(entry, template, &report, from_version, obs, tracker);
    Ok(report)
}

/// Book one finished maintenance run of `entry`: latency histogram,
/// flight event and probe (see [`Obs`]), and the advisor's cost window.
pub(crate) fn record_run(
    entry: &StoredSketch,
    template: &QueryTemplate,
    report: &MaintReport,
    from_version: u64,
    obs: &Obs,
    tracker: &WorkloadTracker,
) {
    let delta_rows = report.metrics.delta_rows_fetched;
    obs.maintain_observed_spanned(
        template.text(),
        report.duration.as_nanos() as u64,
        delta_rows,
        report.recaptured,
        from_version,
        entry.maintainer.version(),
    );
    tracker.record_maintenance(
        SketchKey::new(template.text(), entry.sql.clone()),
        delta_rows,
    );
}

/// Recapture every sketch of `store` with fresh equi-depth
/// partitions (§7.4).
fn repartition_store(store: &mut Store, db: &Database, config: &ImpConfig) -> Result<usize> {
    let templates: Vec<QueryTemplate> = store.keys().cloned().collect();
    let mut recaptured = 0usize;
    for template in templates {
        let Some(entries) = store.remove(&template) else {
            continue;
        };
        let mut rebuilt = Vec::with_capacity(entries.len());
        for old in entries {
            let Some(pset) = choose_partitions(db, config, &old.plan)? else {
                continue;
            };
            let (maintainer, _) = SketchMaintainer::capture(
                &old.plan,
                db,
                pset,
                config.op_config(),
                config.selection_pushdown,
            )?;
            recaptured += 1;
            rebuilt.push(StoredSketch {
                maintainer,
                versions: RetainedVersions::default(),
                pending_rows: 0,
                evicted: None,
                ..old
            });
        }
        if !rebuilt.is_empty() {
            store.insert(template, rebuilt);
        }
    }
    Ok(recaptured)
}

/// Evict one sketch's operator state to its serialized form, returning
/// the bytes freed (0 when already evicted).
pub(crate) fn evict_stored(entry: &mut StoredSketch) -> usize {
    if entry.evicted.is_some() {
        return 0;
    }
    let freed = entry.maintainer.state_heap_size();
    entry.evicted = Some(crate::state_codec::save_state(&entry.maintainer));
    entry.maintainer.drop_state();
    freed
}

/// Build the advisor's [`SketchCard`] for one stored sketch. The card's
/// `heap` prices the sketch at its *kept-maintained* footprint:
/// resident bytes plus, when evicted, the serialized state size (the
/// restore proxy).
fn advisor_card(template: &QueryTemplate, e: &StoredSketch) -> SketchCard {
    let resident = stored_heap_size(e);
    SketchCard {
        template: template.clone(),
        sql: e.sql.clone(),
        lifecycle: e.lifecycle,
        resident,
        heap: resident + e.evicted.as_ref().map(|b| b.len()).unwrap_or(0),
    }
}

/// Build the [`SketchSummary`] row for one stored sketch.
fn summarize(template: &QueryTemplate, e: &StoredSketch, db: &Database) -> SketchSummary {
    SketchSummary {
        template: template.text().to_string(),
        sql: e.sql.clone(),
        version: e.maintainer.version(),
        fragments: e.maintainer.sketch().fragment_count(),
        total_fragments: e.maintainer.partitions().total_fragments(),
        state_bytes: stored_heap_size(e),
        retained_versions: e.versions.bits.len(),
        stale: e.maintainer.is_stale(db),
        lifecycle: e.lifecycle,
    }
}

/// Choose partition attributes per table (§7.4 heuristic: safe
/// attributes — for aggregation queries exactly the group-by columns —
/// ranked by sampled distinct count, following the cost-based insight
/// of [30] that finer-grained attributes yield more selective sketches).
pub(crate) fn choose_partitions(
    db: &Database,
    config: &ImpConfig,
    plan: &LogicalPlan,
) -> Result<Option<Arc<PartitionSet>>> {
    let safe = safety::safe_attributes(plan);
    let mut partitions = Vec::new();
    for table in plan.tables() {
        // Explicit override first.
        let chosen: Option<String> = config
            .partition_overrides
            .iter()
            .find(|(t, _)| t.eq_ignore_ascii_case(&table))
            .map(|(_, a)| a.clone())
            .or_else(|| {
                let mut candidates: Vec<&safety::SafeAttribute> =
                    safe.iter().filter(|s| s.table == table).collect();
                if candidates.len() > 1 {
                    candidates
                        .sort_by_key(|s| std::cmp::Reverse(sampled_distinct(db, &table, s.column)));
                }
                candidates.first().map(|s| s.attribute.clone())
            });
        let Some(attribute) = chosen else {
            continue; // table stays unpartitioned (whole-domain range)
        };
        let overridden = config
            .partition_overrides
            .iter()
            .any(|(t, _)| t.eq_ignore_ascii_case(&table));
        if !overridden
            || safety::is_safe(plan, &table, &attribute)
            || config.allow_unsafe_attributes
        {
            let fragments = config.fragments;
            partitions.push(RangePartition::equi_depth(
                db, &table, &attribute, fragments,
            )?);
        } else {
            return Err(CoreError::Sketch(
                imp_sketch::SketchError::UnsafeAttribute {
                    table: table.clone(),
                    attribute,
                },
            ));
        }
    }
    if partitions.is_empty() {
        return Ok(None);
    }
    Ok(Some(Arc::new(PartitionSet::new(partitions)?)))
}

/// Sampled distinct-value count of `table.column` (first few thousand
/// rows) — the ranking signal for partition-attribute choice.
fn sampled_distinct(db: &Database, table: &str, column: usize) -> usize {
    const SAMPLE: usize = 4096;
    let Ok(t) = db.table(table) else {
        return 0;
    };
    let seen: imp_storage::FxHashSet<imp_storage::Value> =
        t.column_values(column).take(SAMPLE).collect();
    seen.len()
}

/// Reload evicted operator state before the maintainer is used ("fetched
/// from the database" in paper §2 terms).
pub(crate) fn restore_if_evicted(entry: &mut StoredSketch) -> Result<()> {
    if let Some(bytes) = &entry.evicted {
        // The blob goes only once it has loaded: a sketch whose blob does
        // not decode fails every run, instead of maintaining reset state.
        crate::state_codec::load_state(&mut entry.maintainer, bytes.clone())?;
        entry.evicted = None;
    }
    Ok(())
}

/// Order a capture result the way the plan's top Sort/TopK demands (the
/// incremental pipeline is order-agnostic).
fn order_result(plan: &LogicalPlan, mut rows: Bag) -> Bag {
    match plan {
        LogicalPlan::Sort { keys, .. } | LogicalPlan::TopK { keys, .. } => {
            rows.sort_by(|a, b| {
                imp_sql::plan::compare_rows(&a.0, &b.0, keys).then_with(|| a.0.cmp(&b.0))
            });
            rows
        }
        _ => rows,
    }
}

/// Reuse check: can the sketch captured for `stored` answer `new`?
///
/// Both plans share a query template (same structure modulo literals).
/// The provenance of `new` must be contained in `stored`'s sketch; we
/// accept when all literals match except in HAVING-style filters above the
/// aggregation, where the new predicate may only be *more* selective
/// (e.g. a sketch for `HAVING sum(x) > 5000` answers `HAVING sum(x) > 6000`,
/// cf. \[37\]'s reuse test).
pub fn plan_subsumes(stored: &LogicalPlan, new: &LogicalPlan) -> bool {
    match (stored, new) {
        (
            LogicalPlan::Filter {
                input: si,
                predicate: sp,
            },
            LogicalPlan::Filter {
                input: ni,
                predicate: np,
            },
        ) => {
            let above_agg = matches!(si.as_ref(), LogicalPlan::Aggregate { .. });
            let pred_ok = if above_agg {
                predicate_subsumes(sp, np)
            } else {
                sp == np
            };
            pred_ok && plan_subsumes(si, ni)
        }
        (
            LogicalPlan::Project {
                input: si,
                exprs: se,
                ..
            },
            LogicalPlan::Project {
                input: ni,
                exprs: ne,
                ..
            },
        ) => se == ne && plan_subsumes(si, ni),
        (
            LogicalPlan::Join {
                left: sl,
                right: sr,
                left_keys: slk,
                right_keys: srk,
            },
            LogicalPlan::Join {
                left: nl,
                right: nr,
                left_keys: nlk,
                right_keys: nrk,
            },
        ) => slk == nlk && srk == nrk && plan_subsumes(sl, nl) && plan_subsumes(sr, nr),
        (
            LogicalPlan::Aggregate {
                input: si,
                group_by: sg,
                aggs: sa,
                ..
            },
            LogicalPlan::Aggregate {
                input: ni,
                group_by: ng,
                aggs: na,
                ..
            },
        ) => sg == ng && sa == na && plan_subsumes(si, ni),
        (LogicalPlan::Distinct { input: si }, LogicalPlan::Distinct { input: ni }) => {
            plan_subsumes(si, ni)
        }
        (
            LogicalPlan::Sort {
                input: si,
                keys: sk,
            },
            LogicalPlan::Sort {
                input: ni,
                keys: nk,
            },
        ) => sk == nk && plan_subsumes(si, ni),
        (
            LogicalPlan::TopK {
                input: si,
                keys: sk,
                k: skk,
            },
            LogicalPlan::TopK {
                input: ni,
                keys: nk,
                k: nkk,
            },
        ) => sk == nk && skk == nkk && plan_subsumes(si, ni),
        (a, b) => a == b,
    }
}

/// Is `new` at least as selective as `stored` for every comparison?
fn predicate_subsumes(stored: &Expr, new: &Expr) -> bool {
    match (stored, new) {
        (
            Expr::Binary {
                op: sop,
                left: sl,
                right: sr,
            },
            Expr::Binary {
                op: nop,
                left: nl,
                right: nr,
            },
        ) if sop == nop => match (sop, sl.as_ref(), nl.as_ref(), sr.as_ref(), nr.as_ref()) {
            // col ⋈ literal with matching column.
            (BinOp::Gt | BinOp::Ge, Expr::Col(sc), Expr::Col(nc), Expr::Lit(sv), Expr::Lit(nv))
                if sc == nc =>
            {
                nv >= sv
            }
            (BinOp::Lt | BinOp::Le, Expr::Col(sc), Expr::Col(nc), Expr::Lit(sv), Expr::Lit(nv))
                if sc == nc =>
            {
                nv <= sv
            }
            (BinOp::And | BinOp::Or, _, _, _, _) => {
                predicate_subsumes(sl, nl) && predicate_subsumes(sr, nr)
            }
            _ => stored == new,
        },
        (a, b) => a == b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_storage::{row, DataType, Field, Schema};

    /// Test inspection for the accounting oracle ([`crate::heap_oracle`]).
    impl Imp {
        /// Visit every stored sketch of the settled store.
        pub(crate) fn for_each_stored(&self, f: &mut dyn FnMut(&StoredSketch)) {
            let _ = self.sched.visit(false, |store, _| {
                store.values().flatten().for_each(&mut *f);
                Ok(())
            });
        }
    }

    impl StoredSketch {
        /// [`stored_heap_size`] recomputed by walking state and versions,
        /// plus the state-held annotation bytes the pool does not own.
        pub(crate) fn walked_heap_size(&self) -> (usize, usize) {
            let (state, unpooled) = self.maintainer.walked_heap_size();
            let versions: usize = self.versions.bits.values().map(BitVec::heap_size).sum();
            (state + versions, unpooled)
        }
    }

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "t",
            Schema::new(vec![
                Field::new("g", DataType::Int),
                Field::new("v", DataType::Int),
            ]),
        )
        .unwrap();
        db.table_mut("t")
            .unwrap()
            .bulk_load((0..50).map(|i| row![i % 5, i]))
            .unwrap();
        db
    }

    fn plan(db: &Database, sql: &str) -> LogicalPlan {
        db.plan_sql(sql).unwrap()
    }

    #[test]
    fn subsumption_directions() {
        let db = db();
        let base = plan(
            &db,
            "SELECT g, sum(v) AS s FROM t GROUP BY g HAVING sum(v) > 100",
        );
        // More selective HAVING (larger >-threshold): reusable.
        let tighter = plan(
            &db,
            "SELECT g, sum(v) AS s FROM t GROUP BY g HAVING sum(v) > 200",
        );
        assert!(plan_subsumes(&base, &tighter));
        // Less selective: not reusable.
        assert!(!plan_subsumes(&tighter, &base));
        // Identical: reusable.
        assert!(plan_subsumes(&base, &base));
    }

    #[test]
    fn subsumption_requires_equal_where_constants() {
        let db = db();
        let a = plan(
            &db,
            "SELECT g, sum(v) AS s FROM t WHERE v < 40 GROUP BY g HAVING sum(v) > 10",
        );
        let b = plan(
            &db,
            "SELECT g, sum(v) AS s FROM t WHERE v < 30 GROUP BY g HAVING sum(v) > 10",
        );
        // WHERE constants differ: provenance differs in both directions.
        assert!(!plan_subsumes(&a, &b));
        assert!(!plan_subsumes(&b, &a));
    }

    #[test]
    fn subsumption_handles_less_than_direction() {
        let db = db();
        let base = plan(
            &db,
            "SELECT g, avg(v) AS a FROM t GROUP BY g HAVING avg(v) < 100",
        );
        let tighter = plan(
            &db,
            "SELECT g, avg(v) AS a FROM t GROUP BY g HAVING avg(v) < 50",
        );
        assert!(plan_subsumes(&base, &tighter));
        assert!(!plan_subsumes(&tighter, &base));
    }

    #[test]
    fn subsumption_of_conjunctive_windows() {
        let db = db();
        let base = plan(
            &db,
            "SELECT g, avg(v) AS a FROM t GROUP BY g HAVING avg(v) > 10 AND avg(v) < 100",
        );
        let inside = plan(
            &db,
            "SELECT g, avg(v) AS a FROM t GROUP BY g HAVING avg(v) > 20 AND avg(v) < 90",
        );
        let outside = plan(
            &db,
            "SELECT g, avg(v) AS a FROM t GROUP BY g HAVING avg(v) > 5 AND avg(v) < 90",
        );
        assert!(plan_subsumes(&base, &inside));
        assert!(!plan_subsumes(&base, &outside));
    }

    #[test]
    fn store_keeps_multiple_candidates_per_template() {
        let mut imp = Imp::new(
            db(),
            ImpConfig {
                fragments: 5,
                ..Default::default()
            },
        );
        // Thresholds in *decreasing* selectivity so none subsumes the next.
        for th in [400, 300, 200, 100] {
            let sql = format!("SELECT g, sum(v) AS s FROM t GROUP BY g HAVING sum(v) > {th}");
            imp.execute(&sql).unwrap();
        }
        assert_eq!(imp.sketch_count(), 4);
        // The 5th distinct capture evicts the oldest.
        imp.execute("SELECT g, sum(v) AS s FROM t GROUP BY g HAVING sum(v) > 50")
            .unwrap();
        assert_eq!(imp.sketch_count(), MAX_SKETCHES_PER_TEMPLATE);
    }

    #[test]
    fn sampled_distinct_ranks_attributes() {
        let db = db();
        // g has 5 distinct values, v has 50.
        assert!(sampled_distinct(&db, "t", 1) > sampled_distinct(&db, "t", 0));
    }
}
