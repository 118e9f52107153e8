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
//!
//! One file per role: `config`, `capture` (i), `reuse` (ii)/(iii),
//! `maintain` and `admin`; the database, configuration and obs hub live
//! once, in the store's context.

mod admin;
pub(crate) mod capture;
mod config;
mod maintain;
mod reuse;

pub use admin::{SketchStateView, SketchSummary};
pub use config::ImpConfig;
pub(crate) use maintain::{evict_stored, maintain_entry};
pub use reuse::plan_subsumes;

use crate::advisor::{Lifecycle, WorkloadTracker};
use crate::maintain::{MaintReport, SketchMaintainer};
use crate::obs::Obs;
use crate::obsd::{start_obsd, ObsdHandle, ObsdState, OBSD_ADDR_ENV};
use crate::sched::store::SchedShared;
use crate::sched::{PublishedSketch, Scheduler};
use crate::Result;
use imp_engine::{Database, EngineError, QueryResult};
use imp_sql::{LogicalPlan, QueryTemplate, Statement};
use imp_storage::FxHashMap;
use parking_lot::RwLockReadGuard;
use std::sync::Arc;

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
    /// Delta rows accumulated since the last maintenance (eager batching).
    pub pending_rows: u64,
    /// Set when the operator state was evicted (paper §2: "when we are
    /// running out of memory and need to evict the operator states for a
    /// query"): the state bytes the eviction freed. The state is gone;
    /// the next run recaptures it from the database.
    pub evicted: Option<usize>,
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

/// Maximum sketches retained per query template (candidates differing in
/// constants; the template prefilter of §7.1 narrows to these).
pub(crate) const MAX_SKETCHES_PER_TEMPLATE: usize = 4;

/// The sketch store: template → stored candidates.
pub(crate) type Store = FxHashMap<QueryTemplate, Vec<StoredSketch>>;

/// The IMP system: the sketch store (whose one context holds the
/// database, the configuration, the obs hub and the advisor's workload
/// tracker) and the telemetry endpoint.
pub struct Imp {
    sched: Scheduler,
    obsd: Option<ObsdHandle>,
}

impl Imp {
    /// Wrap a backend database. With [`ImpConfig::sched_workers`] ≥ 1 the
    /// sketch store gets a worker pool (see [`crate::sched`]).
    pub fn new(db: Database, config: ImpConfig) -> Imp {
        // An explicit empty address means "no endpoint", so a config can
        // override an inherited IMP_OBSD_ADDR environment variable off.
        let obsd_addr = config
            .obsd_addr
            .clone()
            .or_else(|| std::env::var(OBSD_ADDR_ENV).ok())
            .filter(|addr| !addr.is_empty());
        let sched = Scheduler::new(db, config);
        let obsd = obsd_addr.and_then(|addr| {
            let ctx = sched.ctx();
            match start_obsd(&addr, ObsdState::of(ctx), ctx.config.advisor) {
                Ok(handle) => Some(handle),
                Err(e) => {
                    // Telemetry must never take the system down with it:
                    // a bad address degrades to "no endpoint", loudly.
                    eprintln!("imp: obsd failed to bind {addr}: {e}");
                    None
                }
            }
        });
        Imp { sched, obsd }
    }

    /// The store's one context.
    fn ctx(&self) -> &SchedShared {
        self.sched.ctx()
    }

    /// Address of the live obsd telemetry endpoint, when one is running
    /// (see [`ImpConfig::obsd_addr`]).
    pub fn obsd_addr(&self) -> Option<std::net::SocketAddr> {
        self.obsd.as_ref().map(ObsdHandle::addr)
    }

    /// The advisor's workload tracker (its cost-model parameters are
    /// [`ImpConfig::advisor`]).
    pub fn tracker(&self) -> &Arc<WorkloadTracker> {
        &self.ctx().tracker
    }

    /// The observability hub (metrics registry, tracer).
    pub fn obs(&self) -> &Arc<Obs> {
        &self.ctx().obs
    }

    /// Prometheus-style text exposition of every registered metric.
    pub fn metrics_text(&self) -> String {
        self.obs().metrics_text()
    }

    /// Deterministic JSON snapshot of every registered metric.
    pub fn metrics_json(&self) -> String {
        self.obs().metrics_json()
    }

    /// Chrome trace-event JSON of all recorded pipeline spans (load in
    /// `chrome://tracing` or Perfetto). Empty `traceEvents` unless
    /// [`crate::obs::ObsConfig::trace`] is on.
    pub fn trace_export(&self) -> String {
        self.obs().trace_chrome_json()
    }

    /// Shared read access to the backend database.
    pub fn db(&self) -> RwLockReadGuard<'_, Database> {
        self.ctx().db.read()
    }

    /// Active configuration.
    pub fn config(&self) -> &ImpConfig {
        &self.ctx().config
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

    /// Execute one SQL statement through the middleware.
    pub fn execute(&mut self, sql: &str) -> Result<ImpResponse> {
        let stmt = imp_sql::parse_one(sql).map_err(EngineError::from)?;
        match stmt {
            Statement::Select(select) => self.handle_select(sql, &select),
            other => self.handle_update(&other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::capture::sampled_distinct;
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
        /// `state_heap_size` recomputed by walking state, plus the
        /// state-held annotation bytes the pool does not own.
        pub(crate) fn walked_heap_size(&self) -> (usize, usize) {
            self.maintainer.walked_heap_size()
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
