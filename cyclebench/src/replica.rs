//! The traced run's replica of the in-line middleware pipeline.
//!
//! The same op stream is replayed through the sequence of calls
//! `Imp::handle_update` / `Imp::select_inline` perform under the lazy
//! strategy, assembled only from the layers' public functions, on its own
//! `Database` with one `SketchMaintainer` per captured query. Each call
//! into a layer is one span. `annotate` and `normalize` (and the delta
//! fetch) run *inside* `SketchMaintainer::maintain`, so they are measured
//! as shadow spans on the same `delta_since` slices with a scratch pool
//! just before `maintain`.
//!
//! What the replica leaves out is what `middleware.overhead_frac` prices:
//! the `RwLock` around the database, advisor tracker bookkeeping, sketch
//! version retention and the (disabled) observability hooks.

use crate::check::{self, Failures, Template, CHECK_EVERY};
use crate::spans::Recorder;
use crate::workloads::Workload;
use imp_core::delta::normalize_delta_with;
use imp_core::maintain::SketchMaintainer;
use imp_core::metrics::MaintMetrics;
use imp_core::middleware::{plan_subsumes, ImpConfig, SketchStateView};
use imp_core::ops::OpConfig;
use imp_data::workload::WorkloadOp;
use imp_engine::update::StatementResult;
use imp_engine::{Database, ExecStats};
use imp_sketch::{annotate_delta_with, apply_sketch_filter, capture};
use imp_sql::{QueryTemplate, Resolver, Statement};
use imp_storage::{AnnotPool, FxHashMap, RowInterner};
use std::sync::Arc;

struct Entry {
    template: Template,
    maintainer: SketchMaintainer,
    /// Scratch pool and interner of the shadow annotate/normalize calls —
    /// persistent like the maintainer's own, so memoization is as warm.
    pool: AnnotPool,
    rows: RowInterner,
}

/// Counts the replica gathers at the layer boundaries. On in-line
/// workloads every one repeats exactly for a fixed seed.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts {
    pub statements: u64,
    pub queries: u64,
    pub rows_affected: u64,
    pub fresh: u64,
    pub maintained: u64,
    pub recaptures: u64,
    pub nary_input_probes: u64,
    pub maint: MaintMetrics,
    pub exec: ExecStats,
    /// Σ over queries of marked fragments ÷ fragments of the sketch used.
    pub coverage_sum: f64,
    pub failures: Failures,
}

pub struct Replica {
    db: Database,
    store: FxHashMap<QueryTemplate, Vec<Entry>>,
    columnar_min: usize,
    pub counts: Counts,
}

impl Replica {
    /// Load the tables and capture every warm-up query, as `Imp` does at
    /// set-up under `ImpConfig::default()`.
    pub fn setup(w: &Workload) -> Replica {
        let config = ImpConfig::default();
        let op_config = OpConfig {
            bloom: config.bloom,
            minmax_buffer: config.minmax_buffer,
            topk_buffer: config.topk_buffer,
            join_index_budget: config.join_index_budget,
            nary_join: config.nary_join,
            columnar_min: config.columnar_min,
        };
        let db = w.load();
        let mut store: FxHashMap<QueryTemplate, Vec<Entry>> = FxHashMap::default();
        for template in check::templates(&db, &w.warmup_queries(), config.fragments) {
            let Ok(Statement::Select(select)) = imp_sql::parse_one(&template.sql) else {
                unreachable!("warm-up queries are SELECTs")
            };
            let (maintainer, _) = SketchMaintainer::capture(
                &template.plan,
                &db,
                Arc::clone(&template.pset),
                op_config,
                config.selection_pushdown,
            )
            .expect("benchmark queries capture");
            store
                .entry(QueryTemplate::of(&select))
                .or_default()
                .push(Entry {
                    pool: AnnotPool::new(template.pset.total_fragments()),
                    rows: RowInterner::new(),
                    template,
                    maintainer,
                });
        }
        Replica {
            db,
            store,
            columnar_min: config.columnar_min,
            counts: Counts::default(),
        }
    }

    /// Replay the whole stream, then catch up. With a disabled recorder no
    /// shadow or reference work runs: that pass is the pipeline alone.
    pub fn run(&mut self, ops: &[WorkloadOp], rec: &mut Recorder) {
        for op in ops {
            rec.next_op();
            self.counts.statements += 1;
            match op {
                WorkloadOp::Query(sql) => self.select(sql, rec),
                WorkloadOp::Update { sql, .. } => self.update(sql, rec),
            }
        }
        rec.next_op();
        let root = rec.begin("catchup", false);
        for entry in self.store.values_mut().flatten() {
            if entry.maintainer.is_stale(&self.db) {
                maintain(entry, &self.db, self.columnar_min, rec, &mut self.counts);
            }
        }
        rec.end(root);
    }

    fn update(&mut self, sql: &str, rec: &mut Recorder) {
        let root = rec.begin("update", false);
        let stmt = rec.time("parse", false, || imp_sql::parse_one(sql));
        let result = match stmt {
            Ok(stmt) => rec.time("engine_update", false, || self.db.execute_statement(&stmt)),
            Err(e) => Err(e.into()),
        };
        match result {
            Ok(StatementResult::Affected { count, .. }) => self.counts.rows_affected += count,
            other => self
                .counts
                .failures
                .record(format!("{sql:.60}… → {other:?}")),
        }
        rec.end(root);
    }

    fn select(&mut self, sql: &str, rec: &mut Recorder) {
        let root = rec.begin("select", false);
        if let Err(e) = self.select_inner(sql, rec) {
            self.counts.failures.record(format!("{sql:.60}… → {e}"));
        }
        rec.end(root);
    }

    fn select_inner(&mut self, sql: &str, rec: &mut Recorder) -> Result<(), String> {
        let stmt = rec
            .time("parse", false, || imp_sql::parse_one(sql))
            .map_err(|e| e.to_string())?;
        let Statement::Select(select) = stmt else {
            return Err("not a SELECT".into());
        };
        let (template, plan) = rec.time("plan", false, || {
            let template = QueryTemplate::of(&select);
            let plan = Resolver::new(&self.db).resolve_select(&select);
            (template, plan)
        });
        let plan = plan.map_err(|e| e.to_string())?;
        let entry = self
            .store
            .get_mut(&template)
            .and_then(|entries| {
                entries
                    .iter_mut()
                    .find(|e| plan_subsumes(&e.template.plan, &plan))
            })
            .ok_or("no captured sketch subsumes the query")?;
        if entry.maintainer.is_stale(&self.db) {
            self.counts.maintained += 1;
            maintain(entry, &self.db, self.columnar_min, rec, &mut self.counts);
        } else {
            self.counts.fresh += 1;
        }
        let sketch = entry.maintainer.sketch();
        self.counts.coverage_sum +=
            sketch.fragment_count() as f64 / sketch.partitions().total_fragments() as f64;
        let rewritten = rec
            .time("use_rewrite", false, || apply_sketch_filter(&plan, sketch))
            .map_err(|e| e.to_string())?;
        let result = rec
            .time("scan", false, || self.db.execute_plan(&rewritten))
            .map_err(|e| e.to_string())?;
        self.counts.exec.absorb(&result.stats);
        let check_now = rec.enabled() && self.counts.queries.is_multiple_of(CHECK_EVERY as u64);
        self.counts.queries += 1;
        if check_now {
            // Reference spans: full maintenance (capture) and no-sketch
            // (unrewritten scan) on the same state, doubling as the oracle.
            // The enclosing shadow span keeps the comparisons out of
            // `select`'s self time.
            let checking = rec.begin("ref_check", true);
            let fresh = rec.time("ref_capture", true, || {
                capture(&plan, &self.db, &entry.template.pset)
            });
            let plain = rec.time("ref_ns_scan", true, || self.db.execute_plan(&plan));
            let sketch_ok = fresh.is_ok_and(|c| &c.sketch == entry.maintainer.sketch());
            let result_ok = plain.is_ok_and(|p| p.canonical() == result.canonical());
            rec.end(checking);
            if !sketch_ok {
                return Err("maintained sketch differs from a fresh capture".into());
            }
            if !result_ok {
                return Err("result differs from the unrewritten plan".into());
            }
        }
        Ok(())
    }

    /// Comparable state of every sketch, as `Imp::sketch_states` gives it.
    pub fn sketch_states(&self) -> Vec<SketchStateView> {
        let mut out: Vec<SketchStateView> = self
            .store
            .iter()
            .flat_map(|(template, entries)| {
                entries.iter().map(|e| SketchStateView {
                    template: template.text().to_string(),
                    sql: e.template.sql.clone(),
                    version: e.maintainer.version(),
                    bits: e.maintainer.sketch().bits().clone(),
                })
            })
            .collect();
        out.sort();
        out
    }
}

/// Bring one stale sketch current: shadow spans over the steps that run
/// inside `maintain`, then `maintain` itself.
fn maintain(
    entry: &mut Entry,
    db: &Database,
    columnar_min: usize,
    rec: &mut Recorder,
    counts: &mut Counts,
) {
    if rec.enabled() {
        // One enclosing shadow span, so dropping the scratch batches costs
        // `select` nothing either.
        let shadow = rec.begin("shadow", true);
        let version = entry.maintainer.version();
        for table in entry.maintainer.tables() {
            let records = rec
                .time("delta_fetch", true, || db.delta_since(table, version))
                .expect("sketch tables exist");
            let annotated = rec.time("annotate", true, || {
                annotate_delta_with(
                    &mut entry.pool,
                    &mut entry.rows,
                    &entry.template.pset,
                    table,
                    records,
                    columnar_min,
                )
            });
            let normalized = rec.time("normalize", true, || {
                normalize_delta_with(annotated, columnar_min)
            });
            std::hint::black_box(normalized);
        }
        // Fresh-insert streams never hit the interner; bound it the way
        // the maintainer bounds its own.
        if entry.rows.len() >= 1024 {
            entry.rows.clear();
        }
        rec.end(shadow);
    }
    match rec.time("maintain", false, || entry.maintainer.maintain(db)) {
        Ok(report) => {
            counts.maint.absorb(&report.metrics);
            counts.recaptures += u64::from(report.recaptured);
            counts.nary_input_probes += report.nary_input_probes.iter().sum::<u64>();
        }
        Err(e) => counts.failures.record(format!("maintain: {e}")),
    }
}
