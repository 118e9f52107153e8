//! The incremental maintenance procedure (Def. 4.5).
//!
//! A [`SketchMaintainer`] owns everything the sketch store keeps per query
//! (paper §2): the sketch itself, the incremental operator state `S`, the
//! database version the sketch was last maintained at, and the
//! [`AnnotPool`] / [`RowInterner`] pair every delta batch of this query is
//! interpreted against. `maintain` implements
//! `I(Q, Φ, S, Δ𝒟) = (ΔP, S′)`: fetch the annotated delta since the last
//! maintained version, push it through the operator tree, merge the
//! result deltas into a sketch delta, apply it.
//!
//! Capture, recapture and full maintenance run the same tree once from the
//! empty state (`bootstrap`), over no delta at all: the engine does the
//! evaluating. Every maximal select-project-join subtree is wrapped in
//! [`IncNode::EngineSpj`], which asks the engine for the subtree's rows,
//! each annotated with its sources' fragments (`ops/mod.rs`), and an
//! aggregation with no MIN/MAX over such a subtree builds its state on the
//! engine's group table instead, counting each group's tuples per fragment
//! as they are grouped (`ops/aggregate.rs`). No table is scanned into a
//! delta batch.

use crate::delta::{delta_heap_sizes, DeltaBatch, DeltaSeen};
use crate::metrics::MaintMetrics;
use crate::ops::{DbAccess, IncNode, MaintCtx, MergeOp, OpConfig};
use crate::opt::pushdown::pushable_predicates;
use crate::Result;
use imp_engine::{Bag, Database};
use imp_sketch::{annotate_delta_with, PartitionSet, SketchDelta, SketchSet};
use imp_sql::{Expr, LogicalPlan};
use imp_storage::{AnnotPool, FxHashMap, PoolStats, RowInterner};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Row-interner size above which a run with zero intern hits flushes the
/// cache (fresh-insert streams would otherwise pin dead payloads).
const COLD_ROW_CACHE_FLUSH: usize = 1024;

/// Pool growth (distinct annotations interned since the last flush)
/// above which the pool is flushed before a run — see
/// [`SketchMaintainer::flush_pool_caches`]. Ids are only live *within*
/// one maintenance/bootstrap call — operator state holds fragment
/// counters or `Arc<BitVec>` content handles, never ids — so flushing
/// between runs is safe; it trades memoization warmth for a memory bound
/// on churny annotation populations.
pub const POOL_FLUSH_LEN: usize = 1 << 16;

/// The cold row-cache check of one maintenance run. A stream of fresh
/// inserts never hits the interner, so a grown cache that found no hits is
/// dropped, and dead payloads don't stay pinned for the maintainer's
/// lifetime. The check runs once at the end of the run, or —
/// `per_statement` — after each statement too.
struct ColdCheck {
    per_statement: bool,
    /// Version of the statement being interned (`per_statement` only).
    open: Option<u64>,
    /// Interner hits before the run, or before the open statement.
    hits_before: u64,
}

impl ColdCheck {
    fn new(rows: &RowInterner, per_statement: bool) -> ColdCheck {
        ColdCheck {
            per_statement,
            open: None,
            hits_before: rows.hits(),
        }
    }

    /// The rows of the statement at `version` are about to be interned.
    fn statement(&mut self, rows: &mut RowInterner, version: u64) {
        if self.per_statement && self.open != Some(version) {
            if self.open.is_some() {
                self.flush(rows);
            }
            (self.open, self.hits_before) = (Some(version), rows.hits());
        }
    }

    /// The run's last statement is interned.
    fn end(self, rows: &mut RowInterner) {
        self.flush(rows);
    }

    fn flush(&self, rows: &mut RowInterner) {
        if rows.hits() == self.hits_before && rows.len() >= COLD_ROW_CACHE_FLUSH {
            rows.clear();
        }
    }
}

/// Outcome of one maintenance run.
#[derive(Debug, Clone)]
pub struct MaintReport {
    /// The sketch delta applied (`ΔP`).
    pub sketch_delta: SketchDelta,
    /// Cost counters.
    pub metrics: MaintMetrics,
    /// Whether bounded state forced a full recapture.
    pub recaptured: bool,
    /// Wall-clock duration of the run, as the caller waited for it.
    pub duration: Duration,
    /// Operator-state heap footprint after the run (Fig. 15/17) — an O(1)
    /// read of [`SketchMaintainer::state_heap_size`].
    pub state_bytes: usize,
    /// Per-input probe counts of the topmost join during this run (empty
    /// when the plan has no join, or on the empty fast-path / recapture
    /// paths where no probing happened).
    pub nary_input_probes: Vec<u64>,
}

/// The deltas of one run, fetched and prepared, before the operators run.
struct Prepared {
    deltas: FxHashMap<String, DeltaBatch>,
    /// Highest record version fetched.
    max_seen: u64,
    metrics: MaintMetrics,
    start: Instant,
    pool_stats_before: PoolStats,
}

/// Per-query maintenance state: sketch + operator states + version.
#[derive(Debug)]
pub struct SketchMaintainer {
    plan: LogicalPlan,
    pset: Arc<PartitionSet>,
    root: IncNode,
    merge: MergeOp,
    sketch: SketchSet,
    last_version: u64,
    tables: Vec<String>,
    pushdown: Option<Vec<(String, Expr)>>,
    op_config: OpConfig,
    /// Annotation arena for this query's delta pipeline. Persists across
    /// runs so memoized unions keep paying off for repeated annotations.
    pool: AnnotPool,
    /// Deduplicates delta row payloads at ingestion.
    rows: RowInterner,
    /// Scratch of the per-run delta-byte accounting.
    delta_seen: DeltaSeen,
}

impl SketchMaintainer {
    /// Capture a sketch for `plan` and bootstrap operator state from the
    /// full current database, run through the incremental pipeline from
    /// the empty state (module docs). Returns the maintainer plus the
    /// query result (capture answers the query too, Fig. 2).
    pub fn capture(
        plan: &LogicalPlan,
        db: &Database,
        pset: Arc<PartitionSet>,
        op_config: OpConfig,
        selection_pushdown: bool,
    ) -> Result<(SketchMaintainer, Bag)> {
        let root = IncNode::build(plan, &op_config)?;
        let tables = plan.tables();
        let pushdown = selection_pushdown.then(|| pushable_predicates(plan));
        let mut m = SketchMaintainer {
            plan: plan.clone(),
            merge: MergeOp::new(pset.total_fragments()),
            sketch: SketchSet::empty(Arc::clone(&pset)),
            pool: AnnotPool::new(pset.total_fragments()),
            rows: RowInterner::new(),
            delta_seen: DeltaSeen::default(),
            pset,
            root,
            last_version: 0,
            tables,
            pushdown,
            op_config,
        };
        let mut metrics = MaintMetrics::default();
        let result = m.bootstrap(db, &mut metrics)?;
        Ok((m, result))
    }

    /// Rebuild state + sketch from the full current database, accumulating
    /// the work into `metrics` (recapture paths report it, Fig. 13/14;
    /// an aggregation on the group table counts the rows reaching it, not
    /// the rows of the filters and projections below it). The pool is
    /// kept — its ids stay canonical and memoized unions remain valid.
    fn bootstrap(&mut self, db: &Database, metrics: &mut MaintMetrics) -> Result<Bag> {
        self.root.reset();
        self.merge.reset();
        self.sketch = SketchSet::empty(Arc::clone(&self.pset));

        let out = {
            let db = DbAccess::Held(db);
            let mut ctx = MaintCtx {
                db: &db,
                pset: &self.pset,
                deltas: &FxHashMap::default(),
                pool: &mut self.pool,
                metrics,
                from_empty: true,
                needs_recapture: false,
            };
            self.root.process(&mut ctx)?
        };
        let delta = self.merge.process(&out, &self.pool)?;
        self.sketch.apply_delta(&delta);
        // Split-invariant versioning: the capture read every row of the
        // sketch's tables, i.e. everything up to the last change logged for
        // those tables. Using that (instead of the global `db.version()`)
        // makes the version a pure function of the consumed content, so one
        // run over a range and several runs over its pieces land on
        // byte-identical versions.
        self.last_version = tables_log_version(db, &self.tables)?;
        // Bootstrap output from the empty state is the full query result.
        Ok(out
            .into_iter()
            .filter(|d| d.mult > 0)
            .map(|d| (d.row, d.mult))
            .collect())
    }

    /// Pre-filter a table's delta with push-down predicates (§7.2).
    fn apply_pushdown(
        &self,
        table: &str,
        delta: DeltaBatch,
        metrics: &mut MaintMetrics,
    ) -> DeltaBatch {
        let Some(preds) = &self.pushdown else {
            return delta;
        };
        let preds: Vec<&Expr> = preds
            .iter()
            .filter(|(t, _)| t == table)
            .map(|(_, p)| p)
            .collect();
        if preds.is_empty() {
            return delta;
        }
        let before = delta.len();
        let kept: DeltaBatch = delta
            .into_iter()
            .filter(|d| {
                preds
                    .iter()
                    .all(|p| p.eval_predicate(&d.row).unwrap_or(true))
            })
            .collect();
        metrics.delta_rows_pruned += (before - kept.len()) as u64;
        kept
    }

    /// Is the sketch stale w.r.t. the current database? Also when a
    /// vacuum dropped the changes it missed (an evicted sketch pins no
    /// log): the version of a table's last change outlives its record.
    pub fn is_stale(&self, db: &Database) -> bool {
        is_stale(db, &self.tables, self.last_version)
    }

    /// Incrementally maintain the sketch to the current database version.
    pub fn maintain(&mut self, db: &Database) -> Result<MaintReport> {
        self.maintain_with(&DbAccess::Held(db), false)
    }

    /// [`Self::maintain`] through `db`. With `by_statement` — on a store
    /// with workers, where timing decides how a sketch's statements split
    /// into runs — the cold row cache is checked after each statement, not
    /// once per run, so the row cache and state bytes come out as one run
    /// per statement leaves them, however the statements split.
    ///
    /// On a shared database the delta is fetched, annotated and
    /// normalized under a short read lock. The operators then run without
    /// it, unless one probes a base table
    /// ([`IncNode::reads_base_tables`]): such a run keeps that read lock in
    /// `db` to its end, so it sees the database its delta came from. An
    /// update statement, which needs the write lock, does not wait for a
    /// run that reads no table — every aggregation over its delta.
    pub(crate) fn maintain_with(
        &mut self,
        db: &DbAccess<'_>,
        by_statement: bool,
    ) -> Result<MaintReport> {
        let DbAccess::Shared { lock, guard } = db else {
            let prepared = self.prepare(db.get(), by_statement)?;
            return self.run_prepared(db, prepared);
        };
        let held = lock.read();
        let prepared = self.prepare(&held, by_statement)?;
        let changed = |t: &str| prepared.deltas.get(t).is_some_and(|b| !b.is_empty());
        if self.root.reads_base_tables(&changed) {
            let _ = guard.set(held);
        } else {
            drop(held);
        }
        self.run_prepared(db, prepared)
    }

    /// Fetch, annotate, (optionally) pre-filter and normalize the deltas
    /// of every table since the maintained version.
    fn prepare(&mut self, db: &Database, by_statement: bool) -> Result<Prepared> {
        let start = Instant::now();
        let mut metrics = MaintMetrics::default();
        if self.pool.grown() > POOL_FLUSH_LEN {
            self.flush_pool_caches();
        }
        let pool_stats_before = self.pool.stats();
        let mut cold = ColdCheck::new(&self.rows, by_statement);

        let mut deltas: FxHashMap<String, DeltaBatch> = FxHashMap::default();
        let mut max_seen = 0u64;
        for table in &self.tables {
            let records = db.delta_since(table, self.last_version)?;
            metrics.delta_rows_fetched += records.len() as u64;
            if let Some(last) = records.last() {
                max_seen = max_seen.max(last.version);
            }
            let (pool, rows, pset) = (&mut self.pool, &mut self.rows, &self.pset);
            let columnar_min = self.op_config.columnar_min;
            let annotated = if by_statement {
                let mut annotated = DeltaBatch::with_capacity(records.len());
                for statement in records.chunk_by(|a, b| a.version == b.version) {
                    cold.statement(rows, statement[0].version);
                    annotated.extend(annotate_delta_with(
                        pool,
                        rows,
                        pset,
                        table,
                        statement,
                        columnar_min,
                    ));
                }
                annotated
            } else {
                annotate_delta_with(pool, rows, pset, table, records, columnar_min)
            };
            let filtered = self.apply_pushdown(table, annotated, &mut metrics);
            let normalized =
                crate::delta::normalize_delta_with(filtered, self.op_config.columnar_min);
            deltas.insert(table.clone(), normalized);
        }
        cold.end(&mut self.rows);
        Ok(Prepared {
            deltas,
            max_seen,
            metrics,
            start,
            pool_stats_before,
        })
    }

    /// Push prepared per-table batches through the operator tree, fall
    /// back to recapture when bounded state exhausts, apply the sketch
    /// delta, and advance the version to the highest record version
    /// consumed (split-invariant — see [`Self::bootstrap`]'s notes).
    fn run_prepared(&mut self, db: &DbAccess<'_>, prepared: Prepared) -> Result<MaintReport> {
        let Prepared {
            deltas,
            max_seen,
            mut metrics,
            start,
            pool_stats_before,
        } = prepared;
        for batch in deltas.values() {
            let (pooled, flat) = delta_heap_sizes(batch, &self.pool, &mut self.delta_seen);
            metrics.delta_bytes_pooled += pooled as u64;
            metrics.delta_bytes_flat += flat as u64;
        }
        if deltas.values().all(|b| b.is_empty()) {
            // Nothing survived (or nothing new): advance past records that
            // were consumed-but-pruned so they are not refetched.
            self.last_version = self.last_version.max(max_seen);
            return Ok(self.report(start, metrics, SketchDelta::default(), false));
        }

        let (out, recapture) = {
            let mut ctx = MaintCtx {
                db,
                pset: &self.pset,
                deltas: &deltas,
                pool: &mut self.pool,
                metrics: &mut metrics,
                from_empty: false,
                needs_recapture: false,
            };
            let out = self.root.process(&mut ctx)?;
            (out, ctx.needs_recapture)
        };

        if recapture {
            // Bounded state exhausted: fall back to full maintenance
            // (§7.2 / §8.4.3), reporting it — including the bootstrap's
            // own work — so callers can account for it.
            let before = self.sketch.clone();
            self.bootstrap(db.get(), &mut metrics)?;
            let sketch_delta = diff_sketches(&before, &self.sketch);
            metrics.record_pool_activity(pool_stats_before, self.pool.stats());
            return Ok(self.report(start, metrics, sketch_delta, true));
        }

        let sketch_delta = self.merge.process(&out, &self.pool)?;
        self.sketch.apply_delta(&sketch_delta);
        self.last_version = self.last_version.max(max_seen);
        metrics.record_pool_activity(pool_stats_before, self.pool.stats());
        Ok(MaintReport {
            nary_input_probes: self.root.nary_probe_counts().unwrap_or_default(),
            ..self.report(start, metrics, sketch_delta, false)
        })
    }

    /// The report of the run started at `start`, as the state stands now
    /// (no n-ary probe counts: only a run that probed fills them in).
    fn report(
        &self,
        start: Instant,
        metrics: MaintMetrics,
        sketch_delta: SketchDelta,
        recaptured: bool,
    ) -> MaintReport {
        MaintReport {
            sketch_delta,
            metrics,
            recaptured,
            duration: start.elapsed(),
            state_bytes: self.state_heap_size(),
            nary_input_probes: Vec::new(),
        }
    }

    /// Full maintenance: recapture from scratch regardless of staleness
    /// (the FM baseline of §8). The report carries the bootstrap's real
    /// cost counters, not zeros.
    pub fn full_maintain(&mut self, db: &Database) -> Result<MaintReport> {
        let start = Instant::now();
        let pool_stats_before = self.pool.stats();
        let before = self.sketch.clone();
        let mut metrics = MaintMetrics::default();
        self.bootstrap(db, &mut metrics)?;
        metrics.record_pool_activity(pool_stats_before, self.pool.stats());
        Ok(self.report(start, metrics, diff_sketches(&before, &self.sketch), true))
    }

    /// The maintained sketch (valid as of [`Self::version`]).
    pub fn sketch(&self) -> &SketchSet {
        &self.sketch
    }

    /// Database version the sketch is valid for.
    pub fn version(&self) -> u64 {
        self.last_version
    }

    /// The maintained query plan.
    pub fn plan(&self) -> &LogicalPlan {
        &self.plan
    }

    /// The partitions `Φ`.
    pub fn partitions(&self) -> &Arc<PartitionSet> {
        &self.pset
    }

    /// Base tables whose updates invalidate this sketch.
    pub fn tables(&self) -> &[String] {
        &self.tables
    }

    /// Operator tuning configuration.
    pub fn op_config(&self) -> OpConfig {
        self.op_config
    }

    /// The annotation pool backing this query's delta pipeline.
    pub fn pool(&self) -> &AnnotPool {
        &self.pool
    }

    /// Cumulative pool activity (hash-consing, union memoization, and
    /// row interning).
    pub fn pool_stats(&self) -> PoolStats {
        let mut stats = self.pool.stats();
        stats.rows_interned = self.rows.interned();
        stats.row_hits = self.rows.hits();
        stats
    }

    /// Entries and bytes of the top-k operator state (Fig. 13e/f).
    pub fn topk_state(&self) -> Option<(usize, usize)> {
        self.root.topk_state()
    }

    /// Number of inputs of the topmost join, if the plan has one.
    pub fn nary_arity(&self) -> Option<usize> {
        self.root.nary_arity()
    }

    /// Canonical signature of the n-ary join circuit (input schemas +
    /// equivalence classes), if the plan compiled to one. Identical
    /// across all parse shapes of the same equi-join set.
    pub fn nary_signature(&self) -> Option<String> {
        self.root.nary_signature()
    }

    /// Aggregate entries and bytes of the join-side indexes (Fig. 17).
    pub fn join_index_state(&self) -> (usize, usize) {
        self.root.join_index_state()
    }

    /// Drop the in-memory operator state (paper §2's eviction); the
    /// sketch and version stay available for use-rewrites. The annotation
    /// pool and row interner are flushed too — no batch is in flight. The
    /// state is not kept anywhere: the next run must be
    /// [`Self::full_maintain`], which recaptures it from the database.
    pub fn drop_state(&mut self) {
        self.root.reset();
        self.merge.reset();
        self.pool.clear();
        self.rows.clear();
    }

    /// Heap footprint of all operator state + merge counters + sketch +
    /// the interning pools. Every term is a running total its owner
    /// keeps while it inserts and removes, so reading it costs
    /// O(#operators) whatever the state holds — no run, sweep or publish
    /// walks state to size it. Annotation contents are counted exactly
    /// once, by the pool: operator state (top-k entries, join-side
    /// indexes) holds `Arc<BitVec>` handles from [`AnnotPool::share`] and
    /// counts only the handles, and the pool owns every allocation behind
    /// them at all times ([`Self::flush_pool_caches`] keeps that true).
    pub fn state_heap_size(&self) -> usize {
        self.root.heap_size()
            + self.merge.heap_size()
            + self.sketch.heap_size()
            + self.pool.heap_size()
            + self.rows.heap_size()
    }

    /// Flush the annotation pool between runs (the bound-triggered
    /// [`POOL_FLUSH_LEN`] flush, exposed for memory-pressure callers and
    /// tests). Safe at any between-runs point: ids are only live within
    /// one maintenance/bootstrap call — persistent operator state holds
    /// fragment counters or `Arc<BitVec>` content handles, never ids.
    /// Sheds the union memo and every annotation no live state refers to
    /// anymore; the pool then re-adopts the allocations state still holds
    /// — one O(state) pass per flush, amortised over the ≥
    /// [`POOL_FLUSH_LEN`] annotations interned since the last one — so it
    /// keeps owning, and counting, every state-held annotation.
    pub fn flush_pool_caches(&mut self) {
        self.pool.clear();
        self.root.readopt_annots(&mut self.pool);
    }
}

/// Highest version ever logged across `tables` (0 when nothing was):
/// the version a from-scratch scan of those tables represents.
fn tables_log_version(db: &Database, tables: &[String]) -> Result<u64> {
    let mut v = 0u64;
    for table in tables {
        v = v.max(db.table(table)?.delta_log().last_version());
    }
    Ok(v)
}

/// Has any of `tables` changed after `version`?
pub(crate) fn is_stale(db: &Database, tables: &[String], version: u64) -> bool {
    let changed = |t: &String| db.table(t).map(|t| t.delta_log().last_version() > version);
    tables.iter().any(|t| changed(t).unwrap_or(false))
}

/// Compute the delta between two sketch versions (`ΔP` with
/// `P₂ = P₁ ∪• ΔP`).
pub fn diff_sketches(before: &SketchSet, after: &SketchSet) -> SketchDelta {
    let mut delta = SketchDelta::default();
    let n = before.bits().len();
    for f in 0..n {
        match (before.contains(f), after.contains(f)) {
            (false, true) => delta.added.push(f),
            (true, false) => delta.removed.push(f),
            _ => {}
        }
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap_oracle::Walk;
    use crate::middleware::{choose_partitions, ImpConfig};
    use imp_engine::database::canonical_bag;
    use imp_sketch::RangePartition;
    use imp_storage::{row, DataType, Field, Schema, Value};
    use parking_lot::RwLock;

    impl SketchMaintainer {
        /// The accounting oracle: [`Self::state_heap_size`] recomputed by
        /// walking the live operator state, plus the bytes of state-held
        /// annotation allocations the pool does not own (none, ever).
        pub(crate) fn walked_heap_size(&self) -> (usize, usize) {
            let mut walk = Walk::new(&self.pool);
            let walked = self.root.walked_heap_size(&mut walk)
                + self.merge.heap_size()
                + self.sketch.heap_size()
                + self.pool.heap_size()
                + self.rows.heap_size();
            (walked, walk.unpooled())
        }

        /// The operator tree (the bootstrap differential compares its
        /// state by value).
        pub(crate) fn root(&self) -> &IncNode {
            &self.root
        }

        /// μ's counters.
        pub(crate) fn merge(&self) -> &MergeOp {
            &self.merge
        }
    }

    /// Two tables `a(k, v)` and `b(k, w)`, six rows each over six keys.
    fn two_tables() -> Database {
        let mut db = Database::new();
        for (name, col) in [("a", "v"), ("b", "w")] {
            let schema = Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new(col, DataType::Int),
            ]);
            db.create_table(name, schema).unwrap();
            let rows = (0..6).map(|i| row![i, i * 10]);
            db.table_mut(name).unwrap().bulk_load(rows).unwrap();
        }
        db
    }

    /// From the empty state every table is read by the engine: capturing
    /// (and fully maintaining) an aggregation over a join, a join at the
    /// root, under top-k or under MIN/MAX, a top-k, MIN/MAX or sort over a
    /// scan, or a filter and projection over a scan at the root makes no
    /// backend round trip, indexes no join input and answers as the
    /// engine does.
    #[test]
    fn no_capture_replays_a_table() {
        let db = two_tables();
        let on_k = |t| RangePartition::new(t, "k", 0, vec![Value::Int(2), Value::Int(4)]).unwrap();
        let pset = Arc::new(PartitionSet::new(vec![on_k("a"), on_k("b")]).unwrap());
        let queries = [
            "SELECT a.k, sum(w) AS s FROM a JOIN b ON (a.k = b.k) GROUP BY a.k HAVING sum(w) > 10",
            "SELECT v, w FROM a JOIN b ON (a.k = b.k) WHERE v > 10",
            "SELECT v, w FROM a JOIN b ON (a.k = b.k) ORDER BY v LIMIT 2",
            "SELECT a.k, min(w) AS m FROM a JOIN b ON (a.k = b.k) GROUP BY a.k",
            "SELECT k, v FROM a WHERE v > 0 ORDER BY v LIMIT 2",
            "SELECT k, max(v) AS m FROM a GROUP BY k",
            "SELECT min(v) AS m FROM a",
            "SELECT k + v AS s FROM a WHERE v < 40",
            "SELECT k, v FROM a ORDER BY v",
        ];
        for sql in queries {
            let plan = db.plan_sql(sql).unwrap();
            let (mut m, bag) =
                SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), OpConfig::default(), true)
                    .unwrap();
            let report = m.full_maintain(&db).unwrap();
            assert_eq!(report.metrics.db_roundtrips, 0, "{sql}");
            assert_eq!(m.join_index_state(), (0, 0), "{sql}");
            let engine = db.execute_plan(&plan).unwrap();
            assert_eq!(canonical_bag(&bag), canonical_bag(&engine.rows), "{sql}");
            let accurate = imp_sketch::capture(&plan, &db, &pset).unwrap();
            assert_eq!(m.sketch().bits(), accurate.sketch.bits(), "{sql}");
        }
    }

    /// Whether a run through the shared database, after `update`, kept
    /// the read lock for its operators (the lazy guard is taken).
    fn keeps_the_lock(sql: &str, config: ImpConfig, update: &str) -> bool {
        let mut db = two_tables();
        let plan = db.plan_sql(sql).unwrap();
        let pset = choose_partitions(&db, &config, &plan).unwrap().unwrap();
        let (mut m, _) =
            SketchMaintainer::capture(&plan, &db, pset, config.op_config(), true).unwrap();
        db.execute_sql(update).unwrap();
        let lock = RwLock::new(db);
        let access = DbAccess::shared(&lock);
        let report = m.maintain_with(&access, true).unwrap();
        assert_eq!(report.metrics.delta_rows_fetched, 1);
        assert!(!m.is_stale(&lock.read()));
        let DbAccess::Shared { guard, .. } = &access else {
            unreachable!()
        };
        guard.get().is_some()
    }

    /// The lock scope of a sweep's run: an aggregation over its delta
    /// leaves the lazy guard untaken, so an update statement need not wait
    /// for it; a join that probes a side it keeps no index for holds the
    /// read lock its fetch took.
    #[test]
    fn only_a_run_that_reads_a_base_table_keeps_the_read_lock() {
        let config = ImpConfig {
            fragments: 3,
            ..ImpConfig::default()
        };
        let aggregate = "SELECT k, sum(v) AS s FROM a GROUP BY k HAVING sum(v) > 10";
        let insert = "INSERT INTO a VALUES (1, 70)";
        assert!(!keeps_the_lock(aggregate, config.clone(), insert));
        let join = "SELECT a.k, sum(w) AS s FROM a JOIN b ON (a.k = b.k) GROUP BY a.k \
                    HAVING sum(w) > 10";
        let unindexed = ImpConfig {
            join_index_budget: None,
            ..config
        };
        assert!(keeps_the_lock(join, unindexed, insert));
    }
}
