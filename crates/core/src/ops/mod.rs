//! Incremental relational algebra over sketch-annotated deltas (paper §5)
//! — a composable delta circuit, not just a tree of binary operators.
//!
//! A query plan is compiled into a circuit of [`IncNode`]s. Each
//! maintenance run pushes the annotated table deltas bottom-up: every
//! operator consumes its input deltas, updates its state `S`, and emits
//! an output delta (Def. 4.5). Deltas are bags with *signed*
//! multiplicities, so retraction (deletes, high-churn insert+delete
//! windows) flows through the same code paths as insertion — every
//! operator is symmetric in the sign. The merge operator
//! [`merge::MergeOp`] sits above the root and turns result deltas into a
//! sketch delta `ΔP` (§5.1).
//!
//! # Joins: one operator
//!
//! Every join compiles to one [`NaryJoinOp`], which maintains
//! `Δ(R₁ ⋈ … ⋈ Rₙ)` by the telescoping generalization of the paper's
//! three-term rule (for n = 2 it *is* the three-term rule), probing n
//! per-input indexes with **no intermediate pair state** (see [`nary`]'s
//! module docs). Equi-join trees are canonicalized by
//! [`imp_sql::plan::flatten_join`] — left-deep, right-deep and bushy
//! shapes all normalize to one join set, two inputs included. A cross
//! product (no equi-keys, so nothing to flatten) is two inputs with no
//! join classes: each term scans the other input's index. An equi-join
//! over a cross-product input therefore compiles to nested operators.

pub mod aggregate;
pub mod merge;
pub mod nary;
pub mod topk;

pub use aggregate::AggOp;
pub use merge::MergeOp;
pub use nary::NaryJoinOp;
pub use topk::TopKOp;

use crate::delta::DeltaBatch;
use crate::error::CoreError;
use crate::metrics::MaintMetrics;
use crate::Result;
use imp_engine::eval::{is_spj, PartitionValues};
use imp_engine::Database;
use imp_sketch::PartitionSet;
use imp_sql::plan::NaryJoin;
use imp_sql::{Expr, LogicalPlan};
use imp_storage::{AnnotPool, DeltaEntry, FxHashMap, Row};
use parking_lot::{RwLock, RwLockReadGuard};
use std::cell::OnceCell;
use std::sync::Arc;

/// How one maintenance run reaches the backend database.
///
/// A run's operators read base tables only when they have to, and then
/// through the engine ([`annotated_rows`]): a join side they do not keep
/// materialized, or a recapture. An aggregation over its
/// delta never does. So a sketch store's sweep keeps the database read
/// lock past a run's fetch only when the run's operators probe a base
/// table ([`IncNode::reads_base_tables`]); otherwise they run on
/// [`DbAccess::Shared`], which takes the lock at a first read (a
/// recapture) and keeps it to the end of the run. An update statement,
/// which needs the write lock, then does not wait for the run.
pub enum DbAccess<'a> {
    /// The caller holds the database for the whole run.
    Held(&'a Database),
    /// The shared database, read-locked from the first [`DbAccess::get`]
    /// until this value is dropped.
    Shared {
        /// The database lock.
        lock: &'a RwLock<Database>,
        /// The read guard, once taken.
        guard: OnceCell<RwLockReadGuard<'a, Database>>,
    },
}

impl<'a> DbAccess<'a> {
    /// Access to the shared database, not locked yet.
    pub fn shared(lock: &'a RwLock<Database>) -> DbAccess<'a> {
        DbAccess::Shared {
            lock,
            guard: OnceCell::new(),
        }
    }

    /// The database (taking the read lock on a shared one's first call).
    pub fn get(&self) -> &Database {
        match self {
            DbAccess::Held(db) => db,
            DbAccess::Shared { lock, guard } => guard.get_or_init(|| lock.read()),
        }
    }
}

/// Per-run context shared by all operators.
pub struct MaintCtx<'a, 'db> {
    /// The backend database (already at the *new* state).
    pub db: &'a DbAccess<'db>,
    /// The partitions `Φ` of the sketch being maintained.
    pub pset: &'a Arc<PartitionSet>,
    /// Annotated deltas per base table, pre-filtered by selection
    /// push-down when enabled. Entries reference [`MaintCtx::pool`].
    pub deltas: &'a FxHashMap<String, DeltaBatch>,
    /// The annotation pool every batch of this run is interpreted
    /// against; operators combine annotations with its memoized unions.
    pub pool: &'a mut AnnotPool,
    /// Cost counters.
    pub metrics: &'a mut MaintMetrics,
    /// The run starts from the empty state (capture, recapture, full
    /// maintenance): there is no delta, and every select-project-join
    /// subtree's output is its whole result ([`IncNode::EngineSpj`]).
    pub from_empty: bool,
    /// Set by bounded-state operators when their buffer can no longer
    /// answer (paper §7.2 / §8.4.3: "our IMP will fully maintain the
    /// sketches"). The maintainer responds with a full recapture.
    pub needs_recapture: bool,
}

/// Default MIN/MAX buffer bound: the best `l` distinct values kept per
/// group (§7.2). Deltas are typically far smaller than this, so the
/// recapture fallback stays rare while state is bounded by default.
pub const DEFAULT_MINMAX_BUFFER: usize = 64;

/// Default per-side join-index budget (annotated tuples). Sized so the
/// evaluation workloads keep their sides materialised while a genuinely
/// huge side (≳ 100 MB of entries) falls back to per-batch outsourced
/// evaluation instead of exhausting memory.
pub const DEFAULT_JOIN_INDEX_BUDGET: usize = 1 << 20;

/// Default row-count crossover at which delta kernels switch from the
/// row-at-a-time path to the columnar one (normalize, annotate).
/// Priced by `bench_cycle`'s `core.normalize_ns_per_row` and
/// `sketch.annotate_ns_per_row`; override via [`OpConfig::columnar_min`].
pub const DEFAULT_COLUMNAR_MIN: usize = 32;

/// Tuning knobs for operator construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpConfig {
    /// Ignored. Join bloom filters (§7.2) are gone: they saved an
    /// outsourced round trip that the join-side indexes already avoid.
    /// Kept only for the `bench_cycle` replica, which still sets it by
    /// struct literal; removed together with that replica.
    pub bloom: bool,
    /// Keep only the best `l` values per group in MIN/MAX state (§7.2
    /// "Optimizing Minimum, Maximum, and Top-k"); `None` = unbounded.
    /// The bound of one [`crate::opt::Bounded`] set per aggregate, raised
    /// to at least one value. Bounded to [`DEFAULT_MINMAX_BUFFER`] by
    /// default, with the recapture fallback restoring exactness when the
    /// buffer exhausts.
    pub minmax_buffer: Option<usize>,
    /// Keep only the best `l` entries in top-k state; `None` = unbounded.
    /// The bound of the operator's [`crate::opt::Bounded`] set, raised to
    /// at least `k` entries.
    pub topk_buffer: Option<usize>,
    /// Materialise each join input as a delta-maintained
    /// [`crate::opt::SideIndex`] holding at most this many annotated
    /// tuples, so steady-state `Q ⋈ Δ` terms are answered in memory
    /// without a backend round trip. A side over budget falls back to
    /// per-batch outsourced evaluation (like `minmax_buffer`'s recapture
    /// fallback). `None` disables the indexes entirely.
    pub join_index_budget: Option<usize>,
    /// Ignored. Every join compiles to a [`NaryJoinOp`]; there is no
    /// binary-tree path left to choose. Kept only for the `bench_cycle`
    /// replica, which still sets it by struct literal; removed together
    /// with that replica.
    pub nary_join: bool,
    /// Batch-size crossover for the columnar delta kernels (normalize /
    /// annotate): batches of at least this many rows take
    /// the columnar path. Promoted from the former hardcoded
    /// `*_COLUMNAR_MIN = 32` constants so crossover tuning needs no
    /// rebuild.
    pub columnar_min: usize,
}

impl Default for OpConfig {
    fn default() -> Self {
        OpConfig {
            bloom: true,
            minmax_buffer: Some(DEFAULT_MINMAX_BUFFER),
            topk_buffer: None,
            join_index_budget: Some(DEFAULT_JOIN_INDEX_BUDGET),
            nary_join: true,
            columnar_min: DEFAULT_COLUMNAR_MIN,
        }
    }
}

/// One node of the incremental plan.
#[derive(Debug)]
pub enum IncNode {
    /// Table access: forwards the table's annotated delta (§5.2.1).
    TableAccess {
        /// Base table name.
        table: String,
    },
    /// Stateless selection σ (§5.2.3).
    Selection {
        /// Input operator.
        input: Box<IncNode>,
        /// Filter predicate.
        predicate: Expr,
    },
    /// Stateless projection Π (§5.2.2).
    Projection {
        /// Input operator.
        input: Box<IncNode>,
        /// Projection expressions.
        exprs: Vec<Expr>,
    },
    /// Join / cross product (§5.2.4) of any number of inputs, maintained
    /// by the telescoping delta rule with per-input indexes only.
    Nary(Box<NaryJoinOp>),
    /// The top of a maximal select-project-join subtree: forwards its
    /// input's deltas. From the empty state its output is the subtree's
    /// whole result, which the engine evaluates (`engine_rows`); the
    /// operators below do not run.
    EngineSpj {
        /// The subtree's plan.
        plan: LogicalPlan,
        /// The subtree's operators.
        input: Box<IncNode>,
    },
    /// Aggregation (§5.2.5/§5.2.6); also implements duplicate removal δ.
    Aggregate(Box<AggOp>),
    /// Top-k (§5.2.7).
    TopK(Box<TopKOp>),
    /// Order-preserving pass-through (Sort does not affect sketches).
    Passthrough {
        /// Input operator.
        input: Box<IncNode>,
    },
}

impl IncNode {
    /// Compile a logical plan into an incremental operator tree.
    pub fn build(plan: &LogicalPlan, config: &OpConfig) -> Result<IncNode> {
        IncNode::build_in(plan, config, false)
    }

    /// [`IncNode::build`] for `plan`, which lies inside a select-project-join
    /// subtree (`in_spj`) or not; the top of each maximal such subtree —
    /// every table is read inside one — is wrapped in
    /// [`IncNode::EngineSpj`].
    pub(crate) fn build_in(plan: &LogicalPlan, config: &OpConfig, in_spj: bool) -> Result<IncNode> {
        let top = !in_spj && is_spj(plan);
        let in_spj = in_spj || top;
        let node = match plan {
            LogicalPlan::Scan { table, .. } => IncNode::TableAccess {
                table: table.clone(),
            },
            LogicalPlan::Filter { input, predicate } => IncNode::Selection {
                input: Box::new(IncNode::build_in(input, config, in_spj)?),
                predicate: predicate.clone(),
            },
            LogicalPlan::Project { input, exprs, .. } => IncNode::Projection {
                input: Box::new(IncNode::build_in(input, config, in_spj)?),
                exprs: exprs.clone(),
            },
            LogicalPlan::Join { left, right, .. } => {
                if !is_spj(left) || !is_spj(right) {
                    return Err(CoreError::Unsupported(
                        "incremental joins require SPJ inputs; aggregation below a \
                         join is not supported (the paper's workloads join base \
                         tables / SPJ subqueries only)"
                            .into(),
                    ));
                }
                // A cross product does not flatten: two inputs, no classes.
                let flat = imp_sql::plan::flatten_join(plan).unwrap_or_else(|| NaryJoin {
                    inputs: vec![(**left).clone(), (**right).clone()],
                    classes: Vec::new(),
                });
                IncNode::Nary(Box::new(NaryJoinOp::new(&flat, config)?))
            }
            LogicalPlan::Aggregate { input, .. } => IncNode::Aggregate(Box::new(AggOp::new(
                IncNode::build(input, config)?,
                plan,
                config,
            )?)),
            LogicalPlan::Distinct { input } => {
                // δ(R) = γ_{;all-cols}(R): grouping on the full row with no
                // aggregation functions (paper Fig. 4).
                let arity = input.schema().arity();
                let grouping = LogicalPlan::Aggregate {
                    input: input.clone(),
                    group_by: (0..arity).map(Expr::Col).collect(),
                    aggs: Vec::new(),
                    schema: input.schema(),
                };
                IncNode::Aggregate(Box::new(AggOp::new(
                    IncNode::build(input, config)?,
                    &grouping,
                    config,
                )?))
            }
            LogicalPlan::TopK { input, keys, k } => IncNode::TopK(Box::new(TopKOp::new(
                IncNode::build(input, config)?,
                keys.clone(),
                *k,
                config.topk_buffer,
            ))),
            LogicalPlan::Sort { input, .. } => IncNode::Passthrough {
                input: Box::new(IncNode::build(input, config)?),
            },
            LogicalPlan::Except { .. } => {
                return Err(CoreError::Unsupported(
                    "set difference is not sketch-maintainable (paper §9 \
                     future work); IMP answers such queries directly"
                        .into(),
                ))
            }
        };
        Ok(if top {
            IncNode::EngineSpj {
                plan: plan.clone(),
                input: Box::new(node),
            }
        } else {
            node
        })
    }

    /// Process one maintenance batch: consume input deltas, update state,
    /// emit the output delta.
    pub fn process(&mut self, ctx: &mut MaintCtx<'_, '_>) -> Result<DeltaBatch> {
        match self {
            IncNode::TableAccess { table } => {
                // I(R, Δ𝒟) = Δℛ — the annotated delta, unmodified (§5.2.1).
                // Cloning a batch clones no tuple or bitvector data.
                Ok(ctx.deltas.get(table.as_str()).cloned().unwrap_or_default())
            }
            IncNode::Selection { input, predicate } => {
                let rows = input.process(ctx)?;
                let mut out = DeltaBatch::new();
                for d in rows {
                    ctx.metrics.rows_processed += 1;
                    if predicate
                        .eval_predicate(&d.row)
                        .map_err(imp_engine::EngineError::from)?
                    {
                        out.push(d);
                    }
                }
                Ok(out)
            }
            IncNode::Projection { input, exprs } => {
                let rows = input.process(ctx)?;
                let mut out = DeltaBatch::with_capacity(rows.len());
                for d in rows {
                    ctx.metrics.rows_processed += 1;
                    let vals = exprs
                        .iter()
                        .map(|e| e.eval(&d.row))
                        .collect::<std::result::Result<Vec<_>, _>>()
                        .map_err(imp_engine::EngineError::from)?;
                    out.push(DeltaEntry {
                        row: Row::new(vals),
                        annot: d.annot,
                        mult: d.mult,
                    });
                }
                Ok(out)
            }
            IncNode::Nary(n) => n.process(ctx),
            IncNode::EngineSpj { plan, .. } if ctx.from_empty => engine_rows(plan, ctx),
            IncNode::Aggregate(a) => a.process(ctx),
            IncNode::TopK(t) => t.process(ctx),
            IncNode::Passthrough { input } | IncNode::EngineSpj { input, .. } => input.process(ctx),
        }
    }

    /// Drop all operator state (before a recapture).
    pub fn reset(&mut self) {
        match self {
            IncNode::TableAccess { .. } => {}
            IncNode::Selection { input, .. }
            | IncNode::Projection { input, .. }
            | IncNode::Passthrough { input }
            | IncNode::EngineSpj { input, .. } => input.reset(),
            IncNode::Nary(n) => n.reset(),
            IncNode::Aggregate(a) => a.reset(),
            IncNode::TopK(t) => t.reset(),
        }
    }

    /// Visit this node's direct inputs, in plan order.
    pub(crate) fn for_each_child<'a>(&'a self, f: &mut dyn FnMut(&'a IncNode)) {
        match self {
            IncNode::TableAccess { .. } => {}
            IncNode::Selection { input, .. }
            | IncNode::Projection { input, .. }
            | IncNode::Passthrough { input }
            | IncNode::EngineSpj { input, .. } => f(input),
            IncNode::Nary(n) => n.children().iter().for_each(f),
            IncNode::Aggregate(a) => f(a.input_child()),
            IncNode::TopK(t) => f(t.input_child()),
        }
    }

    /// Entries and own-state bytes of the topmost top-k operator, if any
    /// (Fig. 13e/f reports this against the buffer bound).
    pub fn topk_state(&self) -> Option<(usize, usize)> {
        if let IncNode::TopK(t) = self {
            return Some((t.stored_entries(), t.own_heap_size()));
        }
        let mut found = None;
        self.for_each_child(&mut |c| found = found.or_else(|| c.topk_state()));
        found
    }

    /// Would a run whose deltas touch the tables `changed` accepts read a
    /// base table (a join input without a live index that another input's
    /// delta probes)?
    pub fn reads_base_tables(&self, changed: &dyn Fn(&str) -> bool) -> bool {
        let mut reads = match self {
            IncNode::Nary(n) => n.probes_unindexed(changed),
            _ => false,
        };
        self.for_each_child(&mut |c| reads = reads || c.reads_base_tables(changed));
        reads
    }

    /// Aggregate `(entries, bytes)` of every join-side index in the tree
    /// (Fig. 17 reports the index footprint next to the operator state).
    pub fn join_index_state(&self) -> (usize, usize) {
        let (mut entries, mut bytes) = match self {
            IncNode::Nary(n) => n.index_state(),
            _ => (0, 0),
        };
        self.for_each_child(&mut |c| {
            let (e, b) = c.join_index_state();
            entries += e;
            bytes += b;
        });
        (entries, bytes)
    }

    /// Hand every `Arc<BitVec>` annotation handle held in the tree's
    /// persistent state (top-k entries, join-side indexes) back to a
    /// just-flushed `pool`, restoring "the pool owns every state-held
    /// annotation" — the one O(state) pass a pool flush costs.
    /// Aggregation and merge state hold fragment *counters*, never
    /// handles, so they contribute nothing.
    pub fn readopt_annots(&self, pool: &mut AnnotPool) {
        match self {
            IncNode::Nary(n) => n.readopt_annots(pool),
            IncNode::TopK(t) => t.readopt_annots(pool),
            _ => {}
        }
        self.for_each_child(&mut |c| c.readopt_annots(pool));
    }

    /// Heap footprint of all operator state (Fig. 15/17). Every operator
    /// keeps a running total, so this costs O(#operators).
    pub fn heap_size(&self) -> usize {
        let mut size = match self {
            IncNode::Nary(n) => n.index_state().1,
            IncNode::Aggregate(a) => a.own_heap_size(),
            IncNode::TopK(t) => t.own_heap_size(),
            _ => 0,
        };
        self.for_each_child(&mut |c| size += c.heap_size());
        size
    }

    /// Arity of the topmost join in the circuit, if any (the differential
    /// tests assert how a plan flattened).
    pub fn nary_arity(&self) -> Option<usize> {
        self.find_nary(&mut |n| n.arity())
    }

    /// Per-input probe counts (last batch) of the topmost join, if
    /// any — surfaced through `MaintReport::nary_input_probes`.
    pub fn nary_probe_counts(&self) -> Option<Vec<u64>> {
        self.find_nary(&mut |n| n.probes_last().to_vec())
    }

    /// Canonical shape signature of the topmost join, if any (the
    /// canonicalization proptests compare these across parse trees).
    pub fn nary_signature(&self) -> Option<String> {
        self.find_nary(&mut |n| n.signature())
    }

    fn find_nary<T>(&self, f: &mut dyn FnMut(&NaryJoinOp) -> T) -> Option<T> {
        if let IncNode::Nary(n) = self {
            return Some(f(n));
        }
        let mut found = None;
        self.for_each_child(&mut |c| found = found.take().or_else(|| c.find_nary(f)));
        found
    }
}

/// The whole result of `plan`, a select-project-join plan, as a
/// from-empty run's delta ([`annotated_rows`]). No input is replayed as a
/// delta, no backend round trip is counted and no join input is indexed.
/// Traced as `capture_spj`, over a scan and a join alike: no join is
/// maintained here.
fn engine_rows(plan: &LogicalPlan, ctx: &mut MaintCtx<'_, '_>) -> Result<DeltaBatch> {
    let _span = crate::obs::trace::span("capture_spj");
    let mut stats = imp_engine::ExecStats::default();
    let rows = annotated_rows(plan, ctx.db.get(), ctx.pset, ctx.pool, &mut stats)?;
    ctx.metrics.rows_processed += rows.len() as u64;
    Ok(rows)
}

/// The rows of `plan`, a select-project-join plan, as the engine evaluates
/// it ([`imp_engine::eval::capture_rows`]: position tuples, NULL-free Int
/// keys hashed as `i64`s), reading each partitioned source's partition
/// column through the positions; each row is annotated with the pooled
/// union of its sources' fragment singletons (the fold starts at the first
/// source's singleton, so a single-source row asks the pool for no union;
/// a row with no partitioned source gets the empty annotation). Every row
/// the maintainer reads from base tables comes from here — a from-empty
/// run's input (`engine_rows`) and a join side's index ([`NaryJoinOp`]) —
/// or from the engine's group table ([`AggOp`]).
pub(crate) fn annotated_rows(
    plan: &LogicalPlan,
    db: &Database,
    pset: &PartitionSet,
    pool: &mut AnnotPool,
    stats: &mut imp_engine::ExecStats,
) -> Result<DeltaBatch> {
    let column = |table: &str| partition_column(pset, table);
    let captured = imp_engine::eval::capture_rows(plan, db, &column, stats)?;
    let mut frags = Vec::new();
    source_fragments(pset, &captured.partitioned, &mut frags);
    let mut out = DeltaBatch::with_capacity(captured.rows.len());
    for (t, (row, mult)) in captured.rows.into_iter().enumerate() {
        let annot = match frags.split_first() {
            None => pool.empty_id(),
            Some((first, rest)) => {
                let first = pool.singleton(first[t] as usize);
                rest.iter().fold(first, |annot, f| {
                    let single = pool.singleton(f[t] as usize);
                    pool.union(annot, single)
                })
            }
        };
        out.push(DeltaEntry { row, annot, mult });
    }
    Ok(out)
}

/// The column `Φ` partitions `table` on, if it partitions it: what a
/// from-empty run asks the engine to read per tuple.
pub(crate) fn partition_column(pset: &PartitionSet, table: &str) -> Option<usize> {
    pset.for_table(table).map(|(_, _, p)| p.column)
}

/// The global fragment of each tuple in each partitioned source, into
/// `out[source]` (resized to one vector per source).
pub(crate) fn source_fragments(
    pset: &PartitionSet,
    partitioned: &[(&str, PartitionValues<'_>)],
    out: &mut Vec<Vec<u32>>,
) {
    out.resize_with(partitioned.len(), Vec::new);
    for (frags, (table, values)) in out.iter_mut().zip(partitioned) {
        let (_, offset, p) = pset
            .for_table(table)
            .expect("the engine reads partition columns of partitioned tables only");
        frags.clear();
        p.fragments_of(values, frags);
        frags.iter_mut().for_each(|f| *f += offset as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_sketch::RangePartition;
    use imp_storage::{row, DataType, Field, Schema, Value};

    /// `a(k, v)` and `b(k2, w)`, five rows each, keys 0..5.
    fn two_tables() -> Database {
        let mut db = Database::new();
        for (name, key, col) in [("a", "k", "v"), ("b", "k2", "w")] {
            let schema = Schema::new(vec![
                Field::new(key, DataType::Int),
                Field::new(col, DataType::Int),
            ]);
            db.create_table(name, schema).unwrap();
            let rows = (0..5).map(|i| row![i, i * 10]);
            db.table_mut(name).unwrap().bulk_load(rows).unwrap();
        }
        db
    }

    /// The union lookups `annotated_rows` asks the pool for, and its rows.
    fn union_lookups(sql: &str, tables: &[&str]) -> (u64, DeltaBatch, AnnotPool) {
        let db = two_tables();
        let plan = db.plan_sql(sql).unwrap();
        let key = |t: &str| if t == "a" { "k" } else { "k2" };
        let cut = |t: &str| RangePartition::new(t, key(t), 0, vec![Value::Int(2)]).unwrap();
        let pset = PartitionSet::new(tables.iter().map(|t| cut(t)).collect()).unwrap();
        let mut pool = AnnotPool::new(pset.total_fragments());
        let mut stats = imp_engine::ExecStats::default();
        let rows = annotated_rows(&plan, &db, &pset, &mut pool, &mut stats).unwrap();
        let s = pool.stats();
        (s.unions_computed + s.union_memo_hits, rows, pool)
    }

    /// A row's fold starts at its first source's singleton: one union
    /// lookup fewer per row than sources, none for a single source, and
    /// the same annotations as a fold from the empty one.
    #[test]
    fn the_annotation_fold_starts_at_the_first_source() {
        let scan = "SELECT k, v FROM a WHERE k < 4";
        let (lookups, rows, pool) = union_lookups(scan, &["a"]);
        assert_eq!(rows.len(), 4);
        assert_eq!(lookups, 0, "a single-source row unions nothing");
        for d in &rows {
            let k = d.row[0].as_i64().unwrap();
            assert_eq!(
                pool.get(d.annot).iter_ones().collect::<Vec<_>>(),
                [usize::from(k >= 2)]
            );
        }

        let join = "SELECT k, w FROM a JOIN b ON (k = k2)";
        let (lookups, rows, pool) = union_lookups(join, &["a", "b"]);
        assert_eq!(rows.len(), 5);
        assert_eq!(lookups, 5, "two sources: one union per row");
        for d in &rows {
            let f = usize::from(d.row[0].as_i64().unwrap() >= 2);
            assert_eq!(
                pool.get(d.annot).iter_ones().collect::<Vec<_>>(),
                [f, 2 + f]
            );
        }

        // No partitioned source: the empty annotation, no lookup.
        let (lookups, rows, pool) = union_lookups(scan, &["b"]);
        assert_eq!(lookups, 0);
        assert!(rows.iter().all(|d| d.annot == pool.empty_id()));
    }
}
