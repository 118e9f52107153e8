//! Incremental aggregation (paper §5.2.5 / §5.2.6).
//!
//! Per group `g` the state holds the running aggregates, the group's tuple
//! count `CNT`, and the fragment counters `ℱ_g`. SUM / COUNT / AVG share a
//! numeric accumulator; MIN / MAX keep an ordered multiset (`BTreeMap`, the
//! paper's red-black tree) — optionally bounded to the best `l` values
//! with a recapture fallback (§7.2).
//!
//! Group results are emitted as one `Δ-⟨old⟩, Δ+⟨new⟩` pair per *touched*
//! group per batch (§7.1: "to avoid producing multiple delta tuples per
//! group we maintain copies of the previous states of groups"). Whatever
//! its size, a batch takes one path: its group keys are extracted into a
//! key column, a stable sort makes each group's rows one run, and each run
//! is one visit to its group — one hash lookup that snapshots the old
//! output, applies the rows in input order, checks the counters, emits the
//! pair and removes the group if it died. A group whose rows all fall in
//! one fragment takes that fragment's pooled singleton annotation instead
//! of building and hashing a bitvector.
//!
//! From the empty state (capture, recapture, full maintenance) an
//! aggregation with no MIN/MAX whose input is select-project-join —
//! a scan prefix (`(Project | Filter)* ← Scan`) or any tree of joins,
//! filters and projections over scans — builds no input row: the engine groups
//! its input on its group table ([`imp_engine::eval::capture_groups`]),
//! streaming a scan prefix batch by batch or grouping a join's position
//! tuples, and tells the operator each tuple's group and the partition
//! column's value in each of its partitioned sources; the operator maps
//! the values to fragments ([`imp_sketch::RangePartition::fragments_of`])
//! and counts each group's tuples per fragment of their pooled union (a
//! self-join whose two scans meet one fragment counts it once). Each
//! finished group becomes the state the row path builds from the same
//! tuples — `CNT`, accumulators and `ℱ_g` — visited in the row path's key
//! order. Over a scan prefix `ℱ_g` is filled in the order the rows met its
//! fragments, as on the row path, so state, output and encoding are
//! byte-identical; over a join the engine's tuple order sets the order
//! `ℱ_g` is filled in and Float sums are added in, so state equals the row
//! path's by value, Float sums up to rounding. MIN/MAX (the group table
//! keeps no bounded multiset) takes the row path: its input's rows, which
//! the engine evaluates ([`IncNode::EngineSpj`]).

use super::{partition_column, source_fragments, IncNode, MaintCtx};
use crate::delta::{DeltaBatch, DeltaEntry};
use crate::error::CoreError;
use crate::fragcount::FragCounts;
use crate::Result;
use imp_engine::eval::{AggAcc, CaptureBatch, CapturedGroups, NumAcc};
use imp_engine::ExecStats;
use imp_sql::{AggFunc, AggSpec, Expr, LogicalPlan};
use imp_storage::{key_runs, sort_keys_stable, AnnotId, AnnotPool, FxHashMap, Row, Value};
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;

/// Incremental aggregation operator (also implements δ when `aggs` is
/// empty: output is the group key alone).
#[derive(Debug)]
pub struct AggOp {
    input: Box<IncNode>,
    group_by: Vec<Expr>,
    aggs: Vec<AggSpec>,
    /// The aggregation's plan, when a from-empty run groups it on the
    /// engine's group table: its input is select-project-join and it has
    /// no MIN/MAX.
    capture: Option<LogicalPlan>,
    groups: FxHashMap<Row, GroupState>,
    /// Aggregation without GROUP BY: the single group always exists.
    global: bool,
    minmax_buffer: Option<usize>,
    /// Running Σ key bytes + [`state_bytes`] over `groups`, adjusted by the
    /// before/after footprint of each group a batch touches.
    heap_bytes: usize,
}

/// Heap footprint one group accounts for (Fig. 15/17) beside its key:
/// fragment counters, MIN/MAX trees and the state header. O(#aggregates).
fn state_bytes(st: &GroupState) -> usize {
    st.frags.heap_size()
        + st.accs.iter().map(IncAcc::heap_size).sum::<usize>()
        + std::mem::size_of::<GroupState>()
}

/// Per-group state `S[g] = (aggregates, CNT, P, ℱ_g)`.
#[derive(Debug, Clone)]
pub struct GroupState {
    /// Total multiplicity of input tuples in the group (`CNT`).
    pub count: i64,
    /// Fragment counters `ℱ_g`.
    pub frags: FragCounts,
    /// One accumulator per aggregation function.
    pub accs: Vec<IncAcc>,
}

impl GroupState {
    fn new(aggs: &[AggSpec], buffer: Option<usize>) -> GroupState {
        GroupState {
            count: 0,
            frags: FragCounts::new(),
            accs: aggs.iter().map(|a| IncAcc::new(a.func, buffer)).collect(),
        }
    }
}

/// Incremental accumulator for one aggregation function.
#[derive(Debug, Clone)]
pub enum IncAcc {
    /// `SUM(a)`: running sum + count of non-NULL inputs.
    Sum {
        /// The running sum.
        sum: NumAcc,
        /// Non-NULL input multiplicity.
        non_null: i64,
    },
    /// `COUNT(a)` / `COUNT(*)`.
    Count {
        /// Counted multiplicity.
        non_null: i64,
    },
    /// `AVG(a)` = SUM / CNT (§5.2.5).
    Avg {
        /// The running sum.
        sum: NumAcc,
        /// Non-NULL input multiplicity.
        non_null: i64,
    },
    /// `MIN(a)`: ordered multiset of values.
    Min(OrderedAcc),
    /// `MAX(a)`: ordered multiset of values.
    Max(OrderedAcc),
}

impl IncAcc {
    fn new(func: AggFunc, buffer: Option<usize>) -> IncAcc {
        match func {
            AggFunc::Sum => IncAcc::Sum {
                sum: NumAcc::default(),
                non_null: 0,
            },
            AggFunc::Count => IncAcc::Count { non_null: 0 },
            AggFunc::Avg => IncAcc::Avg {
                sum: NumAcc::default(),
                non_null: 0,
            },
            AggFunc::Min => IncAcc::Min(OrderedAcc::new(true, buffer)),
            AggFunc::Max => IncAcc::Max(OrderedAcc::new(false, buffer)),
        }
    }

    /// Apply one input (`arg = None` for `count(*)`).
    fn update(&mut self, arg: Option<&Value>, mult: i64) -> Result<bool> {
        let mut needs_recapture = false;
        match self {
            IncAcc::Count { non_null } => match arg {
                None => *non_null += mult,
                Some(v) if !v.is_null() => *non_null += mult,
                _ => {}
            },
            IncAcc::Sum { sum, non_null } | IncAcc::Avg { sum, non_null } => {
                if let Some(v) = arg {
                    if !v.is_null() {
                        sum.add(v, mult).map_err(CoreError::Engine)?;
                        *non_null += mult;
                    }
                }
            }
            IncAcc::Min(acc) | IncAcc::Max(acc) => {
                if let Some(v) = arg {
                    if !v.is_null() {
                        needs_recapture = acc.update(v, mult);
                    }
                }
            }
        }
        Ok(needs_recapture)
    }

    /// The accumulator a group table's `acc` stands for. MIN/MAX never
    /// come from the group table, which keeps no bounded multiset
    /// ([`AggOp::new`] leaves them on rows).
    fn captured(acc: &AggAcc) -> IncAcc {
        match *acc {
            AggAcc::Sum { sum, non_null } => IncAcc::Sum { sum, non_null },
            AggAcc::Count { count } => IncAcc::Count { non_null: count },
            AggAcc::Avg { sum, non_null } => IncAcc::Avg { sum, non_null },
            AggAcc::Min { .. } | AggAcc::Max { .. } => {
                unreachable!("MIN/MAX state is built from rows")
            }
        }
    }

    /// Current output value.
    fn finish(&self) -> Value {
        match self {
            IncAcc::Count { non_null } => Value::Int(*non_null),
            IncAcc::Sum { sum, non_null } => {
                if *non_null == 0 {
                    Value::Null
                } else {
                    sum.value()
                }
            }
            IncAcc::Avg { sum, non_null } => {
                if *non_null == 0 {
                    Value::Null
                } else {
                    Value::Float(sum.as_f64() / *non_null as f64)
                }
            }
            IncAcc::Min(acc) | IncAcc::Max(acc) => acc.best().cloned().unwrap_or(Value::Null),
        }
    }

    fn heap_size(&self) -> usize {
        match self {
            IncAcc::Min(acc) | IncAcc::Max(acc) => acc.heap_size(),
            _ => 0,
        }
    }
}

/// Ordered multiset (`CNT` tree of §5.2.6), optionally bounded to the best
/// `l` distinct values (§7.2).
#[derive(Debug, Clone)]
pub struct OrderedAcc {
    tree: BTreeMap<Value, i64>,
    /// `true` = MIN (best = smallest); `false` = MAX.
    is_min: bool,
    buffer: Option<usize>,
    /// Values beyond the horizon were evicted at some point.
    truncated: bool,
    /// Running Σ [`tree_entry_bytes`] over the stored values.
    heap_bytes: usize,
}

/// Heap bytes one stored value of the ordered multiset accounts for.
fn tree_entry_bytes(v: &Value) -> usize {
    std::mem::size_of::<Value>() + std::mem::size_of::<i64>() + 48 + v.heap_size()
}

impl OrderedAcc {
    fn new(is_min: bool, buffer: Option<usize>) -> OrderedAcc {
        OrderedAcc {
            tree: BTreeMap::new(),
            is_min,
            buffer,
            truncated: false,
            heap_bytes: 0,
        }
    }

    /// Best value (minimum or maximum).
    pub fn best(&self) -> Option<&Value> {
        if self.is_min {
            self.tree.keys().next()
        } else {
            self.tree.keys().next_back()
        }
    }

    /// Worst *stored* value — the truncation horizon.
    fn horizon(&self) -> Option<&Value> {
        if self.is_min {
            self.tree.keys().next_back()
        } else {
            self.tree.keys().next()
        }
    }

    /// Is `v` strictly beyond the stored horizon (i.e. could only have
    /// been evicted, never needed)?
    fn beyond_horizon(&self, v: &Value) -> bool {
        match self.horizon() {
            None => true,
            Some(h) => {
                if self.is_min {
                    v > h
                } else {
                    v < h
                }
            }
        }
    }

    /// Apply `mult` copies of `v`. Returns `true` when the state can no
    /// longer answer and a recapture is required.
    fn update(&mut self, v: &Value, mult: i64) -> bool {
        if mult > 0 {
            if self.truncated && self.beyond_horizon(v) {
                // Invariant: after truncation the tree holds exactly the
                // best `len` values of the full multiset (evicted values
                // are all beyond the horizon). Inserting past the horizon
                // would break that prefix property, so such values are
                // ignored — they cannot become the min/max before the
                // recapture that any horizon underflow triggers.
                return false;
            }
            match self.tree.get_mut(v) {
                Some(c) => *c += mult,
                None => {
                    self.heap_bytes += tree_entry_bytes(v);
                    self.tree.insert(v.clone(), mult);
                }
            }
            if let Some(l) = self.buffer {
                while self.tree.len() > l {
                    let evicted = if self.is_min {
                        self.tree.pop_last()
                    } else {
                        self.tree.pop_first()
                    };
                    if let Some((k, _)) = evicted {
                        self.heap_bytes -= tree_entry_bytes(&k);
                        self.truncated = true;
                    }
                }
            }
            return false;
        }
        // Deletion.
        match self.tree.get_mut(v) {
            Some(c) => {
                *c += mult;
                if *c <= 0 {
                    let corrupt = *c < 0;
                    self.tree.remove(v);
                    self.heap_bytes -= tree_entry_bytes(v);
                    if corrupt {
                        // More deletions than insertions seen: only
                        // explicable by truncation; recapture.
                        return true;
                    }
                }
                // Buffer exhausted: every stored value gone but older
                // values were evicted — we no longer know the min/max.
                self.truncated && self.tree.is_empty()
            }
            None => {
                if self.truncated && self.beyond_horizon(v) {
                    // Deleting an evicted value: no effect on the best l.
                    false
                } else if self.truncated {
                    // Inside the horizon but unknown: state is stale.
                    true
                } else {
                    // Deletion of a never-inserted value: inconsistent input.
                    true
                }
            }
        }
    }

    /// Number of stored distinct values.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True iff no values are stored.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    fn heap_size(&self) -> usize {
        self.heap_bytes
    }
}

impl AggOp {
    /// The operator maintaining `plan`, an aggregation whose input
    /// `input` maintains.
    pub fn new(input: IncNode, plan: &LogicalPlan, config: &super::OpConfig) -> Result<AggOp> {
        let LogicalPlan::Aggregate { group_by, aggs, .. } = plan else {
            return Err(CoreError::Unsupported(format!(
                "an aggregation operator maintains an aggregation, not {}",
                plan.explain()
            )));
        };
        let minmax = |spec: &AggSpec| matches!(spec.func, AggFunc::Min | AggFunc::Max);
        let capture = (!aggs.iter().any(minmax) && imp_engine::eval::aggregates_spj(plan))
            .then(|| plan.clone());
        let mut op = AggOp {
            input: Box::new(input),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
            capture,
            groups: FxHashMap::default(),
            global: group_by.is_empty(),
            minmax_buffer: config.minmax_buffer,
            heap_bytes: 0,
        };
        op.clear_groups();
        Ok(op)
    }

    /// The plan a from-empty run groups on the engine's group table.
    fn group_table_plan(&self) -> Option<&LogicalPlan> {
        #[cfg(test)]
        if tests::ROW_CAPTURES_ONLY.with(std::cell::Cell::get) {
            return None;
        }
        self.capture.as_ref()
    }

    /// Back to the empty state. The single group of a global aggregate
    /// exists even on empty input (SUM → NULL, COUNT → 0).
    fn clear_groups(&mut self) {
        self.groups.clear();
        self.heap_bytes = 0;
        if self.global {
            let st = GroupState::new(&self.aggs, self.minmax_buffer);
            self.insert_group(Row::new(vec![]), st);
        }
    }

    fn insert_group(&mut self, key: Row, st: GroupState) {
        self.heap_bytes += key.heap_size() + state_bytes(&st);
        self.groups.insert(key, st);
    }

    /// Process one batch (see module docs).
    pub fn process(&mut self, ctx: &mut MaintCtx<'_, '_>) -> Result<DeltaBatch> {
        if let Some(plan) = self.group_table_plan().filter(|_| ctx.from_empty) {
            #[cfg(test)]
            tests::TYPED_CAPTURES.with(|n| n.set(n.get() + 1));
            let groups = group_table(plan, ctx)?;
            return self.adopt_group_table(groups, ctx);
        }
        let input = self.input.process(ctx)?;
        if input.is_empty() {
            return Ok(self.no_input(ctx));
        }
        let _span = crate::obs::trace::span("aggregate_delta");
        ctx.metrics.rows_processed += input.len() as u64;
        let keys: Vec<Row> = input
            .iter()
            .map(|d| self.group_by.iter().map(|g| g.eval(&d.row)).collect())
            .collect::<std::result::Result<_, _>>()
            .map_err(imp_engine::EngineError::from)?;
        let total = ctx.pset.total_fragments();
        let mut out = DeltaBatch::new();
        for run in key_runs(&keys, &sort_keys_stable(&keys)) {
            ctx.metrics.groups_touched += 1;
            let rows = run.iter().map(|&i| &input[i as usize]);
            let apply = |st: &mut GroupState, aggs: &[AggSpec], ctx: &mut MaintCtx<'_, '_>| {
                rows.into_iter()
                    .try_for_each(|d| apply_entry(st, d, aggs, ctx))
            };
            self.visit_group(&keys[run[0] as usize], apply, total, &mut out, ctx)?;
        }
        Ok(out)
    }

    /// The from-empty run of an aggregation over a scan prefix, from its
    /// [`group_table`]: each group becomes the state the row path would
    /// have built from the same rows — the same `CNT`, accumulators, and
    /// `ℱ_g` filled in the order the rows met its fragments — visited in
    /// the row path's key order.
    fn adopt_group_table(
        &mut self,
        (groups, mut counts): (CapturedGroups, Vec<GroupRows>),
        ctx: &mut MaintCtx<'_, '_>,
    ) -> Result<DeltaBatch> {
        if counts.is_empty() {
            return Ok(self.no_input(ctx));
        }
        let _span = crate::obs::trace::span("aggregate_delta");
        ctx.metrics.rows_processed += counts.iter().map(|&(rows, _)| rows as u64).sum::<u64>();
        let keys: Vec<Row> = (0..counts.len())
            .map(|g| Row::new(groups.key(g).to_vec()))
            .collect();
        let total = ctx.pset.total_fragments();
        let mut out = DeltaBatch::new();
        for g in sort_keys_stable(&keys) {
            let g = g as usize;
            ctx.metrics.groups_touched += 1;
            let (count, frags) = std::mem::take(&mut counts[g]);
            let accs = groups.accumulators(g).iter().map(IncAcc::captured);
            let captured = GroupState {
                count,
                frags,
                accs: accs.collect(),
            };
            let apply = |st: &mut GroupState, _: &[AggSpec], _: &mut MaintCtx<'_, '_>| {
                *st = captured;
                Ok(())
            };
            self.visit_group(&keys[g], apply, total, &mut out, ctx)?;
        }
        Ok(out)
    }

    /// The output of a run whose input is empty: nothing, except from
    /// empty, where a global aggregate's one group — empty, SUM NULL and
    /// COUNT 0 — is the whole result.
    fn no_input(&self, ctx: &mut MaintCtx<'_, '_>) -> DeltaBatch {
        let mut out = DeltaBatch::new();
        let key = Row::new(vec![]);
        if let Some(st) = self.groups.get(&key).filter(|_| ctx.from_empty) {
            let total = ctx.pset.total_fragments();
            if let Some((row, annot)) = output(&key, st, self.global, total, ctx.pool) {
                out.push(DeltaEntry {
                    row,
                    annot,
                    mult: 1,
                });
            }
        }
        out
    }

    /// One visit to the group of `key` (created on first sight): snapshot
    /// its output, `apply` its input, check its counters, emit
    /// `Δ-old / Δ+new` when the output changed, and remove it if it died.
    /// `heap_bytes` moves by the group's before/after footprint — also
    /// when a row fails, so the total never drifts from the state.
    fn visit_group(
        &mut self,
        key: &Row,
        apply: impl FnOnce(&mut GroupState, &[AggSpec], &mut MaintCtx<'_, '_>) -> Result<()>,
        total: usize,
        out: &mut DeltaBatch,
        ctx: &mut MaintCtx<'_, '_>,
    ) -> Result<()> {
        let key_bytes = key.heap_size();
        let (mut group, old, before) = match self.groups.entry(key.clone()) {
            Entry::Occupied(o) => {
                let old = output(o.key(), o.get(), self.global, total, ctx.pool);
                let before = key_bytes + state_bytes(o.get());
                (o, old, before)
            }
            Entry::Vacant(v) => {
                let st = GroupState::new(&self.aggs, self.minmax_buffer);
                (v.insert_entry(st), None, 0)
            }
        };
        let applied = apply(group.get_mut(), &self.aggs, ctx);
        let st = group.get();
        self.heap_bytes = self.heap_bytes + key_bytes + state_bytes(st) - before;
        applied?;
        if st.count < 0 || st.frags.any_negative() {
            return Err(CoreError::StateCorrupt(format!(
                "group {key} has a negative count ({}) or fragment counter",
                st.count
            )));
        }
        let new = output(key, st, self.global, total, ctx.pool);
        if st.count == 0 && !self.global {
            self.heap_bytes -= key_bytes + state_bytes(st);
            group.remove();
        }
        if old != new {
            for (row, annot, mult) in [(old, -1), (new, 1)]
                .into_iter()
                .filter_map(|(o, mult)| o.map(|(row, annot)| (row, annot, mult)))
            {
                out.push(DeltaEntry { row, annot, mult });
            }
        }
        Ok(())
    }

    /// Drop all group state.
    pub fn reset(&mut self) {
        self.clear_groups();
        self.input.reset();
    }

    /// Input child (state persistence walks the tree).
    pub fn input_child(&self) -> &IncNode {
        &self.input
    }

    /// Mutable input child.
    pub fn input_child_mut(&mut self) -> &mut IncNode {
        &mut self.input
    }

    /// Number of groups currently tracked.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Serialize the group state (paper §2: operator state can be
    /// persisted in the database and restored later).
    pub fn encode_state(&self, buf: &mut bytes::BytesMut) {
        use imp_storage::codec::*;
        encode_u64(buf, self.groups.len() as u64);
        // Deterministic order for reproducible encodings.
        let mut keys: Vec<&Row> = self.groups.keys().collect();
        keys.sort();
        for key in keys {
            let st = &self.groups[key];
            encode_row(buf, key);
            encode_i64(buf, st.count);
            encode_u64(buf, st.frags.len() as u64);
            for (f, c) in st.frags.iter() {
                encode_u64(buf, f as u64);
                encode_i64(buf, c);
            }
            for acc in &st.accs {
                match acc {
                    IncAcc::Sum { sum, non_null } | IncAcc::Avg { sum, non_null } => {
                        let (i, f, isf) = sum.to_parts();
                        encode_i64(buf, i);
                        encode_f64(buf, f);
                        encode_u64(buf, isf as u64);
                        encode_i64(buf, *non_null);
                    }
                    IncAcc::Count { non_null } => encode_i64(buf, *non_null),
                    IncAcc::Min(o) | IncAcc::Max(o) => {
                        encode_u64(buf, o.truncated as u64);
                        encode_u64(buf, o.tree.len() as u64);
                        for (v, c) in &o.tree {
                            encode_value(buf, v);
                            encode_i64(buf, *c);
                        }
                    }
                }
            }
        }
    }

    /// Restore group state written by [`AggOp::encode_state`].
    pub fn decode_state(&mut self, buf: &mut bytes::Bytes) -> crate::Result<()> {
        use imp_storage::codec::*;
        self.groups.clear();
        self.heap_bytes = 0;
        let n = decode_u64(buf)?;
        for _ in 0..n {
            let key = decode_row(buf)?;
            let count = decode_i64(buf)?;
            let mut frags = FragCounts::new();
            let nf = decode_u64(buf)?;
            for _ in 0..nf {
                let f = decode_u64(buf)? as u32;
                let c = decode_i64(buf)?;
                frags.add(f, c);
            }
            let mut accs = Vec::with_capacity(self.aggs.len());
            for spec in &self.aggs {
                let acc = match spec.func {
                    AggFunc::Sum | AggFunc::Avg => {
                        let i = decode_i64(buf)?;
                        let f = decode_f64(buf)?;
                        let isf = decode_u64(buf)? != 0;
                        let non_null = decode_i64(buf)?;
                        let sum = NumAcc::from_parts(i, f, isf);
                        if spec.func == AggFunc::Sum {
                            IncAcc::Sum { sum, non_null }
                        } else {
                            IncAcc::Avg { sum, non_null }
                        }
                    }
                    AggFunc::Count => IncAcc::Count {
                        non_null: decode_i64(buf)?,
                    },
                    AggFunc::Min | AggFunc::Max => {
                        let is_min = spec.func == AggFunc::Min;
                        let mut o = OrderedAcc::new(is_min, self.minmax_buffer);
                        o.truncated = decode_u64(buf)? != 0;
                        for _ in 0..decode_u64(buf)? {
                            let v = decode_value(buf)?;
                            o.heap_bytes += tree_entry_bytes(&v);
                            o.tree.insert(v, decode_i64(buf)?);
                        }
                        if is_min {
                            IncAcc::Min(o)
                        } else {
                            IncAcc::Max(o)
                        }
                    }
                };
                accs.push(acc);
            }
            self.insert_group(key, GroupState { count, frags, accs });
        }
        Ok(())
    }

    /// Heap footprint of the group state (Fig. 15/17), input excluded.
    /// O(1): the per-group sum is a running total.
    pub fn own_heap_size(&self) -> usize {
        self.heap_bytes
    }
}

/// Current output (row, pooled annotation) of a group's state, or `None`
/// once the group is empty (a global aggregate's single group always has
/// one). The group's sketch `{ρ | ℱ_g[ρ] > 0}` is interned, so unchanged
/// groups re-use the same id; a one-fragment sketch is the pool's cached
/// singleton, which is the same id without building the bitvector.
fn output(
    key: &Row,
    st: &GroupState,
    global: bool,
    total: usize,
    pool: &mut AnnotPool,
) -> Option<(Row, AnnotId)> {
    if st.count <= 0 && !global {
        return None;
    }
    let mut vals: Vec<Value> = key.values().to_vec();
    vals.extend(st.accs.iter().map(IncAcc::finish));
    let annot = match st.frags.single() {
        Some(frag) => pool.singleton(frag as usize),
        None => pool.intern(st.frags.to_bits(total)),
    };
    Some((Row::new(vals), annot))
}

/// Apply one input entry to a group's state: tuple count, fragment
/// counters `ℱ_g`, and every accumulator.
fn apply_entry(
    st: &mut GroupState,
    d: &DeltaEntry,
    aggs: &[AggSpec],
    ctx: &mut MaintCtx<'_, '_>,
) -> Result<()> {
    st.count += d.mult;
    for frag in ctx.pool.get(d.annot).iter_ones() {
        st.frags.add(frag as u32, d.mult);
    }
    for (acc, spec) in st.accs.iter_mut().zip(aggs) {
        let arg = match &spec.arg {
            Some(e) => Some(e.eval(&d.row).map_err(imp_engine::EngineError::from)?),
            None => None,
        };
        if acc.update(arg.as_ref(), d.mult)? {
            ctx.needs_recapture = true;
        }
    }
    Ok(())
}

/// The end of the run of tuples from `start` on that `same` accepts
/// (`start` itself always belongs), at most `len`.
#[inline]
fn run_end(start: usize, len: usize, same: impl Fn(usize) -> bool) -> usize {
    (start + 1..len).find(|&i| !same(i)).unwrap_or(len)
}

/// A group of the group table: its tuples (`CNT`) and its tuples per
/// fragment (`ℱ_g`).
type GroupRows = (i64, FragCounts);

/// Group `plan`, an aggregation over a select-project-join input, on the
/// engine's group table, and count per group its tuples and its tuples in
/// each fragment of their pooled union, in the order the engine meets
/// them — one entry per group, numbered as the group table numbers them.
fn group_table(
    plan: &LogicalPlan,
    ctx: &MaintCtx<'_, '_>,
) -> Result<(CapturedGroups, Vec<GroupRows>)> {
    let pset = ctx.pset;
    let mut counts: Vec<GroupRows> = Vec::new();
    let mut frags = Vec::new();
    let mut sink = |batch: &CaptureBatch<'_>| {
        source_fragments(pset, batch.partitioned, &mut frags);
        count_fragments(&mut counts, batch.groups, &frags);
    };
    let mut stats = ExecStats::default();
    let column = |table: &str| partition_column(pset, table);
    let groups =
        imp_engine::eval::capture_groups(plan, ctx.db.get(), &column, &mut sink, &mut stats)?;
    Ok((groups, counts))
}

/// Add tuples to their groups' counts: each tuple in `groups[t]` counts
/// once to `CNT`, and once to each distinct fragment among its sources'
/// `frags[_][t]` (the fragments of its pooled union: a self-join whose two
/// scans meet one fragment counts it once). One step per run of tuples
/// with the same group and fragments.
fn count_fragments(counts: &mut Vec<GroupRows>, groups: &[usize], frags: &[Vec<u32>]) {
    let mut start = 0;
    while start < groups.len() {
        let group = groups[start];
        // Most captures partition one source: compare only what can differ.
        let end = match frags {
            [] => run_end(start, groups.len(), |i| groups[i] == group),
            [f] => run_end(start, groups.len(), |i| {
                groups[i] == group && f[i] == f[start]
            }),
            _ => run_end(start, groups.len(), |i| {
                groups[i] == group && frags.iter().all(|f| f[i] == f[start])
            }),
        };
        if counts.len() <= group {
            counts.resize_with(group + 1, GroupRows::default);
        }
        let (rows, in_frags) = &mut counts[group];
        let n = (end - start) as i64;
        *rows += n;
        for (source, f) in frags.iter().enumerate() {
            if frags[..source]
                .iter()
                .all(|earlier| earlier[start] != f[start])
            {
                in_frags.add(f[start], n);
            }
        }
        start = end;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::heap_oracle::Walk;
    use std::cell::Cell;

    thread_local! {
        /// From-empty runs on this thread that grouped on the engine's
        /// group table.
        pub(crate) static TYPED_CAPTURES: Cell<u64> = const { Cell::new(0) };
        /// Send every from-empty run on this thread down the row path
        /// (the reference the bootstrap differential compares against).
        pub(crate) static ROW_CAPTURES_ONLY: Cell<bool> = const { Cell::new(false) };
    }

    /// The accounting oracle: the walks the running totals replaced.
    impl OrderedAcc {
        fn walked_heap_size(&self, w: &mut Walk<'_>) -> usize {
            w.visit(self.tree.len());
            self.tree.keys().map(tree_entry_bytes).sum()
        }
    }

    /// One group by value: key, `CNT`, `ℱ_g` by fragment, output values.
    pub(crate) type GroupByValue = (Row, i64, Vec<(u32, i64)>, Vec<Value>);

    impl AggOp {
        /// Every group by value, by key.
        pub(crate) fn groups_by_value(&self) -> Vec<GroupByValue> {
            let mut groups: Vec<GroupByValue> = (self.groups.iter())
                .map(|(key, st)| {
                    let mut frags: Vec<(u32, i64)> = st.frags.iter().collect();
                    frags.sort_unstable();
                    let values = st.accs.iter().map(IncAcc::finish).collect();
                    (key.clone(), st.count, frags, values)
                })
                .collect();
            groups.sort_by(|a, b| a.0.cmp(&b.0));
            groups
        }

        pub(crate) fn walked_heap_size(&self, w: &mut Walk<'_>) -> usize {
            w.visit(self.groups.len());
            let mut size = 0;
            for (k, st) in &self.groups {
                size += k.heap_size() + st.frags.heap_size() + std::mem::size_of::<GroupState>();
                for acc in &st.accs {
                    if let IncAcc::Min(o) | IncAcc::Max(o) = acc {
                        size += o.walked_heap_size(w);
                    }
                }
            }
            size
        }
    }

    #[test]
    fn ordered_acc_min_tracks_best() {
        let mut a = OrderedAcc::new(true, None);
        assert!(!a.update(&Value::Int(5), 1));
        assert!(!a.update(&Value::Int(3), 2));
        assert_eq!(a.best(), Some(&Value::Int(3)));
        assert!(!a.update(&Value::Int(3), -2));
        assert_eq!(a.best(), Some(&Value::Int(5)));
    }

    #[test]
    fn ordered_acc_bounded_recaptures_on_exhaustion() {
        // Keep 2 smallest; delete them all → recapture required.
        let mut a = OrderedAcc::new(true, Some(2));
        for v in [1, 2, 3, 4] {
            a.update(&Value::Int(v), 1);
        }
        assert_eq!(a.len(), 2);
        assert_eq!(a.best(), Some(&Value::Int(1)));
        assert!(!a.update(&Value::Int(1), -1));
        // Deleting the last stored value with evicted values outstanding.
        assert!(a.update(&Value::Int(2), -1));
    }

    #[test]
    fn ordered_acc_bounded_ignores_beyond_horizon_deletes() {
        let mut a = OrderedAcc::new(true, Some(2));
        for v in [1, 2, 3, 4] {
            a.update(&Value::Int(v), 1);
        }
        // 4 was evicted (beyond horizon 2): deleting it is a no-op.
        assert!(!a.update(&Value::Int(4), -1));
        assert_eq!(a.best(), Some(&Value::Int(1)));
    }

    #[test]
    fn ordered_acc_max_direction() {
        let mut a = OrderedAcc::new(false, Some(2));
        for v in [1, 2, 3, 4] {
            a.update(&Value::Int(v), 1);
        }
        assert_eq!(a.best(), Some(&Value::Int(4)));
        // stored {3,4}; 1 evicted; deleting 1 safe
        assert!(!a.update(&Value::Int(1), -1));
        assert!(!a.update(&Value::Int(4), -1));
        assert_eq!(a.best(), Some(&Value::Int(3)));
    }

    #[test]
    fn delete_of_never_inserted_value_flags_recapture() {
        let mut a = OrderedAcc::new(true, None);
        a.update(&Value::Int(1), 1);
        assert!(a.update(&Value::Int(9), -1));
    }
}
