//! Incremental aggregation (paper §5.2.5 / §5.2.6).
//!
//! Per group `g` the state holds the running aggregates, the group's tuple
//! count `CNT`, and the fragment counters `ℱ_g`. SUM / COUNT / AVG keep
//! the engine's own accumulator ([`AggAcc`]); MIN / MAX keep an ordered
//! multiset, a [`Bounded`] set at `k = 1` — by default bounded to the best
//! `l` values, with a recapture fallback (§7.2).
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
use crate::opt::{Bounded, BoundedEntry};
use crate::Result;
use imp_engine::eval::{AggAcc, CaptureBatch, CapturedGroups};
use imp_engine::ExecStats;
use imp_sql::{AggFunc, AggSpec, Expr, LogicalPlan};
use imp_storage::{key_runs, sort_keys_stable, AnnotId, AnnotPool, FxHashMap, Row, Value};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;

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
    /// SUM / COUNT / AVG: the engine's accumulator, run with signed
    /// multiplicities (§5.2.5).
    Plain(AggAcc),
    /// `MIN(a)`: the least values (§5.2.6), bounded (§7.2).
    Min(Bounded<Value>),
    /// `MAX(a)`: the greatest values, MIN's set reversed.
    Max(Bounded<Reverse<Value>>),
}

/// A MIN / MAX value's tree node: the value, its count and the node.
impl BoundedEntry for Value {
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Value>() + std::mem::size_of::<i64>() + 48 + self.heap_size()
    }
}

impl BoundedEntry for Reverse<Value> {
    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
    }
}

impl IncAcc {
    fn new(func: AggFunc, buffer: Option<usize>) -> IncAcc {
        match func {
            AggFunc::Min => IncAcc::Min(Bounded::new(1, buffer)),
            AggFunc::Max => IncAcc::Max(Bounded::new(1, buffer)),
            _ => IncAcc::Plain(AggAcc::new(func)),
        }
    }

    /// Apply `mult` copies of one input (`arg = None` for `count(*)`).
    /// Returns `true` when a MIN / MAX set needs a recapture.
    fn update(&mut self, arg: Option<Value>, mult: i64) -> Result<bool> {
        Ok(match (self, arg) {
            (IncAcc::Plain(acc), arg) => {
                acc.update(arg.as_ref().map(Value::as_cell), mult)?;
                false
            }
            (_, None | Some(Value::Null)) => false,
            (IncAcc::Min(set), Some(v)) => set.update(v, mult) || set.exhausted(),
            (IncAcc::Max(set), Some(v)) => set.update(Reverse(v), mult) || set.exhausted(),
        })
    }

    /// Current output value.
    fn finish(&self) -> Value {
        match self {
            IncAcc::Plain(acc) => acc.finish(),
            IncAcc::Min(set) => set.best().map_or(Value::Null, Value::clone),
            IncAcc::Max(set) => set.best().map_or(Value::Null, |v| v.0.clone()),
        }
    }

    fn heap_size(&self) -> usize {
        match self {
            IncAcc::Plain(_) => 0,
            IncAcc::Min(set) => set.heap_size(),
            IncAcc::Max(set) => set.heap_size(),
        }
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
            let accs = groups.accumulators(g).iter().cloned().map(IncAcc::Plain);
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

    /// Input child.
    pub fn input_child(&self) -> &IncNode {
        &self.input
    }

    /// Number of groups currently tracked.
    pub fn group_count(&self) -> usize {
        self.groups.len()
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
        if acc.update(arg, d.mult)? {
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

        /// Every group's state by key, spelled out in full: `ℱ_g` in its
        /// iteration order and the accumulators (a sum's integer and float
        /// parts, a MIN/MAX set and its truncation flag). Two states
        /// with equal spellings are equal.
        pub(crate) fn groups_spelled_out(&self) -> Vec<(Row, String)> {
            let spell = |st: &GroupState| {
                let frags: Vec<(u32, i64)> = st.frags.iter().collect();
                format!("{frags:?} {:?}", st.accs)
            };
            let mut accs: Vec<(Row, String)> = (self.groups.iter())
                .map(|(key, st)| (key.clone(), spell(st)))
                .collect();
            accs.sort();
            accs
        }

        pub(crate) fn walked_heap_size(&self, w: &mut Walk<'_>) -> usize {
            w.visit(self.groups.len());
            let mut size = 0;
            for (k, st) in &self.groups {
                size += k.heap_size() + st.frags.heap_size() + std::mem::size_of::<GroupState>();
                for acc in &st.accs {
                    size += match acc {
                        IncAcc::Plain(_) => 0,
                        IncAcc::Min(set) => set.walked_heap_size(w),
                        IncAcc::Max(set) => set.walked_heap_size(w),
                    };
                }
            }
            size
        }
    }

    /// The MIN / MAX sets (`Bounded` at `k = 1`); every rule is checked
    /// exhaustively in `opt::bounded`.
    #[test]
    fn ordered_acc_min_tracks_best() {
        let mut a = Bounded::new(1, None);
        assert!(!a.update(Value::Int(5), 1));
        assert!(!a.update(Value::Int(3), 2));
        assert_eq!(a.best(), Some(&Value::Int(3)));
        assert!(!a.update(Value::Int(3), -2));
        assert_eq!(a.best(), Some(&Value::Int(5)));
    }

    #[test]
    fn ordered_acc_bounded_recaptures_on_exhaustion() {
        // Keep the 2 smallest; deleting both leaves the minimum unknown.
        let mut a = Bounded::new(1, Some(2));
        for v in 1..=4 {
            a.update(Value::Int(v), 1);
        }
        assert_eq!(a.len(), 2);
        assert_eq!(a.best(), Some(&Value::Int(1)));
        assert!(!a.update(Value::Int(1), -1) && !a.exhausted());
        assert!(!a.update(Value::Int(2), -1));
        assert!(a.exhausted());
    }

    #[test]
    fn ordered_acc_bounded_ignores_beyond_horizon_deletes() {
        let mut a = Bounded::new(1, Some(2));
        for v in 1..=4 {
            a.update(Value::Int(v), 1);
        }
        // 4 was evicted (past horizon 2): deleting it is a no-op.
        assert!(!a.update(Value::Int(4), -1));
        assert_eq!(a.best(), Some(&Value::Int(1)));
    }

    #[test]
    fn ordered_acc_max_direction() {
        let mut a = Bounded::new(1, Some(2));
        for v in 1..=4 {
            a.update(Reverse(Value::Int(v)), 1);
        }
        assert_eq!(a.best(), Some(&Reverse(Value::Int(4))));
        // Stored {4, 3}; 1 was evicted, so deleting it is safe.
        assert!(!a.update(Reverse(Value::Int(1)), -1));
        assert!(!a.update(Reverse(Value::Int(4)), -1));
        assert_eq!(a.best(), Some(&Reverse(Value::Int(3))));
    }

    #[test]
    fn delete_of_never_inserted_value_flags_recapture() {
        let mut a = Bounded::new(1, None);
        a.update(Value::Int(1), 1);
        assert!(a.update(Value::Int(9), -1));
    }
}
