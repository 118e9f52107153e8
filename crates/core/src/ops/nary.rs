//! Incremental join / cross product (paper §5.2.4), any number of
//! inputs: one operator maintaining `Δ(R₁ ⋈ … ⋈ Rₙ)` without intermediate
//! pair state. Every `LogicalPlan::Join` compiles to it — an equi-join
//! tree as [`imp_sql::plan::flatten_join`] canonicalizes it, a cross
//! product as two inputs with no join classes.
//!
//! # The telescoping n-ary delta rule
//!
//! The paper's three-term rule generalizes by inclusion–exclusion, but
//! the 2ⁿ−1 signed terms collapse into n all-positive terms once each
//! input is read at a *mixed* frontier — inputs left of the current term
//! at their new state, inputs right of it at their old state:
//!
//! ```text
//! Δ(⋈ᵢ Rᵢ) = Σᵢ  R₁ᴺᴱᵂ ⋈ … ⋈ Rᵢ₋₁ᴺᴱᵂ ⋈ ΔRᵢ ⋈ Rᵢ₊₁ᴼᴸᴰ ⋈ … ⋈ Rₙᴼᴸᴰ
//! ```
//!
//! (Substitute `Rᴺᴱᵂ = Rᴼᴸᴰ + ΔR` term by term and the cross terms
//! telescope; for n = 2 this is exactly
//! `ΔR₁ ⋈ R₂ᴼᴸᴰ + R₁ᴺᴱᵂ ⋈ ΔR₂ = ΔR₁ ⋈ R₂ᴺᴱᵂ + R₁ᴺᴱᵂ ⋈ ΔR₂ − ΔR₁ ⋈ ΔR₂`,
//! the paper's three-term rule.) Signed multiplicities multiply, so the
//! paper's sign cases (del×del → insert, del×ins → delete, …) fall out of
//! the algebra and high-churn retraction batches flow through the same
//! n terms: a same-batch insert+delete pair cancels in the final
//! normalize *inside* this operator — parents never see the churn.
//!
//! The operator walks the terms in input order and absorbs `ΔRᵢ` into
//! input i's [`SideIndex`] immediately *after* term i — so indexes
//! left of the cursor are at the new state and indexes right of it still
//! at the old state, exactly the frontier the rule reads. No upfront
//! sync, no state copies.
//!
//! # Side indexes: `Q ⋈ Δ` without round trips
//!
//! The paper outsources the `Q ⋈ Δ` terms to the backend (§1, §7), a
//! round trip per batch. Here an input is materialised as a [`SideIndex`]
//! the first time another input's delta probes it — one backend
//! evaluation by the engine, annotated as a from-empty run's rows are
//! ([`super::annotated_rows`]), which always sees the *new* table state
//! and is rewound to the old one with a negated delta when the input's own
//! term is still ahead — and is maintained from the input's own deltas
//! thereafter. An input whose partners never change is never evaluated and
//! holds no bytes. The indexes are bounded by
//! `OpConfig::join_index_budget` (annotated tuples per input): an input
//! over budget is dropped at the end of the batch that outgrew it and
//! evaluated per batch into a transient index until the next reset,
//! mirroring the bounded MIN/MAX state's fallback.
//!
//! # From the empty state: the engine's join
//!
//! Capture, recapture and full maintenance run the circuit from the empty
//! state ([`MaintCtx::from_empty`]), where a join's output is its whole
//! result, and this operator does not run: the top of the join's
//! select-project-join subtree ([`IncNode::EngineSpj`], with the filters
//! and projections above the join) has the engine evaluate it and
//! annotates each result row with the pooled union of its sources'
//! fragment singletons. No input is replayed as a delta, no backend round
//! trip is counted and no index is kept: every input stays `Absent` until
//! a later delta probes it. (An aggregation over the join with no MIN/MAX
//! does not even ask for the rows: it groups the join on the engine's
//! group table, `ops/aggregate.rs`.)
//!
//! # Leapfrog-style probing, no pair state
//!
//! Each term seeds partial tuples from `ΔRᵢ` and extends them one input
//! at a time along a precomputed greedy order (next input with all join
//! classes bound, else the most bound classes, else — a cross product or
//! a disconnected component — a full index scan). Every extension probes
//! that input's index with the classes bound so far, in the spirit of
//! leapfrog triejoin's variable-at-a-time expansion (hash indexes
//! standing in for sorted tries); the last extension emits output rows
//! directly. The only operator state is the n per-input indexes: nothing
//! materialises `R₁ ⋈ R₂` or any other intermediate pair, so deep plans
//! carry no pair-state heap at all.
//!
//! Output annotations are produced by the memoized
//! [`AnnotPool::union`](imp_storage::AnnotPool::union): a delta tuple that
//! matches many partners in the same fragment combination pays for one
//! union, not one allocation per output row.

use super::{IncNode, MaintCtx, OpConfig};
use crate::delta::{DeltaBatch, DeltaEntry};
use crate::error::CoreError;
use crate::metrics::MaintMetrics;
use crate::obs::trace;
use crate::opt::{ClassSpec, SideIndex};
use crate::Result;
use imp_sql::plan::NaryJoin;
use imp_sql::LogicalPlan;
use imp_storage::{AnnotId, AnnotPool, FxHashMap, Row, Value};
use std::sync::Arc;

/// Lifecycle of one join input's materialised index.
#[derive(Debug)]
enum SideState {
    /// Not built: no other input's delta has probed it since the last
    /// reset (the first probe builds it from one round trip).
    Absent,
    /// Live and maintained from the input's own deltas.
    Ready(SideIndex),
    /// Outgrew the budget: per-batch evaluation until the next reset
    /// (rebuilding would exhaust the budget again).
    Disabled,
}

impl SideState {
    fn ready(&self) -> Option<&SideIndex> {
        match self {
            SideState::Ready(idx) => Some(idx),
            _ => None,
        }
    }

    /// Drop a live index that outgrew `budget` — once the batch that grew
    /// it is done, since it answered that batch at its new state.
    fn retire_over(&mut self, budget: Option<usize>) {
        if matches!(self, SideState::Ready(idx) if budget.is_some_and(|b| idx.len() > b)) {
            *self = SideState::Disabled;
        }
    }
}

/// A partial join tuple mid-extension: the rows matched so far (slot per
/// input), the class values bound so far, and the running annotation /
/// signed multiplicity.
#[derive(Clone)]
struct Partial {
    parts: Vec<Option<Row>>,
    bound: Vec<Option<Value>>,
    annot: AnnotId,
    mult: i64,
}

/// Incremental join operator over a canonicalized [`NaryJoin`] (see
/// [`imp_sql::plan::flatten_join`]); a cross product is two inputs and no
/// classes.
#[derive(Debug)]
pub struct NaryJoinOp {
    children: Vec<IncNode>,
    plans: Vec<LogicalPlan>,
    /// Per input: the join classes it participates in.
    specs: Vec<ClassSpec>,
    /// Per input: the spec positions a partial probe binds.
    partial: Vec<Vec<usize>>,
    n_classes: usize,
    states: Vec<SideState>,
    /// Greedy extension order per seeding input.
    orders: Vec<Vec<usize>>,
    index_budget: Option<usize>,
    columnar_min: usize,
    /// Probes against each input's index, last completed batch.
    probes_last: Vec<u64>,
}

impl NaryJoinOp {
    /// Compile a canonical n-ary join (a cross product: two inputs, no
    /// classes). Every input must be stateless (checked by the caller for
    /// the whole subtree).
    pub fn new(nary: &NaryJoin, config: &OpConfig) -> Result<NaryJoinOp> {
        let n = nary.inputs.len();
        let children = nary
            .inputs
            .iter()
            .map(|p| IncNode::build_in(p, config, true))
            .collect::<Result<Vec<_>>>()?;
        let mut specs: Vec<ClassSpec> = vec![Vec::new(); n];
        for (class, members) in nary.classes.iter().enumerate() {
            for &(input, col) in members {
                let spec = &mut specs[input];
                match spec.iter_mut().find(|(c, _)| *c == class) {
                    Some((_, cols)) => cols.push(col),
                    None => spec.push((class, vec![col])),
                }
            }
        }
        let (orders, partial) = extension_orders(n, &specs);
        Ok(NaryJoinOp {
            children,
            plans: nary.inputs.clone(),
            specs,
            partial,
            n_classes: nary.classes.len(),
            states: (0..n).map(|_| SideState::Absent).collect(),
            orders,
            index_budget: config.join_index_budget,
            columnar_min: config.columnar_min,
            probes_last: vec![0; n],
        })
    }

    /// Number of join inputs.
    pub fn arity(&self) -> usize {
        self.children.len()
    }

    /// Canonical shape signature: input plans plus equivalence classes
    /// (shape-equivalence tests compare these across parse trees).
    pub fn signature(&self) -> String {
        let inputs: Vec<String> = self
            .plans
            .iter()
            .map(|p| p.explain().replace('\n', " "))
            .collect();
        format!(
            "nary{}[{}] specs={:?}",
            self.arity(),
            inputs.join(" | "),
            self.specs
        )
    }

    /// Per-input probe counts of the last processed batch.
    pub fn probes_last(&self) -> &[u64] {
        &self.probes_last
    }

    /// Process one batch (see module docs for the telescoping rule).
    pub fn process(&mut self, ctx: &mut MaintCtx<'_, '_>) -> Result<DeltaBatch> {
        let n = self.children.len();
        self.probes_last = vec![0; n];
        if ctx.from_empty {
            // The engine evaluates a join from empty, at the top of its
            // select-project-join subtree (`IncNode::EngineSpj`).
            return Err(CoreError::StateCorrupt(
                "a join runs from empty only through the engine".into(),
            ));
        }
        let mut deltas = Vec::with_capacity(n);
        for c in &mut self.children {
            deltas.push(c.process(ctx)?);
        }
        if deltas.iter().all(|d| d.is_empty()) {
            return Ok(DeltaBatch::new());
        }
        let _span = trace::span("nary_delta");
        let mut out = DeltaBatch::new();
        // Per-batch transient indexes for inputs whose persistent index
        // is disabled/over budget, plus evaluation bookkeeping so
        // "round trip avoided" is only claimed when none happened.
        let mut transient: Vec<Option<SideIndex>> = (0..n).map(|_| None).collect();
        let mut evaluated = vec![false; n];
        let mut probes = std::mem::take(&mut self.probes_last);
        for i in 0..n {
            if !deltas[i].is_empty() {
                for j in (0..n).filter(|&j| j != i) {
                    self.ensure_view(j, i, &deltas, &mut transient, &mut evaluated, ctx)?;
                }
                let views: Vec<Option<&SideIndex>> = (0..n)
                    .map(|j| {
                        let view = self.states[j].ready().or(transient[j].as_ref());
                        view.filter(|_| j != i)
                    })
                    .collect();
                let mut step = |j: usize, partials: u64, metrics: &mut MaintMetrics| {
                    probes[j] += partials;
                    if self.states[j].ready().is_none() {
                        metrics.rows_sent_to_db += partials;
                        return;
                    }
                    metrics.join_index_probes += partials;
                    if !evaluated[j] {
                        metrics.db_roundtrips_avoided += 1;
                    }
                };
                self.extend(i, &deltas[i], &views, &mut step, &mut out, ctx)?;
            }
            // Term i done: absorb ΔRᵢ, moving the frontier one input right.
            self.absorb(i, &deltas[i], &mut transient, ctx);
        }
        self.probes_last = probes;
        // A live index that outgrew the budget served the later terms of
        // this batch at its new state; it is dropped only now.
        for state in &mut self.states {
            state.retire_over(self.index_budget);
        }
        Ok(crate::delta::normalize_delta_with(out, self.columnar_min))
    }

    /// Guarantee input `j` has a probe-able index at the state term `i`
    /// reads it (old when `j > i`, new when `j < i`). A missing index
    /// costs one backend evaluation — always at the new state — followed
    /// by a negated-delta rewind when input j's own term is still ahead.
    fn ensure_view(
        &mut self,
        j: usize,
        i: usize,
        deltas: &[DeltaBatch],
        transient: &mut [Option<SideIndex>],
        evaluated: &mut [bool],
        ctx: &mut MaintCtx<'_, '_>,
    ) -> Result<()> {
        if self.states[j].ready().is_some() || transient[j].is_some() {
            return Ok(());
        }
        let side = eval_side(&self.plans[j], ctx)?;
        evaluated[j] = true;
        // Budget the *merged* index size, not the raw evaluation: rows
        // that can never join are excluded and duplicates fold.
        let mut idx = self.empty_index(j);
        idx.apply(&side, ctx.pool);
        if j > i && !deltas[j].is_empty() {
            idx.apply_negated(&deltas[j], ctx.pool);
        }
        let adopt = matches!(self.states[j], SideState::Absent)
            && self.index_budget.is_some_and(|b| idx.len() <= b);
        if adopt {
            ctx.metrics.join_index_builds += 1;
            self.states[j] = SideState::Ready(idx);
        } else {
            if matches!(self.states[j], SideState::Absent) && self.index_budget.is_some() {
                self.states[j] = SideState::Disabled;
            }
            transient[j] = Some(idx);
        }
        Ok(())
    }

    /// Absorb input i's delta into its live views (persistent and/or
    /// transient), bringing them to the new state for later terms.
    fn absorb(
        &mut self,
        i: usize,
        delta: &DeltaBatch,
        transient: &mut [Option<SideIndex>],
        ctx: &mut MaintCtx<'_, '_>,
    ) {
        if delta.is_empty() {
            return;
        }
        if let SideState::Ready(idx) = &mut self.states[i] {
            idx.apply(delta, ctx.pool);
        }
        if let Some(idx) = transient[i].as_mut() {
            idx.apply(delta, ctx.pool);
        }
    }

    /// Seed partials from `delta` (input `seed`'s), extend them along the
    /// seed's greedy order through `views`, and push every complete tuple
    /// onto `out`, its parts in input order. `step(j, n, metrics)`
    /// accounts for `n` partials probing input j.
    fn extend(
        &self,
        seed: usize,
        delta: &DeltaBatch,
        views: &[Option<&SideIndex>],
        step: &mut dyn FnMut(usize, u64, &mut MaintMetrics),
        out: &mut DeltaBatch,
        ctx: &mut MaintCtx<'_, '_>,
    ) -> Result<()> {
        let _span = trace::span("nary_probe");
        let n = self.children.len();
        let mut partials: Vec<Partial> = Vec::with_capacity(delta.len());
        'seed: for d in delta {
            let mut bound = vec![None; self.n_classes];
            for (class, cols) in &self.specs[seed] {
                let v = d.row[cols[0]].clone();
                if v.is_null() || cols[1..].iter().any(|&c| d.row[c] != v) {
                    continue 'seed; // this row can never join
                }
                bound[*class] = Some(v);
            }
            let mut parts = vec![None; n];
            parts[seed] = Some(d.row.clone());
            partials.push(Partial {
                parts,
                bound,
                annot: d.annot,
                mult: d.mult,
            });
        }
        // Intern each distinct index annotation once per term (Arc
        // pointer identity stands in for the content hash).
        let mut interned: FxHashMap<usize, AnnotId> = FxHashMap::default();
        let order = &self.orders[seed];
        for (pos, &j) in order.iter().enumerate() {
            if partials.is_empty() {
                return Ok(());
            }
            let Some(view) = views[j] else {
                return Err(CoreError::StateCorrupt(format!(
                    "join input {j} has no probe-able view"
                )));
            };
            step(j, partials.len() as u64, ctx.metrics);
            let last = pos + 1 == order.len();
            let spec_j = &self.specs[j];
            let mut next = Vec::new();
            for p in &partials {
                ctx.metrics.rows_processed += 1;
                view.for_each_match(&p.bound, &mut |entries| {
                    for e in entries {
                        let ptr = Arc::as_ptr(&e.annot) as usize;
                        let ea = *interned
                            .entry(ptr)
                            .or_insert_with(|| ctx.pool.intern_arc(Arc::clone(&e.annot)));
                        let annot = ctx.pool.union(p.annot, ea);
                        let mult = p.mult * e.mult;
                        if last {
                            out.push(DeltaEntry {
                                row: assemble(&p.parts, j, &e.row),
                                annot,
                                mult,
                            });
                            continue;
                        }
                        let mut q = p.clone();
                        q.parts[j] = Some(e.row.clone());
                        q.annot = annot;
                        q.mult = mult;
                        for (class, cols) in spec_j {
                            if q.bound[*class].is_none() {
                                q.bound[*class] = Some(e.row[cols[0]].clone());
                            }
                        }
                        next.push(q);
                    }
                });
            }
            partials = next;
        }
        Ok(())
    }

    /// Is some input without a live index probed by another input whose
    /// tables `changed` accepts (a run that would read a base table)?
    pub(crate) fn probes_unindexed(&self, changed: &dyn Fn(&str) -> bool) -> bool {
        let touched = |i: usize| self.plans[i].tables().iter().any(|t| changed(t));
        let n = self.plans.len();
        (0..n).any(|j| self.states[j].ready().is_none() && (0..n).any(|i| i != j && touched(i)))
    }

    /// The input operators.
    pub fn children(&self) -> &[IncNode] {
        &self.children
    }

    /// Drop all per-input indexes (a recapture rebuilds them on next
    /// use, giving previously over-budget inputs a fresh chance).
    pub fn reset(&mut self) {
        for s in &mut self.states {
            *s = SideState::Absent;
        }
        self.probes_last = vec![0; self.children.len()];
        for c in &mut self.children {
            c.reset();
        }
    }

    /// Hand every annotation handle of the per-input indexes back to a
    /// just-flushed pool.
    pub fn readopt_annots(&self, pool: &mut AnnotPool) {
        for idx in self.states.iter().filter_map(SideState::ready) {
            idx.readopt_annots(pool);
        }
    }

    /// `(entries, bytes)` across the n per-input indexes — the *only*
    /// state this operator holds (no intermediate pair indexes exist;
    /// `heap_oracle`'s count test asserts exactly this).
    pub fn index_state(&self) -> (usize, usize) {
        let mut entries = 0;
        let mut bytes = 0;
        for idx in self.states.iter().filter_map(SideState::ready) {
            entries += idx.len();
            bytes += idx.heap_size();
        }
        (entries, bytes)
    }

    /// An empty index for input `j`.
    fn empty_index(&self, j: usize) -> SideIndex {
        SideIndex::new(self.specs[j].clone(), &self.partial[j])
    }
}

/// The output row of a partial whose last missing part, input `j`'s, is
/// `row`: every part's values in input order, in one allocation.
fn assemble(parts: &[Option<Row>], j: usize, row: &Row) -> Row {
    let part = |k: usize| {
        if k == j {
            row
        } else {
            parts[k].as_ref().expect("every other input matched")
        }
    };
    let mut values = Vec::with_capacity((0..parts.len()).map(|k| part(k).arity()).sum());
    for k in 0..parts.len() {
        values.extend_from_slice(part(k).values());
    }
    Row::new(values)
}

/// Evaluate one (stateless) join input against the backend: a round
/// trip. Its annotations are interned into the run's pool.
fn eval_side(plan: &LogicalPlan, ctx: &mut MaintCtx<'_, '_>) -> Result<DeltaBatch> {
    ctx.metrics.db_roundtrips += 1;
    let mut stats = imp_engine::ExecStats::default();
    let rows = super::annotated_rows(plan, ctx.db.get(), ctx.pset, ctx.pool, &mut stats)?;
    ctx.metrics.db_rows_scanned += stats.rows_scanned;
    Ok(rows)
}

/// Greedy extension order per seeding input: repeatedly pick the input
/// with the most already-bound classes (fully bound beats partially
/// bound beats unbound; ties to the lowest input index). An unbound pick
/// is a disconnected cross-product component — that extension is a full
/// index scan and is *not* O(|Δ|); connected equi-joins never hit it.
/// Also returns, per input, the spec positions a partially bound pick of
/// it binds: the only positions its index keeps a secondary for.
fn extension_orders(n: usize, specs: &[ClassSpec]) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let n_classes = specs
        .iter()
        .flatten()
        .map(|(c, _)| c + 1)
        .max()
        .unwrap_or(0);
    let mut partial = vec![Vec::new(); n];
    let orders = (0..n)
        .map(|seed| {
            let mut bound = vec![false; n_classes];
            let mark = |bound: &mut Vec<bool>, spec: &ClassSpec| {
                spec.iter().for_each(|(class, _)| bound[*class] = true);
            };
            mark(&mut bound, &specs[seed]);
            let mut remaining: Vec<usize> = (0..n).filter(|&j| j != seed).collect();
            let mut order = Vec::with_capacity(n - 1);
            while !remaining.is_empty() {
                // The spec positions of input j whose class is bound.
                let hits = |j: usize| -> Vec<usize> {
                    let spec: &ClassSpec = &specs[j];
                    (0..spec.len()).filter(|&pos| bound[spec[pos].0]).collect()
                };
                let best = remaining
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, &j)| {
                        let hits = hits(j).len();
                        let full = hits == specs[j].len() && hits > 0;
                        (full, hits, std::cmp::Reverse(j))
                    })
                    .map(|(pos, _)| pos)
                    .expect("remaining is non-empty");
                let j = remaining.remove(best);
                let hit = hits(j);
                if hit.len() < specs[j].len() {
                    for pos in hit {
                        if !partial[j].contains(&pos) {
                            partial[j].push(pos);
                        }
                    }
                }
                mark(&mut bound, &specs[j]);
                order.push(j);
            }
            order
        })
        .collect();
    (orders, partial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap_oracle::Walk;

    /// The accounting oracle: per-input indexes recomputed by walking them.
    impl NaryJoinOp {
        pub(crate) fn walked_heap_size(&self, w: &mut Walk<'_>) -> usize {
            let indexes = self.states.iter().filter_map(SideState::ready);
            indexes.map(|idx| idx.walked_heap_size(w)).sum()
        }
    }

    #[test]
    fn extension_order_prefers_bound_inputs() {
        // Chain A(c0) — B(c0,c1) — C(c1,c2) — D(c2).
        let specs: Vec<ClassSpec> = vec![
            vec![(0, vec![1])],
            vec![(0, vec![0]), (1, vec![1])],
            vec![(1, vec![0]), (2, vec![1])],
            vec![(2, vec![0])],
        ];
        let (orders, mut partial) = extension_orders(4, &specs);
        // Seeding at A: B first (bound via c0), then C, then D.
        assert_eq!(orders[0], vec![1, 2, 3]);
        // Seeding at D: C, then B, then A.
        assert_eq!(orders[3], vec![2, 1, 0]);
        // Seeding at B: both A and C have one bound class; A (lower
        // index, fully bound) wins, then C, then D.
        assert_eq!(orders[1], vec![0, 2, 3]);
        // Only the middle inputs are ever probed partially: B with c0
        // bound (from A) or c1 bound (from C, D), C likewise.
        partial.iter_mut().for_each(|p| p.sort());
        assert_eq!(partial, [vec![], vec![0, 1], vec![0, 1], vec![]]);
    }

    #[test]
    fn disconnected_component_ordered_last() {
        // A(c0) — B(c0), and E with no classes at all.
        let specs: Vec<ClassSpec> = vec![vec![(0, vec![0])], vec![(0, vec![0])], vec![]];
        let (orders, _) = extension_orders(3, &specs);
        assert_eq!(orders[0], vec![1, 2]);
        assert_eq!(orders[2], vec![0, 1]);
    }
}
