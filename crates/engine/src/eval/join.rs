//! Late-materialized relations: joins, and the filters, projections and
//! aggregations above them, on position tuples.
//!
//! A [`Relation`] has *sources* — the surviving batches of a scan prefix
//! (the table's columns, chunk by chunk) or a materialized [`Bag`] for an
//! input that is not one (aggregation, DISTINCT, EXCEPT, sort, top-k) — and
//! per tuple one [`Pos`] per source and a multiplicity. Its *raw columns*
//! are the sources' columns side by side, and its output is a list of
//! expressions over them. A join concatenates position tuples — it hashes
//! and compares its keys as `i64`s gathered once through the positions
//! when every key column on both sides is a NULL-free Int column of a
//! scan prefix, as cells read through the positions otherwise — a filter
//! keeps tuples, reading the cells its predicate reaches, a projection
//! rewrites the output expressions, an aggregation gathers each key and
//! argument column once through the positions and hands them, with the
//! multiplicities, to the group table as one batch (row by row, reading
//! cells, when a column is not a NULL-free Int or Float column of a scan
//! prefix); [`Relation::materialize`] builds one row per tuple, holding
//! the output expressions only.

use super::aggregate::{Aggregation, CapturedGroups, Grouping, Operand, Slice};
use super::hash_index::{hash_cells, HashIndex};
use super::scan::{out_of_bounds, ScanPrefix};
use super::{execute, new_row, Bag, ExecStats, PartitionValues};
use crate::database::Database;
use crate::Result;
use imp_sql::{AggSpec, Expr, LogicalPlan, SqlError};
use imp_storage::{Cell, ColumnData, DataType, FxHasher, Value};
use std::borrow::Cow;
use std::hash::Hasher;

/// Where one source's part of a tuple lives: a batch of the source (a bag
/// is one batch) and a row in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Pos(u32, u32);

impl Pos {
    pub fn new(batch: usize, row: usize) -> Pos {
        let narrow = |n| u32::try_from(n).expect("chunks, and rows per chunk or bag, < 2^32");
        Pos(narrow(batch), narrow(row))
    }
}

/// A raw column gathered through the positions ([`Relation::gather`]).
enum Gathered {
    Int(Vec<i64>),
    Float(Vec<f64>),
}

impl Gathered {
    fn slice(&self) -> Slice<'_> {
        match self {
            Gathered::Int(v) => Slice::Int(v),
            Gathered::Float(v) => Slice::Float(v),
        }
    }
}

/// One input of a relation.
#[derive(Debug)]
enum Source<'t> {
    /// The surviving batches of a scan prefix of `table`: its columns.
    Batches {
        table: &'t str,
        batches: Vec<&'t [ColumnData]>,
    },
    /// A materialized bag.
    Bag(Bag),
}

/// A bag as position tuples over its sources (module docs).
#[derive(Debug)]
pub(super) struct Relation<'t> {
    sources: Vec<Source<'t>>,
    /// Raw column `c` is column `columns[c].1` of source `columns[c].0`.
    columns: Vec<(usize, usize)>,
    /// `sources.len()` positions per tuple, tuple after tuple.
    positions: Vec<Pos>,
    mults: Vec<i64>,
    /// The output, over the raw columns.
    exprs: Vec<Expr>,
}

/// The relation of `plan`: a scan prefix that does not aggregate as
/// positions over its batches, joins and the filters and projections above
/// them on tuples, anything else materialized by [`execute`].
pub(super) fn relation<'t>(
    plan: &LogicalPlan,
    db: &'t Database,
    stats: &mut ExecStats,
) -> Result<Relation<'t>> {
    if let Some(prefix) = ScanPrefix::of(plan).filter(|p| !p.aggregates()) {
        return prefix.relation(db, stats);
    }
    let arity = || plan.schema().arity();
    match plan {
        // A constant-false predicate (empty sketch) needs no input.
        LogicalPlan::Filter {
            predicate: Expr::Lit(Value::Bool(false)),
            ..
        } => Ok(Relation::bag(Vec::new(), arity())),
        LogicalPlan::Filter { input, predicate } => {
            let mut rel = relation(input, db, stats)?;
            rel.retain(predicate)?;
            Ok(rel)
        }
        LogicalPlan::Project { input, exprs, .. } => {
            let mut rel = relation(input, db, stats)?;
            rel.exprs = exprs.iter().map(|e| rel.over_raw(e)).collect();
            Ok(rel)
        }
        LogicalPlan::Join {
            left,
            right,
            left_keys,
            right_keys,
        } => {
            let left = relation(left, db, stats)?;
            let right = relation(right, db, stats)?;
            join(left, right, left_keys, right_keys, stats)
        }
        _ => Ok(Relation::bag(execute(plan, db, stats)?, arity())),
    }
}

/// `left ⋈ right` on `left_keys = right_keys`, the cross product without
/// keys; multiplicities multiply (`(t ◦ s)^{n·m}`, paper Fig. 4). The hash
/// table is built on the side with fewer tuples (the right one on a tie),
/// the other side probes in order, matches of a probe come in build order,
/// and every output tuple is `left ◦ right`. A cross product runs
/// left-major and counts no probes. When every key column on both sides
/// is a NULL-free Int column of a scan prefix, the key columns are
/// gathered once through the positions and keys are hashed and compared
/// as `i64`s; otherwise they are cells read through the positions
/// ([`Keys`]).
pub(super) fn join<'t>(
    left: Relation<'t>,
    right: Relation<'t>,
    left_keys: &[usize],
    right_keys: &[usize],
    stats: &mut ExecStats,
) -> Result<Relation<'t>> {
    let swapped = !left_keys.is_empty() && right.len() > left.len();
    let ((probe, probe_keys), (build, build_keys)) = if swapped {
        ((&right, right_keys), (&left, left_keys))
    } else {
        ((&left, left_keys), (&right, right_keys))
    };
    let keys = Keys::new((probe, probe_keys), (build, build_keys))?;
    // Linking back to front makes a chain run in build order.
    let mut index = HashIndex::with_capacity(build.len());
    for id in (0..build.len()).rev() {
        if let Some(hash) = keys.hash(Side::Build, id) {
            index.link(hash, id);
        }
    }
    let width = left.sources.len() + right.sources.len();
    let mut positions = Vec::with_capacity(probe.len() * width);
    let mut mults = Vec::with_capacity(probe.len());
    for t in 0..probe.len() {
        stats.join_probes += u64::from(!probe_keys.is_empty());
        let Some(hash) = keys.hash(Side::Probe, t) else {
            continue;
        };
        for id in index.chain(hash) {
            if keys.equal(t, id) {
                let (l, r) = if swapped { (id, t) } else { (t, id) };
                positions.extend_from_slice(left.tuple(l));
                positions.extend_from_slice(right.tuple(r));
                mults.push(left.mults[l] * right.mults[r]);
            }
        }
    }
    Ok(Relation::joined(left, right, positions, mults))
}

/// Which side's key [`Keys::hash`] reads: an index into its `[probe,
/// build]` pairs.
#[derive(Clone, Copy)]
enum Side {
    Probe,
    Build,
}

/// The join keys of the probe and the build side, in one of two forms
/// (in the way the group table reads slices or cells).
enum Keys<'r> {
    /// Every key column, on both sides, a NULL-free Int column of a scan
    /// prefix: gathered once through the positions, `[probe, build]`,
    /// key column after key column.
    Ints([Vec<Vec<i64>>; 2]),
    /// Anything else: cells read through the positions.
    Cells([CellKey<'r>; 2]),
}

impl<'r> Keys<'r> {
    /// The keys of `probe` and `build`, each a relation and its key
    /// columns; computed keys are evaluated here, the build side's first.
    fn new(
        probe: (&'r Relation<'r>, &[usize]),
        build: (&'r Relation<'r>, &[usize]),
    ) -> Result<Keys<'r>> {
        let ints = |(rel, keys): (&Relation<'_>, &[usize])| {
            let column = |&k: &usize| match rel.output(k) {
                Operand::Column(c) => match rel.gather(c)? {
                    Gathered::Int(v) => Some(v),
                    Gathered::Float(_) => None,
                },
                Operand::Computed(_) => None,
            };
            keys.iter().map(column).collect::<Option<Vec<_>>>()
        };
        // A cross product has no key to gather. The build side is the
        // smaller: gathered first, it is all that is gathered in vain when
        // the probe side falls back.
        let typed = || {
            let build = ints(build).filter(|keys| !keys.is_empty())?;
            Some([ints(probe)?, build])
        };
        match typed() {
            Some(ints) => {
                #[cfg(test)]
                super::tests::TYPED_JOINS.with(|n| n.set(n.get() + 1));
                Ok(Keys::Ints(ints))
            }
            None => {
                let build = CellKey::new(build)?;
                Ok(Keys::Cells([CellKey::new(probe)?, build]))
            }
        }
    }

    /// The hash of `side`'s tuple `t`'s key, `None` when a key cell is
    /// NULL (SQL equi-join: NULL joins with nothing). Inlined, so that the
    /// `i64` form costs no call in the build and probe loops.
    #[inline]
    fn hash(&self, side: Side, t: usize) -> Option<u64> {
        match self {
            Keys::Ints(sides) => Some(match &sides[side as usize][..] {
                // One key is its own hash: the index hashes it again.
                [keys] => keys[t] as u64,
                columns => {
                    let mut hasher = FxHasher::default();
                    columns.iter().for_each(|keys| hasher.write_i64(keys[t]));
                    hasher.finish()
                }
            }),
            Keys::Cells(sides) => sides[side as usize].hash(t),
        }
    }

    /// Does probe tuple `t`'s key equal build tuple `id`'s?
    #[inline]
    fn equal(&self, t: usize, id: usize) -> bool {
        match self {
            Keys::Ints([probe, build]) => (probe.iter().zip(build)).all(|(p, b)| p[t] == b[id]),
            Keys::Cells([probe, build]) => {
                (0..probe.operands.len()).all(|i| probe.cell(t, i) == build.cell(id, i))
            }
        }
    }
}

/// One side's join key as cells: key columns read through the positions,
/// computed keys evaluated once per tuple.
struct CellKey<'r> {
    rel: &'r Relation<'r>,
    operands: Vec<Operand<'r>>,
    /// `stride` values per tuple (a NULL stands in for a key column);
    /// `stride` is 0 when no key is computed.
    values: Vec<Value>,
    stride: usize,
}

impl<'r> CellKey<'r> {
    /// Output columns `keys` of `rel`, the computed ones evaluated for
    /// every tuple, in order.
    fn new((rel, keys): (&'r Relation<'r>, &[usize])) -> Result<CellKey<'r>> {
        let operands: Vec<_> = keys.iter().map(|&k| rel.output(k)).collect();
        let computed = operands.iter().any(|o| matches!(o, Operand::Computed(_)));
        let stride = if computed { operands.len() } else { 0 };
        let mut values = Vec::with_capacity(stride * rel.len());
        if computed {
            for t in 0..rel.len() {
                for operand in &operands {
                    values.push(match operand {
                        Operand::Computed(e) => e.eval_with(&|c| rel.value(t, c))?,
                        Operand::Column(_) => Value::Null,
                    });
                }
            }
        }
        Ok(CellKey {
            rel,
            operands,
            values,
            stride,
        })
    }

    /// [`Keys::hash`] of tuple `t`.
    fn hash(&self, t: usize) -> Option<u64> {
        let cells = (0..self.operands.len()).map(|i| self.cell(t, i));
        if cells.clone().any(|cell| cell.is_null()) {
            return None;
        }
        Some(hash_cells(cells))
    }

    /// Key cell `i` of tuple `t`.
    fn cell(&self, t: usize, i: usize) -> Cell<'_> {
        match self.operands[i] {
            Operand::Column(c) => self.rel.cell(t, c),
            Operand::Computed(_) => self.values[t * self.stride + i].as_cell(),
        }
    }
}

impl<'t> Relation<'t> {
    /// The rows a scan prefix selected from `batches` of `table`, which
    /// has `arity` columns, and its output (`None`: the table's columns).
    pub fn scanned(
        table: &'t str,
        batches: Vec<&'t [ColumnData]>,
        arity: usize,
        positions: Vec<Pos>,
        exprs: Option<Vec<Expr>>,
    ) -> Relation<'t> {
        Relation {
            sources: vec![Source::Batches { table, batches }],
            columns: (0..arity).map(|c| (0, c)).collect(),
            mults: vec![1; positions.len()],
            positions,
            exprs: exprs.unwrap_or_else(|| (0..arity).map(Expr::Col).collect()),
        }
    }

    /// A bag of rows with `arity` columns.
    pub fn bag(rows: Bag, arity: usize) -> Relation<'t> {
        Relation {
            columns: (0..arity).map(|c| (0, c)).collect(),
            positions: (0..rows.len()).map(|row| Pos::new(0, row)).collect(),
            mults: rows.iter().map(|(_, m)| *m).collect(),
            sources: vec![Source::Bag(rows)],
            exprs: (0..arity).map(Expr::Col).collect(),
        }
    }

    /// `left ◦ right` for the given tuples.
    fn joined(
        left: Relation<'t>,
        right: Relation<'t>,
        positions: Vec<Pos>,
        mults: Vec<i64>,
    ) -> Self {
        let (shift, offset) = (left.sources.len(), left.columns.len());
        let mut exprs = left.exprs;
        exprs.extend(right.exprs.iter().map(|e| e.remap_columns(&|c| c + offset)));
        let mut columns = left.columns;
        columns.extend(right.columns.iter().map(|&(s, c)| (s + shift, c)));
        let mut sources = left.sources;
        sources.extend(right.sources);
        Relation {
            sources,
            columns,
            positions,
            mults,
            exprs,
        }
    }

    fn len(&self) -> usize {
        self.mults.len()
    }

    fn tuple(&self, t: usize) -> &[Pos] {
        let width = self.sources.len();
        &self.positions[t * width..(t + 1) * width]
    }

    /// Raw column `c` of tuple `t`.
    fn cell(&self, t: usize, c: usize) -> Cell<'_> {
        let (source, column) = self.columns[c];
        let Pos(batch, row) = self.positions[t * self.sources.len() + source];
        match &self.sources[source] {
            Source::Batches { batches, .. } => batches[batch as usize][column].cell(row as usize),
            Source::Bag(rows) => rows[row as usize].0[column].as_cell(),
        }
    }

    /// [`Relation::cell`] as [`Expr::eval_with`] asks for it.
    fn value(&self, t: usize, c: usize) -> std::result::Result<Value, SqlError> {
        let arity = self.columns.len();
        let cell = (c < arity).then(|| self.cell(t, c));
        cell.map(Cell::to_value)
            .ok_or_else(|| out_of_bounds(c, arity))
    }

    /// `e`, which reads the output, over the raw columns.
    fn over_raw(&self, e: &Expr) -> Expr {
        e.substitute(&|i| self.exprs[i].clone())
    }

    /// Output column `k`.
    fn output(&self, k: usize) -> Operand<'_> {
        Operand::of(&self.exprs[k], self.columns.len())
    }

    /// Keep the tuples `predicate` (over the output) accepts, in order.
    fn retain(&mut self, predicate: &Expr) -> Result<()> {
        let predicate = self.over_raw(predicate);
        let width = self.sources.len();
        let mut kept = 0;
        for t in 0..self.len() {
            if predicate.eval_predicate_with(&|c| self.value(t, c))? {
                self.positions
                    .copy_within(t * width..(t + 1) * width, kept * width);
                self.mults[kept] = self.mults[t];
                kept += 1;
            }
        }
        self.positions.truncate(kept * width);
        self.mults.truncate(kept);
        Ok(())
    }

    /// Group the tuples by `group_by` and compute `aggs` (both over the
    /// output) per group.
    pub fn aggregate(
        &self,
        group_by: &[Expr],
        aggs: &[AggSpec],
        stats: &mut ExecStats,
    ) -> Result<Bag> {
        let aggregation = Aggregation::new(group_by, aggs, |e| Cow::Owned(self.over_raw(e)));
        let mut grouping = Grouping::new(&aggregation, self.columns.len());
        self.group(&mut grouping, None)?;
        Ok(grouping.finish(stats))
    }

    /// [`Relation::aggregate`] for a capture: the groups as they stand, and
    /// the group of each tuple, in tuple order.
    pub fn capture_groups(
        &self,
        group_by: &[Expr],
        aggs: &[AggSpec],
        stats: &mut ExecStats,
    ) -> Result<(CapturedGroups, Vec<usize>)> {
        let aggregation = Aggregation::new(group_by, aggs, |e| Cow::Owned(self.over_raw(e)));
        let mut grouping = Grouping::new(&aggregation, self.columns.len());
        let mut groups = Vec::with_capacity(self.len());
        self.group(&mut grouping, Some(&mut groups))?;
        Ok((grouping.captured(stats), groups))
    }

    /// Feed every tuple to `grouping` — its key and argument columns
    /// gathered through the positions as one batch when they are all
    /// NULL-free Int or Float columns of scan prefixes, tuple by tuple as
    /// cells otherwise — and push each tuple's group onto `groups`.
    fn group(
        &self,
        grouping: &mut Grouping<'_>,
        mut groups: Option<&mut Vec<usize>>,
    ) -> Result<()> {
        let gathered = grouping.plain_columns().and_then(|columns| {
            let gathered = columns.into_iter().map(|c| Some((c, self.gather(c)?)));
            gathered.collect::<Option<Vec<_>>>()
        });
        if let Some(gathered) = gathered {
            let slice = |c| {
                gathered
                    .iter()
                    .find(|(g, _)| *g == c)
                    .map(|(_, v)| v.slice())
            };
            if grouping.add_batch(self.len(), slice, |t| t, |t| self.mults[t])? {
                if let Some(groups) = groups {
                    groups.extend_from_slice(grouping.batch_groups());
                }
                return Ok(());
            }
        }
        for t in 0..self.len() {
            let group = grouping.add(|c| self.cell(t, c), |c| self.value(t, c), self.mults[t])?;
            if let Some(groups) = groups.as_deref_mut() {
                groups.push(group);
            }
        }
        Ok(())
    }

    /// Per source that scans a table `partition_column` names a column of,
    /// in source order: the table, and that column's value in each tuple,
    /// gathered through the positions as `i64`s when the column is a
    /// NULL-free Int column in every batch, read as cells otherwise.
    pub fn partition_values(
        &self,
        partition_column: &dyn Fn(&str) -> Option<usize>,
    ) -> Vec<(&'t str, PartitionValues<'t>)> {
        let width = self.sources.len();
        let sources = self.sources.iter().enumerate();
        let partitioned = sources.filter_map(|(source, s)| {
            let Source::Batches { table, batches } = s else {
                return None;
            };
            let column = partition_column(table)?;
            let rows = self.positions.iter().skip(source).step_by(width);
            let ints = (batches.iter().map(|b| b[column].ints())).collect::<Option<Vec<_>>>();
            let values = match ints {
                Some(ints) => PartitionValues::Ints(
                    rows.map(|&Pos(batch, row)| ints[batch as usize][row as usize])
                        .collect(),
                ),
                None => PartitionValues::Cells(
                    rows.map(|&Pos(batch, row)| batches[batch as usize][column].cell(row as usize))
                        .collect(),
                ),
            };
            Some((*table, values))
        });
        partitioned.collect()
    }

    /// Raw column `c` of every tuple, in tuple order, if its source is a
    /// scan prefix's batches and the column is NULL-free Int or Float in
    /// each of them.
    fn gather(&self, c: usize) -> Option<Gathered> {
        let (source, column) = self.columns[c];
        let Source::Batches { batches, .. } = &self.sources[source] else {
            return None;
        };
        let width = self.sources.len();
        let rows = self.positions.iter().skip(source).step_by(width);
        fn gather<'p, T: Copy>(
            batches: &[&[ColumnData]],
            column: usize,
            read: fn(&ColumnData) -> Option<&[T]>,
            rows: impl Iterator<Item = &'p Pos>,
        ) -> Option<Vec<T>> {
            let slices = (batches.iter().map(|b| read(&b[column]))).collect::<Option<Vec<_>>>()?;
            Some(
                rows.map(|&Pos(batch, row)| slices[batch as usize][row as usize])
                    .collect(),
            )
        }
        match batches.first()?[column].dtype() {
            DataType::Int => gather(batches, column, ColumnData::ints, rows).map(Gathered::Int),
            DataType::Float => {
                gather(batches, column, ColumnData::floats, rows).map(Gathered::Float)
            }
            _ => None,
        }
    }

    /// One row per tuple, holding the output expressions.
    pub fn materialize(&self) -> Result<Bag> {
        let mut out = Vec::with_capacity(self.len());
        let mut values = Vec::with_capacity(self.exprs.len());
        for t in 0..self.len() {
            for e in &self.exprs {
                values.push(e.eval_with(&|c| self.value(t, c))?);
            }
            out.push((new_row(values.drain(..)), self.mults[t]));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_storage::{row, DataType, Row};

    /// A bag as the single source of a relation.
    fn bag(rows: Bag) -> Relation<'static> {
        let arity = rows.first().map_or(1, |(row, _)| row.arity());
        Relation::bag(rows, arity)
    }

    /// `rows` stored as the columns of one batch.
    fn batch(dtypes: &[DataType], rows: &[Row]) -> Vec<ColumnData> {
        let mut columns: Vec<ColumnData> = dtypes.iter().map(|&t| ColumnData::new(t)).collect();
        for row in rows {
            for (column, value) in columns.iter_mut().zip(row.values()) {
                column.push(value).unwrap();
            }
        }
        columns
    }

    /// Every row of one batch, as a scan prefix without filters hands it on.
    fn scanned(columns: &[ColumnData]) -> Relation<'_> {
        let positions = (0..columns[0].len()).map(|row| Pos::new(0, row));
        Relation::scanned("t", vec![columns], columns.len(), positions.collect(), None)
    }

    /// Every row of several batches, batch after batch.
    fn scanned_batches<'t>(batches: &[&'t [ColumnData]]) -> Relation<'t> {
        let positions = (batches.iter().enumerate())
            .flat_map(|(b, columns)| (0..columns[0].len()).map(move |row| Pos::new(b, row)));
        let arity = batches[0].len();
        Relation::scanned("t", batches.to_vec(), arity, positions.collect(), None)
    }

    /// `join`, and how many joins took the `i64` key form.
    fn counted_join<'t>(
        left: Relation<'t>,
        right: Relation<'t>,
        keys: (&[usize], &[usize]),
        stats: &mut ExecStats,
    ) -> (Relation<'t>, u64) {
        let typed = || super::super::tests::TYPED_JOINS.with(std::cell::Cell::get);
        let before = typed();
        let out = join(left, right, keys.0, keys.1, stats).unwrap();
        (out, typed() - before)
    }

    /// `rel` with output columns `keys` computed (`k + 0`): the same
    /// tuples, joined on cells.
    fn computed<'t>(mut rel: Relation<'t>, keys: &[usize]) -> Relation<'t> {
        for &k in keys {
            let plus_zero = Expr::binary(
                imp_sql::ast::BinOp::Add,
                rel.exprs[k].clone(),
                Expr::Lit(Value::Int(0)),
            );
            rel.exprs[k] = plus_zero;
        }
        rel
    }

    /// Join `left()` and `right()` on `keys` twice, once on gathered
    /// `i64`s and once on cells, and demand the same tuples, multiplicities
    /// and probes. Returns the typed join's output.
    fn pinned<'t>(
        left: impl Fn() -> Relation<'t>,
        right: impl Fn() -> Relation<'t>,
        keys: (&[usize], &[usize]),
    ) -> (Relation<'t>, ExecStats) {
        let mut typed_stats = ExecStats::default();
        let (typed, n) = counted_join(left(), right(), keys, &mut typed_stats);
        assert_eq!(n, 1, "the i64 form");
        let mut cell_stats = ExecStats::default();
        let (cells, n) = counted_join(
            computed(left(), keys.0),
            computed(right(), keys.1),
            keys,
            &mut cell_stats,
        );
        assert_eq!(n, 0, "the cell form");
        assert_eq!(typed.positions, cells.positions);
        assert_eq!(typed.mults, cells.mults);
        assert_eq!(typed_stats, cell_stats);
        (typed, typed_stats)
    }

    fn join_bags(l: Bag, r: Bag, lk: &[usize], rk: &[usize], stats: &mut ExecStats) -> Bag {
        let joined = join(bag(l), bag(r), lk, rk, stats).unwrap();
        joined.materialize().unwrap()
    }

    #[test]
    fn equi_join_matches_fig5() {
        // ΔR = {(5,8)}, S = {(6,9),(7,8)}; join on b = d keeps (5,8,7,8).
        let s = batch(&[DataType::Int; 2], &[row![6, 9], row![7, 8]]);
        let mut stats = ExecStats::default();
        let out = join(
            bag(vec![(row![5, 8], 1)]),
            scanned(&s),
            &[1],
            &[1],
            &mut stats,
        )
        .unwrap();
        // One tuple: row 0 of the bag, row 1 of S's batch.
        assert_eq!(out.positions, [Pos::new(0, 0), Pos::new(0, 1)]);
        assert_eq!(out.materialize().unwrap(), vec![(row![5, 8, 7, 8], 1)]);
    }

    #[test]
    fn multiplicities_multiply() {
        let l: Bag = vec![(row![1], 2)];
        let r: Bag = vec![(row![1], 3)];
        let mut stats = ExecStats::default();
        let out = join_bags(l, r, &[0], &[0], &mut stats);
        assert_eq!(out, vec![(row![1, 1], 6)]);
    }

    #[test]
    fn column_order_stable_when_build_side_swapped() {
        // Left bigger than right and vice versa must both produce l ◦ r.
        let l = batch(
            &[DataType::Int; 2],
            &[row![1, 10], row![2, 20], row![3, 30]],
        );
        let r: Bag = vec![(row![10, "x"], 1)];
        let mut stats = ExecStats::default();
        let a = join(scanned(&l), bag(r), &[1], &[0], &mut stats).unwrap();
        assert_eq!(a.positions, [Pos::new(0, 0), Pos::new(0, 0)]);
        assert_eq!(a.materialize().unwrap(), vec![(row![1, 10, 10, "x"], 1)]);
        // Now right bigger: builds on left instead.
        let r2: Bag = vec![
            (row![10, "x"], 1),
            (row![99, "y"], 1),
            (row![98, "z"], 1),
            (row![97, "w"], 1),
        ];
        let b = join(scanned(&l), bag(r2), &[1], &[0], &mut stats).unwrap();
        assert_eq!(b.positions, [Pos::new(0, 0), Pos::new(0, 0)]);
        assert_eq!(b.materialize().unwrap(), vec![(row![1, 10, 10, "x"], 1)]);
        assert_eq!(stats.join_probes, 3 + 4);
    }

    #[test]
    fn nulls_never_join() {
        let l: Bag = vec![(Row::new(vec![Value::Null]), 1)];
        let r: Bag = vec![(Row::new(vec![Value::Null]), 1)];
        let mut stats = ExecStats::default();
        let out = join_bags(l, r, &[0], &[0], &mut stats);
        assert!(out.is_empty());
    }

    #[test]
    fn multi_column_keys_match_cell_by_cell_in_build_order() {
        // Int and Float key cells that compare equal join; a partial match
        // does not; equal build keys come out in build order.
        let l: Bag = vec![
            (row![1, 2.0, "l"], 1),
            (row![1, 3, "l"], 1),
            (row![Value::Null, 2, "l"], 1),
        ];
        let r = batch(
            &[DataType::Float, DataType::Int, DataType::Str],
            &[
                row![1.0, 2, "first"],
                row![1, 9, "no"],
                row![1, 2, "second"],
            ],
        );
        let mut stats = ExecStats::default();
        let out = join(bag(l), scanned(&r), &[0, 1], &[0, 1], &mut stats).unwrap();
        assert_eq!(
            out.materialize().unwrap(),
            vec![
                (row![1, 2.0, "l", 1.0, 2, "first"], 1),
                (row![1, 2.0, "l", 1.0, 2, "second"], 1),
            ]
        );
        assert_eq!(stats.join_probes, 3);
    }

    #[test]
    fn cross_product() {
        // Left-major whichever side is bigger, and no probes.
        let l: Bag = vec![(row![1], 1), (row![2], 1)];
        let r: Bag = vec![(row!["a"], 2), (row!["b"], 1), (row!["c"], 1)];
        let mut stats = ExecStats::default();
        let out = join_bags(l, r, &[], &[], &mut stats);
        let firsts: Vec<(Value, i64)> = out.iter().map(|(row, m)| (row[0].clone(), *m)).collect();
        let ones = [(1, 2), (1, 1), (1, 1), (2, 2), (2, 1), (2, 1)];
        assert_eq!(firsts, ones.map(|(v, m)| (Value::Int(v), m)));
        assert_eq!(stats.join_probes, 0);
    }

    #[test]
    fn equal_sizes_build_on_the_right_and_probe_in_left_order() {
        let l: Bag = vec![(row![1, "a"], 1), (row![2, "b"], 1)];
        let r: Bag = vec![(row![2, "x"], 1), (row![1, "y"], 1)];
        let mut stats = ExecStats::default();
        let out = join_bags(l, r, &[0], &[0], &mut stats);
        assert_eq!(
            out,
            vec![(row![1, "a", 1, "y"], 1), (row![2, "b", 2, "x"], 1)]
        );
        assert_eq!(stats.join_probes, 2);
    }

    #[test]
    fn multiplicities_carry_from_bag_sources_through_filter_and_aggregation() {
        let l: Bag = vec![(row![1], 3), (row![2], 2), (row![3], 5)];
        let r = batch(&[DataType::Int], &[row![1], row![1], row![2]]);
        let mut stats = ExecStats::default();
        let mut out = join(bag(l), scanned(&r), &[0], &[0], &mut stats).unwrap();
        assert_eq!(out.mults, [3, 3, 2]);
        out.retain(&imp_sql::Expr::binary(
            imp_sql::ast::BinOp::Lt,
            Expr::Col(0),
            Expr::Lit(Value::Int(3)),
        ))
        .unwrap();
        let count = AggSpec {
            func: imp_sql::AggFunc::Count,
            arg: None,
            name: "n".into(),
        };
        let groups = out.aggregate(&[Expr::Col(0)], &[count], &mut stats);
        assert_eq!(groups.unwrap(), vec![(row![1, 6], 1), (row![2, 2], 1)]);
    }

    /// `(k, v)` rows of Int columns.
    fn ints(rows: &[(i64, i64)]) -> Vec<ColumnData> {
        let rows: Vec<Row> = rows.iter().map(|&(k, v)| row![k, v]).collect();
        batch(&[DataType::Int; 2], &rows)
    }

    #[test]
    fn int_keys_join_as_on_cells_whichever_side_builds() {
        let (a0, a1) = (ints(&[(1, 10), (2, 20)]), ints(&[(3, 30), (9, 90)]));
        let b = ints(&[(2, 200), (3, 300), (4, 400)]);
        // Left has four tuples in two batches: right builds.
        let left = || scanned_batches(&[&a0, &a1]);
        let (out, stats) = pinned(left, || scanned(&b), (&[0], &[0]));
        let pairs = [(0, 1, 0), (1, 0, 1)].map(|(batch, row, r)| (Pos::new(batch, row), r));
        let want: Vec<Pos> = (pairs.iter())
            .flat_map(|&(l, r)| [l, Pos::new(0, r)])
            .collect();
        assert_eq!(out.positions, want);
        assert_eq!(stats.join_probes, 4);
        // Swapped: left has two tuples and builds, right probes in order.
        let (out, stats) = pinned(|| scanned(&a1), || scanned(&b), (&[0], &[0]));
        assert_eq!(out.positions, [Pos::new(0, 0), Pos::new(0, 1)]);
        assert_eq!(out.materialize().unwrap(), vec![(row![3, 30, 3, 300], 1)]);
        assert_eq!(stats.join_probes, 3);
    }

    #[test]
    fn duplicate_int_build_keys_chain_in_build_order() {
        let build = ints(&[(1, 0), (2, 1), (1, 2), (1, 3)]);
        let probe = ints(&[(1, 0), (5, 0), (2, 0), (1, 1), (7, 0), (8, 0)]);
        let (out, _) = pinned(|| scanned(&probe), || scanned(&build), (&[0], &[0]));
        let rows: Vec<(i64, i64)> = (out.materialize().unwrap().iter())
            .map(|(r, _)| (r[1].as_i64().unwrap(), r[3].as_i64().unwrap()))
            .collect();
        assert_eq!(
            rows,
            [(0, 0), (0, 2), (0, 3), (0, 1), (1, 0), (1, 2), (1, 3)]
        );
    }

    #[test]
    fn bag_multiplicities_above_an_int_key_join_carry_over() {
        // (bag ⋈ a) on cells, then ⋈ b on a's Int column and b's.
        let a = ints(&[(1, 5), (2, 6), (3, 5)]);
        let b = ints(&[(5, 50), (6, 60), (5, 51), (7, 70)]);
        let weighted = || {
            let bag_rows: Bag = vec![(row![1], 2), (row![3], 3), (row![2], 4)];
            let mut stats = ExecStats::default();
            join(bag(bag_rows), scanned(&a), &[0], &[0], &mut stats).unwrap()
        };
        assert_eq!(weighted().mults, [2, 3, 4]);
        // b is larger and probes, in its order, the bag-weighted tuples.
        let (out, stats) = pinned(weighted, || scanned(&b), (&[2], &[0]));
        assert_eq!(out.mults, [2, 3, 4, 2, 3]);
        assert_eq!(stats.join_probes, 4);
        let w: Vec<i64> = (out.materialize().unwrap().iter())
            .map(|(r, _)| r[4].as_i64().unwrap())
            .collect();
        assert_eq!(w, [50, 50, 60, 51, 51]);
    }

    #[test]
    fn two_int_keys_join_as_on_cells() {
        let l = ints(&[(1, 1), (1, 2), (2, 1), (2, 2), (1, 1)]);
        let r = ints(&[(1, 1), (2, 2), (1, 2), (1, 1)]);
        let (out, stats) = pinned(|| scanned(&l), || scanned(&r), (&[0, 1], &[0, 1]));
        let ids = [(0, 0), (0, 3), (1, 2), (3, 1), (4, 0), (4, 3)];
        let want: Vec<Pos> = (ids.iter())
            .flat_map(|&(l, r)| [Pos::new(0, l), Pos::new(0, r)])
            .collect();
        assert_eq!(out.positions, want);
        assert_eq!(stats.join_probes, 5);
    }

    #[test]
    fn int_key_pairs_whose_hashes_collide_do_not_join() {
        // FxHash of (a, b) is ((a·S).rotl(5) ^ b)·S: for any a' a b'
        // collides with (a, b).
        let fx = |words: &[i64]| {
            let mut hasher = FxHasher::default();
            words.iter().for_each(|&w| hasher.write_i64(w));
            hasher.finish()
        };
        let (a, b, a2) = (1, 2, 3);
        let b2 = (fx(&[a]).rotate_left(5) ^ fx(&[a2]).rotate_left(5) ^ b as u64) as i64;
        assert_eq!(fx(&[a, b]), fx(&[a2, b2]));
        let (l, r) = (ints(&[(a, b)]), ints(&[(a2, b2), (a, b)]));
        let (out, _) = pinned(|| scanned(&l), || scanned(&r), (&[0, 1], &[0, 1]));
        assert_eq!(out.positions, [Pos::new(0, 0), Pos::new(0, 1)]);
    }

    #[test]
    fn keys_that_are_not_null_free_int_columns_of_scans_join_on_cells() {
        let plain = ints(&[(1, 10), (2, 20)]);
        let with_null = batch(&[DataType::Int; 2], &[row![1, 1], row![Value::Null, 2]]);
        let floats = batch(
            &[DataType::Float, DataType::Int],
            &[row![1.0, 3], row![2.5, 4]],
        );
        let mut stats = ExecStats::default();
        // A column that holds a NULL.
        let (out, n) = counted_join(
            scanned(&plain),
            scanned(&with_null),
            (&[0], &[0]),
            &mut stats,
        );
        assert_eq!(
            (out.materialize().unwrap(), n),
            (vec![(row![1, 10, 1, 1], 1)], 0)
        );
        // An Int key meets a Float key: Int 1 joins Float 1.0.
        let (out, n) = counted_join(scanned(&plain), scanned(&floats), (&[0], &[0]), &mut stats);
        let want = vec![(row![1, 10, 1.0, 3], 1)];
        assert_eq!((out.materialize().unwrap(), n), (want, 0));
        // A computed key.
        let (out, n) = counted_join(
            computed(scanned(&plain), &[0]),
            scanned(&plain),
            (&[0], &[0]),
            &mut stats,
        );
        assert_eq!((out.len(), n), (2, 0));
        // A bag source.
        let rows: Bag = vec![(row![2, 0], 1)];
        let (out, n) = counted_join(bag(rows), scanned(&plain), (&[0], &[0]), &mut stats);
        assert_eq!(
            (out.materialize().unwrap(), n),
            (vec![(row![2, 0, 2, 20], 1)], 0)
        );
        // No keys: the cross product.
        let (out, n) = counted_join(scanned(&plain), scanned(&plain), (&[], &[]), &mut stats);
        assert_eq!((out.len(), n), (4, 0));
        // A NULL-free Int column on both sides: gathered.
        let (out, n) = counted_join(
            scanned(&plain),
            scanned(&with_null),
            (&[0], &[1]),
            &mut stats,
        );
        assert_eq!((out.len(), n), (2, 1));
    }
}
