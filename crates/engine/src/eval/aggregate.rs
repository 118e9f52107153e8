//! Batch (non-incremental) grouping and aggregation.
//!
//! One kernel, [`Grouping`], serves three feeders: the scan prefix hands it
//! each batch's columns and selection, a relation over joins hands it its
//! key and argument columns gathered through the positions, with the
//! tuples' multiplicities, and a sketch capture runs either into it, is
//! told the group of every row or tuple it feeds (to count each group's
//! tuples per fragment, `ℱ_g`), and takes the keys and accumulators as
//! [`CapturedGroups`] instead of rows. A batch whose every key and
//! argument is a plain NULL-free Int or Float column ([`Slice`]) is fed a
//! batch at a time: first every row becomes a group id, then each
//! aggregate is updated in one loop over those ids. Any other batch — a
//! computed key or argument, a Str, Bool or nullable column, a bag source
//! — is fed row by row, every key and aggregate of a row before the next
//! row, so that the first expression to fail raises its error as
//! operator-at-a-time evaluation would. On both paths a row whose key
//! equals the previous row's joins that row's group without a hash
//! lookup, and both find a key's group by the same hash and comparison,
//! so batches that take different paths still form one group per key.
//!
//! [`AggAcc`] is also the accumulator incremental maintenance keeps for
//! SUM / COUNT / AVG: it is updated with signed multiplicities (a deleted
//! tuple adds `-1` copies), so a capture hands its groups' accumulators
//! over as they are. MIN / MAX keep a bounded multiset there instead.

use super::hash_index::{hash_cells, HashIndex};
use super::{new_row, Bag, ExecStats};
use crate::error::EngineError;
use crate::Result;
use imp_sql::{AggFunc, AggSpec, Expr, SqlError};
use imp_storage::{Cell, ColumnData, Value};
use std::borrow::Cow;

/// Numeric accumulator that stays integral until it sees a float.
#[derive(Debug, Clone, Copy, Default)]
pub struct NumAcc {
    int: i64,
    float: f64,
    is_float: bool,
}

impl NumAcc {
    /// Add `v * mult`, for a cell read straight from a column.
    pub fn add_cell(&mut self, v: Cell<'_>, mult: i64) -> Result<()> {
        match v {
            Cell::Int(i) => self.add_int(i, mult),
            Cell::Float(f) => {
                self.add_float(f, mult);
                Ok(())
            }
            other => Err(EngineError::Execution(format!(
                "cannot sum non-numeric value {}",
                other.to_value()
            ))),
        }
    }

    /// Add `i * mult`; overflow-checked while the sum is integral.
    #[inline]
    fn add_int(&mut self, i: i64, mult: i64) -> Result<()> {
        if self.is_float {
            self.float += (i as f64) * mult as f64;
        } else {
            self.int = self
                .int
                .checked_add(i.checked_mul(mult).ok_or_else(overflow)?)
                .ok_or_else(overflow)?;
        }
        Ok(())
    }

    /// Add `f * mult`, widening the sum to a float.
    #[inline]
    fn add_float(&mut self, f: f64, mult: i64) {
        if !self.is_float {
            self.float = self.int as f64;
            self.is_float = true;
        }
        self.float += f * mult as f64;
    }

    /// Current value.
    pub fn value(&self) -> Value {
        if self.is_float {
            Value::Float(self.float)
        } else {
            Value::Int(self.int)
        }
    }

    /// Current value as f64.
    pub fn as_f64(&self) -> f64 {
        if self.is_float {
            self.float
        } else {
            self.int as f64
        }
    }
}

fn overflow() -> EngineError {
    EngineError::Execution("integer overflow in SUM".into())
}

/// One aggregate of one group of the group table: what
/// [`super::capture_groups`] hands a capture per group and aggregate, and
/// the state incremental maintenance keeps for SUM / COUNT / AVG.
#[derive(Debug, Clone)]
pub enum AggAcc {
    /// `SUM(a)`.
    Sum {
        /// The running sum.
        sum: NumAcc,
        /// Non-NULL input multiplicity.
        non_null: i64,
    },
    /// `COUNT(a)` / `COUNT(*)`.
    Count {
        /// Counted multiplicity.
        count: i64,
    },
    /// `AVG(a)`.
    Avg {
        /// The running sum.
        sum: NumAcc,
        /// Non-NULL input multiplicity.
        non_null: i64,
    },
    /// `MIN(a)`: the least value so far.
    Min {
        /// `None` until a non-NULL input.
        cur: Option<Value>,
    },
    /// `MAX(a)`: the greatest value so far.
    Max {
        /// `None` until a non-NULL input.
        cur: Option<Value>,
    },
}

impl AggAcc {
    /// The accumulator of `func` over no input.
    pub fn new(func: AggFunc) -> AggAcc {
        match func {
            AggFunc::Sum => AggAcc::Sum {
                sum: NumAcc::default(),
                non_null: 0,
            },
            AggFunc::Count => AggAcc::Count { count: 0 },
            AggFunc::Avg => AggAcc::Avg {
                sum: NumAcc::default(),
                non_null: 0,
            },
            AggFunc::Min => AggAcc::Min { cur: None },
            AggFunc::Max => AggAcc::Max { cur: None },
        }
    }

    /// Add `mult` copies (negative: remove) of `arg`, `None` for
    /// `count(*)`.
    pub fn update(&mut self, arg: Option<Cell<'_>>, mult: i64) -> Result<()> {
        // `count(*)` has no argument and counts rows; every other
        // aggregate skips NULL arguments.
        let arg = match arg {
            None => {
                if let AggAcc::Count { count } = self {
                    *count += mult;
                }
                return Ok(());
            }
            Some(Cell::Null) => return Ok(()),
            Some(v) => v,
        };
        match self {
            AggAcc::Count { count } => *count += mult,
            AggAcc::Sum { sum, non_null } | AggAcc::Avg { sum, non_null } => {
                sum.add_cell(arg, mult)?;
                *non_null += mult;
            }
            AggAcc::Min { cur } => {
                if cur.as_ref().is_none_or(|c| arg < c.as_cell()) {
                    *cur = Some(arg.to_value());
                }
            }
            AggAcc::Max { cur } => {
                if cur.as_ref().is_none_or(|c| arg > c.as_cell()) {
                    *cur = Some(arg.to_value());
                }
            }
        }
        Ok(())
    }

    /// [`AggAcc::update`] with a non-NULL Int argument.
    #[inline]
    fn update_int(&mut self, i: i64, mult: i64) -> Result<()> {
        match self {
            AggAcc::Sum { sum, non_null } | AggAcc::Avg { sum, non_null } => {
                sum.add_int(i, mult)?;
                *non_null += mult;
                Ok(())
            }
            other => other.update(Some(Cell::Int(i)), mult),
        }
    }

    /// [`AggAcc::update`] with a non-NULL Float argument.
    #[inline]
    fn update_float(&mut self, f: f64, mult: i64) -> Result<()> {
        match self {
            AggAcc::Sum { sum, non_null } | AggAcc::Avg { sum, non_null } => {
                sum.add_float(f, mult);
                *non_null += mult;
                Ok(())
            }
            other => other.update(Some(Cell::Float(f)), mult),
        }
    }

    /// The aggregate's value.
    pub fn finish(&self) -> Value {
        match self {
            AggAcc::Count { count } => Value::Int(*count),
            AggAcc::Sum { sum, non_null } => {
                if *non_null == 0 {
                    Value::Null
                } else {
                    sum.value()
                }
            }
            AggAcc::Avg { sum, non_null } => {
                if *non_null == 0 {
                    Value::Null
                } else {
                    Value::Float(sum.as_f64() / *non_null as f64)
                }
            }
            AggAcc::Min { cur } | AggAcc::Max { cur } => cur.clone().unwrap_or(Value::Null),
        }
    }
}

/// Where a group key, an aggregate argument or a join key comes from:
/// straight from a column (read as a cell), or from a general expression
/// (evaluated).
#[derive(Debug, Clone, Copy)]
pub(super) enum Operand<'a> {
    Column(usize),
    Computed(&'a Expr),
}

impl<'a> Operand<'a> {
    /// `e` over `arity` columns.
    pub fn of(e: &'a Expr, arity: usize) -> Operand<'a> {
        match e {
            Expr::Col(c) if *c < arity => Operand::Column(*c),
            other => Operand::Computed(other),
        }
    }
}

/// Group keys and aggregates (function and argument, `None` = `count(*)`)
/// over the columns of whatever feeds the aggregation.
pub(super) struct Aggregation<'p> {
    pub group_by: Vec<Cow<'p, Expr>>,
    pub aggs: Vec<(AggFunc, Option<Cow<'p, Expr>>)>,
}

impl<'p> Aggregation<'p> {
    /// `group_by` and `aggs`, each rewritten by `over` onto those columns.
    pub fn new(
        group_by: &'p [Expr],
        aggs: &'p [AggSpec],
        over: impl Fn(&'p Expr) -> Cow<'p, Expr>,
    ) -> Aggregation<'p> {
        Aggregation {
            group_by: group_by.iter().map(&over).collect(),
            aggs: (aggs.iter())
                .map(|spec| (spec.func, spec.arg.as_ref().map(&over)))
                .collect(),
        }
    }
}

/// An Int or Float column without NULLs, as its native slice: where
/// [`Grouping::add_batch`] reads keys and arguments.
#[derive(Debug, Clone, Copy)]
pub(super) enum Slice<'c> {
    Int(&'c [i64]),
    Float(&'c [f64]),
}

impl<'c> Slice<'c> {
    /// `column` as a slice, if it is an Int or Float column without NULLs.
    pub fn of(column: &'c ColumnData) -> Option<Slice<'c>> {
        (column.ints().map(Slice::Int)).or_else(|| column.floats().map(Slice::Float))
    }

    fn cell(self, row: usize) -> Cell<'static> {
        match self {
            Slice::Int(v) => Cell::Int(v[row]),
            Slice::Float(v) => Cell::Float(v[row]),
        }
    }
}

/// An aggregation fed a batch or a row at a time, wherever the rows live
/// (column batches, position tuples): see the module docs for which path
/// a batch takes. On the row path a key or argument that is a plain
/// column is read as a cell, anything else is evaluated. Generic over how
/// a row is read, so each feeder gets its own loops.
pub(super) struct Grouping<'a> {
    keys: Vec<Operand<'a>>,
    /// `None`: `count(*)`.
    args: Vec<Option<Operand<'a>>>,
    table: GroupTable,
    /// The values of the computed keys of the current row.
    computed: Vec<Value>,
    /// The group of each row of the current batch.
    ids: Vec<usize>,
}

impl<'a> Grouping<'a> {
    /// `aggregation` over rows of `arity` columns.
    pub fn new(aggregation: &'a Aggregation<'_>, arity: usize) -> Grouping<'a> {
        let Aggregation { group_by, aggs } = aggregation;
        let args = aggs.iter().map(|(_, arg)| arg.as_ref());
        Grouping {
            keys: group_by.iter().map(|e| Operand::of(e, arity)).collect(),
            args: args.map(|a| a.map(|e| Operand::of(e, arity))).collect(),
            table: GroupTable {
                funcs: aggs.iter().map(|(func, _)| *func).collect(),
                width: group_by.len(),
                ..GroupTable::default()
            },
            computed: vec![Value::Null; group_by.len()],
            ids: Vec::new(),
        }
    }

    /// The columns the keys and arguments read, if every one of them is a
    /// plain column: what [`Grouping::add_batch`] needs slices of.
    pub fn plain_columns(&self) -> Option<Vec<usize>> {
        let args = self.args.iter().flatten();
        let mut columns = (self.keys.iter().chain(args))
            .map(|operand| match operand {
                Operand::Column(c) => Some(*c),
                Operand::Computed(_) => None,
            })
            .collect::<Option<Vec<_>>>()?;
        columns.sort_unstable();
        columns.dedup();
        Some(columns)
    }

    /// Feed `n` rows a batch at a time: row `i` is row `row(i)` of the
    /// slices and has multiplicity `mult(i)`. Only if `slice` reads every
    /// key and argument column as a [`Slice`]; `false`, feeding nothing,
    /// otherwise — the caller then feeds the rows through
    /// [`Grouping::add`]. Updating one aggregate after another cannot
    /// change the outcome here: the only error left is an Int SUM or AVG
    /// overflowing, and it is the same error whichever raises it.
    #[inline]
    pub fn add_batch<'c>(
        &mut self,
        n: usize,
        slice: impl Fn(usize) -> Option<Slice<'c>>,
        row: impl Fn(usize) -> usize,
        mult: impl Fn(usize) -> i64,
    ) -> Result<bool> {
        let column = |operand: &Operand<'_>| match operand {
            Operand::Column(c) => slice(*c),
            Operand::Computed(_) => None,
        };
        let Some(keys) = self.keys.iter().map(column).collect::<Option<Vec<_>>>() else {
            return Ok(false);
        };
        let args = self.args.iter().map(|arg| match arg {
            None => Some(None),
            Some(operand) => column(operand).map(Some),
        });
        let Some(args) = args.collect::<Option<Vec<_>>>() else {
            return Ok(false);
        };
        #[cfg(test)]
        super::tests::TYPED_BATCHES.with(|b| b.set(b.get() + 1));
        let (table, ids) = (&mut self.table, &mut self.ids);
        ids.clear();
        match keys[..] {
            // A single Int key is compared natively along its runs.
            [Slice::Int(keys)] => {
                let mut run = table.last_int();
                ids.extend((0..n).map(|i| {
                    let key = keys[row(i)];
                    match run {
                        Some((last, group)) if last == key => group,
                        _ => {
                            let group = table.lookup(|_| Cell::Int(key));
                            run = Some((key, group));
                            group
                        }
                    }
                }));
            }
            _ => ids.extend((0..n).map(|i| table.group(|k| keys[k].cell(row(i))))),
        }
        let per_group = table.funcs.len();
        for (agg, arg) in args.into_iter().enumerate() {
            let acc = |i: usize| ids[i] * per_group + agg;
            let accs = &mut table.accs;
            match arg {
                None => (0..n).try_for_each(|i| accs[acc(i)].update(None, mult(i)))?,
                Some(Slice::Int(v)) => {
                    (0..n).try_for_each(|i| accs[acc(i)].update_int(v[row(i)], mult(i)))?
                }
                Some(Slice::Float(v)) => {
                    (0..n).try_for_each(|i| accs[acc(i)].update_float(v[row(i)], mult(i)))?
                }
            }
        }
        Ok(true)
    }

    /// Feed one row with multiplicity `mult`: `cell(c)` reads its column
    /// `c`, `value(c)` hands the column to an expression. Returns the
    /// row's group.
    #[inline]
    pub fn add<'c>(
        &mut self,
        cell: impl Fn(usize) -> Cell<'c>,
        value: impl Fn(usize) -> std::result::Result<Value, SqlError>,
        mult: i64,
    ) -> Result<usize> {
        let Grouping {
            keys,
            args,
            table,
            computed,
            ..
        } = self;
        for (slot, key) in computed.iter_mut().zip(keys.iter()) {
            if let Operand::Computed(e) = key {
                *slot = e.eval_with(&value)?;
            }
        }
        let group = table.group(|i| match keys[i] {
            Operand::Column(c) => cell(c),
            Operand::Computed(_) => computed[i].as_cell(),
        });
        for (agg, arg) in args.iter().enumerate() {
            match arg {
                None => table.update(group, agg, None, mult)?,
                Some(Operand::Column(c)) => table.update(group, agg, Some(cell(*c)), mult)?,
                Some(Operand::Computed(e)) => {
                    let value = e.eval_with(&value)?;
                    table.update(group, agg, Some(value.as_cell()), mult)?
                }
            }
        }
        Ok(group)
    }

    /// The group of each row of the last batch [`Grouping::add_batch`]
    /// took.
    pub fn batch_groups(&self) -> &[usize] {
        &self.ids
    }

    /// One row per group: key, then aggregates, in first-seen order.
    pub fn finish(self, stats: &mut ExecStats) -> Bag {
        self.table.finish(stats)
    }

    /// The groups as they stand, in first-seen order. No group is made up
    /// for a global aggregate over no rows, and no row is built.
    pub fn captured(self, stats: &mut ExecStats) -> CapturedGroups {
        let GroupTable {
            funcs,
            width,
            keys,
            groups,
            accs,
            ..
        } = self.table;
        stats.agg_groups += groups as u64;
        CapturedGroups {
            width,
            keys,
            per_group: funcs.len(),
            accs,
        }
    }
}

/// The groups of an aggregation as a capture needs them
/// ([`super::capture_groups`]): per group its key and its accumulators.
/// Groups are numbered in the order the scan, or the join's tuples, first
/// met them.
#[derive(Debug)]
pub struct CapturedGroups {
    width: usize,
    /// `width` key values per group.
    keys: Vec<Value>,
    per_group: usize,
    /// `per_group` accumulators per group.
    accs: Vec<AggAcc>,
}

impl CapturedGroups {
    /// Group `g`'s key.
    pub fn key(&self, g: usize) -> &[Value] {
        &self.keys[g * self.width..(g + 1) * self.width]
    }

    /// Group `g`'s accumulators, one per aggregate.
    pub fn accumulators(&self, g: usize) -> &[AggAcc] {
        &self.accs[g * self.per_group..(g + 1) * self.per_group]
    }
}

/// The groups of one aggregation. A key is hashed and compared cell by
/// cell where it lies; only a *new* group copies its key cells into
/// `keys`. A row whose key equals the last row's joins its group without
/// hashing. The output rows are the only rows it builds. (Folded into
/// [`Grouping`], the scan prefix's group loop measured 20 % slower.)
#[derive(Debug, Default)]
struct GroupTable {
    funcs: Vec<AggFunc>,
    index: HashIndex,
    /// Key cells per group.
    width: usize,
    /// `width` key values per group, group after group.
    keys: Vec<Value>,
    groups: usize,
    /// `funcs.len()` accumulators per group, group after group.
    accs: Vec<AggAcc>,
    /// The group [`GroupTable::lookup`] found last.
    last: Option<usize>,
}

impl GroupTable {
    /// The group whose key is `key(0), …, key(width - 1)`, created if new:
    /// the last group found if its key is that key, else looked up.
    fn group<'k>(&mut self, key: impl Fn(usize) -> Cell<'k>) -> usize {
        let width = self.width;
        if let Some(last) = self.last {
            let stored = &self.keys[last * width..(last + 1) * width];
            if (0..width).all(|i| key(i) == stored[i].as_cell()) {
                return last;
            }
        }
        self.lookup(key)
    }

    /// [`GroupTable::group`] through the hash index.
    fn lookup<'k>(&mut self, key: impl Fn(usize) -> Cell<'k>) -> usize {
        #[cfg(test)]
        super::tests::GROUP_LOOKUPS.with(|n| n.set(n.get() + 1));
        let width = self.width;
        let hash = hash_cells((0..width).map(&key));
        let found = self.index.chain(hash).find(|&group| {
            let stored = &self.keys[group * width..(group + 1) * width];
            (0..width).all(|i| key(i) == stored[i].as_cell())
        });
        let group = found.unwrap_or_else(|| {
            let group = self.groups;
            self.groups += 1;
            self.index.link(hash, group);
            self.keys.extend((0..width).map(|i| key(i).to_value()));
            self.accs.extend(self.funcs.iter().map(|f| AggAcc::new(*f)));
            group
        });
        self.last = Some(group);
        group
    }

    /// The last group found and its key, if that is one Int.
    fn last_int(&self) -> Option<(i64, usize)> {
        let last = self.last?;
        match self.keys[last * self.width..(last + 1) * self.width] {
            [Value::Int(key)] => Some((key, last)),
            _ => None,
        }
    }

    /// Feed aggregate number `agg` of `group` one input row: its argument
    /// (`None` for `count(*)`) with multiplicity `mult`.
    fn update(&mut self, group: usize, agg: usize, arg: Option<Cell<'_>>, mult: i64) -> Result<()> {
        self.accs[group * self.funcs.len() + agg].update(arg, mult)
    }

    /// One output row per group: key, then aggregates. Aggregation without
    /// GROUP BY yields one row even on empty input.
    fn finish(mut self, stats: &mut ExecStats) -> Bag {
        if self.width == 0 && self.groups == 0 {
            self.lookup(|_| Cell::Null);
        }
        stats.agg_groups += self.groups as u64;
        let (width, per_group) = (self.width, self.funcs.len());
        let mut keys = self.keys.into_iter();
        let mut accs = self.accs.iter();
        (0..self.groups)
            .map(|_| {
                let aggregates = accs.by_ref().take(per_group).map(AggAcc::finish);
                (new_row(keys.by_ref().take(width).chain(aggregates)), 1)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::super::join::Relation;
    use super::*;
    use imp_storage::{row, Row};

    /// Aggregate a bag through the relation it is the source of.
    fn aggregate(
        rows: Bag,
        group_by: &[Expr],
        aggs: &[AggSpec],
        stats: &mut ExecStats,
    ) -> Result<Bag> {
        let arity = rows.first().map_or(1, |(row, _)| row.arity());
        Relation::bag(rows, arity).aggregate(group_by, aggs, stats)
    }

    fn spec(func: AggFunc, col: usize) -> AggSpec {
        AggSpec {
            func,
            arg: Some(Expr::Col(col)),
            name: format!("{}_{col}", func.name()),
        }
    }

    #[test]
    fn sum_count_avg_min_max() {
        let rows: Bag = vec![(row!["a", 3], 1), (row!["a", 5], 2), (row!["b", 7], 1)];
        let aggs = vec![
            spec(AggFunc::Sum, 1),
            spec(AggFunc::Count, 1),
            spec(AggFunc::Avg, 1),
            spec(AggFunc::Min, 1),
            spec(AggFunc::Max, 1),
        ];
        let mut st = ExecStats::default();
        let mut out = aggregate(rows, &[Expr::Col(0)], &aggs, &mut st).unwrap();
        out.sort();
        assert_eq!(
            out,
            vec![
                (row!["a", 13, 3, 13.0 / 3.0, 3, 5], 1),
                (row!["b", 7, 1, 7.0, 7, 7], 1),
            ]
        );
        assert_eq!(st.agg_groups, 2);
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let aggs = vec![spec(AggFunc::Sum, 0), spec(AggFunc::Count, 0)];
        let mut st = ExecStats::default();
        let out = aggregate(vec![], &[], &aggs, &mut st).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0[0], Value::Null); // SUM of empty = NULL
        assert_eq!(out[0].0[1], Value::Int(0)); // COUNT of empty = 0
    }

    #[test]
    fn nulls_skipped() {
        let rows: Bag = vec![
            (Row::new(vec![Value::Null]), 1),
            (Row::new(vec![Value::Int(4)]), 1),
        ];
        let aggs = vec![spec(AggFunc::Avg, 0), spec(AggFunc::Count, 0)];
        let mut st = ExecStats::default();
        let out = aggregate(rows, &[], &aggs, &mut st).unwrap();
        assert_eq!(out[0].0[0], Value::Float(4.0));
        assert_eq!(out[0].0[1], Value::Int(1));
    }

    #[test]
    fn count_star_counts_multiplicity() {
        let rows: Bag = vec![(row![1], 3)];
        let aggs = vec![AggSpec {
            func: AggFunc::Count,
            arg: None,
            name: "c".into(),
        }];
        let mut st = ExecStats::default();
        let out = aggregate(rows, &[], &aggs, &mut st).unwrap();
        assert_eq!(out[0].0[0], Value::Int(3));
    }

    #[test]
    fn sum_widens_to_float() {
        let rows: Bag = vec![(row![1], 1), (row![2.5], 1)];
        let aggs = vec![spec(AggFunc::Sum, 0)];
        let mut st = ExecStats::default();
        let out = aggregate(rows, &[], &aggs, &mut st).unwrap();
        assert_eq!(out[0].0[0], Value::Float(3.5));
    }
}
