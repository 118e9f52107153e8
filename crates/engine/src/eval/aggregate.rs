//! Batch (non-incremental) grouping and aggregation.

use super::hash_index::{hash_cells, HashIndex};
use super::{Bag, ExecStats};
use crate::error::EngineError;
use crate::Result;
use imp_sql::{AggFunc, AggSpec, Expr};
use imp_storage::{Cell, Row, Value};

/// Numeric accumulator that stays integral until it sees a float.
#[derive(Debug, Clone, Copy, Default)]
pub struct NumAcc {
    int: i64,
    float: f64,
    is_float: bool,
}

impl NumAcc {
    /// Add `v * mult`.
    pub fn add(&mut self, v: &Value, mult: i64) -> Result<()> {
        self.add_cell(v.as_cell(), mult)
    }

    /// [`NumAcc::add`] for a cell read straight from a column.
    pub fn add_cell(&mut self, v: Cell<'_>, mult: i64) -> Result<()> {
        match v {
            Cell::Int(i) => {
                if self.is_float {
                    self.float += (i as f64) * mult as f64;
                } else {
                    self.int = self
                        .int
                        .checked_add(i.checked_mul(mult).ok_or_else(overflow)?)
                        .ok_or_else(overflow)?;
                }
            }
            Cell::Float(f) => {
                if !self.is_float {
                    self.float = self.int as f64;
                    self.is_float = true;
                }
                self.float += f * mult as f64;
            }
            other => {
                return Err(EngineError::Execution(format!(
                    "cannot sum non-numeric value {}",
                    other.to_value()
                )))
            }
        }
        Ok(())
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

    /// Raw parts `(int, float, is_float)` for state persistence.
    pub fn to_parts(&self) -> (i64, f64, bool) {
        (self.int, self.float, self.is_float)
    }

    /// Rebuild from persisted parts.
    pub fn from_parts(int: i64, float: f64, is_float: bool) -> NumAcc {
        NumAcc {
            int,
            float,
            is_float,
        }
    }
}

fn overflow() -> EngineError {
    EngineError::Execution("integer overflow in SUM".into())
}

/// Per-aggregate batch accumulator.
#[derive(Debug, Clone)]
enum AggAcc {
    Sum { sum: NumAcc, non_null: i64 },
    Count { count: i64 },
    Avg { sum: NumAcc, non_null: i64 },
    Min { cur: Option<Value> },
    Max { cur: Option<Value> },
}

impl AggAcc {
    fn new(func: AggFunc) -> AggAcc {
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

    fn update(&mut self, arg: Option<Cell<'_>>, mult: i64) -> Result<()> {
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

    fn finish(&self) -> Value {
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

/// The groups of one aggregation, fed a row at a time by either sink: the
/// batch scan hands in cells read from columns, [`aggregate`] cells of
/// evaluated rows. A key is hashed and compared cell by cell where it
/// lies; only a *new* group builds a key [`Row`]. Groups come out in
/// first-seen order.
#[derive(Debug)]
pub(super) struct GroupTable {
    funcs: Vec<AggFunc>,
    index: HashIndex,
    keys: Vec<Row>,
    /// `funcs.len()` accumulators per group, group after group.
    accs: Vec<AggAcc>,
}

impl GroupTable {
    pub fn new(funcs: impl IntoIterator<Item = AggFunc>) -> GroupTable {
        GroupTable {
            funcs: funcs.into_iter().collect(),
            index: HashIndex::default(),
            keys: Vec::new(),
            accs: Vec::new(),
        }
    }

    /// The group whose key is `key(0), …, key(width - 1)`, created if new.
    pub fn group<'k>(&mut self, width: usize, key: impl Fn(usize) -> Cell<'k>) -> usize {
        let hash = hash_cells((0..width).map(&key));
        let found = self.index.chain(hash).find(|&group| {
            let stored = self.keys[group].values();
            (0..width).all(|i| key(i) == stored[i].as_cell())
        });
        found.unwrap_or_else(|| {
            let group = self.keys.len();
            self.index.link(hash, group);
            self.keys
                .push((0..width).map(|i| key(i).to_value()).collect());
            self.accs.extend(self.funcs.iter().map(|f| AggAcc::new(*f)));
            group
        })
    }

    /// Feed aggregate number `agg` of `group` one input row: its argument
    /// (`None` for `count(*)`) with multiplicity `mult`.
    pub fn update(
        &mut self,
        group: usize,
        agg: usize,
        arg: Option<Cell<'_>>,
        mult: i64,
    ) -> Result<()> {
        self.accs[group * self.funcs.len() + agg].update(arg, mult)
    }

    /// One output row per group: key, then aggregates. Aggregation without
    /// GROUP BY (`global`) yields one row even on empty input.
    pub fn finish(mut self, global: bool, stats: &mut ExecStats) -> Bag {
        if global && self.keys.is_empty() {
            self.group(0, |_| Cell::Null);
        }
        stats.agg_groups += self.keys.len() as u64;
        let per_group = self.funcs.len();
        let mut accs = self.accs.iter();
        (self.keys.iter())
            .map(|key| {
                let aggregates = accs.by_ref().take(per_group).map(AggAcc::finish);
                let row = key.values().iter().cloned().chain(aggregates).collect();
                (row, 1)
            })
            .collect()
    }
}

/// Group `rows` by `group_by` and compute `aggs` per group.
pub fn aggregate(
    rows: Bag,
    group_by: &[Expr],
    aggs: &[AggSpec],
    stats: &mut ExecStats,
) -> Result<Bag> {
    let mut groups = GroupTable::new(aggs.iter().map(|a| a.func));
    let mut key = Vec::with_capacity(group_by.len());
    for (row, m) in rows {
        key.clear();
        for g in group_by {
            key.push(g.eval(&row)?);
        }
        let group = groups.group(key.len(), |i| key[i].as_cell());
        for (agg, spec) in aggs.iter().enumerate() {
            let arg = spec.arg.as_ref().map(|e| e.eval(&row)).transpose()?;
            groups.update(group, agg, arg.as_ref().map(Value::as_cell), m)?;
        }
    }
    Ok(groups.finish(group_by.is_empty(), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_storage::row;

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
