//! What a filter predicate says about single columns, as value ranges.
//!
//! The sketch use-rewrite injects predicates shaped like
//! `(a >= l1 AND a < h1) OR (a >= l2 AND a < h2) OR …` (paper §1, fn. 2).
//! This module recognizes that shape and simple comparisons `col ⋈ lit`
//! among the conjuncts of a predicate and turns each into an **exact**
//! [`ColumnRanges`]: the conjunct holds for a row iff the column is
//! non-NULL and inside one of the ranges (excluded bounds stay excluded),
//! or is NULL and the union says `column IS NULL OR …`.
//! Storage decides such a constraint on the typed column — one of them also
//! drives zone-map pruning through its inclusive hull — so the batch scan
//! drops those conjuncts from the predicate it still has to evaluate
//! ([`split`]). The row API (capture, DML) takes the hull alone
//! ([`extract_prune_ranges`]) and keeps the whole predicate as residual;
//! a hull only ever *over*-approximates, so pruning never drops a
//! qualifying row.

use imp_sql::ast::BinOp;
use imp_sql::Expr;
use imp_storage::{KeyRange, Value, ValueRange};
use std::cmp::Ordering;
use std::ops::Bound;

/// `column ∈ ranges`, exactly as one or more conjuncts state it.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnRanges {
    /// Column the ranges constrain.
    pub column: usize,
    /// The union of ranges the column must lie in.
    pub ranges: Vec<KeyRange>,
    /// NULL passes too: the union has a `column IS NULL` disjunct (the
    /// use-rewrite adds one for a sketch's first fragment, which holds
    /// the NULLs).
    pub nulls: bool,
}

/// Inclusive prune ranges on one input column.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneRanges {
    /// Column the ranges constrain.
    pub column: usize,
    /// Inclusive `(lo, hi)` bounds; `None` = unbounded on that side.
    pub ranges: Vec<ValueRange>,
}

impl PruneRanges {
    /// The `(column, ranges)` form the scans of [`imp_storage::Table`] take.
    pub fn as_scan_arg(&self) -> (usize, &[ValueRange]) {
        (self.column, &self.ranges)
    }
}

/// The filters of one scan, split by who decides what.
#[derive(Debug, Default)]
pub struct Split {
    /// The range constraint that prunes chunks by zone map (through its
    /// inclusive hull) and makes the first selection, exactly.
    pub driver: Option<ColumnRanges>,
    /// The other range constraints storage decides exactly: disjunctive
    /// range unions first, then one intersected range per column that
    /// simple comparisons constrain.
    pub refine: Vec<ColumnRanges>,
    /// The filters with every decided conjunct replaced by `TRUE`, in
    /// order; a filter that is decided entirely is gone.
    pub residual: Vec<Expr>,
}

/// Split `filters` (each applied to the rows its predecessors let through,
/// all over the same columns) into range constraints and residual
/// predicates. A row passes every filter iff it satisfies every constraint
/// and every residual; the residuals evaluate exactly like the originals
/// on rows that satisfy the constraints.
pub fn split<'a>(filters: impl IntoIterator<Item = &'a Expr>) -> Split {
    let mut unions = Vec::new();
    let mut per_column: Vec<ColumnRanges> = Vec::new();
    let mut residual = Vec::new();
    for filter in filters {
        let rest = strip_ranges(filter, &mut unions, &mut per_column);
        if !is_true(&rest) {
            residual.push(rest);
        }
    }
    let mut refine = unions;
    refine.append(&mut per_column);
    // Prefer the most selective constraint for pruning: fully bounded
    // ranges beat half-open ones.
    let bounded = |c: &ColumnRanges, both: bool| {
        let is = |b: &Bound<Value>| !matches!(b, Bound::Unbounded);
        let count = |(lo, hi): &KeyRange| {
            if both {
                is(lo) && is(hi)
            } else {
                is(lo) || is(hi)
            }
        };
        c.ranges.iter().filter(|r| count(r)).count()
    };
    let driver = (0..refine.len())
        .filter(|&i| bounded(&refine[i], false) > 0)
        .max_by_key(|&i| (bounded(&refine[i], true), bounded(&refine[i], false)))
        .map(|i| refine.remove(i));
    Split {
        driver,
        refine,
        residual,
    }
}

/// Extract prune ranges from a predicate, if its conjuncts constrain a
/// single column to a union or intersection of ranges: the inclusive hull
/// of the constraint a batch scan of the same predicate prunes by.
pub fn extract_prune_ranges(predicate: &Expr) -> Option<PruneRanges> {
    // A hull holds no NULL: a constraint NULL passes prunes nothing here.
    let driver = split([predicate]).driver.filter(|d| !d.nulls)?;
    let side = |bound: &Bound<Value>| match bound {
        Bound::Included(v) | Bound::Excluded(v) => Some(v.clone()),
        Bound::Unbounded => None,
    };
    Some(PruneRanges {
        column: driver.column,
        ranges: (driver.ranges.iter())
            .map(|(lo, hi)| (side(lo), side(hi)))
            .collect(),
    })
}

fn is_true(e: &Expr) -> bool {
    matches!(e, Expr::Lit(Value::Bool(true)))
}

/// Move the range constraints among the conjuncts of `e` into `unions` /
/// `per_column` and return `e` with those conjuncts replaced by `TRUE`
/// (which keeps what the rest evaluates to, errors included, on every row
/// the constraints admit).
fn strip_ranges(
    e: &Expr,
    unions: &mut Vec<ColumnRanges>,
    per_column: &mut Vec<ColumnRanges>,
) -> Expr {
    let decided = Expr::Lit(Value::Bool(true));
    match e {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            let left = strip_ranges(left, unions, per_column);
            let right = strip_ranges(right, unions, per_column);
            if is_true(&left) && is_true(&right) {
                decided
            } else {
                Expr::binary(BinOp::And, left, right)
            }
        }
        // (a) Disjunctive range unions — the sketch use-rewrite shape
        //     `(a >= l1 AND a < h1) OR (a >= l2 AND a < h2) …`.
        Expr::Binary { op: BinOp::Or, .. } => match range_union(e) {
            Some(union) => {
                unions.push(union);
                decided
            }
            None => e.clone(),
        },
        // (b) Simple comparisons, intersected per column —
        //     `a >= lo AND a < hi` arrives as two separate conjuncts.
        _ => match comparison_bounds(e) {
            Some((column, range)) => {
                match per_column.iter_mut().find(|c| c.column == column) {
                    Some(c) => intersect(&mut c.ranges[0], range),
                    None => per_column.push(ColumnRanges {
                        column,
                        ranges: vec![range],
                        nulls: false,
                    }),
                }
                decided
            }
            None => e.clone(),
        },
    }
}

/// Narrow `range` to its intersection with `other`.
fn intersect(range: &mut KeyRange, other: KeyRange) {
    tighten(&mut range.0, other.0, Ordering::Greater);
    tighten(&mut range.1, other.1, Ordering::Less);
}

/// Replace `bound` by `other` when `other` is the tighter one: its value
/// compares `tighter` (greater for a lower bound, less for an upper one),
/// or equals `bound`'s and is excluded.
fn tighten(bound: &mut Bound<Value>, other: Bound<Value>, tighter: Ordering) {
    let replace = match (&*bound, &other) {
        (_, Bound::Unbounded) => false,
        (Bound::Unbounded, _) => true,
        (Bound::Included(old) | Bound::Excluded(old), Bound::Included(new)) => {
            new.cmp(old) == tighter
        }
        (Bound::Included(old), Bound::Excluded(new)) => new.cmp(old) != tighter.reverse(),
        (Bound::Excluded(old), Bound::Excluded(new)) => new.cmp(old) == tighter,
    };
    if replace {
        *bound = other;
    }
}

/// Interpret `e` as a union of ranges over one column.
fn range_union(e: &Expr) -> Option<ColumnRanges> {
    match e {
        Expr::Binary {
            op: BinOp::Or,
            left,
            right,
        } => {
            let mut union = range_union(left)?;
            let right = range_union(right)?;
            if union.column != right.column {
                return None;
            }
            union.ranges.extend(right.ranges);
            union.nulls |= right.nulls;
            Some(union)
        }
        Expr::IsNull {
            expr,
            negated: false,
        } => match **expr {
            Expr::Col(column) => Some(ColumnRanges {
                column,
                ranges: Vec::new(),
                nulls: true,
            }),
            _ => None,
        },
        _ => single_range(e),
    }
}

/// Interpret `e` as a conjunction of comparisons over one column, producing
/// one (possibly half-open) range.
fn single_range(e: &Expr) -> Option<ColumnRanges> {
    match e {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            let mut range = single_range(left)?;
            let right = single_range(right)?;
            if range.column != right.column {
                return None;
            }
            for other in right.ranges {
                intersect(&mut range.ranges[0], other);
            }
            Some(range)
        }
        _ => comparison_bounds(e).map(|(column, range)| ColumnRanges {
            column,
            ranges: vec![range],
            nulls: false,
        }),
    }
}

/// The range a single comparison `col ⋈ lit` / `lit ⋈ col` confines the
/// column to. A comparison with NULL holds for no row and has no range.
fn comparison_bounds(e: &Expr) -> Option<(usize, KeyRange)> {
    let Expr::Binary { op, left, right } = e else {
        return None;
    };
    let (col, lit, op) = match (left.as_ref(), right.as_ref()) {
        (Expr::Col(c), Expr::Lit(v)) => (*c, v.clone(), *op),
        (Expr::Lit(v), Expr::Col(c)) => (*c, v.clone(), flip(*op)?),
        _ => return None,
    };
    if lit.is_null() {
        return None;
    }
    // Interpret as: col <op> lit.
    let range = match op {
        BinOp::Eq => (Bound::Included(lit.clone()), Bound::Included(lit)),
        BinOp::Ge => (Bound::Included(lit), Bound::Unbounded),
        BinOp::Gt => (Bound::Excluded(lit), Bound::Unbounded),
        BinOp::Le => (Bound::Unbounded, Bound::Included(lit)),
        BinOp::Lt => (Bound::Unbounded, Bound::Excluded(lit)),
        _ => return None,
    };
    Some((col, range))
}

fn flip(op: BinOp) -> Option<BinOp> {
    Some(match op {
        BinOp::Eq => BinOp::Eq,
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_sql::Expr;

    #[test]
    fn extracts_between_disjunction() {
        // (c0 >= 1001 AND c0 <= 1500) OR (c0 >= 1501 AND c0 <= 10000)
        let e = Expr::disjunction([
            Expr::between_col(0, Value::Int(1001), Value::Int(1500)),
            Expr::between_col(0, Value::Int(1501), Value::Int(10000)),
        ]);
        let p = extract_prune_ranges(&e).unwrap();
        assert_eq!(p.column, 0);
        assert_eq!(p.ranges.len(), 2);
        assert_eq!(
            p.ranges[0],
            (Some(Value::Int(1001)), Some(Value::Int(1500)))
        );
    }

    #[test]
    fn extracts_simple_comparison() {
        let e = Expr::binary(BinOp::Lt, Expr::Col(2), Expr::Lit(Value::Int(10)));
        let p = extract_prune_ranges(&e).unwrap();
        assert_eq!(p.column, 2);
        assert_eq!(p.ranges, vec![(None, Some(Value::Int(10)))]);
    }

    #[test]
    fn flipped_comparison() {
        // 10 < c1  ⇒  c1 > 10
        let e = Expr::binary(BinOp::Lt, Expr::Lit(Value::Int(10)), Expr::Col(1));
        let p = extract_prune_ranges(&e).unwrap();
        assert_eq!(p.ranges, vec![(Some(Value::Int(10)), None)]);
    }

    #[test]
    fn prefers_bounded_disjunction_conjunct() {
        // b < 100 AND (a BETWEEN 1 AND 2 OR a BETWEEN 5 AND 6)
        let sketchy = Expr::disjunction([
            Expr::between_col(0, Value::Int(1), Value::Int(2)),
            Expr::between_col(0, Value::Int(5), Value::Int(6)),
        ]);
        let e = Expr::binary(
            BinOp::And,
            Expr::binary(BinOp::Lt, Expr::Col(1), Expr::Lit(Value::Int(100))),
            sketchy,
        );
        let p = extract_prune_ranges(&e).unwrap();
        assert_eq!(p.column, 0);
        assert_eq!(p.ranges.len(), 2);
    }

    #[test]
    fn mixed_columns_in_or_rejected() {
        let e = Expr::disjunction([
            Expr::between_col(0, Value::Int(1), Value::Int(2)),
            Expr::between_col(1, Value::Int(5), Value::Int(6)),
        ]);
        assert!(extract_prune_ranges(&e).is_none());
    }

    #[test]
    fn is_null_joins_a_union_on_the_same_column() {
        let is_null = |col| Expr::IsNull {
            expr: Box::new(Expr::Col(col)),
            negated: false,
        };
        let below = Expr::binary(BinOp::Lt, Expr::Col(0), Expr::Lit(Value::Int(1)));
        // c0 < 1 OR c0 IS NULL: the range, and NULL passes.
        let union = Expr::disjunction([below.clone(), is_null(0)]);
        let want = ColumnRanges {
            column: 0,
            ranges: vec![(Bound::Unbounded, Bound::Excluded(Value::Int(1)))],
            nulls: true,
        };
        assert_eq!(split([&union]).driver, Some(want));
        assert!(split([&union]).residual.is_empty());
        // A hull holds no NULL, so the row path prunes nothing by it.
        assert!(extract_prune_ranges(&union).is_none());
        // IS NULL on another column, or IS NOT NULL, is no range.
        let other = Expr::disjunction([below.clone(), is_null(1)]);
        assert_eq!(split([&other]).driver, None);
        let not_null = Expr::IsNull {
            expr: Box::new(Expr::Col(0)),
            negated: true,
        };
        let negated = Expr::disjunction([below, not_null]);
        assert_eq!(split([&negated]).driver, None);
    }

    #[test]
    fn non_range_predicates_rejected() {
        let e = Expr::binary(BinOp::Eq, Expr::Col(0), Expr::Col(1));
        assert!(extract_prune_ranges(&e).is_none());
    }

    #[test]
    fn split_keeps_bounds_exact_and_the_rest_in_place() {
        let cmp = |op, col, v: i64| Expr::binary(op, Expr::Col(col), Expr::Lit(Value::Int(v)));
        let other = Expr::binary(BinOp::Eq, Expr::Col(0), Expr::Col(1));
        // c0 > 3 AND c0 = c1 AND c0 <= 9 AND c0 >= 3, then c1 < 5 alone.
        let first = Expr::conjunction([
            cmp(BinOp::Gt, 0, 3),
            other.clone(),
            cmp(BinOp::Le, 0, 9),
            cmp(BinOp::Ge, 0, 3),
        ]);
        let split = split([&first, &cmp(BinOp::Lt, 1, 5)]);
        assert_eq!(
            split.driver,
            Some(ColumnRanges {
                column: 0,
                ranges: vec![(
                    Bound::Excluded(Value::Int(3)),
                    Bound::Included(Value::Int(9))
                )],
                nulls: false,
            })
        );
        assert_eq!(
            split.refine,
            vec![ColumnRanges {
                column: 1,
                ranges: vec![(Bound::Unbounded, Bound::Excluded(Value::Int(5)))],
                nulls: false,
            }]
        );
        // The decided conjuncts left `TRUE` behind; the second filter is gone.
        let t = || Expr::Lit(Value::Bool(true));
        assert_eq!(
            split.residual,
            vec![Expr::conjunction([t(), other, t(), t()])]
        );
        // Fully decided predicates leave nothing to evaluate.
        assert!(super::split([&cmp(BinOp::Lt, 1, 5)]).residual.is_empty());
    }
}
