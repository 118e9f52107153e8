//! Extraction of zone-map prune ranges from filter predicates.
//!
//! The sketch use-rewrite injects predicates shaped like
//! `(a >= l1 AND a <= h1) OR (a >= l2 AND a <= h2) OR …` (paper §1, fn. 2).
//! This module recognizes that shape (and simple comparisons) and converts
//! it into a set of inclusive ranges for a single column, which the scan
//! operator feeds to the chunk zone maps. The extraction is conservative:
//! it only ever returns ranges that *over*-approximate the predicate, so
//! pruning never drops qualifying rows.

use imp_sql::ast::BinOp;
use imp_sql::Expr;
use imp_storage::{Value, ValueRange};

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

/// Extract prune ranges from a predicate, if its conjuncts constrain a
/// single column to a union or intersection of ranges.
pub fn extract_prune_ranges(predicate: &Expr) -> Option<PruneRanges> {
    let mut conjuncts = Vec::new();
    collect_conjuncts(predicate, &mut conjuncts);
    let mut candidates: Vec<PruneRanges> = Vec::new();
    // (a) Disjunctive range unions — the sketch use-rewrite shape
    //     `(a >= l1 AND a < h1) OR (a >= l2 AND a < h2) …`.
    for c in &conjuncts {
        if matches!(c, Expr::Binary { op: BinOp::Or, .. }) {
            if let Some(p) = range_union(c) {
                candidates.push(p);
            }
        }
    }
    // (b) Per-column intersection of simple comparison conjuncts —
    //     `a >= lo AND a < hi` arrives as two separate conjuncts.
    let mut per_col: Vec<(usize, Option<Value>, Option<Value>)> = Vec::new();
    for c in &conjuncts {
        if let Some((col, lo, hi)) = comparison_bounds(c) {
            match per_col.iter_mut().find(|e| e.0 == col) {
                Some(e) => {
                    if let Some(l) = lo {
                        e.1 = Some(match e.1.take() {
                            Some(old) if old >= l => old,
                            _ => l,
                        });
                    }
                    if let Some(h) = hi {
                        e.2 = Some(match e.2.take() {
                            Some(old) if old <= h => old,
                            _ => h,
                        });
                    }
                }
                None => per_col.push((col, lo, hi)),
            }
        }
    }
    for (column, lo, hi) in per_col {
        candidates.push(PruneRanges {
            column,
            ranges: vec![(lo, hi)],
        });
    }
    // Prefer the most selective candidate: fully bounded ranges beat
    // half-open ones; fall back to any candidate with at least one bound.
    candidates
        .into_iter()
        .filter(|p| p.ranges.iter().any(|(lo, hi)| lo.is_some() || hi.is_some()))
        .max_by_key(|p| (bounded_count(p), half_bounded_count(p)))
}

fn bounded_count(p: &PruneRanges) -> usize {
    p.ranges
        .iter()
        .filter(|(lo, hi)| lo.is_some() && hi.is_some())
        .count()
}

fn half_bounded_count(p: &PruneRanges) -> usize {
    p.ranges
        .iter()
        .filter(|(lo, hi)| lo.is_some() || hi.is_some())
        .count()
}

fn collect_conjuncts<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    if let Expr::Binary {
        op: BinOp::And,
        left,
        right,
    } = e
    {
        collect_conjuncts(left, out);
        collect_conjuncts(right, out);
    } else {
        out.push(e);
    }
}

/// Interpret `e` as a union of ranges over one column.
fn range_union(e: &Expr) -> Option<PruneRanges> {
    match e {
        Expr::Binary {
            op: BinOp::Or,
            left,
            right,
        } => {
            let l = range_union(left)?;
            let r = range_union(right)?;
            if l.column != r.column {
                return None;
            }
            let mut ranges = l.ranges;
            ranges.extend(r.ranges);
            Some(PruneRanges {
                column: l.column,
                ranges,
            })
        }
        _ => single_range(e),
    }
}

/// Interpret `e` as a conjunction of comparisons over one column, producing
/// one (possibly half-open) range.
fn single_range(e: &Expr) -> Option<PruneRanges> {
    let mut conjuncts = Vec::new();
    collect_conjuncts(e, &mut conjuncts);
    let mut column: Option<usize> = None;
    let mut lo: Option<Value> = None;
    let mut hi: Option<Value> = None;
    for c in conjuncts {
        let (col, clo, chi) = comparison_bounds(c)?;
        match column {
            None => column = Some(col),
            Some(existing) if existing != col => return None,
            _ => {}
        }
        if let Some(l) = clo {
            lo = Some(match lo {
                Some(old) if old >= l => old,
                _ => l,
            });
        }
        if let Some(h) = chi {
            hi = Some(match hi {
                Some(old) if old <= h => old,
                _ => h,
            });
        }
    }
    column.map(|column| PruneRanges {
        column,
        ranges: vec![(lo, hi)],
    })
}

/// Bounds contributed by a single comparison `col ⋈ lit` / `lit ⋈ col`.
/// Strict comparisons are widened to inclusive bounds (conservative).
fn comparison_bounds(e: &Expr) -> Option<(usize, Option<Value>, Option<Value>)> {
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
    match op {
        BinOp::Eq => Some((col, Some(lit.clone()), Some(lit))),
        BinOp::Ge | BinOp::Gt => Some((col, Some(lit), None)),
        BinOp::Le | BinOp::Lt => Some((col, None, Some(lit))),
        _ => None,
    }
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
    fn non_range_predicates_rejected() {
        let e = Expr::binary(BinOp::Eq, Expr::Col(0), Expr::Col(1));
        assert!(extract_prune_ranges(&e).is_none());
    }
}
