//! Resolved scalar expressions and their evaluator.
//!
//! After name resolution, column references become positional indices into
//! the input row, so evaluation needs no name lookups. The evaluator
//! implements SQL three-valued-logic-lite: NULL operands propagate to NULL,
//! and a NULL predicate result is treated as *false* by filters (the only
//! consumers of boolean results in our plans).

use crate::ast::{BinOp, UnOp};
use crate::error::SqlError;
use crate::Result;
use imp_storage::{Row, Value};
use std::fmt;

/// A resolved scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Input column by position.
    Col(usize),
    /// Constant.
    Lit(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// Negated?
        negated: bool,
    },
    /// `expr [NOT] IN (v1, ..)` over constant lists.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidates.
        list: Vec<Expr>,
        /// Negated?
        negated: bool,
    },
}

impl Expr {
    /// Shorthand for binary expressions.
    pub fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// `lo <= col AND col <= hi` (inclusive range on a column) — the shape
    /// the use-rewrite injects.
    pub fn between_col(col: usize, lo: Value, hi: Value) -> Expr {
        Expr::binary(
            BinOp::And,
            Expr::binary(BinOp::Ge, Expr::Col(col), Expr::Lit(lo)),
            Expr::binary(BinOp::Le, Expr::Col(col), Expr::Lit(hi)),
        )
    }

    /// OR-together a list of predicates (returns `false` literal if empty).
    pub fn disjunction(preds: impl IntoIterator<Item = Expr>) -> Expr {
        let mut it = preds.into_iter();
        match it.next() {
            None => Expr::Lit(Value::Bool(false)),
            Some(first) => it.fold(first, |acc, p| Expr::binary(BinOp::Or, acc, p)),
        }
    }

    /// AND-together a list of predicates (returns `true` literal if empty).
    pub fn conjunction(preds: impl IntoIterator<Item = Expr>) -> Expr {
        let mut it = preds.into_iter();
        match it.next() {
            None => Expr::Lit(Value::Bool(true)),
            Some(first) => it.fold(first, |acc, p| Expr::binary(BinOp::And, acc, p)),
        }
    }

    /// Evaluate against a row.
    pub fn eval(&self, row: &Row) -> Result<Value> {
        self.eval_with(&|i| {
            row.values().get(i).cloned().ok_or_else(|| {
                SqlError::Semantic(format!(
                    "column index {i} out of bounds for arity {}",
                    row.arity()
                ))
            })
        })
    }

    /// Evaluate with `column(i)` supplying the value of input column `i`:
    /// the evaluator asks for exactly the columns the expression reaches
    /// (short-circuited operands are never read), so a caller that holds
    /// columns rather than rows materializes nothing else.
    pub fn eval_with(&self, column: &impl Fn(usize) -> Result<Value>) -> Result<Value> {
        match self {
            Expr::Col(i) => column(*i),
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Binary { op, left, right } => {
                // Short-circuit logic handles NULLs Kleene-style enough for
                // filters: false AND x = false, true OR x = true.
                if *op == BinOp::And {
                    let l = left.eval_with(column)?;
                    if l == Value::Bool(false) {
                        return Ok(Value::Bool(false));
                    }
                    let r = right.eval_with(column)?;
                    if r == Value::Bool(false) {
                        return Ok(Value::Bool(false));
                    }
                    if l.is_null() || r.is_null() {
                        return Ok(Value::Null);
                    }
                    return Ok(Value::Bool(truthy(&l)? && truthy(&r)?));
                }
                if *op == BinOp::Or {
                    let l = left.eval_with(column)?;
                    if l == Value::Bool(true) {
                        return Ok(Value::Bool(true));
                    }
                    let r = right.eval_with(column)?;
                    if r == Value::Bool(true) {
                        return Ok(Value::Bool(true));
                    }
                    if l.is_null() || r.is_null() {
                        return Ok(Value::Null);
                    }
                    return Ok(Value::Bool(truthy(&l)? || truthy(&r)?));
                }
                let l = left.eval_with(column)?;
                let r = right.eval_with(column)?;
                eval_binary(*op, &l, &r)
            }
            Expr::Unary { op, expr } => {
                let v = expr.eval_with(column)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                match op {
                    UnOp::Neg => match v {
                        Value::Int(i) => Ok(Value::Int(-i)),
                        Value::Float(f) => Ok(Value::Float(-f)),
                        other => Err(SqlError::Semantic(format!("cannot negate {other}"))),
                    },
                    UnOp::Not => Ok(Value::Bool(!truthy(&v)?)),
                }
            }
            Expr::IsNull { expr, negated } => {
                let v = expr.eval_with(column)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval_with(column)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut found = false;
                for cand in list {
                    let c = cand.eval_with(column)?;
                    if !c.is_null() && c == v {
                        found = true;
                        break;
                    }
                }
                Ok(Value::Bool(found != *negated))
            }
        }
    }

    /// Evaluate as a filter predicate: NULL counts as false.
    pub fn eval_predicate(&self, row: &Row) -> Result<bool> {
        as_predicate(self.eval(row)?)
    }

    /// [`Expr::eval_predicate`] over [`Expr::eval_with`]'s column source.
    pub fn eval_predicate_with(&self, column: &impl Fn(usize) -> Result<Value>) -> Result<bool> {
        as_predicate(self.eval_with(column)?)
    }

    /// All column indices referenced by the expression.
    pub fn columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Col(i) => out.push(*i),
            Expr::Lit(_) => {}
            Expr::Binary { left, right, .. } => {
                left.columns(out);
                right.columns(out);
            }
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => expr.columns(out),
            Expr::InList { expr, list, .. } => {
                expr.columns(out);
                for e in list {
                    e.columns(out);
                }
            }
        }
    }

    /// Rewrite column indices through `map` (used when predicates are
    /// pushed through projections / into delta-fetch queries).
    pub fn remap_columns(&self, map: &dyn Fn(usize) -> usize) -> Expr {
        self.substitute(&|i| Expr::Col(map(i)))
    }

    /// Replace every column reference `#i` by `column(i)`: the expression
    /// over the input of a projection whose output this one reads.
    pub fn substitute(&self, column: &dyn Fn(usize) -> Expr) -> Expr {
        match self {
            Expr::Col(i) => column(*i),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(left.substitute(column)),
                right: Box::new(right.substitute(column)),
            },
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: Box::new(expr.substitute(column)),
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(expr.substitute(column)),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(expr.substitute(column)),
                list: list.iter().map(|e| e.substitute(column)).collect(),
                negated: *negated,
            },
        }
    }
}

fn as_predicate(v: Value) -> Result<bool> {
    match v {
        Value::Bool(b) => Ok(b),
        Value::Null => Ok(false),
        other => Err(SqlError::Semantic(format!(
            "predicate evaluated to non-boolean {other}"
        ))),
    }
}

fn truthy(v: &Value) -> Result<bool> {
    v.as_bool()
        .ok_or_else(|| SqlError::Semantic(format!("expected boolean, found {v}")))
}

/// Evaluate a non-logical binary operator over two values.
pub fn eval_binary(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use BinOp::*;
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match op {
        Eq => return Ok(Value::Bool(l == r)),
        Neq => return Ok(Value::Bool(l != r)),
        Lt => return Ok(Value::Bool(l < r)),
        Le => return Ok(Value::Bool(l <= r)),
        Gt => return Ok(Value::Bool(l > r)),
        Ge => return Ok(Value::Bool(l >= r)),
        _ => {}
    }
    // arithmetic
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => {
            let v = match op {
                Add => a.checked_add(*b).map(Value::Int),
                Sub => a.checked_sub(*b).map(Value::Int),
                Mul => a.checked_mul(*b).map(Value::Int),
                Div => {
                    if *b == 0 {
                        Some(Value::Null)
                    } else {
                        Some(Value::Int(a / b))
                    }
                }
                Mod => {
                    if *b == 0 {
                        Some(Value::Null)
                    } else {
                        Some(Value::Int(a % b))
                    }
                }
                _ => unreachable!("logical ops handled above"),
            };
            v.ok_or_else(|| SqlError::Semantic(format!("integer overflow in {a} {op:?} {b}")))
        }
        _ => {
            let (a, b) = match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(SqlError::Semantic(format!(
                        "cannot apply {} to {l} and {r}",
                        op.symbol()
                    )))
                }
            };
            let v = match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => {
                    if b == 0.0 {
                        return Ok(Value::Null);
                    }
                    a / b
                }
                Mod => {
                    if b == 0.0 {
                        return Ok(Value::Null);
                    }
                    a % b
                }
                _ => unreachable!(),
            };
            Ok(Value::Float(v))
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(i) => write!(f, "#{i}"),
            Expr::Lit(v) => match v {
                Value::Str(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            Expr::Binary { op, left, right } => {
                write!(f, "({left} {} {right})", op.symbol())
            }
            Expr::Unary { op, expr } => match op {
                UnOp::Neg => write!(f, "(-{expr})"),
                UnOp::Not => write!(f, "(NOT {expr})"),
            },
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "))")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_storage::row;

    #[test]
    fn arithmetic() {
        let r = row![3, 4.0];
        let e = Expr::binary(
            BinOp::Mul,
            Expr::Col(0),
            Expr::binary(BinOp::Add, Expr::Col(1), Expr::Lit(Value::Int(1))),
        );
        assert_eq!(e.eval(&r).unwrap(), Value::Float(15.0));
    }

    #[test]
    fn int_arithmetic_stays_int() {
        let r = row![7, 2];
        let e = Expr::binary(BinOp::Div, Expr::Col(0), Expr::Col(1));
        assert_eq!(e.eval(&r).unwrap(), Value::Int(3));
    }

    #[test]
    fn division_by_zero_is_null() {
        let r = row![7, 0];
        let e = Expr::binary(BinOp::Div, Expr::Col(0), Expr::Col(1));
        assert_eq!(e.eval(&r).unwrap(), Value::Null);
    }

    #[test]
    fn null_propagates_and_predicate_treats_as_false() {
        let r = Row::new(vec![Value::Null, Value::Int(1)]);
        let e = Expr::binary(BinOp::Gt, Expr::Col(0), Expr::Col(1));
        assert_eq!(e.eval(&r).unwrap(), Value::Null);
        assert!(!e.eval_predicate(&r).unwrap());
    }

    #[test]
    fn short_circuit_logic() {
        let r = row![false];
        // false AND <type error> must not evaluate the right side fully.
        let e = Expr::binary(
            BinOp::And,
            Expr::Col(0),
            Expr::binary(
                BinOp::Add,
                Expr::Lit(Value::str("x")),
                Expr::Lit(Value::Int(1)),
            ),
        );
        assert_eq!(e.eval(&r).unwrap(), Value::Bool(false));
    }

    #[test]
    fn between_col_and_disjunction() {
        // Sketch rewrite shape: price BETWEEN 1001 AND 1500 OR BETWEEN 1501 AND 10000.
        let e = Expr::disjunction([
            Expr::between_col(0, Value::Int(1001), Value::Int(1500)),
            Expr::between_col(0, Value::Int(1501), Value::Int(10000)),
        ]);
        assert!(e.eval_predicate(&row![1299]).unwrap());
        assert!(e.eval_predicate(&row![9999]).unwrap());
        assert!(!e.eval_predicate(&row![999]).unwrap());
    }

    #[test]
    fn in_list() {
        let e = Expr::InList {
            expr: Box::new(Expr::Col(0)),
            list: vec![Expr::Lit(Value::Int(1)), Expr::Lit(Value::Int(3))],
            negated: false,
        };
        assert!(e.eval_predicate(&row![3]).unwrap());
        assert!(!e.eval_predicate(&row![2]).unwrap());
    }

    #[test]
    fn remap_columns() {
        let e = Expr::binary(BinOp::Add, Expr::Col(0), Expr::Col(2));
        let m = e.remap_columns(&|i| i + 10);
        let mut cols = vec![];
        m.columns(&mut cols);
        assert_eq!(cols, vec![10, 12]);
    }
}
