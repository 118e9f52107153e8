//! Name resolution: AST → logical plan.
//!
//! The resolver binds column names against a [`Catalog`], expands `*`,
//! splits join conditions into equi-keys, collects aggregate calls from
//! SELECT / HAVING / ORDER BY into a single `Aggregate` node, and rewrites
//! post-aggregation expressions over the aggregate's output — producing
//! plans shaped exactly like the pipelines the incremental engine maintains
//! (paper Fig. 5: access → σ → ⋈ → γ → σ_HAVING → τ).

use crate::ast::{self, AstExpr, BinOp, SelectItem, SelectStmt, TableRef};
use crate::error::SqlError;
use crate::expr::Expr;
use crate::plan::{field_for_expr, AggFunc, AggSpec, LogicalPlan, SortKey};
use crate::Result;
use imp_storage::{Field, Schema};

/// Source of table schemas.
pub trait Catalog {
    /// Schema of `table`, or `None` if it does not exist.
    fn table_schema(&self, table: &str) -> Option<Schema>;
}

/// Resolver bound to a catalog.
pub struct Resolver<'a> {
    catalog: &'a dyn Catalog,
}

impl<'a> Resolver<'a> {
    /// New resolver.
    pub fn new(catalog: &'a dyn Catalog) -> Resolver<'a> {
        Resolver { catalog }
    }

    /// Resolve a SELECT statement into a logical plan.
    pub fn resolve_select(&self, stmt: &SelectStmt) -> Result<LogicalPlan> {
        // 1. FROM clause and WHERE → input plan (+ qualified schema), each
        //    conjunct not claimed as a join key placed where it binds.
        let (mut plan, input_schema) = self.resolve_from(&stmt.from, stmt.filter.as_ref())?;

        let has_aggregates = !stmt.group_by.is_empty()
            || stmt.projection.iter().any(|item| match item {
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                SelectItem::Wildcard => false,
            })
            || stmt
                .having
                .as_ref()
                .is_some_and(AstExpr::contains_aggregate);

        let projected = if has_aggregates {
            // 3a. Build the Aggregate node.
            let group_exprs: Vec<Expr> = stmt
                .group_by
                .iter()
                .map(|e| self.resolve_expr(e, &input_schema))
                .collect::<Result<_>>()?;

            let mut aggs: Vec<AggSpec> = Vec::new();
            let mut out_items: Vec<(AstExpr, Option<String>)> = Vec::new();
            for item in &stmt.projection {
                match item {
                    SelectItem::Wildcard => {
                        return Err(SqlError::Semantic(
                            "SELECT * cannot be combined with GROUP BY/aggregates".into(),
                        ))
                    }
                    SelectItem::Expr { expr, alias } => {
                        out_items.push((expr.clone(), alias.clone()))
                    }
                }
            }

            // Collect aggregate slots from projection and HAVING.
            for (e, _) in &out_items {
                self.collect_aggs(e, &input_schema, &mut aggs)?;
            }
            if let Some(h) = &stmt.having {
                self.collect_aggs(h, &input_schema, &mut aggs)?;
            }
            for (e, _) in &stmt.order_by {
                // ORDER BY may name fresh aggregates too.
                if e.contains_aggregate() {
                    self.collect_aggs(e, &input_schema, &mut aggs)?;
                }
            }
            if aggs.is_empty() {
                // GROUP BY without aggregates == DISTINCT on group exprs;
                // model with a count(*) we simply do not project.
                aggs.push(AggSpec {
                    func: AggFunc::Count,
                    arg: None,
                    name: "__count".into(),
                });
            }

            // Output schema of the Aggregate node.
            let mut fields: Vec<Field> = Vec::new();
            for (i, g) in group_exprs.iter().enumerate() {
                fields.push(field_for_expr(g, &input_schema, None, i));
            }
            for a in &aggs {
                fields.push(Field::nullable(
                    a.name.clone(),
                    a.output_type(&input_schema),
                ));
            }
            let agg_schema = Schema::new(fields);

            plan = LogicalPlan::Aggregate {
                input: Box::new(plan),
                group_by: group_exprs.clone(),
                aggs: aggs.clone(),
                schema: agg_schema.clone(),
            };

            // 3b. HAVING over the aggregate output.
            if let Some(h) = &stmt.having {
                let pred = self.resolve_post_agg(h, &input_schema, &group_exprs, &aggs)?;
                plan = LogicalPlan::Filter {
                    input: Box::new(plan),
                    predicate: pred,
                };
            }

            // 3c. Projection over the aggregate output.
            let mut exprs = Vec::new();
            let mut out_fields = Vec::new();
            for (i, (e, alias)) in out_items.iter().enumerate() {
                let re = self.resolve_post_agg(e, &input_schema, &group_exprs, &aggs)?;
                let f = field_for_expr(&re, &agg_schema, alias.as_deref(), i);
                exprs.push(re);
                out_fields.push(f);
            }
            let out_schema = Schema::new(out_fields);
            LogicalPlan::Project {
                input: Box::new(plan),
                exprs,
                schema: out_schema,
            }
        } else {
            // 3'. Plain projection.
            let mut exprs = Vec::new();
            let mut out_fields = Vec::new();
            let mut idx = 0usize;
            for item in &stmt.projection {
                match item {
                    SelectItem::Wildcard => {
                        for (i, f) in input_schema.fields().iter().enumerate() {
                            exprs.push(Expr::Col(i));
                            out_fields.push(f.clone());
                            idx += 1;
                        }
                    }
                    SelectItem::Expr { expr, alias } => {
                        let re = self.resolve_expr(expr, &input_schema)?;
                        let f = field_for_expr(&re, &input_schema, alias.as_deref(), idx);
                        exprs.push(re);
                        out_fields.push(f);
                        idx += 1;
                    }
                }
            }
            LogicalPlan::Project {
                input: Box::new(plan),
                exprs,
                schema: Schema::new(out_fields),
            }
        };

        let mut plan = projected;
        if stmt.distinct {
            plan = LogicalPlan::Distinct {
                input: Box::new(plan),
            };
        }

        // 4. EXCEPT [ALL] suffix.
        if let Some((rhs, all)) = &stmt.except {
            let right = self.resolve_select(rhs)?;
            if right.schema().arity() != plan.schema().arity() {
                return Err(SqlError::Semantic(format!(
                    "EXCEPT operands have different arities ({} vs {})",
                    plan.schema().arity(),
                    right.schema().arity()
                )));
            }
            plan = LogicalPlan::Except {
                left: Box::new(plan),
                right: Box::new(right),
                all: *all,
            };
        }

        // 5. ORDER BY / LIMIT over the projection output.
        if !stmt.order_by.is_empty() || stmt.limit.is_some() {
            let out_schema = plan.schema();
            let mut keys = Vec::new();
            for (e, asc) in &stmt.order_by {
                let col = self.resolve_output_column(e, &out_schema)?;
                keys.push(SortKey {
                    column: col,
                    asc: *asc,
                });
            }
            plan = match stmt.limit {
                Some(k) => LogicalPlan::TopK {
                    input: Box::new(plan),
                    keys,
                    k,
                },
                None => LogicalPlan::Sort {
                    input: Box::new(plan),
                    keys,
                },
            };
        }

        Ok(plan)
    }

    // ---- FROM clause ----

    /// The FROM clause as a join tree with each WHERE or ON conjunct that
    /// is not a join key placed once (see [`FromTree::place`]), and its
    /// schema.
    fn resolve_from(
        &self,
        from: &[TableRef],
        filter: Option<&AstExpr>,
    ) -> Result<(LogicalPlan, Schema)> {
        assert!(!from.is_empty(), "parser guarantees non-empty FROM");
        // Resolve the first item, then fold the rest in as (equi-)joins
        // using WHERE conjuncts as candidate keys (left-deep greedy plan —
        // good enough for the star/chain joins of the paper's workloads).
        let mut acc = self.resolve_table_ref(&from[0])?;
        let mut pending: Vec<AstExpr> = Vec::new();
        if let Some(f) = filter {
            collect_conjuncts(f, &mut pending);
        }

        for item in &from[1..] {
            let right = self.resolve_table_ref(item)?;
            let combined = acc.schema.join(&right.schema);
            // Claim equi conjuncts that span the two sides.
            let mut keys = (Vec::new(), Vec::new());
            let mut remaining = Vec::new();
            for c in pending.drain(..) {
                if let Some((l, r)) =
                    self.try_equi_key(&c, &acc.schema, &right.schema, &combined)?
                {
                    keys.0.push(l);
                    keys.1.push(r);
                } else {
                    remaining.push(c);
                }
            }
            pending = remaining;
            acc = acc.join(right, keys, combined);
        }

        // Conjuncts not claimed as join keys are placed with the ON ones.
        for c in pending {
            let resolved = self.resolve_expr(&c, &acc.schema)?;
            acc.residual.push(resolved);
        }
        Ok(acc.place())
    }

    /// Try to interpret `expr` as `left_col = right_col` across the join.
    fn try_equi_key(
        &self,
        expr: &AstExpr,
        left: &Schema,
        _right: &Schema,
        combined: &Schema,
    ) -> Result<Option<(usize, usize)>> {
        let AstExpr::Binary {
            op: BinOp::Eq,
            left: a,
            right: b,
        } = expr
        else {
            return Ok(None);
        };
        let (AstExpr::Column { .. }, AstExpr::Column { .. }) = (a.as_ref(), b.as_ref()) else {
            return Ok(None);
        };
        // Both must resolve over the combined schema, one per side.
        let ra = self.resolve_expr(a, combined);
        let rb = self.resolve_expr(b, combined);
        let (Ok(Expr::Col(ia)), Ok(Expr::Col(ib))) = (ra, rb) else {
            return Ok(None);
        };
        let la = left.arity();
        match (ia < la, ib < la) {
            (true, false) => Ok(Some((ia, ib - la))),
            (false, true) => Ok(Some((ib, ia - la))),
            _ => Ok(None),
        }
    }

    fn resolve_table_ref(&self, tref: &TableRef) -> Result<FromTree> {
        let leaf = match tref {
            TableRef::Table { name, alias } => {
                // Unquoted SQL identifiers are case-insensitive: fold table
                // names to lowercase for catalog lookup and plan identity.
                let name_lc = name.to_ascii_lowercase();
                let schema = self
                    .catalog
                    .table_schema(&name_lc)
                    .ok_or_else(|| SqlError::UnknownTable(name.clone()))?;
                let q = alias.as_deref().unwrap_or(&name_lc);
                LogicalPlan::Scan {
                    table: name_lc.clone(),
                    schema: schema.with_qualifier(q),
                }
            }
            TableRef::Subquery { query, alias } => {
                let inner = self.resolve_select(query)?;
                let schema = inner.schema().with_qualifier(alias);
                // Re-qualify by wrapping in an identity projection.
                let exprs = (0..schema.arity()).map(Expr::Col).collect();
                LogicalPlan::Project {
                    input: Box::new(inner),
                    exprs,
                    schema,
                }
            }
            TableRef::Join { left, right, on } => {
                let l = self.resolve_table_ref(left)?;
                let r = self.resolve_table_ref(right)?;
                let combined = l.schema.join(&r.schema);
                let mut conjuncts = Vec::new();
                collect_conjuncts(on, &mut conjuncts);
                let mut keys = (Vec::new(), Vec::new());
                let mut residual = Vec::new();
                for c in conjuncts {
                    if let Some((lk, rk)) =
                        self.try_equi_key(&c, &l.schema, &r.schema, &combined)?
                    {
                        keys.0.push(lk);
                        keys.1.push(rk);
                    } else {
                        residual.push(self.resolve_expr(&c, &combined)?);
                    }
                }
                // Inner joins only: an ON conjunct that is not a key binds
                // like a WHERE conjunct, so it waits for the same placement.
                let mut tree = l.join(r, keys, combined);
                tree.residual.extend(residual);
                return Ok(tree);
            }
        };
        Ok(FromTree {
            schema: leaf.schema(),
            plan: leaf,
            leaves: vec![0],
            residual: Vec::new(),
        })
    }

    // ---- expressions ----

    /// Resolve a scalar (non-aggregate) expression over a schema.
    pub fn resolve_expr(&self, e: &AstExpr, schema: &Schema) -> Result<Expr> {
        match e {
            AstExpr::Column { qualifier, name } => {
                match schema.resolve(qualifier.as_deref(), name) {
                    Ok(i) => Ok(Expr::Col(i)),
                    Err(true) => Err(SqlError::AmbiguousColumn(name.clone())),
                    Err(false) => Err(SqlError::UnknownColumn(format!(
                        "{}{name}",
                        qualifier
                            .as_deref()
                            .map(|q| format!("{q}."))
                            .unwrap_or_default()
                    ))),
                }
            }
            AstExpr::Literal(v) => Ok(Expr::Lit(v.clone())),
            AstExpr::Binary { op, left, right } => Ok(Expr::binary(
                *op,
                self.resolve_expr(left, schema)?,
                self.resolve_expr(right, schema)?,
            )),
            AstExpr::Unary { op, expr } => Ok(Expr::Unary {
                op: *op,
                expr: Box::new(self.resolve_expr(expr, schema)?),
            }),
            AstExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                // Desugar: e BETWEEN a AND b ⇔ a <= e AND e <= b.
                let e = self.resolve_expr(expr, schema)?;
                let lo = self.resolve_expr(low, schema)?;
                let hi = self.resolve_expr(high, schema)?;
                let range = Expr::binary(
                    BinOp::And,
                    Expr::binary(BinOp::Ge, e.clone(), lo),
                    Expr::binary(BinOp::Le, e, hi),
                );
                Ok(if *negated {
                    Expr::Unary {
                        op: ast::UnOp::Not,
                        expr: Box::new(range),
                    }
                } else {
                    range
                })
            }
            AstExpr::IsNull { expr, negated } => Ok(Expr::IsNull {
                expr: Box::new(self.resolve_expr(expr, schema)?),
                negated: *negated,
            }),
            AstExpr::InList {
                expr,
                list,
                negated,
            } => Ok(Expr::InList {
                expr: Box::new(self.resolve_expr(expr, schema)?),
                list: list
                    .iter()
                    .map(|x| self.resolve_expr(x, schema))
                    .collect::<Result<_>>()?,
                negated: *negated,
            }),
            AstExpr::FuncCall { name, .. } => {
                if ast::is_aggregate_name(name) {
                    Err(SqlError::Semantic(format!(
                        "aggregate {name}() not allowed in this context"
                    )))
                } else {
                    Err(SqlError::Semantic(format!("unknown function {name}()")))
                }
            }
        }
    }

    /// Find every aggregate call in `e`, resolving arguments over the
    /// aggregate input schema, and dedupe into `aggs`.
    fn collect_aggs(&self, e: &AstExpr, input: &Schema, aggs: &mut Vec<AggSpec>) -> Result<()> {
        match e {
            AstExpr::FuncCall { name, args, star } if ast::is_aggregate_name(name) => {
                let func = AggFunc::from_name(name).expect("checked above");
                let arg = if *star {
                    None
                } else {
                    if args.len() != 1 {
                        return Err(SqlError::Semantic(format!(
                            "{name}() takes exactly one argument"
                        )));
                    }
                    if args[0].contains_aggregate() {
                        return Err(SqlError::Semantic("nested aggregates".into()));
                    }
                    Some(self.resolve_expr(&args[0], input)?)
                };
                if !aggs.iter().any(|a| a.func == func && a.arg == arg) {
                    let name = format!("{}_{}", func.name(), aggs.len());
                    aggs.push(AggSpec { func, arg, name });
                }
                Ok(())
            }
            AstExpr::FuncCall { args, .. } => {
                for a in args {
                    self.collect_aggs(a, input, aggs)?;
                }
                Ok(())
            }
            AstExpr::Binary { left, right, .. } => {
                self.collect_aggs(left, input, aggs)?;
                self.collect_aggs(right, input, aggs)
            }
            AstExpr::Unary { expr, .. } | AstExpr::IsNull { expr, .. } => {
                self.collect_aggs(expr, input, aggs)
            }
            AstExpr::Between {
                expr, low, high, ..
            } => {
                self.collect_aggs(expr, input, aggs)?;
                self.collect_aggs(low, input, aggs)?;
                self.collect_aggs(high, input, aggs)
            }
            AstExpr::InList { expr, list, .. } => {
                self.collect_aggs(expr, input, aggs)?;
                for x in list {
                    self.collect_aggs(x, input, aggs)?;
                }
                Ok(())
            }
            AstExpr::Column { .. } | AstExpr::Literal(_) => Ok(()),
        }
    }

    /// Rewrite an expression appearing *above* the Aggregate node
    /// (projection / HAVING / ORDER BY) over the aggregate output schema
    /// `[group_by..., aggs...]`.
    fn resolve_post_agg(
        &self,
        e: &AstExpr,
        input: &Schema,
        group_exprs: &[Expr],
        aggs: &[AggSpec],
    ) -> Result<Expr> {
        // Aggregate call → its output slot.
        if let AstExpr::FuncCall { name, args, star } = e {
            if ast::is_aggregate_name(name) {
                let func = AggFunc::from_name(name).expect("checked");
                let arg = if *star {
                    None
                } else {
                    Some(self.resolve_expr(&args[0], input)?)
                };
                let idx = aggs
                    .iter()
                    .position(|a| a.func == func && a.arg == arg)
                    .ok_or_else(|| SqlError::Semantic("aggregate not collected".into()))?;
                return Ok(Expr::Col(group_exprs.len() + idx));
            }
        }
        // Whole expression equals a group-by expression → its slot.
        if let Ok(resolved) = self.resolve_expr(e, input) {
            if let Some(idx) = group_exprs.iter().position(|g| *g == resolved) {
                return Ok(Expr::Col(idx));
            }
            // A bare column that is not grouped is an error (strict mode).
            if matches!(e, AstExpr::Column { .. }) {
                return Err(SqlError::Semantic(format!(
                    "column {e} must appear in GROUP BY or inside an aggregate"
                )));
            }
        }
        // Otherwise recurse structurally.
        match e {
            AstExpr::Literal(v) => Ok(Expr::Lit(v.clone())),
            AstExpr::Binary { op, left, right } => Ok(Expr::binary(
                *op,
                self.resolve_post_agg(left, input, group_exprs, aggs)?,
                self.resolve_post_agg(right, input, group_exprs, aggs)?,
            )),
            AstExpr::Unary { op, expr } => Ok(Expr::Unary {
                op: *op,
                expr: Box::new(self.resolve_post_agg(expr, input, group_exprs, aggs)?),
            }),
            AstExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let e = self.resolve_post_agg(expr, input, group_exprs, aggs)?;
                let lo = self.resolve_post_agg(low, input, group_exprs, aggs)?;
                let hi = self.resolve_post_agg(high, input, group_exprs, aggs)?;
                let range = Expr::binary(
                    BinOp::And,
                    Expr::binary(BinOp::Ge, e.clone(), lo),
                    Expr::binary(BinOp::Le, e, hi),
                );
                Ok(if *negated {
                    Expr::Unary {
                        op: ast::UnOp::Not,
                        expr: Box::new(range),
                    }
                } else {
                    range
                })
            }
            AstExpr::IsNull { expr, negated } => Ok(Expr::IsNull {
                expr: Box::new(self.resolve_post_agg(expr, input, group_exprs, aggs)?),
                negated: *negated,
            }),
            AstExpr::InList {
                expr,
                list,
                negated,
            } => Ok(Expr::InList {
                expr: Box::new(self.resolve_post_agg(expr, input, group_exprs, aggs)?),
                list: list
                    .iter()
                    .map(|x| self.resolve_post_agg(x, input, group_exprs, aggs))
                    .collect::<Result<_>>()?,
                negated: *negated,
            }),
            AstExpr::Column { name, .. } => Err(SqlError::Semantic(format!(
                "column {name} must appear in GROUP BY or inside an aggregate"
            ))),
            AstExpr::FuncCall { name, .. } => {
                Err(SqlError::Semantic(format!("unknown function {name}()")))
            }
        }
    }

    /// Resolve an ORDER BY key against the query's output schema (by alias
    /// or column name).
    fn resolve_output_column(&self, e: &AstExpr, out: &Schema) -> Result<usize> {
        match e {
            AstExpr::Column { qualifier, name } => match out.resolve(qualifier.as_deref(), name) {
                Ok(i) => Ok(i),
                Err(true) => Err(SqlError::AmbiguousColumn(name.clone())),
                Err(false) => Err(SqlError::UnknownColumn(name.clone())),
            },
            AstExpr::Literal(imp_storage::Value::Int(i)) if *i >= 1 => {
                // ORDER BY 2 — positional reference.
                let idx = (*i - 1) as usize;
                if idx < out.arity() {
                    Ok(idx)
                } else {
                    Err(SqlError::Semantic(format!(
                        "ORDER BY position {i} out of range"
                    )))
                }
            }
            other => Err(SqlError::Semantic(format!(
                "ORDER BY supports output columns or positions, got {other}"
            ))),
        }
    }
}

/// Split nested ANDs into a conjunct list.
pub fn collect_conjuncts(e: &AstExpr, out: &mut Vec<AstExpr>) {
    if let AstExpr::Binary {
        op: BinOp::And,
        left,
        right,
    } = e
    {
        collect_conjuncts(left, out);
        collect_conjuncts(right, out);
    } else {
        out.push(e.clone());
    }
}

/// A FROM clause resolved to a tree of joins over unfiltered leaves (base
/// tables and subqueries), with the conjuncts that no join claimed as a
/// key still to be placed.
struct FromTree {
    plan: LogicalPlan,
    schema: Schema,
    /// First output column of each leaf, in output order.
    leaves: Vec<usize>,
    /// Conjuncts over `schema` that are not join keys.
    residual: Vec<Expr>,
}

impl FromTree {
    /// `self ⋈ right` on `keys`; `schema` is the two schemas joined.
    fn join(mut self, right: FromTree, keys: (Vec<usize>, Vec<usize>), schema: Schema) -> FromTree {
        let base = self.schema.arity();
        self.leaves.extend(right.leaves.iter().map(|o| base + o));
        let shifted = right
            .residual
            .iter()
            .map(|e| e.remap_columns(&|i| base + i));
        self.residual.extend(shifted);
        FromTree {
            plan: LogicalPlan::Join {
                left: Box::new(self.plan),
                right: Box::new(right.plan),
                left_keys: keys.0,
                right_keys: keys.1,
            },
            schema,
            leaves: self.leaves,
            residual: self.residual,
        }
    }

    /// Place each residual conjunct once: in a join, one that reads the
    /// columns of one leaf only goes on that leaf, rebased to the leaf's
    /// schema, in one `Filter` per leaf (over a table, `Filter(Scan)`: the
    /// shape selection push-down and the scan kernels match); any other
    /// stays above the whole tree, and so does every conjunct of a FROM
    /// with one leaf. No filter lands between two joins, so an equi-join
    /// tree still flattens into one n-ary join.
    fn place(self) -> (LogicalPlan, Schema) {
        let FromTree {
            plan,
            schema,
            leaves,
            residual,
        } = self;
        let arity = schema.arity();
        let mut on_leaf: Vec<Vec<Expr>> = vec![Vec::new(); leaves.len()];
        let mut above = Vec::new();
        let mut cols = Vec::new();
        for c in residual {
            cols.clear();
            c.columns(&mut cols);
            let (Some(&lo), Some(&hi)) = (cols.iter().min(), cols.iter().max()) else {
                above.push(c);
                continue;
            };
            let leaf = leaves.partition_point(|&o| o <= lo) - 1;
            let (start, end) = (leaves[leaf], leaves.get(leaf + 1).copied().unwrap_or(arity));
            if hi < end && leaves.len() > 1 {
                on_leaf[leaf].push(c.remap_columns(&|i| i - start));
            } else {
                above.push(c);
            }
        }
        let mut on_leaf = on_leaf.into_iter();
        let mut plan = filter_leaves(plan, &mut on_leaf);
        if !above.is_empty() {
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate: Expr::conjunction(above),
            };
        }
        (plan, schema)
    }
}

/// Wrap each leaf of the join tree `plan`, in output order, in a `Filter`
/// of its conjuncts from `conjuncts` (none: the leaf as it is).
fn filter_leaves(
    plan: LogicalPlan,
    conjuncts: &mut impl Iterator<Item = Vec<Expr>>,
) -> LogicalPlan {
    match plan {
        LogicalPlan::Join {
            left,
            right,
            left_keys,
            right_keys,
        } => LogicalPlan::Join {
            left: Box::new(filter_leaves(*left, conjuncts)),
            right: Box::new(filter_leaves(*right, conjuncts)),
            left_keys,
            right_keys,
        },
        leaf => {
            let preds = conjuncts.next().expect("one conjunct list per leaf");
            if preds.is_empty() {
                leaf
            } else {
                LogicalPlan::Filter {
                    input: Box::new(leaf),
                    predicate: Expr::conjunction(preds),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_one;
    use crate::Statement;
    use imp_storage::DataType;
    use imp_storage::Field;

    struct TestCatalog;

    impl Catalog for TestCatalog {
        fn table_schema(&self, table: &str) -> Option<Schema> {
            match table {
                "sales" => Some(Schema::new(vec![
                    Field::new("sid", DataType::Int),
                    Field::new("brand", DataType::Str),
                    Field::new("productName", DataType::Str),
                    Field::new("price", DataType::Int),
                    Field::new("numSold", DataType::Int),
                ])),
                "r" => Some(Schema::new(vec![
                    Field::new("a", DataType::Int),
                    Field::new("b", DataType::Int),
                ])),
                "s" => Some(Schema::new(vec![
                    Field::new("c", DataType::Int),
                    Field::new("d", DataType::Int),
                ])),
                "t" => Some(Schema::new(vec![
                    Field::new("e", DataType::Int),
                    Field::new("f", DataType::Int),
                ])),
                _ => None,
            }
        }
    }

    fn plan(sql: &str) -> LogicalPlan {
        let Statement::Select(s) = parse_one(sql).unwrap() else {
            panic!()
        };
        Resolver::new(&TestCatalog).resolve_select(&s).unwrap()
    }

    #[test]
    fn qtop_plan_shape() {
        let p = plan(
            "SELECT brand, SUM(price * numSold) AS rev FROM sales \
             GROUP BY brand HAVING SUM(price * numSold) > 5000",
        );
        // Project(Filter(Aggregate(Scan)))
        let LogicalPlan::Project { input, schema, .. } = &p else {
            panic!("{p}")
        };
        assert_eq!(schema.field(1).name, "rev");
        let LogicalPlan::Filter { input, .. } = input.as_ref() else {
            panic!("{p}")
        };
        let LogicalPlan::Aggregate { aggs, .. } = input.as_ref() else {
            panic!("{p}")
        };
        // sum(price*numSold) collected once, shared by SELECT and HAVING.
        assert_eq!(aggs.len(), 1);
    }

    #[test]
    fn fig5_example_plan() {
        // Query from paper Ex. 5.1.
        let p = plan(
            "SELECT a, sum(c) as sc \
             FROM (SELECT a, b FROM R WHERE a > 3) t JOIN S on (b = d) \
             GROUP BY a HAVING SUM(c) > 5",
        );
        assert_eq!(p.tables(), vec!["r".to_string(), "s".to_string()]);
        let text = p.explain();
        assert!(text.contains("Join"), "{text}");
        assert!(text.contains("Aggregate"), "{text}");
    }

    #[test]
    fn comma_join_extracts_keys() {
        let p = plan("SELECT b, d FROM r, s WHERE a = c AND b > 1");
        let text = p.explain();
        assert!(text.contains("Join on #0=#0"), "{text}");
        assert!(text.contains("Filter"), "{text}");
    }

    #[test]
    fn order_by_alias_and_limit() {
        let p = plan("SELECT a, avg(b) AS ab FROM r GROUP BY a ORDER BY ab DESC LIMIT 10");
        let LogicalPlan::TopK { keys, k, .. } = &p else {
            panic!("{p}")
        };
        assert_eq!(*k, 10);
        assert_eq!(keys[0].column, 1);
        assert!(!keys[0].asc);
    }

    #[test]
    fn ungrouped_column_rejected() {
        let Statement::Select(s) = parse_one("SELECT b, sum(a) FROM r GROUP BY a").unwrap() else {
            panic!()
        };
        assert!(Resolver::new(&TestCatalog).resolve_select(&s).is_err());
    }

    #[test]
    fn unknown_table_and_column() {
        let Statement::Select(s) = parse_one("SELECT x FROM nope").unwrap() else {
            panic!()
        };
        assert!(matches!(
            Resolver::new(&TestCatalog).resolve_select(&s),
            Err(SqlError::UnknownTable(_))
        ));
        let Statement::Select(s) = parse_one("SELECT zzz FROM r").unwrap() else {
            panic!()
        };
        assert!(matches!(
            Resolver::new(&TestCatalog).resolve_select(&s),
            Err(SqlError::UnknownColumn(_))
        ));
    }

    #[test]
    fn wildcard_expansion() {
        let p = plan("SELECT * FROM sales WHERE price > 100");
        assert_eq!(p.schema().arity(), 5);
    }

    #[test]
    fn between_desugars() {
        let p = plan("SELECT * FROM sales WHERE price BETWEEN 10 AND 20");
        let text = p.explain();
        assert!(text.contains(">= 10"), "{text}");
        assert!(text.contains("<= 20"), "{text}");
    }

    #[test]
    fn having_only_aggregate() {
        // Aggregate referenced only in HAVING still gets a slot.
        let p = plan("SELECT a, avg(b) AS ab FROM r GROUP BY a HAVING avg(a) < 10");
        let LogicalPlan::Project { input, .. } = &p else {
            panic!()
        };
        let LogicalPlan::Filter { input, .. } = input.as_ref() else {
            panic!()
        };
        let LogicalPlan::Aggregate { aggs, .. } = input.as_ref() else {
            panic!()
        };
        assert_eq!(aggs.len(), 2);
    }

    /// The plan below the top projection, as EXPLAIN text.
    fn from_tree(sql: &str) -> String {
        let LogicalPlan::Project { input, .. } = plan(sql) else {
            panic!("{sql}: no projection on top")
        };
        input.explain()
    }

    #[test]
    fn single_table_conjuncts_sit_on_their_scans() {
        // The chain's WHERE: `f` is column 5 of the joined schema and
        // column 1 of `t`; `a < d` reads two tables and stays on top.
        let text = from_tree(
            "SELECT a, f FROM r JOIN s ON (b = c) JOIN t ON (d = e) \
             WHERE f < 10 AND a > 1 AND a < d AND 2 > a",
        );
        let expected = "\
Filter (#0 < #3)
  Join on #3=#0
    Join on #1=#0
      Filter ((#0 > 1) AND (2 > #0))
        Scan r
      Scan s
    Filter (#1 < 10)
      Scan t
";
        assert_eq!(text, expected);
    }

    #[test]
    fn on_residuals_are_placed_like_where_conjuncts() {
        // `d < 2` is not a key of its join: it goes on `s`, not above the
        // join, so the tree stays one flattenable equi-join.
        let text = from_tree("SELECT a FROM r JOIN s ON (b = c AND d < 2) JOIN t ON (d = e)");
        let expected = "\
Join on #3=#0
  Join on #1=#0
    Scan r
    Filter (#1 < 2)
      Scan s
  Scan t
";
        assert_eq!(text, expected);
        let LogicalPlan::Project { input, .. } =
            plan("SELECT a FROM r JOIN s ON (b = c AND d < 2) JOIN t ON (d = e)")
        else {
            panic!()
        };
        assert_eq!(crate::plan::flatten_join(&input).unwrap().inputs.len(), 3);
    }

    #[test]
    fn comma_join_conjuncts_split_by_the_tables_they_read() {
        // A self-equality on `s` and a constant on `t` bind on their
        // tables; the cross product's two-table conjunct and the one that
        // reads no column stay above the tree.
        let text = from_tree(
            "SELECT a FROM r, s, t WHERE a = c AND c = d AND a + f > 2 AND 1 = 1 AND f IS NULL",
        );
        let expected = "\
Filter (((#0 + #5) > 2) AND (1 = 1))
  CrossJoin
    Join on #0=#0
      Scan r
      Filter (#0 = #1)
        Scan s
    Filter (#1 IS NULL)
      Scan t
";
        assert_eq!(text, expected);
    }

    #[test]
    fn a_subquery_leaf_keeps_its_filter_above_its_joins() {
        // One FROM item: the WHERE stays over the subquery, whose own
        // joins and filters are placed inside it.
        let text =
            from_tree("SELECT * FROM (SELECT * FROM r JOIN s ON (b = c)) q WHERE a < 1 AND a < d");
        let expected = "\
Filter ((#0 < 1) AND (#0 < #3))
  Project #0 AS a, #1 AS b, #2 AS c, #3 AS d
    Project #0 AS a, #1 AS b, #2 AS c, #3 AS d
      Join on #1=#0
        Scan r
        Scan s
";
        assert_eq!(text, expected);
    }
}
