//! The *use rewrite*: instrument a query to skip data outside a sketch.
//!
//! "To skip irrelevant data, we create a disjunction of conditions testing
//! that each tuple passing the WHERE clause belongs to the sketch"
//! (paper §1). Adjacent ranges are merged first (fn. 2), so the injected
//! predicate is minimal. The engine's scan recognizes the injected range
//! disjunction and prunes chunks through zone maps.

use crate::sketch::SketchSet;
use crate::Result;
use imp_sql::ast::BinOp;
use imp_sql::{Expr, LogicalPlan};
use imp_storage::Value;

/// Rewrite `plan` so every scan of a sketched table filters to the
/// sketch's ranges. Returns the instrumented plan.
pub fn apply_sketch_filter(plan: &LogicalPlan, sketch: &SketchSet) -> Result<LogicalPlan> {
    Ok(rewrite(plan, sketch))
}

fn rewrite(plan: &LogicalPlan, sketch: &SketchSet) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan { table, schema } => {
            let scan = LogicalPlan::Scan {
                table: table.clone(),
                schema: schema.clone(),
            };
            match sketch.partitions().for_table(table) {
                None => scan,
                Some((pidx, _, partition)) => {
                    let n = partition.fragment_count();
                    let marked = sketch.fragments_of_partition(pidx).len();
                    if marked == n {
                        // Sketch covers everything: no filtering needed.
                        return scan;
                    }
                    let predicate = ranges_predicate(partition.column, &sketch.merged_ranges(pidx));
                    LogicalPlan::Filter {
                        input: Box::new(scan),
                        predicate,
                    }
                }
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            // Merge the sketch predicate into an existing filter-over-scan
            // so both end up in one conjunction above the scan (the scan
            // pruning still finds the range disjunct).
            if let LogicalPlan::Scan { table, .. } = input.as_ref() {
                if let Some((pidx, _, partition)) = sketch.partitions().for_table(table) {
                    let n = partition.fragment_count();
                    if sketch.fragments_of_partition(pidx).len() < n {
                        let skp = ranges_predicate(partition.column, &sketch.merged_ranges(pidx));
                        return LogicalPlan::Filter {
                            input: input.clone(),
                            predicate: Expr::binary(BinOp::And, skp, predicate.clone()),
                        };
                    }
                }
                return plan.clone();
            }
            LogicalPlan::Filter {
                input: Box::new(rewrite(input, sketch)),
                predicate: predicate.clone(),
            }
        }
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => LogicalPlan::Project {
            input: Box::new(rewrite(input, sketch)),
            exprs: exprs.clone(),
            schema: schema.clone(),
        },
        LogicalPlan::Join {
            left,
            right,
            left_keys,
            right_keys,
        } => LogicalPlan::Join {
            left: Box::new(rewrite(left, sketch)),
            right: Box::new(rewrite(right, sketch)),
            left_keys: left_keys.clone(),
            right_keys: right_keys.clone(),
        },
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            schema,
        } => LogicalPlan::Aggregate {
            input: Box::new(rewrite(input, sketch)),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
            schema: schema.clone(),
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(rewrite(input, sketch)),
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(rewrite(input, sketch)),
            keys: keys.clone(),
        },
        LogicalPlan::TopK { input, keys, k } => LogicalPlan::TopK {
            input: Box::new(rewrite(input, sketch)),
            keys: keys.clone(),
            k: *k,
        },
        LogicalPlan::Except { left, right, all } => LogicalPlan::Except {
            left: Box::new(rewrite(left, sketch)),
            right: Box::new(rewrite(right, sketch)),
            all: *all,
        },
    }
}

/// Build `col ∈ range₁ ∨ … ∨ col ∈ rangeₙ` (lo inclusive, hi exclusive),
/// with `∨ col IS NULL` when the first fragment is among them: NULLs
/// land there ([`crate::RangePartition::fragment_of`]), and no range
/// holds a NULL.
fn ranges_predicate(col: usize, ranges: &[(Option<Value>, Option<Value>)]) -> Expr {
    let mut preds = Vec::with_capacity(ranges.len());
    for (lo, hi) in ranges {
        let mut parts = Vec::new();
        if let Some(lo) = lo {
            parts.push(Expr::binary(
                BinOp::Ge,
                Expr::Col(col),
                Expr::Lit(lo.clone()),
            ));
        }
        if let Some(hi) = hi {
            parts.push(Expr::binary(
                BinOp::Lt,
                Expr::Col(col),
                Expr::Lit(hi.clone()),
            ));
        }
        preds.push(Expr::conjunction(parts));
    }
    if ranges.first().is_some_and(|(lo, _)| lo.is_none()) {
        preds.push(Expr::IsNull {
            expr: Box::new(Expr::Col(col)),
            negated: false,
        });
    }
    Expr::disjunction(preds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{PartitionSet, RangePartition};
    use imp_engine::Database;
    use imp_storage::{row, DataType, Field, Schema};
    use std::sync::Arc;

    fn db_and_pset() -> (Database, Arc<PartitionSet>) {
        let mut db = Database::new();
        db.create_table(
            "sales",
            Schema::new(vec![
                Field::new("sid", DataType::Int),
                Field::new("brand", DataType::Str),
                Field::new("price", DataType::Int),
                Field::new("numsold", DataType::Int),
            ]),
        )
        .unwrap();
        let rows = [
            row![1, "Lenovo", 349, 1],
            row![2, "Lenovo", 449, 2],
            row![3, "Apple", 1199, 1],
            row![4, "Apple", 3875, 1],
            row![5, "Dell", 1345, 1],
            row![6, "HP", 999, 4],
            row![7, "HP", 899, 1],
        ];
        db.table_mut("sales").unwrap().bulk_load(rows).unwrap();
        let pset = Arc::new(
            PartitionSet::new(vec![RangePartition::new(
                "sales",
                "price",
                2,
                vec![Value::Int(601), Value::Int(1001), Value::Int(1501)],
            )
            .unwrap()])
            .unwrap(),
        );
        (db, pset)
    }

    #[test]
    fn rewritten_query_equals_full_query_for_safe_sketch() {
        let (db, pset) = db_and_pset();
        let plan = db
            .plan_sql(
                "SELECT brand, SUM(price * numsold) AS rev FROM sales \
                 GROUP BY brand HAVING SUM(price * numsold) > 5000",
            )
            .unwrap();
        let cap = crate::capture::capture(&plan, &db, &pset).unwrap();
        let rewritten = apply_sketch_filter(&plan, &cap.sketch).unwrap();
        let full = db.execute_plan(&plan).unwrap();
        let skipped = db.execute_plan(&rewritten).unwrap();
        assert_eq!(full.canonical(), skipped.canonical());
    }

    #[test]
    fn injected_predicate_uses_merged_ranges() {
        let (db, pset) = db_and_pset();
        let plan = db.plan_sql("SELECT price FROM sales").unwrap();
        let mut sk = crate::sketch::SketchSet::empty(Arc::clone(&pset));
        sk.insert(2);
        sk.insert(3); // ρ3, ρ4 adjacent → one merged range [1001, ∞)
        let rewritten = apply_sketch_filter(&plan, &sk).unwrap();
        let text = rewritten.explain();
        assert!(text.contains(">= 1001"), "{text}");
        // Merged: no second disjunct boundary at 1501.
        assert!(!text.contains("1501"), "{text}");
    }

    #[test]
    fn full_coverage_skips_filter() {
        let (db, pset) = db_and_pset();
        let plan = db.plan_sql("SELECT price FROM sales").unwrap();
        let mut sk = crate::sketch::SketchSet::empty(Arc::clone(&pset));
        for f in 0..4 {
            sk.insert(f);
        }
        let rewritten = apply_sketch_filter(&plan, &sk).unwrap();
        assert_eq!(&rewritten, &plan);
    }

    #[test]
    fn empty_sketch_filters_everything() {
        let (db, pset) = db_and_pset();
        let plan = db.plan_sql("SELECT price FROM sales").unwrap();
        let sk = crate::sketch::SketchSet::empty(pset);
        let rewritten = apply_sketch_filter(&plan, &sk).unwrap();
        let res = db.execute_plan(&rewritten).unwrap();
        assert!(res.rows.is_empty());
    }

    #[test]
    fn existing_where_clause_is_conjoined() {
        let (db, pset) = db_and_pset();
        let plan = db
            .plan_sql("SELECT price FROM sales WHERE numsold > 1")
            .unwrap();
        let mut sk = crate::sketch::SketchSet::empty(pset);
        sk.insert(1); // ρ2 = [601, 1001)
        let rewritten = apply_sketch_filter(&plan, &sk).unwrap();
        let res = db.execute_plan(&rewritten).unwrap();
        // Only HP 999 (numsold 4, price ∈ ρ2).
        assert_eq!(res.canonical(), vec![(row![999], 1)]);
    }
}
