//! Sketch capture: batch annotated evaluation.
//!
//! To create a sketch for a query `Q`, the paper executes an instrumented
//! *capture query* `Q_{R,F}` that propagates coarse-grained provenance and
//! returns a sketch (§1). Our backend evaluates the plan natively under
//! annotated semantics: every tuple carries a fragment annotation,
//! operators union the annotations of the inputs that justify each
//! output, and the final sketch is `S(F(Q(𝒟)))` — the union of all result
//! annotations (§6.1). Re-running capture on the current database is
//! exactly the **full maintenance (FM)** baseline of the evaluation (§8).
//!
//! Annotations flow as pooled [`AnnotId`]s against an [`AnnotPool`]:
//! scans emit cached singletons, joins and aggregates combine them with
//! memoized pool unions, so no per-row bitvector is ever allocated.
//!
//! This evaluator is deliberately independent from the incremental engine
//! in `imp-core`; property tests cross-validate the two implementations.

use crate::partition::PartitionSet;
use crate::sketch::SketchSet;
use crate::Result;
use imp_engine::eval::scan_table;
use imp_engine::{Bag, Database, EngineError};
use imp_sql::plan::compare_rows;
use imp_sql::{AggFunc, AggSpec, Expr, LogicalPlan};
use imp_storage::{AnnotId, AnnotPool, BitVec, DeltaBatch, FxHashMap, Row, Value};
use std::sync::Arc;

/// A bag of annotated tuples `⟨t, P⟩ⁿ` with pooled annotations.
pub type AnnotBag = DeltaBatch;

/// Output of capture: the accurate sketch plus the (plain) query result,
/// so a capture run also answers the query (paper Fig. 2, blue pipeline).
#[derive(Debug, Clone)]
pub struct CaptureResult {
    /// Accurate sketch `P[Q, Φ, D]`.
    pub sketch: SketchSet,
    /// Query result as a plain bag.
    pub result: Bag,
    /// Live rows the capture's scans looked at (cost accounting): the rows
    /// of every chunk that survived zone-map pruning plus the open tails,
    /// as [`imp_engine::ExecStats::rows_scanned`] counts them.
    pub rows_scanned: u64,
}

/// Capture the accurate sketch of `plan` over `db` wrt. `pset`.
pub fn capture(
    plan: &LogicalPlan,
    db: &Database,
    pset: &Arc<PartitionSet>,
) -> Result<CaptureResult> {
    let mut rows_scanned = 0u64;
    let mut pool = AnnotPool::new(pset.total_fragments());
    let annotated = eval_annot(plan, db, pset, &mut pool, &mut rows_scanned)?;
    let mut result = Vec::with_capacity(annotated.len());
    let mut bits = BitVec::new(pset.total_fragments());
    for e in annotated {
        debug_assert!(e.mult > 0, "capture output must be a plain bag");
        bits.union_with(pool.get(e.annot));
        result.push((e.row, e.mult));
    }
    let sketch = SketchSet::from_bits(Arc::clone(pset), bits);
    Ok(CaptureResult {
        sketch,
        result,
        rows_scanned,
    })
}

/// Evaluate a plan under annotated semantics against `pool`.
pub fn eval_annot(
    plan: &LogicalPlan,
    db: &Database,
    pset: &PartitionSet,
    pool: &mut AnnotPool,
    rows_scanned: &mut u64,
) -> Result<AnnotBag> {
    match plan {
        LogicalPlan::Scan { table, .. } => scan_annot(db, table, None, pset, pool, rows_scanned),
        LogicalPlan::Filter { input, predicate } => {
            // A filter directly over a table is fused into the scan.
            if let LogicalPlan::Scan { table, .. } = input.as_ref() {
                return scan_annot(db, table, Some(predicate), pset, pool, rows_scanned);
            }
            let rows = eval_annot(input, db, pset, pool, rows_scanned)?;
            let mut out = DeltaBatch::new();
            for e in rows {
                if predicate
                    .eval_predicate(&e.row)
                    .map_err(EngineError::from)?
                {
                    out.push(e);
                }
            }
            Ok(out)
        }
        LogicalPlan::Project { input, exprs, .. } => {
            let rows = eval_annot(input, db, pset, pool, rows_scanned)?;
            let mut out = DeltaBatch::with_capacity(rows.len());
            for e in rows {
                let vals = exprs
                    .iter()
                    .map(|ex| ex.eval(&e.row))
                    .collect::<std::result::Result<Vec<_>, _>>()
                    .map_err(EngineError::from)?;
                out.push_entry(Row::new(vals), e.annot, e.mult);
            }
            Ok(out)
        }
        LogicalPlan::Join {
            left,
            right,
            left_keys,
            right_keys,
        } => {
            let l = eval_annot(left, db, pset, pool, rows_scanned)?;
            let r = eval_annot(right, db, pset, pool, rows_scanned)?;
            join_annot(l, r, left_keys, right_keys, pool)
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            ..
        } => {
            let rows = eval_annot(input, db, pset, pool, rows_scanned)?;
            aggregate_annot(rows, group_by, aggs, pool)
        }
        LogicalPlan::Distinct { input } => {
            let rows = eval_annot(input, db, pset, pool, rows_scanned)?;
            let mut groups: std::collections::BTreeMap<Row, AnnotId> = Default::default();
            for e in rows {
                match groups.entry(e.row) {
                    std::collections::btree_map::Entry::Occupied(mut o) => {
                        let merged = pool.union(*o.get(), e.annot);
                        *o.get_mut() = merged;
                    }
                    std::collections::btree_map::Entry::Vacant(v) => {
                        v.insert(e.annot);
                    }
                }
            }
            Ok(groups
                .into_iter()
                .map(|(row, annot)| imp_storage::DeltaEntry {
                    row,
                    annot,
                    mult: 1,
                })
                .collect())
        }
        LogicalPlan::Sort { input, keys } => {
            let mut rows = eval_annot(input, db, pset, pool, rows_scanned)?;
            rows.sort_by(|a, b| compare_rows(&a.row, &b.row, keys).then_with(|| a.row.cmp(&b.row)));
            Ok(rows)
        }
        LogicalPlan::Except { .. } => Err(crate::SketchError::Unsupported(
            "set difference is not sketch-maintainable (paper §9 future work); \
             IMP answers such queries through the no-sketch path"
                .into(),
        )),
        LogicalPlan::TopK { input, keys, k } => {
            let mut rows = eval_annot(input, db, pset, pool, rows_scanned)?;
            {
                let pool = &*pool;
                rows.sort_by(|a, b| {
                    compare_rows(&a.row, &b.row, keys)
                        .then_with(|| a.row.cmp(&b.row))
                        .then_with(|| pool.get(a.annot).cmp(pool.get(b.annot)))
                });
            }
            let mut out = DeltaBatch::new();
            let mut remaining = *k as i64;
            for e in rows {
                if remaining <= 0 {
                    break;
                }
                let take = e.mult.min(remaining);
                out.push_entry(e.row, e.annot, take);
                remaining -= take;
            }
            Ok(out)
        }
    }
}

/// Annotated table access through the engine's fused scan
/// ([`scan_table`]): only rows satisfying `predicate` are annotated.
fn scan_annot(
    db: &Database,
    table: &str,
    predicate: Option<&Expr>,
    pset: &PartitionSet,
    pool: &mut AnnotPool,
    rows_scanned: &mut u64,
) -> Result<AnnotBag> {
    let t = db.table(table)?;
    // Only an unfiltered scan knows its output size up front.
    let mut out = DeltaBatch::with_capacity(predicate.map_or(t.row_count(), |_| 0));
    let part = pset.for_table(table);
    let examined = scan_table(
        t,
        predicate,
        |row| {
            let annot = match &part {
                Some((_, offset, p)) => pool.singleton(offset + p.fragment_of(&row[p.column])),
                None => pool.empty_id(),
            };
            out.push_entry(row, annot, 1);
        },
        |_| {},
    )
    .map_err(EngineError::from)?;
    *rows_scanned += examined as u64;
    Ok(out)
}

fn join_annot(
    left: AnnotBag,
    right: AnnotBag,
    left_keys: &[usize],
    right_keys: &[usize],
    pool: &mut AnnotPool,
) -> Result<AnnotBag> {
    let mut out = DeltaBatch::new();
    if left_keys.is_empty() {
        for l in &left {
            for r in &right {
                out.push_entry(
                    l.row.concat(&r.row),
                    pool.union(l.annot, r.annot),
                    l.mult * r.mult,
                );
            }
        }
        return Ok(out);
    }
    let mut table: FxHashMap<Vec<Value>, Vec<imp_storage::DeltaEntry>> = FxHashMap::default();
    for e in right {
        if let Some(k) = join_key(&e.row, right_keys) {
            table.entry(k).or_default().push(e);
        }
    }
    for l in left {
        let Some(k) = join_key(&l.row, left_keys) else {
            continue;
        };
        if let Some(matches) = table.get(&k) {
            for r in matches {
                out.push_entry(
                    l.row.concat(&r.row),
                    pool.union(l.annot, r.annot),
                    l.mult * r.mult,
                );
            }
        }
    }
    Ok(out)
}

fn join_key(row: &Row, keys: &[usize]) -> Option<Vec<Value>> {
    let mut k = Vec::with_capacity(keys.len());
    for &i in keys {
        let v = row[i].clone();
        if v.is_null() {
            return None;
        }
        k.push(v);
    }
    Some(k)
}

/// Batch annotated aggregation: the group's sketch is the union of the
/// annotations of every tuple in the group (cf. state `ℱ_g`, §5.2.5).
fn aggregate_annot(
    rows: AnnotBag,
    group_by: &[Expr],
    aggs: &[AggSpec],
    pool: &mut AnnotPool,
) -> Result<AnnotBag> {
    struct GroupState {
        annot: AnnotId,
        accs: Vec<BatchAcc>,
    }
    let empty = pool.empty_id();
    let mut groups: FxHashMap<Row, GroupState> = FxHashMap::default();
    for e in rows {
        let key: Row = group_by
            .iter()
            .map(|g| g.eval(&e.row))
            .collect::<std::result::Result<_, _>>()
            .map_err(EngineError::from)?;
        let st = groups.entry(key).or_insert_with(|| GroupState {
            annot: empty,
            accs: aggs.iter().map(|a| BatchAcc::new(a.func)).collect(),
        });
        st.annot = pool.union(st.annot, e.annot);
        for (acc, spec) in st.accs.iter_mut().zip(aggs) {
            let arg = match &spec.arg {
                Some(ex) => Some(ex.eval(&e.row).map_err(EngineError::from)?),
                None => None,
            };
            acc.update(arg.as_ref(), e.mult);
        }
    }
    if groups.is_empty() && group_by.is_empty() {
        groups.insert(
            Row::new(vec![]),
            GroupState {
                annot: empty,
                accs: aggs.iter().map(|a| BatchAcc::new(a.func)).collect(),
            },
        );
    }
    let mut out = DeltaBatch::with_capacity(groups.len());
    for (key, st) in groups {
        let mut vals: Vec<Value> = key.values().to_vec();
        for acc in &st.accs {
            vals.push(acc.finish());
        }
        out.push_entry(Row::new(vals), st.annot, 1);
    }
    Ok(out)
}

/// Minimal batch accumulator (independent of the engine's, by design).
#[derive(Debug, Clone)]
enum BatchAcc {
    Sum {
        int: i64,
        float: f64,
        is_float: bool,
        n: i64,
    },
    Count {
        n: i64,
    },
    Avg {
        int: i64,
        float: f64,
        is_float: bool,
        n: i64,
    },
    Min {
        cur: Option<Value>,
    },
    Max {
        cur: Option<Value>,
    },
}

impl BatchAcc {
    fn new(f: AggFunc) -> BatchAcc {
        match f {
            AggFunc::Sum => BatchAcc::Sum {
                int: 0,
                float: 0.0,
                is_float: false,
                n: 0,
            },
            AggFunc::Count => BatchAcc::Count { n: 0 },
            AggFunc::Avg => BatchAcc::Avg {
                int: 0,
                float: 0.0,
                is_float: false,
                n: 0,
            },
            AggFunc::Min => BatchAcc::Min { cur: None },
            AggFunc::Max => BatchAcc::Max { cur: None },
        }
    }

    fn update(&mut self, arg: Option<&Value>, mult: i64) {
        fn add(int: &mut i64, float: &mut f64, is_float: &mut bool, v: &Value, m: i64) {
            match v {
                Value::Int(i) => {
                    if *is_float {
                        *float += (*i as f64) * m as f64;
                    } else {
                        *int += i * m;
                    }
                }
                Value::Float(f) => {
                    if !*is_float {
                        *float = *int as f64;
                        *is_float = true;
                    }
                    *float += f * m as f64;
                }
                _ => {}
            }
        }
        match self {
            BatchAcc::Count { n } => match arg {
                None => *n += mult,
                Some(v) if !v.is_null() => *n += mult,
                _ => {}
            },
            BatchAcc::Sum {
                int,
                float,
                is_float,
                n,
            }
            | BatchAcc::Avg {
                int,
                float,
                is_float,
                n,
            } => {
                if let Some(v) = arg {
                    if !v.is_null() {
                        add(int, float, is_float, v, mult);
                        *n += mult;
                    }
                }
            }
            BatchAcc::Min { cur } => {
                if let Some(v) = arg {
                    if !v.is_null() && cur.as_ref().is_none_or(|c| v < c) {
                        *cur = Some(v.clone());
                    }
                }
            }
            BatchAcc::Max { cur } => {
                if let Some(v) = arg {
                    if !v.is_null() && cur.as_ref().is_none_or(|c| v > c) {
                        *cur = Some(v.clone());
                    }
                }
            }
        }
    }

    fn finish(&self) -> Value {
        match self {
            BatchAcc::Count { n } => Value::Int(*n),
            BatchAcc::Sum {
                int,
                float,
                is_float,
                n,
            } => {
                if *n == 0 {
                    Value::Null
                } else if *is_float {
                    Value::Float(*float)
                } else {
                    Value::Int(*int)
                }
            }
            BatchAcc::Avg {
                int,
                float,
                is_float,
                n,
            } => {
                if *n == 0 {
                    Value::Null
                } else {
                    let s = if *is_float { *float } else { *int as f64 };
                    Value::Float(s / *n as f64)
                }
            }
            BatchAcc::Min { cur } | BatchAcc::Max { cur } => cur.clone().unwrap_or(Value::Null),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::RangePartition;
    use imp_storage::{row, DataType, Field, Schema};

    fn sales_db() -> Database {
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
        let t = db.table_mut("sales").unwrap();
        t.bulk_load(rows).unwrap();
        db
    }

    fn price_pset() -> Arc<PartitionSet> {
        Arc::new(
            PartitionSet::new(vec![RangePartition::new(
                "sales",
                "price",
                2,
                vec![Value::Int(601), Value::Int(1001), Value::Int(1501)],
            )
            .unwrap()])
            .unwrap(),
        )
    }

    #[test]
    fn capture_example_1_1() {
        // Accurate sketch of Q_top is {ρ3, ρ4} (fragments 2 and 3).
        let db = sales_db();
        let plan = db
            .plan_sql(
                "SELECT brand, SUM(price * numsold) AS rev FROM sales \
                 GROUP BY brand HAVING SUM(price * numsold) > 5000",
            )
            .unwrap();
        let cap = capture(&plan, &db, &price_pset()).unwrap();
        assert_eq!(cap.sketch.fragments_of_partition(0), vec![2, 3]);
        assert_eq!(cap.result, vec![(row!["Apple", 5074], 1)]);
    }

    #[test]
    fn capture_example_1_2_after_insert() {
        // After inserting s8 the HP group passes; sketch gains ρ2.
        let mut db = sales_db();
        db.execute_sql("INSERT INTO sales VALUES (8, 'HP', 1299, 1)")
            .unwrap();
        let plan = db
            .plan_sql(
                "SELECT brand, SUM(price * numsold) AS rev FROM sales \
                 GROUP BY brand HAVING SUM(price * numsold) > 5000",
            )
            .unwrap();
        let cap = capture(&plan, &db, &price_pset()).unwrap();
        assert_eq!(cap.sketch.fragments_of_partition(0), vec![1, 2, 3]);
        let mut rows = cap.result.clone();
        rows.sort();
        assert_eq!(rows, vec![(row!["Apple", 5074], 1), (row!["HP", 6194], 1)]);
    }

    #[test]
    fn capture_result_matches_plain_execution() {
        let db = sales_db();
        let plan = db
            .plan_sql("SELECT brand, price FROM sales WHERE price > 900")
            .unwrap();
        let cap = capture(&plan, &db, &price_pset()).unwrap();
        let direct = db.execute_plan(&plan).unwrap();
        let mut a = cap.result.clone();
        a.sort();
        let mut b = direct.rows.clone();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn topk_capture_annotates_only_topk() {
        let db = sales_db();
        let plan = db
            .plan_sql("SELECT price FROM sales ORDER BY price DESC LIMIT 2")
            .unwrap();
        let cap = capture(&plan, &db, &price_pset()).unwrap();
        // Top-2 prices 3875 (ρ4) and 1345 (ρ3).
        assert_eq!(cap.sketch.fragments_of_partition(0), vec![2, 3]);
    }

    #[test]
    fn scan_annotations_are_pooled_singletons() {
        // 7 scanned rows, but only as many interned annotations as there
        // are distinct fragments touched.
        let db = sales_db();
        let pset = price_pset();
        let mut pool = AnnotPool::new(pset.total_fragments());
        let mut scanned = 0;
        let plan = db.plan_sql("SELECT price FROM sales").unwrap();
        let bag = eval_annot(&plan, &db, &pset, &mut pool, &mut scanned).unwrap();
        assert_eq!(bag.len(), 7);
        let distinct: std::collections::BTreeSet<_> = bag.iter().map(|e| e.annot).collect();
        assert_eq!(pool.stats().interned as usize, distinct.len());
        assert!(pool.stats().intern_hits > 0, "singleton cache must fire");
    }
}
