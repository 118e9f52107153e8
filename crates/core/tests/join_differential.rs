//! Differential property test for join maintenance: random insert/delete
//! workloads through every join shape the planner produces — a two-table
//! equi-join, a two-key join with a self-equality, a comma cross product
//! with a residual filter, an equi-join over a cross-product input
//! (nested operators) and a three-table chain — each under the three
//! join-index settings (default budget, indexes off, a budget of one
//! tuple so every input falls back to per-batch evaluation). The index
//! setting may only change cost, never results: after every batch each
//! maintainer's sketch must equal a fresh capture, and its report's
//! added/removed bits must be exactly the difference between consecutive
//! captures. Periodic state evictions, each recaptured in place of a
//! batch's maintenance, are woven in so the next batch's in-flight
//! deletes meet a state with no side index (the Δ⋈Δ cancellation
//! corner).

use imp_core::maintain::SketchMaintainer;
use imp_core::ops::{OpConfig, DEFAULT_JOIN_INDEX_BUDGET};
use imp_engine::Database;
use imp_sketch::{capture, PartitionSet, RangePartition};
use imp_storage::{row, DataType, Field, Schema, Value};
use proptest::prelude::*;
use std::sync::Arc;

const KEYS: i64 = 5;

fn seed_db() -> Database {
    let mut db = Database::new();
    for (table, c1, c2) in [("ta", "ka", "va"), ("tb", "kb1", "kb2"), ("tc", "kc", "wc")] {
        db.create_table(
            table,
            Schema::new(vec![
                Field::new(c1, DataType::Int),
                Field::new(c2, DataType::Int),
            ]),
        )
        .unwrap();
    }
    for k in 0..KEYS {
        db.table_mut("ta")
            .unwrap()
            .bulk_load([row![k, k * 10]])
            .unwrap();
        db.table_mut("tb")
            .unwrap()
            .bulk_load([row![k, (k + 1) % KEYS]])
            .unwrap();
        db.table_mut("tc")
            .unwrap()
            .bulk_load([row![k, k * 100]])
            .unwrap();
    }
    db
}

fn pset() -> Arc<PartitionSet> {
    Arc::new(
        PartitionSet::new(vec![
            RangePartition::new("ta", "ka", 0, vec![Value::Int(2), Value::Int(4)]).unwrap(),
            RangePartition::new("tc", "kc", 0, vec![Value::Int(2), Value::Int(4)]).unwrap(),
        ])
        .unwrap(),
    )
}

const TABLES: [(&str, &str); 3] = [("ta", "ka"), ("tb", "kb1"), ("tc", "kc")];

/// One plan per join shape.
const PLANS: [&str; 5] = [
    // Two-table equi-join.
    "SELECT va, wc FROM ta JOIN tc ON (ka = kc)",
    // Two keys, one of them a self-equality on tb.
    "SELECT va, kb2 FROM ta JOIN tb ON (ka = kb1 AND ka = kb2)",
    // Comma cross product with a residual filter.
    "SELECT va, wc FROM ta, tc WHERE va < wc",
    // Equi-join over a cross-product input: nested operators.
    "SELECT va, kb2 FROM (SELECT * FROM ta, tc) AS x JOIN tb ON (ka = kb1)",
    // Three-table chain.
    "SELECT va, wc FROM ta JOIN tb ON (ka = kb1) JOIN tc ON (kb2 = kc)",
];

/// The join-index settings: the only axis (default, off, every input
/// over budget).
const BUDGETS: [Option<usize>; 3] = [Some(DEFAULT_JOIN_INDEX_BUDGET), None, Some(1)];

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn index_settings_match_a_fresh_capture_on_every_batch(
        plan_no in 0usize..PLANS.len(),
        // (table, key, delete?, value) — chunked into multi-op batches so
        // inserts and deletes of the same key collide within one delta.
        ops in prop::collection::vec(
            (0usize..3, 0i64..KEYS, any::<bool>(), 0i64..50),
            1..36,
        ),
        evict in any::<bool>(),
    ) {
        let mut db = seed_db();
        let sql = PLANS[plan_no];
        let plan = db.plan_sql(sql).unwrap();
        let pset = pset();

        let mut maintainers: Vec<SketchMaintainer> = BUDGETS
            .iter()
            .map(|&budget| {
                let cfg = OpConfig {
                    join_index_budget: budget,
                    ..OpConfig::default()
                };
                SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), cfg, true)
                    .unwrap()
                    .0
            })
            .collect();
        let mut before = capture(&plan, &db, &pset).unwrap().sketch;

        for (batch_no, batch) in ops.chunks(4).enumerate() {
            for &(t, key, delete, val) in batch {
                let (table, key_col) = TABLES[t];
                let sql = if delete {
                    format!("DELETE FROM {table} WHERE {key_col} = {key}")
                } else if table == "tb" {
                    format!("INSERT INTO tb VALUES ({key}, {})", val % KEYS)
                } else {
                    format!("INSERT INTO {table} VALUES ({key}, {val})")
                };
                db.execute_sql(&sql).unwrap();
            }
            // Every other batch (when enabled): evict, and recapture in
            // place of the batch's maintenance, so the next batch's
            // in-flight deletes meet a recaptured state with no index.
            let recapture = evict && batch_no % 2 == 1;
            let truth = capture(&plan, &db, &pset).unwrap().sketch;
            let added: Vec<usize> = truth
                .bits()
                .iter_ones()
                .filter(|&b| !before.bits().get(b))
                .collect();
            let removed: Vec<usize> = before
                .bits()
                .iter_ones()
                .filter(|&b| !truth.bits().get(b))
                .collect();
            for (m, budget) in maintainers.iter_mut().zip(BUDGETS) {
                let report = if recapture {
                    m.drop_state();
                    m.full_maintain(&db).unwrap()
                } else {
                    m.maintain(&db).unwrap()
                };
                prop_assert_eq!(
                    m.sketch(), &truth,
                    "{} with budget {:?} != capture at batch {}", sql, budget, batch_no
                );
                prop_assert_eq!(
                    (&report.sketch_delta.added, &report.sketch_delta.removed),
                    (&added, &removed),
                    "{} with budget {:?}: wrong sketch delta at batch {}", sql, budget, batch_no
                );
            }
            before = truth;
        }
    }
}
