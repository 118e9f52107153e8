//! Differential property tests for the n-ary join circuit.
//!
//! 1. `nary_matches_fresh_capture` — random insert/delete workloads over
//!    a 4-table chain join. After every batch the maintained sketch must
//!    equal a fresh capture and the report's added/removed bits must be
//!    exactly the difference between consecutive captures, through
//!    periodic state evictions, each recaptured in place of a batch's
//!    maintenance (the next batch's in-flight deletes meet a recaptured
//!    state with no n-ary index).
//! 2. `tree_shapes_maintain_identically` — left-deep, right-deep, and
//!    bushy parses of the same equi-join set must compile to the same
//!    canonical `NaryJoinOp` (equal signatures) and maintain
//!    byte-identically batch by batch.
//! 3. `nary_pool_matches_sequential_store` — the 4-input circuit under
//!    the scheduler: a 2–4-worker pool (workers sweeping beside the
//!    caller) must stay byte-identical to the zero-worker store (the
//!    caller maintains through the fetching path) while maintaining a
//!    4-table join template: every run fetches all n inputs' deltas up to
//!    one version frontier.

#[path = "support/small_scope.rs"]
mod small_scope;

use imp_core::maintain::SketchMaintainer;
use imp_core::middleware::{Imp, ImpConfig};
use imp_core::ops::OpConfig;
use imp_engine::Database;
use imp_sketch::{capture, PartitionSet, RangePartition};
use imp_sql::{flatten_join, LogicalPlan};
use imp_storage::{row, DataType, Field, Schema, Value};
use proptest::prelude::*;
use small_scope::run_query;
use std::sync::Arc;

const KEYS: i64 = 5;

/// 4-table chain: ta(ka,va) ⋈ tb(kb1,kb2) ⋈ tc(kc1,kc2) ⋈ td(kd,wd)
/// on ka = kb1, kb2 = kc1, kc2 = kd.
const SQL4: &str =
    "SELECT va, wd FROM ta JOIN tb ON (ka = kb1) JOIN tc ON (kb2 = kc1) JOIN td ON (kc2 = kd)";

fn seed_db() -> Database {
    let mut db = Database::new();
    for (table, c1, c2) in [
        ("ta", "ka", "va"),
        ("tb", "kb1", "kb2"),
        ("tc", "kc1", "kc2"),
        ("td", "kd", "wd"),
    ] {
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
            .bulk_load([row![k, (k + 2) % KEYS]])
            .unwrap();
        db.table_mut("td")
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
            RangePartition::new("td", "kd", 0, vec![Value::Int(2), Value::Int(4)]).unwrap(),
        ])
        .unwrap(),
    )
}

const TABLES: [(&str, &str); 4] = [("ta", "ka"), ("tb", "kb1"), ("tc", "kc1"), ("td", "kd")];

/// Apply one op batch as SQL; join-side columns keep values in the key
/// domain so inserts actually meet join partners.
fn apply_batch(db: &mut Database, batch: &[(usize, i64, bool, i64)]) {
    for &(t, key, delete, val) in batch {
        let (table, key_col) = TABLES[t];
        let sql = if delete {
            format!("DELETE FROM {table} WHERE {key_col} = {key}")
        } else if table == "tb" || table == "tc" {
            format!("INSERT INTO {table} VALUES ({key}, {})", val % KEYS)
        } else {
            format!("INSERT INTO {table} VALUES ({key}, {val})")
        };
        db.execute_sql(&sql).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn nary_matches_fresh_capture(
        ops in prop::collection::vec(
            (0usize..4, 0i64..KEYS, any::<bool>(), 0i64..50),
            1..36,
        ),
        evict in any::<bool>(),
    ) {
        let mut db = seed_db();
        let plan = db.plan_sql(SQL4).unwrap();
        let pset = pset();

        let mut nary =
            SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), OpConfig::default(), true)
                .unwrap()
                .0;
        prop_assert_eq!(nary.nary_arity(), Some(4), "4-table chain must compile n-ary");
        let mut before = capture(&plan, &db, &pset).unwrap().sketch;

        for (batch_no, batch) in ops.chunks(4).enumerate() {
            apply_batch(&mut db, batch);
            // Every other batch (when enabled): evict, and recapture in
            // place of the batch's maintenance, so the next batch's
            // in-flight deletes meet a recaptured state with no index.
            let report = if evict && batch_no % 2 == 1 {
                nary.drop_state();
                nary.full_maintain(&db).unwrap()
            } else {
                nary.maintain(&db).unwrap()
            };
            let truth = capture(&plan, &db, &pset).unwrap().sketch;
            prop_assert_eq!(nary.sketch(), &truth, "n-ary != capture at batch {}", batch_no);
            let diff = |a: &imp_sketch::SketchSet, b: &imp_sketch::SketchSet| -> Vec<usize> {
                a.bits().iter_ones().filter(|&f| !b.bits().get(f)).collect()
            };
            prop_assert_eq!(
                (&report.sketch_delta.added, &report.sketch_delta.removed),
                (&diff(&truth, &before), &diff(&before, &truth)),
                "n-ary sketch delta != capture difference at batch {}",
                batch_no
            );
            before = truth;
        }
    }
}

/// Scan leaf over a live table's schema.
fn scan(db: &Database, table: &str) -> LogicalPlan {
    LogicalPlan::Scan {
        table: table.to_string(),
        schema: db.table(table).unwrap().schema().clone(),
    }
}

fn join(l: LogicalPlan, r: LogicalPlan, lk: usize, rk: usize) -> LogicalPlan {
    LogicalPlan::Join {
        left: Box::new(l),
        right: Box::new(r),
        left_keys: vec![lk],
        right_keys: vec![rk],
    }
}

/// The three parse shapes of ta ⋈ tb ⋈ tc ⋈ td on
/// ka = kb1, kb2 = kc1, kc2 = kd.
fn tree_shapes(db: &Database) -> [LogicalPlan; 3] {
    let (a, b, c, d) = (
        scan(db, "ta"),
        scan(db, "tb"),
        scan(db, "tc"),
        scan(db, "td"),
    );
    let left_deep = join(
        join(join(a.clone(), b.clone(), 0, 0), c.clone(), 3, 0),
        d.clone(),
        5,
        0,
    );
    let right_deep = join(
        a.clone(),
        join(b.clone(), join(c.clone(), d.clone(), 1, 0), 1, 0),
        0,
        0,
    );
    let bushy = join(join(a, b, 0, 0), join(c, d, 1, 0), 3, 0);
    [left_deep, right_deep, bushy]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn tree_shapes_maintain_identically(
        ops in prop::collection::vec(
            (0usize..4, 0i64..KEYS, any::<bool>(), 0i64..50),
            1..24,
        ),
    ) {
        let mut db = seed_db();
        let shapes = tree_shapes(&db);
        let pset = pset();

        // All three shapes canonicalize to one NaryJoin.
        let flat: Vec<_> = shapes.iter().map(|p| flatten_join(p).unwrap()).collect();
        prop_assert_eq!(&flat[1], &flat[0], "right-deep flattened differently");
        prop_assert_eq!(&flat[2], &flat[0], "bushy flattened differently");

        let mut maintainers: Vec<SketchMaintainer> = shapes
            .iter()
            .map(|p| {
                SketchMaintainer::capture(p, &db, Arc::clone(&pset), OpConfig::default(), true)
                    .unwrap()
                    .0
            })
            .collect();
        let sig = maintainers[0].nary_signature();
        prop_assert!(sig.is_some(), "shapes must compile to the n-ary circuit");
        for m in &maintainers[1..] {
            prop_assert_eq!(m.nary_signature(), sig.clone(), "operator shapes diverged");
        }

        for (batch_no, batch) in ops.chunks(4).enumerate() {
            apply_batch(&mut db, batch);
            let mut deltas = Vec::new();
            for m in maintainers.iter_mut() {
                let r = m.maintain(&db).unwrap();
                deltas.push((r.sketch_delta.added, r.sketch_delta.removed));
            }
            prop_assert_eq!(&deltas[1], &deltas[0], "right-deep delta diverged at batch {}", batch_no);
            prop_assert_eq!(&deltas[2], &deltas[0], "bushy delta diverged at batch {}", batch_no);
            let truth = capture(&shapes[0], &db, &pset).unwrap();
            for m in &maintainers {
                prop_assert_eq!(m.sketch(), &truth.sketch, "shape != recapture at batch {}", batch_no);
            }
        }
    }
}

fn imp_config(workers: usize) -> ImpConfig {
    ImpConfig {
        fragments: 4,
        sched_workers: workers,
        ..ImpConfig::default()
    }
}

const IMP_QUERY: &str = "SELECT va, sum(wd) AS s FROM ta JOIN tb ON (ka = kb1) \
     JOIN tc ON (kb2 = kc1) JOIN td ON (kc2 = kd) GROUP BY va HAVING sum(wd) > 100";

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn nary_pool_matches_sequential_store(
        ops in prop::collection::vec(
            (0usize..4, 0i64..KEYS, any::<bool>(), 0i64..60),
            1..36,
        ),
        workers in 2usize..5,
    ) {
        let mut seq = Imp::new(seed_db(), imp_config(0));
        let mut par = Imp::new(seed_db(), imp_config(workers));
        let a = run_query(&mut seq, IMP_QUERY);
        let b = run_query(&mut par, IMP_QUERY);
        prop_assert_eq!(a, b, "capture results diverged");
        prop_assert_eq!(seq.sketch_count(), 1, "join template must capture a sketch");
        prop_assert_eq!(par.sketch_count(), 1);

        for (round, batch) in ops.chunks(6).enumerate() {
            // Updates land against a paused pool so a multi-table backlog
            // waits; a sweep's run fetches all four join inputs up to one
            // version frontier.
            let paused = par.scheduler().unwrap().pause();
            for &(t, key, delete, val) in batch {
                let (table, key_col) = TABLES[t];
                let sql = if delete {
                    format!("DELETE FROM {table} WHERE {key_col} = {key}")
                } else if table == "tb" || table == "tc" {
                    format!("INSERT INTO {table} VALUES ({key}, {})", val % KEYS)
                } else {
                    format!("INSERT INTO {table} VALUES ({key}, {val})")
                };
                seq.execute(&sql).unwrap();
                par.execute(&sql).unwrap();
            }
            paused.resume();
            seq.maintain_all_stale().unwrap();
            par.maintain_all_stale().unwrap();
            prop_assert_eq!(
                seq.sketch_states(),
                par.sketch_states(),
                "sketch sets/versions diverged at round {} (workers {})",
                round,
                workers
            );
            let a = run_query(&mut seq, IMP_QUERY);
            let b = run_query(&mut par, IMP_QUERY);
            prop_assert_eq!(a, b, "query answers diverged at round {}", round);
        }
    }
}
