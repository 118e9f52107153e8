//! End-to-end tests of the incremental maintenance engine against the
//! paper's running examples (Ex. 1.1, 1.2, 4.2, 5.1, 5.2) and against full
//! recapture on randomized updates.

use imp_core::maintain::SketchMaintainer;
use imp_core::middleware::{Imp, ImpConfig, ImpResponse, QueryMode};
use imp_core::ops::OpConfig;
use imp_core::MaintenanceStrategy;
use imp_engine::Database;
use imp_sketch::{capture, PartitionSet, RangePartition};
use imp_storage::{row, DataType, Field, Schema, Value};
use std::sync::Arc;

const QTOP: &str = "SELECT brand, SUM(price * numsold) AS rev FROM sales \
                    GROUP BY brand HAVING SUM(price * numsold) > 5000";

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
    db.table_mut("sales").unwrap().bulk_load(rows).unwrap();
    db
}

/// φ_price of Ex. 1.1 (brand is the group-by/safe attribute, but the
/// paper's example partitions on price — allowed via override semantics).
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
fn capture_bootstrap_matches_batch_capture() {
    // Two independent implementations must agree: incremental-from-empty
    // (maintainer bootstrap) vs. batch annotated evaluation.
    let db = sales_db();
    let plan = db.plan_sql(QTOP).unwrap();
    let pset = price_pset();
    let (m, result) =
        SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), OpConfig::default(), true)
            .unwrap();
    let batch = capture(&plan, &db, &pset).unwrap();
    assert_eq!(m.sketch(), &batch.sketch);
    assert_eq!(m.sketch().fragments_of_partition(0), vec![2, 3]); // {ρ3, ρ4}
    assert_eq!(result, vec![(row!["Apple", 5074], 1)]);
}

#[test]
fn example_1_2_insert_makes_sketch_gain_rho2() {
    // Inserting s8 pushes HP over the threshold: sketch gains ρ2.
    let mut db = sales_db();
    let plan = db.plan_sql(QTOP).unwrap();
    let pset = price_pset();
    let (mut m, _) =
        SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), OpConfig::default(), true)
            .unwrap();
    db.execute_sql("INSERT INTO sales VALUES (8, 'HP', 1299, 1)")
        .unwrap();
    assert!(m.is_stale(&db));
    let report = m.maintain(&db).unwrap();
    assert!(!report.recaptured);
    // ρ2 (fragment 1) newly added; HP tuples live in ρ2 (999, 899) and the
    // new one in ρ3 which was already present.
    assert_eq!(report.sketch_delta.added, vec![1]);
    assert_eq!(m.sketch().fragments_of_partition(0), vec![1, 2, 3]);
    // Must equal a from-scratch capture of the updated database.
    let batch = capture(&plan, &db, &pset).unwrap();
    assert_eq!(m.sketch(), &batch.sketch);
}

#[test]
fn deletion_shrinks_sketch() {
    let mut db = sales_db();
    let plan = db.plan_sql(QTOP).unwrap();
    let pset = price_pset();
    let (mut m, _) =
        SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), OpConfig::default(), true)
            .unwrap();
    // Delete the expensive MacBook: Apple's revenue falls below 5000,
    // leaving no result tuples → sketch becomes empty.
    db.execute_sql("DELETE FROM sales WHERE sid = 4").unwrap();
    let report = m.maintain(&db).unwrap();
    assert_eq!(report.sketch_delta.removed, vec![2, 3]);
    assert_eq!(m.sketch().fragment_count(), 0);
    let batch = capture(&plan, &db, &pset).unwrap();
    assert_eq!(m.sketch(), &batch.sketch);
}

#[test]
fn fig5_two_table_join_example() {
    // Paper Ex. 5.1 / Fig. 5, verbatim.
    let mut db = Database::new();
    db.create_table(
        "r",
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ]),
    )
    .unwrap();
    db.create_table(
        "s",
        Schema::new(vec![
            Field::new("c", DataType::Int),
            Field::new("d", DataType::Int),
        ]),
    )
    .unwrap();
    db.table_mut("r")
        .unwrap()
        .bulk_load([row![1, 7], row![9, 9]])
        .unwrap();
    db.table_mut("s")
        .unwrap()
        .bulk_load([row![6, 9], row![7, 8]])
        .unwrap();
    // φ_a = {f1=[1,5], f2=[6,10]}, φ_c = {g1=[1,6], g2=[7,15]}.
    let pset = Arc::new(
        PartitionSet::new(vec![
            RangePartition::new("r", "a", 0, vec![Value::Int(6)]).unwrap(),
            RangePartition::new("s", "c", 0, vec![Value::Int(7)]).unwrap(),
        ])
        .unwrap(),
    );
    let sql = "SELECT a, sum(c) AS sc \
               FROM (SELECT a, b FROM r WHERE a > 3) t JOIN s ON (b = d) \
               GROUP BY a HAVING SUM(c) > 5";
    let plan = db.plan_sql(sql).unwrap();
    let (mut m, result) =
        SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), OpConfig::default(), true)
            .unwrap();
    // Before the delta: only group 9 qualifies (9 joins 6 via b=d=9,
    // sum(c)=6 > 5); sketch = {f2, g1} = global fragments {1, 2}.
    assert_eq!(result, vec![(row![9, 6], 1)]);
    assert_eq!(
        m.sketch().bits().iter_ones().collect::<Vec<_>>(),
        vec![1, 2]
    );
    // Δ+ (5,8) into R: new group 5 with sum(c)=7 > 5 → Δ+{f1, g2}.
    db.execute_sql("INSERT INTO r VALUES (5, 8)").unwrap();
    let report = m.maintain(&db).unwrap();
    assert_eq!(report.sketch_delta.added, vec![0, 3]); // f1, g2
    assert!(report.sketch_delta.removed.is_empty());
    assert_eq!(
        m.sketch().bits().iter_ones().collect::<Vec<_>>(),
        vec![0, 1, 2, 3]
    );
    // Cross-check against batch capture.
    let batch = capture(&plan, &db, &pset).unwrap();
    assert_eq!(m.sketch(), &batch.sketch);
}

#[test]
fn middleware_lifecycle_capture_use_maintain() {
    let mut imp = Imp::new(
        sales_db(),
        ImpConfig {
            partition_overrides: vec![("sales".into(), "price".into())],
            allow_unsafe_attributes: true,
            fragments: 4,
            ..ImpConfig::default()
        },
    );
    // First query captures.
    let ImpResponse::Rows { result, mode } = imp.execute(QTOP).unwrap() else {
        panic!()
    };
    assert!(matches!(mode, QueryMode::Captured));
    assert_eq!(result.canonical(), vec![(row!["Apple", 5074], 1)]);
    // Second identical query uses the fresh sketch.
    let ImpResponse::Rows { result, mode } = imp.execute(QTOP).unwrap() else {
        panic!()
    };
    assert!(matches!(mode, QueryMode::UsedFresh));
    assert_eq!(result.canonical(), vec![(row!["Apple", 5074], 1)]);
    // Update, then the next query maintains and still answers correctly
    // (Ex. 1.2: HP joins the result).
    imp.execute("INSERT INTO sales VALUES (8, 'HP', 1299, 1)")
        .unwrap();
    let ImpResponse::Rows { result, mode } = imp.execute(QTOP).unwrap() else {
        panic!()
    };
    assert!(matches!(mode, QueryMode::Maintained(_)));
    assert_eq!(
        result.canonical(),
        vec![(row!["Apple", 5074], 1), (row!["HP", 6194], 1)]
    );
}

#[test]
fn middleware_eager_strategy_maintains_on_update() {
    let mut imp = Imp::new(
        sales_db(),
        ImpConfig {
            strategy: MaintenanceStrategy::Eager { batch_size: 1 },
            partition_overrides: vec![("sales".into(), "price".into())],
            allow_unsafe_attributes: true,
            fragments: 4,
            ..ImpConfig::default()
        },
    );
    imp.execute(QTOP).unwrap();
    let ImpResponse::Affected { maintenance, .. } = imp
        .execute("INSERT INTO sales VALUES (8, 'HP', 1299, 1)")
        .unwrap()
    else {
        panic!()
    };
    assert_eq!(maintenance.len(), 1);
    // Query now finds a fresh sketch.
    let ImpResponse::Rows { mode, .. } = imp.execute(QTOP).unwrap() else {
        panic!()
    };
    assert!(matches!(mode, QueryMode::UsedFresh));
}

#[test]
fn middleware_reuses_sketch_for_more_selective_constant() {
    // A sketch for HAVING > 5000 may answer HAVING > 6000 (subsumption).
    let mut imp = Imp::new(
        sales_db(),
        ImpConfig {
            partition_overrides: vec![("sales".into(), "price".into())],
            allow_unsafe_attributes: true,
            fragments: 4,
            ..ImpConfig::default()
        },
    );
    imp.execute(QTOP).unwrap();
    let q6000 = QTOP.replace("5000", "6000");
    let ImpResponse::Rows { result, mode } = imp.execute(&q6000).unwrap() else {
        panic!()
    };
    assert!(matches!(mode, QueryMode::UsedFresh), "{mode:?}");
    assert!(result.rows.is_empty()); // Apple's 5074 < 6000
                                     // A *less* selective constant must NOT reuse (captures a new sketch
                                     // under the same template — replacing the old entry).
    let q4000 = QTOP.replace("5000", "4000");
    let ImpResponse::Rows { mode, .. } = imp.execute(&q4000).unwrap() else {
        panic!()
    };
    assert!(matches!(mode, QueryMode::Captured), "{mode:?}");
}

#[test]
fn state_persistence_roundtrip() {
    // Save state, restore into a fresh maintainer, continue maintaining:
    // result must equal uninterrupted maintenance.
    let mut db = sales_db();
    let plan = db.plan_sql(QTOP).unwrap();
    let pset = price_pset();
    let (mut live, _) =
        SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), OpConfig::default(), true)
            .unwrap();
    let saved = imp_core::state_codec::save_state(&live);

    db.execute_sql("INSERT INTO sales VALUES (8, 'HP', 1299, 1)")
        .unwrap();
    live.maintain(&db).unwrap();

    // Restore: fresh maintainer from the same plan (bootstrap runs on the
    // *updated* db, but load_state overwrites everything).
    let (mut restored, _) =
        SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), OpConfig::default(), true)
            .unwrap();
    imp_core::state_codec::load_state(&mut restored, saved).unwrap();
    assert!(restored.is_stale(&db));
    restored.maintain(&db).unwrap();
    assert_eq!(restored.sketch(), live.sketch());
}

#[test]
fn unsupported_plan_shapes_rejected() {
    // Aggregation below a join is outside the supported fragment.
    let mut db = sales_db();
    db.create_table("t2", Schema::new(vec![Field::new("brand", DataType::Str)]))
        .unwrap();
    let plan = db
        .plan_sql(
            "SELECT x.brand, cnt FROM \
             (SELECT brand, count(sid) AS cnt FROM sales GROUP BY brand) x \
             JOIN t2 ON (x.brand = t2.brand)",
        )
        .unwrap();
    let err = SketchMaintainer::capture(&plan, &db, price_pset(), OpConfig::default(), true);
    assert!(err.is_err());
}

#[test]
fn topk_incremental_maintenance() {
    let mut db = sales_db();
    let sql = "SELECT brand, price FROM sales ORDER BY price DESC LIMIT 2";
    let plan = db.plan_sql(sql).unwrap();
    let pset = price_pset();
    let (mut m, _) =
        SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), OpConfig::default(), true)
            .unwrap();
    // Top-2 = 3875 (ρ4), 1345 (ρ3).
    assert_eq!(m.sketch().fragments_of_partition(0), vec![2, 3]);
    // Insert a new maximum in ρ4, delete old #2.
    db.execute_sql("INSERT INTO sales VALUES (9, 'Asus', 9000, 1)")
        .unwrap();
    db.execute_sql("DELETE FROM sales WHERE sid = 5").unwrap();
    m.maintain(&db).unwrap();
    let batch = capture(&plan, &db, &pset).unwrap();
    assert_eq!(m.sketch(), &batch.sketch);
    // Top-2 now 9000 (ρ4) and 3875 (ρ4) → sketch = {ρ4} only.
    assert_eq!(m.sketch().fragments_of_partition(0), vec![3]);
}

#[test]
fn topk_incremental_diff_regression() {
    // The cached-old/merge-diff top-k path (incremental `compute_topk`
    // diff): batches entirely beyond the boundary of a full top-k emit an
    // empty sketch delta, batches crossing it emit the exact delta, and
    // the cache survives eviction/restore (it is rebuilt, not persisted).
    let mut db = sales_db();
    let sql = "SELECT brand, price FROM sales ORDER BY price DESC LIMIT 2";
    let plan = db.plan_sql(sql).unwrap();
    let pset = price_pset();
    let (mut m, _) =
        SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), OpConfig::default(), true)
            .unwrap();
    // Top-2 = 3875 (ρ4), 1345 (ρ3).
    assert_eq!(m.sketch().fragments_of_partition(0), vec![2, 3]);

    // (1) Inserts strictly beyond the boundary (price < 1345, DESC order)
    // cannot enter the top-2: the clean-batch fast path emits no delta.
    db.execute_sql("INSERT INTO sales VALUES (20, 'Acer', 500, 1)")
        .unwrap();
    db.execute_sql("INSERT INTO sales VALUES (21, 'Acer', 700, 1)")
        .unwrap();
    let report = m.maintain(&db).unwrap();
    assert!(report.sketch_delta.added.is_empty() && report.sketch_delta.removed.is_empty());
    assert_eq!(m.sketch(), &capture(&plan, &db, &pset).unwrap().sketch);

    // (2) Deleting beyond the boundary is also clean.
    db.execute_sql("DELETE FROM sales WHERE sid = 20").unwrap();
    let report = m.maintain(&db).unwrap();
    assert!(report.sketch_delta.added.is_empty() && report.sketch_delta.removed.is_empty());

    // (3) A new maximum crosses the boundary: the merge-diff emits the
    // change and the sketch tracks a fresh recapture. 1600 lands in ρ4;
    // old #2 (1345, ρ3) falls out → ρ3 removed.
    db.execute_sql("INSERT INTO sales VALUES (22, 'Asus', 1600, 1)")
        .unwrap();
    let report = m.maintain(&db).unwrap();
    assert_eq!(report.sketch_delta.removed, vec![2]);
    assert_eq!(m.sketch(), &capture(&plan, &db, &pset).unwrap().sketch);

    // (4) Evict + restore drops the cache; the next batch rebuilds the
    // old top-k from the restored state and stays exact.
    let saved = imp_core::state_codec::save_state(&m);
    m.drop_state();
    imp_core::state_codec::load_state(&mut m, saved).unwrap();
    db.execute_sql("DELETE FROM sales WHERE sid = 22").unwrap();
    db.execute_sql("INSERT INTO sales VALUES (23, 'Dell', 2000, 1)")
        .unwrap();
    m.maintain(&db).unwrap();
    assert_eq!(m.sketch(), &capture(&plan, &db, &pset).unwrap().sketch);
}

#[test]
fn min_max_aggregates_maintained() {
    let mut db = sales_db();
    let sql = "SELECT brand, min(price) AS mn, max(price) AS mx FROM sales \
               GROUP BY brand HAVING min(price) < 1000";
    let plan = db.plan_sql(sql).unwrap();
    let pset = price_pset();
    let (mut m, _) =
        SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), OpConfig::default(), true)
            .unwrap();
    db.execute_sql("DELETE FROM sales WHERE sid = 1").unwrap();
    db.execute_sql("INSERT INTO sales VALUES (10, 'Apple', 450, 3)")
        .unwrap();
    m.maintain(&db).unwrap();
    let batch = capture(&plan, &db, &pset).unwrap();
    assert_eq!(m.sketch(), &batch.sketch);
}

#[test]
fn bounded_minmax_triggers_recapture() {
    let mut db = Database::new();
    db.create_table(
        "t",
        Schema::new(vec![
            Field::new("g", DataType::Int),
            Field::new("v", DataType::Int),
        ]),
    )
    .unwrap();
    db.table_mut("t")
        .unwrap()
        .bulk_load((0..20).map(|i| row![i % 2, i]))
        .unwrap();
    let plan = db
        .plan_sql("SELECT g, min(v) AS mv FROM t GROUP BY g HAVING min(v) < 100")
        .unwrap();
    let pset = Arc::new(
        PartitionSet::new(vec![
            RangePartition::new("t", "g", 0, vec![Value::Int(1)]).unwrap()
        ])
        .unwrap(),
    );
    let config = OpConfig {
        minmax_buffer: Some(3),
        ..OpConfig::default()
    };
    let (mut m, _) =
        SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), config, true).unwrap();
    // Delete the 4 smallest even values: exhausts the 3-value buffer of
    // group 0 → recapture.
    db.execute_sql("DELETE FROM t WHERE g = 0 AND v < 8")
        .unwrap();
    let report = m.maintain(&db).unwrap();
    assert!(report.recaptured);
    let batch = capture(&plan, &db, &pset).unwrap();
    assert_eq!(m.sketch(), &batch.sketch);
    // And the maintainer keeps working afterwards.
    db.execute_sql("DELETE FROM t WHERE v = 8").unwrap();
    m.maintain(&db).unwrap();
    let batch = capture(&plan, &db, &pset).unwrap();
    assert_eq!(m.sketch(), &batch.sketch);
}

#[test]
fn default_minmax_buffer_is_bounded_with_recapture_fallback() {
    // Satellite of paper §7.2: MIN/MAX state is bounded *by default*;
    // when deletions exhaust a buffer, the maintainer falls back to a
    // full recapture and stays exact.
    let default_buffer = OpConfig::default().minmax_buffer;
    assert_eq!(default_buffer, Some(imp_core::ops::DEFAULT_MINMAX_BUFFER));
    assert_eq!(
        ImpConfig::default().minmax_buffer,
        default_buffer,
        "middleware default must match the operator default"
    );

    let mut db = Database::new();
    db.create_table(
        "t",
        Schema::new(vec![
            Field::new("g", DataType::Int),
            Field::new("v", DataType::Int),
        ]),
    )
    .unwrap();
    // One group with more distinct values than the default buffer holds.
    let n = imp_core::ops::DEFAULT_MINMAX_BUFFER as i64 + 10;
    db.table_mut("t")
        .unwrap()
        .bulk_load((0..n).map(|i| row![0, i]))
        .unwrap();
    let plan = db
        .plan_sql("SELECT g, min(v) AS mv FROM t GROUP BY g HAVING min(v) < 1000000")
        .unwrap();
    let pset = Arc::new(
        PartitionSet::new(vec![
            RangePartition::new("t", "g", 0, vec![Value::Int(1)]).unwrap()
        ])
        .unwrap(),
    );
    let (mut m, _) =
        SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), OpConfig::default(), true)
            .unwrap();
    // Deleting every buffered (smallest) value exhausts the bounded state:
    // the evicted tail is unknown, so a recapture must be reported.
    db.execute_sql(&format!(
        "DELETE FROM t WHERE v < {}",
        imp_core::ops::DEFAULT_MINMAX_BUFFER
    ))
    .unwrap();
    let report = m.maintain(&db).unwrap();
    assert!(report.recaptured, "exhausted default buffer must recapture");
    let batch = capture(&plan, &db, &pset).unwrap();
    assert_eq!(m.sketch(), &batch.sketch);
    // The maintainer keeps working incrementally afterwards.
    db.execute_sql("INSERT INTO t VALUES (0, 7)").unwrap();
    let report = m.maintain(&db).unwrap();
    assert!(!report.recaptured);
    let batch = capture(&plan, &db, &pset).unwrap();
    assert_eq!(m.sketch(), &batch.sketch);
}

#[test]
fn background_maintainer_tick_driven_convergence() {
    // The eager/background strategy thread: inject updates, let ticks
    // fire, and assert the stored sketch converges to the recaptured
    // ground truth without any foreground query triggering maintenance.
    use imp_core::strategy::BackgroundMaintainer;
    use parking_lot::Mutex;
    use std::time::{Duration, Instant};

    let mut imp = Imp::new(
        sales_db(),
        ImpConfig {
            partition_overrides: vec![("sales".into(), "price".into())],
            allow_unsafe_attributes: true,
            fragments: 4,
            ..ImpConfig::default()
        },
    );
    imp.execute(QTOP).unwrap(); // capture
    let imp = Arc::new(Mutex::new(imp));
    let bg = BackgroundMaintainer::spawn(Arc::clone(&imp), Duration::from_millis(2));

    // Inject updates through the middleware (lazy strategy: nothing is
    // maintained in the foreground).
    {
        let mut guard = imp.lock();
        guard
            .execute("INSERT INTO sales VALUES (8, 'HP', 1299, 1)")
            .unwrap();
        guard
            .execute("INSERT INTO sales VALUES (9, 'Asus', 250, 2)")
            .unwrap();
    }

    // Let ticks advance until the sketch is fresh again (bounded wait;
    // each poll yields the lock so the worker can take it).
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        {
            let guard = imp.lock();
            let all_fresh = guard.describe_sketches().iter().all(|s| !s.stale);
            if all_fresh {
                break;
            }
        }
        assert!(
            Instant::now() < deadline,
            "background maintainer never converged"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    bg.stop();

    // Ground truth: a from-scratch capture on the current database.
    let guard = imp.lock();
    let imp_sql::Statement::Select(sel) = imp_sql::parse_one(QTOP).unwrap() else {
        panic!()
    };
    let template = imp_sql::QueryTemplate::of(&sel);
    guard
        .with_sketch(&template, |entry| {
            assert!(!entry.maintainer.is_stale(&guard.db()));
            let truth = capture(
                entry.maintainer.plan(),
                &guard.db(),
                entry.maintainer.partitions(),
            )
            .unwrap();
            assert_eq!(entry.maintainer.sketch(), &truth.sketch);
            // HP joined the result via the tick-driven maintenance: ρ2 + ρ3
            // marked.
            assert_eq!(
                entry.maintainer.sketch().fragments_of_partition(0),
                vec![1, 2, 3]
            );
        })
        .expect("sketch stored");
}

#[test]
fn pool_owns_state_held_annotations_across_a_flush() {
    // Fig. 13e/f / 17 memory columns: annotation contents held by
    // top-k / join-index `Arc<BitVec>` handles are counted exactly once —
    // by the pool, always. State counts only its handles; a between-runs
    // pool flush sheds what no state refers to and re-adopts the rest, so
    // nothing is double counted before it and nothing vanishes after it.
    // (The in-crate `heap_oracle` suite checks handle-by-handle ownership
    // at every step; this is the same invariant through the public API.)
    let mut db = sales_db();
    db.create_table(
        "brands",
        Schema::new(vec![Field::new("bname", DataType::Str)]),
    )
    .unwrap();
    db.table_mut("brands")
        .unwrap()
        .bulk_load([row!["Apple"], row!["HP"], row!["Dell"]])
        .unwrap();
    let queries = [
        "SELECT brand, price FROM sales ORDER BY price DESC LIMIT 3",
        "SELECT price, bname FROM sales JOIN brands ON (brand = bname)",
    ];
    for sql in queries {
        let plan = db.plan_sql(sql).unwrap();
        let pset = price_pset();
        let (mut m, _) =
            SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), OpConfig::default(), true)
                .unwrap();
        // Run one real maintenance whose deltas probe both join sides, so
        // both side indexes exist (a side is indexed when first probed).
        db.execute_sql("INSERT INTO sales VALUES (30, 'HP', 1250, 1)")
            .unwrap();
        db.execute_sql("INSERT INTO brands VALUES ('Lenovo')")
            .unwrap();
        m.maintain(&db).unwrap();
        let (topk_entries, _) = m.topk_state().unwrap_or((0, 0));
        let (idx_entries, _) = m.join_index_state();
        assert!(
            topk_entries > 0 || idx_entries > 0,
            "state must hold annotation handles for {sql}"
        );

        // The flush moves the pool's term only: the state's own bytes
        // (handles, rows, keys) are untouched, so the total drops by
        // exactly what the pool shed.
        let (total_before, pool_before) = (m.state_heap_size(), m.pool().heap_size());
        m.flush_pool_caches();
        let (total_after, pool_after) = (m.state_heap_size(), m.pool().heap_size());
        assert!(pool_after <= pool_before);
        assert_eq!(
            total_before - total_after,
            pool_before - pool_after,
            "a flush may only shed pool bytes for {sql}"
        );
        // What it kept is exactly the state-held annotations (plus the
        // empty one), each distinct allocation once: an eviction round
        // trip, which re-interns precisely the contents the state
        // carries, lands on the same pool population and the same bytes.
        let pooled_after_flush = m.pool().len();
        assert!(
            pooled_after_flush > 1,
            "state-held contents vanished for {sql}"
        );
        let saved = imp_core::state_codec::save_state(&m);
        m.drop_state();
        imp_core::state_codec::load_state(&mut m, saved).unwrap();
        assert_eq!(m.pool().len(), pooled_after_flush, "miscount for {sql}");

        // And maintenance stays exact across the whole exercise.
        db.execute_sql("DELETE FROM sales WHERE sid = 30").unwrap();
        db.execute_sql("DELETE FROM brands WHERE bname = 'Lenovo'")
            .unwrap();
        m.maintain(&db).unwrap();
        assert_eq!(m.sketch(), &capture(&plan, &db, &pset).unwrap().sketch);
    }
}

#[test]
fn eviction_clears_pool_and_roundtrips() {
    // drop_state flushes the annotation pool / row interner; load_state
    // re-interns what the persisted state needs, and maintenance over the
    // rebuilt pool must match uninterrupted maintenance.
    let mut db = sales_db();
    let sql = "SELECT brand, price FROM sales ORDER BY price DESC LIMIT 3";
    let plan = db.plan_sql(sql).unwrap();
    let pset = price_pset();
    let (mut live, _) =
        SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), OpConfig::default(), true)
            .unwrap();
    let (mut evicted, _) =
        SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), OpConfig::default(), true)
            .unwrap();
    let saved = imp_core::state_codec::save_state(&evicted);
    evicted.drop_state();

    db.execute_sql("INSERT INTO sales VALUES (8, 'HP', 1299, 1)")
        .unwrap();
    db.execute_sql("DELETE FROM sales WHERE sid = 4").unwrap();

    imp_core::state_codec::load_state(&mut evicted, saved).unwrap();
    live.maintain(&db).unwrap();
    evicted.maintain(&db).unwrap();
    assert_eq!(live.sketch(), evicted.sketch());
    let truth = capture(&plan, &db, &pset).unwrap();
    assert_eq!(evicted.sketch(), &truth.sketch);
}

/// Two tables joined on their first column, two keys each, partitioned
/// with key 2 in its own fragment (global frags: r → {0, 1}, s → {2, 3}).
fn two_key_join_db() -> (Database, Arc<PartitionSet>) {
    let mut db = Database::new();
    db.create_table(
        "r",
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ]),
    )
    .unwrap();
    db.create_table(
        "s",
        Schema::new(vec![
            Field::new("k2", DataType::Int),
            Field::new("w", DataType::Int),
        ]),
    )
    .unwrap();
    db.table_mut("r")
        .unwrap()
        .bulk_load([row![1, 10], row![2, 20]])
        .unwrap();
    db.table_mut("s")
        .unwrap()
        .bulk_load([row![1, 100], row![2, 200]])
        .unwrap();
    let pset = Arc::new(
        PartitionSet::new(vec![
            RangePartition::new("r", "k", 0, vec![Value::Int(2)]).unwrap(),
            RangePartition::new("s", "k2", 0, vec![Value::Int(2)]).unwrap(),
        ])
        .unwrap(),
    );
    (db, pset)
}

#[test]
fn evicted_join_keeps_delete_delete_cancellation_without_indexes() {
    // Regression: r and s each hold the only partner of key 2. After a
    // state eviction, deleting both partners in one batch makes the
    // del×del term carry the removal itself: with no side indexes, both
    // inputs are evaluated at the new state (where key 2 is gone), so
    // the term is only found if the right input is rewound to its old
    // state with its own delta. Losing it leaves the sketch with
    // fragments a recapture would drop.
    let (mut db, pset) = two_key_join_db();
    let plan = db
        .plan_sql("SELECT v, w FROM r JOIN s ON (k = k2)")
        .unwrap();
    // Index off: every `Q ⋈ Δ` term is an outsourced evaluation.
    let cfg = OpConfig {
        join_index_budget: None,
        ..OpConfig::default()
    };
    let (mut m, _) = SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), cfg, true).unwrap();
    assert_eq!(
        m.sketch().bits().iter_ones().collect::<Vec<_>>(),
        vec![0, 1, 2, 3]
    );
    let saved = imp_core::state_codec::save_state(&m);
    m.drop_state();

    db.execute_sql("DELETE FROM r WHERE k = 2").unwrap();
    db.execute_sql("DELETE FROM s WHERE k2 = 2").unwrap();

    imp_core::state_codec::load_state(&mut m, saved).unwrap();
    m.maintain(&db).unwrap();
    let truth = capture(&plan, &db, &pset).unwrap();
    assert_eq!(m.sketch(), &truth.sketch, "lost the del×del cancellation");
    assert_eq!(
        m.sketch().bits().iter_ones().collect::<Vec<_>>(),
        vec![0, 2]
    );
}

#[test]
fn join_index_eliminates_steady_state_roundtrips() {
    // With the side indexes on (default), each side costs exactly one
    // backend evaluation, in the first batch whose partner delta probes
    // it; every other batch is answered in memory — zero round trips,
    // probes and avoided trips counted instead.
    let (mut db, pset) = two_key_join_db();
    let plan = db
        .plan_sql("SELECT v, w FROM r JOIN s ON (k = k2)")
        .unwrap();
    let (mut m, _) =
        SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), OpConfig::default(), true)
            .unwrap();
    let mut avoided = 0u64;
    for i in 0..5 {
        db.execute_sql(&format!("INSERT INTO r VALUES ({}, {})", 1 + i % 2, 30 + i))
            .unwrap();
        if i == 1 {
            db.execute_sql("INSERT INTO s VALUES (1, 101)").unwrap();
        } else if i == 3 {
            db.execute_sql("DELETE FROM s WHERE w = 101").unwrap();
        }
        let report = m.maintain(&db).unwrap();
        // Batch 0: Δr probes s (built). Batch 1: Δs probes r (built).
        let expected = u64::from(i < 2);
        assert_eq!(
            (
                report.metrics.db_roundtrips,
                report.metrics.join_index_builds
            ),
            (expected, expected),
            "one evaluation per side, when first probed (batch {i})"
        );
        assert_eq!(report.metrics.rows_sent_to_db, 0);
        assert!(report.metrics.join_index_probes > 0);
        avoided += report.metrics.db_roundtrips_avoided;
        let truth = capture(&plan, &db, &pset).unwrap();
        assert_eq!(m.sketch(), &truth.sketch, "diverged at batch {i}");
    }
    assert!(avoided > 0, "index must report the avoided round trips");
    let (entries, bytes) = m.join_index_state();
    assert!(entries > 0 && bytes > 0, "index state must be accounted");
    assert!(m.state_heap_size() >= bytes);
}

#[test]
fn a_join_side_whose_partner_never_changes_is_never_indexed() {
    // From the empty state a join joins its two deltas in memory: capture
    // (and any recapture) evaluates and indexes no side. Afterwards a side
    // is indexed only once the *other* side's delta probes it, so under a
    // stream that only ever changes r, s is evaluated once and r never.
    let (mut db, pset) = two_key_join_db();
    let plan = db
        .plan_sql("SELECT v, w FROM r JOIN s ON (k = k2)")
        .unwrap();
    let (mut m, _) =
        SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), OpConfig::default(), true)
            .unwrap();
    assert_eq!(m.join_index_state(), (0, 0), "capture indexes no side");
    let report = m.full_maintain(&db).unwrap();
    assert_eq!(report.metrics.db_roundtrips, 0, "capture evaluates no side");
    assert_eq!(report.metrics.join_index_builds, 0);
    assert_eq!(m.join_index_state(), (0, 0));

    for i in 0..6i64 {
        if i % 3 == 2 {
            db.execute_sql(&format!("DELETE FROM r WHERE v = {}", 40 + i - 1))
                .unwrap();
        } else {
            db.execute_sql(&format!("INSERT INTO r VALUES ({}, {})", 1 + i % 3, 40 + i))
                .unwrap();
        }
        let report = m.maintain(&db).unwrap();
        assert_eq!(
            report.metrics.db_roundtrips,
            u64::from(i == 0),
            "s is evaluated once, when Δr first probes it (batch {i})"
        );
        // Only s — two rows — is indexed; r (≥ 2 rows) never is.
        assert_eq!(m.join_index_state().0, 2, "batch {i}");
        let truth = capture(&plan, &db, &pset).unwrap();
        assert_eq!(m.sketch(), &truth.sketch, "diverged at batch {i}");
    }
}

#[test]
fn capture_builds_no_join_state_and_a_first_batch_only_what_it_probes() {
    // From the empty state the engine evaluates every join, whatever its
    // arity, in one pass: capture and full maintenance make no round trip
    // and index no input. The first batch then indexes
    // exactly the inputs its delta probes — for a delta on one input of
    // an n-input chain, the other n − 1, one round trip each.
    let (db, pset) = two_key_join_db();
    let plan = db
        .plan_sql("SELECT v, w FROM r JOIN s ON (k = k2)")
        .unwrap();
    let (mut m, _) =
        SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), OpConfig::default(), true)
            .unwrap();
    assert_eq!(
        m.join_index_state(),
        (0, 0),
        "2-table capture indexes nothing"
    );
    let report = m.full_maintain(&db).unwrap();
    assert_eq!(
        report.metrics.db_roundtrips, 0,
        "2-table bootstrap evaluates nothing"
    );
    assert_eq!(m.join_index_state(), (0, 0));

    let mut db = Database::new();
    let tables = [
        ("c0", "k0", "v0"),
        ("c1", "a1", "b1"),
        ("c2", "a2", "b2"),
        ("c3", "k3", "v3"),
    ];
    for (table, c1, c2) in tables {
        let schema = Schema::new(vec![
            Field::new(c1, DataType::Int),
            Field::new(c2, DataType::Int),
        ]);
        db.create_table(table, schema).unwrap();
        db.table_mut(table)
            .unwrap()
            .bulk_load((0..6i64).map(|k| row![k, k]))
            .unwrap();
    }
    let plan = db
        .plan_sql(
            "SELECT v0, v3 FROM c0 JOIN c1 ON (k0 = a1) JOIN c2 ON (b1 = a2) \
             JOIN c3 ON (b2 = k3)",
        )
        .unwrap();
    let pset = Arc::new(
        PartitionSet::new(vec![RangePartition::new(
            "c0",
            "k0",
            0,
            vec![Value::Int(3)],
        )
        .unwrap()])
        .unwrap(),
    );
    let (mut m, _) =
        SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), OpConfig::default(), true)
            .unwrap();
    assert_eq!(m.nary_arity(), Some(4));
    assert_eq!(
        m.join_index_state(),
        (0, 0),
        "chain capture indexes nothing"
    );
    let report = m.full_maintain(&db).unwrap();
    assert_eq!(
        report.metrics.db_roundtrips, 0,
        "chain bootstrap evaluates nothing"
    );
    assert_eq!(m.join_index_state(), (0, 0));

    db.execute_sql("INSERT INTO c0 VALUES (2, 20)").unwrap();
    let report = m.maintain(&db).unwrap();
    assert_eq!(
        (
            report.metrics.db_roundtrips,
            report.metrics.join_index_builds
        ),
        (3, 3),
        "a delta on c0 builds exactly the three indexes it probes"
    );
    assert_eq!(m.join_index_state().0, 18, "c1, c2 and c3 indexed; c0 not");
    assert_eq!(m.sketch(), &capture(&plan, &db, &pset).unwrap().sketch);
}

#[test]
fn join_index_budget_falls_back_to_reevaluation() {
    // A side over budget is dropped: maintenance stays correct but pays
    // the per-batch outsourced evaluation again.
    let (mut db, pset) = two_key_join_db();
    let plan = db
        .plan_sql("SELECT v, w FROM r JOIN s ON (k = k2)")
        .unwrap();
    let cfg = OpConfig {
        join_index_budget: Some(1), // both sides hold 2 entries
        ..OpConfig::default()
    };
    let (mut m, _) = SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), cfg, true).unwrap();
    assert_eq!(m.join_index_state(), (0, 0), "over-budget sides not kept");
    for i in 0..3 {
        db.execute_sql(&format!("INSERT INTO r VALUES (2, {})", 40 + i))
            .unwrap();
        let report = m.maintain(&db).unwrap();
        assert!(
            report.metrics.db_roundtrips > 0,
            "fallback must outsource per batch (batch {i})"
        );
        assert_eq!(report.metrics.join_index_probes, 0);
        let truth = capture(&plan, &db, &pset).unwrap();
        assert_eq!(m.sketch(), &truth.sketch, "diverged at batch {i}");
    }
}

#[test]
fn join_index_persistence_roundtrip_avoids_rebuild() {
    // Eviction + restore must re-intern the indexed annotations and keep
    // the zero-round-trip steady state: once a batch has probed (and so
    // built) both sides, the restored indexes answer the next batch.
    let (mut db, pset) = two_key_join_db();
    let plan = db
        .plan_sql("SELECT v, w FROM r JOIN s ON (k = k2)")
        .unwrap();
    let (mut live, _) =
        SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), OpConfig::default(), true)
            .unwrap();
    db.execute_sql("INSERT INTO r VALUES (1, 11)").unwrap();
    db.execute_sql("INSERT INTO s VALUES (2, 201)").unwrap();
    let report = live.maintain(&db).unwrap();
    assert_eq!(report.metrics.db_roundtrips, 2, "each side built once");
    let saved = imp_core::state_codec::save_state(&live);
    live.drop_state();

    db.execute_sql("INSERT INTO r VALUES (2, 21)").unwrap();
    db.execute_sql("DELETE FROM s WHERE k2 = 1").unwrap();

    imp_core::state_codec::load_state(&mut live, saved).unwrap();
    let report = live.maintain(&db).unwrap();
    assert_eq!(
        report.metrics.db_roundtrips, 0,
        "restored index must avoid the rebuild round trip"
    );
    assert!(report.metrics.db_roundtrips_avoided > 0);
    let truth = capture(&plan, &db, &pset).unwrap();
    assert_eq!(live.sketch(), &truth.sketch);

    // Uninterrupted maintenance agrees.
    let (entries, _) = live.join_index_state();
    assert!(entries > 0);
}

#[test]
fn recapture_reports_bootstrap_work() {
    // The recapture fallback and the FM baseline both run the bootstrap
    // pipeline; its cost counters must reach the returned report instead
    // of being dropped (Fig. 13/14 recapture costs).
    let mut db = sales_db();
    let plan = db.plan_sql(QTOP).unwrap();
    let pset = price_pset();
    let (mut m, _) =
        SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), OpConfig::default(), true)
            .unwrap();
    db.execute_sql("INSERT INTO sales VALUES (8, 'HP', 1299, 1)")
        .unwrap();
    let report = m.full_maintain(&db).unwrap();
    assert!(report.recaptured);
    assert!(
        report.metrics.rows_processed > 0,
        "full maintenance must report the bootstrap's work"
    );

    // Bounded MIN/MAX recapture path: same requirement.
    let mut db = Database::new();
    db.create_table(
        "t",
        Schema::new(vec![
            Field::new("g", DataType::Int),
            Field::new("v", DataType::Int),
        ]),
    )
    .unwrap();
    db.table_mut("t")
        .unwrap()
        .bulk_load((0..20).map(|i| row![i % 2, i]))
        .unwrap();
    let plan = db
        .plan_sql("SELECT g, min(v) AS mv FROM t GROUP BY g HAVING min(v) < 100")
        .unwrap();
    let pset = Arc::new(
        PartitionSet::new(vec![
            RangePartition::new("t", "g", 0, vec![Value::Int(1)]).unwrap()
        ])
        .unwrap(),
    );
    let cfg = OpConfig {
        minmax_buffer: Some(3),
        ..OpConfig::default()
    };
    let (mut m, _) = SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), cfg, true).unwrap();
    let before_rows = {
        // Work done by the *delta* alone is small; the recapture must add
        // the bootstrap's full-table pass on top.
        db.execute_sql("DELETE FROM t WHERE g = 0 AND v < 8")
            .unwrap();
        let report = m.maintain(&db).unwrap();
        assert!(report.recaptured);
        report.metrics.rows_processed
    };
    assert!(
        before_rows >= 12,
        "recapture report must include bootstrap work, got {before_rows} rows"
    );
}

#[test]
fn pool_memoizes_unions_across_runs() {
    // Join maintenance over repeating fragment combinations must be
    // answered by the pool's union memo table, and the pooled delta heap
    // accounting can never exceed the flat baseline.
    let mut db = Database::new();
    for t in ["r", "s"] {
        db.create_table(
            t,
            Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Int),
            ]),
        )
        .unwrap();
    }
    db.table_mut("r")
        .unwrap()
        .bulk_load((0..40).map(|i| row![i % 4, i]))
        .unwrap();
    db.table_mut("s")
        .unwrap()
        .bulk_load((0..8).map(|i| row![i % 4, i * 10]))
        .unwrap();
    let plan = db
        .plan_sql("SELECT r.v, s.v FROM r JOIN s ON (r.k = s.k)")
        .unwrap();
    let pset = Arc::new(
        PartitionSet::new(vec![
            RangePartition::new("r", "k", 0, vec![Value::Int(2)]).unwrap(),
            RangePartition::new("s", "k", 0, vec![Value::Int(2)]).unwrap(),
        ])
        .unwrap(),
    );
    let (mut m, _) =
        SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), OpConfig::default(), true)
            .unwrap();
    let mut memo_hits = 0u64;
    for i in 0..5 {
        db.execute_sql(&format!("INSERT INTO r VALUES ({}, {})", i % 4, 100 + i))
            .unwrap();
        let report = m.maintain(&db).unwrap();
        assert!(report.metrics.delta_bytes_pooled <= report.metrics.delta_bytes_flat);
        memo_hits += report.metrics.pool_union_memo_hits;
    }
    assert!(
        memo_hits > 0,
        "repeated fragment combinations must hit the union memo"
    );
    let truth = capture(&plan, &db, &pset).unwrap();
    assert_eq!(m.sketch(), &truth.sketch);
}

#[test]
fn randomized_updates_match_recapture() {
    // Mini stress: random inserts/deletes; after every maintenance the
    // sketch must equal (here: exactly, since counters are exact) a fresh
    // batch capture, and the rewritten query must produce the full result.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(42);
    let mut db = Database::new();
    db.create_table(
        "t",
        Schema::new(vec![
            Field::new("g", DataType::Int),
            Field::new("v", DataType::Int),
        ]),
    )
    .unwrap();
    db.table_mut("t")
        .unwrap()
        .bulk_load((0..200).map(|i| row![i % 10, (i * 37) % 100]))
        .unwrap();
    let sql = "SELECT g, sum(v) AS sv FROM t GROUP BY g HAVING sum(v) > 900";
    let plan = db.plan_sql(sql).unwrap();
    let pset = Arc::new(
        PartitionSet::new(vec![RangePartition::equi_depth(&db, "t", "g", 5).unwrap()]).unwrap(),
    );
    let (mut m, _) =
        SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), OpConfig::default(), true)
            .unwrap();
    let mut next_id = 1000;
    for step in 0..30 {
        // Random batch of 1-5 updates.
        for _ in 0..rng.gen_range(1..=5) {
            if rng.gen_bool(0.6) {
                let g = rng.gen_range(0..10);
                let v = rng.gen_range(0..100);
                db.execute_sql(&format!("INSERT INTO t VALUES ({g}, {v})"))
                    .unwrap();
                next_id += 1;
            } else {
                let v = rng.gen_range(0..100);
                db.execute_sql(&format!("DELETE FROM t WHERE v = {v}"))
                    .unwrap();
            }
        }
        m.maintain(&db).unwrap();
        let batch = capture(&plan, &db, &pset).unwrap();
        assert_eq!(m.sketch(), &batch.sketch, "diverged at step {step}");
        // Safety: rewritten query over the sketch == full query.
        let rewritten = imp_sketch::apply_sketch_filter(&plan, m.sketch()).unwrap();
        assert_eq!(
            db.execute_plan(&rewritten).unwrap().canonical(),
            db.execute_plan(&plan).unwrap().canonical(),
            "safety violated at step {step}"
        );
    }
    let _ = next_id;
}

#[test]
fn a_filter_over_one_scan_of_a_self_join_filters_only_that_scan() {
    // r(a, b) = (k, k % 10). The subquery's scan of r keeps a < 30, the
    // other scan every row. Both read r's one delta, so selection
    // push-down (on by default) must not filter it for either.
    const SQL: &str =
        "SELECT a2, a FROM (SELECT a AS a2, b AS b2 FROM r WHERE a < 30) x JOIN r ON (b2 = b)";
    let mut db = Database::new();
    let schema = Schema::new(vec![
        Field::new("a", DataType::Int),
        Field::new("b", DataType::Int),
    ]);
    db.create_table("r", schema).unwrap();
    let rows = (0..100).map(|k| row![k, k % 10]);
    db.table_mut("r").unwrap().bulk_load(rows).unwrap();
    let config = ImpConfig {
        fragments: 4,
        ..ImpConfig::default()
    };
    assert!(config.selection_pushdown);
    let mut imp = Imp::new(db, config);
    let imp_sql::Statement::Select(sel) = imp_sql::parse_one(SQL).unwrap() else {
        panic!()
    };
    let template = imp_sql::QueryTemplate::of(&sel);
    // Imp's answer is the engine's, and its sketch a fresh capture's.
    let check = |imp: &mut Imp| {
        let ImpResponse::Rows { result, mode } = imp.execute(SQL).unwrap() else {
            panic!("rows expected")
        };
        let engine = imp.db().query(SQL).unwrap();
        assert_eq!(result.canonical(), engine.canonical(), "{mode:?}");
        imp.with_sketch(&template, |entry| {
            let db = imp.db();
            let truth = capture(entry.maintainer.plan(), &db, entry.maintainer.partitions());
            assert_eq!(
                entry.maintainer.sketch(),
                &truth.unwrap().sketch,
                "{mode:?}"
            );
        })
        .expect("sketch stored");
        (engine.rows.len(), mode)
    };
    let (rows, mode) = check(&mut imp);
    assert!(matches!(mode, QueryMode::Captured));
    assert_eq!(rows, 30 * 10);
    imp.execute("INSERT INTO r VALUES (5, 7)").unwrap();
    imp.execute("INSERT INTO r VALUES (50, 3)").unwrap();
    let (rows, mode) = check(&mut imp);
    assert!(matches!(mode, QueryMode::Maintained(_)));
    // b = 7: 4 filtered rows × 11 rows; b = 3: 3 × 11; the rest 3 × 10.
    assert_eq!(rows, 4 * 11 + 3 * 11 + 8 * 3 * 10);
}
