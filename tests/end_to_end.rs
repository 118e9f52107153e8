//! Cross-crate integration tests: the full middleware over SQL workloads
//! on every dataset generator.

use imp::data::queries;
use imp::data::synthetic::{load, SyntheticConfig};
use imp::data::workload::{mixed_workload, WorkloadOp};
use imp::engine::Database;
use imp::{Imp, ImpConfig, ImpResponse, MaintenanceStrategy, QueryMode};

fn synthetic_db(rows: usize, groups: i64) -> Database {
    let mut db = Database::new();
    load(
        &mut db,
        &SyntheticConfig {
            rows,
            groups,
            ..Default::default()
        },
    )
    .unwrap();
    db
}

/// Execute a workload through IMP and the raw engine in lockstep; every
/// query must return identical bags.
fn assert_imp_matches_baseline(config: ImpConfig, ops: &[WorkloadOp]) {
    let mut baseline = synthetic_db(5_000, 200);
    let mut imp = Imp::new(synthetic_db(5_000, 200), config);
    for (i, op) in ops.iter().enumerate() {
        match op {
            WorkloadOp::Query(sql) => {
                let expected = baseline.query(sql).unwrap().canonical();
                let ImpResponse::Rows { result, .. } = imp.execute(sql).unwrap() else {
                    panic!("query returned non-rows")
                };
                assert_eq!(result.canonical(), expected, "op {i}: {sql}");
            }
            WorkloadOp::Update { sql, .. } => {
                baseline.execute_sql(sql).unwrap();
                imp.execute(sql).unwrap();
            }
        }
    }
}

#[test]
fn mixed_workload_lazy_matches_baseline() {
    let wl = mixed_workload(1, 1, 60, 20, 200, 5_000, 3);
    assert_imp_matches_baseline(ImpConfig::default(), &wl.ops);
}

#[test]
fn mixed_workload_eager_matches_baseline() {
    let wl = mixed_workload(2, 1, 60, 10, 200, 5_000, 4);
    assert_imp_matches_baseline(
        ImpConfig {
            strategy: MaintenanceStrategy::Eager { batch_size: 15 },
            ..ImpConfig::default()
        },
        &wl.ops,
    );
}

#[test]
fn mixed_workload_without_optimizations_matches_baseline() {
    let wl = mixed_workload(1, 2, 45, 30, 200, 5_000, 5);
    assert_imp_matches_baseline(
        ImpConfig {
            join_index_budget: None,
            selection_pushdown: false,
            ..ImpConfig::default()
        },
        &wl.ops,
    );
}

#[test]
fn tpch_queries_through_middleware() {
    let mut db = Database::new();
    imp::data::tpch::load(&mut db, 0.01, 5).unwrap();
    let expected_single = db.query(queries::TPCH_SINGLE).unwrap().canonical();
    let expected_topk = db.query(queries::TPCH_TOPK).unwrap().canonical();

    let mut imp = Imp::new(db, ImpConfig::default());
    for (sql, expected) in [
        (queries::TPCH_SINGLE, &expected_single),
        (queries::TPCH_TOPK, &expected_topk),
    ] {
        let ImpResponse::Rows { result, mode } = imp.execute(sql).unwrap() else {
            panic!()
        };
        assert!(matches!(mode, QueryMode::Captured), "{sql}");
        assert_eq!(&result.canonical(), expected, "{sql}");
        // Second run uses the sketch and still agrees.
        let ImpResponse::Rows { result, mode } = imp.execute(sql).unwrap() else {
            panic!()
        };
        assert!(matches!(mode, QueryMode::UsedFresh), "{sql}");
        assert_eq!(&result.canonical(), expected, "{sql}");
    }

    // Updates invalidate; maintenance restores correctness.
    imp.execute("INSERT INTO lineitem VALUES (1, 1, 1, 9, 200, 9999.0, 0.0, 0.0, 'R', 19950101)")
        .unwrap();
    let expected = {
        // Recompute the truth on a replica.
        let mut db2 = Database::new();
        imp::data::tpch::load(&mut db2, 0.01, 5).unwrap();
        db2.execute_sql(
            "INSERT INTO lineitem VALUES (1, 1, 1, 9, 200, 9999.0, 0.0, 0.0, 'R', 19950101)",
        )
        .unwrap();
        db2.query(queries::TPCH_SINGLE).unwrap().canonical()
    };
    let ImpResponse::Rows { result, mode } = imp.execute(queries::TPCH_SINGLE).unwrap() else {
        panic!()
    };
    assert!(matches!(mode, QueryMode::Maintained(_)));
    assert_eq!(result.canonical(), expected);
}

#[test]
fn crimes_queries_through_middleware() {
    let mut db = Database::new();
    imp::data::crimes::load(&mut db, 30_000, 9).unwrap();
    let cq1_expected = db.query(queries::CRIMES_CQ1).unwrap().canonical();
    let cq2_expected = db.query(queries::CRIMES_CQ2).unwrap().canonical();

    let mut imp = Imp::new(db, ImpConfig::default());
    let ImpResponse::Rows { result, .. } = imp.execute(queries::CRIMES_CQ1).unwrap() else {
        panic!()
    };
    assert_eq!(result.canonical(), cq1_expected);
    let ImpResponse::Rows { result, .. } = imp.execute(queries::CRIMES_CQ2).unwrap() else {
        panic!()
    };
    assert_eq!(result.canonical(), cq2_expected);

    // Insert a burst and re-check both queries.
    let burst: Vec<String> = (0..500)
        .map(|i| format!("({}, 2024, 7, 0, 1, 1, 'THEFT', false)", 900_000 + i))
        .collect();
    let insert = format!("INSERT INTO crimes VALUES {}", burst.join(", "));
    imp.execute(&insert).unwrap();

    let mut truth = Database::new();
    imp::data::crimes::load(&mut truth, 30_000, 9).unwrap();
    truth.execute_sql(&insert).unwrap();
    let ImpResponse::Rows { result, mode } = imp.execute(queries::CRIMES_CQ1).unwrap() else {
        panic!()
    };
    assert!(matches!(mode, QueryMode::Maintained(_)));
    assert_eq!(
        result.canonical(),
        truth.query(queries::CRIMES_CQ1).unwrap().canonical()
    );
}

#[test]
fn appendix_a_queries_all_execute() {
    // Every Appendix A query shape parses, resolves, and runs.
    let mut db = synthetic_db(2_000, 100);
    imp::data::synthetic::load_join_helper(&mut db, "tjoinhelp", 100, 100, 2, 5).unwrap();
    let mut sqls = vec![
        queries::q_endtoend(100, 200),
        queries::q_groups("edb1", 160),
        queries::q_join("edb1", "tjoinhelp", 1_000_000, 1_000),
        queries::q_joinsel("edb1", "tjoinhelp"),
        queries::q_sketch("edb1", "tjoinhelp"),
        queries::q_selpd("edb1", 500),
        queries::q_topk("edb1", 10),
    ];
    for n in 1..=10 {
        sqls.push(queries::q_having("edb1", n));
    }
    for sql in sqls {
        let res = db.query(&sql);
        assert!(res.is_ok(), "{sql}: {:?}", res.err());
    }
}

#[test]
fn deletes_and_updates_flow_through_middleware() {
    let mut imp = Imp::new(synthetic_db(3_000, 100), ImpConfig::default());
    let q = queries::q_groups("edb1", 160);
    imp.execute(&q).unwrap();
    imp.execute("DELETE FROM edb1 WHERE a < 10").unwrap();
    imp.execute("UPDATE edb1 SET b = b + 5 WHERE a = 50")
        .unwrap();

    let mut truth = synthetic_db(3_000, 100);
    truth.execute_sql("DELETE FROM edb1 WHERE a < 10").unwrap();
    truth
        .execute_sql("UPDATE edb1 SET b = b + 5 WHERE a = 50")
        .unwrap();
    let ImpResponse::Rows { result, .. } = imp.execute(&q).unwrap() else {
        panic!()
    };
    assert_eq!(result.canonical(), truth.query(&q).unwrap().canonical());
}

#[test]
fn background_maintainer_keeps_sketches_fresh() {
    use imp::core::strategy::BackgroundMaintainer;
    use parking_lot::Mutex;
    use std::sync::Arc;

    let imp = Arc::new(Mutex::new(Imp::new(
        synthetic_db(2_000, 100),
        ImpConfig::default(),
    )));
    let q = queries::q_groups("edb1", 160);
    imp.lock().execute(&q).unwrap();
    let bg = BackgroundMaintainer::spawn(Arc::clone(&imp), std::time::Duration::from_millis(20));
    imp.lock()
        .execute("INSERT INTO edb1 VALUES (99999, 50, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140)")
        .unwrap();
    // Wait for a tick to maintain the sketch (bounded wait; each poll
    // yields the lock so the maintainer can take it).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while imp.lock().describe_sketches().iter().any(|s| s.stale) {
        assert!(
            std::time::Instant::now() < deadline,
            "background maintainer never ran"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    bg.stop();
    // The sketch is fresh: the next query needs no maintenance.
    let ImpResponse::Rows { mode, .. } = imp.lock().execute(&q).unwrap() else {
        panic!()
    };
    assert!(matches!(mode, QueryMode::UsedFresh), "{mode:?}");
}
