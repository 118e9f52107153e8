//! TPC-H top customers: Q10-style top-k over joins (the paper's Q_space,
//! Appendix A.4) with bounded top-l state (§7.2) and state eviction (§2:
//! drop the operator state under memory pressure, recapture it when the
//! sketch is next needed, continue incrementally).
//!
//! ```sh
//! cargo run --release --example tpch_top_customers
//! ```

use imp::core::maintain::SketchMaintainer;
use imp::core::ops::OpConfig;
use imp::data::{queries, tpch};
use imp::engine::Database;
use imp::sketch::{PartitionSet, RangePartition};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let mut db = Database::new();
    tpch::load(&mut db, 0.05, 17).unwrap();
    println!(
        "TPC-H: {} customers, {} orders, {} lineitems",
        db.table("customer").unwrap().row_count(),
        db.table("orders").unwrap().row_count(),
        db.table("lineitem").unwrap().row_count(),
    );

    let plan = db.plan_sql(queries::Q_SPACE).unwrap();
    let pset = Arc::new(
        PartitionSet::new(vec![RangePartition::equi_depth(
            &db,
            "customer",
            "c_custkey",
            100,
        )
        .unwrap()])
        .unwrap(),
    );

    // Bounded top-l state: remember only the best 200 candidate customers.
    let cfg = OpConfig {
        topk_buffer: Some(200),
        minmax_buffer: Some(200),
        ..OpConfig::default()
    };
    let t = Instant::now();
    let (mut m, result) =
        SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), cfg, true).unwrap();
    let (mut evicted, _) =
        SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), cfg, true).unwrap();
    println!(
        "captured in {:?}; top-20 revenue customers: {} rows; state = {:.0} KB",
        t.elapsed(),
        result.len(),
        m.state_heap_size() as f64 / 1e3,
    );
    for (row, _) in result.iter().take(3) {
        println!("  {} -> revenue {}", row[1], row[2]);
    }

    // Evict one copy's operator state (as the middleware does under
    // memory pressure), apply updates, recapture, and continue
    // maintaining incrementally.
    let before = evicted.state_heap_size();
    evicted.drop_state();
    println!(
        "evicted: {:.0} KB freed",
        (before - evicted.state_heap_size()) as f64 / 1e3
    );

    db.execute_sql(
        "INSERT INTO lineitem VALUES \
         (1, 1, 1, 8, 30, 9500.0, 0.00, 0.02, 'R', 19941215), \
         (2, 2, 1, 8, 10, 8000.0, 0.05, 0.02, 'R', 19941220)",
    )
    .unwrap();

    // The evicted copy's next run is a recapture from the database.
    assert!(evicted.is_stale(&db));
    let t = Instant::now();
    let report = evicted.full_maintain(&db).unwrap();
    assert!(report.recaptured);
    println!(
        "recaptured in {:?}; state = {:.0} KB",
        t.elapsed(),
        evicted.state_heap_size() as f64 / 1e3,
    );

    // The uninterrupted maintainer must agree, and both maintain on alike.
    m.maintain(&db).unwrap();
    assert_eq!(m.sketch(), evicted.sketch());
    db.execute_sql("DELETE FROM lineitem WHERE l_orderkey = 2")
        .unwrap();
    let report = evicted.maintain(&db).unwrap();
    m.maintain(&db).unwrap();
    assert_eq!(m.sketch(), evicted.sketch());
    println!(
        "sketch agrees with uninterrupted maintenance: {} fragments \
         ({} delta rows maintained after the recapture, recaptured: {})",
        m.sketch().fragment_count(),
        report.metrics.delta_rows_fetched,
        report.recaptured,
    );
}
