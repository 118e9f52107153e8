//! Figure 16: cost of eager maintenance vs. batch size.
//!
//! "Measuring the total maintenance cost for 1000 updates that are
//! processed in batches of varying sizes using the eager strategy. …
//! batch sizes below 50 should be avoided" (§8.5). Two queries:
//! Q_endtoend (aggregation + HAVING) and Q_joinsel at 5% selectivity.

use imp_bench::*;
use imp_core::maintain::SketchMaintainer;
use imp_core::ops::OpConfig;
use imp_data::queries;
use imp_data::synthetic::{load, load_join_helper, SyntheticConfig};
use imp_data::workload::{insert_stream, WorkloadOp};
use imp_engine::Database;
use std::sync::Arc;

fn run_query(
    sql: &str,
    table: &str,
    helper: Option<(&str, u32)>,
    out: &mut Vec<Vec<String>>,
    report: &mut BenchReport,
) {
    let rows = scaled(20_000, 2_000);
    let groups = 1_000i64;
    let total_updates = scaled(1000, 100);
    for batch in [1usize, 10, 50, 100, 500] {
        let mut db = Database::new();
        load(
            &mut db,
            &SyntheticConfig {
                name: table.into(),
                rows,
                groups,
                ..Default::default()
            },
        )
        .unwrap();
        if let Some((h, sel)) = helper {
            load_join_helper(&mut db, h, groups, sel, 1, 5).unwrap();
        }
        let plan = db.plan_sql(sql).unwrap();
        let pset = pset_for(&db, table, "a", 100);
        let (mut m, _) =
            SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), OpConfig::default(), true)
                .unwrap();
        // Each "update" inserts one row (the paper batches row-level
        // updates); maintenance runs once per `batch` updates.
        let ups = insert_stream(table, total_updates, 1, groups, rows * 4, 3);
        let mut total = std::time::Duration::ZERO;
        let mut runs = 0usize;
        for (i, op) in ups.iter().enumerate() {
            let WorkloadOp::Update { sql, .. } = op else {
                continue;
            };
            db.execute_sql(sql).unwrap();
            if (i + 1) % batch == 0 {
                let (t, _) = time_once(|| m.maintain(&db).unwrap());
                total += t;
                runs += 1;
            }
        }
        report.add(
            Record::new("batching", format!("{}/b{batch}", sql_label(sql)))
                .time("maintain_total", total)
                .count("maint_runs", runs as u64, false),
        );
        out.push(vec![
            sql_label(sql),
            batch.to_string(),
            runs.to_string(),
            ms(total.as_secs_f64() * 1e3),
        ]);
    }
}

fn sql_label(sql: &str) -> String {
    if sql.contains("JOIN") {
        "Q_joinsel(5%)".into()
    } else {
        "Q_endtoend".into()
    }
}

fn main() {
    println!("Fig. 16 — eager maintenance batching");
    let mut out = Vec::new();
    let mut report = BenchReport::new("fig16_batching");
    let q1 = queries::q_endtoend(1_400, 1_700);
    run_query(&q1.replace("edb1", "eb"), "eb", None, &mut out, &mut report);
    let q2 = queries::q_joinsel("ej", "hj");
    run_query(&q2, "ej", Some(("hj", 5)), &mut out, &mut report);
    print_table(
        "Fig. 16: total maintenance cost for the update stream",
        &["query", "batch", "maint runs", "total maint"],
        &out,
    );
    report.finish();
}
