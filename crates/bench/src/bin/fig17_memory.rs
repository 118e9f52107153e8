//! Figure 17: memory usage of aggregation and join state.
//!
//! §8.6.1: "for fixed number of groups, the state data size is stable, and
//! the memory consumption increases due to the increasing of delta data
//! size". We report operator-state size after capture and after
//! maintaining deltas of growing sizes, for Q_groups and Q_joinsel.
//!
//! Delta memory is accounted pool-aware (`delta_heap_sizes`: shared rows
//! and hash-consed annotations counted once) next to the flat
//! one-bitvector-per-row baseline the batches replaced.

use imp_bench::*;
use imp_core::maintain::SketchMaintainer;
use imp_data::queries;
use imp_data::synthetic::{load, load_join_helper, SyntheticConfig};
use imp_data::workload::{insert_stream, WorkloadOp};
use imp_engine::Database;
use std::sync::Arc;

fn main() {
    println!("Fig. 17 — state memory of Q_groups / Q_joinsel");
    let rows = scaled(20_000, 2_000);
    let mut report = BenchReport::new("fig17_memory");
    let mut out = Vec::new();

    // (a) Q_groups with varying group counts.
    for groups in [50i64, 1_000, 5_000] {
        let name = format!("tm{groups}");
        let mut db = Database::new();
        load(
            &mut db,
            &SyntheticConfig {
                name: name.clone(),
                rows,
                groups,
                ..Default::default()
            },
        )
        .unwrap();
        let sql = queries::q_groups(&name, groups * 2);
        let plan = db.plan_sql(&sql).unwrap();
        let pset = pset_for(&db, &name, "a", 100);
        let (mut m, _) =
            SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), bench_op_config(), true)
                .unwrap();
        report.add(
            Record::new("state_memory", format!("groups{groups}/capture"))
                .heap("state_bytes", m.state_heap_size() as u64),
        );
        out.push(vec![
            format!("Q_groups/{groups}g"),
            "capture".into(),
            format!("{:.1}KB", m.state_heap_size() as f64 / 1e3),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
        for delta in [100usize, 1000] {
            let ups = insert_stream(&name, 1, delta, groups, rows * 4, 3);
            for op in &ups {
                let WorkloadOp::Update { sql, .. } = op else {
                    continue;
                };
                db.execute_sql(sql).unwrap();
            }
            let rep = m.maintain(&db).unwrap();
            report.add(
                Record::new("state_memory", format!("groups{groups}/d{delta}"))
                    .heap("state_bytes", m.state_heap_size() as u64)
                    .heap("delta_bytes_pooled", rep.metrics.delta_bytes_pooled)
                    .metric(
                        "delta_bytes_flat",
                        rep.metrics.delta_bytes_flat as f64,
                        Unit::Bytes,
                        false,
                    ),
            );
            out.push(vec![
                format!("Q_groups/{groups}g"),
                format!("+Δ{delta}"),
                format!("{:.1}KB", m.state_heap_size() as f64 / 1e3),
                bytes_h(rep.metrics.delta_bytes_pooled),
                bytes_h(rep.metrics.delta_bytes_flat),
                "-".into(),
            ]);
        }
    }

    // (b) Q_joinsel at 5% selectivity.
    let groups = 2_000i64;
    let mut db = Database::new();
    load(
        &mut db,
        &SyntheticConfig {
            name: "tmj".into(),
            rows,
            groups,
            ..Default::default()
        },
    )
    .unwrap();
    load_join_helper(&mut db, "hmj", groups, 5, 1, 5).unwrap();
    let sql = queries::q_joinsel("tmj", "hmj");
    let plan = db.plan_sql(&sql).unwrap();
    let pset = pset_for(&db, "tmj", "a", 100);
    let (mut m, _) =
        SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), bench_op_config(), true).unwrap();
    report.add(
        Record::new("state_memory", "joinsel5/capture".to_string())
            .heap("state_bytes", m.state_heap_size() as u64)
            .heap("join_index_bytes", m.join_index_state().1 as u64),
    );
    out.push(vec![
        "Q_joinsel/5%".into(),
        "capture".into(),
        format!("{:.1}KB", m.state_heap_size() as f64 / 1e3),
        "-".into(),
        "-".into(),
        format!("{:.1}KB", m.join_index_state().1 as f64 / 1e3),
    ]);
    for delta in [100usize, 1000] {
        let ups = insert_stream("tmj", 1, delta, groups, rows * 4, 3);
        for op in &ups {
            let WorkloadOp::Update { sql, .. } = op else {
                continue;
            };
            db.execute_sql(sql).unwrap();
        }
        let rep = m.maintain(&db).unwrap();
        report.add(
            Record::new("state_memory", format!("joinsel5/d{delta}"))
                .heap("state_bytes", m.state_heap_size() as u64)
                .heap("delta_bytes_pooled", rep.metrics.delta_bytes_pooled)
                .metric(
                    "delta_bytes_flat",
                    rep.metrics.delta_bytes_flat as f64,
                    Unit::Bytes,
                    false,
                )
                .heap("join_index_bytes", m.join_index_state().1 as u64),
        );
        out.push(vec![
            "Q_joinsel/5%".into(),
            format!("+Δ{delta}"),
            format!("{:.1}KB", m.state_heap_size() as f64 / 1e3),
            bytes_h(rep.metrics.delta_bytes_pooled),
            bytes_h(rep.metrics.delta_bytes_flat),
            format!("{:.1}KB", m.join_index_state().1 as f64 / 1e3),
        ]);
    }

    print_table(
        "Fig. 17: operator-state memory",
        &[
            "query",
            "point",
            "state",
            "Δheap pool",
            "Δheap flat",
            "join idx",
        ],
        &out,
    );
    report.finish();
}
