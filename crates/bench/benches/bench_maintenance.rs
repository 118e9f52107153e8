//! End-to-end maintenance benchmarks: capture (= full maintenance) vs
//! incremental maintenance at small deltas — the paper's headline
//! comparison — plus ablations of the §7.2 optimizations.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use imp_core::maintain::SketchMaintainer;
use imp_core::ops::OpConfig;
use imp_data::synthetic::{load, SyntheticConfig};
use imp_data::workload::{insert_stream, WorkloadOp};
use imp_engine::Database;
use imp_sketch::{capture, PartitionSet, RangePartition};
use std::sync::Arc;
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900))
}

const ROWS: usize = 10_000;
const GROUPS: i64 = 1_000;

fn setup(name: &str) -> Database {
    let mut db = Database::new();
    load(
        &mut db,
        &SyntheticConfig {
            name: name.into(),
            rows: ROWS,
            groups: GROUPS,
            ..Default::default()
        },
    )
    .unwrap();
    db
}

fn bench_capture_vs_maintain(c: &mut Criterion) {
    let mut db = setup("t");
    let sql = imp_data::queries::q_groups("t", 1_600);
    let plan = db.plan_sql(&sql).unwrap();
    let pset = Arc::new(
        PartitionSet::new(vec![RangePartition::equi_depth(&db, "t", "a", 100).unwrap()]).unwrap(),
    );

    c.bench_function("full_maintenance_capture", |bench| {
        bench.iter(|| black_box(capture(&plan, &db, &pset).unwrap().sketch))
    });

    // Incremental: apply one 100-row insert, maintain, repeat. The insert
    // is part of the measured loop but is the same work FM would also pay.
    let (mut m, _) =
        SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), OpConfig::default(), true)
            .unwrap();
    let ups = insert_stream("t", 4096, 100, GROUPS, ROWS * 10, 5);
    let mut i = 0usize;
    c.bench_function("incremental_maintain_delta100", |bench| {
        bench.iter(|| {
            let WorkloadOp::Update { sql, .. } = &ups[i % ups.len()] else {
                unreachable!()
            };
            i += 1;
            db.execute_sql(sql).unwrap();
            black_box(m.maintain(&db).unwrap())
        })
    });
}

fn bench_ablation_pushdown(c: &mut Criterion) {
    for (label, pushdown) in [("pushdown_on", true), ("pushdown_off", false)] {
        let name = format!("tp_{label}");
        let mut db = setup(&name);
        let sql = imp_data::queries::q_selpd(&name, 500);
        let plan = db.plan_sql(&sql).unwrap();
        let pset = Arc::new(
            PartitionSet::new(vec![
                RangePartition::equi_depth(&db, &name, "a", 100).unwrap()
            ])
            .unwrap(),
        );
        let (mut m, _) =
            SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), OpConfig::default(), pushdown)
                .unwrap();
        let ups = insert_stream(&name, 4096, 100, GROUPS, ROWS * 10, 9);
        let mut i = 0usize;
        c.bench_function(&format!("selpd_maintain_{label}"), |bench| {
            bench.iter(|| {
                let WorkloadOp::Update { sql, .. } = &ups[i % ups.len()] else {
                    unreachable!()
                };
                i += 1;
                db.execute_sql(sql).unwrap();
                black_box(m.maintain(&db).unwrap())
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_capture_vs_maintain, bench_ablation_pushdown
}
criterion_main!(benches);
