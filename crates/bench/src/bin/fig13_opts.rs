//! Figure 13: the §7.2 optimizations.
//!
//! * `selpd` — selection push-down for deltas (13a/13c): delta fixed at
//!   2.5% of the table, fraction of delta rows passing the WHERE clause
//!   varied 2%→100%; with vs without push-down.
//! * `index` — delta-maintained join-side indexes: round trips, rows
//!   scanned, and maintenance time with vs without the `Q ⋈ Δ` index.
//!   Self-verifying: with the index on, steady-state batches must report
//!   zero backend round trips and a positive avoided count, otherwise the
//!   harness panics (the CI bench-smoke job turns that into a failure).
//! * `space` — top-l state buffers (13e/13f): Q_space (TPC-H Q10) state
//!   memory as a function of the buffer bound l.
//!
//! Fig. 13b/d (bloom filters for joins) has no experiment: the join-side
//! indexes answer the `Q ⋈ Δ` terms in memory, so there is no outsourced
//! round trip left for a bloom filter to skip, and the filters are gone.

use imp_bench::*;
use imp_core::maintain::SketchMaintainer;
use imp_core::ops::OpConfig;
use imp_core::MaintMetrics;
use imp_data::queries;
use imp_data::synthetic::{load, load_join_helper, SyntheticConfig};
use imp_data::workload::{insert_stream, WorkloadOp};
use imp_engine::Database;
use std::sync::Arc;

fn exp_selpd(report: &mut BenchReport) {
    let rows = scaled(20_000, 2_000);
    let groups = 1_000i64;
    let delta = (rows as f64 * 0.025) as usize; // 2.5% of the table
    let b_threshold = 1_000i64;
    let mut out = Vec::new();
    for pass_pct in [2usize, 10, 25, 50, 75, 100] {
        for pushdown in [true, false] {
            let mut db = Database::new();
            load(
                &mut db,
                &SyntheticConfig {
                    name: "t1gb1000g".into(),
                    rows,
                    groups,
                    ..Default::default()
                },
            )
            .unwrap();
            let sql = queries::q_selpd("t1gb1000g", b_threshold);
            let plan = db.plan_sql(&sql).unwrap();
            let pset = pset_for(&db, "t1gb1000g", "a", 100);
            let (mut m, _) = SketchMaintainer::capture(
                &plan,
                &db,
                Arc::clone(&pset),
                OpConfig::default(),
                pushdown,
            )
            .unwrap();
            // Delta where `pass_pct`% of rows satisfy b < threshold.
            let passing = delta * pass_pct / 100;
            let mut values = Vec::with_capacity(delta);
            for i in 0..delta {
                let id = rows * 4 + i;
                let b = if i < passing {
                    b_threshold - 1 - (i as i64 % 500)
                } else {
                    b_threshold + 1 + (i as i64 % 500)
                };
                let mut row = format!("({id}, {}, {b}", i as i64 % groups);
                for _ in 0..9 {
                    row.push_str(", 100");
                }
                row.push(')');
                values.push(row);
            }
            db.execute_sql(&format!(
                "INSERT INTO t1gb1000g VALUES {}",
                values.join(", ")
            ))
            .unwrap();
            let (t, rep) = time_once(|| m.maintain(&db).unwrap());
            report.add(
                Record::new(
                    "selpd",
                    format!("sel{pass_pct}/pd_{}", if pushdown { "on" } else { "off" }),
                )
                .time("maintain", t)
                .count("rows_pruned", rep.metrics.delta_rows_pruned, false),
            );
            out.push(vec![
                format!("{pass_pct}%"),
                if pushdown { "on" } else { "off" }.to_string(),
                ms(t.as_secs_f64() * 1e3),
                rep.metrics.delta_rows_pruned.to_string(),
            ]);
        }
    }
    print_table(
        "Fig. 13a/c: selection push-down (delta = 2.5% of table)",
        &["delta-sel", "pushdown", "maintain", "pruned"],
        &out,
    );
}

fn exp_index(report: &mut BenchReport) {
    // Q_joinsel at 100% join selectivity so every delta row has partners
    // and the `Q ⋈ Δ` terms run each batch. With the side index on, the
    // only round trip is the first batch's build of the side its delta
    // probes (capture joins the two full deltas in memory and indexes
    // nothing); every later batch answers from memory.
    let rows = scaled(20_000, 2_000);
    let groups = 2_000i64;
    let batches = reps().max(2); // ≥2 so a steady-state batch exists
    let mut out = Vec::new();
    for delta in [10usize, 100, 1000] {
        for index in [true, false] {
            let name = format!("ti{delta}");
            let helper = format!("hi{delta}");
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
            load_join_helper(&mut db, &helper, groups, 100, 1, 5).unwrap();
            let sql = queries::q_joinsel(&name, &helper);
            let plan = db.plan_sql(&sql).unwrap();
            let pset = pset_for(&db, &name, "a", 100);
            let cfg = OpConfig {
                join_index_budget: index.then_some(imp_core::ops::DEFAULT_JOIN_INDEX_BUDGET),
                ..OpConfig::default()
            };
            let ups = insert_stream(&name, batches, delta, groups, rows * 8, 3);
            let (mut m, _) =
                SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), cfg, true).unwrap();
            let mut times = Vec::new();
            let mut total = MaintMetrics::default();
            let mut last = MaintMetrics::default();
            for op in &ups {
                let WorkloadOp::Update { sql, .. } = op else {
                    continue;
                };
                db.execute_sql(sql).unwrap();
                let (t, report) = time_once(|| m.maintain(&db).unwrap());
                times.push(t);
                total.absorb(&report.metrics);
                last = report.metrics;
            }
            let (_, idx_bytes) = m.join_index_state();
            report.add(
                Record::new(
                    "index",
                    format!("d{delta}/idx_{}", if index { "on" } else { "off" }),
                )
                .time_stats("maintain", &criterion::sample_stats(&times))
                .count("db_roundtrips", total.db_roundtrips, true)
                .count("db_rows_scanned", total.db_rows_scanned, true)
                .count("rt_saved", total.db_roundtrips_avoided, false)
                .heap("index_bytes", idx_bytes as u64),
            );
            out.push(vec![
                delta.to_string(),
                if index { "on" } else { "off" }.to_string(),
                ms(median_ms(times)),
                total.db_roundtrips.to_string(),
                total.db_rows_scanned.to_string(),
                total.db_roundtrips_avoided.to_string(),
                format!("{:.1}KB", idx_bytes as f64 / 1e3),
            ]);
            if index {
                // CI guard: the index must actually save round trips — the
                // first batch may build the probed side, no later one may
                // round-trip.
                assert!(
                    total.db_roundtrips_avoided > 0,
                    "join-side index enabled but zero db_roundtrips saved \
                     (delta {delta}, {batches} batches)"
                );
                assert_eq!(
                    last.db_roundtrips, 0,
                    "steady-state join maintenance must not round-trip \
                     with the side index enabled (delta {delta})"
                );
            }
        }
    }
    print_table(
        "Fig. 13g: delta-maintained join-side index (Q_joinsel, 100% join sel)",
        &[
            "delta",
            "index",
            "maintain",
            "db rt",
            "rows scanned",
            "rt saved",
            "index heap",
        ],
        &out,
    );
}

fn exp_space(report: &mut BenchReport) {
    let mut db = Database::new();
    imp_data::tpch::load(&mut db, 0.3 * scale(), 17).unwrap();
    // Q_space with a one-year window so the top-k input is large enough
    // for the buffer bound to matter (the paper's SF1 run sees 37k tuples).
    let sql = queries::Q_SPACE
        .replace("19941201", "19940101")
        .replace("19950301", "19950101");
    let plan = db.plan_sql(&sql).unwrap();
    let pset = pset_for(&db, "customer", "c_custkey", 100);
    let mut out = Vec::new();
    for buffer in [Some(50usize), Some(100), Some(500), Some(1_000), None] {
        let cfg = OpConfig {
            topk_buffer: buffer,
            minmax_buffer: buffer,
            ..OpConfig::default()
        };
        let (m, _) = SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), cfg, true).unwrap();
        let (entries, bytes) = m.topk_state().unwrap_or((0, 0));
        report.add(
            Record::new(
                "space",
                format!("l_{}", buffer.map_or("all".to_string(), |b| b.to_string())),
            )
            .count("topk_entries", entries as u64, true)
            .heap("topk_state_bytes", bytes as u64)
            .heap("total_state_bytes", m.state_heap_size() as u64),
        );
        out.push(vec![
            buffer.map_or("all".to_string(), |b| b.to_string()),
            entries.to_string(),
            format!("{:.1} KB", bytes as f64 / 1e3),
            format!("{:.3} MB", m.state_heap_size() as f64 / 1e6),
        ]);
    }
    print_table(
        "Fig. 13e/f: Q_space (TPC-H Q10) state memory vs top-l buffer",
        &["l", "topk entries", "topk state", "total state"],
        &out,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    println!("Fig. 13 — optimizations ({which})");
    let mut report = BenchReport::new("fig13_opts");
    match which {
        "selpd" => exp_selpd(&mut report),
        "index" => exp_index(&mut report),
        "space" => exp_space(&mut report),
        _ => {
            exp_selpd(&mut report);
            exp_index(&mut report);
            exp_space(&mut report);
        }
    }
    report.finish();
}
