//! Figure 9: incremental vs. full maintenance on TPC-H.
//!
//! (a)/(b): IMP vs FM per maintenance run for realistic delta sizes
//! {10..1000} at two database scales. (c): insert vs delete deltas.
//! Expected shape (paper): IMP beats FM by 3.9x..~2500x; FM cost tracks
//! database size, IMP cost tracks delta size.

use imp_bench::*;
use imp_data::queries;
use imp_data::workload::WorkloadOp;
use imp_engine::Database;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Multi-row INSERT into lineitem.
fn lineitem_inserts(n_updates: usize, delta: usize, seed: u64) -> Vec<WorkloadOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_updates)
        .map(|_| {
            let rows: Vec<String> = (0..delta)
                .map(|_| {
                    format!(
                        "({}, {}, {}, {}, {}, {}, 0.0{}, 0.02, '{}', {})",
                        rng.gen_range(0..5_000),
                        rng.gen_range(0..10_000),
                        rng.gen_range(0..1_000),
                        rng.gen_range(0..7),
                        rng.gen_range(1..50),
                        (rng.gen_range(90_000..1_100_000) as f64) / 100.0,
                        rng.gen_range(0..=9),
                        ["R", "A", "N"][rng.gen_range(0..3usize)],
                        19_940_000i64 + rng.gen_range(101i64..1231),
                    )
                })
                .collect();
            WorkloadOp::Update {
                sql: format!("INSERT INTO lineitem VALUES {}", rows.join(", ")),
                rows: delta,
            }
        })
        .collect()
}

fn lineitem_deletes(n_updates: usize, delta: usize, seed: u64) -> Vec<WorkloadOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_updates)
        .map(|_| {
            // ~4 lineitems per order: delete a key window of delta/4 orders.
            let width = (delta / 4).max(1);
            let start = rng.gen_range(0i64..4_000);
            WorkloadOp::Update {
                sql: format!(
                    "DELETE FROM lineitem WHERE l_orderkey >= {start} AND l_orderkey < {}",
                    start + width as i64
                ),
                rows: delta,
            }
        })
        .collect()
}

fn run_scale(label: &str, tpch_scale: f64, report: &mut BenchReport) {
    let mut db = Database::new();
    imp_data::tpch::load(&mut db, tpch_scale, 17).unwrap();
    let li = db.table("lineitem").unwrap().row_count();
    println!("\n-- TPC-H {label}: lineitem = {li} rows --");

    let queries: [(&str, &str, (&str, &str)); 3] = [
        (
            "Q_single (agg+HAVING)",
            queries::TPCH_SINGLE,
            ("lineitem", "l_orderkey"),
        ),
        (
            "Q_having (join+HAVING)",
            queries::TPCH_HAVING,
            ("orders", "o_custkey"),
        ),
        (
            "Q_topk (agg+top-10)",
            queries::TPCH_TOPK,
            ("lineitem", "l_orderkey"),
        ),
    ];
    let scale_tag = label.split(' ').next().unwrap_or(label);
    let mut rows = Vec::new();
    for (name, sql, (ptable, pattr)) in queries {
        for delta in [10usize, 50, 100, 500, 1000] {
            let plan = db.plan_sql(sql).unwrap();
            let pset = pset_for(&db, ptable, pattr, 100);
            let updates = lineitem_inserts(reps(), delta, delta as u64);
            let m = measure_inc_vs_full(&mut db, &plan, &pset, &updates);
            let qtag = name.split(' ').next().unwrap_or(name);
            report.add(
                Record::new("inc_vs_full", format!("{scale_tag}/{qtag}/d{delta}"))
                    .time_stats("imp", &m.imp_stats)
                    .time_stats("fm", &m.fm_stats)
                    .count("recaptures", m.recaptures as u64, true)
                    .count("db_roundtrips", m.metrics.db_roundtrips, true)
                    .count("rt_saved", m.metrics.db_roundtrips_avoided, false)
                    .heap("delta_bytes_pooled", m.metrics.delta_bytes_pooled)
                    .ratio("fm_over_imp", m.fm_ms / m.imp_ms.max(1e-6)),
            );
            rows.push(vec![
                name.to_string(),
                delta.to_string(),
                ms(m.imp_ms),
                ms(m.fm_ms),
                format!("{:.1}x", m.fm_ms / m.imp_ms.max(1e-6)),
            ]);
        }
    }
    print_table(
        &format!("Fig. 9 {label}: IMP vs FM per maintenance run"),
        &["query", "delta", "IMP", "FM", "FM/IMP"],
        &rows,
    );
}

fn main() {
    println!("Fig. 9 — TPC-H incremental vs full maintenance");
    let mut report = BenchReport::new("fig09_tpch");
    // (a)/(b): two scales ("SF1" and "SF10" shapes).
    run_scale("small (SF-S)", 0.01 * scale(), &mut report);
    run_scale("large (SF-L, 10x)", 0.1 * scale(), &mut report);

    // (c): insert vs delete deltas at the large scale.
    let mut db = Database::new();
    imp_data::tpch::load(&mut db, 0.1 * scale(), 17).unwrap();
    let plan = db.plan_sql(queries::TPCH_SINGLE).unwrap();
    let pset = pset_for(&db, "lineitem", "l_orderkey", 100);
    let mut rows = Vec::new();
    for delta in [10usize, 100, 1000] {
        let ins = lineitem_inserts(reps(), delta, 7 + delta as u64);
        let m_ins = measure_inc_vs_full(&mut db, &plan, &pset, &ins);
        let del = lineitem_deletes(reps(), delta, 9 + delta as u64);
        let m_del = measure_inc_vs_full(&mut db, &plan, &pset, &del);
        report.add(
            Record::new("insert_vs_delete", format!("d{delta}"))
                .time_stats("insert", &m_ins.imp_stats)
                .time_stats("delete", &m_del.imp_stats),
        );
        rows.push(vec![delta.to_string(), ms(m_ins.imp_ms), ms(m_del.imp_ms)]);
    }
    print_table(
        "Fig. 9c: insert vs delete maintenance time (IMP)",
        &["delta", "insert", "delete"],
        &rows,
    );
    report.finish();
}
