//! Figure 10: incremental vs. full maintenance on the Crimes dataset.
//!
//! CQ1 (crimes per beat/year) and CQ2 (areas with >1000 crimes) over the
//! synthetic Chicago-crimes substitute, realistic delta sizes 10..1000.
//! Expected shape: IMP beats FM by ≥2 orders of magnitude.

use imp_bench::*;
use imp_data::queries::{CRIMES_CQ1, CRIMES_CQ2};
use imp_data::workload::WorkloadOp;
use imp_engine::Database;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn crime_inserts(n_updates: usize, delta: usize, start_id: usize, seed: u64) -> Vec<WorkloadOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut id = start_id as i64;
    (0..n_updates)
        .map(|_| {
            let rows: Vec<String> = (0..delta)
                .map(|_| {
                    let beat = rng.gen_range(0..imp_data::crimes::BEATS);
                    let district = beat * imp_data::crimes::DISTRICTS / imp_data::crimes::BEATS;
                    let ward = beat * imp_data::crimes::WARDS / imp_data::crimes::BEATS;
                    let ca = beat * imp_data::crimes::COMMUNITY_AREAS / imp_data::crimes::BEATS;
                    let year = rng.gen_range(2001..2025);
                    id += 1;
                    format!("({id}, {year}, {beat}, {district}, {ward}, {ca}, 'THEFT', false)")
                })
                .collect();
            WorkloadOp::Update {
                sql: format!("INSERT INTO crimes VALUES {}", rows.join(", ")),
                rows: delta,
            }
        })
        .collect()
}

fn crime_deletes(n_updates: usize, delta: usize, max_id: usize, seed: u64) -> Vec<WorkloadOp> {
    imp_data::workload::delete_stream("crimes", n_updates, delta, max_id, seed)
}

fn main() {
    let rows = scaled(120_000, 20_000);
    println!("Fig. 10 — Crimes dataset ({rows} rows; substitution: synthetic generator)");
    let mut db = Database::new();
    imp_data::crimes::load(&mut db, rows, 11).unwrap();
    let mut report = BenchReport::new("fig10_crimes");

    // (a) CQ1/CQ2, inserts.
    let mut out = Vec::new();
    for (name, sql) in [("CQ1", CRIMES_CQ1), ("CQ2", CRIMES_CQ2)] {
        for delta in [10usize, 50, 100, 500, 1000] {
            let plan = db.plan_sql(sql).unwrap();
            let pset = pset_for(&db, "crimes", "beat", 100);
            let updates = crime_inserts(reps(), delta, rows * 10, delta as u64);
            let m = measure_inc_vs_full(&mut db, &plan, &pset, &updates);
            report.add(
                Record::new("inc_vs_full", format!("{name}/d{delta}"))
                    .time_stats("imp", &m.imp_stats)
                    .time_stats("fm", &m.fm_stats)
                    .count("recaptures", m.recaptures as u64, true)
                    .heap("delta_bytes_pooled", m.metrics.delta_bytes_pooled)
                    .ratio("fm_over_imp", m.fm_ms / m.imp_ms.max(1e-6)),
            );
            out.push(vec![
                name.to_string(),
                delta.to_string(),
                ms(m.imp_ms),
                ms(m.fm_ms),
                format!("{:.0}x", m.fm_ms / m.imp_ms.max(1e-6)),
            ]);
        }
    }
    print_table(
        "Fig. 10a: IMP vs FM per maintenance run",
        &["query", "delta", "IMP", "FM", "FM/IMP"],
        &out,
    );

    // (b) insert vs delete.
    let mut out = Vec::new();
    for delta in [10usize, 100, 1000] {
        let plan = db.plan_sql(CRIMES_CQ1).unwrap();
        let pset = pset_for(&db, "crimes", "beat", 100);
        let ins = crime_inserts(reps(), delta, rows * 20, 31 + delta as u64);
        let m_ins = measure_inc_vs_full(&mut db, &plan, &pset, &ins);
        let del = crime_deletes(reps(), delta, rows, 37 + delta as u64);
        let m_del = measure_inc_vs_full(&mut db, &plan, &pset, &del);
        report.add(
            Record::new("insert_vs_delete", format!("d{delta}"))
                .time_stats("insert", &m_ins.imp_stats)
                .time_stats("delete", &m_del.imp_stats),
        );
        out.push(vec![delta.to_string(), ms(m_ins.imp_ms), ms(m_del.imp_ms)]);
    }
    print_table(
        "Fig. 10b: insert vs delete maintenance time (IMP, CQ1)",
        &["delta", "insert", "delete"],
        &out,
    );
    report.finish();
}
