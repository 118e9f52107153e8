//! Figure 8: mixed query/update workloads — NS vs FM vs IMP.
//!
//! "We measure the end-to-end runtime of IMP, full maintenance (FM), and
//! non-sketch (NS) on mixed workloads … each workload consists of 1000
//! operations … query-update ratios 1U5Q, 1U1Q, 5U1Q … delta sizes 1, 20,
//! 200 and 2000" (§8.1). Expected shape: FM worst (frequent recapture
//! outweighs sketch benefit), IMP best except at the 5U1Q/2000 extreme.

use imp_bench::*;
use imp_core::{Imp, ImpConfig};
use imp_data::synthetic::{load, SyntheticConfig};
use imp_data::workload::mixed_workload;
use imp_engine::Database;

fn fresh_db(rows: usize, groups: i64) -> Database {
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

fn main() {
    let rows = scaled(20_000, 2_000);
    let groups = 1_000i64;
    let total_ops = scaled(240, 24); // paper: 1000 (set IMP_BENCH_SCALE≈4)
    println!("Fig. 8 — mixed workloads over edb1 ({rows} rows, {groups} groups, {total_ops} ops)");

    let ratios: [(usize, usize); 3] = [(1, 5), (1, 1), (5, 1)];
    let delta_sizes = [1usize, 20, 200, 2000];

    let mut report = BenchReport::new("fig08_mixed");
    let mut out_rows = Vec::new();
    for (u, q) in ratios {
        for delta in delta_sizes {
            let wl = mixed_workload(u, q, total_ops, delta, groups, rows, 99);

            let mut db = fresh_db(rows, groups);
            let ns = run_ns(&mut db, &wl.ops);

            let mut db = fresh_db(rows, groups);
            let fm = run_fm(&mut db, &wl.ops, ("edb1", "a", 100));

            let db = fresh_db(rows, groups);
            let mut imp = Imp::new(
                db,
                ImpConfig {
                    fragments: 100,
                    ..Default::default()
                },
            );
            let imp_t = run_imp(&mut imp, &wl.ops);

            let ops_f = wl.len() as f64;
            report.add(
                Record::new("mixed", format!("{}/d{delta}", wl.label()))
                    .time("ns_total", ns)
                    .time("fm_total", fm.total)
                    .time("imp_total", imp_t)
                    .metric("ns_per_op", ns.as_nanos() as f64 / ops_f, Unit::Ns, false)
                    .metric(
                        "imp_per_op",
                        imp_t.as_nanos() as f64 / ops_f,
                        Unit::Ns,
                        false,
                    )
                    .count("fm_captures", fm.captures as u64, false)
                    .count("fm_recaptures", fm.recaptures as u64, false)
                    .ratio(
                        "fm_over_imp",
                        fm.total.as_secs_f64() / imp_t.as_secs_f64().max(1e-9),
                    )
                    .ratio(
                        "ns_over_imp",
                        ns.as_secs_f64() / imp_t.as_secs_f64().max(1e-9),
                    ),
            );
            out_rows.push(vec![
                wl.label(),
                delta.to_string(),
                ms(ns.as_secs_f64() * 1e3),
                ms(fm.total.as_secs_f64() * 1e3),
                ms(imp_t.as_secs_f64() * 1e3),
                format!(
                    "{:.1}x",
                    fm.total.as_secs_f64() / imp_t.as_secs_f64().max(1e-9)
                ),
                format!("{:.1}x", ns.as_secs_f64() / imp_t.as_secs_f64().max(1e-9)),
            ]);
        }
    }
    print_table(
        "Fig. 8: total workload runtime",
        &["ratio", "delta", "NS", "FM", "IMP", "FM/IMP", "NS/IMP"],
        &out_rows,
    );
    report.finish();
}
