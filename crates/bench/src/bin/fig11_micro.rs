//! Figures 11 & 12: microbenchmarks over the synthetic dataset.
//!
//! Subcommands (run all when none given):
//! * `having`  — Fig. 11a/12a: #aggregation functions {1,2,3,10}
//! * `groups`  — Fig. 11b/12b: #groups {50, 1k, 5k, 50k}
//! * `join1n`  — Fig. 11c/12c: 1-n joins
//! * `joinmn`  — Fig. 11d/12d: m-n joins
//! * `joinsel` — Fig. 11e/12e: join selectivity {1,5,10}%
//! * `frags`   — Fig. 11f/12f: #fragments {10..5000}
//!
//! Each experiment prints the realistic-delta series (Fig. 11: deltas
//! 10..1000 rows) and the break-even sweep (Fig. 12: deltas as a % of the
//! table, looking for the FM/IMP crossover).
//!
//! The realistic tables also report the delta pipeline's memory and
//! allocation behaviour: `Δheap pool` is the pool-aware
//! `delta_heap_sizes` of the maintenance input batches (shared rows and
//! hash-consed annotations counted once), `Δheap flat` is what the same
//! batches would occupy in the flat one-bitvector-per-row representation,
//! and `memo` is the share of annotation unions answered by the pool's
//! memo table instead of being computed (and allocated) again.
//!
//! With `IMP_OBS=1` every measured maintain also records into the
//! `imp_core::obs` bench hub (histograms + operator-level spans), and the
//! harness writes `TRACE_fig11_micro.json` / `METRICS_fig11_micro.{json,prom}`
//! next to its `BENCH_*.json` (validated by `bench_check --check-obs`).

use criterion::Throughput;
use imp_bench::*;
use imp_data::queries;
use imp_data::synthetic::{load, load_join_helper, SyntheticConfig};
use imp_data::workload::insert_stream;
use imp_engine::Database;

fn db_with(rows: usize, groups: i64, name: &str) -> Database {
    let mut db = Database::new();
    load(
        &mut db,
        &SyntheticConfig {
            name: name.into(),
            rows,
            groups,
            ..Default::default()
        },
    )
    .unwrap();
    db
}

/// Shared header of every Fig. 11 realistic-delta table.
const REALISTIC_HEADERS: [&str; 11] = [
    "config",
    "delta",
    "IMP",
    "rows/s",
    "FM",
    "FM/IMP",
    "db rt",
    "rt saved",
    "\u{394}heap pool",
    "\u{394}heap flat",
    "memo",
];

/// Compact rows-per-second for the console tables.
fn rate_h(r: f64) -> String {
    if r >= 1e6 {
        format!("{:.1}M", r / 1e6)
    } else if r >= 1e3 {
        format!("{:.1}K", r / 1e3)
    } else {
        format!("{r:.0}")
    }
}

/// Measure one (query, table) config across realistic + break-even deltas.
#[allow(clippy::too_many_arguments)]
fn sweep(
    db: &mut Database,
    sql: &str,
    table: &str,
    table_rows: usize,
    groups: i64,
    frags: usize,
    label: String,
    experiment: &str,
    report: &mut BenchReport,
    realistic: &mut Vec<Vec<String>>,
    breakeven: &mut Vec<Vec<String>>,
) {
    let plan = db.plan_sql(sql).unwrap();
    for delta in [10usize, 100, 1000] {
        let pset = pset_for(db, table, "a", frags);
        let ups = insert_stream(table, reps(), delta, groups, table_rows * 8, delta as u64);
        let m = measure_inc_vs_full(db, &plan, &pset, &ups, bench_op_config());
        let memo_total = m.metrics.pool_unions_computed + m.metrics.pool_union_memo_hits;
        // Each measured iteration maintains one delta batch of `delta`
        // rows; the criterion-shim throughput over the median sample
        // gives a scale-comparable rows/sec trajectory (never gated —
        // higher is better).
        let rows_per_sec = m
            .imp_stats
            .throughput_per_sec(Throughput::Elements(delta as u64))
            .unwrap_or(0.0);
        report.add(
            Record::new(experiment, format!("{label}/d{delta}"))
                .time_stats("imp", &m.imp_stats)
                .time_stats("fm", &m.fm_stats)
                .ratio("imp_rows_per_sec", rows_per_sec)
                // Maintain-latency tail from the obs log-bucketed
                // histogram (trajectory-only: tails are noisy at smoke
                // scale, the gated medians catch regressions).
                .metric("imp_ns_p50", m.imp_hist.p50() as f64, Unit::Ns, false)
                .metric("imp_ns_p95", m.imp_hist.p95() as f64, Unit::Ns, false)
                .metric("imp_ns_p99", m.imp_hist.p99() as f64, Unit::Ns, false)
                .count("db_roundtrips", m.metrics.db_roundtrips, true)
                .count("rt_saved", m.metrics.db_roundtrips_avoided, false)
                .heap("delta_bytes_pooled", m.metrics.delta_bytes_pooled)
                .metric(
                    "delta_bytes_flat",
                    m.metrics.delta_bytes_flat as f64,
                    Unit::Bytes,
                    false,
                )
                .ratio(
                    "memo_rate",
                    m.metrics.pool_union_memo_hits as f64 / (memo_total as f64).max(1.0),
                ),
        );
        realistic.push(vec![
            label.clone(),
            delta.to_string(),
            ms(m.imp_ms),
            rate_h(rows_per_sec),
            ms(m.fm_ms),
            format!("{:.1}x", m.fm_ms / m.imp_ms.max(1e-6)),
            m.metrics.db_roundtrips.to_string(),
            m.metrics.db_roundtrips_avoided.to_string(),
            bytes_h(m.metrics.delta_bytes_pooled),
            bytes_h(m.metrics.delta_bytes_flat),
            memo_rate(&m.metrics),
        ]);
    }
    for pct in [1usize, 4, 16, 32, 64] {
        let delta = (table_rows * pct / 100).max(1);
        let pset = pset_for(db, table, "a", frags);
        let ups = insert_stream(table, 1, delta, groups, table_rows * 16, 77 + pct as u64);
        let m = measure_inc_vs_full(db, &plan, &pset, &ups, bench_op_config());
        report.add(
            Record::new(format!("{experiment}_breakeven"), format!("{label}/p{pct}"))
                .metric("imp_ns", m.imp_ms * 1e6, Unit::Ns, false)
                .metric("fm_ns", m.fm_ms * 1e6, Unit::Ns, false),
        );
        breakeven.push(vec![
            label.clone(),
            format!("{pct}%"),
            ms(m.imp_ms),
            ms(m.fm_ms),
            if m.imp_ms > m.fm_ms {
                "FM wins"
            } else {
                "IMP wins"
            }
            .to_string(),
        ]);
    }
}

fn exp_having(report: &mut BenchReport) {
    let rows = scaled(20_000, 2_000);
    let mut db = db_with(rows, 5_000, "r500");
    let (mut real, mut brk) = (vec![], vec![]);
    for n_aggs in [1usize, 2, 3, 10] {
        let sql = queries::q_having("r500", n_aggs);
        sweep(
            &mut db,
            &sql,
            "r500",
            rows,
            5_000,
            100,
            format!("{n_aggs} aggs"),
            "having",
            report,
            &mut real,
            &mut brk,
        );
    }
    print_table(
        "Fig. 11a: Q_having — #aggregation functions (realistic deltas)",
        &REALISTIC_HEADERS,
        &real,
    );
    print_table(
        "Fig. 12a: Q_having — break-even sweep",
        &["config", "delta%", "IMP", "FM", "winner"],
        &brk,
    );
}

fn exp_groups(report: &mut BenchReport) {
    let rows = scaled(20_000, 2_000);
    let (mut real, mut brk) = (vec![], vec![]);
    for groups in [50i64, 1_000, 5_000, 50_000] {
        let name = format!("t{groups}g");
        let mut db = db_with(rows, groups, &name);
        // HAVING threshold ~ group domain (paper A.1.2 scales it too).
        let sql = queries::q_groups(&name, (groups as f64 * 1.6) as i64);
        sweep(
            &mut db,
            &sql,
            &name,
            rows,
            groups,
            100,
            format!("{groups} groups"),
            "groups",
            report,
            &mut real,
            &mut brk,
        );
    }
    print_table(
        "Fig. 11b: Q_groups — #groups (realistic deltas)",
        &REALISTIC_HEADERS,
        &real,
    );
    print_table(
        "Fig. 12b: Q_groups — break-even sweep",
        &["config", "delta%", "IMP", "FM", "winner"],
        &brk,
    );
}

fn exp_join_1n(report: &mut BenchReport) {
    // 1-n joins: n = rows/groups partners per key in the main table.
    let rows = scaled(20_000, 2_000);
    let (mut real, mut brk) = (vec![], vec![]);
    for (label, groups) in [
        ("1-20", (rows / 20) as i64),
        ("1-200", (rows / 200) as i64),
        ("1-2000", (rows / 2000).max(1) as i64),
    ] {
        let name = format!("j{groups}");
        let mut db = db_with(rows, groups, &name);
        load_join_helper(&mut db, "tjoinhelp", groups, 100, 1, 5).unwrap();
        let sql = queries::q_join(&name, "tjoinhelp", 1_000_000, (groups * 2).max(1000));
        sweep(
            &mut db,
            &sql,
            &name,
            rows,
            groups,
            100,
            label.to_string(),
            "join1n",
            report,
            &mut real,
            &mut brk,
        );
    }
    print_table(
        "Fig. 11c: Q_join 1-n (realistic deltas)",
        &REALISTIC_HEADERS,
        &real,
    );
    print_table(
        "Fig. 12c: Q_join 1-n — break-even sweep",
        &["config", "delta%", "IMP", "FM", "winner"],
        &brk,
    );
}

fn exp_join_mn(report: &mut BenchReport) {
    let rows = scaled(20_000, 2_000);
    let groups = (rows / 10) as i64;
    let (mut real, mut brk) = (vec![], vec![]);
    for m in [2usize, 20, 50] {
        let name = format!("jm{m}");
        let mut db = db_with(rows, groups, &name);
        let helper = format!("hm{m}");
        load_join_helper(&mut db, &helper, groups, 100, m, 5).unwrap();
        let sql = queries::q_join(&name, &helper, 1_000_000, groups * 2);
        sweep(
            &mut db,
            &sql,
            &name,
            rows,
            groups,
            100,
            format!("{m}-n"),
            "joinmn",
            report,
            &mut real,
            &mut brk,
        );
    }
    print_table(
        "Fig. 11d: Q_join m-n (realistic deltas)",
        &REALISTIC_HEADERS,
        &real,
    );
    print_table(
        "Fig. 12d: Q_join m-n — break-even sweep",
        &["config", "delta%", "IMP", "FM", "winner"],
        &brk,
    );
}

fn exp_joinsel(report: &mut BenchReport) {
    let rows = scaled(20_000, 2_000);
    let groups = 2_000i64;
    let (mut real, mut brk) = (vec![], vec![]);
    for sel in [1u32, 5, 10] {
        let name = format!("js{sel}");
        let mut db = db_with(rows, groups, &name);
        let helper = format!("hs{sel}");
        load_join_helper(&mut db, &helper, groups, sel, 1, 5).unwrap();
        let sql = queries::q_joinsel(&name, &helper);
        sweep(
            &mut db,
            &sql,
            &name,
            rows,
            groups,
            100,
            format!("{sel}% sel"),
            "joinsel",
            report,
            &mut real,
            &mut brk,
        );
    }
    print_table(
        "Fig. 11e: Q_joinsel — join selectivity (realistic deltas)",
        &REALISTIC_HEADERS,
        &real,
    );
    print_table(
        "Fig. 12e: Q_joinsel — break-even sweep",
        &["config", "delta%", "IMP", "FM", "winner"],
        &brk,
    );
}

fn exp_frags(report: &mut BenchReport) {
    let rows = scaled(20_000, 2_000);
    let groups = 2_000i64;
    let (mut real, mut brk) = (vec![], vec![]);
    for frags in [10usize, 100, 1000, 5000] {
        let name = format!("tf{frags}");
        let mut db = db_with(rows, groups, &name);
        let helper = format!("hf{frags}");
        load_join_helper(&mut db, &helper, groups, 100, 1, 5).unwrap();
        let sql = queries::q_sketch(&name, &helper);
        sweep(
            &mut db,
            &sql,
            &name,
            rows,
            groups,
            frags,
            format!("{frags} frags"),
            "frags",
            report,
            &mut real,
            &mut brk,
        );
    }
    print_table(
        "Fig. 11f: Q_sketch — #fragments (realistic deltas)",
        &REALISTIC_HEADERS,
        &real,
    );
    print_table(
        "Fig. 12f: Q_sketch — break-even sweep",
        &["config", "delta%", "IMP", "FM", "winner"],
        &brk,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    println!("Fig. 11/12 — microbenchmarks ({which})");
    let mut report = BenchReport::new("fig11_micro");
    match which {
        "having" => exp_having(&mut report),
        "groups" => exp_groups(&mut report),
        "join1n" => exp_join_1n(&mut report),
        "joinmn" => exp_join_mn(&mut report),
        "joinsel" => exp_joinsel(&mut report),
        "frags" => exp_frags(&mut report),
        _ => {
            exp_having(&mut report);
            exp_groups(&mut report);
            exp_join_1n(&mut report);
            exp_join_mn(&mut report);
            exp_joinsel(&mut report);
            exp_frags(&mut report);
        }
    }
    report.finish();
    // With IMP_OBS=1 the measured maintains recorded into the bench obs
    // hub; export its trace/metrics artifacts next to the report.
    write_obs_artifacts("fig11_micro");
}
