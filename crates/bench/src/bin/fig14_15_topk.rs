//! Figures 14 & 15: top-k maintenance under deletion strategies.
//!
//! §8.4.3: a top-10 query over a table of ~50k tuples / 5k groups; the
//! top-k state stores only the best l ∈ {20, 50, 100} entries; deletion
//! strategies: (1) always delete the 2 minimal groups, (2) delete random
//! tuples, (3) R-M ratios 2:1 and 4:1. Fig. 14 reports runtime (recaptures
//! dominate), Fig. 15 the state memory over the update sequence.

use imp_bench::*;
use imp_core::maintain::SketchMaintainer;
use imp_core::ops::OpConfig;
use imp_data::queries;
use imp_data::synthetic::{load, SyntheticConfig};
use imp_data::workload::{topk_delete_stream, TopKDeleteStrategy, WorkloadOp};
use imp_engine::Database;
use std::sync::Arc;

fn run_strategy(
    strategy: TopKDeleteStrategy,
    label: &str,
    rows: usize,
    groups: i64,
    out14: &mut Vec<Vec<String>>,
    out15: &mut Vec<Vec<String>>,
    report: &mut BenchReport,
) {
    let updates = scaled(150, 30);
    for l in [20usize, 50, 100] {
        let mut db = Database::new();
        load(
            &mut db,
            &SyntheticConfig {
                name: "tk".into(),
                rows,
                groups,
                ..Default::default()
            },
        )
        .unwrap();
        let sql = queries::q_topk("tk", 10);
        let plan = db.plan_sql(&sql).unwrap();
        let pset = pset_for(&db, "tk", "a", 100);
        let cfg = OpConfig {
            topk_buffer: Some(l),
            minmax_buffer: Some(l),
            ..OpConfig::default()
        };
        let (mut m, _) =
            SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), cfg, true).unwrap();
        let stream = topk_delete_stream("tk", strategy, updates, 20, groups, rows, 5);
        let mut times = Vec::new();
        let mut recaptures = 0usize;
        let mut mem_samples: Vec<usize> = Vec::new();
        for op in &stream {
            let WorkloadOp::Update { sql, .. } = op else {
                continue;
            };
            db.execute_sql(sql).unwrap();
            let (t, report) = time_once(|| m.maintain(&db).unwrap());
            times.push(t);
            if report.recaptured {
                recaptures += 1;
            }
            mem_samples.push(report.state_bytes);
        }
        out14.push(vec![
            label.to_string(),
            l.to_string(),
            ms(median_ms(times.clone())),
            recaptures.to_string(),
        ]);
        // Memory trajectory: start / quartiles / end (Fig. 15 curves).
        let pick = |f: f64| mem_samples[((mem_samples.len() - 1) as f64 * f) as usize];
        report.add(
            Record::new("topk", format!("{label}/l{l}"))
                .time_stats("maintain", &criterion::sample_stats(&times))
                .count("recaptures", recaptures as u64, true)
                .heap("state_bytes_start", pick(0.0) as u64)
                .heap("state_bytes_end", pick(1.0) as u64),
        );
        out15.push(vec![
            label.to_string(),
            l.to_string(),
            format!("{:.1}KB", pick(0.0) as f64 / 1e3),
            format!("{:.1}KB", pick(0.25) as f64 / 1e3),
            format!("{:.1}KB", pick(0.5) as f64 / 1e3),
            format!("{:.1}KB", pick(0.75) as f64 / 1e3),
            format!("{:.1}KB", pick(1.0) as f64 / 1e3),
        ]);
    }
}

fn main() {
    let rows = scaled(20_000, 5_000);
    let groups = (rows / 10) as i64; // ~10 tuples per group, as in §8.4.3
    println!("Fig. 14/15 — top-k deletion strategies ({rows} rows, {groups} groups)");
    let mut out14 = Vec::new();
    let mut out15 = Vec::new();
    let mut report = BenchReport::new("fig14_15_topk");
    run_strategy(
        TopKDeleteStrategy::MinGroups,
        "min-groups",
        rows,
        groups,
        &mut out14,
        &mut out15,
        &mut report,
    );
    run_strategy(
        TopKDeleteStrategy::Ratio {
            random: 2,
            min_group: 1,
        },
        "2:1",
        rows,
        groups,
        &mut out14,
        &mut out15,
        &mut report,
    );
    run_strategy(
        TopKDeleteStrategy::Ratio {
            random: 4,
            min_group: 1,
        },
        "4:1",
        rows,
        groups,
        &mut out14,
        &mut out15,
        &mut report,
    );
    run_strategy(
        TopKDeleteStrategy::Random,
        "random",
        rows,
        groups,
        &mut out14,
        &mut out15,
        &mut report,
    );
    print_table(
        "Fig. 14: median maintenance time + full recaptures per run",
        &["strategy", "l", "median", "recaptures"],
        &out14,
    );
    print_table(
        "Fig. 15: state memory over the update sequence (quartiles)",
        &["strategy", "l", "0%", "25%", "50%", "75%", "100%"],
        &out15,
    );
    report.finish();
}
