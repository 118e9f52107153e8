//! Scheduler scale-out experiment (`imp_core::sched`).
//!
//! A multi-query workload — two sketch templates per table over K
//! synthetic tables — takes the same update stream through worker pools
//! of 1, 2, and 4 workers (plus the sequential in-line store as ground
//! truth). The workers are paused while the updates land, so a backlog
//! builds deterministically; the timed section is resume → drain, i.e.
//! pure maintenance.
//!
//! Reported per pool size: drain wall-clock, per-maintain latency
//! percentiles (p50/p95/p99 from the `imp_core::obs` histograms, which
//! run in metrics-only mode here and fully — spans included — under
//! `IMP_OBS=1`), maintenance runs, and the most updates that waited for a
//! sweep. The harness **panics** when the backlog does not fold (as many
//! maintenance runs as updates × sketches), when the parallel speedup
//! line cannot be computed, or when any pool's final sketch states differ
//! from the sequential store's (byte-identical results are the
//! scheduler's contract).

use criterion::Throughput;
use imp_bench::*;
use imp_core::middleware::{Imp, ImpConfig};
use imp_core::ObsConfig;
use imp_data::queries;
use imp_data::synthetic::{load, SyntheticConfig};
use imp_data::workload::{insert_stream, WorkloadOp};
use imp_engine::Database;
use std::time::Instant;

const TABLES: usize = 6;
const ROUNDS: usize = 4;

fn table_names() -> Vec<String> {
    (0..TABLES).map(|i| format!("s{i}")).collect()
}

fn build_imp(workers: usize, rows: usize, groups: i64) -> Imp {
    let mut db = Database::new();
    for name in table_names() {
        load(
            &mut db,
            &SyntheticConfig {
                name,
                rows,
                groups,
                ..Default::default()
            },
        )
        .unwrap();
    }
    let mut imp = Imp::new(
        db,
        ImpConfig {
            fragments: 50,
            columnar_min: columnar_min(),
            sched_workers: workers,
            // Maintain-latency histograms are always on here (they feed
            // the ungated p50/p95/p99 trajectory metrics below); full
            // tracing only under IMP_OBS=1.
            obs: if obs_enabled() {
                ObsConfig::on()
            } else {
                ObsConfig::metrics_only()
            },
            ..Default::default()
        },
    );
    // Two templates per table (structurally different — same structure
    // with different constants would template-match and reuse instead of
    // capturing): 2·K sketches, each table's batch shared by two.
    for name in table_names() {
        imp.execute(&queries::q_groups(&name, 1_600)).unwrap();
        imp.execute(&queries::q_having(&name, 3)).unwrap();
    }
    assert_eq!(imp.sketch_count(), 2 * TABLES, "every query must capture");
    imp
}

fn main() {
    let rows = scaled(30_000, 500);
    let groups = 200i64;
    let delta = scaled(2_000, 25);

    // The identical update stream for every configuration: ROUNDS
    // interleaved insert batches per table.
    let updates: Vec<Vec<String>> = (0..ROUNDS)
        .map(|round| {
            table_names()
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    let ops = insert_stream(name, ROUNDS, delta, groups, rows * 4, 7 + i as u64);
                    let WorkloadOp::Update { sql, .. } = ops[round].clone() else {
                        unreachable!()
                    };
                    sql
                })
                .collect()
        })
        .collect();

    // Sequential ground truth.
    let mut seq = build_imp(0, rows, groups);
    for round in &updates {
        for sql in round {
            seq.execute(sql).unwrap();
        }
    }
    let (seq_time, _) = time_once(|| seq.maintain_all_stale().unwrap());
    let truth = seq.sketch_states();

    let mut report = BenchReport::new("fig_sched");
    let seq_maint = seq
        .obs()
        .maintain_latency()
        .expect("seq store maintained with metrics on");
    report.add(
        Record::new("sched", "seq".to_string())
            .time("drain", seq_time)
            .metric("maintain_ns_p50", seq_maint.p50() as f64, Unit::Ns, false)
            .metric("maintain_ns_p95", seq_maint.p95() as f64, Unit::Ns, false)
            .metric("maintain_ns_p99", seq_maint.p99() as f64, Unit::Ns, false),
    );
    let mut rows_out = Vec::new();
    let mut drain_ms = Vec::new();
    for workers in [1usize, 2, 4] {
        let mut imp = build_imp(workers, rows, groups);
        let paused = imp.scheduler().unwrap().pause();
        for round in &updates {
            for sql in round {
                imp.execute(sql).unwrap();
            }
        }
        let max_depth = imp.scheduler().unwrap().stats().per_shard[0].max_depth;
        let t0 = Instant::now();
        paused.resume();
        imp.scheduler().unwrap().drain();
        let drained = t0.elapsed();
        let stats = imp.scheduler().unwrap().stats();

        // Each table's ROUNDS parked updates fold into fewer runs of its
        // two sketches than one per update.
        let updates = (ROUNDS * TABLES) as u64;
        let sketches = imp.sketch_count() as u64;
        assert!(
            stats.maintain_runs < updates * sketches,
            "the backlog never folded with {workers} workers: {stats:?}"
        );
        assert_eq!(
            imp.sketch_states(),
            truth,
            "{workers}-worker pool diverged from the sequential store"
        );

        // Ingested rows per wall-clock second of drain, through the
        // criterion-shim throughput helper (never gated — higher is
        // better; the gated `drain` time catches regressions).
        let total_rows = (ROUNDS * TABLES * delta) as u64;
        let rows_per_sec = criterion::sample_stats(&[drained])
            .throughput_per_sec(Throughput::Elements(total_rows))
            .unwrap_or(0.0);

        // Per-maintain latency tail across every worker of this pool,
        // from the unified obs registry (trajectory-only — the gated
        // `drain` wall clock catches regressions).
        let maint = imp
            .obs()
            .maintain_latency()
            .expect("drained pool recorded maintain latencies");
        if obs_enabled() && workers == 4 {
            // Full-instrumentation run: export the largest pool's
            // trace/metrics artifacts while its hub is still live.
            write_obs_artifacts_from("fig_sched", imp.obs());
        }

        report.add(
            Record::new("sched", format!("w{workers}"))
                .time("drain", drained)
                .ratio("rows_per_sec", rows_per_sec)
                .metric("maintain_ns_p50", maint.p50() as f64, Unit::Ns, false)
                .metric("maintain_ns_p95", maint.p95() as f64, Unit::Ns, false)
                .metric("maintain_ns_p99", maint.p99() as f64, Unit::Ns, false)
                .count("maintain_runs", stats.maintain_runs, true)
                .count("max_queue_depth", max_depth, false),
        );
        drain_ms.push(drained.as_secs_f64() * 1e3);
        rows_out.push(vec![
            workers.to_string(),
            ms(drained.as_secs_f64() * 1e3),
            stats.maintain_runs.to_string(),
            max_depth.to_string(),
        ]);
    }

    print_table(
        &format!(
            "sched: {TABLES} tables x 2 sketches, {ROUNDS} rounds x {delta} rows/table \
             (seq maintain_all_stale {})",
            ms(seq_time.as_secs_f64() * 1e3)
        ),
        &["workers", "drain", "runs", "max q"],
        &rows_out,
    );

    let speedup2 = drain_ms[0] / drain_ms[1].max(1e-9);
    let speedup4 = drain_ms[0] / drain_ms[2].max(1e-9);
    assert!(speedup2.is_finite() && speedup4.is_finite());
    report.add(
        Record::new("sched", "speedup".to_string())
            .ratio("w2_over_w1", speedup2)
            .ratio("w4_over_w1", speedup4),
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\nparallel speedup over 1 worker: x{speedup2:.2} (2 workers), x{speedup4:.2} (4 workers) \
         on {cores} core(s){}",
        if cores < 2 {
            " — single-core host, workers time-slice (speedup needs ≥2 cores)"
        } else {
            ""
        }
    );
    println!("all pools byte-identical to the sequential store ✓");
    report.finish();
}
