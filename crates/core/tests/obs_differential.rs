//! Observability must be a pure observer: running the *same* workload
//! with `ImpConfig::obs` fully enabled (histograms + tracing) and fully
//! disabled must produce byte-identical sketch states and identical
//! query answers, both with zero workers (the caller maintains every
//! sketch) and with a worker pool (sweeping workers). The enabled sides
//! double-check that observation actually happened — latency histograms
//! counting every query, recorded spans, one maintain-latency sample
//! per maintenance run — so this can't pass vacuously.

use imp_core::middleware::{Imp, ImpConfig, ImpResponse, QueryMode};
use imp_core::obs::QUERY_LATENCY;
use imp_core::ObsConfig;
use imp_engine::Database;
use imp_storage::{row, DataType, Field, Schema};

const KEYS: i64 = 6;

fn seed_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        "ta",
        Schema::new(vec![
            Field::new("ka", DataType::Int),
            Field::new("va", DataType::Int),
        ]),
    )
    .unwrap();
    db.create_table(
        "tb",
        Schema::new(vec![
            Field::new("kb", DataType::Int),
            Field::new("vb", DataType::Int),
        ]),
    )
    .unwrap();
    for k in 0..KEYS {
        db.table_mut("ta")
            .unwrap()
            .bulk_load([row![k, k * 10], row![k, 5]])
            .unwrap();
        db.table_mut("tb")
            .unwrap()
            .bulk_load([row![k, (k + 1) % KEYS]])
            .unwrap();
    }
    db
}

fn config(workers: usize, obs: ObsConfig) -> ImpConfig {
    ImpConfig {
        fragments: 4,
        topk_buffer: Some(4),
        sched_workers: workers,
        obs,
        ..ImpConfig::default()
    }
}

const QUERIES: [&str; 3] = [
    "SELECT ka, sum(va) AS s FROM ta GROUP BY ka HAVING sum(va) > 40",
    "SELECT kb, sum(va) AS s FROM ta JOIN tb ON (ka = kb) GROUP BY kb HAVING sum(va) > 10",
    "SELECT ka, sum(va) AS s FROM ta GROUP BY ka ORDER BY s DESC LIMIT 2",
];

/// What one workload run saw: every query answer, and the maintenance
/// reports handed to this thread (stale queries and its own sweeps).
#[derive(Default)]
struct Seen {
    answers: Vec<Vec<(imp_storage::Row, i64)>>,
    reports: u64,
}

fn run_query(imp: &mut Imp, sql: &str, seen: &mut Seen) {
    let ImpResponse::Rows { result, mode } = imp.execute(sql).unwrap() else {
        panic!("expected rows for {sql}")
    };
    if let QueryMode::Maintained(_) = mode {
        seen.reports += 1;
    }
    seen.answers.push(result.canonical());
}

/// The deterministic workload: interleaved inserts/deletes across both
/// tables, periodic convergence, queries through the USE path each round.
fn run_workload(imp: &mut Imp) -> Seen {
    let mut seen = Seen::default();
    for sql in QUERIES {
        run_query(imp, sql, &mut seen);
    }
    for round in 0..6 {
        for k in 0..KEYS {
            let v = (round * 13 + k * 7) % 60;
            imp.execute(&format!("INSERT INTO ta VALUES ({k}, {v})"))
                .unwrap();
            if (round + k) % 3 == 0 {
                imp.execute(&format!("DELETE FROM tb WHERE kb = {k}"))
                    .unwrap();
                imp.execute(&format!(
                    "INSERT INTO tb VALUES ({k}, {})",
                    (k + round) % KEYS
                ))
                .unwrap();
            }
        }
        if round % 2 == 1 {
            imp.evict_all_states().unwrap();
        }
        seen.reports += imp.maintain_all_stale().unwrap().len() as u64;
        for sql in QUERIES {
            run_query(imp, sql, &mut seen);
        }
    }
    seen
}

#[test]
fn obs_on_and_off_agree_on_both_backends() {
    // Four systems, one workload: in-line and sharded, obs off and on.
    let mut inline_off = Imp::new(seed_db(), config(0, ObsConfig::default()));
    let mut inline_on = Imp::new(seed_db(), config(0, ObsConfig::on()));
    let mut sharded_off = Imp::new(seed_db(), config(3, ObsConfig::default()));
    let mut sharded_on = Imp::new(seed_db(), config(3, ObsConfig::on()));

    let base = run_workload(&mut inline_off);
    let mut inline_reports = 0;
    for (name, imp) in [
        ("inline+obs", &mut inline_on),
        ("sharded", &mut sharded_off),
        ("sharded+obs", &mut sharded_on),
    ] {
        let seen = run_workload(imp);
        assert_eq!(
            base.answers, seen.answers,
            "query answers diverged on {name}"
        );
        if name == "inline+obs" {
            inline_reports = seen.reports;
        }
    }
    // Workers finish their current sweep before they park: from here on
    // no run is in flight, so every count below is final.
    let _paused = sharded_on.scheduler().unwrap().pause();

    let states = inline_off.sketch_states();
    assert!(!states.is_empty());
    for (name, imp) in [
        ("inline+obs", &inline_on),
        ("sharded", &sharded_off),
        ("sharded+obs", &sharded_on),
    ] {
        assert_eq!(
            states,
            imp.sketch_states(),
            "sketch states diverged on {name}"
        );
    }

    // The observed sides actually observed: per-template maintain
    // histograms, mode-labeled query histograms counting every query,
    // spans, and one `imp_maintain_latency_ns` sample per maintenance run.
    for (name, imp) in [("inline+obs", &inline_on), ("sharded+obs", &sharded_on)] {
        let maint = imp
            .obs()
            .maintain_latency()
            .unwrap_or_else(|| panic!("{name}: no maintain latency recorded"));
        assert!(maint.count > 0, "{name}: empty maintain histogram");
        assert!(maint.p99() >= maint.p50());
        let text = imp.metrics_text();
        assert!(
            text.contains("imp_maintain_latency_ns_count"),
            "{name}: maintain histogram missing from exposition"
        );
        assert!(
            text.contains("imp_query_latency_ns_count{mode=\"fresh\"}")
                || text.contains("imp_query_latency_ns_count{mode=\"maintained\"}"),
            "{name}: USE-path latency missing from exposition"
        );
        let queries = imp.obs().registry().merged_histogram(QUERY_LATENCY);
        assert_eq!(
            queries.map(|h| h.count),
            Some(base.answers.len() as u64),
            "{name}: every query is in the latency histogram"
        );
        let trace = imp.trace_export();
        assert!(
            trace.contains("\"traceEvents\""),
            "{name}: trace export malformed"
        );
        let runs = imp.scheduler().unwrap().stats().maintain_runs;
        assert!(runs > 0, "{name}: nothing was maintained");
        assert_eq!(
            maint.count, runs,
            "{name}: one maintain-latency sample per maintenance run"
        );
    }
    // Without workers, every run's report came back to this thread.
    let inline_samples = inline_on.obs().maintain_latency().unwrap().count;
    assert_eq!(inline_samples, inline_reports);
    // The sharded+obs side goes through the scheduler pipeline, so its
    // counters must be live in the unified registry too.
    let text = sharded_on.metrics_text();
    assert!(text.contains("imp_sched_staged_updates"));
    assert!(text.contains("imp_sched_maintain_runs"));
    // The disabled sides recorded nothing.
    assert!(inline_off.obs().maintain_latency().is_none());
    assert!(inline_off.trace_export().contains("\"traceEvents\":[]"));
}

/// A from-empty run reads its input from the engine under a `capture_spj`
/// span, over a plain scan and a join alike: only join maintenance records
/// `nary_delta`, so `/trace` reports no capture as join maintenance.
#[test]
fn a_capture_is_traced_as_a_capture_not_as_join_maintenance() {
    let mut imp = Imp::new(seed_db(), config(0, ObsConfig::on()));
    let count = |imp: &Imp, name: &str| {
        let spans = imp.obs().tracer().export_spans();
        spans.iter().filter(|s| s.name == name).count()
    };
    let over_scan = "SELECT ka, va FROM ta ORDER BY va DESC LIMIT 2";
    let over_join = "SELECT kb, min(va) AS m FROM ta JOIN tb ON (ka = kb) GROUP BY kb";
    let mut seen = Seen::default();
    run_query(&mut imp, over_scan, &mut seen);
    assert_eq!(count(&imp, "capture_spj"), 1);
    assert_eq!(count(&imp, "nary_delta"), 0, "a scan's capture is no join");
    run_query(&mut imp, over_join, &mut seen);
    assert_eq!(count(&imp, "capture_spj"), 2);
    assert_eq!(
        count(&imp, "nary_delta"),
        0,
        "a join's capture maintains none"
    );
    imp.execute("INSERT INTO tb VALUES (2, 3)").unwrap();
    run_query(&mut imp, over_join, &mut seen);
    assert_eq!(seen.reports, 1, "the stale query maintains");
    assert!(count(&imp, "nary_delta") > 0, "join maintenance is traced");
}
