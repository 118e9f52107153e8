//! Observability must be a pure observer: running the *same* workload
//! with `ImpConfig::obs` fully enabled (histograms + tracing + a probe
//! subscriber) and fully disabled must produce byte-identical sketch
//! states and identical query answers, both with zero workers (the
//! caller maintains every sketch) and with a worker pool (routed
//! deltas). The enabled sides
//! double-check that observation actually happened — non-empty latency
//! histograms, recorded spans, delivered probe events — so this can't
//! pass vacuously.

use imp_core::middleware::{Imp, ImpConfig, ImpResponse};
use imp_core::{ObsConfig, ObsEvent, Probe};
use imp_engine::Database;
use imp_storage::{row, DataType, Field, Schema};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
        coalesce_budget: 8,
        obs,
        ..ImpConfig::default()
    }
}

const QUERIES: [&str; 3] = [
    "SELECT ka, sum(va) AS s FROM ta GROUP BY ka HAVING sum(va) > 40",
    "SELECT kb, sum(va) AS s FROM ta JOIN tb ON (ka = kb) GROUP BY kb HAVING sum(va) > 10",
    "SELECT ka, sum(va) AS s FROM ta GROUP BY ka ORDER BY s DESC LIMIT 2",
];

fn run_query(imp: &mut Imp, sql: &str) -> Vec<(imp_storage::Row, i64)> {
    let ImpResponse::Rows { result, .. } = imp.execute(sql).unwrap() else {
        panic!("expected rows for {sql}")
    };
    result.canonical()
}

/// A counting probe subscriber: proves typed events flow on the enabled
/// sides without perturbing anything.
#[derive(Default)]
struct CountingProbe {
    maintains: AtomicU64,
    queries: AtomicU64,
}

impl Probe for CountingProbe {
    fn on_event(&self, event: &ObsEvent) {
        match event {
            ObsEvent::MaintainRun { .. } => {
                self.maintains.fetch_add(1, Ordering::Relaxed);
            }
            ObsEvent::QueryAnswered { .. } => {
                self.queries.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

/// The deterministic workload: interleaved inserts/deletes across both
/// tables, periodic convergence, queries through the USE path each round.
fn run_workload(imp: &mut Imp) -> Vec<Vec<(imp_storage::Row, i64)>> {
    let mut answers = Vec::new();
    for sql in QUERIES {
        answers.push(run_query(imp, sql));
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
        imp.maintain_all_stale().unwrap();
        for sql in QUERIES {
            answers.push(run_query(imp, sql));
        }
    }
    answers
}

#[test]
fn obs_on_and_off_agree_on_both_backends() {
    // Four systems, one workload: in-line and sharded, obs off and on.
    let mut inline_off = Imp::new(seed_db(), config(0, ObsConfig::default()));
    let mut inline_on = Imp::new(seed_db(), config(0, ObsConfig::on()));
    let mut sharded_off = Imp::new(seed_db(), config(3, ObsConfig::default()));
    let mut sharded_on = Imp::new(seed_db(), config(3, ObsConfig::on()));

    let probe = Arc::new(CountingProbe::default());
    inline_on.subscribe_probe(probe.clone());
    sharded_on.subscribe_probe(probe.clone());

    let base = run_workload(&mut inline_off);
    for (name, imp) in [
        ("inline+obs", &mut inline_on),
        ("sharded", &mut sharded_off),
        ("sharded+obs", &mut sharded_on),
    ] {
        let answers = run_workload(imp);
        assert_eq!(base, answers, "query answers diverged on {name}");
    }

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
    // histograms, mode-labeled query histograms, spans, probe events.
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
        let trace = imp.trace_export();
        assert!(
            trace.contains("\"traceEvents\""),
            "{name}: trace export malformed"
        );
    }
    // The sharded+obs side routes through the scheduler pipeline, so its
    // counters must be live in the unified registry too.
    let text = sharded_on.metrics_text();
    assert!(text.contains("imp_sched_routed_batches"));
    assert!(text.contains("imp_sched_maintain_runs"));
    assert!(probe.maintains.load(Ordering::Relaxed) > 0);
    assert!(probe.queries.load(Ordering::Relaxed) > 0);
    // The disabled sides recorded nothing.
    assert!(inline_off.obs().maintain_latency().is_none());
    assert!(inline_off.trace_export().contains("\"traceEvents\":[]"));
}
