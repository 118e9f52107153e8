//! Tests of the instrument itself: generators, output checks, span
//! attribution, order statistics, the comparator, and that `BENCHMARK.json`
//! names exactly what the program reports.

use bench_cycle::compare::{self, Bound, Record, Verdict};
use bench_cycle::spans::{attribute, Recorder, Span};
use bench_cycle::stats::{highest_supported_tail, quartiles, spread, Latency};
use bench_cycle::workloads::{self, TableData, Workload};
use bench_cycle::{check, timed};
use imp_core::middleware::SketchStateView;
use imp_data::synthetic::{self, SyntheticConfig};
use imp_data::workload::{mixed_workload, WorkloadOp};
use imp_sketch::capture;
use std::collections::BTreeMap;

/// A 1U2Q stream over a 4 000-row `edb1`: every layer runs, in well under
/// a second even unoptimised.
fn tiny_workload(seed: u64) -> Workload {
    let cfg = SyntheticConfig {
        rows: 4_000,
        groups: 200,
        seed,
        chunk_capacity: 256,
        ..Default::default()
    };
    Workload {
        name: "tiny",
        tables: vec![TableData {
            name: cfg.name.clone(),
            schema: synthetic::schema(&cfg),
            rows: synthetic::generate_rows(&cfg),
            chunk_capacity: cfg.chunk_capacity,
        }],
        ops: mixed_workload(1, 2, 90, 10, cfg.groups, cfg.rows, seed).ops,
        sched_workers: 0,
        price_tracing: true,
    }
}

// ---- generators ----

#[test]
fn same_seed_same_stream_and_seeds_differ() {
    for name in workloads::NAMES {
        let a = workloads::generate(name, 7, 1).unwrap();
        let b = workloads::generate(name, 7, 1).unwrap();
        let c = workloads::generate(name, 8, 1).unwrap();
        assert_eq!(a.ops, b.ops, "{name}: same seed must give the same ops");
        assert_eq!(a.stream_hash(), b.stream_hash());
        assert_ne!(a.stream_hash(), c.stream_hash(), "{name}: seeds 7 and 8");
        for (x, y) in a.tables.iter().zip(&b.tables) {
            assert_eq!(x.rows, y.rows, "{name}: table {} differs", x.name);
        }
    }
    assert!(workloads::generate("no-such-workload", 1, 1).is_none());
}

#[test]
fn every_generated_statement_parses_and_shapes_hold() {
    for (name, updates_per_query) in [
        ("agg-read-heavy", 1.0 / 5.0),
        ("join-write-heavy", 3.0),
        ("chain-churn", 12.0),
        ("sharded-fanout", 3.0),
    ] {
        let w = workloads::generate(name, 3, 2).unwrap();
        let (mut queries, mut updates) = (0usize, 0usize);
        for op in &w.ops {
            let (sql, is_query) = match op {
                WorkloadOp::Query(sql) => (sql, true),
                WorkloadOp::Update { sql, .. } => (sql, false),
            };
            let stmt = imp_sql::parse_one(sql).unwrap_or_else(|e| panic!("{name}: {sql}: {e}"));
            assert_eq!(matches!(stmt, imp_sql::Statement::Select(_)), is_query);
            if is_query {
                queries += 1;
            } else {
                updates += 1;
            }
        }
        let ratio = updates as f64 / queries as f64;
        assert!(
            (ratio - updates_per_query).abs() / updates_per_query < 0.05,
            "{name}: {updates} updates per {queries} queries"
        );
    }
}

#[test]
fn run_seconds_worth_of_ops_supports_p95() {
    // The percentile rule needs ≥ 200 samples of each kind at the
    // `run_seconds` of BENCHMARK.json.
    for name in workloads::NAMES {
        let w = workloads::generate(name, 1, 15).unwrap();
        let queries = w
            .ops
            .iter()
            .filter(|op| matches!(op, WorkloadOp::Query(_)))
            .count();
        assert!(queries >= 200, "{name}: {queries} queries");
        assert!(w.ops.len() - queries >= 200, "{name}: too few updates");
    }
}

// ---- output checks ----

#[test]
fn clean_run_has_no_failures_and_counts_repeat() {
    let w = tiny_workload(5);
    let a = timed::run(&w, timed::setup(&w).unwrap(), 60);
    let b = timed::run(&w, timed::setup(&w).unwrap(), 60);
    assert_eq!(a.failures.count, 0, "{:?}", a.failures);
    assert!(!a.truncated);
    assert_eq!(a.query_ms.len(), 60);
    assert_eq!(a.update_ms.len(), 30);
    assert_eq!(a.fresh + a.maintained, 60);
    // Ops, the final catch-up excluded, plus one check per template.
    assert_eq!(a.attempted, 90 + w.warmup_queries().len() as u64);
    assert_eq!(
        (a.fresh, a.maintained, a.rows_affected, a.state_bytes),
        (b.fresh, b.maintained, b.rows_affected, b.state_bytes)
    );
    assert_eq!(a.final_states, b.final_states);
}

#[test]
fn a_flipped_result_row_or_sketch_bit_counts_as_failed() {
    let w = tiny_workload(5);
    let db = w.load();
    let templates = check::templates(&db, &w.warmup_queries(), 100);
    let t = &templates[0];

    let mut result = db.execute_plan(&t.plan).unwrap();
    assert!(check::result_matches(&db, &t.plan, &result));
    result.rows[0].1 += 1;
    assert!(!check::result_matches(&db, &t.plan, &result));

    let fresh = capture(&t.plan, &db, &t.pset).unwrap().sketch;
    let mut states: Vec<SketchStateView> = templates
        .iter()
        .map(|t| SketchStateView {
            template: String::new(),
            sql: t.sql.clone(),
            version: 0,
            bits: capture(&t.plan, &db, &t.pset)
                .unwrap()
                .sketch
                .bits()
                .clone(),
        })
        .collect();
    assert_eq!(check::stale_sketches(&db, &templates, &states), 0);
    let bit = !fresh.bits().get(0);
    states[0].bits.set(0, bit);
    assert_eq!(check::stale_sketches(&db, &templates, &states), 1);
    // A sketch the store lost counts too.
    states.pop();
    assert!(check::stale_sketches(&db, &templates, &states) >= 1);
}

#[test]
fn traced_run_attributes_the_whole_wall_and_matches_the_manifest() {
    let w = tiny_workload(9);
    let report = bench_cycle::run(&w, 9, 60, true).unwrap();
    assert!(report.correct(), "{:?}", report.failures);
    let value = |name: &str| {
        report
            .per_layer
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("no metric {name}"))
            .value
    };
    assert!(value("trace.unattributed_frac") < 0.01);
    assert!(value("sketch.coverage_frac") > 0.0 && value("sketch.coverage_frac") <= 1.0);
    assert_eq!(value("core.recaptures"), 0.0);
    assert!(value("engine.rows_skipped") > 0.0);
    let count = |name: &str| report.counts.iter().find(|(n, _)| *n == name).unwrap().1;
    assert_eq!(count("replica.fresh"), count("timed.fresh"));
    assert_eq!(count("replica.maintained"), count("timed.maintained"));
    assert_eq!(count("replica.rows_affected"), count("timed.rows_affected"));

    // BENCHMARK.json lists exactly the metrics and workloads the program has.
    let manifest = std::fs::read_to_string("../BENCHMARK.json").unwrap();
    let doc = imp_bench::report::json::parse(&manifest).unwrap();
    let names = |key: &str| -> Vec<String> {
        imp_bench::report::json::get_array(doc.as_object().unwrap(), key)
            .unwrap()
            .iter()
            .map(|m| imp_bench::report::json::get_str(m.as_object().unwrap(), "name").unwrap())
            .collect()
    };
    let reported = |metrics: &[bench_cycle::report::Metric]| -> Vec<String> {
        metrics.iter().map(|m| m.name.to_string()).collect()
    };
    assert_eq!(names("end_to_end"), reported(&report.end_to_end));
    assert_eq!(names("per_layer"), reported(&report.per_layer));
    assert_eq!(names("workloads"), workloads::NAMES);
    for line in [report.contract_line(), report.record_line()] {
        imp_bench::report::json::parse(&line).unwrap();
    }
}

// ---- spans ----

fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>, shadow: bool) -> Span {
    Span {
        name,
        start,
        end,
        parent,
        op_id: 1,
        shadow,
    }
}

#[test]
fn self_time_is_duration_minus_covered_child_interval() {
    let spans = [
        span("select", 10, 110, None, false),
        span("parse", 10, 30, Some(0), false),
        span("maintain", 40, 90, Some(0), false),
        span("join_delta", 50, 70, Some(2), false),
        span("update", 120, 150, None, false),
    ];
    let a = attribute(&spans, 200);
    assert_eq!(a.self_ns("select"), 100 - 20 - 50);
    assert_eq!(a.self_ns("parse"), 20);
    assert_eq!(a.self_ns("maintain"), 50 - 20);
    assert_eq!(a.self_ns("join_delta"), 20);
    assert_eq!(a.self_ns("update"), 30);
    assert_eq!(a.calls("select"), 1);
    assert_eq!(a.unattributed_ns, 200 - 100 - 30);
    assert_eq!(a.pipeline_ns() + a.shadow_ns + a.unattributed_ns, a.wall_ns);
}

#[test]
fn shadow_spans_are_excluded_from_sums_but_not_lost() {
    let spans = [
        span("select", 0, 100, None, false),
        span("shadow", 10, 50, Some(0), true),
        span("annotate", 10, 30, Some(1), true),
        span("normalize", 30, 45, Some(1), true),
        span("maintain", 50, 90, Some(0), false),
    ];
    let a = attribute(&spans, 100);
    // The shadow subtree is neither select's self time nor anyone else's.
    assert_eq!(a.self_ns("select"), 100 - 40 - 40);
    assert_eq!(a.self_ns("annotate"), 0);
    assert_eq!(a.shadow_by_name["annotate"], (20, 1));
    assert_eq!(a.shadow_by_name["normalize"], (15, 1));
    // Only the outermost shadow span counts towards the shadow total.
    assert_eq!(a.shadow_ns, 40);
    assert_eq!(a.pipeline_ns(), 20 + 40);
    assert_eq!(a.pipeline_ns() + a.shadow_ns + a.unattributed_ns, a.wall_ns);
}

#[test]
fn overlapping_children_are_covered_once() {
    let spans = [
        span("select", 0, 100, None, false),
        span("a", 10, 60, Some(0), false),
        span("b", 40, 80, Some(0), false),
    ];
    assert_eq!(attribute(&spans, 100).self_ns("select"), 100 - 70);
}

#[test]
fn recorder_links_parents_ops_and_inherits_shadow() {
    let mut rec = Recorder::new(true);
    rec.next_op();
    let root = rec.begin("select", false);
    let shadow = rec.begin("shadow", true);
    rec.time("annotate", false, || ());
    rec.end(shadow);
    rec.time("maintain", false, || ());
    rec.end(root);
    rec.next_op();
    rec.time("update", false, || ());
    let (spans, wall) = rec.finish();
    let view: Vec<_> = spans
        .iter()
        .map(|s| (s.name, s.parent, s.op_id, s.shadow))
        .collect();
    assert_eq!(
        view,
        [
            ("select", None, 1, false),
            ("shadow", Some(0), 1, true),
            ("annotate", Some(1), 1, true),
            ("maintain", Some(0), 1, false),
            ("update", None, 2, false),
        ]
    );
    for s in &spans {
        assert!(s.start <= s.end && s.end <= wall);
    }
    let a = attribute(&spans, wall);
    assert_eq!(a.pipeline_ns() + a.shadow_ns + a.unattributed_ns, wall);

    let mut off = Recorder::new(false);
    let id = off.begin("select", false);
    off.end(id);
    assert!(off.finish().0.is_empty());
}

// ---- order statistics ----

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(highest_supported_tail(99), None);
    assert_eq!(highest_supported_tail(100).unwrap().1, "p90");
    assert_eq!(highest_supported_tail(199).unwrap().1, "p90");
    assert_eq!(highest_supported_tail(200).unwrap().1, "p95");
    assert_eq!(highest_supported_tail(1_000).unwrap().1, "p99");
    assert_eq!(highest_supported_tail(10_000).unwrap().1, "p99.9");

    let samples: Vec<f64> = (1..=200).rev().map(f64::from).collect();
    let l = Latency::of(&samples);
    assert_eq!(l.n, 200);
    assert_eq!(l.p50, 100.5);
    assert!((l.p95 - 190.05).abs() < 1e-9);
    assert!(Latency::of(&[]).p50.is_nan());
}

#[test]
fn quartiles_match_pythons_exclusive_method() {
    // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
    // == [3.5, 13.5, 31.0]
    let v = [46.0, 1.0, 22.0, 2.0, 4.0, 37.0, 7.0, 11.0, 29.0, 16.0];
    assert_eq!(quartiles(&v), Some((3.5, 31.0)));
    assert_eq!(spread(&v), Some((31.0 - 3.5) / 13.5));
    // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
    assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
    assert_eq!(quartiles(&[10.0]), None);
}

// ---- comparator ----

fn record(workload: &str, ops_per_s: f64, query_ms: f64, probes: u64) -> Record {
    Record {
        workload: workload.into(),
        stream_key: "1/10/0".into(),
        exact_counts: workload != "sharded-fanout",
        failed: 0,
        truncated: false,
        metrics: BTreeMap::from([
            ("ops_per_s".to_string(), ops_per_s),
            ("query_ms_p50".to_string(), query_ms),
        ]),
        counts: BTreeMap::from([("replica.join_index_probes".to_string(), probes)]),
    }
}

fn test_bounds() -> Vec<Bound> {
    compare::bounds(
        r#"{"end_to_end": [
            {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
            {"name": "query_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
    )
    .unwrap()
}

fn verdicts(a: &[Record], b: &[Record]) -> (Vec<Verdict>, bool) {
    let c = compare::compare(a, b, &test_bounds());
    (c.rows.iter().map(|r| r.verdict).collect(), c.ok())
}

#[test]
fn comparator_verdicts() {
    let base: Vec<Record> = [100.0, 101.0, 99.0]
        .map(|v| record("chain-churn", v, 8.0, 5))
        .into();
    assert_eq!(
        verdicts(&base, &base),
        (vec![Verdict::Same, Verdict::Same], true)
    );

    // Throughput down 20 % is worse (higher is better); latency down 25 %
    // is better (lower is better). One `worse` fails the comparison.
    let changed: Vec<Record> = [80.0, 81.0, 79.0]
        .map(|v| record("chain-churn", v, 6.0, 5))
        .into();
    assert_eq!(
        verdicts(&base, &changed),
        (vec![Verdict::Worse, Verdict::Better], false)
    );

    // The same medians with run-to-run spread wider than the bound cannot
    // be told apart: unresolved, which does not fail.
    let noisy: Vec<Record> = [60.0, 80.0, 100.0]
        .map(|v| record("chain-churn", v, 8.0, 5))
        .into();
    assert_eq!(
        verdicts(&base, &noisy),
        (vec![Verdict::Unresolved, Verdict::Same], true)
    );
}

#[test]
fn comparator_flags_counts_failures_and_gaps() {
    let a = [record("chain-churn", 100.0, 8.0, 5)];
    let mut b = [record("chain-churn", 100.0, 8.0, 6)];
    let c = compare::compare(&a, &b, &test_bounds());
    assert!(!c.ok());
    assert!(c.problems[0].contains("replica.join_index_probes"), "{c:?}");

    // Counts of the threaded workload are reported, not compared.
    let sharded = |probes| [record("sharded-fanout", 100.0, 8.0, probes)];
    assert!(compare::compare(&sharded(5), &sharded(6), &test_bounds()).ok());

    b[0].counts.clear();
    b[0].failed = 2;
    let c = compare::compare(&a, &b, &test_bounds());
    assert!(!c.ok() && c.problems[0].contains("2 failed ops"), "{c:?}");

    b[0].failed = 0;
    b[0].metrics.remove("ops_per_s");
    let c = compare::compare(&a, &b, &test_bounds());
    assert!(!c.ok() && c.problems[0].contains("missing"), "{c:?}");
}

#[test]
fn run_set_files_round_trip() {
    let w = tiny_workload(2);
    let report = bench_cycle::run(&w, 2, 60, false).unwrap();
    let text = format!("{}\n\n{}\n", report.record_line(), report.record_line());
    let records = compare::records(&text).unwrap();
    assert_eq!(records.len(), 2);
    assert_eq!(records[0].workload, "tiny");
    assert_eq!(records[0].stream_key, "2/60/0");
    assert!(records[0].exact_counts && !records[0].truncated);
    assert_eq!(records[0].counts["timed.queries"], 60);
    assert_eq!(records[0].metrics["ops_per_s"], report.end_to_end[1].value);
    assert!(compare::records("{\"workload\": 3}").is_err());
}
