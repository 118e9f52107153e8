//! End-to-end obsd endpoint tests: a live `Imp` with a worker pool
//! serves all four telemetry endpoints over real TCP while maintenance
//! churns, the Prometheus exposition parses, no endpoint waits on the
//! sketch store, and running with the endpoint on changes **nothing**
//! observable — sketch states stay byte-identical to obsd off.
//!
//! Three of the operator questions the telemetry exists to answer are
//! asked here from obsd output alone, with no duration asserted: where
//! an update's latency went (`/trace`), why a sketch is stale and why a
//! sketch was demoted (`/sketches`).

use imp_core::middleware::{Imp, ImpConfig, ImpResponse};
use imp_core::ObsConfig;
use imp_engine::Database;
use imp_sql::{QueryTemplate, Statement};
use imp_storage::{row, DataType, Field, Schema};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const KEYS: i64 = 6;
const ROUTES: [&str; 4] = ["/metrics", "/metrics.json", "/trace", "/sketches"];

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
    for k in 0..KEYS {
        db.table_mut("ta")
            .unwrap()
            .bulk_load([row![k, k * 10], row![k, 5]])
            .unwrap();
    }
    db
}

fn config(workers: usize, obsd: bool) -> ImpConfig {
    ImpConfig {
        fragments: 4,
        sched_workers: workers,
        obs: ObsConfig::metrics_only(),
        obsd_addr: obsd.then(|| "127.0.0.1:0".to_string()),
        ..ImpConfig::default()
    }
}

fn http_get(addr: SocketAddr, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {target} HTTP/1.1\r\nHost: imp\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split(' ').next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {raw}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Every non-comment exposition line must be `name{labels} value` with a
/// parseable numeric value and a sane metric-name charset.
fn assert_prometheus_parses(text: &str) {
    let mut series = 0;
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("exposition line without value: {line:?}");
        });
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("unparseable value in {line:?}"));
        let name = name_part.split('{').next().unwrap();
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in {line:?}"
        );
        series += 1;
    }
    assert!(series > 0, "empty exposition");
}

/// The value of the unlabeled series `name` in a Prometheus exposition.
fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no series {name} in {text}"))
}

/// The number after the first `"key":` in a JSON body.
fn number(body: &str, key: &str) -> f64 {
    let (_, rest) = body
        .split_once(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("no {key} in {body}"));
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end]
        .parse()
        .unwrap_or_else(|_| panic!("{key} is not a number in {body}"))
}

/// The string after the first `"key":` in a JSON body.
fn string<'a>(body: &'a str, key: &str) -> &'a str {
    let (_, rest) = body
        .split_once(&format!("\"{key}\":\""))
        .unwrap_or_else(|| panic!("no {key} in {body}"));
    rest.split('"').next().unwrap()
}

/// `/sketches` entries, one JSON object each.
fn sketch_entries(body: &str) -> Vec<&str> {
    body.split("{\"template\":").skip(1).collect()
}

/// One span of a `/trace` export.
struct Span<'a> {
    name: &'a str,
    ts: f64,
    id: f64,
    parent: f64,
}

fn spans(trace: &str) -> Vec<Span<'_>> {
    (trace.split("{\"name\":").skip(1))
        .map(|event| Span {
            name: event.trim_start_matches('"').split('"').next().unwrap(),
            ts: number(event, "ts"),
            id: number(event, "id"),
            parent: number(event, "parent"),
        })
        .collect()
}

fn churn(imp: &mut Imp, rounds: i64) {
    let q = "SELECT ka, sum(va) AS s FROM ta GROUP BY ka HAVING sum(va) > 40";
    let ImpResponse::Rows { .. } = imp.execute(q).unwrap() else {
        panic!("expected rows");
    };
    for round in 0..rounds {
        for k in 0..KEYS {
            imp.execute(&format!(
                "INSERT INTO ta VALUES ({k}, {})",
                (round * 7 + k) % 50
            ))
            .unwrap();
        }
        imp.maintain_all_stale().unwrap();
        imp.execute(q).unwrap();
    }
}

#[test]
fn obsd_serves_all_endpoints_during_live_maintenance() {
    let mut imp = Imp::new(seed_db(), config(2, true));
    let addr = imp.obsd_addr().expect("obsd endpoint running");

    // Scrape every endpoint from a small fleet of threads while the main
    // thread churns updates and maintenance through the scheduler.
    let scrapers: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                for n in 0..12 {
                    let (status, body) = http_get(addr, ROUTES[(i + n) % ROUTES.len()]);
                    assert_eq!(status, 200, "{body}");
                    assert!(!body.is_empty());
                }
            })
        })
        .collect();
    churn(&mut imp, 6);
    for h in scrapers {
        h.join().unwrap();
    }

    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert_prometheus_parses(&metrics);
    // Every pipeline event is counted: updates noted for the workers,
    // maintenance runs (counter and per-template latency samples), and
    // publishes as the snapshot epoch below.
    assert!(
        metric(&metrics, "imp_sched_staged_updates") > 0,
        "{metrics}"
    );
    assert!(metric(&metrics, "imp_sched_maintain_runs") > 0, "{metrics}");
    assert!(
        metrics.contains("imp_maintain_latency_ns_count"),
        "{metrics}"
    );

    let (_, json) = http_get(addr, "/metrics.json");
    assert!(json.contains("\"metrics\""));

    let (_, sketches) = http_get(addr, "/sketches");
    assert!(
        sketches.contains("\"template\""),
        "no published sketches: {sketches}"
    );
    assert!(
        sketches.contains("\"lifecycle\":\"maintained\""),
        "{sketches}"
    );
    assert!(sketches.contains("\"maintain_ns\""), "{sketches}");
    assert!(number(&sketches, "epoch") > 0.0, "{sketches}");
}

/// No endpoint waits on the sketch store: while this thread holds the
/// store's state lock (inside `Imp::with_sketch`), every endpoint still
/// answers within a liveness deadline. This is the property the old
/// wall-clock overhead gate of `fig_obsd` stood for: telemetry reads
/// published snapshots and atomics, never the store, so a scrape cannot
/// slow maintenance down by contending for it.
#[test]
fn no_endpoint_waits_on_the_sketch_store() {
    let mut imp = Imp::new(seed_db(), config(1, true));
    let addr = imp.obsd_addr().unwrap();
    churn(&mut imp, 1);
    let q = "SELECT ka, sum(va) AS s FROM ta GROUP BY ka HAVING sum(va) > 40";
    let Statement::Select(select) = imp_sql::parse_one(q).unwrap() else {
        panic!("not a select")
    };
    let held = imp.with_sketch(&QueryTemplate::of(&select), |_| {
        for target in ROUTES {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            write!(stream, "GET {target} HTTP/1.1\r\nHost: imp\r\n\r\n").unwrap();
            let mut raw = String::new();
            if let Err(e) = stream.read_to_string(&mut raw) {
                panic!("{target} did not answer while the store was held: {e}");
            }
            assert!(raw.starts_with("HTTP/1.1 200"), "{target}: {raw}");
        }
    });
    assert!(held.is_some(), "the sketch is stored");
}

#[test]
fn sketch_states_identical_with_obsd_on_and_off() {
    let mut with = Imp::new(seed_db(), config(2, true));
    let mut without = Imp::new(seed_db(), config(2, false));
    assert!(with.obsd_addr().is_some());
    assert!(without.obsd_addr().is_none());

    churn(&mut with, 6);
    churn(&mut without, 6);

    let states = without.sketch_states();
    assert!(!states.is_empty());
    assert_eq!(states, with.sketch_states(), "obsd perturbed sketch state");
}

/// Q1, where did this update's latency go: `/trace` holds the `update`
/// span, then the run that maintained its delta, and under that run the
/// operator spans that did the work, linked by parent id.
#[test]
fn trace_answers_where_an_updates_latency_went() {
    let config = ImpConfig {
        obs: ObsConfig::on(),
        ..config(0, true)
    };
    let mut imp = Imp::new(seed_db(), config);
    let addr = imp.obsd_addr().unwrap();
    let q = "SELECT ka, sum(va) AS s FROM ta GROUP BY ka HAVING sum(va) > 40";
    imp.execute(q).unwrap();
    imp.execute("INSERT INTO ta VALUES (1, 30)").unwrap();
    imp.execute(q).unwrap(); // the stale query maintains the sketch

    let (_, trace) = http_get(addr, "/trace");
    let spans = spans(&trace);
    let update = (spans.iter().find(|s| s.name == "update"))
        .unwrap_or_else(|| panic!("no update span: {trace}"));
    let maintain = (spans.iter())
        .find(|s| s.name.starts_with("maintain") && s.ts >= update.ts)
        .unwrap_or_else(|| panic!("no maintain span after the update: {trace}"));
    let parent_of = |id: f64| spans.iter().find(|s| s.id == id).map(|s| s.parent);
    let under_maintain = |span: &Span| {
        let mut at = span.parent;
        while at != 0.0 && at != maintain.id {
            at = parent_of(at).unwrap_or(0.0);
        }
        at == maintain.id
    };
    let operators: Vec<&str> = (spans.iter())
        .filter(|s| matches!(s.name, "aggregate_delta" | "nary_delta") && under_maintain(s))
        .map(|s| s.name)
        .collect();
    assert!(
        !operators.is_empty(),
        "no operator span under {}: {trace}",
        maintain.name
    );
}

/// Q2, why is this sketch stale: with the workers paused, `/sketches`
/// shows the update waiting for a sweep and the sketch's version behind
/// the version the update committed.
#[test]
fn sketches_answer_why_a_sketch_is_stale() {
    let mut imp = Imp::new(seed_db(), config(1, true));
    let addr = imp.obsd_addr().unwrap();
    imp.execute("SELECT ka, sum(va) AS s FROM ta GROUP BY ka HAVING sum(va) > 40")
        .unwrap();
    let paused = imp.scheduler().unwrap().pause();
    let ImpResponse::Affected { version, .. } =
        imp.execute("INSERT INTO ta VALUES (1, 30)").unwrap()
    else {
        panic!("expected an update");
    };

    let (_, sketches) = http_get(addr, "/sketches");
    assert!(number(&sketches, "queue_depth") >= 1.0, "{sketches}");
    let entries = sketch_entries(&sketches);
    assert_eq!(entries.len(), 1, "{sketches}");
    assert!(
        number(entries[0], "version") < version as f64,
        "the sketch is not behind commit {version}: {sketches}"
    );
    drop(paused);
}

/// Q4, why was this sketch demoted: after an advisor pass under a memory
/// budget, `/sketches` shows the cold sketch below `maintained` with a
/// lower advisor score than the hot one it kept.
#[test]
fn sketches_answer_why_a_sketch_was_demoted() {
    let mut db = Database::new();
    for table in ["hot_t", "cold_t"] {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Int),
            Field::new("v", DataType::Int),
        ]);
        db.create_table(table, schema).unwrap();
        // Group 0 dominates the sums, so `sum(v) > 1000` marks one
        // fragment (a selective sketch) and `sum(v) > 0` all of them.
        let rows = (0..8).flat_map(|g| (0..50).map(move |_| row![g, if g == 0 { 100 } else { 1 }]));
        db.table_mut(table).unwrap().bulk_load(rows).unwrap();
    }
    let config = ImpConfig {
        fragments: 8,
        sketch_memory_budget: Some(usize::MAX / 2),
        ..config(0, true)
    };
    let mut imp = Imp::new(db, config);
    let addr = imp.obsd_addr().unwrap();
    let hot = "SELECT g, sum(v) AS s FROM hot_t GROUP BY g HAVING sum(v) > 1000";
    imp.execute(hot).unwrap();
    imp.execute("SELECT g, sum(v) AS s FROM cold_t GROUP BY g HAVING sum(v) > 0")
        .unwrap();
    imp.execute(hot).unwrap();
    imp.advise().unwrap();

    let (_, sketches) = http_get(addr, "/sketches");
    let entries = sketch_entries(&sketches);
    let entry = |table: &str| {
        *(entries.iter().find(|e| e.contains(table)))
            .unwrap_or_else(|| panic!("no {table} sketch: {sketches}"))
    };
    let (hot, cold) = (entry("hot_t"), entry("cold_t"));
    assert_eq!(string(hot, "lifecycle"), "maintained", "{sketches}");
    assert_ne!(string(cold, "lifecycle"), "maintained", "{sketches}");
    assert!(
        number(cold, "advisor_score") < number(hot, "advisor_score"),
        "{sketches}"
    );
}
