//! End-to-end obsd endpoint tests (ISSUE 10 acceptance): a live `Imp`
//! with the sharded backend serves all six telemetry endpoints over real
//! TCP while maintenance churns, the Prometheus exposition parses, a
//! deliberately wedged shard flips `/health` to degraded with a flight
//! dump captured, and running with the endpoint on changes **nothing**
//! observable — sketch states stay byte-identical to obsd off.

use imp_core::middleware::{Imp, ImpConfig, ImpResponse};
use imp_core::{HealthConfig, ObsConfig};
use imp_engine::Database;
use imp_storage::{row, DataType, Field, Schema};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

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
        health: HealthConfig {
            tick: Duration::from_millis(25),
            ..HealthConfig::default()
        },
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
                let targets = [
                    "/metrics",
                    "/metrics.json",
                    "/trace",
                    "/health",
                    "/sketches",
                    "/flight",
                ];
                for n in 0..12 {
                    let (status, body) = http_get(addr, targets[(i + n) % targets.len()]);
                    assert!(status == 200 || status == 503, "status {status} for {body}");
                    assert!(!body.is_empty());
                }
            })
        })
        .collect();
    churn(&mut imp, 6);
    // Churn ended with `maintain_all_stale()`: no update waits and no
    // maintenance runs from here on.
    let settled_at = health_tick(addr);
    for h in scrapers {
        h.join().unwrap();
    }

    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert_prometheus_parses(&metrics);
    assert!(metrics.contains("imp_sched_heartbeat"), "{metrics}");

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

    let (_, flight) = http_get(addr, "/flight");
    for kind in ["staged", "maintained", "published"] {
        assert!(
            flight.contains(&format!("\"kind\":\"{kind}\"")),
            "missing {kind}: {flight}"
        );
    }

    // The verdict comes from a ticker over heartbeats, queue depth and
    // windowed latencies, so a tick that lands mid-churn may judge a busy
    // worker. Judge the settled system instead: tick `settled_at + 2`
    // sampled after churn ended, and tick `settled_at + 3` compares it
    // against a sample that did too, so every rule sees the same idle
    // state however the threads were scheduled.
    let deadline = Instant::now() + Duration::from_secs(5);
    while health_tick(addr) < settled_at + 3 {
        assert!(Instant::now() < deadline, "health ticker stopped ticking");
        std::thread::sleep(Duration::from_millis(10));
    }
    let (status, health) = http_get(addr, "/health");
    assert_eq!(status, 200, "healthy system reported: {health}");
    assert!(health.contains("\"verdict\":\"ok\""), "{health}");
}

/// The tick number of the latest `/health` report.
fn health_tick(addr: SocketAddr) -> u64 {
    let (_, body) = http_get(addr, "/health");
    body.split_once("\"tick\":")
        .and_then(|(_, rest)| rest.split(',').next())
        .and_then(|tick| tick.parse().ok())
        .unwrap_or_else(|| panic!("no tick in {body}"))
}

#[test]
fn wedged_shard_flips_health_to_degraded_with_trip_dump() {
    let mut imp = Imp::new(seed_db(), config(2, true));
    let addr = imp.obsd_addr().unwrap();
    churn(&mut imp, 2);

    // Wedge: park every worker while updates keep being noted — frozen
    // heartbeats with updates waiting.
    let paused = imp.scheduler().unwrap().pause();
    for k in 0..KEYS {
        imp.execute(&format!("INSERT INTO ta VALUES ({k}, 1)"))
            .unwrap();
    }

    let deadline = Instant::now() + Duration::from_secs(5);
    let degraded = loop {
        let (status, body) = http_get(addr, "/health");
        if status == 503 {
            break body;
        }
        assert!(
            Instant::now() < deadline,
            "watchdog never fired; last report: {body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(degraded.contains("\"verdict\":\"degraded\""), "{degraded}");
    assert!(
        degraded.contains("shard_liveness"),
        "wrong rule: {degraded}"
    );

    // The ok→degraded transition captured a flight dump.
    let (status, trip) = http_get(addr, "/flight?trip=1");
    assert_eq!(status, 200, "no trip dump: {trip}");
    assert!(trip.contains("\"events\""), "{trip}");

    drop(paused);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        imp.maintain_all_stale().unwrap();
        let (status, _) = http_get(addr, "/health");
        if status == 200 {
            break;
        }
        assert!(Instant::now() < deadline, "health never recovered");
        std::thread::sleep(Duration::from_millis(10));
    }
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
