//! Live telemetry plane experiment (`imp_core::obsd`).
//!
//! One `Imp` with a worker pool serves its obsd endpoint while a fleet of
//! **64 concurrent scrape clients** hammers every route (`/metrics`,
//! `/metrics.json`, `/trace`, `/sketches`) and the main thread churns
//! updates + maintenance through the scheduler, repeating its update
//! stream until every client has completed at least
//! [`SCRAPES_UNDER_CHURN`] requests since the churn began. One claim is
//! **enforced by panic**: **no lost scrapes** — every request the fleet
//! issues gets a well-formed response. Scrape latencies are printed, not gated; that
//! no endpoint waits on the sketch store is tier-1's
//! `obsd_integration::no_endpoint_waits_on_the_sketch_store`.
//!
//! Artifact for `bench_check --check-obsd`: `OBSD_METRICS.prom` in
//! `IMP_BENCH_OUT`. The endpoint address honors `IMP_OBSD_ADDR` (default
//! ephemeral); CI sets a fixed port and `IMP_OBSD_LINGER_MS` to curl the
//! live endpoint after the run.

use imp_bench::*;
use imp_core::middleware::{Imp, ImpConfig};
use imp_core::ObsConfig;
use imp_data::queries;
use imp_data::synthetic::{load, SyntheticConfig};
use imp_data::workload::{insert_stream, WorkloadOp};
use imp_engine::Database;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TABLES: usize = 4;
const ROUNDS: usize = 4;
const SCRAPERS: usize = 64;
const ENDPOINTS: [&str; 4] = ["/metrics", "/metrics.json", "/trace", "/sketches"];
/// Per-client poll interval. 64 clients at this cadence keep a steady
/// ~640 req/s against the endpoint — an aggressive monitoring fleet,
/// not a CPU-saturating busy-loop (which would measure host-core
/// starvation, not obsd overhead; the harness must also pass on
/// single-core CI runners).
const SCRAPE_INTERVAL: Duration = Duration::from_millis(100);
/// Requests each client completes while the churn runs: the churn repeats
/// until every client has, so the gate sees scrapes beside the churn, not
/// only after it.
const SCRAPES_UNDER_CHURN: u64 = 2;
/// Liveness bound on the fleet: its first whole scrape, which the churn
/// waits for, and every client's [`SCRAPES_UNDER_CHURN`] requests.
const LIVENESS_DEADLINE: Duration = Duration::from_secs(30);

fn table_names() -> Vec<String> {
    (0..TABLES).map(|i| format!("o{i}")).collect()
}

fn build_imp(rows: usize, groups: i64) -> Imp {
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
            sched_workers: 2,
            obs: if obs_enabled() {
                ObsConfig::on()
            } else {
                ObsConfig::metrics_only()
            },
            obsd_addr: Some(
                std::env::var("IMP_OBSD_ADDR").unwrap_or_else(|_| "127.0.0.1:0".into()),
            ),
            ..Default::default()
        },
    );
    for name in table_names() {
        imp.execute(&queries::q_groups(&name, 1_600)).unwrap();
        imp.execute(&queries::q_having(&name, 3)).unwrap();
    }
    assert_eq!(imp.sketch_count(), 2 * TABLES, "every query must capture");
    imp
}

fn http_get(addr: SocketAddr, target: &str) -> Option<(u16, String)> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .ok()?;
    write!(stream, "GET {target} HTTP/1.1\r\nHost: imp\r\n\r\n").ok()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).ok()?;
    let status = raw
        .strip_prefix("HTTP/1.1 ")?
        .split(' ')
        .next()?
        .parse()
        .ok()?;
    let body = raw.split_once("\r\n\r\n")?.1.to_string();
    Some((status, body))
}

/// The update stream of the churn.
fn update_stream(delta: usize, groups: i64, rows: usize) -> Vec<Vec<String>> {
    (0..ROUNDS)
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
        .collect()
}

fn churn(imp: &mut Imp, updates: &[Vec<String>]) {
    for round in updates {
        for sql in round {
            imp.execute(sql).unwrap();
        }
        imp.maintain_all_stale().unwrap();
    }
    imp.scheduler().unwrap().drain();
}

struct FleetResult {
    requests: u64,
    failures: u64,
    latencies_ns: Vec<u64>,
}

/// Requests each client has completed (answered or failed), by client.
type Completed = Arc<Vec<AtomicU64>>;

fn completed_now(completed: &Completed) -> Vec<u64> {
    completed
        .iter()
        .map(|n| n.load(Ordering::Acquire))
        .collect()
}

/// Run `SCRAPERS` concurrent clients against every endpoint until `stop`
/// flips, then return aggregate counts and per-request latencies. The
/// receiver gets a message once the first scrape has come back whole;
/// [`Completed`] counts each client's requests as they complete.
fn scrape_fleet(
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
) -> (
    std::thread::JoinHandle<FleetResult>,
    Receiver<()>,
    Completed,
) {
    let (first_tx, first_rx) = sync_channel(1);
    let completed: Completed = Arc::new((0..SCRAPERS).map(|_| AtomicU64::new(0)).collect());
    let counts = Arc::clone(&completed);
    let fleet = std::thread::spawn(move || {
        let failures = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..SCRAPERS)
            .map(|i| {
                let stop = Arc::clone(&stop);
                let failures = Arc::clone(&failures);
                let first_tx = first_tx.clone();
                let counts = Arc::clone(&counts);
                std::thread::spawn(move || {
                    let mut lat = Vec::new();
                    let mut n = 0usize;
                    while !stop.load(Ordering::Acquire) {
                        let target = ENDPOINTS[(i + n) % ENDPOINTS.len()];
                        let t0 = Instant::now();
                        match http_get(addr, target) {
                            Some((200, body)) if !body.is_empty() => {
                                lat.push(t0.elapsed().as_nanos() as u64);
                                let _ = first_tx.try_send(());
                            }
                            _ => {
                                failures.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        n += 1;
                        counts[i].fetch_add(1, Ordering::AcqRel);
                        std::thread::sleep(SCRAPE_INTERVAL);
                    }
                    lat
                })
            })
            .collect();
        let mut latencies_ns = Vec::new();
        for h in handles {
            latencies_ns.extend(h.join().unwrap());
        }
        FleetResult {
            requests: latencies_ns.len() as u64 + failures.load(Ordering::Relaxed),
            failures: failures.load(Ordering::Relaxed),
            latencies_ns,
        }
    });
    (fleet, first_rx, completed)
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

fn main() {
    let rows = scaled(20_000, 500);
    let groups = 200i64;
    let delta = scaled(1_500, 25);
    let updates = update_stream(delta, groups, rows);

    let mut imp = build_imp(rows, groups);
    let addr = imp.obsd_addr().expect("obsd endpoint must bind");
    println!("obsd endpoint live on http://{addr} ({SCRAPERS} scrape clients)");

    let stop = Arc::new(AtomicBool::new(false));
    let (fleet, first_scrape, completed) = scrape_fleet(addr, Arc::clone(&stop));
    // Churn only under load: at smoke scale it can finish before a
    // scraper's first request comes back.
    first_scrape
        .recv_timeout(LIVENESS_DEADLINE)
        .unwrap_or_else(|_| panic!("fleet never got a scrape through"));
    // Repeat the stream until every client has scraped beside it: at smoke
    // scale one pass is shorter than one scrape interval.
    let began = completed_now(&completed);
    let churn_start = Instant::now();
    let mut passes = 0;
    loop {
        churn(&mut imp, &updates);
        passes += 1;
        let now = completed_now(&completed);
        if now
            .iter()
            .zip(&began)
            .all(|(n, b)| n - b >= SCRAPES_UNDER_CHURN)
        {
            break;
        }
        assert!(
            churn_start.elapsed() < LIVENESS_DEADLINE,
            "after {passes} churn passes a client has completed fewer than \
             {SCRAPES_UNDER_CHURN} scrapes"
        );
    }
    println!("{passes} churn passes until every client scraped {SCRAPES_UNDER_CHURN} times");
    stop.store(true, Ordering::Release);
    let mut fleet = fleet.join().unwrap();
    assert_eq!(
        fleet.failures, 0,
        "{} of {} scrapes failed",
        fleet.failures, fleet.requests
    );
    fleet.latencies_ns.sort_unstable();
    let scrape_p50 = percentile(&fleet.latencies_ns, 0.50);
    let scrape_p99 = percentile(&fleet.latencies_ns, 0.99);

    let out_dir =
        std::path::PathBuf::from(std::env::var("IMP_BENCH_OUT").unwrap_or_else(|_| ".".into()));
    std::fs::create_dir_all(&out_dir).expect("create IMP_BENCH_OUT");
    let (_, metrics_prom) = http_get(addr, "/metrics").expect("metrics scrape");
    let path = out_dir.join("OBSD_METRICS.prom");
    std::fs::write(&path, metrics_prom)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("wrote {}", path.display());

    if obs_enabled() {
        write_obs_artifacts_from("fig_obsd", imp.obs());
    }

    let mut report = BenchReport::new("fig_obsd");
    report.add(
        Record::new("obsd", "scrape".to_string())
            .metric("scrape_ns_p50", scrape_p50 as f64, Unit::Ns, false)
            .metric("scrape_ns_p99", scrape_p99 as f64, Unit::Ns, false)
            .count("scrape_requests", fleet.requests, false)
            .count("scrape_failures", fleet.failures, false),
    );
    print_table(
        &format!(
            "obsd: {SCRAPERS} scrape clients over {} endpoints during churn",
            ENDPOINTS.len()
        ),
        &["scrape p50", "scrape p99", "scrapes"],
        &[vec![
            ms(scrape_p50 as f64 / 1e6),
            ms(scrape_p99 as f64 / 1e6),
            fleet.requests.to_string(),
        ]],
    );
    println!("zero lost scrapes ✓");
    report.finish();

    let linger_ms: u64 = std::env::var("IMP_OBSD_LINGER_MS")
        .map(|s| parse_env("IMP_OBSD_LINGER_MS", &s))
        .unwrap_or(0);
    if linger_ms > 0 {
        println!("lingering {linger_ms}ms for external scrapes on http://{addr}");
        std::thread::sleep(Duration::from_millis(linger_ms));
    }
    drop(imp);
}
