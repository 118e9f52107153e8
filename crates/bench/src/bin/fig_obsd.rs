//! Live telemetry plane experiment (`imp_core::obsd`).
//!
//! One sharded `Imp` serves its obsd endpoint while a fleet of **64+
//! concurrent scrape clients** hammers every route (`/metrics`,
//! `/metrics.json`, `/trace`, `/health`, `/sketches`, `/flight`) and the
//! main thread churns updates + maintenance through the scheduler. Three
//! claims, each **enforced by panic**:
//!
//! 1. **Overhead ≤ 10% (+ noise floor)** — windowed maintain-latency p99
//!    under full scrape load vs. an identical obsd-off system running
//!    the same churn, best of [`imp_bench::reps`] attempts, bounded by
//!    `1.10 × off + OVERHEAD_FLOOR_NS` (tail quantiles at smoke scale
//!    sit near the scheduler-jitter floor; a pure ratio would gate on
//!    noise).
//! 2. **Watchdog latency** — deliberately wedged workers (all parked,
//!    updates waiting) flip `/health` to degraded within
//!    **2 watchdog ticks**, naming `shard_liveness`, with a flight dump
//!    captured at the transition (`/flight?trip=1`).
//! 3. **No lost scrapes** — every request the fleet issues gets a
//!    well-formed response.
//!
//! Artifacts for `bench_check --check-obsd`: `OBSD_METRICS.prom`,
//! `OBSD_HEALTH.json`, `OBSD_FLIGHT.json` in `IMP_BENCH_OUT`. The
//! endpoint address honors `IMP_OBSD_ADDR` (default ephemeral); CI sets
//! a fixed port and `IMP_OBSD_LINGER_MS` to curl the live endpoint after
//! the run.

use imp_bench::*;
use imp_core::middleware::{Imp, ImpConfig};
use imp_core::{HealthConfig, HistSnapshot, ObsConfig};
use imp_data::queries;
use imp_data::synthetic::{load, SyntheticConfig};
use imp_data::workload::{insert_stream, WorkloadOp};
use imp_engine::Database;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TABLES: usize = 4;
const ROUNDS: usize = 4;
const SCRAPERS: usize = 64;
const ENDPOINTS: [&str; 6] = [
    "/metrics",
    "/metrics.json",
    "/trace",
    "/health",
    "/sketches",
    "/flight",
];
/// Watchdog cadence: fast enough that the wedge phase converges in
/// milliseconds, slow enough that a tick always sees fresh heartbeats.
const HEALTH_TICK: Duration = Duration::from_millis(25);
/// Per-client poll interval. 64 clients at this cadence keep a steady
/// ~640 req/s against the endpoint — an aggressive monitoring fleet,
/// not a CPU-saturating busy-loop (which would measure host-core
/// starvation, not obsd overhead; the harness must also pass on
/// single-core CI runners).
const SCRAPE_INTERVAL: Duration = Duration::from_millis(100);
/// Noise floor under the 10% overhead bound (same shape as the
/// bench_check gate: `factor × baseline + floor`; this harness, not
/// tier-1, is where obs overhead is bounded in wall clock — the
/// `obs_overhead` test counts allocations). At smoke scale a maintain p99 is ~100µs, where a few tens of
/// µs of scheduler jitter would dominate a pure ratio; at real scale the
/// floor is small against millisecond tails and the 10% bound governs.
const OVERHEAD_FLOOR_NS: u64 = 250_000;

fn table_names() -> Vec<String> {
    (0..TABLES).map(|i| format!("o{i}")).collect()
}

fn build_imp(obsd: bool, rows: usize, groups: i64) -> Imp {
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
            // Only the measured system gets the endpoint; the baseline
            // must not consult IMP_OBSD_ADDR, or CI's fixed port would
            // start a server on the obsd-"off" side too.
            obsd_addr: if obsd {
                std::env::var("IMP_OBSD_ADDR")
                    .ok()
                    .or_else(|| Some("127.0.0.1:0".to_string()))
            } else {
                Some(String::new()) // unbindable → explicit no endpoint
            },
            health: HealthConfig {
                tick: HEALTH_TICK,
                ..HealthConfig::default()
            },
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

/// The update stream of one churn round-trip (identical per system).
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

/// Maintain-latency histogram accumulated so far (empty before first run).
fn maint_hist(imp: &Imp) -> HistSnapshot {
    imp.obs()
        .maintain_latency()
        .unwrap_or_else(HistSnapshot::empty)
}

/// Bucket-wise window `cur − prev` (same math as the health burn-rate
/// windows): the p99 of only the samples recorded between two snapshots.
fn hist_window(prev: &HistSnapshot, cur: &HistSnapshot) -> HistSnapshot {
    let mut buckets = cur.buckets.clone();
    for (b, p) in buckets.iter_mut().zip(prev.buckets.iter()) {
        *b = b.saturating_sub(*p);
    }
    HistSnapshot {
        buckets,
        count: cur.count.saturating_sub(prev.count),
        sum: cur.sum.wrapping_sub(prev.sum),
        max: cur.max,
    }
}

/// `"tick":N` from a `/health` body.
fn health_tick(body: &str) -> u64 {
    body.split("\"tick\":")
        .nth(1)
        .and_then(|rest| {
            rest.chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .ok()
        })
        .unwrap_or_else(|| panic!("no tick in /health body: {body}"))
}

struct FleetResult {
    requests: u64,
    failures: u64,
    latencies_ns: Vec<u64>,
}

/// Run `SCRAPERS` concurrent clients against every endpoint until `stop`
/// flips, then return aggregate counts and per-request latencies.
fn scrape_fleet(addr: SocketAddr, stop: Arc<AtomicBool>) -> std::thread::JoinHandle<FleetResult> {
    std::thread::spawn(move || {
        let failures = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..SCRAPERS)
            .map(|i| {
                let stop = Arc::clone(&stop);
                let failures = Arc::clone(&failures);
                std::thread::spawn(move || {
                    let mut lat = Vec::new();
                    let mut n = 0usize;
                    while !stop.load(Ordering::Acquire) {
                        let target = ENDPOINTS[(i + n) % ENDPOINTS.len()];
                        let t0 = Instant::now();
                        match http_get(addr, target) {
                            Some((status, body))
                                if (status == 200 || status == 503) && !body.is_empty() =>
                            {
                                lat.push(t0.elapsed().as_nanos() as u64);
                            }
                            _ => {
                                failures.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        n += 1;
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
    })
}

/// The gate: obsd-on maintain p99 within `10% + floor` of obsd-off.
fn within_overhead_bound(p99_on: u64, p99_off: u64) -> bool {
    (p99_on as f64) <= (p99_off as f64) * 1.10 + OVERHEAD_FLOOR_NS as f64
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

    // ---- Phase 1: overhead under full scrape load, best of N attempts.
    // One system per side for the whole phase (a fixed IMP_OBSD_ADDR port
    // cannot be rebound immediately); attempts are windowed bucket-diffs
    // of the cumulative maintain histogram.
    let mut off = build_imp(false, rows, groups);
    assert!(off.obsd_addr().is_none(), "baseline must have no endpoint");
    let mut on = build_imp(true, rows, groups);
    let addr = on.obsd_addr().expect("obsd endpoint must bind");
    println!("obsd endpoint live on http://{addr} ({SCRAPERS} scrape clients)");

    let attempts = reps().max(3);
    let mut best_ratio = f64::INFINITY;
    let mut best = (0u64, 0u64); // (p99_on, p99_off) of the best attempt
    let mut fleet_total = FleetResult {
        requests: 0,
        failures: 0,
        latencies_ns: Vec::new(),
    };
    for attempt in 0..attempts {
        let off_before = maint_hist(&off);
        churn(&mut off, &updates);
        let p99_off = hist_window(&off_before, &maint_hist(&off)).p99().max(1);

        let stop = Arc::new(AtomicBool::new(false));
        let fleet = scrape_fleet(addr, Arc::clone(&stop));
        let on_before = maint_hist(&on);
        churn(&mut on, &updates);
        stop.store(true, Ordering::Release);
        let result = fleet.join().unwrap();
        let p99_on = hist_window(&on_before, &maint_hist(&on)).p99().max(1);

        assert_eq!(
            result.failures, 0,
            "attempt {attempt}: {} of {} scrapes failed",
            result.failures, result.requests
        );
        assert!(result.requests > 0, "fleet never got a scrape through");
        let ratio = p99_on as f64 / p99_off as f64;
        println!(
            "attempt {attempt}: maintain p99 on={p99_on}ns off={p99_off}ns \
             ratio={ratio:.3} ({} scrapes)",
            result.requests
        );
        if ratio < best_ratio {
            best_ratio = ratio;
            best = (p99_on, p99_off);
        }
        fleet_total.requests += result.requests;
        fleet_total.latencies_ns.extend(result.latencies_ns);
        if within_overhead_bound(best.0, best.1) {
            break;
        }
    }
    assert!(
        within_overhead_bound(best.0, best.1),
        "obsd overhead on maintain p99 exceeded 10% + {OVERHEAD_FLOOR_NS}ns floor \
         in every attempt (best: on={}ns off={}ns ratio {best_ratio:.3})",
        best.0,
        best.1
    );

    fleet_total.latencies_ns.sort_unstable();
    let scrape_p50 = percentile(&fleet_total.latencies_ns, 0.50);
    let scrape_p99 = percentile(&fleet_total.latencies_ns, 0.99);

    // ---- Phase 2: wedged workers → degraded within 2 watchdog ticks.
    let paused = on.scheduler().unwrap().pause();
    // Updates wait for the paused workers, so the liveness rule sees
    // frozen heartbeats *with work waiting* — with none waiting they
    // would just look idle.
    for name in table_names() {
        for op in insert_stream(&name, 6, delta, groups, rows * 8, 99) {
            let WorkloadOp::Update { sql, .. } = op else {
                unreachable!()
            };
            on.execute(&sql).unwrap();
        }
    }
    let (_, body) = http_get(addr, "/health").expect("health scrape");
    let t0 = health_tick(&body);
    let deadline = Instant::now() + Duration::from_secs(10);
    let (degraded_body, t1) = loop {
        let (status, body) = http_get(addr, "/health").expect("health scrape");
        if status == 503 {
            let t1 = health_tick(&body);
            break (body, t1);
        }
        assert!(
            Instant::now() < deadline,
            "watchdog never fired; last /health: {body}"
        );
        std::thread::sleep(HEALTH_TICK / 4);
    };
    let ticks_to_degraded = t1.saturating_sub(t0);
    assert!(
        ticks_to_degraded <= 2,
        "degraded at tick {t1}, wedged at tick {t0}: {ticks_to_degraded} ticks \
         (budget 2); body: {degraded_body}"
    );
    assert!(
        degraded_body.contains("shard_liveness"),
        "wrong firing rule: {degraded_body}"
    );
    let (trip_status, trip) = http_get(addr, "/flight?trip=1").expect("trip scrape");
    assert_eq!(trip_status, 200, "no flight dump at the trip: {trip}");
    assert!(trip.contains("\"events\""), "malformed trip dump: {trip}");
    println!(
        "wedged shard: degraded in {ticks_to_degraded} tick(s), \
         shard_liveness fired, trip dump {} bytes",
        trip.len()
    );

    // Artifacts while degraded state and flight history are interesting.
    let out_dir =
        std::path::PathBuf::from(std::env::var("IMP_BENCH_OUT").unwrap_or_else(|_| ".".into()));
    std::fs::create_dir_all(&out_dir).expect("create IMP_BENCH_OUT");
    let (_, metrics_prom) = http_get(addr, "/metrics").expect("metrics scrape");
    let (_, flight_json) = http_get(addr, "/flight").expect("flight scrape");
    for (name, contents) in [
        ("OBSD_METRICS.prom", &metrics_prom),
        ("OBSD_HEALTH.json", &degraded_body),
        ("OBSD_FLIGHT.json", &flight_json),
    ] {
        let path = out_dir.join(name);
        std::fs::write(&path, contents)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }

    // Un-wedge and verify recovery before reporting.
    drop(paused);
    on.maintain_all_stale().unwrap();
    on.scheduler().unwrap().drain();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, _) = http_get(addr, "/health").expect("health scrape");
        if status == 200 {
            break;
        }
        assert!(Instant::now() < deadline, "health never recovered");
        std::thread::sleep(HEALTH_TICK / 4);
    }

    if obs_enabled() {
        write_obs_artifacts_from("fig_obsd", on.obs());
    }

    let mut report = BenchReport::new("fig_obsd");
    report.add(
        Record::new("obsd", "overhead".to_string())
            .ratio("maintain_p99_on_over_off", best_ratio)
            .metric("maintain_ns_p99_on", best.0 as f64, Unit::Ns, false)
            .metric("maintain_ns_p99_off", best.1 as f64, Unit::Ns, false)
            .metric("scrape_ns_p50", scrape_p50 as f64, Unit::Ns, false)
            .metric("scrape_ns_p99", scrape_p99 as f64, Unit::Ns, false)
            .count("scrape_requests", fleet_total.requests, false)
            .count("scrape_failures", fleet_total.failures, false),
    );
    report.add(
        Record::new("obsd", "wedge".to_string())
            .count("ticks_to_degraded", ticks_to_degraded, false)
            .count("trip_dump_bytes", trip.len() as u64, false),
    );

    print_table(
        &format!(
            "obsd: {SCRAPERS} scrape clients over {} endpoints during churn",
            ENDPOINTS.len()
        ),
        &[
            "p99 on",
            "p99 off",
            "ratio",
            "scrape p50",
            "scrape p99",
            "scrapes",
            "wedge ticks",
        ],
        &[vec![
            format!("{}ns", best.0),
            format!("{}ns", best.1),
            format!("{best_ratio:.3}"),
            ms(scrape_p50 as f64 / 1e6),
            ms(scrape_p99 as f64 / 1e6),
            fleet_total.requests.to_string(),
            ticks_to_degraded.to_string(),
        ]],
    );
    println!("overhead ≤ 10%+floor ✓  watchdog ≤ 2 ticks ✓  zero lost scrapes ✓");
    report.finish();

    let linger_ms: u64 = std::env::var("IMP_OBSD_LINGER_MS")
        .map(|s| parse_env("IMP_OBSD_LINGER_MS", &s))
        .unwrap_or(0);
    if linger_ms > 0 {
        println!("lingering {linger_ms}ms for external scrapes on http://{addr}");
        std::thread::sleep(Duration::from_millis(linger_ms));
    }
    drop(on);
}
