//! Declarative health watchdogs over registry snapshots.
//!
//! A [`HealthMonitor`] is evaluated once per tick (by the ticker thread
//! [`spawn_health_ticker`] starts, or directly in tests) against a
//! [`MetricsRegistry::sample`](super::registry::MetricsRegistry::sample)
//! snapshot — watchdogs never touch scheduler internals, locks, or the
//! store itself, so a wedged shard cannot wedge its own diagnosis. Three
//! rule families:
//!
//! * **`shard_liveness`** — no worker's `imp_sched_heartbeat` gauge
//!   advanced since the previous tick while `imp_sched_queue_depth` (the
//!   updates noted since the last sweep began) was non-zero: every worker
//!   is parked, deadlocked, or stuck inside one maintain with work
//!   waiting. One live worker sweeps the whole store, so one frozen
//!   heartbeat beside an advancing one does not fire.
//! * **`queue_depth`** — more updates wait for a sweep than the
//!   configured limit (a backlog building faster than sweeps clear it).
//! * **`maintain_p99_slo`** — the windowed maintain-latency p99 exceeds
//!   the SLO in **both** a short (one tick) and a long
//!   ([`HealthConfig::long_window_ticks`]) window: the classic 2-window
//!   burn-rate alert, immune to both single-spike noise (short window
//!   alone) and stale history (cumulative histogram alone). Windows are
//!   bucket-wise differences of the cumulative histogram snapshots.
//!
//! Each firing rule is reported by name in the [`HealthReport`] (and on
//! `/health`), emitted as a typed [`ObsEvent::WatchdogFired`] through the
//! probe registry, and — on the ok→degraded transition — triggers a
//! flight-recorder dump captured in [`HealthState::trip_dump`].

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use super::hist::HistSnapshot;
use super::registry::{json_string, MetricSample, SampleValue};
use super::{Obs, ObsEvent, MAINTAIN_LATENCY};

/// Watchdog thresholds and cadence (`ImpConfig::health`).
#[derive(Debug, Clone, PartialEq)]
pub struct HealthConfig {
    /// Evaluation interval of the ticker thread.
    pub tick: Duration,
    /// `queue_depth` fires above this many updates waiting for a sweep.
    pub queue_depth_limit: u64,
    /// `maintain_p99_slo` fires when the windowed maintain p99 exceeds
    /// this many nanoseconds in both burn-rate windows. 0 disables the
    /// rule.
    pub p99_slo_ns: u64,
    /// Long burn-rate window length, in ticks.
    pub long_window_ticks: usize,
}

impl Default for HealthConfig {
    fn default() -> HealthConfig {
        HealthConfig {
            tick: Duration::from_millis(50),
            queue_depth_limit: 192,
            p99_slo_ns: 1_000_000_000,
            long_window_ticks: 8,
        }
    }
}

/// Overall verdict of one evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No rule firing.
    Ok,
    /// At least one rule firing.
    Degraded,
}

impl Verdict {
    /// Lowercase name used on `/health`.
    pub fn as_str(&self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Degraded => "degraded",
        }
    }
}

/// One firing watchdog rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiringRule {
    /// Rule family name (`shard_liveness`, `queue_depth`,
    /// `maintain_p99_slo`).
    pub name: &'static str,
    /// Human-readable specifics (shard id, observed vs limit, …).
    pub detail: String,
}

/// Outcome of one [`HealthMonitor::tick`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// Monotone tick number (1-based; tick 1 has no previous state, so
    /// delta rules cannot fire on it).
    pub tick: u64,
    /// [`Verdict::Degraded`] iff `firing` is non-empty.
    pub verdict: Verdict,
    /// Every rule firing this tick.
    pub firing: Vec<FiringRule>,
}

impl Default for HealthReport {
    fn default() -> HealthReport {
        HealthReport {
            tick: 0,
            verdict: Verdict::Ok,
            firing: Vec::new(),
        }
    }
}

impl HealthReport {
    /// Deterministic JSON: `{"health":{"verdict":…,"tick":…,"firing":[…]}}`.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"health\":{\"verdict\":\"");
        out.push_str(self.verdict.as_str());
        out.push_str("\",\"tick\":");
        out.push_str(&self.tick.to_string());
        out.push_str(",\"firing\":[");
        for (i, rule) in self.firing.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"rule\":\"");
            out.push_str(rule.name);
            out.push_str("\",\"detail\":");
            json_string(&mut out, &rule.detail);
            out.push('}');
        }
        out.push_str("]}}");
        out
    }
}

/// Per-tick state carried between evaluations.
#[derive(Debug, Default)]
struct PrevTick {
    heartbeats: BTreeMap<String, u64>,
}

/// The watchdog evaluator (pure state machine over metric samples; the
/// ticker thread owns one, unit tests drive it directly).
#[derive(Debug)]
pub struct HealthMonitor {
    config: HealthConfig,
    tick: u64,
    prev: Option<PrevTick>,
    /// Cumulative merged maintain-latency snapshots, newest last; length
    /// capped at `long_window_ticks + 1` so the front is the long-window
    /// baseline.
    maint_window: VecDeque<HistSnapshot>,
}

/// Bucket-wise window difference of two cumulative snapshots.
fn hist_diff(now: &HistSnapshot, then: &HistSnapshot) -> HistSnapshot {
    let mut buckets = now.buckets.clone();
    for (b, t) in buckets.iter_mut().zip(then.buckets.iter()) {
        *b = b.saturating_sub(*t);
    }
    HistSnapshot {
        buckets,
        count: now.count.saturating_sub(then.count),
        sum: now.sum.wrapping_sub(then.sum),
        // The true window max is unknowable from cumulative snapshots;
        // the lifetime max only loosens the (bucket-clamped) quantiles.
        max: now.max,
    }
}

impl HealthMonitor {
    /// Fresh monitor (first tick only records baselines).
    pub fn new(config: HealthConfig) -> HealthMonitor {
        HealthMonitor {
            config,
            tick: 0,
            prev: None,
            maint_window: VecDeque::new(),
        }
    }

    /// The configured cadence (owned here so the ticker thread and tests
    /// agree on it).
    pub fn config(&self) -> &HealthConfig {
        &self.config
    }

    /// Evaluate every rule against one registry snapshot.
    pub fn tick(&mut self, samples: &[MetricSample]) -> HealthReport {
        self.tick += 1;
        let mut heartbeats: BTreeMap<String, u64> = BTreeMap::new();
        let mut depth = 0u64;
        let mut maint = HistSnapshot::empty();
        for s in samples {
            match &s.value {
                SampleValue::Gauge(v) if s.name == "imp_sched_heartbeat" => {
                    if let Some(worker) = s.label("worker") {
                        heartbeats.insert(worker.to_string(), *v);
                    }
                }
                SampleValue::Gauge(v) if s.name == "imp_sched_queue_depth" => depth = *v,
                SampleValue::Histogram(h) if s.name == MAINTAIN_LATENCY => {
                    maint.merge(h);
                }
                _ => {}
            }
        }

        let mut firing = Vec::new();

        // shard_liveness: every heartbeat frozen while updates wait.
        if let Some(prev) = &self.prev {
            let frozen = |(worker, hb): (&String, &u64)| prev.heartbeats.get(worker) == Some(hb);
            if depth > 0 && !heartbeats.is_empty() && heartbeats.iter().all(frozen) {
                firing.push(FiringRule {
                    name: "shard_liveness",
                    detail: format!(
                        "no heartbeat of {} worker(s) advanced with {depth} update(s) waiting",
                        heartbeats.len()
                    ),
                });
            }
        }

        // queue_depth: backlog beyond the limit.
        if depth > self.config.queue_depth_limit {
            firing.push(FiringRule {
                name: "queue_depth",
                detail: format!(
                    "{depth} updates waiting > limit {}",
                    self.config.queue_depth_limit
                ),
            });
        }

        // maintain_p99_slo: 2-window burn rate over windowed histograms.
        if self.config.p99_slo_ns > 0 {
            if let (Some(short_base), Some(long_base)) =
                (self.maint_window.back(), self.maint_window.front())
            {
                let short = hist_diff(&maint, short_base);
                let long = hist_diff(&maint, long_base);
                if short.count > 0
                    && long.count > 0
                    && short.p99() > self.config.p99_slo_ns
                    && long.p99() > self.config.p99_slo_ns
                {
                    firing.push(FiringRule {
                        name: "maintain_p99_slo",
                        detail: format!(
                            "maintain p99 {}ns (short) / {}ns (long {}-tick) > slo {}ns",
                            short.p99(),
                            long.p99(),
                            self.maint_window.len(),
                            self.config.p99_slo_ns
                        ),
                    });
                }
            }
            self.maint_window.push_back(maint);
            while self.maint_window.len() > self.config.long_window_ticks + 1 {
                self.maint_window.pop_front();
            }
        }

        self.prev = Some(PrevTick { heartbeats });
        HealthReport {
            tick: self.tick,
            verdict: if firing.is_empty() {
                Verdict::Ok
            } else {
                Verdict::Degraded
            },
            firing,
        }
    }
}

/// Shared health surface: the ticker thread publishes here, `/health`
/// (and tests) read — no lock is held across an evaluation.
#[derive(Debug, Default)]
pub struct HealthState {
    degraded: AtomicBool,
    latest: Mutex<HealthReport>,
    trip_dump: Mutex<Option<String>>,
}

impl HealthState {
    /// Fresh, `ok`, no report yet (tick 0).
    pub fn new() -> Arc<HealthState> {
        Arc::new(HealthState::default())
    }

    /// Publish one evaluation.
    pub fn publish(&self, report: HealthReport) {
        self.degraded
            .store(report.verdict == Verdict::Degraded, Ordering::Release);
        *self.latest.lock() = report;
    }

    /// Cheap degraded check (relaxed read of the latest verdict).
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// Latest full report.
    pub fn report(&self) -> HealthReport {
        self.latest.lock().clone()
    }

    /// Ticks evaluated so far.
    pub fn ticks(&self) -> u64 {
        self.latest.lock().tick
    }

    /// Store the flight dump captured at an ok→degraded transition.
    pub fn set_trip_dump(&self, dump: String) {
        *self.trip_dump.lock() = Some(dump);
    }

    /// The flight dump captured at the most recent ok→degraded
    /// transition, if any.
    pub fn trip_dump(&self) -> Option<String> {
        self.trip_dump.lock().clone()
    }
}

/// Handle owning the watchdog ticker thread; dropping it shuts the
/// thread down and joins it.
#[derive(Debug)]
pub struct HealthTicker {
    shutdown: crossbeam::channel::Sender<()>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for HealthTicker {
    fn drop(&mut self) {
        let _ = self.shutdown.send(());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Start the watchdog ticker: every `config.tick` it samples the hub's
/// registry, evaluates the monitor, publishes to `state`, emits one
/// [`ObsEvent::WatchdogFired`] per firing rule, and on the ok→degraded
/// transition captures a flight dump into the state (and stderr).
///
/// The loop blocks on `recv_timeout` against its shutdown channel
/// directly — deliberately not the shim's `select!`, whose registered
/// -waker path degrades to a 10 ms poll under contention (see the
/// `shims/crossbeam` fidelity notes) — so shutdown is immediate and the
/// cadence is exact.
pub fn spawn_health_ticker(
    obs: Arc<Obs>,
    state: Arc<HealthState>,
    config: HealthConfig,
) -> HealthTicker {
    let (shutdown, rx) = crossbeam::channel::bounded::<()>(1);
    let handle = std::thread::Builder::new()
        .name("imp-obs-health".into())
        .spawn(move || {
            let mut monitor = HealthMonitor::new(config);
            let mut was_degraded = false;
            loop {
                match rx.recv_timeout(monitor.config().tick) {
                    Ok(()) => break,
                    Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
                    Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                }
                let report = monitor.tick(&obs.registry().sample());
                let degraded = report.verdict == Verdict::Degraded;
                for rule in &report.firing {
                    obs.emit(|| ObsEvent::WatchdogFired {
                        rule: rule.name,
                        detail: rule.detail.clone(),
                    });
                }
                if degraded && !was_degraded {
                    let dump = obs.flight().dump_json(u64::MAX);
                    eprintln!(
                        "[imp] health degraded at tick {} ({}); flight dump: {dump}",
                        report.tick,
                        report
                            .firing
                            .iter()
                            .map(|r| r.name)
                            .collect::<Vec<_>>()
                            .join(",")
                    );
                    state.set_trip_dump(dump);
                }
                was_degraded = degraded;
                state.publish(report);
            }
        })
        .expect("spawn health ticker thread");
    HealthTicker {
        shutdown,
        handle: Some(handle),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::registry::MetricsRegistry;

    /// Samples of one tick: per-worker heartbeats and the updates waiting
    /// for a sweep.
    fn sched_samples(heartbeats: &[u64], depth: u64) -> Vec<MetricSample> {
        let reg = MetricsRegistry::new();
        for (worker, v) in heartbeats.iter().enumerate() {
            reg.gauge_with("imp_sched_heartbeat", &[("worker", &worker.to_string())])
                .set(*v);
        }
        reg.gauge("imp_sched_queue_depth").set(depth);
        reg.sample()
    }

    #[test]
    fn liveness_fires_on_frozen_heartbeat_with_backlog() {
        let mut m = HealthMonitor::new(HealthConfig::default());
        // Tick 1: baseline only, nothing can fire.
        let r1 = m.tick(&sched_samples(&[5], 3));
        assert_eq!(r1.verdict, Verdict::Ok);
        // Tick 2: heartbeat unchanged, updates waiting → degraded.
        let r2 = m.tick(&sched_samples(&[5], 3));
        assert_eq!(r2.verdict, Verdict::Degraded);
        assert_eq!(r2.firing[0].name, "shard_liveness");
        assert!(r2.firing[0].detail.contains("3 update(s) waiting"));
        // Tick 3: heartbeat advanced → recovered.
        let r3 = m.tick(&sched_samples(&[6], 3));
        assert_eq!(r3.verdict, Verdict::Ok);
    }

    /// Two workers sweep the one store: one live worker clears the
    /// backlog, so a frozen heartbeat beside an advancing one is not a
    /// wedge; both frozen is.
    #[test]
    fn liveness_fires_only_when_no_worker_advances() {
        let mut m = HealthMonitor::new(HealthConfig::default());
        m.tick(&sched_samples(&[5, 9], 3));
        let r = m.tick(&sched_samples(&[5, 10], 3));
        assert_eq!(r.verdict, Verdict::Ok, "{r:?}");
        let r = m.tick(&sched_samples(&[5, 10], 3));
        assert_eq!(r.verdict, Verdict::Degraded);
        assert_eq!(r.firing[0].name, "shard_liveness");
        assert!(r.firing[0].detail.contains("2 worker(s)"), "{r:?}");
    }

    #[test]
    fn liveness_ignores_idle_frozen_workers() {
        let mut m = HealthMonitor::new(HealthConfig::default());
        m.tick(&sched_samples(&[5], 0));
        // Frozen heartbeat with no update waiting is just an idle worker.
        let r = m.tick(&sched_samples(&[5], 0));
        assert_eq!(r.verdict, Verdict::Ok);
    }

    #[test]
    fn queue_depth_fires_above_limit() {
        let mut m = HealthMonitor::new(HealthConfig {
            queue_depth_limit: 10,
            ..HealthConfig::default()
        });
        // Fires on the first tick already — no previous state needed.
        let r = m.tick(&sched_samples(&[1], 11));
        assert_eq!(r.verdict, Verdict::Degraded);
        assert_eq!(r.firing[0].name, "queue_depth");
    }

    #[test]
    fn slo_needs_both_windows_burning() {
        let config = HealthConfig {
            p99_slo_ns: 1_000,
            long_window_ticks: 2,
            ..HealthConfig::default()
        };
        let mut m = HealthMonitor::new(config);
        let reg = MetricsRegistry::new();
        let h = reg.histogram_with(MAINTAIN_LATENCY, &[("template", "q")]);
        // Baseline tick with an empty histogram.
        assert_eq!(m.tick(&reg.sample()).verdict, Verdict::Ok);
        // One slow burst: short window burns, but the long window's
        // baseline is the same tick, so both windows see it → this *is*
        // a sustained signal only after it persists. First burning tick:
        h.record(50_000);
        let r = m.tick(&reg.sample());
        assert_eq!(r.verdict, Verdict::Degraded);
        assert_eq!(r.firing[0].name, "maintain_p99_slo");
        // Quiet ticks push the burst out of the short window: recovered,
        // even though the cumulative histogram still holds the slow
        // sample (this is exactly what windowing buys over cumulative
        // p99).
        let r = m.tick(&reg.sample());
        assert_eq!(r.verdict, Verdict::Ok, "{:?}", r.firing);
        let r = m.tick(&reg.sample());
        assert_eq!(r.verdict, Verdict::Ok);
    }

    #[test]
    fn report_json_shape() {
        let report = HealthReport {
            tick: 7,
            verdict: Verdict::Degraded,
            firing: vec![FiringRule {
                name: "shard_liveness",
                detail: "shard 0: \"stuck\"".into(),
            }],
        };
        let json = report.render_json();
        assert!(json.starts_with("{\"health\":{\"verdict\":\"degraded\",\"tick\":7,"));
        assert!(json.contains("\"rule\":\"shard_liveness\""));
        assert!(json.contains("\\\"stuck\\\""));
        let ok = HealthReport::default().render_json();
        assert_eq!(
            ok,
            "{\"health\":{\"verdict\":\"ok\",\"tick\":0,\"firing\":[]}}"
        );
    }

    #[test]
    fn state_tracks_transitions() {
        let state = HealthState::new();
        assert!(!state.is_degraded());
        state.publish(HealthReport {
            tick: 1,
            verdict: Verdict::Degraded,
            firing: vec![],
        });
        assert!(state.is_degraded());
        assert_eq!(state.ticks(), 1);
        state.set_trip_dump("{}".into());
        assert_eq!(state.trip_dump().as_deref(), Some("{}"));
    }
}
