//! `imp_core::obs` — unified observability: metrics registry, latency
//! histograms, pipeline tracing, and typed probe events.
//!
//! The paper's evaluation is built on post-hoc cost counters; this module
//! is the runtime view. One [`Obs`] instance per [`crate::middleware::Imp`]
//! ties together:
//!
//! * **[`registry`]** — a [`MetricsRegistry`] unifying counters, gauges,
//!   and lock-free log-bucketed latency [`hist`]ograms under one
//!   `(name, labels)` namespace. The scheduler's
//!   [`crate::metrics::SchedMetrics`] counters and pending-update gauges
//!   register here, and the USE/maintain paths record latency histograms
//!   keyed per template (`imp_maintain_latency_ns{template=…}`), so every
//!   sketch gets its own maintain-latency distribution with
//!   `p50/p90/p99/max` extraction. Exports: Prometheus-style text
//!   ([`Obs::metrics_text`]) and a deterministic JSON snapshot
//!   ([`Obs::metrics_json`]).
//! * **[`trace`]** — bounded per-thread span rings instrumenting the full
//!   pipeline: update → a sweep's per-sketch run (`maintain_stale`) →
//!   per-term join maintenance (`nary_delta` / `nary_probe` phases) →
//!   snapshot publish. Spans carry ids, parent links, and
//!   monotonic timestamps; [`Obs::trace_chrome_json`] renders Chrome
//!   trace-event JSON loadable in `chrome://tracing`.
//! * **[`probe`]** — a [`Probe`] subscriber registry emitting typed
//!   [`ObsEvent`]s, so harnesses and tests observe the pipeline without
//!   reaching into scheduler internals.
//!
//! Everything is gated by [`ObsConfig`] (`ImpConfig::obs`, `IMP_OBS=1` in
//! the harnesses): with obs off, the hot-path cost is a branch on a plain
//! bool or a relaxed atomic load, and **no allocation** — asserted by the
//! counting-allocator test in `tests/obs_alloc.rs`. Enabling obs never
//! changes sketch states or query answers (`tests/obs_differential.rs`),
//! and full instrumentation makes at most 10% more allocations than obs
//! off at smoke scale, the same number more whatever the rows per
//! statement (`tests/obs_overhead.rs`). Its wall-clock overhead is
//! measured by the benchmarks, not by tier-1.

pub mod flight;
pub mod health;
pub mod hist;
pub mod kernel;
pub mod probe;
pub mod registry;
pub mod trace;

use std::sync::Arc;

pub use flight::{FlightEvent, FlightRecord, FlightRecorder};
pub use health::{
    FiringRule, HealthConfig, HealthMonitor, HealthReport, HealthState, HealthTicker, Verdict,
};
pub use hist::{HistSnapshot, LatencyHistogram};
pub use kernel::{KernelHub, KernelPath};
pub use probe::{ObsEvent, Probe};
pub use registry::{Counter, Gauge, Histogram, MetricSample, MetricsRegistry, SampleValue};
pub use trace::{SpanRecord, Tracer};

/// Per-template maintain-latency histogram name.
pub const MAINTAIN_LATENCY: &str = "imp_maintain_latency_ns";
/// USE-path query-latency histogram name (labeled by answer mode).
pub const QUERY_LATENCY: &str = "imp_query_latency_ns";

/// Observability configuration (`ImpConfig::obs`).
#[derive(Debug, Clone, PartialEq)]
pub struct ObsConfig {
    /// Master switch: latency histograms, timed paths, tracing.
    pub enabled: bool,
    /// Record pipeline spans (only meaningful when `enabled`).
    pub trace: bool,
    /// Per-thread span ring capacity.
    pub trace_ring_cap: usize,
    /// Flight-recorder ring capacity (slots). The flight recorder is
    /// **always on** regardless of `enabled` — post-mortems must not
    /// require reproducing under `IMP_OBS=1`.
    pub flight_cap: usize,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig {
            enabled: false,
            trace: true,
            trace_ring_cap: trace::DEFAULT_RING_CAP,
            flight_cap: flight::DEFAULT_FLIGHT_CAP,
        }
    }
}

impl ObsConfig {
    /// Fully enabled (histograms + tracing).
    pub fn on() -> ObsConfig {
        ObsConfig {
            enabled: true,
            ..ObsConfig::default()
        }
    }

    /// Enabled with tracing off (histograms and probes only).
    pub fn metrics_only() -> ObsConfig {
        ObsConfig {
            enabled: true,
            trace: false,
            ..ObsConfig::default()
        }
    }
}

/// The per-`Imp` observability hub (see the module docs).
#[derive(Debug)]
pub struct Obs {
    enabled: bool,
    registry: MetricsRegistry,
    tracer: Arc<Tracer>,
    probes: probe::ProbeHub,
    flight: Arc<FlightRecorder>,
    kernel: Option<Arc<KernelHub>>,
}

impl Obs {
    /// Build from config. The registry always exists (scheduler counters
    /// register unconditionally — they predate this module and are nearly
    /// free); `enabled` gates timing, histograms, and tracing. The
    /// flight recorder is always on (and registered with the process
    /// panic hook); only its capacity comes from the config.
    pub fn new(config: &ObsConfig) -> Arc<Obs> {
        let registry = MetricsRegistry::new();
        let kernel = config.enabled.then(|| KernelHub::registered(&registry));
        let flight = Arc::new(FlightRecorder::new(config.flight_cap));
        flight::register_panic_dump(&flight);
        Arc::new(Obs {
            enabled: config.enabled,
            registry,
            tracer: Arc::new(Tracer::new(
                config.enabled && config.trace,
                config.trace_ring_cap,
            )),
            probes: probe::ProbeHub::new(),
            flight,
            kernel,
        })
    }

    /// A disabled hub (the default for `ImpConfig::default()`).
    pub fn off() -> Arc<Obs> {
        Obs::new(&ObsConfig::default())
    }

    /// Is the observability layer on?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The unified metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The span collector.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Attach the tracer to the current thread (no-op when tracing is
    /// off) so that [`trace::span`] calls made from this thread record
    /// here. Pipeline entry points hold one of these across their work.
    #[inline]
    pub fn attach(&self) -> trace::AttachGuard {
        self.tracer.attach()
    }

    /// Attach and open one span: the usual entry-point pattern. Returns a
    /// cheap no-op when tracing is off. Whenever obs is enabled (tracing
    /// on or not), the span also attaches the kernel-timing hub to the
    /// thread, so [`kernel::timed`] dispatch sites under this entry
    /// point record their columnar/row batch timings.
    #[inline]
    pub fn span(&self, name: &'static str) -> PipelineSpan {
        let kernel = match &self.kernel {
            Some(hub) => kernel::attach(hub),
            None => kernel::KernelAttachGuard::inactive(),
        };
        if !self.tracer.is_enabled() {
            return PipelineSpan {
                span: trace::Span::noop(),
                _attach: trace::AttachGuard::inactive(),
                _kernel: kernel,
            };
        }
        let attach = self.tracer.attach();
        PipelineSpan {
            span: trace::span(name),
            _attach: attach,
            _kernel: kernel,
        }
    }

    /// Register a probe subscriber.
    pub fn subscribe(&self, probe: Arc<dyn Probe>) {
        self.probes.subscribe(probe);
    }

    /// Emit a typed event (closure evaluated only with subscribers).
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> ObsEvent) {
        self.probes.emit(f);
    }

    /// Record one maintenance run: per-template latency histogram (when
    /// enabled), an always-on flight-recorder event, plus a
    /// [`ObsEvent::MaintainRun`] probe event.
    pub fn maintain_observed(&self, template: &str, nanos: u64, delta_rows: u64, recaptured: bool) {
        self.maintain_observed_spanned(template, nanos, delta_rows, recaptured, 0, 0);
    }

    /// [`Self::maintain_observed`] with the maintained database-version
    /// span (the sched call sites know it; `0,0` when unknown).
    pub fn maintain_observed_spanned(
        &self,
        template: &str,
        nanos: u64,
        delta_rows: u64,
        recaptured: bool,
        from_version: u64,
        to_version: u64,
    ) {
        if self.enabled {
            self.registry
                .histogram_with(MAINTAIN_LATENCY, &[("template", template)])
                .record(nanos);
        }
        self.flight.record(FlightEvent::Maintained {
            template: flight::fid(template),
            versions: (from_version << 32) | (to_version & 0xffff_ffff),
            rows: delta_rows,
            dur_ns: nanos,
        });
        self.probes.emit(|| ObsEvent::MaintainRun {
            template: template.to_string(),
            nanos,
            delta_rows,
            recaptured,
        });
    }

    /// Record one answered SELECT: mode-labeled latency histogram (when
    /// enabled) plus a [`ObsEvent::QueryAnswered`] probe event.
    pub fn query_observed(&self, mode: &'static str, nanos: u64) {
        if self.enabled {
            self.registry
                .histogram_with(QUERY_LATENCY, &[("mode", mode)])
                .record(nanos);
        }
        self.probes.emit(|| ObsEvent::QueryAnswered { mode, nanos });
    }

    /// All maintain-latency samples merged across templates.
    pub fn maintain_latency(&self) -> Option<HistSnapshot> {
        self.registry.merged_histogram(MAINTAIN_LATENCY)
    }

    /// Prometheus-style text exposition of the whole registry.
    pub fn metrics_text(&self) -> String {
        self.registry.render_text()
    }

    /// Deterministic JSON snapshot of the whole registry.
    pub fn metrics_json(&self) -> String {
        self.registry.render_json()
    }

    /// Chrome trace-event JSON of all recorded spans.
    pub fn trace_chrome_json(&self) -> String {
        self.tracer.export_chrome_json()
    }

    /// The always-on flight recorder.
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }

    /// Deterministic JSON dump of everything the flight recorder retains.
    pub fn flight_dump(&self) -> String {
        self.flight.dump_json(u64::MAX)
    }

    /// The kernel-timing hub (present iff obs is enabled).
    pub fn kernel_hub(&self) -> Option<&Arc<KernelHub>> {
        self.kernel.as_ref()
    }
}

/// An attached entry-point span (see [`Obs::span`]). Field order matters:
/// the span must drop (and record) before the attach guards detach.
pub struct PipelineSpan {
    span: trace::Span,
    _attach: trace::AttachGuard,
    _kernel: kernel::KernelAttachGuard,
}

impl PipelineSpan {
    /// Consume, keeping only the guard parts (for explicit early close).
    pub fn close(self) {
        drop(self.span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_obs_records_no_metrics() {
        let obs = Obs::off();
        obs.maintain_observed("q", 123, 4, false);
        obs.query_observed("fresh", 55);
        assert!(obs.registry().is_empty());
        assert!(obs.maintain_latency().is_none());
        {
            let _s = obs.span("nothing");
        }
        assert!(obs.tracer().export_spans().is_empty());
    }

    #[test]
    fn enabled_obs_builds_per_template_histograms() {
        let obs = Obs::new(&ObsConfig::on());
        obs.maintain_observed("q1", 100, 1, false);
        obs.maintain_observed("q1", 200, 1, false);
        obs.maintain_observed("q2", 300, 1, true);
        let merged = obs.maintain_latency().unwrap();
        assert_eq!(merged.count, 3);
        let text = obs.metrics_text();
        assert!(text.contains("imp_maintain_latency_ns_count{template=\"q1\"} 2"));
        assert!(text.contains("imp_maintain_latency_ns_count{template=\"q2\"} 1"));
    }

    #[test]
    fn span_records_through_facade() {
        let obs = Obs::new(&ObsConfig::on());
        {
            let _outer = obs.span("outer");
            let _inner = trace::span("inner");
        }
        let spans = obs.tracer().export_spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        let json = obs.trace_chrome_json();
        assert!(json.contains("\"traceEvents\""));
    }

    #[test]
    fn flight_records_even_when_disabled() {
        let obs = Obs::off();
        obs.maintain_observed("q", 123, 4, false);
        assert!(obs.registry().is_empty(), "flight must not touch metrics");
        let events = obs.flight().events(u64::MAX);
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].event,
            FlightEvent::Maintained {
                template: flight::fid("q"),
                versions: 0,
                rows: 4,
                dur_ns: 123,
            }
        );
        assert!(obs.flight_dump().contains("\"kind\":\"maintained\""));
    }

    #[test]
    fn enabled_span_attaches_kernel_timing() {
        let obs = Obs::new(&ObsConfig::metrics_only());
        {
            let _s = obs.span("maintain");
            kernel::timed(KernelPath::Row, 3, || {});
        }
        // Outside the span nothing is attached.
        kernel::timed(KernelPath::Row, 100, || {});
        let text = obs.metrics_text();
        assert!(text.contains("imp_kernel_ns_count{path=\"row\"} 1"));
        assert!(text.contains("imp_kernel_rows{path=\"row\"} 3"));
    }

    #[test]
    fn metrics_only_disables_tracing() {
        let obs = Obs::new(&ObsConfig::metrics_only());
        {
            let _s = obs.span("invisible");
        }
        assert!(obs.tracer().export_spans().is_empty());
        obs.maintain_observed("q", 10, 0, false);
        assert_eq!(obs.maintain_latency().unwrap().count, 1);
    }
}
