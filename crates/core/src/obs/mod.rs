//! `imp_core::obs` — unified observability: metrics registry, latency
//! histograms and pipeline tracing.
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
//!   per-term join maintenance (`nary_delta` / `nary_probe` phases; a
//!   from-empty run's engine read is `capture_spj`) →
//!   snapshot publish. Spans carry ids, parent links, and
//!   monotonic timestamps; [`Obs::trace_chrome_json`] renders Chrome
//!   trace-event JSON loadable in `chrome://tracing`.
//!
//! Each pipeline event is counted once: an update noted for the workers
//! in `imp_sched_staged_updates`, a maintenance run in
//! `imp_sched_maintain_runs` (and, with obs on, in the template's
//! `imp_maintain_latency_ns` histogram), a publish as the snapshot epoch
//! that obsd's `/sketches` reports.
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

pub mod hist;
pub mod registry;
pub mod trace;

use std::sync::Arc;

pub use hist::{HistSnapshot, LatencyHistogram};
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
    /// Record pipeline spans (only meaningful when `enabled`), in
    /// per-thread rings of [`trace::DEFAULT_RING_CAP`] spans.
    pub trace: bool,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig {
            enabled: false,
            trace: true,
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

    /// Enabled with tracing off (histograms only).
    pub fn metrics_only() -> ObsConfig {
        ObsConfig {
            enabled: true,
            trace: false,
        }
    }
}

/// The per-`Imp` observability hub (see the module docs).
#[derive(Debug)]
pub struct Obs {
    enabled: bool,
    registry: MetricsRegistry,
    tracer: Arc<Tracer>,
}

impl Obs {
    /// Build from config. The registry always exists (scheduler counters
    /// register unconditionally — they predate this module and are nearly
    /// free); `enabled` gates timing, histograms, and tracing.
    pub fn new(config: &ObsConfig) -> Arc<Obs> {
        Arc::new(Obs {
            enabled: config.enabled,
            registry: MetricsRegistry::new(),
            tracer: Arc::new(Tracer::new(
                config.enabled && config.trace,
                trace::DEFAULT_RING_CAP,
            )),
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
    /// cheap no-op when tracing is off.
    #[inline]
    pub fn span(&self, name: &'static str) -> PipelineSpan {
        if !self.tracer.is_enabled() {
            return PipelineSpan {
                span: trace::Span::noop(),
                _attach: trace::AttachGuard::inactive(),
            };
        }
        let attach = self.tracer.attach();
        PipelineSpan {
            span: trace::span(name),
            _attach: attach,
        }
    }

    /// Record one maintenance run in the per-template latency histogram
    /// (when enabled).
    pub fn maintain_observed_spanned(&self, template: &str, nanos: u64) {
        if self.enabled {
            self.registry
                .histogram_with(MAINTAIN_LATENCY, &[("template", template)])
                .record(nanos);
        }
    }

    /// Record one answered SELECT in the mode-labeled latency histogram
    /// (when enabled).
    pub fn query_observed(&self, mode: &'static str, nanos: u64) {
        if self.enabled {
            self.registry
                .histogram_with(QUERY_LATENCY, &[("mode", mode)])
                .record(nanos);
        }
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
}

/// An attached entry-point span (see [`Obs::span`]). Field order matters:
/// the span must drop (and record) before the attach guard detaches.
pub struct PipelineSpan {
    span: trace::Span,
    _attach: trace::AttachGuard,
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
        obs.maintain_observed_spanned("q", 123);
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
        obs.maintain_observed_spanned("q1", 100);
        obs.maintain_observed_spanned("q1", 200);
        obs.maintain_observed_spanned("q2", 300);
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
    fn metrics_only_disables_tracing() {
        let obs = Obs::new(&ObsConfig::metrics_only());
        {
            let _s = obs.span("invisible");
        }
        assert!(obs.tracer().export_spans().is_empty());
        obs.maintain_observed_spanned("q", 10);
        assert_eq!(obs.maintain_latency().unwrap().count, 1);
    }
}
