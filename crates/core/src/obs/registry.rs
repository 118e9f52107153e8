//! Unified metrics registry: counters, gauges, and latency histograms
//! under one `(name, labels)` namespace with two deterministic exports.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap clones of
//! `Arc`-shared atomics — registration takes the registry lock once, and
//! every update after that is a relaxed atomic on the shared cell. The
//! scheduler's [`crate::metrics::SchedMetrics`] counters and queue
//! gauges are registered here, so one exposition shows routing, backlog
//! depth, and per-template maintain latency together.
//!
//! Exports:
//! * [`MetricsRegistry::render_text`] — Prometheus-style text exposition
//!   (histograms as cumulative `_bucket{le=…}` series plus `_sum`,
//!   `_count`, and a `_max` gauge);
//! * [`MetricsRegistry::render_json`] — a deterministic JSON snapshot
//!   (sorted by name, then labels) with `p50/p90/p99/max` extracted per
//!   histogram, consumed by the bench harnesses and the CI obs smoke.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use super::hist::{bucket_upper_bound, HistSnapshot, LatencyHistogram};

/// Sorted label set attached to one metric series.
pub type Labels = Vec<(String, String)>;

/// Monotone counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Standalone counter not attached to any registry (tests, detached
    /// [`crate::metrics::SchedMetrics`]).
    pub fn detached() -> Counter {
        Counter::default()
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Up/down gauge handle.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Standalone gauge not attached to any registry.
    pub fn detached() -> Gauge {
        Gauge::default()
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add 1 and return the new value (for high-water tracking).
    #[inline]
    pub fn inc_get(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Raise the value to at least `v`.
    #[inline]
    pub fn max_of(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Histogram handle (see [`LatencyHistogram`]).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<LatencyHistogram>);

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram(Arc::new(LatencyHistogram::new()))
    }
}

impl Histogram {
    /// Record one sample (nanoseconds by convention).
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.record(v);
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> HistSnapshot {
        self.0.snapshot()
    }
}

#[derive(Debug)]
enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Hist(Arc<LatencyHistogram>),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Hist(_) => "histogram",
        }
    }
}

/// One series captured by [`MetricsRegistry::sample`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Metric name.
    pub name: String,
    /// Sorted label set.
    pub labels: Labels,
    /// Point-in-time value.
    pub value: SampleValue,
}

impl MetricSample {
    /// The value of the label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Point-in-time value of one sampled series.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Monotone counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Full histogram snapshot (bucket-wise subtractable for windowing).
    Histogram(HistSnapshot),
}

impl SampleValue {
    /// The scalar value of a counter or gauge (`None` for histograms).
    pub fn scalar(&self) -> Option<u64> {
        match self {
            SampleValue::Counter(v) | SampleValue::Gauge(v) => Some(*v),
            SampleValue::Histogram(_) => None,
        }
    }
}

/// The unified registry (see the module docs).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    slots: Mutex<BTreeMap<(String, Labels), Slot>>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Get or register the counter `name` with no labels.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Get or register the counter `name{labels}`.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let mut slots = self.slots.lock();
        let slot = slots
            .entry(key(name, labels))
            .or_insert_with(|| Slot::Counter(Arc::new(AtomicU64::new(0))));
        match slot {
            Slot::Counter(a) => Counter(Arc::clone(a)),
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    /// Get or register the gauge `name` with no labels.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Get or register the gauge `name{labels}`.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let mut slots = self.slots.lock();
        let slot = slots
            .entry(key(name, labels))
            .or_insert_with(|| Slot::Gauge(Arc::new(AtomicU64::new(0))));
        match slot {
            Slot::Gauge(a) => Gauge(Arc::clone(a)),
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    /// Get or register the histogram `name` with no labels.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    /// Get or register the histogram `name{labels}`.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let mut slots = self.slots.lock();
        let slot = slots
            .entry(key(name, labels))
            .or_insert_with(|| Slot::Hist(Arc::new(LatencyHistogram::new())));
        match slot {
            Slot::Hist(h) => Histogram(Arc::clone(h)),
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.slots.lock().len()
    }

    /// True iff nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.slots.lock().is_empty()
    }

    /// Snapshot every registered series as plain values, sorted by name
    /// then labels (the registry's natural order). This is the read API
    /// the obsd `/sketches` endpoint consumes:
    /// one lock hold, no references into the registry escape, so readers
    /// never block recorders beyond the snapshot instant.
    pub fn sample(&self) -> Vec<MetricSample> {
        let slots = self.slots.lock();
        slots
            .iter()
            .map(|((name, labels), slot)| MetricSample {
                name: name.clone(),
                labels: labels.clone(),
                value: match slot {
                    Slot::Counter(a) => SampleValue::Counter(a.load(Ordering::Relaxed)),
                    Slot::Gauge(a) => SampleValue::Gauge(a.load(Ordering::Relaxed)),
                    Slot::Hist(h) => SampleValue::Histogram(h.snapshot()),
                },
            })
            .collect()
    }

    /// Merge every histogram series named `name` (across label sets) into
    /// one snapshot; `None` if no such series exists.
    pub fn merged_histogram(&self, name: &str) -> Option<HistSnapshot> {
        let slots = self.slots.lock();
        let mut out: Option<HistSnapshot> = None;
        for ((n, _), slot) in slots.iter() {
            if n == name {
                if let Slot::Hist(h) = slot {
                    out.get_or_insert_with(HistSnapshot::empty)
                        .merge(&h.snapshot());
                }
            }
        }
        out
    }

    /// Prometheus-style text exposition. Deterministic: series sorted by
    /// name then labels; histogram buckets emitted cumulatively for
    /// non-empty buckets plus `+Inf`.
    pub fn render_text(&self) -> String {
        let slots = self.slots.lock();
        let mut out = String::new();
        let mut last_name = "";
        for ((name, labels), slot) in slots.iter() {
            if name != last_name {
                out.push_str("# TYPE ");
                out.push_str(name);
                out.push(' ');
                out.push_str(slot.kind());
                out.push('\n');
                last_name = name;
            }
            match slot {
                Slot::Counter(a) | Slot::Gauge(a) => {
                    out.push_str(name);
                    push_labels(&mut out, labels, None);
                    out.push(' ');
                    out.push_str(&a.load(Ordering::Relaxed).to_string());
                    out.push('\n');
                }
                Slot::Hist(h) => {
                    let s = h.snapshot();
                    let mut cum = 0u64;
                    for (b, n) in s.buckets.iter().enumerate() {
                        if *n == 0 {
                            continue;
                        }
                        cum += n;
                        out.push_str(name);
                        out.push_str("_bucket");
                        push_labels(&mut out, labels, Some(&bucket_upper_bound(b).to_string()));
                        out.push(' ');
                        out.push_str(&cum.to_string());
                        out.push('\n');
                    }
                    out.push_str(name);
                    out.push_str("_bucket");
                    push_labels(&mut out, labels, Some("+Inf"));
                    out.push(' ');
                    out.push_str(&s.count.to_string());
                    out.push('\n');
                    for (suffix, v) in [("_sum", s.sum), ("_count", s.count), ("_max", s.max)] {
                        out.push_str(name);
                        out.push_str(suffix);
                        push_labels(&mut out, labels, None);
                        out.push(' ');
                        out.push_str(&v.to_string());
                        out.push('\n');
                    }
                }
            }
        }
        out
    }

    /// Deterministic JSON snapshot:
    /// `{"metrics":[{"name":…,"labels":{…},"kind":…,…}]}` with
    /// `value` for counters/gauges and
    /// `count/sum/max/p50/p90/p99` plus non-empty `buckets` for
    /// histograms.
    pub fn render_json(&self) -> String {
        let slots = self.slots.lock();
        let mut out = String::from("{\"metrics\":[");
        for (i, ((name, labels), slot)) in slots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json_string(&mut out, name);
            out.push_str(",\"labels\":{");
            for (j, (k, v)) in labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json_string(&mut out, k);
                out.push(':');
                json_string(&mut out, v);
            }
            out.push_str("},\"kind\":\"");
            out.push_str(slot.kind());
            out.push('"');
            match slot {
                Slot::Counter(a) | Slot::Gauge(a) => {
                    out.push_str(",\"value\":");
                    out.push_str(&a.load(Ordering::Relaxed).to_string());
                }
                Slot::Hist(h) => {
                    let s = h.snapshot();
                    for (k, v) in [
                        ("count", s.count),
                        ("sum", s.sum),
                        ("max", s.max),
                        ("p50", s.p50()),
                        ("p90", s.p90()),
                        ("p99", s.p99()),
                    ] {
                        out.push_str(",\"");
                        out.push_str(k);
                        out.push_str("\":");
                        out.push_str(&v.to_string());
                    }
                    out.push_str(",\"buckets\":[");
                    let mut first = true;
                    for (b, n) in s.buckets.iter().enumerate() {
                        if *n == 0 {
                            continue;
                        }
                        if !first {
                            out.push(',');
                        }
                        first = false;
                        out.push('[');
                        out.push_str(&bucket_upper_bound(b).to_string());
                        out.push(',');
                        out.push_str(&n.to_string());
                        out.push(']');
                    }
                    out.push(']');
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

fn key(name: &str, labels: &[(&str, &str)]) -> (String, Labels) {
    let mut l: Labels = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    l.sort();
    (name.to_string(), l)
}

/// Append `{k="v",…}` (plus an optional trailing `le`) to `out`.
fn push_labels(out: &mut String, labels: &Labels, le: Option<&str>) {
    if labels.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        escape_into(out, v);
        out.push('"');
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str("le=\"");
        out.push_str(le);
        out.push('"');
    }
    out.push('}');
}

fn escape_into(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Append `v` as a JSON string literal (shared with the obsd JSON
/// renderers).
pub(crate) fn json_string(out: &mut String, v: &str) {
    out.push('"');
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_the_cell() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("c");
        let b = reg.counter("c");
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn labels_make_distinct_series() {
        let reg = MetricsRegistry::new();
        reg.counter_with("c", &[("shard", "0")]).inc();
        reg.counter_with("c", &[("shard", "1")]).add(5);
        assert_eq!(reg.len(), 2);
        let text = reg.render_text();
        assert!(text.contains("c{shard=\"0\"} 1"));
        assert!(text.contains("c{shard=\"1\"} 5"));
        // One TYPE line for the shared name.
        assert_eq!(text.matches("# TYPE c counter").count(), 1);
    }

    #[test]
    fn histogram_text_and_json_agree() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram_with("lat_ns", &[("template", "q1")]);
        for v in [10u64, 20, 30, 1000] {
            h.record(v);
        }
        let text = reg.render_text();
        assert!(text.contains("# TYPE lat_ns histogram"));
        assert!(text.contains("lat_ns_count{template=\"q1\"} 4"));
        assert!(text.contains("lat_ns_sum{template=\"q1\"} 1060"));
        assert!(text.contains("le=\"+Inf\"} 4"));
        let json = reg.render_json();
        assert!(json.contains("\"count\":4"));
        assert!(json.contains("\"sum\":1060"));
        assert!(json.contains("\"max\":1000"));
        // Deterministic output.
        assert_eq!(json, reg.render_json());
        assert_eq!(text, reg.render_text());
    }

    #[test]
    fn sample_captures_every_kind() {
        let reg = MetricsRegistry::new();
        reg.counter("c").add(3);
        reg.gauge_with("g", &[("shard", "1")]).set(7);
        reg.histogram("h").record(99);
        let samples = reg.sample();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].name, "c");
        assert_eq!(samples[0].value, SampleValue::Counter(3));
        assert_eq!(samples[1].label("shard"), Some("1"));
        assert_eq!(samples[1].value.scalar(), Some(7));
        match &samples[2].value {
            SampleValue::Histogram(s) => assert_eq!(s.count, 1),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }
}
