//! Metric definitions and the three output forms of one run: the table a
//! person reads, the driver's result line, and the `--out` record that
//! `--compare` reads back.

use crate::check::Failures;
use crate::replica::Counts;
use crate::spans::{durations_ms, Attribution, Span};
use crate::stats::{highest_supported_tail, median, Latency};
use crate::timed::TimedRun;
use imp_core::metrics::SchedStats;
use std::fmt::Write;

/// One reported number with its unit and the samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub n: u64,
}

fn metric(name: &'static str, value: f64, unit: &'static str, n: u64) -> Metric {
    // A metric with no samples behind it (NaN median, 0/0) reports 0 with
    // n = 0 — "not measured here" — and stays valid JSON.
    let (value, n) = if value.is_finite() {
        (value, n)
    } else {
        (0.0, 0)
    };
    Metric {
        name,
        value,
        unit,
        n,
    }
}

/// Everything one run of one workload reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub stream_hash: u64,
    pub attempted: u64,
    pub truncated: bool,
    /// Do this workload's counts repeat exactly for a fixed seed (single
    /// thread, no timers)? `--compare` checks them only then.
    pub exact_counts: bool,
    pub end_to_end: Vec<Metric>,
    /// Printed and recorded beside the end-to-end metrics, but not part of
    /// the manifest (`failed_frac` must be 0, and a manifest metric may
    /// never be).
    pub beside: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub counts: Vec<(&'static str, u64)>,
    pub failures: Failures,
}

/// The end-to-end metrics of the timed run (names match `BENCHMARK.json`).
pub fn end_to_end(run: &TimedRun, setup_s: &[f64]) -> Vec<Metric> {
    let q = Latency::of(&run.query_ms);
    let u = Latency::of(&run.update_ms);
    let statements = (q.n + u.n) as u64;
    vec![
        metric("setup_s", median(setup_s), "s", setup_s.len() as u64),
        metric(
            "ops_per_s",
            statements as f64 / run.wall.as_secs_f64(),
            "1/s",
            statements,
        ),
        metric("query_ms_p50", q.p50, "ms", q.n as u64),
        metric("query_ms_p95", q.p95, "ms", q.n as u64),
        metric("update_ms_p50", u.p50, "ms", u.n as u64),
        metric("update_ms_p95", u.p95, "ms", u.n as u64),
        metric("state_mb", run.state_bytes as f64 / 1e6, "MB", 1),
    ]
}

/// `failed_frac` and the catch-up, printed beside the manifest's metrics.
pub fn beside(run: &TimedRun) -> Vec<Metric> {
    vec![
        metric(
            "failed_frac",
            run.failures.count as f64 / run.attempted as f64,
            "ratio",
            run.attempted,
        ),
        metric("catchup_ms", run.catchup.as_secs_f64() * 1e3, "ms", 1),
    ]
}

/// Counts of the timed run (exact on in-line workloads).
pub fn timed_counts(run: &TimedRun) -> Vec<(&'static str, u64)> {
    vec![
        ("timed.queries", run.query_ms.len() as u64),
        ("timed.updates", run.update_ms.len() as u64),
        ("timed.fresh", run.fresh),
        ("timed.maintained", run.maintained),
        ("timed.rows_affected", run.rows_affected),
        ("timed.state_bytes", run.state_bytes as u64),
    ]
}

/// What the traced replica pass produced.
pub struct Traced<'a> {
    pub spans: &'a [Span],
    pub attribution: &'a Attribution,
    pub counts: &'a Counts,
    /// Wall of the span-free replica pass, where one ran.
    pub spanfree_wall_ns: Option<u64>,
}

/// The per-layer metrics (names match `BENCHMARK.json`). Layer prefixes are
/// the crates': `sql`, `engine`, `sketch`, `core`; `middleware`/`sched` are
/// the two `imp_core` modules around them; `ref`/`ratio` are the paper's
/// baselines; `trace` is the instrument itself.
pub fn per_layer(run: &TimedRun, t: &Traced) -> Vec<Metric> {
    let a = t.attribution;
    let c = t.counts;
    let us = |ns: u64| ns as f64 / 1e3;
    let shadow = |name: &str| a.shadow_by_name.get(name).copied().unwrap_or((0, 0));
    let per = |total: f64, n: u64| total / n as f64;

    let scan_ms = durations_ms(t.spans, "scan");
    let maintain_ms = durations_ms(t.spans, "maintain");
    let capture_ms = durations_ms(t.spans, "ref_capture");
    let ns_scan_ms = durations_ms(t.spans, "ref_ns_scan");
    let (fetch_ns, fetches) = shadow("delta_fetch");
    let (annotate_ns, _) = shadow("annotate");
    let (normalize_ns, _) = shadow("normalize");
    let maintain_ns = a.self_ns("maintain");
    let delta_rows = c.maint.delta_rows_fetched;
    let pipeline_ns = a.pipeline_ns();
    let timed_ns = run.wall.as_nanos() as f64;
    let overhead = (timed_ns - pipeline_ns as f64) / timed_ns;
    let unions = c.maint.pool_union_memo_hits + c.maint.pool_unions_computed;
    let looked_at = c.exec.rows_scanned + c.exec.rows_skipped;
    // Scheduler metrics exist on the one workload with a scheduler; n = 0
    // elsewhere.
    let sched = |name, unit, f: &dyn Fn(&SchedStats) -> f64| {
        metric(name, run.sched.as_ref().map_or(f64::NAN, f), unit, 1)
    };
    let count = |name, v: u64| metric(name, v as f64, "count", 1);

    vec![
        metric(
            "sql.parse_us_per_stmt",
            per(us(a.self_ns("parse")), a.calls("parse")),
            "us",
            a.calls("parse"),
        ),
        metric(
            "sql.plan_us_per_query",
            per(us(a.self_ns("plan")), a.calls("plan")),
            "us",
            a.calls("plan"),
        ),
        metric(
            "engine.update_us_per_row",
            per(us(a.self_ns("engine_update")), c.rows_affected),
            "us",
            a.calls("engine_update"),
        ),
        count("engine.rows_affected", c.rows_affected),
        metric(
            "engine.scan_ms_p50",
            median(&scan_ms),
            "ms",
            scan_ms.len() as u64,
        ),
        count("engine.rows_scanned", c.exec.rows_scanned),
        count("engine.rows_skipped", c.exec.rows_skipped),
        metric(
            "engine.skip_frac",
            per(c.exec.rows_skipped as f64, looked_at),
            "ratio",
            c.queries,
        ),
        metric(
            "sketch.use_rewrite_us",
            per(us(a.self_ns("use_rewrite")), a.calls("use_rewrite")),
            "us",
            a.calls("use_rewrite"),
        ),
        metric(
            "sketch.coverage_frac",
            per(c.coverage_sum, c.queries),
            "ratio",
            c.queries,
        ),
        metric(
            "engine.delta_fetch_us",
            per(us(fetch_ns), fetches),
            "us",
            fetches,
        ),
        metric(
            "sketch.annotate_ns_per_row",
            per(annotate_ns as f64, delta_rows),
            "ns",
            delta_rows,
        ),
        metric(
            "core.normalize_ns_per_row",
            per(normalize_ns as f64, delta_rows),
            "ns",
            delta_rows,
        ),
        metric(
            "core.maintain_ms_p50",
            median(&maintain_ms),
            "ms",
            maintain_ms.len() as u64,
        ),
        metric(
            "core.maintain_us_per_delta_row",
            per(us(maintain_ns), delta_rows),
            "us",
            delta_rows,
        ),
        // Operator self time: `maintain` minus the shadow-measured fetch,
        // annotate and normalize it contains, as a share of the pipeline.
        metric(
            "core.ops_self_frac",
            (maintain_ns as f64 - (fetch_ns + annotate_ns + normalize_ns) as f64)
                / pipeline_ns as f64,
            "ratio",
            a.calls("maintain"),
        ),
        count("core.delta_rows_fetched", delta_rows),
        count("core.rows_processed", c.maint.rows_processed),
        count("core.join_index_probes", c.maint.join_index_probes),
        count("core.nary_input_probes", c.nary_input_probes),
        count("core.db_roundtrips", c.maint.db_roundtrips),
        count("core.recaptures", c.recaptures),
        metric(
            "core.pool_memo_hit_frac",
            per(c.maint.pool_union_memo_hits as f64, unions),
            "ratio",
            unions,
        ),
        metric(
            "ref.capture_ms_p50",
            median(&capture_ms),
            "ms",
            capture_ms.len() as u64,
        ),
        metric(
            "ref.ns_scan_ms_p50",
            median(&ns_scan_ms),
            "ms",
            ns_scan_ms.len() as u64,
        ),
        // IMP ÷ full maintenance and no-sketch ÷ IMP: the paper's shapes as
        // hardware-independent ratios.
        metric(
            "ratio.maintain_over_capture",
            median(&maintain_ms) / median(&capture_ms),
            "ratio",
            capture_ms.len() as u64,
        ),
        metric(
            "ratio.skip_speedup",
            median(&ns_scan_ms) / median(&scan_ms),
            "ratio",
            ns_scan_ms.len() as u64,
        ),
        metric("middleware.overhead_frac", overhead, "ratio", c.statements),
        count("middleware.fresh", run.fresh),
        count("middleware.maintained", run.maintained),
        // The scheduler's cost is the same difference — timed wall through
        // the sharded store vs. the sequential replica.
        sched("sched.overhead_frac", "ratio", &|_| overhead),
        sched("sched.final_catchup_ms", "ms", &|_| {
            run.catchup.as_secs_f64() * 1e3
        }),
        sched("sched.routed_batches", "count", &|s| {
            s.routed_batches as f64
        }),
        sched("sched.fanout_messages", "count", &|s| {
            s.fanout_messages as f64
        }),
        sched("sched.coalesced_batches", "count", &|s| {
            s.coalesced_batches as f64
        }),
        sched("sched.backpressure_stalls", "count", &|s| {
            s.backpressure_stalls as f64
        }),
        sched("sched.staged_updates", "count", &|s| {
            s.staged_updates as f64
        }),
        sched("sched.maintain_runs", "count", &|s| s.maintain_runs as f64),
        sched("sched.max_queue_depth", "count", &|s| {
            s.per_shard.iter().map(|q| q.max_depth).max().unwrap_or(0) as f64
        }),
        metric(
            "trace.overhead_frac",
            t.spanfree_wall_ns
                .map_or(f64::NAN, |free| pipeline_ns as f64 / free as f64 - 1.0),
            "ratio",
            t.spans.len() as u64,
        ),
        metric(
            "trace.unattributed_frac",
            a.unattributed_ns as f64 / (pipeline_ns + a.unattributed_ns) as f64,
            "ratio",
            c.statements,
        ),
    ]
}

/// Counts of the traced replica pass (exact on in-line workloads).
pub fn traced_counts(c: &Counts, spans: usize) -> Vec<(&'static str, u64)> {
    vec![
        ("replica.statements", c.statements),
        ("replica.fresh", c.fresh),
        ("replica.maintained", c.maintained),
        ("replica.rows_affected", c.rows_affected),
        ("replica.delta_rows_fetched", c.maint.delta_rows_fetched),
        ("replica.delta_rows_pruned", c.maint.delta_rows_pruned),
        ("replica.rows_processed", c.maint.rows_processed),
        ("replica.groups_touched", c.maint.groups_touched),
        ("replica.join_index_probes", c.maint.join_index_probes),
        ("replica.nary_input_probes", c.nary_input_probes),
        ("replica.db_roundtrips", c.maint.db_roundtrips),
        ("replica.recaptures", c.recaptures),
        ("replica.pool_unions_computed", c.maint.pool_unions_computed),
        ("replica.pool_union_memo_hits", c.maint.pool_union_memo_hits),
        ("replica.rows_scanned", c.exec.rows_scanned),
        ("replica.rows_skipped", c.exec.rows_skipped),
        ("replica.spans", spans as u64),
    ]
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failures.count == 0
    }

    /// The metrics the driver's result line carries: end-to-end on a timed
    /// run, per-layer on a traced one.
    pub fn contract_metrics(&self) -> &[Metric] {
        if self.traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// The driver's result line.
    pub fn contract_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failures.count
        );
        for (i, m) in self.contract_metrics().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("writing to a String");
        }
        out.push_str("}}");
        out
    }

    /// One line of the `--out` file: everything, with sample counts.
    pub fn record_line(&self) -> String {
        let mut out = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"stream_hash\": \"{:016x}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"truncated\": {}, \"exact_counts\": {}, \"metrics\": {{",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.traced),
            self.stream_hash,
            self.correct(),
            self.attempted,
            self.failures.count,
            self.truncated,
            self.exact_counts
        );
        for (i, m) in self
            .end_to_end
            .iter()
            .chain(&self.beside)
            .chain(&self.per_layer)
            .enumerate()
        {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"n\": {}}}",
                m.name, m.value, m.unit, m.n
            )
            .expect("writing to a String");
        }
        out.push_str("}, \"counts\": {");
        for (i, (name, v)) in self.counts.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(out, "{sep}\"{name}\": {v}").expect("writing to a String");
        }
        out.push_str("}}");
        out
    }

    /// The human-readable report.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {}  seed {}  seconds {}  stream_hash {:016x}{}\n",
            self.workload,
            self.seed,
            self.seconds,
            self.stream_hash,
            if self.truncated {
                "  TRUNCATED at the deadline: counts are not comparable"
            } else {
                ""
            }
        );
        let section = |out: &mut String, title: &str, metrics: &[Metric]| {
            if metrics.is_empty() {
                return;
            }
            writeln!(out, "{title}").expect("writing to a String");
            for m in metrics {
                // A p95 stands on at least ten samples beyond it only from
                // n = 200 on; below that, say which percentile would.
                let caveat = match highest_supported_tail(m.n as usize) {
                    Some((p, _)) if p >= 95.0 => String::new(),
                    _ if !m.name.ends_with("_p95") => String::new(),
                    Some((_, label)) => format!("  (n supports only {label})"),
                    None => "  (n supports no tail percentile)".to_string(),
                };
                writeln!(
                    out,
                    "  {:<32} {:>14.4} {:<6} n={}{caveat}",
                    m.name, m.value, m.unit, m.n
                )
                .expect("writing to a String");
            }
        };
        section(
            &mut out,
            "end-to-end (timed run through Imp::execute, observability off)",
            &self.end_to_end,
        );
        section(
            &mut out,
            "beside them (not in BENCHMARK.json)",
            &self.beside,
        );
        section(
            &mut out,
            "per-layer (traced replica of the same op stream)",
            &self.per_layer,
        );
        writeln!(out, "counts").expect("writing to a String");
        for (name, v) in &self.counts {
            writeln!(out, "  {name:<32} {v:>14}").expect("writing to a String");
        }
        for f in &self.failures.first {
            writeln!(out, "  FAILED: {f}").expect("writing to a String");
        }
        out
    }
}
