//! Shared measurement utilities for the figure harnesses.

use imp_core::maintain::SketchMaintainer;
use imp_core::obs::{HistSnapshot, LatencyHistogram, Obs, ObsConfig};
use imp_core::ops::OpConfig;
use imp_core::MaintMetrics;
use imp_data::workload::WorkloadOp;
use imp_engine::Database;
use imp_sketch::{capture, PartitionSet, RangePartition};
use imp_sql::LogicalPlan;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Parse one benchmark env value, panicking with a clear message on
/// malformed input. A typo'd `IMP_BENCH_SCALE` in CI must fail the job
/// loudly, not silently fall back to a full-scale (or smoke-scale) run.
pub fn parse_env<T: std::str::FromStr>(name: &str, raw: &str) -> T {
    raw.trim().parse().unwrap_or_else(|_| {
        panic!(
            "{name} must parse as {}, got {raw:?} — unset it for the default",
            std::any::type_name::<T>()
        )
    })
}

/// Global size multiplier from `IMP_BENCH_SCALE` (default 1.0). Panics on
/// unparseable or non-positive values.
pub fn scale() -> f64 {
    match std::env::var("IMP_BENCH_SCALE") {
        Ok(s) => {
            let v: f64 = parse_env("IMP_BENCH_SCALE", &s);
            assert!(
                v.is_finite() && v > 0.0,
                "IMP_BENCH_SCALE must be a positive finite number, got {s:?}"
            );
            v
        }
        Err(_) => 1.0,
    }
}

/// `n` scaled by [`scale`], at least `min`.
pub fn scaled(n: usize, min: usize) -> usize {
    ((n as f64 * scale()) as usize).max(min)
}

/// Repetitions for timed measurements (`IMP_BENCH_REPS`, default 3;
/// the paper uses ≥10 — raise for tighter medians). Panics on
/// unparseable or zero values.
pub fn reps() -> usize {
    match std::env::var("IMP_BENCH_REPS") {
        Ok(s) => {
            let v: usize = parse_env("IMP_BENCH_REPS", &s);
            assert!(v >= 1, "IMP_BENCH_REPS must be at least 1, got {s:?}");
            v
        }
        Err(_) => 3,
    }
}

/// Observability switch for the harnesses (`IMP_OBS`, default off): when
/// on, [`measure_inc_vs_full`] records into the fully instrumented
/// [`bench_obs`] hub — latency histograms and pipeline tracing — and
/// [`write_obs_artifacts`] writes its trace/metrics artifacts next to the
/// `BENCH_*.json` (`bench_check --check-obs` validates them in CI).
/// Panics on anything but `0`/`1`/`true`/`false`.
fn obs_enabled() -> bool {
    match std::env::var("IMP_OBS") {
        Ok(s) => match s.trim() {
            "" | "0" | "false" => false,
            "1" | "true" => true,
            other => panic!("IMP_OBS must be one of 0/1/true/false, got {other:?}"),
        },
        Err(_) => false,
    }
}

/// The process-wide bench observability hub: `Some` (fully enabled,
/// histograms + tracing) when [`obs_enabled`], `None` otherwise.
/// [`measure_inc_vs_full`] records here.
pub fn bench_obs() -> Option<&'static Arc<Obs>> {
    static OBS: OnceLock<Option<Arc<Obs>>> = OnceLock::new();
    OBS.get_or_init(|| obs_enabled().then(|| Obs::new(&ObsConfig::on())))
        .as_ref()
}

/// Write the [`bench_obs`] hub's artifacts into `IMP_BENCH_OUT` (default
/// `.`, the same convention as `BenchReport::finish`; no-op with `IMP_OBS`
/// off): `TRACE_<harness>.json` (Chrome trace-event JSON, loadable in
/// `chrome://tracing`), `METRICS_<harness>.json` (deterministic registry
/// snapshot), and `METRICS_<harness>.prom` (Prometheus text exposition).
/// Harnesses that measure through [`measure_inc_vs_full`] call this once
/// after `BenchReport::finish`.
pub fn write_obs_artifacts(harness: &str) {
    let Some(obs) = bench_obs() else {
        return;
    };
    let dir =
        std::path::PathBuf::from(std::env::var("IMP_BENCH_OUT").unwrap_or_else(|_| ".".into()));
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create IMP_BENCH_OUT dir {dir:?}: {e}"));
    for (name, contents) in [
        (format!("TRACE_{harness}.json"), obs.trace_chrome_json()),
        (format!("METRICS_{harness}.json"), obs.metrics_json()),
        (format!("METRICS_{harness}.prom"), obs.metrics_text()),
    ] {
        let path = dir.join(&name);
        std::fs::write(&path, contents)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }
}

/// Median of a set of durations, in milliseconds.
pub fn median_ms(mut xs: Vec<Duration>) -> f64 {
    xs.sort();
    if xs.is_empty() {
        return 0.0;
    }
    xs[xs.len() / 2].as_secs_f64() * 1e3
}

/// Time one closure invocation.
pub fn time_once<R>(mut f: impl FnMut() -> R) -> (Duration, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed(), r)
}

/// Print an aligned table: header row + data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Format milliseconds compactly.
pub fn ms(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}ms")
    } else if v >= 1.0 {
        format!("{v:.2}ms")
    } else {
        format!("{:.1}us", v * 1e3)
    }
}

/// Format a byte count compactly.
pub fn bytes_h(v: u64) -> String {
    if v >= 1_000_000 {
        format!("{:.1}MB", v as f64 / 1e6)
    } else if v >= 1_000 {
        format!("{:.1}KB", v as f64 / 1e3)
    } else {
        format!("{v}B")
    }
}

/// Format the union-memoization rate of a run's pool activity: the share
/// of annotation unions answered without computing (memo/fast-path hits).
pub fn memo_rate(m: &MaintMetrics) -> String {
    let total = m.pool_unions_computed + m.pool_union_memo_hits;
    if total == 0 {
        "-".into()
    } else {
        format!(
            "{:.0}% of {}",
            100.0 * m.pool_union_memo_hits as f64 / total as f64,
            total
        )
    }
}

/// Build a partition set with one equi-depth partition.
pub fn pset_for(
    db: &Database,
    table: &str,
    attribute: &str,
    fragments: usize,
) -> Arc<PartitionSet> {
    Arc::new(
        PartitionSet::new(vec![RangePartition::equi_depth(
            db, table, attribute, fragments,
        )
        .unwrap()])
        .unwrap(),
    )
}

/// The standard §8.2/§8.3 experiment: capture a sketch, then for each
/// update batch measure incremental maintenance; also measure one full
/// maintenance (re-capture) per repetition. Returns `(imp_ms, fm_ms)`
/// medians per maintenance run.
pub struct IncVsFull {
    /// Median incremental maintenance time per batch (ms).
    pub imp_ms: f64,
    /// Median full maintenance (capture query) time (ms).
    pub fm_ms: f64,
    /// Number of recaptures forced by bounded state.
    pub recaptures: usize,
    /// Maintenance metrics per batch (delta heap accounting, pool
    /// union/intern counters, …): each count's mean over the batches,
    /// rounded up, so a count does not grow with `IMP_BENCH_REPS`.
    pub metrics: MaintMetrics,
    /// Full per-batch statistics of the incremental runs (criterion-shim
    /// mean/median/stddev/min/max) for the `BENCH_*.json` trajectory.
    pub imp_stats: criterion::SampleStats,
    /// Full statistics of the full-maintenance (capture) runs.
    pub fm_stats: criterion::SampleStats,
    /// Per-batch incremental maintain latencies through the obs
    /// log-bucketed histogram: tail quantiles (`p50/p95/p99`) for the
    /// trajectory, where the criterion-shim stats only carry the median.
    pub imp_hist: HistSnapshot,
}

/// Run the IMP-vs-FM measurement for a prepared database and plan.
pub fn measure_inc_vs_full(
    db: &mut Database,
    plan: &LogicalPlan,
    pset: &Arc<PartitionSet>,
    updates: &[WorkloadOp],
) -> IncVsFull {
    let (mut maintainer, _) =
        SketchMaintainer::capture(plan, db, Arc::clone(pset), OpConfig::default(), true).unwrap();
    // Under IMP_OBS the measured maintains record into the bench hub:
    // attaching the tracer here makes the operator-level spans
    // (`join_delta`, `nary_probe`, `aggregate_delta`, …) land in its
    // per-thread ring for the TRACE artifact.
    let obs = bench_obs();
    let _attach = obs.map(|o| o.attach());
    let hist = LatencyHistogram::new();
    let mut imp_times = Vec::new();
    let mut recaptures = 0usize;
    let mut metrics = MaintMetrics::default();
    for op in updates {
        let WorkloadOp::Update { sql, .. } = op else {
            continue;
        };
        db.execute_sql(sql).unwrap();
        let (t, report) = time_once(|| maintainer.maintain(db).unwrap());
        if report.recaptured {
            recaptures += 1;
        }
        let nanos = t.as_nanos() as u64;
        hist.record(nanos);
        if let Some(o) = obs {
            o.maintain_observed_spanned("inc_vs_full", nanos);
        }
        metrics.absorb(&report.metrics);
        imp_times.push(t);
    }
    // FM: rerun the capture query on the final state.
    let mut fm_times = Vec::new();
    for _ in 0..reps() {
        let (t, _) = time_once(|| capture(plan, db, pset).unwrap());
        fm_times.push(t);
    }
    IncVsFull {
        imp_ms: median_ms(imp_times.clone()),
        fm_ms: median_ms(fm_times.clone()),
        recaptures,
        metrics: per_batch(&metrics, imp_times.len()),
        imp_stats: criterion::sample_stats(&imp_times),
        fm_stats: criterion::sample_stats(&fm_times),
        imp_hist: hist.snapshot(),
    }
}

/// `total`, the metrics of `batches` runs added up, as the mean per run,
/// rounded up: a count that one batch of several made (the round trip
/// that builds a join index) reads 1, not 0.
fn per_batch(total: &MaintMetrics, batches: usize) -> MaintMetrics {
    let n = batches.max(1) as u64;
    let mean = |count: u64| count.div_ceil(n);
    MaintMetrics {
        delta_rows_fetched: mean(total.delta_rows_fetched),
        delta_rows_pruned: mean(total.delta_rows_pruned),
        db_roundtrips: mean(total.db_roundtrips),
        db_roundtrips_avoided: mean(total.db_roundtrips_avoided),
        rows_sent_to_db: mean(total.rows_sent_to_db),
        join_index_probes: mean(total.join_index_probes),
        join_index_builds: mean(total.join_index_builds),
        db_rows_scanned: mean(total.db_rows_scanned),
        rows_processed: mean(total.rows_processed),
        groups_touched: mean(total.groups_touched),
        delta_bytes_pooled: mean(total.delta_bytes_pooled),
        delta_bytes_flat: mean(total.delta_bytes_flat),
        pool_unions_computed: mean(total.pool_unions_computed),
        pool_union_memo_hits: mean(total.pool_union_memo_hits),
        pool_interned: mean(total.pool_interned),
        pool_intern_hits: mean(total.pool_intern_hits),
    }
}

/// Apply a stream of operations to a raw database (the NS baseline),
/// returning the total wall-clock time.
pub fn run_ns(db: &mut Database, ops: &[WorkloadOp]) -> Duration {
    let t = Instant::now();
    for op in ops {
        match op {
            WorkloadOp::Query(sql) => {
                db.query(sql).unwrap();
            }
            WorkloadOp::Update { sql, .. } => {
                db.execute_sql(sql).unwrap();
            }
        }
    }
    t.elapsed()
}

/// Run a stream through the IMP middleware, returning total time.
pub fn run_imp(imp: &mut imp_core::Imp, ops: &[WorkloadOp]) -> Duration {
    let t = Instant::now();
    for op in ops {
        match op {
            WorkloadOp::Query(sql) => {
                imp.execute(sql).unwrap();
            }
            WorkloadOp::Update { sql, .. } => {
                imp.execute(sql).unwrap();
            }
        }
    }
    t.elapsed()
}

/// Outcome of one [`run_fm`] stream: wall-clock plus the execution
/// counters the regression tests compare against the NS path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FmRun {
    /// Total wall-clock time for the stream.
    pub total: Duration,
    /// SELECTs actually answered (must equal the stream's query count —
    /// the FM baseline serves every query, it just pays capture for it).
    pub queries_executed: usize,
    /// First-occurrence sketch captures.
    pub captures: usize,
    /// Stale re-captures (the "full maintenance" the baseline is named
    /// for).
    pub recaptures: usize,
}

/// The FM baseline of §8.1: sketches are used for queries but *fully*
/// re-captured whenever stale.
pub fn run_fm(db: &mut Database, ops: &[WorkloadOp], pset_table: (&str, &str, usize)) -> FmRun {
    use imp_sql::{QueryTemplate, Statement};
    let mut store: std::collections::HashMap<
        QueryTemplate,
        (LogicalPlan, Arc<PartitionSet>, imp_sketch::SketchSet, u64),
    > = Default::default();
    let mut queries_executed = 0usize;
    let mut captures = 0usize;
    let mut recaptures = 0usize;
    let t = Instant::now();
    for op in ops {
        match op {
            WorkloadOp::Update { sql, .. } => {
                db.execute_sql(sql).unwrap();
            }
            WorkloadOp::Query(sql) => {
                let Statement::Select(sel) = imp_sql::parse_one(sql).unwrap() else {
                    panic!()
                };
                let template = QueryTemplate::of(&sel);
                let plan = db.plan_sql(sql).unwrap();
                match store.get_mut(&template) {
                    Some((splan, pset, sketch, version)) if *splan == plan => {
                        if *version != db.version() {
                            // Stale: full maintenance = rerun capture.
                            let cap = capture(splan, db, pset).unwrap();
                            *sketch = cap.sketch;
                            *version = db.version();
                            recaptures += 1;
                        }
                        let rewritten = imp_sketch::apply_sketch_filter(&plan, sketch).unwrap();
                        db.execute_plan(&rewritten).unwrap();
                        queries_executed += 1;
                    }
                    _ => {
                        let (table, attr, frags) = pset_table;
                        let pset = pset_for(db, table, attr, frags);
                        let cap = capture(&plan, db, &pset).unwrap();
                        // The first occurrence must still *answer* the
                        // query — capture only builds the sketch. Skipping
                        // this execution undercounted FM by one query per
                        // template (and let FM "win" unfairly vs NS/IMP,
                        // which both answer every query).
                        let rewritten =
                            imp_sketch::apply_sketch_filter(&plan, &cap.sketch).unwrap();
                        db.execute_plan(&rewritten).unwrap();
                        queries_executed += 1;
                        captures += 1;
                        store.insert(template, (plan, pset, cap.sketch, db.version()));
                    }
                }
            }
        }
    }
    FmRun {
        total: t.elapsed(),
        queries_executed,
        captures,
        recaptures,
    }
}
