//! The timed run: the op stream through `Imp::execute`, observability
//! off, no bench spans. Produces the end-to-end metrics.

use crate::check::{self, Failures, Template, CHECK_EVERY};
use crate::workloads::Workload;
use imp_core::metrics::SchedStats;
use imp_core::middleware::{Imp, ImpConfig, ImpResponse, QueryMode, SketchStateView};
use imp_data::workload::WorkloadOp;
use std::time::{Duration, Instant};

/// A run that overshoots `seconds` by this factor stops at the next query
/// (reported as `truncated`), so a slow machine cannot run into the
/// driver's per-run limit. Never triggers on the reference box.
const DEADLINE_FACTOR: f64 = 2.5;

/// A fresh `Imp` with every warm-up query captured.
pub struct Ready {
    pub imp: Imp,
    pub templates: Vec<Template>,
    /// Load tables + build `Imp` + first capture of every template.
    pub setup: Duration,
}

/// Set the system up from scratch. Ops that fail here count as failed.
pub fn setup(w: &Workload) -> Result<Ready, String> {
    let queries = w.warmup_queries();
    let start = Instant::now();
    let mut imp = Imp::new(
        w.load(),
        ImpConfig {
            sched_workers: w.sched_workers,
            // Explicitly no telemetry endpoint: `None` would consult the
            // `IMP_OBSD_ADDR` environment variable.
            obsd_addr: Some(String::new()),
            ..ImpConfig::default()
        },
    );
    for sql in &queries {
        match imp.execute(sql) {
            Ok(ImpResponse::Rows {
                mode: QueryMode::Captured,
                ..
            }) => {}
            other => return Err(format!("warm-up of {sql:?} did not capture: {other:?}")),
        }
    }
    let setup = start.elapsed();
    // Captures only read, so the data is still as loaded: the equi-depth
    // ranges resolved now are the ones `Imp` just chose.
    let templates = check::templates(&imp.db(), &queries, imp.config().fragments);
    Ok(Ready {
        imp,
        templates,
        setup,
    })
}

/// Everything the timed run measured.
#[derive(Debug, Default)]
pub struct TimedRun {
    /// Measured wall: Σ statements + final catch-up (oracle checks between
    /// statements excluded).
    pub wall: Duration,
    pub query_ms: Vec<f64>,
    pub update_ms: Vec<f64>,
    /// `maintain_all_stale()` (which on the sharded store first drains
    /// every staged and routed delta) after the last statement.
    pub catchup: Duration,
    /// Peak `Imp::store_heap_size()`: sampled at every oracle check on the
    /// in-line store, and after the catch-up on both.
    pub state_bytes: usize,
    pub attempted: u64,
    pub failures: Failures,
    pub fresh: u64,
    pub maintained: u64,
    pub rows_affected: u64,
    pub truncated: bool,
    pub sched: Option<SchedStats>,
    pub final_states: Vec<SketchStateView>,
}

/// Drive `w.ops` through `ready.imp`, then catch up and check the final
/// sketches.
pub fn run(w: &Workload, ready: Ready, seconds: u64) -> TimedRun {
    let Ready {
        mut imp, templates, ..
    } = ready;
    let mut out = TimedRun::default();
    let deadline = Duration::from_secs_f64(seconds as f64 * DEADLINE_FACTOR);
    let mut measured = Duration::ZERO;
    for (i, op) in w.ops.iter().enumerate() {
        out.attempted += 1;
        let (sql, is_query) = match op {
            WorkloadOp::Query(sql) => (sql, true),
            WorkloadOp::Update { sql, .. } => (sql, false),
        };
        let start = Instant::now();
        let response = imp.execute(sql);
        let took = start.elapsed();
        measured += took;
        match response {
            Ok(ImpResponse::Rows { result, mode }) if is_query => {
                out.query_ms.push(took.as_secs_f64() * 1e3);
                match mode {
                    QueryMode::UsedFresh => out.fresh += 1,
                    QueryMode::Maintained(_) => out.maintained += 1,
                    // Set-up captured every template; a capture (or a
                    // sketch-less answer) here means it leaked into the
                    // measured phase.
                    QueryMode::Captured | QueryMode::NoSketch => out
                        .failures
                        .record(format!("op {i}: answered by {mode:?} after set-up")),
                }
                if (out.query_ms.len() - 1) % CHECK_EVERY == 0 {
                    // Sample the store's footprint here too, outside the
                    // clock: interner flushes make it a sawtooth, and only
                    // its peak repeats from run to run. (Not on the sharded
                    // store, where asking is a barrier across the workers.)
                    if w.sched_workers == 0 {
                        out.state_bytes = out.state_bytes.max(imp.store_heap_size());
                    }
                    let plan = &templates
                        .iter()
                        .find(|t| t.sql == *sql)
                        .expect("warm-up covers every query text")
                        .plan;
                    if !check::result_matches(&imp.db(), plan, &result) {
                        out.failures
                            .record(format!("op {i}: result differs from the unrewritten plan"));
                    }
                }
            }
            Ok(ImpResponse::Affected { count, .. }) if !is_query => {
                out.update_ms.push(took.as_secs_f64() * 1e3);
                out.rows_affected += count;
            }
            other => out
                .failures
                .record(format!("op {i}: {sql:.60}… → {other:?}")),
        }
        if is_query && measured > deadline {
            out.truncated = i + 1 < w.ops.len();
            break;
        }
    }
    let start = Instant::now();
    let caught_up = imp.maintain_all_stale();
    out.catchup = start.elapsed();
    out.wall = measured + out.catchup;
    if let Err(e) = caught_up {
        out.attempted += 1;
        out.failures.record(format!("final catch-up: {e}"));
    }

    out.state_bytes = out.state_bytes.max(imp.store_heap_size());
    out.sched = imp.scheduler().map(|s| s.stats());
    out.final_states = imp.sketch_states();
    // One attempted check per template, so a wrong sketch shows in
    // failed ÷ attempted.
    out.attempted += templates.len() as u64;
    let stale = check::stale_sketches(&imp.db(), &templates, &out.final_states);
    for _ in 0..stale {
        out.failures
            .record("final sketch differs from a fresh capture".into());
    }
    out
}
