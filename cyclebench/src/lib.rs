//! `bench_cycle`: the benchmark of one IMP update→query cycle, end to end
//! and layer by layer. See `README.md` next to this package for the metric
//! glossary and why each workload exists.
//!
//! * [`workloads`] — the four seeded op streams;
//! * [`timed`] — the timed run through `Imp::execute` (end-to-end metrics);
//! * [`replica`] + [`spans`] — the traced run (per-layer metrics);
//! * [`check`] — the output checks behind `failed`;
//! * [`report`] / [`compare`] — output forms and the run-set comparator.

pub mod check;
pub mod compare;
pub mod replica;
pub mod report;
pub mod spans;
pub mod stats;
pub mod timed;
pub mod workloads;

use report::{RunReport, Traced};
use spans::Recorder;
use workloads::Workload;

/// Set-ups per timed run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Where the traced run writes its span file.
pub const TRACE_DIR: &str = "target/bench_cycle";

/// Generate workload `name` and [`run`] it.
pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<RunReport, String> {
    let w = workloads::generate(name, seed, seconds)
        .ok_or_else(|| format!("unknown workload {name:?}; one of {:?}", workloads::NAMES))?;
    run(&w, seed, seconds, traced)
}

/// Set up, run and check one workload. `traced` adds the replica pass (and
/// writes the span file); the timed run happens either way, because the
/// overhead metrics are differences against it.
pub fn run(w: &Workload, seed: u64, seconds: u64, traced: bool) -> Result<RunReport, String> {
    // A traced run reports no set-up time, so one set-up is enough there.
    let reps = if traced { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut ready = timed::setup(w)?;
    setup_s.push(ready.setup.as_secs_f64());
    for _ in 1..reps {
        drop(ready);
        ready = timed::setup(w)?;
        setup_s.push(ready.setup.as_secs_f64());
    }
    let run = timed::run(w, ready, seconds);

    let mut report = RunReport {
        workload: w.name,
        seed,
        seconds,
        traced,
        stream_hash: w.stream_hash(),
        attempted: run.attempted,
        truncated: run.truncated,
        exact_counts: w.sched_workers == 0,
        end_to_end: report::end_to_end(&run, &setup_s),
        beside: report::beside(&run),
        per_layer: Vec::new(),
        counts: report::timed_counts(&run),
        failures: run.failures.clone(),
    };
    if !traced {
        return Ok(report);
    }

    let mut replica = replica::Replica::setup(w);
    let mut rec = Recorder::new(true);
    replica.run(&w.ops, &mut rec);
    let (spans, wall_ns) = rec.finish();
    let attribution = spans::attribute(&spans, wall_ns);

    // The replica must land where `Imp` landed (unless the timed run was
    // cut short), and its own oracle checks count like the timed run's.
    report.attempted += replica.counts.statements + 1;
    report.failures.absorb(&replica.counts.failures);
    if !run.truncated && !same_bits(&replica.sketch_states(), &run.final_states) {
        report
            .failures
            .record("replica's final sketches differ from Imp's".into());
    }

    let spanfree_wall_ns = w.price_tracing.then(|| {
        let mut bare = replica::Replica::setup(w);
        let mut off = Recorder::new(false);
        bare.run(&w.ops, &mut off);
        off.finish().1
    });

    report.per_layer = report::per_layer(
        &run,
        &Traced {
            spans: &spans,
            attribution: &attribution,
            counts: &replica.counts,
            spanfree_wall_ns,
        },
    );
    report
        .counts
        .extend(report::traced_counts(&replica.counts, spans.len()));

    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
    let path = format!("{TRACE_DIR}/trace-{}.json", w.name);
    std::fs::write(&path, spans::to_json(&spans)).map_err(|e| format!("{path}: {e}"))?;
    Ok(report)
}

/// Sketch bits agree per captured query. Versions are left out: the
/// sharded store and the replica number their commits identically, but
/// that is the scheduler's contract to test, not this benchmark's.
fn same_bits(
    a: &[imp_core::middleware::SketchStateView],
    b: &[imp_core::middleware::SketchStateView],
) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.sql == y.sql && x.bits == y.bits)
}
