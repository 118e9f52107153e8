//! Correctness of the bench harness itself: the FM baseline must answer
//! every query in the stream (regression test for the first-occurrence
//! branch that captured a sketch but never executed the rewritten
//! query), maintenance counts are reported per update batch, and
//! malformed env knobs must fail loudly instead of being silently replaced
//! by defaults.

use imp_bench::{measure_inc_vs_full, parse_env, pset_for, run_fm, run_ns};
use imp_data::synthetic::{load, SyntheticConfig};
use imp_data::workload::{insert_stream, mixed_workload, WorkloadOp};
use imp_engine::Database;

fn fresh_db(rows: usize, groups: i64) -> Database {
    let mut db = Database::new();
    load(
        &mut db,
        &SyntheticConfig {
            rows,
            groups,
            ..Default::default()
        },
    )
    .unwrap();
    db
}

#[test]
fn fm_answers_every_query_in_the_stream() {
    let (rows, groups) = (2_000usize, 100i64);
    let wl = mixed_workload(1, 2, 60, 20, groups, rows, 7);
    let query_ops = wl
        .ops
        .iter()
        .filter(|op| matches!(op, WorkloadOp::Query(_)))
        .count();
    assert!(query_ops > 0, "workload must contain queries");

    // NS executes each op exactly once — the ground-truth op count.
    let mut db = fresh_db(rows, groups);
    run_ns(&mut db, &wl.ops);

    let mut db = fresh_db(rows, groups);
    let fm = run_fm(&mut db, &wl.ops, ("edb1", "a", 50));
    assert_eq!(
        fm.queries_executed, query_ops,
        "FM must answer every SELECT like the NS baseline does \
         (first-occurrence captures included)"
    );
    assert!(
        fm.captures >= 1,
        "the stream's first query must take the first-occurrence branch"
    );
    assert!(
        fm.recaptures >= 1,
        "interleaved updates must force stale recaptures"
    );
    // Every answered query is a capture or came from the stored path.
    assert!(fm.captures <= fm.queries_executed);
}

/// The counts of an IMP-vs-FM measurement are per batch: `n` insert
/// batches of `d` rows each fetch `d` delta rows, whatever `n` is (so a
/// gated count does not grow with `IMP_BENCH_REPS`).
#[test]
fn maintenance_counts_are_per_batch() {
    let (rows, groups, d) = (2_000usize, 50i64, 40usize);
    let sql = "SELECT a, sum(b) AS s FROM edb1 GROUP BY a HAVING sum(b) > 0";
    for n in [1, 3] {
        let mut db = fresh_db(rows, groups);
        let plan = db.plan_sql(sql).unwrap();
        let pset = pset_for(&db, "edb1", "a", 10);
        let updates = insert_stream("edb1", n, d, groups, rows * 2, 5);
        let m = measure_inc_vs_full(&mut db, &plan, &pset, &updates);
        assert_eq!(m.metrics.delta_rows_fetched, d as u64, "{n} batches");
    }
}

#[test]
fn parse_env_accepts_well_formed_values() {
    let scale: f64 = parse_env("IMP_BENCH_SCALE", "0.25");
    assert_eq!(scale, 0.25);
    let reps: usize = parse_env("IMP_BENCH_REPS", " 12 ");
    assert_eq!(reps, 12);
}

#[test]
#[should_panic(expected = "IMP_BENCH_SCALE")]
fn parse_env_panics_on_malformed_scale() {
    let _: f64 = parse_env("IMP_BENCH_SCALE", "0.01x");
}

#[test]
#[should_panic(expected = "IMP_BENCH_REPS")]
fn parse_env_panics_on_malformed_reps() {
    let _: usize = parse_env("IMP_BENCH_REPS", "three");
}
