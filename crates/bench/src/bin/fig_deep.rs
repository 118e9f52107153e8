//! Deep-plan stress: the n-ary join circuit on a 4-table chain under a
//! high-churn retraction workload.
//!
//! A 4-table chain join (`d0 ⋈ d1 ⋈ d2 ⋈ d3`) compiles to a single
//! [`imp_core::ops::NaryJoinOp`] maintaining `Δ(R₁ ⋈ … ⋈ R₄)` against
//! four per-input indexes — no intermediate pair state. The workload is
//! pure churn: every batch inserts a slab of rows into all four tables
//! and retracts the previous batch's slab, so negative-multiplicity
//! deltas flow through every term of the telescoping rule and the
//! steady-state content keeps returning to the seed.
//!
//! The harness **panics** when the contract breaks:
//!
//! * the chain must compile to one 4-input operator
//!   (`nary_arity() == Some(4)`);
//! * zero intermediate pair state: after the final batch the index
//!   entries equal the live base-table rows exactly (each row in exactly
//!   one per-input index);
//! * steady state is round-trip-free and O(|Δ|): after the first batch
//!   builds the four indexes, every maintenance run reports
//!   `db_roundtrips == 0` and total per-input probes bounded by a small
//!   constant times the batch's delta rows;
//! * the maintained sketch ends byte-identical to a fresh recapture.

use imp_bench::*;
use imp_core::maintain::SketchMaintainer;
use imp_engine::Database;
use imp_sketch::capture;
use imp_storage::{row, DataType, Field, Schema};
use std::sync::Arc;
use std::time::Duration;

const SQL: &str = "SELECT v0, v3 FROM d0 JOIN d1 ON (k0 = k1a) \
     JOIN d2 ON (k1b = k2a) JOIN d3 ON (k2b = k3)";

/// Churn-row value marker: batch `i`'s slab carries `MARKER + i` in the
/// value column, so retracting the slab is one DELETE per table and can
/// never touch a seed row.
const MARKER: i64 = 9_000_000;

fn seed_db(keys: i64) -> Database {
    let mut db = Database::new();
    for (table, c1, c2) in [
        ("d0", "k0", "v0"),
        ("d1", "k1a", "k1b"),
        ("d2", "k2a", "k2b"),
        ("d3", "k3", "v3"),
    ] {
        db.create_table(
            table,
            Schema::new(vec![
                Field::new(c1, DataType::Int),
                Field::new(c2, DataType::Int),
            ]),
        )
        .unwrap();
    }
    for k in 0..keys {
        db.table_mut("d0").unwrap().bulk_load([row![k, k]]).unwrap();
        db.table_mut("d1").unwrap().bulk_load([row![k, k]]).unwrap();
        db.table_mut("d2").unwrap().bulk_load([row![k, k]]).unwrap();
        db.table_mut("d3").unwrap().bulk_load([row![k, k]]).unwrap();
    }
    db
}

/// One churn batch: `delta` inserts spread over the four tables, keys
/// cycling the join domain. Returns (insert SQL, matching delete SQL).
fn churn_batch(batch: usize, delta: usize, keys: i64) -> (Vec<String>, Vec<String>) {
    let mark = MARKER + batch as i64;
    let mut inserts = Vec::with_capacity(delta);
    let mut deletes = Vec::with_capacity(4);
    for j in 0..delta {
        let key = (batch * delta + j) as i64 % keys;
        let sql = match j % 4 {
            0 => format!("INSERT INTO d0 VALUES ({key}, {mark})"),
            // Join-side churn: (k, k + offset) never collides with the
            // seed diagonal (k, k) as long as offset ∤ keys.
            1 => format!("INSERT INTO d1 VALUES ({key}, {})", (key + 1) % keys),
            2 => format!("INSERT INTO d2 VALUES ({key}, {})", (key + 2) % keys),
            _ => format!("INSERT INTO d3 VALUES ({key}, {mark})"),
        };
        inserts.push(sql);
    }
    deletes.push(format!("DELETE FROM d0 WHERE v0 = {mark}"));
    for (t, off) in [("d1", 1i64), ("d2", 2)] {
        for j in 0..delta {
            if j % 4 == if t == "d1" { 1 } else { 2 } {
                let key = (batch * delta + j) as i64 % keys;
                deletes.push(format!(
                    "DELETE FROM {t} WHERE k{}a = {key} AND k{}b = {}",
                    &t[1..],
                    &t[1..],
                    (key + off) % keys
                ));
            }
        }
    }
    deletes.push(format!("DELETE FROM d3 WHERE v3 = {mark}"));
    (inserts, deletes)
}

struct Run {
    times: Vec<Duration>,
    steady_roundtrips: u64,
    probes_total: Vec<u64>,
    probes_last: Vec<u64>,
    index_entries: usize,
    index_bytes: usize,
}

fn run(keys: i64, batches: usize, delta: usize) -> Run {
    let mut db = seed_db(keys);
    let plan = db.plan_sql(SQL).unwrap();
    let pset = pset_for(&db, "d0", "k0", 40);
    let mut m = SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), bench_op_config(), true)
        .unwrap()
        .0;
    assert_eq!(
        m.nary_arity(),
        Some(4),
        "wrong join-circuit compilation for the 4-table chain"
    );

    let mut times = Vec::new();
    let mut steady_roundtrips = 0u64;
    let mut probes_total = vec![0u64; 4];
    let mut probes_last = Vec::new();
    let mut pending_deletes: Vec<String> = Vec::new();
    for batch in 0..batches {
        let (inserts, deletes) = churn_batch(batch, delta, keys);
        let mut delta_rows = 0usize;
        for sql in pending_deletes.drain(..).chain(inserts) {
            db.execute_sql(&sql).unwrap();
            delta_rows += 1;
        }
        pending_deletes = deletes;
        let (t, report) = time_once(|| m.maintain(&db).unwrap());
        times.push(t);
        assert!(!report.recaptured, "churn must not force recapture");
        if batch >= 1 {
            // Steady state: the per-input indexes were built during the
            // first batch; from then on maintenance is round-trip-free.
            steady_roundtrips += report.metrics.db_roundtrips;
            let probes: u64 = report.nary_input_probes.iter().sum();
            assert!(
                probes as usize <= delta_rows * 16 * 4,
                "batch {batch} probed {probes} times for {delta_rows} \
                 delta rows — steady-state maintenance must stay O(|Δ|)"
            );
        }
        assert_eq!(report.nary_input_probes.len(), 4);
        for (acc, p) in probes_total.iter_mut().zip(&report.nary_input_probes) {
            *acc += p;
        }
        probes_last = report.nary_input_probes;
    }
    assert_eq!(
        steady_roundtrips, 0,
        "steady-state n-ary maintenance must avoid backend round trips"
    );

    // Retract the last slab too, so the final content is exactly the
    // seed plus the cycled join-side rows — then compare to recapture.
    for sql in pending_deletes.drain(..) {
        db.execute_sql(&sql).unwrap();
    }
    m.maintain(&db).unwrap();
    let truth = capture(&plan, &db, &pset).unwrap();
    assert_eq!(
        m.sketch(),
        &truth.sketch,
        "maintained sketch diverged from fresh recapture after churn"
    );

    let (index_entries, index_bytes) = m.join_index_state();
    let live: usize = ["d0", "d1", "d2", "d3"]
        .iter()
        .map(|t| db.table(t).unwrap().row_count())
        .sum();
    assert_eq!(
        index_entries, live,
        "n-ary state must hold exactly the n per-input indexes \
         (one entry per live base row — zero intermediate pair state)"
    );
    Run {
        times,
        steady_roundtrips,
        probes_total,
        probes_last,
        index_entries,
        index_bytes,
    }
}

fn main() {
    let keys = scaled(2_000, 60) as i64;
    let batches = scaled(30, 8);
    let delta = scaled(600, 24);
    println!("deep: 4-table chain, {batches} churn batches x {delta} rows, {keys} keys");

    let nary = run(keys, batches, delta);

    let mut report = BenchReport::new("fig_deep");
    let mut rec = Record::new("deep", "nary".to_string())
        .time_ms("maintain_med", median_ms(nary.times.clone()))
        .count("steady_roundtrips", nary.steady_roundtrips, false)
        .count("index_entries", nary.index_entries as u64, true)
        .heap("index_bytes", nary.index_bytes as u64);
    for (i, p) in nary.probes_total.iter().enumerate() {
        rec = rec.count(format!("probes_in{i}"), *p, false);
    }
    report.add(rec);
    let out = vec![vec![
        "nary".to_string(),
        ms(median_ms(nary.times.clone())),
        nary.steady_roundtrips.to_string(),
        nary.index_entries.to_string(),
        bytes_h(nary.index_bytes as u64),
        format!("{:?}", nary.probes_total),
        format!("{:?}", nary.probes_last),
    ]];
    print_table(
        "deep: n-ary circuit on a 4-table chain",
        &[
            "config",
            "maintain",
            "steady rt",
            "idx entries",
            "idx bytes",
            "probes (total)",
            "probes (last)",
        ],
        &out,
    );
    println!(
        "\nn-ary circuit: zero pair state, round-trip-free steady maintenance, \
         byte-identical to recapture under full-churn retraction ✓"
    );
    report.finish();
}
