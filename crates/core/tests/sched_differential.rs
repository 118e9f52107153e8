//! Differential property test for the maintenance scheduler: the same
//! randomized multi-query, multi-table insert/delete workload runs
//! through the zero-worker store (`sched_workers = 0`: nothing is noted,
//! and the caller maintains every sketch through the fetching path) and
//! through a ≥2-worker `ShardPool` (workers sweeping beside the caller's
//! sweeps). After every round both sides must hold **byte-identical
//! sketch sets and maintained versions** — how sweeps split the stream
//! into runs, and worker parallelism, may change cost, never results.
//! Eviction/recapture cycles are woven in mid-run, and query answers
//! through the USE/rewrite path are compared as well.

use imp_core::middleware::{Imp, ImpConfig, ImpResponse};
use imp_engine::Database;
use imp_storage::{row, DataType, Field, Schema};
use proptest::prelude::*;

const KEYS: i64 = 6;

fn seed_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        "ta",
        Schema::new(vec![
            Field::new("ka", DataType::Int),
            Field::new("va", DataType::Int),
        ]),
    )
    .unwrap();
    db.create_table(
        "tb",
        Schema::new(vec![
            Field::new("kb", DataType::Int),
            Field::new("vb", DataType::Int),
        ]),
    )
    .unwrap();
    db.create_table(
        "tc",
        Schema::new(vec![
            Field::new("kc", DataType::Int),
            Field::new("wc", DataType::Int),
        ]),
    )
    .unwrap();
    for k in 0..KEYS {
        db.table_mut("ta")
            .unwrap()
            .bulk_load([row![k, k * 10], row![k, 5]])
            .unwrap();
        db.table_mut("tb")
            .unwrap()
            .bulk_load([row![k, (k + 1) % KEYS]])
            .unwrap();
        db.table_mut("tc")
            .unwrap()
            .bulk_load([row![k, k * 100], row![k, 7]])
            .unwrap();
    }
    db
}

fn config(workers: usize, join_index_budget: Option<usize>) -> ImpConfig {
    ImpConfig {
        fragments: 4,
        topk_buffer: Some(4),
        sched_workers: workers,
        join_index_budget,
        ..ImpConfig::default()
    }
}

/// The multi-query workload: aggregation, join + aggregation, and top-k
/// over grouped sums — three templates touching overlapping table sets.
const QUERIES: [&str; 3] = [
    "SELECT ka, sum(va) AS s FROM ta GROUP BY ka HAVING sum(va) > 40",
    "SELECT kb, sum(va) AS s FROM ta JOIN tb ON (ka = kb) GROUP BY kb HAVING sum(va) > 10",
    "SELECT kc, sum(wc) AS sw FROM tc GROUP BY kc ORDER BY sw DESC LIMIT 2",
];

const TABLES: [(&str, &str); 3] = [("ta", "ka"), ("tb", "kb"), ("tc", "kc")];

fn run_query(imp: &mut Imp, sql: &str) -> Vec<(imp_storage::Row, i64)> {
    let ImpResponse::Rows { result, .. } = imp.execute(sql).unwrap() else {
        panic!("expected rows for {sql}")
    };
    result.canonical()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn shard_pool_matches_sequential_store(
        // (table, key, delete?, value), chunked into multi-statement
        // rounds so a run spans several statements and tables.
        ops in prop::collection::vec(
            (0usize..3, 0i64..KEYS, any::<bool>(), 0i64..60),
            1..40,
        ),
        workers in 2usize..5,
        // Default side indexes, or a budget every join side outgrows: an
        // over-budget side is evaluated per batch against the database.
        tight_index in any::<bool>(),
        evict in any::<bool>(),
    ) {
        let budget = if tight_index { Some(1) } else { ImpConfig::default().join_index_budget };
        let mut seq = Imp::new(seed_db(), config(0, budget));
        let mut par = Imp::new(seed_db(), config(workers, budget));
        for sql in QUERIES {
            let a = run_query(&mut seq, sql);
            let b = run_query(&mut par, sql);
            prop_assert_eq!(a, b, "capture results diverged for {}", sql);
        }
        prop_assert_eq!(seq.sketch_count(), 3);
        prop_assert_eq!(par.sketch_count(), 3);

        for (round, batch) in ops.chunks(3).enumerate() {
            for &(t, key, delete, val) in batch {
                let (table, key_col) = TABLES[t];
                let sql = if delete {
                    format!("DELETE FROM {table} WHERE {key_col} = {key}")
                } else {
                    format!("INSERT INTO {table} VALUES ({key}, {val})")
                };
                seq.execute(&sql).unwrap();
                par.execute(&sql).unwrap();
            }
            // Mid-run eviction: the pool must survive its sketches' state
            // being dropped and recaptured on the worker side.
            if evict && round % 2 == 1 {
                seq.evict_all_states().unwrap();
                par.evict_all_states().unwrap();
            }
            // Converge both sides (one sweep on the caller, racing the
            // workers').
            seq.maintain_all_stale().unwrap();
            par.maintain_all_stale().unwrap();
            prop_assert_eq!(
                seq.sketch_states(),
                par.sketch_states(),
                "sketch sets/versions diverged at round {} (workers {})",
                round,
                workers
            );
            // The USE path answers identically through both stores.
            let sql = QUERIES[round % QUERIES.len()];
            let a = run_query(&mut seq, sql);
            let b = run_query(&mut par, sql);
            prop_assert_eq!(a, b, "query answers diverged at round {}", round);
            prop_assert_eq!(seq.sketch_states(), par.sketch_states());
        }
    }
}
