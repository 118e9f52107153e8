//! Differential property test for a skewed backlog: a randomized,
//! *skewed* insert/delete workload (most updates hammer one hot table, so
//! the backlog is mostly one table's) runs through the zero-worker store
//! (the caller maintains every sketch through the fetching path) and
//! through a 2–4-worker pool — workers' sweeps interleave with one
//! another and with the caller's. After every round both sides must hold
//! byte-identical sketch sets and maintained versions, and answer queries
//! identically. Updates land while the pool is paused so a backlog
//! deterministically exists for the resumed workers to race for. (The
//! suite keeps the name it had when idle workers stole from other
//! shards' inboxes; every worker now sweeps the one store.)

use imp_core::middleware::{Imp, ImpConfig, ImpResponse};
use imp_engine::Database;
use imp_storage::{row, DataType, Field, Schema};
use proptest::prelude::*;

const KEYS: i64 = 6;

fn seed_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        "hot",
        Schema::new(vec![
            Field::new("kh", DataType::Int),
            Field::new("vh", DataType::Int),
        ]),
    )
    .unwrap();
    db.create_table(
        "warm",
        Schema::new(vec![
            Field::new("kw", DataType::Int),
            Field::new("vw", DataType::Int),
        ]),
    )
    .unwrap();
    db.create_table(
        "cold",
        Schema::new(vec![
            Field::new("kc", DataType::Int),
            Field::new("vc", DataType::Int),
        ]),
    )
    .unwrap();
    for k in 0..KEYS {
        db.table_mut("hot")
            .unwrap()
            .bulk_load([row![k, k * 10], row![k, 3]])
            .unwrap();
        db.table_mut("warm")
            .unwrap()
            .bulk_load([row![k, (k + 1) % KEYS]])
            .unwrap();
        db.table_mut("cold")
            .unwrap()
            .bulk_load([row![k, k * 100]])
            .unwrap();
    }
    db
}

fn config(workers: usize, join_index_budget: Option<usize>) -> ImpConfig {
    ImpConfig {
        fragments: 4,
        sched_workers: workers,
        join_index_budget,
        ..ImpConfig::default()
    }
}

/// Three templates over overlapping tables; the workload skews toward
/// `hot`, which both of the first two templates reference.
const QUERIES: [&str; 3] = [
    "SELECT kh, sum(vh) AS s FROM hot GROUP BY kh HAVING sum(vh) > 20",
    "SELECT kw, sum(vh) AS s FROM hot JOIN warm ON (kh = kw) GROUP BY kw HAVING sum(vh) > 5",
    "SELECT kc, sum(vc) AS s FROM cold GROUP BY kc HAVING sum(vc) > 150",
];

/// Skewed table pick: indexes 0..6 → `hot`, 6 → `warm`, 7 → `cold`.
const TABLES: [(&str, &str); 3] = [("hot", "kh"), ("warm", "kw"), ("cold", "kc")];

fn pick_table(skewed: usize) -> (&'static str, &'static str) {
    match skewed {
        0..=5 => TABLES[0],
        6 => TABLES[1],
        _ => TABLES[2],
    }
}

fn run_query(imp: &mut Imp, sql: &str) -> Vec<(imp_storage::Row, i64)> {
    let ImpResponse::Rows { result, .. } = imp.execute(sql).unwrap() else {
        panic!("expected rows for {sql}")
    };
    result.canonical()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn stealing_pool_matches_sequential_store(
        // (skewed table pick, key, delete?, value), chunked into rounds
        // applied against a paused pool so real backlogs wait.
        ops in prop::collection::vec(
            (0usize..8, 0i64..KEYS, any::<bool>(), 0i64..60),
            1..48,
        ),
        workers in 2usize..5,
        // Default side indexes, or a budget every join side outgrows: an
        // over-budget side is evaluated per batch against the database.
        tight_index in any::<bool>(),
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

        for (round, batch) in ops.chunks(6).enumerate() {
            // Updates land against a paused pool: the whole round waits
            // before any worker may sweep, so on resume every worker finds
            // a backlog to sweep.
            let paused = par.scheduler().unwrap().pause();
            for &(skewed, key, delete, val) in batch {
                let (table, key_col) = pick_table(skewed);
                let sql = if delete {
                    format!("DELETE FROM {table} WHERE {key_col} = {key}")
                } else {
                    format!("INSERT INTO {table} VALUES ({key}, {val})")
                };
                seq.execute(&sql).unwrap();
                par.execute(&sql).unwrap();
            }
            paused.resume();
            // Converge both sides (workers and the caller's sweep
            // racing).
            seq.maintain_all_stale().unwrap();
            par.maintain_all_stale().unwrap();
            prop_assert_eq!(
                seq.sketch_states(),
                par.sketch_states(),
                "sketch sets/versions diverged at round {} (workers {})",
                round,
                workers
            );
            let sql = QUERIES[round % QUERIES.len()];
            let a = run_query(&mut seq, sql);
            let b = run_query(&mut par, sql);
            prop_assert_eq!(a, b, "query answers diverged at round {}", round);
            prop_assert_eq!(seq.sketch_states(), par.sketch_states());
        }

        // Every update reached the workers through the one path: noted,
        // never copied out of the log.
        let stats = par.scheduler().unwrap().stats();
        prop_assert!(
            stats.staged_updates + stats.backpressure_stalls > 0
                || stats.routed_batches == 0,
            "updates must be noted, not routed: {:?}",
            stats
        );
    }
}
