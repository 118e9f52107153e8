//! Heap-accounting consistency property: `Imp::store_heap_size()` must
//! equal the sum of per-sketch `state_bytes` in `describe_sketches()`,
//! on both backends, across capture / update / evict / recapture /
//! pool-flush / advisor cycles. The two numbers travel different paths
//! (the heap total sums an inspection of the store; the summaries are
//! built per sketch), so this guards the accounting against drift. With
//! workers a third path joins them: the `state_bytes` the store
//! publishes after a sweep. (Whether the numbers are *right* —
//! equal to a walk of the live state — is the in-crate `heap_oracle`
//! suite's job.)

use imp_core::middleware::{Imp, ImpConfig};
use imp_engine::Database;
use imp_sql::{QueryTemplate, Statement};
use imp_storage::{row, DataType, Field, Schema};
use proptest::prelude::*;

const TABLES: [&str; 2] = ["ha", "hb"];

fn seed_db() -> Database {
    let mut db = Database::new();
    for name in TABLES {
        db.create_table(
            name,
            Schema::new(vec![
                Field::new("g", DataType::Int),
                Field::new("v", DataType::Int),
            ]),
        )
        .unwrap();
        db.table_mut(name)
            .unwrap()
            .bulk_load((0..40).map(|i| row![i % 5, i]))
            .unwrap();
    }
    db
}

/// Three templates over two tables (the third marks everything — a
/// zero-benefit sketch the advisor demotes quickly).
fn queries() -> [String; 3] {
    [
        "SELECT g, sum(v) AS s FROM ha GROUP BY g HAVING sum(v) > 100".into(),
        "SELECT g, sum(v) AS s FROM hb GROUP BY g HAVING sum(v) > 120".into(),
        "SELECT g, sum(v) AS s FROM hb GROUP BY g HAVING sum(v) > 0".into(),
    ]
}

fn template_of(sql: &str) -> QueryTemplate {
    let Statement::Select(sel) = imp_sql::parse_one(sql).unwrap() else {
        panic!("not a select: {sql}")
    };
    QueryTemplate::of(&sel)
}

fn assert_consistent(imp: &Imp, context: &str) -> Result<(), TestCaseError> {
    let total = imp.store_heap_size();
    let summed: usize = imp.describe_sketches().iter().map(|s| s.state_bytes).sum();
    prop_assert_eq!(
        total,
        summed,
        "store_heap_size {} != Σ describe_sketches state_bytes {} after {}",
        total,
        summed,
        context
    );
    Ok(())
}

/// After a drained sweep over `table`'s delta the store has republished:
/// the `state_bytes` it published for the sketches over `table` are the
/// bytes an inspection barrier reports now.
fn assert_published_sizes(imp: &Imp, table: &str) -> Result<(), TestCaseError> {
    let Some(sched) = imp.scheduler() else {
        return Ok(());
    };
    sched.drain();
    let inspected = imp.describe_sketches();
    for p in &sched.board_handle().read().sketches {
        if !p.tables.iter().any(|t| t == table) {
            continue;
        }
        let summary = inspected.iter().find(|s| *s.sql == *p.sql);
        prop_assert_eq!(
            Some(p.state_bytes),
            summary.map(|s| s.state_bytes),
            "published state_bytes != inspected for {}",
            p.sql
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn store_heap_equals_per_sketch_sum(
        // (op selector, argument) — ops cover capture/use, updates,
        // whole-store and single-template eviction, pool flushes, stale
        // sweeps, and advisor passes.
        ops in prop::collection::vec((0usize..7, 0usize..3), 1..24,
        ),
        workers in 0usize..3,
    ) {
        let qs = queries();
        let mut imp = Imp::new(seed_db(), ImpConfig {
            fragments: 5,
            sched_workers: workers,
            // Tight enough that advisor passes exercise evict/drop paths.
            sketch_memory_budget: Some(48 * 1024),
            ..ImpConfig::default()
        });
        for (step, &(op, arg)) in ops.iter().enumerate() {
            match op {
                0 | 1 => {
                    imp.execute(&qs[arg]).unwrap();
                }
                2 => {
                    let table = TABLES[arg % TABLES.len()];
                    imp.execute(&format!("INSERT INTO {table} VALUES ({}, {step})", arg))
                        .unwrap();
                    assert_published_sizes(&imp, table)?;
                }
                3 => {
                    imp.evict_all_states().unwrap();
                }
                4 => {
                    imp.evict_state(&template_of(&qs[arg])).unwrap();
                }
                5 => {
                    imp.flush_pool_caches();
                }
                _ => {
                    imp.advise().unwrap();
                }
            }
            // Settle the workers' maintenance (sharded backend) so both
            // accounting paths observe the same quiescent store.
            imp.maintain_all_stale().unwrap();
            assert_consistent(&imp, &format!("op {op}({arg}) at step {step}, workers {workers}"))?;
        }
    }
}
