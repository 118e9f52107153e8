//! The heap-accounting oracle (test-only).
//!
//! Every size the system reports is a running total read in O(1). The
//! walks those totals replaced survive here and in the `tests` modules of
//! the state-owning files as `walked_heap_size`: the same per-entry
//! formulas, recomputed naively from the live state. The suites below
//! assert `running == walked` after every step of a random script, and —
//! through the visit counter — that nothing on the maintenance path
//! walks state to size it.

use crate::ops::IncNode;
use crate::opt::{Bounded, BoundedEntry};
use imp_storage::{AnnotPool, BitVec, FxHashSet};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// State entries visited by walkers on this thread, ever.
    static VISITS: Cell<u64> = const { Cell::new(0) };
}

/// State entries the walkers have visited on the calling thread.
pub(crate) fn visits() -> u64 {
    VISITS.with(Cell::get)
}

/// One walk over a maintainer's operator state.
pub(crate) struct Walk<'a> {
    pool: &'a AnnotPool,
    seen: FxHashSet<usize>,
    unpooled: usize,
}

impl<'a> Walk<'a> {
    pub(crate) fn new(pool: &'a AnnotPool) -> Walk<'a> {
        Walk {
            pool,
            seen: FxHashSet::default(),
            unpooled: 0,
        }
    }

    /// Count `entries` visited state entries.
    pub(crate) fn visit(&mut self, entries: usize) {
        VISITS.with(|v| v.set(v.get() + entries as u64));
    }

    /// A state-held annotation handle: its allocation must be the pool's
    /// own (then the pool's total counts it, once); otherwise its bytes
    /// are counted nowhere and land in [`Walk::unpooled`].
    pub(crate) fn annot(&mut self, handle: &Arc<BitVec>) {
        let owned = self
            .pool
            .pooled(handle)
            .is_some_and(|p| Arc::ptr_eq(p, handle));
        if self.seen.insert(Arc::as_ptr(handle) as usize) && !owned {
            self.unpooled += handle.heap_size() + std::mem::size_of::<BitVec>();
        }
    }

    /// Bytes of state-held annotation allocations the pool does not own.
    pub(crate) fn unpooled(&self) -> usize {
        self.unpooled
    }
}

/// The bounded set of MIN / MAX and top-k: one walk for every user.
impl<T: BoundedEntry> Bounded<T> {
    pub(crate) fn walked_heap_size(&self, w: &mut Walk<'_>) -> usize {
        w.visit(self.len());
        self.iter().map(|(e, _)| e.heap_bytes()).sum()
    }
}

impl IncNode {
    pub(crate) fn walked_heap_size(&self, w: &mut Walk<'_>) -> usize {
        let mut size = match self {
            IncNode::Nary(n) => n.walked_heap_size(w),
            IncNode::Aggregate(a) => a.walked_heap_size(w),
            IncNode::TopK(t) => t.walked_heap_size(w),
            _ => 0,
        };
        self.for_each_child(&mut |c| size += c.walked_heap_size(w));
        size
    }
}

mod tests {
    use super::visits;
    use crate::middleware::{Imp, ImpConfig, ImpResponse, QueryMode};
    use crate::ops::DbAccess;
    use crate::MaintReport;
    use imp_engine::Database;
    use imp_sql::{QueryTemplate, Statement};
    use imp_storage::{row, DataType, Field, Schema};
    use parking_lot::RwLock;
    use proptest::prelude::*;

    const KEYS: i64 = 5;
    const TABLES: [(&str, &str, &str); 4] = [
        ("ta", "ka", "va"),
        ("tb", "kb1", "kb2"),
        ("tc", "kc1", "kc2"),
        ("td", "kd", "wd"),
    ];

    /// 4-table chain `ta ⋈ tb ⋈ tc ⋈ td` on `ka = kb1`, `kb2 = kc1`,
    /// `kc2 = kd`, `rows` rows per table over `keys` join keys.
    fn chain_db(rows: i64, keys: i64) -> Database {
        let mut db = Database::new();
        for (table, c1, c2) in TABLES {
            let schema = Schema::new(vec![
                Field::new(c1, DataType::Int),
                Field::new(c2, DataType::Int),
            ]);
            db.create_table(table, schema).unwrap();
        }
        let load = |db: &mut Database, table: &str, f: &dyn Fn(i64) -> i64| {
            let rows = (0..rows).map(|i| row![i % keys, f(i)]);
            db.table_mut(table).unwrap().bulk_load(rows).unwrap();
        };
        load(&mut db, "ta", &|i| i * 10);
        load(&mut db, "tb", &|i| (i + 1) % keys);
        load(&mut db, "tc", &|i| (i + 2) % keys);
        load(&mut db, "td", &|i| i * 100);
        db
    }

    /// 4-input join + aggregate, MIN/MAX, top-k, 2-input join + aggregate.
    const QUERIES: [&str; 4] = [
        "SELECT va, sum(wd) AS s FROM ta JOIN tb ON (ka = kb1) JOIN tc ON (kb2 = kc1) \
         JOIN td ON (kc2 = kd) GROUP BY va HAVING sum(wd) > 100",
        "SELECT ka, min(va) AS lo, max(va) AS hi FROM ta GROUP BY ka HAVING min(va) < 100000",
        "SELECT kd, wd FROM td ORDER BY wd DESC LIMIT 3",
        "SELECT ka, sum(wd) AS s FROM ta JOIN td ON (ka = kd) GROUP BY ka HAVING sum(wd) > 50",
    ];

    fn template_of(sql: &str) -> QueryTemplate {
        let Statement::Select(sel) = imp_sql::parse_one(sql).unwrap() else {
            panic!("not a select: {sql}")
        };
        QueryTemplate::of(&sel)
    }

    fn config(workers: usize) -> ImpConfig {
        ImpConfig {
            fragments: 4,
            sched_workers: workers,
            partition_overrides: vec![("ta".into(), "ka".into()), ("td".into(), "kd".into())],
            allow_unsafe_attributes: true,
            ..ImpConfig::default()
        }
    }

    /// Every stored sketch: running total == walk, nothing state-held
    /// outside the pool.
    fn assert_exact(imp: &Imp, context: &str) -> Result<(), TestCaseError> {
        let mut failure = None;
        imp.for_each_stored(&mut |e| {
            let (walked, unpooled) = e.walked_heap_size();
            if (e.maintainer.state_heap_size(), 0) != (walked, unpooled) && failure.is_none() {
                failure = Some(format!(
                    "{}: running {} != walked {} (unpooled {unpooled}) after {context}",
                    e.sql,
                    e.maintainer.state_heap_size(),
                    walked
                ));
            }
        });
        match failure {
            Some(message) => Err(TestCaseError::fail(message)),
            None => Ok(()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn running_totals_equal_the_walk_at_every_step(
            ops in prop::collection::vec((0usize..14, 0usize..4, 0i64..KEYS, 0i64..60), 1..40),
            sharded in any::<bool>(),
            topk_buffer in prop_oneof![Just(None), Just(Some(4usize))],
            tight_index in any::<bool>(),
        ) {
            let mut imp = Imp::new(chain_db(KEYS, KEYS), ImpConfig {
                // Small bounds, so the script crosses them: MIN/MAX trees
                // evict past 2 values, a join side is dropped (`Disabled`)
                // past 8 entries, the advisor demotes under 24 KiB.
                minmax_buffer: Some(2),
                topk_buffer,
                join_index_budget: if tight_index { Some(8) } else { ImpConfig::default().join_index_budget },
                sketch_memory_budget: Some(24 * 1024),
                ..config(if sharded { 2 } else { 0 })
            });
            for (step, &(op, t, key, val)) in ops.iter().enumerate() {
                let (table, key_col, val_col) = TABLES[t];
                let val = if t == 1 || t == 2 { val % KEYS } else { val };
                match op {
                    0..=3 => {
                        imp.execute(QUERIES[op]).unwrap();
                    }
                    4..=6 => {
                        imp.execute(&format!("INSERT INTO {table} VALUES ({key}, {val})")).unwrap();
                    }
                    7 => {
                        imp.execute(&format!("DELETE FROM {table} WHERE {key_col} = {key}")).unwrap();
                    }
                    8 => {
                        imp.execute(&format!(
                            "UPDATE {table} SET {val_col} = {val} WHERE {key_col} = {key}"
                        )).unwrap();
                    }
                    9 => {
                        imp.evict_state(&template_of(QUERIES[t])).unwrap();
                    }
                    10 => {
                        imp.flush_pool_caches();
                    }
                    11 => {
                        imp.repartition_all().unwrap();
                    }
                    12 => {
                        imp.advise().unwrap();
                    }
                    _ => {
                        imp.vacuum();
                    }
                }
                let context = format!("op {op}({t}, {key}, {val}) at step {step}");
                assert_exact(&imp, &context)?;
                // Bring every proactively maintained sketch current (runs
                // the deltas through every operator; evicted state waits
                // for a query) and check again.
                imp.maintain_all_stale().unwrap();
                assert_exact(&imp, &format!("maintenance after {context}"))?;
            }
        }
    }

    /// The deterministic counts of one maintenance run.
    fn counts(report: &MaintReport) -> (u64, u64, u64, Vec<u64>, u64, bool) {
        let m = &report.metrics;
        (
            m.delta_rows_fetched,
            m.rows_processed,
            m.join_index_probes,
            report.nary_input_probes.clone(),
            m.db_roundtrips,
            report.recaptured,
        )
    }

    /// Rows each churn batch of [`delta_batches`] inserts into every chain
    /// table and deletes again.
    const CHURN_WINDOWS: [i64; 2] = [2, 5];

    /// The statements of each maintenance run: one single-row insert per
    /// chain table, then its retraction (no base row of [`chain_db`] is
    /// `(1, 7)`); then per [`CHURN_WINDOWS`] entry `w` one churned run, in
    /// which `w` rows are inserted into every table and deleted again
    /// (their value column is negative, so the delete hits no base row).
    fn delta_batches() -> Vec<Vec<String>> {
        let mut batches = Vec::new();
        for (table, key_col, val_col) in TABLES {
            batches.push(vec![format!("INSERT INTO {table} VALUES (1, 7)")]);
            batches.push(vec![format!(
                "DELETE FROM {table} WHERE {key_col} = 1 AND {val_col} = 7"
            )]);
        }
        for (i, w) in CHURN_WINDOWS.into_iter().enumerate() {
            let mark = -1 - i as i64;
            let mut batch = Vec::new();
            for (table, _, _) in TABLES {
                let rows: Vec<String> = (0..w).map(|k| format!("({k}, {mark})")).collect();
                batch.push(format!("INSERT INTO {table} VALUES {}", rows.join(", ")));
            }
            for (table, _, val_col) in TABLES {
                batch.push(format!("DELETE FROM {table} WHERE {val_col} = {mark}"));
            }
            batches.push(batch);
        }
        batches
    }

    /// Veldhuizen's bound as counts, the accounting rule as a tripwire:
    /// identical single-row deltas against a 4-table chain cost the same
    /// rows, index probes and per-input probes at 2 k and at 200 k base
    /// rows — and no run, sweep or publish visits one state entry to
    /// size anything. Under churn no run recaptures, the join indexes
    /// hold exactly the live base rows (no intermediate pair state), a
    /// run makes a database round trip only to build an input's index
    /// the first time another input's delta probes it, and rows inserted
    /// and deleted again before a run cancel before the operators.
    #[test]
    fn maintenance_cost_follows_the_delta_not_the_state() {
        let mut per_size = Vec::new();
        for rows_per_table in [500i64, 50_000] {
            // Keys scale with the table, so a key's fan-out — hence the
            // join's delta — is the same at both sizes.
            let keys = rows_per_table;
            let walked_before = visits();

            // In-line: `maintain` through a query of the stale sketch.
            let mut inline = Imp::new(chain_db(rows_per_table, keys), config(0));
            inline.execute(QUERIES[0]).unwrap();
            let mut inline_counts = Vec::new();
            for batch in delta_batches() {
                for stmt in &batch {
                    inline.execute(stmt).unwrap();
                }
                let ImpResponse::Rows { mode, .. } = inline.execute(QUERIES[0]).unwrap() else {
                    panic!("rows expected")
                };
                if let QueryMode::Maintained(report) = mode {
                    inline_counts.push(counts(&report));
                }
            }

            // Sharded: a drain sweeps and publishes on this thread,
            // workers parked, and a maintainer runs the sweep's path —
            // fetch under a short read lock, operators on the shared
            // database — directly.
            let mut sharded = Imp::new(chain_db(rows_per_table, keys), config(1));
            sharded.execute(QUERIES[0]).unwrap();
            let mut runs = 0;
            for batch in delta_batches() {
                let paused = sharded.scheduler().unwrap().pause();
                for stmt in &batch {
                    sharded.execute(stmt).unwrap();
                }
                runs += sharded.scheduler().unwrap().drain();
                paused.resume();
            }
            assert_eq!(
                runs,
                delta_batches().len(),
                "every batch is one run, made here"
            );
            let mut shared_counts = Vec::new();
            {
                let db = chain_db(rows_per_table, keys);
                let plan = db.plan_sql(QUERIES[0]).unwrap();
                let pset = crate::middleware::capture::choose_partitions(&db, &config(0), &plan)
                    .unwrap()
                    .unwrap();
                let (mut m, _) =
                    crate::SketchMaintainer::capture(&plan, &db, pset, config(0).op_config(), true)
                        .unwrap();
                let db = RwLock::new(db);
                for batch in delta_batches() {
                    for stmt in &batch {
                        db.write().execute_sql(stmt).unwrap();
                    }
                    let report = m.maintain_with(&DbAccess::shared(&db), true).unwrap();
                    shared_counts.push(counts(&report));
                }
                let live: usize = (TABLES.iter())
                    .map(|(table, _, _)| db.read().table(table).unwrap().row_count())
                    .sum();
                assert_eq!(
                    m.join_index_state().0,
                    live,
                    "the join indexes hold each live base row once, and nothing else"
                );
            }

            assert_eq!(
                visits(),
                walked_before,
                "a maintenance path walked state to size it ({rows_per_table} rows/table)"
            );
            assert_eq!(
                inline_counts.len(),
                delta_batches().len(),
                "every batch maintains"
            );
            assert_eq!(
                inline_counts, shared_counts,
                "a query's run and a sweep's run agree"
            );
            // The first delta on ta probes (and so indexes) tb, tc and td;
            // the first on tb indexes ta. No other run leaves memory.
            assert_eq!(
                inline_counts[0].3,
                [0, 1, 1, 1],
                "one probe per other input"
            );
            let mut roundtrips = vec![0; inline_counts.len()];
            (roundtrips[0], roundtrips[2]) = (3, 1);
            assert_eq!(
                inline_counts.iter().map(|c| c.4).collect::<Vec<_>>(),
                roundtrips
            );
            assert!(inline_counts.iter().all(|c| !c.5), "churn recaptured");
            let churned = &inline_counts[2 * TABLES.len()..];
            for (&w, (fetched, processed, ..)) in CHURN_WINDOWS.iter().zip(churned) {
                assert_eq!(*fetched, 2 * 4 * w as u64, "each inserted and deleted row");
                assert_eq!(*processed, 0, "churned delta rows reached the operators");
            }
            // The oracle still agrees at this size (and does visit state).
            assert_exact(&inline, "the scaling script").unwrap();
            assert_exact(&sharded, "the scaling script").unwrap();
            assert!(visits() > walked_before);
            per_size.push(inline_counts);
        }
        assert_eq!(per_size[0], per_size[1], "cost moved with the base size");
    }
}
