//! Property tests of Theorem 6.1 (correctness of the incremental
//! maintenance procedure) and of the PBDS safety property, over random
//! databases, random queries from the supported fragment, random
//! partitions, and random update sequences:
//!
//! 1. **Over-approximation**: after every maintenance run, the maintained
//!    sketch contains the accurate sketch of the updated database
//!    (`P[Q, Φ, D ∪• ΔD] ⊆ P ∪• I(Q, Φ, S, Δ𝒟)`). With unbounded state the
//!    counter-based semantics is exact, so we additionally check equality.
//! 2. **Safety**: for partitions on safe (group-by) attributes, evaluating
//!    the query over the sketch-covered data equals evaluating it over the
//!    full database (`Q(D_P) = Q(D)`).
//! 3. **Tuple correctness**: the backend's result always matches a
//!    reference recomputation.

use imp::core::maintain::SketchMaintainer;
use imp::core::ops::OpConfig;
use imp::engine::Database;
use imp::sketch::{apply_sketch_filter, capture, PartitionSet, RangePartition};
use imp::storage::{row, DataType, Field, Schema, Table, Value};
use proptest::prelude::*;
use std::sync::Arc;

/// One randomized update.
#[derive(Debug, Clone)]
enum Update {
    Insert { g: i64, v: i64 },
    DeleteValue { v: i64 },
    DeleteGroup { g: i64 },
}

fn update_strategy(groups: i64, vmax: i64) -> impl Strategy<Value = Update> {
    prop_oneof![
        4 => (0..groups, 0..vmax).prop_map(|(g, v)| Update::Insert { g, v }),
        2 => (0..vmax).prop_map(|v| Update::DeleteValue { v }),
        1 => (0..groups).prop_map(|g| Update::DeleteGroup { g }),
    ]
}

/// Queries from the supported fragment, parameterized by a threshold.
fn query_pool(threshold: i64) -> Vec<String> {
    vec![
        format!("SELECT g, sum(v) AS sv FROM t GROUP BY g HAVING sum(v) > {threshold}"),
        format!("SELECT g, count(v) AS cv FROM t GROUP BY g HAVING count(v) > 3"),
        format!(
            "SELECT g, avg(v) AS av, min(v) AS mn, max(v) AS mx FROM t \
             GROUP BY g HAVING avg(v) < {threshold}"
        ),
        "SELECT g, sum(v) AS sv FROM t GROUP BY g ORDER BY sv DESC LIMIT 3".to_string(),
        format!("SELECT g, v FROM t WHERE v < {threshold}"),
        "SELECT DISTINCT g FROM t".to_string(),
    ]
}

fn build_db(rows: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    db.create_table(
        "t",
        Schema::new(vec![
            Field::new("g", DataType::Int),
            Field::new("v", DataType::Int),
        ]),
    )
    .unwrap();
    db.table_mut("t")
        .unwrap()
        .bulk_load(rows.iter().map(|(g, v)| row![*g, *v]))
        .unwrap();
    db
}

fn apply_update(db: &mut Database, u: &Update) {
    match u {
        Update::Insert { g, v } => {
            db.execute_sql(&format!("INSERT INTO t VALUES ({g}, {v})"))
                .unwrap();
        }
        Update::DeleteValue { v } => {
            db.execute_sql(&format!("DELETE FROM t WHERE v = {v}"))
                .unwrap();
        }
        Update::DeleteGroup { g } => {
            db.execute_sql(&format!("DELETE FROM t WHERE g = {g}"))
                .unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// Theorem 6.1 with unbounded state: incremental == accurate capture,
    /// and rewritten queries stay safe, across a random update sequence.
    #[test]
    fn incremental_maintenance_is_exact_and_safe(
        initial in prop::collection::vec((0i64..12, 0i64..60), 10..120),
        updates in prop::collection::vec(update_strategy(12, 60), 1..25),
        query_idx in 0usize..6,
        threshold in 50i64..400,
        cuts in prop::collection::btree_set(1i64..12, 0..5),
    ) {
        let mut db = build_db(&initial);
        let sql = &query_pool(threshold)[query_idx];
        let plan = db.plan_sql(sql).unwrap();
        // Partition on the group-by attribute `g` with random cuts — safe
        // for every query in the pool.
        let partition = RangePartition::new(
            "t", "g", 0,
            cuts.into_iter().map(Value::Int).collect(),
        ).unwrap();
        let pset = Arc::new(PartitionSet::new(vec![partition]).unwrap());
        let (mut m, first) = SketchMaintainer::capture(
            &plan, &db, Arc::clone(&pset), OpConfig::default(), true,
        ).unwrap();

        // Capture answers the query correctly.
        let direct = db.execute_plan(&plan).unwrap();
        prop_assert_eq!(
            imp::engine::database::canonical_bag(&first),
            direct.canonical()
        );

        for (step, u) in updates.iter().enumerate() {
            apply_update(&mut db, u);
            m.maintain(&db).unwrap();

            // (1) Exactness (⇒ over-approximation) of the sketch.
            let accurate = capture(&plan, &db, &pset).unwrap().sketch;
            prop_assert!(m.sketch().covers(&accurate), "not sound at step {}", step);
            prop_assert_eq!(m.sketch(), &accurate);

            // (2) Safety: query over sketch data == query over full data.
            let rewritten = apply_sketch_filter(&plan, m.sketch()).unwrap();
            prop_assert_eq!(
                db.execute_plan(&rewritten).unwrap().canonical(),
                db.execute_plan(&plan).unwrap().canonical(),
                "unsafe at step {}", step
            );
        }
    }

    /// Bounded MIN/MAX and top-k buffers may force recaptures but must
    /// never yield a sketch that misses provenance (Thm. 6.1 with the
    /// accuracy-for-performance trade of §7.2).
    #[test]
    fn bounded_buffers_remain_sound(
        initial in prop::collection::vec((0i64..8, 0i64..40), 20..100),
        updates in prop::collection::vec(update_strategy(8, 40), 1..20),
        buffer in 1usize..5,
        topk in prop::bool::ANY,
    ) {
        let mut db = build_db(&initial);
        let sql = if topk {
            "SELECT g, min(v) AS mv FROM t GROUP BY g ORDER BY mv LIMIT 2"
        } else {
            "SELECT g, min(v) AS mv, max(v) AS mx FROM t GROUP BY g HAVING min(v) < 30"
        };
        let plan = db.plan_sql(sql).unwrap();
        let partition = RangePartition::new(
            "t", "g", 0, vec![Value::Int(3), Value::Int(6)],
        ).unwrap();
        let pset = Arc::new(PartitionSet::new(vec![partition]).unwrap());
        let cfg = OpConfig {
            minmax_buffer: Some(buffer),
            topk_buffer: Some(buffer * 3),
            ..OpConfig::default()
        };
        let (mut m, _) = SketchMaintainer::capture(
            &plan, &db, Arc::clone(&pset), cfg, true,
        ).unwrap();
        for (step, u) in updates.iter().enumerate() {
            apply_update(&mut db, u);
            m.maintain(&db).unwrap();
            let accurate = capture(&plan, &db, &pset).unwrap().sketch;
            prop_assert!(m.sketch().covers(&accurate), "unsound at step {}", step);
            let rewritten = apply_sketch_filter(&plan, m.sketch()).unwrap();
            prop_assert_eq!(
                db.execute_plan(&rewritten).unwrap().canonical(),
                db.execute_plan(&plan).unwrap().canonical(),
                "unsafe at step {}", step
            );
        }
    }

    /// Join queries: incremental maintenance with sketches on both tables
    /// (the Fig. 5 configuration) matches batch capture under updates to
    /// either side.
    #[test]
    fn join_maintenance_matches_capture(
        r_rows in prop::collection::vec((0i64..10, 0i64..10), 5..60),
        s_rows in prop::collection::vec((0i64..10, 0i64..10), 5..60),
        updates in prop::collection::vec(
            (prop::bool::ANY, prop::bool::ANY, 0i64..10, 0i64..10), 1..15),
    ) {
        let mut db = Database::new();
        db.create_table("r", Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ])).unwrap();
        db.create_table("s", Schema::new(vec![
            Field::new("c", DataType::Int),
            Field::new("d", DataType::Int),
        ])).unwrap();
        db.table_mut("r").unwrap()
            .bulk_load(r_rows.iter().map(|(a, b)| row![*a, *b])).unwrap();
        db.table_mut("s").unwrap()
            .bulk_load(s_rows.iter().map(|(c, d)| row![*c, *d])).unwrap();

        let sql = "SELECT a, sum(c) AS sc FROM r JOIN s ON (b = d) \
                   GROUP BY a HAVING sum(c) > 20";
        let plan = db.plan_sql(sql).unwrap();
        let pset = Arc::new(PartitionSet::new(vec![
            RangePartition::new("r", "a", 0, vec![Value::Int(5)]).unwrap(),
            RangePartition::new("s", "c", 0, vec![Value::Int(5)]).unwrap(),
        ]).unwrap());
        let (mut m, _) = SketchMaintainer::capture(
            &plan, &db, Arc::clone(&pset), OpConfig::default(), true,
        ).unwrap();

        for (step, (to_r, is_insert, x, y)) in updates.iter().enumerate() {
            let table = if *to_r { "r" } else { "s" };
            if *is_insert {
                db.execute_sql(&format!("INSERT INTO {table} VALUES ({x}, {y})")).unwrap();
            } else {
                let col = if *to_r { "b" } else { "d" };
                db.execute_sql(&format!("DELETE FROM {table} WHERE {col} = {y}")).unwrap();
            }
            m.maintain(&db).unwrap();
            let accurate = capture(&plan, &db, &pset).unwrap().sketch;
            prop_assert_eq!(m.sketch(), &accurate, "diverged at step {}", step);
        }
    }

    /// Range DELETEs and UPDATEs find their victims through the pruned
    /// selection path (zone maps + column kernel over 8-row chunks, plus
    /// the open tail) and log them for maintenance: the maintained sketch
    /// must still equal a fresh capture after every statement.
    #[test]
    fn range_deletes_and_updates_keep_the_sketch_exact(
        initial in prop::collection::vec((0i64..12, 0i64..60), 10..120),
        updates in prop::collection::vec(
            (0u8..4, 0i64..12, 1i64..5, 0i64..60), 1..20),
        query_idx in 0usize..6,
        threshold in 50i64..400,
        cuts in prop::collection::btree_set(1i64..12, 0..5),
    ) {
        let mut sorted = initial.clone();
        sorted.sort();
        let mut table = Table::with_chunk_capacity(
            "t",
            Schema::new(vec![
                Field::new("g", DataType::Int),
                Field::new("v", DataType::Int),
            ]),
            8,
        );
        table.bulk_load(sorted.iter().map(|(g, v)| row![*g, *v])).unwrap();
        let mut db = Database::new();
        db.register_table(table).unwrap();

        let plan = db.plan_sql(&query_pool(threshold)[query_idx]).unwrap();
        let partition = RangePartition::new(
            "t", "g", 0,
            cuts.into_iter().map(Value::Int).collect(),
        ).unwrap();
        let pset = Arc::new(PartitionSet::new(vec![partition]).unwrap());
        let (mut m, _) = SketchMaintainer::capture(
            &plan, &db, Arc::clone(&pset), OpConfig::default(), true,
        ).unwrap();

        for (step, (kind, g, width, v)) in updates.iter().enumerate() {
            let hi = g + width;
            let sql = match kind {
                0 => format!("INSERT INTO t VALUES ({g}, {v})"),
                1 => format!("DELETE FROM t WHERE g >= {g} AND g < {hi} AND v < {v}"),
                2 => format!("UPDATE t SET v = v + {width} WHERE g >= {g} AND g <= {hi}"),
                // Moves rows across fragments of the partition attribute.
                _ => format!("UPDATE t SET g = {g} WHERE v >= {v} AND v < {}", v + 2 * width),
            };
            db.execute_sql(&sql).unwrap();
            m.maintain(&db).unwrap();
            let accurate = capture(&plan, &db, &pset).unwrap().sketch;
            prop_assert_eq!(m.sketch(), &accurate, "diverged at step {}: {}", step, sql);
            let rewritten = apply_sketch_filter(&plan, m.sketch()).unwrap();
            prop_assert_eq!(
                db.execute_plan(&rewritten).unwrap().canonical(),
                db.execute_plan(&plan).unwrap().canonical(),
                "unsafe at step {}: {}", step, sql
            );
        }
    }
}
