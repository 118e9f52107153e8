//! The bootstrap differential (test-only): a from-empty run of an
//! aggregation over a select-project-join input groups on the engine's
//! group table ([`crate::ops::AggOp`]'s capture path); the row path feeds
//! it the input's rows instead, which the engine evaluates and annotates
//! ([`crate::ops::IncNode::EngineSpj`]). For random tables (Int, Float and
//! NULL-bearing columns, several chunks, tombstones, an open tail),
//! partitions and plans, both must leave the same state behind and stay
//! the same through the next maintenance run. Over a scan prefix the state
//! is byte for byte the same — encoded maintainer state, aggregation heap
//! totals, sketch and result bag. Over a join (2–4 inputs, a cross
//! product, self-joins, NULL and Float keys, an empty side) the group
//! table adds a tuple's fragments in source order where the row path adds
//! its annotation's in fragment order, so groups, `CNT` and `ℱ_g` are
//! compared by value. Both paths, and every plan without such an
//! aggregation — a top-k, MIN/MAX, a sort or the root over a scan or a
//! join — are checked against the independent annotated evaluator
//! ([`imp_sketch::capture`]) and the engine's answer, before and after a
//! maintenance run. A `#[cfg(test)]` counter says which path ran.
//!
//! Float sums depend on summation order, which over a join is the join's
//! tuple order. The row path reads the engine's tuples in the engine's
//! order, so both paths add alike; the annotated evaluator joins in its
//! own order. The generated Float values are multiples of 1/2 below 2^4 in
//! magnitude, summed over fewer than 2^12 tuples, so every partial sum is
//! exact and the evaluator's results compare exactly too;
//! [`float_sums_over_a_join_differ_by_rounding_only`] bounds the
//! difference on values that do round.

use crate::maintain::SketchMaintainer;
use crate::ops::aggregate::tests::{GroupByValue, ROW_CAPTURES_ONLY, TYPED_CAPTURES};
use crate::ops::{IncNode, OpConfig};
use crate::state_codec::save_state;
use imp_engine::database::canonical_bag;
use imp_engine::{Bag, Database};
use imp_sketch::{PartitionSet, RangePartition};
use imp_sql::LogicalPlan;
use imp_storage::{row, DataType, Field, Row, Schema, Table, Value};
use proptest::prelude::*;
use std::cell::Cell;
use std::sync::Arc;

/// `t(id, g, h, x, y)`: `x` (Int) and `y` (Float) nullable.
fn schema() -> Schema {
    Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("g", DataType::Int),
        Field::new("h", DataType::Int),
        Field::nullable("x", DataType::Int),
        Field::nullable("y", DataType::Float),
    ])
}

/// One generated row: `(g, h, x, y)`, where `x == 39` and `y == 20` stand
/// for NULL when the table holds NULLs.
type RowSpec = (i64, i64, i64, i64);

fn to_row(id: i64, (g, h, x, y): RowSpec, nulls: bool) -> Row {
    let x = if nulls && x == 39 {
        Value::Null
    } else {
        Value::Int(x - 10)
    };
    let y = if nulls && y == 20 {
        Value::Null
    } else {
        Value::Float((y - 10) as f64 / 2.0)
    };
    Row::new(vec![Value::Int(id), Value::Int(g), Value::Int(h), x, y])
}

/// `t` loaded in chunks of `chunk` rows with the last rows in the open
/// tail, the ids `deleted` tombstoned, plus three tables to join with:
/// `u(k, w)`, `v(k2, f)` (a nullable Int and a nullable Float column) and
/// the empty `e(ke, we)`.
fn database(rows: &[RowSpec], nulls: bool, chunk: usize, deleted: &[i64]) -> Database {
    let mut db = Database::new();
    let mut t = Table::with_chunk_capacity("t", schema(), chunk);
    let loaded = rows.iter().enumerate();
    t.bulk_load(loaded.map(|(id, &spec)| to_row(id as i64, spec, nulls)))
        .unwrap();
    db.register_table(t).unwrap();
    let ints = |a: &str, b: &str| {
        Schema::new(vec![
            Field::new(a, DataType::Int),
            Field::new(b, DataType::Int),
        ])
    };
    db.create_table("u", ints("k", "w")).unwrap();
    let u_rows = (0..4).map(|k| row![k, 10 * k + 1]);
    db.table_mut("u").unwrap().bulk_load(u_rows).unwrap();
    let v = Schema::new(vec![
        Field::nullable("k2", DataType::Int),
        Field::nullable("f", DataType::Float),
    ]);
    db.create_table("v", v).unwrap();
    let v_rows = [
        row![0, 0.5],
        row![1, -1.0],
        row![Value::Null, 1.5],
        row![2, Value::Null],
        row![1, 2.0],
        row![-3, 0.0],
    ];
    db.table_mut("v").unwrap().bulk_load(v_rows).unwrap();
    db.create_table("e", ints("ke", "we")).unwrap();
    for id in deleted {
        db.execute_sql(&format!("DELETE FROM t WHERE id = {id}"))
            .unwrap();
    }
    db
}

/// The partition of `t` numbered `choice`: none, an equi-depth one on
/// `g`, `h`, `x`, `y` or `id`, or Int cuts on the Float column `y` (whose
/// fragments are found cell by cell); with `others` 1 or 2 also `u` on
/// `k`, with 2 also `v` on the nullable Float column `f` (Int cuts, found
/// cell by cell).
fn partitions(db: &Database, choice: usize, fragments: usize, others: usize) -> Arc<PartitionSet> {
    let attribute = ["", "g", "h", "x", "y", "id"];
    let partition = match choice {
        0 => None,
        6 => Some(RangePartition::new("t", "y", 4, vec![Value::Int(-1), Value::Int(2)]).unwrap()),
        c => Some(RangePartition::equi_depth(db, "t", attribute[c], fragments).unwrap()),
    };
    let u = RangePartition::new("u", "k", 0, vec![Value::Int(2)]).unwrap();
    let v = RangePartition::new("v", "f", 1, vec![Value::Int(0), Value::Int(1)]).unwrap();
    let others = [u, v].into_iter().take(others);
    Arc::new(PartitionSet::new(partition.into_iter().chain(others).collect()).unwrap())
}

const KEYS: [&str; 4] = ["g", "h", "x", "y"];
const AGGS: [&str; 8] = [
    "sum(x)", "sum(y)", "count(x)", "count(*)", "avg(x)", "avg(y)", "sum(h)", "avg(g)",
];
const WHERES: [&str; 7] = [
    "",
    " WHERE g < 2",
    " WHERE x >= 0",
    " WHERE h = 3 OR h = 1",
    " WHERE y < 1.5",
    " WHERE g < 3 AND x < 4",
    " WHERE id < -1",
];

/// The query of one generated case, and whether its aggregation groups on
/// the engine's group table.
fn query(shape: usize, keys: &[usize], aggs: &[usize], filter: usize) -> (String, bool) {
    let keys: Vec<&str> = keys.iter().map(|&k| KEYS[k]).collect();
    let mut select: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
    let aggs: Vec<String> = (aggs.iter().enumerate())
        .map(|(i, &a)| format!("{} AS a{i}", AGGS[a]))
        .collect();
    select.extend(aggs.iter().cloned());
    let group_by = if keys.is_empty() {
        String::new()
    } else {
        format!(" GROUP BY {}", keys.join(", "))
    };
    let (select, filter) = (select.join(", "), WHERES[filter]);
    match shape {
        // HAVING above the aggregation.
        1 => (
            format!("SELECT {select} FROM t{filter}{group_by} HAVING count(*) > 1"),
            true,
        ),
        // Top-k above it.
        2 if !keys.is_empty() => (
            format!(
                "SELECT {select} FROM t{filter}{group_by} ORDER BY {} LIMIT 2",
                keys[0]
            ),
            true,
        ),
        // Filters and a computed projection below it.
        3 => (
            format!(
                "SELECT {select} FROM (SELECT id AS id, g AS g, h AS h, x + h AS x, y AS y \
                 FROM t{filter}) tt{group_by}"
            ),
            true,
        ),
        // DISTINCT: an aggregation on every column, no aggregates.
        4 if !keys.is_empty() => (
            format!("SELECT DISTINCT {} FROM t{filter}", keys.join(", ")),
            true,
        ),
        // MIN/MAX: the group table keeps no multiset; rows.
        5 => (
            format!("SELECT {select}, min(x) AS lo, max(y) AS hi FROM t{filter}{group_by}"),
            false,
        ),
        // No aggregation on the group table: the engine's rows under a
        // top-k, MIN/MAX alone, at the root, under a sort.
        8 => (
            format!("SELECT id, g, x FROM t{filter} ORDER BY x, id LIMIT 3"),
            false,
        ),
        9 => {
            let keys = keys.iter().map(|k| format!("{k}, ")).collect::<String>();
            let sql = format!("SELECT {keys}min(x) AS lo, max(y) AS hi FROM t{filter}{group_by}");
            (sql, false)
        }
        10 => (format!("SELECT id, x + h AS s, y FROM t{filter}"), false),
        11 => (format!("SELECT id, h FROM t{filter} ORDER BY h"), false),
        _ => (format!("SELECT {select} FROM t{filter}{group_by}"), true),
    }
}

/// Capture `plan` on the row path or the typed one; the counter's growth
/// says which ran.
fn capture(
    db: &Database,
    plan: &LogicalPlan,
    pset: &Arc<PartitionSet>,
    config: OpConfig,
    rows_only: bool,
) -> (SketchMaintainer, Bag, u64) {
    ROW_CAPTURES_ONLY.with(|r| r.set(rows_only));
    let before = TYPED_CAPTURES.with(Cell::get);
    let (m, bag) = SketchMaintainer::capture(plan, db, Arc::clone(pset), config, true).unwrap();
    ROW_CAPTURES_ONLY.with(|r| r.set(false));
    (m, bag, TYPED_CAPTURES.with(Cell::get) - before)
}

/// The heap totals of every aggregation in the tree.
fn aggregation_heaps(node: &IncNode, heaps: &mut Vec<usize>) {
    if let IncNode::Aggregate(a) = node {
        heaps.push(a.own_heap_size());
    }
    node.for_each_child(&mut |c| aggregation_heaps(c, heaps));
}

/// What must agree between the two paths, and with the heap oracle.
fn assert_same(
    rows: &SketchMaintainer,
    typed: &SketchMaintainer,
    context: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        save_state(rows),
        save_state(typed),
        "state bytes: {}",
        context
    );
    let heaps = |m: &SketchMaintainer| {
        let mut heaps = Vec::new();
        aggregation_heaps(m.parts().0, &mut heaps);
        heaps
    };
    prop_assert_eq!(heaps(rows), heaps(typed), "aggregation heap: {}", context);
    prop_assert_eq!(
        rows.sketch().bits(),
        typed.sketch().bits(),
        "sketch: {}",
        context
    );
    for m in [rows, typed] {
        prop_assert_eq!(
            m.walked_heap_size(),
            (m.state_heap_size(), 0),
            "heap oracle: {}",
            context
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn a_typed_bootstrap_leaves_the_row_paths_state(
        rows in prop::collection::vec((0i64..4, 0i64..6, 0i64..40, 0i64..21), 0..64),
        nulls in any::<bool>(),
        chunk in prop_oneof![Just(3usize), Just(4), Just(8)],
        deleted in prop::collection::vec(0i64..64, 0..6),
        partition in 0usize..7,
        fragments in prop_oneof![1usize..6, 17usize..40],
        shape in 0usize..12,
        keys in prop::collection::btree_set(0usize..4, 0..3),
        aggs in prop::collection::vec(0usize..8, 1..4),
        filter in 0usize..7,
        inserts in prop::collection::vec((0i64..4, 0i64..6, 0i64..40, 0i64..21), 0..5),
        retract in 0i64..64,
    ) {
        let mut db = database(&rows, nulls, chunk, &deleted);
        let pset = partitions(&db, partition, fragments, 0);
        let keys: Vec<usize> = keys.into_iter().collect();
        let (sql, typed_shape) = query(shape, &keys, &aggs, filter);
        let plan = db.plan_sql(&sql).unwrap();
        let config = OpConfig {
            topk_buffer: Some(3),
            ..OpConfig::default()
        };

        let (mut by_rows, rows_bag, ran) = capture(&db, &plan, &pset, config, true);
        prop_assert_eq!(ran, 0, "{}", sql);
        let (mut typed, typed_bag, ran) = capture(&db, &plan, &pset, config, false);
        prop_assert_eq!(ran, u64::from(typed_shape), "which path: {}", sql);
        prop_assert_eq!(&rows_bag, &typed_bag, "result bag: {}", sql);
        assert_same(&by_rows, &typed, &sql)?;
        // Thm. 6.1: the captured sketch is the accurate one, and the
        // capture answers as the engine does.
        accurate_capture(&db, &plan, &pset, &typed, &typed_bag, &sql)?;

        // The next maintenance run finds the same state either way.
        for (i, &spec) in inserts.iter().enumerate() {
            let row = to_row(100 + i as i64, spec, nulls);
            let values: Vec<String> = row.values().iter().map(|v| match v {
                Value::Float(f) => format!("{f:?}"),
                other => other.to_string(),
            }).collect();
            db.execute_sql(&format!("INSERT INTO t VALUES ({})", values.join(", "))).unwrap();
        }
        db.execute_sql(&format!("DELETE FROM t WHERE id = {retract}")).unwrap();
        let a = by_rows.maintain(&db).unwrap();
        let b = typed.maintain(&db).unwrap();
        prop_assert_eq!(a.recaptured, b.recaptured, "{}", sql);
        assert_same(&by_rows, &typed, &format!("maintained: {sql}"))?;
        let (fresh, fresh_bag, _) = capture(&db, &plan, &pset, config, false);
        accurate_capture(&db, &plan, &pset, &fresh, &fresh_bag, &format!("maintained: {sql}"))?;
        prop_assert_eq!(typed.sketch().bits(), fresh.sketch().bits(), "maintained: {}", sql);
    }
}

/// A capture's sketch and result bag equal the annotated evaluator's
/// (Thm. 6.1), and the bag the engine's answer.
fn accurate_capture(
    db: &Database,
    plan: &LogicalPlan,
    pset: &Arc<PartitionSet>,
    m: &SketchMaintainer,
    bag: &Bag,
    context: &str,
) -> Result<(), TestCaseError> {
    let accurate = imp_sketch::capture(plan, db, pset).unwrap();
    prop_assert_eq!(m.sketch().bits(), accurate.sketch.bits(), "{}", context);
    let bag = canonical_bag(bag);
    prop_assert_eq!(&bag, &canonical_bag(&accurate.result), "{}", context);
    let engine = db.execute_plan(plan).unwrap();
    prop_assert_eq!(&bag, &canonical_bag(&engine.rows), "engine: {}", context);
    Ok(())
}

/// A group over more fragments than a sorted vector holds keeps them in a
/// hash map, whose iteration order — the order the state is encoded in —
/// depends on the order fragments were first added: the typed path adds
/// them in the order the scan met them, as the row path does.
#[test]
fn a_group_over_many_fragments_keeps_the_order_its_rows_met_them() {
    // 100 groups of 30 rows; each meets 30 of `x`'s 1 000 fragments, out
    // of order. Fragment ids spread wider than a group's hash map, so
    // some collide in it.
    let rows: Vec<RowSpec> = (0..3000)
        .map(|i| (i % 100, 0, (i * 37) % 2003, 0))
        .collect();
    let db = database(&rows, false, 1024, &[5, 300]);
    let pset = Arc::new(
        PartitionSet::new(vec![
            RangePartition::equi_depth(&db, "t", "x", 1000).unwrap()
        ])
        .unwrap(),
    );
    let sql = "SELECT g, count(*) AS n, sum(x) AS s FROM t GROUP BY g";
    let plan = db.plan_sql(sql).unwrap();
    let (by_rows, rows_bag, _) = capture(&db, &plan, &pset, OpConfig::default(), true);
    let (typed, typed_bag, ran) = capture(&db, &plan, &pset, OpConfig::default(), false);
    assert_eq!(ran, 1);
    assert_eq!(rows_bag, typed_bag);
    assert_same(&by_rows, &typed, sql).unwrap();
}

/// The FROM clauses of the generated joins; `{t}` is the first scan of
/// `t`, a filtered and computed subquery when the case filters below the
/// join.
const JOINS: [&str; 7] = [
    "{t} JOIN u ON (g = k)",
    // Three inputs; `x` and `k2` hold NULLs.
    "{t} JOIN u ON (g = k) JOIN v ON (x = k2)",
    // Four inputs, `u` twice.
    "{t} JOIN u ON (g = k) JOIN v ON (k = k2) JOIN (SELECT k AS k3, w AS w3 FROM u) uu \
     ON (h = k3)",
    // A cross product.
    "{t}, u",
    // A self-join, one scan filtered.
    "{t} JOIN (SELECT id AS id2, g AS g2, h AS h2 FROM t WHERE h < 3) t2 ON (g = g2)",
    // Float keys, both nullable.
    "{t} JOIN v ON (y = f)",
    // An empty side.
    "{t} JOIN e ON (g = ke)",
];

/// What sits above a generated join, and whether an aggregation groups it
/// on the engine's group table.
fn join_query(
    join: usize,
    below: usize,
    top: usize,
    keys: &[usize],
    aggs: &[usize],
    filter: usize,
) -> (String, bool) {
    let t = match below {
        0 => "t".to_string(),
        w => format!(
            "(SELECT id AS id, g AS g, h AS h, x + h AS x, y AS y FROM t{}) tt",
            WHERES[w]
        ),
    };
    let from = format!("{}{}", JOINS[join].replace("{t}", &t), WHERES[filter]);
    let keys: Vec<&str> = keys.iter().map(|&k| KEYS[k]).collect();
    let key = keys.first().copied().unwrap_or("g");
    let group_by = format!(" GROUP BY {}", keys.join(", "));
    let group_by = if keys.is_empty() { "" } else { &group_by };
    let mut select: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
    select.extend((aggs.iter().enumerate()).map(|(i, &a)| format!("{} AS a{i}", AGGS[a])));
    let select = select.join(", ");
    match top {
        1 => (
            format!("SELECT {select} FROM {from}{group_by} HAVING count(*) > 1"),
            true,
        ),
        2 if !keys.is_empty() => (
            format!("SELECT {select} FROM {from}{group_by} ORDER BY {key} LIMIT 2"),
            true,
        ),
        3 => (format!("SELECT DISTINCT {key}, h FROM {from}"), true),
        // MIN/MAX: rows, joined by the engine.
        4 => (
            format!("SELECT {select}, min(x) AS lo, max(y) AS hi FROM {from}{group_by}"),
            false,
        ),
        // The join at the root, and under top-k.
        5 => (format!("SELECT id, g, x + h AS s FROM {from}"), false),
        6 => (
            format!("SELECT id, h, y FROM {from} ORDER BY id, h LIMIT 3"),
            false,
        ),
        _ => (format!("SELECT {select} FROM {from}{group_by}"), true),
    }
}

/// Every aggregation's groups by value: key, `CNT`, `ℱ_g` by fragment, and
/// output values.
fn aggregation_groups(node: &IncNode, groups: &mut Vec<Vec<GroupByValue>>) {
    if let IncNode::Aggregate(a) = node {
        groups.push(a.groups_by_value());
    }
    node.for_each_child(&mut |c| aggregation_groups(c, groups));
}

/// What must agree between the row path and the typed one over a join,
/// and with the heap oracle.
fn assert_same_by_value(
    rows: &SketchMaintainer,
    typed: &SketchMaintainer,
    context: &str,
) -> Result<(), TestCaseError> {
    let groups = |m: &SketchMaintainer| {
        let mut groups = Vec::new();
        aggregation_groups(m.parts().0, &mut groups);
        groups
    };
    prop_assert_eq!(groups(rows), groups(typed), "groups: {}", context);
    let heaps = |m: &SketchMaintainer| {
        let mut heaps = Vec::new();
        aggregation_heaps(m.parts().0, &mut heaps);
        heaps
    };
    prop_assert_eq!(heaps(rows), heaps(typed), "aggregation heap: {}", context);
    prop_assert_eq!(
        rows.sketch().bits(),
        typed.sketch().bits(),
        "sketch: {}",
        context
    );
    prop_assert_eq!(rows.topk_state(), typed.topk_state(), "top-k: {}", context);
    for m in [rows, typed] {
        prop_assert_eq!(
            m.walked_heap_size(),
            (m.state_heap_size(), 0),
            "heap oracle: {}",
            context
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn a_join_bootstrap_agrees_with_the_row_path_and_the_annotated_evaluator(
        rows in prop::collection::vec((0i64..4, 0i64..6, 0i64..40, 0i64..21), 0..48),
        nulls in any::<bool>(),
        chunk in prop_oneof![Just(3usize), Just(4), Just(8)],
        deleted in prop::collection::vec(0i64..48, 0..4),
        partition in 0usize..7,
        fragments in prop_oneof![1usize..6, 17usize..40],
        others in 0usize..3,
        join in 0usize..7,
        below in prop_oneof![Just(0usize), 0usize..7],
        top in 0usize..8,
        keys in prop::collection::btree_set(0usize..4, 0..3),
        aggs in prop::collection::vec(0usize..8, 1..4),
        filter in 0usize..7,
        inserts in prop::collection::vec((0i64..4, 0i64..6, 0i64..40, 0i64..21), 0..4),
        retract in 0i64..48,
        touch_u in any::<bool>(),
    ) {
        let mut db = database(&rows, nulls, chunk, &deleted);
        let pset = partitions(&db, partition, fragments, others);
        let keys: Vec<usize> = keys.into_iter().collect();
        let (sql, typed_shape) = join_query(join, below, top, &keys, &aggs, filter);
        let plan = db.plan_sql(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let config = OpConfig {
            topk_buffer: Some(3),
            ..OpConfig::default()
        };

        let (mut by_rows, rows_bag, ran) = capture(&db, &plan, &pset, config, true);
        prop_assert_eq!(ran, 0, "{}", sql);
        let (mut typed, typed_bag, ran) = capture(&db, &plan, &pset, config, false);
        prop_assert_eq!(ran, u64::from(typed_shape), "which path: {}", sql);
        prop_assert_eq!(canonical_bag(&rows_bag), canonical_bag(&typed_bag), "result bag: {}", sql);
        assert_same_by_value(&by_rows, &typed, &sql)?;
        for m in [&by_rows, &typed] {
            prop_assert_eq!(m.join_index_state(), (0, 0), "capture indexes nothing: {}", sql);
        }
        // Thm. 6.1: the captured sketch is the accurate one.
        accurate_capture(&db, &plan, &pset, &typed, &typed_bag, &sql)?;

        // One maintenance run later, both still agree, and with a fresh
        // capture.
        for (i, &spec) in inserts.iter().enumerate() {
            let row = to_row(100 + i as i64, spec, nulls);
            let values: Vec<String> = row.values().iter().map(|v| match v {
                Value::Float(f) => format!("{f:?}"),
                other => other.to_string(),
            }).collect();
            db.execute_sql(&format!("INSERT INTO t VALUES ({})", values.join(", "))).unwrap();
        }
        db.execute_sql(&format!("DELETE FROM t WHERE id = {retract}")).unwrap();
        if touch_u {
            db.execute_sql("INSERT INTO u VALUES (2, 99)").unwrap();
        }
        let a = by_rows.maintain(&db).unwrap();
        let b = typed.maintain(&db).unwrap();
        prop_assert_eq!(a.recaptured, b.recaptured, "{}", sql);
        assert_same_by_value(&by_rows, &typed, &format!("maintained: {sql}"))?;
        let accurate = imp_sketch::capture(&plan, &db, &pset).unwrap();
        prop_assert_eq!(typed.sketch().bits(), accurate.sketch.bits(), "maintained: {}", sql);
    }
}

/// The row path reads the engine's join tuples in the engine's order, so
/// it sums a group's Float arguments in the order the group table does.
/// The annotated evaluator joins in its own order: its Float sums may
/// differ from the capture's, each within `n · ε · Σ|x|` of the exact sum
/// over a group's `n` tuples.
#[test]
fn float_sums_over_a_join_differ_by_rounding_only() {
    let mut db = Database::new();
    let schema = |a: &str, b: &str, kind| {
        Schema::new(vec![Field::new(a, DataType::Int), Field::new(b, kind)])
    };
    db.create_table("a", schema("g", "x", DataType::Float))
        .unwrap();
    db.create_table("b", schema("k", "n", DataType::Int))
        .unwrap();
    // These do not sum exactly; each `a` row meets three `b` rows.
    let x = |i: i64| (i * 7919 % 1009) as f64 * 0.013 - 5.1;
    let a_rows = (0..300).map(|i| row![i % 7, x(i)]);
    db.table_mut("a").unwrap().bulk_load(a_rows).unwrap();
    let b_rows = (0..21).map(|i| row![i % 7, i]);
    db.table_mut("b").unwrap().bulk_load(b_rows).unwrap();
    // The engine probes with `a`, the larger side, tuple by tuple; the
    // evaluator with `b`, the left one, meeting all of `a`'s group at once.
    let sql = "SELECT g, sum(x) AS s, count(*) AS c FROM b JOIN a ON (k = g) GROUP BY g";
    let plan = db.plan_sql(sql).unwrap();
    let pset = Arc::new(
        PartitionSet::new(vec![RangePartition::equi_depth(&db, "a", "x", 8).unwrap()]).unwrap(),
    );
    let (by_rows, rows_bag, _) = capture(&db, &plan, &pset, OpConfig::default(), true);
    let (typed, typed_bag, ran) = capture(&db, &plan, &pset, OpConfig::default(), false);
    assert_eq!(ran, 1);
    assert_eq!(canonical_bag(&rows_bag), canonical_bag(&typed_bag));
    assert_same_by_value(&by_rows, &typed, sql).unwrap();
    let accurate = imp_sketch::capture(&plan, &db, &pset).unwrap();
    assert_eq!(typed.sketch().bits(), accurate.sketch.bits());
    let (typed_bag, accurate) = (canonical_bag(&typed_bag), canonical_bag(&accurate.result));
    assert_eq!(typed_bag.len(), 7);
    let mut differ = 0;
    for ((t, _), (a, _)) in typed_bag.iter().zip(&accurate) {
        assert_eq!((&t[0], &t[2]), (&a[0], &a[2]), "keys and counts are exact");
        let group = t[0].as_i64().unwrap();
        let n = t[2].as_i64().unwrap() as f64;
        let magnitude: f64 = (0..300)
            .filter(|i| i % 7 == group)
            .map(|i| 3.0 * x(i).abs())
            .sum();
        let diff = (t[1].as_f64().unwrap() - a[1].as_f64().unwrap()).abs();
        assert!(
            diff <= 2.0 * n * f64::EPSILON * magnitude,
            "{} vs {}",
            t[1],
            a[1]
        );
        differ += usize::from(diff > 0.0);
    }
    assert!(differ > 0, "the two join orders round some sum differently");
}
