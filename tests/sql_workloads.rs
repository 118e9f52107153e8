//! Broad differential SQL coverage: a battery of diverse queries run both
//! through the IMP middleware and directly against a replica backend,
//! interleaved with updates (including TPC-H refresh streams). Results
//! must agree at every step.

use imp::data::tpch;
use imp::data::workload::WorkloadOp;
use imp::engine::Database;
use imp::{Imp, ImpConfig, ImpResponse, QueryMode, QueryTemplate};

const TPCH_QUERIES: &[&str] = &[
    // Aggregation + HAVING over one table.
    "SELECT l_orderkey, sum(l_quantity) AS q FROM lineitem \
     GROUP BY l_orderkey HAVING sum(l_quantity) > 100",
    // Aggregation + HAVING over a join.
    "SELECT o_custkey, sum(l_extendedprice) AS rev \
     FROM orders JOIN lineitem ON (o_orderkey = l_orderkey) \
     GROUP BY o_custkey HAVING sum(l_extendedprice) > 40000",
    // Top-k over aggregation.
    "SELECT l_orderkey, sum(l_extendedprice) AS v FROM lineitem \
     GROUP BY l_orderkey ORDER BY v DESC LIMIT 5",
    // MIN/MAX aggregates.
    "SELECT l_returnflag, min(l_quantity) AS mn, max(l_quantity) AS mx \
     FROM lineitem GROUP BY l_returnflag",
    // Multi-way comma join with WHERE keys (Q10 shape).
    "SELECT c_custkey, sum(l_extendedprice * (1 - l_discount)) AS revenue \
     FROM customer, orders, lineitem \
     WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey \
       AND l_returnflag = 'R' \
     GROUP BY c_custkey ORDER BY revenue DESC LIMIT 10",
    // DISTINCT.
    "SELECT DISTINCT o_orderstatus FROM orders",
    // Plain SPJ with BETWEEN.
    "SELECT o_orderkey, o_totalprice FROM orders \
     WHERE o_orderdate BETWEEN 19940101 AND 19941231 AND o_totalprice > 4000",
    // count(*) global.
    "SELECT count(*) FROM lineitem WHERE l_discount > 0.05",
    // EXCEPT (future-work operator; engine-evaluated).
    "SELECT o_custkey FROM orders WHERE o_totalprice > 3000 \
     EXCEPT SELECT o_custkey FROM orders WHERE o_orderstatus = 'F'",
];

/// Compare two canonical bags, tolerating float round-off: different
/// evaluation paths (capture vs direct) sum lineitem prices in different
/// orders, and float addition is not associative.
fn assert_bags_approx_eq(
    got: &[(imp::storage::Row, i64)],
    expected: &[(imp::storage::Row, i64)],
    context: &str,
) {
    assert_eq!(got.len(), expected.len(), "{context}: row counts differ");
    for ((gr, gm), (er, em)) in got.iter().zip(expected) {
        assert_eq!(gm, em, "{context}: multiplicities differ for {gr}");
        assert_eq!(gr.arity(), er.arity(), "{context}");
        for (gv, ev) in gr.values().iter().zip(er.values()) {
            match (gv, ev) {
                (imp::storage::Value::Float(a), imp::storage::Value::Float(b)) => {
                    let tol = 1e-9 * (1.0 + a.abs().max(b.abs()));
                    assert!(
                        (a - b).abs() <= tol,
                        "{context}: {a} vs {b} beyond tolerance in {gr}"
                    );
                }
                _ => assert_eq!(gv, ev, "{context}: {gr} vs {er}"),
            }
        }
    }
}

fn check_all(imp: &mut Imp, truth: &Database, step: &str) {
    for sql in TPCH_QUERIES {
        let expected = truth.query(sql).unwrap().canonical();
        let ImpResponse::Rows { result, .. } = imp.execute(sql).unwrap() else {
            panic!("{step}: non-rows response for {sql}")
        };
        assert_bags_approx_eq(&result.canonical(), &expected, &format!("{step}: {sql}"));
    }
}

#[test]
fn tpch_battery_with_refresh_streams() {
    let mut truth = Database::new();
    tpch::load(&mut truth, 0.01, 3).unwrap();
    let mut db = Database::new();
    tpch::load(&mut db, 0.01, 3).unwrap();
    let max_key = db.table("orders").unwrap().row_count() as i64;
    let mut imp = Imp::new(db, ImpConfig::default());

    check_all(&mut imp, &truth, "initial");

    // RF1: inserts.
    for op in tpch::refresh_stream(2, 5, true, max_key, 11) {
        let WorkloadOp::Update { sql, .. } = op else {
            panic!()
        };
        truth.execute_sql(&sql).unwrap();
        imp.execute(&sql).unwrap();
    }
    check_all(&mut imp, &truth, "after RF1");

    // RF2: deletes.
    for op in tpch::refresh_stream(2, 5, false, max_key, 13) {
        let WorkloadOp::Update { sql, .. } = op else {
            panic!()
        };
        truth.execute_sql(&sql).unwrap();
        imp.execute(&sql).unwrap();
    }
    check_all(&mut imp, &truth, "after RF2");

    // Second pass reuses sketches (no behavioural change expected).
    check_all(&mut imp, &truth, "sketch reuse");
}

#[test]
fn repeated_queries_converge_to_sketch_reuse() {
    let mut db = Database::new();
    tpch::load(&mut db, 0.01, 3).unwrap();
    let mut imp = Imp::new(db, ImpConfig::default());
    let sql = TPCH_QUERIES[0];
    imp.execute(sql).unwrap();
    let captured = imp.sketch_count();
    for _ in 0..5 {
        imp.execute(sql).unwrap();
    }
    // No additional captures for repeats of the same query.
    assert_eq!(imp.sketch_count(), captured);
}

/// Queries whose WHERE and ON conjuncts the resolver places on their
/// tables, each with an oracle that keeps them above the joins: its FROM
/// is one subquery over the same joins (columns renamed where two tables
/// share a name), so its WHERE stays above them as one filter.
const PLACED: [(&str, &str); 4] = [
    (
        "SELECT v0, v3 FROM d0 JOIN d1 ON (k0 = k1a) JOIN d2 ON (k1b = k2a) \
         JOIN d3 ON (k2b = k3) WHERE v3 < 5",
        "SELECT v0, v3 FROM (SELECT * FROM d0 JOIN d1 ON (k0 = k1a) \
         JOIN d2 ON (k1b = k2a) JOIN d3 ON (k2b = k3)) q WHERE v3 < 5",
    ),
    (
        "SELECT x.a, y.b FROM r x JOIN r y ON (x.b = y.a) WHERE y.b < 2",
        "SELECT xa, yb FROM (SELECT x.a AS xa, x.b AS xb, y.a AS ya, y.b AS yb \
         FROM r x JOIN r y ON (x.b = y.a)) q WHERE yb < 2",
    ),
    (
        "SELECT a, d FROM r, s WHERE b = c AND a < 3 AND a + d > 1 AND d IS NOT NULL",
        "SELECT a, d FROM (SELECT * FROM r, s) q \
         WHERE b = c AND a < 3 AND a + d > 1 AND d IS NOT NULL",
    ),
    (
        imp::sql::queries::Q_SPACE,
        "SELECT c_custkey, c_name, sum(l_extendedprice * (1 - l_discount)) AS revenue, \
           c_acctbal, n_name, c_address, c_phone, c_comment \
         FROM (SELECT * FROM customer, orders, lineitem, nation) q \
         WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey \
           AND o_orderdate >= 19941201 AND o_orderdate < 19950301 \
           AND l_returnflag = 'R' AND c_nationkey = n_nationkey \
         GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment \
         ORDER BY revenue LIMIT 20",
    ),
];

/// Small tables for [`PLACED`]: the chain `d0..d3`, `r` and `s`, and the
/// four TPC-H tables `Q_space` reads, cut to the columns it uses and to
/// a few rows, so the oracle's cross product stays small.
fn placement_db() -> Database {
    use imp::storage::{DataType, Field, Row, Schema, Value};
    let mut db = Database::new();
    let mut load = |name: &str, fields: &[(&str, DataType)], rows: Vec<Row>| {
        let fields = fields.iter().map(|(f, t)| Field::new(*f, *t));
        db.create_table(name, Schema::new(fields.collect()))
            .unwrap();
        db.table_mut(name).unwrap().bulk_load(rows).unwrap();
    };
    let pairs = |n: i64, row: &dyn Fn(i64) -> [i64; 2]| -> Vec<Row> {
        (0..n)
            .map(|k| Row::new(row(k).map(Value::Int).to_vec()))
            .collect()
    };
    let ints = |a: &'static str, b: &'static str| [(a, DataType::Int), (b, DataType::Int)];
    load("d0", &ints("k0", "v0"), pairs(8, &|k| [k % 4, k]));
    load(
        "d1",
        &ints("k1a", "k1b"),
        pairs(8, &|k| [k % 4, (k + 1) % 4]),
    );
    load(
        "d2",
        &ints("k2a", "k2b"),
        pairs(8, &|k| [k % 4, (k * 3) % 4]),
    );
    load("d3", &ints("k3", "v3"), pairs(8, &|k| [k % 4, k]));
    load("r", &ints("a", "b"), pairs(6, &|k| [k % 3, k % 4]));
    load("s", &ints("c", "d"), pairs(6, &|k| [k % 4, k % 3]));

    let (int, text) = (Value::Int, |s: String| Value::str(s));
    let nations = (0..3).map(|k| Row::new(vec![int(k), text(format!("N{k}"))]));
    let fields = [("n_nationkey", DataType::Int), ("n_name", DataType::Str)];
    load("nation", &fields, nations.collect());
    let customers = (1..=5).map(|k| {
        let s = |p: &str| text(format!("{p}{k}"));
        let acctbal = Value::Float(k as f64 * 10.5);
        Row::new(vec![
            int(k),
            s("C"),
            s("A"),
            int(k % 3),
            s("P"),
            acctbal,
            s("x"),
        ])
    });
    let fields = [
        ("c_custkey", DataType::Int),
        ("c_name", DataType::Str),
        ("c_address", DataType::Str),
        ("c_nationkey", DataType::Int),
        ("c_phone", DataType::Str),
        ("c_acctbal", DataType::Float),
        ("c_comment", DataType::Str),
    ];
    load("customer", &fields, customers.collect());
    // Order dates 19941100 + 100·(k mod 5): some inside Q_space's window.
    let orders =
        (1..=10).map(|k| Row::new(vec![int(k), int(k % 5 + 1), int(19941100 + 100 * (k % 5))]));
    let fields = [
        ("o_orderkey", DataType::Int),
        ("o_custkey", DataType::Int),
        ("o_orderdate", DataType::Int),
    ];
    load("orders", &fields, orders.collect());
    let lineitems = (0..20).map(|k| {
        let flag = text(if k % 3 == 0 { "N" } else { "R" }.to_string());
        let price = Value::Float(100.0 + k as f64);
        Row::new(vec![int(k % 10 + 1), price, Value::Float(0.1), flag])
    });
    let fields = [
        ("l_orderkey", DataType::Int),
        ("l_extendedprice", DataType::Float),
        ("l_discount", DataType::Float),
        ("l_returnflag", DataType::Str),
    ];
    load("lineitem", &fields, lineitems.collect());
    db
}

/// Each placed query answers as its oracle does, on the engine and
/// through [`Imp`] (the capture, and maintenance after updates to every
/// table it reads); the chain compiles to one 4-input join operator.
#[test]
fn placed_conjuncts_answer_as_a_filter_above_the_joins() {
    let config = ImpConfig {
        fragments: 3,
        ..ImpConfig::default()
    };
    let mut imp = Imp::new(placement_db(), config);
    let check = |imp: &mut Imp, step: &str| {
        for (sql, oracle) in PLACED {
            let expected = imp.db().query(oracle).unwrap().canonical();
            assert!(!expected.is_empty(), "{step}: {oracle} is vacuous");
            let engine = imp.db().query(sql).unwrap().canonical();
            assert_bags_approx_eq(&engine, &expected, &format!("{step}, engine: {sql}"));
            let ImpResponse::Rows { result, mode } = imp.execute(sql).unwrap() else {
                panic!("{step}: non-rows response for {sql}")
            };
            assert_bags_approx_eq(&result.canonical(), &expected, &format!("{step}: {sql}"));
            let expected_mode = matches!(
                (step, &mode),
                ("capture", QueryMode::Captured) | ("maintained", QueryMode::Maintained(_))
            );
            assert!(expected_mode, "{step}: {sql} answered as {mode:?}");
        }
    };
    check(&mut imp, "capture");
    let imp::sql::Statement::Select(chain) = imp::sql::parse_one(PLACED[0].0).unwrap() else {
        unreachable!()
    };
    let chain = QueryTemplate::of(&chain);
    let arity = imp.with_sketch(&chain, |e| e.maintainer.nary_arity());
    assert_eq!(arity, Some(Some(4)), "the chain is one 4-input operator");
    for sql in [
        "INSERT INTO d3 VALUES (1, 2)",
        "INSERT INTO d3 VALUES (1, 9)",
        "DELETE FROM d0 WHERE v0 = 1",
        "INSERT INTO r VALUES (1, 1)",
        "DELETE FROM s WHERE c = 2",
        "INSERT INTO lineitem VALUES (2, 300.0, 0.0, 'R')",
        "DELETE FROM orders WHERE o_orderkey = 3",
        "INSERT INTO customer VALUES (6, 'C6', 'A6', 1, 'P6', 1.5, 'x6')",
        "INSERT INTO orders VALUES (11, 6, 19950101)",
        "INSERT INTO lineitem VALUES (11, 50.0, 0.5, 'R')",
    ] {
        imp.execute(sql).unwrap();
    }
    check(&mut imp, "maintained");
}
