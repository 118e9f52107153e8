//! Differential tests of the backend engine: results of composed operator
//! pipelines compared against straightforward reference computations over
//! randomized inputs.

use imp_engine::eval::extract_prune_ranges;
use imp_engine::Database;
use imp_sql::{Expr, LogicalPlan};
use imp_storage::{row, DataType, DeltaOp, Field, Row, Schema, Table, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn build(rows: &[(i64, i64, i64)]) -> Database {
    let mut db = Database::new();
    db.create_table(
        "t",
        Schema::new(vec![
            Field::new("g", DataType::Int),
            Field::new("x", DataType::Int),
            Field::new("y", DataType::Int),
        ]),
    )
    .unwrap();
    db.table_mut("t")
        .unwrap()
        .bulk_load(rows.iter().map(|(g, x, y)| row![*g, *x, *y]))
        .unwrap();
    db
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn group_sum_having_matches_reference(
        rows in prop::collection::vec((0i64..8, -50i64..50, -50i64..50), 0..80),
        threshold in -100i64..100,
    ) {
        let db = build(&rows);
        let got = db.query(&format!(
            "SELECT g, sum(x) AS sx FROM t GROUP BY g HAVING sum(x) > {threshold}"
        )).unwrap().canonical();

        let mut sums: BTreeMap<i64, i64> = BTreeMap::new();
        for (g, x, _) in &rows {
            *sums.entry(*g).or_insert(0) += x;
        }
        let expected: Vec<(Row, i64)> = sums
            .into_iter()
            .filter(|(_, s)| *s > threshold)
            .map(|(g, s)| (row![g, s], 1))
            .collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn where_filter_matches_reference(
        rows in prop::collection::vec((0i64..8, -50i64..50, -50i64..50), 0..80),
        lo in -40i64..0, hi in 0i64..40,
    ) {
        let db = build(&rows);
        let got = db.query(&format!(
            "SELECT g, x FROM t WHERE x BETWEEN {lo} AND {hi}"
        )).unwrap().canonical();
        let mut expected: BTreeMap<Row, i64> = BTreeMap::new();
        for (g, x, _) in &rows {
            if *x >= lo && *x <= hi {
                *expected.entry(row![*g, *x]).or_insert(0) += 1;
            }
        }
        prop_assert_eq!(got, expected.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn self_join_count_matches_reference(
        rows in prop::collection::vec((0i64..6, 0i64..6, 0i64..6), 0..40),
    ) {
        let db = build(&rows);
        let got = db.query(
            "SELECT count(*) FROM t t1 JOIN t t2 ON (t1.x = t2.g)"
        ).unwrap();
        let expected: i64 = rows.iter().map(|(_, x, _)| {
            rows.iter().filter(|(g2, _, _)| g2 == x).count() as i64
        }).sum();
        prop_assert_eq!(got.rows[0].0[0].clone(), Value::Int(expected));
    }

    #[test]
    fn topk_is_prefix_of_sort(
        rows in prop::collection::vec((0i64..8, -50i64..50, -50i64..50), 1..60),
        k in 1u64..10,
    ) {
        let db = build(&rows);
        let sorted = db.query("SELECT x FROM t ORDER BY x").unwrap();
        let topk = db.query(&format!("SELECT x FROM t ORDER BY x LIMIT {k}")).unwrap();
        // Expand multiplicities and compare prefixes.
        let expand = |bag: &Vec<(Row, i64)>| -> Vec<Value> {
            let mut out = Vec::new();
            for (r, m) in bag {
                for _ in 0..*m {
                    out.push(r[0].clone());
                }
            }
            out
        };
        let all = expand(&sorted.rows);
        let prefix = expand(&topk.rows);
        prop_assert_eq!(&all[..prefix.len()], &prefix[..]);
        prop_assert_eq!(prefix.len(), (k as usize).min(all.len()));
    }

    #[test]
    fn distinct_equals_dedup(
        rows in prop::collection::vec((0i64..4, 0i64..4, 0i64..4), 0..50),
    ) {
        let db = build(&rows);
        let got = db.query("SELECT DISTINCT g, x FROM t").unwrap().canonical();
        let mut expected: Vec<Row> = rows.iter().map(|(g, x, _)| row![*g, *x]).collect();
        expected.sort();
        expected.dedup();
        prop_assert_eq!(
            got,
            expected.into_iter().map(|r| (r, 1)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn update_statement_equals_delete_insert(
        rows in prop::collection::vec((0i64..8, -50i64..50, -50i64..50), 1..40),
        pivot in -20i64..20,
    ) {
        // UPDATE ... SET y = y + 1 WHERE x > pivot  ≡  reference rewrite.
        let mut db = build(&rows);
        db.execute_sql(&format!("UPDATE t SET y = y + 1 WHERE x > {pivot}")).unwrap();
        let got = db.query("SELECT g, x, y FROM t").unwrap().canonical();
        let mut expected: BTreeMap<Row, i64> = BTreeMap::new();
        for (g, x, y) in &rows {
            let y2 = if *x > pivot { y + 1 } else { *y };
            *expected.entry(row![*g, *x, y2]).or_insert(0) += 1;
        }
        prop_assert_eq!(got, expected.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn zone_map_pruning_never_changes_results(
        rows in prop::collection::vec((0i64..100, -50i64..50, -50i64..50), 1..200),
        lo in 0i64..50, width in 1i64..30,
    ) {
        // Load clustered on g so pruning actually engages, with tiny chunks.
        let mut sorted = rows.clone();
        sorted.sort();
        let mut db = Database::new();
        db.create_table("u", Schema::new(vec![
            Field::new("g", DataType::Int),
            Field::new("x", DataType::Int),
            Field::new("y", DataType::Int),
        ])).unwrap();
        // Rebuild with a small chunk size through a fresh table.
        let mut table = imp_storage::Table::with_chunk_capacity(
            "u2",
            db.table("u").unwrap().schema().clone(),
            8,
        );
        table.bulk_load(sorted.iter().map(|(g, x, y)| row![*g, *x, *y])).unwrap();
        table.seal();
        db.register_table(table).unwrap();
        let hi = lo + width;
        let sql = format!("SELECT g, x FROM u2 WHERE g >= {lo} AND g < {hi}");
        let pruned = db.query(&sql).unwrap();
        // Reference: same predicate evaluated without pruning.
        let mut expected: BTreeMap<Row, i64> = BTreeMap::new();
        for (g, x, _) in &sorted {
            if *g >= lo && *g < hi {
                *expected.entry(row![*g, *x]).or_insert(0) += 1;
            }
        }
        prop_assert_eq!(pruned.canonical(), expected.into_iter().collect::<Vec<_>>());
    }
}

// ---------------------------------------------------------------------
// The storage selection path (zone-map prune → column kernel → gather →
// residual) against naive oracles that live only here: "materialize every
// live row, then evaluate the predicate" for reads, and a `Vec<Row>` model
// with full-scan DELETE / UPDATE for writes.
// ---------------------------------------------------------------------

/// One row of `m(i INT, f FLOAT, s TEXT, b BOOL)`, every column nullable.
/// `f` is kept in halves so literals print exactly.
#[derive(Debug, Clone)]
struct MixedRow {
    i: Option<i64>,
    half_f: Option<i64>,
    s: Option<&'static str>,
    b: Option<bool>,
}

impl MixedRow {
    const ALL_NULL: MixedRow = MixedRow {
        i: None,
        half_f: None,
        s: None,
        b: None,
    };

    /// SQL literal tuple. Whole floats are written as integers half the
    /// time (`half_f % 4 == 0`), exercising Int→Float widening on insert.
    fn sql(&self) -> String {
        let null = || "NULL".to_string();
        let f = self.half_f.map_or_else(null, |h| {
            if h % 4 == 0 {
                (h / 2).to_string()
            } else {
                format!("{:.1}", h as f64 / 2.0)
            }
        });
        format!(
            "({}, {f}, {}, {})",
            self.i.map_or_else(null, |i| i.to_string()),
            self.s.map_or_else(null, |s| format!("'{s}'")),
            self.b
                .map_or_else(null, |b| b.to_string().to_ascii_uppercase()),
        )
    }

    fn row(&self) -> Row {
        Row::new(vec![
            self.i.map_or(Value::Null, Value::Int),
            self.half_f
                .map_or(Value::Null, |h| Value::Float(h as f64 / 2.0)),
            self.s.map_or(Value::Null, Value::str),
            self.b.map_or(Value::Null, Value::Bool),
        ])
    }
}

fn nullable<S>(strategy: S) -> impl Strategy<Value = Option<S::Value>>
where
    S: Strategy + 'static,
    S::Value: Clone + 'static,
{
    prop_oneof![1 => Just(None), 5 => strategy.prop_map(Some)]
}

fn mixed_row() -> impl Strategy<Value = MixedRow> {
    (
        nullable(-5i64..40),
        nullable(-10i64..80),
        nullable(prop::sample::select(vec![
            "", "a", "b", "ba", "c", "m", "zz",
        ])),
        nullable(prop::bool::ANY),
    )
        .prop_map(|(i, half_f, s, b)| MixedRow { i, half_f, s, b })
}

/// WHERE clauses over `m`: ranges on every column type (strict and
/// inclusive, Int bounds on the Float column and Float bounds on the Int
/// column, multi-range disjunctions), each optionally followed by a
/// residual conjunct the prune ranges do not capture, plus predicates
/// with no extractable range at all.
fn predicate() -> impl Strategy<Value = String> {
    let cmp = |strict: bool, op: &str| format!("{op}{}", if strict { "" } else { "=" });
    let int_range = (-5i64..40, 0i64..20, prop::bool::ANY, prop::bool::ANY).prop_map(
        move |(lo, width, strict_lo, strict_hi)| {
            format!(
                "i {} {lo} AND i {} {}",
                cmp(strict_lo, ">"),
                cmp(strict_hi, "<"),
                lo + width
            )
        },
    );
    let int_float_bounds = (0i64..40, 0i64..20, prop::bool::ANY).prop_map(|(lo, width, strict)| {
        let hi = lo + width;
        if strict {
            format!("i > {lo}.5 AND i < {hi}.0")
        } else {
            format!("i >= {lo}.0 AND i <= {hi}.5")
        }
    });
    let int_point = (-5i64..40).prop_map(|x| format!("i = {x}"));
    let int_ranges = (0i64..20, 1i64..8, 20i64..40, 0i64..8).prop_map(|(a, w1, c, w2)| {
        format!(
            "((i >= {a} AND i < {}) OR (i >= {c} AND i <= {}))",
            a + w1,
            c + w2
        )
    });
    let float_range = (-10i64..80, 0i64..40, prop::bool::ANY, prop::bool::ANY).prop_map(
        move |(lo, width, int_bounds, strict)| {
            let hi = lo + width;
            let (lo, hi) = if int_bounds {
                ((lo / 2).to_string(), (hi / 2).to_string())
            } else {
                (
                    format!("{:.1}", lo as f64 / 2.0),
                    format!("{:.1}", hi as f64 / 2.0),
                )
            };
            format!(
                "f {} {lo} AND f {} {hi}",
                cmp(strict, ">"),
                cmp(strict, "<")
            )
        },
    );
    let other = prop::sample::select(
        [
            "s >= 'b' AND s < 'm'",
            "s = 'ba'",
            "s > 'a'",
            "s <= 'b'",
            "b = TRUE",
            "b >= FALSE",
            "b < TRUE",
            "f > i",
            "i IS NULL",
            "i < 10 OR f > 20",
        ]
        .map(String::from)
        .to_vec(),
    );
    let ranged = prop_oneof![
        3 => int_range,
        2 => int_float_bounds,
        1 => int_point,
        2 => int_ranges,
        3 => float_range,
        3 => other,
    ];
    let residual = prop::sample::select(vec![
        "",
        "",
        " AND s <> 'b'",
        " AND f > i",
        " AND b = TRUE",
        " AND i IS NOT NULL",
    ]);
    (ranged, residual).prop_map(|(p, r)| format!("{p}{r}"))
}

/// `m` with 4-row chunks so that pruning, the column kernel and the open
/// tail all engage on small inputs.
fn mixed_db() -> Database {
    let mut db = Database::new();
    let schema = Schema::new(vec![
        Field::nullable("i", DataType::Int),
        Field::nullable("f", DataType::Float),
        Field::nullable("s", DataType::Str),
        Field::nullable("b", DataType::Bool),
    ]);
    db.register_table(Table::with_chunk_capacity("m", schema, 4))
        .unwrap();
    db
}

/// The resolved form of a WHERE clause over `m`.
fn resolve_predicate(db: &Database, predicate: &str) -> Expr {
    let mut plan = db
        .plan_sql(&format!("SELECT * FROM m WHERE {predicate}"))
        .unwrap();
    loop {
        plan = match plan {
            LogicalPlan::Filter { predicate, .. } => return predicate,
            LogicalPlan::Project { input, .. } => *input,
            other => panic!("no filter in {other:?}"),
        }
    }
}

/// The resolved form of a scalar expression over `m`.
fn resolve_scalar(db: &Database, expr: &str) -> Expr {
    match db.plan_sql(&format!("SELECT {expr} FROM m")).unwrap() {
        LogicalPlan::Project { mut exprs, .. } => exprs.remove(0),
        other => panic!("no projection in {other:?}"),
    }
}

/// The naive write oracle: live rows in storage order and the delta log
/// they imply, maintained by evaluating every predicate on every row.
#[derive(Debug, Default)]
struct Model {
    rows: Vec<Row>,
    log: Vec<(u64, DeltaOp, Row)>,
    version: u64,
}

impl Model {
    fn insert(&mut self, rows: &[MixedRow]) {
        self.version += 1;
        for r in rows {
            self.rows.push(r.row());
            self.log.push((self.version, DeltaOp::Insert, r.row()));
        }
    }

    /// Which rows `predicate` selects; `None` when evaluating it fails.
    fn hits(&self, predicate: Option<&Expr>) -> Option<Vec<bool>> {
        self.rows
            .iter()
            .map(|r| predicate.map_or(Ok(true), |p| p.eval_predicate(r)).ok())
            .collect()
    }

    /// Full-scan DELETE / UPDATE (`set` = column and new-value expression).
    /// `false`, changing nothing, when the statement must fail.
    fn rewrite(&mut self, predicate: Option<&Expr>, set: Option<(usize, &Expr)>) -> bool {
        let Some(hits) = self.hits(predicate) else {
            return false;
        };
        let victims: Vec<Row> = (self.rows.iter().zip(&hits))
            .filter(|(_, hit)| **hit)
            .map(|(r, _)| r.clone())
            .collect();
        let mut replacements = Vec::new();
        if let Some((column, expr)) = set {
            let dtype = [
                DataType::Int,
                DataType::Float,
                DataType::Str,
                DataType::Bool,
            ][column];
            for old in &victims {
                let Ok(new) = expr.eval(old) else {
                    return false;
                };
                let fits = match new.data_type() {
                    None => true,
                    Some(DataType::Int) => matches!(dtype, DataType::Int | DataType::Float),
                    Some(other) => other == dtype,
                };
                if !fits {
                    return false;
                }
                let mut vals = old.values().to_vec();
                vals[column] = new;
                replacements.push(Row::new(vals));
            }
        }
        self.version += 1;
        let mut hits = hits.into_iter();
        self.rows.retain(|_| !hits.next().unwrap());
        for old in victims {
            self.log.push((self.version, DeltaOp::Delete, old));
        }
        for new in replacements {
            self.rows.push(new.clone());
            self.log.push((self.version, DeltaOp::Insert, new));
        }
        true
    }
}

/// One statement of a random DML script over `m`.
#[derive(Debug, Clone)]
enum Dml {
    Insert(Vec<MixedRow>),
    Delete(Option<String>),
    /// `UPDATE m SET <column> = <expr> [WHERE ..]`.
    Update(usize, &'static str, Option<String>),
}

fn dml() -> impl Strategy<Value = Dml> {
    // A predicate that overflows on |i| >= 2 and offers no prune range, so
    // the oracle and the pruned path evaluate it on the same rows.
    let filter = || {
        prop_oneof![
            1 => Just(None),
            8 => predicate().prop_map(Some),
            1 => Just(Some("i * 9223372036854775807 >= 0".to_string())),
        ]
    };
    let assignment = prop::sample::select(vec![
        (0, "i + 7"),
        (0, "NULL"),
        (0, "i * 9223372036854775807"), // overflows on some victims
        (0, "'text'"),                  // never fits the column
        (1, "f * 2"),
        (1, "i"),
        (2, "'q'"),
        (3, "i > 10"),
    ]);
    prop_oneof![
        4 => prop::collection::vec(mixed_row(), 1..6).prop_map(Dml::Insert),
        3 => filter().prop_map(Dml::Delete),
        3 => (assignment, filter()).prop_map(|((col, expr), f)| Dml::Update(col, expr, f)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn filtered_scan_matches_materialize_then_filter(
        sealed in prop::collection::vec(mixed_row(), 0..40),
        null_chunk in prop::bool::ANY,
        wipe_null_chunk in prop::bool::ANY,
        deletes in prop::collection::vec(predicate(), 0..3),
        tail in prop::collection::vec(mixed_row(), 0..4),
        predicate in predicate(),
    ) {
        // Sealed chunks, optionally one whose every value is NULL (and
        // optionally tombstoned empty), random tombstones, an open tail.
        let mut db = mixed_db();
        let mut model = Model::default();
        let load = |db: &mut Database, model: &mut Model, rows: &[MixedRow]| {
            if !rows.is_empty() {
                let values: Vec<String> = rows.iter().map(MixedRow::sql).collect();
                db.execute_sql(&format!("INSERT INTO m VALUES {}", values.join(", "))).unwrap();
                model.insert(rows);
            }
        };
        load(&mut db, &mut model, &sealed);
        db.table_mut("m").unwrap().seal();
        if null_chunk {
            load(&mut db, &mut model, &[MixedRow::ALL_NULL; 4]);
        }
        for d in deletes.iter().map(String::as_str).chain(
            wipe_null_chunk.then_some("i IS NULL AND f IS NULL AND s IS NULL AND b IS NULL"),
        ) {
            db.execute_sql(&format!("DELETE FROM m WHERE {d}")).unwrap();
            prop_assert!(model.rewrite(Some(&resolve_predicate(&db, d)), None));
        }
        load(&mut db, &mut model, &tail);

        let expr = resolve_predicate(&db, &predicate);
        let expected: Vec<Row> = model
            .rows
            .iter()
            .filter(|r| expr.eval_predicate(r).unwrap())
            .cloned()
            .collect();
        let got = db.query(&format!("SELECT * FROM m WHERE {predicate}")).unwrap();
        let got_rows: Vec<Row> = got.rows.iter().map(|(r, _)| r.clone()).collect();
        prop_assert_eq!(got_rows, expected, "WHERE {}", predicate);
        prop_assert_eq!(
            got.stats.rows_scanned + got.stats.rows_skipped,
            model.rows.len() as u64
        );

        // The storage contract underneath: exactly the live rows inside a
        // prune range are delivered, in storage order.
        if let Some(prune) = extract_prune_ranges(&expr) {
            let in_range = |v: &Value| {
                !v.is_null()
                    && prune.ranges.iter().any(|(lo, hi)| {
                        lo.as_ref().is_none_or(|lo| v >= lo) && hi.as_ref().is_none_or(|hi| v <= hi)
                    })
            };
            let mut delivered = Vec::new();
            let mut skipped = 0;
            let examined = db.table("m").unwrap().scan(
                Some((prune.column, &prune.ranges)),
                |r| delivered.push(r),
                |n| skipped += n,
            );
            let reachable: Vec<Row> = (model.rows.iter())
                .filter(|r| in_range(&r[prune.column]))
                .cloned()
                .collect();
            prop_assert_eq!(delivered, reachable, "prune {:?}", prune);
            prop_assert_eq!(examined + skipped, model.rows.len());
        }
    }

    #[test]
    fn dml_scripts_match_full_scan_oracle(
        script in prop::collection::vec(dml(), 1..25),
    ) {
        let mut db = mixed_db();
        let mut model = Model::default();
        for (step, stmt) in script.iter().enumerate() {
            let (sql, expect_ok) = match stmt {
                Dml::Insert(rows) => {
                    model.insert(rows);
                    let values: Vec<String> = rows.iter().map(MixedRow::sql).collect();
                    (format!("INSERT INTO m VALUES {}", values.join(", ")), true)
                }
                Dml::Delete(filter) => {
                    let pred = filter.as_ref().map(|f| resolve_predicate(&db, f));
                    let clause = filter.as_ref().map_or(String::new(), |f| format!(" WHERE {f}"));
                    (format!("DELETE FROM m{clause}"), model.rewrite(pred.as_ref(), None))
                }
                Dml::Update(column, expr, filter) => {
                    let pred = filter.as_ref().map(|f| resolve_predicate(&db, f));
                    let set = resolve_scalar(&db, expr);
                    let name = ["i", "f", "s", "b"][*column];
                    let clause = filter.as_ref().map_or(String::new(), |f| format!(" WHERE {f}"));
                    (
                        format!("UPDATE m SET {name} = {expr}{clause}"),
                        model.rewrite(pred.as_ref(), Some((*column, &set))),
                    )
                }
            };
            let outcome = db.execute_sql(&sql);
            prop_assert_eq!(outcome.is_ok(), expect_ok, "step {}: {} -> {:?}", step, sql, outcome);

            // Identical contents in storage order, identical versions, and
            // an identical delta log record for record (maintenance
            // consumes the log in order).
            let t = db.table("m").unwrap();
            prop_assert_eq!(db.version(), model.version, "step {}: {}", step, sql);
            prop_assert_eq!(t.rows(), model.rows.clone(), "step {}: {}", step, sql);
            prop_assert_eq!(t.row_count(), model.rows.len());
            let log: Vec<(u64, DeltaOp, Row)> = t
                .delta_log()
                .all()
                .iter()
                .map(|r| (r.version, r.op, r.row.clone()))
                .collect();
            prop_assert_eq!(log, model.log.clone(), "step {}: {}", step, sql);
        }
    }
}
