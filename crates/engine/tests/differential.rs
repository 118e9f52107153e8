//! Differential tests of the backend engine: results of composed operator
//! pipelines compared against straightforward reference computations over
//! randomized inputs.

use imp_engine::eval::extract_prune_ranges;
use imp_engine::{Bag, Database, EngineError, ExecStats};
use imp_sql::ast::{BinOp, UnOp};
use imp_sql::plan::compare_rows;
use imp_sql::{AggFunc, AggSpec, Expr, LogicalPlan, SortKey};
use imp_storage::{row, DataType, DeltaOp, Field, Row, Schema, Table, Value};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

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

/// A row of `m` from small domains, so that join keys meet: `i` and `f`
/// overlap on whole numbers.
fn key_row() -> impl Strategy<Value = MixedRow> {
    (
        nullable(0i64..8),
        nullable(0i64..16),
        nullable(prop::sample::select(vec!["a", "b", "ba"])),
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

/// Add a table `name` shaped like `m`, with 4-row chunks so that pruning,
/// the column kernel and the open tail all engage on small inputs.
fn add_mixed_table(db: &mut Database, name: &str) {
    let schema = Schema::new(vec![
        Field::nullable("i", DataType::Int),
        Field::nullable("f", DataType::Float),
        Field::nullable("s", DataType::Str),
        Field::nullable("b", DataType::Bool),
    ]);
    db.register_table(Table::with_chunk_capacity(name, schema, 4))
        .unwrap();
}

fn mixed_db() -> Database {
    let mut db = Database::new();
    add_mixed_table(&mut db, "m");
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

/// What a table is loaded with: sealed chunks, optionally one whose every
/// value is NULL (and optionally tombstoned empty), random tombstones, an
/// open tail.
#[derive(Debug, Clone)]
struct Contents {
    sealed: Vec<MixedRow>,
    null_chunk: bool,
    wipe_null_chunk: bool,
    deletes: Vec<String>,
    tail: Vec<MixedRow>,
}

fn contents<S: Strategy<Value = MixedRow>>(
    row: impl Fn() -> S,
    sealed: Range<usize>,
    deletes: Range<usize>,
) -> impl Strategy<Value = Contents> {
    (
        prop::collection::vec(row(), sealed),
        prop::bool::ANY,
        prop::bool::ANY,
        prop::collection::vec(predicate(), deletes),
        prop::collection::vec(row(), 0..4),
    )
        .prop_map(
            |(sealed, null_chunk, wipe_null_chunk, deletes, tail)| Contents {
                sealed,
                null_chunk,
                wipe_null_chunk,
                deletes,
                tail,
            },
        )
}

/// Add the table `name` shaped like `m` to `db` and load it and its model
/// alike. `m` itself is loaded first: predicates are resolved over it.
fn load(db: &mut Database, name: &str, contents: &Contents) -> Model {
    add_mixed_table(db, name);
    let mut model = Model::default();
    let insert = |db: &mut Database, model: &mut Model, rows: &[MixedRow]| {
        if !rows.is_empty() {
            let values: Vec<String> = rows.iter().map(MixedRow::sql).collect();
            db.execute_sql(&format!("INSERT INTO {name} VALUES {}", values.join(", ")))
                .unwrap();
            model.insert(rows);
        }
    };
    insert(db, &mut model, &contents.sealed);
    db.table_mut(name).unwrap().seal();
    if contents.null_chunk {
        insert(db, &mut model, &[MixedRow::ALL_NULL; 4]);
    }
    let wipe = "i IS NULL AND f IS NULL AND s IS NULL AND b IS NULL";
    for d in (contents.deletes.iter().map(String::as_str))
        .chain(contents.wipe_null_chunk.then_some(wipe))
    {
        db.execute_sql(&format!("DELETE FROM {name} WHERE {d}"))
            .unwrap();
        assert!(model.rewrite(Some(&resolve_predicate(db, d)), None));
    }
    insert(db, &mut model, &contents.tail);
    model
}

/// An `i` that overflows a SUM that adds it twice.
const HUGE: i64 = i64::MAX / 2 + 1;

/// `sealed` and `tail` reshaped for the batch-at-a-time group table: with
/// `dense` no `i` or `f` is NULL, so whole chunks read as slices; with
/// `huge` every `i` ≥ 30 is [`HUGE`]; with `clustered(step)` every `i` is
/// rounded down to a multiple of `step` and the rows are sorted on it,
/// sealed rows and tail together, so that runs of one key cross chunk cuts
/// and reach into the tail.
fn shaped(
    sealed: &[MixedRow],
    tail: &[MixedRow],
    dense: bool,
    clustered: Option<i64>,
    huge: bool,
) -> (Vec<MixedRow>, Vec<MixedRow>) {
    let mut rows: Vec<MixedRow> = sealed.iter().chain(tail).cloned().collect();
    for row in &mut rows {
        if dense {
            let i = (row.i).unwrap_or_else(|| row.half_f.map_or(3, |h| h / 2));
            row.half_f = Some(row.half_f.unwrap_or(2 * i + 1));
            row.i = Some(i);
        }
        if huge {
            row.i = row.i.map(|i| if i >= 30 { HUGE } else { i });
        }
    }
    if let Some(step) = clustered {
        for row in &mut rows {
            row.i = row.i.map(|i| i - i.rem_euclid(step));
        }
        rows.sort_by_key(|row| row.i);
    }
    let tail = rows.split_off(sealed.len());
    (rows, tail)
}

/// `m` and its model loaded alike (see [`Contents`]).
fn populate(
    sealed: &[MixedRow],
    null_chunk: bool,
    wipe_null_chunk: bool,
    deletes: &[String],
    tail: &[MixedRow],
) -> (Database, Model) {
    let contents = Contents {
        sealed: sealed.to_vec(),
        null_chunk,
        wipe_null_chunk,
        deletes: deletes.to_vec(),
        tail: tail.to_vec(),
    };
    let mut db = Database::new();
    let model = load(&mut db, "m", &contents);
    (db, model)
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
        let (db, model) = populate(&sealed, null_chunk, wipe_null_chunk, &deletes, &tail);

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

// ---------------------------------------------------------------------
// The column-batch scan pipeline (prune → select → refine → residual →
// sink) against the operator-at-a-time evaluator the engine used to be:
// every operator materializes its whole output as rows and hands it on.
// Both must produce the same bags, the same counters and the same errors.
// ---------------------------------------------------------------------

/// Live rows per table, in storage order.
type Tables = BTreeMap<String, Vec<Row>>;

/// Evaluate a plan the naive way over the tables' live rows, counting the
/// groups every aggregation produces and the probes every keyed join
/// makes. A join runs as nested loops in the order the engine's hash join
/// promises: the larger input (the left one on a tie) is the outer loop,
/// matches of one outer tuple come in the inner input's order, and every
/// joined row is `left ◦ right`. A cross product is left-major.
fn naive(plan: &LogicalPlan, tables: &Tables, stats: &mut ExecStats) -> Result<Bag, EngineError> {
    Ok(match plan {
        LogicalPlan::Scan { table, .. } => tables[table].iter().map(|r| (r.clone(), 1)).collect(),
        // A constant-false predicate (empty sketch) needs no input.
        LogicalPlan::Filter {
            predicate: Expr::Lit(Value::Bool(false)),
            ..
        } => Vec::new(),
        LogicalPlan::Filter { input, predicate } => {
            let mut out = Vec::new();
            for (row, n) in naive(input, tables, stats)? {
                if predicate.eval_predicate(&row)? {
                    out.push((row, n));
                }
            }
            out
        }
        LogicalPlan::Project { input, exprs, .. } => {
            let mut out = Vec::new();
            for (row, n) in naive(input, tables, stats)? {
                let vals: Result<Vec<Value>, _> = exprs.iter().map(|e| e.eval(&row)).collect();
                out.push((Row::new(vals?), n));
            }
            out
        }
        LogicalPlan::Join {
            left,
            right,
            left_keys,
            right_keys,
        } => {
            let l = naive(left, tables, stats)?;
            let r = naive(right, tables, stats)?;
            let keyed = !left_keys.is_empty();
            let joins = |a: &Row, b: &Row| {
                (left_keys.iter().zip(right_keys)).all(|(&i, &j)| !a[i].is_null() && a[i] == b[j])
            };
            let mut out = Vec::new();
            if !keyed || r.len() <= l.len() {
                stats.join_probes += if keyed { l.len() as u64 } else { 0 };
                for ((a, n), (b, m)) in l.iter().flat_map(|x| r.iter().map(move |y| (x, y))) {
                    if joins(a, b) {
                        out.push((a.concat(b), n * m));
                    }
                }
            } else {
                stats.join_probes += r.len() as u64;
                for ((b, m), (a, n)) in r.iter().flat_map(|y| l.iter().map(move |x| (y, x))) {
                    if joins(a, b) {
                        out.push((a.concat(b), n * m));
                    }
                }
            }
            out
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            ..
        } => {
            // Groups in first-seen order; every input row as often as its
            // multiplicity says.
            let mut groups: Vec<(Vec<Value>, Vec<Row>)> = Vec::new();
            let mut index: BTreeMap<Vec<Value>, usize> = BTreeMap::new();
            for (row, n) in naive(input, tables, stats)? {
                let key: Result<Vec<Value>, _> = group_by.iter().map(|g| g.eval(&row)).collect();
                let key = key?;
                let group = *index.entry(key.clone()).or_insert_with(|| {
                    groups.push((key, Vec::new()));
                    groups.len() - 1
                });
                groups[group].1.extend(std::iter::repeat_n(row, n as usize));
            }
            if groups.is_empty() && group_by.is_empty() {
                groups.push((Vec::new(), Vec::new()));
            }
            stats.agg_groups += groups.len() as u64;
            let mut out = Vec::new();
            for (mut key, members) in groups {
                for spec in aggs {
                    key.push(naive_aggregate(spec, &members)?);
                }
                out.push((Row::new(key), 1));
            }
            out
        }
        LogicalPlan::Distinct { input } => {
            let mut seen = BTreeSet::new();
            let rows = naive(input, tables, stats)?.into_iter();
            rows.filter(|(row, _)| seen.insert(row.clone()))
                .map(|(row, _)| (row, 1))
                .collect()
        }
        LogicalPlan::Sort { input, keys } => {
            let mut rows = naive(input, tables, stats)?;
            rows.sort_by(|a, b| compare_rows(&a.0, &b.0, keys));
            rows
        }
        LogicalPlan::TopK { input, keys, k } => {
            // Sort order, ties broken by the whole row; the tuple on the
            // boundary keeps the part of its multiplicity that fits.
            let mut rows = naive(input, tables, stats)?;
            rows.sort_by(|a, b| compare_rows(&a.0, &b.0, keys).then_with(|| a.0.cmp(&b.0)));
            let mut left = *k as i64;
            let mut out = Vec::new();
            for (row, n) in rows {
                if left > 0 {
                    out.push((row, n.min(left)));
                    left -= n;
                }
            }
            out
        }
        LogicalPlan::Except { left, right, all } => {
            // Rows in order, each with its multiplicities on both sides.
            let mut counts: BTreeMap<Row, (i64, i64)> = BTreeMap::new();
            for (row, n) in naive(left, tables, stats)? {
                counts.entry(row).or_default().0 += n;
            }
            for (row, n) in naive(right, tables, stats)? {
                if let Some((_, r)) = counts.get_mut(&row) {
                    *r += n;
                }
            }
            let kept = counts.into_iter().filter_map(|(row, (l, r))| match all {
                true => (l > r).then_some((row, l - r)),
                false => (r == 0).then_some((row, 1)),
            });
            kept.collect()
        }
    })
}

/// One aggregate over the rows of one group, computed from the list of
/// its argument values.
fn naive_aggregate(spec: &AggSpec, members: &[Row]) -> Result<Value, EngineError> {
    let Some(arg) = &spec.arg else {
        return Ok(Value::Int(members.len() as i64)); // count(*)
    };
    let args: Result<Vec<Value>, _> = members.iter().map(|r| arg.eval(r)).collect();
    let present: Vec<Value> = args?.into_iter().filter(|v| !v.is_null()).collect();
    let n = present.len();
    let sum = || -> Result<Value, EngineError> {
        if let Some(ints) = present
            .iter()
            .map(Value::as_i64)
            .collect::<Option<Vec<i64>>>()
        {
            let mut total = 0i64;
            for i in ints {
                total = total
                    .checked_add(i)
                    .ok_or_else(|| EngineError::Execution("integer overflow in SUM".into()))?;
            }
            return Ok(Value::Int(total));
        }
        let mut total = 0.0;
        for v in &present {
            total += v.as_f64().ok_or_else(|| {
                EngineError::Execution(format!("cannot sum non-numeric value {v}"))
            })?;
        }
        Ok(Value::Float(total))
    };
    // The first of several equal extremes wins.
    let extreme = |better: fn(&Value, &Value) -> bool| {
        present.iter().fold(Value::Null, |best, v| {
            if best.is_null() || better(v, &best) {
                v.clone()
            } else {
                best
            }
        })
    };
    Ok(match spec.func {
        AggFunc::Count => Value::Int(n as i64),
        AggFunc::Min => extreme(|v, best| v < best),
        AggFunc::Max => extreme(|v, best| v > best),
        _ if n == 0 => Value::Null,
        AggFunc::Sum => sum()?,
        AggFunc::Avg => Value::Float(sum()?.as_f64().expect("numeric sum") / n as f64),
    })
}

/// The scan counters a chain over `table` with these filters (all over
/// the table's columns) must report: the chunks whose zone map rules out
/// every prune range are skipped whole, everything else is examined.
fn expected_scan_stats(db: &Database, table: &str, filters: &[Expr]) -> (u64, u64) {
    if filters.contains(&Expr::Lit(Value::Bool(false))) {
        return (0, 0); // a constant-false filter needs no scan
    }
    let t = db.table(table).unwrap();
    let prune = extract_prune_ranges(&Expr::conjunction(filters.iter().cloned()));
    let skipped: usize = (t.chunks().iter())
        .filter(|chunk| {
            prune.as_ref().is_some_and(|p| {
                !p.ranges.iter().any(|(lo, hi)| {
                    chunk
                        .zone_map()
                        .may_overlap(p.column, lo.as_ref(), hi.as_ref())
                })
            })
        })
        .map(|chunk| chunk.live_rows())
        .sum();
    ((t.row_count() - skipped) as u64, skipped as u64)
}

/// What a column of a generated plan holds (NULLs aside).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Int,
    Float,
    Str,
    Bool,
}

impl Kind {
    fn numeric(self) -> bool {
        matches!(self, Kind::Int | Kind::Float)
    }

    fn dtype(self) -> DataType {
        match self {
            Kind::Int => DataType::Int,
            Kind::Float => DataType::Float,
            Kind::Str => DataType::Str,
            Kind::Bool => DataType::Bool,
        }
    }
}

fn schema_of(kinds: &[Kind]) -> Schema {
    let field = |(i, k): (usize, &Kind)| Field::nullable(format!("c{i}"), k.dtype());
    Schema::new(kinds.iter().enumerate().map(field).collect())
}

/// A stream of random choices that a plan is built from: what a column
/// may be compared with depends on the columns the plan has so far, and
/// the proptest shim has no dependent generation.
struct Choices {
    raw: Vec<u32>,
    at: usize,
    /// How many Int literals there are, an eighth of them negative; twice
    /// as many Float ones (in halves): the span of the data the plan is
    /// made for.
    span: usize,
    /// May a scalar compute? Not over [`HUGE`] values, where adding or
    /// multiplying would overflow outside any SUM.
    arithmetic: bool,
    /// Are join inputs scan prefixes that only filter, joined on their
    /// stored Int columns (see [`join_input`])?
    int_keys: bool,
}

impl Choices {
    fn pick(&mut self, n: usize) -> usize {
        self.at += 1;
        self.raw[self.at % self.raw.len()] as usize % n
    }

    fn flip(&mut self) -> bool {
        self.pick(2) == 1
    }

    fn one<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.pick(items.len())]
    }

    /// A column of `kinds` that `wanted` accepts, if there is one.
    fn column(&mut self, kinds: &[Kind], wanted: impl Fn(Kind) -> bool) -> Option<usize> {
        let fitting: Vec<usize> = (0..kinds.len()).filter(|&c| wanted(kinds[c])).collect();
        (!fitting.is_empty()).then(|| self.one(&fitting))
    }

    fn literal(&mut self, kind: Kind) -> Value {
        match kind {
            Kind::Int => Value::Int(self.pick(self.span) as i64 - (self.span / 8) as i64),
            Kind::Float => {
                let halves = self.pick(2 * self.span + 4) as i64 - (self.span / 4 + 2) as i64;
                Value::Float(halves as f64 / 2.0)
            }
            Kind::Str => Value::str(self.one(&["", "a", "b", "ba", "c", "m", "zz"])),
            Kind::Bool => Value::Bool(self.flip()),
        }
    }

    /// A scalar over columns of `kinds` that cannot fail: a column, simple
    /// arithmetic on numeric columns, a literal. Only a column without
    /// `arithmetic`.
    fn scalar(&mut self, kinds: &[Kind]) -> (Expr, Kind) {
        let lit = |v: i64| Expr::Lit(Value::Int(v));
        let numeric = self.arithmetic.then(|| self.column(kinds, Kind::numeric));
        let Some(n) = numeric.flatten() else {
            let c = self.pick(kinds.len());
            return (Expr::Col(c), kinds[c]);
        };
        match self.pick(8) {
            0 => (
                Expr::binary(BinOp::Add, Expr::Col(n), lit(self.pick(4) as i64)),
                kinds[n],
            ),
            1 => (
                Expr::binary(BinOp::Mul, Expr::Col(n), lit(1 + self.pick(3) as i64)),
                kinds[n],
            ),
            2 => {
                let other = self.column(kinds, Kind::numeric).expect("n is numeric");
                let kind = if kinds[n] == Kind::Int && kinds[other] == Kind::Int {
                    Kind::Int
                } else {
                    Kind::Float
                };
                (
                    Expr::binary(BinOp::Sub, Expr::Col(n), Expr::Col(other)),
                    kind,
                )
            }
            3 => {
                let negated = Expr::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(Expr::Col(n)),
                };
                (negated, kinds[n])
            }
            4 => {
                let kind = self.one(&[Kind::Int, Kind::Float, Kind::Str, Kind::Bool]);
                (Expr::Lit(self.literal(kind)), kind)
            }
            _ => {
                let c = self.pick(kinds.len());
                (Expr::Col(c), kinds[c])
            }
        }
    }

    /// `col ⋈ lit` (or `lit ⋈ col`), the literal of the column's type
    /// family — numeric columns meet literals of both numeric types.
    fn comparison(&mut self, kinds: &[Kind]) -> Expr {
        let c = self.pick(kinds.len());
        let kind = match kinds[c] {
            k if k.numeric() && self.pick(3) == 0 => self.one(&[Kind::Int, Kind::Float]),
            k => k,
        };
        let lit = Expr::Lit(self.literal(kind));
        let op = self.one(&[
            BinOp::Eq,
            BinOp::Neq,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
        ]);
        if self.pick(4) == 0 {
            Expr::binary(op, lit, Expr::Col(c))
        } else {
            Expr::binary(op, Expr::Col(c), lit)
        }
    }

    /// A predicate over columns of `kinds` that cannot fail.
    fn predicate(&mut self, kinds: &[Kind], depth: usize) -> Expr {
        match self.pick(if depth == 0 { 9 } else { 12 }) {
            // The use-rewrite shape: a union of ranges on one column,
            // upper bounds excluded or included.
            0 | 1 => match self.column(kinds, Kind::numeric) {
                None => self.comparison(kinds),
                Some(c) => {
                    let range = |ch: &mut Choices| {
                        let lo = ch.pick(ch.span * 5 / 6) as i64 - (ch.span / 8) as i64 + 1;
                        let hi = Value::Int(lo + ch.pick(12) as i64);
                        let upper = ch.one(&[BinOp::Lt, BinOp::Le]);
                        Expr::binary(
                            BinOp::And,
                            Expr::binary(BinOp::Ge, Expr::Col(c), Expr::Lit(Value::Int(lo))),
                            Expr::binary(upper, Expr::Col(c), Expr::Lit(hi)),
                        )
                    };
                    let ranges: Vec<Expr> = (0..1 + self.pick(3)).map(|_| range(self)).collect();
                    Expr::disjunction(ranges)
                }
            },
            2 => {
                let a = self.pick(kinds.len());
                let family = |k: Kind| k == kinds[a] || (k.numeric() && kinds[a].numeric());
                let b = self.column(kinds, family).expect("a itself fits");
                let op = self.one(&[BinOp::Eq, BinOp::Lt, BinOp::Ge]);
                Expr::binary(op, Expr::Col(a), Expr::Col(b))
            }
            3 => Expr::IsNull {
                expr: Box::new(Expr::Col(self.pick(kinds.len()))),
                negated: self.flip(),
            },
            4 => match self.column(kinds, |k| k == Kind::Bool) {
                None => self.comparison(kinds),
                Some(c) if self.flip() => Expr::Col(c),
                Some(c) => Expr::Unary {
                    op: UnOp::Not,
                    expr: Box::new(Expr::Col(c)),
                },
            },
            5 => {
                let c = self.pick(kinds.len());
                Expr::InList {
                    expr: Box::new(Expr::Col(c)),
                    list: (0..2).map(|_| Expr::Lit(self.literal(kinds[c]))).collect(),
                    negated: self.flip(),
                }
            }
            6..=8 => self.comparison(kinds),
            9 | 10 => Expr::binary(
                BinOp::And,
                self.predicate(kinds, depth - 1),
                self.predicate(kinds, depth - 1),
            ),
            _ => Expr::binary(
                BinOp::Or,
                self.predicate(kinds, depth - 1),
                self.predicate(kinds, depth - 1),
            ),
        }
    }
}

/// A table a plan scans and the filters of its scan prefix, rewritten over
/// the table's columns: what the counters oracle needs of a scan.
type ScanFilters = (String, Vec<Expr>);

/// A scan prefix under construction: the plan, what its columns hold, and
/// its scan for the counters oracle.
#[derive(Clone)]
struct Chain {
    plan: LogicalPlan,
    kinds: Vec<Kind>,
    /// The plan's output over the table's columns (`None`: the columns as
    /// is).
    over_table: Option<Vec<Expr>>,
    scan: ScanFilters,
}

impl Chain {
    /// A scan of `table`, which is shaped like `m`.
    fn scan(table: &str) -> Chain {
        let kinds = vec![Kind::Int, Kind::Float, Kind::Str, Kind::Bool];
        Chain {
            plan: LogicalPlan::Scan {
                table: table.into(),
                schema: schema_of(&kinds),
            },
            kinds,
            over_table: None,
            scan: (table.into(), Vec::new()),
        }
    }

    /// Which output columns are table columns as they are.
    fn stored(&self) -> Vec<bool> {
        match &self.over_table {
            None => vec![true; self.kinds.len()],
            Some(outputs) => outputs.iter().map(|e| matches!(e, Expr::Col(_))).collect(),
        }
    }

    /// The output column that is table column `column` as it is.
    fn output_of(&self, column: usize) -> Option<usize> {
        match &self.over_table {
            None => Some(column),
            Some(outputs) => outputs.iter().position(|e| *e == Expr::Col(column)),
        }
    }

    fn rewritten(&self, e: &Expr) -> Expr {
        match &self.over_table {
            None => e.clone(),
            Some(outputs) => e.substitute(&|i| outputs[i].clone()),
        }
    }

    fn filter(mut self, predicate: Expr) -> Chain {
        self.scan.1.push(self.rewritten(&predicate));
        self.plan = LogicalPlan::Filter {
            input: Box::new(self.plan),
            predicate,
        };
        self
    }

    fn project(mut self, outputs: Vec<(Expr, Kind)>) -> Chain {
        let (exprs, kinds): (Vec<Expr>, Vec<Kind>) = outputs.into_iter().unzip();
        self.over_table = Some(exprs.iter().map(|e| self.rewritten(e)).collect());
        self.plan = LogicalPlan::Project {
            input: Box::new(self.plan),
            schema: schema_of(&kinds),
            exprs,
        };
        self.kinds = kinds;
        self
    }

    /// Fewer than `max` filters and (stacked, arithmetic) projections on
    /// top, in any order.
    fn grow(mut self, ch: &mut Choices, max: usize) -> Chain {
        for _ in 0..ch.pick(max) {
            self = if ch.flip() {
                let predicate = ch.predicate(&self.kinds, 2);
                self.filter(predicate)
            } else {
                let outputs = (0..1 + ch.pick(4)).map(|_| ch.scalar(&self.kinds));
                let outputs = outputs.collect();
                self.project(outputs)
            };
        }
        self
    }
}

/// How a generated plan is made to fail, if at all. The failing
/// expression is one the pipeline cannot avoid: it sits on top of the
/// chain or join, where every row the filters let through reaches it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    None,
    NonBooleanPredicate,
    ProjectionOverflow,
    SumOverflow,
}

impl Fault {
    fn pick(ch: &mut Choices) -> Fault {
        match ch.pick(10) {
            0 => Fault::NonBooleanPredicate,
            1 => Fault::ProjectionOverflow,
            2 => Fault::SumOverflow,
            _ => Fault::None,
        }
    }
}

/// A filter predicate over columns of `kinds` that evaluates to a number.
fn non_boolean_predicate(ch: &mut Choices, kinds: &[Kind]) -> Expr {
    let numeric = ch.column(kinds, Kind::numeric);
    let operand = numeric.map_or(Expr::Lit(Value::Int(7)), Expr::Col);
    Expr::binary(BinOp::Add, operand, Expr::Lit(Value::Int(1)))
}

/// Projection outputs over columns of `kinds`: one column as is, then an
/// Int column (or 2) times `i64::MAX`.
fn overflowing_projection(ch: &mut Choices, kinds: &[Kind]) -> Vec<(Expr, Kind)> {
    let int = ch.column(kinds, |k| k == Kind::Int);
    let operand = int.map_or(Expr::Lit(Value::Int(2)), Expr::Col);
    let product = Expr::binary(BinOp::Mul, operand, Expr::Lit(Value::Int(i64::MAX)));
    let kept = ch.pick(kinds.len());
    vec![(Expr::Col(kept), kinds[kept]), (product, Kind::Int)]
}

/// An aggregation over `input`, whose columns hold `kinds`: 0–2 group
/// columns and 1–3 aggregates of any function (after `sum(overflow)`, an
/// Int that overflows the sum of a group, if given). Half of them, and
/// all without arithmetic, read only numeric columns that are `stored`
/// table columns, where there are any: the shape that is grouped a batch
/// at a time where the columns hold no NULL.
fn aggregate_over(
    ch: &mut Choices,
    input: LogicalPlan,
    kinds: &[Kind],
    stored: &[bool],
    overflow: Option<Expr>,
) -> (LogicalPlan, Vec<Kind>) {
    let plain = ch.flip() || !ch.arithmetic;
    let operand = |ch: &mut Choices| {
        let columns = (0..kinds.len()).filter(|&c| stored[c] && kinds[c].numeric());
        match plain.then(|| columns.collect::<Vec<_>>()) {
            Some(columns) if !columns.is_empty() => {
                let c = ch.one(&columns);
                (Expr::Col(c), kinds[c])
            }
            _ => ch.scalar(kinds),
        }
    };
    let group_by: Vec<(Expr, Kind)> = (0..ch.pick(3)).map(|_| operand(ch)).collect();
    let mut aggs: Vec<(AggFunc, Option<(Expr, Kind)>)> = Vec::new();
    if let Some(overflow) = overflow {
        aggs.push((AggFunc::Sum, Some((overflow, Kind::Int))));
    }
    for _ in 0..1 + ch.pick(3) {
        let func = ch.one(&[
            AggFunc::Sum,
            AggFunc::Count,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ]);
        let arg = operand(ch);
        aggs.push(match func {
            AggFunc::Count if ch.pick(3) == 0 => (func, None),
            AggFunc::Sum | AggFunc::Avg if !arg.1.numeric() => (AggFunc::Count, None),
            _ => (func, Some(arg)),
        });
    }
    let mut kinds: Vec<Kind> = group_by.iter().map(|(_, k)| *k).collect();
    kinds.extend(aggs.iter().map(|(func, arg)| match (func, arg) {
        (AggFunc::Count, _) | (_, None) => Kind::Int,
        (AggFunc::Avg, _) => Kind::Float,
        (_, Some((_, kind))) => *kind,
    }));
    let specs = aggs
        .into_iter()
        .enumerate()
        .map(|(i, (func, arg))| AggSpec {
            func,
            arg: arg.map(|(e, _)| e),
            name: format!("agg{i}"),
        });
    let plan = LogicalPlan::Aggregate {
        input: Box::new(input),
        group_by: group_by.into_iter().map(|(e, _)| e).collect(),
        aggs: specs.collect(),
        schema: schema_of(&kinds),
    };
    (plan, kinds)
}

/// `plan` (with columns `kinds`), possibly under a HAVING filter.
fn maybe_having(ch: &mut Choices, plan: LogicalPlan, kinds: &[Kind]) -> LogicalPlan {
    if !ch.flip() {
        return plan;
    }
    LogicalPlan::Filter {
        input: Box::new(plan),
        predicate: ch.predicate(kinds, 1),
    }
}

/// A random scan-prefix plan over `m` — `Scan`, then filters and (stacked,
/// arithmetic) projections in any order, then possibly an aggregation —
/// with its scan, and whether it wants `m`'s data [`HUGE`]: half the
/// `Fault::SumOverflow` plans sum `i` itself instead of a literal, and
/// compute nothing else.
fn scan_prefix_plan(raw: Vec<u32>) -> (LogicalPlan, ScanFilters, bool) {
    let mut ch = Choices {
        raw,
        at: 0,
        span: 48,
        arithmetic: true,
        int_keys: false,
    };
    let fault = Fault::pick(&mut ch);
    let huge = fault == Fault::SumOverflow && ch.flip();
    ch.arithmetic = !huge;
    let mut chain = Chain::scan("m").grow(&mut ch, 4);
    match fault {
        Fault::NonBooleanPredicate => {
            let predicate = non_boolean_predicate(&mut ch, &chain.kinds);
            chain = chain.filter(predicate);
        }
        Fault::ProjectionOverflow => {
            let outputs = overflowing_projection(&mut ch, &chain.kinds);
            chain = chain.project(outputs);
            return (chain.plan, chain.scan, false);
        }
        Fault::SumOverflow | Fault::None => {}
    }
    if fault != Fault::SumOverflow && ch.flip() {
        return (chain.plan, chain.scan, false);
    }
    let i = chain.output_of(0).filter(|_| huge);
    let overflow = match i {
        Some(i) => Expr::Col(i),
        None => Expr::Lit(Value::Int(i64::MAX)),
    };
    let overflow = (fault == Fault::SumOverflow).then_some(overflow);
    let stored = chain.stored();
    let (plan, kinds) = aggregate_over(&mut ch, chain.plan, &chain.kinds, &stored, overflow);
    (maybe_having(&mut ch, plan, &kinds), chain.scan, i.is_some())
}

/// Run `plan` both ways and demand the same outcome: the same rows in the
/// same order and the same counters, or the same error. `scans` are the
/// scan prefixes the engine runs.
fn assert_matches_naive(db: &Database, tables: &Tables, plan: &LogicalPlan, scans: &[ScanFilters]) {
    let mut want_stats = ExecStats::default();
    let want = naive(plan, tables, &mut want_stats);
    let got = db.execute_plan(plan);
    let context = format!("\n{}over {tables:?}", plan.explain());
    match (got, want) {
        (Ok(got), Ok(want)) => {
            // `Debug` tells `2` from `2.0`, which compare equal.
            assert_eq!(format!("{:?}", got.rows), format!("{want:?}"), "{context}");
            for (table, filters) in scans {
                let (scanned, skipped) = expected_scan_stats(db, table, filters);
                want_stats.rows_scanned += scanned;
                want_stats.rows_skipped += skipped;
            }
            assert_eq!(got.stats, want_stats, "{context}");
        }
        (got, want) => assert_eq!(got.err(), want.err(), "{context}"),
    }
}

/// `m`'s live rows as the only table.
fn only_m(rows: Vec<Row>) -> Tables {
    Tables::from([("m".to_string(), rows)])
}

proptest! {
    #[test]
    fn scan_prefix_plans_match_the_naive_evaluator(
        sealed in prop::collection::vec(mixed_row(), 0..40),
        null_chunk in prop::bool::ANY,
        wipe_null_chunk in prop::bool::ANY,
        deletes in prop::collection::vec(predicate(), 0..3),
        tail in prop::collection::vec(mixed_row(), 0..4),
        dense in prop::bool::ANY,
        clustered in prop::bool::ANY,
        choices in prop::collection::vec(0u32..u32::MAX, 64..65),
    ) {
        let (plan, scan, huge) = scan_prefix_plan(choices);
        // A HUGE sum overflows in the middle of a run read as a slice.
        let clustered = (clustered || huge).then_some(4);
        let (sealed, tail) = shaped(&sealed, &tail, dense || huge, clustered, huge);
        let (db, model) = populate(&sealed, null_chunk, wipe_null_chunk, &deletes, &tail);
        assert_matches_naive(&db, &only_m(model.rows), &plan, &[scan]);
    }
}

// ---------------------------------------------------------------------
// Joins and the operators above them, against the same naive evaluator:
// 2–4 tables, each with tombstones and an open tail, joined in any tree
// shape over scan prefixes and bag inputs.
// ---------------------------------------------------------------------

/// A plan under construction above the scan prefixes: the plan, what its
/// columns hold, and every scan prefix it runs.
struct Node {
    plan: LogicalPlan,
    kinds: Vec<Kind>,
    /// Which columns are a scanned table's columns as they are.
    stored: Vec<bool>,
    scans: Vec<ScanFilters>,
}

impl Node {
    fn filter(mut self, predicate: Expr) -> Node {
        self.plan = LogicalPlan::Filter {
            input: Box::new(self.plan),
            predicate,
        };
        self
    }

    fn project(mut self, outputs: Vec<(Expr, Kind)>) -> Node {
        let (exprs, kinds): (Vec<Expr>, Vec<Kind>) = outputs.into_iter().unzip();
        self.stored = (exprs.iter())
            .map(|e| matches!(e, Expr::Col(c) if self.stored[*c]))
            .collect();
        self.plan = LogicalPlan::Project {
            input: Box::new(self.plan),
            schema: schema_of(&kinds),
            exprs,
        };
        self.kinds = kinds;
        self
    }
}

/// `m`, `m1`, `m2`, `m3`.
fn table_name(k: usize) -> String {
    match k {
        0 => "m".into(),
        k => format!("m{k}"),
    }
}

/// A join input over `table`: a scan prefix, or a bag — an aggregate
/// subquery, a DISTINCT, or an EXCEPT [ALL], whose multiplicities exceed
/// one — over one. With `int_keys`, a scan prefix that only filters, so
/// that its `i` stays a stored Int column: over tables loaded without a
/// NULL in `i`, the engine joins such keys as gathered `i64`s.
fn join_input(ch: &mut Choices, table: &str) -> Node {
    if ch.int_keys {
        let mut chain = Chain::scan(table);
        for _ in 0..ch.pick(3) {
            let predicate = ch.predicate(&chain.kinds, 2);
            chain = chain.filter(predicate);
        }
        return scanned(chain);
    }
    let chain = Chain::scan(table).grow(ch, 2);
    let mut scans = vec![chain.scan.clone()];
    let (plan, kinds) = match ch.pick(7) {
        0 => {
            let stored = chain.stored();
            aggregate_over(ch, chain.plan, &chain.kinds, &stored, None)
        }
        1 => {
            let distinct = LogicalPlan::Distinct {
                input: Box::new(chain.plan),
            };
            (distinct, chain.kinds)
        }
        2 => {
            // One column of the chain (duplicates likely), less the rows a
            // filter picks.
            let output = ch.scalar(&chain.kinds);
            let column = chain.project(vec![output]);
            let predicate = ch.predicate(&column.kinds, 1);
            let less = column.clone().filter(predicate);
            scans.push(less.scan);
            let except = LogicalPlan::Except {
                left: Box::new(column.plan),
                right: Box::new(less.plan),
                all: ch.pick(4) > 0,
            };
            (except, column.kinds)
        }
        _ => return scanned(chain),
    };
    let stored = vec![false; kinds.len()];
    Node {
        plan,
        kinds,
        stored,
        scans,
    }
}

/// A scan prefix as a join input.
fn scanned(chain: Chain) -> Node {
    Node {
        stored: chain.stored(),
        plan: chain.plan,
        kinds: chain.kinds,
        scans: vec![chain.scan],
    }
}

/// `left ⋈ right` on 0–2 key pairs of one type family (an Int key meets a
/// Float one), a cross product when there are none. With `int_keys`, both
/// columns of a pair are stored Int columns where each side has one.
fn join_nodes(ch: &mut Choices, left: Node, right: Node) -> Node {
    let stored_ints = |node: &Node| -> Vec<usize> {
        let int = |&c: &usize| node.stored[c] && node.kinds[c] == Kind::Int;
        (0..node.kinds.len()).filter(int).collect()
    };
    let ints = (ch.int_keys)
        .then(|| (stored_ints(&left), stored_ints(&right)))
        .filter(|(l, r)| !l.is_empty() && !r.is_empty());
    let (mut left_keys, mut right_keys) = (Vec::new(), Vec::new());
    for _ in 0..ch.one(&[0, 1, 1, 1, 1, 2]) {
        if let Some((l, r)) = &ints {
            left_keys.push(ch.one(l));
            right_keys.push(ch.one(r));
            continue;
        }
        let l = ch.pick(left.kinds.len());
        let kind = left.kinds[l];
        let family = |k: Kind| k == kind || (k.numeric() && kind.numeric());
        if let Some(r) = ch.column(&right.kinds, family) {
            left_keys.push(l);
            right_keys.push(r);
        }
    }
    let plan = LogicalPlan::Join {
        left: Box::new(left.plan),
        right: Box::new(right.plan),
        left_keys,
        right_keys,
    };
    Node {
        plan,
        kinds: [left.kinds, right.kinds].concat(),
        stored: [left.stored, right.stored].concat(),
        scans: [left.scans, right.scans].concat(),
    }
}

/// `inputs` joined in order — left-deep, right-deep or bushy at each
/// level — with a filter or a projection over some of the joins.
fn join_tree(ch: &mut Choices, mut inputs: Vec<Node>) -> Node {
    if inputs.len() == 1 {
        return inputs.pop().expect("one input");
    }
    let split = match ch.pick(3) {
        0 => inputs.len() - 1,
        1 => 1,
        _ => inputs.len() / 2,
    };
    let right = inputs.split_off(split);
    let left = join_tree(ch, inputs);
    let right = join_tree(ch, right);
    let node = join_nodes(ch, left, right);
    match ch.pick(4) {
        0 => {
            let predicate = ch.predicate(&node.kinds, 2);
            node.filter(predicate)
        }
        1 => {
            let outputs = (0..1 + ch.pick(4)).map(|_| ch.scalar(&node.kinds));
            let outputs = outputs.collect();
            node.project(outputs)
        }
        _ => node,
    }
}

/// A random plan joining `m`, `m1`, … (`tables` of them), with possibly a
/// fault, an aggregation, a top-k, a sort or a DISTINCT on top; joined on
/// stored Int columns with `int_keys`.
fn join_plan(raw: Vec<u32>, tables: usize, int_keys: bool) -> Node {
    let mut ch = Choices {
        raw,
        at: 0,
        span: 12,
        arithmetic: true,
        int_keys,
    };
    let fault = Fault::pick(&mut ch);
    let inputs: Vec<Node> = (0..tables)
        .map(|k| join_input(&mut ch, &table_name(k)))
        .collect();
    let mut node = join_tree(&mut ch, inputs);
    match fault {
        Fault::NonBooleanPredicate => {
            let predicate = non_boolean_predicate(&mut ch, &node.kinds);
            node = node.filter(predicate);
        }
        Fault::ProjectionOverflow => {
            let outputs = overflowing_projection(&mut ch, &node.kinds);
            return node.project(outputs);
        }
        Fault::SumOverflow | Fault::None => {}
    }
    let input = Box::new(node.plan);
    (node.plan, node.kinds) = match (fault, ch.pick(6)) {
        (Fault::SumOverflow, _) | (_, 0 | 1) => {
            let overflow = Expr::Lit(Value::Int(i64::MAX));
            let overflow = (fault == Fault::SumOverflow).then_some(overflow);
            let (plan, kinds) =
                aggregate_over(&mut ch, *input, &node.kinds, &node.stored, overflow);
            (maybe_having(&mut ch, plan, &kinds), kinds)
        }
        (_, 2 | 3) => {
            let keys = (0..1 + ch.pick(2)).map(|_| SortKey {
                column: ch.pick(node.kinds.len()),
                asc: ch.flip(),
            });
            let keys = keys.collect();
            let plan = if ch.flip() {
                LogicalPlan::Sort { input, keys }
            } else {
                let k = ch.pick(8) as u64;
                LogicalPlan::TopK { input, keys, k }
            };
            (plan, node.kinds)
        }
        (_, 4) => (LogicalPlan::Distinct { input }, node.kinds),
        _ => (*input, node.kinds),
    };
    node
}

proptest! {
    #[test]
    fn join_plans_match_the_naive_evaluator(
        contents in prop::collection::vec(contents(key_row, 2..14, 0..2), 2..5),
        dense in prop::bool::ANY,
        clustered in prop::bool::ANY,
        share in 0u32..4,
        choices in prop::collection::vec(0u32..u32::MAX, 128..129),
    ) {
        // One case in four joins scan prefixes on `i`, NULL-free in every
        // batch: the engine's i64 key form.
        let int_keys = share == 0;
        let (db, tables) = load_tables(&contents, dense, clustered, int_keys);
        let node = join_plan(choices, contents.len(), int_keys);
        assert_matches_naive(&db, &tables, &node.plan, &node.scans);
    }

    #[test]
    fn weighted_join_aggregations_match_the_naive_evaluator(
        contents in prop::collection::vec(contents(key_row, 2..14, 0..2), 2..3),
        dense in prop::bool::ANY,
        clustered in prop::bool::ANY,
        choices in prop::collection::vec(0u32..u32::MAX, 64..65),
    ) {
        let (db, tables) = load_tables(&contents, dense, clustered, false);
        let (plan, scans) = weighted_join_plan(choices);
        assert_matches_naive(&db, &tables, &plan, &scans);
    }
}

/// `m`, `m1`, … loaded with `contents`, each shaped alike ([`shaped`]);
/// with `null_free` dense and without a NULL chunk, so that no batch of
/// `i` ever holds a NULL.
fn load_tables(
    contents: &[Contents],
    dense: bool,
    clustered: bool,
    null_free: bool,
) -> (Database, Tables) {
    let mut db = Database::new();
    let mut tables = Tables::new();
    for (k, c) in contents.iter().enumerate() {
        let clustered = clustered.then_some(1);
        let (sealed, tail) = shaped(&c.sealed, &c.tail, dense || null_free, clustered, false);
        let c = Contents {
            sealed,
            tail,
            null_chunk: c.null_chunk && !null_free,
            ..c.clone()
        };
        let model = load(&mut db, &table_name(k), &c);
        tables.insert(table_name(k), model.rows);
    }
    (db, tables)
}

/// `Aggregate(Join(bag, scan prefix))`, possibly under a HAVING filter:
/// the bag a numeric column of `m` with its duplicates as multiplicities
/// (EXCEPT ALL of the rows a filter picks), the scan prefix over `m1`.
/// The shape that brings multiplicities above one to a group table that
/// reads scanned columns as slices, which random join trees seldom reach
/// with tuples left.
fn weighted_join_plan(raw: Vec<u32>) -> (LogicalPlan, Vec<ScanFilters>) {
    let mut ch = Choices {
        raw,
        at: 0,
        span: 12,
        arithmetic: true,
        int_keys: false,
    };
    let c = ch.pick(2);
    let column = Chain::scan("m").project(vec![(Expr::Col(c), [Kind::Int, Kind::Float][c])]);
    let predicate = ch.predicate(&column.kinds, 1);
    let less = column.clone().filter(predicate);
    let bag = Node {
        plan: LogicalPlan::Except {
            left: Box::new(column.plan),
            right: Box::new(less.plan),
            all: true,
        },
        kinds: column.kinds,
        stored: vec![false],
        scans: vec![column.scan, less.scan],
    };
    let right = scanned(Chain::scan("m1").grow(&mut ch, 2));
    let node = join_nodes(&mut ch, bag, right);
    let (plan, kinds) = aggregate_over(&mut ch, node.plan, &node.kinds, &node.stored, None);
    (maybe_having(&mut ch, plan, &kinds), node.scans)
}

/// `m` with `i` = 0..=17 in order (chunks of four, two rows in the open
/// tail), `f` = `i / 2`, and row 6 deleted.
fn clustered_m() -> (Database, Tables) {
    let rows: Vec<MixedRow> = (0..18)
        .map(|i| MixedRow {
            i: Some(i),
            half_f: Some(i),
            s: Some(["a", "b", "c"][i as usize % 3]),
            b: (i % 5 != 0).then_some(i % 2 == 0),
        })
        .collect();
    let (db, model) = populate(&rows[..16], false, false, &["i = 6".into()], &rows[16..]);
    (db, only_m(model.rows))
}

fn plan_of(db: &Database, sql: &str) -> (LogicalPlan, ScanFilters) {
    let plan = db.plan_sql(sql).unwrap();
    let filters = match sql.split_once(" WHERE ") {
        Some((_, predicate)) => vec![resolve_predicate(db, predicate)],
        None => Vec::new(),
    };
    (plan, ("m".into(), filters))
}

#[test]
fn bounds_on_a_chunk_cut_are_exact() {
    let (db, m) = clustered_m();
    // 4, 8 and 12 open chunks (live rows 4, 3, 4, 4; two in the tail, which
    // is always examined): `< 8` must not deliver 8 although its chunk
    // survives the (inclusive) zone-map test, `<= 8` must.
    for (predicate, ids, scanned) in [
        ("i >= 4 AND i < 8", vec![4, 5, 7], 9),
        ("i >= 4 AND i <= 8", vec![4, 5, 7, 8], 9),
        ("i > 4 AND i < 8", vec![5, 7], 9),
        ("i > 3 AND i <= 7", vec![4, 5, 7], 9),
        (
            "(i >= 0 AND i < 4) OR (i >= 12 AND i < 16)",
            vec![0, 1, 2, 3, 12, 13, 14, 15],
            13,
        ),
        ("(i > 3 AND i <= 4) OR (i >= 16 AND i < 17)", vec![4, 16], 9),
        ("i > 16", vec![17], 2),
        ("i < 0", vec![], 6),
    ] {
        let (plan, scan) = plan_of(&db, &format!("SELECT i FROM m WHERE {predicate}"));
        let got = db.execute_plan(&plan).unwrap();
        let want: Bag = ids.iter().map(|i| (row![*i], 1)).collect();
        assert_eq!(got.rows, want, "{predicate}");
        assert_eq!(got.stats.rows_scanned, scanned, "{predicate}");
        assert_eq!(got.stats.rows_scanned + got.stats.rows_skipped, 17);
        assert_matches_naive(&db, &m, &plan, &[scan]);
    }
}

#[test]
fn int_column_meets_float_literals_around_two_to_the_53() {
    // Above 2^53 several ints widen to one float: `Value`'s order compares
    // the widened int, and so must the kernel that replaces the predicate.
    let two53 = 1i64 << 53;
    let ints = [
        -two53 - 1,
        -two53,
        0,
        two53 - 1,
        two53,
        two53 + 1,
        two53 + 2,
        two53 + 3,
    ];
    let mut db = mixed_db();
    let rows: Vec<Row> = ints
        .iter()
        .map(|&i| Row::new(vec![Value::Int(i), Value::Null, Value::Null, Value::Null]))
        .collect();
    db.table_mut("m").unwrap().bulk_load(rows.clone()).unwrap();
    let m = only_m(rows);
    let scan = Chain::scan("m").plan;
    for literal in [two53 as f64, (two53 + 2) as f64, -(two53 as f64), 0.5] {
        for op in [BinOp::Eq, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge] {
            for flipped in [false, true] {
                let (col, lit) = (Expr::Col(0), Expr::Lit(Value::Float(literal)));
                let predicate = if flipped {
                    Expr::binary(op, lit, col)
                } else {
                    Expr::binary(op, col, lit)
                };
                let plan = LogicalPlan::Filter {
                    input: Box::new(scan.clone()),
                    predicate: predicate.clone(),
                };
                assert_matches_naive(&db, &m, &plan, &[("m".into(), vec![predicate])]);
            }
        }
    }
    // The lossy pair itself: 2^53 + 1 equals the float 2^53.
    let equal = Expr::binary(
        BinOp::Eq,
        Expr::Col(0),
        Expr::Lit(Value::Float(two53 as f64)),
    );
    let plan = LogicalPlan::Filter {
        input: Box::new(scan),
        predicate: equal,
    };
    let hits: Vec<Value> = (db.execute_plan(&plan).unwrap().rows.iter())
        .map(|(r, _)| r[0].clone())
        .collect();
    assert_eq!(hits, [two53, two53 + 1].map(Value::Int));
}

#[test]
fn filters_on_columns_that_are_not_output() {
    let (db, m) = clustered_m();
    for sql in [
        // Both conjuncts decided on columns the query never outputs.
        "SELECT s FROM m WHERE i >= 3 AND f < 6",
        // One decided, one evaluated, neither output.
        "SELECT s FROM m WHERE i >= 3 AND b = TRUE AND f > i / 4",
        // Stacked projections collapse; the filter sits between them.
        "SELECT x + 1 AS y FROM (SELECT i * 2 AS x, s AS t FROM m WHERE f <= 7.5) q WHERE t <> 'b'",
        "SELECT s, count(*) AS n, sum(f) AS sf FROM m WHERE i > 2 AND i < 15 GROUP BY s",
    ] {
        let plan = db.plan_sql(sql).unwrap();
        let mut want_stats = ExecStats::default();
        let want = naive(&plan, &m, &mut want_stats).unwrap();
        let got = db.execute_plan(&plan).unwrap();
        assert_eq!(
            got.canonical(),
            imp_engine::database::canonical_bag(&want),
            "{sql}"
        );
        assert_eq!(got.stats.agg_groups, want_stats.agg_groups, "{sql}");
    }
}

#[test]
fn a_constant_false_filter_scans_nothing() {
    let (db, m) = clustered_m();
    let never = Expr::Lit(Value::Bool(false));
    let chain = Chain::scan("m").filter(never.clone());
    let scans = [chain.scan.clone()];
    assert_matches_naive(&db, &m, &chain.plan, &scans);
    let got = db.execute_plan(&chain.plan).unwrap();
    assert!(got.rows.is_empty());
    assert_eq!(got.stats, ExecStats::default());
    // Under a global aggregation the empty input still yields one row.
    let count = |input: LogicalPlan| LogicalPlan::Aggregate {
        input: Box::new(input),
        group_by: Vec::new(),
        aggs: vec![AggSpec {
            func: AggFunc::Count,
            arg: None,
            name: "n".into(),
        }],
        schema: schema_of(&[Kind::Int]),
    };
    let plan = count(chain.plan);
    assert_matches_naive(&db, &m, &plan, &scans);
    let got = db.execute_plan(&plan).unwrap();
    assert_eq!(got.rows, vec![(row![0], 1)]);
    assert_eq!((got.stats.rows_scanned, got.stats.agg_groups), (0, 1));
    // Above a join it needs neither input: nothing is scanned or probed.
    let join = LogicalPlan::Join {
        left: Box::new(Chain::scan("m").plan),
        right: Box::new(Chain::scan("m").plan),
        left_keys: vec![0],
        right_keys: vec![1],
    };
    let plan = count(LogicalPlan::Filter {
        input: Box::new(join),
        predicate: never,
    });
    assert_matches_naive(&db, &m, &plan, &[]);
    let got = db.execute_plan(&plan).unwrap();
    assert_eq!(got.rows, vec![(row![0], 1)]);
    let stats = ExecStats {
        agg_groups: 1,
        ..ExecStats::default()
    };
    assert_eq!(got.stats, stats);
}

/// Joins on `i` over tables whose every batch holds `i` without a NULL:
/// the engine gathers such keys once and joins them as `i64`s. Whether it
/// did is counted inside the engine (`eval::join`'s unit tests pin that
/// form to the cell form); here the precondition is checked batch by
/// batch, and the outcome, `join_probes` included, against the naive
/// evaluator.
#[test]
fn null_free_int_keys_match_the_naive_evaluator() {
    let rows = |n: i64, keys: i64| -> Vec<MixedRow> {
        (0..n)
            .map(|k| MixedRow {
                i: Some(k % keys),
                half_f: Some(k),
                s: Some(["a", "b", "ba"][k as usize % 3]),
                b: Some(k % 2 == 0),
            })
            .collect()
    };
    let contents = |n, keys, delete: &str| Contents {
        sealed: rows(n, keys),
        null_chunk: false,
        wipe_null_chunk: false,
        deletes: vec![delete.into()],
        tail: rows(3, keys),
    };
    let contents = [
        contents(13, 5, "i = 3 AND f < 4"),
        contents(6, 4, "b = TRUE AND i = 0"),
        contents(9, 7, "f > 3.5 AND f < 4.5"),
    ];
    let (db, tables) = load_tables(&contents, false, false, true);
    for name in ["m", "m1", "m2"] {
        let t = db.table(name).unwrap();
        let batches = t.scan_batches::<()>(
            None,
            |batch| {
                assert!(batch.columns[0].ints().is_some(), "{name}: a NULL in i");
                Ok(())
            },
            |_| {},
        );
        assert!(batches.unwrap() > 0);
    }
    let scan = |table: &str| scanned(Chain::scan(table));
    let filtered = |table: &str, predicate: &str| {
        let predicate = resolve_predicate(&db, predicate);
        scanned(Chain::scan(table).filter(predicate))
    };
    let join = |left: Node, right: Node, keys: (&[usize], &[usize])| Node {
        plan: LogicalPlan::Join {
            left: Box::new(left.plan),
            right: Box::new(right.plan),
            left_keys: keys.0.to_vec(),
            right_keys: keys.1.to_vec(),
        },
        kinds: [left.kinds, right.kinds].concat(),
        stored: [left.stored, right.stored].concat(),
        scans: [left.scans, right.scans].concat(),
    };
    let plans = [
        // m1 is smaller and builds; then m1 probes a smaller, filtered m.
        join(scan("m"), scan("m1"), (&[0], &[0])),
        join(filtered("m", "f < 3"), scan("m1"), (&[0], &[0])),
        // Three tables, the last on two keys: m.i and m1.i against m2.i.
        join(
            join(scan("m"), scan("m1"), (&[0], &[0])),
            scan("m2"),
            (&[0, 4], &[0, 0]),
        ),
        // The middle input is joined on m's `i`, the outer on m1's.
        join(
            scan("m2"),
            join(scan("m"), filtered("m1", "b = FALSE"), (&[0], &[0])),
            (&[0], &[4]),
        ),
    ];
    for node in plans {
        assert_matches_naive(&db, &tables, &node.plan, &node.scans);
        let got = db.execute_plan(&node.plan).unwrap();
        assert!(!got.rows.is_empty(), "{}", node.plan.explain());
        assert!(got.stats.join_probes > 0);
    }
}
