//! Plan evaluation (bag semantics, Fig. 4 of the paper).
//!
//! Under any node, the **scan prefix** — the maximal chain
//! `Aggregate? ← (Project | Filter)* ← Scan` — runs as one pipeline on
//! column batches (`eval/scan.rs`): storage prunes and selects, the
//! pipeline refines the selection by the filters' range constraints and
//! evaluates what is left of them, and the survivors go into one of three
//! sinks:
//!
//! * the **group table** when the prefix ends in an aggregation — fed a
//!   batch at a time: NULL-free Int and Float keys and arguments are read
//!   as slices, anything else as cells, and a run of equal keys is looked
//!   up once (`eval/aggregate.rs`);
//! * **positions** when the prefix feeds a join, a filter or a projection
//!   above it — the batches and their selected rows, nothing evaluated;
//! * **rows** holding the prefix's output expressions only, in storage
//!   order, otherwise — for the caller, sort, top-k, distinct, except.
//!
//! Joins, and the filters, projections and aggregations above them, run
//! on **position tuples** over those batches (`eval/join.rs`): a join
//! concatenates positions — its hash table keyed by `i64`s gathered once
//! through the positions when every key column is a NULL-free Int column
//! of a scan prefix, by cells read through the positions otherwise — a
//! filter reads the cells its predicate reaches, a projection stays a
//! list of expressions, an aggregation gathers its key and argument
//! columns through the positions and feeds them to the same group table
//! with the tuples' multiplicities. Plan shape alone
//! selects the pipeline; inside the group table, a batch's column types
//! and NULL bitmaps select slices or cells. A `Row` is built only for
//! output: a group of the group table, a row of the query's result, or a
//! row of the bag a row-consuming operator (sort, top-k, distinct, except)
//! needs, holding its input expressions only.
//!
//! A sketch capture runs on the same pipelines (`eval/capture.rs`): an
//! aggregation over a select-project-join plan on the group table
//! ([`capture_groups`]), the capture told each tuple's group and the
//! partition column's value in each partitioned source, from which it
//! counts per group the tuples in each fragment — the state an incremental
//! aggregation starts from, with no row replayed — and a join's result as
//! rows with the same values ([`capture_rows`]), for a join whose result
//! an incremental operator starts from. (An incremental aggregation with
//! MIN/MAX still starts from its input's rows.)

mod aggregate;
mod capture;
mod hash_index;
mod join;
mod ranges;
mod scan;
mod topk;

pub use aggregate::{AggAcc, CapturedGroups, NumAcc};
pub use capture::{
    aggregates_spj, capture_groups, capture_rows, is_spj, CaptureBatch, CapturedRows, GroupSink,
    PartitionValues,
};
pub use ranges::{extract_prune_ranges, PruneRanges};
pub use scan::scan_table;
pub use topk::top_k;

use crate::database::Database;
use crate::Result;
use imp_sql::LogicalPlan;
use imp_storage::{Row, Value};

/// A bag of rows: each row with a positive multiplicity.
pub type Bag = Vec<(Row, i64)>;

/// Execution counters. `rows_skipped` counts live rows inside chunks that
/// zone-map pruning never touched — the quantity data skipping saves.
/// `rows_scanned + rows_skipped` is the live-row count of every scanned
/// table.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Live rows the scans looked at: the rows of every chunk that
    /// survived zone-map pruning, plus the open tails. Not the rows
    /// materialized — inside a surviving chunk only rows in a prune range
    /// are gathered.
    pub rows_scanned: u64,
    /// Live rows of the chunks skipped whole via zone-map pruning.
    pub rows_skipped: u64,
    /// Hash-join probe operations.
    pub join_probes: u64,
    /// Groups produced by aggregations.
    pub agg_groups: u64,
}

impl ExecStats {
    /// Merge counters from a sub-execution.
    pub fn absorb(&mut self, other: &ExecStats) {
        self.rows_scanned += other.rows_scanned;
        self.rows_skipped += other.rows_skipped;
        self.join_probes += other.join_probes;
        self.agg_groups += other.agg_groups;
    }
}

/// Evaluate `plan` against `db`.
pub fn execute(plan: &LogicalPlan, db: &Database, stats: &mut ExecStats) -> Result<Bag> {
    if let Some(prefix) = scan::ScanPrefix::of(plan) {
        return prefix.run(db, stats);
    }
    match plan {
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            ..
        } => join::relation(input, db, stats)?.aggregate(group_by, aggs, stats),
        LogicalPlan::Distinct { input } => {
            let rows = execute(input, db, stats)?;
            let mut seen: std::collections::BTreeMap<Row, ()> = Default::default();
            let mut out = Vec::new();
            for (row, _) in rows {
                if seen.insert(row.clone(), ()).is_none() {
                    out.push((row, 1));
                }
            }
            Ok(out)
        }
        LogicalPlan::Sort { input, keys } => {
            let mut rows = execute(input, db, stats)?;
            rows.sort_by(|a, b| imp_sql::plan::compare_rows(&a.0, &b.0, keys));
            Ok(rows)
        }
        LogicalPlan::TopK { input, keys, k } => {
            let rows = execute(input, db, stats)?;
            topk::top_k(rows, keys, *k)
        }
        LogicalPlan::Except { left, right, all } => {
            let l = execute(left, db, stats)?;
            let r = execute(right, db, stats)?;
            Ok(except(l, r, *all))
        }
        // Scan (a scan prefix), filter, projection, join.
        _ => join::relation(plan, db, stats)?.materialize(),
    }
}

/// Every row the engine builds: a group, an output row, a row of a bag an
/// operator consumes. Tests count them.
fn new_row(values: impl IntoIterator<Item = Value>) -> Row {
    #[cfg(test)]
    tests::ROWS_BUILT.with(|n| n.set(n.get() + 1));
    values.into_iter().collect()
}

/// Bag / set difference. `EXCEPT ALL`: multiplicity `max(L(t) − R(t), 0)`;
/// `EXCEPT`: `t` survives with multiplicity 1 iff `L(t) > 0 ∧ R(t) = 0`.
pub fn except(left: Bag, right: Bag, all: bool) -> Bag {
    let mut counts: std::collections::BTreeMap<Row, i64> = Default::default();
    for (row, m) in left {
        *counts.entry(row).or_insert(0) += m;
    }
    let mut suppressed: imp_storage::FxHashMap<Row, i64> = Default::default();
    for (row, m) in right {
        *suppressed.entry(row).or_insert(0) += m;
    }
    counts
        .into_iter()
        .filter_map(|(row, l)| {
            let r = suppressed.get(&row).copied().unwrap_or(0);
            if all {
                let m = l - r;
                (m > 0).then_some((row, m))
            } else {
                (l > 0 && r == 0).then_some((row, 1))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_sql::{AggFunc, AggSpec, Expr};
    use imp_storage::{row, DataType, Field, Schema, Table};
    use std::cell::Cell;

    thread_local! {
        /// Rows [`new_row`] built on this thread.
        pub(super) static ROWS_BUILT: Cell<u64> = const { Cell::new(0) };
        /// Hash lookups the group tables made on this thread.
        pub(super) static GROUP_LOOKUPS: Cell<u64> = const { Cell::new(0) };
        /// Batches the group tables took a batch at a time on this thread.
        pub(super) static TYPED_BATCHES: Cell<u64> = const { Cell::new(0) };
        /// Joins that hashed and compared gathered `i64` keys on this
        /// thread.
        pub(super) static TYPED_JOINS: Cell<u64> = const { Cell::new(0) };
    }

    /// `plan`'s result, and how much `counter` grew while running it.
    fn counted(
        counter: &'static std::thread::LocalKey<Cell<u64>>,
        db: &Database,
        plan: &LogicalPlan,
    ) -> (Bag, u64) {
        let before = counter.with(Cell::get);
        let rows = execute(plan, db, &mut ExecStats::default()).unwrap();
        (rows, counter.with(Cell::get) - before)
    }

    /// `plan`'s result and the number of rows the engine built for it.
    fn rows_built(db: &Database, plan: &LogicalPlan) -> (Bag, u64) {
        counted(&ROWS_BUILT, db, plan)
    }

    #[test]
    fn a_join_builds_rows_for_output_only() {
        let schema = |a: &str, b: &str| {
            Schema::new(vec![
                Field::new(a, DataType::Int),
                Field::new(b, DataType::Int),
            ])
        };
        let mut db = Database::new();
        db.create_table("l", schema("k", "v")).unwrap();
        db.create_table("r", schema("k", "w")).unwrap();
        let l = (0..40).map(|i| row![i % 4, i]);
        db.table_mut("l").unwrap().bulk_load(l).unwrap();
        db.table_mut("r")
            .unwrap()
            .bulk_load((0..6).map(|i| row![i, 10 * i]))
            .unwrap();
        let scan = |table: &str, a, b| LogicalPlan::Scan {
            table: table.into(),
            schema: schema(a, b),
        };
        // 30 of l's rows survive the filter; each meets one row of r.
        let selected = LogicalPlan::Filter {
            input: Box::new(scan("l", "k", "v")),
            predicate: Expr::binary(
                imp_sql::ast::BinOp::Lt,
                Expr::Col(1),
                Expr::Lit(Value::Int(30)),
            ),
        };
        let join = |right| LogicalPlan::Join {
            left: Box::new(selected.clone()),
            right: Box::new(right),
            left_keys: vec![0],
            right_keys: vec![0],
        };
        let aggregate = |input, group_by, func, arg| LogicalPlan::Aggregate {
            input: Box::new(input),
            group_by: vec![Expr::Col(group_by)],
            aggs: vec![AggSpec {
                func,
                arg: Some(Expr::Col(arg)),
                name: "a".into(),
            }],
            schema: schema("g", "a"),
        };

        // Aggregate(Join(prefix, prefix)): one row per group, nothing else.
        let plan = aggregate(join(scan("r", "k", "w")), 0, AggFunc::Sum, 1);
        let (rows, built) = rows_built(&db, &plan);
        assert_eq!(rows.len(), 4);
        assert_eq!(built, 4);

        // Project(Join(prefix, bag)): the output rows and the bag's rows.
        let bag = aggregate(scan("r", "k", "w"), 0, AggFunc::Max, 1);
        let plan = LogicalPlan::Project {
            input: Box::new(join(bag)),
            exprs: vec![Expr::Col(1), Expr::Col(3)],
            schema: schema("v", "m"),
        };
        let (rows, built) = rows_built(&db, &plan);
        assert_eq!(rows.len(), 30);
        assert_eq!(built, 30 + 6);
    }

    /// A table `name` with the columns `kinds` (`g`, `v`, …), nullable,
    /// in chunks of four rows, loaded with `rows` and left with its last
    /// rows in the open tail.
    fn add_table(db: &mut Database, name: &str, kinds: &[DataType], rows: Vec<Row>) {
        let fields = (kinds.iter().enumerate())
            .map(|(i, &kind)| Field::nullable(["g", "v", "w"][i], kind))
            .collect();
        let mut table = Table::with_chunk_capacity(name, Schema::new(fields), 4);
        table.bulk_load(rows).unwrap();
        db.register_table(table).unwrap();
    }

    fn scan(db: &Database, table: &str) -> LogicalPlan {
        let t = db.table(table).unwrap();
        LogicalPlan::Scan {
            table: table.into(),
            schema: t.schema().clone(),
        }
    }

    /// `input` grouped by its column `key`, with `sum(arg)` and `count(*)`.
    fn group_sum(input: LogicalPlan, key: usize, arg: Expr) -> LogicalPlan {
        let spec = |func, arg| AggSpec {
            func,
            arg,
            name: "a".into(),
        };
        LogicalPlan::Aggregate {
            input: Box::new(input),
            group_by: vec![Expr::Col(key)],
            aggs: vec![spec(AggFunc::Sum, Some(arg)), spec(AggFunc::Count, None)],
            schema: Schema::new(vec![
                Field::new("g", DataType::Int),
                Field::new("s", DataType::Int),
                Field::new("n", DataType::Int),
            ]),
        }
    }

    /// `(g, v)` for 22 rows: `g = i / 3` in runs of three that cross the
    /// four-row chunks and reach into the two-row tail.
    fn clustered() -> Vec<Row> {
        (0..22).map(|i| row![i / 3, i]).collect()
    }

    /// The groups of `clustered()` (or any order of its rows), sorted.
    fn clustered_groups() -> Bag {
        (0..8)
            .map(|g| {
                let members: Vec<i64> = (3 * g..(3 * g + 3).min(22)).collect();
                let sum: i64 = members.iter().sum();
                (row![g, sum, members.len() as i64], 1)
            })
            .collect()
    }

    fn sorted(mut rows: Bag) -> Bag {
        rows.sort();
        rows
    }

    #[test]
    fn the_group_table_looks_up_a_key_once_per_run() {
        let mut db = Database::new();
        add_table(&mut db, "c", &[DataType::Int; 2], clustered());
        // The same rows, no two neighbours in one group: g = 0..8, 0..8, 0..7.
        let mut shuffled = clustered();
        shuffled.sort_by_key(|r| (r[1].as_i64().unwrap() % 3, r[0].as_i64().unwrap()));
        add_table(&mut db, "u", &[DataType::Int; 2], shuffled);
        // The clustered rows again, with a NULL `v` in the open tail: that
        // batch goes row by row, the run that reaches it goes on.
        let mut nulls = clustered();
        nulls.push(row![7, Value::Null]);
        add_table(&mut db, "n", &[DataType::Int; 2], nulls);
        db.create_table("r", Schema::new(vec![Field::new("k", DataType::Int)]))
            .unwrap();
        (db.table_mut("r").unwrap())
            .bulk_load((0..8).map(|k| row![k]))
            .unwrap();

        let plan = group_sum(scan(&db, "c"), 0, Expr::Col(1));
        let (rows, lookups) = counted(&GROUP_LOOKUPS, &db, &plan);
        assert_eq!(rows, clustered_groups());
        assert_eq!(lookups, 8);

        let plan = group_sum(scan(&db, "u"), 0, Expr::Col(1));
        let (rows, lookups) = counted(&GROUP_LOOKUPS, &db, &plan);
        assert_eq!(sorted(rows), clustered_groups());
        assert_eq!(lookups, 22);

        let plan = group_sum(scan(&db, "n"), 0, Expr::Col(1));
        let (rows, lookups) = counted(&GROUP_LOOKUPS, &db, &plan);
        assert_eq!(rows[..7], clustered_groups()[..7]);
        assert_eq!(rows[7], (row![7, 21, 2], 1));
        assert_eq!(lookups, 8);

        // Aggregate(Join(c, r)): c, the larger side, probes in its own
        // order, so the joined tuples keep its runs.
        let join = LogicalPlan::Join {
            left: Box::new(scan(&db, "c")),
            right: Box::new(scan(&db, "r")),
            left_keys: vec![0],
            right_keys: vec![0],
        };
        let plan = group_sum(join, 2, Expr::Col(1));
        let (rows, lookups) = counted(&GROUP_LOOKUPS, &db, &plan);
        assert_eq!(rows, clustered_groups());
        assert_eq!(lookups, 8);
    }

    #[test]
    fn only_null_free_numeric_plain_columns_are_grouped_a_batch_at_a_time() {
        let mut db = Database::new();
        add_table(&mut db, "c", &[DataType::Int; 2], clustered());
        let strs = (0..22).map(|i| row![["a", "b"][i as usize / 11], i]);
        add_table(
            &mut db,
            "s",
            &[DataType::Str, DataType::Int],
            strs.collect(),
        );
        let mut nulls = clustered();
        nulls[5] = row![1, Value::Null];
        add_table(&mut db, "n", &[DataType::Int; 2], nulls);
        let floats = (0..22).map(|i| row![i / 3, i as f64 / 2.0]);
        add_table(
            &mut db,
            "f",
            &[DataType::Int, DataType::Float],
            floats.collect(),
        );

        // Five chunks and the tail, every one a batch at a time.
        let plan = group_sum(scan(&db, "c"), 0, Expr::Col(1));
        assert_eq!(counted(&TYPED_BATCHES, &db, &plan), (clustered_groups(), 6));
        let plan = group_sum(scan(&db, "f"), 0, Expr::Col(1));
        let (rows, typed) = counted(&TYPED_BATCHES, &db, &plan);
        assert_eq!((rows[0].clone(), typed), ((row![0, 1.5, 3], 1), 6));
        // A NULL in the second chunk sends that chunk alone row by row.
        let plan = group_sum(scan(&db, "n"), 0, Expr::Col(1));
        let (rows, typed) = counted(&TYPED_BATCHES, &db, &plan);
        assert_eq!((rows[1].clone(), typed), ((row![1, 3 + 4, 3], 1), 5));

        // A Str key, a nullable column, a computed argument: none.
        let plan = group_sum(scan(&db, "s"), 0, Expr::Col(1));
        assert_eq!(counted(&TYPED_BATCHES, &db, &plan).1, 0);
        let mut nulls = clustered();
        nulls
            .iter_mut()
            .for_each(|r| *r = row![r[0].clone(), Value::Null]);
        add_table(&mut db, "all_null", &[DataType::Int; 2], nulls);
        let plan = group_sum(scan(&db, "all_null"), 0, Expr::Col(1));
        assert_eq!(counted(&TYPED_BATCHES, &db, &plan).1, 0);
        let doubled = Expr::binary(
            imp_sql::ast::BinOp::Mul,
            Expr::Col(1),
            Expr::Lit(Value::Int(2)),
        );
        let plan = group_sum(scan(&db, "c"), 0, doubled);
        let (rows, typed) = counted(&TYPED_BATCHES, &db, &plan);
        assert_eq!((rows[0].clone(), typed), ((row![0, 6, 3], 1), 0));
    }

    /// A capture of an aggregation over a join groups the join's tuples on
    /// the group table after the typed hash join, as the query does, and
    /// is told each tuple's group and its partitioned sources' values:
    /// gathered as `i64`s from a NULL-free Int column, read as cells from
    /// a nullable Float one. `capture_rows` hands the same values beside
    /// the join's rows.
    #[test]
    fn a_capture_groups_a_join_and_reads_its_partition_columns_through_the_positions() {
        let mut db = Database::new();
        add_table(&mut db, "c", &[DataType::Int; 2], clustered());
        let floats = (0..8).map(|k| {
            row![
                k % 4,
                if k == 5 {
                    Value::Null
                } else {
                    Value::Float(k as f64 / 2.0)
                }
            ]
        });
        add_table(
            &mut db,
            "f",
            &[DataType::Int, DataType::Float],
            floats.collect(),
        );
        let join = LogicalPlan::Join {
            left: Box::new(scan(&db, "c")),
            right: Box::new(scan(&db, "f")),
            left_keys: vec![0],
            right_keys: vec![0],
        };
        let plan = group_sum(join.clone(), 0, Expr::Col(1));
        // Both tables are partitioned on their second column.
        let column = |_: &str| Some(1);
        let mut told = Vec::new();
        let mut sink = |batch: &CaptureBatch<'_>| {
            let values = |i: usize| match &batch.partitioned[i].1 {
                PartitionValues::Ints(v) => v.iter().map(|&x| Value::Int(x)).collect::<Vec<_>>(),
                PartitionValues::Cells(v) => v.iter().map(|c| c.to_value()).collect(),
                PartitionValues::Rows(..) => panic!("a join is not a scan batch"),
            };
            let forms = batch
                .partitioned
                .iter()
                .map(|(t, v)| (t.to_string(), matches!(v, PartitionValues::Ints(_))));
            told.push((
                batch.groups.to_vec(),
                forms.collect::<Vec<_>>(),
                values(0),
                values(1),
            ));
        };
        let typed = TYPED_JOINS.with(Cell::get);
        let groups =
            capture_groups(&plan, &db, &column, &mut sink, &mut ExecStats::default()).unwrap();
        assert_eq!(TYPED_JOINS.with(Cell::get), typed + 1, "the i64 join");
        let [(ids, forms, c_values, f_values)] = &told[..] else {
            panic!("one batch: the join's tuples")
        };
        assert_eq!(*forms, [("c".to_string(), true), ("f".to_string(), false)]);
        // The tuples in the join's order, as `capture_rows` materializes
        // them, with the same values beside them.
        let rows = capture_rows(&join, &db, &column, &mut ExecStats::default()).unwrap();
        assert_eq!(ids.len(), rows.rows.len());
        for (t, (row, mult)) in rows.rows.iter().enumerate() {
            assert_eq!(*mult, 1);
            assert_eq!((&c_values[t], &f_values[t]), (&row[1], &row[3]));
            assert_eq!(groups.key(ids[t]), &[row[0].clone()]);
        }
        // Keys and accumulators are the query's groups.
        let mut answer = execute(&plan, &db, &mut ExecStats::default()).unwrap();
        answer.sort();
        let mut captured: Bag = (0..answer.len())
            .map(|g| {
                let sums = groups.accumulators(g);
                let values = (sums.iter()).map(|acc| match acc {
                    AggAcc::Sum { sum, .. } => sum.value(),
                    AggAcc::Count { count } => Value::Int(*count),
                    _ => unreachable!(),
                });
                (groups.key(g).iter().cloned().chain(values).collect(), 1)
            })
            .collect();
        captured.sort();
        assert_eq!(captured, answer);
    }

    #[test]
    fn a_join_is_grouped_a_batch_at_a_time_with_its_multiplicities() {
        let mut db = Database::new();
        add_table(&mut db, "c", &[DataType::Int; 2], clustered());
        let keys = [0, 0, 0, 1, 1, 2].map(|k| row![k]);
        add_table(&mut db, "k", &[DataType::Int], keys.to_vec());
        // A bag of k's rows, each once with its count as multiplicity.
        let bag = LogicalPlan::Except {
            left: Box::new(scan(&db, "k")),
            right: Box::new(LogicalPlan::Filter {
                input: Box::new(scan(&db, "k")),
                predicate: Expr::Lit(Value::Bool(false)),
            }),
            all: true,
        };
        let join = LogicalPlan::Join {
            left: Box::new(bag),
            right: Box::new(scan(&db, "c")),
            left_keys: vec![0],
            right_keys: vec![0],
        };
        // Group by c.g, sum(c.v), count(*): c's columns are gathered
        // through the positions and weighted by the bag's multiplicities.
        let plan = group_sum(join, 1, Expr::Col(2));
        let (rows, typed) = counted(&TYPED_BATCHES, &db, &plan);
        let want = [(0, 3 * 3, 3 * 3), (1, 2 * 12, 2 * 3), (2, 21, 3)];
        assert_eq!(rows, want.map(|(g, s, n)| (row![g, s, n], 1)));
        assert_eq!(typed, 1);
    }
}
