//! Thm. 6.1 in a small scope: one deterministic enumerator.
//!
//! The paper's contract (Thm. 6.1, proved operator by operator in §6) is
//! that a maintained sketch equals a fresh capture; PBDS's safety
//! property adds Q(D_P) = Q(D) on safe partitions. This module walks
//! **every** case of a bounded scope instead of drawing random ones: no
//! RNG, no proptest, no clock, so every run checks the same cases in the
//! same order. The test files include it by `#[path]` and run one slice
//! each (a set of plan shapes under a set of configurations).
//!
//! # The scope
//!
//! | Dimension | Bound |
//! |---|---|
//! | schema | `r(a, b)`, `s(c, d)`; every column `Int` over {0, 1, 2, NULL} |
//! | databases | every multiset of ≤ `rows` rows per table over the table's 4-row [`ALPHABET`], each once whatever its row order; a table the plan does not read stays empty; tables at the slice's chunk capacity (2, so 3 rows span a sealed chunk and an open tail, or the default) |
//! | plans | [`ONE_TABLE`], [`BOUNDED`], [`JOINS`], [`JOIN_SHAPES`], [`ON_S`]: scan, WHERE, projection, GROUP BY with SUM / COUNT / AVG / MIN / MAX and HAVING, DISTINCT, ORDER BY … LIMIT k (k ∈ {1, 2}), ORDER BY without LIMIT, `r ⋈ s`, the self-join `r ⋈ r`, each also with a WHERE on one input (placed on its scan, below the join), a comma cross product with a residual filter, a two-key join with a self-equality, an equi-join over a cross product, the three-input chain `r ⋈ s ⋈ r`; up to depth 3 |
//! | partitions | per table the plan reads, the first attribute [`imp_sketch::safe_attributes`] allows, at every cut set of the slice (from [`CUTS`]: 1–3 fragments, cuts ⊆ {1, 2}); on a join, both tables at once; and one attribute the analysis cannot prove safe, where exactness is checked without safety |
//! | scripts | two [`statements`] (INSERT of one row, DELETE WHERE col = v, DELETE WHERE col < v, UPDATE SET col = v WHERE col = w): both on the plan's table, or one on each table of a join (`r`'s first); [`Between`] them, per slice: each maintained, an "evict, then recapture" step, or nothing (one run maintains both, one delta) |
//! | configs | per slice: the default `OpConfig`, `selection_pushdown: false`, buffers of 1 (`minmax_buffer` / `topk_buffer`), `join_index_budget` `None` / `Some(1)` |
//! | workers | [`Imp`] at `sched_workers` 0, 1 and 2, each store holding four sketches (on `r`, `r ⋈ s`, `s` and `r ⋈ s` with a WHERE on `s`), at `join_index_budget` default and `Some(1)`; a statement on `r`, then one on `s`; evicting between them, or taking both into paused pools |
//!
//! Scripts of fewer statements are prefixes: every check runs after the
//! capture and after each statement. Each slice prints its case count
//! (`cargo test -- --nocapture`) and its test asserts it, so the scope
//! cannot shrink unnoticed:
//!
//! | Test | Slice | Cases |
//! |---|---|---|
//! | `theorem_6_1::incremental_maintenance_is_exact_and_safe` | one-table plans without MIN/MAX or top-k; rows ≤ 2 | 7 440 × 2 configs |
//! | `theorem_6_1::bounded_buffers_remain_sound` | MIN/MAX and top-k plans; rows ≤ 2; evict | 4 320 × 3 configs |
//! | `theorem_6_1::join_maintenance_matches_capture` | [`JOINS`]; rows ≤ 1; 3 fragments | 7 360 × 3 configs |
//! | `theorem_6_1::range_deletes_and_updates_keep_the_sketch_exact` | one-table plans; chunks of 2; rows ≤ 3; 3 fragments | 7 280 × 1 config |
//! | `join_differential::index_settings_match_a_fresh_capture_on_every_batch` | [`JOINS`] and [`JOIN_SHAPES`]; chunks of 2; rows ≤ 1; batched, and evicting; 3 fragments | 21 920 × 3 configs |
//! | `sched_differential::shard_pool_matches_sequential_store` | [`Imp`], every store holding SUM with HAVING on `r`, SUM over `r ⋈ s`, top-k over SUM on `s` and `r ⋈ s` with a WHERE on `s`; rows ≤ 1; evict | 800 × 3 worker counts |
//! | `steal_differential::stealing_pool_matches_sequential_store` | the same plans and rows; paused pools | 800 × 3 worker counts |
//!
//! To widen a bound, add a row to [`ALPHABET`], a template to a plan list,
//! a cut set to a slice or a statement to [`statements`], or raise a
//! slice's `rows`; then update the asserted counts. A row multiplies a
//! slice's databases, a statement its scripts quadratically: keep
//! `cargo test -q` within its time budget.
//!
//! # The checks, after the capture and after every maintenance
//!
//! That is after each statement, or after both when one run maintains
//! them ([`Between::Batch`]).
//!
//! One oracle, [`imp_sketch::capture`] on the current database together
//! with the engine's answer:
//! - the capture's result bag equals the engine's, and so does the
//!   maintainer's first answer;
//! - the maintained sketch equals the capture's, and the report's added
//!   and removed bits are the difference between consecutive captures;
//!   under bounded buffers the sketch covers the capture's;
//! - Q(D_P) = Q(D) on safe partitions, for the capture's sketch and for
//!   every maintained sketch that differs from it;
//! - through [`Imp`], at every worker count and for every stored plan:
//!   the answer is the engine's, the plan's sketch is stored and equals a
//!   capture over its own partitions, and `sketch_states()` and every
//!   answer are identical across worker counts.
//!
//! Cases that share a prefix share its oracle: the scripts of one
//! (plan, partition, database) compute the capture's once, and each
//! first statement's once.
//!
//! Before an eviction the zero-worker store is brought current. A worker
//! store sweeps before every control and the zero-worker store does not
//! (`Scheduler::visit`), so without it the two would evict at different
//! versions, and evicted sketches stay evicted until a query recaptures
//! them.

#![allow(dead_code)]

use imp_core::maintain::{MaintReport, SketchMaintainer};
use imp_core::middleware::{Imp, ImpConfig, ImpResponse};
use imp_core::ops::OpConfig;
use imp_engine::database::canonical_bag;
use imp_engine::Database;
use imp_sketch::{
    apply_sketch_filter, capture, safe_attributes, PartitionSet, RangePartition, SketchSet,
};
use imp_sql::{LogicalPlan, QueryTemplate, Statement};
use imp_storage::{DataType, Field, Row, Schema, Table, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The two tables and their columns; every column is `Int`.
pub const TABLES: [(&str, [&str; 2]); 2] = [("r", ["a", "b"]), ("s", ["c", "d"])];

/// The rows each table's databases are built from. Every column of `s`,
/// and `r.b`, meets every value of {0, 1, 2, NULL}; `r.a` meets 2
/// through the statements.
pub const ALPHABET: [[[Option<i64>; 2]; 4]; 2] = [
    [
        [Some(0), Some(1)],
        [Some(0), Some(2)],
        [Some(1), None],
        [None, Some(0)],
    ],
    [
        [Some(1), Some(0)],
        [Some(2), Some(2)],
        [None, Some(1)],
        [Some(0), None],
    ],
];

/// Cut sets of a partition: 1, 2 and 3 fragments.
pub const CUTS: [&[i64]; 3] = [&[], &[1], &[1, 2]];

/// One-table plans without MIN/MAX or top-k state. Every ORDER BY in
/// the plans decides its output bag: rows it ties are equal in the
/// output, so Q(D) is one bag.
pub const ONE_TABLE: [&str; 9] = [
    "SELECT a, b FROM r",
    "SELECT a, b FROM r WHERE b < 2",
    "SELECT b FROM r WHERE a < 2",
    "SELECT a, sum(b) AS x FROM r GROUP BY a HAVING sum(b) > 1",
    "SELECT a, count(b) AS x FROM r GROUP BY a HAVING count(b) > 0",
    "SELECT a, avg(b) AS x FROM r GROUP BY a HAVING avg(b) < 2",
    "SELECT a, sum(b) AS x FROM r WHERE b > 0 GROUP BY a HAVING sum(b) > 1",
    "SELECT DISTINCT a FROM r",
    "SELECT a, b FROM r ORDER BY b, a",
];

/// One-table plans with MIN/MAX or top-k state (bounded buffers apply).
/// `ORDER BY b LIMIT 1` ties rows that differ only in their provenance.
pub const BOUNDED: [&str; 5] = [
    "SELECT a, min(b) AS x FROM r GROUP BY a HAVING min(b) < 2",
    "SELECT a, max(b) AS x FROM r GROUP BY a HAVING max(b) > 0",
    "SELECT a, b FROM r ORDER BY b, a LIMIT 1",
    "SELECT a, sum(b) AS x FROM r GROUP BY a ORDER BY x DESC, a LIMIT 2",
    "SELECT b FROM r ORDER BY b LIMIT 1",
];

/// A top-k plan on `s`: the [`Imp`] slices store it beside plans on
/// `r`, so a statement on one table leaves some sketches current.
pub const ON_S: &str = "SELECT c, sum(d) AS x FROM s GROUP BY c ORDER BY x DESC, c LIMIT 2";

/// Joins: equi-join, self-join, cross product with a residual filter,
/// joins under aggregation and top-k, and a WHERE that binds on one
/// input's scan below the join: on `s`, whose delta selection push-down
/// filters, and on one scan of the self-join, where it must filter that
/// input only and not `r`'s delta, which the other scan reads too.
pub const JOINS: [&str; 8] = [
    "SELECT a, d FROM r JOIN s ON (b = c)",
    "SELECT x.a, y.b FROM r x JOIN r y ON (x.b = y.a)",
    "SELECT a, d FROM r, s WHERE a < d",
    "SELECT a, sum(d) AS x FROM r JOIN s ON (b = c) GROUP BY a HAVING sum(d) > 0",
    "SELECT c, min(a) AS x FROM r JOIN s ON (b = c) GROUP BY c",
    "SELECT a, d FROM r JOIN s ON (b = c) ORDER BY a, d LIMIT 2",
    "SELECT a, d FROM r JOIN s ON (b = c) WHERE d < 2",
    "SELECT x.a, y.b FROM r x JOIN r y ON (x.b = y.a) WHERE y.b < 2",
];

/// Deeper join shapes: two keys, one a self-equality on `s`; an
/// equi-join over a cross product (nested operators); a three-input
/// chain.
pub const JOIN_SHAPES: [&str; 3] = [
    "SELECT a, d FROM r JOIN s ON (a = c AND a = d)",
    "SELECT x.a, y.b FROM (SELECT * FROM r, s) AS x JOIN r y ON (x.d = y.a)",
    "SELECT x.a, z.b FROM r x JOIN s ON (x.b = c) JOIN r z ON (d = z.a)",
];

/// The statements of a script on table `t`: one of each kind.
pub fn statements(t: usize) -> [String; 4] {
    let (name, [x, y]) = TABLES[t];
    [
        format!("INSERT INTO {name} VALUES (2, NULL)"),
        format!("DELETE FROM {name} WHERE {x} = 0"),
        format!("DELETE FROM {name} WHERE {y} < 2"),
        format!("UPDATE {name} SET {x} = 2 WHERE {x} = 0"),
    ]
}

/// Non-decreasing index sequences of length ≤ `max` over `0..n`: the
/// multisets of ≤ `max` alphabet rows, each once whatever its row order.
fn multisets(n: usize, max: usize) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new()];
    let mut frontier = vec![Vec::new()];
    for _ in 0..max {
        let mut next = Vec::new();
        for m in &frontier {
            for i in m.last().copied().unwrap_or(0)..n {
                let mut grown: Vec<usize> = m.clone();
                grown.push(i);
                next.push(grown);
            }
        }
        out.extend(next.iter().cloned());
        frontier = next;
    }
    out
}

/// The tables (indexes into [`TABLES`]) a plan reads.
fn tables_read(plan: &LogicalPlan) -> Vec<usize> {
    let tables = plan.tables();
    (0..TABLES.len())
        .filter(|&t| tables.iter().any(|x| x == TABLES[t].0))
        .collect()
}

/// Each plan, resolved, with the tables it reads.
fn resolve<'a>(plans: &[&'a str]) -> Vec<(&'a str, LogicalPlan, Vec<usize>)> {
    let schema = Db::all(&[], [0, 0], None).remove(0).build();
    (plans.iter())
        .map(|&sql| {
            let plan = schema.plan_sql(sql).unwrap();
            let read = tables_read(&plan);
            (sql, plan, read)
        })
        .collect()
}

/// One database: the rows of each table, and the chunk capacity every
/// table is built at (`None`: the default).
#[derive(Debug, Clone)]
pub struct Db {
    rows: [Vec<[Option<i64>; 2]>; 2],
    capacity: Option<usize>,
}

impl Db {
    /// Every database of ≤ `rows[t]` rows in each table `t` the plan
    /// reads.
    fn all(read: &[usize], rows: [usize; 2], capacity: Option<usize>) -> Vec<Db> {
        let per_table = |t: usize| {
            let sets = if read.contains(&t) {
                multisets(ALPHABET[t].len(), rows[t])
            } else {
                vec![Vec::new()]
            };
            let rows = |set: Vec<usize>| set.into_iter().map(|i| ALPHABET[t][i]).collect();
            sets.into_iter().map(rows).collect::<Vec<Vec<_>>>()
        };
        let mut out = Vec::new();
        for r in per_table(0) {
            for s in per_table(1) {
                out.push(Db {
                    rows: [r.clone(), s],
                    capacity,
                });
            }
        }
        out
    }

    /// Build the database.
    pub fn build(&self) -> Database {
        let mut db = Database::new();
        for (t, (name, cols)) in TABLES.iter().enumerate() {
            let schema = Schema::new(cols.iter().map(|c| Field::new(*c, DataType::Int)).collect());
            let mut table = match self.capacity {
                Some(c) => Table::with_chunk_capacity(*name, schema, c),
                None => Table::new(*name, schema),
            };
            let row = |r: &[Option<i64>; 2]| {
                Row::new(r.map(|v| v.map_or(Value::Null, Value::Int)).to_vec())
            };
            table.bulk_load(self.rows[t].iter().map(row)).unwrap();
            db.register_table(table).unwrap();
        }
        db
    }
}

/// What happens between a script's two statements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Between {
    /// Each statement is maintained on its own.
    Maintain,
    /// The operator state is dropped after the first statement, and the
    /// recapture takes that statement's maintenance's place; the second
    /// statement is then maintained over the recaptured state.
    Evict,
    /// Nothing: one run maintains both statements, so one delta holds the
    /// changes of both (on a join, a change to each input, or an insert
    /// and a delete of the same row).
    Batch,
}

/// One script: two statements, and what happens between them.
#[derive(Debug, Clone)]
pub struct Script {
    stmts: [String; 2],
    between: Between,
}

impl Script {
    /// Every script, for each mode in `between` and each table pair
    /// `(t, u)` in `pairs`: a statement on `t`, then one on `u`.
    fn all(pairs: &[(usize, usize)], between: &[Between]) -> Vec<Script> {
        let mut out = Vec::new();
        for &between in between {
            for &(t, u) in pairs {
                for first in statements(t) {
                    for second in statements(u) {
                        out.push(Script {
                            stmts: [first.clone(), second],
                            between,
                        });
                    }
                }
            }
        }
        out
    }

    /// The table pairs of a plan's scripts: two statements on its one
    /// table, or one on each of its two tables, `r`'s first.
    fn pairs(read: &[usize]) -> Vec<(usize, usize)> {
        match *read {
            [t] => vec![(t, t)],
            [t, u] => vec![(t, u)],
            _ => unreachable!("plans read one or two tables"),
        }
    }
}

/// One partition set, and whether its attributes are safe for the plan
/// (Q(D_P) = Q(D) is checked only then).
#[derive(Debug, Clone)]
pub struct Part {
    pset: Arc<PartitionSet>,
    safe: bool,
}

impl Part {
    fn new(attrs: &[(&str, &str, usize, &[i64])], safe: bool) -> Part {
        let partitions = (attrs.iter())
            .map(|&(t, a, col, cuts)| {
                let cuts = cuts.iter().map(|c| Value::Int(*c)).collect();
                RangePartition::new(t, a, col, cuts).unwrap()
            })
            .collect();
        Part {
            pset: Arc::new(PartitionSet::new(partitions).unwrap()),
            safe,
        }
    }

    /// The partitions of the scope for `plan`, each safe one at every cut
    /// set in `cuts`.
    fn all(plan: &LogicalPlan, read: &[usize], cuts: &[&[i64]]) -> Vec<Part> {
        let safe = safe_attributes(plan);
        let first_safe: Vec<_> = (read.iter())
            .filter_map(|&t| safe.iter().find(|a| a.table == TABLES[t].0))
            .collect();
        let mut out = Vec::new();
        for attr in &first_safe {
            for cuts in cuts {
                out.push(Part::new(
                    &[(&attr.table, &attr.attribute, attr.column, cuts)],
                    true,
                ));
            }
        }
        if let [x, y] = first_safe[..] {
            out.push(Part::new(
                &[
                    (&x.table, &x.attribute, x.column, &[1]),
                    (&y.table, &y.attribute, y.column, &[1]),
                ],
                true,
            ));
        }
        let unsafe_attr = read.iter().find_map(|&t| {
            let (table, cols) = TABLES[t];
            (0..2)
                .find(|&c| {
                    !safe
                        .iter()
                        .any(|a| a.table == table && a.attribute == cols[c])
                })
                .map(|c| (table, cols[c], c))
        });
        if let Some((table, attr, col)) = unsafe_attr {
            out.push(Part::new(&[(table, attr, col, &[1])], false));
        }
        out
    }
}

/// One maintainer configuration of a slice.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Name in failure messages.
    pub name: &'static str,
    /// Operator knobs.
    pub op: OpConfig,
    /// Push selections into delta retrieval.
    pub pushdown: bool,
    /// Exact (the sketch equals the capture) or only sound (it covers
    /// the capture: bounded buffers).
    pub exact: bool,
}

impl Config {
    /// The default configuration.
    pub fn plain() -> Config {
        Config {
            name: "default",
            op: OpConfig::default(),
            pushdown: true,
            exact: true,
        }
    }

    /// Selection pushdown off.
    pub fn no_pushdown() -> Config {
        Config {
            name: "no pushdown",
            pushdown: false,
            ..Config::plain()
        }
    }

    /// Bounded MIN/MAX and top-k buffers of one entry: sound, not exact.
    pub fn buffers_of_one() -> Config {
        Config {
            name: "buffers of 1",
            op: OpConfig {
                minmax_buffer: Some(1),
                topk_buffer: Some(1),
                ..OpConfig::default()
            },
            exact: false,
            ..Config::plain()
        }
    }

    /// A join-index budget (`None`: no join-side indexes).
    pub fn join_index_budget(name: &'static str, budget: Option<usize>) -> Config {
        Config {
            name,
            op: OpConfig {
                join_index_budget: budget,
                ..OpConfig::default()
            },
            ..Config::plain()
        }
    }
}

/// A slice of the scope: `plans` over databases of
/// ≤ `rows` rows per table at one chunk capacity, partitioned at the cut
/// sets `cuts`, with the scripts of each mode in `between`; each case
/// runs under every one of `configs`.
pub struct Slice<'a> {
    /// SQL of the plans.
    pub plans: &'a [&'a str],
    /// Rows per table.
    pub rows: usize,
    /// Chunk capacity of every table (`None`: the default).
    pub capacity: Option<usize>,
    /// Cut sets of each safe partition.
    pub cuts: &'a [&'a [i64]],
    /// What happens between a script's statements (one script set per
    /// mode).
    pub between: &'a [Between],
    /// Configurations each case runs under.
    pub configs: &'a [Config],
}

impl Slice<'_> {
    /// Check every (database, plan, partition, script) case through
    /// [`SketchMaintainer`] under every config; print and return the
    /// number of cases.
    pub fn walk(&self, name: &str) -> usize {
        let plans: Vec<_> = (resolve(self.plans).into_iter())
            .map(|(sql, plan, read)| {
                let scripts = Script::all(&Script::pairs(&read), self.between);
                (sql, plan, read, scripts)
            })
            .collect();
        // One work item per (plan, partition, database): its scripts share
        // the oracle at the capture, and at each first statement.
        let mut groups = Vec::new();
        for (sql, plan, read, scripts) in &plans {
            let dbs = Db::all(read, [self.rows; 2], self.capacity);
            for part in Part::all(plan, read, self.cuts) {
                for db in &dbs {
                    groups.push((*sql, plan, part.clone(), db.clone(), scripts));
                }
            }
        }
        on_two_threads(&groups, |(sql, plan, part, db, scripts)| {
            let mut oracles = HashMap::new();
            for script in scripts.iter() {
                let case = Case {
                    sql,
                    plan,
                    db,
                    part,
                    script,
                };
                case.check(self.configs, &mut oracles);
            }
        });
        let cases = groups.iter().map(|g| g.4.len()).sum();
        println!(
            "small scope {name}: {cases} cases x {} configs",
            self.configs.len()
        );
        cases
    }
}

/// Run `check` on every item, the first half on a second thread. The
/// items and their order are fixed, so the outcome is too.
fn on_two_threads<T: Sync>(items: &[T], check: impl Fn(&T) + Sync) {
    let (first, second) = items.split_at(items.len() / 2);
    std::thread::scope(|s| {
        s.spawn(|| first.iter().for_each(&check));
        second.iter().for_each(&check);
    });
}

/// The engine's answer, as a canonical bag.
fn answer(db: &Database, plan: &LogicalPlan) -> Vec<(Row, i64)> {
    db.execute_plan(plan).unwrap().canonical()
}

fn ones(sketch: &SketchSet) -> Vec<usize> {
    sketch.bits().iter_ones().collect()
}

/// One (database, plan, partition, script) case.
struct Case<'a> {
    sql: &'a str,
    plan: &'a LogicalPlan,
    db: &'a Db,
    part: &'a Part,
    script: &'a Script,
}

impl fmt::Display for Case<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "\n  plan: {}\n  db: {:?}\n  partition: {:?}\n  script: {:?}",
            self.sql, self.db, self.part, self.script
        )
    }
}

/// The oracle after a script prefix: the fresh capture's sketch and the
/// engine's answer, keyed by the first statement (`None`: none yet).
type Oracles = HashMap<Option<String>, (SketchSet, Vec<(Row, i64)>)>;

impl Case<'_> {
    /// Run the script under every config. `oracles` holds the oracles
    /// at the prefixes this case shares with the cases of the same
    /// (plan, partition, database) checked before it.
    fn check(&self, configs: &[Config], oracles: &mut Oracles) {
        let (plan, pset) = (self.plan, &self.part.pset);
        let mut db = self.db.build();
        let (mut truth, engine) = (oracles.entry(None))
            .or_insert_with(|| self.oracle(&db, "the capture"))
            .clone();
        let mut ms: Vec<SketchMaintainer> = (configs.iter())
            .map(|c| {
                let (m, first) =
                    SketchMaintainer::capture(plan, &db, Arc::clone(pset), c.op, c.pushdown)
                        .unwrap();
                assert_eq!(
                    canonical_bag(&first),
                    engine,
                    "{}: capture answer != the engine's{self}",
                    c.name
                );
                self.check_sketch(&db, c, &m, &truth, None, "the capture");
                m
            })
            .collect();
        let between = self.script.between;
        for (step, sql) in self.script.stmts.iter().enumerate() {
            db.execute_sql(sql).unwrap();
            if step == 0 && between == Between::Batch {
                continue;
            }
            let at = ["statement 1", "statement 2"][step];
            let next = match step {
                0 => (oracles.entry(Some(sql.clone())))
                    .or_insert_with(|| self.oracle(&db, at))
                    .0
                    .clone(),
                _ => self.oracle(&db, at).0,
            };
            for (c, m) in configs.iter().zip(&mut ms) {
                let report = if step == 0 && between == Between::Evict {
                    m.drop_state();
                    m.full_maintain(&db)
                } else {
                    m.maintain(&db)
                };
                let report = report.unwrap_or_else(|e| {
                    panic!("{}: maintenance failed at {at}: {e}{self}", c.name)
                });
                self.check_sketch(&db, c, m, &next, Some((&report, &truth)), at);
            }
            truth = next;
        }
    }

    /// The oracle: a fresh capture, whose answer must be the engine's and
    /// which must be safe on a safe partition; its sketch and the answer.
    fn oracle(&self, db: &Database, at: &str) -> (SketchSet, Vec<(Row, i64)>) {
        let fresh = capture(self.plan, db, &self.part.pset).unwrap();
        let engine = answer(db, self.plan);
        assert_eq!(
            canonical_bag(&fresh.result),
            engine,
            "capture answer != the engine's at {at}{self}"
        );
        self.check_safe(db, &fresh.sketch, &engine, "capture", at);
        (fresh.sketch, engine)
    }

    /// Q(D_P) = Q(D), on a safe partition.
    fn check_safe(
        &self,
        db: &Database,
        sketch: &SketchSet,
        engine: &[(Row, i64)],
        who: &str,
        at: &str,
    ) {
        if self.part.safe {
            let rewritten = apply_sketch_filter(self.plan, sketch).unwrap();
            assert_eq!(
                answer(db, &rewritten),
                engine,
                "{who}: Q(D_P) != Q(D) at {at}{self}"
            );
        }
    }

    /// The maintained sketch against the oracle: equal, with the report's
    /// delta the difference between consecutive captures; or, under
    /// bounded buffers, covering it and safe.
    fn check_sketch(
        &self,
        db: &Database,
        c: &Config,
        m: &SketchMaintainer,
        truth: &SketchSet,
        report: Option<(&MaintReport, &SketchSet)>,
        at: &str,
    ) {
        let name = c.name;
        if !c.exact {
            assert!(
                m.sketch().covers(truth),
                "{name}: sketch misses provenance at {at}{self}"
            );
            if ones(m.sketch()) != ones(truth) {
                self.check_safe(db, m.sketch(), &answer(db, self.plan), name, at);
            }
            return;
        }
        assert_eq!(
            ones(m.sketch()),
            ones(truth),
            "{name}: sketch != capture at {at}{self}"
        );
        if let Some((report, before)) = report {
            let added: Vec<usize> = (truth.bits().iter_ones())
                .filter(|&b| !before.bits().get(b))
                .collect();
            let removed: Vec<usize> = (before.bits().iter_ones())
                .filter(|&b| !truth.bits().get(b))
                .collect();
            assert_eq!(
                (&report.sketch_delta.added, &report.sketch_delta.removed),
                (&added, &removed),
                "{name}: report's sketch delta != capture difference at {at}{self}"
            );
        }
    }
}

/// The canonical result bag of one [`Imp::execute`] of a SELECT.
pub fn run_query(imp: &mut Imp, sql: &str) -> Vec<(Row, i64)> {
    let ImpResponse::Rows { result, .. } = imp.execute(sql).unwrap() else {
        panic!("expected rows for {sql}")
    };
    result.canonical()
}

/// The worker counts every [`Imp`] case runs at; the first is the
/// zero-worker store the others must match.
pub const WORKERS: [usize; 3] = [0, 1, 2];

/// A slice through [`Imp`]: every store captures all of `plans`, over
/// databases of ≤ `rows[t]` rows in table `t`, under each join-index
/// budget of `budgets`, at every count of [`WORKERS`]. The scripts are
/// every two statements on `r` and `r`, `r` and `s`, or `s` and `s`, so
/// most statements change a table some of the stored sketches do not
/// read. Under [`Between::Batch`] each store takes both statements while
/// its pool is paused (a backlog the resumed workers sweep); under
/// [`Between::Evict`] every store evicts all operator state between them.
pub struct ImpSlice<'a> {
    /// SQL of the plans every store captures.
    pub plans: &'a [&'a str],
    /// Rows per table.
    pub rows: [usize; 2],
    /// What happens between a script's statements.
    pub between: Between,
    /// `join_index_budget` settings each case runs under.
    pub budgets: &'a [Option<usize>],
}

impl ImpSlice<'_> {
    /// Check every (budget, database, script) case at every worker count;
    /// print and return the number of cases.
    pub fn walk(&self, name: &str) -> usize {
        let plans: Vec<(&str, QueryTemplate)> = (self.plans.iter())
            .map(|&sql| {
                let Statement::Select(select) = imp_sql::parse_one(sql).unwrap() else {
                    unreachable!("the plans are SELECTs")
                };
                (sql, QueryTemplate::of(&select))
            })
            .collect();
        let scripts = Script::all(&[(0, 1)], &[self.between]);
        let mut cases = Vec::new();
        for &budget in self.budgets {
            for db in Db::all(&[0, 1], self.rows, None) {
                for script in &scripts {
                    cases.push((budget, db.clone(), script.clone()));
                }
            }
        }
        on_two_threads(&cases, |(budget, db, script)| {
            let case = format!("\n  budget: {budget:?}\n  db: {db:?}\n  script: {script:?}");
            check_stores(&plans, *budget, db, script, &case);
        });
        println!(
            "small scope {name}: {} cases x {} worker counts, {} plans each",
            cases.len(),
            WORKERS.len(),
            plans.len()
        );
        cases.len()
    }
}

/// One [`Imp`] case: a store per worker count captures every plan, takes
/// the script, and converges after the capture and after each statement
/// (after the backlog, under [`Between::Batch`]).
fn check_stores(
    plans: &[(&str, QueryTemplate)],
    budget: Option<usize>,
    db: &Db,
    script: &Script,
    case: &str,
) {
    let config = |workers| ImpConfig {
        fragments: 3,
        sched_workers: workers,
        join_index_budget: budget,
        ..ImpConfig::default()
    };
    let mut imps: Vec<Imp> = (WORKERS.iter())
        .map(|&w| Imp::new(db.build(), config(w)))
        .collect();
    converge(&mut imps, plans, case, "the capture");
    if script.between == Between::Batch {
        let paused: Vec<_> = (imps.iter())
            .map(|imp| imp.scheduler().unwrap().pause())
            .collect();
        for stmt in &script.stmts {
            for imp in &mut imps {
                imp.execute(stmt).unwrap();
            }
        }
        paused.into_iter().for_each(|p| p.resume());
        return converge(&mut imps, plans, case, "the backlog");
    }
    for (step, stmt) in script.stmts.iter().enumerate() {
        for imp in &mut imps {
            imp.execute(stmt).unwrap();
        }
        if step == 0 && script.between == Between::Evict {
            imps[0].maintain_all_stale().unwrap();
            for imp in &mut imps {
                imp.evict_all_states().unwrap();
            }
        }
        converge(&mut imps, plans, case, ["statement 1", "statement 2"][step]);
    }
}

/// Bring every store current, then ask each every query: states agree
/// across worker counts, every answer is the engine's, and every stored
/// sketch equals a capture over its own partitions. The stores hold the
/// same database, so the engine's answer and the capture are computed
/// once, on the zero-worker store's.
fn converge(imps: &mut [Imp], plans: &[(&str, QueryTemplate)], case: &str, at: &str) {
    let same_states = |imps: &[Imp], when: &str| {
        let states = imps[0].sketch_states();
        for (imp, w) in imps.iter().zip(WORKERS) {
            let diverged = format!("{w} workers: states diverged {when} at {at}{case}");
            assert_eq!(imp.sketch_states(), states, "{diverged}");
        }
    };
    for imp in imps.iter_mut() {
        imp.maintain_all_stale().unwrap();
    }
    same_states(imps, "before the queries");
    for (sql, template) in plans {
        let plan = imps[0].db().plan_sql(sql).unwrap();
        let engine = answer(&imps[0].db(), &plan);
        let mut stored = Vec::new();
        for (imp, w) in imps.iter_mut().zip(WORKERS) {
            let got = run_query(imp, sql);
            assert_eq!(
                got, engine,
                "{w} workers: answer != the engine's for {sql} at {at}{case}"
            );
            let entry = imp.with_sketch(template, |e| {
                let m = &e.maintainer;
                (Arc::clone(m.partitions()), ones(m.sketch()))
            });
            stored.push(entry.unwrap_or_else(|| {
                panic!("{w} workers: no sketch stored for {sql} at {at}{case}")
            }));
        }
        let truth = capture(&plan, &imps[0].db(), &stored[0].0).unwrap().sketch;
        for ((pset, sketch), w) in stored.iter().zip(WORKERS) {
            assert_eq!(
                (&**pset, sketch),
                (&*stored[0].0, &ones(&truth)),
                "{w} workers: sketch != capture for {sql} at {at}{case}"
            );
        }
    }
    same_states(imps, "after the queries");
}
