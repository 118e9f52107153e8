//! The four seeded workloads and their op streams.
//!
//! Every workload is a *closed loop with one client*: `Imp::execute` has
//! one caller that waits for each reply. Tables and the op stream are
//! generated before timing as a pure function of `(name, seed, seconds)`;
//! the program under test receives only SQL text. Op counts are fixed —
//! `cycles_per_second × seconds`, calibrated so the measured phase takes
//! about `seconds` on the 2-core reference box — so every count a run
//! reports repeats exactly for a fixed seed.

use imp_data::queries;
use imp_data::synthetic::{self, SyntheticConfig};
use imp_data::workload::{insert_stream, mixed_workload, WorkloadOp};
use imp_engine::Database;
use imp_storage::{row, DataType, Field, Row, Schema, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Workload names, in reporting order. Later issues cite these.
pub const NAMES: [&str; 4] = [
    "agg-read-heavy",
    "join-write-heavy",
    "chain-churn",
    "sharded-fanout",
];

/// Rows and schema of one base table, loadable any number of times (set-up
/// is repeated to report a median, and the traced replica loads its own
/// copy).
pub struct TableData {
    pub name: String,
    pub schema: Schema,
    pub rows: Vec<Row>,
    pub chunk_capacity: usize,
}

/// One generated workload: initial tables, op stream, backend shape.
pub struct Workload {
    pub name: &'static str,
    pub tables: Vec<TableData>,
    pub ops: Vec<WorkloadOp>,
    /// `ImpConfig::sched_workers` (0 = in-line store). The only
    /// `ImpConfig` field a workload sets; everything else is the default.
    pub sched_workers: usize,
    /// Run the third, span-free replica pass that prices the recorder
    /// (`trace.overhead_frac`)? Only where spans are densest relative to
    /// the work: the pass costs as much as the traced one.
    pub price_tracing: bool,
}

impl Workload {
    /// Bulk-load the initial tables into a fresh database.
    pub fn load(&self) -> Database {
        let mut db = Database::new();
        for t in &self.tables {
            let mut table =
                Table::with_chunk_capacity(t.name.clone(), t.schema.clone(), t.chunk_capacity);
            table
                .bulk_load(t.rows.iter().cloned())
                .expect("generated rows match their schema");
            table.seal();
            db.register_table(table).expect("table names are distinct");
        }
        db
    }

    /// Distinct SELECT texts in first-use order: set-up runs each once so
    /// every capture happens before the measured phase.
    pub fn warmup_queries(&self) -> Vec<&str> {
        let mut seen: Vec<&str> = Vec::new();
        for op in &self.ops {
            if let WorkloadOp::Query(sql) = op {
                if !seen.contains(&sql.as_str()) {
                    seen.push(sql);
                }
            }
        }
        seen
    }

    /// FNV-1a over the op stream: same seed → same hash, byte for byte.
    pub fn stream_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for op in &self.ops {
            let (tag, sql) = match op {
                WorkloadOp::Query(sql) => (b'Q', sql),
                WorkloadOp::Update { sql, .. } => (b'U', sql),
            };
            for b in [tag].iter().chain(sql.as_bytes()).chain(b"\n") {
                h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

/// Generate workload `name` for `seed`, sized for a measured phase of about
/// `seconds`. `None` for an unknown name.
pub fn generate(name: &str, seed: u64, seconds: u64) -> Option<Workload> {
    // Whole cycles only, so the U:Q shape is the same at every size.
    let cycles = |per_second: f64| ((per_second * seconds as f64).round() as usize).max(1);
    Some(match name {
        "agg-read-heavy" => agg_read_heavy(seed, cycles(AGG_CYCLES_PER_S)),
        "join-write-heavy" => join_write_heavy(seed, cycles(JOIN_CYCLES_PER_S)),
        "chain-churn" => chain_churn(seed, cycles(CHAIN_CYCLES_PER_S)),
        "sharded-fanout" => sharded_fanout(seed, cycles(FANOUT_CYCLES_PER_S)),
        _ => return None,
    })
}

// Cycles per second of measured phase, calibrated on the 2-core reference
// box (see README "Sizes"). Changing one changes every count the workload
// reports, so the baseline must be re-measured with it.
const AGG_CYCLES_PER_S: f64 = 26.0;
const JOIN_CYCLES_PER_S: f64 = 17.0;
const CHAIN_CYCLES_PER_S: f64 = 65.0;
const FANOUT_CYCLES_PER_S: f64 = 22.0;

/// The initial tables are the same for every `--seed`; the seed varies the
/// op stream. Which groups straddle a fragment boundary is a property of
/// the loaded data, and moving it moved `query_ms_p50` by more than its
/// bound from one seed to the next.
const TABLE_SEED: u64 = 7;

fn synthetic_table(name: &str, rows: usize, groups: i64, table_no: u64) -> TableData {
    let cfg = SyntheticConfig {
        name: name.to_string(),
        rows,
        groups,
        seed: TABLE_SEED + table_no,
        ..Default::default()
    };
    TableData {
        name: cfg.name.clone(),
        schema: synthetic::schema(&cfg),
        rows: synthetic::generate_rows(&cfg),
        chunk_capacity: cfg.chunk_capacity,
    }
}

/// The paper's headline case (§8.1, 1U5Q): `edb1` 200 k rows clustered on
/// `a`, one `Q_endtoend` template with four HAVING windows, 20-row INSERTs.
/// Scan + USE rewrite do most of the work, maintenance almost none.
fn agg_read_heavy(seed: u64, cycles: usize) -> Workload {
    const ROWS: usize = 200_000;
    const GROUPS: i64 = 1_000;
    let stream = mixed_workload(1, 5, cycles * 6, 20, GROUPS, ROWS, seed);
    Workload {
        name: "agg-read-heavy",
        tables: vec![synthetic_table("edb1", ROWS, GROUPS, 0)],
        ops: stream.ops,
        sched_workers: 0,
        price_tracing: false,
    }
}

/// 3U1Q over a 2-input join + aggregation and a top-k template: Δ ≈ 600
/// rows per maintain, a quarter of the updates are retractions. Delta
/// annotation/normalization, the binary join and its side index, aggregate
/// and top-k state see their largest batches here. (Measured, README "First
/// answers": the scan of unclustered appended rows and the DELETE scans
/// still outweigh them.)
fn join_write_heavy(seed: u64, cycles: usize) -> Workload {
    const ROWS: usize = 50_000;
    const GROUPS: i64 = 1_000;
    /// Rows per INSERT, and ids per DELETE window.
    const DELTA: usize = 200;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6a6f_696e);
    let mut helper_db = Database::new();
    synthetic::load_join_helper(&mut helper_db, "h", GROUPS, 50, 2, TABLE_SEED)
        .expect("fresh database has no table h");
    let helper = helper_db.table("h").expect("just loaded");
    let templates = [
        queries::q_join("edb1", "h", 800, 300),
        queries::q_topk("edb1", 10),
    ];
    // Enough inserts for a stream of only inserts; the rest go unused.
    let mut inserts = insert_stream("edb1", cycles * 3, DELTA, GROUPS, ROWS, seed).into_iter();
    let mut next_id = ROWS;
    let mut ops = Vec::with_capacity(cycles * 4);
    for cycle in 0..cycles {
        for u in 0..3 {
            // Every fourth update retracts a random id window. A fixed
            // cadence, because one DELETE costs as much as fifty INSERTs:
            // drawing the share at random moved `ops_per_s` by its count.
            if (cycle * 3 + u) % 4 == 3 {
                let start = rng.gen_range(0..next_id - DELTA);
                ops.push(WorkloadOp::Update {
                    sql: format!(
                        "DELETE FROM edb1 WHERE id >= {start} AND id < {}",
                        start + DELTA
                    ),
                    rows: DELTA,
                });
            } else {
                ops.push(inserts.next().expect("sized for insert-only"));
                next_id += DELTA;
            }
        }
        // Four join queries per top-k query (a third the cost): median and
        // p95 then both lie inside the join queries' latencies. With an even
        // mix the median sat in the gap between the two templates' costs and
        // moved by more than its bound from run to run.
        ops.push(WorkloadOp::Query(
            templates[usize::from(cycle % 5 == 4)].clone(),
        ));
    }
    Workload {
        name: "join-write-heavy",
        tables: vec![
            synthetic_table("edb1", ROWS, GROUPS, 0),
            TableData {
                name: "h".into(),
                schema: helper.schema().clone(),
                rows: helper.rows(),
                chunk_capacity: imp_storage::table::DEFAULT_CHUNK_CAPACITY,
            },
        ],
        ops,
        sched_workers: 0,
        price_tracing: false,
    }
}

const CHAIN_KEYS: i64 = 20_000;
/// Churn rows carry `CHAIN_MARKER + cycle` in their value column, so a
/// slab is retracted by value and can never touch a seed row.
const CHAIN_MARKER: i64 = 9_000_000;

/// `fig_deep`'s 4-table chain compiled to the n-ary join circuit, under
/// single-row churn: tiny deltas on the row path, Δ⋈Δ cancellations, n-ary
/// probes and per-statement cost (parse/resolve, template lookup,
/// middleware bookkeeping). (Measured, README "First answers": the engine's
/// DELETE full scans are the largest share of the cycle.)
fn chain_churn(seed: u64, cycles: usize) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6368_6169);
    let tables = [
        ("d0", "k0", "v0"),
        ("d1", "k1a", "k1b"),
        ("d2", "k2a", "k2b"),
        ("d3", "k3", "v3"),
    ]
    .map(|(name, c1, c2)| TableData {
        name: name.into(),
        schema: Schema::new(vec![
            Field::new(c1, DataType::Int),
            Field::new(c2, DataType::Int),
        ]),
        rows: (0..CHAIN_KEYS).map(|k| row![k, k]).collect(),
        chunk_capacity: imp_storage::table::DEFAULT_CHUNK_CAPACITY,
    });
    let query = format!(
        "SELECT v0, v3 FROM d0 JOIN d1 ON (k0 = k1a) JOIN d2 ON (k1b = k2a) \
         JOIN d3 ON (k2b = k3) WHERE v3 < {}",
        CHAIN_KEYS / 20
    );
    let mut ops = Vec::with_capacity(cycles * 13);
    let mut retract: Vec<String> = Vec::new();
    for cycle in 0..cycles {
        ops.extend(
            retract
                .drain(..)
                .map(|sql| WorkloadOp::Update { sql, rows: 2 }),
        );
        let mark = CHAIN_MARKER + cycle as i64;
        // Two single-row inserts per table on eight consecutive keys. Half
        // the cycles land inside the query's selective region (keys below
        // CHAIN_KEYS / 20), so the sketch keeps changing.
        let region = if cycle % 2 == 0 {
            CHAIN_KEYS / 20
        } else {
            CHAIN_KEYS
        };
        let base = rng.gen_range(0..region - 10);
        for key in base..base + 8 {
            let sql = match key % 4 {
                0 => format!("INSERT INTO d0 VALUES ({key}, {mark})"),
                // Join-side churn: (k, k + off) is never a seed row (k, k).
                1 => format!("INSERT INTO d1 VALUES ({key}, {})", key + 1),
                2 => format!("INSERT INTO d2 VALUES ({key}, {})", key + 2),
                _ => format!("INSERT INTO d3 VALUES ({key}, {mark})"),
            };
            ops.push(WorkloadOp::Update { sql, rows: 1 });
        }
        // One DELETE per table retracts the slab in the next cycle.
        let last = base + 7;
        retract.extend([
            format!("DELETE FROM d0 WHERE v0 = {mark}"),
            format!("DELETE FROM d1 WHERE k1a >= {base} AND k1a <= {last} AND k1b > k1a"),
            format!("DELETE FROM d2 WHERE k2a >= {base} AND k2a <= {last} AND k2b > k2a"),
            format!("DELETE FROM d3 WHERE v3 = {mark}"),
        ]);
        ops.push(WorkloadOp::Query(query.clone()));
    }
    Workload {
        name: "chain-churn",
        tables: tables.into(),
        ops,
        sched_workers: 0,
        price_tracing: true,
    }
}

/// `fig_sched`'s 6 tables × 2 templates behind a 1-worker shard pool:
/// the only workload where `imp_core::sched` is on the path and
/// maintenance runs beside reads instead of inside them.
fn sharded_fanout(seed: u64, cycles: usize) -> Workload {
    const TABLES: usize = 6;
    const ROWS: usize = 30_000;
    const GROUPS: i64 = 2_000;
    const DELTA: usize = 200;
    let names: Vec<String> = (0..TABLES).map(|i| format!("s{i}")).collect();
    let mut inserts: Vec<_> = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            insert_stream(name, cycles, DELTA, GROUPS, ROWS, seed * 16 + i as u64).into_iter()
        })
        .collect();
    let mut ops = Vec::with_capacity(cycles * (TABLES + 2));
    let mut query_no = 0usize;
    for _ in 0..cycles {
        for stream in &mut inserts {
            ops.push(stream.next().expect("one insert per table per cycle"));
        }
        for _ in 0..2 {
            let table = &names[query_no % TABLES];
            // Two passes of `Q_groups` over the tables per pass of
            // `Q_having`: an uneven mix keeps the median inside one
            // template's cost, not between the two.
            ops.push(WorkloadOp::Query(if (query_no / TABLES) % 3 < 2 {
                queries::q_groups(table, 600)
            } else {
                queries::q_having(table, 3)
            }));
            query_no += 1;
        }
    }
    Workload {
        name: "sharded-fanout",
        tables: names
            .iter()
            .enumerate()
            .map(|(i, name)| synthetic_table(name, ROWS, GROUPS, i as u64))
            .collect(),
        ops,
        sched_workers: 1,
        price_tracing: false,
    }
}
