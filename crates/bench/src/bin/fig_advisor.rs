//! Advisor experiment (`imp_core::advisor`): budgeted sketch selection
//! vs. keeping (and maintaining) everything.
//!
//! Six synthetic tables each capture one selective sketch template; only
//! two of them stay *hot* (re-queried every round) while every table
//! keeps receiving inserts. Three stores run the identical stream:
//!
//! * **all** — keep-everything baseline (no budget, every sketch
//!   maintained forever);
//! * **adv** — in-line store with `sketch_memory_budget` set to a
//!   fraction of the keep-everything heap;
//! * **advP** — the same budget on a 2-worker sharded store (the
//!   autopilot's gather/apply steps travel as sched control barriers).
//!
//! Reported per round: store heap (all vs. budgeted), the advised keep-set
//! size, cumulative lifecycle transitions, and the budgeted stores' USE
//! hit modes. A cold template is re-heated near the end to show the
//! promotion path. The harness **panics** when the budgeted advisor never
//! demotes anything, when a budgeted store's heap exceeds the budget
//! after a pass, or when any advised store's query answers diverge from
//! the keep-everything store (advisor decisions may change cost, never
//! answers).

use imp_bench::*;
use imp_core::advisor::Lifecycle;
use imp_core::middleware::{Imp, ImpConfig, ImpResponse, QueryMode};
use imp_data::queries;
use imp_data::synthetic::{load, SyntheticConfig};
use imp_data::workload::{insert_stream, WorkloadOp};
use imp_engine::Database;

const TABLES: usize = 6;
const HOT: usize = 2;
const ROUNDS: usize = 6;
const GROUPS: i64 = 200;

fn table_names() -> Vec<String> {
    (0..TABLES).map(|i| format!("s{i}")).collect()
}

/// One selective template per table: `HAVING avg(c) < 60` keeps roughly a
/// quarter of the group domain (c ≈ 1.2·a), so the sketch skips ~3/4 of
/// the table — a real benefit signal for the cost model.
fn query_for(table: &str) -> String {
    queries::q_groups(table, 60)
}

fn build_imp(budget: Option<usize>, workers: usize, rows: usize) -> Imp {
    let mut db = Database::new();
    for name in table_names() {
        load(
            &mut db,
            &SyntheticConfig {
                name,
                rows,
                groups: GROUPS,
                ..Default::default()
            },
        )
        .unwrap();
    }
    Imp::new(
        db,
        ImpConfig {
            fragments: 50,
            sketch_memory_budget: budget,
            sched_workers: workers,
            ..Default::default()
        },
    )
}

/// USE hit-mode counters of one store's query stream.
#[derive(Default)]
struct Hits {
    captured: usize,
    fresh: usize,
    maintained: usize,
}

impl Hits {
    fn run(&mut self, imp: &mut Imp, sql: &str) -> Vec<(imp_storage::Row, i64)> {
        let ImpResponse::Rows { result, mode } = imp.execute(sql).unwrap() else {
            panic!("expected rows for {sql}")
        };
        match mode {
            QueryMode::Captured => self.captured += 1,
            QueryMode::UsedFresh => self.fresh += 1,
            QueryMode::Maintained(_) => self.maintained += 1,
            QueryMode::NoSketch => panic!("workload queries must be sketchable"),
        }
        result.canonical()
    }

    fn label(&self) -> String {
        format!(
            "{} captured / {} fresh / {} maintained",
            self.captured, self.fresh, self.maintained
        )
    }
}

fn lifecycle_counts(imp: &Imp) -> (usize, usize, usize) {
    let mut counts = (0usize, 0usize, 0usize);
    for s in imp.describe_sketches() {
        match s.lifecycle {
            Lifecycle::Maintained => counts.0 += 1,
            Lifecycle::Lazy => counts.1 += 1,
            Lifecycle::Evicted => counts.2 += 1,
        }
    }
    counts
}

fn main() {
    let rows = scaled(20_000, 400);
    let delta = scaled(1_000, 20);

    // Keep-everything heap for this workload → the budget baseline.
    let keep_heap = {
        let mut probe = build_imp(None, 0, rows);
        for name in table_names() {
            probe.execute(&query_for(&name)).unwrap();
        }
        probe.store_heap_size()
    };
    let budget = keep_heap * 35 / 100;

    let mut all = build_imp(None, 0, rows);
    let mut adv = build_imp(Some(budget), 0, rows);
    let mut advp = build_imp(Some(budget), 2, rows);
    let (mut h_all, mut h_adv, mut h_advp) = (Hits::default(), Hits::default(), Hits::default());
    for name in table_names() {
        let q = query_for(&name);
        let a = h_all.run(&mut all, &q);
        let b = h_adv.run(&mut adv, &q);
        let c = h_advp.run(&mut advp, &q);
        assert_eq!(a, b, "capture diverged (inline) for {q}");
        assert_eq!(a, c, "capture diverged (sharded) for {q}");
    }

    // The identical per-round insert stream for every store.
    let updates: Vec<Vec<String>> = (0..ROUNDS)
        .map(|round| {
            table_names()
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    let ops = insert_stream(name, ROUNDS, delta, GROUPS, rows * 4, 11 + i as u64);
                    let WorkloadOp::Update { sql, .. } = ops[round].clone() else {
                        unreachable!()
                    };
                    sql
                })
                .collect()
        })
        .collect();

    let mut report = BenchReport::new("fig_advisor");
    let mut table_rows = Vec::new();
    let mut demotions = 0usize;
    let mut promotions = 0usize;
    for (round, batch) in updates.iter().enumerate() {
        for sql in batch {
            all.execute(sql).unwrap();
            adv.execute(sql).unwrap();
            advp.execute(sql).unwrap();
        }
        // Hot templates every round; in the final rounds the workload
        // shifts entirely onto a previously cold template — the
        // promotion path (the old hot set cools off and is displaced).
        let queried: Vec<String> = if round >= ROUNDS - 2 {
            vec![query_for(&format!("s{}", TABLES - 1)); 2]
        } else {
            (0..HOT).map(|i| query_for(&format!("s{i}"))).collect()
        };
        for q in &queried {
            for _ in 0..2 {
                let a = h_all.run(&mut all, q);
                let b = h_adv.run(&mut adv, q);
                let c = h_advp.run(&mut advp, q);
                assert_eq!(
                    a, b,
                    "inline advised store diverged at round {round} for {q}"
                );
                assert_eq!(
                    a, c,
                    "sharded advised store diverged at round {round} for {q}"
                );
            }
        }

        all.maintain_all_stale().unwrap();
        adv.maintain_all_stale().unwrap();
        advp.maintain_all_stale().unwrap();
        let ra = adv.advise().unwrap();
        let rp = advp.advise().unwrap();
        demotions += ra.outcome.demoted_lazy + ra.outcome.evicted + ra.outcome.dropped;
        demotions += rp.outcome.demoted_lazy + rp.outcome.evicted + rp.outcome.dropped;
        promotions += ra.outcome.promoted + rp.outcome.promoted;
        let (heap_all, heap_adv, heap_advp) = (
            all.store_heap_size(),
            adv.store_heap_size(),
            advp.store_heap_size(),
        );
        assert!(
            heap_adv <= budget,
            "inline advised heap {heap_adv} > budget {budget} after round {round} ({ra:?})"
        );
        assert!(
            heap_advp <= budget,
            "sharded advised heap {heap_advp} > budget {budget} after round {round} ({rp:?})"
        );
        let (m, l, e) = lifecycle_counts(&adv);
        report.add(
            Record::new("advisor", format!("round{round}"))
                .heap("heap_all", heap_all as u64)
                .heap("heap_adv", heap_adv as u64)
                .heap("heap_advp", heap_advp as u64)
                .count("kept", ra.kept as u64, false)
                .count("maintained", m as u64, false)
                .count("lazy", l as u64, false)
                .count("evicted", e as u64, false),
        );
        table_rows.push(vec![
            round.to_string(),
            bytes_h(heap_all as u64),
            bytes_h(heap_adv as u64),
            bytes_h(heap_advp as u64),
            ra.kept.to_string(),
            format!("{m}/{l}/{e}"),
            adv.sketch_count().to_string(),
            ra.outcome.dropped.to_string(),
            ra.outcome.promoted.to_string(),
        ]);
    }

    print_table(
        &format!(
            "advisor: {TABLES} tables ({HOT} hot), {ROUNDS} rounds x {delta} rows/table, \
             budget {} = 35% of keep-everything {}",
            bytes_h(budget as u64),
            bytes_h(keep_heap as u64)
        ),
        &[
            "round",
            "heap all",
            "heap adv",
            "heap advP",
            "kept",
            "m/l/e",
            "stored",
            "dropped",
            "promoted",
        ],
        &table_rows,
    );

    // Sketch selectivity behind the skip estimates: the marked fraction
    // of each template's fragment space on the keep-everything store.
    let selectivities: Vec<f64> = table_names()
        .iter()
        .filter_map(|name| {
            let imp_sql::Statement::Select(sel) = imp_sql::parse_one(&query_for(name)).ok()? else {
                return None;
            };
            all.with_sketch(&imp_sql::QueryTemplate::of(&sel), |entry| {
                entry.maintainer.sketch().selectivity()
            })
        })
        .collect();
    let mean_sel = selectivities.iter().sum::<f64>() / selectivities.len().max(1) as f64;
    println!(
        "\nmean sketch selectivity {:.0}% (marked fragment fraction; skip estimate ≈ 1 − this)",
        mean_sel * 100.0
    );
    assert!(
        mean_sel < 0.9,
        "workload templates must be selective for the benefit signal to mean anything"
    );

    println!("\nhit modes  all:  {}", h_all.label());
    println!("hit modes  adv:  {}", h_adv.label());
    println!("hit modes  advP: {}", h_advp.label());

    assert!(
        demotions > 0,
        "budgeted advisor never demoted anything (budget {budget}, keep-everything {keep_heap})"
    );
    println!(
        "\n{demotions} demotions, {promotions} promotions; all advised answers identical to the \
         keep-everything store ✓"
    );
    report.add(
        Record::new("advisor", "totals".to_string())
            .count("demotions", demotions as u64, false)
            .count("promotions", promotions as u64, false)
            .ratio("mean_selectivity", mean_sel),
    );
    report.finish();
}
