//! Integration tests of the `imp_core::advisor` lifecycle autopilot: the
//! demotion ladder, budget enforcement, promotion (byte-identical to an
//! always-maintained sketch), and the single-template eviction API.

use imp_core::advisor::Lifecycle;
use imp_core::middleware::{Imp, ImpConfig, ImpResponse};
use imp_engine::Database;
use imp_sql::{QueryTemplate, Statement};
use imp_storage::{row, DataType, Field, Schema};

const GROUPS: i64 = 8;
const ROWS_PER_GROUP: usize = 50;

/// One table whose group 0 dominates the sums: `HAVING sum(v) > 1000`
/// marks a single fragment (a selective sketch with a large skip
/// estimate), while `HAVING sum(v) > 0` marks all of them (zero skip
/// benefit).
fn add_table(db: &mut Database, name: &str) {
    db.create_table(
        name,
        Schema::new(vec![
            Field::new("g", DataType::Int),
            Field::new("v", DataType::Int),
        ]),
    )
    .unwrap();
    let rows = (0..GROUPS).flat_map(|g| {
        (0..ROWS_PER_GROUP).map(move |_| if g == 0 { row![g, 100] } else { row![g, 1] })
    });
    db.table_mut(name).unwrap().bulk_load(rows).unwrap();
}

fn db_with(tables: &[&str]) -> Database {
    let mut db = Database::new();
    for t in tables {
        add_table(&mut db, t);
    }
    db
}

fn config(budget: Option<usize>, workers: usize) -> ImpConfig {
    ImpConfig {
        fragments: GROUPS as usize,
        sketch_memory_budget: budget,
        sched_workers: workers,
        ..ImpConfig::default()
    }
}

fn selective(table: &str) -> String {
    format!("SELECT g, sum(v) AS s FROM {table} GROUP BY g HAVING sum(v) > 1000")
}

fn unselective(table: &str) -> String {
    format!("SELECT g, sum(v) AS s FROM {table} GROUP BY g HAVING sum(v) > 0")
}

fn template_of(sql: &str) -> QueryTemplate {
    let Statement::Select(sel) = imp_sql::parse_one(sql).unwrap() else {
        panic!("not a select: {sql}")
    };
    QueryTemplate::of(&sel)
}

fn lifecycle_of(imp: &Imp, sql: &str) -> Option<Lifecycle> {
    imp.describe_sketches()
        .into_iter()
        .find(|s| s.sql == sql)
        .map(|s| s.lifecycle)
}

fn run(imp: &mut Imp, sql: &str) -> Vec<(imp_storage::Row, i64)> {
    let ImpResponse::Rows { result, .. } = imp.execute(sql).unwrap() else {
        panic!("expected rows for {sql}")
    };
    result.canonical()
}

#[test]
fn zero_benefit_sketch_descends_the_ladder_one_rung_per_pass() {
    let mut imp = Imp::new(
        db_with(&["hot_t", "cold_t"]),
        config(Some(usize::MAX / 2), 0),
    );
    let hot = selective("hot_t");
    let cold = unselective("cold_t");
    imp.execute(&hot).unwrap();
    imp.execute(&cold).unwrap();
    assert_eq!(lifecycle_of(&imp, &cold), Some(Lifecycle::Maintained));

    // Pass 1: the cold sketch (zero skip benefit, positive heap cost)
    // loses even with an unlimited budget — one rung down.
    imp.execute(&hot).unwrap();
    let r1 = imp.advise().unwrap();
    assert_eq!(r1.outcome.demoted_lazy, 1, "{r1:?}");
    assert_eq!(lifecycle_of(&imp, &cold), Some(Lifecycle::Lazy));
    assert_eq!(lifecycle_of(&imp, &hot), Some(Lifecycle::Maintained));

    // Pass 2: next rung — state evicted to its serialized form.
    let before = imp
        .describe_sketches()
        .into_iter()
        .find(|s| s.sql == cold)
        .unwrap()
        .state_bytes;
    imp.execute(&hot).unwrap();
    let r2 = imp.advise().unwrap();
    assert_eq!(r2.outcome.evicted, 1, "{r2:?}");
    let after = imp
        .describe_sketches()
        .into_iter()
        .find(|s| s.sql == cold)
        .unwrap();
    assert_eq!(after.lifecycle, Lifecycle::Evicted);
    assert!(after.state_bytes < before);
    assert_eq!(after.retained_versions, 0, "versions released on eviction");

    // Pass 3: off the ladder entirely.
    imp.execute(&hot).unwrap();
    let r3 = imp.advise().unwrap();
    assert_eq!(r3.outcome.dropped, 1, "{r3:?}");
    assert_eq!(lifecycle_of(&imp, &cold), None);
    assert_eq!(imp.sketch_count(), 1);
    assert_eq!(lifecycle_of(&imp, &hot), Some(Lifecycle::Maintained));
    // The dropped sketch's tracker entry goes with it — the tracker is
    // bounded by the live store, not by every template ever captured.
    assert_eq!(imp.advisor().tracker().len(), 1);

    // The dropped template recaptures on its next query — correct
    // answers, re-entering the ladder at Maintained.
    let answers = run(&mut imp, &cold);
    assert_eq!(answers.len(), GROUPS as usize);
    assert_eq!(lifecycle_of(&imp, &cold), Some(Lifecycle::Maintained));
}

#[test]
fn budget_is_enforced_after_every_pass_on_both_backends() {
    // Probe: heap of a single stored sketch for this workload.
    let one = {
        let mut probe = Imp::new(db_with(&["ta"]), config(None, 0));
        probe.execute(&selective("ta")).unwrap();
        probe.store_heap_size()
    };
    let budget = one + one / 2; // room for ~1 sketch, never 3

    for workers in [0usize, 2] {
        let mut imp = Imp::new(db_with(&["ta", "tb", "tc"]), config(Some(budget), workers));
        for t in ["ta", "tb", "tc"] {
            imp.execute(&selective(t)).unwrap();
        }
        assert!(imp.store_heap_size() > budget, "workload must overflow");
        for round in 0..4 {
            // Favor ta so the keep-set is stable and non-empty.
            imp.execute(&selective("ta")).unwrap();
            for t in ["ta", "tb", "tc"] {
                imp.execute(&format!("INSERT INTO {t} VALUES (3, {round})"))
                    .unwrap();
            }
            let report = imp.advise().unwrap();
            let heap = imp.store_heap_size();
            assert!(
                heap <= budget,
                "workers {workers} round {round}: heap {heap} > budget {budget} ({report:?})"
            );
            assert!(report.outcome.any_demotion() || report.rounds <= 1);
            // Demoted-or-dropped sketches still answer correctly.
            let a = run(&mut imp, &selective("tb"));
            assert!(!a.is_empty());
        }
    }
}

#[test]
fn promotion_lands_byte_identical_to_always_maintained() {
    let one = {
        let mut probe = Imp::new(db_with(&["ta"]), config(None, 0));
        probe.execute(&selective("ta")).unwrap();
        probe.store_heap_size()
    };
    let budget = one + one / 2;

    let qa = selective("ta");
    let qb = selective("tb");
    let mut advised = Imp::new(db_with(&["ta", "tb"]), config(Some(budget), 0));
    let mut reference = Imp::new(db_with(&["ta", "tb"]), config(None, 0));
    for imp in [&mut advised, &mut reference] {
        imp.execute(&qa).unwrap();
        imp.execute(&qb).unwrap();
    }

    // Heat A for one pass: B is squeezed out (and down) by the budget.
    // One pass only — each further pass walks a loser one more rung, and
    // a dropped B would recapture rather than promote.
    for _ in 0..3 {
        advised.execute(&qa).unwrap();
    }
    for imp in [&mut advised, &mut reference] {
        imp.execute("INSERT INTO tb VALUES (5, 1)").unwrap();
        imp.execute("INSERT INTO ta VALUES (6, 1)").unwrap();
    }
    advised.advise().unwrap();
    reference.maintain_all_stale().unwrap();
    let b_state = lifecycle_of(&advised, &qb).expect("B still stored");
    assert_ne!(b_state, Lifecycle::Maintained, "B must be demoted");

    // Flip the workload: B becomes hot, A cools off.
    let mut promoted = false;
    for round in 0..4 {
        for _ in 0..5 {
            let x = run(&mut advised, &qb);
            let y = run(&mut reference, &qb);
            assert_eq!(x, y, "demoted B answered differently");
        }
        for imp in [&mut advised, &mut reference] {
            imp.execute(&format!("INSERT INTO tb VALUES (7, {round})"))
                .unwrap();
        }
        let report = advised.advise().unwrap();
        reference.maintain_all_stale().unwrap();
        promoted |= report.outcome.promoted > 0;
        if lifecycle_of(&advised, &qb) == Some(Lifecycle::Maintained) {
            break;
        }
    }
    assert!(promoted, "B was never promoted back");
    assert_eq!(lifecycle_of(&advised, &qb), Some(Lifecycle::Maintained));

    // Byte-identical promotion: B's bits and maintained version equal the
    // always-maintained reference's.
    reference.maintain_all_stale().unwrap();
    let find = |imp: &Imp| {
        imp.sketch_states()
            .into_iter()
            .find(|s| s.sql == qb)
            .expect("B state present")
    };
    assert_eq!(find(&advised), find(&reference));
}

#[test]
fn evict_state_targets_one_template_only() {
    for workers in [0usize, 2] {
        let mut imp = Imp::new(db_with(&["ta", "tb"]), config(None, workers));
        imp.execute(&selective("ta")).unwrap();
        imp.execute(&selective("tb")).unwrap();
        let heap_of = |imp: &Imp, sql: &str| {
            imp.describe_sketches()
                .into_iter()
                .find(|s| s.sql == sql)
                .unwrap()
                .state_bytes
        };
        let a_before = heap_of(&imp, &selective("ta"));
        let b_before = heap_of(&imp, &selective("tb"));
        let freed = imp.evict_state(&template_of(&selective("ta"))).unwrap();
        assert!(freed > 0, "workers {workers}: nothing freed");
        assert!(heap_of(&imp, &selective("ta")) < a_before);
        assert_eq!(heap_of(&imp, &selective("tb")), b_before);
        // Re-evicting an evicted template frees nothing more.
        assert_eq!(imp.evict_state(&template_of(&selective("ta"))).unwrap(), 0);
        // Unknown templates are a no-op.
        let other = template_of("SELECT g, sum(v) AS s FROM ta GROUP BY g");
        assert_eq!(imp.evict_state(&other).unwrap(), 0);
        // The evicted sketch still answers (restore on demand).
        imp.execute("INSERT INTO ta VALUES (2, 9)").unwrap();
        let rows = run(&mut imp, &selective("ta"));
        assert!(!rows.is_empty());
    }
}

#[test]
fn tracker_records_uses_and_maintenance() {
    let mut imp = Imp::new(db_with(&["ta"]), config(None, 0));
    let q = selective("ta");
    imp.execute(&q).unwrap();
    imp.execute(&q).unwrap();
    imp.execute("INSERT INTO ta VALUES (1, 5)").unwrap();
    imp.execute(&q).unwrap();
    let snapshot = imp.advisor().tracker().snapshot();
    assert_eq!(snapshot.len(), 1);
    let (key, stats) = &snapshot[0];
    assert_eq!(key.sql, q);
    assert_eq!(stats.captures, 1);
    assert_eq!(stats.fresh_uses, 1);
    assert_eq!(stats.maintained_uses, 1);
    assert_eq!(stats.maint_runs, 1);
    assert!(stats.maint_delta_rows >= 1);
    assert!(stats.rows_skipped_est > 0, "selective sketch must skip");
    assert!(stats.hot_rows_skipped > 0.0);
}

#[test]
fn advise_without_budget_is_a_no_op() {
    let mut imp = Imp::new(db_with(&["ta"]), config(None, 0));
    imp.execute(&unselective("ta")).unwrap();
    let report = imp.advise().unwrap();
    assert_eq!(report.rounds, 0);
    assert!(!report.outcome.any_demotion());
    assert_eq!(
        lifecycle_of(&imp, &unselective("ta")),
        Some(Lifecycle::Maintained)
    );
}

/// What one pass of the promotion script leaves behind: the pass's
/// report and every stored sketch's lifecycle, sorted by SQL.
type Pass = (imp_core::advisor::AdvisorReport, Vec<(String, Lifecycle)>);

fn lifecycles(imp: &Imp) -> Vec<(String, Lifecycle)> {
    let mut out: Vec<_> = imp
        .describe_sketches()
        .into_iter()
        .map(|s| (s.sql, s.lifecycle))
        .collect();
    out.sort();
    out
}

/// The promotion scenario above as a fixed script, run on a fresh `Imp`:
/// heat A until the budget squeezes B out, then make B hot for four
/// passes. With `settle`, every pass is preceded by `maintain_all_stale()`
/// so the workers' pending maintenance is done before the advisor scores
/// it.
fn promotion_script(workers: usize, settle: bool) -> (Vec<Pass>, Imp) {
    let one = {
        let mut probe = Imp::new(db_with(&["ta"]), config(None, 0));
        probe.execute(&selective("ta")).unwrap();
        probe.store_heap_size()
    };
    let (qa, qb) = (selective("ta"), selective("tb"));
    let mut imp = Imp::new(db_with(&["ta", "tb"]), config(Some(one + one / 2), workers));
    let mut passes = Vec::new();
    let mut advise = |imp: &mut Imp| {
        if settle {
            imp.maintain_all_stale().unwrap();
        }
        let report = imp.advise().unwrap();
        passes.push((report, lifecycles(imp)));
    };
    imp.execute(&qa).unwrap();
    imp.execute(&qb).unwrap();
    for _ in 0..3 {
        imp.execute(&qa).unwrap();
    }
    imp.execute("INSERT INTO tb VALUES (5, 1)").unwrap();
    imp.execute("INSERT INTO ta VALUES (6, 1)").unwrap();
    advise(&mut imp);
    for round in 0..4 {
        for _ in 0..5 {
            run(&mut imp, &qb);
        }
        imp.execute(&format!("INSERT INTO tb VALUES (7, {round})"))
            .unwrap();
        advise(&mut imp);
    }
    (passes, imp)
}

#[test]
fn advisor_decisions_repeat_exactly_across_runs_and_worker_counts() {
    // The advisor decides from counts only, so the same script yields the
    // same reports, lifecycles and tracker stats on every run.
    let (first, a) = promotion_script(0, false);
    let (second, b) = promotion_script(0, false);
    assert_eq!(first, second, "advisor reports differ between runs");
    assert_eq!(
        a.advisor().tracker().snapshot(),
        b.advisor().tracker().snapshot()
    );
    assert!(
        first.iter().any(|(r, _)| r.outcome.promoted > 0),
        "the script must exercise a promotion: {first:?}"
    );

    // A two-worker store settled before each pass takes the same
    // lifecycle decisions as the zero-worker store.
    let (inline, _) = promotion_script(0, true);
    let (pooled, _) = promotion_script(2, true);
    assert_eq!(inline.len(), pooled.len());
    for (pass, ((_, want), (_, got))) in inline.iter().zip(&pooled).enumerate() {
        assert_eq!(want, got, "pass {pass}: lifecycles differ with two workers");
    }
}
