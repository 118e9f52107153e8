//! Integration tests of the sketch store and its maintenance scheduler
//! (`imp_core::sched`): lifecycle through the middleware, a parked
//! backlog folding into one run per sketch, snapshot publication,
//! pool-backed background maintenance, a stale query that maintains its
//! own sketch while the workers are parked, maintenance ticks that never
//! block on parked workers, and the zero-worker store that notes
//! nothing.

use imp_core::middleware::{Imp, ImpConfig, ImpResponse, QueryMode};
use imp_engine::Database;
use imp_sql::{QueryTemplate, Statement};
use imp_storage::{row, DataType, Field, Schema};
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};

const Q: &str = "SELECT g, sum(v) AS s FROM t GROUP BY g HAVING sum(v) > 100";

fn seed_db() -> Database {
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
        .bulk_load((0..60).map(|i| row![i % 6, i]))
        .unwrap();
    db
}

fn sharded_config(workers: usize) -> ImpConfig {
    ImpConfig {
        fragments: 6,
        sched_workers: workers,
        ..ImpConfig::default()
    }
}

#[test]
fn sharded_lifecycle_capture_use_maintain() {
    let mut imp = Imp::new(seed_db(), sharded_config(2));
    let ImpResponse::Rows { mode, .. } = imp.execute(Q).unwrap() else {
        panic!()
    };
    assert!(matches!(mode, QueryMode::Captured));
    assert_eq!(imp.sketch_count(), 1);

    // Fresh reuse straight from the published snapshot.
    let ImpResponse::Rows { mode, result } = imp.execute(Q).unwrap() else {
        panic!()
    };
    assert!(matches!(mode, QueryMode::UsedFresh));
    let expected = imp.db().query(Q).unwrap().canonical();
    assert_eq!(result.canonical(), expected);

    // An update nudges a worker; after a drain the snapshot is fresh
    // again and the query must not need maintenance.
    imp.execute("INSERT INTO t VALUES (3, 500)").unwrap();
    imp.scheduler().unwrap().drain();
    let ImpResponse::Rows { mode, result } = imp.execute(Q).unwrap() else {
        panic!()
    };
    assert!(
        matches!(mode, QueryMode::UsedFresh),
        "drained snapshot must serve the query without maintenance, got {mode:?}"
    );
    let expected = imp.db().query(Q).unwrap().canonical();
    assert_eq!(result.canonical(), expected);

    // Without a drain the query still answers correctly (either the
    // worker won the race or the select synchronizes with it).
    imp.execute("INSERT INTO t VALUES (4, 500)").unwrap();
    let ImpResponse::Rows { result, .. } = imp.execute(Q).unwrap() else {
        panic!()
    };
    let expected = imp.db().query(Q).unwrap().canonical();
    assert_eq!(result.canonical(), expected);
}

#[test]
fn paused_shards_coalesce_same_table_batches() {
    // With the workers paused, the four inserts only wait; once they
    // resume, one run of the one sketch covers all four.
    let mut imp = Imp::new(seed_db(), sharded_config(2));
    imp.execute(Q).unwrap(); // capture

    let epoch_before = imp.scheduler().unwrap().snapshot_epoch();
    let paused = imp.scheduler().unwrap().pause();
    for i in 0..4 {
        imp.execute(&format!("INSERT INTO t VALUES (2, {})", 50 + i))
            .unwrap();
    }
    // All four updates wait for a sweep.
    let stats = imp.scheduler().unwrap().stats();
    assert_eq!(stats.staged_updates, 4);
    assert!(
        stats.per_shard[0].depth >= 4,
        "the pending depth must reflect the parked updates: {stats:?}"
    );
    paused.resume();
    imp.scheduler().unwrap().drain();

    let stats = imp.scheduler().unwrap().stats();
    assert_eq!(
        stats.maintain_runs, 1,
        "4 parked same-table updates must fold into one run, got {stats:?}"
    );
    assert!(imp.scheduler().unwrap().snapshot_epoch() > epoch_before);

    // The folded run converged to the ground truth.
    let truth = Imp::new(
        seed_db(),
        ImpConfig {
            fragments: 6,
            ..ImpConfig::default()
        },
    );
    let mut truth = truth;
    truth.execute(Q).unwrap();
    for i in 0..4 {
        truth
            .execute(&format!("INSERT INTO t VALUES (2, {})", 50 + i))
            .unwrap();
    }
    truth.maintain_all_stale().unwrap();
    assert_eq!(imp.sketch_states(), truth.sketch_states());

    // No wake-up is lost: more updates than the 256 nudges a per-worker
    // queue once held are noted while the workers are parked, and only
    // `resume` follows — no drain, no tick. The workers alone bring the
    // sketch current, in one run.
    let runs = imp.scheduler().unwrap().stats().maintain_runs;
    let paused = imp.scheduler().unwrap().pause();
    let inserts: Vec<String> = (0..300)
        .map(|i| format!("INSERT INTO t VALUES ({}, {i})", i % 6))
        .collect();
    for sql in &inserts {
        imp.execute(sql).unwrap();
    }
    paused.resume();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let current = imp.db().version();
        let version = imp.with_sketch(&template_of(Q), |e| e.maintainer.version());
        if version == Some(current) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the resumed workers never swept the parked backlog"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = imp.scheduler().unwrap().stats();
    assert_eq!(stats.maintain_runs, runs + 1, "one run per stale sketch");
    for sql in &inserts {
        truth.execute(sql).unwrap();
    }
    truth.maintain_all_stale().unwrap();
    assert_eq!(imp.sketch_states(), truth.sketch_states());
}

#[test]
fn sharded_evict_restore_and_admin_ops() {
    let mut imp = Imp::new(seed_db(), sharded_config(3));
    imp.execute(Q).unwrap();
    imp.execute("INSERT INTO t VALUES (1, 40)").unwrap();
    let reports = imp.maintain_all_stale().unwrap();
    assert!(reports.len() <= 1); // a worker's sweep may already be done

    let freed = imp.evict_all_states().unwrap();
    assert!(freed > 0);
    // No sweep recaptures the evicted state: the next query does.
    imp.execute("INSERT INTO t VALUES (1, 41)").unwrap();
    imp.scheduler().unwrap().drain();
    let ImpResponse::Rows { result, .. } = imp.execute(Q).unwrap() else {
        panic!()
    };
    assert_eq!(result.canonical(), imp.db().query(Q).unwrap().canonical());

    assert_eq!(imp.repartition_all().unwrap(), 1);
    let summaries = imp.describe_sketches();
    assert_eq!(summaries.len(), 1);
    assert!(!summaries[0].stale);
    assert!(imp.store_heap_size() > 0);
    let (_, dropped) = imp.vacuum();
    // Everything maintained: the whole log can go.
    assert!(dropped > 0);
}

#[test]
fn dropping_imp_with_live_pause_guard_does_not_deadlock() {
    // The pool's Drop must unpark workers whose PausedShards guard is
    // still alive — otherwise the worker join hangs forever.
    let mut imp = Imp::new(seed_db(), sharded_config(2));
    imp.execute(Q).unwrap();
    imp.execute("INSERT INTO t VALUES (2, 60)").unwrap();
    let _guard = imp.scheduler().unwrap().pause();
    drop(imp);
}

#[test]
fn background_maintainer_converges_on_sharded_store() {
    use imp_core::strategy::BackgroundMaintainer;
    use parking_lot::Mutex;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let mut imp = Imp::new(seed_db(), sharded_config(2));
    imp.execute(Q).unwrap();
    let imp = Arc::new(Mutex::new(imp));
    let bg = BackgroundMaintainer::spawn(Arc::clone(&imp), Duration::from_millis(2));
    {
        let mut guard = imp.lock();
        guard.execute("INSERT INTO t VALUES (5, 999)").unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        {
            let guard = imp.lock();
            if guard.describe_sketches().iter().all(|s| !s.stale) {
                break;
            }
        }
        assert!(
            Instant::now() < deadline,
            "sharded background maintenance never converged"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    bg.stop();
    let guard = imp.lock();
    let states = guard.sketch_states();
    assert_eq!(states.len(), 1);
}

#[test]
fn publish_reuses_what_a_claim_did_not_touch() {
    // N sketches over N tables: a sweep that maintains one of
    // them republishes the other N−1 as the very same `Arc<SketchSet>`s —
    // publish clones bits only for what changed — and the board's epoch
    // still advances (readers see one consistent new snapshot).
    use std::sync::Arc;
    const TABLES: [&str; 4] = ["p0", "p1", "p2", "p3"];
    let mut db = Database::new();
    for name in TABLES {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Int),
            Field::new("v", DataType::Int),
        ]);
        db.create_table(name, schema).unwrap();
        let rows = (0..60).map(|i| row![i % 6, i]);
        db.table_mut(name).unwrap().bulk_load(rows).unwrap();
    }
    let mut imp = Imp::new(db, sharded_config(1));
    for name in TABLES {
        let q = format!("SELECT g, sum(v) AS s FROM {name} GROUP BY g HAVING sum(v) > 100");
        imp.execute(&q).unwrap();
    }
    let board = imp.scheduler().unwrap().board_handle();
    let before = board.read();
    assert_eq!(before.sketches.len(), TABLES.len());

    imp.execute("INSERT INTO p2 VALUES (3, 500)").unwrap();
    imp.scheduler().unwrap().drain();
    let after = board.read();
    assert!(after.epoch > before.epoch, "a sweep publishes a new epoch");
    assert_eq!(after.sketches.len(), TABLES.len());
    for new in &after.sketches {
        let old = before
            .sketches
            .iter()
            .find(|old| old.sql == new.sql)
            .expect("same sketches published");
        let touched = new.tables.iter().any(|t| t == "p2");
        assert_eq!(
            Arc::ptr_eq(&old.sketch, &new.sketch),
            !touched,
            "only the maintained sketch may republish new bits ({})",
            new.sql
        );
        assert_eq!(new.version > old.version, touched);
        assert!(Arc::ptr_eq(&old.plan, &new.plan), "plans are wrapped once");
    }
    // Repartitioning keeps versions but retires the bits with the old
    // partition set: nothing may be reused across it.
    assert_eq!(imp.repartition_all().unwrap(), TABLES.len());
    let repartitioned = board.read();
    for (old, new) in after.sketches.iter().zip(&repartitioned.sketches) {
        assert!(!Arc::ptr_eq(&old.sketch, &new.sketch));
    }
}

fn template_of(sql: &str) -> QueryTemplate {
    let Statement::Select(select) = imp_sql::parse_one(sql).unwrap() else {
        panic!("not a select: {sql}")
    };
    QueryTemplate::of(&select)
}

#[test]
fn a_stale_query_does_not_wait_for_the_workers() {
    // The update waits behind parked workers.
    let mut imp = Imp::new(seed_db(), sharded_config(2));
    imp.execute(Q).unwrap();
    let paused = imp.scheduler().unwrap().pause();
    imp.execute("INSERT INTO t VALUES (2, 500)").unwrap();
    let depth = |imp: &Imp| imp.scheduler().unwrap().stats().per_shard[0].depth;
    let queued = depth(&imp);
    assert_eq!(queued, 1, "the update waits");

    // The query runs on its own thread: if it waited for a parked
    // worker, it would never answer.
    let (answered, answer) = std::sync::mpsc::channel();
    let query = std::thread::spawn(move || {
        let response = imp.execute(Q);
        let _ = answered.send(());
        (imp, response)
    });
    if let Err(RecvTimeoutError::Timeout) = answer.recv_timeout(Duration::from_secs(30)) {
        panic!("the stale query blocked behind the paused workers");
    }
    let (imp, response) = query.join().expect("the query thread panicked");
    let ImpResponse::Rows { result, mode } = response.unwrap() else {
        panic!("rows expected")
    };
    assert!(matches!(mode, QueryMode::Maintained(_)), "{mode:?}");
    let unrewritten = imp.db().query(Q).unwrap().canonical();
    assert_eq!(result.canonical(), unrewritten);
    imp.with_sketch(&template_of(Q), |entry| {
        let db = imp.db();
        let m = &entry.maintainer;
        let fresh = imp_sketch::capture(m.plan(), &db, m.partitions()).unwrap();
        assert_eq!(m.sketch(), &fresh.sketch);
    })
    .expect("sketch stored");
    assert_eq!(
        depth(&imp),
        queued,
        "the query maintained only its own sketch; no sweep began"
    );
    drop(paused);
}

/// A maintenance tick never waits for a parked worker: 300 ticks — more
/// than a worker's message queue holds — return while the pause guard
/// is alive, and the store converges once the workers resume.
#[test]
fn ticks_under_a_pause_do_not_block() {
    let mut imp = Imp::new(seed_db(), sharded_config(1));
    imp.execute(Q).unwrap();
    let paused = imp.scheduler().unwrap().pause();
    imp.execute("INSERT INTO t VALUES (2, 500)").unwrap();

    // The ticks run on their own thread: if one blocked on the parked
    // worker, they would never finish.
    let (ticked, done) = std::sync::mpsc::channel();
    let ticker = std::thread::spawn(move || {
        for _ in 0..300 {
            imp.tick_maintenance().unwrap();
        }
        let _ = ticked.send(());
        imp
    });
    if let Err(RecvTimeoutError::Timeout) = done.recv_timeout(Duration::from_secs(30)) {
        panic!("a maintenance tick blocked behind the paused worker");
    }
    let mut imp = ticker.join().expect("the tick thread panicked");
    drop(paused);
    imp.maintain_all_stale().unwrap();
    assert!(imp.describe_sketches().iter().all(|s| !s.stale));
}

#[test]
fn zero_workers_route_nothing_and_maintain_on_the_next_query() {
    // Nothing is noted without workers: the update touches no sketch
    // state.
    let mut imp = Imp::new(seed_db(), sharded_config(0));
    imp.execute(Q).unwrap();
    for i in 0..100 {
        imp.execute(&format!("INSERT INTO t VALUES ({}, {i})", i % 6))
            .unwrap();
        let stats = imp.scheduler().unwrap().stats();
        assert_eq!(
            (
                stats.staged_updates,
                stats.routed_batches,
                stats.fanout_messages
            ),
            (0, 0, 0),
            "an update touched the scheduler: {stats:?}"
        );
        assert!(
            imp.describe_sketches().iter().all(|s| s.stale),
            "nothing maintains before the next query"
        );
    }
    let ImpResponse::Rows { mode, result } = imp.execute(Q).unwrap() else {
        panic!("rows expected")
    };
    assert!(matches!(mode, QueryMode::Maintained(_)), "{mode:?}");
    assert_eq!(result.canonical(), imp.db().query(Q).unwrap().canonical());
    assert!(imp.describe_sketches().iter().all(|s| !s.stale));
}

/// However a worker store splits a sketch's statements into runs — one
/// sweep per statement, one sweep over all of them, or a stale query's
/// run — the sketch ends with the same bits and the same state bytes: its
/// cold row cache is checked per statement. Seven fresh 200-row inserts
/// cross the cache's flush threshold between the sixth and the seventh.
#[test]
fn state_bytes_do_not_depend_on_how_statements_split_into_runs() {
    let inserts: Vec<String> = (0..7)
        .map(|s| {
            let rows: Vec<String> = (0..200)
                .map(|i| format!("({}, {})", i % 6, 1000 + 200 * s + i))
                .collect();
            format!("INSERT INTO t VALUES {}", rows.join(", "))
        })
        .collect();
    let store = |split: &dyn Fn(&mut Imp)| {
        let mut imp = Imp::new(seed_db(), sharded_config(1));
        imp.execute(Q).unwrap();
        let paused = imp.scheduler().unwrap().pause();
        split(&mut imp);
        drop(paused);
        (imp.sketch_states(), imp.store_heap_size())
    };
    let per_statement = store(&|imp| {
        for sql in &inserts {
            imp.execute(sql).unwrap();
            imp.scheduler().unwrap().drain();
        }
    });
    let one_sweep = store(&|imp| {
        for sql in &inserts {
            imp.execute(sql).unwrap();
        }
        assert_eq!(imp.scheduler().unwrap().drain(), 1, "one run");
    });
    let stale_query = store(&|imp| {
        for sql in &inserts {
            imp.execute(sql).unwrap();
        }
        let ImpResponse::Rows { mode, .. } = imp.execute(Q).unwrap() else {
            panic!("rows expected")
        };
        assert!(matches!(mode, QueryMode::Maintained(_)), "{mode:?}");
    });
    assert_eq!(one_sweep, per_statement);
    assert_eq!(stale_query, per_statement);
}

/// An evicted sketch is recaptured only by a query that uses it (or by an
/// advisor promotion): neither a worker's sweep nor `drain` nor
/// `maintain_all_stale` brings its state back. At 0 and 1 workers, after
/// capture, eviction and an insert, no run is made and the store stays
/// at its post-eviction heap; the next query recaptures, answers as the
/// engine does, and leaves the accurate sketch (Thm. 6.1).
#[test]
fn an_evicted_sketch_waits_for_a_query_to_recapture() {
    for workers in [0, 1] {
        let mut imp = Imp::new(seed_db(), sharded_config(workers));
        imp.execute(Q).unwrap();
        assert!(imp.evict_state(&template_of(Q)).unwrap() > 0);
        let evicted_heap = imp.store_heap_size();
        let runs = imp.scheduler().unwrap().stats().maintain_runs;

        imp.execute("INSERT INTO t VALUES (2, 500)").unwrap();
        assert_eq!(imp.scheduler().unwrap().drain(), 0, "workers {workers}");
        let swept = imp.maintain_all_stale().unwrap();
        assert!(swept.is_empty(), "workers {workers}: {swept:?}");
        let stats = imp.scheduler().unwrap().stats();
        assert_eq!(stats.maintain_runs, runs, "workers {workers}: no run");
        assert!(imp.store_heap_size() <= evicted_heap, "workers {workers}");

        let ImpResponse::Rows { result, mode } = imp.execute(Q).unwrap() else {
            panic!("rows expected")
        };
        let QueryMode::Maintained(report) = mode else {
            panic!("workers {workers}: the query recaptures, got {mode:?}")
        };
        assert!(report.recaptured, "workers {workers}: {report:?}");
        let engine = imp.db().query(Q).unwrap();
        assert_eq!(result.canonical(), engine.canonical(), "workers {workers}");
        imp.with_sketch(&template_of(Q), |e| {
            let db = imp.db();
            let fresh = imp_sketch::capture(&e.plan, &db, e.maintainer.partitions()).unwrap();
            assert_eq!(e.maintainer.version(), db.version(), "workers {workers}");
            let bits = e.maintainer.sketch().bits();
            assert_eq!(bits, fresh.sketch.bits(), "workers {workers}");
        })
        .expect("the sketch is stored");
    }
}

/// Every maintenance run is booked in `imp_sched_maintain_runs`, whoever
/// makes it: with no workers under `Eager { batch_size: 1 }`, each of N
/// updates makes one eager run, and the counter reads N.
#[test]
fn eager_batches_are_booked_as_runs() {
    let config = ImpConfig {
        strategy: imp_core::MaintenanceStrategy::Eager { batch_size: 1 },
        ..sharded_config(0)
    };
    let mut imp = Imp::new(seed_db(), config);
    imp.execute(Q).unwrap();
    let updates = [
        "INSERT INTO t VALUES (2, 500)",
        "DELETE FROM t WHERE v = 7",
        "INSERT INTO t VALUES (3, 900)",
    ];
    for sql in updates {
        let ImpResponse::Affected { maintenance, .. } = imp.execute(sql).unwrap() else {
            panic!("an update")
        };
        assert_eq!(maintenance.len(), 1, "{sql}: one eager run");
    }
    let stats = imp.scheduler().unwrap().stats();
    assert_eq!(stats.maintain_runs, updates.len() as u64);
}
