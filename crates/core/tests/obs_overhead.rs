//! Overhead guard: full observability — histograms and tracing — must
//! stay within 10% of the obs-off allocations on a
//! smoke-scale workload, and what it adds must be paid per statement,
//! not per delta row.
//!
//! The guard counts heap allocations instead of timing the workload, so
//! it reads no clock and reports the same numbers on every run: this test
//! binary installs a counting `#[global_allocator]` (each integration
//! test compiles to its own binary, so the swap is contained). The count
//! is per thread, so the test harness's own threads never land in it; the
//! store runs without workers, so the whole workload runs on the test's
//! thread. The wall-clock overhead bound lives in the benchmarks
//! (`fig_obsd`, and `bench_cycle`'s `trace.overhead_frac`).

use imp_core::middleware::{Imp, ImpConfig};
use imp_core::ObsConfig;
use imp_engine::Database;
use imp_storage::{row, DataType, Field, Schema};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor: touching it from inside
    // the allocator neither allocates nor outlives the thread's TLS.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation made by the calling thread.
fn count_allocation() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

/// Allocations the calling thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const ROWS: i64 = 1500;
const ROUNDS: i64 = 12;

fn seed_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        "ta",
        Schema::new(vec![
            Field::new("ka", DataType::Int),
            Field::new("va", DataType::Int),
        ]),
    )
    .unwrap();
    db.create_table(
        "tb",
        Schema::new(vec![
            Field::new("kb", DataType::Int),
            Field::new("vb", DataType::Int),
        ]),
    )
    .unwrap();
    db.table_mut("ta")
        .unwrap()
        .bulk_load((0..ROWS).map(|i| row![i % 50, i % 97]))
        .unwrap();
    db.table_mut("tb")
        .unwrap()
        .bulk_load((0..ROWS / 2).map(|i| row![i % 50, i % 13]))
        .unwrap();
    db
}

/// One full workload pass: capture, churn (one INSERT of `insert_rows`
/// rows and one DELETE per round), maintain, re-query. The statements
/// are built before counting starts. Returns the allocations the pass
/// made, `Imp::new` included.
fn allocations_of_run(obs: ObsConfig, insert_rows: i64) -> u64 {
    let config = ImpConfig {
        fragments: 8,
        obs,
        // An explicit empty address: no endpoint, whatever the environment.
        obsd_addr: Some(String::new()),
        ..ImpConfig::default()
    };
    let queries = [
        "SELECT ka, sum(va) AS s FROM ta GROUP BY ka HAVING sum(va) > 100",
        "SELECT kb, sum(va) AS s FROM ta JOIN tb ON (ka = kb) GROUP BY kb HAVING sum(va) > 50",
    ];
    let rounds: Vec<[String; 2]> = (0..ROUNDS)
        .map(|round| {
            let values: Vec<String> = (0..insert_rows)
                .map(|k| format!("({}, {})", (round * 7 + k) % 50, k * 3))
                .collect();
            [
                format!("INSERT INTO ta VALUES {}", values.join(", ")),
                format!("DELETE FROM tb WHERE kb = {}", round % 50),
            ]
        })
        .collect();
    let db = seed_db();

    let before = allocations();
    let mut imp = Imp::new(db, config);
    for sql in queries {
        imp.execute(sql).unwrap();
    }
    for [insert, delete] in &rounds {
        imp.execute(insert).unwrap();
        imp.execute(delete).unwrap();
        imp.maintain_all_stale().unwrap();
        for sql in queries {
            imp.execute(sql).unwrap();
        }
    }
    drop(imp);
    allocations() - before
}

#[test]
fn full_obs_within_ten_percent_of_disabled() {
    // Warm both paths once: process-wide one-time setup (lazily built
    // statics) is paid by whichever run comes first and must not land in
    // either count.
    allocations_of_run(ObsConfig::default(), 20);
    allocations_of_run(ObsConfig::on(), 20);

    let mut extras = Vec::new();
    for insert_rows in [20, 200] {
        let off = allocations_of_run(ObsConfig::default(), insert_rows);
        let on = allocations_of_run(ObsConfig::on(), insert_rows);
        eprintln!("{insert_rows} rows per INSERT: obs off {off} allocations, obs on {on}");
        assert_eq!(
            on,
            allocations_of_run(ObsConfig::on(), insert_rows),
            "obs-on allocations differ between two identical runs"
        );
        assert!(
            on as f64 <= off as f64 * 1.10,
            "{insert_rows} rows per INSERT: obs on made {on} allocations, \
             more than obs off's {off} + 10%"
        );
        extras.push(on.saturating_sub(off));
    }
    assert_eq!(
        extras[0], extras[1],
        "obs allocations grow with the rows per statement (extra at 20 vs 200 rows)"
    );
}
