//! Zero-allocation guard for the disabled observability hot path
//! (ISSUE 9 acceptance). This test binary installs a counting
//! `#[global_allocator]` (each integration test compiles to its own
//! binary, so the allocator swap is contained) and asserts that with obs
//! off, the instrumented call sites — span open/close, maintain/query
//! observation, scheduler counter updates — allocate
//! **nothing**: their cost is a branch or a relaxed atomic. The count is
//! per thread: the call sites run on the test's thread, and the test
//! harness's own threads, which may allocate at any moment, stay out of
//! it.

use imp_core::metrics::SchedMetrics;
use imp_core::Obs;
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

/// Allocations the calling thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn disabled_obs_hot_path_allocates_nothing() {
    let obs = Obs::off();
    let metrics = SchedMetrics::default();

    // Warm up every call site once: lazy thread-locals, anything the
    // first call touches.
    let exercise = |n: u64| {
        for i in 0..n {
            let _span = obs.span("maintain_stale");
            obs.maintain_observed_spanned("SELECT g, sum(v) FROM t GROUP BY g", 1234 + i);
            obs.query_observed("fresh", 777 + i);
            metrics.noted();
            metrics.maintain_runs.add(3);
            metrics.swept();
        }
    };
    exercise(8);

    let before = allocations();
    exercise(10_000);
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "disabled obs hot path performed {delta} allocations over 10k iterations"
    );

    // Sanity: the guard can fail — an enabled hub on the same path does
    // allocate (histogram registration, span records).
    let on = Obs::new(&imp_core::ObsConfig::on());
    let before = allocations();
    let _s = on.span("x");
    on.maintain_observed_spanned("q", 1);
    assert!(allocations() > before, "counting allocator inert");
}
