//! Join-side index memory, checked against the allocator.
//!
//! 1. **Booked bytes are allocated bytes.** A [`SideIndex`] reports its
//!    footprint as a running total (Fig. 17, `state_mb`). Built over the
//!    four inputs of a 4-table chain join — 20 000 rows each, the two
//!    middle inputs joining on two classes — its `heap_size()` minus the
//!    row payloads it shares with the deltas must be within ±15 % of the
//!    bytes the allocator saw it keep.
//! 2. **No key allocation on the hot path.** A fully bound probe, a
//!    partially bound probe, and absorbing a row whose entry already exists
//!    hash and compare the key cells where they lie: zero allocations.
//!
//! This test binary installs a counting `#[global_allocator]` (each
//! integration test compiles to its own binary, so the swap is contained).
//! The counts are per thread: tests running beside each other do not mix.

use imp_core::delta::{AnnotPool, DeltaBatch, DeltaEntry};
use imp_core::opt::{ClassSpec, SideIndex};
use imp_storage::{row, Row, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor: touching them from
    // inside the allocator neither allocates nor outlives the thread's TLS.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn count(allocations: u64, bytes: i64) {
    ALLOCATIONS.with(|n| n.set(n.get() + allocations));
    LIVE_BYTES.with(|n| n.set(n.get() + bytes));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes the calling thread has allocated and not freed.
fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

const ROWS: i64 = 20_000;

/// The chain `d0(c0) — d1(c0, c1) — d2(c1, c2) — d3(c2)` over rows
/// `(k, k)`: each input's spec and the positions its partial probes bind
/// (the middle inputs are reached with one of their two classes bound;
/// the ends are always probed fully bound).
fn chain() -> [(ClassSpec, Vec<usize>); 4] {
    [
        (vec![(0, vec![0])], vec![]),
        (vec![(0, vec![0]), (1, vec![1])], vec![0, 1]),
        (vec![(1, vec![0]), (2, vec![1])], vec![0, 1]),
        (vec![(2, vec![0])], vec![]),
    ]
}

/// A delta of `(row, mult)` pairs, each row annotated with one of 64
/// fragments by its first column.
fn delta(pool: &mut AnnotPool, rows: impl IntoIterator<Item = (Row, i64)>) -> DeltaBatch {
    rows.into_iter()
        .map(|(row, mult)| DeltaEntry {
            annot: pool.singleton(row[0].as_i64().unwrap() as usize % 64),
            row,
            mult,
        })
        .collect()
}

/// One input's rows.
fn seed(pool: &mut AnnotPool) -> DeltaBatch {
    delta(pool, (0..ROWS).map(|k| (row![k, k], 1)))
}

#[test]
fn booked_index_bytes_match_allocated_bytes() {
    let mut pool = AnnotPool::new(64);
    // The deltas outlive the indexes, so row payloads are shared, not
    // allocated inside the measured window.
    let inputs: Vec<(ClassSpec, Vec<usize>, DeltaBatch)> = chain()
        .into_iter()
        .map(|(spec, partial)| (spec, partial, seed(&mut pool)))
        .collect();
    let (mut booked_total, mut allocated_total) = (0, 0);
    for (i, (spec, partial, rows)) in inputs.into_iter().enumerate() {
        let before = live_bytes();
        let mut idx = SideIndex::new(spec, &partial);
        idx.apply(&rows, &pool);
        let allocated = (live_bytes() - before) as usize;
        assert_eq!(idx.len(), ROWS as usize);
        let payloads: usize = rows.iter().map(|d| d.row.heap_size()).sum();
        let booked = idx.heap_size() - payloads;
        eprintln!("d{i}: booked {booked} B, allocated {allocated} B");
        let off = booked.abs_diff(allocated) as f64 / allocated as f64;
        assert!(
            off <= 0.15,
            "d{i}: books {booked} B but allocated {allocated} B ({:.0} % off)",
            off * 100.0
        );
        booked_total += booked;
        allocated_total += allocated;
    }
    eprintln!("four inputs: booked {booked_total} B, allocated {allocated_total} B");
}

#[test]
fn probing_and_absorbing_existing_entries_allocate_nothing() {
    let mut pool = AnnotPool::new(64);
    let rows = seed(&mut pool);
    let [d0, d1, ..] = chain();
    let mut one_class = SideIndex::new(d0.0, &d0.1);
    one_class.apply(&rows, &pool);
    let mut two_class = SideIndex::new(d1.0, &d1.1);
    two_class.apply(&rows, &pool);
    // A second entry under key 7 of the one-class input, so cancelling it
    // leaves the bucket in place.
    let churn = row![7, 9_000_000];
    one_class.apply(&delta(&mut pool, [(churn.clone(), 1)]), &pool);

    let seven = Some(Value::Int(7));
    let full = [seven.clone(), seven.clone(), None];
    let partial = [seven.clone(), None, None];
    let moves = delta(&mut pool, [(row![7, 7], 1), (row![7, 7], -1)]);
    let cancels = delta(&mut pool, [(churn, -1)]);
    let empties = delta(&mut pool, [(row![8, 8], -1)]);

    let mut seen = 0;
    let before = allocations();
    two_class.for_each_match(&full, &mut |entries| seen += entries.len());
    let fully_bound = allocations() - before;

    let before = allocations();
    two_class.for_each_match(&partial, &mut |entries| seen += entries.len());
    let partially_bound = allocations() - before;

    let before = allocations();
    one_class.apply(&moves, &pool);
    one_class.apply(&cancels, &pool);
    two_class.apply(&empties, &pool);
    let absorbed = allocations() - before;

    assert_eq!(seen, 2, "each probe finds the one (7, 7) entry");
    assert_eq!(one_class.len(), ROWS as usize);
    assert_eq!(two_class.len(), ROWS as usize - 1);
    assert_eq!(
        (fully_bound, partially_bound, absorbed),
        (0, 0, 0),
        "allocations: (fully bound probe, partial probe, absorbing existing entries)"
    );
}
