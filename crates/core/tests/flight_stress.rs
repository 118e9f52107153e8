//! Flight-recorder concurrency and allocation guards (ISSUE 10
//! acceptance). Two properties of [`imp_core::FlightRecorder`]:
//!
//! 1. **No torn slots.** N writer threads hammer the ring while a reader
//!    dumps it mid-write. Every event a writer records carries payload
//!    words derived from one seed by fixed functions, so a dump that
//!    mixed words from two different writes is detectable — the seqlock
//!    must instead have *skipped* the slot.
//! 2. **Zero-allocation hot path.** This test binary installs a counting
//!    `#[global_allocator]` (each integration test compiles to its own
//!    binary, so the swap is contained) and asserts `record()` allocates
//!    nothing — the flight recorder is always on, even with obs disabled,
//!    so its write cost must stay a `fetch_add` plus a few stores. The
//!    count is per thread: the stress test's writer and reader threads run
//!    in this same binary and allocate freely.

use imp_core::{FlightEvent, FlightRecorder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The self-consistency relation every stress write obeys: all four
/// payload words of a `Maintained` event are fixed functions of one
/// seed, so any cross-write mixture violates at least one equation.
fn stress_event(seed: u64) -> FlightEvent {
    FlightEvent::Maintained {
        template: seed.rotate_left(7) ^ 0x00d1_5ea5_e0b5_e55e,
        versions: seed.rotate_left(17),
        rows: seed,
        dur_ns: seed ^ 0x5a5a_5a5a_5a5a_5a5a,
    }
}

fn check_stress_event(event: &FlightEvent) {
    let FlightEvent::Maintained {
        template,
        versions,
        rows,
        dur_ns,
    } = *event
    else {
        panic!("unexpected event kind in stress ring: {event:?}");
    };
    let seed = rows;
    assert_eq!(
        template,
        seed.rotate_left(7) ^ 0x00d1_5ea5_e0b5_e55e,
        "torn: template"
    );
    assert_eq!(versions, seed.rotate_left(17), "torn: versions");
    assert_eq!(dur_ns, seed ^ 0x5a5a_5a5a_5a5a_5a5a, "torn: dur_ns");
}

#[test]
fn concurrent_writers_and_mid_write_reader_see_no_torn_slots() {
    const WRITERS: u64 = 8;
    const PER_WRITER: u64 = 40_000;

    let fr = Arc::new(FlightRecorder::new(256));
    let stop = Arc::new(AtomicBool::new(false));

    let reader = {
        let fr = Arc::clone(&fr);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut scans = 0u64;
            let mut seen = 0u64;
            while !stop.load(Ordering::Acquire) {
                let events = fr.events(u64::MAX);
                assert!(events.len() <= fr.capacity());
                let mut last_ticket = None;
                for rec in &events {
                    if let Some(prev) = last_ticket {
                        assert!(rec.ticket > prev, "tickets out of order");
                    }
                    last_ticket = Some(rec.ticket);
                    check_stress_event(&rec.event);
                }
                scans += 1;
                seen += events.len() as u64;
            }
            (scans, seen)
        })
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let fr = Arc::clone(&fr);
            std::thread::spawn(move || {
                for i in 0..PER_WRITER {
                    fr.record(stress_event((w << 48) | i));
                }
            })
        })
        .collect();
    for h in writers {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Release);
    let (scans, seen) = reader.join().unwrap();

    assert_eq!(fr.recorded(), WRITERS * PER_WRITER);
    assert!(scans > 0 && seen > 0, "reader never observed live traffic");

    // Quiescent ring: every retained slot is fully formed and valid.
    let settled = fr.events(u64::MAX);
    assert_eq!(settled.len(), fr.capacity());
    for rec in &settled {
        check_stress_event(&rec.event);
    }
}

#[test]
fn record_hot_path_allocates_nothing() {
    let fr = FlightRecorder::new(1024);
    // Warm up: first touch of anything lazy.
    for i in 0..64u64 {
        fr.record(stress_event(i));
    }

    let before = allocations();
    for i in 0..10_000u64 {
        fr.record(stress_event(i));
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "flight record() performed {delta} allocations over 10k events"
    );

    // Sanity: the guard can fail — dumping does allocate.
    let before = allocations();
    let _ = fr.dump_json(u64::MAX);
    assert!(allocations() > before, "counting allocator inert");
}
