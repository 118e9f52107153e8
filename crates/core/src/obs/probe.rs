//! Typed pipeline events and the `Probe` subscriber registry.
//!
//! Harnesses and tests subscribe a [`Probe`] to observe the pipeline —
//! staging, ingest, fan-out, claims, maintenance runs, snapshot
//! publishes, query answers — as typed [`ObsEvent`]s instead of reaching
//! into scheduler internals. Emission sites pass a closure, which is only
//! evaluated when at least one subscriber exists: with no subscribers an
//! emit is a single relaxed atomic load and allocates nothing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// One pipeline event (fields are plain values; build cost is only paid
/// when a subscriber is registered).
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEvent {
    /// An update batch entered the staging queue (or fell back inline).
    UpdateStaged {
        /// Base table the delta targets.
        table: String,
        /// False when backpressure forced the inline-ingest fallback.
        queued: bool,
    },
    /// The router collected one table's staged deltas.
    RouterIngest {
        /// Base table collected.
        table: String,
        /// Delta rows routed out of the collect.
        rows: u64,
    },
    /// A batch run was claimed from the inbox.
    ShardClaim {
        /// Worker that claimed it (a caller draining the store claims as
        /// worker 0).
        worker: usize,
        /// Batches in the claimed run.
        batches: u64,
    },
    /// One sketch maintenance run finished.
    MaintainRun {
        /// Canonical template text of the maintained sketch.
        template: String,
        /// Wall-clock nanoseconds of the run.
        nanos: u64,
        /// Delta rows consumed.
        delta_rows: u64,
        /// True when the run fell back to recapture.
        recaptured: bool,
    },
    /// The store published a fresh snapshot onto the board.
    SnapshotPublish {
        /// Sketch entries in the published snapshot.
        sketches: usize,
    },
    /// A health watchdog rule fired (see [`crate::obs::health`]).
    WatchdogFired {
        /// Rule family name (`shard_liveness`, `queue_depth`,
        /// `backpressure_stalls`, `maintain_p99_slo`).
        rule: &'static str,
        /// Human-readable specifics of the firing.
        detail: String,
    },
    /// The middleware answered a SELECT.
    QueryAnswered {
        /// How the sketch store served it (`"capture"`, `"fresh"`,
        /// `"maintained"`, `"none"`).
        mode: &'static str,
        /// End-to-end nanoseconds inside the middleware.
        nanos: u64,
    },
}

/// Subscriber interface. Callbacks run on the emitting thread (which may
/// be a shard worker) — keep them fast and non-blocking.
pub trait Probe: Send + Sync {
    /// Observe one event.
    fn on_event(&self, event: &ObsEvent);
}

/// Subscriber registry with an allocation-free no-subscriber fast path.
#[derive(Default)]
pub struct ProbeHub {
    has_probes: AtomicBool,
    probes: Mutex<Vec<Arc<dyn Probe>>>,
}

impl std::fmt::Debug for ProbeHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProbeHub")
            .field("subscribers", &self.probes.lock().len())
            .finish()
    }
}

impl ProbeHub {
    /// Empty hub.
    pub fn new() -> ProbeHub {
        ProbeHub::default()
    }

    /// Register a subscriber (kept for the hub's lifetime).
    pub fn subscribe(&self, probe: Arc<dyn Probe>) {
        self.probes.lock().push(probe);
        self.has_probes.store(true, Ordering::Release);
    }

    /// Emit the event built by `f` to all subscribers; `f` is not called
    /// when there are none.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> ObsEvent) {
        if !self.has_probes.load(Ordering::Acquire) {
            return;
        }
        let event = f();
        for p in self.probes.lock().iter() {
            p.on_event(&event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    struct CountingProbe(AtomicUsize);

    impl Probe for CountingProbe {
        fn on_event(&self, _event: &ObsEvent) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn emit_skips_closure_without_subscribers() {
        let hub = ProbeHub::new();
        hub.emit(|| panic!("must not build the event"));
    }

    #[test]
    fn subscribers_see_events() {
        let hub = ProbeHub::new();
        let probe = Arc::new(CountingProbe(AtomicUsize::new(0)));
        hub.subscribe(Arc::clone(&probe) as Arc<dyn Probe>);
        hub.emit(|| ObsEvent::UpdateStaged {
            table: "t".to_string(),
            queued: true,
        });
        hub.emit(|| ObsEvent::QueryAnswered {
            mode: "fresh",
            nanos: 5,
        });
        assert_eq!(probe.0.load(Ordering::Relaxed), 2);
    }
}
