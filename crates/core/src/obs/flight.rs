//! Always-on flight recorder: a lock-free bounded ring of structured
//! pipeline events for post-mortems.
//!
//! The metrics registry and tracer answer "how is the store doing on
//! average"; the flight recorder answers "what happened in the seconds
//! before this stall/panic". It is **always on** — unlike the rest of
//! `obs` it is not gated by [`super::ObsConfig::enabled`], because a
//! post-mortem must not require reproducing the incident under
//! `IMP_OBS=1`. That is affordable because the hot path is a ticket
//! `fetch_add`, one compare-and-swap and a handful of relaxed atomic
//! stores into a fixed slot: no locks, no allocation (asserted by `tests/flight_stress.rs`'s
//! counting allocator).
//!
//! # Protocol
//!
//! Each slot is guarded by a seqlock-style stamp. The writer for ticket
//! `t` (slot `t % cap`, `cap` a power of two):
//!
//! 1. claims the slot: a compare-and-swap (`Acquire`) from the settled
//!    (even) stamp of an older lap to the odd stamp `2t+1`, then a
//!    `Release` fence,
//! 2. stores the payload fields (relaxed),
//! 3. stores the even stamp `2t+2` with `Release`.
//!
//! So a slot has one writer at a time. A writer that finds its slot
//! mid-write by an older lap waits for those few stores to land. A writer
//! that finds it claimed or settled by a newer lap — it was preempted for
//! a whole lap of the ring — drops its event instead of tearing the newer
//! one, and counts it in [`FlightRecorder::dropped`]. A dropped ticket is
//! therefore always older than the retained window: once writers are
//! quiescent, every retained slot is settled.
//!
//! A reader loads the stamp with `Acquire` and skips the slot unless it
//! equals `2t+2`; it then reads the fields (relaxed), issues an `Acquire`
//! fence, and re-loads the stamp — the slot is accepted only when the
//! stamp is unchanged. If any field load observed a store from a later
//! (or in-flight) writer, that writer's odd stamp is ordered before its
//! field stores by the release fence, so the re-load cannot still see
//! `2t+2`: torn slots are *detected*, never emitted. Dumps are therefore
//! deterministic snapshots of fully formed events, ordered by ticket.
//!
//! String identities (table and template names) are carried as stable
//! FNV-1a hashes ([`fid`]) so recording never allocates; dumps expose the
//! hashes, which correlate with `/metrics` labels via the same hash
//! printed by `/sketches`.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

/// Default ring capacity (slots, power of two).
pub const DEFAULT_FLIGHT_CAP: usize = 4096;

/// Stable 64-bit FNV-1a hash of a string identity (table or template
/// text). Allocation-free; the same function everywhere, so flight dumps,
/// `/sketches`, and tests agree on ids.
#[inline]
pub fn fid(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One structured pipeline event (plain stack value; see the kind-specific
/// field meanings on each variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEvent {
    /// An update batch entered staging (or fell back inline).
    Staged {
        /// [`fid`] of the base table.
        table: u64,
        /// 1 when queued, 0 when backpressure forced inline ingest.
        queued: u64,
    },
    /// The router collected one table's staged deltas.
    Routed {
        /// [`fid`] of the base table.
        table: u64,
        /// Delta rows routed.
        rows: u64,
    },
    /// A run was claimed from the inbox by a worker or by a caller
    /// draining the store (as worker 0).
    Claimed {
        /// Claiming worker.
        worker: u64,
        /// Batches in the run.
        batches: u64,
    },
    /// One sketch maintenance run finished.
    Maintained {
        /// [`fid`] of the canonical template text.
        template: u64,
        /// Database version span covered: `from` in the high 32 bits,
        /// `to` in the low 32 (0 when unknown, e.g. inline maintains).
        versions: u64,
        /// Delta rows consumed.
        rows: u64,
        /// Wall-clock nanoseconds of the run.
        dur_ns: u64,
    },
    /// The store published a fresh snapshot onto the board.
    Published {
        /// Sketch entries in the snapshot.
        sketches: u64,
        /// Board epoch after the publish.
        epoch: u64,
    },
}

impl FlightEvent {
    /// Numeric kind tag (stable across releases; 0 means "empty slot",
    /// 4 was a retired kind).
    fn kind(&self) -> u64 {
        match self {
            FlightEvent::Staged { .. } => 1,
            FlightEvent::Routed { .. } => 2,
            FlightEvent::Claimed { .. } => 3,
            FlightEvent::Maintained { .. } => 5,
            FlightEvent::Published { .. } => 6,
        }
    }

    /// Kind name used in dumps.
    pub fn kind_name(&self) -> &'static str {
        match self {
            FlightEvent::Staged { .. } => "staged",
            FlightEvent::Routed { .. } => "routed",
            FlightEvent::Claimed { .. } => "claimed",
            FlightEvent::Maintained { .. } => "maintained",
            FlightEvent::Published { .. } => "published",
        }
    }

    /// Flatten into the four generic payload words.
    fn payload(&self) -> [u64; 4] {
        match *self {
            FlightEvent::Staged { table, queued } => [table, queued, 0, 0],
            FlightEvent::Routed { table, rows } => [table, rows, 0, 0],
            FlightEvent::Claimed { worker, batches } => [worker, batches, 0, 0],
            FlightEvent::Maintained {
                template,
                versions,
                rows,
                dur_ns,
            } => [template, versions, rows, dur_ns],
            FlightEvent::Published { sketches, epoch } => [sketches, epoch, 0, 0],
        }
    }

    /// Rebuild from a kind tag and payload words (inverse of
    /// [`Self::payload`]); `None` on an unknown tag.
    fn from_slot(kind: u64, p: [u64; 4]) -> Option<FlightEvent> {
        Some(match kind {
            1 => FlightEvent::Staged {
                table: p[0],
                queued: p[1],
            },
            2 => FlightEvent::Routed {
                table: p[0],
                rows: p[1],
            },
            3 => FlightEvent::Claimed {
                worker: p[0],
                batches: p[1],
            },
            5 => FlightEvent::Maintained {
                template: p[0],
                versions: p[1],
                rows: p[2],
                dur_ns: p[3],
            },
            6 => FlightEvent::Published {
                sketches: p[0],
                epoch: p[1],
            },
            _ => return None,
        })
    }

    /// Named fields for the JSON dump, in emission order.
    fn fields(&self) -> [(&'static str, u64); 4] {
        let p = self.payload();
        let names: [&'static str; 4] = match self {
            FlightEvent::Staged { .. } => ["table", "queued", "", ""],
            FlightEvent::Routed { .. } => ["table", "rows", "", ""],
            FlightEvent::Claimed { .. } => ["worker", "batches", "", ""],
            FlightEvent::Maintained { .. } => ["template", "versions", "rows", "dur_ns"],
            FlightEvent::Published { .. } => ["sketches", "epoch", "", ""],
        };
        [
            (names[0], p[0]),
            (names[1], p[1]),
            (names[2], p[2]),
            (names[3], p[3]),
        ]
    }
}

/// A fully formed event read back out of the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightRecord {
    /// Global sequence number (monotonic across the recorder's lifetime).
    pub ticket: u64,
    /// Nanoseconds since the recorder's epoch (its construction instant).
    pub t_ns: u64,
    /// The event payload.
    pub event: FlightEvent,
}

/// One ring slot: seqlock stamp + timestamp + kind + 4 payload words.
#[derive(Debug, Default)]
struct Slot {
    seq: AtomicU64,
    t_ns: AtomicU64,
    kind: AtomicU64,
    p: [AtomicU64; 4],
}

/// The always-on bounded event ring (see the module docs).
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    head: AtomicU64,
    dropped: AtomicU64,
    epoch: Instant,
}

impl FlightRecorder {
    /// Ring with `cap` slots (rounded up to a power of two, min 64).
    pub fn new(cap: usize) -> FlightRecorder {
        let cap = cap.max(64).next_power_of_two();
        FlightRecorder {
            slots: (0..cap).map(|_| Slot::default()).collect(),
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events recorded over the recorder's lifetime (including ones the
    /// ring has since overwritten, and [`Self::dropped`] ones).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events dropped because their writer was lapped: a newer ticket
    /// had already claimed its slot.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Record one event. Lock-free, allocation-free: one `fetch_add`, one
    /// compare-and-swap and a fixed number of relaxed stores. Safe to call
    /// from any thread at any time, including with readers dumping
    /// concurrently.
    #[inline]
    pub fn record(&self, event: FlightEvent) {
        let t_ns = self.epoch.elapsed().as_nanos() as u64;
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.claim(ticket) {
            Self::fill(slot, ticket, t_ns, event);
        }
    }

    /// Claim `ticket`'s slot: swap a settled stamp of an older lap for the
    /// odd stamp `2·ticket + 1`, waiting out an older lap's writer still
    /// mid-write. `None` — the event is dropped and counted — when a newer
    /// lap already claimed the slot.
    fn claim(&self, ticket: u64) -> Option<&Slot> {
        let slot = &self.slots[(ticket as usize) & (self.slots.len() - 1)];
        let odd = 2 * ticket + 1;
        loop {
            let stamp = slot.seq.load(Ordering::Relaxed);
            if stamp > odd {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            if stamp % 2 == 1 {
                std::thread::yield_now(); // an older writer's few stores
                continue;
            }
            // Acquire: the previous writer's payload stores happen before
            // ours.
            let swap =
                slot.seq
                    .compare_exchange_weak(stamp, odd, Ordering::Acquire, Ordering::Relaxed);
            if swap.is_ok() {
                break;
            }
        }
        // The release fence orders the odd stamp before every payload
        // store, so a reader that observes any of our payload writes
        // cannot still read the previous even stamp.
        fence(Ordering::Release);
        Some(slot)
    }

    /// Write a claimed slot's payload, then settle it with the even stamp.
    fn fill(slot: &Slot, ticket: u64, t_ns: u64, event: FlightEvent) {
        slot.t_ns.store(t_ns, Ordering::Relaxed);
        slot.kind.store(event.kind(), Ordering::Relaxed);
        let p = event.payload();
        for (dst, v) in slot.p.iter().zip(p) {
            dst.store(v, Ordering::Relaxed);
        }
        // Even stamp: slot complete, released so readers see the payload.
        slot.seq.store(2 * ticket + 2, Ordering::Release);
    }

    /// All fully formed events currently retained, newest-window-filtered:
    /// only events with `t_ns` within the last `window_ns` of the
    /// recorder's clock are returned (pass `u64::MAX` for everything
    /// retained). Sorted by ticket (emission order). Slots that are empty,
    /// mid-write, or overwritten during the read are skipped — never torn.
    pub fn events(&self, window_ns: u64) -> Vec<FlightRecord> {
        let now_ns = self.epoch.elapsed().as_nanos() as u64;
        let cutoff = now_ns.saturating_sub(window_ns);
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - start) as usize);
        for ticket in start..head {
            let slot = &self.slots[(ticket as usize) & (self.slots.len() - 1)];
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 != 2 * ticket + 2 {
                continue; // empty, mid-write, or already recycled
            }
            let t_ns = slot.t_ns.load(Ordering::Relaxed);
            let kind = slot.kind.load(Ordering::Relaxed);
            let p = [
                slot.p[0].load(Ordering::Relaxed),
                slot.p[1].load(Ordering::Relaxed),
                slot.p[2].load(Ordering::Relaxed),
                slot.p[3].load(Ordering::Relaxed),
            ];
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s1 {
                continue; // overwritten mid-read: reject, never tear
            }
            let Some(event) = FlightEvent::from_slot(kind, p) else {
                continue;
            };
            if t_ns < cutoff {
                continue;
            }
            out.push(FlightRecord {
                ticket,
                t_ns,
                event,
            });
        }
        out
    }

    /// Deterministic JSON dump of [`Self::events`] plus ring metadata:
    /// `{"flight":{"cap":…,"recorded":…,"window_ns":…,"events":[…]}}`,
    /// events sorted by ticket, each with `ticket`, `t_ns`, `kind`, and
    /// its kind-specific numeric fields.
    pub fn dump_json(&self, window_ns: u64) -> String {
        let events = self.events(window_ns);
        let mut out = String::with_capacity(64 + events.len() * 96);
        out.push_str("{\"flight\":{\"cap\":");
        out.push_str(&self.capacity().to_string());
        out.push_str(",\"recorded\":");
        out.push_str(&self.recorded().to_string());
        out.push_str(",\"window_ns\":");
        out.push_str(&window_ns.to_string());
        out.push_str(",\"events\":[");
        for (i, rec) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"ticket\":");
            out.push_str(&rec.ticket.to_string());
            out.push_str(",\"t_ns\":");
            out.push_str(&rec.t_ns.to_string());
            out.push_str(",\"kind\":\"");
            out.push_str(rec.event.kind_name());
            out.push('"');
            for (name, v) in rec.event.fields() {
                if name.is_empty() {
                    continue;
                }
                out.push_str(",\"");
                out.push_str(name);
                out.push_str("\":");
                out.push_str(&v.to_string());
            }
            out.push('}');
        }
        out.push_str("]}}");
        out
    }
}

/// Recorders the panic hook dumps (weak: a dropped `Imp` unregisters
/// itself by expiring).
fn panic_registry() -> &'static Mutex<Vec<Weak<FlightRecorder>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Weak<FlightRecorder>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Register a recorder with the process-wide panic hook (installed once,
/// chaining the previous hook). On panic, every live registered recorder
/// dumps its full ring to stderr — so a wedged-shard post-mortem has the
/// last seconds of pipeline history without any reproduction run.
pub fn register_panic_dump(recorder: &Arc<FlightRecorder>) {
    static INSTALL: OnceLock<()> = OnceLock::new();
    INSTALL.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            prev(info);
            let mut registry = match panic_registry().lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            registry.retain(|w| w.strong_count() > 0);
            for weak in registry.iter() {
                if let Some(rec) = weak.upgrade() {
                    eprintln!("[imp] flight dump at panic: {}", rec.dump_json(u64::MAX));
                }
            }
        }));
    });
    let mut registry = match panic_registry().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    registry.retain(|w| w.strong_count() > 0);
    registry.push(Arc::downgrade(recorder));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_read_back_in_order() {
        let fr = FlightRecorder::new(64);
        for i in 0..10u64 {
            fr.record(FlightEvent::Routed {
                table: fid("t"),
                rows: i,
            });
        }
        let events = fr.events(u64::MAX);
        assert_eq!(events.len(), 10);
        for (i, rec) in events.iter().enumerate() {
            assert_eq!(rec.ticket, i as u64);
            assert_eq!(
                rec.event,
                FlightEvent::Routed {
                    table: fid("t"),
                    rows: i as u64,
                }
            );
        }
    }

    #[test]
    fn ring_retains_only_last_cap_events() {
        let fr = FlightRecorder::new(64);
        let cap = fr.capacity() as u64;
        for i in 0..cap + 17 {
            fr.record(FlightEvent::Published {
                sketches: i,
                epoch: i,
            });
        }
        let events = fr.events(u64::MAX);
        assert_eq!(events.len(), fr.capacity());
        assert_eq!(events.first().unwrap().ticket, 17);
        assert_eq!(events.last().unwrap().ticket, cap + 16);
        assert_eq!(fr.recorded(), cap + 17);
    }

    /// A writer preempted for a whole lap, replayed step by step on one
    /// thread. Ticket 0 stalls before its claim; the rest of the lap is
    /// written, and ticket `cap` claims slot 0 and stalls mid-write. The
    /// lapped writer then drops its event instead of tearing ticket
    /// `cap`'s, so every ticket of the window is settled or dropped.
    #[test]
    fn a_lapped_writer_drops_instead_of_tearing() {
        let event = |i: u64| FlightEvent::Published {
            sketches: i,
            epoch: i,
        };
        let fr = FlightRecorder::new(64);
        let cap = fr.capacity() as u64;
        let take_ticket = || fr.head.fetch_add(1, Ordering::Relaxed);

        let lapped = take_ticket();
        for i in 1..cap {
            fr.record(event(i));
        }
        let newer = take_ticket();
        let slot = fr.claim(newer).expect("slot 0 was never written");
        assert!(fr.claim(lapped).is_none(), "a newer lap holds slot 0");
        let settled = fr.events(u64::MAX);
        assert_eq!(settled.len() as u64 + fr.dropped(), cap);
        assert!(settled.iter().all(|r| r.event == event(r.ticket)));

        // The newer write lands whole; the lapped one never does.
        FlightRecorder::fill(slot, newer, 0, event(newer));
        assert!(fr.claim(lapped).is_none(), "and once it has settled");
        let settled = fr.events(u64::MAX);
        assert_eq!(settled.len() as u64, cap);
        assert!(settled.iter().all(|r| r.event == event(r.ticket)));
        assert_eq!(fr.dropped(), 2);
    }

    #[test]
    fn window_filters_by_time() {
        let fr = FlightRecorder::new(64);
        fr.record(FlightEvent::Staged {
            table: fid("a"),
            queued: 1,
        });
        // A zero-width window drops everything already recorded …
        assert!(fr.events(0).is_empty());
        // … while the max window keeps it.
        assert_eq!(fr.events(u64::MAX).len(), 1);
    }

    #[test]
    fn dump_json_shape() {
        let fr = FlightRecorder::new(64);
        fr.record(FlightEvent::Maintained {
            template: fid("q1"),
            versions: (3 << 32) | 4,
            rows: 100,
            dur_ns: 12345,
        });
        let json = fr.dump_json(u64::MAX);
        assert!(json.starts_with("{\"flight\":{\"cap\":64,\"recorded\":1,"));
        assert!(json.contains("\"kind\":\"maintained\""));
        assert!(json.contains("\"rows\":100"));
        assert!(json.contains("\"dur_ns\":12345"));
        assert!(json.contains(&format!("\"template\":{}", fid("q1"))));
    }

    #[test]
    fn event_roundtrip_all_kinds() {
        let all = [
            FlightEvent::Staged {
                table: 7,
                queued: 0,
            },
            FlightEvent::Routed { table: 7, rows: 8 },
            FlightEvent::Claimed {
                worker: 1,
                batches: 3,
            },
            FlightEvent::Maintained {
                template: 9,
                versions: 5,
                rows: 6,
                dur_ns: 7,
            },
            FlightEvent::Published {
                sketches: 4,
                epoch: 11,
            },
        ];
        let fr = FlightRecorder::new(64);
        for e in all {
            fr.record(e);
        }
        let back: Vec<FlightEvent> = fr.events(u64::MAX).iter().map(|r| r.event).collect();
        assert_eq!(back, all);
    }

    #[test]
    fn fid_is_stable_and_distinguishes() {
        assert_eq!(fid("orders"), fid("orders"));
        assert_ne!(fid("orders"), fid("lineitem"));
        // FNV-1a of the empty string.
        assert_eq!(fid(""), 0xcbf2_9ce4_8422_2325);
    }
}
