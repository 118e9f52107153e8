//! Structured pipeline tracing: bounded per-thread span rings, exported
//! as Chrome trace-event JSON.
//!
//! A [`Tracer`] owns one bounded ring buffer per participating thread.
//! Pipeline entry points (the middleware SELECT/UPDATE paths, the shard
//! workers' claim loop) [`Tracer::attach`] the tracer to the current
//! thread; from there any code — however deep in the operator stack —
//! opens spans with the free function [`span`], which finds the attached
//! tracer through a thread-local and needs no handle plumbing. Spans
//! carry ids, parent links (the enclosing span on the same thread), and
//! monotonic nanosecond timestamps from the tracer's epoch, so exports
//! from different threads line up on one clock.
//!
//! When the tracer is disabled (the default), `attach` is one relaxed
//! atomic load and `span` is one thread-local read — no allocation, no
//! locks. Rings are bounded: once full, the oldest span is evicted and a
//! drop counter bumped; the export sanitizes parent links that point at
//! evicted spans so "every exported parent exists" always holds
//! (property-tested in `tests/obs_props.rs`).
//!
//! [`Tracer::export_chrome_json`] renders the classic Chrome trace-event
//! array format — open `chrome://tracing` (or <https://ui.perfetto.dev>)
//! and load the file.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

/// Default per-thread ring capacity (spans kept per thread).
pub const DEFAULT_RING_CAP: usize = 4096;

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id (> 0).
    pub id: u64,
    /// Enclosing span on the same thread, 0 for roots.
    pub parent: u64,
    /// Static site name (e.g. `"maintain"`, `"nary_probe"`).
    pub name: &'static str,
    /// Tracer-assigned thread id.
    pub tid: u64,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

#[derive(Debug)]
struct Ring {
    tid: u64,
    spans: Mutex<VecDeque<SpanRecord>>,
    dropped: AtomicU64,
}

/// Span collector (see the module docs).
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    token: u64,
    ring_cap: usize,
    next_id: AtomicU64,
    next_tid: AtomicU64,
    rings: Mutex<Vec<Arc<Ring>>>,
}

/// Distinguishes tracers in the per-thread ring cache.
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

struct ThreadCtx {
    token: u64,
    tracer: Arc<Tracer>,
    ring: Arc<Ring>,
    stack: Vec<u64>,
}

thread_local! {
    /// The tracer attached to this thread, if any.
    static CURRENT: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
    /// Ring cache: one ring per (tracer token) per thread, so repeated
    /// attaches in a worker loop reuse the same ring. A ring only this
    /// cache still holds belongs to a dropped tracer and is pruned when
    /// the next ring is cached.
    static RINGS: RefCell<Vec<(u64, Arc<Ring>)>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    /// New tracer; `enabled` decides whether spans are recorded at all.
    pub fn new(enabled: bool, ring_cap: usize) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(enabled),
            epoch: Instant::now(),
            token: NEXT_TOKEN.fetch_add(1, Ordering::Relaxed),
            ring_cap: ring_cap.max(2),
            next_id: AtomicU64::new(0),
            next_tid: AtomicU64::new(0),
            rings: Mutex::new(Vec::new()),
        }
    }

    /// Is span recording on?
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Toggle span recording (harness convenience).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn thread_ring(self: &Arc<Tracer>) -> Arc<Ring> {
        RINGS.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, ring)) = cache.iter().find(|(t, _)| *t == self.token) {
                return Arc::clone(ring);
            }
            let ring = Arc::new(Ring {
                tid: self.next_tid.fetch_add(1, Ordering::Relaxed),
                spans: Mutex::new(VecDeque::with_capacity(self.ring_cap.min(64))),
                dropped: AtomicU64::new(0),
            });
            self.rings.lock().push(Arc::clone(&ring));
            cache.retain(|(_, cached)| Arc::strong_count(cached) > 1);
            cache.push((self.token, Arc::clone(&ring)));
            ring
        })
    }

    /// Attach this tracer to the current thread for the guard's lifetime.
    /// No-op (and allocation-free) when disabled or already attached.
    pub fn attach(self: &Arc<Tracer>) -> AttachGuard {
        if !self.is_enabled() {
            return AttachGuard(AttachState::Inactive);
        }
        let already = CURRENT.with(|c| {
            c.borrow()
                .as_ref()
                .is_some_and(|ctx| ctx.token == self.token)
        });
        if already {
            return AttachGuard(AttachState::Inactive);
        }
        let ring = self.thread_ring();
        let prev = CURRENT.with(|c| {
            c.borrow_mut().replace(ThreadCtx {
                token: self.token,
                tracer: Arc::clone(self),
                ring,
                stack: Vec::new(),
            })
        });
        AttachGuard(AttachState::Installed(prev))
    }

    /// All recorded spans, sorted by start time, with parent links that
    /// point at evicted spans cleared to 0.
    pub fn export_spans(&self) -> Vec<SpanRecord> {
        let rings = self.rings.lock();
        let mut out: Vec<SpanRecord> = Vec::new();
        for ring in rings.iter() {
            out.extend(ring.spans.lock().iter().cloned());
        }
        drop(rings);
        out.sort_by_key(|s| (s.start_ns, s.id));
        let ids: std::collections::HashSet<u64> = out.iter().map(|s| s.id).collect();
        for s in &mut out {
            if s.parent != 0 && !ids.contains(&s.parent) {
                s.parent = 0;
            }
        }
        out
    }

    /// Spans evicted from full rings so far.
    pub fn dropped(&self) -> u64 {
        self.rings
            .lock()
            .iter()
            .map(|r| r.dropped.load(Ordering::Relaxed))
            .sum()
    }

    /// Discard all recorded spans (rings stay registered).
    pub fn clear(&self) {
        for ring in self.rings.lock().iter() {
            ring.spans.lock().clear();
        }
    }

    /// Chrome trace-event JSON (complete `"ph":"X"` events, microsecond
    /// timestamps), loadable in `chrome://tracing` / Perfetto.
    pub fn export_chrome_json(&self) -> String {
        let spans = self.export_spans();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            out.push_str(s.name);
            out.push_str("\",\"cat\":\"imp\",\"ph\":\"X\",\"ts\":");
            out.push_str(&format!("{:.3}", s.start_ns as f64 / 1000.0));
            out.push_str(",\"dur\":");
            out.push_str(&format!("{:.3}", s.dur_ns as f64 / 1000.0));
            out.push_str(",\"pid\":1,\"tid\":");
            out.push_str(&s.tid.to_string());
            out.push_str(",\"args\":{\"id\":");
            out.push_str(&s.id.to_string());
            out.push_str(",\"parent\":");
            out.push_str(&s.parent.to_string());
            out.push_str("}}");
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

enum AttachState {
    /// Tracer disabled or already attached here: nothing to undo.
    Inactive,
    /// Installed on this thread; restore the previous context on drop.
    Installed(Option<ThreadCtx>),
}

/// Keeps the tracer attached to the current thread; restores the
/// previous attachment (if any) on drop.
pub struct AttachGuard(AttachState);

impl AttachGuard {
    /// A guard that neither installed nor restores anything.
    pub fn inactive() -> AttachGuard {
        AttachGuard(AttachState::Inactive)
    }
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        if let AttachState::Installed(prev) = std::mem::replace(&mut self.0, AttachState::Inactive)
        {
            CURRENT.with(|c| {
                *c.borrow_mut() = prev;
            });
        }
    }
}

struct SpanActive {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

/// Live span guard; records into the attached tracer's ring on drop.
pub struct Span(Option<SpanActive>);

impl Span {
    /// A span that records nothing (the detached/disabled path).
    pub fn noop() -> Span {
        Span(None)
    }
}

/// Open a span named `name` on the tracer attached to this thread; a
/// no-op [`Span`] when none is attached. The parent is the innermost
/// span still open on this thread.
#[inline]
pub fn span(name: &'static str) -> Span {
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        match cur.as_mut() {
            None => Span(None),
            Some(ctx) => {
                let id = ctx.tracer.next_id.fetch_add(1, Ordering::Relaxed) + 1;
                let parent = ctx.stack.last().copied().unwrap_or(0);
                ctx.stack.push(id);
                Span(Some(SpanActive {
                    id,
                    parent,
                    name,
                    start_ns: ctx.tracer.now_ns(),
                }))
            }
        }
    })
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else {
            return;
        };
        CURRENT.with(|c| {
            let mut cur = c.borrow_mut();
            let Some(ctx) = cur.as_mut() else {
                return;
            };
            let end = ctx.tracer.now_ns();
            // Defensive: unwind the stack to (and past) our id even if an
            // inner span leaked.
            while let Some(top) = ctx.stack.pop() {
                if top == active.id {
                    break;
                }
            }
            let record = SpanRecord {
                id: active.id,
                parent: active.parent,
                name: active.name,
                tid: ctx.ring.tid,
                start_ns: active.start_ns,
                dur_ns: end.saturating_sub(active.start_ns),
            };
            let mut spans = ctx.ring.spans.lock();
            if spans.len() >= ctx.tracer.ring_cap {
                spans.pop_front();
                ctx.ring.dropped.fetch_add(1, Ordering::Relaxed);
            }
            spans.push_back(record);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_span_is_noop() {
        let _s = span("nothing");
        // No tracer attached: nothing recorded anywhere, no panic.
    }

    #[test]
    fn dropped_tracers_leave_the_thread_ring_cache() {
        let cached = std::thread::spawn(|| {
            for _ in 0..5 {
                let tracer = Arc::new(Tracer::new(true, 64));
                let _g = tracer.attach();
                let _s = span("work");
            }
            RINGS.with(|cache| cache.borrow().len())
        });
        assert_eq!(cached.join().unwrap(), 1);
    }

    #[test]
    fn spans_nest_with_parents() {
        let tracer = Arc::new(Tracer::new(true, 64));
        {
            let _g = tracer.attach();
            let _root = span("root");
            {
                let _child = span("child");
                let _grand = span("grand");
            }
            let _sibling = span("sibling");
        }
        let spans = tracer.export_spans();
        assert_eq!(spans.len(), 4);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        let root = by_name("root");
        let child = by_name("child");
        let grand = by_name("grand");
        let sibling = by_name("sibling");
        assert_eq!(root.parent, 0);
        assert_eq!(child.parent, root.id);
        assert_eq!(grand.parent, child.id);
        assert_eq!(sibling.parent, root.id);
        // Timestamps nest.
        assert!(child.start_ns >= root.start_ns);
        assert!(child.start_ns + child.dur_ns <= root.start_ns + root.dur_ns);
        assert!(grand.start_ns + grand.dur_ns <= child.start_ns + child.dur_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Arc::new(Tracer::new(false, 64));
        {
            let _g = tracer.attach();
            let _s = span("invisible");
        }
        assert!(tracer.export_spans().is_empty());
    }

    #[test]
    fn ring_evicts_and_export_sanitizes_parents() {
        let tracer = Arc::new(Tracer::new(true, 4));
        {
            let _g = tracer.attach();
            let _root = span("root");
            for _ in 0..16 {
                let _child = span("child");
            }
        }
        assert!(tracer.dropped() > 0);
        let spans = tracer.export_spans();
        assert!(spans.len() <= 4);
        let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
        for s in &spans {
            assert!(s.parent == 0 || ids.contains(&s.parent), "dangling parent");
        }
    }

    #[test]
    fn nested_attach_is_idempotent() {
        let tracer = Arc::new(Tracer::new(true, 64));
        let _g1 = tracer.attach();
        let outer = span("outer");
        {
            let _g2 = tracer.attach(); // same tracer: must not reset the stack
            let inner = span("inner");
            drop(inner);
        }
        drop(outer);
        drop(_g1);
        let spans = tracer.export_spans();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
    }

    #[test]
    fn chrome_export_shape() {
        let tracer = Arc::new(Tracer::new(true, 64));
        {
            let _g = tracer.attach();
            let _s = span("work");
        }
        let json = tracer.export_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"work\""));
        assert!(json.ends_with("}"));
    }
}
