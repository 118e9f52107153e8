//! In-memory span recorder for the traced run, and the self-time
//! attribution over what it recorded.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! each layer's public functions; names reuse `imp_core::obs`'s where one
//! exists (`select`, `update`, `maintain`) so in-program spans can replace
//! them later without renaming a metric.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the recorder was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, `None` for a statement's root span.
    pub parent: Option<u32>,
    /// Statement number: spans of one statement share it.
    pub op_id: u32,
    /// Work the real pipeline does not do at this point: a second
    /// measurement of a step that also runs inside `maintain`, or a
    /// reference computation. Excluded from every sum.
    pub shadow: bool,
}

/// Handle returned by [`Recorder::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

/// Records spans on one thread. A disabled recorder does nothing, so the
/// same replica code gives the span-free pass that prices the tracing.
pub struct Recorder {
    base: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
    op_id: u32,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            base: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Start the next statement: later spans carry a new `op_id`.
    pub fn next_op(&mut self) {
        self.op_id += 1;
    }

    /// Open a span under the innermost open one. A span opened inside a
    /// shadow span is itself shadow.
    pub fn begin(&mut self, name: &'static str, shadow: bool) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let parent = self.open.last().copied();
        let shadow = shadow || parent.is_some_and(|p| self.spans[p as usize].shadow);
        let id = self.spans.len() as u32;
        self.open.push(id);
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op_id: self.op_id,
            shadow,
        });
        SpanId(Some(id))
    }

    /// Close `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end = end;
    }

    /// Time one call as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, shadow: bool, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, shadow);
        let out = f();
        self.end(id);
        out
    }

    /// Nanoseconds since creation — the wall the attribution sums to.
    pub fn finish(self) -> (Vec<Span>, u64) {
        assert!(self.open.is_empty(), "every span was closed");
        let wall = self.now();
        (self.spans, wall)
    }
}

/// Where the wall clock of a traced pass went.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Attribution {
    /// Per span name: Σ self time and call count, non-shadow spans only.
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
    /// Per span name: Σ duration and call count of shadow spans.
    pub shadow_by_name: BTreeMap<&'static str, (u64, u64)>,
    /// Σ duration of outermost shadow spans.
    pub shadow_ns: u64,
    /// Wall time outside every root span (loop and recorder overhead).
    pub unattributed_ns: u64,
    pub wall_ns: u64,
}

impl Attribution {
    /// Σ self time of non-shadow spans: the replica pipeline's own wall.
    /// `pipeline_ns + shadow_ns + unattributed_ns == wall_ns`.
    pub fn pipeline_ns(&self) -> u64 {
        self.by_name.values().map(|(ns, _)| ns).sum()
    }

    pub fn self_ns(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |(ns, _)| *ns)
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |(_, n)| *n)
    }
}

/// A span's self time is its duration minus the part of that interval its
/// child spans cover; shadow spans count towards no name's self time.
pub fn attribute(spans: &[Span], wall_ns: u64) -> Attribution {
    // Children are recorded after their parent and in start order, so one
    // pass that merges each span's interval into its parent's coverage
    // handles overlap-free and (for synthetic input) overlapping children.
    let mut covered = vec![0u64; spans.len()];
    let mut frontier = vec![0u64; spans.len()];
    let mut out = Attribution {
        wall_ns,
        ..Attribution::default()
    };
    let mut roots = 0u64;
    for span in spans {
        let dur = span.end - span.start;
        match span.parent {
            Some(p) => {
                let p = p as usize;
                let start = span.start.max(frontier[p]).max(spans[p].start);
                let end = span.end.min(spans[p].end);
                covered[p] += end.saturating_sub(start);
                frontier[p] = frontier[p].max(end);
            }
            None => roots += dur,
        }
        if span.shadow {
            let e = out.shadow_by_name.entry(span.name).or_default();
            e.0 += dur;
            e.1 += 1;
            if !span.parent.is_some_and(|p| spans[p as usize].shadow) {
                out.shadow_ns += dur;
            }
        }
    }
    for (span, covered) in spans.iter().zip(covered) {
        if !span.shadow {
            let e = out.by_name.entry(span.name).or_default();
            e.0 += (span.end - span.start) - covered;
            e.1 += 1;
        }
    }
    out.unattributed_ns = wall_ns - roots;
    out
}

/// Durations (ms) of every span called `name`, shadow or not.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end - s.start) as f64 / 1e6)
        .collect()
}

/// The span file: one JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 2);
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"shadow\":{}}}",
            s.name, s.start, s.end, s.op_id, s.shadow
        ));
    }
    out.push_str("\n]\n");
    out
}
