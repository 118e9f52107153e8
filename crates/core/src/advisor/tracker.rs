//! Workload tracking: who uses which sketch, and what each one costs.
//!
//! The [`WorkloadTracker`] is the advisor's sensory organ. Every path that
//! touches a stored sketch reports here:
//!
//! * the middleware's SELECT path records **uses** — a capture, a fresh
//!   reuse, or a maintain-then-use — together with the estimated number
//!   of backend rows the sketch rewrite skipped for that query
//!   (equi-depth estimate, see [`imp_engine::histogram::estimate_skipped_rows`]);
//! * every maintenance run (stale queries, sweeps, eager flushes, and
//!   the [`crate::sched`] routed claims) records its
//!   **cost** — the delta rows it consumed, taken from the run's
//!   [`crate::maintain::MaintReport`].
//!
//! Stats are keyed by `(template, sql)` — the same identity the store
//! uses for its per-template candidate lists — and carry two views:
//! monotone lifetime totals (inspection, the `fig_advisor` harness) and
//! an exponentially decayed *hot window* the cost model scores. Each
//! advisor pass halves the hot window ([`WorkloadTracker::decay`]), so a
//! sketch that stops being used cools off within a few passes while its
//! lifetime history stays intact.
//!
//! The tracker is shared (`Arc` + mutex) between the [`crate::middleware::Imp`]
//! front end and the workers of the sketch store; all methods take
//! `&self`.

use imp_storage::FxHashMap;
use parking_lot::Mutex;

/// Identity of one stored sketch: the store keys candidates by query
/// template and distinguishes them by the SQL they were captured for.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SketchKey {
    /// Canonical query template text.
    pub template: String,
    /// Original SQL of the capturing query.
    pub sql: String,
}

impl SketchKey {
    /// Build a key from template text and capturing SQL.
    pub fn new(template: impl Into<String>, sql: impl Into<String>) -> SketchKey {
        SketchKey {
            template: template.into(),
            sql: sql.into(),
        }
    }
}

/// How a SELECT touched a sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UseKind {
    /// A new sketch was captured for the query.
    Captured,
    /// An existing fresh sketch answered as-is.
    Fresh,
    /// A stale sketch was maintained on demand, then used.
    Maintained,
}

/// Per-sketch workload statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UseStats {
    /// Lifetime captures under this key (≥ 1 once stored; an advisor
    /// drop forgets the entry, so a re-capture restarts it at 1).
    pub captures: u64,
    /// Lifetime fresh reuses.
    pub fresh_uses: u64,
    /// Lifetime maintain-then-use reuses.
    pub maintained_uses: u64,
    /// Lifetime estimated backend rows skipped by the sketch rewrite.
    pub rows_skipped_est: u64,
    /// Lifetime maintenance runs.
    pub maint_runs: u64,
    /// Lifetime delta rows consumed by maintenance.
    pub maint_delta_rows: u64,
    /// Hot-window estimated rows skipped (decayed) — the benefit input of
    /// the cost model.
    pub hot_rows_skipped: f64,
    /// Hot-window maintenance delta rows (decayed) — the cost input of
    /// the cost model.
    pub hot_maint_delta_rows: f64,
}

/// Shared per-sketch workload statistics (see the module docs).
#[derive(Debug, Default)]
pub struct WorkloadTracker {
    stats: Mutex<FxHashMap<SketchKey, UseStats>>,
}

impl WorkloadTracker {
    /// Fresh tracker with no history.
    pub fn new() -> WorkloadTracker {
        WorkloadTracker::default()
    }

    /// Record one SELECT touching the sketch, with the estimated backend
    /// rows its rewrite skipped for this query. Takes the key by value —
    /// the recording paths build it anyway, and the map insert reuses the
    /// allocation instead of cloning.
    pub fn record_use(&self, key: SketchKey, kind: UseKind, rows_skipped_est: u64) {
        let mut stats = self.stats.lock();
        let s = stats.entry(key).or_default();
        match kind {
            UseKind::Captured => s.captures += 1,
            UseKind::Fresh => s.fresh_uses += 1,
            UseKind::Maintained => s.maintained_uses += 1,
        }
        s.rows_skipped_est += rows_skipped_est;
        s.hot_rows_skipped += rows_skipped_est as f64;
    }

    /// Record one maintenance run of the sketch that consumed
    /// `delta_rows` delta rows (fetched from the log or routed in).
    pub fn record_maintenance(&self, key: SketchKey, delta_rows: u64) {
        let mut stats = self.stats.lock();
        let s = stats.entry(key).or_default();
        s.maint_runs += 1;
        s.maint_delta_rows += delta_rows;
        s.hot_maint_delta_rows += delta_rows as f64;
    }

    /// Drop the stats of one sketch. Every path that removes a sketch
    /// from the store (advisor drops, the per-template candidate-count
    /// eviction on capture) forgets it here too, or a long-running store
    /// with ad-hoc templates would grow the tracker without bound.
    pub fn forget(&self, key: &SketchKey) {
        self.stats.lock().remove(key);
    }

    /// Retain only the given live keys — each advisor pass prunes
    /// entries orphaned by store removals the forget hooks missed, so
    /// the tracker is bounded by the live store whenever the autopilot
    /// is active.
    pub fn retain_live(&self, live: &imp_storage::FxHashSet<SketchKey>) {
        self.stats.lock().retain(|k, _| live.contains(k));
    }

    /// Stats of one sketch (zeroed default when never seen).
    pub fn get(&self, key: &SketchKey) -> UseStats {
        self.stats.lock().get(key).copied().unwrap_or_default()
    }

    /// All tracked stats, sorted by key (deterministic inspection order).
    pub fn snapshot(&self) -> Vec<(SketchKey, UseStats)> {
        let mut out: Vec<(SketchKey, UseStats)> = self
            .stats
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Halve every hot window — called once per advisor pass, so benefit
    /// and cost estimates are exponential moving averages over passes.
    pub fn decay(&self) {
        for s in self.stats.lock().values_mut() {
            s.hot_rows_skipped /= 2.0;
            s.hot_maint_delta_rows /= 2.0;
        }
    }

    /// Number of tracked sketch keys.
    pub fn len(&self) -> usize {
        self.stats.lock().len()
    }

    /// True iff nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.stats.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: &str) -> SketchKey {
        SketchKey::new(n, n)
    }

    #[test]
    fn uses_and_costs_accumulate() {
        let t = WorkloadTracker::new();
        t.record_use(key("q"), UseKind::Captured, 100);
        t.record_use(key("q"), UseKind::Fresh, 80);
        t.record_use(key("q"), UseKind::Maintained, 60);
        t.record_maintenance(key("q"), 42);
        t.record_maintenance(key("q"), 8);
        let s = t.get(&key("q"));
        assert_eq!(s.captures, 1);
        assert_eq!(s.fresh_uses, 1);
        assert_eq!(s.maintained_uses, 1);
        assert_eq!(s.rows_skipped_est, 240);
        assert_eq!(s.maint_runs, 2);
        assert_eq!(s.maint_delta_rows, 50);
        assert_eq!(s.hot_rows_skipped, 240.0);
        assert_eq!(s.hot_maint_delta_rows, 50.0);
    }

    #[test]
    fn decay_halves_hot_windows_only() {
        let t = WorkloadTracker::new();
        t.record_use(key("q"), UseKind::Fresh, 100);
        t.record_maintenance(key("q"), 40);
        t.decay();
        t.decay();
        let s = t.get(&key("q"));
        assert_eq!(s.fresh_uses, 1);
        assert_eq!(s.rows_skipped_est, 100);
        assert_eq!(s.maint_delta_rows, 40);
        assert_eq!(s.hot_rows_skipped, 25.0);
        assert_eq!(s.hot_maint_delta_rows, 10.0);
    }

    #[test]
    fn snapshot_is_sorted() {
        let t = WorkloadTracker::new();
        t.record_use(key("b"), UseKind::Fresh, 1);
        t.record_use(key("a"), UseKind::Fresh, 1);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 2);
        assert!(snap[0].0 < snap[1].0);
    }
}
