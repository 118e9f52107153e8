//! The store view of Fig. 2 and its controls: inspection, eviction, vacuum, advice.

use super::capture::repartition_store;
use super::maintain::{evict_stored, table_horizons};
use super::{Imp, StoredSketch};
use crate::advisor::{autopilot, AdvisorReport, Lifecycle};
use crate::Result;
use imp_engine::Database;
use imp_sql::QueryTemplate;
use imp_storage::{BitVec, FxHashMap};

/// One row of [`Imp::describe_sketches`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchSummary {
    /// Canonical query template.
    pub template: String,
    /// Original SQL the sketch was captured for.
    pub sql: String,
    /// Database version the sketch is valid for.
    pub version: u64,
    /// Marked fragments.
    pub fragments: usize,
    /// Fragments in the partition set.
    pub total_fragments: usize,
    /// Operator-state heap bytes.
    pub state_bytes: usize,
    /// Stale w.r.t. the current database?
    pub stale: bool,
    /// Rung on the advisor's lifecycle ladder.
    pub lifecycle: Lifecycle,
}

/// One row of [`Imp::sketch_states`]: the externally comparable state of
/// a stored sketch (the differential scheduler tests assert byte-identical
/// rows between the zero-worker store and worker pools).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SketchStateView {
    /// Canonical query template.
    pub template: String,
    /// Original SQL the sketch was captured for.
    pub sql: String,
    /// Database version the sketch is valid for.
    pub version: u64,
    /// The sketch bits.
    pub bits: BitVec,
}

impl Imp {
    /// Total heap footprint of all sketch state.
    pub fn store_heap_size(&self) -> usize {
        let mut total = 0;
        let _ = self.sched.visit(false, |store, _| {
            total += store
                .values()
                .flatten()
                .map(|e| e.maintainer.state_heap_size())
                .sum::<usize>();
            Ok(())
        });
        total
    }

    /// Comparable state of every stored sketch, sorted. Every worker
    /// count produces identical rows for identical maintenance histories
    /// (the scheduler's differential guarantee).
    pub fn sketch_states(&self) -> Vec<SketchStateView> {
        let mut out = Vec::new();
        let _ = self.sched.visit(false, |store, _| {
            for (template, entries) in store.iter() {
                out.extend(entries.iter().map(|e| SketchStateView {
                    template: template.text().to_string(),
                    sql: e.sql.clone(),
                    version: e.maintainer.version(),
                    bits: e.maintainer.sketch().bits().clone(),
                }));
            }
            Ok(())
        });
        out.sort();
        out
    }

    /// Run `apply` over the stored sketches — one template's candidates
    /// or (`None`) all of them — and sum its results.
    fn for_each_sketch(
        &mut self,
        template: Option<&QueryTemplate>,
        mut apply: impl FnMut(&mut StoredSketch) -> usize,
    ) -> usize {
        let mut total = 0;
        let _ = self.sched.visit(true, |store, _| {
            total += match template {
                Some(t) => store.get_mut(t).into_iter().flatten().map(&mut apply).sum(),
                None => store.values_mut().flatten().map(&mut apply).sum::<usize>(),
            };
            Ok(())
        });
        total
    }

    /// Evict the operator state of every stored sketch, freeing the
    /// in-memory structures (paper §2), and return the bytes freed. No
    /// sweep or eager batch brings the state back: each sketch's state is
    /// recaptured from the database by the next query that uses it (or
    /// by an advisor promotion).
    pub fn evict_all_states(&mut self) -> Result<usize> {
        Ok(self.for_each_sketch(None, evict_stored))
    }

    /// Evict the operator state of every sketch stored for one template
    /// (all constant-variant candidates), returning the bytes freed — the
    /// single-template counterpart of [`Self::evict_all_states`], used by
    /// the advisor autopilot and available for targeted memory pressure.
    /// Unknown templates free 0 bytes.
    pub fn evict_state(&mut self, template: &QueryTemplate) -> Result<usize> {
        Ok(self.for_each_sketch(Some(template), evict_stored))
    }

    /// Flush every stored sketch's annotation pool (the between-runs
    /// [`crate::maintain::POOL_FLUSH_LEN`] flush — see
    /// [`crate::maintain::SketchMaintainer::flush_pool_caches`] — exposed
    /// for memory-pressure callers and the heap-accounting tests). Returns
    /// the number of sketches flushed.
    pub fn flush_pool_caches(&mut self) -> usize {
        self.for_each_sketch(None, |entry| {
            entry.maintainer.flush_pool_caches();
            1
        })
    }

    /// Recapture every sketch with fresh equi-depth partitions — the §7.4
    /// response to a significant change in data distribution ("we can
    /// simply update the ranges and recapture sketches").
    pub fn repartition_all(&mut self) -> Result<usize> {
        let mut recaptured = 0;
        self.sched.visit(true, |store, db| {
            recaptured += repartition_store(store, db, self.config())?;
            Ok(())
        })?;
        Ok(recaptured)
    }

    /// VACUUM the backend: compact table storage and drop delta-log
    /// records that every stored sketch has already consumed. The horizon
    /// is per table — the minimum maintained version across the resident
    /// sketches *referencing* that table — so a low-traffic sketch does
    /// not pin every other table's log (maintained versions are
    /// table-local, see [`crate::maintain::SketchMaintainer::maintain`]).
    /// An evicted sketch pins nothing: its next run recaptures and reads
    /// no log. A table no resident sketch references has its log
    /// reclaimed entirely. Returns `(reclaimed row slots, dropped delta
    /// records)`.
    pub fn vacuum(&mut self) -> (usize, usize) {
        let mut horizons: FxHashMap<String, u64> = FxHashMap::default();
        let _ = self.sched.visit(false, |store, _| {
            for (table, version) in table_horizons(store.values().flatten()) {
                let v = horizons.entry(table).or_insert(version);
                *v = (*v).min(version);
            }
            Ok(())
        });
        let mut db = self.ctx().db.write();
        let everything = db.version();
        db.vacuum_by(|table| horizons.get(table).copied().unwrap_or(everything))
    }

    /// Summaries of all stored sketches (the store view of paper Fig. 2).
    pub fn describe_sketches(&self) -> Vec<SketchSummary> {
        let mut out = Vec::new();
        let _ = self.sched.visit(false, |store, db| {
            for (template, entries) in store.iter() {
                out.extend(entries.iter().map(|e| summarize(template, e, db)));
            }
            Ok(())
        });
        out.sort_by(|a: &SketchSummary, b| a.template.cmp(&b.template));
        out
    }

    /// Run one advisor autopilot pass (`advisor::autopilot`): score
    /// every stored sketch from the workload tracker, keep the best set
    /// under [`super::ImpConfig::sketch_memory_budget`], demote the
    /// losers along the lifecycle ladder (escalating until the store fits
    /// the budget), and promote re-hot demoted sketches back to full
    /// maintenance. A no-op (default report) when no budget is
    /// configured. The gather/apply steps run on this thread under the
    /// store's state lock.
    pub fn advise(&mut self) -> Result<AdvisorReport> {
        autopilot::advise(&self.sched, &self.advisor)
    }
}

/// Build the [`SketchSummary`] row for one stored sketch.
fn summarize(template: &QueryTemplate, e: &StoredSketch, db: &Database) -> SketchSummary {
    SketchSummary {
        template: template.text().to_string(),
        sql: e.sql.clone(),
        version: e.maintainer.version(),
        fragments: e.maintainer.sketch().fragment_count(),
        total_fragments: e.maintainer.partitions().total_fragments(),
        state_bytes: e.maintainer.state_heap_size(),
        stale: e.maintainer.is_stale(db),
        lifecycle: e.lifecycle,
    }
}
