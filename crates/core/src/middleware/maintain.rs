//! Fig. 2 (iii): updates, eager batches, and the one path of every run.

use super::{Imp, ImpResponse, StoredSketch};
use crate::advisor::{Lifecycle, SketchKey};
use crate::maintain::MaintReport;
use crate::ops::DbAccess;
use crate::sched::store::SchedShared;
use crate::strategy::MaintenanceStrategy;
use crate::Result;
use imp_engine::update::StatementResult;
use imp_sql::{QueryTemplate, Statement};
use imp_storage::FxHashMap;

impl Imp {
    pub(super) fn handle_update(&mut self, stmt: &Statement) -> Result<ImpResponse> {
        let _span = self.obs().span("update");
        let result = self.ctx().db.write().execute_statement(stmt)?;
        match result {
            StatementResult::Created => Ok(ImpResponse::Created),
            StatementResult::Explained(text) => Ok(ImpResponse::Explained(text)),
            StatementResult::Rows(_) => unreachable!("SELECT handled above"),
            StatementResult::Affected {
                table,
                count,
                version,
            } => {
                let maintenance = match self.config().strategy {
                    MaintenanceStrategy::Eager { batch_size } if self.sched.workers() == 0 => {
                        self.maintain_eager(&table, count, batch_size)?
                    }
                    // Nudge a worker to sweep (no workers: a no-op).
                    _ => {
                        self.sched.note_update();
                        Vec::new()
                    }
                };
                Ok(ImpResponse::Affected {
                    table,
                    count,
                    version,
                    maintenance,
                })
            }
        }
    }

    /// Eager batching on the updating thread: count `rows` against every
    /// proactively maintained sketch over `table`, and maintain each whose
    /// pending rows reached `batch_size`.
    fn maintain_eager(
        &self,
        table: &str,
        rows: u64,
        batch_size: usize,
    ) -> Result<Vec<MaintReport>> {
        let mut reports = Vec::new();
        self.sched.visit(true, |store, db| {
            for (template, entries) in store.iter_mut() {
                for entry in entries.iter_mut() {
                    if !entry.maintained_proactively()
                        || !entry.maintainer.tables().iter().any(|t| t == table)
                    {
                        continue;
                    }
                    entry.pending_rows += rows;
                    if entry.pending_rows as usize >= batch_size {
                        let db = &DbAccess::Held(db);
                        reports.push(maintain_entry(self.ctx(), entry, template, db)?);
                    }
                }
            }
            Ok(())
        })?;
        Ok(reports)
    }

    /// Maintain every stale sketch that is maintained proactively
    /// (`StoredSketch::maintained_proactively`: advisor-demoted and
    /// evicted sketches wait for a query that needs them), on this
    /// thread: one sweep of the store. A sketch whose run fails does not
    /// stop the sweep; the first error is returned once it is done.
    pub fn maintain_all_stale(&mut self) -> Result<Vec<MaintReport>> {
        self.sched.maintain_stale()
    }

    /// One background-maintenance tick: without workers it maintains the
    /// stale sketches [`Self::maintain_all_stale`] does, on this thread;
    /// with workers it nudges one worker to sweep and returns immediately,
    /// without blocking even while the workers are paused (the sweep runs
    /// off this thread).
    /// With a [`super::ImpConfig::sketch_memory_budget`] configured, every
    /// tick also runs one advisor autopilot pass ([`Self::advise`]).
    pub fn tick_maintenance(&mut self) -> Result<usize> {
        let maintained = if self.sched.workers() == 0 {
            self.maintain_all_stale()?.len()
        } else {
            self.sched.kick_maintenance();
            0
        };
        if self.config().sketch_memory_budget.is_some() {
            self.advise()?;
        }
        Ok(maintained)
    }
}

impl StoredSketch {
    /// Do sweeps and eager batches maintain this sketch? Only on the
    /// [`Lifecycle::Maintained`] rung with its state resident: a demoted or
    /// evicted sketch is maintained or recaptured only by a query that
    /// uses it, or by an advisor promotion.
    pub(crate) fn maintained_proactively(&self) -> bool {
        self.lifecycle == Lifecycle::Maintained && self.evicted.is_none()
    }
}

/// Run one stored sketch and book the run: the one path of every
/// maintenance (stale queries, sweeps, eager batches, advisor
/// promotions). Evicted state is recaptured from the database
/// (`SketchMaintainer::full_maintain`; a failure leaves it evicted, so
/// the next run retries); anything else is maintained through the
/// fetching path. The run is booked once: a latency sample, the
/// advisor's cost window and `imp_sched_maintain_runs`.
pub(crate) fn maintain_entry(
    ctx: &SchedShared,
    entry: &mut StoredSketch,
    template: &QueryTemplate,
    db: &DbAccess<'_>,
) -> Result<MaintReport> {
    let report = if entry.evicted.is_some() {
        let report = entry.maintainer.full_maintain(db.get())?;
        entry.evicted = None;
        report
    } else {
        // A store with workers splits a sketch's statements into runs by
        // timing; see `SketchMaintainer::maintain_with`.
        entry
            .maintainer
            .maintain_with(db, ctx.config.sched_workers > 0)?
    };
    entry.pending_rows = 0;
    let nanos = report.duration.as_nanos() as u64;
    ctx.obs.maintain_observed_spanned(template.text(), nanos);
    ctx.tracker.record_maintenance(
        SketchKey::new(template.text(), entry.sql.clone()),
        report.metrics.delta_rows_fetched,
    );
    ctx.metrics.maintain_runs.inc();
    Ok(report)
}

/// Evict one sketch's operator state, returning the bytes freed (0 when
/// already evicted).
pub(crate) fn evict_stored(entry: &mut StoredSketch) -> usize {
    if entry.evicted.is_some() {
        return 0;
    }
    let before = entry.maintainer.state_heap_size();
    entry.maintainer.drop_state();
    let freed = before - entry.maintainer.state_heap_size();
    entry.evicted = Some(freed);
    freed
}

/// Per table, the minimum maintained version across the resident
/// `entries` referencing it — the table's vacuum horizon.
pub(super) fn table_horizons<'a>(
    entries: impl Iterator<Item = &'a StoredSketch>,
) -> FxHashMap<String, u64> {
    let mut mins = FxHashMap::default();
    for e in entries.filter(|e| e.evicted.is_none()) {
        for table in e.maintainer.tables() {
            let v = mins.entry(table.clone()).or_insert(u64::MAX);
            *v = (*v).min(e.maintainer.version());
        }
    }
    mins
}
