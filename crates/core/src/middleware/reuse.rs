//! Fig. 2 (ii)/(iii): answer a query from a stored sketch, or capture one.

use super::capture::{capture_stored, choose_partitions};
use super::{Imp, ImpResponse, QueryMode};
use crate::advisor::{SketchKey, UseKind};
use crate::maintain::is_stale;
use crate::Result;
use imp_engine::{Database, EngineError};
use imp_sketch::{apply_sketch_filter, SketchSet};
use imp_sql::ast::BinOp;
use imp_sql::{Expr, LogicalPlan, QueryTemplate, Resolver, SelectStmt};

impl Imp {
    pub(super) fn handle_select(&mut self, sql: &str, select: &SelectStmt) -> Result<ImpResponse> {
        let _span = self.obs().span("select");
        let start = std::time::Instant::now();
        let template = QueryTemplate::of(select);
        let plan = Resolver::new(&*self.db())
            .resolve_select(select)
            .map_err(EngineError::from)?;
        let response = self.select(sql, template, plan)?;
        if let ImpResponse::Rows { mode, .. } = &response {
            let label = match mode {
                QueryMode::NoSketch => "none",
                QueryMode::Captured => "capture",
                QueryMode::UsedFresh => "fresh",
                QueryMode::Maintained(_) => "maintained",
            };
            self.obs()
                .query_observed(label, start.elapsed().as_nanos() as u64);
        }
        Ok(response)
    }

    /// The (i)/(ii)/(iii) decision of paper Fig. 2. The candidate is read
    /// from the published snapshot, without blocking maintenance; only a
    /// stale candidate takes the store's state lock,
    /// to maintain that one sketch on this thread.
    fn select(&self, sql: &str, template: QueryTemplate, plan: LogicalPlan) -> Result<ImpResponse> {
        // (ii)/(iii): an existing sketch with the same template — the
        // reuse condition (from [37]; here: structural subsumption) is
        // checked against every stored candidate.
        if let Some(published) = self.sched.find_published(&template, &plan) {
            let stale = is_stale(&self.db(), &published.tables, published.version);
            let used = if stale {
                // (iii): maintain it here (or find that a sweep did).
                // `None`: the candidate vanished since the snapshot; fall
                // through to a fresh capture.
                self.sched.maintain_sketch(&template, &plan)?
            } else {
                // (ii): the published snapshot as-is. Evicted state stays
                // evicted: the rewrite only needs the sketch bits.
                Some((published.sketch, QueryMode::UsedFresh))
            };
            if let Some((sketch, mode)) = used {
                let kind = match &mode {
                    QueryMode::Maintained(_) => UseKind::Maintained,
                    _ => UseKind::Fresh,
                };
                let db = self.db();
                self.advisor.tracker().record_use(
                    SketchKey::new(template.text(), published.sql.to_string()),
                    kind,
                    estimate_rows_skipped(&db, &sketch),
                );
                let rewritten = apply_sketch_filter(&plan, &sketch)?;
                let result = db.execute_plan(&rewritten)?;
                return Ok(ImpResponse::Rows { result, mode });
            }
        }

        // (i): capture a new sketch — pick partition attributes.
        let (stored, result) = {
            let db = self.db();
            let Some(pset) = choose_partitions(&db, self.config(), &plan)? else {
                // No sketchable attribute: answer directly (NS path).
                let result = db.execute_plan(&plan)?;
                return Ok(ImpResponse::Rows {
                    result,
                    mode: QueryMode::NoSketch,
                });
            };
            let (stored, result) = capture_stored(&db, self.config(), sql, plan, pset)?;
            self.advisor.tracker().record_use(
                SketchKey::new(template.text(), stored.sql.clone()),
                UseKind::Captured,
                estimate_rows_skipped(&db, stored.maintainer.sketch()),
            );
            (stored, result)
        };
        self.sched.add_sketch(template, stored);
        Ok(ImpResponse::Rows {
            result,
            mode: QueryMode::Captured,
        })
    }
}

/// Estimate the backend rows a rewrite with this sketch skips, summed
/// over its partitioned tables: per-partition sketch selectivity × the
/// table's equi-depth fragment shares (see
/// [`imp_engine::estimate_skipped_rows`]). The advisor's per-use benefit
/// signal.
fn estimate_rows_skipped(db: &Database, sketch: &SketchSet) -> u64 {
    let pset = sketch.partitions();
    let mut skipped = 0u64;
    for i in 0..pset.len() {
        let p = pset.partition(i);
        let rows = db.table(&p.table).map(|t| t.row_count()).unwrap_or(0);
        skipped += imp_engine::estimate_skipped_rows(rows, sketch.partition_selectivity(i));
    }
    skipped
}

/// Reuse check: can the sketch captured for `stored` answer `new`?
///
/// Both plans share a query template (same structure modulo literals).
/// The provenance of `new` must be contained in `stored`'s sketch; we
/// accept when all literals match except in HAVING-style filters above the
/// aggregation, where the new predicate may only be *more* selective
/// (e.g. a sketch for `HAVING sum(x) > 5000` answers `HAVING sum(x) > 6000`,
/// cf. \[37\]'s reuse test).
pub fn plan_subsumes(stored: &LogicalPlan, new: &LogicalPlan) -> bool {
    match (stored, new) {
        (
            LogicalPlan::Filter {
                input: si,
                predicate: sp,
            },
            LogicalPlan::Filter {
                input: ni,
                predicate: np,
            },
        ) => {
            let above_agg = matches!(si.as_ref(), LogicalPlan::Aggregate { .. });
            let pred_ok = if above_agg {
                predicate_subsumes(sp, np)
            } else {
                sp == np
            };
            pred_ok && plan_subsumes(si, ni)
        }
        (
            LogicalPlan::Project {
                input: si,
                exprs: se,
                ..
            },
            LogicalPlan::Project {
                input: ni,
                exprs: ne,
                ..
            },
        ) => se == ne && plan_subsumes(si, ni),
        (
            LogicalPlan::Join {
                left: sl,
                right: sr,
                left_keys: slk,
                right_keys: srk,
            },
            LogicalPlan::Join {
                left: nl,
                right: nr,
                left_keys: nlk,
                right_keys: nrk,
            },
        ) => slk == nlk && srk == nrk && plan_subsumes(sl, nl) && plan_subsumes(sr, nr),
        (
            LogicalPlan::Aggregate {
                input: si,
                group_by: sg,
                aggs: sa,
                ..
            },
            LogicalPlan::Aggregate {
                input: ni,
                group_by: ng,
                aggs: na,
                ..
            },
        ) => sg == ng && sa == na && plan_subsumes(si, ni),
        (LogicalPlan::Distinct { input: si }, LogicalPlan::Distinct { input: ni }) => {
            plan_subsumes(si, ni)
        }
        (
            LogicalPlan::Sort {
                input: si,
                keys: sk,
            },
            LogicalPlan::Sort {
                input: ni,
                keys: nk,
            },
        ) => sk == nk && plan_subsumes(si, ni),
        (
            LogicalPlan::TopK {
                input: si,
                keys: sk,
                k: skk,
            },
            LogicalPlan::TopK {
                input: ni,
                keys: nk,
                k: nkk,
            },
        ) => sk == nk && skk == nkk && plan_subsumes(si, ni),
        (a, b) => a == b,
    }
}

/// Is `new` at least as selective as `stored` for every comparison?
fn predicate_subsumes(stored: &Expr, new: &Expr) -> bool {
    match (stored, new) {
        (
            Expr::Binary {
                op: sop,
                left: sl,
                right: sr,
            },
            Expr::Binary {
                op: nop,
                left: nl,
                right: nr,
            },
        ) if sop == nop => match (sop, sl.as_ref(), nl.as_ref(), sr.as_ref(), nr.as_ref()) {
            // col ⋈ literal with matching column.
            (BinOp::Gt | BinOp::Ge, Expr::Col(sc), Expr::Col(nc), Expr::Lit(sv), Expr::Lit(nv))
                if sc == nc =>
            {
                nv >= sv
            }
            (BinOp::Lt | BinOp::Le, Expr::Col(sc), Expr::Col(nc), Expr::Lit(sv), Expr::Lit(nv))
                if sc == nc =>
            {
                nv <= sv
            }
            (BinOp::And | BinOp::Or, _, _, _, _) => {
                predicate_subsumes(sl, nl) && predicate_subsumes(sr, nr)
            }
            _ => stored == new,
        },
        (a, b) => a == b,
    }
}
