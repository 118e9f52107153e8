//! Fig. 2 (i): capture a new sketch, on partitions chosen per §7.4.

use super::{ImpConfig, Store, StoredSketch};
use crate::advisor::Lifecycle;
use crate::error::CoreError;
use crate::maintain::SketchMaintainer;
use crate::Result;
use imp_engine::{Bag, Database, ExecStats, QueryResult};
use imp_sketch::{safety, PartitionSet, RangePartition};
use imp_sql::{LogicalPlan, QueryTemplate};
use std::sync::Arc;

/// Capture a sketch for `plan` and package it as a [`StoredSketch`] plus
/// the (ordered) query result the capture produced.
pub(crate) fn capture_stored(
    db: &Database,
    config: &ImpConfig,
    sql: &str,
    plan: LogicalPlan,
    pset: Arc<PartitionSet>,
) -> Result<(StoredSketch, QueryResult)> {
    let (maintainer, rows) = SketchMaintainer::capture(
        &plan,
        db,
        pset,
        config.op_config(),
        config.selection_pushdown,
    )?;
    let result = QueryResult {
        schema: plan.schema(),
        rows: order_result(&plan, rows),
        stats: ExecStats::default(),
    };
    let stored = StoredSketch {
        sql: sql.to_string(),
        plan,
        maintainer,
        pending_rows: 0,
        evicted: None,
        lifecycle: Lifecycle::Maintained,
        published: None,
    };
    Ok((stored, result))
}

/// Recapture every sketch of `store` with fresh equi-depth
/// partitions (§7.4).
pub(crate) fn repartition_store(
    store: &mut Store,
    db: &Database,
    config: &ImpConfig,
) -> Result<usize> {
    let templates: Vec<QueryTemplate> = store.keys().cloned().collect();
    let mut recaptured = 0usize;
    for template in templates {
        let Some(entries) = store.remove(&template) else {
            continue;
        };
        let mut rebuilt = Vec::with_capacity(entries.len());
        for old in entries {
            let Some(pset) = choose_partitions(db, config, &old.plan)? else {
                continue;
            };
            let (maintainer, _) = SketchMaintainer::capture(
                &old.plan,
                db,
                pset,
                config.op_config(),
                config.selection_pushdown,
            )?;
            recaptured += 1;
            rebuilt.push(StoredSketch {
                maintainer,
                pending_rows: 0,
                evicted: None,
                ..old
            });
        }
        if !rebuilt.is_empty() {
            store.insert(template, rebuilt);
        }
    }
    Ok(recaptured)
}

/// Choose partition attributes per table (§7.4 heuristic: safe
/// attributes — for aggregation queries exactly the group-by columns —
/// ranked by sampled distinct count, following the cost-based insight
/// of [30] that finer-grained attributes yield more selective sketches).
pub(crate) fn choose_partitions(
    db: &Database,
    config: &ImpConfig,
    plan: &LogicalPlan,
) -> Result<Option<Arc<PartitionSet>>> {
    let safe = safety::safe_attributes(plan);
    let mut partitions = Vec::new();
    for table in plan.tables() {
        // Explicit override first.
        let chosen: Option<String> = config
            .partition_overrides
            .iter()
            .find(|(t, _)| t.eq_ignore_ascii_case(&table))
            .map(|(_, a)| a.clone())
            .or_else(|| {
                let mut candidates: Vec<&safety::SafeAttribute> =
                    safe.iter().filter(|s| s.table == table).collect();
                if candidates.len() > 1 {
                    candidates
                        .sort_by_key(|s| std::cmp::Reverse(sampled_distinct(db, &table, s.column)));
                }
                candidates.first().map(|s| s.attribute.clone())
            });
        let Some(attribute) = chosen else {
            continue; // table stays unpartitioned (whole-domain range)
        };
        let overridden = config
            .partition_overrides
            .iter()
            .any(|(t, _)| t.eq_ignore_ascii_case(&table));
        if !overridden
            || safety::is_safe(plan, &table, &attribute)
            || config.allow_unsafe_attributes
        {
            let fragments = config.fragments;
            partitions.push(RangePartition::equi_depth(
                db, &table, &attribute, fragments,
            )?);
        } else {
            return Err(CoreError::Sketch(
                imp_sketch::SketchError::UnsafeAttribute {
                    table: table.clone(),
                    attribute,
                },
            ));
        }
    }
    if partitions.is_empty() {
        return Ok(None);
    }
    Ok(Some(Arc::new(PartitionSet::new(partitions)?)))
}

/// Sampled distinct-value count of `table.column` (first few thousand
/// rows) — the ranking signal for partition-attribute choice.
pub(crate) fn sampled_distinct(db: &Database, table: &str, column: usize) -> usize {
    const SAMPLE: usize = 4096;
    let Ok(t) = db.table(table) else {
        return 0;
    };
    let seen: imp_storage::FxHashSet<imp_storage::Value> =
        t.column_values(column).take(SAMPLE).collect();
    seen.len()
}

/// Order a capture result the way the plan's top Sort/TopK demands (the
/// incremental pipeline is order-agnostic).
fn order_result(plan: &LogicalPlan, mut rows: Bag) -> Bag {
    match plan {
        LogicalPlan::Sort { keys, .. } | LogicalPlan::TopK { keys, .. } => {
            rows.sort_by(|a, b| {
                imp_sql::plan::compare_rows(&a.0, &b.0, keys).then_with(|| a.0.cmp(&b.0))
            });
            rows
        }
        _ => rows,
    }
}
