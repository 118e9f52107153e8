//! Output checks: what makes an op count as failed.
//!
//! * every `CHECK_EVERY`-th query's result must equal the unrewritten
//!   plan's result on the same database (sketch safety, Def. 4.2);
//! * after the final catch-up every stored sketch must equal a fresh
//!   `imp_sketch::capture` on the final database (Thm. 6.1).

use imp_core::middleware::SketchStateView;
use imp_engine::{Database, QueryResult};
use imp_sketch::{capture, safe_attributes, PartitionSet, RangePartition};
use imp_sql::LogicalPlan;
use imp_storage::{FxHashSet, Value};
use std::sync::Arc;

/// Failed ops of one pass: how many, and what the first few were (for the
/// human-readable report).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Failures {
    pub count: u64,
    pub first: Vec<String>,
}

impl Failures {
    pub fn record(&mut self, what: String) {
        self.count += 1;
        if self.first.len() < 5 {
            self.first.push(what);
        }
    }

    pub fn absorb(&mut self, other: &Failures) {
        self.count += other.count;
        let room = 5usize.saturating_sub(self.first.len());
        self.first.extend(other.first.iter().take(room).cloned());
    }
}

/// Every how many queries the unrewritten plan is run as the oracle.
pub const CHECK_EVERY: usize = 50;

/// One captured query text: its resolved plan and the partitions `Imp`
/// chose for it at set-up time (ranges are equi-depth over the *initial*
/// data, so they must be computed before the first update).
pub struct Template {
    pub sql: String,
    pub plan: LogicalPlan,
    pub pset: Arc<PartitionSet>,
}

/// The partition choice of `Imp`'s capture path under `ImpConfig::default()`
/// (no overrides): per table, the safe attribute with the most distinct
/// values among the first 4096 rows, `fragments` equi-depth ranges. Rebuilt
/// here from public functions because the middleware's own is private; the
/// final-state check fails loudly if the two ever drift apart.
pub fn choose_partitions(
    db: &Database,
    plan: &LogicalPlan,
    fragments: usize,
) -> Option<Arc<PartitionSet>> {
    let safe = safe_attributes(plan);
    let mut partitions = Vec::new();
    for table in plan.tables() {
        let mut candidates: Vec<_> = safe.iter().filter(|s| s.table == table).collect();
        if candidates.len() > 1 {
            candidates.sort_by_key(|s| std::cmp::Reverse(sampled_distinct(db, &table, s.column)));
        }
        if let Some(best) = candidates.first() {
            partitions.push(
                RangePartition::equi_depth(db, &table, &best.attribute, fragments)
                    .expect("safe attribute exists in its table"),
            );
        }
    }
    if partitions.is_empty() {
        return None;
    }
    Some(Arc::new(
        PartitionSet::new(partitions).expect("one partition per table"),
    ))
}

fn sampled_distinct(db: &Database, table: &str, column: usize) -> usize {
    const SAMPLE: usize = 4096;
    let mut seen: FxHashSet<Value> = FxHashSet::default();
    let mut n = 0usize;
    db.table(table).expect("plan tables exist").scan(
        None,
        |row| {
            if n < SAMPLE {
                seen.insert(row[column].clone());
                n += 1;
            }
        },
        |_| {},
    );
    seen.len()
}

/// Resolve and partition every warm-up query against the initial database.
pub fn templates(db: &Database, queries: &[&str], fragments: usize) -> Vec<Template> {
    queries
        .iter()
        .map(|sql| {
            let plan = db.plan_sql(sql).expect("generated queries resolve");
            let pset = choose_partitions(db, &plan, fragments)
                .expect("every benchmark query has a safe attribute");
            Template {
                sql: sql.to_string(),
                plan,
                pset,
            }
        })
        .collect()
}

/// Does a sketch-answered result equal the unrewritten plan's result?
pub fn result_matches(db: &Database, plan: &LogicalPlan, got: &QueryResult) -> bool {
    match db.execute_plan(plan) {
        Ok(truth) => truth.canonical() == got.canonical(),
        Err(_) => false,
    }
}

/// Number of stored sketches that differ from a fresh capture on `db`
/// (or that no template accounts for), plus missing ones.
pub fn stale_sketches(db: &Database, templates: &[Template], states: &[SketchStateView]) -> u64 {
    let mut bad = templates.len().saturating_sub(states.len()) as u64;
    for state in states {
        let fresh = templates
            .iter()
            .find(|t| t.sql == state.sql)
            .and_then(|t| capture(&t.plan, db, &t.pset).ok());
        if fresh.is_none_or(|c| c.sketch.bits() != &state.bits) {
            bad += 1;
        }
    }
    bad
}
