//! The lifecycle autopilot: plan demotions/promotions, apply them to a
//! sketch store.
//!
//! Every stored sketch sits on a rung of the **lifecycle ladder**:
//!
//! ```text
//!   Maintained ──▶ Lazy ──▶ Evicted ──▶ dropped
//!        ▲__________│___________│    (promotion maintains a lazy sketch
//!                                     and recaptures an evicted one, so
//!                                     the sketch lands byte-identical to
//!                                     one that was never demoted)
//! ```
//!
//! * **Maintained** — proactively maintained: eager batches and the
//!   sweeps of tick and worker alike include it, unless
//!   `Imp::evict_state` dropped its state (then, like an evicted one, it
//!   waits for a query or a promotion to recapture it).
//! * **Lazy** — state stays in memory but nothing maintains it
//!   proactively; the first query that needs it maintains it on demand
//!   (split-invariant versioning makes the result identical to eager
//!   upkeep).
//! * **Evicted** — operator state is dropped (the paper's §2 eviction
//!   hook) and nothing of it is kept; the sketch bits stay available for
//!   fresh reuse, and the next run that needs the state — a stale query
//!   or a promotion — recaptures it from the database
//!   ([`crate::maintain::SketchMaintainer::full_maintain`]). An evicted
//!   sketch pins no delta-log record.
//! * **dropped** — the sketch leaves the store entirely (its tracker
//!   stats go too); a re-hot template re-captures on its next query and
//!   re-enters the ladder at `Maintained` with a fresh capture-seeded
//!   grace window.
//!
//! One [`plan_round`] demotes the losers of the budgeted selection a
//! single rung — gentle by default — and escalates (straight to
//! `Evicted`, then to drop) on the enforcement rounds
//! [`advise`] runs while the store is still over budget.
//! Decisions only ever change *cost*: demoted sketches answer queries
//! through the same on-demand maintenance/recapture/capture paths the
//! store already has, so answers are bit-for-bit unchanged.

use crate::advisor::cost::AdvisorParams;
use crate::advisor::select::{select_keep, Candidate};
use crate::advisor::tracker::{SketchKey, WorkloadTracker};
use crate::advisor::{AdvisorReport, MAX_ENFORCEMENT_ROUNDS};
use crate::middleware::{evict_stored, maintain_entry, Store, StoredSketch};
use crate::ops::DbAccess;
use crate::sched::store::SchedShared;
use crate::sched::Scheduler;
use crate::Result;
use imp_engine::Database;
use imp_sql::QueryTemplate;

/// A stored sketch's rung on the advisor's lifecycle ladder (dropped
/// sketches are removed from the store, so they need no variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Lifecycle {
    /// Proactively maintained (the default for every capture).
    #[default]
    Maintained,
    /// In memory, but only maintained on demand by a query.
    Lazy,
    /// Operator state dropped; recaptured on demand.
    Evicted,
}

impl Lifecycle {
    /// The next rung down the ladder (`None` = drop).
    pub fn demoted(self) -> Option<Lifecycle> {
        match self {
            Lifecycle::Maintained => Some(Lifecycle::Lazy),
            Lifecycle::Lazy => Some(Lifecycle::Evicted),
            Lifecycle::Evicted => None,
        }
    }

    /// Short display label (summaries, harness tables).
    pub fn label(self) -> &'static str {
        match self {
            Lifecycle::Maintained => "maintained",
            Lifecycle::Lazy => "lazy",
            Lifecycle::Evicted => "evicted",
        }
    }
}

/// The advisor-relevant view of one stored sketch, gathered under the
/// store's state lock.
#[derive(Debug, Clone)]
pub struct SketchCard {
    /// Store key.
    pub template: QueryTemplate,
    /// Original SQL of the capturing query (candidate identity within the
    /// template).
    pub sql: String,
    /// Current lifecycle rung.
    pub lifecycle: Lifecycle,
    /// Resident heap bytes right now (the budget is enforced against the
    /// sum of these, matching `Imp::store_heap_size`).
    pub resident: usize,
    /// Heap bytes the sketch costs *if kept maintained*: the resident
    /// footprint plus, for evicted sketches, the state bytes the eviction
    /// freed as a proxy for what a recapture brings back. The knapsack must
    /// price a promotion at its full cost — admitting an evicted sketch
    /// by its residual would promote it, overflow the budget, and
    /// re-evict it next round (thrash).
    pub heap: usize,
}

impl SketchCard {
    /// The tracker key of this sketch.
    pub fn key(&self) -> SketchKey {
        SketchKey::new(self.template.text(), self.sql.clone())
    }
}

/// What to do with one stored sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdviseOp {
    /// Move down to the given rung (strictly below the current one).
    Demote(Lifecycle),
    /// Remove the sketch from the store.
    Drop,
    /// Restore/maintain to current and mark [`Lifecycle::Maintained`].
    Promote,
}

/// One planned action, addressed by store identity.
#[derive(Debug, Clone)]
pub struct AdviseAction {
    /// Store key.
    pub template: QueryTemplate,
    /// Candidate identity within the template.
    pub sql: String,
    /// The operation.
    pub op: AdviseOp,
}

/// One planned round: the actions plus how many sketches the knapsack
/// kept.
#[derive(Debug, Clone, Default)]
pub struct PlannedRound {
    /// Actions to apply (may be empty — the store is already settled).
    pub actions: Vec<AdviseAction>,
    /// Size of the keep-set.
    pub kept: usize,
}

/// Plan one autopilot round over the gathered cards.
///
/// `escalation` is 0 for the regular pass (losers demote one rung,
/// keepers promote) and rises on the enforcement rounds the advisor runs
/// while the store is still over budget: 1 forces losers at least to
/// [`Lifecycle::Evicted`], ≥ 2 drops them. Promotions only happen at
/// escalation 0 — enforcement must never grow the store.
pub fn plan_round(
    cards: &[SketchCard],
    tracker: &WorkloadTracker,
    params: &AdvisorParams,
    budget: usize,
    escalation: u32,
) -> PlannedRound {
    let candidates: Vec<Candidate> = cards
        .iter()
        .enumerate()
        .map(|(index, card)| {
            let mut score = params.score(&tracker.get(&card.key()), card.heap);
            if card.lifecycle != Lifecycle::Maintained {
                // Promotion hysteresis: challengers must beat incumbents
                // by a margin, or equal workloads flap every pass.
                score *= params.promote_margin;
            }
            Candidate {
                index,
                score,
                heap: card.heap,
            }
        })
        .collect();
    let kept = select_keep(&candidates, budget);
    let mut actions = Vec::new();
    let mut kept_iter = kept.iter().peekable();
    for (index, card) in cards.iter().enumerate() {
        let is_kept = kept_iter.peek() == Some(&&index);
        if is_kept {
            kept_iter.next();
            if card.lifecycle != Lifecycle::Maintained && escalation == 0 {
                actions.push(AdviseAction {
                    template: card.template.clone(),
                    sql: card.sql.clone(),
                    op: AdviseOp::Promote,
                });
            }
            continue;
        }
        let op = match escalation {
            0 => match card.lifecycle.demoted() {
                Some(rung) => AdviseOp::Demote(rung),
                None => AdviseOp::Drop,
            },
            1 => match card.lifecycle {
                Lifecycle::Maintained | Lifecycle::Lazy => AdviseOp::Demote(Lifecycle::Evicted),
                Lifecycle::Evicted => AdviseOp::Drop,
            },
            _ => AdviseOp::Drop,
        };
        actions.push(AdviseAction {
            template: card.template.clone(),
            sql: card.sql.clone(),
            op,
        });
    }
    PlannedRound {
        actions,
        kept: kept.len(),
    }
}

/// Outcome of applying a batch of actions to the store (summed across
/// enforcement rounds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// Sketches newly marked [`Lifecycle::Lazy`].
    pub demoted_lazy: usize,
    /// Sketches whose operator state was evicted.
    pub evicted: usize,
    /// Sketches removed from the store.
    pub dropped: usize,
    /// Sketches recaptured/maintained back to [`Lifecycle::Maintained`].
    pub promoted: usize,
    /// Heap bytes freed by evicting operator state.
    pub freed_bytes: usize,
}

impl ApplyOutcome {
    /// Merge another outcome (a later round's).
    pub fn absorb(&mut self, other: &ApplyOutcome) {
        self.demoted_lazy += other.demoted_lazy;
        self.evicted += other.evicted;
        self.dropped += other.dropped;
        self.promoted += other.promoted;
        self.freed_bytes += other.freed_bytes;
    }

    /// Did any action demote (including drops)?
    pub fn any_demotion(&self) -> bool {
        self.demoted_lazy + self.evicted + self.dropped > 0
    }
}

/// One autopilot pass over `sched`'s store (see
/// [`crate::middleware::Imp::advise`]): the regular round, then
/// enforcement rounds while the store is over the configured budget.
/// Each round gathers the cards, plans, and applies on the calling
/// thread under the state lock. A no-op without a budget.
pub(crate) fn advise(sched: &Scheduler) -> Result<AdvisorReport> {
    let ctx = sched.ctx();
    let Some(budget) = ctx.config.sketch_memory_budget else {
        return Ok(AdvisorReport::default());
    };
    let mut report = AdvisorReport {
        budget,
        ..AdvisorReport::default()
    };
    let tracker = &ctx.tracker;
    let mut applied_last = false;
    for escalation in 0..=MAX_ENFORCEMENT_ROUNDS {
        // One gather per round serves both planning and the budget
        // check — the cards' resident sum equals `store_heap_size`.
        let cards = gather_cards(sched);
        let resident: usize = cards.iter().map(|c| c.resident).sum();
        if escalation == 0 {
            report.heap_before = resident;
            // Prune tracker entries orphaned by store removals, so
            // the tracker stays bounded by the live store.
            let live: imp_storage::FxHashSet<SketchKey> =
                cards.iter().map(SketchCard::key).collect();
            tracker.retain_live(&live);
        }
        report.heap_after = resident;
        applied_last = false;
        if escalation > 0 && resident <= budget {
            break;
        }
        let planned = plan_round(&cards, tracker, &ctx.config.advisor, budget, escalation);
        if escalation == 0 {
            // The regular round consumed the hot windows; cool them so
            // benefit/cost estimates are moving averages over passes.
            tracker.decay();
        }
        report.kept = planned.kept;
        if planned.actions.is_empty() {
            break;
        }
        report.rounds = escalation + 1;
        sched.visit(true, |store, db| {
            let outcome = apply_to_store(store, db, sched.ctx(), &planned.actions)?;
            report.outcome.absorb(&outcome);
            Ok(())
        })?;
        applied_last = true;
    }
    if applied_last {
        // The final permitted round still applied actions: re-measure
        // so the report reflects the settled store.
        report.heap_after = gather_cards(sched).iter().map(|c| c.resident).sum();
    }
    Ok(report)
}

/// The advisor's view of every stored sketch, sorted by store key so
/// every worker count (and repeated passes) plans over identical
/// orders.
fn gather_cards(sched: &Scheduler) -> Vec<SketchCard> {
    let mut cards = Vec::new();
    let _ = sched.visit(false, |store, _| {
        for (template, entries) in store.iter() {
            cards.extend(entries.iter().map(|e| advisor_card(template, e)));
        }
        Ok(())
    });
    cards
        .sort_by(|a: &SketchCard, b| (a.template.text(), &a.sql).cmp(&(b.template.text(), &b.sql)));
    cards
}

/// Build the advisor's [`SketchCard`] for one stored sketch. The card's
/// `heap` prices the sketch at its *kept-maintained* footprint:
/// resident bytes plus, when evicted, the state bytes the eviction freed
/// (the proxy for what a recapture brings back).
fn advisor_card(template: &QueryTemplate, e: &StoredSketch) -> SketchCard {
    let resident = e.maintainer.state_heap_size();
    SketchCard {
        template: template.clone(),
        sql: e.sql.clone(),
        lifecycle: e.lifecycle,
        resident,
        heap: resident + e.evicted.unwrap_or(0),
    }
}

/// Apply planned actions to the sketch store. Actions addressing
/// sketches the store does not hold (dropped in between) are skipped.
/// A promotion is one run of [`maintain_entry`] (booked like any other)
/// when the sketch is evicted or stale; its errors propagate.
fn apply_to_store(
    store: &mut Store,
    db: &Database,
    ctx: &SchedShared,
    actions: &[AdviseAction],
) -> Result<ApplyOutcome> {
    let mut outcome = ApplyOutcome::default();
    for action in actions {
        let Some(entries) = store.get_mut(&action.template) else {
            continue;
        };
        let Some(pos) = entries.iter().position(|e| e.sql == action.sql) else {
            continue;
        };
        match action.op {
            AdviseOp::Demote(Lifecycle::Maintained) => {
                debug_assert!(false, "Demote(Maintained) is not a demotion");
            }
            AdviseOp::Demote(Lifecycle::Lazy) => {
                entries[pos].lifecycle = Lifecycle::Lazy;
                outcome.demoted_lazy += 1;
            }
            AdviseOp::Demote(Lifecycle::Evicted) => {
                let entry = &mut entries[pos];
                entry.lifecycle = Lifecycle::Evicted;
                outcome.freed_bytes += evict_stored(entry);
                outcome.evicted += 1;
            }
            AdviseOp::Drop => {
                entries.remove(pos);
                if entries.is_empty() {
                    store.remove(&action.template);
                }
                // The stats go too, or ad-hoc templates would grow the
                // tracker without bound; a re-capture starts a fresh
                // entry with the capture-seeded grace window.
                let key = SketchKey::new(action.template.text(), action.sql.clone());
                ctx.tracker.forget(&key);
                outcome.dropped += 1;
            }
            AdviseOp::Promote => {
                let entry = &mut entries[pos];
                if entry.evicted.is_some() || entry.maintainer.is_stale(db) {
                    maintain_entry(ctx, entry, &action.template, &DbAccess::Held(db))?;
                }
                entry.lifecycle = Lifecycle::Maintained;
                outcome.promoted += 1;
            }
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::tracker::UseKind;

    fn card(name: &str, lifecycle: Lifecycle, heap: usize) -> SketchCard {
        let stmt = imp_sql::parse_one(&format!("SELECT a FROM {name} WHERE a > 1")).unwrap();
        let imp_sql::Statement::Select(sel) = stmt else {
            unreachable!()
        };
        SketchCard {
            template: QueryTemplate::of(&sel),
            sql: format!("SELECT a FROM {name} WHERE a > 1"),
            lifecycle,
            resident: heap,
            heap,
        }
    }

    #[test]
    fn ladder_descends_one_rung_then_drops() {
        assert_eq!(Lifecycle::Maintained.demoted(), Some(Lifecycle::Lazy));
        assert_eq!(Lifecycle::Lazy.demoted(), Some(Lifecycle::Evicted));
        assert_eq!(Lifecycle::Evicted.demoted(), None);
    }

    #[test]
    fn losers_step_down_and_keepers_promote() {
        let tracker = WorkloadTracker::new();
        let params = AdvisorParams::default();
        let hot = card("hot", Lifecycle::Lazy, 100);
        let cold = card("cold", Lifecycle::Maintained, 100);
        tracker.record_use(hot.key(), UseKind::Fresh, 100_000);
        let round = plan_round(&[hot.clone(), cold.clone()], &tracker, &params, 1_000, 0);
        assert_eq!(round.kept, 1);
        assert_eq!(round.actions.len(), 2);
        assert!(round
            .actions
            .iter()
            .any(|a| a.sql == hot.sql && a.op == AdviseOp::Promote));
        assert!(round
            .actions
            .iter()
            .any(|a| a.sql == cold.sql && a.op == AdviseOp::Demote(Lifecycle::Lazy)));
    }

    #[test]
    fn escalation_jumps_rungs() {
        let tracker = WorkloadTracker::new();
        let params = AdvisorParams::default();
        let cards = [
            card("m", Lifecycle::Maintained, 100),
            card("l", Lifecycle::Lazy, 100),
            card("e", Lifecycle::Evicted, 100),
        ];
        let r1 = plan_round(&cards, &tracker, &params, 0, 1);
        assert!(r1
            .actions
            .iter()
            .all(|a| matches!(a.op, AdviseOp::Demote(Lifecycle::Evicted) | AdviseOp::Drop)));
        let r2 = plan_round(&cards, &tracker, &params, 0, 2);
        assert!(r2.actions.iter().all(|a| a.op == AdviseOp::Drop));
    }

    #[test]
    fn enforcement_rounds_never_promote() {
        let tracker = WorkloadTracker::new();
        let params = AdvisorParams::default();
        let hot = card("hot", Lifecycle::Evicted, 100);
        tracker.record_use(hot.key(), UseKind::Fresh, 100_000);
        let round = plan_round(&[hot], &tracker, &params, 1_000, 1);
        assert!(round.actions.is_empty());
        assert_eq!(round.kept, 1);
    }

    /// A promotion is a run like any other: promoting a stale, demoted
    /// sketch makes exactly one run, booked once in
    /// `imp_sched_maintain_runs` and in the tracker's cost window, and
    /// brings the sketch current.
    #[test]
    fn a_promotion_is_one_booked_run() {
        use crate::middleware::{Imp, ImpConfig};
        use imp_storage::{row, DataType, Field, Schema};
        const Q: &str = "SELECT g, sum(v) AS s FROM t GROUP BY g HAVING sum(v) > 100";
        let mut db = Database::new();
        let schema = Schema::new(vec![
            Field::new("g", DataType::Int),
            Field::new("v", DataType::Int),
        ]);
        db.create_table("t", schema).unwrap();
        let rows = (0..60).map(|i| row![i % 6, i]);
        db.table_mut("t").unwrap().bulk_load(rows).unwrap();
        let config = ImpConfig {
            fragments: 6,
            ..ImpConfig::default()
        };
        let mut imp = Imp::new(db, config);
        imp.execute(Q).unwrap();
        let imp_sql::Statement::Select(sel) = imp_sql::parse_one(Q).unwrap() else {
            unreachable!()
        };
        let template = QueryTemplate::of(&sel);
        let sched = imp.scheduler().unwrap();
        let demote = |store: &mut Store, _: &Database| {
            store.get_mut(&template).unwrap()[0].lifecycle = Lifecycle::Lazy;
            Ok(())
        };
        sched.visit(true, demote).unwrap();
        imp.execute("INSERT INTO t VALUES (2, 500)").unwrap();
        let sched = imp.scheduler().unwrap();
        let key = SketchKey::new(template.text(), Q);
        let runs = || {
            let tracked = sched.ctx().tracker.get(&key).maint_runs;
            (sched.stats().maintain_runs, tracked)
        };
        let before = runs();

        let promote = [AdviseAction {
            template: template.clone(),
            sql: Q.to_string(),
            op: AdviseOp::Promote,
        }];
        let mut outcome = ApplyOutcome::default();
        sched
            .visit(true, |store, db| {
                outcome = apply_to_store(store, db, sched.ctx(), &promote)?;
                Ok(())
            })
            .unwrap();
        assert_eq!(outcome.promoted, 1);
        assert_eq!(runs(), (before.0 + 1, before.1 + 1), "one booked run");
        let current = imp.db().version();
        let settled = imp.with_sketch(&template, |e| (e.lifecycle, e.maintainer.version()));
        assert_eq!(settled, Some((Lifecycle::Maintained, current)));
    }
}
