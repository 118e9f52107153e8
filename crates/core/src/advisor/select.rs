//! Budgeted keep-set selection.
//!
//! Given scored sketches and a memory budget, pick the set that keeps
//! the most benefit in memory: the classic 0/1-knapsack, solved greedily
//! by **score density** (score per heap byte) — the standard
//! approximation, and the right trade-off here because the advisor
//! re-runs every pass and sketch populations are small (tens to
//! hundreds). Only sketches with a *positive* score are eligible: a
//! sketch that costs more than it returns is not worth budget even when
//! budget is free (see [`crate::advisor::cost`]).
//!
//! Ties break deterministically (higher score, then lower index), so
//! every worker count — and repeated runs over identical histories —
//! selects the same keep-set.

/// One knapsack candidate: a stored sketch's score and current heap use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Caller-side index of the sketch (into its card list).
    pub index: usize,
    /// Cost-model score, in rows.
    pub score: f64,
    /// Current heap bytes of the stored sketch.
    pub heap: usize,
}

/// Greedy knapsack: indices of the candidates to keep fully maintained
/// under `budget` heap bytes, sorted ascending.
pub fn select_keep(candidates: &[Candidate], budget: usize) -> Vec<usize> {
    let mut eligible: Vec<&Candidate> = candidates.iter().filter(|c| c.score > 0.0).collect();
    eligible.sort_by(|a, b| {
        let da = a.score / a.heap.max(1) as f64;
        let db = b.score / b.heap.max(1) as f64;
        db.total_cmp(&da)
            .then(b.score.total_cmp(&a.score))
            .then(a.index.cmp(&b.index))
    });
    let mut kept = Vec::new();
    let mut used = 0usize;
    for c in eligible {
        if used + c.heap <= budget {
            used += c.heap;
            kept.push(c.index);
        }
    }
    kept.sort_unstable();
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(index: usize, score: f64, heap: usize) -> Candidate {
        Candidate { index, score, heap }
    }

    #[test]
    fn keeps_densest_within_budget() {
        let cands = [
            cand(0, 100.0, 100), // density 1.0
            cand(1, 300.0, 100), // density 3.0
            cand(2, 150.0, 100), // density 1.5
        ];
        assert_eq!(select_keep(&cands, 200), vec![1, 2]);
        assert_eq!(select_keep(&cands, 300), vec![0, 1, 2]);
    }

    #[test]
    fn negative_and_zero_scores_are_never_kept() {
        let cands = [cand(0, -5.0, 10), cand(1, 0.0, 10), cand(2, 1.0, 10)];
        assert_eq!(select_keep(&cands, usize::MAX), vec![2]);
    }

    #[test]
    fn tiny_budget_keeps_nothing() {
        let cands = [cand(0, 10.0, 100)];
        assert!(select_keep(&cands, 50).is_empty());
    }

    #[test]
    fn greedy_skips_oversized_but_fills_remainder() {
        let cands = [
            cand(0, 500.0, 90), // densest but nearly fills the budget
            cand(1, 30.0, 20),
            cand(2, 20.0, 10),
        ];
        // 90 fits; 20 does not (90+20 > 100); 10 does.
        assert_eq!(select_keep(&cands, 100), vec![0, 2]);
    }

    #[test]
    fn deterministic_tie_break_on_equal_density() {
        let cands = [cand(1, 10.0, 10), cand(0, 10.0, 10)];
        assert_eq!(select_keep(&cands, 10), vec![0]);
    }
}
