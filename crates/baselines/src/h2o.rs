//! H2O: heavy-hitter-oracle eviction (Zhang et al., NeurIPS 2023).
//!
//! H2O keeps a fixed-size cache containing the most recent tokens plus the
//! "heavy hitters" — tokens whose *accumulated* attention weights are
//! largest. Tokens evicted from this cache are gone for good: H2O is the
//! canonical **non-recallable** compression method of Fig. 1b, and its
//! inability to bring back tokens whose importance rises later is exactly the
//! behaviour ClusterKV's motivation study (Fig. 3a) targets.
//!
//! In the tiered serving stack H2O is **cache-trivially resident**
//! ([`KvResidency::Resident`](clusterkv_model::policy::KvResidency)): the
//! retained set only shrinks by permanent eviction and grows by the token
//! just produced on the GPU, so nothing is ever recalled over PCIe and its
//! plans carry no page requests.

use clusterkv_model::policy::{
    HeadContext, ObserveEvent, PolicyStats, SelectionPlan, SelectionRequest, SelectorFactory,
    TokenSelector,
};
use clusterkv_tensor::ops::attention_weights;
use serde::{Deserialize, Serialize};

/// Fraction of the budget reserved for the most recent tokens (the rest goes
/// to heavy hitters). H2O uses an even split by default.
pub const DEFAULT_RECENT_FRACTION: f64 = 0.5;

/// A token retained by H2O, with its key and accumulated attention score.
#[derive(Debug, Clone)]
struct Retained {
    position: usize,
    key: Vec<f32>,
    accumulated: f32,
}

/// H2O selection state for one attention head.
#[derive(Debug, Clone)]
pub struct H2oSelector {
    head_dim: usize,
    recent_fraction: f64,
    retained: Vec<Retained>,
}

impl H2oSelector {
    /// Create an H2O selector.
    ///
    /// # Panics
    ///
    /// Panics if `recent_fraction` is not in `[0, 1]`.
    pub fn new(recent_fraction: f64, head_dim: usize) -> Self {
        assert!(
            (0.0..=1.0).contains(&recent_fraction),
            "recent_fraction must be in [0, 1]"
        );
        Self {
            head_dim,
            recent_fraction,
            retained: Vec::new(),
        }
    }

    /// Positions currently retained (for tests / analysis).
    pub fn retained_positions(&self) -> Vec<usize> {
        self.retained.iter().map(|r| r.position).collect()
    }

    /// Evict down to `budget` tokens: keep the most recent
    /// `recent_fraction · budget` tokens unconditionally, fill the rest with
    /// the largest accumulated scores. Evicted tokens are dropped permanently.
    fn evict_to(&mut self, budget: usize) {
        if self.retained.len() <= budget {
            return;
        }
        let recent_quota = ((budget as f64 * self.recent_fraction).round() as usize).min(budget);
        let heavy_quota = budget - recent_quota;

        // Most recent tokens (positions are strictly increasing).
        self.retained.sort_by_key(|r| r.position);
        let recent_cutoff = self.retained.len() - recent_quota;
        let recent: Vec<Retained> = self.retained.split_off(recent_cutoff);

        // Heavy hitters among the remainder, under a total order: NaN
        // scores rank strictly last (never as heavy hitters) and ties break
        // toward the earlier position, matching the position-sorted input.
        self.retained.sort_by(
            |a, b| match (a.accumulated.is_nan(), b.accumulated.is_nan()) {
                (false, false) => b
                    .accumulated
                    .total_cmp(&a.accumulated)
                    .then(a.position.cmp(&b.position)),
                (true, true) => a.position.cmp(&b.position),
                (true, false) => std::cmp::Ordering::Greater,
                (false, true) => std::cmp::Ordering::Less,
            },
        );
        self.retained.truncate(heavy_quota);
        self.retained.extend(recent);
        self.retained.sort_by_key(|r| r.position);
    }
}

impl TokenSelector for H2oSelector {
    fn name(&self) -> &str {
        "H2O"
    }

    fn observe(&mut self, event: ObserveEvent<'_>) {
        match event {
            // Retention is per token with zero initial score, so prompt
            // chunks append incrementally (positions offset by the chunk
            // start) and need no reconcile.
            ObserveEvent::PrefillChunk { start, keys } => {
                assert_eq!(keys.cols(), self.head_dim, "key dim mismatch");
                for i in 0..keys.rows() {
                    self.retained.push(Retained {
                        position: start + i,
                        key: keys.row(i).to_vec(),
                        accumulated: 0.0,
                    });
                }
            }
            ObserveEvent::PrefillDone { total_tokens } => {
                debug_assert_eq!(
                    total_tokens,
                    self.retained.len(),
                    "chunks must cover the prompt"
                );
            }
            ObserveEvent::Append { position, key } => {
                assert_eq!(key.len(), self.head_dim, "key dim mismatch");
                self.retained.push(Retained {
                    position,
                    key: key.to_vec(),
                    accumulated: 0.0,
                });
            }
        }
    }

    fn plan(&mut self, request: SelectionRequest<'_>) -> SelectionPlan {
        // Accumulate attention weights over the *retained* tokens only (the
        // defining approximation of non-recallable methods: evicted tokens
        // are never re-scored).
        let weights = attention_weights(
            request.query,
            self.retained.iter().map(|r| r.key.as_slice()),
        );
        let scored = self.retained.len() as u64;
        for (r, w) in self.retained.iter_mut().zip(&weights) {
            r.accumulated += w;
        }
        self.evict_to(request.budget.tokens());
        let indices = self
            .retained
            .iter()
            .map(|r| r.position)
            .filter(|&p| p < request.num_tokens)
            .collect();
        SelectionPlan::new(indices).with_stats(PolicyStats {
            scored_vectors: scored,
            ..PolicyStats::default()
        })
    }
}

/// Factory for [`H2oSelector`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct H2oFactory {
    /// Fraction of the budget reserved for recent tokens.
    pub recent_fraction: f64,
}

impl Default for H2oFactory {
    fn default() -> Self {
        Self {
            recent_fraction: DEFAULT_RECENT_FRACTION,
        }
    }
}

impl H2oFactory {
    /// Create a factory with a custom recent-token fraction.
    pub fn new(recent_fraction: f64) -> Self {
        Self { recent_fraction }
    }
}

impl SelectorFactory for H2oFactory {
    fn name(&self) -> &str {
        "H2O"
    }

    fn create(&self, ctx: HeadContext) -> Box<dyn TokenSelector> {
        Box::new(H2oSelector::new(self.recent_fraction, ctx.head_dim))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clusterkv_kvcache::types::Budget;
    use clusterkv_tensor::Matrix;

    use clusterkv_model::policy::observe_prompt as prefill;

    fn select(h: &mut dyn TokenSelector, query: &[f32], n: usize, budget: usize) -> Vec<usize> {
        h.plan(SelectionRequest::new(query, n, Budget::new(budget)))
            .indices
    }

    fn uniform_keys(n: usize, dim: usize) -> Matrix {
        Matrix::from_rows((0..n).map(|i| vec![0.01 * (i % 3) as f32; dim]).collect()).unwrap()
    }

    #[test]
    fn selection_respects_budget() {
        let mut h = H2oSelector::new(0.5, 8);
        prefill(&mut h, &uniform_keys(64, 8));
        let out = select(&mut h, &[0.1; 8], 64, 16);
        assert_eq!(out.len(), 16);
        assert!(out.iter().all(|&t| t < 64));
    }

    #[test]
    fn heavy_hitter_is_kept() {
        let dim = 8;
        let mut rows = vec![vec![0.01f32; dim]; 40];
        rows[5][0] = 8.0; // token 5 gets huge attention for q = e0
        let mut h = H2oSelector::new(0.25, dim);
        prefill(&mut h, &Matrix::from_rows(rows).unwrap());
        let mut q = vec![0.0f32; dim];
        q[0] = 1.0;
        let out = select(&mut h, &q, 40, 8);
        assert!(out.contains(&5), "heavy hitter must survive eviction");
    }

    #[test]
    fn recent_tokens_are_kept() {
        let mut h = H2oSelector::new(0.5, 4);
        prefill(&mut h, &uniform_keys(32, 4));
        let out = select(&mut h, &[0.1; 4], 32, 8);
        // Half the budget goes to the most recent tokens 28..32.
        for t in 28..32 {
            assert!(out.contains(&t), "recent token {t} missing: {out:?}");
        }
    }

    #[test]
    fn eviction_is_permanent_not_recallable() {
        // A token that looks unimportant at the first step but would be very
        // important for a later query stays evicted — the failure mode that
        // motivates recallable compression (Fig. 3a).
        let dim = 4;
        let mut rows = vec![vec![0.01f32; dim]; 40];
        rows[2][1] = 9.0; // only important for a q along e1
        for row in rows.iter_mut().take(20).skip(10) {
            row[0] = 2.0; // clearly important for the first query (along e0)
        }
        let mut h = H2oSelector::new(0.5, dim);
        prefill(&mut h, &Matrix::from_rows(rows).unwrap());

        // First query along e0: token 2 looks unimportant and gets evicted.
        let mut q0 = vec![0.0f32; dim];
        q0[0] = 1.0;
        let first = select(&mut h, &q0, 40, 8);
        assert!(!first.contains(&2));

        // Later query along e1: token 2 would now be the most important, but
        // H2O can no longer recall it.
        let mut q1 = vec![0.0f32; dim];
        q1[1] = 1.0;
        let second = select(&mut h, &q1, 40, 8);
        assert!(
            !second.contains(&2),
            "H2O must not be able to recall the evicted token"
        );
    }

    #[test]
    fn appended_tokens_enter_the_cache() {
        let mut h = H2oSelector::new(0.5, 4);
        prefill(&mut h, &uniform_keys(16, 4));
        h.observe(ObserveEvent::Append {
            position: 16,
            key: &[5.0, 0.0, 0.0, 0.0],
        });
        let out = select(&mut h, &[1.0, 0.0, 0.0, 0.0], 17, 6);
        assert!(out.contains(&16));
        assert!(out.len() <= 6);
    }

    #[test]
    fn small_context_is_left_alone() {
        let mut h = H2oSelector::new(0.5, 4);
        prefill(&mut h, &uniform_keys(4, 4));
        let out = select(&mut h, &[0.1; 4], 4, 16);
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn factory_and_plan_stats() {
        let f = H2oFactory::default();
        assert_eq!(f.name(), "H2O");
        let mut sel = f.create(HeadContext::mha(0, 0, 4));
        prefill(sel.as_mut(), &uniform_keys(8, 4));
        let plan = sel.plan(SelectionRequest::new(&[0.1; 4], 8, Budget::new(4)));
        assert!(plan.stats.scored_vectors >= 8);
    }

    #[test]
    #[should_panic]
    fn invalid_recent_fraction_panics() {
        H2oSelector::new(1.5, 4);
    }

    #[test]
    fn nan_scores_rank_last_and_never_displace_heavy_hitters() {
        // A NaN query poisons every accumulated score with NaN except where
        // the key dot product is driven by a non-NaN lane. Construct the NaN
        // directly instead: poison two accumulated scores and check that
        // eviction (a) does not panic, (b) keeps the genuine heavy hitter,
        // and (c) drops the NaN-scored tokens first.
        let dim = 4;
        let mut h = H2oSelector::new(0.0, dim); // all budget to heavy hitters
        prefill(&mut h, &uniform_keys(12, dim));
        for r in h.retained.iter_mut() {
            r.accumulated = r.position as f32;
        }
        h.retained[3].accumulated = f32::NAN;
        h.retained[7].accumulated = f32::NAN;
        h.evict_to(6);
        let kept = h.retained_positions();
        assert_eq!(kept, vec![5, 6, 8, 9, 10, 11], "largest non-NaN scores win");
        assert!(!kept.contains(&3) && !kept.contains(&7), "NaN ranks last");
        let mut h2 = H2oSelector::new(0.0, dim);
        prefill(&mut h2, &uniform_keys(4, dim));
        for r in h2.retained.iter_mut() {
            r.accumulated = f32::NAN;
        }
        h2.evict_to(2);
        assert_eq!(
            h2.retained_positions(),
            vec![0, 1],
            "all-NaN ties break by position, deterministically"
        );
    }

    #[test]
    fn plans_are_trivially_resident() {
        use clusterkv_model::policy::KvResidency;
        let mut h = H2oSelector::new(0.5, 8);
        prefill(&mut h, &uniform_keys(64, 8));
        let plan = h.plan(SelectionRequest::new(&[0.1; 8], 64, Budget::new(16)));
        assert_eq!(plan.residency, KvResidency::Resident);
        assert_eq!(h.page_table(), KvResidency::Resident);
        assert_eq!(plan.stats.transfer.transfers, 0);
    }
}
