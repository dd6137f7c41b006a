//! H2O: heavy-hitter-oracle eviction (Zhang et al., NeurIPS 2023).
//!
//! H2O keeps a fixed-size cache containing the most recent tokens plus the
//! "heavy hitters" — tokens whose *accumulated* attention weights are
//! largest. Tokens evicted from this cache are gone for good: H2O is the
//! canonical **non-recallable** compression method of Fig. 1b, and its
//! inability to bring back tokens whose importance rises later is exactly the
//! behaviour ClusterKV's motivation study (Fig. 3a) targets.
//!
//! H2O is the one policy here whose state follows the queries: a token's
//! accumulated score sums the attention weights *its* head gave it. So the
//! selector of a KV head keeps one retained set per query head of its GQA
//! group, each observing every key and planned only by its own head — the
//! group's heads evict exactly as independent heads would.
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

/// H2O selection state for one KV head: one retained set per query head of
/// its group.
#[derive(Debug, Clone)]
pub struct H2oSelector {
    head_dim: usize,
    recent_fraction: f64,
    /// `retained[h]` is member head `h`'s cache.
    retained: Vec<Vec<Retained>>,
}

impl H2oSelector {
    /// Create an H2O selector for a group of `group_size` query heads.
    ///
    /// # Panics
    ///
    /// Panics if `recent_fraction` is not in `[0, 1]`.
    pub fn new(recent_fraction: f64, head_dim: usize, group_size: usize) -> Self {
        if let Err(msg) = validate_recent_fraction(recent_fraction) {
            panic!("{msg}");
        }
        Self {
            head_dim,
            recent_fraction,
            retained: vec![Vec::new(); group_size],
        }
    }

    /// Positions member head `head` currently retains (for tests /
    /// analysis).
    pub fn retained_positions(&self, head: usize) -> Vec<usize> {
        self.retained[head].iter().map(|r| r.position).collect()
    }

    /// Retain a newly observed key in every member head's set, with zero
    /// accumulated score.
    fn retain(&mut self, position: usize, key: &[f32]) {
        assert_eq!(key.len(), self.head_dim, "key dim mismatch");
        for retained in &mut self.retained {
            retained.push(Retained {
                position,
                key: key.to_vec(),
                accumulated: 0.0,
            });
        }
    }

    /// Evict `retained` down to `budget` tokens: keep the most recent
    /// `recent_fraction · budget` tokens unconditionally, fill the rest with
    /// the largest accumulated scores. Evicted tokens are dropped permanently.
    fn evict_to(retained: &mut Vec<Retained>, recent_fraction: f64, budget: usize) {
        if retained.len() <= budget {
            return;
        }
        let recent_quota = ((budget as f64 * recent_fraction).round() as usize).min(budget);
        let heavy_quota = budget - recent_quota;

        // Most recent tokens (positions are strictly increasing).
        retained.sort_by_key(|r| r.position);
        let recent_cutoff = retained.len() - recent_quota;
        let recent: Vec<Retained> = retained.split_off(recent_cutoff);

        // Heavy hitters among the remainder, under a total order: NaN
        // scores rank strictly last (never as heavy hitters) and ties break
        // toward the earlier position, matching the position-sorted input.
        retained.sort_by(
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
        retained.truncate(heavy_quota);
        retained.extend(recent);
        retained.sort_by_key(|r| r.position);
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
                for (i, key) in keys.iter_rows().enumerate() {
                    self.retain(start + i, key);
                }
            }
            ObserveEvent::PrefillDone { total_tokens } => {
                debug_assert!(
                    self.retained.iter().all(|r| r.len() == total_tokens),
                    "chunks must cover the prompt"
                );
            }
            ObserveEvent::Append { position, key } => self.retain(position, key),
        }
    }

    fn plan(&mut self, head: usize, request: SelectionRequest<'_>) -> SelectionPlan {
        let retained = &mut self.retained[head];
        // Accumulate attention weights over the *retained* tokens only (the
        // defining approximation of non-recallable methods: evicted tokens
        // are never re-scored).
        let weights = attention_weights(request.query, retained.iter().map(|r| r.key.as_slice()));
        let scored = retained.len() as u64;
        for (r, w) in retained.iter_mut().zip(&weights) {
            r.accumulated += w;
        }
        Self::evict_to(retained, self.recent_fraction, request.budget.tokens());
        let indices = retained
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

/// H2O's one configuration constraint: the recent share of the budget is a
/// fraction in `[0, 1]`.
fn validate_recent_fraction(recent_fraction: f64) -> Result<(), String> {
    if !(0.0..=1.0).contains(&recent_fraction) {
        return Err(format!(
            "H2O recent_fraction must be in [0, 1], got {recent_fraction}"
        ));
    }
    Ok(())
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
        Box::new(H2oSelector::new(
            self.recent_fraction,
            ctx.head_dim,
            ctx.group_size,
        ))
    }

    fn validate(&self) -> Result<(), String> {
        validate_recent_fraction(self.recent_fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clusterkv_kvcache::types::Budget;
    use clusterkv_tensor::Matrix;

    use clusterkv_model::policy::observe_prompt as prefill;

    fn select(h: &mut dyn TokenSelector, query: &[f32], n: usize, budget: usize) -> Vec<usize> {
        h.plan(0, SelectionRequest::new(query, n, Budget::new(budget)))
            .indices
    }

    fn uniform_keys(n: usize, dim: usize) -> Matrix {
        Matrix::from_rows((0..n).map(|i| vec![0.01 * (i % 3) as f32; dim]).collect()).unwrap()
    }

    #[test]
    fn selection_respects_budget() {
        let mut h = H2oSelector::new(0.5, 8, 1);
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
        let mut h = H2oSelector::new(0.25, dim, 1);
        prefill(&mut h, &Matrix::from_rows(rows).unwrap());
        let mut q = vec![0.0f32; dim];
        q[0] = 1.0;
        let out = select(&mut h, &q, 40, 8);
        assert!(out.contains(&5), "heavy hitter must survive eviction");
    }

    #[test]
    fn recent_tokens_are_kept() {
        let mut h = H2oSelector::new(0.5, 4, 1);
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
        let mut h = H2oSelector::new(0.5, dim, 1);
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
        let mut h = H2oSelector::new(0.5, 4, 1);
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
        let mut h = H2oSelector::new(0.5, 4, 1);
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
        let plan = sel.plan(0, SelectionRequest::new(&[0.1; 4], 8, Budget::new(4)));
        assert!(plan.stats.scored_vectors >= 8);
    }

    #[test]
    #[should_panic]
    fn invalid_recent_fraction_panics() {
        H2oSelector::new(1.5, 4, 1);
    }

    #[test]
    fn nan_scores_rank_last_and_never_displace_heavy_hitters() {
        // A NaN query poisons every accumulated score with NaN except where
        // the key dot product is driven by a non-NaN lane. Construct the NaN
        // directly instead: poison two accumulated scores and check that
        // eviction (a) does not panic, (b) keeps the genuine heavy hitter,
        // and (c) drops the NaN-scored tokens first.
        let dim = 4;
        let mut h = H2oSelector::new(0.0, dim, 1); // all budget to heavy hitters
        prefill(&mut h, &uniform_keys(12, dim));
        for r in h.retained[0].iter_mut() {
            r.accumulated = r.position as f32;
        }
        h.retained[0][3].accumulated = f32::NAN;
        h.retained[0][7].accumulated = f32::NAN;
        H2oSelector::evict_to(&mut h.retained[0], 0.0, 6);
        let kept = h.retained_positions(0);
        assert_eq!(kept, vec![5, 6, 8, 9, 10, 11], "largest non-NaN scores win");
        assert!(!kept.contains(&3) && !kept.contains(&7), "NaN ranks last");
        let mut h2 = H2oSelector::new(0.0, dim, 1);
        prefill(&mut h2, &uniform_keys(4, dim));
        for r in h2.retained[0].iter_mut() {
            r.accumulated = f32::NAN;
        }
        H2oSelector::evict_to(&mut h2.retained[0], 0.0, 2);
        assert_eq!(
            h2.retained_positions(0),
            vec![0, 1],
            "all-NaN ties break by position, deterministically"
        );
    }

    #[test]
    fn plans_are_trivially_resident() {
        use clusterkv_model::policy::KvResidency;
        let mut h = H2oSelector::new(0.5, 8, 1);
        prefill(&mut h, &uniform_keys(64, 8));
        let plan = h.plan(0, SelectionRequest::new(&[0.1; 8], 64, Budget::new(16)));
        assert_eq!(plan.residency, KvResidency::Resident);
        assert_eq!(h.page_table(), KvResidency::Resident);
        assert_eq!(plan.stats.cache.bytes_recalled.get(), 0);
    }

    #[test]
    fn group_members_evict_like_independent_heads() {
        // Two query heads of one KV head, asked with different queries: each
        // member's retained set is what a lone selector asked only its
        // queries would keep.
        let keys = Matrix::from_rows(
            (0..32)
                .map(|i| vec![(i % 5) as f32, (i % 3) as f32 - 1.0, 0.1, 0.0])
                .collect(),
        )
        .unwrap();
        let queries = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]];
        let mut group = H2oSelector::new(0.25, 4, 2);
        prefill(&mut group, &keys);
        let mut lone: Vec<H2oSelector> = (0..2)
            .map(|_| {
                let mut h = H2oSelector::new(0.25, 4, 1);
                prefill(&mut h, &keys);
                h
            })
            .collect();
        for step in 0..3 {
            for (head, q) in queries.iter().enumerate() {
                let request = SelectionRequest::new(q, 32 + step, Budget::new(8));
                assert_eq!(group.plan(head, request), lone[head].plan(0, request));
            }
            let key = [step as f32, 1.0, 0.0, 0.5];
            group.observe(ObserveEvent::Append {
                position: 32 + step,
                key: &key,
            });
            for h in &mut lone {
                h.observe(ObserveEvent::Append {
                    position: 32 + step,
                    key: &key,
                });
            }
        }
        assert_ne!(
            group.retained_positions(0),
            group.retained_positions(1),
            "the members' sets follow their own queries"
        );
    }
}
