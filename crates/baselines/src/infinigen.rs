//! InfiniGen: per-token KV recall with low-rank partial keys (Lee et al.,
//! OSDI 2024).
//!
//! InfiniGen makes selection recallable by scoring *every* previous token at
//! every step, but reduces the cost of that scoring by projecting queries and
//! keys into a low-dimensional subspace derived offline with an SVD of the
//! query/key weights. The selection cost still scales linearly with the
//! context length `L`, which is the inefficiency the ClusterKV paper points
//! out (§II-C); it also has to store the partial keys in addition to the
//! originals.
//!
//! In this reproduction the projection is obtained from an SVD of the prefill
//! keys of the head (a faithful stand-in for the offline weight SVD: both
//! yield the dominant key subspace), keeping a configurable fraction of the
//! head dimension.
//!
//! In the tiered serving stack InfiniGen pages KV at **token** granularity
//! (it recalls exactly the selected tokens from CPU memory): plans carry one
//! single-token [`PageRequest`] per selected position, so a bounded GPU
//! cluster cache doubles as its speculative-prefetch buffer — stable top-k
//! sets hit the cache, shifts in attention pay per-token recalls.

use clusterkv_model::policy::{
    HeadContext, KvResidency, ObserveEvent, PageRequest, PolicyStats, SelectionPlan,
    SelectionRequest, SelectorFactory, TokenSelector,
};
use clusterkv_tensor::svd::svd;
use clusterkv_tensor::vector::top_k_indices;
use clusterkv_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Fraction of the head dimension kept by the partial projection
/// (InfiniGen's default partial-weight ratio).
pub const DEFAULT_PARTIAL_RATIO: f64 = 0.25;

/// InfiniGen selection state for one attention head.
#[derive(Debug, Clone)]
pub struct InfiniGenSelector {
    head_dim: usize,
    partial_dims: usize,
    /// Projection matrix (`head_dim × partial_dims`), built at prefill.
    projection: Option<Matrix>,
    /// Partial (projected) keys of every token seen so far.
    partial_keys: Matrix,
    /// Raw keys buffered before the projection exists (pre-prefill appends).
    raw_keys: Matrix,
    /// Prompt keys accumulated across `PrefillChunk` events. The partial
    /// projection comes from an SVD over *all* prompt keys, so chunked
    /// prefill buffers and reconciles on `PrefillDone` — the only strategy
    /// whose projection (and hence every later partial key) is
    /// byte-identical to a monolithic prefill.
    chunk_buffer: Matrix,
}

impl InfiniGenSelector {
    /// Create a selector keeping `ceil(partial_ratio · head_dim)` dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `partial_ratio` is not in `(0, 1]`.
    pub fn new(partial_ratio: f64, head_dim: usize) -> Self {
        assert!(
            partial_ratio > 0.0 && partial_ratio <= 1.0,
            "partial_ratio must be in (0, 1]"
        );
        let partial_dims = ((head_dim as f64 * partial_ratio).ceil() as usize).max(1);
        Self {
            head_dim,
            partial_dims,
            projection: None,
            partial_keys: Matrix::zeros(0, partial_dims),
            raw_keys: Matrix::zeros(0, head_dim),
            chunk_buffer: Matrix::zeros(0, head_dim),
        }
    }

    /// Number of dimensions kept by the partial projection.
    pub fn partial_dims(&self) -> usize {
        self.partial_dims
    }

    fn project(&self, v: &[f32]) -> Vec<f32> {
        match &self.projection {
            Some(p) => {
                // v (1×d) · P (d×r) = partial vector (1×r).
                (0..p.cols())
                    .map(|c| (0..p.rows()).map(|r| v[r] * p.get(r, c)).sum())
                    .collect()
            }
            // Before the projection exists, truncate (degenerate fallback).
            None => v.iter().take(self.partial_dims).copied().collect(),
        }
    }

    /// The global prefill pass: derive the partial projection from an SVD of
    /// the full prompt keys, then project and record every prompt key.
    /// Runs on `PrefillDone`, over the buffered chunks.
    fn prefill_full(&mut self, keys: &Matrix) {
        assert_eq!(keys.cols(), self.head_dim, "key dim mismatch");
        // Build the partial projection from the dominant right-singular
        // vectors of the prefill keys (stand-in for the offline weight SVD).
        if keys.rows() >= 2 {
            if let Ok(decomp) = svd(keys) {
                let truncated = decomp.truncate(self.partial_dims);
                self.projection = Some(truncated.v);
            }
        }
        for i in 0..keys.rows() {
            let partial = self.project(keys.row(i));
            self.partial_keys
                .push_row(&partial)
                .expect("partial dims consistent");
            self.raw_keys
                .push_row(keys.row(i))
                .expect("raw dims consistent");
        }
    }
}

impl TokenSelector for InfiniGenSelector {
    fn name(&self) -> &str {
        "InfiniGen"
    }

    fn observe(&mut self, event: ObserveEvent<'_>) {
        match event {
            ObserveEvent::PrefillChunk { start, keys } => {
                assert_eq!(keys.cols(), self.head_dim, "key dim mismatch");
                debug_assert_eq!(start, self.chunk_buffer.rows(), "chunks must be contiguous");
                for row in keys.iter_rows() {
                    self.chunk_buffer
                        .push_row(row)
                        .expect("chunk key dims consistent");
                }
            }
            ObserveEvent::PrefillDone { total_tokens } => {
                debug_assert_eq!(
                    total_tokens,
                    self.chunk_buffer.rows(),
                    "chunks must cover the prompt"
                );
                let keys =
                    std::mem::replace(&mut self.chunk_buffer, Matrix::zeros(0, self.head_dim));
                self.prefill_full(&keys);
            }
            ObserveEvent::Append { key, .. } => {
                assert_eq!(key.len(), self.head_dim, "key dim mismatch");
                let partial = self.project(key);
                self.partial_keys
                    .push_row(&partial)
                    .expect("partial dims consistent");
                self.raw_keys.push_row(key).expect("raw dims consistent");
            }
        }
    }

    fn plan(&mut self, request: SelectionRequest<'_>) -> SelectionPlan {
        let n = request.num_tokens.min(self.partial_keys.rows());
        if request.budget.covers(n) {
            return SelectionPlan::full(n);
        }
        // Score every token with the partial query/key product — the
        // per-token selection whose O(L) cost the ClusterKV paper criticises.
        let pq = self.project(request.query);
        let scores: Vec<f32> = (0..n)
            .map(|i| clusterkv_tensor::vector::dot(self.partial_keys.row(i), &pq))
            .collect();
        let indices = top_k_indices(&scores, request.budget.tokens());
        // Recall at token granularity: one single-token page per selection.
        let pages = indices.iter().map(|&t| PageRequest::new(t, 1)).collect();
        SelectionPlan::new(indices)
            .with_stats(PolicyStats {
                scored_vectors: n as u64,
                ..PolicyStats::default()
            })
            .with_pages(pages)
    }

    fn page_table(&self) -> KvResidency {
        KvResidency::Paged(
            (0..self.partial_keys.rows())
                .map(|t| PageRequest::new(t, 1))
                .collect(),
        )
    }
}

/// Factory for [`InfiniGenSelector`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct InfiniGenFactory {
    /// Fraction of the head dimension kept by the partial projection.
    pub partial_ratio: f64,
}

impl Default for InfiniGenFactory {
    fn default() -> Self {
        Self {
            partial_ratio: DEFAULT_PARTIAL_RATIO,
        }
    }
}

impl InfiniGenFactory {
    /// Create a factory with a custom partial-weight ratio.
    pub fn new(partial_ratio: f64) -> Self {
        Self { partial_ratio }
    }
}

impl SelectorFactory for InfiniGenFactory {
    fn name(&self) -> &str {
        "InfiniGen"
    }

    fn create(&self, ctx: HeadContext) -> Box<dyn TokenSelector> {
        Box::new(InfiniGenSelector::new(self.partial_ratio, ctx.head_dim))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clusterkv_kvcache::types::Budget;
    use clusterkv_tensor::rng::{gaussian_vec, seeded};

    use clusterkv_model::policy::observe_prompt as prefill;

    fn select(s: &mut InfiniGenSelector, query: &[f32], n: usize, budget: usize) -> Vec<usize> {
        s.plan(SelectionRequest::new(query, n, Budget::new(budget)))
            .indices
    }

    fn random_keys(n: usize, dim: usize, seed: u64) -> Matrix {
        let mut rng = seeded(seed);
        Matrix::from_rows(
            (0..n)
                .map(|_| gaussian_vec(&mut rng, dim, 0.0, 1.0))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn partial_dims_respects_ratio() {
        assert_eq!(InfiniGenSelector::new(0.25, 16).partial_dims(), 4);
        assert_eq!(InfiniGenSelector::new(1.0, 16).partial_dims(), 16);
        assert_eq!(InfiniGenSelector::new(0.01, 16).partial_dims(), 1);
    }

    #[test]
    #[should_panic]
    fn zero_ratio_panics() {
        InfiniGenSelector::new(0.0, 16);
    }

    #[test]
    fn full_ratio_matches_exact_top_k() {
        // With the full head dimension the partial scores equal the exact
        // scores up to an orthonormal change of basis, so top-k must match.
        let keys = random_keys(48, 8, 3);
        let q = gaussian_vec(&mut seeded(4), 8, 0.0, 1.0);
        let mut infinigen = InfiniGenSelector::new(1.0, 8);
        prefill(&mut infinigen, &keys);
        let picked = select(&mut infinigen, &q, 48, 8);

        let exact_scores: Vec<f32> = (0..48)
            .map(|i| clusterkv_tensor::vector::dot(keys.row(i), &q))
            .collect();
        let exact: std::collections::HashSet<usize> =
            top_k_indices(&exact_scores, 8).into_iter().collect();
        let overlap = picked.iter().filter(|t| exact.contains(t)).count();
        assert!(overlap >= 7, "overlap {overlap} of 8");
    }

    #[test]
    fn partial_projection_recovers_most_important_tokens() {
        // Keys living mostly in a low-dimensional subspace: a quarter of the
        // dims is enough to identify the top tokens reasonably well.
        let mut rng = seeded(5);
        let rows: Vec<Vec<f32>> = (0..64)
            .map(|i| {
                let mut v = gaussian_vec(&mut rng, 16, 0.0, 0.05);
                v[0] = (i % 7) as f32; // dominant channel
                v[1] = ((i * 3) % 5) as f32; // second dominant channel
                v
            })
            .collect();
        let keys = Matrix::from_rows(rows).unwrap();
        let mut q = vec![0.0f32; 16];
        q[0] = 1.0;
        q[1] = 0.5;

        let mut infinigen = InfiniGenSelector::new(0.25, 16);
        prefill(&mut infinigen, &keys);
        let picked = select(&mut infinigen, &q, 64, 16);

        let exact_scores: Vec<f32> = (0..64)
            .map(|i| clusterkv_tensor::vector::dot(keys.row(i), &q))
            .collect();
        let exact: std::collections::HashSet<usize> =
            top_k_indices(&exact_scores, 16).into_iter().collect();
        let overlap = picked.iter().filter(|t| exact.contains(t)).count();
        assert!(overlap >= 12, "overlap {overlap} of 16");
    }

    #[test]
    fn selection_cost_scales_with_context_length() {
        let mut infinigen = InfiniGenSelector::new(0.25, 8);
        prefill(&mut infinigen, &random_keys(100, 8, 6));
        let q = gaussian_vec(&mut seeded(7), 8, 0.0, 1.0);
        let first = infinigen.plan(SelectionRequest::new(&q, 100, Budget::new(10)));
        assert_eq!(first.stats.scored_vectors, 100, "O(L) per-call scoring");
        let key = gaussian_vec(&mut seeded(8), 8, 0.0, 1.0);
        infinigen.observe(ObserveEvent::Append {
            position: 100,
            key: &key,
        });
        let second = infinigen.plan(SelectionRequest::new(&q, 101, Budget::new(10)));
        assert_eq!(
            second.stats.scored_vectors, 101,
            "cost grows with the context"
        );
    }

    #[test]
    fn appends_are_recallable() {
        let mut infinigen = InfiniGenSelector::new(0.5, 8);
        prefill(&mut infinigen, &random_keys(32, 8, 9));
        // Append a key that is strongly aligned with the later query.
        let mut hot = vec![0.0f32; 8];
        hot[2] = 10.0;
        infinigen.observe(ObserveEvent::Append {
            position: 32,
            key: &hot,
        });
        let mut q = vec![0.0f32; 8];
        q[2] = 1.0;
        let picked = select(&mut infinigen, &q, 33, 4);
        assert!(
            picked.contains(&32),
            "appended hot token must be recallable"
        );
    }

    #[test]
    fn plans_page_kv_at_token_granularity() {
        let mut infinigen = InfiniGenSelector::new(0.5, 8);
        prefill(&mut infinigen, &random_keys(32, 8, 11));
        let q = gaussian_vec(&mut seeded(12), 8, 0.0, 1.0);
        let plan = infinigen.plan(SelectionRequest::new(&q, 32, Budget::new(6)));
        let KvResidency::Paged(pages) = &plan.residency else {
            panic!(
                "InfiniGen selections must be paged, got {:?}",
                plan.residency
            );
        };
        assert_eq!(pages.len(), plan.indices.len());
        for (page, &token) in pages.iter().zip(&plan.indices) {
            assert_eq!(page.page, token);
            assert_eq!(page.tokens, 1);
        }
        let KvResidency::Paged(table) = infinigen.page_table() else {
            panic!("page table must be paged");
        };
        assert_eq!(table.len(), 32, "one single-token page per token seen");
    }

    #[test]
    fn factory_default_ratio() {
        let f = InfiniGenFactory::default();
        assert!((f.partial_ratio - DEFAULT_PARTIAL_RATIO).abs() < 1e-12);
        assert_eq!(f.name(), "InfiniGen");
        let sel = f.create(HeadContext::mha(0, 0, 8));
        assert_eq!(sel.name(), "InfiniGen");
    }
}
