//! The ClusterKV selection policy, pluggable into the serving engine.
//!
//! Keys exist per KV head, so that is the unit of clustering state:
//! [`ClusterIndex`] is the semantic index of one KV head — semantic
//! clustering at prefill, incremental clustering during decoding (Fig. 5) —
//! observed once per key event and read by every query head of the GQA
//! group, each ranking the centroids against its own query with its own
//! scratch. [`ClusterKvSelector`] is the group of one: an index plus one
//! scratch workspace, what single-head harnesses drive. Every plan returns
//! the selected token indices, the selection work of exactly that call
//! (centroids scored) and the selection's cluster-granularity page
//! decomposition; the *residency* outcome (which clusters hit the GPU cache
//! vs. required a PCIe recall) is resolved by whoever owns the session's
//! tiered [`ClusterCache`](clusterkv_kvcache::cluster_cache::ClusterCache) —
//! the serving engine or the episode harness (DESIGN.md §3).

use crate::clustering::{PrefillClusters, SemanticClustering};
use crate::config::ClusterKvConfig;
use crate::distance::DistanceMetric;
use crate::selection::{fill_selection_ws, lookahead_clusters_ws};
use clusterkv_kvcache::cluster_cache::PageRequest;
use clusterkv_kvcache::types::Bytes;
use clusterkv_model::policy::{
    GroupIndex, HeadContext, KvResidency, ObserveEvent, PolicyStats, SelectionPlan,
    SelectionRequest, SelectorFactory, SelectorGroup, SharedPrefixState, TokenSelector,
};
use clusterkv_tensor::kernels::{norm_sq, Workspace};
use clusterkv_tensor::rng::derive_seed;
use clusterkv_tensor::Matrix;
use std::sync::Arc;

/// The semantic index of one KV head: its clustering state plus the prompt
/// keys still awaiting the prefill clustering pass.
#[derive(Debug, Clone)]
pub struct ClusterIndex {
    clustering: SemanticClustering,
    /// Prompt keys accumulated across `PrefillChunk` events, clustered as a
    /// whole on `PrefillDone`. Semantic clustering is a global pass over the
    /// prompt (k-means initialisation samples from *all* keys), so chunked
    /// prefill buffers and reconciles at the end rather than clustering each
    /// prefix — the only strategy whose final state is byte-identical to a
    /// monolithic prefill, which the serving parity suite requires. Nothing
    /// plans against a session mid-prefill, so no speculative prefix
    /// clusters are needed.
    chunk_buffer: Matrix,
    /// Squared norms `‖x‖²` of `chunk_buffer`'s rows, maintained per chunk
    /// so the reconcile-time clustering pass starts from cached norms.
    chunk_norms: Vec<f32>,
}

impl ClusterIndex {
    /// Create the index of a KV head of dimension `head_dim`.
    pub fn new(config: ClusterKvConfig, head_dim: usize) -> Self {
        Self {
            clustering: SemanticClustering::new(config, head_dim),
            chunk_buffer: Matrix::zeros(0, head_dim),
            chunk_norms: Vec::new(),
        }
    }

    /// The clustering state (centroids, metadata, sinks, pending tokens).
    pub fn clustering(&self) -> &SemanticClustering {
        &self.clustering
    }

    /// Squared norms cached for the not-yet-reconciled prefill chunks (test
    /// hook for the norm-cache consistency suite).
    pub fn chunk_norms(&self) -> &[f32] {
        &self.chunk_norms
    }

    /// Fingerprint of everything that determines this index's post-prefill
    /// clustering state besides the prompt keys themselves: every
    /// [`ClusterKvConfig`] field (the seed included — the factory derives it
    /// from `(layer, kv_head)`, so adoption across KV heads or layers is
    /// structurally impossible) and the head dimension. Two indexes with
    /// equal fingerprints fed byte-identical prompt keys reconcile to
    /// byte-identical clustering state, which is exactly the precondition
    /// for sharing that state through the prefix store (DESIGN.md §8).
    fn prefill_fingerprint(&self) -> u64 {
        let c = self.clustering.config();
        let distance = match c.distance {
            DistanceMetric::Cosine => 0,
            DistanceMetric::L2 => 1,
            DistanceMetric::InnerProduct => 2,
        };
        [
            c.seed,
            c.sink_tokens as u64,
            c.tokens_per_cluster as u64,
            c.min_clusters as u64,
            distance,
            c.max_kmeans_iters as u64,
            c.decode_cluster_period as u64,
            c.decode_new_clusters as u64,
            c.compression.fingerprint_words()[0],
            c.compression.fingerprint_words()[1],
            self.clustering.head_dim() as u64,
        ]
        .into_iter()
        .fold(0x436c_7573_7465_724b, derive_seed) // "ClusterK"
    }

    /// One cluster-granularity page per id in `clusters`, each sized to the
    /// whole cluster. Under a lossy compression config the pages are recalled
    /// through the compressed tier (DESIGN.md §9) and the engine reads their
    /// memberships through [`page_members`](GroupIndex::page_members);
    /// lossless configs keep the recall-exact `Paged` residency and its
    /// byte-parity guarantee.
    fn residency_of(&self, clusters: impl Iterator<Item = usize>) -> KvResidency {
        let metadata = self.clustering.metadata();
        let pages = clusters
            .map(|c| PageRequest::new(c, metadata.cluster_size(c)))
            .collect();
        if self.clustering.config().compression.is_lossless() {
            KvResidency::Paged(pages)
        } else {
            KvResidency::Compressed(pages)
        }
    }
}

impl GroupIndex for ClusterIndex {
    fn observe(&mut self, event: ObserveEvent<'_>) {
        match event {
            ObserveEvent::PrefillChunk { start, keys } => {
                debug_assert_eq!(start, self.chunk_buffer.rows(), "chunks must be contiguous");
                self.chunk_buffer
                    .extend_rows(keys)
                    .expect("chunk key dims consistent");
                // Norms are cached as the chunk arrives; the reconcile pass
                // hands them to the k-means sweep untouched.
                self.chunk_norms.reserve(keys.rows());
                for row in keys.iter_rows() {
                    self.chunk_norms.push(norm_sq(row));
                }
            }
            ObserveEvent::PrefillDone { total_tokens } => {
                debug_assert_eq!(
                    total_tokens,
                    self.chunk_buffer.rows(),
                    "chunks must cover the prompt"
                );
                let keys = std::mem::replace(
                    &mut self.chunk_buffer,
                    Matrix::zeros(0, self.clustering.head_dim()),
                );
                let norms = std::mem::take(&mut self.chunk_norms);
                self.clustering.prefill_with_norms(&keys, &norms);
            }
            ObserveEvent::Append { position, key } => self.clustering.append(position, key),
        }
    }

    fn plan(&self, request: SelectionRequest<'_>, scratch: &mut Workspace) -> SelectionPlan {
        // When the whole context fits in the budget, compression is a no-op.
        if request.budget.covers(request.num_tokens) {
            return SelectionPlan::full(request.num_tokens);
        }

        let fill = fill_selection_ws(request.query, &self.clustering, request.budget, scratch);
        // The plan owns two buffers whatever the budget or the cluster
        // count: the token positions (with one spare slot, because the
        // engine appends the position being generated) and one page per
        // selected cluster.
        let mut indices = Vec::with_capacity(scratch.tokens.len() + 1);
        indices.extend_from_slice(&scratch.tokens);
        let mut plan = SelectionPlan::new(indices).with_stats(PolicyStats {
            scored_vectors: fill.scored_centroids as u64,
            ..PolicyStats::default()
        });
        plan.residency = self.residency_of(scratch.labels.iter().copied());
        plan
    }

    fn prefetch_hint(
        &self,
        request: SelectionRequest<'_>,
        lookahead_tokens: usize,
        scratch: &mut Workspace,
    ) -> Vec<PageRequest> {
        // Contexts the budget covers never page, so there is nothing worth
        // staging.
        if request.budget.covers(request.num_tokens) {
            return Vec::new();
        }
        // One blocked matvec into the same selection workspace (DESIGN.md
        // §10): scratch-only, so the hint cannot perturb any later plan.
        let nominated = lookahead_clusters_ws(
            request.query,
            &self.clustering,
            request.budget,
            lookahead_tokens,
            scratch,
        );
        let metadata = self.clustering.metadata();
        scratch.labels[..nominated]
            .iter()
            .map(|&c| PageRequest::new(c, metadata.cluster_size(c)))
            .collect()
    }

    fn page_table(&self) -> KvResidency {
        self.residency_of(0..self.clustering.num_clusters())
    }

    fn page_members(&self, page: usize) -> &[usize] {
        self.clustering.metadata().cluster_tokens(page)
    }

    fn page_table_version(&self) -> Option<u64> {
        // Clusters are only ever added — by the prefill pass, an adopted
        // prefill, an incremental flush — and a sealed cluster keeps its
        // members, so the table is a function of how many there are.
        Some(self.clustering.num_clusters() as u64)
    }

    fn export_prefill_state(&self) -> Option<SharedPrefixState> {
        // Only a reconciled index has anything worth sharing: mid-prefill
        // the clustering is empty and the keys sit in the chunk buffer.
        if self.chunk_buffer.rows() > 0 {
            return None;
        }
        let clusters = self.clustering.export_prefill()?;
        Some(SharedPrefixState {
            fingerprint: self.prefill_fingerprint(),
            bytes: Bytes(clusters.heap_bytes() as u64),
            state: Arc::new(clusters),
        })
    }

    fn adopt_prefill_state(&mut self, state: &SharedPrefixState, total_tokens: usize) -> bool {
        if state.fingerprint != self.prefill_fingerprint() {
            return false;
        }
        let Some(clusters) = state.state.downcast_ref::<PrefillClusters>() else {
            return false;
        };
        if clusters.num_tokens() != total_tokens {
            return false;
        }
        // The fingerprint pins config + seed + head_dim and the prefix-store
        // terminal node pins the exact token sequence, so these clusters are
        // byte-identical to what reconciling our own chunk buffer would
        // produce — the k-means sweep is skipped outright. The buffered
        // chunks are dropped unreconciled.
        self.clustering.adopt_prefill(clusters);
        self.chunk_buffer = Matrix::zeros(0, self.clustering.head_dim());
        self.chunk_norms.clear();
        true
    }
}

/// ClusterKV for a single attention head on its own: a [`ClusterIndex`] and
/// the one scratch workspace that plans against it.
#[derive(Debug, Clone)]
pub struct ClusterKvSelector {
    index: ClusterIndex,
    /// Scratch reused by every `plan` call (centroid scores, rankings):
    /// after the first decode step the selection phase allocates nothing.
    ws: Workspace,
}

impl ClusterKvSelector {
    /// Create a selector for a head of dimension `head_dim`.
    pub fn new(config: ClusterKvConfig, head_dim: usize) -> Self {
        Self {
            index: ClusterIndex::new(config, head_dim),
            ws: Workspace::new(),
        }
    }

    /// The head's semantic index.
    pub fn index(&self) -> &ClusterIndex {
        &self.index
    }

    /// The clustering state (centroids, metadata, sinks, pending tokens).
    pub fn clustering(&self) -> &SemanticClustering {
        self.index.clustering()
    }

    /// Heap bytes currently held by this selector's scratch workspace
    /// (stable across steady-state decode steps; see DESIGN.md §6).
    pub fn workspace_bytes(&self) -> usize {
        self.ws.allocated_bytes()
    }
}

impl TokenSelector for ClusterKvSelector {
    fn name(&self) -> &str {
        "ClusterKV"
    }

    fn observe(&mut self, event: ObserveEvent<'_>) {
        self.index.observe(event);
    }

    fn plan(&mut self, request: SelectionRequest<'_>) -> SelectionPlan {
        self.index.plan(request, &mut self.ws)
    }

    fn prefetch_hint(
        &mut self,
        request: SelectionRequest<'_>,
        lookahead_tokens: usize,
    ) -> Vec<PageRequest> {
        self.index
            .prefetch_hint(request, lookahead_tokens, &mut self.ws)
    }

    fn page_table(&self) -> KvResidency {
        self.index.page_table()
    }

    fn page_members(&self, page: usize) -> &[usize] {
        self.index.page_members(page)
    }
}

/// Factory creating one [`ClusterIndex`] per `(layer, kv_head)`, with seeds
/// derived from the configured seed so clustering initialisation differs
/// across KV heads but stays reproducible. A GQA group gets the one index
/// of its KV head; a lone head gets it wrapped in a [`ClusterKvSelector`].
#[derive(Debug, Clone, Copy)]
pub struct ClusterKvFactory {
    config: ClusterKvConfig,
}

impl ClusterKvFactory {
    /// Create a factory from a configuration.
    pub fn new(config: ClusterKvConfig) -> Self {
        Self { config }
    }

    /// The configuration used for every created index.
    pub fn config(&self) -> &ClusterKvConfig {
        &self.config
    }

    /// The configuration of the index over `ctx`'s KV head.
    fn config_for(&self, ctx: HeadContext) -> ClusterKvConfig {
        let seed = derive_seed(
            self.config.seed,
            (ctx.layer as u64) << 16 | ctx.kv_head as u64,
        );
        self.config.with_seed(seed)
    }
}

impl Default for ClusterKvFactory {
    fn default() -> Self {
        Self::new(ClusterKvConfig::default())
    }
}

impl SelectorFactory for ClusterKvFactory {
    fn name(&self) -> &str {
        "ClusterKV"
    }

    fn create(&self, ctx: HeadContext) -> Box<dyn TokenSelector> {
        Box::new(ClusterKvSelector::new(self.config_for(ctx), ctx.head_dim))
    }

    fn create_group(&self, ctx: HeadContext) -> SelectorGroup {
        let index = ClusterIndex::new(self.config_for(ctx), ctx.head_dim);
        SelectorGroup::shared(Box::new(index), ctx.group_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clusterkv_kvcache::types::Budget;
    use clusterkv_tensor::rng::{gaussian_vec, seeded};
    use clusterkv_tensor::Matrix;

    fn test_config() -> ClusterKvConfig {
        ClusterKvConfig::default()
            .with_sink_tokens(4)
            .with_tokens_per_cluster(8)
            .with_decode_cluster_period(8)
            .with_decode_new_clusters(2)
    }

    fn prefill_keys(n: usize, dim: usize, seed: u64) -> Matrix {
        let mut rng = seeded(seed);
        Matrix::from_rows(
            (0..n)
                .map(|_| gaussian_vec(&mut rng, dim, 0.0, 1.0))
                .collect(),
        )
        .unwrap()
    }

    use clusterkv_model::policy::observe_prompt as observe_prefill;

    #[test]
    fn small_context_bypasses_selection() {
        let mut sel = ClusterKvSelector::new(test_config(), 8);
        observe_prefill(&mut sel, &prefill_keys(10, 8, 1));
        let plan = sel.plan(SelectionRequest::new(&[0.0; 8], 10, Budget::new(64)));
        assert_eq!(plan.indices, (0..10).collect::<Vec<_>>());
        assert_eq!(plan.stats.scored_vectors, 0);
    }

    #[test]
    fn selection_respects_budget_and_is_unique() {
        let mut sel = ClusterKvSelector::new(test_config(), 8);
        observe_prefill(&mut sel, &prefill_keys(80, 8, 2));
        let q = gaussian_vec(&mut seeded(3), 8, 0.0, 1.0);
        let plan = sel.plan(SelectionRequest::new(&q, 80, Budget::new(24)));
        assert!(plan.len() <= 24);
        assert!(!plan.is_empty());
        let set: std::collections::HashSet<_> = plan.indices.iter().collect();
        assert_eq!(set.len(), plan.len());
        assert!(plan.indices.iter().all(|&t| t < 80));
        assert!(plan.stats.scored_vectors > 0);
    }

    #[test]
    fn plans_are_paged_at_cluster_granularity() {
        let mut sel = ClusterKvSelector::new(test_config(), 8);
        observe_prefill(&mut sel, &prefill_keys(80, 8, 4));
        let q = gaussian_vec(&mut seeded(5), 8, 0.0, 1.0);
        let plan = sel.plan(SelectionRequest::new(&q, 80, Budget::new(24)));
        let KvResidency::Paged(pages) = &plan.residency else {
            panic!(
                "ClusterKV selections must be paged, got {:?}",
                plan.residency
            );
        };
        assert!(!pages.is_empty());
        let metadata = sel.clustering().metadata();
        for p in pages {
            assert!(p.page < metadata.num_clusters());
            assert_eq!(p.tokens, metadata.cluster_size(p.page));
        }
        // The page table covers every cluster (for cache warm admission).
        let KvResidency::Paged(table) = sel.page_table() else {
            panic!("page table must be paged");
        };
        assert_eq!(table.len(), metadata.num_clusters());
    }

    #[test]
    fn lossy_config_emits_compressed_plans_with_full_members() {
        use clusterkv_kvcache::CompressionConfig;
        let lossy_cfg =
            test_config().with_compression(CompressionConfig::int8().with_merge_threshold(0.1));
        let mut lossy = ClusterKvSelector::new(lossy_cfg, 8);
        let mut exact = ClusterKvSelector::new(test_config(), 8);
        let keys = prefill_keys(80, 8, 4);
        observe_prefill(&mut lossy, &keys);
        observe_prefill(&mut exact, &keys);
        let q = gaussian_vec(&mut seeded(5), 8, 0.0, 1.0);
        let lp = lossy.plan(SelectionRequest::new(&q, 80, Budget::new(24)));
        let ep = exact.plan(SelectionRequest::new(&q, 80, Budget::new(24)));
        // Compression never changes which tokens are selected, only how the
        // paged ones are recalled.
        assert_eq!(lp.indices, ep.indices);
        let KvResidency::Compressed(cpages) = &lp.residency else {
            panic!("lossy config must emit compressed plans");
        };
        let KvResidency::Paged(pages) = &ep.residency else {
            panic!("lossless config must emit paged plans");
        };
        assert_eq!(cpages, pages);
        let metadata = lossy.clustering().metadata();
        for p in cpages {
            assert_eq!(lossy.page_members(p.page), metadata.cluster_tokens(p.page));
            assert_eq!(lossy.page_members(p.page).len(), p.tokens);
        }
        // The page table mirrors the residency kind.
        let KvResidency::Compressed(table) = lossy.page_table() else {
            panic!("lossy page table must be compressed");
        };
        assert_eq!(table.len(), metadata.num_clusters());
        assert!(matches!(exact.page_table(), KvResidency::Paged(_)));
    }

    #[test]
    fn page_table_version_moves_exactly_when_the_table_does() {
        use clusterkv_kvcache::CompressionConfig;
        let cfg = test_config().with_compression(CompressionConfig::int4());
        let keys = prefill_keys(60, 8, 6);
        let mut index = ClusterIndex::new(cfg, 8);
        let mut last = (index.page_table_version(), index.page_table());
        let mut moves = 0;
        let mut step = |index: &ClusterIndex| {
            let now = (index.page_table_version(), index.page_table());
            assert!(now.0 >= last.0, "versions never decrease");
            assert_eq!(now.0 == last.0, now.1 == last.1);
            moves += usize::from(now.0 != last.0);
            last = now;
        };
        chunk_feed(&mut index, &keys);
        step(&index);
        index.observe(ObserveEvent::PrefillDone { total_tokens: 60 });
        step(&index);
        // Two decode-clustering periods: the table grows at each flush and
        // stands still on the appends between.
        for position in 60..60 + 2 * cfg.decode_cluster_period {
            let key = gaussian_vec(&mut seeded(position as u64), 8, 0.0, 1.0);
            index.observe(ObserveEvent::Append {
                position,
                key: &key,
            });
            step(&index);
        }
        assert_eq!(moves, 3, "the prefill and two flushes");

        // An adopted prefill moves it like a clustered one.
        let mut donor = ClusterIndex::new(cfg, 8);
        chunk_feed(&mut donor, &keys);
        donor.observe(ObserveEvent::PrefillDone { total_tokens: 60 });
        let mut adopter = ClusterIndex::new(cfg, 8);
        let fresh = adopter.page_table_version();
        assert!(adopter.adopt_prefill_state(&donor.export_prefill_state().unwrap(), 60));
        assert_ne!(adopter.page_table_version(), fresh);
        assert_eq!(adopter.page_table_version(), donor.page_table_version());
    }

    #[test]
    fn compression_config_feeds_the_prefill_fingerprint() {
        use clusterkv_kvcache::CompressionConfig;
        let keys = prefill_keys(60, 8, 9);
        let mut donor = ClusterIndex::new(test_config(), 8);
        chunk_feed(&mut donor, &keys);
        donor.observe(ObserveEvent::PrefillDone { total_tokens: 60 });
        let state = donor.export_prefill_state().unwrap();
        // A lossy index must not adopt lossless-fingerprinted state: the
        // two produce different residency plans downstream.
        let lossy_cfg = test_config().with_compression(CompressionConfig::int8());
        let mut lossy = ClusterIndex::new(lossy_cfg, 8);
        chunk_feed(&mut lossy, &keys);
        assert!(!lossy.adopt_prefill_state(&state, 60));
    }

    #[test]
    fn repeated_queries_hit_the_tiered_cluster_cache() {
        use clusterkv_kvcache::cluster_cache::{ClusterCache, ClusterCacheConfig};
        use clusterkv_kvcache::types::{HeadId, LayerId};
        let mut sel = ClusterKvSelector::new(test_config(), 8);
        observe_prefill(&mut sel, &prefill_keys(80, 8, 4));
        let q = gaussian_vec(&mut seeded(5), 8, 0.0, 1.0);
        // Room for two steps' worth of selected clusters.
        let mut cache = ClusterCache::new(ClusterCacheConfig::for_recency_window(2, 24, 8));

        let first = sel.plan(SelectionRequest::new(&q, 80, Budget::new(24)));
        let KvResidency::Paged(pages) = &first.residency else {
            panic!("paged plan expected");
        };
        let cold = cache.access(LayerId(0), HeadId(0), pages);
        assert!(cold.missed_tokens > 0);
        assert_eq!(cold.hit_tokens, 0, "cold cache has no hits");

        // The same query selects the same clusters, which are now resident.
        let second = sel.plan(SelectionRequest::new(&q, 80, Budget::new(24)));
        let KvResidency::Paged(pages) = &second.residency else {
            panic!("paged plan expected");
        };
        let warm = cache.access(LayerId(0), HeadId(0), pages);
        assert_eq!(warm.missed_tokens, 0, "no new misses expected");
        assert!(warm.hit_tokens > 0);
        assert_eq!(cache.transfers().tokens_moved, cold.missed_tokens);
    }

    #[test]
    fn prefetch_hint_nominates_pages_without_touching_plans() {
        let mut sel = ClusterKvSelector::new(test_config(), 8);
        observe_prefill(&mut sel, &prefill_keys(80, 8, 2));
        let q = gaussian_vec(&mut seeded(3), 8, 0.0, 1.0);
        let before = sel.plan(SelectionRequest::new(&q, 80, Budget::new(24)));
        let hint = sel.prefetch_hint(SelectionRequest::new(&q, 80, Budget::new(24)), 16);
        assert!(!hint.is_empty());
        let metadata = sel.clustering().metadata();
        for p in &hint {
            assert!(p.page < metadata.num_clusters());
            assert_eq!(p.tokens, metadata.cluster_size(p.page));
        }
        // The widened nomination covers the plan's own clusters.
        let KvResidency::Paged(pages) = &before.residency else {
            panic!("paged plan expected");
        };
        for p in pages {
            assert!(hint.contains(p), "hint must cover selected page {p:?}");
        }
        // Scratch-only: the next plan is unchanged by the hint.
        let after = sel.plan(SelectionRequest::new(&q, 80, Budget::new(24)));
        assert_eq!(before, after);
        // Covered contexts never page, so there is nothing to stage.
        assert!(sel
            .prefetch_hint(SelectionRequest::new(&q, 80, Budget::new(128)), 16)
            .is_empty());
    }

    #[test]
    fn decode_appends_feed_incremental_clustering() {
        let mut sel = ClusterKvSelector::new(test_config(), 8);
        observe_prefill(&mut sel, &prefill_keys(40, 8, 6));
        let clusters_before = sel.clustering().num_clusters();
        let mut rng = seeded(7);
        for i in 0..8 {
            let key = gaussian_vec(&mut rng, 8, 0.0, 1.0);
            sel.observe(ObserveEvent::Append {
                position: 40 + i,
                key: &key,
            });
        }
        assert_eq!(sel.clustering().num_clusters(), clusters_before + 2);
        // Newly clustered decode tokens are selectable.
        let q = gaussian_vec(&mut rng, 8, 0.0, 1.0);
        let plan = sel.plan(SelectionRequest::new(&q, 48, Budget::new(20)));
        assert!(plan.len() <= 20);
    }

    #[test]
    fn chunked_prefill_norm_cache_reconciles_consistently() {
        let full = prefill_keys(30, 8, 8);
        let mut sel = ClusterKvSelector::new(test_config(), 8);
        let mut start = 0;
        for len in [5usize, 11, 14] {
            let chunk =
                Matrix::from_rows((start..start + len).map(|i| full.row(i).to_vec()).collect())
                    .unwrap();
            sel.observe(ObserveEvent::PrefillChunk {
                start,
                keys: &chunk,
            });
            start += len;
            // Mid-prefill the chunk-norm cache tracks the buffer exactly.
            assert_eq!(sel.index().chunk_norms().len(), start);
            for (i, &n) in sel.index().chunk_norms().iter().enumerate() {
                assert_eq!(n, clusterkv_tensor::kernels::norm_sq(full.row(i)));
            }
        }
        sel.observe(ObserveEvent::PrefillDone { total_tokens: 30 });
        // Reconciliation drains the cache into the clustering pass and the
        // resulting centroid-norm cache matches recomputation.
        assert!(sel.index().chunk_norms().is_empty());
        let sc = sel.clustering();
        for (c, row) in sc.centroids().iter_rows().enumerate() {
            assert_eq!(
                sc.centroid_norms()[c],
                clusterkv_tensor::kernels::norm_sq(row)
            );
        }
        // And the whole state equals a one-chunk prefill.
        let mut mono = ClusterKvSelector::new(test_config(), 8);
        observe_prefill(&mut mono, &full);
        assert_eq!(mono.clustering().centroids(), sc.centroids());
        assert_eq!(mono.clustering().centroid_norms(), sc.centroid_norms());
    }

    #[test]
    fn plan_workspace_reaches_steady_state() {
        let mut sel = ClusterKvSelector::new(test_config(), 8);
        observe_prefill(&mut sel, &prefill_keys(120, 8, 12));
        let mut rng = seeded(13);
        // Warm-up step sizes the buffers.
        let q = gaussian_vec(&mut rng, 8, 0.0, 1.0);
        let _ = sel.plan(SelectionRequest::new(&q, 120, Budget::new(24)));
        let warm = sel.workspace_bytes();
        assert!(warm > 0);
        for _ in 0..20 {
            let q = gaussian_vec(&mut rng, 8, 0.0, 1.0);
            let _ = sel.plan(SelectionRequest::new(&q, 120, Budget::new(24)));
        }
        assert_eq!(
            sel.workspace_bytes(),
            warm,
            "steady-state plans must not grow the workspace"
        );
    }

    #[test]
    fn factory_seeds_follow_the_kv_head() {
        let factory = ClusterKvFactory::new(test_config());
        assert_eq!(factory.name(), "ClusterKV");
        assert_eq!(factory.config().sink_tokens, 4);
        let group_ctx = |layer, kv_head| HeadContext {
            layer,
            head: kv_head * 4,
            head_dim: 8,
            kv_head,
            group_size: 4,
        };
        // Every query head of a group shares its KV head's seed — for a
        // group of one that is the seed `(layer, head)` always had.
        let base = factory.config_for(group_ctx(1, 0)).seed;
        for head in 0..4 {
            let ctx = HeadContext {
                head,
                ..group_ctx(1, 0)
            };
            assert_eq!(factory.config_for(ctx).seed, base);
        }
        assert_eq!(factory.config_for(HeadContext::mha(1, 0, 8)).seed, base);
        assert_eq!(
            factory.config_for(HeadContext::mha(2, 3, 8)).seed,
            derive_seed(test_config().seed, 2 << 16 | 3)
        );
        // Other KV heads and other layers cluster from other seeds.
        assert_ne!(factory.config_for(group_ctx(1, 1)).seed, base);
        assert_ne!(factory.config_for(group_ctx(2, 0)).seed, base);
        assert_eq!(factory.create(group_ctx(0, 0)).name(), "ClusterKV");
    }

    #[test]
    fn a_group_plans_every_head_against_one_index() {
        let factory = ClusterKvFactory::new(test_config());
        let mut group = factory.create_group(HeadContext {
            layer: 1,
            head: 4,
            head_dim: 8,
            kv_head: 1,
            group_size: 4,
        });
        assert_eq!(group.group_size(), 4);
        let keys = prefill_keys(80, 8, 2);
        group.observe(ObserveEvent::PrefillChunk {
            start: 0,
            keys: &keys,
        });
        group.observe(ObserveEvent::PrefillDone { total_tokens: 80 });
        // A lone selector with the KV head's seed is the reference: one
        // clustering, whichever head of the group asks.
        let mut lone = factory.create(HeadContext::mha(1, 1, 8));
        observe_prefill(lone.as_mut(), &keys);
        let SelectorGroup::Shared { scratch, .. } = &group else {
            panic!("ClusterKV groups share one index");
        };
        assert_eq!(scratch.len(), 4, "one planner scratch per query head");
        let mut rng = seeded(3);
        let queries: Vec<Vec<f32>> = (0..4)
            .map(|_| gaussian_vec(&mut rng, 8, 0.0, 1.0))
            .collect();
        let mut plans = Vec::new();
        for (mut head, q) in group.heads().zip(&queries) {
            let request = SelectionRequest::new(q, 80, Budget::new(24));
            let plan = head.plan(request);
            assert_eq!(plan, lone.plan(request), "same index, same plan");
            for page in plan.residency.page_requests().unwrap() {
                assert_eq!(head.page_members(page.page), lone.page_members(page.page));
            }
            assert_eq!(
                head.prefetch_hint(request, 16),
                lone.prefetch_hint(request, 16)
            );
            plans.push(plan.indices);
        }
        assert!(
            plans.iter().any(|p| p != &plans[0]),
            "heads rank the shared centroids by their own queries"
        );
        for head in 0..4 {
            assert_eq!(group.page_table(head), lone.page_table());
        }
    }

    #[test]
    fn default_factory_uses_paper_config() {
        let f = ClusterKvFactory::default();
        assert_eq!(f.config().tokens_per_cluster, 80);
    }

    #[test]
    fn end_to_end_with_inference_engine() {
        use clusterkv_model::{ModelConfig, ServeEngine};
        let factory = ClusterKvFactory::new(test_config());
        let mut engine = ServeEngine::builder(ModelConfig::tiny())
            .synthetic_weights(11)
            .budget(Budget::new(16))
            .build()
            .unwrap();
        let session = engine.create_session_with(&factory).unwrap();
        let prompt: Vec<usize> = (0..40).map(|i| (i * 3) % 128).collect();
        let generated = engine.generate(session, &prompt, 5).unwrap();
        assert_eq!(generated.len(), 5);
        let stats = engine.session_stats(session).unwrap();
        assert!(
            stats.scored_vectors > 0,
            "selection ran on selective layers"
        );
    }

    #[test]
    fn end_to_end_with_serve_engine_sessions() {
        use clusterkv_model::{ModelConfig, ServeEngine};
        let factory = ClusterKvFactory::new(test_config());
        let mut engine = ServeEngine::builder(ModelConfig::tiny())
            .synthetic_weights(11)
            .budget(Budget::new(16))
            .policy(Box::new(factory))
            .build()
            .unwrap();
        let a = engine.create_session().unwrap();
        let b = engine.create_session().unwrap();
        let prompt: Vec<usize> = (0..40).map(|i| (i * 3) % 128).collect();
        engine.prefill(a, &prompt).unwrap();
        engine.prefill(b, &prompt).unwrap();
        for _ in 0..5 {
            engine.decode_batch(&[a, b]).unwrap();
        }
        // Identical prompts through identical per-head seeds: the sessions
        // accumulate identical statistics, independently.
        let sa = engine.session_stats(a).unwrap();
        let sb = engine.session_stats(b).unwrap();
        assert!(sa.scored_vectors > 0);
        assert_eq!(sa, sb);
        engine.release(a).unwrap();
        engine.release(b).unwrap();
    }

    fn chunk_feed(index: &mut ClusterIndex, keys: &Matrix) {
        index.observe(ObserveEvent::PrefillChunk { start: 0, keys });
    }

    #[test]
    fn prefix_store_shares_clustering_state_across_sessions() {
        use clusterkv_model::{ModelConfig, ServeEngine};
        let prompt: Vec<usize> = (0..48).map(|i| (i * 7 + 1) % 128).collect();
        let decode = |engine: &mut ServeEngine, s| -> Vec<usize> {
            (0..6)
                .map(|_| engine.decode_batch(&[s]).unwrap()[0].next_token)
                .collect()
        };
        // Reference: no store, both sessions cluster from scratch.
        let mut cold = ServeEngine::builder(ModelConfig::tiny())
            .synthetic_weights(11)
            .budget(Budget::new(16))
            .policy(Box::new(ClusterKvFactory::new(test_config())))
            .build()
            .unwrap();
        let c = cold.create_session().unwrap();
        cold.prefill(c, &prompt).unwrap();
        let cold_stream = decode(&mut cold, c);

        let mut engine = ServeEngine::builder(ModelConfig::tiny())
            .synthetic_weights(11)
            .budget(Budget::new(16))
            .policy(Box::new(ClusterKvFactory::new(test_config())))
            .prefix_store(Bytes(1 << 20))
            .build()
            .unwrap();
        let a = engine.create_session().unwrap();
        engine.prefill(a, &prompt).unwrap();
        assert_eq!(decode(&mut engine, a), cold_stream, "donor session");
        // The second session adopts the donor's exported clustering (same
        // per-head fingerprints, same token count) on top of fast-pathed KV:
        // its decode stream must still be byte-identical.
        let b = engine.create_session().unwrap();
        engine.prefill(b, &prompt).unwrap();
        let (matched, fast) = engine.session_prefix_tokens(b).unwrap();
        assert_eq!(matched, prompt.len());
        assert_eq!(fast, prompt.len() - 1);
        assert_eq!(decode(&mut engine, b), cold_stream, "adopting session");
        let stats = engine.prefix_store_stats().unwrap();
        assert!(
            stats.shared_bytes > Bytes(0),
            "pages plus cached selector states are charged to the store"
        );
    }

    #[test]
    fn exported_prefill_state_adopts_byte_identically() {
        let keys = prefill_keys(60, 8, 9);
        let mut donor = ClusterIndex::new(test_config(), 8);
        assert!(
            donor.export_prefill_state().is_none(),
            "nothing to export before reconcile"
        );
        chunk_feed(&mut donor, &keys);
        assert!(
            donor.export_prefill_state().is_none(),
            "nothing to export mid-prefill"
        );
        donor.observe(ObserveEvent::PrefillDone { total_tokens: 60 });
        let state = donor.export_prefill_state().expect("reconciled state");
        // The charge is what the snapshot holds: centroid rows and norms as
        // f32, three usize metadata tables — and no k-means scratch.
        let sc = donor.clustering();
        let (c, clustered) = (sc.num_clusters(), sc.metadata().num_tokens());
        assert_eq!(
            state.bytes,
            Bytes((4 * (c * 8 + c) + 8 * (c + c + 1 + clustered)) as u64)
        );

        // The adopter buffered the same chunks but skips its own reconcile.
        let mut adopter = ClusterIndex::new(test_config(), 8);
        chunk_feed(&mut adopter, &keys);
        assert!(adopter.adopt_prefill_state(&state, 60));
        assert_eq!(adopter.chunk_norms().len(), 0, "buffers dropped");
        assert_eq!(
            adopter.clustering().centroids().as_slice(),
            donor.clustering().centroids().as_slice(),
            "adopted centroids are the donor's, bitwise"
        );
        assert_eq!(
            adopter.clustering().centroid_norms(),
            donor.clustering().centroid_norms()
        );
        assert_eq!(
            adopter.clustering().sink_indices(),
            donor.clustering().sink_indices()
        );
        assert_eq!(
            adopter.clustering().num_tokens(),
            donor.clustering().num_tokens()
        );
        // Identical plans follow from identical state, and both keep
        // clustering decode keys identically afterwards.
        let mut ws = Workspace::new();
        let mut rng = seeded(13);
        for step in 0..10 {
            let key = gaussian_vec(&mut rng, 8, 0.0, 1.0);
            for index in [&mut adopter, &mut donor] {
                index.observe(ObserveEvent::Append {
                    position: 60 + step,
                    key: &key,
                });
            }
            let q = gaussian_vec(&mut rng, 8, 0.0, 1.0);
            let request = SelectionRequest::new(&q, 61 + step, Budget::new(24));
            assert_eq!(adopter.plan(request, &mut ws), donor.plan(request, &mut ws));
        }
        assert_eq!(adopter.clustering().incremental_runs(), 1);
        assert!(
            donor.export_prefill_state().is_none(),
            "a decoded index no longer holds the prompt's state"
        );
    }

    #[test]
    fn adoption_rejects_mismatched_state() {
        let factory = ClusterKvFactory::new(test_config());
        let index_at = |layer, kv_head| {
            ClusterIndex::new(
                factory.config_for(HeadContext {
                    layer,
                    head: kv_head * 4,
                    head_dim: 8,
                    kv_head,
                    group_size: 4,
                }),
                8,
            )
        };
        let keys = prefill_keys(60, 8, 9);
        let mut donor = index_at(1, 0);
        chunk_feed(&mut donor, &keys);
        donor.observe(ObserveEvent::PrefillDone { total_tokens: 60 });
        let state = donor.export_prefill_state().unwrap();

        // Wrong token count: the state is for a different prompt length.
        assert!(!index_at(1, 0).adopt_prefill_state(&state, 59));

        // Another KV head of the layer, or the same KV head of another
        // layer: the factory's seed derivation lands in the fingerprint, so
        // each refuses the other's state.
        for (layer, kv_head) in [(1, 1), (2, 0)] {
            let mut other = index_at(layer, kv_head);
            chunk_feed(&mut other, &keys);
            assert!(!other.adopt_prefill_state(&state, 60));
            // Refusal leaves the buffered chunks intact for the normal path.
            assert_eq!(other.chunk_norms().len(), 60);
            other.observe(ObserveEvent::PrefillDone { total_tokens: 60 });
            assert_eq!(other.clustering().num_tokens(), 60);
        }
        // The same (layer, kv_head) in another session adopts.
        let mut twin = index_at(1, 0);
        chunk_feed(&mut twin, &keys);
        assert!(twin.adopt_prefill_state(&state, 60));
    }
}
