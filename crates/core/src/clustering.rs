//! Semantic clustering state of a single attention head.
//!
//! [`SemanticClustering`] owns the cluster centroids and metadata of one head
//! across the whole inference:
//!
//! * After prefill, the keys of the prompt (minus the first
//!   [`sink_tokens`](crate::ClusterKvConfig::sink_tokens) attention sinks)
//!   are clustered into `C0 = L / 80` clusters (§III-B).
//! * During decoding, generated keys are buffered and clustered **among
//!   themselves** every `m` steps into `C+` additional clusters, so the cost
//!   of re-clustering the whole context is never paid (§III-B).
//!
//! Tokens that are not covered by any cluster — the attention sinks and the
//! not-yet-clustered decode buffer — are reported separately so the selection
//! step can always retain them.

use crate::config::ClusterKvConfig;
use crate::kmeans::KMeans;
use crate::metadata::ClusterMetadata;
use clusterkv_tensor::kernels::{norm_sq, row_norms_sq_into, Workspace};
use clusterkv_tensor::rng::derive_seed;
use clusterkv_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Clustering state of one attention head.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SemanticClustering {
    config: ClusterKvConfig,
    head_dim: usize,
    /// Centroids of all clusters created so far (`C × d`).
    centroids: Matrix,
    /// Cached squared norms `‖c‖²`, aligned with the rows of `centroids` and
    /// extended whenever clusters are created (prefill, incremental flush).
    /// Feeds Gram-trick rescoring without recomputation; consistency with
    /// recomputation is pinned by the norm-cache tests.
    centroid_norms: Vec<f32>,
    /// Sizes / prefix sums / sorted indices of those clusters.
    metadata: ClusterMetadata,
    /// Positions of the attention-sink tokens (always retained).
    sinks: Vec<usize>,
    /// Positions of the decode-time keys awaiting incremental clustering.
    pending_positions: Vec<usize>,
    /// Those keys, one row per entry of `pending_positions`.
    pending_keys: Matrix,
    /// Cached squared norms `‖x‖²` of the buffered keys, maintained per
    /// append so the incremental k-means sweep never recomputes them.
    buffer_norms: Vec<f32>,
    /// Scratch workspace reused by every k-means sweep of this head.
    ws: Workspace,
    /// Number of incremental clustering runs performed so far.
    incremental_runs: usize,
    /// Total number of tokens observed (prefill + decode).
    num_tokens: usize,
}

/// The outcome of clustering a prompt: exactly the fields another
/// [`SemanticClustering`] of the same configuration needs to stand where the
/// exporting one stood right after [`prefill`](SemanticClustering::prefill)
/// — what the cross-session prefix store caches per KV head. Sinks follow
/// from the configuration and the token count; the pending buffer and the
/// k-means scratch are empty at that point and are not carried.
#[derive(Debug, Clone)]
pub struct PrefillClusters {
    centroids: Matrix,
    centroid_norms: Vec<f32>,
    metadata: ClusterMetadata,
    num_tokens: usize,
}

impl PrefillClusters {
    /// Prompt length the clustering covers.
    pub fn num_tokens(&self) -> usize {
        self.num_tokens
    }

    /// Heap bytes held: centroid rows and their norms (`f32`) plus the
    /// cluster metadata tables (`usize`).
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<f32>()
            * (self.centroids.rows() * self.centroids.cols() + self.centroid_norms.len())
            + self.metadata.heap_bytes()
    }
}

impl SemanticClustering {
    /// Create empty clustering state for a head of dimension `head_dim`.
    pub fn new(config: ClusterKvConfig, head_dim: usize) -> Self {
        Self {
            config,
            head_dim,
            centroids: Matrix::zeros(0, head_dim),
            centroid_norms: Vec::new(),
            metadata: ClusterMetadata::new(),
            sinks: Vec::new(),
            pending_positions: Vec::new(),
            pending_keys: Matrix::zeros(0, head_dim),
            buffer_norms: Vec::new(),
            ws: Workspace::new(),
            incremental_runs: 0,
            num_tokens: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ClusterKvConfig {
        &self.config
    }

    /// Dimensionality of the clustered key vectors.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Cluster centroids (`C × d`).
    pub fn centroids(&self) -> &Matrix {
        &self.centroids
    }

    /// Cached squared centroid norms (`‖c‖²`), aligned with
    /// [`centroids`](Self::centroids). Maintained incrementally as clusters
    /// are created; always consistent with recomputing
    /// [`norm_sq`] over the rows.
    pub fn centroid_norms(&self) -> &[f32] {
        &self.centroid_norms
    }

    /// Cached squared norms of the pending (buffered) decode keys, in buffer
    /// order — the `‖x‖²` side of the Gram trick for the next incremental
    /// sweep.
    pub fn pending_norms(&self) -> &[f32] {
        &self.buffer_norms
    }

    /// Cluster metadata (sizes, prefix sums, token indices).
    pub fn metadata(&self) -> &ClusterMetadata {
        &self.metadata
    }

    /// Positions of the attention-sink tokens.
    pub fn sink_indices(&self) -> &[usize] {
        &self.sinks
    }

    /// Positions of decode tokens not yet covered by a cluster, oldest
    /// first.
    pub fn pending_positions(&self) -> &[usize] {
        &self.pending_positions
    }

    /// Number of decode tokens not yet covered by a cluster.
    pub fn pending_len(&self) -> usize {
        self.pending_positions.len()
    }

    /// Number of clusters created so far.
    pub fn num_clusters(&self) -> usize {
        self.centroids.rows()
    }

    /// Number of incremental (decode-time) clustering runs performed.
    pub fn incremental_runs(&self) -> usize {
        self.incremental_runs
    }

    /// Total number of tokens observed.
    pub fn num_tokens(&self) -> usize {
        self.num_tokens
    }

    /// Cluster the prompt keys. Rows of `keys` are token positions
    /// `0..keys.rows()`. The first `sink_tokens` positions are kept aside as
    /// attention sinks; the rest are clustered into
    /// [`ClusterKvConfig::prefill_clusters`] clusters.
    ///
    /// # Panics
    ///
    /// Panics if `keys.cols() != head_dim` or if called more than once.
    pub fn prefill(&mut self, keys: &Matrix) {
        let mut norms = Vec::new();
        row_norms_sq_into(keys, &mut norms);
        self.prefill_with_norms(keys, &norms);
    }

    /// [`prefill`](Self::prefill) with caller-cached squared row norms
    /// (`‖x‖²`, one per row of `keys`) — the path taken by the ClusterKV
    /// selector, whose chunked-prefill buffer maintains the norms
    /// incrementally as chunks arrive.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch, a second prefill, or a norm cache whose
    /// length differs from `keys.rows()`.
    pub fn prefill_with_norms(&mut self, keys: &Matrix, norms: &[f32]) {
        assert_eq!(keys.cols(), self.head_dim, "prefill key dim mismatch");
        assert_eq!(self.num_tokens, 0, "prefill may only be called once");
        assert_eq!(norms.len(), keys.rows(), "norm cache out of date");
        let len = keys.rows();
        self.num_tokens = len;
        let sink = self.config.sink_tokens.min(len);
        self.sinks = (0..sink).collect();

        let clusterable = len - sink;
        if clusterable == 0 {
            return;
        }
        let c0 = self.config.prefill_clusters(len);
        let kmeans = KMeans::new(
            self.config.distance,
            self.config.max_kmeans_iters,
            derive_seed(self.config.seed, PREFILL_SEED_LABEL),
        );
        let clustered_keys = keys.slice_rows(sink, len);
        let result = kmeans.fit_with_norms(&clustered_keys, &norms[sink..], c0, &mut self.ws);
        let assignments: Vec<(usize, usize)> = result
            .labels
            .iter()
            .enumerate()
            .map(|(i, &label)| (sink + i, label))
            .collect();
        self.metadata.extend(&assignments, result.num_clusters());
        self.centroids
            .extend_rows(&result.centroids)
            .expect("centroid dims match");
        self.centroid_norms
            .extend_from_slice(&result.centroid_norms);
    }

    /// Snapshot the prompt clustering for sharing; `None` unless the state is
    /// exactly what [`prefill`](Self::prefill) left (a prompt observed, no
    /// decode key appended since).
    pub fn export_prefill(&self) -> Option<PrefillClusters> {
        let fresh =
            self.num_tokens > 0 && self.pending_positions.is_empty() && self.incremental_runs == 0;
        fresh.then(|| PrefillClusters {
            centroids: self.centroids.clone(),
            centroid_norms: self.centroid_norms.clone(),
            metadata: self.metadata.clone(),
            num_tokens: self.num_tokens,
        })
    }

    /// Take over a prompt clustering exported by a [`SemanticClustering`] of
    /// the same configuration over the same keys, in place of running
    /// [`prefill`](Self::prefill).
    ///
    /// # Panics
    ///
    /// Panics on a dimension mismatch or if this state already observed
    /// tokens.
    pub fn adopt_prefill(&mut self, state: &PrefillClusters) {
        assert_eq!(
            state.centroids.cols(),
            self.head_dim,
            "adopted dim mismatch"
        );
        assert_eq!(self.num_tokens, 0, "prefill may only happen once");
        self.num_tokens = state.num_tokens;
        self.sinks = (0..self.config.sink_tokens.min(state.num_tokens)).collect();
        self.centroids = state.centroids.clone();
        self.centroid_norms = state.centroid_norms.clone();
        self.metadata = state.metadata.clone();
    }

    /// Observe a decode-time key at absolute position `position`. Buffers the
    /// key and, once `decode_cluster_period` keys have accumulated, clusters
    /// them into `decode_new_clusters` new clusters.
    ///
    /// # Panics
    ///
    /// Panics if the key's length differs from `head_dim`.
    pub fn append(&mut self, position: usize, key: &[f32]) {
        assert_eq!(key.len(), self.head_dim, "append key dim mismatch");
        self.pending_positions.push(position);
        self.pending_keys
            .push_row(key)
            .expect("key length checked above");
        // Maintain the ‖x‖² cache per append: one blocked self-dot now saves
        // recomputing every buffered norm at each sweep iteration later.
        self.buffer_norms.push(norm_sq(key));
        self.num_tokens = self.num_tokens.max(position + 1);
        if self.pending_positions.len() >= self.config.decode_cluster_period {
            self.flush_pending();
        }
    }

    /// Force incremental clustering of whatever is currently buffered
    /// (normally called automatically every `m` appends).
    pub fn flush_pending(&mut self) {
        if self.pending_positions.is_empty() {
            return;
        }
        let k = self
            .config
            .decode_new_clusters
            .min(self.pending_positions.len());
        let kmeans = KMeans::new(
            self.config.distance,
            self.config.max_kmeans_iters,
            derive_seed(self.config.seed, 0xD000 + self.incremental_runs as u64),
        );
        let result = kmeans.fit_with_norms(&self.pending_keys, &self.buffer_norms, k, &mut self.ws);
        let assignments: Vec<(usize, usize)> = self
            .pending_positions
            .iter()
            .copied()
            .zip(result.labels.iter().copied())
            .collect();
        self.metadata.extend(&assignments, result.num_clusters());
        self.centroids
            .extend_rows(&result.centroids)
            .expect("centroid dims match");
        self.centroid_norms
            .extend_from_slice(&result.centroid_norms);
        self.incremental_runs += 1;
        self.pending_positions.clear();
        self.pending_keys.clear_rows();
        self.buffer_norms.clear();
    }
}

/// Seed-derivation label for the prefill clustering run (decode runs use
/// `0xD000 + run_index`).
const PREFILL_SEED_LABEL: u64 = 0xA11F;

#[cfg(test)]
mod tests {
    use super::*;
    use clusterkv_tensor::rng::{gaussian_vec, seeded};

    fn random_keys(n: usize, dim: usize, seed: u64) -> Matrix {
        let mut rng = seeded(seed);
        Matrix::from_rows(
            (0..n)
                .map(|_| gaussian_vec(&mut rng, dim, 0.0, 1.0))
                .collect(),
        )
        .unwrap()
    }

    fn config_small() -> ClusterKvConfig {
        ClusterKvConfig::default()
            .with_sink_tokens(4)
            .with_tokens_per_cluster(8)
            .with_decode_cluster_period(6)
            .with_decode_new_clusters(2)
    }

    #[test]
    fn prefill_separates_sinks_from_clusters() {
        let mut sc = SemanticClustering::new(config_small(), 8);
        sc.prefill(&random_keys(40, 8, 1));
        assert_eq!(sc.sink_indices(), &[0, 1, 2, 3]);
        assert_eq!(sc.num_tokens(), 40);
        // 36 clusterable tokens / 8 per cluster = 5 (>= min_clusters 4).
        assert_eq!(sc.num_clusters(), 5);
        assert_eq!(sc.metadata().num_tokens(), 36);
        // Sinks are not inside any cluster.
        for c in 0..sc.num_clusters() {
            for &t in sc.metadata().cluster_tokens(c) {
                assert!(t >= 4, "sink token {t} must not be clustered");
            }
        }
    }

    #[test]
    fn every_non_sink_token_is_in_exactly_one_cluster() {
        let mut sc = SemanticClustering::new(config_small(), 8);
        sc.prefill(&random_keys(50, 8, 2));
        let mut covered: Vec<usize> = (0..sc.num_clusters())
            .flat_map(|c| sc.metadata().cluster_tokens(c).to_vec())
            .collect();
        covered.sort_unstable();
        assert_eq!(covered, (4..50).collect::<Vec<_>>());
    }

    #[test]
    fn short_prompt_is_all_sinks() {
        let mut sc = SemanticClustering::new(config_small(), 8);
        sc.prefill(&random_keys(3, 8, 3));
        assert_eq!(sc.sink_indices(), &[0, 1, 2]);
        assert_eq!(sc.num_clusters(), 0);
    }

    #[test]
    fn decode_keys_buffer_then_cluster() {
        let mut sc = SemanticClustering::new(config_small(), 8);
        sc.prefill(&random_keys(20, 8, 4));
        let clusters_after_prefill = sc.num_clusters();
        // Five appends: below the period of 6, so still pending.
        for i in 0..5 {
            sc.append(20 + i, &[0.1 * i as f32; 8]);
        }
        assert_eq!(sc.pending_len(), 5);
        assert_eq!(sc.num_clusters(), clusters_after_prefill);
        // Sixth append triggers incremental clustering into 2 new clusters.
        sc.append(25, &[1.0; 8]);
        assert_eq!(sc.pending_len(), 0);
        assert_eq!(sc.num_clusters(), clusters_after_prefill + 2);
        assert_eq!(sc.incremental_runs(), 1);
        assert_eq!(sc.num_tokens(), 26);
    }

    #[test]
    fn flush_pending_handles_partial_buffer() {
        let mut sc = SemanticClustering::new(config_small(), 8);
        sc.prefill(&random_keys(20, 8, 5));
        sc.append(20, &[1.0; 8]);
        sc.flush_pending();
        assert_eq!(sc.pending_len(), 0);
        // A single token forms a single cluster (k clamped to rows).
        assert_eq!(sc.metadata().cluster_tokens(sc.num_clusters() - 1), &[20]);
        // Flushing an empty buffer is a no-op.
        let before = sc.num_clusters();
        sc.flush_pending();
        assert_eq!(sc.num_clusters(), before);
    }

    #[test]
    fn centroid_count_matches_metadata() {
        let mut sc = SemanticClustering::new(config_small(), 8);
        sc.prefill(&random_keys(64, 8, 6));
        for i in 0..12 {
            sc.append(
                64 + i,
                &gaussian_vec(&mut seeded(100 + i as u64), 8, 0.0, 1.0),
            );
        }
        sc.flush_pending();
        assert_eq!(sc.num_clusters(), sc.metadata().num_clusters());
        assert_eq!(sc.centroids().rows(), sc.num_clusters());
        assert_eq!(sc.centroids().cols(), 8);
    }

    /// The norm-cache invariant: whatever sequence of prefills, appends and
    /// flushes ran, the cached `‖c‖²`/`‖x‖²` values equal recomputation.
    fn assert_norm_caches_consistent(sc: &SemanticClustering) {
        assert_eq!(sc.centroid_norms().len(), sc.centroids().rows());
        for (c, row) in sc.centroids().iter_rows().enumerate() {
            assert_eq!(
                sc.centroid_norms()[c],
                clusterkv_tensor::kernels::norm_sq(row),
                "centroid {c} norm cache stale"
            );
        }
        assert_eq!(sc.pending_norms().len(), sc.pending_len());
    }

    #[test]
    fn norm_caches_survive_incremental_updates_and_flushes() {
        let mut sc = SemanticClustering::new(config_small(), 8);
        sc.prefill(&random_keys(40, 8, 21));
        assert_norm_caches_consistent(&sc);
        let mut rng = seeded(22);
        // Appends below the period keep pending norms aligned with the
        // buffer; crossing the period flushes both together.
        for i in 0..15 {
            sc.append(40 + i, &gaussian_vec(&mut rng, 8, 0.0, 1.0));
            assert_norm_caches_consistent(&sc);
        }
        // Partial-buffer flush reconciles too.
        sc.append(55, &[0.25; 8]);
        sc.flush_pending();
        assert_eq!(sc.pending_norms().len(), 0);
        assert_norm_caches_consistent(&sc);
    }

    #[test]
    fn prefill_with_norms_matches_plain_prefill() {
        let keys = random_keys(48, 8, 31);
        let mut plain = SemanticClustering::new(config_small(), 8);
        plain.prefill(&keys);
        let mut cached = SemanticClustering::new(config_small(), 8);
        let mut norms = Vec::new();
        clusterkv_tensor::kernels::row_norms_sq_into(&keys, &mut norms);
        cached.prefill_with_norms(&keys, &norms);
        assert_eq!(plain.centroids(), cached.centroids());
        assert_eq!(plain.centroid_norms(), cached.centroid_norms());
        assert_eq!(plain.metadata().sizes(), cached.metadata().sizes());
        assert_norm_caches_consistent(&cached);
    }

    #[test]
    #[should_panic]
    fn stale_norm_cache_panics() {
        let keys = random_keys(20, 8, 33);
        let mut sc = SemanticClustering::new(config_small(), 8);
        sc.prefill_with_norms(&keys, &[1.0; 3]); // wrong length
    }

    #[test]
    #[should_panic]
    fn double_prefill_panics() {
        let mut sc = SemanticClustering::new(config_small(), 8);
        sc.prefill(&random_keys(10, 8, 7));
        sc.prefill(&random_keys(10, 8, 8));
    }

    #[test]
    #[should_panic]
    fn wrong_key_dim_panics() {
        let mut sc = SemanticClustering::new(config_small(), 8);
        sc.prefill(&random_keys(10, 4, 9));
    }
}
