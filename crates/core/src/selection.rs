//! Selection at the granularity of semantic clusters (§III-C, §IV-C).
//!
//! Given a query vector, clusters are scored by the inner product between
//! the query and their centroids (inner product — not cosine — because it
//! aligns with the attention-weight computation, §III-C). Clusters are then
//! consumed in descending score order until the token budget is filled; the
//! last selected cluster is trimmed so the budget is never exceeded.
//!
//! Attention sinks and not-yet-clustered decode tokens are always retained
//! and are charged against the budget first.

use crate::clustering::SemanticClustering;
use crate::metadata::ClusterMetadata;
use clusterkv_kvcache::cluster_cache::PageRequest;
use clusterkv_kvcache::types::Budget;
use clusterkv_tensor::kernels::{matvec_t_into, Workspace};
use clusterkv_tensor::vector::argsort_descending_into;
use serde::{Deserialize, Serialize};

/// Outcome of one cluster-granularity selection step.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SelectionResult {
    /// Ids of the clusters that contributed tokens, in descending score
    /// order (the last one may have been trimmed).
    pub selected_clusters: Vec<usize>,
    /// Token indices to attend to: sinks, pending decode tokens, then
    /// cluster members. Never exceeds the budget.
    pub token_indices: Vec<usize>,
    /// Number of centroids scored against the query (the selection work the
    /// latency model charges for).
    pub scored_centroids: usize,
    /// Whether the last selected cluster was trimmed to fit the budget.
    pub trimmed_last_cluster: bool,
}

impl SelectionResult {
    /// Number of selected tokens.
    pub fn len(&self) -> usize {
        self.token_indices.len()
    }

    /// Whether nothing was selected.
    pub fn is_empty(&self) -> bool {
        self.token_indices.is_empty()
    }

    /// The selection as cluster-granularity page requests for the tiered KV
    /// cache: one page per selected cluster, sized to the *whole* cluster.
    /// Recall operates at cluster granularity (Fig. 8's prefix-sum gather
    /// moves whole clusters) even when the last cluster's attention set was
    /// trimmed to the budget; sinks and pending decode tokens stay pinned on
    /// the GPU and are never paged.
    pub fn page_requests(&self, metadata: &ClusterMetadata) -> Vec<PageRequest> {
        self.selected_clusters
            .iter()
            .map(|&c| PageRequest::new(c, metadata.cluster_size(c)))
            .collect()
    }
}

/// Select up to `budget` tokens for `query` from the clustering state of one
/// head.
///
/// The always-retained sets (attention sinks, pending decode tokens) are
/// charged against the budget first; remaining capacity is filled with the
/// members of the highest-scoring clusters, trimming the last cluster if
/// needed (§IV-C).
///
/// # Panics
///
/// Panics if `query.len()` differs from the centroid dimensionality when
/// clusters exist.
pub fn select_clusters(
    query: &[f32],
    clustering: &SemanticClustering,
    budget: Budget,
) -> SelectionResult {
    select_clusters_ws(query, clustering, budget, &mut Workspace::new())
}

/// [`select_clusters`] with a caller-owned [`Workspace`]: a copy of what
/// [`fill_selection_ws`] left in it.
pub fn select_clusters_ws(
    query: &[f32],
    clustering: &SemanticClustering,
    budget: Budget,
    ws: &mut Workspace,
) -> SelectionResult {
    let fill = fill_selection_ws(query, clustering, budget, ws);
    SelectionResult {
        selected_clusters: ws.labels.clone(),
        token_indices: ws.tokens.clone(),
        scored_centroids: fill.scored_centroids,
        trimmed_last_cluster: fill.trimmed_last_cluster,
    }
}

/// What one [`fill_selection_ws`] call reports besides the buffers it filled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectionFill {
    /// Number of centroids scored against the query.
    pub scored_centroids: usize,
    /// Whether the last selected cluster was trimmed to fit the budget.
    pub trimmed_last_cluster: bool,
}

/// Whether bit `position` of the bitmap is still clear.
#[inline]
fn unseen(seen: &[u64], position: usize) -> bool {
    seen[position / 64] & (1u64 << (position % 64)) == 0
}

/// Set bit `position` of the bitmap; returns whether it was clear before.
#[inline]
fn mark(seen: &mut [u64], position: usize) -> bool {
    let fresh = unseen(seen, position);
    seen[position / 64] |= 1u64 << (position % 64);
    fresh
}

/// The selection of [`select_clusters`], left in the workspace: the token
/// positions in `ws.tokens` (sinks, most recent pending tokens, then the
/// members of the best clusters) and the ids of the clusters that contributed
/// in `ws.labels`, in descending score order. This is the Fig. 8 gather — one
/// blocked matvec scores the centroids into `ws.scores`, the ranking lands in
/// `ws.idx`, and each ranked cluster's slice of the label-sorted index table
/// is copied into `ws.tokens` — and it is what the `ClusterKV` selector's
/// `plan` runs every decode step.
///
/// `ws.seen` holds one bit per token position, set once the position has
/// been emitted. Pending decode tokens can overlap sink positions (a harness
/// may append at a position the clustering also tracks as a sink) and a
/// cluster can contain an always-retained token or a position another
/// cluster already supplied; such members are neither emitted again nor
/// charged against the budget, and a cluster left with nothing to add is not
/// selected.
///
/// # Panics
///
/// Panics if `query.len()` differs from the centroid dimensionality when
/// clusters exist.
// analyzer: hot-path — zero-allocation contract (tests/zero_alloc.rs)
pub fn fill_selection_ws(
    query: &[f32],
    clustering: &SemanticClustering,
    budget: Budget,
    ws: &mut Workspace,
) -> SelectionFill {
    let budget_tokens = budget.tokens();
    let Workspace {
        scores,
        idx,
        labels,
        tokens,
        seen,
        ..
    } = ws;
    let centroids = clustering.centroids();
    // Sized for the largest selection this state can produce, so the first
    // call at a given budget is the only one that grows the buffers.
    tokens.clear();
    tokens.reserve(budget_tokens.min(clustering.num_tokens()));
    labels.clear();
    labels.reserve(centroids.rows());
    seen.clear();
    seen.resize(clustering.num_tokens().div_ceil(64), 0);

    // Always-retained tokens: attention sinks first, then the most recent
    // pending (unclustered) decode tokens when the budget is tight.
    let retained = clustering
        .sink_indices()
        .iter()
        .chain(clustering.pending_positions().iter().rev());
    for &t in retained {
        if tokens.len() >= budget_tokens {
            break;
        }
        if mark(seen, t) {
            tokens.push(t);
        }
    }

    if centroids.rows() == 0 || tokens.len() >= budget_tokens {
        return SelectionFill {
            scored_centroids: 0,
            trimmed_last_cluster: false,
        };
    }

    // Score clusters by inner product between the query and centroids: one
    // blocked matvec over the centroid matrix (the §IV-C batched scoring
    // kernel). NaN scores (a degenerate query or poisoned centroid) rank
    // strictly last and deterministically, so a NaN can never hijack the
    // budget.
    assert_eq!(
        centroids.cols(),
        query.len(),
        "query dimension matches centroid dimension"
    );
    matvec_t_into(centroids, query, scores);
    argsort_descending_into(scores, idx);

    let metadata = clustering.metadata();
    let mut trimmed = false;
    for &cluster in idx.iter() {
        let room = budget_tokens - tokens.len();
        if room == 0 {
            break;
        }
        // Membership is tested against the state before this cluster, then
        // the emitted members are marked: a position listed twice inside one
        // cluster is emitted twice, as the set-based fill always did.
        let start = tokens.len();
        let mut fresh = 0usize;
        for &m in metadata.cluster_tokens(cluster) {
            if unseen(seen, m) {
                fresh += 1;
                if fresh <= room {
                    tokens.push(m);
                }
            }
        }
        if fresh == 0 {
            continue;
        }
        labels.push(cluster);
        // Past `room`, the last selected cluster is trimmed to adhere to the
        // budget limit (§IV-C).
        trimmed = fresh > room;
        for &m in &tokens[start..] {
            mark(seen, m);
        }
    }

    SelectionFill {
        scored_centroids: centroids.rows(),
        trimmed_last_cluster: trimmed,
    }
}

/// Nominate the clusters a *widened*-budget selection would pick, for
/// speculative staging (DESIGN.md §10): one blocked matvec scores every
/// centroid into `ws.scores`, the ranking lands in `ws.idx`, and the
/// nominated cluster ids are written to `ws.labels` in descending score
/// order. Returns the number of nominations.
///
/// Because greedy fill consumes the same descending-score ranking as
/// [`select_clusters_ws`], widening the budget by `lookahead_tokens`
/// nominates the step's own top clusters plus the next-best marginal
/// candidates — the pages most likely to be demanded at step `t+1` when the
/// query drifts. (The fill here charges whole cluster sizes and skips the
/// overlap dedup, so it is a fast approximation of the plan's fill, not a
/// byte-for-byte replay — accuracy is measured, not assumed, via
/// `PrefetchStats`.) The pass is read-only on the clustering state and
/// purely scratch-mutating on `ws`, so a prefetch hint can never change
/// what a later plan returns.
// analyzer: hot-path
pub fn lookahead_clusters_ws(
    query: &[f32],
    clustering: &SemanticClustering,
    budget: Budget,
    lookahead_tokens: usize,
    ws: &mut Workspace,
) -> usize {
    ws.labels.clear();
    let target = budget.tokens().saturating_add(lookahead_tokens);
    let retained = clustering.sink_indices().len() + clustering.pending_len();
    let centroids = clustering.centroids();
    if centroids.rows() == 0 || retained >= target {
        return 0;
    }
    assert_eq!(
        centroids.cols(),
        query.len(),
        "query dimension matches centroid dimension"
    );
    // Single-threaded blocked matvec: the hint is one cheap pass and must
    // stay byte-identical at every thread count. NaN scores rank last
    // (argsort is total), so a poisoned query cannot hijack the staging
    // budget either.
    matvec_t_into(centroids, query, &mut ws.scores);
    argsort_descending_into(&ws.scores, &mut ws.idx);
    ws.labels.reserve(centroids.rows());
    let metadata = clustering.metadata();
    let mut remaining = target - retained;
    for &cluster in ws.idx.iter() {
        if remaining == 0 {
            break;
        }
        let size = metadata.cluster_size(cluster);
        if size == 0 {
            continue;
        }
        ws.labels.push(cluster);
        remaining = remaining.saturating_sub(size);
    }
    ws.labels.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterKvConfig;
    use crate::distance::DistanceMetric;
    use clusterkv_tensor::rng::{derive_seed, gaussian_vec, seeded};
    use clusterkv_tensor::Matrix;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The fill as it was before it became a gather over the workspace: an
    /// ordered set of everything emitted so far, and a filtered copy of each
    /// cluster's members. Kept as the oracle [`fill_selection_ws`] is
    /// differentially tested against.
    fn select_clusters_reference(
        query: &[f32],
        clustering: &SemanticClustering,
        budget: Budget,
    ) -> SelectionResult {
        let budget_tokens = budget.tokens();
        let mut token_indices: Vec<usize> = Vec::new();
        let mut seen = BTreeSet::new();
        for &s in clustering.sink_indices() {
            if token_indices.len() >= budget_tokens {
                break;
            }
            if seen.insert(s) {
                token_indices.push(s);
            }
        }
        for &p in clustering.pending_positions().iter().rev() {
            if token_indices.len() >= budget_tokens {
                break;
            }
            if seen.insert(p) {
                token_indices.push(p);
            }
        }
        let metadata = clustering.metadata();
        let centroids = clustering.centroids();
        if centroids.rows() == 0 || token_indices.len() >= budget_tokens {
            return SelectionResult {
                selected_clusters: Vec::new(),
                token_indices,
                scored_centroids: 0,
                trimmed_last_cluster: false,
            };
        }
        let mut scores = Vec::new();
        matvec_t_into(centroids, query, &mut scores);
        let mut ranking = Vec::new();
        argsort_descending_into(&scores, &mut ranking);
        let mut selected_clusters = Vec::new();
        let mut trimmed = false;
        let mut remaining = budget_tokens - token_indices.len();
        for &cluster in &ranking {
            if remaining == 0 {
                break;
            }
            let fresh: Vec<usize> = metadata
                .cluster_tokens(cluster)
                .iter()
                .copied()
                .filter(|m| !seen.contains(m))
                .collect();
            if fresh.is_empty() {
                continue;
            }
            selected_clusters.push(cluster);
            if fresh.len() <= remaining {
                seen.extend(fresh.iter().copied());
                token_indices.extend_from_slice(&fresh);
                remaining -= fresh.len();
            } else {
                seen.extend(fresh[..remaining].iter().copied());
                token_indices.extend_from_slice(&fresh[..remaining]);
                remaining = 0;
                trimmed = true;
            }
        }
        SelectionResult {
            selected_clusters,
            token_indices,
            scored_centroids: centroids.rows(),
            trimmed_last_cluster: trimmed,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn fill_matches_the_set_based_reference(
            prompt in 1usize..90,
            sinks in 0usize..7,
            per_cluster in 3usize..14,
            period in 2usize..9,
            new_clusters in 1usize..4,
            appends in 0usize..40,
            // Out of ten appends, how many reuse a position already seen
            // (a sink, a cluster member, a pending token) instead of the
            // next free one.
            reuse_in_ten in 0usize..6,
            query_kind in 0usize..4,
            seed in 0u64..1_000_000,
        ) {
            let dim = 8;
            let mut rng = seeded(seed);
            let config = ClusterKvConfig::default()
                .with_sink_tokens(sinks)
                .with_tokens_per_cluster(per_cluster)
                .with_decode_cluster_period(period)
                .with_decode_new_clusters(new_clusters)
                .with_seed(seed);
            let mut sc = SemanticClustering::new(config, dim);
            let rows = (0..prompt).map(|_| gaussian_vec(&mut rng, dim, 0.0, 1.0)).collect();
            sc.prefill(&Matrix::from_rows(rows).unwrap());
            for i in 0..appends {
                let n = sc.num_tokens();
                // A draw per append that does not advance the key RNG.
                let pick = derive_seed(seed, i as u64);
                let position = if pick % 10 < reuse_in_ten as u64 {
                    (pick / 10) as usize % n
                } else {
                    n
                };
                sc.append(position, &gaussian_vec(&mut rng, dim, 0.0, 1.0));
            }
            let n = sc.num_tokens();
            let query = match query_kind {
                0 => vec![0.0; dim],
                1 => vec![f32::NAN; dim],
                2 => {
                    let mut q = gaussian_vec(&mut rng, dim, 0.0, 1.0);
                    q[seed as usize % dim] = f32::NAN;
                    q
                }
                _ => gaussian_vec(&mut rng, dim, 0.0, 1.0),
            };
            // One workspace across every budget, so stale buffer contents
            // from a larger selection are part of what is tested.
            let mut ws = Workspace::new();
            for budget in (0..=n + 8).rev().chain(0..=n + 8) {
                let got = select_clusters_ws(&query, &sc, Budget::new(budget), &mut ws);
                let want = select_clusters_reference(&query, &sc, Budget::new(budget));
                prop_assert_eq!(&got.token_indices, &want.token_indices);
                prop_assert_eq!(&got.selected_clusters, &want.selected_clusters);
                prop_assert_eq!(got.trimmed_last_cluster, want.trimmed_last_cluster);
                prop_assert_eq!(got.scored_centroids, want.scored_centroids);
            }
        }
    }

    /// Build clustering state with three well separated directional groups:
    /// group A along +x (tokens 4..14), group B along +y (14..24), group C
    /// along -x (24..34). Sinks are tokens 0..4.
    fn directional_clustering() -> SemanticClustering {
        let dim = 4;
        let config = ClusterKvConfig::default()
            .with_sink_tokens(4)
            .with_tokens_per_cluster(10)
            .with_distance(DistanceMetric::Cosine);
        let mut rows = Vec::new();
        for i in 0..34 {
            let mut v = vec![0.0f32; dim];
            if i < 4 {
                v[3] = 1.0; // sinks: a direction of their own
            } else if i < 14 {
                v[0] = 1.0 + (i as f32) * 0.001;
            } else if i < 24 {
                v[1] = 1.0 + (i as f32) * 0.001;
            } else {
                v[0] = -1.0 - (i as f32) * 0.001;
            }
            rows.push(v);
        }
        let mut sc = SemanticClustering::new(config, dim);
        sc.prefill(&Matrix::from_rows(rows).unwrap());
        sc
    }

    #[test]
    fn selects_the_cluster_aligned_with_the_query() {
        let sc = directional_clustering();
        // Query along +x: tokens 4..14 should be preferred.
        let result = select_clusters(&[1.0, 0.0, 0.0, 0.0], &sc, Budget::new(14));
        // 4 sinks + 10 aligned tokens fill the budget exactly.
        assert_eq!(result.len(), 14);
        for t in 4..14 {
            assert!(
                result.token_indices.contains(&t),
                "aligned token {t} missing from {:?}",
                result.token_indices
            );
        }
        // Anti-aligned tokens (24..34) must not appear.
        for t in 24..34 {
            assert!(!result.token_indices.contains(&t));
        }
        assert!(result.scored_centroids > 0);
    }

    #[test]
    fn sinks_are_always_retained() {
        let sc = directional_clustering();
        let result = select_clusters(&[0.0, 1.0, 0.0, 0.0], &sc, Budget::new(8));
        for s in 0..4 {
            assert!(result.token_indices.contains(&s), "sink {s} missing");
        }
        assert!(result.len() <= 8);
    }

    #[test]
    fn budget_is_never_exceeded_and_last_cluster_is_trimmed() {
        let sc = directional_clustering();
        // Budget 7: 4 sinks + 3 tokens from the best cluster (trimmed).
        let result = select_clusters(&[1.0, 0.0, 0.0, 0.0], &sc, Budget::new(7));
        assert_eq!(result.len(), 7);
        assert!(result.trimmed_last_cluster);
        assert_eq!(result.selected_clusters.len(), 1);
    }

    #[test]
    fn page_requests_cover_selected_clusters_at_full_size() {
        let sc = directional_clustering();
        // Budget 7 trims the aligned 10-token cluster to 3 attended tokens,
        // but recall stays cluster granular: the page covers all 10.
        let result = select_clusters(&[1.0, 0.0, 0.0, 0.0], &sc, Budget::new(7));
        assert!(result.trimmed_last_cluster);
        let pages = result.page_requests(sc.metadata());
        assert_eq!(pages.len(), 1);
        assert_eq!(pages[0].page, result.selected_clusters[0]);
        assert_eq!(pages[0].tokens, 10);
    }

    #[test]
    fn selection_is_recallable_across_queries() {
        // The same clustering state serves different queries: tokens ignored
        // for one query are recalled for another — the core recallability
        // property (Fig. 1d).
        let sc = directional_clustering();
        let toward_x = select_clusters(&[1.0, 0.0, 0.0, 0.0], &sc, Budget::new(10));
        let toward_y = select_clusters(&[0.0, 1.0, 0.0, 0.0], &sc, Budget::new(10));
        let x_tokens: std::collections::HashSet<_> =
            toward_x.token_indices.iter().copied().collect();
        // Tokens 14..24 are ignored by the +x query but recalled by +y.
        assert!((14..24).all(|t| !x_tokens.contains(&t)));
        assert!((14..20).any(|t| toward_y.token_indices.contains(&t)));
    }

    #[test]
    fn pending_tokens_are_always_kept() {
        let mut sc = directional_clustering();
        sc.append(34, &[0.0, 0.0, 1.0, 0.0]);
        sc.append(35, &[0.0, 0.0, 1.0, 0.0]);
        let result = select_clusters(&[1.0, 0.0, 0.0, 0.0], &sc, Budget::new(12));
        assert!(result.token_indices.contains(&34));
        assert!(result.token_indices.contains(&35));
        assert!(result.len() <= 12);
    }

    #[test]
    fn tiny_budget_prefers_sinks_then_recent_pending() {
        let mut sc = directional_clustering();
        for i in 0..6 {
            sc.append(34 + i, &[0.0, 0.0, 1.0, 0.0]);
        }
        let result = select_clusters(&[1.0, 0.0, 0.0, 0.0], &sc, Budget::new(6));
        assert_eq!(result.len(), 6);
        // 4 sinks + the 2 most recent pending tokens.
        assert!(result.token_indices.contains(&39));
        assert!(result.token_indices.contains(&38));
        assert!(result.selected_clusters.is_empty());
    }

    #[test]
    fn no_clusters_returns_only_always_retained() {
        let config = ClusterKvConfig::default().with_sink_tokens(4);
        let mut sc = SemanticClustering::new(config, 4);
        sc.prefill(&Matrix::from_rows(vec![vec![1.0, 0.0, 0.0, 0.0]; 3]).unwrap());
        let result = select_clusters(&[1.0, 0.0, 0.0, 0.0], &sc, Budget::new(8));
        assert_eq!(result.token_indices, vec![0, 1, 2]);
        assert_eq!(result.scored_centroids, 0);
    }

    #[test]
    fn nan_scores_neither_panic_nor_win_selection() {
        // Regression: a NaN query poisons every centroid score. The old
        // `partial_cmp().unwrap_or(Equal)` ranking was a non-total order
        // (sort_by may panic) and nondeterministic; with NaN ranked last the
        // selection falls back to cluster-index order, deterministically.
        let sc = directional_clustering();
        let nan_query = [f32::NAN, 0.0, 0.0, 0.0];
        let first = select_clusters(&nan_query, &sc, Budget::new(14));
        let second = select_clusters(&nan_query, &sc, Budget::new(14));
        assert_eq!(first.token_indices, second.token_indices);
        assert_eq!(first.selected_clusters, second.selected_clusters);
        assert!(first.len() <= 14);
        assert_unique(&first);
        // Sinks are still retained ahead of any (all-NaN-scored) cluster.
        for s in 0..4 {
            assert!(first.token_indices.contains(&s), "sink {s} missing");
        }
        // All scores are NaN, so clusters are consumed in index order.
        assert_eq!(first.selected_clusters, vec![0]);
    }

    #[test]
    fn nan_scores_respect_budget_at_every_size() {
        let sc = directional_clustering();
        let nan_query = [f32::NAN; 4];
        for budget in [0usize, 1, 4, 7, 14, 34, 100] {
            let result = select_clusters(&nan_query, &sc, Budget::new(budget));
            assert!(result.len() <= budget);
            assert_unique(&result);
        }
    }

    #[test]
    fn workspace_path_matches_fresh_workspace_and_reuses_buffers() {
        let sc = directional_clustering();
        let queries = [
            [1.0f32, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.3, -0.9, 0.2, 0.0],
        ];
        let mut ws = clusterkv_tensor::kernels::Workspace::new();
        // Warm the buffers at the largest budget (the token buffer is as
        // long as the selection), then the steady state must not grow them.
        let _ = select_clusters_ws(&queries[0], &sc, Budget::new(34), &mut ws);
        let warm = ws.allocated_bytes();
        for q in &queries {
            for budget in [3usize, 7, 14, 34] {
                let reused = select_clusters_ws(q, &sc, Budget::new(budget), &mut ws);
                let fresh = select_clusters(q, &sc, Budget::new(budget));
                assert_eq!(reused.token_indices, fresh.token_indices);
                assert_eq!(reused.selected_clusters, fresh.selected_clusters);
                assert_eq!(reused.trimmed_last_cluster, fresh.trimmed_last_cluster);
            }
        }
        assert_eq!(
            ws.allocated_bytes(),
            warm,
            "workspace must not grow in steady state"
        );
    }

    #[test]
    fn lookahead_nominates_a_superset_of_the_selected_clusters() {
        let sc = directional_clustering();
        let mut ws = clusterkv_tensor::kernels::Workspace::new();
        let q = [1.0f32, 0.2, 0.0, 0.0];
        let plan = select_clusters_ws(&q, &sc, Budget::new(14), &mut ws);
        let n = lookahead_clusters_ws(&q, &sc, Budget::new(14), 10, &mut ws);
        assert!(n >= plan.selected_clusters.len());
        for c in &plan.selected_clusters {
            assert!(
                ws.labels[..n].contains(c),
                "lookahead must keep the step's own cluster {c}"
            );
        }
        // The widened budget pulls in at least one marginal candidate here
        // (three 10-token clusters, budget 14 → 1 selected, 24 → 2).
        assert!(n > plan.selected_clusters.len());
    }

    #[test]
    fn lookahead_is_scratch_only_and_deterministic() {
        let sc = directional_clustering();
        let q = [0.1f32, 1.0, 0.0, 0.0];
        let mut ws = clusterkv_tensor::kernels::Workspace::new();
        let before = select_clusters_ws(&q, &sc, Budget::new(12), &mut ws);
        let n1 = lookahead_clusters_ws(&q, &sc, Budget::new(12), 8, &mut ws);
        let first: Vec<usize> = ws.labels[..n1].to_vec();
        let n2 = lookahead_clusters_ws(&q, &sc, Budget::new(12), 8, &mut ws);
        assert_eq!(n1, n2);
        assert_eq!(first, ws.labels[..n2]);
        // The hint is scratch-only: the next plan is byte-identical to the
        // one before the hint ran.
        let after = select_clusters_ws(&q, &sc, Budget::new(12), &mut ws);
        assert_eq!(before.token_indices, after.token_indices);
        assert_eq!(before.selected_clusters, after.selected_clusters);
        // Steady state allocates nothing new.
        let warm = ws.allocated_bytes();
        for _ in 0..10 {
            let _ = lookahead_clusters_ws(&q, &sc, Budget::new(12), 8, &mut ws);
        }
        assert_eq!(ws.allocated_bytes(), warm, "lookahead must be zero-alloc");
    }

    #[test]
    fn lookahead_with_zero_extra_tokens_covers_the_plan() {
        let sc = directional_clustering();
        let mut ws = clusterkv_tensor::kernels::Workspace::new();
        let q = [1.0f32, 0.0, 0.0, 0.0];
        let plan = select_clusters_ws(&q, &sc, Budget::new(14), &mut ws);
        let n = lookahead_clusters_ws(&q, &sc, Budget::new(14), 0, &mut ws);
        assert_eq!(ws.labels[..n], plan.selected_clusters);
    }

    #[test]
    fn lookahead_handles_empty_and_saturated_states() {
        let config = ClusterKvConfig::default().with_sink_tokens(4);
        let mut sc = SemanticClustering::new(config, 4);
        sc.prefill(&Matrix::from_rows(vec![vec![1.0, 0.0, 0.0, 0.0]; 3]).unwrap());
        let mut ws = clusterkv_tensor::kernels::Workspace::new();
        // No clusters: nothing to nominate.
        assert_eq!(
            lookahead_clusters_ws(&[1.0, 0.0, 0.0, 0.0], &sc, Budget::new(8), 4, &mut ws),
            0
        );
        // Retained tokens already exceed the widened budget.
        let sc = directional_clustering();
        assert_eq!(
            lookahead_clusters_ws(&[1.0, 0.0, 0.0, 0.0], &sc, Budget::new(2), 1, &mut ws),
            0
        );
    }

    #[test]
    fn selected_tokens_are_unique() {
        let sc = directional_clustering();
        let result = select_clusters(&[0.3, 0.9, 0.0, 0.0], &sc, Budget::new(20));
        let set: std::collections::HashSet<_> = result.token_indices.iter().collect();
        assert_eq!(set.len(), result.token_indices.len());
    }

    fn assert_unique(result: &SelectionResult) {
        let set: std::collections::HashSet<_> = result.token_indices.iter().collect();
        assert_eq!(
            set.len(),
            result.token_indices.len(),
            "duplicate indices in {:?}",
            result.token_indices
        );
    }

    #[test]
    fn pending_overlapping_sink_positions_is_deduplicated() {
        // A pending decode token at a position that is also a sink must be
        // emitted once, even when sinks + pending alone exceed the budget.
        let mut sc = directional_clustering();
        sc.append(2, &[0.0, 0.0, 1.0, 0.0]); // overlaps sink position 2
        sc.append(34, &[0.0, 0.0, 1.0, 0.0]);
        sc.append(35, &[0.0, 0.0, 1.0, 0.0]);
        for budget in [3usize, 5, 7, 20] {
            let result = select_clusters(&[1.0, 0.0, 0.0, 0.0], &sc, Budget::new(budget));
            assert!(
                result.len() <= budget,
                "budget {budget} exceeded: {}",
                result.len()
            );
            assert_unique(&result);
        }
        // With room for everything, the overlapping position appears once
        // and both genuine pending tokens are retained.
        let roomy = select_clusters(&[1.0, 0.0, 0.0, 0.0], &sc, Budget::new(20));
        assert_eq!(roomy.token_indices.iter().filter(|&&t| t == 2).count(), 1);
        assert!(roomy.token_indices.contains(&34));
        assert!(roomy.token_indices.contains(&35));
    }

    #[test]
    fn sinks_and_pending_exceeding_budget_do_not_panic() {
        let mut sc = directional_clustering(); // 4 sinks
        for i in 0..10 {
            sc.append(34 + i, &[0.0, 0.0, 1.0, 0.0]);
        }
        // Budgets below, at and just above the always-retained count.
        for budget in [0usize, 1, 2, 4, 6, 13, 14, 15] {
            let result = select_clusters(&[1.0, 0.0, 0.0, 0.0], &sc, Budget::new(budget));
            assert!(result.len() <= budget);
            assert_unique(&result);
        }
        // Budget exactly equal to sinks + pending: fully consumed by the
        // always-retained sets, no clusters selected.
        let exact = select_clusters(&[1.0, 0.0, 0.0, 0.0], &sc, Budget::new(14));
        assert_eq!(exact.len(), 14);
        assert!(exact.selected_clusters.is_empty());
    }

    #[test]
    fn cluster_members_overlapping_retained_tokens_are_not_double_counted() {
        // Tokens 4..14 form the +x cluster; a pending token at position 5
        // overlaps it. The cluster's remaining members must still fill the
        // budget without emitting 5 twice.
        let mut sc = directional_clustering();
        sc.append(5, &[1.0, 0.0, 0.0, 0.0]);
        let result = select_clusters(&[1.0, 0.0, 0.0, 0.0], &sc, Budget::new(15));
        assert_unique(&result);
        assert_eq!(result.len(), 15);
        assert_eq!(result.token_indices.iter().filter(|&&t| t == 5).count(), 1);
        // All members of the aligned cluster are still selected.
        for t in 4..14 {
            assert!(result.token_indices.contains(&t), "token {t} missing");
        }
    }
}
