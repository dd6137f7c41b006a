//! Criterion micro-benchmarks backing the efficiency discussion of the paper
//! (§III-D "Efficiency Concerns" and the kernel design of §IV):
//!
//! * semantic clustering throughput vs context length (Concern 1),
//! * cluster selection & indexing vs number of clusters (Concern 2),
//! * Quest page-metadata scoring (the baseline ClusterKV's selection cost is
//!   compared against),
//! * per-step top-k: partial selection vs the previous full argsort,
//! * cluster-cache lookups,
//! * the blocked kernel layer vs its scalar references (DESIGN.md §6):
//!   centroid scoring, Gram-trick k-means assignment and fused
//!   gather+attend, each at n ∈ {512, 2048, 8192}.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use clusterkv::{
    select_clusters, ClusterCache, ClusterCacheConfig, ClusterKvConfig, DistanceMetric, KMeans,
    PageRequest, SemanticClustering,
};
use clusterkv_baselines::QuestFactory;
use clusterkv_kvcache::types::Budget;
use clusterkv_model::policy::{observe_prompt, HeadContext, SelectionRequest, SelectorFactory};
use clusterkv_tensor::rng::{gaussian_vec, seeded};
use clusterkv_tensor::Matrix;

fn random_keys(n: usize, dim: usize, seed: u64) -> Matrix {
    let mut rng = seeded(seed);
    Matrix::from_rows(
        (0..n)
            .map(|_| gaussian_vec(&mut rng, dim, 0.0, 1.0))
            .collect(),
    )
    .unwrap()
}

/// Concern 1: clustering cost `O(n_i · C · L · d)` vs context length.
fn bench_clustering(c: &mut Criterion) {
    let mut group = c.benchmark_group("semantic_clustering");
    group.sample_size(10);
    for &len in &[1024usize, 4096, 8192] {
        let keys = random_keys(len, 64, 7);
        let c0 = (len / 80).max(4);
        group.bench_with_input(BenchmarkId::new("kmeans_c0", len), &keys, |b, keys| {
            b.iter(|| {
                let km = KMeans::new(DistanceMetric::Cosine, 10, 3);
                black_box(km.fit(keys, c0))
            })
        });
    }
    group.finish();
}

/// Concern 2: selection + indexing cost vs number of clusters.
fn bench_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_selection");
    for &c0 in &[100usize, 200, 400, 800] {
        let len = 8192;
        let config = ClusterKvConfig::default().with_tokens_per_cluster((len / c0).max(1));
        let mut clustering = SemanticClustering::new(config, 64);
        clustering.prefill(&random_keys(len, 64, 11));
        let query = gaussian_vec(&mut seeded(13), 64, 0.0, 1.0);
        group.bench_with_input(BenchmarkId::new("select", c0), &clustering, |b, cl| {
            b.iter(|| black_box(select_clusters(&query, cl, Budget::new(1024))))
        });
    }
    group.finish();
}

/// Quest page-metadata scoring for the same context length (the selection
/// cost ClusterKV's centroid scoring is compared against in §III-D).
fn bench_quest_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("quest_selection");
    let len = 8192;
    let keys = random_keys(len, 64, 17);
    let factory = QuestFactory::default();
    let mut selector = factory.create(HeadContext::mha(0, 0, 64));
    observe_prompt(selector.as_mut(), &keys);
    let query = gaussian_vec(&mut seeded(19), 64, 0.0, 1.0);
    group.bench_function("page_scoring_8k", |b| {
        b.iter(|| black_box(selector.plan(SelectionRequest::new(&query, len, Budget::new(1024)))))
    });
    group.finish();
}

/// Per-step top-k cost: `select_nth_unstable_by` partial selection (the
/// current `top_k_indices`) vs the previous full `O(n log n)` argsort. Quest
/// and H2O rank every page/token each decode step, so for small `k` over a
/// long context the partial selection is the difference between `O(n)` and
/// a full sort per step.
fn bench_top_k(c: &mut Criterion) {
    use clusterkv_tensor::vector::top_k_indices;
    let mut group = c.benchmark_group("top_k");
    let n = 8192;
    let scores = gaussian_vec(&mut seeded(23), n, 0.0, 1.0);
    // The pre-fix reference: argsort everything, keep the prefix.
    let full_argsort_top_k = |s: &[f32], k: usize| -> Vec<usize> {
        let mut idx: Vec<usize> = (0..s.len()).collect();
        idx.sort_by(|&i, &j| s[j].total_cmp(&s[i]).then(i.cmp(&j)));
        idx.truncate(k);
        idx
    };
    for &k in &[16usize, 64, 256] {
        group.bench_with_input(
            BenchmarkId::new("full_argsort", k),
            &scores,
            |b, s: &Vec<f32>| b.iter(|| black_box(full_argsort_top_k(s, k))),
        );
        group.bench_with_input(
            BenchmarkId::new("select_nth", k),
            &scores,
            |b, s: &Vec<f32>| b.iter(|| black_box(top_k_indices(s, k))),
        );
    }
    group.finish();
}

/// Tiered cluster-cache lookup and update cost.
fn bench_cache(c: &mut Criterion) {
    use clusterkv_kvcache::types::{Bytes, HeadId, LayerId};
    let mut group = c.benchmark_group("cluster_cache");
    let selections: Vec<Vec<PageRequest>> = (0..64)
        .map(|i| {
            ((i % 7)..(i % 7 + 20))
                .map(|p| PageRequest::new(p, p + 10))
                .collect()
        })
        .collect();
    group.bench_function("access_lru", |b| {
        b.iter(|| {
            // Room for roughly one step's worth of pages (LRU churn).
            let mut cache = ClusterCache::new(ClusterCacheConfig::new(Bytes(20 * 20 * 256), 64));
            for sel in &selections {
                black_box(cache.access(LayerId(0), HeadId(0), sel));
            }
            black_box(cache.stats())
        })
    });
    group.finish();
}

/// Blocked centroid scoring (`matvec_t_into` into a warm workspace) vs the
/// scalar per-row `dot`-and-collect reference, over the row counts the
/// decode path sees (centroid tables and full key matrices).
fn bench_centroid_scoring_kernels(c: &mut Criterion) {
    use clusterkv_tensor::kernels::{matvec_t_into, matvec_t_reference, Workspace};
    let mut group = c.benchmark_group("centroid_scoring");
    for &n in &[512usize, 2048, 8192] {
        let m = random_keys(n, 64, 31);
        let q = gaussian_vec(&mut seeded(32), 64, 0.0, 1.0);
        let mut ws = Workspace::new();
        matvec_t_into(&m, &q, &mut ws.scores);
        group.bench_with_input(BenchmarkId::new("blocked", n), &m, |b, m| {
            b.iter(|| {
                matvec_t_into(m, &q, &mut ws.scores);
                black_box(ws.scores.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("reference", n), &m, |b, m| {
            b.iter(|| black_box(matvec_t_reference(m, &q)))
        });
    }
    group.finish();
}

/// Gram-trick k-means assignment (cached norms, blocked matvec per row) vs
/// the per-pair `metric.distance` reference sweep.
fn bench_kmeans_assignment_kernels(c: &mut Criterion) {
    use clusterkv::{assign_labels, assign_labels_reference};
    use clusterkv_tensor::kernels::{row_norms_sq_into, Workspace};
    let mut group = c.benchmark_group("kmeans_assignment");
    group.sample_size(10);
    for &n in &[512usize, 2048, 8192] {
        let keys = random_keys(n, 64, 37);
        let k = (n / 80).max(4);
        let picks: Vec<usize> = (0..k).map(|c| c * n / k).collect();
        let centroids = keys.select_rows(&picks);
        let mut norms = Vec::new();
        row_norms_sq_into(&keys, &mut norms);
        let mut ws = Workspace::new();
        group.bench_with_input(BenchmarkId::new("blocked_gram", n), &keys, |b, keys| {
            b.iter(|| {
                black_box(assign_labels(
                    DistanceMetric::Cosine,
                    keys,
                    &norms,
                    &centroids,
                    &mut ws,
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("reference", n), &keys, |b, keys| {
            b.iter(|| {
                black_box(assign_labels_reference(
                    DistanceMetric::Cosine,
                    keys,
                    &centroids,
                ))
            })
        });
    }
    group.finish();
}

/// Fused gather + attend through a reusable workspace vs the allocating
/// scalar pipeline, over a budget-sized selection of a long context.
fn bench_gather_attend_kernels(c: &mut Criterion) {
    use clusterkv_kvcache::KvStore;
    use clusterkv_model::attention::{attend_selected_reference, attend_selected_ws};
    use clusterkv_tensor::kernels::Workspace;
    let mut group = c.benchmark_group("gather_attend");
    for &n in &[512usize, 2048, 8192] {
        let keys = random_keys(n, 64, 41);
        let values = random_keys(n, 64, 43);
        let mut store = KvStore::new(64);
        store.append_batch(&keys, &values);
        let q = gaussian_vec(&mut seeded(47), 64, 0.0, 1.0);
        // A budget-sized, scattered selection (every 8th token).
        let indices: Vec<usize> = (0..n).step_by(8).collect();
        let mut ws = Workspace::new();
        attend_selected_ws(&store, &q, &indices, &mut ws);
        group.bench_with_input(BenchmarkId::new("blocked_ws", n), &store, |b, store| {
            b.iter(|| {
                attend_selected_ws(store, &q, &indices, &mut ws);
                black_box(ws.out.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("reference", n), &store, |b, store| {
            b.iter(|| black_box(attend_selected_reference(store, &q, &indices)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_clustering,
    bench_selection,
    bench_quest_selection,
    bench_top_k,
    bench_cache,
    bench_centroid_scoring_kernels,
    bench_kmeans_assignment_kernels,
    bench_gather_attend_kernels
);
criterion_main!(benches);
