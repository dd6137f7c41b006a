//! Counting-allocator proof of the kernel layer's zero-allocation contract
//! (DESIGN.md §6): once a [`Workspace`] is warm, the attention + selection
//! hot-loop kernels — scoring, ranking, the cluster fill, the lookahead
//! nomination, gather-attend, norm maintenance — perform **zero** heap
//! allocations per decode step, a ClusterKV plan — a lone selector's or any
//! query head's against its group's shared index — allocates exactly the
//! two buffers its `SelectionPlan` hands to the engine (token positions,
//! pages), whatever the budget, the cluster count or the compression
//! config, a k-means fit allocates only the `Clustering` it returns, a
//! compressed-recall attend reads its pages' integer codes without
//! allocating, and so does a cluster-cache access on its miss path —
//! recall, demotion, eviction — once every page of the session is known;
//! and the warm decode steps of a whole compressed-recall session allocate
//! alike, one after the other.
//!
//! The whole proof lives in a single `#[test]` so no concurrent test in this
//! binary can allocate while the counters are being read (the allocator is
//! process-global). Per-session outputs of the *serving* loop (logits, the
//! hidden state) are outside the kernel layer and covered instead by the
//! workspace-reuse steady-state tests in `serve.rs`.

// The one sanctioned `unsafe` user in the workspace (`unsafe_code` is denied
// via [workspace.lints]): implementing GlobalAlloc is inherently unsafe.
// This file is allowlisted in clusterkv-analyzer's UNSAFE_ALLOWLIST; every
// block below carries the SAFETY note the unsafe-gate lint requires.
#![allow(unsafe_code)]

use clusterkv_tensor::kernels::Workspace;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method delegates to the System allocator after bumping an
// atomic counter; the GlobalAlloc contract (layout validity, pointer
// provenance) is upheld verbatim by that delegation.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: forwards the caller's layout to System untouched.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: forwards the caller's pointer/layout pair to System untouched.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwards the caller's pointer, layout, and new size to System
    // untouched.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::SeqCst)
}

#[test]
fn warm_kernel_hot_loop_performs_zero_allocations() {
    use clusterkv_kvcache::KvStore;
    use clusterkv_model::attention::{attend_selected_ws, full_attention_weights_ws};
    use clusterkv_tensor::kernels::{
        attention_weights_into, gather_matvec_t_into, matvec_t_into, norm_sq, row_norms_sq_into,
    };
    use clusterkv_tensor::rng::{gaussian_vec, seeded};
    use clusterkv_tensor::vector::argsort_descending_into;
    use clusterkv_tensor::Matrix;

    // ---- setup (allocates freely) ------------------------------------
    let n = 1024;
    let dim = 64;
    let mut rng = seeded(0x2A);
    let keys = Matrix::from_flat(n, dim, gaussian_vec(&mut rng, n * dim, 0.0, 1.0)).unwrap();
    let values = Matrix::from_flat(n, dim, gaussian_vec(&mut rng, n * dim, 0.0, 1.0)).unwrap();
    let mut store = KvStore::new(dim);
    store.append_batch(&keys, &values);
    let query = gaussian_vec(&mut rng, dim, 0.0, 1.0);
    let selected: Vec<usize> = (0..n).step_by(4).collect();
    let mut ws = Workspace::new();

    // ---- warm-up: one pass sizes every buffer ------------------------
    matvec_t_into(&keys, &query, &mut ws.scores);
    argsort_descending_into(&ws.scores, &mut ws.idx);
    gather_matvec_t_into(&keys, &selected, &query, &mut ws.scores);
    attention_weights_into(&keys, Some(&selected), &query, &mut ws.weights);
    attend_selected_ws(&store, &query, &selected, &mut ws);
    full_attention_weights_ws(&store, &query, &mut ws);
    row_norms_sq_into(&keys, &mut ws.row_norms);

    // ---- steady state: the decode-step kernel sequence, repeated -----
    let mut sink = 0.0f32;
    let before = allocations();
    for _ in 0..100 {
        // Selection: score every centroid/key row, rank the scores.
        matvec_t_into(&keys, &query, &mut ws.scores);
        argsort_descending_into(&ws.scores, &mut ws.idx);
        // Attention over the selected tokens: fused gather + softmax +
        // weighted sum into the workspace.
        attend_selected_ws(&store, &query, &selected, &mut ws);
        sink += ws.out[0] + ws.scores[ws.idx[0]];
        // Trace-style exact weights via the no-index-vec full path.
        full_attention_weights_ws(&store, &query, &mut ws);
        // Norm-cache maintenance (the Gram-trick ingredients).
        ws.row_norms.clear();
        sink += norm_sq(&query);
        row_norms_sq_into(&keys, &mut ws.row_norms);
    }
    let after = allocations();
    assert!(sink.is_finite());
    assert_eq!(
        after - before,
        0,
        "warm hot-loop kernels must not allocate (got {} allocations over 100 steps)",
        after - before
    );

    selection_allocates_only_the_plan();
    kmeans_fit_allocates_only_its_result();
    compressed_recall_attend_allocates_nothing();
    compressed_recall_session_steps_allocate_alike();
    cache_miss_path_allocates_nothing();
}

/// The ClusterKV selection path over one 3200-token context clustered two
/// ways (20 and 200 clusters), at two budgets, lossless and int4: the fill
/// kernel and the lookahead nomination allocate nothing once warm, and every
/// plan allocates the same two buffers. Called from the single test above.
fn selection_allocates_only_the_plan() {
    use clusterkv::{
        fill_selection_ws, lookahead_clusters_ws, ClusterKvConfig, ClusterKvFactory,
        ClusterKvSelector,
    };
    use clusterkv_kvcache::types::Budget;
    use clusterkv_kvcache::CompressionConfig;
    use clusterkv_model::policy::{
        observe_prompt, HeadContext, ObserveEvent, SelectionRequest, SelectorFactory, TokenSelector,
    };
    use clusterkv_tensor::rng::{gaussian_vec, seeded};
    use clusterkv_tensor::Matrix;

    let rng = &mut seeded(0x2B);
    let (n, dim, pending) = (3200, 16, 5);
    let keys = Matrix::from_flat(n, dim, gaussian_vec(rng, n * dim, 0.0, 1.0)).unwrap();
    let decode_keys: Vec<Vec<f32>> = (0..pending)
        .map(|_| gaussian_vec(rng, dim, 0.0, 1.0))
        .collect();
    let queries: Vec<Vec<f32>> = (0..8).map(|_| gaussian_vec(rng, dim, 0.0, 1.0)).collect();

    let mut plan_allocations = Vec::new();
    for tokens_per_cluster in [160, 16] {
        for compression in [CompressionConfig::lossless(), CompressionConfig::int4()] {
            let config = ClusterKvConfig {
                max_kmeans_iters: 2,
                ..ClusterKvConfig::default()
                    .with_tokens_per_cluster(tokens_per_cluster)
                    .with_compression(compression)
            };
            let mut selector = ClusterKvSelector::new(config, dim);
            observe_prompt(&mut selector, &keys);
            for (i, key) in decode_keys.iter().enumerate() {
                selector.observe(ObserveEvent::Append {
                    position: n + i,
                    key,
                });
            }
            let clusters = selector.clustering().num_clusters();
            assert!(clusters.abs_diff(n / tokens_per_cluster) <= 1, "{clusters}");

            for budget in [2048, 256].map(Budget::new) {
                // Kernels on a workspace of the caller's, warmed by one call
                // each at this budget.
                let mut ws = Workspace::new();
                let sc = selector.clustering();
                fill_selection_ws(&queries[0], sc, budget, &mut ws);
                lookahead_clusters_ws(&queries[0], sc, budget, 256, &mut ws);
                let before = allocations();
                let mut picked = 0;
                for q in &queries {
                    picked += fill_selection_ws(q, sc, budget, &mut ws).scored_centroids;
                    picked += ws.tokens.len() + ws.labels.len();
                    picked += lookahead_clusters_ws(q, sc, budget, 256, &mut ws);
                }
                let kernel_allocations = allocations() - before;
                assert!(picked > queries.len() * budget.tokens());
                assert_eq!(
                    kernel_allocations, 0,
                    "warm fill + lookahead must not allocate \
                     ({clusters} clusters, {budget:?}, {compression})"
                );

                // The selector's own workspace is warm after one plan.
                let request = |q| SelectionRequest::new(q, n + pending, budget);
                selector.plan(request(&queries[0]));
                let before = allocations();
                for q in &queries {
                    assert_eq!(selector.plan(request(q)).len(), budget.tokens());
                }
                plan_allocations.push(allocations() - before);
            }
        }
    }
    assert_eq!(
        plan_allocations,
        [2 * queries.len(); 8],
        "a warm plan allocates its index vector and its page list, nothing else"
    );

    // The same per query head when four of them plan against the one index
    // of their KV head: each warms its own scratch, none copies the index.
    let factory = ClusterKvFactory::new(ClusterKvConfig {
        max_kmeans_iters: 2,
        ..ClusterKvConfig::default()
    });
    let mut group = factory.create_group(HeadContext {
        layer: 1,
        head: 0,
        head_dim: dim,
        kv_head: 0,
        group_size: 4,
    });
    group.observe(ObserveEvent::PrefillChunk {
        start: 0,
        keys: &keys,
    });
    group.observe(ObserveEvent::PrefillDone { total_tokens: n });
    let request = |q| SelectionRequest::new(q, n, Budget::new(256));
    for mut head in group.heads() {
        head.plan(request(&queries[0]));
    }
    let before = allocations();
    for (mut head, q) in group.heads().zip(&queries) {
        assert_eq!(head.plan(request(q)).len(), 256);
    }
    assert_eq!(allocations() - before, 2 * 4, "two buffers per query head");
}

/// A warm `KMeans::fit_with_norms` over a prompt-sized key matrix — run the
/// way the serving engine runs it, inside a parallel region (its per-KV-head
/// fan-out), where the assignment sweep stays on the calling worker —
/// allocates the centroids, their norms and the labels it returns, and
/// nothing per iteration. Called from the single test above.
fn kmeans_fit_allocates_only_its_result() {
    use clusterkv::{DistanceMetric, KMeans};
    use clusterkv_tensor::kernels::row_norms_sq_into;
    use clusterkv_tensor::rng::{gaussian_vec, seeded};
    use clusterkv_tensor::Matrix;
    use rayon::prelude::*;

    let (n, dim, k) = (2000, 16, 25);
    let keys = Matrix::from_flat(n, dim, gaussian_vec(&mut seeded(0x2C), n * dim, 0.0, 1.0))
        .expect("shape matches");
    let mut norms = Vec::new();
    row_norms_sq_into(&keys, &mut norms);
    let kmeans = KMeans::new(DistanceMetric::Cosine, 6, 7);
    let mut ws = Workspace::new();
    let fits: Vec<(usize, usize)> = vec![&mut ws]
        .into_par_iter()
        .map(|ws| {
            let warm = kmeans.fit_with_norms(&keys, &norms, k, ws);
            let before = allocations();
            let again = kmeans.fit_with_norms(&keys, &norms, k, ws);
            let during = allocations() - before;
            assert_eq!(again.labels, warm.labels);
            (again.iterations, during)
        })
        .collect();
    let (iterations, during) = fits[0];
    assert_eq!(iterations, 6, "every sweep and update step ran");
    assert_eq!(
        during, 3,
        "a warm fit allocates its centroids, their norms and its labels"
    );
}

/// Attention over a budget-1024 ClusterKV selection of a 3200-token context
/// clustered two ways (20 and 199 clusters) under int4, read from the pages
/// each cluster was quantized into once: shaping the operand, dequantizing
/// the pages' members into their rows, copying the uncovered rows and the
/// fused kernel allocate nothing once the head's workspace is warm. Called
/// from the single test above.
fn compressed_recall_attend_allocates_nothing() {
    use clusterkv::{fill_selection_ws, ClusterKvConfig, ClusterKvSelector};
    use clusterkv_kvcache::compressed::{compress_page, CompressedPage};
    use clusterkv_kvcache::types::Budget;
    use clusterkv_kvcache::{CompressionConfig, KvStore};
    use clusterkv_model::attention::attend_compressed_ws;
    use clusterkv_model::policy::observe_prompt;
    use clusterkv_tensor::rng::{gaussian_vec, seeded};
    use clusterkv_tensor::Matrix;

    let rng = &mut seeded(0x2D);
    let (n, dim) = (3200, 16);
    let keys = Matrix::from_flat(n, dim, gaussian_vec(rng, n * dim, 0.0, 1.0)).unwrap();
    let values = Matrix::from_flat(n, dim, gaussian_vec(rng, n * dim, 0.0, 1.0)).unwrap();
    let mut store = KvStore::new(dim);
    store.append_batch(&keys, &values);
    let queries: Vec<Vec<f32>> = (0..8).map(|_| gaussian_vec(rng, dim, 0.0, 1.0)).collect();
    let int4 = CompressionConfig::int4();
    let budget = Budget::new(1024);

    for (tokens_per_cluster, clusters) in [(160, 20), (16, 199)] {
        let config = ClusterKvConfig {
            max_kmeans_iters: 2,
            ..ClusterKvConfig::default()
                .with_tokens_per_cluster(tokens_per_cluster)
                .with_compression(int4)
        };
        let mut selector = ClusterKvSelector::new(config, dim);
        observe_prompt(&mut selector, &keys);
        let sc = selector.clustering();
        assert!(
            sc.num_clusters().abs_diff(clusters) <= 1,
            "{}",
            sc.num_clusters()
        );
        let pages: Vec<CompressedPage> = (0..sc.num_clusters())
            .map(|c| compress_page(&keys, &values, sc.metadata().cluster_tokens(c), int4))
            .collect();

        let (mut plan_ws, mut ws) = (Workspace::new(), Workspace::new());
        let mut out = vec![0.0f32; dim];
        let mut attend = |q: &[f32], ws: &mut Workspace| {
            fill_selection_ws(q, sc, budget, &mut plan_ws);
            assert_eq!(plan_ws.tokens.len(), budget.tokens());
            ws.q.clear();
            ws.q.extend_from_slice(q);
            attend_compressed_ws(
                &store,
                &plan_ws.tokens,
                plan_ws.labels.iter().map(|&c| &pages[c]),
                ws,
                &mut out,
            );
            out[0]
        };
        attend(&queries[0], &mut ws);
        let before = allocations();
        let mut sink = 0.0;
        for q in &queries {
            sink += attend(q, &mut ws);
        }
        let during = allocations() - before;
        assert!(sink.is_finite());
        assert_eq!(
            during, 0,
            "a warm compressed-recall attend must not allocate ({clusters} clusters)"
        );
    }
}

/// Whole sessions of the serving engine in the shape of `exp_e2e`'s
/// `tight_cache_recall` at test scale — ClusterKV over an int4 tier, a
/// cluster cache a quarter of one step's selection, lookahead prefetch —
/// decoding past their prompt. A step allocates what it hands out (logits,
/// one plan per head, one hint per head), so between two incremental
/// clusterings, once warm, step *k + 1* allocates exactly what step *k* did:
/// no table sized by the context is regrown, no page list is collected, no
/// settled page table is walked again. Counts are exact because the engine
/// is deterministic; a step on which the KV store or the position table
/// doubles its buffer would add one, and none falls in the window compared.
///
/// The prefetching session's staging buffer is too small for a page, so it
/// plans, hints and nominates but stages nothing: a buffer that holds pages
/// keeps them in ordered maps that allocate and free nodes as pages churn
/// (73–97 allocations a step here against 82), which no two steps share.
/// Called from the single test above.
fn compressed_recall_session_steps_allocate_alike() {
    use clusterkv::{ClusterKvConfig, ClusterKvFactory};
    use clusterkv_kvcache::types::{Budget, Bytes};
    use clusterkv_kvcache::CompressionConfig;
    use clusterkv_model::{ModelConfig, PrefetchConfig, ServeEngine};

    let model = ModelConfig {
        num_layers: 3,
        num_heads: 4,
        num_kv_heads: 1,
        head_dim: 16,
        ffn_dim: 64,
        vocab_size: 128,
        max_context: 1024,
        dense_layers: 1,
    };
    let (budget, tokens_per_cluster, period) = (128, 16, 16);
    let int4 = CompressionConfig::int4();
    let capacity = Bytes(model.selected_kv_bytes_per_step(budget + tokens_per_cluster) / 4);
    let config = ClusterKvConfig {
        max_kmeans_iters: 2,
        ..ClusterKvConfig::default()
            .with_tokens_per_cluster(tokens_per_cluster)
            .with_decode_cluster_period(period)
            .with_compression(int4)
    };
    let prompt: Vec<usize> = (0..640).map(|i| (i * 7 + 3) % 128).collect();
    let run = |prefetch: PrefetchConfig| {
        let mut engine = ServeEngine::builder(model)
            .synthetic_weights(0x2E)
            .budget(Budget::new(budget))
            .policy(Box::new(ClusterKvFactory::new(config)))
            .kv_cache_capacity(capacity)
            .compression(int4)
            .prefetch(prefetch)
            .build()
            .unwrap();
        let id = engine.create_session().unwrap();
        engine.prefill(id, &prompt).unwrap();
        let (mut stream, mut counts) = (Vec::new(), Vec::new());
        for _ in 0..3 * period {
            let before = allocations();
            stream.push(engine.decode_batch(&[id]).unwrap()[0].next_token);
            counts.push(allocations() - before);
        }
        (stream, counts, engine.release(id).unwrap())
    };

    let (stream, plain, report) = run(PrefetchConfig::disabled());
    assert!(report.compression.compressed_hits > 0 && report.compression.demotions > 0);
    let (hinted_stream, hinted, _) = run(PrefetchConfig::lookahead(Bytes(64)));
    assert_eq!(hinted_stream, stream);
    // Steps 2·period .. 3·period − 1 follow the second incremental
    // clustering; the first three of them still meet its pages for the
    // first time.
    for counts in [&plain, &hinted] {
        let window = &counts[2 * period + 3..3 * period - 1];
        assert!(
            window.windows(2).all(|pair| pair[0] == pair[1]),
            "warm decode steps must allocate alike: {counts:?}"
        );
    }
    assert!(
        hinted[3 * period - 2] > plain[3 * period - 2],
        "one hint per head"
    );
}

/// A cluster cache a quarter the size of what its head cycles through,
/// with an int4 tier: once every page has been seen, accesses that miss,
/// demote exact victims and drop compressed ones only rewrite index values
/// and reuse slab slots, and growing the CPU backing store — which a session
/// does after every decode step — only moves a byte counter. Called from
/// the single test above.
fn cache_miss_path_allocates_nothing() {
    use clusterkv_kvcache::cluster_cache::{ClusterCache, ClusterCacheConfig, PageRequest};
    use clusterkv_kvcache::types::{Bytes, HeadId, LayerId};
    use clusterkv_kvcache::CompressionConfig;

    let (dim, page_tokens, pages) = (32usize, 80usize, 48usize);
    let page_bytes = 4 * dim * page_tokens;
    let mut cache = ClusterCache::new(
        ClusterCacheConfig::new(Bytes((3 * page_bytes) as u64), dim)
            .with_compression(CompressionConfig::int4()),
    );
    // Plans of four pages drifting through the table two at a time: each
    // access hits the two pages it shares with the previous one and recalls
    // the other two.
    let plans: Vec<Vec<PageRequest>> = (0..pages)
        .map(|step| {
            (0..4)
                .map(|i| PageRequest::new((2 * step + i) % pages, page_tokens))
                .collect()
        })
        .collect();
    let (layer, head) = (LayerId(1), HeadId(2));
    for plan in plans.iter().chain(&plans) {
        cache.access(layer, head, plan);
    }
    cache.set_backing(Bytes(page_bytes as u64)).unwrap();
    let (stats, compression) = (cache.stats(), cache.compression_stats());
    let resident = cache.resident_pages();
    let before = allocations();
    let mut compressed_hits = 0;
    for (step, plan) in plans.iter().enumerate() {
        compressed_hits += cache.access(layer, head, plan).compressed_pages;
        cache
            .set_backing(Bytes(((step + 2) * page_bytes) as u64))
            .unwrap();
    }
    let during = allocations() - before;
    assert!(cache.stats().misses > stats.misses, "pages were recalled");
    assert!(cache.stats().hits > stats.hits, "pages were hit");
    assert!(
        cache.compression_stats().demotions > compression.demotions,
        "exact victims were demoted"
    );
    assert!(compressed_hits > 0, "demoted pages served hits");
    assert!(
        cache.resident_pages() <= resident + 4 && cache.resident_pages() < pages / 2,
        "compressed victims were dropped"
    );
    assert_eq!(
        during, 0,
        "a warm access that misses, demotes and evicts, and a backing store that \
         grows, must not allocate"
    );
}
