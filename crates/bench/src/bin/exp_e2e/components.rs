//! Phase 3 of the traced run: each public kernel of the decode and prefill
//! path timed alone, at the shapes the workload produces. Keys and values
//! are read back from a live session with `ServeEngine::kv_store`, so the
//! kernels see the engine's own data, not a synthetic distribution.

use crate::spec::{Workload, BUDGET_TOKENS, THREADS};
use crate::stats::median;
use clusterkv::{
    assign_labels, lookahead_clusters_ws, select_clusters_ws, ClusterKvConfig, SemanticClustering,
};
use clusterkv_faults::Fnv64;
use clusterkv_kvcache::cluster_cache::{ClusterCache, ClusterCacheConfig};
use clusterkv_kvcache::compressed::{compress_page, CompressionConfig};
use clusterkv_kvcache::prefix::{PrefixStore, PrefixStoreConfig};
use clusterkv_kvcache::types::{Budget, Bytes, HeadId, LayerId};
use clusterkv_kvcache::KvStore;
use clusterkv_model::attention::{attend_full, attend_selected_ws};
use clusterkv_model::{ModelConfig, PrefetchConfig, ServeEngine};
use clusterkv_tensor::kernels::{
    gather_matvec_t_into, matvec_rows_into, matvec_t_into, weighted_sum_rows_into, Workspace,
};
use clusterkv_tensor::Matrix;
use std::hint::black_box;
use std::time::Instant;

/// Calls are grouped so one timed sample lasts at least this long, which
/// keeps the two clock reads per sample below a percent of it.
const MIN_SAMPLE_S: f64 = 20e-6;

/// Median seconds per call of `f`, sampling for about `slice_s`: at least
/// five samples, each a group of calls lasting `MIN_SAMPLE_S` or more.
fn seconds_per_call(slice_s: f64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    let first = start.elapsed().as_secs_f64().max(1e-9);
    let group = ((MIN_SAMPLE_S / first).ceil() as usize).clamp(1, 4096);
    let mut samples = Vec::new();
    let begun = Instant::now();
    while samples.len() < 5 || begun.elapsed().as_secs_f64() < slice_s {
        let t = Instant::now();
        for _ in 0..group {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / group as f64);
    }
    median(&samples).expect("at least five samples")
}

/// Per-call times of the kernels, in the unit each metric is reported in.
#[derive(Debug, Clone, Copy, Default)]
pub struct Components {
    pub cluster_prefill_ms: f64,
    pub kmeans_assign_ms: f64,
    pub select_us: f64,
    pub lookahead_us: f64,
    pub access_us: f64,
    pub compress_page_us: f64,
    pub prefix_match_us: f64,
    pub prefix_insert_ms: f64,
    pub checksum_mb_s: f64,
    pub attend_selected_us: f64,
    pub attend_full_us: f64,
    pub matvec_t_us: f64,
    pub matvec_rows_us: f64,
    pub gather_matvec_us: f64,
    pub weighted_sum_us: f64,
    /// Context of the probed session, clusters it formed and pages one plan
    /// selects — the shapes the computed metrics are derived from.
    pub context: usize,
    pub clusters: usize,
    pub pages_per_plan: f64,
}

/// Time every component on the KV of a session that `engine` prefills with
/// `prompt` (through the workload's prefix store, so a document prompt is
/// adopted, not recomputed). `slice_s` is the sampling time per component.
pub fn measure(
    w: &Workload,
    engine: &mut ServeEngine,
    prompt: &[usize],
    slice_s: f64,
) -> Result<Components, String> {
    let err = |e: clusterkv_model::EngineError| format!("component replay: {e}");
    let cfg = *engine.config();
    let session = engine.create_session().map_err(err)?;
    engine.prefill(session, prompt).map_err(err)?;
    // One selective head's store, plus every head's for the prefix insert.
    let layer = cfg.num_layers - 1;
    let kv: Vec<Vec<KvStore>> = (0..cfg.num_layers)
        .map(|l| {
            (0..cfg.num_kv_heads)
                .map(|h| engine.kv_store(session, l, h).cloned())
                .collect::<Result<_, _>>()
        })
        .collect::<Result<_, _>>()
        .map_err(err)?;
    engine.release(session).map_err(err)?;
    let store = &kv[layer][0];
    let (keys, values) = (store.keys(), store.values());
    let n = keys.rows();
    let d = cfg.head_dim;
    // Queries are stored keys at a fixed stride: the distribution the
    // centroids were fitted to, and no second RNG to keep in step.
    let queries: Vec<&[f32]> = (0..64).map(|i| keys.row((i * 131 + 7) % n)).collect();
    let mut turn = 0usize;
    let mut next_query = move || {
        turn += 1;
        queries[turn % queries.len()]
    };

    let ckv: ClusterKvConfig = w.clusterkv();
    let budget = Budget::new(BUDGET_TOKENS);
    let mut clustering = SemanticClustering::new(ckv, d);
    let cluster_prefill = seconds_per_call(slice_s, || {
        let mut c = SemanticClustering::new(ckv, d);
        c.prefill(black_box(keys));
        clustering = c;
    });
    let centroids = clustering.centroids().clone();
    let mut ws = Workspace::new();
    let kmeans_assign = seconds_per_call(slice_s, || {
        black_box(assign_labels(
            ckv.distance,
            keys,
            store.key_norms(),
            &centroids,
            &mut ws,
        ));
    });
    let mut pages_seen = Vec::new();
    let select = seconds_per_call(slice_s, || {
        let plan = select_clusters_ws(next_query(), &clustering, budget, &mut ws);
        pages_seen.push(plan.selected_clusters.len() as f64);
        black_box(plan);
    });
    let lookahead_tokens = PrefetchConfig::lookahead(Bytes(1)).lookahead_tokens;
    let lookahead = seconds_per_call(slice_s, || {
        black_box(lookahead_clusters_ws(
            next_query(),
            &clustering,
            budget,
            lookahead_tokens,
            &mut ws,
        ));
    });

    // One head's share of the session cache, fed the plans of a drifting
    // query so hits, misses and evictions occur in the workload's mix.
    let selective_heads = ((cfg.num_layers - cfg.dense_layers) * cfg.num_heads) as u64;
    let mut cache = ClusterCache::new(
        ClusterCacheConfig::new(Bytes(w.cache_capacity().get() / selective_heads), d)
            .with_compression(w.compression()),
    );
    let plans: Vec<_> = (0..64)
        .map(|_| {
            select_clusters_ws(next_query(), &clustering, budget, &mut ws)
                .page_requests(clustering.metadata())
        })
        .collect();
    let mut plan_turn = 0usize;
    let access = seconds_per_call(slice_s, || {
        plan_turn += 1;
        black_box(cache.access(LayerId(layer), HeadId(0), &plans[plan_turn % plans.len()]));
    });

    // Demotion always quantizes; lossless workloads never call this, and
    // timing their exact gather instead would measure a different function.
    let sizes = clustering.metadata().sizes();
    let mut by_size: Vec<usize> = (0..sizes.len()).collect();
    by_size.sort_by_key(|&c| sizes[c]);
    let members: Vec<usize> = match by_size.get(by_size.len() / 2) {
        Some(&typical) => clustering.metadata().cluster_tokens(typical).to_vec(),
        None => (0..n.min(ckv.tokens_per_cluster)).collect(),
    };
    let compress = seconds_per_call(slice_s, || {
        black_box(compress_page(
            keys,
            values,
            &members,
            CompressionConfig::int4(),
        ));
    });

    let store_config = PrefixStoreConfig {
        capacity: Bytes(u64::MAX),
        layers: cfg.num_layers,
        kv_heads: cfg.num_kv_heads,
        head_dim: d,
    };
    let mut prefix = PrefixStore::new(store_config);
    let prefix_insert = seconds_per_call(slice_s, || {
        let mut fresh = PrefixStore::new(store_config);
        fresh.insert(prompt, &kv);
        prefix = fresh;
    });
    let prefix_match = seconds_per_call(slice_s, || {
        black_box(prefix.match_from(0, prompt));
    });

    let key_bytes = std::mem::size_of_val(keys.as_slice()) as f64;
    let checksum = seconds_per_call(slice_s, || {
        let mut hasher = Fnv64::new();
        hasher.write_f32s(black_box(keys.as_slice()));
        black_box(hasher.finish());
    });

    let selected = select_clusters_ws(next_query(), &clustering, budget, &mut ws).token_indices;
    let attend_selected = seconds_per_call(slice_s, || {
        attend_selected_ws(store, next_query(), &selected, &mut ws);
        black_box(&ws.out);
    });
    let attend_full_s = seconds_per_call(slice_s, || {
        black_box(attend_full(store, next_query()));
    });
    let mut out = Vec::new();
    let matvec_t = seconds_per_call(slice_s, || {
        matvec_t_into(&centroids, next_query(), &mut out);
        black_box(&out);
    });
    let gather_matvec = seconds_per_call(slice_s, || {
        gather_matvec_t_into(keys, &selected, next_query(), &mut out);
        black_box(&out);
    });
    let weights = vec![1.0 / selected.len().max(1) as f32; selected.len()];
    let weighted_sum = seconds_per_call(slice_s, || {
        weighted_sum_rows_into(values, Some(&selected), &weights, &mut out);
        black_box(&out);
    });
    // A hidden × hidden projection, the unit the dense matvecs of a decode
    // step are counted in. The weights are private to the engine, so the
    // matrix is rebuilt from key rows: same shape, same kernel.
    let h = cfg.hidden_dim();
    let square = Matrix::from_flat(
        h,
        h,
        (0..h * h).map(|i| keys.as_slice()[i % (n * d)]).collect(),
    )
    .map_err(|e| format!("component replay: {e:?}"))?;
    let hidden: Vec<f32> = (0..h).map(|i| keys.as_slice()[i % (n * d)]).collect();
    let matvec_rows = seconds_per_call(slice_s, || {
        matvec_rows_into(&square, 0..h, &hidden, &mut out);
        black_box(&out);
    });

    Ok(Components {
        cluster_prefill_ms: cluster_prefill * 1e3,
        kmeans_assign_ms: kmeans_assign * 1e3,
        select_us: select * 1e6,
        lookahead_us: lookahead * 1e6,
        access_us: access * 1e6,
        compress_page_us: compress * 1e6,
        prefix_match_us: prefix_match * 1e6,
        prefix_insert_ms: prefix_insert * 1e3,
        checksum_mb_s: key_bytes / checksum / 1e6,
        attend_selected_us: attend_selected * 1e6,
        attend_full_us: attend_full_s * 1e6,
        matvec_t_us: matvec_t * 1e6,
        matvec_rows_us: matvec_rows * 1e6,
        gather_matvec_us: gather_matvec * 1e6,
        weighted_sum_us: weighted_sum * 1e6,
        context: n,
        clusters: clustering.num_clusters(),
        pages_per_plan: crate::stats::mean(&pages_seen).unwrap_or(0.0),
    })
}

/// Hidden × hidden matvec equivalents of one decode step's dense math:
/// per layer Q and O (one each), K and V (a KV-head share each) and the
/// three FFN projections, plus the tied-embedding logits.
fn dense_matvec_units(cfg: &ModelConfig) -> f64 {
    let h = cfg.hidden_dim() as f64;
    let kv = (cfg.num_kv_heads * cfg.head_dim) as f64;
    let per_layer = 2.0 + 2.0 * kv / h + 3.0 * cfg.ffn_dim as f64 / h;
    per_layer * cfg.num_layers as f64 + cfg.vocab_size as f64 / h
}

/// Tokens one selective head attends at `context`.
fn attended(context: usize) -> f64 {
    context.min(BUDGET_TOKENS) as f64
}

/// FLOPs of one decode step of one session, computed from shapes (two per
/// multiply-accumulate): dense projections, attention over the full
/// context on dense layers and over the budget on selective ones, and
/// centroid scoring. Not measured.
pub fn flops_per_decode_step(cfg: &ModelConfig, c: &Components) -> f64 {
    let h = cfg.hidden_dim() as f64;
    let d = cfg.head_dim as f64;
    let heads = cfg.num_heads as f64;
    let dense = cfg.dense_layers as f64;
    let selective = (cfg.num_layers - cfg.dense_layers) as f64;
    let projections = 2.0 * h * h * dense_matvec_units(cfg);
    let attention = 4.0 * d * heads * (dense * c.context as f64 + selective * attended(c.context));
    let scoring = 2.0 * d * heads * selective * scored_centroids(c);
    projections + attention + scoring
}

/// Bytes one decode step of one session reads, computed from shapes at the
/// f32 width the CPU engine stores: every weight once, the K and V rows it
/// attends, and the centroids it scores. Not moved, not measured.
pub fn bytes_per_decode_step(cfg: &ModelConfig, c: &Components) -> f64 {
    let h = cfg.hidden_dim() as f64;
    let d = cfg.head_dim as f64;
    let heads = cfg.num_heads as f64;
    let dense = cfg.dense_layers as f64;
    let selective = (cfg.num_layers - cfg.dense_layers) as f64;
    let weights = h * h * dense_matvec_units(cfg);
    let kv_rows = 2.0 * d * heads * (dense * c.context as f64 + selective * attended(c.context));
    let centroids = d * heads * selective * scored_centroids(c);
    4.0 * (weights + kv_rows + centroids)
}

/// Centroids a selective head scores: none when the context fits the
/// budget, because selection is then bypassed.
fn scored_centroids(c: &Components) -> f64 {
    if c.context > BUDGET_TOKENS {
        c.clusters as f64
    } else {
        0.0
    }
}

/// Microseconds of one decode batch that the separately timed components
/// account for: per session, the dense matvecs, dense-layer attention over
/// the context, and per selective head either selection + cache access +
/// budgeted attention (plus lookahead and per-page compression on the
/// tight workload) or, under the budget, plain full attention. Sessions of
/// a batch run `THREADS` at a time.
pub fn attributed_batch_us(w: &Workload, cfg: &ModelConfig, c: &Components, batch: f64) -> f64 {
    let heads = cfg.num_heads as f64;
    let dense_heads = heads * cfg.dense_layers as f64;
    let selective_heads = heads * (cfg.num_layers - cfg.dense_layers) as f64;
    let per_selective_head = if c.context > BUDGET_TOKENS {
        let mut us = c.select_us + c.access_us + c.attend_selected_us;
        if !w.compression().is_lossless() {
            us += c.lookahead_us + c.pages_per_plan * c.compress_page_us;
        }
        us
    } else {
        c.attend_full_us
    };
    let per_session = dense_matvec_units(cfg) * c.matvec_rows_us
        + dense_heads * c.attend_full_us
        + selective_heads * per_selective_head;
    per_session * (batch / THREADS as f64).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{workload, Scale};

    #[test]
    fn seconds_per_call_groups_fast_calls_and_bounds_slow_ones() {
        let mut calls = 0u64;
        let fast = seconds_per_call(0.002, || {
            calls += 1;
            black_box(calls);
        });
        assert!(fast > 0.0 && fast < 1e-4);
        assert!(calls > 200, "fast kernels get hundreds of calls: {calls}");
        let mut slow_calls = 0;
        let slow = seconds_per_call(0.0, || {
            slow_calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        assert!(slow >= 0.002);
        assert_eq!(slow_calls, 6, "one calibration call, then five samples");
    }

    #[test]
    fn components_are_measured_on_every_workload_shape() {
        let scale = Scale::tiny();
        for name in [
            "docqa_long_decode",
            "tight_cache_recall",
            "chat_mixed_batch",
        ] {
            let w = workload(name).unwrap();
            let inputs = w.inputs(&scale, 1, 1);
            let mut engine = w.engine().unwrap();
            let c = measure(w, &mut engine, &inputs.requests[0].prompt, 0.001).unwrap();
            assert_eq!(c.context, inputs.requests[0].prompt.len());
            assert_eq!(engine.num_sessions(), 0);
            for v in [
                c.cluster_prefill_ms,
                c.kmeans_assign_ms,
                c.select_us,
                c.lookahead_us,
                c.access_us,
                c.compress_page_us,
                c.prefix_match_us,
                c.prefix_insert_ms,
                c.checksum_mb_s,
                c.attend_selected_us,
                c.attend_full_us,
                c.matvec_t_us,
                c.matvec_rows_us,
                c.gather_matvec_us,
                c.weighted_sum_us,
            ] {
                assert!(v.is_finite() && v > 0.0, "{name}: {c:?}");
            }
            let cfg = w.model();
            assert!(flops_per_decode_step(&cfg, &c) > 0.0);
            assert!(bytes_per_decode_step(&cfg, &c) > 0.0);
            assert!(attributed_batch_us(w, &cfg, &c, 2.0) > 0.0);
        }
    }

    #[test]
    fn computed_costs_follow_the_shapes() {
        let cfg = workload("docqa_long_decode").unwrap().model();
        // 4 layers × (Q + O + K/4 + V/4 + 3 FFN) + 1024/128 logits rows.
        assert_eq!(dense_matvec_units(&cfg), 4.0 * 5.5 + 8.0);
        let at = |context, clusters| Components {
            context,
            clusters,
            ..Components::default()
        };
        let short = at(512, 7);
        let long = at(8192, 103);
        // Under the budget every layer attends the whole context and
        // nothing is scored.
        let projections = 2.0 * 128.0 * 128.0 * 30.0;
        assert_eq!(
            flops_per_decode_step(&cfg, &short),
            projections + 4.0 * 32.0 * 4.0 * (4.0 * 512.0)
        );
        // Over it the three selective layers attend the budget and score
        // the centroids.
        assert_eq!(
            flops_per_decode_step(&cfg, &long),
            projections
                + 4.0 * 32.0 * 4.0 * (8192.0 + 3.0 * 1024.0)
                + 2.0 * 32.0 * 4.0 * 3.0 * 103.0
        );
        assert!(bytes_per_decode_step(&cfg, &long) > bytes_per_decode_step(&cfg, &short));
    }
}
