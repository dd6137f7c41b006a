//! Shared pieces of the experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (each binary's module docs name its experiment). This library provides
//! what they share: the method enumeration, the per-episode evaluation
//! loop, the bench-scale serving shapes and the ClusterKV step cost of the
//! latency figures.

#![warn(missing_docs)]

use clusterkv::{ClusterKvConfig, ClusterKvFactory, DistanceMetric};
use clusterkv_baselines::{InfiniGenFactory, QuestFactory};
use clusterkv_kvcache::types::Budget;
use clusterkv_model::latency::{StepCost, Transfers};
use clusterkv_model::policy::{FullAttentionFactory, HeadContext, SelectorFactory};
use clusterkv_model::ModelConfig;
use clusterkv_workloads::{run_budget_sweep, run_episode, Episode, EpisodeResult};
use serde::{Deserialize, Serialize};

/// The methods compared in the paper's accuracy figures (Fig. 9, 10, 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// Quest page-granular recall.
    Quest,
    /// InfiniGen partial-key per-token recall.
    InfiniGen,
    /// ClusterKV semantic-cluster recall (this paper).
    ClusterKv,
    /// Exact attention over the full KV cache.
    FullKv,
}

impl Method {
    /// The four methods in the order the paper's legends use.
    pub fn all() -> [Method; 4] {
        [
            Method::Quest,
            Method::InfiniGen,
            Method::ClusterKv,
            Method::FullKv,
        ]
    }

    /// The three compressed methods (everything except Full KV).
    pub fn compressed() -> [Method; 3] {
        [Method::Quest, Method::InfiniGen, Method::ClusterKv]
    }

    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            Method::Quest => "Quest",
            Method::InfiniGen => "InfiniGen",
            Method::ClusterKv => "ClusterKV",
            Method::FullKv => "Full KV",
        }
    }

    /// Build the selector factory for this method.
    pub fn factory(self) -> Box<dyn SelectorFactory> {
        match self {
            Method::Quest => Box::new(QuestFactory::default()),
            Method::InfiniGen => Box::new(InfiniGenFactory::default()),
            Method::ClusterKv => Box::new(ClusterKvFactory::default()),
            Method::FullKv => Box::new(FullAttentionFactory),
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Evaluate one method on one episode at one budget.
pub fn evaluate(method: Method, episode: &Episode, budget: usize) -> EpisodeResult {
    let factory = method.factory();
    let mut selector = factory.create(HeadContext::mha(2, 0, episode.config.head_dim));
    run_episode(episode, selector.as_mut(), Budget::new(budget))
}

/// Evaluate one method at every budget of a sweep, budgets fanned out across
/// the thread pool (`RAYON_NUM_THREADS`); results come back in budget order,
/// identical to [`evaluate`] per budget.
pub fn evaluate_sweep(method: Method, episode: &Episode, budgets: &[usize]) -> Vec<EpisodeResult> {
    let factory = method.factory();
    run_budget_sweep(
        episode,
        factory.as_ref(),
        HeadContext::mha(2, 0, episode.config.head_dim),
        budgets,
    )
}

/// Evaluate a ClusterKV variant (custom configuration) on one episode — used
/// by the Fig. 11b ablation over distance metrics and cluster counts.
pub fn evaluate_clusterkv_variant(
    config: ClusterKvConfig,
    episode: &Episode,
    budget: usize,
) -> EpisodeResult {
    let factory = ClusterKvFactory::new(config);
    let mut selector = factory.create(HeadContext::mha(2, 0, episode.config.head_dim));
    run_episode(episode, selector.as_mut(), Budget::new(budget))
}

/// ClusterKV configuration with a specific distance metric and target number
/// of prefill clusters `C0` for a given context length (the Fig. 11b knobs).
pub fn clusterkv_config_for_ablation(
    metric: DistanceMetric,
    c0: usize,
    context_len: usize,
) -> ClusterKvConfig {
    let tokens_per_cluster = (context_len / c0.max(1)).max(1);
    ClusterKvConfig::default()
        .with_distance(metric)
        .with_tokens_per_cluster(tokens_per_cluster)
}

/// Whether the CI-sized variant of an experiment was asked for through its
/// environment variable (`EXP_<NAME>_SMOKE`).
pub fn smoke(var: &str) -> bool {
    std::env::var(var).is_ok()
}

/// Run `body` with `RAYON_NUM_THREADS` pinned to `threads`, restoring the
/// previous value afterwards (the rayon shim re-reads the variable at every
/// parallel region, so this takes effect immediately).
pub fn with_threads<T>(threads: usize, body: impl FnOnce() -> T) -> T {
    let saved = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    let out = body();
    match saved {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    out
}

/// The model the serving experiments run: 3 layers (the first dense), 4
/// query heads over 2 KV heads of dimension 16.
pub fn serving_model_config(max_context: usize) -> ModelConfig {
    ModelConfig {
        num_layers: 3,
        num_heads: 4,
        num_kv_heads: 2,
        head_dim: 16,
        ffn_dim: 64,
        vocab_size: 256,
        max_context,
        dense_layers: 1,
    }
}

/// ClusterKV scaled to the serving experiments' few-hundred-token contexts:
/// 4 sinks, 16 tokens per cluster, 2 new clusters every 8 decode steps.
pub fn serving_clusterkv_config() -> ClusterKvConfig {
    ClusterKvConfig::default()
        .with_sink_tokens(4)
        .with_tokens_per_cluster(16)
        .with_decode_cluster_period(8)
        .with_decode_new_clusters(2)
}

/// ClusterKV's per-step cost on `config` at `budget` tokens when every
/// selective-layer KV head recalls `recalled_tokens` per step, as a function
/// of the context length: C0 = L/80 centroids scored per head (the C+
/// clusters added while decoding — 4 every 320 steps — are negligible next
/// to C0).
pub fn clusterkv_cost(
    config: &ModelConfig,
    budget: usize,
    recalled_tokens: f64,
) -> impl Fn(usize) -> StepCost {
    let transfers = Transfers::demand_per_kv_head(config, recalled_tokens);
    move |context_len: usize| StepCost {
        scored_vectors_per_head: (context_len as f64 / 80.0).max(1.0),
        attended_tokens: budget as f64,
        transfers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clusterkv_workloads::EpisodeConfig;

    fn tiny_episode() -> Episode {
        Episode::generate(
            EpisodeConfig::default()
                .with_context_len(256)
                .with_decode_steps(8)
                .with_num_topics(8)
                .with_seed(5),
        )
    }

    #[test]
    fn all_methods_evaluate() {
        let e = tiny_episode();
        for m in Method::all() {
            let r = evaluate(m, &e, 64);
            assert_eq!(r.per_step_recall.len(), 8, "{m}");
            assert!(r.mean_recall() > 0.0, "{m}");
        }
        assert_eq!(Method::compressed().len(), 3);
        assert_eq!(Method::ClusterKv.to_string(), "ClusterKV");
    }

    #[test]
    fn full_kv_dominates_compressed_methods_in_recall() {
        let e = tiny_episode();
        let full = evaluate(Method::FullKv, &e, 64);
        assert!((full.mean_recall() - 1.0).abs() < 1e-9);
        for m in Method::compressed() {
            let r = evaluate(m, &e, 64);
            assert!(r.mean_recall() <= 1.0 + 1e-9, "{m}");
        }
    }

    #[test]
    fn clusterkv_beats_quest_in_recall_on_topical_context() {
        let e = tiny_episode();
        let ckv = evaluate(Method::ClusterKv, &e, 64);
        let quest = evaluate(Method::Quest, &e, 64);
        assert!(
            ckv.mean_recall() > quest.mean_recall(),
            "ClusterKV {:.3} vs Quest {:.3}",
            ckv.mean_recall(),
            quest.mean_recall()
        );
    }

    #[test]
    fn ablation_config_produces_requested_cluster_count() {
        let cfg = clusterkv_config_for_ablation(DistanceMetric::L2, 400, 32_000);
        assert_eq!(cfg.distance, DistanceMetric::L2);
        let c0 = cfg.prefill_clusters(32_000);
        assert!((380..=440).contains(&c0), "C0 = {c0}");
    }

    #[test]
    fn ablation_variant_evaluates() {
        let e = tiny_episode();
        let cfg = clusterkv_config_for_ablation(DistanceMetric::Cosine, 16, 256);
        let r = evaluate_clusterkv_variant(cfg, &e, 64);
        assert_eq!(r.per_step_recall.len(), 8);
    }
}
