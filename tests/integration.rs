//! Integration tests spanning every crate of the workspace: the synthetic
//! workload generator, the inference engine, ClusterKV and the baselines,
//! the cluster cache and the analytical latency model.

use clusterkv::{ClusterCache, ClusterCacheConfig};
use clusterkv::{ClusterKvConfig, ClusterKvFactory, DistanceMetric};
use clusterkv_bench::{
    clusterkv_config_for_ablation, clusterkv_cost, evaluate, evaluate_clusterkv_variant, Method,
};
use clusterkv_kvcache::types::Budget;
use clusterkv_kvcache::DeviceModel;
use clusterkv_model::latency::{StepCost, Transfers};
use clusterkv_model::policy::{HeadContext, SelectorFactory};
use clusterkv_model::{LatencyModel, ModelConfig, ModelPreset, ServeEngine};
use clusterkv_workloads::{
    perplexity_proxy, run_episode, run_episode_cached, Episode, EpisodeConfig, LongBenchDataset,
};

fn accuracy_episode(context_len: usize, seed: u64) -> Episode {
    Episode::generate(
        EpisodeConfig::default()
            .with_context_len(context_len)
            .with_decode_steps(24)
            .with_num_topics((context_len / 160).max(6))
            .with_seed(seed),
    )
}

#[test]
fn clusterkv_recall_beats_quest_and_tracks_full_kv() {
    // The Fig. 11a ordering at a moderate budget: ClusterKV > Quest, and
    // ClusterKV gets reasonably close to the oracle recall of 1.0.
    let episode = accuracy_episode(1024, 0xAB);
    let budget = 128;
    let ckv = evaluate(Method::ClusterKv, &episode, budget);
    let quest = evaluate(Method::Quest, &episode, budget);
    let full = evaluate(Method::FullKv, &episode, budget);

    assert!((full.mean_recall() - 1.0).abs() < 1e-9);
    assert!(
        ckv.mean_recall() > quest.mean_recall(),
        "ClusterKV recall {:.3} must exceed Quest {:.3}",
        ckv.mean_recall(),
        quest.mean_recall()
    );
    assert!(
        ckv.mean_recall() > 0.5,
        "ClusterKV recall {:.3} unexpectedly low",
        ckv.mean_recall()
    );
}

#[test]
fn recall_improves_with_budget_for_clusterkv() {
    // Fig. 11a shape: recall grows monotonically (up to noise) with budget.
    let episode = accuracy_episode(1024, 0xB0);
    let small = evaluate(Method::ClusterKv, &episode, 64);
    let large = evaluate(Method::ClusterKv, &episode, 256);
    assert!(
        large.mean_recall() >= small.mean_recall() - 0.02,
        "recall should not degrade with a larger budget: {:.3} -> {:.3}",
        small.mean_recall(),
        large.mean_recall()
    );
}

#[test]
fn longbench_scores_follow_the_papers_ordering() {
    // Fig. 9 / Table I shape on one dataset profile: Full KV >= ClusterKV >=
    // Quest, with ClusterKV close to Full KV.
    let profile = LongBenchDataset::TwoWikiMqa.profile();
    let episode = Episode::generate(EpisodeConfig {
        context_len: 1536,
        decode_steps: 24,
        ..profile.episode
    });
    let budget = 256;
    let full = evaluate(Method::FullKv, &episode, budget);
    let ckv = evaluate(Method::ClusterKv, &episode, budget);
    let quest = evaluate(Method::Quest, &episode, budget);
    let s_full = profile.score(&full);
    let s_ckv = profile.score(&ckv);
    let s_quest = profile.score(&quest);
    assert!(
        s_full >= s_ckv && s_ckv > s_quest,
        "{s_full} >= {s_ckv} > {s_quest}"
    );
    assert!((s_full - profile.full_kv_score).abs() < 1e-6);
}

#[test]
fn perplexity_proxy_orders_methods_like_fig10() {
    let episode = accuracy_episode(1536, 0xC0);
    let budget = 256;
    let full = perplexity_proxy(&evaluate(Method::FullKv, &episode, budget));
    let ckv = perplexity_proxy(&evaluate(Method::ClusterKv, &episode, budget));
    let quest = perplexity_proxy(&evaluate(Method::Quest, &episode, budget));
    assert!(full <= ckv, "full {full} <= clusterkv {ckv}");
    assert!(ckv < quest, "clusterkv {ckv} < quest {quest}");
}

#[test]
fn cosine_distance_recalls_at_least_as_well_as_l2_and_inner_product() {
    // Fig. 11b ablation shape.
    let episode = accuracy_episode(1024, 0xD0);
    let budget = 128;
    let c0 = 16;
    let recall_of = |metric: DistanceMetric| {
        evaluate_clusterkv_variant(
            clusterkv_config_for_ablation(metric, c0, 1024),
            &episode,
            budget,
        )
        .mean_recall()
    };
    let cosine = recall_of(DistanceMetric::Cosine);
    let l2 = recall_of(DistanceMetric::L2);
    let ip = recall_of(DistanceMetric::InnerProduct);
    assert!(cosine >= l2 - 0.1, "cosine {cosine:.3} vs l2 {l2:.3}");
    assert!(
        cosine >= ip - 0.1,
        "cosine {cosine:.3} vs inner product {ip:.3}"
    );
}

#[test]
fn more_clusters_do_not_hurt_recall() {
    // Fig. 11b: increasing C0 improves recall (with diminishing returns).
    let episode = accuracy_episode(1024, 0xE0);
    let budget = 128;
    let coarse = evaluate_clusterkv_variant(
        clusterkv_config_for_ablation(DistanceMetric::Cosine, 4, 1024),
        &episode,
        budget,
    );
    let fine = evaluate_clusterkv_variant(
        clusterkv_config_for_ablation(DistanceMetric::Cosine, 32, 1024),
        &episode,
        budget,
    );
    assert!(
        fine.mean_recall() >= coarse.mean_recall() - 0.02,
        "C0=32 recall {:.3} should be >= C0=4 recall {:.3}",
        fine.mean_recall(),
        coarse.mean_recall()
    );
}

#[test]
fn cluster_cache_hit_rate_grows_with_recency_window() {
    // §V-C: a GPU cache sized for R = 2 steps of selected KV retains more
    // clusters than one sized for R = 1.
    let episode = accuracy_episode(2048, 0xF0);
    let hit_rate = |r: usize| {
        let config = ClusterKvConfig::default();
        let factory = ClusterKvFactory::new(config);
        let mut sel = factory.create(HeadContext::mha(2, 0, episode.config.head_dim));
        // One step's cluster-granularity recall can overshoot the budget by
        // up to one trimmed cluster, so the R-step-equivalent capacity is
        // sized for budget + tokens_per_cluster tokens per step.
        let mut cache = ClusterCache::new(ClusterCacheConfig::for_recency_window(
            r,
            256 + config.tokens_per_cluster,
            episode.config.head_dim,
        ));
        let result = run_episode_cached(&episode, sel.as_mut(), Budget::new(256), &mut cache);
        result.stats.cache.hit_rate()
    };
    let r1 = hit_rate(1);
    let r2 = hit_rate(2);
    assert!(r1 > 0.2, "R=1 hit rate {r1:.2} unexpectedly low");
    assert!(r2 >= r1, "R=2 hit rate {r2:.2} must be >= R=1 {r1:.2}");
}

#[test]
fn cache_hit_rate_is_monotone_in_capacity_and_saturates_at_full_kv() {
    // The §V-C capacity story end-to-end: a larger GPU cluster cache never
    // hits less, and once it holds the full KV nothing is ever recalled.
    let episode = accuracy_episode(512, 0xCA);
    let head_dim = episode.config.head_dim;
    let bytes_per_token = 4 * head_dim as u64; // K+V fp16
    let full_kv = bytes_per_token * (512 + episode.decode_steps()) as u64;
    let run_at = |capacity: u64| {
        let factory = ClusterKvFactory::new(ClusterKvConfig::default());
        let mut sel = factory.create(HeadContext::mha(2, 0, head_dim));
        let mut cache = ClusterCache::new(ClusterCacheConfig::new(
            clusterkv_kvcache::types::Bytes(capacity),
            head_dim,
        ));
        run_episode_cached(&episode, sel.as_mut(), Budget::new(64), &mut cache).stats
    };
    let capacities = [
        0,
        full_kv / 16,
        full_kv / 8,
        full_kv / 4,
        full_kv / 2,
        full_kv,
        2 * full_kv,
    ];
    let rates: Vec<f64> = capacities
        .iter()
        .map(|&c| run_at(c).cache.hit_rate())
        .collect();
    for (pair, caps) in rates.windows(2).zip(capacities.windows(2)) {
        assert!(
            pair[1] >= pair[0],
            "hit rate fell from {:.3} to {:.3} when capacity grew {} -> {}: {rates:?}",
            pair[0],
            pair[1],
            caps[0],
            caps[1]
        );
    }
    assert_eq!(rates[0], 0.0, "no cache, no hits");
    let saturated = run_at(2 * full_kv);
    assert_eq!(
        saturated.cache.hit_rate(),
        1.0,
        "capacity >= full KV must never recall"
    );
    assert_eq!(saturated.transfer.bytes_to_device.get(), 0);
}

#[test]
fn end_to_end_engine_runs_with_every_method() {
    let config = ModelConfig::tiny();
    let prompt: Vec<usize> = (0..48).map(|i| (i * 5) % config.vocab_size).collect();
    for method in Method::all() {
        let factory = method.factory();
        let mut engine = ServeEngine::builder(config)
            .synthetic_weights(9)
            .budget(Budget::new(24))
            .build()
            .unwrap();
        let session = engine.create_session_with(factory.as_ref()).unwrap();
        let generated = engine.generate(session, &prompt, 6).unwrap();
        assert_eq!(generated.len(), 6, "{method}");
        assert!(
            generated.iter().all(|&t| t < config.vocab_size),
            "{method} produced out-of-vocabulary tokens"
        );
        assert_eq!(
            engine.context_len(session).unwrap(),
            prompt.len() + 6,
            "{method}"
        );
    }
}

#[test]
fn latency_model_reproduces_fig12_shape() {
    let model = LatencyModel::new(ModelPreset::Llama31_8b.config(), DeviceModel::ada6000());
    let prompt = 32_768;
    let decode = 512;
    let full = model.run(prompt, decode, None, StepCost::full_kv);
    let clusterkv = model.run(
        prompt,
        decode,
        Some((prompt / 80, 10)),
        clusterkv_cost(model.config(), 1024, 1024.0 * 0.37),
    );
    let speedup = full.total.get() / clusterkv.total.get();
    assert!(speedup > 1.2, "end-to-end speedup {speedup:.2} too small");
    let thpt_gain = clusterkv.decode_throughput / full.decode_throughput;
    assert!(thpt_gain > 1.5, "throughput gain {thpt_gain:.2} too small");
    let prefill = model.prefill_breakdown(prompt, Some((prompt / 80, 10)));
    let frac = prefill.clustering_fraction();
    assert!(
        frac < 0.2,
        "clustering should be a small fraction of prefill ({frac:.2})"
    );
}

#[test]
fn fig13_shape_clusterkv_beats_infinigen_and_matches_quest() {
    // Fig. 13a: ClusterKV is clearly faster than InfiniGen on the
    // offload-constrained OPT-class configuration.
    let opt = LatencyModel::new(
        ModelPreset::Opt6_7b.config(),
        DeviceModel::offload_constrained(),
    );
    let infinigen = opt.run(2048, 256, None, |ctx| StepCost {
        scored_vectors_per_head: ctx as f64 * 0.25,
        attended_tokens: 256.0,
        transfers: Transfers::demand_per_kv_head(opt.config(), 256.0),
    });
    let clusterkv_opt = opt.run(
        2048,
        256,
        Some((2048 / 80, 10)),
        clusterkv_cost(opt.config(), 256, 256.0 * 0.37),
    );
    assert!(infinigen.total.get() / clusterkv_opt.total.get() > 1.1);

    // Fig. 13b: ClusterKV is within ~15% of Quest on the Llama-class config.
    let llama = LatencyModel::new(ModelPreset::Llama31_8b.config(), DeviceModel::ada6000());
    let quest = llama.run(16_384, 256, None, |ctx| StepCost {
        scored_vectors_per_head: ctx as f64 / 16.0,
        attended_tokens: 1024.0,
        ..StepCost::default()
    });
    let clusterkv = llama.run(
        16_384,
        256,
        Some((16_384 / 80, 10)),
        clusterkv_cost(llama.config(), 1024, 1024.0 * 0.37),
    );
    let deviation = (clusterkv.total.get() - quest.total.get()).abs() / quest.total.get();
    assert!(
        deviation < 0.15,
        "deviation from Quest {deviation:.2} too large"
    );
}

#[test]
fn non_recallable_baselines_lose_recall_under_importance_drift() {
    use clusterkv_baselines::{H2oFactory, StreamingFactory};
    let episode = accuracy_episode(1024, 0x1D);
    let budget = 128;
    let ckv = evaluate(Method::ClusterKv, &episode, budget).mean_recall();
    for factory in [
        Box::new(H2oFactory::default()) as Box<dyn SelectorFactory>,
        Box::new(StreamingFactory::default()),
    ] {
        let mut sel = factory.create(HeadContext::mha(2, 0, episode.config.head_dim));
        let r = run_episode(&episode, sel.as_mut(), Budget::new(budget));
        assert!(
            ckv > r.mean_recall(),
            "ClusterKV ({ckv:.3}) should out-recall the non-recallable {} ({:.3})",
            sel.name(),
            r.mean_recall()
        );
    }
}
