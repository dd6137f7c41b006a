//! Experiment E11 — §V-C "Effectiveness of caching".
//!
//! Drives the tiered cluster cache (`clusterkv_kvcache::cluster_cache`) with
//! a NarrativeQA-style episode and measures, instead of assuming:
//!
//! 1. the token-level hit rate at capacities equivalent to the paper's
//!    recency windows R = 1 and R = 2, and the decoding-throughput gain the
//!    cache buys over recalling every selected cluster from CPU memory;
//! 2. the hit rate as a function of GPU cache capacity — non-decreasing in
//!    capacity and exactly 100 % once the cache holds the full KV (nothing
//!    is ever offloaded, so nothing is ever recalled);
//! 3. the cluster reuse-distance (LRU stack distance) histogram of the
//!    episode's page requests — the workload property that *explains* the
//!    capacity curve: an LRU cache holding `D` clusters hits exactly the
//!    accesses with stack distance < `D`, so the cumulative histogram is
//!    the predicted hit-rate-vs-capacity curve;
//! 4. the incremental-clustering period `m` ablation.
//!
//! Run with: `cargo run --release -p clusterkv-bench --bin exp_cache_hits`
//! (`--json` prints the machine-readable summary, histogram included).

use clusterkv::{ClusterCache, ClusterCacheConfig, ClusterKvConfig, ClusterKvFactory};
use clusterkv_bench::{clusterkv_cost, Json, Report};
use clusterkv_kvcache::types::{Budget, Bytes};
use clusterkv_kvcache::DeviceModel;
use clusterkv_metrics::{fmt, Table};
use clusterkv_model::policy::{HeadContext, SelectorFactory};
use clusterkv_model::{LatencyModel, ModelPreset};
use clusterkv_workloads::{run_episode_cached, Episode, EpisodeConfig, EpisodeResult};

const BUDGET: usize = 1024;
const CONTEXT_LEN: usize = 8192;
const DECODE_STEPS: usize = 64;

/// Run one ClusterKV head over the episode against a cache of the given
/// capacity, returning the measured episode result (hit rate, recalled
/// tokens, selection work).
fn run_with_capacity(config: ClusterKvConfig, episode: &Episode, capacity: Bytes) -> EpisodeResult {
    let factory = ClusterKvFactory::new(config);
    let mut selector = factory.create(HeadContext::mha(2, 0, episode.config.head_dim));
    let mut cache = ClusterCache::new(ClusterCacheConfig::new(capacity, episode.config.head_dim));
    run_episode_cached(episode, selector.as_mut(), Budget::new(BUDGET), &mut cache)
}

/// Capacity equivalent to the paper's recency window `R`: room for `R`
/// steps of selected clusters (budget plus one trimmed cluster of slack).
fn r_equivalent_capacity(r: usize, config: &ClusterKvConfig, head_dim: usize) -> Bytes {
    ClusterCacheConfig::for_recency_window(r, BUDGET + config.tokens_per_cluster, head_dim)
        .gpu_capacity
}

fn main() {
    let out = Report::from_args();
    let episode = Episode::generate(
        EpisodeConfig::default()
            .with_context_len(CONTEXT_LEN)
            .with_decode_steps(DECODE_STEPS)
            .with_num_topics(40)
            .with_seed(0xCAC4E),
    );
    let head_dim = episode.config.head_dim;
    let model = LatencyModel::new(ModelPreset::Llama31_8b.config(), DeviceModel::ada6000());

    // Per-step recall cost measured on the episode, fed into the analytical
    // decode model (real recall traffic, not an assumed uniform rate).
    let cost_of = |result: &EpisodeResult| {
        let transferred_per_step = result.stats.cache.misses as f64 / DECODE_STEPS as f64;
        clusterkv_cost(model.config(), BUDGET, transferred_per_step)
    };

    out.say("# Cluster-cache effectiveness (§V-C)\n");
    let no_cache = run_with_capacity(ClusterKvConfig::default(), &episode, Bytes(0));
    let no_cache_run = model.run(
        CONTEXT_LEN,
        256,
        Some((CONTEXT_LEN / 80, 10)),
        cost_of(&no_cache),
    );
    // (r, hit rate, recalled tokens / step, throughput vs no cache)
    let mut window_rows: Vec<(usize, f64, f64, f64)> = Vec::new();
    let mut table = Table::new(vec![
        "Recency window R",
        "Token hit rate",
        "Recalled / step",
        "Throughput vs no cache",
    ]);
    for r in [1usize, 2] {
        let config = ClusterKvConfig::default();
        let result = run_with_capacity(
            config,
            &episode,
            r_equivalent_capacity(r, &config, head_dim),
        );
        let cached_run = model.run(
            CONTEXT_LEN,
            256,
            Some((CONTEXT_LEN / 80, 10)),
            cost_of(&result),
        );
        let recalled = result.stats.cache.misses as f64 / DECODE_STEPS as f64;
        let gain = cached_run.decode_throughput / no_cache_run.decode_throughput;
        window_rows.push((r, result.stats.cache.hit_rate(), recalled, gain));
        table.row(vec![
            r.to_string(),
            format!("{:.1}%", result.stats.cache.hit_rate() * 100.0),
            format!("{} tokens", fmt(recalled, 0)),
            format!("{}x", fmt(gain, 2)),
        ]);
    }
    out.say(table.render());
    out.say(
        "Paper reference: hit rates of 63% (R=1) and 74% (R=2); throughput gains of 2.3x and 3x \
         over loading directly from CPU memory.\n",
    );
    out.say("# Hit rate vs GPU cache capacity\n");

    let full_kv = Bytes(4 * head_dim as u64 * (CONTEXT_LEN + DECODE_STEPS) as u64);
    let mut table = Table::new(vec![
        "Capacity (fraction of full KV)",
        "Capacity",
        "Token hit rate",
        "Bytes recalled",
    ]);
    // (label, capacity bytes, hit rate, bytes recalled)
    let mut sweep_rows: Vec<(&str, u64, f64, u64)> = Vec::new();
    let mut previous = -1.0f64;
    let mut monotone = true;
    for (label, capacity) in [
        ("0", Bytes(0)),
        ("1/16", Bytes(full_kv.get() / 16)),
        ("1/8", Bytes(full_kv.get() / 8)),
        ("1/4", Bytes(full_kv.get() / 4)),
        ("1/2", Bytes(full_kv.get() / 2)),
        ("1", full_kv),
        ("2", Bytes(2 * full_kv.get())),
    ] {
        let result = run_with_capacity(ClusterKvConfig::default(), &episode, capacity);
        let hit = result.stats.cache.hit_rate();
        monotone &= hit >= previous;
        previous = hit;
        sweep_rows.push((
            label,
            capacity.get(),
            hit,
            result.stats.cache.bytes_recalled.get(),
        ));
        table.row(vec![
            label.to_string(),
            capacity.to_string(),
            format!("{:.1}%", hit * 100.0),
            result.stats.cache.bytes_recalled.to_string(),
        ]);
    }
    out.say(table.render());
    assert!(monotone, "hit rate must be non-decreasing in capacity");
    assert!(
        (previous - 1.0).abs() < 1e-12,
        "capacity >= full KV must never recall (hit rate {previous})"
    );
    out.say(
        "Hit rate is monotonically non-decreasing in capacity and reaches 100% once the cache \
         holds the full KV.\n",
    );
    out.say("# Cluster reuse-distance histogram\n");

    // The stack distance of an access is a property of the request stream
    // alone, so any capacity's run measures the same histogram; take it from
    // the no-cache run already in hand.
    let reuse = &no_cache.reuse;
    assert!(reuse.total() > 0, "the episode must request pages");
    assert!(
        reuse.total() > reuse.cold,
        "semantic locality must produce reused clusters"
    );
    let mut table = Table::new(vec!["Stack distance (clusters)", "Accesses", "Cumulative"]);
    let mut cumulative = 0u64;
    for (i, count) in reuse.buckets.iter().enumerate() {
        cumulative += count;
        let lo = (1u64 << i) - 1;
        let hi = (1u64 << (i + 1)) - 2;
        table.row(vec![
            if lo == hi {
                lo.to_string()
            } else {
                format!("{lo}-{hi}")
            },
            count.to_string(),
            format!("{:.1}%", cumulative as f64 / reuse.total() as f64 * 100.0),
        ]);
    }
    table.row(vec![
        "cold (first touch)".to_string(),
        reuse.cold.to_string(),
        "100.0%".to_string(),
    ]);
    // The cumulative fraction below D clusters is the hit rate an LRU cache
    // of D whole clusters would achieve; it must be monotone in D.
    let mut prediction = Vec::new();
    let mut last = -1.0;
    for d in [4usize, 16, 64, 256] {
        let f = reuse.hit_fraction_within(d);
        assert!(f >= last, "cumulative histogram must be monotone");
        last = f;
        prediction.push((d, f));
    }
    out.say(table.render());
    let line: Vec<String> = prediction
        .iter()
        .map(|(d, f)| format!("{d} clusters -> {:.1}%", f * 100.0))
        .collect();
    out.say(format_args!(
        "Predicted LRU hit rate from the histogram alone: {}.\n",
        line.join(", ")
    ));
    out.say("# Ablation — incremental clustering period m (C+ = 4)\n");

    // A longer decode so the smaller periods actually trigger incremental
    // clustering runs (320 steps = 4 runs at m = 80, none at m = 640).
    let long_decode = Episode::generate(
        EpisodeConfig::default()
            .with_context_len(CONTEXT_LEN)
            .with_decode_steps(320)
            .with_num_topics(40)
            .with_seed(0xCAC4E),
    );
    let mut table = Table::new(vec!["m (steps between clustering)", "Token hit rate"]);
    let mut ablation_rows: Vec<(usize, f64)> = Vec::new();
    for m in [80usize, 160, 320, 640] {
        let config = ClusterKvConfig::default().with_decode_cluster_period(m);
        let factory = ClusterKvFactory::new(config);
        let mut selector = factory.create(HeadContext::mha(2, 0, head_dim));
        let mut cache = ClusterCache::new(ClusterCacheConfig::new(
            r_equivalent_capacity(1, &config, head_dim),
            head_dim,
        ));
        let result = run_episode_cached(
            &long_decode,
            selector.as_mut(),
            Budget::new(BUDGET),
            &mut cache,
        );
        ablation_rows.push((m, result.stats.cache.hit_rate()));
        table.row(vec![
            m.to_string(),
            format!("{:.1}%", result.stats.cache.hit_rate() * 100.0),
        ]);
    }
    out.say(table.render());

    out.emit(Json::obj([
        ("bench", "exp_cache_hits".into()),
        (
            "workload",
            Json::obj([
                ("context_len", CONTEXT_LEN.into()),
                ("decode_steps", DECODE_STEPS.into()),
                ("budget", BUDGET.into()),
            ]),
        ),
        (
            "recency_windows",
            Json::Arr(
                window_rows
                    .iter()
                    .map(|&(r, hit, recalled, gain)| {
                        Json::row([
                            ("r", r.into()),
                            ("hit_rate", Json::Fixed(hit, 6)),
                            ("recalled_tokens_per_step", Json::Fixed(recalled, 3)),
                            ("throughput_gain", Json::Fixed(gain, 4)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "capacity_sweep",
            Json::Arr(
                sweep_rows
                    .iter()
                    .map(|&(label, bytes, hit, recalled)| {
                        Json::row([
                            ("capacity_fraction", label.into()),
                            ("capacity_bytes", bytes.into()),
                            ("hit_rate", Json::Fixed(hit, 6)),
                            ("bytes_recalled", recalled.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "reuse_distance",
            Json::obj([
                (
                    "buckets",
                    Json::Arr(reuse.buckets.iter().map(|&b| b.into()).collect()),
                ),
                ("cold", reuse.cold.into()),
                ("total", reuse.total().into()),
                (
                    "predicted_lru_hit_rate",
                    Json::Obj(
                        prediction
                            .iter()
                            .map(|&(d, f)| (d.to_string(), Json::Fixed(f, 6)))
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "m_ablation",
            Json::Arr(
                ablation_rows
                    .iter()
                    .map(|&(m, hit)| {
                        Json::row([("m", m.into()), ("hit_rate", Json::Fixed(hit, 6))])
                    })
                    .collect(),
            ),
        ),
    ]));
}
