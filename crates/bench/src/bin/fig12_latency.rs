//! Experiments E8/E12 — Fig. 12 of the paper.
//!
//! End-to-end inference latency of ClusterKV versus the full-KV configuration
//! for prompt lengths of 8k/16k/32k, decode lengths of 256/512/1024 and
//! budgets of 512/1024/2048, including the prefill breakdown and the
//! clustering overhead (§V-C: 6–8 % of prefill).
//!
//! The per-step PCIe recall traffic is *measured* by running each budget's
//! selection against the tiered cluster cache on an 8k-context episode
//! (R = 1 equivalent capacity), instead of assuming a uniform hit rate.
//!
//! Run with: `cargo run --release -p clusterkv-bench --bin fig12_latency`

use clusterkv::{ClusterCache, ClusterCacheConfig, ClusterKvConfig, ClusterKvFactory};
use clusterkv_bench::clusterkv_cost;
use clusterkv_kvcache::types::Budget;
use clusterkv_kvcache::DeviceModel;
use clusterkv_metrics::{fmt, Table};
use clusterkv_model::latency::StepCost;
use clusterkv_model::policy::{HeadContext, SelectorFactory};
use clusterkv_model::{LatencyModel, ModelPreset};
use clusterkv_workloads::{run_episode_cached, Episode, EpisodeConfig};

const PROMPTS: [usize; 3] = [8_192, 16_384, 32_768];
const DECODES: [usize; 3] = [256, 512, 1024];
const BUDGETS: [usize; 3] = [512, 1024, 2048];
const MEASURE_CONTEXT: usize = 8_192;
const MEASURE_STEPS: usize = 64;

/// Measured cluster-cache behaviour of one budget: (token hit rate,
/// recalled tokens per step) on the reference episode.
fn measured_recall(episode: &Episode, budget: usize) -> (f64, f64) {
    let config = ClusterKvConfig::default();
    let factory = ClusterKvFactory::new(config);
    let mut selector = factory.create(HeadContext::mha(2, 0, episode.config.head_dim));
    let mut cache = ClusterCache::new(ClusterCacheConfig::for_recency_window(
        1,
        budget + config.tokens_per_cluster,
        episode.config.head_dim,
    ));
    let result = run_episode_cached(episode, selector.as_mut(), Budget::new(budget), &mut cache);
    (
        result.stats.cache.hit_rate(),
        result.stats.cache.misses as f64 / MEASURE_STEPS as f64,
    )
}

fn main() {
    let model = LatencyModel::new(ModelPreset::Llama31_8b.config(), DeviceModel::ada6000());
    let episode = Episode::generate(
        EpisodeConfig::default()
            .with_context_len(MEASURE_CONTEXT)
            .with_decode_steps(MEASURE_STEPS)
            .with_num_topics(40)
            .with_seed(0xF16),
    );
    let recall: Vec<(f64, f64)> = BUDGETS
        .iter()
        .map(|&b| measured_recall(&episode, b))
        .collect();
    println!(
        "# Fig. 12 — latency vs full KV ({} on analytical Ada-6000 device model)\n",
        ModelPreset::Llama31_8b
    );
    for (&b, &(hit, per_step)) in BUDGETS.iter().zip(&recall) {
        println!(
            "measured cluster-cache recall at B={b}: hit rate {:.1}%, {} tokens/step",
            hit * 100.0,
            fmt(per_step, 0)
        );
    }
    println!();

    let mut table = Table::new(vec![
        "P",
        "D",
        "Full KV (s)",
        "B=512 (s)",
        "B=1024 (s)",
        "B=2048 (s)",
        "Speedup @1024",
        "Thpt gain @1024",
    ]);
    for &p in &PROMPTS {
        for &d in &DECODES {
            let full = model.run(p, d, None, StepCost::full_kv);
            let mut budget_totals = Vec::new();
            let mut at_1024 = None;
            for (&b, &(_, per_step)) in BUDGETS.iter().zip(&recall) {
                let cost = clusterkv_cost(model.config(), b, per_step);
                let r = model.run(p, d, Some((p / 80, 10)), cost);
                budget_totals.push(r.total.get());
                if b == 1024 {
                    at_1024 = Some(r);
                }
            }
            let at_1024 = at_1024.expect("1024 is in BUDGETS");
            table.row(vec![
                format!("{}k", p / 1024),
                d.to_string(),
                fmt(full.total.get(), 2),
                fmt(budget_totals[0], 2),
                fmt(budget_totals[1], 2),
                fmt(budget_totals[2], 2),
                format!("{}x", fmt(full.total.get() / at_1024.total.get(), 2)),
                format!(
                    "{}x",
                    fmt(at_1024.decode_throughput / full.decode_throughput, 2)
                ),
            ]);
        }
    }
    println!("{}", table.render());

    println!("# Prefill breakdown (clustering overhead, §V-C)\n");
    let mut table = Table::new(vec![
        "P",
        "Prefill base (s)",
        "Clustering (s)",
        "Clustering / prefill",
    ]);
    for &p in &PROMPTS {
        let bd = model.prefill_breakdown(p, Some((p / 80, 10)));
        table.row(vec![
            format!("{}k", p / 1024),
            fmt(bd.base.get(), 2),
            fmt(bd.clustering.get(), 3),
            format!("{:.1}%", bd.clustering_fraction() * 100.0),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Paper reference: up to 2x end-to-end speedup and 2.5x decoding-throughput gain at \
         P=32k, D=1024 with a 1024-token budget; clustering is 6-8% of prefill."
    );
}
