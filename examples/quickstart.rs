//! Quickstart: serve a small transformer with ClusterKV-compressed attention.
//!
//! ```bash
//! cargo run --release -p clusterkv-repro --example quickstart
//! ```
//!
//! The example builds a tiny synthetic model inside a `ServeEngine`, opens
//! two sessions over the same weights — a full-KV reference and a ClusterKV
//! session under a tight budget — decodes them in lockstep with
//! `decode_batch`, and prints the selection statistics ClusterKV accumulated
//! along the way.

use clusterkv::{ClusterKvConfig, ClusterKvFactory};
use clusterkv_kvcache::types::{Budget, Bytes};
use clusterkv_model::policy::FullAttentionFactory;
use clusterkv_model::{ModelPreset, ServeEngine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A scaled-down Llama-like model with deterministic synthetic weights.
    let mut config = ModelPreset::Llama31_8b.scaled_down();
    config.max_context = 4096;
    let prompt: Vec<usize> = (0..160).map(|i| (i * 17 + 3) % config.vocab_size).collect();

    // One engine owns the weights; sessions choose their policy. ClusterKV
    // uses the paper's configuration (scaled sink/cluster sizes for the
    // short prompt) under a 64-token budget; the full-attention policy is
    // exempt from the budget and serves as the exact reference.
    let ckv_config = ClusterKvConfig::default()
        .with_sink_tokens(8)
        .with_tokens_per_cluster(16)
        .with_decode_cluster_period(8);
    // The GPU cluster cache holds about one step's worth of selected
    // clusters (R = 1 equivalent); the full KV lives in the CPU backing
    // store and is recalled on misses.
    let capacity = Bytes(config.selected_kv_bytes_per_step(64 + ckv_config.tokens_per_cluster));
    let mut engine = ServeEngine::builder(config)
        .synthetic_weights(42)
        .budget(Budget::new(64))
        .policy(Box::new(ClusterKvFactory::new(ckv_config)))
        .kv_cache_capacity(capacity)
        .build()?;

    let clusterkv = engine.create_session()?; // default policy: ClusterKV
    let full = engine.create_session_with(&FullAttentionFactory)?;
    engine.prefill(clusterkv, &prompt)?;
    engine.prefill(full, &prompt)?;

    // Decode both sessions in lockstep.
    let mut ckv_output = Vec::new();
    let mut full_output = Vec::new();
    for _ in 0..16 {
        let outputs = engine.decode_batch(&[clusterkv, full])?;
        ckv_output.push(outputs[0].next_token);
        full_output.push(outputs[1].next_token);
    }

    println!("prompt length        : {} tokens", prompt.len());
    println!("full-KV generation   : {full_output:?}");
    println!("ClusterKV generation : {ckv_output:?}");
    let matching = full_output
        .iter()
        .zip(&ckv_output)
        .filter(|(a, b)| a == b)
        .count();
    println!(
        "agreement            : {matching}/{} tokens identical under a {}-token budget",
        full_output.len(),
        engine.budget().tokens()
    );

    let report = engine.release(clusterkv)?;
    println!(
        "\nClusterKV selection statistics (all heads of session {}):",
        report.id
    );
    println!(
        "  centroids scored        : {}",
        report.stats.scored_vectors
    );
    println!(
        "  cluster-cache hit rate  : {:.1}%",
        report.cache_hit_rate() * 100.0
    );
    println!("  tokens fetched from CPU : {}", report.stats.cache.misses);
    println!("  bytes recalled via PCIe : {}", report.bytes_recalled());
    println!("  modeled decode latency  : {}", report.modeled_decode_time);
    Ok(())
}
