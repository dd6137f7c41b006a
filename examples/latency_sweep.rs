//! Latency sweep: estimate end-to-end inference latency and decoding
//! throughput of ClusterKV against the full KV cache across prompt lengths
//! and budgets, using the analytical device model.
//!
//! ```bash
//! cargo run --release -p clusterkv-repro --example latency_sweep
//! ```

use clusterkv_bench::clusterkv_cost;
use clusterkv_kvcache::DeviceModel;
use clusterkv_model::latency::StepCost;
use clusterkv_model::{LatencyModel, ModelPreset};

fn main() {
    let model = LatencyModel::new(ModelPreset::Llama31_8b.config(), DeviceModel::ada6000());
    let decode_len = 512;
    let cache_hit_rate = 0.63; // cluster-cache hit rate with R = 1 (§V-C)

    println!(
        "model: {}  |  device: Ada-6000 analytical model  |  decode length: {decode_len}\n",
        ModelPreset::Llama31_8b
    );
    println!(
        "{:>8} {:>10} {:>14} {:>14} {:>10} {:>12}",
        "prompt", "budget", "full KV (s)", "ClusterKV (s)", "speedup", "thpt gain"
    );

    for prompt in [8_192usize, 16_384, 32_768] {
        let full = model.run(prompt, decode_len, None, StepCost::full_kv);
        for budget in [512usize, 1024, 2048] {
            let recalled = budget as f64 * (1.0 - cache_hit_rate);
            let clusterkv = model.run(
                prompt,
                decode_len,
                Some((prompt / 80, 10)),
                clusterkv_cost(model.config(), budget, recalled),
            );
            println!(
                "{:>7}k {:>10} {:>14.2} {:>14.2} {:>9.2}x {:>11.2}x",
                prompt / 1024,
                budget,
                full.total.get(),
                clusterkv.total.get(),
                full.total.get() / clusterkv.total.get(),
                clusterkv.decode_throughput / full.decode_throughput,
            );
        }
    }
    println!("\nThe clustering overhead during prefill stays in the single-digit percent range:");
    for prompt in [8_192usize, 32_768] {
        let bd = model.prefill_breakdown(prompt, Some((prompt / 80, 10)));
        println!(
            "  P = {:>2}k: prefill {:.2}s, clustering {:.3}s ({:.1}% of prefill)",
            prompt / 1024,
            bd.base.get(),
            bd.clustering.get(),
            bd.clustering_fraction() * 100.0
        );
    }
}
