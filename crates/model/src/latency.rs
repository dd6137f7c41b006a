//! Analytical latency and throughput model.
//!
//! Reproduces the efficiency experiments of the paper (Fig. 12, Fig. 13 and
//! the prefill-overhead analysis of §V-C) without a GPU. The model follows a
//! roofline formulation on top of [`DeviceModel`]:
//!
//! * **Prefill** is compute-bound: `2 · params · L` FLOPs for the projections
//!   plus the quadratic attention term.
//! * **Decoding** is memory-bound: every step streams the model weights and
//!   the *attended* portion of the KV cache from GPU memory, pays the
//!   selection cost of the active policy (scoring centroids, page metadata or
//!   partial keys), and pays PCIe transfer for any KV that has to be recalled
//!   from CPU memory.
//!
//! Policies are described to the model with a [`StepCost`] — a small,
//! policy-agnostic descriptor — so the same pricing applies uniformly to
//! ClusterKV and every baseline.

use crate::config::ModelConfig;
use clusterkv_kvcache::cluster_cache::{ClusterCacheConfig, StepOutcome};
use clusterkv_kvcache::device::{DeviceModel, Seconds};
use clusterkv_kvcache::types::Bytes;
use serde::{Deserialize, Serialize};

/// The bytes one decode step moves over PCIe, as the session's
/// [`ClusterCache`](clusterkv_kvcache::cluster_cache::ClusterCache) counted
/// them — the only data-movement ledger of the
/// stack (DESIGN.md §12). Every term is a step-level total in
/// exact bytes, so pricing never reconstructs a byte count from tokens.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Transfers {
    /// Bytes recalled for cluster-cache misses this step, whatever width
    /// they travelled at (exact f16 or the quantized tier's).
    pub demand: Bytes,
    /// Bytes the prefetcher staged this step. Staged transfers run
    /// asynchronously and overlap compute: the step is priced
    /// `max(compute, staged) + demand`.
    pub staged: Bytes,
    /// The part of `demand` an earlier staged transfer already moved; it
    /// leaves the demand term.
    pub promoted: Bytes,
    /// Bytes re-sent by faulted transfers and checksum repairs, priced as
    /// further demand traffic.
    pub retried: Bytes,
    /// Exponential-backoff wait of this step's retries, added to the demand
    /// term as is.
    pub backoff: Seconds,
}

impl Transfers {
    /// Fold one head's cache access into the step: its recalled bytes are
    /// demand, the staged share of them was moved ahead of time.
    pub fn recall(&mut self, access: &StepOutcome) {
        self.demand += access.bytes_recalled;
        self.promoted += access.staged_bytes;
    }

    /// The bytes the step blocks on: `demand − promoted`.
    pub fn demand_bytes(&self) -> Bytes {
        Bytes(self.demand.get().saturating_sub(self.promoted.get()))
    }

    /// Every selective-layer KV head recalling `tokens` exact tokens in one
    /// step — how the figure reproductions turn a measured or assumed
    /// per-head recall rate into the ledger's unit. The per-token width is
    /// the cluster cache's own.
    pub fn demand_per_kv_head(config: &ModelConfig, tokens: f64) -> Self {
        let selective = (config.num_layers - config.dense_layers) as f64;
        let width = ClusterCacheConfig::new(Bytes(0), config.head_dim).bytes_per_token;
        let bytes = selective * config.num_kv_heads as f64 * tokens * width.get() as f64;
        Self {
            demand: Bytes(bytes as u64),
            ..Self::default()
        }
    }
}

/// Per-decoding-step cost descriptor of a selection policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StepCost {
    /// Number of `head_dim`-dimensional vectors scored against the query per
    /// selective-layer head (centroids for ClusterKV, pages for Quest,
    /// partial keys for InfiniGen, previous tokens for exact top-k).
    pub scored_vectors_per_head: f64,
    /// Tokens whose K/V are read for attention per selective-layer head
    /// (the budget `B`, or the full context for dense layers / Full KV).
    pub attended_tokens: f64,
    /// PCIe traffic of the step (all zero for policies whose KV stays in
    /// GPU memory).
    pub transfers: Transfers,
}

impl StepCost {
    /// Cost of full-KV attention with the cache resident in GPU memory.
    pub fn full_kv(context_len: usize) -> Self {
        Self {
            attended_tokens: context_len as f64,
            ..Self::default()
        }
    }

    /// The cost of a step the engine actually ran: vectors scored and tokens
    /// attended, totalled across every selective-layer head, become the
    /// per-head values the GPU terms expect; the transfers are already
    /// step-level.
    pub fn of_step(config: &ModelConfig, scored: u64, attended: u64, transfers: Transfers) -> Self {
        let heads = ((config.num_layers - config.dense_layers) * config.num_heads) as f64;
        let per_head = |total: u64| {
            if heads == 0.0 {
                0.0
            } else {
                total as f64 / heads
            }
        };
        Self {
            scored_vectors_per_head: per_head(scored),
            attended_tokens: per_head(attended),
            transfers,
        }
    }
}

/// One decode step under the overlap-aware roofline clock (DESIGN.md §10),
/// split into its three terms: on-GPU compute, staged (asynchronous,
/// overlapped) PCIe transfer, and demand (synchronous) PCIe transfer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecodeStepBreakdown {
    /// On-GPU compute: weight streaming + attention KV reads + selection.
    pub gpu: Seconds,
    /// PCIe time of staged transfers, overlapped with this step's compute.
    pub staged: Seconds,
    /// PCIe time of demand transfers (synchronous recall on misses).
    pub demand: Seconds,
    /// Step time `max(gpu, staged) + demand`: staged transfers hide behind
    /// compute (or vice versa), demand recalls stay on the critical path.
    pub total: Seconds,
}

impl DecodeStepBreakdown {
    /// Transfer time hidden behind compute by the overlap — what a pure-sum
    /// clock would have added on top: `min(gpu, staged)`.
    pub fn hidden(&self) -> Seconds {
        Seconds(self.gpu.get().min(self.staged.get()))
    }
}

/// Prefill latency split into base model time and clustering overhead.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrefillBreakdown {
    /// Prefill time of the model itself.
    pub base: Seconds,
    /// Semantic-clustering time added by ClusterKV (zero for baselines).
    pub clustering: Seconds,
    /// Total prefill time. Clustering is launched asynchronously and
    /// overlapped with attention/FFN of the current layer and the QKV
    /// projection of the next (Fig. 6), so only the non-overlapped fraction
    /// is added to the critical path.
    pub total: Seconds,
}

impl PrefillBreakdown {
    /// Clustering overhead as a fraction of base prefill time.
    pub fn clustering_fraction(&self) -> f64 {
        if self.base.get() == 0.0 {
            0.0
        } else {
            self.clustering.get() / self.base.get()
        }
    }
}

/// End-to-end inference latency summary for one (prompt, decode) setting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InferenceBreakdown {
    /// Prefill breakdown.
    pub prefill: PrefillBreakdown,
    /// Total decoding time across all generated tokens.
    pub decode: Seconds,
    /// End-to-end latency (prefill + decode).
    pub total: Seconds,
    /// Decoding throughput in tokens per second.
    pub decode_throughput: f64,
}

/// Fraction of the clustering work that cannot be hidden behind other
/// kernels (the paper reports clustering at 6–8 % of prefill after overlap).
const CLUSTERING_EXPOSED_FRACTION: f64 = 0.6;

/// Analytical latency model for a model configuration on a device.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    config: ModelConfig,
    device: DeviceModel,
}

impl LatencyModel {
    /// Create a latency model.
    pub fn new(config: ModelConfig, device: DeviceModel) -> Self {
        Self { config, device }
    }

    /// Model configuration being priced.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Device parameters being used.
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// Prefill latency for a prompt of `prompt_len` tokens (compute bound,
    /// plus one full pass over the weights).
    pub fn prefill(&self, prompt_len: usize) -> Seconds {
        let params = self.config.approx_params() as f64;
        let proj_flops = 2.0 * params * prompt_len as f64;
        // Causal attention: ~2 * layers * heads * head_dim * L^2 / 2 MACs
        // for QK^T plus the same for weights*V => 2x.
        let l = prompt_len as f64;
        let attn_flops = 2.0
            * self.config.num_layers as f64
            * self.config.num_heads as f64
            * self.config.head_dim as f64
            * l
            * l;
        let weight_bytes = Bytes::of_f16(self.config.approx_params() as usize);
        self.device
            .roofline_time(weight_bytes, proj_flops + attn_flops)
    }

    /// Raw (un-overlapped) cost of semantic clustering after prefill:
    /// `iterations · C0 · L · d` multiply-accumulates per KV head per layer
    /// (the paper's Concern 1, §III-D).
    pub fn clustering_cost(
        &self,
        prompt_len: usize,
        clusters: usize,
        iterations: usize,
    ) -> Seconds {
        let flops = 2.0
            * self.config.num_layers as f64
            * self.config.num_kv_heads as f64
            * iterations as f64
            * clusters as f64
            * prompt_len as f64
            * self.config.head_dim as f64;
        let key_bytes = Bytes::of_f16(
            self.config.num_layers
                * self.config.num_kv_heads
                * prompt_len
                * self.config.head_dim
                * iterations,
        );
        self.device.roofline_time(key_bytes, flops)
    }

    /// Prefill breakdown including (optionally) clustering overhead.
    pub fn prefill_breakdown(
        &self,
        prompt_len: usize,
        clustering: Option<(usize, usize)>,
    ) -> PrefillBreakdown {
        let base = self.prefill(prompt_len);
        let clustering = match clustering {
            Some((clusters, iterations)) => self.clustering_cost(prompt_len, clusters, iterations),
            None => Seconds::zero(),
        };
        let total = base + clustering * CLUSTERING_EXPOSED_FRACTION;
        PrefillBreakdown {
            base,
            clustering,
            total,
        }
    }

    /// Latency of a single decoding step with `context_len` tokens of
    /// context under the given policy cost descriptor.
    pub fn decode_step(&self, context_len: usize, cost: &StepCost) -> Seconds {
        self.decode_step_breakdown(context_len, cost).total
    }

    /// [`decode_step`](Self::decode_step) split into its overlap-clock
    /// terms. With nothing staged the staged term is exactly
    /// zero and `total` is bit-identical to the pure-sum clock
    /// `gpu + demand` (`max(gpu, 0) = gpu` under IEEE-754 for the
    /// non-negative roofline times).
    pub fn decode_step_breakdown(
        &self,
        context_len: usize,
        cost: &StepCost,
    ) -> DecodeStepBreakdown {
        let cfg = &self.config;
        let dense = cfg.dense_layers as f64;
        let selective = (cfg.num_layers - cfg.dense_layers) as f64;
        let kv_bytes_per_token_per_layer = (2 * 2 * cfg.num_kv_heads * cfg.head_dim) as f64;

        // Dense projections / FFN: stream the model weights once per step.
        let weight_bytes = Bytes(2 * cfg.approx_params());
        let proj_flops = 2.0 * cfg.approx_params() as f64;
        let weight_time = self.device.roofline_time(weight_bytes, proj_flops);

        // Attention over the KV cache: dense layers read the whole context,
        // selective layers read only the attended (budgeted) tokens. These
        // reads go through the attention kernel and are priced at its lower
        // effective bandwidth.
        let dense_kv_bytes = dense * context_len as f64 * kv_bytes_per_token_per_layer;
        let selective_kv_bytes = selective * cost.attended_tokens * kv_bytes_per_token_per_layer;
        let kv_time = self
            .device
            .attention_read_time(Bytes((dense_kv_bytes + selective_kv_bytes) as u64));

        // Selection: score centroids / page representations / partial keys
        // against the query (one pass per head of every selective layer).
        let selection_bytes = selective
            * cfg.num_heads as f64
            * cost.scored_vectors_per_head
            * cfg.head_dim as f64
            * 2.0;
        let select_flops = 2.0
            * selective
            * cfg.num_heads as f64
            * cost.scored_vectors_per_head
            * cfg.head_dim as f64;
        let selection_time = self
            .device
            .roofline_time(Bytes(selection_bytes as u64), select_flops);

        let gpu_time = weight_time + kv_time + selection_time;

        // Demand transfers block the step: the recalled bytes nothing staged
        // ahead of time, the bytes retries re-send, and the retries' backoff
        // wait. With no faults the last two terms are exactly zero
        // (`transfer_time(0) = 0`), so adding them preserves bit-identity.
        let transfers = &cost.transfers;
        let demand = self.device.transfer_time(transfers.demand_bytes())
            + self.device.transfer_time(transfers.retried)
            + transfers.backoff;

        // Staged transfers run asynchronously on the copy engine and
        // overlap this step's compute: only the excess beyond the compute
        // time is exposed.
        let staged = self.device.transfer_time(transfers.staged);

        DecodeStepBreakdown {
            gpu: gpu_time,
            staged,
            demand,
            total: Seconds(gpu_time.get().max(staged.get())) + demand,
        }
    }

    /// End-to-end latency for `prompt_len` prompt tokens followed by
    /// `decode_len` generated tokens, where `cost_at(step_context_len)`
    /// describes the policy's per-step cost at a given context length.
    pub fn run<F>(
        &self,
        prompt_len: usize,
        decode_len: usize,
        clustering: Option<(usize, usize)>,
        mut cost_at: F,
    ) -> InferenceBreakdown
    where
        F: FnMut(usize) -> StepCost,
    {
        let prefill = self.prefill_breakdown(prompt_len, clustering);
        let mut decode = Seconds::zero();
        for step in 0..decode_len {
            let context_len = prompt_len + step;
            decode += self.decode_step(context_len, &cost_at(context_len));
        }
        let total = prefill.total + decode;
        let decode_throughput = if decode.get() > 0.0 {
            decode_len as f64 / decode.get()
        } else {
            0.0
        };
        InferenceBreakdown {
            prefill,
            decode,
            total,
            decode_throughput,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelPreset;
    use clusterkv_kvcache::cluster_cache::{ClusterCache, PageRequest};
    use clusterkv_kvcache::types::{HeadId, LayerId};
    use proptest::prelude::*;

    fn llama_model() -> LatencyModel {
        LatencyModel::new(ModelPreset::Llama31_8b.config(), DeviceModel::ada6000())
    }

    /// A budget-1024 ClusterKV-like step recalling `tokens` tokens per KV
    /// head.
    fn budgeted(m: &LatencyModel, tokens: f64) -> StepCost {
        StepCost {
            scored_vectors_per_head: 400.0,
            attended_tokens: 1024.0,
            transfers: Transfers::demand_per_kv_head(m.config(), tokens),
        }
    }

    /// A model of `layers` selective layers with one query head per KV head.
    fn selective_config(layers: usize, kv_heads: usize, head_dim: usize) -> ModelConfig {
        ModelConfig {
            num_layers: layers,
            num_heads: kv_heads,
            num_kv_heads: kv_heads,
            head_dim,
            ffn_dim: 4 * head_dim,
            vocab_size: 64,
            max_context: 4096,
            dense_layers: 0,
        }
    }

    #[test]
    fn decode_step_is_cheaper_with_smaller_budget() {
        let m = llama_model();
        let full = m.decode_step(32_000, &StepCost::full_kv(32_000));
        let b1024 = m.decode_step(32_000, &budgeted(&m, 300.0));
        assert!(
            b1024 < full,
            "budgeted step {b1024} should beat full {full}"
        );
    }

    #[test]
    fn full_kv_decode_scales_with_context() {
        let m = llama_model();
        let t8k = m.decode_step(8_000, &StepCost::full_kv(8_000));
        let t32k = m.decode_step(32_000, &StepCost::full_kv(32_000));
        // KV reads grow 4x; weights stay constant, so the step grows
        // substantially but sub-linearly.
        assert!(t32k.get() > 1.5 * t8k.get(), "{} vs {}", t32k, t8k);
        assert!(t32k.get() < 4.0 * t8k.get());
    }

    #[test]
    fn budgeted_decode_is_nearly_flat_in_context() {
        let m = llama_model();
        let cost = budgeted(&m, 300.0);
        let t8k = m.decode_step(8_000, &cost);
        let t32k = m.decode_step(32_000, &cost);
        // Only the dense layers scale with context, so growth is modest.
        assert!(t32k.get() < 1.6 * t8k.get());
    }

    #[test]
    fn prefill_grows_with_prompt_length() {
        let m = llama_model();
        assert!(m.prefill(32_000) > m.prefill(8_000));
    }

    #[test]
    fn clustering_overhead_is_single_digit_percent_of_prefill() {
        // The paper reports clustering at 6-8% of prefill for a 32k prompt
        // with C0 = L/80 clusters.
        let m = llama_model();
        let bd = m.prefill_breakdown(32_000, Some((400, 10)));
        let frac = bd.clustering_fraction();
        assert!(frac > 0.005 && frac < 0.20, "clustering fraction {frac}");
        assert!(bd.total.get() >= bd.base.get());
    }

    #[test]
    fn speedup_at_32k_context_is_around_2x() {
        // Headline claim: up to 2x latency speedup at P=32k, D=1024 with a
        // 1024-token budget. The analytical model should land in a broadly
        // similar range (1.3x..4x) — the shape check, not the exact number.
        let m = llama_model();
        let p = 32_000;
        let d = 1024;
        let full = m.run(p, d, None, StepCost::full_kv);
        let clusterkv = m.run(p, d, Some((p / 80, 10)), |ctx| StepCost {
            scored_vectors_per_head: (ctx / 80) as f64,
            ..budgeted(&m, 0.37 * 1024.0)
        });
        let speedup = full.total.get() / clusterkv.total.get();
        assert!(speedup > 1.3 && speedup < 4.0, "speedup {speedup}");
        assert!(clusterkv.decode_throughput > full.decode_throughput);
    }

    #[test]
    fn run_accumulates_prefill_and_decode() {
        let m = llama_model();
        let r = m.run(1000, 10, None, StepCost::full_kv);
        assert!(r.total.get() > r.prefill.total.get());
        assert!(r.total.get() > r.decode.get());
        assert!(r.decode_throughput > 0.0);
    }

    #[test]
    fn step_cost_from_totals_reconstructs_per_head_values() {
        // tiny(): 2 layers, 2 heads, 0 dense layers => 4 selective query
        // heads.
        let cfg = crate::config::ModelConfig::tiny();
        let transfers = Transfers {
            demand: Bytes(640),
            staged: Bytes(320),
            ..Transfers::default()
        };
        let cost = StepCost::of_step(&cfg, 400, 96, transfers);
        assert!((cost.scored_vectors_per_head - 100.0).abs() < 1e-12);
        assert!((cost.attended_tokens - 24.0).abs() < 1e-12);
        assert_eq!(cost.transfers, transfers, "bytes are step-level already");
        // All layers dense: nothing selective to price.
        let mut dense = cfg;
        dense.dense_layers = dense.num_layers;
        assert_eq!(
            StepCost::of_step(&dense, 0, 0, Transfers::default()),
            StepCost::default()
        );
    }

    #[test]
    fn demand_is_priced_in_the_bytes_the_cache_counted() {
        // 245 recalled tokens over 30 selective layers of one 16-dim KV
        // head are 245 · 64 = 15680 B. A per-KV-head token rate cannot carry
        // that: 245 / 30 · 30 · 64 lands a hair under and truncates to
        // 15679 B.
        let cfg = selective_config(30, 1, 16);
        let mut cache = ClusterCache::new(ClusterCacheConfig::new(Bytes(0), 16));
        let mut step = Transfers::default();
        for layer in 0..30 {
            let tokens = if layer < 5 { 9 } else { 8 }; // 245 in all
            let access = cache.access(LayerId(layer), HeadId(0), &[PageRequest::new(0, tokens)]);
            step.recall(&access);
        }
        assert_eq!(cache.stats().bytes_recalled, Bytes(15680));
        assert_eq!(step.demand_bytes(), Bytes(15680));
        assert_eq!(
            Transfers::demand_per_kv_head(&cfg, 245.0 / 30.0).demand,
            Bytes(15679)
        );
        let m = LatencyModel::new(cfg, DeviceModel::ada6000());
        let cost = StepCost::of_step(&cfg, 0, 245, step);
        assert_eq!(
            m.decode_step_breakdown(245, &cost).demand,
            m.device().transfer_time(Bytes(15680))
        );
    }

    proptest! {
        #[test]
        fn priced_demand_is_exactly_what_the_cache_recalled_minus_promotions(
            layers in 1usize..7,
            kv_heads in 1usize..5,
            dim_units in 1usize..17,
            seed_tokens in proptest::collection::vec(0usize..400, 1..29),
            staged_every in 1usize..5,
        ) {
            let cfg = selective_config(layers, kv_heads, 4 * dim_units);
            let mut cache = ClusterCache::new(
                ClusterCacheConfig::new(Bytes(0), cfg.head_dim).with_staging(Bytes(u64::MAX)),
            );
            let mut step = Transfers::default();
            let (mut recalled, mut promoted) = (0u64, 0u64);
            for i in 0..layers * kv_heads {
                let (layer, head) = (LayerId(i / kv_heads), HeadId(i % kv_heads));
                let pages = [PageRequest::new(0, seed_tokens[i % seed_tokens.len()])];
                if i % staged_every == 0 {
                    cache.stage(layer, head, &pages);
                }
                let access = cache.access(layer, head, &pages);
                recalled += access.bytes_recalled.get();
                promoted += access.staged_bytes.get();
                step.recall(&access);
            }
            prop_assert_eq!(cache.stats().bytes_recalled, Bytes(recalled));
            prop_assert_eq!(step.demand_bytes(), Bytes(recalled - promoted));
            let m = LatencyModel::new(cfg, DeviceModel::ada6000());
            let bd = m.decode_step_breakdown(64, &StepCost::of_step(&cfg, 0, 0, step));
            prop_assert_eq!(bd.demand, m.device().transfer_time(Bytes(recalled - promoted)));
        }
    }

    #[test]
    fn overlap_clock_reduces_to_pure_sum_when_nothing_is_staged() {
        // A step whose transfers have `staged == promoted == 0` — every
        // step of a prefetch-off engine — must price *bit-identically* to
        // the pre-overlap pure sum `gpu + demand`.
        let m = llama_model();
        let cost = budgeted(&m, 300.0);
        assert_eq!(
            (cost.transfers.staged, cost.transfers.promoted),
            (Bytes(0), Bytes(0))
        );
        let bd = m.decode_step_breakdown(32_000, &cost);
        assert_eq!(bd.staged, Seconds::zero());
        assert_eq!(
            bd.demand,
            m.device().transfer_time(cost.transfers.demand),
            "nothing was promoted out of the demand term"
        );
        assert_eq!(
            bd.total.get().to_bits(),
            (bd.gpu + bd.demand).get().to_bits(),
            "disabled overlap clock must be bit-identical to the pure sum"
        );
        assert_eq!(bd.hidden(), Seconds::zero());
        assert_eq!(m.decode_step(32_000, &cost), bd.total);
    }

    #[test]
    fn staged_transfers_hide_behind_compute() {
        let m = llama_model();
        let base = budgeted(&m, 300.0);
        let staging = |bytes: u64| StepCost {
            transfers: Transfers {
                staged: Bytes(bytes),
                ..base.transfers
            },
            ..base
        };
        // A small staged transfer finishes well inside the compute window:
        // the step costs exactly what it did without staging, and the whole
        // staged time is hidden.
        let bd0 = m.decode_step_breakdown(32_000, &base);
        let bd = m.decode_step_breakdown(32_000, &staging(4096));
        assert!(bd.staged.get() > 0.0 && bd.staged < bd.gpu);
        assert_eq!(bd.total, bd0.total, "hidden transfer is free");
        assert_eq!(bd.hidden(), bd.staged);
        // A staged transfer far larger than compute becomes the bottleneck:
        // the step stretches to max(gpu, staged) + demand, never the sum.
        let big = m.decode_step_breakdown(32_000, &staging(1_000_000_000_000));
        assert!(big.staged > big.gpu);
        assert_eq!(big.total, big.staged + big.demand);
        assert!(big.total < big.gpu + big.staged + big.demand);
        assert_eq!(big.hidden(), big.gpu);
    }

    #[test]
    fn compressed_transfer_is_cheaper_than_exact_for_the_same_tokens() {
        // 300 tokens/head recalled exactly vs the same traffic recalled at
        // int8 (half the bytes): the compressed step must be strictly
        // faster, and both strictly slower than no recall at all.
        let m = llama_model();
        let exact = budgeted(&m, 300.0);
        let none = budgeted(&m, 0.0);
        let compressed = StepCost {
            transfers: Transfers {
                demand: Bytes(exact.transfers.demand.get() / 2),
                ..Transfers::default()
            },
            ..exact
        };
        let t_none = m.decode_step(32_000, &none);
        let t_exact = m.decode_step(32_000, &exact);
        let t_compressed = m.decode_step(32_000, &compressed);
        assert!(t_compressed < t_exact, "{t_compressed} vs {t_exact}");
        assert!(t_none < t_compressed);
    }

    #[test]
    fn zero_decode_run_has_zero_throughput() {
        let m = llama_model();
        let r = m.run(1000, 0, None, StepCost::full_kv);
        assert_eq!(r.decode_throughput, 0.0);
        assert_eq!(r.decode, Seconds::zero());
    }
}
