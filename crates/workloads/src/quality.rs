//! Quality-vs-memory evaluation lane for the compressed KV tier
//! (DESIGN.md §9).
//!
//! [`run_episode_quality`] runs the plain [`harness`](crate::harness)
//! decode loop but attends over *compressed-reconstructed* KV wherever a
//! token lives in a cold page: pages are compressed with
//! [`compress_page`] — once per membership, as the serving engine seals a
//! cluster once — their rows are dequantized over the selected set exactly
//! as on the engine's compressed recall, and the attention-output error is
//! measured against exact full attention. The
//! per-page byte accounting accumulates into an accuracy-vs-memory point —
//! one [`QualityResult`] per (method, compression config) — from which
//! `exp_quality` draws the frontier.
//!
//! Grouping follows the plan's residency: a recall-compressed plan
//! ([`KvResidency::Compressed`]) names pages whose cluster memberships the
//! selector exposes ([`TokenSelector::page_members`]), so
//! ClusterKV pages are compressed along semantic cluster boundaries (where
//! SLERP merging finds similar neighbours); recall-exact and resident plans
//! (Quest's positional pages, H2O's resident working set) fall back to
//! fixed-size positional blocks over the selected tokens — the grouping
//! those methods' own paging would use.
//!
//! Under a lossless config every reconstruction is the identity, so the
//! per-step recall/error/selection vectors are **bit-identical** to
//! [`run_episode`](crate::harness::run_episode)'s — the golden-parity
//! property the lossless boundary tests pin down.

use crate::harness::{drive_episode, EpisodeResult, EpisodeStep};
use crate::language_modeling::{BASE_PERPLEXITY, ERROR_SENSITIVITY};
use crate::longbench::LongBenchProfile;
use crate::semantic::Episode;
use clusterkv_kvcache::compressed::{compress_page, CompressedPage, CompressionConfig};
use clusterkv_kvcache::types::Budget;
use clusterkv_model::attention::attention_output_error;
use clusterkv_model::policy::{KvResidency, TokenSelector};
use clusterkv_tensor::kernels::attend_into;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Weight of the attention-output error in [`quality_perplexity`]. Selection
/// misses (recall) and reconstruction error (quantization / merging) degrade
/// generation quality through the same attention outputs, but a bounded
/// relative output error perturbs logits less than dropping a top-`B` token
/// outright, so it enters at half the recall sensitivity.
pub const OUTPUT_ERROR_SENSITIVITY: f64 = 0.5;

/// One lane of the quality evaluation: a compression configuration plus the
/// positional block size used for selectors whose plans carry no cluster
/// membership.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QualityLane {
    /// Compression applied to cold pages.
    pub compression: CompressionConfig,
    /// Tokens per positional block for recall-exact / resident plans
    /// (Quest, H2O, oracle baselines). ClusterKV's recall-compressed plans
    /// group by cluster membership instead.
    pub block_tokens: usize,
}

impl QualityLane {
    /// A lane over the given compression config with 16-token positional
    /// blocks (Quest's page size in the paper's configuration).
    pub fn new(compression: CompressionConfig) -> Self {
        Self {
            compression,
            block_tokens: 16,
        }
    }
}

/// One accuracy-vs-memory point: an episode run under a compression lane.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QualityResult {
    /// The per-step measurements (recall/error computed over the
    /// compressed-reconstructed KV).
    pub result: EpisodeResult,
    /// Relative L2 distance between the exact-selected attention output and
    /// the compressed-reconstruction output at every step — the pure
    /// compression perturbation, independent of how good the *selection*
    /// was. Identically zero under a lossless lane.
    pub per_step_reconstruction_error: Vec<f64>,
    /// The lane's compression configuration.
    pub compression: CompressionConfig,
    /// Total f16 bytes the compressed pages would occupy exact, summed over
    /// every page of every step.
    pub exact_bytes: u64,
    /// Total bytes of the compressed layout for the same pages.
    pub compressed_bytes: u64,
    /// Total SLERP-merged pairs across all pages and steps.
    pub merged_pairs: u64,
}

impl QualityResult {
    /// Cold-KV compression ratio `exact / compressed`; `0.0` when the run
    /// compressed nothing (never `NaN`).
    pub fn compression_ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            0.0
        } else {
            self.exact_bytes as f64 / self.compressed_bytes as f64
        }
    }

    /// Mean reconstruction error across steps (`0.0` when empty, never
    /// `NaN`).
    pub fn mean_reconstruction_error(&self) -> f64 {
        if self.per_step_reconstruction_error.is_empty() {
            0.0
        } else {
            self.per_step_reconstruction_error.iter().sum::<f64>()
                / self.per_step_reconstruction_error.len() as f64
        }
    }

    /// Compression-aware perplexity proxy of this run
    /// ([`quality_perplexity`]).
    pub fn perplexity(&self) -> f64 {
        quality_perplexity(&self.result, self.mean_reconstruction_error())
    }

    /// Compression-aware LongBench-style score under `profile`
    /// ([`quality_score`]).
    pub fn score(&self, profile: &LongBenchProfile) -> f64 {
        quality_score(profile, &self.result, self.mean_reconstruction_error())
    }
}

/// Compression-aware perplexity proxy: like
/// [`perplexity_proxy`](crate::language_modeling::perplexity_proxy) it grows
/// exponentially with the miss rate of the truly important tokens, but it
/// additionally charges the mean *reconstruction* error — the perturbation
/// compression itself adds on top of whatever the selection missed. With
/// `reconstruction_error == 0` (any lossless lane) it reduces exactly to
/// `perplexity_proxy`, so frontier plots share the plain harness's anchor.
pub fn quality_perplexity(result: &EpisodeResult, reconstruction_error: f64) -> f64 {
    let miss = (1.0 - result.mean_recall()).clamp(0.0, 1.0);
    let recon = reconstruction_error.clamp(0.0, 1.0);
    BASE_PERPLEXITY * (ERROR_SENSITIVITY * miss + OUTPUT_ERROR_SENSITIVITY * recon).exp()
}

/// Compression-aware LongBench-style score: fidelity is the recall
/// attenuated by the mean reconstruction error, mapped through the dataset's
/// floor-to-full-KV score range (the same interpolation as
/// [`LongBenchProfile::score`], which uses recall alone — the two agree
/// whenever reconstruction is exact).
pub fn quality_score(
    profile: &LongBenchProfile,
    result: &EpisodeResult,
    reconstruction_error: f64,
) -> f64 {
    let recon = reconstruction_error.clamp(0.0, 1.0);
    let fidelity = (result.mean_recall() * (1.0 - recon)).clamp(0.0, 1.0);
    profile.floor_score + (profile.full_kv_score - profile.floor_score) * fidelity
}

/// Chunk the selected token positions into fixed-size positional blocks
/// (ascending) — the page grouping of selectors whose plans carry no
/// cluster membership.
fn positional_blocks(selected: &[usize], block_tokens: usize) -> Vec<Vec<usize>> {
    let mut sorted = selected.to_vec();
    sorted.sort_unstable();
    sorted
        .chunks(block_tokens.max(1))
        .map(|c| c.to_vec())
        .collect()
}

/// Run `selector` over `episode` with the given budget, attending over
/// compressed-reconstructed KV and accounting the compressed footprint.
///
/// The decode loop is the plain harness's own: plan, measure recall of the
/// true top-`B` tokens, measure attention-output error — but the error is
/// computed after substituting every selected row that lives in a cold page
/// with the row its [`compress_page`] page dequantizes to (the engine's
/// compressed-recall path, [`ServeEngine`] §9). Recall-compressed plans
/// contribute their cluster memberships as pages; other plans use
/// `lane.block_tokens`-sized positional blocks over the selected tokens.
///
/// For ClusterKV to exercise the cluster-grouped path, build the selector
/// with the *same* compression config in its `ClusterKvConfig` — a
/// lossless-configured selector emits recall-exact plans and this lane falls
/// back to positional grouping, which still measures the quantization ladder
/// fairly.
///
/// [`ServeEngine`]: clusterkv_model::ServeEngine
pub fn run_episode_quality(
    episode: &Episode,
    selector: &mut dyn TokenSelector,
    budget: Budget,
    lane: QualityLane,
) -> QualityResult {
    #[derive(Default)]
    struct Footprint {
        per_step_reconstruction_error: Vec<f64>,
        exact_bytes: u64,
        compressed_bytes: u64,
        merged_pairs: u64,
        /// Stored KV never changes once appended, so a page is a function
        /// of its membership: clusters compress once, not once per step.
        pages: BTreeMap<Vec<usize>, CompressedPage>,
    }
    let head_dim = episode.config.head_dim;
    let mut footprint = Footprint::default();
    let result = drive_episode(
        episode,
        selector,
        budget,
        &mut footprint,
        |_, _| {},
        |acc, selector, step| {
            let EpisodeStep {
                store,
                query,
                plan,
                full,
            } = step;
            let selected = &plan.indices;
            let groups: Vec<Vec<usize>> = match &plan.residency {
                KvResidency::Compressed(pages) => pages
                    .iter()
                    .map(|p| selector.page_members(p.page).to_vec())
                    .collect(),
                _ => positional_blocks(selected, lane.block_tokens),
            };

            // Compress each cold page over its full membership (the
            // order-free engine invariant), substitute the selected rows
            // from its codes, then attend and measure against exact full
            // attention.
            let mut k_sel = store.keys().select_rows(selected);
            let mut v_sel = store.values().select_rows(selected);
            let mut weights = Vec::with_capacity(selected.len());
            let mut exact_out = vec![0.0f32; head_dim];
            attend_into(&k_sel, &v_sel, None, query, &mut weights, &mut exact_out);
            let row_of: BTreeMap<usize, usize> = selected
                .iter()
                .enumerate()
                .map(|(row, &pos)| (pos, row))
                .collect();
            for members in groups {
                let page = acc.pages.entry(members).or_insert_with_key(|members| {
                    compress_page(store.keys(), store.values(), members, lane.compression)
                });
                acc.exact_bytes += page.exact_bytes().get();
                acc.compressed_bytes += page.compressed_bytes().get();
                acc.merged_pairs += page.merged_pairs() as u64;
                let members = page.tokens();
                page.dequantize_into(
                    |slot| row_of.get(&members[slot]).copied(),
                    &mut k_sel,
                    &mut v_sel,
                );
            }
            let mut out = vec![0.0f32; head_dim];
            attend_into(&k_sel, &v_sel, None, query, &mut weights, &mut out);
            acc.per_step_reconstruction_error
                .push(attention_output_error(&exact_out, &out) as f64);
            attention_output_error(&full.output, &out) as f64
        },
    );

    QualityResult {
        result,
        per_step_reconstruction_error: footprint.per_step_reconstruction_error,
        compression: lane.compression,
        exact_bytes: footprint.exact_bytes,
        compressed_bytes: footprint.compressed_bytes,
        merged_pairs: footprint.merged_pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_episode;
    use crate::longbench::LongBenchDataset;
    use crate::semantic::EpisodeConfig;
    use clusterkv::{ClusterKvConfig, ClusterKvFactory};
    use clusterkv_model::policy::{
        FullAttentionSelector, HeadContext, PolicyStats, SelectorFactory,
    };

    fn episode() -> Episode {
        Episode::generate(EpisodeConfig {
            context_len: 200,
            decode_steps: 12,
            head_dim: 32,
            num_topics: 6,
            sink_tokens: 8,
            outlier_channels: 1,
            drift_period: 4,
            noise: 0.2,
            seed: 3,
        })
    }

    fn ctx() -> HeadContext {
        HeadContext::mha(2, 0, 32)
    }

    fn clusterkv_factory(compression: CompressionConfig) -> ClusterKvFactory {
        ClusterKvFactory::new(
            ClusterKvConfig::default()
                .with_sink_tokens(8)
                .with_tokens_per_cluster(16)
                .with_compression(compression),
        )
    }

    #[test]
    fn lossless_lane_is_bit_identical_to_the_plain_harness() {
        let e = episode();
        let factory = clusterkv_factory(CompressionConfig::lossless());
        let mut plain = factory.create(ctx());
        let baseline = run_episode(&e, plain.as_mut(), Budget::new(32));
        let mut sel = factory.create(ctx());
        let lane = QualityLane::new(CompressionConfig::lossless());
        let q = run_episode_quality(&e, sel.as_mut(), Budget::new(32), lane);
        assert_eq!(q.result.per_step_recall, baseline.per_step_recall);
        assert_eq!(q.result.per_step_error, baseline.per_step_error);
        assert_eq!(q.result.per_step_selected, baseline.per_step_selected);
        assert_eq!(q.compressed_bytes, q.exact_bytes, "lossless is byte-equal");
        assert_eq!(q.merged_pairs, 0);
        assert_eq!(q.compression_ratio(), 1.0);
        assert!(q.per_step_reconstruction_error.iter().all(|&e| e == 0.0));
        let anchored = crate::language_modeling::perplexity_proxy(&q.result);
        assert_eq!(q.perplexity(), anchored, "lossless reduces to the proxy");
    }

    #[test]
    fn lossless_lane_matches_for_resident_selectors_too() {
        let e = episode();
        let mut plain = FullAttentionSelector;
        let baseline = run_episode(&e, &mut plain, Budget::new(32));
        let mut sel = FullAttentionSelector;
        let lane = QualityLane::new(CompressionConfig::lossless());
        let q = run_episode_quality(&e, &mut sel, Budget::new(32), lane);
        assert_eq!(q.result.per_step_error, baseline.per_step_error);
        assert_eq!(q.result.per_step_recall, baseline.per_step_recall);
        assert!((q.result.mean_error()) < 1e-5, "full attention stays exact");
    }

    #[test]
    fn quantization_shrinks_bytes_without_changing_selection() {
        let e = episode();
        let lossless = {
            let factory = clusterkv_factory(CompressionConfig::lossless());
            let mut sel = factory.create(ctx());
            run_episode_quality(
                &e,
                sel.as_mut(),
                Budget::new(32),
                QualityLane::new(CompressionConfig::lossless()),
            )
        };
        let int8 = {
            let factory = clusterkv_factory(CompressionConfig::int8());
            let mut sel = factory.create(ctx());
            run_episode_quality(
                &e,
                sel.as_mut(),
                Budget::new(32),
                QualityLane::new(CompressionConfig::int8()),
            )
        };
        let int4 = {
            let factory = clusterkv_factory(CompressionConfig::int4());
            let mut sel = factory.create(ctx());
            run_episode_quality(
                &e,
                sel.as_mut(),
                Budget::new(32),
                QualityLane::new(CompressionConfig::int4()),
            )
        };
        // Selection is independent of the compression lane.
        assert_eq!(int8.result.per_step_recall, lossless.result.per_step_recall);
        assert_eq!(
            int8.result.per_step_selected,
            lossless.result.per_step_selected
        );
        // The byte ladder is strictly monotone; error stays bounded.
        assert!(int8.compressed_bytes < lossless.compressed_bytes);
        assert!(int4.compressed_bytes < int8.compressed_bytes);
        assert!(
            int8.compression_ratio() > 1.8,
            "{}",
            int8.compression_ratio()
        );
        assert!(
            int4.compression_ratio() > 3.5,
            "{}",
            int4.compression_ratio()
        );
        assert!(
            (int8.result.mean_error() - lossless.result.mean_error()).abs() < 0.05,
            "int8 error {} vs lossless {}",
            int8.result.mean_error(),
            lossless.result.mean_error()
        );
        // Reconstruction error isolates the quantization perturbation:
        // zero lossless, growing with grid coarseness — which makes the
        // perplexity ladder monotone even when the (selection-dominated)
        // full-attention error wobbles.
        assert_eq!(lossless.mean_reconstruction_error(), 0.0);
        assert!(int8.mean_reconstruction_error() > 0.0);
        assert!(int4.mean_reconstruction_error() > int8.mean_reconstruction_error());
        assert!(int8.perplexity() > lossless.perplexity());
        assert!(int4.perplexity() > int8.perplexity());
    }

    #[test]
    fn lossy_clusterkv_plans_group_pages_by_cluster() {
        let e = episode();
        let cfg = CompressionConfig::int8().with_merge_threshold(0.2);
        let factory = clusterkv_factory(cfg);
        let mut sel = factory.create(ctx());
        let q = run_episode_quality(&e, sel.as_mut(), Budget::new(32), QualityLane::new(cfg));
        // Cluster-grouped pages cover full memberships, so the exact bytes
        // exceed what the selected tokens alone would occupy, and merging
        // finds similar intra-cluster neighbours.
        assert!(q.compression_ratio() > 2.0, "{}", q.compression_ratio());
        assert!(q.merged_pairs > 0, "semantic clusters must yield merges");
        assert!(q.result.mean_recall() > 0.5);
    }

    #[test]
    fn quality_perplexity_is_monotone_and_anchored() {
        let mk = |recall: f64, error: f64| EpisodeResult {
            method: "x".into(),
            budget: 8,
            per_step_recall: vec![recall; 4],
            per_step_error: vec![error; 4],
            per_step_selected: vec![8; 4],
            stats: PolicyStats::default(),
            reuse: Default::default(),
        };
        let exact = quality_perplexity(&mk(1.0, 0.0), 0.0);
        assert!((exact - BASE_PERPLEXITY).abs() < 1e-12);
        assert!(quality_perplexity(&mk(0.9, 0.0), 0.0) > exact);
        assert!(quality_perplexity(&mk(1.0, 0.0), 0.1) > exact);
        assert!(quality_perplexity(&mk(0.9, 0.0), 0.1) > quality_perplexity(&mk(0.9, 0.0), 0.0));
        // The reconstruction channel is gentler than the recall channel.
        assert!(quality_perplexity(&mk(0.8, 0.0), 0.0) > quality_perplexity(&mk(1.0, 0.0), 0.2));
    }

    #[test]
    fn quality_score_attenuates_fidelity_by_error() {
        let p = LongBenchDataset::TwoWikiMqa.profile();
        let mk = |recall: f64, error: f64| EpisodeResult {
            method: "x".into(),
            budget: 8,
            per_step_recall: vec![recall; 4],
            per_step_error: vec![error; 4],
            per_step_selected: vec![8; 4],
            stats: PolicyStats::default(),
            reuse: Default::default(),
        };
        assert!((quality_score(&p, &mk(1.0, 0.0), 0.0) - p.full_kv_score).abs() < 1e-9);
        assert!((quality_score(&p, &mk(0.0, 1.0), 1.0) - p.floor_score).abs() < 1e-9);
        assert!(quality_score(&p, &mk(1.0, 0.0), 0.2) < p.full_kv_score);
        assert!(quality_score(&p, &mk(1.0, 0.0), 0.2) > quality_score(&p, &mk(0.5, 0.0), 0.2));
        // Recall-only scoring agrees whenever reconstruction is exact.
        let r = mk(0.7, 0.1);
        assert!((quality_score(&p, &r, 0.0) - p.score(&r)).abs() < 1e-12);
    }

    #[test]
    fn positional_blocks_partition_the_selection() {
        let blocks = positional_blocks(&[9, 1, 5, 3, 7, 0, 2], 3);
        assert_eq!(blocks, vec![vec![0, 1, 2], vec![3, 5, 7], vec![9]]);
        let flat: Vec<usize> = blocks.into_iter().flatten().collect();
        assert_eq!(flat.len(), 7);
    }

    #[test]
    fn empty_run_reports_zero_ratio_not_nan() {
        let q = QualityResult {
            result: EpisodeResult {
                method: "x".into(),
                budget: 8,
                per_step_recall: vec![],
                per_step_error: vec![],
                per_step_selected: vec![],
                stats: PolicyStats::default(),
                reuse: Default::default(),
            },
            per_step_reconstruction_error: vec![],
            compression: CompressionConfig::int4(),
            exact_bytes: 0,
            compressed_bytes: 0,
            merged_pairs: 0,
        };
        assert_eq!(q.compression_ratio(), 0.0);
        assert!(!q.compression_ratio().is_nan());
    }
}
