//! Runs a selection policy over an [`Episode`] and records the quantities
//! the accuracy-style experiments need: recall of important tokens, attention
//! output error, selection sizes and the policy's accumulated cost
//! statistics (merged from the per-call [`SelectionPlan`]s) — plus the
//! deterministic open-loop [traffic generator](generate_traffic) the serving
//! experiments feed into `clusterkv_sched::Scheduler`.
//!
//! [`SelectionPlan`]: clusterkv_model::policy::SelectionPlan

use crate::semantic::Episode;
use clusterkv_kvcache::cluster_cache::ClusterCache;
use clusterkv_kvcache::types::{Budget, Bytes, HeadId, LayerId};
use clusterkv_kvcache::KvStore;
use clusterkv_model::attention::{
    attend_full, attend_selected, attention_output_error, AttentionOutput,
};
use clusterkv_model::policy::{
    observe_prompt, HeadContext, ObserveEvent, PolicyStats, SelectionPlan, SelectionRequest,
    SelectorFactory, TokenSelector,
};
use clusterkv_tensor::vector::top_k_indices;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// LRU stack-distance histogram of a policy's cluster (page) accesses.
///
/// The reuse distance of an access is the number of *distinct* pages the
/// policy requested since its previous request for the same page — the
/// classic stack distance, measured in pages. It characterizes the
/// workload, not any particular cache: an LRU cache holding `D` pages hits
/// exactly the accesses with distance < `D`, so the cumulative histogram
/// *is* the hit-rate-vs-capacity curve and predicts what the capacity
/// sweep then measures.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ReuseDistanceHistogram {
    /// `buckets[i]` counts accesses with stack distance in
    /// `[2^i - 1, 2^(i+1) - 1)` — i.e. bucket 0 is distance 0 (the page
    /// re-requested with nothing in between), bucket 1 is distances 1–2,
    /// bucket 2 is 3–6, and so on.
    pub buckets: Vec<u64>,
    /// First-touch accesses (no prior request for the page; infinite
    /// distance).
    pub cold: u64,
}

impl ReuseDistanceHistogram {
    /// Record one access; `None` marks a first touch.
    pub fn record(&mut self, distance: Option<usize>) {
        match distance {
            None => self.cold += 1,
            Some(d) => {
                let bucket = (usize::BITS - (d + 1).leading_zeros() - 1) as usize;
                if self.buckets.len() <= bucket {
                    self.buckets.resize(bucket + 1, 0);
                }
                self.buckets[bucket] += 1;
            }
        }
    }

    /// Total recorded accesses, first touches included.
    pub fn total(&self) -> u64 {
        self.cold + self.buckets.iter().sum::<u64>()
    }

    /// Fraction of all accesses with stack distance < `pages` — the hit
    /// rate an LRU cache holding `pages` whole pages would achieve on this
    /// trace. Conservative across bucket boundaries (a partially covered
    /// bucket does not count), and 0.0 for an empty histogram.
    pub fn hit_fraction_within(&self, pages: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        // Bucket i covers distances [2^i - 1, 2^(i+1) - 1): fully below
        // `pages` iff its upper end fits.
        let covered: u64 = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(i, _)| (1u128 << (i + 1)) - 1 <= pages as u128)
            .map(|(_, n)| n)
            .sum();
        covered as f64 / total as f64
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &ReuseDistanceHistogram) {
        self.cold += other.cold;
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }
}

/// Per-episode measurements of one policy at one budget.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpisodeResult {
    /// Policy name.
    pub method: String,
    /// Budget used.
    pub budget: usize,
    /// Recall of the true top-`B` tokens at every decoding step.
    pub per_step_recall: Vec<f64>,
    /// Relative attention-output error at every decoding step.
    pub per_step_error: Vec<f64>,
    /// Number of tokens selected at every step.
    pub per_step_selected: Vec<usize>,
    /// Policy statistics accumulated over every selection plan of the run
    /// (selection work, transfers, cache hits).
    pub stats: PolicyStats,
    /// Stack-distance histogram of the plans' page requests (empty for
    /// unpaged policies).
    pub reuse: ReuseDistanceHistogram,
}

impl EpisodeResult {
    /// Mean recall across steps (the Fig. 11 metric).
    pub fn mean_recall(&self) -> f64 {
        mean(&self.per_step_recall)
    }

    /// Mean relative attention-output error across steps.
    pub fn mean_error(&self) -> f64 {
        mean(&self.per_step_error)
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Run `selector` over `episode` with the given budget, without a GPU
/// cluster cache: every page a plan requests is charged as a PCIe recall
/// (the "no cache" / pure-offload configuration of §V-C).
pub fn run_episode(
    episode: &Episode,
    selector: &mut dyn TokenSelector,
    budget: Budget,
) -> EpisodeResult {
    let mut cache = ClusterCache::new(clusterkv_kvcache::cluster_cache::ClusterCacheConfig::new(
        Bytes(0),
        episode.config.head_dim,
    ));
    run_episode_cached(episode, selector, budget, &mut cache)
}

/// One decode step of [`drive_episode`] as its lane measures it: the plan
/// just made, and exact full attention over the store it was made against.
pub(crate) struct EpisodeStep<'a> {
    pub(crate) store: &'a KvStore,
    pub(crate) query: &'a [f32],
    pub(crate) plan: &'a SelectionPlan,
    pub(crate) full: &'a AttentionOutput,
}

/// The decode loop every evaluation lane shares, mirroring the engine's for
/// a single head: the selector observes the prefill keys, then at every
/// step plans the token set for the query, the recall of the exact top-`B`
/// set is measured against full attention, `measure` turns the step into
/// its attention-output error, and the step's generated key/value are
/// appended to both the store and the selector (so incremental clustering
/// and recallability across appended tokens are exercised). `settle` runs
/// after every key event the selector observed — where the engine settles
/// residency. Both closures work on the lane's own state `lane`; the result
/// carries the merged per-call plan statistics and no residency counters.
pub(crate) fn drive_episode<L>(
    episode: &Episode,
    selector: &mut dyn TokenSelector,
    budget: Budget,
    lane: &mut L,
    settle: impl Fn(&mut L, &dyn TokenSelector),
    measure: impl Fn(&mut L, &dyn TokenSelector, EpisodeStep<'_>) -> f64,
) -> EpisodeResult {
    let mut store = KvStore::new(episode.config.head_dim);
    store.append_batch(&episode.keys, &episode.values);
    observe_prompt(selector, &episode.keys);
    settle(lane, selector);

    let mut per_step_recall = Vec::with_capacity(episode.decode_steps());
    let mut per_step_error = Vec::with_capacity(episode.decode_steps());
    let mut per_step_selected = Vec::with_capacity(episode.decode_steps());
    let mut stats = PolicyStats::default();

    for step in 0..episode.decode_steps() {
        let query = &episode.queries[step];
        let n = store.len();
        let plan = selector.plan(SelectionRequest::new(query, n, budget));
        stats.merge(&plan.stats);
        per_step_selected.push(plan.indices.len());

        // Ground truth: the B tokens with the largest exact attention weights.
        let full = attend_full(&store, query);
        let truth: BTreeSet<usize> = top_k_indices(&full.weights, budget.tokens().min(n))
            .into_iter()
            .collect();
        let selected_set: BTreeSet<usize> = plan.indices.iter().copied().collect();
        let hit = truth.intersection(&selected_set).count();
        per_step_recall.push(if truth.is_empty() {
            1.0
        } else {
            hit as f64 / truth.len() as f64
        });
        per_step_error.push(measure(
            lane,
            selector,
            EpisodeStep {
                store: &store,
                query,
                plan: &plan,
                full: &full,
            },
        ));

        // Append the generated token and let the policy observe it.
        let position = store.len();
        store.append(&episode.decode_keys[step], &episode.decode_values[step]);
        selector.observe(ObserveEvent::Append {
            position,
            key: &episode.decode_keys[step],
        });
        settle(lane, selector);
    }

    EpisodeResult {
        method: selector.name().to_string(),
        budget: budget.tokens(),
        per_step_recall,
        per_step_error,
        per_step_selected,
        stats,
        reuse: ReuseDistanceHistogram::default(),
    }
}

/// Run `selector` over `episode` with the given budget, resolving each
/// plan's page requests against `cache` — the single-head analogue of the
/// serving engine's per-session residency tracking.
///
/// On top of the shared decode loop ([`run_episode_quality`] runs the same
/// one over compressed KV), never-offloaded pages are warm-admitted into the
/// cache after every key event while capacity allows, each plan's pages are
/// looked up in the cache (misses become transfers), and the attention error
/// is that of exact attention over the selected tokens. The per-call plan
/// statistics are merged into [`EpisodeResult::stats`]; its residency half
/// is `cache`'s own counters at the end of the run, so hand in a fresh cache
/// to read one episode's traffic.
///
/// [`run_episode_quality`]: crate::quality::run_episode_quality
pub fn run_episode_cached(
    episode: &Episode,
    selector: &mut dyn TokenSelector,
    budget: Budget,
    cache: &mut ClusterCache,
) -> EpisodeResult {
    const HARNESS_HEAD: (LayerId, HeadId) = (LayerId(0), HeadId(0));
    struct Lane<'a> {
        cache: &'a mut ClusterCache,
        reuse: ReuseDistanceHistogram,
        /// LRU stack for the reuse-distance measurement: most recently
        /// requested page last; an access's stack distance is how deep it
        /// sits from the top.
        lru_stack: Vec<usize>,
    }
    let mut lane = Lane {
        cache,
        reuse: ReuseDistanceHistogram::default(),
        lru_stack: Vec::new(),
    };
    let mut result = drive_episode(
        episode,
        selector,
        budget,
        &mut lane,
        // Paged and recall-compressed tables warm identically: admission is
        // always exact; demotion to the compressed tier happens under
        // eviction pressure (DESIGN.md §9). KV of freshly clustered pages
        // stays resident while capacity allows.
        |lane, selector| {
            if lane.cache.enabled() && !lane.cache.is_offloaded(HARNESS_HEAD.0, HARNESS_HEAD.1) {
                if let Some(pages) = selector.page_table().page_requests() {
                    lane.cache.warm(HARNESS_HEAD.0, HARNESS_HEAD.1, pages);
                }
            }
        },
        |lane, _, step| {
            if let Some(pages) = step.plan.residency.page_requests() {
                for request in pages {
                    match lane.lru_stack.iter().rposition(|&p| p == request.page) {
                        Some(pos) => {
                            lane.reuse.record(Some(lane.lru_stack.len() - 1 - pos));
                            lane.lru_stack.remove(pos);
                        }
                        None => lane.reuse.record(None),
                    }
                    lane.lru_stack.push(request.page);
                }
                lane.cache.access(HARNESS_HEAD.0, HARNESS_HEAD.1, pages);
            }
            let approx = attend_selected(step.store, step.query, &step.plan.indices);
            attention_output_error(&step.full.output, &approx.output) as f64
        },
    );
    // The cache counted every hit, miss and recalled byte of the run.
    result.stats.cache = lane.cache.stats();
    result.stats.transfer = lane.cache.transfers();
    result.reuse = lane.reuse;
    result
}

/// Configuration of the open-loop traffic generator.
///
/// Arrivals follow a seeded Poisson process (exponential interarrival gaps
/// at `arrival_rate` requests per modeled second); prompt and output lengths
/// are drawn uniformly from inclusive ranges; priorities cycle through
/// `priority_levels` classes deterministically. Everything is derived from
/// `seed`, so the same configuration always produces byte-identical traces —
/// the property the serving experiments and CI smoke rely on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrafficConfig {
    /// Number of requests in the trace.
    pub num_requests: usize,
    /// Mean arrival rate in requests per modeled second.
    pub arrival_rate: f64,
    /// Inclusive `(min, max)` prompt length in tokens.
    pub prompt_len: (usize, usize),
    /// Inclusive `(min, max)` generation length in tokens.
    pub output_len: (usize, usize),
    /// Vocabulary size prompt tokens are drawn from.
    pub vocab_size: usize,
    /// Number of priority classes (`0..priority_levels`); 1 ⇒ uniform.
    pub priority_levels: u32,
    /// Number of shared prompt templates (0 ⇒ every prompt is unique, the
    /// historical behavior). With `N > 0` each request prepends one of `N`
    /// fixed token templates — the "N system prompts × M users" traffic
    /// shape whose cross-session redundancy the engine's prefix store
    /// exploits.
    pub prefix_templates: usize,
    /// Inclusive `(min, max)` template length in tokens (ignored when
    /// `prefix_templates` is 0). Templates longer than a request's drawn
    /// prompt length are truncated to it, so the shared fraction of a trace
    /// is roughly `template_len / prompt_len`.
    pub template_len: (usize, usize),
    /// RNG seed.
    pub seed: u64,
}

impl TrafficConfig {
    /// A small mixed-length trace against the given vocabulary.
    pub fn new(num_requests: usize, arrival_rate: f64, vocab_size: usize) -> Self {
        Self {
            num_requests,
            arrival_rate,
            prompt_len: (16, 96),
            output_len: (4, 24),
            vocab_size,
            priority_levels: 1,
            prefix_templates: 0,
            template_len: (0, 0),
            seed: 0,
        }
    }

    /// Replace the prompt-length range.
    pub fn with_prompt_len(mut self, min: usize, max: usize) -> Self {
        self.prompt_len = (min, max);
        self
    }

    /// Replace the output-length range.
    pub fn with_output_len(mut self, min: usize, max: usize) -> Self {
        self.output_len = (min, max);
        self
    }

    /// Replace the number of priority classes.
    pub fn with_priority_levels(mut self, levels: u32) -> Self {
        self.priority_levels = levels;
        self
    }

    /// Replace the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Share prompt prefixes: each request prepends one of `templates`
    /// fixed token sequences whose lengths are drawn from the inclusive
    /// `(min_len, max_len)` range. Pass `templates = 0` to disable (the
    /// default — existing traces stay byte-identical).
    pub fn with_prefix_templates(
        mut self,
        templates: usize,
        min_len: usize,
        max_len: usize,
    ) -> Self {
        self.prefix_templates = templates;
        self.template_len = (min_len, max_len);
        self
    }
}

/// Generate a deterministic open-loop request trace (sorted by arrival).
///
/// # Panics
///
/// Panics if `arrival_rate` is not positive, a range is inverted, or
/// `priority_levels` is zero.
pub fn generate_traffic(config: &TrafficConfig) -> Vec<clusterkv_sched::Request> {
    assert!(config.arrival_rate > 0.0, "arrival_rate must be positive");
    assert!(
        config.prompt_len.0 >= 1 && config.prompt_len.0 <= config.prompt_len.1,
        "prompt_len range must be non-empty"
    );
    assert!(
        config.output_len.0 >= 1 && config.output_len.0 <= config.output_len.1,
        "output_len range must be non-empty"
    );
    assert!(
        config.priority_levels > 0,
        "need at least one priority class"
    );
    if config.prefix_templates > 0 {
        assert!(
            config.template_len.0 >= 1 && config.template_len.0 <= config.template_len.1,
            "template_len range must be non-empty"
        );
    }
    use rand::Rng;
    // Templates come from their own derived seed stream so enabling them
    // perturbs nothing about the base trace's rng draws (arrivals, lengths),
    // and `prefix_templates = 0` reproduces historical traces byte-for-byte.
    let templates: Vec<Vec<usize>> = {
        let mut trng =
            clusterkv_tensor::rng::seeded(clusterkv_tensor::rng::derive_seed(config.seed, 0x7e4a));
        (0..config.prefix_templates)
            .map(|_| {
                let len = trng.gen_range(config.template_len.0..config.template_len.1 + 1);
                (0..len)
                    .map(|_| trng.gen_range(0..config.vocab_size))
                    .collect()
            })
            .collect()
    };
    let content_seed = clusterkv_tensor::rng::derive_seed(config.seed, 0x7e4b);
    let mut rng = clusterkv_tensor::rng::seeded(config.seed);
    let mut clock = 0.0f64;
    (0..config.num_requests)
        .map(|i| {
            // Exponential interarrival gap via inverse transform (53-bit
            // uniform in [0, 1); `1 - u` keeps the ln argument positive).
            let u = (rng.gen::<u64>() >> 11) as f64 / (1u64 << 53) as f64;
            clock += -(1.0 - u).ln() / config.arrival_rate;
            let prompt_len = rng.gen_range(config.prompt_len.0..config.prompt_len.1 + 1);
            let output_len = rng.gen_range(config.output_len.0..config.output_len.1 + 1);
            let prompt: Vec<usize> = if templates.is_empty() {
                (0..prompt_len)
                    .map(|_| rng.gen_range(0..config.vocab_size))
                    .collect()
            } else {
                // Template head (truncated to the drawn prompt length),
                // unique tail — the per-user suffix after a shared system
                // prompt. Content comes from a per-request derived stream
                // so the main stream draws identically however many tokens
                // each template covers: traces that differ only in their
                // template parameters share arrivals and lengths exactly,
                // which lets the prefix experiments sweep the shared
                // fraction against a fixed arrival process.
                let mut crng = clusterkv_tensor::rng::seeded(clusterkv_tensor::rng::derive_seed(
                    content_seed,
                    i as u64,
                ));
                let template = &templates[crng.gen_range(0..templates.len())];
                let head = template.len().min(prompt_len);
                template[..head]
                    .iter()
                    .copied()
                    .chain((head..prompt_len).map(|_| crng.gen_range(0..config.vocab_size)))
                    .collect()
            };
            clusterkv_sched::Request {
                prompt,
                max_new_tokens: output_len,
                priority: i as u32 % config.priority_levels,
                arrival_time: clusterkv_kvcache::device::Seconds(clock),
                deadline: None,
            }
        })
        .collect()
}

/// Run one policy over the same episode at several budgets — one fresh
/// selector per budget, budgets fanned out across the thread pool (each
/// budget's run is an independent single-head simulation, so this is
/// embarrassingly parallel). Results come back in budget order and are
/// identical to calling [`run_episode`] per budget sequentially, at any
/// `RAYON_NUM_THREADS`; the experiment binaries (`fig09`, `fig11`) use this
/// to sweep budgets on multicore hosts.
pub fn run_budget_sweep(
    episode: &Episode,
    factory: &dyn SelectorFactory,
    ctx: HeadContext,
    budgets: &[usize],
) -> Vec<EpisodeResult> {
    budgets
        .par_iter()
        .with_min_len(1)
        .map(|&budget| {
            let mut selector = factory.create(ctx);
            run_episode(episode, selector.as_mut(), Budget::new(budget))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantic::EpisodeConfig;
    use clusterkv::{ClusterKvConfig, ClusterKvFactory};
    use clusterkv_model::policy::{FullAttentionSelector, OracleTopKSelector};

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

    #[test]
    fn full_attention_has_perfect_recall_and_zero_error() {
        let e = episode();
        let mut sel = FullAttentionSelector;
        let r = run_episode(&e, &mut sel, Budget::new(32));
        assert_eq!(r.per_step_recall.len(), 12);
        assert!((r.mean_recall() - 1.0).abs() < 1e-9);
        assert!(r.mean_error() < 1e-5);
        assert_eq!(r.method, "FullKV");
        assert_eq!(r.budget, 32);
    }

    #[test]
    fn oracle_topk_has_perfect_recall_under_budget() {
        let e = episode();
        let mut sel = OracleTopKSelector::new(32);
        let r = run_episode(&e, &mut sel, Budget::new(32));
        assert!((r.mean_recall() - 1.0).abs() < 1e-9);
        // Selecting the exact top-32 of ~200 tokens keeps the error moderate
        // (attention mass is concentrated on the focus topic's tokens).
        assert!(r.mean_error() < 0.7, "error {}", r.mean_error());
        assert!(r.per_step_selected.iter().all(|&s| s == 32));
    }

    #[test]
    fn recall_is_between_zero_and_one() {
        let e = episode();
        let mut sel = OracleTopKSelector::new(32);
        let r = run_episode(&e, &mut sel, Budget::new(16));
        for &rec in &r.per_step_recall {
            assert!((0.0..=1.0).contains(&rec));
        }
        for &err in &r.per_step_error {
            assert!(err >= 0.0);
        }
    }

    #[test]
    fn cached_and_uncached_runs_select_identically() {
        use clusterkv::{ClusterKvConfig, ClusterKvFactory};
        use clusterkv_model::policy::SelectorFactory;
        let e = episode();
        let factory = ClusterKvFactory::new(
            ClusterKvConfig::default()
                .with_sink_tokens(8)
                .with_tokens_per_cluster(16),
        );
        let ctx = clusterkv_model::policy::HeadContext::mha(2, 0, 32);
        let mut plain = factory.create(ctx);
        let uncached = run_episode(&e, plain.as_mut(), Budget::new(32));
        let mut cached_sel = factory.create(ctx);
        let mut cache = ClusterCache::new(
            clusterkv_kvcache::cluster_cache::ClusterCacheConfig::for_recency_window(4, 32, 32),
        );
        let cached = run_episode_cached(&e, cached_sel.as_mut(), Budget::new(32), &mut cache);
        // Residency changes accounting only, never selection or accuracy.
        assert_eq!(cached.per_step_selected, uncached.per_step_selected);
        assert_eq!(cached.per_step_recall, uncached.per_step_recall);
        assert_eq!(cached.stats.scored_vectors, uncached.stats.scored_vectors);
        // The uncached run recalls every selected page at every step; the
        // cached run hits and moves strictly fewer tokens.
        assert_eq!(uncached.stats.cache.hits, 0);
        assert!(cached.stats.cache.hits > 0);
        assert!(
            cached.stats.transfer.tokens_moved < uncached.stats.transfer.tokens_moved,
            "cache must reduce recall traffic"
        );
    }

    #[test]
    fn episode_stats_are_the_handed_caches_own_counters() {
        use clusterkv::{ClusterKvConfig, ClusterKvFactory};
        use clusterkv_kvcache::cluster_cache::ClusterCacheConfig;
        use clusterkv_model::policy::SelectorFactory;
        let e = episode();
        let factory = ClusterKvFactory::new(
            ClusterKvConfig::default()
                .with_sink_tokens(8)
                .with_tokens_per_cluster(16),
        );
        // With the cache on, and at capacity 0 (every selected page recalled
        // at every step).
        for config in [
            ClusterCacheConfig::for_recency_window(4, 32, 32),
            ClusterCacheConfig::new(Bytes(0), 32),
        ] {
            let mut selector = factory.create(HeadContext::mha(2, 0, 32));
            let mut cache = ClusterCache::new(config);
            let r = run_episode_cached(&e, selector.as_mut(), Budget::new(32), &mut cache);
            assert!(r.stats.cache.misses > 0, "the episode pages KV");
            assert_eq!(r.stats.cache.hits > 0, cache.enabled());
            assert_eq!(r.stats.cache, cache.stats());
            assert_eq!(r.stats.transfer, cache.transfers());
        }
    }

    #[test]
    fn resident_policies_never_touch_the_cache() {
        let e = episode();
        let mut sel = FullAttentionSelector;
        let mut cache = ClusterCache::new(
            clusterkv_kvcache::cluster_cache::ClusterCacheConfig::new(Bytes(1 << 20), 32),
        );
        let r = run_episode_cached(&e, &mut sel, Budget::new(32), &mut cache);
        assert_eq!(r.stats.cache.total(), 0);
        assert_eq!(r.stats.transfer.transfers, 0);
        assert_eq!(cache.resident_pages(), 0);
    }

    #[test]
    fn budget_sweep_matches_sequential_runs() {
        use clusterkv::{ClusterKvConfig, ClusterKvFactory};
        use clusterkv_model::policy::SelectorFactory;
        let e = episode();
        let factory = ClusterKvFactory::new(
            ClusterKvConfig::default()
                .with_sink_tokens(8)
                .with_tokens_per_cluster(16),
        );
        let ctx = HeadContext::mha(2, 0, 32);
        let budgets = [16usize, 32, 64];
        let swept = run_budget_sweep(&e, &factory, ctx, &budgets);
        assert_eq!(swept.len(), budgets.len());
        for (result, &budget) in swept.iter().zip(&budgets) {
            let mut selector = factory.create(ctx);
            let sequential = run_episode(&e, selector.as_mut(), Budget::new(budget));
            assert_eq!(result.budget, budget);
            assert_eq!(result.per_step_recall, sequential.per_step_recall);
            assert_eq!(result.per_step_selected, sequential.per_step_selected);
            assert_eq!(result.stats, sequential.stats);
        }
    }

    #[test]
    fn traffic_is_deterministic_and_in_bounds() {
        let cfg = TrafficConfig::new(40, 100.0, 128)
            .with_prompt_len(8, 24)
            .with_output_len(2, 6)
            .with_priority_levels(3)
            .with_seed(42);
        let a = generate_traffic(&cfg);
        let b = generate_traffic(&cfg);
        assert_eq!(a, b, "same seed must reproduce the trace exactly");
        assert_eq!(a.len(), 40);
        let mut last_arrival = 0.0;
        for (i, r) in a.iter().enumerate() {
            assert!((8..=24).contains(&r.prompt.len()));
            assert!((2..=6).contains(&r.max_new_tokens));
            assert!(r.prompt.iter().all(|&t| t < 128));
            assert_eq!(r.priority, i as u32 % 3);
            assert!(
                r.arrival_time.get() > last_arrival,
                "arrivals must be strictly increasing"
            );
            last_arrival = r.arrival_time.get();
        }
        // Mean interarrival ≈ 1/rate: with 40 samples just sanity-bound it.
        let mean_gap = last_arrival / 40.0;
        assert!(
            (0.2 / 100.0..5.0 / 100.0).contains(&mean_gap),
            "mean interarrival {mean_gap} implausible for rate 100"
        );
        // Different seeds and rates move the trace.
        assert_ne!(generate_traffic(&cfg.with_seed(43)), a);
        let slow = TrafficConfig {
            arrival_rate: 1.0,
            ..cfg
        };
        assert!(
            generate_traffic(&slow).last().unwrap().arrival_time > a.last().unwrap().arrival_time,
            "lower arrival rate must spread arrivals out"
        );
    }

    #[test]
    fn prefix_templates_shape_traffic_without_perturbing_base_traces() {
        let base = TrafficConfig::new(30, 100.0, 128)
            .with_prompt_len(12, 24)
            .with_output_len(2, 4)
            .with_seed(7);
        let plain = generate_traffic(&base);
        // Enabling zero templates is the identity.
        assert_eq!(
            generate_traffic(&base.with_prefix_templates(0, 1, 1)),
            plain
        );

        let templated = generate_traffic(&base.with_prefix_templates(2, 10, 10));
        assert_eq!(
            templated,
            generate_traffic(&base.with_prefix_templates(2, 10, 10)),
            "templated traces are deterministic too"
        );
        // Template parameters only replace prompt *content*: any two
        // configurations share the arrival process and length draws, so the
        // prefix experiments sweep the shared fraction against fixed
        // traffic.
        let other = generate_traffic(&base.with_prefix_templates(5, 4, 8));
        for (t, o) in templated.iter().zip(&other) {
            assert_eq!(t.arrival_time, o.arrival_time);
            assert_eq!(t.max_new_tokens, o.max_new_tokens);
            assert_eq!(t.prompt.len(), o.prompt.len());
            assert!(t.prompt.iter().all(|&tok| tok < 128));
        }
        // Every prompt starts with one of the two 10-token templates, and
        // both templates are actually used.
        let heads: std::collections::BTreeSet<Vec<usize>> = templated
            .iter()
            .map(|r| r.prompt[..10.min(r.prompt.len())].to_vec())
            .collect();
        assert_eq!(heads.len(), 2, "30 draws over 2 templates hit both");
    }

    #[test]
    fn traffic_feeds_the_scheduler() {
        use clusterkv_model::{ModelConfig, ServeEngine};
        use clusterkv_sched::{SchedConfig, Scheduler};
        let cfg = TrafficConfig::new(6, 2_000.0, 128)
            .with_prompt_len(6, 16)
            .with_output_len(2, 4)
            .with_seed(9);
        let engine = ServeEngine::builder(ModelConfig::tiny())
            .synthetic_weights(3)
            .budget(Budget::new(16))
            .policy(Box::new(clusterkv_model::policy::OracleTopKFactory))
            .build()
            .unwrap();
        let mut sched = Scheduler::new(engine, SchedConfig::fcfs(4)).unwrap();
        sched.submit_all(generate_traffic(&cfg)).unwrap();
        let report = sched.run().unwrap();
        assert_eq!(report.requests.len(), 6);
        assert!(report.total_generated >= 6 * 2);
    }

    #[test]
    fn mean_of_empty_result_is_zero() {
        let r = EpisodeResult {
            method: "x".into(),
            budget: 8,
            per_step_recall: vec![],
            per_step_error: vec![],
            per_step_selected: vec![],
            stats: PolicyStats::default(),
            reuse: ReuseDistanceHistogram::default(),
        };
        assert_eq!(r.mean_recall(), 0.0);
        assert_eq!(r.mean_error(), 0.0);
        assert_eq!(r.reuse.hit_fraction_within(64), 0.0, "empty, not NaN");
    }

    #[test]
    fn reuse_distance_buckets_and_cumulative_fraction() {
        let mut h = ReuseDistanceHistogram::default();
        // First touches are cold.
        h.record(None);
        h.record(None);
        // Distance 0 -> bucket 0, distances 1 and 2 -> bucket 1,
        // distance 3 -> bucket 2.
        h.record(Some(0));
        h.record(Some(1));
        h.record(Some(2));
        h.record(Some(3));
        assert_eq!(h.buckets, vec![1, 2, 1]);
        assert_eq!(h.cold, 2);
        assert_eq!(h.total(), 6);
        // A 1-page LRU hits only bucket 0; 3 pages covers bucket 1 too
        // (distances < 3); 7 pages covers bucket 2.
        assert_eq!(h.hit_fraction_within(1), 1.0 / 6.0);
        assert_eq!(h.hit_fraction_within(3), 3.0 / 6.0);
        assert_eq!(h.hit_fraction_within(7), 4.0 / 6.0);
        // Partially covered buckets do not count.
        assert_eq!(h.hit_fraction_within(2), 1.0 / 6.0);

        let mut other = ReuseDistanceHistogram::default();
        other.record(Some(10));
        h.merge(&other);
        assert_eq!(h.total(), 7);
        assert_eq!(h.buckets.len(), 4);
    }

    #[test]
    fn harness_measures_stack_distances_of_paged_plans() {
        let e = Episode::generate(
            EpisodeConfig::default()
                .with_context_len(256)
                .with_decode_steps(16)
                .with_seed(7),
        );
        let factory = ClusterKvFactory::new(ClusterKvConfig::default());
        let mut selector = factory.create(HeadContext::mha(0, 0, e.config.head_dim));
        let r = run_episode(&e, selector.as_mut(), Budget::new(32));
        assert!(r.reuse.total() > 0, "paged policy must record accesses");
        assert!(r.reuse.cold > 0, "every page is cold once");
        // Semantic locality: consecutive steps re-request most clusters, so
        // warm accesses exist and small stack distances dominate.
        assert!(r.reuse.total() > r.reuse.cold, "some reuse must occur");
        let close = r.reuse.hit_fraction_within(64);
        assert!(
            (0.0..=1.0).contains(&close),
            "cumulative fraction is a probability"
        );
    }
}
