//! The token-selection policy interface.
//!
//! Every KV-cache compression method in this workspace — ClusterKV itself and
//! all baselines (Quest, InfiniGen, H2O, full attention) — is a
//! [`TokenSelector`]: the selection state of one KV head of one layer, which
//! observes that head's keys as they are produced and, at every decoding
//! step, plans which token indices each query head reading it attends to.
//!
//! Keys exist per **KV head**, and under grouped-query attention the `G`
//! query heads of a group attend the same keys. So the serving engine holds
//! one selector per `(layer, kv_head)`: it observes every key event once and
//! plans for member head `h` of its group through
//! [`plan(h, …)`](TokenSelector::plan). A policy whose state is a function of
//! the keys alone (ClusterKV, Quest, InfiniGen, exact top-k, full attention)
//! keeps one state and ignores `h`; one whose state follows the queries it
//! was asked about (H2O's accumulated attention) keeps what it needs per
//! member head inside the one object.
//!
//! The interface is request/plan shaped so it composes with batched serving
//! ([`crate::serve::ServeEngine`]): the engine hands the selector a
//! [`SelectionRequest`] and receives a [`SelectionPlan`] that carries both
//! the token indices **and** the cost accounting of that single call. Stats
//! are values flowing through the decode loop — selectors do not accumulate
//! hidden counters the engine must scrape afterwards.

use clusterkv_kvcache::stats::CacheStats;
use clusterkv_kvcache::types::Budget;
use clusterkv_tensor::Matrix;
use serde::{Deserialize, Serialize};

pub use clusterkv_kvcache::cluster_cache::PageRequest;
pub use clusterkv_kvcache::prefix::SharedPrefixState;

/// Identity of the GQA group a selector instance serves: one KV head of one
/// layer and the query heads that attend it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HeadContext {
    /// Layer index.
    pub layer: usize,
    /// The group's first query head within the layer
    /// (`kv_head * group_size`); the group covers query heads
    /// `head .. head + group_size`, its member `h` being query head
    /// `head + h`.
    pub head: usize,
    /// Head dimensionality.
    pub head_dim: usize,
    /// The KV head whose keys the group attends.
    pub kv_head: usize,
    /// Query heads per KV head (`G`; 1 for multi-head attention).
    pub group_size: usize,
}

impl HeadContext {
    /// A head of a multi-head-attention layout: it is its own KV head, in a
    /// group of one. What single-head harnesses and benches attach to.
    pub fn mha(layer: usize, head: usize, head_dim: usize) -> Self {
        Self {
            layer,
            head,
            head_dim,
            kv_head: head,
            group_size: 1,
        }
    }
}

/// Per-call cost accounting reported inside a [`SelectionPlan`], consumed by
/// the analytical latency model ([`crate::latency::LatencyModel`]) and
/// aggregated per session by the serving engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PolicyStats {
    /// Number of `d`-dimensional vectors scored against the query during
    /// selection (centroids for ClusterKV, page representations for Quest,
    /// all partial keys for InfiniGen, all keys for exact top-k).
    pub scored_vectors: u64,
    /// Token hit/miss counts of the session's cluster cache and the bytes
    /// its misses recalled over PCIe: the cache's own `stats()`, copied in
    /// by the cache's owner when it reports.
    pub cache: CacheStats,
}

impl PolicyStats {
    /// Merge another accounting record into this one.
    pub fn merge(&mut self, other: &PolicyStats) {
        self.scored_vectors += other.scored_vectors;
        self.cache.merge(&other.cache);
    }
}

/// A key-production event observed by a selector.
///
/// One explicit event stream, so the engine and the single-head harness
/// drive a selector identically: each feeds every selector the same
/// sequence of events its KV head produces.
///
/// Prompt keys arrive as a contiguous run of
/// [`PrefillChunk`](ObserveEvent::PrefillChunk) events starting at position
/// 0, followed by exactly one [`PrefillDone`](ObserveEvent::PrefillDone) —
/// so a scheduler can interleave the chunks of one session's prompt with
/// other sessions' decode steps. A single-head harness that holds the whole
/// prompt emits one chunk and the seal through [`observe_prompt`].
///
/// Implementations **must** leave the selector in a byte-identical state
/// however the same keys were chunked: naturally incremental policies
/// (Quest's page metadata, exact top-k, H2O) process each
/// chunk as it arrives, while policies whose prefill pass is global
/// (ClusterKV's semantic clustering, InfiniGen's key-subspace SVD) buffer
/// the chunks and run it on `PrefillDone`. The chunked-prefill parity suite
/// in `tests/serving.rs` enforces this for every shipped policy.
#[derive(Debug, Clone, Copy)]
pub enum ObserveEvent<'a> {
    /// One contiguous chunk of prompt keys, observed as soon as the chunk's
    /// tokens have been forwarded. Chunks of one prompt arrive in order and
    /// without gaps (`start` equals the number of prompt keys observed so
    /// far).
    PrefillChunk {
        /// Absolute position of the chunk's first token.
        start: usize,
        /// The chunk's post-RoPE keys, one row per token position.
        keys: &'a Matrix,
    },
    /// The prompt is complete: no further [`PrefillChunk`]s will arrive.
    /// Policies that buffered chunks run their global prefill pass here.
    ///
    /// [`PrefillChunk`]: ObserveEvent::PrefillChunk
    PrefillDone {
        /// Total prompt length (the sum of all chunk lengths).
        total_tokens: usize,
    },
    /// The key of a newly generated token, observed once per decoding step.
    Append {
        /// Absolute position of the new token.
        position: usize,
        /// Post-RoPE key of the new token.
        key: &'a [f32],
    },
}

/// One selection request: everything a selector needs to plan the token set
/// of a single query head for a single decoding step.
#[derive(Debug, Clone, Copy)]
pub struct SelectionRequest<'a> {
    /// The post-RoPE query vector of the current step.
    pub query: &'a [f32],
    /// Current context length (prompt + generated so far).
    pub num_tokens: usize,
    /// Token budget `B` the plan must respect.
    pub budget: Budget,
}

impl<'a> SelectionRequest<'a> {
    /// Build a request.
    pub fn new(query: &'a [f32], num_tokens: usize, budget: Budget) -> Self {
        Self {
            query,
            num_tokens,
            budget,
        }
    }
}

/// How the KV selected by a plan is materialised on the GPU (DESIGN.md §3,
/// §9).
///
/// With recall-exact residency ([`Resident`](KvResidency::Resident) /
/// [`Paged`](KvResidency::Paged)), residency affects accounting and modeled
/// latency only — never which tokens are attended. The serving stack's
/// parity suite enforces that token streams are byte-identical whatever the
/// cache configuration. [`Compressed`](KvResidency::Compressed) residency is
/// the deliberate exception: paged KV is attended through its compressed
/// representation, trading bounded accuracy for memory. Selectors only emit
/// it under a lossy
/// [`CompressionConfig`](clusterkv_kvcache::CompressionConfig), so lossless
/// configurations keep the byte-parity guarantee.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum KvResidency {
    /// All selected KV is permanently GPU resident: full attention, and
    /// eviction-style policies (H2O) whose retained working set never
    /// leaves the GPU, so nothing is ever recalled over PCIe.
    #[default]
    Resident,
    /// The selected KV is paged at the policy's own granularity (clusters
    /// for ClusterKV, positional pages for Quest, single tokens for
    /// InfiniGen) and must be looked up in the session's
    /// [`ClusterCache`](clusterkv_kvcache::cluster_cache::ClusterCache);
    /// misses are recalled from CPU memory. Recall is exact.
    Paged(Vec<PageRequest>),
    /// The selected KV is paged *and* recalled through the compressed tier:
    /// member tokens of each page — [`TokenSelector::page_members`] names
    /// them — are attended via their SLERP-merged, quantized representation
    /// (DESIGN.md §9), which the engine builds once per page of the
    /// selector's [`page_table`](TokenSelector::page_table) — so every page
    /// a plan names must be in that table. Tokens outside every page (sinks,
    /// pending tokens, the token being generated) stay exact.
    Compressed(Vec<PageRequest>),
}

impl KvResidency {
    /// The cache-level page requests of a paged or compressed plan; `None`
    /// for resident plans.
    pub fn page_requests(&self) -> Option<&[PageRequest]> {
        match self {
            KvResidency::Resident => None,
            KvResidency::Paged(pages) | KvResidency::Compressed(pages) => Some(pages),
        }
    }
}

/// The outcome of one [`TokenSelector::plan`] call: the token indices to
/// attend to plus the cost accounting of exactly this call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelectionPlan {
    /// Token indices to attend to. Unique, each in `0..num_tokens`, at most
    /// `budget.tokens()` unless the policy is exempt from the budget (full
    /// attention). Order does not matter to the attention computation.
    ///
    /// Note: during decoding the engine additionally forces the token being
    /// generated into the attended set (its KV was just produced on the GPU
    /// and is not subject to selection), so the attention of a decode step
    /// may cover `budget.tokens() + 1` tokens when the plan omits the
    /// current position.
    pub indices: Vec<usize>,
    /// Selection work reported by the policy for this call only. The
    /// residency outcome (cache hits, transfers) is filled in by whoever
    /// owns the session's cluster cache — the serving engine or the episode
    /// harness — before the stats are aggregated.
    pub stats: PolicyStats,
    /// How the selected KV is materialised on the GPU.
    pub residency: KvResidency,
}

impl SelectionPlan {
    /// Plan attending to the given indices, with zeroed stats and trivially
    /// resident KV.
    pub fn new(indices: Vec<usize>) -> Self {
        Self {
            indices,
            stats: PolicyStats::default(),
            residency: KvResidency::Resident,
        }
    }

    /// Plan attending to the whole context (`0..num_tokens`), with zeroed
    /// stats — what every policy returns when the budget covers the context.
    pub fn full(num_tokens: usize) -> Self {
        Self::new((0..num_tokens).collect())
    }

    /// Attach per-call stats.
    pub fn with_stats(mut self, stats: PolicyStats) -> Self {
        self.stats = stats;
        self
    }

    /// Mark the selected KV as paged through the session's cluster cache at
    /// the given page decomposition.
    pub fn with_pages(mut self, pages: Vec<PageRequest>) -> Self {
        self.residency = KvResidency::Paged(pages);
        self
    }

    /// Number of selected tokens.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether nothing was selected.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }
}

/// The selection state of one KV head of one layer, planning for each query
/// head of its GQA group.
///
/// The engine drives a selector through two entry points:
///
/// 1. [`observe`](TokenSelector::observe) — once per key event of the KV
///    head, however many query heads read it: the prompt keys
///    ([`ObserveEvent::PrefillChunk`]s followed by one
///    [`ObserveEvent::PrefillDone`]; every chunking must leave
///    byte-identical state), then once per generated token with
///    [`ObserveEvent::Append`].
/// 2. [`plan`](TokenSelector::plan) — once per decoding step for each member
///    head of the group, in head order, returning the indices `I_T` of the
///    tokens that head attends to together with the per-call
///    [`PolicyStats`].
///
/// The group has one page table ([`page_table`](TokenSelector::page_table),
/// [`page_members`](TokenSelector::page_members)) and one prefill state to
/// share across sessions. Implementations must be deterministic for a fixed
/// seed so experiments are reproducible, and must keep independent state
/// per instance so sessions can be served concurrently.
pub trait TokenSelector: Send {
    /// Short human-readable method name ("ClusterKV", "Quest", ...).
    fn name(&self) -> &str;

    /// Observe a key-production event of the KV head (prompt keys or an
    /// appended key).
    fn observe(&mut self, event: ObserveEvent<'_>);

    /// Plan the token set of member head `head` (`0..group_size`) of the
    /// group for one decoding step. Whatever scratch the plan uses is the
    /// selector's own, reused by every head in turn.
    fn plan(&mut self, head: usize, request: SelectionRequest<'_>) -> SelectionPlan;

    /// The full page decomposition of this selector's current state, used by
    /// the serving stack to warm the GPU cluster cache with pages whose KV
    /// was just produced on-device (prefill clustering, incremental decode
    /// clustering) while capacity allows. Policies whose KV never pages
    /// return [`KvResidency::Resident`] (the default).
    fn page_table(&self) -> KvResidency {
        KvResidency::Resident
    }

    /// Absolute token positions belonging to `page` — read by whoever
    /// compresses the pages [`KvResidency::Compressed`] plans name: the
    /// engine, once per page of the [`page_table`](TokenSelector::page_table)
    /// after the key event that created the page, and again only when the
    /// table reports the page at a different size. So a page that keeps its
    /// size must keep its members (clusters never change once sealed;
    /// positional pages only grow). A slice into state the selector already
    /// keeps, so neither a plan nor the table copies memberships. Selectors
    /// that emit no compressed plans keep the default (no members).
    fn page_members(&self, _page: usize) -> &[usize] {
        &[]
    }

    /// A version of [`page_table`](TokenSelector::page_table): a value that
    /// never decreases and differs between any two states of the selector
    /// whose tables (page ids, sizes or memberships) differ, so the engine
    /// can skip walking a table it has already settled. `None` (the default)
    /// promises nothing — the table counts as changed after every key event.
    fn page_table_version(&self) -> Option<u64> {
        None
    }

    /// Nominate pages likely to be demanded by member head `head` at the
    /// *next* decode step, for speculative staging (DESIGN.md §10). The
    /// serving engine calls this after the head's
    /// [`plan`](TokenSelector::plan) within the same step, passing the same
    /// request; `lookahead_tokens` widens the budget the nomination may
    /// assume (scoring stays as cheap as the plan's own centroid pass — the
    /// greedy-fill superset property makes the widened selection a superset
    /// of the step's, so the extra pages are exactly the marginal
    /// candidates).
    ///
    /// Implementations **must not** mutate any state that a later
    /// [`plan`](TokenSelector::plan) or
    /// [`observe`](TokenSelector::observe) depends on: prefetch changes
    /// *when* bytes move, never what attends. The default declines to
    /// speculate.
    fn prefetch_hint(
        &mut self,
        _head: usize,
        _request: SelectionRequest<'_>,
        _lookahead_tokens: usize,
    ) -> Vec<PageRequest> {
        Vec::new()
    }

    /// Snapshot the post-`PrefillDone` state for caching in the
    /// cross-session [`PrefixStore`], keyed by this selector's
    /// `(layer, kv_head)`. Called by the engine immediately after
    /// `PrefillDone`, before any decode append. Return `None` (the default)
    /// if the policy has no shareable prefill state.
    ///
    /// The returned fingerprint must commit to every configuration input the
    /// state depends on besides the observed token prefix, so
    /// [`adopt_prefill_state`] only accepts state this selector would have
    /// computed itself.
    ///
    /// [`PrefixStore`]: clusterkv_kvcache::PrefixStore
    /// [`adopt_prefill_state`]: TokenSelector::adopt_prefill_state
    fn export_prefill_state(&self) -> Option<SharedPrefixState> {
        None
    }

    /// Adopt a cached prefill snapshot instead of running the global
    /// `PrefillDone` pass, discarding any buffered chunk keys. Returns `true`
    /// if the state was adopted (the engine then skips `PrefillDone` for this
    /// KV head); `false` (the default) to decline — e.g. on a fingerprint
    /// mismatch — in which case `PrefillDone` runs normally.
    ///
    /// Because the cached state was exported after an identical token prefix
    /// under an identical configuration and the prefill pass is
    /// deterministic, adoption must leave the selector byte-identical to
    /// having run `PrefillDone` itself (the prefix parity suite in
    /// `tests/serving.rs` enforces this).
    fn adopt_prefill_state(&mut self, _state: &SharedPrefixState, _total_tokens: usize) -> bool {
        false
    }
}

/// Hand a selector a whole prompt's keys at once: one
/// [`PrefillChunk`](ObserveEvent::PrefillChunk) at position 0, then
/// [`PrefillDone`](ObserveEvent::PrefillDone).
pub fn observe_prompt(selector: &mut (impl TokenSelector + ?Sized), keys: &Matrix) {
    selector.observe(ObserveEvent::PrefillChunk { start: 0, keys });
    selector.observe(ObserveEvent::PrefillDone {
        total_tokens: keys.rows(),
    });
}

/// Factory creating the selection state of every KV head of a model.
pub trait SelectorFactory: Send + Sync {
    /// Method name, used in experiment output.
    fn name(&self) -> &str;

    /// Create the selector of the GQA group `ctx` describes: KV head
    /// `ctx.kv_head` of layer `ctx.layer`, read by query heads
    /// `ctx.head .. ctx.head + ctx.group_size`. A single-head harness asks
    /// for a group of one ([`HeadContext::mha`]).
    fn create(&self, ctx: HeadContext) -> Box<dyn TokenSelector>;

    /// Check the factory's configuration, so an engine rejects a policy it
    /// could not run with [`EngineError::InvalidConfig`] before building any
    /// selector. The default accepts.
    ///
    /// [`EngineError::InvalidConfig`]: crate::serve::EngineError::InvalidConfig
    fn validate(&self) -> Result<(), String> {
        Ok(())
    }
}

/// The trivial policy: attend to every previous token (no compression).
///
/// This is the "Full KV" configuration of the paper. The engine's first
/// `dense_layers` layers attend the same way without holding a selector.
#[derive(Debug, Clone, Copy, Default)]
pub struct FullAttentionSelector;

impl TokenSelector for FullAttentionSelector {
    fn name(&self) -> &str {
        "FullKV"
    }

    fn observe(&mut self, _event: ObserveEvent<'_>) {}

    fn plan(&mut self, _head: usize, request: SelectionRequest<'_>) -> SelectionPlan {
        SelectionPlan::full(request.num_tokens)
    }
}

/// Factory for [`FullAttentionSelector`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FullAttentionFactory;

impl SelectorFactory for FullAttentionFactory {
    fn name(&self) -> &str {
        "FullKV"
    }

    fn create(&self, _ctx: HeadContext) -> Box<dyn TokenSelector> {
        Box::new(FullAttentionSelector)
    }
}

/// Oracle policy: selects the exact top-`B` tokens by true attention weight
/// — a function of the KV head's keys, so one instance serves its group.
///
/// Not a practical method (it scores every key, which is what compression is
/// trying to avoid) but it provides the `I_T^true` reference set used by the
/// recall-rate experiments (Fig. 11) and an upper bound for accuracy.
#[derive(Debug, Clone, Default)]
pub struct OracleTopKSelector {
    keys: Matrix,
}

impl OracleTopKSelector {
    /// New oracle selector for vectors of the given dimensionality.
    pub fn new(head_dim: usize) -> Self {
        Self {
            keys: Matrix::zeros(0, head_dim),
        }
    }
}

impl TokenSelector for OracleTopKSelector {
    fn name(&self) -> &str {
        "OracleTopK"
    }

    fn observe(&mut self, event: ObserveEvent<'_>) {
        match event {
            // Exact top-k is naturally incremental: every chunk just appends
            // rows, so no reconcile step is needed.
            ObserveEvent::PrefillChunk { keys, .. } => {
                for row in keys.iter_rows() {
                    self.keys
                        .push_row(row)
                        .expect("prefill key dims consistent");
                }
            }
            ObserveEvent::PrefillDone { total_tokens } => {
                debug_assert_eq!(
                    total_tokens,
                    self.keys.rows(),
                    "chunks must cover the prompt"
                );
            }
            ObserveEvent::Append { key, .. } => {
                self.keys.push_row(key).expect("append key dims consistent");
            }
        }
    }

    fn plan(&mut self, _head: usize, request: SelectionRequest<'_>) -> SelectionPlan {
        let n = request.num_tokens.min(self.keys.rows());
        if request.budget.covers(n) {
            return SelectionPlan::full(n);
        }
        let scores: Vec<f32> = (0..n)
            .map(|i| clusterkv_tensor::vector::dot(self.keys.row(i), request.query))
            .collect();
        let indices = clusterkv_tensor::vector::top_k_indices(&scores, request.budget.tokens());
        SelectionPlan::new(indices).with_stats(PolicyStats {
            scored_vectors: n as u64,
            ..PolicyStats::default()
        })
    }
}

/// Factory for [`OracleTopKSelector`].
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleTopKFactory;

impl SelectorFactory for OracleTopKFactory {
    fn name(&self) -> &str {
        "OracleTopK"
    }

    fn create(&self, ctx: HeadContext) -> Box<dyn TokenSelector> {
        Box::new(OracleTopKSelector::new(ctx.head_dim))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys_matrix(n: usize, dim: usize) -> Matrix {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                (0..dim)
                    .map(|d| ((i * 31 + d * 7) % 13) as f32 - 6.0)
                    .collect()
            })
            .collect();
        Matrix::from_rows(rows).unwrap()
    }

    #[test]
    fn compressed_residency_exposes_inner_page_requests() {
        let pages = vec![PageRequest::new(3, 3), PageRequest::new(7, 1)];
        let plan = SelectionPlan {
            residency: KvResidency::Compressed(pages.clone()),
            ..SelectionPlan::new(vec![0, 1, 5, 9])
        };
        assert!(matches!(plan.residency, KvResidency::Compressed(_)));
        assert_eq!(plan.residency.page_requests(), Some(pages.as_slice()));
        assert_eq!(KvResidency::Resident.page_requests(), None);
        assert_eq!(
            KvResidency::Paged(vec![PageRequest::new(1, 2)]).page_requests(),
            Some([PageRequest::new(1, 2)].as_slice())
        );
    }

    #[test]
    fn full_attention_selects_everything() {
        let mut s = FullAttentionSelector;
        let plan = s.plan(0, SelectionRequest::new(&[0.0; 4], 10, Budget::new(2)));
        assert_eq!(plan.indices, (0..10).collect::<Vec<_>>());
        assert_eq!(plan.stats, PolicyStats::default());
        assert_eq!(s.name(), "FullKV");
        assert_eq!(FullAttentionFactory.name(), "FullKV");
    }

    #[test]
    fn oracle_returns_true_top_k() {
        let mut s = OracleTopKSelector::new(2);
        let keys = Matrix::from_rows(vec![
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![5.0, 0.0],
            vec![-1.0, 0.0],
        ])
        .unwrap();
        observe_prompt(&mut s, &keys);
        let q = [1.0, 0.0];
        let plan = s.plan(0, SelectionRequest::new(&q, 4, Budget::new(2)));
        assert_eq!(plan.len(), 2);
        assert!(plan.indices.contains(&2)); // score 5
        assert!(plan.indices.contains(&0)); // score 1
    }

    #[test]
    fn oracle_respects_budget_and_appends() {
        let ctx = HeadContext::mha(0, 0, 4);
        let mut s = OracleTopKFactory.create(ctx);
        observe_prompt(s.as_mut(), &keys_matrix(20, 4));
        s.observe(ObserveEvent::Append {
            position: 20,
            key: &[9.0, 9.0, 9.0, 9.0],
        });
        let plan = s.plan(
            0,
            SelectionRequest::new(&[1.0, 1.0, 1.0, 1.0], 21, Budget::new(5)),
        );
        assert_eq!(plan.len(), 5);
        assert!(
            plan.indices.contains(&20),
            "strongly aligned appended key must be selected"
        );
        assert_eq!(plan.stats.scored_vectors, 21, "per-call scoring work");
    }

    #[test]
    fn oracle_with_budget_covering_context_returns_all() {
        let mut s = OracleTopKSelector::new(4);
        observe_prompt(&mut s, &keys_matrix(8, 4));
        let plan = s.plan(
            0,
            SelectionRequest::new(&[1.0, 0.0, 0.0, 0.0], 8, Budget::new(64)),
        );
        assert_eq!(plan.indices, (0..8).collect::<Vec<_>>());
        assert_eq!(
            plan.stats.scored_vectors, 0,
            "covered context is not scored"
        );
    }

    #[test]
    fn oracle_chunked_prefill_matches_monolithic() {
        let full = keys_matrix(21, 4);
        let mut mono = OracleTopKSelector::new(4);
        observe_prompt(&mut mono, &full);
        let mut chunked = OracleTopKSelector::new(4);
        let mut start = 0;
        for len in [1usize, 7, 13] {
            let chunk =
                Matrix::from_rows((start..start + len).map(|i| full.row(i).to_vec()).collect())
                    .unwrap();
            chunked.observe(ObserveEvent::PrefillChunk {
                start,
                keys: &chunk,
            });
            start += len;
        }
        chunked.observe(ObserveEvent::PrefillDone { total_tokens: 21 });
        let q = [1.0, -0.5, 0.25, 2.0];
        let a = mono.plan(0, SelectionRequest::new(&q, 21, Budget::new(5)));
        let b = chunked.plan(0, SelectionRequest::new(&q, 21, Budget::new(5)));
        assert_eq!(a, b, "chunked prefill must reproduce monolithic state");
    }

    #[test]
    fn policy_stats_merge_accumulates() {
        let mut a = PolicyStats {
            scored_vectors: 5,
            ..Default::default()
        };
        let b = PolicyStats {
            scored_vectors: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.scored_vectors, 12);
    }

    #[test]
    fn plans_are_values_not_hidden_state() {
        // Two consecutive plans report independent per-call stats; the
        // caller, not the selector, owns aggregation.
        let mut s = OracleTopKSelector::new(4);
        observe_prompt(&mut s, &keys_matrix(10, 4));
        let first = s.plan(
            0,
            SelectionRequest::new(&[1.0, 0.0, 0.0, 0.0], 10, Budget::new(3)),
        );
        let second = s.plan(
            0,
            SelectionRequest::new(&[1.0, 0.0, 0.0, 0.0], 10, Budget::new(3)),
        );
        assert_eq!(first.stats.scored_vectors, 10);
        assert_eq!(second.stats.scored_vectors, 10);
        let mut total = PolicyStats::default();
        total.merge(&first.stats);
        total.merge(&second.stats);
        assert_eq!(total.scored_vectors, 20);
    }

    #[test]
    fn selection_plan_helpers() {
        let plan = SelectionPlan::full(4);
        assert_eq!(plan.len(), 4);
        assert!(!plan.is_empty());
        assert!(SelectionPlan::new(Vec::new()).is_empty());
    }

    #[test]
    fn selectors_are_object_safe_and_send() {
        fn assert_send<T: Send>(_: &T) {}
        let boxed: Box<dyn TokenSelector> = Box::new(FullAttentionSelector);
        assert_send(&boxed);
    }
}
