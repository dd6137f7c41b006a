//! The token-selection policy interface.
//!
//! Every KV-cache compression method in this workspace — ClusterKV itself and
//! all baselines (Quest, InfiniGen, H2O, StreamingLLM, full attention) — is a
//! [`TokenSelector`]: an object attached to one attention head that observes
//! keys as they are produced and, at every decoding step, plans which token
//! indices participate in the approximated attention.
//!
//! Keys exist per **KV head**, and under grouped-query attention the `G`
//! query heads of a group attend the same keys. A policy whose state is a
//! function of the keys alone builds it once per KV head as a
//! [`GroupIndex`]: observed once, read by every head of the group, each
//! planning with its own query and scratch. The serving engine holds one
//! [`SelectorGroup`] per `(layer, kv_head)`, which is either that shared
//! index or — the default every baseline keeps — one independent
//! [`TokenSelector`] per query head.
//!
//! The interface is request/plan shaped so it composes with batched serving
//! ([`crate::serve::ServeEngine`]): the engine hands the selector a
//! [`SelectionRequest`] and receives a [`SelectionPlan`] that carries both
//! the token indices **and** the cost accounting of that single call. Stats
//! are values flowing through the decode loop — selectors do not accumulate
//! hidden counters the engine must scrape afterwards.

use clusterkv_kvcache::stats::{CacheStats, TransferStats};
use clusterkv_kvcache::types::Budget;
use clusterkv_tensor::kernels::Workspace;
use clusterkv_tensor::Matrix;
use serde::{Deserialize, Serialize};

pub use clusterkv_kvcache::cluster_cache::PageRequest;
pub use clusterkv_kvcache::prefix::SharedPrefixState;

/// Identity of the head a selector instance is attached to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HeadContext {
    /// Layer index.
    pub layer: usize,
    /// Query-head index within the layer.
    pub head: usize,
    /// Head dimensionality.
    pub head_dim: usize,
    /// KV head whose keys this query head attends (`head / group_size`).
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
    /// Host-to-device traffic caused by recalling KV: the session cluster
    /// cache's own counter, copied in by the cache's owner when it reports.
    pub transfer: TransferStats,
    /// Token hit/miss counts of the session's cluster cache, filled the same
    /// way.
    pub cache: CacheStats,
}

impl PolicyStats {
    /// Merge another accounting record into this one.
    pub fn merge(&mut self, other: &PolicyStats) {
        self.scored_vectors += other.scored_vectors;
        self.transfer.merge(&other.transfer);
        self.cache.merge(&other.cache);
    }
}

/// A key-production event observed by a selector.
///
/// Folds the former `on_prefill` / `on_append` callbacks into one explicit
/// event stream: the engine (or harness) feeds every selector the same
/// sequence of events it would see attached to a real attention head.
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
/// (Quest's page metadata, exact top-k, H2O, StreamingLLM) process each
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
/// for a single decoding step of a single head.
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
    /// eviction-style policies (StreamingLLM, H2O) whose retained working
    /// set never leaves the GPU, so nothing is ever recalled over PCIe.
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

    /// Mark the selected KV as paged *and* recalled through the compressed
    /// tier (DESIGN.md §9): the attention kernel substitutes the compressed
    /// representation for exactly the tokens the selector's
    /// [`page_members`](TokenSelector::page_members) lists for each page.
    pub fn with_compressed_pages(mut self, pages: Vec<PageRequest>) -> Self {
        self.residency = KvResidency::Compressed(pages);
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

/// A KV-cache token-selection policy attached to a single attention head.
///
/// The engine drives a selector through two entry points:
///
/// 1. [`observe`](TokenSelector::observe) — the prompt keys
///    ([`ObserveEvent::PrefillChunk`]s followed by one
///    [`ObserveEvent::PrefillDone`]; every chunking must leave
///    byte-identical state), then once per generated token with
///    [`ObserveEvent::Append`].
/// 2. [`plan`](TokenSelector::plan) — once per decoding step, returning the
///    indices `I_T` of the tokens to attend to together with the per-call
///    [`PolicyStats`].
///
/// Implementations must be deterministic for a fixed seed so experiments are
/// reproducible, and must keep independent state per instance so sessions
/// can be served concurrently.
pub trait TokenSelector: Send {
    /// Short human-readable method name ("ClusterKV", "Quest", ...).
    fn name(&self) -> &str;

    /// Observe a key-production event (prompt keys or an appended key).
    fn observe(&mut self, event: ObserveEvent<'_>);

    /// Plan the token set for one decoding step.
    fn plan(&mut self, request: SelectionRequest<'_>) -> SelectionPlan;

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

    /// Nominate pages likely to be demanded at the *next* decode step, for
    /// speculative staging (DESIGN.md §10). The serving engine calls this
    /// after [`plan`](TokenSelector::plan) within the same step, passing the
    /// same request; `lookahead_tokens` widens the budget the nomination may
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
        _request: SelectionRequest<'_>,
        _lookahead_tokens: usize,
    ) -> Vec<PageRequest> {
        Vec::new()
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

/// What a policy derives from the keys of one KV head, shared by the query
/// heads of its GQA group: observed **once** per key event, read immutably
/// by every head of the group during the parallel attention phase. Planning
/// takes the per-head mutable state as a caller-owned scratch
/// [`Workspace`], so the heads need no lock and no copy of the index.
pub trait GroupIndex: Send + Sync {
    /// Observe a key-production event of the KV head (same event stream and
    /// same chunking invariance as [`TokenSelector::observe`]).
    fn observe(&mut self, event: ObserveEvent<'_>);

    /// Plan one query head's token set for one decoding step.
    fn plan(&self, request: SelectionRequest<'_>, scratch: &mut Workspace) -> SelectionPlan;

    /// [`TokenSelector::prefetch_hint`] against the shared index. Must leave
    /// nothing behind in `scratch` that a later plan depends on.
    fn prefetch_hint(
        &self,
        _request: SelectionRequest<'_>,
        _lookahead_tokens: usize,
        _scratch: &mut Workspace,
    ) -> Vec<PageRequest> {
        Vec::new()
    }

    /// The full page decomposition of the index (see
    /// [`TokenSelector::page_table`]); the same for every head of the group.
    fn page_table(&self) -> KvResidency {
        KvResidency::Resident
    }

    /// Absolute token positions belonging to `page` (see
    /// [`TokenSelector::page_members`]).
    fn page_members(&self, _page: usize) -> &[usize] {
        &[]
    }

    /// A version of [`page_table`](GroupIndex::page_table): a value that
    /// never decreases and differs between any two states of the index whose
    /// tables (page ids, sizes or memberships) differ, so the engine can skip
    /// walking a table it has already settled. `None` (the default) promises
    /// nothing — the table counts as changed after every key event.
    fn page_table_version(&self) -> Option<u64> {
        None
    }

    /// Snapshot the post-`PrefillDone` state for caching in the
    /// cross-session [`PrefixStore`], keyed by this index's
    /// `(layer, kv_head)`. Called by the engine immediately after
    /// `PrefillDone`, before any decode append. Return `None` (the default)
    /// if the policy has no shareable prefill state.
    ///
    /// The returned fingerprint must commit to every configuration input the
    /// state depends on besides the observed token prefix, so
    /// [`adopt_prefill_state`] only accepts state this index would have
    /// computed itself.
    ///
    /// [`PrefixStore`]: clusterkv_kvcache::PrefixStore
    /// [`adopt_prefill_state`]: GroupIndex::adopt_prefill_state
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
    /// deterministic, adoption must leave the index byte-identical to having
    /// run `PrefillDone` itself (the prefix parity suite in
    /// `tests/serving.rs` enforces this).
    fn adopt_prefill_state(&mut self, _state: &SharedPrefixState, _total_tokens: usize) -> bool {
        false
    }
}

/// The selection state of one GQA group: the `G` query heads of a layer that
/// attend one KV head.
pub enum SelectorGroup {
    /// One independent selector per query head, each observing the KV
    /// head's keys itself (every baseline; any policy whose state depends on
    /// the queries it was asked about).
    PerHead(Vec<Box<dyn TokenSelector>>),
    /// One index over the KV head's keys and one scratch workspace per query
    /// head planning against it.
    Shared {
        /// The state every head of the group reads.
        index: Box<dyn GroupIndex>,
        /// Per-head planning scratch, in query-head order.
        scratch: Vec<Workspace>,
    },
}

impl SelectorGroup {
    /// A group of `group_size` query heads planning against one shared
    /// index.
    pub fn shared(index: Box<dyn GroupIndex>, group_size: usize) -> Self {
        SelectorGroup::Shared {
            index,
            scratch: (0..group_size).map(|_| Workspace::new()).collect(),
        }
    }

    /// Number of query heads in the group.
    pub fn group_size(&self) -> usize {
        match self {
            SelectorGroup::PerHead(heads) => heads.len(),
            SelectorGroup::Shared { scratch, .. } => scratch.len(),
        }
    }

    /// Deliver a key event of the group's KV head: once to a shared index,
    /// to every selector of a per-head group.
    pub fn observe(&mut self, event: ObserveEvent<'_>) {
        match self {
            SelectorGroup::PerHead(heads) => heads.iter_mut().for_each(|s| s.observe(event)),
            SelectorGroup::Shared { index, .. } => index.observe(event),
        }
    }

    /// The group's heads in query-head order, each ready to plan on its own
    /// thread: a shared index is borrowed immutably by all of them.
    pub fn heads(&mut self) -> impl Iterator<Item = HeadSelector<'_>> {
        let (own, shared) = match self {
            SelectorGroup::PerHead(heads) => (Some(heads.iter_mut()), None),
            SelectorGroup::Shared { index, scratch } => {
                (None, Some((&**index, scratch.iter_mut())))
            }
        };
        let own = own
            .into_iter()
            .flatten()
            .map(|selector| HeadSelector::Own(selector.as_mut()));
        let shared = shared.into_iter().flat_map(|(index, scratch)| {
            scratch.map(move |scratch| HeadSelector::Shared(index, scratch))
        });
        own.chain(shared)
    }

    /// Page decomposition seen by the group's `head`-th query head.
    pub fn page_table(&self, head: usize) -> KvResidency {
        match self {
            SelectorGroup::PerHead(heads) => heads[head].page_table(),
            SelectorGroup::Shared { index, .. } => index.page_table(),
        }
    }

    /// Members of a page of the `head`-th query head's table (see
    /// [`TokenSelector::page_members`]).
    pub fn page_members(&self, head: usize, page: usize) -> &[usize] {
        match self {
            SelectorGroup::PerHead(heads) => heads[head].page_members(page),
            SelectorGroup::Shared { index, .. } => index.page_members(page),
        }
    }

    /// [`GroupIndex::page_table_version`] of a shared index; the tables of
    /// a per-head group carry no version.
    pub(crate) fn page_table_version(&self) -> Option<u64> {
        match self {
            SelectorGroup::PerHead(_) => None,
            SelectorGroup::Shared { index, .. } => index.page_table_version(),
        }
    }

    /// The group's heads that own a page table: every head of a per-head
    /// group, the first alone when all read one shared index. Head `h` of
    /// the group reads the table of owner [`HeadSelector::table_owner`]`(h)`.
    pub fn table_owners(&self) -> std::ops::Range<usize> {
        match self {
            SelectorGroup::PerHead(heads) => 0..heads.len(),
            SelectorGroup::Shared { .. } => 0..1,
        }
    }

    /// [`GroupIndex::export_prefill_state`] of a shared index; per-head
    /// groups share nothing across sessions.
    pub fn export_prefill_state(&self) -> Option<SharedPrefixState> {
        match self {
            SelectorGroup::PerHead(_) => None,
            SelectorGroup::Shared { index, .. } => index.export_prefill_state(),
        }
    }

    /// [`GroupIndex::adopt_prefill_state`] of a shared index; per-head
    /// groups decline.
    pub fn adopt_prefill_state(&mut self, state: &SharedPrefixState, total_tokens: usize) -> bool {
        match self {
            SelectorGroup::PerHead(_) => false,
            SelectorGroup::Shared { index, .. } => index.adopt_prefill_state(state, total_tokens),
        }
    }
}

/// One query head's handle on its group's selection state for the duration
/// of a decode step's parallel phase.
pub enum HeadSelector<'a> {
    /// The head's own selector.
    Own(&'a mut dyn TokenSelector),
    /// The group's shared index plus this head's planning scratch.
    Shared(&'a dyn GroupIndex, &'a mut Workspace),
}

impl HeadSelector<'_> {
    /// Plan the head's token set for one decoding step.
    pub fn plan(&mut self, request: SelectionRequest<'_>) -> SelectionPlan {
        match self {
            HeadSelector::Own(selector) => selector.plan(request),
            HeadSelector::Shared(index, scratch) => index.plan(request, scratch),
        }
    }

    /// Nominate next-step pages (see [`TokenSelector::prefetch_hint`]).
    pub fn prefetch_hint(
        &mut self,
        request: SelectionRequest<'_>,
        lookahead_tokens: usize,
    ) -> Vec<PageRequest> {
        match self {
            HeadSelector::Own(selector) => selector.prefetch_hint(request, lookahead_tokens),
            HeadSelector::Shared(index, scratch) => {
                index.prefetch_hint(request, lookahead_tokens, scratch)
            }
        }
    }

    /// Members of a page the head's last plan named.
    pub fn page_members(&self, page: usize) -> &[usize] {
        match self {
            HeadSelector::Own(selector) => selector.page_members(page),
            HeadSelector::Shared(index, _) => index.page_members(page),
        }
    }

    /// Which head of the group owns the page table this head — the group's
    /// `head`-th — plans against (see [`SelectorGroup::table_owners`]).
    pub fn table_owner(&self, head: usize) -> usize {
        match self {
            HeadSelector::Own(_) => head,
            HeadSelector::Shared(..) => 0,
        }
    }
}

/// Factory creating the selection state of every head of a model.
pub trait SelectorFactory: Send + Sync {
    /// Method name, used in experiment output.
    fn name(&self) -> &str;

    /// Create a self-contained selector for one head (what single-head
    /// harnesses drive, and what [`create_group`](Self::create_group) builds
    /// per query head by default).
    fn create(&self, ctx: HeadContext) -> Box<dyn TokenSelector>;

    /// Create the selection state of one GQA group. `ctx` describes the
    /// group's first query head (`ctx.head == ctx.kv_head * ctx.group_size`);
    /// the group covers heads `ctx.head .. ctx.head + ctx.group_size`. The
    /// default builds one independent selector per query head; policies
    /// whose state is a function of the keys alone override it to hand the
    /// group one [`GroupIndex`].
    fn create_group(&self, ctx: HeadContext) -> SelectorGroup {
        SelectorGroup::PerHead(
            (ctx.head..ctx.head + ctx.group_size)
                .map(|head| self.create(HeadContext { head, ..ctx }))
                .collect(),
        )
    }
}

/// The trivial policy: attend to every previous token (no compression).
///
/// This is the "Full KV" configuration of the paper and also what the engine
/// uses for the first `dense_layers` layers of every method.
#[derive(Debug, Clone, Copy, Default)]
pub struct FullAttentionSelector;

impl TokenSelector for FullAttentionSelector {
    fn name(&self) -> &str {
        "FullKV"
    }

    fn observe(&mut self, _event: ObserveEvent<'_>) {}

    fn plan(&mut self, request: SelectionRequest<'_>) -> SelectionPlan {
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

/// Oracle policy: selects the exact top-`B` tokens by true attention weight.
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

    fn plan(&mut self, request: SelectionRequest<'_>) -> SelectionPlan {
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
        let plan = SelectionPlan::new(vec![0, 1, 5, 9]).with_compressed_pages(pages.clone());
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
        let plan = s.plan(SelectionRequest::new(&[0.0; 4], 10, Budget::new(2)));
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
        let plan = s.plan(SelectionRequest::new(&q, 4, Budget::new(2)));
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
        let plan = s.plan(SelectionRequest::new(
            &[1.0, 1.0, 1.0, 1.0],
            21,
            Budget::new(5),
        ));
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
        let plan = s.plan(SelectionRequest::new(
            &[1.0, 0.0, 0.0, 0.0],
            8,
            Budget::new(64),
        ));
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
        let a = mono.plan(SelectionRequest::new(&q, 21, Budget::new(5)));
        let b = chunked.plan(SelectionRequest::new(&q, 21, Budget::new(5)));
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
        let first = s.plan(SelectionRequest::new(
            &[1.0, 0.0, 0.0, 0.0],
            10,
            Budget::new(3),
        ));
        let second = s.plan(SelectionRequest::new(
            &[1.0, 0.0, 0.0, 0.0],
            10,
            Budget::new(3),
        ));
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
