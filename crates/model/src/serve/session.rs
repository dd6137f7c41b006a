//! The engine's lifecycle: the builder, errors, session creation,
//! inspection and release, and the report a released session leaves.

use super::{Model, ServeEngine, SessionPhase, SessionState};
use crate::config::ModelConfig;
use crate::latency::LatencyModel;
use crate::policy::{HeadContext, PolicyStats, SelectorFactory, TokenSelector};
use crate::prefetch::PrefetchConfig;
use crate::residency::Residency;
use crate::rope::Rope;
use crate::weights::ModelWeights;
use clusterkv_faults::{FaultInjector, FaultPlan, IntegrityStats};
use clusterkv_kvcache::compressed::CompressionConfig;
use clusterkv_kvcache::device::{DeviceModel, Seconds};
use clusterkv_kvcache::prefix::{PrefixStore, PrefixStoreConfig, PrefixStoreStats};
use clusterkv_kvcache::stats::{CompressionStats, PrefetchStats};
use clusterkv_kvcache::types::{Budget, Bytes};
use clusterkv_kvcache::KvStore;
use clusterkv_tensor::kernels::Workspace;
use std::collections::BTreeMap;

/// Default cap on concurrently resident sessions.
pub const DEFAULT_MAX_SESSIONS: usize = 256;

/// Errors produced by the serving engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The model configuration failed validation.
    InvalidConfig(String),
    /// A token id was outside the vocabulary.
    TokenOutOfVocab {
        /// The offending token id.
        token: usize,
        /// The vocabulary size.
        vocab: usize,
    },
    /// The context window was exceeded.
    ContextOverflow {
        /// Requested context length.
        requested: usize,
        /// Maximum supported context length.
        max: usize,
    },
    /// Decoding was attempted before prefill.
    NotPrefilled,
    /// Prefill was attempted twice on the same session.
    AlreadyPrefilled,
    /// The prompt was empty.
    EmptyPrompt,
    /// An empty chunk was submitted to [`ServeEngine::prefill_chunk`]
    /// (distinct from [`EmptyPrompt`](EngineError::EmptyPrompt): the session
    /// keeps accepting non-empty chunks).
    EmptyChunk,
    /// A prompt chunk was submitted after [`ServeEngine::finish_prefill`]
    /// sealed the prompt.
    PrefillSealed,
    /// The session id is not (or no longer) resident in the engine.
    UnknownSession(SessionId),
    /// The engine is at its session capacity.
    SessionLimitReached {
        /// The configured maximum number of resident sessions.
        max: usize,
    },
    /// `create_session` was called on an engine built without a default
    /// policy (use `create_session_with` or configure one on the builder).
    MissingPolicy,
    /// A `(layer, kv_head)` pair outside the model's shape.
    HeadOutOfRange {
        /// The requested layer.
        layer: usize,
        /// The requested KV head.
        kv_head: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::InvalidConfig(msg) => write!(f, "invalid model config: {msg}"),
            EngineError::TokenOutOfVocab { token, vocab } => {
                write!(f, "token {token} outside vocabulary of size {vocab}")
            }
            EngineError::ContextOverflow { requested, max } => {
                write!(f, "context of {requested} tokens exceeds maximum {max}")
            }
            EngineError::NotPrefilled => write!(f, "decode requested before prefill"),
            EngineError::AlreadyPrefilled => write!(f, "session is already prefilled"),
            EngineError::EmptyPrompt => write!(f, "prompt must not be empty"),
            EngineError::EmptyChunk => write!(f, "prefill chunk must not be empty"),
            EngineError::PrefillSealed => {
                write!(f, "prompt is sealed; no further prefill chunks accepted")
            }
            EngineError::UnknownSession(id) => write!(f, "unknown session {id}"),
            EngineError::SessionLimitReached { max } => {
                write!(f, "session limit of {max} reached")
            }
            EngineError::MissingPolicy => {
                write!(f, "no default selection policy configured for this engine")
            }
            EngineError::HeadOutOfRange { layer, kv_head } => {
                write!(f, "no KV head {kv_head} in layer {layer}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Opaque handle addressing one resident sequence of a [`ServeEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub(super) u64);

impl SessionId {
    /// The raw numeric id (stable for the lifetime of the engine).
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Output of one decoding step for one session.
#[derive(Debug, Clone)]
pub struct DecodeOutput {
    /// The session this step belongs to.
    pub session: SessionId,
    /// Greedily chosen next token id.
    pub next_token: usize,
    /// Logits over the vocabulary.
    pub logits: Vec<f32>,
    /// Final hidden state of the step.
    pub hidden: Vec<f32>,
}

/// Final accounting returned when a session is released.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The released session.
    pub id: SessionId,
    /// Context length at release (prompt + generated tokens).
    pub context_len: usize,
    /// Number of decode steps the session ran.
    pub generated_tokens: usize,
    /// Selection work accumulated over every plan of the session, plus the
    /// residency outcomes (token hits and misses, PCIe recalls) as the
    /// session's cluster cache counted them.
    pub stats: PolicyStats,
    /// Modeled decode-side latency of the session under the engine's
    /// roofline device model, with PCIe transfer charged only for
    /// cluster-cache misses.
    pub modeled_decode_time: Seconds,
    /// Prompt positions whose KV was served from the cross-session
    /// [`PrefixStore`] instead of being recomputed (0 without a store, or
    /// for the first session to see a prompt). Their KV bytes are charged
    /// to the store, the other `context_len - shared_prefix_tokens`
    /// positions' to the session, each at
    /// [`ModelConfig::kv_bytes_per_token`].
    pub shared_prefix_tokens: usize,
    /// Compressed-tier accounting of the session's cluster cache: page
    /// demotions and tokens served from the compressed GPU tier (both zero
    /// under a lossless configuration).
    pub compression: CompressionStats,
    /// Speculative-prefetch accounting of the session's cluster cache:
    /// staged / used / wasted bytes of the staging buffer (all zero with
    /// prefetch disabled — DESIGN.md §10).
    pub prefetch: PrefetchStats,
    /// Modeled PCIe time hidden behind compute by the overlap clock: per
    /// step, `min(gpu, staged)`. Zero with prefetch disabled.
    pub hidden_transfer_time: Seconds,
    /// Total modeled PCIe time of the session's decode steps (staged +
    /// demand transfers).
    pub transfer_time: Seconds,
    /// Fault-injection and integrity accounting for the session: checksum
    /// verifications, corruptions injected / detected / repaired, and the
    /// modeled transfer retries charged to the clock (DESIGN.md §11). All
    /// zero when the engine runs with faults disabled.
    pub integrity: IntegrityStats,
}

impl SessionReport {
    /// Token-level hit rate of the session's cluster cache in `[0, 1]`
    /// (`0.0` when the session's policy never paged KV — never NaN).
    pub fn cache_hit_rate(&self) -> f64 {
        self.stats.cache.hit_rate()
    }

    /// Bytes recalled from CPU memory over PCIe across the whole session.
    pub fn bytes_recalled(&self) -> Bytes {
        self.stats.cache.bytes_recalled
    }
}

/// Builder for [`ServeEngine`].
pub struct ServeEngineBuilder {
    config: ModelConfig,
    synthetic_seed: u64,
    budget: Budget,
    policy: Option<Box<dyn SelectorFactory>>,
    max_sessions: usize,
    kv_cache_capacity: Option<Bytes>,
    prefix_store_capacity: Option<Bytes>,
    device: DeviceModel,
    compression: CompressionConfig,
    prefetch: PrefetchConfig,
    faults: FaultPlan,
}

impl ServeEngineBuilder {
    /// Start building an engine for the given model shape. Without further
    /// calls the engine uses synthetic weights from seed 0, an unbounded
    /// budget, no default policy, no GPU cluster cache (pure offload) and an
    /// Ada-6000 device model.
    pub fn new(config: ModelConfig) -> Self {
        Self {
            config,
            synthetic_seed: 0,
            budget: Budget::new(usize::MAX),
            policy: None,
            max_sessions: DEFAULT_MAX_SESSIONS,
            kv_cache_capacity: None,
            prefix_store_capacity: None,
            device: DeviceModel::ada6000(),
            compression: CompressionConfig::lossless(),
            prefetch: PrefetchConfig::disabled(),
            faults: FaultPlan::disabled(),
        }
    }

    /// Generate deterministic synthetic weights from `seed`.
    pub fn synthetic_weights(mut self, seed: u64) -> Self {
        self.synthetic_seed = seed;
        self
    }

    /// KV budget `B` every selective head must respect.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Default selection policy used by
    /// [`create_session`](ServeEngine::create_session).
    pub fn policy(mut self, factory: Box<dyn SelectorFactory>) -> Self {
        self.policy = Some(factory);
        self
    }

    /// Cap on concurrently resident sessions (default
    /// [`DEFAULT_MAX_SESSIONS`]).
    pub fn max_sessions(mut self, max: usize) -> Self {
        self.max_sessions = max;
        self
    }

    /// Give every session a GPU cluster cache of `capacity` bytes for its
    /// selected-KV pages. Without this call (or with capacity 0) the engine
    /// models pure offload: every selected page is recalled from CPU memory
    /// at every step. Residency affects accounting and modeled latency
    /// only — token streams are identical whatever the capacity.
    ///
    /// Residency is tracked per *query* head (heads rank with their own
    /// queries, so they select different pages): under GQA the same
    /// physical KV may be resident once per query head selecting it, though
    /// the group's heads plan against one selector over that KV (DESIGN.md
    /// §3 records the over-count). Size capacities with
    /// [`ModelConfig::selected_kv_bytes_per_step`], which counts query
    /// heads, rather than from `kv_bytes_per_token`.
    pub fn kv_cache_capacity(mut self, capacity: Bytes) -> Self {
        self.kv_cache_capacity = Some(capacity);
        self
    }

    /// Device model used to price modeled decode latency and PCIe recall
    /// (default [`DeviceModel::ada6000`]).
    pub fn device(mut self, device: DeviceModel) -> Self {
        self.device = device;
        self
    }

    /// Compressed-tier configuration for every session's cluster cache
    /// (DESIGN.md §9): lossy settings shrink demoted pages (SLERP merging +
    /// int8/int4 cold KV) and price recalls at the compressed byte count.
    /// Defaults to [`CompressionConfig::lossless`], which keeps the
    /// byte-parity guarantee. Pass the same configuration the selection
    /// policy was built with (e.g. `ClusterKvConfig::compression`): the
    /// policy decides *when* to emit recall-compressed plans, this knob
    /// decides *how* the engine reconstructs and accounts for them.
    pub fn compression(mut self, compression: CompressionConfig) -> Self {
        self.compression = compression;
        self
    }

    /// Speculative cluster prefetch (DESIGN.md §10): sessions get a bounded
    /// staging buffer of [`PrefetchConfig::staging_capacity`] bytes, every
    /// decode step nominates next-step clusters into it, and staged
    /// transfers overlap compute in the modeled clock
    /// (`max(compute, staged) + demand`). Defaults to
    /// [`PrefetchConfig::disabled`]. Prefetch changes *when* bytes move,
    /// never *what* attends: token streams, hit rates and recalled bytes
    /// are byte-identical whatever this setting.
    pub fn prefetch(mut self, prefetch: PrefetchConfig) -> Self {
        self.prefetch = prefetch;
        self
    }

    /// Enable the workspace-global [`PrefixStore`]: sessions whose prompts
    /// share a prefix reuse its KV pages, key-norm caches and cluster
    /// centroids instead of recomputing them, with `capacity` bytes of
    /// zero-refcount pages retained LRU-style for cross-session temporal
    /// reuse (DESIGN.md §8). Without this call every session prefills cold.
    ///
    /// Sharing changes what is computed and stored, never what attends:
    /// token streams are byte-identical with and without the store, at any
    /// chunking and any thread count (enforced by the prefix parity suite).
    pub fn prefix_store(mut self, capacity: Bytes) -> Self {
        self.prefix_store_capacity = Some(capacity);
        self
    }

    /// Deterministic fault injection (DESIGN.md §11): modeled transfer
    /// failures retried with exponential backoff on the modeled clock, and
    /// checksum corruption of resident KV pages, detected and repaired by
    /// the integrity scrub. Every decision is a pure function of
    /// `(plan seed, site, session id, step)`, so fault schedules are
    /// bit-identical across runs, chunkings and thread counts. Faults change
    /// *when* and *how long*, never *what attends*: completed token streams
    /// are byte-identical with faults on or off. Defaults to
    /// [`FaultPlan::disabled`].
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Validate the configuration and build the engine.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidConfig`] if the configuration fails
    /// [`ModelConfig::validate`], the compressed-tier configuration fails
    /// [`CompressionConfig::validate`], the fault plan fails
    /// [`FaultPlan::validate`] or the default policy fails
    /// [`SelectorFactory::validate`].
    pub fn build(self) -> Result<ServeEngine, EngineError> {
        self.config.validate().map_err(EngineError::InvalidConfig)?;
        self.compression
            .validate()
            .map_err(EngineError::InvalidConfig)?;
        self.faults.validate().map_err(EngineError::InvalidConfig)?;
        if let Some(policy) = &self.policy {
            policy.validate().map_err(EngineError::InvalidConfig)?;
        }
        Ok(ServeEngine {
            model: Model {
                config: self.config,
                weights: ModelWeights::synthetic(&self.config, self.synthetic_seed),
                rope: Rope::new(self.config.head_dim, 10_000.0),
                latency: LatencyModel::new(self.config, self.device),
                budget: self.budget,
                prefetch: self.prefetch,
                injector: FaultInjector::new(self.faults),
            },
            policy: self.policy,
            sessions: BTreeMap::new(),
            next_session: 0,
            max_sessions: self.max_sessions,
            kv_cache_capacity: self.kv_cache_capacity.unwrap_or(Bytes(0)),
            compression: self.compression,
            prefix: self.prefix_store_capacity.map(|capacity| {
                PrefixStore::new(PrefixStoreConfig {
                    capacity,
                    layers: self.config.num_layers,
                    kv_heads: self.config.num_kv_heads,
                    head_dim: self.config.head_dim,
                })
            }),
        })
    }
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("config", &self.model.config)
            .field("budget", &self.model.budget)
            .field("policy", &self.policy.as_ref().map(|p| p.name()))
            .field("sessions", &self.sessions.len())
            .field("max_sessions", &self.max_sessions)
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for ServeEngineBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngineBuilder")
            .field("config", &self.config)
            .field("budget", &self.budget)
            .field("policy", &self.policy.as_ref().map(|p| p.name()))
            .field("max_sessions", &self.max_sessions)
            .finish_non_exhaustive()
    }
}

impl ServeEngine {
    /// Start building an engine.
    pub fn builder(config: ModelConfig) -> ServeEngineBuilder {
        ServeEngineBuilder::new(config)
    }

    /// Model configuration in use.
    pub fn config(&self) -> &ModelConfig {
        &self.model.config
    }

    /// KV cache budget used for selection.
    pub fn budget(&self) -> Budget {
        self.model.budget
    }

    /// Number of resident sessions.
    pub fn num_sessions(&self) -> usize {
        self.sessions.len()
    }

    pub(super) fn session(&self, id: SessionId) -> Result<&SessionState, EngineError> {
        self.sessions
            .get(&id.0)
            .ok_or(EngineError::UnknownSession(id))
    }

    /// Create a session using the engine's default policy.
    ///
    /// # Errors
    ///
    /// [`EngineError::MissingPolicy`] when the engine was built without a
    /// default policy; [`EngineError::SessionLimitReached`] at capacity.
    pub fn create_session(&mut self) -> Result<SessionId, EngineError> {
        let factory = self.policy.as_deref().ok_or(EngineError::MissingPolicy)?;
        let selectors = Self::make_selectors(&self.model.config, factory);
        self.insert_session(selectors)
    }

    /// Create a session with an explicit selection policy (sessions with
    /// different policies can coexist in one engine).
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] when the factory fails
    /// [`SelectorFactory::validate`];
    /// [`EngineError::SessionLimitReached`] at capacity.
    pub fn create_session_with(
        &mut self,
        factory: &dyn SelectorFactory,
    ) -> Result<SessionId, EngineError> {
        factory.validate().map_err(EngineError::InvalidConfig)?;
        let selectors = Self::make_selectors(&self.model.config, factory);
        self.insert_session(selectors)
    }

    /// One selector per KV head of every selective layer; a dense layer
    /// gets none.
    fn make_selectors(
        config: &ModelConfig,
        factory: &dyn SelectorFactory,
    ) -> Vec<Vec<Box<dyn TokenSelector>>> {
        let group_size = config.num_heads / config.num_kv_heads;
        (0..config.num_layers)
            .map(|layer| {
                let kv_heads = if layer < config.dense_layers {
                    0
                } else {
                    config.num_kv_heads
                };
                (0..kv_heads)
                    .map(|kv_head| {
                        factory.create(HeadContext {
                            layer,
                            head: kv_head * group_size,
                            head_dim: config.head_dim,
                            kv_head,
                            group_size,
                        })
                    })
                    .collect()
            })
            .collect()
    }

    fn insert_session(
        &mut self,
        selectors: Vec<Vec<Box<dyn TokenSelector>>>,
    ) -> Result<SessionId, EngineError> {
        if self.sessions.len() >= self.max_sessions {
            return Err(EngineError::SessionLimitReached {
                max: self.max_sessions,
            });
        }
        let config = &self.model.config;
        let kv = vec![vec![KvStore::new(config.head_dim); config.num_kv_heads]; config.num_layers];
        let id = SessionId(self.next_session);
        self.next_session += 1;
        self.sessions.insert(
            id.0,
            SessionState {
                kv,
                selectors,
                num_tokens: 0,
                generated_tokens: 0,
                phase: SessionPhase::Fresh,
                next_input: None,
                stats: PolicyStats::default(),
                residency: Residency::new(
                    config,
                    self.kv_cache_capacity,
                    self.compression,
                    self.model.prefetch,
                ),
                prompt_tokens: Vec::new(),
                prefix_active: self.prefix.is_some(),
                matched_prefix_tokens: 0,
                fastpath_prefix_tokens: 0,
                pinned_prompt: Vec::new(),
                workspaces: (0..config.num_heads).map(|_| Workspace::new()).collect(),
                concat: Vec::new(),
                k_scratch: Vec::new(),
                v_scratch: Vec::new(),
            },
        );
        Ok(id)
    }

    /// Release a session, freeing its KV and selector state.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSession`] if the id is not resident.
    pub fn release(&mut self, id: SessionId) -> Result<SessionReport, EngineError> {
        let sess = self
            .sessions
            .remove(&id.0)
            .ok_or(EngineError::UnknownSession(id))?;
        if let Some(store) = &mut self.prefix {
            if !sess.pinned_prompt.is_empty() {
                store.unpin_prompt(&sess.pinned_prompt);
            }
        }
        let (hidden_transfer_time, transfer_time) = sess.residency.transfer_times();
        Ok(SessionReport {
            id,
            context_len: sess.num_tokens,
            generated_tokens: sess.generated_tokens,
            stats: sess.residency.counted(sess.stats),
            modeled_decode_time: sess.residency.modeled_decode(),
            shared_prefix_tokens: sess.matched_prefix_tokens,
            compression: sess.residency.compression_stats(),
            prefetch: sess.residency.prefetch_stats(),
            hidden_transfer_time,
            transfer_time,
            integrity: sess.residency.integrity(),
        })
    }

    /// Current context length of a session (prompt + generated tokens).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSession`] if the id is not resident.
    pub fn context_len(&self, id: SessionId) -> Result<usize, EngineError> {
        Ok(self.session(id)?.num_tokens)
    }

    /// Degradation hook (ladder level 1, DESIGN.md §11): release every
    /// staged page of the session's prefetch buffer, returning the bytes
    /// freed (charged as wasted prefetch). A no-op for sessions without a
    /// staging buffer. Staging only affects the modeled clock, so shedding
    /// it never changes what the session attends.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSession`] if the id is not resident.
    pub fn shed_staging(&mut self, id: SessionId) -> Result<Bytes, EngineError> {
        Ok(resident(&mut self.sessions, id)?.residency.shed_staging())
    }

    /// Degradation hook (ladder level 2, DESIGN.md §11): demote the
    /// session's resident exact pages to the compressed GPU tier, returning
    /// how many pages moved. A no-op (0) under a lossless compression
    /// config, where demotion would not shrink anything.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSession`] if the id is not resident.
    pub fn demote_session(&mut self, id: SessionId) -> Result<usize, EngineError> {
        Ok(resident(&mut self.sessions, id)?.residency.demote_all())
    }

    /// Whether the engine was built with a cross-session [`PrefixStore`].
    pub fn has_prefix_store(&self) -> bool {
        self.prefix.is_some()
    }

    /// Counters of the engine's [`PrefixStore`] (`None` without one).
    pub fn prefix_store_stats(&self) -> Option<PrefixStoreStats> {
        self.prefix.as_ref().map(PrefixStore::stats)
    }

    /// Length of the prompt prefix the store could serve *and guarantee
    /// through a pin* (whole-node coverage; see [`PrefixStore::peek_match`]).
    /// 0 without a store. Read-only — admission control uses this to shrink
    /// a request's worst-case KV reservation before deciding to admit.
    pub fn prefix_match_len(&self, prompt: &[usize]) -> usize {
        self.prefix
            .as_ref()
            .map_or(0, |store| store.peek_match(prompt))
    }

    /// Pin the currently shareable prefix of `prompt` on behalf of session
    /// `id`, guaranteeing those store pages survive until the session is
    /// released (admission-time companion of [`prefix_match_len`]: pinned
    /// coverage can only grow, so a reservation computed against it stays
    /// sound). Returns the pinned length; 0 (and no pin) without a store.
    /// The pin is swapped for a full-prompt pin when the session seals its
    /// prefill, and dropped at release either way.
    ///
    /// [`prefix_match_len`]: Self::prefix_match_len
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSession`] if the id is not resident.
    pub fn pin_session_prefix(
        &mut self,
        id: SessionId,
        prompt: &[usize],
    ) -> Result<usize, EngineError> {
        let sess = resident(&mut self.sessions, id)?;
        let Some(store) = &mut self.prefix else {
            return Ok(0);
        };
        let old_pin = std::mem::take(&mut sess.pinned_prompt);
        let pinned = store.pin_prompt(prompt);
        sess.pinned_prompt = prompt[..pinned].to_vec();
        if !old_pin.is_empty() {
            store.unpin_prompt(&old_pin);
        }
        Ok(pinned)
    }

    /// Per-session prefix accounting: `(store-backed positions, positions
    /// whose forward pass was actually skipped)`. The two differ by the
    /// chunk-last tokens the fast path recomputes to keep returned hidden
    /// states exact. Both 0 without a store or for a cold prompt.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSession`] if the id is not resident.
    pub fn session_prefix_tokens(&self, id: SessionId) -> Result<(usize, usize), EngineError> {
        let sess = self.session(id)?;
        Ok((sess.matched_prefix_tokens, sess.fastpath_prefix_tokens))
    }

    /// Selection work accumulated over every plan of a session so far, plus
    /// the residency outcomes as its cluster cache counted them.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSession`] if the id is not resident.
    pub fn session_stats(&self, id: SessionId) -> Result<PolicyStats, EngineError> {
        let sess = self.session(id)?;
        Ok(sess.residency.counted(sess.stats))
    }

    /// Modeled decode latency accumulated by a session so far (roofline
    /// device model; PCIe transfer charged only for cluster-cache misses).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSession`] if the id is not resident.
    pub fn modeled_decode_time(&self, id: SessionId) -> Result<Seconds, EngineError> {
        Ok(self.session(id)?.residency.modeled_decode())
    }

    /// GPU capacity of each session's cluster cache (0 = pure offload).
    pub fn kv_cache_capacity(&self) -> Bytes {
        self.kv_cache_capacity
    }

    /// The engine's speculative-prefetch configuration (DESIGN.md §10).
    pub fn prefetch_config(&self) -> PrefetchConfig {
        self.model.prefetch
    }

    /// Cap on concurrently resident sessions.
    pub fn max_sessions(&self) -> usize {
        self.max_sessions
    }

    /// Whether the engine was built with a default selection policy (i.e.
    /// [`create_session`](Self::create_session) works without an explicit
    /// factory).
    pub fn has_default_policy(&self) -> bool {
        self.policy.is_some()
    }

    /// The engine's analytical latency model (roofline pricing of prefill
    /// and decode steps on the configured device). The serving scheduler
    /// uses this to advance its modeled clock.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.model.latency
    }

    /// Access the KV store of a `(layer, kv_head)` pair of a session (for
    /// tests and experiments).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSession`] if the id is not resident;
    /// [`EngineError::HeadOutOfRange`] if the model has no such layer or
    /// KV head.
    pub fn kv_store(
        &self,
        id: SessionId,
        layer: usize,
        kv_head: usize,
    ) -> Result<&KvStore, EngineError> {
        self.session(id)?
            .kv
            .get(layer)
            .and_then(|heads| heads.get(kv_head))
            .ok_or(EngineError::HeadOutOfRange { layer, kv_head })
    }

    /// Override the token fed to the session's next decode step (for
    /// externally sampled tokens; by default the engine continues greedily).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSession`] / [`EngineError::NotPrefilled`] /
    /// [`EngineError::TokenOutOfVocab`] (validated here so a later
    /// [`decode_batch`](Self::decode_batch) cannot fail mid-batch on a bad
    /// injected token).
    pub fn set_next_input(&mut self, id: SessionId, token: usize) -> Result<(), EngineError> {
        let vocab = self.model.config.vocab_size;
        let sess = resident(&mut self.sessions, id)?;
        if sess.phase != SessionPhase::Ready {
            return Err(EngineError::NotPrefilled);
        }
        if token >= vocab {
            return Err(EngineError::TokenOutOfVocab { token, vocab });
        }
        sess.next_input = Some(token);
        Ok(())
    }
}

/// The resident session `id`. Borrows the session table alone, so a caller
/// can hold the engine's other fields alongside.
pub(super) fn resident(
    sessions: &mut BTreeMap<u64, SessionState>,
    id: SessionId,
) -> Result<&mut SessionState, EngineError> {
    sessions
        .get_mut(&id.0)
        .ok_or(EngineError::UnknownSession(id))
}
