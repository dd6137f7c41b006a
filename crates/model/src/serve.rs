//! The serving engine: weights loaded once, N independent sessions, batched
//! decode.
//!
//! [`ServeEngine`] owns the model (config, weights, RoPE tables) exactly once
//! and manages any number of concurrent [`SessionId`]-addressed sequences.
//! Each session carries its own KV stores, per-KV-head selectors, position
//! counter and residency state, so sessions are fully isolated: interleaving
//! their decode steps through [`decode_batch`](ServeEngine::decode_batch)
//! produces byte-identical token streams to running each sequence alone.
//!
//! The per-token transformer math matches the single-sequence flow of the
//! paper (Fig. 5): full causal attention during prefill and in every dense
//! layer, per-head selection-plan attention in the selective layers during
//! decoding, with the KV head's selector observing every produced key.
//!
//! The code is split by lifecycle: `session.rs` (builder, errors, session
//! lifecycle, reports), `prefill.rs` (prompt chunks, prefix adoption, the
//! seal) and `step.rs` (one token as a fixed sequence of phases, and the
//! decode entry points). Sessions decode in parallel and heads attend in
//! parallel; whatever depends on order runs in head order around that, so
//! token streams and every per-session statistic are byte-identical at any
//! `RAYON_NUM_THREADS` (DESIGN.md §4).

mod prefill;
mod session;
mod step;

pub use session::{
    DecodeOutput, EngineError, ServeEngineBuilder, SessionId, SessionReport, DEFAULT_MAX_SESSIONS,
};

use crate::config::ModelConfig;
use crate::latency::LatencyModel;
use crate::policy::{PolicyStats, SelectorFactory, TokenSelector};
use crate::prefetch::PrefetchConfig;
use crate::residency::Residency;
use crate::rope::Rope;
use crate::weights::ModelWeights;
use clusterkv_faults::FaultInjector;
use clusterkv_kvcache::compressed::CompressionConfig;
use clusterkv_kvcache::prefix::PrefixStore;
use clusterkv_kvcache::types::{Budget, Bytes};
use clusterkv_kvcache::KvStore;
use clusterkv_tensor::kernels::Workspace;
use std::collections::BTreeMap;

/// A decoder-only transformer serving N independent sequences with per-head
/// KV-selection policies.
pub struct ServeEngine {
    /// What every step of every session reads and none writes.
    model: Model,
    policy: Option<Box<dyn SelectorFactory>>,
    sessions: BTreeMap<u64, SessionState>,
    next_session: u64,
    max_sessions: usize,
    /// GPU capacity of each session's cluster cache (0 = pure offload).
    kv_cache_capacity: Bytes,
    /// Compressed-tier configuration applied to every session's cache.
    compression: CompressionConfig,
    /// Cross-session shared-prefix pages (`None` = every session cold).
    prefix: Option<PrefixStore>,
}

/// The immutable part of the engine: the model and the per-step knobs every
/// session decodes under. Steps borrow it shared, which is what lets
/// [`ServeEngine::decode_batch`] run disjoint sessions on different threads.
struct Model {
    config: ModelConfig,
    weights: ModelWeights,
    rope: Rope,
    /// Roofline pricing of modeled per-step decode latency.
    latency: LatencyModel,
    /// KV budget `B` every selective head plans under.
    budget: Budget,
    /// Speculative prefetch: staging capacity and lookahead widening
    /// (DESIGN.md §10).
    prefetch: PrefetchConfig,
    /// Deterministic fault injector driving the recovery seams
    /// (DESIGN.md §11); a disabled plan makes every decision a no-op.
    injector: FaultInjector,
}

/// Lifecycle of one session, from creation to decodability.
///
/// Three states, because chunked prefill ([`ServeEngine::prefill_chunk`])
/// forwards some prompt tokens before the session may decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionPhase {
    /// Created; no prompt tokens forwarded yet.
    Fresh,
    /// At least one prefill chunk forwarded; more may follow until
    /// [`ServeEngine::finish_prefill`] seals the prompt.
    Prefilling,
    /// Prefill complete (selectors reconciled, memory settled); the session
    /// decodes.
    Ready,
}

/// Per-session state: everything that differs between concurrent sequences.
struct SessionState {
    /// KV stores indexed by `[layer][kv_head]`.
    kv: Vec<Vec<KvStore>>,
    /// Selection state indexed by `[layer][kv_head]`: one selector per KV
    /// head of a selective layer, planning for the query heads that attend
    /// it (query head `h` is member `h % G` of selector `h / G`). Key events
    /// are delivered once per selector. A dense layer has none: it attends
    /// the whole context.
    selectors: Vec<Vec<Box<dyn TokenSelector>>>,
    /// Context length so far; doubles as the RoPE position of the next token.
    num_tokens: usize,
    /// Number of decode steps run.
    generated_tokens: usize,
    /// Where the session is in its prefill → decode lifecycle.
    phase: SessionPhase,
    /// Token fed to the next decode step (last prompt token after prefill,
    /// then the previously generated token — overridable for external
    /// sampling via [`ServeEngine::set_next_input`]).
    next_input: Option<usize>,
    /// Selection work accumulated from every plan; the residency half is
    /// filled from `residency` when the session reports.
    stats: PolicyStats,
    /// The session's tiered KV hierarchy, the data-movement ledger of the
    /// step in flight and the modeled clock it feeds.
    residency: Residency,
    /// One kernel workspace per query head (heads attend data-parallel,
    /// each worker owns its scratch). Buffers grow to the steady-state working
    /// set during the first decode steps and are reused afterwards, so the
    /// per-head attention phase performs no heap allocation (DESIGN.md §6).
    workspaces: Vec<Workspace>,
    /// Concatenated per-head attention outputs of the current layer; heads
    /// write disjoint `head_dim` slices during the parallel phase.
    concat: Vec<f32>,
    /// Scratch for the per-KV-head key/value projections of one token.
    k_scratch: Vec<f32>,
    /// See `k_scratch`.
    v_scratch: Vec<f32>,
    /// The prompt tokens fed so far, buffered only while the engine has a
    /// [`PrefixStore`] (lookup during chunks, donation at
    /// `finish_prefill`, unpinning at release).
    prompt_tokens: Vec<usize>,
    /// Whether prefill chunks are still walking the prefix tree. Starts true
    /// iff the engine has a store; cleared at the first divergence.
    prefix_active: bool,
    /// Prompt positions whose KV is store-backed (served by — or, for the
    /// recomputed last token of a chunk, available from — shared pages).
    /// Drives the shared-vs-private byte accounting.
    matched_prefix_tokens: usize,
    /// Prompt positions whose forward pass was actually skipped (KV copied
    /// from shared pages). Drives the compute/FLOP accounting; differs from
    /// `matched_prefix_tokens` by at most one recomputed token per chunk.
    fastpath_prefix_tokens: usize,
    /// The exact token prefix this session has pinned in the store
    /// (admission pin before prefill, the full prompt after donation);
    /// unpinned at release.
    pinned_prompt: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{
        FullAttentionFactory, HeadContext, KvResidency, ObserveEvent, OracleTopKFactory,
        PageRequest, SelectionPlan, SelectionRequest,
    };
    use clusterkv_faults::{FaultPlan, IntegrityStats};
    use clusterkv_kvcache::device::Seconds;
    use clusterkv_kvcache::stats::{CompressionStats, PrefetchStats};
    use clusterkv_tensor::Matrix;

    fn tiny_serve(budget: usize) -> ServeEngine {
        ServeEngine::builder(ModelConfig::tiny())
            .synthetic_weights(7)
            .budget(Budget::new(budget))
            .policy(Box::new(OracleTopKFactory))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates_config() {
        let mut bad = ModelConfig::tiny();
        bad.num_heads = 3;
        bad.num_kv_heads = 2;
        assert!(matches!(
            ServeEngine::builder(bad).build().unwrap_err(),
            EngineError::InvalidConfig(_)
        ));
        // The compressed-tier config is validated too: a merge threshold
        // outside [0, 1] or not finite never reaches a session's cache.
        for threshold in [f32::NAN, 7.0] {
            let lossy = CompressionConfig::int4().with_merge_threshold(threshold);
            assert!(matches!(
                ServeEngine::builder(ModelConfig::tiny())
                    .compression(lossy)
                    .build(),
                Err(EngineError::InvalidConfig(_))
            ));
        }
        // So is the policy, as the default on the builder and when a
        // session names it: nothing is built from a factory that rejects
        // its own configuration (the policy crates' factories are covered
        // in `tests/serving.rs`).
        struct Rejecting;
        impl SelectorFactory for Rejecting {
            fn name(&self) -> &str {
                "Rejecting"
            }
            fn create(&self, _ctx: HeadContext) -> Box<dyn TokenSelector> {
                unreachable!("a factory that fails validation builds nothing")
            }
            fn validate(&self) -> Result<(), String> {
                Err("rejected".into())
            }
        }
        assert!(matches!(
            ServeEngine::builder(ModelConfig::tiny())
                .policy(Box::new(Rejecting))
                .build(),
            Err(EngineError::InvalidConfig(_))
        ));
        let mut eng = tiny_serve(8);
        assert!(matches!(
            eng.create_session_with(&Rejecting),
            Err(EngineError::InvalidConfig(_))
        ));
        assert_eq!(eng.num_sessions(), 0);
    }

    #[test]
    fn create_without_policy_errors() {
        let mut eng = ServeEngine::builder(ModelConfig::tiny()).build().unwrap();
        assert_eq!(
            eng.create_session().unwrap_err(),
            EngineError::MissingPolicy
        );
        // An explicit factory still works.
        assert!(eng.create_session_with(&FullAttentionFactory).is_ok());
    }

    #[test]
    fn session_lifecycle_and_ids() {
        let mut eng = tiny_serve(64);
        let a = eng.create_session().unwrap();
        let b = eng.create_session().unwrap();
        assert_ne!(a, b);
        assert_eq!(eng.num_sessions(), 2);
        eng.generate(a, &[1, 2, 3], 2).unwrap();
        let report = eng.release(a).unwrap();
        assert_eq!(report.id, a);
        assert_eq!(report.context_len, 5);
        assert_eq!(report.generated_tokens, 2);
        assert_eq!(eng.num_sessions(), 1);
        assert_eq!(
            eng.release(a).unwrap_err(),
            EngineError::UnknownSession(a),
            "double release is reported"
        );
    }

    #[test]
    fn session_limit_is_enforced() {
        let mut eng = ServeEngine::builder(ModelConfig::tiny())
            .policy(Box::new(FullAttentionFactory))
            .max_sessions(2)
            .build()
            .unwrap();
        eng.create_session().unwrap();
        eng.create_session().unwrap();
        assert_eq!(
            eng.create_session().unwrap_err(),
            EngineError::SessionLimitReached { max: 2 }
        );
        let first = SessionId(*eng.sessions.keys().next().unwrap());
        eng.release(first).unwrap();
        assert!(eng.create_session().is_ok(), "capacity is reclaimed");
    }

    #[test]
    fn prefill_guards() {
        let mut eng = tiny_serve(64);
        let s = eng.create_session().unwrap();
        assert_eq!(eng.prefill(s, &[]).unwrap_err(), EngineError::EmptyPrompt);
        eng.prefill(s, &[1, 2, 3]).unwrap();
        assert_eq!(
            eng.prefill(s, &[4]).unwrap_err(),
            EngineError::AlreadyPrefilled
        );
        let ghost = SessionId(999);
        assert_eq!(
            eng.prefill(ghost, &[1]).unwrap_err(),
            EngineError::UnknownSession(ghost)
        );
    }

    #[test]
    fn chunked_prefill_matches_monolithic() {
        let prompt: Vec<usize> = (0..25).map(|i| (i * 5 + 2) % 128).collect();
        let mut mono = tiny_serve(8);
        let sm = mono.create_session().unwrap();
        let mono_hidden = mono.prefill(sm, &prompt).unwrap();
        let mono_stream: Vec<usize> = (0..6)
            .map(|_| mono.decode_batch(&[sm]).unwrap()[0].next_token)
            .collect();

        for chunk_size in [1usize, 3, 7, prompt.len()] {
            let mut eng = tiny_serve(8);
            let s = eng.create_session().unwrap();
            let mut last = Vec::new();
            for chunk in prompt.chunks(chunk_size) {
                last = eng.prefill_chunk(s, chunk).unwrap();
            }
            eng.finish_prefill(s).unwrap();
            assert_eq!(last, mono_hidden, "chunk {chunk_size}: hidden diverged");
            let stream: Vec<usize> = (0..6)
                .map(|_| eng.decode_batch(&[s]).unwrap()[0].next_token)
                .collect();
            assert_eq!(stream, mono_stream, "chunk {chunk_size}: stream diverged");
            assert_eq!(
                eng.session_stats(s).unwrap(),
                mono.session_stats(sm).unwrap(),
                "chunk {chunk_size}: stats diverged"
            );
        }
    }

    #[test]
    fn chunked_prefill_lifecycle_guards() {
        let mut eng = tiny_serve(64);
        let s = eng.create_session().unwrap();
        // Nothing fed yet: the prompt cannot be sealed and decode is barred.
        assert_eq!(eng.finish_prefill(s).unwrap_err(), EngineError::EmptyPrompt);
        assert_eq!(
            eng.decode_batch(&[s]).unwrap_err(),
            EngineError::NotPrefilled
        );
        eng.prefill_chunk(s, &[1, 2, 3]).unwrap();
        // Mid-prefill: still not decodable, and the monolithic entry point
        // refuses to splice a whole prompt after partial chunks.
        assert_eq!(
            eng.decode_batch(&[s]).unwrap_err(),
            EngineError::NotPrefilled
        );
        assert_eq!(
            eng.set_next_input(s, 1).unwrap_err(),
            EngineError::NotPrefilled
        );
        assert_eq!(
            eng.prefill(s, &[4, 5]).unwrap_err(),
            EngineError::AlreadyPrefilled
        );
        // An empty chunk is a caller bug, named as such — not EmptyPrompt,
        // which is about sealing a session that never fed any chunk.
        assert_eq!(
            eng.prefill_chunk(s, &[]).unwrap_err(),
            EngineError::EmptyChunk
        );
        eng.prefill_chunk(s, &[4, 5]).unwrap();
        eng.finish_prefill(s).unwrap();
        assert_eq!(eng.context_len(s).unwrap(), 5);
        // Sealed: further chunks get the dedicated error (the session's
        // phase silently advancing would corrupt positions), no double seal.
        assert_eq!(
            eng.prefill_chunk(s, &[6]).unwrap_err(),
            EngineError::PrefillSealed
        );
        assert_eq!(
            eng.finish_prefill(s).unwrap_err(),
            EngineError::AlreadyPrefilled
        );
        eng.decode_batch(&[s]).unwrap();
        let ghost = SessionId(999);
        assert_eq!(
            eng.prefill_chunk(ghost, &[1]).unwrap_err(),
            EngineError::UnknownSession(ghost)
        );
        assert_eq!(
            eng.finish_prefill(ghost).unwrap_err(),
            EngineError::UnknownSession(ghost)
        );
    }

    #[test]
    fn failed_chunk_is_atomic_and_resumable() {
        let mut eng = tiny_serve(64);
        let s = eng.create_session().unwrap();
        eng.prefill_chunk(s, &[1, 2]).unwrap();
        let err = eng.prefill_chunk(s, &[3, 9999]).unwrap_err();
        assert!(matches!(
            err,
            EngineError::TokenOutOfVocab { token: 9999, .. }
        ));
        // The failed chunk forwarded nothing; a corrected chunk resumes.
        assert_eq!(eng.context_len(s).unwrap(), 2);
        eng.prefill_chunk(s, &[3, 4]).unwrap();
        eng.finish_prefill(s).unwrap();
        assert_eq!(eng.context_len(s).unwrap(), 4);
        assert_eq!(eng.kv_store(s, 0, 0).unwrap().len(), 4);
    }

    #[test]
    fn generate_validates_the_whole_run_upfront() {
        let mut cfg = ModelConfig::tiny();
        cfg.max_context = 6;
        let mut eng = ServeEngine::builder(cfg)
            .synthetic_weights(7)
            .budget(Budget::new(64))
            .policy(Box::new(FullAttentionFactory))
            .build()
            .unwrap();
        let s = eng.create_session().unwrap();
        // 4 prompt + 3 steps > 6: rejected before any work, so the session
        // is untouched (no partially generated tokens are ever discarded).
        let err = eng.generate(s, &[1, 2, 3, 4], 3).unwrap_err();
        assert_eq!(
            err,
            EngineError::ContextOverflow {
                requested: 7,
                max: 6
            }
        );
        assert_eq!(eng.context_len(s).unwrap(), 0, "nothing was advanced");
        // The same session then runs the fitting request in full.
        assert_eq!(eng.generate(s, &[1, 2, 3, 4], 2).unwrap().len(), 2);
    }

    #[test]
    fn failed_prefill_leaves_no_partial_state() {
        let mut eng = tiny_serve(64);
        let s = eng.create_session().unwrap();
        // Token 9999 is out of vocabulary: the whole prefill must be
        // rejected before any KV is appended...
        let err = eng.prefill(s, &[1, 2, 9999, 4]).unwrap_err();
        assert!(matches!(
            err,
            EngineError::TokenOutOfVocab { token: 9999, .. }
        ));
        assert_eq!(eng.context_len(s).unwrap(), 0);
        assert_eq!(eng.kv_store(s, 0, 0).unwrap().len(), 0);
        // ...so a corrected retry starts from a clean session.
        eng.prefill(s, &[1, 2, 3, 4]).unwrap();
        assert_eq!(eng.context_len(s).unwrap(), 4);
        assert_eq!(eng.kv_store(s, 0, 0).unwrap().len(), 4);
    }

    #[test]
    fn kv_store_rejects_heads_outside_the_model() {
        let mut eng = tiny_serve(64);
        let s = eng.create_session().unwrap();
        eng.prefill(s, &[1, 2, 3]).unwrap();
        let (layers, kv_heads) = (eng.config().num_layers, eng.config().num_kv_heads);
        assert_eq!(eng.kv_store(s, layers - 1, kv_heads - 1).unwrap().len(), 3);
        for (layer, kv_head) in [(layers, 0), (0, kv_heads), (usize::MAX, usize::MAX)] {
            let err = eng.kv_store(s, layer, kv_head).unwrap_err();
            assert_eq!(err, EngineError::HeadOutOfRange { layer, kv_head });
            assert!(err.to_string().contains(&format!("KV head {kv_head}")));
        }
        // An unknown session is still reported as such.
        eng.release(s).unwrap();
        assert_eq!(
            eng.kv_store(s, layers, 0).unwrap_err(),
            EngineError::UnknownSession(s)
        );
    }

    #[test]
    fn set_next_input_rejects_out_of_vocab_tokens() {
        let mut eng = tiny_serve(64);
        let s = eng.create_session().unwrap();
        eng.prefill(s, &[1, 2, 3]).unwrap();
        let vocab = eng.config().vocab_size;
        assert!(matches!(
            eng.set_next_input(s, vocab).unwrap_err(),
            EngineError::TokenOutOfVocab { .. }
        ));
        // The pending input is untouched, so decoding still works.
        eng.decode_batch(&[s]).unwrap();
    }

    #[test]
    fn decode_batch_reports_context_overflow_before_any_work() {
        let mut cfg = ModelConfig::tiny();
        cfg.max_context = 5;
        let mut eng = ServeEngine::builder(cfg)
            .synthetic_weights(7)
            .budget(Budget::new(64))
            .policy(Box::new(FullAttentionFactory))
            .build()
            .unwrap();
        let s = eng.create_session().unwrap();
        eng.prefill(s, &[1, 2, 3, 4]).unwrap();
        // One free slot, but the batch asks for two steps of the same
        // session: the overflow must be detected upfront, advancing nothing.
        let err = eng.decode_batch(&[s, s]).unwrap_err();
        assert_eq!(
            err,
            EngineError::ContextOverflow {
                requested: 6,
                max: 5
            }
        );
        assert_eq!(eng.context_len(s).unwrap(), 4, "no session was advanced");
        // A single step still fits.
        eng.decode_batch(&[s]).unwrap();
        assert_eq!(eng.context_len(s).unwrap(), 5);
    }

    #[test]
    fn decode_batch_validates_upfront() {
        let mut eng = tiny_serve(64);
        let a = eng.create_session().unwrap();
        let b = eng.create_session().unwrap();
        eng.prefill(a, &[1, 2, 3]).unwrap();
        // b is not prefilled: the whole batch must fail with no work done.
        assert_eq!(
            eng.decode_batch(&[a, b]).unwrap_err(),
            EngineError::NotPrefilled
        );
        assert_eq!(eng.context_len(a).unwrap(), 3, "a was not advanced");
    }

    #[test]
    fn decode_batch_advances_each_session_once() {
        let mut eng = tiny_serve(64);
        let ids: Vec<SessionId> = (0..3).map(|_| eng.create_session().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            eng.prefill(id, &[1 + i, 2 + i, 3 + i]).unwrap();
        }
        let outs = eng.decode_batch(&ids).unwrap();
        assert_eq!(outs.len(), 3);
        for (out, &id) in outs.iter().zip(&ids) {
            assert_eq!(out.session, id);
            assert_eq!(eng.context_len(id).unwrap(), 4);
        }
    }

    #[test]
    fn repeated_id_in_batch_advances_twice() {
        let mut eng = tiny_serve(64);
        let s = eng.create_session().unwrap();
        eng.prefill(s, &[5, 6, 7]).unwrap();
        let outs = eng.decode_batch(&[s, s]).unwrap();
        assert_eq!(outs.len(), 2);
        assert_eq!(eng.context_len(s).unwrap(), 5);
    }

    #[test]
    fn set_next_input_overrides_greedy_continuation() {
        let mut a = tiny_serve(512);
        let mut b = tiny_serve(512);
        let sa = a.create_session().unwrap();
        let sb = b.create_session().unwrap();
        a.prefill(sa, &[1, 2, 3, 4]).unwrap();
        b.prefill(sb, &[1, 2, 3, 4]).unwrap();
        let greedy = a.decode_batch(&[sa]).unwrap()[0].next_token;
        // Session b decodes the same step but is then forced onto a token
        // that differs from the greedy continuation.
        b.decode_batch(&[sb]).unwrap();
        let forced = (greedy + 1) % b.config().vocab_size;
        b.set_next_input(sb, forced).unwrap();
        let ya = a.decode_batch(&[sa]).unwrap();
        let yb = b.decode_batch(&[sb]).unwrap();
        // The engines are identical, so any divergence can only come from
        // the forced input token.
        assert_ne!(ya[0].logits, yb[0].logits);
    }

    #[test]
    fn sessions_are_isolated() {
        // Interleaving decode steps of two sessions gives the same streams
        // as running each alone.
        let prompt_a: Vec<usize> = (0..24).map(|i| (i * 3) % 128).collect();
        let prompt_b: Vec<usize> = (0..24).map(|i| (i * 7 + 1) % 128).collect();

        let mut solo = tiny_serve(8);
        let s = solo.create_session().unwrap();
        let alone_a = solo.generate(s, &prompt_a, 6).unwrap();
        let s2 = solo.create_session().unwrap();
        let alone_b = solo.generate(s2, &prompt_b, 6).unwrap();

        let mut eng = tiny_serve(8);
        let a = eng.create_session().unwrap();
        let b = eng.create_session().unwrap();
        eng.prefill(a, &prompt_a).unwrap();
        eng.prefill(b, &prompt_b).unwrap();
        let mut got_a = Vec::new();
        let mut got_b = Vec::new();
        for _ in 0..6 {
            let outs = eng.decode_batch(&[a, b]).unwrap();
            got_a.push(outs[0].next_token);
            got_b.push(outs[1].next_token);
        }
        assert_eq!(got_a, alone_a);
        assert_eq!(got_b, alone_b);
    }

    /// A paged policy without depending on the core crate: exercise the
    /// cache through a minimal cluster-shaped selector, at budget 8.
    fn paged(capacity: Bytes) -> ServeEngineBuilder {
        ServeEngine::builder(ModelConfig::tiny())
            .synthetic_weights(7)
            .budget(Budget::new(8))
            .policy(Box::new(PagedTopKFactory))
            .kv_cache_capacity(capacity)
    }

    fn clusterkv_like_engine(capacity: Bytes) -> ServeEngine {
        paged(capacity).build().unwrap()
    }

    /// Test-only paged policy: exact top-k selection reported as one
    /// four-token-aligned page per selected token group.
    struct PagedTopKSelector {
        inner: crate::policy::OracleTopKSelector,
    }

    impl TokenSelector for PagedTopKSelector {
        fn name(&self) -> &str {
            "PagedTopK"
        }
        fn observe(&mut self, event: ObserveEvent<'_>) {
            self.inner.observe(event);
        }
        fn plan(&mut self, head: usize, request: SelectionRequest<'_>) -> SelectionPlan {
            let plan = self.inner.plan(head, request);
            if request.budget.covers(request.num_tokens) {
                return plan;
            }
            let pages: Vec<crate::policy::PageRequest> = plan
                .indices
                .iter()
                .map(|&t| crate::policy::PageRequest::new(t / 4, 4))
                .collect();
            let stats = plan.stats;
            SelectionPlan::new(plan.indices)
                .with_stats(stats)
                .with_pages(pages)
        }
    }

    struct PagedTopKFactory;

    impl SelectorFactory for PagedTopKFactory {
        fn name(&self) -> &str {
            "PagedTopK"
        }
        fn create(&self, ctx: HeadContext) -> Box<dyn TokenSelector> {
            Box::new(PagedTopKSelector {
                inner: crate::policy::OracleTopKSelector::new(ctx.head_dim),
            })
        }
    }

    /// A GQA shape: 4 query heads over 2 KV heads, one dense layer under
    /// two selective ones.
    fn gqa_config() -> ModelConfig {
        ModelConfig {
            num_layers: 3,
            num_heads: 4,
            num_kv_heads: 2,
            dense_layers: 1,
            ..ModelConfig::tiny()
        }
    }

    /// What the counting test selector below saw, across every instance a
    /// factory created.
    #[derive(Default)]
    struct ObserveCounts {
        chunks: std::sync::atomic::AtomicUsize,
        done: std::sync::atomic::AtomicUsize,
        appends: std::sync::atomic::AtomicUsize,
        adopted: std::sync::atomic::AtomicUsize,
    }

    /// Bytes the counting test selector charges for its exported state.
    const SHARED_STATE_BYTES: u64 = 96;

    /// Test-only selector: the oracle's exact top-k over the KV head's keys,
    /// counting every key event and sharing its (trivial) prefill state
    /// through the prefix store.
    struct SharedTopK {
        keys: Matrix,
        sealed: bool,
        counts: std::sync::Arc<ObserveCounts>,
    }

    impl TokenSelector for SharedTopK {
        fn name(&self) -> &str {
            "SharedTopK"
        }

        fn observe(&mut self, event: ObserveEvent<'_>) {
            use std::sync::atomic::Ordering::Relaxed;
            match event {
                ObserveEvent::PrefillChunk { start, keys } => {
                    assert_eq!(start, self.keys.rows(), "chunks arrive once, in order");
                    self.keys.extend_rows(keys).unwrap();
                    self.counts.chunks.fetch_add(1, Relaxed);
                }
                ObserveEvent::PrefillDone { total_tokens } => {
                    assert_eq!(total_tokens, self.keys.rows());
                    self.sealed = true;
                    self.counts.done.fetch_add(1, Relaxed);
                }
                ObserveEvent::Append { position, key } => {
                    assert_eq!(position, self.keys.rows(), "one append per position");
                    self.keys.push_row(key).unwrap();
                    self.counts.appends.fetch_add(1, Relaxed);
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

        fn export_prefill_state(&self) -> Option<crate::policy::SharedPrefixState> {
            self.sealed.then(|| crate::policy::SharedPrefixState {
                fingerprint: 7,
                bytes: Bytes(SHARED_STATE_BYTES),
                state: std::sync::Arc::new(self.keys.rows()),
            })
        }

        fn adopt_prefill_state(
            &mut self,
            state: &crate::policy::SharedPrefixState,
            total_tokens: usize,
        ) -> bool {
            assert_eq!(state.state.downcast_ref::<usize>(), Some(&total_tokens));
            self.sealed = true;
            self.counts
                .adopted
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            true
        }
    }

    struct SharedTopKFactory(std::sync::Arc<ObserveCounts>);

    impl SelectorFactory for SharedTopKFactory {
        fn name(&self) -> &str {
            "SharedTopK"
        }
        fn create(&self, ctx: HeadContext) -> Box<dyn TokenSelector> {
            assert_eq!(ctx.head, ctx.kv_head * ctx.group_size);
            Box::new(SharedTopK {
                keys: Matrix::zeros(0, ctx.head_dim),
                sealed: false,
                counts: self.0.clone(),
            })
        }
    }

    #[test]
    fn a_shared_index_sees_each_key_event_once_per_kv_head() {
        use std::sync::atomic::Ordering::Relaxed;
        let cfg = gqa_config();
        let prompt: Vec<usize> = (0..40).map(|i| (i * 5 + 1) % 128).collect();
        let run = |factory: &dyn SelectorFactory| {
            let mut eng = ServeEngine::builder(cfg)
                .synthetic_weights(7)
                .budget(Budget::new(8))
                .prefix_store(Bytes(1 << 20))
                .build()
                .unwrap();
            let mut streams = Vec::new();
            for _ in 0..2 {
                let s = eng.create_session_with(factory).unwrap();
                for chunk in prompt.chunks(16) {
                    eng.prefill_chunk(s, chunk).unwrap();
                }
                eng.finish_prefill(s).unwrap();
                let stream: Vec<usize> = (0..6)
                    .map(|_| eng.decode_batch(&[s]).unwrap()[0].next_token)
                    .collect();
                streams.push((stream, eng.session_stats(s).unwrap()));
            }
            (streams, eng)
        };
        // Reference: the oracle, which shares nothing through the store.
        let (oracle, _) = run(&OracleTopKFactory);
        let counts = std::sync::Arc::new(ObserveCounts::default());
        let (shared, eng) = run(&SharedTopKFactory(counts.clone()));
        assert_eq!(shared, oracle, "same keys, same plans, same streams");

        // 2 selective layers × 2 KV heads = 4 selectors per session, each
        // observing once what its 2 query heads attend.
        let groups = 4;
        assert_eq!(counts.chunks.load(Relaxed), 2 * 3 * groups);
        assert_eq!(counts.appends.load(Relaxed), 2 * 6 * groups);
        // The first session reconciles and exports; the second adopts.
        assert_eq!(counts.done.load(Relaxed), groups);
        assert_eq!(counts.adopted.load(Relaxed), groups);
        // One cached state per KV head at the prompt's terminal node, and
        // the store's running byte count still matches a recount.
        let store = eng.prefix.as_ref().unwrap();
        assert_eq!(store.shared_bytes(), store.recomputed_bytes());
        let pages = Bytes(prompt.len() as u64 * cfg.kv_bytes_per_token());
        assert_eq!(
            store.shared_bytes(),
            pages + Bytes(groups as u64 * SHARED_STATE_BYTES)
        );
    }

    #[test]
    fn residency_changes_accounting_but_never_token_streams() {
        let prompt: Vec<usize> = (0..32).map(|i| (i * 5 + 1) % 128).collect();
        let run = |capacity: Bytes| {
            let mut eng = clusterkv_like_engine(capacity);
            let s = eng.create_session().unwrap();
            let stream = eng.generate(s, &prompt, 8).unwrap();
            (stream, eng.release(s).unwrap())
        };
        let (cold_stream, cold) = run(Bytes(0));
        let (warm_stream, warm) = run(Bytes(1 << 20));
        assert_eq!(warm_stream, cold_stream, "residency must not change tokens");
        assert_eq!(cold.stats.cache.hits, 0, "no cache, no hits");
        assert!(cold.stats.cache.misses > 0);
        assert!(warm.stats.cache.hits > 0);
        assert!(
            warm.bytes_recalled() < cold.bytes_recalled(),
            "cache must reduce PCIe traffic: {} vs {}",
            warm.bytes_recalled(),
            cold.bytes_recalled()
        );
        assert!(
            warm.modeled_decode_time < cold.modeled_decode_time,
            "misses must cost transfer time: {} vs {}",
            warm.modeled_decode_time,
            cold.modeled_decode_time
        );
        assert!(warm.cache_hit_rate() > cold.cache_hit_rate());
    }

    #[test]
    fn resident_policies_keep_the_cache_empty() {
        let mut eng = ServeEngine::builder(ModelConfig::tiny())
            .synthetic_weights(7)
            .budget(Budget::new(8))
            .policy(Box::new(FullAttentionFactory))
            .kv_cache_capacity(Bytes(1 << 20))
            .build()
            .unwrap();
        assert_eq!(eng.kv_cache_capacity(), Bytes(1 << 20));
        let s = eng.create_session().unwrap();
        eng.generate(s, &[1, 2, 3, 4, 5, 6], 4).unwrap();
        let cache = eng.sessions[&s.0].residency.cache();
        assert_eq!(cache.resident_pages(), 0, "FullKV never pages");
        let report = eng.release(s).unwrap();
        assert_eq!(report.stats.cache.total(), 0);
        assert_eq!(report.bytes_recalled(), Bytes(0));
        assert!(report.modeled_decode_time.get() > 0.0);
    }

    #[test]
    fn modeled_decode_time_grows_with_each_step() {
        let mut eng = clusterkv_like_engine(Bytes(1 << 20));
        let s = eng.create_session().unwrap();
        eng.prefill(s, &(0..16).collect::<Vec<_>>()).unwrap();
        assert_eq!(
            eng.modeled_decode_time(s).unwrap(),
            Seconds::zero(),
            "prefill charges no decode time"
        );
        eng.decode_batch(&[s]).unwrap();
        let after_one = eng.modeled_decode_time(s).unwrap();
        assert!(after_one.get() > 0.0);
        eng.decode_batch(&[s]).unwrap();
        assert!(eng.modeled_decode_time(s).unwrap() > after_one);
    }

    #[test]
    fn decode_workspaces_reach_steady_state() {
        // The per-head workspaces (and projection/concat scratch) grow while
        // the first decode steps size them, then stop: steady-state decode
        // reuses the same buffers every step instead of allocating.
        let mut eng = tiny_serve(8);
        let s = eng.create_session().unwrap();
        let prompt: Vec<usize> = (0..24).map(|i| (i * 3 + 1) % 128).collect();
        eng.prefill(s, &prompt).unwrap();
        // Warm-up: a few steps let every buffer reach its working size.
        for _ in 0..4 {
            eng.decode_batch(&[s]).unwrap();
        }
        // Heap bytes held by the per-head kernel workspaces plus the layer
        // concat and projection scratch.
        let workspace_bytes = |eng: &ServeEngine| {
            let sess = &eng.sessions[&s.0];
            let per_head: usize = sess.workspaces.iter().map(|w| w.allocated_bytes()).sum();
            per_head
                + std::mem::size_of::<f32>()
                    * (sess.concat.capacity()
                        + sess.k_scratch.capacity()
                        + sess.v_scratch.capacity())
        };
        let warm = workspace_bytes(&eng);
        assert!(warm > 0, "workspaces are in use");
        for _ in 0..12 {
            eng.decode_batch(&[s]).unwrap();
        }
        assert_eq!(
            workspace_bytes(&eng),
            warm,
            "steady-state decode must not grow the workspaces"
        );
    }

    #[test]
    fn stats_accumulate_per_session() {
        let mut eng = tiny_serve(4);
        let a = eng.create_session().unwrap();
        let b = eng.create_session().unwrap();
        eng.prefill(a, &[1, 2, 3, 4, 5, 6]).unwrap();
        eng.prefill(b, &[1, 2, 3, 4, 5, 6]).unwrap();
        eng.decode_batch(&[a]).unwrap();
        let sa = eng.session_stats(a).unwrap();
        let sb = eng.session_stats(b).unwrap();
        assert!(sa.scored_vectors > 0, "a decoded and accumulated stats");
        assert_eq!(sb.scored_vectors, 0, "b never decoded");
    }

    fn tiny_serve_with_prefix(budget: usize) -> ServeEngine {
        ServeEngine::builder(ModelConfig::tiny())
            .synthetic_weights(7)
            .budget(Budget::new(budget))
            .policy(Box::new(OracleTopKFactory))
            .prefix_store(Bytes(1 << 20))
            .build()
            .unwrap()
    }

    #[test]
    fn prefix_reuse_is_byte_identical_to_cold_sessions() {
        let prompt: Vec<usize> = (0..32).map(|i| (i * 5 + 3) % 128).collect();
        let mut cold = tiny_serve(8);
        let c = cold.create_session().unwrap();
        cold.prefill(c, &prompt).unwrap();
        let cold_stream: Vec<usize> = (0..8)
            .map(|_| cold.decode_batch(&[c]).unwrap()[0].next_token)
            .collect();

        let mut eng = tiny_serve_with_prefix(8);
        // First session sees a cold store: nothing fast-pathed, but the
        // prompt gets donated at seal.
        let a = eng.create_session().unwrap();
        let last_a = eng.prefill(a, &prompt).unwrap();
        let (matched_a, fast_a) = eng.session_prefix_tokens(a).unwrap();
        assert_eq!(fast_a, 0, "nothing to reuse on a cold store");
        assert_eq!(matched_a, 0);
        let a_stream: Vec<usize> = (0..8)
            .map(|_| eng.decode_batch(&[a]).unwrap()[0].next_token)
            .collect();
        assert_eq!(a_stream, cold_stream, "store-enabled first session");

        // Second session: the whole prompt except the recomputed final
        // token is served from shared pages, and decode is byte-identical.
        let b = eng.create_session().unwrap();
        let last_b = eng.prefill(b, &prompt).unwrap();
        assert_eq!(last_b, last_a, "returned hidden states match exactly");
        let (matched_b, fast_b) = eng.session_prefix_tokens(b).unwrap();
        assert_eq!(fast_b, prompt.len() - 1, "all but the final token reused");
        assert_eq!(matched_b, prompt.len(), "final match credits the prompt");
        let b_stream: Vec<usize> = (0..8)
            .map(|_| eng.decode_batch(&[b]).unwrap()[0].next_token)
            .collect();
        assert_eq!(b_stream, cold_stream, "shared-prefix session diverged");

        let stats = eng.prefix_store_stats().unwrap();
        assert!(stats.hit_tokens as usize >= prompt.len() - 1);
    }

    #[test]
    fn prefix_reuse_is_chunking_invariant() {
        let prompt: Vec<usize> = (0..24).map(|i| (i * 7 + 2) % 128).collect();
        let mut cold = tiny_serve(8);
        let c = cold.create_session().unwrap();
        cold.prefill(c, &prompt).unwrap();
        let cold_stream: Vec<usize> = (0..6)
            .map(|_| cold.decode_batch(&[c]).unwrap()[0].next_token)
            .collect();
        for chunk_size in [1, 3, 7, 24] {
            let mut eng = tiny_serve_with_prefix(8);
            let a = eng.create_session().unwrap();
            eng.prefill(a, &prompt).unwrap();
            let b = eng.create_session().unwrap();
            for chunk in prompt.chunks(chunk_size) {
                eng.prefill_chunk(b, chunk).unwrap();
            }
            eng.finish_prefill(b).unwrap();
            let stream: Vec<usize> = (0..6)
                .map(|_| eng.decode_batch(&[b]).unwrap()[0].next_token)
                .collect();
            assert_eq!(stream, cold_stream, "chunk {chunk_size}: diverged");
            let (matched, fast) = eng.session_prefix_tokens(b).unwrap();
            assert_eq!(matched, prompt.len(), "chunk {chunk_size}");
            // Every chunk recomputes exactly its final token.
            assert_eq!(
                fast,
                prompt.len() - prompt.len().div_ceil(chunk_size),
                "chunk {chunk_size}: fast-path count"
            );
        }
    }

    #[test]
    fn prefix_divergent_prompt_reuses_only_common_part() {
        let shared: Vec<usize> = (0..16).map(|i| (i * 3 + 1) % 128).collect();
        let mut a_prompt = shared.clone();
        a_prompt.extend([40, 41, 42, 43]);
        let mut b_prompt = shared.clone();
        b_prompt.extend([90, 91, 92, 93]);

        let mut cold = tiny_serve(8);
        let c = cold.create_session().unwrap();
        cold.prefill(c, &b_prompt).unwrap();
        let cold_stream: Vec<usize> = (0..6)
            .map(|_| cold.decode_batch(&[c]).unwrap()[0].next_token)
            .collect();

        let mut eng = tiny_serve_with_prefix(8);
        let a = eng.create_session().unwrap();
        eng.prefill(a, &a_prompt).unwrap();
        let b = eng.create_session().unwrap();
        eng.prefill(b, &b_prompt).unwrap();
        let (matched, fast) = eng.session_prefix_tokens(b).unwrap();
        assert_eq!(matched, shared.len(), "only the common prefix is shared");
        assert_eq!(fast, shared.len());
        let stream: Vec<usize> = (0..6)
            .map(|_| eng.decode_batch(&[b]).unwrap()[0].next_token)
            .collect();
        assert_eq!(stream, cold_stream, "divergent-suffix session diverged");
    }

    #[test]
    fn prefix_session_reports_split_shared_and_private_bytes() {
        let prompt: Vec<usize> = (0..20).map(|i| (i * 11 + 5) % 128).collect();
        let mut eng = tiny_serve_with_prefix(8);
        let a = eng.create_session().unwrap();
        eng.prefill(a, &prompt).unwrap();
        let b = eng.create_session().unwrap();
        eng.prefill(b, &prompt).unwrap();
        for _ in 0..4 {
            eng.decode_batch(&[a, b]).unwrap();
        }
        let ra = eng.release(a).unwrap();
        // Shared positions are charged to the store, the rest of the
        // context to the session.
        assert_eq!(ra.shared_prefix_tokens, 0, "first session computed cold");
        assert_eq!(ra.context_len, prompt.len() + 4);
        let rb = eng.release(b).unwrap();
        assert_eq!(rb.shared_prefix_tokens, prompt.len());
        assert_eq!(rb.context_len - rb.shared_prefix_tokens, 4, "private part");
        // Both sessions released and unpinned: the donated pages stay under
        // the LRU cap, refcount-free, ready for the next session.
        let stats = eng.prefix_store_stats().unwrap();
        assert!(stats.shared_bytes > Bytes(0));
    }

    #[test]
    fn prefix_pin_shrinks_admission_and_survives_release_order() {
        let prompt: Vec<usize> = (0..16).map(|i| (i * 9 + 4) % 128).collect();
        // Zero retention capacity: unpinned zero-refcount pages are evicted
        // immediately, so only b's admission pin can keep them alive.
        let mut eng = ServeEngine::builder(ModelConfig::tiny())
            .synthetic_weights(7)
            .budget(Budget::new(8))
            .policy(Box::new(OracleTopKFactory))
            .prefix_store(Bytes(0))
            .build()
            .unwrap();
        assert_eq!(eng.prefix_match_len(&prompt), 0, "cold store");
        let a = eng.create_session().unwrap();
        eng.prefill(a, &prompt).unwrap();
        // After the first seal the whole prompt is pinnable coverage.
        assert_eq!(eng.prefix_match_len(&prompt), prompt.len());
        let b = eng.create_session().unwrap();
        let pinned = eng.pin_session_prefix(b, &prompt).unwrap();
        assert_eq!(pinned, prompt.len());
        // The donor releases first; b's pin keeps the pages alive.
        eng.release(a).unwrap();
        eng.prefill(b, &prompt).unwrap();
        let (_, fast) = eng.session_prefix_tokens(b).unwrap();
        assert_eq!(fast, prompt.len() - 1, "pinned pages stayed resident");
        eng.release(b).unwrap();
    }

    #[test]
    fn prefix_disabled_engine_reports_zero_sharing() {
        let mut eng = tiny_serve(8);
        assert!(!eng.has_prefix_store());
        assert!(eng.prefix_store_stats().is_none());
        assert_eq!(eng.prefix_match_len(&[1, 2, 3]), 0);
        let s = eng.create_session().unwrap();
        assert_eq!(eng.pin_session_prefix(s, &[1, 2, 3]).unwrap(), 0);
        eng.prefill(s, &[1, 2, 3, 4]).unwrap();
        assert_eq!(eng.session_prefix_tokens(s).unwrap(), (0, 0));
        let r = eng.release(s).unwrap();
        assert_eq!(r.shared_prefix_tokens, 0);
    }

    /// Page size of the block-paged test policy below.
    const TEST_BLOCK: usize = 8;

    /// Test-double policy: selects the most recent `B` tokens and pages the
    /// whole context in fixed [`TEST_BLOCK`]-token blocks, emitting
    /// recall-compressed plans (full block membership) when `compressed` is
    /// set and plain paged plans otherwise — the minimal policy that drives
    /// the engine's compressed recall path without the ClusterKV stack.
    struct BlockPagedSelector {
        /// `0..n` for a context of `n` tokens; blocks are slices of it.
        positions: Vec<usize>,
        compressed: bool,
    }

    impl BlockPagedSelector {
        fn residency(&self, pages: Vec<PageRequest>) -> KvResidency {
            if self.compressed {
                KvResidency::Compressed(pages)
            } else {
                KvResidency::Paged(pages)
            }
        }

        fn block(&self, page: usize) -> PageRequest {
            PageRequest::new(page, self.page_members(page).len())
        }
    }

    impl TokenSelector for BlockPagedSelector {
        fn name(&self) -> &str {
            "BlockPaged"
        }

        fn observe(&mut self, event: ObserveEvent<'_>) {
            let n = match event {
                ObserveEvent::PrefillChunk { start, keys } => start + keys.rows(),
                ObserveEvent::PrefillDone { total_tokens } => total_tokens,
                ObserveEvent::Append { position, .. } => position + 1,
            };
            self.positions = (0..n).collect();
        }

        fn plan(&mut self, _head: usize, request: SelectionRequest<'_>) -> SelectionPlan {
            let b = request.budget.tokens().min(request.num_tokens);
            let indices: Vec<usize> = (request.num_tokens - b..request.num_tokens).collect();
            let pages = (indices[0] / TEST_BLOCK..self.positions.len().div_ceil(TEST_BLOCK))
                .map(|page| self.block(page))
                .collect();
            let mut plan = SelectionPlan::new(indices);
            plan.residency = self.residency(pages);
            plan
        }

        fn page_table(&self) -> KvResidency {
            let blocks = self.positions.len().div_ceil(TEST_BLOCK);
            self.residency((0..blocks).map(|page| self.block(page)).collect())
        }

        fn page_members(&self, page: usize) -> &[usize] {
            let end = ((page + 1) * TEST_BLOCK).min(self.positions.len());
            &self.positions[page * TEST_BLOCK..end]
        }
    }

    struct BlockPagedFactory {
        compressed: bool,
    }

    impl SelectorFactory for BlockPagedFactory {
        fn name(&self) -> &str {
            "BlockPaged"
        }

        fn create(&self, _ctx: HeadContext) -> Box<dyn TokenSelector> {
            Box::new(BlockPagedSelector {
                positions: Vec::new(),
                compressed: self.compressed,
            })
        }
    }

    fn block_paged_engine(
        compressed_plans: bool,
        compression: CompressionConfig,
        capacity: Bytes,
    ) -> ServeEngine {
        ServeEngine::builder(ModelConfig::tiny())
            .synthetic_weights(7)
            .budget(Budget::new(8))
            .policy(Box::new(BlockPagedFactory {
                compressed: compressed_plans,
            }))
            .kv_cache_capacity(capacity)
            .compression(compression)
            .build()
            .unwrap()
    }

    #[test]
    fn lossless_compressed_recall_matches_the_exact_paged_path() {
        // With a lossless engine config, `attend_compressed` reconstructs
        // the identity, so a policy emitting recall-compressed plans decodes
        // the exact same token stream as its recall-exact twin.
        let prompt: Vec<usize> = (0..30).map(|i| (i * 11 + 3) % 128).collect();
        let run = |compressed_plans: bool| {
            let mut eng =
                block_paged_engine(compressed_plans, CompressionConfig::lossless(), Bytes(512));
            let s = eng.create_session().unwrap();
            eng.prefill(s, &prompt).unwrap();
            let stream: Vec<usize> = (0..8)
                .map(|_| eng.decode_batch(&[s]).unwrap()[0].next_token)
                .collect();
            (stream, eng.release(s).unwrap())
        };
        let (exact_stream, exact_report) = run(false);
        let (comp_stream, comp_report) = run(true);
        assert_eq!(comp_stream, exact_stream, "lossless must be byte-identical");
        // A lossless cache never demotes, so the compressed tier stays idle
        // on both paths.
        assert_eq!(comp_report.compression, CompressionStats::default());
        assert_eq!(exact_report.compression, CompressionStats::default());
    }

    #[test]
    fn compressed_tier_decodes_end_to_end_under_memory_pressure() {
        // Small cache + int8 tier: evictions demote pages to the compressed
        // tier, compressed recalls flow through `attend_compressed`, and the
        // report counts the demotions.
        let prompt: Vec<usize> = (0..40).map(|i| (i * 7 + 5) % 128).collect();
        let mut eng = block_paged_engine(true, CompressionConfig::int8(), Bytes(600));
        let s = eng.create_session().unwrap();
        eng.prefill(s, &prompt).unwrap();
        for _ in 0..10 {
            eng.decode_batch(&[s]).unwrap();
        }
        let report = eng.release(s).unwrap();
        assert!(
            report.compression.demotions > 0,
            "capacity pressure must demote pages: {:?}",
            report.compression
        );
        assert!(report.generated_tokens == 10);
        assert!(report.modeled_decode_time > Seconds(0.0));
    }

    fn prefetch_engine(capacity: Bytes, prefetch: PrefetchConfig) -> ServeEngine {
        paged(capacity).prefetch(prefetch).build().unwrap()
    }

    #[test]
    fn prefetch_changes_accounting_but_never_token_streams() {
        // The tentpole invariant (DESIGN.md §10): prefetch only changes
        // *when* bytes move. Streams, hit rates and recalled bytes must be
        // identical with prefetch off and on.
        let prompt: Vec<usize> = (0..32).map(|i| (i * 5 + 1) % 128).collect();
        let capacity = Bytes(512); // tight: most selected pages miss
        let run = |prefetch: PrefetchConfig| {
            let mut eng = prefetch_engine(capacity, prefetch);
            let s = eng.create_session().unwrap();
            let stream = eng.generate(s, &prompt, 8).unwrap();
            (stream, eng.release(s).unwrap())
        };
        let (off_stream, off) = run(PrefetchConfig::disabled());
        let (on_stream, on) = run(PrefetchConfig::lookahead(Bytes(1 << 20)));

        assert_eq!(on_stream, off_stream, "prefetch must not change tokens");
        assert_eq!(on.stats.cache, off.stats.cache, "hit rates or bytes differ");

        // Re-nominating this step's pages on a slowly drifting top-k set
        // stages pages the next step actually demands: the staging buffer
        // sees real promotions.
        assert!(on.prefetch.staged_pages > 0, "nothing was staged");
        assert!(on.prefetch.used_pages > 0, "nothing was promoted");
        let accuracy = on.prefetch.accuracy();
        assert!(accuracy > 0.0 && accuracy <= 1.0, "accuracy {accuracy}");
        // Off-engine prefetch accounting stays all-zero.
        assert_eq!(off.prefetch, PrefetchStats::new());
        assert_eq!(off.hidden_transfer_time, Seconds::zero());
        // The overlap clock hides staged transfer behind compute; demand
        // promoted out of the staging buffer can only shrink the step, so
        // the demand-side transfer total never grows.
        assert!(on.hidden_transfer_time.get() > 0.0);
        assert!(on.transfer_time >= on.hidden_transfer_time);
    }

    #[test]
    fn session_report_prefetch_ratios_are_zero_not_nan_for_empty_sessions() {
        // Zero staged bytes must report a 0.0 prefetch accuracy, never NaN,
        // and no transfer time — both for a session released untouched and
        // for a prefetch-enabled engine whose sessions never staged.
        let mut eng = prefetch_engine(Bytes(512), PrefetchConfig::lookahead(Bytes(1 << 16)));
        let s = eng.create_session().unwrap();
        let r = eng.release(s).unwrap();
        assert_eq!(r.prefetch.accuracy(), 0.0);
        assert_eq!(r.transfer_time, Seconds::zero());
        // A full-attention session decodes without ever staging: same guard.
        let mut full = ServeEngine::builder(ModelConfig::tiny())
            .synthetic_weights(7)
            .budget(Budget::new(8))
            .policy(Box::new(FullAttentionFactory))
            .prefetch(PrefetchConfig::lookahead(Bytes(1 << 16)))
            .build()
            .unwrap();
        let s = full.create_session().unwrap();
        full.generate(s, &[1, 2, 3], 2).unwrap();
        let r = full.release(s).unwrap();
        assert_eq!(r.prefetch.accuracy(), 0.0);
        assert_eq!(r.hidden_transfer_time, Seconds::zero());
    }

    #[test]
    fn session_report_ratios_are_zero_not_nan_for_empty_sessions() {
        // Satellite guard: a session released before any token is forwarded
        // has zero tokens, zero cache traffic and zero demotions — the hit
        // rate must report 0.0, never NaN.
        let mut eng = tiny_serve(8);
        let s = eng.create_session().unwrap();
        let r = eng.release(s).unwrap();
        assert_eq!(r.context_len, 0);
        assert_eq!(r.cache_hit_rate(), 0.0);
        assert_eq!(r.compression, CompressionStats::default());
        // A resident-policy session that did run also keeps the paging
        // counters at zero (it never touched the cache or the tier).
        let mut full = ServeEngine::builder(ModelConfig::tiny())
            .synthetic_weights(7)
            .budget(Budget::new(8))
            .policy(Box::new(FullAttentionFactory))
            .build()
            .unwrap();
        let s = full.create_session().unwrap();
        full.generate(s, &[1, 2, 3], 2).unwrap();
        let r = full.release(s).unwrap();
        assert_eq!(r.cache_hit_rate(), 0.0);
        assert_eq!(r.compression, CompressionStats::default());
        assert_eq!(r.shared_prefix_tokens, 0);
    }

    #[test]
    fn prefix_pin_churn_leaves_no_leaked_pins() {
        // Satellite regression: create/pin/prefill/decode/release churn, in
        // both release orders, against a zero-retention store. Any pin the
        // engine failed to release would keep nodes alive (zero-refcount
        // nodes are evicted immediately at `Bytes(0)` capacity); any
        // double-unpin would panic on refcount underflow.
        let prompt: Vec<usize> = (0..16).map(|i| (i * 9 + 4) % 128).collect();
        let mut eng = ServeEngine::builder(ModelConfig::tiny())
            .synthetic_weights(7)
            .budget(Budget::new(8))
            .policy(Box::new(OracleTopKFactory))
            .prefix_store(Bytes(0))
            .build()
            .unwrap();
        for round in 0..4 {
            let a = eng.create_session().unwrap();
            let b = eng.create_session().unwrap();
            // Pin before prefill (admission-control order); b re-pins after
            // a's seal when coverage exists, exercising the pin swap.
            eng.pin_session_prefix(a, &prompt).unwrap();
            eng.prefill(a, &prompt).unwrap();
            eng.pin_session_prefix(b, &prompt).unwrap();
            eng.prefill(b, &prompt).unwrap();
            for _ in 0..2 {
                eng.decode_batch(&[a, b]).unwrap();
            }
            // Alternate release orders across rounds.
            let (first, second) = if round % 2 == 0 { (a, b) } else { (b, a) };
            eng.release(first).unwrap();
            eng.release(second).unwrap();
            let stats = eng.prefix_store_stats().unwrap();
            assert_eq!(
                stats.nodes, 0,
                "round {round}: all pins released ⇒ zero-retention store empties"
            );
            assert_eq!(stats.shared_bytes, Bytes(0), "round {round}");
        }
    }

    /// An engine with a real cluster cache and a fault plan: the paged
    /// test policy keeps the cache in play (resident pages give corruption
    /// a target) while a small budget keeps demand transfers flowing (so
    /// retries have traffic to re-send).
    fn tiny_faulty(budget: usize, plan: FaultPlan) -> ServeEngine {
        let builder = paged(Bytes(1 << 16)).budget(Budget::new(budget));
        builder.faults(plan).build().unwrap()
    }

    #[test]
    fn faults_never_change_token_streams() {
        // The central robustness invariant (DESIGN.md §11): fault injection
        // adds modeled time and checksum churn but the decoded stream is
        // byte-identical to the faults-off run, at every fault rate.
        let prompt: Vec<usize> = (0..24).map(|i| (i * 7 + 5) % 128).collect();
        let mut clean = tiny_faulty(6, FaultPlan::disabled());
        let c = clean.create_session().unwrap();
        clean.prefill(c, &prompt).unwrap();
        let clean_stream: Vec<usize> = (0..8)
            .map(|_| clean.decode_batch(&[c]).unwrap()[0].next_token)
            .collect();
        let clean_report = clean.release(c).unwrap();
        assert_eq!(clean_report.integrity, IntegrityStats::default());

        for rate in [0.05, 0.2, 0.6] {
            let mut eng = tiny_faulty(6, FaultPlan::uniform(11, rate));
            let s = eng.create_session().unwrap();
            eng.prefill(s, &prompt).unwrap();
            let stream: Vec<usize> = (0..8)
                .map(|_| eng.decode_batch(&[s]).unwrap()[0].next_token)
                .collect();
            assert_eq!(stream, clean_stream, "rate {rate}: stream diverged");
            let report = eng.release(s).unwrap();
            // Faults only ever add modeled time.
            assert!(
                report.modeled_decode_time.get() >= clean_report.modeled_decode_time.get(),
                "rate {rate}: faults made the modeled clock run backwards"
            );
            assert_eq!(
                report.integrity.silent_corruptions(),
                0,
                "rate {rate}: an injected corruption escaped the scrub"
            );
            assert_eq!(
                report.integrity.corruptions_repaired, report.integrity.corruptions_detected,
                "rate {rate}: a detected corruption was not repaired"
            );
        }
    }

    #[test]
    fn fault_schedules_are_bit_identical_across_runs() {
        let prompt: Vec<usize> = (0..20).map(|i| (i * 3 + 2) % 128).collect();
        let run = || {
            let mut eng = tiny_faulty(6, FaultPlan::uniform(42, 0.4));
            let s = eng.create_session().unwrap();
            eng.prefill(s, &prompt).unwrap();
            let stream: Vec<usize> = (0..6)
                .map(|_| eng.decode_batch(&[s]).unwrap()[0].next_token)
                .collect();
            let report = eng.release(s).unwrap();
            (
                stream,
                report.integrity,
                report.modeled_decode_time.get().to_bits(),
            )
        };
        let (s1, i1, t1) = run();
        let (s2, i2, t2) = run();
        assert_eq!(s1, s2);
        assert_eq!(i1, i2, "integrity accounting must be deterministic");
        assert_eq!(t1, t2, "modeled time must be bit-identical across runs");
        // A high uniform rate over 6 decode steps with live demand traffic
        // must actually fire: a plan that never injects is a broken plan.
        assert!(i1.transfer_retries > 0, "no retries at rate 0.4");
        assert!(i1.backoff_seconds > 0.0, "retries must charge backoff");
    }

    #[test]
    fn injected_corruptions_are_detected_and_repaired() {
        let prompt: Vec<usize> = (0..24).map(|i| (i * 5 + 1) % 128).collect();
        // corruption_rate = 0.45: fires on roughly half the decode steps.
        let mut eng = tiny_faulty(6, FaultPlan::uniform(3, 0.9));
        let s = eng.create_session().unwrap();
        eng.prefill(s, &prompt).unwrap();
        for _ in 0..10 {
            eng.decode_batch(&[s]).unwrap();
        }
        let integrity = eng.release(s).unwrap().integrity;
        assert!(
            integrity.corruptions_injected > 0,
            "corruption never fired at rate 0.45 over 10 steps"
        );
        assert_eq!(
            integrity.corruptions_detected, integrity.corruptions_injected,
            "every injected corruption must be caught by the scrub"
        );
        assert_eq!(
            integrity.corruptions_repaired, integrity.corruptions_detected,
            "every detected corruption must be repaired"
        );
        assert_eq!(integrity.silent_corruptions(), 0);
        assert!(integrity.verifications > 0);
    }

    #[test]
    fn prefix_adoption_verifies_and_repairs_shared_pages() {
        let prompt: Vec<usize> = (0..32).map(|i| (i * 5 + 3) % 128).collect();
        // Donate with a clean engine, adopt with corruption firing at
        // nearly every adoption decision.
        let plan = FaultPlan {
            corruption_rate: 0.9,
            ..FaultPlan::disabled().with_seed(5)
        };
        let mut eng = ServeEngine::builder(ModelConfig::tiny())
            .synthetic_weights(7)
            .budget(Budget::new(8))
            .policy(Box::new(OracleTopKFactory))
            .prefix_store(Bytes(1 << 20))
            .faults(plan)
            .build()
            .unwrap();
        let donor = eng.create_session().unwrap();
        eng.prefill(donor, &prompt).unwrap();
        let donor_stream: Vec<usize> = (0..4)
            .map(|_| eng.decode_batch(&[donor]).unwrap()[0].next_token)
            .collect();

        let adopter = eng.create_session().unwrap();
        eng.prefill(adopter, &prompt).unwrap();
        let adopter_stream: Vec<usize> = (0..4)
            .map(|_| eng.decode_batch(&[adopter]).unwrap()[0].next_token)
            .collect();
        assert_eq!(
            adopter_stream, donor_stream,
            "adoption-time corruption must never reach the adopted rows"
        );
        let integrity = eng.release(adopter).unwrap().integrity;
        assert!(
            integrity.verifications > 0,
            "adoption must verify shared-page seals"
        );
        assert!(
            integrity.corruptions_injected > 0,
            "corruption never fired at rate 0.9 across adopted pages"
        );
        assert_eq!(
            integrity.corruptions_detected,
            integrity.corruptions_injected
        );
        assert_eq!(
            integrity.corruptions_repaired,
            integrity.corruptions_detected
        );
        eng.release(donor).unwrap();
    }

    #[test]
    fn a_damaged_seal_block_is_caught_by_the_chunk_that_adopts_it() {
        use clusterkv_kvcache::prefix::SEAL_BLOCK_ROWS;
        let cfg = ModelConfig {
            max_context: 4 * SEAL_BLOCK_ROWS,
            ..ModelConfig::tiny()
        };
        // Two full seal blocks and a partial third, adopted one block-sized
        // chunk at a time.
        let prompt: Vec<usize> = (0..2 * SEAL_BLOCK_ROWS + 76)
            .map(|i| (i * 5 + 3) % 128)
            .collect();
        let mut eng = ServeEngine::builder(cfg)
            .synthetic_weights(7)
            .budget(Budget::new(8))
            .policy(Box::new(OracleTopKFactory))
            .prefix_store(Bytes(1 << 24))
            .build()
            .unwrap();
        let donor = eng.create_session().unwrap();
        eng.prefill(donor, &prompt).unwrap();
        let reference = eng.decode_batch(&[donor]).unwrap()[0].next_token;
        let store = eng.prefix.as_mut().unwrap();
        let (_, segments) = store.match_from(0, &prompt);
        assert_eq!(segments.len(), 1);
        let node = segments[0].node;
        assert!(store.corrupt_block(node, 1, 0, 1));

        let adopter = eng.create_session().unwrap();
        let pages = (cfg.num_layers * cfg.num_kv_heads) as u64;
        let mut verified = 0;
        for (chunk, piece) in prompt.chunks(SEAL_BLOCK_ROWS).enumerate() {
            eng.prefill_chunk(adopter, piece).unwrap();
            // Nothing decodes during prefill, so the adoption seam's counters
            // are the session's whole integrity record so far.
            let integrity = eng.sessions[&adopter.0].residency.integrity();
            // Each chunk hashes the one block its rows sit in, per page.
            verified += pages;
            assert_eq!(integrity.verifications, verified, "chunk {chunk}");
            let caught = u64::from(chunk >= 1);
            assert_eq!(integrity.corruptions_detected, caught, "chunk {chunk}");
            assert_eq!(integrity.corruptions_repaired, caught, "chunk {chunk}");
        }
        eng.finish_prefill(adopter).unwrap();
        assert_eq!(
            eng.session_prefix_tokens(adopter).unwrap().1,
            prompt.len() - 3,
            "every chunk fast-paths all but its recomputed last token"
        );
        // The repair resealed that block only, and nothing reached the rows.
        assert!(eng.prefix.as_ref().unwrap().page(node, 1, 0).verify());
        assert_eq!(
            eng.decode_batch(&[adopter]).unwrap()[0].next_token,
            reference
        );
    }

    #[test]
    fn reports_carry_the_caches_counters_and_steps_price_its_bytes() {
        // One owner of data movement: whatever the tier, prefetcher or
        // fault plan, a report's hit/miss and recalled-byte stats are the
        // session cache's own counters, and the demand bytes the steps priced
        // add up to what it recalled minus what staging had already moved.
        let prompt: Vec<usize> = (0..40).map(|i| (i * 7 + 5) % 128).collect();
        let engines = [
            ("lossless", clusterkv_like_engine(Bytes(512))),
            (
                "int4",
                block_paged_engine(true, CompressionConfig::int4(), Bytes(600)),
            ),
            (
                "lookahead",
                prefetch_engine(Bytes(512), PrefetchConfig::lookahead(Bytes(1 << 20))),
            ),
            ("faults", tiny_faulty(6, FaultPlan::uniform(3, 0.9))),
        ];
        for (name, mut eng) in engines {
            let s = eng.create_session().unwrap();
            eng.prefill(s, &prompt).unwrap();
            let (mut priced, mut retried) = (0, 0);
            for _ in 0..10 {
                eng.decode_batch(&[s]).unwrap();
                let step = eng.sessions[&s.0].residency.last_step();
                priced += step.demand_bytes().get();
                retried += step.retried.get();
            }
            assert_eq!(retried > 0, name == "faults", "{name}");
            let cache = eng.sessions[&s.0].residency.cache();
            let counted = cache.stats();
            let promoted = cache.prefetch_stats().used_bytes.get();
            assert!(counted.bytes_recalled.get() > 0, "{name}: nothing missed");
            assert_eq!(promoted > 0, name == "lookahead", "{name}");
            let live = eng.session_stats(s).unwrap();
            assert_eq!(live.cache, counted, "{name}");
            let report = eng.release(s).unwrap();
            assert_eq!(report.stats.cache, counted, "{name}");
            assert_eq!(
                priced,
                report.bytes_recalled().get() - promoted,
                "{name}: priced demand bytes"
            );
        }
    }

    #[test]
    fn oracle_with_large_budget_matches_full_attention() {
        // When the budget covers the whole context, top-k selection selects
        // everything and generation must match full attention exactly.
        let prompt = [5, 9, 13, 17, 21, 25];
        let mut eng = tiny_serve(512);
        let oracle = eng.create_session().unwrap();
        let full = eng.create_session_with(&FullAttentionFactory).unwrap();
        assert_eq!(
            eng.generate(oracle, &prompt, 5).unwrap(),
            eng.generate(full, &prompt, 5).unwrap()
        );
    }

    #[test]
    fn dense_layers_ignore_budget() {
        // Dense layers attend the whole context whatever the budget and do
        // no selection work: with only its second layer selective, an
        // oracle scores that layer's two heads over the 8 prompt keys; all
        // dense, it scores nothing and decodes as full attention does.
        let engine = |dense_layers| {
            let config = ModelConfig {
                dense_layers,
                ..ModelConfig::tiny()
            };
            let builder = ServeEngine::builder(config).synthetic_weights(7);
            let policy = Box::new(OracleTopKFactory);
            builder
                .budget(Budget::new(2))
                .policy(policy)
                .build()
                .unwrap()
        };
        let prompt = [1, 2, 3, 4, 5, 6, 7, 8];
        let mut half = engine(1);
        let s = half.create_session().unwrap();
        half.prefill(s, &prompt).unwrap();
        half.decode_step(s, 1).unwrap();
        assert_eq!(half.session_stats(s).unwrap().scored_vectors, 2 * 8);

        let mut dense = engine(2);
        let oracle = dense.create_session().unwrap();
        let full = dense.create_session_with(&FullAttentionFactory).unwrap();
        assert_eq!(
            dense.generate(oracle, &prompt, 4).unwrap(),
            dense.generate(full, &prompt, 4).unwrap()
        );
        assert_eq!(dense.session_stats(oracle).unwrap().scored_vectors, 0);

        // A dense layer attends the whole context contiguously, bit for bit
        // as a full-attention policy's gathered `0..n` plan does.
        let logit_bits = |mut eng: ServeEngine| {
            let s = eng.create_session_with(&FullAttentionFactory).unwrap();
            eng.prefill(s, &prompt).unwrap();
            (0..4)
                .flat_map(|_| eng.decode_batch(&[s]).unwrap().remove(0).logits)
                .map(f32::to_bits)
                .collect::<Vec<_>>()
        };
        assert_eq!(logit_bits(engine(2)), logit_bits(engine(0)));
    }

    #[test]
    fn degradation_hooks_are_safe_no_ops_without_their_tiers() {
        // Without a staging buffer there is nothing to shed; under a
        // lossless config there is nothing to demote. Both hooks must be
        // callable unconditionally by the scheduler's pressure ladder.
        let mut eng = tiny_faulty(6, FaultPlan::disabled());
        let s = eng.create_session().unwrap();
        eng.prefill(s, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        eng.decode_batch(&[s]).unwrap();
        assert_eq!(eng.shed_staging(s).unwrap(), Bytes(0));
        assert_eq!(eng.demote_session(s).unwrap(), 0);
        let ghost = SessionId(999);
        assert!(matches!(
            eng.shed_staging(ghost),
            Err(EngineError::UnknownSession(_))
        ));
        assert!(matches!(
            eng.demote_session(ghost),
            Err(EngineError::UnknownSession(_))
        ));
        // The stream is unaffected by ladder pokes.
        let next = eng.decode_batch(&[s]).unwrap()[0].next_token;
        let mut clean = tiny_faulty(6, FaultPlan::disabled());
        let c = clean.create_session().unwrap();
        clean.prefill(c, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        clean.decode_batch(&[c]).unwrap();
        assert_eq!(clean.decode_batch(&[c]).unwrap()[0].next_token, next);
    }

    #[test]
    fn builder_rejects_invalid_fault_plans() {
        let mut plan = FaultPlan::disabled();
        plan.corruption_rate = 1.5;
        assert!(matches!(
            ServeEngine::builder(ModelConfig::tiny())
                .faults(plan)
                .build(),
            Err(EngineError::InvalidConfig(_))
        ));
    }
}
