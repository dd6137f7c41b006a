//! Serving-API tests: batched multi-session decoding must be observationally
//! identical to sequential single-session inference, for ClusterKV and the
//! baselines, and the session lifecycle must isolate sequences completely.
//! The thread-count parity suite at the bottom additionally proves that the
//! rayon-backed engine produces byte-identical token streams, cache
//! accounting and modeled latency at 1, 2 and N worker threads.

mod common;

use clusterkv::{ClusterKvConfig, ClusterKvFactory};
use clusterkv_baselines::QuestFactory;
use clusterkv_kvcache::stats::PrefetchStats;
use clusterkv_kvcache::types::{Budget, Bytes};
use clusterkv_model::policy::SelectorFactory;
use clusterkv_model::{ModelConfig, PrefetchConfig, ServeEngine, SessionId};
use common::{thread_env_lock, with_thread_count};

const SEED: u64 = 21;
/// Past the ClusterKV decode-clustering period (8), so every run plans
/// against incrementally created clusters too.
const DECODE_STEPS: usize = 12;
const NUM_SESSIONS: usize = 4;

/// Every suite below runs on both: the multi-head `tiny` model (each query
/// head its own KV head) and a grouped-query one — 4 query heads over 2 KV
/// heads, so every policy's selector of a KV head plans for two query
/// heads.
fn shapes() -> [ModelConfig; 2] {
    let gqa = ModelConfig {
        num_heads: 4,
        num_kv_heads: 2,
        ..ModelConfig::tiny()
    };
    [ModelConfig::tiny(), gqa]
}

fn prompts() -> Vec<Vec<usize>> {
    (0..NUM_SESSIONS)
        .map(|s| {
            (0..32 + 4 * s)
                .map(|i| (i * (3 + s) + 7 * s) % 128)
                .collect()
        })
        .collect()
}

fn clusterkv_factory() -> ClusterKvFactory {
    ClusterKvFactory::new(
        ClusterKvConfig::default()
            .with_sink_tokens(4)
            .with_tokens_per_cluster(8)
            .with_decode_cluster_period(8)
            .with_decode_new_clusters(2),
    )
}

/// N sequential runs, each alone in an engine of its own.
fn sequential_streams(
    model: ModelConfig,
    factory: &dyn SelectorFactory,
    budget: usize,
) -> Vec<Vec<usize>> {
    prompts()
        .iter()
        .map(|prompt| {
            let mut engine = ServeEngine::builder(model)
                .synthetic_weights(SEED)
                .budget(Budget::new(budget))
                .build()
                .unwrap();
            let session = engine.create_session_with(factory).unwrap();
            engine.generate(session, prompt, DECODE_STEPS).unwrap()
        })
        .collect()
}

/// The same N sequences decoded concurrently, in lockstep, through
/// `decode_batch`.
fn batched_streams(
    model: ModelConfig,
    factory: &dyn SelectorFactory,
    budget: usize,
) -> Vec<Vec<usize>> {
    let mut engine = ServeEngine::builder(model)
        .synthetic_weights(SEED)
        .budget(Budget::new(budget))
        .build()
        .unwrap();
    let ids: Vec<SessionId> = (0..NUM_SESSIONS)
        .map(|_| engine.create_session_with(factory).unwrap())
        .collect();
    for (id, prompt) in ids.iter().zip(prompts()) {
        engine.prefill(*id, &prompt).unwrap();
    }
    let mut streams = vec![Vec::new(); NUM_SESSIONS];
    for _ in 0..DECODE_STEPS {
        let outs = engine.decode_batch(&ids).unwrap();
        for (stream, out) in streams.iter_mut().zip(&outs) {
            stream.push(out.next_token);
        }
    }
    for &id in &ids {
        engine.release(id).unwrap();
    }
    streams
}

#[test]
fn clusterkv_batched_decode_matches_sequential_runs() {
    for model in shapes() {
        let factory = clusterkv_factory();
        let sequential = sequential_streams(model, &factory, 24);
        let batched = batched_streams(model, &factory, 24);
        assert_eq!(
            batched, sequential,
            "ClusterKV: interleaved decode_batch must reproduce sequential streams byte for byte"
        );
        // The streams are genuinely distinct sequences, so the parity above is
        // not vacuous.
        assert!(
            sequential
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len()
                > 1,
            "prompts should produce distinct continuations: {sequential:?}"
        );
    }
}

#[test]
fn quest_batched_decode_matches_sequential_runs() {
    for model in shapes() {
        let factory = QuestFactory::default();
        let sequential = sequential_streams(model, &factory, 24);
        let batched = batched_streams(model, &factory, 24);
        assert_eq!(
            batched, sequential,
            "Quest: interleaved decode_batch must reproduce sequential streams byte for byte"
        );
    }
}

#[test]
fn batched_decode_is_invariant_to_batch_order() {
    for model in shapes() {
        let factory = clusterkv_factory();
        let forward = batched_streams(model, &factory, 24);

        // Decode the same sessions with the batch order reversed every step.
        let mut engine = ServeEngine::builder(model)
            .synthetic_weights(SEED)
            .budget(Budget::new(24))
            .policy(Box::new(factory))
            .build()
            .unwrap();
        let ids: Vec<SessionId> = (0..NUM_SESSIONS)
            .map(|_| engine.create_session().unwrap())
            .collect();
        for (id, prompt) in ids.iter().zip(prompts()) {
            engine.prefill(*id, &prompt).unwrap();
        }
        let mut streams = vec![Vec::new(); NUM_SESSIONS];
        let reversed: Vec<SessionId> = ids.iter().rev().copied().collect();
        for _ in 0..DECODE_STEPS {
            let outs = engine.decode_batch(&reversed).unwrap();
            for (out, &id) in outs.iter().zip(&reversed) {
                let idx = ids.iter().position(|&x| x == id).unwrap();
                streams[idx].push(out.next_token);
            }
        }
        assert_eq!(
            streams, forward,
            "batch order must not influence any session's stream"
        );
    }
}

#[test]
fn releasing_a_session_does_not_disturb_the_others() {
    for model in shapes() {
        let factory = clusterkv_factory();
        let reference = batched_streams(model, &factory, 24);

        let mut engine = ServeEngine::builder(model)
            .synthetic_weights(SEED)
            .budget(Budget::new(24))
            .policy(Box::new(factory))
            .build()
            .unwrap();
        let ids: Vec<SessionId> = (0..NUM_SESSIONS)
            .map(|_| engine.create_session().unwrap())
            .collect();
        for (id, prompt) in ids.iter().zip(prompts()) {
            engine.prefill(*id, &prompt).unwrap();
        }
        // Decode everything for half the steps, drop session 0, finish the rest.
        let half = DECODE_STEPS / 2;
        let mut streams = vec![Vec::new(); NUM_SESSIONS];
        for _ in 0..half {
            for (stream, out) in streams.iter_mut().zip(engine.decode_batch(&ids).unwrap()) {
                stream.push(out.next_token);
            }
        }
        let report = engine.release(ids[0]).unwrap();
        assert_eq!(report.generated_tokens, half);
        let rest = &ids[1..];
        for _ in half..DECODE_STEPS {
            for (stream, out) in streams[1..]
                .iter_mut()
                .zip(engine.decode_batch(rest).unwrap())
            {
                stream.push(out.next_token);
            }
        }
        for s in 1..NUM_SESSIONS {
            assert_eq!(
                streams[s], reference[s],
                "session {s} diverged after a release"
            );
        }
    }
}

#[test]
fn policy_configs_are_validated_before_any_session_is_built() {
    // Each of these would divide by a zero cluster size at the first
    // prefill or trip an `assert!` while its selectors are built, so the
    // engine rejects it with `InvalidConfig` up front, as the builder's
    // default and when a session names it.
    use clusterkv_baselines::{H2oFactory, InfiniGenFactory};
    use clusterkv_model::EngineError;
    let invalid: [Box<dyn SelectorFactory>; 4] = [
        Box::new(ClusterKvFactory::new(
            ClusterKvConfig::default().with_tokens_per_cluster(0),
        )),
        Box::new(QuestFactory::new(0)),
        Box::new(H2oFactory::new(1.5)),
        Box::new(InfiniGenFactory::new(0.0)),
    ];
    for factory in invalid {
        let name = factory.name().to_string();
        let mut engine = ServeEngine::builder(ModelConfig::tiny()).build().unwrap();
        assert!(
            matches!(
                engine.create_session_with(factory.as_ref()),
                Err(EngineError::InvalidConfig(_))
            ),
            "{name}: explicit policy"
        );
        assert_eq!(engine.num_sessions(), 0, "{name}");
        assert!(
            matches!(
                ServeEngine::builder(ModelConfig::tiny())
                    .policy(factory)
                    .build(),
                Err(EngineError::InvalidConfig(_))
            ),
            "{name}: default policy"
        );
    }
}

/// The same N sequences decoded one by one, each in its own engine with the
/// given cluster-cache capacity.
fn sequential_streams_with_cache(
    model: ModelConfig,
    factory: &dyn SelectorFactory,
    budget: usize,
    capacity: Bytes,
) -> Vec<Vec<usize>> {
    prompts()
        .iter()
        .map(|prompt| {
            let mut engine = ServeEngine::builder(model)
                .synthetic_weights(SEED)
                .budget(Budget::new(budget))
                .kv_cache_capacity(capacity)
                .build()
                .unwrap();
            let id = engine.create_session_with(factory).unwrap();
            engine.generate(id, prompt, DECODE_STEPS).unwrap()
        })
        .collect()
}

/// The same N sequences decoded concurrently through `decode_batch`, with
/// the given cluster-cache capacity.
fn batched_streams_with_cache(
    model: ModelConfig,
    factory: &dyn SelectorFactory,
    budget: usize,
    capacity: Bytes,
) -> Vec<Vec<usize>> {
    let mut engine = ServeEngine::builder(model)
        .synthetic_weights(SEED)
        .budget(Budget::new(budget))
        .kv_cache_capacity(capacity)
        .build()
        .unwrap();
    let ids: Vec<SessionId> = (0..NUM_SESSIONS)
        .map(|_| engine.create_session_with(factory).unwrap())
        .collect();
    for (id, prompt) in ids.iter().zip(prompts()) {
        engine.prefill(*id, &prompt).unwrap();
    }
    let mut streams = vec![Vec::new(); NUM_SESSIONS];
    for _ in 0..DECODE_STEPS {
        let outs = engine.decode_batch(&ids).unwrap();
        for (stream, out) in streams.iter_mut().zip(&outs) {
            stream.push(out.next_token);
        }
    }
    streams
}

#[test]
fn token_streams_are_invariant_to_cluster_cache_residency() {
    for model in shapes() {
        // Residency is accounting and latency only: enabling the cluster cache
        // (at any capacity) must leave every decode token stream byte-identical,
        // for the cluster-paged policy and the page-paged baseline, across both
        // batched and sequential decoding.
        let clusterkv = clusterkv_factory();
        let quest = QuestFactory::default();
        let factories: [&dyn SelectorFactory; 2] = [&clusterkv, &quest];
        // Disabled (pure offload), a tight cache and an effectively infinite one.
        let capacities = [Bytes(0), Bytes(2 * 24 * 32), Bytes(1 << 22)];
        for factory in factories {
            let reference = sequential_streams(model, factory, 24);
            assert!(
                reference.iter().any(|s| !s.is_empty()),
                "reference streams must be non-trivial"
            );
            for capacity in capacities {
                let sequential = sequential_streams_with_cache(model, factory, 24, capacity);
                assert_eq!(
                    sequential,
                    reference,
                    "{}: sequential streams changed with cache capacity {capacity}",
                    factory.name()
                );
                let batched = batched_streams_with_cache(model, factory, 24, capacity);
                assert_eq!(
                    batched,
                    reference,
                    "{}: batched streams changed with cache capacity {capacity}",
                    factory.name()
                );
            }
        }
    }
}

#[test]
fn cached_sessions_report_hits_and_reduced_recall_traffic() {
    for model in shapes() {
        let factory = clusterkv_factory();
        let stats_at = |capacity: Bytes| {
            let mut engine = ServeEngine::builder(model)
                .synthetic_weights(SEED)
                .budget(Budget::new(24))
                .kv_cache_capacity(capacity)
                .build()
                .unwrap();
            let id = engine.create_session_with(&factory).unwrap();
            engine.generate(id, &prompts()[0], DECODE_STEPS).unwrap();
            engine.release(id).unwrap()
        };
        let offload = stats_at(Bytes(0));
        let cached = stats_at(Bytes(1 << 22));
        assert_eq!(offload.stats.cache.hits, 0);
        assert!(offload.stats.cache.misses > 0);
        assert!(cached.cache_hit_rate() > offload.cache_hit_rate());
        assert!(
            cached.bytes_recalled() < offload.bytes_recalled(),
            "cache must cut recalled bytes: {} vs {}",
            cached.bytes_recalled(),
            offload.bytes_recalled()
        );
        assert!(cached.modeled_decode_time < offload.modeled_decode_time);
    }
}

#[test]
fn per_session_stats_match_single_session_runs() {
    for model in shapes() {
        let factory = clusterkv_factory();
        // Single-session reference stats.
        let mut single = ServeEngine::builder(model)
            .synthetic_weights(SEED)
            .budget(Budget::new(24))
            .build()
            .unwrap();
        let alone = single.create_session_with(&factory).unwrap();
        let prompt = &prompts()[0];
        single.generate(alone, prompt, DECODE_STEPS).unwrap();
        let reference = single.session_stats(alone).unwrap();
        assert!(reference.scored_vectors > 0);

        // The same sequence decoded in a busy engine accumulates identical
        // per-session stats.
        let mut engine = ServeEngine::builder(model)
            .synthetic_weights(SEED)
            .budget(Budget::new(24))
            .policy(Box::new(factory))
            .build()
            .unwrap();
        let ids: Vec<SessionId> = (0..NUM_SESSIONS)
            .map(|_| engine.create_session().unwrap())
            .collect();
        for (id, p) in ids.iter().zip(prompts()) {
            engine.prefill(*id, &p).unwrap();
        }
        for _ in 0..DECODE_STEPS {
            engine.decode_batch(&ids).unwrap();
        }
        assert_eq!(engine.session_stats(ids[0]).unwrap(), reference);
        let report = engine.release(ids[0]).unwrap();
        assert_eq!(report.stats, reference);
    }
}

/// Everything one mixed-policy run produces that must be invariant to the
/// worker-thread count.
#[derive(Debug, PartialEq)]
struct MixedRunObservables {
    streams: Vec<Vec<usize>>,
    hits: Vec<u64>,
    misses: Vec<u64>,
    bytes_recalled: Vec<u64>,
    /// Bit patterns of each session's modeled decode time (exact f64 parity).
    modeled_bits: Vec<u64>,
    /// Bit patterns of each session's cache hit rate.
    hit_rate_bits: Vec<u64>,
}

/// The mixed-policy multi-session scenario: ClusterKV and Quest sessions
/// side by side in one engine with a bounded cluster cache, decoded in
/// lockstep through `decode_batch`.
fn mixed_policy_run(model: ModelConfig, batched: bool) -> MixedRunObservables {
    let clusterkv = clusterkv_factory();
    let quest = QuestFactory::default();
    let mut engine = ServeEngine::builder(model)
        .synthetic_weights(SEED)
        .budget(Budget::new(24))
        .kv_cache_capacity(Bytes(2 * 24 * 32))
        .build()
        .unwrap();
    let ids: Vec<SessionId> = (0..NUM_SESSIONS)
        .map(|s| {
            if s % 2 == 0 {
                engine.create_session_with(&clusterkv).unwrap()
            } else {
                engine.create_session_with(&quest).unwrap()
            }
        })
        .collect();
    for (id, prompt) in ids.iter().zip(prompts()) {
        engine.prefill(*id, &prompt).unwrap();
    }
    let mut streams = vec![Vec::new(); NUM_SESSIONS];
    if batched {
        for _ in 0..DECODE_STEPS {
            let outs = engine.decode_batch(&ids).unwrap();
            for (stream, out) in streams.iter_mut().zip(&outs) {
                stream.push(out.next_token);
            }
        }
    } else {
        for (stream, &id) in streams.iter_mut().zip(&ids) {
            for _ in 0..DECODE_STEPS {
                stream.push(engine.decode_batch(&[id]).unwrap()[0].next_token);
            }
        }
    }
    let mut observables = MixedRunObservables {
        streams,
        hits: Vec::new(),
        misses: Vec::new(),
        bytes_recalled: Vec::new(),
        modeled_bits: Vec::new(),
        hit_rate_bits: Vec::new(),
    };
    for &id in &ids {
        let report = engine.release(id).unwrap();
        observables.hits.push(report.stats.cache.hits);
        observables.misses.push(report.stats.cache.misses);
        observables.bytes_recalled.push(report.bytes_recalled().0);
        observables
            .modeled_bits
            .push(report.modeled_decode_time.get().to_bits());
        observables
            .hit_rate_bits
            .push(report.cache_hit_rate().to_bits());
    }
    observables
}

/// Everything one run produces that must be invariant to how the prompt was
/// chunked during prefill: the decode streams, the per-session policy stats
/// (selection work), and the full cache/transfer/latency accounting.
#[derive(Debug, PartialEq)]
struct ChunkedRunObservables {
    streams: Vec<Vec<usize>>,
    scored: Vec<u64>,
    hits: Vec<u64>,
    misses: Vec<u64>,
    bytes_recalled: Vec<u64>,
    modeled_bits: Vec<u64>,
}

/// Decode `DECODE_STEPS` for `NUM_SESSIONS` sessions whose prompts were
/// prefilled in chunks of `chunk` tokens (`None` = monolithic `prefill`),
/// under a bounded cluster cache so residency accounting is non-trivial.
fn chunked_prefill_run(
    model: ModelConfig,
    factory: &dyn SelectorFactory,
    chunk: Option<usize>,
) -> ChunkedRunObservables {
    let mut engine = ServeEngine::builder(model)
        .synthetic_weights(SEED)
        .budget(Budget::new(24))
        .kv_cache_capacity(Bytes(2 * 24 * 32))
        .build()
        .unwrap();
    let ids: Vec<SessionId> = (0..NUM_SESSIONS)
        .map(|_| engine.create_session_with(factory).unwrap())
        .collect();
    for (id, prompt) in ids.iter().zip(prompts()) {
        match chunk {
            None => {
                engine.prefill(*id, &prompt).unwrap();
            }
            Some(size) => {
                for piece in prompt.chunks(size) {
                    engine.prefill_chunk(*id, piece).unwrap();
                }
                engine.finish_prefill(*id).unwrap();
            }
        }
    }
    let mut streams = vec![Vec::new(); NUM_SESSIONS];
    for _ in 0..DECODE_STEPS {
        let outs = engine.decode_batch(&ids).unwrap();
        for (stream, out) in streams.iter_mut().zip(&outs) {
            stream.push(out.next_token);
        }
    }
    let mut observables = ChunkedRunObservables {
        streams,
        scored: Vec::new(),
        hits: Vec::new(),
        misses: Vec::new(),
        bytes_recalled: Vec::new(),
        modeled_bits: Vec::new(),
    };
    for &id in &ids {
        let report = engine.release(id).unwrap();
        observables.scored.push(report.stats.scored_vectors);
        observables.hits.push(report.stats.cache.hits);
        observables.misses.push(report.stats.cache.misses);
        observables.bytes_recalled.push(report.bytes_recalled().0);
        observables
            .modeled_bits
            .push(report.modeled_decode_time.get().to_bits());
    }
    observables
}

#[test]
fn chunked_prefill_parity_across_chunk_sizes_and_threads() {
    for model in shapes() {
        // The acceptance gate of the chunked-prefill refactor: for the
        // cluster-paged policy (prefill clustering reconciles on the final
        // chunk) and the page-paged baseline (naturally incremental), any chunk
        // size — including chunk 1 and one chunk covering the whole prompt —
        // must reproduce the monolithic prefill byte for byte: token streams,
        // selector stats, cache hit accounting and modeled latency, at every
        // worker-thread count.
        let _guard = thread_env_lock();
        let clusterkv = clusterkv_factory();
        let quest = QuestFactory::default();
        let factories: [&dyn SelectorFactory; 2] = [&clusterkv, &quest];
        for factory in factories {
            let reference = with_thread_count(1, || chunked_prefill_run(model, factory, None));
            assert!(
                reference.streams.iter().all(|s| s.len() == DECODE_STEPS),
                "scenario must be non-trivial"
            );
            assert!(
                reference.misses.iter().any(|&m| m > 0),
                "{}: the bounded cache must produce recall traffic for the \
             accounting parity to be meaningful",
                factory.name()
            );
            for threads in [1usize, 2, 8] {
                for chunk in [1usize, 7, 64, usize::MAX] {
                    let run = with_thread_count(threads, || {
                        chunked_prefill_run(model, factory, Some(chunk))
                    });
                    assert_eq!(
                        run,
                        reference,
                        "{}: chunked prefill (chunk {chunk}, {threads} threads) \
                     diverged from monolithic prefill",
                        factory.name()
                    );
                }
            }
        }
    }
}

#[test]
fn thread_count_parity_for_batched_mixed_policy_decode() {
    for model in shapes() {
        let _guard = thread_env_lock();
        // 1 worker, 2 workers, and more workers than sessions (forcing chunk
        // sizes of one session each plus idle capacity).
        let reference = with_thread_count(1, || mixed_policy_run(model, true));
        assert!(
            reference.streams.iter().any(|s| !s.is_empty()),
            "scenario must be non-trivial"
        );
        assert!(
            reference.misses.iter().any(|&m| m > 0),
            "the tight cache must produce recall traffic for parity to be meaningful"
        );
        for threads in [2usize, 8] {
            let run = with_thread_count(threads, || mixed_policy_run(model, true));
            assert_eq!(
                run, reference,
                "streams / hit rates / recalled bytes diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn thread_count_parity_between_batched_and_sequential_decode() {
    for model in shapes() {
        let _guard = thread_env_lock();
        // Batched at N threads == session-at-a-time at 1 thread: the full
        // contract of the parallel engine in one assertion.
        let sequential_1 = with_thread_count(1, || mixed_policy_run(model, false));
        for threads in [2usize, 4] {
            let batched_n = with_thread_count(threads, || mixed_policy_run(model, true));
            assert_eq!(
                batched_n, sequential_1,
                "batched {threads}-thread decode must reproduce 1-thread sequential decode"
            );
        }
    }
}

/// Shared-template prompts for the prefix-store parity case: three users
/// over one 24-token template (each with a distinct suffix) plus one
/// unrelated prompt, so a single run exercises the store's hit, divergence
/// and miss paths.
fn prefix_prompts() -> Vec<Vec<usize>> {
    let template: Vec<usize> = (0..24).map(|i| (i * 5 + 11) % 128).collect();
    let mut prompts: Vec<Vec<usize>> = (0..3)
        .map(|user| {
            let mut p = template.clone();
            p.extend((0..8).map(|i| (i * 13 + 29 * (user + 1)) % 128));
            p
        })
        .collect();
    prompts.push((0..20).map(|i| (i * 9 + 3) % 128).collect());
    prompts
}

/// Serve the shared-template prompts session-at-a-time: chunked prefill
/// (monolithic when `chunk == 0`), then `DECODE_STEPS` decode steps. Later
/// sessions reuse whatever earlier sessions donated to the prefix store.
/// Returns the token streams plus how many prompt positions the store
/// fast-pathed in total.
fn prefix_run(model: ModelConfig, store: bool, chunk: usize) -> (Vec<Vec<usize>>, usize) {
    let factory = clusterkv_factory();
    let mut builder = ServeEngine::builder(model)
        .synthetic_weights(SEED)
        .budget(Budget::new(24));
    if store {
        builder = builder.prefix_store(Bytes(1 << 20));
    }
    let mut engine = builder.build().unwrap();
    let mut streams = Vec::new();
    let mut fastpathed = 0;
    for prompt in prefix_prompts() {
        let id = engine.create_session_with(&factory).unwrap();
        if chunk == 0 {
            engine.prefill(id, &prompt).unwrap();
        } else {
            for piece in prompt.chunks(chunk) {
                engine.prefill_chunk(id, piece).unwrap();
            }
            engine.finish_prefill(id).unwrap();
        }
        let (_, fast) = engine.session_prefix_tokens(id).unwrap();
        fastpathed += fast;
        let mut stream = Vec::with_capacity(DECODE_STEPS);
        for _ in 0..DECODE_STEPS {
            stream.push(engine.decode_batch(&[id]).unwrap()[0].next_token);
        }
        streams.push(stream);
    }
    (streams, fastpathed)
}

#[test]
fn prefix_store_parity_across_chunkings_and_threads() {
    for model in shapes() {
        // The acceptance gate of cross-session prefix sharing: with the store
        // enabled, sessions that reuse shared KV pages (and adopt donated
        // clustering state) must generate exactly what cold sessions generate —
        // at every chunking and every worker-thread count.
        let _guard = thread_env_lock();
        let (reference, _) = with_thread_count(1, || prefix_run(model, false, 0));
        assert!(
            reference
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len()
                > 1,
            "prompts should produce distinct continuations"
        );
        for store in [false, true] {
            for chunk in [0usize, 5, 24] {
                for threads in [1usize, 2, 8] {
                    let (streams, fastpathed) =
                        with_thread_count(threads, || prefix_run(model, store, chunk));
                    assert_eq!(
                        streams, reference,
                        "prefix store parity broke (store {store}, chunk {chunk}, \
                     {threads} threads)"
                    );
                    if store && chunk != 0 {
                        assert!(
                            fastpathed > 0,
                            "store must fast-path shared positions (chunk {chunk}, \
                         {threads} threads)"
                        );
                    }
                }
            }
        }
    }
}

/// Like [`chunked_prefill_run`] but with speculative prefetch configured on
/// the engine; returns the shared observables plus the run's merged
/// prefetch counters (which are *not* part of the parity comparison — they
/// are what prefetch is allowed to change).
fn prefetch_chunked_run(
    model: ModelConfig,
    factory: &dyn SelectorFactory,
    chunk: Option<usize>,
    prefetch: PrefetchConfig,
) -> (ChunkedRunObservables, PrefetchStats) {
    let mut engine = ServeEngine::builder(model)
        .synthetic_weights(SEED)
        .budget(Budget::new(24))
        .kv_cache_capacity(Bytes(2 * 24 * 32))
        .prefetch(prefetch)
        .build()
        .unwrap();
    let ids: Vec<SessionId> = (0..NUM_SESSIONS)
        .map(|_| engine.create_session_with(factory).unwrap())
        .collect();
    for (id, prompt) in ids.iter().zip(prompts()) {
        match chunk {
            None => {
                engine.prefill(*id, &prompt).unwrap();
            }
            Some(size) => {
                for piece in prompt.chunks(size) {
                    engine.prefill_chunk(*id, piece).unwrap();
                }
                engine.finish_prefill(*id).unwrap();
            }
        }
    }
    let mut streams = vec![Vec::new(); NUM_SESSIONS];
    for _ in 0..DECODE_STEPS {
        let outs = engine.decode_batch(&ids).unwrap();
        for (stream, out) in streams.iter_mut().zip(&outs) {
            stream.push(out.next_token);
        }
    }
    let mut observables = ChunkedRunObservables {
        streams,
        scored: Vec::new(),
        hits: Vec::new(),
        misses: Vec::new(),
        bytes_recalled: Vec::new(),
        modeled_bits: Vec::new(),
    };
    let mut stats = PrefetchStats::new();
    for &id in &ids {
        let report = engine.release(id).unwrap();
        observables.scored.push(report.stats.scored_vectors);
        observables.hits.push(report.stats.cache.hits);
        observables.misses.push(report.stats.cache.misses);
        observables.bytes_recalled.push(report.bytes_recalled().0);
        observables
            .modeled_bits
            .push(report.modeled_decode_time.get().to_bits());
        stats.merge(&report.prefetch);
    }
    (observables, stats)
}

#[test]
fn prefetch_parity_across_chunkings_threads_and_policies() {
    for model in shapes() {
        // The hard invariant of the speculative prefetcher: staging changes
        // *when* bytes move, never *what* attends. Token streams, selection
        // work, hit/miss counts and recalled bytes must match a
        // prefetch-disabled engine, at every prefill chunking, every
        // worker-thread count, for the cluster-paged policy and the page-paged
        // baseline alike; only the modeled clock may move.
        let _guard = thread_env_lock();
        let staging = Bytes(1 << 20);
        let clusterkv = clusterkv_factory();
        let quest = QuestFactory::default();
        let factories: [&dyn SelectorFactory; 2] = [&clusterkv, &quest];
        for factory in factories {
            let (reference, off_stats) = with_thread_count(1, || {
                prefetch_chunked_run(model, factory, None, PrefetchConfig::disabled())
            });
            assert_eq!(
                off_stats,
                PrefetchStats::new(),
                "{}: a disabled engine must not touch the staging buffer",
                factory.name()
            );
            assert!(
                reference.misses.iter().any(|&m| m > 0),
                "{}: the bounded cache must produce recall traffic, or the \
             parity below is vacuous",
                factory.name()
            );
            // Staging statistics must themselves be deterministic: identical at
            // every (chunk, threads) grid point, because nominations are
            // collected in the sequential phase-2 head order and staged with
            // deterministic LRU stamps.
            let mut staging_stats: Option<PrefetchStats> = None;
            for threads in [1usize, 2, 8] {
                for chunk in [1usize, 7, 64, usize::MAX] {
                    let (on, stats) = with_thread_count(threads, || {
                        prefetch_chunked_run(
                            model,
                            factory,
                            Some(chunk),
                            PrefetchConfig::lookahead(staging),
                        )
                    });
                    assert_eq!(
                        on.streams,
                        reference.streams,
                        "{}: prefetch changed token streams (chunk {chunk}, \
                     {threads} threads)",
                        factory.name()
                    );
                    assert_eq!(
                        (&on.scored, &on.hits, &on.misses, &on.bytes_recalled),
                        (
                            &reference.scored,
                            &reference.hits,
                            &reference.misses,
                            &reference.bytes_recalled
                        ),
                        "{}: prefetch changed cache accounting (chunk {chunk}, \
                     {threads} threads)",
                        factory.name()
                    );
                    assert!(
                        stats.staged_pages > 0 && stats.used_pages > 0,
                        "{}: pages must be staged and promoted for the parity \
                     to be meaningful (chunk {chunk})",
                        factory.name()
                    );
                    match &staging_stats {
                        None => staging_stats = Some(stats),
                        Some(first) => assert_eq!(
                            &stats,
                            first,
                            "{}: staging counters drifted across the grid \
                         (chunk {chunk}, {threads} threads)",
                            factory.name()
                        ),
                    }
                }
            }
        }
    }
}
