//! Clustering is per KV head: on grouped-query shapes one semantic index
//! serves the query heads of its group, while multi-head shapes and every
//! baseline stay bit-identical to the commit before the index/planner split
//! (the digests below were printed by that commit running this scenario).

mod common;

use clusterkv::{ClusterIndex, ClusterKvConfig, ClusterKvFactory};
use clusterkv_baselines::BaselineKind;
use clusterkv_faults::{FaultPlan, Fnv64};
use clusterkv_kvcache::types::{Budget, Bytes};
use clusterkv_kvcache::CompressionConfig;
use clusterkv_model::policy::{
    GroupIndex, HeadContext, KvResidency, ObserveEvent, PageRequest, SelectionPlan,
    SelectionRequest, SelectorFactory, SelectorGroup, SharedPrefixState, TokenSelector,
};
use clusterkv_model::{ModelConfig, PrefetchConfig, ServeEngine, ServeEngineBuilder};
use clusterkv_tensor::kernels::Workspace;
use clusterkv_tensor::rng::{derive_seed, gaussian_vec, seeded};
use clusterkv_tensor::Matrix;
use common::{thread_env_lock, with_thread_count};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const DECODE_STEPS: usize = 20;

/// Three layers, the first dense, `heads` query heads over `kv_heads` KV
/// heads.
fn model(heads: usize, kv_heads: usize) -> ModelConfig {
    ModelConfig {
        num_layers: 3,
        num_heads: heads,
        num_kv_heads: kv_heads,
        head_dim: 8,
        ffn_dim: 32,
        vocab_size: 128,
        max_context: 1024,
        dense_layers: 1,
    }
}

fn ckv_config() -> ClusterKvConfig {
    ClusterKvConfig::default()
        .with_sink_tokens(4)
        .with_tokens_per_cluster(8)
        .with_decode_cluster_period(8)
        .with_decode_new_clusters(2)
}

fn prompt(len: usize) -> Vec<usize> {
    (0..len).map(|i| (i * 7 + 3) % 128).collect()
}

fn engine(model: ModelConfig) -> ServeEngineBuilder {
    ServeEngine::builder(model)
        .synthetic_weights(21)
        .budget(Budget::new(24))
        .kv_cache_capacity(Bytes(2 * 24 * 32))
}

/// Two sessions over one prompt — the first prefilled in `chunk`-token
/// pieces, the second in one piece (adopting whatever the store holds) —
/// decoded in lockstep. Digest of both token streams and both
/// `SessionReport`s.
fn run_digest(
    builder: ServeEngineBuilder,
    factory: &dyn SelectorFactory,
    prompt: &[usize],
    chunk: usize,
) -> u64 {
    let mut engine = builder.build().unwrap();
    let a = engine.create_session_with(factory).unwrap();
    for piece in prompt.chunks(chunk) {
        engine.prefill_chunk(a, piece).unwrap();
    }
    engine.finish_prefill(a).unwrap();
    let b = engine.create_session_with(factory).unwrap();
    engine.prefill(b, prompt).unwrap();
    let mut h = Fnv64::new();
    for _ in 0..DECODE_STEPS {
        for out in engine.decode_batch(&[a, b]).unwrap() {
            h.write_u64(out.next_token as u64);
        }
    }
    for id in [a, b] {
        let report = engine.release(id).unwrap();
        h.write_bytes(format!("{report:?}").as_bytes());
    }
    h.finish()
}

/// The scenario the pinned digests were taken from.
fn pinned_scenario(model: ModelConfig, factory: &dyn SelectorFactory) -> u64 {
    run_digest(
        engine(model).prefix_store(Bytes(1 << 20)),
        factory,
        &prompt(64),
        16,
    )
}

#[test]
fn mha_clusterkv_is_bit_identical_to_the_parent_commit() {
    // With one query head per KV head the index of `(layer, kv_head)` is
    // what the selector of `(layer, head)` was: same seed, same clusters,
    // same plans, same reports.
    let ckv = ClusterKvFactory::new(ckv_config());
    assert_eq!(pinned_scenario(model(2, 2), &ckv), 0x192e_7865_c1bb_fc8c);

    // Fingerprint and clustering bits of single heads, as the parent's
    // per-head selectors exported them.
    let keys = Matrix::from_flat(60, 8, gaussian_vec(&mut seeded(9), 60 * 8, 0.0, 1.0)).unwrap();
    let pinned: [((usize, usize), u64, u64); 3] = [
        ((0, 0), 0x4876_7416_1ccb_2b5a, 0xea72_3777_ac23_c5a3),
        ((1, 1), 0xc0ff_d4eb_4b3e_6cc9, 0x40e9_dfb9_dd59_a3da),
        ((2, 3), 0x6ab0_6cd9_2416_5b05, 0x9d59_37fe_83ab_ee9c),
    ];
    for ((layer, head), fingerprint, clustering) in pinned {
        let SelectorGroup::Shared { mut index, .. } =
            ckv.create_group(HeadContext::mha(layer, head, 8))
        else {
            panic!("ClusterKV groups share an index");
        };
        index.observe(ObserveEvent::PrefillChunk {
            start: 0,
            keys: &keys,
        });
        index.observe(ObserveEvent::PrefillDone { total_tokens: 60 });
        let state = index.export_prefill_state().unwrap();
        assert_eq!(state.fingerprint, fingerprint, "head ({layer}, {head})");

        // The documented seed derivation, spelled out: an index built with
        // it adopts the factory-built one's state (equal fingerprints) and
        // clusters to the pinned bits itself.
        let seed = derive_seed(ckv_config().seed, (layer as u64) << 16 | head as u64);
        let mut twin = ClusterIndex::new(ckv_config().with_seed(seed), 8);
        assert!(twin.adopt_prefill_state(&state, 60));
        let mut own = ClusterIndex::new(ckv_config().with_seed(seed), 8);
        own.observe(ObserveEvent::PrefillChunk {
            start: 0,
            keys: &keys,
        });
        own.observe(ObserveEvent::PrefillDone { total_tokens: 60 });
        for index in [&twin, &own] {
            assert_eq!(
                clustering_digest(index),
                clustering,
                "head ({layer}, {head})"
            );
        }
    }
}

fn clustering_digest(index: &ClusterIndex) -> u64 {
    let sc = index.clustering();
    let mut h = Fnv64::new();
    h.write_f32s(sc.centroids().as_slice());
    h.write_f32s(sc.centroid_norms());
    for c in 0..sc.num_clusters() {
        for &t in sc.metadata().cluster_tokens(c) {
            h.write_u64(t as u64);
        }
    }
    h.finish()
}

#[test]
fn baselines_are_bit_identical_to_the_parent_commit() {
    // The default `create_group` hands every query head the selector
    // `create` always built for it, on grouped-query and multi-head shapes
    // alike.
    let pinned: [(BaselineKind, u64, u64); 5] = [
        (
            BaselineKind::Quest,
            0x950c_26f0_aca4_b6d8,
            0xc5c7_3279_2927_88c8,
        ),
        (
            BaselineKind::InfiniGen,
            0x2382_a126_694b_2b88,
            0xce9d_a17f_b01a_78b0,
        ),
        (
            BaselineKind::H2o,
            0xdb20_71e8_f07a_3fc8,
            0x6d3b_7238_3f1b_6ae8,
        ),
        (
            BaselineKind::StreamingLlm,
            0xb225_0063_73cb_b728,
            0x806f_44c0_824e_2de0,
        ),
        (
            BaselineKind::FullKv,
            0x5cd3_9694_5c14_2f48,
            0x6e82_d9c2_aa2e_acda,
        ),
    ];
    for (kind, gqa, mha) in pinned {
        let factory = kind.factory();
        assert_eq!(
            pinned_scenario(model(4, 2), factory.as_ref()),
            gqa,
            "{kind} 4:2"
        );
        assert_eq!(
            pinned_scenario(model(2, 2), factory.as_ref()),
            mha,
            "{kind} 2:2"
        );
    }
}

/// How often the indexes a factory built ran their prompt clustering
/// (`PrefillDone`, where the k-means runs) or adopted another session's,
/// and which pages had their membership read — what the engine does exactly
/// when it quantizes a page.
#[derive(Default)]
struct SealCounts {
    clustered: AtomicUsize,
    adopted: AtomicUsize,
    /// `(layer, kv_head, page)` of every `page_members` call, in call order.
    members_read: Mutex<Vec<(usize, usize, usize)>>,
    /// Pages of the last table each `(layer, kv_head)` index reported.
    table_len: Mutex<BTreeMap<(usize, usize), usize>>,
}

/// A [`ClusterIndex`] behind a counter.
struct CountedIndex {
    inner: Box<dyn GroupIndex>,
    counts: Arc<SealCounts>,
    /// The `(layer, kv_head)` the index serves.
    at: (usize, usize),
}

impl GroupIndex for CountedIndex {
    fn observe(&mut self, event: ObserveEvent<'_>) {
        if matches!(event, ObserveEvent::PrefillDone { .. }) {
            self.counts.clustered.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.observe(event);
    }
    fn plan(&self, request: SelectionRequest<'_>, scratch: &mut Workspace) -> SelectionPlan {
        self.inner.plan(request, scratch)
    }
    fn prefetch_hint(
        &self,
        request: SelectionRequest<'_>,
        lookahead_tokens: usize,
        scratch: &mut Workspace,
    ) -> Vec<PageRequest> {
        self.inner.prefetch_hint(request, lookahead_tokens, scratch)
    }
    fn page_table(&self) -> KvResidency {
        let table = self.inner.page_table();
        let pages = table.page_requests().map_or(0, <[PageRequest]>::len);
        self.counts.table_len.lock().unwrap().insert(self.at, pages);
        table
    }
    fn page_members(&self, page: usize) -> &[usize] {
        let (layer, kv_head) = self.at;
        self.counts
            .members_read
            .lock()
            .unwrap()
            .push((layer, kv_head, page));
        self.inner.page_members(page)
    }
    // The engine skips settled tables exactly as it does for the index
    // behind the counter, so the seal counts below hold with the skip on.
    fn page_table_version(&self) -> Option<u64> {
        self.inner.page_table_version()
    }
    fn export_prefill_state(&self) -> Option<SharedPrefixState> {
        self.inner.export_prefill_state()
    }
    fn adopt_prefill_state(&mut self, state: &SharedPrefixState, total_tokens: usize) -> bool {
        let adopted = self.inner.adopt_prefill_state(state, total_tokens);
        if adopted {
            self.counts.adopted.fetch_add(1, Ordering::Relaxed);
        }
        adopted
    }
}

struct CountedFactory {
    inner: ClusterKvFactory,
    counts: Arc<SealCounts>,
}

impl SelectorFactory for CountedFactory {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn create(&self, ctx: HeadContext) -> Box<dyn TokenSelector> {
        self.inner.create(ctx)
    }
    fn create_group(&self, ctx: HeadContext) -> SelectorGroup {
        let SelectorGroup::Shared { index, scratch } = self.inner.create_group(ctx) else {
            panic!("ClusterKV groups share an index");
        };
        assert_eq!(scratch.len(), ctx.group_size, "one planner per query head");
        let counts = self.counts.clone();
        SelectorGroup::Shared {
            index: Box::new(CountedIndex {
                inner: index,
                counts,
                at: (ctx.layer, ctx.kv_head),
            }),
            scratch,
        }
    }
}

#[test]
fn a_sealed_prompt_clusters_once_per_selective_kv_head() {
    for (heads, kv_heads) in [(4, 1), (8, 2)] {
        let model = model(heads, kv_heads);
        let kv_indexes = (model.num_layers - model.dense_layers) * kv_heads;
        let counts = Arc::new(SealCounts::default());
        let factory = CountedFactory {
            inner: ClusterKvFactory::new(ckv_config()),
            counts: counts.clone(),
        };
        let mut engine = engine(model).prefix_store(Bytes(1 << 20)).build().unwrap();
        let prompt = prompt(64);
        let mut streams = Vec::new();
        for session in 0..2 {
            let id = engine.create_session_with(&factory).unwrap();
            for piece in prompt.chunks(16) {
                engine.prefill_chunk(id, piece).unwrap();
            }
            engine.finish_prefill(id).unwrap();
            // The first session runs one k-means per KV head — not per query
            // head; the second adopts those and runs none.
            assert_eq!(
                counts.clustered.load(Ordering::Relaxed),
                kv_indexes,
                "{heads}:{kv_heads}, session {session}"
            );
            assert_eq!(
                counts.adopted.load(Ordering::Relaxed),
                session * kv_indexes,
                "{heads}:{kv_heads}, session {session}"
            );
            let stream: Vec<usize> = (0..DECODE_STEPS)
                .map(|_| engine.decode_batch(&[id]).unwrap()[0].next_token)
                .collect();
            let stats = engine.session_stats(id).unwrap();
            assert!(stats.scored_vectors > 0, "every query head plans");
            streams.push((stream, stats));
        }
        assert_eq!(
            streams[0], streams[1],
            "{heads}:{kv_heads}: adoption changed a stream"
        );
    }
}

#[test]
fn a_sealed_cluster_is_quantised_once_per_selective_kv_head() {
    // Under a lossy tier the engine reads a page's membership when — and
    // only when — it quantizes the page. One page per (layer, KV head,
    // cluster), read by the group's G query heads: every cluster of every
    // selective KV head is read exactly once per session, whether the
    // session clustered the prompt itself, adopted the clustering from the
    // prefix store, or added the cluster while decoding.
    for (heads, kv_heads) in [(4, 1), (8, 2)] {
        let model = model(heads, kv_heads);
        let kv_indexes = (model.num_layers - model.dense_layers) * kv_heads;
        let int8 = CompressionConfig::int8();
        let mut engine = engine(model)
            .compression(int8)
            .prefix_store(Bytes(1 << 20))
            .build()
            .unwrap();
        let prompt = prompt(64);
        for session in 0..2 {
            let counts = Arc::new(SealCounts::default());
            let factory = CountedFactory {
                inner: ClusterKvFactory::new(ckv_config().with_compression(int8)),
                counts: counts.clone(),
            };
            let id = engine.create_session_with(&factory).unwrap();
            engine.prefill(id, &prompt).unwrap();
            assert_eq!(
                counts.adopted.load(Ordering::Relaxed),
                session * kv_indexes,
                "{heads}:{kv_heads}: the second session adopts"
            );
            let sealed_pages = |when: &str| {
                let mut read = counts.members_read.lock().unwrap().clone();
                let tables = counts.table_len.lock().unwrap().clone();
                assert_eq!(tables.len(), kv_indexes, "{heads}:{kv_heads}, {when}");
                let expected: Vec<(usize, usize, usize)> = tables
                    .iter()
                    .flat_map(|(&(layer, kv_head), &pages)| {
                        (0..pages).map(move |page| (layer, kv_head, page))
                    })
                    .collect();
                read.sort_unstable();
                assert_eq!(
                    read, expected,
                    "{heads}:{kv_heads}, session {session}, {when}: \
                     each page of each selective KV head once"
                );
                read.len()
            };
            let at_seal = sealed_pages("prompt sealed");
            assert!(at_seal >= kv_indexes * ckv_config().min_clusters.max(1));
            for _ in 0..DECODE_STEPS {
                engine.decode_batch(&[id]).unwrap();
            }
            // 20 steps at a period of 8: two incremental clusterings per
            // index, each adding `decode_new_clusters` pages.
            let grown = sealed_pages("after decoding");
            assert_eq!(grown, at_seal + kv_indexes * 2 * 2);
            engine.release(id).unwrap();
        }
    }
}

/// A configuration of the 4:2 engine that must not change what a session
/// generates or reports.
type Variant = fn(ServeEngineBuilder) -> ServeEngineBuilder;

#[test]
fn gqa_streams_and_reports_hold_across_stores_chunkings_threads_prefetch_and_faults() {
    let _guard = thread_env_lock();
    let model = model(4, 2);
    // Long enough that the per-head attention phase fans out across
    // workers (it does from 512 tokens of context), so the group's heads
    // really read their shared index concurrently.
    let long = prompt(560);
    let short = prompt(64);
    let lossless = ClusterKvFactory::new(ckv_config());
    let lossy = ClusterKvFactory::new(ckv_config().with_compression(CompressionConfig::int8()));
    let variants: [(&str, Variant); 4] = [
        ("prefix store", |b| b.prefix_store(Bytes(1 << 22))),
        ("prefetch", |b| {
            b.prefetch(PrefetchConfig::lookahead(Bytes(1 << 20)))
        }),
        ("faults", |b| b.faults(FaultPlan::uniform(3, 0.2))),
        ("store + faults", |b| {
            b.prefix_store(Bytes(1 << 22))
                .faults(FaultPlan::uniform(3, 0.2))
        }),
    ];
    for (name, factory, compression) in [
        ("lossless", &lossless, CompressionConfig::lossless()),
        ("int8", &lossy, CompressionConfig::int8()),
    ] {
        let plain = || engine(model).compression(compression);
        // Reports and all, across chunkings and thread counts.
        for (prompt, grid) in [
            (&short, &[(1usize, 7usize), (2, 7), (8, 7), (2, 64)][..]),
            (&long, &[(2, 512), (8, 512)][..]),
        ] {
            let reference =
                with_thread_count(1, || run_digest(plain(), factory, prompt, prompt.len()));
            for &(threads, chunk) in grid {
                let got =
                    with_thread_count(threads, || run_digest(plain(), factory, prompt, chunk));
                assert_eq!(
                    got,
                    reference,
                    "{name}, {} tokens: chunk {chunk}, {threads} threads",
                    prompt.len()
                );
            }
        }
        // The reports carry prefix, prefetch and integrity counters, so the
        // variants are compared on streams plus policy stats.
        let observed = |builder: ServeEngineBuilder, prompt: &[usize], threads| {
            with_thread_count(threads, || streams_and_stats(builder, factory, prompt))
        };
        let expected = observed(plain(), &short, 1);
        for (variant, configure) in variants {
            for threads in [1usize, 2] {
                assert_eq!(
                    observed(configure(plain()), &short, threads),
                    expected,
                    "{name}: {variant}, {threads} threads"
                );
            }
        }
        let (variant, configure) = variants[3];
        assert_eq!(
            observed(configure(plain()), &long, 2),
            observed(plain(), &long, 1),
            "{name}, {} tokens: {variant}, 2 threads",
            long.len()
        );
    }
}

/// Token streams and accumulated policy stats of the two-session scenario.
fn streams_and_stats(
    builder: ServeEngineBuilder,
    factory: &dyn SelectorFactory,
    prompt: &[usize],
) -> Vec<(Vec<usize>, u64, u64, u64)> {
    let mut engine = builder.build().unwrap();
    let mut out = Vec::new();
    for chunk in [96, prompt.len()] {
        let id = engine.create_session_with(factory).unwrap();
        for piece in prompt.chunks(chunk) {
            engine.prefill_chunk(id, piece).unwrap();
        }
        engine.finish_prefill(id).unwrap();
        let stream: Vec<usize> = (0..DECODE_STEPS)
            .map(|_| engine.decode_batch(&[id]).unwrap()[0].next_token)
            .collect();
        let report = engine.release(id).unwrap();
        out.push((
            stream,
            report.stats.scored_vectors,
            report.stats.cache.hits,
            report.stats.cache.misses,
        ));
    }
    out
}
