//! Per-session KV residency: the tiered cluster cache, the data-movement
//! ledger of the decode step in flight, and the modeled clock it feeds
//! (DESIGN.md §12).
//!
//! The session's [`ClusterCache`] is the only counter of hits, misses and
//! bytes. Each decode step folds what the cache reports into one
//! [`Transfers`] — demand recalls, staged prefetch, promotions, faulted
//! retries — which the [`LatencyModel`] prices in exact bytes; session
//! totals are read back from the cache's own counters when the engine
//! reports. Residency changes what a step costs, never what it attends.
//!
//! Under a lossy compression config the session also owns the compressed
//! pages themselves (DESIGN.md §9): one [`CompressedStore`] per
//! `(layer, kv_head)`, each page quantized once when its cluster is sealed
//! and read by every query head of the group.

use crate::config::ModelConfig;
use crate::latency::{LatencyModel, StepCost, Transfers};
use crate::policy::{KvResidency, PageRequest, PolicyStats, SelectorGroup};
use crate::prefetch::PrefetchConfig;
use clusterkv_faults::{backoff_seconds, FaultInjector, FaultSite, IntegrityStats};
use clusterkv_kvcache::cluster_cache::{ClusterCache, ClusterCacheConfig, PageKey};
use clusterkv_kvcache::compressed::{CompressedStore, CompressionConfig};
use clusterkv_kvcache::device::Seconds;
use clusterkv_kvcache::stats::{CompressionStats, PrefetchStats};
use clusterkv_kvcache::types::{Bytes, HeadId, LayerId};
use clusterkv_kvcache::KvStore;

/// One session's GPU-resident selected-KV pages over its CPU backing store,
/// plus everything the engine derives from their movement.
pub(crate) struct Residency {
    /// Capacity 0 models pure offload: every selected page is recalled at
    /// every step.
    cache: ClusterCache,
    /// The compressed pages recall-compressed plans attend through, indexed
    /// `[layer][kv_head]` and keyed by the query head owning the page table
    /// (the group's first when its heads share one index). Empty under a
    /// lossless config, whose plans attend exact KV.
    pages: Vec<Vec<CompressedStore>>,
    /// [`SelectorGroup::page_table_version`] each store of `pages` was last
    /// settled at, indexed alike; `None` until then and for tables that
    /// carry no version.
    settled: Vec<Vec<Option<u64>>>,
    /// Vectors scored by the selective-layer heads of the step in flight.
    scored: u64,
    /// Tokens attended by the selective-layer heads of the step in flight.
    attended: u64,
    /// PCIe traffic of the step in flight; after
    /// [`finish_step`](Self::finish_step), as it was priced.
    step: Transfers,
    /// Pages nominated for the end-of-step staging pass, in the
    /// `(layer, head)` order phase 2 pushed them — so every staging-LRU
    /// stamp is deterministic at any thread count. Only written when the
    /// cache has a staging buffer.
    nominations: Vec<(usize, usize, Vec<PageRequest>)>,
    /// Modeled decode latency summed over every step.
    modeled_decode: Seconds,
    /// Modeled PCIe time hidden behind compute (`min(gpu, staged)` per
    /// step); zero while nothing is staged.
    hidden_transfer: Seconds,
    /// Total modeled PCIe time (staged + demand) summed over every step.
    transfer_time: Seconds,
    /// Integrity accounting of the session's fault seams outside the cache,
    /// which keeps its own scrub counters: the transfer retries charged
    /// here, and the prefix-adoption verifies prefill records.
    pub(crate) seams: IntegrityStats,
}

impl Residency {
    /// Residency state of a fresh session.
    pub(crate) fn new(
        config: &ModelConfig,
        capacity: Bytes,
        compression: CompressionConfig,
        prefetch: PrefetchConfig,
    ) -> Self {
        let layers = if compression.is_lossless() {
            0
        } else {
            config.num_layers
        };
        Self {
            cache: ClusterCache::new(
                ClusterCacheConfig::new(capacity, config.head_dim)
                    .with_compression(compression)
                    .with_staging(prefetch.staging_capacity),
            ),
            pages: vec![vec![CompressedStore::new(compression); config.num_kv_heads]; layers],
            settled: vec![vec![None; config.num_kv_heads]; layers],
            scored: 0,
            attended: 0,
            step: Transfers::default(),
            nominations: Vec::new(),
            modeled_decode: Seconds::zero(),
            hidden_transfer: Seconds::zero(),
            transfer_time: Seconds::zero(),
            seams: IntegrityStats::default(),
        }
    }

    /// The compressed pages of `layer`, one store per KV head; empty when
    /// the session compresses nothing.
    pub(crate) fn compressed_pages(&self, layer: usize) -> &[CompressedStore] {
        self.pages.get(layer).map_or(&[], Vec::as_slice)
    }

    /// Open the ledger of a new decode step.
    pub(crate) fn begin_step(&mut self) {
        self.scored = 0;
        self.attended = 0;
        self.step = Transfers::default();
    }

    /// Count one selective-layer head's selection work into the step.
    pub(crate) fn selected(&mut self, scored: u64, attended: u64) {
        self.scored += scored;
        self.attended += attended;
    }

    /// Resolve one head's plan against the cache — only misses cross PCIe —
    /// and nominate next-step pages for the staging pass: the pages this
    /// step selected (semantic locality) plus the selector's `hint`. Call
    /// in `(layer, head)` order: LRU stamps are order-sensitive.
    pub(crate) fn recall(
        &mut self,
        layer: usize,
        head: usize,
        pages: Option<Vec<PageRequest>>,
        hint: Vec<PageRequest>,
    ) {
        if let Some(pages) = &pages {
            let access = self.cache.access(LayerId(layer), HeadId(head), pages);
            self.step.recall(&access);
        }
        if self.cache.staging_capacity().get() > 0 {
            if let Some(pages) = pages {
                self.nominations.push((layer, head, pages));
            }
            if !hint.is_empty() {
                self.nominations.push((layer, head, hint));
            }
        }
    }

    /// Admit pages whose KV was just produced on the GPU (prefill
    /// clustering, incremental decode clustering) while capacity allows,
    /// quantize those a recall-compressed plan may name, and grow the CPU
    /// backing store to the session's `private_tokens` — shared-prefix
    /// positions live in the prefix store and are charged there once. Call
    /// after every key event the selectors observed: the plans of the next
    /// step attend the pages as they stand here.
    pub(crate) fn settle(
        &mut self,
        config: &ModelConfig,
        selectors: &[Vec<SelectorGroup>],
        kv: &[Vec<KvStore>],
        private_tokens: usize,
    ) {
        let group_size = config.num_heads / config.num_kv_heads;
        for (layer, groups) in selectors.iter().enumerate().skip(config.dense_layers) {
            for (kv_head, group) in groups.iter().enumerate() {
                let first = kv_head * group_size;
                if self.cache.enabled() {
                    for head in 0..group_size {
                        // Once a head's KV is offloaded the decision is
                        // permanent — skip building its page table again
                        // every step.
                        if self
                            .cache
                            .is_offloaded(LayerId(layer), HeadId(first + head))
                        {
                            continue;
                        }
                        // Both paged and recall-compressed tables warm the
                        // same way: admission is always exact, demotion to
                        // the compressed tier happens under eviction
                        // pressure.
                        if let Some(pages) = group.page_table(head).page_requests() {
                            self.cache.warm(LayerId(layer), HeadId(first + head), pages);
                        }
                    }
                }
                let Some(store) = self.pages.get_mut(layer).map(|l| &mut l[kv_head]) else {
                    continue;
                };
                // Clusters appear at the end of prefill and once every
                // decode-clustering period: on the steps between, a table
                // that reports the version it was settled at has no page to
                // build.
                let version = group.page_table_version();
                let settled = &mut self.settled[layer][kv_head];
                if version.is_some() && version == *settled {
                    continue;
                }
                *settled = version;
                // A page is built once per membership: when its cluster is
                // sealed (prefill, adopted or clustered here; incremental
                // decode clustering) and again only if it grew since.
                for owner in group.table_owners() {
                    let KvResidency::Compressed(table) = group.page_table(owner) else {
                        continue;
                    };
                    for page in table {
                        let key = PageKey {
                            layer: LayerId(layer),
                            head: HeadId(first + owner),
                            page: page.page,
                        };
                        if store.get(key).map(|p| p.tokens().len()) != Some(page.tokens) {
                            let (keys, values) =
                                (kv[layer][kv_head].keys(), kv[layer][kv_head].values());
                            store.compress_and_insert(
                                key,
                                keys,
                                values,
                                group.page_members(owner, page.page),
                            );
                        }
                    }
                }
            }
        }
        self.cache
            .set_backing(Bytes(private_tokens as u64 * config.kv_bytes_per_token()))
            .expect("host DRAM exhausted by simulated KV");
    }

    /// Close a decode step that left `context_len` tokens behind: stage
    /// this step's nominations for the next one, apply the fault plan to
    /// the step's demand traffic, price the step and advance the modeled
    /// clock. Run after [`settle`](Self::settle), so freshly admitted pages
    /// are already resident and staging skips them.
    pub(crate) fn finish_step(
        &mut self,
        latency: &LatencyModel,
        faults: FaultInjector,
        step_key: u64,
        context_len: usize,
    ) {
        // Empty unless the cache has a staging buffer.
        for (layer, head, pages) in self.nominations.drain(..) {
            self.step.staged += self.cache.stage(LayerId(layer), HeadId(head), &pages);
        }
        // Faults only add modeled time (retried bytes, backoff) and checksum
        // churn; the KV payloads a step attends are untouched.
        if faults.enabled() {
            // A failed transfer re-sends this step's demand recall
            // (attempts - 1) more times, each after an exponential-backoff
            // wait.
            let demand = self.step.demand.get();
            if demand > 0 {
                let attempts = faults.transfer_attempts(FaultSite::DemandRecall, step_key);
                if attempts > 1 {
                    let retries = u64::from(attempts - 1);
                    let backoff = backoff_seconds(faults.plan().backoff_base, attempts);
                    self.step.retried += Bytes(retries * demand);
                    self.step.backoff += Seconds(backoff);
                    self.seams
                        .record_retries(retries, retries * demand, backoff);
                }
            }
            // Checksum corruption of a resident page, scrubbed in the same
            // step: detection re-seals the tag from the pristine backing
            // rows and the re-fetch is retried demand traffic.
            if faults.should_corrupt(FaultSite::DemandRecall, step_key)
                && self.cache.corrupt_resident_page(step_key)
            {
                self.step.retried += self.cache.scrub();
            }
        }
        let cost = StepCost::of_step(latency.config(), self.scored, self.attended, self.step);
        let breakdown = latency.decode_step_breakdown(context_len, &cost);
        self.modeled_decode += breakdown.total;
        self.hidden_transfer += breakdown.hidden();
        self.transfer_time += breakdown.staged + breakdown.demand;
    }

    /// `stats` with its residency half filled from the cache's own hit/miss
    /// and transfer counters.
    pub(crate) fn counted(&self, mut stats: PolicyStats) -> PolicyStats {
        stats.cache = self.cache.stats();
        stats.transfer = self.cache.transfers();
        stats
    }

    /// Compressed-tier accounting of the cache.
    pub(crate) fn compression_stats(&self) -> CompressionStats {
        self.cache.compression_stats()
    }

    /// Staging-buffer accounting of the cache.
    pub(crate) fn prefetch_stats(&self) -> PrefetchStats {
        self.cache.prefetch_stats()
    }

    /// The session's whole integrity record: its seams merged with the
    /// cache's scrub counters.
    pub(crate) fn integrity(&self) -> IntegrityStats {
        let mut integrity = self.seams;
        integrity.merge(&self.cache.integrity());
        integrity
    }

    /// Modeled decode latency so far.
    pub(crate) fn modeled_decode(&self) -> Seconds {
        self.modeled_decode
    }

    /// Modeled PCIe time so far as `(hidden behind compute, total)`.
    pub(crate) fn transfer_times(&self) -> (Seconds, Seconds) {
        (self.hidden_transfer, self.transfer_time)
    }

    /// Release every staged page, returning the bytes freed.
    pub(crate) fn shed_staging(&mut self) -> Bytes {
        self.cache.drop_staging()
    }

    /// Demote every exact resident page to the compressed tier, returning
    /// how many moved.
    pub(crate) fn demote_all(&mut self) -> usize {
        self.cache.demote_all()
    }

    /// The cache, for tests that compare reports against its counters.
    #[cfg(test)]
    pub(crate) fn cache(&self) -> &ClusterCache {
        &self.cache
    }

    /// The last step's transfers as priced.
    #[cfg(test)]
    pub(crate) fn last_step(&self) -> Transfers {
        self.step
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{GroupIndex, ObserveEvent, SelectionPlan, SelectionRequest};
    use clusterkv_tensor::kernels::Workspace;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    use std::sync::Arc;

    /// Positional pages of four tokens over the first `positions.len()`
    /// tokens, under whatever version the test dictates; counts how often
    /// its table is asked for.
    struct Blocks {
        positions: Vec<usize>,
        version: Option<u64>,
        walks: Arc<AtomicUsize>,
    }

    impl GroupIndex for Blocks {
        fn observe(&mut self, _event: ObserveEvent<'_>) {}
        fn plan(&self, request: SelectionRequest<'_>, _scratch: &mut Workspace) -> SelectionPlan {
            SelectionPlan::full(request.num_tokens)
        }
        fn page_table(&self) -> KvResidency {
            self.walks.fetch_add(1, Relaxed);
            let pages = self.positions.chunks(4).enumerate();
            KvResidency::Compressed(pages.map(|(p, m)| PageRequest::new(p, m.len())).collect())
        }
        fn page_members(&self, page: usize) -> &[usize] {
            self.positions
                .chunks(4)
                .nth(page)
                .expect("a page of the table")
        }
        fn page_table_version(&self) -> Option<u64> {
            self.version
        }
    }

    #[test]
    fn settle_walks_a_versioned_page_table_only_when_the_version_moved() {
        let config = ModelConfig {
            num_layers: 1,
            num_heads: 2,
            num_kv_heads: 1,
            ..ModelConfig::tiny()
        };
        let mut store = KvStore::new(config.head_dim);
        for t in 0..16 {
            store.append(&[t as f32; 8], &[-(t as f32); 8]);
        }
        let kv = vec![vec![store]];
        for versioned in [true, false] {
            let walks = Arc::new(AtomicUsize::new(0));
            let blocks = |tokens: usize, version: u64| {
                SelectorGroup::shared(
                    Box::new(Blocks {
                        positions: (0..tokens).collect(),
                        version: versioned.then_some(version),
                        walks: walks.clone(),
                    }),
                    2,
                )
            };
            // No cache to warm: the table is asked for by the page probe
            // alone.
            let mut residency = Residency::new(
                &config,
                Bytes(0),
                CompressionConfig::int4(),
                PrefetchConfig::disabled(),
            );
            let mut settle = |group: SelectorGroup, sealed: usize, walked: usize| {
                residency.settle(&config, &[vec![group]], &kv, 16);
                assert_eq!(residency.compressed_pages(0)[0].len(), sealed);
                assert_eq!(walks.load(Relaxed), walked, "versioned: {versioned}");
            };
            settle(blocks(8, 1), 2, 1);
            // The same version: nothing to look at. Without one, every
            // settle looks.
            settle(blocks(8, 1), 2, if versioned { 1 } else { 2 });
            settle(blocks(8, 1), 2, if versioned { 1 } else { 3 });
            // A third page and a version that says so.
            settle(blocks(12, 2), 3, if versioned { 2 } else { 4 });
            settle(blocks(12, 2), 3, if versioned { 2 } else { 5 });
        }
    }
}
