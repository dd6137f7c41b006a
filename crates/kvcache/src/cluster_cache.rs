//! Cluster-granularity KV cache: a capacity-bounded GPU resident set whose
//! misses are recalled from the full KV cache in CPU memory (DESIGN.md §3).
//!
//! After prefill the full KV cache lives in CPU DRAM; the GPU keeps
//! centroids, metadata and a bounded *selected-KV cache* holding the KV of
//! recently selected clusters (Fig. 5). [`ClusterCache`] models that
//! hierarchy for one session: pages (clusters for ClusterKV, positional
//! pages for Quest, single tokens for InfiniGen) are charged against the
//! GPU capacity with deterministic LRU eviction, and every access reports
//! which pages hit the resident set and which had to be recalled over PCIe.
//!
//! With a lossy [`CompressionConfig`] the residency lattice has three
//! states (DESIGN.md §9): an LRU victim is first *demoted* in place —
//! Resident → Compressed, shrinking its GPU footprint to the quantized
//! layout — and only dropped to the backing store (→ Paged) under continued
//! pressure. Compressed pages serve accesses without PCIe traffic, and cold
//! recalls travel at the integer width.
//!
//! In lossless mode residency never changes *what* is attended — only what
//! the recall costs. The serving engine enforces that invariant with a
//! parity suite (token streams are byte-identical with the cache enabled or
//! disabled).

use crate::compressed::CompressionConfig;
use crate::stats::{CacheStats, CompressionStats, PrefetchStats};
use crate::types::{Bytes, HeadId, LayerId};
use clusterkv_faults::{Fnv64, IntegrityStats};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Identity of one KV page within a session: the attention head it belongs
/// to plus the policy-defined page id (cluster id for ClusterKV, page index
/// for Quest, token position for InfiniGen).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PageKey {
    /// Layer of the owning head.
    pub layer: LayerId,
    /// Query head the page belongs to (residency is tracked at query-head
    /// granularity, matching the per-head selectors).
    pub head: HeadId,
    /// Policy-defined page id, unique within the head.
    pub page: usize,
}

/// One entry of a selection plan's paged-recall request: a page id and the
/// number of tokens the page currently holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageRequest {
    /// Policy-defined page id, unique within the head.
    pub page: usize,
    /// Tokens in the page at request time (pages may grow, e.g. Quest's
    /// youngest page).
    pub tokens: usize,
}

impl PageRequest {
    /// Build a request.
    pub fn new(page: usize, tokens: usize) -> Self {
        Self { page, tokens }
    }
}

/// Sizing of the tiered cache.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterCacheConfig {
    /// Capacity of the GPU-resident selected-KV cache. `0` disables caching:
    /// every selected page is recalled from CPU memory at every step (the
    /// "no cache" configuration of §V-C).
    pub gpu_capacity: Bytes,
    /// K+V bytes of a single token of a single head (`4 · head_dim` under
    /// the fp16 cost model).
    pub bytes_per_token: Bytes,
    /// Compressed-tier configuration (DESIGN.md §9). Lossless by default:
    /// eviction drops pages outright and recalls move exact f16 bytes,
    /// exactly the pre-compression behaviour.
    pub compression: CompressionConfig,
    /// Capacity of the speculative staging buffer (DESIGN.md §10): GPU
    /// memory set aside for pages moved ahead of demand by
    /// [`ClusterCache::stage`]. `0` (the default) disables staging entirely;
    /// the buffer is carved out separately from `gpu_capacity`, so staging
    /// never competes with — and can never evict — resident pages.
    pub staging_capacity: Bytes,
}

impl ClusterCacheConfig {
    /// Config for heads of dimension `head_dim` with the given GPU capacity.
    pub fn new(gpu_capacity: Bytes, head_dim: usize) -> Self {
        Self {
            gpu_capacity,
            bytes_per_token: Bytes::of_f16(2 * head_dim),
            compression: CompressionConfig::lossless(),
            staging_capacity: Bytes(0),
        }
    }

    /// Enable the compressed tier.
    pub fn with_compression(mut self, compression: CompressionConfig) -> Self {
        self.compression = compression;
        self
    }

    /// Enable the speculative staging buffer with `capacity` bytes.
    pub fn with_staging(mut self, capacity: Bytes) -> Self {
        self.staging_capacity = capacity;
        self
    }

    /// Capacity holding `steps` decode steps' worth of a `budget_tokens`
    /// selection for one head — the LRU analogue of the paper's recency
    /// window `R = steps` (§IV-D). Multiply `budget_tokens` by the number of
    /// selective heads when sizing a whole-session cache.
    pub fn for_recency_window(steps: usize, budget_tokens: usize, head_dim: usize) -> Self {
        let per_step = Bytes::of_f16(2 * head_dim).get() * budget_tokens as u64;
        Self::new(Bytes(per_step * steps as u64), head_dim)
    }
}

/// Outcome of one per-head cache access (one decode step of one head).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepOutcome {
    /// Tokens served from the GPU resident set.
    pub hit_tokens: u64,
    /// Tokens recalled from CPU memory over PCIe.
    pub missed_tokens: u64,
    /// Bytes moved host-to-device for the misses. When the compressed tier
    /// is quantized, cold pages travel at the integer width, so this is
    /// smaller than `missed_tokens · bytes_per_token`.
    pub bytes_recalled: Bytes,
    /// Of the hit tokens, how many came from compressed pages (no PCIe, but
    /// a dequantize on access).
    pub compressed_tokens: u64,
    /// Bytes of `bytes_recalled` that a staged transfer already moved: the
    /// missed pages promoted from the staging buffer. They still count as
    /// misses — staging changes *when* bytes move, never the hit/miss
    /// accounting — but the overlap clock subtracts these from the
    /// demand-transfer term.
    pub staged_bytes: Bytes,
}

/// End of an LRU chain (no slot).
const NIL: u32 = u32::MAX;

/// A resident page's neighbours in one LRU chain, as slab slots.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Links {
    prev: u32,
    next: u32,
}

/// The LRU chains threaded through the resident slab, oldest page first.
/// Slab slots are reused, so moving a page along a chain allocates nothing.
#[derive(Debug, Clone, Copy)]
enum Chain {
    /// Every resident page: the order pages are dropped in.
    All = 0,
    /// The exact (not demoted) pages, in the same relative order: what a
    /// demotion pass still has something to take from.
    Exact = 1,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ResidentPage {
    key: PageKey,
    tokens: usize,
    /// Whether the page was demoted to the compressed tier (DESIGN.md §9).
    compressed: bool,
    /// FNV-1a integrity tag, sealed at admission. The cache tracks
    /// residency, not payloads, so the tag commits to the page's identity
    /// and token count — the modeled stand-in for a checksum over row bytes
    /// (DESIGN.md §11).
    tag: u64,
    /// Neighbours per [`Chain`]; the `Exact` entry is stale while the page
    /// is compressed.
    links: [Links; 2],
}

#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct StagedPage {
    tokens: usize,
    stamp: u64,
    /// Bytes the staged transfer moved (recall width at stage time).
    bytes: Bytes,
}

/// Capacity-bounded GPU resident set with deterministic LRU eviction; every
/// page it does not hold is recalled from CPU memory.
///
/// # Examples
///
/// ```
/// use clusterkv_kvcache::cluster_cache::{ClusterCache, ClusterCacheConfig, PageRequest};
/// use clusterkv_kvcache::types::{Bytes, HeadId, LayerId};
///
/// // Room for 8 tokens of head_dim 4 (4 * 8 = 32 bytes per token).
/// let mut cache = ClusterCache::new(ClusterCacheConfig::new(Bytes(16 * 16), 4));
/// let (l, h) = (LayerId(0), HeadId(0));
/// let cold = cache.access(l, h, &[PageRequest::new(0, 8)]);
/// assert_eq!(cold.missed_tokens, 8);
/// let warm = cache.access(l, h, &[PageRequest::new(0, 8)]);
/// assert_eq!(warm.hit_tokens, 8);
/// assert_eq!(warm.bytes_recalled, Bytes(0));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterCache {
    bytes_per_token: Bytes,
    compression: CompressionConfig,
    /// GPU capacity of the resident set.
    capacity: Bytes,
    /// Bytes charged for the resident pages, each at its size in its state
    /// (exact or compressed); never above `capacity`.
    used: Bytes,
    /// Every page ever seen (admitted, accessed or declined), with its slab
    /// slot while it is resident. Entries are never removed: warm admission
    /// only applies to pages the cache has never seen, so a page evicted
    /// under capacity pressure cannot sneak back in for free — and once a
    /// session's pages are all known, a miss rewrites values of this map
    /// and reuses slab slots, so the miss path allocates nothing.
    pages: BTreeMap<PageKey, Option<u32>>,
    /// The resident pages; `free` lists the slots to reuse.
    slab: Vec<ResidentPage>,
    free: Vec<u32>,
    /// Oldest and youngest slot of each [`Chain`]. Chain order is the
    /// order of admission and use, so eviction is fully deterministic.
    heads: [u32; 2],
    tails: [u32; 2],
    /// Heads whose KV has been offloaded wholesale (a warm call declined):
    /// capacity is fixed and page tables only grow, so the decision is
    /// permanent and later warm calls can skip their table scan entirely.
    offloaded: BTreeSet<(LayerId, HeadId)>,
    stats: CacheStats,
    compression_stats: CompressionStats,
    /// Capacity of the speculative staging buffer (DESIGN.md §10). Tracked
    /// separately from the resident set: staged bytes never count against
    /// `used`, and staging evicts only other staged pages — never a resident
    /// one.
    staging_capacity: Bytes,
    staging_used: Bytes,
    staged: BTreeMap<PageKey, StagedPage>,
    /// Staging LRU: stamp → page. Stamps come from a monotone clock, so
    /// staging eviction order is deterministic.
    staging_lru: BTreeMap<u64, PageKey>,
    staging_clock: u64,
    prefetch_stats: PrefetchStats,
    integrity: IntegrityStats,
}

impl ClusterCache {
    /// Create a cache with the given sizing.
    pub fn new(config: ClusterCacheConfig) -> Self {
        Self {
            bytes_per_token: config.bytes_per_token,
            compression: config.compression,
            capacity: config.gpu_capacity,
            used: Bytes(0),
            pages: BTreeMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            heads: [NIL; 2],
            tails: [NIL; 2],
            offloaded: BTreeSet::new(),
            stats: CacheStats::new(),
            compression_stats: CompressionStats::new(),
            staging_capacity: config.staging_capacity,
            staging_used: Bytes(0),
            staged: BTreeMap::new(),
            staging_lru: BTreeMap::new(),
            staging_clock: 0,
            prefetch_stats: PrefetchStats::new(),
            integrity: IntegrityStats::new(),
        }
    }

    /// Whether the cache can hold anything at all (`gpu_capacity > 0`).
    pub fn enabled(&self) -> bool {
        self.capacity.get() > 0
    }

    /// GPU capacity of the resident set.
    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// Bytes currently resident on the GPU.
    pub fn resident_bytes(&self) -> Bytes {
        self.used
    }

    /// Number of pages currently resident on the GPU.
    pub fn resident_pages(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Slab slot of a page, if it is resident.
    fn slot_of(&self, key: PageKey) -> Option<u32> {
        self.pages.get(&key).copied().flatten()
    }

    /// Slab slots of the resident pages, in key order.
    fn resident_slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.pages.values().copied().flatten()
    }

    /// Whether a page is currently GPU resident.
    pub fn contains(&self, key: PageKey) -> bool {
        self.slot_of(key).is_some()
    }

    /// Whether a head's KV has been offloaded wholesale (some
    /// [`warm`](Self::warm) call declined). Callers can skip building the
    /// head's page table once this is true — the decision is permanent.
    pub fn is_offloaded(&self, layer: LayerId, head: HeadId) -> bool {
        self.offloaded.contains(&(layer, head))
    }

    /// Token-level hit/miss statistics and the bytes the misses recalled,
    /// accumulated over every access.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Compressed-tier configuration.
    pub fn compression(&self) -> CompressionConfig {
        self.compression
    }

    /// Compressed-tier accounting (demotions, compressed hits, byte ratio).
    pub fn compression_stats(&self) -> CompressionStats {
        self.compression_stats
    }

    /// Number of pages currently resident in compressed form.
    pub fn compressed_pages(&self) -> usize {
        self.resident_slots()
            .filter(|&slot| self.slab[slot as usize].compressed)
            .count()
    }

    /// Capacity of the speculative staging buffer (`0` disables staging).
    pub fn staging_capacity(&self) -> Bytes {
        self.staging_capacity
    }

    /// Bytes currently held in the staging buffer.
    pub fn staged_bytes(&self) -> Bytes {
        self.staging_used
    }

    /// Number of pages currently staged.
    pub fn staged_pages(&self) -> usize {
        self.staged.len()
    }

    /// Prefetch accounting (staged / used / wasted bytes and accuracy).
    pub fn prefetch_stats(&self) -> PrefetchStats {
        self.prefetch_stats
    }

    fn page_bytes(&self, tokens: usize) -> Bytes {
        Bytes(self.bytes_per_token.get() * tokens as u64)
    }

    /// Modeled size of `tokens` tokens in the compressed layout.
    fn compressed_page_bytes(&self, tokens: usize) -> Bytes {
        self.compression.page_bytes(tokens, self.bytes_per_token)
    }

    /// Bytes the resident set is charged for a page in its state.
    fn charged_bytes(&self, page: &ResidentPage) -> Bytes {
        if page.compressed {
            self.compressed_page_bytes(page.tokens)
        } else {
            self.page_bytes(page.tokens)
        }
    }

    /// Bytes one recalled token moves over PCIe. With a quantized compressed
    /// tier CPU memory holds cold pages at the integer width, so
    /// recalls travel compressed (§9); lossless mode moves exact f16 bytes.
    fn recall_bytes(&self, tokens: usize) -> Bytes {
        if self.compression.is_lossless() {
            self.page_bytes(tokens)
        } else if tokens == 0 {
            Bytes(0)
        } else {
            self.compressed_page_bytes(tokens)
        }
    }

    /// Whether `size` more bytes fit in the resident set.
    fn fits(&self, size: Bytes) -> bool {
        self.used.get() + size.get() <= self.capacity.get()
    }

    /// Charge `size` bytes to the resident set. Every caller has made room
    /// first, so a charge beyond capacity is a bookkeeping bug.
    fn charge(&mut self, size: Bytes) {
        assert!(self.fits(size), "resident set charged beyond capacity");
        self.used += size;
    }

    /// Give back `size` bytes [`charge`](Self::charge)d earlier.
    fn release(&mut self, size: Bytes) {
        assert!(size.get() <= self.used.get(), "released more than charged");
        self.used = Bytes(self.used.get() - size.get());
    }

    /// Take `slot` out of `chain`.
    fn unlink(&mut self, chain: Chain, slot: u32) {
        let c = chain as usize;
        let Links { prev, next } = self.slab[slot as usize].links[c];
        match prev {
            NIL => self.heads[c] = next,
            prev => self.slab[prev as usize].links[c].next = next,
        }
        match next {
            NIL => self.tails[c] = prev,
            next => self.slab[next as usize].links[c].prev = prev,
        }
    }

    /// Put `slot` into `chain` right after `prev` (`NIL`: as the oldest).
    fn link_after(&mut self, chain: Chain, prev: u32, slot: u32) {
        let c = chain as usize;
        let next = match prev {
            NIL => std::mem::replace(&mut self.heads[c], slot),
            prev => std::mem::replace(&mut self.slab[prev as usize].links[c].next, slot),
        };
        match next {
            NIL => self.tails[c] = slot,
            next => self.slab[next as usize].links[c].prev = slot,
        }
        self.slab[slot as usize].links[c] = Links { prev, next };
    }

    /// A use: `slot` becomes the youngest page of its chains.
    fn touch(&mut self, slot: u32) {
        self.unlink(Chain::All, slot);
        self.link_after(Chain::All, self.tails[Chain::All as usize], slot);
        if !self.slab[slot as usize].compressed {
            self.unlink(Chain::Exact, slot);
            self.link_after(Chain::Exact, self.tails[Chain::Exact as usize], slot);
        }
    }

    fn drop_page(&mut self, slot: u32) {
        let page = &self.slab[slot as usize];
        let (key, compressed, size) = (page.key, page.compressed, self.charged_bytes(page));
        self.unlink(Chain::All, slot);
        if !compressed {
            self.unlink(Chain::Exact, slot);
        }
        self.release(size);
        self.pages.insert(key, None);
        self.free.push(slot);
    }

    /// Integrity tag of a resident page: FNV-1a over its identity and token
    /// count (the cache models residency, not payload bytes).
    fn page_tag(key: PageKey, tokens: usize) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(key.layer.0 as u64);
        h.write_u64(key.head.0 as u64);
        h.write_u64(key.page as u64);
        h.write_u64(tokens as u64);
        h.finish()
    }

    /// Remove a page from the staging buffer, returning its entry.
    fn unstage(&mut self, key: PageKey) -> Option<StagedPage> {
        let entry = self.staged.remove(&key)?;
        self.staging_lru.remove(&entry.stamp);
        self.staging_used = Bytes(self.staging_used.get() - entry.bytes.get());
        Some(entry)
    }

    /// Demote a resident page to the compressed tier: it is charged at the
    /// compressed size and stays resident (and stays at its LRU position —
    /// demotion is not a use). Returns whether the page was demoted.
    // analyzer: hot-path — zero-allocation contract (tests/zero_alloc.rs)
    fn demote_page(&mut self, slot: u32) -> bool {
        let page = &self.slab[slot as usize];
        if page.compressed || !self.compression.shrinks(page.tokens, self.bytes_per_token) {
            return false;
        }
        let exact = self.page_bytes(page.tokens);
        let compressed = self.compressed_page_bytes(page.tokens);
        self.release(exact);
        self.charge(compressed);
        self.slab[slot as usize].compressed = true;
        self.unlink(Chain::Exact, slot);
        self.compression_stats.record_demotion();
        true
    }

    /// Make room for `size` in two passes over the LRU order: first demote
    /// exact victims to the compressed tier (Resident → Compressed), and
    /// only if that is not enough drop victims to CPU memory outright
    /// (Compressed → Paged). Returns whether `size` fits afterwards. Never
    /// touches anything when `size` exceeds the total capacity. The demotion
    /// pass walks the chain of exact pages only — the already-demoted ones
    /// it would skip are not on it — and a lossless config never demotes, so
    /// there this is the original evict-outright behaviour.
    // analyzer: hot-path — zero-allocation contract (tests/zero_alloc.rs)
    fn evict_until_fits(&mut self, size: Bytes) -> bool {
        if size.get() > self.capacity.get() {
            return false;
        }
        if !self.compression.is_lossless() {
            let mut slot = self.heads[Chain::Exact as usize];
            while slot != NIL && !self.fits(size) {
                // A page too small to shrink stays on the chain.
                let next = self.slab[slot as usize].links[Chain::Exact as usize].next;
                self.demote_page(slot);
                slot = next;
            }
        }
        while !self.fits(size) {
            match self.heads[Chain::All as usize] {
                NIL => return false,
                victim => self.drop_page(victim),
            }
        }
        true
    }

    /// Admit a page the index already knows, evicting to make room; a page
    /// larger than the whole capacity is not admitted.
    // analyzer: hot-path — zero-allocation contract (tests/zero_alloc.rs)
    fn admit(&mut self, key: PageKey, tokens: usize) {
        let size = self.page_bytes(tokens);
        if !self.evict_until_fits(size) {
            return;
        }
        self.charge(size);
        let page = ResidentPage {
            key,
            tokens,
            compressed: false,
            tag: Self::page_tag(key, tokens),
            links: [Links {
                prev: NIL,
                next: NIL,
            }; 2],
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = page;
                slot
            }
            None => {
                assert!(self.slab.len() < NIL as usize, "slab slots are u32");
                self.slab.push(page);
                (self.slab.len() - 1) as u32
            }
        };
        self.link_after(Chain::All, self.tails[Chain::All as usize], slot);
        self.link_after(Chain::Exact, self.tails[Chain::Exact as usize], slot);
        self.pages.insert(key, Some(slot));
    }

    /// Grow a resident page to `tokens` tokens in place (its KV was produced
    /// on device): it is charged exact at the new size, so a compressed
    /// page is promoted — back onto the exact chain at its LRU position.
    fn grow(&mut self, slot: u32, tokens: usize) {
        let page = &self.slab[slot as usize];
        let (key, was_compressed, old) = (page.key, page.compressed, self.charged_bytes(page));
        self.release(old);
        self.charge(self.page_bytes(tokens));
        let page = &mut self.slab[slot as usize];
        page.tokens = tokens;
        page.compressed = false;
        // The page changed size: re-seal its integrity tag.
        page.tag = Self::page_tag(key, tokens);
        if was_compressed {
            let all = Chain::All as usize;
            let mut older = self.slab[slot as usize].links[all].prev;
            while older != NIL && self.slab[older as usize].compressed {
                older = self.slab[older as usize].links[all].prev;
            }
            self.link_after(Chain::Exact, older, slot);
        }
    }

    /// Keep a head's just-produced KV resident instead of offloading it —
    /// all or nothing, without eviction and without recall accounting. If
    /// the *entire* page table fits (new pages plus growth of resident
    /// ones), everything is admitted: the head was never under memory
    /// pressure, so nothing is offloaded and nothing will ever be recalled
    /// (capacity ≥ full KV ⇒ 100 % hit rate). Otherwise the call is a no-op:
    /// the head's KV is offloaded wholesale (Fig. 5) and the GPU set holds
    /// only pages recalled by [`access`](Self::access). A page that was ever
    /// evicted keeps the head in offload mode — it cannot sneak back in for
    /// free. Returns the number of newly admitted pages.
    pub fn warm(&mut self, layer: LayerId, head: HeadId, pages: &[PageRequest]) -> usize {
        if self.offloaded.contains(&(layer, head)) {
            return 0;
        }
        let key_of = |req: &PageRequest| PageKey {
            layer,
            head,
            page: req.page,
        };
        let mut needed = Bytes(0);
        for req in pages {
            match self.pages.get(&key_of(req)) {
                Some(&Some(slot)) => {
                    let page = &self.slab[slot as usize];
                    if req.tokens > page.tokens {
                        // Growth re-admits the page exact, so a compressed
                        // page needs the full exact size minus its (smaller)
                        // compressed charge.
                        needed += Bytes(
                            self.page_bytes(req.tokens)
                                .get()
                                .saturating_sub(self.charged_bytes(page).get()),
                        );
                    }
                }
                Some(None) => {
                    self.offloaded.insert((layer, head));
                    return 0;
                }
                None => needed += self.page_bytes(req.tokens),
            }
        }
        if !self.fits(needed) {
            // Capacity is fixed and the head's table only grows: once it
            // stops fitting it never fits again.
            self.offloaded.insert((layer, head));
            return 0;
        }
        let mut admitted = 0;
        for req in pages {
            let key = key_of(req);
            match self.slot_of(key) {
                Some(slot) => {
                    // Fresh tokens were produced on device, never compressed.
                    if req.tokens > self.slab[slot as usize].tokens {
                        self.grow(slot, req.tokens);
                    }
                }
                None => {
                    self.pages.insert(key, None);
                    // Freshly produced on-device KV supersedes any staged
                    // copy (keeps staged ∩ resident = ∅).
                    if let Some(staged) = self.unstage(key) {
                        self.prefetch_stats.record_wasted(staged.bytes);
                    }
                    self.admit(key, req.tokens);
                    admitted += 1;
                }
            }
        }
        admitted
    }

    /// Speculatively move nominated pages into the staging buffer ahead of
    /// demand (DESIGN.md §10). Staging is purely an accounting device for
    /// the overlap clock: it never changes residency, hit/miss counters or
    /// recall bytes — a staged page that is later demanded still *misses*
    /// and still charges its recall bytes; only the overlap clock discounts
    /// the bytes the staged transfer already moved.
    ///
    /// Per nomination, in order: zero-token and GPU-resident pages are
    /// skipped (growth deltas of resident pages always travel on demand); a
    /// staged copy covering the nomination is refreshed in staging-LRU
    /// order; pages whose recall size exceeds the staging capacity are
    /// skipped; a smaller staged copy is superseded (its transfer was
    /// wasted); and the oldest staged pages — never resident ones — are
    /// evicted until the new page fits.
    /// Returns the bytes staged by this call.
    pub fn stage(&mut self, layer: LayerId, head: HeadId, pages: &[PageRequest]) -> Bytes {
        if self.staging_capacity.get() == 0 {
            return Bytes(0);
        }
        let mut staged = Bytes(0);
        for req in pages {
            if req.tokens == 0 {
                continue;
            }
            let key = PageKey {
                layer,
                head,
                page: req.page,
            };
            if self.contains(key) {
                continue;
            }
            if let Some(entry) = self.staged.get(&key) {
                if entry.tokens >= req.tokens {
                    // Already staged with coverage: refresh its staging-LRU
                    // position; no new bytes move.
                    let stamp = entry.stamp;
                    self.staging_lru.remove(&stamp);
                    self.staging_clock += 1;
                    let entry = self.staged.get_mut(&key).expect("checked staged");
                    entry.stamp = self.staging_clock;
                    self.staging_lru.insert(self.staging_clock, key);
                    continue;
                }
            }
            let size = self.recall_bytes(req.tokens);
            if size.get() > self.staging_capacity.get() {
                // Over capacity: skip, keeping any smaller staged copy (it
                // can still serve a smaller future demand).
                continue;
            }
            if let Some(old) = self.unstage(key) {
                // A larger nomination supersedes the staged copy: the old
                // transfer is wasted and the page restages in full.
                self.prefetch_stats.record_wasted(old.bytes);
            }
            while self.staging_used.get() + size.get() > self.staging_capacity.get() {
                let victim = match self.staging_lru.iter().next() {
                    Some((_, &key)) => key,
                    None => break,
                };
                let evicted = self.unstage(victim).expect("victim is staged");
                self.prefetch_stats.record_wasted(evicted.bytes);
            }
            self.staging_clock += 1;
            self.staged.insert(
                key,
                StagedPage {
                    tokens: req.tokens,
                    stamp: self.staging_clock,
                    bytes: size,
                },
            );
            self.staging_lru.insert(self.staging_clock, key);
            self.staging_used += size;
            self.prefetch_stats.record_staged(size);
            staged += size;
        }
        staged
    }

    /// Look up the pages selected by one head at one decode step: resident
    /// pages hit (and are refreshed in LRU order), the rest are recalled
    /// from CPU memory, admitted, and older pages are evicted to make room.
    /// A resident page that has grown recalls only the new tokens.
    // analyzer: hot-path — zero-allocation contract (tests/zero_alloc.rs)
    pub fn access(&mut self, layer: LayerId, head: HeadId, pages: &[PageRequest]) -> StepOutcome {
        let mut out = StepOutcome::default();
        for req in pages {
            let key = PageKey {
                layer,
                head,
                page: req.page,
            };
            let resident = self.pages.entry(key).or_insert(None).map(|slot| {
                let page = &self.slab[slot as usize];
                (slot, page.tokens, page.compressed)
            });
            match resident {
                Some((slot, tokens, compressed)) if tokens >= req.tokens => {
                    out.hit_tokens += req.tokens as u64;
                    if compressed {
                        // Served from the compressed tier: on-GPU (no PCIe),
                        // dequantized on access, and it stays compressed.
                        out.compressed_tokens += req.tokens as u64;
                    }
                    self.touch(slot);
                }
                Some((slot, tokens, compressed)) => {
                    // Partial hit: the resident prefix is free, the new
                    // tokens are recalled and the page is re-admitted exact
                    // at its grown size.
                    let grown = req.tokens - tokens;
                    if compressed {
                        out.compressed_tokens += tokens as u64;
                    }
                    out.hit_tokens += tokens as u64;
                    out.missed_tokens += grown as u64;
                    out.bytes_recalled += self.recall_bytes(grown);
                    self.drop_page(slot);
                    self.admit(key, req.tokens);
                }
                None => {
                    out.missed_tokens += req.tokens as u64;
                    out.bytes_recalled += self.recall_bytes(req.tokens);
                    if let Some(staged) = self.unstage(key) {
                        if staged.tokens >= req.tokens {
                            // Promotion: the staged transfer already moved
                            // these bytes, so the overlap clock discounts
                            // them. Miss/recall accounting above is
                            // untouched — staging changes *when* bytes
                            // move, never what attends or what counts.
                            let used = self.recall_bytes(req.tokens);
                            self.prefetch_stats.record_used(used);
                            if staged.bytes.get() > used.get() {
                                self.prefetch_stats
                                    .record_wasted(Bytes(staged.bytes.get() - used.get()));
                            }
                            out.staged_bytes += used;
                        } else {
                            // Stale: the staged copy is smaller than the
                            // demand, so the whole staged transfer was
                            // wasted and the page recalls in full.
                            self.prefetch_stats.record_wasted(staged.bytes);
                        }
                    }
                    self.admit(key, req.tokens);
                }
            }
        }
        self.stats.record_hits(out.hit_tokens);
        self.stats
            .record_misses(out.missed_tokens, out.bytes_recalled);
        self.compression_stats
            .record_compressed_hits(out.compressed_tokens);
        out
    }

    /// Integrity accounting: injected/detected/repaired corruptions and
    /// verifications over the resident set.
    pub fn integrity(&self) -> IntegrityStats {
        self.integrity
    }

    /// Flip the integrity tag of one deterministically chosen resident page
    /// (the `pick % resident_pages`-th in key order), modeling in-memory
    /// corruption. CPU memory stays pristine, so attended values are
    /// unaffected — a later [`scrub`](Self::scrub) detects the damage and
    /// charges the repair traffic. Returns whether a page was corrupted
    /// (`false` when nothing is resident).
    pub fn corrupt_resident_page(&mut self, pick: u64) -> bool {
        let resident = self.resident_pages() as u64;
        if resident == 0 {
            return false;
        }
        let Some(slot) = self.resident_slots().nth((pick % resident) as usize) else {
            return false;
        };
        self.slab[slot as usize].tag ^= clusterkv_faults::CORRUPTION_MASK;
        self.integrity.record_injected();
        true
    }

    // analyzer: recovery-path
    /// Verify every resident page's integrity tag and repair mismatches by
    /// re-fetching the page from CPU memory (re-seal the tag, charge
    /// the page's recall bytes). Detection is guaranteed: the corruption
    /// mask is non-zero, so a damaged tag never matches the recomputed one.
    /// Returns the bytes re-fetched by repairs.
    pub fn scrub(&mut self) -> Bytes {
        let mut repaired = Bytes(0);
        for slot in self.pages.values().copied().flatten() {
            let page = &self.slab[slot as usize];
            let (tokens, sealed) = (page.tokens, Self::page_tag(page.key, page.tokens));
            self.integrity.record_verified();
            if page.tag != sealed {
                self.integrity.record_detected();
                let bytes = self.recall_bytes(tokens);
                self.slab[slot as usize].tag = sealed;
                self.integrity.record_repaired(bytes.get());
                repaired += bytes;
            }
        }
        repaired
    }

    /// Drop the entire staging buffer (degradation-ladder rung 1): every
    /// staged page is discarded and its transfer recorded as wasted.
    /// Accounting-only — residency, hit/miss behaviour and token streams are
    /// untouched; a page dropped here simply recalls on demand later.
    /// Returns the bytes released.
    pub fn drop_staging(&mut self) -> Bytes {
        let mut dropped = Bytes(0);
        while let Some(&key) = self.staging_lru.values().next() {
            if let Some(entry) = self.unstage(key) {
                self.prefetch_stats.record_wasted(entry.bytes);
                dropped += entry.bytes;
            }
        }
        dropped
    }

    /// Demote every exact resident page to the compressed tier in LRU order
    /// (degradation-ladder rung 2). A no-op in lossless mode, where demotion
    /// never shrinks a page. Returns the number of pages demoted.
    pub fn demote_all(&mut self) -> usize {
        let mut demoted = 0;
        let mut slot = self.heads[Chain::Exact as usize];
        while slot != NIL {
            let next = self.slab[slot as usize].links[Chain::Exact as usize].next;
            demoted += usize::from(self.demote_page(slot));
            slot = next;
        }
        demoted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: LayerId = LayerId(0);
    const H: HeadId = HeadId(0);

    /// A cache holding `tokens` tokens of head_dim 1 (4 bytes per token).
    fn cache_for(tokens: u64) -> ClusterCache {
        ClusterCache::new(ClusterCacheConfig::new(Bytes(4 * tokens), 1))
    }

    fn reqs(pages: &[(usize, usize)]) -> Vec<PageRequest> {
        pages.iter().map(|&(p, t)| PageRequest::new(p, t)).collect()
    }

    /// `(key, tokens, compressed)` of every resident page, least recently
    /// used first.
    fn lru_order(c: &ClusterCache) -> Vec<(PageKey, usize, bool)> {
        let mut order = Vec::new();
        let mut slot = c.heads[Chain::All as usize];
        while slot != NIL {
            let page = &c.slab[slot as usize];
            order.push((page.key, page.tokens, page.compressed));
            slot = page.links[Chain::All as usize].next;
        }
        order
    }

    /// Whether a resident page is held compressed.
    fn is_compressed(c: &ClusterCache, key: PageKey) -> bool {
        c.slab[c.slot_of(key).expect("page is resident") as usize].compressed
    }

    #[test]
    fn cold_accesses_miss_then_hit() {
        let mut c = cache_for(32);
        let cold = c.access(L, H, &reqs(&[(0, 4), (1, 4)]));
        assert_eq!(cold.missed_tokens, 8);
        assert_eq!(cold.bytes_recalled, Bytes(32));
        let warm = c.access(L, H, &reqs(&[(0, 4), (1, 4)]));
        assert_eq!(warm.hit_tokens, 8);
        assert_eq!(warm.missed_tokens, 0);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(c.stats().bytes_recalled, Bytes(32));
    }

    #[test]
    fn zero_capacity_disables_residency() {
        let mut c = cache_for(0);
        assert!(!c.enabled());
        for _ in 0..3 {
            let out = c.access(L, H, &reqs(&[(0, 4)]));
            assert_eq!(out.missed_tokens, 4);
        }
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.resident_pages(), 0);
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        // Capacity for exactly two 4-token pages.
        let mut c = cache_for(8);
        c.access(L, H, &reqs(&[(0, 4)]));
        c.access(L, H, &reqs(&[(1, 4)]));
        // Touch page 0 so page 1 becomes the LRU victim.
        c.access(L, H, &reqs(&[(0, 4)]));
        c.access(L, H, &reqs(&[(2, 4)]));
        assert!(c.contains(PageKey {
            layer: L,
            head: H,
            page: 0
        }));
        assert!(!c.contains(PageKey {
            layer: L,
            head: H,
            page: 1
        }));
        let out = c.access(L, H, &reqs(&[(1, 4)]));
        assert_eq!(out.missed_tokens, 4, "evicted page must be recalled");
    }

    #[test]
    fn page_larger_than_capacity_is_streamed_not_admitted() {
        let mut c = cache_for(8);
        c.access(L, H, &reqs(&[(0, 4)]));
        let out = c.access(L, H, &reqs(&[(9, 100)]));
        assert_eq!(out.missed_tokens, 100);
        assert_eq!(c.resident_pages(), 1, "oversized page must not evict");
        assert!(c.contains(PageKey {
            layer: L,
            head: H,
            page: 0
        }));
    }

    #[test]
    fn grown_page_recalls_only_the_delta() {
        let mut c = cache_for(32);
        c.access(L, H, &reqs(&[(0, 4)]));
        let out = c.access(L, H, &reqs(&[(0, 6)]));
        assert_eq!(out.hit_tokens, 4);
        assert_eq!(out.missed_tokens, 2);
        assert_eq!(out.bytes_recalled, Bytes(8));
        let again = c.access(L, H, &reqs(&[(0, 6)]));
        assert_eq!(again.hit_tokens, 6);
    }

    #[test]
    fn warm_is_all_or_nothing_and_offload_is_permanent() {
        // Capacity for two 4-token pages: a 3-page table does not fully fit,
        // so nothing is admitted and the head enters offload mode for good.
        let mut c = cache_for(8);
        assert_eq!(c.warm(L, H, &reqs(&[(0, 4), (1, 4), (2, 4)])), 0);
        assert_eq!(c.resident_bytes(), Bytes(0));
        assert!(c.is_offloaded(L, H));
        assert_eq!(c.warm(L, H, &reqs(&[(0, 4)])), 0, "offload is sticky");
        // Another head's 2-page table fits and is admitted in full.
        let h1 = HeadId(1);
        assert!(!c.is_offloaded(L, h1));
        assert_eq!(c.warm(L, h1, &reqs(&[(0, 4), (1, 4)])), 2);
        assert_eq!(c.resident_bytes(), Bytes(32));
    }

    #[test]
    fn warm_never_readmits_evicted_pages() {
        let mut c = cache_for(8);
        assert_eq!(c.warm(L, H, &reqs(&[(0, 4), (1, 4)])), 2);
        // A big recall evicts both warm pages...
        c.access(L, H, &reqs(&[(5, 8)]));
        assert!(!c.contains(PageKey {
            layer: L,
            head: H,
            page: 0
        }));
        // ...after which the head stays in offload mode: a table containing
        // the evicted page cannot be re-warmed for free.
        assert_eq!(c.warm(L, H, &reqs(&[(0, 4)])), 0);
        let out = c.access(L, H, &reqs(&[(0, 4)]));
        assert_eq!(out.missed_tokens, 4);
    }

    #[test]
    fn warm_grows_resident_pages_without_recall() {
        let mut c = cache_for(32);
        c.warm(L, H, &reqs(&[(0, 4)]));
        // The page absorbed two fresh on-device tokens.
        c.warm(L, H, &reqs(&[(0, 6)]));
        let out = c.access(L, H, &reqs(&[(0, 6)]));
        assert_eq!(out.hit_tokens, 6);
        assert_eq!(out.missed_tokens, 0);
        assert_eq!(c.resident_bytes(), Bytes(24));
    }

    #[test]
    fn warm_pages_hit_without_any_recall() {
        let mut c = cache_for(64);
        c.warm(L, H, &reqs(&[(0, 8), (1, 8)]));
        let out = c.access(L, H, &reqs(&[(0, 8), (1, 8)]));
        assert_eq!(out.hit_tokens, 16);
        assert_eq!(out.missed_tokens, 0);
        assert_eq!(c.stats().bytes_recalled, Bytes(0));
        assert!((c.stats().hit_rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn heads_do_not_collide() {
        let mut c = cache_for(64);
        c.access(LayerId(0), HeadId(0), &reqs(&[(0, 4)]));
        let other_head = c.access(LayerId(0), HeadId(1), &reqs(&[(0, 4)]));
        assert_eq!(other_head.missed_tokens, 4, "same page id, different head");
        let other_layer = c.access(LayerId(1), HeadId(0), &reqs(&[(0, 4)]));
        assert_eq!(other_layer.missed_tokens, 4);
        assert_eq!(c.resident_pages(), 3);
    }

    #[test]
    fn accesses_are_deterministic() {
        let pattern: Vec<Vec<PageRequest>> = (0..50)
            .map(|i| reqs(&[(i % 5, 3), ((i + 2) % 7, 2)]))
            .collect();
        let run = || {
            let mut c = cache_for(16);
            let outs: Vec<StepOutcome> = pattern.iter().map(|p| c.access(L, H, p)).collect();
            (outs, c.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn larger_capacity_never_lowers_the_hit_rate() {
        // LRU is a stack algorithm: for a fixed access pattern the hit rate
        // is non-decreasing in capacity (the property exp_cache_hits sweeps).
        let pattern: Vec<Vec<PageRequest>> = (0..80)
            .map(|i| reqs(&[(i % 6, 4), ((i * 3) % 11, 4)]))
            .collect();
        let hit_rate = |tokens: u64| {
            let mut c = cache_for(tokens);
            for p in &pattern {
                c.access(L, H, p);
            }
            c.stats().hit_rate()
        };
        let rates: Vec<f64> = [0u64, 8, 16, 32, 64, 128]
            .iter()
            .map(|&t| hit_rate(t))
            .collect();
        for pair in rates.windows(2) {
            assert!(
                pair[1] >= pair[0] - 1e-12,
                "hit rate decreased with capacity: {rates:?}"
            );
        }
        assert_eq!(rates[0], 0.0);
    }

    #[test]
    fn recency_window_sizing_matches_budget_steps() {
        let cfg = ClusterCacheConfig::for_recency_window(2, 100, 8);
        // 2 steps * 100 tokens * 32 bytes (2 tensors * 2 bytes * 8 dims).
        assert_eq!(cfg.gpu_capacity, Bytes(2 * 100 * 32));
        assert_eq!(cfg.bytes_per_token, Bytes(32));
        assert!(cfg.compression.is_lossless(), "lossless by default");
    }

    use crate::compressed::CompressionConfig;

    /// A cache holding `tokens` tokens of head_dim 8 (32 bytes per token)
    /// under the given compression config.
    fn cache_with(tokens: u64, compression: CompressionConfig) -> ClusterCache {
        ClusterCache::new(
            ClusterCacheConfig::new(Bytes(32 * tokens), 8).with_compression(compression),
        )
    }

    #[test]
    fn lossless_eviction_never_demotes() {
        let mut c = cache_with(8, CompressionConfig::lossless());
        c.access(L, H, &reqs(&[(0, 4)]));
        c.access(L, H, &reqs(&[(1, 4)]));
        c.access(L, H, &reqs(&[(2, 4)]));
        assert_eq!(c.compressed_pages(), 0);
        assert_eq!(c.compression_stats().demotions, 0);
    }

    #[test]
    fn eviction_demotes_the_lru_victim_before_dropping() {
        // Capacity 320 B; a 4-token page is 128 B exact, 64 + 8 = 72 B int8.
        let mut c = cache_with(10, CompressionConfig::int8());
        c.access(L, H, &reqs(&[(0, 4)]));
        c.access(L, H, &reqs(&[(1, 4)]));
        // Admitting page 2 (128 B) does not fit next to two exact pages
        // (256 + 128 > 320). The demotion pass shrinks pages 0 and 1 to
        // 72 B each (144 + 128 ≤ 320), so nothing is dropped.
        c.access(L, H, &reqs(&[(2, 4)]));
        assert!(c.contains(PageKey {
            layer: L,
            head: H,
            page: 0
        }));
        assert!(c.contains(PageKey {
            layer: L,
            head: H,
            page: 1
        }));
        assert_eq!(c.resident_pages(), 3);
        assert_eq!(c.compressed_pages(), 2);
        assert_eq!(c.compression_stats().demotions, 2);
        assert_eq!(c.resident_bytes(), Bytes(144 + 128));
        // Accessing the demoted page is a compressed hit: on GPU, no PCIe.
        let out = c.access(L, H, &reqs(&[(0, 4)]));
        assert_eq!(out.hit_tokens, 4);
        assert_eq!(out.compressed_tokens, 4);
        assert_eq!(out.missed_tokens, 0);
        assert_eq!(out.bytes_recalled, Bytes(0));
    }

    #[test]
    fn compressed_pages_drop_to_paged_under_continued_pressure() {
        let mut c = cache_with(8, CompressionConfig::int8());
        for p in 0..6 {
            c.access(L, H, &reqs(&[(p, 4)]));
        }
        // Every page could be demoted at most once; continued pressure must
        // have dropped the oldest ones entirely (Resident→Compressed→Paged).
        assert!(c.resident_bytes().get() <= c.capacity().get());
        assert!(!c.contains(PageKey {
            layer: L,
            head: H,
            page: 0
        }));
        let recall = c.access(L, H, &reqs(&[(0, 4)]));
        assert_eq!(recall.missed_tokens, 4);
        assert!(c.compression_stats().demotions > 0);
    }

    #[test]
    fn quantized_cold_recalls_move_fewer_bytes() {
        let mut exact = cache_with(32, CompressionConfig::lossless());
        let mut int8 = cache_with(32, CompressionConfig::int8());
        let cold = reqs(&[(0, 16)]);
        let e = exact.access(L, H, &cold);
        let q = int8.access(L, H, &cold);
        assert_eq!(e.missed_tokens, q.missed_tokens);
        assert_eq!(e.bytes_recalled, Bytes(16 * 32));
        assert_eq!(q.bytes_recalled, Bytes(16 * 16 + 8), "int8 + scales");
        assert!(q.bytes_recalled.get() < e.bytes_recalled.get());
    }

    #[test]
    fn grown_compressed_page_readmits_exact() {
        let mut c = cache_with(10, CompressionConfig::int8());
        c.access(L, H, &reqs(&[(0, 4)]));
        c.access(L, H, &reqs(&[(1, 4)]));
        c.access(L, H, &reqs(&[(2, 4)])); // demotes pages 0 and 1
        assert_eq!(c.compressed_pages(), 2);
        let out = c.access(L, H, &reqs(&[(0, 6)]));
        assert_eq!(out.hit_tokens, 4);
        assert_eq!(out.compressed_tokens, 4, "compressed prefix is free");
        assert_eq!(out.missed_tokens, 2);
        let key0 = PageKey {
            layer: L,
            head: H,
            page: 0,
        };
        if c.contains(key0) {
            assert!(!is_compressed(&c, key0));
        }
    }

    #[test]
    fn warm_growth_promotes_a_compressed_page() {
        // Capacity 640 B: a 4-token page (128 B) and a 16-token page
        // (512 B) fill it exactly; admitting page 2 demotes both
        // (72 + 264 + 128 ≤ 640) and leaves 176 B of headroom.
        let mut c = cache_with(20, CompressionConfig::int8());
        c.access(L, H, &reqs(&[(0, 4)]));
        c.access(L, H, &reqs(&[(1, 16)]));
        c.access(L, H, &reqs(&[(2, 4)]));
        assert_eq!(c.compressed_pages(), 2);
        // Warm growth of the demoted page 0 re-admits it exact at 5 tokens
        // (needs 160 − 72 = 88 B of the headroom): fresh tokens are
        // produced on device, never compressed.
        assert_eq!(c.warm(L, H, &reqs(&[(0, 5)])), 0, "growth, not admission");
        let key0 = PageKey {
            layer: L,
            head: H,
            page: 0,
        };
        assert!(c.contains(key0));
        assert!(!is_compressed(&c, key0), "promoted");
        assert_eq!(c.compressed_pages(), 1);
        let out = c.access(L, H, &reqs(&[(0, 5)]));
        assert_eq!(out.hit_tokens, 5);
        assert_eq!(out.compressed_tokens, 0);
        assert!(c.resident_bytes().get() <= c.capacity().get());
    }

    /// A cache holding `tokens` resident tokens plus a staging buffer of
    /// `staging_tokens` tokens, head_dim 1 (4 bytes per token).
    fn staged_cache_for(tokens: u64, staging_tokens: u64) -> ClusterCache {
        ClusterCache::new(
            ClusterCacheConfig::new(Bytes(4 * tokens), 1).with_staging(Bytes(4 * staging_tokens)),
        )
    }

    #[test]
    fn zero_staging_capacity_disables_staging() {
        let mut c = cache_for(16);
        assert_eq!(c.staging_capacity(), Bytes(0));
        assert_eq!(c.stage(L, H, &reqs(&[(0, 4)])), Bytes(0));
        assert_eq!(c.staged_pages(), 0);
        assert_eq!(c.prefetch_stats(), PrefetchStats::new());
    }

    #[test]
    fn staged_page_promotes_without_changing_accounting() {
        let mut plain = cache_for(16);
        let mut staged = staged_cache_for(16, 8);
        assert_eq!(staged.stage(L, H, &reqs(&[(0, 4)])), Bytes(16));
        assert_eq!(staged.staged_bytes(), Bytes(16));
        let p = plain.access(L, H, &reqs(&[(0, 4)]));
        let s = staged.access(L, H, &reqs(&[(0, 4)]));
        // Hit/miss/recall accounting is identical — staging only marks the
        // bytes the overlap clock may discount.
        assert_eq!(p.missed_tokens, s.missed_tokens);
        assert_eq!(p.bytes_recalled, s.bytes_recalled);
        assert_eq!(p.hit_tokens, s.hit_tokens);
        assert_eq!(plain.stats(), staged.stats());
        assert_eq!(s.staged_bytes, Bytes(16));
        assert_eq!(p.staged_bytes, Bytes(0));
        // The promotion consumed the staged copy.
        assert_eq!(staged.staged_pages(), 0);
        assert_eq!(staged.staged_bytes(), Bytes(0));
        assert!((staged.prefetch_stats().accuracy() - 1.0).abs() < 1e-12);
        assert_eq!(staged.prefetch_stats().wasted_bytes, Bytes(0));
    }

    #[test]
    fn stage_skips_resident_pages() {
        let mut c = staged_cache_for(16, 16);
        c.access(L, H, &reqs(&[(0, 4)]));
        // Page 0 is resident: only page 1 moves.
        let moved = c.stage(L, H, &reqs(&[(0, 4), (1, 4)]));
        assert_eq!(moved, Bytes(16));
        assert_eq!(c.staged_pages(), 1);
        assert_eq!(c.prefetch_stats().staged_pages, 1);
    }

    #[test]
    fn staging_never_exceeds_cap_and_never_evicts_resident() {
        // Staging holds two 4-token pages; resident set holds one.
        let mut c = staged_cache_for(4, 8);
        c.access(L, H, &reqs(&[(9, 4)]));
        let before_resident = c.resident_bytes();
        c.stage(L, H, &reqs(&[(0, 4), (1, 4), (2, 4)]));
        // Page 0 was evicted from staging (oldest) to make room for page 2.
        assert_eq!(c.staged_pages(), 2);
        assert_eq!(c.staged_bytes(), Bytes(32));
        assert!(c.staged_bytes().get() <= c.staging_capacity().get());
        assert_eq!(c.prefetch_stats().staged_pages, 3);
        assert_eq!(c.prefetch_stats().wasted_bytes, Bytes(16));
        // The resident set is untouched by staging pressure.
        assert_eq!(c.resident_bytes(), before_resident);
        assert!(c.contains(PageKey {
            layer: L,
            head: H,
            page: 9
        }));
        // The evicted nomination recalls on demand like any miss.
        let out = c.access(L, H, &reqs(&[(0, 4)]));
        assert_eq!(out.missed_tokens, 4);
        assert_eq!(out.staged_bytes, Bytes(0));
    }

    #[test]
    fn oversized_page_is_never_staged() {
        let mut c = staged_cache_for(16, 4);
        assert_eq!(c.stage(L, H, &reqs(&[(0, 100)])), Bytes(0));
        assert_eq!(c.staged_pages(), 0);
    }

    #[test]
    fn stale_staged_copy_is_wasted_on_larger_demand() {
        let mut c = staged_cache_for(16, 8);
        c.stage(L, H, &reqs(&[(0, 2)]));
        let out = c.access(L, H, &reqs(&[(0, 4)]));
        // The staged 2-token copy cannot serve a 4-token demand: full
        // demand recall, staged bytes all wasted.
        assert_eq!(out.missed_tokens, 4);
        assert_eq!(out.staged_bytes, Bytes(0));
        assert_eq!(c.prefetch_stats().used_pages, 0);
        assert_eq!(c.prefetch_stats().wasted_bytes, Bytes(8));
        assert_eq!(c.staged_pages(), 0);
    }

    #[test]
    fn larger_nomination_supersedes_staged_copy() {
        let mut c = staged_cache_for(16, 8);
        c.stage(L, H, &reqs(&[(0, 2)]));
        c.stage(L, H, &reqs(&[(0, 4)]));
        assert_eq!(c.staged_pages(), 1);
        assert_eq!(c.staged_bytes(), Bytes(16));
        assert_eq!(c.prefetch_stats().wasted_bytes, Bytes(8), "old copy");
        let out = c.access(L, H, &reqs(&[(0, 4)]));
        assert_eq!(out.staged_bytes, Bytes(16));
    }

    #[test]
    fn restaging_a_covering_copy_moves_no_new_bytes() {
        let mut c = staged_cache_for(16, 8);
        assert_eq!(c.stage(L, H, &reqs(&[(0, 4)])), Bytes(16));
        assert_eq!(c.stage(L, H, &reqs(&[(0, 4)])), Bytes(0));
        assert_eq!(c.stage(L, H, &reqs(&[(0, 2)])), Bytes(0));
        assert_eq!(c.prefetch_stats().staged_pages, 1);
        assert_eq!(c.prefetch_stats().staged_bytes, Bytes(16));
    }

    #[test]
    fn warm_admission_supersedes_staged_copy() {
        let mut c = staged_cache_for(16, 8);
        c.stage(L, H, &reqs(&[(0, 4)]));
        assert_eq!(c.warm(L, H, &reqs(&[(0, 4)])), 1);
        assert_eq!(c.staged_pages(), 0, "staged ∩ resident = ∅");
        assert_eq!(c.prefetch_stats().wasted_bytes, Bytes(16));
        let out = c.access(L, H, &reqs(&[(0, 4)]));
        assert_eq!(out.hit_tokens, 4);
    }

    #[test]
    fn promotion_of_covering_copy_wastes_only_the_excess() {
        let mut c = staged_cache_for(16, 8);
        c.stage(L, H, &reqs(&[(0, 4)]));
        let out = c.access(L, H, &reqs(&[(0, 3)]));
        assert_eq!(out.missed_tokens, 3);
        assert_eq!(out.staged_bytes, Bytes(12));
        assert_eq!(c.prefetch_stats().used_bytes, Bytes(12));
        assert_eq!(c.prefetch_stats().wasted_bytes, Bytes(4), "excess tokens");
    }

    #[test]
    fn quantized_staging_moves_compressed_bytes() {
        // head_dim 8 → 32 B/token exact; int8 moves 16 B/token + 8 B scales.
        let mut c = ClusterCache::new(
            ClusterCacheConfig::new(Bytes(32 * 32), 8)
                .with_compression(CompressionConfig::int8())
                .with_staging(Bytes(32 * 8)),
        );
        let moved = c.stage(L, H, &reqs(&[(0, 4)]));
        assert_eq!(moved, Bytes(4 * 16 + 8), "staged at the recall width");
        let out = c.access(L, H, &reqs(&[(0, 4)]));
        assert_eq!(out.bytes_recalled, Bytes(4 * 16 + 8));
        assert_eq!(out.staged_bytes, out.bytes_recalled);
    }

    #[test]
    fn corrupt_then_scrub_detects_and_repairs() {
        let mut c = cache_for(16);
        c.access(L, H, &reqs(&[(0, 4), (1, 4)]));
        assert!(c.corrupt_resident_page(7));
        let repaired = c.scrub();
        assert_eq!(repaired, Bytes(4 * 4), "one 4-token page re-fetched");
        let stats = c.integrity();
        assert_eq!(stats.corruptions_injected, 1);
        assert_eq!(stats.corruptions_detected, 1);
        assert_eq!(stats.corruptions_repaired, 1);
        assert_eq!(stats.silent_corruptions(), 0);
        // Repair re-sealed the tag: a second scrub finds nothing.
        assert_eq!(c.scrub(), Bytes(0));
        assert_eq!(c.integrity().corruptions_detected, 1);
    }

    #[test]
    fn scrub_of_a_clean_cache_repairs_nothing() {
        let mut c = cache_for(16);
        c.access(L, H, &reqs(&[(0, 4), (1, 4)]));
        assert_eq!(c.scrub(), Bytes(0));
        let stats = c.integrity();
        assert_eq!(stats.corruptions_detected, 0);
        assert_eq!(stats.verifications, 2);
    }

    #[test]
    fn corrupt_on_an_empty_cache_is_a_no_op() {
        let mut c = cache_for(16);
        assert!(!c.corrupt_resident_page(0));
        assert_eq!(c.integrity().corruptions_injected, 0);
    }

    #[test]
    fn corruption_does_not_change_hit_miss_accounting() {
        // CPU memory is ground truth: a corrupted resident page still
        // hits (the scrub repairs the tag out of band), so what attends is
        // untouched — corruption only adds repair traffic.
        let mut c = cache_for(16);
        c.access(L, H, &reqs(&[(0, 4)]));
        assert!(c.corrupt_resident_page(0));
        c.scrub();
        let out = c.access(L, H, &reqs(&[(0, 4)]));
        assert_eq!(out.hit_tokens, 4);
        assert_eq!(out.bytes_recalled, Bytes(0));
    }

    #[test]
    fn drop_staging_releases_everything_as_wasted() {
        let mut c =
            ClusterCache::new(ClusterCacheConfig::new(Bytes(4 * 16), 1).with_staging(Bytes(4 * 8)));
        c.stage(L, H, &reqs(&[(0, 2), (1, 2)]));
        assert_eq!(c.staged_pages(), 2);
        let before_wasted = c.prefetch_stats().wasted_bytes;
        let dropped = c.drop_staging();
        assert_eq!(dropped, Bytes(4 * 4));
        assert_eq!(c.staged_pages(), 0);
        assert_eq!(c.staged_bytes(), Bytes(0));
        assert_eq!(
            c.prefetch_stats().wasted_bytes.get(),
            before_wasted.get() + dropped.get()
        );
        // Residency is untouched: the dropped pages still miss on demand.
        let out = c.access(L, H, &reqs(&[(0, 2)]));
        assert_eq!(out.missed_tokens, 2);
        assert_eq!(out.staged_bytes, Bytes(0));
    }

    #[test]
    fn demote_all_is_a_no_op_when_lossless_and_demotes_when_quantized() {
        let mut lossless = cache_for(64);
        lossless.access(L, H, &reqs(&[(0, 8), (1, 8)]));
        assert_eq!(lossless.demote_all(), 0);
        assert_eq!(lossless.compressed_pages(), 0);

        // head_dim 8 → 32 B/token exact; int8 shrinks an 8-token page.
        let mut quant = ClusterCache::new(
            ClusterCacheConfig::new(Bytes(32 * 64), 8).with_compression(CompressionConfig::int8()),
        );
        quant.access(L, H, &reqs(&[(0, 8), (1, 8)]));
        assert_eq!(quant.demote_all(), 2);
        assert_eq!(quant.compressed_pages(), 2);
        // Demotion keeps pages resident: both still hit.
        let out = quant.access(L, H, &reqs(&[(0, 8), (1, 8)]));
        assert_eq!(out.hit_tokens, 16);
        assert_eq!(out.compressed_tokens, 16);
    }

    /// The cache as it was before the slab and its chains: pages in a `Vec`
    /// in LRU order, every lookup and every eviction a full scan — the
    /// demotion pass snapshots all of it and walks it per admission. Slow
    /// and obviously right; the model the real cache is replayed against.
    struct ScanCache {
        capacity: u64,
        bytes_per_token: Bytes,
        compression: CompressionConfig,
        /// `(key, tokens, compressed)`, least recently used first.
        resident: Vec<(PageKey, usize, bool)>,
        known: BTreeSet<PageKey>,
        offloaded: BTreeSet<(LayerId, HeadId)>,
        staging_capacity: u64,
        /// `(key, tokens, bytes)`, least recently staged first.
        staged: Vec<(PageKey, usize, u64)>,
        stats: CacheStats,
        compression_stats: CompressionStats,
        prefetch_stats: PrefetchStats,
    }

    impl ScanCache {
        fn new(config: ClusterCacheConfig) -> Self {
            Self {
                capacity: config.gpu_capacity.get(),
                bytes_per_token: config.bytes_per_token,
                compression: config.compression,
                resident: Vec::new(),
                known: BTreeSet::new(),
                offloaded: BTreeSet::new(),
                staging_capacity: config.staging_capacity.get(),
                staged: Vec::new(),
                stats: CacheStats::new(),
                compression_stats: CompressionStats::new(),
                prefetch_stats: PrefetchStats::new(),
            }
        }

        fn exact(&self, tokens: usize) -> u64 {
            self.bytes_per_token.get() * tokens as u64
        }

        fn compressed(&self, tokens: usize) -> u64 {
            self.compression
                .page_bytes(tokens, self.bytes_per_token)
                .get()
        }

        fn recall(&self, tokens: usize) -> u64 {
            if self.compression.is_lossless() {
                self.exact(tokens)
            } else if tokens == 0 {
                0
            } else {
                self.compressed(tokens)
            }
        }

        fn charged(&self, &(_, tokens, compressed): &(PageKey, usize, bool)) -> u64 {
            if compressed {
                self.compressed(tokens)
            } else {
                self.exact(tokens)
            }
        }

        fn used(&self) -> u64 {
            self.resident.iter().map(|p| self.charged(p)).sum()
        }

        fn find(&self, key: PageKey) -> Option<usize> {
            self.resident.iter().position(|p| p.0 == key)
        }

        fn demote(&mut self, at: usize) -> bool {
            let (_, tokens, compressed) = self.resident[at];
            if compressed || !self.compression.shrinks(tokens, self.bytes_per_token) {
                return false;
            }
            self.resident[at].2 = true;
            self.compression_stats.record_demotion();
            true
        }

        fn admit(&mut self, key: PageKey, tokens: usize) {
            let size = self.exact(tokens);
            if size > self.capacity {
                return;
            }
            if !self.compression.is_lossless() {
                for at in 0..self.resident.len() {
                    if self.used() + size <= self.capacity {
                        break;
                    }
                    self.demote(at);
                }
            }
            while self.used() + size > self.capacity {
                self.resident.remove(0);
            }
            self.resident.push((key, tokens, false));
        }

        fn unstage(&mut self, key: PageKey) -> Option<(usize, u64)> {
            let at = self.staged.iter().position(|p| p.0 == key)?;
            let (_, tokens, bytes) = self.staged.remove(at);
            Some((tokens, bytes))
        }

        fn warm(&mut self, layer: LayerId, head: HeadId, pages: &[PageRequest]) -> usize {
            if self.offloaded.contains(&(layer, head)) {
                return 0;
            }
            let key_of = |req: &PageRequest| PageKey {
                layer,
                head,
                page: req.page,
            };
            let mut needed = 0;
            for req in pages {
                match self.find(key_of(req)) {
                    Some(at) if req.tokens > self.resident[at].1 => {
                        needed += self
                            .exact(req.tokens)
                            .saturating_sub(self.charged(&self.resident[at]));
                    }
                    Some(_) => {}
                    None if self.known.contains(&key_of(req)) => {
                        self.offloaded.insert((layer, head));
                        return 0;
                    }
                    None => needed += self.exact(req.tokens),
                }
            }
            if self.used() + needed > self.capacity {
                self.offloaded.insert((layer, head));
                return 0;
            }
            let mut admitted = 0;
            for req in pages {
                let key = key_of(req);
                match self.find(key) {
                    Some(at) if req.tokens > self.resident[at].1 => {
                        self.resident[at] = (key, req.tokens, false);
                    }
                    Some(_) => {}
                    None => {
                        self.known.insert(key);
                        if let Some((_, bytes)) = self.unstage(key) {
                            self.prefetch_stats.record_wasted(Bytes(bytes));
                        }
                        self.admit(key, req.tokens);
                        admitted += 1;
                    }
                }
            }
            admitted
        }

        fn stage(&mut self, layer: LayerId, head: HeadId, pages: &[PageRequest]) -> Bytes {
            if self.staging_capacity == 0 {
                return Bytes(0);
            }
            let mut moved = 0;
            for req in pages {
                let key = PageKey {
                    layer,
                    head,
                    page: req.page,
                };
                if req.tokens == 0 || self.find(key).is_some() {
                    continue;
                }
                if let Some(at) = self.staged.iter().position(|p| p.0 == key) {
                    if self.staged[at].1 >= req.tokens {
                        let entry = self.staged.remove(at);
                        self.staged.push(entry);
                        continue;
                    }
                }
                let size = self.recall(req.tokens);
                if size > self.staging_capacity {
                    continue;
                }
                if let Some((_, bytes)) = self.unstage(key) {
                    self.prefetch_stats.record_wasted(Bytes(bytes));
                }
                while self.staged.iter().map(|p| p.2).sum::<u64>() + size > self.staging_capacity {
                    let (_, _, bytes) = self.staged.remove(0);
                    self.prefetch_stats.record_wasted(Bytes(bytes));
                }
                self.staged.push((key, req.tokens, size));
                self.prefetch_stats.record_staged(Bytes(size));
                moved += size;
            }
            Bytes(moved)
        }

        fn access(&mut self, layer: LayerId, head: HeadId, pages: &[PageRequest]) -> StepOutcome {
            let mut out = StepOutcome::default();
            for req in pages {
                let key = PageKey {
                    layer,
                    head,
                    page: req.page,
                };
                self.known.insert(key);
                match self.find(key) {
                    Some(at) if self.resident[at].1 >= req.tokens => {
                        out.hit_tokens += req.tokens as u64;
                        if self.resident[at].2 {
                            out.compressed_tokens += req.tokens as u64;
                        }
                        let page = self.resident.remove(at);
                        self.resident.push(page);
                    }
                    Some(at) => {
                        let (_, tokens, compressed) = self.resident.remove(at);
                        if compressed {
                            out.compressed_tokens += tokens as u64;
                        }
                        out.hit_tokens += tokens as u64;
                        out.missed_tokens += (req.tokens - tokens) as u64;
                        out.bytes_recalled += Bytes(self.recall(req.tokens - tokens));
                        self.admit(key, req.tokens);
                    }
                    None => {
                        out.missed_tokens += req.tokens as u64;
                        out.bytes_recalled += Bytes(self.recall(req.tokens));
                        if let Some((tokens, bytes)) = self.unstage(key) {
                            if tokens >= req.tokens {
                                let used = self.recall(req.tokens);
                                self.prefetch_stats.record_used(Bytes(used));
                                if bytes > used {
                                    self.prefetch_stats.record_wasted(Bytes(bytes - used));
                                }
                                out.staged_bytes += Bytes(used);
                            } else {
                                self.prefetch_stats.record_wasted(Bytes(bytes));
                            }
                        }
                        self.admit(key, req.tokens);
                    }
                }
            }
            self.stats.record_hits(out.hit_tokens);
            self.stats
                .record_misses(out.missed_tokens, out.bytes_recalled);
            self.compression_stats
                .record_compressed_hits(out.compressed_tokens);
            out
        }

        fn demote_all(&mut self) -> usize {
            (0..self.resident.len())
                .filter(|&at| self.demote(at))
                .count()
        }

        fn drop_staging(&mut self) -> Bytes {
            let dropped = Bytes(self.staged.drain(..).map(|p| p.2).sum());
            self.prefetch_stats.record_wasted(dropped);
            dropped
        }
    }

    mod transition_properties {
        use super::*;
        use proptest::prelude::*;

        /// Replay random access/warm traffic against a small quantized cache
        /// and check the three-state lattice invariants after every op:
        /// bytes exact per state and capacity never leaked.
        fn check_byte_exactness(c: &ClusterCache) {
            let order = lru_order(c);
            let mut expected_used = 0u64;
            for &(key, tokens, compressed) in &order {
                assert!(c.contains(key), "the LRU chain holds resident pages only");
                let size = if compressed {
                    c.compressed_page_bytes(tokens)
                } else {
                    c.page_bytes(tokens)
                };
                expected_used += size.get();
            }
            assert_eq!(c.resident_bytes(), Bytes(expected_used), "byte exactness");
            assert!(c.resident_bytes().get() <= c.capacity().get());
            assert_eq!(order.len(), c.resident_pages(), "LRU tracks every page");
            assert_eq!(order.len(), c.resident_slots().count());
            // The exact chain is the LRU chain minus the demoted pages.
            let mut exact = Vec::new();
            let mut slot = c.heads[Chain::Exact as usize];
            while slot != NIL {
                exact.push(c.slab[slot as usize].key);
                slot = c.slab[slot as usize].links[Chain::Exact as usize].next;
            }
            let expected: Vec<PageKey> = order.iter().filter(|p| !p.2).map(|p| p.0).collect();
            assert_eq!(exact, expected, "exact chain");
        }

        proptest! {
            #[test]
            fn random_demote_recall_traffic_keeps_bytes_exact(
                // Encoded op: low 3 bits page id, next 3 bits tokens (1..=8),
                // next bit warm-vs-access.
                ops in proptest::collection::vec(0u64..128, 1..60),
                capacity_tokens in 4u64..24,
                quant_sel in 0u64..2,
            ) {
                let compression = if quant_sel == 1 {
                    CompressionConfig::int4()
                } else {
                    CompressionConfig::int8()
                };
                let mut c = cache_with(capacity_tokens, compression);
                for op in ops {
                    let page = (op & 7) as usize;
                    let tokens = ((op >> 3) & 7) as usize + 1;
                    if (op >> 6) & 1 == 0 {
                        c.access(L, H, &reqs(&[(page, tokens)]));
                    } else {
                        c.warm(L, H, &reqs(&[(page, tokens)]));
                    }
                    check_byte_exactness(&c);
                }
                // The stats side stays consistent too.
                prop_assert!(
                    c.compressed_pages() == lru_order(&c).iter().filter(|p| p.2).count()
                );
            }

            #[test]
            fn staging_respects_cap_and_never_touches_the_resident_set(
                // Encoded op: low 3 bits page id, next 3 bits tokens
                // (1..=8), next 2 bits op kind (access ×2 / warm / stage).
                ops in proptest::collection::vec(0u64..256, 1..60),
                capacity_tokens in 4u64..24,
                staging_tokens in 1u64..16,
            ) {
                // Twin caches: `a` stages, `b` never does. Every observable
                // except prefetch accounting must stay identical — staging
                // never evicts a resident page, never changes hit/miss or
                // recall bytes, and never exceeds its own byte cap.
                let mut a = staged_cache_for(capacity_tokens, staging_tokens);
                let mut b = cache_for(capacity_tokens);
                for op in ops {
                    let page = (op & 7) as usize;
                    let tokens = ((op >> 3) & 7) as usize + 1;
                    match (op >> 6) & 3 {
                        0 | 1 => {
                            let oa = a.access(L, H, &reqs(&[(page, tokens)]));
                            let ob = b.access(L, H, &reqs(&[(page, tokens)]));
                            prop_assert_eq!(oa.hit_tokens, ob.hit_tokens);
                            prop_assert_eq!(oa.missed_tokens, ob.missed_tokens);
                            prop_assert_eq!(oa.bytes_recalled, ob.bytes_recalled);
                        }
                        2 => {
                            prop_assert_eq!(
                                a.warm(L, H, &reqs(&[(page, tokens)])),
                                b.warm(L, H, &reqs(&[(page, tokens)]))
                            );
                        }
                        _ => {
                            a.stage(L, H, &reqs(&[(page, tokens)]));
                        }
                    }
                    prop_assert!(a.staged_bytes().get() <= a.staging_capacity().get());
                    prop_assert_eq!(a.staged_pages(), a.staging_lru.len());
                    let staged_sum: u64 = a.staged.values().map(|p| p.bytes.get()).sum();
                    prop_assert_eq!(a.staged_bytes(), Bytes(staged_sum));
                    for key in a.staged.keys() {
                        prop_assert!(!a.contains(*key), "staged ∩ resident must be empty");
                    }
                    // The resident set and all demand-side accounting are
                    // byte-identical with and without staging.
                    prop_assert_eq!(lru_order(&a), lru_order(&b));
                    prop_assert_eq!(a.resident_bytes(), b.resident_bytes());
                    prop_assert_eq!(a.stats(), b.stats());
                }
                // Prefetch byte accounting closes: everything staged is
                // eventually used, wasted, or still sitting in the buffer.
                let s = a.prefetch_stats();
                prop_assert_eq!(
                    s.staged_bytes,
                    Bytes(s.used_bytes.get() + s.wasted_bytes.get() + a.staged_bytes().get())
                );
            }

            #[test]
            fn random_traffic_matches_the_full_scan_model(
                // Encoded op: 2 bits page id, 1 bit head, 3 bits tokens
                // (1..=8), 3 bits kind — access ×3, warm, stage ×2,
                // demote_all, drop_staging.
                ops in proptest::collection::vec(0u64..512, 1..120),
                capacity_tokens in 4u64..40,
                staging_tokens in 0u64..12,
                ladder in 0usize..3,
            ) {
                let compression = [
                    CompressionConfig::lossless(),
                    CompressionConfig::int8(),
                    CompressionConfig::int4(),
                ][ladder];
                let config = ClusterCacheConfig::new(Bytes(32 * capacity_tokens), 8)
                    .with_compression(compression)
                    .with_staging(Bytes(32 * staging_tokens));
                let mut real = ClusterCache::new(config);
                let mut model = ScanCache::new(config);
                for op in ops {
                    let head = HeadId((op >> 2 & 1) as usize);
                    // Two pages per request, so one access can hit, miss,
                    // demote and evict.
                    let tokens = (op >> 3 & 7) as usize + 1;
                    let pages = reqs(&[((op & 3) as usize, tokens), (((op + 1) & 3) as usize, 9 - tokens)]);
                    match op >> 6 {
                        0..=2 => prop_assert_eq!(
                            real.access(L, head, &pages),
                            model.access(L, head, &pages)
                        ),
                        3 => prop_assert_eq!(
                            real.warm(L, head, &pages),
                            model.warm(L, head, &pages)
                        ),
                        4 | 5 => prop_assert_eq!(
                            real.stage(L, head, &pages),
                            model.stage(L, head, &pages)
                        ),
                        6 => prop_assert_eq!(real.demote_all(), model.demote_all()),
                        _ => prop_assert_eq!(real.drop_staging(), model.drop_staging()),
                    }
                    prop_assert_eq!(lru_order(&real), model.resident.clone());
                    prop_assert_eq!(real.resident_bytes(), Bytes(model.used()));
                    prop_assert_eq!(real.stats(), model.stats);
                    prop_assert_eq!(real.compression_stats(), model.compression_stats);
                    let staged: Vec<(PageKey, usize, u64)> = real
                        .staging_lru
                        .values()
                        .map(|key| (*key, real.staged[key].tokens, real.staged[key].bytes.get()))
                        .collect();
                    prop_assert_eq!(staged, model.staged.clone());
                    prop_assert_eq!(real.is_offloaded(L, head), model.offloaded.contains(&(L, head)));
                    prop_assert_eq!(real.prefetch_stats(), model.prefetch_stats);
                    check_byte_exactness(&real);
                }
            }

            #[test]
            fn lossless_traffic_matches_pre_compression_semantics(
                ops in proptest::collection::vec(0u64..128, 1..40),
                capacity_tokens in 4u64..24,
            ) {
                // Same traffic against a lossless cache and one with an
                // int8 config: hit/miss *token* accounting may differ (the
                // compressed tier retains more pages), but the lossless run
                // must never demote and must move exact bytes.
                let mut c = cache_with(capacity_tokens, CompressionConfig::lossless());
                let mut total_miss_bytes = 0u64;
                let mut total_missed = 0u64;
                for op in ops {
                    let page = (op & 7) as usize;
                    let tokens = ((op >> 3) & 7) as usize + 1;
                    let out = c.access(L, H, &reqs(&[(page, tokens)]));
                    total_miss_bytes += out.bytes_recalled.get();
                    total_missed += out.missed_tokens;
                    prop_assert_eq!(out.compressed_tokens, 0);
                    check_byte_exactness(&c);
                }
                prop_assert_eq!(c.compression_stats().demotions, 0);
                prop_assert_eq!(total_miss_bytes, total_missed * 32);
            }

            #[test]
            fn every_injected_corruption_is_detected_and_repaired(
                // Random warm-up traffic, then a batch of corruption picks
                // (DESIGN.md §11): detection is guaranteed — the mask is
                // non-zero, so a damaged tag can never match the recomputed
                // one — and repair restores a clean scrub.
                ops in proptest::collection::vec(0u64..128, 1..40),
                picks in proptest::collection::vec(0u64..1024, 1..8),
                capacity_tokens in 4u64..24,
            ) {
                let mut c = cache_for(capacity_tokens);
                for op in &ops {
                    let page = (op & 7) as usize;
                    let tokens = ((op >> 3) & 7) as usize + 1;
                    c.access(L, H, &reqs(&[(page, tokens)]));
                }
                let residency = lru_order(&c);
                // Picks land on `pick % pages` in key order; a page hit an
                // even number of times has its tag XOR-restored, so the
                // exact detection count is the number of odd-multiplicity
                // pages — and the scrub must find precisely those.
                let pages = c.resident_pages() as u64;
                let mut mult = vec![0u64; c.resident_pages().max(1)];
                let mut injected = 0u64;
                for &pick in &picks {
                    if c.corrupt_resident_page(pick) {
                        injected += 1;
                        mult[(pick % pages) as usize] += 1;
                    }
                }
                let expected_detected =
                    mult.iter().filter(|&&m| m % 2 == 1).count() as u64;
                let repaired = c.scrub();
                let stats = c.integrity();
                prop_assert_eq!(stats.corruptions_injected, injected);
                prop_assert_eq!(stats.corruptions_detected, expected_detected);
                prop_assert_eq!(stats.corruptions_detected, stats.corruptions_repaired);
                prop_assert_eq!(repaired.get() > 0, expected_detected > 0);
                // Corruption and repair are invisible to residency — the
                // stream-observable state is untouched.
                prop_assert_eq!(lru_order(&c), residency);
                // A second scrub over the repaired set is clean.
                let before = c.integrity().corruptions_detected;
                prop_assert_eq!(c.scrub(), Bytes(0));
                prop_assert_eq!(c.integrity().corruptions_detected, before);
            }
        }
    }
}
