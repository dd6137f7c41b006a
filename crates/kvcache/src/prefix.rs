//! Cross-session KV prefix sharing: a workspace-global radix tree over token
//! ids whose nodes own refcounted, immutable shared KV pages plus cached
//! selector state (cluster centroids and norm caches).
//!
//! # Why sharing is sound
//!
//! The forward pass is deterministic and keys are rotated at their *absolute*
//! position (RoPE), so two sessions whose prompts agree on `[0, m)` produce
//! bitwise-identical keys, values, key norms — and therefore cluster
//! centroids — for those positions. The store exploits this: the first
//! session to prefill a prompt donates its rows as immutable shared pages;
//! later sessions copy matched rows out of the store instead of recomputing
//! the projections, and adopt the cached per-head clustering state instead of
//! re-running k-means. Sharing changes what is *computed*, never what
//! *attends*: token streams are byte-identical with the store on or off.
//!
//! # Structure
//!
//! A radix (compressed trie) over token ids. Each node covers a span of
//! consecutive prompt positions `[start, start + len)` and owns one
//! [`SharedKvPage`] per `(layer, kv_head)` holding exactly those rows, sealed
//! in fixed-size row blocks so a session adopting the page chunk by chunk
//! verifies each block as it copies it (DESIGN.md §8). The node where a full
//! prompt ends may additionally cache per-`(layer, kv_head)` opaque selector
//! state ([`SharedPrefixState`]) exported after that prompt's `PrefillDone`
//! — keys exist per KV head, so that is what the state is keyed and charged
//! by, however many query heads read it.
//!
//! # Lifecycle
//!
//! - **Lookup** ([`PrefixStore::match_from`]) walks the tree token by token
//!   and reports which shared rows cover a requested range. The engine copies
//!   them into the session's private [`KvStore`]s — the copy *is* the
//!   copy-on-write boundary: shared pages are never mutated; everything past
//!   the first divergence (and every decode append) lands in private rows.
//! - **Insert** ([`PrefixStore::insert`]) runs at `finish_prefill`: the novel
//!   suffix of the prompt is copied out of the session's stores into new
//!   immutable nodes, splitting an existing node if the prompt diverges (or
//!   ends) mid-span.
//! - **Pinning** ([`PrefixStore::pin_prompt`] / [`unpin_prompt`]) counts the
//!   sessions whose admitted prompt traverses a node; `insert` pins the
//!   inserted path itself. `release` unpins; zero-refcount pages stay cached
//!   for temporal reuse and are freed lazily, least-recently-used first,
//!   once `shared_bytes` exceeds the configured capacity. Pinned nodes are
//!   never evicted, so the byte cap is a soft cap while sessions hold
//!   references.
//!
//! [`unpin_prompt`]: PrefixStore::unpin_prompt

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;

use clusterkv_faults::Fnv64;
use clusterkv_tensor::Matrix;

use crate::store::KvStore;
use crate::types::Bytes;

/// Root node id. The root covers the empty span and is never evicted.
const ROOT: usize = 0;

/// Rows covered by one seal of a [`SharedKvPage`]. A session adopts a long
/// shared prefix one prefill chunk at a time and must verify what it copies
/// immediately before copying it; sealing per block keeps that at about one
/// hash per shared byte (a chunk re-hashes at most the one block it shares
/// with its predecessor) instead of one hash of the whole page per chunk.
/// Small next to a prefill chunk, so that a chunk boundary inside a block
/// costs little; large next to the 8-byte seal it adds.
pub const SEAL_BLOCK_ROWS: usize = 128;

/// Immutable keys/values/norm-cache rows for one `(layer, kv_head)` slice of
/// a node's span. Row `i` holds prompt position `start + i` of the owning
/// node.
#[derive(Debug, Clone)]
pub struct SharedKvPage {
    /// Key rows (RoPE already applied at the absolute position).
    pub keys: Matrix,
    /// Value rows.
    pub values: Matrix,
    /// Cached squared key norms, aligned with rows.
    pub key_norms: Vec<f32>,
    /// One FNV-1a 64 seal per [`SEAL_BLOCK_ROWS`]-row block of the payload
    /// (the last block may be shorter), set at donation time and verified
    /// before a session adopts the block's rows (DESIGN.md §11).
    pub seals: Vec<u64>,
}

impl SharedKvPage {
    /// Build a page and seal every block of its payload.
    pub fn sealed(keys: Matrix, values: Matrix, key_norms: Vec<f32>) -> Self {
        let mut page = Self {
            keys,
            values,
            key_norms,
            seals: Vec::new(),
        };
        page.seals = (0..page.keys.rows().div_ceil(SEAL_BLOCK_ROWS))
            .map(|block| page.compute_seal(block))
            .collect();
        page
    }

    /// The seal blocks overlapping the non-empty local row range `[lo, hi)`.
    pub fn blocks_of(rows: (usize, usize)) -> std::ops::Range<usize> {
        rows.0 / SEAL_BLOCK_ROWS..rows.1.div_ceil(SEAL_BLOCK_ROWS)
    }

    /// FNV-1a 64 over the key rows, value rows and norm cache of `block`
    /// (through the f32 bit patterns, so the seal commits to the exact
    /// stored bits), its position in the page and the row shape.
    ///
    /// # Panics
    ///
    /// Panics if the page has no such block.
    pub fn compute_seal(&self, block: usize) -> u64 {
        let lo = block * SEAL_BLOCK_ROWS;
        let hi = (lo + SEAL_BLOCK_ROWS).min(self.keys.rows());
        assert!(lo < hi, "seal block {block} out of range");
        let cols = self.keys.cols();
        let mut h = Fnv64::new();
        h.write_u64(block as u64);
        h.write_u64((hi - lo) as u64);
        h.write_u64(cols as u64);
        h.write_f32s(&self.keys.as_slice()[lo * cols..hi * cols]);
        h.write_f32s(&self.values.as_slice()[lo * cols..hi * cols]);
        h.write_f32s(&self.key_norms[lo..hi]);
        h.finish()
    }

    /// Whether the seal of `block` still matches its payload; `None` when
    /// the page has no such block.
    pub fn verify_block(&self, block: usize) -> Option<bool> {
        self.seals
            .get(block)
            .map(|&seal| seal == self.compute_seal(block))
    }

    /// Whether every seal still matches the payload.
    pub fn verify(&self) -> bool {
        (0..self.seals.len()).all(|block| self.verify_block(block) == Some(true))
    }
}

/// Opaque per-KV-head selector state cached at the node where a prompt ends
/// (for ClusterKV: the post-`PrefillDone` clustering — centroids, centroid
/// norms, cluster metadata). The `fingerprint` must commit to everything the
/// state depends on besides the token prefix (policy configuration including
/// the per-KV-head seed, head dimension), so an index only adopts state it
/// would have computed itself.
#[derive(Clone)]
pub struct SharedPrefixState {
    /// Configuration fingerprint guarding adoption.
    pub fingerprint: u64,
    /// Heap bytes `state` holds, charged against the store's byte cap.
    pub bytes: Bytes,
    /// The state itself; downcast by the owning policy.
    pub state: Arc<dyn Any + Send + Sync>,
}

impl std::fmt::Debug for SharedPrefixState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedPrefixState")
            .field("fingerprint", &self.fingerprint)
            .field("bytes", &self.bytes)
            .finish_non_exhaustive()
    }
}

/// Shape and capacity of a [`PrefixStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixStoreConfig {
    /// Soft cap on total shared bytes (pages + cached selector states).
    /// Zero-refcount nodes are evicted LRU-first once the cap is exceeded;
    /// pinned nodes may hold the store above the cap.
    pub capacity: Bytes,
    /// Number of transformer layers (pages per node = `layers * kv_heads`).
    pub layers: usize,
    /// Number of KV heads per layer.
    pub kv_heads: usize,
    /// Key/value vector dimension.
    pub head_dim: usize,
}

/// A contiguous run of shared rows matched inside one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchSegment {
    /// Node owning the rows.
    pub node: usize,
    /// Local row range `[lo, hi)` within the node's pages.
    pub rows: (usize, usize),
}

/// One step of a radix descent (see `PrefixStore::descend`).
struct Descent {
    child: usize,
    /// Leading tokens of the child's span that the walked tokens match.
    matched: usize,
    span_len: usize,
}

impl Descent {
    /// Whether the walked tokens cover the child's whole span.
    fn whole(&self) -> bool {
        self.matched == self.span_len
    }
}

/// A sealed page of `rows` of the given keys, values and norm cache.
fn sealed_rows(
    keys: &Matrix,
    values: &Matrix,
    key_norms: &[f32],
    rows: std::ops::Range<usize>,
) -> SharedKvPage {
    SharedKvPage::sealed(
        keys.slice_rows(rows.start, rows.end),
        values.slice_rows(rows.start, rows.end),
        key_norms[rows].to_vec(),
    )
}

/// Counters describing the store's effectiveness and current footprint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixStoreStats {
    /// Prompt positions served from shared pages across all `match_from`
    /// walks.
    pub hit_tokens: u64,
    /// Current number of live nodes (excluding the root).
    pub nodes: usize,
    /// Current shared bytes (pages + cached selector states).
    pub shared_bytes: Bytes,
}

#[derive(Debug)]
struct Node {
    /// Token ids covered by this node's span.
    tokens: Vec<usize>,
    /// Absolute prompt position of `tokens[0]`.
    start: usize,
    /// One page per `(layer, kv_head)`, indexed `layer * kv_heads + kv_head`;
    /// empty for the root.
    pages: Vec<SharedKvPage>,
    /// Children keyed by the first token of their span.
    children: BTreeMap<usize, usize>,
    parent: usize,
    /// Number of live sessions whose pinned prompt traverses this node.
    refcount: usize,
    /// LRU stamp (monotone touch counter).
    stamp: u64,
    /// Selector state cached at a prompt-terminal node, keyed by
    /// `(absolute layer, kv head)`.
    states: BTreeMap<(usize, usize), SharedPrefixState>,
}

impl Node {
    fn span_len(&self) -> usize {
        self.tokens.len()
    }

    fn page_bytes(&self) -> Bytes {
        let per_page = Bytes::of_f16(
            2 * self.span_len()
                * if self.pages.is_empty() {
                    0
                } else {
                    self.pages[0].keys.cols()
                },
        );
        Bytes(per_page.get() * self.pages.len() as u64)
    }

    fn state_bytes(&self) -> Bytes {
        self.states.values().map(|s| s.bytes).sum()
    }
}

/// Workspace-global store of shared, refcounted, immutable KV prefix pages.
#[derive(Debug)]
pub struct PrefixStore {
    config: PrefixStoreConfig,
    /// Node arena; freed slots are `None` and recycled through `free`.
    nodes: Vec<Option<Node>>,
    free: Vec<usize>,
    bytes: Bytes,
    clock: u64,
    /// Prompt positions `match_from` served from shared pages.
    hit_tokens: u64,
}

impl PrefixStore {
    /// Create an empty store.
    ///
    /// # Panics
    ///
    /// Panics if any shape field of the config is zero.
    pub fn new(config: PrefixStoreConfig) -> Self {
        assert!(config.layers > 0, "layers must be positive");
        assert!(config.kv_heads > 0, "kv_heads must be positive");
        assert!(config.head_dim > 0, "head_dim must be positive");
        let root = Node {
            tokens: Vec::new(),
            start: 0,
            pages: Vec::new(),
            children: BTreeMap::new(),
            parent: ROOT,
            refcount: 0,
            stamp: 0,
            states: BTreeMap::new(),
        };
        Self {
            config,
            nodes: vec![Some(root)],
            free: Vec::new(),
            bytes: Bytes(0),
            clock: 0,
            hit_tokens: 0,
        }
    }

    /// The store's configuration.
    pub fn config(&self) -> &PrefixStoreConfig {
        &self.config
    }

    /// Current shared bytes (pages plus cached selector states).
    pub fn shared_bytes(&self) -> Bytes {
        self.bytes
    }

    /// Snapshot of the store's counters.
    pub fn stats(&self) -> PrefixStoreStats {
        PrefixStoreStats {
            hit_tokens: self.hit_tokens,
            nodes: self.nodes.iter().flatten().count() - 1,
            shared_bytes: self.bytes,
        }
    }

    fn node(&self, id: usize) -> &Node {
        self.nodes[id].as_ref().expect("live node")
    }

    fn node_mut(&mut self, id: usize) -> &mut Node {
        self.nodes[id].as_mut().expect("live node")
    }

    fn page_index(&self, layer: usize, kv_head: usize) -> usize {
        debug_assert!(layer < self.config.layers && kv_head < self.config.kv_heads);
        layer * self.config.kv_heads + kv_head
    }

    /// Shared page of `node` for one `(layer, kv_head)`.
    ///
    /// # Panics
    ///
    /// Panics if the node is not live or is the root, or the indices are out
    /// of range.
    pub fn page(&self, node: usize, layer: usize, kv_head: usize) -> &SharedKvPage {
        let idx = self.page_index(layer, kv_head);
        &self.node(node).pages[idx]
    }

    fn page_mut(&mut self, node: usize, layer: usize, kv_head: usize) -> Option<&mut SharedKvPage> {
        let idx = self.page_index(layer, kv_head);
        self.nodes.get_mut(node)?.as_mut()?.pages.get_mut(idx)
    }

    /// Flip the seal of one block of the page of `node` for one
    /// `(layer, kv_head)` — deterministic fault injection for the integrity
    /// suite. Only the seal is damaged; the shared rows stay ground truth,
    /// so detection and repair move bytes and time, never what attends.
    /// Returns whether the node is live and its page holds that block.
    pub fn corrupt_block(
        &mut self,
        node: usize,
        layer: usize,
        kv_head: usize,
        block: usize,
    ) -> bool {
        self.page_mut(node, layer, kv_head)
            .and_then(|page| page.seals.get_mut(block))
            .map(|seal| *seal ^= clusterkv_faults::CORRUPTION_MASK)
            .is_some()
    }

    /// Verify one block's seal. `None` when the node is not live or the page
    /// holds no such block.
    pub fn verify_block(
        &self,
        node: usize,
        layer: usize,
        kv_head: usize,
        block: usize,
    ) -> Option<bool> {
        let idx = self.page_index(layer, kv_head);
        let n = self.nodes.get(node)?.as_ref()?;
        n.pages.get(idx)?.verify_block(block)
    }

    // analyzer: recovery-path
    /// Re-seal a block whose seal failed verification by recomputing it
    /// from the pristine shared rows — modeling recompute-and-re-donate of
    /// the block. Returns the block's byte footprint (the re-donation
    /// traffic), or `None` when the node, page or block does not exist.
    pub fn repair_block(
        &mut self,
        node: usize,
        layer: usize,
        kv_head: usize,
        block: usize,
    ) -> Option<Bytes> {
        let page = self.page_mut(node, layer, kv_head)?;
        if block >= page.seals.len() {
            return None;
        }
        page.seals[block] = page.compute_seal(block);
        let rows = (page.keys.rows() - block * SEAL_BLOCK_ROWS).min(SEAL_BLOCK_ROWS);
        Some(Bytes::of_f16(2 * rows * page.keys.cols()))
    }

    fn touch(&mut self, id: usize) {
        self.clock += 1;
        let clock = self.clock;
        self.node_mut(id).stamp = clock;
    }

    /// Longest prefix of `tokens` covered by *whole* nodes — the coverage
    /// that [`pin_prompt`] would protect. Read-only: no LRU touch, no stats.
    ///
    /// This is deliberately node-granular (it stops at the last complete node
    /// boundary) so admission control can reserve against a length that
    /// pinning then guarantees: pinned nodes cannot be evicted and token
    /// walks are insensitive to later splits, so the match can only grow.
    ///
    /// [`pin_prompt`]: PrefixStore::pin_prompt
    pub fn peek_match(&self, tokens: &[usize]) -> usize {
        let mut cur = ROOT;
        let mut pos = 0;
        while let Some(step) = self.descend(cur, tokens, pos) {
            if !step.whole() {
                break;
            }
            pos += step.matched;
            cur = step.child;
        }
        pos
    }

    /// One step of a radix descent: the child of `cur` whose span starts
    /// with `tokens[pos]`, and how many of its span's tokens `tokens[pos..]`
    /// matches (at least one). `None` at the end of `tokens` or when no
    /// child continues it.
    fn descend(&self, cur: usize, tokens: &[usize], pos: usize) -> Option<Descent> {
        let child = *self.node(cur).children.get(tokens.get(pos)?)?;
        let span = &self.node(child).tokens;
        let matched = span
            .iter()
            .zip(&tokens[pos..])
            .take_while(|(a, b)| a == b)
            .count();
        Some(Descent {
            child,
            matched,
            span_len: span.len(),
        })
    }

    /// Token-granular longest-match walk over `tokens`, returning the total
    /// matched length and the shared-row segments covering positions
    /// `[already, matched)`. Touches LRU stamps along the path and counts
    /// the newly matched positions as hit tokens.
    ///
    /// `already` is the number of leading positions the caller has previously
    /// consumed (their segments are not re-reported). If the tree shrank in
    /// the meantime the walk may match fewer than `already` tokens; the
    /// result is then simply empty.
    pub fn match_from(&mut self, already: usize, tokens: &[usize]) -> (usize, Vec<MatchSegment>) {
        let mut segments = Vec::new();
        let mut cur = ROOT;
        let mut pos = 0;
        while let Some(step) = self.descend(cur, tokens, pos) {
            self.touch(step.child);
            if pos + step.matched > already {
                segments.push(MatchSegment {
                    node: step.child,
                    rows: (already.saturating_sub(pos), step.matched),
                });
            }
            pos += step.matched;
            if !step.whole() {
                break;
            }
            cur = step.child;
        }
        self.hit_tokens += pos.saturating_sub(already) as u64;
        (pos, segments)
    }

    /// Insert `tokens` (a full prompt) with its KV rows taken from the
    /// session's per-`[layer][kv_head]` stores (each holding exactly the
    /// prompt rows `0..tokens.len()`). Splits an existing node if the prompt
    /// diverges or ends mid-span, so afterwards the prompt ends exactly at a
    /// node boundary. Returns the terminal node id.
    ///
    /// Insert *pins* the prompt's full path on behalf of the caller (so the
    /// eviction pass it ends with can never free the freshly donated pages);
    /// pair every insert with an [`unpin_prompt`] of the full prompt at
    /// session release.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty or the stores do not match the configured
    /// shape and length.
    ///
    /// [`unpin_prompt`]: PrefixStore::unpin_prompt
    pub fn insert(&mut self, tokens: &[usize], kv: &[Vec<KvStore>]) -> usize {
        assert!(!tokens.is_empty(), "cannot insert an empty prompt");
        assert_eq!(kv.len(), self.config.layers, "layer count mismatch");
        let mut cur = ROOT;
        let mut pos = 0;
        let terminal = loop {
            if pos == tokens.len() {
                break cur;
            }
            let Some(step) = self.descend(cur, tokens, pos) else {
                break self.new_leaf(cur, pos, &tokens[pos..], kv);
            };
            let (child, k) = (step.child, step.matched);
            self.touch(child);
            if step.whole() {
                self.node_mut(child).refcount += 1;
                pos += k;
                cur = child;
                continue;
            }
            // The prompt ends or diverges mid-span: split so a boundary
            // exists at `pos + k`, then either terminate (prompt exhausted)
            // or fall through to create the divergent leaf next iteration.
            // The pin lands on the prefix half only — the suffix is not on
            // this prompt's path (`split` copies the pre-split refcount to
            // the suffix for the sessions that did pin through it).
            let prefix_half = self.split(child, k);
            self.node_mut(prefix_half).refcount += 1;
            pos += k;
            if pos == tokens.len() {
                break prefix_half;
            }
            cur = prefix_half;
        };
        self.enforce_capacity();
        terminal
    }

    /// Create a leaf under `parent` covering `span` at absolute start `pos`,
    /// copying rows `[pos, pos + span.len())` out of the session stores.
    fn new_leaf(
        &mut self,
        parent: usize,
        pos: usize,
        span: &[usize],
        kv: &[Vec<KvStore>],
    ) -> usize {
        let mut pages = Vec::with_capacity(self.config.layers * self.config.kv_heads);
        for layer_stores in kv.iter() {
            assert_eq!(
                layer_stores.len(),
                self.config.kv_heads,
                "kv head count mismatch"
            );
            for store in layer_stores {
                assert!(
                    store.len() >= pos + span.len(),
                    "session store shorter than the prompt being inserted"
                );
                pages.push(sealed_rows(
                    store.keys(),
                    store.values(),
                    store.key_norms(),
                    pos..pos + span.len(),
                ));
            }
        }
        self.clock += 1;
        let node = Node {
            tokens: span.to_vec(),
            start: pos,
            pages,
            children: BTreeMap::new(),
            parent,
            // Born pinned by the inserting session (see `insert`).
            refcount: 1,
            stamp: self.clock,
            states: BTreeMap::new(),
        };
        self.bytes += node.page_bytes();
        let id = self.alloc(node);
        self.node_mut(parent).children.insert(span[0], id);
        id
    }

    /// Split `id` at local offset `k` (0 < k < span length) into a prefix
    /// half (keeping the id) and a new suffix node. The suffix inherits the
    /// children, cached selector states, refcount, and LRU stamp; total
    /// bytes are conserved. Returns the prefix half's id (== `id`).
    fn split(&mut self, id: usize, k: usize) -> usize {
        let node = self.node(id);
        let len = node.span_len();
        assert!(k > 0 && k < len, "split offset must be interior");
        let suffix_tokens = node.tokens[k..].to_vec();
        let suffix_start = node.start + k;
        let parent_refcount = node.refcount;
        let parent_stamp = node.stamp;
        let slice_pages = |rows: std::ops::Range<usize>| -> Vec<SharedKvPage> {
            node.pages
                .iter()
                .map(|p| sealed_rows(&p.keys, &p.values, &p.key_norms, rows.clone()))
                .collect()
        };
        let (prefix_pages, suffix_pages) = (slice_pages(0..k), slice_pages(k..len));
        let node = self.node_mut(id);
        let moved_children = std::mem::take(&mut node.children);
        let moved_states = std::mem::take(&mut node.states);
        node.tokens.truncate(k);
        node.pages = prefix_pages;
        let suffix = Node {
            tokens: suffix_tokens,
            start: suffix_start,
            pages: suffix_pages,
            children: moved_children,
            parent: id,
            refcount: parent_refcount,
            stamp: parent_stamp,
            states: moved_states,
        };
        let first = suffix.tokens[0];
        let suffix_id = self.alloc(suffix);
        for (_, child) in self.node(suffix_id).children.clone() {
            self.node_mut(child).parent = suffix_id;
        }
        self.node_mut(id).children.insert(first, suffix_id);
        id
    }

    fn alloc(&mut self, node: Node) -> usize {
        if let Some(id) = self.free.pop() {
            self.nodes[id] = Some(node);
            id
        } else {
            self.nodes.push(Some(node));
            self.nodes.len() - 1
        }
    }

    /// Pin the longest whole-node prefix of `tokens`: every fully matched
    /// node's refcount is incremented. Returns the pinned length (a node
    /// boundary). The caller must later [`unpin_prompt`] with exactly the
    /// pinned prefix `&tokens[..returned]`.
    ///
    /// [`unpin_prompt`]: PrefixStore::unpin_prompt
    pub fn pin_prompt(&mut self, tokens: &[usize]) -> usize {
        let mut cur = ROOT;
        let mut pos = 0;
        while let Some(step) = self.descend(cur, tokens, pos) {
            if !step.whole() {
                break;
            }
            pos += step.matched;
            self.node_mut(step.child).refcount += 1;
            self.touch(step.child);
            cur = step.child;
        }
        pos
    }

    /// Undo a [`pin_prompt`] of exactly this token prefix. Sound across
    /// intervening splits: a split copies the refcount to both halves and a
    /// pinned prefix always ends at a node boundary, so the walk decrements
    /// precisely the nodes carrying this pin. Triggers eviction if the store
    /// is over its byte cap.
    ///
    /// # Panics
    ///
    /// Panics if the prefix is not fully present or a refcount would
    /// underflow — both indicate an unbalanced pin/unpin pairing.
    ///
    /// [`pin_prompt`]: PrefixStore::pin_prompt
    pub fn unpin_prompt(&mut self, tokens: &[usize]) {
        let mut cur = ROOT;
        let mut pos = 0;
        while pos < tokens.len() {
            let step = self
                .descend(cur, tokens, pos)
                .expect("unpin walk must follow a pinned path");
            assert!(step.whole(), "unpin prefix must end at a node boundary");
            let rc = &mut self.node_mut(step.child).refcount;
            assert!(*rc > 0, "refcount underflow");
            *rc -= 1;
            pos += step.matched;
            cur = step.child;
        }
        self.enforce_capacity();
    }

    /// Whether the terminal node already caches selector states.
    pub fn has_selector_states(&self, node: usize) -> bool {
        !self.node(node).states.is_empty()
    }

    /// Cached selector state for one `(absolute layer, kv head)` at a
    /// prompt-terminal node.
    pub fn selector_state(
        &self,
        node: usize,
        layer: usize,
        kv_head: usize,
    ) -> Option<&SharedPrefixState> {
        self.node(node).states.get(&(layer, kv_head))
    }

    /// Cache selector state at a prompt-terminal node, charging its bytes
    /// against the cap (replacing any previous state for the same KV head).
    pub fn cache_selector_state(
        &mut self,
        node: usize,
        layer: usize,
        kv_head: usize,
        state: SharedPrefixState,
    ) {
        debug_assert!(layer < self.config.layers && kv_head < self.config.kv_heads);
        let bytes = state.bytes;
        if let Some(old) = self.node_mut(node).states.insert((layer, kv_head), state) {
            self.bytes = Bytes(self.bytes.get() - old.bytes.get());
        }
        self.bytes += bytes;
    }

    /// Evict zero-refcount, childless nodes (LRU-first, deterministic
    /// tie-break on node id) until the store fits its byte cap or nothing
    /// more can be freed. The root and pinned nodes are never evicted.
    fn enforce_capacity(&mut self) {
        while self.bytes > self.config.capacity {
            let victim = self
                .nodes
                .iter()
                .enumerate()
                .skip(1)
                .filter_map(|(id, slot)| slot.as_ref().map(|n| (id, n)))
                .filter(|(_, n)| n.refcount == 0 && n.children.is_empty())
                .min_by_key(|(id, n)| (n.stamp, *id))
                .map(|(id, _)| id);
            match victim {
                Some(id) => self.remove_node(id),
                None => break,
            }
        }
    }

    fn remove_node(&mut self, id: usize) {
        let node = self.nodes[id].take().expect("live node");
        debug_assert_eq!(node.refcount, 0);
        debug_assert!(node.children.is_empty());
        self.bytes = Bytes(self.bytes.get() - (node.page_bytes() + node.state_bytes()).get());
        let parent = node.parent;
        self.node_mut(parent).children.remove(&node.tokens[0]);
        self.free.push(id);
    }

    /// Recompute total bytes from scratch (test/diagnostic aid; the
    /// incremental counter must always agree — property-tested).
    pub fn recomputed_bytes(&self) -> Bytes {
        self.nodes
            .iter()
            .flatten()
            .map(|n| n.page_bytes() + n.state_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const DIM: usize = 4;

    fn test_config(capacity: u64) -> PrefixStoreConfig {
        PrefixStoreConfig {
            capacity: Bytes(capacity),
            layers: 2,
            kv_heads: 1,
            head_dim: DIM,
        }
    }

    /// Session-like KV: one store per [layer][kv_head], row i derived from
    /// (token id, position) so shared positions have identical rows across
    /// "sessions" exactly like the deterministic forward pass guarantees.
    fn kv_for(tokens: &[usize]) -> Vec<Vec<KvStore>> {
        (0..2)
            .map(|layer| {
                vec![{
                    let mut s = KvStore::new(DIM);
                    for (pos, &t) in tokens.iter().enumerate() {
                        let base = (layer * 1000 + t * 31 + pos) as f32;
                        let k: Vec<f32> = (0..DIM).map(|d| base + d as f32).collect();
                        let v: Vec<f32> = (0..DIM).map(|d| -(base + d as f32)).collect();
                        s.append(&k, &v);
                    }
                    s
                }]
            })
            .collect()
    }

    fn gather_rows(store: &PrefixStore, segments: &[MatchSegment], layer: usize) -> Vec<Vec<f32>> {
        let mut rows = Vec::new();
        for seg in segments {
            let page = store.page(seg.node, layer, 0);
            for r in seg.rows.0..seg.rows.1 {
                rows.push(page.keys.row(r).to_vec());
            }
        }
        rows
    }

    #[test]
    fn empty_store_matches_nothing() {
        let mut store = PrefixStore::new(test_config(u64::MAX));
        assert_eq!(store.peek_match(&[1, 2, 3]), 0);
        let (matched, segs) = store.match_from(0, &[1, 2, 3]);
        assert_eq!(matched, 0);
        assert!(segs.is_empty());
        let s = store.stats();
        assert_eq!(s.hit_tokens, 0);
        assert_eq!(s.nodes, 0);
    }

    #[test]
    fn insert_then_full_match_returns_all_rows() {
        let mut store = PrefixStore::new(test_config(u64::MAX));
        let prompt = [5, 6, 7, 8];
        let kv = kv_for(&prompt);
        let terminal = store.insert(&prompt, &kv);
        assert_eq!(store.peek_match(&prompt), 4);
        let (matched, segs) = store.match_from(0, &prompt);
        assert_eq!(matched, 4);
        let rows = gather_rows(&store, &segs, 1);
        for (pos, row) in rows.iter().enumerate() {
            assert_eq!(row.as_slice(), kv[1][0].key(pos));
        }
        assert!(!store.has_selector_states(terminal));
    }

    #[test]
    fn divergence_splits_and_both_prompts_match_fully() {
        let mut store = PrefixStore::new(test_config(u64::MAX));
        let a = [1, 2, 3, 4, 5];
        let b = [1, 2, 3, 9, 9];
        store.insert(&a, &kv_for(&a));
        store.insert(&b, &kv_for(&b));
        assert_eq!(store.stats().nodes, 3, "[1, 2, 3] split off");
        assert_eq!(store.peek_match(&a), 5);
        assert_eq!(store.peek_match(&b), 5);
        assert_eq!(store.peek_match(&[1, 2, 3]), 3);
        // peek_match is node-granular: [1, 2, 9] diverges inside the [1, 2, 3]
        // node, so nothing whole-node is pinnable — but the token-granular
        // walk still finds the two shared rows.
        assert_eq!(store.peek_match(&[1, 2, 9]), 0);
        assert_eq!(store.match_from(0, &[1, 2, 9]).0, 2);
        // Rows survive the split bitwise.
        let (m, segs) = store.match_from(0, &a);
        assert_eq!(m, 5);
        let rows = gather_rows(&store, &segs, 0);
        let kv = kv_for(&a);
        for (pos, row) in rows.iter().enumerate() {
            assert_eq!(row.as_slice(), kv[0][0].key(pos));
        }
    }

    #[test]
    fn prompt_ending_mid_span_splits_to_a_boundary() {
        let mut store = PrefixStore::new(test_config(u64::MAX));
        let long = [1, 2, 3, 4, 5, 6];
        store.insert(&long, &kv_for(&long));
        let short = [1, 2, 3];
        let terminal = store.insert(&short, &kv_for(&short));
        assert_eq!(store.stats().nodes, 2, "split at the short prompt's end");
        // Pinning the short prompt now covers it fully.
        assert_eq!(store.pin_prompt(&short), 3);
        store.unpin_prompt(&short);
        assert_eq!(store.peek_match(&long), 6);
        let _ = terminal;
    }

    #[test]
    fn match_from_skips_already_consumed_rows() {
        let mut store = PrefixStore::new(test_config(u64::MAX));
        let prompt = [1, 2, 3, 4, 5, 6];
        store.insert(&prompt, &kv_for(&prompt));
        let (matched, segs) = store.match_from(4, &prompt);
        assert_eq!(matched, 6);
        let rows = gather_rows(&store, &segs, 0);
        assert_eq!(rows.len(), 2);
        let kv = kv_for(&prompt);
        assert_eq!(rows[0].as_slice(), kv[0][0].key(4));
        assert_eq!(rows[1].as_slice(), kv[0][0].key(5));
    }

    #[test]
    fn pinned_nodes_survive_eviction_pressure() {
        // Capacity of zero: everything unpinned is evicted immediately. The
        // inserting sessions' pins (insert pins its own path) keep both
        // prompts alive until release.
        let mut store = PrefixStore::new(test_config(0));
        let a = [1, 2, 3];
        let b = [7, 8];
        store.insert(&a, &kv_for(&a));
        store.insert(&b, &kv_for(&b));
        assert_eq!(store.peek_match(&a), 3);
        assert_eq!(store.peek_match(&b), 2);
        // Releasing b frees it immediately under the zero cap; a survives.
        store.unpin_prompt(&b);
        assert_eq!(store.peek_match(&a), 3);
        assert_eq!(store.peek_match(&b), 0);
        store.unpin_prompt(&a);
        assert_eq!(store.peek_match(&a), 0);
        assert_eq!(store.shared_bytes(), Bytes(0));
        assert_eq!(store.recomputed_bytes(), Bytes(0));
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        // Each 2-token prompt occupies 2 tokens * 4 dims * (K+V) * 2 bytes
        // * 2 layers = 64 bytes. Cap at 128 → two released prompts fit.
        let mut store = PrefixStore::new(test_config(128));
        let a = [1, 2];
        let b = [3, 4];
        let c = [5, 6];
        store.insert(&a, &kv_for(&a));
        store.unpin_prompt(&a);
        store.insert(&b, &kv_for(&b));
        store.unpin_prompt(&b);
        // Touch a so b becomes the LRU victim.
        let _ = store.match_from(0, &a);
        store.insert(&c, &kv_for(&c));
        store.unpin_prompt(&c);
        assert_eq!(store.peek_match(&a), 2);
        assert_eq!(store.peek_match(&b), 0);
        assert_eq!(store.peek_match(&c), 2);
        assert_eq!(store.stats().nodes, 2, "b alone was evicted");
    }

    #[test]
    fn selector_state_roundtrip_and_bytes() {
        let mut store = PrefixStore::new(test_config(u64::MAX));
        let prompt = [1, 2, 3];
        let terminal = store.insert(&prompt, &kv_for(&prompt));
        let before = store.shared_bytes();
        store.cache_selector_state(
            terminal,
            1,
            0,
            SharedPrefixState {
                fingerprint: 42,
                bytes: Bytes(100),
                state: Arc::new(7usize),
            },
        );
        assert_eq!(store.shared_bytes(), before + Bytes(100));
        assert_eq!(store.recomputed_bytes(), store.shared_bytes());
        assert!(store.has_selector_states(terminal));
        let st = store.selector_state(terminal, 1, 0).expect("cached");
        assert_eq!(st.fingerprint, 42);
        assert_eq!(*st.state.downcast_ref::<usize>().expect("usize"), 7);
        assert!(store.selector_state(terminal, 0, 0).is_none());
    }

    #[test]
    fn split_moves_states_to_the_suffix_half() {
        let mut store = PrefixStore::new(test_config(u64::MAX));
        let long = [1, 2, 3, 4];
        let terminal = store.insert(&long, &kv_for(&long));
        store.cache_selector_state(
            terminal,
            0,
            0,
            SharedPrefixState {
                fingerprint: 1,
                bytes: Bytes(8),
                state: Arc::new(()),
            },
        );
        let short = [1, 2];
        let short_terminal = store.insert(&short, &kv_for(&short));
        assert!(!store.has_selector_states(short_terminal));
        let long_terminal = store.insert(&long, &kv_for(&long));
        assert!(store.has_selector_states(long_terminal));
        assert_eq!(store.recomputed_bytes(), store.shared_bytes());
    }

    /// Reference longest-common-prefix over a set of retained prompts.
    fn naive_match(prompts: &[Vec<usize>], query: &[usize]) -> usize {
        prompts
            .iter()
            .map(|p| {
                p.iter()
                    .zip(query.iter())
                    .take_while(|(a, b)| a == b)
                    .count()
            })
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn shared_pages_seal_verify_corrupt_repair() {
        let mut store = PrefixStore::new(test_config(u64::MAX));
        let prompt = [1, 2, 3, 4];
        let node = store.insert(&prompt, &kv_for(&prompt));
        assert_eq!(store.verify_block(node, 0, 0, 0), Some(true));
        assert!(store.corrupt_block(node, 0, 0, 0));
        assert_eq!(store.verify_block(node, 0, 0, 0), Some(false));
        // Repair recomputes from the pristine shared rows and charges the
        // re-donation: 2 tensors · 4 rows · DIM.
        let moved = store.repair_block(node, 0, 0, 0);
        assert_eq!(moved, Some(Bytes::of_f16(2 * 4 * DIM)));
        assert_eq!(store.verify_block(node, 0, 0, 0), Some(true));
        // Dead/unknown nodes and blocks past the page report absence, not
        // failure.
        assert!(!store.corrupt_block(9999, 0, 0, 0));
        assert_eq!(store.verify_block(9999, 0, 0, 0), None);
        assert_eq!(store.repair_block(9999, 0, 0, 0), None);
        assert!(!store.corrupt_block(node, 0, 0, 1));
        assert_eq!(store.verify_block(node, 0, 0, 1), None);
        assert_eq!(store.repair_block(node, 0, 0, 1), None);
        store.unpin_prompt(&prompt);
    }

    #[test]
    fn split_reseals_both_halves() {
        let mut store = PrefixStore::new(test_config(u64::MAX));
        let a = [1, 2, 3, 4];
        let b = [1, 2, 9, 9];
        let na = store.insert(&a, &kv_for(&a));
        let nb = store.insert(&b, &kv_for(&b));
        // Inserting `b` split `a`'s node at offset 2; every page of both
        // terminals (and the shared prefix half) must carry a fresh seal.
        for node in [na, nb] {
            for layer in 0..2 {
                assert!(store.page(node, layer, 0).verify());
            }
        }
        store.unpin_prompt(&a);
        store.unpin_prompt(&b);
    }

    /// A prompt long enough for its page to span several seal blocks, the
    /// last one partial.
    fn long_prompt() -> Vec<usize> {
        (0..2 * SEAL_BLOCK_ROWS + 88).map(|i| i % 7).collect()
    }

    #[test]
    fn a_damaged_block_fails_only_its_own_rows() {
        let prompt = long_prompt();
        let mut store = PrefixStore::new(test_config(u64::MAX));
        let node = store.insert(&prompt, &kv_for(&prompt));
        let page = store.page(node, 1, 0);
        assert_eq!(page.seals.len(), 3);
        // Row ranges map onto the blocks they overlap — what a session
        // adopting `[lo, hi)` verifies.
        let b = SEAL_BLOCK_ROWS;
        assert_eq!(SharedKvPage::blocks_of((0, b - 1)), 0..1);
        assert_eq!(SharedKvPage::blocks_of((b, 2 * b)), 1..2);
        assert_eq!(SharedKvPage::blocks_of((b - 1, b + 1)), 0..2);
        assert_eq!(SharedKvPage::blocks_of((2 * b, 2 * b + 88)), 2..3);
        for damaged in 0..3 {
            assert!(store.corrupt_block(node, 1, 0, damaged));
            for block in 0..3 {
                assert_eq!(
                    store.verify_block(node, 1, 0, block),
                    Some(block != damaged),
                    "block {block} with block {damaged} damaged"
                );
            }
            // The other layer's page of the same node is untouched.
            assert!(store.page(node, 0, 0).verify());
            // Repair reseals that block alone and charges its rows alone.
            let rows = if damaged == 2 { 88 } else { b };
            assert_eq!(
                store.repair_block(node, 1, 0, damaged),
                Some(Bytes::of_f16(2 * rows * DIM))
            );
            assert!(store.page(node, 1, 0).verify());
        }
        // A seal commits to the block's position: equal payloads at
        // different offsets do not share a tag.
        let twin = SharedKvPage::sealed(
            Matrix::zeros(2 * b, DIM),
            Matrix::zeros(2 * b, DIM),
            vec![0.0; 2 * b],
        );
        assert_ne!(twin.seals[0], twin.seals[1]);
        store.unpin_prompt(&prompt);
    }

    #[test]
    fn a_split_inside_a_block_keeps_both_halves_verifiable() {
        let prompt = long_prompt();
        let mut store = PrefixStore::new(test_config(u64::MAX));
        store.insert(&prompt, &kv_for(&prompt));
        // Diverge in the middle of the second block.
        let cut = SEAL_BLOCK_ROWS + 100;
        let mut other = prompt[..cut].to_vec();
        other.extend([9, 9, 9]);
        store.insert(&other, &kv_for(&other));
        assert_eq!(store.stats().nodes, 3, "one split, one new leaf");
        let (matched, segments) = store.match_from(0, &prompt);
        assert_eq!(matched, prompt.len());
        assert_eq!(segments.len(), 2, "prefix half, then suffix half");
        let blocks: Vec<usize> = segments
            .iter()
            .map(|seg| {
                let page = store.page(seg.node, 0, 0);
                assert_eq!(page.keys.rows(), seg.rows.1);
                assert!(page.verify(), "resealed from its own row 0");
                page.seals.len()
            })
            .collect();
        // One block and 100 rows → 2 blocks; the remaining 116 → 1.
        assert_eq!(blocks, [2, 1]);
        // Damage in one half is invisible to the other.
        assert!(store.corrupt_block(segments[1].node, 0, 0, 0));
        assert!(store.page(segments[0].node, 0, 0).verify());
        assert!(!store.page(segments[1].node, 0, 0).verify());
        store.unpin_prompt(&prompt);
        store.unpin_prompt(&other);
    }

    fn arb_prompt() -> impl Strategy<Value = Vec<usize>> {
        proptest::collection::vec(0usize..4, 1..12)
    }

    proptest! {
        #[test]
        fn radix_longest_match_equals_naive_reference(
            prompts in proptest::collection::vec(arb_prompt(), 1..10),
            query in arb_prompt(),
        ) {
            let mut store = PrefixStore::new(test_config(u64::MAX));
            for p in &prompts {
                store.insert(p, &kv_for(p));
            }
            let (matched, _) = store.match_from(0, &query);
            prop_assert_eq!(matched, naive_match(&prompts, &query));
            // Token-granular matching dominates node-granular pinning.
            prop_assert!(store.peek_match(&query) <= matched);
        }

        #[test]
        fn matched_rows_are_bitwise_identical_to_the_source(
            prompts in proptest::collection::vec(arb_prompt(), 1..8),
            query in arb_prompt(),
        ) {
            let mut store = PrefixStore::new(test_config(u64::MAX));
            for p in &prompts {
                store.insert(p, &kv_for(p));
            }
            let (matched, segs) = store.match_from(0, &query);
            let kv = kv_for(&query);
            for (layer, layer_kv) in kv.iter().enumerate().take(2) {
                let rows = gather_rows(&store, &segs, layer);
                prop_assert_eq!(rows.len(), matched);
                for (pos, row) in rows.iter().enumerate() {
                    prop_assert_eq!(row.as_slice(), layer_kv[0].key(pos));
                }
            }
            // Norm caches travel with the rows.
            let mut norm_pos = 0usize;
            for seg in &segs {
                let page = store.page(seg.node, 0, 0);
                for r in seg.rows.0..seg.rows.1 {
                    prop_assert_eq!(page.key_norms[r], kv[0][0].key_norm_sq(norm_pos));
                    norm_pos += 1;
                }
            }
        }

        #[test]
        fn refcounts_never_underflow_and_bytes_stay_exact(
            prompts in proptest::collection::vec(arb_prompt(), 1..40),
            opcodes in proptest::collection::vec(0u8..3, 1..40),
            cap_sel in 0usize..4,
        ) {
            let capacity = [0u64, 200, 2000, u64::MAX][cap_sel];
            let mut store = PrefixStore::new(test_config(capacity));
            // Live pins: (prompt, pinned_len) — released in arbitrary
            // interleavings driven by the op stream.
            let mut pins: Vec<(Vec<usize>, usize)> = Vec::new();
            for (prompt, &op) in prompts.into_iter().zip(opcodes.iter()) {
                match op {
                    // Create: insert (pins its own path) and cache one
                    // selector state per (layer, kv head) at the terminal —
                    // the engine's finish_prefill.
                    0 => {
                        let terminal = store.insert(&prompt, &kv_for(&prompt));
                        for layer in 0..2 {
                            store.cache_selector_state(
                                terminal,
                                layer,
                                0,
                                SharedPrefixState {
                                    fingerprint: layer as u64,
                                    bytes: Bytes(40 + prompt.len() as u64),
                                    state: Arc::new(()),
                                },
                            );
                        }
                        let len = prompt.len();
                        pins.push((prompt, len));
                    }
                    // Release the oldest live session.
                    1 => {
                        if !pins.is_empty() {
                            let (p, len) = pins.remove(0);
                            store.unpin_prompt(&p[..len]);
                        }
                    }
                    // Lookup traffic (touches LRU stamps).
                    _ => {
                        let _ = store.match_from(0, &prompt);
                    }
                }
                prop_assert_eq!(store.recomputed_bytes(), store.shared_bytes());
                if capacity == 0 {
                    // Only pinned paths may remain.
                    for (p, len) in &pins {
                        prop_assert_eq!(store.peek_match(p), *len);
                    }
                }
            }
            // Drain every live pin: must not panic (no underflow) and with a
            // zero cap must leave the store empty.
            for (p, len) in pins.drain(..) {
                store.unpin_prompt(&p[..len]);
            }
            prop_assert_eq!(store.recomputed_bytes(), store.shared_bytes());
            if capacity == 0 {
                prop_assert_eq!(store.shared_bytes(), Bytes(0));
                prop_assert_eq!(store.stats().nodes, 0);
            }
        }

        #[test]
        fn peek_match_is_a_stable_lower_bound_under_later_inserts(
            first in proptest::collection::vec(arb_prompt(), 1..6),
            later in proptest::collection::vec(arb_prompt(), 0..6),
            query in arb_prompt(),
        ) {
            let mut store = PrefixStore::new(test_config(u64::MAX));
            for p in &first {
                store.insert(p, &kv_for(p));
            }
            let pinned = store.pin_prompt(&query[..store.peek_match(&query)]);
            for p in &later {
                store.insert(p, &kv_for(p));
            }
            // Splits and inserts may only grow the match; the pinned prefix
            // stays intact and unpinnable.
            prop_assert!(store.peek_match(&query) >= pinned);
            store.unpin_prompt(&query[..pinned]);
        }
    }
}
