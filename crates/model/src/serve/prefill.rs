//! Prefill: prompt chunks forwarded with full causal attention, the
//! prompt's shared prefix adopted from the cross-session [`PrefixStore`],
//! and the seal that makes a session decodable.

use super::session::resident;
use super::step::{observe_selective, StepCtx};
use super::{EngineError, ServeEngine, SessionId, SessionPhase, SessionState};
use crate::policy::ObserveEvent;
use clusterkv_faults::{FaultInjector, FaultSite};
use clusterkv_kvcache::prefix::{PrefixStore, SharedKvPage};

impl ServeEngine {
    /// Forward one contiguous chunk of a session's prompt with full causal
    /// attention, letting every selective KV head's selector observe the
    /// chunk's keys ([`ObserveEvent::PrefillChunk`]). Returns the final
    /// hidden state of the chunk's last token.
    ///
    /// Chunks are resumable: a prompt may arrive over any number of calls
    /// (the serving scheduler interleaves the chunks of one session with
    /// other sessions' decode steps), and the session becomes decodable only
    /// after [`finish_prefill`](Self::finish_prefill). Decode token streams,
    /// selector statistics and cache accounting are byte-identical whatever
    /// the chunking — including the monolithic [`prefill`](Self::prefill),
    /// which is a wrapper over this path.
    ///
    /// Each call validates its whole chunk upfront (vocabulary, context
    /// fit), so a failed call forwards nothing and the session keeps
    /// accepting corrected chunks.
    ///
    /// When the engine has a [`PrefixStore`], the chunk first walks the
    /// store: prompt positions covered by shared pages have their KV (and
    /// key-norm caches) bulk-copied instead of recomputed, and only the
    /// novel suffix runs the forward pass. The last token of every chunk is
    /// always forwarded so the returned hidden state is exact. Shared pages
    /// are immutable; the session's own stores are its private copy, so
    /// decode appends never write back (copy-on-write at the materialize
    /// boundary, DESIGN.md §8).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSession`], [`EngineError::PrefillSealed`]
    /// (the session already finished prefill), [`EngineError::EmptyChunk`],
    /// [`EngineError::TokenOutOfVocab`] or [`EngineError::ContextOverflow`].
    pub fn prefill_chunk(
        &mut self,
        id: SessionId,
        chunk: &[usize],
    ) -> Result<Vec<f32>, EngineError> {
        let sess = resident(&mut self.sessions, id)?;
        if sess.phase == SessionPhase::Ready {
            return Err(EngineError::PrefillSealed);
        }
        let Some(&last_token) = chunk.last() else {
            return Err(EngineError::EmptyChunk);
        };
        // Validate the whole chunk upfront: a chunk that errored halfway
        // through would otherwise leave partial KV entries behind while the
        // session still accepts a retry, silently shifting every position of
        // the retried tokens.
        let config = &self.model.config;
        if sess.num_tokens + chunk.len() > config.max_context {
            return Err(EngineError::ContextOverflow {
                requested: sess.num_tokens + chunk.len(),
                max: config.max_context,
            });
        }
        if let Some(&token) = chunk.iter().find(|&&t| t >= config.vocab_size) {
            return Err(EngineError::TokenOutOfVocab {
                token,
                vocab: config.vocab_size,
            });
        }
        let start = sess.num_tokens;
        // The chunk's length is known: reserve every store once instead of
        // growing per token.
        sess.kv
            .iter_mut()
            .flatten()
            .for_each(|store| store.reserve(chunk.len()));
        let mut fast = 0;
        if let Some(store) = &mut self.prefix {
            sess.prompt_tokens.extend_from_slice(chunk);
            if sess.prefix_active {
                fast = sess.adopt_prefix(store, self.model.injector, id);
            }
        }
        let mut ctx = StepCtx::new(&self.model, sess);
        let mut last = Vec::new();
        for &token in &chunk[fast..] {
            last = ctx.forward(token, false)?;
        }
        // Notify the selectors of the chunk's keys, once per KV head.
        // Selectors are independent, making the observes order-free; policies
        // whose prefill pass is global (ClusterKV's clustering, InfiniGen's
        // SVD) buffer here and reconcile on `PrefillDone`.
        let end = sess.num_tokens;
        let kv = &sess.kv;
        observe_selective(&mut sess.selectors, |layer, kv_head, selector| {
            selector.observe(ObserveEvent::PrefillChunk {
                start,
                keys: &kv[layer][kv_head].keys().slice_rows(start, end),
            });
        });
        sess.phase = SessionPhase::Prefilling;
        sess.next_input = Some(last_token);
        Ok(last)
    }

    /// Seal a chunked prefill: selectors reconcile their prompt state
    /// ([`ObserveEvent::PrefillDone`] — this is where ClusterKV's semantic
    /// clustering runs, Fig. 5 step 1, once per KV head: the heaviest
    /// selection work of a session's lifetime), the prefill KV settles into the tiered memory
    /// hierarchy, and the session becomes decodable (its next decode input
    /// is the last prompt token).
    ///
    /// With a [`PrefixStore`], sealing also donates the session's prompt KV
    /// into the tree (refcounted, pinned until release) and reconciles
    /// selector state per `(layer, kv_head)`: the first session to seal a
    /// prompt exports its post-clustering state to the terminal node, and
    /// later sessions adopt it — skipping the k-means entirely — when the
    /// fingerprint and token count line up.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSession`], [`EngineError::AlreadyPrefilled`]
    /// (already sealed) or [`EngineError::EmptyPrompt`] (no chunks were
    /// forwarded).
    pub fn finish_prefill(&mut self, id: SessionId) -> Result<(), EngineError> {
        let sess = resident(&mut self.sessions, id)?;
        match sess.phase {
            SessionPhase::Ready => return Err(EngineError::AlreadyPrefilled),
            SessionPhase::Fresh => return Err(EngineError::EmptyPrompt),
            SessionPhase::Prefilling => {}
        }
        let total_tokens = sess.num_tokens;
        let mut terminal = None;
        if let Some(store) = &mut self.prefix {
            debug_assert_eq!(sess.prompt_tokens.len(), total_tokens);
            if sess.prefix_active {
                // Retroactively credit the chunk-last tokens the fast path
                // recomputed: they are store-backed even though they were
                // forwarded, so they belong to the shared byte accounting.
                let (matched, _) = store.match_from(total_tokens, &sess.prompt_tokens);
                sess.matched_prefix_tokens = sess.matched_prefix_tokens.max(matched);
            }
            // Donate the prompt KV (pages are slices of this session's own
            // stores, so re-donating a known prompt adds zero bytes) and
            // swap the admission pin, if any, for the full-prompt pin that
            // `insert` takes on our behalf.
            let node = store.insert(&sess.prompt_tokens, &sess.kv);
            let old_pin = std::mem::replace(&mut sess.pinned_prompt, sess.prompt_tokens.clone());
            if !old_pin.is_empty() {
                store.unpin_prompt(&old_pin);
            }
            terminal = Some(node);
        }
        let adopt_from = terminal.and_then(|node| {
            self.prefix
                .as_ref()
                .filter(|store| store.has_selector_states(node))
                .map(|store| (store, node))
        });
        observe_selective(&mut sess.selectors, |layer, kv_head, selector| {
            if let Some((store, node)) = adopt_from {
                if let Some(state) = store.selector_state(node, layer, kv_head) {
                    if selector.adopt_prefill_state(state, total_tokens) {
                        return;
                    }
                }
            }
            selector.observe(ObserveEvent::PrefillDone { total_tokens });
        });
        if let (Some(store), Some(node)) = (&mut self.prefix, terminal) {
            if !store.has_selector_states(node) {
                // First session to seal this exact prompt: export each
                // selective KV head's post-reconcile state so later sessions
                // skip the clustering work.
                for (layer, selectors) in sess.selectors.iter().enumerate() {
                    for (kv_head, selector) in selectors.iter().enumerate() {
                        if let Some(state) = selector.export_prefill_state() {
                            store.cache_selector_state(node, layer, kv_head, state);
                        }
                    }
                }
            }
        }
        // The prefill KV was produced on the GPU: pages stay resident while
        // cache capacity allows, the rest is offloaded to the backing store.
        sess.residency
            .settle(&self.model.config, &sess.selectors, &sess.kv);
        sess.phase = SessionPhase::Ready;
        Ok(())
    }

    /// Process a session's whole prompt with full causal attention, then hand
    /// each head's prefill keys to its selector. Returns the final hidden
    /// state of the last prompt token and arms the session for decoding
    /// (its next decode input is the last prompt token).
    ///
    /// This is the monolithic wrapper over the resumable
    /// [`prefill_chunk`](Self::prefill_chunk) / [`finish_prefill`]
    /// path: one chunk covering the whole prompt, then the seal. Outputs are
    /// byte-identical to any other chunking of the same prompt.
    ///
    /// [`finish_prefill`]: Self::finish_prefill
    ///
    /// # Errors
    ///
    /// Returns an error for unknown sessions, repeated or in-progress
    /// prefills, empty prompts, out-of-vocabulary tokens or context
    /// overflow.
    pub fn prefill(&mut self, id: SessionId, prompt: &[usize]) -> Result<Vec<f32>, EngineError> {
        // Reject a session mid-chunked-prefill (silently appending the whole
        // prompt after partial chunks is never what the caller meant) or
        // already sealed. Checked here, not via `prefill_chunk`, to keep this
        // monolithic API's historical error contract: `AlreadyPrefilled` and
        // `EmptyPrompt`, where the chunked path reports the finer-grained
        // `PrefillSealed` and `EmptyChunk`.
        if self.session(id)?.phase != SessionPhase::Fresh {
            return Err(EngineError::AlreadyPrefilled);
        }
        if prompt.is_empty() {
            return Err(EngineError::EmptyPrompt);
        }
        let last = self.prefill_chunk(id, prompt)?;
        self.finish_prefill(id)?;
        Ok(last)
    }
}

impl SessionState {
    /// Prefix adoption: copy the KV rows (and key-norm caches) the store holds
    /// for the buffered prompt, stopping one token short of it so the chunk's
    /// last token is always forwarded. Copied rows are bitwise what the
    /// forward pass would produce (deterministic kernels, absolute-position
    /// RoPE), so everything downstream is byte-identical to a cold prefill.
    /// Returns the number of positions adopted.
    fn adopt_prefix(
        &mut self,
        store: &mut PrefixStore,
        injector: FaultInjector,
        id: SessionId,
    ) -> usize {
        let start = self.num_tokens;
        let cap = self.prompt_tokens.len() - 1;
        let (matched, segments) = store.match_from(start, &self.prompt_tokens[..cap]);
        self.matched_prefix_tokens = self.matched_prefix_tokens.max(matched);
        if matched < cap {
            // First divergence: every later position is novel, so stop
            // walking the tree for this session.
            self.prefix_active = false;
        }
        let fast = matched.saturating_sub(start);
        if fast == 0 {
            return 0;
        }
        let seams = &mut self.residency.seams;
        for (layer, layer_kv) in self.kv.iter_mut().enumerate() {
            for (kv_head, kv) in layer_kv.iter_mut().enumerate() {
                for seg in &segments {
                    // Integrity gate (DESIGN.md §11): the seal of every block
                    // the adopted rows touch is checked before they are
                    // copied — those blocks only, so a prompt adopted chunk
                    // by chunk hashes each shared byte about once, not once
                    // per chunk; a damaged seal is repaired from the pristine
                    // rows (recompute + re-donate) so adoption never
                    // propagates corruption.
                    for block in SharedKvPage::blocks_of(seg.rows) {
                        let key = (seg.node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            ^ ((block as u64) << 48)
                            ^ ((layer as u64) << 32)
                            ^ ((kv_head as u64) << 16)
                            ^ id.raw();
                        if injector.should_corrupt(FaultSite::PrefixAdoption, key)
                            && store.corrupt_block(seg.node, layer, kv_head, block)
                        {
                            seams.record_injected();
                        }
                        match store.verify_block(seg.node, layer, kv_head, block) {
                            Some(true) => seams.record_verified(),
                            Some(false) => {
                                seams.record_verified();
                                seams.record_detected();
                                if let Some(bytes) =
                                    store.repair_block(seg.node, layer, kv_head, block)
                                {
                                    seams.record_repaired(bytes.get());
                                }
                            }
                            None => {}
                        }
                    }
                    let page = store.page(seg.node, layer, kv_head);
                    kv.append_shared(
                        &page.keys,
                        &page.values,
                        &page.key_norms,
                        seg.rows.0,
                        seg.rows.1,
                    );
                }
            }
        }
        self.num_tokens += fast;
        self.fastpath_prefix_tokens += fast;
        fast
    }
}
