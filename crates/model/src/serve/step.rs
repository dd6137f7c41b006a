//! One token through the transformer, as a fixed sequence of phases over
//! one [`StepCtx`]: embed → KV append → plan → attend → account → MLP, and
//! for a decode step also observe → settle → finish_step → logits. Prefill
//! runs the forward phases alone; the decode entry points live here too.

use super::session::resident;
use super::{DecodeOutput, EngineError, Model, ServeEngine, SessionId, SessionPhase, SessionState};
use crate::attention::attend_compressed_ws;
use crate::policy::{
    KvResidency, ObserveEvent, PageRequest, SelectionPlan, SelectionRequest, TokenSelector,
};
use clusterkv_tensor::kernels::{attend_into, matvec_rows_into, par_matvec_rows};
use clusterkv_tensor::ops::{rms_norm, silu};
use clusterkv_tensor::vector::argmax;
use clusterkv_tensor::Matrix;
use rayon::prelude::*;
use std::collections::BTreeMap;

/// Minimum output rows per worker for the row-wise projections (attention
/// output, FFN gate/up/down, logits): one row is a single `O(hidden)` dot
/// product, so tiny test models stay on one thread while production-sized
/// projections split.
const PROJ_MIN_ROWS_PER_WORKER: usize = 256;

/// Context length from which the per-head attention phase fans out across
/// workers: below this, one head's attention over at most this many tokens
/// is cheaper than a thread spawn, so heads stay on one thread.
/// Deterministic in the token position, hence parity-safe.
const HEAD_PAR_MIN_CONTEXT: usize = 512;

/// One head's plan for a decode step, with the current position forced into
/// its indices, and the pages its lookahead hint nominates for the next step
/// (DESIGN.md §10; empty, so unallocated, with prefetch off). Made in head
/// order before attention fans out; attention reads the indices and the
/// residency, and everything order-sensitive — cluster-cache accesses (LRU
/// stamps), stats accumulation — is applied from it afterwards, again in
/// head order, which keeps N-thread and 1-thread runs byte-identical.
type HeadPlan = (SelectionPlan, Vec<PageRequest>);

/// One session advancing through the transformer: the engine's immutable
/// model, shared, and the session's own state, exclusive. The next token's
/// position is `sess.num_tokens` until [`forward`](Self::forward) returns.
pub(super) struct StepCtx<'a> {
    model: &'a Model,
    sess: &'a mut SessionState,
}

impl<'a> StepCtx<'a> {
    pub(super) fn new(model: &'a Model, sess: &'a mut SessionState) -> Self {
        Self { model, sess }
    }

    fn position(&self) -> usize {
        self.sess.num_tokens
    }

    /// Run one token through every layer and return its final hidden state.
    /// A decode step (`decode`) plans the selective layers; a prefill token
    /// attends the whole context everywhere.
    pub(super) fn forward(&mut self, token: usize, decode: bool) -> Result<Vec<f32>, EngineError> {
        let mut x = self.embed(token)?;
        let weights = &self.model.weights;
        for layer in 0..self.model.config.num_layers {
            let h = rms_norm(&x, &weights.layers[layer].attn_norm, 1e-6);
            self.append_kv(layer, &h);
            let plans = self.plan(layer, &h, decode);
            self.attend(layer, &plans);
            self.account(layer, plans);
            self.mlp(layer, &mut x);
        }
        self.sess.num_tokens += 1;
        Ok(rms_norm(&x, &weights.final_norm, 1e-6))
    }

    /// Embed: check the token fits the context window and the vocabulary,
    /// and look up its row.
    fn embed(&self, token: usize) -> Result<Vec<f32>, EngineError> {
        let config = &self.model.config;
        let position = self.position();
        if position >= config.max_context {
            return Err(EngineError::ContextOverflow {
                requested: position + 1,
                max: config.max_context,
            });
        }
        if token >= config.vocab_size {
            return Err(EngineError::TokenOutOfVocab {
                token,
                vocab: config.vocab_size,
            });
        }
        Ok(self.model.weights.embedding.row(token).to_vec())
    }

    /// KV append: project each KV head's key and value, rotate the key and
    /// append both. Sequential on purpose: one projection is microseconds of
    /// work, far below the cost of enlisting a worker. The projections land
    /// in session-owned scratch, so no per-token buffers are built.
    fn append_kv(&mut self, layer: usize, h: &[f32]) {
        let (model, position) = (self.model, self.position());
        let (lw, head_dim) = (&model.weights.layers[layer], model.config.head_dim);
        let sess = &mut *self.sess;
        for kv_head in 0..model.config.num_kv_heads {
            project_head_into(&lw.wk, h, kv_head, head_dim, &mut sess.k_scratch);
            project_head_into(&lw.wv, h, kv_head, head_dim, &mut sess.v_scratch);
            model.rope.apply(&mut sess.k_scratch, position);
            sess.kv[layer][kv_head].append(&sess.k_scratch, &sess.v_scratch);
        }
    }

    /// Plan (sequential, in head order): project and rotate each query head's
    /// query; decoding a selective layer, also plan its token set and
    /// nominate next-step pages. A KV head's selector is one object planning
    /// for the heads of its group in turn, reusing its own scratch, so this
    /// phase runs on the session's thread. Returns no plan where the layer
    /// attends the whole context.
    fn plan(&mut self, layer: usize, h: &[f32], decode: bool) -> Vec<HeadPlan> {
        let (model, position) = (self.model, self.position());
        let (config, prefetch) = (&model.config, model.prefetch);
        let (wq, sess) = (&model.weights.layers[layer].wq, &mut *self.sess);
        for (head, ws) in sess.workspaces.iter_mut().enumerate() {
            project_head_into(wq, h, head, config.head_dim, &mut ws.q);
            model.rope.apply(&mut ws.q, position);
        }
        let selectors = &mut sess.selectors[layer];
        if !decode || selectors.is_empty() {
            return Vec::new();
        }
        let group = config.num_heads / config.num_kv_heads;
        let kv_layer = &sess.kv[layer];
        let mut plans = Vec::with_capacity(config.num_heads);
        for (head, ws) in sess.workspaces.iter().enumerate() {
            let selector = &mut selectors[head / group];
            let request = SelectionRequest::new(&ws.q, kv_layer[head / group].len(), model.budget);
            let mut plan = selector.plan(head % group, request);
            // The lookahead nomination runs right after the plan, against
            // the same query: a pure read re-ranking cluster centroids under
            // a widened budget. Only prefetching engines pay for it.
            let hint = if prefetch.enabled() {
                selector.prefetch_hint(head % group, request, prefetch.lookahead_tokens)
            } else {
                Vec::new()
            };
            // The token being generated always attends to itself: its KV was
            // just produced on the GPU and is not subject to selection
            // (policies may not even have observed it yet).
            if !plan.indices.contains(&position) {
                plan.indices.push(position);
            }
            plans.push((plan, hint));
        }
        plans
    }

    /// Attend (parallel across query heads). A head reads only its KV head's
    /// store, its plan and the sealed compressed pages — never a selector —
    /// and writes its output straight into its disjoint slice of the layer's
    /// concat buffer through its persistent kernel workspace: pure,
    /// order-free compute with no allocation once the workspace is warm.
    /// Heads fan out only once the context is long enough for one head's
    /// attention to outweigh a spawn (`min_len = num_heads` forces a single
    /// chunk below the threshold).
    fn attend(&mut self, layer: usize, plans: &[HeadPlan]) {
        let config = &self.model.config;
        let (num_heads, head_dim) = (config.num_heads, config.head_dim);
        let group = num_heads / config.num_kv_heads;
        let head_min_len = if self.position() >= HEAD_PAR_MIN_CONTEXT {
            1
        } else {
            num_heads
        };
        let sess = &mut *self.sess;
        let kv_layer = &sess.kv[layer];
        let sealed_pages = sess.residency.compressed_pages(layer);
        sess.concat.clear();
        sess.concat.resize(num_heads * head_dim, 0.0);
        let work: Vec<_> = sess
            .workspaces
            .iter_mut()
            .zip(sess.concat.chunks_mut(head_dim))
            .enumerate()
            .collect();
        work.into_par_iter()
            .with_min_len(head_min_len)
            .for_each(|(head, (ws, slot))| {
                let store = &kv_layer[head / group];
                match (plans.get(head), sealed_pages.get(head / group)) {
                    // Recall-compressed attention (DESIGN.md §9): the plan's
                    // pages through their merged + quantized KV, exact KV
                    // elsewhere. The pages were built when their clusters
                    // were sealed, from (config, membership, stored values)
                    // alone, so this is order-free across heads and thread
                    // counts.
                    (
                        Some((
                            SelectionPlan {
                                indices,
                                residency: KvResidency::Compressed(pages),
                                ..
                            },
                            _,
                        )),
                        Some(sealed),
                    ) => {
                        let page_of = |page: &PageRequest| {
                            sealed
                                .get(page.page)
                                .expect("every page of a plan was sealed with its cluster")
                        };
                        attend_compressed_ws(store, indices, pages.iter().map(page_of), ws, slot);
                    }
                    // Exact KV: the plan's subset, or — where the layer made
                    // no plan — the whole context, contiguously, with no
                    // index vector. A lossless session keeps no compressed
                    // pages: its plans attend exact KV whatever they call it.
                    (plan, _) => attend_into(
                        store.keys(),
                        store.values(),
                        plan.map(|(plan, _)| plan.indices.as_slice()),
                        &ws.q,
                        &mut ws.weights,
                        slot,
                    ),
                }
            });
    }

    /// Account (sequential, in head order): cluster-cache accesses (whose
    /// LRU stamps are order-sensitive) and stats accumulation consume the
    /// plans exactly as a sequential engine would.
    fn account(&mut self, layer: usize, plans: Vec<HeadPlan>) {
        let sess = &mut *self.sess;
        for (head, (plan, hint)) in plans.into_iter().enumerate() {
            sess.stats.merge(&plan.stats);
            sess.residency
                .selected(plan.stats.scored_vectors, plan.indices.len() as u64);
            let pages = match plan.residency {
                KvResidency::Paged(pages) | KvResidency::Compressed(pages) => Some(pages),
                KvResidency::Resident => None,
            };
            sess.residency.recall(layer, head, pages, hint);
        }
    }

    /// MLP: output projection and residual, then the SiLU-gated FFN and
    /// residual (all row-parallel).
    fn mlp(&mut self, layer: usize, x: &mut [f32]) {
        let config = &self.model.config;
        let lw = &self.model.weights.layers[layer];
        let attn_out = par_rows_matvec(&lw.wo, &self.sess.concat, config.hidden_dim());
        for (xi, ai) in x.iter_mut().zip(&attn_out) {
            *xi += ai;
        }
        let h2 = rms_norm(x, &lw.ffn_norm, 1e-6);
        let mut gate = par_rows_matvec(&lw.w_gate, &h2, config.ffn_dim);
        for g in gate.iter_mut() {
            *g = silu(*g);
        }
        let up = par_rows_matvec(&lw.w_up, &h2, config.ffn_dim);
        let gated: Vec<f32> = gate.iter().zip(&up).map(|(g, u)| g * u).collect();
        let down = par_rows_matvec(&lw.w_down, &gated, config.hidden_dim());
        for (xd, dd) in x.iter_mut().zip(&down) {
            *xd += dd;
        }
    }

    /// Advance the session by one decoding step.
    fn decode(mut self, id: SessionId) -> Result<DecodeOutput, EngineError> {
        if self.sess.phase != SessionPhase::Ready {
            return Err(EngineError::NotPrefilled);
        }
        let token = self.sess.next_input.ok_or(EngineError::NotPrefilled)?;
        let position = self.position();
        self.sess.residency.begin_step();
        let hidden = self.forward(token, true)?;
        self.observe(position);
        self.settle();
        self.finish_step(id, position);
        Ok(self.logits(id, hidden))
    }

    /// Observe: every selector sees the key its KV head appended at
    /// `position`, read straight from the session's stores. Incremental
    /// clustering (ClusterKV's periodic k-means over the decode buffer) runs
    /// inside these observes, once per KV head.
    fn observe(&mut self, position: usize) {
        let sess = &mut *self.sess;
        let kv = &sess.kv;
        observe_selective(&mut sess.selectors, |layer, kv_head, selector| {
            selector.observe(ObserveEvent::Append {
                position,
                key: kv[layer][kv_head].key(position),
            });
        });
    }

    /// Settle: new KV (and any freshly created clusters) was produced
    /// on-device, so admit what stays resident and seal new compressed pages.
    fn settle(&mut self) {
        let sess = &mut *self.sess;
        sess.residency
            .settle(&self.model.config, &sess.selectors, &sess.kv);
    }

    /// Finish the step: staging, the fault plan and pricing. Every fault
    /// decision is a pure function of (plan seed, site, session id,
    /// position), so the schedule is bit-identical across runs, chunkings
    /// and thread counts (DESIGN.md §11).
    fn finish_step(&mut self, id: SessionId, position: usize) {
        self.sess.residency.finish_step(
            &self.model.latency,
            self.model.injector,
            id.raw().wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ position as u64,
            self.sess.num_tokens,
        );
    }

    /// Logits: tied-embedding projection (row-chunk-parallel over the
    /// vocabulary) and the greedy next token, which becomes the session's
    /// next input.
    fn logits(self, id: SessionId, hidden: Vec<f32>) -> DecodeOutput {
        let config = &self.model.config;
        let logits = par_rows_matvec(&self.model.weights.embedding, &hidden, config.vocab_size);
        let next_token = argmax(&logits).unwrap_or(0);
        self.sess.generated_tokens += 1;
        self.sess.next_input = Some(next_token);
        DecodeOutput {
            session: id,
            next_token,
            logits,
            hidden,
        }
    }
}

/// Project a hidden vector through the per-head slice of a projection
/// matrix `w` (whose rows are output channels) into a reusable buffer —
/// one blocked matvec over the head's row range.
fn project_head_into(w: &Matrix, hidden: &[f32], head: usize, head_dim: usize, out: &mut Vec<f32>) {
    matvec_rows_into(w, head * head_dim..(head + 1) * head_dim, hidden, out);
}

/// `w[..rows] · v` through the blocked kernel, row-chunk-parallel at a
/// constant chunk size — thread-count invariant (DESIGN.md §6).
fn par_rows_matvec(w: &Matrix, v: &[f32], rows: usize) -> Vec<f32> {
    par_matvec_rows(w, 0..rows, v, PROJ_MIN_ROWS_PER_WORKER)
}

/// Fan a key event out across every selector of a session — once per KV
/// head of each selective layer, however many query heads read it. The
/// closure receives the selector's layer and KV head, and must be
/// order-free: selectors are independent, so the fan-out runs data-parallel
/// (DESIGN.md §4).
pub(super) fn observe_selective<F>(selectors: &mut [Vec<Box<dyn TokenSelector>>], observe: F)
where
    F: Fn(usize, usize, &mut dyn TokenSelector) + Sync,
{
    selectors
        .iter_mut()
        .enumerate()
        .flat_map(|(layer, kv_heads)| {
            kv_heads
                .iter_mut()
                .enumerate()
                .map(move |(kv_head, selector)| (layer, kv_head, selector))
        })
        .collect::<Vec<_>>()
        .into_par_iter()
        .with_min_len(1)
        .for_each(|(layer, kv_head, selector)| observe(layer, kv_head, selector.as_mut()));
}

impl ServeEngine {
    /// One decode step of one session, run on the calling thread. Not
    /// `decode_batch(&[id])`: a one-session region runs inline but marks
    /// its thread as inside a region, so the step's own head fan-out would
    /// run inline too (DESIGN.md §4).
    fn decode_session(&mut self, id: SessionId) -> Result<DecodeOutput, EngineError> {
        let sess = resident(&mut self.sessions, id)?;
        StepCtx::new(&self.model, sess).decode(id)
    }

    /// Run one decoding step for a session with an explicit input token
    /// (typically the previously generated token).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSession`], [`EngineError::NotPrefilled`], plus
    /// vocabulary / context errors.
    pub fn decode_step(
        &mut self,
        id: SessionId,
        token: usize,
    ) -> Result<DecodeOutput, EngineError> {
        self.set_next_input(id, token)?;
        self.decode_session(id)
    }

    /// Advance every listed session by one decoding step, each consuming its
    /// own pending input token (the last prompt token right after prefill,
    /// afterwards its previously generated token unless overridden via
    /// [`set_next_input`](Self::set_next_input)).
    ///
    /// The batch's **distinct sessions fan out across the thread pool**
    /// (`RAYON_NUM_THREADS` workers): sessions are fully isolated, so the
    /// outputs are byte-identical to calling
    /// [`decode_step`](Self::decode_step) on each session separately, at any
    /// thread count — the serving parity suite enforces this. A session may
    /// appear multiple times, advancing multiple steps; its steps run
    /// sequentially on one worker, in batch order. Outputs are returned in
    /// the order of `ids`, exactly as the sequential engine produced them.
    ///
    /// # Errors
    ///
    /// Validates every id upfront — [`EngineError::UnknownSession`],
    /// [`EngineError::NotPrefilled`], and [`EngineError::ContextOverflow`]
    /// (counting repeated ids) are all reported before any session is
    /// advanced, so a failed batch performs no work.
    pub fn decode_batch(&mut self, ids: &[SessionId]) -> Result<Vec<DecodeOutput>, EngineError> {
        // Group the batch by session: each distinct session becomes one unit
        // of work carrying the output slots its steps fill.
        let mut slots_per_id: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (slot, &id) in ids.iter().enumerate() {
            let sess = self.session(id)?;
            if sess.phase != SessionPhase::Ready || sess.next_input.is_none() {
                return Err(EngineError::NotPrefilled);
            }
            let slots = slots_per_id.entry(id.0).or_default();
            slots.push(slot);
            // Input tokens are validated on entry (argmax continuations and
            // `set_next_input` both stay inside the vocabulary), so the only
            // way a step can fail after this point is running out of context.
            let (requested, max) = (sess.num_tokens + slots.len(), self.model.config.max_context);
            if requested > max {
                return Err(EngineError::ContextOverflow { requested, max });
            }
        }
        let model = &self.model;
        // The session table is a BTreeMap, so the work list (and thus chunk
        // assignment) is id-ordered structurally — no post-hoc sort needed.
        let work: Vec<(u64, Vec<usize>, &mut SessionState)> = self
            .sessions
            .iter_mut()
            .filter_map(|(&raw, sess)| slots_per_id.remove(&raw).map(|slots| (raw, slots, sess)))
            .collect();

        // Fan distinct sessions across the pool; inside one unit the steps
        // run in batch order. The model is shared immutably; all mutable
        // state is per-session and moves into exactly one unit.
        let per_session: Vec<Vec<(usize, Result<DecodeOutput, EngineError>)>> = work
            .into_par_iter()
            .with_min_len(1)
            .map(|(raw, slots, sess)| {
                let id = SessionId(raw);
                slots
                    .into_iter()
                    .map(|slot| (slot, StepCtx::new(model, sess).decode(id)))
                    .collect()
            })
            .collect();

        // Every slot of `0..ids.len()` is produced by exactly one unit:
        // sorting by slot restores batch order.
        let mut out = Vec::with_capacity(ids.len());
        for (slot, result) in per_session.into_iter().flatten() {
            out.push((slot, result?));
        }
        out.sort_unstable_by_key(|&(slot, _)| slot);
        Ok(out.into_iter().map(|(_, output)| output).collect())
    }

    /// Greedily generate `steps` tokens for a session after prefilling it
    /// with `prompt`, returning the generated token ids.
    ///
    /// This stays a direct single-session driver rather than a client of the
    /// `clusterkv-sched` scheduler: it is the "one sequence, run it to the
    /// end" convenience path, with no queueing, admission or modeled clock
    /// to consult — routing it through a one-request scheduler would add a
    /// policy layer that cannot change any output. Multi-request serving
    /// (arrivals, chunked prefill interleaved with decode, latency
    /// accounting) belongs to `clusterkv_sched::Scheduler`, which drives the
    /// same [`prefill_chunk`](Self::prefill_chunk) /
    /// [`decode_batch`](Self::decode_batch) primitives.
    ///
    /// The whole generation is validated upfront (`prompt.len() + steps`
    /// must fit the context window): either the call succeeds in full, or it
    /// fails before forwarding anything — an error never leaves the session
    /// half-advanced with some tokens generated but none returned.
    ///
    /// # Errors
    ///
    /// [`EngineError::ContextOverflow`] if the prompt plus every requested
    /// step cannot fit `max_context`, reported before any work; otherwise
    /// propagates the validation errors of [`prefill`](Self::prefill).
    pub fn generate(
        &mut self,
        id: SessionId,
        prompt: &[usize],
        steps: usize,
    ) -> Result<Vec<usize>, EngineError> {
        // Validate the decode phase upfront. Decode inputs are always
        // in-vocabulary (greedy argmax continuations), so the only way a
        // step could fail after prefill succeeded is running out of context
        // — which would discard the tokens already generated. Checking the
        // full span here makes mid-generation failure impossible.
        let start = self.session(id)?.num_tokens;
        let requested = start + prompt.len() + steps;
        if requested > self.model.config.max_context {
            return Err(EngineError::ContextOverflow {
                requested,
                max: self.model.config.max_context,
            });
        }
        self.prefill(id, prompt)?;
        let mut out = Vec::with_capacity(steps);
        for _ in 0..steps {
            out.push(self.decode_session(id)?.next_token);
        }
        Ok(out)
    }
}
