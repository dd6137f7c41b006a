//! The four workloads: their engines, their traffic and why each exists.

use crate::stats::SplitMix64;
use clusterkv::{ClusterKvConfig, ClusterKvFactory};
use clusterkv_kvcache::compressed::CompressionConfig;
use clusterkv_kvcache::types::{Budget, Bytes};
use clusterkv_model::{EngineError, ModelConfig, ModelPreset, PrefetchConfig, ServeEngine};
use clusterkv_sched::SchedConfig;

/// Selection budget of every workload (the paper's 1k point, Figs. 12–13).
pub const BUDGET_TOKENS: usize = 1024;
/// Prefill chunk of the scheduler; the tick budget is this plus one decode
/// token per client, so a full chunk never starves a decode step.
pub const CHUNK_TOKENS: usize = 512;
/// Retained zero-refcount prefix pages. Large enough that no workload
/// evicts, so prefix behaviour depends on the traffic alone.
const PREFIX_STORE_BYTES: u64 = 64 << 20;
const WEIGHT_SEED: u64 = 0xE2E;
/// Worker threads, fixed so numbers compare across hosts. One, although the
/// reference box has two cores: its host cannot always run both, and in
/// those minutes a run that keeps two threads busy takes 30–60% longer
/// while the same run on one thread takes 5–15% longer (README,
/// *Steadiness*). An explicit `RAYON_NUM_THREADS` overrides it.
pub const THREADS: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// One shared document; each request is the document plus a unique
    /// suffix and decodes for long.
    DocQa,
    /// Unique long prompts, short outputs.
    ColdPrefill,
    /// Many short requests, half of them opening with a shared template.
    ChatMixed,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub traffic: Traffic,
    /// Closed-loop clients: each submits its next request only when its
    /// previous one completed.
    pub clients: usize,
    /// Cluster-cache capacity in quarter decode steps of selections.
    cache_quarter_steps: u64,
    /// int4 compressed tier plus lookahead prefetch (the miss path).
    tight: bool,
    /// Requests the reference box completes per second of timed section;
    /// `--seconds` scales the request count and nothing else.
    requests_per_second: f64,
}

/// Why each exists is recorded with its name in `BENCHMARK.json` and, at
/// length, in README.md.
pub const WORKLOADS: [Workload; 4] = [
    // Decode at long context: centroid scoring, top-k, cache reads and
    // gather-attend do the work; TTFT is prefix adoption plus re-clustering.
    Workload {
        name: "docqa_long_decode",
        traffic: Traffic::DocQa,
        clients: 2,
        cache_quarter_steps: 8,
        tight: false,
        requests_per_second: 0.32,
    },
    // TTFT-bound: prefill attention, matmuls and k-means; the prefix store
    // is only ever written.
    Workload {
        name: "cold_prefill",
        traffic: Traffic::ColdPrefill,
        clients: 2,
        cache_quarter_steps: 8,
        tight: false,
        requests_per_second: 0.34,
    },
    // Every context stays under the budget, so selection and the cluster
    // cache are bypassed: admission, batching and session lifecycle remain.
    Workload {
        name: "chat_mixed_batch",
        traffic: Traffic::ChatMixed,
        clients: 8,
        cache_quarter_steps: 8,
        tight: false,
        requests_per_second: 17.0,
    },
    // The docqa traffic against the miss path of the same cache: evictions,
    // demotion to the int4 tier, promotion and staging.
    Workload {
        name: "tight_cache_recall",
        traffic: Traffic::DocQa,
        clients: 2,
        cache_quarter_steps: 1,
        tight: true,
        requests_per_second: 0.147,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Token counts of the traffic. Only the request count follows `--seconds`;
/// context, budget and client count never do.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub smoke: bool,
    /// Requests per client when the count is fixed instead of following
    /// `--seconds` (`None`: follow `--seconds`).
    pub rounds: Option<usize>,
    pub doc_tokens: usize,
    pub doc_suffix: usize,
    pub doc_output: usize,
    pub cold_prompt: usize,
    pub cold_output: usize,
    pub chat_template: usize,
    pub chat_unique: (usize, usize),
    pub chat_output: (usize, usize),
    pub probe_prompt: usize,
    pub probe_steps: usize,
    /// Steps each baseline session decodes in the traced run.
    pub baseline_steps: usize,
    /// Sampling time per kernel of the component replay, in seconds.
    pub component_slice_s: f64,
    /// Least time a document-less set-up is repeated for, in seconds.
    pub setup_repeat_s: f64,
}

impl Scale {
    pub fn full() -> Self {
        Self {
            smoke: false,
            rounds: None,
            component_slice_s: 0.15,
            setup_repeat_s: 1.5,
            doc_tokens: 8192,
            doc_suffix: 32,
            doc_output: 384,
            cold_prompt: 4096,
            cold_output: 64,
            chat_template: 256,
            chat_unique: (64, 512),
            chat_output: (32, 64),
            probe_prompt: 4096,
            probe_steps: 128,
            baseline_steps: 128,
        }
    }

    /// Seconds-sized variant for CI: the same code paths on a 512-token
    /// document and 256-token prompts, two rounds of requests per client.
    pub fn smoke() -> Self {
        Self {
            smoke: true,
            rounds: Some(2),
            component_slice_s: 0.002,
            setup_repeat_s: 0.05,
            doc_tokens: 512,
            doc_suffix: 16,
            doc_output: 24,
            cold_prompt: 256,
            cold_output: 8,
            chat_template: 64,
            chat_unique: (16, 96),
            chat_output: (4, 8),
            probe_prompt: 256,
            probe_steps: 16,
            baseline_steps: 8,
        }
    }

    /// What the unit tests run: `cargo test` builds without optimisation,
    /// where even the smoke scale takes minutes.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Self {
            smoke: true,
            rounds: Some(1),
            component_slice_s: 0.0,
            setup_repeat_s: 0.0,
            doc_tokens: 48,
            doc_suffix: 4,
            doc_output: 3,
            cold_prompt: 24,
            cold_output: 2,
            chat_template: 8,
            chat_unique: (4, 12),
            chat_output: (2, 3),
            probe_prompt: 24,
            probe_steps: 4,
            baseline_steps: 2,
        }
    }
}

/// One request of the closed loop; ids are positions in the request list,
/// which is also the scheduler's submission order.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    pub prompt: Vec<usize>,
    pub max_new: usize,
}

#[derive(Debug, Clone)]
pub struct Inputs {
    /// The shared document served once during set-up (document workloads).
    pub doc: Option<Vec<usize>>,
    pub requests: Vec<Req>,
}

impl Workload {
    pub fn model(&self) -> ModelConfig {
        let mut cfg = ModelPreset::Llama31_8b.scaled_down();
        cfg.max_context = 16384;
        cfg
    }

    pub fn compression(&self) -> CompressionConfig {
        if self.tight {
            CompressionConfig::int4()
        } else {
            CompressionConfig::lossless()
        }
    }

    pub fn clusterkv(&self) -> ClusterKvConfig {
        // The policy decides when a plan recalls compressed pages and the
        // engine how they are rebuilt, so both take the same configuration.
        ClusterKvConfig::default().with_compression(self.compression())
    }

    /// Per-session cluster-cache capacity: `cache_quarter_steps / 4` decode
    /// steps of selections, each the budget plus one 80-token cluster of
    /// page-granularity slack.
    pub fn cache_capacity(&self) -> Bytes {
        let step = self.model().selected_kv_bytes_per_step(BUDGET_TOKENS + 80);
        Bytes(step * self.cache_quarter_steps / 4)
    }

    pub fn engine(&self) -> Result<ServeEngine, EngineError> {
        let capacity = self.cache_capacity();
        let mut builder = ServeEngine::builder(self.model())
            .synthetic_weights(WEIGHT_SEED)
            .budget(Budget::new(BUDGET_TOKENS))
            .policy(Box::new(ClusterKvFactory::new(self.clusterkv())))
            .kv_cache_capacity(capacity)
            .prefix_store(Bytes(PREFIX_STORE_BYTES))
            .compression(self.compression());
        if self.tight {
            builder = builder.prefetch(PrefetchConfig::lookahead(Bytes(capacity.get() / 2)));
        }
        builder.build()
    }

    pub fn sched_config(&self) -> SchedConfig {
        SchedConfig::fcfs(self.clients)
            .with_chunk_tokens(CHUNK_TOKENS)
            .with_tick_token_budget(CHUNK_TOKENS + self.clients)
    }

    /// Requests of one timed section of about `seconds` on the reference
    /// box: at least one full round of clients, a handful under `--smoke`.
    pub fn request_count(&self, scale: &Scale, seconds: f64) -> usize {
        if let Some(rounds) = scale.rounds {
            return self.clients * rounds;
        }
        ((self.requests_per_second * seconds).round() as usize).max(self.clients)
    }

    /// The inputs for `seed`: the same seed gives the same token ids. The
    /// engine never sees the seed, only these ids.
    pub fn inputs(&self, scale: &Scale, seed: u64, count: usize) -> Inputs {
        let vocab = self.model().vocab_size;
        let mut rng = SplitMix64::new(seed);
        match self.traffic {
            Traffic::DocQa => {
                let doc = rng.tokens(scale.doc_tokens, vocab);
                let requests = (0..count)
                    .map(|_| {
                        let mut prompt = doc.clone();
                        prompt.extend(rng.tokens(scale.doc_suffix, vocab));
                        Req {
                            prompt,
                            max_new: scale.doc_output,
                        }
                    })
                    .collect();
                Inputs {
                    doc: Some(doc),
                    requests,
                }
            }
            Traffic::ColdPrefill => Inputs {
                doc: None,
                requests: (0..count)
                    .map(|_| Req {
                        prompt: rng.tokens(scale.cold_prompt, vocab),
                        max_new: scale.cold_output,
                    })
                    .collect(),
            },
            Traffic::ChatMixed => {
                let templates: Vec<Vec<usize>> = (0..4)
                    .map(|_| rng.tokens(scale.chat_template, vocab))
                    .collect();
                // The seed orders the lengths and picks the tokens, but every
                // seed serves the same multiset of request shapes, so the
                // work of a run does not vary with the seed.
                let unique = shuffled_grid(&mut rng, scale.chat_unique, count);
                let output = shuffled_grid(&mut rng, scale.chat_output, count);
                let requests = (0..count)
                    .map(|i| {
                        let mut prompt = if i % 2 == 1 {
                            templates[(i / 2) % templates.len()].clone()
                        } else {
                            Vec::new()
                        };
                        prompt.extend(rng.tokens(unique[i], vocab));
                        Req {
                            prompt,
                            max_new: output[i],
                        }
                    })
                    .collect();
                Inputs {
                    doc: None,
                    requests,
                }
            }
        }
    }
}

/// `count` values evenly spaced over `lo..=hi`, in a seeded order.
fn shuffled_grid(rng: &mut SplitMix64, (lo, hi): (usize, usize), count: usize) -> Vec<usize> {
    let steps = count.saturating_sub(1).max(1);
    let mut values: Vec<usize> = (0..count)
        .map(|k| lo + (k * (hi - lo) + steps / 2) / steps)
        .collect();
    for i in (1..values.len()).rev() {
        values.swap(i, rng.range(0, i));
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        for w in &WORKLOADS {
            let scale = Scale::smoke();
            let a = w.inputs(&scale, 3, 6);
            let b = w.inputs(&scale, 3, 6);
            assert_eq!(a.requests, b.requests, "{}", w.name);
            assert_eq!(a.doc, b.doc);
            assert_ne!(a.requests, w.inputs(&scale, 4, 6).requests);
            assert_eq!(a.requests.len(), 6);
        }
    }

    #[test]
    fn every_seed_serves_the_same_request_shapes() {
        let scale = Scale::full();
        for w in &WORKLOADS {
            let shapes = |seed| {
                let mut s: Vec<(usize, usize)> = w
                    .inputs(&scale, seed, 40)
                    .requests
                    .iter()
                    .map(|r| (r.prompt.len(), r.max_new))
                    .collect();
                s.sort_unstable();
                s
            };
            let prompt_tokens = |seed| shapes(seed).iter().map(|s| s.0).sum::<usize>();
            let output_tokens = |seed| shapes(seed).iter().map(|s| s.1).sum::<usize>();
            // Chat pairs prompt and output lengths in a seeded order, so only
            // the totals are seed-free there; elsewhere the shapes are.
            assert_eq!(prompt_tokens(1), prompt_tokens(2), "{}", w.name);
            assert_eq!(output_tokens(1), output_tokens(2), "{}", w.name);
            if w.traffic != Traffic::ChatMixed {
                assert_eq!(shapes(1), shapes(2), "{}", w.name);
            }
        }
        let mut rng = SplitMix64::new(5);
        let mut grid = shuffled_grid(&mut rng, (64, 512), 8);
        assert_ne!(grid, [64, 128, 192, 256, 320, 384, 448, 512]);
        grid.sort_unstable();
        assert_eq!(grid, [64, 128, 192, 256, 320, 384, 448, 512]);
        assert_eq!(shuffled_grid(&mut rng, (3, 9), 1), [3]);
        assert!(shuffled_grid(&mut rng, (3, 9), 0).is_empty());
    }

    #[test]
    fn doc_requests_share_the_document_and_differ_in_the_suffix() {
        let w = workload("docqa_long_decode").unwrap();
        let scale = Scale::smoke();
        let inputs = w.inputs(&scale, 1, 3);
        let doc = inputs.doc.unwrap();
        assert_eq!(doc.len(), scale.doc_tokens);
        for r in &inputs.requests {
            assert_eq!(r.prompt[..doc.len()], doc[..]);
            assert_eq!(r.prompt.len(), doc.len() + scale.doc_suffix);
        }
        assert_ne!(inputs.requests[0].prompt, inputs.requests[1].prompt);
        let tight = workload("tight_cache_recall").unwrap();
        assert_eq!(tight.inputs(&scale, 1, 3).requests, inputs.requests);
    }

    #[test]
    fn chat_contexts_stay_under_the_selection_budget() {
        let w = workload("chat_mixed_batch").unwrap();
        let scale = Scale::full();
        let inputs = w.inputs(&scale, 9, 64);
        let templated = inputs
            .requests
            .iter()
            .filter(|r| r.prompt.len() > scale.chat_unique.1)
            .count();
        assert!(templated > 0);
        for r in &inputs.requests {
            assert!(r.prompt.len() + r.max_new < BUDGET_TOKENS);
            assert!(r.prompt.len() >= scale.chat_unique.0);
        }
    }

    #[test]
    fn request_count_follows_seconds_only() {
        let w = workload("chat_mixed_batch").unwrap();
        let full = Scale::full();
        assert_eq!(w.request_count(&full, 10.0), 170);
        assert_eq!(w.request_count(&full, 20.0), 340);
        assert_eq!(w.request_count(&full, 0.01), w.clients);
        assert_eq!(w.request_count(&Scale::smoke(), 60.0), 2 * w.clients);
    }

    #[test]
    fn engines_build_and_differ_where_the_workloads_say() {
        let docqa = workload("docqa_long_decode").unwrap();
        let tight = workload("tight_cache_recall").unwrap();
        assert_eq!(
            docqa.cache_capacity().get(),
            8 * tight.cache_capacity().get()
        );
        assert!(docqa.compression().is_lossless());
        assert!(!tight.compression().is_lossless());
        for w in &WORKLOADS {
            let engine = w.engine().unwrap();
            assert!(engine.has_prefix_store());
            assert_eq!(engine.prefetch_config().enabled(), w.tight);
            assert_eq!(engine.kv_cache_capacity(), w.cache_capacity());
            assert_eq!(w.sched_config().tick_token_budget, 512 + w.clients);
        }
    }
}
