//! StreamingLLM: attention sinks plus a sliding window (Xiao et al.,
//! ICLR 2024).
//!
//! StreamingLLM keeps the first few tokens (attention sinks) and the most
//! recent tokens, dropping everything in between. It is the simplest
//! fixed-pattern, non-recallable compression scheme (the "fixed patterns"
//! reference \[9\] of the paper) and serves as a lower bound for selection
//! quality in the recall experiments.
//!
//! In the tiered serving stack StreamingLLM is **cache-trivially resident**
//! ([`KvResidency::Resident`](clusterkv_model::policy::KvResidency)): its
//! working set only ever gains the token just produced on the GPU and drops
//! tokens permanently, so nothing is ever recalled over PCIe and its plans
//! carry no page requests.

use clusterkv_model::policy::{
    HeadContext, ObserveEvent, SelectionPlan, SelectionRequest, SelectorFactory, TokenSelector,
};
use serde::{Deserialize, Serialize};

/// Number of attention-sink tokens retained by default (matches the 16 sink
/// tokens ClusterKV also retains).
pub const DEFAULT_SINK_TOKENS: usize = 16;

/// StreamingLLM selection state for one attention head.
#[derive(Debug, Clone)]
pub struct StreamingSelector {
    sink_tokens: usize,
    num_tokens: usize,
}

impl StreamingSelector {
    /// Create a selector retaining `sink_tokens` initial tokens.
    pub fn new(sink_tokens: usize) -> Self {
        Self {
            sink_tokens,
            num_tokens: 0,
        }
    }
}

impl TokenSelector for StreamingSelector {
    fn name(&self) -> &str {
        "StreamingLLM"
    }

    fn observe(&mut self, event: ObserveEvent<'_>) {
        match event {
            ObserveEvent::PrefillChunk { start, keys } => {
                self.num_tokens = self.num_tokens.max(start + keys.rows());
            }
            ObserveEvent::PrefillDone { total_tokens } => {
                debug_assert_eq!(
                    total_tokens, self.num_tokens,
                    "chunks must cover the prompt"
                );
            }
            ObserveEvent::Append { position, .. } => {
                self.num_tokens = self.num_tokens.max(position + 1);
            }
        }
    }

    fn plan(&mut self, request: SelectionRequest<'_>) -> SelectionPlan {
        let n = request
            .num_tokens
            .min(self.num_tokens.max(request.num_tokens));
        if request.budget.covers(n) {
            return SelectionPlan::full(n);
        }
        let budget_tokens = request.budget.tokens();
        let sinks = self.sink_tokens.min(budget_tokens).min(n);
        let window = budget_tokens - sinks;
        let mut selected: Vec<usize> = (0..sinks).collect();
        let window_start = n.saturating_sub(window).max(sinks);
        selected.extend(window_start..n);
        SelectionPlan::new(selected)
    }
}

/// Factory for [`StreamingSelector`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StreamingFactory {
    /// Number of attention-sink tokens to retain.
    pub sink_tokens: usize,
}

impl Default for StreamingFactory {
    fn default() -> Self {
        Self {
            sink_tokens: DEFAULT_SINK_TOKENS,
        }
    }
}

impl StreamingFactory {
    /// Create a factory with a custom sink count.
    pub fn new(sink_tokens: usize) -> Self {
        Self { sink_tokens }
    }
}

impl SelectorFactory for StreamingFactory {
    fn name(&self) -> &str {
        "StreamingLLM"
    }

    fn create(&self, _ctx: HeadContext) -> Box<dyn TokenSelector> {
        Box::new(StreamingSelector::new(self.sink_tokens))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clusterkv_kvcache::types::Budget;
    use clusterkv_tensor::Matrix;

    use clusterkv_model::policy::observe_prompt as prefill;

    fn select(s: &mut StreamingSelector, n: usize, budget: usize) -> Vec<usize> {
        s.plan(SelectionRequest::new(&[0.0; 8], n, Budget::new(budget)))
            .indices
    }

    #[test]
    fn selects_sinks_and_recent_window() {
        let mut s = StreamingSelector::new(4);
        prefill(&mut s, &Matrix::zeros(100, 8));
        let out = select(&mut s, 100, 12);
        assert_eq!(out.len(), 12);
        assert_eq!(&out[..4], &[0, 1, 2, 3]);
        assert_eq!(&out[4..], &(92..100).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn short_context_selects_everything() {
        let mut s = StreamingSelector::new(4);
        prefill(&mut s, &Matrix::zeros(6, 8));
        assert_eq!(select(&mut s, 6, 16), (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn no_duplicate_indices_when_window_meets_sinks() {
        let mut s = StreamingSelector::new(8);
        prefill(&mut s, &Matrix::zeros(10, 4));
        let out = select(&mut s, 10, 9);
        let set: std::collections::HashSet<_> = out.iter().collect();
        assert_eq!(set.len(), out.len());
        assert!(out.len() <= 9);
    }

    #[test]
    fn middle_tokens_are_never_selected() {
        let mut s = StreamingSelector::new(4);
        prefill(&mut s, &Matrix::zeros(1000, 4));
        s.observe(ObserveEvent::Append {
            position: 1000,
            key: &[0.0; 4],
        });
        let out = select(&mut s, 1001, 20);
        assert!(out.iter().all(|&t| !(4..985).contains(&t)));
    }

    #[test]
    fn budget_smaller_than_sinks_is_clamped() {
        let mut s = StreamingSelector::new(16);
        prefill(&mut s, &Matrix::zeros(100, 4));
        let out = select(&mut s, 100, 8);
        assert_eq!(out.len(), 8);
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn plans_are_trivially_resident() {
        use clusterkv_model::policy::KvResidency;
        let mut s = StreamingSelector::new(4);
        prefill(&mut s, &Matrix::zeros(100, 8));
        let plan = s.plan(SelectionRequest::new(&[0.0; 8], 100, Budget::new(12)));
        assert_eq!(plan.residency, KvResidency::Resident);
        assert_eq!(s.page_table(), KvResidency::Resident);
        assert_eq!(plan.stats.transfer.transfers, 0);
    }

    #[test]
    fn factory_creates_named_selector() {
        let f = StreamingFactory::default();
        assert_eq!(f.sink_tokens, DEFAULT_SINK_TOKENS);
        let sel = f.create(HeadContext::mha(0, 0, 4));
        assert_eq!(sel.name(), "StreamingLLM");
        assert_eq!(StreamingFactory::new(2).sink_tokens, 2);
    }
}
