//! Quest: query-aware page-granular KV selection (Tang et al., ICML 2024).
//!
//! Quest divides the token sequence into fixed-size *pages* of consecutive
//! tokens and keeps, for every page, the per-channel element-wise maximum and
//! minimum of its key vectors. At each decoding step the query is scored
//! against this metadata to obtain an *upper bound* of the attention weight
//! any token in the page could achieve; the top pages are selected until the
//! token budget is filled. Selection is recallable, but because pages are cut
//! purely by position a selected page may contain mostly unimportant tokens —
//! the internal-fragmentation problem ClusterKV addresses (Fig. 3b).
//!
//! In the tiered serving stack Quest pages KV at its own positional-page
//! granularity: plans carry one [`PageRequest`] per selected page, so a
//! session with a bounded GPU cluster cache recalls whole pages on a miss,
//! while a cache large enough for the full KV reproduces Quest's usual
//! all-GPU deployment (no PCIe traffic).

use clusterkv_model::policy::{
    HeadContext, KvResidency, ObserveEvent, PageRequest, PolicyStats, SelectionPlan,
    SelectionRequest, SelectorFactory, TokenSelector,
};
use clusterkv_tensor::vector::argsort_descending;
use serde::{Deserialize, Serialize};

/// Page size used by Quest (16 tokens in the original paper and in the
/// ClusterKV evaluation).
pub const DEFAULT_PAGE_SIZE: usize = 16;

/// Per-page metadata: element-wise max and min of the member keys.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PageMeta {
    start: usize,
    len: usize,
    max_key: Vec<f32>,
    min_key: Vec<f32>,
}

impl PageMeta {
    /// Upper bound of `q·k` over any key in the page: for each channel take
    /// the larger of `q_c · max_c` and `q_c · min_c` (handles negative query
    /// channels), then sum.
    fn score(&self, q: &[f32]) -> f32 {
        q.iter()
            .zip(self.max_key.iter().zip(&self.min_key))
            .map(|(&qc, (&mx, &mn))| (qc * mx).max(qc * mn))
            .sum()
    }
}

/// Quest selection state for one KV head: its page metadata depends on the
/// keys alone, so one instance serves every query head of the group.
#[derive(Debug, Clone)]
pub struct QuestSelector {
    page_size: usize,
    head_dim: usize,
    pages: Vec<PageMeta>,
    num_tokens: usize,
}

impl QuestSelector {
    /// Create a Quest selector with the given page size.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero.
    pub fn new(page_size: usize, head_dim: usize) -> Self {
        if let Err(msg) = validate_page_size(page_size) {
            panic!("{msg}");
        }
        Self {
            page_size,
            head_dim,
            pages: Vec::new(),
            num_tokens: 0,
        }
    }

    /// Number of pages currently tracked.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    fn add_key(&mut self, position: usize, key: &[f32]) {
        debug_assert_eq!(position, self.num_tokens, "keys must arrive in order");
        if self.num_tokens.is_multiple_of(self.page_size) {
            self.pages.push(PageMeta {
                start: position,
                len: 1,
                max_key: key.to_vec(),
                min_key: key.to_vec(),
            });
        } else {
            let page = self
                .pages
                .last_mut()
                .expect("page exists for non-boundary token");
            page.len += 1;
            for ((mx, mn), &k) in page
                .max_key
                .iter_mut()
                .zip(page.min_key.iter_mut())
                .zip(key)
            {
                if k > *mx {
                    *mx = k;
                }
                if k < *mn {
                    *mn = k;
                }
            }
        }
        self.num_tokens += 1;
    }
}

impl TokenSelector for QuestSelector {
    fn name(&self) -> &str {
        "Quest"
    }

    fn observe(&mut self, event: ObserveEvent<'_>) {
        match event {
            // Page metadata builds token by token, so prefill is naturally
            // incremental: each chunk extends the page min/max in place.
            ObserveEvent::PrefillChunk { keys, .. } => {
                assert_eq!(keys.cols(), self.head_dim, "key dim mismatch");
                for i in 0..keys.rows() {
                    self.add_key(self.num_tokens, keys.row(i));
                }
            }
            ObserveEvent::PrefillDone { total_tokens } => {
                debug_assert_eq!(
                    total_tokens, self.num_tokens,
                    "chunks must cover the prompt"
                );
            }
            ObserveEvent::Append { key, .. } => {
                assert_eq!(key.len(), self.head_dim, "key dim mismatch");
                self.add_key(self.num_tokens, key);
            }
        }
    }

    fn plan(&mut self, _head: usize, request: SelectionRequest<'_>) -> SelectionPlan {
        let n = request.num_tokens.min(self.num_tokens);
        if request.budget.covers(n) {
            return SelectionPlan::full(n);
        }
        let scores: Vec<f32> = self.pages.iter().map(|p| p.score(request.query)).collect();
        let scored = scores.len() as u64;
        let order = argsort_descending(&scores);

        let budget_tokens = request.budget.tokens();
        let mut selected = Vec::with_capacity(budget_tokens);
        let mut pages = Vec::new();
        for &page_idx in &order {
            if selected.len() >= budget_tokens {
                break;
            }
            let page = &self.pages[page_idx];
            let remaining = budget_tokens - selected.len();
            let take = page.len.min(remaining);
            selected.extend(page.start..page.start + take);
            // Recall at page granularity: the attended prefix of the page
            // must be materialised on the GPU.
            pages.push(PageRequest::new(page_idx, take));
        }
        selected.retain(|&t| t < n);
        SelectionPlan::new(selected)
            .with_stats(PolicyStats {
                scored_vectors: scored,
                ..PolicyStats::default()
            })
            .with_pages(pages)
    }

    fn page_table(&self) -> KvResidency {
        KvResidency::Paged(
            self.pages
                .iter()
                .enumerate()
                .map(|(i, p)| PageRequest::new(i, p.len))
                .collect(),
        )
    }
}

/// Quest's one configuration constraint: pages hold at least one token.
fn validate_page_size(page_size: usize) -> Result<(), String> {
    if page_size == 0 {
        return Err("Quest page_size must be > 0".into());
    }
    Ok(())
}

/// Factory for [`QuestSelector`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct QuestFactory {
    /// Page size in tokens.
    pub page_size: usize,
}

impl Default for QuestFactory {
    fn default() -> Self {
        Self {
            page_size: DEFAULT_PAGE_SIZE,
        }
    }
}

impl QuestFactory {
    /// Create a factory with a custom page size.
    pub fn new(page_size: usize) -> Self {
        Self { page_size }
    }
}

impl SelectorFactory for QuestFactory {
    fn name(&self) -> &str {
        "Quest"
    }

    fn create(&self, ctx: HeadContext) -> Box<dyn TokenSelector> {
        Box::new(QuestSelector::new(self.page_size, ctx.head_dim))
    }

    fn validate(&self) -> Result<(), String> {
        validate_page_size(self.page_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clusterkv_kvcache::types::Budget;
    use clusterkv_tensor::Matrix;

    use clusterkv_model::policy::observe_prompt as prefill;

    fn append(q: &mut QuestSelector, position: usize, key: &[f32]) {
        q.observe(ObserveEvent::Append { position, key });
    }

    fn keys_with_hot_token(n: usize, dim: usize, hot: usize) -> Matrix {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                let mut v = vec![0.01; dim];
                if i == hot {
                    v[0] = 10.0;
                }
                v
            })
            .collect();
        Matrix::from_rows(rows).unwrap()
    }

    #[test]
    fn pages_cover_all_tokens() {
        let mut q = QuestSelector::new(4, 8);
        prefill(&mut q, &keys_with_hot_token(10, 8, 0));
        assert_eq!(q.num_pages(), 3); // 4 + 4 + 2
        append(&mut q, 10, &[0.0; 8]);
        append(&mut q, 11, &[0.0; 8]);
        append(&mut q, 12, &[0.0; 8]);
        assert_eq!(q.num_pages(), 4); // the 3rd page filled, a 4th started
    }

    #[test]
    fn selects_the_page_containing_the_hot_token() {
        let mut q = QuestSelector::new(4, 8);
        // Hot token at position 9 => page 2 (tokens 8..12).
        prefill(&mut q, &keys_with_hot_token(20, 8, 9));
        let query = {
            let mut v = vec![0.0; 8];
            v[0] = 1.0;
            v
        };
        let out = q
            .plan(0, SelectionRequest::new(&query, 20, Budget::new(4)))
            .indices;
        assert_eq!(out.len(), 4);
        assert!(
            out.contains(&9),
            "hot token's page must be selected: {out:?}"
        );
        assert!(out.contains(&8) && out.contains(&10) && out.contains(&11));
    }

    #[test]
    fn page_upper_bound_handles_negative_query_channels() {
        let meta = PageMeta {
            start: 0,
            len: 2,
            max_key: vec![1.0, 5.0],
            min_key: vec![-3.0, 0.0],
        };
        // q = [-1, 1]: channel 0 bound = max(-1*1, -1*-3) = 3; channel 1 = 5.
        assert!((meta.score(&[-1.0, 1.0]) - 8.0).abs() < 1e-6);
    }

    #[test]
    fn internal_fragmentation_wastes_budget() {
        // Two important tokens in different pages: with budget 8 and page
        // size 16, Quest selects one full page (16 > 8 trimmed to 8) and the
        // second important token is missed — the Fig. 3b fragmentation.
        let dim = 8;
        let mut rows = vec![vec![0.01f32; dim]; 64];
        rows[3][0] = 10.0; // important token in page 0
        rows[40][0] = 9.0; // important token in page 2
        let mut q = QuestSelector::new(16, dim);
        prefill(&mut q, &Matrix::from_rows(rows).unwrap());
        let mut query = vec![0.0; dim];
        query[0] = 1.0;
        let out = q
            .plan(0, SelectionRequest::new(&query, 64, Budget::new(8)))
            .indices;
        assert_eq!(out.len(), 8);
        assert!(out.contains(&3));
        assert!(
            !out.contains(&40),
            "with page granularity the second hot token is sacrificed"
        );
    }

    #[test]
    fn budget_covering_context_returns_all() {
        let mut q = QuestSelector::new(4, 8);
        prefill(&mut q, &keys_with_hot_token(6, 8, 1));
        let plan = q.plan(0, SelectionRequest::new(&[1.0; 8], 6, Budget::new(16)));
        assert_eq!(plan.indices, (0..6).collect::<Vec<_>>());
        assert_eq!(
            plan.stats.scored_vectors, 0,
            "covered context scores nothing"
        );
    }

    #[test]
    fn plan_stats_count_scored_pages_per_call() {
        let mut q = QuestSelector::new(4, 8);
        prefill(&mut q, &keys_with_hot_token(32, 8, 0));
        let first = q.plan(0, SelectionRequest::new(&[1.0; 8], 32, Budget::new(4)));
        assert_eq!(first.stats.scored_vectors, 8); // 32 tokens / page 4
        let second = q.plan(0, SelectionRequest::new(&[1.0; 8], 32, Budget::new(4)));
        assert_eq!(
            second.stats.scored_vectors, 8,
            "stats are per call, not cumulative"
        );
    }

    #[test]
    fn plans_page_kv_at_page_granularity() {
        let mut q = QuestSelector::new(4, 8);
        prefill(&mut q, &keys_with_hot_token(20, 8, 9));
        let mut query = vec![0.0; 8];
        query[0] = 1.0;
        let plan = q.plan(0, SelectionRequest::new(&query, 20, Budget::new(6)));
        let KvResidency::Paged(pages) = &plan.residency else {
            panic!("Quest selections must be paged, got {:?}", plan.residency);
        };
        // Budget 6 with page size 4: one full page plus a trimmed one; the
        // page requests cover exactly the attended prefixes.
        assert_eq!(pages.iter().map(|p| p.tokens).sum::<usize>(), 6);
        assert!(pages.iter().all(|p| p.page < q.num_pages()));
        // The page table advertises every page at its full size.
        let KvResidency::Paged(table) = q.page_table() else {
            panic!("page table must be paged");
        };
        assert_eq!(table.len(), q.num_pages());
        assert_eq!(table.iter().map(|p| p.tokens).sum::<usize>(), 20);
    }

    #[test]
    fn factory_respects_page_size() {
        let f = QuestFactory::new(8);
        assert_eq!(f.name(), "Quest");
        let sel = f.create(HeadContext::mha(0, 0, 4));
        assert_eq!(sel.name(), "Quest");
        assert_eq!(QuestFactory::default().page_size, DEFAULT_PAGE_SIZE);
    }
}
