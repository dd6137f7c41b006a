//! Baseline KV-cache compression policies the paper compares against.
//!
//! Each baseline implements the same [`TokenSelector`](clusterkv_model::TokenSelector)
//! interface as ClusterKV so experiments can swap methods with a single
//! factory argument:
//!
//! * [`quest`] — Quest (ICML'24): recallable selection at the granularity of
//!   fixed-size *pages* of consecutive tokens, scored with per-channel
//!   min/max key metadata.
//! * [`infinigen`] — InfiniGen (OSDI'24): recallable per-token selection
//!   using low-rank (SVD-derived) partial queries and keys.
//! * [`h2o`] — H2O (NeurIPS'23): non-recallable eviction keeping "heavy
//!   hitter" tokens with the largest accumulated attention weights.
//!
//! The [`BaselineKind`] enum provides a uniform way for the benchmark
//! harness to enumerate methods.

#![warn(missing_docs)]

pub mod h2o;
pub mod infinigen;
pub mod quest;

pub use h2o::{H2oFactory, H2oSelector};
pub use infinigen::{InfiniGenFactory, InfiniGenSelector};
pub use quest::{QuestFactory, QuestSelector};

use clusterkv_model::policy::SelectorFactory;
use serde::{Deserialize, Serialize};

/// The comparison methods of the paper's evaluation, including the trivial
/// full-KV configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BaselineKind {
    /// Exact attention over the full KV cache (upper bound).
    FullKv,
    /// Quest page-granular selection.
    Quest,
    /// InfiniGen partial-weight per-token selection.
    InfiniGen,
    /// H2O heavy-hitter eviction (non-recallable).
    H2o,
}

impl BaselineKind {
    /// All baselines, in the order used in experiment tables.
    pub fn all() -> [BaselineKind; 4] {
        [
            BaselineKind::Quest,
            BaselineKind::InfiniGen,
            BaselineKind::H2o,
            BaselineKind::FullKv,
        ]
    }

    /// Build the selector factory for this baseline with its default
    /// configuration.
    pub fn factory(self) -> Box<dyn SelectorFactory> {
        match self {
            BaselineKind::FullKv => Box::new(clusterkv_model::policy::FullAttentionFactory),
            BaselineKind::Quest => Box::new(QuestFactory::default()),
            BaselineKind::InfiniGen => Box::new(InfiniGenFactory::default()),
            BaselineKind::H2o => Box::new(H2oFactory::default()),
        }
    }

    /// Method name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            BaselineKind::FullKv => "Full KV",
            BaselineKind::Quest => "Quest",
            BaselineKind::InfiniGen => "InfiniGen",
            BaselineKind::H2o => "H2O",
        }
    }
}

impl std::fmt::Display for BaselineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clusterkv_kvcache::types::Budget;
    use clusterkv_model::policy::{observe_prompt, HeadContext, ObserveEvent, SelectionRequest};
    use clusterkv_tensor::rng::{gaussian_vec, seeded};
    use clusterkv_tensor::Matrix;

    #[test]
    fn every_baseline_produces_a_working_selector() {
        let ctx = HeadContext::mha(2, 1, 16);
        let mut rng = seeded(1);
        let keys = Matrix::from_rows(
            (0..64)
                .map(|_| gaussian_vec(&mut rng, 16, 0.0, 1.0))
                .collect(),
        )
        .unwrap();
        let q = gaussian_vec(&mut rng, 16, 0.0, 1.0);
        for kind in BaselineKind::all() {
            let factory = kind.factory();
            let mut sel = factory.create(ctx);
            observe_prompt(sel.as_mut(), &keys);
            let key = gaussian_vec(&mut rng, 16, 0.0, 1.0);
            sel.observe(ObserveEvent::Append {
                position: 64,
                key: &key,
            });
            let plan = sel.plan(0, SelectionRequest::new(&q, 65, Budget::new(16)));
            let out = &plan.indices;
            assert!(!out.is_empty(), "{kind} selected nothing");
            assert!(out.iter().all(|&t| t < 65), "{kind} selected out of range");
            if kind != BaselineKind::FullKv {
                assert!(out.len() <= 16, "{kind} exceeded the budget: {}", out.len());
            }
            assert!(!kind.name().is_empty());
        }
    }

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(BaselineKind::Quest.to_string(), "Quest");
        assert_eq!(BaselineKind::FullKv.to_string(), "Full KV");
        assert_eq!(BaselineKind::all().len(), 4);
    }
}
