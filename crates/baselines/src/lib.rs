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
//! The experiment binaries enumerate the compared methods with
//! `clusterkv_bench::Method`.

#![warn(missing_docs)]

pub mod h2o;
pub mod infinigen;
pub mod quest;

pub use h2o::{H2oFactory, H2oSelector};
pub use infinigen::{InfiniGenFactory, InfiniGenSelector};
pub use quest::{QuestFactory, QuestSelector};
