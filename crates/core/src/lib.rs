//! # ClusterKV
//!
//! Reproduction of *ClusterKV: Manipulating LLM KV Cache in Semantic Space
//! for Recallable Compression* (DAC 2025).
//!
//! ClusterKV compresses the KV cache used during autoregressive decoding by
//! selecting, at every step, a budget `B` of tokens to attend to. Selection
//! is **recallable** (evicted tokens can come back at later steps) and
//! operates at the granularity of **semantic clusters**: groups of tokens
//! whose key vectors are close in cosine distance.
//!
//! The crate is organised to mirror the paper:
//!
//! * [`config`] — all algorithm parameters (`C0 = L/80`, sink tokens,
//!   incremental clustering period `m`, recency window `R`, distance
//!   metric) with the paper's defaults.
//! * [`distance`] — the semantic distance (§III-B): cosine, plus L2 and
//!   inner-product alternatives used in the Fig. 11b ablation.
//! * [`kmeans`] — k-means over key vectors under a configurable distance.
//! * [`clustering`] — [`SemanticClustering`]: attention-sink handling,
//!   prefill clustering and incremental decode clustering (§III-B).
//! * [`metadata`] — cluster sizes, prefix sums and label-sorted token
//!   indices (the Fig. 8 metadata).
//! * [`selection`] — greedy cluster selection under a token budget with
//!   trimming of the last cluster (§III-C, §IV-C).
//! * [`policy`] — [`ClusterKvSelector`], the
//!   [`TokenSelector`](clusterkv_model::TokenSelector) implementation that
//!   plugs into the inference engine, and its factory.
//!
//! The cluster-granularity GPU cache of §IV-D lives in `clusterkv-kvcache`
//! as the session-level tiered hierarchy ([`ClusterCache`], re-exported
//! here): plans produced by [`ClusterKvSelector`] carry their cluster page
//! decomposition, and the serving engine resolves residency against a
//! capacity-bounded GPU resident set (DESIGN.md §3).
//!
//! # Quickstart
//!
//! Build a [`ServeEngine`](clusterkv_model::ServeEngine) with ClusterKV as
//! the selection policy, then serve any number of concurrent sessions:
//!
//! ```
//! use clusterkv::{ClusterKvConfig, ClusterKvFactory};
//! use clusterkv_kvcache::types::Budget;
//! use clusterkv_model::{ModelConfig, ServeEngine};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let factory = ClusterKvFactory::new(ClusterKvConfig::default());
//! let mut engine = ServeEngine::builder(ModelConfig::tiny())
//!     .synthetic_weights(42)
//!     .budget(Budget::new(64))
//!     .policy(Box::new(factory))
//!     .build()?;
//! let a = engine.create_session()?;
//! let b = engine.create_session()?;
//! engine.prefill(a, &[1, 2, 3, 4, 5, 6, 7, 8])?;
//! engine.prefill(b, &[8, 7, 6, 5, 4, 3, 2, 1])?;
//! for _ in 0..4 {
//!     let outputs = engine.decode_batch(&[a, b])?;
//!     assert_eq!(outputs.len(), 2);
//! }
//! assert_eq!(engine.release(a)?.generated_tokens, 4);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod clustering;
pub mod config;
pub mod distance;
pub mod kmeans;
pub mod metadata;
pub mod policy;
pub mod selection;

pub use clustering::{PrefillClusters, SemanticClustering};
pub use clusterkv_kvcache::cluster_cache::{ClusterCache, ClusterCacheConfig, PageRequest};
pub use config::ClusterKvConfig;
pub use distance::DistanceMetric;
pub use kmeans::{assign_labels, assign_labels_reference, KMeans};
pub use metadata::ClusterMetadata;
pub use policy::{ClusterIndex, ClusterKvFactory, ClusterKvSelector};
pub use selection::{
    fill_selection_ws, lookahead_clusters_ws, select_clusters, select_clusters_ws, SelectionFill,
    SelectionResult,
};
