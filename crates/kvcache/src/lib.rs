//! KV-cache substrate for the ClusterKV reproduction.
//!
//! The paper's system (Fig. 5) keeps the full K/V tensors in CPU memory,
//! keeps centroids/metadata and a small cache of selected KV on the GPU and
//! moves data between the two over PCIe. This crate provides that substrate
//! in simulation:
//!
//! * [`types`] — strongly-typed identifiers ([`TokenId`], [`Budget`], …)
//!   shared across the workspace.
//! * [`store`] — the per-layer, per-head [`KvStore`] holding key/value
//!   vectors for all previous tokens ("CPU memory" in the paper).
//! * [`device`] — an analytical [`DeviceModel`] (bandwidths + overheads)
//!   used to estimate prefill/decoding latency and host-to-device transfer
//!   cost; this is the substitute for the paper's NVIDIA Ada 6000 testbed.
//! * [`tier`] — a two-tier memory simulator (GPU HBM + CPU DRAM) counting
//!   charged bytes against capacity.
//! * [`cluster_cache`] — [`ClusterCache`], the session-level tiered KV
//!   hierarchy: a capacity-bounded GPU resident set of KV pages with
//!   deterministic LRU demotion (Resident → Compressed → Paged) over a CPU
//!   backing store (DESIGN.md §3, §9).
//! * [`compressed`] — the compressed KV tier: SLERP cluster merging with
//!   outlier retention masks plus int8/int4 cold pages with per-cluster
//!   scales (DESIGN.md §9).
//! * [`prefix`] — the workspace-global [`PrefixStore`]: a radix tree of
//!   refcounted, immutable shared KV prefix pages (plus cached selector
//!   state) enabling cross-session prefix reuse (DESIGN.md §8).
//! * [`stats`] — transfer / cache-hit counters used by the experiments.

#![warn(missing_docs)]

pub mod cluster_cache;
pub mod compressed;
pub mod device;
pub mod prefix;
pub mod stats;
pub mod store;
pub mod tier;
pub mod types;

pub use cluster_cache::{ClusterCache, ClusterCacheConfig, PageKey, PageRequest, StepOutcome};
pub use compressed::{
    compress_page, CompressedPage, CompressedStore, CompressionConfig, QuantMode,
};
pub use device::DeviceModel;
pub use prefix::{
    MatchSegment, PrefixStore, PrefixStoreConfig, PrefixStoreStats, SharedKvPage, SharedPrefixState,
};
pub use stats::{CacheStats, CompressionStats, PrefetchStats, TransferStats};
pub use store::KvStore;
pub use tier::{MemoryTier, TierKind};
pub use types::{Budget, HeadId, LayerId, TokenId};
