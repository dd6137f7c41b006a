//! Workspace facade for the ClusterKV reproduction.
//!
//! This crate exists to own the cross-crate integration tests (`tests/`) and
//! the runnable examples (`examples/`); it also re-exports the entry points a
//! downstream user would reach for first. See the individual crates for the
//! actual implementation:
//!
//! * `clusterkv` — the ClusterKV algorithm (clustering, selection, policy).
//! * [`clusterkv_model`] — the serving engine ([`ServeEngine`]) and the
//!   selection-plan policy interface.
//! * [`clusterkv_kvcache`] — the KV substrate, including the tiered
//!   [`ClusterCache`] memory hierarchy (DESIGN.md §3).
//! * [`clusterkv_baselines`] — Quest, InfiniGen, H2O, StreamingLLM.
//! * [`clusterkv_workloads`] / [`clusterkv_bench`] — synthetic workloads and
//!   the figure-reproduction harness.

#![warn(missing_docs)]

pub use clusterkv::{ClusterKvConfig, ClusterKvFactory, ClusterKvSelector};
pub use clusterkv_kvcache::{ClusterCache, ClusterCacheConfig, PageRequest};
pub use clusterkv_model::{
    DecodeOutput, EngineError, KvResidency, ModelConfig, ModelPreset, ServeEngine,
    ServeEngineBuilder, SessionId, SessionReport,
};
