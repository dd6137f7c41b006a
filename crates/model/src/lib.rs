//! Tiny transformer inference engine for the ClusterKV reproduction.
//!
//! The paper hooks its KV-cache selection into GLM4-9B / Llama-3.1-8B /
//! OPT-6.7B running under PyTorch. This crate provides the equivalent
//! substrate in pure Rust:
//!
//! * [`config`] — model shape descriptions and presets matching the models
//!   used in the paper (used both to size the synthetic simulator and to
//!   drive the analytical latency model).
//! * [`rope`] — rotary position embeddings applied to queries and keys.
//! * [`weights`] — deterministic synthetic weight generation.
//! * [`policy`] — the [`TokenSelector`] trait that ClusterKV and every
//!   baseline implement, one instance per `(layer, kv_head)` planning for
//!   each query head of its group (request/plan shaped:
//!   [`SelectionRequest`] → [`SelectionPlan`] carrying indices, stats and
//!   its [`KvResidency`] paging), plus [`FullAttentionSelector`].
//! * [`attention`] — multi-head attention over a selected subset of the KV
//!   cache.
//! * [`serve`] — the serving engine: weights loaded once, N independent
//!   sessions, batched decode ([`ServeEngine`]).
//! * `residency` (crate-private) — per-session residency: the tiered
//!   cluster cache, the per-step byte ledger it fills and the modeled clock
//!   that ledger feeds.
//! * [`latency`] — the analytical latency/throughput model behind Fig. 12 and
//!   Fig. 13, pricing a step's [`latency::Transfers`] in exact bytes.
//! * [`prefetch`] — speculative cluster prefetch configuration: predictor
//!   choice, staging capacity and the overlap clock switch (DESIGN.md §10).

#![warn(missing_docs)]

pub mod attention;
pub mod config;
pub mod latency;
pub mod policy;
pub mod prefetch;
mod residency;
pub mod rope;
pub mod serve;
pub mod weights;

pub use config::{ModelConfig, ModelPreset};
pub use latency::{DecodeStepBreakdown, InferenceBreakdown, LatencyModel};
pub use policy::{
    FullAttentionSelector, KvResidency, ObserveEvent, PageRequest, PolicyStats, SelectionPlan,
    SelectionRequest, SelectorFactory, TokenSelector,
};
pub use prefetch::PrefetchConfig;
pub use serve::{
    DecodeOutput, EngineError, ServeEngine, ServeEngineBuilder, SessionId, SessionReport,
};
