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
//!   baseline implement (request/plan shaped: [`SelectionRequest`] →
//!   [`SelectionPlan`] carrying indices, stats and its
//!   [`KvResidency`] paging), plus [`FullAttentionSelector`].
//! * [`attention`] — multi-head attention over a selected subset of the KV
//!   cache.
//! * [`serve`] — the serving engine: weights loaded once, N independent
//!   sessions, batched decode ([`ServeEngine`]).
//! * [`engine`] — [`InferenceEngine`], the single-session adapter over the
//!   serving engine.
//! * [`trace`] — recording of per-step attention weights (token-importance
//!   traces behind Fig. 3a / Fig. 11).
//! * [`latency`] — the analytical latency/throughput model behind Fig. 12 and
//!   Fig. 13.
//! * [`prefetch`] — speculative cluster prefetch configuration: predictor
//!   choice, staging capacity and the overlap clock switch (DESIGN.md §10).

#![warn(missing_docs)]

pub mod attention;
pub mod config;
pub mod engine;
pub mod latency;
pub mod policy;
pub mod prefetch;
pub mod rope;
pub mod serve;
pub mod trace;
pub mod weights;

pub use config::{ModelConfig, ModelPreset};
pub use engine::InferenceEngine;
pub use latency::{DecodeStepBreakdown, InferenceBreakdown, LatencyModel};
pub use policy::{
    FullAttentionSelector, GroupIndex, KvResidency, ObserveEvent, PageRequest, PolicyStats,
    SelectionPlan, SelectionRequest, SelectorFactory, SelectorGroup, TokenSelector,
};
pub use prefetch::{PrefetchConfig, PrefetchPredictor};
pub use serve::{
    DecodeOutput, EngineError, ServeEngine, ServeEngineBuilder, SessionId, SessionReport,
};
