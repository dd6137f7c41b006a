//! Model shape configuration and presets.
//!
//! Two distinct uses:
//!
//! 1. The *latency model* ([`crate::latency`]) needs the real shapes of the
//!    models used in the paper (GLM4-9B, Llama-3.1-8B, OPT-6.7B) to estimate
//!    memory traffic and FLOPs.
//! 2. The *executable simulator* ([`crate::serve`]) runs with scaled-down
//!    shapes ([`ModelConfig::tiny`], [`ModelPreset::scaled_down`]) so the
//!    accuracy-style experiments finish quickly on a CPU.

use serde::{Deserialize, Serialize};

/// Shape of a decoder-only transformer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Number of transformer layers.
    pub num_layers: usize,
    /// Number of query heads per layer.
    pub num_heads: usize,
    /// Number of key/value heads (GQA); equals `num_heads` for MHA.
    pub num_kv_heads: usize,
    /// Dimensionality of each head.
    pub head_dim: usize,
    /// FFN intermediate dimension.
    pub ffn_dim: usize,
    /// Vocabulary size (only used for embedding/cost accounting).
    pub vocab_size: usize,
    /// Maximum context window the model supports.
    pub max_context: usize,
    /// Number of initial layers that always use the full KV cache
    /// (the evaluation disables selection on the first two layers, matching
    /// Quest's setting; §V-A).
    pub dense_layers: usize,
}

impl ModelConfig {
    /// Hidden size (`num_heads * head_dim`).
    pub fn hidden_dim(&self) -> usize {
        self.num_heads * self.head_dim
    }

    /// KV bytes per token across all layers (fp16), used for memory/latency
    /// accounting: `2 (K and V) * 2 bytes * layers * kv_heads * head_dim`.
    pub fn kv_bytes_per_token(&self) -> u64 {
        (2 * 2 * self.num_layers * self.num_kv_heads * self.head_dim) as u64
    }

    /// Bytes of selected KV one decode step touches across every
    /// selective-layer query head (fp16 K+V), the natural unit for sizing a
    /// session's GPU cluster cache: a capacity of `N ×` this value holds
    /// roughly `N` steps' worth of selections (the LRU analogue of the
    /// paper's recency window `R = N`, §IV-D). Pass the selection budget
    /// plus one cluster/page of slack as `tokens_per_step` — recall is page
    /// granular and overshoots the budget by up to one trimmed page.
    pub fn selected_kv_bytes_per_step(&self, tokens_per_step: usize) -> u64 {
        let selective_heads = (self.num_layers - self.dense_layers) * self.num_heads;
        (selective_heads * tokens_per_step) as u64 * (4 * self.head_dim) as u64
    }

    /// Approximate parameter count (weights only, ignoring embeddings
    /// sharing), used for prefill FLOP estimation.
    pub fn approx_params(&self) -> u64 {
        let h = self.hidden_dim() as u64;
        let kv_h = (self.num_kv_heads * self.head_dim) as u64;
        let per_layer = h * h // q proj
            + 2 * h * kv_h    // k and v proj
            + h * h           // o proj
            + 3 * h * self.ffn_dim as u64; // gate/up/down
        per_layer * self.num_layers as u64 + 2 * h * self.vocab_size as u64
    }

    /// A deliberately tiny configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            num_layers: 2,
            num_heads: 2,
            num_kv_heads: 2,
            head_dim: 8,
            ffn_dim: 32,
            vocab_size: 128,
            max_context: 512,
            dense_layers: 0,
        }
    }

    /// Validate internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_layers == 0 {
            return Err("num_layers must be > 0".into());
        }
        if self.num_heads == 0 || self.num_kv_heads == 0 {
            return Err("head counts must be > 0".into());
        }
        if !self.num_heads.is_multiple_of(self.num_kv_heads) {
            return Err(format!(
                "num_heads ({}) must be a multiple of num_kv_heads ({})",
                self.num_heads, self.num_kv_heads
            ));
        }
        if self.head_dim == 0 || !self.head_dim.is_multiple_of(2) {
            return Err("head_dim must be a positive even number (for RoPE)".into());
        }
        if self.dense_layers > self.num_layers {
            return Err("dense_layers cannot exceed num_layers".into());
        }
        Ok(())
    }
}

/// The concrete models referenced in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelPreset {
    /// GLM4-9B-Chat (accuracy evaluation; 128k context window).
    Glm4_9b,
    /// Llama-3.1-8B (inference-performance evaluation vs Quest).
    Llama31_8b,
    /// Llama-3-8B (motivation study of Fig. 3).
    Llama3_8b,
    /// OPT-6.7B (InfiniGen/FlexGen comparison; 2k context window).
    Opt6_7b,
}

impl ModelPreset {
    /// Full-size configuration used by the latency model.
    pub fn config(self) -> ModelConfig {
        match self {
            ModelPreset::Glm4_9b => ModelConfig {
                num_layers: 40,
                num_heads: 32,
                num_kv_heads: 2,
                head_dim: 128,
                ffn_dim: 13696,
                vocab_size: 151552,
                max_context: 131072,
                dense_layers: 2,
            },
            ModelPreset::Llama31_8b => ModelConfig {
                num_layers: 32,
                num_heads: 32,
                num_kv_heads: 8,
                head_dim: 128,
                ffn_dim: 14336,
                vocab_size: 128256,
                max_context: 131072,
                dense_layers: 2,
            },
            ModelPreset::Llama3_8b => ModelConfig {
                num_layers: 32,
                num_heads: 32,
                num_kv_heads: 8,
                head_dim: 128,
                ffn_dim: 14336,
                vocab_size: 128256,
                max_context: 8192,
                dense_layers: 2,
            },
            ModelPreset::Opt6_7b => ModelConfig {
                num_layers: 32,
                num_heads: 32,
                num_kv_heads: 32,
                head_dim: 128,
                ffn_dim: 16384,
                vocab_size: 50272,
                max_context: 2048,
                dense_layers: 2,
            },
        }
    }

    /// Scaled-down but structurally faithful configuration for the
    /// executable simulator (same layer/head ratios, smaller dims).
    pub fn scaled_down(self) -> ModelConfig {
        let full = self.config();
        ModelConfig {
            num_layers: 4,
            num_heads: 4,
            num_kv_heads: (4 * full.num_kv_heads / full.num_heads).max(1),
            head_dim: 32,
            ffn_dim: 128,
            vocab_size: 1024,
            max_context: full.max_context,
            dense_layers: full.dense_layers.min(1),
        }
    }

    /// Human-readable name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            ModelPreset::Glm4_9b => "GLM4-9B-Chat",
            ModelPreset::Llama31_8b => "Llama-3.1-8B",
            ModelPreset::Llama3_8b => "Llama-3-8B",
            ModelPreset::Opt6_7b => "OPT-6.7B",
        }
    }
}

impl std::fmt::Display for ModelPreset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_config_is_valid() {
        assert!(ModelConfig::tiny().validate().is_ok());
    }

    #[test]
    fn all_presets_are_valid() {
        for p in [
            ModelPreset::Glm4_9b,
            ModelPreset::Llama31_8b,
            ModelPreset::Llama3_8b,
            ModelPreset::Opt6_7b,
        ] {
            assert!(p.config().validate().is_ok(), "{p} invalid");
            assert!(p.scaled_down().validate().is_ok(), "{p} scaled invalid");
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = ModelConfig::tiny();
        c.num_layers = 0;
        assert!(c.validate().is_err());

        let mut c = ModelConfig::tiny();
        c.head_dim = 7;
        assert!(c.validate().is_err());

        let mut c = ModelConfig::tiny();
        c.num_kv_heads = 3; // 2 % 3 != 0
        assert!(c.validate().is_err());

        let mut c = ModelConfig::tiny();
        c.dense_layers = 5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn llama31_kv_bytes_per_token_matches_hand_calculation() {
        // 2 tensors * 2 bytes * 32 layers * 8 kv heads * 128 dims = 131072.
        let c = ModelPreset::Llama31_8b.config();
        assert_eq!(c.kv_bytes_per_token(), 131072);
    }

    #[test]
    fn approx_params_is_in_the_right_ballpark() {
        // Llama-3.1-8B has ~8e9 parameters; the estimate should land within 2x.
        let p = ModelPreset::Llama31_8b.config().approx_params() as f64;
        assert!(p > 4e9 && p < 16e9, "params estimate {p}");
    }

    #[test]
    fn hidden_dim_is_heads_times_head_dim() {
        let c = ModelPreset::Glm4_9b.config();
        assert_eq!(c.hidden_dim(), 32 * 128);
    }

    #[test]
    fn scaled_down_preserves_gqa_ratio_direction() {
        let full = ModelPreset::Llama31_8b.config();
        let small = ModelPreset::Llama31_8b.scaled_down();
        assert!(small.num_kv_heads <= small.num_heads);
        assert_eq!(
            full.num_heads / full.num_kv_heads,
            small.num_heads / small.num_kv_heads
        );
    }
}
