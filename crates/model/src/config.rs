//! Transformer model configurations matching Table 1 of the paper.
//!
//! The paper evaluates a decoder-only GPT family (scaled per the GPT-3 paper)
//! and an encoder-decoder T5 family (T5-11B scaled in depth). For T5,
//! "`num_layers`" counts layers present in *each* of the encoder and the
//! decoder, mirroring the paper's convention.

use serde::{Deserialize, Serialize};

/// Transformer architecture family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelArch {
    /// Decoder-only causal language model (GPT). Samples have a single
    /// sequence length (prompt and target concatenated).
    Gpt,
    /// Encoder-decoder model (T5). Samples have an (input, target) length
    /// pair; the encoder consumes the input, the decoder the target.
    T5,
}

impl ModelArch {
    /// Human-readable name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            ModelArch::Gpt => "GPT",
            ModelArch::T5 => "T5",
        }
    }
}

/// A transformer model configuration (one row of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Architecture family.
    pub arch: ModelArch,
    /// Number of transformer layers. For [`ModelArch::T5`] this is the layer
    /// count in *each* of the encoder and decoder (Table 1 convention).
    pub num_layers: usize,
    /// Model (embedding) dimension, `d_model`.
    pub hidden_dim: usize,
    /// Number of attention heads.
    pub num_heads: usize,
    /// Dimension of each key/value head (`d_kv`). The inner attention
    /// dimension is `num_heads * kv_channels`, which for T5-11B (128 heads of
    /// 128 channels over a 1024 model dim) is much larger than `hidden_dim`.
    pub kv_channels: usize,
    /// Feed-forward (MLP) inner dimension, `d_ff`.
    pub ffn_dim: usize,
    /// Vocabulary size (tokens in the embedding table).
    pub vocab_size: usize,
}

impl ModelConfig {
    /// Inner attention projection dimension, `num_heads * kv_channels`.
    pub fn attn_dim(&self) -> usize {
        self.num_heads * self.kv_channels
    }

    /// Total number of transformer layers across the whole model: encoder
    /// plus decoder layers for T5, decoder layers for GPT.
    pub fn total_layers(&self) -> usize {
        match self.arch {
            ModelArch::Gpt => self.num_layers,
            ModelArch::T5 => 2 * self.num_layers,
        }
    }

    /// Parameters of one self-attention block (QKV + output projections).
    fn attn_params(&self) -> u64 {
        let h = self.hidden_dim as u64;
        let a = self.attn_dim() as u64;
        // Q, K, V: h -> attn_dim each; output: attn_dim -> h.
        4 * h * a
    }

    /// Parameters of one MLP block (two projections, no bias to first order).
    fn mlp_params(&self) -> u64 {
        2 * (self.hidden_dim as u64) * (self.ffn_dim as u64)
    }

    /// Parameters of a single encoder layer (self-attention + MLP + norms).
    pub fn encoder_layer_params(&self) -> u64 {
        self.attn_params() + self.mlp_params() + 2 * self.hidden_dim as u64
    }

    /// Parameters of a single decoder layer. T5 decoder layers carry an
    /// additional cross-attention block; GPT layers do not.
    pub fn decoder_layer_params(&self) -> u64 {
        let cross = match self.arch {
            ModelArch::Gpt => 0,
            ModelArch::T5 => self.attn_params() + self.hidden_dim as u64,
        };
        self.attn_params() + self.mlp_params() + cross + 2 * self.hidden_dim as u64
    }

    /// Embedding-table parameters (shared between input and output heads).
    pub fn embedding_params(&self) -> u64 {
        (self.vocab_size as u64) * (self.hidden_dim as u64)
    }

    /// Total parameter count of the model.
    pub fn total_params(&self) -> u64 {
        let body = match self.arch {
            ModelArch::Gpt => self.num_layers as u64 * self.decoder_layer_params(),
            ModelArch::T5 => {
                self.num_layers as u64 * (self.encoder_layer_params() + self.decoder_layer_params())
            }
        };
        body + self.embedding_params()
    }

    /// Total parameters in billions (for display; Table 1 reports billions).
    pub fn total_params_b(&self) -> f64 {
        self.total_params() as f64 / 1e9
    }

    // ----- Table 1 presets -------------------------------------------------

    /// GPT 3.35B (4-GPU configuration in Table 1).
    pub fn gpt_3_35b() -> Self {
        Self::gpt(16, 4096, 32, 128, 16384)
    }

    /// GPT 6.7B (8-GPU configuration in Table 1).
    pub fn gpt_6_7b() -> Self {
        Self::gpt(32, 4096, 32, 128, 16384)
    }

    /// GPT 13B (16-GPU configuration in Table 1).
    pub fn gpt_13b() -> Self {
        Self::gpt(40, 5140, 40, 128, 20560)
    }

    /// GPT 29B (32-GPU configuration in Table 1).
    pub fn gpt_29b() -> Self {
        Self::gpt(16, 12288, 96, 128, 49152)
    }

    /// T5 5.5B (4-GPU configuration in Table 1).
    pub fn t5_5_5b() -> Self {
        Self::t5(12)
    }

    /// T5 11B (8-GPU configuration in Table 1).
    pub fn t5_11b() -> Self {
        Self::t5(24)
    }

    /// T5 22B (16-GPU configuration in Table 1).
    pub fn t5_22b() -> Self {
        Self::t5(48)
    }

    /// T5 44B (32-GPU configuration in Table 1).
    pub fn t5_44b() -> Self {
        Self::t5(96)
    }

    /// The Table 1 GPT model matched to a cluster size (4, 8, 16 or 32 GPUs).
    pub fn gpt_for_gpus(num_gpus: usize) -> Option<Self> {
        match num_gpus {
            4 => Some(Self::gpt_3_35b()),
            8 => Some(Self::gpt_6_7b()),
            16 => Some(Self::gpt_13b()),
            32 => Some(Self::gpt_29b()),
            _ => None,
        }
    }

    /// The Table 1 T5 model matched to a cluster size (4, 8, 16 or 32 GPUs).
    pub fn t5_for_gpus(num_gpus: usize) -> Option<Self> {
        match num_gpus {
            4 => Some(Self::t5_5_5b()),
            8 => Some(Self::t5_11b()),
            16 => Some(Self::t5_22b()),
            32 => Some(Self::t5_44b()),
            _ => None,
        }
    }

    fn gpt(
        num_layers: usize,
        hidden_dim: usize,
        num_heads: usize,
        kv_channels: usize,
        ffn_dim: usize,
    ) -> Self {
        ModelConfig {
            arch: ModelArch::Gpt,
            num_layers,
            hidden_dim,
            num_heads,
            kv_channels,
            ffn_dim,
            vocab_size: 51200,
        }
    }

    fn t5(num_layers: usize) -> Self {
        // T5 family: model dim 1024, 128 heads x 128 kv channels, d_ff 65536
        // (Table 1); depth scales the model.
        ModelConfig {
            arch: ModelArch::T5,
            num_layers,
            hidden_dim: 1024,
            num_heads: 128,
            kv_channels: 128,
            ffn_dim: 65536,
            vocab_size: 32128,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpt_param_counts_match_table1() {
        // Table 1 reports 3.35, 6.7, 13 and 29 (billions). The analytic count
        // ignores biases/positional embeddings so allow ~10% slack.
        let cases = [
            (ModelConfig::gpt_3_35b(), 3.35),
            (ModelConfig::gpt_6_7b(), 6.7),
            (ModelConfig::gpt_13b(), 13.0),
            (ModelConfig::gpt_29b(), 29.0),
        ];
        for (cfg, expect_b) in cases {
            let got = cfg.total_params_b();
            let rel = (got - expect_b).abs() / expect_b;
            assert!(
                rel < 0.12,
                "GPT params {got:.2}B vs Table 1 {expect_b}B (rel err {rel:.3})"
            );
        }
    }

    #[test]
    fn t5_param_counts_match_table1() {
        let cases = [
            (ModelConfig::t5_5_5b(), 5.5),
            (ModelConfig::t5_11b(), 11.0),
            (ModelConfig::t5_22b(), 22.0),
            (ModelConfig::t5_44b(), 44.0),
        ];
        for (cfg, expect_b) in cases {
            let got = cfg.total_params_b();
            let rel = (got - expect_b).abs() / expect_b;
            assert!(
                rel < 0.12,
                "T5 params {got:.2}B vs Table 1 {expect_b}B (rel err {rel:.3})"
            );
        }
    }

    #[test]
    fn t5_attention_dim_exceeds_hidden_dim() {
        // T5-11B's peculiarity: 128 heads x 128 channels = 16384 inner dim on
        // a 1024 model dim. The formulas must not assume attn_dim == hidden.
        let cfg = ModelConfig::t5_11b();
        assert_eq!(cfg.attn_dim(), 16384);
        assert!(cfg.attn_dim() > cfg.hidden_dim);
    }

    #[test]
    fn total_layers_doubles_for_t5() {
        assert_eq!(ModelConfig::gpt_6_7b().total_layers(), 32);
        assert_eq!(ModelConfig::t5_11b().total_layers(), 48);
    }

    #[test]
    fn decoder_layers_heavier_for_t5_only() {
        let t5 = ModelConfig::t5_11b();
        assert!(t5.decoder_layer_params() > t5.encoder_layer_params());
        let gpt = ModelConfig::gpt_6_7b();
        assert_eq!(gpt.decoder_layer_params(), gpt.encoder_layer_params());
    }

    #[test]
    fn presets_by_cluster_size() {
        assert_eq!(ModelConfig::gpt_for_gpus(8).unwrap().num_layers, 32);
        assert_eq!(ModelConfig::t5_for_gpus(32).unwrap().num_layers, 96);
        assert!(ModelConfig::gpt_for_gpus(6).is_none());
    }
}
