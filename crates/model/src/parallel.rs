//! 3D-parallelism configurations and pipeline stage layout.
//!
//! The paper grid-searches power-of-two combinations of data (DP), tensor
//! (TP) and pipeline (PP) parallelism, with tensor parallelism restricted to
//! a single node (§8). This module enumerates that grid and computes the
//! layer-to-stage assignment used by pipeline parallelism.

use crate::config::{ModelArch, ModelConfig};
use serde::{Deserialize, Serialize};

/// A (data, tensor, pipeline) parallelism configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParallelConfig {
    /// Data-parallel degree: number of model replicas.
    pub dp: usize,
    /// Tensor-parallel degree: devices sharding each operator.
    pub tp: usize,
    /// Pipeline-parallel degree: number of pipeline stages.
    pub pp: usize,
}

impl ParallelConfig {
    /// Create a configuration, panicking on zero degrees.
    ///
    /// # Panics
    ///
    /// Panics if any degree is zero.
    pub fn new(dp: usize, tp: usize, pp: usize) -> Self {
        assert!(
            dp > 0 && tp > 0 && pp > 0,
            "parallel degrees must be positive"
        );
        ParallelConfig { dp, tp, pp }
    }

    /// Total number of GPUs this configuration occupies.
    pub fn num_gpus(&self) -> usize {
        self.dp * self.tp * self.pp
    }

    /// Enumerate all power-of-two (dp, tp, pp) combinations using exactly
    /// `num_gpus` GPUs, with tensor parallelism capped at `gpus_per_node`
    /// (TP is intra-node only, as in the paper's grid search).
    pub fn enumerate(num_gpus: usize, gpus_per_node: usize) -> Vec<ParallelConfig> {
        let mut out = Vec::new();
        let mut tp = 1;
        while tp <= num_gpus && tp <= gpus_per_node {
            let mut pp = 1;
            while tp * pp <= num_gpus {
                let rest = num_gpus / (tp * pp);
                if tp * pp * rest == num_gpus && rest.is_power_of_two() {
                    out.push(ParallelConfig { dp: rest, tp, pp });
                }
                pp *= 2;
            }
            tp *= 2;
        }
        out
    }

    /// Whether a model partitioned by this configuration has at least one
    /// transformer layer per pipeline stage.
    pub fn fits_model(&self, model: &ModelConfig) -> bool {
        model.total_layers() >= self.pp
    }
}

impl std::fmt::Display for ParallelConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dp{}-tp{}-pp{}", self.dp, self.tp, self.pp)
    }
}

/// What kind of transformer layers a pipeline stage hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StageKind {
    /// Decoder-only layers of a GPT-style model.
    DecoderOnly,
    /// Encoder layers of an encoder-decoder model.
    Encoder,
    /// Decoder layers of an encoder-decoder model (self + cross attention).
    Decoder,
    /// A stage straddling the encoder/decoder boundary of a T5-style model.
    Mixed,
}

/// Per-stage layer assignment for one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StageAssignment {
    /// Encoder layers hosted by this stage (0 for GPT).
    pub encoder_layers: usize,
    /// Decoder layers hosted by this stage (for GPT all layers count here).
    pub decoder_layers: usize,
    /// Whether this stage holds the input embedding (first stage).
    pub has_embedding: bool,
    /// Whether this stage holds the output head (last stage).
    pub has_lm_head: bool,
}

impl StageAssignment {
    /// Total transformer layers on this stage.
    pub fn total_layers(&self) -> usize {
        self.encoder_layers + self.decoder_layers
    }

    /// The kind of layers hosted, given the model architecture.
    pub fn kind(&self, arch: ModelArch) -> StageKind {
        match arch {
            ModelArch::Gpt => StageKind::DecoderOnly,
            ModelArch::T5 => match (self.encoder_layers > 0, self.decoder_layers > 0) {
                (true, true) => StageKind::Mixed,
                (true, false) => StageKind::Encoder,
                (false, true) => StageKind::Decoder,
                (false, false) => StageKind::Decoder, // degenerate; unreachable in practice
            },
        }
    }
}

/// The layer-to-stage layout of a pipeline-parallel model.
///
/// Layers are assigned contiguously and as evenly as possible: each of the
/// first `total_layers % pp` stages receives one extra layer, matching
/// Megatron-LM's uniform partitioning. For T5, the global layer order is all
/// encoder layers followed by all decoder layers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageLayout {
    /// Per-stage assignments, indexed by stage id (0 = first stage).
    pub stages: Vec<StageAssignment>,
    /// Architecture of the partitioned model.
    pub arch: ModelArch,
}

impl StageLayout {
    /// Partition `model` into `pp` pipeline stages.
    ///
    /// # Panics
    ///
    /// Panics if the model has fewer layers than stages.
    pub fn new(model: &ModelConfig, pp: usize) -> Self {
        let total = model.total_layers();
        assert!(
            total >= pp,
            "cannot split {total} layers into {pp} pipeline stages"
        );
        let base = total / pp;
        let extra = total % pp;
        let enc_total = match model.arch {
            ModelArch::Gpt => 0,
            ModelArch::T5 => model.num_layers,
        };
        let mut stages = Vec::with_capacity(pp);
        let mut cursor = 0usize;
        for s in 0..pp {
            let n = base + usize::from(s < extra);
            let start = cursor;
            let end = cursor + n;
            cursor = end;
            let enc = end.min(enc_total).saturating_sub(start.min(enc_total));
            let dec = n - enc;
            stages.push(StageAssignment {
                encoder_layers: enc,
                decoder_layers: dec,
                has_embedding: s == 0,
                has_lm_head: s == pp - 1,
            });
        }
        StageLayout {
            stages,
            arch: model.arch,
        }
    }

    /// Number of pipeline stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// The assignment for stage `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn stage(&self, s: usize) -> &StageAssignment {
        &self.stages[s]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerate_covers_all_factorizations() {
        let configs = ParallelConfig::enumerate(8, 8);
        // dp*tp*pp = 8 with powers of two: (8,1,1),(4,2,1),(4,1,2),(2,4,1),
        // (2,2,2),(2,1,4),(1,8,1),(1,4,2),(1,2,4),(1,1,8) = 10 combos.
        assert_eq!(configs.len(), 10);
        for c in &configs {
            assert_eq!(c.num_gpus(), 8);
        }
    }

    #[test]
    fn enumerate_caps_tp_at_node_size() {
        let configs = ParallelConfig::enumerate(32, 8);
        assert!(configs.iter().all(|c| c.tp <= 8));
        assert!(configs
            .iter()
            .any(|c| c.pp == 32 / 8 / 1 * 8 / 2 || c.pp >= 1));
        // TP=16 would fit 32 GPUs but must be excluded.
        assert!(!configs.iter().any(|c| c.tp == 16));
    }

    #[test]
    fn layout_splits_gpt_evenly() {
        let model = ModelConfig::gpt_6_7b(); // 32 layers
        let layout = StageLayout::new(&model, 4);
        assert_eq!(layout.num_stages(), 4);
        for st in &layout.stages {
            assert_eq!(st.total_layers(), 8);
            assert_eq!(st.encoder_layers, 0);
            assert_eq!(st.kind(ModelArch::Gpt), StageKind::DecoderOnly);
        }
        assert!(layout.stage(0).has_embedding);
        assert!(layout.stage(3).has_lm_head);
        assert!(!layout.stage(1).has_embedding);
    }

    #[test]
    fn layout_splits_t5_encoder_then_decoder() {
        let model = ModelConfig::t5_11b(); // 24 + 24 layers
        let layout = StageLayout::new(&model, 4);
        assert_eq!(layout.stage(0).kind(ModelArch::T5), StageKind::Encoder);
        assert_eq!(layout.stage(1).kind(ModelArch::T5), StageKind::Encoder);
        assert_eq!(layout.stage(2).kind(ModelArch::T5), StageKind::Decoder);
        assert_eq!(layout.stage(3).kind(ModelArch::T5), StageKind::Decoder);
        let total: usize = layout.stages.iter().map(|s| s.total_layers()).sum();
        assert_eq!(total, 48);
    }

    #[test]
    fn layout_handles_mixed_stage() {
        let model = ModelConfig::t5_5_5b(); // 12 + 12 layers
        let layout = StageLayout::new(&model, 8); // 3 layers per stage
                                                  // Stage 3 holds layers 9..12 (encoder) and stage 4 holds 12..15
                                                  // (decoder); with 24 layers / 8 stages no stage straddles. Use 5
                                                  // stages to force a straddle: 24/5 -> 5,5,5,5,4.
        let layout5 = StageLayout::new(&model, 5);
        let kinds: Vec<_> = layout5
            .stages
            .iter()
            .map(|s| s.kind(ModelArch::T5))
            .collect();
        assert!(kinds.contains(&StageKind::Mixed));
        let total: usize = layout5.stages.iter().map(|s| s.total_layers()).sum();
        assert_eq!(total, 24);
        let _ = layout;
    }

    #[test]
    fn layout_uneven_distribution_front_loaded() {
        let model = ModelConfig::gpt_13b(); // 40 layers
        let layout = StageLayout::new(&model, 16);
        let counts: Vec<_> = layout.stages.iter().map(|s| s.total_layers()).collect();
        assert_eq!(counts.iter().sum::<usize>(), 40);
        assert_eq!(counts[0], 3);
        assert_eq!(counts[15], 2);
        assert_eq!(counts.iter().max(), Some(&3));
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn layout_rejects_more_stages_than_layers() {
        let model = ModelConfig::gpt_3_35b(); // 16 layers
        let _ = StageLayout::new(&model, 32);
    }
}
