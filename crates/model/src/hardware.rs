//! Analytic model of an A100-40GB-like accelerator and its interconnects.
//!
//! This is the reproduction's stand-in for the paper's hardware testbed
//! (p4d.24xlarge: 8×A100 per node over NVSwitch, 400 Gbps EFA between
//! nodes). Kernel times are modelled as transformer-layer FLOPs divided by
//! an occupancy-dependent effective throughput plus a fixed per-layer launch
//! overhead; the quadratic attention term produces the super-linear
//! time-vs-sequence-length growth of the paper's Fig. 3, and the occupancy
//! curve produces the poor efficiency of small micro-batches that motivates
//! batching in the first place.
//!
//! Communication is modelled with α-β (latency + bandwidth) terms: point to
//! point for pipeline sends, ring all-reduce for tensor-parallel layer
//! collectives and data-parallel gradient synchronization.

use crate::config::{ModelArch, ModelConfig};
use crate::parallel::StageAssignment;
use crate::shapes::{MicroBatchShape, ACT_DTYPE_BYTES};
use crate::{Bytes, Micros};
use serde::{Deserialize, Serialize};

/// The kind of a single transformer layer, for FLOP accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerKind {
    /// GPT decoder layer: causal self-attention over the full sequence.
    GptDecoder,
    /// T5 encoder layer: bidirectional self-attention over the input.
    T5Encoder,
    /// T5 decoder layer: causal self-attention over the target plus
    /// cross-attention from target to encoder output.
    T5Decoder,
}

/// Analytic hardware description. All bandwidths are in bytes/µs and all
/// rates in FLOPs/µs so that times come out in microseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HardwareModel {
    /// Peak dense matmul throughput of one device (FLOPs/µs).
    pub peak_flops_per_us: f64,
    /// Maximum fraction of peak achievable by large GEMMs.
    pub max_efficiency: f64,
    /// Per-device work (FLOPs) at which efficiency reaches half of
    /// `max_efficiency`. Models occupancy: tiny micro-batches (or heavily
    /// tensor-parallel-sharded kernels) underutilize the device.
    pub efficiency_half_point_flops: f64,
    /// Fixed per-layer forward overhead (kernel launches, µs).
    pub layer_overhead_us: f64,
    /// Backward-to-forward compute ratio (2.0 for standard training).
    pub backward_ratio: f64,
    /// Effective device memory bandwidth (bytes/µs). Attention's
    /// score/softmax chain is memory-bound on the `s×s` matrix; this term
    /// is what makes long packed sequences disproportionately expensive
    /// (the paper's Fig. 3/4 motivation).
    pub mem_bw_bytes_per_us: f64,
    /// How many times the attention score matrix crosses HBM per forward
    /// pass (QKᵀ write, softmax read/write, dropout, P·V read — no
    /// FlashAttention in the paper's Megatron-LM baseline).
    pub attn_mem_passes: f64,
    /// Intra-node (NVSwitch) per-pair bandwidth, bytes/µs.
    pub intra_node_bw: f64,
    /// Inter-node (EFA) per-pair bandwidth, bytes/µs.
    pub inter_node_bw: f64,
    /// Intra-node link latency, µs.
    pub intra_node_latency_us: f64,
    /// Inter-node link latency, µs.
    pub inter_node_latency_us: f64,
    /// Usable device memory (bytes) after framework reservations.
    pub device_memory: Bytes,
    /// GPUs per node (tensor parallelism must stay within a node).
    pub gpus_per_node: usize,
}

impl HardwareModel {
    /// An A100-40GB p4d-like cluster node model, the paper's testbed.
    pub fn a100_cluster() -> Self {
        HardwareModel {
            // 312 TFLOP/s bf16 tensor-core peak.
            peak_flops_per_us: 312e6,
            max_efficiency: 0.52,
            // Half efficiency at ~5e10 FLOPs of per-device layer work
            // (~160 µs at peak): small kernels pay occupancy penalties.
            efficiency_half_point_flops: 5e10,
            layer_overhead_us: 45.0,
            backward_ratio: 2.0,
            // ~1.3 TB/s effective HBM2e bandwidth; ~12 score-matrix passes
            // (QK^T write, fp32 softmax read/write, dropout mask, P*V read,
            // plus the attention-internal reads the backward re-issues).
            mem_bw_bytes_per_us: 1.3e6,
            attn_mem_passes: 12.0,
            // ~300 GB/s effective NVSwitch per pair; ~12.5 GB/s per pair EFA.
            intra_node_bw: 300e3,
            inter_node_bw: 12.5e3,
            intra_node_latency_us: 8.0,
            inter_node_latency_us: 28.0,
            // 40 GB minus ~4 GB framework/NCCL reservations.
            device_memory: 36_000_000_000,
            gpus_per_node: 8,
        }
    }

    /// A deliberately small toy device for fast tests.
    // lint:allow(pub-uncalled): device for dynapipe-sim's engine tests (`toy_config`, e.g. `single_device_runs_to_completion`)
    pub fn toy() -> Self {
        HardwareModel {
            peak_flops_per_us: 1e6,
            max_efficiency: 0.5,
            efficiency_half_point_flops: 5e7,
            layer_overhead_us: 10.0,
            backward_ratio: 2.0,
            mem_bw_bytes_per_us: 1e4,
            attn_mem_passes: 8.0,
            intra_node_bw: 10e3,
            inter_node_bw: 1e3,
            intra_node_latency_us: 5.0,
            inter_node_latency_us: 20.0,
            device_memory: 2_000_000_000,
            gpus_per_node: 4,
        }
    }

    // ----- compute ---------------------------------------------------------

    /// Forward FLOPs of one transformer layer (whole layer, before tensor
    /// parallel sharding) for a micro-batch of the given shape.
    ///
    /// Attention score/context terms are quadratic in sequence length; causal
    /// attention (GPT and the T5 decoder's self-attention) only computes the
    /// lower triangle and gets a 1/2 factor.
    pub fn layer_flops_fwd(
        &self,
        model: &ModelConfig,
        kind: LayerKind,
        shape: &MicroBatchShape,
    ) -> f64 {
        let b = shape.batch_size as f64;
        let h = model.hidden_dim as f64;
        let a = model.attn_dim() as f64;
        let f = model.ffn_dim as f64;
        let se = shape.enc_len as f64;
        let sd = shape.dec_len as f64;
        let proj = |tokens: f64| 8.0 * b * tokens * h * a; // QKV + output projections
        let scores = |q: f64, k: f64, causal: bool| {
            let full = 4.0 * b * q * k * a; // QK^T + attn·V
            if causal {
                full * 0.5
            } else {
                full
            }
        };
        let mlp = |tokens: f64| 4.0 * b * tokens * h * f;
        match kind {
            LayerKind::GptDecoder => proj(se) + scores(se, se, true) + mlp(se),
            LayerKind::T5Encoder => proj(se) + scores(se, se, false) + mlp(se),
            LayerKind::T5Decoder => {
                // Self-attention over the target plus cross-attention
                // (queries from target, keys/values from encoder output).
                proj(sd)
                    + scores(sd, sd, true)
                    + proj(sd) * 0.5 // cross-attn Q + output proj (K/V amortized)
                    + scores(sd, se, false)
                    + mlp(sd)
            }
        }
    }

    /// FLOPs of the output head (logit projection) over the target tokens.
    pub fn lm_head_flops(&self, model: &ModelConfig, shape: &MicroBatchShape) -> f64 {
        let tokens = match model.arch {
            ModelArch::Gpt => shape.batch_size as f64 * shape.enc_len as f64,
            ModelArch::T5 => shape.batch_size as f64 * shape.dec_len as f64,
        };
        2.0 * tokens * model.hidden_dim as f64 * model.vocab_size as f64
    }

    /// Occupancy-dependent effective FLOP rate for `work_flops` of
    /// per-device work.
    ///
    /// Tensor parallelism splits each GEMM across devices, shrinking the
    /// per-device work and thus the achieved efficiency — which is how the
    /// model captures TP's sub-linear compute speedup.
    pub fn effective_flops(&self, work_flops: f64) -> f64 {
        let eff =
            self.max_efficiency * work_flops / (work_flops + self.efficiency_half_point_flops);
        self.peak_flops_per_us * eff.max(1e-4)
    }

    /// Memory-bound time of one layer's attention score/softmax chain: the
    /// `b × heads × s_q × s_kv` matrix crosses HBM `attn_mem_passes` times
    /// per forward (heads shard across tensor parallelism).
    pub fn attn_membound_time_fwd(
        &self,
        model: &ModelConfig,
        kind: LayerKind,
        shape: &MicroBatchShape,
        tp: usize,
    ) -> Micros {
        if shape.batch_size == 0 {
            return 0.0;
        }
        let b = shape.batch_size as f64;
        let heads = model.num_heads as f64;
        let (s_q, s_kv, causal) = match kind {
            LayerKind::GptDecoder => (shape.enc_len as f64, shape.enc_len as f64, true),
            LayerKind::T5Encoder => (shape.enc_len as f64, shape.enc_len as f64, false),
            LayerKind::T5Decoder => (
                shape.dec_len as f64,
                (shape.dec_len + shape.enc_len) as f64,
                false,
            ),
        };
        let mut bytes =
            b * heads * s_q * s_kv * ACT_DTYPE_BYTES as f64 * self.attn_mem_passes / tp as f64;
        if causal {
            bytes *= 0.5;
        }
        bytes / self.mem_bw_bytes_per_us
    }

    /// Forward execution time of one layer on one device under tensor
    /// parallelism `tp`: GEMM time at the occupancy-dependent rate, plus
    /// the memory-bound attention term, plus per-layer tensor-parallel
    /// all-reduces.
    pub fn layer_time_fwd(
        &self,
        model: &ModelConfig,
        kind: LayerKind,
        shape: &MicroBatchShape,
        tp: usize,
    ) -> Micros {
        if shape.batch_size == 0 {
            return 0.0;
        }
        let flops = self.layer_flops_fwd(model, kind, shape) / tp as f64;
        let compute = flops / self.effective_flops(flops) + self.layer_overhead_us;
        compute
            + self.attn_membound_time_fwd(model, kind, shape, tp)
            + self.tp_allreduce_time(model, kind, shape, tp)
    }

    /// Backward execution time of one layer (≈2× forward compute plus the
    /// same collectives).
    pub fn layer_time_bwd(
        &self,
        model: &ModelConfig,
        kind: LayerKind,
        shape: &MicroBatchShape,
        tp: usize,
    ) -> Micros {
        if shape.batch_size == 0 {
            return 0.0;
        }
        let flops = self.backward_ratio * self.layer_flops_fwd(model, kind, shape) / tp as f64;
        let compute = flops / self.effective_flops(flops) + self.layer_overhead_us;
        compute
            + self.backward_ratio
                * (self.attn_membound_time_fwd(model, kind, shape, tp)
                    + self.tp_allreduce_time(model, kind, shape, tp))
    }

    /// Forward time of an entire pipeline stage (its encoder and decoder
    /// layers plus embedding/LM-head work where present).
    pub fn stage_time_fwd(
        &self,
        model: &ModelConfig,
        stage: &StageAssignment,
        shape: &MicroBatchShape,
        tp: usize,
    ) -> Micros {
        let mut t = 0.0;
        let (enc_kind, dec_kind) = self.stage_layer_kinds(model);
        if stage.encoder_layers > 0 {
            t += stage.encoder_layers as f64 * self.layer_time_fwd(model, enc_kind, shape, tp);
        }
        if stage.decoder_layers > 0 {
            t += stage.decoder_layers as f64 * self.layer_time_fwd(model, dec_kind, shape, tp);
        }
        if stage.has_lm_head && shape.batch_size > 0 {
            let flops = self.lm_head_flops(model, shape) / tp as f64;
            t += flops / self.effective_flops(flops);
        }
        t
    }

    /// Backward time of an entire pipeline stage.
    pub fn stage_time_bwd(
        &self,
        model: &ModelConfig,
        stage: &StageAssignment,
        shape: &MicroBatchShape,
        tp: usize,
    ) -> Micros {
        let mut t = 0.0;
        let (enc_kind, dec_kind) = self.stage_layer_kinds(model);
        if stage.encoder_layers > 0 {
            t += stage.encoder_layers as f64 * self.layer_time_bwd(model, enc_kind, shape, tp);
        }
        if stage.decoder_layers > 0 {
            t += stage.decoder_layers as f64 * self.layer_time_bwd(model, dec_kind, shape, tp);
        }
        if stage.has_lm_head && shape.batch_size > 0 {
            let flops = self.backward_ratio * self.lm_head_flops(model, shape) / tp as f64;
            t += flops / self.effective_flops(flops);
        }
        t
    }

    fn stage_layer_kinds(&self, model: &ModelConfig) -> (LayerKind, LayerKind) {
        match model.arch {
            ModelArch::Gpt => (LayerKind::GptDecoder, LayerKind::GptDecoder),
            ModelArch::T5 => (LayerKind::T5Encoder, LayerKind::T5Decoder),
        }
    }

    fn layer_tokens(&self, kind: LayerKind, shape: &MicroBatchShape) -> f64 {
        let b = shape.batch_size as f64;
        match kind {
            LayerKind::GptDecoder | LayerKind::T5Encoder => b * shape.enc_len as f64,
            LayerKind::T5Decoder => b * shape.dec_len.max(1) as f64,
        }
    }

    // ----- communication ---------------------------------------------------

    /// Point-to-point transfer time for `bytes` between two devices.
    pub fn p2p_time(&self, bytes: Bytes, same_node: bool) -> Micros {
        let (bw, lat) = if same_node {
            (self.intra_node_bw, self.intra_node_latency_us)
        } else {
            (self.inter_node_bw, self.inter_node_latency_us)
        };
        lat + bytes as f64 / bw
    }

    /// Ring all-reduce time for `bytes` over `n` devices.
    pub fn allreduce_time(&self, bytes: Bytes, n: usize, same_node: bool) -> Micros {
        if n <= 1 {
            return 0.0;
        }
        let (bw, lat) = if same_node {
            (self.intra_node_bw, self.intra_node_latency_us)
        } else {
            (self.inter_node_bw, self.inter_node_latency_us)
        };
        let nf = n as f64;
        2.0 * (nf - 1.0) * lat + 2.0 * (nf - 1.0) / nf * bytes as f64 / bw
    }

    /// Per-layer tensor-parallel all-reduce time in the forward pass (two
    /// all-reduces per transformer layer: attention output and MLP output).
    pub fn tp_allreduce_time(
        &self,
        model: &ModelConfig,
        kind: LayerKind,
        shape: &MicroBatchShape,
        tp: usize,
    ) -> Micros {
        if tp <= 1 {
            return 0.0;
        }
        let tokens = self.layer_tokens(kind, shape);
        let bytes = (tokens * model.hidden_dim as f64 * ACT_DTYPE_BYTES as f64) as u64;
        2.0 * self.allreduce_time(bytes, tp, true)
    }

    /// Data-parallel gradient all-reduce time at the end of an iteration for
    /// a stage holding `stage_params` parameters, replicated `dp` ways.
    ///
    /// `spans_nodes` is true when replicas live on different nodes.
    pub fn dp_gradient_sync_time(&self, stage_params: u64, dp: usize, spans_nodes: bool) -> Micros {
        if dp <= 1 {
            return 0.0;
        }
        // Gradients are reduced in fp32 (4 bytes) bucketed into chunks.
        self.allreduce_time(stage_params * 4, dp, !spans_nodes)
    }

    /// Whether devices `a` and `b` (global ranks) are on the same node.
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        a / self.gpus_per_node == b / self.gpus_per_node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t5_shape(b: usize, s: usize) -> MicroBatchShape {
        MicroBatchShape::t5(b, s, s / 4)
    }

    #[test]
    fn layer_time_superlinear_in_seq_len_fig3() {
        // Fig. 3: T5-11B encoder layer time grows super-linearly with s.
        let hw = HardwareModel::a100_cluster();
        let model = ModelConfig::t5_11b();
        let time_at = |s: usize| {
            let shape = MicroBatchShape::t5(1, s, 1);
            hw.layer_time_fwd(&model, LayerKind::T5Encoder, &shape, 1)
        };
        // 16x the sequence length must cost well over 16x the time overall.
        assert!(time_at(8192) / time_at(512) > 20.0);
        // And in the long-sequence regime every doubling more than doubles.
        assert!(time_at(8192) / time_at(4096) > 2.0);
        assert!(time_at(4096) / time_at(2048) > 2.0);
    }

    #[test]
    fn gpt_model_throughput_order_of_magnitude() {
        // A 2048-token micro-batch through all 32 layers of GPT-6.7B should
        // take single-digit-to-tens of ms per layer set — the regime that
        // yields the paper's ~20-30k tokens/s on 8 GPUs.
        let hw = HardwareModel::a100_cluster();
        let model = ModelConfig::gpt_6_7b();
        let shape = MicroBatchShape::gpt(1, 2048);
        let per_layer = hw.layer_time_fwd(&model, LayerKind::GptDecoder, &shape, 1);
        let full_fwd_ms = per_layer * 32.0 / 1000.0;
        assert!(
            (20.0..700.0).contains(&full_fwd_ms),
            "full forward {full_fwd_ms} ms out of plausible range"
        );
    }

    #[test]
    fn small_batches_are_inefficient() {
        let hw = HardwareModel::a100_cluster();
        let model = ModelConfig::gpt_6_7b();
        let t1 = hw.layer_time_fwd(
            &model,
            LayerKind::GptDecoder,
            &MicroBatchShape::gpt(1, 128),
            1,
        );
        let t16 = hw.layer_time_fwd(
            &model,
            LayerKind::GptDecoder,
            &MicroBatchShape::gpt(16, 128),
            1,
        );
        // 16x the work in far less than 16x the time.
        assert!(t16 < t1 * 10.0, "t16={t16} t1={t1}");
    }

    #[test]
    fn tensor_parallel_reduces_compute_time_but_adds_comm() {
        let hw = HardwareModel::a100_cluster();
        let model = ModelConfig::gpt_6_7b();
        let shape = MicroBatchShape::gpt(4, 2048);
        let t1 = hw.layer_time_fwd(&model, LayerKind::GptDecoder, &shape, 1);
        let t4 = hw.layer_time_fwd(&model, LayerKind::GptDecoder, &shape, 4);
        assert!(t4 < t1, "tp should speed up a large layer");
        assert!(
            t4 > t1 / 4.0,
            "tp speedup must be sub-linear (comm overhead)"
        );
    }

    #[test]
    fn backward_costs_about_twice_forward() {
        let hw = HardwareModel::a100_cluster();
        let model = ModelConfig::t5_11b();
        let shape = t5_shape(4, 1024);
        let f = hw.layer_time_fwd(&model, LayerKind::T5Encoder, &shape, 1);
        let b = hw.layer_time_bwd(&model, LayerKind::T5Encoder, &shape, 1);
        let ratio = b / f;
        assert!((1.5..2.5).contains(&ratio), "bwd/fwd ratio {ratio}");
    }

    #[test]
    fn empty_shape_costs_nothing() {
        let hw = HardwareModel::a100_cluster();
        let model = ModelConfig::gpt_6_7b();
        let shape = MicroBatchShape::empty();
        assert_eq!(
            hw.layer_time_fwd(&model, LayerKind::GptDecoder, &shape, 1),
            0.0
        );
        assert_eq!(
            hw.layer_time_bwd(&model, LayerKind::GptDecoder, &shape, 1),
            0.0
        );
    }

    #[test]
    fn p2p_inter_node_slower_than_intra() {
        let hw = HardwareModel::a100_cluster();
        let intra = hw.p2p_time(1 << 24, true);
        let inter = hw.p2p_time(1 << 24, false);
        assert!(inter > 5.0 * intra);
    }

    #[test]
    fn allreduce_scales_with_participants() {
        let hw = HardwareModel::a100_cluster();
        assert_eq!(hw.allreduce_time(1 << 20, 1, true), 0.0);
        let t2 = hw.allreduce_time(1 << 24, 2, true);
        let t8 = hw.allreduce_time(1 << 24, 8, true);
        assert!(t8 > t2);
        // The bandwidth term approaches 2*S/bw, so growth stays bounded even
        // though the latency term is linear in n.
        assert!(t8 < 4.0 * t2);
    }

    #[test]
    fn same_node_by_rank() {
        let hw = HardwareModel::a100_cluster();
        assert!(hw.same_node(0, 7));
        assert!(!hw.same_node(7, 8));
        assert!(hw.same_node(8, 15));
    }

    #[test]
    fn t5_decoder_layer_costs_include_cross_attention() {
        let hw = HardwareModel::a100_cluster();
        let model = ModelConfig::t5_11b();
        // Long encoder context inflates decoder cost via cross-attention.
        let short_ctx = MicroBatchShape::t5(2, 128, 256);
        let long_ctx = MicroBatchShape::t5(2, 4096, 256);
        let t_short = hw.layer_flops_fwd(&model, LayerKind::T5Decoder, &short_ctx);
        let t_long = hw.layer_flops_fwd(&model, LayerKind::T5Decoder, &long_ctx);
        assert!(t_long > 1.5 * t_short);
    }
}
