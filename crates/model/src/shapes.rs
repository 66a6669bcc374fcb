//! Micro-batch shapes and the sizes of tensors exchanged between stages.
//!
//! A micro-batch is fully described (for cost purposes) by its batch size and
//! padded sequence lengths. GPT samples have a single sequence length; T5
//! samples carry an (encoder, decoder) pair. DynaPipe includes communicated
//! tensor shapes in its execution plans so executors never exchange shape
//! metadata at runtime (§6) — [`MicroBatchShape`] is what gets embedded.

use crate::config::ModelArch;
use crate::parallel::StageKind;
use crate::Bytes;
use serde::{Deserialize, Serialize};

/// Bytes per activation element (bf16 training).
pub const ACT_DTYPE_BYTES: u64 = 2;

/// The shape of one micro-batch: sample count and padded sequence lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MicroBatchShape {
    /// Number of samples in the micro-batch.
    pub batch_size: usize,
    /// Padded encoder (input) sequence length. For GPT this is the single
    /// padded sequence length (prompt and target concatenated).
    pub enc_len: usize,
    /// Padded decoder (target) sequence length. Zero for GPT.
    pub dec_len: usize,
}

impl MicroBatchShape {
    /// Shape of a decoder-only (GPT) micro-batch.
    pub fn gpt(batch_size: usize, seq_len: usize) -> Self {
        MicroBatchShape {
            batch_size,
            enc_len: seq_len,
            dec_len: 0,
        }
    }

    /// Shape of an encoder-decoder (T5) micro-batch.
    pub fn t5(batch_size: usize, enc_len: usize, dec_len: usize) -> Self {
        MicroBatchShape {
            batch_size,
            enc_len,
            dec_len,
        }
    }

    /// Empty shape (zero samples). Useful as an accumulator identity.
    pub fn empty() -> Self {
        MicroBatchShape {
            batch_size: 0,
            enc_len: 0,
            dec_len: 0,
        }
    }

    /// Total padded tokens processed for this micro-batch (batch × lengths).
    pub fn padded_tokens(&self) -> u64 {
        self.batch_size as u64 * (self.enc_len + self.dec_len) as u64
    }

    /// Bytes of the activation tensor leaving a stage of the given kind,
    /// headed to the next pipeline stage.
    ///
    /// Encoder-only stages forward only the (batch × enc_len × hidden)
    /// activation. Once the decoder is involved (decoder, mixed or
    /// decoder-only stages), the encoder output must travel along for
    /// cross-attention, so both sequence extents are counted.
    pub fn boundary_activation_bytes(&self, kind: StageKind, hidden_dim: usize) -> Bytes {
        let tokens: u64 = match kind {
            StageKind::Encoder => self.batch_size as u64 * self.enc_len as u64,
            StageKind::DecoderOnly => self.batch_size as u64 * self.enc_len as u64,
            StageKind::Decoder | StageKind::Mixed => {
                self.batch_size as u64 * (self.enc_len + self.dec_len) as u64
            }
        };
        tokens * hidden_dim as u64 * ACT_DTYPE_BYTES
    }

    /// Whether this shape is valid for the given architecture (GPT shapes
    /// must have a zero decoder length; T5 shapes a positive one when they
    /// contain samples).
    pub fn valid_for(&self, arch: ModelArch) -> bool {
        if self.batch_size == 0 {
            return true;
        }
        match arch {
            ModelArch::Gpt => self.dec_len == 0 && self.enc_len > 0,
            ModelArch::T5 => self.enc_len > 0 && self.dec_len > 0,
        }
    }
}

impl std::fmt::Display for MicroBatchShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.dec_len == 0 {
            write!(f, "[{}x{}]", self.batch_size, self.enc_len)
        } else {
            write!(
                f,
                "[{}x({},{})]",
                self.batch_size, self.enc_len, self.dec_len
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_tokens_counts_both_sequences() {
        let s = MicroBatchShape::t5(4, 512, 128);
        assert_eq!(s.padded_tokens(), 4 * 640);
        let g = MicroBatchShape::gpt(8, 1024);
        assert_eq!(g.padded_tokens(), 8 * 1024);
    }

    #[test]
    fn boundary_bytes_depend_on_stage_kind() {
        let s = MicroBatchShape::t5(2, 1000, 200);
        let enc = s.boundary_activation_bytes(StageKind::Encoder, 1024);
        let dec = s.boundary_activation_bytes(StageKind::Decoder, 1024);
        assert_eq!(enc, 2 * 1000 * 1024 * ACT_DTYPE_BYTES);
        assert_eq!(dec, 2 * 1200 * 1024 * ACT_DTYPE_BYTES);
        assert!(dec > enc);
    }

    #[test]
    fn validity_per_architecture() {
        assert!(MicroBatchShape::gpt(1, 32).valid_for(ModelArch::Gpt));
        assert!(!MicroBatchShape::gpt(1, 32).valid_for(ModelArch::T5));
        assert!(MicroBatchShape::t5(1, 32, 8).valid_for(ModelArch::T5));
        assert!(!MicroBatchShape::t5(1, 32, 8).valid_for(ModelArch::Gpt));
        assert!(MicroBatchShape::empty().valid_for(ModelArch::Gpt));
        assert!(MicroBatchShape::empty().valid_for(ModelArch::T5));
    }

    #[test]
    fn display_formats() {
        assert_eq!(MicroBatchShape::gpt(4, 512).to_string(), "[4x512]");
        assert_eq!(MicroBatchShape::t5(4, 512, 64).to_string(), "[4x(512,64)]");
    }
}
