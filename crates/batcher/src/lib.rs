//! Micro-batch construction: DynaPipe's §4 plus the paper's baselines.
//!
//! Given the samples of one training mini-batch, this crate decides how to
//! group them into variable-shape micro-batches:
//!
//! * [`ordering`] — order samples so neighbours have similar lengths:
//!   lexicographic sort, or a travelling-salesman heuristic over
//!   (input, target) length pairs for encoder-decoder models.
//! * [`dp`] — the dynamic-programming partitioner: minimizes the Eq. 1
//!   iteration-time model over contiguous splits of the ordered list,
//!   sweeping the `t_max` bound at a fixed resolution (the paper samples at
//!   5 µs) and rejecting micro-batches that exceed the per-micro-batch
//!   memory limit.
//! * [`kk`] — Karmarkar–Karp differencing to balance micro-batches across
//!   data-parallel replicas.
//! * [`baselines`] — what the paper compares against: sequence packing
//!   (MLM+DS), token-based micro-batching (TB) and fixed micro-batch sizes.
//! * [`metrics`] — padding efficiency and packing's cross-sample attention
//!   waste.

pub mod baselines;
pub mod dp;
pub mod kk;
pub mod metrics;
pub mod microbatch;
pub mod ordering;

pub use baselines::{
    fixed_size_micro_batches, pack_samples, packed_micro_batches, token_based_micro_batches,
    PackedSequence,
};
pub use dp::{
    dp_solve_stats, DpConfig, DpSolveStats, PartitionResult, Partitioner, SliceFwdCosts,
    SliceShapes, Stopped,
};
pub use kk::karmarkar_karp;
pub use metrics::{padding_efficiency, PaddingStats};
pub use microbatch::MicroBatch;
pub use ordering::{sort_samples, tsp_order, OrderingStrategy};
