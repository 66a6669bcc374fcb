//! Synthetic multi-task (FLANv2-like) dataset generation.
//!
//! The paper evaluates on the FLANv2 zero-shot collection: 1836 tasks whose
//! input lengths vary from a handful of tokens (grammar acceptability) to
//! tens of thousands (long-document summarization), down-sampled to 100K
//! training samples. The experiments never look at token *values* — only at
//! per-sample (input, target) sequence lengths — so this crate substitutes a
//! seeded synthetic mixture whose per-task length distributions are
//! calibrated to the statistics the paper reports (CNN/DailyMail mean input
//! 977.73 tokens, MNLI mean 51.59, heavy tail out to 65536; Fig. 1).
//!
//! * [`tasks`] — the task registry: categories, mixture weights and
//!   log-normal length distributions per task family.
//! * [`sample`] — the [`Sample`](sample::Sample) record (lengths only).
//! * [`dataset`] — dataset synthesis, length statistics and histograms.
//! * [`minibatch`] — global-batch (mini-batch) assembly by token budget,
//!   respecting the user's random sampling order as DynaPipe requires.

pub mod dataset;
pub mod minibatch;
pub mod sample;
pub mod tasks;

pub use dataset::{Dataset, LengthStats};
pub use minibatch::{BatchStream, GlobalBatchConfig, GlobalBatchIter};
pub use sample::Sample;
pub use tasks::{TaskCategory, TaskSpec};
