//! Pipeline execution schedules (§5 of the paper).
//!
//! A *schedule* fixes, for every pipeline device, the order in which it
//! executes the forward and backward passes of the iteration's
//! micro-batches. This crate provides:
//!
//! * [`types`] — the schedule representation and the per-micro-batch cost
//!   inputs schedulers consume.
//! * [`onefb`] — the classic 1F1B schedule, the baseline whose zero safety
//!   stock makes it brittle under execution-time variation.
//! * [`adaptive`] — DynaPipe's memory-aware adaptive (cyclic) schedule,
//!   Alg. 1: per-cycle one-forward-one-backward with injection regulated by
//!   per-device memory limits.
//! * [`timeline`] — a dependency-respecting timeline simulator that turns a
//!   schedule plus (possibly perturbed) durations into start/end times and
//!   a makespan; also the substrate for communication planning (§6) and the
//!   noise-robustness study (Fig. 7).
//! * [`safety`] — safety-stock measurement (the §5 analysis behind
//!   Fig. 11).
//! * [`reorder`] — micro-batch ordering by execution-time clustering and
//!   cluster-permutation search.

pub mod adaptive;
pub mod onefb;
pub mod reorder;
pub mod safety;
pub mod timeline;
pub mod types;

pub use adaptive::adaptive_schedule;
pub use onefb::one_f_one_b;
pub use reorder::{reorder_micro_batches, reorder_with_schedule, ReorderConfig, Reordered};
pub use safety::min_steady_safety_stock;
pub use timeline::{evaluate_schedule, OpTimes, Timeline};
pub use types::{Schedule, ScheduleInput, ScheduledOp};
