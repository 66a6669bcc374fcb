//! # dynapipe-repro
//!
//! A from-scratch Rust reproduction of **DynaPipe: Optimizing Multi-task
//! Training through Dynamic Pipelines** (Jiang, Jia, Zheng, Wang, Wu —
//! EuroSys 2024).
//!
//! DynaPipe replaces padding/packing with *dynamic micro-batching* for
//! pipeline-parallel training of multi-task language models: every training
//! iteration, it groups the mini-batch's variable-length samples into
//! variable-shape micro-batches with a dynamic program, schedules them with
//! a memory-aware adaptive pipeline schedule, and plans communication
//! ahead of time so the irregular pipelines never deadlock.
//!
//! Since the paper's substrate (32×A100 + Megatron-LM) is not available,
//! this reproduction runs every experiment on a deterministic discrete-event
//! cluster simulator with NCCL-faithful ordered channels, memory accounting
//! and execution-time jitter; `ROADMAP.md` records what each substitute
//! stands in for and what remains open.
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |---|---|
//! | [`model`](dynapipe_model) | Table 1 model configs, 3D parallelism, analytic A100 hardware & memory formulas |
//! | [`data`](dynapipe_data) | synthetic FLANv2-like multi-task dataset |
//! | [`sim`](dynapipe_sim) | discrete-event cluster simulator (the "testbed") |
//! | [`cost`](dynapipe_cost) | profiling-grid + interpolation cost models |
//! | [`batcher`](dynapipe_batcher) | sample ordering, DP partitioner, Karmarkar–Karp, baselines |
//! | [`schedule`](dynapipe_schedule) | 1F1B, memory-aware adaptive schedule, reordering |
//! | [`comm`](dynapipe_comm) | pipeline instructions, communication planning, deadlock verification |
//! | [`core`](dynapipe_core) | planner, executor binding, training driver, grid search |
//! | [`cluster`](dynapipe_cluster) | simulated multi-host Fig. 9 deployment (planner hosts → store → executor hosts) |
//!
//! ## Quickstart
//!
//! ```
//! use dynapipe_repro::prelude::*;
//! use std::sync::Arc;
//!
//! // A 4-stage GPT-3.35B pipeline on simulated A100s.
//! let cm = Arc::new(CostModel::build(
//!     HardwareModel::a100_cluster(),
//!     ModelConfig::gpt_3_35b(),
//!     ParallelConfig::new(1, 1, 4),
//!     &ProfileOptions::coarse(),
//! ));
//! let planner = DynaPipePlanner::new(cm, PlannerConfig::default());
//!
//! // One epoch slice of FLANv2-like multi-task data.
//! let dataset = Dataset::flanv2(42, 500);
//! let report = run_training(
//!     &planner,
//!     &dataset,
//!     GlobalBatchConfig { tokens_per_batch: 16384, max_seq_len: 2048 },
//!     RunConfig { max_iterations: Some(2), ..Default::default() },
//! );
//! assert!(report.feasible());
//! assert!(report.throughput() > 0.0);
//! ```

pub use dynapipe_batcher as batcher;
pub use dynapipe_cluster as cluster;
pub use dynapipe_comm as comm;
pub use dynapipe_core as core;
pub use dynapipe_cost as cost;
pub use dynapipe_data as data;
pub use dynapipe_model as model;
pub use dynapipe_schedule as schedule;
pub use dynapipe_sim as sim;

/// Everything needed for typical use, in one import.
pub mod prelude {
    pub use dynapipe_batcher::{
        padding_efficiency, sort_samples, DpConfig, MicroBatch, OrderingStrategy, PaddingStats,
        Partitioner, SliceShapes,
    };
    pub use dynapipe_comm::{verify_deadlock_free, ExecutionPlan, Instr};
    pub use dynapipe_core::{
        run_training, run_training_pipelined, BaselineKind, BaselinePlanner, DynaPipePlanner,
        InstructionStore, IterationPlanner, PlanDistribution, PlannerConfig, RunConfig, RunReport,
        RuntimeConfig, ScheduleKind, StoredPlan,
    };
    pub use dynapipe_cost::{iteration_time, CostModel, ProfileOptions};
    pub use dynapipe_data::{Dataset, GlobalBatchConfig, GlobalBatchIter, Sample};
    pub use dynapipe_model::{
        HardwareModel, MicroBatchShape, ModelArch, ModelConfig, ParallelConfig, RecomputeMode,
    };
    pub use dynapipe_schedule::{
        adaptive_schedule, evaluate_schedule, one_f_one_b, Schedule, ScheduleInput,
    };
    pub use dynapipe_sim::{AllocatorMode, Engine, EngineConfig, JitterConfig};
}
