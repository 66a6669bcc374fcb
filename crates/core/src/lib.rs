//! DynaPipe's planner–executor core: per-iteration plan generation,
//! compilation onto the cluster simulator, and training-run orchestration.
//!
//! This crate ties the reproduction together, mirroring the system
//! architecture of §3 (Fig. 9):
//!
//! * [`planner`] — the per-iteration planning pipeline: order samples,
//!   choose the cheapest feasible recomputation mode (§7), split the
//!   mini-batch with the DP partitioner (§4), balance replicas with
//!   Karmarkar–Karp, reorder and schedule micro-batches (§5), and plan
//!   communication (§6). Every plan is verified deadlock-free before it is
//!   released.
//! * [`baseline`] — the paper's comparison systems on the same substrate:
//!   packing (MLM+DS), token-based and fixed-size micro-batching, all under
//!   1F1B.
//! * [`compile`] — lower an [`dynapipe_comm::ExecutionPlan`] to per-device
//!   simulator programs.
//! * [`driver`] — run training iterations against the discrete-event
//!   simulator, collecting throughput, padding and estimate-vs-measured
//!   records (the raw data behind Figs. 13–18).
//! * [`store`] — the distributed instruction store: serialized plan
//!   blobs keyed by iteration, with capacity backpressure, tombstones on
//!   consumption, poison on planner crash, and per-shard counters — the
//!   runtime's plan-distribution layer in
//!   [`runtime::PlanDistribution::StoreBacked`] mode.
//! * [`runtime`] — the pipelined plan-ahead runtime: a planner pool plans
//!   iterations ahead of a bounded window while the executor runs the
//!   current one, with a lowering stage in between (§8.5's
//!   planning/executing overlap); bit-identical to the serial [`driver`]
//!   (the retained golden reference).
//! * [`gridsearch`] — the paper's 3D-parallelism grid search.

pub mod baseline;
pub mod codec;
pub mod compile;
pub mod driver;
pub mod gridsearch;
pub mod planner;
pub mod runtime;
pub mod store;

pub use baseline::{BaselineKind, BaselinePlanner};
pub use codec::{encode_flat, CodecError, FlatPlanRef, FlatReplicaRef, PlanCodec};
pub use compile::{compile_replica, compile_replica_with, GroundTruth};
pub use driver::{
    run_training, IterationPlanner, IterationRecord, IterationSummary, RunConfig, RunReport,
};
pub use gridsearch::{probe_throughput, search_parallelism, CandidateScore};
pub use planner::{
    DynaPipePlanner, IterationPlan, PlanContext, PlanError, PlannerConfig, ReplicaPlan,
    ScheduleKind,
};
pub use runtime::{
    decode_executable, decode_for_execution, plan_lower_push_traced, record_sim_iteration,
    run_training_pipelined_traced, CompleteOutcome, DuplicatePush, Executable, IterationExecution,
    PlanAheadQueue, PlanDistribution, QueueChurn, ReplicaParallelism, ReplicaPrograms,
    RuntimeConfig, RuntimeStats, Ticket, TicketTraceCtx, WaitOutcome,
};
pub use store::{
    InstructionStore, PushOutcome, StoreError, StoreStats, StoredLowered, StoredOutcome, StoredPlan,
};
