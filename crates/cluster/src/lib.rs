//! `dynapipe-cluster`: the paper's Fig. 9 deployment on a **simulated
//! multi-host topology**.
//!
//! The PR 3/4 runtime already decouples the planner pool from the
//! executor through the instruction store, but everything runs on one
//! implicit host: pushing a 300 KB plan blob costs exactly as much as
//! sharing a pointer would, and there is no notion of *where* a planner
//! or a data-parallel replica lives. This crate deploys the same runtime
//! across an explicit topology:
//!
//! ```text
//!   planner host 0 ─┐                      ┌─► executor host 0 (replicas 0, M, …)
//!   planner host 1 ─┼─► instruction store ─┼─► executor host 1 (replicas 1, M+1, …)
//!        …          │   (on executor 0)    │        …
//!   planner host N ─┘                      └─► executor host M-1
//! ```
//!
//! * [`ClusterConfig`] places `planner_hosts × workers_per_host` planner
//!   workers and `executor_hosts` executor hosts (data-parallel replicas
//!   assigned round-robin), with a bounded plan-ahead window shared by
//!   the whole pool;
//! * the store itself is placed by [`StorePlacement`]: colocated with
//!   executor host 0 (the paper's deployment), or **sharded** one shard
//!   per executor host with iteration `i` owned by shard
//!   `i % executor_hosts` ([`crate::shard`]) — at O(100) hosts the
//!   single store host's egress concentrates the whole plan stream
//!   while sharding spreads it, which `fig09_cluster`'s datacenter arm
//!   measures and gates on;
//! * every [`dynapipe_core::StoredPlan`] blob crosses **modeled network
//!   links** priced by a [`dynapipe_sim::Fabric`] host-pair matrix
//!   (same host free, same rack intra-node, cross-rack oversubscribed
//!   inter-node) and replayed over α-β FIFO links
//!   ([`dynapipe_sim::link`]) — one uplink connection per planner
//!   *worker* × destination shard host (a worker's push stream is
//!   time-ordered, so the FIFO replay is exact) and one link per
//!   shard-host → executor-host pair — so blob *bytes* now have a
//!   *time* cost on the training timeline, and the wire codec
//!   ([`dynapipe_core::PlanCodec`]) becomes a measurable design choice;
//! * per-host and per-shard counters roll up into a [`ClusterReport`]:
//!   plans produced and bytes pushed per planner host, bytes fetched /
//!   wire time / exposed-vs-hidden planning per executor host, bytes
//!   stored and served per shard, the busiest single link's bytes, and
//!   store counters — all under the wire-byte rule documented in
//!   [`crate::report`] (a byte counts only when it crosses hosts).
//!
//! The deployment is **elastic** (PR 6): a [`ChurnScript`] injects
//! deterministic membership churn — planner-host crashes and joins,
//! executor-host losses with replica re-placement, and straggler
//! slowdowns recovered through deadline-based ticket re-issue
//! ([`crate::churn`]) — and [`ChurnStats`] counts what recovery cost.
//!
//! **The golden invariant carries over unchanged — and extends to
//! churn:** whatever the topology, codec, link speed, or scripted
//! churn, the produced [`dynapipe_core::RunReport`] is bit-identical to
//! the serial driver's (`RunReport::behavior_eq`) — the wire and the
//! churn can only move time around, never change what was trained.
//! `tests/cluster_equivalence.rs` and `tests/churn_equivalence.rs`
//! enforce this across the scenario matrices and the `fig09_cluster`
//! bench exits nonzero on any divergence.

pub mod churn;
pub mod report;
pub mod runtime;
pub mod shard;
pub mod topology;

pub use churn::{ChurnEvent, ChurnScript, Membership};
pub use report::{ChurnStats, ClusterReport, ExecutorHostStats, PlannerHostStats, ShardStats};
pub use runtime::{run_training_cluster, run_training_cluster_traced};
pub use shard::{ShardMap, StorePlacement};
pub use topology::ClusterConfig;
