//! The pipelined plan-ahead runtime: overlap planning with execution.
//!
//! The serial driver ([`crate::driver::run_training`]) is a strict
//! plan → simulate loop: every iteration pays its full planning time on
//! the critical path. The paper's end-to-end claim (§6, Fig. 17) is that
//! per-iteration planning is *hidden* behind training — a planner worker
//! pool pre-plans iterations ahead of a bounded window while the executor
//! runs the current one. This module makes that overlap structural:
//!
//! ```text
//!   BatchStream ──► planner pool ──► lowering ──► plan-ahead ──► executor
//!   (streaming      (plan i+1..i+k   (compile     queue          (replicas in
//!    mini-batches)   concurrently)    programs)   (bounded, k)    parallel)
//! ```
//!
//! * the **planner pool** pulls mini-batches from a streaming
//!   [`BatchStream`] (the epoch is never materialized) and plans
//!   iterations up to [`RuntimeConfig::plan_ahead`] ahead of the one being
//!   executed (each worker caps its nested rayon parallelism to its pool
//!   share; the planner's shared [`crate::planner::PlanContext`] passes
//!   are reused per plan as usual);
//! * the **lowering stage** sits between planner and engine: each
//!   replica's [`dynapipe_comm::ExecutionPlan`] is compiled to
//!   [`DeviceProgram`]s on the worker, so the executor never rebuilds
//!   programs inline. Planning and lowering are one step, `plan_lower`,
//!   shared by every distribution mode and by the cluster layer;
//! * the **executor** consumes iterations strictly in order from the
//!   bounded queue and runs each iteration's independent replica engines
//!   in parallel.
//!
//! # Plan distribution
//!
//! [`RuntimeConfig::distribution`] selects how lowered plans travel from
//! the planner pool to the executor:
//!
//! * [`PlanDistribution::InProcess`] — shared `Arc`s through the
//!   plan-ahead queue (single-host fast path, and the golden reference
//!   for the store-backed mode);
//! * [`PlanDistribution::StoreBacked`] — the paper's Fig. 9 architecture:
//!   each worker **serializes** the lowered iteration into a
//!   [`crate::store::StoredPlan`] wire blob and pushes it into an
//!   [`InstructionStore`] keyed by iteration; an executor-side
//!   **prefetcher** takes each blob in order (bounded wait), decodes it
//!   ahead of execution, and hands the executor the plan's summary plus
//!   the programs (on the default flat codec, views over the blob
//!   itself) — Fig. 9's push / prefetch / delete-on-consumption cycle.
//!   This models the process boundary of a multi-host planner pool:
//!   nothing survives the hop except what the wire format carries.
//!   The bounded window's slots count store occupancy — a worker holds
//!   its claimed ticket from push until the executor's take — so live
//!   blobs never exceed `plan_ahead` and the queue's backpressure
//!   carries over to the store (whose capacity is set to the window as a
//!   belt-and-braces bound). On failure teardown the store is cleared:
//!   speculative blobs are discarded, never orphaned. A worker panic
//!   poisons queue *and* store, so a dead planner fails the executor
//!   instead of deadlocking it.
//!
//! Both modes must produce bit-identical [`RunReport`]s (the
//! serialization roundtrip is float-exact); the differential harness in
//! `crates/cluster/tests/runtime_equivalence.rs` pins every scenario across
//! serial driver × in-process × store-backed.
//!
//! # Determinism
//!
//! The pipelined runtime is **bit-identical** to the serial driver:
//! planning is deterministic, jitter seeds are keyed by
//! `(iteration_index, replica)`, replica results are folded in replica
//! order, and iterations are recorded strictly in order. On a failure the
//! executor stops at exactly the iteration the serial driver would, with
//! the same error string; speculatively planned later iterations are
//! discarded. The produced [`RunReport`] matches the serial one in every
//! field except the wall-clock `planning_time_us` measurements (see
//! [`RunReport::behavior_eq`]), which is pinned by the equivalence suites
//! in `crates/cluster/tests`.
//!
//! # Overlap accounting
//!
//! In a real deployment, execution occupies the cluster for the
//! iteration's duration while planning occupies CPU cores. The simulator
//! compresses execution to host-microseconds, so host wall-clock alone
//! cannot show the overlap the paper measures. The runtime therefore
//! tracks the **training timeline**: a virtual clock advances by each
//! iteration's *simulated* duration, and a plan's readiness is its real
//! host timestamp. An iteration's *exposed* planning time is how long the
//! virtual clock must wait for its plan; everything else is *hidden*
//! behind execution. `pipelined_wall_us` (virtual end time) versus the
//! serial driver's timeline (Σ planning + Σ execution, where every
//! microsecond of planning is exposed) quantifies the win; see
//! [`RuntimeStats`]. The equivalence suites check that no planning is
//! exposed after iteration 0 and that `pipelined_wall_us` is exactly
//! Σ(exposed planning + execution); `perfbench` reports the hidden share
//! (`runtime.overlap_ratio`). The same methodology backs the
//! `fig17_planning_time` bench's planning/iteration ratios.
//!
//! # Failure semantics: poison vs. re-issue
//!
//! Two distinct failure mechanisms coexist in the queue, for two
//! distinct failure classes:
//!
//! * **poison (fail-stop)** — a planner worker *panics*: its unwind path
//!   (`TicketGuard`) poisons the queue (and store, when store-backed),
//!   every blocked party re-raises, and the run dies at exactly the
//!   iteration the serial driver would have died at. A panic means the
//!   planning computation itself is broken; retrying it elsewhere would
//!   just panic again.
//! * **re-issue (recover)** — a planner worker *disappears or straggles*
//!   (scripted churn, a dead host, a slow machine): the computation is
//!   fine, only its host is gone. The executor's bounded
//!   [`PlanAheadQueue::wait_for_deadline`] detects the stall, and
//!   [`PlanAheadQueue::reissue`] hands the claimed ticket — index,
//!   mini-batch, and a bumped **generation** counter — to a surviving
//!   worker. Completions are first-wins per iteration: whichever attempt
//!   finishes first is accepted, every later duplicate is counted and
//!   discarded ([`CompleteOutcome::Stale`]) — an iteration is never
//!   double-completed, and because planning is deterministic all
//!   attempts carry byte-identical plans, so recovery can never change
//!   behavior, only cost wall-clock ([`QueueChurn`]). The elastic
//!   cluster layer (`dynapipe-cluster`) drives this path; the
//!   single-host runtime keeps the unbounded wait.

use crate::codec::{CodecError, FlatPlanRef, FlatReplicaRef, PlanCodec};
use crate::driver::{record_iteration, IterationPlanner, IterationSummary, RunConfig, RunReport};
use crate::planner::{IterationPlan, PlanError};
use crate::store::{InstructionStore, StoreStats, StoredLowered, StoredOutcome, StoredPlan};
use dynapipe_cost::CostModel;
use dynapipe_data::{BatchStream, Dataset, GlobalBatchConfig, Sample};
use dynapipe_model::{Bytes, Micros};
use dynapipe_sim::{
    DeviceProgram, Engine, EngineConfig, JitterConfig, SimResult, TraceEvent, TraceKind,
};
use dynapipe_trace::{ClockDomain, Span, SpanKind, TraceSink};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

/// How long the executor waits for a blob the queue says was pushed, and
/// a pushing worker waits for a capacity slot the window accounting says
/// is free. Reaching either is a crashed-counterpart signal, not normal
/// backpressure — both paths fail loudly instead of deadlocking.
pub const STORE_WAIT: Duration = Duration::from_secs(60);

/// How lowered plans travel from the planner pool to the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanDistribution {
    /// Shared `Arc`s through the in-process plan-ahead queue (the golden
    /// reference for the store-backed path).
    #[default]
    InProcess,
    /// Serialized [`StoredPlan`] blobs through the [`InstructionStore`]
    /// — the paper's Fig. 9 planner/executor decoupling, modeling a real
    /// process boundary.
    StoreBacked,
}

/// Configuration of the pipelined runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Bounded plan-ahead window: the planner pool may run at most this
    /// many iterations ahead of the executor (≥ 1). Bounds both
    /// speculation depth and resident compiled plans (and, store-backed,
    /// live blobs in the store).
    pub plan_ahead: usize,
    /// Planner worker threads (≥ 1).
    pub workers: usize,
    /// Plan-distribution layer between the pool and the executor.
    pub distribution: PlanDistribution,
    /// Wire codec for [`PlanDistribution::StoreBacked`] blobs (ignored
    /// in-process). All codecs are bit-exact; they differ in bytes and
    /// decode time (see [`crate::codec`]). The default,
    /// [`PlanCodec::Flat`], is executed zero-copy, straight over the wire
    /// bytes, and its executor decode reads only the blob's fixed-width
    /// summary of the plan.
    pub codec: PlanCodec,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            plan_ahead: 4,
            workers: rayon::current_num_threads().saturating_sub(1).max(1),
            distribution: PlanDistribution::InProcess,
            codec: PlanCodec::default(),
        }
    }
}

impl RuntimeConfig {
    /// Clamp the window and worker count to their minima.
    fn normalized(self) -> Self {
        RuntimeConfig {
            plan_ahead: self.plan_ahead.max(1),
            workers: self.workers.max(1),
            distribution: self.distribution,
            codec: self.codec,
        }
    }
}

/// One replica's device programs in whichever representation crossed
/// the plan-distribution boundary. The engine runs both through the same
/// [`dynapipe_sim::InstructionSource`] abstraction, bit-identically.
#[derive(Debug, Clone)]
pub enum ReplicaPrograms {
    /// Owned lowered programs, shared with the engines that run them
    /// (the in-process path and the tree codecs' decoded form).
    Owned(Arc<Vec<DeviceProgram>>),
    /// Zero-copy view into a [`PlanCodec::Flat`] wire blob: the engine
    /// reads instruction records straight off the fetched bytes — no
    /// tree build, no owned copy.
    Flat(FlatReplicaRef),
}

impl ReplicaPrograms {
    /// Number of devices this replica's programs cover.
    pub fn num_devices(&self) -> usize {
        match self {
            ReplicaPrograms::Owned(p) => p.len(),
            ReplicaPrograms::Flat(f) => dynapipe_sim::InstructionSource::num_devices(f),
        }
    }
}

/// An iteration ready for the engines: the summary of its plan (or, for
/// callers that inspect it, the whole plan as `M`) plus each replica's
/// device programs, or the planning failure the executor reports in its
/// place.
pub type Executable<M = IterationSummary> = Result<(M, Vec<ReplicaPrograms>), PlanError>;

/// Lower every replica of `plan` to owned simulator device programs —
/// the one lowering loop (pure, so programs are identical wherever
/// lowering runs). One ground-truth memo serves all replicas: padding
/// buckets repeat micro-batch shapes across replicas, so each distinct
/// `(stage, shape)` is priced once per iteration, not once per replica
/// (bit-identical either way — the memo returns the first evaluation).
fn lower_owned(cm: &CostModel, plan: &IterationPlan) -> Vec<Vec<DeviceProgram>> {
    let truth = crate::compile::GroundTruth::new(cm);
    plan.replicas
        .iter()
        .map(|r| crate::compile::compile_replica_with(&truth, &r.plan))
        .collect()
}

/// [`lower_owned`] with each replica's programs shared behind an `Arc`,
/// ready for the engines that run them.
pub fn lower_replicas(cm: &CostModel, plan: &IterationPlan) -> Vec<Arc<Vec<DeviceProgram>>> {
    lower_owned(cm, plan).into_iter().map(Arc::new).collect()
}

/// Hand a lowered outcome to the engines: the plan is reduced to `meta`
/// of it, owned programs are wrapped in `Arc`s, a planning failure passes
/// through.
fn into_executable<M>(
    outcome: StoredOutcome,
    meta: impl FnOnce(IterationPlan) -> M,
) -> Executable<M> {
    match outcome {
        StoredOutcome::Plan(StoredLowered { plan, programs }) => {
            let programs = programs
                .into_iter()
                .map(|p| ReplicaPrograms::Owned(Arc::new(p)))
                .collect();
            Ok((meta(plan), programs))
        }
        StoredOutcome::Failed(e) => Err(e),
    }
}

/// Distribution accounting of one [`plan_lower_push_traced`] call.
pub struct StorePush {
    /// Worker wall-clock spent planning (µs).
    pub plan_us: f64,
    /// Worker wall-clock spent lowering (µs).
    pub lower_us: f64,
    /// Worker wall-clock spent encoding + pushing the blob (µs).
    pub serialize_us: f64,
    /// Size of the pushed wire blob.
    pub blob_bytes: usize,
    /// Whether the push was discarded as a re-issue duplicate (only
    /// under [`DuplicatePush::Discard`]; always `false` otherwise).
    pub discarded: bool,
}

/// How [`plan_lower_push_traced`] treats a push that collides with an
/// existing blob or tombstone for the same iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DuplicatePush {
    /// Panic — the single-attempt runtime never legitimately pushes an
    /// iteration twice, so a collision is a bug.
    Fail,
    /// Count and discard — the elastic runtime re-issues tickets, so a
    /// straggling original and its re-issue may race byte-identical
    /// blobs to the store; whichever lands second is dropped at the
    /// door ([`InstructionStore::push_discarding`]).
    Discard,
}

/// Trace attribution for one planner worker's ticket: where the ticket
/// phases record their spans.
pub struct TicketTraceCtx<'a> {
    /// Recorder (may be disabled).
    pub sink: &'a TraceSink,
    /// Worker lane the spans are attributed to.
    pub worker: i64,
    /// Global host id for export grouping.
    pub host: i64,
    /// Store shard the push lands on (-1 when single / unknown).
    pub shard: i64,
}

impl TicketTraceCtx<'_> {
    /// A `Host`-domain span of `ticket` on this worker's lane; the
    /// recorder fills in its clock.
    pub fn span(&self, ticket: &Ticket, kind: SpanKind) -> Span {
        Span {
            kind,
            iteration: ticket.index as i64,
            lane: self.worker,
            host: self.host,
            generation: ticket.generation,
            ..Span::default()
        }
    }
}

/// One ticket after the shared plan + lower step.
struct LoweredTicket {
    /// The lowered iteration with *owned* programs, or the planning
    /// failure in its place.
    outcome: StoredOutcome,
    /// Worker wall-clock spent planning (µs).
    plan_us: f64,
    /// Worker wall-clock spent lowering (µs).
    lower_us: f64,
}

/// The planner-worker step every runtime path shares: plan the ticket's
/// mini-batch, then lower it to owned programs. Each phase is one
/// [`TraceSink::timed`] call, so its `TicketPlan` / `TicketLower` span
/// and the µs returned for the counters come from the same clock reads.
/// Planning failures are kept as [`StoredOutcome::Failed`] so the
/// executor reports them at exactly the serial iteration.
fn plan_lower(
    planner: &dyn IterationPlanner,
    ticket: &Ticket,
    ctx: &TicketTraceCtx<'_>,
) -> LoweredTicket {
    let (planned, plan_us) = ctx.sink.timed(
        || planner.plan(&ticket.batch),
        |_| Some(ctx.span(ticket, SpanKind::TicketPlan)),
    );
    let (outcome, lower_us) = ctx.sink.timed(
        || match planned {
            Ok(plan) => {
                let programs = lower_owned(planner.cost_model(), &plan);
                StoredOutcome::Plan(StoredLowered { plan, programs })
            }
            Err(e) => StoredOutcome::Failed(e),
        },
        |_| Some(ctx.span(ticket, SpanKind::TicketLower)),
    );
    LoweredTicket {
        outcome,
        plan_us,
        lower_us,
    }
}

/// The store-backed planner-worker body, shared by the plan-ahead
/// runtime and the cluster layer: the shared `plan_lower` step (the
/// plans are about to cross the wire, so they stay owned — sharing
/// `Arc`s buys nothing), then encode with `codec` and push the blob
/// keyed by the ticket's iteration with put-side backpressure. Records
/// one `Host`-domain span per phase (plan / lower / encode+push), a
/// `StorePush` marker, and a `StoreDiscard` marker when the push was
/// dropped at the door as a re-issue duplicate.
///
/// # Panics
///
/// If the push fails — window accounting means a healthy run never
/// blocks long enough to time out, so failure is a crashed-counterpart
/// signal. Callers run it inside [`serve_ticket`], whose guard poisons
/// the queue and store on unwind instead of deadlocking the executor.
pub fn plan_lower_push_traced(
    planner: &dyn IterationPlanner,
    store: &InstructionStore,
    codec: PlanCodec,
    ticket: &Ticket,
    on_duplicate: DuplicatePush,
    ctx: &TicketTraceCtx<'_>,
) -> StorePush {
    let lowered = plan_lower(planner, ticket, ctx);
    let index = ticket.index;
    let ((blob_bytes, discarded), serialize_us) = ctx.sink.timed(
        || {
            let blob = StoredPlan {
                iteration: index,
                outcome: lowered.outcome,
            }
            .encode(codec);
            let blob_bytes = blob.len();
            let discarded = match on_duplicate {
                DuplicatePush::Fail => {
                    store
                        .push_blocking(index, blob, STORE_WAIT)
                        .unwrap_or_else(|e| panic!("instruction store push failed: {e}"));
                    false
                }
                DuplicatePush::Discard => {
                    let outcome = store
                        .push_discarding(index, blob, STORE_WAIT)
                        .unwrap_or_else(|e| panic!("instruction store push failed: {e}"));
                    outcome == crate::store::PushOutcome::DiscardedDuplicate
                }
            };
            (blob_bytes, discarded)
        },
        |&(blob_bytes, _)| {
            Some(Span {
                bytes: blob_bytes as u64,
                ..ctx.span(ticket, SpanKind::TicketEncode)
            })
        },
    );
    let store_span = |kind| Span {
        lane: ctx.shard,
        bytes: blob_bytes as u64,
        ..ctx.span(ticket, kind)
    };
    ctx.sink.mark(store_span(SpanKind::StorePush));
    if discarded {
        ctx.sink.mark(store_span(SpanKind::StoreDiscard));
    }
    StorePush {
        plan_us: lowered.plan_us,
        lower_us: lowered.lower_us,
        serialize_us,
        blob_bytes,
        discarded,
    }
}

/// The engine configuration for one replica of one iteration — the single
/// source of truth shared by the serial driver and the pipelined
/// executor, so both run bit-identical simulations. Jitter seeds are
/// keyed by `(iteration_index, replica)`.
pub fn replica_engine_config(
    cm: &CostModel,
    run: &RunConfig,
    iteration_index: usize,
    replica: usize,
) -> EngineConfig {
    let c = cm.num_stages();
    // Pipeline stages sit `tp` ranks apart, so stages-per-node shrinks by
    // the tensor-parallel degree.
    let mut hw = cm.hw.clone();
    hw.gpus_per_node = (hw.gpus_per_node / cm.parallel.tp).max(1);
    EngineConfig {
        hardware: hw,
        memory_limits: (0..c).map(|j| cm.activation_budget(j)).collect(),
        allocator_mode: run.allocator,
        jitter: run.jitter.map(|j| JitterConfig {
            sigma: j.sigma,
            seed: j.seed ^ (iteration_index as u64) << 8 ^ replica as u64,
        }),
        comm_post_overhead: 2.0,
        record_trace: run.record_trace,
    }
}

/// Whether [`execute_lowered`] runs replica engines one by one or on the
/// rayon pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaParallelism {
    /// Run replicas sequentially, stopping at the first failure — the
    /// golden-reference semantics of the serial driver.
    Serial,
    /// Run the independent replica engines in parallel; results are
    /// folded in replica order, so the outcome (including which failure
    /// is reported) is bit-identical to [`ReplicaParallelism::Serial`].
    Parallel,
}

/// Measurements of one executed iteration.
pub struct IterationExecution {
    /// Simulated iteration time: worst replica makespan plus gradient
    /// sync (µs).
    pub measured_time: Micros,
    /// Measured peak activation per stage (worst replica).
    pub peak_memory: Vec<Bytes>,
    /// Total allocator stall across devices and replicas (µs).
    pub allocator_stall_us: Micros,
    /// Host wall-clock the engines spent simulating, summed over replicas
    /// (µs) — the executor-side cost in the overlap accounting.
    pub host_wall_us: f64,
    /// Per-replica simulated makespans (µs), in replica order — the
    /// cluster layer aggregates these per executor host; `measured_time`
    /// is their max plus the gradient sync.
    pub replica_makespans: Vec<Micros>,
    /// Per-replica engine op traces, in replica order. Empty per replica
    /// unless [`RunConfig::record_trace`] is set; the traced runtimes
    /// adapt these into unified `Sim`-domain `EngineOp` spans.
    pub replica_traces: Vec<Vec<TraceEvent>>,
}

/// [`execute_summarized`] for a caller holding the whole plan.
pub fn execute_lowered(
    cm: &CostModel,
    plan: &IterationPlan,
    programs: &[ReplicaPrograms],
    run: &RunConfig,
    iteration_index: usize,
    mode: ReplicaParallelism,
) -> Result<IterationExecution, String> {
    debug_assert_eq!(plan.replicas.len(), programs.len());
    let summary = IterationSummary::of(plan);
    execute_summarized(cm, &summary, programs, run, iteration_index, mode)
}

/// Execute one lowered iteration's replicas and fold the results exactly
/// as the serial driver does: worst makespan, per-stage max peaks, summed
/// stalls, first failure in replica order.
pub fn execute_summarized(
    cm: &CostModel,
    summary: &IterationSummary,
    programs: &[ReplicaPrograms],
    run: &RunConfig,
    iteration_index: usize,
    mode: ReplicaParallelism,
) -> Result<IterationExecution, String> {
    let c = cm.num_stages();
    let run_replica = |ri: usize| -> Result<SimResult, String> {
        let config = replica_engine_config(cm, run, iteration_index, ri);
        match &programs[ri] {
            ReplicaPrograms::Owned(p) => Engine::with_shared(config, p.clone()).run(),
            ReplicaPrograms::Flat(f) => Engine::from_source(config, f.clone()).run(),
        }
        .map_err(|e| e.to_string())
    };
    let mut exec = IterationExecution {
        measured_time: 0.0,
        peak_memory: vec![0u64; c],
        allocator_stall_us: 0.0,
        host_wall_us: 0.0,
        replica_makespans: Vec::with_capacity(programs.len()),
        replica_traces: Vec::with_capacity(programs.len()),
    };
    let mut worst_makespan: Micros = 0.0;
    let mut makespans: Vec<Micros> = Vec::with_capacity(programs.len());
    let mut fold = |result: SimResult| {
        makespans.push(result.makespan);
        exec.replica_traces.push(result.trace);
        worst_makespan = worst_makespan.max(result.makespan);
        for (j, &p) in result.peak_memory.iter().enumerate() {
            exec.peak_memory[j] = exec.peak_memory[j].max(p);
        }
        exec.allocator_stall_us += result
            .allocator_stats
            .iter()
            .map(|s| s.stall_us)
            .sum::<Micros>();
        exec.host_wall_us += result.host_wall_us;
    };
    match mode {
        ReplicaParallelism::Serial => {
            for ri in 0..programs.len() {
                fold(run_replica(ri)?);
            }
        }
        ReplicaParallelism::Parallel => {
            let results: Vec<Result<SimResult, String>> = (0..programs.len())
                .into_par_iter()
                .map(run_replica)
                .collect();
            for result in results {
                fold(result?);
            }
        }
    }
    drop(fold);
    exec.replica_makespans = makespans;
    exec.measured_time = worst_makespan + summary.dp_sync_time;
    Ok(exec)
}

/// The executor decode: a fetched wire blob into its executable form —
/// the iteration index it carries, plus either the plan's summary with
/// per-replica programs or the planner failure stored in its place.
///
/// Tree codecs ([`PlanCodec::Json`], [`PlanCodec::Binary`]) materialize
/// the owned plan and programs and derive the summary from the plan.
/// [`PlanCodec::Flat`] validates the arena once, reads the fixed-width
/// summary section, and hands back [`ReplicaPrograms::Flat`] views over
/// the very same bytes — the engines execute straight over the wire blob
/// and the plan section is never read. Both prefetchers (single-host and
/// cluster) share this, so the fetched-blob-to-engine boundary is
/// identical by construction.
pub fn decode_executable(codec: PlanCodec, blob: Arc<[u8]>) -> Result<(usize, Executable), String> {
    decode_with(codec, blob, FlatPlanRef::summary, |p| {
        IterationSummary::of(&p)
    })
}

/// [`decode_executable`] with the whole [`IterationPlan`] in place of its
/// summary (on the flat path, rebuilt by [`FlatPlanRef::plan`]) — for
/// callers that inspect the plan, not for the executor.
pub fn decode_for_execution(
    codec: PlanCodec,
    blob: Arc<[u8]>,
) -> Result<(usize, Executable<IterationPlan>), String> {
    decode_with(codec, blob, FlatPlanRef::plan, |p| p)
}

/// The one decode behind [`decode_executable`] and
/// [`decode_for_execution`]: a flat blob is validated once by
/// [`FlatPlanRef::new`] and `flat_meta` reads what the caller wants of
/// its metadata; a tree blob is decoded whole and `tree_meta` reduces
/// its plan.
fn decode_with<M>(
    codec: PlanCodec,
    blob: Arc<[u8]>,
    flat_meta: impl FnOnce(&FlatPlanRef) -> Result<M, CodecError>,
    tree_meta: impl FnOnce(IterationPlan) -> M,
) -> Result<(usize, Executable<M>), String> {
    if codec == PlanCodec::Flat {
        let flat = FlatPlanRef::new(blob).map_err(|e| e.to_string())?;
        let it = flat.iteration();
        if flat.is_failed() {
            return Ok((it, Err(flat.failure().map_err(|e| e.to_string())?)));
        }
        let meta = flat_meta(&flat).map_err(|e| e.to_string())?;
        let programs = flat
            .replicas()
            .into_iter()
            .map(ReplicaPrograms::Flat)
            .collect();
        return Ok((it, Ok((meta, programs))));
    }
    // Engines will run over the owned, deserialized programs — nothing
    // from the planner side of the boundary is referenced.
    let stored = StoredPlan::decode(codec, &blob).map_err(|e| e.to_string())?;
    Ok((stored.iteration, into_executable(stored.outcome, tree_meta)))
}

/// What the executor receives for an iteration index.
pub enum WaitOutcome<T> {
    /// The iteration's planned payload.
    Planned(T),
    /// The epoch ended before this iteration.
    EndOfEpoch,
    /// The run was cancelled (executor failure/teardown) before this
    /// iteration completed planning — only ever observed by a consumer
    /// running ahead of the executor (e.g. the store-mode prefetcher).
    Cancelled,
    /// A bounded [`PlanAheadQueue::wait_for_deadline`] gave up waiting:
    /// the plan is still outstanding after the deadline. The caller
    /// decides what that means — typically a straggler/crash suspicion
    /// followed by [`PlanAheadQueue::reissue`]. An unbounded wait never
    /// returns this.
    Deadline,
}

/// A claimed planning assignment: which iteration to plan, which attempt
/// this is, and the mini-batch (shared with the queue so the ticket can
/// be re-issued to another worker without re-reading the stream).
pub struct Ticket {
    /// Iteration index (== stream index).
    pub index: usize,
    /// Attempt number for this iteration: 0 for the original claim,
    /// bumped by every re-issue. Passed back to
    /// [`PlanAheadQueue::complete`] so late duplicate attempts are
    /// detected and discarded.
    pub generation: u64,
    /// The iteration's mini-batch.
    pub batch: Arc<Vec<Sample>>,
}

/// A claimed-but-not-completed iteration, retained by the queue so the
/// ticket can be re-issued if its holder crashes or straggles.
struct Inflight {
    batch: Arc<Vec<Sample>>,
    /// Current attempt number; completions carrying an older number are
    /// from attempts that were re-issued past.
    generation: u64,
    /// Global worker index of the current holder (for crash-triggered
    /// re-issue of everything a dead host held).
    owner: usize,
    /// Whether the ticket sits in the re-issue queue awaiting a new
    /// claimant (guards against double-queueing).
    queued: bool,
    /// When the current attempt was claimed — re-issue only fires on
    /// attempts older than the caller's deadline, so a freshly
    /// re-claimed ticket is not immediately invalidated again.
    claimed_at: Instant,
}

/// Churn counters of a [`PlanAheadQueue`] (see
/// [`PlanAheadQueue::churn_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueChurn {
    /// Tickets re-issued to a new claimant (deadline, crash, abandon).
    pub reissued: u64,
    /// Completions discarded because the iteration was already completed
    /// by another attempt (a late straggler's duplicate).
    pub stale_completions: u64,
}

/// What [`PlanAheadQueue::complete`] did with a delivered completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompleteOutcome {
    /// The completion was accepted; the executor will consume it.
    Accepted,
    /// Discarded: another attempt already completed this iteration (the
    /// caller's work was wasted, not wrong — attempts are deterministic,
    /// so every attempt produces the identical plan).
    Stale,
    /// Discarded: the run was cancelled (speculative work past a
    /// failure).
    Cancelled,
}

struct QueueState<T> {
    /// Next iteration index the planner pool will claim.
    next_ticket: usize,
    /// Next iteration index the executor will consume.
    next_consume: usize,
    /// Total iterations in the epoch, once the stream dries.
    epoch_len: Option<usize>,
    /// Set by the executor on failure/teardown: workers stop claiming.
    cancelled: bool,
    /// Set when a planner worker panicked mid-iteration: its claimed
    /// ticket will never be fulfilled, so the executor must re-raise
    /// instead of waiting forever.
    worker_panicked: bool,
    /// Completed, not-yet-consumed iterations.
    ready: BTreeMap<usize, T>,
    /// High-water mark of `ready` (bounded by the window).
    max_ready: usize,
    /// Claimed, not-yet-completed iterations (ticket + batch retained
    /// for re-issue).
    inflight: BTreeMap<usize, Inflight>,
    /// Tickets awaiting a new claimant after a re-issue; served before
    /// fresh stream claims (they are older, and the executor is waiting
    /// on them).
    reissue_queue: std::collections::VecDeque<usize>,
    churn: QueueChurn,
}

/// The bounded plan-ahead queue between a planner pool and an in-order
/// executor, generic over the planned payload `T` (this runtime's
/// [`ClaimedIteration`]; the cluster layer's host-annotated receipt).
/// Claiming a ticket pulls the matching mini-batch from the
/// stream under the queue lock, so ticket order always equals stream
/// order; the window condition `next_ticket < next_consume + plan_ahead`
/// bounds both speculation and resident compiled plans.
///
/// # Re-issue and generations (elastic membership)
///
/// Every claimed ticket is retained (batch included) until its
/// completion is accepted, so a ticket whose holder crashes or
/// straggles can be **re-issued** to a healthy worker:
///
/// * [`PlanAheadQueue::wait_for_deadline`] is the executor's bounded
///   wait — on [`WaitOutcome::Deadline`] the caller may call
///   [`PlanAheadQueue::reissue`], which bumps the ticket's generation
///   and hands it to the next claimant (re-issued tickets are served
///   before fresh stream claims);
/// * completions are **first-wins**: planning is deterministic, so every
///   attempt produces the identical plan — the first completion for an
///   iteration is accepted no matter which generation produced it, and
///   every later one is discarded as [`CompleteOutcome::Stale`]
///   (counted, never double-executed). First-wins also means a
///   too-short deadline can never livelock the queue: a spurious
///   re-issue wastes a replan, it cannot invalidate the attempt that
///   finishes first;
/// * a worker that knows it is "dead" (scripted churn) hands a claimed
///   ticket back with [`PlanAheadQueue::abandon`]; an executor that
///   learns a whole host died re-issues everything it held via
///   [`PlanAheadQueue::reissue_claimed_by`].
///
/// `claim` returning `None` still means "nothing left for *you*": at
/// epoch end the pool drains only once no ticket is in flight, so a
/// ticket abandoned by a crashing worker always finds a surviving
/// claimant instead of stranding the executor.
pub struct PlanAheadQueue<T> {
    state: Mutex<QueueState<T>>,
    cv: Condvar,
    window: usize,
    cap: usize,
}

impl<T> PlanAheadQueue<T> {
    /// A queue bounded to `window` in-flight iterations, planning at most
    /// `cap` iterations in total.
    pub fn new(window: usize, cap: usize) -> Self {
        PlanAheadQueue {
            state: Mutex::new(QueueState {
                next_ticket: 0,
                next_consume: 0,
                epoch_len: None,
                cancelled: false,
                worker_panicked: false,
                ready: BTreeMap::new(),
                max_ready: 0,
                inflight: BTreeMap::new(),
                reissue_queue: std::collections::VecDeque::new(),
                churn: QueueChurn::default(),
            }),
            cv: Condvar::new(),
            window,
            cap,
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Claim the next iteration to plan as worker `owner`, blocking while
    /// the window is full. Re-issued tickets are served first. Returns
    /// `None` once there is nothing left to plan (epoch end with no
    /// ticket in flight, iteration cap, or cancellation).
    pub fn claim<D: std::ops::Deref<Target = Dataset>>(
        &self,
        stream: &BatchStream<D>,
        owner: usize,
    ) -> Option<Ticket> {
        let mut st = self.lock();
        loop {
            if st.cancelled {
                return None;
            }
            // Re-issued tickets first: they are within the window by
            // construction (claimed before), and the executor is
            // blocked on them right now.
            if let Some(index) = st.reissue_queue.pop_front() {
                let e = st
                    .inflight
                    .get_mut(&index)
                    .expect("re-issue queue only holds in-flight tickets");
                e.queued = false;
                e.owner = owner;
                // lint:allow(wall-clock): re-issue deadline bookkeeping; expiry widens waits, never changes plan bytes
                e.claimed_at = Instant::now();
                return Some(Ticket {
                    index,
                    generation: e.generation,
                    batch: e.batch.clone(),
                });
            }
            let drained =
                st.next_ticket >= self.cap || st.epoch_len.is_some_and(|len| st.next_ticket >= len);
            if drained {
                // Nothing fresh to claim — but a ticket still in flight
                // may yet come back for re-issue (crash/straggle), so
                // the pool only drains once the last ticket completes.
                if st.inflight.is_empty() {
                    return None;
                }
            } else if st.next_ticket < st.next_consume + self.window {
                // Pull under the queue lock: ticket index == stream index.
                match stream.next_batch() {
                    Some((idx, batch)) => {
                        debug_assert_eq!(idx, st.next_ticket);
                        st.next_ticket += 1;
                        let batch = Arc::new(batch);
                        st.inflight.insert(
                            idx,
                            Inflight {
                                batch: batch.clone(),
                                generation: 0,
                                owner,
                                queued: false,
                                // lint:allow(wall-clock): claim timestamp for deadline expiry; affects wall-clock, not behavior
                                claimed_at: Instant::now(),
                            },
                        );
                        return Some(Ticket {
                            index: idx,
                            generation: 0,
                            batch,
                        });
                    }
                    None => {
                        st.epoch_len = Some(st.next_ticket);
                        self.cv.notify_all();
                        continue; // re-evaluate as drained
                    }
                }
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Deliver a planned iteration (worker side). Completions are
    /// first-wins per iteration: the first one is accepted (whatever its
    /// generation — attempts are deterministic, so all produce the same
    /// plan, and accepting the earliest also cancels a pending re-issue
    /// that no worker picked up yet); any later duplicate is discarded
    /// as [`CompleteOutcome::Stale`], so an iteration is never
    /// double-executed.
    pub fn complete(&self, index: usize, generation: u64, planned: T) -> CompleteOutcome {
        let mut st = self.lock();
        match st.inflight.remove(&index) {
            None => {
                // Already completed by another attempt: a late
                // straggler's duplicate. Discard, never overwrite — and
                // count it even if the run has since been cancelled (a
                // straggler that outlives the epoch is still a recovery
                // the churn accounting must show).
                st.churn.stale_completions += 1;
                CompleteOutcome::Stale
            }
            Some(e) => {
                if st.cancelled {
                    return CompleteOutcome::Cancelled; // speculative work past a failure
                }
                if e.queued {
                    // The original came through before any worker picked
                    // up the re-issue: withdraw it, nothing to replan.
                    st.reissue_queue.retain(|&i| i != index);
                }
                debug_assert!(generation <= e.generation, "generations only move forward");
                st.ready.insert(index, planned);
                debug_assert!(st.ready.len() <= self.window);
                st.max_ready = st.max_ready.max(st.ready.len());
                self.cv.notify_all();
                CompleteOutcome::Accepted
            }
        }
    }

    /// Re-issue iteration `index` to a new claimant if its current
    /// attempt has been in flight for at least `min_age` (typically the
    /// caller's wait deadline, so a freshly re-claimed ticket is not
    /// instantly invalidated again). Returns whether a re-issue was
    /// queued — `false` if the ticket completed meanwhile, was never
    /// claimed (the pool is merely behind, not stuck), or is already
    /// queued for re-claim.
    pub fn reissue(&self, index: usize, min_age: Duration) -> bool {
        let mut st = self.lock();
        let Some(e) = st.inflight.get_mut(&index) else {
            return false;
        };
        if e.queued || e.claimed_at.elapsed() < min_age {
            return false;
        }
        e.generation += 1;
        e.queued = true;
        st.reissue_queue.push_back(index);
        st.churn.reissued += 1;
        self.cv.notify_all();
        true
    }

    /// Hand a claimed ticket back without completing it (a worker that
    /// learned its host "crashed" between claim and plan): the ticket is
    /// re-queued for the surviving workers under a fresh generation.
    /// No-op unless `owner` still holds the current attempt — a crashed
    /// worker whose ticket was already re-issued to (and claimed by) a
    /// healthy worker must not invalidate that live attempt. Returns
    /// whether the ticket was re-queued (and counted as re-issued).
    pub fn abandon(&self, index: usize, owner: usize) -> bool {
        let mut st = self.lock();
        let Some(e) = st.inflight.get_mut(&index) else {
            return false; // completed concurrently — nothing to hand back
        };
        if e.queued || e.owner != owner {
            return false;
        }
        e.generation += 1;
        e.queued = true;
        st.reissue_queue.push_back(index);
        st.churn.reissued += 1;
        self.cv.notify_all();
        true
    }

    /// Re-issue every in-flight ticket whose current holder satisfies
    /// `owned_by` (crash recovery: the executor learned a planner host
    /// died, so everything its workers held is handed to the survivors).
    /// Returns how many tickets were re-queued.
    pub fn reissue_claimed_by(&self, owned_by: impl Fn(usize) -> bool) -> usize {
        let mut st = self.lock();
        // BTreeMap iteration is index-ordered, so the re-claim order is
        // deterministic by construction — no sort needed.
        let indices: Vec<usize> = st
            .inflight
            .iter()
            .filter(|(_, e)| !e.queued && owned_by(e.owner))
            .map(|(&i, _)| i)
            .collect();
        for &index in &indices {
            let e = st.inflight.get_mut(&index).expect("just listed");
            e.generation += 1;
            e.queued = true;
            st.reissue_queue.push_back(index);
            st.churn.reissued += 1;
        }
        if !indices.is_empty() {
            self.cv.notify_all();
        }
        indices.len()
    }

    /// Block until iteration `index`'s outcome is available (executor
    /// side, strictly in order). Does **not** free the iteration's
    /// window slot: call [`PlanAheadQueue::advance`] once the payload is
    /// fully claimed (store-backed, that is after the blob is taken, so
    /// window slots count store occupancy).
    ///
    /// A `Some(deadline)` bounds the wait: it returns
    /// [`WaitOutcome::Deadline`] if the plan is still outstanding after
    /// `deadline` — the fail-stop alternative was an executor that hangs
    /// forever on a planner that dies without panicking. The caller
    /// typically responds with [`PlanAheadQueue::reissue`] and waits
    /// again. `None` waits unboundedly.
    ///
    /// # Panics
    ///
    /// Re-raises if a planner worker panicked: its claimed ticket will
    /// never arrive, and waiting on would deadlock (the worker's own
    /// panic surfaces when the scope joins it).
    pub fn wait_for_deadline(&self, index: usize, deadline: Option<Duration>) -> WaitOutcome<T> {
        // lint:allow(wall-clock): bounded-wait deadline; first-completion-wins keeps results bit-identical
        let give_up = deadline.map(|d| Instant::now() + d);
        let mut st = self.lock();
        loop {
            if st.worker_panicked {
                panic!("a planner worker panicked while planning ahead");
            }
            if let Some(planned) = st.ready.remove(&index) {
                return WaitOutcome::Planned(planned);
            }
            if let Some(len) = st.epoch_len {
                if index >= len {
                    return WaitOutcome::EndOfEpoch;
                }
            }
            if st.cancelled {
                return WaitOutcome::Cancelled;
            }
            match give_up {
                None => st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner()),
                Some(dl) => {
                    // lint:allow(wall-clock): deadline re-check in the bounded wait loop; wall-clock only
                    let now = Instant::now();
                    if now >= dl {
                        return WaitOutcome::Deadline;
                    }
                    let (guard, _) = self
                        .cv
                        .wait_timeout(st, dl - now)
                        .unwrap_or_else(|e| e.into_inner());
                    st = guard;
                }
            }
        }
    }

    /// Churn counters: re-issues and discarded stale completions.
    pub fn churn_stats(&self) -> QueueChurn {
        self.lock().churn
    }

    /// Release iteration `index`'s window slot so the planner pool may
    /// claim another ticket.
    pub fn advance(&self, index: usize) {
        let mut st = self.lock();
        st.next_consume = index + 1;
        self.cv.notify_all();
    }

    /// Stop the planner pool (failure or normal teardown).
    pub fn cancel(&self) {
        let mut st = self.lock();
        st.cancelled = true;
        self.cv.notify_all();
    }

    /// Poison the queue from a panicking worker's unwind path: wake the
    /// executor so it re-raises, and stop the other workers.
    pub fn poison(&self) {
        let mut st = self.lock();
        st.worker_panicked = true;
        st.cancelled = true;
        self.cv.notify_all();
    }

    /// High-water mark of planned-but-unconsumed iterations.
    pub fn max_ready(&self) -> usize {
        self.lock().max_ready
    }
}

/// Unwind guard for a planner worker holding a claimed ticket: if the
/// planner, the lowering stage, or the store push panics, the ticket
/// would never be completed and the executor's in-order wait would
/// deadlock. Dropping the armed guard during unwind poisons the queue —
/// and, store-backed, the store, so an executor blocked in
/// `take_blocking` fails too — so the executor re-raises and the panic
/// propagates through the scope join.
struct TicketGuard<'a, T> {
    queue: &'a PlanAheadQueue<T>,
    store: Option<&'a InstructionStore>,
    armed: bool,
}

impl<'a, T> TicketGuard<'a, T> {
    /// Arm a guard for a freshly claimed ticket; pass the store when the
    /// run is store-backed so a panic poisons it too.
    fn new(queue: &'a PlanAheadQueue<T>, store: Option<&'a InstructionStore>) -> Self {
        TicketGuard {
            queue,
            store,
            armed: true,
        }
    }

    /// Disarm after the ticket was completed: the worker fulfilled its
    /// promise, so an unwind past this point poisons nothing.
    fn disarm(mut self) {
        self.armed = false;
    }
}

impl<T> Drop for TicketGuard<'_, T> {
    fn drop(&mut self) {
        if self.armed {
            if let Some(store) = self.store {
                store.poison("planner worker panicked while planning ahead");
            }
            self.queue.poison();
        }
    }
}

/// The planner-worker body both pooled runtimes share: on a nested rayon
/// pool of `threads` (this worker's share of the global pool), claim
/// tickets as `worker` until the queue has nothing left, handing each to
/// `serve`. `serve` returning `false` stops this worker early (a cluster
/// host that crashed).
pub fn run_planner_worker<T, D: std::ops::Deref<Target = Dataset>>(
    queue: &PlanAheadQueue<T>,
    stream: &BatchStream<D>,
    worker: usize,
    threads: usize,
    mut serve: impl FnMut(Ticket) -> bool,
) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("planner worker pool");
    pool.install(|| {
        while let Some(ticket) = queue.claim(stream, worker) {
            if !serve(ticket) {
                return;
            }
        }
    });
}

/// One claimed ticket's lifecycle, shared by every runtime: mark the
/// claim, arm a `TicketGuard` (given the store when the run is
/// store-backed, so a panic in `produce` poisons it too), deliver what
/// `produce` returns, disarm, then mark the completion with `bytes` = 1
/// when the queue accepted it, 0 when it was stale and 2 when the run
/// was cancelled.
pub fn serve_ticket<T>(
    queue: &PlanAheadQueue<T>,
    store: Option<&InstructionStore>,
    ticket: &Ticket,
    ctx: &TicketTraceCtx<'_>,
    produce: impl FnOnce() -> T,
) {
    ctx.sink.mark(ctx.span(ticket, SpanKind::TicketClaim));
    let guard = TicketGuard::new(queue, store);
    let outcome = queue.complete(ticket.index, ticket.generation, produce());
    guard.disarm();
    let bytes = match outcome {
        CompleteOutcome::Stale => 0,
        CompleteOutcome::Accepted => 1,
        CompleteOutcome::Cancelled => 2,
    };
    ctx.sink.mark(Span {
        bytes,
        ..ctx.span(ticket, SpanKind::TicketComplete)
    });
}

/// The prefetch step both store-backed runtimes share, for iteration
/// `it`: take its blob (bounded wait; one `StoreTake` span on success),
/// free its window slot — the blob has left the store, so window slots
/// count store occupancy — then make the executor decode,
/// [`decode_executable`] (one `Decode` span, only when the decode
/// succeeds). The spans carry store shard `lane` and global
/// `host`. Returns the executable plus the take and the decode µs. A
/// failed take or decode is a crashed counterpart or a corrupt wire
/// blob, not a recoverable outcome: it comes back as the lost-blob
/// message the executor re-raises.
pub fn prefetch_blob<T>(
    queue: &PlanAheadQueue<T>,
    store: &InstructionStore,
    codec: PlanCodec,
    it: usize,
    sink: &TraceSink,
    lane: i64,
    host: i64,
) -> Result<(Executable, f64, f64), String> {
    let span = |kind, bytes| Span {
        kind,
        iteration: it as i64,
        lane,
        host,
        bytes,
        ..Span::default()
    };
    let (taken, take_us) = sink.timed(
        || store.take_blocking(it, STORE_WAIT),
        |taken| Some(span(SpanKind::StoreTake, taken.as_ref().ok()?.len() as u64)),
    );
    queue.advance(it);
    let lost = |e: String| format!("instruction store lost iteration {it}: {e}");
    let blob = taken.map_err(|e| lost(format!("take: {e}")))?;
    let (decoded, decode_us) = sink.timed(
        || decode_executable(codec, blob),
        |decoded| decoded.is_ok().then(|| span(SpanKind::Decode, 0)),
    );
    let (iteration, outcome) = decoded.map_err(|e| lost(format!("decode: {e}")))?;
    debug_assert_eq!(iteration, it, "blob is self-describing");
    Ok((outcome, take_us, decode_us))
}

/// What a store-backed prefetcher hands the executor.
pub enum Prefetched<T> {
    /// The next iteration, decoded ahead of execution.
    Iteration(Box<T>),
    /// The epoch ended.
    EndOfEpoch,
    /// The store lost a blob the queue promised; the executor re-raises
    /// the message.
    Lost(String),
}

/// The executor's receive from a store-backed prefetcher: the next
/// iteration, or `None` at the end of the epoch.
///
/// # Panics
///
/// On a lost blob, or on a prefetcher that died without a message (a
/// planner worker panicked under it). `queue` is cancelled first, so the
/// planner pool unblocks and the scope join surfaces the original panic.
pub fn receive_prefetched<T, Q>(
    rx: &Receiver<Prefetched<T>>,
    queue: &PlanAheadQueue<Q>,
) -> Option<T> {
    let lost = match rx.recv() {
        Ok(Prefetched::Iteration(next)) => return Some(*next),
        Ok(Prefetched::EndOfEpoch) => return None,
        Ok(Prefetched::Lost(e)) => e,
        Err(_) => "a planner worker panicked while planning ahead".to_string(),
    };
    queue.cancel();
    panic!("{lost}");
}

/// Run a received iteration on the engines, or record why it cannot
/// run: a planning failure or an engine error stops the run at `it`
/// (`None`) with the serial driver's message in `report.failure`.
pub fn execute_or_fail(
    cm: &CostModel,
    run: &RunConfig,
    it: usize,
    outcome: Executable,
    report: &mut RunReport,
) -> Option<(IterationSummary, IterationExecution)> {
    let executed = outcome
        .map_err(|e| e.to_string())
        .and_then(|(summary, programs)| {
            let exec = execute_summarized(
                cm,
                &summary,
                &programs,
                run,
                it,
                ReplicaParallelism::Parallel,
            )?;
            Ok((summary, exec))
        });
    match executed {
        Ok(done) => Some(done),
        Err(e) => {
            report.failure = Some(format!("iteration {it}: {e}"));
            None
        }
    }
}

/// The teardown sweep of a store-backed run, once its workers joined:
/// discard the speculative blobs left past a failure, so the store never
/// leaks plans, and return the final counters. Each swept blob marks one
/// `StoreDiscard` span carrying no shard, so the trace keeps matching
/// [`StoreStats::discarded`].
pub fn sweep_store(store: &InstructionStore, sink: &TraceSink) -> StoreStats {
    for _ in 0..store.clear_remaining() {
        sink.mark(Span {
            kind: SpanKind::StoreDiscard,
            ..Span::default()
        });
    }
    store.stats()
}

/// A planned (and lowered) iteration on its way to the executor, with
/// its full distribution-path accounting. In-process it comes straight
/// off the queue; store-backed, the queue carries only the accounting
/// and the prefetcher fills in the take + decode.
struct ClaimedIteration {
    /// The executable iteration; `None` while its blob sits in the store.
    outcome: Option<Executable>,
    /// Worker wall-clock spent planning (µs).
    plan_us: f64,
    /// Worker wall-clock spent lowering (µs).
    lower_us: f64,
    /// Host time since run start when the *executable* plan became
    /// available to the executor (store mode: after take + decode).
    ready_us: f64,
    /// Worker wall-clock spent encoding + pushing the blob (µs).
    serialize_us: f64,
    /// Size of the pushed wire blob.
    blob_bytes: usize,
    /// Prefetcher wall-clock spent taking + decoding the blob (µs).
    deserialize_us: f64,
}

/// Record one executed iteration's `Sim`-domain spans on the ideal
/// simulated timeline (`sim_clock`): per-replica execution intervals,
/// the gradient-sync tail, and (when the engines recorded op traces)
/// each engine op offset into the iteration's window. Everything here
/// derives from behavior-pinned simulated quantities, so the recorded
/// spans are bit-identical across reruns, codecs, placements and churn
/// — the [`dynapipe_trace::sim_eq`] contract. Shared verbatim by the
/// single-host executor and the cluster fold.
pub fn record_sim_iteration(
    sink: &TraceSink,
    it: usize,
    exec: &IterationExecution,
    sim_clock: &mut f64,
) {
    let t0 = *sim_clock;
    *sim_clock += exec.measured_time;
    if !sink.is_enabled() {
        return;
    }
    let mut worst: f64 = 0.0;
    for (r, &mk) in exec.replica_makespans.iter().enumerate() {
        worst = worst.max(mk);
        sink.record(Span {
            domain: ClockDomain::Sim,
            kind: SpanKind::IterExec,
            iteration: it as i64,
            lane: r as i64,
            start_us: t0,
            end_us: t0 + mk,
            ..Span::default()
        });
        for e in &exec.replica_traces[r] {
            sink.record(Span {
                domain: ClockDomain::Sim,
                kind: SpanKind::EngineOp,
                iteration: it as i64,
                lane: r as i64,
                start_us: t0 + e.start,
                end_us: t0 + e.end,
                // EngineOp spans repurpose `generation` as the op class:
                // 0 forward, 1 backward, 2 transfer, 3 allocator stall.
                generation: match e.kind {
                    TraceKind::Forward => 0,
                    TraceKind::Backward => 1,
                    TraceKind::Transfer => 2,
                    TraceKind::AllocStall => 3,
                },
                src: e.device as i64,
                dst: if e.peer == usize::MAX {
                    -1
                } else {
                    e.peer as i64
                },
                ..Span::default()
            });
        }
    }
    sink.record(Span {
        domain: ClockDomain::Sim,
        kind: SpanKind::IterSync,
        iteration: it as i64,
        start_us: t0 + worst,
        end_us: t0 + exec.measured_time,
        ..Span::default()
    });
}

/// Execute one claimed iteration and fold it into the report and stats;
/// returns `false` when the run must stop (planning or execution
/// failure). Shared by both distribution modes so the fold — and thus
/// the report — is identical by construction.
#[allow(clippy::too_many_arguments)]
fn fold_claimed(
    cm: &CostModel,
    run: &RunConfig,
    it: usize,
    claimed: ClaimedIteration,
    report: &mut RunReport,
    stats: &mut RuntimeStats,
    vclock: &mut f64,
    sink: &TraceSink,
    sim_clock: &mut f64,
) -> bool {
    let outcome = claimed
        .outcome
        .expect("the executor receives executable iterations");
    let Some((summary, exec)) = execute_or_fail(cm, run, it, outcome, report) else {
        return false;
    };
    // Overlap accounting on the training timeline: the virtual clock
    // waits until the executable plan is ready — store-backed, that
    // includes any take + decode the prefetcher could not hide — then
    // advances by the simulated execution.
    let exposed = (claimed.ready_us - *vclock).max(0.0);
    if exposed > 0.0 {
        sink.record(Span {
            kind: SpanKind::ExposedPlanning,
            iteration: it as i64,
            host: 0,
            start_us: *vclock,
            end_us: claimed.ready_us,
            // The exact ledger term added to `RuntimeStats::exposed_us`,
            // so Σ span ledgers reconciles bitwise with the counter.
            wait_us: exposed,
            ..Span::default()
        });
    }
    record_sim_iteration(sink, it, &exec, sim_clock);
    *vclock = (*vclock).max(claimed.ready_us) + exec.measured_time;
    stats.planning_us.push(claimed.plan_us + claimed.lower_us);
    stats.exec_sim_us.push(exec.measured_time);
    stats.exposed_us.push(exposed);
    stats.exec_host_us += exec.host_wall_us;
    if stats.distribution == PlanDistribution::StoreBacked {
        stats.serialize_us.push(claimed.serialize_us);
        stats.deserialize_us.push(claimed.deserialize_us);
        stats.blob_bytes.push(claimed.blob_bytes);
    }
    record_iteration(
        report,
        cm,
        &summary,
        exec.measured_time,
        exec.peak_memory,
        exec.allocator_stall_us,
    );
    true
}

/// Timing breakdown of a pipelined run — the data behind the paper's
/// "planning is fully overlapped" argument. All `_us` values are
/// microseconds; see the module docs for the training-timeline semantics.
#[derive(Debug, Clone)]
pub struct RuntimeStats {
    /// Per executed iteration: worker time spent planning + lowering.
    pub planning_us: Vec<f64>,
    /// Per executed iteration: simulated execution time.
    pub exec_sim_us: Vec<f64>,
    /// Per executed iteration: planning time exposed on the training
    /// timeline (the virtual clock waited this long for the plan).
    pub exposed_us: Vec<f64>,
    /// End of the training timeline: Σ execution + exposed planning.
    pub pipelined_wall_us: f64,
    /// Host time spent inside the simulation engines.
    pub exec_host_us: f64,
    /// High-water mark of planned-but-unconsumed iterations (≤ window).
    pub max_plans_resident: usize,
    /// Planner pool size used.
    pub workers: usize,
    /// Plan-ahead window used.
    pub plan_ahead: usize,
    /// Plan-distribution layer used.
    pub distribution: PlanDistribution,
    /// Per executed iteration: worker time spent serializing + pushing
    /// the plan blob (µs). Empty in in-process mode.
    pub serialize_us: Vec<f64>,
    /// Per executed iteration: prefetcher time spent taking + decoding
    /// the plan blob (µs). Usually hidden behind the previous
    /// iteration's execution — the prefetcher decodes ahead — with
    /// iteration 0's decode unavoidably exposed. Empty in in-process
    /// mode.
    pub deserialize_us: Vec<f64>,
    /// Per executed iteration: wire-blob size pushed through the store.
    /// Empty in in-process mode.
    pub blob_bytes: Vec<usize>,
    /// Wire codec the store-backed path used — the label under which
    /// `deserialize_us`/`blob_bytes` were measured (ignored in-process).
    pub codec: PlanCodec,
    /// Final instruction-store counters (store-backed mode only),
    /// captured after teardown — `occupancy`/`bytes` must be zero (no
    /// orphaned blobs) and `peak_occupancy ≤ plan_ahead` (window slots
    /// count store occupancy).
    pub store: Option<StoreStats>,
}

impl RuntimeStats {
    /// Total planning + lowering time across iterations (µs), including
    /// the store-backed serialize/deserialize overhead — every
    /// microsecond the plan-distribution path costs beyond execution.
    pub fn total_planning_us(&self) -> f64 {
        // `+ 0.0` normalizes std's empty-f64-sum identity of -0.0, which
        // would otherwise leak a literal "-0.0" into the JSON artifacts.
        self.planning_us.iter().sum::<f64>() + self.serde_overhead_us() + 0.0
    }

    /// Total serialize + deserialize overhead of the store-backed path
    /// (µs); zero in in-process mode.
    pub fn serde_overhead_us(&self) -> f64 {
        self.serialize_us.iter().sum::<f64>() + self.deserialize_us.iter().sum::<f64>() + 0.0
    }

    /// Planning time exposed on the training timeline (µs).
    pub fn exposed_planning_us(&self) -> f64 {
        self.exposed_us.iter().sum::<f64>() + 0.0
    }

    /// Planning time hidden behind execution (µs).
    pub fn hidden_planning_us(&self) -> f64 {
        (self.total_planning_us() - self.exposed_planning_us()).max(0.0)
    }

    /// Fraction of planning hidden behind execution, in [0, 1].
    pub fn overlap_ratio(&self) -> f64 {
        let total = self.total_planning_us();
        if total <= 0.0 {
            return 1.0;
        }
        self.hidden_planning_us() / total
    }

    /// The counter ledger a trace of this run must reconcile against
    /// (see `dynapipe_trace::Trace::reconcile`). The single-host runtime
    /// moves no wire bytes — the store-backed push is a local handoff —
    /// so every wire field is zero by the wire-byte rule, including
    /// `flat_wire_bytes` (zero-copy execution over a *local* blob is
    /// not wire traffic).
    pub fn trace_meta(&self, label: &str) -> dynapipe_trace::TraceMeta {
        let store = self.store.clone().unwrap_or_default();
        dynapipe_trace::TraceMeta {
            label: label.to_string(),
            codec: match self.distribution {
                PlanDistribution::InProcess => String::new(),
                PlanDistribution::StoreBacked => self.codec.label().to_string(),
            },
            iterations: self.exec_sim_us.len() as u64,
            exec_sim_us: self.exec_sim_us.iter().sum::<f64>() + 0.0,
            exposed_us: self.exposed_planning_us(),
            wall_us: self.pipelined_wall_us,
            store_pushes: store.pushes,
            store_takes: store.takes,
            store_discarded: store.discarded,
            ..dynapipe_trace::TraceMeta::default()
        }
    }
}

/// Run (a prefix of) one training epoch on the pipelined plan-ahead
/// runtime, recording spans into `sink`: the ticket lifecycle and store
/// traffic as `Host`-domain spans, the executed iterations as
/// `Sim`-domain spans on the ideal simulated timeline (see
/// [`record_sim_iteration`]). Pass [`TraceSink::disabled`] to record
/// nothing.
///
/// The produced [`RunReport`] is bit-identical to
/// [`crate::driver::run_training`] with the same arguments, except for
/// the wall-clock `planning_time_us` fields (see
/// [`RunReport::behavior_eq`]); the accompanying [`RuntimeStats`] carries
/// the overlap accounting.
pub fn run_training_pipelined_traced(
    planner: &dyn IterationPlanner,
    dataset: &Dataset,
    gbs: GlobalBatchConfig,
    run: RunConfig,
    config: RuntimeConfig,
    sink: &TraceSink,
) -> (RunReport, RuntimeStats) {
    let config = config.normalized();
    let cm = planner.cost_model();
    let cap = run.max_iterations.unwrap_or(usize::MAX);
    let stream = BatchStream::new(dataset, gbs);
    let queue = PlanAheadQueue::new(config.plan_ahead, cap);
    // lint:allow(wall-clock): run-start clock of each plan's ready_us, which feeds only the exposure stats excluded from behavior_eq
    let t0 = Instant::now();

    let mut report = RunReport::empty(planner.label());
    let mut stats = RuntimeStats {
        planning_us: Vec::new(),
        exec_sim_us: Vec::new(),
        exposed_us: Vec::new(),
        pipelined_wall_us: 0.0,
        exec_host_us: 0.0,
        max_plans_resident: 0,
        workers: config.workers,
        plan_ahead: config.plan_ahead,
        distribution: config.distribution,
        serialize_us: Vec::new(),
        deserialize_us: Vec::new(),
        blob_bytes: Vec::new(),
        codec: config.codec,
        store: None,
    };

    // Store-backed distribution: the window accounting already bounds
    // live blobs to `plan_ahead` (a worker holds its ticket from push
    // until the executor's take), so the capacity gate is a hard
    // backstop that turns an accounting bug into a loud timeout rather
    // than unbounded growth.
    let store = match config.distribution {
        PlanDistribution::InProcess => None,
        PlanDistribution::StoreBacked => Some(InstructionStore::with_capacity(config.plan_ahead)),
    };

    // Nested parallelism budget per planner worker: the pool's threads are
    // split across workers, so each worker runs its nested planning work
    // within its own slot.
    let nested_threads = (rayon::current_num_threads() / config.workers).max(1);

    // Thread order. glibc gives a new thread the malloc arena that an
    // exited thread released last, and keeps the top of a thread's arena
    // resident (`malloc_trim` trims only the main arena's top). So the
    // long-lived threads start in a fixed order — the planner workers,
    // then, once one of them has allocated, the prefetcher — and leave in
    // the reverse, each joined before the next is released. Every run
    // then takes up each role's arena where the last run left it, and the
    // resident set does not depend on which thread happened to start or
    // exit first.
    std::thread::scope(|scope| {
        let mut release_workers = Release::default();
        let mut release_prefetcher = Release::default();

        // A worker holding a ticket has allocated: its arena is taken.
        let (claimed_tx, claimed_rx) = std::sync::mpsc::channel::<()>();
        let mut workers = Vec::with_capacity(config.workers);
        for worker in 0..config.workers {
            let queue = &queue;
            let stream = &stream;
            let store = store.as_ref();
            let held = release_workers.hold();
            let mut claimed = Some(claimed_tx.clone());
            workers.push(scope.spawn(move || {
                run_planner_worker(queue, stream, worker, nested_threads, |ticket| {
                    if let Some(claimed) = claimed.take() {
                        let _ = claimed.send(());
                    }
                    let ctx = TicketTraceCtx {
                        sink,
                        worker: worker as i64,
                        host: 0,
                        shard: 0,
                    };
                    // The lowering stage runs on the worker either way,
                    // so the executor receives ready-to-run programs.
                    serve_ticket(queue, store, &ticket, &ctx, || {
                        let (outcome, plan_us, lower_us, serialize_us, blob_bytes) = match store {
                            None => {
                                let lowered = plan_lower(planner, &ticket, &ctx);
                                let outcome =
                                    into_executable(lowered.outcome, |p| IterationSummary::of(&p));
                                (Some(outcome), lowered.plan_us, lowered.lower_us, 0.0, 0)
                            }
                            Some(store) => {
                                let push = plan_lower_push_traced(
                                    planner,
                                    store,
                                    config.codec,
                                    &ticket,
                                    DuplicatePush::Fail,
                                    &ctx,
                                );
                                (
                                    None,
                                    push.plan_us,
                                    push.lower_us,
                                    push.serialize_us,
                                    push.blob_bytes,
                                )
                            }
                        };
                        ClaimedIteration {
                            outcome,
                            plan_us,
                            lower_us,
                            ready_us: t0.elapsed().as_secs_f64() * 1e6,
                            serialize_us,
                            blob_bytes,
                            deserialize_us: 0.0,
                        }
                    });
                    true
                });
                held.wait();
            }));
        }
        drop(claimed_tx);

        // Store-backed, a **prefetcher** thread runs between the queue
        // and the executor — it takes each blob in order, decodes it,
        // then hands the executable plan over a small bounded channel.
        // That is the paper's executor-side prefetch: deserialization
        // overlaps the previous iteration's execution instead of sitting
        // on the critical path (only iteration 0's decode is unavoidably
        // exposed).
        let (prefetched, prefetcher) = store
            .as_ref()
            .map(|store| {
                let (tx, rx) = std::sync::mpsc::sync_channel(1);
                let queue = &queue;
                let held = release_prefetcher.hold();
                // Until a worker holds a ticket, or every worker is gone.
                let _ = claimed_rx.recv();
                let handle = scope.spawn(move || {
                    // Owning `tx`, the loop closes the channel when it ends.
                    let prefetch_all = move || {
                        for it in 0..cap {
                            let planned = match queue.wait_for_deadline(it, None) {
                                WaitOutcome::Planned(p) => p,
                                WaitOutcome::EndOfEpoch => break,
                                // An unbounded wait never reaches its deadline.
                                WaitOutcome::Cancelled | WaitOutcome::Deadline => return,
                            };
                            let (outcome, take_us, decode_us) =
                                match prefetch_blob(queue, store, config.codec, it, sink, 0, 0) {
                                    Ok(fetched) => fetched,
                                    Err(lost) => {
                                        let _ = tx.send(Prefetched::Lost(lost));
                                        return;
                                    }
                                };
                            let claimed = ClaimedIteration {
                                outcome: Some(outcome),
                                ready_us: t0.elapsed().as_secs_f64() * 1e6,
                                deserialize_us: take_us + decode_us,
                                ..planned
                            };
                            if tx.send(Prefetched::Iteration(Box::new(claimed))).is_err() {
                                return; // executor stopped consuming
                            }
                        }
                        let _ = tx.send(Prefetched::EndOfEpoch);
                    };
                    prefetch_all();
                    held.wait();
                });
                (rx, handle)
            })
            .unzip();

        // The executor: consume strictly in order on the caller thread.
        // In-process, the payload comes straight off the queue;
        // store-backed, from the prefetcher.
        let mut vclock = 0.0f64;
        let mut sim_clock = 0.0f64;
        for it in 0..cap {
            let claimed = match &prefetched {
                None => match queue.wait_for_deadline(it, None) {
                    WaitOutcome::Planned(p) => {
                        queue.advance(it);
                        p
                    }
                    WaitOutcome::EndOfEpoch => break,
                    WaitOutcome::Cancelled | WaitOutcome::Deadline => {
                        unreachable!("only the executor cancels, and the wait is unbounded")
                    }
                },
                Some(rx) => match receive_prefetched(rx, &queue) {
                    Some(claimed) => claimed,
                    None => break,
                },
            };
            if !fold_claimed(
                cm,
                &run,
                it,
                claimed,
                &mut report,
                &mut stats,
                &mut vclock,
                sink,
                &mut sim_clock,
            ) {
                break;
            }
        }
        // Executor done (epoch end, cap, or failure): releasing the
        // channel unblocks a prefetcher stuck in `send`.
        drop(prefetched);
        stats.pipelined_wall_us = vclock;
        // Teardown: stop workers that are waiting on the window or about
        // to claim past a failure, and wake a prefetcher waiting on a
        // plan that will never come.
        queue.cancel();
        // Then release the threads in the reverse of their start order.
        drop(release_prefetcher);
        prefetcher.into_iter().for_each(join_or_resume);
        drop(release_workers);
        workers.into_iter().for_each(join_or_resume);
    });

    stats.store = store.as_ref().map(|store| sweep_store(store, sink));
    stats.max_plans_resident = queue.max_ready();
    (report, stats)
}

/// Join a scoped thread, re-raising its panic on the joining thread.
fn join_or_resume(handle: ScopedJoinHandle<'_, ()>) {
    if let Err(panic) = handle.join() {
        std::panic::resume_unwind(panic);
    }
}

/// A one-shot release: each [`Release::hold`] hands a thread a [`Held`]
/// whose `wait` blocks until the `Release` is dropped — by its owner, or
/// by unwinding, so a panic never strands a held thread.
#[derive(Default)]
struct Release(Vec<Sender<()>>);

impl Release {
    fn hold(&mut self) -> Held {
        let (tx, rx) = std::sync::mpsc::channel();
        self.0.push(tx);
        Held(rx)
    }
}

/// A thread's side of a [`Release`].
struct Held(Receiver<()>);

impl Held {
    /// Block until the release is dropped.
    fn wait(self) {
        // Nothing is ever sent: `recv` returns once the sender is gone.
        let _ = self.0.recv();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_training, simulate_iteration};
    use crate::planner::{DynaPipePlanner, PlannerConfig};
    use dynapipe_cost::ProfileOptions;
    use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};

    fn cost_model(pp: usize, dp: usize) -> Arc<CostModel> {
        Arc::new(CostModel::build(
            HardwareModel::a100_cluster(),
            ModelConfig::gpt_3_35b(),
            ParallelConfig::new(dp, 1, pp),
            &ProfileOptions::coarse(),
        ))
    }

    fn gbs() -> GlobalBatchConfig {
        GlobalBatchConfig {
            tokens_per_batch: 16384,
            max_seq_len: 2048,
        }
    }

    #[test]
    fn parallel_replica_execution_matches_serial_fold() {
        // The satellite invariant: replicas are independent engines, and
        // the parallel fold (worst makespan, per-stage max peaks, summed
        // stalls) must reproduce the serial loop bit for bit.
        let cm = cost_model(2, 2);
        let planner = DynaPipePlanner::new(cm.clone(), PlannerConfig::default());
        let dataset = Dataset::flanv2(61, 400);
        let run = RunConfig::default();
        let stream = BatchStream::new(&dataset, gbs());
        for _ in 0..2 {
            let (it, mb) = stream.next_batch().unwrap();
            let plan = planner.plan_iteration(&mb).unwrap();
            assert_eq!(plan.replicas.len(), 2);
            let programs: Vec<_> = lower_replicas(&cm, &plan)
                .into_iter()
                .map(ReplicaPrograms::Owned)
                .collect();
            let serial =
                execute_lowered(&cm, &plan, &programs, &run, it, ReplicaParallelism::Serial)
                    .unwrap();
            let parallel = execute_lowered(
                &cm,
                &plan,
                &programs,
                &run,
                it,
                ReplicaParallelism::Parallel,
            )
            .unwrap();
            assert_eq!(
                serial.measured_time.to_bits(),
                parallel.measured_time.to_bits()
            );
            assert_eq!(serial.peak_memory, parallel.peak_memory);
            assert_eq!(
                serial.allocator_stall_us.to_bits(),
                parallel.allocator_stall_us.to_bits()
            );
            // And the refactored serial path still backs simulate_iteration.
            let (m, p, s) = simulate_iteration(&cm, &plan, &run, it).unwrap();
            assert_eq!(m.to_bits(), serial.measured_time.to_bits());
            assert_eq!(p, serial.peak_memory);
            assert_eq!(s.to_bits(), serial.allocator_stall_us.to_bits());
        }
    }

    #[test]
    fn planner_worker_panic_propagates_instead_of_deadlocking() {
        // A panicking worker leaves its claimed ticket unfulfilled; the
        // queue must poison itself so the executor re-raises rather than
        // waiting forever (the serial driver would have propagated the
        // panic directly).
        struct PanickingPlanner(Arc<CostModel>);
        impl IterationPlanner for PanickingPlanner {
            fn plan(&self, _: &[Sample]) -> Result<IterationPlan, PlanError> {
                panic!("injected planner panic");
            }
            fn cost_model(&self) -> &CostModel {
                &self.0
            }
            fn label(&self) -> String {
                "panicking".to_string()
            }
        }
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let planner = PanickingPlanner(cost_model(2, 1));
            let dataset = Dataset::flanv2(37, 200);
            let run = RunConfig {
                max_iterations: Some(3),
                ..Default::default()
            };
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_training_pipelined_traced(
                    &planner,
                    &dataset,
                    gbs(),
                    run,
                    RuntimeConfig::default(),
                    &TraceSink::disabled(),
                )
            }))
            .is_err();
            let _ = tx.send(panicked);
        });
        let panicked = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("pipelined run must terminate, not deadlock");
        assert!(panicked, "worker panic must propagate to the caller");
    }

    #[test]
    fn zero_iteration_cap_produces_empty_report() {
        let cm = cost_model(2, 1);
        let planner = DynaPipePlanner::new(cm, PlannerConfig::default());
        let dataset = Dataset::flanv2(33, 200);
        let run = RunConfig {
            max_iterations: Some(0),
            ..Default::default()
        };
        let serial = run_training(&planner, &dataset, gbs(), run);
        let (pipelined, stats) = run_training_pipelined_traced(
            &planner,
            &dataset,
            gbs(),
            run,
            RuntimeConfig::default(),
            &TraceSink::disabled(),
        );
        serial.behavior_eq(&pipelined).unwrap();
        assert!(pipelined.records.is_empty());
        assert_eq!(stats.total_planning_us(), 0.0);
    }

    #[test]
    fn full_epoch_runs_to_stream_end() {
        let cm = cost_model(2, 1);
        let planner = DynaPipePlanner::new(cm, PlannerConfig::default());
        let dataset = Dataset::flanv2(35, 260);
        let run = RunConfig {
            max_iterations: None,
            jitter: None,
            ..Default::default()
        };
        let serial = run_training(&planner, &dataset, gbs(), run);
        let (pipelined, _) = run_training_pipelined_traced(
            &planner,
            &dataset,
            gbs(),
            run,
            RuntimeConfig {
                plan_ahead: 3,
                workers: 2,
                ..Default::default()
            },
            &TraceSink::disabled(),
        );
        serial.behavior_eq(&pipelined).unwrap();
        assert!(!pipelined.records.is_empty());
    }

    #[test]
    fn deadline_then_reissue_recovers_a_straggling_ticket() {
        // The bounded-wait recovery sequence, step by step: worker 0
        // claims a ticket and stalls; the executor's bounded wait times
        // out; the ticket is re-issued under a new generation; worker 1
        // re-claims the very same (index, batch) and completes it; the
        // straggler's late duplicate is discarded as stale — never
        // double-completed.
        let dataset = Dataset::flanv2(41, 200);
        let stream = BatchStream::new(&dataset, gbs());
        let queue: PlanAheadQueue<u32> = PlanAheadQueue::new(2, 4);

        let t0 = queue.claim(&stream, 0).expect("fresh ticket");
        assert_eq!((t0.index, t0.generation), (0, 0));

        // Worker 0 never completes: the bounded wait must give up.
        let deadline = Duration::from_millis(50);
        match queue.wait_for_deadline(0, Some(deadline)) {
            WaitOutcome::Deadline => {}
            _ => panic!("a stalled ticket must surface as Deadline"),
        }

        // Re-issue: the ticket is older than the deadline, so it is
        // queued for the next claimant under generation 1.
        assert!(queue.reissue(0, deadline), "stalled ticket must re-issue");
        assert!(
            !queue.reissue(0, deadline),
            "an already-queued ticket must not double-queue"
        );

        // Worker 1's next claim serves the re-issue, not a fresh pull:
        // same index, same batch, bumped generation.
        let t1 = queue.claim(&stream, 1).expect("re-issued ticket");
        assert_eq!((t1.index, t1.generation), (0, 1));
        assert!(Arc::ptr_eq(&t0.batch, &t1.batch), "same mini-batch");

        // The healthy attempt completes; the executor unblocks.
        assert_eq!(
            queue.complete(0, t1.generation, 7),
            CompleteOutcome::Accepted
        );
        match queue.wait_for_deadline(0, None) {
            WaitOutcome::Planned(v) => assert_eq!(v, 7),
            _ => panic!("accepted completion must reach the executor"),
        }

        // The straggler finally finishes: discarded, not re-delivered.
        assert_eq!(queue.complete(0, t0.generation, 9), CompleteOutcome::Stale);
        assert_eq!(
            queue.churn_stats(),
            QueueChurn {
                reissued: 1,
                stale_completions: 1
            }
        );
    }

    #[test]
    fn first_completion_wins_even_after_reissue() {
        // A too-short deadline can spuriously re-issue a ticket that is
        // merely slow. If the original then completes before any worker
        // picks up the re-issue, it must be ACCEPTED (first-wins) and
        // the pending re-issue withdrawn — otherwise a deadline shorter
        // than planning time would livelock the queue.
        let dataset = Dataset::flanv2(43, 200);
        let stream = BatchStream::new(&dataset, gbs());
        let queue: PlanAheadQueue<u32> = PlanAheadQueue::new(2, 4);

        let t0 = queue.claim(&stream, 0).expect("fresh ticket");
        assert!(queue.reissue(t0.index, Duration::ZERO), "spurious re-issue");
        // Original completes first, with its now-outdated generation.
        assert_eq!(
            queue.complete(t0.index, t0.generation, 5),
            CompleteOutcome::Accepted
        );
        match queue.wait_for_deadline(0, None) {
            WaitOutcome::Planned(v) => assert_eq!(v, 5),
            _ => panic!("first completion must win"),
        }
        // The withdrawn re-issue must not be served to the next claimant
        // as iteration 0 again: the next claim is a fresh index-1 pull.
        let t1 = queue.claim(&stream, 1).expect("fresh ticket");
        assert_eq!((t1.index, t1.generation), (1, 0));
    }

    #[test]
    fn abandoned_ticket_is_reclaimed_at_epoch_end() {
        // A worker that learns its host crashed hands its ticket back
        // via abandon(); with the rest of the epoch already claimed, a
        // surviving worker's claim must WAIT for (and serve) the
        // abandoned ticket instead of returning None and stranding the
        // executor.
        let dataset = Dataset::flanv2(45, 200);
        let stream = BatchStream::new(&dataset, gbs());
        let queue: PlanAheadQueue<u32> = PlanAheadQueue::new(2, 1);

        let t0 = queue.claim(&stream, 0).expect("fresh ticket");
        assert!(queue.abandon(t0.index, 0));
        assert!(!queue.abandon(t0.index, 9)); // wrong owner: must not double-queue
                                              // The cap is exhausted, but the abandoned ticket is in flight:
                                              // the claim must serve it rather than draining the pool.
        let t1 = queue.claim(&stream, 1).expect("abandoned ticket re-served");
        assert_eq!((t1.index, t1.generation), (0, 1));
        // The dead original owner's late abandon must not invalidate the
        // live attempt worker 1 now holds.
        queue.abandon(t1.index, 0);
        assert_eq!(queue.complete(0, 1, 3), CompleteOutcome::Accepted);
        // Now the pool truly drains.
        assert!(queue.claim(&stream, 1).is_none());
    }

    #[test]
    fn reissue_claimed_by_requeues_a_dead_hosts_tickets() {
        let dataset = Dataset::flanv2(47, 400);
        let stream = BatchStream::new(&dataset, gbs());
        let queue: PlanAheadQueue<u32> = PlanAheadQueue::new(4, 8);

        let a = queue.claim(&stream, 0).expect("worker 0 ticket");
        let b = queue.claim(&stream, 1).expect("worker 1 ticket");
        let c = queue.claim(&stream, 2).expect("worker 2 ticket");
        // Workers 0 and 1 lived on the host that just died.
        assert_eq!(queue.reissue_claimed_by(|w| w < 2), 2);
        // A dead worker that notices the crash only now finds its ticket
        // already re-queued: its abandon re-issues nothing.
        assert!(!queue.abandon(a.index, 0));
        // Their tickets come back in index order, generation bumped.
        let r0 = queue.claim(&stream, 2).expect("re-issued");
        let r1 = queue.claim(&stream, 2).expect("re-issued");
        assert_eq!((r0.index, r0.generation), (a.index, 1));
        assert_eq!((r1.index, r1.generation), (b.index, 1));
        // The survivor's own ticket was untouched.
        assert_eq!(
            queue.complete(c.index, c.generation, 1),
            CompleteOutcome::Accepted
        );
        assert_eq!(queue.complete(r0.index, 1, 1), CompleteOutcome::Accepted);
        assert_eq!(queue.complete(r1.index, 1, 1), CompleteOutcome::Accepted);
        assert_eq!(queue.churn_stats().reissued, 2);
    }

    #[test]
    fn prefetch_step_reports_a_failed_take_as_a_lost_blob() {
        let queue: PlanAheadQueue<()> = PlanAheadQueue::new(2, 4);
        let store = InstructionStore::with_capacity(2);
        store.poison("injected");
        let err = prefetch_blob(
            &queue,
            &store,
            PlanCodec::Json,
            0,
            &TraceSink::disabled(),
            0,
            0,
        )
        .expect_err("a poisoned store loses the blob");
        assert!(
            err.starts_with("instruction store lost iteration 0: take: "),
            "{err}"
        );
    }

    #[test]
    fn prefetch_step_reports_a_corrupt_blob_without_a_decode_span() {
        for codec in [PlanCodec::Json, PlanCodec::Binary, PlanCodec::Flat] {
            let queue: PlanAheadQueue<()> = PlanAheadQueue::new(2, 4);
            let store = InstructionStore::with_capacity(2);
            store
                .push(0, b"not a plan blob".to_vec())
                .expect("an empty store accepts a push");
            let sink = TraceSink::bounded(16);
            let err = prefetch_blob(&queue, &store, codec, 0, &sink, 0, 0)
                .expect_err("a corrupt blob is lost");
            let label = codec.label();
            assert!(
                err.starts_with("instruction store lost iteration 0: decode: "),
                "{label}: {err}"
            );
            let trace = sink.finish();
            assert_eq!(trace.of_kind(SpanKind::StoreTake).count(), 1, "{label}");
            assert_eq!(trace.of_kind(SpanKind::Decode).count(), 0, "{label}");
        }
    }

    #[test]
    fn receive_step_cancels_the_queue_before_re_raising_a_lost_blob() {
        let dataset = Dataset::flanv2(49, 200);
        let stream = BatchStream::new(&dataset, gbs());
        let queue: PlanAheadQueue<u32> = PlanAheadQueue::new(2, 4);
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        tx.send(Prefetched::<u32>::Lost("lost iteration 3".to_string()))
            .expect("the receiver is alive");
        let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            receive_prefetched(&rx, &queue)
        }))
        .expect_err("a lost blob must re-raise");
        assert_eq!(
            raised.downcast_ref::<String>().map(String::as_str),
            Some("lost iteration 3")
        );
        assert!(queue.claim(&stream, 0).is_none(), "the queue was cancelled");
    }

    #[test]
    fn store_backed_worker_panic_poisons_store_and_propagates() {
        struct PanickingPlanner(Arc<CostModel>);
        impl IterationPlanner for PanickingPlanner {
            fn plan(&self, _: &[Sample]) -> Result<IterationPlan, PlanError> {
                panic!("injected planner panic");
            }
            fn cost_model(&self) -> &CostModel {
                &self.0
            }
            fn label(&self) -> String {
                "panicking".to_string()
            }
        }
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let planner = PanickingPlanner(cost_model(2, 1));
            let dataset = Dataset::flanv2(37, 200);
            let run = RunConfig {
                max_iterations: Some(3),
                ..Default::default()
            };
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_training_pipelined_traced(
                    &planner,
                    &dataset,
                    gbs(),
                    run,
                    RuntimeConfig {
                        distribution: PlanDistribution::StoreBacked,
                        ..Default::default()
                    },
                    &TraceSink::disabled(),
                )
            }))
            .is_err();
            let _ = tx.send(panicked);
        });
        let panicked = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("store-backed run must terminate, not deadlock");
        assert!(panicked, "worker panic must propagate to the caller");
    }

    #[test]
    fn held_threads_leave_only_when_released() {
        let mut release = Release::default();
        let held = release.hold();
        let (left_tx, left) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            held.wait();
            let _ = left_tx.send(());
        });
        let waited = left.recv_timeout(Duration::from_millis(50));
        assert!(waited.is_err(), "a held thread waits for its release");
        drop(release);
        left.recv_timeout(Duration::from_secs(60))
            .expect("a released thread leaves");
    }

    #[test]
    fn unwinding_owner_releases_held_threads() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let panicked = std::panic::catch_unwind(|| {
                std::thread::scope(|scope| {
                    let mut release = Release::default();
                    let held = release.hold();
                    scope.spawn(move || held.wait());
                    panic!("owner fails before releasing");
                })
            })
            .is_err();
            let _ = tx.send(panicked);
        });
        let panicked = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the scope must end, not wait on a held thread forever");
        assert!(panicked);
    }
}
