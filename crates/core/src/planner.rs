//! The DynaPipe per-iteration planner (Fig. 9's "Planner" module).
//!
//! For each training mini-batch: order the samples, pick the cheapest
//! feasible recomputation mode (§7), split into micro-batches with the DP
//! partitioner (§4), balance across data-parallel replicas with
//! Karmarkar–Karp, optionally reorder micro-batches by execution-time
//! clusters, schedule with 1F1B or the memory-aware adaptive schedule (§5),
//! plan communication (§6), and verify the result deadlock-free.

use dynapipe_batcher::{
    karmarkar_karp, DpConfig, MicroBatch, OrderingStrategy, PaddingStats, Partitioner,
    SliceFwdCosts, SliceShapes,
};
use dynapipe_comm::{plan_communication, verify_deadlock_free, ExecutionPlan, PlanInputs};
use dynapipe_cost::CostModel;
use dynapipe_data::Sample;
use dynapipe_model::memory::RecomputeMode;
use dynapipe_model::{Bytes, MicroBatchShape, Micros};
use dynapipe_schedule::{
    adaptive_schedule, evaluate_schedule, one_f_one_b, reorder_micro_batches, ReorderConfig,
    Schedule, ScheduleInput,
};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Which pipeline schedule the planner emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScheduleKind {
    /// The 1F1B baseline schedule.
    OneFOneB,
    /// DynaPipe's memory-aware adaptive schedule, optionally with
    /// micro-batch reordering by execution-time clustering.
    Adaptive {
        /// Enable cluster-permutation reordering (§5 "micro-batch
        /// ordering").
        reorder: bool,
    },
}

/// Planner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannerConfig {
    /// Sample ordering strategy (sort vs TSP).
    pub ordering: OrderingStrategy,
    /// Pipeline schedule to emit.
    pub schedule: ScheduleKind,
    /// DP partitioner `t_max` resolution (µs).
    pub tmax_resolution_us: Micros,
    /// DP partitioner bound on samples per micro-batch.
    pub max_mb_samples: usize,
    /// DP partitioner target number of `t_max` candidates (not a hard
    /// cap; see `DpConfig::max_candidates`).
    pub max_candidates: usize,
    /// Clusters for micro-batch reordering.
    pub reorder_clusters: usize,
    /// Fraction of the activation budget the planner may use (head-room
    /// against estimation error).
    pub memory_safety: f64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            ordering: OrderingStrategy::Sort,
            schedule: ScheduleKind::Adaptive { reorder: true },
            tmax_resolution_us: 5.0,
            max_mb_samples: 128,
            max_candidates: 96,
            reorder_clusters: 3,
            memory_safety: DEFAULT_MEMORY_SAFETY,
        }
    }
}

/// Why planning failed for a mini-batch.
///
/// Serializable: a planning failure travels through the
/// [`crate::store::InstructionStore`] like any other outcome, so a
/// store-backed executor reports it at exactly the iteration the serial
/// driver would, with an identical message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanError {
    /// No recomputation mode yields a memory-feasible plan.
    Infeasible(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Infeasible(m) => write!(f, "infeasible iteration: {m}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// The compiled plan for one data-parallel replica.
///
/// Serializable (float-exact): replica plans are part of the
/// [`crate::store::StoredPlan`] wire format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaPlan {
    /// Instruction streams and shapes.
    pub plan: ExecutionPlan,
    /// The schedule the plan encodes (kept for analysis).
    pub schedule: Schedule,
    /// Estimated makespan from the planning timeline (µs).
    pub est_makespan: Micros,
    /// Estimated peak activation memory per stage.
    pub est_peak_memory: Vec<Bytes>,
}

/// A complete iteration plan across replicas.
///
/// Serializable (float-exact): iteration plans cross the instruction
/// store's process boundary in the store-backed runtime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationPlan {
    /// One plan per data-parallel replica.
    pub replicas: Vec<ReplicaPlan>,
    /// Recomputation mode selected for the iteration.
    pub recompute: RecomputeMode,
    /// Estimated iteration time: slowest replica plus gradient sync (µs).
    pub est_iteration_time: Micros,
    /// Data-parallel gradient synchronization time (µs).
    pub dp_sync_time: Micros,
    /// Padding statistics of the chosen micro-batching.
    pub padding: PaddingStats,
    /// Total micro-batches across replicas.
    pub num_micro_batches: usize,
    /// Non-padding tokens in the mini-batch.
    pub actual_tokens: u64,
    /// Wall-clock planning time (µs) — the Fig. 17 metric.
    pub planning_time_us: f64,
}

/// Default fraction of the activation budget planners may fill; the rest
/// absorbs estimation error and executor workspace (see
/// `compile::workspace_bytes`).
pub const DEFAULT_MEMORY_SAFETY: f64 = 0.92;

/// The DynaPipe planner.
pub struct DynaPipePlanner {
    /// Shared cost model.
    pub cm: Arc<CostModel>,
    /// Configuration.
    pub config: PlannerConfig,
}

/// Reusable per-mini-batch planning state shared across the §7
/// recompute-mode sweep: the ordered samples, the activation budget, and
/// the DP partitioner's mode-independent passes — the slice shape pass
/// and the mode-independent cost table with its batched grid-query plan
/// (every distinct shape's grid coordinates located, and its forward,
/// backward and LM-head terms priced, once; each mode's cost pass queries
/// only its own grids against that plan).
pub struct PlanContext<'a> {
    /// The mini-batch, already ordered by the planner's strategy.
    pub ordered: &'a [Sample],
    /// Activation budget the plans work against.
    pub budget: Bytes,
    /// Shared shape pass over `ordered`.
    pub shapes: SliceShapes,
    /// Shared mode-independent cost terms and located grid-query plan
    /// for the shape pass.
    pub fwd: SliceFwdCosts,
}

impl DynaPipePlanner {
    /// Planner over `cm` with `config`.
    pub fn new(cm: Arc<CostModel>, config: PlannerConfig) -> Self {
        DynaPipePlanner { cm, config }
    }

    /// Plan one training iteration for `minibatch`.
    pub fn plan_iteration(&self, minibatch: &[Sample]) -> Result<IterationPlan, PlanError> {
        // lint:allow(wall-clock): planning-time measurement for RunReport stats, excluded from behavior_eq
        let t0 = Instant::now();
        let cm = &*self.cm;
        if minibatch.is_empty() {
            return Ok(IterationPlan {
                replicas: Vec::new(),
                recompute: RecomputeMode::None,
                est_iteration_time: 0.0,
                dp_sync_time: 0.0,
                padding: PaddingStats::default(),
                num_micro_batches: 0,
                actual_tokens: 0,
                planning_time_us: t0.elapsed().as_secs_f64() * 1e6,
            });
        }
        let mut samples = minibatch.to_vec();
        self.config.ordering.apply(cm.model.arch, &mut samples);
        let budget = self.planning_budget();
        if budget == 0 {
            return Err(PlanError::Infeasible("no activation budget".into()));
        }
        let mut last_err = String::from("no recompute mode attempted");
        // §7 dynamic recomputation: re-plan under every recomputation
        // scheme and keep the plan with the best estimated iteration time.
        // Cheaper modes store more activations, which caps micro-batch
        // sizes — on activation-heavy models (T5's huge FFN), paying
        // recomputation to unlock larger micro-batches is a net win, so
        // "first feasible" would be wrong.
        //
        // The modes are independent, so the sweep runs on the rayon pool;
        // each mode re-prices the context's shared slice shape pass
        // instead of rebuilding it. Results are folded in mode order with
        // a strict comparison, so the selected plan is the same as the
        // serial sweep's (ties keep the cheapest-in-time-order mode).
        let ctx = self.plan_context(&samples, budget);
        let mut best: Option<IterationPlan> = None;
        let outcomes: Vec<Result<IterationPlan, (RecomputeMode, String)>> = RecomputeMode::ALL
            .par_iter()
            .map(|&mode| self.plan_with_mode_ctx(&ctx, mode).map_err(|e| (mode, e)))
            .collect();
        for outcome in outcomes {
            match outcome {
                Ok(candidate) => {
                    if best
                        .as_ref()
                        .is_none_or(|b| candidate.est_iteration_time < b.est_iteration_time)
                    {
                        best = Some(candidate);
                    }
                }
                Err((mode, e)) => last_err = format!("{} recomputation: {e}", mode.label()),
            }
        }
        match best {
            Some(mut plan) => {
                plan.planning_time_us = t0.elapsed().as_secs_f64() * 1e6;
                Ok(plan)
            }
            None => Err(PlanError::Infeasible(last_err)),
        }
    }

    /// Build the reusable planning context for an ordered mini-batch: runs
    /// the DP partitioner's mode-independent shape pass and cost table
    /// once so the §7 sweep (and any caller comparing modes) shares them.
    pub fn plan_context<'a>(&self, ordered: &'a [Sample], budget: Bytes) -> PlanContext<'a> {
        let shapes = SliceShapes::build(self.cm.model.arch, ordered, self.config.max_mb_samples);
        let fwd = SliceFwdCosts::build(&self.cm, &shapes);
        PlanContext {
            ordered,
            budget,
            shapes,
            fwd,
        }
    }

    /// Plan the (already ordered) samples under one fixed recomputation
    /// mode. Exposed for the recomputation ablation; builds a fresh
    /// context — `plan_iteration` sweeps all modes through
    /// [`DynaPipePlanner::plan_with_mode_ctx`] over one shared context.
    pub fn plan_with_mode(
        &self,
        ordered: &[Sample],
        budget: Bytes,
        mode: RecomputeMode,
    ) -> Result<IterationPlan, String> {
        self.plan_with_mode_ctx(&self.plan_context(ordered, budget), mode)
    }

    /// Plan one recomputation mode against a shared [`PlanContext`]: the
    /// DP partitioner re-prices the context's slice shape pass under
    /// `mode` instead of rebuilding it.
    pub fn plan_with_mode_ctx(
        &self,
        ctx: &PlanContext<'_>,
        mode: RecomputeMode,
    ) -> Result<IterationPlan, String> {
        let cm = &*self.cm;
        let ordered = ctx.ordered;
        let budget = ctx.budget;
        let c = cm.num_stages();
        // Per-micro-batch memory limit: 1F1B keeps up to c activations in
        // flight; the adaptive schedule self-limits, needing only a single
        // micro-batch to fit (§4 "Limit memory consumption").
        let per_mb_limit = match self.config.schedule {
            ScheduleKind::OneFOneB => budget / c.max(1) as u64,
            ScheduleKind::Adaptive { .. } => budget,
        };
        let dp_cfg = DpConfig {
            tmax_resolution_us: self.config.tmax_resolution_us,
            max_mb_samples: self.config.max_mb_samples,
            mb_memory_limit: per_mb_limit,
            recompute: mode,
            dp_degree: cm.parallel.dp,
            max_candidates: self.config.max_candidates,
            probe_stop_divisor: DpConfig::PROBE_STOP_DIVISOR,
        };
        let partitioner = Partitioner::new(cm, dp_cfg);
        let partition = partitioner
            .partition_with_context(&ctx.shapes, &ctx.fwd, ordered)
            .ok_or_else(|| "no feasible micro-batch split".to_string())?;
        // Balance micro-batches across data-parallel replicas.
        let groups = karmarkar_karp(&partition.mb_times, cm.parallel.dp);
        let mut replicas = Vec::with_capacity(groups.len());
        for group in &groups {
            let mut idx = group.clone();
            idx.sort_unstable();
            let mbs: Vec<&MicroBatch> = idx.iter().map(|&i| &partition.micro_batches[i]).collect();
            let shapes: Vec<MicroBatchShape> =
                mbs.iter().map(|mb| mb.shape(cm.model.arch)).collect();
            replicas.push(plan_replica(
                cm,
                &shapes,
                mode,
                self.config.schedule,
                budget,
                self.config.reorder_clusters,
            )?);
        }
        let dp_sync_time = dp_sync_time(cm);
        let est_iteration_time =
            replicas.iter().map(|r| r.est_makespan).fold(0.0, f64::max) + dp_sync_time;
        let padding = PaddingStats::from_micro_batches(&partition.micro_batches, cm.model.arch);
        let actual_tokens: u64 = ordered.iter().map(|s| s.total_tokens() as u64).sum();
        Ok(IterationPlan {
            num_micro_batches: partition.num_micro_batches(),
            replicas,
            recompute: mode,
            est_iteration_time,
            dp_sync_time,
            padding,
            actual_tokens,
            planning_time_us: 0.0,
        })
    }

    /// The activation budget the planner works against (device memory minus
    /// static state, scaled by the configured safety factor).
    pub fn planning_budget(&self) -> Bytes {
        (self.cm.min_activation_budget() as f64 * self.config.memory_safety) as Bytes
    }
}

/// Build the scheduler input for a replica's micro-batch shapes.
pub fn schedule_input_for(
    cm: &CostModel,
    shapes: &[MicroBatchShape],
    mode: RecomputeMode,
    budget: Bytes,
) -> ScheduleInput {
    let c = cm.num_stages();
    let fwd = shapes
        .iter()
        .map(|sh| (0..c).map(|j| cm.stage_fwd(j, sh)).collect())
        .collect();
    let bwd = shapes
        .iter()
        .map(|sh| (0..c).map(|j| cm.stage_bwd(j, sh, mode)).collect())
        .collect();
    let act = shapes
        .iter()
        .map(|sh| (0..c).map(|j| cm.stage_activation(j, sh, mode)).collect())
        .collect();
    let comm = shapes
        .iter()
        .map(|sh| {
            (0..c.saturating_sub(1))
                .map(|j| {
                    let bytes = cm.boundary_bytes(j, sh);
                    let a = j * cm.parallel.tp;
                    let b = (j + 1) * cm.parallel.tp;
                    cm.hw.p2p_time(bytes, cm.hw.same_node(a, b))
                })
                .collect()
        })
        .collect();
    // Use each stage's own budget, capped by the requested global budget.
    let mem_limit = (0..c)
        .map(|j| cm.activation_budget(j).min(budget))
        .collect();
    ScheduleInput {
        fwd,
        bwd,
        act,
        mem_limit,
        comm,
    }
}

/// Schedule, plan communication and verify one replica.
pub fn plan_replica(
    cm: &CostModel,
    shapes: &[MicroBatchShape],
    mode: RecomputeMode,
    kind: ScheduleKind,
    budget: Bytes,
    reorder_clusters: usize,
) -> Result<ReplicaPlan, String> {
    let input = schedule_input_for(cm, shapes, mode, budget);
    let (input, shapes): (ScheduleInput, Vec<MicroBatchShape>) = match kind {
        ScheduleKind::Adaptive { reorder: true } if shapes.len() > 1 => {
            let (order, _) = reorder_micro_batches(
                &input,
                &ReorderConfig {
                    num_clusters: reorder_clusters,
                },
            );
            let selected = input.select(&order);
            let sh = order.iter().map(|&i| shapes[i]).collect();
            (selected, sh)
        }
        _ => (input, shapes.to_vec()),
    };
    let schedule = match kind {
        ScheduleKind::OneFOneB => one_f_one_b(shapes.len(), cm.num_stages()),
        ScheduleKind::Adaptive { .. } => adaptive_schedule(&input),
    };
    // Memory feasibility: the adaptive schedule honours limits by
    // construction; 1F1B must be checked.
    let peaks = schedule.peak_memory(&input.act);
    for (j, &p) in peaks.iter().enumerate() {
        if p > input.mem_limit[j] {
            return Err(format!(
                "stage {j} peak activation {p} B exceeds limit {} B (OOM)",
                input.mem_limit[j]
            ));
        }
    }
    let timeline = evaluate_schedule(&schedule, &input)?;
    let c = cm.num_stages();
    let boundary_bytes: Vec<Vec<Bytes>> = shapes
        .iter()
        .map(|sh| {
            (0..c.saturating_sub(1))
                .map(|j| cm.boundary_bytes(j, sh))
                .collect()
        })
        .collect();
    let plan = plan_communication(&PlanInputs {
        schedule: &schedule,
        timeline: &timeline,
        boundary_bytes: &boundary_bytes,
        shapes: &shapes,
        recompute: mode,
    });
    plan.validate()?;
    verify_deadlock_free(&plan).map_err(|e| e.to_string())?;
    Ok(ReplicaPlan {
        est_makespan: timeline.times.makespan,
        est_peak_memory: peaks,
        plan,
        schedule,
    })
}

/// Data-parallel gradient synchronization time for the deployment.
pub fn dp_sync_time(cm: &CostModel) -> Micros {
    if cm.parallel.dp <= 1 {
        return 0.0;
    }
    let spans_nodes = cm.parallel.num_gpus() > cm.hw.gpus_per_node;
    (0..cm.num_stages())
        .map(|j| {
            let params = cm
                .mem
                .stage_params(&cm.model, cm.layout.stage(j), cm.parallel.tp);
            cm.hw
                .dp_gradient_sync_time(params, cm.parallel.dp, spans_nodes)
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynapipe_cost::ProfileOptions;
    use dynapipe_data::Dataset;
    use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};

    fn planner(pp: usize, dp: usize) -> DynaPipePlanner {
        // GPT-3.35B fits comfortably in these small test deployments
        // (6.7B at tp=1 genuinely exceeds 40 GB of model state per stage).
        let cm = Arc::new(CostModel::build(
            HardwareModel::a100_cluster(),
            ModelConfig::gpt_3_35b(),
            ParallelConfig::new(dp, 1, pp),
            &ProfileOptions::coarse(),
        ));
        DynaPipePlanner::new(cm, PlannerConfig::default())
    }

    fn minibatch(n: usize) -> Vec<Sample> {
        let d = Dataset::flanv2(17, n);
        d.samples.iter().map(|s| s.truncated(2048)).collect()
    }

    #[test]
    fn plan_iteration_produces_verified_plans() {
        let p = planner(4, 1);
        let plan = p.plan_iteration(&minibatch(48)).unwrap();
        assert_eq!(plan.replicas.len(), 1);
        assert!(plan.num_micro_batches >= 2);
        assert!(plan.est_iteration_time > 0.0);
        assert!(plan.planning_time_us > 0.0);
        for r in &plan.replicas {
            r.plan.validate().unwrap();
            verify_deadlock_free(&r.plan).unwrap();
        }
    }

    #[test]
    fn data_parallel_splits_micro_batches() {
        let p = planner(2, 2);
        let plan = p.plan_iteration(&minibatch(64)).unwrap();
        assert_eq!(plan.replicas.len(), 2);
        let total: usize = plan
            .replicas
            .iter()
            .map(|r| r.plan.num_micro_batches())
            .sum();
        assert_eq!(total, plan.num_micro_batches);
        assert!(plan.dp_sync_time > 0.0);
        // Replicas should be roughly balanced (KK): within 2.5x.
        let m0 = plan.replicas[0].est_makespan;
        let m1 = plan.replicas[1].est_makespan;
        assert!(m0.max(m1) / m0.min(m1) < 2.5, "m0={m0} m1={m1}");
    }

    #[test]
    fn planner_prefers_cheapest_recompute_mode() {
        let p = planner(4, 1);
        let plan = p.plan_iteration(&minibatch(32)).unwrap();
        // Plenty of memory for GPT-3.35B at msl 2048 on 4 stages:
        // no recomputation needed.
        assert_eq!(plan.recompute, RecomputeMode::None);
    }

    #[test]
    fn onefb_schedule_kind_produces_valid_plans() {
        let cm = planner(4, 1).cm;
        let mut cfg = PlannerConfig::default();
        cfg.schedule = ScheduleKind::OneFOneB;
        let p = DynaPipePlanner::new(cm, cfg);
        let plan = p.plan_iteration(&minibatch(48)).unwrap();
        for r in &plan.replicas {
            verify_deadlock_free(&r.plan).unwrap();
        }
    }

    #[test]
    fn empty_minibatch_plans_trivially() {
        let p = planner(2, 1);
        let plan = p.plan_iteration(&[]).unwrap();
        assert_eq!(plan.num_micro_batches, 0);
        assert_eq!(plan.actual_tokens, 0);
    }

    #[test]
    fn padding_efficiency_is_high() {
        // The DP split groups similar lengths: efficiency well above the
        // naive-padding disaster (<0.2 on FLANv2-like data).
        let p = planner(4, 1);
        let plan = p.plan_iteration(&minibatch(128)).unwrap();
        assert!(
            plan.padding.efficiency() > 0.6,
            "efficiency {}",
            plan.padding.efficiency()
        );
    }

    #[test]
    fn mode_selection_matches_best_single_mode() {
        // The planner must return the mode with the minimum estimated
        // iteration time among the feasible ones (§7's dynamic
        // recomputation) — not merely the first feasible.
        let p = planner(4, 1);
        let mut samples = minibatch(64);
        dynapipe_batcher::sort_samples(p.cm.model.arch, &mut samples);
        let budget = p.planning_budget();
        let chosen = p.plan_iteration(&samples).unwrap();
        let mut best_single = f64::INFINITY;
        for mode in RecomputeMode::ALL {
            if let Ok(plan) = p.plan_with_mode(&samples, budget, mode) {
                best_single = best_single.min(plan.est_iteration_time);
            }
        }
        assert!(
            (chosen.est_iteration_time - best_single).abs() / best_single < 1e-9,
            "chosen {} vs best single-mode {best_single}",
            chosen.est_iteration_time
        );
    }

    #[test]
    fn recompute_pays_off_on_activation_heavy_t5() {
        // T5's huge FFN makes stored activations the bottleneck: the
        // planner should find that a recomputation mode (bigger
        // micro-batches) beats storing everything.
        let cm = Arc::new(CostModel::build(
            HardwareModel::a100_cluster(),
            ModelConfig::t5_11b(),
            ParallelConfig::new(1, 4, 2),
            &ProfileOptions::coarse(),
        ));
        let p = DynaPipePlanner::new(cm, PlannerConfig::default());
        let mut samples: Vec<Sample> = Dataset::flanv2(29, 600)
            .samples
            .iter()
            .map(|s| s.truncated(512))
            .collect();
        dynapipe_batcher::sort_samples(p.cm.model.arch, &mut samples);
        let plan = p.plan_iteration(&samples).unwrap();
        assert_ne!(
            plan.recompute,
            RecomputeMode::None,
            "activation-bound T5 should choose a recomputation mode"
        );
        // And the choice must genuinely be at least as good as None.
        if let Ok(none_plan) = p.plan_with_mode(&samples, p.planning_budget(), RecomputeMode::None)
        {
            assert!(plan.est_iteration_time <= none_plan.est_iteration_time + 1e-6);
        }
    }

    #[test]
    fn est_peak_memory_within_budget() {
        let p = planner(4, 1);
        let plan = p.plan_iteration(&minibatch(64)).unwrap();
        for r in &plan.replicas {
            for (j, &peak) in r.est_peak_memory.iter().enumerate() {
                assert!(peak <= p.cm.activation_budget(j));
            }
        }
    }
}
