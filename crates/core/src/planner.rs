//! The DynaPipe per-iteration planner (Fig. 9's "Planner" module).
//!
//! For each training mini-batch: order the samples, pick the cheapest
//! feasible recomputation mode (§7), split into micro-batches with the DP
//! partitioner (§4), balance across data-parallel replicas with
//! Karmarkar–Karp, optionally reorder micro-batches by execution-time
//! clusters, schedule with 1F1B or the memory-aware adaptive schedule (§5),
//! plan communication (§6), and verify the result deadlock-free.
//!
//! The §7 sweep is split in two. *Scoring* runs every mode, in parallel,
//! as far as its estimated iteration time: partition, balance, schedule
//! and evaluate. *Finishing* plans communication and verifies, and runs
//! only for the mode the planner keeps: modes are finished in (estimate,
//! mode index) order until one verifies. That is the plan that finishing
//! every mode and folding them in mode order would give, and on failure
//! the same error, except that a mode is not finished once a replica of it
//! fails to score: such a mode reports the scoring error even if an
//! earlier replica of it would not have finished.

use dynapipe_batcher::{
    karmarkar_karp, DpConfig, OrderingStrategy, PaddingStats, Partitioner, SliceFwdCosts,
    SliceShapes,
};
use dynapipe_comm::{plan_communication, verify_deadlock_free, ExecutionPlan, PlanInputs};
use dynapipe_cost::CostModel;
use dynapipe_data::Sample;
use dynapipe_model::memory::RecomputeMode;
use dynapipe_model::{Bytes, MicroBatchShape, Micros};
use dynapipe_schedule::{
    adaptive_schedule, evaluate_schedule, one_f_one_b, reorder_with_schedule, ReorderConfig,
    Schedule, ScheduleInput, Timeline,
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
/// the DP partitioner's two shared passes — the slice shape pass and the
/// pricing pass, which prices every distinct shape under every
/// recomputation mode in one visit of its located grid cells. Each mode's
/// partition only applies its memory limit to its own prices.
pub struct PlanContext<'a> {
    /// The mini-batch, already ordered by the planner's strategy.
    pub ordered: &'a [Sample],
    /// Activation budget the plans work against.
    pub budget: Bytes,
    /// Shared shape pass over `ordered`.
    pub shapes: SliceShapes,
    /// Every recomputation mode's time and activation per distinct shape
    /// of the shape pass.
    pub fwd: SliceFwdCosts,
}

/// One recomputation mode's plan, scored: partitioned, balanced,
/// scheduled and evaluated, with communication not yet planned. It holds
/// everything §7 compares modes on and everything finishing needs.
struct ScoredMode {
    recompute: RecomputeMode,
    replicas: Vec<ScoredReplica>,
    est_iteration_time: Micros,
    dp_sync_time: Micros,
    padding: PaddingStats,
    num_micro_batches: usize,
    actual_tokens: u64,
}

/// One replica's schedule, scored: what [`plan_replica`] builds before it
/// plans communication.
struct ScoredReplica {
    /// Micro-batch shapes in injection order.
    shapes: Vec<MicroBatchShape>,
    schedule: Schedule,
    timeline: Timeline,
    peaks: Vec<Bytes>,
}

/// §7's choice over scored modes: finish modes in ascending estimate, the
/// lower mode index first on equal estimates, until one finishes.
///
/// `scores` holds one entry per mode in mode order: its estimate and
/// payload, or the error that stopped its scoring. The result is the
/// first finished plan; if no mode finishes, the error of the highest
/// mode index. That is what finishing every mode and folding them in mode
/// order with a strict `<` on the estimates gives, because a mode's
/// estimate does not depend on finishing it. Estimates are finite and
/// never `-0.0` (makespans fold up from `0.0`), so the ascending order is
/// that fold's order. `Err(None)` means there were no modes.
fn finish_best<S, P, E>(
    scores: Vec<Result<(Micros, S), E>>,
    mut finish: impl FnMut(S) -> Result<P, E>,
) -> Result<P, Option<E>> {
    let mut errors: Vec<Option<E>> = Vec::with_capacity(scores.len());
    let mut scored = Vec::new();
    for (mode, score) in scores.into_iter().enumerate() {
        match score {
            Ok((est, payload)) => {
                scored.push((est, mode, payload));
                errors.push(None);
            }
            Err(e) => errors.push(Some(e)),
        }
    }
    // A stable sort keeps mode order among equal estimates.
    scored.sort_by(|a, b| a.0.total_cmp(&b.0));
    for (_, mode, payload) in scored {
        match finish(payload) {
            Ok(plan) => return Ok(plan),
            Err(e) => errors[mode] = Some(e),
        }
    }
    Err(errors.into_iter().flatten().last())
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
        // §7 dynamic recomputation: plan under every recomputation scheme
        // and keep the plan with the best estimated iteration time.
        // Cheaper modes store more activations, which caps micro-batch
        // sizes — on activation-heavy models (T5's huge FFN), paying
        // recomputation to unlock larger micro-batches is a net win, so
        // "first feasible" would be wrong.
        //
        // Score, then finish: the modes are scored independently on the
        // rayon pool, each reading the context's shared shape and pricing
        // passes; after the join only the chosen mode plans communication
        // and verifies (the next best if it fails; see `finish_best`).
        let ctx = self.plan_context(&samples, budget);
        let scores: Vec<Result<(Micros, ScoredMode), String>> = RecomputeMode::ALL
            .par_iter()
            .map(|&mode| {
                self.score_mode(&ctx, mode)
                    .map(|s| (s.est_iteration_time, s))
                    .map_err(|e| format!("{} recomputation: {e}", mode.label()))
            })
            .collect();
        let chosen = finish_best(scores, |scored| {
            let label = scored.recompute.label();
            finish_mode(cm, scored).map_err(|e| format!("{label} recomputation: {e}"))
        });
        match chosen {
            Ok(mut plan) => {
                plan.planning_time_us = t0.elapsed().as_secs_f64() * 1e6;
                Ok(plan)
            }
            Err(last_err) => Err(PlanError::Infeasible(
                last_err.unwrap_or_else(|| "no recompute mode attempted".into()),
            )),
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
    /// mode: score it, then finish it. Exposed for the recomputation
    /// ablation; builds a fresh context.
    pub fn plan_with_mode(
        &self,
        ordered: &[Sample],
        budget: Bytes,
        mode: RecomputeMode,
    ) -> Result<IterationPlan, String> {
        let scored = self.score_mode(&self.plan_context(ordered, budget), mode)?;
        finish_mode(&self.cm, scored)
    }

    /// Score one recomputation mode against a shared [`PlanContext`]:
    /// partition (re-pricing nothing: the context priced every mode),
    /// balance across replicas, and schedule and evaluate each replica.
    fn score_mode(&self, ctx: &PlanContext<'_>, mode: RecomputeMode) -> Result<ScoredMode, String> {
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
        let replicas = groups
            .iter()
            .map(|group| {
                let mut idx = group.clone();
                idx.sort_unstable();
                let shapes: Vec<MicroBatchShape> = idx
                    .iter()
                    .map(|&i| partition.micro_batches[i].shape(cm.model.arch))
                    .collect();
                score_replica(
                    cm,
                    &shapes,
                    mode,
                    self.config.schedule,
                    budget,
                    self.config.reorder_clusters,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        let dp_sync_time = dp_sync_time(cm);
        let est_iteration_time = replicas
            .iter()
            .map(|r| r.timeline.times.makespan)
            .fold(0.0, f64::max)
            + dp_sync_time;
        Ok(ScoredMode {
            recompute: mode,
            replicas,
            est_iteration_time,
            dp_sync_time,
            padding: PaddingStats::from_micro_batches(&partition.micro_batches, cm.model.arch),
            num_micro_batches: partition.num_micro_batches(),
            actual_tokens: ordered.iter().map(|s| s.total_tokens() as u64).sum(),
        })
    }

    /// The activation budget the planner works against (device memory minus
    /// static state, scaled by [`DEFAULT_MEMORY_SAFETY`]).
    pub fn planning_budget(&self) -> Bytes {
        (self.cm.min_activation_budget() as f64 * DEFAULT_MEMORY_SAFETY) as Bytes
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
    let scored = score_replica(cm, shapes, mode, kind, budget, reorder_clusters)?;
    finish_replica(cm, scored, mode)
}

/// Schedule and evaluate one replica: [`plan_replica`] up to
/// communication planning.
fn score_replica(
    cm: &CostModel,
    shapes: &[MicroBatchShape],
    mode: RecomputeMode,
    kind: ScheduleKind,
    budget: Bytes,
    reorder_clusters: usize,
) -> Result<ScoredReplica, String> {
    let input = schedule_input_for(cm, shapes, mode, budget);
    // The reorder search builds and evaluates the winning order's
    // schedule; keep it rather than build it again. With no winner the
    // identity order is scheduled below, as the search reports it.
    let reordered = match kind {
        ScheduleKind::Adaptive { reorder: true } if shapes.len() > 1 => reorder_with_schedule(
            &input,
            &ReorderConfig {
                num_clusters: reorder_clusters,
            },
        ),
        _ => None,
    };
    let (input, shapes, schedule, timeline) = match reordered {
        Some(r) => {
            let sh = r.order.iter().map(|&i| shapes[i]).collect();
            (r.input, sh, r.schedule, Some(r.timeline))
        }
        None => {
            let schedule = match kind {
                ScheduleKind::OneFOneB => one_f_one_b(shapes.len(), cm.num_stages()),
                ScheduleKind::Adaptive { .. } => adaptive_schedule(&input),
            };
            (input, shapes.to_vec(), schedule, None)
        }
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
    let timeline = match timeline {
        Some(t) => t,
        None => evaluate_schedule(&schedule, &input)?,
    };
    Ok(ScoredReplica {
        shapes,
        schedule,
        timeline,
        peaks,
    })
}

/// Plan communication for a scored replica and verify it.
fn finish_replica(
    cm: &CostModel,
    scored: ScoredReplica,
    mode: RecomputeMode,
) -> Result<ReplicaPlan, String> {
    let c = cm.num_stages();
    let boundary_bytes: Vec<Vec<Bytes>> = scored
        .shapes
        .iter()
        .map(|sh| {
            (0..c.saturating_sub(1))
                .map(|j| cm.boundary_bytes(j, sh))
                .collect()
        })
        .collect();
    let plan = plan_communication(&PlanInputs {
        schedule: &scored.schedule,
        timeline: &scored.timeline,
        boundary_bytes: &boundary_bytes,
        shapes: &scored.shapes,
        recompute: mode,
    });
    plan.validate()?;
    verify_deadlock_free(&plan).map_err(|e| e.to_string())?;
    Ok(ReplicaPlan {
        est_makespan: scored.timeline.times.makespan,
        est_peak_memory: scored.peaks,
        plan,
        schedule: scored.schedule,
    })
}

/// Finish a scored mode: plan communication for and verify every replica,
/// in order.
fn finish_mode(cm: &CostModel, scored: ScoredMode) -> Result<IterationPlan, String> {
    let mode = scored.recompute;
    let replicas = scored
        .replicas
        .into_iter()
        .map(|r| finish_replica(cm, r, mode))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(IterationPlan {
        replicas,
        recompute: mode,
        est_iteration_time: scored.est_iteration_time,
        dp_sync_time: scored.dp_sync_time,
        padding: scored.padding,
        num_micro_batches: scored.num_micro_batches,
        actual_tokens: scored.actual_tokens,
        planning_time_us: 0.0,
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

    /// One synthetic mode: the error that stops its scoring, or its
    /// estimate and whether it finishes.
    #[derive(Clone, Copy, Debug)]
    enum Synthetic {
        ScoreFails,
        Scored(Micros, bool),
    }

    fn synthetic_scores(modes: &[Synthetic]) -> Vec<Result<(Micros, usize), String>> {
        modes
            .iter()
            .enumerate()
            .map(|(m, s)| match *s {
                Synthetic::ScoreFails => Err(format!("mode {m} does not score")),
                Synthetic::Scored(est, _) => Ok((est, m)),
            })
            .collect()
    }

    /// Run `finish_best` over synthetic modes, recording the order in
    /// which modes are finished.
    fn run_finish_best(modes: &[Synthetic]) -> (Result<usize, Option<String>>, Vec<usize>) {
        let mut finished = Vec::new();
        let chosen = finish_best(synthetic_scores(modes), |m| {
            finished.push(m);
            match modes[m] {
                Synthetic::Scored(_, true) => Ok(m),
                _ => Err(format!("mode {m} does not finish")),
            }
        });
        (chosen, finished)
    }

    /// Finishing every mode and folding in mode order, keeping a later
    /// plan only on a strictly lower estimate, and the last error.
    fn mode_order_fold(modes: &[Synthetic]) -> Result<usize, Option<String>> {
        let mut best: Option<(Micros, usize)> = None;
        let mut last_err = None;
        for (m, s) in modes.iter().enumerate() {
            match *s {
                Synthetic::ScoreFails => last_err = Some(format!("mode {m} does not score")),
                Synthetic::Scored(_, false) => last_err = Some(format!("mode {m} does not finish")),
                Synthetic::Scored(est, true) => {
                    if best.is_none_or(|(b, _)| est < b) {
                        best = Some((est, m));
                    }
                }
            }
        }
        best.map(|(_, m)| m).ok_or(last_err)
    }

    #[test]
    fn best_scored_mode_that_fails_to_finish_yields_to_the_next() {
        use Synthetic::*;
        // Mode 1 scores best but fails to finish; mode 2 is next by
        // estimate, mode 0 is never finished.
        let modes = [Scored(9.0, true), Scored(3.0, false), Scored(5.0, true)];
        let (chosen, finished) = run_finish_best(&modes);
        assert_eq!(chosen, Ok(2));
        assert_eq!(finished, [1, 2]);
    }

    #[test]
    fn equal_estimates_go_to_the_lower_mode_index() {
        use Synthetic::*;
        let modes = [ScoreFails, Scored(4.0, true), Scored(4.0, true)];
        let (chosen, finished) = run_finish_best(&modes);
        assert_eq!(chosen, Ok(1));
        assert_eq!(finished, [1]);
        // A tie whose lower index fails to finish goes to the higher one.
        let modes = [Scored(4.0, false), Scored(4.0, true), Scored(2.0, false)];
        let (chosen, finished) = run_finish_best(&modes);
        assert_eq!(chosen, Ok(1));
        assert_eq!(finished, [2, 0, 1]);
    }

    #[test]
    fn when_every_mode_fails_the_last_modes_error_is_reported() {
        use Synthetic::*;
        let modes = [Scored(1.0, false), Scored(2.0, false), ScoreFails];
        assert_eq!(
            run_finish_best(&modes).0,
            Err(Some("mode 2 does not score".into()))
        );
        let modes = [ScoreFails, Scored(2.0, false), Scored(1.0, false)];
        assert_eq!(
            run_finish_best(&modes).0,
            Err(Some("mode 2 does not finish".into()))
        );
        assert_eq!(run_finish_best(&[]).0, Err(None));
    }

    #[test]
    fn finish_best_matches_the_mode_order_fold_exhaustively() {
        // Every combination of three modes that fail to score, or score
        // one of two estimates and finish or not: the same plan or error
        // as finishing every mode and folding in mode order, with each
        // mode finished at most once and none after the chosen one.
        use Synthetic::*;
        let kinds = [
            ScoreFails,
            Scored(1.0, true),
            Scored(1.0, false),
            Scored(2.0, true),
            Scored(2.0, false),
        ];
        for a in kinds {
            for b in kinds {
                for c in kinds {
                    let modes = [a, b, c];
                    let (chosen, finished) = run_finish_best(&modes);
                    assert_eq!(chosen, mode_order_fold(&modes), "{modes:?}");
                    let mut once = finished.clone();
                    once.sort_unstable();
                    once.dedup();
                    assert_eq!(once.len(), finished.len(), "{modes:?}: finished twice");
                    if let Ok(m) = chosen {
                        assert_eq!(finished.last(), Some(&m), "{modes:?}");
                    }
                }
            }
        }
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
