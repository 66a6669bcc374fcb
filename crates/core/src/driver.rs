//! The serial training-run driver: plan each mini-batch, execute it on
//! the discrete-event simulator, and collect the paper's metrics.
//!
//! This is the **golden-reference** execution path: a strict plan →
//! simulate loop with no overlap, no speculation, and replicas simulated
//! one by one. The production path is the pipelined plan-ahead runtime in
//! [`crate::runtime`], which must stay bit-identical to this driver
//! (enforced by [`RunReport::behavior_eq`] in the equivalence suites);
//! both share the lowering and per-replica
//! execution helpers there, so the simulated work is the same by
//! construction — only the orchestration differs.

use crate::planner::{IterationPlan, PlanError};
use crate::runtime::{execute_summarized, lower_replicas, ReplicaParallelism};
use dynapipe_batcher::PaddingStats;
use dynapipe_cost::CostModel;
use dynapipe_data::{Dataset, GlobalBatchConfig, GlobalBatchIter, Sample};
use dynapipe_model::{Bytes, Micros, RecomputeMode};
use dynapipe_sim::{AllocatorMode, JitterConfig};
use serde::{Deserialize, Serialize};

/// Anything that can plan a training iteration (DynaPipe or a baseline).
pub trait IterationPlanner: Sync {
    /// Plan one mini-batch.
    fn plan(&self, minibatch: &[Sample]) -> Result<IterationPlan, PlanError>;
    /// The cost model backing the planner.
    fn cost_model(&self) -> &CostModel;
    /// Short label for reports.
    fn label(&self) -> String;
}

impl IterationPlanner for crate::planner::DynaPipePlanner {
    fn plan(&self, minibatch: &[Sample]) -> Result<IterationPlan, PlanError> {
        self.plan_iteration(minibatch)
    }
    fn cost_model(&self) -> &CostModel {
        &self.cm
    }
    fn label(&self) -> String {
        "DynaPipe".to_string()
    }
}

impl IterationPlanner for crate::baseline::BaselinePlanner {
    fn plan(&self, minibatch: &[Sample]) -> Result<IterationPlan, PlanError> {
        self.plan_iteration(minibatch)
    }
    fn cost_model(&self) -> &CostModel {
        &self.cm
    }
    fn label(&self) -> String {
        format!("{:?}", self.kind)
    }
}

/// Run configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Cap on iterations (None runs the full epoch).
    pub max_iterations: Option<usize>,
    /// Compute-duration jitter injected by the simulator.
    pub jitter: Option<JitterConfig>,
    /// Allocator behaviour (§7 ablation).
    pub allocator: AllocatorMode,
    /// Record full traces (memory-heavy; for visualization runs only).
    pub record_trace: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            max_iterations: Some(20),
            jitter: Some(JitterConfig {
                sigma: 0.05,
                seed: 0xD17A,
            }),
            allocator: AllocatorMode::PreAllocatedPool,
            record_trace: false,
        }
    }
}

/// Per-iteration measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IterationRecord {
    /// Planner-estimated iteration time (µs).
    pub est_time: Micros,
    /// Simulator-measured iteration time (µs).
    pub measured_time: Micros,
    /// Planner-estimated peak activation per stage (worst replica).
    pub est_peak: Vec<Bytes>,
    /// Measured peak activation per stage (worst replica).
    pub measured_peak: Vec<Bytes>,
    /// Wall-clock planning time (µs).
    pub planning_time_us: f64,
    /// Non-padding tokens in the mini-batch.
    pub actual_tokens: u64,
    /// Micro-batches across replicas.
    pub num_micro_batches: usize,
    /// Recomputation mode chosen.
    pub recompute: String,
    /// Total allocator stall time across devices (µs).
    pub allocator_stall_us: Micros,
}

/// What executing and recording one iteration reads of its plan. A flat
/// wire blob carries it as a fixed-width section ahead of the plan
/// section, so an executor never rebuilds the [`IterationPlan`] tree;
/// everywhere else it is [`IterationSummary::of`] the plan in hand.
#[derive(Debug, Clone)]
pub struct IterationSummary {
    /// Recomputation mode chosen.
    pub recompute: RecomputeMode,
    /// Planner-estimated iteration time (µs).
    pub est_iteration_time: Micros,
    /// Data-parallel gradient synchronization time (µs).
    pub dp_sync_time: Micros,
    /// Wall-clock planning time (µs).
    pub planning_time_us: f64,
    /// Micro-batches across replicas.
    pub num_micro_batches: usize,
    /// Non-padding tokens in the mini-batch.
    pub actual_tokens: u64,
    /// Padding statistics of the chosen micro-batching.
    pub padding: PaddingStats,
    /// Per stage, the largest `est_peak_memory` over replicas (a replica
    /// with a shorter list counts 0); as long as the longest list.
    pub est_peak_memory: Vec<Bytes>,
}

impl IterationSummary {
    /// The summary of `plan`.
    pub fn of(plan: &IterationPlan) -> IterationSummary {
        let stages = plan
            .replicas
            .iter()
            .map(|r| r.est_peak_memory.len())
            .max()
            .unwrap_or(0);
        let est_peak_memory = (0..stages)
            .map(|j| {
                plan.replicas
                    .iter()
                    .map(|r| r.est_peak_memory.get(j).copied().unwrap_or(0))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        IterationSummary {
            recompute: plan.recompute,
            est_iteration_time: plan.est_iteration_time,
            dp_sync_time: plan.dp_sync_time,
            planning_time_us: plan.planning_time_us,
            num_micro_batches: plan.num_micro_batches,
            actual_tokens: plan.actual_tokens,
            padding: plan.padding,
            est_peak_memory,
        }
    }
}

/// A completed (or failed) training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Planner label.
    pub planner: String,
    /// Per-iteration records.
    pub records: Vec<IterationRecord>,
    /// Total non-padding tokens processed.
    pub total_tokens: u64,
    /// Total simulated time (µs).
    pub total_time_us: Micros,
    /// Aggregate padding statistics.
    pub padding: PaddingStats,
    /// Why the run stopped early, if it did (OOM / infeasible plan).
    pub failure: Option<String>,
}

impl RunReport {
    /// The report of a run with no iterations yet, by planner `planner`.
    pub fn empty(planner: String) -> RunReport {
        RunReport {
            planner,
            records: Vec::new(),
            total_tokens: 0,
            total_time_us: 0.0,
            padding: PaddingStats::default(),
            failure: None,
        }
    }

    /// Training throughput in non-padding tokens per second — the paper's
    /// headline metric.
    pub fn throughput(&self) -> f64 {
        if self.total_time_us <= 0.0 {
            return 0.0;
        }
        self.total_tokens as f64 / (self.total_time_us / 1e6)
    }

    /// Whether the configuration completed without OOM/infeasibility.
    pub fn feasible(&self) -> bool {
        self.failure.is_none()
    }

    /// Mean absolute percentage error of iteration-time estimates
    /// (Fig. 18a's metric).
    pub fn time_mape(&self) -> f64 {
        mape(self.records.iter().map(|r| (r.est_time, r.measured_time)))
    }

    /// Mean absolute percentage error of peak-memory estimates (Fig. 18b).
    pub fn memory_mape(&self) -> f64 {
        mape(self.records.iter().flat_map(|r| {
            r.est_peak
                .iter()
                .zip(&r.measured_peak)
                .map(|(&e, &m)| (e as f64, m as f64))
        }))
    }

    /// Bitwise behavioral equality with `other`: every field of the
    /// report and its records must match exactly (floats compared by bit
    /// pattern) **except** the per-record `planning_time_us`, which is a
    /// wall-clock measurement and differs between any two runs, serial or
    /// not. This is the contract between the serial driver and the
    /// pipelined runtime: identical simulated behavior, different
    /// orchestration. Returns a description of the first divergence.
    pub fn behavior_eq(&self, other: &RunReport) -> Result<(), String> {
        fn f64_eq(name: &str, a: f64, b: f64) -> Result<(), String> {
            if a.to_bits() != b.to_bits() {
                return Err(format!("{name}: {a} vs {b}"));
            }
            Ok(())
        }
        if self.planner != other.planner {
            return Err(format!("planner: {} vs {}", self.planner, other.planner));
        }
        if self.failure != other.failure {
            return Err(format!(
                "failure: {:?} vs {:?}",
                self.failure, other.failure
            ));
        }
        if self.total_tokens != other.total_tokens {
            return Err(format!(
                "total_tokens: {} vs {}",
                self.total_tokens, other.total_tokens
            ));
        }
        f64_eq("total_time_us", self.total_time_us, other.total_time_us)?;
        let (p, q) = (&self.padding, &other.padding);
        if (
            p.actual_tokens,
            p.padded_tokens,
            p.enc_actual,
            p.enc_padded,
            p.dec_actual,
            p.dec_padded,
        ) != (
            q.actual_tokens,
            q.padded_tokens,
            q.enc_actual,
            q.enc_padded,
            q.dec_actual,
            q.dec_padded,
        ) {
            return Err(format!("padding: {p:?} vs {q:?}"));
        }
        if self.records.len() != other.records.len() {
            return Err(format!(
                "record count: {} vs {}",
                self.records.len(),
                other.records.len()
            ));
        }
        for (i, (a, b)) in self.records.iter().zip(&other.records).enumerate() {
            f64_eq(&format!("record {i} est_time"), a.est_time, b.est_time)?;
            f64_eq(
                &format!("record {i} measured_time"),
                a.measured_time,
                b.measured_time,
            )?;
            f64_eq(
                &format!("record {i} allocator_stall_us"),
                a.allocator_stall_us,
                b.allocator_stall_us,
            )?;
            if a.est_peak != b.est_peak {
                return Err(format!("record {i} est_peak diverged"));
            }
            if a.measured_peak != b.measured_peak {
                return Err(format!("record {i} measured_peak diverged"));
            }
            if a.actual_tokens != b.actual_tokens {
                return Err(format!("record {i} actual_tokens diverged"));
            }
            if a.num_micro_batches != b.num_micro_batches {
                return Err(format!("record {i} num_micro_batches diverged"));
            }
            if a.recompute != b.recompute {
                return Err(format!(
                    "record {i} recompute: {} vs {}",
                    a.recompute, b.recompute
                ));
            }
        }
        Ok(())
    }
}

fn mape(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for (est, meas) in pairs {
        if meas > 0.0 {
            sum += (est - meas).abs() / meas;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Execute one planned iteration on the simulator; returns the measured
/// iteration time, per-stage peak memory (worst replica) and allocator
/// stall, or the simulator error string.
///
/// This is the serial golden-reference path: replicas are lowered and
/// simulated one by one through the shared helpers in [`crate::runtime`]
/// (the pipelined runtime runs the same helpers with pre-compiled
/// programs and parallel replicas, bit-identically).
pub fn simulate_iteration(
    cm: &CostModel,
    plan: &IterationPlan,
    run: &RunConfig,
    iteration_index: usize,
) -> Result<(Micros, Vec<Bytes>, Micros), String> {
    let programs: Vec<_> = lower_replicas(cm, plan)
        .into_iter()
        .map(crate::runtime::ReplicaPrograms::Owned)
        .collect();
    let exec = execute_summarized(
        cm,
        &IterationSummary::of(plan),
        &programs,
        run,
        iteration_index,
        ReplicaParallelism::Serial,
    )?;
    Ok((
        exec.measured_time,
        exec.peak_memory,
        exec.allocator_stall_us,
    ))
}

/// Run (a prefix of) one training epoch.
pub fn run_training(
    planner: &dyn IterationPlanner,
    dataset: &Dataset,
    gbs: GlobalBatchConfig,
    run: RunConfig,
) -> RunReport {
    let cm = planner.cost_model();
    let mut report = RunReport::empty(planner.label());
    for (it, minibatch) in GlobalBatchIter::new(dataset, gbs).enumerate() {
        if let Some(cap) = run.max_iterations {
            if it >= cap {
                break;
            }
        }
        let plan = match planner.plan(&minibatch) {
            Ok(p) => p,
            Err(e) => {
                report.failure = Some(format!("iteration {it}: {e}"));
                break;
            }
        };
        let (measured, peaks, stall) = match simulate_iteration(cm, &plan, &run, it) {
            Ok(x) => x,
            Err(e) => {
                report.failure = Some(format!("iteration {it}: {e}"));
                break;
            }
        };
        let summary = IterationSummary::of(&plan);
        record_iteration(&mut report, cm, &summary, measured, peaks, stall);
    }
    report
}

/// Fold one executed iteration into the report — the single record
/// assembly shared by the serial driver, the pipelined runtime and the
/// cluster layer, so every orchestration produces structurally identical
/// reports from identical inputs.
pub fn record_iteration(
    report: &mut RunReport,
    cm: &CostModel,
    summary: &IterationSummary,
    measured: Micros,
    peaks: Vec<Bytes>,
    stall: Micros,
) {
    let est_peak: Vec<Bytes> = (0..cm.num_stages())
        .map(|j| summary.est_peak_memory.get(j).copied().unwrap_or(0))
        .collect();
    report.total_tokens += summary.actual_tokens;
    report.total_time_us += measured;
    accumulate_padding(&mut report.padding, &summary.padding);
    report.records.push(IterationRecord {
        est_time: summary.est_iteration_time,
        measured_time: measured,
        est_peak,
        measured_peak: peaks,
        planning_time_us: summary.planning_time_us,
        actual_tokens: summary.actual_tokens,
        num_micro_batches: summary.num_micro_batches,
        recompute: summary.recompute.label().to_string(),
        allocator_stall_us: stall,
    });
}

fn accumulate_padding(into: &mut PaddingStats, from: &PaddingStats) {
    into.actual_tokens += from.actual_tokens;
    into.padded_tokens += from.padded_tokens;
    into.enc_actual += from.enc_actual;
    into.enc_padded += from.enc_padded;
    into.dec_actual += from.dec_actual;
    into.dec_padded += from.dec_padded;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{BaselineKind, BaselinePlanner};
    use crate::planner::{DynaPipePlanner, PlannerConfig};
    use dynapipe_cost::ProfileOptions;
    use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};
    use std::sync::Arc;

    fn cost_model(pp: usize, dp: usize) -> Arc<CostModel> {
        Arc::new(CostModel::build(
            HardwareModel::a100_cluster(),
            ModelConfig::gpt_3_35b(),
            ParallelConfig::new(dp, 1, pp),
            &ProfileOptions::coarse(),
        ))
    }

    fn small_run() -> RunConfig {
        RunConfig {
            max_iterations: Some(3),
            ..Default::default()
        }
    }

    #[test]
    fn dynapipe_run_produces_throughput() {
        let planner = DynaPipePlanner::new(cost_model(2, 1), PlannerConfig::default());
        let dataset = Dataset::flanv2(31, 400);
        let report = run_training(
            &planner,
            &dataset,
            GlobalBatchConfig {
                tokens_per_batch: 16384,
                max_seq_len: 2048,
            },
            small_run(),
        );
        assert!(report.feasible(), "failure: {:?}", report.failure);
        assert_eq!(report.records.len(), 3);
        assert!(
            report.throughput() > 100.0,
            "throughput {}",
            report.throughput()
        );
    }

    #[test]
    fn estimates_track_measurements() {
        let planner = DynaPipePlanner::new(cost_model(2, 1), PlannerConfig::default());
        let dataset = Dataset::flanv2(37, 400);
        let report = run_training(
            &planner,
            &dataset,
            GlobalBatchConfig {
                tokens_per_batch: 16384,
                max_seq_len: 2048,
            },
            small_run(),
        );
        // Fig. 18: mean error around 4–11% for time, ≤6% for memory; allow
        // slack but catch gross modelling bugs.
        assert!(
            report.time_mape() < 0.35,
            "time MAPE {}",
            report.time_mape()
        );
        assert!(
            report.memory_mape() < 0.25,
            "memory MAPE {}",
            report.memory_mape()
        );
    }

    #[test]
    fn baseline_run_works_and_is_slower() {
        let cm = cost_model(2, 1);
        let dataset = Dataset::flanv2(41, 600);
        let gbs = GlobalBatchConfig {
            tokens_per_batch: 16384,
            max_seq_len: 2048,
        };
        let dyna = run_training(
            &DynaPipePlanner::new(cm.clone(), PlannerConfig::default()),
            &dataset,
            gbs,
            small_run(),
        );
        let packing = run_training(
            &BaselinePlanner::new(
                cm,
                BaselineKind::Packing {
                    max_seq_len: 2048,
                    max_target_len: 256,
                    mb_size: 1,
                },
            ),
            &dataset,
            gbs,
            small_run(),
        );
        assert!(dyna.feasible() && packing.feasible());
        assert!(
            dyna.throughput() > packing.throughput(),
            "DynaPipe {} vs packing {}",
            dyna.throughput(),
            packing.throughput()
        );
    }

    #[test]
    fn data_parallel_run_is_feasible() {
        let planner = DynaPipePlanner::new(cost_model(2, 2), PlannerConfig::default());
        let dataset = Dataset::flanv2(43, 500);
        let report = run_training(
            &planner,
            &dataset,
            GlobalBatchConfig {
                tokens_per_batch: 32768,
                max_seq_len: 2048,
            },
            small_run(),
        );
        assert!(report.feasible(), "failure: {:?}", report.failure);
        assert!(report.records.iter().all(|r| r.measured_time > 0.0));
    }
}
