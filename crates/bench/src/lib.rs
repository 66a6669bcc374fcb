//! Shared harness for the figure-regeneration binaries.
//!
//! Each `figNN_*` binary reproduces one table/figure of the paper on the
//! simulated cluster. This library centralizes the experiment mechanics:
//! evaluated systems (DynaPipe, MLM+DS packing with its own grid search,
//! MLM+DS (C) on DynaPipe's parallelism, token-based micro-batching),
//! per-point grid searches, the one environment knob, and JSON result
//! output under `results/`.
//!
//! One knob (environment variable): `DYNAPIPE_BENCH_FULL=1` runs all
//! cluster sizes {4, 8, 16, 32} for Figs. 13/14 instead of the
//! single-node {4, 8} default (mirroring the paper's artifact, where one
//! p4d node regenerates Fig. 13 (a)(b)(e)(f)).

use dynapipe_batcher::OrderingStrategy;
use dynapipe_core::{
    driver::simulate_iteration, run_training, BaselineKind, BaselinePlanner, DynaPipePlanner,
    IterationPlanner, PlannerConfig, RunConfig, RunReport,
};
use dynapipe_cost::{CostModel, ProfileOptions};
use dynapipe_data::{Dataset, GlobalBatchConfig, GlobalBatchIter, Sample};
use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};
use dynapipe_sim::AllocatorMode;
use serde::Serialize;
use std::sync::Arc;

/// Harness options: fixed workload sizes plus the `DYNAPIPE_BENCH_FULL`
/// opt-in.
#[derive(Debug, Clone, Copy)]
pub struct BenchOpts {
    /// Samples in the synthetic dataset per experiment point.
    pub dataset_samples: usize,
    /// Simulated training iterations per point.
    pub iters: usize,
    /// Dataset seed.
    pub seed: u64,
    /// Include multi-node cluster sizes (16, 32 GPUs).
    pub full: bool,
}

impl Default for BenchOpts {
    fn default() -> Self {
        BenchOpts {
            dataset_samples: 3000,
            iters: 4,
            seed: 20240422,
            full: std::env::var("DYNAPIPE_BENCH_FULL")
                .map(|v| v == "1")
                .unwrap_or(false),
        }
    }
}

impl BenchOpts {
    /// Mini-batches used to score grid-search candidates.
    pub const PROBES: usize = 1;

    /// Cluster sizes for the scaling figures.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        if self.full {
            vec![4, 8, 16, 32]
        } else {
            vec![4, 8]
        }
    }
}

/// The outcome of one (system, experiment-point) evaluation.
#[derive(Debug, Clone, Serialize)]
pub struct PointResult {
    /// Tokens per second (non-padding).
    pub throughput: f64,
    /// Chosen parallelism.
    pub parallel: String,
    /// Overall padding efficiency.
    pub padding_efficiency: f64,
    /// Encoder-side padding efficiency.
    pub encoder_efficiency: f64,
    /// Decoder-side padding efficiency.
    pub decoder_efficiency: f64,
    /// Mean planning time per iteration (µs).
    pub mean_planning_us: f64,
    /// Mean iteration time (µs).
    pub mean_iteration_us: f64,
    /// Iteration-time estimation MAPE.
    pub time_mape: f64,
    /// Peak-memory estimation MAPE.
    pub memory_mape: f64,
    /// Per-iteration (estimated, measured) iteration times (µs).
    pub time_pairs: Vec<(f64, f64)>,
    /// Per-iteration (estimated, measured) worst-stage peak memory (bytes).
    pub memory_pairs: Vec<(u64, u64)>,
    /// Raw per-iteration planning times (µs).
    pub planning_times_us: Vec<f64>,
}

impl PointResult {
    fn from_report(report: &RunReport, parallel: ParallelConfig) -> Option<Self> {
        if !report.feasible() || report.records.is_empty() {
            return None;
        }
        let n = report.records.len() as f64;
        Some(PointResult {
            throughput: report.throughput(),
            parallel: parallel.to_string(),
            padding_efficiency: report.padding.efficiency(),
            encoder_efficiency: report.padding.encoder_efficiency(),
            decoder_efficiency: report.padding.decoder_efficiency(),
            mean_planning_us: report
                .records
                .iter()
                .map(|r| r.planning_time_us)
                .sum::<f64>()
                / n,
            mean_iteration_us: report.records.iter().map(|r| r.measured_time).sum::<f64>() / n,
            time_mape: report.time_mape(),
            memory_mape: report.memory_mape(),
            time_pairs: report
                .records
                .iter()
                .map(|r| (r.est_time, r.measured_time))
                .collect(),
            memory_pairs: report
                .records
                .iter()
                .map(|r| {
                    (
                        r.est_peak.iter().copied().max().unwrap_or(0),
                        r.measured_peak.iter().copied().max().unwrap_or(0),
                    )
                })
                .collect(),
            planning_times_us: report.records.iter().map(|r| r.planning_time_us).collect(),
        })
    }
}

/// One experiment point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// The model under training.
    pub model: ModelConfig,
    /// Cluster size in GPUs.
    pub num_gpus: usize,
    /// Maximum sequence length (truncation threshold).
    pub max_seq_len: usize,
    /// Global batch size in tokens.
    pub gbs_tokens: usize,
}

/// Probe mini-batches for grid-search scoring.
pub fn probe_minibatches(dataset: &Dataset, point: &Point, n: usize) -> Vec<Vec<Sample>> {
    GlobalBatchIter::new(
        dataset,
        GlobalBatchConfig {
            tokens_per_batch: point.gbs_tokens,
            max_seq_len: point.max_seq_len,
        },
    )
    .take(n)
    .collect()
}

fn profile_opts() -> ProfileOptions {
    ProfileOptions::default()
}

/// Jitter-free run configuration for grid-search probe simulation.
fn probe_run() -> RunConfig {
    RunConfig {
        max_iterations: None,
        jitter: None,
        allocator: AllocatorMode::PreAllocatedPool,
        record_trace: false,
    }
}

/// Simulated throughput of `planner` over `probes` (None on any failure).
fn probe_throughput(planner: &dyn IterationPlanner, probes: &[Vec<Sample>]) -> Option<f64> {
    let run = probe_run();
    let mut tokens = 0u64;
    let mut time = 0.0;
    for (i, mb) in probes.iter().enumerate() {
        let plan = planner.plan(mb).ok()?;
        let (measured, _, _) = simulate_iteration(planner.cost_model(), &plan, &run, i).ok()?;
        tokens += plan.actual_tokens;
        time += measured;
    }
    (time > 0.0).then(|| tokens as f64 / time)
}

/// Grid-search DynaPipe's parallelism, then run it. Returns the point
/// result and the winning parallelism (for the MLM+DS (C) comparison).
pub fn eval_dynapipe(
    hw: &HardwareModel,
    dataset: &Dataset,
    point: &Point,
    opts: &BenchOpts,
) -> Option<(PointResult, ParallelConfig)> {
    let probes = probe_minibatches(dataset, point, BenchOpts::PROBES);
    let scores = dynapipe_core::search_parallelism(
        hw,
        &point.model,
        point.num_gpus,
        &probes,
        PlannerConfig::default(),
        &profile_opts(),
    );
    for cand in scores {
        let planner = DynaPipePlanner::new(cand.cost_model.clone(), PlannerConfig::default());
        let report = run_point(&planner, dataset, point, opts);
        if let Some(r) = PointResult::from_report(&report, cand.parallel) {
            return Some((r, cand.parallel));
        }
    }
    None
}

/// Grid-search the packing baseline (parallelism × micro-batch size) and
/// run the winner. Pass `fixed_parallel` to pin the parallelism (the
/// paper's "MLM+DS (C)" variant).
pub fn eval_packing(
    hw: &HardwareModel,
    dataset: &Dataset,
    point: &Point,
    opts: &BenchOpts,
    fixed_parallel: Option<ParallelConfig>,
) -> Option<PointResult> {
    let probes = probe_minibatches(dataset, point, BenchOpts::PROBES);
    let candidates: Vec<ParallelConfig> = match fixed_parallel {
        Some(p) => vec![p],
        None => ParallelConfig::enumerate(point.num_gpus, hw.gpus_per_node),
    };
    let mut scored: Vec<(f64, Arc<CostModel>, ParallelConfig, usize)> = Vec::new();
    for parallel in candidates {
        if !parallel.fits_model(&point.model) {
            continue;
        }
        let cm = Arc::new(CostModel::build(
            hw.clone(),
            point.model,
            parallel,
            &profile_opts(),
        ));
        if !cm.is_feasible() {
            continue;
        }
        for mb_size in [1usize, 2, 4] {
            let planner = BaselinePlanner::new(cm.clone(), packing_kind(point, mb_size));
            if let Some(tps) = probe_throughput(&planner, &probes) {
                scored.push((tps, cm.clone(), parallel, mb_size));
            }
        }
    }
    scored.sort_by(|a, b| b.0.total_cmp(&a.0));
    for (_, cm, parallel, mb_size) in scored {
        let planner = BaselinePlanner::new(cm, packing_kind(point, mb_size));
        let report = run_point(&planner, dataset, point, opts);
        if let Some(r) = PointResult::from_report(&report, parallel) {
            return Some(r);
        }
    }
    None
}

/// DynaPipe against both packing baselines at one point: the three
/// systems of Figs. 4 and 13–15.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// DynaPipe at its grid-searched parallelism.
    pub dynapipe: Option<PointResult>,
    /// MLM+DS: packing with its own grid-searched parallelism and
    /// micro-batch size.
    pub mlm_ds: Option<PointResult>,
    /// MLM+DS (C): packing pinned to DynaPipe's parallelism (`None` when
    /// DynaPipe has no feasible one).
    pub mlm_ds_c: Option<PointResult>,
}

impl Comparison {
    /// The packing column of Figs. 4 and 15: MLM+DS (C), since the paper
    /// compares under the same settings, falling back to MLM+DS.
    pub fn packing(&self) -> Option<&PointResult> {
        self.mlm_ds_c.as_ref().or(self.mlm_ds.as_ref())
    }
}

/// Evaluate DynaPipe, MLM+DS and MLM+DS (C) at one point.
pub fn compare(
    hw: &HardwareModel,
    dataset: &Dataset,
    point: &Point,
    opts: &BenchOpts,
) -> Comparison {
    let dyna = eval_dynapipe(hw, dataset, point, opts);
    let mlm_ds_c = dyna
        .as_ref()
        .and_then(|&(_, parallel)| eval_packing(hw, dataset, point, opts, Some(parallel)));
    Comparison {
        dynapipe: dyna.map(|(r, _)| r),
        mlm_ds: eval_packing(hw, dataset, point, opts, None),
        mlm_ds_c,
    }
}

fn packing_kind(point: &Point, mb_size: usize) -> BaselineKind {
    BaselineKind::Packing {
        max_seq_len: point.max_seq_len,
        max_target_len: (point.max_seq_len / 4).max(64),
        mb_size,
    }
}

/// Evaluate the token-based baseline at a given parallelism, searching the
/// per-micro-batch token budget.
pub fn eval_token_based(
    hw: &HardwareModel,
    dataset: &Dataset,
    point: &Point,
    opts: &BenchOpts,
    parallel: ParallelConfig,
    ordering: OrderingStrategy,
) -> Option<PointResult> {
    let cm = Arc::new(CostModel::build(
        hw.clone(),
        point.model,
        parallel,
        &profile_opts(),
    ));
    if !cm.is_feasible() {
        return None;
    }
    let probes = probe_minibatches(dataset, point, BenchOpts::PROBES);
    let mut best: Option<(f64, usize)> = None;
    for budget in [1024usize, 2048, 4096, 8192, 16384] {
        let planner = BaselinePlanner::new(
            cm.clone(),
            BaselineKind::TokenBased {
                token_budget: budget,
                ordering,
            },
        );
        let mut tokens = 0u64;
        let mut time = 0.0;
        let mut ok = true;
        for mb in &probes {
            match planner.plan_iteration(mb) {
                Ok(plan) => {
                    tokens += plan.actual_tokens;
                    time += plan.est_iteration_time;
                }
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        if ok && time > 0.0 {
            let tps = tokens as f64 / time;
            if best.is_none_or(|(b, _)| tps > b) {
                best = Some((tps, budget));
            }
        }
    }
    let (_, budget) = best?;
    let planner = BaselinePlanner::new(
        cm,
        BaselineKind::TokenBased {
            token_budget: budget,
            ordering,
        },
    );
    let report = run_point(&planner, dataset, point, opts);
    PointResult::from_report(&report, parallel)
}

/// Run a planner on one point with the harness run configuration.
pub fn run_point(
    planner: &dyn IterationPlanner,
    dataset: &Dataset,
    point: &Point,
    opts: &BenchOpts,
) -> RunReport {
    run_training(
        planner,
        dataset,
        GlobalBatchConfig {
            tokens_per_batch: point.gbs_tokens,
            max_seq_len: point.max_seq_len,
        },
        RunConfig {
            max_iterations: Some(opts.iters),
            ..Default::default()
        },
    )
}

/// Write a JSON result file under `results/`. Exits the process nonzero
/// if the artifact cannot be written, so `run_all` sees a bin that stops
/// emitting it.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = format!("results/{name}.json");
    let written = serde_json::to_string_pretty(value)
        .map_err(|e| e.to_string())
        .and_then(|s| {
            std::fs::create_dir_all("results")
                .and_then(|()| std::fs::write(&path, s))
                .map_err(|e| e.to_string())
        });
    match written {
        Ok(()) => println!("  -> {path}"),
        Err(e) => {
            eprintln!("error: could not write {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Format tokens/s or an OOM marker.
pub fn fmt_tps(x: Option<f64>) -> String {
    match x {
        Some(v) => format!("{v:10.0}"),
        None => format!("{:>10}", "OOM"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_smoke_gpt_4gpu() {
        let opts = BenchOpts {
            dataset_samples: 400,
            iters: 1,
            seed: 1,
            full: false,
        };
        let hw = HardwareModel::a100_cluster();
        let dataset = Dataset::flanv2(opts.seed, opts.dataset_samples);
        let point = Point {
            model: ModelConfig::gpt_3_35b(),
            num_gpus: 4,
            max_seq_len: 1024,
            gbs_tokens: 16384,
        };
        let c = compare(&hw, &dataset, &point, &opts);
        let dyna = c.dynapipe.as_ref().expect("feasible");
        assert!(dyna.throughput > 0.0);
        assert!(c.mlm_ds.is_some());
        // Figs. 4 and 15 read MLM+DS (C) as packing at DynaPipe's settings.
        let pinned = c.mlm_ds_c.as_ref().expect("MLM+DS (C) feasible");
        assert_eq!(pinned.parallel, dyna.parallel);
        assert_eq!(c.packing().map(|r| &r.parallel), Some(&dyna.parallel));
    }
}
