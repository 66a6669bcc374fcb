//! Shared harness for the figure-regeneration binaries.
//!
//! Each `figNN_*` binary reproduces one table/figure of the paper on the
//! simulated cluster. This library centralizes the experiment mechanics:
//! the fixed workload sizes, the evaluated systems (DynaPipe, MLM+DS
//! packing with its own grid search, MLM+DS (C) on DynaPipe's parallelism,
//! token-based micro-batching), their grid searches through
//! [`dynapipe_core::search_parallelism`], and JSON result output under
//! `results/`. There is one run mode: every bin runs at the sizes below.
//!
//! A [`PointResult`] holds simulated quantities only, so every artifact
//! built from it is a function of seed and config. Host time is measured
//! by the repo benchmark (`perfbench`); of the figures only
//! `fig17_planning_time` reports it.

use dynapipe_batcher::OrderingStrategy;
use dynapipe_core::{
    run_training, search_parallelism, BaselineKind, BaselinePlanner, CandidateScore,
    DynaPipePlanner, IterationPlanner, PlannerConfig, RunConfig, RunReport,
};
use dynapipe_cost::{CostModel, ProfileOptions};
use dynapipe_data::{Dataset, GlobalBatchConfig, GlobalBatchIter, Sample};
use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};
use serde::Serialize;
use std::sync::Arc;

/// Dataset seed.
pub const SEED: u64 = 20240422;
/// Samples in the synthetic dataset per experiment point.
pub const DATASET_SAMPLES: usize = 3000;
/// Simulated training iterations per point.
pub const ITERS: usize = 4;
/// Mini-batches used to score grid-search candidates.
pub const PROBES: usize = 1;

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

/// Rank `planners` at each of `candidates` by simulated throughput over
/// the point's probe mini-batches.
fn rank<P, F>(
    hw: &HardwareModel,
    dataset: &Dataset,
    point: &Point,
    candidates: &[ParallelConfig],
    planners: F,
) -> Vec<CandidateScore<P>>
where
    P: IterationPlanner + Send,
    F: Fn(Arc<CostModel>) -> Vec<P> + Sync,
{
    let probes = probe_minibatches(dataset, point, PROBES);
    search_parallelism(
        hw,
        &point.model,
        candidates,
        &probes,
        &ProfileOptions::default(),
        planners,
    )
}

/// Run the ranked candidates in order until one completes; returns its
/// position among them and its result.
fn run_ranked<'a, P: IterationPlanner + 'a>(
    ranked: impl IntoIterator<Item = &'a CandidateScore<P>>,
    dataset: &Dataset,
    point: &Point,
) -> Option<(usize, PointResult)> {
    ranked.into_iter().enumerate().find_map(|(i, c)| {
        let report = run_point(&c.planner, dataset, point);
        PointResult::from_report(&report, c.parallel).map(|r| (i, r))
    })
}

/// The packing baseline at each micro-batch size MLM+DS searches.
fn packing_planners(point: &Point) -> impl Fn(Arc<CostModel>) -> Vec<BaselinePlanner> + Sync {
    let (max_seq_len, max_target_len) = (point.max_seq_len, (point.max_seq_len / 4).max(64));
    move |cm| {
        [1, 2, 4]
            .map(|mb_size| {
                let kind = BaselineKind::Packing {
                    max_seq_len,
                    max_target_len,
                    mb_size,
                };
                BaselinePlanner::new(cm.clone(), kind)
            })
            .into()
    }
}

/// Grid-search the packing baseline (each of `candidates` × micro-batch
/// size) and run the winner. Fig. 16a pins one parallelism.
pub fn eval_packing(
    hw: &HardwareModel,
    dataset: &Dataset,
    point: &Point,
    candidates: &[ParallelConfig],
) -> Option<PointResult> {
    let ranked = rank(hw, dataset, point, candidates, packing_planners(point));
    run_ranked(&ranked, dataset, point).map(|(_, r)| r)
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

/// Evaluate DynaPipe, MLM+DS and MLM+DS (C) at one point, each at its
/// best grid-searched candidate that completes.
///
/// Packing is ranked once. MLM+DS (C) is that ranking filtered to
/// DynaPipe's parallelism: the search's stable sort gives it the order a
/// search pinned to that parallelism would. Runs are deterministic, and
/// every candidate ranked above MLM+DS's winner failed in MLM+DS's run,
/// so MLM+DS (C) is that winner when it sits at DynaPipe's parallelism,
/// and otherwise the first filtered candidate below it that completes.
pub fn compare(hw: &HardwareModel, dataset: &Dataset, point: &Point) -> Comparison {
    let candidates = ParallelConfig::enumerate(point.num_gpus, hw.gpus_per_node);
    let ranked = rank(hw, dataset, point, &candidates, |cm| {
        vec![DynaPipePlanner::new(cm, PlannerConfig::default())]
    });
    let dynapipe = run_ranked(&ranked, dataset, point).map(|(i, r)| (r, ranked[i].parallel));
    let packing = rank(hw, dataset, point, &candidates, packing_planners(point));
    let mlm_ds = run_ranked(&packing, dataset, point);
    let mlm_ds_c = dynapipe.as_ref().and_then(|&(_, parallel)| {
        let (won, result) = mlm_ds.as_ref()?;
        if packing[*won].parallel == parallel {
            return Some(result.clone());
        }
        let pinned = packing[won + 1..].iter().filter(|c| c.parallel == parallel);
        run_ranked(pinned, dataset, point).map(|(_, r)| r)
    });
    Comparison {
        dynapipe: dynapipe.map(|(r, _)| r),
        mlm_ds: mlm_ds.map(|(_, r)| r),
        mlm_ds_c,
    }
}

/// Evaluate the token-based baseline at a given parallelism, searching the
/// per-micro-batch token budget.
pub fn eval_token_based(
    hw: &HardwareModel,
    dataset: &Dataset,
    point: &Point,
    parallel: ParallelConfig,
    ordering: OrderingStrategy,
) -> Option<PointResult> {
    let ranked = rank(hw, dataset, point, &[parallel], |cm| {
        [1024, 2048, 4096, 8192, 16384]
            .map(|token_budget| {
                let kind = BaselineKind::TokenBased {
                    token_budget,
                    ordering,
                };
                BaselinePlanner::new(cm.clone(), kind)
            })
            .into()
    });
    run_ranked(&ranked, dataset, point).map(|(_, r)| r)
}

/// Run a planner on one point with the harness run configuration.
pub fn run_point(planner: &dyn IterationPlanner, dataset: &Dataset, point: &Point) -> RunReport {
    run_training(
        planner,
        dataset,
        GlobalBatchConfig {
            tokens_per_batch: point.gbs_tokens,
            max_seq_len: point.max_seq_len,
        },
        RunConfig {
            max_iterations: Some(ITERS),
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
        let hw = HardwareModel::a100_cluster();
        let dataset = Dataset::flanv2(SEED, 400);
        let point = Point {
            model: ModelConfig::gpt_3_35b(),
            num_gpus: 4,
            max_seq_len: 1024,
            gbs_tokens: 16384,
        };
        let c = compare(&hw, &dataset, &point);
        let dyna = c.dynapipe.as_ref().expect("feasible");
        assert!(dyna.throughput > 0.0);
        assert!(c.mlm_ds.is_some());
        // Figs. 4 and 15 read MLM+DS (C) as packing at DynaPipe's settings.
        let pinned = c.mlm_ds_c.as_ref().expect("MLM+DS (C) feasible");
        assert_eq!(pinned.parallel, dyna.parallel);
        assert_eq!(c.packing().map(|r| &r.parallel), Some(&dyna.parallel));
        // Token-based micro-batching at DynaPipe's parallelism, as Fig. 16
        // runs it, under both orderings.
        let parallel = ParallelConfig::enumerate(4, hw.gpus_per_node)
            .into_iter()
            .find(|p| p.to_string() == dyna.parallel)
            .expect("DynaPipe's parallelism is a candidate");
        for ordering in [OrderingStrategy::Sort, OrderingStrategy::Tsp] {
            let tb = eval_token_based(&hw, &dataset, &point, parallel, ordering);
            let tb = tb.unwrap_or_else(|| panic!("TB ({ordering:?}) infeasible"));
            assert!(tb.throughput > 0.0, "TB ({ordering:?})");
            assert_eq!(tb.parallel, dyna.parallel);
        }
    }
}
