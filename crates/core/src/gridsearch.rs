//! 3D-parallelism grid search (§8 "Baselines").
//!
//! The paper grid-searches power-of-two (dp, tp, pp) combinations (tp
//! intra-node) for every system and compares each system at its best.
//! Every system's search here is one [`search_parallelism`] call over a
//! planner family: DynaPipe ranks one planner per parallelism, the packing
//! baseline one per micro-batch size, and a pinned baseline passes a
//! single parallelism.
//!
//! Scoring a candidate plans a few sample mini-batches and then
//! *simulates* them ([`probe_throughput`]): the planner's timeline
//! estimate models communication as pure dependency delay, but deep
//! comm-bound pipelines additionally serialize transfers on each
//! device-pair channel — only the simulator sees that, and ranking by
//! estimate alone would over-sell deep pipeline parallelism for
//! short-sequence T5 workloads.

use crate::driver::{simulate_iteration, IterationPlanner, RunConfig};
use crate::planner::IterationPlan;
use dynapipe_cost::{CostModel, ProfileOptions};
use dynapipe_data::Sample;
use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};
use dynapipe_sim::AllocatorMode;
use rayon::prelude::*;
use std::sync::Arc;

/// Score of one (parallelism, planner) candidate.
#[derive(Debug, Clone)]
pub struct CandidateScore<P> {
    /// The candidate's parallelism.
    pub parallel: ParallelConfig,
    /// Simulated throughput (tokens/s) of the planner over the probe
    /// mini-batches ([`probe_throughput`]).
    pub sim_throughput: f64,
    /// The planner, on the cost model built for `parallel` (reusable for
    /// the real run).
    pub planner: P,
}

/// Simulated throughput (tokens/s) of `plan` over `probes`: each probe
/// mini-batch is planned, then simulated on `cm` without jitter. `None`
/// when any probe fails to plan or simulate.
pub fn probe_throughput<E>(
    cm: &CostModel,
    probes: &[Vec<Sample>],
    plan: impl Fn(&[Sample]) -> Result<IterationPlan, E>,
) -> Option<f64> {
    const PROBE_RUN: RunConfig = RunConfig {
        max_iterations: None,
        jitter: None,
        allocator: AllocatorMode::PreAllocatedPool,
        record_trace: false,
    };
    let mut tokens = 0u64;
    let mut time_us = 0.0f64;
    for (i, mb) in probes.iter().enumerate() {
        let planned = plan(mb).ok()?;
        let (measured, _, _) = simulate_iteration(cm, &planned, &PROBE_RUN, i).ok()?;
        tokens += planned.actual_tokens;
        time_us += measured;
    }
    (time_us > 0.0).then(|| tokens as f64 / (time_us / 1e6))
}

/// Score every (parallelism, planner) pair — each of `candidates` that
/// fits `model` and whose cost model is feasible, with each planner
/// `planners` builds on that cost model — and return them sorted by
/// descending simulated throughput.
///
/// Cost models are built, and pairs scored, in parallel on the rayon
/// pool. The ranking is deterministic: a stable sort on throughput keeps
/// enumeration order (candidate, then planner) among ties, matching a
/// serial search. Filtering the ranking to one parallelism therefore
/// gives the same order as a search pinned to it.
///
/// `probes` should be a handful of representative mini-batches; pairs
/// that fail to plan or simulate a probe are dropped.
pub fn search_parallelism<P, F>(
    hw: &HardwareModel,
    model: &ModelConfig,
    candidates: &[ParallelConfig],
    probes: &[Vec<Sample>],
    profile_opts: &ProfileOptions,
    planners: F,
) -> Vec<CandidateScore<P>>
where
    P: IterationPlanner + Send,
    F: Fn(Arc<CostModel>) -> Vec<P> + Sync,
{
    let families: Vec<Vec<(ParallelConfig, P)>> = candidates
        .par_iter()
        .map(|&parallel| {
            if !parallel.fits_model(model) {
                return Vec::new();
            }
            let cm = Arc::new(CostModel::build(hw.clone(), *model, parallel, profile_opts));
            if !cm.is_feasible() {
                return Vec::new();
            }
            planners(cm).into_iter().map(|p| (parallel, p)).collect()
        })
        .collect();
    let pairs: Vec<(ParallelConfig, P)> = families.into_iter().flatten().collect();
    let scores: Vec<Option<f64>> = pairs
        .par_iter()
        .map(|(_, p)| probe_throughput(p.cost_model(), probes, |mb| p.plan(mb)))
        .collect();
    let mut out: Vec<CandidateScore<P>> = pairs
        .into_iter()
        .zip(scores)
        .filter_map(|((parallel, planner), score)| {
            Some(CandidateScore {
                parallel,
                sim_throughput: score?,
                planner,
            })
        })
        .collect();
    out.sort_by(|a, b| b.sim_throughput.total_cmp(&a.sim_throughput));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{BaselineKind, BaselinePlanner};
    use crate::planner::{DynaPipePlanner, PlannerConfig};
    use dynapipe_data::{Dataset, GlobalBatchConfig, GlobalBatchIter};

    fn probes(n: usize, msl: usize) -> Vec<Vec<Sample>> {
        let d = Dataset::flanv2(61, 800);
        GlobalBatchIter::new(
            &d,
            GlobalBatchConfig {
                tokens_per_batch: 16384,
                max_seq_len: msl,
            },
        )
        .take(n)
        .collect()
    }

    fn dynapipe(cm: Arc<CostModel>) -> Vec<DynaPipePlanner> {
        vec![DynaPipePlanner::new(cm, PlannerConfig::default())]
    }

    /// The packing baseline at each micro-batch size the harness searches.
    fn packing(cm: Arc<CostModel>) -> Vec<BaselinePlanner> {
        [1, 2, 4]
            .map(|mb_size| {
                let kind = BaselineKind::Packing {
                    max_seq_len: 2048,
                    max_target_len: 512,
                    mb_size,
                };
                BaselinePlanner::new(cm.clone(), kind)
            })
            .into()
    }

    /// Search 4-GPU GPT-3.35B at max length 2048 over `candidates`.
    fn search<P, F>(candidates: &[ParallelConfig], planners: F) -> Vec<CandidateScore<P>>
    where
        P: IterationPlanner + Send,
        F: Fn(Arc<CostModel>) -> Vec<P> + Sync,
    {
        search_parallelism(
            &HardwareModel::a100_cluster(),
            &ModelConfig::gpt_3_35b(),
            candidates,
            &probes(1, 2048),
            &ProfileOptions::coarse(),
            planners,
        )
    }

    fn all_4gpu() -> Vec<ParallelConfig> {
        ParallelConfig::enumerate(4, HardwareModel::a100_cluster().gpus_per_node)
    }

    /// Each candidate's parallelism, planner and throughput bits.
    fn ranking<P: IterationPlanner>(scores: &[CandidateScore<P>]) -> Vec<(String, String, u64)> {
        scores
            .iter()
            .map(|s| {
                let label = s.planner.label();
                (s.parallel.to_string(), label, s.sim_throughput.to_bits())
            })
            .collect()
    }

    /// `f` under a pool of 1, 2 and 4 threads.
    fn under_caps<R>(f: impl Fn() -> R) -> Vec<R> {
        [1, 2, 4]
            .map(|t| {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(t).build();
                pool.unwrap().install(&f)
            })
            .into()
    }

    #[test]
    fn search_returns_ranked_feasible_candidates() {
        let hw = HardwareModel::a100_cluster();
        let model = ModelConfig::gpt_3_35b();
        let scores = search_parallelism(
            &hw,
            &model,
            &ParallelConfig::enumerate(4, hw.gpus_per_node),
            &probes(2, 2048),
            &ProfileOptions::coarse(),
            dynapipe,
        );
        assert!(
            !scores.is_empty(),
            "4-GPU GPT-3.35B must have feasible configs"
        );
        for s in &scores {
            assert_eq!(s.parallel.num_gpus(), 4);
            assert!(s.sim_throughput > 0.0);
        }
        assert!(scores
            .windows(2)
            .all(|w| w[0].sim_throughput >= w[1].sim_throughput));
    }

    #[test]
    fn infeasible_models_are_dropped() {
        // GPT-29B on 4 GPUs cannot hold its optimizer states: most (often
        // all) candidates should be infeasible.
        let hw = HardwareModel::a100_cluster();
        let model = ModelConfig::gpt_29b();
        let all = ParallelConfig::enumerate(4, hw.gpus_per_node);
        let scores = search_parallelism(
            &hw,
            &model,
            &all,
            &probes(1, 1024),
            &ProfileOptions::coarse(),
            dynapipe,
        );
        assert!(
            scores.len() < all.len(),
            "29B params cannot fit every 4-GPU layout"
        );
    }

    #[test]
    fn ranking_is_identical_under_every_thread_count() {
        // Cost models and pairs are scored on the pool in a different
        // order per width; neither the order nor a score may move.
        let all = all_4gpu();
        for runs in [
            under_caps(|| ranking(&search(&all, dynapipe))),
            under_caps(|| ranking(&search(&all, packing))),
        ] {
            assert!(!runs[0].is_empty());
            assert!(runs.iter().all(|r| *r == runs[0]), "{runs:#?}");
        }
    }

    #[test]
    fn filtered_ranking_equals_a_pinned_search() {
        // MLM+DS (C) reads packing's ranking at DynaPipe's parallelism
        // instead of searching that one parallelism again.
        let all = all_4gpu();
        let parallel = search(&all, dynapipe)[0].parallel;
        let packing_all = search(&all, packing);
        let filtered: Vec<_> = packing_all
            .into_iter()
            .filter(|s| s.parallel == parallel)
            .collect();
        let pinned = search(&[parallel], packing);
        assert!(!pinned.is_empty(), "packing must run at {parallel}");
        assert_eq!(ranking(&filtered), ranking(&pinned));
    }
}
