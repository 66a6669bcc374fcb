//! Golden equivalence of the optimized DP partitioner.
//!
//! The planning hot path shares a two-pass slice table across the
//! recompute modes, finds `t_max` with an exact bound-driven search that
//! solves only the candidates a solved neighbour cannot rule out, and runs
//! the recompute-mode sweep on the rayon pool. None of that may change
//! *what* the planner chooses: this test pins the optimized
//! [`Partitioner::partition_with_context`] to the retained serial
//! reference implementation ([`Partitioner::partition_reference`]) across
//! seeded mini-batches, both model architectures, data-parallel degrees
//! and per-micro-batch memory limits, and pins
//! [`DynaPipePlanner::plan_iteration`]'s whole plan to be the same at
//! every pool width. The tight limits (a quarter and a sixteenth of the
//! activation budget) leave the small `t_max` candidates infeasible, and
//! at the tightest some mini-batches have no partition at all; both paths
//! must agree there too.

use dynapipe_repro::batcher::SliceFwdCosts;
use dynapipe_repro::prelude::*;
use std::sync::Arc;

/// Pool widths every case runs under; no result may depend on them.
const THREADS: [usize; 4] = [1, 2, 3, 4];

/// Seeded FLANv2-like mini-batch of roughly `tokens` tokens.
fn minibatch(seed: u64, tokens: usize, msl: usize) -> Vec<Sample> {
    let d = Dataset::flanv2(seed, 4000);
    let mut out = Vec::new();
    let mut acc = 0usize;
    for s in &d.samples {
        let s = s.truncated(msl);
        acc += s.total_tokens();
        out.push(s);
        if acc >= tokens {
            break;
        }
    }
    out
}

fn check_equivalence(cm: CostModel, arch_label: &str) {
    let cm = Arc::new(cm);
    let planner = DynaPipePlanner::new(Arc::clone(&cm), PlannerConfig::default());
    let budget = cm.min_activation_budget();
    let mut cases = 0usize;
    let mut infeasible = 0usize;
    for seed in [1u64, 7, 23, 51, 97] {
        let minibatch = minibatch(seed, 16384, 2048);
        let mut samples = minibatch.clone();
        sort_samples(cm.model.arch, &mut samples);
        let mut partitioners = Vec::new();
        for dp_degree in [1usize, 4] {
            for limit in [budget, budget / 4, budget / 16] {
                for mode in RecomputeMode::ALL {
                    let mut cfg = DpConfig::new(limit);
                    cfg.dp_degree = dp_degree;
                    cfg.max_mb_samples = 64;
                    cfg.recompute = mode;
                    let p = Partitioner::new(&cm, cfg);
                    let reference = p.partition_reference(&samples);
                    infeasible += usize::from(reference.is_none());
                    partitioners.push((cfg, p, reference));
                }
            }
        }
        let mut plan_at_one_thread = None;
        for threads in THREADS {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("shim pools always build");
            pool.install(|| {
                let plan = planner.plan_iteration(&minibatch).map(|mut plan| {
                    plan.planning_time_us = 0.0;
                    plan
                });
                match &plan_at_one_thread {
                    None => plan_at_one_thread = Some(plan),
                    Some(first) => assert_eq!(
                        &plan, first,
                        "{arch_label} seed={seed} threads={threads}: \
                         plan_iteration differs from its 1-thread plan"
                    ),
                }
                for (cfg, p, reference) in &partitioners {
                    let case = format!(
                        "{arch_label} seed={seed} dp={} limit={} mode={:?} threads={threads}",
                        cfg.dp_degree, cfg.mb_memory_limit, cfg.recompute
                    );
                    let shapes = p.shape_pass(&samples);
                    let fwd = SliceFwdCosts::build(&cm, &shapes);
                    let fast = p.partition_with_context(&shapes, &fwd, &samples);
                    assert_eq!(&fast, reference, "{case}: partition diverged");
                    cases += 1;
                }
            });
        }
    }
    assert_eq!(
        cases, 360,
        "each architecture must cover 90 cases at 4 pool widths"
    );
    // The tight limits must reach the search's infeasible paths, and the
    // loose ones must leave partitions to compare.
    assert!(
        infeasible > 0 && infeasible < 90,
        "{arch_label}: {infeasible} of 90 cases infeasible"
    );
}

#[test]
fn optimized_partitioner_matches_reference_on_gpt() {
    let cm = CostModel::build(
        HardwareModel::a100_cluster(),
        ModelConfig::gpt_3_35b(),
        ParallelConfig::new(1, 1, 4),
        &ProfileOptions::coarse(),
    );
    check_equivalence(cm, "GPT");
}

#[test]
fn optimized_partitioner_matches_reference_on_t5() {
    let cm = CostModel::build(
        HardwareModel::a100_cluster(),
        ModelConfig::t5_11b(),
        ParallelConfig::new(1, 4, 2),
        &ProfileOptions::coarse(),
    );
    check_equivalence(cm, "T5");
}
