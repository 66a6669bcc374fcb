//! Golden equivalence of the optimized DP partitioner.
//!
//! The planning hot path was restructured around a shared two-pass slice
//! table, a golden-section-seeded `t_max` sweep with a monotonicity
//! early-exit, and a recompute-mode sweep that runs on the rayon pool.
//! None of that may change *what* the planner chooses: this test pins the
//! optimized [`Partitioner::partition_with_context`] to the retained
//! serial reference implementation
//! ([`Partitioner::partition_reference`]) across seeded mini-batches,
//! both model architectures and data-parallel degrees, and pins
//! [`DynaPipePlanner::plan_iteration`]'s whole plan to be the same at
//! every pool width.

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
    for seed in [1u64, 7, 23, 51, 97] {
        for dp_degree in [1usize, 4] {
            let minibatch = minibatch(seed, 16384, 2048);
            let mut samples = minibatch.clone();
            sort_samples(cm.model.arch, &mut samples);
            let mut cfg = DpConfig::new(budget);
            cfg.dp_degree = dp_degree;
            cfg.max_mb_samples = 64;
            let p = Partitioner::new(&cm, cfg);
            let reference = p.partition_reference(&samples);
            let mut plan_at_one_thread = None;
            for threads in THREADS {
                let case = format!("{arch_label} seed={seed} dp={dp_degree} threads={threads}");
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("shim pools always build");
                let (fast, plan) = pool.install(|| {
                    let shapes = p.shape_pass(&samples);
                    let fwd = SliceFwdCosts::build(&cm, &shapes);
                    let fast = p.partition_with_context(&shapes, &fwd, &samples);
                    let plan = planner.plan_iteration(&minibatch).map(|mut plan| {
                        plan.planning_time_us = 0.0;
                        plan
                    });
                    (fast, plan)
                });
                match (fast, &reference) {
                    (Some(fast), Some(reference)) => {
                        let rel = (fast.est_iteration_time - reference.est_iteration_time).abs()
                            / reference.est_iteration_time.max(f64::MIN_POSITIVE);
                        assert!(
                            rel < 1e-9,
                            "{case}: objective diverged \
                             (optimized {} vs reference {}, rel {rel})",
                            fast.est_iteration_time,
                            reference.est_iteration_time
                        );
                        assert_eq!(fast.ranges, reference.ranges, "{case}: partition diverged");
                    }
                    (fast, reference) => assert_eq!(
                        fast.is_none(),
                        reference.is_none(),
                        "{case}: feasibility diverged"
                    ),
                }
                match &plan_at_one_thread {
                    None => plan_at_one_thread = Some(plan),
                    Some(first) => assert_eq!(
                        &plan, first,
                        "{case}: plan_iteration differs from its 1-thread plan"
                    ),
                }
                cases += 1;
            }
        }
    }
    assert_eq!(
        cases, 40,
        "each architecture must cover 10 cases at 4 pool widths"
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
