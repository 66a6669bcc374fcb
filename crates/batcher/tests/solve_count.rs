//! The optimized partitioner matches the full-sweep reference on the
//! Fig. 17 workload, and its `t_max` search solves a small fraction of
//! the candidates.
//!
//! The first four 65k-token mini-batches of the Fig. 17 configuration
//! (max sequence length 4096) are partitioned under every recompute mode
//! for GPT 6.7B (tp2 pp4) and T5 11B (tp4 pp2), twice: by the full-sweep
//! reference, which solves Eq. 2 once per `t_max` candidate, and by the
//! optimized path. The two must return the same `Option<PartitionResult>`
//! — infeasible modes included — bit for bit. On the first mini-batch
//! each feasible mode must also solve under a quarter of the candidates.
//! The process-wide solve counter is exact here because this file holds
//! a single test, so nothing else runs in the process.

use dynapipe_batcher::{dp_solve_stats, sort_samples, DpConfig, Partitioner, SliceFwdCosts};
use dynapipe_cost::{CostModel, ProfileOptions};
use dynapipe_data::{Dataset, GlobalBatchConfig, GlobalBatchIter};
use dynapipe_model::memory::RecomputeMode;
use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};

#[test]
fn optimized_sweep_solves_under_a_quarter_of_the_candidates() {
    let dataset = Dataset::flanv2(20240422, 6000);
    let minibatches: Vec<_> = GlobalBatchIter::new(
        &dataset,
        GlobalBatchConfig {
            tokens_per_batch: 65536,
            max_seq_len: 4096,
        },
    )
    .take(4)
    .collect();
    assert_eq!(minibatches.len(), 4, "the dataset holds four mini-batches");

    for (name, model, parallel) in [
        ("GPT", ModelConfig::gpt_6_7b(), ParallelConfig::new(1, 2, 4)),
        ("T5", ModelConfig::t5_11b(), ParallelConfig::new(1, 4, 2)),
    ] {
        let cm = CostModel::build(
            HardwareModel::a100_cluster(),
            model,
            parallel,
            &ProfileOptions::default(),
        );
        for (i, minibatch) in minibatches.iter().enumerate() {
            let mut samples = minibatch.clone();
            sort_samples(cm.model.arch, &mut samples);
            for mode in RecomputeMode::ALL {
                let mut cfg = DpConfig::new(cm.min_activation_budget());
                cfg.recompute = mode;
                cfg.max_mb_samples = 128;
                let p = Partitioner::new(&cm, cfg);

                let before = dp_solve_stats();
                let reference = p.partition_reference(&samples);
                let candidates = dp_solve_stats().since(&before).eq2_solves;

                let shapes = p.shape_pass(&samples);
                let fwd = SliceFwdCosts::build(&cm, &shapes);
                let before = dp_solve_stats();
                let fast = p.partition_with_context(&shapes, &fwd, &samples);
                let solves = dp_solve_stats().since(&before).eq2_solves;

                assert_eq!(
                    fast, reference,
                    "{name} mini-batch {i} {mode:?}: partition diverged"
                );
                if i == 0 && reference.is_some() {
                    assert!(
                        candidates >= 16,
                        "{name} {mode:?}: only {candidates} candidates"
                    );
                    assert!(
                        solves * 4 < candidates,
                        "{name} {mode:?}: {solves} solves of {candidates} candidates"
                    );
                    eprintln!("{name} {mode:?}: {solves} solves of {candidates} candidates");
                }
            }
        }
    }
}
