//! The `t_max` search solves a small fraction of the candidates.
//!
//! One 65k-token GPT mini-batch of the Fig. 17 configuration (GPT 6.7B,
//! tp2 pp4, max sequence length 4096) is partitioned under every
//! recompute mode, twice: by the full-sweep reference, which solves Eq. 2
//! once per `t_max` candidate, and by the optimized path. The process-wide
//! solve counter is exact here because this file holds a single test, so
//! nothing else runs in the process.

use dynapipe_batcher::{dp_solve_stats, sort_samples, DpConfig, Partitioner, SliceFwdCosts};
use dynapipe_cost::{CostModel, ProfileOptions};
use dynapipe_data::{Dataset, GlobalBatchConfig, GlobalBatchIter};
use dynapipe_model::memory::RecomputeMode;
use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};

#[test]
fn optimized_sweep_solves_under_a_quarter_of_the_candidates() {
    let cm = CostModel::build(
        HardwareModel::a100_cluster(),
        ModelConfig::gpt_6_7b(),
        ParallelConfig::new(1, 2, 4),
        &ProfileOptions::default(),
    );
    let dataset = Dataset::flanv2(20240422, 6000);
    let mut samples = GlobalBatchIter::new(
        &dataset,
        GlobalBatchConfig {
            tokens_per_batch: 65536,
            max_seq_len: 4096,
        },
    )
    .next()
    .expect("the dataset holds a 65k-token mini-batch");
    sort_samples(cm.model.arch, &mut samples);

    for mode in RecomputeMode::ALL {
        let mut cfg = DpConfig::new(cm.min_activation_budget());
        cfg.recompute = mode;
        cfg.max_mb_samples = 128;
        let p = Partitioner::new(&cm, cfg);

        let before = dp_solve_stats();
        let reference = p.partition_reference(&samples).expect("feasible");
        let candidates = dp_solve_stats().since(&before).eq2_solves;

        let shapes = p.shape_pass(&samples);
        let fwd = SliceFwdCosts::build(&cm, &shapes);
        let before = dp_solve_stats();
        let fast = p
            .partition_with_context(&shapes, &fwd, &samples)
            .expect("feasible");
        let solves = dp_solve_stats().since(&before).eq2_solves;

        assert_eq!(
            fast.ranges, reference.ranges,
            "{mode:?}: partition diverged"
        );
        assert!(candidates >= 16, "{mode:?}: only {candidates} candidates");
        assert!(
            solves * 4 < candidates,
            "{mode:?}: {solves} solves of {candidates} candidates"
        );
        eprintln!("{mode:?}: {solves} solves of {candidates} candidates");
    }
}
