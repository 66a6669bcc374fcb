//! Cross-crate property-based tests (proptest) on the reproduction's core
//! invariants.

use dynapipe_batcher::{
    karmarkar_karp, pack_samples, sort_samples, tsp_order, DpConfig, MicroBatch, Partitioner,
};
use dynapipe_comm::{naive_plan, plan_communication, verify_deadlock_free, PlanInputs};
use dynapipe_cost::{Axis, CostModel, GridSet, NdGrid, ProfileOptions};
use dynapipe_data::Sample;
use dynapipe_model::memory::RecomputeMode;
use dynapipe_model::{
    Bytes, HardwareModel, MicroBatchShape, ModelArch, ModelConfig, ParallelConfig,
};
use dynapipe_schedule::{adaptive_schedule, evaluate_schedule, one_f_one_b, ScheduleInput};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Shared cost model: building one per proptest case would dominate runtime.
fn shared_cm() -> &'static CostModel {
    static CM: OnceLock<CostModel> = OnceLock::new();
    CM.get_or_init(|| {
        CostModel::build(
            HardwareModel::a100_cluster(),
            ModelConfig::gpt_3_35b(),
            ParallelConfig::new(1, 1, 4),
            &ProfileOptions::coarse(),
        )
    })
}

fn arb_sample(max_len: usize) -> impl Strategy<Value = Sample> {
    (1usize..max_len, 1usize..max_len / 4, 0u64..1000).prop_map(|(i, t, id)| Sample {
        id,
        task: 0,
        input_len: i,
        target_len: t,
    })
}

fn arb_samples(n: usize, max_len: usize) -> impl Strategy<Value = Vec<Sample>> {
    proptest::collection::vec(arb_sample(max_len), 1..n)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn dp_partition_covers_each_sample_once(mut samples in arb_samples(48, 3000)) {
        let cm = shared_cm();
        sort_samples(cm.model.arch, &mut samples);
        let p = Partitioner::new(cm, DpConfig::new(Bytes::MAX / 4));
        let r = p.partition(&samples).expect("unlimited memory is feasible");
        let total: usize = r.micro_batches.iter().map(MicroBatch::len).sum();
        prop_assert_eq!(total, samples.len());
        let mut cursor = 0;
        for range in &r.ranges {
            prop_assert_eq!(range.start, cursor);
            cursor = range.end;
        }
        prop_assert_eq!(cursor, samples.len());
    }

    #[test]
    fn dp_partition_respects_memory_limit(mut samples in arb_samples(40, 2500)) {
        let cm = shared_cm();
        sort_samples(cm.model.arch, &mut samples);
        // A limit of twice the largest single sample keeps things feasible.
        let worst = samples
            .iter()
            .map(|s| {
                cm.mb_activation_max(
                    &MicroBatchShape::gpt(1, s.gpt_len()),
                    RecomputeMode::None,
                )
            })
            .max()
            .unwrap();
        let limit = worst * 2;
        let mut cfg = DpConfig::new(limit);
        cfg.max_mb_samples = 16;
        let p = Partitioner::new(cm, cfg);
        let r = p.partition(&samples).expect("limit >= worst sample");
        for mb in &r.micro_batches {
            let mem = cm.mb_activation_max(&mb.shape(cm.model.arch), RecomputeMode::None);
            prop_assert!(mem <= limit);
            prop_assert!(mb.len() <= 16);
        }
    }

    #[test]
    fn tsp_is_permutation_and_no_worse_than_sort(samples in arb_samples(32, 4000)) {
        let mut sorted = samples.clone();
        sort_samples(ModelArch::T5, &mut sorted);
        let mut tsp = samples.clone();
        tsp_order(&mut tsp);
        let mut a: Vec<u64> = samples.iter().map(|s| s.id).collect();
        let mut b: Vec<u64> = tsp.iter().map(|s| s.id).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
        prop_assert!(
            dynapipe_batcher::ordering::path_cost(&tsp)
                <= dynapipe_batcher::ordering::path_cost(&sorted)
        );
    }

    #[test]
    fn kk_partition_is_exact_cover_and_balanced(
        weights in proptest::collection::vec(1.0f64..1000.0, 1..40),
        k in 1usize..8,
    ) {
        let parts = karmarkar_karp(&weights, k);
        prop_assert_eq!(parts.len(), k);
        let mut seen: Vec<usize> = parts.iter().flatten().copied().collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..weights.len()).collect::<Vec<_>>());
        // Max part is at least the trivial lower bound and no worse than
        // putting everything in one part.
        let max = dynapipe_batcher::kk::max_part_sum(&weights, &parts);
        let total: f64 = weights.iter().sum();
        let biggest = weights.iter().copied().fold(0.0, f64::max);
        prop_assert!(max + 1e-9 >= (total / k as f64).max(biggest));
        prop_assert!(max <= total + 1e-9);
    }

    #[test]
    fn packing_covers_and_respects_capacity(samples in arb_samples(64, 3000)) {
        let packs = pack_samples(&samples, ModelArch::Gpt, 2048, 0);
        let packed: usize = packs.iter().map(|p| p.samples.len()).sum();
        prop_assert_eq!(packed, samples.len());
        for p in &packs {
            prop_assert!(p.input_used <= 2048);
        }
    }

    #[test]
    fn schedules_complete_and_respect_memory(
        m in 1usize..12,
        c in 1usize..6,
        scales in proptest::collection::vec(0.2f64..2.0, 12),
    ) {
        let mut input = ScheduleInput::uniform(m, c, 50.0, 100.0, 100);
        for i in 0..m {
            for j in 0..c {
                input.fwd[i][j] *= scales[i];
                input.bwd[i][j] *= scales[i];
            }
        }
        // 1F1B is always well-formed.
        let s1 = one_f_one_b(m, c);
        prop_assert!(s1.validate(m).is_ok());
        prop_assert!(evaluate_schedule(&s1, &input).is_ok());
        // Adaptive under a binding (but feasible) memory limit.
        input.mem_limit = vec![250; c];
        let s2 = adaptive_schedule(&input);
        prop_assert!(s2.validate(m).is_ok());
        let peaks = s2.peak_memory(&input.act);
        for p in peaks {
            prop_assert!(p <= 250);
        }
        prop_assert!(evaluate_schedule(&s2, &input).is_ok());
    }

    #[test]
    fn adaptive_converges_and_respects_heterogeneous_limits(
        m in 1usize..12,
        c in 1usize..6,
        acts in proptest::collection::vec(1u64..400, 72),
        headroom in proptest::collection::vec(0u64..600, 6),
    ) {
        // Random per-(micro-batch, stage) activation sizes and random
        // per-stage limits exercise the head-of-line blocking path (a
        // deferred forward pushed back to the buffer head): the schedule
        // must still converge (no guard panic), stay well-formed, and keep
        // every stage's peak within its own limit.
        let mut input = ScheduleInput::uniform(m, c, 10.0, 20.0, 0);
        input.act = (0..m)
            .map(|i| (0..c).map(|j| acts[(i * c + j) % acts.len()]).collect())
            .collect();
        // Feasibility requires each stage to fit its largest single
        // activation; add random (possibly zero) headroom on top so some
        // stages block injection hard and others barely at all.
        input.mem_limit = (0..c)
            .map(|j| {
                let worst = (0..m).map(|i| input.act[i][j]).max().unwrap_or(1);
                worst + headroom[j % headroom.len()]
            })
            .collect();
        let s = adaptive_schedule(&input);
        s.validate(m).map_err(|e| TestCaseError::fail(format!("invalid schedule: {e}")))?;
        let peaks = s.peak_memory(&input.act);
        for (j, &p) in peaks.iter().enumerate() {
            prop_assert!(
                p <= input.mem_limit[j],
                "stage {j} peak {p} exceeds limit {}",
                input.mem_limit[j]
            );
        }
        prop_assert!(evaluate_schedule(&s, &input).is_ok());
    }

    #[test]
    fn batched_grid_queries_match_scalar_bitwise(
        raw0 in proptest::collection::vec(1usize..5000, 1..8),
        raw1 in proptest::collection::vec(1usize..5000, 1..8),
        raw2 in proptest::collection::vec(1usize..5000, 1..8),
        coeffs in (0.1f64..10.0, 0.1f64..10.0, 0.1f64..10.0),
        memo in (0usize..8000, 0usize..8000, 0usize..8000),
        points in proptest::collection::vec(
            (0usize..8000, 0usize..8000, 0usize..8000),
            1..40,
        ),
    ) {
        // Random axes (sorted, deduplicated; a single sample makes an axis
        // degenerate), random sample data, random query points including
        // below-range (clamping) and above-range (extrapolating)
        // coordinates, and random memo and row-table bounds (coordinates
        // past one locate unmemoized or read a scratch row): a grid set's
        // reader, the batched path pricing runs, must reproduce the scalar
        // `NdGrid::query` of each of its grids bit for bit.
        let axis = |mut v: Vec<usize>| {
            v.sort_unstable();
            v.dedup();
            Axis::new(v)
        };
        let (a0, a1, a2) = (axis(raw0), axis(raw1), axis(raw2));
        let (ca, cb, cc) = coeffs;
        let grids = [1.0, -0.5, 3.0].map(|k| {
            NdGrid::build(a0.clone(), a1.clone(), a2.clone(), |x0, x1, x2| {
                k * ca * x0 as f64 + cb * (x1 as f64).sqrt() + cc * (x0 * x2) as f64
            })
        });
        let set = GridSet::new([&grids[0], &grids[1], &grids[2]], [memo.0, memo.1, memo.2]);
        let mut reader = set.reader();
        for p in &points {
            let values = reader.query(p.0, p.1, p.2);
            for (g, v) in grids.iter().zip(values) {
                let scalar = g.query(p.0, p.1, p.2);
                prop_assert!(
                    v.to_bits() == scalar.to_bits(),
                    "point {:?}: batched {} vs scalar {}",
                    p,
                    v,
                    scalar
                );
            }
        }
    }

    #[test]
    fn planned_communication_never_deadlocks(
        m in 1usize..10,
        c in 2usize..6,
        scales in proptest::collection::vec(0.2f64..2.5, 10),
        limit_factor in 1usize..8,
    ) {
        let mut input = ScheduleInput::uniform(m, c, 50.0, 100.0, 100);
        for i in 0..m {
            for j in 0..c {
                input.fwd[i][j] *= scales[i];
                input.bwd[i][j] *= scales[i];
            }
        }
        input.mem_limit = vec![100 * limit_factor as u64; c];
        let schedule = adaptive_schedule(&input);
        let timeline = evaluate_schedule(&schedule, &input).unwrap();
        let boundary = vec![vec![512u64; c - 1]; m];
        let shapes = vec![MicroBatchShape::gpt(1, 64); m];
        let plan = plan_communication(&PlanInputs {
            schedule: &schedule,
            timeline: &timeline,
            boundary_bytes: &boundary,
            shapes: &shapes,
            recompute: RecomputeMode::None,
        });
        prop_assert!(plan.validate().is_ok());
        prop_assert!(verify_deadlock_free(&plan).is_ok());
        // The naive order may or may not deadlock, but must never produce
        // an invalid plan structure.
        let naive = naive_plan(&schedule, &boundary, &shapes, RecomputeMode::None);
        prop_assert!(naive.validate().is_ok());
    }
}
