//! Criterion bench: the DP micro-batch partitioner (§4) — the dominant
//! term in Fig. 17's planning time — across mini-batch sizes and `t_max`
//! candidate budgets (the resolution ablation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dynapipe_batcher::{sort_samples, DpConfig, Partitioner, SliceFwdCosts};
use dynapipe_cost::{CostModel, ProfileOptions};
use dynapipe_data::{Dataset, Sample};
use dynapipe_model::memory::RecomputeMode;
use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};

fn minibatch(tokens: usize) -> Vec<Sample> {
    let d = Dataset::flanv2(77, 20_000);
    let mut out = Vec::new();
    let mut acc = 0usize;
    for s in &d.samples {
        let s = s.truncated(4096);
        acc += s.total_tokens();
        out.push(s);
        if acc >= tokens {
            break;
        }
    }
    out
}

fn bench_partitioner(c: &mut Criterion) {
    let cm = CostModel::build(
        HardwareModel::a100_cluster(),
        ModelConfig::gpt_6_7b(),
        ParallelConfig::new(1, 2, 4),
        &ProfileOptions::default(),
    );
    let mut group = c.benchmark_group("dp_partitioner");
    group.sample_size(10);
    for gbs in [16384usize, 65536] {
        let mut samples = minibatch(gbs);
        sort_samples(cm.model.arch, &mut samples);
        group.bench_with_input(BenchmarkId::new("gbs", gbs), &samples, |b, samples| {
            let p = Partitioner::new(&cm, DpConfig::new(cm.min_activation_budget()));
            b.iter(|| {
                p.partition(std::hint::black_box(samples))
                    .unwrap()
                    .num_micro_batches()
            })
        });
    }
    // Ablation: t_max candidate budget (resolution of the outer sweep).
    let mut samples = minibatch(65536);
    sort_samples(cm.model.arch, &mut samples);
    for cands in [16usize, 96, 512] {
        group.bench_with_input(
            BenchmarkId::new("tmax_candidates", cands),
            &samples,
            |b, samples| {
                let mut cfg = DpConfig::new(cm.min_activation_budget());
                cfg.max_candidates = cands;
                let p = Partitioner::new(&cm, cfg);
                b.iter(|| {
                    p.partition(std::hint::black_box(samples))
                        .unwrap()
                        .est_iteration_time
                })
            },
        );
    }
    // The pricing layer in isolation: scalar per-shape grid queries vs
    // the batched split the cost pass uses — locate once, price the
    // mode-independent terms once, then one activation and one recompute
    // solve per mode. Run on the distinct shapes of a 65k-token
    // mini-batch.
    {
        let p = Partitioner::new(&cm, DpConfig::new(cm.min_activation_budget()));
        let shapes = p.shape_pass(&samples);
        let distinct = shapes.distinct_shapes().to_vec();
        let all = vec![true; distinct.len()];
        group.bench_with_input(
            BenchmarkId::new("price_scalar", distinct.len()),
            &distinct,
            |b, distinct| {
                let pricer = cm.shape_pricer(RecomputeMode::Selective);
                b.iter(|| {
                    let mut acc = 0.0f64;
                    for s in std::hint::black_box(distinct) {
                        acc += pricer.mb_fwd(s) + pricer.mb_bwd(s);
                        acc += pricer.mb_activation_max(s) as f64;
                    }
                    acc
                })
            },
        );
        // Cold: plan build (locate) + mode-free + one mode's pricing, what
        // a one-shot caller pays.
        group.bench_with_input(
            BenchmarkId::new("price_batched_cold", distinct.len()),
            &distinct,
            |b, distinct| {
                let pricer = cm.shape_pricer(RecomputeMode::Selective);
                b.iter(|| {
                    let batch = pricer.locate_batch(std::hint::black_box(distinct));
                    let base = pricer.price_mode_free(&batch);
                    let bwd = pricer.mb_bwd_batch_masked(&batch, &base, &all);
                    let act = pricer.mb_activation_max_batch(&batch);
                    let mut acc = 0.0f64;
                    for i in 0..distinct.len() {
                        acc += base.fwd()[i] + bwd[i] + act[i] as f64;
                    }
                    acc
                })
            },
        );
        // Warm: plan located and mode-free terms priced once, what each
        // recompute mode of the §7 sweep pays after `SliceFwdCosts`.
        group.bench_with_input(
            BenchmarkId::new("price_batched_warm", distinct.len()),
            &distinct,
            |b, distinct| {
                let pricer = cm.shape_pricer(RecomputeMode::Selective);
                let batch = pricer.locate_batch(distinct);
                let base = pricer.price_mode_free(&batch);
                b.iter(|| {
                    let bwd = pricer.mb_bwd_batch_masked(std::hint::black_box(&batch), &base, &all);
                    let act = pricer.mb_activation_max_batch(&batch);
                    let mut acc = 0.0f64;
                    for i in 0..distinct.len() {
                        acc += base.fwd()[i] + bwd[i] + act[i] as f64;
                    }
                    acc
                })
            },
        );
    }

    // The §7 sweep's de-duplication win in isolation: one mini-batch, all
    // recompute modes. "rebuild" reruns the full two-pass build per mode
    // (what a context-free caller pays); "shared" reuses one shape pass
    // and one mode-independent cost table across the whole mode sweep (what
    // `plan_iteration` pays via `PlanContext`).
    for (label, shared) in [("mode_sweep_rebuild", false), ("mode_sweep_shared", true)] {
        group.bench_with_input(BenchmarkId::new(label, 65536), &samples, |b, samples| {
            let cfg = DpConfig::new(cm.min_activation_budget());
            b.iter(|| {
                let mut total_mbs = 0usize;
                if shared {
                    let p = Partitioner::new(&cm, cfg);
                    let shapes = p.shape_pass(std::hint::black_box(samples));
                    let fwd = SliceFwdCosts::build(&cm, &shapes);
                    for mode in RecomputeMode::ALL {
                        let mut mode_cfg = cfg;
                        mode_cfg.recompute = mode;
                        let p = Partitioner::new(&cm, mode_cfg);
                        total_mbs += p
                            .partition_with_context(&shapes, &fwd, samples)
                            .unwrap()
                            .num_micro_batches();
                    }
                } else {
                    for mode in RecomputeMode::ALL {
                        let mut mode_cfg = cfg;
                        mode_cfg.recompute = mode;
                        let p = Partitioner::new(&cm, mode_cfg);
                        total_mbs += p
                            .partition(std::hint::black_box(samples))
                            .unwrap()
                            .num_micro_batches();
                    }
                }
                total_mbs
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_partitioner);
criterion_main!(benches);
