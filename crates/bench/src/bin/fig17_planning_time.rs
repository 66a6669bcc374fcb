//! Fig. 17: execution-planning time.
//!
//! (a) Distribution of single-thread plan-generation time per iteration as
//!     the global batch size grows, for GPT and T5.
//! (b) Ratio of planning time to simulated iteration time — the number of
//!     CPU cores needed to fully overlap planning with training.
//!
//! Also demonstrates the worker-pool planner (§3) pushing plans through the
//! instruction store, on the store-backed plan-ahead runtime.

use dynapipe_bench::{probe_minibatches, run_point, write_json, BenchOpts, Point};
use dynapipe_core::{
    run_training_pipelined, DynaPipePlanner, PlanCodec, PlanDistribution, PlannerConfig, RunConfig,
    RuntimeConfig,
};
use dynapipe_cost::{CostModel, ProfileOptions};
use dynapipe_data::{Dataset, GlobalBatchConfig};
use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};
use std::sync::Arc;

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * p) as usize]
}

fn main() {
    let opts = BenchOpts::default();
    let hw = HardwareModel::a100_cluster();
    let dataset = Dataset::flanv2(opts.seed, opts.dataset_samples_at_least(6000));
    let mut out = Vec::new();
    println!("Fig. 17 — execution planning time\n");
    println!(
        "{:>5} {:>8} | {:>9} {:>9} {:>9} | {:>10} | {:>8}",
        "model", "GBS", "p10 (ms)", "p50 (ms)", "p90 (ms)", "iter (ms)", "ratio"
    );
    for (name, model, parallel) in [
        ("GPT", ModelConfig::gpt_6_7b(), ParallelConfig::new(1, 2, 4)),
        ("T5", ModelConfig::t5_11b(), ParallelConfig::new(1, 4, 2)),
    ] {
        let cm = Arc::new(CostModel::build(
            hw.clone(),
            model,
            parallel,
            &ProfileOptions::default(),
        ));
        for gbs in [16384usize, 32768, 65536, 131072] {
            let point = Point {
                model,
                num_gpus: 8,
                max_seq_len: 4096,
                gbs_tokens: gbs,
            };
            let planner = DynaPipePlanner::new(cm.clone(), PlannerConfig::default());
            // Plan a batch of iterations, collecting single-thread times.
            let minibatches = probe_minibatches(&dataset, &point, 8);
            let mut times: Vec<f64> = minibatches
                .iter()
                .filter_map(|mb| planner.plan_iteration(mb).ok())
                .map(|p| p.planning_time_us)
                .collect();
            times.sort_by(f64::total_cmp);
            // Measure the simulated iteration time for the ratio.
            let report = run_point(&planner, &dataset, &point, &opts);
            let iter_ms = if report.records.is_empty() {
                f64::NAN
            } else {
                report.records.iter().map(|r| r.measured_time).sum::<f64>()
                    / report.records.len() as f64
                    / 1e3
            };
            let p50 = percentile(&times, 0.5) / 1e3;
            let ratio = p50 / iter_ms;
            println!(
                "{name:>5} {gbs:>8} | {:>9.1} {:>9.1} {:>9.1} | {iter_ms:>10.1} | {ratio:>8.4}",
                percentile(&times, 0.1) / 1e3,
                p50,
                percentile(&times, 0.9) / 1e3,
            );
            out.push(serde_json::json!({
                "model": name, "gbs": gbs,
                "planning_ms": times.iter().map(|t| t / 1e3).collect::<Vec<_>>(),
                "iteration_ms": iter_ms,
                "ratio": ratio,
            }));
        }
    }

    // Worker-pool planning demonstration: the store-backed runtime's
    // planner pool pushes every plan into the instruction store.
    println!("\nworker-pool planning through the instruction store (GBS 65536, GPT):");
    let cm = Arc::new(CostModel::build(
        hw.clone(),
        ModelConfig::gpt_6_7b(),
        ParallelConfig::new(1, 2, 4),
        &ProfileOptions::default(),
    ));
    let planner = DynaPipePlanner::new(cm, PlannerConfig::default());
    let gbs = GlobalBatchConfig {
        tokens_per_batch: 65536,
        max_seq_len: 4096,
    };
    let run = RunConfig {
        max_iterations: Some(opts.capped(8, 2)),
        ..Default::default()
    };
    for workers in [1usize, 4] {
        let (report, stats) = run_training_pipelined(
            &planner,
            &dataset,
            gbs,
            run,
            RuntimeConfig {
                workers,
                distribution: PlanDistribution::StoreBacked,
                codec: PlanCodec::Flat,
                ..Default::default()
            },
        );
        if let Some(e) = &report.failure {
            println!("  {workers} worker(s): run stopped: {e}");
        }
        println!(
            "  {workers} worker(s): host wall {:8.1} ms, planning {:8.1} ms, exposed {:6.1} ms \
             ({:.0}% hidden), {} plans stored",
            stats.host_wall_us / 1e3,
            stats.total_planning_us() / 1e3,
            stats.exposed_planning_us() / 1e3,
            stats.overlap_ratio() * 100.0,
            stats.store.map_or(0, |s| s.pushes),
        );
    }
    println!(
        "\nShape check (paper Fig. 17): planning time grows with GBS (the DP\n\
         dominates); the planning/iteration ratio stays far below 1, so planning\n\
         fully overlaps with training. Note the paper's planner is ~10K LoC of\n\
         Python with a 5 µs t_max resolution (ratios up to 12.9); this compiled\n\
         reproduction with a capped candidate set plans ~3 orders of magnitude\n\
         faster, so its ratios sit well below one even single-threaded."
    );
    write_json("fig17_planning_time", &out);
}
