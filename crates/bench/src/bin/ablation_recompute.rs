//! Ablation: dynamic recomputation selection (§7).
//!
//! For GPT and T5 deployments at several maximum sequence lengths, compare
//! throughput when the planner is *forced* into each recomputation mode
//! against DynaPipe's per-iteration dynamic choice. The paper's claim: the
//! best mode depends on the workload's memory pressure, and picking it
//! dynamically gets the best of every regime.

use dynapipe_bench::{probe_minibatches, run_point, write_json, Point, DATASET_SAMPLES, SEED};
use dynapipe_core::{probe_throughput, DynaPipePlanner, PlannerConfig};
use dynapipe_cost::{CostModel, ProfileOptions};
use dynapipe_data::Dataset;
use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig, RecomputeMode};
use std::sync::Arc;

fn main() {
    let hw = HardwareModel::a100_cluster();
    let dataset = Dataset::flanv2(SEED, DATASET_SAMPLES);
    let mut out = Vec::new();
    println!("Ablation — recomputation modes (tokens/s; forced vs dynamic)\n");
    println!(
        "{:>5} {:>8} | {:>9} {:>9} {:>9} | {:>9} {:>10}",
        "model", "max len", "none", "selective", "full", "dynamic", "dyn picks"
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
        let planner = DynaPipePlanner::new(cm.clone(), PlannerConfig::default());
        for msl in [512usize, 2048, 8192] {
            let point = Point {
                model,
                num_gpus: 8,
                max_seq_len: msl,
                gbs_tokens: 65536,
            };
            let probes = probe_minibatches(&dataset, &point, 2);
            let budget = planner.planning_budget();
            let forced = RecomputeMode::ALL.map(|mode| {
                probe_throughput(&cm, &probes, |mb| {
                    let mut samples = mb.to_vec();
                    dynapipe_batcher::sort_samples(cm.model.arch, &mut samples);
                    planner.plan_with_mode(&samples, budget, mode)
                })
            });
            // Dynamic selection via the normal path.
            let report = run_point(&planner, &dataset, &point);
            let dynamic = report.feasible().then(|| report.throughput());
            let picks: String = report
                .records
                .iter()
                .map(|r| r.recompute.chars().next().unwrap_or('?'))
                .collect();
            let f = |x: &Option<f64>| x.map(|v| format!("{v:.0}")).unwrap_or("OOM".into());
            println!(
                "{name:>5} {msl:>8} | {:>9} {:>9} {:>9} | {:>9} {:>10}",
                f(&forced[0]),
                f(&forced[1]),
                f(&forced[2]),
                f(&dynamic),
                picks
            );
            out.push(serde_json::json!({
                "model": name, "max_seq_len": msl,
                "none": forced[0], "selective": forced[1], "full": forced[2],
                "dynamic": dynamic, "per_iteration_picks": picks,
            }));
        }
    }
    println!(
        "\nShape check (§7): no single forced mode wins everywhere — storing\n\
         activations wins when memory is abundant, recomputation wins when the\n\
         workload is activation-bound — and the dynamic choice tracks the best\n\
         forced mode at every point ('n'/'s'/'f' = per-iteration picks)."
    );
    write_json("ablation_recompute", &out);
}
