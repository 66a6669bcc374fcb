//! Fig. 16: ablation study.
//!
//! (a) Micro-batch construction methods on T5 (11B), msl 4096, GBS 65536,
//!     8 GPUs, with a non-pipelined parallelism (tp=8) so that only the
//!     micro-batching policy differs: MLM+DS packing, token-based with
//!     sorted "(S)" and TSP "(T)" ordering, and the DP algorithm with both
//!     orderings.
//!
//! (b) Pipeline schedules on GPT with 4 pipeline stages: 1F1B vs adaptive
//!     without and with micro-batch reordering, at two global batch sizes,
//!     normalized to 1F1B.

use dynapipe_batcher::OrderingStrategy;
use dynapipe_bench::{
    eval_packing, eval_token_based, run_point, write_json, Point, DATASET_SAMPLES, SEED,
};
use dynapipe_core::{DynaPipePlanner, PlannerConfig, ScheduleKind};
use dynapipe_cost::{CostModel, ProfileOptions};
use dynapipe_data::Dataset;
use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};
use std::sync::Arc;

fn main() {
    let hw = HardwareModel::a100_cluster();
    let dataset = Dataset::flanv2(SEED, DATASET_SAMPLES);
    let mut out = Vec::new();

    // ----- (a) micro-batching methods ------------------------------------
    println!("=== Fig. 16a — micro-batching methods (T5 11B, msl 4096, tp=8) ===");
    let t5 = ModelConfig::t5_11b();
    let parallel = ParallelConfig::new(1, 8, 1);
    let point = Point {
        model: t5,
        num_gpus: 8,
        max_seq_len: 4096,
        gbs_tokens: 65536,
    };
    let cm = Arc::new(CostModel::build(
        hw.clone(),
        t5,
        parallel,
        &ProfileOptions::default(),
    ));
    let mut row = |label: &str, tps: Option<f64>| {
        println!(
            "  {label:<12} {:>10} tokens/s",
            tps.map(|v| format!("{v:.0}")).unwrap_or("OOM".into())
        );
        out.push(serde_json::json!({"part": "a", "method": label, "throughput": tps}));
    };
    let mlm = eval_packing(&hw, &dataset, &point, &[parallel]);
    row("MLM+DS", mlm.map(|r| r.throughput));
    for (label, ordering) in [
        ("TB (S)", OrderingStrategy::Sort),
        ("TB (T)", OrderingStrategy::Tsp),
    ] {
        let r = eval_token_based(&hw, &dataset, &point, parallel, ordering);
        row(label, r.map(|x| x.throughput));
    }
    for (label, ordering) in [
        ("DP (S)", OrderingStrategy::Sort),
        ("DP (T)", OrderingStrategy::Tsp),
    ] {
        let cfg = PlannerConfig {
            ordering,
            ..Default::default()
        };
        let planner = DynaPipePlanner::new(cm.clone(), cfg);
        let r = run_point(&planner, &dataset, &point);
        row(label, r.feasible().then(|| r.throughput()));
    }

    // ----- (b) pipeline schedules -----------------------------------------
    println!("\n=== Fig. 16b — schedule methods (GPT, 4 pipeline stages) ===");
    let gpt = ModelConfig::gpt_6_7b();
    let parallel = ParallelConfig::new(1, 2, 4);
    let cm = Arc::new(CostModel::build(
        hw.clone(),
        gpt,
        parallel,
        &ProfileOptions::default(),
    ));
    println!(
        "{:>8} | {:>8} | {:>18} | {:>10}",
        "GBS", "1F1B", "adaptive(no-re)", "adaptive"
    );
    for gbs in [16384usize, 65536] {
        let point = Point {
            model: gpt,
            num_gpus: 8,
            max_seq_len: 4096,
            gbs_tokens: gbs,
        };
        let tput = |schedule: ScheduleKind| {
            let cfg = PlannerConfig {
                schedule,
                ..Default::default()
            };
            let planner = DynaPipePlanner::new(cm.clone(), cfg);
            let r = run_point(&planner, &dataset, &point);
            r.feasible().then(|| r.throughput())
        };
        let onefb = tput(ScheduleKind::OneFOneB);
        let adaptive_plain = tput(ScheduleKind::Adaptive { reorder: false });
        let adaptive = tput(ScheduleKind::Adaptive { reorder: true });
        let norm = onefb.unwrap_or(1.0);
        let f = |x: Option<f64>| {
            x.map(|v| format!("{:.3}", v / norm))
                .unwrap_or("OOM".into())
        };
        println!(
            "{gbs:>8} | {:>8} | {:>18} | {:>10}",
            f(onefb),
            f(adaptive_plain),
            f(adaptive)
        );
        out.push(serde_json::json!({
            "part": "b", "gbs": gbs,
            "onefb": onefb, "adaptive_noreorder": adaptive_plain, "adaptive": adaptive,
        }));
    }
    println!(
        "\nShape check (paper Fig. 16): TB beats MLM+DS; DP beats TB; (S) and (T)\n\
         orderings are close. Adaptive scheduling gains a few percent over 1F1B\n\
         (≈10% at small GBS, less at large), with reordering adding most at\n\
         small global batch sizes."
    );
    write_json("fig16_ablation", &out);
}
