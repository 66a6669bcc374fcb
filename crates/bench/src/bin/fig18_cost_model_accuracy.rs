//! Fig. 18: prediction accuracy of the iteration-time and peak-memory cost
//! models — planner estimates vs simulator measurements across experiment
//! settings, reported as mean percentage error per model family.

use dynapipe_bench::{run_point, write_json, Point, DATASET_SAMPLES, SEED};
use dynapipe_core::{DynaPipePlanner, PlannerConfig};
use dynapipe_cost::{CostModel, ProfileOptions};
use dynapipe_data::Dataset;
use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};
use std::sync::Arc;

fn main() {
    let hw = HardwareModel::a100_cluster();
    let dataset = Dataset::flanv2(SEED, DATASET_SAMPLES);
    let mut out = Vec::new();
    println!("Fig. 18 — cost-model prediction accuracy\n");
    for (name, model, parallels) in [
        (
            "GPT",
            ModelConfig::gpt_6_7b(),
            vec![ParallelConfig::new(1, 2, 4), ParallelConfig::new(2, 2, 2)],
        ),
        (
            "T5",
            ModelConfig::t5_11b(),
            vec![ParallelConfig::new(1, 4, 2), ParallelConfig::new(1, 8, 1)],
        ),
    ] {
        let mut time_pairs: Vec<(f64, f64)> = Vec::new();
        let mut mem_pairs: Vec<(u64, u64)> = Vec::new();
        for parallel in parallels {
            let cm = Arc::new(CostModel::build(
                hw.clone(),
                model,
                parallel,
                &ProfileOptions::default(),
            ));
            if !cm.is_feasible() {
                continue;
            }
            let planner = DynaPipePlanner::new(cm, PlannerConfig::default());
            for (msl, gbs) in [
                (2048usize, 32768usize),
                (2048, 65536),
                (4096, 65536),
                (1024, 16384),
            ] {
                let point = Point {
                    model,
                    num_gpus: 8,
                    max_seq_len: msl,
                    gbs_tokens: gbs,
                };
                let report = run_point(&planner, &dataset, &point);
                for r in &report.records {
                    time_pairs.push((r.est_time, r.measured_time));
                    mem_pairs.push((
                        r.est_peak.iter().copied().max().unwrap_or(0),
                        r.measured_peak.iter().copied().max().unwrap_or(0),
                    ));
                }
            }
        }
        let time_mape = mape(time_pairs.iter().map(|&(a, b)| (a, b)));
        let mem_mape = mape(mem_pairs.iter().map(|&(a, b)| (a as f64, b as f64)));
        println!(
            "{name}: iteration-time MPE {:.2}%  peak-memory MPE {:.2}%",
            time_mape * 100.0,
            mem_mape * 100.0
        );
        println!("  sample points (estimated vs measured):");
        for (e, m) in time_pairs.iter().take(5) {
            println!("    time   {:10.1} ms vs {:10.1} ms", e / 1e3, m / 1e3);
        }
        for (e, m) in mem_pairs.iter().take(5) {
            println!(
                "    memory {:10.2} GB vs {:10.2} GB",
                *e as f64 / 1e9,
                *m as f64 / 1e9
            );
        }
        out.push(serde_json::json!({
            "model": name,
            "time_mape": time_mape,
            "memory_mape": mem_mape,
            "time_pairs": time_pairs,
            "memory_pairs": mem_pairs,
        }));
    }
    println!(
        "\nShape check (paper Fig. 18): mean percentage error ~4-11% for\n\
         iteration time and <6% for peak memory; estimates cluster around the\n\
         y=x diagonal."
    );
    write_json("fig18_cost_model_accuracy", &out);
}

fn mape(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0;
    for (e, m) in pairs {
        if m > 0.0 {
            sum += (e - m).abs() / m;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}
