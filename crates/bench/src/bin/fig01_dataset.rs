//! Fig. 1b: sequence-length distribution of the multi-task mixture.
//!
//! Prints the log-scale histogram of input lengths of the synthetic FLANv2
//! mixture and the per-task means the calibration targets (CNN/DailyMail
//! ≈ 977.73, MNLI ≈ 51.59).

use dynapipe_bench::{write_json, SEED};
use dynapipe_data::Dataset;

fn main() {
    let n = 100_000;
    println!("Fig. 1b — input sequence length distribution ({n} samples)\n");
    let dataset = Dataset::flanv2(SEED, n);
    let hist = dataset.length_histogram();
    let max_count = hist.iter().map(|&(_, c)| c).max().unwrap_or(1) as f64;
    println!("{:>8} | {:>8} | log-scale", "< length", "count");
    for &(ub, count) in &hist {
        let bar = ((count as f64).ln() / max_count.ln() * 50.0).max(0.0) as usize;
        println!("{ub:>8} | {count:>8} | {}", "#".repeat(bar.min(60)));
    }
    let stats = dataset.input_stats();
    println!(
        "\nmean {:.1}  p50 {}  p99 {}  max {}  (max/mean {:.1}x)",
        stats.mean,
        stats.p50,
        stats.p99,
        stats.max,
        stats.max_over_mean()
    );
    println!("\nper-task calibration:");
    let mut per_task: Vec<(String, Vec<usize>)> = dataset
        .tasks
        .iter()
        .map(|t| (t.name.to_string(), Vec::new()))
        .collect();
    for s in &dataset.samples {
        per_task[s.task].1.push(s.input_len);
    }
    for (name, lens) in &per_task {
        if lens.is_empty() {
            continue;
        }
        let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
        println!("  {name:<28} n={:<7} mean input {mean:8.1}", lens.len());
    }
    write_json(
        "fig01_dataset",
        &serde_json::json!({
            "histogram": hist,
            "stats": stats,
        }),
    );
}
