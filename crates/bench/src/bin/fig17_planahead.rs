//! Fig. 17 end-to-end: the pipelined plan-ahead runtime hiding planning
//! behind execution.
//!
//! Runs the fig17 workload (65k-token mini-batches, GPT 6.7B and T5 11B
//! on 8 GPUs) through three drivers:
//!
//! * **serial**: [`run_training`] — the golden-reference plan → simulate
//!   loop, where every microsecond of planning sits on the training
//!   timeline;
//! * **pipelined (in-process)**: [`run_training_pipelined`] — the
//!   plan-ahead runtime: a planner pool plans ahead of a bounded window
//!   while the executor runs the current iteration (replicas in
//!   parallel, programs pre-compiled by the lowering stage);
//! * **pipelined (store-backed)**: the same runtime with
//!   [`PlanDistribution::StoreBacked`] — plans cross the instruction
//!   store as serialized wire blobs (the paper's Fig. 9 Redis
//!   architecture), so this arm additionally pays and reports
//!   serialize/deserialize overhead. The store arm runs **three times**,
//!   once per wire codec ([`PlanCodec::Json`], the length-prefixed
//!   [`PlanCodec::Binary`], and the zero-copy [`PlanCodec::Flat`], whose
//!   executors run engines straight over the fetched bytes), reporting
//!   per-codec blob bytes and serialize/deserialize time — and the bench
//!   exits nonzero if the binary codec's blobs ever exceed JSON's, or if
//!   the flat arena exceeds 1.25× the binary blobs.
//!
//! Wall-clock is measured on the **training timeline** (simulated GPU
//! execution + real host planning), the same planning-vs-iteration
//! methodology as the `fig17_planning_time` bench: in a real deployment
//! execution occupies the cluster for seconds while planning occupies CPU
//! milliseconds; the simulator compresses execution, so host wall alone
//! cannot exhibit the overlap the paper measures. `serial_wall_us` is
//! Σ(planning + execution); `pipelined_wall_us` is the runtime's virtual
//! clock, which only waits for plans that are not ready yet
//! (`exposed_planning_us`).
//!
//! Writes `results/fig17_planahead.json`: one row per (model, arm),
//! where an arm is `in-process` or `store/<codec>`, and **exits
//! nonzero** if any pipelined `RunReport` diverges from the serial
//! driver's (`RunReport::behavior_eq`), or if any arm stops beating the
//! serial timeline — a silent behavior change or a serialization
//! bit-rot must never masquerade as a wall-clock win. `run_all --smoke`
//! runs this bin with capped iterations, so the store arms' divergence
//! checks run in CI in minutes.

use dynapipe_bench::{write_json, BenchOpts};
use dynapipe_core::{
    run_training, run_training_pipelined, DynaPipePlanner, PlanCodec, PlanDistribution,
    PlannerConfig, RunConfig, RuntimeConfig,
};
use dynapipe_cost::{CostModel, ProfileOptions};
use dynapipe_data::{Dataset, GlobalBatchConfig};
use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};
use serde::Serialize;
use std::sync::Arc;

/// One pipelined arm on one model, beside the serial driver's timeline
/// for the same iterations. All times are µs.
#[derive(Serialize)]
struct Row {
    model: &'static str,
    /// `in-process`, or `store/<codec>` for the store-backed arms.
    arm: String,
    iterations: usize,
    /// Σ(planning + execution) of the serial driver.
    serial_wall_us: f64,
    /// The runtime's virtual clock.
    pipelined_wall_us: f64,
    /// Planning + lowering, plus serialize/deserialize on store arms.
    planning_us: f64,
    /// The part of `planning_us` the virtual clock waited for.
    exposed_planning_us: f64,
    /// Worker-side serialize time (zero in-process).
    serialize_us: f64,
    /// Executor-side take + decode time (zero in-process).
    deserialize_us: f64,
    /// Wire bytes pushed through the store (zero in-process).
    blob_bytes: u64,
    /// `RunReport::behavior_eq`'s complaint, if the arm diverged.
    divergence: Option<String>,
}

#[derive(Serialize)]
struct Artifact {
    plan_ahead: usize,
    workers: usize,
    rows: Vec<Row>,
}

/// The pipelined arms: in-process, then store-backed once per codec.
fn arms() -> Vec<(String, PlanDistribution, PlanCodec)> {
    let mut arms = vec![(
        "in-process".to_string(),
        PlanDistribution::InProcess,
        PlanCodec::default(),
    )];
    for codec in PlanCodec::ALL {
        arms.push((
            format!("store/{}", codec.label()),
            PlanDistribution::StoreBacked,
            codec,
        ));
    }
    arms
}

fn run_model(
    name: &'static str,
    model: ModelConfig,
    parallel: ParallelConfig,
    dataset: &Dataset,
    iters: usize,
    runtime: RuntimeConfig,
) -> Vec<Row> {
    let cm = Arc::new(CostModel::build(
        HardwareModel::a100_cluster(),
        model,
        parallel,
        &ProfileOptions::default(),
    ));
    let planner = DynaPipePlanner::new(cm, PlannerConfig::default());
    let gbs = GlobalBatchConfig {
        tokens_per_batch: 65536,
        max_seq_len: 4096,
    };
    let run = RunConfig {
        max_iterations: Some(iters),
        ..Default::default()
    };

    let serial = run_training(&planner, dataset, gbs, run);
    // The serial training timeline: every iteration pays planning, then
    // executes.
    let serial_wall_us: f64 = serial
        .records
        .iter()
        .map(|r| r.planning_time_us + r.measured_time)
        .sum();

    arms()
        .into_iter()
        .map(|(arm, distribution, codec)| {
            let (pipelined, stats) = run_training_pipelined(
                &planner,
                dataset,
                gbs,
                run,
                RuntimeConfig {
                    distribution,
                    codec,
                    ..runtime
                },
            );
            Row {
                model: name,
                arm,
                iterations: pipelined.records.len(),
                serial_wall_us,
                pipelined_wall_us: stats.pipelined_wall_us,
                planning_us: stats.total_planning_us(),
                exposed_planning_us: stats.exposed_planning_us(),
                // `+ 0.0` maps the empty-sum -0.0 identity (in-process
                // arm) to a plain 0.0 in the artifact.
                serialize_us: stats.serialize_us.iter().sum::<f64>() + 0.0,
                deserialize_us: stats.deserialize_us.iter().sum::<f64>() + 0.0,
                blob_bytes: stats.blob_bytes.iter().map(|&b| b as u64).sum(),
                divergence: serial.behavior_eq(&pipelined).err(),
            }
        })
        .collect()
}

fn main() {
    let opts = BenchOpts::default();
    let dataset = Dataset::flanv2(opts.seed, opts.dataset_samples_at_least(6000));
    let iters = opts.capped(opts.iters.max(8), 2);
    let runtime = RuntimeConfig::default();
    println!(
        "plan-ahead runtime — fig17 workload, {iters} iterations, \
         window {} / {} planner worker(s), {} thread(s)\n",
        runtime.plan_ahead,
        runtime.workers,
        rayon::current_num_threads()
    );
    println!(
        "{:>5} {:>12} | {:>12} {:>12} | {:>10} {:>8} | {:>10} {:>10}",
        "model",
        "arm",
        "serial (ms)",
        "pipe (ms)",
        "plan (ms)",
        "hidden",
        "serde (ms)",
        "blob (KB)"
    );

    let mut rows = Vec::new();
    for (name, model, parallel) in [
        ("GPT", ModelConfig::gpt_6_7b(), ParallelConfig::new(1, 2, 4)),
        ("T5", ModelConfig::t5_11b(), ParallelConfig::new(1, 4, 2)),
    ] {
        rows.extend(run_model(name, model, parallel, &dataset, iters, runtime));
    }
    let hidden_pct = |planning: f64, exposed: f64| {
        if planning > 0.0 {
            100.0 * (planning - exposed).max(0.0) / planning
        } else {
            100.0
        }
    };
    for r in &rows {
        println!(
            "{:>5} {:>12} | {:>12.1} {:>12.1} | {:>10.1} {:>7.1}% | {:>10.2} {:>10.1}",
            r.model,
            r.arm,
            r.serial_wall_us / 1e3,
            r.pipelined_wall_us / 1e3,
            r.planning_us / 1e3,
            hidden_pct(r.planning_us, r.exposed_planning_us),
            (r.serialize_us + r.deserialize_us) / 1e3,
            r.blob_bytes as f64 / 1e3,
        );
    }

    // Every gate folds over the rows of one arm, summed across models.
    let total = |arm: &str, f: fn(&Row) -> f64| -> f64 {
        rows.iter().filter(|r| r.arm == arm).map(f).sum()
    };
    let mut failed = false;
    // Fail loudly on any behavioral divergence: no pipelined arm is
    // allowed to move anything but wall-clock. The store arms are exactly
    // where serialization bit-rot would surface.
    for r in &rows {
        if let Some(d) = &r.divergence {
            eprintln!(
                "error: {} {} report diverged from serial: {d}",
                r.model, r.arm
            );
            failed = true;
        }
    }
    println!();
    for (arm, _, _) in arms() {
        let serial = total(&arm, |r| r.serial_wall_us);
        let wall = total(&arm, |r| r.pipelined_wall_us);
        println!(
            "  total {arm:>12}: serial {:.1} ms vs pipelined {:.1} ms ({:.1}% hidden)",
            serial / 1e3,
            wall / 1e3,
            hidden_pct(
                total(&arm, |r| r.planning_us),
                total(&arm, |r| r.exposed_planning_us)
            ),
        );
        if wall >= serial {
            eprintln!(
                "error: {arm} pipelined wall {wall} µs did not beat serial \
                 {serial} µs — planning is no longer being hidden"
            );
            failed = true;
        }
    }
    let blob_bytes =
        |codec: PlanCodec| total(&format!("store/{}", codec.label()), |r| r.blob_bytes as f64);
    let json_blob_bytes = blob_bytes(PlanCodec::Json);
    let binary_blob_bytes = blob_bytes(PlanCodec::Binary);
    let flat_blob_bytes = blob_bytes(PlanCodec::Flat);
    write_json(
        "fig17_planahead",
        &Artifact {
            plan_ahead: runtime.plan_ahead,
            workers: runtime.workers,
            rows,
        },
    );

    // The binary codec's whole purpose is smaller blobs; bytes are
    // deterministic, so this gate holds in smoke runs too.
    if binary_blob_bytes > json_blob_bytes {
        eprintln!("error: binary wire ({binary_blob_bytes} B) exceeds JSON ({json_blob_bytes} B)");
        failed = true;
    }
    // The flat arena trades nesting for fixed-width records; bytes are
    // deterministic, so this bloat gate holds in smoke runs too.
    if flat_blob_bytes > 1.25 * binary_blob_bytes {
        eprintln!(
            "error: flat wire ({flat_blob_bytes} B) exceeds 1.25x binary \
             ({binary_blob_bytes} B) — the fixed-width arena is bloating the wire"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
