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
//! (`exposed_planning_us`). Host walls of both drivers are reported too.
//!
//! Emits `BENCH_runtime.json` with `{serial_wall_us, pipelined_wall_us,
//! exposed_planning_us, hidden_planning_us, overlap_ratio}` plus
//! per-model and per-arm detail (the store arm under `"store"`), and
//! **exits nonzero** if any pipelined `RunReport` — either arm —
//! diverges from the serial driver's (`RunReport::behavior_eq`), or if
//! either arm stops beating the serial timeline — a silent behavior
//! change or a serialization bit-rot must never masquerade as a
//! wall-clock win. `run_all --smoke` runs this bin with one capped
//! iteration, so the store arm's divergence check runs in CI in minutes.

use dynapipe_bench::{write_json, write_root_artifact, BenchOpts, Point};
use dynapipe_core::{
    run_training, run_training_pipelined, DynaPipePlanner, PlanCodec, PlanDistribution,
    PlannerConfig, RunConfig, RuntimeConfig,
};
use dynapipe_cost::{CostModel, ProfileOptions};
use dynapipe_data::{Dataset, GlobalBatchConfig};
use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};
use std::sync::Arc;
use std::time::Instant;

struct ArmOutcome {
    pipelined_wall_us: f64,
    total_planning_us: f64,
    exposed_us: f64,
    hidden_us: f64,
    /// The library's `RuntimeStats::overlap_ratio` — single definition.
    overlap_ratio: f64,
    host_us: f64,
    /// Worker-side serialize time (µs; store arm only).
    serialize_us: f64,
    /// Executor-side take+decode time (µs; store arm only).
    deserialize_us: f64,
    /// Total wire bytes pushed through the store (store arm only).
    blob_bytes: u64,
    divergence: Option<String>,
}

struct ModelOutcome {
    name: &'static str,
    iterations: usize,
    serial_wall_us: f64,
    serial_host_us: f64,
    in_process: ArmOutcome,
    store_backed: ArmOutcome,
    store_binary: ArmOutcome,
    store_flat: ArmOutcome,
}

fn run_model(
    name: &'static str,
    model: ModelConfig,
    parallel: ParallelConfig,
    dataset: &Dataset,
    iters: usize,
    runtime: RuntimeConfig,
) -> ModelOutcome {
    let hw = HardwareModel::a100_cluster();
    let cm = Arc::new(CostModel::build(
        hw,
        model,
        parallel,
        &ProfileOptions::default(),
    ));
    let planner = DynaPipePlanner::new(cm, PlannerConfig::default());
    let point = Point {
        model,
        num_gpus: 8,
        max_seq_len: 4096,
        gbs_tokens: 65536,
    };
    let gbs = GlobalBatchConfig {
        tokens_per_batch: point.gbs_tokens,
        max_seq_len: point.max_seq_len,
    };
    let run = RunConfig {
        max_iterations: Some(iters),
        ..Default::default()
    };

    let t0 = Instant::now();
    let serial = run_training(&planner, dataset, gbs, run);
    let serial_host_us = t0.elapsed().as_secs_f64() * 1e6;
    // The serial training timeline: every iteration pays planning, then
    // executes.
    let serial_wall_us: f64 = serial
        .records
        .iter()
        .map(|r| r.planning_time_us + r.measured_time)
        .sum();

    let arm = |distribution: PlanDistribution, codec: PlanCodec| -> (ArmOutcome, usize) {
        let t1 = Instant::now();
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
        let host_us = t1.elapsed().as_secs_f64() * 1e6;
        (
            ArmOutcome {
                pipelined_wall_us: stats.pipelined_wall_us,
                total_planning_us: stats.total_planning_us(),
                exposed_us: stats.exposed_planning_us(),
                hidden_us: stats.hidden_planning_us(),
                overlap_ratio: stats.overlap_ratio(),
                host_us,
                // `+ 0.0` maps the empty-sum -0.0 identity (in-process
                // arm) to a plain 0.0 in the artifact.
                serialize_us: stats.serialize_us.iter().sum::<f64>() + 0.0,
                deserialize_us: stats.deserialize_us.iter().sum::<f64>() + 0.0,
                blob_bytes: stats.blob_bytes.iter().map(|&b| b as u64).sum(),
                divergence: serial.behavior_eq(&pipelined).err(),
            },
            pipelined.records.len(),
        )
    };
    let (in_process, iterations) = arm(PlanDistribution::InProcess, PlanCodec::Json);
    let (store_backed, _) = arm(PlanDistribution::StoreBacked, PlanCodec::Json);
    let (store_binary, _) = arm(PlanDistribution::StoreBacked, PlanCodec::Binary);
    let (store_flat, _) = arm(PlanDistribution::StoreBacked, PlanCodec::Flat);
    ModelOutcome {
        name,
        iterations,
        serial_wall_us,
        serial_host_us,
        in_process,
        store_backed,
        store_binary,
        store_flat,
    }
}

fn arm_json(o: &ArmOutcome) -> serde_json::Value {
    serde_json::json!({
        "pipelined_wall_us": o.pipelined_wall_us,
        "total_planning_us": o.total_planning_us,
        "exposed_planning_us": o.exposed_us,
        "hidden_planning_us": o.hidden_us,
        "overlap_ratio": o.overlap_ratio,
        "host_us": o.host_us,
        "serialize_us": o.serialize_us,
        "deserialize_us": o.deserialize_us,
        "blob_bytes": o.blob_bytes,
        "report_divergence": o.divergence.clone().unwrap_or_default(),
    })
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
        "{:>5} {:>6} | {:>12} {:>12} | {:>10} {:>10} {:>8} | {:>10}",
        "model", "arm", "serial (ms)", "pipe (ms)", "plan (ms)", "hidden", "overlap", "serde (ms)"
    );

    let mut outcomes = Vec::new();
    for (name, model, parallel) in [
        ("GPT", ModelConfig::gpt_6_7b(), ParallelConfig::new(1, 2, 4)),
        ("T5", ModelConfig::t5_11b(), ParallelConfig::new(1, 4, 2)),
    ] {
        let o = run_model(name, model, parallel, &dataset, iters, runtime);
        for (arm_name, a) in [
            ("arc", &o.in_process),
            ("store", &o.store_backed),
            ("st-bin", &o.store_binary),
            ("st-flat", &o.store_flat),
        ] {
            println!(
                "{:>5} {:>6} | {:>12.1} {:>12.1} | {:>10.1} {:>10.1} {:>7.1}% | {:>10.2}",
                o.name,
                arm_name,
                o.serial_wall_us / 1e3,
                a.pipelined_wall_us / 1e3,
                a.total_planning_us / 1e3,
                a.hidden_us / 1e3,
                a.overlap_ratio * 100.0,
                (a.serialize_us + a.deserialize_us) / 1e3,
            );
        }
        outcomes.push(o);
    }

    let serial_wall_us: f64 = outcomes.iter().map(|o| o.serial_wall_us).sum();
    let pipelined_wall_us: f64 = outcomes
        .iter()
        .map(|o| o.in_process.pipelined_wall_us)
        .sum();
    let exposed_planning_us: f64 = outcomes.iter().map(|o| o.in_process.exposed_us).sum();
    let hidden_planning_us: f64 = outcomes.iter().map(|o| o.in_process.hidden_us).sum();
    let total_planning_us: f64 = outcomes
        .iter()
        .map(|o| o.in_process.total_planning_us)
        .sum();
    let overlap_ratio = if total_planning_us > 0.0 {
        hidden_planning_us / total_planning_us
    } else {
        1.0
    };
    let store_wall_us: f64 = outcomes
        .iter()
        .map(|o| o.store_backed.pipelined_wall_us)
        .sum();
    let store_hidden_us: f64 = outcomes.iter().map(|o| o.store_backed.hidden_us).sum();
    let store_total_us: f64 = outcomes
        .iter()
        .map(|o| o.store_backed.total_planning_us)
        .sum();
    let store_overlap_ratio = if store_total_us > 0.0 {
        store_hidden_us / store_total_us
    } else {
        1.0
    };
    let store_serde_us: f64 = outcomes
        .iter()
        .map(|o| o.store_backed.serialize_us + o.store_backed.deserialize_us)
        .sum();
    let json_blob_bytes: u64 = outcomes.iter().map(|o| o.store_backed.blob_bytes).sum();
    let binary_blob_bytes: u64 = outcomes.iter().map(|o| o.store_binary.blob_bytes).sum();
    let binary_serde_us: f64 = outcomes
        .iter()
        .map(|o| o.store_binary.serialize_us + o.store_binary.deserialize_us)
        .sum();
    let flat_blob_bytes: u64 = outcomes.iter().map(|o| o.store_flat.blob_bytes).sum();
    let flat_serde_us: f64 = outcomes
        .iter()
        .map(|o| o.store_flat.serialize_us + o.store_flat.deserialize_us)
        .sum();
    println!(
        "\n  total: serial {:.1} ms vs pipelined {:.1} ms (in-process, {:.1}% hidden) \
         vs {:.1} ms (store-backed, {:.1}% hidden, {:.2} ms serde)",
        serial_wall_us / 1e3,
        pipelined_wall_us / 1e3,
        overlap_ratio * 100.0,
        store_wall_us / 1e3,
        store_overlap_ratio * 100.0,
        store_serde_us / 1e3,
    );
    println!(
        "  wire codec: binary {:.1} KB vs JSON {:.1} KB ({:.1}%), serde {:.2} ms vs {:.2} ms",
        binary_blob_bytes as f64 / 1e3,
        json_blob_bytes as f64 / 1e3,
        100.0 * binary_blob_bytes as f64 / (json_blob_bytes as f64).max(1.0),
        binary_serde_us / 1e3,
        store_serde_us / 1e3,
    );
    println!(
        "  zero-copy: flat {:.1} KB ({:.1}% of binary), serde {:.2} ms \
         (engines run over the wire bytes; deserialize validates and wraps them \
         and reads the fixed-width summary)",
        flat_blob_bytes as f64 / 1e3,
        100.0 * flat_blob_bytes as f64 / (binary_blob_bytes as f64).max(1.0),
        flat_serde_us / 1e3,
    );

    let per_model = serde_json::Value::Object(
        outcomes
            .iter()
            .map(|o| {
                (
                    o.name.to_string(),
                    serde_json::json!({
                        "iterations": o.iterations,
                        "serial_wall_us": o.serial_wall_us,
                        "serial_host_us": o.serial_host_us,
                        "in_process": arm_json(&o.in_process),
                        "store": arm_json(&o.store_backed),
                        "store_binary": arm_json(&o.store_binary),
                        "store_flat": arm_json(&o.store_flat),
                    }),
                )
            })
            .collect(),
    );
    let out = serde_json::Value::Object(vec![
        (
            "serial_wall_us".to_string(),
            serde_json::json!(serial_wall_us),
        ),
        (
            "pipelined_wall_us".to_string(),
            serde_json::json!(pipelined_wall_us),
        ),
        (
            "exposed_planning_us".to_string(),
            serde_json::json!(exposed_planning_us),
        ),
        (
            "hidden_planning_us".to_string(),
            serde_json::json!(hidden_planning_us),
        ),
        (
            "overlap_ratio".to_string(),
            serde_json::json!(overlap_ratio),
        ),
        (
            "store_pipelined_wall_us".to_string(),
            serde_json::json!(store_wall_us),
        ),
        (
            "store_overlap_ratio".to_string(),
            serde_json::json!(store_overlap_ratio),
        ),
        (
            "store_serde_us".to_string(),
            serde_json::json!(store_serde_us),
        ),
        (
            "json_blob_bytes".to_string(),
            serde_json::json!(json_blob_bytes),
        ),
        (
            "binary_blob_bytes".to_string(),
            serde_json::json!(binary_blob_bytes),
        ),
        (
            "binary_serde_us".to_string(),
            serde_json::json!(binary_serde_us),
        ),
        (
            "flat_blob_bytes".to_string(),
            serde_json::json!(flat_blob_bytes),
        ),
        (
            "flat_serde_us".to_string(),
            serde_json::json!(flat_serde_us),
        ),
        ("iterations".to_string(), serde_json::json!(iters)),
        (
            "plan_ahead".to_string(),
            serde_json::json!(runtime.plan_ahead),
        ),
        ("workers".to_string(), serde_json::json!(runtime.workers)),
        (
            "threads".to_string(),
            serde_json::json!(rayon::current_num_threads()),
        ),
        ("per_model".to_string(), per_model),
    ]);
    // The canonical artifact at the repo root (what CI trend-tracks), plus
    // a copy under results/ with the other figure outputs.
    write_root_artifact(&opts, "BENCH_runtime.json", &out);
    write_json("fig17_planahead", &out);

    // Fail loudly on any behavioral divergence: neither pipelined arm is
    // allowed to move anything but wall-clock. The store arm is exactly
    // where serialization bit-rot would surface.
    let mut failed = false;
    for o in &outcomes {
        for (arm_name, a) in [
            ("in-process", &o.in_process),
            ("store-backed", &o.store_backed),
            ("store-binary", &o.store_binary),
            ("store-flat", &o.store_flat),
        ] {
            if let Some(d) = &a.divergence {
                eprintln!(
                    "error: {} {arm_name} report diverged from serial: {d}",
                    o.name
                );
                failed = true;
            }
        }
    }
    let store_binary_wall_us: f64 = outcomes
        .iter()
        .map(|o| o.store_binary.pipelined_wall_us)
        .sum();
    let store_flat_wall_us: f64 = outcomes
        .iter()
        .map(|o| o.store_flat.pipelined_wall_us)
        .sum();
    for (arm_name, wall) in [
        ("in-process", pipelined_wall_us),
        ("store-backed", store_wall_us),
        ("store-binary", store_binary_wall_us),
        ("store-flat", store_flat_wall_us),
    ] {
        if wall >= serial_wall_us {
            eprintln!(
                "error: {arm_name} pipelined wall {wall} µs did not beat serial \
                 {serial_wall_us} µs — planning is no longer being hidden"
            );
            failed = true;
        }
    }
    // The binary codec's whole purpose is smaller blobs; bytes are
    // deterministic, so this gate holds in smoke runs too.
    if binary_blob_bytes > json_blob_bytes {
        eprintln!("error: binary wire ({binary_blob_bytes} B) exceeds JSON ({json_blob_bytes} B)");
        failed = true;
    }
    // The flat arena trades nesting for fixed-width records; bytes are
    // deterministic, so this bloat gate holds in smoke runs too.
    if flat_blob_bytes as f64 > 1.25 * binary_blob_bytes as f64 {
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
