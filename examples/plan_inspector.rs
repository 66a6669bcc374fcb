//! Plan inspector: look inside a compiled execution plan.
//!
//! Plans one small training iteration, prints each stage's pipeline
//! instruction stream using the paper's instruction names (`ForwardPass`,
//! `SendActStart`, `WaitRecvAct`, …), shows that plans serialize to JSON
//! (they travel through the instruction store in the real system), executes
//! the plan on the simulator, and writes a Chrome/Perfetto trace of its
//! engine ops (one track per device) to `results/plan_inspector_trace.json`.
//!
//! Run with: `cargo run --release --example plan_inspector`

use dynapipe_comm::ExecutionPlan;
use dynapipe_core::{compile_replica, record_sim_iteration, IterationExecution};
use dynapipe_repro::prelude::*;
use dynapipe_trace::{chrome::to_chrome_trace, TraceSink};
use std::sync::Arc;

fn main() {
    let cm = Arc::new(CostModel::build(
        HardwareModel::a100_cluster(),
        ModelConfig::gpt_3_35b(),
        ParallelConfig::new(1, 1, 4),
        &ProfileOptions::coarse(),
    ));
    let planner = DynaPipePlanner::new(cm.clone(), PlannerConfig::default());

    // A small mini-batch so the instruction streams stay readable.
    let dataset = Dataset::flanv2(5, 400);
    let minibatch: Vec<Sample> = dataset
        .samples
        .iter()
        .take(24)
        .map(|s| s.truncated(1024))
        .collect();
    let plan = planner.plan_iteration(&minibatch).expect("feasible");
    let replica = &plan.replicas[0];

    println!(
        "iteration plan: {} micro-batches, recompute={}, est {:.1} ms\n",
        plan.num_micro_batches,
        plan.recompute.label(),
        plan.est_iteration_time / 1e3
    );
    for (mb, shape) in replica.plan.shapes.iter().enumerate() {
        println!("  micro-batch {mb}: shape {shape}");
    }

    for (stage, stream) in replica.plan.per_stage.iter().enumerate() {
        println!("\n--- stage {stage} ({} instructions) ---", stream.len());
        for ins in stream.iter().take(14) {
            println!("  {ins}");
        }
        if stream.len() > 14 {
            println!("  ... {} more", stream.len() - 14);
        }
    }

    // Plans are plain data: serialize/deserialize round-trips exactly.
    let json = serde_json::to_string(&replica.plan).expect("serialize");
    let back: ExecutionPlan = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, replica.plan);
    println!(
        "\nserialization round-trip OK ({} bytes of JSON for {} instructions)",
        json.len(),
        replica.plan.num_instructions()
    );

    // Execute on the simulator with tracing and export a Chrome trace.
    let programs = compile_replica(&cm, &replica.plan);
    let mut cfg = EngineConfig::unbounded(cm.hw.clone(), cm.num_stages());
    cfg.record_trace = true;
    let result = Engine::new(cfg, programs).run().expect("plan executes");
    println!(
        "simulated: makespan {:.1} ms, utilization {:.0}%, peak memory {:?} MB",
        result.makespan / 1e3,
        result.utilization() * 100.0,
        result
            .peak_memory
            .iter()
            .map(|b| b / 1_000_000)
            .collect::<Vec<_>>()
    );
    // The runtimes' engine-op adapter turns the simulator's trace into
    // `EngineOp` spans on the Sim timeline.
    let exec = IterationExecution {
        measured_time: result.makespan,
        peak_memory: result.peak_memory,
        allocator_stall_us: result.allocator_stats.iter().map(|s| s.stall_us).sum(),
        host_wall_us: result.host_wall_us,
        replica_makespans: vec![result.makespan],
        replica_traces: vec![result.trace],
    };
    let sink = TraceSink::bounded(1 << 20);
    record_sim_iteration(&sink, 0, &exec, &mut 0.0);
    let trace = to_chrome_trace(&sink.finish());
    std::fs::create_dir_all("results").ok();
    let path = "results/plan_inspector_trace.json";
    std::fs::write(path, trace).expect("write trace");
    println!("chrome trace written to {path} (open in chrome://tracing or Perfetto)");
}
