//! The differential harness pinning the plan-ahead runtime to the serial
//! driver: same records, same totals, same failure at the same iteration
//! — the overlap is allowed to change wall-clock and architecture, never
//! behavior. `RunReport::behavior_eq` compares every field exactly
//! (floats by bit pattern) except the wall-clock `planning_time_us`.
//!
//! Every scenario runs the full distribution matrix: the serial golden
//! reference, the in-process pipelined runtime, and the **store-backed**
//! runtime, whose plans cross the instruction store as serialized wire
//! blobs. The store-backed report must be bit-identical to *both* others
//! — the serialization roundtrip (float formatting, enum encoding, map
//! ordering) is exactly where silent divergence would sneak in, which is
//! why this harness fronts the store-backed runtime.

use dynapipe_core::{
    run_training, run_training_pipelined_traced, BaselineKind, BaselinePlanner, DynaPipePlanner,
    IterationPlanner, PlanCodec, PlanDistribution, PlannerConfig, RunConfig, RunReport,
    RuntimeConfig, RuntimeStats,
};
use dynapipe_cost::{CostModel, ProfileOptions};
use dynapipe_data::{Dataset, GlobalBatchConfig, Sample};
use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};
use dynapipe_sim::JitterConfig;
use dynapipe_trace::{sim_eq, TraceSink};
use std::sync::Arc;

/// Span-ring capacity for the traced matrix runs: large enough that no
/// scenario drops a span (drops would fail `reconcile`).
const TRACE_CAP: usize = 1 << 20;

fn cost_model(pp: usize, dp: usize) -> Arc<CostModel> {
    Arc::new(CostModel::build(
        HardwareModel::a100_cluster(),
        ModelConfig::gpt_3_35b(),
        ParallelConfig::new(dp, 1, pp),
        &ProfileOptions::coarse(),
    ))
}

fn gbs() -> GlobalBatchConfig {
    GlobalBatchConfig {
        tokens_per_batch: 16384,
        max_seq_len: 2048,
    }
}

/// Run every pipelined mode against the serial reference and pin the
/// whole matrix: in-process == serial, store-backed == serial for
/// **both wire codecs**, and store-backed == in-process (transitively
/// implied, asserted anyway so a failure names the closest pair).
/// Returns the in-process stats and the JSON-codec store stats for
/// scenario-specific assertions.
fn assert_distribution_matrix(
    planner: &dyn IterationPlanner,
    dataset: &Dataset,
    gbs: GlobalBatchConfig,
    run: RunConfig,
    plan_ahead: usize,
    workers: usize,
    serial: &RunReport,
) -> (RuntimeStats, RuntimeStats) {
    let ip_sink = TraceSink::bounded(TRACE_CAP);
    let (in_process, ip_stats) = run_training_pipelined_traced(
        planner,
        dataset,
        gbs,
        run,
        RuntimeConfig {
            plan_ahead,
            workers,
            distribution: PlanDistribution::InProcess,
            codec: PlanCodec::default(),
        },
        &ip_sink,
    );
    serial
        .behavior_eq(&in_process)
        .unwrap_or_else(|e| panic!("in-process vs serial (w={plan_ahead},{workers}): {e}"));
    // The Sim-domain timeline is a pure function of the behavior-pinned
    // execution results: every store-backed codec's trace must carry it
    // bit-identically to the in-process run's.
    let mut ip_trace = ip_sink.finish();
    ip_trace.meta = ip_stats.trace_meta("in-process");
    ip_trace
        .validate()
        .unwrap_or_else(|e| panic!("in-process trace validation: {e}"));
    ip_trace
        .reconcile()
        .unwrap_or_else(|e| panic!("in-process trace reconciliation: {e}"));
    let mut json_stats = None;
    for codec in PlanCodec::ALL {
        let label = codec.label();
        let sb_sink = TraceSink::bounded(TRACE_CAP);
        let (store_backed, sb_stats) = run_training_pipelined_traced(
            planner,
            dataset,
            gbs,
            run,
            RuntimeConfig {
                plan_ahead,
                workers,
                distribution: PlanDistribution::StoreBacked,
                codec,
            },
            &sb_sink,
        );
        serial.behavior_eq(&store_backed).unwrap_or_else(|e| {
            panic!("store-backed/{label} vs serial (w={plan_ahead},{workers}): {e}")
        });
        in_process.behavior_eq(&store_backed).unwrap_or_else(|e| {
            panic!("store-backed/{label} vs in-process (w={plan_ahead},{workers}): {e}")
        });
        // Store invariants that hold in every scenario: teardown leaves
        // no orphaned blobs, and the plan-ahead window bounds store
        // occupancy.
        let store = sb_stats
            .store
            .as_ref()
            .expect("store-backed runs snapshot the store");
        assert_eq!(store.occupancy, 0, "orphaned blobs after teardown ({label})");
        assert_eq!(store.bytes, 0, "leaked bytes after teardown ({label})");
        assert!(
            store.peak_occupancy <= plan_ahead,
            "store occupancy {} exceeded the plan-ahead window {plan_ahead} ({label})",
            store.peak_occupancy
        );
        let mut sb_trace = sb_sink.finish();
        sb_trace.meta = sb_stats.trace_meta(&format!("store-backed/{label}"));
        sb_trace
            .validate()
            .unwrap_or_else(|e| panic!("store-backed/{label} trace validation: {e}"));
        sb_trace
            .reconcile()
            .unwrap_or_else(|e| panic!("store-backed/{label} trace reconciliation: {e}"));
        sim_eq(&ip_trace, &sb_trace).unwrap_or_else(|e| {
            panic!("store-backed/{label} Sim timeline diverged from in-process: {e}")
        });
        if codec == PlanCodec::Json {
            json_stats = Some(sb_stats);
        }
    }
    (ip_stats, json_stats.expect("JSON arm ran"))
}

#[test]
fn jittered_runs_are_bit_identical_across_window_and_worker_shapes() {
    // Jitter seeds are keyed by (iteration_index, replica), so both
    // pipelined modes must reproduce jittered measurements exactly no
    // matter how planning is scheduled across workers and windows — and
    // no matter that the store-backed plans were rebuilt from JSON.
    let planner = DynaPipePlanner::new(cost_model(2, 1), PlannerConfig::default());
    let dataset = Dataset::flanv2(101, 500);
    let run = RunConfig {
        max_iterations: Some(4),
        jitter: Some(JitterConfig {
            sigma: 0.08,
            seed: 0xBEEF,
        }),
        ..Default::default()
    };
    let serial = run_training(&planner, &dataset, gbs(), run);
    assert!(serial.feasible(), "fixture must run clean: {:?}", serial.failure);
    for (plan_ahead, workers) in [(1, 1), (2, 3), (6, 2)] {
        let (ip_stats, sb_stats) = assert_distribution_matrix(
            &planner, &dataset, gbs(), run, plan_ahead, workers, &serial,
        );
        for stats in [&ip_stats, &sb_stats] {
            assert!(
                stats.max_plans_resident <= plan_ahead,
                "plan-ahead window exceeded: {} > {plan_ahead}",
                stats.max_plans_resident
            );
        }
        // The wire hop is real work and is accounted per iteration.
        assert_eq!(sb_stats.serialize_us.len(), 4);
        assert_eq!(sb_stats.deserialize_us.len(), 4);
        assert!(sb_stats.blob_bytes.iter().all(|&b| b > 0));
    }
}

#[test]
fn jitter_free_data_parallel_runs_match() {
    let planner = DynaPipePlanner::new(cost_model(2, 2), PlannerConfig::default());
    let dataset = Dataset::flanv2(103, 600);
    let run = RunConfig {
        max_iterations: Some(3),
        jitter: None,
        ..Default::default()
    };
    let gbs = GlobalBatchConfig {
        tokens_per_batch: 32768,
        max_seq_len: 2048,
    };
    let serial = run_training(&planner, &dataset, gbs, run);
    assert!(serial.feasible(), "{:?}", serial.failure);
    assert_distribution_matrix(&planner, &dataset, gbs, run, 3, 2, &serial);
}

#[test]
fn baseline_planners_run_pipelined_too() {
    let planner = BaselinePlanner::new(
        cost_model(2, 1),
        BaselineKind::Packing {
            max_seq_len: 2048,
            max_target_len: 256,
            mb_size: 1,
        },
    );
    let dataset = Dataset::flanv2(107, 400);
    let run = RunConfig {
        max_iterations: Some(3),
        ..Default::default()
    };
    let serial = run_training(&planner, &dataset, gbs(), run);
    let defaults = RuntimeConfig::default();
    assert_distribution_matrix(
        &planner,
        &dataset,
        gbs(),
        run,
        defaults.plan_ahead,
        defaults.workers,
        &serial,
    );
}

#[test]
fn failure_mid_epoch_stops_all_runtimes_at_the_same_iteration() {
    // A 2M-token monster sample lands alone in a mini-batch a few
    // iterations in: no recompute mode can fit it, so planning fails
    // mid-epoch. Both pipelined runtimes have speculatively planned
    // further iterations by then — they must discard them and stop with
    // exactly the serial driver's failure, records and totals. In
    // store-backed mode the failure itself crosses the store as a wire
    // blob, and the speculative blobs past it must be swept out: the
    // store ends empty, with the discards accounted.
    let planner = DynaPipePlanner::new(cost_model(2, 1), PlannerConfig::default());
    let mut dataset = Dataset::flanv2(109, 400);
    dataset.samples[130] = Sample {
        id: 130,
        task: 0,
        input_len: 2_000_000,
        target_len: 512,
    };
    // No truncation: the monster must reach the planner at full length.
    let gbs = GlobalBatchConfig {
        tokens_per_batch: 16384,
        max_seq_len: 4_000_000,
    };
    let run = RunConfig {
        max_iterations: Some(20),
        ..Default::default()
    };
    let serial = run_training(&planner, &dataset, gbs, run);
    assert!(
        serial.failure.is_some(),
        "fixture must fail planning on the monster sample"
    );
    assert!(
        !serial.records.is_empty(),
        "failure must happen mid-epoch, not at iteration 0"
    );
    let failed_at: usize = serial.records.len();
    assert!(
        serial
            .failure
            .as_deref()
            .unwrap()
            .starts_with(&format!("iteration {failed_at}:")),
        "unexpected failure placement: {:?}",
        serial.failure
    );
    for (plan_ahead, workers) in [(1, 1), (4, 2)] {
        let (ip_stats, sb_stats) = assert_distribution_matrix(
            &planner, &dataset, gbs, run, plan_ahead, workers, &serial,
        );
        // Speculative plans beyond the failure never become records.
        assert_eq!(ip_stats.planning_us.len(), failed_at);
        assert_eq!(sb_stats.planning_us.len(), failed_at);
        // No orphaned blobs (asserted in the matrix helper), and with a
        // window > 1 the speculative blobs past the failure really
        // existed and were discarded rather than leaked.
        let store = sb_stats.store.as_ref().unwrap();
        assert_eq!(store.occupancy, 0);
        if plan_ahead > 1 {
            assert!(
                store.discarded > 0,
                "a wide window must have parked speculative blobs to discard"
            );
        }
    }
}
