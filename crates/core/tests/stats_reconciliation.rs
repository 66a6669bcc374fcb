//! Reconciliation checks for the wall-clock side of [`RuntimeStats`]
//! and the high-water marks of [`dynapipe_core::StoreStats`]. These
//! fields are excluded from `behavior_eq` by design — which is exactly
//! why they need their own test: a write-only ledger field can rot
//! (never incremented, double counted, wrong unit) without any
//! equivalence suite noticing. `dynapipe-lint`'s counter-coverage rule
//! fails the build if one of these stops being referenced by a test.

use dynapipe_core::{
    run_training_pipelined_traced, DynaPipePlanner, PlanCodec, PlanDistribution, PlannerConfig,
    RunConfig, RuntimeConfig,
};
use dynapipe_cost::{CostModel, ProfileOptions};
use dynapipe_data::{Dataset, GlobalBatchConfig};
use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};
use dynapipe_trace::{SpanKind, TraceSink};
use std::sync::Arc;

fn planner() -> DynaPipePlanner {
    DynaPipePlanner::new(
        Arc::new(CostModel::build(
            HardwareModel::a100_cluster(),
            ModelConfig::gpt_3_35b(),
            ParallelConfig::new(1, 1, 2),
            &ProfileOptions::coarse(),
        )),
        PlannerConfig::default(),
    )
}

fn gbs() -> GlobalBatchConfig {
    GlobalBatchConfig {
        tokens_per_batch: 16384,
        max_seq_len: 2048,
    }
}

#[test]
fn wall_clock_stats_reconcile_on_a_store_backed_run() {
    let planner = planner();
    let dataset = Dataset::flanv2(211, 400);
    let iterations = 4usize;
    let run = RunConfig {
        max_iterations: Some(iterations),
        ..Default::default()
    };
    let (report, stats) = run_training_pipelined_traced(
        &planner,
        &dataset,
        gbs(),
        run,
        RuntimeConfig {
            plan_ahead: 2,
            workers: 2,
            distribution: PlanDistribution::StoreBacked,
            codec: PlanCodec::Binary,
        },
        &TraceSink::disabled(),
    );
    assert!(
        report.feasible(),
        "fixture must run clean: {:?}",
        report.failure
    );

    // exec_sim_us: one simulated-iteration entry per executed iteration,
    // every one strictly positive (an iteration cannot take zero time).
    assert_eq!(
        stats.exec_sim_us.len(),
        iterations,
        "one simulated time per iteration"
    );
    assert!(
        stats.exec_sim_us.iter().all(|&t| t > 0.0),
        "simulated iteration times must be positive: {:?}",
        stats.exec_sim_us
    );

    // host_wall_us covers the whole run, so it must dominate the summed
    // executor host time (exec_host_us), which is measured inside it.
    assert!(stats.host_wall_us > 0.0, "host wall-clock never measured");
    assert!(
        stats.exec_host_us >= 0.0 && stats.exec_host_us <= stats.host_wall_us,
        "executor host time {} must fit inside the run's wall-clock {}",
        stats.exec_host_us,
        stats.host_wall_us
    );

    // Store high-water marks: a store-backed run pushed real bytes, so
    // peak_bytes was set and must dominate the (post-teardown, zero)
    // steady-state byte counter.
    let store = stats
        .store
        .as_ref()
        .expect("store-backed run has store stats");
    assert!(store.peak_bytes > 0, "peak_bytes never recorded a push");
    assert!(
        store.peak_bytes >= store.bytes,
        "peak_bytes {} below final bytes {}",
        store.peak_bytes,
        store.bytes
    );
    assert_eq!(store.bytes, 0, "teardown must drain all bytes");

    // The stats carry the codec label their decode timings were measured
    // under.
    assert_eq!(stats.codec, PlanCodec::Binary);
}

#[test]
fn flat_codec_runs_report_blob_bytes_per_iteration() {
    // Under PlanCodec::Flat the engines execute straight over the wire
    // blob, so the bytes executed zero-copy are `blob_bytes`: one
    // nonzero entry per iteration.
    let planner = planner();
    let dataset = Dataset::flanv2(211, 400);
    let iterations = 3usize;
    let run = RunConfig {
        max_iterations: Some(iterations),
        ..Default::default()
    };
    let (report, stats) = run_training_pipelined_traced(
        &planner,
        &dataset,
        gbs(),
        run,
        RuntimeConfig {
            plan_ahead: 2,
            workers: 2,
            distribution: PlanDistribution::StoreBacked,
            codec: PlanCodec::Flat,
        },
        &TraceSink::disabled(),
    );
    assert!(
        report.feasible(),
        "fixture must run clean: {:?}",
        report.failure
    );
    assert_eq!(stats.codec, PlanCodec::Flat);
    assert_eq!(stats.blob_bytes.len(), iterations);
    assert!(
        stats.blob_bytes.iter().all(|&b| b > 0),
        "flat blobs cannot be empty: {:?}",
        stats.blob_bytes
    );
    // The decode timings (validate-and-wrap plus the small plan-metadata
    // section) are still measured per iteration under this label.
    assert_eq!(stats.deserialize_us.len(), iterations);
    assert!(stats.deserialize_us.iter().all(|&t| t >= 0.0));
}

#[test]
fn ticket_spans_share_the_clock_reads_of_the_counters_they_shadow() {
    // Measure once: each worker phase reads the clock once before and
    // once after, and both the counter and the span come from those two
    // reads. A span timed by separate clock reads drifts from its
    // counter by ~1e-4 relative, far outside this bound.
    let planner = planner();
    let dataset = Dataset::flanv2(211, 400);
    let iterations = 3usize;
    let run = RunConfig {
        max_iterations: Some(iterations),
        ..Default::default()
    };
    for distribution in [PlanDistribution::InProcess, PlanDistribution::StoreBacked] {
        let sink = TraceSink::bounded(1 << 16);
        let (report, stats) = run_training_pipelined_traced(
            &planner,
            &dataset,
            gbs(),
            run,
            RuntimeConfig {
                plan_ahead: 2,
                workers: 2,
                distribution,
                codec: PlanCodec::Flat,
            },
            &sink,
        );
        assert!(
            report.feasible(),
            "fixture must run clean: {:?}",
            report.failure
        );
        let trace = sink.finish();
        let span_us = |kind: SpanKind, it: usize| {
            let spans: Vec<_> = trace
                .of_kind(kind)
                .filter(|s| s.iteration == it as i64)
                .collect();
            assert_eq!(
                spans.len(),
                1,
                "{distribution:?}: one {kind:?} span for iteration {it}"
            );
            spans[0].end_us - spans[0].start_us
        };
        let agree = |span: f64, counter: f64, what: &str| {
            assert!(
                (span - counter).abs() <= 1e-9 * counter,
                "{distribution:?} {what}: span {span} µs vs counter {counter} µs"
            );
        };
        assert_eq!(stats.planning_us.len(), iterations);
        for it in 0..iterations {
            agree(
                span_us(SpanKind::TicketPlan, it) + span_us(SpanKind::TicketLower, it),
                stats.planning_us[it],
                &format!("iteration {it} plan + lower"),
            );
            if distribution == PlanDistribution::StoreBacked {
                agree(
                    span_us(SpanKind::TicketEncode, it),
                    stats.serialize_us[it],
                    &format!("iteration {it} encode"),
                );
            }
        }
    }
}
