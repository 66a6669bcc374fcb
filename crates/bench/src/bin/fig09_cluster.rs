//! Fig. 9 deployed: the cluster runtime on simulated multi-host
//! topologies, with the wire codec A/B.
//!
//! Runs the fig17 workload (65k-token mini-batches, 8 GPUs) at dp=2 —
//! GPT 6.7B (dp2·pp4) and T5 11B (dp2·tp4) — through the serial driver
//! and a topology × codec matrix of
//! [`dynapipe_cluster::run_training_cluster_traced`]:
//!
//! * `1p×1w→1e` over free local links — the degenerate single-host
//!   deployment, the control arm;
//! * `2p×1w→2e` and `2p×2w→2e` over the a100 inter-node link — planner
//!   pool on separate hosts, replicas split across executor hosts, every
//!   plan blob paying α-β wire cost into and out of the store;
//!
//! each with all three [`PlanCodec`]s, so the artifact shows what the
//! binary codec buys on a real multi-host wire — and what the zero-copy
//! flat codec buys on top of it (executors run engines straight over
//! the downlink bytes; decode validates and wraps the records and reads
//! the fixed-width summary, never the plan section).
//!
//! A **churn arm** (PR 6) then replays the `2p×1w→2e` deployment per
//! codec under a scripted worst-of-every-class [`ChurnScript`] — a
//! straggler, a planner crash, a planner join, and an executor-host
//! loss — with a re-issue deadline armed, and reports the recovery
//! counters ([`dynapipe_cluster::ChurnStats`]) beside the wall of its
//! undisturbed twin, the matrix arm of the same topology and codec. Events
//! are keyed at `min(k, iters-1)` so a capped 1-iteration smoke run
//! still fires every one of them.
//!
//! A **datacenter arm** (PR 9) then sweeps executor-host counts up to
//! O(100) — GPT 3.35B at `dp = host count`, pp=2 — over a
//! rack-structured [`Fabric`] (racks of 8, 4× oversubscribed cross-rack
//! bandwidth), crossing both [`StorePlacement`]s with every codec, plus
//! a churned cell per placement that loses a store-shard owner mid-run
//! (host 0 itself under the sharded placement — only the single
//! placement protects the store host). The sweep is the existence proof
//! for sharding: under the single placement the store host's links
//! concentrate the entire plan stream; sharding must spread it.
//!
//! Writes `results/fig09_cluster.json` — per model, every matrix and
//! churn arm's [`ClusterReport`], then the datacenter sweep with per-host
//! lists capped — and **exits nonzero** if
//!
//! 1. any topology's `RunReport` diverges from the serial driver
//!    (`behavior_eq` — the golden invariant), **including the churned
//!    arms**, or
//! 2. the binary codec's mean blob exceeds **half** the JSON blob, or
//! 3. the flat codec's fixed-width arena exceeds **1.25×** the binary
//!    blob bytes, or
//! 4. recovery cost is unbounded: a churned arm's wall exceeds
//!    `3 × undisturbed + 5 s` (the slack covers the injected straggle
//!    sleep and scheduler noise on a small container), or a churned arm
//!    has no undisturbed matrix arm of the same topology and codec to
//!    compare against, or
//! 5. any datacenter cell — every host count × codec × placement ×
//!    fabric combination, churned cells included — diverges from its
//!    serial oracle, or
//! 6. sharding stops spreading the plan stream: at the **largest**
//!    topology, the sharded store's busiest single link must carry
//!    **strictly fewer** bytes than the single store host serves over
//!    its downlink (`Σ bytes_fetched` across the other executor hosts),
//!    or
//! 7. any trace-arm cell fails `validate`, `reconcile` or `sim_eq`
//!    ([`run_trace_arm`]), or the arm exports no trace.
//!
//! Byte gates 2 and 3 read in-run blob sizes, which are deterministic;
//! no gate here reads a host clock. Decode cost is `perfbench`'s
//! (`codec.decode_ms.*`), and that the executor decode never reads the
//! plan section is pinned by `tests/serialization.rs`.

use dynapipe_bench::{write_json, BenchOpts};
use dynapipe_cluster::{
    run_training_cluster_traced, ChurnEvent, ChurnScript, ClusterConfig, ClusterReport,
    StorePlacement,
};
use dynapipe_core::{run_training, DynaPipePlanner, PlanCodec, PlannerConfig, RunConfig};
use dynapipe_cost::{CostModel, ProfileOptions};
use dynapipe_data::{Dataset, GlobalBatchConfig};
use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};
use dynapipe_sim::Fabric;
use dynapipe_trace::{chrome::to_chrome_trace, sim_eq, Trace, TraceSink};
use serde::Serialize;
use std::sync::Arc;
use std::time::Duration;

#[derive(Serialize)]
struct Arm {
    stats: ClusterReport,
    divergence: Option<String>,
}

#[derive(Serialize)]
struct ChurnArm {
    stats: ClusterReport,
    divergence: Option<String>,
    /// Wall of the matrix arm with the same topology and codec; `None`
    /// (a gate failure) if the matrix has no such arm.
    undisturbed_wall_us: Option<f64>,
}

#[derive(Serialize)]
struct ModelOutcome {
    name: &'static str,
    iterations: usize,
    serial_wall_us: f64,
    arms: Vec<Arm>,
    churn_arms: Vec<ChurnArm>,
}

/// The churn arm's deployment: the `2p×1w→2e` matrix topology with one
/// scripted event of every class and a re-issue deadline armed. Events
/// are keyed at `min(k, iters-1)` so a capped 1-iteration smoke run
/// (`run_all --smoke`) still fires all of them at iteration 0.
fn churn_topology(iters: usize, codec: PlanCodec) -> ClusterConfig {
    let at = |k: usize| k.min(iters.saturating_sub(1));
    ClusterConfig {
        planner_hosts: 2,
        workers_per_host: 1,
        executor_hosts: 2,
        plan_ahead: 4,
        codec,
        churn: ChurnScript::new()
            .at(
                at(1),
                ChurnEvent::Straggle {
                    host: 1,
                    delay_ms: 1200,
                },
            )
            .at(at(2), ChurnEvent::PlannerCrash { host: 1 })
            .at(at(2), ChurnEvent::PlannerJoin { workers: 1 })
            .at(at(3), ChurnEvent::ExecutorLoss { host: 1 }),
        reissue_deadline: Some(Duration::from_millis(500)),
        ..Default::default()
    }
}

fn topologies() -> Vec<ClusterConfig> {
    let mut out = Vec::new();
    for codec in PlanCodec::ALL {
        out.push(ClusterConfig {
            planner_hosts: 1,
            workers_per_host: 1,
            executor_hosts: 1,
            plan_ahead: 4,
            codec,
            fabric: Fabric::free(),
            ..Default::default()
        });
        out.push(ClusterConfig {
            planner_hosts: 2,
            workers_per_host: 1,
            executor_hosts: 2,
            plan_ahead: 4,
            codec,
            ..Default::default()
        });
        out.push(ClusterConfig {
            planner_hosts: 2,
            workers_per_host: 2,
            executor_hosts: 2,
            plan_ahead: 4,
            codec,
            ..Default::default()
        });
    }
    out
}

fn run_model(
    name: &'static str,
    model: ModelConfig,
    parallel: ParallelConfig,
    dataset: &Dataset,
    iters: usize,
) -> ModelOutcome {
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
    let serial_wall_us: f64 = serial
        .records
        .iter()
        .map(|r| r.planning_time_us + r.measured_time)
        .sum();
    let arms: Vec<Arm> = topologies()
        .into_iter()
        .map(|cluster| {
            let (report, stats) = run_training_cluster_traced(
                &planner,
                dataset,
                gbs,
                run,
                cluster,
                &TraceSink::disabled(),
            );
            Arm {
                divergence: serial.behavior_eq(&report).err(),
                stats,
            }
        })
        .collect();
    let churn_arms = PlanCodec::ALL
        .into_iter()
        .map(|codec| {
            let cluster = churn_topology(iters, codec);
            let label = cluster.label();
            let (report, stats) = run_training_cluster_traced(
                &planner,
                dataset,
                gbs,
                run,
                cluster,
                &TraceSink::disabled(),
            );
            // The undisturbed baseline is the matrix arm with the same
            // topology and codec, measured moments earlier in this run.
            let undisturbed_wall_us = arms
                .iter()
                .find(|a| a.stats.topology == label && a.stats.codec == stats.codec)
                .map(|a| a.stats.cluster_wall_us);
            ChurnArm {
                divergence: serial.behavior_eq(&report).err(),
                undisturbed_wall_us,
                stats,
            }
        })
        .collect();
    ModelOutcome {
        name,
        iterations: serial.records.len(),
        serial_wall_us,
        arms,
        churn_arms,
    }
}

/// One cell of the datacenter sweep: a placement × codec deployment at
/// one executor-host count over the rack-structured fabric, optionally
/// with a scripted shard-owner loss.
#[derive(Clone, Serialize)]
struct DatacenterCell {
    churned: bool,
    /// The full report; the artifact's copy is [`DatacenterPoint::truncated`].
    stats: ClusterReport,
    /// Σ `bytes_fetched` over every executor host.
    bytes_fetched: u64,
    /// Σ `bytes_pushed` over every planner host.
    bytes_pushed: u64,
    /// Entries cut from `stats.executor_hosts` / `stats.shards` (zero
    /// until truncated).
    executor_hosts_omitted: usize,
    shards_omitted: usize,
    divergence: Option<String>,
}

impl DatacenterCell {
    fn new(stats: ClusterReport, divergence: Option<String>, churned: bool) -> Self {
        DatacenterCell {
            churned,
            bytes_fetched: stats.executor_hosts.iter().map(|h| h.bytes_fetched).sum(),
            bytes_pushed: stats.planner_hosts.iter().map(|h| h.bytes_pushed).sum(),
            executor_hosts_omitted: 0,
            shards_omitted: 0,
            stats,
            divergence,
        }
    }
}

/// The datacenter sweep at one executor-host count, with its own serial
/// oracle (the workload changes with `dp = host count`).
#[derive(Clone, Serialize)]
struct DatacenterPoint {
    hosts: usize,
    iterations: usize,
    serial_feasible: bool,
    serial_wall_us: f64,
    cells: Vec<DatacenterCell>,
}

/// Per-host entries kept per datacenter cell in the artifact. The
/// O(100)-host sweep would otherwise serialize every `ExecutorHostStats`
/// and `ShardStats` of every cell (~28k lines of artifact); the cell's
/// totals plus the first few hosts as a sample are enough to read it.
const DC_HOST_JSON_CAP: usize = 8;

impl DatacenterPoint {
    /// A copy for the artifact, with each cell's per-host lists cut to
    /// [`DC_HOST_JSON_CAP`] entries. The gates read the full point.
    fn truncated(&self) -> DatacenterPoint {
        let mut p = self.clone();
        for c in &mut p.cells {
            let s = &mut c.stats;
            c.executor_hosts_omitted = s.executor_hosts.len().saturating_sub(DC_HOST_JSON_CAP);
            c.shards_omitted = s.shards.len().saturating_sub(DC_HOST_JSON_CAP);
            s.executor_hosts.truncate(DC_HOST_JSON_CAP);
            s.shards.truncate(DC_HOST_JSON_CAP);
        }
        p
    }
}

const DC_HOSTS_PER_RACK: usize = 8;
const DC_OVERSUBSCRIPTION: f64 = 4.0;

/// Executor-host counts for the datacenter sweep — O(100) hosts at the
/// top end. `run_all --smoke` caps the sweep to one toy size; it must
/// stay ≥ 3 hosts so the fan-out gate (sharded busiest link strictly
/// below the single store host's downlink) is still meaningful.
fn datacenter_host_counts(opts: &BenchOpts) -> Vec<usize> {
    if opts.smoke {
        vec![3]
    } else {
        vec![8, 32, 96]
    }
}

fn run_datacenter(dataset: &Dataset, opts: &BenchOpts) -> Vec<DatacenterPoint> {
    let hw = HardwareModel::a100_cluster();
    let iters = opts.capped(3, 1);
    datacenter_host_counts(opts)
        .into_iter()
        .map(|hosts| {
            // The runtime clamps executor hosts to the data-parallel
            // degree, so the sweep sets dp = host count (pp=2 keeps the
            // per-host model small). The coarse profile is enough: this
            // arm measures the fabric, not profile fidelity.
            let cm = Arc::new(CostModel::build(
                hw.clone(),
                ModelConfig::gpt_3_35b(),
                ParallelConfig::new(hosts, 1, 2),
                &ProfileOptions::coarse(),
            ));
            let planner = DynaPipePlanner::new(cm, PlannerConfig::default());
            let gbs = GlobalBatchConfig {
                tokens_per_batch: (hosts * 1024).max(8192),
                max_seq_len: 1024,
            };
            let run = RunConfig {
                max_iterations: Some(iters),
                ..Default::default()
            };
            let serial = run_training(&planner, dataset, gbs, run);
            let fabric =
                ClusterConfig::datacenter_fabric(&hw, DC_HOSTS_PER_RACK, DC_OVERSUBSCRIPTION);
            let mut cells = Vec::new();
            for placement in [StorePlacement::Single, StorePlacement::Sharded] {
                for codec in PlanCodec::ALL {
                    let cfg = ClusterConfig {
                        planner_hosts: 2,
                        workers_per_host: 1,
                        executor_hosts: hosts,
                        plan_ahead: 4,
                        codec,
                        placement,
                        fabric: fabric.clone(),
                        ..Default::default()
                    };
                    let (report, stats) = run_training_cluster_traced(
                        &planner,
                        dataset,
                        gbs,
                        run,
                        cfg,
                        &TraceSink::disabled(),
                    );
                    cells.push(DatacenterCell::new(
                        stats,
                        serial.behavior_eq(&report).err(),
                        false,
                    ));
                }
                // The churned cell loses a store-shard owner mid-run —
                // host 0 itself under the sharded placement (only the
                // single placement protects the store host; host 1
                // there). Recovery must stay behavior-identical: the
                // survivors re-own the dead host's shards and re-fetch
                // its in-flight blobs from a surviving peer.
                let lost = match placement {
                    StorePlacement::Sharded => 0,
                    StorePlacement::Single => 1,
                };
                let cfg = ClusterConfig {
                    planner_hosts: 2,
                    workers_per_host: 1,
                    executor_hosts: hosts,
                    plan_ahead: 4,
                    codec: PlanCodec::Binary,
                    placement,
                    fabric: fabric.clone(),
                    churn: ChurnScript::new().at(
                        1usize.min(iters.saturating_sub(1)),
                        ChurnEvent::ExecutorLoss { host: lost },
                    ),
                    ..Default::default()
                };
                let (report, stats) = run_training_cluster_traced(
                    &planner,
                    dataset,
                    gbs,
                    run,
                    cfg,
                    &TraceSink::disabled(),
                );
                cells.push(DatacenterCell::new(
                    stats,
                    serial.behavior_eq(&report).err(),
                    true,
                ));
            }
            DatacenterPoint {
                hosts,
                iterations: serial.records.len(),
                serial_feasible: serial.feasible(),
                serial_wall_us: serial
                    .records
                    .iter()
                    .map(|r| r.planning_time_us + r.measured_time)
                    .sum(),
                cells,
            }
        })
        .collect()
}

/// Span capacity for the trace arm's bounded ring: ample for the small
/// deployment (a dropped span fails reconciliation by design).
const TRACE_CAP: usize = 65536;

/// The **trace arm** (PR 10): the unified span recorder on a small
/// sharded deployment, held to the determinism contract. Every cell —
/// codec × placement, a churned cell per placement, and a rerun of the
/// first cell — must (a) stay behavior-identical to the serial oracle,
/// (b) produce a structurally valid trace whose payload totals
/// reconcile **exactly** against the run's own counters
/// (`Trace::reconcile`: byte sums, span counts, bitwise exposed-µs
/// ledgers), and (c) produce the **bit-identical Sim-domain span
/// sequence** as every other cell (`sim_eq`) — the simulated timeline
/// is behavior, not stats, so codec, placement, churn and rerun must
/// not move it. The richest cell (sharded + shard-owner loss) is
/// exported to `results/TRACE_cluster.json` plus a Chrome trace-event
/// rendering; `run_all --smoke` round-trips the export through
/// `trace_report`, which recomputes the critical path from the spans.
fn run_trace_arm(dataset: &Dataset, opts: &BenchOpts) -> (Vec<String>, Option<Trace>) {
    let hosts = 3usize;
    let iters = opts.capped(3, 1);
    let cm = Arc::new(CostModel::build(
        HardwareModel::a100_cluster(),
        ModelConfig::gpt_3_35b(),
        ParallelConfig::new(hosts, 1, 2),
        &ProfileOptions::coarse(),
    ));
    let planner = DynaPipePlanner::new(cm, PlannerConfig::default());
    let gbs = GlobalBatchConfig {
        tokens_per_batch: 8192,
        max_seq_len: 1024,
    };
    // Engine traces on: the sim timeline carries per-op spans, not just
    // iteration extents. The serial oracle runs the same config.
    let run = RunConfig {
        max_iterations: Some(iters),
        record_trace: true,
        ..Default::default()
    };
    let serial = run_training(&planner, dataset, gbs, run);

    let base = |codec: PlanCodec, placement: StorePlacement| ClusterConfig {
        planner_hosts: 2,
        workers_per_host: 1,
        executor_hosts: hosts,
        plan_ahead: 4,
        codec,
        placement,
        ..Default::default()
    };
    let mut cells: Vec<(String, ClusterConfig)> = Vec::new();
    for placement in [StorePlacement::Single, StorePlacement::Sharded] {
        let pl = match placement {
            StorePlacement::Single => "single",
            StorePlacement::Sharded => "sharded",
        };
        for codec in PlanCodec::ALL {
            cells.push((format!("{pl}/{}", codec.label()), base(codec, placement)));
        }
        // The churned cell loses a store owner mid-run (host 0 itself
        // under the sharded placement), so the export carries churn,
        // re-placement and restore-hop spans.
        let lost = match placement {
            StorePlacement::Sharded => 0,
            StorePlacement::Single => 1,
        };
        let mut cfg = base(PlanCodec::Binary, placement);
        cfg.churn = ChurnScript::new().at(
            1usize.min(iters.saturating_sub(1)),
            ChurnEvent::ExecutorLoss { host: lost },
        );
        cells.push((format!("{pl}/binary+loss"), cfg));
    }
    // Rerun of the first cell: bit-identity across reruns, not just
    // across configurations.
    let rerun = cells[0].1.clone();
    cells.push(("rerun/single/json".to_string(), rerun));

    let mut failures = Vec::new();
    let mut pinned: Option<Trace> = None;
    let mut export: Option<Trace> = None;
    println!("\n  trace arm — {hosts} executor hosts, {iters} iteration(s), cap {TRACE_CAP} spans");
    println!(
        "  {:>20} | {:>7} {:>10} | {:>9} {:>9} {:>7}",
        "cell", "spans", "sim spans", "validate", "reconcile", "sim_eq"
    );
    for (label, cfg) in cells {
        let sink = TraceSink::bounded(TRACE_CAP);
        let (report, stats) = run_training_cluster_traced(&planner, dataset, gbs, run, cfg, &sink);
        if let Err(d) = serial.behavior_eq(&report) {
            failures.push(format!("trace arm {label}: diverged from serial: {d}"));
        }
        let mut trace = sink.finish();
        trace.meta = stats.trace_meta(&format!("fig09 trace arm {label}"));
        let validated = trace.validate();
        let reconciled = trace.reconcile();
        let pinned_eq = match &pinned {
            Some(first) => sim_eq(first, &trace),
            None => Ok(()),
        };
        println!(
            "  {label:>20} | {:>7} {:>10} | {:>9} {:>9} {:>7}",
            trace.spans.len(),
            trace.counters.sim_spans,
            if validated.is_ok() { "ok" } else { "FAIL" },
            if reconciled.is_ok() { "ok" } else { "FAIL" },
            if pinned_eq.is_ok() { "ok" } else { "FAIL" },
        );
        if let Err(e) = validated {
            failures.push(format!("trace arm {label}: validation failed: {e}"));
        }
        if let Err(e) = reconciled {
            failures.push(format!("trace arm {label}: reconciliation failed: {e}"));
        }
        if let Err(e) = pinned_eq {
            failures.push(format!(
                "trace arm {label}: Sim spans diverged from the pinned cell: {e}"
            ));
        }
        if pinned.is_none() {
            pinned = Some(trace.clone());
        }
        if label == "sharded/binary+loss" {
            export = Some(trace);
        }
    }
    (failures, export)
}

#[derive(Serialize)]
struct Artifact {
    models: Vec<ModelOutcome>,
    dc_hosts_per_rack: usize,
    dc_oversubscription: f64,
    datacenter: Vec<DatacenterPoint>,
}

fn main() {
    let opts = BenchOpts::default();
    let dataset = Dataset::flanv2(opts.seed, opts.dataset_samples_at_least(6000));
    let iters = opts.capped(opts.iters.max(8), 1);
    println!(
        "fig09 cluster — fig17 workload at dp=2, {iters} iteration(s) per arm, \
         {} thread(s)\n",
        rayon::current_num_threads()
    );
    println!(
        "{:>5} {:>9} {:>7} | {:>12} {:>12} {:>8} | {:>9} {:>10} {:>9}",
        "model",
        "topology",
        "codec",
        "serial (ms)",
        "cluster (ms)",
        "overlap",
        "blob (KB)",
        "wire (KB)",
        "dec (ms)"
    );

    let mut outcomes = Vec::new();
    for (name, model, parallel) in [
        ("GPT", ModelConfig::gpt_6_7b(), ParallelConfig::new(2, 1, 4)),
        ("T5", ModelConfig::t5_11b(), ParallelConfig::new(2, 4, 1)),
    ] {
        let o = run_model(name, model, parallel, &dataset, iters);
        for arm in &o.arms {
            let s = &arm.stats;
            println!(
                "{:>5} {:>9} {:>7} | {:>12.1} {:>12.1} {:>7.1}% | {:>9.1} {:>10.1} {:>9.2}",
                o.name,
                s.topology,
                s.codec,
                o.serial_wall_us / 1e3,
                s.cluster_wall_us / 1e3,
                s.overlap_ratio * 100.0,
                s.mean_blob_bytes / 1e3,
                s.wire_bytes as f64 / 1e3,
                s.decode_us / 1e3,
            );
        }
        for c in &o.churn_arms {
            let ch = &c.stats.churn;
            println!(
                "{:>5} {:>9} {:>7} | churn +{:.1} ms: {} applied, {} reissued, \
                 {} stale, {} moved, {} dup blobs",
                o.name,
                c.stats.topology,
                c.stats.codec,
                c.undisturbed_wall_us
                    .map_or(0.0, |u| (c.stats.cluster_wall_us - u).max(0.0))
                    / 1e3,
                ch.events_applied,
                ch.tickets_reissued,
                ch.stale_completions,
                ch.replicas_moved,
                ch.duplicate_blobs_discarded,
            );
        }
        outcomes.push(o);
    }

    println!(
        "\n  datacenter arm — GPT 3.35B pp2, dp = executor hosts, racks of \
         {DC_HOSTS_PER_RACK}, {DC_OVERSUBSCRIPTION}x oversubscribed cross-rack"
    );
    println!(
        "  {:>5} {:>8} {:>7} {:>6} | {:>12} {:>13} {:>13}",
        "hosts", "store", "codec", "churn", "cluster (ms)", "max link (KB)", "fetched (KB)"
    );
    let datacenter = run_datacenter(&dataset, &opts);
    for p in &datacenter {
        for c in &p.cells {
            println!(
                "  {:>5} {:>8} {:>7} {:>6} | {:>12.1} {:>13.1} {:>13.1}",
                p.hosts,
                c.stats.placement,
                c.stats.codec,
                if c.churned { "loss" } else { "-" },
                c.stats.cluster_wall_us / 1e3,
                c.stats.max_link_bytes as f64 / 1e3,
                c.bytes_fetched as f64 / 1e3,
            );
        }
    }

    let (trace_failures, trace_export) = run_trace_arm(&dataset, &opts);
    if let Some(trace) = &trace_export {
        write_json("TRACE_cluster", trace);
        let chrome = to_chrome_trace(trace);
        let _ = std::fs::create_dir_all("results");
        match std::fs::write("results/TRACE_cluster_chrome.json", &chrome) {
            Ok(()) => println!(
                "  -> results/TRACE_cluster_chrome.json (load in Perfetto or chrome://tracing)"
            ),
            Err(e) => eprintln!("warning: could not write chrome trace: {e}"),
        }
    }

    // Codec A/B: blob bytes are exact and deterministic (sum over the
    // in-run arms), so these gates hold in smoke runs too.
    let codec_total = |codec: &str| -> f64 {
        outcomes
            .iter()
            .flat_map(|o| o.arms.iter())
            .filter(|a| a.stats.codec == codec)
            .map(|a| a.stats.mean_blob_bytes)
            .sum()
    };
    let json_blob_bytes = codec_total("json");
    let binary_blob_bytes = codec_total("binary");
    let flat_blob_bytes = codec_total("flat");
    println!(
        "\n  codec A/B/C: binary blobs at {:.1}% of JSON bytes, flat at {:.1}% of binary",
        100.0 * binary_blob_bytes / json_blob_bytes.max(1.0),
        100.0 * flat_blob_bytes / binary_blob_bytes.max(1.0),
    );

    // Hard checks: the golden invariant (churned arms included), the
    // codec acceptance bar, bounded recovery cost, and the trace arm's
    // determinism + reconciliation contract.
    let mut failed = false;
    for f in &trace_failures {
        eprintln!("error: {f}");
        failed = true;
    }
    if trace_export.is_none() {
        eprintln!("error: trace arm produced no export cell");
        failed = true;
    }
    for o in &outcomes {
        for a in &o.arms {
            if let Some(d) = &a.divergence {
                eprintln!(
                    "error: {} {}/{} diverged from serial: {d}",
                    o.name, a.stats.topology, a.stats.codec
                );
                failed = true;
            }
        }
        for c in &o.churn_arms {
            if let Some(d) = &c.divergence {
                eprintln!(
                    "error: {} churned {}/{} diverged from serial: {d}",
                    o.name, c.stats.topology, c.stats.codec
                );
                failed = true;
            }
            let Some(undisturbed_wall_us) = c.undisturbed_wall_us else {
                eprintln!(
                    "error: {} churned {}/{} has no undisturbed matrix arm to measure \
                     recovery cost against",
                    o.name, c.stats.topology, c.stats.codec
                );
                failed = true;
                continue;
            };
            let bound = undisturbed_wall_us * 3.0 + 5e6;
            if c.stats.cluster_wall_us > bound {
                eprintln!(
                    "error: {} churned {}/{} recovery cost is unbounded: {:.0} µs wall \
                     vs {:.0} µs allowed (3× undisturbed + 5 s)",
                    o.name, c.stats.topology, c.stats.codec, c.stats.cluster_wall_us, bound
                );
                failed = true;
            }
        }
    }
    if binary_blob_bytes * 2.0 > json_blob_bytes {
        eprintln!(
            "error: binary blobs ({binary_blob_bytes} B mean total) exceed half the JSON \
             blobs ({json_blob_bytes} B) — the binary codec stopped earning its keep"
        );
        failed = true;
    }
    // The fixed-width arena must not bloat the wire: ≤ 1.25× the binary
    // blob.
    if flat_blob_bytes > 1.25 * binary_blob_bytes {
        eprintln!(
            "error: flat blobs ({flat_blob_bytes} B mean total) exceed 1.25x the binary \
             blobs ({binary_blob_bytes} B) — the fixed-width arena is bloating the wire"
        );
        failed = true;
    }
    // Datacenter gates: the golden invariant over every cell (churned
    // included), and the fan-out bar at the largest topology.
    for p in &datacenter {
        if !p.serial_feasible {
            eprintln!(
                "error: datacenter {}h serial oracle is infeasible — the sweep proved nothing",
                p.hosts
            );
            failed = true;
        }
        for c in &p.cells {
            if let Some(d) = &c.divergence {
                eprintln!(
                    "error: datacenter {}h {}/{}{} diverged from serial: {d}",
                    p.hosts,
                    c.stats.placement,
                    c.stats.codec,
                    if c.churned { " (churned)" } else { "" }
                );
                failed = true;
            }
        }
    }
    if let Some(p) = datacenter.last() {
        for codec in PlanCodec::ALL {
            let cell = |placement: &str| {
                p.cells.iter().find(|c| {
                    !c.churned && c.stats.placement == placement && c.stats.codec == codec.label()
                })
            };
            match (cell("single"), cell("sharded")) {
                (Some(single), Some(sharded)) => {
                    // The single store host's downlink: every byte the
                    // other executor hosts fetch comes off host 0's NIC
                    // (its own replicas read local copies, uncounted).
                    let downlink = single.bytes_fetched;
                    if sharded.stats.max_link_bytes >= downlink {
                        eprintln!(
                            "error: datacenter {}h/{}: sharded busiest link carries \
                             {} B, not strictly below the single store host's {} B \
                             downlink — sharding stopped spreading the plan stream",
                            p.hosts,
                            codec.label(),
                            sharded.stats.max_link_bytes,
                            downlink
                        );
                        failed = true;
                    }
                }
                _ => {
                    eprintln!(
                        "error: datacenter {}h/{}: missing a placement cell for the \
                         fan-out gate",
                        p.hosts,
                        codec.label()
                    );
                    failed = true;
                }
            }
        }
    }
    write_json(
        "fig09_cluster",
        &Artifact {
            models: outcomes,
            dc_hosts_per_rack: DC_HOSTS_PER_RACK,
            dc_oversubscription: DC_OVERSUBSCRIPTION,
            datacenter: datacenter.iter().map(DatacenterPoint::truncated).collect(),
        },
    );
    if failed {
        std::process::exit(1);
    }
}
