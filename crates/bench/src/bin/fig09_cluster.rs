//! Fig. 9 deployed at datacenter scale: the cluster runtime's sharded
//! instruction store against the paper's single store host, with the
//! wire codec A/B.
//!
//! Sweeps executor-host counts up to O(100) — GPT 3.35B at
//! `dp = host count`, pp=2 — over a rack-structured [`Fabric`] (racks of
//! 8, 4× oversubscribed cross-rack bandwidth), crossing both
//! [`StorePlacement`]s with every [`PlanCodec`], plus a churned cell per
//! placement that loses a store-shard owner mid-run (host 0 itself under
//! the sharded placement — only the single placement protects the store
//! host). The sweep is the existence proof for sharding: under the
//! single placement the store host's links concentrate the entire plan
//! stream; sharding must spread it.
//!
//! One traced cell — the sharded placement, binary codec, losing host 0,
//! at 3 hosts with engine traces on — is exported to
//! `results/TRACE_cluster.json` plus a Chrome trace-event rendering;
//! `run_all` round-trips the export through `trace_report`, which
//! recomputes the critical path from the spans.
//!
//! Writes `results/fig09_cluster.json` — the sweep, per-host lists
//! capped, with every field that follows host timing moved under one
//! `host_timed` key (see [`HOST_TIMED`]), so two runs differ only there —
//! and **exits nonzero** if
//!
//! 1. any datacenter cell — every host count × codec × placement,
//!    churned cells included — diverges from its serial oracle
//!    (`behavior_eq`, the golden invariant), or a host count's serial
//!    oracle is infeasible, or
//! 2. the binary codec's mean blob, summed over the sweep's undisturbed
//!    cells, exceeds **half** the JSON blob, or
//! 3. the flat codec's fixed-width arena, summed the same way, exceeds
//!    **1.25×** the binary blob bytes, or
//! 4. sharding stops spreading the plan stream: at the **largest**
//!    topology, the sharded store's busiest single link must carry
//!    **strictly fewer** bytes than the single store host serves over
//!    its downlink (`Σ bytes_fetched` across the other executor hosts),
//!    or
//! 5. the traced cell diverges from its serial oracle, fails `validate`
//!    or `reconcile`, or is not exported.
//!
//! Every gate reads behavior, in-run byte counts or span payloads, all
//! deterministic; none reads a host clock. The equivalence matrices over
//! topology × codec × churn (GPT and T5, the worst-of-every-class churn
//! script among them) are the cluster crate's test suites, which check
//! every run through one harness.

use dynapipe_bench::{write_json, SEED};
use dynapipe_cluster::{
    run_training_cluster_traced, ChurnEvent, ChurnScript, ClusterConfig, ClusterReport,
    StorePlacement,
};
use dynapipe_core::{run_training, DynaPipePlanner, PlanCodec, PlannerConfig, RunConfig};
use dynapipe_cost::{CostModel, ProfileOptions};
use dynapipe_data::{Dataset, GlobalBatchConfig};
use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};
use dynapipe_sim::Fabric;
use dynapipe_trace::{chrome::to_chrome_trace, Trace, TraceSink};
use serde::{Map, Serialize, Value};
use std::sync::Arc;

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
    /// Entries cut from `stats.executor_hosts` / `stats.shards` (zero
    /// until truncated).
    executor_hosts_omitted: usize,
    shards_omitted: usize,
    divergence: Option<String>,
}

/// The datacenter sweep at one executor-host count, with its own serial
/// oracle (the workload changes with `dp = host count`).
#[derive(Clone, Serialize)]
struct DatacenterPoint {
    hosts: usize,
    iterations: usize,
    serial_feasible: bool,
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

/// The fields of a serialized [`DatacenterCell`] that follow the host
/// rather than the seed and config: host clocks (`*_us` measured in real
/// time, and the overlap and exposure they feed), which planner host
/// planned which iteration, the store's peaks, and the byte and wire-time
/// counts. Bytes are exact under the binary and flat codecs, but a JSON
/// blob carries the host-timed `planning_time_us` digits and link queues
/// order by push time, so these fields move for every codec. A path is
/// dotted; a `[]` segment applies the rest to every element of a list.
const HOST_TIMED: &[&str] = &[
    "bytes_fetched",
    "stats.planner_hosts",
    "stats.executor_hosts[].bytes_fetched",
    "stats.executor_hosts[].fetch_wire_us",
    "stats.executor_hosts[].decode_us",
    "stats.executor_hosts[].exposed_us",
    "stats.executor_hosts[].overlap_ratio",
    "stats.shards[].bytes_pushed",
    "stats.shards[].bytes_served",
    "stats.shards[].push_wire_us",
    "stats.shards[].fetch_wire_us",
    "stats.max_link_bytes",
    "stats.cluster_wall_us",
    "stats.total_wire_us",
    "stats.exposed_us",
    "stats.overlap_ratio",
    "stats.wire_bytes",
    "stats.mean_blob_bytes",
    "stats.decode_us",
    "stats.serialize_us",
    "stats.store.peak_occupancy",
    "stats.store.peak_bytes",
];

/// The entry `key` of object `v`, inserted as `init()` if absent.
fn entry<'v>(v: &'v mut Value, key: &str, init: impl FnOnce() -> Value) -> &'v mut Value {
    let Value::Object(map) = v else {
        panic!("`{key}` looked up in a non-object");
    };
    let i = match map.iter().position(|(k, _)| k == key) {
        Some(i) => i,
        None => {
            map.push((key.to_string(), init()));
            map.len() - 1
        }
    };
    &mut map[i].1
}

/// Move the field at the [`HOST_TIMED`] `path` out of `from` into the same
/// place in `to`, creating objects and lists there on the way. Panics if
/// `from` lacks the field, so a renamed report field cannot slip out of
/// the split unnoticed.
fn move_field(from: &mut Value, to: &mut Value, path: &[&str]) {
    let missing = || -> Value { panic!("fig09 artifact has no field {path:?}") };
    match path {
        [] => {}
        [leaf] => {
            let value = std::mem::replace(entry(from, leaf, missing), Value::Null);
            let Value::Object(map) = from else {
                unreachable!("entry found the field")
            };
            map.retain(|(k, _)| k != leaf);
            *entry(to, leaf, || Value::Null) = value;
        }
        [seg, rest @ ..] => match seg.strip_suffix("[]") {
            Some(key) => {
                let Value::Array(items) = entry(from, key, missing) else {
                    panic!("fig09 artifact field `{key}` is not a list");
                };
                let blank = vec![Value::Object(Map::new()); items.len()];
                let Value::Array(out) = entry(to, key, || Value::Array(blank)) else {
                    unreachable!("created as a list")
                };
                for (item, o) in items.iter_mut().zip(out) {
                    move_field(item, o, rest);
                }
            }
            None => {
                let t = entry(to, seg, || Value::Object(Map::new()));
                move_field(entry(from, seg, missing), t, rest);
            }
        },
    }
}

const DC_HOSTS_PER_RACK: usize = 8;
const DC_OVERSUBSCRIPTION: f64 = 4.0;

/// Executor-host counts for the datacenter sweep — O(100) hosts at the
/// top end.
const DC_HOST_COUNTS: [usize; 3] = [8, 32, 96];

/// Simulated iterations per run, the traced cell's included.
const ITERS: usize = 3;

/// GPT 3.35B at `dp = hosts`, pp=2: the runtime clamps executor hosts to
/// the data-parallel degree, and pp=2 keeps the per-host model small.
/// The coarse profile is enough: the sweep measures the fabric, not
/// profile fidelity.
fn planner(hosts: usize) -> DynaPipePlanner {
    let cm = Arc::new(CostModel::build(
        HardwareModel::a100_cluster(),
        ModelConfig::gpt_3_35b(),
        ParallelConfig::new(hosts, 1, 2),
        &ProfileOptions::coarse(),
    ));
    DynaPipePlanner::new(cm, PlannerConfig::default())
}

fn gbs(hosts: usize) -> GlobalBatchConfig {
    GlobalBatchConfig {
        tokens_per_batch: (hosts * 1024).max(8192),
        max_seq_len: 1024,
    }
}

/// Two single-worker planner hosts feeding `hosts` executor hosts. The
/// churned variant loses a store-shard owner at iteration 1 — host 0
/// itself under the sharded placement, host 1 under the single one,
/// whose store host is protected. Recovery must stay behavior-identical:
/// the survivors re-own the dead host's shards and re-fetch its in-flight
/// blobs from a surviving peer.
fn deployment(
    hosts: usize,
    codec: PlanCodec,
    placement: StorePlacement,
    fabric: Fabric,
    churned: bool,
) -> ClusterConfig {
    let lost = match placement {
        StorePlacement::Sharded => 0,
        StorePlacement::Single => 1,
    };
    ClusterConfig {
        planner_hosts: 2,
        workers_per_host: 1,
        executor_hosts: hosts,
        plan_ahead: 4,
        codec,
        placement,
        fabric,
        churn: if churned {
            ChurnScript::new().at(1, ChurnEvent::ExecutorLoss { host: lost })
        } else {
            ChurnScript::new()
        },
        ..Default::default()
    }
}

fn run_datacenter(dataset: &Dataset) -> Vec<DatacenterPoint> {
    let run = RunConfig {
        max_iterations: Some(ITERS),
        ..Default::default()
    };
    let fabric = ClusterConfig::datacenter_fabric(
        &HardwareModel::a100_cluster(),
        DC_HOSTS_PER_RACK,
        DC_OVERSUBSCRIPTION,
    );
    DC_HOST_COUNTS
        .into_iter()
        .map(|hosts| {
            let (planner, gbs) = (planner(hosts), gbs(hosts));
            let serial = run_training(&planner, dataset, gbs, run);
            let mut cells = Vec::new();
            for placement in [StorePlacement::Single, StorePlacement::Sharded] {
                // Every codec undisturbed, then the churned binary cell.
                let churns = PlanCodec::ALL.map(|codec| (codec, false));
                for (codec, churned) in churns.into_iter().chain([(PlanCodec::Binary, true)]) {
                    let cfg = deployment(hosts, codec, placement, fabric.clone(), churned);
                    let sink = TraceSink::disabled();
                    let (report, stats) =
                        run_training_cluster_traced(&planner, dataset, gbs, run, cfg, &sink);
                    cells.push(DatacenterCell {
                        churned,
                        bytes_fetched: stats.executor_hosts.iter().map(|h| h.bytes_fetched).sum(),
                        executor_hosts_omitted: 0,
                        shards_omitted: 0,
                        stats,
                        divergence: serial.behavior_eq(&report).err(),
                    });
                }
            }
            DatacenterPoint {
                hosts,
                iterations: serial.records.len(),
                serial_feasible: serial.feasible(),
                cells,
            }
        })
        .collect()
}

/// Span capacity of the traced cell's bounded ring: ample for the small
/// deployment (a dropped span fails reconciliation by design).
const TRACE_CAP: usize = 65536;

/// The traced cell: the sharded placement losing host 0 at 3 hosts over
/// the default fabric, so the export carries churn, re-placement and
/// restore-hop spans, with engine traces on so the Sim timeline carries
/// per-op spans. Returns the trace once it matches its serial oracle,
/// validates and reconciles exactly against the run's own counters.
fn run_traced_cell(dataset: &Dataset) -> Result<Trace, String> {
    let hosts = 3;
    let (planner, gbs) = (planner(hosts), gbs(hosts));
    let run = RunConfig {
        max_iterations: Some(ITERS),
        record_trace: true,
        ..Default::default()
    };
    let serial = run_training(&planner, dataset, gbs, run);
    let (codec, placement) = (PlanCodec::Binary, StorePlacement::Sharded);
    let fabric = ClusterConfig::default().fabric;
    let cfg = deployment(hosts, codec, placement, fabric, true);
    let label = "sharded/binary+loss";
    let sink = TraceSink::bounded(TRACE_CAP);
    let (report, stats) = run_training_cluster_traced(&planner, dataset, gbs, run, cfg, &sink);
    let mut trace = sink.finish();
    trace.meta = stats.trace_meta(&format!("fig09 {label}"));
    println!(
        "\n  traced cell {label} — {hosts} executor hosts, {ITERS} iteration(s): {} spans, \
         {} Sim spans",
        trace.spans.len(),
        trace.counters.sim_spans
    );
    serial
        .behavior_eq(&report)
        .map_err(|d| format!("diverged from serial: {d}"))?;
    trace.validate().map_err(|e| format!("validation: {e}"))?;
    trace
        .reconcile()
        .map_err(|e| format!("reconciliation: {e}"))?;
    Ok(trace)
}

#[derive(Serialize)]
struct Artifact {
    dc_hosts_per_rack: usize,
    dc_oversubscription: f64,
    /// The sweep, per-host lists capped, without its [`HOST_TIMED`]
    /// fields: a function of seed and config.
    datacenter: Vec<Value>,
    host_timed: HostTimed,
}

/// Everything in the artifact that follows host timing.
#[derive(Serialize)]
struct HostTimed {
    /// Σ mean blob bytes per codec over the sweep's undisturbed cells.
    blob_bytes: Vec<(&'static str, f64)>,
    /// Each datacenter cell's [`HOST_TIMED`] fields, in sweep order, under
    /// its `cell` label.
    cells: Vec<Value>,
}

/// The artifact's view of the sweep: points truncated to
/// [`DC_HOST_JSON_CAP`] hosts with each cell's [`HOST_TIMED`] fields
/// moved out, and those fields per cell.
fn split_host_timed(datacenter: &[DatacenterPoint]) -> (Vec<Value>, Vec<Value>) {
    let mut timed = Vec::new();
    let points = datacenter
        .iter()
        .map(|p| {
            let mut point = serde_json::to_value(&p.truncated());
            let Value::Array(cells) = entry(&mut point, "cells", || Value::Null) else {
                panic!("a datacenter point's cells are not a list");
            };
            for (cell, c) in cells.iter_mut().zip(&p.cells) {
                let churn = if c.churned { "+loss" } else { "" };
                let (placement, codec) = (&c.stats.placement, &c.stats.codec);
                let label = format!("{}h {placement}/{codec}{churn}", p.hosts);
                let mut out = Value::Object(vec![("cell".into(), Value::Str(label))]);
                for path in HOST_TIMED {
                    move_field(cell, &mut out, &path.split('.').collect::<Vec<_>>());
                }
                timed.push(out);
            }
            point
        })
        .collect();
    (points, timed)
}

fn main() {
    let dataset = Dataset::flanv2(SEED, 6000);
    println!(
        "fig09 cluster — GPT 3.35B pp2, dp = executor hosts, racks of {DC_HOSTS_PER_RACK}, \
         {DC_OVERSUBSCRIPTION}x oversubscribed cross-rack, {} thread(s)\n",
        rayon::current_num_threads()
    );
    println!(
        "  {:>5} {:>8} {:>7} {:>6} | {:>9} {:>13} {:>13}",
        "hosts", "store", "codec", "churn", "blob (KB)", "max link (KB)", "fetched (KB)"
    );
    let datacenter = run_datacenter(&dataset);
    for p in &datacenter {
        for c in &p.cells {
            println!(
                "  {:>5} {:>8} {:>7} {:>6} | {:>9.1} {:>13.1} {:>13.1}",
                p.hosts,
                c.stats.placement,
                c.stats.codec,
                if c.churned { "loss" } else { "-" },
                c.stats.mean_blob_bytes / 1e3,
                c.stats.max_link_bytes as f64 / 1e3,
                c.bytes_fetched as f64 / 1e3,
            );
        }
    }

    let mut failures = Vec::new();
    match run_traced_cell(&dataset) {
        Ok(trace) => {
            write_json("TRACE_cluster", &trace);
            match std::fs::write("results/TRACE_cluster_chrome.json", to_chrome_trace(&trace)) {
                Ok(()) => println!(
                    "  -> results/TRACE_cluster_chrome.json (load in Perfetto or chrome://tracing)"
                ),
                Err(e) => failures.push(format!("chrome trace not written: {e}")),
            }
        }
        Err(e) => failures.push(format!("traced cell not exported: {e}")),
    }

    // Gate 1: the golden invariant over every cell, churned included.
    for p in &datacenter {
        if !p.serial_feasible {
            failures.push(format!(
                "datacenter {}h serial oracle is infeasible — the sweep proved nothing",
                p.hosts
            ));
        }
        for c in &p.cells {
            if let Some(d) = &c.divergence {
                let churn = if c.churned { " (churned)" } else { "" };
                let (placement, codec) = (&c.stats.placement, &c.stats.codec);
                failures.push(format!(
                    "datacenter {}h {placement}/{codec}{churn} diverged from serial: {d}",
                    p.hosts
                ));
            }
        }
    }

    // Gates 2 and 3, the codec A/B, on in-run blob sizes. Binary and flat
    // blob bytes are exact; a JSON blob's length moves by a few bytes with
    // the host-timed `planning_time_us` digits it carries, far inside the
    // 2x margin.
    let blob_bytes = PlanCodec::ALL.map(|codec| {
        let cells = datacenter.iter().flat_map(|p| &p.cells);
        let mine = cells.filter(|c| !c.churned && c.stats.codec == codec.label());
        (
            codec.label(),
            mine.map(|c| c.stats.mean_blob_bytes).sum::<f64>(),
        )
    });
    let [(_, json), (_, binary), (_, flat)] = blob_bytes;
    println!(
        "\n  codec A/B/C: binary blobs at {:.1}% of JSON bytes, flat at {:.1}% of binary",
        100.0 * binary / json.max(1.0),
        100.0 * flat / binary.max(1.0),
    );
    if binary * 2.0 > json {
        failures.push(format!(
            "binary blobs ({binary} B mean total) exceed half the JSON blobs ({json} B) — \
             the binary codec stopped earning its keep"
        ));
    }
    if flat > 1.25 * binary {
        failures.push(format!(
            "flat blobs ({flat} B mean total) exceed 1.25x the binary blobs ({binary} B) — \
             the fixed-width arena is bloating the wire"
        ));
    }

    // Gate 4, fan-out at the largest topology. The single store host's
    // downlink carries every byte the other executor hosts fetch (its
    // own replicas read local copies, uncounted).
    if let Some(p) = datacenter.last() {
        for codec in PlanCodec::ALL.map(|c| c.label()) {
            let cell = |placement: &str| {
                let mut cells = p.cells.iter();
                cells.find(|c| {
                    !c.churned && c.stats.placement == placement && c.stats.codec == codec
                })
            };
            match (cell("single"), cell("sharded")) {
                (Some(single), Some(sharded)) => {
                    let (busiest, downlink) = (sharded.stats.max_link_bytes, single.bytes_fetched);
                    if busiest >= downlink {
                        failures.push(format!(
                            "datacenter {}h/{codec}: sharded busiest link carries {busiest} B, \
                             not strictly below the single store host's {downlink} B downlink \
                             — sharding stopped spreading the plan stream",
                            p.hosts
                        ));
                    }
                }
                _ => failures.push(format!(
                    "datacenter {}h/{codec}: missing a placement cell for the fan-out gate",
                    p.hosts
                )),
            }
        }
    }

    let (points, cells) = split_host_timed(&datacenter);
    write_json(
        "fig09_cluster",
        &Artifact {
            dc_hosts_per_rack: DC_HOSTS_PER_RACK,
            dc_oversubscription: DC_OVERSUBSCRIPTION,
            datacenter: points,
            host_timed: HostTimed {
                blob_bytes: blob_bytes.to_vec(),
                cells,
            },
        },
    );
    for f in &failures {
        eprintln!("error: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
