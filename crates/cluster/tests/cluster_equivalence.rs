//! The cluster layer's differential harness: **every simulated topology
//! is bit-identical to the serial driver**. Hosts, links and codecs may
//! move time around — they must never move a single bit of behavior
//! (records, totals, failure placement; floats compared by bit pattern
//! via `RunReport::behavior_eq`).
//!
//! The matrix crosses topology shape (single-host, multi-planner,
//! multi-executor), wire codec (JSON / binary / flat), store placement
//! (single vs sharded), fabric (free, uniform, slow, rack-structured),
//! jitter, dp>1, baselines, and a failure-mid-epoch run whose
//! speculative blobs must be swept. Every cell also pins the wire-byte
//! rule (see `report.rs`) and the Sim timeline of the in-process run;
//! the shared checks live in `common/mod.rs`.

mod common;

use common::{cluster_per_codec, topology, Cell, Scenario};
use dynapipe_cluster::{ClusterConfig, ClusterReport, StorePlacement};
use dynapipe_core::{PlanCodec, RunConfig};
use dynapipe_data::Dataset;
use dynapipe_model::HardwareModel;
use dynapipe_sim::{Fabric, JitterConfig, LinkModel};

/// The topology × codec × placement × fabric matrix every scenario runs
/// through.
fn matrix() -> Vec<Cell> {
    // 10 bytes/µs: a 300 KB blob costs ~30 ms.
    let slow = LinkModel::new(500.0, 10.0).expect("slow link model is valid");
    let configs = [
        // Degenerate single host, free links: the plain store-backed
        // runtime's deployment.
        ClusterConfig {
            fabric: Fabric::free(),
            ..topology(1, 1, 1, 2)
        },
        // Multi-planner, multi-executor over the default (a100
        // inter-node) uniform fabric.
        topology(2, 2, 2, 3),
        // A link slow enough that wire time dominates: exposure may be
        // large, behavior must not budge. (Window 3: a worker becomes
        // eligible to claim speculatively well before a failure can
        // cancel the pool — the failure test relies on it.)
        ClusterConfig {
            fabric: Fabric::uniform(slow).expect("slow fabric is valid"),
            ..topology(3, 1, 2, 3)
        },
        // Sharded store on a rack-structured fabric: pushes and fetches
        // fan out across shard owners, cross-rack hops oversubscribed.
        ClusterConfig {
            placement: StorePlacement::Sharded,
            fabric: ClusterConfig::datacenter_fabric(&HardwareModel::a100_cluster(), 2, 4.0),
            ..topology(2, 1, 2, 3)
        },
    ];
    let name = |c: &ClusterConfig| format!("{}/{}", c.label(), c.placement.label());
    configs
        .into_iter()
        .flat_map(|c| cluster_per_codec(&name(&c), c))
        .collect()
}

/// Free links against a crawling network (one full second per hop).
fn slow_link_cells() -> Vec<Cell> {
    let base = ClusterConfig {
        codec: PlanCodec::Binary,
        fabric: Fabric::free(),
        ..topology(2, 1, 1, 2)
    };
    let crawl = LinkModel::new(1e6, 1.0).expect("crawl link is valid");
    let slow = ClusterConfig {
        fabric: Fabric::uniform(crawl).expect("crawl fabric is valid"),
        ..base.clone()
    };
    vec![Cell::cluster("fast", base), Cell::cluster("slow", slow)]
}

fn zero_cap_cell() -> Cell {
    Cell::cluster("default", ClusterConfig::default())
}

/// One topology, JSON then binary.
fn json_binary_cells() -> Vec<Cell> {
    let config = |codec| ClusterConfig {
        codec,
        ..topology(1, 2, 1, 2)
    };
    let json = Cell::cluster("json", config(PlanCodec::Json));
    vec![json, Cell::cluster("binary", config(PlanCodec::Binary))]
}

#[test]
fn matrix_covers_every_codec_and_keeps_its_cell_count() {
    // Four scenarios run the matrix; three tests run their own cells.
    let mut cells: Vec<Cell> = (0..4).flat_map(|_| matrix()).collect();
    cells.extend(slow_link_cells());
    cells.push(zero_cap_cell());
    cells.extend(json_binary_cells());
    common::assert_codec_coverage(&cells, 53);
}

#[test]
fn jittered_runs_are_bit_identical_across_topologies() {
    let run = RunConfig {
        jitter: Some(JitterConfig {
            sigma: 0.08,
            seed: 0xC10C,
        }),
        ..common::run(3)
    };
    let sc = common::scenario(1, (211, 500), 16384, run).clean();
    for out in sc.assert_cells(&matrix()) {
        let r = out.cluster();
        assert_eq!(r.iterations, 3);
        // Every planner host's production reconciles with the store
        // counters; every executed iteration crossed the wire.
        let produced: usize = r.planner_hosts.iter().map(|h| h.plans_produced).sum();
        assert_eq!(produced, 3, "{}: all plans accounted to a host", out.name);
        assert_eq!(r.store.pushes, 3);
        assert_eq!(r.store.takes, 3);
        assert!(r.mean_blob_bytes > 0.0);
        assert!((0.0..=1.0).contains(&r.overlap_ratio), "{}", out.name);
        for eh in &r.executor_hosts {
            assert!((0.0..=1.0).contains(&eh.overlap_ratio));
        }
    }
}

#[test]
fn data_parallel_replicas_split_across_executor_hosts() {
    let run = RunConfig {
        jitter: None,
        ..common::run(3)
    };
    let sc = common::scenario(2, (223, 600), 32768, run).clean();
    // In the 2-executor topologies, replica 0 runs on host 0 and
    // replica 1 on host 1. Under the single placement only host 1 pays
    // fetch wire bytes (host 0 is colocated with the store); under the
    // sharded placement ownership alternates per iteration, so *both*
    // hosts fetch remotely for the iterations they don't own.
    for out in sc.assert_cells(&matrix()) {
        let (hosts, name) = (&out.cluster().executor_hosts, &out.name);
        if hosts.len() != 2 {
            continue;
        }
        assert_eq!(hosts[0].replicas, vec![0]);
        assert_eq!(hosts[1].replicas, vec![1]);
        // Under sharding, host 0 fetches the iterations shard 1 owns.
        let host0_remote = out.cluster().placement != "single";
        assert_eq!(hosts[0].bytes_fetched > 0, host0_remote, "{name}");
        assert!(hosts[1].bytes_fetched > 0, "{name}");
        assert!(hosts[0].busy_us > 0.0);
        assert!(hosts[1].busy_us > 0.0);
    }
}

#[test]
fn slow_links_expose_wire_time_without_changing_behavior() {
    // A/B on the same workload: free links vs a crawling network. The
    // behavior is pinned by the shared checks; here the timeline must
    // *respond* to the link model — bytes genuinely cost time.
    let sc = common::scenario(1, (227, 500), 16384, common::run(3));
    let outs = sc.assert_cells(&slow_link_cells());
    let (fast, slow) = (outs[0].cluster(), outs[1].cluster());
    assert_eq!(fast.total_wire_us, 0.0, "local links are free");
    let wire = slow.total_wire_us;
    assert!(wire > 1e6, "slow links must accumulate wire time: {wire}");
    // Wire latency appears on the training timeline, and a second of
    // latency per blob cannot be fully hidden.
    assert!(slow.cluster_wall_us > fast.cluster_wall_us);
    assert!(slow.exposed_us > fast.exposed_us);
    // Wire time is attributed to the shard that carried the blob (one
    // shard here — single placement), on both sides of the store.
    let shard_wire = |r: &ClusterReport| -> f64 {
        let per_shard = r.shards.iter().map(|s| s.push_wire_us + s.fetch_wire_us);
        per_shard.sum()
    };
    let wire = shard_wire(slow);
    assert!(
        wire > 1e6,
        "shard wire attribution must see the slow hops: {wire}"
    );
    assert_eq!(shard_wire(fast), 0.0, "free fabric: no shard wire time");
}

#[test]
fn baseline_planners_run_on_the_cluster_too() {
    let (dataset, gbs, run) = (
        Dataset::flanv2(229, 400),
        common::gbs(16384),
        common::run(2),
    );
    let sc = Scenario::new(common::packing(), dataset, gbs, run);
    sc.assert_cells(&matrix());
}

#[test]
fn failure_mid_epoch_stops_every_topology_at_the_same_iteration() {
    // Planning fails a few iterations in; each topology must stop with
    // exactly the serial failure and sweep its speculative blobs (every
    // push taken or discarded: a shared check).
    let sc = common::monster(1);
    for out in sc.assert_cells(&matrix()) {
        let r = out.cluster();
        assert_eq!(r.iterations, sc.serial.records.len(), "{}", out.name);
        // The failing iteration's blob always lands (the failure is
        // encoded and pushed like any plan), so pushes strictly exceed
        // the executed records. Additional speculative pushes depend on
        // whether other workers finished their claims before teardown —
        // pure scheduling, not asserted (the old `>= iterations + 2`
        // form was flaky for exactly that reason).
        let (pushes, records) = (r.store.pushes as usize, r.iterations);
        assert!(pushes > records, "{}: failure blob not pushed", out.name);
    }
}

#[test]
fn zero_iteration_cap_produces_empty_report() {
    let sc = common::scenario(1, (233, 200), 16384, common::run(0));
    let out = sc.assert_cell(&zero_cap_cell());
    assert!(out.report.records.is_empty());
    assert_eq!(out.cluster().iterations, 0);
    assert_eq!(out.cluster().cluster_wall_us, 0.0);
}

#[test]
fn binary_codec_shrinks_the_wire_on_identical_behavior() {
    // Same topology, both codecs: identical RunReports, but the binary
    // wire must carry at most half the bytes — the acceptance bar the
    // fig09 bench enforces on the full workload.
    let sc = common::scenario(1, (239, 500), 16384, common::run(2));
    let outs = sc.assert_cells(&json_binary_cells());
    outs[0].report.behavior_eq(&outs[1].report).unwrap();
    let (json, binary) = (outs[0].cluster(), outs[1].cluster());
    assert!(json.mean_blob_bytes > 0.0 && binary.mean_blob_bytes > 0.0);
    let (binary, json) = (binary.mean_blob_bytes, json.mean_blob_bytes);
    assert!(
        binary * 2.0 <= json,
        "binary {binary} B over half of JSON {json} B"
    );
}
