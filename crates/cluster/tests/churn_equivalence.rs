//! The elastic layer's differential harness: **churn may cost
//! wall-clock time, never behavior**. Every scripted churn scenario —
//! planner-host crash, planner-host join, executor-host loss with
//! replica re-placement, straggler slowdown with deadline re-issue —
//! must produce a [`dynapipe_core::RunReport`] bit-identical
//! (`behavior_eq`) to the serial driver, the in-process run and the
//! undisturbed cluster twin, across every wire codec, with the
//! instruction store empty at the end and every push reconciled (taken
//! or discarded, never orphaned — re-issue duplicates included).
//! Recovery may add Host-domain spans (re-issues, restores, churn
//! actions), never move a simulated bit: each churned trace is `sim_eq`
//! to its twin's. Under the sharded store placement the matrix extends
//! to losing shard *owners* — including host 0, which only the single
//! placement protects — whose shards must re-own onto survivors
//! (surviving assignments stable) and whose in-flight blobs must be
//! restored from a surviving peer, all counted in
//! [`dynapipe_cluster::ChurnStats`] and never behavioral. The shared
//! checks live in `common/mod.rs`.

mod common;

use common::{cluster_per_codec, topology, Cell};
use dynapipe_cluster::{ChurnEvent, ChurnScript, StorePlacement};
use dynapipe_core::PlanCodec;
use std::time::Duration;
use ChurnEvent::{ExecutorLoss, PlannerCrash, PlannerJoin};

fn straggle(host: usize, delay_ms: u64) -> ChurnEvent {
    ChurnEvent::Straggle { host, delay_ms }
}

fn crash_cells() -> Vec<Cell> {
    // Crash host 1 as the executor turns to iteration 1: any ticket its
    // worker holds is re-issued to host 0, which carries the rest of the
    // epoch alone.
    let mut config = topology(2, 1, 1, 3);
    config.churn = ChurnScript::new().at(1, PlannerCrash { host: 1 });
    cluster_per_codec("crash", config)
}

fn last_planner_cell() -> Cell {
    let mut config = topology(1, 1, 1, 2);
    config.codec = PlanCodec::Binary;
    config.churn = ChurnScript::new().at(0, PlannerCrash { host: 0 });
    Cell::cluster("last-planner", config)
}

fn join_cells() -> Vec<Cell> {
    // A second planner host (2 workers) joins at iteration 1 and starts
    // claiming from the shared window immediately.
    let mut config = topology(1, 1, 1, 3);
    config.churn = ChurnScript::new().at(1, PlannerJoin { workers: 2 });
    cluster_per_codec("join", config)
}

fn loss_cells() -> Vec<Cell> {
    let mut config = topology(1, 2, 2, 3);
    config.churn = ChurnScript::new().at(1, ExecutorLoss { host: 1 });
    cluster_per_codec("loss", config)
}

fn store_host_cell() -> Cell {
    // Host 0 holds the store: losing it is fail-stop, not churn. Losing
    // host 1 twice: the second event hits a dead host.
    let mut config = topology(1, 1, 2, 2);
    config.codec = PlanCodec::Json;
    config.churn = ChurnScript::new()
        .at(0, ExecutorLoss { host: 0 })
        .at(0, ExecutorLoss { host: 1 })
        .at(1, ExecutorLoss { host: 1 });
    Cell::cluster("store-host", config)
}

fn shard_loss_cells() -> Vec<Cell> {
    let mut config = topology(1, 2, 3, 3);
    config.placement = StorePlacement::Sharded;
    config.churn = ChurnScript::new().at(1, ExecutorLoss { host: 1 });
    cluster_per_codec("shard-loss", config)
}

fn shard_host0_cell() -> Cell {
    let mut config = topology(1, 1, 2, 2);
    config.codec = PlanCodec::Binary;
    config.placement = StorePlacement::Sharded;
    config.churn = ChurnScript::new().at(1, ExecutorLoss { host: 0 });
    Cell::cluster("shard-host0", config)
}

/// Re-issue deadline of the straggler scenarios.
const DEADLINE: Option<Duration> = Some(Duration::from_millis(60));

fn straggle_cells() -> Vec<Cell> {
    // Host 1's next claim sleeps 1.5 s before planning; the executor's
    // 60 ms deadline detects the stall and re-issues the ticket to host
    // 0. Both attempts eventually complete: first wins, the duplicate
    // blob is discarded at the store door and the duplicate completion
    // discarded as stale.
    let mut config = topology(2, 1, 1, 2);
    config.churn = ChurnScript::new().at(0, straggle(1, 1500));
    config.reissue_deadline = DEADLINE;
    cluster_per_codec("straggle", config)
}

fn compound_cells() -> Vec<Cell> {
    let mut config = topology(2, 1, 1, 3);
    config.churn = ChurnScript::new()
        .at(1, straggle(1, 800))
        .at(2, PlannerCrash { host: 1 })
        .at(3, PlannerJoin { workers: 1 });
    config.reissue_deadline = DEADLINE;
    cluster_per_codec("compound", config)
}

/// A crash right before the failing iteration and an executor loss at it.
fn fail_rebalance_cells(fail_at: usize) -> Vec<Cell> {
    let mut config = topology(2, 2, 2, 3);
    config.churn = ChurnScript::new()
        .at(fail_at.saturating_sub(1), PlannerCrash { host: 0 })
        .at(fail_at, ExecutorLoss { host: 1 });
    cluster_per_codec("fail-rebalance", config)
}

#[test]
fn matrix_covers_every_codec_and_keeps_its_cell_count() {
    let singles = vec![last_planner_cell(), store_host_cell(), shard_host0_cell()];
    let cells = [
        crash_cells(),
        join_cells(),
        loss_cells(),
        shard_loss_cells(),
        straggle_cells(),
        compound_cells(),
        fail_rebalance_cells(1),
        singles,
    ];
    let cells: Vec<Cell> = cells.into_iter().flatten().collect();
    common::assert_codec_coverage(&cells, 24);
}

#[test]
fn planner_crash_recovers_bit_identically() {
    let sc = common::scenario(1, (311, 600), 16384, common::run(4)).clean();
    for out in sc.assert_cells(&crash_cells()) {
        let (stats, label) = (out.cluster(), &out.name);
        assert_eq!(stats.iterations, 4, "{label}: full epoch despite the crash");
        assert_eq!(stats.churn.planner_crashes, 1, "{label}");
        assert_eq!(stats.churn.events_applied, 1, "{label}");
        // Whoever planned what, every iteration is accounted to a host.
        let produced: usize = stats.planner_hosts.iter().map(|h| h.plans_produced).sum();
        let (discarded, pushes) = (stats.store.discarded, stats.store.pushes);
        assert_eq!(produced + discarded as usize, pushes as usize, "{label}");
    }
}

#[test]
fn crashing_the_last_planner_host_is_ignored_not_fatal() {
    // A cluster with zero planners is fail-stop territory, not churn:
    // the event must be counted as ignored and the run must proceed
    // undisturbed.
    let sc = common::scenario(1, (313, 400), 16384, common::run(2));
    let out = sc.assert_cell(&last_planner_cell());
    let stats = out.cluster();
    assert_eq!(stats.churn.events_applied, 0);
    assert_eq!(stats.churn.events_ignored, 1);
    assert_eq!(stats.iterations, 2);
}

#[test]
fn planner_join_rebalances_bit_identically() {
    let sc = common::scenario(1, (317, 600), 16384, common::run(4)).clean();
    for out in sc.assert_cells(&join_cells()) {
        let (stats, label) = (out.cluster(), &out.name);
        assert_eq!(stats.churn.planner_joins, 1, "{label}");
        // The roster grew: the joined host reports alongside the seed
        // host (whether it won any ticket is scheduling).
        assert_eq!(stats.planner_hosts.len(), 2, "{label}");
        assert_eq!(stats.planner_hosts[1].workers, 2, "{label}");
        let produced: usize = stats.planner_hosts.iter().map(|h| h.plans_produced).sum();
        assert_eq!(produced, 4, "{label}: all plans accounted");
    }
}

#[test]
fn executor_loss_replaces_replicas_bit_identically() {
    // dp=2 over two executor hosts; host 1 dies at iteration 1. Its
    // replica re-places onto host 0 (the store host), whose downlink is
    // local — subsequent iterations stop paying host 1's fetch wire.
    let sc = common::scenario(2, (331, 600), 32768, common::run(4)).clean();
    for out in sc.assert_cells(&loss_cells()) {
        let (stats, label) = (out.cluster(), &out.name);
        assert_eq!(stats.churn.executor_losses, 1, "{label}");
        assert_eq!(stats.churn.replicas_moved, 1, "{label}");
        // Replica 1 executed on host 1 (iteration 0) and then on host 0
        // (after the loss): both hosts saw it.
        let hosts = &stats.executor_hosts;
        assert!(
            hosts[0].replicas.contains(&1),
            "{label}: not re-placed on 0"
        );
        assert!(
            hosts[1].replicas.contains(&1),
            "{label}: host 1 ran it first"
        );
        // Host 1 fetched only the pre-loss iteration's blob; an
        // undisturbed twin fetches all four. (Loss at iteration 1 =
        // exactly one fetched blob, sized codec-dependently — compare
        // against the mean blob to stay codec-agnostic.)
        let dead_fetched = hosts[1].bytes_fetched as f64;
        assert!(
            dead_fetched < 2.0 * stats.mean_blob_bytes,
            "{label}: dead host fetched"
        );
    }
}

#[test]
fn losing_the_store_host_is_ignored_not_fatal() {
    let sc = common::scenario(2, (337, 500), 32768, common::run(2));
    let out = sc.assert_cell(&store_host_cell());
    let stats = out.cluster();
    assert_eq!(stats.churn.events_applied, 1, "only the first loss lands");
    assert_eq!(stats.churn.events_ignored, 2);
}

#[test]
fn sharded_owner_loss_reowns_shards_and_refetches_in_flight_blobs() {
    // dp=3 over three sharded executor hosts; host 1 dies at iteration
    // 1. Exactly its shard (shard 1) re-owns onto a survivor, the
    // in-flight blob of iteration 1 — already pushed toward the dead
    // owner — is restored from the surviving peer, and none of it may
    // move a bit of behavior.
    let sc = common::scenario(3, (359, 900), 49152, common::run(4)).clean();
    for out in sc.assert_cells(&shard_loss_cells()) {
        let (stats, label) = (out.cluster(), &out.name);
        let (c, shards) = (&stats.churn, &stats.shards);
        assert_eq!(c.executor_losses, 1, "{label}");
        assert_eq!(c.replicas_moved, 1, "{label}");
        // Only the dead owner's shard moved; survivors' shards stayed.
        assert_eq!(c.shards_moved, 1, "{label}");
        assert_eq!(shards.len(), 3, "{label}: one shard per host");
        assert_eq!(shards[0].owner, 0, "{label}: surviving shard 0 moved");
        assert_eq!(shards[2].owner, 2, "{label}: surviving shard 2 moved");
        assert_ne!(shards[1].owner, 1, "{label}: lost shard must re-own");
        // Iteration 1's blob was in flight to the dead owner: exactly
        // one restore from the surviving peer, sized like a blob. (The
        // per-shard sums agree with the ledger: a shared check.)
        assert_eq!(c.blobs_refetched, 1, "{label}");
        let bytes = c.refetch_bytes;
        let blob_sized = bytes > 0 && (bytes as f64) < 2.0 * stats.mean_blob_bytes;
        assert!(blob_sized, "{label}: one blob restored, got {bytes} bytes");
        assert_eq!(
            shards[1].refetched_blobs, 1,
            "{label}: moved shard restored"
        );
    }
}

#[test]
fn sharded_placement_survives_losing_host_zero() {
    // Under the single placement host 0 holds the whole store and its
    // loss is ignored as fail-stop; under the sharded placement host 0
    // owns just one shard and may die like anyone else.
    let sc = common::scenario(2, (367, 600), 32768, common::run(3)).clean();
    let out = sc.assert_cell(&shard_host0_cell());
    let stats = out.cluster();
    let c = &stats.churn;
    assert_eq!(c.events_applied, 1, "host 0 loss must land under sharding");
    assert_eq!(c.events_ignored, 0);
    assert_eq!(c.executor_losses, 1);
    // Host 0's shard re-owns onto host 1.
    assert_eq!(c.shards_moved, 1);
    assert_eq!(stats.shards[0].owner, 1);
    // Sole survivor: it already holds the replica, nothing to restore.
    assert_eq!(c.blobs_refetched, 0);
}

#[test]
fn straggler_reissue_recovers_bit_identically() {
    // Enough iterations that the straggling host is guaranteed to claim
    // a ticket after its delay is armed (the arm races the first claims,
    // but not five of them).
    let sc = common::scenario(1, (347, 1000), 16384, common::run(5)).clean();
    for out in sc.assert_cells(&straggle_cells()) {
        let (c, label) = (&out.cluster().churn, &out.name);
        assert_eq!(c.straggles, 1, "{label}");
        // The 60 ms deadline expires under a 1.5 s straggle, and the
        // stalled ticket re-issues.
        assert!(c.deadline_expiries >= 1, "{label}: no deadline expiry");
        assert!(c.tickets_reissued >= 1, "{label}: no re-issue");
        // Both attempts ran to completion: exactly one was accepted per
        // iteration, the loser's completion counted stale and its blob
        // discarded at the store — never double-completed, never
        // silently overwritten.
        assert!(c.stale_completions >= 1, "{label}: no stale completion");
        let duplicates = c.duplicate_blobs_discarded;
        assert!(duplicates >= 1, "{label}: no duplicate blob discarded");
        let discarded = out.cluster().store.discarded;
        assert_eq!(
            discarded, duplicates,
            "{label}: discards are the duplicates"
        );
    }
}

#[test]
fn compound_churn_still_pins_behavior() {
    // Everything at once: a straggle, a crash of the straggling host, a
    // join to replace it, under a live re-issue deadline — the stack of
    // recoveries must still be invisible in the RunReport.
    let sc = common::scenario(1, (353, 700), 16384, common::run(5)).clean();
    for out in sc.assert_cells(&compound_cells()) {
        let (c, label) = (&out.cluster().churn, &out.name);
        assert_eq!(out.cluster().iterations, 5, "{label}");
        assert_eq!(c.events_applied, 3, "{label}");
        let counts = (c.straggles, c.planner_crashes, c.planner_joins);
        assert_eq!(counts, (1, 1, 1), "{label}");
    }
}

#[test]
fn failure_mid_epoch_during_rebalance_sweeps_speculative_blobs() {
    // The monster-sample fixture fails planning a few iterations in,
    // *while* churn is rebalancing the pool. The run must stop at exactly
    // the serial failure, and teardown must still discard every
    // speculative blob — recovery machinery cannot leak.
    let sc = common::monster(2);
    let fail_at = sc.serial.records.len();
    for out in sc.assert_cells(&fail_rebalance_cells(fail_at)) {
        let (stats, label) = (out.cluster(), &out.name);
        assert_eq!(stats.iterations, fail_at, "{label}: not stopped at failure");
        assert!(stats.churn.events_applied >= 1, "{label}");
    }
}
