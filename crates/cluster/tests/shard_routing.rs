//! Property tests for store-shard routing ([`dynapipe_cluster::shard`])
//! plus a small end-to-end check that the runtime's per-shard counters
//! follow the same arithmetic across both placements and all three wire
//! codecs (each cell also runs the shared checks of `common/mod.rs`).
//!
//! The properties the datacenter sweep leans on:
//!
//! * every iteration maps to **exactly one** shard, and that shard's
//!   owner is always a real executor host — under any placement, any
//!   host count, before and after any legal loss sequence;
//! * an executor-host loss re-owns **only** the lost host's shards:
//!   surviving assignments are bit-stable, which is what bounds churn
//!   recovery to the dead host's share of the store.

mod common;

use common::Cell;
use dynapipe_cluster::{ClusterConfig, ShardMap, StorePlacement};
use proptest::prelude::*;

const PLACEMENTS: [StorePlacement; 2] = [StorePlacement::Single, StorePlacement::Sharded];

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn every_iteration_maps_to_exactly_one_owned_shard(
        hosts in 1usize..12,
        iterations in 1usize..200,
    ) {
        for placement in PLACEMENTS {
            let map = ShardMap::new(placement, hosts);
            prop_assert!(map.num_shards() >= 1);
            for it in 0..iterations {
                let s = map.shard_of(it);
                prop_assert!(s < map.num_shards(), "shard index in range");
                // Routing is a pure function of the iteration.
                prop_assert_eq!(s, map.shard_of(it));
                let owner = map.owner(s);
                prop_assert!(owner < hosts, "owner must be a real executor host");
                prop_assert_eq!(map.host_of(it), owner);
            }
        }
    }

    #[test]
    fn loss_reowns_only_the_lost_hosts_shards(
        hosts in 2usize..12,
        losses in proptest::collection::vec(0usize..12, 1..6),
    ) {
        for placement in PLACEMENTS {
            let mut map = ShardMap::new(placement, hosts);
            let mut alive: Vec<bool> = vec![true; hosts];
            for lost in losses.iter().copied() {
                let survivors: Vec<usize> = (0..hosts)
                    .filter(|&h| h != lost && alive[h])
                    .collect();
                // Mirror the runtime's guard: dead/unknown hosts and
                // last-survivor losses are ignored, and under the
                // single placement host 0 never dies.
                let store_protected = placement == StorePlacement::Single && lost == 0;
                if store_protected || lost >= hosts || !alive[lost] || survivors.is_empty() {
                    continue;
                }
                alive[lost] = false;
                let before = map.owners().to_vec();
                let lost_count = before.iter().filter(|&&o| o == lost).count();
                let moved = map.reassign_lost(lost, &survivors);
                prop_assert!(
                    moved == lost_count,
                    "every lost shard moves, nothing else: {} vs {}",
                    moved,
                    lost_count
                );
                for (s, (&was, &now)) in
                    before.iter().zip(map.owners().iter()).enumerate()
                {
                    if was == lost {
                        prop_assert!(
                            survivors.contains(&now),
                            "shard {} must land on a survivor, got {}",
                            s,
                            now
                        );
                    } else {
                        prop_assert!(was == now, "surviving assignment {} moved", s);
                    }
                }
                // Invariant after any legal loss: every iteration still
                // routes to exactly one live owner.
                for it in 0..32 {
                    prop_assert!(alive[map.host_of(it)], "iteration routed to a dead host");
                }
            }
        }
    }
}

/// Both placements × every codec on one 2-executor topology.
fn placement_cells() -> Vec<Cell> {
    let cells = PLACEMENTS.map(|placement| {
        let config = ClusterConfig {
            placement,
            ..common::topology(1, 1, 2, 2)
        };
        common::cluster_per_codec(placement.label(), config)
    });
    cells.into_iter().flatten().collect()
}

#[test]
fn matrix_covers_every_codec_and_keeps_its_cell_count() {
    common::assert_codec_coverage(&placement_cells(), 6);
}

/// End-to-end: the runtime's per-shard counters follow the pure routing
/// arithmetic — `blobs_stored` per shard is exactly the count of
/// executed iterations `i` with `i % num_shards == shard` — across both
/// placements and all three codecs (routing must be codec-blind).
#[test]
fn runtime_shard_counters_follow_the_routing_arithmetic() {
    let sc = common::scenario(2, (373, 600), 32768, common::run(4)).clean();
    for out in sc.assert_cells(&placement_cells()) {
        let (stats, label) = (out.cluster(), &out.name);
        let mut placement = PLACEMENTS.into_iter();
        let placement = placement.find(|p| p.label() == stats.placement);
        let expect = ShardMap::new(placement.expect("a matrix placement"), 2);
        assert_eq!(stats.shards.len(), expect.num_shards(), "{label}");
        for (s, stat) in stats.shards.iter().enumerate() {
            let routed = (0..stats.iterations).filter(|&i| expect.shard_of(i) == s);
            let (stored, routed) = (stat.blobs_stored as usize, routed.count());
            assert_eq!(
                stored, routed,
                "{label}: shard {s} stores its routed iterations"
            );
            assert_eq!(stat.owner, expect.owner(s), "{label}: undisturbed owner");
        }
    }
}
