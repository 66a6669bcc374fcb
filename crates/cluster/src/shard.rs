//! Deterministic shard ownership of the instruction store across
//! executor hosts.
//!
//! The paper parks the store (Redis) on one training host; at O(100)
//! executor hosts that host's egress becomes the bottleneck — every
//! fetch of every iteration's blob crosses its links. The sharded
//! placement spreads ownership instead: shard `s` of `N = executor
//! hosts` starts on host `s`, iteration `i`'s blob lives on shard
//! `i % N`, so pushes and fetches fan out across the fabric and no
//! single host carries the whole plan stream. (This is host-level
//! *ownership*; both placements share the one in-process
//! `dynapipe_core::store`.)
//!
//! Routing is **deterministic and snapshot-based**: the prefetcher — the
//! one thread that applies churn events in iteration order — resolves
//! each iteration's owning host *when it claims that iteration*, the
//! same discipline replica placement uses. Losing an executor host
//! re-owns **only** the lost host's shards (surviving assignments are
//! stable), round-robin onto the survivors; blobs already in flight to
//! the dead owner are restored from a surviving peer and counted as
//! churn recovery, never as behavior. Ownership is part of the
//! *scenario*: whatever the placement says, the blob still travels
//! through the same in-process [`dynapipe_core::store::InstructionStore`],
//! so `RunReport::behavior_eq` carries over by construction.

use serde::Serialize;

/// Where the instruction store lives in the simulated deployment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub enum StorePlacement {
    /// The paper's deployment: one store, colocated with executor
    /// host 0. Host 0 fetches for free; everyone else crosses its
    /// links. Host 0 is protected from scripted loss (losing the store
    /// is fail-stop, not churn).
    #[default]
    Single,
    /// One shard per executor host; iteration `i`'s blob is owned by
    /// `shard_of(i)`'s host. Any host may be lost (as long as one
    /// survives): its shards re-own onto survivors and in-flight blobs
    /// are restored from a surviving peer.
    Sharded,
}

impl StorePlacement {
    /// Label for reports: `"single"` / `"sharded"`.
    pub fn label(&self) -> &'static str {
        match self {
            StorePlacement::Single => "single",
            StorePlacement::Sharded => "sharded",
        }
    }
}

/// Which executor host owns each store shard.
///
/// `Single` degenerates to one shard owned by host 0; `Sharded` starts
/// with shard `s` on host `s`. [`ShardMap::reassign_lost`] is the only
/// mutation and touches only the lost host's shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    owners: Vec<usize>,
}

impl ShardMap {
    /// The initial ownership for a placement over `executor_hosts`
    /// hosts.
    pub fn new(placement: StorePlacement, executor_hosts: usize) -> Self {
        let owners = match placement {
            StorePlacement::Single => vec![0],
            StorePlacement::Sharded => (0..executor_hosts.max(1)).collect(),
        };
        ShardMap { owners }
    }

    /// Number of shards (1 for `Single`, the executor-host count for
    /// `Sharded`). Fixed for the life of a run.
    pub fn num_shards(&self) -> usize {
        self.owners.len()
    }

    /// Which shard iteration `i`'s blob lives on. Pure arithmetic —
    /// never affected by churn.
    pub fn shard_of(&self, iteration: usize) -> usize {
        iteration % self.owners.len()
    }

    /// Which host currently owns `shard`.
    pub fn owner(&self, shard: usize) -> usize {
        self.owners[shard]
    }

    /// Which host currently serves iteration `i`'s blob.
    pub fn host_of(&self, iteration: usize) -> usize {
        self.owner(self.shard_of(iteration))
    }

    /// Current ownership table, indexed by shard.
    pub fn owners(&self) -> &[usize] {
        &self.owners
    }

    /// Re-own the shards of a lost host round-robin onto `survivors`
    /// (which must be non-empty and exclude `lost`). Surviving hosts'
    /// shards are untouched — assignment stability is what keeps
    /// recovery bounded to the lost host's share. Returns how many
    /// shards moved.
    pub fn reassign_lost(&mut self, lost: usize, survivors: &[usize]) -> usize {
        debug_assert!(!survivors.is_empty(), "reassign_lost needs a survivor");
        debug_assert!(!survivors.contains(&lost), "lost host cannot survive");
        let mut moved = 0;
        for owner in self.owners.iter_mut() {
            if *owner == lost {
                *owner = survivors[moved % survivors.len()];
                moved += 1;
            }
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placements_shape_the_map() {
        let single = ShardMap::new(StorePlacement::Single, 8);
        assert_eq!(single.num_shards(), 1);
        assert_eq!(single.host_of(0), 0);
        assert_eq!(single.host_of(12345), 0);
        assert_eq!(StorePlacement::Single.label(), "single");

        let sharded = ShardMap::new(StorePlacement::Sharded, 4);
        assert_eq!(sharded.num_shards(), 4);
        assert_eq!(sharded.owners(), &[0, 1, 2, 3]);
        assert_eq!(sharded.shard_of(6), 2);
        assert_eq!(sharded.host_of(6), 2);
        assert_eq!(StorePlacement::Sharded.label(), "sharded");
    }

    #[test]
    fn reassign_moves_only_the_lost_hosts_shards() {
        // 6 shards over 3 hosts? No — one shard per host by
        // construction; exercise the round-robin by losing twice.
        let mut m = ShardMap::new(StorePlacement::Sharded, 4);
        assert_eq!(m.reassign_lost(1, &[0, 2, 3]), 1);
        assert_eq!(m.owners(), &[0, 0, 2, 3], "survivors untouched");
        assert_eq!(m.reassign_lost(0, &[2, 3]), 2);
        assert_eq!(m.owners(), &[2, 3, 2, 3], "round-robin over survivors");
        assert_eq!(m.reassign_lost(3, &[2]), 2);
        assert_eq!(m.owners(), &[2, 2, 2, 2]);
        // Routing arithmetic is untouched by ownership churn.
        assert_eq!(m.shard_of(7), 3);
        assert_eq!(m.host_of(7), 2);
    }
}
