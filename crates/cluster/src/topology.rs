//! Cluster topology: where planners, store shards, and executors live,
//! and what the fabric between them costs.

use crate::churn::ChurnScript;
use crate::shard::StorePlacement;
use dynapipe_core::PlanCodec;
use dynapipe_model::HardwareModel;
use dynapipe_sim::{Fabric, LinkModel};
use std::time::Duration;

/// Placement and sizing of a simulated multi-host deployment (Fig. 9).
///
/// Hosts live in one **global index space** the [`Fabric`] prices
/// transfers over: executor hosts occupy `[0, executor_hosts)` and
/// planner hosts sit above them (`executor_host + planner_index`), so
/// rack boundaries fall wherever the fabric's `hosts_per_rack` puts
/// them, executors first.
///
/// Under [`StorePlacement::Single`] the instruction store is colocated
/// with **executor host 0** (the paper parks Redis in one training
/// machine's host memory), so that host's fetch hop is free while every
/// other hop — each planner host's push and each remaining executor
/// host's fetch — pays the fabric. Under [`StorePlacement::Sharded`]
/// each executor host owns one store shard and iteration `i`'s blob
/// routes to shard `i % executor_hosts` (see [`crate::shard`]).
/// Data-parallel replica `r` initially executes on host
/// `r % executor_hosts`; a scripted executor-host loss re-places its
/// replicas onto the survivors.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Planner machines (≥ 1), each running `workers_per_host` planner
    /// workers against the shared plan-ahead window. Scripted joins add
    /// hosts beyond this count at run time.
    pub planner_hosts: usize,
    /// Planner worker threads per planner host (≥ 1).
    pub workers_per_host: usize,
    /// Executor machines (≥ 1); clamped to the data-parallel degree at
    /// run time (a host with no replica would have nothing to execute).
    pub executor_hosts: usize,
    /// Bounded plan-ahead window shared by the whole planner pool, also
    /// the store's capacity (≥ 1).
    pub plan_ahead: usize,
    /// Wire codec for every plan blob on every hop. Defaults to
    /// [`PlanCodec::Flat`]: executor hosts run the fetched bytes in
    /// place and read only the blob's fixed-width summary of the plan.
    pub codec: PlanCodec,
    /// Host-pair α-β cost matrix for every hop. [`Fabric::free`]
    /// degenerates the topology to free transport (useful as an A/B
    /// control); [`Fabric::uniform`] reproduces the single-`LinkModel`
    /// configuration of earlier revisions; [`Fabric::datacenter`] adds
    /// rack locality and cross-rack oversubscription.
    pub fabric: Fabric,
    /// Where the instruction store lives: one host (the paper's
    /// deployment) or one shard per executor host.
    pub placement: StorePlacement,
    /// Scripted fault injection (empty = undisturbed run). Events are
    /// applied deterministically at iteration boundaries; see
    /// [`crate::churn`].
    pub churn: ChurnScript,
    /// How long the executor waits on one iteration's plan before
    /// suspecting its planner and re-issuing the ticket to a healthy
    /// worker. `None` (the default) waits unboundedly — straggler
    /// recovery off. First-completion-wins semantics make an
    /// aggressive deadline safe: a spurious re-issue wastes a replan
    /// but cannot change behavior or livelock the run.
    pub reissue_deadline: Option<Duration>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            planner_hosts: 1,
            workers_per_host: 1,
            executor_hosts: 1,
            plan_ahead: 4,
            codec: PlanCodec::default(),
            fabric: ClusterConfig::fabric_from_hardware(&HardwareModel::a100_cluster()),
            placement: StorePlacement::Single,
            churn: ChurnScript::new(),
            reissue_deadline: None,
        }
    }
}

impl ClusterConfig {
    /// The inter-host hop implied by a hardware model's inter-node
    /// network (the same α-β numbers the cost model charges for
    /// cross-node tensor traffic).
    pub fn link_from_hardware(hw: &HardwareModel) -> LinkModel {
        LinkModel::new(hw.inter_node_latency_us, hw.inter_node_bw)
            .expect("hardware inter-node numbers form a valid link model")
    }

    /// A uniform fabric over the hardware model's inter-node hop — every
    /// distinct-host pair costs the same, the flat-network assumption of
    /// earlier revisions.
    pub fn fabric_from_hardware(hw: &HardwareModel) -> Fabric {
        Fabric::uniform(Self::link_from_hardware(hw))
            .expect("hardware inter-node numbers form a valid link model")
    }

    /// A rack-structured fabric from a hardware model: same-rack pairs
    /// ride the intra-node numbers, cross-rack pairs the inter-node
    /// numbers divided by `oversubscription` — the oversubscribed
    /// fat-tree of a real datacenter.
    pub fn datacenter_fabric(
        hw: &HardwareModel,
        hosts_per_rack: usize,
        oversubscription: f64,
    ) -> Fabric {
        Fabric::datacenter(
            hosts_per_rack,
            LinkModel::new(hw.intra_node_latency_us, hw.intra_node_bw)
                .expect("hardware intra-node numbers form a valid link model"),
            LinkModel::new(hw.inter_node_latency_us, hw.inter_node_bw)
                .expect("hardware inter-node numbers form a valid link model"),
            oversubscription,
        )
        .expect("hardware rack fabric is valid")
    }

    /// Clamp every dimension to its minimum and the executor count to
    /// the data-parallel degree.
    pub fn normalized(self, dp: usize) -> Self {
        ClusterConfig {
            planner_hosts: self.planner_hosts.max(1),
            workers_per_host: self.workers_per_host.max(1),
            executor_hosts: self.executor_hosts.max(1).min(dp.max(1)),
            plan_ahead: self.plan_ahead.max(1),
            ..self
        }
    }

    /// Total planner workers across hosts.
    pub fn total_workers(&self) -> usize {
        self.planner_hosts * self.workers_per_host
    }

    /// Which executor host data-parallel replica `r` runs on.
    pub fn executor_host_of(&self, replica: usize) -> usize {
        replica % self.executor_hosts
    }

    /// Store shards under this config's placement (1 for `Single`, the
    /// executor-host count for `Sharded`).
    pub fn num_shards(&self) -> usize {
        match self.placement {
            StorePlacement::Single => 1,
            StorePlacement::Sharded => self.executor_hosts,
        }
    }

    /// Global fabric index of an executor host (executors fill the
    /// bottom of the host space, racks first).
    pub fn executor_global(&self, host: usize) -> usize {
        host
    }

    /// Global fabric index of a planner host (stacked above the
    /// executors; scripted joins extend upward).
    pub fn planner_global(&self, planner_host: usize) -> usize {
        self.executor_hosts + planner_host
    }

    /// Compact topology label for reports: `"2p×1w→2e"`.
    pub fn label(&self) -> String {
        format!(
            "{}p×{}w→{}e",
            self.planner_hosts, self.workers_per_host, self.executor_hosts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_clamps_and_assignment_round_robins() {
        let c = ClusterConfig {
            planner_hosts: 0,
            workers_per_host: 0,
            executor_hosts: 5,
            plan_ahead: 0,
            ..Default::default()
        }
        .normalized(2);
        assert_eq!(
            (
                c.planner_hosts,
                c.workers_per_host,
                c.executor_hosts,
                c.plan_ahead
            ),
            (1, 1, 2, 1)
        );
        assert_eq!(c.executor_host_of(0), 0);
        assert_eq!(c.executor_host_of(1), 1);
        assert_eq!(c.executor_host_of(2), 0);
        let c = ClusterConfig {
            planner_hosts: 2,
            workers_per_host: 3,
            ..Default::default()
        };
        assert_eq!(c.total_workers(), 6);
        assert_eq!(c.label(), "2p×3w→1e");
    }

    #[test]
    fn global_host_space_stacks_planners_above_executors() {
        let c = ClusterConfig {
            planner_hosts: 2,
            executor_hosts: 3,
            ..Default::default()
        };
        assert_eq!(c.executor_global(0), 0);
        assert_eq!(c.executor_global(2), 2);
        assert_eq!(c.planner_global(0), 3);
        assert_eq!(c.planner_global(1), 4);
        assert_eq!(c.num_shards(), 1, "single placement is one shard");
        let c = ClusterConfig {
            placement: StorePlacement::Sharded,
            executor_hosts: 3,
            ..Default::default()
        };
        assert_eq!(c.num_shards(), 3);
    }

    #[test]
    fn hardware_fabrics_are_valid_and_priced() {
        let hw = HardwareModel::a100_cluster();
        let flat = ClusterConfig::fabric_from_hardware(&hw);
        assert_eq!(flat.model(0, 1), ClusterConfig::link_from_hardware(&hw));
        let dc = ClusterConfig::datacenter_fabric(&hw, 4, 4.0);
        // In rack: intra-node numbers; across: oversubscribed inter.
        assert_eq!(dc.model(0, 1).bandwidth, hw.intra_node_bw);
        assert_eq!(dc.model(0, 4).bandwidth, hw.inter_node_bw / 4.0);
        assert!(dc.model(0, 4).transfer_us(1 << 20) > dc.model(0, 1).transfer_us(1 << 20));
    }
}
