//! Per-host rollups of a cluster run — the data behind
//! `fig09_cluster`'s artifact and gates.
//!
//! # The wire-byte rule
//!
//! A byte counts as a **wire byte** only when it crosses a non-local
//! fabric hop — i.e. the two endpoints are different hosts. A host
//! colocated with the shard that owns an iteration's blob reads it out
//! of host memory: that copy appears in *no* wire counter — not in
//! `ExecutorHostStats::bytes_fetched`, not in
//! [`ClusterReport::flat_wire_bytes`], not in
//! [`ClusterReport::wire_bytes`]. (An earlier revision counted the
//! store-colocated host's local copy in `flat_wire_bytes` but not in
//! `bytes_fetched`, so the two could never reconcile; the rule above is
//! now pinned by a reconciliation assert in
//! `tests/cluster_equivalence.rs`: on the flat codec,
//! `flat_wire_bytes == Σ bytes_fetched`, and it is zero on the tree
//! codecs.) Decode time is *not* a wire quantity: every host with a
//! replica decodes its own copy, local or not, so `decode_us` counts
//! all of them.

use dynapipe_core::StoreStats;
use serde::Serialize;

/// What one planner host contributed.
#[derive(Debug, Clone, Default, Serialize)]
pub struct PlannerHostStats {
    /// Host index in the planner pool.
    pub host: usize,
    /// Planner workers on this host.
    pub workers: usize,
    /// Iterations this host planned (claimed and completed).
    pub plans_produced: usize,
    /// Σ planning time on this host (µs, real).
    pub plan_us: f64,
    /// Σ lowering time on this host (µs, real).
    pub lower_us: f64,
    /// Σ encode + store-push time on this host (µs, real).
    pub serialize_us: f64,
    /// Wire bytes this host pushed into the store.
    pub bytes_pushed: u64,
    /// Simulated wire time of this host's pushes, including FIFO
    /// queueing on its uplink (µs).
    pub push_wire_us: f64,
}

/// What one executor host saw.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ExecutorHostStats {
    /// Host index among the executors.
    pub host: usize,
    /// Data-parallel replicas assigned to this host (round-robin).
    pub replicas: Vec<usize>,
    /// Wire bytes this host fetched from store shards on *other* hosts
    /// (local copies are free and uncounted — see the module docs' wire-
    /// byte rule; under the single placement host 0 therefore fetches
    /// zero).
    pub bytes_fetched: u64,
    /// Simulated wire time of this host's fetches, including FIFO
    /// queueing on its downlink (µs).
    pub fetch_wire_us: f64,
    /// Σ blob decode time on this host (µs, real; each host decodes its
    /// own copy).
    pub decode_us: f64,
    /// Σ plan-distribution latency this host had to wait out on the
    /// training timeline (µs): its plan was not yet decoded when the
    /// previous iteration's gradient sync finished.
    pub exposed_us: f64,
    /// Σ distribution-pipeline cost hidden behind execution on this
    /// host's timeline (µs).
    pub hidden_us: f64,
    /// hidden / (hidden + exposed-able cost), in [0, 1].
    pub overlap_ratio: f64,
    /// Σ simulated compute occupancy: this host's worst replica makespan
    /// per iteration (µs).
    pub busy_us: f64,
}

/// What one store shard carried. One entry per shard (a single entry
/// under [`crate::StorePlacement::Single`]); `fig09_cluster`'s datacenter arm
/// gates on the spread these counters reveal — no sharded link may
/// carry what the single store host's egress does.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ShardStats {
    /// Shard index (iteration `i` routes to shard `i % num_shards`).
    pub shard: usize,
    /// Executor host owning this shard at the last iteration routed to
    /// it (the initial owner if churn never moved it).
    pub owner: usize,
    /// Blobs pushed into this shard.
    pub blobs_stored: u64,
    /// Wire bytes planners pushed into this shard.
    pub bytes_pushed: u64,
    /// Wire bytes this shard served to *remote* fetching hosts (the
    /// owner's own replicas read local copies, uncounted — the wire-byte
    /// rule).
    pub bytes_served: u64,
    /// Simulated wire time of pushes into this shard, including FIFO
    /// queueing (µs).
    pub push_wire_us: f64,
    /// Simulated wire time of fetches out of this shard, including FIFO
    /// queueing and post-loss restore transfers (µs).
    pub fetch_wire_us: f64,
    /// Blobs restored from a surviving peer after this shard's owner was
    /// lost with the blob in flight.
    pub refetched_blobs: u64,
    /// Wire bytes those restores moved.
    pub refetch_bytes: u64,
}

/// Churn and recovery counters of one elastic run. Recovery must be
/// visible (counted) and bounded (the `fig09_cluster` churn arm gates
/// on overhead) — but never behavioral: whatever these counters say,
/// the paired `RunReport` is bit-identical to the undisturbed run's.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ChurnStats {
    /// Scripted events that took effect.
    pub events_applied: usize,
    /// Scripted events ignored as invalid (dead/unknown host, last
    /// survivor, store host).
    pub events_ignored: usize,
    /// Planner hosts crashed.
    pub planner_crashes: usize,
    /// Planner hosts joined.
    pub planner_joins: usize,
    /// Executor hosts lost.
    pub executor_losses: usize,
    /// Straggle delays injected.
    pub straggles: usize,
    /// Data-parallel replicas re-placed onto surviving executor hosts.
    pub replicas_moved: usize,
    /// Bounded executor waits that expired (each a re-issue attempt).
    pub deadline_expiries: u64,
    /// Queue tickets re-issued to a new claimant (deadline, crash,
    /// abandon).
    pub tickets_reissued: u64,
    /// Late duplicate completions discarded by the queue (first-wins).
    pub stale_completions: u64,
    /// Late duplicate blobs discarded at the store door
    /// (`push_discarding`).
    pub duplicate_blobs_discarded: u64,
    /// Store shards re-owned onto survivors after an executor-host loss
    /// (sharded placement only; surviving assignments are stable).
    pub shards_moved: usize,
    /// In-flight blobs restored from a surviving peer because their
    /// shard's owner died between push and fetch (sharded placement
    /// only; the plan-ahead window bounds how many can be in flight).
    pub blobs_refetched: u64,
    /// Wire bytes those restores moved across the fabric.
    pub refetch_bytes: u64,
}

/// The rollup of one cluster run. The paired
/// [`dynapipe_core::RunReport`] carries the training behavior (and must
/// be bit-identical to the serial driver's); this report carries where
/// the time and the bytes went.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ClusterReport {
    /// Topology label, e.g. `"2p×1w→2e"`.
    pub topology: String,
    /// Wire codec label (`"json"` / `"binary"` / `"flat"`).
    pub codec: String,
    /// Store placement label (`"single"` / `"sharded"`).
    pub placement: String,
    /// Fabric label (`"uniform"` / `"free"` / `"racks(N)"`).
    pub fabric: String,
    /// Plan-ahead window used.
    pub plan_ahead: usize,
    /// Iterations actually executed.
    pub iterations: usize,
    /// Per-planner-host breakdown.
    pub planner_hosts: Vec<PlannerHostStats>,
    /// Per-executor-host breakdown.
    pub executor_hosts: Vec<ExecutorHostStats>,
    /// Per-store-shard breakdown (one entry under the single placement).
    pub shards: Vec<ShardStats>,
    /// The busiest single directed host-pair link's total bytes — the
    /// number the datacenter sweep gates on: under the single placement
    /// the store host's links concentrate the whole plan stream, under
    /// the sharded placement no link should come close.
    pub max_link_bytes: u64,
    /// End of the cluster training timeline (µs): simulated execution
    /// plus whatever distribution latency could not be hidden.
    pub cluster_wall_us: f64,
    /// The serial driver's timeline for the same work (µs): every
    /// microsecond of planning, encode and decode exposed, no wire.
    pub serial_wall_us: f64,
    /// Σ simulated iteration time (µs).
    pub exec_sim_us: f64,
    /// Σ host-side pipeline cost: planning + lowering + serialize +
    /// decode (µs, real).
    pub total_planning_us: f64,
    /// Σ simulated wire time across all hops (µs).
    pub total_wire_us: f64,
    /// Σ cluster-level exposed distribution latency (µs): how much later
    /// each iteration's gradient sync finished than it would have with
    /// all plans instantly available.
    pub exposed_us: f64,
    /// Fraction of (pipeline cost + wire) hidden behind execution.
    pub overlap_ratio: f64,
    /// Total wire bytes (pushes + fetches).
    pub wire_bytes: u64,
    /// Bytes of one mean plan blob on this codec.
    pub mean_blob_bytes: f64,
    /// Σ blob decode time, one decode per fetching host (µs, real).
    /// Under the flat codec this is validate-and-wrap plus the small
    /// plan-metadata decode — the instruction records are never decoded.
    pub decode_us: f64,
    /// Wire bytes the executors ran zero-copy, straight over the fetched
    /// blob (flat codec only; zero under the tree codecs).
    pub flat_wire_bytes: u64,
    /// Σ encode + push time (µs, real).
    pub serialize_us: f64,
    /// Real host wall-clock of the whole run (µs).
    pub host_wall_us: f64,
    /// Final instruction-store counters (post-teardown: occupancy and
    /// bytes must be zero, peak ≤ window).
    pub store: StoreStats,
    /// Churn events applied and what recovery cost (all zeros for an
    /// undisturbed run).
    pub churn: ChurnStats,
}

impl ClusterReport {
    /// Hidden distribution time (µs): everything the timeline absorbed.
    pub fn hidden_us(&self) -> f64 {
        (self.total_planning_us + self.total_wire_us - self.exposed_us).max(0.0)
    }

    /// The counter ledger a trace of this run must reconcile against —
    /// see `dynapipe_trace::Trace::reconcile` for the exact checks
    /// (byte sums, span counts, bitwise exposed-µs ledgers).
    pub fn trace_meta(&self, label: &str) -> dynapipe_trace::TraceMeta {
        dynapipe_trace::TraceMeta {
            label: label.to_string(),
            topology: self.topology.clone(),
            codec: self.codec.clone(),
            placement: self.placement.clone(),
            iterations: self.iterations as u64,
            exec_sim_us: self.exec_sim_us,
            exposed_us: self.exposed_us,
            host_exposed_us: self.executor_hosts.iter().map(|h| h.exposed_us).collect(),
            wall_us: self.cluster_wall_us,
            bytes_pushed: self.planner_hosts.iter().map(|h| h.bytes_pushed).sum(),
            bytes_fetched: self.executor_hosts.iter().map(|h| h.bytes_fetched).sum(),
            flat_wire_bytes: self.flat_wire_bytes,
            refetch_bytes: self.churn.refetch_bytes,
            store_pushes: self.store.pushes,
            store_takes: self.store.takes,
            store_discarded: self.store.discarded,
            tickets_reissued: self.churn.tickets_reissued,
            stale_completions: self.churn.stale_completions,
            churn_applied: self.churn.events_applied as u64,
        }
    }
}
