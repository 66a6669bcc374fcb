//! The one differential harness behind the runtime equivalence suites.
//!
//! A [`Scenario`] is a planner, a dataset, a batch config and a run
//! config, plus two references computed once: the serial driver's
//! report and one traced in-process pipelined run. A [`Cell`] is a name
//! plus a [`Runtime`] config; the existing config structs are the
//! matrix axes. [`Scenario::assert_cell`] runs a cell traced and applies
//! every shared check, so a suite is its cell lists plus the
//! scenario-specific asserts on the returned [`Outcome`]s.
//!
//! Shared checks, on every cell:
//! * `behavior_eq` to the serial report and to the in-process reference
//!   (floats by bit pattern; wall-clock stats excluded);
//! * `validate` and `reconcile` on the cell's trace, and `sim_eq` to the
//!   reference trace: the Sim timeline is a pure function of the
//!   behavior-pinned results, whatever carried the plans;
//! * store hygiene: empty after teardown, `takes + discarded == pushes`,
//!   peak occupancy within the plan-ahead window;
//! * on cluster cells, the wire-byte rule (`report.rs`: a byte counts
//!   only when it crosses hosts) and the span-for-span ledger
//!   (`TRACING.md`) against the live `ClusterReport`.
//!
//! A churned cluster cell (scripted churn or a re-issue deadline) first
//! runs its undisturbed twin through the same checks; the churned run
//! must then match the twin's report and Sim timeline too.

// Each suite compiles this module on its own and uses only some helpers.
#![allow(dead_code)]

use dynapipe_cluster::{
    run_training_cluster_traced, ChurnScript, ClusterConfig, ClusterReport, ShardStats,
};
use dynapipe_core::{
    run_training, run_training_pipelined_traced, BaselineKind, BaselinePlanner, DynaPipePlanner,
    IterationPlanner, PlanCodec, PlanDistribution, PlannerConfig, RunConfig, RunReport,
    RuntimeConfig, RuntimeStats,
};
use dynapipe_cost::{CostModel, ProfileOptions};
use dynapipe_data::{Dataset, GlobalBatchConfig, Sample};
use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};
use dynapipe_trace::{sim_eq, SpanKind, Trace, TraceSink};
use std::sync::Arc;

/// Span-ring capacity: no cell may drop a span (a drop fails
/// `reconcile`, and should then mean an accounting bug, not a small
/// ring).
const TRACE_CAP: usize = 1 << 20;

/// GPT 3.35B at pp 2 on the a100 cluster, coarse profile.
pub fn cost_model(dp: usize) -> Arc<CostModel> {
    Arc::new(CostModel::build(
        HardwareModel::a100_cluster(),
        ModelConfig::gpt_3_35b(),
        ParallelConfig::new(dp, 1, 2),
        &ProfileOptions::coarse(),
    ))
}

pub fn dynapipe(dp: usize) -> DynaPipePlanner {
    DynaPipePlanner::new(cost_model(dp), PlannerConfig::default())
}

/// The packing baseline at dp 1.
pub fn packing() -> BaselinePlanner {
    BaselinePlanner::new(
        cost_model(1),
        BaselineKind::Packing {
            max_seq_len: 2048,
            max_target_len: 256,
            mb_size: 1,
        },
    )
}

pub fn gbs(tokens: usize) -> GlobalBatchConfig {
    GlobalBatchConfig {
        tokens_per_batch: tokens,
        max_seq_len: 2048,
    }
}

/// Default run config (default jitter) capped at `iterations`.
pub fn run(iterations: usize) -> RunConfig {
    RunConfig {
        max_iterations: Some(iterations),
        ..Default::default()
    }
}

/// The monster-sample fixture: a 2M-token sample lands alone in a
/// mini-batch a few iterations in, no recompute mode can fit it, so
/// planning fails mid-epoch. No truncation: the monster must reach the
/// planner at full length.
pub fn monster(dp: usize) -> Scenario {
    monster_with(dynapipe(dp))
}

/// The monster sample's id, which is also its dataset position.
pub const MONSTER_ID: u64 = 130;

/// [`monster`] under any planner.
pub fn monster_with(planner: impl IterationPlanner + 'static) -> Scenario {
    let mut dataset = Dataset::flanv2(109, 400);
    dataset.samples[MONSTER_ID as usize] = Sample {
        id: MONSTER_ID,
        task: 0,
        input_len: 2_000_000,
        target_len: 512,
    };
    let mut gbs = gbs(16384);
    gbs.max_seq_len = 4_000_000;
    let sc = Scenario::new(planner, dataset, gbs, run(20));
    let (failed_at, failure) = (sc.serial.records.len(), &sc.serial.failure);
    assert!(failed_at > 0, "must fail mid-epoch, not at iteration 0");
    let placed = format!("iteration {failed_at}:");
    let at = failure.as_deref().is_some_and(|f| f.starts_with(&placed));
    assert!(at, "unexpected failure placement: {failure:?}");
    sc
}

/// A cluster topology with every other axis at its default.
pub fn topology(planners: usize, workers: usize, executors: usize, window: usize) -> ClusterConfig {
    ClusterConfig {
        planner_hosts: planners,
        workers_per_host: workers,
        executor_hosts: executors,
        plan_ahead: window,
        ..Default::default()
    }
}

/// What carries the plans from the planner pool to the executor.
pub enum Runtime {
    Pipelined(RuntimeConfig),
    Cluster(ClusterConfig),
}

pub struct Cell {
    pub name: String,
    pub runtime: Runtime,
}

impl Cell {
    pub fn cluster(name: impl Into<String>, config: ClusterConfig) -> Cell {
        Cell {
            name: name.into(),
            runtime: Runtime::Cluster(config),
        }
    }

    /// The wire codec, for cells whose plans cross the store as blobs.
    fn codec(&self) -> Option<PlanCodec> {
        match &self.runtime {
            Runtime::Pipelined(c) if c.distribution == PlanDistribution::StoreBacked => {
                Some(c.codec)
            }
            Runtime::Pipelined(_) => None,
            Runtime::Cluster(c) => Some(c.codec),
        }
    }
}

/// One cell per wire codec, named `{name}/{codec}`: the codec axis.
pub fn per_codec(name: &str, runtime: impl Fn(PlanCodec) -> Runtime) -> Vec<Cell> {
    PlanCodec::ALL
        .into_iter()
        .map(|codec| Cell {
            name: format!("{name}/{}", codec.label()),
            runtime: runtime(codec),
        })
        .collect()
}

/// [`per_codec`] over one cluster config.
pub fn cluster_per_codec(name: &str, config: ClusterConfig) -> Vec<Cell> {
    per_codec(name, |codec| {
        Runtime::Cluster(ClusterConfig {
            codec,
            ..config.clone()
        })
    })
}

/// Pin a suite's matrix: exactly `count` cells, and every codec among
/// the cells whose plans cross the store. A shrinking matrix fails here
/// loudly.
pub fn assert_codec_coverage(cells: &[Cell], count: usize) {
    assert_eq!(cells.len(), count, "the matrix changed size");
    for codec in PlanCodec::ALL {
        let covered = cells.iter().any(|c| c.codec() == Some(codec));
        assert!(covered, "no store-backed or cluster cell runs {codec:?}");
    }
}

enum Stats {
    Pipelined(RuntimeStats),
    Cluster(ClusterReport),
}

/// One checked cell run.
pub struct Outcome {
    pub name: String,
    pub report: RunReport,
    stats: Stats,
    pub trace: Trace,
}

impl Outcome {
    pub fn pipelined(&self) -> &RuntimeStats {
        match &self.stats {
            Stats::Pipelined(s) => s,
            Stats::Cluster(_) => panic!("{} is a cluster cell", self.name),
        }
    }

    pub fn cluster(&self) -> &ClusterReport {
        match &self.stats {
            Stats::Cluster(s) => s,
            Stats::Pipelined(_) => panic!("{} is a pipelined cell", self.name),
        }
    }
}

pub struct Scenario {
    planner: Box<dyn IterationPlanner>,
    dataset: Dataset,
    gbs: GlobalBatchConfig,
    run: RunConfig,
    pub serial: RunReport,
    reference: Option<Outcome>,
}

/// A DynaPipe scenario on `Dataset::flanv2(data.0, data.1)`.
pub fn scenario(dp: usize, data: (u64, usize), tokens: usize, run: RunConfig) -> Scenario {
    let dataset = Dataset::flanv2(data.0, data.1);
    Scenario::new(dynapipe(dp), dataset, gbs(tokens), run)
}

impl Scenario {
    /// Run the serial driver and the traced in-process reference; the
    /// reference itself must match serial and reconcile.
    pub fn new(
        planner: impl IterationPlanner + 'static,
        dataset: Dataset,
        gbs: GlobalBatchConfig,
        run: RunConfig,
    ) -> Scenario {
        let serial = run_training(&planner, &dataset, gbs, run);
        let mut sc = Scenario {
            planner: Box::new(planner),
            dataset,
            gbs,
            run,
            serial,
            reference: None,
        };
        sc.reference = Some(sc.assert_cell(&Cell {
            name: "in-process".into(),
            runtime: Runtime::Pipelined(RuntimeConfig::default()),
        }));
        sc
    }

    /// Require the fixture to run its whole epoch cleanly.
    pub fn clean(self) -> Scenario {
        let failure = &self.serial.failure;
        assert!(self.serial.feasible(), "must run clean: {failure:?}");
        self
    }

    pub fn assert_cells(&self, cells: &[Cell]) -> Vec<Outcome> {
        cells.iter().map(|c| self.assert_cell(c)).collect()
    }

    /// Run `cell` traced and apply every shared check (module docs).
    pub fn assert_cell(&self, cell: &Cell) -> Outcome {
        let twin = match &cell.runtime {
            Runtime::Cluster(c) if !c.churn.is_empty() || c.reissue_deadline.is_some() => {
                let undisturbed = ClusterConfig {
                    churn: ChurnScript::new(),
                    reissue_deadline: None,
                    ..c.clone()
                };
                let name = format!("{}/undisturbed", cell.name);
                let twin = self.assert_cell(&Cell::cluster(name, undisturbed));
                let applied = twin.cluster().churn.events_applied;
                assert_eq!(applied, 0, "{}: twin applied churn", twin.name);
                Some(twin)
            }
            _ => None,
        };
        let out = self.run_checked(cell);
        if let Some(twin) = twin {
            let name = &out.name;
            twin.report
                .behavior_eq(&out.report)
                .unwrap_or_else(|e| panic!("{name}: churned run diverged from undisturbed: {e}"));
            sim_eq(&twin.trace, &out.trace)
                .unwrap_or_else(|e| panic!("{name}: churn moved the Sim timeline: {e}"));
        }
        out
    }

    fn run_checked(&self, cell: &Cell) -> Outcome {
        let name = cell.name.as_str();
        let sink = TraceSink::bounded(TRACE_CAP);
        let (planner, data, gbs, run) = (&*self.planner, &self.dataset, self.gbs, self.run);
        let (report, stats) = match &cell.runtime {
            Runtime::Pipelined(c) => {
                let (r, s) = run_training_pipelined_traced(planner, data, gbs, run, *c, &sink);
                (r, Stats::Pipelined(s))
            }
            Runtime::Cluster(c) => {
                let (r, s) = run_training_cluster_traced(planner, data, gbs, run, c.clone(), &sink);
                (r, Stats::Cluster(s))
            }
        };
        let mut trace = sink.finish();
        trace.meta = match &stats {
            Stats::Pipelined(s) => s.trace_meta(name),
            Stats::Cluster(s) => s.trace_meta(name),
        };
        self.serial
            .behavior_eq(&report)
            .unwrap_or_else(|e| panic!("{name} diverged from serial: {e}"));
        assert_eq!(trace.counters.spans_dropped, 0, "{name}: ring truncated");
        let validated = trace.validate();
        validated.unwrap_or_else(|e| panic!("{name}: trace validation: {e}"));
        let reconciled = trace.reconcile();
        reconciled.unwrap_or_else(|e| panic!("{name}: trace reconciliation: {e}"));
        if let Some(reference) = &self.reference {
            reference
                .report
                .behavior_eq(&report)
                .unwrap_or_else(|e| panic!("{name} diverged from the in-process run: {e}"));
            sim_eq(&reference.trace, &trace)
                .unwrap_or_else(|e| panic!("{name}: Sim timeline diverged from in-process: {e}"));
        }
        let (store, window) = match &stats {
            Stats::Pipelined(s) => {
                let (resident, window) = (s.max_plans_resident, s.plan_ahead);
                assert!(resident <= window, "{name}: {resident} plans resident");
                (s.store.as_ref(), window)
            }
            Stats::Cluster(s) => {
                assert_cluster_ledgers(name, s, &trace);
                (Some(&s.store), s.plan_ahead)
            }
        };
        if let Some(st) = store {
            assert_eq!((st.occupancy, st.bytes), (0, 0), "{name}: orphaned blobs");
            assert_eq!(st.takes + st.discarded, st.pushes, "{name}: pushes leaked");
            let peak = st.peak_occupancy;
            assert!(peak <= window.max(1), "{name}: store peak {peak} > window");
        }
        Outcome {
            name: name.to_string(),
            report,
            stats,
            trace,
        }
    }
}

/// The wire-byte rule and the span-for-span ledger, against the live
/// report rather than the `TraceMeta` copy `reconcile` audits.
fn assert_cluster_ledgers(name: &str, s: &ClusterReport, trace: &Trace) {
    use SpanKind::*;
    let (c, st) = (&s.churn, &s.store);
    let fetched: u64 = s.executor_hosts.iter().map(|h| h.bytes_fetched).sum();
    let pushed: u64 = s.planner_hosts.iter().map(|h| h.bytes_pushed).sum();
    let count = |kind| trace.of_kind(kind).count() as u64;
    let shards = |f: fn(&ShardStats) -> u64| -> u64 { s.shards.iter().map(f).sum() };
    let (refetched, refetch_bytes) = (shards(|x| x.refetched_blobs), shards(|x| x.refetch_bytes));
    // Zero-copy execution happens exactly over the remote copies on the
    // flat codec, and never on the tree codecs (the PR 9 regression: the
    // store host's local copy used to count as wire bytes).
    let flat_wire = if s.codec == "flat" { fetched } else { 0 };
    let iters = s.iterations as u64;
    // (ledger, derived total, live counter)
    let checks = [
        ("flat_wire_bytes", s.flat_wire_bytes, flat_wire),
        ("shard bytes_served", shards(|x| x.bytes_served), fetched),
        ("shard bytes_pushed", shards(|x| x.bytes_pushed), pushed),
        ("shard blobs_stored", shards(|x| x.blobs_stored), iters),
        ("shard refetches", refetched, c.blobs_refetched),
        ("shard refetch bytes", refetch_bytes, c.refetch_bytes),
        ("link_push", trace.bytes_of(LinkPush), pushed),
        ("link_fetch", trace.bytes_of(LinkFetch), fetched),
        ("link_restore", trace.bytes_of(LinkRestore), c.refetch_bytes),
        ("restores", count(LinkRestore), c.blobs_refetched),
        ("store_push", count(StorePush), st.pushes),
        ("store_take", count(StoreTake), st.takes),
        ("store_discard", count(StoreDiscard), st.discarded),
        ("reissues", count(TicketReissue), c.tickets_reissued),
        ("claims vs pushes", count(TicketClaim), st.pushes),
        ("churn actions", count(ChurnAction), c.events_applied as u64),
    ];
    for (what, got, want) in checks {
        assert_eq!(got, want, "{name}: {what}");
    }
    let hosts = s.executor_hosts.len();
    for (i, shard) in s.shards.iter().enumerate() {
        assert_eq!(shard.shard, i, "{name}: shard index is positional");
        assert!(shard.owner < hosts, "{name}: shard owner is no executor");
    }
    // The busiest link cannot carry more than everything that crossed
    // any wire.
    let max_link = s.max_link_bytes;
    assert!(max_link <= pushed + fetched, "{name}: max link {max_link}");
    // Exposure ledgers bitwise (the same accumulation as the counters),
    // and per executor host (spans carry the host in `lane`).
    let exposed = trace.ledger_us(ExposedPlanning).to_bits();
    assert_eq!(exposed, s.exposed_us.to_bits(), "{name}: exposed ledger");
    for (h, eh) in s.executor_hosts.iter().enumerate() {
        let on_host = |kind| trace.of_kind(kind).filter(move |x| x.lane == h as i64);
        let got: u64 = on_host(LinkFetch).map(|x| x.bytes).sum();
        assert_eq!(got, eh.bytes_fetched, "{name}: host {h} fetch bytes");
        let got = on_host(ExposedWait).map(|x| x.wait_us).sum::<f64>() + 0.0;
        let (got, want) = (got.to_bits(), eh.exposed_us.to_bits());
        assert_eq!(got, want, "{name}: host {h} exposure");
    }
    // The Sim timeline ends exactly at the simulated total.
    let end = trace.of_kind(IterSync).last().map(|x| x.end_us.to_bits());
    let total = (iters > 0).then(|| s.exec_sim_us.to_bits());
    assert_eq!(end, total, "{name}: Sim end vs exec_sim_us");
}
