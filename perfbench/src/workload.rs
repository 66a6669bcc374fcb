//! The benchmark workloads: what each one builds during set-up, and one
//! closed-loop repetition of it through the runtime it exercises.

use dynapipe_cluster::{run_training_cluster_traced, ClusterConfig, ClusterReport, StorePlacement};
use dynapipe_core::{
    run_training_pipelined_traced, DynaPipePlanner, PlanCodec, PlanDistribution, PlannerConfig,
    RunConfig, RunReport, RuntimeConfig, RuntimeStats,
};
use dynapipe_cost::{CostModel, ProfileOptions};
use dynapipe_data::{Dataset, GlobalBatchConfig, GlobalBatchIter};
use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};
use dynapipe_trace::{TraceMeta, TraceSink};
use std::sync::Arc;
use std::time::Instant;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper Fig. 17 point: GPT 6.7B dp1·tp2·pp4, 65,536-token
    /// mini-batches at `max_seq_len` 4096, in-process plan-ahead runtime.
    Fig17Gpt,
    /// GPT 6.7B dp2·tp1·pp4, 65,536 tokens at `max_seq_len` 1024, through
    /// the store-backed runtime with its default codec.
    ShortStore,
    /// GPT 3.35B dp32·tp1·pp2 on 32 executor hosts, 2 planner hosts × 1
    /// worker, sharded store over a rack fabric, default codec.
    Dc32Sharded,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Fig17Gpt,
        Workload::ShortStore,
        Workload::Dc32Sharded,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig17Gpt => "fig17-gpt",
            Workload::ShortStore => "short-store",
            Workload::Dc32Sharded => "dc32-sharded",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn batch(self) -> GlobalBatchConfig {
        match self {
            Workload::Fig17Gpt => GlobalBatchConfig {
                tokens_per_batch: 65536,
                max_seq_len: 4096,
            },
            Workload::ShortStore => GlobalBatchConfig {
                tokens_per_batch: 65536,
                max_seq_len: 1024,
            },
            Workload::Dc32Sharded => GlobalBatchConfig {
                tokens_per_batch: 32768,
                max_seq_len: 1024,
            },
        }
    }
}

/// Mini-batches per repetition. Every repetition replays the same epoch
/// prefix, so one serial oracle checks all of them. The prefix is long
/// enough that the per-seed batch mix averages out and a p90 over its
/// mini-batches leaves ten above it, and short enough that a run holds
/// several repetitions to take the best of.
pub const ITERS_PER_REP: usize = 128;

/// Cluster shape of `dc32-sharded`.
const DC_HOSTS: usize = 32;
const DC_HOSTS_PER_RACK: usize = 8;
const DC_OVERSUBSCRIPTION: f64 = 4.0;

/// Which runtime a workload drives, fully configured.
pub enum Driver {
    /// The single-host plan-ahead runtime.
    Runtime(RuntimeConfig),
    /// The multi-host cluster runtime.
    Cluster(Box<ClusterConfig>),
}

/// Everything set-up builds: the generated inputs and the configured
/// planner and runtime.
pub struct Setup {
    /// The workload.
    pub workload: Workload,
    /// Generated dataset (from the seed).
    pub dataset: Dataset,
    /// The planner over the workload's cost model.
    pub planner: DynaPipePlanner,
    /// Mini-batch assembly.
    pub gbs: GlobalBatchConfig,
    /// Per-repetition run configuration (an epoch prefix).
    pub run: RunConfig,
    /// Runtime configuration.
    pub driver: Driver,
}

/// Generate the inputs from `seed` and build cost model, planner and
/// runtime configuration — the work `setup_s` times.
pub fn setup(workload: Workload, seed: u64) -> Result<Setup, String> {
    let hw = HardwareModel::a100_cluster();
    let gbs = workload.batch();
    let iters = ITERS_PER_REP;
    // Enough samples for the epoch prefix; checked below.
    let samples = iters * gbs.tokens_per_batch / 128;
    let dataset = Dataset::flanv2(seed, samples);
    let (model, parallel, profile) = match workload {
        Workload::Fig17Gpt => (
            ModelConfig::gpt_6_7b(),
            ParallelConfig::new(1, 2, 4),
            ProfileOptions::default(),
        ),
        Workload::ShortStore => (
            ModelConfig::gpt_6_7b(),
            ParallelConfig::new(2, 1, 4),
            ProfileOptions::default(),
        ),
        Workload::Dc32Sharded => (
            ModelConfig::gpt_3_35b(),
            ParallelConfig::new(DC_HOSTS, 1, 2),
            ProfileOptions::coarse(),
        ),
    };
    let cm = Arc::new(CostModel::build(hw.clone(), model, parallel, &profile));
    let planner = DynaPipePlanner::new(cm, PlannerConfig::default());
    let driver = match workload {
        Workload::Fig17Gpt => Driver::Runtime(RuntimeConfig::default()),
        Workload::ShortStore => Driver::Runtime(RuntimeConfig {
            distribution: PlanDistribution::StoreBacked,
            ..RuntimeConfig::default()
        }),
        Workload::Dc32Sharded => Driver::Cluster(Box::new(ClusterConfig {
            planner_hosts: 2,
            workers_per_host: 1,
            executor_hosts: DC_HOSTS,
            codec: PlanCodec::default(),
            placement: StorePlacement::Sharded,
            fabric: ClusterConfig::datacenter_fabric(&hw, DC_HOSTS_PER_RACK, DC_OVERSUBSCRIPTION),
            ..ClusterConfig::default()
        })),
    };
    let available = GlobalBatchIter::new(&dataset, gbs).take(iters + 1).count();
    if available <= iters {
        return Err(format!(
            "{}: dataset of {samples} samples yields only {available} mini-batches, need {}",
            workload.name(),
            iters + 1
        ));
    }
    Ok(Setup {
        workload,
        dataset,
        planner,
        gbs,
        run: RunConfig {
            max_iterations: Some(iters),
            ..RunConfig::default()
        },
        driver,
    })
}

/// The runtime-side counters of one repetition.
pub enum RepStats {
    /// Single-host runtime counters.
    Runtime(RuntimeStats),
    /// Cluster rollup.
    Cluster(ClusterReport),
}

impl RepStats {
    /// End of the training timeline (µs).
    pub fn train_wall_us(&self) -> f64 {
        match self {
            RepStats::Runtime(s) => s.pipelined_wall_us,
            RepStats::Cluster(c) => c.cluster_wall_us,
        }
    }

    /// Bytes that crossed hosts (zero on a single host).
    pub fn wire_bytes(&self) -> u64 {
        match self {
            RepStats::Runtime(_) => 0,
            RepStats::Cluster(c) => c.wire_bytes,
        }
    }

    /// The counter ledger a trace of this repetition reconciles against.
    pub fn trace_meta(&self, label: &str) -> TraceMeta {
        match self {
            RepStats::Runtime(s) => s.trace_meta(label),
            RepStats::Cluster(c) => c.trace_meta(label),
        }
    }
}

/// One closed-loop repetition: the epoch prefix through the workload's
/// runtime, recording spans into `sink` (a disabled sink records nothing).
pub struct Rep {
    /// The training report (checked against the serial oracle).
    pub report: RunReport,
    /// Runtime counters.
    pub stats: RepStats,
    /// Host wall time of the repetition (s).
    pub host_s: f64,
}

/// Run the first `iters` mini-batches of `s` through its runtime.
pub fn run_rep(s: &Setup, iters: usize, sink: &TraceSink) -> Rep {
    let run = RunConfig {
        max_iterations: Some(iters),
        ..s.run
    };
    let t0 = Instant::now();
    let (report, stats) = match &s.driver {
        Driver::Runtime(cfg) => {
            let (report, stats) =
                run_training_pipelined_traced(&s.planner, &s.dataset, s.gbs, run, *cfg, sink);
            (report, RepStats::Runtime(stats))
        }
        Driver::Cluster(cfg) => {
            let (report, stats) = run_training_cluster_traced(
                &s.planner,
                &s.dataset,
                s.gbs,
                run,
                (**cfg).clone(),
                sink,
            );
            (report, RepStats::Cluster(stats))
        }
    };
    Rep {
        report,
        stats,
        host_s: t0.elapsed().as_secs_f64(),
    }
}
