//! Layer-by-layer replay of the planner and the stages after it.
//!
//! For every mini-batch of the epoch prefix the replay calls each layer's
//! public function in the order `DynaPipePlanner::plan_iteration` and the
//! runtime call them, and times each call as a span whose parent is the
//! iteration (planner layers sit under a `planner.replay` span). The §7
//! recompute-mode sweep runs serially here, so the sum of the planner's
//! layer spans against the timed `plan_iteration` call shows what its
//! parallel sweep saves. The replayed plan must equal `plan_iteration`'s,
//! ignoring `planning_time_us`, and the replayed execution must match the
//! serial oracle's measured time bit for bit.

use dynapipe_batcher::{
    karmarkar_karp, DpConfig, MicroBatch, PaddingStats, Partitioner, SliceFwdCosts, SliceShapes,
};
use dynapipe_comm::{plan_communication, verify_deadlock_free, PlanInputs};
use dynapipe_core::planner::{dp_sync_time, schedule_input_for};
use dynapipe_core::runtime::{execute_lowered, lower_replicas};
use dynapipe_core::{
    compile_replica_with, decode_for_execution, DynaPipePlanner, GroundTruth, IterationPlan,
    PlanCodec, ReplicaParallelism, ReplicaPlan, ReplicaPrograms, RunConfig, RunReport,
    ScheduleKind, StoredLowered, StoredOutcome, StoredPlan,
};
use dynapipe_cost::{grid_query_stats, CostModel};
use dynapipe_data::{Dataset, GlobalBatchConfig, GlobalBatchIter, Sample};
use dynapipe_model::memory::RecomputeMode;
use dynapipe_model::{Bytes, MicroBatchShape};
use dynapipe_schedule::{
    adaptive_schedule, evaluate_schedule, one_f_one_b, reorder_micro_batches, ReorderConfig,
};
use std::sync::Arc;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span in the record.
    pub id: usize,
    /// The enclosing span, `None` for an iteration root.
    pub parent: Option<usize>,
    /// Layer name: the per-layer metric the span feeds, or `iteration` /
    /// `planner.replay` for the two enclosing spans.
    pub name: &'static str,
    /// Mini-batch index.
    pub iteration: usize,
    /// Start, µs since the replay began.
    pub start_us: f64,
    /// End, µs since the replay began.
    pub end_us: f64,
}

impl Span {
    /// Duration in ms.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Spans are recorded by the replay loop itself: one `Instant` read at
/// each layer boundary, kept in memory and written out at the end.
struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span; close it with [`Recorder::close`].
    fn open(&mut self, name: &'static str, iteration: usize, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            id,
            parent,
            name,
            iteration,
            start_us,
            end_us: start_us,
        });
        id
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.now_us();
    }

    /// Time `f` as a leaf span under `parent`.
    fn timed<T>(
        &mut self,
        name: &'static str,
        iteration: usize,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, iteration, Some(parent));
        let out = std::hint::black_box(f());
        self.close(id);
        out
    }
}

/// Per-iteration facts the replay counts alongside its spans.
#[derive(Debug, Clone, Default)]
pub struct IterFacts {
    /// Recompute modes that produced a feasible plan (of 3).
    pub feasible_modes: usize,
    /// Distinct padded shapes in the slice shape pass.
    pub distinct_shapes: usize,
    /// Micro-batches of the chosen plan.
    pub micro_batches: usize,
    /// Scalar grid queries during the planner layers.
    pub grid_scalar_queries: u64,
    /// Located grid cells during the planner layers.
    pub grid_batch_cells: u64,
    /// Slowest ÷ fastest replica estimated time in the chosen plan.
    pub kk_imbalance: f64,
    /// Lowering memo hit ratio.
    pub memo_hit_ratio: f64,
    /// Encoded blob bytes per codec, in [`PlanCodec::ALL`] order.
    pub blob_bytes: [usize; 3],
    /// Simulated iteration time (µs).
    pub sim_iter_us: f64,
}

/// The replay's record: spans, per-iteration facts, and every check that
/// failed.
pub struct Replay {
    /// All spans, iteration roots first within each iteration.
    pub spans: Vec<Span>,
    /// One entry per replayed iteration.
    pub facts: Vec<IterFacts>,
    /// Iterations replayed.
    pub attempted: u64,
    /// Iterations that failed a check.
    pub failed: u64,
    /// What failed.
    pub errors: Vec<String>,
}

/// Span name of each recompute mode's DP partition.
fn partition_span(mode: RecomputeMode) -> &'static str {
    match mode {
        RecomputeMode::None => "dp.partition_ms.none",
        RecomputeMode::Selective => "dp.partition_ms.selective",
        RecomputeMode::Full => "dp.partition_ms.full",
    }
}

/// Span names of each codec's encode and decode.
fn codec_spans(codec: PlanCodec) -> (&'static str, &'static str) {
    match codec {
        PlanCodec::Json => ("codec.encode_ms.json", "codec.decode_ms.json"),
        PlanCodec::Binary => ("codec.encode_ms.binary", "codec.decode_ms.binary"),
        PlanCodec::Flat => ("codec.encode_ms.flat", "codec.decode_ms.flat"),
    }
}

/// Replay the first `iterations` mini-batches of `dataset`, checking
/// against the serial `oracle`.
pub fn replay(
    planner: &DynaPipePlanner,
    dataset: &Dataset,
    gbs: GlobalBatchConfig,
    run: &RunConfig,
    oracle: &RunReport,
    iterations: usize,
) -> Replay {
    let mut rec = Recorder {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let mut out = Replay {
        spans: Vec::new(),
        facts: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    let mut batches = GlobalBatchIter::new(dataset, gbs);
    for it in 0..iterations {
        out.attempted += 1;
        let root = rec.open("iteration", it, None);
        let batch = rec.timed("data.batch_ms", it, root, || batches.next());
        let result = match batch {
            Some(batch) => replay_iteration(&mut rec, root, planner, &batch, run, oracle, it),
            None => Err("the epoch ended early".to_string()),
        };
        rec.close(root);
        match result {
            Ok(facts) => out.facts.push(facts),
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("replay iteration {it}: {e}"));
            }
        }
    }
    out.spans = rec.spans;
    out
}

fn replay_iteration(
    rec: &mut Recorder,
    root: usize,
    planner: &DynaPipePlanner,
    batch: &[Sample],
    run: &RunConfig,
    oracle: &RunReport,
    it: usize,
) -> Result<IterFacts, String> {
    let cm = &*planner.cm;
    let reference = rec
        .timed("planner.plan_ms", it, root, || {
            planner.plan_iteration(batch)
        })
        .map_err(|e| format!("plan_iteration failed: {e}"))?;

    let mut facts = IterFacts::default();
    let grid0 = grid_query_stats();
    let parent = rec.open("planner.replay", it, Some(root));
    let plan = replay_planner(rec, parent, planner, batch, it, &mut facts);
    rec.close(parent);
    let grid1 = grid_query_stats();
    facts.grid_scalar_queries = grid1.scalar - grid0.scalar;
    facts.grid_batch_cells = grid1.batch_cells - grid0.batch_cells;
    let mut plan = plan?;
    plan.planning_time_us = reference.planning_time_us;
    if plan != reference {
        return Err("the replayed plan differs from plan_iteration's".into());
    }
    facts.micro_batches = plan.num_micro_batches;
    let replica_ms: Vec<f64> = plan.replicas.iter().map(|r| r.est_makespan).collect();
    let (lo, hi) = replica_ms
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &t| {
            (lo.min(t), hi.max(t))
        });
    facts.kk_imbalance = if lo > 0.0 { hi / lo } else { 0.0 };

    let lowered = rec.timed("lower.ms", it, root, || lower_replicas(cm, &plan));
    // The memo's hit ratio, from a second (untimed) lowering through an
    // explicit ground-truth memo — the one `lower_replicas` keeps private.
    let truth = GroundTruth::new(cm);
    for r in &plan.replicas {
        compile_replica_with(&truth, &r.plan);
    }
    let (hits, misses) = truth.memo_stats();
    facts.memo_hit_ratio = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };

    let stored = StoredPlan {
        iteration: it,
        outcome: StoredOutcome::Plan(StoredLowered {
            plan: plan.clone(),
            programs: lowered.iter().map(|p| (**p).clone()).collect(),
        }),
    };
    for (i, codec) in PlanCodec::ALL.into_iter().enumerate() {
        let (enc, dec) = codec_spans(codec);
        let blob = rec.timed(enc, it, root, || stored.encode(codec));
        facts.blob_bytes[i] = blob.len();
        let blob: Arc<[u8]> = Arc::from(blob);
        let decoded = rec.timed(dec, it, root, || decode_for_execution(codec, blob));
        match decoded {
            Ok((i2, Ok((p2, _)))) if i2 == it && p2 == plan => {}
            Ok(_) => return Err(format!("{} round trip changed the plan", codec.label())),
            Err(e) => return Err(format!("{} decode failed: {e}", codec.label())),
        }
    }

    let programs: Vec<ReplicaPrograms> = lowered.into_iter().map(ReplicaPrograms::Owned).collect();
    let exec = rec
        .timed("engine.ms", it, root, || {
            execute_lowered(cm, &plan, &programs, run, it, ReplicaParallelism::Parallel)
        })
        .map_err(|e| format!("execution failed: {e}"))?;
    let expected = oracle.records.get(it).map(|r| r.measured_time);
    if expected.map(f64::to_bits) != Some(exec.measured_time.to_bits()) {
        return Err(format!(
            "simulated {} µs, the serial oracle {expected:?} µs",
            exec.measured_time
        ));
    }
    facts.sim_iter_us = exec.measured_time;
    Ok(facts)
}

/// `plan_iteration`, one public call per span, with the recompute-mode
/// sweep run serially.
fn replay_planner(
    rec: &mut Recorder,
    parent: usize,
    planner: &DynaPipePlanner,
    batch: &[Sample],
    it: usize,
    facts: &mut IterFacts,
) -> Result<IterationPlan, String> {
    let cm = &*planner.cm;
    let cfg = &planner.config;
    let arch = cm.model.arch;
    let mut samples = batch.to_vec();
    rec.timed("ordering.ms", it, parent, || {
        cfg.ordering.apply(arch, &mut samples)
    });
    let budget = planner.planning_budget();
    if budget == 0 {
        return Err("no activation budget".into());
    }
    let shapes = rec.timed("dp.shape_pass_ms", it, parent, || {
        SliceShapes::build(arch, &samples, cfg.max_mb_samples)
    });
    facts.distinct_shapes = shapes.num_distinct_shapes();
    let fwd = rec.timed("dp.fwd_cost_ms", it, parent, || {
        SliceFwdCosts::build(cm, &shapes)
    });

    let mut best: Option<IterationPlan> = None;
    for mode in RecomputeMode::ALL {
        let per_mb_limit = match cfg.schedule {
            ScheduleKind::OneFOneB => budget / cm.num_stages().max(1) as u64,
            ScheduleKind::Adaptive { .. } => budget,
        };
        let partitioner = Partitioner::new(
            cm,
            DpConfig {
                tmax_resolution_us: cfg.tmax_resolution_us,
                max_mb_samples: cfg.max_mb_samples,
                mb_memory_limit: per_mb_limit,
                recompute: mode,
                dp_degree: cm.parallel.dp,
                max_candidates: cfg.max_candidates,
                probe_stop_divisor: DpConfig::PROBE_STOP_DIVISOR,
            },
        );
        let partition = rec.timed(partition_span(mode), it, parent, || {
            partitioner.partition_with_context(&shapes, &fwd, &samples)
        });
        let Some(partition) = partition else { continue };
        let groups = rec.timed("kk.ms", it, parent, || {
            karmarkar_karp(&partition.mb_times, cm.parallel.dp)
        });
        let mut replicas = Vec::with_capacity(groups.len());
        for group in &groups {
            let mut idx = group.clone();
            idx.sort_unstable();
            let mbs: Vec<&MicroBatch> = idx.iter().map(|&i| &partition.micro_batches[i]).collect();
            let shapes: Vec<MicroBatchShape> = mbs.iter().map(|mb| mb.shape(arch)).collect();
            match replay_replica(
                rec,
                parent,
                cm,
                &shapes,
                mode,
                cfg.schedule,
                budget,
                cfg.reorder_clusters,
                it,
            ) {
                Ok(r) => replicas.push(r),
                Err(_) => break,
            }
        }
        if replicas.len() != groups.len() {
            continue;
        }
        facts.feasible_modes += 1;
        let dp_sync_time = dp_sync_time(cm);
        let candidate = IterationPlan {
            num_micro_batches: partition.num_micro_batches(),
            est_iteration_time: replicas.iter().map(|r| r.est_makespan).fold(0.0, f64::max)
                + dp_sync_time,
            replicas,
            recompute: mode,
            dp_sync_time,
            padding: PaddingStats::from_micro_batches(&partition.micro_batches, arch),
            actual_tokens: samples.iter().map(|s| s.total_tokens() as u64).sum(),
            planning_time_us: 0.0,
        };
        if best
            .as_ref()
            .is_none_or(|b| candidate.est_iteration_time < b.est_iteration_time)
        {
            best = Some(candidate);
        }
    }
    best.ok_or_else(|| "no recompute mode is feasible".into())
}

/// `dynapipe_core::planner::plan_replica`, one public call per span.
#[allow(clippy::too_many_arguments)]
fn replay_replica(
    rec: &mut Recorder,
    parent: usize,
    cm: &CostModel,
    shapes: &[MicroBatchShape],
    mode: RecomputeMode,
    kind: ScheduleKind,
    budget: Bytes,
    reorder_clusters: usize,
    it: usize,
) -> Result<ReplicaPlan, String> {
    let input = rec.timed("schedule.input_ms", it, parent, || {
        schedule_input_for(cm, shapes, mode, budget)
    });
    let (input, shapes): (_, Vec<MicroBatchShape>) = match kind {
        ScheduleKind::Adaptive { reorder: true } if shapes.len() > 1 => {
            rec.timed("schedule.reorder_ms", it, parent, || {
                let (order, _) = reorder_micro_batches(
                    &input,
                    &ReorderConfig {
                        num_clusters: reorder_clusters,
                    },
                );
                (
                    input.select(&order),
                    order.iter().map(|&i| shapes[i]).collect(),
                )
            })
        }
        _ => (input, shapes.to_vec()),
    };
    let schedule = rec.timed("schedule.adaptive_ms", it, parent, || match kind {
        ScheduleKind::OneFOneB => one_f_one_b(shapes.len(), cm.num_stages()),
        ScheduleKind::Adaptive { .. } => adaptive_schedule(&input),
    });
    let (peaks, timeline) = rec.timed("schedule.evaluate_ms", it, parent, || {
        let peaks = schedule.peak_memory(&input.act);
        if let Some(j) = (0..peaks.len()).find(|&j| peaks[j] > input.mem_limit[j]) {
            return Err(format!("stage {j} exceeds its activation limit"));
        }
        Ok((peaks, evaluate_schedule(&schedule, &input)?))
    })?;
    let plan = rec.timed("comm.plan_ms", it, parent, || {
        let c = cm.num_stages();
        let boundary_bytes: Vec<Vec<Bytes>> = shapes
            .iter()
            .map(|sh| {
                (0..c.saturating_sub(1))
                    .map(|j| cm.boundary_bytes(j, sh))
                    .collect()
            })
            .collect();
        plan_communication(&PlanInputs {
            schedule: &schedule,
            timeline: &timeline,
            boundary_bytes: &boundary_bytes,
            shapes: &shapes,
            recompute: mode,
        })
    });
    rec.timed("comm.verify_ms", it, parent, || {
        plan.validate()?;
        verify_deadlock_free(&plan).map_err(|e| e.to_string())
    })?;
    Ok(ReplicaPlan {
        est_makespan: timeline.times.makespan,
        est_peak_memory: peaks,
        plan,
        schedule,
    })
}
