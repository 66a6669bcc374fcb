//! The DynaPipe per-iteration planner (Fig. 9's "Planner" module).
//!
//! For each training mini-batch: order the samples, pick the cheapest
//! feasible recomputation mode (§7), split into micro-batches with the DP
//! partitioner (§4), balance across data-parallel replicas with
//! Karmarkar–Karp, optionally reorder micro-batches by execution-time
//! clusters, schedule with 1F1B or the memory-aware adaptive schedule (§5),
//! plan communication (§6), and verify the result deadlock-free.
//!
//! The §7 sweep runs in three steps: score, bound, finish.
//!
//! *Scoring* runs a mode as far as its estimated iteration time:
//! partition, balance, schedule and evaluate. It runs as FIFO tasks on the
//! rayon pool (`rayon::scope_fifo`): one task per mode partitions and
//! balances, then queues its replicas, and one task per replica schedules
//! and evaluates one, claiming the queued replica of the mode with the
//! lowest bound first. The threads share the replicas of every mode
//! instead of each running whole modes. Results land in per-mode slots and
//! are assembled in mode and replica order, so the plan does not depend on
//! the thread count or on which thread ran what.
//!
//! *Bounding* drops modes that cannot win. Once a mode is fully scored,
//! its estimate is the sweep's `best` if lowest, and a mode is dropped as
//! soon as an exact lower bound on its estimate lies strictly above
//! `best`: the Eq. 2 bound stops its partition's `t_max` search between
//! solves (only where one stage is the slowest of every shape, so never on
//! T5), and the replica bound (`dynapipe_schedule::makespan_lower_bound`)
//! keeps its replicas from being scheduled. A dropped mode carries no
//! estimate, only that bound. Which modes are dropped depends on timing;
//! the lowest estimate is never dropped.
//!
//! *Finishing* plans communication and verifies, one pool task per
//! replica, and runs only for the mode the planner keeps: the lowest
//! scored estimate, the lower mode index on ties, which is the lowest of
//! all. If it fails to finish, the dropped modes are scored and modes are
//! finished in (estimate, mode index) order until one verifies. That is
//! the plan that finishing every mode and folding them in mode order would
//! give, and on failure the same error, except that a mode is not
//! finished once a replica of it fails to score: such a mode reports the
//! scoring error even if an earlier replica of it would not have finished.

use dynapipe_batcher::{
    karmarkar_karp, DpConfig, OrderingStrategy, PaddingStats, Partitioner, SliceFwdCosts,
    SliceShapes, Stopped,
};
use dynapipe_comm::{plan_communication, verify_deadlock_free, ExecutionPlan, PlanInputs};
use dynapipe_cost::CostModel;
use dynapipe_data::Sample;
use dynapipe_model::memory::RecomputeMode;
use dynapipe_model::{Bytes, MicroBatchShape, Micros};
use dynapipe_schedule::{
    adaptive_schedule, evaluate_schedule, makespan_lower_bound, one_f_one_b, reorder_with_schedule,
    ReorderConfig, Schedule, ScheduleInput, Timeline,
};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Which pipeline schedule the planner emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScheduleKind {
    /// The 1F1B baseline schedule.
    OneFOneB,
    /// DynaPipe's memory-aware adaptive schedule, optionally with
    /// micro-batch reordering by execution-time clustering.
    Adaptive {
        /// Enable cluster-permutation reordering (§5 "micro-batch
        /// ordering").
        reorder: bool,
    },
}

/// Planner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannerConfig {
    /// Sample ordering strategy (sort vs TSP).
    pub ordering: OrderingStrategy,
    /// Pipeline schedule to emit.
    pub schedule: ScheduleKind,
    /// DP partitioner `t_max` resolution (µs).
    pub tmax_resolution_us: Micros,
    /// DP partitioner bound on samples per micro-batch.
    pub max_mb_samples: usize,
    /// DP partitioner target number of `t_max` candidates (not a hard
    /// cap; see `DpConfig::max_candidates`).
    pub max_candidates: usize,
    /// Clusters for micro-batch reordering.
    pub reorder_clusters: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            ordering: OrderingStrategy::Sort,
            schedule: ScheduleKind::Adaptive { reorder: true },
            tmax_resolution_us: 5.0,
            max_mb_samples: 128,
            max_candidates: 96,
            reorder_clusters: 3,
        }
    }
}

/// Why planning failed for a mini-batch.
///
/// Serializable: a planning failure travels through the
/// [`crate::store::InstructionStore`] like any other outcome, so a
/// store-backed executor reports it at exactly the iteration the serial
/// driver would, with an identical message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanError {
    /// No recomputation mode yields a memory-feasible plan.
    Infeasible(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Infeasible(m) => write!(f, "infeasible iteration: {m}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// The compiled plan for one data-parallel replica.
///
/// Serializable (float-exact): replica plans are part of the
/// [`crate::store::StoredPlan`] wire format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaPlan {
    /// Instruction streams and shapes.
    pub plan: ExecutionPlan,
    /// The schedule the plan encodes (kept for analysis).
    pub schedule: Schedule,
    /// Estimated makespan from the planning timeline (µs).
    pub est_makespan: Micros,
    /// Estimated peak activation memory per stage.
    pub est_peak_memory: Vec<Bytes>,
}

/// A complete iteration plan across replicas.
///
/// Serializable (float-exact): iteration plans cross the instruction
/// store's process boundary in the store-backed runtime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationPlan {
    /// One plan per data-parallel replica.
    pub replicas: Vec<ReplicaPlan>,
    /// Recomputation mode selected for the iteration.
    pub recompute: RecomputeMode,
    /// Estimated iteration time: slowest replica plus gradient sync (µs).
    pub est_iteration_time: Micros,
    /// Data-parallel gradient synchronization time (µs).
    pub dp_sync_time: Micros,
    /// Padding statistics of the chosen micro-batching.
    pub padding: PaddingStats,
    /// Total micro-batches across replicas.
    pub num_micro_batches: usize,
    /// Non-padding tokens in the mini-batch.
    pub actual_tokens: u64,
    /// Wall-clock planning time (µs) — the Fig. 17 metric.
    pub planning_time_us: f64,
}

/// Default fraction of the activation budget planners may fill; the rest
/// absorbs estimation error and executor workspace (see
/// `compile::workspace_bytes`).
pub const DEFAULT_MEMORY_SAFETY: f64 = 0.92;

/// The DynaPipe planner.
pub struct DynaPipePlanner {
    /// Shared cost model.
    pub cm: Arc<CostModel>,
    /// Configuration.
    pub config: PlannerConfig,
}

/// Reusable per-mini-batch planning state shared across the §7
/// recompute-mode sweep: the ordered samples, the activation budget, and
/// the DP partitioner's two shared passes — the slice shape pass and the
/// pricing pass, which prices every distinct shape under every
/// recomputation mode in one visit of its located grid cells. Each mode's
/// partition only applies its memory limit to its own prices.
pub struct PlanContext<'a> {
    /// The mini-batch, already ordered by the planner's strategy.
    pub ordered: &'a [Sample],
    /// Activation budget the plans work against.
    pub budget: Bytes,
    /// Shared shape pass over `ordered`.
    pub shapes: SliceShapes,
    /// Every recomputation mode's time and activation per distinct shape
    /// of the shape pass.
    pub fwd: SliceFwdCosts,
}

/// One recomputation mode's plan, scored: partitioned, balanced,
/// scheduled and evaluated, with communication not yet planned. It holds
/// everything §7 compares modes on and everything finishing needs.
struct ScoredMode {
    recompute: RecomputeMode,
    replicas: Vec<ScoredReplica>,
    est_iteration_time: Micros,
    dp_sync_time: Micros,
    padding: PaddingStats,
    num_micro_batches: usize,
    actual_tokens: u64,
}

/// One recomputation mode partitioned and balanced: the parts of a
/// [`ScoredMode`] that do not depend on scheduling its replicas.
struct PartitionedMode {
    padding: PaddingStats,
    num_micro_batches: usize,
    actual_tokens: u64,
}

/// One replica's schedule, scored: what [`plan_replica`] builds before it
/// plans communication.
struct ScoredReplica {
    /// Micro-batch shapes in injection order.
    shapes: Vec<MicroBatchShape>,
    schedule: Schedule,
    timeline: Timeline,
    peaks: Vec<Bytes>,
}

/// Relative slack of the §7 sweep's bound tests: a mode is dropped only
/// when `bound × (1 − BOUND_SLACK) > best`.
///
/// A bound and the estimate it bounds are computed from the same
/// durations by different rounded sums. A sum of `n` nonnegative terms is
/// within `n · 2^-53` of its exact value, relatively, and `min`/`max` are
/// exact; the estimate's longest chain adds at most `4 · m · c` terms for
/// `m` micro-batches on `c` stages, the replica bound about `2m + 4c`, and
/// the Eq. 2 bound's sum at most one per sample. The sweep prunes only
/// when a plan's samples `n` (which bound its micro-batches) keep
/// `n · (4c + 2)` under [`MAX_BOUND_TERMS`] = 2^22, so both sides move by
/// less than `2^22 · 2^-53 = 2^-31` each, and `BOUND_SLACK` = 10^-9 >
/// 2 · 2^-31 covers them: a dropped mode's exact estimate, and its
/// computed one, lie strictly above `best`.
const BOUND_SLACK: f64 = 1e-9;

/// Rounded additions a bound test's slack covers (see [`BOUND_SLACK`]).
const MAX_BOUND_TERMS: usize = 1 << 22;

/// The lower bounds on a mode's estimate the §7 sweep drops modes with
/// (see `DynaPipePlanner::score_modes`).
struct Bounds {
    /// Gradient sync time every mode's estimate adds.
    dp_sync_time: Micros,
    /// Data-parallel degree `|D|`.
    dp: f64,
    /// Whether [`BOUND_SLACK`] covers the plan's rounding.
    prune: bool,
    /// Whether the Eq. 2 bound holds: one stage is the slowest of every
    /// slice shape ([`SliceFwdCosts::one_stage_dominates`]).
    eq2: bool,
}

impl Bounds {
    fn new(cm: &CostModel, ctx: &PlanContext<'_>) -> Bounds {
        let prune = ctx.ordered.len() * (4 * cm.num_stages() + 2) < MAX_BOUND_TERMS;
        Bounds {
            dp_sync_time: dp_sync_time(cm),
            dp: cm.parallel.dp.max(1) as f64,
            prune,
            eq2: prune && ctx.fwd.one_stage_dominates(),
        }
    }

    /// Whether a mode whose estimate is at least `bound` (up to rounding)
    /// lies strictly above `best`.
    fn rules_out(&self, bound: Micros, best: Micros) -> bool {
        self.prune && bound * (1.0 - BOUND_SLACK) > best
    }

    /// The Eq. 2 bound's test. `least_sum` is the least `Σ t(M)` of any
    /// split ([`Partitioner::partition_until`]'s `S`). The mode's split
    /// sums to at least that, so one of its `|D|` replicas gets at least
    /// `S / |D|` of it. Where one stage is the slowest of every shape, a
    /// micro-batch's `t(M)` is that stage's forward plus backward, and the
    /// stage runs them all in sequence, so that replica's makespan is at
    /// least `S / |D|` and the estimate at least `S / |D| + dp_sync_time`.
    fn rules_out_split(&self, least_sum: Micros, best: Micros) -> bool {
        self.eq2 && self.rules_out(least_sum / self.dp + self.dp_sync_time, best)
    }

    /// The replica bound of a partitioned mode: its replicas' largest
    /// [`makespan_lower_bound`] plus the gradient sync, a bound on the
    /// estimate under any schedule and reorder the planner picks.
    fn of_replicas<'i>(&self, inputs: impl Iterator<Item = &'i ScheduleInput>) -> Micros {
        let bound = inputs.fold(0.0, |b: Micros, input| b.max(makespan_lower_bound(input)));
        bound + self.dp_sync_time
    }
}

/// The state the tasks of one §7 sweep share, behind one lock.
struct SweepState {
    /// The lowest estimate of a fully scored mode; `+∞` until one is.
    best: Micros,
    /// Replicas queued for scoring and not yet claimed.
    queue: Vec<ReplicaWork>,
    /// Per mode of the sweep, in its order.
    modes: Vec<ModeState>,
}

/// What the sweep knows of one mode.
struct ModeState {
    /// Its partition's summary, or why it has none; `None` until then.
    partition: Option<Result<PartitionedMode, String>>,
    /// Each replica's score, once scored.
    replicas: Vec<Option<Result<ScoredReplica, String>>>,
    /// Whether a bound ruled the mode out.
    dropped: bool,
}

/// One partitioned replica waiting to be scheduled and evaluated.
struct ReplicaWork {
    /// Index of its mode in the sweep.
    mode: usize,
    replica: usize,
    /// Its mode's replica bound ([`Bounds::of_replicas`]).
    bound: Micros,
    shapes: Vec<MicroBatchShape>,
    input: ScheduleInput,
}

impl ReplicaWork {
    /// The order replica tasks claim in: lowest mode bound, then mode
    /// index, then replica index.
    fn claim_order(&self, other: &ReplicaWork) -> std::cmp::Ordering {
        self.bound
            .total_cmp(&other.bound)
            .then(self.mode.cmp(&other.mode))
            .then(self.replica.cmp(&other.replica))
    }
}

/// A mode's estimated iteration time: its slowest replica's makespan plus
/// the gradient sync.
fn estimate<'r>(
    replicas: impl IntoIterator<Item = &'r ScoredReplica>,
    dp_sync_time: Micros,
) -> Micros {
    replicas
        .into_iter()
        .map(|r| r.timeline.times.makespan)
        .fold(0.0, f64::max)
        + dp_sync_time
}

/// §7's choice after a sweep that may have dropped modes: what
/// [`finish_best`] over every mode scored would choose.
///
/// `swept` holds one entry per mode in mode order: `None` for a mode the
/// sweep dropped, else what `finish_best` takes. A mode is dropped only
/// when its estimate lies strictly above some scored mode's, so the
/// lowest scored estimate (the lower mode index on ties) is the lowest of
/// all, and `finish_best` would finish that mode first: this finishes it.
/// If it fails, `score_dropped` scores every dropped mode, and
/// `finish_best` runs over all modes with the failed one's finishing
/// error in its slot, which is where `finish_best` would have gone next.
fn finish_pruned<S, P, E>(
    mut swept: Vec<Option<Result<(Micros, S), E>>>,
    mut finish: impl FnMut(S) -> Result<P, E>,
    mut score_dropped: impl FnMut(usize) -> Result<(Micros, S), E>,
) -> Result<P, Option<E>> {
    let lowest = swept
        .iter()
        .enumerate()
        .filter_map(|(m, s)| match s {
            Some(Ok((est, _))) => Some((*est, m)),
            _ => None,
        })
        .min_by(|a, b| a.0.total_cmp(&b.0));
    if let Some((_, m)) = lowest {
        if let Some(Ok((_, payload))) = swept[m].take() {
            match finish(payload) {
                Ok(plan) => return Ok(plan),
                Err(e) => swept[m] = Some(Err(e)),
            }
        }
    }
    let scores = swept
        .into_iter()
        .enumerate()
        .map(|(m, s)| s.unwrap_or_else(|| score_dropped(m)))
        .collect();
    finish_best(scores, finish)
}

/// §7's choice over scored modes: finish modes in ascending estimate, the
/// lower mode index first on equal estimates, until one finishes.
///
/// `scores` holds one entry per mode in mode order: its estimate and
/// payload, or the error that stopped its scoring. The result is the
/// first finished plan; if no mode finishes, the error of the highest
/// mode index. That is what finishing every mode and folding them in mode
/// order with a strict `<` on the estimates gives, because a mode's
/// estimate does not depend on finishing it. Estimates are finite and
/// never `-0.0` (makespans fold up from `0.0`), so the ascending order is
/// that fold's order. `Err(None)` means there were no modes.
fn finish_best<S, P, E>(
    scores: Vec<Result<(Micros, S), E>>,
    mut finish: impl FnMut(S) -> Result<P, E>,
) -> Result<P, Option<E>> {
    let mut errors: Vec<Option<E>> = Vec::with_capacity(scores.len());
    let mut scored = Vec::new();
    for (mode, score) in scores.into_iter().enumerate() {
        match score {
            Ok((est, payload)) => {
                scored.push((est, mode, payload));
                errors.push(None);
            }
            Err(e) => errors.push(Some(e)),
        }
    }
    // A stable sort keeps mode order among equal estimates.
    scored.sort_by(|a, b| a.0.total_cmp(&b.0));
    for (_, mode, payload) in scored {
        match finish(payload) {
            Ok(plan) => return Ok(plan),
            Err(e) => errors[mode] = Some(e),
        }
    }
    Err(errors.into_iter().flatten().last())
}

impl DynaPipePlanner {
    /// Planner over `cm` with `config`.
    pub fn new(cm: Arc<CostModel>, config: PlannerConfig) -> Self {
        DynaPipePlanner { cm, config }
    }

    /// Plan one training iteration for `minibatch`.
    pub fn plan_iteration(&self, minibatch: &[Sample]) -> Result<IterationPlan, PlanError> {
        // lint:allow(wall-clock): planning-time measurement for RunReport stats, excluded from behavior_eq
        let t0 = Instant::now();
        let cm = &*self.cm;
        if minibatch.is_empty() {
            return Ok(IterationPlan {
                replicas: Vec::new(),
                recompute: RecomputeMode::None,
                est_iteration_time: 0.0,
                dp_sync_time: 0.0,
                padding: PaddingStats::default(),
                num_micro_batches: 0,
                actual_tokens: 0,
                planning_time_us: t0.elapsed().as_secs_f64() * 1e6,
            });
        }
        let mut samples = minibatch.to_vec();
        self.config.ordering.apply(cm.model.arch, &mut samples);
        let budget = self.planning_budget();
        if budget == 0 {
            return Err(PlanError::Infeasible("no activation budget".into()));
        }
        // §7 dynamic recomputation: plan under every recomputation scheme
        // and keep the plan with the best estimated iteration time.
        // Cheaper modes store more activations, which caps micro-batch
        // sizes — on activation-heavy models (T5's huge FFN), paying
        // recomputation to unlock larger micro-batches is a net win, so
        // "first feasible" would be wrong.
        //
        // Score, bound, finish: the modes are scored on the rayon pool,
        // each reading the context's shared shape and pricing passes, and
        // a mode whose bound exceeds a scored estimate is dropped; after
        // the sweep only the chosen mode plans communication and verifies
        // (see `finish_pruned` for what happens if it fails).
        let ctx = self.plan_context(&samples, budget);
        let score = |scored: Result<ScoredMode, String>, mode: RecomputeMode| {
            scored
                .map(|s| (s.est_iteration_time, s))
                .map_err(|e| format!("{} recomputation: {e}", mode.label()))
        };
        let swept = self
            .score_modes(&ctx, &RecomputeMode::ALL)
            .into_iter()
            .zip(RecomputeMode::ALL)
            .map(|(scored, mode)| scored.map(|s| score(s, mode)))
            .collect();
        let finish = |scored: ScoredMode| {
            let label = scored.recompute.label();
            finish_mode(cm, scored).map_err(|e| format!("{label} recomputation: {e}"))
        };
        let chosen = finish_pruned(swept, finish, |m| {
            let mode = RecomputeMode::ALL[m];
            let scored = self.score_modes(&ctx, &[mode]).pop().flatten();
            score(scored.expect("a sweep of one mode drops none"), mode)
        });
        match chosen {
            Ok(mut plan) => {
                plan.planning_time_us = t0.elapsed().as_secs_f64() * 1e6;
                Ok(plan)
            }
            Err(last_err) => Err(PlanError::Infeasible(
                last_err.unwrap_or_else(|| "no recompute mode attempted".into()),
            )),
        }
    }

    /// Build the reusable planning context for an ordered mini-batch: runs
    /// the DP partitioner's mode-independent shape pass and cost table
    /// once so the §7 sweep (and any caller comparing modes) shares them.
    pub fn plan_context<'a>(&self, ordered: &'a [Sample], budget: Bytes) -> PlanContext<'a> {
        let shapes = SliceShapes::build(self.cm.model.arch, ordered, self.config.max_mb_samples);
        let fwd = SliceFwdCosts::build(&self.cm, &shapes);
        PlanContext {
            ordered,
            budget,
            shapes,
            fwd,
        }
    }

    /// Plan the (already ordered) samples under one fixed recomputation
    /// mode: score it, then finish it. Exposed for the recomputation
    /// ablation; builds a fresh context.
    pub fn plan_with_mode(
        &self,
        ordered: &[Sample],
        budget: Bytes,
        mode: RecomputeMode,
    ) -> Result<IterationPlan, String> {
        let ctx = self.plan_context(ordered, budget);
        let scored = self.score_modes(&ctx, &[mode]).pop().flatten();
        finish_mode(&self.cm, scored.expect("a sweep of one mode drops none")?)
    }

    /// Score each of `modes` against a shared [`PlanContext`], as FIFO
    /// tasks on the rayon pool, dropping the modes a bound proves cannot
    /// win (`None`).
    ///
    /// A mode's task partitions (re-pricing nothing: the context priced
    /// every mode), balances across replicas and builds each replica's
    /// [`ScheduleInput`], then queues the replicas' work and one task per
    /// replica. A replica task claims the queued replica of the lowest
    /// mode bound (then mode, then replica index), so the modes likely to
    /// win are scored first, and schedules and evaluates it. With three
    /// equal modes on two threads, the thread that finishes its first
    /// partition picks up the third mode, then both share the replica
    /// tasks, where a task per mode would leave one thread idle for about
    /// a whole mode.
    ///
    /// Once a mode is fully scored its estimate is the sweep's `best` if
    /// it is the lowest yet, and a mode whose estimate a bound puts
    /// strictly above `best` is dropped (see [`Bounds::rules_out`]): its
    /// partition's `t_max` search stops at its next solve (the Eq. 2
    /// bound), or its replicas are not queued or not scored (the replica
    /// bound). Which modes are dropped depends on timing; the ones left
    /// never do, and the lowest estimate is never dropped.
    ///
    /// Results come back in `modes` order, assembled from per-mode slots.
    /// A mode reports its partitioning error, or else its first failing
    /// replica's error in replica order: what scoring the replicas one
    /// after another and stopping at the first error reports. A sweep of
    /// one mode drops nothing.
    fn score_modes(
        &self,
        ctx: &PlanContext<'_>,
        modes: &[RecomputeMode],
    ) -> Vec<Option<Result<ScoredMode, String>>> {
        let cm = &*self.cm;
        let dp = cm.parallel.dp.max(1);
        let bounds = Bounds::new(cm, ctx);
        let state = Mutex::new(SweepState {
            best: f64::INFINITY,
            queue: Vec::new(),
            modes: modes
                .iter()
                .map(|_| ModeState {
                    partition: None,
                    replicas: (0..dp).map(|_| None).collect(),
                    dropped: false,
                })
                .collect(),
        });
        let (bounds, shared) = (&bounds, &state);
        let lock = || shared.lock().expect("a sweep task panicked");
        rayon::scope_fifo(|s| {
            for (m, &mode) in modes.iter().enumerate() {
                s.spawn_fifo(move |s| {
                    let stop = |least_sum| bounds.rules_out_split(least_sum, lock().best);
                    let Ok(partitioned) = self.partition_mode(ctx, mode, stop) else {
                        lock().modes[m].dropped = true;
                        return;
                    };
                    let Some((part, groups)) = partitioned else {
                        let e = "no feasible micro-batch split".to_string();
                        lock().modes[m].partition = Some(Err(e));
                        return;
                    };
                    debug_assert_eq!(groups.len(), dp);
                    let work: Vec<(Vec<MicroBatchShape>, ScheduleInput)> = groups
                        .into_iter()
                        .map(|shapes| {
                            let input = schedule_input_for(cm, &shapes, mode, ctx.budget);
                            (shapes, input)
                        })
                        .collect();
                    let bound = bounds.of_replicas(work.iter().map(|(_, input)| input));
                    let mut st = lock();
                    if bounds.rules_out(bound, st.best) {
                        st.modes[m].dropped = true;
                        return;
                    }
                    st.modes[m].partition = Some(Ok(part));
                    let queued = work.into_iter().enumerate();
                    st.queue
                        .extend(queued.map(|(replica, (shapes, input))| ReplicaWork {
                            mode: m,
                            replica,
                            bound,
                            shapes,
                            input,
                        }));
                    drop(st);
                    for _ in 0..dp {
                        s.spawn_fifo(move |_| self.score_claimed(shared, bounds));
                    }
                });
            }
        });
        let st = state.into_inner().expect("a sweep task panicked");
        let ran = "every task of the sweep ran";
        st.modes
            .into_iter()
            .zip(modes)
            .map(|(ms, &mode)| {
                if ms.dropped {
                    return None;
                }
                let scored = ms.partition.expect(ran).and_then(|part| {
                    let replicas = ms
                        .replicas
                        .into_iter()
                        .map(|r| r.expect(ran))
                        .collect::<Result<Vec<_>, _>>()?;
                    Ok(ScoredMode {
                        recompute: mode,
                        est_iteration_time: estimate(&replicas, bounds.dp_sync_time),
                        replicas,
                        dp_sync_time: bounds.dp_sync_time,
                        padding: part.padding,
                        num_micro_batches: part.num_micro_batches,
                        actual_tokens: part.actual_tokens,
                    })
                });
                Some(scored)
            })
            .collect()
    }

    /// One replica task of [`DynaPipePlanner::score_modes`]: claim the
    /// queued replica of the lowest mode bound and, unless its mode is
    /// dropped or now ruled out, schedule and evaluate it. The task that
    /// completes a mode's scores offers the mode's estimate as the
    /// sweep's best.
    fn score_claimed(&self, state: &Mutex<SweepState>, bounds: &Bounds) {
        let lock = || state.lock().expect("a sweep task panicked");
        let work = {
            let mut st = lock();
            let next = (0..st.queue.len())
                .min_by(|&a, &b| st.queue[a].claim_order(&st.queue[b]))
                .expect("one queued replica per replica task");
            let work = st.queue.swap_remove(next);
            let best = st.best;
            let ms = &mut st.modes[work.mode];
            if ms.dropped || bounds.rules_out(work.bound, best) {
                ms.dropped = true;
                return;
            }
            work
        };
        let scored = score_input(
            &self.cm,
            work.shapes,
            work.input,
            self.config.schedule,
            self.config.reorder_clusters,
        );
        let mut st = lock();
        let ms = &mut st.modes[work.mode];
        ms.replicas[work.replica] = Some(scored);
        if ms.dropped {
            return;
        }
        // `None` until every replica is scored, and if one failed.
        let scored: Option<Vec<&ScoredReplica>> = ms
            .replicas
            .iter()
            .map(|r| r.as_ref()?.as_ref().ok())
            .collect();
        if let Some(replicas) = scored {
            let est = estimate(replicas, bounds.dp_sync_time);
            st.best = st.best.min(est);
        }
    }

    /// Partition the context's samples under one recomputation mode and
    /// balance the micro-batches across data-parallel replicas: the
    /// mode's summary and each replica's micro-batch shapes, in replica
    /// order; `None` when no split fits the memory limit. `stop` is
    /// [`Partitioner::partition_until`]'s.
    fn partition_mode(
        &self,
        ctx: &PlanContext<'_>,
        mode: RecomputeMode,
        stop: impl FnMut(Micros) -> bool,
    ) -> Result<Option<(PartitionedMode, Vec<Vec<MicroBatchShape>>)>, Stopped> {
        let cm = &*self.cm;
        let ordered = ctx.ordered;
        let budget = ctx.budget;
        let c = cm.num_stages();
        // Per-micro-batch memory limit: 1F1B keeps up to c activations in
        // flight; the adaptive schedule self-limits, needing only a single
        // micro-batch to fit (§4 "Limit memory consumption").
        let per_mb_limit = match self.config.schedule {
            ScheduleKind::OneFOneB => budget / c.max(1) as u64,
            ScheduleKind::Adaptive { .. } => budget,
        };
        let dp_cfg = DpConfig {
            tmax_resolution_us: self.config.tmax_resolution_us,
            max_mb_samples: self.config.max_mb_samples,
            mb_memory_limit: per_mb_limit,
            recompute: mode,
            dp_degree: cm.parallel.dp,
            max_candidates: self.config.max_candidates,
            probe_stop_divisor: DpConfig::PROBE_STOP_DIVISOR,
        };
        let partitioner = Partitioner::new(cm, dp_cfg);
        let partitioned = partitioner.partition_until(&ctx.shapes, &ctx.fwd, ordered, stop)?;
        let Some(partition) = partitioned else {
            return Ok(None);
        };
        // Balance micro-batches across data-parallel replicas.
        let groups = karmarkar_karp(&partition.mb_times, cm.parallel.dp)
            .into_iter()
            .map(|mut idx| {
                idx.sort_unstable();
                idx.iter()
                    .map(|&i| partition.micro_batches[i].shape(cm.model.arch))
                    .collect()
            })
            .collect();
        let summary = PartitionedMode {
            padding: PaddingStats::from_micro_batches(&partition.micro_batches, cm.model.arch),
            num_micro_batches: partition.num_micro_batches(),
            actual_tokens: ordered.iter().map(|s| s.total_tokens() as u64).sum(),
        };
        Ok(Some((summary, groups)))
    }

    /// The activation budget the planner works against (device memory minus
    /// static state, scaled by [`DEFAULT_MEMORY_SAFETY`]).
    pub fn planning_budget(&self) -> Bytes {
        (self.cm.min_activation_budget() as f64 * DEFAULT_MEMORY_SAFETY) as Bytes
    }
}

/// Build the scheduler input for a replica's micro-batch shapes.
pub fn schedule_input_for(
    cm: &CostModel,
    shapes: &[MicroBatchShape],
    mode: RecomputeMode,
    budget: Bytes,
) -> ScheduleInput {
    let c = cm.num_stages();
    let fwd = shapes
        .iter()
        .map(|sh| (0..c).map(|j| cm.stage_fwd(j, sh)).collect())
        .collect();
    let bwd = shapes
        .iter()
        .map(|sh| (0..c).map(|j| cm.stage_bwd(j, sh, mode)).collect())
        .collect();
    let act = shapes
        .iter()
        .map(|sh| (0..c).map(|j| cm.stage_activation(j, sh, mode)).collect())
        .collect();
    let comm = shapes
        .iter()
        .map(|sh| {
            (0..c.saturating_sub(1))
                .map(|j| {
                    let bytes = cm.boundary_bytes(j, sh);
                    let a = j * cm.parallel.tp;
                    let b = (j + 1) * cm.parallel.tp;
                    cm.hw.p2p_time(bytes, cm.hw.same_node(a, b))
                })
                .collect()
        })
        .collect();
    // Use each stage's own budget, capped by the requested global budget.
    let mem_limit = (0..c)
        .map(|j| cm.activation_budget(j).min(budget))
        .collect();
    ScheduleInput {
        fwd,
        bwd,
        act,
        mem_limit,
        comm,
    }
}

/// Schedule, plan communication and verify one replica.
pub fn plan_replica(
    cm: &CostModel,
    shapes: &[MicroBatchShape],
    mode: RecomputeMode,
    kind: ScheduleKind,
    budget: Bytes,
    reorder_clusters: usize,
) -> Result<ReplicaPlan, String> {
    let scored = score_replica(cm, shapes, mode, kind, budget, reorder_clusters)?;
    finish_replica(cm, scored, mode)
}

/// Schedule and evaluate one replica: [`plan_replica`] up to
/// communication planning.
fn score_replica(
    cm: &CostModel,
    shapes: &[MicroBatchShape],
    mode: RecomputeMode,
    kind: ScheduleKind,
    budget: Bytes,
    reorder_clusters: usize,
) -> Result<ScoredReplica, String> {
    let input = schedule_input_for(cm, shapes, mode, budget);
    score_input(cm, shapes.to_vec(), input, kind, reorder_clusters)
}

/// [`score_replica`] from the replica's built [`schedule_input_for`].
fn score_input(
    cm: &CostModel,
    shapes: Vec<MicroBatchShape>,
    input: ScheduleInput,
    kind: ScheduleKind,
    reorder_clusters: usize,
) -> Result<ScoredReplica, String> {
    // The reorder search builds and evaluates the winning order's
    // schedule; keep it rather than build it again. With no winner the
    // identity order is scheduled below, as the search reports it.
    let reordered = match kind {
        ScheduleKind::Adaptive { reorder: true } if shapes.len() > 1 => reorder_with_schedule(
            &input,
            &ReorderConfig {
                num_clusters: reorder_clusters,
            },
        ),
        _ => None,
    };
    let (input, shapes, schedule, timeline) = match reordered {
        Some(r) => {
            let sh = r.order.iter().map(|&i| shapes[i]).collect();
            (r.input, sh, r.schedule, Some(r.timeline))
        }
        None => {
            let schedule = match kind {
                ScheduleKind::OneFOneB => one_f_one_b(shapes.len(), cm.num_stages()),
                ScheduleKind::Adaptive { .. } => adaptive_schedule(&input),
            };
            (input, shapes, schedule, None)
        }
    };
    // Memory feasibility: the adaptive schedule honours limits by
    // construction; 1F1B must be checked.
    let peaks = schedule.peak_memory(&input.act);
    for (j, &p) in peaks.iter().enumerate() {
        if p > input.mem_limit[j] {
            return Err(format!(
                "stage {j} peak activation {p} B exceeds limit {} B (OOM)",
                input.mem_limit[j]
            ));
        }
    }
    let timeline = match timeline {
        Some(t) => t,
        None => evaluate_schedule(&schedule, &input)?,
    };
    Ok(ScoredReplica {
        shapes,
        schedule,
        timeline,
        peaks,
    })
}

/// Plan communication for a scored replica and verify it.
fn finish_replica(
    cm: &CostModel,
    scored: ScoredReplica,
    mode: RecomputeMode,
) -> Result<ReplicaPlan, String> {
    let c = cm.num_stages();
    let boundary_bytes: Vec<Vec<Bytes>> = scored
        .shapes
        .iter()
        .map(|sh| {
            (0..c.saturating_sub(1))
                .map(|j| cm.boundary_bytes(j, sh))
                .collect()
        })
        .collect();
    let plan = plan_communication(&PlanInputs {
        schedule: &scored.schedule,
        timeline: &scored.timeline,
        boundary_bytes: &boundary_bytes,
        shapes: &scored.shapes,
        recompute: mode,
    });
    plan.validate()?;
    verify_deadlock_free(&plan).map_err(|e| e.to_string())?;
    Ok(ReplicaPlan {
        est_makespan: scored.timeline.times.makespan,
        est_peak_memory: scored.peaks,
        plan,
        schedule: scored.schedule,
    })
}

/// Finish a scored mode: plan communication for and verify every replica,
/// one pool task per replica; on failure, the first failing replica's
/// error in replica order.
fn finish_mode(cm: &CostModel, scored: ScoredMode) -> Result<IterationPlan, String> {
    let mode = scored.recompute;
    let replicas = in_tasks(scored.replicas, |r| finish_replica(cm, r, mode))
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    Ok(IterationPlan {
        replicas,
        recompute: mode,
        est_iteration_time: scored.est_iteration_time,
        dp_sync_time: scored.dp_sync_time,
        padding: scored.padding,
        num_micro_batches: scored.num_micro_batches,
        actual_tokens: scored.actual_tokens,
        planning_time_us: 0.0,
    })
}

/// `f` of every item, in item order: one FIFO task per item on the rayon
/// pool, or inline for a single item (no helper to wake for it).
fn in_tasks<T: Send, U: Send + Sync>(items: Vec<T>, f: impl Fn(T) -> U + Sync) -> Vec<U> {
    if items.len() < 2 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<OnceLock<U>> = items.iter().map(|_| OnceLock::new()).collect();
    let f = &f;
    rayon::scope_fifo(|s| {
        for (item, slot) in items.into_iter().zip(&slots) {
            s.spawn_fifo(move |_| {
                let _ = slot.set(f(item));
            });
        }
    });
    let ran = "every task of the scope ran";
    slots
        .into_iter()
        .map(|s| s.into_inner().expect(ran))
        .collect()
}

/// Data-parallel gradient synchronization time for the deployment.
pub fn dp_sync_time(cm: &CostModel) -> Micros {
    if cm.parallel.dp <= 1 {
        return 0.0;
    }
    let spans_nodes = cm.parallel.num_gpus() > cm.hw.gpus_per_node;
    (0..cm.num_stages())
        .map(|j| {
            let params = cm
                .mem
                .stage_params(&cm.model, cm.layout.stage(j), cm.parallel.tp);
            cm.hw
                .dp_gradient_sync_time(params, cm.parallel.dp, spans_nodes)
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynapipe_cost::ProfileOptions;
    use dynapipe_data::Dataset;
    use dynapipe_model::{HardwareModel, ModelArch, ModelConfig, ParallelConfig};

    #[test]
    fn dp_sync_crosses_nodes_only_past_one_node() {
        // Replicas on exactly one node's GPUs synchronize over the node's
        // links; one more node's worth puts the sync on the network.
        let hw = HardwareModel::a100_cluster();
        let node = hw.gpus_per_node;
        for (dp, spans_nodes) in [(2, false), (4, true)] {
            let cm = CostModel::build(
                hw.clone(),
                ModelConfig::gpt_3_35b(),
                ParallelConfig::new(dp, 1, node / 2),
                &ProfileOptions::coarse(),
            );
            assert_eq!(cm.parallel.num_gpus() > node, spans_nodes);
            let sync = |spans: bool| {
                (0..cm.num_stages())
                    .map(|j| {
                        let params = cm.mem.stage_params(&cm.model, cm.layout.stage(j), 1);
                        cm.hw.dp_gradient_sync_time(params, dp, spans)
                    })
                    .fold(0.0, f64::max)
            };
            assert_ne!(sync(false), sync(true), "dp={dp}");
            assert_eq!(
                dp_sync_time(&cm).to_bits(),
                sync(spans_nodes).to_bits(),
                "dp={dp} on {} GPUs",
                cm.parallel.num_gpus()
            );
        }
    }

    fn planner(pp: usize, dp: usize) -> DynaPipePlanner {
        // GPT-3.35B fits comfortably in these small test deployments
        // (6.7B at tp=1 genuinely exceeds 40 GB of model state per stage).
        let cm = Arc::new(CostModel::build(
            HardwareModel::a100_cluster(),
            ModelConfig::gpt_3_35b(),
            ParallelConfig::new(dp, 1, pp),
            &ProfileOptions::coarse(),
        ));
        DynaPipePlanner::new(cm, PlannerConfig::default())
    }

    fn minibatch(n: usize) -> Vec<Sample> {
        let d = Dataset::flanv2(17, n);
        d.samples.iter().map(|s| s.truncated(2048)).collect()
    }

    /// One synthetic mode: the error that stops its scoring, or its
    /// estimate and whether it finishes.
    #[derive(Clone, Copy, Debug)]
    enum Synthetic {
        ScoreFails,
        Scored(Micros, bool),
    }

    fn synthetic_scores(modes: &[Synthetic]) -> Vec<Result<(Micros, usize), String>> {
        modes
            .iter()
            .enumerate()
            .map(|(m, s)| match *s {
                Synthetic::ScoreFails => Err(format!("mode {m} does not score")),
                Synthetic::Scored(est, _) => Ok((est, m)),
            })
            .collect()
    }

    /// Run `finish_best` over synthetic modes, recording the order in
    /// which modes are finished.
    fn run_finish_best(modes: &[Synthetic]) -> (Result<usize, Option<String>>, Vec<usize>) {
        let mut finished = Vec::new();
        let chosen = finish_best(synthetic_scores(modes), |m| {
            finished.push(m);
            match modes[m] {
                Synthetic::Scored(_, true) => Ok(m),
                _ => Err(format!("mode {m} does not finish")),
            }
        });
        (chosen, finished)
    }

    /// Finishing every mode and folding in mode order, keeping a later
    /// plan only on a strictly lower estimate, and the last error.
    fn mode_order_fold(modes: &[Synthetic]) -> Result<usize, Option<String>> {
        let mut best: Option<(Micros, usize)> = None;
        let mut last_err = None;
        for (m, s) in modes.iter().enumerate() {
            match *s {
                Synthetic::ScoreFails => last_err = Some(format!("mode {m} does not score")),
                Synthetic::Scored(_, false) => last_err = Some(format!("mode {m} does not finish")),
                Synthetic::Scored(est, true) => {
                    if best.is_none_or(|(b, _)| est < b) {
                        best = Some((est, m));
                    }
                }
            }
        }
        best.map(|(_, m)| m).ok_or(last_err)
    }

    #[test]
    fn best_scored_mode_that_fails_to_finish_yields_to_the_next() {
        use Synthetic::*;
        // Mode 1 scores best but fails to finish; mode 2 is next by
        // estimate, mode 0 is never finished.
        let modes = [Scored(9.0, true), Scored(3.0, false), Scored(5.0, true)];
        let (chosen, finished) = run_finish_best(&modes);
        assert_eq!(chosen, Ok(2));
        assert_eq!(finished, [1, 2]);
    }

    #[test]
    fn equal_estimates_go_to_the_lower_mode_index() {
        use Synthetic::*;
        let modes = [ScoreFails, Scored(4.0, true), Scored(4.0, true)];
        let (chosen, finished) = run_finish_best(&modes);
        assert_eq!(chosen, Ok(1));
        assert_eq!(finished, [1]);
        // A tie whose lower index fails to finish goes to the higher one.
        let modes = [Scored(4.0, false), Scored(4.0, true), Scored(2.0, false)];
        let (chosen, finished) = run_finish_best(&modes);
        assert_eq!(chosen, Ok(1));
        assert_eq!(finished, [2, 0, 1]);
    }

    #[test]
    fn when_every_mode_fails_the_last_modes_error_is_reported() {
        use Synthetic::*;
        let modes = [Scored(1.0, false), Scored(2.0, false), ScoreFails];
        assert_eq!(
            run_finish_best(&modes).0,
            Err(Some("mode 2 does not score".into()))
        );
        let modes = [ScoreFails, Scored(2.0, false), Scored(1.0, false)];
        assert_eq!(
            run_finish_best(&modes).0,
            Err(Some("mode 2 does not finish".into()))
        );
        assert_eq!(run_finish_best(&[]).0, Err(None));
    }

    #[test]
    fn finish_best_matches_the_mode_order_fold_exhaustively() {
        // Every combination of three modes that fail to score, or score
        // one of two estimates and finish or not: the same plan or error
        // as finishing every mode and folding in mode order, with each
        // mode finished at most once and none after the chosen one.
        use Synthetic::*;
        let kinds = [
            ScoreFails,
            Scored(1.0, true),
            Scored(1.0, false),
            Scored(2.0, true),
            Scored(2.0, false),
        ];
        for a in kinds {
            for b in kinds {
                for c in kinds {
                    let modes = [a, b, c];
                    let fold = mode_order_fold(&modes);
                    let (chosen, finished) = run_finish_best(&modes);
                    assert_eq!(chosen, fold, "{modes:?}");
                    assert_finished_once(&modes, &chosen, &finished);
                    // Every set of modes the sweep may drop: each strictly
                    // above a mode it keeps scored, or failing to score
                    // where a kept mode scored. The winner may fail to
                    // finish; then the dropped modes are scored.
                    for mask in 0..1u32 << modes.len() {
                        let dropped: Vec<bool> =
                            (0..modes.len()).map(|m| mask & 1 << m != 0).collect();
                        if !droppable(&modes, &dropped) {
                            continue;
                        }
                        let case = format!("{modes:?} dropping {dropped:?}");
                        let (chosen, finished, rescored) = run_finish_pruned(&modes, &dropped);
                        assert_eq!(chosen, fold, "{case}");
                        assert_finished_once(&modes, &chosen, &finished);
                        assert!(rescored.iter().all(|&m| dropped[m]), "{case}: {rescored:?}");
                        let first_finishes = finished
                            .first()
                            .is_some_and(|&m| matches!(modes[m], Scored(_, true)));
                        assert!(!first_finishes || rescored.is_empty(), "{case}");
                    }
                }
            }
        }
    }

    /// Each mode finished at most once, the chosen one last.
    fn assert_finished_once(
        modes: &[Synthetic],
        chosen: &Result<usize, Option<String>>,
        finished: &[usize],
    ) {
        let mut once = finished.to_vec();
        once.sort_unstable();
        once.dedup();
        assert_eq!(once.len(), finished.len(), "{modes:?}: finished twice");
        if let Ok(m) = chosen {
            assert_eq!(finished.last(), Some(m), "{modes:?}");
        }
    }

    /// Whether a sweep may drop the `dropped` modes: each lies strictly
    /// above a kept scored mode, or fails to score while one is kept.
    fn droppable(modes: &[Synthetic], dropped: &[bool]) -> bool {
        let kept_best = (0..modes.len())
            .filter(|&m| !dropped[m])
            .filter_map(|m| match modes[m] {
                Synthetic::Scored(est, _) => Some(est),
                Synthetic::ScoreFails => None,
            })
            .fold(f64::INFINITY, f64::min);
        (0..modes.len())
            .filter(|&m| dropped[m])
            .all(|m| match modes[m] {
                Synthetic::Scored(est, _) => est > kept_best,
                Synthetic::ScoreFails => kept_best.is_finite(),
            })
    }

    /// Run `finish_pruned` over synthetic modes with `dropped` dropped:
    /// the choice, the modes finished in order, and the dropped modes
    /// scored afterwards.
    fn run_finish_pruned(
        modes: &[Synthetic],
        dropped: &[bool],
    ) -> (Result<usize, Option<String>>, Vec<usize>, Vec<usize>) {
        let all = synthetic_scores(modes);
        let swept = all
            .iter()
            .zip(dropped)
            .map(|(s, &d)| (!d).then(|| s.clone()))
            .collect();
        let (mut finished, mut rescored) = (Vec::new(), Vec::new());
        let chosen = finish_pruned(
            swept,
            |m| {
                finished.push(m);
                match modes[m] {
                    Synthetic::Scored(_, true) => Ok(m),
                    _ => Err(format!("mode {m} does not finish")),
                }
            },
            |m| {
                rescored.push(m);
                all[m].clone()
            },
        );
        (chosen, finished, rescored)
    }

    /// `f` under a pool of each width the sweep's tests compare.
    fn under_caps<R>(f: impl Fn() -> R) -> Vec<R> {
        [1, 2, 4]
            .map(|t| {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(t).build();
                pool.unwrap().install(&f)
            })
            .into()
    }

    /// `plan_iteration` as it was before the sweep dropped modes: every
    /// mode scored in full on its own, then `finish_best` over all.
    fn unpruned_plan(p: &DynaPipePlanner, batch: &[Sample]) -> Result<IterationPlan, String> {
        let mut samples = batch.to_vec();
        p.config.ordering.apply(p.cm.model.arch, &mut samples);
        let ctx = p.plan_context(&samples, p.planning_budget());
        let label = |mode: RecomputeMode, e| format!("{} recomputation: {e}", mode.label());
        let scores = RecomputeMode::ALL
            .map(|mode| {
                let scored = p.score_modes(&ctx, &[mode]).pop().flatten().unwrap();
                scored
                    .map(|s| (s.est_iteration_time, s))
                    .map_err(|e| label(mode, e))
            })
            .into();
        finish_best(scores, |s| {
            let mode = s.recompute;
            finish_mode(&p.cm, s).map_err(|e| label(mode, e))
        })
        .map_err(|e| e.unwrap())
    }

    /// The cases the sweep's equality tests plan: GPT dp1 and dp2 on the
    /// coarse profile (whose largest micro-batches extrapolate past it)
    /// and on the full one (every shape within it, so the Eq. 2 bound
    /// applies), T5 (whose slowest stage differs per shape), and 1F1B.
    fn sweep_cases() -> Vec<(&'static str, DynaPipePlanner, Vec<Sample>)> {
        let full = |pp: usize, dp: usize| {
            let cm = CostModel::build(
                HardwareModel::a100_cluster(),
                ModelConfig::gpt_3_35b(),
                ParallelConfig::new(dp, 1, pp),
                &ProfileOptions::default(),
            );
            DynaPipePlanner::new(Arc::new(cm), PlannerConfig::default())
        };
        let t5 = Arc::new(CostModel::build(
            HardwareModel::a100_cluster(),
            ModelConfig::t5_11b(),
            ParallelConfig::new(1, 4, 2),
            &ProfileOptions::coarse(),
        ));
        let one_f_one_b = PlannerConfig {
            schedule: ScheduleKind::OneFOneB,
            ..Default::default()
        };
        vec![
            ("GPT dp1", planner(4, 1), minibatch(96)),
            ("GPT dp2", planner(2, 2), minibatch(128)),
            ("GPT dp1 full profile", full(4, 1), minibatch(96)),
            ("GPT dp2 full profile", full(2, 2), minibatch(128)),
            (
                "T5",
                DynaPipePlanner::new(t5, PlannerConfig::default()),
                Dataset::flanv2(29, 300)
                    .samples
                    .iter()
                    .map(|s| s.truncated(512))
                    .collect(),
            ),
            (
                "GPT dp2 1F1B",
                DynaPipePlanner::new(planner(2, 2).cm, one_f_one_b),
                minibatch(64),
            ),
        ]
    }

    #[test]
    fn plan_iteration_is_identical_under_every_thread_count() {
        // The sweep's tasks land on threads in a different order per run
        // and per width, and which modes it drops varies with them; the
        // plan must not depend on it, and must be the plan of the sweep
        // that drops nothing.
        for (label, p, batch) in sweep_cases() {
            let mut unpruned = unpruned_plan(&p, &batch).unwrap();
            unpruned.planning_time_us = 0.0;
            let plans = under_caps(|| {
                let mut plan = p.plan_iteration(&batch).unwrap();
                plan.planning_time_us = 0.0;
                plan
            });
            assert_eq!(plans[0].replicas.len(), p.cm.parallel.dp, "{label}");
            assert_eq!(plans[0], unpruned, "{label}: 1 thread");
            assert_eq!(plans[1], unpruned, "{label}: 2 threads");
            assert_eq!(plans[2], unpruned, "{label}: 4 threads");
        }
    }

    #[test]
    fn the_sweep_drops_modes_and_keeps_the_winner() {
        // On one thread the sweep partitions every mode before scoring
        // any replica, then scores the lowest bound's replicas first, so
        // which modes the replica bound drops is fixed. A dropped mode's
        // estimate lies above the kept winner's.
        let mut dropped = 0;
        for (label, p, batch) in sweep_cases() {
            let mut samples = batch.clone();
            p.config.ordering.apply(p.cm.model.arch, &mut samples);
            let ctx = p.plan_context(&samples, p.planning_budget());
            let one = rayon::ThreadPoolBuilder::new().num_threads(1).build();
            let swept = one
                .unwrap()
                .install(|| p.score_modes(&ctx, &RecomputeMode::ALL));
            let kept = swept
                .iter()
                .flatten()
                .filter_map(|s| s.as_ref().ok())
                .map(|s| s.est_iteration_time)
                .fold(f64::INFINITY, f64::min);
            for (s, mode) in swept.iter().zip(RecomputeMode::ALL) {
                if s.is_none() {
                    dropped += 1;
                    let alone = p.score_modes(&ctx, &[mode]).pop().flatten().unwrap();
                    if let Ok(alone) = alone {
                        assert!(alone.est_iteration_time > kept, "{label} {mode:?}");
                    }
                }
            }
        }
        assert!(dropped > 0, "no case exercises a dropped mode");
    }

    #[test]
    fn eq2_bound_holds_on_gpt_and_is_not_applied_to_t5() {
        // The least `Σ t(M)` the partitioner's first solve finds, over
        // `|D|`, plus the sync, never rules out a mode against its own
        // estimate. T5's encoder and decoder stages each lack the other's
        // layers, so no stage is the slowest of every shape there.
        let mut checked = 0;
        for (label, p, batch) in sweep_cases() {
            let mut samples = batch.clone();
            p.config.ordering.apply(p.cm.model.arch, &mut samples);
            let ctx = p.plan_context(&samples, p.planning_budget());
            let bounds = Bounds::new(&p.cm, &ctx);
            if p.cm.model.arch == ModelArch::T5 {
                assert!(!bounds.eq2, "{label}");
            }
            for mode in RecomputeMode::ALL {
                let mut least_sum = None;
                let _ = p.partition_mode(&ctx, mode, |s| {
                    least_sum = Some(s);
                    true
                });
                let scored = p.score_modes(&ctx, &[mode]).pop().flatten().unwrap();
                if let (Some(s), Ok(scored)) = (least_sum, scored) {
                    let est = scored.est_iteration_time;
                    assert!(!bounds.rules_out(s / bounds.dp + bounds.dp_sync_time, est));
                    checked += usize::from(bounds.eq2);
                }
            }
        }
        assert!(checked >= 6, "{checked} GPT modes checked");
    }

    #[test]
    fn a_mode_failing_past_replica_0_reports_its_first_failing_replica() {
        // A per-layer overhead this large makes the partitioner pack short
        // samples into few big micro-batches, and a budget far above the
        // device's lets 1F1B's in-flight micro-batches overflow a stage.
        // In the first case replica 0 schedules and replica 1 does not; in
        // the second both fail, and replica 0's error is the one reported.
        let samples = |short: usize, long: usize| -> Vec<Sample> {
            let mut v: Vec<Sample> = (0..short + long)
                .map(|i| Sample {
                    id: i as u64,
                    task: 0,
                    input_len: if i < short {
                        30 + (i * 7) % 50
                    } else {
                        1500 + (i * 131) % 500
                    },
                    target_len: if i < short { 5 + i % 9 } else { 100 },
                })
                .collect();
            dynapipe_batcher::sort_samples(dynapipe_model::ModelArch::Gpt, &mut v);
            v
        };
        let cases = [
            (1e3, samples(256, 4), [true, false]),
            (1e4, samples(200, 8), [false, false]),
        ];
        for (overhead, batch, replica_ok) in cases {
            let mut hw = HardwareModel::a100_cluster();
            hw.layer_overhead_us = overhead;
            let cm = Arc::new(CostModel::build(
                hw,
                ModelConfig::gpt_3_35b(),
                ParallelConfig::new(2, 1, 2),
                &ProfileOptions::coarse(),
            ));
            let cfg = PlannerConfig {
                schedule: ScheduleKind::OneFOneB,
                ..Default::default()
            };
            let p = DynaPipePlanner::new(cm, cfg);
            let budget = p.planning_budget() * 64;
            let mode = RecomputeMode::None;
            // Score the replicas one after another, as a serial sweep would.
            let (_, groups) = p
                .partition_mode(&p.plan_context(&batch, budget), mode, |_| false)
                .unwrap()
                .unwrap();
            let serial: Vec<Result<ScoredReplica, String>> = groups
                .iter()
                .map(|g| score_replica(&p.cm, g, mode, cfg.schedule, budget, cfg.reorder_clusters))
                .collect();
            assert_eq!(
                serial.iter().map(Result::is_ok).collect::<Vec<_>>(),
                replica_ok
            );
            let errs: Vec<String> = serial.into_iter().filter_map(Result::err).collect();
            if let [a, b] = &errs[..] {
                assert_ne!(a, b, "the replicas' errors do not tell them apart");
            }
            let first_err = errs[0].clone();
            for (t, got) in [1, 2, 4].iter().zip(under_caps(|| {
                p.plan_with_mode(&batch, budget, mode)
                    .map(|plan| plan.num_micro_batches)
            })) {
                assert_eq!(
                    got,
                    Err(first_err.clone()),
                    "overhead {overhead}, {t} threads"
                );
            }
        }
    }

    #[test]
    fn plan_iteration_produces_verified_plans() {
        let p = planner(4, 1);
        let plan = p.plan_iteration(&minibatch(48)).unwrap();
        assert_eq!(plan.replicas.len(), 1);
        assert!(plan.num_micro_batches >= 2);
        assert!(plan.est_iteration_time > 0.0);
        assert!(plan.planning_time_us > 0.0);
        for r in &plan.replicas {
            r.plan.validate().unwrap();
            verify_deadlock_free(&r.plan).unwrap();
        }
    }

    #[test]
    fn data_parallel_splits_micro_batches() {
        let p = planner(2, 2);
        let plan = p.plan_iteration(&minibatch(64)).unwrap();
        assert_eq!(plan.replicas.len(), 2);
        let total: usize = plan
            .replicas
            .iter()
            .map(|r| r.plan.num_micro_batches())
            .sum();
        assert_eq!(total, plan.num_micro_batches);
        assert!(plan.dp_sync_time > 0.0);
        // Replicas should be roughly balanced (KK): within 2.5x.
        let m0 = plan.replicas[0].est_makespan;
        let m1 = plan.replicas[1].est_makespan;
        assert!(m0.max(m1) / m0.min(m1) < 2.5, "m0={m0} m1={m1}");
    }

    #[test]
    fn planner_prefers_cheapest_recompute_mode() {
        let p = planner(4, 1);
        let plan = p.plan_iteration(&minibatch(32)).unwrap();
        // Plenty of memory for GPT-3.35B at msl 2048 on 4 stages:
        // no recomputation needed.
        assert_eq!(plan.recompute, RecomputeMode::None);
    }

    #[test]
    fn onefb_schedule_kind_produces_valid_plans() {
        let cm = planner(4, 1).cm;
        let mut cfg = PlannerConfig::default();
        cfg.schedule = ScheduleKind::OneFOneB;
        let p = DynaPipePlanner::new(cm, cfg);
        let plan = p.plan_iteration(&minibatch(48)).unwrap();
        for r in &plan.replicas {
            verify_deadlock_free(&r.plan).unwrap();
        }
    }

    #[test]
    fn empty_minibatch_plans_trivially() {
        let p = planner(2, 1);
        let plan = p.plan_iteration(&[]).unwrap();
        assert_eq!(plan.num_micro_batches, 0);
        assert_eq!(plan.actual_tokens, 0);
    }

    #[test]
    fn padding_efficiency_is_high() {
        // The DP split groups similar lengths: efficiency well above the
        // naive-padding disaster (<0.2 on FLANv2-like data).
        let p = planner(4, 1);
        let plan = p.plan_iteration(&minibatch(128)).unwrap();
        assert!(
            plan.padding.efficiency() > 0.6,
            "efficiency {}",
            plan.padding.efficiency()
        );
    }

    #[test]
    fn mode_selection_matches_best_single_mode() {
        // The planner must return the mode with the minimum estimated
        // iteration time among the feasible ones (§7's dynamic
        // recomputation) — not merely the first feasible.
        let p = planner(4, 1);
        let mut samples = minibatch(64);
        dynapipe_batcher::sort_samples(p.cm.model.arch, &mut samples);
        let budget = p.planning_budget();
        let chosen = p.plan_iteration(&samples).unwrap();
        let mut best_single = f64::INFINITY;
        for mode in RecomputeMode::ALL {
            if let Ok(plan) = p.plan_with_mode(&samples, budget, mode) {
                best_single = best_single.min(plan.est_iteration_time);
            }
        }
        assert!(
            (chosen.est_iteration_time - best_single).abs() / best_single < 1e-9,
            "chosen {} vs best single-mode {best_single}",
            chosen.est_iteration_time
        );
    }

    #[test]
    fn recompute_pays_off_on_activation_heavy_t5() {
        // T5's huge FFN makes stored activations the bottleneck: the
        // planner should find that a recomputation mode (bigger
        // micro-batches) beats storing everything.
        let cm = Arc::new(CostModel::build(
            HardwareModel::a100_cluster(),
            ModelConfig::t5_11b(),
            ParallelConfig::new(1, 4, 2),
            &ProfileOptions::coarse(),
        ));
        let p = DynaPipePlanner::new(cm, PlannerConfig::default());
        let mut samples: Vec<Sample> = Dataset::flanv2(29, 600)
            .samples
            .iter()
            .map(|s| s.truncated(512))
            .collect();
        dynapipe_batcher::sort_samples(p.cm.model.arch, &mut samples);
        let plan = p.plan_iteration(&samples).unwrap();
        assert_ne!(
            plan.recompute,
            RecomputeMode::None,
            "activation-bound T5 should choose a recomputation mode"
        );
        // And the choice must genuinely be at least as good as None.
        if let Ok(none_plan) = p.plan_with_mode(&samples, p.planning_budget(), RecomputeMode::None)
        {
            assert!(plan.est_iteration_time <= none_plan.est_iteration_time + 1e-6);
        }
    }

    #[test]
    fn est_peak_memory_within_budget() {
        let p = planner(4, 1);
        let plan = p.plan_iteration(&minibatch(64)).unwrap();
        for r in &plan.replicas {
            for (j, &peak) in r.est_peak_memory.iter().enumerate() {
                assert!(peak <= p.cm.activation_budget(j));
            }
        }
    }
}
