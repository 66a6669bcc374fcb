//! The dynamic-programming micro-batch partitioner (§4, Eq. 2).
//!
//! Given samples ordered by [`crate::ordering`], find the contiguous split
//! minimizing the iteration-time model
//! `(c-1)·max t(M) + Σ t(M)` (or its data-parallel variant with the sum
//! term divided by `|D|`). The inner problem — for a bound `t_max` on the
//! longest micro-batch, minimize `Σ t(M)` — has optimal substructure over
//! prefixes and is solved by the Eq. 2 recurrence; the outer problem sweeps
//! candidate `t_max` values sampled at a fixed resolution (the paper uses
//! 5 µs).
//!
//! The slice table behind the recurrence is built in **two passes**:
//!
//! 1. a *mode-independent shape pass* ([`SliceShapes`]) computes, once per
//!    mini-batch, the padded shape of every candidate slice via an
//!    incremental extent structure: extending a slice by one sample
//!    updates the running padded extents and the dedup lookup in O(1)
//!    amortized (extents change rarely on sorted batches, and while they
//!    are unchanged the shape id is a direct table index, not a hash) —
//!    on sorted real-world batches the slices collapse onto far fewer
//!    distinct padded shapes;
//! 2. a *pricing pass* ([`SliceFwdCosts`]) prices the distinct shapes
//!    under **every** [`RecomputeMode`] at once: it locates each shape's
//!    grid coordinates once and, in that one visit, evaluates the
//!    forward, backward, and every mode's `recompute_extra` and
//!    `activation` grids ([`dynapipe_cost::ShapePricer::price_every_mode`],
//!    on two threads that claim chunks of the shapes from one cursor).
//!
//! Each mode's partition then only compares the priced activation against
//! its memory limit, giving one time per distinct shape (`+∞` where the
//! shape does not fit), and the Eq. 2 recurrence reads each slice's time
//! through its shape id. No per-mode `(end, width)` table is built. The §7
//! recompute sweep in the planner builds both passes once per mini-batch
//! and runs only that per mode, instead of recomputing shapes, re-locating
//! coordinates and re-walking the grids `|modes|` times.
//!
//! The outer `t_max` sweep is an exact bound-driven search that skips most
//! Eq. 2 solves. It rests on one property: the minimum sum `S(t)` is
//! non-increasing in `t_max`, bit for bit in floating point, because a
//! larger bound admits a superset of slices and rounded `+`/`min` are
//! monotone. Infeasibility is downward-closed for the same reason. So a
//! solved candidate's sum bounds every smaller candidate's objective from
//! below, and whole runs of candidates are discarded without a solve. The
//! search returns the same partition as the full sweep in
//! [`Partitioner::partition_reference`], including its smallest-`t_max`
//! tie-break; see `Partitioner::sweep_tmax` and the equivalence tests.
//!
//! Each Eq. 2 solve also stops early within a row. Once per partition, the
//! sweep records each row's *rising run*: the leading cells whose slice
//! times do not decrease. A solve that meets a slice over `t_max` inside
//! that run skips to the run's end, because every later cell of the run is
//! at least as slow and would be skipped anyway; past the run it tests
//! every cell. On the profiled cost grids the run covers the whole row, so
//! a solve reads only the cells up to each row's first over-bound slice,
//! but the cut is exact whatever the prices (see
//! `Partitioner::solve_for_tmax`).
//!
//! Past the pricing pass the partitioner is single-threaded: the rest of
//! the planning parallelism lives one level up, in the planner's §7 sweep,
//! which runs the recompute modes' partitions concurrently. The sweep can
//! give up on a mode mid-search ([`Partitioner::partition_until`]): the
//! search's first solve, at the largest candidate, is the least `Σ t(M)`
//! of any split, and the search offers it to a `stop` test before each
//! later solve, which the sweep answers with its Eq. 2 bound.
//!
//! Memory awareness: micro-batches whose estimated activation footprint
//! exceeds the per-micro-batch limit are excluded from the recurrence, so
//! the resulting plan observes the device budget under the target pipeline
//! schedule's in-flight factor.

use crate::microbatch::MicroBatch;
use dynapipe_cost::{CostModel, ModePrices};
use dynapipe_data::Sample;
use dynapipe_model::memory::RecomputeMode;
use dynapipe_model::{Bytes, MicroBatchShape, Micros, ModelArch};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Partitioner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DpConfig {
    /// Resolution at which candidate `t_max` values are sampled (µs).
    /// The paper's evaluation uses 5 µs.
    pub tmax_resolution_us: Micros,
    /// Upper bound on samples per micro-batch (bounds the DP's inner loop).
    pub max_mb_samples: usize,
    /// Per-micro-batch activation memory limit (schedule-dependent: the
    /// device budget divided by the schedule's in-flight micro-batch count).
    pub mb_memory_limit: Bytes,
    /// Recomputation mode assumed for time and memory estimates.
    pub recompute: RecomputeMode,
    /// Data-parallel degree: 1 gives the pure Eq. 1 objective, larger
    /// values the hybrid objective with the sum term divided by `|D|`.
    pub dp_degree: usize,
    /// Target number of `t_max` resolution steps across the feasible
    /// slice-time range. When the 5 µs resolution would take more steps,
    /// the resolution is coarsened to `range / max_candidates` — the
    /// planner-side analogue of the paper's fixed-interval sampling, tuned
    /// for the reproduction's single-process experiment sweeps. It is not
    /// a hard cap: both ends of the range round up to a candidate, and
    /// floating-point rounding can add one more, so up to
    /// `max_candidates + 2` candidates can result.
    pub max_candidates: usize,
    /// Has no effect: the `t_max` search it used to tune is gone. Kept
    /// only so existing `DpConfig` literals that set it still compile; no
    /// code reads it.
    pub probe_stop_divisor: usize,
}

impl DpConfig {
    /// Value of [`DpConfig::probe_stop_divisor`], which has no effect.
    /// Kept only so existing `DpConfig` literals that name it compile.
    pub const PROBE_STOP_DIVISOR: usize = 16;

    /// Defaults matching the paper's evaluation settings.
    pub fn new(mb_memory_limit: Bytes) -> Self {
        DpConfig {
            tmax_resolution_us: 5.0,
            max_mb_samples: 256,
            mb_memory_limit,
            recompute: RecomputeMode::None,
            dp_degree: 1,
            max_candidates: 96,
            probe_stop_divisor: Self::PROBE_STOP_DIVISOR,
        }
    }
}

/// A computed partition of one mini-batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionResult {
    /// Ranges into the ordered sample list, in order.
    pub ranges: Vec<Range<usize>>,
    /// The micro-batches themselves.
    pub micro_batches: Vec<MicroBatch>,
    /// Estimated execution time of each micro-batch (`t(M)`).
    pub mb_times: Vec<Micros>,
    /// Objective value at the optimum.
    pub est_iteration_time: Micros,
    /// Realized maximum micro-batch time.
    pub t_max: Micros,
}

impl PartitionResult {
    /// Number of micro-batches.
    pub fn num_micro_batches(&self) -> usize {
        self.micro_batches.len()
    }
}

/// The DP partitioner, bound to a cost model.
pub struct Partitioner<'a> {
    cm: &'a CostModel,
    config: DpConfig,
}

/// Sentinel shape id for dense cells outside the valid `(end, k)` domain.
const NO_SHAPE: u32 = u32::MAX;

/// Multiply-xor hasher for the shape-dedup map: its keys are packed
/// integer extents, so SipHash's DoS resistance is wasted overhead in this
/// hot loop.
#[derive(Default)]
struct ExtentHasher(u64);

impl std::hash::Hasher for ExtentHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, x: u64) {
        // splitmix64-style finalizer over the previous state.
        let mut z = self.0 ^ x.wrapping_mul(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        self.0 = z ^ (z >> 31);
    }
}

/// Shape-dedup map keyed on packed extents.
type ShapeIdMap = HashMap<u64, u32, std::hash::BuildHasherDefault<ExtentHasher>>;

/// Pack padded extents (input, target) into one u64 key.
fn extent_key(eff_in: usize, eff_tg: usize) -> u64 {
    debug_assert!(eff_in < (1 << 32) && eff_tg < (1 << 32));
    (eff_in as u64) | (eff_tg as u64) << 32
}

/// The dedup side of the per-row incremental extent structure: each
/// distinct padded extent pair owns a per-batch-size id table. While a
/// row's running extents are unchanged — the common case on sorted
/// batches, where only a handful of samples raise the window maximum —
/// extending the slice by one sample resolves its shape id with a direct
/// table index instead of hashing a full shape key, making the extension
/// O(1) amortized (hashing happens only when the extents actually change).
#[derive(Default)]
struct ExtentDedup {
    /// `extent_key(eff_in, eff_tg)` → index into `ids`.
    groups: ShapeIdMap,
    /// Per extent group: its padded extents `(eff_in, eff_tg)`.
    extents: Vec<(usize, usize)>,
    /// Per extent group: shape ids indexed by `k` (batch size − 1), grown
    /// on demand; [`NO_SHAPE`] marks batch sizes not yet assigned.
    ids: Vec<Vec<u32>>,
    /// Number of shape ids assigned.
    len: u32,
}

impl ExtentDedup {
    /// Group index for an extent pair (inserting an empty group if new).
    fn group(&mut self, eff_in: usize, eff_tg: usize) -> usize {
        let next = self.ids.len() as u32;
        let g = *self
            .groups
            .entry(extent_key(eff_in, eff_tg))
            .or_insert(next);
        if g == next {
            self.ids.push(Vec::new());
            self.extents.push((eff_in, eff_tg));
        }
        g as usize
    }

    /// Shape id of batch size `k + 1` within `group`, assigning the next
    /// id on first use.
    fn id_at(&mut self, group: usize, k: usize) -> u32 {
        let row = &mut self.ids[group];
        if row.len() <= k {
            row.resize(k + 1, NO_SHAPE);
        }
        if row[k] == NO_SHAPE {
            row[k] = self.len;
            self.len += 1;
        }
        row[k]
    }

    /// The shape of every assigned id, in id order, in one allocation of
    /// exactly their number (the table is the shape pass's largest).
    fn shapes(&self, arch: ModelArch) -> Vec<MicroBatchShape> {
        let mut shapes = vec![MicroBatchShape::gpt(0, 0); self.len as usize];
        for (row, &(eff_in, eff_tg)) in self.ids.iter().zip(&self.extents) {
            for (k, &id) in row.iter().enumerate() {
                if id != NO_SHAPE {
                    shapes[id as usize] = match arch {
                        ModelArch::Gpt => MicroBatchShape::gpt(k + 1, eff_in),
                        ModelArch::T5 => MicroBatchShape::t5(k + 1, eff_in, eff_tg),
                    };
                }
            }
        }
        shapes
    }
}

/// The mode-independent pass over one ordered mini-batch: the padded shape
/// of every candidate slice, stored as ids into a deduplicated shape table.
///
/// Shapes depend only on the sample lengths, the model architecture and
/// the window width — not on the recomputation mode or memory limit — so
/// one `SliceShapes` is shared across the whole §7 recompute-mode sweep
/// (see [`Partitioner::shape_pass`] / [`Partitioner::partition_with_shapes`]).
pub struct SliceShapes {
    /// `cell[(end-1) * width + k]` = id of the padded shape of the slice
    /// covering samples `end-1-k .. end`, or [`NO_SHAPE`] outside the
    /// domain.
    cell: Vec<u32>,
    /// The distinct padded shapes referenced by `cell`.
    distinct: Vec<MicroBatchShape>,
    width: usize,
    n: usize,
    arch: ModelArch,
}

impl SliceShapes {
    /// Build the shape pass for `samples` with micro-batches capped at
    /// `max_mb_samples` samples.
    ///
    /// # Panics
    ///
    /// Panics (also in release builds) if the clamped window width
    /// exceeds 65535 samples or any sample's input/target length reaches
    /// 2^23 tokens (so GPT's combined input+target extent fits a 24-bit
    /// key field) — the packed shape keys and `u16` window offsets would
    /// otherwise truncate silently. Both are far beyond every real
    /// configuration (the paper caps micro-batches at 256 samples).
    pub fn build(arch: ModelArch, samples: &[Sample], max_mb_samples: usize) -> SliceShapes {
        let n = samples.len();
        let width = max_mb_samples.min(n).max(1);
        assert!(
            width <= u16::MAX as usize,
            "micro-batch window width {width} exceeds the supported 65535"
        );
        assert!(
            samples
                .iter()
                .all(|s| s.input_len < (1 << 23) && s.target_len < (1 << 23)),
            "sample lengths must stay below 2^23 tokens (so padded extents, \
             including GPT's input+target, fit the packed extent keys)"
        );
        let mut cell = vec![NO_SHAPE; n * width];
        let mut dedup = ExtentDedup::default();
        for end in 1..=n {
            // Per-row incremental extents: the slice covering `end-1-k..end`
            // extends the previous cell's slice by one sample at the left,
            // so the padded extents are a running max and the dedup group
            // is re-resolved only when a sample actually raises them.
            let mut max_in = 0usize;
            let mut max_tg = 0usize;
            let mut group = usize::MAX;
            for k in 0..width.min(end) {
                let s = &samples[end - 1 - k];
                // For GPT ordering, per-sample padding is on the combined
                // length; track both extents and combine below.
                let (s_in, s_tg) = match arch {
                    ModelArch::Gpt => (s.gpt_len(), 0),
                    ModelArch::T5 => (s.input_len, s.target_len),
                };
                if s_in > max_in || s_tg > max_tg || group == usize::MAX {
                    max_in = max_in.max(s_in);
                    max_tg = max_tg.max(s_tg);
                    let (eff_in, eff_tg) = match arch {
                        ModelArch::Gpt => (max_in.max(1), 0),
                        ModelArch::T5 => (max_in.max(1), max_tg.max(1)),
                    };
                    group = dedup.group(eff_in, eff_tg);
                }
                cell[(end - 1) * width + k] = dedup.id_at(group, k);
            }
        }
        SliceShapes {
            cell,
            distinct: dedup.shapes(arch),
            width,
            n,
            arch,
        }
    }

    /// Number of samples the pass covers.
    pub fn num_samples(&self) -> usize {
        self.n
    }

    /// The DP window width (max samples per micro-batch, clamped).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of distinct padded slice shapes (the pricing pass prices only
    /// these).
    pub fn num_distinct_shapes(&self) -> usize {
        self.distinct.len()
    }

    /// The distinct padded slice shapes (for diagnostics and benches).
    pub fn distinct_shapes(&self) -> &[MicroBatchShape] {
        &self.distinct
    }

    /// The architecture the shapes were padded for.
    pub fn arch(&self) -> ModelArch {
        self.arch
    }
}

/// The pricing pass over a [`SliceShapes`]: every distinct slice shape's
/// micro-batch time `t(M) = t_f + t_b` and activation bytes under every
/// recomputation mode, priced in one visit per shape of its grid cells (see
/// [`dynapipe_cost::ShapePricer::price_every_mode`]). The §7 sweep builds
/// it once per mini-batch; each mode's partition reads its own column and
/// applies its own memory limit. (The name predates the pricing of every
/// mode here; it stays because benchmark tooling builds it by name.)
pub struct SliceFwdCosts {
    /// Every mode's unmasked time and activation per distinct shape.
    prices: ModePrices,
}

impl SliceFwdCosts {
    /// Price the distinct shapes under every recomputation mode in one
    /// pass.
    pub fn build(cm: &CostModel, shapes: &SliceShapes) -> SliceFwdCosts {
        SliceFwdCosts {
            prices: cm.shape_pricer().price_every_mode(&shapes.distinct),
        }
    }

    /// Whether one stage is the slowest, forward and backward, of every
    /// slice shape under every mode (see
    /// [`dynapipe_cost::ModePrices::one_stage_dominates`]): then any
    /// partition's `Σ t(M)` is that stage's busy time.
    pub fn one_stage_dominates(&self) -> bool {
        self.prices.one_stage_dominates()
    }
}

/// The reference's dense per-(end, width) slice table for one
/// recomputation mode (see [`Partitioner::partition_reference`]).
struct SliceCosts {
    /// `time[(j-1) * width + k]` = t(M over samples `j-1-k .. j`).
    time: Vec<Micros>,
    /// Whether the slice fits the memory limit.
    feasible: Vec<bool>,
    width: usize,
    n: usize,
}

impl SliceCosts {
    /// Run Eq. 2 for one `t_max` over the dense table, skipping every
    /// slice that does not fit the memory limit; returns (`f(N)`, split
    /// back-pointers) or `None` if no feasible partition exists under the
    /// bound.
    fn solve(&self, t_max: Micros) -> Option<(Micros, Vec<usize>)> {
        EQ2_SOLVES.fetch_add(1, Ordering::Relaxed);
        let n = self.n;
        let mut f = vec![f64::INFINITY; n + 1];
        let mut back = vec![usize::MAX; n + 1];
        f[0] = 0.0;
        for end in 1..=n {
            for k in 0..self.width.min(end) {
                let idx = (end - 1) * self.width + k;
                if !self.feasible[idx] {
                    continue;
                }
                let t = self.time[idx];
                if t > t_max {
                    continue;
                }
                let start = end - 1 - k;
                let cand = f[start] + t;
                if cand < f[end] {
                    f[end] = cand;
                    back[end] = start;
                }
            }
        }
        f[n].is_finite().then_some((f[n], back))
    }
}

/// Eq. 2 solves run since process start, by every path (diagnostics).
static EQ2_SOLVES: AtomicU64 = AtomicU64::new(0);

/// Cumulative process-wide partitioner counters (diagnostics; relaxed
/// atomics, exact for single-threaded phases).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DpSolveStats {
    /// Eq. 2 solves, one per `t_max` candidate evaluated.
    pub eq2_solves: u64,
}

/// Snapshot the process-wide partitioner counters.
// lint:allow(pub-uncalled): counter for the integration test `optimized_sweep_solves_under_a_quarter_of_the_candidates` (batcher/tests/solve_count.rs)
pub fn dp_solve_stats() -> DpSolveStats {
    DpSolveStats {
        eq2_solves: EQ2_SOLVES.load(Ordering::Relaxed),
    }
}

impl DpSolveStats {
    /// Counter deltas since an earlier snapshot (saturating, so a
    /// snapshot pair taken out of order reads zero, not garbage).
    // lint:allow(pub-uncalled): counter delta for the integration test `optimized_sweep_solves_under_a_quarter_of_the_candidates` (batcher/tests/solve_count.rs)
    pub fn since(&self, earlier: &DpSolveStats) -> DpSolveStats {
        DpSolveStats {
            eq2_solves: self.eq2_solves.saturating_sub(earlier.eq2_solves),
        }
    }
}

/// A [`Partitioner::partition_until`] search that its `stop` test ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stopped;

/// Exact bound-driven search over ascending `candidates`: the index that
/// minimizes `objective(t_max, sum)`, the smallest such index on ties,
/// with its solve payload; `None` when no candidate is feasible.
///
/// `solve(i)` runs Eq. 2 at `candidates[i]`. Its sum must be
/// non-increasing in `i`, and infeasibility (`None`) closed downward;
/// `objective` must be non-decreasing in both arguments. Then the sum
/// solved at `j` makes `objective(candidates[i], sum_j)` a true lower
/// bound on the objective of every `i < j`, and the search only bisects
/// runs of unsolved candidates whose bound can still beat the incumbent.
/// Each candidate is solved at most once.
///
/// The first solve, at the largest candidate, gives the least sum of any
/// feasible split. Before each later solve the search passes that sum to
/// `stop`, and ends with [`Stopped`] once `stop` returns `true`; a search
/// that needs no later solve never calls it.
fn search_tmax<P>(
    candidates: &[Micros],
    objective: impl Fn(Micros, Micros) -> Micros,
    mut solve: impl FnMut(usize) -> Option<(Micros, P)>,
    mut stop: impl FnMut(Micros) -> bool,
) -> Result<Option<(usize, P)>, Stopped> {
    let Some(last) = candidates.len().checked_sub(1) else {
        return Ok(None);
    };
    // The largest bound admits every feasible slice: if it has no
    // partition, no candidate has one.
    let Some((least_sum, payload)) = solve(last) else {
        return Ok(None);
    };
    let (mut best_obj, mut best_idx, mut best) =
        (objective(candidates[last], least_sum), last, payload);
    // Runs `lo..hi` of unsolved candidates, each bounded by the sum solved
    // at `hi`.
    let mut gaps: Vec<(usize, usize, Micros)> = vec![(0, last, least_sum)];
    // Depth first, lower runs first; the order changes how many solves
    // run, never the result.
    while let Some((lo, hi, s)) = gaps.pop() {
        // A candidate whose objective, or lower bound, is `v` can still win
        // if `v` beats the incumbent, or ties it at a smaller index.
        let can_win = |v: Micros, i: usize| v < best_obj || (v == best_obj && i < best_idx);
        // The bound rises with `t_max`, so the members that can win form a
        // prefix of the run: bisect it.
        let live = (lo..hi)
            .take_while(|&i| can_win(objective(candidates[i], s), i))
            .count();
        if live == 0 {
            continue;
        }
        let mid = lo + (live - 1) / 2;
        gaps.push((mid + 1, hi, s));
        if stop(least_sum) {
            return Err(Stopped);
        }
        // If `mid` is infeasible, so is everything below it.
        if let Some((sum, payload)) = solve(mid) {
            let obj = objective(candidates[mid], sum);
            if can_win(obj, mid) {
                (best_obj, best_idx, best) = (obj, mid, payload);
            }
            gaps.push((lo, mid, sum));
        }
    }
    Ok(Some((best_idx, best)))
}

/// `x.ceil() as u64` without a libm call: truncate, then step up when the
/// truncation dropped a fraction. Equal for every `x`, saturation, signs
/// and NaN included.
fn ceil_u64(x: f64) -> u64 {
    let q = x as u64;
    if (q as f64) < x {
        q.saturating_add(1)
    } else {
        q
    }
}

impl<'a> Partitioner<'a> {
    /// Partitioner over `cm` with `config`.
    pub fn new(cm: &'a CostModel, config: DpConfig) -> Self {
        Partitioner { cm, config }
    }

    /// Run the mode-independent shape pass for `ordered` samples. The
    /// result can be shared across [`Partitioner::partition_with_shapes`]
    /// calls with different recomputation modes or memory limits (but the
    /// same ordered samples and `max_mb_samples`).
    pub fn shape_pass(&self, ordered: &[Sample]) -> SliceShapes {
        SliceShapes::build(self.cm.model.arch, ordered, self.config.max_mb_samples)
    }

    /// This partitioner's column of the pricing pass: `t(M)` per distinct
    /// shape under its recompute mode where the shape fits its memory
    /// limit, `f64::INFINITY` where it does not — bit-identical to
    /// per-shape `mb_time`/`mb_activation_max` calls.
    fn price_shapes(&self, fwd: &SliceFwdCosts) -> Vec<Micros> {
        let limit = self.config.mb_memory_limit;
        let mode = self.config.recompute;
        fwd.prices
            .time(mode)
            .iter()
            .zip(fwd.prices.activation(mode))
            .map(|(&t, &a)| if a <= limit { t } else { f64::INFINITY })
            .collect()
    }

    /// Collect candidate `t_max` values: every finite (feasible) time
    /// rounded up to the resolution, deduplicated, ascending — the same
    /// list [`Partitioner::reference_candidates`] builds by sort + dedup.
    ///
    /// Every key `⌈t / res⌉` lies between the keys of the smallest and
    /// largest feasible time, a range of at most `max_candidates + 2`
    /// entries (see [`DpConfig::max_candidates`]), so a bitmap over that
    /// range marks the present keys in one pass. The input is the
    /// distinct shapes' times: every slice cell takes its shape's time, so
    /// the key set is the cells'.
    fn candidates(&self, time: &[Micros]) -> Vec<Micros> {
        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
        for &t in time.iter().filter(|t| t.is_finite()) {
            lo = lo.min(t);
            hi = hi.max(t);
        }
        if !lo.is_finite() {
            return Vec::new();
        }
        // Coarsen the resolution when the configured one would take more
        // than `max_candidates` steps across the range.
        let mut res = self.config.tmax_resolution_us.max(1e-3);
        let cap = self.config.max_candidates.max(2);
        if (hi - lo) / res > cap as f64 {
            res = (hi - lo) / cap as f64;
        }
        let key = |t: Micros| ceil_u64(t / res);
        let k_lo = key(lo);
        let mut present = vec![false; (key(hi) - k_lo + 1) as usize];
        for &t in time.iter().filter(|t| t.is_finite()) {
            present[(key(t) - k_lo) as usize] = true;
        }
        (k_lo..)
            .zip(present)
            .filter(|&(_, p)| p)
            .map(|(k, _)| k as f64 * res)
            .collect()
    }

    /// Per row of the slice table, the length of its leading run of
    /// non-decreasing slice times (`time` is
    /// [`Partitioner::price_shapes`]'s column). Rows extend their slice
    /// leftwards with running-max extents, so on the profiled cost grids
    /// the run covers the whole row; nothing relies on that.
    fn rising_runs(shapes: &SliceShapes, time: &[Micros]) -> Vec<u16> {
        (1..=shapes.n)
            .map(|end| {
                let row = &shapes.cell[(end - 1) * shapes.width..][..shapes.width.min(end)];
                let mut prev = f64::NEG_INFINITY;
                let run = row
                    .iter()
                    .take_while(|&&id| {
                        let t = time[id as usize];
                        let rising = prev <= t;
                        prev = t;
                        rising
                    })
                    .count();
                // `SliceShapes::build` caps the width at `u16::MAX`.
                run as u16
            })
            .collect()
    }

    /// Run Eq. 2 for one `t_max`, reading each slice's time through its
    /// shape id (`time` is [`Partitioner::price_shapes`]'s column); returns
    /// (`f(N)`, split back-pointers) or `None` if no feasible partition
    /// exists under the bound.
    ///
    /// A slice that does not fit the memory limit is priced `+∞`, and
    /// `t_max` is a finite candidate, so `t > t_max` skips it exactly
    /// where the reference's feasibility check does; every other slice
    /// takes the same `+` and `<` in the same order.
    ///
    /// Within a row's rising run ([`Partitioner::rising_runs`]) the first
    /// slice over `t_max` ends the run's scan: every later slice of the
    /// run is at least as slow, so the reference skips it too. Past the
    /// run every slice is tested, as the reference does.
    fn solve_for_tmax(
        shapes: &SliceShapes,
        time: &[Micros],
        rising: &[u16],
        t_max: Micros,
    ) -> Option<(Micros, Vec<usize>)> {
        EQ2_SOLVES.fetch_add(1, Ordering::Relaxed);
        let n = shapes.n;
        let mut f = vec![f64::INFINITY; n + 1];
        let mut back = vec![usize::MAX; n + 1];
        f[0] = 0.0;
        for end in 1..=n {
            // Cells `k < min(width, end)` of a row all lie in the domain.
            let row = &shapes.cell[(end - 1) * shapes.width..][..shapes.width.min(end)];
            let (run, rest) = row.split_at(rising[end - 1] as usize);
            let mut relax = |k: usize, t: Micros| {
                let start = end - 1 - k;
                let cand = f[start] + t;
                if cand < f[end] {
                    f[end] = cand;
                    back[end] = start;
                }
            };
            for (k, &id) in run.iter().enumerate() {
                let t = time[id as usize];
                if t > t_max {
                    break;
                }
                relax(k, t);
            }
            for (k, &id) in rest.iter().enumerate() {
                let t = time[id as usize];
                if t > t_max {
                    continue;
                }
                relax(run.len() + k, t);
            }
        }
        f[n].is_finite().then_some((f[n], back))
    }

    fn backtrace(back: &[usize], n: usize) -> Vec<Range<usize>> {
        let mut ranges = Vec::new();
        let mut end = n;
        while end > 0 {
            let start = back[end];
            ranges.push(start..end);
            end = start;
        }
        ranges.reverse();
        ranges
    }

    /// The outer `t_max` sweep: the split back-pointers of the candidate
    /// with the lowest objective `(c-1)·t_max + S(t_max)/|D|`, the
    /// smallest `t_max` on ties, exactly as the full sweep of
    /// [`Partitioner::partition_reference`] selects it.
    ///
    /// It solves only the candidates [`search_tmax`] cannot rule out. The
    /// Eq. 2 minimum `S(t)` is non-increasing in `t_max` bit for bit: a
    /// larger bound admits a superset of slices, and rounded `+` and `min`
    /// are monotone. So once candidate `j` is solved, every unsolved
    /// `i < j` has `obj(i) >= (c-1)·t_i + S(t_j)/|D|`, again in rounded
    /// arithmetic. A candidate whose bound exceeds the incumbent cannot
    /// win; one whose bound equals it can only tie, and a tie at a larger
    /// index loses under the full sweep's strict-improvement fold. Neither
    /// is solved, and every other candidate is, so the argmin and its
    /// tie-break are exact. Infeasibility is downward-closed for the same
    /// reason, so the largest candidate is solved first: if it has no
    /// partition, the mini-batch has none.
    ///
    /// The search is serial on purpose: the planner parallelizes one
    /// level up, across the §7 recompute modes. `stop` is
    /// [`search_tmax`]'s.
    fn sweep_tmax(
        &self,
        shapes: &SliceShapes,
        time: &[Micros],
        candidates: &[Micros],
        stop: impl FnMut(Micros) -> bool,
    ) -> Result<Option<Vec<usize>>, Stopped> {
        if candidates.is_empty() {
            return Ok(None);
        }
        let rising = Self::rising_runs(shapes, time);
        let c = self.cm.num_stages() as f64;
        let dp_deg = self.config.dp_degree.max(1) as f64;
        let objective = |t_max: Micros, sum: Micros| (c - 1.0) * t_max + sum / dp_deg;
        let found = search_tmax(
            candidates,
            objective,
            |i| Self::solve_for_tmax(shapes, time, &rising, candidates[i]),
            stop,
        )?;
        Ok(found.map(|(_, back)| back))
    }

    /// Assemble the final result from chosen split back-pointers.
    fn finish(&self, ordered: &[Sample], back: &[usize]) -> PartitionResult {
        let c = self.cm.num_stages() as f64;
        let dp_deg = self.config.dp_degree.max(1) as f64;
        let ranges = Self::backtrace(back, ordered.len());
        let micro_batches: Vec<MicroBatch> = ranges
            .iter()
            .map(|r| MicroBatch::new(ordered[r.clone()].to_vec()))
            .collect();
        let mb_times: Vec<Micros> = micro_batches
            .iter()
            .map(|mb| {
                self.cm
                    .mb_time(&mb.shape(self.cm.model.arch), self.config.recompute)
            })
            .collect();
        let t_max_realized = mb_times.iter().copied().fold(0.0, f64::max);
        let sum: Micros = mb_times.iter().sum();
        let est = (c - 1.0) * t_max_realized + sum / dp_deg;
        PartitionResult {
            ranges,
            micro_batches,
            mb_times,
            est_iteration_time: est,
            t_max: t_max_realized,
        }
    }

    fn empty_result() -> PartitionResult {
        PartitionResult {
            ranges: vec![],
            micro_batches: vec![],
            mb_times: vec![],
            est_iteration_time: 0.0,
            t_max: 0.0,
        }
    }

    /// Partition `ordered` samples; `None` when no partition satisfies the
    /// memory limit (e.g. a single sample's activation exceeds the budget).
    pub fn partition(&self, ordered: &[Sample]) -> Option<PartitionResult> {
        if ordered.is_empty() {
            return Some(Self::empty_result());
        }
        let shapes = self.shape_pass(ordered);
        self.partition_with_shapes(&shapes, ordered)
    }

    /// Partition using a shared, precomputed shape pass (builds the
    /// pricing pass internally; use
    /// [`Partitioner::partition_with_context`] to also share that across
    /// modes, as the §7 sweep does).
    pub fn partition_with_shapes(
        &self,
        shapes: &SliceShapes,
        ordered: &[Sample],
    ) -> Option<PartitionResult> {
        self.partition_with_context(shapes, &SliceFwdCosts::build(self.cm, shapes), ordered)
    }

    /// Partition using the shared passes (slice shapes and every mode's
    /// prices). The §7 sweep builds both once per mini-batch and calls
    /// this once per recompute mode.
    ///
    /// The passes must cover exactly `ordered` with this partitioner's
    /// `max_mb_samples` and the cost model's architecture.
    pub fn partition_with_context(
        &self,
        shapes: &SliceShapes,
        fwd: &SliceFwdCosts,
        ordered: &[Sample],
    ) -> Option<PartitionResult> {
        let never = |_| false;
        let done = self.partition_until(shapes, fwd, ordered, never);
        done.expect("a search that never stops runs to the end")
    }

    /// [`Partitioner::partition_with_context`] that can give up: the
    /// `t_max` search's first Eq. 2 solve, at the largest candidate, gives
    /// `S`, the least `Σ t(M)` of any split that fits the memory limit,
    /// and before each later solve the search calls `stop(S)`, ending with
    /// [`Stopped`] once it returns `true`. The §7 sweep stops a mode's
    /// search once `S` proves that the mode cannot beat one already
    /// scored. A search that is not stopped returns exactly what
    /// `partition_with_context` returns.
    pub fn partition_until(
        &self,
        shapes: &SliceShapes,
        fwd: &SliceFwdCosts,
        ordered: &[Sample],
        stop: impl FnMut(Micros) -> bool,
    ) -> Result<Option<PartitionResult>, Stopped> {
        if ordered.is_empty() {
            return Ok(Some(Self::empty_result()));
        }
        debug_assert_eq!(shapes.num_samples(), ordered.len());
        debug_assert_eq!(
            shapes.width(),
            self.config.max_mb_samples.min(ordered.len()).max(1)
        );
        debug_assert_eq!(shapes.arch(), self.cm.model.arch);
        debug_assert_eq!(fwd.prices.len(), shapes.distinct.len());
        let time = self.price_shapes(fwd);
        let candidates = self.candidates(&time);
        let back = self.sweep_tmax(shapes, &time, &candidates, stop)?;
        Ok(back.map(|back| self.finish(ordered, &back)))
    }

    /// Reference implementation retained for equivalence testing and
    /// speed-up measurement: the original single-pass serial algorithm —
    /// fused shape+cost table built per call, dense and masked, a full
    /// candidate sweep with its own Eq. 2 loop, no parallelism, no
    /// pruning. Optimized paths must match its chosen partition exactly.
    // lint:allow(pub-uncalled): golden oracle for tests/golden_partition.rs `optimized_partitioner_matches_reference_on_gpt`/`_on_t5`
    pub fn partition_reference(&self, ordered: &[Sample]) -> Option<PartitionResult> {
        if ordered.is_empty() {
            return Some(Self::empty_result());
        }
        let n = ordered.len();
        let width = self.config.max_mb_samples.min(n).max(1);
        let arch = self.cm.model.arch;
        let mut time = vec![f64::INFINITY; n * width];
        let mut feasible = vec![false; n * width];
        for end in 1..=n {
            let mut max_in = 0usize;
            let mut max_tg = 0usize;
            for k in 0..width.min(end) {
                let s = &ordered[end - 1 - k];
                match arch {
                    ModelArch::Gpt => {
                        max_in = max_in.max(s.gpt_len());
                    }
                    ModelArch::T5 => {
                        max_in = max_in.max(s.input_len);
                        max_tg = max_tg.max(s.target_len);
                    }
                }
                let shape = match arch {
                    ModelArch::Gpt => MicroBatchShape::gpt(k + 1, max_in.max(1)),
                    ModelArch::T5 => MicroBatchShape::t5(k + 1, max_in.max(1), max_tg.max(1)),
                };
                let idx = (end - 1) * width + k;
                let mem = self.cm.mb_activation_max(&shape, self.config.recompute);
                if mem <= self.config.mb_memory_limit {
                    feasible[idx] = true;
                    time[idx] = self.cm.mb_time(&shape, self.config.recompute);
                }
            }
        }
        let table = SliceCosts {
            time,
            feasible,
            width,
            n,
        };
        let back = self.reference_sweep(&table)?;
        Some(self.finish(ordered, &back))
    }

    /// The reference's outer sweep over its dense table: solve every
    /// candidate and keep the first lowest objective.
    fn reference_sweep(&self, table: &SliceCosts) -> Option<Vec<usize>> {
        let candidates = self.reference_candidates(&table.time, &table.feasible);
        let c = self.cm.num_stages() as f64;
        let dp_deg = self.config.dp_degree.max(1) as f64;
        let mut best: Option<(Micros, Vec<usize>)> = None;
        for &t_max in &candidates {
            let Some((sum, back)) = table.solve(t_max) else {
                continue;
            };
            let obj = (c - 1.0) * t_max + sum / dp_deg;
            match &best {
                Some((b, _)) if *b <= obj => {}
                _ => best = Some((obj, back)),
            }
        }
        best.map(|(_, back)| back)
    }

    /// The reference's candidate `t_max` values: every feasible slice
    /// time, rounded up to the configured resolution (coarsened when the
    /// range would take more than `max_candidates` steps), sorted and
    /// deduplicated. The spec for [`Partitioner::candidates`]; kept
    /// independent of it so the equivalence tests catch a change in the
    /// candidate set.
    fn reference_candidates(&self, time: &[Micros], feasible: &[bool]) -> Vec<Micros> {
        let mut res = self.config.tmax_resolution_us.max(1e-3);
        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
        for (&t, &f) in time.iter().zip(feasible) {
            if f {
                lo = lo.min(t);
                hi = hi.max(t);
            }
        }
        if !lo.is_finite() {
            return Vec::new();
        }
        let cap = self.config.max_candidates.max(2);
        if (hi - lo) / res > cap as f64 {
            res = (hi - lo) / cap as f64;
        }
        let mut keys: Vec<u64> = time
            .iter()
            .zip(feasible)
            .filter(|&(_, &f)| f)
            .map(|(&t, _)| (t / res).ceil() as u64)
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter().map(|k| k as f64 * res).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::{sort_samples, OrderingStrategy};
    use dynapipe_cost::ProfileOptions;
    use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};

    impl Partitioner<'_> {
        /// Exhaustive optimal partition for tiny inputs (test oracle): tries
        /// every contiguous split, ignoring the `t_max` sampling approximation.
        fn brute_force(&self, ordered: &[Sample]) -> Option<(Micros, Vec<Range<usize>>)> {
            let n = ordered.len();
            if n == 0 {
                return Some((0.0, vec![]));
            }
            assert!(n <= 16, "brute force is exponential; test-only");
            let arch = self.cm.model.arch;
            let c = self.cm.num_stages() as f64;
            let dp_deg = self.config.dp_degree.max(1) as f64;
            let mut best: Option<(Micros, Vec<Range<usize>>)> = None;
            // Each bit in `mask` marks a split after position i.
            for mask in 0u32..(1 << (n - 1)) {
                let mut ranges = Vec::new();
                let mut start = 0;
                for i in 0..n {
                    let split = i == n - 1 || mask & (1 << i) != 0;
                    if split {
                        ranges.push(start..i + 1);
                        start = i + 1;
                    }
                }
                let mut ok = true;
                let mut sum = 0.0;
                let mut max_t: Micros = 0.0;
                for r in &ranges {
                    let mb = MicroBatch::new(ordered[r.clone()].to_vec());
                    let shape = mb.shape(arch);
                    if r.len() > self.config.max_mb_samples
                        || self.cm.mb_activation_max(&shape, self.config.recompute)
                            > self.config.mb_memory_limit
                    {
                        ok = false;
                        break;
                    }
                    let t = self.cm.mb_time(&shape, self.config.recompute);
                    sum += t;
                    max_t = max_t.max(t);
                }
                if !ok {
                    continue;
                }
                let obj = (c - 1.0) * max_t + sum / dp_deg;
                if best.as_ref().is_none_or(|(b, _)| obj < *b) {
                    best = Some((obj, ranges));
                }
            }
            best
        }
    }

    fn cm(pp: usize) -> CostModel {
        CostModel::build(
            HardwareModel::a100_cluster(),
            ModelConfig::gpt_6_7b(),
            ParallelConfig::new(1, 1, pp),
            &ProfileOptions::coarse(),
        )
    }

    fn t5_cm(pp: usize) -> CostModel {
        CostModel::build(
            HardwareModel::a100_cluster(),
            ModelConfig::t5_11b(),
            ParallelConfig::new(1, 1, pp),
            &ProfileOptions::coarse(),
        )
    }

    fn sample(id: u64, input: usize, target: usize) -> Sample {
        Sample {
            id,
            task: 0,
            input_len: input,
            target_len: target,
        }
    }

    fn mixed(n: usize, seed: u64) -> Vec<Sample> {
        // Deterministic mixture: mostly short with some long samples.
        (0..n as u64)
            .map(|i| {
                let h = i.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(seed);
                let r = (h >> 33) % 100;
                let (inp, tg) = if r < 70 {
                    (30 + (h % 90) as usize, 4 + (h % 12) as usize)
                } else if r < 92 {
                    (300 + (h % 700) as usize, 30 + (h % 60) as usize)
                } else {
                    (2000 + (h % 4000) as usize, 80 + (h % 100) as usize)
                };
                sample(i, inp, tg)
            })
            .collect()
    }

    #[test]
    fn partition_covers_all_samples_in_order() {
        let cm = cm(4);
        let mut samples = mixed(60, 1);
        sort_samples(cm.model.arch, &mut samples);
        let p = Partitioner::new(&cm, DpConfig::new(Bytes::MAX / 4));
        let r = p.partition(&samples).unwrap();
        let mut covered = 0;
        for (i, range) in r.ranges.iter().enumerate() {
            assert_eq!(
                range.start, covered,
                "range {i} must start where previous ended"
            );
            covered = range.end;
        }
        assert_eq!(covered, samples.len());
        let total: usize = r.micro_batches.iter().map(MicroBatch::len).sum();
        assert_eq!(total, samples.len());
    }

    #[test]
    fn dp_matches_brute_force_on_small_inputs() {
        let cm = cm(4);
        for seed in 0..4 {
            let mut samples = mixed(10, seed);
            sort_samples(cm.model.arch, &mut samples);
            let mut cfg = DpConfig::new(Bytes::MAX / 4);
            // Fine resolution so sampling cannot miss the optimum.
            cfg.tmax_resolution_us = 0.5;
            let p = Partitioner::new(&cm, cfg);
            let dp = p.partition(&samples).unwrap();
            let (bf_obj, _) = p.brute_force(&samples).unwrap();
            let rel = (dp.est_iteration_time - bf_obj).abs() / bf_obj;
            assert!(
                rel < 0.01,
                "seed {seed}: dp {} vs brute force {bf_obj} (rel {rel})",
                dp.est_iteration_time
            );
        }
    }

    #[test]
    fn pruned_sweep_matches_reference_exactly() {
        // Neither the bound-driven search nor the sweep's reads through
        // shape ids may change the selected partition: compare against the
        // retained serial full-sweep reference across architectures,
        // mini-batch sizes, pipeline depths, dp degrees, every recompute
        // mode and a loose and a tight memory limit (tight limits exercise
        // infeasible candidates inside the sweep). Inputs come sorted,
        // unsorted and TSP-ordered. A sorted GPT row keeps one extent
        // group; in the other two the running extents rise along a row, so
        // its cells take shape ids from several groups.
        let (sort, tsp) = (Some(OrderingStrategy::Sort), Some(OrderingStrategy::Tsp));
        let inputs = [
            (ModelArch::Gpt, 2, 30, 1, 1, sort),
            (ModelArch::Gpt, 4, 60, 2, 1, sort),
            (ModelArch::Gpt, 16, 80, 3, 4, sort),
            (ModelArch::Gpt, 8, 50, 4, 2, sort),
            (ModelArch::Gpt, 4, 60, 5, 1, None),
            (ModelArch::Gpt, 8, 50, 6, 2, tsp),
            (ModelArch::T5, 4, 50, 7, 1, sort),
            (ModelArch::T5, 4, 60, 8, 1, None),
            (ModelArch::T5, 2, 40, 12, 4, tsp),
        ];
        for (arch, pp, n, seed, dp_degree, ordering) in inputs {
            let (cm, tight_shape) = match arch {
                ModelArch::Gpt => (cm(pp), MicroBatchShape::gpt(4, 6200)),
                ModelArch::T5 => (t5_cm(pp), MicroBatchShape::t5(4, 6200, 180)),
            };
            let mut samples = mixed(n, seed);
            if let Some(ordering) = ordering {
                ordering.apply(arch, &mut samples);
            }
            if ordering != sort {
                let mut sorted = samples.clone();
                sort_samples(arch, &mut sorted);
                assert_ne!(samples, sorted, "{arch:?} seed={seed}: input is sorted");
            }
            let tight = cm.mb_activation_max(&tight_shape, RecomputeMode::None);
            let shapes = SliceShapes::build(arch, &samples, DpConfig::new(0).max_mb_samples);
            let fwd = SliceFwdCosts::build(&cm, &shapes);
            assert!(
                fwd.prices
                    .activation(RecomputeMode::None)
                    .iter()
                    .any(|&a| a > tight),
                "{arch:?} seed={seed}: the tight limit excludes no slice"
            );
            for mb_memory_limit in [Bytes::MAX / 4, tight] {
                for recompute in RecomputeMode::ALL {
                    let mut cfg = DpConfig::new(mb_memory_limit);
                    cfg.dp_degree = dp_degree;
                    cfg.recompute = recompute;
                    let p = Partitioner::new(&cm, cfg);
                    let reference = p.partition_reference(&samples);
                    assert!(reference.is_some(), "every single sample fits");
                    assert_eq!(
                        p.partition_with_context(&shapes, &fwd, &samples),
                        reference,
                        "{arch:?} {ordering:?} pp={pp} n={n} seed={seed} \
                         limit={mb_memory_limit} {recompute:?}: partition diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn ceil_u64_matches_ceil_then_cast() {
        let mut xs = vec![
            0.0,
            -0.0,
            -0.5,
            -1.0,
            0.25,
            1.0,
            1.5,
            4503599627370495.5,
            9007199254740991.0,
            9007199254740992.0,
            9.223372036854776e18,
            1.8446744073709552e19,
            1e30,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
        ];
        // Quotients like the candidate keys': slice times over resolutions.
        for i in 0..4000u32 {
            let t = 17.0 + i as f64 * 13.37;
            for res in [5.0, 0.001, 3.3, 61.17] {
                xs.push(t / res);
            }
            xs.push(i as f64);
            xs.push(f64::from_bits(
                (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 2,
            ));
        }
        for x in xs {
            assert_eq!(ceil_u64(x), x.ceil() as u64, "x = {x:e}");
        }
    }

    #[test]
    fn row_cut_matches_the_reference_on_rows_that_dip() {
        // The profiled cost grids give rows whose slice times never fall,
        // so this test prices the shapes itself: along a row, times rise
        // with the batch size, dip every 9th sample and are `+∞` (over the
        // memory limit) every 13th, between finite cells. At every
        // candidate the Eq. 2 solve with the row cut must match the
        // reference's dense-table solve over the same prices, and the
        // pruned sweep the reference's full sweep.
        let cm = cm(4);
        let price = |sh: &MicroBatchShape| {
            let b = sh.batch_size;
            let t = 20.0 + (b * sh.enc_len) as f64 * 0.01;
            match (b % 13, b % 9) {
                (12, _) => f64::INFINITY,
                (_, 8) => t * 0.4,
                _ => t,
            }
        };
        for (n, seed, width, dp_degree, sorted) in [
            (40, 21, 256, 1, true),
            (60, 22, 32, 2, true),
            (70, 23, 24, 1, false),
            (50, 24, 40, 4, false),
        ] {
            let mut samples = mixed(n, seed);
            if sorted {
                sort_samples(ModelArch::Gpt, &mut samples);
            }
            let shapes = SliceShapes::build(ModelArch::Gpt, &samples, width);
            let time: Vec<Micros> = shapes.distinct_shapes().iter().map(price).collect();
            let rising = Partitioner::rising_runs(&shapes, &time);
            let w = shapes.width;
            let row_len = |end: usize| w.min(end);
            assert!(
                (1..=n).any(|end| (rising[end - 1] as usize) < row_len(end)),
                "seed={seed}: no row dips"
            );
            assert!(
                (1..=n).any(|end| {
                    let row = &shapes.cell[(end - 1) * w..][..row_len(end)];
                    row.windows(2).any(|p| {
                        time[p[0] as usize].is_infinite() && time[p[1] as usize].is_finite()
                    })
                }),
                "seed={seed}: no row holds a +inf cell before a finite one"
            );
            let dense: Vec<Micros> = shapes
                .cell
                .iter()
                .map(|&id| match id {
                    NO_SHAPE => f64::INFINITY,
                    id => time[id as usize],
                })
                .collect();
            let table = SliceCosts {
                feasible: dense.iter().map(|t| t.is_finite()).collect(),
                time: dense,
                width: w,
                n,
            };
            let mut cfg = DpConfig::new(Bytes::MAX);
            cfg.dp_degree = dp_degree;
            let p = Partitioner::new(&cm, cfg);
            let candidates = p.candidates(&time);
            assert_eq!(
                candidates,
                p.reference_candidates(&table.time, &table.feasible),
                "seed={seed}"
            );
            for &t_max in &candidates {
                assert_eq!(
                    Partitioner::solve_for_tmax(&shapes, &time, &rising, t_max),
                    table.solve(t_max),
                    "seed={seed} t_max={t_max}: Eq. 2 solve diverged"
                );
            }
            let reference = p.reference_sweep(&table);
            assert!(reference.is_some(), "seed={seed}: no partition");
            assert_eq!(
                p.sweep_tmax(&shapes, &time, &candidates, |_| false),
                Ok(reference),
                "seed={seed}: sweep diverged"
            );
        }
    }

    #[test]
    fn probe_stop_divisor_never_changes_the_partition() {
        // The probe-stop divisor has no effect: no code reads it. Any
        // value must give a partition bit-identical to the serial
        // full-sweep reference.
        for (pp, n, seed, dp_degree) in [(4, 60, 2, 1), (16, 80, 3, 4)] {
            let cm = cm(pp);
            let mut samples = mixed(n, seed);
            sort_samples(cm.model.arch, &mut samples);
            let limit = cm.mb_activation_max(&MicroBatchShape::gpt(4, 6200), RecomputeMode::None);
            for mb_memory_limit in [Bytes::MAX / 4, limit] {
                let reference = {
                    let mut cfg = DpConfig::new(mb_memory_limit);
                    cfg.dp_degree = dp_degree;
                    Partitioner::new(&cm, cfg)
                        .partition_reference(&samples)
                        .unwrap()
                };
                for divisor in [1usize, 4, 8, 16, 64, usize::MAX] {
                    let mut cfg = DpConfig::new(mb_memory_limit);
                    cfg.dp_degree = dp_degree;
                    cfg.probe_stop_divisor = divisor;
                    let fast = Partitioner::new(&cm, cfg).partition(&samples).unwrap();
                    assert_eq!(
                        fast.ranges, reference.ranges,
                        "pp={pp} divisor={divisor}: probe stop changed the partition"
                    );
                    assert_eq!(fast.est_iteration_time, reference.est_iteration_time);
                    assert_eq!(fast.t_max, reference.t_max);
                    assert_eq!(fast.mb_times, reference.mb_times);
                }
            }
        }
    }

    #[test]
    fn bucketed_candidates_match_sorted_reference() {
        let cm = cm(4);
        let partitioner = |res: Micros, cap: usize| {
            let mut cfg = DpConfig::new(Bytes::MAX / 4);
            cfg.tmax_resolution_us = res;
            cfg.max_candidates = cap;
            Partitioner::new(&cm, cfg)
        };
        // Scattered times over [100, 469.63], every seventh infeasible
        // (priced as infinity, like the cost pass).
        let spread: Vec<Micros> = (0..1000u64)
            .map(|i| 100.0 + (i * 7919 % 1000) as f64 * 0.37)
            .collect();
        let some_out: Vec<bool> = (0..spread.len()).map(|i| i % 7 != 3).collect();
        let with_inf = |t: &[Micros], f: &[bool]| -> Vec<Micros> {
            t.iter()
                .zip(f)
                .map(|(&t, &ok)| if ok { t } else { f64::INFINITY })
                .collect()
        };
        // Exact multiples of the resolution, and the next float above
        // each, which rounds up into the following bucket.
        let edges: Vec<Micros> = (20..60u64)
            .flat_map(|k| {
                let t = 5.0 * k as f64;
                [t, f64::from_bits(t.to_bits() + 1)]
            })
            .collect();
        // Coarsened to `range / 8` = 1250: times on the coarse bucket
        // edges.
        let coarse_edges: Vec<Micros> = (1..=9u64).map(|k| 1250.0 * k as f64).collect();
        let cases = [
            (
                "uncoarsened",
                5.0,
                96,
                with_inf(&spread, &some_out),
                some_out.clone(),
            ),
            (
                "coarsened",
                0.5,
                16,
                with_inf(&spread, &some_out),
                some_out.clone(),
            ),
            ("single key", 5.0, 96, vec![42.0; 9], vec![true; 9]),
            (
                "all infeasible",
                5.0,
                96,
                vec![f64::INFINITY; 9],
                vec![false; 9],
            ),
            (
                "bucket edges",
                5.0,
                96,
                edges.clone(),
                vec![true; edges.len()],
            ),
            (
                "coarse bucket edges",
                5.0,
                8,
                coarse_edges.clone(),
                vec![true; coarse_edges.len()],
            ),
        ];
        for (name, res, cap, time, feasible) in cases {
            let p = partitioner(res, cap);
            let bucketed = p.candidates(&time);
            let reference = p.reference_candidates(&time, &feasible);
            assert_eq!(
                bucketed.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                "{name}: candidate sets differ"
            );
            assert_eq!(
                reference.is_empty(),
                name == "all infeasible",
                "{name}: unexpected candidate count {}",
                reference.len()
            );
            assert!(
                reference.len() <= cap + 2,
                "{name}: {} candidates",
                reference.len()
            );
        }
    }

    #[test]
    fn shared_shape_pass_matches_per_mode_rebuild() {
        // One shape pass, re-priced per recompute mode, must give exactly
        // the partitions a from-scratch build gives for each mode.
        let cm = cm(4);
        let mut samples = mixed(70, 9);
        sort_samples(cm.model.arch, &mut samples);
        let limit = cm.mb_activation_max(&MicroBatchShape::gpt(2, 6200), RecomputeMode::None);
        let base = DpConfig::new(limit);
        let shapes = Partitioner::new(&cm, base).shape_pass(&samples);
        assert!(
            shapes.num_distinct_shapes() < shapes.num_samples() * shapes.width(),
            "sorted batches must collapse onto fewer distinct shapes"
        );
        for mode in RecomputeMode::ALL {
            let mut cfg = base;
            cfg.recompute = mode;
            let p = Partitioner::new(&cm, cfg);
            let shared = p.partition_with_shapes(&shapes, &samples);
            let rebuilt = p.partition(&samples);
            match (shared, rebuilt) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.ranges, b.ranges, "mode {:?}", mode);
                    assert_eq!(a.est_iteration_time, b.est_iteration_time);
                }
                (a, b) => assert_eq!(a.is_none(), b.is_none(), "mode {:?}", mode),
            }
        }
    }

    #[test]
    fn price_shapes_matches_scalar_pricing_under_every_limit() {
        // Each mode's column of the one pricing pass must price every
        // distinct shape exactly as the scalar path does: `cm.mb_time` bit
        // for bit where `cm.mb_activation_max` fits the limit, infinity where
        // it does not — on GPT and T5, under a loose, a tight and a zero
        // limit.
        for cm in [cm(4), t5_cm(4)] {
            let mut samples = mixed(40, 7);
            sort_samples(cm.model.arch, &mut samples);
            let shapes = SliceShapes::build(cm.model.arch, &samples, 16);
            let fwd = SliceFwdCosts::build(&cm, &shapes);
            let distinct = shapes.distinct_shapes();
            let tight = cm.mb_activation_max(&distinct[distinct.len() / 2], RecomputeMode::None);
            for limit in [Bytes::MAX / 4, tight, 0] {
                let mut infeasible = [0usize; 3];
                for (m, mode) in RecomputeMode::ALL.into_iter().enumerate() {
                    let mut cfg = DpConfig::new(limit);
                    cfg.recompute = mode;
                    let time = Partitioner::new(&cm, cfg).price_shapes(&fwd);
                    assert_eq!(time.len(), distinct.len());
                    for (i, s) in distinct.iter().enumerate() {
                        let case = format!("{:?} {mode:?} limit {limit} shape {i}", cm.model.arch);
                        let fits = cm.mb_activation_max(s, mode) <= limit;
                        let expect = if fits {
                            cm.mb_time(s, mode)
                        } else {
                            f64::INFINITY
                        };
                        assert_eq!(time[i].to_bits(), expect.to_bits(), "{case}: time");
                        infeasible[m] += usize::from(!fits);
                    }
                }
                let none_out = infeasible[0];
                match limit {
                    0 => assert_eq!(none_out, distinct.len()),
                    l if l == tight => assert!(none_out > 0 && none_out < distinct.len()),
                    _ => assert_eq!(infeasible, [0; 3]),
                }
            }
        }
    }

    #[test]
    fn memory_limit_respected() {
        let cm = cm(4);
        let mut samples = mixed(50, 2);
        sort_samples(cm.model.arch, &mut samples);
        // A tight-but-satisfiable limit.
        let one_sample_mem =
            cm.mb_activation_max(&MicroBatchShape::gpt(1, 6200), RecomputeMode::None);
        let limit = one_sample_mem * 2;
        let mut cfg = DpConfig::new(limit);
        cfg.recompute = RecomputeMode::None;
        let p = Partitioner::new(&cm, cfg);
        let r = p.partition(&samples).unwrap();
        for mb in &r.micro_batches {
            let mem = cm.mb_activation_max(&mb.shape(cm.model.arch), RecomputeMode::None);
            assert!(
                mem <= limit,
                "micro-batch memory {mem} exceeds limit {limit}"
            );
        }
    }

    #[test]
    fn infeasible_when_single_sample_exceeds_limit() {
        let cm = cm(2);
        let samples = vec![sample(0, 8000, 200)];
        let p = Partitioner::new(&cm, DpConfig::new(1)); // 1-byte limit
        assert!(p.partition(&samples).is_none());
    }

    #[test]
    fn more_stages_prefer_more_uniform_micro_batches() {
        // With a large (c-1)·t_max term, the DP should avoid one giant
        // micro-batch: compare number of micro-batches at c=2 vs c=16.
        let mut samples = mixed(80, 3);
        let cm2 = cm(2);
        sort_samples(cm2.model.arch, &mut samples);
        let cm16 = cm(16);
        let p2 = Partitioner::new(&cm2, DpConfig::new(Bytes::MAX / 4));
        let p16 = Partitioner::new(&cm16, DpConfig::new(Bytes::MAX / 4));
        let r2 = p2.partition(&samples).unwrap();
        let r16 = p16.partition(&samples).unwrap();
        assert!(
            r16.t_max <= r2.t_max * 1.5,
            "deep pipelines should not let t_max grow: {} vs {}",
            r16.t_max,
            r2.t_max
        );
    }

    #[test]
    fn empty_input_is_empty_partition() {
        let cm = cm(2);
        let p = Partitioner::new(&cm, DpConfig::new(Bytes::MAX / 4));
        let r = p.partition(&[]).unwrap();
        assert!(r.micro_batches.is_empty());
        assert_eq!(r.est_iteration_time, 0.0);
    }

    #[test]
    fn grouping_similar_lengths_beats_one_giant_batch() {
        // 30 short + 2 long samples: the DP must not pad every short sample
        // to the long length.
        let cm = cm(4);
        let mut samples: Vec<Sample> = (0..30).map(|i| sample(i, 40, 8)).collect();
        samples.push(sample(30, 4000, 100));
        samples.push(sample(31, 4100, 100));
        sort_samples(cm.model.arch, &mut samples);
        let p = Partitioner::new(&cm, DpConfig::new(Bytes::MAX / 4));
        let r = p.partition(&samples).unwrap();
        assert!(r.num_micro_batches() >= 2, "long samples must split off");
        // The two long samples must share a micro-batch without the shorts.
        let long_mb = r
            .micro_batches
            .iter()
            .find(|mb| mb.samples.iter().any(|s| s.input_len >= 4000))
            .unwrap();
        assert!(long_mb.samples.iter().all(|s| s.input_len >= 4000));
    }

    /// The reference fold over a synthetic sweep: the smallest index
    /// with the lowest objective.
    fn exhaustive_argmin(
        candidates: &[Micros],
        sums: &[Option<Micros>],
        objective: impl Fn(Micros, Micros) -> Micros,
    ) -> Option<usize> {
        let mut best: Option<(Micros, usize)> = None;
        for (i, sum) in sums.iter().enumerate() {
            let Some(sum) = *sum else { continue };
            let obj = objective(candidates[i], sum);
            if best.is_none_or(|(b, _)| obj < b) {
                best = Some((obj, i));
            }
        }
        best.map(|(_, i)| i)
    }

    /// Synthetic non-increasing sweep over candidates `5, 10, 15, ...`:
    /// `infeasible` leading `None`s, then sums built right to left from
    /// `steps`. Step kind 0 is a plateau (equal sums); kind 1 raises the
    /// sum by exactly what the ramp term drops, so the objective ties;
    /// kind `k >= 2` raises it by `(k - 1) / 2` of that plus 5/4. Every
    /// value is a small multiple of 5/4, so the objective is exact and
    /// ties are real.
    fn synthetic_sweep(
        steps: &[u64],
        infeasible: usize,
        stages: f64,
        dp: f64,
    ) -> (Vec<Micros>, Vec<Option<Micros>>) {
        let m = steps.len() + 1;
        let candidates: Vec<Micros> = (1..=m).map(|i| 5.0 * i as f64).collect();
        let tie_step = (stages - 1.0) * 5.0 * dp;
        let mut sums = vec![None; m];
        let mut sum = 10.0;
        sums[m - 1] = Some(sum);
        for i in (0..m - 1).rev() {
            sum += match steps[i] {
                0 => 0.0,
                1 => tie_step,
                k => tie_step * (k - 1) as f64 / 2.0 + 1.25,
            };
            sums[i] = Some(sum);
        }
        for s in sums.iter_mut().take(infeasible.min(m)) {
            *s = None;
        }
        (candidates, sums)
    }

    /// Run the search over a synthetic sweep and check it against the
    /// exhaustive fold: same argmin (payload included), and no candidate
    /// solved twice, so at most `m` solves.
    fn check_search(steps: &[u64], infeasible: usize, stages: f64, dp: f64) -> Result<(), String> {
        let (candidates, sums) = synthetic_sweep(steps, infeasible, stages, dp);
        let objective = |t: Micros, sum: Micros| (stages - 1.0) * t + sum / dp;
        let mut solved = vec![0u32; candidates.len()];
        let never = |_| false;
        let found = search_tmax(
            &candidates,
            objective,
            |i| {
                solved[i] += 1;
                sums[i].map(|sum| (sum, i))
            },
            never,
        )
        .map_err(|Stopped| "a search that never stops stopped".to_string())?;
        let expect = exhaustive_argmin(&candidates, &sums, objective);
        let case = format!("sums {sums:?}, c={stages}, dp={dp}");
        if found.map(|(i, _)| i) != expect {
            return Err(format!(
                "{case}: search chose {found:?}, exhaustive {expect:?}"
            ));
        }
        if let Some((i, payload)) = found {
            if i != payload {
                return Err(format!("{case}: payload {payload} of candidate {i}"));
            }
        }
        if solved.iter().any(|&n| n > 1) {
            return Err(format!("{case}: a candidate was solved twice: {solved:?}"));
        }
        Ok(())
    }

    #[test]
    fn search_tmax_stops_before_the_solve_its_test_refuses() {
        // `stop` sees only the first solve's sum (the least), once before
        // each later solve: stopped at its k-th call, the search has run
        // exactly k + 1 solves; never stopped, it calls `stop` once per
        // later solve and returns the full search's choice.
        let steps = [2, 0, 3, 1, 5, 2, 0, 4, 2, 3, 1, 2];
        let (candidates, sums) = synthetic_sweep(&steps, 2, 4.0, 2.0);
        let objective = |t: Micros, sum: Micros| 3.0 * t + sum / 2.0;
        let least = sums.last().copied().flatten().unwrap();
        let run = |stop_at: usize| {
            let (mut solves, mut calls) = (0, 0);
            let found = search_tmax(
                &candidates,
                objective,
                |i| {
                    solves += 1;
                    sums[i].map(|sum| (sum, i))
                },
                |s| {
                    assert_eq!(s, least, "stop sees the first solve's sum");
                    calls += 1;
                    calls > stop_at
                },
            );
            (found, solves, calls)
        };
        let (full, solves, calls) = run(usize::MAX);
        assert_eq!(
            full.unwrap().map(|(i, _)| i),
            exhaustive_argmin(&candidates, &sums, objective)
        );
        assert!(solves > 2, "the sweep needs several solves");
        assert_eq!(calls, solves - 1);
        for k in 0..calls {
            let (found, solves, calls) = run(k);
            assert_eq!(found, Err(Stopped), "stopped at call {k}");
            assert_eq!((solves, calls), (k + 1, k + 1));
        }
        // An infeasible largest candidate ends the search before any
        // `stop` call.
        let (_, sums) = synthetic_sweep(&steps, steps.len() + 1, 4.0, 2.0);
        let found = search_tmax(
            &candidates,
            objective,
            |i| sums[i].map(|s| (s, i)),
            |_| panic!("no later solve to stop"),
        );
        assert_eq!(found, Ok(None));
    }

    #[test]
    fn search_tmax_handles_one_and_two_candidates() {
        // Every sweep shape at m ∈ {1, 2}: feasible or not, plateau, tie,
        // strict descent.
        for stages in [1.0, 2.0, 4.0] {
            for dp in [1.0, 2.0] {
                check_search(&[], 0, stages, dp).unwrap();
                check_search(&[], 1, stages, dp).unwrap();
                for step in 0..4 {
                    for infeasible in 0..=2 {
                        check_search(&[step], infeasible, stages, dp).unwrap();
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 256, ..proptest::ProptestConfig::default() })]

        /// Over non-increasing sweeps with infeasible prefixes, plateaus
        /// and exact objective ties at different indices, the search picks
        /// the exhaustive argmin with the smallest-index tie-break and
        /// solves no candidate twice.
        #[test]
        fn search_tmax_matches_exhaustive_argmin(
            steps in proptest::collection::vec(0u64..6, 0..60),
            infeasible in 0usize..40,
            stages in 1u64..9,
            dp in 0u32..3,
        ) {
            let result = check_search(&steps, infeasible, stages as f64, (1u32 << dp) as f64);
            proptest::prop_assert!(result.is_ok(), "{}", result.unwrap_err());
        }
    }

    #[test]
    fn dp_degree_changes_objective_weighting() {
        let cm = cm(4);
        let mut samples = mixed(40, 5);
        sort_samples(cm.model.arch, &mut samples);
        let mut cfg = DpConfig::new(Bytes::MAX / 4);
        cfg.dp_degree = 4;
        let p = Partitioner::new(&cm, cfg);
        let r = p.partition(&samples).unwrap();
        // Objective uses sum/4: it must equal the recomputed value.
        let sum: f64 = r.mb_times.iter().sum();
        let expect = 3.0 * r.t_max + sum / 4.0;
        assert!((r.est_iteration_time - expect).abs() / expect < 1e-9);
    }
}
