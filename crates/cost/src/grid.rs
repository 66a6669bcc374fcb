//! Geometric sampling grids with multilinear interpolation.
//!
//! The paper profiles at power-of-two intervals and uses linear
//! interpolation between sampled points (§3). [`NdGrid`] implements that
//! for up to three axes (micro-batch size × query length × context length);
//! 2D and 1D grids use degenerate trailing axes.
//!
//! Two query paths exist: the scalar [`NdGrid::query`] and the batched
//! [`BatchQuery`]/[`NdGrid::query_batch`] pair. A `BatchQuery` resolves
//! many points against a set of axes up front — small coordinates are
//! located once per distinct value, and [`BatchQuery::locate`] collapses
//! duplicate points onto one cell — and can then be evaluated against
//! every grid sharing those axes
//! (forward, backward, recompute and activation profiles of one layer
//! kind). Batched evaluation is bit-identical to calling `query` per
//! point.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative process-wide grid-query counters (diagnostics; relaxed
/// atomics, so numbers are exact only for single-threaded phases and
/// approximate-but-complete otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GridQueryStats {
    /// Scalar [`NdGrid::query`] calls.
    pub scalar: u64,
    /// Points requested across all [`BatchQuery`] builds.
    pub batch_points: u64,
    /// Distinct located cells across all [`BatchQuery`] builds.
    pub batch_cells: u64,
    /// Cell evaluations across all [`NdGrid::query_batch`] calls.
    pub batch_evals: u64,
}

static SCALAR_QUERIES: AtomicU64 = AtomicU64::new(0);
static BATCH_POINTS: AtomicU64 = AtomicU64::new(0);
static BATCH_CELLS: AtomicU64 = AtomicU64::new(0);
static BATCH_EVALS: AtomicU64 = AtomicU64::new(0);

/// Snapshot the process-wide grid-query counters.
pub fn grid_query_stats() -> GridQueryStats {
    GridQueryStats {
        scalar: SCALAR_QUERIES.load(Ordering::Relaxed),
        batch_points: BATCH_POINTS.load(Ordering::Relaxed),
        batch_cells: BATCH_CELLS.load(Ordering::Relaxed),
        batch_evals: BATCH_EVALS.load(Ordering::Relaxed),
    }
}

impl GridQueryStats {
    /// Counter deltas since an earlier snapshot. Saturating: the scalar
    /// counter's cheap load+store pair can move backward under concurrent
    /// scalar queriers, and a garbage near-`u64::MAX` delta (or a debug
    /// overflow panic) must not escape into artifacts.
    pub fn since(&self, earlier: &GridQueryStats) -> GridQueryStats {
        GridQueryStats {
            scalar: self.scalar.saturating_sub(earlier.scalar),
            batch_points: self.batch_points.saturating_sub(earlier.batch_points),
            batch_cells: self.batch_cells.saturating_sub(earlier.batch_cells),
            batch_evals: self.batch_evals.saturating_sub(earlier.batch_evals),
        }
    }
}

/// Multiply-xor hasher for integer-keyed hot-loop maps: keys are small or
/// already well-mixed integers (axis coordinates, packed points, packed
/// shape extents), so SipHash's DoS resistance is wasted overhead.
/// Shared with the batcher's shape-dedup maps.
#[derive(Default)]
pub struct CoordHasher(u64);

impl std::hash::Hasher for CoordHasher {
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

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

type CoordMap<K> = HashMap<K, u32, BuildHasherDefault<CoordHasher>>;

/// One sampling axis: a sorted list of sampled coordinate values.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Axis {
    /// Sampled coordinates, strictly increasing.
    pub values: Vec<usize>,
}

impl Axis {
    /// An axis over the given sorted values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or not strictly increasing.
    pub fn new(values: Vec<usize>) -> Self {
        assert!(!values.is_empty(), "axis needs at least one sample");
        assert!(
            values.windows(2).all(|w| w[0] < w[1]),
            "axis values must be strictly increasing"
        );
        Axis { values }
    }

    /// Power-of-two axis `from, 2·from, …, to` (inclusive; both powers of 2).
    pub fn pow2(from: usize, to: usize) -> Self {
        assert!(from.is_power_of_two() && to.is_power_of_two() && from <= to);
        let mut v = Vec::new();
        let mut x = from;
        while x <= to {
            v.push(x);
            x *= 2;
        }
        Axis::new(v)
    }

    /// A degenerate single-point axis (used to reduce dimensionality).
    pub fn singleton() -> Self {
        Axis::new(vec![0])
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the axis has no samples. The constructor rejects empty
    /// value lists, so this is always `false` for a constructed axis; it
    /// exists for the `len`/`is_empty` API convention. For the degenerate
    /// single-sample case (what [`Axis::singleton`] produces), use
    /// [`Axis::is_degenerate`].
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Whether the axis is degenerate: a single sample, so every query
    /// lands on it with fraction 0 and the axis contributes nothing to
    /// interpolation (the [`Axis::singleton`] case).
    pub fn is_degenerate(&self) -> bool {
        self.values.len() == 1
    }

    /// Locate `x`: returns the lower bracketing index and the interpolation
    /// fraction. Queries below the first sample clamp (fraction 0); queries
    /// above the last sample *extrapolate linearly* along the top segment
    /// (fraction > 1) — clamping there would silently underestimate costs
    /// of micro-batches larger than anything profiled, which is exactly the
    /// kind of error that turns into an OOM at run time.
    pub fn locate(&self, x: usize) -> (usize, f64) {
        let v = &self.values;
        if x <= v[0] || self.is_degenerate() {
            return (0, 0.0);
        }
        let last = *v.last().expect("non-empty");
        if x >= last {
            let lo = v.len() - 2;
            let frac = (x - v[lo]) as f64 / (v[lo + 1] - v[lo]) as f64;
            return (lo, frac);
        }
        // partition_point: first index with value > x, so idx-1 brackets x.
        let hi = v.partition_point(|&p| p <= x);
        let lo = hi - 1;
        let frac = (x - v[lo]) as f64 / (v[hi] - v[lo]) as f64;
        (lo, frac)
    }
}

/// One query point resolved against a set of axes: the lower bracketing
/// index, the clamped upper index, and the interpolation fraction per axis
/// — everything [`NdGrid::query`] derives per call, precomputed.
#[derive(Debug, Clone, Copy)]
struct LocatedCell {
    i: [u32; 3],
    j: [u32; 3],
    f: [f64; 3],
}

/// [`Axis::locate`] for one batch, memoized when the coordinates are
/// small: up to [`DIRECT_MEMO_MAX`], each distinct coordinate is located
/// once through a direct-index slot table. A wider axis (an LM head's
/// token counts reach 128 × 4096) calls `Axis::locate` per point: one
/// short binary search is cheaper than hashing the coordinate into a
/// memo. Duplicate coordinates are allowed on both paths.
struct AxisMemo<'a> {
    axis: &'a Axis,
    located: Vec<(u32, f64)>,
    /// `slots[x]` is the 1-based located slot of coordinate `x` (0 = not
    /// yet located); empty on degenerate and wide axes.
    slots: Vec<u32>,
}

/// Largest coordinate the direct-index memo covers (a 256 KiB slot table
/// at most; batch sizes and sequence lengths are far smaller).
const DIRECT_MEMO_MAX: usize = 1 << 16;

impl<'a> AxisMemo<'a> {
    fn new(axis: &'a Axis, max_coord: usize) -> Self {
        AxisMemo {
            axis,
            located: Vec::new(),
            slots: if axis.is_degenerate() || max_coord > DIRECT_MEMO_MAX {
                Vec::new()
            } else {
                vec![0; max_coord + 1]
            },
        }
    }

    fn locate(&mut self, x: usize) -> (u32, f64) {
        // Degenerate axes (singletons) always resolve to (0, 0.0); skip
        // the memo entirely.
        if self.axis.is_degenerate() {
            return (0, 0.0);
        }
        if self.slots.is_empty() {
            let (i, f) = self.axis.locate(x);
            return (i as u32, f);
        }
        let slot = self.slots[x];
        if slot != 0 {
            return self.located[slot as usize - 1];
        }
        let (i, f) = self.axis.locate(x);
        self.located.push((i as u32, f));
        self.slots[x] = self.located.len() as u32;
        (i as u32, f)
    }
}

/// A batch of query points resolved once against a set of axes — the
/// query plan of the batched interpolation path.
///
/// Building a `BatchQuery` locates each coordinate (each distinct one
/// once, on axes whose coordinates fit the direct memo) and, through
/// [`BatchQuery::locate`], collapses duplicate `(x0, x1, x2)` points onto
/// a single cell; the plan records, per input point, which cell it reads.
/// [`NdGrid::query_batch`] then evaluates each distinct cell exactly once and scatters the values
/// back in input order. Because the plan stores only indices and
/// fractions, one plan serves every grid built over the same axes (a layer
/// profile's forward/backward/recompute/activation grids), so the
/// per-point binary searches are paid once per batch instead of once per
/// grid per point.
#[derive(Debug, Clone)]
pub struct BatchQuery {
    cells: Vec<LocatedCell>,
    /// Per input point: index into `cells`.
    point_cell: Vec<u32>,
    /// Fingerprint of the axes the plan was located against — sample
    /// count plus first/last sample per axis (guards misuse: cached
    /// bracketing indices and fractions are only valid on grids sharing
    /// the axes).
    axis_prints: [(usize, usize, usize); 3],
}

/// The misuse-guard fingerprint of one axis.
fn axis_print(a: &Axis) -> (usize, usize, usize) {
    (a.len(), a.values[0], *a.values.last().expect("non-empty"))
}

impl BatchQuery {
    /// Resolve `points` against `(a0, a1, a2)`. The resulting plan may be
    /// evaluated on any [`NdGrid`] whose axes have the same sample layout.
    ///
    /// Points that resolve to the same cell are collapsed; coordinates on
    /// degenerate axes never distinguish cells (every query lands on the
    /// single sample with fraction 0, so the interpolation arithmetic —
    /// and therefore the bit pattern of the result — is identical).
    pub fn locate(
        a0: &Axis,
        a1: &Axis,
        a2: &Axis,
        points: impl IntoIterator<Item = (usize, usize, usize)>,
    ) -> BatchQuery {
        Self::locate_impl(a0, a1, a2, points, true)
    }

    /// Like [`BatchQuery::locate`], without duplicate-cell detection:
    /// each point maps to its own cell and is evaluated once per point.
    /// Duplicate points are allowed. Use it where duplicates are rare or
    /// cheaper to evaluate twice than to detect (e.g. coordinates derived
    /// from an already-deduplicated shape table).
    pub fn locate_distinct(
        a0: &Axis,
        a1: &Axis,
        a2: &Axis,
        points: impl IntoIterator<Item = (usize, usize, usize)>,
    ) -> BatchQuery {
        Self::locate_impl(a0, a1, a2, points, false)
    }

    fn locate_impl(
        a0: &Axis,
        a1: &Axis,
        a2: &Axis,
        points: impl IntoIterator<Item = (usize, usize, usize)>,
        dedup: bool,
    ) -> BatchQuery {
        let pts: Vec<(usize, usize, usize)> = points.into_iter().collect();
        // Effective coordinates: a degenerate axis contributes nothing to
        // cell identity.
        let eff = |x: usize, ax: &Axis| if ax.is_degenerate() { 0 } else { x };
        let (mut max0, mut max1, mut max2) = (0usize, 0usize, 0usize);
        for &(x0, x1, x2) in &pts {
            max0 = max0.max(eff(x0, a0));
            max1 = max1.max(eff(x1, a1));
            max2 = max2.max(eff(x2, a2));
        }
        let bits = |m: usize| (usize::BITS - m.leading_zeros()) as u32;
        let (b0, b1) = (bits(max0), bits(max1));
        let mut m0 = AxisMemo::new(a0, max0);
        let mut m1 = AxisMemo::new(a1, max1);
        let mut m2 = AxisMemo::new(a2, max2);
        let mut cells: Vec<LocatedCell> = Vec::with_capacity(pts.len());
        let mut point_cell: Vec<u32> = Vec::with_capacity(pts.len());
        let clamp = |i: u32, len: usize| ((i as usize + 1).min(len - 1)) as u32;
        let mut locate_cell = |p: (usize, usize, usize)| {
            let (i0, f0) = m0.locate(p.0);
            let (i1, f1) = m1.locate(p.1);
            let (i2, f2) = m2.locate(p.2);
            LocatedCell {
                i: [i0, i1, i2],
                j: [clamp(i0, a0.len()), clamp(i1, a1.len()), clamp(i2, a2.len())],
                f: [f0, f1, f2],
            }
        };
        if !dedup {
            for &p in &pts {
                point_cell.push(cells.len() as u32);
                cells.push(locate_cell(p));
            }
        } else if b0 + b1 + bits(max2) <= u64::BITS {
            // Effective coordinates pack into one u64 key: dedup through a
            // dense integer map (cheap hash, cache-friendly entries).
            let mut by_key: CoordMap<u64> = CoordMap::with_capacity_and_hasher(
                pts.len(),
                BuildHasherDefault::default(),
            );
            for &p in &pts {
                let key = eff(p.0, a0) as u64
                    | (eff(p.1, a1) as u64) << b0
                    | (eff(p.2, a2) as u64) << (b0 + b1);
                let next = cells.len() as u32;
                let id = *by_key.entry(key).or_insert(next);
                if id == next {
                    cells.push(locate_cell(p));
                }
                point_cell.push(id);
            }
        } else {
            let mut by_point: CoordMap<(usize, usize, usize)> =
                CoordMap::with_capacity_and_hasher(pts.len(), BuildHasherDefault::default());
            for &p in &pts {
                let key = (eff(p.0, a0), eff(p.1, a1), eff(p.2, a2));
                let next = cells.len() as u32;
                let id = *by_point.entry(key).or_insert(next);
                if id == next {
                    cells.push(locate_cell(p));
                }
                point_cell.push(id);
            }
        }
        BATCH_POINTS.fetch_add(point_cell.len() as u64, Ordering::Relaxed);
        BATCH_CELLS.fetch_add(cells.len() as u64, Ordering::Relaxed);
        BatchQuery {
            cells,
            point_cell,
            axis_prints: [axis_print(a0), axis_print(a1), axis_print(a2)],
        }
    }

    /// Number of input points (the length of every evaluation's output).
    pub fn num_points(&self) -> usize {
        self.point_cell.len()
    }

    /// Number of distinct located cells (grid evaluations per
    /// [`NdGrid::query_batch`] call).
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }
}

/// A dense 3-axis grid of `f64` samples with multilinear interpolation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NdGrid {
    /// First axis (e.g. micro-batch size).
    pub a0: Axis,
    /// Second axis (e.g. query sequence length).
    pub a1: Axis,
    /// Third axis (e.g. key/value sequence length); singleton when unused.
    pub a2: Axis,
    data: Vec<f64>,
}

impl NdGrid {
    /// Build a grid by evaluating `f` at every sample point.
    pub fn build(
        a0: Axis,
        a1: Axis,
        a2: Axis,
        mut f: impl FnMut(usize, usize, usize) -> f64,
    ) -> Self {
        let mut data = Vec::with_capacity(a0.len() * a1.len() * a2.len());
        for &x0 in &a0.values {
            for &x1 in &a1.values {
                for &x2 in &a2.values {
                    data.push(f(x0, x1, x2));
                }
            }
        }
        NdGrid { a0, a1, a2, data }
    }

    fn at(&self, i0: usize, i1: usize, i2: usize) -> f64 {
        self.data[(i0 * self.a1.len() + i1) * self.a2.len() + i2]
    }

    /// Multilinearly interpolated value at `(x0, x1, x2)`. Queries below
    /// an axis's first sample clamp to it; queries above the last sample
    /// *extrapolate linearly* along the top segment (see [`Axis::locate`]
    /// for why clamping above would be dangerous).
    pub fn query(&self, x0: usize, x1: usize, x2: usize) -> f64 {
        // Deliberately NOT an atomic RMW: a relaxed load+store pair keeps
        // the per-query overhead to a couple of cycles so the counter does
        // not tax the scalar hot path it instruments (a locked `fetch_add`
        // here measurably inflates the serial baseline the planning bench
        // times). Concurrent scalar queriers may lose increments — the
        // stats are documented as exact only for single-threaded phases.
        SCALAR_QUERIES.store(
            SCALAR_QUERIES.load(Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
        let (i0, f0) = self.a0.locate(x0);
        let (i1, f1) = self.a1.locate(x1);
        let (i2, f2) = self.a2.locate(x2);
        let j0 = (i0 + 1).min(self.a0.len() - 1);
        let j1 = (i1 + 1).min(self.a1.len() - 1);
        let j2 = (i2 + 1).min(self.a2.len() - 1);
        self.interpolate(i0, i1, i2, j0, j1, j2, f0, f1, f2)
    }

    /// The shared trilinear kernel: both query paths funnel through this,
    /// so batched evaluation is bit-identical to scalar queries by
    /// construction (same operands, same operation order).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn interpolate(
        &self,
        i0: usize,
        i1: usize,
        i2: usize,
        j0: usize,
        j1: usize,
        j2: usize,
        f0: f64,
        f1: f64,
        f2: f64,
    ) -> f64 {
        let lerp = |a: f64, b: f64, t: f64| a + (b - a) * t;
        let c00 = lerp(self.at(i0, i1, i2), self.at(j0, i1, i2), f0);
        let c10 = lerp(self.at(i0, j1, i2), self.at(j0, j1, i2), f0);
        let c01 = lerp(self.at(i0, i1, j2), self.at(j0, i1, j2), f0);
        let c11 = lerp(self.at(i0, j1, j2), self.at(j0, j1, j2), f0);
        let c0 = lerp(c00, c10, f1);
        let c1 = lerp(c01, c11, f1);
        lerp(c0, c1, f2)
    }

    /// Evaluate every point of `batch` against this grid, appending one
    /// value per input point (in input order) to `out`. Each distinct cell
    /// is evaluated once and scattered to the points sharing it. Values
    /// are bit-identical to calling [`NdGrid::query`] per point, including
    /// the above-range extrapolation behavior.
    ///
    /// # Panics
    ///
    /// Panics if the grid's axes do not have the sample counts the batch
    /// was located against.
    pub fn query_batch(&self, batch: &BatchQuery, out: &mut Vec<f64>) {
        assert_eq!(
            batch.axis_prints,
            [
                axis_print(&self.a0),
                axis_print(&self.a1),
                axis_print(&self.a2)
            ],
            "batch was located against differently-shaped axes"
        );
        BATCH_EVALS.fetch_add(batch.cells.len() as u64, Ordering::Relaxed);
        let vals: Vec<f64> = batch
            .cells
            .iter()
            .map(|c| {
                self.interpolate(
                    c.i[0] as usize,
                    c.i[1] as usize,
                    c.i[2] as usize,
                    c.j[0] as usize,
                    c.j[1] as usize,
                    c.j[2] as usize,
                    c.f[0],
                    c.f[1],
                    c.f[2],
                )
            })
            .collect();
        out.reserve(batch.point_cell.len());
        out.extend(batch.point_cell.iter().map(|&id| vals[id as usize]));
    }

    /// Feasibility-masked [`NdGrid::query_batch`]: evaluate only the
    /// points with `mask[i] == true`, appending one value per input point
    /// (in input order) to `out`. Masked-out points receive
    /// `f64::INFINITY` (a poison value — callers skip them), and cells
    /// referenced *only* by masked points are never interpolated, so the
    /// evaluation cost scales with the unmasked subset. Unmasked values
    /// are bit-identical to [`NdGrid::query`] / [`NdGrid::query_batch`].
    ///
    /// This is the grid-level face of the cost pass's feasibility mask:
    /// backward halves of memory-infeasible shapes are dead work (the DP
    /// never reads them), so the batched solve skips their cells exactly
    /// as the scalar path skipped their queries.
    ///
    /// Returns the number of cells actually interpolated.
    ///
    /// # Panics
    ///
    /// Panics if `mask.len()` differs from the batch's point count, or if
    /// the grid's axes do not match the batch (as in `query_batch`).
    pub fn query_batch_masked(
        &self,
        batch: &BatchQuery,
        mask: &[bool],
        out: &mut Vec<f64>,
    ) -> usize {
        assert_eq!(
            batch.axis_prints,
            [
                axis_print(&self.a0),
                axis_print(&self.a1),
                axis_print(&self.a2)
            ],
            "batch was located against differently-shaped axes"
        );
        assert_eq!(
            mask.len(),
            batch.point_cell.len(),
            "one mask entry per batch point required"
        );
        let mut needed = vec![false; batch.cells.len()];
        let mut num_needed = 0u64;
        for (p, &cell) in batch.point_cell.iter().enumerate() {
            if mask[p] && !needed[cell as usize] {
                needed[cell as usize] = true;
                num_needed += 1;
            }
        }
        BATCH_EVALS.fetch_add(num_needed, Ordering::Relaxed);
        let vals: Vec<f64> = batch
            .cells
            .iter()
            .zip(&needed)
            .map(|(c, &n)| {
                if !n {
                    return f64::INFINITY;
                }
                self.interpolate(
                    c.i[0] as usize,
                    c.i[1] as usize,
                    c.i[2] as usize,
                    c.j[0] as usize,
                    c.j[1] as usize,
                    c.j[2] as usize,
                    c.f[0],
                    c.f[1],
                    c.f[2],
                )
            })
            .collect();
        out.reserve(batch.point_cell.len());
        out.extend(
            batch
                .point_cell
                .iter()
                .enumerate()
                .map(|(p, &id)| if mask[p] { vals[id as usize] } else { f64::INFINITY }),
        );
        num_needed as usize
    }

    /// Resolve `points` against this grid's own axes (see
    /// [`BatchQuery::locate`]; the plan is reusable on any grid sharing
    /// the axes).
    pub fn plan_queries(
        &self,
        points: impl IntoIterator<Item = (usize, usize, usize)>,
    ) -> BatchQuery {
        BatchQuery::locate(&self.a0, &self.a1, &self.a2, points)
    }

    /// Like [`NdGrid::plan_queries`], without duplicate-cell detection:
    /// duplicate points are allowed, and each is evaluated once per point
    /// (see [`BatchQuery::locate_distinct`]).
    pub fn plan_queries_distinct(
        &self,
        points: impl IntoIterator<Item = (usize, usize, usize)>,
    ) -> BatchQuery {
        BatchQuery::locate_distinct(&self.a0, &self.a1, &self.a2, points)
    }

    /// Number of stored samples.
    pub fn num_samples(&self) -> usize {
        self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_brackets_and_clamps() {
        let a = Axis::pow2(1, 16); // 1,2,4,8,16
        assert_eq!(a.locate(1), (0, 0.0));
        assert_eq!(a.locate(0), (0, 0.0));
        assert_eq!(a.locate(16), (3, 1.0));
        // Above the top sample: linear extrapolation along the last segment.
        let (i, f) = a.locate(100);
        assert_eq!(i, 3);
        assert!((f - (100.0 - 8.0) / 8.0).abs() < 1e-12);
        let (i, f) = a.locate(3);
        assert_eq!(i, 1);
        assert!((f - 0.5).abs() < 1e-12);
        let (i, f) = a.locate(12);
        assert_eq!(i, 3);
        assert!((f - 0.5).abs() < 1e-12);
    }

    #[test]
    fn interpolation_exact_at_grid_points() {
        let g = NdGrid::build(
            Axis::pow2(1, 8),
            Axis::pow2(32, 128),
            Axis::singleton(),
            |b, s, _| (b * s) as f64,
        );
        for &b in &[1usize, 2, 4, 8] {
            for &s in &[32usize, 64, 128] {
                assert_eq!(g.query(b, s, 0), (b * s) as f64);
            }
        }
    }

    #[test]
    fn interpolation_linear_between_points() {
        let g = NdGrid::build(
            Axis::pow2(1, 8),
            Axis::singleton(),
            Axis::singleton(),
            |b, _, _| b as f64 * 10.0,
        );
        // Linear function is reproduced exactly everywhere.
        assert!((g.query(3, 0, 0) - 30.0).abs() < 1e-9);
        assert!((g.query(6, 0, 0) - 60.0).abs() < 1e-9);
    }

    #[test]
    fn interpolation_error_small_for_smooth_superlinear() {
        // A quadratic (attention-like) curve sampled at powers of two:
        // interpolation should stay within a few percent relative error.
        let g = NdGrid::build(
            Axis::singleton(),
            Axis::pow2(32, 8192),
            Axis::singleton(),
            |_, s, _| (s * s) as f64,
        );
        for s in [48usize, 100, 700, 3000, 6000] {
            let est = g.query(0, s, 0);
            let truth = (s * s) as f64;
            let rel = (est - truth).abs() / truth;
            assert!(rel < 0.30, "s={s}: rel err {rel}");
            assert!(est >= truth, "chord of a convex function lies above it");
        }
    }

    #[test]
    fn trilinear_matches_separable_function() {
        let g = NdGrid::build(
            Axis::pow2(1, 4),
            Axis::pow2(16, 64),
            Axis::pow2(16, 64),
            |b, s1, s2| (b * (s1 + s2)) as f64,
        );
        // Multilinear in each coordinate, so exact for this function.
        assert!((g.query(3, 24, 48) - (3 * (24 + 48)) as f64).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn axis_rejects_unsorted() {
        let _ = Axis::new(vec![1, 3, 2]);
    }

    #[test]
    fn singleton_axis_is_degenerate_but_not_empty() {
        let s = Axis::singleton();
        assert!(s.is_degenerate());
        assert!(!s.is_empty(), "constructed axes always hold >= 1 sample");
        assert_eq!(s.len(), 1);
        let multi = Axis::pow2(1, 8);
        assert!(!multi.is_degenerate());
        assert!(!multi.is_empty());
    }

    #[test]
    fn query_extrapolates_above_top_sample_1d() {
        // Pin the above-range behavior the `query` doc promises: linear
        // extrapolation along the top segment, NOT a clamp.
        let g = NdGrid::build(
            Axis::pow2(1, 8),
            Axis::singleton(),
            Axis::singleton(),
            |b, _, _| b as f64 * 10.0,
        );
        // Top segment is (4, 8) with values (40, 80): x=16 extrapolates to
        // 40 + (16-4)/(8-4) * (80-40) = 160, well above the clamped 80.
        assert_eq!(g.query(16, 0, 0), 160.0);
        assert_eq!(g.query(12, 0, 0), 120.0);
        // Below-range queries clamp to the first sample.
        assert_eq!(g.query(0, 0, 0), 10.0);
    }

    #[test]
    fn query_extrapolates_above_top_sample_3d() {
        let g = NdGrid::build(
            Axis::pow2(1, 4),
            Axis::pow2(16, 64),
            Axis::pow2(16, 64),
            |b, s1, s2| (b * (s1 + s2)) as f64,
        );
        // Multilinear in each coordinate, so extrapolation reproduces the
        // separable function exactly even with every coordinate above its
        // top sample.
        assert!((g.query(8, 128, 256) - (8 * (128 + 256)) as f64).abs() < 1e-9);
        // Mixed: one axis above range, one in range, one below.
        assert!((g.query(8, 24, 8) - (8 * (24 + 16)) as f64).abs() < 1e-9);
    }

    #[test]
    fn batched_queries_bit_identical_to_scalar() {
        let g = NdGrid::build(
            Axis::pow2(1, 16),
            Axis::pow2(16, 256),
            Axis::pow2(16, 256),
            |b, s1, s2| (b * s1) as f64 * 1.37 + (s2 as f64).sqrt() * 0.11,
        );
        // In-range, on-grid, below-range and above-range (extrapolating)
        // points, with duplicates to exercise the cell collapse. The last
        // four reach coordinates above the direct memo's range on the
        // first two axes, which then locate per point.
        let points = [
            (3usize, 100usize, 33usize),
            (1, 16, 16),
            (0, 0, 0),
            (64, 1000, 17),
            (3, 100, 33),
            (16, 256, 256),
            (5, 300, 4000),
            (3, 100, 33),
            (70_000, 100, 33),
            (3, 100_000, 33),
            (70_000, 100, 33),
            (3, 100_000, 33),
        ];
        let collapsed = g.plan_queries(points.iter().copied());
        assert_eq!(collapsed.num_points(), points.len());
        assert_eq!(
            collapsed.num_cells(),
            points.len() - 4,
            "duplicates collapse"
        );
        let per_point = g.plan_queries_distinct(points.iter().copied());
        assert_eq!(per_point.num_points(), points.len());
        assert_eq!(per_point.num_cells(), points.len(), "one cell per point");
        for batch in [&collapsed, &per_point] {
            let mut out = Vec::new();
            g.query_batch(batch, &mut out);
            for (p, v) in points.iter().zip(&out) {
                assert_eq!(
                    v.to_bits(),
                    g.query(p.0, p.1, p.2).to_bits(),
                    "point {p:?} diverged from scalar query"
                );
            }
        }
    }

    #[test]
    fn masked_batch_matches_scalar_on_unmasked_and_skips_dead_cells() {
        let g = NdGrid::build(
            Axis::pow2(1, 16),
            Axis::pow2(16, 256),
            Axis::pow2(16, 256),
            |b, s1, s2| (b * s1) as f64 * 1.37 + (s2 as f64).sqrt() * 0.11,
        );
        let points = [
            (3usize, 100usize, 33usize),
            (1, 16, 16),
            (64, 1000, 17),
            (3, 100, 33), // duplicate of point 0 (shared cell)
            (5, 300, 4000),
            (16, 256, 256),
        ];
        let batch = g.plan_queries(points.iter().copied());
        // Mask out points 1 and 4; point 3 shares its cell with unmasked
        // point 0, so that cell must still be evaluated.
        let mask = [true, false, true, true, false, true];
        let mut out = Vec::new();
        let evals = g.query_batch_masked(&batch, &mask, &mut out);
        assert_eq!(out.len(), points.len());
        for (i, p) in points.iter().enumerate() {
            if mask[i] {
                assert_eq!(
                    out[i].to_bits(),
                    g.query(p.0, p.1, p.2).to_bits(),
                    "unmasked point {p:?} diverged from scalar query"
                );
            } else {
                assert!(out[i].is_infinite(), "masked point must be poisoned");
            }
        }
        // 4 distinct unmasked points share 3 distinct cells (0 and 3
        // collapse); the 2 masked points' private cells are never touched.
        assert_eq!(evals, 3, "only cells reachable from unmasked points");
    }

    #[test]
    fn fully_masked_batch_evaluates_nothing() {
        let g = NdGrid::build(
            Axis::pow2(1, 8),
            Axis::singleton(),
            Axis::singleton(),
            |b, _, _| b as f64,
        );
        let batch = g.plan_queries([(2usize, 0usize, 0usize), (5, 0, 0)]);
        let mut out = Vec::new();
        assert_eq!(g.query_batch_masked(&batch, &[false, false], &mut out), 0);
        assert!(out.iter().all(|v| v.is_infinite()));
    }

    #[test]
    fn batch_plan_reusable_across_grids_sharing_axes() {
        let a0 = Axis::pow2(1, 8);
        let a1 = Axis::pow2(32, 128);
        let f = NdGrid::build(a0.clone(), a1.clone(), Axis::singleton(), |b, s, _| {
            (b * s) as f64
        });
        let gdata = NdGrid::build(a0, a1, Axis::singleton(), |b, s, _| (b + s) as f64);
        let points = [(3usize, 48usize, 0usize), (20, 999, 0)];
        let batch = f.plan_queries(points.iter().copied());
        let (mut of, mut og) = (Vec::new(), Vec::new());
        f.query_batch(&batch, &mut of);
        gdata.query_batch(&batch, &mut og);
        for (i, p) in points.iter().enumerate() {
            assert_eq!(of[i].to_bits(), f.query(p.0, p.1, p.2).to_bits());
            assert_eq!(og[i].to_bits(), gdata.query(p.0, p.1, p.2).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "differently-shaped axes")]
    fn query_batch_rejects_mismatched_axes() {
        let g1 = NdGrid::build(
            Axis::pow2(1, 8),
            Axis::singleton(),
            Axis::singleton(),
            |b, _, _| b as f64,
        );
        let g2 = NdGrid::build(
            Axis::pow2(1, 16),
            Axis::singleton(),
            Axis::singleton(),
            |b, _, _| b as f64,
        );
        let batch = g1.plan_queries([(2usize, 0usize, 0usize)]);
        let mut out = Vec::new();
        g2.query_batch(&batch, &mut out);
    }
}
