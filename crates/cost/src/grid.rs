//! Geometric sampling grids with multilinear interpolation.
//!
//! The paper profiles at power-of-two intervals and uses linear
//! interpolation between sampled points (§3). [`NdGrid`] implements that
//! for up to three axes (micro-batch size × query length × context length);
//! 2D and 1D grids use degenerate trailing axes.
//!
//! Besides the scalar [`NdGrid::query`], a [`GridSet`] serves many points
//! against grids that share their axes (the forward, backward, recompute
//! and activation profiles of one layer kind): it locates each point once,
//! small coordinates once per distinct value, and reads every grid of the
//! set in that one visit. It is bit-identical to calling `query` per point
//! on each grid.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative process-wide grid-query counters (diagnostics; relaxed
/// atomics, so numbers are exact only for single-threaded phases and
/// approximate-but-complete otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GridQueryStats {
    /// Scalar [`NdGrid::query`] calls.
    pub scalar: u64,
    /// Points queried through [`GridSet`]s, the batched path.
    pub batch_cells: u64,
}

static SCALAR_QUERIES: AtomicU64 = AtomicU64::new(0);
static BATCH_CELLS: AtomicU64 = AtomicU64::new(0);

/// Snapshot the process-wide grid-query counters.
pub fn grid_query_stats() -> GridQueryStats {
    GridQueryStats {
        scalar: SCALAR_QUERIES.load(Ordering::Relaxed),
        batch_cells: BATCH_CELLS.load(Ordering::Relaxed),
    }
}

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
        // Now `v[0] < x < last`, and the strictly increasing axis has one
        // bracket `v[lo] <= x < v[lo + 1]`. On a power-of-two axis it is
        // `x`'s bit length less the first sample's: try that guess, and
        // binary-search for the bracket when the guess misses it.
        let bits = |u: usize| usize::BITS - u.leading_zeros();
        let guess = ((bits(x) - bits(v[0])) as usize).min(v.len() - 2);
        let lo = if v[guess] <= x && x < v[guess + 1] {
            guess
        } else {
            // partition_point: first index with value > x, so idx-1
            // brackets x.
            v.partition_point(|&p| p <= x) - 1
        };
        let frac = (x - v[lo]) as f64 / (v[lo + 1] - v[lo]) as f64;
        (lo, frac)
    }
}

/// One query point resolved against a set of axes: the flat data offsets
/// of the cell's eight corners and the interpolation fraction per axis —
/// what [`NdGrid::query`] derives per call. The offsets hold on every grid
/// sharing the axes, because they fix the data layout.
struct LocatedCell {
    corners: [u32; 8],
    f: [f64; 3],
}

/// Flat data offsets of the eight corners of the cell with lower indices
/// `i` and upper indices `j`, on a grid whose last two axes have `len1`
/// and `len2` samples, in the order [`trilinear`] reads them: axis 0
/// varies fastest, then axis 1, then axis 2.
fn corner_offsets(i: [usize; 3], j: [usize; 3], len1: usize, len2: usize) -> [usize; 8] {
    let at = |x0: usize, x1: usize, x2: usize| (x0 * len1 + x1) * len2 + x2;
    [
        at(i[0], i[1], i[2]),
        at(j[0], i[1], i[2]),
        at(i[0], j[1], i[2]),
        at(j[0], j[1], i[2]),
        at(i[0], i[1], j[2]),
        at(j[0], i[1], j[2]),
        at(i[0], j[1], j[2]),
        at(j[0], j[1], j[2]),
    ]
}

/// The trilinear kernel over a cell's corner values (in
/// [`corner_offsets`] order) and fractions. The scalar path calls it, and
/// a grid set runs its operations lane by lane, so both are bit-identical
/// by construction (same operands, same operation order).
#[inline]
fn trilinear(v: [f64; 8], f: [f64; 3]) -> f64 {
    let lerp = |a: f64, b: f64, t: f64| a + (b - a) * t;
    let c00 = lerp(v[0], v[1], f[0]);
    let c10 = lerp(v[2], v[3], f[0]);
    let c01 = lerp(v[4], v[5], f[0]);
    let c11 = lerp(v[6], v[7], f[0]);
    let c0 = lerp(c00, c10, f[1]);
    let c1 = lerp(c01, c11, f[1]);
    lerp(c0, c1, f[2])
}

/// [`Axis::locate`] for one grid set, memoized when the coordinates are
/// small: up to [`DIRECT_MEMO_MAX`], each distinct coordinate is located
/// once through a direct-index slot table. A wider axis (an LM head's
/// token counts reach 128 × 4096) calls `Axis::locate` per point: one
/// short binary search is cheaper than hashing the coordinate into a
/// memo. Duplicate coordinates are allowed on both paths.
struct AxisMemo<'a> {
    axis: &'a Axis,
    located: Vec<(u32, f64)>,
    /// `slots[x]` is the 1-based located slot of coordinate `x` (0 = not
    /// yet located); empty on degenerate and wide axes. Coordinates past
    /// its end take the wide-axis path.
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
        if x >= self.slots.len() {
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

/// Locates points against three axes through one [`AxisMemo`] each.
struct Locator<'a> {
    memos: [AxisMemo<'a>; 3],
    lens: [usize; 3],
}

impl<'a> Locator<'a> {
    /// A locator over `axes` whose memos cover coordinates up to `max`
    /// (larger ones are located unmemoized).
    ///
    /// # Panics
    ///
    /// Panics if a grid over the axes has more samples than a `u32`
    /// offset addresses.
    fn new(axes: [&'a Axis; 3], max: [usize; 3]) -> Self {
        let lens = axes.map(Axis::len);
        assert!(
            lens[0] * lens[1] * lens[2] <= u32::MAX as usize,
            "grid too large for 32-bit cell offsets"
        );
        Locator {
            memos: [0, 1, 2].map(|k| AxisMemo::new(axes[k], max[k])),
            lens,
        }
    }

    fn cell(&mut self, p: (usize, usize, usize)) -> LocatedCell {
        let (i0, f0) = self.memos[0].locate(p.0);
        let (i1, f1) = self.memos[1].locate(p.1);
        let (i2, f2) = self.memos[2].locate(p.2);
        let i = [i0 as usize, i1 as usize, i2 as usize];
        let j = [0, 1, 2].map(|k| (i[k] + 1).min(self.lens[k] - 1));
        LocatedCell {
            corners: corner_offsets(i, j, self.lens[1], self.lens[2]).map(|o| o as u32),
            f: [f0, f1, f2],
        }
    }
}

/// `N` grids over the same axes, queried together: one query locates its
/// point once and reads each corner's values for all grids side by side,
/// interpolating them lane by lane. Values are bit-identical to
/// [`NdGrid::query`] on each grid.
///
/// A set memoizes coordinate location but keeps no per-point state: it
/// suits a stream of points each queried once, such as the rows of an
/// already-deduplicated shape table.
pub struct GridSet<'g, const N: usize> {
    locator: Locator<'g>,
    /// `data[offset][g]` is grid `g`'s sample at flat offset `offset`.
    data: Vec<[f64; N]>,
    /// Whether axis 1 is degenerate: its upper corners are its lower ones.
    flat1: bool,
    /// Whether axis 2 is degenerate.
    flat2: bool,
    /// Points queried, added to the process-wide count when the set is
    /// dropped.
    queried: u64,
}

impl<'g, const N: usize> GridSet<'g, N> {
    /// A set over `grids`, memoizing coordinates up to `max` per axis
    /// (larger coordinates are located unmemoized).
    ///
    /// # Panics
    ///
    /// Panics if `N == 0` or the grids do not share their axes.
    pub fn new(grids: [&'g NdGrid; N], max: [usize; 3]) -> Self {
        let first = grids.first().expect("a grid set needs at least one grid");
        assert!(
            grids
                .iter()
                .all(|g| (&g.a0, &g.a1, &g.a2) == (&first.a0, &first.a1, &first.a2)),
            "grids of a set must share their axes"
        );
        GridSet {
            locator: Locator::new([&first.a0, &first.a1, &first.a2], max),
            data: (0..first.data.len())
                .map(|o| std::array::from_fn(|g| grids[g].data[o]))
                .collect(),
            flat1: first.a1.is_degenerate(),
            flat2: first.a2.is_degenerate(),
            queried: 0,
        }
    }

    /// Every grid's interpolated value at `(x0, x1, x2)`, in the order
    /// the grids were given.
    ///
    /// Each lane runs [`trilinear`]'s operations in its order. On a
    /// degenerate axis the upper corners are the lower ones, so the lerps
    /// that would repeat an earlier lerp on the same operands reuse its
    /// result instead — the same bits, computed once.
    #[inline]
    pub fn query(&mut self, x0: usize, x1: usize, x2: usize) -> [f64; N] {
        self.queried += 1;
        let c = self.locator.cell((x0, x1, x2));
        let v = |k: usize| &self.data[c.corners[k] as usize];
        let [f0, f1, f2] = c.f;
        let c00 = lerp_lanes(v(0), v(1), f0);
        let c10 = if self.flat1 {
            c00
        } else {
            lerp_lanes(v(2), v(3), f0)
        };
        let c0 = lerp_lanes(&c00, &c10, f1);
        let c1 = if self.flat2 {
            c0
        } else {
            let c01 = lerp_lanes(v(4), v(5), f0);
            let c11 = if self.flat1 {
                c01
            } else {
                lerp_lanes(v(6), v(7), f0)
            };
            lerp_lanes(&c01, &c11, f1)
        };
        lerp_lanes(&c0, &c1, f2)
    }
}

impl<const N: usize> Drop for GridSet<'_, N> {
    fn drop(&mut self) {
        BATCH_CELLS.fetch_add(self.queried, Ordering::Relaxed);
    }
}

/// [`trilinear`]'s lerp, lane by lane.
#[inline]
fn lerp_lanes<const N: usize>(a: &[f64; N], b: &[f64; N], t: f64) -> [f64; N] {
    let mut out = [0.0; N];
    for g in 0..N {
        out[g] = a[g] + (b[g] - a[g]) * t;
    }
    out
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
    /// Whether every query with coordinates up to `reach` per axis is
    /// nonnegative: no sample is negative, and no coordinate passes its
    /// axis's last sample (where a query extrapolates), degenerate axes
    /// aside. Such a query lerps nonnegative values with fractions in
    /// `[0, 1]`, and `a + (b − a)·t` then stays nonnegative in rounded
    /// arithmetic: `b − a` and its product with `t` round to no less than
    /// `−a`.
    pub fn nonnegative_within(&self, reach: [usize; 3]) -> bool {
        let covered = |axis: &Axis, x: usize| {
            axis.is_degenerate() || x <= *axis.values.last().expect("non-empty")
        };
        covered(&self.a0, reach[0])
            && covered(&self.a1, reach[1])
            && covered(&self.a2, reach[2])
            && self.data.iter().all(|&v| v >= 0.0)
    }

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
        let corners = corner_offsets([i0, i1, i2], [j0, j1, j2], self.a1.len(), self.a2.len());
        trilinear(corners.map(|o| self.data[o]), [f0, f1, f2])
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
    fn locate_matches_a_binary_search_for_every_small_coordinate() {
        // The bit-length guess is only a shortcut: on every axis shape,
        // every coordinate up to 2^20 must get the bracket and fraction
        // the binary search alone gives.
        let search = |a: &Axis, x: usize| {
            let v = &a.values;
            if x <= v[0] || a.is_degenerate() {
                return (0, 0.0);
            }
            let lo = (v.partition_point(|&p| p <= x) - 1).min(v.len() - 2);
            (lo, (x - v[lo]) as f64 / (v[lo + 1] - v[lo]) as f64)
        };
        let axes = [
            Axis::pow2(1, 256),
            Axis::pow2(16, 65536),
            Axis::pow2(128, 1 << 19),
            Axis::pow2(1, 1),
            Axis::new(vec![0, 1, 2, 4, 8, 16]),
            Axis::new(vec![3, 5, 6, 7, 100, 129, 4095, 4096, 5000, 1 << 18]),
            Axis::singleton(),
        ];
        for a in &axes {
            for x in 0..=1usize << 20 {
                assert_eq!(a.locate(x), search(a, x), "axis {:?} x={x}", a.values);
            }
        }
    }

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
    fn grid_set_reads_every_grid_like_scalar_queries() {
        // One visit per point prices every grid sharing the axes,
        // bit-identically to scalar queries at each point: repeats,
        // below-range and above-range points included, on full 3-D axes
        // and with degenerate axis 1 and/or 2 (whose repeated lerps are
        // computed once).
        let full = || Axis::pow2(16, 256);
        for (a1, a2) in [
            (full(), full()),
            (full(), Axis::singleton()),
            (Axis::singleton(), full()),
            (Axis::singleton(), Axis::singleton()),
        ] {
            let a0 = Axis::pow2(1, 16);
            let grids: Vec<NdGrid> = [1.37, -0.5, 9.0]
                .into_iter()
                .map(|k| {
                    NdGrid::build(a0.clone(), a1.clone(), a2.clone(), |b, s1, s2| {
                        (b * s1) as f64 * k + (s2 as f64).sqrt() * 0.11 + b as f64 / 3.0
                    })
                })
                .collect();
            // The last two reach coordinates past the direct memo's range.
            let points = [
                (3usize, 100usize, 33usize),
                (1, 16, 16),
                (0, 0, 0),
                (3, 100, 33),
                (64, 1000, 17),
                (5, 300, 4000),
                (70_000, 100, 33),
                (3, 100_000, 33),
            ];
            // Memos sized to the other coordinates, and sized below some
            // (coordinates past a memo locate unmemoized); each set queried
            // twice over so the second pass reads the memos.
            for max in [[64, 1000, 4000], [4, 50, 20]] {
                let mut set = GridSet::new([&grids[0], &grids[1], &grids[2]], max);
                for _ in 0..2 {
                    for p in &points {
                        for (g, v) in grids.iter().zip(set.query(p.0, p.1, p.2)) {
                            assert_eq!(
                                v.to_bits(),
                                g.query(p.0, p.1, p.2).to_bits(),
                                "point {p:?} diverged from scalar query"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "must share their axes")]
    fn grid_set_rejects_grids_on_other_axes() {
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
        let _ = GridSet::new([&g1, &g2], [0; 3]);
    }

    #[test]
    fn nonnegative_within_needs_nonnegative_samples_and_no_extrapolation() {
        let axes = || (Axis::pow2(1, 8), Axis::pow2(16, 64), Axis::singleton());
        let (a0, a1, a2) = axes();
        let rising = NdGrid::build(a0, a1, a2, |b, s, _| (b * s) as f64);
        assert!(rising.nonnegative_within([8, 64, 0]));
        // A degenerate axis never extrapolates, whatever the coordinate.
        assert!(rising.nonnegative_within([8, 64, 1 << 20]));
        assert!(!rising.nonnegative_within([9, 64, 0]));
        assert!(!rising.nonnegative_within([8, 65, 0]));
        let (a0, a1, a2) = axes();
        let dipping = NdGrid::build(a0, a1, a2, |b, s, _| {
            b as f64 - (s == 32) as u8 as f64 * 2.0
        });
        assert!(!dipping.nonnegative_within([1, 16, 0]));
        // Every in-range query of a nonnegative grid is nonnegative, down
        // to the lerps between a sample and zero.
        let (a0, a1, a2) = axes();
        let sparse = NdGrid::build(
            a0,
            a1,
            a2,
            |b, s, _| if (b + s) % 3 == 0 { 1e-300 } else { 0.0 },
        );
        assert!(sparse.nonnegative_within([8, 64, 0]));
        for b in 0..=8 {
            for s in 0..=64 {
                assert!(sparse.query(b, s, 0) >= 0.0, "({b}, {s})");
            }
        }
    }
}
