//! The planner-facing cost model: per-stage and per-micro-batch estimates.
//!
//! Composes interpolated per-layer profiles into the quantities DynaPipe's
//! planners consume: forward/backward time of each pipeline stage for a
//! micro-batch shape, the micro-batch execution time `t(M) = t_f(M) + t_b(M)`
//! of Eq. 1 (taken on the bottleneck stage), activation memory per stage,
//! and the per-stage activation budget left after static model state.

use crate::grid::{GridSet, NdGrid};
use crate::profile::{ProfileDb, ProfileOptions};
use dynapipe_model::config::{ModelArch, ModelConfig};
use dynapipe_model::hardware::{HardwareModel, LayerKind};
use dynapipe_model::memory::{MemoryModel, RecomputeMode};
use dynapipe_model::parallel::{ParallelConfig, StageLayout};
use dynapipe_model::shapes::{MicroBatchShape, ACT_DTYPE_BYTES};
use dynapipe_model::{Bytes, Micros};
use serde::{Deserialize, Serialize};

/// Cost model for one (model, parallelism) deployment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostModel {
    /// The deployed model.
    pub model: ModelConfig,
    /// Pipeline stage layout.
    pub layout: StageLayout,
    /// Parallelism configuration.
    pub parallel: ParallelConfig,
    /// Hardware description (for communication terms and memory capacity).
    pub hw: HardwareModel,
    /// Memory formulas.
    pub mem: MemoryModel,
    db: ProfileDb,
    static_bytes: Vec<Bytes>,
    /// Representative stage indices, one per distinct stage signature
    /// (layer mix / embedding / LM head) — max-over-stages queries only
    /// need to visit these.
    distinct_stages: Vec<usize>,
}

impl CostModel {
    /// Profile and assemble a cost model.
    pub fn build(
        hw: HardwareModel,
        model: ModelConfig,
        parallel: ParallelConfig,
        opts: &ProfileOptions,
    ) -> Self {
        let layout = StageLayout::new(&model, parallel.pp);
        let mem = MemoryModel::default();
        let db = ProfileDb::profile(&hw, &mem, &model, parallel.tp, opts);
        let static_bytes = layout
            .stages
            .iter()
            .map(|st| mem.static_stage_bytes(&model, st, parallel.tp, parallel.dp))
            .collect();
        let mut seen = std::collections::HashSet::new();
        let distinct_stages = layout
            .stages
            .iter()
            .enumerate()
            .filter(|(_, st)| seen.insert(**st))
            .map(|(i, _)| i)
            .collect();
        CostModel {
            model,
            layout,
            parallel,
            hw,
            mem,
            db,
            static_bytes,
            distinct_stages,
        }
    }

    /// Number of pipeline stages.
    pub fn num_stages(&self) -> usize {
        self.layout.num_stages()
    }

    fn kinds(&self) -> (LayerKind, LayerKind) {
        match self.model.arch {
            ModelArch::Gpt => (LayerKind::GptDecoder, LayerKind::GptDecoder),
            ModelArch::T5 => (LayerKind::T5Encoder, LayerKind::T5Decoder),
        }
    }

    /// Estimated forward time of stage `s` for a micro-batch.
    pub fn stage_fwd(&self, s: usize, shape: &MicroBatchShape) -> Micros {
        if shape.batch_size == 0 {
            return 0.0;
        }
        let st = self.layout.stage(s);
        let (ek, dk) = self.kinds();
        let mut t = 0.0;
        if st.encoder_layers > 0 {
            t += st.encoder_layers as f64 * self.db.layer_fwd(ek, shape);
        }
        if st.decoder_layers > 0 {
            t += st.decoder_layers as f64 * self.db.layer_fwd(dk, shape);
        }
        if st.has_lm_head {
            t += self.db.lm_head_fwd_time(self.target_tokens(shape));
        }
        t
    }

    /// Estimated backward time of stage `s`, including recomputation
    /// overhead for the given mode.
    pub fn stage_bwd(&self, s: usize, shape: &MicroBatchShape, mode: RecomputeMode) -> Micros {
        if shape.batch_size == 0 {
            return 0.0;
        }
        let st = self.layout.stage(s);
        let (ek, dk) = self.kinds();
        let mut t = 0.0;
        if st.encoder_layers > 0 {
            t += st.encoder_layers as f64
                * (self.db.layer_bwd(ek, shape) + self.db.layer_recompute(ek, shape, mode));
        }
        if st.decoder_layers > 0 {
            t += st.decoder_layers as f64
                * (self.db.layer_bwd(dk, shape) + self.db.layer_recompute(dk, shape, mode));
        }
        if st.has_lm_head {
            t += self.hw.backward_ratio * self.db.lm_head_fwd_time(self.target_tokens(shape));
        }
        t
    }

    /// Forward time on the bottleneck stage — the `t_f(M)` of Eq. 1.
    pub fn mb_fwd(&self, shape: &MicroBatchShape) -> Micros {
        self.distinct_stages
            .iter()
            .map(|&s| self.stage_fwd(s, shape))
            .fold(0.0, f64::max)
    }

    /// Backward time on the bottleneck stage — the `t_b(M)` of Eq. 1.
    pub fn mb_bwd(&self, shape: &MicroBatchShape, mode: RecomputeMode) -> Micros {
        self.distinct_stages
            .iter()
            .map(|&s| self.stage_bwd(s, shape, mode))
            .fold(0.0, f64::max)
    }

    /// The micro-batch execution time `t(M) = t_f(M) + t_b(M)` of Eq. 1.
    pub fn mb_time(&self, shape: &MicroBatchShape, mode: RecomputeMode) -> Micros {
        self.mb_fwd(shape) + self.mb_bwd(shape, mode)
    }

    /// Estimated activation bytes stage `s` holds for one in-flight
    /// micro-batch under `mode` (stored layer activations plus the retained
    /// stage input).
    pub fn stage_activation(
        &self,
        s: usize,
        shape: &MicroBatchShape,
        mode: RecomputeMode,
    ) -> Bytes {
        if shape.batch_size == 0 {
            return 0;
        }
        let st = self.layout.stage(s);
        let (ek, dk) = self.kinds();
        let mut b = 0.0;
        if st.encoder_layers > 0 {
            b += st.encoder_layers as f64 * self.db.layer_activation(ek, shape, mode);
        }
        if st.decoder_layers > 0 {
            b += st.decoder_layers as f64 * self.db.layer_activation(dk, shape, mode);
        }
        let input = shape.padded_tokens() * self.model.hidden_dim as u64 * ACT_DTYPE_BYTES
            / self.parallel.tp as u64;
        b as Bytes + input
    }

    /// Worst-case (across stages) activation bytes for one micro-batch.
    pub fn mb_activation_max(&self, shape: &MicroBatchShape, mode: RecomputeMode) -> Bytes {
        self.distinct_stages
            .iter()
            .map(|&s| self.stage_activation(s, shape, mode))
            .max()
            .unwrap_or(0)
    }

    /// Device memory left for activations on stage `s`, saturating at zero.
    pub fn activation_budget(&self, s: usize) -> Bytes {
        self.hw.device_memory.saturating_sub(self.static_bytes[s])
    }

    /// The tightest activation budget across stages.
    pub fn min_activation_budget(&self) -> Bytes {
        (0..self.num_stages())
            .map(|s| self.activation_budget(s))
            .min()
            .unwrap_or(0)
    }

    /// Whether the deployment is feasible at all (every stage's static
    /// state fits and leaves room for at least some activation).
    pub fn is_feasible(&self) -> bool {
        self.min_activation_budget() > 0
    }

    /// Bytes of the activation tensor crossing the boundary after stage `s`.
    pub fn boundary_bytes(&self, s: usize, shape: &MicroBatchShape) -> Bytes {
        let kind = self.layout.stage(s).kind(self.model.arch);
        shape.boundary_activation_bytes(kind, self.model.hidden_dim) / self.parallel.tp as u64
    }

    fn target_tokens(&self, shape: &MicroBatchShape) -> usize {
        match self.model.arch {
            ModelArch::Gpt => shape.batch_size * shape.enc_len,
            ModelArch::T5 => shape.batch_size * shape.dec_len,
        }
    }

    /// Build a [`ShapePricer`]: a resolved view of every mode's profile
    /// grids and the stage structure, for pricing many shapes in a tight
    /// loop (the DP partitioner's pricing pass). Produces bit-identical
    /// results to [`CostModel::mb_time`] / [`CostModel::mb_activation_max`]
    /// — the same grid queries and accumulation order — with the per-call
    /// profile lookups and stage walks hoisted out.
    pub fn shape_pricer(&self) -> ShapePricer<'_> {
        let (ek, dk) = self.kinds();
        let resolve = |kind: LayerKind| {
            let p = &self.db.layers[&kind];
            LayerGrids {
                grids: std::array::from_fn(|g| match g {
                    FWD => &p.fwd_time,
                    BWD => &p.bwd_time,
                    g if g < ACT => &p.recompute_extra[g - RECOMPUTE],
                    g => &p.activation[g - ACT],
                }),
                decoder_coords: kind == LayerKind::T5Decoder,
            }
        };
        ShapePricer {
            enc: resolve(ek),
            dec: resolve(dk),
            lm_head_fwd: &self.db.lm_head_fwd,
            backward_ratio: self.hw.backward_ratio,
            stages: self
                .distinct_stages
                .iter()
                .fold(Vec::new(), |mut terms, &s| {
                    let st = self.layout.stage(s);
                    let t = StageTerms {
                        encoder_layers: st.encoder_layers,
                        decoder_layers: st.decoder_layers,
                        has_lm_head: st.has_lm_head,
                    };
                    if !terms.contains(&t) {
                        terms.push(t);
                    }
                    terms
                }),
            gpt_target: matches!(self.model.arch, ModelArch::Gpt),
            any_enc: self
                .distinct_stages
                .iter()
                .any(|&s| self.layout.stage(s).encoder_layers > 0),
            any_dec: self
                .distinct_stages
                .iter()
                .any(|&s| self.layout.stage(s).decoder_layers > 0),
            hidden_act_bytes: self.model.hidden_dim as u64 * ACT_DTYPE_BYTES,
            tp: self.parallel.tp as u64,
        }
    }
}

/// Number of recomputation modes (the length of [`RecomputeMode::ALL`]).
const NUM_MODES: usize = RecomputeMode::ALL.len();

/// Index of the forward-time grid in [`LayerGrids::grids`].
const FWD: usize = 0;
/// Index of the backward-time grid.
const BWD: usize = 1;
/// Index of the first mode's `recompute_extra` grid; mode `m`'s is at
/// `RECOMPUTE + m`.
const RECOMPUTE: usize = 2;
/// Index of the first mode's `activation` grid; mode `m`'s is at
/// `ACT + m`.
const ACT: usize = RECOMPUTE + NUM_MODES;
/// Grids per layer kind: forward, backward, and every mode's recompute
/// and activation grids.
const LAYER_GRIDS: usize = ACT + NUM_MODES;

/// Resolved grid references for one layer kind, every mode's included.
struct LayerGrids<'a> {
    /// Indexed by [`FWD`], [`BWD`], [`RECOMPUTE`]` + m` and [`ACT`]` + m`.
    grids: [&'a NdGrid; LAYER_GRIDS],
    /// T5 decoder layers interpolate over (dec_len, enc_len); everything
    /// else over (enc_len, 0).
    decoder_coords: bool,
}

impl<'a> LayerGrids<'a> {
    fn coords(&self, shape: &MicroBatchShape) -> (usize, usize) {
        if self.decoder_coords {
            (shape.dec_len, shape.enc_len)
        } else {
            (shape.enc_len, 0)
        }
    }

    /// A grid set over every grid of the layer kind, its memos sized to
    /// the coordinates `shapes` reach.
    fn grid_set(&self, shapes: &[MicroBatchShape]) -> GridSet<'a, LAYER_GRIDS> {
        let max = |f: &dyn Fn(&MicroBatchShape) -> usize| shapes.iter().map(f).max().unwrap_or(0);
        GridSet::new(
            self.grids,
            [
                max(&|s| s.batch_size),
                max(&|s| self.coords(s).0),
                max(&|s| self.coords(s).1),
            ],
        )
    }

    /// Every grid's value at `shape`'s point, read through `set`; zeros
    /// when the side has no layers (no set), as in the scalar path.
    fn values(
        &self,
        set: &mut Option<GridSet<'a, LAYER_GRIDS>>,
        shape: &MicroBatchShape,
    ) -> [f64; LAYER_GRIDS] {
        match set {
            Some(set) => {
                let (q, kv) = self.coords(shape);
                set.query(shape.batch_size, q, kv)
            }
            None => [0.0; LAYER_GRIDS],
        }
    }
}

/// The layer counts of a stage, as pricing sees them. A pricer keeps one
/// per distinct value: stages with equal terms price to the same bits, and
/// a repeated value never changes a max over stages.
#[derive(PartialEq)]
struct StageTerms {
    encoder_layers: usize,
    decoder_layers: usize,
    has_lm_head: bool,
}

/// A resolved pricing view over a [`CostModel`] for tables of
/// [`MicroBatchShape`]s (see [`CostModel::shape_pricer`] and
/// [`ShapePricer::price_every_mode`]).
pub struct ShapePricer<'a> {
    enc: LayerGrids<'a>,
    dec: LayerGrids<'a>,
    lm_head_fwd: &'a NdGrid,
    backward_ratio: f64,
    stages: Vec<StageTerms>,
    gpt_target: bool,
    any_enc: bool,
    any_dec: bool,
    hidden_act_bytes: u64,
    tp: u64,
}

/// Every recomputation mode's price of each shape of a table (see
/// [`ShapePricer::price_every_mode`]): the micro-batch time
/// `t(M) = t_f(M) + t_b(M)` of Eq. 1 and the worst-case per-stage
/// activation bytes. Times are unmasked: comparing the activation against
/// a memory limit is the caller's.
pub struct ModePrices {
    /// Per mode (in [`RecomputeMode::ALL`] order), per shape: `t(M)`.
    time: [Vec<Micros>; NUM_MODES],
    /// Per mode, per shape: worst-case activation bytes.
    activation: [Vec<Bytes>; NUM_MODES],
}

impl ModePrices {
    /// Number of shapes priced.
    pub fn len(&self) -> usize {
        self.time[0].len()
    }

    /// Whether no shape was priced.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `t(M)` of each shape under `mode`, bit-identical to
    /// [`CostModel::mb_time`].
    pub fn time(&self, mode: RecomputeMode) -> &[Micros] {
        &self.time[ProfileDb::mode_index(mode)]
    }

    /// Worst-case activation bytes of each shape under `mode`, equal to
    /// [`CostModel::mb_activation_max`].
    pub fn activation(&self, mode: RecomputeMode) -> &[Bytes] {
        &self.activation[ProfileDb::mode_index(mode)]
    }
}

impl<'a> ShapePricer<'a> {
    fn target_tokens(&self, shape: &MicroBatchShape) -> usize {
        if self.gpt_target {
            shape.batch_size * shape.enc_len
        } else {
            shape.batch_size * shape.dec_len
        }
    }

    /// Price every shape of `shapes` under every recomputation mode in one
    /// pass. Element `i` of mode `m`'s time is bit-identical to
    /// `cm.mb_time(&shapes[i], m)`, and of its activation to
    /// `cm.mb_activation_max(&shapes[i], m)`.
    ///
    /// Each layer side's grid coordinates depend only on the shape, and
    /// every mode's grids share the profile's sampling axes, so each shape
    /// is located once per side and every grid of the side — forward,
    /// backward, and each mode's `recompute_extra` and `activation` — is
    /// read in that one visit (a [`GridSet`]), with nothing stored per
    /// point. The stage folds keep the scalar path's operand order:
    /// `layers × (bwd + recompute)` per side, then the LM head's backward.
    pub fn price_every_mode(&self, shapes: &[MicroBatchShape]) -> ModePrices {
        let n = shapes.len();
        let mut enc_set = self.any_enc.then(|| self.enc.grid_set(shapes));
        let mut dec_set = self.any_dec.then(|| self.dec.grid_set(shapes));
        let max_target = shapes.iter().map(|s| self.target_tokens(s)).max();
        let mut lm = GridSet::new([self.lm_head_fwd], [max_target.unwrap_or(0), 0, 0]);
        let mut prices = ModePrices {
            time: std::array::from_fn(|_| Vec::with_capacity(n)),
            activation: std::array::from_fn(|_| Vec::with_capacity(n)),
        };
        for shape in shapes {
            if shape.batch_size == 0 {
                for m in 0..NUM_MODES {
                    prices.time[m].push(0.0);
                    prices.activation[m].push(0);
                }
                continue;
            }
            let enc = self.enc.values(&mut enc_set, shape);
            let dec = self.dec.values(&mut dec_set, shape);
            let [lm] = lm.query(self.target_tokens(shape), 0, 0);
            let lm_bwd = self.backward_ratio * lm;
            let enc_bwd: [f64; NUM_MODES] = std::array::from_fn(|m| enc[BWD] + enc[RECOMPUTE + m]);
            let dec_bwd: [f64; NUM_MODES] = std::array::from_fn(|m| dec[BWD] + dec[RECOMPUTE + m]);
            // Same operand values and division order as `stage_activation`
            // (integer division must not be re-associated).
            let input = shape.padded_tokens() * self.hidden_act_bytes / self.tp;
            // One walk of the stages folds `t_f` and every mode's `t_b` and
            // activation, each in the scalar methods' operand order.
            let mut fwd_max = 0.0f64;
            let mut bwd_max = [0.0f64; NUM_MODES];
            let mut act_max: [Bytes; NUM_MODES] = [0; NUM_MODES];
            for st in &self.stages {
                let (e, d) = (st.encoder_layers as f64, st.decoder_layers as f64);
                let mut fwd = 0.0;
                if st.encoder_layers > 0 {
                    fwd += e * enc[FWD];
                }
                if st.decoder_layers > 0 {
                    fwd += d * dec[FWD];
                }
                if st.has_lm_head {
                    fwd += lm;
                }
                fwd_max = fwd_max.max(fwd);
                for m in 0..NUM_MODES {
                    let mut bwd = 0.0;
                    let mut bytes = 0.0f64;
                    if st.encoder_layers > 0 {
                        bwd += e * enc_bwd[m];
                        bytes += e * enc[ACT + m];
                    }
                    if st.decoder_layers > 0 {
                        bwd += d * dec_bwd[m];
                        bytes += d * dec[ACT + m];
                    }
                    if st.has_lm_head {
                        bwd += lm_bwd;
                    }
                    bwd_max[m] = bwd_max[m].max(bwd);
                    act_max[m] = act_max[m].max(bytes as Bytes + input);
                }
            }
            for m in 0..NUM_MODES {
                prices.time[m].push(fwd_max + bwd_max[m]);
                prices.activation[m].push(act_max[m]);
            }
        }
        prices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpt_cm(pp: usize) -> CostModel {
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

    #[test]
    fn stage_times_positive_and_scale_with_batch() {
        let cm = gpt_cm(4);
        let small = MicroBatchShape::gpt(1, 512);
        let large = MicroBatchShape::gpt(8, 512);
        for s in 0..4 {
            assert!(cm.stage_fwd(s, &small) > 0.0);
            assert!(cm.stage_fwd(s, &large) > cm.stage_fwd(s, &small));
        }
    }

    #[test]
    fn last_stage_pays_lm_head() {
        let cm = gpt_cm(4);
        let shape = MicroBatchShape::gpt(4, 1024);
        // Equal layer counts on all stages, so the LM head makes stage 3
        // strictly slower than stage 1.
        assert!(cm.stage_fwd(3, &shape) > cm.stage_fwd(1, &shape));
    }

    #[test]
    fn mb_time_is_fwd_plus_bwd_of_bottleneck() {
        let cm = gpt_cm(2);
        let shape = MicroBatchShape::gpt(2, 2048);
        let t = cm.mb_time(&shape, RecomputeMode::None);
        assert!((t - (cm.mb_fwd(&shape) + cm.mb_bwd(&shape, RecomputeMode::None))).abs() < 1e-9);
        assert!(t > 0.0);
    }

    #[test]
    fn recompute_increases_bwd_time() {
        let cm = gpt_cm(2);
        let shape = MicroBatchShape::gpt(4, 2048);
        assert!(cm.mb_bwd(&shape, RecomputeMode::Full) > cm.mb_bwd(&shape, RecomputeMode::None));
    }

    #[test]
    fn activation_budget_subtracts_static_state() {
        let cm = gpt_cm(4);
        for s in 0..4 {
            assert!(cm.activation_budget(s) < cm.hw.device_memory);
            assert!(cm.activation_budget(s) > 0, "config must be feasible");
        }
        assert!(cm.is_feasible());
    }

    #[test]
    fn empty_shape_is_free() {
        let cm = t5_cm(2);
        let e = MicroBatchShape::empty();
        assert_eq!(cm.mb_time(&e, RecomputeMode::None), 0.0);
        assert_eq!(cm.mb_activation_max(&e, RecomputeMode::None), 0);
    }

    #[test]
    fn t5_encoder_and_decoder_stages_cost_differently() {
        let cm = t5_cm(4);
        // Long input, short target: encoder stages dominate.
        let enc_heavy = MicroBatchShape::t5(2, 4096, 64);
        assert!(cm.stage_fwd(0, &enc_heavy) > cm.stage_fwd(2, &enc_heavy) * 0.5);
        // Costs must be positive on decoder stages too.
        assert!(cm.stage_fwd(2, &enc_heavy) > 0.0);
    }

    #[test]
    fn boundary_bytes_shrink_with_tp() {
        let cm1 = gpt_cm(2);
        let cm2 = CostModel::build(
            HardwareModel::a100_cluster(),
            ModelConfig::gpt_6_7b(),
            ParallelConfig::new(1, 2, 2),
            &ProfileOptions::coarse(),
        );
        let shape = MicroBatchShape::gpt(4, 1024);
        assert_eq!(
            cm2.boundary_bytes(0, &shape),
            cm1.boundary_bytes(0, &shape) / 2
        );
    }

    #[test]
    fn batched_pricing_bit_identical_to_scalar_across_modes() {
        // One table of shapes, priced under every recomputation mode in
        // one pass, must reproduce the scalar
        // per-shape methods exactly — this is the contract the DP
        // partitioner's cost pass relies on. GPT's above-range shape takes
        // the LM-head axis past the direct memo's range; the empty shape
        // prices to zero.
        for cm in [gpt_cm(4), t5_cm(4)] {
            let shapes: Vec<MicroBatchShape> = match cm.model.arch {
                ModelArch::Gpt => vec![
                    MicroBatchShape::gpt(1, 37),
                    MicroBatchShape::gpt(3, 900),
                    MicroBatchShape::gpt(3, 900), // duplicate point
                    MicroBatchShape::gpt(9, 300), // same target tokens
                    MicroBatchShape::empty(),
                    MicroBatchShape::gpt(64, 100_000), // above-range
                ],
                ModelArch::T5 => vec![
                    MicroBatchShape::t5(2, 512, 64),
                    MicroBatchShape::t5(2, 512, 96), // shared enc point
                    MicroBatchShape::t5(4, 300, 48), // same target tokens
                    MicroBatchShape::t5(7, 3000, 333),
                    MicroBatchShape::empty(),
                    MicroBatchShape::t5(64, 100_000, 9000), // above-range
                ],
            };
            let prices = cm.shape_pricer().price_every_mode(&shapes);
            assert_eq!(prices.len(), shapes.len());
            for mode in RecomputeMode::ALL {
                for (i, s) in shapes.iter().enumerate() {
                    let (t, act) = (prices.time(mode)[i], prices.activation(mode)[i]);
                    let case = format!("{:?} mode {mode:?} shape {i}", cm.model.arch);
                    assert_eq!(
                        t.to_bits(),
                        cm.mb_time(s, mode).to_bits(),
                        "{case}: t(M) diverged"
                    );
                    assert_eq!(
                        act,
                        cm.mb_activation_max(s, mode),
                        "{case}: activation diverged"
                    );
                    if s.batch_size == 0 {
                        assert_eq!((t, act), (0.0, 0), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn estimates_track_ground_truth_within_fig18_band() {
        // Compare the interpolated stage estimate against the analytic
        // ground truth for off-grid shapes; Fig. 18 reports ~4-11% mean
        // error, so individual points should stay within ~30%.
        let cm = gpt_cm(2);
        let hw = HardwareModel::a100_cluster();
        for (b, s) in [(3usize, 900usize), (6, 1500), (10, 300)] {
            let shape = MicroBatchShape::gpt(b, s);
            let est = cm.stage_fwd(0, &shape);
            let truth = hw.stage_time_fwd(&cm.model, cm.layout.stage(0), &shape, 1);
            let rel = (est - truth).abs() / truth;
            assert!(rel < 0.30, "b={b} s={s} rel={rel}");
        }
    }
}
