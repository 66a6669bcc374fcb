//! The planner-facing cost model: per-stage and per-micro-batch estimates.
//!
//! Composes interpolated per-layer profiles into the quantities DynaPipe's
//! planners consume: forward/backward time of each pipeline stage for a
//! micro-batch shape, the micro-batch execution time `t(M) = t_f(M) + t_b(M)`
//! of Eq. 1 (taken on the bottleneck stage), activation memory per stage,
//! and the per-stage activation budget left after static model state.

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

    /// Build a [`ShapePricer`] for `mode`: a resolved view of the profile
    /// grids and stage structure for pricing many shapes in a tight loop
    /// (the DP partitioner's slice-table cost pass). Produces bit-identical
    /// results to [`CostModel::mb_time`] / [`CostModel::mb_activation_max`]
    /// — the same grid queries and accumulation order — with the per-call
    /// profile lookups and stage walks hoisted out.
    pub fn shape_pricer(&self, mode: RecomputeMode) -> ShapePricer<'_> {
        let (ek, dk) = self.kinds();
        let midx = ProfileDb::mode_index(mode);
        let resolve = |kind: LayerKind| {
            let p = &self.db.layers[&kind];
            LayerGrids {
                fwd: &p.fwd_time,
                bwd: &p.bwd_time,
                recompute: &p.recompute_extra[midx],
                activation: &p.activation[midx],
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
                .map(|&s| {
                    let st = self.layout.stage(s);
                    StageTerms {
                        encoder_layers: st.encoder_layers,
                        decoder_layers: st.decoder_layers,
                        has_lm_head: st.has_lm_head,
                    }
                })
                .collect(),
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

/// Resolved grid references for one layer kind under a fixed mode.
struct LayerGrids<'a> {
    fwd: &'a crate::grid::NdGrid,
    bwd: &'a crate::grid::NdGrid,
    recompute: &'a crate::grid::NdGrid,
    activation: &'a crate::grid::NdGrid,
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
}

/// Per-distinct-stage layer counts.
struct StageTerms {
    encoder_layers: usize,
    decoder_layers: usize,
    has_lm_head: bool,
}

/// A resolved, mode-bound pricing view over a [`CostModel`], for hot loops
/// that evaluate many [`MicroBatchShape`]s (see
/// [`CostModel::shape_pricer`]).
///
/// The batched methods split a shape's price by what the mode changes:
/// [`ShapePricer::price_mode_free`] prices the forward, backward and
/// LM-head grids once per [`ShapeBatch`], and each mode then queries only
/// its own `recompute_extra` ([`ShapePricer::mb_bwd_batch_masked`]) and
/// `activation` ([`ShapePricer::mb_activation_max_batch`]) grids.
pub struct ShapePricer<'a> {
    enc: LayerGrids<'a>,
    dec: LayerGrids<'a>,
    lm_head_fwd: &'a crate::grid::NdGrid,
    backward_ratio: f64,
    stages: Vec<StageTerms>,
    gpt_target: bool,
    any_enc: bool,
    any_dec: bool,
    hidden_act_bytes: u64,
    tp: u64,
}

/// Located grid coordinates for a batch of [`MicroBatchShape`]s — the
/// shape-level face of the cost layer's batched query plan (see
/// [`ShapePricer::locate_batch`]).
///
/// The plan depends only on the shapes and the profile's sampling axes.
/// Those axes are shared by every recomputation mode's grids (forward,
/// backward, per-mode recompute and activation profiles are all built over
/// the same axes), so one `ShapeBatch` can be priced by pricers of
/// *different* modes — the §7 recompute sweep locates once, prices the
/// mode-independent terms once ([`ShapePricer::price_mode_free`]) and
/// prices only each mode's own grids per mode.
///
/// Duplicate shapes are allowed. The encoder-side plan collapses
/// duplicate grid points onto one cell; the decoder-side and LM-head
/// plans evaluate each shape's point once per shape.
pub struct ShapeBatch {
    /// Encoder-side plan over `(batch, enc_len, 0)`; `None` when no stage
    /// has encoder layers (the scalar path never queries those grids).
    enc: Option<crate::grid::BatchQuery>,
    /// Decoder-side plan over the decoder grid coordinates.
    dec: Option<crate::grid::BatchQuery>,
    /// LM-head plan over `(target_tokens, 0, 0)`, one cell per shape.
    lm: crate::grid::BatchQuery,
    /// Padded token counts (the activation formula's shape term).
    padded_tokens: Vec<u64>,
    /// Shapes with `batch_size == 0` short-circuit to zero cost, exactly
    /// like the scalar methods.
    empty: Vec<bool>,
}

impl ShapeBatch {
    /// Number of shapes in the batch.
    pub fn len(&self) -> usize {
        self.empty.len()
    }

    /// Whether the batch holds no shapes.
    pub fn is_empty(&self) -> bool {
        self.empty.is_empty()
    }
}

/// The recomputation-mode-independent pricing terms of a [`ShapeBatch`]
/// (see [`ShapePricer::price_mode_free`]): `t_f(M)` per shape, and the
/// parts of `t_b(M)` no mode changes — each layer side's `bwd_time` value
/// and the LM head's backward time. A mode's backward pass
/// ([`ShapePricer::mb_bwd_batch_masked`]) adds only its own
/// `recompute_extra` values to these.
pub struct ModeFreeCosts {
    fwd: Vec<Micros>,
    /// Per shape: the encoder-side `bwd_time` value (zeros when no stage
    /// has encoder layers, as in the scalar path).
    enc_bwd: Vec<f64>,
    /// Per shape: the decoder-side `bwd_time` value.
    dec_bwd: Vec<f64>,
    /// Per shape: `backward_ratio × lm_head_fwd`, the LM head's backward.
    lm_bwd: Vec<f64>,
}

impl ModeFreeCosts {
    /// `t_f(M)` per shape, bit-identical to [`CostModel::mb_fwd`].
    pub fn fwd(&self) -> &[Micros] {
        &self.fwd
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

    /// `t_f(M)` of Eq. 1 — identical to `cm.mb_fwd(shape)`. This half is
    /// recomputation-mode independent, so the §7 sweep computes it once
    /// per shape and shares it across modes.
    ///
    /// The per-layer grid queries are hoisted out of the stage loop —
    /// stages of one deployment differ only in layer counts and the LM
    /// head, so each stage's sum reuses the same queried values (the exact
    /// values `stage_fwd` queries per stage).
    pub fn mb_fwd(&self, shape: &MicroBatchShape) -> Micros {
        if shape.batch_size == 0 {
            return 0.0;
        }
        let (eq, ekv) = self.enc.coords(shape);
        let (dq, dkv) = self.dec.coords(shape);
        let b = shape.batch_size;
        let enc_fwd = if self.any_enc {
            self.enc.fwd.query(b, eq, ekv)
        } else {
            0.0
        };
        let dec_fwd = if self.any_dec {
            self.dec.fwd.query(b, dq, dkv)
        } else {
            0.0
        };
        let lm_head = self.lm_head_fwd.query(self.target_tokens(shape), 0, 0);
        let mut fwd_max = 0.0f64;
        for st in &self.stages {
            let mut fwd = 0.0;
            if st.encoder_layers > 0 {
                fwd += st.encoder_layers as f64 * enc_fwd;
            }
            if st.decoder_layers > 0 {
                fwd += st.decoder_layers as f64 * dec_fwd;
            }
            if st.has_lm_head {
                fwd += lm_head;
            }
            fwd_max = fwd_max.max(fwd);
        }
        fwd_max
    }

    /// `t_b(M)` of Eq. 1 — identical to `cm.mb_bwd(shape, mode)`.
    pub fn mb_bwd(&self, shape: &MicroBatchShape) -> Micros {
        if shape.batch_size == 0 {
            return 0.0;
        }
        let (eq, ekv) = self.enc.coords(shape);
        let (dq, dkv) = self.dec.coords(shape);
        let b = shape.batch_size;
        let enc_bwd = if self.any_enc {
            self.enc.bwd.query(b, eq, ekv) + self.enc.recompute.query(b, eq, ekv)
        } else {
            0.0
        };
        let dec_bwd = if self.any_dec {
            self.dec.bwd.query(b, dq, dkv) + self.dec.recompute.query(b, dq, dkv)
        } else {
            0.0
        };
        let mut bwd_max = 0.0f64;
        let mut lm_head_bwd = None;
        for st in &self.stages {
            let mut bwd = 0.0;
            if st.encoder_layers > 0 {
                bwd += st.encoder_layers as f64 * enc_bwd;
            }
            if st.decoder_layers > 0 {
                bwd += st.decoder_layers as f64 * dec_bwd;
            }
            if st.has_lm_head {
                bwd += *lm_head_bwd.get_or_insert_with(|| {
                    self.backward_ratio * self.lm_head_fwd.query(self.target_tokens(shape), 0, 0)
                });
            }
            bwd_max = bwd_max.max(bwd);
        }
        bwd_max
    }

    /// `t(M)` of Eq. 1 — identical to `cm.mb_time(shape, mode)`.
    pub fn mb_time(&self, shape: &MicroBatchShape) -> Micros {
        self.mb_fwd(shape) + self.mb_bwd(shape)
    }

    /// Worst-case per-stage activation bytes — identical to
    /// `cm.mb_activation_max(shape, mode)`.
    pub fn mb_activation_max(&self, shape: &MicroBatchShape) -> Bytes {
        if shape.batch_size == 0 {
            return 0;
        }
        let (eq, ekv) = self.enc.coords(shape);
        let (dq, dkv) = self.dec.coords(shape);
        let b = shape.batch_size;
        let enc_act = if self.any_enc {
            self.enc.activation.query(b, eq, ekv)
        } else {
            0.0
        };
        let dec_act = if self.any_dec {
            self.dec.activation.query(b, dq, dkv)
        } else {
            0.0
        };
        // Same operand values and division order as `stage_activation`'s
        // `padded_tokens * hidden * ACT_DTYPE_BYTES / tp` (integer division
        // must not be re-associated).
        let input = shape.padded_tokens() * self.hidden_act_bytes / self.tp;
        self.stages
            .iter()
            .map(|st| {
                let mut bytes = 0.0f64;
                if st.encoder_layers > 0 {
                    bytes += st.encoder_layers as f64 * enc_act;
                }
                if st.decoder_layers > 0 {
                    bytes += st.decoder_layers as f64 * dec_act;
                }
                bytes as Bytes + input
            })
            .max()
            .unwrap_or(0)
    }

    /// Build the batched query plan for `shapes`. Encoder-side points
    /// collapse onto distinct cells (a big win for T5, where many distinct
    /// padded shapes share their `(batch, enc_len)` point); decoder-side
    /// and LM-head points are evaluated once per shape. The plan is
    /// mode-independent — see [`ShapeBatch`] — and feeds
    /// [`ShapePricer::price_mode_free`] /
    /// [`ShapePricer::mb_bwd_batch_masked`] /
    /// [`ShapePricer::mb_activation_max_batch`].
    pub fn locate_batch(&self, shapes: &[MicroBatchShape]) -> ShapeBatch {
        let enc = self.any_enc.then(|| {
            let g = self.enc.fwd;
            g.plan_queries(shapes.iter().map(|s| {
                let (q, kv) = self.enc.coords(s);
                (s.batch_size, q, kv)
            }))
        });
        // Decoder-side coordinates are an injective image of the shape
        // triple, and callers price deduplicated shape tables, so skip the
        // (useless there) duplicate-cell detection.
        let dec = self.any_dec.then(|| {
            let g = self.dec.fwd;
            g.plan_queries_distinct(shapes.iter().map(|s| {
                let (q, kv) = self.dec.coords(s);
                (s.batch_size, q, kv)
            }))
        });
        // Token counts collide across shapes only occasionally, and
        // reach past the axis memo's direct range (batch × sequence
        // length), so detecting duplicates costs more than it saves.
        let lm = self
            .lm_head_fwd
            .plan_queries_distinct(shapes.iter().map(|s| (self.target_tokens(s), 0, 0)));
        ShapeBatch {
            enc,
            dec,
            lm,
            padded_tokens: shapes.iter().map(MicroBatchShape::padded_tokens).collect(),
            empty: shapes.iter().map(|s| s.batch_size == 0).collect(),
        }
    }

    /// Evaluate one layer side's per-shape values, or a shared zero vector
    /// when the deployment has no such layers (the scalar paths use 0.0).
    fn side_values(
        plan: &Option<crate::grid::BatchQuery>,
        n: usize,
        eval: impl FnOnce(&crate::grid::BatchQuery) -> Vec<f64>,
    ) -> Vec<f64> {
        match plan {
            Some(p) => eval(p),
            None => vec![0.0; n],
        }
    }

    /// Price the mode-independent terms of every shape in `batch` once:
    /// `t_f(M)` (element `i` bit-identical to `self.mb_fwd(&shapes[i])`)
    /// and the backward terms no recomputation mode changes. Any mode's
    /// pricer gives the same table, and every mode's
    /// [`ShapePricer::mb_bwd_batch_masked`] reads it, so the §7 sweep
    /// queries the `fwd_time`, `bwd_time` and LM-head grids once per
    /// mini-batch.
    pub fn price_mode_free(&self, batch: &ShapeBatch) -> ModeFreeCosts {
        let n = batch.len();
        let eval = |g: &crate::grid::NdGrid, p: &crate::grid::BatchQuery| {
            let mut v = Vec::new();
            g.query_batch(p, &mut v);
            v
        };
        let enc_fwd = Self::side_values(&batch.enc, n, |p| eval(self.enc.fwd, p));
        let dec_fwd = Self::side_values(&batch.dec, n, |p| eval(self.dec.fwd, p));
        let enc_bwd = Self::side_values(&batch.enc, n, |p| eval(self.enc.bwd, p));
        let dec_bwd = Self::side_values(&batch.dec, n, |p| eval(self.dec.bwd, p));
        let lm = eval(self.lm_head_fwd, &batch.lm);
        let fwd = (0..n)
            .map(|i| {
                if batch.empty[i] {
                    return 0.0;
                }
                let mut fwd_max = 0.0f64;
                for st in &self.stages {
                    let mut fwd = 0.0;
                    if st.encoder_layers > 0 {
                        fwd += st.encoder_layers as f64 * enc_fwd[i];
                    }
                    if st.decoder_layers > 0 {
                        fwd += st.decoder_layers as f64 * dec_fwd[i];
                    }
                    if st.has_lm_head {
                        fwd += lm[i];
                    }
                    fwd_max = fwd_max.max(fwd);
                }
                fwd_max
            })
            .collect();
        let lm_bwd = lm.iter().map(|&t| self.backward_ratio * t).collect();
        ModeFreeCosts {
            fwd,
            enc_bwd,
            dec_bwd,
            lm_bwd,
        }
    }

    /// `t_b(M)` under this pricer's mode for the shapes with
    /// `mask[i] == true`; masked-out entries are `f64::INFINITY` poison
    /// values the caller must never read. Unmasked entries are
    /// bit-identical to [`ShapePricer::mb_bwd`].
    ///
    /// Only this mode's `recompute_extra` grids are queried; the
    /// mode-independent `bwd_time` and LM-head terms come from `base`,
    /// priced once over the same batch. The stage fold keeps the scalar
    /// path's operand order: `layers × (bwd + recompute)` per side, then
    /// the LM head's backward.
    ///
    /// The mask restores the scalar cost pass's short-circuit: the scalar
    /// path never priced `t(M)` for memory-infeasible slices, so grid
    /// cells referenced only by masked shapes are skipped (see
    /// [`crate::grid::NdGrid::query_batch_masked`]).
    ///
    /// # Panics
    ///
    /// Panics if `mask` or `base` does not have one entry per shape of
    /// `batch`.
    pub fn mb_bwd_batch_masked(
        &self,
        batch: &ShapeBatch,
        base: &ModeFreeCosts,
        mask: &[bool],
    ) -> Vec<Micros> {
        let n = batch.len();
        assert_eq!(mask.len(), n, "one mask entry per shape required");
        assert_eq!(
            base.fwd.len(),
            n,
            "mode-free costs priced over another batch"
        );
        let recompute = |g: &crate::grid::NdGrid, p: &crate::grid::BatchQuery| {
            let mut v = Vec::new();
            g.query_batch_masked(p, mask, &mut v);
            v
        };
        let enc_re = Self::side_values(&batch.enc, n, |p| recompute(self.enc.recompute, p));
        let dec_re = Self::side_values(&batch.dec, n, |p| recompute(self.dec.recompute, p));
        (0..n)
            .map(|i| {
                if !mask[i] {
                    return f64::INFINITY;
                }
                if batch.empty[i] {
                    return 0.0;
                }
                let enc_bwd = base.enc_bwd[i] + enc_re[i];
                let dec_bwd = base.dec_bwd[i] + dec_re[i];
                let mut bwd_max = 0.0f64;
                for st in &self.stages {
                    let mut bwd = 0.0;
                    if st.encoder_layers > 0 {
                        bwd += st.encoder_layers as f64 * enc_bwd;
                    }
                    if st.decoder_layers > 0 {
                        bwd += st.decoder_layers as f64 * dec_bwd;
                    }
                    if st.has_lm_head {
                        bwd += base.lm_bwd[i];
                    }
                    bwd_max = bwd_max.max(bwd);
                }
                bwd_max
            })
            .collect()
    }

    /// Batched [`ShapePricer::mb_activation_max`] under this pricer's mode.
    pub fn mb_activation_max_batch(&self, batch: &ShapeBatch) -> Vec<Bytes> {
        let n = batch.len();
        let enc_act = Self::side_values(&batch.enc, n, |p| {
            let mut v = Vec::new();
            self.enc.activation.query_batch(p, &mut v);
            v
        });
        let dec_act = Self::side_values(&batch.dec, n, |p| {
            let mut v = Vec::new();
            self.dec.activation.query_batch(p, &mut v);
            v
        });
        (0..n)
            .map(|i| {
                if batch.empty[i] {
                    return 0;
                }
                // Same operand values and division order as the scalar
                // path (integer division must not be re-associated).
                let input = batch.padded_tokens[i] * self.hidden_act_bytes / self.tp;
                self.stages
                    .iter()
                    .map(|st| {
                        let mut bytes = 0.0f64;
                        if st.encoder_layers > 0 {
                            bytes += st.encoder_layers as f64 * enc_act[i];
                        }
                        if st.decoder_layers > 0 {
                            bytes += st.decoder_layers as f64 * dec_act[i];
                        }
                        bytes as Bytes + input
                    })
                    .max()
                    .unwrap_or(0)
            })
            .collect()
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
    fn masked_bwd_batch_matches_scalar_on_feasible_shapes() {
        // The feasibility-masked backward solve must price masked-in
        // shapes bit-identically to the scalar path and poison the rest —
        // across every recomputation mode and both architectures, all
        // modes reading one shared mode-free table.
        for cm in [gpt_cm(4), t5_cm(4)] {
            let shapes: Vec<MicroBatchShape> = match cm.model.arch {
                ModelArch::Gpt => vec![
                    MicroBatchShape::gpt(1, 37),
                    MicroBatchShape::gpt(3, 900),
                    MicroBatchShape::empty(),
                    MicroBatchShape::gpt(64, 100_000),
                ],
                ModelArch::T5 => vec![
                    MicroBatchShape::t5(2, 512, 64),
                    MicroBatchShape::t5(2, 512, 96),
                    MicroBatchShape::empty(),
                    MicroBatchShape::t5(64, 100_000, 9000),
                ],
            };
            let located = cm.shape_pricer(RecomputeMode::None);
            let batch = located.locate_batch(&shapes);
            let base = located.price_mode_free(&batch);
            // Mask patterns: drop the huge shape (the realistic
            // memory-infeasible case), drop everything, keep everything.
            for mask in [vec![true, true, true, false], vec![false; 4], vec![true; 4]] {
                for mode in RecomputeMode::ALL {
                    let pricer = cm.shape_pricer(mode);
                    let masked = pricer.mb_bwd_batch_masked(&batch, &base, &mask);
                    for (i, s) in shapes.iter().enumerate() {
                        if mask[i] {
                            assert_eq!(
                                masked[i].to_bits(),
                                pricer.mb_bwd(s).to_bits(),
                                "{:?} mode {mode:?} shape {i}: masked bwd diverged",
                                cm.model.arch
                            );
                        } else {
                            assert!(masked[i].is_infinite(), "masked-out shape must be poisoned");
                        }
                    }
                }
            }
        }
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
        // One mode-independent ShapeBatch and one mode-free table, priced
        // by pricers of every recomputation mode, must reproduce the
        // scalar per-shape methods exactly — this is the contract the DP
        // partitioner's batched cost pass relies on. GPT's above-range
        // shape takes the LM-head axis past the direct memo's range.
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
            let located = cm.shape_pricer(RecomputeMode::None);
            let batch = located.locate_batch(&shapes);
            let base = located.price_mode_free(&batch);
            let all = vec![true; shapes.len()];
            for mode in RecomputeMode::ALL {
                let pricer = cm.shape_pricer(mode);
                let bwd = pricer.mb_bwd_batch_masked(&batch, &base, &all);
                let act = pricer.mb_activation_max_batch(&batch);
                for (i, s) in shapes.iter().enumerate() {
                    assert_eq!(
                        base.fwd()[i].to_bits(),
                        pricer.mb_fwd(s).to_bits(),
                        "{:?} mode {mode:?} shape {i}: fwd diverged",
                        cm.model.arch
                    );
                    assert_eq!(
                        bwd[i].to_bits(),
                        pricer.mb_bwd(s).to_bits(),
                        "{:?} mode {mode:?} shape {i}: bwd diverged",
                        cm.model.arch
                    );
                    assert_eq!(
                        (base.fwd()[i] + bwd[i]).to_bits(),
                        cm.mb_time(s, mode).to_bits(),
                        "{:?} mode {mode:?} shape {i}: t(M) diverged",
                        cm.model.arch
                    );
                    assert_eq!(
                        act[i],
                        pricer.mb_activation_max(s),
                        "{:?} mode {mode:?} shape {i}: activation diverged",
                        cm.model.arch
                    );
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
