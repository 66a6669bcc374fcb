//! Lower execution plans to simulator device programs.
//!
//! This is the reproduction's analogue of implementing the pipeline
//! instructions in Megatron-LM (§7): each pipeline instruction becomes a
//! simulator op with durations, activation allocations and communication
//! descriptors taken from the cost model's *ground truth* sibling — the
//! analytic hardware model — so the simulator executes what a real executor
//! would, while the planner only ever saw interpolated estimates.
//!
//! Lowered programs are serializable: in the store-backed runtime they
//! cross the instruction store as part of the [`crate::store::StoredPlan`]
//! wire format, so compilation output must survive encode/decode bitwise
//! (durations and byte counts are the simulation — a flipped float bit is
//! a silently different training run). Pinned by the roundtrip test below
//! and the property suite in `tests/serialization.rs`.

use dynapipe_comm::{ExecutionPlan, Instr};
use dynapipe_cost::CostModel;
use dynapipe_model::memory::RecomputeMode;
use dynapipe_model::{Bytes, MicroBatchShape, Micros};
use dynapipe_sim::{AllocSpec, CommDir, DeviceProgram, OpLabel, SimOp};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

/// Lazily filled `(stage, shape[, mode])` → cost tables. Plans routinely
/// repeat micro-batch shapes (padding buckets collapse many samples onto
/// few distinct shapes, and every shape appears once per forward and
/// once per backward per stage), so each analytic formula is evaluated
/// once per distinct key instead of once per instruction.
///
/// The tables hash their keys with [`MemoHasher`], not the standard
/// library's SipHash: a key is five or six machine words, and the memo is
/// only ever probed by key, never iterated, so the hash decides which
/// bucket a key lands in and nothing else — no cost and no plan byte. A
/// `short-store` lowering makes about 1,100 lookups; each now hashes a
/// word with one multiply-xor-shift round where SipHash-1-3 ran a
/// compression round per word and three finalization rounds per key.
#[derive(Default)]
struct CostMemo {
    fwd: MemoMap<(usize, MicroBatchShape), Micros>,
    bwd: MemoMap<(usize, MicroBatchShape, RecomputeMode), Micros>,
    act: MemoMap<(usize, MicroBatchShape, RecomputeMode), Bytes>,
}

/// A [`CostMemo`] table.
type MemoMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<MemoHasher>>;

/// A multiply-xor hasher over machine words (a splitmix64 finalizer per
/// word, like the DP partitioner's extent hasher). A memo key's fields
/// are `usize`s and a fieldless enum, which `derive(Hash)` writes as
/// words.
#[derive(Default)]
struct MemoHasher(u64);

impl std::hash::Hasher for MemoHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let mut z = self.0 ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        self.0 = z ^ (z >> 31);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

/// Ground-truth per-stage costs used when lowering (the "real" execution
/// times, as opposed to the planner's interpolated estimates).
///
/// Memoized per `(shape, stage)` (and recompute mode where it matters)
/// by default — bit-identical to the direct analytic evaluation, since a
/// memo hit returns the very `f64`/`u64` the first evaluation produced
/// (pinned by the unit tests below against a memo-less instance that
/// recomputes every query). Not `Sync`: one instance per lowering call.
pub struct GroundTruth<'a> {
    cm: &'a CostModel,
    memo: Option<RefCell<CostMemo>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl<'a> GroundTruth<'a> {
    /// Ground truth sharing the cost model's hardware and layout, with
    /// the `(shape, stage)` memo enabled.
    pub fn new(cm: &'a CostModel) -> Self {
        GroundTruth {
            cm,
            memo: Some(RefCell::new(CostMemo::default())),
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// `(memo hits, memo misses)` so far; `(0, 0)` when unmemoized.
    pub fn memo_stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    fn lookup<K, V, F, G>(&self, key: K, table: F, compute: G) -> V
    where
        K: std::hash::Hash + Eq + Copy,
        V: Copy,
        F: Fn(&mut CostMemo) -> &mut MemoMap<K, V>,
        G: Fn() -> V,
    {
        let Some(memo) = &self.memo else {
            return compute();
        };
        let mut memo = memo.borrow_mut();
        if let Some(&v) = table(&mut memo).get(&key) {
            self.hits.set(self.hits.get() + 1);
            return v;
        }
        self.misses.set(self.misses.get() + 1);
        let v = compute();
        table(&mut memo).insert(key, v);
        v
    }

    /// Exact forward time of stage `s` (analytic, no interpolation).
    pub fn stage_fwd(&self, s: usize, shape: &MicroBatchShape) -> Micros {
        self.lookup(
            (s, *shape),
            |m| &mut m.fwd,
            || {
                self.cm.hw.stage_time_fwd(
                    &self.cm.model,
                    self.cm.layout.stage(s),
                    shape,
                    self.cm.parallel.tp,
                )
            },
        )
    }

    /// Exact backward time of stage `s`, including recompute overhead.
    pub fn stage_bwd(&self, s: usize, shape: &MicroBatchShape, mode: RecomputeMode) -> Micros {
        self.lookup(
            (s, *shape, mode),
            |m| &mut m.bwd,
            || {
                let st = self.cm.layout.stage(s);
                self.cm
                    .hw
                    .stage_time_bwd(&self.cm.model, st, shape, self.cm.parallel.tp)
                    + self.cm.mem.recompute_extra_time(
                        &self.cm.hw,
                        &self.cm.model,
                        st,
                        shape,
                        mode,
                        self.cm.parallel.tp,
                    )
            },
        )
    }

    /// Exact activation bytes stage `s` holds for one micro-batch.
    pub fn stage_activation(
        &self,
        s: usize,
        shape: &MicroBatchShape,
        mode: RecomputeMode,
    ) -> Bytes {
        self.lookup(
            (s, *shape, mode),
            |m| &mut m.act,
            || {
                self.cm.mem.stage_activation_bytes(
                    &self.cm.model,
                    self.cm.layout.stage(s),
                    shape,
                    mode,
                    self.cm.parallel.tp,
                )
            },
        )
    }
}

/// Transient per-op workspace the executor uses beyond stored activations
/// (fused-kernel scratch, temporary buffers). The planner's memory model
/// deliberately does not know about it — it is one of the real-world
/// effects behind the estimation error of Fig. 18b, absorbed by the
/// planner's memory-safety head-room.
fn workspace_bytes(act: u64) -> u64 {
    act / 20 + 32_000_000
}

/// Alloc-id bit marking a transient workspace buffer (freed within the op).
const WS_BIT: u64 = 1 << 32;
/// Alloc-id bit distinguishing backward workspace from forward workspace.
const WS_BWD_BIT: u64 = 1 << 33;

/// Compile one replica's execution plan into per-device simulator programs.
///
/// Device `j` of the output corresponds to pipeline stage `j`. Forward
/// passes allocate the stage's activation for the micro-batch; the matching
/// backward pass frees it. Both passes additionally hold a transient
/// workspace for the duration of the op. Ground-truth costs are memoized
/// per `(shape, stage)`, so plans with repeated micro-batch shapes price
/// each distinct shape once (bit-identical to recomputing — pinned by
/// `memoized_lowering_is_bit_identical` below).
pub fn compile_replica(cm: &CostModel, plan: &ExecutionPlan) -> Vec<DeviceProgram> {
    compile_replica_with(&GroundTruth::new(cm), plan)
}

/// [`compile_replica`] against a caller-supplied [`GroundTruth`] (e.g.
/// the unmemoized reference, or a memo shared across several plans of
/// the same model).
pub fn compile_replica_with(truth: &GroundTruth<'_>, plan: &ExecutionPlan) -> Vec<DeviceProgram> {
    let c = plan.num_stages();
    let mut programs = Vec::with_capacity(c);
    for (j, stream) in plan.per_stage.iter().enumerate() {
        let mut prog = DeviceProgram::new();
        for ins in stream {
            match *ins {
                Instr::ForwardPass { mb } => {
                    let shape = &plan.shapes[mb as usize];
                    let bytes = truth.stage_activation(j, shape, plan.recompute);
                    let ws = workspace_bytes(bytes);
                    prog.push(SimOp::Compute {
                        duration: truth.stage_fwd(j, shape),
                        allocs: vec![
                            AllocSpec {
                                id: mb as u64,
                                bytes,
                            },
                            AllocSpec {
                                id: WS_BIT | mb as u64,
                                bytes: ws,
                            },
                        ],
                        frees: vec![WS_BIT | mb as u64],
                        label: OpLabel::new(mb, j as u32, false),
                    });
                }
                Instr::BackwardPass { mb } => {
                    let shape = &plan.shapes[mb as usize];
                    let act = truth.stage_activation(j, shape, plan.recompute);
                    let ws = workspace_bytes(act);
                    prog.push(SimOp::Compute {
                        duration: truth.stage_bwd(j, shape, plan.recompute),
                        allocs: vec![AllocSpec {
                            id: WS_BIT | WS_BWD_BIT | mb as u64,
                            bytes: ws,
                        }],
                        frees: vec![mb as u64, WS_BIT | WS_BWD_BIT | mb as u64],
                        label: OpLabel::new(mb, j as u32, true),
                    });
                }
                Instr::CommStart {
                    kind,
                    mb,
                    peer,
                    bytes,
                    tag,
                } => {
                    prog.push(SimOp::CommStart {
                        peer: peer as usize,
                        dir: if kind.is_send() {
                            CommDir::Send
                        } else {
                            CommDir::Recv
                        },
                        bytes,
                        tag,
                        label: OpLabel::new(mb, j as u32, !kind.is_send()),
                    });
                }
                Instr::CommWait { mb, tag, .. } => {
                    prog.push(SimOp::CommWait {
                        tag,
                        label: OpLabel::new(mb, j as u32, false),
                    });
                }
            }
        }
        programs.push(prog);
    }
    programs
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynapipe_comm::{plan_communication, PlanInputs};
    use dynapipe_cost::ProfileOptions;
    use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};
    use dynapipe_schedule::{evaluate_schedule, one_f_one_b, ScheduleInput};

    impl<'a> GroundTruth<'a> {
        /// A reference instance that recomputes every query — the oracle
        /// the memo is pinned against.
        fn unmemoized(cm: &'a CostModel) -> Self {
            GroundTruth {
                cm,
                memo: None,
                hits: Cell::new(0),
                misses: Cell::new(0),
            }
        }
    }

    fn toy_plan(cm: &CostModel, m: usize) -> ExecutionPlan {
        let c = cm.num_stages();
        let shapes: Vec<MicroBatchShape> = (0..m)
            .map(|i| MicroBatchShape::gpt(1, 256 * (i + 1)))
            .collect();
        let mut input = ScheduleInput::uniform(m, c, 0.0, 0.0, 0);
        for (i, sh) in shapes.iter().enumerate() {
            for j in 0..c {
                input.fwd[i][j] = cm.stage_fwd(j, sh);
                input.bwd[i][j] = cm.stage_bwd(j, sh, RecomputeMode::None);
                input.act[i][j] = cm.stage_activation(j, sh, RecomputeMode::None);
            }
        }
        let schedule = one_f_one_b(m, c);
        let timeline = evaluate_schedule(&schedule, &input).unwrap();
        let boundary: Vec<Vec<u64>> = shapes
            .iter()
            .map(|sh| (0..c - 1).map(|j| cm.boundary_bytes(j, sh)).collect())
            .collect();
        plan_communication(&PlanInputs {
            schedule: &schedule,
            timeline: &timeline,
            boundary_bytes: &boundary,
            shapes: &shapes,
            recompute: RecomputeMode::None,
        })
    }

    fn cm() -> CostModel {
        CostModel::build(
            HardwareModel::a100_cluster(),
            ModelConfig::gpt_6_7b(),
            ParallelConfig::new(1, 1, 2),
            &ProfileOptions::coarse(),
        )
    }

    #[test]
    fn compiled_programs_validate_and_balance_memory() {
        let cm = cm();
        let plan = toy_plan(&cm, 4);
        let programs = compile_replica(&cm, &plan);
        assert_eq!(programs.len(), 2);
        for p in &programs {
            p.validate().unwrap();
        }
        // Every allocation is eventually freed: activation + forward
        // workspace + backward workspace per micro-batch.
        for p in &programs {
            let allocs: usize = p
                .ops
                .iter()
                .map(|o| match o {
                    SimOp::Compute { allocs, .. } => allocs.len(),
                    _ => 0,
                })
                .sum();
            let frees: usize = p
                .ops
                .iter()
                .map(|o| match o {
                    SimOp::Compute { frees, .. } => frees.len(),
                    _ => 0,
                })
                .sum();
            assert_eq!(allocs, 3 * 4);
            assert_eq!(frees, allocs, "all buffers returned");
        }
    }

    #[test]
    fn lowered_programs_never_allocate_an_id_twice_on_a_device() {
        // The engine charges each free to the caching allocator with the
        // size the memory tracker removes. That equals the size of the
        // id's first allocation on the device only because lowering
        // never reuses an id there, freed or not.
        let toy = cm();
        let mut lowered: Vec<Vec<DeviceProgram>> = (1..=8)
            .map(|m| compile_replica(&toy, &toy_plan(&toy, m)))
            .collect();
        let cm = std::sync::Arc::new(CostModel::build(
            HardwareModel::a100_cluster(),
            ModelConfig::gpt_3_35b(),
            ParallelConfig::new(2, 1, 2),
            &ProfileOptions::coarse(),
        ));
        let planner = crate::planner::DynaPipePlanner::new(cm.clone(), Default::default());
        let dataset = dynapipe_data::Dataset::flanv2(83, 300);
        let gbs = dynapipe_data::GlobalBatchConfig {
            tokens_per_batch: 16384,
            max_seq_len: 2048,
        };
        for mut batch in dynapipe_data::GlobalBatchIter::new(&dataset, gbs).take(3) {
            dynapipe_batcher::sort_samples(cm.model.arch, &mut batch);
            for mode in RecomputeMode::ALL {
                let Ok(plan) = planner.plan_with_mode(&batch, planner.planning_budget(), mode)
                else {
                    continue;
                };
                for r in &plan.replicas {
                    lowered.push(compile_replica(&cm, &r.plan));
                }
            }
        }
        assert!(lowered.len() > 8, "no planner plan was feasible");
        for programs in &lowered {
            for (d, p) in programs.iter().enumerate() {
                let mut seen = std::collections::HashSet::new();
                for op in &p.ops {
                    if let SimOp::Compute { allocs, .. } = op {
                        for a in allocs {
                            assert!(seen.insert(a.id), "device {d} allocates id {} twice", a.id);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn compiled_programs_run_on_the_simulator() {
        let cm = cm();
        let plan = toy_plan(&cm, 4);
        let programs = compile_replica(&cm, &plan);
        let mut cfg = dynapipe_sim::EngineConfig::unbounded(cm.hw.clone(), 2);
        cfg.record_trace = true;
        let result = dynapipe_sim::Engine::new(cfg, programs).run().unwrap();
        assert!(result.makespan > 0.0);
        assert!(
            result.utilization() > 0.2,
            "pipeline should be reasonably busy"
        );
    }

    #[test]
    fn compiled_programs_survive_the_wire_bitwise() {
        // The store-backed runtime ships these over the instruction
        // store: value equality plus re-encode identity (deterministic
        // shortest-roundtrip floats) pins the wire bit for bit.
        let cm = cm();
        let plan = toy_plan(&cm, 4);
        for p in &compile_replica(&cm, &plan) {
            let json = serde_json::to_string(p).unwrap();
            let back: DeviceProgram = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, p);
            assert_eq!(serde_json::to_string(&back).unwrap(), json);
        }
    }

    #[test]
    fn memoized_lowering_is_bit_identical() {
        // The ROADMAP follow-up: repeated micro-batch shapes must stop
        // re-running the analytic formulas — without moving a single
        // bit. The toy plan deliberately repeats shapes so the memo
        // engages, and the memoized compile output is compared bitwise
        // against the unmemoized reference.
        let cm = cm();
        let c = cm.num_stages();
        let shapes: Vec<MicroBatchShape> = (0..8)
            .map(|i| MicroBatchShape::gpt(1 + i % 2, 256 * (1 + i % 3)))
            .collect();
        // Direct oracle comparison on every (stage, shape, mode) query,
        // asked twice so the second answer is a memo hit.
        let memoized = GroundTruth::new(&cm);
        let reference = GroundTruth::unmemoized(&cm);
        for _round in 0..2 {
            for s in 0..c {
                for shape in &shapes {
                    assert_eq!(
                        memoized.stage_fwd(s, shape).to_bits(),
                        reference.stage_fwd(s, shape).to_bits()
                    );
                    for mode in RecomputeMode::ALL {
                        assert_eq!(
                            memoized.stage_bwd(s, shape, mode).to_bits(),
                            reference.stage_bwd(s, shape, mode).to_bits()
                        );
                        assert_eq!(
                            memoized.stage_activation(s, shape, mode),
                            reference.stage_activation(s, shape, mode)
                        );
                    }
                }
            }
        }
        let (hits, misses) = memoized.memo_stats();
        // 8 shape slots over 3 distinct shapes × 2 batch sizes → 6
        // distinct keys; round 2 and the repeats in round 1 must hit.
        assert!(
            hits > misses,
            "memo never engaged: {hits} hits / {misses} misses"
        );
        assert_eq!(reference.memo_stats(), (0, 0), "reference must not memoize");

        // And the full lowering path: memoized programs == reference
        // programs, including exact f64 duration bits.
        let plan = toy_plan(&cm, 6);
        let fast = compile_replica(&cm, &plan);
        let slow = compile_replica_with(&GroundTruth::unmemoized(&cm), &plan);
        assert_eq!(fast, slow);
        for (pf, ps) in fast.iter().zip(&slow) {
            for (of, os) in pf.ops.iter().zip(&ps.ops) {
                if let (SimOp::Compute { duration: df, .. }, SimOp::Compute { duration: ds, .. }) =
                    (of, os)
                {
                    assert_eq!(df.to_bits(), ds.to_bits());
                }
            }
        }
    }

    #[test]
    fn ground_truth_close_to_planner_estimates() {
        // The planner's interpolated estimate and the compiled ground truth
        // must agree within the Fig. 18 error band at typical shapes.
        let cm = cm();
        let truth = GroundTruth::new(&cm);
        for s in [500usize, 1200, 3000] {
            let shape = MicroBatchShape::gpt(3, s);
            let est = cm.stage_fwd(0, &shape);
            let real = truth.stage_fwd(0, &shape);
            let rel = (est - real).abs() / real;
            assert!(rel < 0.3, "s={s}: rel {rel}");
        }
    }
}
