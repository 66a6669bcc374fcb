//! Serialization round-trips: execution plans travel through the
//! distributed instruction store in the real system (§3) — and, since
//! the store-backed runtime, in this reproduction too — so every plan
//! artifact must survive serde exactly. The property tests below pin the
//! full [`dynapipe_core::StoredPlan`] wire format bitwise **under all
//! three codecs** ([`PlanCodec::Json`], the length-prefixed
//! [`PlanCodec::Binary`], and the zero-copy [`PlanCodec::Flat`] arena):
//! arbitrary lowered plans (random sample shapes, recompute modes, dp
//! degrees) must encode/decode to an identical value *and* an identical
//! re-encoding in each codec, cross-decode equal across codecs, and an
//! engine over the deserialized programs must run bit-identically to one
//! over the original shared-`Arc` programs. The flat codec additionally
//! pins the zero-copy execution path (engines over [`FlatPlanRef`]
//! views of the raw wire bytes), its fixed-width [`IterationSummary`]
//! (bit-equal to the one derived from the plan), and its corruption
//! contract: truncated or bit-flipped blobs yield a typed
//! [`dynapipe_core::CodecError`], never a panic or an out-of-bounds read.

use dynapipe_core::{
    compile_replica, decode_executable, runtime::replica_engine_config, CodecError, FlatPlanRef,
    IterationSummary, PlanCodec, ReplicaPrograms, RunConfig, StoredLowered, StoredOutcome,
    StoredPlan,
};
use dynapipe_repro::prelude::*;
use dynapipe_sim::{DeviceProgram, InstructionSource, OpLabel, SimOp};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

fn plan_one() -> (Arc<CostModel>, dynapipe_core::IterationPlan) {
    let cm = Arc::new(CostModel::build(
        HardwareModel::a100_cluster(),
        ModelConfig::gpt_3_35b(),
        ParallelConfig::new(1, 1, 4),
        &ProfileOptions::coarse(),
    ));
    let planner = DynaPipePlanner::new(cm.clone(), PlannerConfig::default());
    let minibatch: Vec<Sample> = Dataset::flanv2(71, 300)
        .samples
        .iter()
        .take(32)
        .map(|s| s.truncated(1024))
        .collect();
    let plan = planner.plan_iteration(&minibatch).expect("feasible");
    (cm, plan)
}

#[test]
fn execution_plan_json_roundtrip() {
    let (_, plan) = plan_one();
    for replica in &plan.replicas {
        let json = serde_json::to_string(&replica.plan).expect("serialize");
        let back: ExecutionPlan = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, replica.plan);
        // A deserialized plan verifies and validates like the original.
        back.validate().expect("valid");
        verify_deadlock_free(&back).expect("deadlock-free");
    }
}

#[test]
fn deserialized_plan_simulates_identically() {
    let (cm, plan) = plan_one();
    let replica = &plan.replicas[0];
    let json = serde_json::to_string(&replica.plan).unwrap();
    let back: ExecutionPlan = serde_json::from_str(&json).unwrap();
    let run = |p: &ExecutionPlan| {
        let programs = dynapipe_core::compile_replica(&cm, p);
        let cfg = EngineConfig::unbounded(cm.hw.clone(), cm.num_stages());
        Engine::new(cfg, programs).run().unwrap().makespan
    };
    assert_eq!(run(&replica.plan), run(&back));
}

#[test]
fn schedule_and_shapes_roundtrip() {
    let (_, plan) = plan_one();
    let replica = &plan.replicas[0];
    let json = serde_json::to_string(&replica.schedule).unwrap();
    let back: Schedule = serde_json::from_str(&json).unwrap();
    assert_eq!(back, replica.schedule);
    let shapes_json = serde_json::to_string(&replica.plan.shapes).unwrap();
    let shapes: Vec<MicroBatchShape> = serde_json::from_str(&shapes_json).unwrap();
    assert_eq!(shapes, replica.plan.shapes);
}

/// Shared planners over a few parallel layouts: building a cost model
/// per proptest case would dominate runtime. The T5 planner's shapes
/// carry a decoder length (`MicroBatchShape::dec_len`), 0 in every GPT
/// shape, so only its cases check that field survives the wire.
fn shared_planners() -> &'static [DynaPipePlanner] {
    static PLANNERS: OnceLock<Vec<DynaPipePlanner>> = OnceLock::new();
    PLANNERS.get_or_init(|| {
        let gpt = |dp, pp| (ModelConfig::gpt_3_35b(), ParallelConfig::new(dp, 1, pp));
        let t5 = (ModelConfig::t5_11b(), ParallelConfig::new(1, 4, 2));
        [gpt(1, 4), gpt(2, 2), gpt(1, 2), t5]
            .into_iter()
            .map(|(model, parallel)| {
                let cm = Arc::new(CostModel::build(
                    HardwareModel::a100_cluster(),
                    model,
                    parallel,
                    &ProfileOptions::coarse(),
                ));
                DynaPipePlanner::new(cm, PlannerConfig::default())
            })
            .collect()
    })
}

fn arb_samples(n: usize, max_len: usize) -> impl Strategy<Value = Vec<Sample>> {
    proptest::collection::vec(
        (1usize..max_len, 1usize..max_len / 4, 0u64..1000).prop_map(|(i, t, id)| Sample {
            id,
            task: 0,
            input_len: i,
            target_len: t,
        }),
        2..n,
    )
}

/// Plan + lower one random case into the wire shape, or `None` if the
/// drawn mini-batch is infeasible under the drawn mode (rare; skipping
/// keeps the property about serialization, not feasibility).
fn lower_case(
    planner_idx: usize,
    mode_idx: usize,
    mut samples: Vec<Sample>,
) -> Option<(Arc<CostModel>, StoredLowered)> {
    let planner = &shared_planners()[planner_idx % shared_planners().len()];
    let mode = RecomputeMode::ALL[mode_idx % RecomputeMode::ALL.len()];
    sort_samples(planner.cm.model.arch, &mut samples);
    let plan = planner
        .plan_with_mode(&samples, planner.planning_budget(), mode)
        .ok()?;
    let programs = plan
        .replicas
        .iter()
        .map(|r| compile_replica(&planner.cm, &r.plan))
        .collect();
    Some((planner.cm.clone(), StoredLowered { plan, programs }))
}

/// A minimal feasible-looking plan for tests that only need programs.
fn empty_plan() -> dynapipe_core::IterationPlan {
    dynapipe_core::IterationPlan {
        replicas: Vec::new(),
        recompute: RecomputeMode::None,
        est_iteration_time: 0.0,
        dp_sync_time: 0.0,
        padding: Default::default(),
        num_micro_batches: 0,
        actual_tokens: 0,
        planning_time_us: 0.0,
    }
}

/// Field-by-field equality, floats by bit pattern (`PartialEq` alone
/// would accept 0.0 vs -0.0).
fn assert_summary_bits(a: &IterationSummary, b: &IterationSummary) {
    assert_eq!(a.recompute, b.recompute);
    for (x, y) in [
        (a.est_iteration_time, b.est_iteration_time),
        (a.dp_sync_time, b.dp_sync_time),
        (a.planning_time_us, b.planning_time_us),
    ] {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(a.num_micro_batches, b.num_micro_batches);
    assert_eq!(a.actual_tokens, b.actual_tokens);
    assert_eq!(a.padding, b.padding);
    assert_eq!(a.est_peak_memory, b.est_peak_memory);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn flat_summary_equals_the_plans_bit_for_bit(
        samples in arb_samples(24, 1024),
        planner_idx in 0usize..4,
        mode_idx in 0usize..3,
        iteration in 0usize..1000,
    ) {
        let Some((_, lowered)) = lower_case(planner_idx, mode_idx, samples) else {
            return Ok(());
        };
        let expected = IterationSummary::of(&lowered.plan);
        let stages = lowered.plan.replicas[0].est_peak_memory.len();
        prop_assert_eq!(expected.est_peak_memory.len(), stages);
        let stored = StoredPlan { iteration, outcome: StoredOutcome::Plan(lowered) };
        let wire: Arc<[u8]> = Arc::from(stored.encode(PlanCodec::Flat));
        let flat = FlatPlanRef::new(wire.clone()).expect("flat blob validates");
        assert_summary_bits(&flat.summary().expect("planned outcome"), &expected);
        // Every codec's executor decode hands the engines the same
        // summary: the flat one read in place, the tree ones derived from
        // the decoded plan.
        for codec in PlanCodec::ALL {
            let blob: Arc<[u8]> = Arc::from(stored.encode(codec));
            match decode_executable(codec, blob) {
                Ok((it, Ok((summary, programs)))) => {
                    prop_assert_eq!(it, iteration);
                    prop_assert_eq!(programs.len(), flat.num_replicas());
                    assert_summary_bits(&summary, &expected);
                }
                Ok((_, Err(e))) => panic!("encoded a plan, decoded failure {e}"),
                Err(e) => panic!("{} executor decode failed: {e}", codec.label()),
            }
        }
    }

    #[test]
    fn stored_plan_roundtrip_is_bitwise_in_both_codecs(
        samples in arb_samples(24, 1024),
        planner_idx in 0usize..4,
        mode_idx in 0usize..3,
        iteration in 0usize..1000,
    ) {
        let Some((_, lowered)) = lower_case(planner_idx, mode_idx, samples) else {
            return Ok(());
        };
        let stored = StoredPlan {
            iteration,
            outcome: StoredOutcome::Plan(lowered),
        };
        let mut decoded_per_codec = Vec::new();
        for codec in PlanCodec::ALL {
            let wire = stored.encode(codec);
            let decoded = StoredPlan::decode(codec, &wire).expect("wire blob decodes");
            // Value equality, then the stronger bitwise check: both
            // codecs are deterministic and float-exact, so a bit-exact
            // decode re-encodes to the identical byte string.
            prop_assert_eq!(&decoded, &stored);
            prop_assert_eq!(decoded.encode(codec), wire);
            // A blob must never decode under any other codec: the wire
            // formats are unambiguous, not guessable.
            for other in PlanCodec::ALL {
                if other != codec {
                    prop_assert!(
                        StoredPlan::decode(other, &wire).is_err(),
                        "a {} blob decoded as {}", codec.label(), other.label()
                    );
                }
            }
            // Spot-check float bit patterns explicitly (PartialEq alone
            // would accept 0.0 vs -0.0).
            let (a, b) = match (&stored.outcome, &decoded.outcome) {
                (StoredOutcome::Plan(a), StoredOutcome::Plan(b)) => (a, b),
                _ => unreachable!("encoded a plan"),
            };
            prop_assert_eq!(
                a.plan.est_iteration_time.to_bits(),
                b.plan.est_iteration_time.to_bits()
            );
            for (ra, rb) in a.plan.replicas.iter().zip(&b.plan.replicas) {
                prop_assert_eq!(ra.est_makespan.to_bits(), rb.est_makespan.to_bits());
            }
            decoded_per_codec.push(decoded);
        }
        // Cross-decode equality: every codec's decode agrees with every
        // other's, field for field.
        for pair in decoded_per_codec.windows(2) {
            prop_assert_eq!(&pair[0], &pair[1]);
        }
        // The binary codec exists to shrink blobs: on a real lowered
        // plan it must always be the smaller wire format. The flat
        // arena trades varints for fixed-width zero-copy records, so it
        // may pad a little — but never more than 25% over binary.
        let json_bytes = stored.encode(PlanCodec::Json).len();
        let binary_bytes = stored.encode(PlanCodec::Binary).len();
        let flat_bytes = stored.encode(PlanCodec::Flat).len();
        prop_assert!(
            binary_bytes < json_bytes,
            "binary {} >= json {}", binary_bytes, json_bytes
        );
        prop_assert!(
            flat_bytes * 4 <= binary_bytes * 5,
            "flat {} > 1.25x binary {}", flat_bytes, binary_bytes
        );
    }

    #[test]
    fn deserialized_programs_run_bit_identically_to_shared_arc(
        samples in arb_samples(16, 768),
        planner_idx in 0usize..4,
        mode_idx in 0usize..3,
        iteration in 0usize..64,
    ) {
        let Some((cm, lowered)) = lower_case(planner_idx, mode_idx, samples) else {
            return Ok(());
        };
        let shared: Vec<Arc<Vec<DeviceProgram>>> =
            lowered.programs.iter().cloned().map(Arc::new).collect();
        let stored = StoredPlan { iteration, outcome: StoredOutcome::Plan(lowered) };
        for codec in PlanCodec::ALL {
            let wire = stored.encode(codec);
            let decoded = match StoredPlan::decode(codec, &wire).expect("decodes").outcome {
                StoredOutcome::Plan(l) => l,
                StoredOutcome::Failed(e) => panic!("encoded a plan, decoded {e}"),
            };
            // Jittered runs, so even the noise must agree bit for bit.
            let run = RunConfig::default();
            for (replica, (arc_programs, owned)) in
                shared.iter().cloned().zip(decoded.programs).enumerate()
            {
                let config = replica_engine_config(&cm, &run, iteration, replica);
                let original = Engine::with_shared(config.clone(), arc_programs)
                    .run()
                    .expect("original runs");
                let roundtripped = Engine::new(config, owned).run().expect("decoded runs");
                original.bit_eq(&roundtripped).unwrap_or_else(|e| {
                    panic!("replica {replica} diverged after the {} wire: {e}", codec.label())
                });
            }
        }
        // The zero-copy path: engines running straight over the flat
        // wire bytes (no tree build, no owned programs) must be
        // bit-identical to engines over the original shared `Arc`s.
        let wire = stored.encode(PlanCodec::Flat);
        let flat = FlatPlanRef::new(Arc::from(wire.as_slice())).expect("flat blob validates");
        let views = flat.replicas();
        prop_assert_eq!(views.len(), shared.len());
        let run = RunConfig::default();
        for (replica, (arc_programs, view)) in
            shared.iter().cloned().zip(views).enumerate()
        {
            prop_assert_eq!(view.num_devices(), arc_programs.len());
            let config = replica_engine_config(&cm, &run, iteration, replica);
            let original = Engine::with_shared(config.clone(), arc_programs)
                .run()
                .expect("original runs");
            let zero_copy = Engine::from_source(config, view).run().expect("flat view runs");
            original.bit_eq(&zero_copy).unwrap_or_else(|e| {
                panic!("replica {replica} diverged on the zero-copy flat path: {e}")
            });
        }
    }

    #[test]
    fn flat_blob_corruption_is_typed_never_a_panic(
        samples in arb_samples(12, 512),
        planner_idx in 0usize..4,
        cut_sel in 0usize..1_000_000,
        flip_sel in 0usize..1_000_000,
        bit in 0usize..8,
    ) {
        let Some((_, lowered)) = lower_case(planner_idx, 0, samples) else {
            return Ok(());
        };
        let stored = StoredPlan { iteration: 7, outcome: StoredOutcome::Plan(lowered) };
        let wire = stored.encode(PlanCodec::Flat);
        // Any proper prefix fails the header's total-length check with a
        // typed CodecError — decoding is a Result, never a panic.
        let cut = cut_sel % wire.len();
        let err = FlatPlanRef::new(Arc::from(&wire[..cut]))
            .expect_err("a truncated blob must not validate");
        prop_assert!(!err.to_string().is_empty());
        prop_assert!(StoredPlan::decode(PlanCodec::Flat, &wire[..cut]).is_err());
        prop_assert!(decode_executable(PlanCodec::Flat, Arc::from(&wire[..cut])).is_err());
        // A single bit flip either fails validation (typed error) or
        // decodes to *some* value — a flip inside a payload field (a
        // duration, an alloc size) changes data without breaking the
        // structure. Either way, walking every accessor must stay
        // in-bounds and panic-free.
        let mut flipped = wire.clone();
        let fi = flip_sel % flipped.len();
        flipped[fi] ^= 1 << bit;
        if let Ok(fp) = FlatPlanRef::new(Arc::from(flipped.as_slice())) {
            // The summary reads back typed: a flip in a value field
            // (a time, a counter, a peak) moves the value, never the
            // section's shape — its 93 fixed bytes after the 35-byte
            // header plus one u64 per stage stay inside the blob.
            match fp.summary() {
                Ok(summary) => prop_assert!(
                    35 + 93 + 8 * summary.est_peak_memory.len() <= flipped.len()
                ),
                Err(e) => prop_assert!(matches!(
                    e,
                    CodecError::Truncated { .. } | CodecError::Corrupt { .. }
                )),
            }
            let _ = decode_executable(PlanCodec::Flat, Arc::from(flipped.as_slice()));
            let _ = fp.plan();
            let _ = fp.failure();
            for view in fp.replicas() {
                for d in 0..view.num_devices() {
                    for pc in 0..view.num_ops(d) {
                        if let Some(op) = view.op_view(d, pc) {
                            if let dynapipe_sim::OpView::Compute { allocs, frees, .. } = op {
                                let _ = allocs.iter().count();
                                let _ = frees.iter().count();
                            }
                        }
                    }
                }
            }
            let _ = fp.to_stored();
        }
    }

    #[test]
    fn nan_free_float_bit_patterns_survive_the_wire(bits in 0u64..u64::MAX) {
        let f = f64::from_bits(bits);
        if f.is_nan() {
            // NaN payloads are out of contract: plans never contain them
            // (and the JSON wire collapses them to one canonical NaN —
            // the binary codec happens to preserve even these, see the
            // codec unit tests, but the contract only covers non-NaN).
            return Ok(());
        }
        let json = serde_json::to_string(&f).unwrap();
        let back: f64 = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back.to_bits(), bits);
        // The same pattern embedded in a device program op survives both
        // tree codecs too.
        let program = DeviceProgram {
            ops: vec![SimOp::compute(f, OpLabel::new(0, 0, false))],
        };
        for codec in [PlanCodec::Json, PlanCodec::Binary] {
            let wire = codec.encode(&program);
            let value = codec.decode_value(&wire).expect("program decodes");
            let back: DeviceProgram = serde::Deserialize::from_value(&value).unwrap();
            match &back.ops[0] {
                SimOp::Compute { duration, .. } => {
                    prop_assert_eq!(duration.to_bits(), bits);
                }
                other => panic!("unexpected op {other:?}"),
            }
        }
        // The flat codec has no Value-tree layout; the same bit pattern
        // rides an instruction record's fixed-width duration field and
        // is read back verbatim through the zero-copy view.
        let wire = dynapipe_core::encode_flat(&StoredPlan {
            iteration: 0,
            outcome: StoredOutcome::Plan(StoredLowered {
                plan: empty_plan(),
                programs: vec![vec![program]],
            }),
        });
        let flat = FlatPlanRef::new(Arc::from(wire.as_slice())).expect("validates");
        let view = flat.replica(0).expect("one replica");
        match view.op_view(0, 0).expect("one op") {
            dynapipe_sim::OpView::Compute { duration, .. } => {
                prop_assert_eq!(duration.to_bits(), bits);
            }
            other => panic!("unexpected op view {other:?}"),
        }
    }
}

#[test]
fn flat_summary_stage_count_past_the_blob_is_rejected() {
    let (cm, plan) = plan_one();
    let programs = plan
        .replicas
        .iter()
        .map(|r| compile_replica(&cm, &r.plan))
        .collect();
    let wire = StoredPlan {
        iteration: 3,
        outcome: StoredOutcome::Plan(StoredLowered { plan, programs }),
    }
    .encode(PlanCodec::Flat);
    // The stage count is the u32 at bytes 89..93 of the summary, which
    // starts right after the 35-byte header (codec module docs).
    let at = 35 + 89;
    let stages = u32::from_le_bytes(wire[at..at + 4].try_into().unwrap());
    assert_eq!(stages, 4, "one peak per pipeline stage");
    let past = (wire.len() / 8) as u32;
    for bad in [past, u32::MAX] {
        let mut corrupt = wire.clone();
        corrupt[at..at + 4].copy_from_slice(&bad.to_le_bytes());
        assert!(
            matches!(
                FlatPlanRef::new(Arc::from(corrupt.as_slice())),
                Err(CodecError::Corrupt { at: err_at, .. }) if err_at == at
            ),
            "stage count {bad} must be rejected at byte {at}"
        );
        assert!(decode_executable(PlanCodec::Flat, Arc::from(corrupt.as_slice())).is_err());
    }
}

#[test]
fn executor_decode_reads_no_byte_of_the_plan_section() {
    let (cm, plan) = plan_one();
    let programs = plan
        .replicas
        .iter()
        .map(|r| compile_replica(&cm, &r.plan))
        .collect();
    let wire = StoredPlan {
        iteration: 5,
        outcome: StoredOutcome::Plan(StoredLowered {
            plan: plan.clone(),
            programs,
        }),
    }
    .encode(PlanCodec::Flat);
    // The header's plan_off (bytes 19..23) and plan_len (23..27) locate
    // the section, which starts right after the summary (codec module
    // docs: 35-byte header, 93 + 8 × stages summary bytes).
    let u32_at = |at: usize| u32::from_le_bytes(wire[at..at + 4].try_into().unwrap()) as usize;
    let (plan_off, plan_len) = (u32_at(19), u32_at(23));
    assert_eq!(plan_off, 35 + 93 + 8 * cm.num_stages());
    assert!(plan_len > 0 && plan_off + plan_len < wire.len());
    let mut blanked = wire.clone();
    blanked[plan_off..plan_off + plan_len].fill(0xFF);

    // The plan section is gone: rebuilding the plan fails or differs.
    let flat = FlatPlanRef::new(Arc::from(blanked.as_slice())).expect("still validates");
    assert!(flat.plan().map_or(true, |p| p != plan), "the plan survived");

    // The executor decode and the engines never read it.
    let decode = |blob: &[u8]| match decode_executable(PlanCodec::Flat, Arc::from(blob)) {
        Ok((5, Ok(executable))) => executable,
        Ok((it, Ok(_))) => panic!("decoded iteration {it}"),
        Ok((_, Err(e))) => panic!("encoded a plan, decoded failure {e}"),
        Err(e) => panic!("executor decode failed: {e}"),
    };
    let (summary, replicas) = decode(&wire);
    let (blanked_summary, blanked_replicas) = decode(&blanked);
    assert_summary_bits(&blanked_summary, &summary);
    assert_summary_bits(&summary, &IterationSummary::of(&plan));
    assert_eq!(blanked_replicas.len(), replicas.len());
    let run = RunConfig::default();
    for (r, (intact, blank)) in replicas.into_iter().zip(blanked_replicas).enumerate() {
        let engine = |programs| match programs {
            ReplicaPrograms::Flat(view) => {
                let config = replica_engine_config(&cm, &run, 5, r);
                Engine::from_source(config, view)
                    .run()
                    .expect("replica runs")
            }
            ReplicaPrograms::Owned(_) => panic!("flat decodes to views over the blob"),
        };
        let (intact, blank) = (engine(intact), engine(blank));
        intact
            .bit_eq(&blank)
            .unwrap_or_else(|e| panic!("replica {r} read the plan section: {e}"));
    }
}

#[test]
fn flat_is_the_default_codec_and_every_suite_loops_all_codecs() {
    assert_eq!(PlanCodec::default(), PlanCodec::Flat);
    assert_eq!(RuntimeConfig::default().codec, PlanCodec::Flat);
    assert_eq!(
        dynapipe_repro::cluster::ClusterConfig::default().codec,
        PlanCodec::Flat
    );
    // The default only picks the runtimes' codec; the equivalence suites
    // keep pinning every codec against the serial oracle. Each suite pins
    // its matrix with the shared harness's coverage check, which fails
    // unless every codec runs among the suite's store-backed and cluster
    // cells; this suite loops every codec itself.
    assert_eq!(
        PlanCodec::ALL,
        [PlanCodec::Json, PlanCodec::Binary, PlanCodec::Flat]
    );
    let harness = include_str!("../crates/cluster/tests/common/mod.rs");
    assert!(harness.contains("pub fn assert_codec_coverage("));
    assert!(harness.contains("for codec in PlanCodec::ALL"));
    for (suite, source) in [
        (
            "runtime_equivalence",
            include_str!("../crates/cluster/tests/runtime_equivalence.rs"),
        ),
        (
            "cluster_equivalence",
            include_str!("../crates/cluster/tests/cluster_equivalence.rs"),
        ),
        (
            "churn_equivalence",
            include_str!("../crates/cluster/tests/churn_equivalence.rs"),
        ),
        (
            "shard_routing",
            include_str!("../crates/cluster/tests/shard_routing.rs"),
        ),
        (
            "trace_reconciliation",
            include_str!("../crates/cluster/tests/trace_reconciliation.rs"),
        ),
    ] {
        assert!(
            source.contains("common::assert_codec_coverage(&"),
            "{suite} no longer checks that its cells cover every codec"
        );
    }
    assert!(include_str!("serialization.rs").contains("for codec in PlanCodec::ALL"));
}

#[test]
fn cost_model_roundtrips_and_answers_identically() {
    let (cm, _) = plan_one();
    let json = serde_json::to_string(&*cm).expect("cost models are persistable");
    let back: CostModel = serde_json::from_str(&json).unwrap();
    let shape = MicroBatchShape::gpt(4, 777);
    for s in 0..cm.num_stages() {
        assert_eq!(cm.stage_fwd(s, &shape), back.stage_fwd(s, &shape));
        assert_eq!(
            cm.stage_activation(s, &shape, RecomputeMode::Selective),
            back.stage_activation(s, &shape, RecomputeMode::Selective)
        );
    }
}

#[test]
fn lower_case_probe_is_usually_feasible() {
    // Guard the property tests against silently skipping every case: the
    // shared fixtures must produce a lowerable plan for a plain draw.
    let samples: Vec<Sample> = Dataset::flanv2(5, 40)
        .samples
        .iter()
        .map(|s| s.truncated(768))
        .collect();
    for idx in 0..3 {
        assert!(
            lower_case(idx, 0, samples.clone()).is_some(),
            "planner {idx} must lower the probe mini-batch"
        );
    }
}

/// FNV-1a, 64-bit: a fixed, dependency-free fingerprint of a wire blob.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The wire bytes of fixed plans are pinned by hash, per codec: a change
/// to how a `Serialize` impl or an encoder walks a plan (node order,
/// string-interning order, map-key order) changes a hash even where
/// every round trip still holds. Covers a planned outcome from each
/// shared planner on one fixed mini-batch, `empty_plan()` and a failed
/// outcome. `planning_time_us` is host-timed, so it is zeroed first.
#[test]
fn wire_bytes_of_fixed_plans_are_pinned() {
    let minibatch: Vec<Sample> = Dataset::flanv2(5, 40)
        .samples
        .iter()
        .take(16)
        .map(|s| s.truncated(768))
        .collect();
    let mut cases: Vec<(String, StoredPlan)> = shared_planners()
        .iter()
        .enumerate()
        .map(|(idx, planner)| {
            let mut plan = planner.plan_iteration(&minibatch).expect("feasible");
            plan.planning_time_us = 0.0;
            let programs = plan
                .replicas
                .iter()
                .map(|r| compile_replica(&planner.cm, &r.plan))
                .collect();
            let outcome = StoredOutcome::Plan(StoredLowered { plan, programs });
            (
                format!("planner {idx}"),
                StoredPlan {
                    iteration: 7,
                    outcome,
                },
            )
        })
        .collect();
    cases.push((
        "empty".to_string(),
        StoredPlan {
            iteration: 0,
            outcome: StoredOutcome::Plan(StoredLowered {
                plan: empty_plan(),
                programs: Vec::new(),
            }),
        },
    ));
    cases.push((
        "failed".to_string(),
        StoredPlan {
            iteration: 3,
            outcome: StoredOutcome::Failed(dynapipe_core::PlanError::Infeasible(
                "no mode fits".to_string(),
            )),
        },
    ));
    // (json, binary, flat) per case, in `cases` order.
    const PINNED: [(u64, u64, u64); 6] = [
        (
            0xda5e_653c_4063_58e8,
            0xc473_7a54_cea1_cf5c,
            0x57dd_184d_5526_f39c,
        ),
        (
            0x5b90_117b_d645_cadd,
            0x8a98_b51b_8dc1_a5af,
            0x02d9_ff36_5157_7473,
        ),
        (
            0x3c44_cb25_ab40_155e,
            0x4ea6_1807_5225_75b5,
            0xc7e1_08a1_a179_a84e,
        ),
        (
            0xd6bd_23e9_3944_7256,
            0xcfc9_3fb6_ace8_2608,
            0x347d_a712_fba5_3801,
        ),
        (
            0x347b_bbbc_a41e_1dc0,
            0xac04_b1a1_4dc8_06f3,
            0xe5ee_8237_ffad_0ff8,
        ),
        (
            0xe23d_5867_8080_b818,
            0x935b_5e89_46fd_8304,
            0x35cd_fe5c_bb19_70c8,
        ),
    ];
    let actual: Vec<(u64, u64, u64)> = cases
        .iter()
        .map(|(_, stored)| {
            let h = |codec| fnv1a64(&stored.encode(codec));
            (h(PlanCodec::Json), h(PlanCodec::Binary), h(PlanCodec::Flat))
        })
        .collect();
    for ((name, _), (got, want)) in cases.iter().zip(actual.iter().zip(&PINNED)) {
        assert_eq!(
            got, want,
            "{name}: wire hashes moved; all cases now {actual:#x?}"
        );
    }
}

/// Every shape a `Serialize` walk hands its writer, with the `Value` tree
/// the derive and the shim's impls have always built for it, written out
/// by hand. Each shape must build exactly that tree, and each tree codec
/// must encode the typed value to the same bytes as that tree.
mod writer_shapes {
    use dynapipe_core::PlanCodec;
    use serde::{Serialize, Value};
    use std::collections::{BTreeMap, HashMap};

    #[derive(Serialize)]
    struct UnitStruct;

    #[derive(Serialize)]
    struct Newtype(u32);

    #[derive(Serialize)]
    struct Pair(i64, f64);

    #[derive(Serialize)]
    struct Named {
        a: u8,
        b: String,
        c: Option<u16>,
        d: Vec<Vec<i32>>,
    }

    #[derive(Serialize)]
    enum Shape {
        Unit,
        Newtype(i32),
        Tuple(u8, bool),
        Struct { x: f64, y: Option<String> },
    }

    /// A JSON-shaped fixture for the text pins below.
    #[derive(Serialize)]
    struct Doc {
        a: u8,
        b: String,
        c: Option<u16>,
        d: Vec<Vec<i32>>,
        e: (f64, f64, f64),
        m: BTreeMap<i32, bool>,
        h: HashMap<u32, String>,
        r: std::ops::Range<usize>,
        s: Vec<Shape>,
        u: Vec<u8>,
    }

    fn s(x: &str) -> Value {
        Value::Str(x.to_string())
    }

    fn obj(entries: Vec<(&str, Value)>) -> Value {
        Value::Object(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// `to_value()` builds `want` (variant for variant, floats by their
    /// `Debug` text, so `-0.0` and NaN count), and both tree codecs
    /// stream the typed value to the bytes of its tree.
    fn check<T: Serialize + ?Sized>(typed: &T, want: Value) {
        let tree = typed.to_value();
        assert_eq!(format!("{tree:?}"), format!("{want:?}"));
        for codec in [PlanCodec::Json, PlanCodec::Binary] {
            assert_eq!(
                codec.encode(typed),
                codec.encode(&want),
                "{} bytes of {want:?}",
                codec.label()
            );
        }
    }

    #[test]
    fn structs_and_enum_variants_build_todays_trees() {
        check(&UnitStruct, Value::Null);
        check(&Newtype(7), Value::U64(7));
        check(
            &Pair(-3, 2.5),
            Value::Array(vec![Value::I64(-3), Value::F64(2.5)]),
        );
        check(
            &Named {
                a: 1,
                b: "x".to_string(),
                c: None,
                d: vec![vec![-1, 2], vec![]],
            },
            obj(vec![
                ("a", Value::U64(1)),
                ("b", s("x")),
                ("c", Value::Null),
                (
                    "d",
                    Value::Array(vec![
                        Value::Array(vec![Value::I64(-1), Value::I64(2)]),
                        Value::Array(vec![]),
                    ]),
                ),
            ]),
        );
        check(&Shape::Unit, s("Unit"));
        check(&Shape::Newtype(-5), obj(vec![("Newtype", Value::I64(-5))]));
        check(
            &Shape::Tuple(3, true),
            obj(vec![(
                "Tuple",
                Value::Array(vec![Value::U64(3), Value::Bool(true)]),
            )]),
        );
        check(
            &Shape::Struct {
                x: -0.0,
                y: Some("q".to_string()),
            },
            obj(vec![(
                "Struct",
                obj(vec![("x", Value::F64(-0.0)), ("y", s("q"))]),
            )]),
        );
    }

    #[test]
    fn std_shapes_build_todays_trees() {
        check(&None::<u8>, Value::Null);
        check(&Some(4u8), Value::U64(4));
        check(
            &vec![vec![1u64], vec![], vec![2, 3]],
            Value::Array(vec![
                Value::Array(vec![Value::U64(1)]),
                Value::Array(vec![]),
                Value::Array(vec![Value::U64(2), Value::U64(3)]),
            ]),
        );
        check(
            &[7u16, 8, 9],
            Value::Array(vec![Value::U64(7), Value::U64(8), Value::U64(9)]),
        );
        check(&(1u8,), Value::Array(vec![Value::U64(1)]));
        check(
            &(1u8, -2i16),
            Value::Array(vec![Value::U64(1), Value::I64(-2)]),
        );
        check(
            &(true, 'c', "str"),
            Value::Array(vec![Value::Bool(true), s("c"), s("str")]),
        );
        check(
            &(f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0f64),
            Value::Array(vec![
                Value::F64(f64::NAN),
                Value::F64(f64::INFINITY),
                Value::F64(f64::NEG_INFINITY),
                Value::F64(-0.0),
            ]),
        );
        check(
            &(2usize..5),
            obj(vec![("start", Value::U64(2)), ("end", Value::U64(5))]),
        );
        check(
            &[i64::MIN, -1, 0],
            Value::Array(vec![Value::I64(i64::MIN), Value::I64(-1), Value::I64(0)]),
        );
        check(&-1i8, Value::I64(-1));
        check(&u64::MAX, Value::U64(u64::MAX));
        check(&1.5f32, Value::F64(1.5));
    }

    #[test]
    fn maps_write_their_keys_in_order() {
        // Inserted out of order; the tree sorts the keys as strings, so
        // "10" < "100" < "9", whatever the hash order.
        let mut h = HashMap::new();
        for k in [100u32, 9, 10] {
            h.insert(k, k % 7);
        }
        check(
            &h,
            obj(vec![
                ("10", Value::U64(3)),
                ("100", Value::U64(2)),
                ("9", Value::U64(2)),
            ]),
        );
        let mut named = HashMap::new();
        named.insert("b".to_string(), -1.0f64);
        named.insert("a".to_string(), f64::NAN);
        check(
            &named,
            obj(vec![("a", Value::F64(f64::NAN)), ("b", Value::F64(-1.0))]),
        );
        // A BTreeMap keeps its own (numeric) order.
        let b: BTreeMap<i32, bool> = [(3, false), (-1, true)].into_iter().collect();
        check(
            &b,
            obj(vec![("-1", Value::Bool(true)), ("3", Value::Bool(false))]),
        );
    }

    fn doc() -> Doc {
        let mut h = HashMap::new();
        h.insert(100u32, "a\"b\\c\n\t\u{1}é".to_string());
        h.insert(9, String::new());
        h.insert(10, "x".to_string());
        Doc {
            a: 1,
            b: "x".to_string(),
            c: None,
            d: vec![vec![-1, 2], vec![]],
            e: (f64::NAN, f64::INFINITY, -0.0),
            m: [(-1, true), (3, false)].into_iter().collect(),
            h,
            r: 2..5,
            s: vec![
                Shape::Unit,
                Shape::Newtype(-5),
                Shape::Tuple(3, true),
                Shape::Struct {
                    x: 1e-7,
                    y: Some("q".to_string()),
                },
            ],
            u: vec![],
        }
    }

    /// JSON text, compact and indented, as the tree renderer has always
    /// written it: escapes, non-finite floats, empty containers, sorted
    /// hash-map keys.
    #[test]
    fn json_text_is_pinned() {
        let doc = doc();
        let compact = r#"{"a":1,"b":"x","c":null,"d":[[-1,2],[]],"e":["NaN","inf",-0.0],"m":{"-1":true,"3":false},"h":{"10":"x","100":"a\"b\\c\n\t\u0001é","9":""},"r":{"start":2,"end":5},"s":["Unit",{"Newtype":-5},{"Tuple":[3,true]},{"Struct":{"x":1e-7,"y":"q"}}],"u":[]}"#;
        let pretty = r#"{
  "a": 1,
  "b": "x",
  "c": null,
  "d": [
    [
      -1,
      2
    ],
    []
  ],
  "e": [
    "NaN",
    "inf",
    -0.0
  ],
  "m": {
    "-1": true,
    "3": false
  },
  "h": {
    "10": "x",
    "100": "a\"b\\c\n\t\u0001é",
    "9": ""
  },
  "r": {
    "start": 2,
    "end": 5
  },
  "s": [
    "Unit",
    {
      "Newtype": -5
    },
    {
      "Tuple": [
        3,
        true
      ]
    },
    {
      "Struct": {
        "x": 1e-7,
        "y": "q"
      }
    }
  ],
  "u": []
}"#;
        assert_eq!(serde_json::to_string(&doc).unwrap(), compact);
        assert_eq!(doc.to_value().to_json(), compact);
        assert_eq!(serde_json::to_string_pretty(&doc).unwrap(), pretty);
        assert_eq!(doc.to_value().to_json_pretty(), pretty);
        assert_eq!(PlanCodec::Json.encode(&doc), compact.as_bytes());
    }
}
