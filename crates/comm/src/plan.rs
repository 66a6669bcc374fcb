//! Ahead-of-time communication planning (§6).
//!
//! Given a pipeline schedule and its simulated timeline, produce per-stage
//! instruction streams in which every send and its matching receive are
//! enqueued together, at the production time of the tensor — walking ops in
//! ascending end-time order. Because both sides of every transfer are
//! appended to their stages' communication queues at the same moment of the
//! same global scan, the per-device-pair communication orders are identical
//! by construction, which is the paper's deadlock-freedom argument.
//!
//! `Wait` ops are placed as late as possible: `WaitRecvAct`/`WaitRecvGrad`
//! immediately before the computation consuming the tensor, maximizing the
//! window in which communication overlaps computation (Fig. 12).

use crate::instruction::{CommKind, ExecutionPlan, Instr};
use dynapipe_model::memory::RecomputeMode;
use dynapipe_model::{Bytes, MicroBatchShape};
use dynapipe_schedule::{Schedule, Timeline};

/// Inputs to communication planning.
pub struct PlanInputs<'a> {
    /// The pipeline schedule (per-stage op orders).
    pub schedule: &'a Schedule,
    /// Simulated execution timeline of that schedule.
    pub timeline: &'a Timeline,
    /// `boundary_bytes[mb][j]`: bytes of the tensor crossing the boundary
    /// between stages `j` and `j+1` for micro-batch `mb` (activations
    /// forward, gradients backward — same size).
    pub boundary_bytes: &'a [Vec<Bytes>],
    /// Padded micro-batch shapes (embedded in the plan).
    pub shapes: &'a [MicroBatchShape],
    /// Recomputation mode the plan assumes.
    pub recompute: RecomputeMode,
}

/// Correlation tag for the transfer of `mb` across boundary `j`;
/// `grad` distinguishes the backward transfer.
fn tag_of(mb: usize, boundary: usize, grad: bool, num_boundaries: usize) -> u64 {
    ((mb * num_boundaries.max(1) + boundary) * 2 + usize::from(grad)) as u64
}

/// Plan communication and compile the full execution plan.
///
/// # Panics
///
/// Panics if the schedule/timeline/shape dimensions disagree.
pub fn plan_communication(inputs: &PlanInputs<'_>) -> ExecutionPlan {
    let c = inputs.schedule.num_stages();
    let m = inputs.shapes.len();
    assert_eq!(
        inputs.boundary_bytes.len(),
        m,
        "boundary bytes per micro-batch"
    );
    let nb = c.saturating_sub(1);

    // Step 1: walk ops by end time; enqueue send+recv pairs at production.
    #[derive(Clone, Copy)]
    struct QueuedComm {
        ts: f64,
        instr: Instr,
    }
    let mut queues: Vec<Vec<QueuedComm>> = vec![Vec::new(); c];
    for op in inputs.timeline.ops_by_end_time() {
        let (boundary, producer, consumer, send_kind) = if !op.backward {
            if op.stage + 1 >= c {
                continue;
            }
            (op.stage, op.stage, op.stage + 1, CommKind::SendAct)
        } else {
            if op.stage == 0 {
                continue;
            }
            (op.stage - 1, op.stage, op.stage - 1, CommKind::SendGrad)
        };
        let bytes = inputs.boundary_bytes[op.mb][boundary];
        let tag = tag_of(op.mb, boundary, op.backward, nb);
        queues[producer].push(QueuedComm {
            ts: op.end,
            instr: Instr::CommStart {
                kind: send_kind,
                mb: op.mb as u32,
                peer: consumer as u32,
                bytes,
                tag,
            },
        });
        queues[consumer].push(QueuedComm {
            ts: op.end,
            instr: Instr::CommStart {
                kind: send_kind.peer_kind(),
                mb: op.mb as u32,
                peer: producer as u32,
                bytes,
                tag,
            },
        });
    }

    // Step 2: interleave each stage's compute order with its comm queue.
    let mut per_stage: Vec<Vec<Instr>> = Vec::with_capacity(c);
    #[allow(clippy::needless_range_loop)] // `j` indexes three parallel structures
    for j in 0..c {
        let order = &inputs.schedule.orders[j];
        let mut stream: Vec<Instr> = Vec::with_capacity(order.len() * 3);
        let mut qi = 0usize;
        for op in order {
            let start = if op.backward {
                inputs.timeline.times.bwd[op.mb][j].0
            } else {
                inputs.timeline.times.fwd[op.mb][j].0
            };
            // Launch all communications whose tensors exist by the time
            // this computation starts.
            while qi < queues[j].len() && queues[j][qi].ts <= start + 1e-9 {
                stream.push(queues[j][qi].instr);
                qi += 1;
            }
            // Wait (as late as possible) for the tensor this computation
            // consumes.
            if !op.backward && j > 0 {
                stream.push(Instr::CommWait {
                    kind: CommKind::RecvAct,
                    mb: op.mb as u32,
                    tag: tag_of(op.mb, j - 1, false, nb),
                });
            }
            if op.backward && j + 1 < c {
                stream.push(Instr::CommWait {
                    kind: CommKind::RecvGrad,
                    mb: op.mb as u32,
                    tag: tag_of(op.mb, j, true, nb),
                });
            }
            stream.push(if op.backward {
                Instr::BackwardPass { mb: op.mb as u32 }
            } else {
                Instr::ForwardPass { mb: op.mb as u32 }
            });
        }
        // Launch any remaining communications (sends produced by the final
        // computations), then wait for all outstanding sends so the
        // iteration only completes when every transfer has drained.
        let mut send_tags: Vec<(CommKind, u32, u64)> = Vec::new();
        for q in &queues[j] {
            if let Instr::CommStart { kind, mb, tag, .. } = q.instr {
                if kind.is_send() {
                    send_tags.push((kind, mb, tag));
                }
            }
        }
        while qi < queues[j].len() {
            stream.push(queues[j][qi].instr);
            qi += 1;
        }
        for (kind, mb, tag) in send_tags {
            stream.push(Instr::CommWait { kind, mb, tag });
        }
        per_stage.push(stream);
    }

    ExecutionPlan {
        per_stage,
        shapes: inputs.shapes.to_vec(),
        recompute: inputs.recompute,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_deadlock_free;
    use dynapipe_schedule::{adaptive_schedule, evaluate_schedule, one_f_one_b, ScheduleInput};

    fn make_plan(m: usize, c: usize, adaptive: bool) -> ExecutionPlan {
        let mut input = ScheduleInput::uniform(m, c, 10.0, 20.0, 1);
        // Introduce variation so adaptive schedules differ from 1F1B.
        for i in 0..m {
            let scale = 0.4 + ((i * 31) % 7) as f64 * 0.35;
            for j in 0..c {
                input.fwd[i][j] *= scale;
                input.bwd[i][j] *= scale;
            }
        }
        let schedule = if adaptive {
            adaptive_schedule(&input)
        } else {
            one_f_one_b(m, c)
        };
        let timeline = evaluate_schedule(&schedule, &input).unwrap();
        let boundary_bytes = vec![vec![1024u64; c.saturating_sub(1)]; m];
        let shapes = vec![MicroBatchShape::gpt(1, 128); m];
        plan_communication(&PlanInputs {
            schedule: &schedule,
            timeline: &timeline,
            boundary_bytes: &boundary_bytes,
            shapes: &shapes,
            recompute: RecomputeMode::None,
        })
    }

    #[test]
    fn plan_is_wellformed() {
        for (m, c) in [(4usize, 2usize), (8, 4), (6, 3)] {
            for adaptive in [false, true] {
                let plan = make_plan(m, c, adaptive);
                plan.validate()
                    .unwrap_or_else(|e| panic!("m={m} c={c} adaptive={adaptive}: {e}"));
            }
        }
    }

    #[test]
    fn every_boundary_crossed_twice_per_micro_batch() {
        let m = 6;
        let c = 3;
        let plan = make_plan(m, c, true);
        // Each of m micro-batches crosses each of (c-1) boundaries once
        // forward and once backward; each transfer appears as one send and
        // one recv Start.
        let starts: usize = plan
            .per_stage
            .iter()
            .flatten()
            .filter(|i| matches!(i, Instr::CommStart { .. }))
            .count();
        assert_eq!(starts, m * (c - 1) * 2 * 2);
    }

    #[test]
    fn per_pair_order_is_consistent() {
        let plan = make_plan(8, 4, true);
        let c = plan.num_stages();
        for j in 0..c - 1 {
            let tags_fwd_side: Vec<u64> = plan.per_stage[j]
                .iter()
                .filter_map(|i| match i {
                    Instr::CommStart { peer, tag, .. } if *peer == (j + 1) as u32 => Some(*tag),
                    _ => None,
                })
                .collect();
            let tags_bwd_side: Vec<u64> = plan.per_stage[j + 1]
                .iter()
                .filter_map(|i| match i {
                    Instr::CommStart { peer, tag, .. } if *peer == j as u32 => Some(*tag),
                    _ => None,
                })
                .collect();
            assert_eq!(
                tags_fwd_side,
                tags_bwd_side,
                "stages {j} and {} disagree on channel order",
                j + 1
            );
        }
    }

    #[test]
    fn planned_order_verifies_deadlock_free() {
        for (m, c) in [(4usize, 2usize), (8, 4), (12, 6)] {
            for adaptive in [false, true] {
                let plan = make_plan(m, c, adaptive);
                verify_deadlock_free(&plan)
                    .unwrap_or_else(|e| panic!("m={m} c={c} adaptive={adaptive}: {e}"));
            }
        }
    }

    #[test]
    fn waits_precede_their_consumers() {
        let plan = make_plan(6, 3, true);
        // On stage 1, every ForwardPass(mb) must be directly preceded by
        // WaitRecvAct(mb) somewhere earlier with no other consumer of the
        // same tensor in between — check the wait exists before the pass.
        let stream = &plan.per_stage[1];
        for (idx, ins) in stream.iter().enumerate() {
            if let Instr::ForwardPass { mb } = ins {
                let has_wait = stream[..idx].iter().any(|p| {
                    matches!(p, Instr::CommWait { kind: CommKind::RecvAct, mb: w, .. } if w == mb)
                });
                assert!(
                    has_wait,
                    "ForwardPass(mb={mb}) without preceding WaitRecvAct"
                );
            }
        }
    }

    #[test]
    fn single_stage_plan_has_no_comm() {
        let plan = make_plan(4, 1, false);
        assert!(plan.per_stage[0]
            .iter()
            .all(|i| matches!(i, Instr::ForwardPass { .. } | Instr::BackwardPass { .. })));
        plan.validate().unwrap();
    }
}
