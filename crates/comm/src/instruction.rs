//! The pipeline instruction set, following DeepSpeed's design principle as
//! the paper does (§3).

use dynapipe_model::memory::RecomputeMode;
use dynapipe_model::MicroBatchShape;
use serde::{Deserialize, Serialize};

/// Which of the four communication flavours an op belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CommKind {
    /// Send a forward activation to the next stage.
    SendAct,
    /// Receive a forward activation from the previous stage.
    RecvAct,
    /// Send an activation gradient to the previous stage.
    SendGrad,
    /// Receive an activation gradient from the next stage.
    RecvGrad,
}

impl CommKind {
    /// Whether this is a send (vs. receive).
    pub fn is_send(self) -> bool {
        matches!(self, CommKind::SendAct | CommKind::SendGrad)
    }

    /// The complementary kind on the peer device.
    pub fn peer_kind(self) -> CommKind {
        match self {
            CommKind::SendAct => CommKind::RecvAct,
            CommKind::RecvAct => CommKind::SendAct,
            CommKind::SendGrad => CommKind::RecvGrad,
            CommKind::RecvGrad => CommKind::SendGrad,
        }
    }

    /// Instruction name as in the paper ("SendActStart" etc.).
    pub fn start_name(self) -> &'static str {
        match self {
            CommKind::SendAct => "SendActStart",
            CommKind::RecvAct => "RecvActStart",
            CommKind::SendGrad => "SendGradStart",
            CommKind::RecvGrad => "RecvGradStart",
        }
    }

    /// Wait-instruction name as in the paper ("WaitRecvAct" etc.).
    pub fn wait_name(self) -> &'static str {
        match self {
            CommKind::SendAct => "WaitSendAct",
            CommKind::RecvAct => "WaitRecvAct",
            CommKind::SendGrad => "WaitSendGrad",
            CommKind::RecvGrad => "WaitRecvGrad",
        }
    }
}

/// One pipeline instruction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Instr {
    /// Execute the forward computation of a micro-batch.
    ForwardPass {
        /// Micro-batch index.
        mb: u32,
    },
    /// Execute the backward computation of a micro-batch.
    BackwardPass {
        /// Micro-batch index.
        mb: u32,
    },
    /// Launch an asynchronous communication (`SendActStart` etc.).
    CommStart {
        /// Communication flavour.
        kind: CommKind,
        /// Micro-batch the tensor belongs to.
        mb: u32,
        /// Peer device (global pipeline-stage rank).
        peer: u32,
        /// Tensor size in bytes (included in the plan so executors never
        /// exchange shapes at runtime, §6).
        bytes: u64,
        /// Correlation tag, unique per transfer.
        tag: u64,
    },
    /// Block until a previously launched communication completes
    /// (`WaitRecvAct` etc.).
    CommWait {
        /// Communication flavour.
        kind: CommKind,
        /// Micro-batch the tensor belongs to.
        mb: u32,
        /// Tag of the communication to wait on.
        tag: u64,
    },
}

impl Instr {
    /// Micro-batch this instruction concerns.
    pub fn mb(&self) -> u32 {
        match self {
            Instr::ForwardPass { mb }
            | Instr::BackwardPass { mb }
            | Instr::CommStart { mb, .. }
            | Instr::CommWait { mb, .. } => *mb,
        }
    }
}

impl std::fmt::Display for Instr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Instr::ForwardPass { mb } => write!(f, "ForwardPass(mb={mb})"),
            Instr::BackwardPass { mb } => write!(f, "BackwardPass(mb={mb})"),
            Instr::CommStart { kind, mb, peer, .. } => {
                write!(f, "{}(mb={mb}, peer={peer})", kind.start_name())
            }
            Instr::CommWait { kind, mb, .. } => {
                write!(f, "{}(mb={mb})", kind.wait_name())
            }
        }
    }
}

/// A compiled execution plan for one training iteration: what each pipeline
/// stage executes, in order, plus the micro-batch shapes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionPlan {
    /// Per-stage instruction streams.
    pub per_stage: Vec<Vec<Instr>>,
    /// Padded shape of each micro-batch.
    pub shapes: Vec<MicroBatchShape>,
    /// Recomputation mode the plan assumes.
    pub recompute: RecomputeMode,
}

impl ExecutionPlan {
    /// Number of pipeline stages.
    pub fn num_stages(&self) -> usize {
        self.per_stage.len()
    }

    /// Number of micro-batches.
    pub fn num_micro_batches(&self) -> usize {
        self.shapes.len()
    }

    /// Total instruction count across stages.
    pub fn num_instructions(&self) -> usize {
        self.per_stage.iter().map(Vec::len).sum()
    }

    /// Validate basic well-formedness: every micro-batch runs forward and
    /// backward exactly once per stage, every `CommWait` is preceded by its
    /// `CommStart` on the same stage, and tags are unique per stage.
    pub fn validate(&self) -> Result<(), String> {
        let m = self.num_micro_batches();
        for (j, stream) in self.per_stage.iter().enumerate() {
            let mut fwd = vec![0usize; m];
            let mut bwd = vec![0usize; m];
            let mut started: std::collections::HashSet<u64> = Default::default();
            for ins in stream {
                match ins {
                    Instr::ForwardPass { mb } => fwd[*mb as usize] += 1,
                    Instr::BackwardPass { mb } => bwd[*mb as usize] += 1,
                    Instr::CommStart { tag, .. } => {
                        if !started.insert(*tag) {
                            return Err(format!("stage {j}: duplicate tag {tag}"));
                        }
                    }
                    Instr::CommWait { tag, .. } => {
                        if !started.contains(tag) {
                            return Err(format!("stage {j}: wait before start of tag {tag}"));
                        }
                    }
                }
            }
            if fwd.iter().any(|&x| x != 1) || bwd.iter().any(|&x| x != 1) {
                return Err(format!("stage {j}: some micro-batch not run exactly once"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_kind_pairing() {
        assert_eq!(CommKind::SendAct.peer_kind(), CommKind::RecvAct);
        assert_eq!(CommKind::RecvGrad.peer_kind(), CommKind::SendGrad);
        assert!(CommKind::SendGrad.is_send());
        assert!(!CommKind::RecvAct.is_send());
    }

    #[test]
    fn display_matches_paper_names() {
        let s = Instr::CommStart {
            kind: CommKind::SendAct,
            mb: 3,
            peer: 1,
            bytes: 8,
            tag: 5,
        };
        assert_eq!(s.to_string(), "SendActStart(mb=3, peer=1)");
        let w = Instr::CommWait {
            kind: CommKind::RecvAct,
            mb: 3,
            tag: 5,
        };
        assert_eq!(w.to_string(), "WaitRecvAct(mb=3)");
    }

    #[test]
    fn validate_catches_missing_pass() {
        let plan = ExecutionPlan {
            per_stage: vec![vec![Instr::ForwardPass { mb: 0 }]],
            shapes: vec![MicroBatchShape::gpt(1, 8)],
            recompute: RecomputeMode::None,
        };
        assert!(plan.validate().is_err());
    }

    #[test]
    fn validate_accepts_minimal_plan() {
        let plan = ExecutionPlan {
            per_stage: vec![vec![
                Instr::ForwardPass { mb: 0 },
                Instr::BackwardPass { mb: 0 },
            ]],
            shapes: vec![MicroBatchShape::gpt(1, 8)],
            recompute: RecomputeMode::None,
        };
        plan.validate().unwrap();
        assert_eq!(plan.num_instructions(), 2);
    }

    #[test]
    fn validate_rejects_wait_before_start() {
        let plan = ExecutionPlan {
            per_stage: vec![vec![
                Instr::CommWait {
                    kind: CommKind::RecvAct,
                    mb: 0,
                    tag: 1,
                },
                Instr::ForwardPass { mb: 0 },
                Instr::BackwardPass { mb: 0 },
            ]],
            shapes: vec![MicroBatchShape::gpt(1, 8)],
            recompute: RecomputeMode::None,
        };
        assert!(plan.validate().is_err());
    }
}
