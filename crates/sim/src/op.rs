//! The simulator's operation set: what a device program is made of.
//!
//! The planner side of the reproduction (dynapipe-comm) compiles pipeline
//! instructions into these lower-level ops; keeping them generic (durations
//! and byte counts, no model knowledge) keeps the simulator a pure
//! substrate, the way Megatron/PyTorch are to the paper's executors.

use dynapipe_model::{Bytes, Micros};
use serde::{Deserialize, Serialize};

/// Identifies an activation buffer across ops (alloc in forward, free in
/// backward). Chosen by the plan compiler; unique per device.
pub type AllocId = u64;

/// Tag correlating a communication Start with its Wait and with the peer's
/// matching operation. Unique per (device pair, transfer).
pub type CommTag = u64;

/// Human-meaningful label carried through to traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OpLabel {
    /// Micro-batch index this op belongs to.
    pub micro_batch: u32,
    /// Pipeline stage executing the op.
    pub stage: u32,
    /// True for backward-direction work.
    pub is_backward: bool,
}

impl OpLabel {
    /// Label for micro-batch `mb` on stage `stage`.
    pub fn new(micro_batch: u32, stage: u32, is_backward: bool) -> Self {
        OpLabel {
            micro_batch,
            stage,
            is_backward,
        }
    }
}

/// Direction of a communication op relative to the issuing device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CommDir {
    /// This device sends to the peer.
    Send,
    /// This device receives from the peer.
    Recv,
}

/// An activation allocation performed by a compute op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocSpec {
    /// Buffer identity (freed later by id).
    pub id: AllocId,
    /// Buffer size.
    pub bytes: Bytes,
}

/// One operation in a device's sequential program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SimOp {
    /// Run on the compute stream for `duration` µs.
    ///
    /// Buffers in `allocs` are acquired when the op starts (stalling by the
    /// allocator's cost, and failing the simulation on OOM); buffers in
    /// `frees` are released when it finishes.
    Compute {
        /// Planned duration (jitter may perturb it).
        duration: Micros,
        /// Activation buffers acquired at start.
        allocs: Vec<AllocSpec>,
        /// Activation buffers released at end.
        frees: Vec<AllocId>,
        /// Trace label.
        label: OpLabel,
    },
    /// Post a communication with `peer` onto the pair's channel and return
    /// immediately (asynchronous Start instruction).
    CommStart {
        /// The remote device id.
        peer: usize,
        /// Send or receive, from this device's perspective.
        dir: CommDir,
        /// Payload size; both sides must agree.
        bytes: Bytes,
        /// Correlation tag; both sides must agree.
        tag: CommTag,
        /// Trace label.
        label: OpLabel,
    },
    /// Block the compute stream until the communication with `tag`
    /// (previously posted by this device) has completed.
    CommWait {
        /// Tag of the communication to wait for.
        tag: CommTag,
        /// Trace label.
        label: OpLabel,
    },
}

impl SimOp {
    /// The trace label of this op.
    pub fn label(&self) -> OpLabel {
        match self {
            SimOp::Compute { label, .. }
            | SimOp::CommStart { label, .. }
            | SimOp::CommWait { label, .. } => *label,
        }
    }

    /// Convenience constructor for a compute op with no memory effects.
    pub fn compute(duration: Micros, label: OpLabel) -> Self {
        SimOp::Compute {
            duration,
            allocs: Vec::new(),
            frees: Vec::new(),
            label,
        }
    }

    /// Borrowed [`OpView`] of this op.
    pub fn view(&self) -> OpView<'_> {
        match self {
            SimOp::Compute {
                duration,
                allocs,
                frees,
                label,
            } => OpView::Compute {
                duration: *duration,
                allocs: AllocsRef::Slice(allocs),
                frees: FreesRef::Slice(frees),
                label: *label,
            },
            SimOp::CommStart {
                peer,
                dir,
                bytes,
                tag,
                label,
            } => OpView::CommStart {
                peer: *peer,
                dir: *dir,
                bytes: *bytes,
                tag: *tag,
                label: *label,
            },
            SimOp::CommWait { tag, label } => OpView::CommWait {
                tag: *tag,
                label: *label,
            },
        }
    }
}

/// A complete program for one device.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DeviceProgram {
    /// Ops in execution order.
    pub ops: Vec<SimOp>,
}

impl DeviceProgram {
    /// Empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an op.
    pub fn push(&mut self, op: SimOp) {
        self.ops.push(op);
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total planned compute time (ignores communication and stalls).
    pub fn planned_compute_time(&self) -> Micros {
        self.ops
            .iter()
            .map(|op| match op {
                SimOp::Compute { duration, .. } => *duration,
                _ => 0.0,
            })
            .sum()
    }

    /// Validate internal consistency: every `CommWait` tag has a prior
    /// `CommStart` on this device, no alloc id is freed before allocation
    /// or allocated twice.
    pub fn validate(&self) -> Result<(), String> {
        validate_views(self.ops.iter().map(SimOp::view))
    }
}

/// Shared validation over op *views*, so the same checks (and the same
/// error messages) apply whether the program is an owned [`DeviceProgram`]
/// or a flat wire-format accessor executing straight off encoded bytes.
pub fn validate_views<'a>(ops: impl Iterator<Item = OpView<'a>>) -> Result<(), String> {
    let mut started: std::collections::HashSet<CommTag> = Default::default();
    let mut live: std::collections::HashSet<AllocId> = Default::default();
    for (i, op) in ops.enumerate() {
        match op {
            OpView::CommStart { tag, .. } => {
                if !started.insert(tag) {
                    return Err(format!("op {i}: tag {tag} started twice"));
                }
            }
            OpView::CommWait { tag, .. } => {
                if !started.contains(&tag) {
                    return Err(format!("op {i}: wait on unposted tag {tag}"));
                }
            }
            OpView::Compute { allocs, frees, .. } => {
                for a in allocs.iter() {
                    if !live.insert(a.id) {
                        return Err(format!("op {i}: alloc id {} reused", a.id));
                    }
                }
                for f in frees.iter() {
                    if !live.remove(&f) {
                        return Err(format!("op {i}: free of dead id {f}"));
                    }
                }
            }
        }
    }
    Ok(())
}

/// The allocation list of a [`OpView::Compute`], either borrowed from an
/// owned program or read in place from packed little-endian wire bytes
/// (16-byte `(id, bytes)` records — see `dynapipe_core::codec`'s Flat
/// layout). Elements are yielded by value; `AllocSpec` is `Copy`.
#[derive(Debug, Clone, Copy)]
pub enum AllocsRef<'a> {
    /// Borrowed from an owned [`DeviceProgram`].
    Slice(&'a [AllocSpec]),
    /// Packed LE `(id: u64, bytes: u64)` pairs, 16 bytes per element.
    Raw(&'a [u8]),
}

impl AllocsRef<'_> {
    /// Number of allocations.
    pub fn len(&self) -> usize {
        match self {
            AllocsRef::Slice(s) => s.len(),
            AllocsRef::Raw(b) => b.len() / 16,
        }
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element `i`, or `None` past the end. Raw reads are explicit LE
    /// byte reads — bounds-checked, no `unsafe`.
    pub fn get(&self, i: usize) -> Option<AllocSpec> {
        match self {
            AllocsRef::Slice(s) => s.get(i).copied(),
            AllocsRef::Raw(b) => {
                let off = i.checked_mul(16)?;
                Some(AllocSpec {
                    id: le_u64(b, off)?,
                    bytes: le_u64(b, off + 8)?,
                })
            }
        }
    }

    /// Iterate allocations by value.
    pub fn iter(&self) -> impl Iterator<Item = AllocSpec> + '_ {
        (0..self.len()).filter_map(move |i| self.get(i))
    }
}

/// The free list of a [`OpView::Compute`]: alloc ids either borrowed or
/// read in place from packed LE wire bytes (8 bytes per id).
#[derive(Debug, Clone, Copy)]
pub enum FreesRef<'a> {
    /// Borrowed from an owned [`DeviceProgram`].
    Slice(&'a [AllocId]),
    /// Packed LE `u64` ids, 8 bytes per element.
    Raw(&'a [u8]),
}

impl FreesRef<'_> {
    /// Number of freed ids.
    pub fn len(&self) -> usize {
        match self {
            FreesRef::Slice(s) => s.len(),
            FreesRef::Raw(b) => b.len() / 8,
        }
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<AllocId> {
        match self {
            FreesRef::Slice(s) => s.get(i).copied(),
            FreesRef::Raw(b) => le_u64(b, i.checked_mul(8)?),
        }
    }

    /// Iterate freed ids by value.
    pub fn iter(&self) -> impl Iterator<Item = AllocId> + '_ {
        (0..self.len()).filter_map(move |i| self.get(i))
    }
}

/// Bounds-checked little-endian `u64` read (no `unsafe`).
fn le_u64(b: &[u8], off: usize) -> Option<u64> {
    let bytes: [u8; 8] = b.get(off..off.checked_add(8)?)?.try_into().ok()?;
    Some(u64::from_le_bytes(bytes))
}

/// A borrowed, `Copy` view of one op — the shape the engine actually
/// executes. Owned [`SimOp`]s and flat wire-format records both project
/// into this, which is what lets one engine run bit-identically over
/// either representation.
#[derive(Debug, Clone, Copy)]
pub enum OpView<'a> {
    /// See [`SimOp::Compute`].
    Compute {
        /// Planned duration (jitter may perturb it).
        duration: Micros,
        /// Activation buffers acquired at start.
        allocs: AllocsRef<'a>,
        /// Activation buffers released at end.
        frees: FreesRef<'a>,
        /// Trace label.
        label: OpLabel,
    },
    /// See [`SimOp::CommStart`].
    CommStart {
        /// The remote device id.
        peer: usize,
        /// Send or receive, from this device's perspective.
        dir: CommDir,
        /// Payload size; both sides must agree.
        bytes: Bytes,
        /// Correlation tag; both sides must agree.
        tag: CommTag,
        /// Trace label.
        label: OpLabel,
    },
    /// See [`SimOp::CommWait`].
    CommWait {
        /// Tag of the communication to wait for.
        tag: CommTag,
        /// Trace label.
        label: OpLabel,
    },
}

impl OpView<'_> {
    /// The trace label of this op.
    pub fn label(&self) -> OpLabel {
        match self {
            OpView::Compute { label, .. }
            | OpView::CommStart { label, .. }
            | OpView::CommWait { label, .. } => *label,
        }
    }
}

/// Anything the engine can execute: a device count plus random access to
/// per-device op views. Owned program vectors implement this by borrowing;
/// the flat wire codec implements it by reading fields at offsets, so the
/// encoded blob *is* the program.
pub trait InstructionSource {
    /// Number of devices (one program per device).
    fn num_devices(&self) -> usize;

    /// Number of ops in `device`'s program.
    fn num_ops(&self, device: usize) -> usize;

    /// View of op `pc` on `device`, or `None` past the program's end.
    fn op_view(&self, device: usize, pc: usize) -> Option<OpView<'_>>;

    /// Validate `device`'s program (see [`DeviceProgram::validate`]).
    fn validate_device(&self, device: usize) -> Result<(), String> {
        validate_views((0..self.num_ops(device)).filter_map(|pc| self.op_view(device, pc)))
    }
}

impl InstructionSource for std::sync::Arc<Vec<DeviceProgram>> {
    fn num_devices(&self) -> usize {
        self.len()
    }

    fn num_ops(&self, device: usize) -> usize {
        self.get(device).map_or(0, |p| p.ops.len())
    }

    fn op_view(&self, device: usize, pc: usize) -> Option<OpView<'_>> {
        self.get(device)?.ops.get(pc).map(SimOp::view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lbl() -> OpLabel {
        OpLabel::new(0, 0, false)
    }

    #[test]
    fn validate_accepts_wellformed_program() {
        let mut p = DeviceProgram::new();
        p.push(SimOp::Compute {
            duration: 10.0,
            allocs: vec![AllocSpec { id: 1, bytes: 100 }],
            frees: vec![],
            label: lbl(),
        });
        p.push(SimOp::CommStart {
            peer: 1,
            dir: CommDir::Send,
            bytes: 64,
            tag: 7,
            label: lbl(),
        });
        p.push(SimOp::CommWait {
            tag: 7,
            label: lbl(),
        });
        p.push(SimOp::Compute {
            duration: 5.0,
            allocs: vec![],
            frees: vec![1],
            label: lbl(),
        });
        assert!(p.validate().is_ok());
        assert_eq!(p.planned_compute_time(), 15.0);
    }

    #[test]
    fn validate_rejects_wait_before_start() {
        let mut p = DeviceProgram::new();
        p.push(SimOp::CommWait {
            tag: 3,
            label: lbl(),
        });
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_double_alloc_and_dead_free() {
        let mut p = DeviceProgram::new();
        p.push(SimOp::Compute {
            duration: 1.0,
            allocs: vec![AllocSpec { id: 9, bytes: 10 }],
            frees: vec![],
            label: lbl(),
        });
        p.push(SimOp::Compute {
            duration: 1.0,
            allocs: vec![AllocSpec { id: 9, bytes: 10 }],
            frees: vec![],
            label: lbl(),
        });
        assert!(p.validate().is_err());

        let mut q = DeviceProgram::new();
        q.push(SimOp::Compute {
            duration: 1.0,
            allocs: vec![],
            frees: vec![4],
            label: lbl(),
        });
        assert!(q.validate().is_err());
    }

    #[test]
    fn raw_refs_read_packed_le_records() {
        // One (id, bytes) pair and one free id, hand-packed LE.
        let mut allocs = Vec::new();
        allocs.extend_from_slice(&7u64.to_le_bytes());
        allocs.extend_from_slice(&4096u64.to_le_bytes());
        let a = AllocsRef::Raw(&allocs);
        assert_eq!(a.len(), 1);
        assert_eq!(a.get(0), Some(AllocSpec { id: 7, bytes: 4096 }));
        assert_eq!(a.get(1), None);

        let frees = 9u64.to_le_bytes();
        let f = FreesRef::Raw(&frees);
        assert_eq!(f.iter().collect::<Vec<_>>(), vec![9]);
        assert_eq!(f.get(1), None);
    }

    #[test]
    fn arc_source_views_match_owned_ops() {
        let mut p = DeviceProgram::new();
        p.push(SimOp::Compute {
            duration: 10.0,
            allocs: vec![AllocSpec { id: 1, bytes: 100 }],
            frees: vec![],
            label: lbl(),
        });
        p.push(SimOp::CommWait {
            tag: 3,
            label: lbl(),
        });
        let src = std::sync::Arc::new(vec![p]);
        assert_eq!(src.num_devices(), 1);
        assert_eq!(src.num_ops(0), 2);
        assert!(matches!(
            src.op_view(0, 1),
            Some(OpView::CommWait { tag: 3, .. })
        ));
        assert!(src.op_view(0, 2).is_none());
        assert!(src.op_view(1, 0).is_none());
        // Same wait-before-start error through the view-based validator.
        assert!(src.validate_device(0).is_err());
    }

    #[test]
    fn validate_rejects_duplicate_tag() {
        let mut p = DeviceProgram::new();
        p.push(SimOp::CommStart {
            peer: 1,
            dir: CommDir::Send,
            bytes: 1,
            tag: 5,
            label: lbl(),
        });
        p.push(SimOp::CommStart {
            peer: 2,
            dir: CommDir::Recv,
            bytes: 1,
            tag: 5,
            label: lbl(),
        });
        assert!(p.validate().is_err());
    }
}
