//! The discrete-event engine: executes per-device programs against ordered
//! channels, memory limits and (optionally) jittered compute durations.

use crate::channel::{pair_key, Channel, ChannelError, MatchedTransfer};
use crate::memory::{AllocatorMode, AllocatorStats, CachingAllocator, MemoryTracker, OomError};
use crate::op::{CommTag, DeviceProgram, InstructionSource, OpLabel, OpView};
use crate::trace::{TraceEvent, TraceKind};
use dynapipe_model::{Bytes, HardwareModel, Micros};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Deterministic multiplicative noise on compute durations.
///
/// Used to reproduce the paper's Fig. 7 variance study and to open the gap
/// between the planner's estimates and "measured" (simulated) times in
/// Fig. 18. Noise is a zero-mean Gaussian of standard deviation
/// `sigma × duration`, clamped so durations stay positive.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct JitterConfig {
    /// Relative standard deviation (1.0 = std equal to the mean duration).
    pub sigma: f64,
    /// Seed making the noise reproducible.
    pub seed: u64,
}

impl JitterConfig {
    /// Jittered duration for op `op_index` on `device`.
    pub fn apply(&self, device: usize, op_index: usize, duration: Micros) -> Micros {
        if self.sigma == 0.0 || duration == 0.0 {
            return duration;
        }
        let z = gaussian_hash(self.seed, device as u64, op_index as u64);
        (duration * (1.0 + self.sigma * z)).max(duration * 0.02)
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Hardware description (p2p times, node topology).
    pub hardware: HardwareModel,
    /// Per-device activation memory budget. The planner subtracts static
    /// model state before handing the budget to the engine.
    pub memory_limits: Vec<Bytes>,
    /// Allocator behaviour (§7 ablation).
    pub allocator_mode: AllocatorMode,
    /// Optional compute-duration noise.
    pub jitter: Option<JitterConfig>,
    /// CPU overhead of posting an asynchronous communication (µs).
    pub comm_post_overhead: Micros,
    /// Whether to record a full trace (costs memory on big runs).
    pub record_trace: bool,
}

impl EngineConfig {
    /// Config for `n` devices with "unlimited" memory and no jitter —
    /// convenient for schedule-only studies.
    pub fn unbounded(hardware: HardwareModel, n: usize) -> Self {
        EngineConfig {
            hardware,
            memory_limits: vec![Bytes::MAX / 4; n],
            allocator_mode: AllocatorMode::PreAllocatedPool,
            jitter: None,
            comm_post_overhead: 2.0,
            record_trace: false,
        }
    }
}

/// Why a simulation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A device exceeded its activation budget.
    Oom {
        /// The failing device.
        device: usize,
        /// Details of the failing request.
        detail: OomError,
    },
    /// Incompatible communication ops met at a channel head.
    Channel(ChannelError),
    /// The event queue drained with unfinished devices: a deadlock.
    Deadlock {
        /// `(device, program counter, label of the stuck op)` per stuck device.
        stuck: Vec<(usize, usize, OpLabel)>,
    },
    /// A program failed static validation before execution.
    InvalidProgram {
        /// The offending device.
        device: usize,
        /// Validation message.
        message: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Oom { device, detail } => write!(f, "device {device}: {detail}"),
            SimError::Channel(e) => write!(f, "{e}"),
            SimError::Deadlock { stuck } => {
                write!(f, "deadlock; stuck devices: {:?}", stuck)
            }
            SimError::InvalidProgram { device, message } => {
                write!(f, "invalid program on device {device}: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Result of a successful simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// End-to-end makespan (µs) — *simulated* cluster time.
    pub makespan: Micros,
    /// Host wall-clock the engine spent computing this run (µs). This is
    /// the executor-side cost the plan-ahead runtime subtracts from its
    /// overlap accounting: simulated `makespan` is the time the training
    /// job occupies the cluster, `host_wall_us` the time the simulation
    /// occupied this process.
    pub host_wall_us: f64,
    /// Per-device peak activation memory.
    pub peak_memory: Vec<Bytes>,
    /// Per-device busy (computing) time.
    pub busy_time: Vec<Micros>,
    /// Per-device allocator statistics.
    pub allocator_stats: Vec<AllocatorStats>,
    /// Trace events if recording was enabled.
    pub trace: Vec<TraceEvent>,
}

impl SimResult {
    /// Mean device utilization: busy time over makespan.
    pub fn utilization(&self) -> f64 {
        if self.makespan <= 0.0 || self.busy_time.is_empty() {
            return 0.0;
        }
        let total: Micros = self.busy_time.iter().sum();
        total / (self.makespan * self.busy_time.len() as f64)
    }

    /// Bitwise behavioral equality with `other`: makespan, per-device
    /// peaks, busy times and allocator statistics must match exactly
    /// (floats compared by bit pattern). `host_wall_us` and the trace
    /// are excluded — they measure the simulating host, not the
    /// simulated behavior. This is the contract a deserialized device
    /// program must meet against the shared-`Arc` original: engines over
    /// owned wire-decoded programs may not differ in any simulated bit.
    /// Returns a description of the first divergence.
    // lint:allow(pub-uncalled): oracle for tests/serialization.rs `deserialized_programs_run_bit_identically_to_shared_arc`
    pub fn bit_eq(&self, other: &SimResult) -> Result<(), String> {
        fn f64_eq(name: &str, a: f64, b: f64) -> Result<(), String> {
            if a.to_bits() != b.to_bits() {
                return Err(format!("{name}: {a} vs {b}"));
            }
            Ok(())
        }
        f64_eq("makespan", self.makespan, other.makespan)?;
        if self.peak_memory != other.peak_memory {
            return Err("peak_memory diverged".to_string());
        }
        if self.busy_time.len() != other.busy_time.len() {
            return Err("device count diverged".to_string());
        }
        for (d, (a, b)) in self.busy_time.iter().zip(&other.busy_time).enumerate() {
            f64_eq(&format!("busy_time[{d}]"), *a, *b)?;
        }
        if self.allocator_stats.len() != other.allocator_stats.len() {
            return Err("allocator stats count diverged".to_string());
        }
        for (d, (a, b)) in self
            .allocator_stats
            .iter()
            .zip(&other.allocator_stats)
            .enumerate()
        {
            if (a.hits, a.misses, a.defrags) != (b.hits, b.misses, b.defrags) {
                return Err(format!("allocator_stats[{d}] counters diverged"));
            }
            f64_eq(
                &format!("allocator_stats[{d}].stall_us"),
                a.stall_us,
                b.stall_us,
            )?;
        }
        Ok(())
    }
}

#[derive(Debug)]
struct DevState {
    pc: usize,
    clock: Micros,
    blocked_on: Option<CommTag>,
    mem: MemoryTracker,
    alloc: CachingAllocator,
    busy: Micros,
    done: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    DeviceReady(usize),
    TransferDone { pair: (usize, usize), tag: CommTag },
}

/// Heap key ordering events by time, with a sequence number for determinism.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TimeKey(Micros, u64);

impl Eq for TimeKey {}

impl Ord for TimeKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

impl PartialOrd for TimeKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The discrete-event engine, generic over where its instructions live.
///
/// The default source is an `Arc<Vec<DeviceProgram>>`: the plan-ahead
/// runtime's lowering stage compiles programs once per iteration and
/// shares them with the engine without copying (see
/// [`Engine::with_shared`]), and [`Engine::run`] borrows, so one engine
/// can execute its programs repeatedly (e.g. jitter sweeps over one
/// compiled plan). Any other [`InstructionSource`] — in particular the
/// flat wire codec's zero-copy accessors — plugs in via
/// [`Engine::from_source`] and must produce a bit-identical
/// [`SimResult`]: the engine only ever sees [`OpView`]s.
pub struct Engine<S = std::sync::Arc<Vec<DeviceProgram>>> {
    config: EngineConfig,
    programs: S,
}

impl Engine {
    /// Create an engine for the given per-device programs.
    ///
    /// # Panics
    ///
    /// Panics if `config.memory_limits` does not match the device count.
    pub fn new(config: EngineConfig, programs: Vec<DeviceProgram>) -> Self {
        Self::with_shared(config, std::sync::Arc::new(programs))
    }

    /// Create an engine over pre-compiled, shared device programs — the
    /// lowering-stage entry point: no program data is copied.
    ///
    /// # Panics
    ///
    /// Panics if `config.memory_limits` does not match the device count.
    pub fn with_shared(config: EngineConfig, programs: std::sync::Arc<Vec<DeviceProgram>>) -> Self {
        Engine::from_source(config, programs)
    }
}

impl<S: InstructionSource> Engine<S> {
    /// Create an engine over any instruction source — owned programs or
    /// flat wire bytes executed in place.
    ///
    /// # Panics
    ///
    /// Panics if `config.memory_limits` does not match the device count.
    pub fn from_source(config: EngineConfig, programs: S) -> Self {
        assert_eq!(
            config.memory_limits.len(),
            programs.num_devices(),
            "one memory limit per device required"
        );
        Engine { config, programs }
    }

    /// Run the simulation to completion.
    pub fn run(&self) -> Result<SimResult, SimError> {
        // lint:allow(wall-clock): simulation host wall-clock for SimResult.host_wall_us, excluded from behavior_eq
        let host_t0 = std::time::Instant::now();
        let n = self.programs.num_devices();
        for d in 0..n {
            self.programs
                .validate_device(d)
                .map_err(|message| SimError::InvalidProgram { device: d, message })?;
        }
        let mut devs: Vec<DevState> = (0..n)
            .map(|d| DevState {
                pc: 0,
                clock: 0.0,
                blocked_on: None,
                mem: MemoryTracker::new(self.config.memory_limits[d]),
                alloc: CachingAllocator::new(self.config.allocator_mode),
                busy: 0.0,
                done: false,
            })
            .collect();
        let mut channels: HashMap<(usize, usize), Channel> = HashMap::new();
        let mut completed: HashMap<CommTag, Micros> = HashMap::new();
        let mut waiting: HashMap<CommTag, Vec<usize>> = HashMap::new();
        let mut heap: BinaryHeap<Reverse<(TimeKey, Event)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut trace: Vec<TraceEvent> = Vec::new();
        let mut last_time: Micros = 0.0;

        let push = |heap: &mut BinaryHeap<Reverse<(TimeKey, Event)>>,
                    seq: &mut u64,
                    t: Micros,
                    e: Event| {
            heap.push(Reverse((TimeKey(t, *seq), e)));
            *seq += 1;
        };

        for d in 0..n {
            push(&mut heap, &mut seq, 0.0, Event::DeviceReady(d));
        }

        while let Some(Reverse((TimeKey(t, _), event))) = heap.pop() {
            last_time = last_time.max(t);
            match event {
                Event::DeviceReady(d) => {
                    if devs[d].done {
                        continue;
                    }
                    devs[d].clock = devs[d].clock.max(t);
                    self.step_device(
                        d,
                        &mut devs,
                        &mut channels,
                        &mut completed,
                        &mut waiting,
                        &mut heap,
                        &mut seq,
                        &mut trace,
                    )?;
                }
                Event::TransferDone { pair, tag } => {
                    completed.insert(tag, t);
                    if let Some(waiters) = waiting.remove(&tag) {
                        for w in waiters {
                            heap.push(Reverse((TimeKey(t, seq), Event::DeviceReady(w))));
                            seq += 1;
                        }
                    }
                    // The channel is free again; try to launch the next match.
                    Self::launch_if_matched(
                        &self.config,
                        pair,
                        channels.get_mut(&pair).expect("channel exists"),
                        &mut heap,
                        &mut seq,
                        &mut trace,
                        self.config.record_trace,
                    )?;
                }
            }
        }

        let stuck: Vec<(usize, usize, OpLabel)> = devs
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.done)
            .map(|(d, s)| {
                let label = self
                    .programs
                    .op_view(d, s.pc)
                    .map(|op| op.label())
                    .unwrap_or(OpLabel::new(u32::MAX, u32::MAX, false));
                (d, s.pc, label)
            })
            .collect();
        if !stuck.is_empty() {
            return Err(SimError::Deadlock { stuck });
        }

        let makespan = devs.iter().map(|s| s.clock).fold(last_time, f64::max);
        Ok(SimResult {
            makespan,
            host_wall_us: host_t0.elapsed().as_secs_f64() * 1e6,
            peak_memory: devs.iter().map(|s| s.mem.peak()).collect(),
            busy_time: devs.iter().map(|s| s.busy).collect(),
            allocator_stats: devs.iter().map(|s| s.alloc.stats()).collect(),
            trace,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn step_device(
        &self,
        d: usize,
        devs: &mut [DevState],
        channels: &mut HashMap<(usize, usize), Channel>,
        completed: &mut HashMap<CommTag, Micros>,
        waiting: &mut HashMap<CommTag, Vec<usize>>,
        heap: &mut BinaryHeap<Reverse<(TimeKey, Event)>>,
        seq: &mut u64,
        trace: &mut Vec<TraceEvent>,
    ) -> Result<(), SimError> {
        loop {
            let Some(op) = self.programs.op_view(d, devs[d].pc) else {
                devs[d].done = true;
                return Ok(());
            };
            match op {
                OpView::Compute {
                    duration,
                    allocs,
                    frees,
                    label,
                } => {
                    let dev = &mut devs[d];
                    let mut stall = 0.0;
                    for a in allocs.iter() {
                        stall += dev
                            .alloc
                            .charge_alloc(a.bytes, dev.mem.in_use(), dev.mem.limit());
                        dev.mem
                            .alloc(a.id, a.bytes)
                            .map_err(|detail| SimError::Oom { device: d, detail })?;
                    }
                    let dur = match self.config.jitter {
                        Some(j) => j.apply(d, dev.pc, duration),
                        None => duration,
                    };
                    let start = dev.clock;
                    let end = start + stall + dur;
                    if self.config.record_trace {
                        if stall > 0.0 {
                            trace.push(TraceEvent {
                                device: d,
                                peer: usize::MAX,
                                kind: TraceKind::AllocStall,
                                label,
                                start,
                                end: start + stall,
                            });
                        }
                        trace.push(TraceEvent {
                            device: d,
                            peer: usize::MAX,
                            kind: if label.is_backward {
                                TraceKind::Backward
                            } else {
                                TraceKind::Forward
                            },
                            label,
                            start: start + stall,
                            end,
                        });
                    }
                    // Validation rejects a free of a dead id, so every
                    // free returns the size of the id's live allocation.
                    for id in frees.iter() {
                        if let Some(bytes) = devs[d].mem.free(id) {
                            devs[d].alloc.charge_free(bytes);
                        }
                    }
                    let dev = &mut devs[d];
                    dev.busy += stall + dur;
                    dev.clock = end;
                    dev.pc += 1;
                }
                OpView::CommStart {
                    peer,
                    dir,
                    bytes,
                    tag,
                    label,
                } => {
                    let dev = &mut devs[d];
                    dev.clock += self.config.comm_post_overhead;
                    let pair = pair_key(d, peer);
                    let ch = channels.entry(pair).or_default();
                    ch.post(
                        pair,
                        crate::channel::PostedOp {
                            device: d,
                            dir,
                            bytes,
                            tag,
                            posted_at: dev.clock,
                        },
                    );
                    let _ = label;
                    devs[d].pc += 1;
                    Self::launch_if_matched(
                        &self.config,
                        pair,
                        channels.get_mut(&pair).expect("just inserted"),
                        heap,
                        seq,
                        trace,
                        self.config.record_trace,
                    )?;
                }
                OpView::CommWait { tag, .. } => {
                    if let Some(&done_at) = completed.get(&tag) {
                        let dev = &mut devs[d];
                        dev.clock = dev.clock.max(done_at);
                        dev.pc += 1;
                    } else {
                        devs[d].blocked_on = Some(tag);
                        waiting.entry(tag).or_default().push(d);
                        return Ok(());
                    }
                }
            }
        }
    }

    fn launch_if_matched(
        config: &EngineConfig,
        pair: (usize, usize),
        ch: &mut Channel,
        heap: &mut BinaryHeap<Reverse<(TimeKey, Event)>>,
        seq: &mut u64,
        trace: &mut Vec<TraceEvent>,
        record: bool,
    ) -> Result<(), SimError> {
        match ch.try_match(pair) {
            Err(e) => Err(SimError::Channel(e)),
            Ok(None) => Ok(()),
            Ok(Some(MatchedTransfer {
                tag,
                bytes,
                ready_at,
                src,
                dst,
            })) => {
                let same_node = config.hardware.same_node(src, dst);
                let start = ready_at.max(ch.busy_until);
                let end = start + config.hardware.p2p_time(bytes, same_node);
                ch.busy_until = end;
                if record {
                    trace.push(TraceEvent {
                        device: src,
                        peer: dst,
                        kind: TraceKind::Transfer,
                        label: OpLabel::new(tag as u32, src as u32, false),
                        start,
                        end,
                    });
                }
                heap.push(Reverse((
                    TimeKey(end, *seq),
                    Event::TransferDone { pair, tag },
                )));
                *seq += 1;
                Ok(())
            }
        }
    }
}

/// Deterministic standard-normal variate from a hashed key (splitmix64 +
/// Box–Muller).
fn gaussian_hash(seed: u64, a: u64, b: u64) -> f64 {
    let mut x = seed ^ a.wrapping_mul(0x9E3779B97F4A7C15) ^ b.wrapping_mul(0xBF58476D1CE4E5B9);
    let mut next = || {
        x = x.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    let u1 = ((next() >> 11) as f64 / (1u64 << 53) as f64).max(f64::EPSILON);
    let u2 = (next() >> 11) as f64 / (1u64 << 53) as f64;
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{AllocSpec, CommDir, SimOp};

    fn lbl(mb: u32, stage: u32, bwd: bool) -> OpLabel {
        OpLabel::new(mb, stage, bwd)
    }

    fn toy_config(n: usize) -> EngineConfig {
        EngineConfig::unbounded(HardwareModel::toy(), n)
    }

    #[test]
    fn single_device_runs_to_completion() {
        let mut p = DeviceProgram::new();
        p.push(SimOp::compute(100.0, lbl(0, 0, false)));
        p.push(SimOp::compute(50.0, lbl(0, 0, true)));
        let r = Engine::new(toy_config(1), vec![p]).run().unwrap();
        assert_eq!(r.makespan, 150.0);
        assert_eq!(r.busy_time[0], 150.0);
        assert!((r.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_device_handoff_includes_transfer_time() {
        // Device 0 computes then sends; device 1 receives then computes.
        let mut p0 = DeviceProgram::new();
        p0.push(SimOp::compute(100.0, lbl(0, 0, false)));
        p0.push(SimOp::CommStart {
            peer: 1,
            dir: CommDir::Send,
            bytes: 10_000,
            tag: 1,
            label: lbl(0, 0, false),
        });
        let mut p1 = DeviceProgram::new();
        p1.push(SimOp::CommStart {
            peer: 0,
            dir: CommDir::Recv,
            bytes: 10_000,
            tag: 1,
            label: lbl(0, 1, false),
        });
        p1.push(SimOp::CommWait {
            tag: 1,
            label: lbl(0, 1, false),
        });
        p1.push(SimOp::compute(100.0, lbl(0, 1, false)));
        let cfg = toy_config(2);
        let hw = cfg.hardware.clone();
        let r = Engine::new(cfg, vec![p0, p1]).run().unwrap();
        // Send posts at 100 + post overhead; transfer takes p2p_time; then
        // device 1 computes 100.
        let expect = 100.0 + 2.0 + hw.p2p_time(10_000, true) + 100.0;
        assert!(
            (r.makespan - expect).abs() < 1e-6,
            "makespan {} vs expected {expect}",
            r.makespan
        );
    }

    #[test]
    fn mismatched_comm_order_deadlocks_with_channel_error() {
        // The §2.3 scenario in miniature: both devices send first.
        let mk = |peer: usize, tag_send: u64, tag_recv: u64| {
            let mut p = DeviceProgram::new();
            p.push(SimOp::CommStart {
                peer,
                dir: CommDir::Send,
                bytes: 8,
                tag: tag_send,
                label: lbl(0, 0, false),
            });
            p.push(SimOp::CommStart {
                peer,
                dir: CommDir::Recv,
                bytes: 8,
                tag: tag_recv,
                label: lbl(0, 0, false),
            });
            p.push(SimOp::CommWait {
                tag: tag_recv,
                label: lbl(0, 0, false),
            });
            p
        };
        let err = Engine::new(toy_config(2), vec![mk(1, 1, 2), mk(0, 2, 1)])
            .run()
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::Channel(ChannelError::DirectionMismatch { .. })
        ));
    }

    #[test]
    fn missing_peer_post_is_deadlock() {
        // Device 0 waits for a recv the peer never sends.
        let mut p0 = DeviceProgram::new();
        p0.push(SimOp::CommStart {
            peer: 1,
            dir: CommDir::Recv,
            bytes: 8,
            tag: 7,
            label: lbl(3, 0, false),
        });
        p0.push(SimOp::CommWait {
            tag: 7,
            label: lbl(3, 0, false),
        });
        let p1 = DeviceProgram::new();
        let err = Engine::new(toy_config(2), vec![p0, p1]).run().unwrap_err();
        match err {
            SimError::Deadlock { stuck } => {
                assert_eq!(stuck.len(), 1);
                assert_eq!(stuck[0].0, 0);
                assert_eq!(stuck[0].2.micro_batch, 3);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn oom_aborts_with_device_and_detail() {
        let mut p = DeviceProgram::new();
        p.push(SimOp::Compute {
            duration: 10.0,
            allocs: vec![AllocSpec {
                id: 1,
                bytes: 2_000,
            }],
            frees: vec![],
            label: lbl(0, 0, false),
        });
        let mut cfg = toy_config(1);
        cfg.memory_limits = vec![1_000];
        let err = Engine::new(cfg, vec![p]).run().unwrap_err();
        match err {
            SimError::Oom { device, detail } => {
                assert_eq!(device, 0);
                assert_eq!(detail.requested, 2_000);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn memory_freed_by_backward_allows_reuse() {
        // Two sequential fwd/bwd pairs, each 800 B, under a 1000 B limit:
        // succeeds only if the backward frees its forward's activation.
        let mut p = DeviceProgram::new();
        for mb in 0..2u64 {
            p.push(SimOp::Compute {
                duration: 10.0,
                allocs: vec![AllocSpec { id: mb, bytes: 800 }],
                frees: vec![],
                label: lbl(mb as u32, 0, false),
            });
            p.push(SimOp::Compute {
                duration: 20.0,
                allocs: vec![],
                frees: vec![mb],
                label: lbl(mb as u32, 0, true),
            });
        }
        let mut cfg = toy_config(1);
        cfg.memory_limits = vec![1_000];
        let r = Engine::new(cfg, vec![p]).run().unwrap();
        assert_eq!(r.peak_memory[0], 800);
    }

    #[test]
    fn jitter_changes_durations_deterministically() {
        let mut p = DeviceProgram::new();
        for i in 0..8 {
            p.push(SimOp::compute(100.0, lbl(i, 0, false)));
        }
        let mut cfg = toy_config(1);
        cfg.jitter = Some(JitterConfig {
            sigma: 0.5,
            seed: 3,
        });
        let r1 = Engine::new(cfg.clone(), vec![p.clone()]).run().unwrap();
        let r2 = Engine::new(cfg.clone(), vec![p.clone()]).run().unwrap();
        assert_eq!(r1.makespan, r2.makespan, "same seed, same result");
        assert!((r1.makespan - 800.0).abs() > 1.0, "jitter must perturb");
        cfg.jitter = Some(JitterConfig {
            sigma: 0.5,
            seed: 4,
        });
        let r3 = Engine::new(cfg, vec![p]).run().unwrap();
        assert_ne!(r1.makespan, r3.makespan, "different seed, different noise");
    }

    #[test]
    fn trace_records_compute_and_transfer() {
        let mut p0 = DeviceProgram::new();
        p0.push(SimOp::compute(50.0, lbl(0, 0, false)));
        p0.push(SimOp::CommStart {
            peer: 1,
            dir: CommDir::Send,
            bytes: 100,
            tag: 1,
            label: lbl(0, 0, false),
        });
        let mut p1 = DeviceProgram::new();
        p1.push(SimOp::CommStart {
            peer: 0,
            dir: CommDir::Recv,
            bytes: 100,
            tag: 1,
            label: lbl(0, 1, false),
        });
        p1.push(SimOp::CommWait {
            tag: 1,
            label: lbl(0, 1, false),
        });
        p1.push(SimOp::compute(30.0, lbl(0, 1, true)));
        let mut cfg = toy_config(2);
        cfg.record_trace = true;
        let r = Engine::new(cfg, vec![p0, p1]).run().unwrap();
        assert!(r.trace.iter().any(|e| e.kind == TraceKind::Forward));
        assert!(r.trace.iter().any(|e| e.kind == TraceKind::Backward));
        assert!(r.trace.iter().any(|e| e.kind == TraceKind::Transfer));
    }

    #[test]
    fn transfers_on_same_channel_serialize() {
        // Two back-to-back transfers 0->1 must not overlap on the link.
        let mut p0 = DeviceProgram::new();
        let mut p1 = DeviceProgram::new();
        for tag in 1..=2u64 {
            p0.push(SimOp::CommStart {
                peer: 1,
                dir: CommDir::Send,
                bytes: 50_000,
                tag,
                label: lbl(tag as u32, 0, false),
            });
            p1.push(SimOp::CommStart {
                peer: 0,
                dir: CommDir::Recv,
                bytes: 50_000,
                tag,
                label: lbl(tag as u32, 1, false),
            });
        }
        p1.push(SimOp::CommWait {
            tag: 2,
            label: lbl(2, 1, false),
        });
        let cfg = toy_config(2);
        let hw = cfg.hardware.clone();
        let r = Engine::new(cfg, vec![p0, p1]).run().unwrap();
        let one = hw.p2p_time(50_000, true);
        assert!(
            r.makespan >= 2.0 * one,
            "makespan {} must cover two serialized transfers ({})",
            r.makespan,
            2.0 * one
        );
    }

    #[test]
    fn invalid_program_rejected_before_running() {
        let mut p = DeviceProgram::new();
        p.push(SimOp::CommWait {
            tag: 9,
            label: lbl(0, 0, false),
        });
        let err = Engine::new(toy_config(1), vec![p]).run().unwrap_err();
        assert!(matches!(err, SimError::InvalidProgram { device: 0, .. }));
    }

    #[test]
    fn gaussian_hash_distribution_sane() {
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        let n = 10_000;
        for i in 0..n {
            let z = gaussian_hash(42, i, 7);
            sum += z;
            sum2 += z * z;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
    }
}
