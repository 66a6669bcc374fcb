//! Device memory accounting and the caching-allocator model.
//!
//! [`MemoryTracker`] enforces the per-device activation budget: the planner
//! reserves static model state up front and every live activation buffer
//! counts against the remainder. Exceeding it is the OOM the memory-aware
//! schedule (§5) must prevent.
//!
//! [`CachingAllocator`] models PyTorch's caching CUDA allocator under the
//! dynamic tensor shapes of §7: exact-size cache hits are free, misses pay a
//! `cudaMalloc`, and misses under memory pressure trigger a blocking
//! defragmentation (`cudaFree` storm). DynaPipe's mitigation — one unified,
//! pre-allocated pool — is [`AllocatorMode::PreAllocatedPool`], which makes
//! every allocation free. The difference is an ablation benchmark.

use crate::op::AllocId;
use dynapipe_model::{Bytes, Micros};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Error raised when an allocation exceeds the device limit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OomError {
    /// Requested buffer size.
    pub requested: Bytes,
    /// Bytes in use at the time of the request.
    pub in_use: Bytes,
    /// Device limit.
    pub limit: Bytes,
}

impl std::fmt::Display for OomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of memory: requested {} B with {} B in use (limit {} B)",
            self.requested, self.in_use, self.limit
        )
    }
}

/// Tracks live activation buffers against a device budget.
#[derive(Debug, Clone)]
pub struct MemoryTracker {
    limit: Bytes,
    in_use: Bytes,
    peak: Bytes,
    live: HashMap<AllocId, Bytes>,
}

impl MemoryTracker {
    /// Tracker with the given activation budget.
    pub fn new(limit: Bytes) -> Self {
        MemoryTracker {
            limit,
            in_use: 0,
            peak: 0,
            live: HashMap::new(),
        }
    }

    /// Acquire a buffer; errors on OOM (the buffer is not acquired).
    pub fn alloc(&mut self, id: AllocId, bytes: Bytes) -> Result<(), OomError> {
        if self.in_use + bytes > self.limit {
            return Err(OomError {
                requested: bytes,
                in_use: self.in_use,
                limit: self.limit,
            });
        }
        self.in_use += bytes;
        self.peak = self.peak.max(self.in_use);
        self.live.insert(id, bytes);
        Ok(())
    }

    /// Release a buffer by id and return its size. Unknown ids are
    /// ignored and return `None` (double free of an OOM-failed alloc is
    /// not fatal in the simulator).
    pub fn free(&mut self, id: AllocId) -> Option<Bytes> {
        let b = self.live.remove(&id)?;
        self.in_use -= b;
        Some(b)
    }

    /// Bytes currently allocated.
    pub fn in_use(&self) -> Bytes {
        self.in_use
    }

    /// High-water mark.
    pub fn peak(&self) -> Bytes {
        self.peak
    }

    /// The budget.
    pub fn limit(&self) -> Bytes {
        self.limit
    }
}

/// How the simulated allocator behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocatorMode {
    /// PyTorch-like caching allocator: freed blocks are cached by size;
    /// a miss pays `cudaMalloc`, a miss under pressure defragments.
    Caching,
    /// DynaPipe's §7 optimization: a single unified pool pre-allocated
    /// before training; every runtime allocation is free.
    PreAllocatedPool,
}

/// Counters describing allocator behaviour during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct AllocatorStats {
    /// Allocations served from the size cache (or pool).
    pub hits: u64,
    /// Allocations that paid a `cudaMalloc`.
    pub misses: u64,
    /// Misses that additionally triggered blocking defragmentation.
    pub defrags: u64,
    /// Total stall time charged to compute ops (µs).
    pub stall_us: Micros,
}

/// Simulated caching allocator; returns the stall each allocation costs.
#[derive(Debug, Clone)]
pub struct CachingAllocator {
    mode: AllocatorMode,
    /// Cached free blocks by exact size → count.
    cache: HashMap<Bytes, usize>,
    /// cudaMalloc cost on a cache miss.
    malloc_cost: Micros,
    /// Extra cost when a miss occurs under memory pressure (defrag storm).
    defrag_cost: Micros,
    /// Fraction of the limit above which misses defragment.
    pressure_threshold: f64,
    stats: AllocatorStats,
}

impl CachingAllocator {
    /// Allocator with the paper-motivated default costs: a `cudaMalloc`
    /// costs ~200 µs and a blocking defragmentation ~2 ms.
    pub fn new(mode: AllocatorMode) -> Self {
        CachingAllocator {
            mode,
            cache: HashMap::new(),
            malloc_cost: 200.0,
            defrag_cost: 2000.0,
            pressure_threshold: 0.85,
            stats: AllocatorStats::default(),
        }
    }

    /// Charge an allocation of `bytes` while `in_use`/`limit` describe the
    /// device's occupancy; returns the stall to add to the compute op.
    pub fn charge_alloc(&mut self, bytes: Bytes, in_use: Bytes, limit: Bytes) -> Micros {
        match self.mode {
            AllocatorMode::PreAllocatedPool => {
                self.stats.hits += 1;
                0.0
            }
            AllocatorMode::Caching => {
                if let Some(n) = self.cache.get_mut(&bytes) {
                    *n -= 1;
                    if *n == 0 {
                        self.cache.remove(&bytes);
                    }
                    self.stats.hits += 1;
                    0.0
                } else {
                    self.stats.misses += 1;
                    let pressured =
                        limit > 0 && (in_use as f64 / limit as f64) > self.pressure_threshold;
                    let stall = if pressured {
                        self.stats.defrags += 1;
                        // Defragmentation flushes the cache (cudaFree storm).
                        self.cache.clear();
                        self.malloc_cost + self.defrag_cost
                    } else {
                        self.malloc_cost
                    };
                    self.stats.stall_us += stall;
                    stall
                }
            }
        }
    }

    /// Return a freed buffer of `bytes` to the cache.
    pub fn charge_free(&mut self, bytes: Bytes) {
        if self.mode == AllocatorMode::Caching {
            *self.cache.entry(bytes).or_insert(0) += 1;
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> AllocatorStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_allocates_and_frees() {
        let mut t = MemoryTracker::new(100);
        t.alloc(1, 40).unwrap();
        t.alloc(2, 50).unwrap();
        assert_eq!(t.in_use(), 90);
        assert_eq!(t.peak(), 90);
        assert_eq!(t.free(1), Some(40), "free returns the size it removes");
        assert_eq!(t.in_use(), 50);
        assert_eq!(t.peak(), 90, "peak is a high-water mark");
        t.alloc(3, 50).unwrap();
        assert_eq!(t.peak(), 100);
    }

    #[test]
    fn tracker_rejects_oom_without_side_effects() {
        let mut t = MemoryTracker::new(100);
        t.alloc(1, 80).unwrap();
        let err = t.alloc(2, 30).unwrap_err();
        assert_eq!(err.requested, 30);
        assert_eq!(err.in_use, 80);
        assert_eq!(t.in_use(), 80, "failed alloc must not leak");
        assert_eq!(t.live.len(), 1);
    }

    #[test]
    fn tracker_ignores_unknown_free() {
        let mut t = MemoryTracker::new(10);
        assert_eq!(t.free(99), None);
        assert_eq!(t.in_use(), 0);
    }

    #[test]
    fn pool_mode_never_stalls() {
        let mut a = CachingAllocator::new(AllocatorMode::PreAllocatedPool);
        for i in 0..100 {
            assert_eq!(a.charge_alloc(1000 + i, 0, 1_000_000), 0.0);
        }
        assert_eq!(a.stats().misses, 0);
        assert_eq!(a.stats().stall_us, 0.0);
    }

    #[test]
    fn caching_mode_hits_on_same_size_misses_on_new() {
        let mut a = CachingAllocator::new(AllocatorMode::Caching);
        // First allocation of a size: miss.
        assert!(a.charge_alloc(4096, 0, 1 << 30) > 0.0);
        a.charge_free(4096);
        // Same size again: cache hit.
        assert_eq!(a.charge_alloc(4096, 0, 1 << 30), 0.0);
        // New (dynamic) size: miss again — the §7 problem.
        assert!(a.charge_alloc(4097, 0, 1 << 30) > 0.0);
        assert_eq!(a.stats().hits, 1);
        assert_eq!(a.stats().misses, 2);
    }

    #[test]
    fn pressure_triggers_defrag_and_flushes_cache() {
        let mut a = CachingAllocator::new(AllocatorMode::Caching);
        a.charge_alloc(100, 0, 1000);
        a.charge_free(100);
        // Miss at 90% occupancy: defrag, which also flushes the cached 100.
        let stall = a.charge_alloc(200, 900, 1000);
        assert!(stall > 1000.0);
        assert_eq!(a.stats().defrags, 1);
        // The previously cached size now misses again.
        assert!(a.charge_alloc(100, 0, 1000) > 0.0);
    }
}
