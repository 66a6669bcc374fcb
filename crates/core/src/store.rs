//! The distributed instruction store (Fig. 9): the runtime's actual
//! plan-distribution layer.
//!
//! The paper decouples the planner pool from the executors through a Redis
//! instance on one machine's host memory: planner workers **serialize**
//! each compiled execution plan and push it keyed by iteration; executors
//! prefetch plans ahead of execution, deserialize, and delete them on
//! consumption. This module keeps every property that matters while
//! replacing the transport with an in-process map behind one lock:
//!
//! * **keyed blobs** — plans travel as serialized [`StoredPlan`] wire
//!   blobs (opaque byte strings), never as shared pointers, so the store
//!   models a real process boundary: everything an executor needs must
//!   survive encode/decode (pinned bit-exactly by
//!   `tests/serialization.rs` and the differential harness in
//!   `crates/cluster/tests/runtime_equivalence.rs`). The store is
//!   **codec-agnostic**: a blob is `Vec<u8>` in and [`Arc<[u8]>`] out,
//!   and the choice of wire encoding — the default zero-copy Flat
//!   codec, self-describing JSON or the length-prefixed binary codec —
//!   lives entirely in
//!   [`crate::codec::PlanCodec`], which [`StoredPlan::encode`] /
//!   [`StoredPlan::decode`] take explicitly. Pusher and taker must agree
//!   on the codec out of band (the runtime carries it in
//!   `RuntimeConfig`, the cluster layer in its `ClusterConfig`), exactly
//!   as two processes sharing a Redis instance would;
//! * **capacity backpressure** — [`InstructionStore::push_blocking`]
//!   blocks while the store is at capacity, the put-side analogue of the
//!   runtime's bounded plan-ahead window. When the pipelined runtime runs
//!   store-backed, the window's slots *are* store occupancy: a planner
//!   worker holds a claimed ticket from push until the executor's take,
//!   so live blobs never exceed `plan_ahead` and the push side never
//!   stalls — the queue's window accounting carries over;
//! * **fetch-with-timeout** — [`InstructionStore::take_blocking`] is the
//!   executor's in-order wait: it returns the blob as soon as the planner
//!   lands it, or a [`StoreError::Timeout`] if the plan never arrives
//!   (late plan / lost planner), instead of blocking forever;
//! * **tombstones** — consumption replaces the blob with a tombstone, so
//!   a duplicate push of an already-consumed iteration is a detectable
//!   error ([`StoreError::Consumed`]), not a silent resurrection;
//! * **re-issue pushes** — under churn recovery an iteration may be
//!   planned twice (the original straggler and the re-issued attempt
//!   race to push the *byte-identical* blob). The elastic runtime pushes
//!   through [`InstructionStore::push_discarding`]: whichever attempt
//!   lands second hits the live key or the tombstone and is counted as
//!   an explicit discard — never a silent overwrite, never an error that
//!   kills a healthy run. The reconciliation invariant
//!   `takes + discarded == pushes` therefore still closes to zero
//!   orphaned blobs, duplicates included;
//! * **poison** — [`InstructionStore::poison`] fails every current and
//!   future blocking operation with [`StoreError::Poisoned`]; the runtime
//!   poisons the store from a planner worker's unwind path (mirroring the
//!   plan-ahead queue's `TicketGuard`) so a crashed planner fails the
//!   executor instead of deadlocking it;
//! * **counters** — occupancy/bytes, their high-water marks and the
//!   push/take/discard totals ([`StoreStats`]), surfaced through
//!   `RuntimeStats` by the store-backed runtime.
//!
//! All of it — blobs, tombstones, the FIFO queue of blocked pushers, the
//! poison reason and the counters — is one state behind one `Mutex`, and
//! each blocking operation is one `Condvar` wait on a predicate over that
//! state. The store never holds more than `plan_ahead` blobs and sees a
//! few operations per iteration, so one lock costs nothing measurable,
//! and every counter snapshot is consistent by construction.
//!
//! # Where the store lives
//!
//! Where the store lives **on the cluster** is modeled entirely in the
//! cluster layer (`dynapipe_cluster::shard`): a single store host (the
//! paper's Redis deployment) or one store shard per executor host, with
//! iteration `i`'s blob routed to shard `i % num_shards`. Either way
//! every blob still flows through this one in-process store — placement
//! changes *which fabric hops are priced and counted* (a byte is a wire
//! byte only when it crosses hosts; the shard owner's local copy is
//! free), never which bytes executors run.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use crate::planner::{IterationPlan, PlanError};
use dynapipe_sim::DeviceProgram;

/// Why a store operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A blob for this iteration is already stored; a push never
    /// overwrites.
    DuplicateKey(usize),
    /// This iteration's blob was already taken (tombstoned): the plan
    /// would be executed twice, or a late planner re-pushed stale work.
    Consumed(usize),
    /// A blocking take gave up waiting for the blob to arrive.
    Timeout {
        /// The iteration waited for.
        iteration: usize,
        /// How long the caller was willing to wait.
        waited: Duration,
    },
    /// A blocking push gave up waiting for a free capacity slot.
    CapacityTimeout {
        /// The configured capacity.
        capacity: usize,
        /// How long the caller was willing to wait.
        waited: Duration,
    },
    /// The store was poisoned (a planner crashed); all operations fail.
    Poisoned(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::DuplicateKey(it) => {
                write!(f, "iteration {it} already stored (a push never overwrites)")
            }
            StoreError::Consumed(it) => {
                write!(f, "iteration {it} already consumed (tombstoned)")
            }
            StoreError::Timeout { iteration, waited } => {
                write!(
                    f,
                    "plan for iteration {iteration} not stored within {waited:?}"
                )
            }
            StoreError::CapacityTimeout { capacity, waited } => {
                write!(f, "no free slot (capacity {capacity}) within {waited:?}")
            }
            StoreError::Poisoned(reason) => write!(f, "store poisoned: {reason}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// What [`InstructionStore::push_discarding`] did with the blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The blob landed; a take will consume it.
    Stored,
    /// Another attempt's byte-identical blob was already there (live or
    /// consumed): this push was counted and discarded at the door.
    DiscardedDuplicate,
}

/// What a key's slot holds.
enum Slot {
    /// A serialized plan blob (opaque bytes), shared so a take never
    /// copies.
    Blob(Arc<[u8]>),
    /// The blob was consumed; the key must never be filled again.
    Tombstone,
}

/// A snapshot of the store's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Live blobs right now.
    pub occupancy: usize,
    /// Bytes of live blobs right now.
    pub bytes: u64,
    /// High-water mark of live blobs.
    pub peak_occupancy: usize,
    /// High-water mark of live bytes.
    pub peak_bytes: u64,
    /// Pushes that reached the store, stored or discarded as duplicates.
    pub pushes: u64,
    /// Successful takes.
    pub takes: u64,
    /// Duplicate pushes discarded by [`InstructionStore::push_discarding`]
    /// plus blobs dropped unconsumed by
    /// [`InstructionStore::clear_remaining`] (speculative plans discarded
    /// after a failure).
    pub discarded: u64,
}

/// Everything the store knows, guarded by its one lock.
struct State {
    slots: BTreeMap<usize, Slot>,
    /// Tickets of pushers waiting for capacity, in arrival order; only
    /// the head may take a freed slot. Fairness is load-bearing, not
    /// polish: with a racy gate, a pusher that keeps arriving can steal
    /// every freed slot from an earlier blocked pusher forever, and a
    /// consumer waiting on that pusher's key then wedges the whole
    /// pipeline (the concurrency stress test reproduces exactly this
    /// without FIFO ordering).
    queue: VecDeque<u64>,
    next_ticket: u64,
    poisoned: Option<String>,
    stats: StoreStats,
}

impl State {
    fn check_poison(&self) -> Result<(), StoreError> {
        match &self.poisoned {
            Some(reason) => Err(StoreError::Poisoned(reason.clone())),
            None => Ok(()),
        }
    }

    /// Why a push to `iteration` can never land, if it can't.
    fn duplicate(&self, iteration: usize) -> Option<StoreError> {
        match self.slots.get(&iteration)? {
            Slot::Blob(_) => Some(StoreError::DuplicateKey(iteration)),
            Slot::Tombstone => Some(StoreError::Consumed(iteration)),
        }
    }

    fn insert(&mut self, iteration: usize, blob: Arc<[u8]>) {
        let st = &mut self.stats;
        st.occupancy += 1;
        st.bytes += blob.len() as u64;
        st.peak_occupancy = st.peak_occupancy.max(st.occupancy);
        st.peak_bytes = st.peak_bytes.max(st.bytes);
        st.pushes += 1;
        self.slots.insert(iteration, Slot::Blob(blob));
    }

    /// Consume `iteration`'s blob, leaving a tombstone; `Ok(None)` if it
    /// has not arrived.
    fn take(&mut self, iteration: usize) -> Result<Option<Arc<[u8]>>, StoreError> {
        self.check_poison()?;
        let Some(slot) = self.slots.get_mut(&iteration) else {
            return Ok(None);
        };
        match std::mem::replace(slot, Slot::Tombstone) {
            Slot::Tombstone => Err(StoreError::Consumed(iteration)),
            Slot::Blob(blob) => {
                self.stats.occupancy -= 1;
                self.stats.bytes -= blob.len() as u64;
                self.stats.takes += 1;
                Ok(Some(blob))
            }
        }
    }
}

/// Thread-safe plan store holding serialized blobs, capped at a fixed
/// number of live blobs.
pub struct InstructionStore {
    capacity: usize,
    state: Mutex<State>,
    /// Notified on every change a waiter may be waiting for: a blob
    /// landed, a slot freed, the queue head moved, or the store was
    /// poisoned.
    changed: Condvar,
}

impl InstructionStore {
    /// An empty store capped at `capacity` live blobs.
    pub fn with_capacity(capacity: usize) -> Self {
        InstructionStore {
            capacity,
            state: Mutex::new(State {
                slots: BTreeMap::new(),
                queue: VecDeque::new(),
                next_ticket: 0,
                poisoned: None,
                stats: StoreStats::default(),
            }),
            changed: Condvar::new(),
        }
    }

    /// Lock the state. A poisoned std mutex means a holder panicked
    /// mid-operation; rather than pressing on with `into_inner`, the
    /// failure is routed through the store's own poison class, so every
    /// pending and future operation reports [`StoreError::Poisoned`]
    /// instead of panicking deeper in the pipeline.
    fn lock(&self) -> Result<MutexGuard<'_, State>, StoreError> {
        self.state.lock().map_err(|_| self.lock_poisoned())
    }

    /// Wake every waiter so nobody keeps blocking on a dead lock.
    fn lock_poisoned(&self) -> StoreError {
        self.changed.notify_all();
        StoreError::Poisoned("instruction store lock poisoned by a panicked holder".to_string())
    }

    /// Push a serialized plan blob (planner side). Fails fast with
    /// [`StoreError::CapacityTimeout`] if the store is at capacity,
    /// [`StoreError::DuplicateKey`] if the key is live, and
    /// [`StoreError::Consumed`] if the key was already taken.
    pub fn push(&self, iteration: usize, blob: Vec<u8>) -> Result<(), StoreError> {
        self.push_blocking(iteration, blob, Duration::ZERO)
    }

    /// Push with put-side backpressure: block up to `timeout` for a free
    /// capacity slot, then insert like [`InstructionStore::push`]. A
    /// duplicate key fails at once, even while the store is full or the
    /// pusher is queued.
    pub fn push_blocking(
        &self,
        iteration: usize,
        blob: Vec<u8>,
        timeout: Duration,
    ) -> Result<(), StoreError> {
        self.push_inner(iteration, blob, timeout, false).map(|_| ())
    }

    /// Push like [`InstructionStore::push_blocking`], but treat a
    /// duplicate key — live blob *or* tombstone — as an expected,
    /// counted discard instead of an error. This is the push path for
    /// re-issued work: planning is deterministic, so the racing original
    /// and re-issue carry byte-identical blobs and whichever lands
    /// second contributes nothing. The losing push still counts toward
    /// [`StoreStats::pushes`] *and* [`StoreStats::discarded`], so
    /// `takes + discarded == pushes` reconciles to zero orphans.
    pub fn push_discarding(
        &self,
        iteration: usize,
        blob: Vec<u8>,
        timeout: Duration,
    ) -> Result<PushOutcome, StoreError> {
        self.push_inner(iteration, blob, timeout, true)
    }

    /// Queue for a capacity slot behind every earlier blocked pusher,
    /// leaving the queue as soon as the slot is ours, the key is filled
    /// by another push, the store is poisoned, or `timeout` runs out.
    fn push_inner(
        &self,
        iteration: usize,
        blob: Vec<u8>,
        timeout: Duration,
        discard_duplicate: bool,
    ) -> Result<PushOutcome, StoreError> {
        let blob: Arc<[u8]> = blob.into();
        let capacity = self.capacity;
        let mut s = self.lock()?;
        let ticket = s.next_ticket;
        s.next_ticket += 1;
        s.queue.push_back(ticket);
        let (mut s, wait) = self
            .changed
            .wait_timeout_while(s, timeout, |s| {
                s.poisoned.is_none()
                    && !s.slots.contains_key(&iteration)
                    && (s.queue.front() != Some(&ticket) || s.stats.occupancy >= capacity)
            })
            .map_err(|_| self.lock_poisoned())?;
        s.queue.retain(|&t| t != ticket);
        // However the wait ended, the next queued pusher may now be the
        // head, and a taker may be waiting for this key; both wake once
        // the lock drops.
        self.changed.notify_all();
        s.check_poison()?;
        if let Some(duplicate) = s.duplicate(iteration) {
            if !discard_duplicate {
                return Err(duplicate);
            }
            s.stats.pushes += 1;
            s.stats.discarded += 1;
            return Ok(PushOutcome::DiscardedDuplicate);
        }
        if wait.timed_out() {
            return Err(StoreError::CapacityTimeout {
                capacity,
                waited: timeout,
            });
        }
        s.insert(iteration, blob);
        Ok(PushOutcome::Stored)
    }

    /// Take (fetch and delete) a blob, leaving a tombstone — executor
    /// consumption. `Ok(None)` means the plan has not arrived yet;
    /// [`StoreError::Consumed`] means it was already taken.
    pub fn take(&self, iteration: usize) -> Result<Option<Arc<[u8]>>, StoreError> {
        let taken = self.lock()?.take(iteration)?;
        if taken.is_some() {
            // The freed slot may admit a blocked pusher.
            self.changed.notify_all();
        }
        Ok(taken)
    }

    /// Take with a bounded wait: block up to `timeout` for the blob to
    /// arrive — the executor's in-order fetch. Fails with
    /// [`StoreError::Timeout`] if the planner never delivers, and
    /// [`StoreError::Poisoned`] immediately if the store is poisoned
    /// while waiting.
    pub fn take_blocking(
        &self,
        iteration: usize,
        timeout: Duration,
    ) -> Result<Arc<[u8]>, StoreError> {
        let s = self.lock()?;
        let (mut s, _) = self
            .changed
            .wait_timeout_while(s, timeout, |s| {
                s.poisoned.is_none() && !s.slots.contains_key(&iteration)
            })
            .map_err(|_| self.lock_poisoned())?;
        let blob = s.take(iteration)?.ok_or(StoreError::Timeout {
            iteration,
            waited: timeout,
        })?;
        self.changed.notify_all();
        Ok(blob)
    }

    /// Poison the store: every current and future blocking operation
    /// fails with [`StoreError::Poisoned`]. Called from a planner
    /// worker's unwind path so a crashed planner fails the executor
    /// instead of deadlocking its in-order wait.
    pub fn poison(&self, reason: &str) {
        if let Ok(mut s) = self.lock() {
            s.poisoned = Some(reason.to_string());
        }
        self.changed.notify_all();
    }

    /// Drop every remaining live blob (teardown after a failure: the
    /// speculative plans of never-executed iterations must not linger).
    /// Tombstones stay. Returns how many blobs were discarded; they are
    /// counted in [`StoreStats::discarded`].
    pub fn clear_remaining(&self) -> usize {
        let Ok(mut s) = self.lock() else {
            return 0;
        };
        let s = &mut *s;
        let mut freed = 0u64;
        let before = s.slots.len();
        s.slots.retain(|_, slot| match slot {
            Slot::Blob(blob) => {
                freed += blob.len() as u64;
                false
            }
            Slot::Tombstone => true,
        });
        let dropped = before - s.slots.len();
        s.stats.occupancy -= dropped;
        s.stats.bytes -= freed;
        s.stats.discarded += dropped as u64;
        if dropped > 0 {
            self.changed.notify_all();
        }
        dropped
    }

    /// Live blobs currently stored (0 once the lock is poisoned).
    pub fn len(&self) -> usize {
        self.lock().map_or(0, |s| s.stats.occupancy)
    }

    /// Whether the store holds no live blobs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot every counter (all zero once the lock is poisoned).
    pub fn stats(&self) -> StoreStats {
        self.lock().map(|s| s.stats.clone()).unwrap_or_default()
    }
}

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

/// A lowered iteration on the wire: the plan plus every replica's
/// compiled device programs, owned (no `Arc`s — this is what crosses the
/// process boundary).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredLowered {
    /// The iteration plan the programs were lowered from.
    pub plan: IterationPlan,
    /// `programs[replica][device]` simulator programs.
    pub programs: Vec<Vec<DeviceProgram>>,
}

/// What a planner worker stores for an iteration: either the lowered
/// plan, or the planning failure itself — failures travel through the
/// store too, so the executor reports them at exactly the iteration the
/// serial driver would.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StoredOutcome {
    /// Planning succeeded; here is the lowered iteration.
    Plan(StoredLowered),
    /// Planning failed.
    Failed(PlanError),
}

/// The wire blob a planner worker pushes, keyed by iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredPlan {
    /// Training iteration index (also the store key; kept in the blob so
    /// a blob is self-describing).
    pub iteration: usize,
    /// The planning outcome.
    pub outcome: StoredOutcome,
}

impl StoredPlan {
    /// Serialize to wire bytes with the given codec. Encoding is
    /// deterministic and float-exact for every codec (JSON via
    /// shortest-roundtrip formatting, binary via raw bit patterns), so
    /// `decode(codec, encode(codec)).encode(codec) == encode(codec)` bit
    /// for bit — the property the differential harness leans on.
    pub fn encode(&self, codec: crate::codec::PlanCodec) -> Vec<u8> {
        match codec {
            crate::codec::PlanCodec::Flat => crate::codec::encode_flat(self),
            tree => tree.encode(self),
        }
    }

    /// Deserialize from wire bytes produced with the *same* codec (the
    /// codec travels out of band; a mismatched blob fails loudly).
    ///
    /// For [`crate::codec::PlanCodec::Flat`] this is the *generic* decode
    /// — it rebuilds an owned plan for callers that need one. The
    /// runtime's flat hot path skips it and executes the blob in place
    /// via [`crate::codec::FlatPlanRef`].
    pub fn decode(codec: crate::codec::PlanCodec, blob: &[u8]) -> Result<StoredPlan, serde::Error> {
        match codec {
            crate::codec::PlanCodec::Flat => {
                Ok(crate::codec::FlatPlanRef::new(std::sync::Arc::from(blob))?.to_stored()?)
            }
            tree => serde::Deserialize::from_value(&tree.decode_value(blob)?),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    /// Capacity for tests that never exercise backpressure.
    const ROOMY: usize = 1024;

    fn blob(i: usize) -> Vec<u8> {
        format!("{{\"plan\":{i}}}").into_bytes()
    }

    #[test]
    fn push_take_roundtrip() {
        let store = InstructionStore::with_capacity(ROOMY);
        assert!(store.is_empty());
        store.push(3, blob(3)).expect("push 3 into empty store");
        store.push(4, blob(4)).expect("push 4 into empty store");
        assert_eq!(store.len(), 2);
        assert_eq!(
            &*store
                .take(3)
                .expect("take 3 after push")
                .expect("blob 3 present"),
            blob(3).as_slice()
        );
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.take(99),
            Ok(None),
            "an absent key reads as not yet arrived"
        );
        let st = store.stats();
        assert_eq!(st.pushes, 2);
        assert_eq!(st.takes, 1);
        assert_eq!(st.bytes, blob(4).len() as u64);
    }

    #[test]
    fn push_to_live_key_is_an_error() {
        // Pinned: `push` must never silently overwrite (the old store
        // did — a duplicate planner ticket would clobber a plan).
        let store = InstructionStore::with_capacity(ROOMY);
        store.push(7, blob(7)).expect("push 7 into empty store");
        assert_eq!(
            store.push(7, b"other".to_vec()),
            Err(StoreError::DuplicateKey(7))
        );
        assert_eq!(store.len(), 1);
        assert_eq!(
            &*store.take(7).expect("take 7").expect("blob 7 live"),
            blob(7).as_slice(),
            "push must not clobber"
        );
    }

    #[test]
    fn consumed_key_is_tombstoned() {
        // Pinned: taking leaves a tombstone; the key can never be
        // resurrected by a late (stale) push.
        let store = InstructionStore::with_capacity(ROOMY);
        store.push(5, blob(5)).expect("push 5 into empty store");
        assert!(store.take(5).expect("take 5 after push").is_some());
        assert_eq!(store.take(5), Err(StoreError::Consumed(5)));
        assert_eq!(store.push(5, blob(5)), Err(StoreError::Consumed(5)));
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn capacity_backpressure_blocks_push_until_take() {
        let store = Arc::new(InstructionStore::with_capacity(1));
        store.push(0, blob(0)).expect("push 0 fills capacity 1");
        // Non-blocking push reports capacity exhaustion immediately.
        assert!(matches!(
            store.push(1, blob(1)),
            Err(StoreError::CapacityTimeout { capacity: 1, .. })
        ));
        let st = store.clone();
        let pusher =
            std::thread::spawn(move || st.push_blocking(1, blob(1), Duration::from_secs(30)));
        // The blocked pusher proceeds as soon as the slot frees.
        std::thread::sleep(Duration::from_millis(20));
        assert!(store.take(0).expect("take 0 frees the slot").is_some());
        pusher
            .join()
            .expect("pusher thread")
            .expect("blocked push proceeds after take");
        assert_eq!(
            &*store
                .take(1)
                .expect("take 1")
                .expect("blob 1 live after blocked push"),
            blob(1).as_slice()
        );
        assert_eq!(store.stats().peak_occupancy, 1);
    }

    #[test]
    fn duplicate_push_into_full_store_fails_fast() {
        // A push for a live or consumed key can never land, so it must
        // not queue for a capacity slot it would never use: with a
        // 200 ms budget against a full store, waiting first would
        // surface as `CapacityTimeout` instead of the duplicate.
        let wait = Duration::from_millis(200);
        let store = InstructionStore::with_capacity(1);
        store.push(0, blob(0)).expect("push 0 fills capacity 1");
        assert_eq!(
            store.push_blocking(0, blob(0), wait),
            Err(StoreError::DuplicateKey(0))
        );
        assert_eq!(
            store.push_discarding(0, blob(0), wait),
            Ok(PushOutcome::DiscardedDuplicate)
        );
        assert!(store.take(0).expect("take 0").is_some());
        store.push(1, blob(1)).expect("push 1 fills capacity 1");
        assert_eq!(
            store.push_blocking(0, blob(0), wait),
            Err(StoreError::Consumed(0))
        );
        assert_eq!(
            store.push_discarding(0, blob(0), wait),
            Ok(PushOutcome::DiscardedDuplicate)
        );
        let st = store.stats();
        assert_eq!((st.pushes, st.takes, st.discarded), (4, 1, 2));
    }

    #[test]
    fn queued_pusher_leaves_when_its_twin_lands() {
        // Two re-issue twins queue for the one slot of a full store. Once
        // a take frees it, the first twin lands and the store is full
        // again; the second must discard at once instead of waiting for
        // a slot it would never use.
        let store = Arc::new(InstructionStore::with_capacity(1));
        store.push(0, blob(0)).expect("push 0 fills capacity 1");
        let twins: Vec<_> = (0..2)
            .map(|_| {
                let st = store.clone();
                std::thread::spawn(move || st.push_discarding(1, blob(1), Duration::from_secs(2)))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        assert!(store.take(0).expect("take 0 frees the slot").is_some());
        let mut outcomes: Vec<_> = twins
            .into_iter()
            .map(|t| t.join().expect("twin thread").expect("twin push"))
            .collect();
        outcomes.sort_by_key(|o| *o == PushOutcome::DiscardedDuplicate);
        assert_eq!(
            outcomes,
            [PushOutcome::Stored, PushOutcome::DiscardedDuplicate]
        );
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn take_blocking_times_out_on_missing_plan() {
        let store = InstructionStore::with_capacity(ROOMY);
        let err = store
            .take_blocking(42, Duration::from_millis(30))
            .unwrap_err();
        assert!(matches!(err, StoreError::Timeout { iteration: 42, .. }));
    }

    #[test]
    fn take_blocking_sees_concurrent_push() {
        let store = Arc::new(InstructionStore::with_capacity(ROOMY));
        let st = store.clone();
        let taker = std::thread::spawn(move || {
            st.take_blocking(9, Duration::from_secs(30))
                .expect("take sees the concurrent push")
        });
        std::thread::sleep(Duration::from_millis(10));
        store.push(9, blob(9)).expect("push 9 wakes the taker");
        assert_eq!(&*taker.join().expect("taker thread"), blob(9).as_slice());
        assert!(store.is_empty());
    }

    #[test]
    fn poison_fails_blocked_takers_and_future_ops() {
        let store = Arc::new(InstructionStore::with_capacity(ROOMY));
        let st = store.clone();
        let taker = std::thread::spawn(move || st.take_blocking(1, Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(10));
        store.poison("planner worker died");
        match taker.join().expect("taker thread") {
            Err(StoreError::Poisoned(r)) => assert!(r.contains("died")),
            other => panic!("expected poison, got {other:?}"),
        }
        assert!(matches!(
            store.push(2, blob(2)),
            Err(StoreError::Poisoned(_))
        ));
        assert!(matches!(store.take(1), Err(StoreError::Poisoned(_))));
    }

    #[test]
    fn clear_remaining_discards_live_blobs_only() {
        let store = InstructionStore::with_capacity(ROOMY);
        for i in 0..6 {
            store.push(i, blob(i)).expect("seed pushes");
        }
        assert!(store.take(2).expect("take 2 before the clear").is_some());
        assert_eq!(store.clear_remaining(), 5);
        assert!(store.is_empty());
        let st = store.stats();
        assert_eq!(st.discarded, 5);
        assert_eq!(st.bytes, 0);
        assert_eq!(st.occupancy, 0);
        // Tombstones survive the clear: key 2 stays consumed.
        assert_eq!(store.push(2, blob(2)), Err(StoreError::Consumed(2)));
    }

    #[test]
    fn concurrent_producers_and_consumers() {
        let store = Arc::new(InstructionStore::with_capacity(ROOMY));
        std::thread::scope(|s| {
            for w in 0..4usize {
                let st = store.clone();
                s.spawn(move || {
                    for i in (w..100).step_by(4) {
                        st.push(i, blob(i))
                            .expect("concurrent pushes hit distinct keys");
                    }
                });
            }
        });
        assert_eq!(store.len(), 100);
        std::thread::scope(|s| {
            for w in 0..4usize {
                let st = store.clone();
                s.spawn(move || {
                    for i in (w..100).step_by(4) {
                        assert!(st
                            .take(i)
                            .expect("concurrent takes hit live keys")
                            .is_some());
                    }
                });
            }
        });
        assert!(store.is_empty());
        let st = store.stats();
        assert_eq!((st.pushes, st.takes), (100, 100));
    }
}
