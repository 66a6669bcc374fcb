//! Concurrency stress for the instruction store: N pusher threads × M
//! taker threads over interleaved iteration keys, under a capacity far
//! below the key count so put-side backpressure is continuously
//! engaged. Every wait is **bounded** (blocking ops carry explicit
//! timeouts and any `Timeout`/`CapacityTimeout` fails the test) — a
//! deadlock shows up as a loud timeout, never as a hung test run — and
//! when the dust settles every plan must have been taken exactly once
//! with all counters reconciled to zero. The network-delayed variants
//! stagger each pusher's arrival behind a key-derived "wire" delay (slow
//! planner uplinks in the cluster deployment), so push order races
//! arrival order: exactly-once, FIFO capacity fairness and
//! poison-release must all hold regardless.

use dynapipe_core::{InstructionStore, StoreError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Generous bound: real waits are microseconds; reaching this means the
/// store lost a wakeup or deadlocked.
const WAIT: Duration = Duration::from_secs(60);

fn blob_for(key: usize) -> Vec<u8> {
    format!("{{\"iteration\":{key},\"payload\":\"plan-{key}\"}}").into_bytes()
}

/// The smallest key not yet taken (`taken.len()` once every key is).
fn smallest_untaken(taken: &[AtomicUsize]) -> usize {
    taken
        .iter()
        .position(|count| count.load(Ordering::SeqCst) == 0)
        .unwrap_or(taken.len())
}

#[test]
fn pushers_and_takers_interleave_without_loss_or_deadlock() {
    const PUSHERS: usize = 4;
    const TAKERS: usize = 3;
    const KEYS: usize = 120;
    const CAPACITY: usize = 8;

    let store = Arc::new(InstructionStore::with_capacity(CAPACITY));
    // Pre-fill to capacity before any taker runs, so the gate is
    // provably engaged (peak == capacity) without timing games.
    for key in 0..CAPACITY {
        store.push(key, blob_for(key)).unwrap();
    }
    // Threads claim keys from shared counters, so the key→thread
    // interleaving is scheduler-driven and different every run. Pushers
    // keep to a window, as both runtimes' plan-ahead windows do: key `k`
    // is pushed only once `k < low + CAPACITY`, where `low` is the
    // smallest key not yet taken. Every stored key then lies in
    // `[low, low + CAPACITY)`, so while key `low` is unpushed at most
    // `CAPACITY - 1` other keys hold slots and its pusher always finds
    // one: takers always progress and free slots. Without the window a
    // pusher of `low` can be preempted while later keys fill every slot,
    // and the store wedges (takers wait on `low`, its pusher on a slot).
    let push_next = Arc::new(AtomicUsize::new(CAPACITY));
    let take_next = Arc::new(AtomicUsize::new(0));
    let taken: Vec<AtomicUsize> = (0..KEYS).map(|_| AtomicUsize::new(0)).collect();
    let taken = Arc::new(taken);
    std::thread::scope(|s| {
        for _ in 0..PUSHERS {
            let store = store.clone();
            let push_next = push_next.clone();
            let taken = taken.clone();
            s.spawn(move || loop {
                let key = push_next.fetch_add(1, Ordering::SeqCst);
                if key >= KEYS {
                    return;
                }
                let deadline = Instant::now() + WAIT;
                while key >= smallest_untaken(&taken) + CAPACITY {
                    assert!(
                        Instant::now() < deadline,
                        "push {key}: the window never reached it"
                    );
                    std::thread::sleep(Duration::from_micros(50));
                }
                store
                    .push_blocking(key, blob_for(key), WAIT)
                    .unwrap_or_else(|e| panic!("push {key}: {e}"));
            });
        }
        for _ in 0..TAKERS {
            let store = store.clone();
            let take_next = take_next.clone();
            let taken = taken.clone();
            s.spawn(move || loop {
                let key = take_next.fetch_add(1, Ordering::SeqCst);
                if key >= KEYS {
                    return;
                }
                let blob = store
                    .take_blocking(key, WAIT)
                    .unwrap_or_else(|e| panic!("take {key}: {e}"));
                assert_eq!(&*blob, blob_for(key).as_slice(), "blob {key} corrupted");
                taken[key].fetch_add(1, Ordering::SeqCst);
            });
        }
    });

    for (key, count) in taken.iter().enumerate() {
        assert_eq!(
            count.load(Ordering::SeqCst),
            1,
            "plan {key} must be taken exactly once"
        );
    }
    let stats = store.stats();
    assert_eq!(stats.pushes, KEYS as u64);
    assert_eq!(stats.takes, KEYS as u64, "every plan taken exactly once");
    assert_eq!(stats.occupancy, 0, "occupancy must reconcile to zero");
    assert_eq!(stats.bytes, 0, "byte accounting must reconcile to zero");
    assert!(store.is_empty());
    assert!(
        stats.peak_occupancy <= CAPACITY,
        "capacity must never be exceeded: peak {} > {CAPACITY}",
        stats.peak_occupancy
    );
    // The capacity gate genuinely engaged: with 120 keys squeezed
    // through 8 slots, the store must have been driven to its cap.
    assert_eq!(stats.peak_occupancy, CAPACITY);
    // Second takes observe tombstones, not resurrection.
    for key in [0usize, 57, KEYS - 1] {
        assert_eq!(store.take(key), Err(StoreError::Consumed(key)));
    }
}

#[test]
fn capacity_one_pipeline_drains_in_order() {
    // The tightest pipe: one slot, one pusher, one taker consuming in
    // key order — models the plan-ahead runtime at window 1. Any slot
    // accounting error deadlocks, which the bounded waits turn into a
    // failure.
    const KEYS: usize = 200;
    let store = Arc::new(InstructionStore::with_capacity(1));
    std::thread::scope(|s| {
        let st = store.clone();
        s.spawn(move || {
            for key in 0..KEYS {
                st.push_blocking(key, blob_for(key), WAIT)
                    .unwrap_or_else(|e| panic!("push {key}: {e}"));
            }
        });
        let st = store.clone();
        s.spawn(move || {
            for key in 0..KEYS {
                let blob = st
                    .take_blocking(key, WAIT)
                    .unwrap_or_else(|e| panic!("take {key}: {e}"));
                assert_eq!(&*blob, blob_for(key).as_slice());
            }
        });
    });
    let stats = store.stats();
    assert_eq!(stats.peak_occupancy, 1);
    assert_eq!(stats.takes, KEYS as u64);
    assert_eq!(stats.occupancy, 0);
    assert_eq!(stats.bytes, 0);
}

/// Deterministic per-key "network" delay (ms): emulates planner hosts
/// pushing over links of different speeds, so the order blobs *arrive*
/// at the store races the order they were *produced* in.
fn link_delay_ms(key: usize) -> u64 {
    ((key * 37 + 11) % 7) as u64
}

#[test]
fn network_delayed_pushers_preserve_exactly_once_and_fairness() {
    // Multi-host version of the interleaving stress: each pusher sleeps
    // a key-derived delay before pushing (slow uplinks), so a blob
    // claimed earlier routinely lands later than its successors. The
    // store must not care: exactly-once consumption, a continuously
    // engaged FIFO capacity gate that no late-arriving pusher can starve,
    // and counters reconciling to zero.
    const PUSHERS: usize = 4;
    const TAKERS: usize = 3;
    const KEYS: usize = 80;
    const CAPACITY: usize = 4;

    let store = Arc::new(InstructionStore::with_capacity(CAPACITY));
    for key in 0..CAPACITY {
        store.push(key, blob_for(key)).unwrap();
    }
    let push_next = Arc::new(AtomicUsize::new(CAPACITY));
    let take_next = Arc::new(AtomicUsize::new(0));
    let taken: Arc<Vec<AtomicUsize>> = Arc::new((0..KEYS).map(|_| AtomicUsize::new(0)).collect());
    std::thread::scope(|s| {
        for _ in 0..PUSHERS {
            let store = store.clone();
            let push_next = push_next.clone();
            s.spawn(move || loop {
                let key = push_next.fetch_add(1, Ordering::SeqCst);
                if key >= KEYS {
                    return;
                }
                // The "wire": arrival time is decoupled from claim time.
                std::thread::sleep(Duration::from_millis(link_delay_ms(key)));
                store
                    .push_blocking(key, blob_for(key), WAIT)
                    .unwrap_or_else(|e| panic!("push {key}: {e}"));
            });
        }
        for _ in 0..TAKERS {
            let store = store.clone();
            let take_next = take_next.clone();
            let taken = taken.clone();
            s.spawn(move || loop {
                let key = take_next.fetch_add(1, Ordering::SeqCst);
                if key >= KEYS {
                    return;
                }
                let blob = store
                    .take_blocking(key, WAIT)
                    .unwrap_or_else(|e| panic!("take {key}: {e}"));
                assert_eq!(&*blob, blob_for(key).as_slice(), "blob {key} corrupted");
                taken[key].fetch_add(1, Ordering::SeqCst);
            });
        }
    });

    for (key, count) in taken.iter().enumerate() {
        assert_eq!(
            count.load(Ordering::SeqCst),
            1,
            "plan {key} must be taken exactly once despite delayed arrival"
        );
    }
    let stats = store.stats();
    assert_eq!(stats.pushes, KEYS as u64);
    assert_eq!(stats.takes, KEYS as u64);
    assert_eq!(stats.occupancy, 0, "occupancy must reconcile to zero");
    assert_eq!(stats.bytes, 0, "byte accounting must reconcile to zero");
    assert!(
        stats.peak_occupancy <= CAPACITY,
        "capacity must never be exceeded: peak {} > {CAPACITY}",
        stats.peak_occupancy
    );
    // Pre-filled to the cap before any taker ran, so the FIFO gate was
    // provably engaged while arrivals raced.
    assert_eq!(stats.peak_occupancy, CAPACITY);
    for key in [0usize, 41, KEYS - 1] {
        assert_eq!(store.take(key), Err(StoreError::Consumed(key)));
    }
}

#[test]
fn racing_reissue_duplicates_discard_and_reconcile() {
    // Churn recovery races two pushers per key: the "original" straggler
    // and the "re-issued" attempt both push the byte-identical blob
    // through the discarding path, with key-derived wire delays so either
    // side can land first — before the take (live-key collision) or after
    // it (tombstone collision). Exactly one blob per key must be taken,
    // every losing push must be an explicit counted discard, and the
    // reconciliation `takes + discarded == pushes` must close to zero
    // orphans with the store empty.
    use dynapipe_core::PushOutcome;

    const KEYS: usize = 60;
    const CAPACITY: usize = 6;

    let store = Arc::new(InstructionStore::with_capacity(CAPACITY));
    let discards = Arc::new(AtomicUsize::new(0));
    let stored = Arc::new(AtomicUsize::new(0));
    let take_next = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|s| {
        // Two racing pusher lanes over the same keys: "original" and
        // "re-issue". Each lane claims keys from its own counter so the
        // push/take coupling stays roughly ascending per lane (the
        // plan-ahead window's deadlock-freedom argument), while the two
        // lanes race each other per key.
        for lane in 0..2usize {
            let store = store.clone();
            let discards = discards.clone();
            let stored = stored.clone();
            s.spawn(move || {
                for key in 0..KEYS {
                    // Opposite delay phase per lane: which lane lands
                    // first flips from key to key.
                    let delay = if lane == 0 {
                        link_delay_ms(key)
                    } else {
                        link_delay_ms(key + 3)
                    };
                    std::thread::sleep(Duration::from_millis(delay));
                    match store
                        .push_discarding(key, blob_for(key), WAIT)
                        .unwrap_or_else(|e| panic!("push {key} lane {lane}: {e}"))
                    {
                        PushOutcome::Stored => {
                            stored.fetch_add(1, Ordering::SeqCst);
                        }
                        PushOutcome::DiscardedDuplicate => {
                            discards.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
            });
        }
        for _ in 0..2 {
            let store = store.clone();
            let take_next = take_next.clone();
            s.spawn(move || loop {
                let key = take_next.fetch_add(1, Ordering::SeqCst);
                if key >= KEYS {
                    return;
                }
                let blob = store
                    .take_blocking(key, WAIT)
                    .unwrap_or_else(|e| panic!("take {key}: {e}"));
                assert_eq!(&*blob, blob_for(key).as_slice(), "blob {key} corrupted");
            });
        }
    });

    // Every key stored exactly once and discarded exactly once,
    // whichever lane won the race.
    assert_eq!(stored.load(Ordering::SeqCst), KEYS);
    assert_eq!(discards.load(Ordering::SeqCst), KEYS);
    let stats = store.stats();
    assert_eq!(stats.pushes, 2 * KEYS as u64, "both lanes' pushes counted");
    assert_eq!(stats.takes, KEYS as u64, "exactly-once consumption");
    assert_eq!(
        stats.discarded, KEYS as u64,
        "every duplicate an explicit discard"
    );
    assert_eq!(
        stats.takes + stats.discarded,
        stats.pushes,
        "re-issue reconciliation must close to zero orphans"
    );
    assert_eq!(stats.occupancy, 0, "store empty after the dust settles");
    assert_eq!(stats.bytes, 0);
    assert!(store.is_empty());
    assert!(
        stats.peak_occupancy <= CAPACITY,
        "duplicate pushes must not breach the capacity gate: peak {} > {CAPACITY}",
        stats.peak_occupancy
    );
}

#[test]
fn poison_releases_network_delayed_pushers() {
    // A planner crash must release *everything*: pushers already blocked
    // in the capacity gate, pushers still "on the wire" (sleeping before
    // their push), and takers waiting on keys that will never arrive —
    // no matter how push order races arrival order.
    let store = Arc::new(InstructionStore::with_capacity(1));
    store.push(0, blob_for(0)).unwrap();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for key in 1..6usize {
            let st = store.clone();
            handles.push(s.spawn(move || {
                // Staggered arrivals: some pushers hit the full store
                // before the poison, some after.
                std::thread::sleep(Duration::from_millis(10 * key as u64));
                st.push_blocking(key, blob_for(key), WAIT).map(|_| ())
            }));
        }
        for key in 100..103usize {
            let st = store.clone();
            handles.push(s.spawn(move || st.take_blocking(key, WAIT).map(|_| ())));
        }
        std::thread::sleep(Duration::from_millis(25));
        store.poison("planner host lost");
        for h in handles {
            match h.join().unwrap() {
                Err(StoreError::Poisoned(reason)) => assert!(reason.contains("lost")),
                other => panic!("expected Poisoned, got {other:?}"),
            }
        }
    });
}

#[test]
fn poison_releases_every_blocked_thread() {
    // A crashed planner must fail the whole pipeline, not strand it:
    // takers blocked on never-arriving keys and pushers blocked on a
    // full store all get `Poisoned` promptly.
    let store = Arc::new(InstructionStore::with_capacity(1));
    store.push(0, blob_for(0)).unwrap();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for key in 10..13 {
            let st = store.clone();
            handles.push(s.spawn(move || st.take_blocking(key, WAIT).map(|_| ())));
        }
        let st = store.clone();
        handles.push(s.spawn(move || st.push_blocking(1, blob_for(1), WAIT).map(|_| ())));
        std::thread::sleep(Duration::from_millis(20));
        store.poison("planner worker crashed");
        for h in handles {
            match h.join().unwrap() {
                Err(StoreError::Poisoned(reason)) => assert!(reason.contains("crashed")),
                other => panic!("expected Poisoned, got {other:?}"),
            }
        }
    });
}
