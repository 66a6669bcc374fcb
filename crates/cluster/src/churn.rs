//! Deterministic fault injection for the cluster runtime.
//!
//! Production clusters churn: planner hosts crash, new hosts join,
//! executor hosts drop out, and otherwise-healthy machines straggle.
//! The elastic runtime's contract is that churn may cost wall-clock
//! time but can **never change behavior** — the [`RunReport`] of a
//! churned run is bit-identical to the undisturbed one
//! (`RunReport::behavior_eq`, pinned by `tests/churn_equivalence.rs`).
//!
//! To make that testable the fault model is a **script**, not a random
//! process: a [`ChurnScript`] is a list of [`ChurnEvent`]s keyed by
//! iteration index, applied by the executor-side prefetcher at the
//! moment it turns to that iteration (a single deterministic
//! application point — the prefetcher is the only thread that observes
//! iteration boundaries in order). Replaying the same script against
//! the same workload reproduces the same recovery sequence, so every
//! scenario in the test matrix is exact, not flaky.
//!
//! [`RunReport`]: dynapipe_core::RunReport

use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// One scripted fault, applied when the executor turns to the keyed
/// iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnEvent {
    /// Planner host `host` dies: its workers stop claiming, and every
    /// ticket they hold is re-issued to the survivors under a fresh
    /// generation. Crashing the last live planner host is ignored
    /// (counted in [`crate::ChurnStats::events_ignored`]) — a cluster with no
    /// planner is a different failure class (fail-stop poison), not
    /// churn.
    PlannerCrash {
        /// Planner host index (initial hosts first, joined hosts after).
        host: usize,
    },
    /// A new planner host with `workers` workers joins the pool and
    /// starts claiming tickets from the shared window — the window
    /// itself is demand-driven, so rebalancing is automatic.
    PlannerJoin {
        /// Planner workers on the joining host (clamped to ≥ 1).
        workers: usize,
    },
    /// Executor host `host` drops out: its data-parallel replicas are
    /// re-placed round-robin onto the surviving executor hosts, which
    /// re-fetch subsequent plans from the store over their own
    /// downlinks. Under the sharded store placement the dead host's
    /// shards re-own onto survivors too (surviving assignments stay
    /// put) and in-flight blobs are restored from a surviving peer.
    /// Losing the last surviving executor is always ignored, and under
    /// `StorePlacement::Single` so is losing host 0 (the store's
    /// colocation host) — those kill the store / the run, which is
    /// fail-stop territory, not churn.
    ExecutorLoss {
        /// Executor host index.
        host: usize,
    },
    /// A planner straggles on ticket `it + plan_ahead` for the keyed
    /// iteration `it`: whichever worker claims that ticket's first
    /// attempt (generation 0) waits a fixed `delay_ms` before planning
    /// starts (one-shot). The window cannot have handed that ticket out
    /// when the event applies, so the straggle always lands; a target at
    /// or past the iteration cap is ignored. With a re-issue deadline
    /// configured the executor detects the stall and re-issues the
    /// ticket to a healthy worker; first-completion-wins keeps the
    /// outcome identical either way.
    Straggle {
        /// Fixed injected delay in milliseconds (deterministic, not
        /// sampled).
        delay_ms: u64,
    },
}

/// A deterministic churn scenario: events keyed by iteration index,
/// applied in push order within an iteration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnScript {
    events: Vec<(usize, ChurnEvent)>,
}

impl ChurnScript {
    /// The empty script (no churn) — the default for every config.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: schedule `event` at `iteration`.
    pub fn at(mut self, iteration: usize, event: ChurnEvent) -> Self {
        self.events.push((iteration, event));
        self
    }

    /// Whether the script injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events due exactly at `iteration`, in push order.
    pub fn events_at(&self, iteration: usize) -> impl Iterator<Item = &ChurnEvent> {
        self.events
            .iter()
            .filter(move |(it, _)| *it == iteration)
            .map(|(_, ev)| ev)
    }

    /// Worker counts of the hosts this script joins, in event order —
    /// the runtime pre-spawns their threads behind the membership gate
    /// so a join activates instantly and deterministically.
    pub fn joining_hosts(&self) -> Vec<usize> {
        self.events
            .iter()
            .filter_map(|(_, ev)| match ev {
                ChurnEvent::PlannerJoin { workers } => Some((*workers).max(1)),
                _ => None,
            })
            .collect()
    }
}

/// One planner host's lifecycle under churn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HostState {
    /// Pre-spawned for a scripted join, not yet active: its workers
    /// block on the membership gate.
    Pending,
    /// Claiming and planning.
    Active,
    /// Crashed (or the run tore down before a pending host joined).
    Dead,
}

struct MembershipState {
    hosts: Vec<HostState>,
    /// One-shot straggle delays by ticket, armed by the script and taken
    /// by the worker claiming that ticket's first attempt.
    straggles: BTreeMap<usize, Duration>,
    shutdown: bool,
}

/// Live planner-host membership, shared between the scripted event
/// application (prefetcher side) and the worker threads.
///
/// Workers of a scripted-join host are spawned up front and parked in
/// [`Membership::wait_active`]; a crash flips the host to dead, which
/// its workers observe at their next claim boundary and respond to by
/// handing their ticket back ([`PlanAheadQueue::abandon`]) — the
/// in-flight tickets a dead host's workers can no longer hand back are
/// re-issued wholesale by the event application via
/// [`PlanAheadQueue::reissue_claimed_by`].
///
/// [`PlanAheadQueue::abandon`]: dynapipe_core::PlanAheadQueue::abandon
/// [`PlanAheadQueue::reissue_claimed_by`]: dynapipe_core::PlanAheadQueue::reissue_claimed_by
pub struct Membership {
    state: Mutex<MembershipState>,
    cv: Condvar,
}

impl Membership {
    /// `initial` hosts start active; `pending` more (scripted joins)
    /// start parked.
    pub fn new(initial: usize, pending: usize) -> Self {
        let mut hosts = vec![HostState::Active; initial];
        hosts.extend(std::iter::repeat(HostState::Pending).take(pending));
        Membership {
            state: Mutex::new(MembershipState {
                straggles: BTreeMap::new(),
                hosts,
                shutdown: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MembershipState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Block until `host` becomes active. Returns `false` if the run
    /// shut down (or the host crashed) before that happened — the
    /// caller exits without ever touching the queue.
    pub fn wait_active(&self, host: usize) -> bool {
        let mut st = self.lock();
        loop {
            match st.hosts[host] {
                HostState::Active => return true,
                HostState::Dead => return false,
                HostState::Pending if st.shutdown => return false,
                HostState::Pending => {
                    st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }

    /// Activate the lowest-indexed pending host (scripted joins are
    /// pre-spawned in script order, so activation order matches the
    /// script). Returns the activated host, or `None` if no host is
    /// pending.
    pub fn activate_next(&self) -> Option<usize> {
        let mut st = self.lock();
        let h = st.hosts.iter().position(|s| *s == HostState::Pending)?;
        st.hosts[h] = HostState::Active;
        self.cv.notify_all();
        Some(h)
    }

    /// Kill `host`. Returns `false` (ignored) unless the host was
    /// active and at least one other active host survives it.
    pub fn crash(&self, host: usize) -> bool {
        let mut st = self.lock();
        if host >= st.hosts.len() || st.hosts[host] != HostState::Active {
            return false;
        }
        let survivors = st
            .hosts
            .iter()
            .enumerate()
            .filter(|&(h, s)| h != host && *s == HostState::Active)
            .count();
        if survivors == 0 {
            return false; // no planner left would be fail-stop, not churn
        }
        st.hosts[host] = HostState::Dead;
        self.cv.notify_all();
        true
    }

    /// Whether `host` is currently active.
    pub fn is_alive(&self, host: usize) -> bool {
        self.lock().hosts[host] == HostState::Active
    }

    /// Arm a one-shot straggle delay on ticket `index`.
    pub fn straggle(&self, index: usize, delay: Duration) {
        self.lock().straggles.insert(index, delay);
    }

    /// Take the straggle delay armed on ticket `index`, if this claim is
    /// its first attempt (`generation` 0; a re-issued attempt never
    /// straggles). One-shot.
    pub fn take_straggle(&self, index: usize, generation: u64) -> Option<Duration> {
        if generation != 0 {
            return None;
        }
        self.lock().straggles.remove(&index)
    }

    /// Release every parked worker (end of run): pending hosts never
    /// activate, their workers exit cleanly.
    pub fn shutdown(&self) {
        let mut st = self.lock();
        st.shutdown = true;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_builder_keys_events_by_iteration() {
        let s = ChurnScript::new()
            .at(1, ChurnEvent::PlannerCrash { host: 0 })
            .at(1, ChurnEvent::PlannerJoin { workers: 2 })
            .at(3, ChurnEvent::Straggle { delay_ms: 5 });
        assert!(!s.is_empty());
        assert_eq!(s.events_at(0).count(), 0);
        assert_eq!(s.events_at(1).count(), 2);
        assert_eq!(s.events_at(3).count(), 1);
        assert_eq!(s.joining_hosts(), vec![2]);
        assert_eq!(ChurnScript::new().joining_hosts(), Vec::<usize>::new());
    }

    #[test]
    fn membership_lifecycle_and_guards() {
        let m = Membership::new(2, 1);
        assert!(m.is_alive(0) && m.is_alive(1) && !m.is_alive(2));
        // Joins activate pending hosts in order, then run dry.
        assert_eq!(m.activate_next(), Some(2));
        assert_eq!(m.activate_next(), None);
        assert!(m.is_alive(2));
        // Crashes require a surviving active host.
        assert!(m.crash(0));
        assert!(!m.crash(0), "already dead");
        assert!(m.crash(1));
        assert!(!m.crash(2), "last survivor must be protected");
        assert!(m.is_alive(2));
        // Straggles hit only their ticket's first attempt, once.
        m.straggle(4, Duration::from_millis(5));
        assert_eq!(m.take_straggle(3, 0), None);
        assert_eq!(m.take_straggle(4, 1), None, "re-issued attempt");
        assert_eq!(m.take_straggle(4, 0), Some(Duration::from_millis(5)));
        assert_eq!(m.take_straggle(4, 0), None);
    }

    #[test]
    fn wait_active_parks_until_join_and_releases_on_shutdown() {
        use std::sync::Arc;
        let m = Arc::new(Membership::new(1, 2));
        let joined = {
            let m = m.clone();
            std::thread::spawn(move || m.wait_active(1))
        };
        let stranded = {
            let m = m.clone();
            std::thread::spawn(move || m.wait_active(2))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(m.activate_next(), Some(1));
        assert!(
            joined.join().expect("joined waiter thread"),
            "activated host must wake true"
        );
        m.shutdown();
        assert!(
            !stranded.join().expect("stranded waiter thread"),
            "shutdown must wake false"
        );
    }
}
