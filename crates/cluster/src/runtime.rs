//! The cluster runtime: the plan-ahead pipeline of
//! [`dynapipe_core::runtime`] deployed across an explicit multi-host
//! topology, with every plan blob paying its way over modeled links.
//!
//! # Architecture
//!
//! * **Planner hosts** — `planner_hosts × workers_per_host` worker
//!   threads claim iteration tickets from the shared bounded
//!   [`PlanAheadQueue`] (ticket order == stream order), plan, lower to
//!   *owned* programs, encode with the configured
//!   [`dynapipe_core::PlanCodec`] and push the blob into the
//!   [`InstructionStore`] — the same worker steps as the core runtime's
//!   store-backed mode, annotated with which host produced the plan.
//! * **The store** lives where [`crate::StorePlacement`] says: on
//!   executor host 0 (the paper's Redis placement), or sharded one
//!   shard per executor host with iteration `i` owned by shard
//!   `i % executor_hosts` ([`crate::shard`]). A planner worker's push
//!   crosses its **uplink connection** to the owning shard's host (one
//!   connection per worker × destination, so the FIFO replay matches
//!   the worker's real push order); an executor host's fetch crosses
//!   the **shard-host → executor** link; a host colocated with the
//!   owning shard reads host memory for free. Every hop is priced by
//!   the [`dynapipe_sim::Fabric`] host-pair matrix (same host free,
//!   same rack intra-node, cross-rack oversubscribed inter-node) and
//!   replayed over α-β links with FIFO occupancy
//!   ([`dynapipe_sim::Link`]), so bursts of blobs queue instead of
//!   teleporting.
//! * **Executor hosts** — each data-parallel replica runs on host
//!   `r % executor_hosts`. The executors call
//!   [`execute_or_fail`](dynapipe_core::runtime::execute_or_fail), whose
//!   [`execute_summarized`](dynapipe_core::runtime::execute_summarized)
//!   is the serial driver's replica fold (worst makespan, per-stage max
//!   peaks, stalls summed in replica order), so the [`RunReport`] is
//!   bit-identical by construction; the per-replica makespans are
//!   additionally grouped per host to build each host's timeline.
//!
//! # Code layout
//!
//! The plan-distribution protocol has one implementation, in
//! [`dynapipe_core::runtime`], shared with the core runtime's
//! store-backed mode: the worker's ticket lifecycle, the prefetch step
//! (take, free the window slot, decode), the executor's receive,
//! execute-or-record-failure and the teardown sweep. What only the
//! cluster has lives in three parts here, and
//! [`run_training_cluster_traced`] is setup, spawn, the executor loop and
//! the totals:
//!
//! * `ClusterRun::planner_worker` — one worker's membership checks
//!   (crash, straggle, join) around the shared ticket lifecycle;
//! * `Prefetcher` — the executor-side prefetcher, which is also the churn
//!   event loop and owns the churn state (executor liveness, replica
//!   placement, shard map, pending restores);
//! * `ExecutorTimeline` — the timeline below as a plain struct, folding
//!   one executed iteration at a time into the [`ClusterReport`].
//!
//! # Timeline semantics
//!
//! Host-side costs (planning, lowering, encode, decode) are **real**
//! measured durations; wire costs are **simulated** from blob bytes and
//! the configured link — the same hybrid as the core runtime's overlap
//! accounting, extended with the wire hop. For iteration `i`:
//!
//! ```text
//! at_store    = uplink[w→s].transmit(pushed_at, bytes)      (w = planner worker,
//!                                                            s = owning shard's host)
//! at_shard    = restore[peer→s].transmit(at_store, bytes)   (only after the shard's
//!                                                            owner died mid-flight)
//! avail_h     = link[s→h].transmit(at_shard, bytes) + decode_us
//! exposed_h   = max(0, avail_h − sync_end(i−1))
//! start_h     = max(sync_end(i−1), avail_h)
//! sync_end(i) = max_h(start_h + span_h) + dp_sync
//! ```
//!
//! where `span_h` is host `h`'s worst replica makespan. With every plan
//! available in time, `sync_end(i) − sync_end(i−1)` degenerates to
//! exactly the serial iteration time, so the cluster wall can only
//! exceed the ideal by genuinely exposed distribution latency — which is
//! what [`ClusterReport`] itemizes per host.

use crate::churn::{ChurnEvent, Membership};
use crate::report::{ChurnStats, ClusterReport, ExecutorHostStats, PlannerHostStats, ShardStats};
use crate::shard::{ShardMap, StorePlacement};
use crate::topology::ClusterConfig;
use dynapipe_core::driver::{record_iteration, IterationPlanner, RunConfig, RunReport};
use dynapipe_core::runtime::{
    execute_or_fail, plan_lower_push_traced, prefetch_blob, receive_prefetched,
    record_sim_iteration, run_planner_worker, serve_ticket, sweep_store, DuplicatePush, Executable,
    IterationExecution, PlanAheadQueue, Prefetched, StorePush, TicketTraceCtx, WaitOutcome,
};
use dynapipe_core::store::InstructionStore;
use dynapipe_data::{BatchStream, Dataset, GlobalBatchConfig};
use dynapipe_sim::Link;
use dynapipe_trace::{Span, SpanKind, TraceSink};
use std::collections::BTreeMap;
use std::sync::mpsc::SyncSender;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What a planner worker reports through the queue once its blob is in
/// the store: the distribution accounting, annotated with the producing
/// worker — the payload itself travels only through the store.
struct ClusterPlanned {
    /// Global worker index (maps to that worker's uplink connection).
    worker: usize,
    /// Planner host the worker runs on.
    host: usize,
    push: StorePush,
    /// Real µs since run start when the push completed.
    pushed_at_us: f64,
}

/// How one iteration's blob reached the executor hosts: the
/// [`ExecutorTimeline`]'s input, assembled by the prefetcher.
struct Fetched {
    meta: ClusterPlanned,
    /// Real µs one host spends decoding its copy of the blob.
    decode_us: f64,
    /// Replica → executor-host placement in force for this iteration.
    /// Snapshotted by the prefetcher (the thread that applies churn
    /// events, possibly several iterations ahead of the executor), so
    /// the executor's accounting follows the placement the iteration
    /// was *fetched* under, deterministically.
    placement: Vec<usize>,
    /// Executor host owning this iteration's store shard, snapshotted by
    /// the prefetcher under the same discipline as `placement`.
    shard_host: usize,
    /// `Some(peer)` when the shard's previous owner died with this blob
    /// in flight: the surviving `peer` streams its replica to the new
    /// owner before any fetch can start.
    recover_from: Option<usize>,
}

/// Resolve data-parallel replica `r`'s executor host from a placement
/// snapshot.
///
/// The snapshot is built once per iteration by the prefetcher and must
/// cover every replica; a short snapshot is a **hard error**. (An
/// earlier revision silently fell back to the static
/// `r % executor_hosts` assignment, which can point at a host a churn
/// script already killed — the replica's time would be accounted to a
/// dead host's timeline without any test noticing.)
fn placed_host(placement: &[usize], replica: usize) -> Result<usize, String> {
    placement.get(replica).copied().ok_or_else(|| {
        format!(
            "placement snapshot covers {} replicas but replica {replica} needs a host; \
             falling back to the static assignment could route to a churn-killed host",
            placement.len()
        )
    })
}

/// Workers per planner host: the configured hosts, then one entry per
/// scripted join.
fn host_workers(cluster: &ClusterConfig) -> Vec<usize> {
    let mut hosts = vec![cluster.workers_per_host; cluster.planner_hosts];
    hosts.extend(cluster.churn.joining_hosts());
    hosts
}

/// A report with every planner host, executor host and shard listed and
/// nothing counted yet.
fn empty_cluster_report(cluster: &ClusterConfig) -> ClusterReport {
    let shards = ShardMap::new(cluster.placement, cluster.executor_hosts);
    ClusterReport {
        topology: cluster.label(),
        codec: cluster.codec.label().to_string(),
        placement: cluster.placement.label().to_string(),
        fabric: cluster.fabric.label(),
        plan_ahead: cluster.plan_ahead,
        shards: shards
            .owners()
            .iter()
            .enumerate()
            .map(|(shard, &owner)| ShardStats {
                shard,
                owner,
                ..Default::default()
            })
            .collect(),
        planner_hosts: host_workers(cluster)
            .into_iter()
            .enumerate()
            .map(|(host, workers)| PlannerHostStats {
                host,
                workers,
                ..Default::default()
            })
            .collect(),
        executor_hosts: (0..cluster.executor_hosts)
            .map(|host| ExecutorHostStats {
                host,
                ..Default::default()
            })
            .collect(),
        ..Default::default()
    }
}

/// What every thread of one cluster run shares.
struct ClusterRun<'a> {
    cluster: ClusterConfig,
    sink: &'a TraceSink,
    /// Iteration cap of the run.
    cap: usize,
    queue: PlanAheadQueue<ClusterPlanned>,
    store: InstructionStore,
    membership: Membership,
    /// Planner host of each global worker.
    worker_host: Vec<usize>,
    /// Churn counters the workers and the prefetcher bump.
    ledger: Mutex<ChurnStats>,
    /// Run start, the clock of `pushed_at_us`.
    t0: Instant,
}

impl<'a> ClusterRun<'a> {
    fn new(cluster: ClusterConfig, cap: usize, sink: &'a TraceSink) -> Self {
        // Planner-host roster: the configured hosts plus one slot per
        // scripted join. Joined hosts' worker threads are spawned up front
        // but parked behind the membership gate, so a join event activates
        // them instantly (and deterministically — no mid-run thread spawn
        // racing the claim loop).
        let hosts = host_workers(&cluster);
        ClusterRun {
            worker_host: hosts
                .iter()
                .enumerate()
                .flat_map(|(h, &n)| std::iter::repeat_n(h, n))
                .collect(),
            membership: Membership::new(cluster.planner_hosts, hosts.len() - cluster.planner_hosts),
            queue: PlanAheadQueue::new(cluster.plan_ahead, cap),
            // Window slots count store occupancy (ticket held from push to
            // take), so the capacity is a hard backstop, not an active gate.
            store: InstructionStore::with_capacity(cluster.plan_ahead),
            ledger: Mutex::default(),
            // lint:allow(wall-clock): run-start clock of each blob's pushed_at_us, which times only the link replay, excluded from behavior_eq
            t0: Instant::now(),
            cluster,
            sink,
            cap,
        }
    }

    /// Record a churn action: the event class in `generation` (0 crash /
    /// 1 join / 2 straggle / 3 executor loss), the affected host in
    /// `lane`.
    fn mark_churn(&self, class: u64, host: usize, it: usize) {
        self.sink.mark(Span {
            kind: SpanKind::ChurnAction,
            iteration: it as i64,
            lane: host as i64,
            generation: class,
            ..Span::default()
        });
    }

    /// Record one queue re-issue (each counts against `tickets_reissued`).
    fn mark_reissue(&self, iteration: i64, lane: i64) {
        self.sink.mark(Span {
            kind: SpanKind::TicketReissue,
            iteration,
            lane,
            ..Span::default()
        });
    }

    /// The planner-worker body of global worker `w`: the shared ticket
    /// lifecycle, wrapped in this worker's host membership checks.
    fn planner_worker<D: std::ops::Deref<Target = Dataset>>(
        &self,
        planner: &dyn IterationPlanner,
        stream: &BatchStream<D>,
        w: usize,
        threads: usize,
    ) {
        let host = self.worker_host[w];
        // Scripted-join hosts park here until their event fires.
        if !self.membership.wait_active(host) {
            return;
        }
        run_planner_worker(&self.queue, stream, w, threads, |ticket| {
            // A crash takes effect at the claim boundary: the dead host's
            // worker hands the ticket straight back for the survivors.
            // An abandon that re-queues bumps the queue's `reissued`
            // counter, so it records a re-issue span like the crash sweep
            // (lane = the dead host). If the sweep re-queued the ticket
            // first, the abandon does nothing and records nothing.
            if !self.membership.is_alive(host) {
                if self.queue.abandon(ticket.index, w) {
                    self.mark_reissue(ticket.index as i64, host as i64);
                }
                return false;
            }
            // A scripted straggle delays this host's next attempt
            // *before* planning starts — the window the executor's
            // re-issue deadline is built to detect.
            if let Some(delay) = self.membership.take_straggle(host) {
                std::thread::sleep(delay);
            }
            let ctx = TicketTraceCtx {
                sink: self.sink,
                worker: w as i64,
                host: self.cluster.planner_global(host) as i64,
                shard: (ticket.index % self.cluster.num_shards()) as i64,
            };
            serve_ticket(&self.queue, Some(&self.store), &ticket, &ctx, || {
                // Under churn an iteration may race two byte-identical
                // blobs (straggler vs re-issue): whichever lands second
                // is discarded at the store door.
                let push = plan_lower_push_traced(
                    planner,
                    &self.store,
                    self.cluster.codec,
                    &ticket,
                    DuplicatePush::Discard,
                    &ctx,
                );
                if push.discarded {
                    self.ledger
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .duplicate_blobs_discarded += 1;
                }
                ClusterPlanned {
                    worker: w,
                    host,
                    push,
                    pushed_at_us: self.t0.elapsed().as_secs_f64() * 1e6,
                }
            });
            self.membership.is_alive(host) // crashed mid-plan: stop claiming
        });
    }
}

/// The executor-side prefetcher: takes each blob in order and decodes it
/// ahead of execution (one decode stands in for the per-host decodes,
/// which would run in parallel on identical bytes), then hands it over a
/// bounded channel.
///
/// It is also the **churn event loop**: the one thread that observes
/// iteration boundaries strictly in order, so scripted events key off
/// its progress — applied before the wait for the keyed iteration's
/// plan — and it owns the churn state. The placement in force is
/// snapshotted per iteration for the executor's accounting (the
/// prefetcher runs ahead, so the executor must not read live placement
/// state).
struct Prefetcher<'r, 'a> {
    run: &'r ClusterRun<'a>,
    executor_alive: Vec<bool>,
    /// Replica → executor host, re-placed on executor loss.
    replica_host: Vec<usize>,
    shard_map: ShardMap,
    /// Iteration → surviving peer that must restore the blob to its
    /// shard's new owner (owner died mid-flight).
    pending_recovery: BTreeMap<usize, usize>,
}

impl<'r, 'a> Prefetcher<'r, 'a> {
    fn new(run: &'r ClusterRun<'a>, dp: usize) -> Self {
        let cluster = &run.cluster;
        Prefetcher {
            run,
            executor_alive: vec![true; cluster.executor_hosts],
            replica_host: (0..dp).map(|r| cluster.executor_host_of(r)).collect(),
            shard_map: ShardMap::new(cluster.placement, cluster.executor_hosts),
            pending_recovery: BTreeMap::new(),
        }
    }

    /// Prefetch every iteration in order into `tx`, until the epoch
    /// ends, the run is cancelled, a blob is lost or the executor stops
    /// consuming.
    fn prefetch_all(mut self, tx: SyncSender<Prefetched<(Fetched, Executable)>>) {
        let run = self.run;
        for it in 0..run.cap {
            for ev in run.cluster.churn.events_at(it) {
                self.apply_churn(it, ev);
            }
            let placement = self.replica_host.clone();
            let shard_host = self.shard_map.host_of(it);
            let recover_from = self.pending_recovery.remove(&it);
            let meta = match self.wait_planned(it) {
                WaitOutcome::Planned(meta) => meta,
                WaitOutcome::EndOfEpoch => break,
                WaitOutcome::Cancelled | WaitOutcome::Deadline => return,
            };
            // The decode alone is the host cost: the wait and the take
            // model the fetch, which the timeline charges as wire time.
            let (outcome, _, decode_us) = match prefetch_blob(
                &run.queue,
                &run.store,
                run.cluster.codec,
                it,
                run.sink,
                self.shard_map.shard_of(it) as i64,
                run.cluster.executor_global(shard_host) as i64,
            ) {
                Ok(fetched) => fetched,
                Err(lost) => {
                    let _ = tx.send(Prefetched::Lost(lost));
                    return;
                }
            };
            let fetched = Fetched {
                meta,
                decode_us,
                placement,
                shard_host,
                recover_from,
            };
            if tx
                .send(Prefetched::Iteration(Box::new((fetched, outcome))))
                .is_err()
            {
                return; // executor stopped consuming
            }
        }
        let _ = tx.send(Prefetched::EndOfEpoch);
    }

    /// Wait for iteration `it`'s plan. Each expiry of the re-issue
    /// deadline suspects the holder and re-issues the ticket to the next
    /// healthy claimant, then keeps waiting (first completion wins).
    fn wait_planned(&self, it: usize) -> WaitOutcome<ClusterPlanned> {
        let run = self.run;
        loop {
            match run
                .queue
                .wait_for_deadline(it, run.cluster.reissue_deadline)
            {
                WaitOutcome::Deadline => {
                    run.ledger
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .deadline_expiries += 1;
                    let min_age = run
                        .cluster
                        .reissue_deadline
                        .expect("Deadline implies a deadline was set");
                    if run.queue.reissue(it, min_age) {
                        run.mark_reissue(it as i64, -1);
                    }
                }
                outcome => return outcome,
            }
        }
    }

    /// Apply one scripted churn event due at iteration `it`, counting it
    /// in the ledger as applied or ignored.
    fn apply_churn(&mut self, it: usize, ev: &ChurnEvent) {
        let run = self.run;
        let cluster = &run.cluster;
        let mut led = run.ledger.lock().unwrap_or_else(|e| e.into_inner());
        match ev {
            ChurnEvent::PlannerCrash { host } => {
                if run.membership.crash(*host) {
                    led.events_applied += 1;
                    led.planner_crashes += 1;
                    run.mark_churn(0, *host, it);
                    // Everything the dead host's workers held goes back
                    // to the survivors.
                    let n = run
                        .queue
                        .reissue_claimed_by(|w| run.worker_host[w] == *host);
                    for _ in 0..n {
                        // Claimed-but-unplanned tickets are unknown here:
                        // -1 iteration, lane = the dead host.
                        run.mark_reissue(-1, *host as i64);
                    }
                } else {
                    led.events_ignored += 1;
                }
            }
            ChurnEvent::PlannerJoin { .. } => {
                if let Some(joined) = run.membership.activate_next() {
                    led.events_applied += 1;
                    led.planner_joins += 1;
                    run.mark_churn(1, joined, it);
                } else {
                    led.events_ignored += 1;
                }
            }
            ChurnEvent::Straggle { host, delay_ms } => {
                if run
                    .membership
                    .straggle(*host, Duration::from_millis(*delay_ms))
                {
                    led.events_applied += 1;
                    led.straggles += 1;
                    run.mark_churn(2, *host, it);
                } else {
                    led.events_ignored += 1;
                }
            }
            ChurnEvent::ExecutorLoss { host } => {
                let survivors: Vec<usize> = (0..cluster.executor_hosts)
                    .filter(|&h| h != *host && self.executor_alive[h])
                    .collect();
                // Under the single placement host 0 holds the whole
                // store; losing it (or the last survivor under either
                // placement) is fail-stop, not churn. A dead/unknown host
                // is a no-op. Under the sharded placement *any* host may
                // go — its shards re-own onto survivors.
                let store_protected = cluster.placement == StorePlacement::Single && *host == 0;
                if store_protected
                    || *host >= cluster.executor_hosts
                    || !self.executor_alive[*host]
                    || survivors.is_empty()
                {
                    led.events_ignored += 1;
                    return;
                }
                self.executor_alive[*host] = false;
                led.events_applied += 1;
                led.executor_losses += 1;
                run.mark_churn(3, *host, it);
                // Re-place the lost host's replicas round-robin onto the
                // survivors; their plans re-distribute from the store over
                // the survivors' own downlinks from here on.
                for (r, h) in self.replica_host.iter_mut().enumerate() {
                    if *h == *host {
                        *h = survivors[r % survivors.len()];
                        led.replicas_moved += 1;
                    }
                }
                // Sharded store recovery: only the dead host's shards move
                // (surviving assignments are stable), and any blob that
                // may already sit on the dead owner — conservatively, the
                // whole plan-ahead window from here — is restored from a
                // surviving peer before its fetches replay.
                let lost_shards: Vec<usize> = self
                    .shard_map
                    .owners()
                    .iter()
                    .enumerate()
                    .filter(|(_, &o)| o == *host)
                    .map(|(s, _)| s)
                    .collect();
                if lost_shards.is_empty() {
                    return;
                }
                led.shards_moved += self.shard_map.reassign_lost(*host, &survivors);
                let window_end = it.saturating_add(cluster.plan_ahead).min(run.cap);
                for j in it..window_end {
                    let s = self.shard_map.shard_of(j);
                    if !lost_shards.contains(&s) {
                        continue;
                    }
                    let new_owner = self.shard_map.owner(s);
                    // The lowest surviving host that is not the new owner
                    // holds the replica; a sole survivor already owns it.
                    if let Some(&peer) = survivors.iter().find(|&&h| h != new_owner) {
                        self.pending_recovery.insert(j, peer);
                    }
                }
            }
        }
    }
}

/// The executor hosts' training timeline — the recurrence in the module
/// doc — as a plain struct: it owns every link a blob crosses and the
/// `sync_end` clock, and folds one executed iteration at a time into a
/// [`ClusterReport`]. No threads and no host clock, so it is unit-tested
/// directly.
struct ExecutorTimeline<'c> {
    cluster: &'c ClusterConfig,
    /// One uplink *connection* per planner worker × destination shard
    /// host. A worker's pushes are ordered in time, so the FIFO math
    /// replays exactly; a per-host shared link would be replayed in
    /// iteration order, which races push order across workers and would
    /// charge phantom queueing.
    uplinks: BTreeMap<(usize, usize), Link>,
    /// One link per shard-host → executor-host pair out of the store (a
    /// host colocated with the owning shard rides the fabric's free
    /// same-host link), and per peer → new-owner restore. Fetch-side
    /// links are legitimately FIFO in iteration order: the executor
    /// demands blobs in order, so fetch i+1 cannot start before fetch i
    /// finishes on that pair's link. Connections are created lazily from
    /// the fabric — a pair that never carries a blob never exists.
    interlinks: BTreeMap<(usize, usize), Link>,
    /// When the previous iteration's gradient sync ended (µs).
    sync_end: f64,
    /// Σ planning + lowering of the executed iterations (µs, real).
    planning_us: f64,
}

impl<'c> ExecutorTimeline<'c> {
    fn new(cluster: &'c ClusterConfig) -> Self {
        ExecutorTimeline {
            cluster,
            uplinks: BTreeMap::new(),
            interlinks: BTreeMap::new(),
            sync_end: 0.0,
            planning_us: 0.0,
        }
    }

    /// Fold executed iteration `it` into `out`: replay its push, any
    /// restore and every fetch over the links, advance `sync_end`, and
    /// count the wire, exposure and per-host totals with their spans.
    fn fold_iteration(
        &mut self,
        out: &mut ClusterReport,
        sink: &TraceSink,
        it: usize,
        fetched: &Fetched,
        exec: &IterationExecution,
        dp_sync_time: f64,
    ) {
        let cluster = self.cluster;
        let Fetched {
            meta,
            decode_us,
            placement,
            shard_host,
            recover_from,
        } = fetched;
        let (decode_us, shard_host) = (*decode_us, *shard_host);
        let bytes = meta.push.blob_bytes as u64;
        let (planner, shard_global) = (
            cluster.planner_global(meta.host),
            cluster.executor_global(shard_host),
        );
        let shard = it % out.shards.len();

        // --- Push: worker → owning shard's host ---------------------------
        let up = self
            .uplinks
            .entry((meta.worker, shard_host))
            .or_insert_with(|| cluster.fabric.connect(planner, shard_global));
        let up_before = up.wire_us();
        let up_busy = up.busy_until_us();
        let at_store = up.transmit(meta.pushed_at_us, bytes);
        let push_wire = up.wire_us() - up_before;
        sink.record(Span {
            kind: SpanKind::LinkPush,
            iteration: it as i64,
            lane: meta.worker as i64,
            host: planner as i64,
            start_us: meta.pushed_at_us,
            end_us: at_store,
            // FIFO queueing behind the worker's earlier pushes, split out
            // of the interval.
            wait_us: (up_busy - meta.pushed_at_us).max(0.0),
            bytes,
            src: planner as i64,
            dst: shard_global as i64,
            ..Span::default()
        });
        let ph = &mut out.planner_hosts[meta.host];
        ph.plans_produced += 1;
        ph.plan_us += meta.push.plan_us;
        ph.lower_us += meta.push.lower_us;
        ph.serialize_us += meta.push.serialize_us;
        ph.bytes_pushed += bytes;
        ph.push_wire_us += push_wire;
        let sh = &mut out.shards[shard];
        sh.owner = shard_host;
        sh.blobs_stored += 1;
        sh.bytes_pushed += bytes;
        sh.push_wire_us += push_wire;

        // --- Post-loss restore: the shard's previous owner died with this
        // blob in flight, so a surviving peer streams its replica to the
        // new owner before any fetch can start. ---------------------------
        let at_shard = match *recover_from {
            None => at_store,
            Some(peer) => {
                let link = self
                    .interlinks
                    .entry((peer, shard_host))
                    .or_insert_with(|| cluster.fabric.connect(peer, shard_host));
                let before = link.wire_us();
                let restore_busy = link.busy_until_us();
                let restored = link.transmit(at_store, bytes);
                sink.record(Span {
                    kind: SpanKind::LinkRestore,
                    iteration: it as i64,
                    lane: shard as i64,
                    host: shard_global as i64,
                    start_us: at_store,
                    end_us: restored,
                    wait_us: (restore_busy - at_store).max(0.0),
                    bytes,
                    src: cluster.executor_global(peer) as i64,
                    dst: shard_global as i64,
                    ..Span::default()
                });
                let sh = &mut out.shards[shard];
                sh.refetched_blobs += 1;
                sh.refetch_bytes += bytes;
                sh.fetch_wire_us += link.wire_us() - before;
                out.churn.blobs_refetched += 1;
                out.churn.refetch_bytes += bytes;
                restored
            }
        };

        // --- Fetch + run: hosts with at least one replica this iteration
        // fetch the blob and run their share. -----------------------------
        let mut spans = vec![f64::NEG_INFINITY; cluster.executor_hosts];
        for (r, &makespan) in exec.replica_makespans.iter().enumerate() {
            // Placement under churn: the snapshot the prefetcher took when
            // it fetched this iteration (initially `r % executor_hosts`;
            // re-placed on executor loss). A snapshot that fails to cover
            // a replica is a hard error — the silent static fallback it
            // replaces could route to a churn-killed host.
            let h = placed_host(placement, r).expect("short placement snapshot");
            spans[h] = spans[h].max(makespan);
            if !out.executor_hosts[h].replicas.contains(&r) {
                out.executor_hosts[h].replicas.push(r);
            }
        }
        let prev_end = self.sync_end;
        let mut sync_end = f64::NEG_INFINITY;
        let mut remote_copies = 0u64;
        for (h, &span) in spans.iter().enumerate() {
            if span == f64::NEG_INFINITY {
                continue; // no replica landed here this iteration
            }
            let link = self
                .interlinks
                .entry((shard_host, h))
                .or_insert_with(|| cluster.fabric.connect(shard_host, h));
            let down_before = link.wire_us();
            let down_busy = link.busy_until_us();
            let arrival = link.transmit(at_shard, bytes);
            let fetch_wire = link.wire_us() - down_before;
            let avail = arrival + decode_us;
            let eh = &mut out.executor_hosts[h];
            // The wire-byte rule (see report.rs): only copies that cross
            // hosts count — the shard owner's replicas read host memory.
            // The trace obeys the same rule: a LinkFetch span exists iff
            // the copy crossed hosts, so Σ span bytes reconciles against
            // `bytes_fetched`.
            if h != shard_host {
                eh.bytes_fetched += bytes;
                out.shards[shard].bytes_served += bytes;
                remote_copies += 1;
                sink.record(Span {
                    kind: SpanKind::LinkFetch,
                    iteration: it as i64,
                    lane: h as i64,
                    host: cluster.executor_global(h) as i64,
                    start_us: at_shard,
                    end_us: arrival,
                    wait_us: (down_busy - at_shard).max(0.0),
                    bytes,
                    src: shard_global as i64,
                    dst: cluster.executor_global(h) as i64,
                    ..Span::default()
                });
            }
            eh.fetch_wire_us += fetch_wire;
            out.shards[shard].fetch_wire_us += fetch_wire;
            eh.decode_us += decode_us;
            // The span carries the exact ledger term in `wait_us`
            // (start/end have float residue; the counter does not), and
            // zero terms are skipped — adding +0.0 to a non-negative
            // accumulator cannot change its bits, so the per-host ledger
            // still reconciles bit-exactly.
            let wait = (avail - prev_end).max(0.0);
            eh.exposed_us += wait;
            if wait > 0.0 {
                sink.record(Span {
                    kind: SpanKind::ExposedWait,
                    iteration: it as i64,
                    lane: h as i64,
                    host: cluster.executor_global(h) as i64,
                    start_us: prev_end,
                    end_us: avail,
                    wait_us: wait,
                    ..Span::default()
                });
            }
            eh.busy_us += span;
            let start = prev_end.max(avail);
            sync_end = sync_end.max(start + span);
        }
        let end = sync_end + dp_sync_time;
        // How much later the sync finished than it would have with every
        // plan instantly available.
        let exposed = (end - prev_end - exec.measured_time).max(0.0);
        out.exposed_us += exposed;
        if exposed > 0.0 {
            sink.record(Span {
                kind: SpanKind::ExposedPlanning,
                iteration: it as i64,
                start_us: prev_end,
                end_us: prev_end + exposed,
                wait_us: exposed,
                ..Span::default()
            });
        }
        self.sync_end = end;

        out.exec_sim_us += exec.measured_time;
        out.serialize_us += meta.push.serialize_us;
        out.decode_us += decode_us * spans.iter().filter(|s| s.is_finite()).count() as f64;
        self.planning_us += meta.push.plan_us + meta.push.lower_us;
        if cluster.codec == dynapipe_core::PlanCodec::Flat {
            // Every host that fetched a *remote* copy ran engines straight
            // over the wire bytes; the shard owner's local copy is host
            // memory, not wire (the wire-byte rule — an earlier revision
            // counted it here but not in bytes_fetched, so the two could
            // never reconcile).
            out.flat_wire_bytes += bytes * remote_copies;
        }
        out.iterations += 1;
    }

    /// Close the timeline into `out`: the cluster wall and the link
    /// totals.
    fn finish(self, out: &mut ClusterReport) {
        out.cluster_wall_us = self.sync_end;
        out.total_wire_us = self.uplinks.values().map(Link::wire_us).sum::<f64>()
            + self.interlinks.values().map(Link::wire_us).sum::<f64>();
        // The busiest single directed host-pair link — local links never
        // count bytes, so this is a pure wire quantity.
        out.max_link_bytes = self
            .uplinks
            .values()
            .chain(self.interlinks.values())
            .map(Link::bytes)
            .max()
            .unwrap_or(0);
    }
}

/// Run (a prefix of) one training epoch on the simulated multi-host
/// cluster, recording spans into `sink`: ticket lifecycle, store traffic
/// and churn actions as `Host`-domain spans, per-blob link transfers
/// (push / fetch / restore, with the FIFO queue-wait split out), per-host
/// exposure, and the executed iterations as `Sim`-domain spans on the
/// ideal simulated timeline. Pass [`TraceSink::disabled`] to record
/// nothing.
///
/// The returned [`RunReport`] is bit-identical to
/// [`dynapipe_core::run_training`] with the same arguments — any
/// topology, codec or link speed (`RunReport::behavior_eq`; pinned by
/// `tests/cluster_equivalence.rs`). The [`ClusterReport`] carries the
/// per-host and wire accounting.
pub fn run_training_cluster_traced(
    planner: &dyn IterationPlanner,
    dataset: &Dataset,
    gbs: GlobalBatchConfig,
    run: RunConfig,
    cluster: ClusterConfig,
    sink: &TraceSink,
) -> (RunReport, ClusterReport) {
    let cm = planner.cost_model();
    let cap = run.max_iterations.unwrap_or(usize::MAX);
    let stream = BatchStream::new(dataset, gbs);
    let shared = ClusterRun::new(cluster.normalized(cm.parallel.dp), cap, sink);
    let cluster = &shared.cluster;
    let mut report = RunReport::empty(planner.label());
    let mut out = empty_cluster_report(cluster);
    let mut timeline = ExecutorTimeline::new(cluster);
    let nested_threads = (rayon::current_num_threads() / cluster.total_workers().max(1)).max(1);

    std::thread::scope(|scope| {
        for w in 0..shared.worker_host.len() {
            let (shared, stream) = (&shared, &stream);
            scope.spawn(move || shared.planner_worker(planner, stream, w, nested_threads));
        }
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        let prefetcher = Prefetcher::new(&shared, cm.parallel.dp.max(1));
        scope.spawn(move || prefetcher.prefetch_all(tx));

        // The executor: strictly in order on the caller thread, folding
        // the per-host timelines as it goes. The Sim-domain clock is the
        // ideal back-to-back timeline the executed iterations would
        // occupy with every plan instantly available.
        let mut sim_clock = 0.0f64;
        for it in 0..cap {
            let Some((fetched, outcome)) = receive_prefetched(&rx, &shared.queue) else {
                break;
            };
            let Some((summary, exec)) = execute_or_fail(cm, &run, it, outcome, &mut report) else {
                break;
            };
            timeline.fold_iteration(&mut out, sink, it, &fetched, &exec, summary.dp_sync_time);
            record_sim_iteration(sink, it, &exec, &mut sim_clock);
            record_iteration(
                &mut report,
                cm,
                &summary,
                exec.measured_time,
                exec.peak_memory,
                exec.allocator_stall_us,
            );
        }
        // Teardown: stop workers waiting on the window or about to claim
        // past a failure, wake a prefetcher stuck on a plan that will
        // never come, and release the workers of scripted-join hosts
        // whose event never fired.
        shared.queue.cancel();
        shared.membership.shutdown();
        drop(rx);
    });

    // Workers joined: sweep speculative blobs past a failure, then fold
    // the queue's churn counters and the workers' and prefetcher's ledger
    // in next to the timeline's restore counts.
    out.store = sweep_store(&shared.store, sink);
    let qc = shared.queue.churn_stats();
    out.churn = ChurnStats {
        tickets_reissued: qc.reissued,
        stale_completions: qc.stale_completions,
        blobs_refetched: out.churn.blobs_refetched,
        refetch_bytes: out.churn.refetch_bytes,
        ..shared
            .ledger
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
    };
    let planning_us = timeline.planning_us;
    timeline.finish(&mut out);

    // Cluster totals. Host pipeline cost (planning + lowering + serialize
    // + decode) counts every host's decode (each fetching host burns its
    // own CPU on its copy).
    let total_planning_us = planning_us + (out.serialize_us + out.decode_us);
    let pushed: u64 = out.planner_hosts.iter().map(|h| h.bytes_pushed).sum();
    out.wire_bytes = pushed
        + out
            .executor_hosts
            .iter()
            .map(|h| h.bytes_fetched)
            .sum::<u64>();
    out.mean_blob_bytes = if out.iterations > 0 {
        pushed as f64 / out.iterations as f64
    } else {
        0.0
    };
    let to_hide = total_planning_us + out.total_wire_us;
    out.overlap_ratio = if to_hide > 0.0 {
        (to_hide - out.exposed_us).max(0.0) / to_hide
    } else {
        1.0
    };
    for eh in &mut out.executor_hosts {
        // Per-host overlap: the host's share of the upstream pipeline
        // (planning + lowering + serialize, split evenly across hosts —
        // they all consume the same plans) plus its own fetch wire and
        // decode, minus what it actually had to wait out on its timeline.
        let upstream = (total_planning_us - out.decode_us) / cluster.executor_hosts as f64;
        let total = upstream + eh.fetch_wire_us + eh.decode_us;
        let hidden_us = (total - eh.exposed_us).max(0.0);
        eh.overlap_ratio = if total > 0.0 { hidden_us / total } else { 1.0 };
    }
    (report, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynapipe_core::PlanCodec;
    use dynapipe_sim::{Fabric, LinkModel};

    /// An executed iteration with the given replica makespans.
    fn executed(makespans: &[f64], dp_sync_time: f64) -> IterationExecution {
        IterationExecution {
            measured_time: makespans.iter().copied().fold(0.0, f64::max) + dp_sync_time,
            peak_memory: Vec::new(),
            allocator_stall_us: 0.0,
            host_wall_us: 0.0,
            replica_makespans: makespans.to_vec(),
            replica_traces: vec![Vec::new(); makespans.len()],
        }
    }

    /// A `bytes`-sized blob pushed by worker 0 of planner host 0.
    fn fetched(
        bytes: usize,
        pushed_at_us: f64,
        decode_us: f64,
        placement: &[usize],
        shard_host: usize,
        recover_from: Option<usize>,
    ) -> Fetched {
        let push = StorePush {
            plan_us: 0.0,
            lower_us: 0.0,
            serialize_us: 0.0,
            blob_bytes: bytes,
            discarded: false,
        };
        Fetched {
            meta: ClusterPlanned {
                worker: 0,
                host: 0,
                push,
                pushed_at_us,
            },
            decode_us,
            placement: placement.to_vec(),
            shard_host,
            recover_from,
        }
    }

    /// A uniform fabric whose 4 KB blob takes 459.6 µs per hop.
    fn slow_fabric() -> Fabric {
        Fabric::uniform(LinkModel::new(50.0, 10.0).expect("valid link")).expect("valid fabric")
    }

    #[test]
    fn timeline_on_a_free_fabric_advances_by_exactly_the_iteration_time() {
        let cluster = ClusterConfig {
            executor_hosts: 2,
            fabric: Fabric::free(),
            ..Default::default()
        };
        let mut out = empty_cluster_report(&cluster);
        let mut timeline = ExecutorTimeline::new(&cluster);
        let mut expected = 0.0f64;
        for (it, makespans) in [[100.0, 250.0], [75.5, 60.25], [300.0, 300.0]]
            .iter()
            .enumerate()
        {
            let exec = executed(makespans, 12.5);
            let blob = fetched(4096, 0.0, 0.0, &[0, 1], 0, None);
            timeline.fold_iteration(&mut out, &TraceSink::disabled(), it, &blob, &exec, 12.5);
            expected += exec.measured_time;
            assert_eq!(
                timeline.sync_end.to_bits(),
                expected.to_bits(),
                "iteration {it}"
            );
        }
        assert_eq!(out.exposed_us, 0.0);
        assert!(out.executor_hosts.iter().all(|h| h.exposed_us == 0.0));
        assert_eq!(out.iterations, 3);
    }

    #[test]
    fn timeline_charges_only_remote_copies_and_exposes_the_late_host() {
        // Single placement: executor host 0 holds the store.
        let cluster = ClusterConfig {
            executor_hosts: 2,
            codec: PlanCodec::Flat,
            fabric: slow_fabric(),
            ..Default::default()
        };
        let sink = TraceSink::bounded(64);
        let mut out = empty_cluster_report(&cluster);
        let mut timeline = ExecutorTimeline::new(&cluster);
        // The push and the remote fetch link, replayed by hand.
        let mut up = cluster.fabric.connect(cluster.planner_global(0), 0);
        let mut down = cluster.fabric.connect(0, 1);
        let (bytes, decode_us) = (4096u64, 3.0);
        for it in 0..2 {
            let prev = timeline.sync_end;
            let pushed_at = 10.0 * it as f64;
            let avail = down.transmit(up.transmit(pushed_at, bytes), bytes) + decode_us;
            let blob = fetched(bytes as usize, pushed_at, decode_us, &[0, 1], 0, None);
            let exec = executed(&[100.0, 100.0], 5.0);
            timeline.fold_iteration(&mut out, &sink, it, &blob, &exec, 5.0);
            let remote_wait = sink
                .finish()
                .of_kind(SpanKind::ExposedWait)
                .find(|s| s.iteration == it as i64 && s.lane == 1)
                .map(|s| s.wait_us.to_bits());
            assert_eq!(
                remote_wait,
                Some((avail - prev).to_bits()),
                "iteration {it}"
            );
        }
        // The shard host's own copies are host memory: no wire bytes and
        // no fetch spans.
        assert_eq!(out.executor_hosts[0].bytes_fetched, 0);
        assert_eq!(out.executor_hosts[1].bytes_fetched, 2 * bytes);
        assert_eq!(out.flat_wire_bytes, 2 * bytes);
        let trace = sink.finish();
        assert_eq!(trace.of_kind(SpanKind::LinkFetch).count(), 2);
        assert!(trace.of_kind(SpanKind::LinkFetch).all(|s| s.lane == 1));
    }

    #[test]
    fn restore_hop_delays_the_fetch_and_counts_one_refetch() {
        // Shard 0's owner died: host 1 owns it now, and surviving peer
        // host 2 restores iteration 0's blob to it.
        let cluster = ClusterConfig {
            executor_hosts: 3,
            placement: StorePlacement::Sharded,
            fabric: slow_fabric(),
            ..Default::default()
        };
        let sink = TraceSink::bounded(64);
        let mut out = empty_cluster_report(&cluster);
        let mut timeline = ExecutorTimeline::new(&cluster);
        let bytes = 4096u64;
        let exec = executed(&[100.0, 100.0, 100.0], 5.0);
        let blob = fetched(bytes as usize, 0.0, 0.0, &[1, 1, 2], 1, Some(2));
        timeline.fold_iteration(&mut out, &sink, 0, &blob, &exec, 5.0);
        let trace = sink.finish();
        let restores: Vec<&Span> = trace.of_kind(SpanKind::LinkRestore).collect();
        assert_eq!(restores.len(), 1);
        let (at_store, at_shard) = (restores[0].start_us, restores[0].end_us);
        assert!(at_shard > at_store, "the restore hop takes wire time");
        // Host 2's fetch waits for the restored blob; host 1 reads its own.
        let fetches: Vec<&Span> = trace.of_kind(SpanKind::LinkFetch).collect();
        assert_eq!(fetches.len(), 1);
        assert_eq!((fetches[0].lane, fetches[0].start_us), (2, at_shard));
        assert_eq!(
            (out.churn.blobs_refetched, out.churn.refetch_bytes),
            (1, bytes)
        );
        assert_eq!(
            (out.shards[0].refetched_blobs, out.shards[0].refetch_bytes),
            (1, bytes)
        );
        // Iteration 1 (shard 1, owned by host 1) needs no restore.
        let blob = fetched(bytes as usize, 0.0, 0.0, &[1, 1, 2], 1, None);
        timeline.fold_iteration(&mut out, &sink, 1, &blob, &exec, 5.0);
        assert_eq!(
            (out.churn.blobs_refetched, out.churn.refetch_bytes),
            (1, bytes)
        );
        assert_eq!(out.shards.iter().map(|s| s.refetched_blobs).sum::<u64>(), 1);
        assert_eq!(
            out.shards.iter().map(|s| s.refetch_bytes).sum::<u64>(),
            bytes
        );
    }

    #[test]
    fn short_placement_snapshot_is_a_hard_error() {
        // The regression: with host 1 killed by churn, a snapshot
        // re-placing replica 0 onto host 0 but (wrongly) missing
        // replica 1 used to fall back to the static `r % hosts`
        // assignment — routing replica 1 straight back to dead host 1.
        assert_eq!(placed_host(&[0, 0], 0), Ok(0));
        assert_eq!(placed_host(&[0, 0], 1), Ok(0));
        let err = placed_host(&[0], 1).expect_err("short snapshot must be rejected");
        assert!(err.contains("replica 1"), "{err}");
        assert!(placed_host(&[], 0).is_err());
    }
}
