//! `dynapipe-trace` — the unified, determinism-pinned span recorder
//! behind every layer of the runtime (PR 10).
//!
//! The repo's claims are timeline claims (planning hidden behind
//! execution, wire time overlapped across hosts), but until now the
//! only evidence was aggregate counters. This crate records the
//! timeline itself as flat, closed [`Span`]s — ticket lifecycle, store
//! traffic, per-blob link transfers, decode, simulated execution — and
//! holds that record to the same standard as the counters:
//!
//! - every span carries a [`ClockDomain`]. `Sim` spans live on the
//!   *ideal simulated timeline* (µs accumulated from simulated
//!   iteration times, starting at 0) and are part of the behavior
//!   contract: bit-identical across reruns, codecs, placements and
//!   churn, enforced by [`sim_eq`] next to `RunReport::behavior_eq`.
//!   `Host` spans carry real wall-clock µs and are stats-only — their
//!   *payloads* (bytes, counts, ledger durations) still reconcile
//!   exactly with the counters they shadow ([`Trace::reconcile`]),
//!   but their clock values never feed a gate.
//! - the recorder is a [`TraceSink`]: a cheap no-op by default, an
//!   `Arc`-shared bounded ring when enabled, so the untraced paths pay
//!   one `Option` check per would-be span.
//!
//! Exports: native JSON via the serde shim (exact f64 round-trip, so a
//! trace file is still bit-comparable), and Chrome trace-event JSON
//! ([`chrome::to_chrome_trace`]) loadable in Perfetto. See `TRACING.md`
//! for the taxonomy and the reconciliation invariants.

pub mod chrome;

use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which clock a span's `start_us`/`end_us` are read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClockDomain {
    /// Simulated µs on the ideal execution timeline (t = 0 at the first
    /// iteration, advanced by simulated iteration time). Deterministic;
    /// part of the behavior contract; compared bit-for-bit by
    /// [`sim_eq`].
    Sim,
    /// Real wall-clock µs (or run-relative hybrid-timeline µs derived
    /// from wall readings). Stats-only: excluded from [`sim_eq`], never
    /// gated on its clock values.
    Host,
}

/// What a span describes. The taxonomy mirrors the counters each kind
/// shadows (see `TRACING.md` for the full reconciliation table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SpanKind {
    /// A worker claimed a ticket (instant; `generation` set).
    TicketClaim,
    /// Planning phase of one claimed ticket.
    TicketPlan,
    /// Lowering phase of one claimed ticket.
    TicketLower,
    /// Encode (+ store push) phase; `bytes` = encoded blob size.
    TicketEncode,
    /// Completion handed to the queue (instant; `generation` set;
    /// `bytes` = 1 when the queue accepted it, 0 when it was stale, 2
    /// when the run was cancelled). Bytes-0 count == `stale_completions`.
    TicketComplete,
    /// The queue re-issued a ticket (deadline expiry or claimant
    /// crash). One span per re-issue: Σ count == `tickets_reissued`.
    TicketReissue,
    /// A blob entered the store (instant; `lane` = shard).
    StorePush,
    /// A blob left the store to an executor (instant; `lane` = shard).
    StoreTake,
    /// A blob was discarded (duplicate at the door, or swept at
    /// teardown). `pushes == takes + discards` span-for-span.
    StoreDiscard,
    /// Blob decode on an executor host.
    Decode,
    /// Planner→store-shard transfer of one blob. `src`/`dst` are global
    /// host ids, `bytes` the blob, `wait_us` the FIFO queue wait
    /// included in [start, end].
    LinkPush,
    /// Store-shard→executor transfer of one blob. Recorded only when
    /// the copy crosses hosts — the wire-byte rule — so
    /// Σ `bytes` == Σ `bytes_fetched` (== `flat_wire_bytes` on flat).
    LinkFetch,
    /// Post-loss restore hop from a surviving peer.
    LinkRestore,
    /// Plan-distribution latency exposed on one executor host's
    /// timeline for one iteration; `wait_us` carries the exact ledger
    /// quantity added to `ExecutorHostStats::exposed_us`.
    ExposedWait,
    /// Cluster-level exposed planning for one iteration; `wait_us`
    /// carries the exact ledger quantity added to `exposed_us` /
    /// `RuntimeStats::exposed_us`.
    ExposedPlanning,
    /// A churn-script event took effect (instant; `lane` = host).
    ChurnAction,
    /// Sim: one replica's execution interval for one iteration
    /// (`lane` = replica, duration = that replica's makespan).
    IterExec,
    /// Sim: the gradient-sync tail of one iteration (from the worst
    /// replica's finish to the iteration boundary).
    IterSync,
    /// Sim: one engine-level op (forward/backward chunk, transfer,
    /// allocator stall) adapted from `sim::TraceEvent`; `lane` =
    /// replica, `src` = device, `dst` = peer device (-1 if none).
    EngineOp,
}

impl SpanKind {
    /// Stable label used by exporters.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::TicketClaim => "ticket_claim",
            SpanKind::TicketPlan => "ticket_plan",
            SpanKind::TicketLower => "ticket_lower",
            SpanKind::TicketEncode => "ticket_encode",
            SpanKind::TicketComplete => "ticket_complete",
            SpanKind::TicketReissue => "ticket_reissue",
            SpanKind::StorePush => "store_push",
            SpanKind::StoreTake => "store_take",
            SpanKind::StoreDiscard => "store_discard",
            SpanKind::Decode => "decode",
            SpanKind::LinkPush => "link_push",
            SpanKind::LinkFetch => "link_fetch",
            SpanKind::LinkRestore => "link_restore",
            SpanKind::ExposedWait => "exposed_wait",
            SpanKind::ExposedPlanning => "exposed_planning",
            SpanKind::ChurnAction => "churn_action",
            SpanKind::IterExec => "iter_exec",
            SpanKind::IterSync => "iter_sync",
            SpanKind::EngineOp => "engine_op",
        }
    }
}

/// One closed interval on a timeline. Spans are flat (no open/close
/// event pairs), so a recorded span is well-formed by construction or
/// not at all — [`Trace::validate`] checks the residual invariants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Recording order (unique, monotone). Excluded from [`sim_eq`]:
    /// Host spans interleave by thread schedule.
    pub seq: u64,
    /// Which clock `start_us`/`end_us` are on.
    pub domain: ClockDomain,
    /// What happened.
    pub kind: SpanKind,
    /// Training iteration, or -1 when not tied to one.
    pub iteration: i64,
    /// Kind-dependent actor: worker (ticket), shard (store), replica
    /// (sim), executor host (decode/exposed). -1 when not applicable.
    pub lane: i64,
    /// Global host id the span is attributed to for export grouping
    /// (-1 for the sim timeline). Excluded from [`sim_eq`]: placement
    /// moves attribution without moving behavior.
    pub host: i64,
    /// Interval start (µs on `domain`'s clock).
    pub start_us: f64,
    /// Interval end (µs); `end_us >= start_us`.
    pub end_us: f64,
    /// Kind-dependent exact ledger quantity: FIFO queue wait for link
    /// spans, the exact exposed-µs term for `Exposed*` spans, 0
    /// otherwise. Kept separate so reconciliation against the counters
    /// is bit-exact, free of `(a + b) - a` float residue.
    pub wait_us: f64,
    /// Payload bytes (blob size for link/store/encode spans).
    pub bytes: u64,
    /// Ticket generation (re-issue count) for ticket spans.
    pub generation: u64,
    /// Source global host (link spans) or device (engine ops); -1 n/a.
    pub src: i64,
    /// Destination global host / peer device; -1 when not applicable.
    pub dst: i64,
}

impl Default for Span {
    fn default() -> Self {
        Span {
            seq: 0,
            domain: ClockDomain::Host,
            kind: SpanKind::TicketClaim,
            iteration: -1,
            lane: -1,
            host: -1,
            start_us: 0.0,
            end_us: 0.0,
            wait_us: 0.0,
            bytes: 0,
            generation: 0,
            src: -1,
            dst: -1,
        }
    }
}

/// Recorder counters — registered in the `counter-unread` lint registry
/// and reconciled by the test suite like every other counter struct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceCounters {
    /// Spans accepted into the ring.
    pub spans_recorded: u64,
    /// Spans dropped because the ring was at capacity.
    pub spans_dropped: u64,
    /// Recorded spans on the `Sim` clock.
    pub sim_spans: u64,
    /// Recorded spans on the `Host` clock.
    pub host_spans: u64,
}

/// Run identity and the counter ledger a trace must reconcile against,
/// embedded in the export so `trace_report` can audit a trace file
/// without the run that produced it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceMeta {
    /// Free-form run label.
    pub label: String,
    /// Topology label (`"2p×1w→2e"`), empty for single-host runs.
    pub topology: String,
    /// Wire codec label (`"json"` / `"binary"` / `"flat"`).
    pub codec: String,
    /// Store placement label, empty for single-host runs.
    pub placement: String,
    /// Iterations executed.
    pub iterations: u64,
    /// Σ simulated iteration time (µs).
    pub exec_sim_us: f64,
    /// Exposed distribution latency on the training timeline (µs) —
    /// `ClusterReport::exposed_us` / `RuntimeStats::exposed_planning_us`.
    pub exposed_us: f64,
    /// Per-executor-host exposed µs (`ExecutorHostStats::exposed_us`);
    /// empty for single-host runs.
    pub host_exposed_us: Vec<f64>,
    /// End of the training timeline (µs): `exec_sim_us` + exposure.
    pub wall_us: f64,
    /// Σ wire bytes pushed planner→store.
    pub bytes_pushed: u64,
    /// Σ wire bytes fetched store→executor (remote copies only).
    pub bytes_fetched: u64,
    /// Bytes executed zero-copy over the wire blob (flat codec only).
    pub flat_wire_bytes: u64,
    /// Bytes moved by post-loss restore hops.
    pub refetch_bytes: u64,
    /// Store counter: blobs pushed.
    pub store_pushes: u64,
    /// Store counter: blobs taken.
    pub store_takes: u64,
    /// Store counter: blobs discarded (duplicates + teardown sweep).
    pub store_discarded: u64,
    /// Queue counter: tickets re-issued.
    pub tickets_reissued: u64,
    /// Queue counter: completions discarded as stale (another attempt
    /// completed the iteration first). Zero on single-host runs, which
    /// never re-issue.
    pub stale_completions: u64,
    /// Churn ledger: scripted events that took effect (ignored events
    /// record no span and do not count).
    pub churn_applied: u64,
}

/// A finished recording: metadata ledger, recorder counters, spans in
/// `seq` order. Serializes through the serde shim with exact f64
/// round-tripping, so file → parse → [`sim_eq`] is still bit-exact.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Run identity + counter ledger.
    pub meta: TraceMeta,
    /// Recorder counters.
    pub counters: TraceCounters,
    /// All recorded spans, `seq`-ordered.
    pub spans: Vec<Span>,
}

struct RingState {
    spans: Vec<Span>,
    counters: TraceCounters,
}

struct Ring {
    cap: usize,
    epoch: Instant,
    state: Mutex<RingState>,
}

impl Ring {
    /// Host-clock µs of `t` since the ring's epoch.
    fn us_at(&self, t: Instant) -> f64 {
        micros(t.duration_since(self.epoch))
    }
}

/// The recorder's one wall-clock source: the ring epoch and both reads
/// of every timed phase come from here.
fn host_clock() -> Instant {
    // lint:allow(wall-clock): Host-domain span clock and phase durations; Host spans and the counters they feed are stats-only, excluded from sim_eq and behavior_eq
    Instant::now()
}

fn micros(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Shared recorder handle. `Default`/[`TraceSink::disabled`] is a no-op
/// (one `Option` check per span); [`TraceSink::bounded`] allocates one
/// `Arc`-shared ring that every layer of a run appends into.
#[derive(Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<Ring>>,
}

impl TraceSink {
    /// The no-op sink: records nothing, costs nothing.
    pub fn disabled() -> Self {
        TraceSink::default()
    }

    /// A recording sink holding at most `cap` spans. Spans offered
    /// beyond capacity are counted in `spans_dropped` and discarded —
    /// the ring never reallocates past `cap`.
    pub fn bounded(cap: usize) -> Self {
        TraceSink {
            inner: Some(Arc::new(Ring {
                cap,
                epoch: host_clock(),
                state: Mutex::new(RingState {
                    spans: Vec::new(),
                    counters: TraceCounters::default(),
                }),
            })),
        }
    }

    /// Whether spans are being kept. Callers can skip building span
    /// payloads entirely when false.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Run `work` as one timed Host phase. The clock is read exactly
    /// twice, once before and once after the work; the returned µs is
    /// their difference and feeds the caller's counter. When the sink is
    /// enabled and `span` returns a span for the work's output, that span
    /// is recorded with its start and end taken from the same two reads,
    /// so the span's duration and the counter agree by construction. A
    /// disabled sink still returns the duration and records nothing.
    pub fn timed<T>(
        &self,
        work: impl FnOnce() -> T,
        span: impl FnOnce(&T) -> Option<Span>,
    ) -> (T, f64) {
        let start = host_clock();
        let out = work();
        let end = host_clock();
        if let Some(ring) = &self.inner {
            if let Some(s) = span(&out) {
                self.record(Span {
                    start_us: ring.us_at(start),
                    end_us: ring.us_at(end),
                    ..s
                });
            }
        }
        (out, micros(end.duration_since(start)))
    }

    /// Record an instant span (`start_us == end_us == now`). A disabled
    /// sink neither reads the clock nor records.
    pub fn mark(&self, span: Span) {
        if let Some(ring) = &self.inner {
            let now = ring.us_at(host_clock());
            self.record(Span {
                start_us: now,
                end_us: now,
                ..span
            });
        }
    }

    /// Record one span. `span.seq` is overwritten with the recording
    /// index; the domain counters update only on acceptance.
    pub fn record(&self, mut span: Span) {
        let Some(ring) = &self.inner else { return };
        let mut st = ring.state.lock().unwrap_or_else(|e| e.into_inner());
        span.seq = st.counters.spans_recorded + st.counters.spans_dropped;
        if st.spans.len() >= ring.cap {
            st.counters.spans_dropped += 1;
            return;
        }
        st.counters.spans_recorded += 1;
        match span.domain {
            ClockDomain::Sim => st.counters.sim_spans += 1,
            ClockDomain::Host => st.counters.host_spans += 1,
        }
        st.spans.push(span);
    }

    /// Snapshot the recording (meta left default — the caller fills it
    /// from the run's report before exporting).
    pub fn finish(&self) -> Trace {
        match &self.inner {
            Some(ring) => {
                let st = ring.state.lock().unwrap_or_else(|e| e.into_inner());
                Trace {
                    meta: TraceMeta::default(),
                    counters: st.counters,
                    spans: st.spans.clone(),
                }
            }
            None => Trace::default(),
        }
    }
}

/// The bit-compared identity of one Sim-domain span: everything except
/// `seq` (thread interleave) and `host` (placement attribution).
fn sim_key(s: &Span) -> (SpanKind, i64, i64, u64, u64, u64, u64, u64, i64, i64) {
    (
        s.kind,
        s.iteration,
        s.lane,
        s.start_us.to_bits(),
        s.end_us.to_bits(),
        s.wait_us.to_bits(),
        s.bytes,
        s.generation,
        s.src,
        s.dst,
    )
}

/// The trace half of the bit-identity contract: the `Sim`-domain span
/// sequences of two runs must match bit-for-bit — same spans, same
/// order, same `f64` bits — across reruns, codecs, placements and
/// churn. Host spans are ignored, exactly as `behavior_eq` ignores
/// wall-clock stats.
pub fn sim_eq(a: &Trace, b: &Trace) -> Result<(), String> {
    let sa: Vec<&Span> = a
        .spans
        .iter()
        .filter(|s| s.domain == ClockDomain::Sim)
        .collect();
    let sb: Vec<&Span> = b
        .spans
        .iter()
        .filter(|s| s.domain == ClockDomain::Sim)
        .collect();
    if sa.len() != sb.len() {
        return Err(format!(
            "sim span count diverges: {} vs {}",
            sa.len(),
            sb.len()
        ));
    }
    for (i, (x, y)) in sa.iter().zip(&sb).enumerate() {
        if sim_key(x) != sim_key(y) {
            return Err(format!(
                "sim span {i} diverges:\n  a: {:?} it={} lane={} [{:.3}, {:.3}]\n  b: {:?} it={} lane={} [{:.3}, {:.3}]",
                x.kind, x.iteration, x.lane, x.start_us, x.end_us,
                y.kind, y.iteration, y.lane, y.start_us, y.end_us,
            ));
        }
    }
    Ok(())
}

impl Trace {
    /// Spans of one kind, in `seq` order.
    pub fn of_kind(&self, kind: SpanKind) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.kind == kind)
    }

    /// Σ `bytes` over one kind.
    pub fn bytes_of(&self, kind: SpanKind) -> u64 {
        self.of_kind(kind).map(|s| s.bytes).sum()
    }

    /// Σ `wait_us` over one kind, in `seq` order — the exact ledger sum
    /// for `Exposed*` kinds. `+ 0.0` normalizes the empty sum (float
    /// `Sum` folds from `-0.0`) to the counters' `+0.0`; nonzero sums
    /// are bitwise unchanged.
    pub fn ledger_us(&self, kind: SpanKind) -> f64 {
        self.of_kind(kind).map(|s| s.wait_us).sum::<f64>() + 0.0
    }

    /// Structural well-formedness: closed non-negative intervals,
    /// `wait_us` inside the interval it annotates, monotone `seq`,
    /// counters consistent with the recorded spans, and ticket spans
    /// following generation arithmetic (each generation of an iteration
    /// claimed at most once, phases never orphaned from a claim).
    pub fn validate(&self) -> Result<(), String> {
        let mut last_seq = None;
        for s in &self.spans {
            if !(s.end_us >= s.start_us) {
                return Err(format!("span {} ({:?}): end < start", s.seq, s.kind));
            }
            if !(s.wait_us >= 0.0) {
                return Err(format!("span {} ({:?}): negative wait", s.seq, s.kind));
            }
            let is_link = matches!(
                s.kind,
                SpanKind::LinkPush | SpanKind::LinkFetch | SpanKind::LinkRestore
            );
            if is_link && s.wait_us > (s.end_us - s.start_us) + 1e-6 {
                return Err(format!(
                    "span {} ({:?}): queue wait {} exceeds interval {}",
                    s.seq,
                    s.kind,
                    s.wait_us,
                    s.end_us - s.start_us
                ));
            }
            if let Some(prev) = last_seq {
                if s.seq <= prev {
                    return Err(format!("span seq not monotone at {}", s.seq));
                }
            }
            last_seq = Some(s.seq);
        }
        let c = self.counters;
        if c.spans_recorded != self.spans.len() as u64 {
            return Err(format!(
                "spans_recorded {} != spans kept {}",
                c.spans_recorded,
                self.spans.len()
            ));
        }
        if c.sim_spans + c.host_spans != c.spans_recorded {
            return Err(format!(
                "domain counts {} + {} != recorded {}",
                c.sim_spans, c.host_spans, c.spans_recorded
            ));
        }
        // Generation arithmetic: one claim per (iteration, generation);
        // a phase or completion span's generation must have been
        // claimed (no orphan phases from tickets nobody held).
        let mut claims: Vec<(i64, u64)> = self
            .of_kind(SpanKind::TicketClaim)
            .map(|s| (s.iteration, s.generation))
            .collect();
        claims.sort_unstable();
        if claims.windows(2).any(|w| w[0] == w[1]) {
            return Err("duplicate ticket claim for one (iteration, generation)".into());
        }
        for s in &self.spans {
            let phase = matches!(
                s.kind,
                SpanKind::TicketPlan
                    | SpanKind::TicketLower
                    | SpanKind::TicketEncode
                    | SpanKind::TicketComplete
            );
            if phase && claims.binary_search(&(s.iteration, s.generation)).is_err() {
                return Err(format!(
                    "orphan {:?} for it {} gen {}: no matching claim",
                    s.kind, s.iteration, s.generation
                ));
            }
        }
        Ok(())
    }

    /// The trace ↔ counter reconciliation contract (`TRACING.md`):
    /// every Host-span payload total must equal the counter it shadows,
    /// exactly — bytes and counts as integers, exposed-µs ledgers as
    /// identical `f64` accumulation. Requires `meta` to be filled.
    pub fn reconcile(&self) -> Result<(), String> {
        if self.counters.spans_dropped > 0 {
            return Err(format!(
                "{} spans dropped at capacity: totals cannot reconcile",
                self.counters.spans_dropped
            ));
        }
        let m = &self.meta;
        let checks: &[(&str, u64, u64)] = &[
            (
                "Σ link_push bytes vs bytes_pushed",
                self.bytes_of(SpanKind::LinkPush),
                m.bytes_pushed,
            ),
            (
                "Σ link_fetch bytes vs bytes_fetched",
                self.bytes_of(SpanKind::LinkFetch),
                m.bytes_fetched,
            ),
            (
                "Σ link_restore bytes vs refetch_bytes",
                self.bytes_of(SpanKind::LinkRestore),
                m.refetch_bytes,
            ),
            (
                "store_push span count vs pushes",
                self.of_kind(SpanKind::StorePush).count() as u64,
                m.store_pushes,
            ),
            (
                "store_take span count vs takes",
                self.of_kind(SpanKind::StoreTake).count() as u64,
                m.store_takes,
            ),
            (
                "store_discard span count vs discarded",
                self.of_kind(SpanKind::StoreDiscard).count() as u64,
                m.store_discarded,
            ),
            (
                "ticket_reissue span count vs tickets_reissued",
                self.of_kind(SpanKind::TicketReissue).count() as u64,
                m.tickets_reissued,
            ),
            (
                "bytes-0 ticket_complete span count vs stale_completions",
                self.of_kind(SpanKind::TicketComplete)
                    .filter(|s| s.bytes == 0)
                    .count() as u64,
                m.stale_completions,
            ),
            (
                "churn_action span count vs events_applied",
                self.of_kind(SpanKind::ChurnAction).count() as u64,
                m.churn_applied,
            ),
        ];
        for (what, got, want) in checks {
            if got != want {
                return Err(format!("{what}: trace says {got}, counters say {want}"));
            }
        }
        if m.codec == "flat" {
            let fetched = self.bytes_of(SpanKind::LinkFetch);
            if m.flat_wire_bytes != fetched {
                return Err(format!(
                    "flat codec: flat_wire_bytes {} != Σ link_fetch bytes {fetched}",
                    m.flat_wire_bytes
                ));
            }
        } else if m.flat_wire_bytes != 0 {
            return Err(format!(
                "tree codec ({}) with nonzero flat_wire_bytes {}",
                m.codec, m.flat_wire_bytes
            ));
        }
        let exposed = self.ledger_us(SpanKind::ExposedPlanning);
        if exposed.to_bits() != m.exposed_us.to_bits() {
            return Err(format!(
                "Σ exposed_planning ledger {exposed} != exposed_us {} (bitwise)",
                m.exposed_us
            ));
        }
        for (h, &want) in m.host_exposed_us.iter().enumerate() {
            // `+ 0.0`: a host with no exposure sums the empty ledger to
            // `-0.0` (float `Sum` folds from `-0.0`); its counter is `+0.0`.
            let got: f64 = self
                .of_kind(SpanKind::ExposedWait)
                .filter(|s| s.lane == h as i64)
                .map(|s| s.wait_us)
                .sum::<f64>()
                + 0.0;
            if got.to_bits() != want.to_bits() {
                return Err(format!(
                    "host {h}: Σ exposed_wait ledger {got} != exposed_us {want} (bitwise)"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, domain: ClockDomain, start: f64, end: f64) -> Span {
        Span {
            kind,
            domain,
            start_us: start,
            end_us: end,
            ..Span::default()
        }
    }

    #[test]
    fn disabled_sink_is_free_and_empty() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        sink.record(span(SpanKind::StorePush, ClockDomain::Host, 0.0, 0.0));
        let t = sink.finish();
        assert!(t.spans.is_empty());
        assert_eq!(t.counters.spans_recorded, 0);
    }

    #[test]
    fn disabled_timed_returns_a_duration_and_keeps_nothing() {
        let sink = TraceSink::disabled();
        let ((), us) = sink.timed(
            || std::thread::sleep(std::time::Duration::from_millis(1)),
            |_| Some(span(SpanKind::TicketPlan, ClockDomain::Host, 0.0, 0.0)),
        );
        assert!(us > 0.0, "the duration is measured without a ring: {us}");
        sink.mark(span(SpanKind::TicketClaim, ClockDomain::Host, 0.0, 0.0));
        assert!(sink.finish().spans.is_empty());
    }

    #[test]
    fn timed_span_interval_is_the_returned_duration() {
        let sink = TraceSink::bounded(8);
        let (out, us) = sink.timed(
            || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                7u64
            },
            |&bytes| {
                Some(Span {
                    bytes,
                    ..span(SpanKind::TicketEncode, ClockDomain::Host, 0.0, 0.0)
                })
            },
        );
        assert_eq!(out, 7);
        // Output-dependent skip: no span, but the duration still counts.
        let (_, skipped_us) = sink.timed(|| (), |_| None);
        assert!(skipped_us >= 0.0);
        let t = sink.finish();
        assert_eq!(t.spans.len(), 1);
        let s = &t.spans[0];
        assert_eq!((s.kind, s.bytes), (SpanKind::TicketEncode, 7));
        assert!(s.start_us > 0.0 && us >= 1000.0);
        let dur = s.end_us - s.start_us;
        assert!(
            (dur - us).abs() <= 1e-9 * us,
            "span interval {dur} µs vs returned {us} µs"
        );
    }

    #[test]
    fn mark_records_an_instant() {
        let sink = TraceSink::bounded(8);
        sink.mark(span(SpanKind::StorePush, ClockDomain::Host, 5.0, 9.0));
        let t = sink.finish();
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].start_us, t.spans[0].end_us);
        assert!(t.spans[0].start_us > 0.0);
    }

    #[test]
    fn capacity_drops_are_counted_not_kept() {
        let sink = TraceSink::bounded(2);
        for i in 0..5 {
            sink.record(span(
                SpanKind::StorePush,
                ClockDomain::Host,
                i as f64,
                i as f64,
            ));
        }
        let t = sink.finish();
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.counters.spans_recorded, 2);
        assert_eq!(t.counters.spans_dropped, 3);
        assert_eq!(t.counters.host_spans, 2);
        assert_eq!(t.counters.sim_spans, 0);
        t.validate().expect("capped trace is still well-formed");
        assert!(
            t.reconcile().is_err(),
            "dropped spans must fail reconciliation"
        );
    }

    #[test]
    fn stale_completions_reconcile_and_cancelled_ones_do_not_count() {
        let sink = TraceSink::bounded(8);
        for bytes in [1, 0, 2] {
            sink.mark(Span {
                bytes,
                ..span(SpanKind::TicketComplete, ClockDomain::Host, 0.0, 0.0)
            });
        }
        let mut t = sink.finish();
        assert!(t.reconcile().is_err(), "an unledgered stale completion");
        t.meta.stale_completions = 1;
        t.reconcile()
            .expect("one stale, the cancelled one not counted");
    }

    #[test]
    fn sim_eq_ignores_host_spans_and_catches_sim_divergence() {
        let a = TraceSink::bounded(16);
        let b = TraceSink::bounded(16);
        a.record(span(SpanKind::IterExec, ClockDomain::Sim, 0.0, 10.0));
        a.record(span(SpanKind::Decode, ClockDomain::Host, 1.0, 2.0));
        b.record(span(SpanKind::Decode, ClockDomain::Host, 99.0, 400.0));
        b.record(span(SpanKind::IterExec, ClockDomain::Sim, 0.0, 10.0));
        sim_eq(&a.finish(), &b.finish()).expect("host spans excluded");
        b.record(span(SpanKind::IterSync, ClockDomain::Sim, 10.0, 11.0));
        assert!(sim_eq(&a.finish(), &b.finish()).is_err());
    }

    #[test]
    fn json_roundtrip_preserves_sim_bits() {
        let sink = TraceSink::bounded(16);
        sink.record(span(
            SpanKind::IterExec,
            ClockDomain::Sim,
            0.1 + 0.2,
            1e9 / 3.0,
        ));
        let t = sink.finish();
        let text = serde_json::to_string_pretty(&t).expect("serialize");
        let back: Trace = serde_json::from_str(&text).expect("parse");
        assert_eq!(t, back);
        sim_eq(&t, &back).expect("bit-exact through JSON");
    }
}
