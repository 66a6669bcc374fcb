//! Point-to-point network links with α-β (latency + bandwidth) cost and
//! FIFO occupancy, plus the host-pair [`Fabric`] the cluster layer
//! charges wire time against — the wire model under the cluster layer's
//! plan distribution.
//!
//! The GPU-side communication in this crate ([`crate::channel`]) matches
//! send/recv pairs inside one training job; this module models the
//! *control-plane* hops of the paper's Fig. 9 deployment instead: a
//! planner host pushing a serialized plan blob to an instruction-store
//! shard, and an executor host fetching it. Both are single-direction
//! bulk transfers, so the same α-β form the hardware model uses for
//! inter-node tensor traffic applies: a transfer of `n` bytes costs
//! `latency_us + n / bandwidth`.
//!
//! Two layers:
//!
//! * [`LinkModel`] / [`Link`] — the cost of one hop, and a stateful FIFO
//!   connection over it. A link carries one transfer at a time; a blob
//!   that arrives while the link is busy queues behind the previous one,
//!   so burst pushes (a planner pool finishing several iterations at
//!   once) serialize on the wire instead of teleporting. `transmit` is
//!   deterministic given its inputs — the cluster layer drives it with
//!   timeline timestamps and reports the resulting wire time per host.
//! * [`Fabric`] — a **non-uniform host-pair matrix** of link models:
//!   same-host transfers are free, same-rack pairs ride the intra-node
//!   numbers, and cross-rack pairs ride the (optionally oversubscribed)
//!   inter-node numbers, the way an oversubscribed fat-tree prices rack
//!   locality. The fabric is *part of the scenario, never the behavior*:
//!   it decides what bytes cost, and the differential harness pins that
//!   no fabric choice can move a bit of the `RunReport`.
//!
//! Degenerate link models (`bandwidth <= 0`, negative or non-finite
//! latency) used to make [`LinkModel::transfer_us`] return NaN for
//! zero-byte transfers (`0.0 / 0.0`), which silently poisoned
//! `busy_until_us` / `wire_us` and every downstream overlap ratio —
//! `f64::max` *ignores* NaN, so the corruption never tripped an assert.
//! [`LinkModel::new`] now rejects such models with a typed
//! [`LinkModelError`], every fabric constructor validates through it,
//! and `transfer_us` itself clamps the degenerate cases (with a debug
//! assert) so it can never return NaN even over a hand-built struct
//! literal.

/// Why a [`LinkModel`] (or a [`Fabric`] built from one) was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkModelError {
    /// `bandwidth` must be strictly positive (infinite is allowed — that
    /// is the free local link). Zero or negative bandwidth makes
    /// `bytes / bandwidth` NaN or negative.
    NonPositiveBandwidth(f64),
    /// `bandwidth` must not be NaN.
    NanBandwidth,
    /// `latency_us` must be finite and non-negative.
    InvalidLatency(f64),
    /// An oversubscription factor must be finite and ≥ 1.
    InvalidOversubscription(f64),
    /// A rack must hold at least one host.
    EmptyRack,
}

impl std::fmt::Display for LinkModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkModelError::NonPositiveBandwidth(b) => {
                write!(f, "link bandwidth must be > 0 bytes/µs, got {b}")
            }
            LinkModelError::NanBandwidth => write!(f, "link bandwidth must not be NaN"),
            LinkModelError::InvalidLatency(l) => {
                write!(f, "link latency must be finite and >= 0 µs, got {l}")
            }
            LinkModelError::InvalidOversubscription(o) => {
                write!(
                    f,
                    "oversubscription factor must be finite and >= 1, got {o}"
                )
            }
            LinkModelError::EmptyRack => write!(f, "hosts_per_rack must be >= 1"),
        }
    }
}

impl std::error::Error for LinkModelError {}

/// α-β cost model of one network hop (latency in µs, bandwidth in
/// bytes/µs — the same units as
/// `dynapipe_model::HardwareModel::inter_node_bw`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Per-transfer latency (α), µs.
    pub latency_us: f64,
    /// Sustained bandwidth (β), bytes/µs.
    pub bandwidth: f64,
}

impl LinkModel {
    /// The validating constructor: rejects the degenerate models that
    /// would otherwise make [`LinkModel::transfer_us`] produce NaN (see
    /// the module docs). Struct-literal construction remains possible
    /// for infallible call sites; everything that *configures* a link
    /// (fabric builders, cluster configs) should go through here.
    pub fn new(latency_us: f64, bandwidth: f64) -> Result<Self, LinkModelError> {
        let m = LinkModel {
            latency_us,
            bandwidth,
        };
        m.validate()?;
        Ok(m)
    }

    /// Check this model against the constructor's invariants.
    pub fn validate(&self) -> Result<(), LinkModelError> {
        if self.bandwidth.is_nan() {
            return Err(LinkModelError::NanBandwidth);
        }
        if self.bandwidth <= 0.0 {
            return Err(LinkModelError::NonPositiveBandwidth(self.bandwidth));
        }
        if !self.latency_us.is_finite() || self.latency_us < 0.0 {
            return Err(LinkModelError::InvalidLatency(self.latency_us));
        }
        Ok(())
    }

    /// A link over which transfers are free — the degenerate topology
    /// where both endpoints are the same host.
    pub fn local() -> Self {
        LinkModel {
            latency_us: 0.0,
            bandwidth: f64::INFINITY,
        }
    }

    /// Whether transfers over this link cost nothing.
    pub fn is_local(&self) -> bool {
        self.latency_us == 0.0 && self.bandwidth.is_infinite()
    }

    /// Time for one `bytes`-sized transfer on an idle link (µs).
    ///
    /// Never returns NaN, even for a degenerate hand-built model: a
    /// zero-byte transfer costs exactly the latency (the `0 / 0` case),
    /// an invalid latency is clamped to zero, and a non-positive
    /// bandwidth makes the transfer take effectively forever
    /// (`f64::INFINITY`) rather than poisoning downstream accounting
    /// with NaN. Debug builds assert validity so the clamp never hides
    /// a misconfiguration in tests.
    pub fn transfer_us(&self, bytes: u64) -> f64 {
        debug_assert!(
            self.validate().is_ok(),
            "degenerate LinkModel reached transfer_us: {:?}",
            self.validate().err()
        );
        let alpha = if self.latency_us.is_finite() && self.latency_us > 0.0 {
            self.latency_us
        } else {
            0.0
        };
        if bytes == 0 {
            return alpha; // avoids 0/0 → NaN under bandwidth == 0.0
        }
        if !(self.bandwidth > 0.0) {
            return f64::INFINITY; // zero/negative/NaN bandwidth: never arrives
        }
        alpha + bytes as f64 / self.bandwidth
    }
}

/// One directed link with FIFO occupancy: transfers queue behind each
/// other, never overlap.
#[derive(Debug, Clone)]
pub struct Link {
    model: LinkModel,
    busy_until_us: f64,
    /// Total bytes ever transmitted.
    bytes: u64,
    /// Σ (arrival − start) across transfers: wire time including
    /// queueing, µs.
    wire_us: f64,
}

impl Link {
    /// An idle link with the given cost model. Debug builds assert the
    /// model is valid (local links are); release builds rely on
    /// [`LinkModel::transfer_us`]'s NaN-proof clamping.
    pub fn new(model: LinkModel) -> Self {
        debug_assert!(
            model.is_local() || model.validate().is_ok(),
            "degenerate LinkModel handed to Link::new: {:?}",
            model.validate().err()
        );
        Link {
            model,
            busy_until_us: 0.0,
            bytes: 0,
            wire_us: 0.0,
        }
    }

    /// The link's cost model.
    pub fn model(&self) -> LinkModel {
        self.model
    }

    /// Transmit `bytes` starting no earlier than `start_us`; returns the
    /// arrival time at the far end (µs). The link is occupied for the
    /// whole transfer, so a transfer issued while the link is busy
    /// starts when the previous one drains (FIFO). A
    /// [`LinkModel::local`] link is not a serializing resource — both
    /// endpoints share host memory — so transfers pass through untimed
    /// and uncounted.
    pub fn transmit(&mut self, start_us: f64, bytes: u64) -> f64 {
        if self.model.is_local() {
            return start_us;
        }
        let begin = start_us.max(self.busy_until_us);
        let arrival = begin + self.model.transfer_us(bytes);
        self.busy_until_us = arrival;
        self.bytes += bytes;
        self.wire_us += arrival - start_us;
        arrival
    }

    /// Total bytes transmitted so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Total wire time (transfer + queueing) accumulated so far, µs.
    pub fn wire_us(&self) -> f64 {
        self.wire_us
    }

    /// When the link drains its current FIFO backlog (µs). A transfer
    /// issued at `start_us` waits `max(0, busy_until_us - start_us)`
    /// before its bytes move — the queue-wait half of a per-blob link
    /// span.
    pub fn busy_until_us(&self) -> f64 {
        self.busy_until_us
    }
}

/// The host-pair cost matrix of a deployment: which [`LinkModel`] a
/// transfer from global host `src` to global host `dst` rides.
///
/// Hosts are identified by a single **global index space** (the cluster
/// layer maps executor hosts to `[0, E)` and planner hosts above them).
/// Racks are contiguous blocks of `hosts_per_rack` global indices:
///
/// * `src == dst` — same host, free ([`LinkModel::local`]);
/// * same rack — the intra-rack model (e.g. the hardware model's
///   intra-node NVLink/PCIe numbers);
/// * different racks — the inter-rack model, with its bandwidth divided
///   by the oversubscription factor (a fat-tree whose uplinks carry
///   `1/f` of the in-rack bisection, the usual datacenter economy).
///
/// The matrix is a pure cost function — FIFO state lives in the
/// per-connection [`Link`]s the cluster layer instantiates from it — so
/// cloning a `Fabric` is cheap and a config carrying one stays a plain
/// value type.
#[derive(Debug, Clone, PartialEq)]
pub struct Fabric {
    /// Hosts per rack; `usize::MAX` means "one flat rack" (the uniform
    /// fabric).
    hosts_per_rack: usize,
    /// Link model for same-rack, different-host pairs.
    intra: LinkModel,
    /// Link model for cross-rack pairs (already divided by the
    /// oversubscription factor).
    inter: LinkModel,
}

impl Fabric {
    /// Every distinct-host pair rides `model`; same-host transfers are
    /// free. This is the degenerate single-switch fabric — exactly the
    /// old uniform `link: LinkModel` configuration.
    pub fn uniform(model: LinkModel) -> Result<Self, LinkModelError> {
        if !model.is_local() {
            model.validate()?;
        }
        Ok(Fabric {
            hosts_per_rack: usize::MAX,
            intra: model,
            inter: model,
        })
    }

    /// A fabric over which every transfer is free — the A/B control arm
    /// (all hosts collapse onto one machine's memory).
    pub fn free() -> Self {
        Fabric {
            hosts_per_rack: usize::MAX,
            intra: LinkModel::local(),
            inter: LinkModel::local(),
        }
    }

    /// A rack-structured fabric: `hosts_per_rack` hosts share the
    /// `intra` model, cross-rack pairs ride `inter` with its bandwidth
    /// divided by `oversubscription` (≥ 1).
    pub fn datacenter(
        hosts_per_rack: usize,
        intra: LinkModel,
        inter: LinkModel,
        oversubscription: f64,
    ) -> Result<Self, LinkModelError> {
        if hosts_per_rack == 0 {
            return Err(LinkModelError::EmptyRack);
        }
        if !oversubscription.is_finite() || oversubscription < 1.0 {
            return Err(LinkModelError::InvalidOversubscription(oversubscription));
        }
        intra.validate()?;
        inter.validate()?;
        let inter = LinkModel::new(inter.latency_us, inter.bandwidth / oversubscription)?;
        Ok(Fabric {
            hosts_per_rack,
            intra,
            inter,
        })
    }

    /// Which rack a global host index sits in.
    pub fn rack_of(&self, host: usize) -> usize {
        if self.hosts_per_rack == usize::MAX {
            0
        } else {
            host / self.hosts_per_rack
        }
    }

    /// The link model for a `src → dst` transfer.
    pub fn model(&self, src: usize, dst: usize) -> LinkModel {
        if src == dst {
            LinkModel::local()
        } else if self.rack_of(src) == self.rack_of(dst) {
            self.intra
        } else {
            self.inter
        }
    }

    /// Whether a `src → dst` transfer costs nothing (same host, or a
    /// deliberately free fabric).
    pub fn is_local(&self, src: usize, dst: usize) -> bool {
        self.model(src, dst).is_local()
    }

    /// A fresh FIFO connection over the `src → dst` model.
    pub fn connect(&self, src: usize, dst: usize) -> Link {
        Link::new(self.model(src, dst))
    }

    /// Compact label for reports: `"uniform"` / `"free"` /
    /// `"racks(8)×f"` where `f` marks the oversubscribed fat-tree.
    pub fn label(&self) -> String {
        if self.hosts_per_rack == usize::MAX {
            if self.intra.is_local() {
                "free".to_string()
            } else {
                "uniform".to_string()
            }
        } else {
            format!("racks({})", self.hosts_per_rack)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_beta_cost() {
        let m = LinkModel {
            latency_us: 10.0,
            bandwidth: 100.0,
        };
        assert_eq!(m.transfer_us(0), 10.0);
        assert_eq!(m.transfer_us(1000), 20.0);
    }

    #[test]
    fn local_link_is_free() {
        let mut l = Link::new(LinkModel::local());
        assert!(l.model().is_local());
        assert_eq!(l.transmit(5.0, 1 << 30), 5.0);
        assert_eq!(l.wire_us(), 0.0);
    }

    #[test]
    fn fifo_occupancy_queues_bursts() {
        let m = LinkModel {
            latency_us: 5.0,
            bandwidth: 1.0,
        };
        let mut l = Link::new(m);
        // Two 10-byte blobs issued at the same instant: the second waits
        // for the first to drain.
        assert_eq!(l.transmit(0.0, 10), 15.0);
        assert_eq!(l.transmit(0.0, 10), 30.0);
        // A transfer issued after the link idles starts immediately.
        assert_eq!(l.transmit(100.0, 10), 115.0);
        assert_eq!(l.bytes(), 30);
        // Wire time counts queueing: 15 + 30 + 15.
        assert_eq!(l.wire_us(), 60.0);
    }

    #[test]
    fn constructor_rejects_degenerate_models() {
        assert!(LinkModel::new(10.0, 100.0).is_ok());
        assert!(LinkModel::new(0.0, f64::INFINITY).is_ok(), "local is valid");
        assert_eq!(
            LinkModel::new(10.0, 0.0),
            Err(LinkModelError::NonPositiveBandwidth(0.0))
        );
        assert_eq!(
            LinkModel::new(10.0, -1.0),
            Err(LinkModelError::NonPositiveBandwidth(-1.0))
        );
        assert_eq!(
            LinkModel::new(10.0, f64::NAN),
            Err(LinkModelError::NanBandwidth)
        );
        assert_eq!(
            LinkModel::new(-1.0, 100.0),
            Err(LinkModelError::InvalidLatency(-1.0))
        );
        assert!(matches!(
            LinkModel::new(f64::NAN, 100.0),
            Err(LinkModelError::InvalidLatency(_))
        ));
        assert!(matches!(
            LinkModel::new(f64::INFINITY, 100.0),
            Err(LinkModelError::InvalidLatency(_))
        ));
    }

    #[test]
    fn transfer_us_never_returns_nan() {
        // The historical bug: bandwidth 0.0 with bytes 0 evaluated
        // 0.0/0.0 = NaN, which f64::max silently ignores downstream.
        let degenerate = LinkModel {
            latency_us: 7.0,
            bandwidth: 0.0,
        };
        // debug_assert would fire in tests; check the clamp through the
        // release-mode semantics by calling validate first.
        assert!(degenerate.validate().is_err());
        if cfg!(not(debug_assertions)) {
            assert_eq!(degenerate.transfer_us(0), 7.0, "0/0 must not be NaN");
            assert_eq!(degenerate.transfer_us(10), f64::INFINITY);
            let neg_latency = LinkModel {
                latency_us: -3.0,
                bandwidth: 100.0,
            };
            assert_eq!(neg_latency.transfer_us(0), 0.0, "clamped, not negative");
            assert!(!neg_latency.transfer_us(100).is_nan());
        }
        // Valid models: zero bytes costs exactly the latency.
        let m = LinkModel::new(7.0, 10.0).expect("valid model");
        assert_eq!(m.transfer_us(0), 7.0);
        assert!(m.transfer_us(u64::MAX).is_finite());
    }

    #[test]
    fn debug_builds_reject_degenerate_transfer() {
        let degenerate = LinkModel {
            latency_us: 0.0,
            bandwidth: 0.0,
        };
        // Release builds clamp (checked above); debug builds must refuse
        // loudly instead of letting the clamp hide a misconfiguration.
        let outcome = std::panic::catch_unwind(|| degenerate.transfer_us(0));
        if cfg!(debug_assertions) {
            assert!(outcome.is_err(), "debug assert should have fired");
        } else {
            assert_eq!(outcome.expect("release builds clamp"), 0.0);
        }
    }

    #[test]
    fn uniform_fabric_matches_single_link_model() {
        let m = LinkModel::new(5.0, 100.0).expect("valid");
        let f = Fabric::uniform(m).expect("valid model");
        assert_eq!(f.model(0, 0), LinkModel::local(), "same host is free");
        assert_eq!(f.model(0, 7), m);
        assert_eq!(f.model(7, 0), m);
        assert_eq!(f.rack_of(0), f.rack_of(1000), "uniform fabric is one rack");
        assert_eq!(f.label(), "uniform");
        assert_eq!(Fabric::free().label(), "free");
        assert!(Fabric::free().is_local(3, 9));
        assert!(
            Fabric::uniform(LinkModel {
                latency_us: 1.0,
                bandwidth: 0.0
            })
            .is_err(),
            "uniform fabric validates its model"
        );
    }

    #[test]
    fn datacenter_fabric_prices_rack_locality_and_oversubscription() {
        let intra = LinkModel::new(8.0, 300.0).expect("valid");
        let inter = LinkModel::new(28.0, 100.0).expect("valid");
        let f = Fabric::datacenter(4, intra, inter, 4.0).expect("valid fabric");
        // Hosts 0..4 share rack 0, hosts 4..8 rack 1.
        assert_eq!(f.rack_of(3), 0);
        assert_eq!(f.rack_of(4), 1);
        assert!(f.model(0, 0).is_local());
        assert_eq!(f.model(0, 3), intra, "same rack rides intra numbers");
        let cross = f.model(0, 4);
        assert_eq!(cross.latency_us, 28.0);
        assert_eq!(cross.bandwidth, 25.0, "inter bandwidth / oversubscription");
        // A cross-rack transfer is strictly slower than an in-rack one.
        assert!(cross.transfer_us(1 << 20) > intra.transfer_us(1 << 20));
        assert_eq!(f.label(), "racks(4)");
        // Validation: empty racks, silly oversubscription, bad models.
        assert_eq!(
            Fabric::datacenter(0, intra, inter, 4.0),
            Err(LinkModelError::EmptyRack)
        );
        assert_eq!(
            Fabric::datacenter(4, intra, inter, 0.5),
            Err(LinkModelError::InvalidOversubscription(0.5))
        );
        assert!(Fabric::datacenter(
            4,
            LinkModel {
                latency_us: -1.0,
                bandwidth: 10.0
            },
            inter,
            1.0
        )
        .is_err());
    }

    #[test]
    fn fabric_connections_carry_fifo_state_independently() {
        let f = Fabric::datacenter(
            2,
            LinkModel::new(0.0, 10.0).expect("valid"),
            LinkModel::new(0.0, 10.0).expect("valid"),
            2.0,
        )
        .expect("valid fabric");
        let mut in_rack = f.connect(0, 1);
        let mut cross = f.connect(0, 2);
        // 100 bytes: 10 µs in rack, 20 µs across (oversubscribed).
        assert_eq!(in_rack.transmit(0.0, 100), 10.0);
        assert_eq!(cross.transmit(0.0, 100), 20.0);
        // Occupancy is per connection: the in-rack link queues its own
        // second transfer but is oblivious to the cross-rack one.
        assert_eq!(in_rack.transmit(0.0, 100), 20.0);
        assert_eq!(f.connect(0, 1).transmit(0.0, 100), 10.0, "fresh connection");
    }
}
