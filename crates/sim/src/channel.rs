//! NCCL-like ordered point-to-point channels.
//!
//! "Only one communication operation can happen between each pair of
//! devices (required by libraries like NCCL)" (§2.3). We model each
//! unordered device pair as a single channel. Devices post their
//! communication ops in program order; a transfer launches only when *both*
//! queue heads are present, form a complementary send/receive pair, agree on
//! tag and size, and the channel is idle. Two sends (or two receives) at the
//! heads — the situation the paper's Fig. 8b red arrows create under naive
//! scheduling — is an immediate, diagnosable deadlock.

use crate::op::{CommDir, CommTag};
use dynapipe_model::{Bytes, Micros};
use std::collections::VecDeque;

/// A communication op posted by one side of a channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PostedOp {
    /// Device that posted the op.
    pub device: usize,
    /// Send or receive from the poster's perspective.
    pub dir: CommDir,
    /// Payload size.
    pub bytes: Bytes,
    /// Correlation tag.
    pub tag: CommTag,
    /// Simulation time at which the op was posted.
    pub posted_at: Micros,
}

/// Why a pair of queue heads cannot form a transfer.
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelError {
    /// Both heads are sends or both are receives — classic NCCL deadlock.
    DirectionMismatch {
        /// The two devices of the channel.
        pair: (usize, usize),
        /// Direction posted by the lower-ranked device.
        low_dir: CommDir,
        /// Direction posted by the higher-ranked device.
        high_dir: CommDir,
    },
    /// Heads are a send/recv pair but with different tags: the plan's
    /// communication orders disagree across the two stages.
    OrderMismatch {
        /// The two devices of the channel.
        pair: (usize, usize),
        /// Tag at the lower-ranked device's head.
        low_tag: CommTag,
        /// Tag at the higher-ranked device's head.
        high_tag: CommTag,
    },
    /// Heads match in order but disagree on payload size.
    SizeMismatch {
        /// The two devices of the channel.
        pair: (usize, usize),
        /// Matching tag.
        tag: CommTag,
        /// Sizes posted by the two sides.
        sizes: (Bytes, Bytes),
    },
}

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelError::DirectionMismatch {
                pair,
                low_dir,
                high_dir,
            } => write!(
                f,
                "deadlock on channel {:?}: device {} posted {:?} while device {} posted {:?}",
                pair, pair.0, low_dir, pair.1, high_dir
            ),
            ChannelError::OrderMismatch {
                pair,
                low_tag,
                high_tag,
            } => write!(
                f,
                "communication order mismatch on channel {:?}: tags {} vs {}",
                pair, low_tag, high_tag
            ),
            ChannelError::SizeMismatch { pair, tag, sizes } => write!(
                f,
                "size mismatch on channel {:?} tag {}: {} vs {} bytes",
                pair, tag, sizes.0, sizes.1
            ),
        }
    }
}

/// A transfer ready to launch, produced by [`Channel::try_match`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchedTransfer {
    /// Correlation tag (same on both sides).
    pub tag: CommTag,
    /// Payload size.
    pub bytes: Bytes,
    /// Earliest time the transfer may start (both posts present).
    pub ready_at: Micros,
    /// The sending device.
    pub src: usize,
    /// The receiving device.
    pub dst: usize,
}

/// One ordered channel between a device pair.
#[derive(Debug, Default)]
pub struct Channel {
    low_queue: VecDeque<PostedOp>,
    high_queue: VecDeque<PostedOp>,
    /// Time until which the channel's link is occupied by a transfer.
    pub busy_until: Micros,
}

impl Channel {
    /// Create an idle channel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Post `op` from `op.device`; `pair` is the channel's (low, high) key.
    pub fn post(&mut self, pair: (usize, usize), op: PostedOp) {
        debug_assert!(op.device == pair.0 || op.device == pair.1);
        if op.device == pair.0 {
            self.low_queue.push_back(op);
        } else {
            self.high_queue.push_back(op);
        }
    }

    /// If both heads are present and compatible, pop them and return the
    /// transfer; error if they are incompatible; `Ok(None)` if a side is
    /// still missing.
    pub fn try_match(
        &mut self,
        pair: (usize, usize),
    ) -> Result<Option<MatchedTransfer>, ChannelError> {
        let (Some(low), Some(high)) = (self.low_queue.front(), self.high_queue.front()) else {
            return Ok(None);
        };
        match (low.dir, high.dir) {
            (CommDir::Send, CommDir::Recv) | (CommDir::Recv, CommDir::Send) => {}
            (ld, hd) => {
                return Err(ChannelError::DirectionMismatch {
                    pair,
                    low_dir: ld,
                    high_dir: hd,
                })
            }
        }
        if low.tag != high.tag {
            return Err(ChannelError::OrderMismatch {
                pair,
                low_tag: low.tag,
                high_tag: high.tag,
            });
        }
        if low.bytes != high.bytes {
            return Err(ChannelError::SizeMismatch {
                pair,
                tag: low.tag,
                sizes: (low.bytes, high.bytes),
            });
        }
        let (src, dst) = if low.dir == CommDir::Send {
            (low.device, high.device)
        } else {
            (high.device, low.device)
        };
        let ready_at = low.posted_at.max(high.posted_at);
        let t = MatchedTransfer {
            tag: low.tag,
            bytes: low.bytes,
            ready_at,
            src,
            dst,
        };
        self.low_queue.pop_front();
        self.high_queue.pop_front();
        Ok(Some(t))
    }
}

/// Key for the channel between devices `a` and `b`.
pub fn pair_key(a: usize, b: usize) -> (usize, usize) {
    (a.min(b), a.max(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn post(ch: &mut Channel, device: usize, dir: CommDir, tag: CommTag, at: Micros) {
        ch.post(
            pair_key(0, 1),
            PostedOp {
                device,
                dir,
                bytes: 64,
                tag,
                posted_at: at,
            },
        );
    }

    #[test]
    fn matching_send_recv_launches_transfer() {
        let mut ch = Channel::new();
        post(&mut ch, 0, CommDir::Send, 1, 10.0);
        assert_eq!(ch.try_match(pair_key(0, 1)).unwrap(), None);
        post(&mut ch, 1, CommDir::Recv, 1, 25.0);
        let t = ch.try_match(pair_key(0, 1)).unwrap().unwrap();
        assert_eq!(t.src, 0);
        assert_eq!(t.dst, 1);
        assert_eq!(t.ready_at, 25.0, "transfer waits for the later post");
        assert!(ch.low_queue.is_empty() && ch.high_queue.is_empty());
    }

    #[test]
    fn two_sends_deadlock() {
        let mut ch = Channel::new();
        post(&mut ch, 0, CommDir::Send, 1, 0.0);
        post(&mut ch, 1, CommDir::Send, 2, 0.0);
        let err = ch.try_match(pair_key(0, 1)).unwrap_err();
        assert!(matches!(err, ChannelError::DirectionMismatch { .. }));
    }

    #[test]
    fn tag_mismatch_is_order_error() {
        let mut ch = Channel::new();
        post(&mut ch, 0, CommDir::Send, 1, 0.0);
        post(&mut ch, 1, CommDir::Recv, 9, 0.0);
        let err = ch.try_match(pair_key(0, 1)).unwrap_err();
        assert!(matches!(err, ChannelError::OrderMismatch { .. }));
    }

    #[test]
    fn size_mismatch_detected() {
        let mut ch = Channel::new();
        ch.post(
            pair_key(0, 1),
            PostedOp {
                device: 0,
                dir: CommDir::Send,
                bytes: 10,
                tag: 1,
                posted_at: 0.0,
            },
        );
        ch.post(
            pair_key(0, 1),
            PostedOp {
                device: 1,
                dir: CommDir::Recv,
                bytes: 20,
                tag: 1,
                posted_at: 0.0,
            },
        );
        let err = ch.try_match(pair_key(0, 1)).unwrap_err();
        assert!(matches!(err, ChannelError::SizeMismatch { .. }));
    }

    #[test]
    fn queued_ops_match_in_fifo_order() {
        let mut ch = Channel::new();
        post(&mut ch, 0, CommDir::Send, 1, 0.0);
        post(&mut ch, 0, CommDir::Send, 2, 1.0);
        post(&mut ch, 1, CommDir::Recv, 1, 2.0);
        post(&mut ch, 1, CommDir::Recv, 2, 3.0);
        let t1 = ch.try_match(pair_key(0, 1)).unwrap().unwrap();
        assert_eq!(t1.tag, 1);
        let t2 = ch.try_match(pair_key(0, 1)).unwrap().unwrap();
        assert_eq!(t2.tag, 2);
        assert_eq!(ch.try_match(pair_key(0, 1)).unwrap(), None);
    }

    #[test]
    fn recv_first_then_send_matches() {
        let mut ch = Channel::new();
        post(&mut ch, 1, CommDir::Send, 4, 5.0);
        post(&mut ch, 0, CommDir::Recv, 4, 1.0);
        let t = ch.try_match(pair_key(0, 1)).unwrap().unwrap();
        assert_eq!(t.src, 1);
        assert_eq!(t.dst, 0);
    }
}
