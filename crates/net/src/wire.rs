//! Wire-level framing, message tagging, and per-tag/per-peer accounting.
//!
//! Every `vl-proto` frame begins with a one-byte message tag, so the
//! transport can classify traffic without decoding it. Transports keep
//! a [`WireStats`] of delivered frames — message kind + byte size per
//! tag, plus per-peer send-queue counters — which `vl-proto`'s
//! `codec::tag_name` turns back into protocol message names for
//! reports. The transport itself stays independent of `vl-proto`:
//! tags are plain bytes here.
//!
//! [`FrameDecoder`] is the incremental half of the framing codec: the
//! readiness loop ([`crate::poll`]) feeds it whatever byte chunks the
//! kernel hands back from a nonblocking read — one byte, half a
//! header, three frames fused together — and pulls out exactly the
//! frames the blocking [`crate::tcp::read_frame`] would have produced.
//! `tests/wire_decode.rs` holds that equivalence as a property test.

use crate::NodeId;
use bytes::Bytes;
use std::collections::BTreeMap;
use std::fmt;

/// Frames above this length are rejected before allocation — a
/// corrupted or adversarial length prefix must not OOM the node.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Header size of a frame: a little-endian `u32` payload length.
pub const FRAME_HEADER_LEN: usize = 4;

/// The message tag of a framed message: its first byte. `None` for an
/// empty frame.
pub fn tag(frame: &[u8]) -> Option<u8> {
    frame.first().copied()
}

/// Decode failure: a length prefix that exceeds [`MAX_FRAME_LEN`].
///
/// Unlike a short read (which just means "wait for more bytes"), an
/// oversize header is unrecoverable — the stream can never resync —
/// so the connection must be torn down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameTooLong {
    /// The length the header claimed.
    pub claimed: u32,
    /// The configured ceiling it exceeded.
    pub max: u32,
}

impl fmt::Display for FrameTooLong {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "frame length {} exceeds maximum {}",
            self.claimed, self.max
        )
    }
}

impl std::error::Error for FrameTooLong {}

/// Incremental frame decoder for the nonblocking read path.
///
/// Feed it arbitrary chunks with [`feed`](FrameDecoder::feed), then
/// drain complete frames with [`next_frame`](FrameDecoder::next_frame)
/// (or, borrowed, [`next_slice`](FrameDecoder::next_slice))
/// until it returns `Ok(None)` (no complete frame buffered yet). A
/// truncated trailing frame is *not* an error — it simply stays
/// buffered until the rest arrives; EOF-with-partial-bytes is the
/// caller's condition to diagnose (see
/// [`mid_frame`](FrameDecoder::mid_frame)).
///
/// # Examples
///
/// ```
/// use vl_net::wire::FrameDecoder;
///
/// let mut d = FrameDecoder::new();
/// // A 3-byte frame [1,2,3], delivered byte-by-byte.
/// for b in [3u8, 0, 0, 0, 1, 2, 3] {
///     d.feed(&[b]);
/// }
/// let frame = d.next_frame().unwrap().expect("frame complete");
/// assert_eq!(&frame[..], &[1, 2, 3]);
/// assert!(d.next_frame().unwrap().is_none());
/// ```
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted lazily so draining many
    /// small frames from one big read is O(bytes), not O(bytes²).
    start: usize,
    max_frame: u32,
}

impl Default for FrameDecoder {
    fn default() -> FrameDecoder {
        FrameDecoder::new()
    }
}

impl FrameDecoder {
    /// A decoder enforcing [`MAX_FRAME_LEN`].
    pub fn new() -> FrameDecoder {
        FrameDecoder::with_max_frame(MAX_FRAME_LEN)
    }

    /// A decoder with a custom frame-length ceiling (tests).
    pub fn with_max_frame(max_frame: u32) -> FrameDecoder {
        FrameDecoder {
            buf: Vec::new(),
            start: 0,
            max_frame,
        }
    }

    /// Appends freshly-read bytes to the internal buffer.
    pub fn feed(&mut self, chunk: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(chunk);
    }

    /// The next complete frame, `Ok(None)` if more bytes are needed,
    /// or [`FrameTooLong`] if the stream is unrecoverably corrupt.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, FrameTooLong> {
        Ok(self.next_slice()?.map(Bytes::copy_from_slice))
    }

    /// [`next_frame`](FrameDecoder::next_frame) without the copy: the
    /// frame where it was fed, intact until the next call on the
    /// decoder.
    pub fn next_slice(&mut self) -> Result<Option<&[u8]>, FrameTooLong> {
        let pending = &self.buf[self.start..];
        if pending.len() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let len = u32::from_le_bytes(pending[..FRAME_HEADER_LEN].try_into().unwrap());
        if len > self.max_frame {
            return Err(FrameTooLong {
                claimed: len,
                max: self.max_frame,
            });
        }
        let total = FRAME_HEADER_LEN + len as usize;
        if pending.len() < total {
            return Ok(None);
        }
        self.compact(); // what earlier calls lent out is done with
        let payload = self.start + FRAME_HEADER_LEN;
        self.start += total;
        Ok(Some(&self.buf[payload..self.start]))
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// True when a frame has started arriving but is incomplete — the
    /// signal the loop uses to arm the frame-stall deadline.
    pub fn mid_frame(&self) -> bool {
        self.buffered() > 0
    }

    /// Reclaims the consumed prefix once it dominates the buffer (or
    /// the buffer is fully drained), keeping memory proportional to
    /// the unconsumed tail.
    fn compact(&mut self) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 4096 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

/// Per-peer send-queue counters, surfaced through [`WireStats`] and
/// the `vl report` summarizer.
///
/// `depth`/`peak_depth` are gauges (frames queued behind a slow or
/// disconnected peer, now and at the worst moment); the rest are
/// monotonic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Frames currently queued (not yet handed to the kernel).
    pub depth: u64,
    /// High-water mark of `depth`.
    pub peak_depth: u64,
    /// Frames ever enqueued toward this peer.
    pub enqueued: u64,
    /// Frames dropped because the bounded queue overflowed (oldest
    /// first, matching the blocking transport's shed policy).
    pub dropped_overflow: u64,
    /// Times a flush left bytes behind because the kernel send buffer
    /// was full (`EWOULDBLOCK`) — the backpressure signal.
    pub backpressure: u64,
}

impl QueueStats {
    /// Folds `other` into an aggregate: counters sum, `depth` sums
    /// (it is a point-in-time total across peers), `peak_depth` takes
    /// the worst single peer.
    pub fn absorb(&mut self, other: QueueStats) {
        self.depth += other.depth;
        self.peak_depth = self.peak_depth.max(other.peak_depth);
        self.enqueued += other.enqueued;
        self.dropped_overflow += other.dropped_overflow;
        self.backpressure += other.backpressure;
    }
}

/// Count and byte totals of delivered frames, keyed by message tag,
/// plus per-peer send-queue counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    per_tag: BTreeMap<u8, TagStats>,
    queues: BTreeMap<NodeId, QueueStats>,
}

/// Totals for one message tag.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TagStats {
    /// Frames delivered.
    pub frames: u64,
    /// Total payload bytes (including the tag byte).
    pub bytes: u64,
}

impl WireStats {
    /// Empty stats.
    pub fn new() -> WireStats {
        WireStats::default()
    }

    /// Accounts one delivered frame.
    pub fn record(&mut self, frame: &[u8]) {
        let Some(tag) = tag(frame) else { return };
        let e = self.per_tag.entry(tag).or_default();
        e.frames += 1;
        e.bytes += frame.len() as u64;
    }

    /// Totals for `tag`, zero if never seen.
    pub fn for_tag(&self, tag: u8) -> TagStats {
        self.per_tag.get(&tag).copied().unwrap_or_default()
    }

    /// All seen tags with their totals, ascending by tag.
    pub fn iter(&self) -> impl Iterator<Item = (u8, TagStats)> + '_ {
        self.per_tag.iter().map(|(&t, &s)| (t, s))
    }

    /// Total frames across all tags.
    pub fn total_frames(&self) -> u64 {
        self.per_tag.values().map(|s| s.frames).sum()
    }

    /// Total bytes across all tags.
    pub fn total_bytes(&self) -> u64 {
        self.per_tag.values().map(|s| s.bytes).sum()
    }

    /// Replaces the send-queue snapshot for `peer`. The transport's
    /// loop owns the live counters and publishes them here.
    pub fn record_queue(&mut self, peer: NodeId, stats: QueueStats) {
        self.queues.insert(peer, stats);
    }

    /// Send-queue counters for `peer`, zero if never seen.
    pub fn queue(&self, peer: NodeId) -> QueueStats {
        self.queues.get(&peer).copied().unwrap_or_default()
    }

    /// All peers with send-queue counters, ascending by peer id.
    pub fn queues(&self) -> impl Iterator<Item = (NodeId, QueueStats)> + '_ {
        self.queues.iter().map(|(&p, &q)| (p, q))
    }

    /// Folds another node's stats into this one — the cross-shard
    /// aggregation a sharded transport uses to present one combined
    /// view. Tag counters sum; queue snapshots for the same peer
    /// [`absorb`](QueueStats::absorb) (each peer lives on exactly one
    /// shard at a time, so the union is normally disjoint).
    pub fn merge(&mut self, other: &WireStats) {
        for (&tag, s) in other.per_tag.iter() {
            let e = self.per_tag.entry(tag).or_default();
            e.frames += s.frames;
            e.bytes += s.bytes;
        }
        for (&peer, &q) in other.queues.iter() {
            self.queues.entry(peer).or_default().absorb(q);
        }
    }

    /// Send-queue counters aggregated across all peers (see
    /// [`QueueStats::absorb`] for the fold semantics).
    pub fn queue_totals(&self) -> QueueStats {
        let mut total = QueueStats::default();
        for q in self.queues.values() {
            total.absorb(*q);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_by_first_byte() {
        let mut w = WireStats::new();
        w.record(&[0x01, 0, 0]);
        w.record(&[0x01]);
        w.record(&[0x83, 1, 2, 3]);
        w.record(&[]); // ignored
        assert_eq!(
            w.for_tag(0x01),
            TagStats {
                frames: 2,
                bytes: 4
            }
        );
        assert_eq!(
            w.for_tag(0x83),
            TagStats {
                frames: 1,
                bytes: 4
            }
        );
        assert_eq!(w.for_tag(0x55), TagStats::default());
        assert_eq!(w.total_frames(), 3);
        assert_eq!(w.total_bytes(), 8);
        assert_eq!(w.iter().count(), 2);
    }

    fn frame_bytes(payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn decoder_handles_split_merged_and_empty_frames() {
        let mut d = FrameDecoder::new();
        // Two frames and a keepalive fused into one feed.
        let mut wire = frame_bytes(b"alpha");
        wire.extend_from_slice(&frame_bytes(b""));
        wire.extend_from_slice(&frame_bytes(b"beta"));
        d.feed(&wire);
        assert_eq!(&d.next_frame().unwrap().unwrap()[..], b"alpha");
        assert_eq!(&d.next_frame().unwrap().unwrap()[..], b"");
        assert_eq!(&d.next_frame().unwrap().unwrap()[..], b"beta");
        assert!(d.next_frame().unwrap().is_none());
        assert!(!d.mid_frame());

        // A header split across feeds stays pending, not an error.
        d.feed(&[2, 0]);
        assert!(d.next_frame().unwrap().is_none());
        assert!(d.mid_frame());
        d.feed(&[0, 0, 0xAA]);
        assert!(d.next_frame().unwrap().is_none(), "1 of 2 payload bytes");
        d.feed(&[0xBB]);
        assert_eq!(&d.next_frame().unwrap().unwrap()[..], &[0xAA, 0xBB]);
    }

    #[test]
    fn decoder_rejects_oversize_header_without_allocating() {
        let mut d = FrameDecoder::new();
        d.feed(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let err = d.next_frame().unwrap_err();
        assert_eq!(err.claimed, MAX_FRAME_LEN + 1);
        assert_eq!(err.max, MAX_FRAME_LEN);
    }

    #[test]
    fn decoder_compacts_consumed_prefix() {
        let mut d = FrameDecoder::new();
        let payload = vec![7u8; 1000];
        for _ in 0..100 {
            d.feed(&frame_bytes(&payload));
            assert_eq!(d.next_frame().unwrap().unwrap().len(), 1000);
        }
        assert_eq!(d.buffered(), 0);
        // Fully drained: the buffer was reclaimed, not grown 100x.
        assert!(d.buf.capacity() < 100 * 1004);
    }

    #[test]
    fn queue_stats_fold_and_lookup() {
        use crate::NodeId;
        use vl_types::{ClientId, ServerId};
        let mut w = WireStats::new();
        w.record_queue(
            NodeId::Client(ClientId(1)),
            QueueStats {
                depth: 3,
                peak_depth: 10,
                enqueued: 50,
                dropped_overflow: 2,
                backpressure: 1,
            },
        );
        w.record_queue(
            NodeId::Client(ClientId(2)),
            QueueStats {
                depth: 1,
                peak_depth: 4,
                enqueued: 20,
                dropped_overflow: 0,
                backpressure: 5,
            },
        );
        assert_eq!(w.queue(NodeId::Client(ClientId(1))).peak_depth, 10);
        assert_eq!(w.queue(NodeId::Server(ServerId(9))), QueueStats::default());
        let total = w.queue_totals();
        assert_eq!(total.depth, 4);
        assert_eq!(total.peak_depth, 10, "peak is worst single peer");
        assert_eq!(total.enqueued, 70);
        assert_eq!(total.dropped_overflow, 2);
        assert_eq!(total.backpressure, 6);
        assert_eq!(w.queues().count(), 2);
    }
}
