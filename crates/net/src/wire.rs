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
//! [`FrameDecoder`] is the incremental half of the framing codec: given
//! whatever byte chunks the kernel hands back from a nonblocking read —
//! one byte, half a header, three frames fused together — it yields
//! exactly the frames the blocking [`crate::tcp::read_frame`] would have
//! produced. `tests/wire_decode.rs` holds that equivalence as a property
//! test. The readiness loop ([`crate::poll`]) takes whole frames from
//! its read buffer through [`FrameDecoder::next_in`] and leaves only a
//! frame split across reads in the decoder; a drained decoder holds no
//! buffer.

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

/// The whole length, header included, of the frame whose header starts
/// `bytes`; `Ok(None)` while the header is incomplete.
fn frame_len(bytes: &[u8], max_frame: u32) -> Result<Option<usize>, FrameTooLong> {
    let Some(header) = bytes.first_chunk::<FRAME_HEADER_LEN>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(*header);
    if len > max_frame {
        return Err(FrameTooLong {
            claimed: len,
            max: max_frame,
        });
    }
    Ok(Some(FRAME_HEADER_LEN + len as usize))
}

/// Incremental frame decoder for the nonblocking read path.
///
/// Feed it arbitrary chunks with [`feed`](FrameDecoder::feed), then
/// drain complete frames with [`next_frame`](FrameDecoder::next_frame)
/// (or, borrowed, [`next_slice`](FrameDecoder::next_slice))
/// until it returns `Ok(None)` (no complete frame buffered yet). A
/// truncated trailing frame is *not* an error — it simply stays
/// buffered until the rest arrives; EOF-with-partial-bytes is the
/// caller's condition to diagnose (see
/// [`mid_frame`](FrameDecoder::mid_frame)). Its buffer exists only
/// while it holds bytes: drained, it is freed.
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
        let frame = self.next_slice()?.map(Bytes::copy_from_slice);
        self.compact(); // the frame is copied out
        Ok(frame)
    }

    /// [`next_frame`](FrameDecoder::next_frame) without the copy: the
    /// frame where it was fed, intact until the next call on the
    /// decoder.
    pub fn next_slice(&mut self) -> Result<Option<&[u8]>, FrameTooLong> {
        self.compact(); // what earlier calls lent out is done with
        let pending = &self.buf[self.start..];
        match frame_len(pending, self.max_frame)? {
            Some(total) if total <= pending.len() => {
                let payload = self.start + FRAME_HEADER_LEN;
                self.start += total;
                Ok(Some(&self.buf[payload..self.start]))
            }
            _ => Ok(None),
        }
    }

    /// The next frame of a read whose bytes `chunk` holds, moving
    /// `chunk` past what it used: the frame this decoder holds the start
    /// of, completed from the front of `chunk`, or else one that lies
    /// whole at the front of `chunk`, lent where it lies without a copy.
    /// After `Ok(None)`, `chunk` is at most the start of a frame, for
    /// [`feed`](FrameDecoder::feed) to keep until the next read.
    pub fn next_in<'a, 'c: 'a>(
        &'a mut self,
        chunk: &mut &'c [u8],
    ) -> Result<Option<&'a [u8]>, FrameTooLong> {
        if !self.mid_frame() {
            self.compact();
            let whole = *chunk;
            return match frame_len(whole, self.max_frame)? {
                Some(total) if total <= whole.len() => {
                    *chunk = &whole[total..];
                    Ok(Some(&whole[FRAME_HEADER_LEN..total]))
                }
                _ => Ok(None),
            };
        }
        // What the held frame lacks: the rest of its header, then the
        // rest of its payload.
        loop {
            let pending = &self.buf[self.start..];
            let whole = frame_len(pending, self.max_frame)?.unwrap_or(FRAME_HEADER_LEN);
            let take = whole.saturating_sub(pending.len()).min(chunk.len());
            if take == 0 {
                break;
            }
            let (head, rest) = chunk.split_at(take);
            self.buf.extend_from_slice(head);
            *chunk = rest;
        }
        self.next_slice()
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

    /// Frees the buffer once everything in it has been returned, and
    /// reclaims the consumed prefix once it dominates the buffer,
    /// keeping memory proportional to the unconsumed tail.
    fn compact(&mut self) {
        if self.start == self.buf.len() {
            self.buf = Vec::new();
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

    /// Frames out of one read the way the readiness loop takes them:
    /// whole ones where they lie, the split one's start fed.
    fn read_in(d: &mut FrameDecoder, mut chunk: &[u8], out: &mut Vec<Vec<u8>>) {
        while let Some(frame) = d.next_in(&mut chunk).unwrap() {
            out.push(frame.to_vec());
        }
        d.feed(chunk);
    }

    #[test]
    fn a_drained_decoder_keeps_no_buffer() {
        let payloads: Vec<Vec<u8>> = (0..40u8)
            .map(|i| vec![i; (i as usize * 37) % 300])
            .collect();
        let stream: Vec<u8> = payloads.iter().flat_map(|p| frame_bytes(p)).collect();
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..200 {
            let (mut fed, mut read) = (FrameDecoder::new(), FrameDecoder::new());
            let (mut by_feed, mut by_read) = (Vec::new(), Vec::new());
            let mut rest = &stream[..];
            while !rest.is_empty() {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let (chunk, tail) = rest.split_at((rng % 700) as usize % rest.len() + 1);
                rest = tail;
                fed.feed(chunk);
                while let Some(f) = fed.next_frame().unwrap() {
                    by_feed.push(f.to_vec());
                }
                if fed.buffered() == 0 {
                    assert_eq!(fed.buf.capacity(), 0);
                }
                read_in(&mut read, chunk, &mut by_read);
                assert_eq!(read.buffered() == 0, read.buf.capacity() == 0);
            }
            assert_eq!(by_feed, payloads);
            assert_eq!(by_read, payloads);
        }
    }

    #[test]
    fn a_split_at_every_byte_decodes_the_same_frames() {
        let payloads = [&b"alpha"[..], b"", b"beta", &[9; 300]];
        let stream: Vec<u8> = payloads.iter().flat_map(|p| frame_bytes(p)).collect();
        for at in 0..=stream.len() {
            let (head, tail) = stream.split_at(at);
            let mut d = FrameDecoder::new();
            let mut by_feed = Vec::new();
            for part in [head, tail] {
                d.feed(part);
                while let Some(f) = d.next_frame().unwrap() {
                    by_feed.push(f.to_vec());
                }
            }
            let mut by_read = Vec::new();
            let mut d = FrameDecoder::new();
            read_in(&mut d, head, &mut by_read);
            read_in(&mut d, tail, &mut by_read);
            assert_eq!(by_feed, payloads, "split at {at}");
            assert_eq!(by_read, payloads, "split at {at}");
            assert_eq!(d.buf.capacity(), 0, "split at {at}");
        }
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
