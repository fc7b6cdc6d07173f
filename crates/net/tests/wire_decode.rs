//! Property tests for the incremental frame decoder.
//!
//! The readiness loop feeds whatever byte spans the kernel hands it —
//! a frame may arrive one byte at a time, fused with its neighbours,
//! or cut mid-header. For every adversarial segmentation of the same
//! byte stream, [`FrameDecoder`] must produce exactly the frame
//! sequence the blocking [`read_frame`] oracle produces, and a
//! truncated trailing frame must leave it parked mid-frame, not
//! erroring or emitting garbage. The borrowed `next_slice` and the
//! copying `next_frame` are one framing implementation: in lockstep
//! they must agree on every frame, error and byte count.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use vl_net::tcp::{read_frame, write_frame};
use vl_net::wire::{FrameDecoder, FrameTooLong};

/// Decodes `stream` via the blocking oracle until it runs dry.
fn oracle(stream: &[u8]) -> Vec<Bytes> {
    let mut r = stream;
    let mut out = Vec::new();
    while let Ok(f) = read_frame(&mut r) {
        out.push(f);
    }
    out
}

/// Feeds `stream` to an incremental decoder in chunks chosen by
/// `split`, draining after every feed (as the event loop does).
fn incremental(stream: &[u8], mut split: impl FnMut(usize) -> usize) -> (Vec<Bytes>, FrameDecoder) {
    let mut d = FrameDecoder::new();
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < stream.len() {
        let n = split(stream.len() - pos).clamp(1, stream.len() - pos);
        d.feed(&stream[pos..pos + n]);
        pos += n;
        while let Some(f) = d.next_frame().expect("oracle-valid stream must decode") {
            out.push(f);
        }
    }
    (out, d)
}

/// Builds a wire stream from frames, interleaving zero-length
/// keepalives where `frames` holds empty payloads.
fn stream_of(frames: &[Bytes]) -> Vec<u8> {
    let mut buf = Vec::new();
    for f in frames {
        write_frame(&mut buf, f).unwrap();
    }
    buf
}

fn seeded_frames(rng: &mut StdRng, count: usize) -> Vec<Bytes> {
    (0..count)
        .map(|_| {
            let len = match rng.gen_range(0..5u32) {
                0 => 0, // zero-length keepalive
                1 => rng.gen_range(1..5usize),
                2 => rng.gen_range(5..200usize),
                3 => rng.gen_range(200..2000usize),
                _ => rng.gen_range(2000..20_000usize),
            };
            let mut payload = vec![0u8; len];
            rng.fill_bytes(&mut payload[..]);
            Bytes::from(payload)
        })
        .collect()
}

#[test]
fn one_byte_reads_match_oracle() {
    let mut rng = StdRng::seed_from_u64(0x01ea_5e01);
    let frames = seeded_frames(&mut rng, 40);
    let stream = stream_of(&frames);
    assert_eq!(oracle(&stream), frames, "oracle sanity");

    let (got, d) = incremental(&stream, |_| 1);
    assert_eq!(got, frames, "1-byte reads must reassemble every frame");
    assert_eq!(d.buffered(), 0, "stream ended on a boundary");
    assert!(!d.mid_frame());
}

#[test]
fn merged_feed_matches_oracle() {
    let mut rng = StdRng::seed_from_u64(0x01ea_5e02);
    let frames = seeded_frames(&mut rng, 64);
    let stream = stream_of(&frames);

    // Entire stream in one feed: every frame fused with its neighbour.
    let (got, _) = incremental(&stream, |rest| rest);
    assert_eq!(got, frames);
}

#[test]
fn random_split_points_match_oracle() {
    for seed in 0..50u64 {
        let mut rng = StdRng::seed_from_u64(0xdec0de ^ seed);
        let frames = seeded_frames(&mut rng, 24);
        let stream = stream_of(&frames);
        let expect = oracle(&stream);
        assert_eq!(expect, frames);

        let mut chunk_rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
        let (got, d) = incremental(&stream, |rest| {
            // Bias towards tiny chunks so header splits are common.
            match chunk_rng.gen_range(0..4u32) {
                0 => 1,
                1 => chunk_rng.gen_range(1..4usize),
                2 => chunk_rng.gen_range(1..64.min(rest).max(2)),
                _ => chunk_rng.gen_range(1..1024.min(rest).max(2)),
            }
        });
        assert_eq!(
            got, expect,
            "seed {seed}: split stream diverged from oracle"
        );
        assert_eq!(d.buffered(), 0, "seed {seed}: residue after clean stream");
    }
}

#[test]
fn zero_length_keepalives_are_frames_too() {
    // A burst of pure keepalives: 4 zero bytes each, back to back.
    let frames: Vec<Bytes> = (0..10).map(|_| Bytes::new()).collect();
    let stream = stream_of(&frames);
    assert_eq!(stream.len(), 40);

    let (got, _) = incremental(&stream, |_| 3); // misaligned with the 4-byte headers
    assert_eq!(got.len(), 10);
    assert!(got.iter().all(|f| f.is_empty()));
}

#[test]
fn truncated_trailing_frame_stays_pending() {
    let mut rng = StdRng::seed_from_u64(0x01ea_5e03);
    let frames = seeded_frames(&mut rng, 8);
    let stream = stream_of(&frames);

    // Cut the stream at every prefix inside the LAST frame (header
    // included): all complete frames must still come out, the decoder
    // must report mid-frame, and a later feed of the remainder must
    // finish the job.
    let last_start = stream.len() - (4 + frames.last().unwrap().len());
    for cut in last_start + 1..stream.len() {
        let mut d = FrameDecoder::new();
        d.feed(&stream[..cut]);
        let mut got = Vec::new();
        while let Some(f) = d.next_frame().unwrap() {
            got.push(f);
        }
        assert_eq!(&got[..], &frames[..frames.len() - 1], "cut at {cut}");
        assert!(d.buffered() > 0, "cut at {cut}: partial bytes retained");
        assert!(
            !d.mid_frame() || cut >= last_start + 4 || cut > last_start,
            "mid_frame only after the header completes"
        );

        d.feed(&stream[cut..]);
        let tail = d
            .next_frame()
            .unwrap()
            .expect("remainder completes the frame");
        assert_eq!(&tail, frames.last().unwrap());
        assert!(d.next_frame().unwrap().is_none());
        assert_eq!(d.buffered(), 0);
    }
}

#[test]
fn oversize_header_errors_at_any_split() {
    // 4-byte header claiming u32::MAX, fed one byte at a time: the
    // error must fire as soon as the header completes, before any
    // payload allocation could happen.
    let header = u32::MAX.to_le_bytes();
    let mut d = FrameDecoder::new();
    for (i, b) in header.iter().enumerate() {
        d.feed(&[*b]);
        let r = d.next_frame();
        if i < 3 {
            assert!(matches!(r, Ok(None)), "byte {i}: header incomplete");
        } else {
            assert!(r.is_err(), "completed oversize header must error");
        }
    }
}

/// Feeds `stream` in `split`-sized chunks to two decoders with ceiling
/// `max_frame`, draining one with `next_frame` and the other with
/// `next_slice` after every feed, and checks after every call that
/// they returned the same thing and agree on `buffered()` and
/// `mid_frame()`. Stops at the first error, which it returns with the
/// frames before it.
fn lockstep(
    stream: &[u8],
    max_frame: u32,
    mut split: impl FnMut(usize) -> usize,
) -> (Vec<Bytes>, Option<FrameTooLong>) {
    let mut copying = FrameDecoder::with_max_frame(max_frame);
    let mut borrowing = FrameDecoder::with_max_frame(max_frame);
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < stream.len() {
        let n = split(stream.len() - pos).clamp(1, stream.len() - pos);
        copying.feed(&stream[pos..pos + n]);
        borrowing.feed(&stream[pos..pos + n]);
        pos += n;
        loop {
            let copied = copying.next_frame();
            // The slice is read here, before any other call on its
            // decoder: that is as long as it promises to stay intact.
            let lent = borrowing
                .next_slice()
                .map(|f| f.map(Bytes::copy_from_slice));
            assert_eq!(lent, copied, "at byte {pos} of the stream");
            assert_eq!(borrowing.buffered(), copying.buffered(), "at byte {pos}");
            assert_eq!(borrowing.mid_frame(), copying.mid_frame(), "at byte {pos}");
            match copied {
                Ok(Some(frame)) => out.push(frame),
                Ok(None) => break,
                Err(e) => {
                    // Unrecoverable: asking again says the same.
                    assert_eq!(borrowing.next_slice(), Err(e));
                    assert_eq!(copying.next_frame(), Err(e));
                    return (out, Some(e));
                }
            }
        }
    }
    (out, None)
}

/// Picks the next chunk's size from the bytes left.
type Split = Box<dyn FnMut(usize) -> usize>;

/// The chunkings the tests above use one at a time: 1-byte reads,
/// chunks that split every header, the whole stream fused, and seeded
/// random sizes biased small.
fn chunkings(seed: u64) -> Vec<(&'static str, Split)> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
    vec![
        ("1-byte", Box::new(|_| 1)),
        ("3-byte", Box::new(|_| 3)),
        ("fused", Box::new(|rest| rest)),
        (
            "random",
            Box::new(move |rest| match rng.gen_range(0..3u32) {
                0 => rng.gen_range(1..4usize),
                1 => rng.gen_range(1..64.min(rest).max(2)),
                _ => rng.gen_range(1..4096.min(rest).max(2)),
            }),
        ),
    ]
}

#[test]
fn next_slice_and_next_frame_agree_under_every_chunking() {
    const MAX: u32 = 20_000; // what `seeded_frames` stays under
    for seed in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(0x51_1ce ^ seed);
        let frames = seeded_frames(&mut rng, 24);
        let clean = stream_of(&frames);
        // The same stream with an oversize header after frame 16 and
        // bytes behind it that must never come out as frames.
        let cut = stream_of(&frames[..16]).len();
        let mut corrupt = clean[..cut].to_vec();
        corrupt.extend_from_slice(&(MAX + 1).to_le_bytes());
        corrupt.extend_from_slice(&clean[cut..]);
        let too_long = FrameTooLong {
            claimed: MAX + 1,
            max: MAX,
        };

        for (name, split) in chunkings(seed) {
            let (got, err) = lockstep(&clean, MAX, split);
            assert_eq!((got, err), (frames.clone(), None), "seed {seed}, {name}");
        }
        for (name, split) in chunkings(seed) {
            let (got, err) = lockstep(&corrupt, MAX, split);
            assert_eq!(
                got,
                &frames[..16],
                "seed {seed}, {name}: frames before the header"
            );
            assert_eq!(err, Some(too_long), "seed {seed}, {name}");
        }
    }
}
