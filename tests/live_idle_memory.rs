//! A connection at rest holds no buffer.
//!
//! The reactor reads into one buffer of its own and handles whole
//! frames there, so a connection's decoder holds bytes only while a
//! frame is split across reads, and a written-out write buffer goes back
//! to the loop, which keeps one. This binary counts the bytes the
//! process has allocated and not freed while 64 raw clients of a
//! `LeaseServer` on one reactor each send a burst of renewals larger than
//! the read buffer, read every reply and go idle: what the server keeps
//! afterwards must not grow with what those connections once carried,
//! nor with one reply larger than the spare the loop keeps. It holds one
//! test, so nothing else allocates beside it.

use bytes::Bytes;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::{Duration, Instant};
use vl_net::poll::{encode_hello, PollConfig};
use vl_net::shard::ShardedNode;
use vl_net::tcp::{read_frame, write_frame};
use vl_net::NodeId;
use vl_proto::{codec, ClientMsg};
use vl_server::{LeaseServer, ServerConfig, WallClock};
use vl_types::{ClientId, Epoch, ObjectId, ServerId, Version, VolumeId};

/// The system allocator, keeping the count of bytes handed out and not
/// yet given back.
struct Counting;

static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller was promised; the counter is a
// statistic and publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's `layout`, as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: as `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SRV: ServerId = ServerId(0);
const VOLUME: VolumeId = VolumeId(0);
const OBJ: ObjectId = ObjectId(1);
/// An object whose one reply outgrows every write buffer the loop keeps.
const BIG: ObjectId = ObjectId(2);
const BIG_LEN: usize = 256 * 1024;
const CLIENTS: usize = 64;
/// Bytes of renewals each client sends in one write: more than the
/// reactor's 64 KiB read buffer takes at once.
const BURST: usize = 96 * 1024;
/// What a connection at rest may keep, allocator rounding included.
const PER_CONN: i64 = 1024;

/// At least `bytes` of renewals — `REQ_VOL_LEASE` and `REQ_OBJ_LEASE`
/// (at the current version, so no data comes back) in turn, each
/// length-prefixed — and how many frames that is.
fn renewals(bytes: usize) -> (Vec<u8>, usize) {
    let vol = codec::encode_client(&ClientMsg::ReqVolLease {
        volume: VOLUME,
        epoch: Epoch(0),
    });
    let obj = codec::encode_client(&ClientMsg::ReqObjLease {
        object: OBJ,
        version: Version::FIRST,
    });
    let (mut wire, mut frames) = (Vec::new(), 0);
    while wire.len() < bytes {
        write_frame(&mut wire, if frames % 2 == 0 { &vol } else { &obj }).unwrap();
        frames += 1;
    }
    (wire, frames)
}

/// Writes `requests` in one call and reads until `frames` replies are
/// in, into `replies` (whose capacity must cover them: nothing here may
/// allocate).
fn burst(stream: &mut TcpStream, requests: &[u8], frames: usize, replies: &mut Vec<u8>) {
    replies.clear();
    stream.write_all(requests).unwrap();
    let (mut parsed, mut answered) = (0, 0);
    while answered < frames {
        let filled = replies.len();
        assert!(filled < replies.capacity(), "reply buffer too small");
        replies.resize(replies.capacity(), 0);
        let n = stream.read(&mut replies[filled..]).unwrap();
        assert!(n > 0, "server closed the connection");
        replies.truncate(filled + n);
        while let Some(header) = replies.get(parsed..parsed + 4) {
            let len = u32::from_le_bytes(header.try_into().unwrap()) as usize;
            if replies.len() < parsed + 4 + len {
                break;
            }
            parsed += 4 + len;
            answered += 1;
        }
    }
    assert_eq!(parsed, replies.len(), "a reply nobody asked for");
}

/// The bytes allocated since `before` once they fall to `bound`, or
/// after 5 s: the last reply may reach the client before the loop has
/// put its write buffer back.
fn settled(before: i64, bound: i64) -> i64 {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut grown = LIVE.load(Ordering::Relaxed) - before;
    while grown > bound && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        grown = LIVE.load(Ordering::Relaxed) - before;
    }
    grown
}

#[test]
fn connections_at_rest_hold_no_buffers() {
    let cfg = PollConfig {
        idle_deadline: None, // no keepalives: the connections stay at rest
        ..PollConfig::default()
    };
    let node = ShardedNode::listen(NodeId::Server(SRV), "127.0.0.1:0", 1, cfg).unwrap();
    let addr = node.local_addr();
    let server = LeaseServer::spawn(ServerConfig::new(SRV), node, WallClock::new());
    server.create_object(OBJ, Bytes::from_static(b"v1"));
    server.create_object(BIG, Bytes::from(vec![7; BIG_LEN]));

    // Every client connected, and known to the server by one renewal.
    let (first, first_frames) = renewals(1);
    let (requests, frames) = renewals(BURST);
    let mut replies = Vec::with_capacity(4 * BURST);
    let mut clients: Vec<TcpStream> = (0..CLIENTS)
        .map(|i| {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.set_nodelay(true).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            write_frame(
                &mut stream,
                &encode_hello(NodeId::Client(ClientId(i as u32))),
            )
            .unwrap();
            read_frame(&mut stream).unwrap();
            burst(&mut stream, &first, first_frames, &mut replies);
            stream
        })
        .collect();
    // One burst first, so what the loop keeps for all its connections
    // (its spare write buffer, its queues) is at its working size.
    burst(&mut clients[0], &requests, frames, &mut replies);

    let before = LIVE.load(Ordering::Relaxed);
    for stream in &mut clients {
        burst(stream, &requests, frames, &mut replies);
    }
    let bound = CLIENTS as i64 * PER_CONN;
    let grown = settled(before, bound);
    assert!(
        grown <= bound,
        "{grown} bytes still held after {CLIENTS} connections each took {} bytes and went idle",
        requests.len()
    );

    // One reply that outgrows the spare: its buffer is freed once written.
    let fetch = codec::encode_client(&ClientMsg::ReqObjLease {
        object: BIG,
        version: Version::NONE,
    });
    let mut request = Vec::new();
    write_frame(&mut request, &fetch).unwrap();
    burst(&mut clients[0], &request, 1, &mut replies);
    assert!(replies.len() > BIG_LEN, "the object came back");
    let grown = settled(before, bound);
    assert!(
        grown <= bound,
        "{grown} bytes still held after one {} byte reply",
        replies.len()
    );

    let stats = server.stats();
    let total = (CLIENTS * (first_frames + frames) + frames + 1) as u64;
    assert_eq!((stats.msgs_in, stats.msgs_out), (total, total));
    drop(clients);
    server.shutdown();
}
