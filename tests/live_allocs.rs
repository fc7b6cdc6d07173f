//! The hosted renewal path allocates nothing per message.
//!
//! The benchmark's allocation probes (`machine.allocs_per_input`,
//! `proto.allocs_per_msg`) time `ServerMachine::handle` and
//! `codec::encode_*`, which are now wrappers; the path a served renewal
//! takes — frame decoded in the read buffer, actions in a reused
//! buffer, reply encoded in the connection's write buffer — is visible
//! to neither. This binary counts every allocation the process makes
//! while one client drives 10 000 renewals through a real `LeaseServer`
//! on a one-reactor `ShardedNode`. It holds one test, so nothing else
//! allocates beside it.

use bytes::Bytes;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use vl_net::poll::{encode_hello, PollConfig};
use vl_net::shard::ShardedNode;
use vl_net::tcp::{read_frame, write_frame};
use vl_net::NodeId;
use vl_proto::{codec, ClientMsg, ServerMsg};
use vl_server::{LeaseServer, ServerConfig, WallClock};
use vl_types::{ClientId, Epoch, ObjectId, ServerId, Version, VolumeId};

/// The system allocator, counting calls that hand out memory.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller was promised; the counter is a
// statistic and publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout`, as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SRV: ServerId = ServerId(0);
const VOLUME: VolumeId = VolumeId(0);
const OBJ: ObjectId = ObjectId(1);
const RENEWALS: usize = 10_000;
const WINDOW: usize = 256;

/// `count` renewals as the bytes to write: `REQ_VOL_LEASE` and
/// `REQ_OBJ_LEASE` (at the current version, so no data comes back) in
/// turn, each length-prefixed.
fn renewals(count: usize) -> Vec<u8> {
    let vol = ClientMsg::ReqVolLease {
        volume: VOLUME,
        epoch: Epoch(0),
    };
    let obj = ClientMsg::ReqObjLease {
        object: OBJ,
        version: Version::FIRST,
    };
    let mut wire = Vec::new();
    for i in 0..count {
        let msg = if i % 2 == 0 { &vol } else { &obj };
        write_frame(&mut wire, &codec::encode_client(msg)).unwrap();
    }
    wire
}

/// Writes `requests` (whole pairs of [`renewals`]) in windows of
/// [`WINDOW`] frames, reading each window's replies onto the end of
/// `replies` (whose capacity must cover them: nothing here may
/// allocate). Returns the reply count.
fn drive(stream: &mut TcpStream, requests: &[u8], pair_len: usize, replies: &mut Vec<u8>) -> usize {
    let (mut parsed, mut answered) = (replies.len(), 0);
    for window in requests.chunks(WINDOW / 2 * pair_len) {
        stream.write_all(window).unwrap();
        let due = answered + window.len() / pair_len * 2;
        while answered < due {
            let filled = replies.len();
            assert!(filled < replies.capacity(), "reply buffer too small");
            replies.resize(replies.capacity(), 0);
            let n = stream.read(&mut replies[filled..]).unwrap();
            assert!(n > 0, "server closed the connection");
            replies.truncate(filled + n);
            // Count the complete frames among what has arrived.
            while let Some(header) = replies.get(parsed..parsed + 4) {
                let len = u32::from_le_bytes(header.try_into().unwrap()) as usize;
                if replies.len() < parsed + 4 + len {
                    break;
                }
                parsed += 4 + len;
                answered += 1;
            }
        }
    }
    answered
}

#[test]
fn renewals_on_the_hosted_path_do_not_allocate() {
    let cfg = PollConfig {
        idle_deadline: None, // no keepalive frames among the replies
        ..PollConfig::default()
    };
    let node = ShardedNode::listen(NodeId::Server(SRV), "127.0.0.1:0", 1, cfg).unwrap();
    let addr = node.local_addr();
    let server = LeaseServer::spawn(ServerConfig::new(SRV), node, WallClock::new());
    server.create_object(OBJ, Bytes::from_static(b"v1"));

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    write_frame(&mut stream, &encode_hello(NodeId::Client(ClientId(1)))).unwrap();
    read_frame(&mut stream).unwrap();

    // Warm: the client's rows, and every buffer at its working size.
    let requests = renewals(RENEWALS);
    let mut replies = Vec::with_capacity(RENEWALS * 64);
    let pair_len = requests.len() / (RENEWALS / 2);
    let warm = 4 * WINDOW;
    let warm_up = &requests[..warm / 2 * pair_len];
    assert_eq!(drive(&mut stream, warm_up, pair_len, &mut replies), warm);
    replies.clear();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let answered = drive(&mut stream, &requests, pair_len, &mut replies);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(answered, RENEWALS);
    assert!(
        allocations * 10 < RENEWALS as u64,
        "{allocations} allocations in {RENEWALS} renewals: the hosted path copies or boxes per message"
    );

    // Every reply is the grant its request asked for, in order.
    let mut rest = &replies[..];
    for i in 0..RENEWALS {
        let reply = read_frame(&mut rest).unwrap();
        match codec::decode_server(&reply).unwrap() {
            ServerMsg::VolLease {
                volume,
                epoch,
                invalidate,
                ..
            } if i % 2 == 0 => {
                assert_eq!((volume, epoch, invalidate), (VOLUME, Epoch(0), vec![]));
            }
            ServerMsg::ObjLease {
                object,
                version,
                data,
                ..
            } if i % 2 == 1 => assert_eq!((object, version, data), (OBJ, Version::FIRST, None)),
            other => panic!("reply {i}: unexpected {other:?}"),
        }
    }
    assert!(rest.is_empty());
    let stats = server.stats();
    let total = (RENEWALS + warm) as u64;
    assert_eq!((stats.msgs_in, stats.msgs_out), (total, total));
    server.shutdown();
}
