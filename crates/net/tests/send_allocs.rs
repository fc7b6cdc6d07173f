//! A frame sent through the default `Outbox::send_with` costs one
//! allocation, its own: it is encoded in a buffer the sending thread
//! keeps between frames and copied out once.
//!
//! This is the path of a writer's `INVALIDATE` fan-out and of a 4 KiB
//! `OBJ_LEASE` refetch whenever the reply is not built in the write
//! buffer of the connection being read. Encoding into a fresh `Vec`
//! and copying it into `Bytes` is two allocations, three once the
//! frame outgrows the first guess at a capacity. This binary counts
//! every allocation the process makes and holds one test, so nothing
//! else allocates beside it.

use bytes::Bytes;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use vl_net::{NetError, NodeId, Outbox};
use vl_proto::{codec, ServerMsg};
use vl_types::{ClientId, ObjectId, Timestamp, Version};

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

/// An outbox that keeps what it is sent, with room reserved up front.
struct Sent(Vec<(NodeId, Bytes)>);

impl Outbox for Sent {
    fn send(&mut self, to: NodeId, bytes: Bytes) -> Result<(), NetError> {
        self.0.push((to, bytes));
        Ok(())
    }
}

/// Allocations made sending `msg` to `to` through the default
/// `send_with`.
fn send_allocs(out: &mut Sent, to: NodeId, msg: &ServerMsg) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    out.send_with(to, &mut |b| codec::encode_server_into(msg, b))
        .expect("Sent accepts every frame");
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn a_frame_encoded_aside_allocates_once() {
    let refetch = ServerMsg::ObjLease {
        object: ObjectId(5),
        version: Version(2),
        expire: Timestamp::from_secs(10),
        data: Some(Bytes::from(vec![0xAB; 4096])),
    };
    let invalidate = ServerMsg::Invalidate {
        object: ObjectId(5),
    };
    let holders: Vec<NodeId> = (0..16).map(|c| NodeId::Client(ClientId(c))).collect();
    let mut out = Sent(Vec::with_capacity(2 * holders.len() + 1));
    // The thread's buffer grows to the largest frame once.
    send_allocs(&mut out, holders[0], &refetch);

    for &to in &holders {
        assert_eq!(send_allocs(&mut out, to, &invalidate), 1, "INVALIDATE");
    }
    for &to in &holders {
        assert_eq!(send_allocs(&mut out, to, &refetch), 1, "4 KiB OBJ_LEASE");
    }

    let sent = &out.0[1..];
    assert_eq!(sent.len(), 2 * holders.len());
    for ((to, frame), want) in sent.iter().zip(holders.iter().cycle()) {
        assert_eq!(to, want);
        let msg = codec::decode_server(frame).expect("a whole frame");
        assert!(msg == invalidate || msg == refetch, "{msg:?}");
    }
}
