//! Every `codec::encode_*` allocates once, whatever the message, and
//! decoding a fixed-size message allocates nothing.
//!
//! An encoder that guesses a capacity and grows, or builds a `Vec` and
//! copies it into the shared buffer, allocates two or three times per
//! message; the length pass sizes the one buffer exactly. This binary
//! counts every allocation the process makes and holds one test, so
//! nothing else allocates beside it.

use bytes::Bytes;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use vl_proto::{codec, ClientMsg, PeerMsg, ServerMsg};
use vl_types::{Epoch, ObjectId, ServerId, Timestamp, Version, VolumeId};

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

/// Allocations `f` makes.
fn allocs<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    let n = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(out);
    n
}

#[test]
fn every_encode_allocates_once_and_fixed_size_decodes_none() {
    let page = Bytes::from(vec![0xAB; 4096]);
    let client = [
        ClientMsg::ReqObjLease {
            object: ObjectId(1),
            version: Version(2),
        },
        ClientMsg::ReqVolLease {
            volume: VolumeId(3),
            epoch: Epoch(4),
        },
        ClientMsg::RenewObjLeases {
            volume: VolumeId(3),
            leases: (0..100).map(|i| (ObjectId(i), Version(i))).collect(),
        },
        ClientMsg::AckInvalidate {
            object: ObjectId(5),
        },
        ClientMsg::AckVolBatch {
            volume: VolumeId(6),
        },
    ];
    let server = [
        ServerMsg::ObjLease {
            object: ObjectId(1),
            version: Version(2),
            expire: Timestamp::from_secs(10),
            data: None,
        },
        // Outgrows any small first guess at a capacity.
        ServerMsg::ObjLease {
            object: ObjectId(1),
            version: Version(2),
            expire: Timestamp::from_secs(10),
            data: Some(page.clone()),
        },
        ServerMsg::VolLease {
            volume: VolumeId(3),
            expire: Timestamp::from_secs(10),
            epoch: Epoch(4),
            invalidate: (0..100).map(ObjectId).collect(),
        },
        ServerMsg::Invalidate {
            object: ObjectId(5),
        },
        ServerMsg::MustRenewAll {
            volume: VolumeId(6),
        },
        ServerMsg::InvalRenew {
            volume: VolumeId(6),
            invalidate: vec![ObjectId(7)],
            renew: (0..100)
                .map(|i| (ObjectId(i), Version(i), Timestamp::from_secs(i)))
                .collect(),
        },
        ServerMsg::WrongShard {
            volume: VolumeId(6),
            owner: ServerId(1),
            map_version: 9,
            servers: vec![ServerId(0), ServerId(1)],
        },
    ];
    let peer = [
        PeerMsg::HandoffRequest {
            volume: VolumeId(3),
            to: ServerId(1),
        },
        PeerMsg::Handoff {
            volume: VolumeId(3),
            epoch: Epoch(4),
            max_vol_expiry: Timestamp::from_secs(10),
            objects: vec![(ObjectId(1), Version(2), page.clone()); 3],
        },
        PeerMsg::HandoffAck {
            volume: VolumeId(3),
            epoch: Epoch(4),
        },
    ];

    for m in &client {
        assert_eq!(allocs(|| codec::encode_client(m)), 1, "{}", m.name());
    }
    for m in &server {
        assert_eq!(allocs(|| codec::encode_server(m)), 1, "{}", m.name());
    }
    for m in &peer {
        assert_eq!(allocs(|| codec::encode_peer(m)), 1, "{}", m.name());
    }

    // Messages with no list and no payload decode onto the stack.
    for m in [&client[0], &client[1], &client[3], &client[4]] {
        let bytes = codec::encode_client(m);
        assert_eq!(
            allocs(|| codec::decode_client(&bytes).unwrap()),
            0,
            "{}",
            m.name()
        );
    }
    for m in [&server[0], &server[3], &server[4]] {
        let bytes = codec::encode_server(m);
        assert_eq!(
            allocs(|| codec::decode_server(&bytes).unwrap()),
            0,
            "{}",
            m.name()
        );
    }
    for m in [&peer[0], &peer[2]] {
        let bytes = codec::encode_peer(m);
        assert_eq!(
            allocs(|| codec::decode_peer(&bytes).unwrap()),
            0,
            "{}",
            m.name()
        );
    }
}
