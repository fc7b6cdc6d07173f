//! What a lease costs in memory, on each side of the wire.
//!
//! The paper charges a lease one 16-byte server record (§5.2,
//! `LEASE_RECORD_BYTES`). This binary counts the heap bytes each
//! protocol machine keeps per lease it holds: the server's lease tables
//! and client rows, grown to 4 096 clients × 16 leases, and a client
//! machine's cache, per copy, leaving out the payload's own buffer. It
//! holds one test, so nothing else allocates beside it.

use bytes::Bytes;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use vl_core::machine::{
    ClientInput, ClientMachine, ClientMachineConfig, MachineConfig, ServerInput, ServerMachine,
};
use vl_proto::{ClientMsg, ServerMsg};
use vl_types::{ClientId, Epoch, ObjectId, ServerId, Timestamp, Version, VolumeId};

/// The system allocator, counting the bytes it has handed out and not
/// been given back.
struct Counting;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller was promised; the counter is a
// statistic and publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's `layout`, as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: as `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

const CLIENTS: u32 = 4_096;
const LEASES_PER_CLIENT: u32 = 16;
/// 256 holders per object, as in the benchmark's `wire_scale`.
const OBJECTS: u32 = 256;
/// Heap a server may keep per lease it granted: the lease record's
/// 12 bytes and the arrays' slack.
const SERVER_BOUND: f64 = 18.0;
/// Heap a client machine may keep per cached copy, payload aside.
const CLIENT_BOUND: f64 = 48.0;

fn object(o: u32) -> ObjectId {
    ObjectId(u64::from(o) + 1)
}

/// Heap the server machine keeps per lease, granted through `handle`.
fn server_bytes_per_lease() -> f64 {
    let now = Timestamp::from_millis(1);
    let (mut server, _) = ServerMachine::new(MachineConfig::new(ServerId(0)), None);
    for o in 0..OBJECTS {
        let create = ServerInput::CreateObject {
            object: object(o),
            data: Bytes::from(vec![o as u8; 64]),
            version: Version::FIRST,
        };
        server.handle(now, create);
    }
    let before = live_bytes();
    for c in 0..CLIENTS {
        let from = ClientId(c);
        let (volume, epoch) = (VolumeId(0), Epoch(0));
        let msg = ClientMsg::ReqVolLease { volume, epoch };
        server.handle(now, ServerInput::Msg { from, msg });
        for j in 0..LEASES_PER_CLIENT {
            let object = object((c * LEASES_PER_CLIENT + j) % OBJECTS);
            let msg = ClientMsg::ReqObjLease {
                object,
                version: Version::NONE,
            };
            server.handle(now, ServerInput::Msg { from, msg });
        }
    }
    let kept = live_bytes() - before;
    assert_eq!(
        server.stats().msgs_out,
        u64::from(CLIENTS * (LEASES_PER_CLIENT + 1))
    );
    kept as f64 / f64::from(CLIENTS * LEASES_PER_CLIENT)
}

/// Heap one client machine keeps per cached copy. The payloads exist
/// before counting starts and the machines share them.
fn client_bytes_per_copy() -> f64 {
    const MACHINES: u32 = 256;
    let payloads: Vec<Bytes> = (0..OBJECTS)
        .map(|o| Bytes::from(vec![o as u8; 64]))
        .collect();
    let mut machines: Vec<ClientMachine> = (0..MACHINES)
        .map(|c| ClientMachine::new(ClientMachineConfig::new(ClientId(c), ServerId(0))))
        .collect();
    let expire = Timestamp::from_secs(600);
    let before = live_bytes();
    for (c, m) in (0..).zip(&mut machines) {
        for j in 0..LEASES_PER_CLIENT {
            let o = (c * LEASES_PER_CLIENT + j) % OBJECTS;
            let msg = ServerMsg::ObjLease {
                object: object(o),
                version: Version::FIRST,
                expire,
                data: Some(payloads[o as usize].clone()),
            };
            m.handle(Timestamp::ZERO, ClientInput::Msg(msg));
        }
    }
    let kept = live_bytes() - before;
    let read = machines[1].read_suspect(object(LEASES_PER_CLIENT));
    assert_eq!(read.as_ref(), Some(&payloads[LEASES_PER_CLIENT as usize]));
    kept as f64 / f64::from(MACHINES * LEASES_PER_CLIENT)
}

#[test]
fn a_lease_costs_each_machine_a_few_dozen_bytes() {
    let server = server_bytes_per_lease();
    let client = client_bytes_per_copy();
    println!("server: {server:.1} B per lease; client: {client:.1} B per cached copy");
    assert!(
        server <= SERVER_BOUND,
        "the server keeps {server:.1} B per lease (bound {SERVER_BOUND}; the paper's record is 16)"
    );
    assert!(
        client <= CLIENT_BOUND,
        "a client keeps {client:.1} B per cached copy (bound {CLIENT_BOUND})"
    );
}
