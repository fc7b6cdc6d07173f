//! No driver ticks: every live driver is one thread in one blocking
//! receive. Idle, it times out of that receive zero times; stopping it
//! goes through `Channel::wake`, not through a poll interval.

use bytes::Bytes;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vl_client::{CacheClient, ClientConfig, ObjectLocation};
use vl_net::{Channel, Endpoint, InMemoryNetwork, NetError, NetEvent, NodeId};
use vl_server::{LeaseServer, ServerConfig, ServerHandle, WallClock};
use vl_types::{ClientId, ObjectId, ServerId};

const OBJ: ObjectId = ObjectId(1);

/// An in-memory endpoint that counts the receives that timed out.
struct Counting {
    inner: Endpoint,
    timeouts: Arc<AtomicUsize>,
}

impl Channel for Counting {
    fn id(&self) -> NodeId {
        self.inner.id()
    }
    fn send(&self, to: NodeId, bytes: Bytes) -> Result<(), NetError> {
        self.inner.send(to, bytes)
    }
    fn recv_event(&self, timeout: Option<Duration>) -> Result<NetEvent, NetError> {
        let got = self.inner.recv_event(timeout);
        if got == Err(NetError::Timeout) {
            self.timeouts.fetch_add(1, Ordering::Relaxed);
        }
        got
    }
    fn wake(&self) {
        self.inner.wake()
    }
}

fn promptly(what: &str, stop: impl FnOnce()) {
    let t0 = Instant::now();
    stop();
    assert!(
        t0.elapsed() < Duration::from_millis(500),
        "{what} took {:?}: the driver was not woken",
        t0.elapsed()
    );
}

#[test]
fn idle_drivers_never_time_out_and_stop_promptly() {
    let net = InMemoryNetwork::new();
    let clock = WallClock::new();
    let timeouts = Arc::new(AtomicUsize::new(0));
    let endpoint = |id: NodeId| Counting {
        inner: net.endpoint(id),
        timeouts: Arc::clone(&timeouts),
    };
    let server = |id: u32| -> ServerHandle {
        let id = ServerId(id);
        let handle = LeaseServer::spawn(ServerConfig::new(id), endpoint(NodeId::Server(id)), clock);
        handle.create_object(OBJ, Bytes::from_static(b"v1"));
        handle
    };
    let client = |id: u32| {
        let id = ClientId(id);
        CacheClient::spawn(
            ClientConfig::new(id, ServerId(0)),
            endpoint(NodeId::Client(id)),
            clock,
        )
    };
    let (s0, s1) = (server(0), server(1));
    let (c1, c2, c3) = (client(1), client(2), client(3));

    // Everything works, and holds leases while it idles.
    assert_eq!(&c1.read(OBJ).unwrap()[..], b"v1");
    assert_eq!(&c2.read(OBJ).unwrap()[..], b"v1");
    // Reading an origin other than the configured one adds no thread
    // and no tick.
    let at = ObjectLocation::origin(ServerId(1));
    assert_eq!(&c3.read_at(at, OBJ).unwrap()[..], b"v1");

    std::thread::sleep(Duration::from_millis(500));
    assert_eq!(
        timeouts.load(Ordering::Relaxed),
        0,
        "an idle driver must block, not tick"
    );

    promptly("CacheClient::shutdown", || c1.shutdown());
    promptly("CacheClient drop", || drop(c2));
    promptly("CacheClient::shutdown after read_at", || c3.shutdown());
    promptly("ServerHandle::shutdown", || s0.shutdown());
    promptly("ServerHandle::crash", || s1.crash());
}
