//! No driver ticks: every live driver is one thread in one blocking
//! receive — or, hosted on a reactor, no thread at all. Idle, it times
//! out of that receive zero times (hosted: the loop makes zero timer
//! wake-ups); stopping it goes through `Channel::wake`, not through a
//! poll interval.

use bytes::Bytes;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vl_client::{CacheClient, ClientConfig, ObjectLocation};
use vl_net::poll::{PollConfig, Reactor};
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

/// Names of this process's threads, as the kernel has them.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("Linux, like the reactor itself")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .collect()
}

/// The same discipline with the driver hosted on the reactor: spawning
/// the server starts no thread (the in-memory case above starts one,
/// named for its server), an idle loop never wakes for a timer, and
/// `shutdown`/`crash` return once the loop has dropped the driver.
#[test]
fn idle_hosted_server_has_no_thread_and_no_timer() {
    let clock = WallClock::new();
    let cfg = PollConfig {
        idle_deadline: None, // keepalives are the transport's timer, not the driver's
        ..PollConfig::default()
    };
    let listen = |id: u32| {
        let reactor = Reactor::spawn(cfg.clone()).unwrap();
        let node = reactor.listen(NodeId::Server(ServerId(id)), "127.0.0.1:0");
        Arc::new(node.unwrap())
    };
    let (n7, n8) = (listen(7), listen(8));
    let s7 = LeaseServer::spawn(ServerConfig::new(ServerId(7)), Arc::clone(&n7), clock);
    let s8 = LeaseServer::spawn(ServerConfig::new(ServerId(8)), Arc::clone(&n8), clock);
    s7.create_object(OBJ, Bytes::from_static(b"v1"));
    let names = thread_names();
    assert!(
        !names
            .iter()
            .any(|n| n == "vl-server-s7" || n == "vl-server-s8"),
        "a hosted driver needs no thread of its own: {names:?}"
    );

    // A client holding leases, so the machine has state to tick over if
    // it were going to.
    let node = Reactor::spawn(cfg)
        .unwrap()
        .node(NodeId::Client(ClientId(1)));
    node.dial(n7.local_addr().unwrap()).unwrap();
    let client = CacheClient::spawn(ClientConfig::new(ClientId(1), ServerId(7)), node, clock);
    assert_eq!(&client.read(OBJ).unwrap()[..], b"v1");

    std::thread::sleep(Duration::from_millis(100));
    let before = n7.loop_stats();
    std::thread::sleep(Duration::from_millis(500));
    let after = n7.loop_stats();
    assert_eq!(
        after.timer_wakeups, before.timer_wakeups,
        "an idle hosted driver must leave the loop asleep"
    );

    promptly("CacheClient::shutdown", || client.shutdown());
    promptly("hosted ServerHandle::shutdown", || s7.shutdown());
    promptly("hosted ServerHandle::crash", || s8.crash());
}
