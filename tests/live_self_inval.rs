//! Self-invalidation with precise clocks, end to end over real TCP:
//! the live drivers run the same sans-io machines the fault harness
//! proves safe, so writes send **zero** invalidation messages, clients
//! drop their copies at server-assigned deadlines on their own clocks,
//! and nobody ever reads stale data — even with a chaos proxy mangling
//! the network, because there are no invalidations to lose.

use bytes::Bytes;
use std::time::Duration as StdDuration;
use vl_client::{CacheClient, ClientConfig};
use vl_net::chaos::{ChaosConfig, ChaosNet};
use vl_net::poll::{PollConfig, PollNode, Reactor};
use vl_net::retry::RetryPolicy;
use vl_net::NodeId;
use vl_server::{LeaseServer, ServerConfig, WallClock};
use vl_types::{ClientId, Duration, ObjectId, ServerId};

const SRV: ServerId = ServerId(0);
const OBJ: ObjectId = ObjectId(1);

/// Deadline horizon `t` — short, so write waits stay within the test
/// budget.
const T: StdDuration = StdDuration::from_millis(600);
/// Clock-skew bound `ε`. Loopback clocks are exact (one wall clock), so
/// any positive bound is honored.
const EPS: StdDuration = StdDuration::from_millis(200);

fn quick_tcp() -> PollConfig {
    PollConfig {
        idle_deadline: Some(StdDuration::from_secs(5)),
        redial: RetryPolicy {
            base: StdDuration::from_millis(25),
            max: StdDuration::from_millis(200),
            ..RetryPolicy::default()
        },
        ..PollConfig::default()
    }
}

/// A listening server node on a reactor of its own.
fn listen() -> PollNode {
    let reactor = Reactor::spawn(quick_tcp()).unwrap();
    reactor.listen(NodeId::Server(SRV), "127.0.0.1:0").unwrap()
}

/// A client node on a reactor of its own, connected to `addr`.
fn dial(id: u32, addr: std::net::SocketAddr) -> PollNode {
    let node = Reactor::spawn(quick_tcp())
        .unwrap()
        .node(NodeId::Client(ClientId(id)));
    node.dial(addr).unwrap();
    node
}

fn self_inval_server() -> ServerConfig {
    ServerConfig {
        object_lease: T,
        self_inval: Some(EPS),
        ..ServerConfig::new(SRV)
    }
}

fn self_inval_client(id: u32) -> ClientConfig {
    ClientConfig {
        request_timeout: StdDuration::from_millis(150),
        max_retries: 40,
        self_inval: true,
        ..ClientConfig::new(ClientId(id), SRV)
    }
}

/// Payloads encode the committed version as `v<N>`.
fn version_of(data: &[u8]) -> u64 {
    let s = std::str::from_utf8(data).expect("utf8 payload");
    s.rsplit('v')
        .next()
        .unwrap()
        .parse()
        .expect("versioned payload")
}

/// The protocol's two headline properties over a clean loopback: every
/// write commits with zero messages sent, and its delay is bounded by
/// `t + ε` (plus scheduling slack) — never by a per-client ack.
#[test]
fn writes_send_nothing_and_wait_at_most_t_plus_epsilon() {
    let clock = WallClock::new();
    let server_node = listen();
    let addr = server_node.local_addr().unwrap();
    let server = LeaseServer::spawn(self_inval_server(), server_node, clock);
    server.create_object(OBJ, Bytes::from_static(b"s v1"));

    let c1 = CacheClient::spawn(self_inval_client(1), dial(1, addr), clock);
    let c2 = CacheClient::spawn(self_inval_client(2), dial(2, addr), clock);
    assert_eq!(&c1.read(OBJ).unwrap()[..], b"s v1");
    assert_eq!(&c2.read(OBJ).unwrap()[..], b"s v1");
    // A cached copy is readable until its deadline without any traffic.
    assert_eq!(&c1.read(OBJ).unwrap()[..], b"s v1");
    assert!(c1.stats().local_reads >= 1);

    // Both clients hold fresh deadlines, so the write must wait them
    // out — but contact nobody.
    let out = server.write(OBJ, Bytes::from_static(b"s v2"));
    assert_eq!(out.invalidations_sent, 0, "self-inval writes are silent");
    assert_eq!(out.queued, 0);
    let bound = Duration::from_millis((T + EPS).as_millis() as u64 + 500);
    assert!(
        out.delay <= bound,
        "write delay {} exceeds t + \u{3b5} + slack",
        out.delay
    );
    // The wait was real: both deadlines were outstanding at the write.
    assert!(
        out.delay >= Duration::from_millis(T.as_millis() as u64 / 2),
        "write committed suspiciously fast ({}) with live deadlines out",
        out.delay
    );

    // By commit time every copy has self-invalidated; the next reads
    // refetch the new version.
    assert_eq!(&c1.read(OBJ).unwrap()[..], b"s v2");
    assert_eq!(&c2.read(OBJ).unwrap()[..], b"s v2");

    c1.shutdown();
    c2.shutdown();
    server.shutdown();
}

/// Chaos run: seeded drops, delays, and resets on both endpoints. The
/// volume-lease protocol survives this because dropped invalidations
/// are fenced by `t_v`; self-invalidation survives it more simply —
/// there is nothing to drop. No read may ever go backwards in version,
/// and every write must stay silent.
#[test]
fn no_stale_reads_under_chaos_with_zero_invalidations() {
    let chaos = ChaosNet::new(ChaosConfig {
        seed: 42,
        drop_prob: 0.15,
        delay_prob: 0.20,
        max_delay_ms: 20,
        reset_prob: 0.02,
        reset_burst: 2,
        ..ChaosConfig::default()
    });
    let clock = WallClock::new();
    let server_node = listen();
    let addr = server_node.local_addr().unwrap();
    let server = LeaseServer::spawn(self_inval_server(), chaos.wrap(server_node), clock);
    server.create_object(OBJ, Bytes::from_static(b"c v1"));

    let client_node = dial(1, addr);
    let client = CacheClient::spawn(self_inval_client(1), chaos.wrap(client_node), clock);

    let mut version = 1u64;
    let mut last_seen = 0u64;
    let mut successes = 0u32;
    for _ in 0..8u32 {
        version += 1;
        let out = server.write(OBJ, Bytes::from(format!("c v{version}")));
        assert_eq!(
            out.invalidations_sent, 0,
            "a self-inval write sent an invalidation"
        );
        assert_eq!(out.queued, 0);
        for _ in 0..3 {
            if let Ok(data) = client.read(OBJ) {
                let v = version_of(&data);
                assert!(
                    v >= last_seen,
                    "stale read: saw v{v} after having seen v{last_seen}"
                );
                last_seen = v;
                successes += 1;
            }
        }
    }
    assert!(successes > 0, "chaos never let a single read through");
    assert!(
        chaos.counters().dropped > 0,
        "chaos injected no drops: {:?}",
        chaos.counters()
    );
    chaos.stop();
    server.shutdown();
    client.shutdown();
}
