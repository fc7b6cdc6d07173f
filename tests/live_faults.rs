//! The live networked stack under injected faults: chaos proxy over
//! real loopback TCP, deterministic fault schedules, kill-and-restart
//! recovery, and server-side demotion of dropped connections.
//!
//! These tests exercise the paper's safety claim end to end: no client
//! ever observes a stale read, and writes are delayed at most
//! `min(t, t_v)` plus scheduling slack — no matter what the network
//! does in between.

use bytes::Bytes;
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};
use vl_client::{CacheClient, ClientConfig};
use vl_net::chaos::{ChaosConfig, ChaosNet};
use vl_net::poll::{PollConfig, PollNode, Reactor};
use vl_net::retry::RetryPolicy;
use vl_net::{Channel, InMemoryNetwork, NodeId};
use vl_server::{LeaseServer, ServerConfig, WallClock};
use vl_types::{ClientId, Duration, Epoch, ObjectId, ServerId};

const SRV: ServerId = ServerId(0);

/// TCP supervision tuned for test latency: quick redial backoff, and
/// an idle deadline short enough to notice a dead peer within the test
/// budget.
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

/// A client config with a deep retry budget so individual request
/// drops never fail a read outright.
fn patient_client(id: u32) -> ClientConfig {
    ClientConfig {
        request_timeout: StdDuration::from_millis(150),
        max_retries: 40,
        ..ClientConfig::new(ClientId(id), SRV)
    }
}

fn stable_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("vl_fault_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// Polls `cond` until it holds or `for_ms` elapses.
fn eventually(for_ms: u64, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + StdDuration::from_millis(for_ms);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(StdDuration::from_millis(10));
    }
    cond()
}

/// Payloads encode the committed version as `v<N>`; parsing one back
/// out lets reads prove they are not stale.
fn version_of(data: &[u8]) -> u64 {
    let s = std::str::from_utf8(data).expect("utf8 payload");
    s.rsplit('v')
        .next()
        .unwrap()
        .parse()
        .expect("versioned payload")
}

/// Safety and liveness through the chaos proxy over real TCP: seeded
/// drops, delays, and resets on both directions, plus an explicit
/// one-way partition window. Successful reads must never go backwards
/// in version, every write must commit within `min(t, t_v)` plus
/// slack, and once the chaos stops the system must quiesce to the
/// latest version.
#[test]
fn no_stale_reads_and_bounded_write_delay_under_chaos() {
    const OBJ: ObjectId = ObjectId(1);
    let t_v = StdDuration::from_millis(500);
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
    let server = LeaseServer::spawn(
        ServerConfig {
            volume_lease: t_v,
            object_lease: StdDuration::from_secs(10),
            ..ServerConfig::new(SRV)
        },
        chaos.wrap(server_node),
        clock,
    );
    server.create_object(OBJ, Bytes::from_static(b"o1 v1"));

    let client_node = dial(1, addr);
    let client = CacheClient::spawn(patient_client(1), chaos.wrap(client_node), clock);

    let mut version = 1u64;
    let mut last_seen = 0u64;
    let mut successes = 0u32;
    for round in 0..12u32 {
        if round == 5 {
            // A one-way partition: the server cannot reach the client
            // for 300 ms, exactly the window where dropped
            // invalidations would cause staleness if leases lied.
            chaos.partition_one_way(
                NodeId::Server(SRV),
                NodeId::Client(ClientId(1)),
                StdDuration::from_millis(300),
            );
        }
        version += 1;
        let out = server.write(OBJ, Bytes::from(format!("o1 v{version}")));
        // Paper bound: write delay ≤ min(t, t_v); allow scheduling slack.
        assert!(
            out.delay <= Duration::from_millis(t_v.as_millis() as u64 + 500),
            "round {round}: write delayed {} — exceeds t_v + slack",
            out.delay
        );
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
    let counters = chaos.counters();
    assert!(
        counters.dropped > 0,
        "chaos injected no drops: {counters:?}"
    );

    // Faults stop; the system must quiesce: a fresh write propagates
    // and the client converges on the latest version.
    chaos.stop();
    version += 1;
    server.write(OBJ, Bytes::from(format!("o1 v{version}")));
    assert!(
        eventually(5_000, || client
            .read(OBJ)
            .is_ok_and(|d| version_of(&d) == version)),
        "client never converged on v{version} after chaos stopped"
    );
    assert!(
        !client.is_degraded(),
        "quiesced client still reports a degraded link"
    );
    client.shutdown();
    server.shutdown();
}

/// The chaos schedule is a pure function of (seed, send sequence):
/// two nets with the same seed fed the identical sequence emit
/// byte-identical schedules, and a different seed diverges.
#[test]
fn chaos_schedule_is_deterministic_per_seed() {
    let run = |seed: u64| -> String {
        let chaos = ChaosNet::new(ChaosConfig {
            seed,
            drop_prob: 0.2,
            delay_prob: 0.2,
            max_delay_ms: 10,
            reorder_prob: 0.1,
            reset_prob: 0.05,
            reset_burst: 2,
            ..ChaosConfig::default()
        });
        let net = InMemoryNetwork::new();
        let a = chaos.wrap(net.endpoint(NodeId::Client(ClientId(1))));
        let _b = net.endpoint(NodeId::Server(SRV));
        for i in 0..300u32 {
            let _ = a.send(NodeId::Server(SRV), Bytes::from(i.to_le_bytes().to_vec()));
        }
        chaos.schedule()
    };
    let first = run(7);
    assert!(!first.is_empty(), "schedule recorded no verdicts");
    assert_eq!(first, run(7), "same seed must replay byte-identically");
    assert_ne!(first, run(8), "different seed should diverge");
}

/// Kill-and-restart over real TCP: the server crashes, restarts from
/// stable storage on a NEW port (the old one lingers in TIME_WAIT),
/// and the client — told the new address — auto-reconnects, observes
/// the epoch bump, runs the reconnection protocol, and reads fresh
/// data. The degraded spell is visible while the server is down.
#[test]
fn kill_and_restart_recovers_through_reconnection() {
    const OBJ: ObjectId = ObjectId(1);
    let path = stable_path("kill_restart.stable");
    let cfg = |p: std::path::PathBuf| ServerConfig {
        object_lease: StdDuration::from_secs(10),
        volume_lease: StdDuration::from_millis(400),
        stable_path: Some(p),
        ..ServerConfig::new(SRV)
    };
    let clock = WallClock::new();
    let server_node = listen();
    let addr = server_node.local_addr().unwrap();
    let server = LeaseServer::spawn(cfg(path.clone()), server_node, clock);
    server.create_object(OBJ, Bytes::from_static(b"k v1"));

    // Keep a handle on the client's transport so we can repoint it at
    // the restarted server (stand-in for service discovery).
    let client_node = Arc::new(dial(1, addr));
    let client = CacheClient::spawn(patient_client(1), Arc::clone(&client_node), clock);
    assert_eq!(&client.read(OBJ).unwrap()[..], b"k v1");
    assert_eq!(client.server_epoch(), Epoch(0));

    // Kill. The driver drops its endpoint, which closes every socket;
    // the client's reader sees EOF and flags the link degraded.
    server.crash();
    assert!(
        eventually(3_000, || client.is_degraded()),
        "client never noticed the server die"
    );

    // Restart from the same stable record on a fresh port.
    let server_node = listen();
    let new_addr = server_node.local_addr().unwrap();
    let server = LeaseServer::spawn(cfg(path.clone()), server_node, clock);
    server.create_object(OBJ, Bytes::from_static(b"k v1")); // reload "disk"
    assert_eq!(server.stats().epoch, Epoch(1), "epoch bumps on reboot");
    // A write during the outage is what makes the client's copy stale.
    server.write(OBJ, Bytes::from_static(b"k v2"));
    client_node.set_peer_addr(NodeId::Server(SRV), new_addr);

    // The supervisor re-dials, the client probes with its stale epoch,
    // and the MUST_RENEW_ALL exchange re-syncs everything.
    assert!(
        eventually(5_000, || client.server_epoch() == Epoch(1)),
        "client never observed the epoch bump (still at {:?})",
        client.server_epoch()
    );
    assert!(
        eventually(5_000, || client.read(OBJ).is_ok_and(|d| &d[..] == b"k v2")),
        "client never read post-restart data"
    );
    let stats = client.stats();
    assert!(stats.reconnections >= 1, "no reconnection recorded");
    assert!(stats.epoch_changes >= 1, "no epoch change recorded");
    assert!(stats.degraded_spells >= 1, "no degraded spell recorded");
    assert!(
        eventually(2_000, || !client.is_degraded()),
        "link still degraded after recovery"
    );
    client.shutdown();
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// A client whose connection drops is demoted to the unreachable set
/// (§3.1.1) — its leases stay intact, so writes still wait them out,
/// but the server stops counting on reaching it.
#[test]
fn server_demotes_dropped_connection_to_unreachable() {
    const OBJ: ObjectId = ObjectId(1);
    let t_v = StdDuration::from_millis(300);
    let clock = WallClock::new();
    let server_node = listen();
    let addr = server_node.local_addr().unwrap();
    let server = LeaseServer::spawn(
        ServerConfig {
            volume_lease: t_v,
            object_lease: StdDuration::from_secs(10),
            ..ServerConfig::new(SRV)
        },
        server_node,
        clock,
    );
    server.create_object(OBJ, Bytes::from_static(b"u v1"));

    let client = CacheClient::spawn(patient_client(1), dial(1, addr), clock);
    assert_eq!(&client.read(OBJ).unwrap()[..], b"u v1");
    assert_eq!(server.stats().unreachable, 0);

    // Shutdown drops the client's node: the server's reader sees the
    // close and the driver feeds PeerDisconnected into the machine.
    client.shutdown();
    assert!(
        eventually(3_000, || {
            let s = server.stats();
            s.disconnects >= 1 && s.unreachable == 1
        }),
        "server never demoted the dropped client: {:?}",
        server.stats()
    );

    // Safety half: the lease itself was NOT revoked, so a write issued
    // now still waits out the volume lease the dead client holds.
    let started = Instant::now();
    let out = server.write(OBJ, Bytes::from_static(b"u v2"));
    let waited = started.elapsed();
    assert!(
        out.waited_out >= 1 || waited >= StdDuration::from_millis(50),
        "write ignored the disconnected client's still-valid lease"
    );
    assert!(
        out.delay <= Duration::from_millis(t_v.as_millis() as u64 + 500),
        "write over-waited: {}",
        out.delay
    );
    server.shutdown();
}
