//! Every driver is a handler its endpoint hosts: over a reactor, plain
//! or behind the chaos wrapper, spawning a server or a client starts no
//! thread — the reactor's loop runs it. One test in this file, so
//! nothing else in the process starts threads while it counts them.

use bytes::Bytes;
use vl_client::{CacheClient, ClientConfig};
use vl_net::chaos::{ChaosNet, ChaosProfile};
use vl_net::poll::{PollConfig, Reactor};
use vl_net::NodeId;
use vl_server::{LeaseServer, ServerConfig, WallClock};
use vl_types::{ClientId, ObjectId, ServerId};

const OBJ: ObjectId = ObjectId(1);

/// This process's thread count, as `/proc/self/status` has it.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"));
    line.expect("a Threads: line").trim().parse().unwrap()
}

#[test]
fn hosted_drivers_start_no_thread() {
    let clock = WallClock::new();
    let cfg = PollConfig {
        idle_deadline: None,
        ..PollConfig::default()
    };
    let reactor = Reactor::spawn(cfg.clone()).unwrap();
    let node = reactor
        .listen(NodeId::Server(ServerId(0)), "127.0.0.1:0")
        .unwrap();
    let addr = node.local_addr().unwrap();
    // Delays, so the read below also needs what the wrapper holds back
    // released on the reactor.
    let chaos = ChaosNet::new(ChaosProfile::Delays.config(7));
    let before = threads();
    let config = ServerConfig::new(ServerId(0));
    let server = LeaseServer::spawn(config, chaos.wrap(node), clock);
    assert_eq!(threads(), before, "wrapping and hosting the server");
    server.create_object(OBJ, Bytes::from_static(b"v1"));

    let node = Reactor::spawn(cfg)
        .unwrap()
        .node(NodeId::Client(ClientId(1)));
    node.dial(addr).unwrap();
    let before = threads();
    let config = ClientConfig::new(ClientId(1), ServerId(0));
    let client = CacheClient::spawn(config, node, clock);
    assert_eq!(threads(), before, "hosting the client");
    assert_eq!(&client.read(OBJ).unwrap()[..], b"v1");
    assert!(
        chaos.counters().sends > 0,
        "the server answered through chaos"
    );

    client.shutdown();
    server.shutdown();
}
