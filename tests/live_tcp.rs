//! The full live stack over real TCP loopback: same protocol code, real
//! sockets.

use bytes::Bytes;
use std::net::SocketAddr;
use vl_client::{CacheClient, ClientConfig};
use vl_net::poll::{PollConfig, PollNode, Reactor};
use vl_net::NodeId;
use vl_server::{LeaseServer, ServerConfig, WallClock};
use vl_types::{ClientId, ObjectId, ServerId};

const OBJ: ObjectId = ObjectId(1);
const SRV: ServerId = ServerId(0);

/// A listening server node on a reactor of its own.
fn listen() -> PollNode {
    let reactor = Reactor::spawn(PollConfig::default()).unwrap();
    reactor.listen(NodeId::Server(SRV), "127.0.0.1:0").unwrap()
}

/// A client node on a reactor of its own, connected to `addr`.
fn dial(id: u32, addr: SocketAddr) -> PollNode {
    let node = Reactor::spawn(PollConfig::default())
        .unwrap()
        .node(NodeId::Client(ClientId(id)));
    node.dial(addr).unwrap();
    node
}

#[test]
fn read_write_invalidate_over_tcp() {
    let clock = WallClock::new();
    let server_node = listen();
    let addr = server_node.local_addr().unwrap();
    let server = LeaseServer::spawn(ServerConfig::new(SRV), server_node, clock);
    server.create_object(OBJ, Bytes::from_static(b"tcp-v1"));

    let c1 = CacheClient::spawn(ClientConfig::new(ClientId(1), SRV), dial(1, addr), clock);
    let c2 = CacheClient::spawn(ClientConfig::new(ClientId(2), SRV), dial(2, addr), clock);

    assert_eq!(&c1.read(OBJ).unwrap()[..], b"tcp-v1");
    assert_eq!(&c2.read(OBJ).unwrap()[..], b"tcp-v1");
    // Cache hit on the second read.
    assert_eq!(&c1.read(OBJ).unwrap()[..], b"tcp-v1");
    assert_eq!(c1.stats().local_reads, 1);

    let out = server.write(OBJ, Bytes::from_static(b"tcp-v2"));
    assert_eq!(out.invalidations_sent, 2);
    assert_eq!(out.waited_out, 0);

    assert_eq!(&c1.read(OBJ).unwrap()[..], b"tcp-v2");
    assert_eq!(&c2.read(OBJ).unwrap()[..], b"tcp-v2");

    c1.shutdown();
    c2.shutdown();
    server.shutdown();
}

#[test]
fn many_objects_many_rounds_over_tcp() {
    let clock = WallClock::new();
    let server_node = listen();
    let addr = server_node.local_addr().unwrap();
    let server = LeaseServer::spawn(ServerConfig::new(SRV), server_node, clock);
    for i in 0..20u64 {
        server.create_object(ObjectId(i), Bytes::from(format!("obj{i}-v1").into_bytes()));
    }
    let c = CacheClient::spawn(ClientConfig::new(ClientId(1), SRV), dial(1, addr), clock);
    for round in 1..=3u64 {
        for i in 0..20u64 {
            let want = format!("obj{i}-v{round}");
            assert_eq!(&c.read(ObjectId(i)).unwrap()[..], want.as_bytes());
        }
        if round < 3 {
            for i in 0..20u64 {
                server.write(
                    ObjectId(i),
                    Bytes::from(format!("obj{i}-v{}", round + 1).into_bytes()),
                );
            }
        }
    }
    // 60 reads total; after the first round most are cache hits between
    // writes.
    let stats = c.stats();
    assert_eq!(stats.local_reads + stats.remote_reads, 60);
    c.shutdown();
    server.shutdown();
}
