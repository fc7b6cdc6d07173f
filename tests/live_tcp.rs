//! The full live stack over real TCP loopback: same protocol code, real
//! sockets.

use bytes::Bytes;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use vl_client::{CacheClient, ClientConfig};
use vl_net::poll::{encode_hello, PollConfig, PollNode, Reactor};
use vl_net::shard::ShardedNode;
use vl_net::tcp::{read_frame, write_frame};
use vl_net::NodeId;
use vl_proto::{codec, ClientMsg, ServerMsg};
use vl_server::{LeaseServer, ServerConfig, WallClock};
use vl_types::{ClientId, Epoch, ObjectId, ServerId, Version, VolumeId};

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

/// One driver hosted across two reactors: it lives on shard 0's loop,
/// shard 1 forwards its events there and gets its replies back as
/// sends. A client on each shard must see the same server.
#[test]
fn two_reactors_host_one_driver() {
    let node = ShardedNode::listen(NodeId::Server(SRV), "127.0.0.1:0", 2, PollConfig::default());
    let node = Arc::new(node.unwrap());
    let server = LeaseServer::spawn(ServerConfig::new(SRV), Arc::clone(&node), WallClock::new());
    server.create_object(OBJ, Bytes::from_static(b"v1"));

    // The kernel picks the shard by 4-tuple: connect until each has one.
    let mut clients: [Option<TcpStream>; 2] = [None, None];
    for id in 1..=64 {
        let mut stream = TcpStream::connect(node.local_addr()).unwrap();
        write_frame(&mut stream, &encode_hello(NodeId::Client(ClientId(id)))).unwrap();
        read_frame(&mut stream).unwrap();
        let shard = node
            .shard_of(NodeId::Client(ClientId(id)))
            .expect("hello answered");
        clients[shard].get_or_insert(stream);
        if clients.iter().all(Option::is_some) {
            break;
        }
    }
    let mut clients = clients.map(|c| c.expect("64 connections landed on one shard"));

    let (mut sent, mut received) = (0, 0);
    let mut ask = |stream: &mut TcpStream, msg: ClientMsg| {
        write_frame(stream, &codec::encode_client(&msg)).unwrap();
        sent += 1;
    };
    let mut hear = |stream: &mut TcpStream| {
        received += 1;
        codec::decode_server(&read_frame(stream).unwrap()).unwrap()
    };
    for stream in &mut clients {
        let (volume, epoch) = (VolumeId(SRV.raw()), Epoch(0));
        ask(stream, ClientMsg::ReqVolLease { volume, epoch });
        assert!(matches!(hear(stream), ServerMsg::VolLease { .. }));
        let (object, version) = (OBJ, Version::NONE);
        ask(stream, ClientMsg::ReqObjLease { object, version });
        assert!(matches!(hear(stream), ServerMsg::ObjLease { .. }));
    }
    let out = std::thread::scope(|scope| {
        let write = scope.spawn(|| server.write(OBJ, Bytes::from_static(b"v2")));
        for stream in &mut clients {
            let ServerMsg::Invalidate { object } = hear(stream) else {
                panic!("the write must invalidate the holder on either shard");
            };
            ask(stream, ClientMsg::AckInvalidate { object });
        }
        write.join().unwrap()
    });
    assert_eq!((out.invalidations_sent, out.waited_out), (2, 0));
    let stats = server.stats();
    assert_eq!((stats.msgs_in, stats.msgs_out), (sent, received));
    server.shutdown();
}

/// A thousand real clients, multiplexed over four client reactors,
/// against one driver hosted across four server reactors: every read
/// is served, every connection is held, and every shard holds some.
#[test]
fn four_reactors_hold_a_thousand_clients() {
    const REACTORS: usize = 4;
    const CLIENTS: usize = 1_000;
    // A connect storm on a loaded machine must not turn a slow hello
    // into a failed dial, nor a silent peer into a reaped one.
    let secs = std::time::Duration::from_secs;
    let cfg = PollConfig {
        idle_deadline: Some(secs(60)),
        dial_timeout: secs(10),
        hello_timeout: secs(20),
        ..PollConfig::default()
    };
    let node = ShardedNode::listen(NodeId::Server(SRV), "127.0.0.1:0", REACTORS, cfg.clone());
    let node = Arc::new(node.unwrap());
    let server = LeaseServer::spawn(ServerConfig::new(SRV), Arc::clone(&node), WallClock::new());
    server.create_object(OBJ, Bytes::from_static(b"v1"));
    let addr = node.local_addr();

    // One dialing thread per client reactor, each connecting and reading
    // through its share of the clients.
    let clients: Vec<Vec<CacheClient>> = std::thread::scope(|scope| {
        let dial_share = |r: usize| {
            let reactor = Reactor::spawn(cfg.clone()).unwrap();
            let mine: Vec<CacheClient> = (r + 1..=CLIENTS)
                .step_by(REACTORS)
                .map(|id| {
                    let id = ClientId(id as u32);
                    let endpoint = reactor.node(NodeId::Client(id));
                    endpoint.dial(addr).unwrap();
                    CacheClient::spawn(ClientConfig::new(id, SRV), endpoint, WallClock::new())
                })
                .collect();
            for c in &mine {
                assert_eq!(&c.read(OBJ).unwrap()[..], b"v1");
            }
            mine
        };
        let dialers: Vec<_> = (0..REACTORS)
            .map(|r| scope.spawn(move || dial_share(r)))
            .collect();
        dialers.into_iter().map(|d| d.join().unwrap()).collect()
    });
    assert_eq!(clients.iter().map(Vec::len).sum::<usize>(), CLIENTS);

    let connected: Vec<usize> = node.shard_stats().iter().map(|s| s.connected).collect();
    assert_eq!(connected.iter().sum::<usize>(), CLIENTS, "{connected:?}");
    assert_eq!(connected.len(), REACTORS);
    assert!(connected.iter().all(|&n| n >= 1), "{connected:?}");
    drop(clients);
    server.shutdown();
}
