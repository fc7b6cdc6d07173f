//! Regression tests for the sharded readiness core (`vl-net::shard`):
//! fd→reactor pinning, single-inbox frame routing, per-shard
//! accounting, and the idle-wakeup discipline carried over from the
//! single-loop reactor.

use bytes::Bytes;
use std::time::{Duration, Instant};
use vl_net::poll::encode_hello;
use vl_net::poll::{PollConfig, Reactor};
use vl_net::shard::ShardedNode;
use vl_net::tcp::{read_frame, write_frame};
use vl_net::{Channel, NetEvent, NodeId};
use vl_types::{ClientId, ServerId};

fn srv(n: u32) -> NodeId {
    NodeId::Server(ServerId(n))
}

fn cli(n: u32) -> NodeId {
    NodeId::Client(ClientId(n))
}

fn wait_for<F: FnMut() -> bool>(mut cond: F, secs: u64) -> bool {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

/// The ownership invariant of DESIGN.md §12: the kernel assigns each
/// accepted connection to one member of the reuseport group, and that
/// assignment never changes for the life of the connection — every
/// frame a client exchanges is served by the shard that accepted it.
#[test]
fn connections_pin_to_one_shard_and_never_migrate() {
    const N: u32 = 40;
    let server = ShardedNode::listen(srv(0), "127.0.0.1:0", 4, PollConfig::default()).unwrap();
    assert_eq!(server.shard_count(), 4);
    let addr = server.local_addr();

    let client_reactor = Reactor::spawn(PollConfig::default()).unwrap();
    let clients: Vec<_> = (0..N)
        .map(|i| {
            let c = client_reactor.node(cli(i));
            c.dial(addr).unwrap();
            c
        })
        .collect();
    let connected = || {
        server
            .shard_stats()
            .iter()
            .map(|s| s.connected)
            .sum::<usize>()
    };
    assert!(
        wait_for(|| connected() == N as usize, 10),
        "all {N} connections must come up (got {})",
        connected()
    );

    // Every client lives on exactly one shard. `shard_of` finds the
    // first shard claiming the peer; if any client were (incorrectly)
    // live on two shards, the per-shard connected counts would sum
    // past N.
    let home: Vec<usize> = (0..N)
        .map(|i| {
            server
                .shard_of(cli(i))
                .expect("connected client has a home shard")
        })
        .collect();
    let stats = server.shard_stats();
    let total_connected: usize = stats.iter().map(|s| s.connected).sum();
    assert_eq!(total_connected, N as usize, "each fd on exactly one shard");
    assert!(
        stats.iter().filter(|s| s.connected > 0).count() >= 2,
        "4-tuple hashing must spread {N} connections over several shards \
         (distribution: {:?})",
        stats.iter().map(|s| s.connected).collect::<Vec<_>>()
    );

    // Traffic both ways, twice, with shard checks in between: frames
    // from every shard funnel into the one inbox, replies route back
    // out through the owning shard, and ownership never moves.
    for round in 0..2u8 {
        for (i, c) in clients.iter().enumerate() {
            c.send(srv(0), Bytes::from(vec![round, i as u8])).unwrap();
        }
        let mut seen = vec![false; N as usize];
        for _ in 0..N {
            let (from, frame) = server.recv_timeout(Duration::from_secs(5)).unwrap();
            let NodeId::Client(ClientId(n)) = from else {
                panic!("unexpected sender {from:?}");
            };
            assert_eq!(&frame[..], &[round, n as u8]);
            seen[n as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "every client heard from");

        for (i, c) in clients.iter().enumerate() {
            server
                .send(cli(i as u32), Bytes::from(vec![0xF0, round, i as u8]))
                .unwrap();
            let (from, frame) = c.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(from, srv(0));
            assert_eq!(&frame[..], &[0xF0, round, i as u8]);
        }

        for (i, &h) in home.iter().enumerate() {
            assert_eq!(
                server.shard_of(cli(i as u32)),
                Some(h),
                "client {i} migrated shards mid-connection"
            );
        }
    }

    // The merged wire view equals the sum of the per-shard views.
    let merged = Channel::wire_stats(&server).unwrap();
    let per_shard_frames: u64 = server
        .shard_stats()
        .iter()
        .map(|s| s.wire.total_frames())
        .sum();
    assert_eq!(merged.total_frames(), per_shard_frames);
    assert_eq!(merged.total_frames(), u64::from(N) * 2, "2 rounds inbound");
}

/// The idle discipline must survive sharding: N quiet reactors make
/// (at most) N handfuls of wakeups, not N poll ticks.
#[test]
fn idle_sharded_server_makes_near_zero_wakeups() {
    let cfg = PollConfig {
        idle_deadline: None, // no keepalives, no sweep timer
        ..PollConfig::default()
    };
    let server = ShardedNode::listen(srv(0), "127.0.0.1:0", 4, cfg.clone()).unwrap();
    let addr = server.local_addr();

    let client_reactor = Reactor::spawn(cfg).unwrap();
    let clients: Vec<_> = (0..100)
        .map(|i| {
            let c = client_reactor.node(cli(i));
            c.dial(addr).unwrap();
            c
        })
        .collect();
    let connected = || {
        server
            .shard_stats()
            .iter()
            .map(|s| s.connected)
            .sum::<usize>()
    };
    assert!(
        wait_for(|| connected() == 100, 10),
        "all 100 connections must come up (got {})",
        connected()
    );

    std::thread::sleep(Duration::from_millis(300));
    let before = server.loop_stats_total();
    std::thread::sleep(Duration::from_secs(2));
    let after = server.loop_stats_total();

    let wakeups = after.wakeups - before.wakeups;
    assert!(
        wakeups <= 20,
        "4 idle shards holding 100 quiet connections woke {wakeups} times \
         in 2 s; each loop must block in epoll_wait (a 20 ms poll tick \
         would be ~400)"
    );
    drop(clients);
}

/// A single-shard ShardedNode behaves exactly like a plain PollNode —
/// the `--reactors 1` path of `vl serve`.
#[test]
fn single_shard_degenerates_to_plain_node() {
    let server = ShardedNode::listen(srv(0), "127.0.0.1:0", 1, PollConfig::default()).unwrap();
    assert_eq!(server.shard_count(), 1);
    let addr = server.local_addr();

    let client_reactor = Reactor::spawn(PollConfig::default()).unwrap();
    let c = client_reactor.node(cli(7));
    c.dial(addr).unwrap();
    c.send(srv(0), Bytes::from_static(b"ping")).unwrap();
    let (from, frame) = server.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(from, cli(7));
    assert_eq!(&frame[..], b"ping");
    server.send(cli(7), Bytes::from_static(b"pong")).unwrap();
    assert_eq!(
        &c.recv_timeout(Duration::from_secs(5)).unwrap().1[..],
        b"pong"
    );
    assert_eq!(server.shard_of(cli(7)), Some(0));
}

/// The stream-order guarantee survives sharding per connection: with
/// several shards feeding the one inbox, each peer's own events still
/// read `Up`, its frames in order, `Down`.
#[test]
fn sharded_stream_orders_events_per_connection() {
    const PEERS: u32 = 12;
    const FRAMES: u8 = 4;
    let server = ShardedNode::listen(srv(0), "127.0.0.1:0", 4, PollConfig::default()).unwrap();
    for p in 0..PEERS {
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        write_frame(&mut raw, &encode_hello(cli(p))).unwrap();
        let _ = read_frame(&mut raw).unwrap();
        for i in 0..FRAMES {
            write_frame(&mut raw, &Bytes::from(vec![i])).unwrap();
        }
    }

    let per_peer = usize::from(FRAMES) + 2;
    let mut seen: Vec<Vec<NetEvent>> = vec![Vec::new(); PEERS as usize];
    for _ in 0..PEERS as usize * per_peer {
        let ev = server.recv_event(Some(Duration::from_secs(5))).unwrap();
        let peer = match &ev {
            NetEvent::Frame { from, .. } => *from,
            NetEvent::Up(p) | NetEvent::Down(p) => *p,
            NetEvent::Woken => panic!("nobody called wake"),
        };
        let NodeId::Client(ClientId(n)) = peer else {
            panic!("unexpected peer {peer:?}");
        };
        seen[n as usize].push(ev);
    }
    for (p, got) in seen.iter().enumerate() {
        let p = cli(p as u32);
        let mut want = vec![NetEvent::Up(p)];
        want.extend((0..FRAMES).map(|i| NetEvent::Frame {
            from: p,
            bytes: Bytes::from(vec![i]),
        }));
        want.push(NetEvent::Down(p));
        assert_eq!(got, &want);
    }
}
