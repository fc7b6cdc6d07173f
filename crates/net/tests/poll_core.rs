//! Regression tests for the readiness event loop itself — wakeup
//! discipline, shared-reactor multiplexing, backpressure accounting,
//! connection supervision, and the ordering of the single event
//! stream. These pin the properties that motivated replacing the
//! thread-per-peer transport: an idle server must *block*, not poll.

use bytes::Bytes;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use vl_net::poll::{decode_hello, encode_hello, PollConfig, PollNode, Reactor};
use vl_net::retry::RetryPolicy;
use vl_net::tcp::{read_frame, write_frame, MAX_FRAME_LEN};
use vl_net::{Channel, NetError, NetEvent, NodeId};
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

/// Fast supervision tuning for tests that wait on reconnects.
fn quick_cfg() -> PollConfig {
    PollConfig {
        idle_deadline: Some(Duration::from_millis(400)),
        redial: RetryPolicy {
            base: Duration::from_millis(20),
            max: Duration::from_millis(100),
            ..RetryPolicy::default()
        },
        ..PollConfig::default()
    }
}

/// A listening node on a reactor of its own.
fn listen(id: NodeId, cfg: PollConfig) -> PollNode {
    Reactor::spawn(cfg)
        .unwrap()
        .listen(id, "127.0.0.1:0")
        .unwrap()
}

/// A node on a reactor of its own, connected to `addr`.
fn dial(id: NodeId, addr: SocketAddr, cfg: PollConfig) -> PollNode {
    let node = Reactor::spawn(cfg).unwrap().node(id);
    node.dial(addr).unwrap();
    node
}

/// A hand-rolled peer: connects and completes the hello, nothing more.
fn raw_peer(id: NodeId, addr: SocketAddr) -> TcpStream {
    let mut raw = TcpStream::connect(addr).unwrap();
    write_frame(&mut raw, &encode_hello(id)).unwrap();
    let _ = read_frame(&mut raw).unwrap();
    raw
}

/// Drains `node`'s event stream until `done` holds for what has been
/// collected, or `secs` pass; returns everything seen either way.
fn collect(node: &PollNode, secs: u64, done: impl Fn(&[NetEvent]) -> bool) -> Vec<NetEvent> {
    let deadline = Instant::now() + Duration::from_secs(secs);
    let mut seen = Vec::new();
    while !done(&seen) {
        let left = deadline.saturating_duration_since(Instant::now());
        match node.recv_event(Some(left)) {
            Ok(ev) => seen.push(ev),
            Err(_) => break,
        }
    }
    seen
}

fn frame(from: NodeId, bytes: &[u8]) -> NetEvent {
    NetEvent::Frame {
        from,
        bytes: Bytes::from(bytes.to_vec()),
    }
}

/// The pinned-CPU regression: a server holding open-but-quiet
/// connections must park in `epoll_wait`, not spin a poll tick. With
/// the idle deadline disabled there is no timer to serve, so over a
/// two-second window the loop should wake at most a handful of times
/// (stragglers from connection setup), never the hundreds a 20 ms
/// tick would produce.
#[test]
fn idle_loop_blocks_instead_of_polling() {
    let cfg = PollConfig {
        idle_deadline: None, // no keepalives, no sweep timer
        ..PollConfig::default()
    };
    let server_reactor = Reactor::spawn(cfg.clone()).unwrap();
    let server = server_reactor.listen(srv(0), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();

    let client_reactor = Reactor::spawn(cfg).unwrap();
    let mut clients = Vec::new();
    for i in 0..100 {
        let c = client_reactor.node(cli(i));
        c.dial(addr).unwrap();
        clients.push(c);
    }
    assert!(
        wait_for(|| server.connected_peers().len() == 100, 10),
        "all 100 connections must come up (got {})",
        server.connected_peers().len()
    );

    // Let connection-setup stragglers (hello replies, event
    // bookkeeping) fully drain before sampling.
    std::thread::sleep(Duration::from_millis(300));
    let before = server_reactor.loop_stats();
    std::thread::sleep(Duration::from_secs(2));
    let after = server_reactor.loop_stats();

    let wakeups = after.wakeups - before.wakeups;
    assert!(
        wakeups <= 5,
        "idle loop with 100 quiet connections woke {wakeups} times in 2 s; \
         it must block in epoll_wait (a 20 ms poll tick would be ~100)"
    );
    drop(clients);
}

/// Even with keepalives enabled, wakeups must scale with the keepalive
/// cadence, not with a fixed poll tick: one sweep services every
/// connection's keepalive in a single wakeup.
#[test]
fn keepalive_wakeups_are_batched_not_per_connection() {
    let cfg = PollConfig {
        idle_deadline: Some(Duration::from_secs(3)), // keepalive every 1 s
        ..PollConfig::default()
    };
    let server_reactor = Reactor::spawn(cfg.clone()).unwrap();
    let server = server_reactor.listen(srv(0), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();

    let client_reactor = Reactor::spawn(cfg).unwrap();
    let clients: Vec<_> = (0..50)
        .map(|i| {
            let c = client_reactor.node(cli(i));
            c.dial(addr).unwrap();
            c
        })
        .collect();
    assert!(wait_for(|| server.connected_peers().len() == 50, 10));

    std::thread::sleep(Duration::from_millis(300));
    let before = server_reactor.loop_stats();
    std::thread::sleep(Duration::from_secs(2));
    let after = server_reactor.loop_stats();

    // ~2 keepalive sweeps of our own + ~2 × 50 inbound keepalive
    // frames from clients, which arrive clustered (each client
    // reactor sends all its keepalives in one sweep, so they land in
    // few epoll batches). Allow generous slack; the failure mode this
    // guards against is per-connection timers (≥ 100 wakeups just for
    // our own keepalives) or a poll tick (~100 wakeups flat).
    let wakeups = after.wakeups - before.wakeups;
    assert!(
        wakeups < 60,
        "keepalive upkeep for 50 connections took {wakeups} wakeups in 2 s; \
         sweeps must be batched"
    );
    drop(clients);
}

/// Many nodes multiplexed onto ONE reactor — the shape the live
/// benchmark uses — must still route frames by identity.
#[test]
fn shared_reactor_multiplexes_many_nodes() {
    let reactor = Reactor::spawn(PollConfig::default()).unwrap();
    let server = reactor.listen(srv(0), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();

    let clients: Vec<_> = (0..20)
        .map(|i| {
            let c = reactor.node(cli(i));
            c.dial(addr).unwrap();
            c
        })
        .collect();

    for (i, c) in clients.iter().enumerate() {
        c.send(srv(0), Bytes::from(vec![i as u8])).unwrap();
    }
    let mut seen = [false; 20];
    for _ in 0..20 {
        let (from, frame) = server.recv_timeout(Duration::from_secs(5)).unwrap();
        let NodeId::Client(ClientId(n)) = from else {
            panic!("unexpected sender {from:?}");
        };
        assert_eq!(&frame[..], &[n as u8], "frame must match its sender");
        seen[n as usize] = true;
    }
    assert!(
        seen.iter().all(|&s| s),
        "every client heard from exactly once"
    );

    // And the reverse direction: server addresses each client.
    for (i, c) in clients.iter().enumerate() {
        server
            .send(cli(i as u32), Bytes::from(vec![0xF0, i as u8]))
            .unwrap();
        let (from, frame) = c.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(from, srv(0));
        assert_eq!(&frame[..], &[0xF0, i as u8]);
    }
}

/// Overflowing a bounded send queue while the peer is down must drop
/// the oldest frames and account for it; reconnecting drains the
/// survivors in order.
#[test]
fn queue_overflow_drops_oldest_and_counts() {
    let cfg = PollConfig {
        queue_cap: 4,
        redial: RetryPolicy {
            base: Duration::from_millis(20),
            max: Duration::from_millis(100),
            ..RetryPolicy::default()
        },
        ..PollConfig::default()
    };
    let reactor = Reactor::spawn(cfg.clone()).unwrap();
    let client = reactor.node(cli(1));

    let server = Reactor::spawn(cfg.clone()).unwrap();
    let server_node = server.listen(srv(0), "127.0.0.1:0").unwrap();
    let addr = server_node.local_addr().unwrap();
    client.dial(addr).unwrap();
    assert!(wait_for(|| client.is_connected(srv(0)), 5));

    drop(server_node);
    drop(server);
    assert!(
        wait_for(|| !client.is_connected(srv(0)), 5),
        "client must notice the server dying"
    );

    // 6 sends into a cap-4 queue: 0 and 1 fall off the front.
    for i in 0..6u8 {
        client.send(srv(0), Bytes::from(vec![i])).unwrap();
    }
    // Sends are commands drained by the loop; wait for it to catch up.
    assert!(
        wait_for(|| client.wire_stats().queue(srv(0)).enqueued == 6, 5),
        "loop must drain the send commands"
    );
    let q = client.wire_stats().queue(srv(0));
    assert_eq!(q.depth, 4);
    assert_eq!(q.dropped_overflow, 2, "oldest two dropped");

    let revived = Reactor::spawn(cfg).unwrap();
    let revived_node = revived.listen(srv(0), "127.0.0.1:0").unwrap();
    client.set_peer_addr(srv(0), revived_node.local_addr().unwrap());

    for expect in 2..6u8 {
        let (_, frame) = revived_node.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&frame[..], &[expect], "survivors drain in order");
    }
    assert_eq!(client.wire_stats().queue(srv(0)).depth, 0);
}

/// What the single stream guarantees: a connection's `Up` precedes its
/// first frame and its `Down` follows its last one, each reported
/// once — a peer that sends k frames and closes yields exactly
/// `Up, Frame×k, Down`.
#[test]
fn stream_orders_up_frames_down_per_connection() {
    let server = listen(srv(0), quick_cfg());
    let mut raw = raw_peer(cli(3), server.local_addr().unwrap());
    for i in 0..5u8 {
        write_frame(&mut raw, &Bytes::from(vec![i])).unwrap();
    }
    drop(raw);

    let mut want = vec![NetEvent::Up(cli(3))];
    want.extend((0..5u8).map(|i| frame(cli(3), &[i])));
    want.push(NetEvent::Down(cli(3)));
    let got = collect(&server, 5, |seen| seen.len() == want.len());
    assert_eq!(got, want);
    assert_eq!(
        server.recv_event(Some(Duration::from_millis(100))),
        Err(NetError::Timeout),
        "each link-state change is reported once"
    );
}

#[test]
fn dialer_sees_up_before_the_reply_and_wake_interleaves() {
    let server = listen(srv(0), quick_cfg());
    let client = dial(cli(7), server.local_addr().unwrap(), quick_cfg());
    client.send(srv(0), Bytes::from_static(b"ping")).unwrap();
    let (from, bytes) = server.recv_timeout(Duration::from_secs(2)).unwrap();
    assert_eq!((from, &bytes[..]), (cli(7), &b"ping"[..]));
    server.send(cli(7), Bytes::from_static(b"pong")).unwrap();
    let got = collect(&client, 2, |seen| seen.len() == 2);
    assert_eq!(got, vec![NetEvent::Up(srv(0)), frame(srv(0), b"pong")]);

    client.wake();
    assert_eq!(client.recv_event(None), Ok(NetEvent::Woken));
}

#[test]
fn send_to_unknown_peer_errors() {
    let node = listen(srv(1), PollConfig::default());
    assert_eq!(
        node.send(cli(9), Bytes::new()),
        Err(NetError::UnknownNode(cli(9)))
    );
}

#[test]
fn hello_roundtrip_and_rejects() {
    for id in [cli(0), cli(u32::MAX), srv(3)] {
        assert_eq!(decode_hello(&encode_hello(id)).unwrap(), id);
    }
    assert!(decode_hello(&Bytes::from_static(b"xx")).is_err());
    assert!(decode_hello(&Bytes::from_static(&[9, 0, 0, 0, 0])).is_err());
}

#[test]
fn queued_sends_drain_after_redial_to_new_address() {
    let server = listen(srv(0), quick_cfg());
    let client = dial(cli(1), server.local_addr().unwrap(), quick_cfg());

    client.send(srv(0), Bytes::from_static(b"before")).unwrap();
    assert!(server.recv_timeout(Duration::from_secs(2)).is_ok());

    drop(server); // crash
    assert!(
        wait_for(|| !client.is_connected(srv(0)), 5),
        "client must detect the dead server"
    );

    // Sends while down queue instead of erroring.
    for i in 0..3u8 {
        client.send(srv(0), Bytes::from(vec![i])).unwrap();
    }
    // `send` posts a command the loop drains asynchronously, so
    // wait for the accounting rather than asserting a snapshot.
    assert!(
        wait_for(|| client.wire_stats().queue(srv(0)).depth >= 3, 5),
        "queue depth must surface through WireStats"
    );

    // Restart on a NEW port (the old one may sit in TIME_WAIT) and
    // point supervision at it — the service-discovery step.
    let revived = listen(srv(0), quick_cfg());
    client.set_peer_addr(srv(0), revived.local_addr().unwrap());

    let mut want = vec![NetEvent::Up(cli(1))];
    want.extend((0..3u8).map(|i| frame(cli(1), &[i])));
    let got = collect(&revived, 5, |seen| seen.len() == want.len());
    assert_eq!(got, want, "queue must drain in order");
    assert!(client.is_connected(srv(0)));
    let link = [
        NetEvent::Up(srv(0)),
        NetEvent::Down(srv(0)),
        NetEvent::Up(srv(0)),
    ];
    assert_eq!(collect(&client, 5, |seen| seen.len() == 3), link);
    assert!(
        wait_for(|| client.wire_stats().queue(srv(0)).depth == 0, 5),
        "drained"
    );
}

#[test]
fn silent_inbound_peer_is_reaped_by_idle_deadline() {
    let server = listen(srv(0), quick_cfg());
    // Completes the hello, then goes silent (and never reads, so no
    // keepalives reach our reader either — from the server's side it
    // is indistinguishable from wedged).
    let _raw = raw_peer(cli(8), server.local_addr().unwrap());
    let got = collect(&server, 5, |seen| seen.len() == 2);
    assert_eq!(
        got,
        vec![NetEvent::Up(cli(8)), NetEvent::Down(cli(8))],
        "idle deadline must reap the silent peer"
    );
}

#[test]
fn adversarial_length_header_tears_down_only_that_connection() {
    let server = listen(srv(0), quick_cfg());
    let addr = server.local_addr().unwrap();

    // Completes the hello, then claims an impossible frame length. The
    // stream can never resync past a bad header, so the server must
    // drop the connection — well before the idle deadline, and without
    // allocating the claimed payload.
    let mut evil = raw_peer(cli(66), addr);
    let start = Instant::now();
    evil.write_all(&(MAX_FRAME_LEN + 1).to_le_bytes()).unwrap();
    evil.flush().unwrap();

    let got = collect(&server, 5, |seen| seen.contains(&NetEvent::Down(cli(66))));
    assert!(
        got.contains(&NetEvent::Down(cli(66))),
        "oversize header must tear the connection down"
    );
    assert!(
        start.elapsed() < Duration::from_millis(300),
        "teardown must be immediate, not idle-deadline reaping ({:?})",
        start.elapsed()
    );

    // The server itself is unharmed: an honest peer connects and
    // exchanges frames as usual.
    let honest = dial(cli(7), addr, quick_cfg());
    honest.send(srv(0), Bytes::from_static(b"hi")).unwrap();
    let (from, bytes) = server.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!((from, &bytes[..]), (cli(7), &b"hi"[..]));
}

#[test]
fn keepalives_hold_an_idle_link_open() {
    let server = listen(srv(0), quick_cfg());
    let client = dial(cli(2), server.local_addr().unwrap(), quick_cfg());

    // Well past the 400 ms idle deadline with zero app traffic.
    std::thread::sleep(Duration::from_millis(1200));
    assert!(client.is_connected(srv(0)), "keepalives must keep it up");
    client
        .send(srv(0), Bytes::from_static(b"still here"))
        .unwrap();
    let got = collect(&server, 2, |seen| seen.len() == 2);
    assert_eq!(
        got,
        vec![NetEvent::Up(cli(2)), frame(cli(2), b"still here")],
        "no Down, and no keepalive surfaces as a frame"
    );
}
