//! Regression tests for the readiness event loop itself — wakeup
//! discipline, shared-reactor multiplexing, backpressure accounting,
//! connection supervision, and the ordering of the single event
//! stream. These pin the properties that motivated replacing the
//! thread-per-peer transport: an idle server must *block*, not poll.

use bytes::Bytes;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use vl_net::poll::{decode_hello, encode_hello, PollConfig, PollNode, Reactor};
use vl_net::retry::RetryPolicy;
use vl_net::shard::ShardedNode;
use vl_net::tcp::{read_frame, write_frame, MAX_FRAME_LEN};
use vl_net::{Channel, Handler, NetError, NetEvent, NodeId, Outbox};
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

    // A handful of sweeps of our own (7–11 timer wakeups: connections
    // dialed a few ms apart fall due a few ms apart). The failure modes
    // this guards against are per-connection timers (≥ 100 timer
    // wakeups just for our own keepalives) or a poll tick (~100 flat).
    let timer = after.timer_wakeups - before.timer_wakeups;
    assert!(
        timer < 40,
        "keepalive upkeep for 50 connections took {timer} timer wakeups in 2 s; \
         sweeps must be batched"
    );
    // The ~2 × 50 inbound keepalive frames wake the loop for I/O too,
    // in as many epoll batches as scheduling splits them into (28–66
    // of all wakeups), and at worst about once each (~110 in all). A
    // loop that woke twice for each inbound frame would read 200 or more.
    let wakeups = after.wakeups - before.wakeups;
    assert!(
        wakeups < 150,
        "50 keepalive connections woke the loop {wakeups} times in 2 s; \
         inbound keepalives must share epoll batches"
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

/// The redial drain used to top the write buffer up once: with no
/// keepalive to re-enter the flush, a backlog larger than the buffer
/// sat in the queue until the next send.
#[test]
fn large_backlog_drains_after_redial() {
    let cfg = PollConfig {
        idle_deadline: None,
        ..quick_cfg()
    };
    let server = listen(srv(0), cfg.clone());
    let client = dial(cli(1), server.local_addr().unwrap(), cfg.clone());
    drop(server);
    assert!(wait_for(|| !client.is_connected(srv(0)), 5));

    for i in 0..40u8 {
        client.send(srv(0), Bytes::from(vec![i; 4096])).unwrap();
    }
    assert!(wait_for(
        || client.wire_stats().queue(srv(0)).depth == 40,
        5
    ));

    let revived = listen(srv(0), cfg);
    client.set_peer_addr(srv(0), revived.local_addr().unwrap());
    for i in 0..40u8 {
        let (_, frame) = revived
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|e| panic!("frame {i} of the backlog never arrived: {e}"));
        assert_eq!(&frame[..], &vec![i; 4096][..]);
    }
    assert!(wait_for(|| client.wire_stats().queue(srv(0)).depth == 0, 5));
}

/// A hosted handler: reports every event (and whether it ran on the
/// loop thread), answers each frame with `replies` numbered frames,
/// and asks to be woken at `deadline` until it has been.
struct Probe {
    seen: mpsc::Sender<(NetEvent, bool)>,
    replies: u32,
    deadline: Option<Instant>,
}

impl Handler for Probe {
    fn on_event(&mut self, event: NetEvent, out: &mut dyn Outbox) -> bool {
        match &event {
            NetEvent::Frame { from, .. } => {
                for i in 0..self.replies {
                    out.send(*from, Bytes::from(i.to_le_bytes().to_vec()))
                        .unwrap();
                }
            }
            NetEvent::Woken => self.deadline = self.deadline.filter(|&at| Instant::now() < at),
            _ => {}
        }
        let on_loop = std::thread::current().name() == Some("vl-poll-loop");
        self.seen.send((event, on_loop)).is_ok()
    }

    fn next_deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

fn host(
    node: &Arc<PollNode>,
    replies: u32,
    deadline: Option<Instant>,
) -> mpsc::Receiver<(NetEvent, bool)> {
    let (seen, events) = mpsc::channel();
    let probe = Probe {
        seen,
        replies,
        deadline,
    };
    Arc::clone(node).host(Box::new(probe));
    events
}

/// `stream_orders_up_frames_down_per_connection` for a hosted handler:
/// the same stream, delivered by calls on the loop thread, with the
/// events that were already in the inbox first and `wake` arriving as
/// `Woken` on that thread too.
#[test]
fn hosted_stream_orders_up_frames_down_per_connection() {
    let node = Arc::new(listen(srv(0), quick_cfg()));
    let server = &*node;
    let mut early = raw_peer(cli(2), server.local_addr().unwrap());
    write_frame(&mut early, &Bytes::from_static(b"early")).unwrap();
    assert!(wait_for(|| server.wire_stats().total_frames() == 1, 5));

    let events = host(&node, 0, None);
    let mut raw = raw_peer(cli(3), server.local_addr().unwrap());
    for i in 0..5u8 {
        write_frame(&mut raw, &Bytes::from(vec![i])).unwrap();
    }
    drop(raw);

    let mut want = vec![NetEvent::Up(cli(2)), frame(cli(2), b"early")];
    want.push(NetEvent::Up(cli(3)));
    want.extend((0..5u8).map(|i| frame(cli(3), &[i])));
    want.push(NetEvent::Down(cli(3)));
    for want in want {
        let (got, on_loop) = events.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got, want);
        assert!(on_loop, "{want:?} reached the handler off the loop thread");
    }
    server.wake();
    let woken = events.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(woken, (NetEvent::Woken, true));
    assert_eq!(
        server.recv_event(Some(Duration::from_millis(100))),
        Err(NetError::Timeout),
        "a hosted node's inbox stays empty"
    );
}

/// A reactor hosts one handler per node, not per loop: two listening
/// nodes on one loop each see exactly their own connection's stream,
/// and hosting a node again replaces its handler, not its sibling's.
#[test]
fn two_nodes_of_one_reactor_each_host_a_handler() {
    let reactor = Reactor::spawn(quick_cfg()).unwrap();
    let nodes = [srv(0), srv(1)].map(|id| Arc::new(reactor.listen(id, "127.0.0.1:0").unwrap()));
    let events = nodes.each_ref().map(|node| host(node, 0, None));
    for (i, node) in nodes.iter().enumerate() {
        let mut raw = raw_peer(cli(20 + i as u32), node.local_addr().unwrap());
        write_frame(&mut raw, &Bytes::from(vec![i as u8])).unwrap();
    } // each raw peer hangs up here
    for (i, events) in events.iter().enumerate() {
        let peer = cli(20 + i as u32);
        for want in [
            NetEvent::Up(peer),
            frame(peer, &[i as u8]),
            NetEvent::Down(peer),
        ] {
            let (got, on_loop) = events.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(got, want, "node {i}");
            assert!(
                on_loop,
                "node {i}: {want:?} reached its handler off the loop"
            );
        }
        let extra = events.recv_timeout(Duration::from_millis(200));
        assert!(extra.is_err(), "node {i} also saw {extra:?}");
    }

    let replacement = host(&nodes[0], 0, None);
    assert_eq!(
        events[0].recv_timeout(Duration::from_secs(5)),
        Err(mpsc::RecvTimeoutError::Disconnected),
        "the replaced handler is dropped"
    );
    for (node, events) in [(&nodes[0], &replacement), (&nodes[1], &events[1])] {
        node.wake();
        let woken = events.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(woken, (NetEvent::Woken, true));
    }
}

/// The handler's deadline is one more source of the loop's single
/// timeout: it is woken when it falls due, once, and the loop goes
/// back to sleeping indefinitely.
#[test]
fn hosted_deadline_wakes_the_handler_once() {
    let cfg = PollConfig {
        idle_deadline: None,
        ..PollConfig::default()
    };
    let node = Arc::new(listen(srv(0), cfg));
    let server = &*node;
    let due = Instant::now() + Duration::from_millis(200);
    // Idle from the start: the loop asks for the deadline as it hosts.
    let events = host(&node, 0, Some(due));
    assert_eq!(
        events.recv_timeout(Duration::from_secs(5)).unwrap(),
        (NetEvent::Woken, true)
    );
    assert!(Instant::now() >= due, "woken early");
    std::thread::sleep(Duration::from_millis(50));
    let before = server.loop_stats();
    assert!(events.recv_timeout(Duration::from_millis(300)).is_err());
    assert_eq!(server.loop_stats().wakeups, before.wakeups, "no timer left");
}

/// One event answered with four queues' worth of replies: nothing is
/// written until the handler returns, so the queue must be flushed as
/// it fills rather than shed what the eager path would have sent.
#[test]
fn hosted_burst_past_queue_cap_sheds_nothing() {
    let cfg = PollConfig::default();
    let burst = 4 * cfg.queue_cap as u32;
    let node = Arc::new(listen(srv(0), cfg));
    let server = &*node;
    let _events = host(&node, burst, None);
    let mut raw = raw_peer(cli(5), server.local_addr().unwrap());
    write_frame(&mut raw, &Bytes::from_static(b"go")).unwrap();
    for i in 0..burst {
        let got = read_frame(&mut raw).unwrap();
        assert_eq!(&got[..], &i.to_le_bytes(), "reply {i} out of order or lost");
    }
    // The last flush publishes after its write, which the reads race.
    let queue = || server.wire_stats().queue(cli(5));
    assert!(wait_for(|| queue().enqueued == u64::from(burst), 5));
    assert_eq!((queue().dropped_overflow, queue().depth), (0, 0));
}

/// Wire accounting is published per batch, not per frame; the totals
/// must not notice. 10 000 frames out through the command queue, back
/// through a hosted echo: both sides count every frame and byte once.
#[test]
fn wire_totals_match_a_burst_exactly() {
    const FRAMES: u64 = 10_000;
    let cfg = PollConfig {
        queue_cap: FRAMES as usize, // a slow reader must not shed
        ..PollConfig::default()
    };
    struct Echo;
    impl Handler for Echo {
        fn on_event(&mut self, event: NetEvent, out: &mut dyn Outbox) -> bool {
            if let NetEvent::Frame { from, bytes } = event {
                out.send(from, bytes).unwrap();
            }
            true
        }
    }
    let node = Arc::new(listen(srv(0), cfg.clone()));
    let server = &*node;
    Arc::clone(&node).host(Box::new(Echo));
    let client = dial(cli(1), server.local_addr().unwrap(), cfg);

    let mut bytes = 0;
    for i in 0..FRAMES {
        let body = vec![(i % 7) as u8 + 1; 1 + (i % 50) as usize];
        bytes += body.len() as u64;
        client.send(srv(0), Bytes::from(body)).unwrap();
    }
    for i in 0..FRAMES {
        let (_, echoed) = client.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(echoed.len(), 1 + (i % 50) as usize, "echo {i}");
    }
    for (side, peer) in [(server, cli(1)), (&client, srv(0))] {
        let wire = side.wire_stats();
        assert_eq!((wire.total_frames(), wire.total_bytes()), (FRAMES, bytes));
        // Queue counters are published after the flush's write, loop
        // counters as the iteration ends: both may trail the last read.
        let queue = || side.wire_stats().queue(peer);
        assert!(wait_for(|| queue().enqueued == FRAMES, 5), "{:?}", queue());
        let q = side.wire_stats().queue_totals();
        assert_eq!((q.enqueued, q.dropped_overflow, q.depth), (FRAMES, 0, 0));
        let frames = || (side.loop_stats().frames_in, side.loop_stats().frames_out);
        assert!(
            wait_for(|| frames() == (FRAMES, FRAMES), 5),
            "{:?}",
            frames()
        );
    }
}

/// A hosted handler on the borrowed path: answers each frame it is
/// handed in place with `reply` bytes led by the frame's first four
/// (its number) through [`Outbox::send_with`], pauses `pause` first,
/// reports what it saw, and ends the hosting after `frames_left` frames.
struct Echo {
    seen: mpsc::Sender<NetEvent>,
    reply: usize,
    pause: Duration,
    frames_left: usize,
}

impl Handler for Echo {
    fn on_event(&mut self, event: NetEvent, out: &mut dyn Outbox) -> bool {
        match event {
            NetEvent::Frame { from, bytes } => self.on_frame(from, &bytes, out),
            other => self.seen.send(other).is_ok(),
        }
    }

    fn on_frame(&mut self, from: NodeId, bytes: &[u8], out: &mut dyn Outbox) -> bool {
        std::thread::sleep(self.pause);
        let reply = self.reply.max(bytes.len());
        out.send_with(from, &mut |buf| {
            let start = buf.len();
            buf.extend_from_slice(bytes);
            buf.resize(start + reply, 0xEC);
        })
        .unwrap();
        let _ = self.seen.send(frame(from, bytes));
        self.frames_left -= 1;
        self.frames_left > 0
    }
}

fn echo(
    reply: usize,
    pause: Duration,
    frames_left: usize,
) -> (Box<Echo>, mpsc::Receiver<NetEvent>) {
    let (seen, events) = mpsc::channel();
    let echo = Echo {
        seen,
        reply,
        pause,
        frames_left,
    };
    (Box::new(echo), events)
}

/// `count` numbered frames of `len` bytes, as one buffer to write.
fn numbered(count: u32, len: usize) -> Vec<u8> {
    let mut wire = Vec::new();
    for i in 0..count {
        let mut body = i.to_le_bytes().to_vec();
        body.resize(len.max(4), 0xAB);
        write_frame(&mut wire, &Bytes::from(body)).unwrap();
    }
    wire
}

/// Reads frames until the peer has been quiet for `quiet`; returns the
/// number each one leads with.
fn read_numbers(raw: &mut TcpStream, quiet: Duration) -> Vec<u32> {
    raw.set_read_timeout(Some(quiet)).unwrap();
    let mut got = Vec::new();
    while let Ok(frame) = read_frame(raw) {
        if !frame.is_empty() {
            got.push(u32::from_le_bytes(frame[..4].try_into().unwrap()));
        } // else a keepalive
    }
    got
}

/// (a) Replies built in the connection's write buffer and replies that
/// fell back to the peer's queue are one byte stream in send order, and
/// the queue's accounting covers both: a peer that stops reading fills
/// the kernel's buffers, then the write buffer, then the bounded queue,
/// which sheds its oldest.
#[test]
fn staged_and_queued_replies_are_one_ordered_stream() {
    const FRAMES: u32 = 4096;
    const LEN: usize = 4096; // 16 MiB of echo: past any loopback buffering
    let cfg = PollConfig {
        queue_cap: 64,
        idle_deadline: None,
        ..PollConfig::default()
    };
    let node = Arc::new(listen(srv(0), cfg));
    let server = &*node;
    let (handler, _events) = echo(0, Duration::ZERO, usize::MAX);
    Arc::clone(&node).host(handler);
    let mut raw = raw_peer(cli(4), server.local_addr().unwrap());
    let queue = || server.wire_stats().queue(cli(4));

    // A peer that reads is answered without the queue ever holding a frame.
    for i in 0..100u32 {
        raw.write_all(&numbered(1, 8)).unwrap();
        assert_eq!(read_frame(&mut raw).unwrap().len(), 8, "echo {i}");
    }
    assert!(wait_for(|| queue().enqueued == 100, 5), "{:?}", queue());
    assert_eq!((queue().peak_depth, queue().backpressure), (0, 0));

    // One that does not is answered into the kernel until it blocks...
    raw.write_all(&numbered(FRAMES, LEN)).unwrap();
    let all_in = || server.loop_stats().frames_in == 100 + u64::from(FRAMES);
    assert!(wait_for(all_in, 20), "{:?}", server.loop_stats());
    // ...and reads what survived as one stream: ascending, from the first.
    let got = read_numbers(&mut raw, Duration::from_secs(1));
    assert_eq!(got[0], 0);
    assert!(got.windows(2).all(|w| w[0] < w[1]), "out of order: {got:?}");
    let q = queue();
    assert_eq!(
        q.enqueued,
        100 + u64::from(FRAMES),
        "every reply counted once"
    );
    assert!(q.backpressure > 0 && q.dropped_overflow > 0, "{q:?}");
    assert_eq!(got.len() as u64, u64::from(FRAMES) - q.dropped_overflow);
    assert!(q.peak_depth <= 64 && q.depth == 0, "{q:?}");
    assert_eq!(
        server.loop_stats().frames_out,
        q.enqueued - q.dropped_overflow
    );
}

/// (b) A handler that ends its hosting on the k-th frame of one read
/// has seen k frames; the rest of that read, and everything after,
/// reaches the inbox in order.
#[test]
fn frames_behind_a_departing_handler_reach_the_inbox_in_order() {
    let node = Arc::new(listen(srv(0), quick_cfg()));
    let server = &*node;
    let (handler, events) = echo(0, Duration::ZERO, 4);
    Arc::clone(&node).host(handler);
    let mut raw = raw_peer(cli(6), server.local_addr().unwrap());
    raw.write_all(&numbered(10, 4)).unwrap(); // one segment, one read

    let mut want = vec![NetEvent::Up(cli(6))];
    want.extend((0..4u32).map(|i| frame(cli(6), &i.to_le_bytes())));
    for want in want {
        assert_eq!(events.recv_timeout(Duration::from_secs(5)).unwrap(), want);
    }
    assert!(
        events.recv_timeout(Duration::from_secs(5)).is_err(),
        "dropped"
    );
    let rest: Vec<NetEvent> = (4..10u32)
        .map(|i| frame(cli(6), &i.to_le_bytes()))
        .collect();
    assert_eq!(collect(server, 5, |seen| seen.len() == rest.len()), rest);
    assert_eq!(
        read_numbers(&mut raw, Duration::from_millis(200)),
        [0, 1, 2, 3]
    );
}

/// (c) A reply's flush that finds the connection dead tears it down
/// under the batch being read: the handler still gets every frame of
/// the batch, then one `Down`; replies from then on wait in the peer's
/// queue; and the slot's next connection starts with a clean decoder.
#[test]
fn connection_dying_under_its_batch_yields_one_down_after_its_frames() {
    const REPLY: usize = 16 * 1024; // two fill the write buffer: a flush every other frame
    let cfg = PollConfig {
        idle_deadline: None,
        ..PollConfig::default()
    };
    let node = Arc::new(listen(srv(0), cfg));
    let server = &*node;
    // The pause lets the peer's reset come back between flushes.
    let (handler, events) = echo(REPLY, Duration::from_millis(5), usize::MAX);
    Arc::clone(&node).host(handler);
    let mut raw = raw_peer(cli(9), server.local_addr().unwrap());
    // Twelve frames and the first half of a thirteenth, then gone.
    let mut wire = numbered(12, 4);
    wire.extend_from_slice(&[8, 0, 0, 0, 0xDE, 0xAD]);
    raw.write_all(&wire).unwrap();
    drop(raw);

    let mut want = vec![NetEvent::Up(cli(9))];
    want.extend((0..12u32).map(|i| frame(cli(9), &i.to_le_bytes())));
    want.push(NetEvent::Down(cli(9)));
    for want in want {
        assert_eq!(events.recv_timeout(Duration::from_secs(5)).unwrap(), want);
    }
    assert!(
        events.recv_timeout(Duration::from_millis(200)).is_err(),
        "one Down"
    );
    let stranded = server.wire_stats().queue(cli(9)).depth;
    assert!(
        stranded > 0,
        "the connection outlived its batch: nothing was tested"
    );

    // The freed slot is the next connection's.
    let mut next = raw_peer(cli(10), server.local_addr().unwrap());
    next.write_all(&numbered(1, 4)).unwrap();
    assert_eq!(read_frame(&mut next).unwrap().len(), REPLY);
    assert_eq!(
        events.recv_timeout(Duration::from_secs(5)).unwrap(),
        NetEvent::Up(cli(10))
    );
    let first = events.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(first, frame(cli(10), &0u32.to_le_bytes()));
}

/// (d) Two reactors, one handler on shard 0: a frame shard 0 read
/// itself is answered in its connection's buffer, one forwarded from
/// shard 1 through shard 1's queue — both by the same `send_with`.
#[test]
fn sharded_replies_take_the_fast_path_only_on_the_reading_shard() {
    let cfg = PollConfig {
        idle_deadline: None,
        ..PollConfig::default()
    };
    let node = Arc::new(ShardedNode::listen(srv(0), "127.0.0.1:0", 2, cfg).unwrap());
    let server = &*node;
    let (handler, _events) = echo(0, Duration::ZERO, usize::MAX);
    Arc::clone(&node).host(handler);
    // The kernel places connections by 4-tuple: dial until both shards
    // hold one.
    let mut peers: [Option<(NodeId, TcpStream)>; 2] = [None, None];
    for i in 0..64 {
        let raw = raw_peer(cli(i), server.local_addr());
        assert!(wait_for(|| server.shard_of(cli(i)).is_some(), 5));
        let shard = server.shard_of(cli(i)).unwrap();
        peers[shard].get_or_insert((cli(i), raw));
        if peers.iter().all(Option::is_some) {
            break;
        }
    }
    for (shard, peer) in peers.iter_mut().enumerate() {
        let (id, raw) = peer.as_mut().expect("64 dials reach both shards");
        raw.write_all(&numbered(1, 32)).unwrap();
        let reply = read_frame(raw).unwrap();
        assert_eq!(
            (reply.len(), &reply[..4]),
            (32, &[0u8; 4][..]),
            "shard {shard}"
        );
        let queue = || server.shard_stats()[shard].wire.queue(*id);
        assert!(
            wait_for(|| queue().enqueued == 1, 5),
            "shard {shard}: {:?}",
            queue()
        );
        // Only a frame that went through the queue ever gave it depth.
        assert_eq!(queue().peak_depth, shard as u64, "shard {shard}");
    }
}
