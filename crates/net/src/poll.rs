//! The readiness core: one epoll event loop from socket to channel.
//!
//! A [`Reactor`] owns a single loop thread that
//! multiplexes *everything* through one `epoll_wait` call — accept
//! readiness on listeners, read/write readiness on every peer
//! connection, an eventfd waker for commands injected by application
//! threads, and a computed timeout that stands in for every timer the
//! old design polled for (keepalives, idle reaping, mid-frame stalls,
//! hello deadlines, re-dial backoff). An idle reactor makes **zero**
//! wakeups per second beyond its keepalive sweep; with keepalives
//! disabled it blocks indefinitely (`tests/poll_core.rs` holds that as
//! a regression test).
//!
//! # Structure
//!
//! * [`Reactor`] — cloneable handle to one loop thread. Multiple
//!   nodes can share a reactor (the 10k-client benchmark runs
//!   thousands of [`PollNode`]s over a handful of loops).
//! * [`PollNode`] — one node's attachment: implements [`Channel`]
//!   with connection supervision (identity hello, bounded per-peer
//!   send queues that drain in order on reconnect, automatic re-dial
//!   on the [`RetryPolicy`] schedule, connect/disconnect events
//!   reported once, in stream order with the frames).
//! * The loop drives [`crate::wire::FrameDecoder`] for incremental
//!   decode and publishes per-peer [`crate::wire::QueueStats`]
//!   through each node's [`WireStats`].
//!
//! Blocking work is kept off the loop: initial dials run on the
//! caller's thread, re-dials on one dedicated dialer thread per
//! reactor (connect + hello are blocking calls with timeouts), and
//! completed sockets are adopted into the loop via command.
//!
//! # Lock discipline
//!
//! The loop thread owns all connection state outright — sockets,
//! decoders, write buffers, timers — and never blocks on a lock held
//! across I/O. Frames and link-state changes leave the loop on one
//! queue per node ([`NetEvent`]), in the order the loop saw them. The
//! only shared state is the known-peers view (so [`Channel::send`] can
//! reject unknown destinations synchronously) and the [`WireStats`]
//! snapshot, each behind a short-critical-section mutex.

use crate::retry::RetryPolicy;
use crate::tcp::{read_frame, write_frame};
use crate::wire::{FrameDecoder, QueueStats, WireStats};
use crate::{recv_from, Channel, NetError, NetEvent, NodeId};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::Mutex;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};
use vl_epoll::{Interest, PollEvent, Poller, Waker};
use vl_types::{ClientId, ServerId};

/// Encodes the 5-byte identity hello every connection opens with:
/// a kind byte (0 = client, 1 = server) and the raw id, little-endian.
pub fn encode_hello(id: NodeId) -> Bytes {
    let (kind, raw) = match id {
        NodeId::Client(c) => (0u8, c.raw()),
        NodeId::Server(s) => (1u8, s.raw()),
    };
    let mut v = Vec::with_capacity(5);
    v.push(kind);
    v.extend_from_slice(&raw.to_le_bytes());
    Bytes::from(v)
}

/// Decodes an identity hello frame.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on wrong length or unknown kind.
pub fn decode_hello(bytes: &Bytes) -> io::Result<NodeId> {
    if bytes.len() != 5 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "hello frame must be 5 bytes",
        ));
    }
    let raw = u32::from_le_bytes(bytes[1..5].try_into().expect("len checked"));
    match bytes[0] {
        0 => Ok(NodeId::Client(ClientId(raw))),
        1 => Ok(NodeId::Server(ServerId(raw))),
        k => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown node kind {k}"),
        )),
    }
}

/// Synchronous connect + hello exchange; returns the peer's identity
/// and the connected (still blocking-mode) stream.
///
/// # Errors
///
/// Propagates connect and handshake failures.
pub(crate) fn dial_sync(
    my_id: NodeId,
    addr: SocketAddr,
    dial_timeout: StdDuration,
    hello_timeout: StdDuration,
) -> io::Result<(NodeId, TcpStream)> {
    let mut stream = TcpStream::connect_timeout(&addr, dial_timeout)?;
    stream.set_read_timeout(Some(hello_timeout))?;
    stream.set_write_timeout(Some(hello_timeout))?;
    write_frame(&mut stream, &encode_hello(my_id))?;
    let peer_id = decode_hello(&read_frame(&mut stream)?)?;
    Ok((peer_id, stream))
}

/// Tuning for a [`Reactor`] and every node attached to it.
#[derive(Clone, Debug)]
pub struct PollConfig {
    /// A peer silent (no frames, not even keepalives) for this long is
    /// declared dead; keepalives go out every third of it. `None`
    /// disables keepalives, idle reaping, *and* mid-frame stall
    /// enforcement — the loop then sleeps indefinitely when idle.
    pub idle_deadline: Option<StdDuration>,
    /// A frame whose first byte arrived must complete within this, or
    /// the peer is declared dead (guards against mid-frame stalls).
    /// Enforced at keepalive-sweep granularity.
    pub frame_deadline: StdDuration,
    /// Backoff schedule for re-dialing a dropped peer. Exhaustion does
    /// not give up: further attempts repeat at the schedule's cap.
    pub redial: RetryPolicy,
    /// Per-peer send-queue bound; the oldest frame is dropped on
    /// overflow (loss, as on any network).
    pub queue_cap: usize,
    /// TCP connect timeout for (re-)dials.
    pub dial_timeout: StdDuration,
    /// Deadline for the identity-hello exchange on a new connection.
    pub hello_timeout: StdDuration,
    /// Accept backlog re-applied to listeners (std hardcodes 128,
    /// which a connect storm overflows). Clamped by `somaxconn`.
    pub accept_backlog: i32,
}

impl Default for PollConfig {
    fn default() -> PollConfig {
        PollConfig {
            idle_deadline: Some(StdDuration::from_secs(10)),
            frame_deadline: StdDuration::from_secs(5),
            redial: RetryPolicy::default(),
            queue_cap: 1024,
            dial_timeout: StdDuration::from_secs(1),
            hello_timeout: StdDuration::from_secs(2),
            accept_backlog: 4096,
        }
    }
}

/// Loop-level counters, for the idle-wakeup regression test and the
/// live benchmark. Monotonic since reactor start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoopStats {
    /// Times `epoll_wait` returned.
    pub wakeups: u64,
    /// Wakeups that delivered no I/O events (timer or waker only).
    pub timer_wakeups: u64,
    /// Readiness events dispatched.
    pub io_events: u64,
    /// Commands drained from application threads.
    pub commands: u64,
    /// Inbound connections accepted.
    pub accepts: u64,
    /// Application frames delivered to node inboxes.
    pub frames_in: u64,
    /// Application frames handed to the kernel (excludes keepalives).
    pub frames_out: u64,
}

#[derive(Debug, Default)]
struct LoopCounters {
    wakeups: AtomicU64,
    timer_wakeups: AtomicU64,
    io_events: AtomicU64,
    commands: AtomicU64,
    accepts: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
}

impl LoopCounters {
    fn snapshot(&self) -> LoopStats {
        LoopStats {
            wakeups: self.wakeups.load(Ordering::Relaxed),
            timer_wakeups: self.timer_wakeups.load(Ordering::Relaxed),
            io_events: self.io_events.load(Ordering::Relaxed),
            commands: self.commands.load(Ordering::Relaxed),
            accepts: self.accepts.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
        }
    }
}

/// App-visible side of one attached node.
#[derive(Debug)]
struct NodeShared {
    /// Known peers and their link state. Grows monotonically: once a
    /// peer is known (dialed, configured, or heard from), sends to it
    /// queue instead of error.
    peers: Mutex<HashMap<NodeId, bool>>,
    wire: Mutex<WireStats>,
}

impl NodeShared {
    fn new() -> NodeShared {
        NodeShared {
            peers: Mutex::new(HashMap::new()),
            wire: Mutex::new(WireStats::new()),
        }
    }
}

/// Commands injected into the loop by application threads (paired
/// with an eventfd wake so a sleeping loop notices immediately).
enum Cmd {
    Register {
        key: u64,
        id: NodeId,
        shared: Arc<NodeShared>,
        inbox_tx: Sender<NetEvent>,
        listener: Option<TcpListener>,
    },
    Send {
        key: u64,
        to: NodeId,
        frame: Bytes,
    },
    /// A completed outbound connection (hello already exchanged),
    /// from the caller's initial dial or the dialer thread.
    Adopt {
        key: u64,
        peer: NodeId,
        stream: TcpStream,
        addr: SocketAddr,
        done: Option<Sender<()>>,
    },
    DialFailed {
        key: u64,
        peer: NodeId,
        attempt: u32,
    },
    SetPeerAddr {
        key: u64,
        peer: NodeId,
        addr: SocketAddr,
    },
    RemoveNode {
        key: u64,
    },
    Shutdown,
}

struct DialReq {
    key: u64,
    my_id: NodeId,
    peer: NodeId,
    addr: SocketAddr,
    attempt: u32,
}

struct ReactorShared {
    tx: Sender<Cmd>,
    waker: Arc<Waker>,
    counters: Arc<LoopCounters>,
    cfg: PollConfig,
    next_key: AtomicU64,
    join: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Drop for ReactorShared {
    fn drop(&mut self) {
        let _ = self.tx.send(Cmd::Shutdown);
        let _ = self.waker.wake();
        if let Some(h) = self.join.lock().take() {
            let _ = h.join();
        }
    }
}

/// Cloneable handle to one readiness loop. Dropping the last handle
/// (including every [`PollNode`]'s internal clone) shuts the loop
/// down and closes its sockets.
#[derive(Clone)]
pub struct Reactor {
    shared: Arc<ReactorShared>,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("stats", &self.shared.counters.snapshot())
            .finish()
    }
}

impl Reactor {
    /// Starts a loop thread (plus its dialer sidekick).
    ///
    /// # Errors
    ///
    /// Propagates epoll/eventfd setup failures.
    pub fn spawn(cfg: PollConfig) -> io::Result<Reactor> {
        let poller = Poller::new()?;
        let waker = Arc::new(Waker::new(&poller, WAKER_TOKEN)?);
        let (tx, rx) = unbounded();
        let (dial_tx, dial_rx) = unbounded::<DialReq>();
        let counters = Arc::new(LoopCounters::default());

        // Dialer: blocking connect + hello, off the loop thread.
        {
            let cmd_tx = tx.clone();
            let waker = Arc::clone(&waker);
            let cfg = cfg.clone();
            std::thread::Builder::new()
                .name("vl-poll-dial".into())
                .spawn(move || {
                    while let Ok(req) = dial_rx.recv() {
                        let cmd = match dial_sync(
                            req.my_id,
                            req.addr,
                            cfg.dial_timeout,
                            cfg.hello_timeout,
                        ) {
                            Ok((_, stream)) => Cmd::Adopt {
                                key: req.key,
                                peer: req.peer,
                                stream,
                                addr: req.addr,
                                done: None,
                            },
                            Err(_) => Cmd::DialFailed {
                                key: req.key,
                                peer: req.peer,
                                attempt: req.attempt,
                            },
                        };
                        if cmd_tx.send(cmd).is_err() {
                            return;
                        }
                        let _ = waker.wake();
                    }
                })
                .expect("spawn dialer thread");
        }

        let join = {
            let waker = Arc::clone(&waker);
            let counters = Arc::clone(&counters);
            let cfg = cfg.clone();
            std::thread::Builder::new()
                .name("vl-poll-loop".into())
                .spawn(move || {
                    EventLoop::new(poller, waker, rx, dial_tx, cfg, counters).run();
                })
                .expect("spawn loop thread")
        };

        Ok(Reactor {
            shared: Arc::new(ReactorShared {
                tx,
                waker,
                counters,
                cfg,
                next_key: AtomicU64::new(0),
                join: Mutex::new(Some(join)),
            }),
        })
    }

    /// Attaches a dial-only node (no listener).
    pub fn node(&self, id: NodeId) -> PollNode {
        self.attach(id, None, None)
    }

    /// Binds `addr`, deepens its backlog, and attaches a listening
    /// node. Accepted peers complete the identity hello inside the
    /// loop (nonblocking) before they surface as connected.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn listen(&self, id: NodeId, addr: &str) -> io::Result<PollNode> {
        let listener = TcpListener::bind(addr)?;
        let _ = vl_epoll::relisten(&listener, self.shared.cfg.accept_backlog);
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        Ok(self.attach(id, Some(listener), Some(local)))
    }

    fn attach(
        &self,
        id: NodeId,
        listener: Option<TcpListener>,
        local_addr: Option<SocketAddr>,
    ) -> PollNode {
        let (inbox_tx, inbox) = unbounded();
        self.attach_external(id, listener, local_addr, inbox_tx, inbox)
    }

    /// Attaches a node whose inbox endpoints are supplied by the
    /// caller. This is the hook the sharded transport
    /// ([`crate::shard::ShardedNode`]) builds on: N reactors each get a
    /// `PollNode` registered with a *clone* of one shared inbox sender,
    /// so frames from every shard funnel into a single receiver while
    /// each reactor still owns its fd set end-to-end.
    pub(crate) fn attach_external(
        &self,
        id: NodeId,
        listener: Option<TcpListener>,
        local_addr: Option<SocketAddr>,
        inbox_tx: Sender<NetEvent>,
        inbox: Receiver<NetEvent>,
    ) -> PollNode {
        let key = self.shared.next_key.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::new(NodeShared::new());
        let _ = self.shared.tx.send(Cmd::Register {
            key,
            id,
            shared: Arc::clone(&shared),
            inbox_tx: inbox_tx.clone(),
            listener,
        });
        let _ = self.shared.waker.wake();
        PollNode {
            id,
            key,
            local_addr,
            shared,
            reactor: Arc::clone(&self.shared),
            inbox,
            wake_tx: inbox_tx,
        }
    }

    /// Attaches a listening node around a pre-built listener (already
    /// bound and `listen(2)`ed — e.g. one member of an `SO_REUSEPORT`
    /// group from [`vl_epoll::bind_reuseport`]). The listener is
    /// switched to nonblocking here; the backlog is whatever the
    /// caller established.
    pub(crate) fn listen_on(
        &self,
        id: NodeId,
        listener: TcpListener,
        inbox_tx: Sender<NetEvent>,
        inbox: Receiver<NetEvent>,
    ) -> io::Result<PollNode> {
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        Ok(self.attach_external(id, Some(listener), Some(local), inbox_tx, inbox))
    }

    /// Snapshot of the loop's wakeup/event/frame counters.
    pub fn loop_stats(&self) -> LoopStats {
        self.shared.counters.snapshot()
    }
}

/// One node's attachment to a [`Reactor`]: a [`Channel`] with
/// connection supervision — identity hello, bounded send queues
/// draining in order on reconnect, automatic re-dial, and
/// [`NetEvent::Up`]/[`NetEvent::Down`] in stream order with the
/// frames. A node keeps its reactor alive, so
/// `Reactor::spawn(cfg)?.listen(id, addr)` is a complete endpoint.
pub struct PollNode {
    id: NodeId,
    key: u64,
    local_addr: Option<SocketAddr>,
    shared: Arc<NodeShared>,
    reactor: Arc<ReactorShared>,
    inbox: Receiver<NetEvent>,
    /// For [`Channel::wake`]: straight into the inbox, not through
    /// the loop, so a control handle costs its driver one hop.
    wake_tx: Sender<NetEvent>,
}

impl std::fmt::Debug for PollNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PollNode")
            .field("id", &self.id)
            .field("addr", &self.local_addr)
            .field("peers", &self.shared.peers.lock().len())
            .finish()
    }
}

impl PollNode {
    /// Connects to a listening node and blocks through the hello
    /// exchange *and* loop adoption: on return the peer is connected,
    /// the connect event is queued, and sends flow. The address is
    /// remembered for automatic re-dial.
    ///
    /// # Errors
    ///
    /// Propagates connect/handshake failures on this initial dial
    /// (re-dials after a later drop retry forever instead).
    pub fn dial(&self, addr: SocketAddr) -> io::Result<NodeId> {
        let (peer, stream) = dial_sync(
            self.id,
            addr,
            self.reactor.cfg.dial_timeout,
            self.reactor.cfg.hello_timeout,
        )?;
        let (done_tx, done_rx) = unbounded();
        self.reactor
            .tx
            .send(Cmd::Adopt {
                key: self.key,
                peer,
                stream,
                addr,
                done: Some(done_tx),
            })
            .map_err(|_| io::Error::new(io::ErrorKind::NotConnected, "reactor gone"))?;
        let _ = self.reactor.waker.wake();
        done_rx
            .recv()
            .map_err(|_| io::Error::new(io::ErrorKind::NotConnected, "reactor gone"))?;
        Ok(peer)
    }

    /// The bound address, when listening.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// Points supervision for `peer` at `addr`: the loop dials it as
    /// soon as the peer has no live connection. This is the
    /// service-discovery hook — a restarted server that comes back on
    /// a new address is reached by updating the mapping here; queued
    /// sends drain once the new connection is up.
    pub fn set_peer_addr(&self, peer: NodeId, addr: SocketAddr) {
        self.shared.peers.lock().entry(peer).or_insert(false);
        let _ = self.reactor.tx.send(Cmd::SetPeerAddr {
            key: self.key,
            peer,
            addr,
        });
        let _ = self.reactor.waker.wake();
    }

    /// Whether `peer` currently has a live connection.
    pub fn is_connected(&self, peer: NodeId) -> bool {
        self.shared
            .peers
            .lock()
            .get(&peer)
            .copied()
            .unwrap_or(false)
    }

    /// Link state of `peer`: `Some(true)` live, `Some(false)` known but
    /// down (sends queue), `None` unknown (sends error). The sharded
    /// transport routes sends by probing this per shard.
    pub(crate) fn peer_state(&self, peer: NodeId) -> Option<bool> {
        self.shared.peers.lock().get(&peer).copied()
    }

    /// Peers with a live connection on this node, unordered.
    pub fn connected_peers(&self) -> Vec<NodeId> {
        self.shared
            .peers
            .lock()
            .iter()
            .filter_map(|(&p, &up)| up.then_some(p))
            .collect()
    }

    /// Snapshot of this node's wire accounting: per-tag delivery
    /// counts plus per-peer send-queue depth/drop/backpressure
    /// counters maintained by the loop.
    pub fn wire_stats(&self) -> WireStats {
        self.shared.wire.lock().clone()
    }

    /// Snapshot of the owning reactor's loop counters.
    pub fn loop_stats(&self) -> LoopStats {
        self.reactor.counters.snapshot()
    }
}

impl Channel for PollNode {
    fn id(&self) -> NodeId {
        self.id
    }

    fn send(&self, to: NodeId, bytes: Bytes) -> Result<(), NetError> {
        if !self.shared.peers.lock().contains_key(&to) {
            return Err(NetError::UnknownNode(to));
        }
        self.reactor
            .tx
            .send(Cmd::Send {
                key: self.key,
                to,
                frame: bytes,
            })
            .map_err(|_| NetError::Disconnected)?;
        let _ = self.reactor.waker.wake();
        Ok(())
    }

    fn recv_event(&self, timeout: Option<StdDuration>) -> Result<NetEvent, NetError> {
        recv_from(&self.inbox, timeout)
    }

    fn wake(&self) {
        let _ = self.wake_tx.send(NetEvent::Woken);
    }

    fn wire_stats(&self) -> Option<WireStats> {
        Some(PollNode::wire_stats(self))
    }
}

impl Drop for PollNode {
    fn drop(&mut self) {
        let _ = self.reactor.tx.send(Cmd::RemoveNode { key: self.key });
        let _ = self.reactor.waker.wake();
    }
}

// ---------------------------------------------------------------------
// Loop internals (owned exclusively by the loop thread).
// ---------------------------------------------------------------------

const WAKER_TOKEN: u64 = u64::MAX;
const LISTENER_BIT: u64 = 1 << 63;
/// Stop topping the per-connection write buffer up past this.
const WBUF_TARGET: usize = 32 * 1024;
/// Reclaim the consumed write-buffer prefix past this.
const WBUF_COMPACT: usize = 64 * 1024;

/// Per-peer supervision state (loop-owned).
struct RPeer {
    /// Live connection token, if any.
    conn: Option<usize>,
    /// Frames awaiting a connection or buffer space, oldest first.
    queue: VecDeque<Bytes>,
    /// Re-dial target; `None` for inbound-only peers.
    addr: Option<SocketAddr>,
    /// Consecutive failed dial attempts since the last success.
    attempt: u32,
    /// A dial for this peer is in flight on the dialer thread.
    dialing: bool,
    /// Queue accounting published through [`WireStats`].
    q: QueueStats,
}

impl RPeer {
    fn new() -> RPeer {
        RPeer {
            conn: None,
            queue: VecDeque::new(),
            addr: None,
            attempt: 0,
            dialing: false,
            q: QueueStats::default(),
        }
    }
}

/// One attached node (loop-owned).
struct RNode {
    id: NodeId,
    shared: Arc<NodeShared>,
    inbox_tx: Sender<NetEvent>,
    listener: Option<TcpListener>,
    peers: HashMap<NodeId, RPeer>,
}

/// One live connection (loop-owned).
struct RConn {
    stream: TcpStream,
    node: u64,
    /// `None` until the inbound hello identifies the peer.
    peer: Option<NodeId>,
    decoder: FrameDecoder,
    /// Encoded frames staged for the kernel; `wstart` is the
    /// already-written prefix.
    wbuf: Vec<u8>,
    wstart: usize,
    /// Currently registered with writable interest.
    want_write: bool,
    /// Last inbound byte (keepalives count).
    last_activity: Instant,
    /// Last keepalive we sent.
    last_ka: Instant,
    /// First byte of a still-incomplete frame arrived here.
    frame_started: Option<Instant>,
    /// Connection creation, for the hello deadline.
    opened: Instant,
}

impl RConn {
    fn pending(&self) -> usize {
        self.wbuf.len() - self.wstart
    }
}

fn id_seed(id: NodeId) -> u64 {
    match id {
        NodeId::Client(c) => u64::from(c.raw()),
        NodeId::Server(s) => 0x8000_0000_0000_0000 | u64::from(s.raw()),
    }
}

struct EventLoop {
    poller: Poller,
    waker: Arc<Waker>,
    rx: Receiver<Cmd>,
    dial_tx: Sender<DialReq>,
    cfg: PollConfig,
    counters: Arc<LoopCounters>,
    nodes: HashMap<u64, RNode>,
    conns: Vec<Option<RConn>>,
    free: Vec<usize>,
    /// Pending re-dials: earliest first (reversed for the max-heap).
    redials: BinaryHeap<std::cmp::Reverse<(Instant, u64, NodeId)>>,
    /// Coalesced next-maintenance deadline; `None` = sleep forever.
    timer_next: Option<Instant>,
    scratch: Vec<u8>,
    shutdown: bool,
}

impl EventLoop {
    fn new(
        poller: Poller,
        waker: Arc<Waker>,
        rx: Receiver<Cmd>,
        dial_tx: Sender<DialReq>,
        cfg: PollConfig,
        counters: Arc<LoopCounters>,
    ) -> EventLoop {
        EventLoop {
            poller,
            waker,
            rx,
            dial_tx,
            cfg,
            counters,
            nodes: HashMap::new(),
            conns: Vec::new(),
            free: Vec::new(),
            redials: BinaryHeap::new(),
            timer_next: None,
            scratch: vec![0u8; 64 * 1024],
            shutdown: false,
        }
    }

    /// Keepalive cadence: a third of the idle deadline, like the old
    /// supervisor, so two keepalives can be lost before the peer's
    /// deadline trips.
    fn ka_every(&self) -> Option<StdDuration> {
        self.cfg
            .idle_deadline
            .map(|d| (d / 3).max(StdDuration::from_millis(1)))
    }

    fn run(mut self) {
        let mut events: Vec<PollEvent> = Vec::new();
        while !self.shutdown {
            let timeout = self.timer_next.map(|at| {
                let now = Instant::now();
                if at > now {
                    at - now
                } else {
                    StdDuration::ZERO
                }
            });
            let n = match self.poller.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(_) => break, // epoll itself failed: nothing to salvage
            };
            self.counters.wakeups.fetch_add(1, Ordering::Relaxed);
            let mut io_events = 0u64;
            for &ev in events.iter().take(n) {
                if ev.token == WAKER_TOKEN {
                    self.waker.drain();
                } else if ev.token & LISTENER_BIT != 0 {
                    io_events += 1;
                    self.accept_ready(ev.token & !LISTENER_BIT);
                } else {
                    io_events += 1;
                    let token = ev.token as usize;
                    if ev.error {
                        // Collect the error through read(); EOF/err path.
                        self.conn_readable(token);
                    } else {
                        if ev.readable {
                            self.conn_readable(token);
                        }
                        if ev.writable {
                            self.conn_writable(token);
                        }
                    }
                }
            }
            if io_events == 0 {
                self.counters.timer_wakeups.fetch_add(1, Ordering::Relaxed);
            }
            self.counters
                .io_events
                .fetch_add(io_events, Ordering::Relaxed);
            self.drain_cmds();
            // Every timer source arms `timer_next` eagerly at its event
            // site, so maintenance only runs when a deadline is due —
            // never as a per-wakeup sweep over all connections.
            if self.timer_next.is_some_and(|at| at <= Instant::now()) {
                self.maintain();
            }
        }
        // Drop order closes every socket; peers observe EOF.
    }

    /// Lowers `timer_next` to `at` if it is earlier.
    fn arm(&mut self, at: Instant) {
        match self.timer_next {
            Some(t) if t <= at => {}
            _ => self.timer_next = Some(at),
        }
    }

    fn drain_cmds(&mut self) {
        loop {
            match self.rx.try_recv() {
                Ok(cmd) => {
                    self.counters.commands.fetch_add(1, Ordering::Relaxed);
                    self.handle_cmd(cmd);
                    if self.shutdown {
                        return;
                    }
                }
                Err(TryRecvError::Empty) => return,
                Err(TryRecvError::Disconnected) => {
                    self.shutdown = true;
                    return;
                }
            }
        }
    }

    fn handle_cmd(&mut self, cmd: Cmd) {
        match cmd {
            Cmd::Register {
                key,
                id,
                shared,
                inbox_tx,
                listener,
            } => {
                if let Some(l) = &listener {
                    let _ = self
                        .poller
                        .add(l.as_raw_fd(), LISTENER_BIT | key, Interest::READ);
                }
                self.nodes.insert(
                    key,
                    RNode {
                        id,
                        shared,
                        inbox_tx,
                        listener,
                        peers: HashMap::new(),
                    },
                );
            }
            Cmd::Send { key, to, frame } => self.send_frame(key, to, frame),
            Cmd::Adopt {
                key,
                peer,
                stream,
                addr,
                done,
            } => {
                self.adopt(key, peer, stream, Some(addr));
                if let Some(d) = done {
                    let _ = d.send(());
                }
            }
            Cmd::DialFailed { key, peer, attempt } => {
                let Some(node) = self.nodes.get_mut(&key) else {
                    return;
                };
                if let Some(p) = node.peers.get_mut(&peer) {
                    p.dialing = false;
                    p.attempt = attempt.saturating_add(1);
                    let seed = id_seed(node.id) ^ id_seed(peer).rotate_left(17);
                    let delay = self
                        .cfg
                        .redial
                        .delay(attempt, seed)
                        .unwrap_or(self.cfg.redial.max);
                    let at = Instant::now() + delay;
                    self.redials.push(std::cmp::Reverse((at, key, peer)));
                    self.arm(at);
                }
            }
            Cmd::SetPeerAddr { key, peer, addr } => {
                let Some(node) = self.nodes.get_mut(&key) else {
                    return;
                };
                let p = node.peers.entry(peer).or_insert_with(RPeer::new);
                p.addr = Some(addr);
                p.attempt = 0;
                let at = Instant::now();
                self.redials.push(std::cmp::Reverse((at, key, peer)));
                self.arm(at);
            }
            Cmd::RemoveNode { key } => self.remove_node(key),
            Cmd::Shutdown => self.shutdown = true,
        }
    }

    fn remove_node(&mut self, key: u64) {
        let Some(node) = self.nodes.remove(&key) else {
            return;
        };
        if let Some(l) = &node.listener {
            let _ = self.poller.delete(l.as_raw_fd());
        }
        let tokens: Vec<usize> = node.peers.values().filter_map(|p| p.conn).collect();
        for t in tokens {
            self.close_conn(t);
        }
        // Handshaking conns still point at this node; reap them too.
        let orphans: Vec<usize> = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(t, c)| c.as_ref().filter(|c| c.node == key).map(|_| t))
            .collect();
        for t in orphans {
            self.close_conn(t);
        }
    }

    /// Closes the socket and frees the slab slot. No peer bookkeeping.
    fn close_conn(&mut self, token: usize) {
        if let Some(conn) = self.conns[token].take() {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            self.free.push(token);
            // conn.stream drops (and closes) here.
        }
    }

    /// Full teardown of a live or handshaking connection: closes the
    /// socket and, when the peer was established, flips link state,
    /// emits one disconnect event, and schedules the re-dial.
    fn teardown(&mut self, token: usize) {
        let Some(conn) = self.conns[token].as_ref() else {
            return;
        };
        let key = conn.node;
        let peer = conn.peer;
        self.close_conn(token);
        let Some(peer) = peer else {
            return; // hello never completed: nothing was announced
        };
        let Some(node) = self.nodes.get_mut(&key) else {
            return;
        };
        let Some(p) = node.peers.get_mut(&peer) else {
            return;
        };
        if p.conn != Some(token) {
            return; // a newer connection already replaced this one
        }
        p.conn = None;
        p.attempt = 0;
        node.shared.peers.lock().insert(peer, false);
        let _ = node.inbox_tx.send(NetEvent::Down(peer));
        if p.addr.is_some() {
            let at = Instant::now();
            self.redials.push(std::cmp::Reverse((at, key, peer)));
            self.arm(at);
        }
    }

    fn insert_conn(&mut self, conn: RConn) -> usize {
        match self.free.pop() {
            Some(t) => {
                self.conns[t] = Some(conn);
                t
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        }
    }

    fn accept_ready(&mut self, key: u64) {
        loop {
            let Some(node) = self.nodes.get(&key) else {
                return;
            };
            let Some(listener) = &node.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    self.counters.accepts.fetch_add(1, Ordering::Relaxed);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let now = Instant::now();
                    let token = self.insert_conn(RConn {
                        stream,
                        node: key,
                        peer: None,
                        decoder: FrameDecoder::new(),
                        wbuf: Vec::new(),
                        wstart: 0,
                        want_write: false,
                        last_activity: now,
                        last_ka: now,
                        frame_started: None,
                        opened: now,
                    });
                    let conn = self.conns[token].as_ref().expect("just inserted");
                    if self
                        .poller
                        .add(conn.stream.as_raw_fd(), token as u64, Interest::READ)
                        .is_err()
                    {
                        self.close_conn(token);
                        continue;
                    }
                    // The hello must arrive within hello_timeout.
                    self.arm(now + self.cfg.hello_timeout);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return, // transient accept error; stay listening
            }
        }
    }

    /// Installs an already-helloed outbound connection.
    fn adopt(&mut self, key: u64, peer: NodeId, stream: TcpStream, addr: Option<SocketAddr>) {
        if !self.nodes.contains_key(&key) {
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(None);
        let _ = stream.set_write_timeout(None);
        let now = Instant::now();
        let token = self.insert_conn(RConn {
            stream,
            node: key,
            peer: Some(peer),
            decoder: FrameDecoder::new(),
            wbuf: Vec::new(),
            wstart: 0,
            want_write: false,
            last_activity: now,
            last_ka: now,
            frame_started: None,
            opened: now,
        });
        let conn = self.conns[token].as_ref().expect("just inserted");
        if self
            .poller
            .add(conn.stream.as_raw_fd(), token as u64, Interest::READ)
            .is_err()
        {
            self.close_conn(token);
            return;
        }
        self.establish(token, key, peer, addr);
    }

    /// Binds `token` to `peer` on node `key`: replaces any older
    /// connection (silently — the link never went down from the
    /// application's view), drains the send backlog, and emits one
    /// connect event.
    fn establish(&mut self, token: usize, key: u64, peer: NodeId, addr: Option<SocketAddr>) {
        let Some(node) = self.nodes.get_mut(&key) else {
            return;
        };
        let p = node.peers.entry(peer).or_insert_with(RPeer::new);
        let old = p.conn.replace(token);
        if let Some(a) = addr {
            p.addr = Some(a);
        }
        p.attempt = 0;
        p.dialing = false;
        node.shared.peers.lock().insert(peer, true);
        let _ = node.inbox_tx.send(NetEvent::Up(peer));
        if let Some(old) = old {
            if old != token {
                self.close_conn(old);
            }
        }
        if let Some(conn) = self.conns[token].as_mut() {
            conn.peer = Some(peer);
        }
        if let Some(every) = self.ka_every() {
            self.arm(Instant::now() + every);
        }
        self.flush_conn(token);
    }

    fn send_frame(&mut self, key: u64, to: NodeId, frame: Bytes) {
        let Some(node) = self.nodes.get_mut(&key) else {
            return;
        };
        let p = node.peers.entry(to).or_insert_with(RPeer::new);
        if p.queue.len() >= self.cfg.queue_cap {
            p.queue.pop_front(); // bounded: oldest frame is lost
            p.q.dropped_overflow += 1;
        }
        p.queue.push_back(frame);
        p.q.enqueued += 1;
        p.q.depth = p.queue.len() as u64;
        p.q.peak_depth = p.q.peak_depth.max(p.q.depth);
        let token = p.conn;
        let q = p.q;
        node.shared.wire.lock().record_queue(to, q);
        if let Some(token) = token {
            self.flush_conn(token);
        }
    }

    /// Tops the write buffer up from the peer queue and writes until
    /// the kernel blocks or everything is out. Adjusts writable
    /// interest to match and tears the connection down on write
    /// failure.
    fn flush_conn(&mut self, token: usize) {
        let mut dead = false;
        let mut publish: Option<(u64, NodeId, QueueStats)> = None;
        {
            let Some(conn) = self.conns[token].as_mut() else {
                return;
            };
            let node = self.nodes.get_mut(&conn.node);
            // Top up from the peer queue (frames become length-prefixed
            // bytes; keepalives bypass the queue and land in wbuf
            // directly).
            if let (Some(peer), Some(node)) = (conn.peer, node) {
                if let Some(p) = node.peers.get_mut(&peer) {
                    if p.conn == Some(token) {
                        let mut moved = false;
                        while conn.pending() < WBUF_TARGET {
                            let Some(frame) = p.queue.pop_front() else {
                                break;
                            };
                            conn.wbuf
                                .extend_from_slice(&(frame.len() as u32).to_le_bytes());
                            conn.wbuf.extend_from_slice(&frame);
                            self.counters.frames_out.fetch_add(1, Ordering::Relaxed);
                            moved = true;
                        }
                        if moved {
                            p.q.depth = p.queue.len() as u64;
                            publish = Some((conn.node, peer, p.q));
                        }
                    }
                }
            }
            while conn.pending() > 0 {
                match conn.stream.write(&conn.wbuf[conn.wstart..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.wstart += n;
                        if conn.wstart == conn.wbuf.len() {
                            conn.wbuf.clear();
                            conn.wstart = 0;
                        } else if conn.wstart > WBUF_COMPACT {
                            conn.wbuf.drain(..conn.wstart);
                            conn.wstart = 0;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
        }
        if dead {
            if let Some((key, peer, q)) = publish {
                if let Some(node) = self.nodes.get(&key) {
                    node.shared.wire.lock().record_queue(peer, q);
                }
            }
            self.teardown(token);
            return;
        }
        // Mirror writable interest to buffer state, and count the
        // backpressure transition (blocked with bytes still pending).
        let (want, node_key, peer) = {
            let conn = self.conns[token].as_ref().expect("alive: not dead");
            (conn.pending() > 0, conn.node, conn.peer)
        };
        let conn = self.conns[token].as_mut().expect("alive");
        if want != conn.want_write {
            let interest = if want {
                Interest::READ_WRITE
            } else {
                Interest::READ
            };
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), token as u64, interest)
                .is_ok()
            {
                conn.want_write = want;
            }
            if want {
                if let (Some(peer), Some(node)) = (peer, self.nodes.get_mut(&node_key)) {
                    if let Some(p) = node.peers.get_mut(&peer) {
                        p.q.backpressure += 1;
                        publish = Some((node_key, peer, p.q));
                    }
                }
            }
        }
        if let Some((key, peer, q)) = publish {
            if let Some(node) = self.nodes.get(&key) {
                node.shared.wire.lock().record_queue(peer, q);
            }
        }
    }

    fn conn_readable(&mut self, token: usize) {
        let mut dead = false;
        let mut arm_at: Option<Instant> = None;
        let mut frames: Vec<Bytes> = Vec::new();
        {
            let Some(conn) = self.conns[token].as_mut() else {
                return;
            };
            let mut got_bytes = false;
            loop {
                match conn.stream.read(&mut self.scratch) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        got_bytes = true;
                        conn.decoder.feed(&self.scratch[..n]);
                        // Drain now so the buffer stays small even on
                        // a long read burst.
                        loop {
                            match conn.decoder.next_frame() {
                                Ok(Some(f)) => frames.push(f),
                                Ok(None) => break,
                                Err(_) => {
                                    dead = true;
                                    break;
                                }
                            }
                        }
                        if dead {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if got_bytes {
                conn.last_activity = Instant::now();
            }
            if conn.decoder.mid_frame() {
                if conn.frame_started.is_none() {
                    let started = Instant::now();
                    conn.frame_started = Some(started);
                    // Stall enforcement rides the idle machinery; with
                    // idle disabled there is no liveness policing.
                    if self.cfg.idle_deadline.is_some() {
                        arm_at = Some(started + self.cfg.frame_deadline);
                    }
                }
            } else {
                conn.frame_started = None;
            }
        }
        if let Some(at) = arm_at {
            self.arm(at);
        }
        self.deliver(token, frames);
        if dead {
            self.teardown(token);
        }
    }

    /// Routes decoded frames: the first frame on an anonymous inbound
    /// connection must be the hello (answered in kind); empty frames
    /// are keepalives; the rest go to the node's inbox.
    fn deliver(&mut self, token: usize, frames: Vec<Bytes>) {
        for frame in frames {
            let (key, peer) = {
                let Some(conn) = self.conns[token].as_ref() else {
                    return;
                };
                (conn.node, conn.peer)
            };
            match peer {
                None => {
                    let Ok(peer) = decode_hello(&frame) else {
                        self.close_conn(token);
                        return;
                    };
                    // Answer with our identity, then surface the link.
                    let hello = {
                        let Some(node) = self.nodes.get(&key) else {
                            self.close_conn(token);
                            return;
                        };
                        encode_hello(node.id)
                    };
                    if let Some(conn) = self.conns[token].as_mut() {
                        conn.wbuf
                            .extend_from_slice(&(hello.len() as u32).to_le_bytes());
                        conn.wbuf.extend_from_slice(&hello);
                    }
                    self.establish(token, key, peer, None);
                }
                Some(peer) => {
                    if frame.is_empty() {
                        continue; // keepalive: link-level only
                    }
                    let Some(node) = self.nodes.get(&key) else {
                        return;
                    };
                    self.counters.frames_in.fetch_add(1, Ordering::Relaxed);
                    node.shared.wire.lock().record(&frame);
                    let event = NetEvent::Frame {
                        from: peer,
                        bytes: frame,
                    };
                    if node.inbox_tx.send(event).is_err() {
                        // Node handle gone; RemoveNode will follow.
                        return;
                    }
                }
            }
        }
    }

    fn conn_writable(&mut self, token: usize) {
        self.flush_conn(token);
    }

    /// Runs every due timer — keepalives, idle reaping, mid-frame
    /// stalls, hello deadlines, re-dials — and recomputes the single
    /// coalesced wakeup deadline from live state.
    fn maintain(&mut self) {
        let now = Instant::now();
        let mut next: Option<Instant> = None;
        let bump = |n: &mut Option<Instant>, at: Instant| match n {
            Some(t) if *t <= at => {}
            _ => *n = Some(at),
        };

        // Re-dials first: pop everything due, keep the earliest rest.
        let mut dials: Vec<DialReq> = Vec::new();
        while let Some(&std::cmp::Reverse((at, key, peer))) = self.redials.peek() {
            if at > now {
                bump(&mut next, at);
                break;
            }
            self.redials.pop();
            let Some(node) = self.nodes.get_mut(&key) else {
                continue;
            };
            let my_id = node.id;
            let Some(p) = node.peers.get_mut(&peer) else {
                continue;
            };
            if p.conn.is_some() || p.dialing {
                continue;
            }
            let Some(addr) = p.addr else { continue };
            p.dialing = true;
            dials.push(DialReq {
                key,
                my_id,
                peer,
                addr,
                attempt: p.attempt,
            });
        }
        for req in dials {
            if self.dial_tx.send(req).is_err() {
                break;
            }
        }

        // Connection sweep: keepalives + deadlines.
        let ka_every = self.ka_every();
        let idle = self.cfg.idle_deadline;
        let frame_deadline = self.cfg.frame_deadline;
        let hello_timeout = self.cfg.hello_timeout;
        let mut reap: Vec<usize> = Vec::new();
        let mut reap_silent: Vec<usize> = Vec::new();
        let mut kas: Vec<usize> = Vec::new();
        for (token, slot) in self.conns.iter_mut().enumerate() {
            let Some(conn) = slot else { continue };
            if conn.peer.is_none() {
                // Handshaking: only the hello deadline applies.
                let deadline = conn.opened + hello_timeout;
                if now >= deadline {
                    reap_silent.push(token);
                } else {
                    bump(&mut next, deadline);
                }
                continue;
            }
            if let Some(idle) = idle {
                let deadline = conn.last_activity + idle;
                if now >= deadline {
                    reap.push(token);
                    continue;
                }
                bump(&mut next, deadline);
                if let Some(started) = conn.frame_started {
                    let deadline = started + frame_deadline;
                    if now >= deadline {
                        reap.push(token);
                        continue;
                    }
                    bump(&mut next, deadline);
                }
                let every = ka_every.expect("idle implies ka");
                let due = conn.last_ka + every;
                if now >= due {
                    conn.last_ka = now;
                    kas.push(token);
                    bump(&mut next, now + every);
                } else {
                    bump(&mut next, due);
                }
            }
        }
        for token in reap_silent {
            self.close_conn(token);
        }
        for token in reap {
            self.teardown(token);
        }
        for token in kas {
            if let Some(conn) = self.conns[token].as_mut() {
                conn.wbuf.extend_from_slice(&0u32.to_le_bytes());
            }
            self.flush_conn(token);
        }
        self.timer_next = next;
    }
}
