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
//! A node's stream ([`NetEvent`], in the order the loop saw it) goes
//! to its inbox or, once [`Channel::host`] installed one, to a
//! [`Handler`] the loop calls on the thread that read the frame, with
//! the frame still in the read buffer. Its reply to that peer is built
//! in the connection's write buffer; whatever else it sends lands in a
//! peer's queue without a command or a wake-up. Output is written once
//! per loop iteration, whoever staged it.
//!
//! Blocking work is kept off the loop: initial dials run on the
//! caller's thread, re-dials on one dedicated dialer thread per
//! reactor (connect + hello are blocking calls with timeouts), and
//! completed sockets are adopted into the loop via command.
//!
//! # Lock discipline
//!
//! The loop thread owns all connection state outright — sockets,
//! decoders, write buffers, timers, counters — and never blocks on a
//! lock held across I/O. Other threads reach it through its command
//! queue, writing its eventfd only when no wake-up is already pending.
//! The only shared state is the known-peers view (so [`Channel::send`]
//! can reject unknown destinations synchronously) and the
//! [`WireStats`]/[`LoopStats`] snapshots, each behind a mutex the loop
//! takes once per batch, not per frame.

use crate::retry::RetryPolicy;
use crate::tcp::{read_frame, write_frame};
use crate::wire::{FrameDecoder, QueueStats, WireStats, FRAME_HEADER_LEN};
use crate::{encoded, lock, recv_from, Channel, Handler, NetError, NetEvent, NodeId, Outbox};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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
    let mut hello = [kind; 5];
    hello[1..].copy_from_slice(&raw.to_le_bytes());
    Bytes::copy_from_slice(&hello)
}

/// Decodes an identity hello frame.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on wrong length or unknown kind.
pub fn decode_hello(bytes: &[u8]) -> io::Result<NodeId> {
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
}

/// A frame whose first byte arrived must complete within this, or the
/// peer is declared dead (guards against mid-frame stalls). Enforced at
/// keepalive-sweep granularity.
const FRAME_DEADLINE: StdDuration = StdDuration::from_secs(5);
/// Accept backlog re-applied to listeners (std hardcodes 128, which a
/// connect storm overflows). Clamped by `somaxconn`.
pub(crate) const ACCEPT_BACKLOG: i32 = 4096;

impl Default for PollConfig {
    fn default() -> PollConfig {
        PollConfig {
            idle_deadline: Some(StdDuration::from_secs(10)),
            redial: RetryPolicy::default(),
            queue_cap: 1024,
            dial_timeout: StdDuration::from_secs(1),
            hello_timeout: StdDuration::from_secs(2),
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

/// App-visible side of one attached node.
#[derive(Debug, Default)]
struct NodeShared {
    /// Known peers and their link state. Grows monotonically: once a
    /// peer is known (dialed, configured, or heard from), sends to it
    /// queue instead of error.
    peers: Mutex<HashMap<NodeId, bool>>,
    wire: Mutex<WireStats>,
}

/// The way into a loop from any other thread: its command queue and
/// the eventfd that interrupts its `epoll_wait`. Holding one does not
/// keep the loop alive.
#[derive(Clone)]
struct Mailbox {
    tx: Sender<Cmd>,
    wake: Arc<Wake>,
}

struct Wake {
    waker: Waker,
    /// A wake-up is on its way. Set by the poster that writes the
    /// eventfd, cleared by the loop *before* it drains the queue, so a
    /// command queued while it is set is always seen.
    pending: AtomicBool,
}

impl Mailbox {
    /// Queues `cmd` and makes sure the loop will look; `false` when the
    /// loop is gone.
    fn post(&self, cmd: Cmd) -> bool {
        let sent = self.tx.send(cmd).is_ok();
        // AcqRel pairs with the loop's swap: reading `true` here orders
        // the push above before the clear that precedes the drain.
        if sent && !self.wake.pending.swap(true, Ordering::AcqRel) {
            let _ = self.wake.waker.wake();
        }
        sent
    }
}

/// What any thread needs to address one attached node.
#[derive(Clone)]
pub(crate) struct NodeRef {
    key: u64,
    shared: Arc<NodeShared>,
    mail: Mailbox,
}

impl NodeRef {
    /// Link state of `peer`: `Some(true)` live, `Some(false)` known but
    /// down (sends queue), `None` unknown (sends error).
    pub(crate) fn peer_state(&self, peer: NodeId) -> Option<bool> {
        lock(&self.shared.peers).get(&peer).copied()
    }

    /// Queues `frame` for `to` without asking whether the node knows it
    /// (the caller just did).
    pub(crate) fn post_send(&self, to: NodeId, frame: Bytes) -> Result<(), NetError> {
        let key = self.key;
        let sent = self.mail.post(Cmd::Send { key, to, frame });
        sent.then_some(()).ok_or(NetError::Disconnected)
    }
}

/// Picks a frame's shard from each shard's view of the destination:
/// the one holding its live connection, else the first that knows it
/// at all (the frame queues there until it reconnects — possibly
/// elsewhere, and is then lost like any traffic on a dropped link).
pub(crate) fn route(states: impl Iterator<Item = Option<bool>>) -> Option<usize> {
    let mut known = None;
    for (i, state) in states.enumerate() {
        match state {
            Some(true) => return Some(i),
            Some(false) if known.is_none() => known = Some(i),
            _ => {}
        }
    }
    known
}

/// Commands injected into the loop by application threads (paired
/// with an eventfd wake so a sleeping loop notices immediately).
enum Cmd {
    Register {
        key: u64,
        node: RNode,
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
    /// Install node `key`'s handler, after feeding it what the node's
    /// inbox holds; the sender reports it installed.
    Host(u64, Hosted, Receiver<NetEvent>, Sender<()>),
    /// An event for node `key` produced off this loop: a forwarding
    /// sibling's, or a [`Channel::wake`].
    Event {
        key: u64,
        event: NetEvent,
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
    mail: Mailbox,
    counters: Arc<Mutex<LoopStats>>,
    cfg: PollConfig,
    next_key: AtomicU64,
    join: Option<std::thread::JoinHandle<()>>,
}

impl Drop for ReactorShared {
    fn drop(&mut self) {
        self.mail.post(Cmd::Shutdown);
        // A hosted handler may drop the last handle on the loop thread
        // itself, which cannot join itself; it exits on the command.
        if let Some(h) = self.join.take() {
            if h.thread().id() != std::thread::current().id() {
                let _ = h.join();
            }
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
            .field("stats", &*lock(&self.shared.counters))
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
        let (tx, rx) = unbounded();
        let mail = Mailbox {
            tx,
            wake: Arc::new(Wake {
                waker: Waker::new(&poller, WAKER_TOKEN)?,
                pending: AtomicBool::new(false),
            }),
        };
        let (dial_tx, dial_rx) = unbounded::<DialReq>();
        let counters = Arc::new(Mutex::new(LoopStats::default()));

        // Dialer: blocking connect + hello, off the loop thread.
        {
            let mail = mail.clone();
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
                        if !mail.post(cmd) {
                            return;
                        }
                    }
                })
                .expect("spawn dialer thread");
        }

        let join = {
            let wake = Arc::clone(&mail.wake);
            let counters = Arc::clone(&counters);
            let cfg = cfg.clone();
            std::thread::Builder::new()
                .name("vl-poll-loop".into())
                .spawn(move || {
                    EventLoop::new(poller, wake, rx, dial_tx, cfg, counters).run();
                })
                .expect("spawn loop thread")
        };

        Ok(Reactor {
            shared: Arc::new(ReactorShared {
                mail,
                counters,
                cfg,
                next_key: AtomicU64::new(0),
                join: Some(join),
            }),
        })
    }

    /// Attaches a dial-only node (no listener).
    pub fn node(&self, id: NodeId) -> PollNode {
        self.attach(id, None, None, None)
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
        let _ = vl_epoll::relisten(&listener, ACCEPT_BACKLOG);
        self.listen_on(id, listener, None)
    }

    fn attach(
        &self,
        id: NodeId,
        listener: Option<TcpListener>,
        local_addr: Option<SocketAddr>,
        forward: Option<NodeRef>,
    ) -> PollNode {
        let (inbox_tx, inbox) = unbounded();
        let key = self.shared.next_key.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::<NodeShared>::default();
        let node = RNode {
            id,
            shared: Arc::clone(&shared),
            inbox_tx,
            forward,
            listener,
            peers: HashMap::new(),
            host: None,
        };
        self.shared.mail.post(Cmd::Register { key, node });
        PollNode {
            id,
            local_addr,
            at: NodeRef {
                key,
                shared,
                mail: self.shared.mail.clone(),
            },
            reactor: Arc::clone(&self.shared),
            inbox,
        }
    }

    /// Attaches a listening node around a pre-built listener (already
    /// bound and `listen(2)`ed — e.g. one member of an `SO_REUSEPORT`
    /// group from [`vl_epoll::bind_reuseport`]). The listener is
    /// switched to nonblocking here; the backlog is whatever the
    /// caller established. `forward` makes the node one shard of an
    /// endpoint whose events that node's loop delivers as its own.
    pub(crate) fn listen_on(
        &self,
        id: NodeId,
        listener: TcpListener,
        forward: Option<NodeRef>,
    ) -> io::Result<PollNode> {
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        Ok(self.attach(id, Some(listener), Some(local), forward))
    }

    /// Snapshot of the loop's wakeup/event/frame counters.
    pub fn loop_stats(&self) -> LoopStats {
        *lock(&self.shared.counters)
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
    local_addr: Option<SocketAddr>,
    /// This node's address for other threads.
    pub(crate) at: NodeRef,
    /// Keeps the loop thread alive.
    reactor: Arc<ReactorShared>,
    inbox: Receiver<NetEvent>,
}

impl std::fmt::Debug for PollNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PollNode")
            .field("id", &self.id)
            .field("addr", &self.local_addr)
            .field("peers", &lock(&self.at.shared.peers).len())
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
        self.at.mail.post(Cmd::Adopt {
            key: self.at.key,
            peer,
            stream,
            addr,
            done: Some(done_tx),
        });
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
        lock(&self.at.shared.peers).entry(peer).or_insert(false);
        let key = self.at.key;
        self.at.mail.post(Cmd::SetPeerAddr { key, peer, addr });
    }

    /// Whether `peer` currently has a live connection.
    pub fn is_connected(&self, peer: NodeId) -> bool {
        self.at.peer_state(peer).unwrap_or(false)
    }

    /// [`Channel::host`] for the consuming shard of an endpoint whose
    /// other shards are `siblings`.
    pub(crate) fn host_with(&self, handler: Box<dyn Handler>, siblings: Vec<NodeRef>) {
        let (done, installed) = unbounded();
        let hosted = Hosted {
            handler,
            siblings,
            deadline: None,
        };
        let host = Cmd::Host(self.at.key, hosted, self.inbox.clone(), done);
        self.at.mail.post(host);
        // A loop that is gone dropped the command, handler and all.
        installed.recv().expect("reactor alive while its node is");
    }

    /// Peers with a live connection on this node, unordered.
    pub fn connected_peers(&self) -> Vec<NodeId> {
        lock(&self.at.shared.peers)
            .iter()
            .filter_map(|(&p, &up)| up.then_some(p))
            .collect()
    }

    /// Snapshot of this node's wire accounting: per-tag delivery
    /// counts plus per-peer send-queue depth/drop/backpressure
    /// counters maintained by the loop.
    pub fn wire_stats(&self) -> WireStats {
        lock(&self.at.shared.wire).clone()
    }

    /// Snapshot of the owning reactor's loop counters.
    pub fn loop_stats(&self) -> LoopStats {
        *lock(&self.reactor.counters)
    }
}

impl Channel for PollNode {
    fn id(&self) -> NodeId {
        self.id
    }

    fn send(&self, to: NodeId, bytes: Bytes) -> Result<(), NetError> {
        match self.at.peer_state(to) {
            Some(_) => self.at.post_send(to, bytes),
            None => Err(NetError::UnknownNode(to)),
        }
    }

    fn recv_event(&self, timeout: Option<StdDuration>) -> Result<NetEvent, NetError> {
        recv_from(&self.inbox, timeout)
    }

    /// Through the loop, which knows who consumes this node's stream.
    fn wake(&self) {
        let (key, event) = (self.at.key, NetEvent::Woken);
        self.at.mail.post(Cmd::Event { key, event });
    }

    /// On the node's reactor, which calls it for every frame this node
    /// reads, where the frame lies. A node hosts one handler: hosting
    /// another replaces it.
    fn host(self: Arc<Self>, handler: Box<dyn Handler>) {
        self.host_with(handler, Vec::new());
    }

    fn wire_stats(&self) -> Option<WireStats> {
        Some(PollNode::wire_stats(self))
    }
}

impl Drop for PollNode {
    fn drop(&mut self) {
        self.at.mail.post(Cmd::RemoveNode { key: self.at.key });
    }
}

// ---------------------------------------------------------------------
// Loop internals (owned exclusively by the loop thread).
// ---------------------------------------------------------------------

const WAKER_TOKEN: u64 = u64::MAX;
const LISTENER_BIT: u64 = 1 << 63;
/// Stop topping the per-connection write buffer up past this; a queue
/// holding this much is written before it takes more.
const WBUF_TARGET: usize = 32 * 1024;
/// The largest written-out buffer the loop keeps as its spare: what a
/// buffer filled just past `WBUF_TARGET` has grown to by doubling. One
/// that a larger frame grew further is freed.
pub(crate) const SPARE_MAX: usize = 2 * WBUF_TARGET;
/// Reclaim the consumed write-buffer prefix past this.
const WBUF_COMPACT: usize = 64 * 1024;

/// Per-peer supervision state (loop-owned).
#[derive(Default)]
struct RPeer {
    /// Live connection token, if any.
    conn: Option<usize>,
    /// Frames awaiting a connection or buffer space, oldest first.
    queue: VecDeque<Bytes>,
    /// Payload bytes in `queue`.
    bytes: usize,
    /// Re-dial target; `None` for inbound-only peers.
    addr: Option<SocketAddr>,
    /// Consecutive failed dial attempts since the last success.
    attempt: u32,
    /// A dial for this peer is in flight on the dialer thread.
    dialing: bool,
    /// Queue accounting published through [`WireStats`].
    q: QueueStats,
}

/// One attached node (loop-owned).
struct RNode {
    id: NodeId,
    shared: Arc<NodeShared>,
    inbox_tx: Sender<NetEvent>,
    /// Where this node's events go instead of to its inbox: the shard
    /// of its endpoint that consumes them for all.
    forward: Option<NodeRef>,
    listener: Option<TcpListener>,
    peers: HashMap<NodeId, RPeer>,
    /// The node's consumer, when it hosts one; out of the node while
    /// it is being called.
    host: Option<Hosted>,
}

/// The handler one of this loop's nodes is hosting (loop-owned).
struct Hosted {
    handler: Box<dyn Handler>,
    /// The endpoint's other shards, for replies to peers they own.
    siblings: Vec<NodeRef>,
    /// Its answer to `next_deadline` when last asked, after its last
    /// call (or batch of calls, for the frames of one read).
    deadline: Option<Instant>,
}

/// A hosted handler's way out: straight into the loop's peer queues,
/// or into the write buffer of the connection its frame came in on.
struct LoopOutbox<'a> {
    el: &'a mut EventLoop,
    key: u64,
    siblings: &'a [NodeRef],
    /// The peer whose frame is being handled and its connection, when
    /// the loop read that frame itself.
    reading: Option<(NodeId, usize)>,
}

impl Outbox for LoopOutbox<'_> {
    fn send(&mut self, to: NodeId, bytes: Bytes) -> Result<(), NetError> {
        let own = (self.el.nodes.get(&self.key))
            .and_then(|n| n.peers.get(&to))
            .map(|p| p.conn.is_some());
        let theirs = self.siblings.iter().map(|s| s.peer_state(to));
        // The live connection is usually ours: probe the others' tables
        // only when it is not.
        match route(std::iter::once(own).chain(theirs.filter(|_| own != Some(true)))) {
            Some(0) => self.el.enqueue(self.key, to, bytes),
            Some(i) => return self.siblings[i - 1].post_send(to, bytes),
            None => return Err(NetError::UnknownNode(to)),
        }
        Ok(())
    }

    /// A reply to the peer being read is built in its connection's
    /// write buffer; anything else is an ordinary [`send`](Outbox::send).
    fn send_with(
        &mut self,
        to: NodeId,
        encode: &mut dyn FnMut(&mut Vec<u8>),
    ) -> Result<(), NetError> {
        match self.reading {
            Some((peer, token)) if peer == to && self.el.stage_with(token, to, encode) => Ok(()),
            _ => self.send(to, encoded(encode)),
        }
    }
}

/// One live connection (loop-owned).
struct RConn {
    stream: TcpStream,
    node: u64,
    /// `None` until the inbound hello identifies the peer.
    peer: Option<NodeId>,
    /// The start of a frame split across reads; empty between frames.
    decoder: FrameDecoder,
    /// Encoded frames staged for the kernel; `wstart` is the
    /// already-written prefix. Held only while bytes wait in it: once
    /// written out it goes back to the loop's spare.
    wbuf: Vec<u8>,
    wstart: usize,
    /// Currently registered with writable interest.
    want_write: bool,
    /// Listed in the loop's `dirty` set: has output not yet written.
    dirty: bool,
    /// Frames in the peer's queue that this connection has yet to take:
    /// what a frame staged directly would overtake.
    queued: usize,
    /// Frames staged directly since the last flush, which counts them.
    staged: u64,
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
    fn new(stream: TcpStream, node: u64, peer: Option<NodeId>) -> RConn {
        let now = Instant::now();
        RConn {
            stream,
            node,
            peer,
            decoder: FrameDecoder::new(),
            wbuf: Vec::new(),
            wstart: 0,
            want_write: false,
            dirty: false,
            queued: 0,
            staged: 0,
            last_activity: now,
            last_ka: now,
            frame_started: None,
            opened: now,
        }
    }

    fn pending(&self) -> usize {
        self.wbuf.len() - self.wstart
    }

    /// Appends `frame`, length-prefixed, to the bytes awaiting a write,
    /// in the loop's `spare` buffer when the connection holds none.
    fn stage(&mut self, spare: &mut Vec<u8>, frame: &[u8]) {
        self.stage_with(spare, &mut |buf| buf.extend_from_slice(frame));
    }

    /// [`stage`](RConn::stage) for a frame built in place: `encode`
    /// appends it behind a length patched in afterwards.
    fn stage_with(&mut self, spare: &mut Vec<u8>, encode: &mut dyn FnMut(&mut Vec<u8>)) {
        if self.wbuf.capacity() == 0 {
            self.wbuf = std::mem::take(spare);
        }
        let at = self.wbuf.len();
        self.wbuf.extend_from_slice(&[0; FRAME_HEADER_LEN]);
        encode(&mut self.wbuf);
        let len = (self.wbuf.len() - at - FRAME_HEADER_LEN) as u32;
        self.wbuf[at..at + FRAME_HEADER_LEN].copy_from_slice(&len.to_le_bytes());
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
    wake: Arc<Wake>,
    rx: Receiver<Cmd>,
    dial_tx: Sender<DialReq>,
    cfg: PollConfig,
    /// The loop's own tally, published to `counters` once an iteration.
    stats: LoopStats,
    counters: Arc<Mutex<LoopStats>>,
    nodes: HashMap<u64, RNode>,
    /// Events not yet consumed, by node key. Producing one only queues
    /// it: `dispatch` runs between units of work, never in a handler.
    events: VecDeque<(u64, NetEvent)>,
    conns: Vec<Option<RConn>>,
    free: Vec<usize>,
    /// Connections with output queued since their last write; each is
    /// written once, at the end of the loop iteration.
    dirty: Vec<usize>,
    /// Pending re-dials: earliest first (reversed for the max-heap).
    redials: BinaryHeap<std::cmp::Reverse<(Instant, u64, NodeId)>>,
    /// Coalesced next-maintenance deadline; `None` = sleep forever.
    timer_next: Option<Instant>,
    /// The read buffer every connection's frames are handled in.
    scratch: Vec<u8>,
    /// A written-out write buffer of at most `SPARE_MAX` bytes, for
    /// the next connection to stage in.
    spare: Vec<u8>,
    shutdown: bool,
}

impl EventLoop {
    fn new(
        poller: Poller,
        wake: Arc<Wake>,
        rx: Receiver<Cmd>,
        dial_tx: Sender<DialReq>,
        cfg: PollConfig,
        counters: Arc<Mutex<LoopStats>>,
    ) -> EventLoop {
        EventLoop {
            poller,
            wake,
            rx,
            dial_tx,
            cfg,
            stats: LoopStats::default(),
            counters,
            nodes: HashMap::new(),
            events: VecDeque::new(),
            conns: Vec::new(),
            free: Vec::new(),
            dirty: Vec::new(),
            redials: BinaryHeap::new(),
            timer_next: None,
            scratch: vec![0u8; 64 * 1024],
            spare: Vec::new(),
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
            let timeout = (self.timer_next).map(|at| at.saturating_duration_since(Instant::now()));
            let n = match self.poller.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(_) => break, // epoll itself failed: nothing to salvage
            };
            self.stats.wakeups += 1;
            let mut io_events = 0u64;
            for &ev in events.iter().take(n) {
                if ev.token == WAKER_TOKEN {
                    self.wake.waker.drain();
                } else if ev.token & LISTENER_BIT != 0 {
                    io_events += 1;
                    self.accept_ready(ev.token & !LISTENER_BIT);
                } else {
                    io_events += 1;
                    let token = ev.token as usize;
                    // An error is collected through read(): EOF/err path.
                    if ev.readable || ev.error {
                        self.conn_readable(token);
                    }
                    if ev.writable && !ev.error {
                        self.flush_conn(token);
                    }
                }
                self.dispatch();
            }
            self.stats.timer_wakeups += u64::from(io_events == 0);
            self.stats.io_events += io_events;
            // Cleared before the drain, so a command that misses the
            // drain finds it clear and writes the eventfd (see `Wake`).
            self.wake.pending.swap(false, Ordering::AcqRel);
            self.drain_cmds();
            self.dispatch();
            // Every timer source arms `timer_next` eagerly at its event
            // site, so maintenance only runs when a deadline is due —
            // never as a per-wakeup sweep over all connections.
            if self.timer_next.is_some_and(|at| at <= Instant::now()) {
                self.maintain();
            }
            // One write per connection per iteration (more only when
            // a write finds one dead and the consumer answers that).
            self.flush_dirty();
            while !self.events.is_empty() {
                self.dispatch();
                self.flush_dirty();
            }
            *lock(&self.counters) = self.stats;
        }
        // Drop order closes every socket; peers observe EOF.
    }

    /// Hands each queued event to its node's consumer: the hosted
    /// handler, the loop this shard forwards to, or the inbox.
    fn dispatch(&mut self) {
        while let Some((key, event)) = self.events.pop_front() {
            let Some(node) = self.nodes.get_mut(&key) else {
                continue;
            };
            if let Some(h) = node.host.take() {
                let h = self.call(key, h, None, |h, out| h.on_event(event, out));
                self.restore(key, h);
            } else if let Some(to) = &node.forward {
                let key = to.key;
                to.mail.post(Cmd::Event { key, event });
            } else {
                // A dropped receiver is followed by RemoveNode.
                drop(node.inbox_tx.send(event));
            }
        }
    }

    fn take_host(&mut self, key: u64) -> Option<Hosted> {
        self.nodes.get_mut(&key)?.host.take()
    }

    /// Lends node `key`'s handler `h` the loop to send into — and, for a
    /// frame the loop read itself, the connection `reading` names to
    /// answer on. A handler that says it is done is not given back.
    fn call(
        &mut self,
        key: u64,
        mut h: Hosted,
        reading: Option<(NodeId, usize)>,
        f: impl FnOnce(&mut dyn Handler, &mut dyn Outbox) -> bool,
    ) -> Option<Hosted> {
        let siblings = &h.siblings;
        let mut out = LoopOutbox {
            el: self,
            key,
            siblings,
            reading,
        };
        f(&mut *h.handler, &mut out).then_some(h)
    }

    /// Puts node `key`'s handler back after its call (or the calls of
    /// one read) and arms its deadline, which is new or may have moved.
    /// One that is done stays dropped, and the node's inbox takes over.
    fn restore(&mut self, key: u64, h: Option<Hosted>) {
        let (Some(mut h), Some(node)) = (h, self.nodes.get_mut(&key)) else {
            return;
        };
        h.deadline = h.handler.next_deadline();
        let at = h.deadline;
        node.host = Some(h);
        if let Some(at) = at {
            self.arm(at);
        }
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
                    self.stats.commands += 1;
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
            Cmd::Register { key, node } => {
                if let Some(l) = &node.listener {
                    let _ = self
                        .poller
                        .add(l.as_raw_fd(), LISTENER_BIT | key, Interest::READ);
                }
                self.nodes.insert(key, node);
            }
            Cmd::Send { key, to, frame } => self.enqueue(key, to, frame),
            Cmd::Adopt {
                key,
                peer,
                stream,
                addr,
                done,
            } => {
                self.adopt(key, peer, stream, Some(addr));
                self.dispatch(); // `dial` returns with the `Up` delivered
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
                let p = node.peers.entry(peer).or_default();
                p.addr = Some(addr);
                p.attempt = 0;
                let at = Instant::now();
                self.redials.push(std::cmp::Reverse((at, key, peer)));
                self.arm(at);
            }
            Cmd::RemoveNode { key } => self.remove_node(key),
            Cmd::Host(key, hosted, inbox, done) => {
                self.dispatch(); // what this drain queued is older: inbox
                if let Some(node) = self.nodes.get_mut(&key) {
                    node.host = Some(hosted); // replacing any it had
                    while let Ok(event) = inbox.try_recv() {
                        self.events.push_back((key, event));
                    }
                    self.dispatch();
                    let hosted = self.take_host(key);
                    self.restore(key, hosted); // arms it, even with nothing queued
                }
                let _ = done.send(());
            }
            Cmd::Event { key, event } => self.events.push_back((key, event)),
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
        let (key, peer) = (conn.node, conn.peer);
        self.close_conn(token);
        let Some(peer) = peer else {
            return; // hello never completed: nothing was announced
        };
        let Some(node) = self.nodes.get_mut(&key) else {
            return;
        };
        let Some(p) = node.peers.get_mut(&peer).filter(|p| p.conn == Some(token)) else {
            return; // a newer connection already replaced this one
        };
        p.conn = None;
        p.attempt = 0;
        lock(&node.shared.peers).insert(peer, false);
        if p.addr.is_some() {
            let at = Instant::now();
            self.redials.push(std::cmp::Reverse((at, key, peer)));
            self.arm(at);
        }
        self.events.push_back((key, NetEvent::Down(peer)));
    }

    /// Gives `conn` a slab slot and registers it readable; `None` (and
    /// the socket closed) when epoll refuses it.
    fn insert_conn(&mut self, conn: RConn) -> Option<usize> {
        let token = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let fd = conn.stream.as_raw_fd();
        if self.poller.add(fd, token as u64, Interest::READ).is_err() {
            self.free.push(token);
            return None;
        }
        self.conns[token] = Some(conn);
        Some(token)
    }

    fn accept_ready(&mut self, key: u64) {
        loop {
            let Some(listener) = self.nodes.get(&key).and_then(|n| n.listener.as_ref()) else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    self.stats.accepts += 1;
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if self.insert_conn(RConn::new(stream, key, None)).is_some() {
                        // The hello must arrive within hello_timeout.
                        self.arm(Instant::now() + self.cfg.hello_timeout);
                    }
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
        if let Some(token) = self.insert_conn(RConn::new(stream, key, Some(peer))) {
            self.establish(token, key, peer, addr);
        }
    }

    /// Binds `token` to `peer` on node `key`: replaces any older
    /// connection (silently — the link never went down from the
    /// application's view), drains the send backlog, and emits one
    /// connect event.
    fn establish(&mut self, token: usize, key: u64, peer: NodeId, addr: Option<SocketAddr>) {
        let Some(node) = self.nodes.get_mut(&key) else {
            return;
        };
        let p = node.peers.entry(peer).or_default();
        let old = p.conn.replace(token);
        if let Some(a) = addr {
            p.addr = Some(a);
        }
        p.attempt = 0;
        p.dialing = false;
        lock(&node.shared.peers).insert(peer, true);
        let backlog = p.queue.len();
        if let Some(old) = old {
            if old != token {
                self.close_conn(old);
            }
        }
        if let Some(conn) = self.conns[token].as_mut() {
            conn.peer = Some(peer);
            conn.queued = backlog;
        }
        if let Some(every) = self.ka_every() {
            self.arm(Instant::now() + every);
        }
        self.mark_dirty(token);
        self.events.push_back((key, NetEvent::Up(peer)));
    }

    /// Queues `frame` for the iteration's one flush. A queue already
    /// holding a write buffer's worth, or about to shed, is written out
    /// first: a burst sheds only what an unwritable socket forces.
    fn enqueue(&mut self, key: u64, to: NodeId, frame: Bytes) {
        let cap = self.cfg.queue_cap;
        let Some(p) = self.peer_mut(key, to) else {
            return;
        };
        let p = if p.conn.is_some() && (p.bytes >= WBUF_TARGET || p.queue.len() >= cap) {
            self.flush_dirty();
            self.peer_mut(key, to).expect("flushing removes no node")
        } else {
            p
        };
        if p.queue.len() >= cap {
            // Bounded: the oldest frame is lost.
            p.bytes -= p.queue.pop_front().map_or(0, |f| f.len());
            p.q.dropped_overflow += 1;
        }
        p.bytes += frame.len();
        p.queue.push_back(frame);
        p.q.enqueued += 1;
        p.q.depth = p.queue.len() as u64;
        p.q.peak_depth = p.q.peak_depth.max(p.q.depth);
        let queued = p.queue.len();
        match p.conn {
            Some(token) => {
                if let Some(conn) = self.conns[token].as_mut() {
                    conn.queued = queued;
                }
                self.mark_dirty(token); // its flush publishes
            }
            None => {
                let q = p.q;
                lock(&self.nodes[&key].shared.wire).record_queue(to, q);
            }
        }
    }

    fn peer_mut(&mut self, key: u64, peer: NodeId) -> Option<&mut RPeer> {
        let node = self.nodes.get_mut(&key)?;
        Some(node.peers.entry(peer).or_default())
    }

    /// Builds a frame for `peer` where it will be written from, in
    /// connection `token`'s write buffer. `false`, with nothing staged,
    /// when that would overtake frames in the peer's queue, the
    /// connection is gone or no longer the peer's, or its buffer is
    /// still full after a flush: the queue's shedding decides then.
    fn stage_with(
        &mut self,
        token: usize,
        peer: NodeId,
        encode: &mut dyn FnMut(&mut Vec<u8>),
    ) -> bool {
        match self.conns[token].as_ref() {
            Some(c) if c.peer == Some(peer) && c.queued == 0 => {
                if c.pending() >= WBUF_TARGET {
                    self.flush_conn(token);
                }
            }
            _ => return false,
        }
        let open = self.conns[token].as_mut();
        let Some(conn) = open.filter(|c| c.pending() < WBUF_TARGET) else {
            return false;
        };
        conn.stage_with(&mut self.spare, encode);
        conn.staged += 1;
        self.mark_dirty(token);
        true
    }

    fn mark_dirty(&mut self, token: usize) {
        let conn = self.conns[token].as_mut();
        if conn.is_some_and(|c| !std::mem::replace(&mut c.dirty, true)) {
            self.dirty.push(token);
        }
    }

    /// The one place besides writable readiness that writes a connection.
    fn flush_dirty(&mut self) {
        while let Some(token) = self.dirty.pop() {
            self.flush_conn(token);
        }
    }

    /// Writes until the kernel blocks or everything is out, topping
    /// the write buffer up from the peer queue before each write.
    /// Adjusts writable interest to match, publishes the queue's
    /// counters once, and tears the connection down on write failure.
    fn flush_conn(&mut self, token: usize) {
        let Some(conn) = self.conns[token].as_mut() else {
            return;
        };
        conn.dirty = false;
        let (key, peer) = (conn.node, conn.peer);
        let mut queue = (self.nodes.get_mut(&key))
            .and_then(|n| n.peers.get_mut(&peer?))
            .filter(|p| p.conn == Some(token));
        // Frames staged directly are counted here, like the queue's.
        let staged = std::mem::take(&mut conn.staged);
        let (mut frames_out, mut dead, mut blocked) = (staged, false, false);
        loop {
            // Keepalives and the hello bypass the queue: already staged.
            if let Some(p) = &mut queue {
                while conn.pending() < WBUF_TARGET {
                    let Some(frame) = p.queue.pop_front() else {
                        break;
                    };
                    p.bytes -= frame.len();
                    conn.stage(&mut self.spare, &frame);
                    frames_out += 1;
                }
            }
            if conn.pending() == 0 {
                break;
            }
            match conn.stream.write(&conn.wbuf[conn.wstart..]) {
                Ok(0) => dead = true,
                Ok(n) => {
                    conn.wstart += n;
                    if conn.wstart == conn.wbuf.len() {
                        conn.wbuf.clear();
                        conn.wstart = 0;
                    } else if conn.wstart > WBUF_COMPACT {
                        conn.wbuf.drain(..conn.wstart);
                        conn.wstart = 0;
                    }
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => blocked = true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => dead = true,
            }
            break;
        }
        // A connection with nothing left to write keeps no buffer: the
        // loop keeps one no larger than a buffer topped up to
        // `WBUF_TARGET` grows to, and frees any other.
        if conn.pending() == 0 {
            let written = std::mem::take(&mut conn.wbuf);
            if self.spare.capacity() == 0 && written.capacity() <= SPARE_MAX {
                self.spare = written;
            }
        }
        // Mirror writable interest to buffer state, and count the
        // backpressure transition (blocked with bytes still pending).
        let newly_blocked = blocked && !conn.want_write;
        if !dead && blocked != conn.want_write {
            let interest = if blocked {
                Interest::READ_WRITE
            } else {
                Interest::READ
            };
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), token as u64, interest)
                .is_ok()
            {
                conn.want_write = blocked;
            }
        }
        if let (Some(p), Some(peer)) = (queue, peer) {
            conn.queued = p.queue.len();
            if newly_blocked || frames_out > 0 {
                p.q.enqueued += staged;
                p.q.backpressure += u64::from(newly_blocked);
                p.q.depth = p.queue.len() as u64;
                let q = p.q;
                lock(&self.nodes[&key].shared.wire).record_queue(peer, q);
            }
        }
        self.stats.frames_out += frames_out;
        if dead {
            self.teardown(token);
        }
    }

    /// Reads until the kernel blocks, handling each frame as it is
    /// decoded: the first on an anonymous inbound connection must be
    /// the hello; empty frames are keepalives; the rest go to the
    /// node's consumer, and into its [`WireStats`] once for the batch.
    fn conn_readable(&mut self, token: usize) {
        let Some(conn) = self.conns[token].as_mut() else {
            return;
        };
        let (key, mut peer) = (conn.node, conn.peer);
        // Out of the connection and the loop while its frames are
        // handled: a hosted handler's outbox borrows the whole loop.
        let mut decoder = std::mem::take(&mut conn.decoder);
        let mut scratch = std::mem::take(&mut self.scratch);
        // The handler, too, once any hello in this read is in: looked up
        // once for the batch, so no frame takes a hash look-up.
        let mut host = peer.and_then(|_| self.take_host(key));
        let mut batch = WireStats::new();
        let (mut dead, mut got_bytes) = (false, false);
        // A reply's flush may find the connection dead under the batch:
        // what was decoded is still its stream, ahead of the `Down`.
        'read: while let Some(conn) = self.conns[token].as_mut().filter(|_| !dead) {
            match conn.stream.read(&mut scratch) {
                Ok(0) => dead = true,
                Ok(n) => {
                    got_bytes = true;
                    // Whole frames are handled where the read put them;
                    // only one split across reads waits in the decoder.
                    let mut rest = &scratch[..n];
                    loop {
                        match (decoder.next_in(&mut rest), peer) {
                            (Ok(Some(frame)), None) => match self.hello(token, key, frame) {
                                None => break 'read, // closed; nothing was announced
                                known => {
                                    peer = known;
                                    host = self.take_host(key);
                                }
                            },
                            (Ok(Some([])), Some(_)) => {} // keepalive: link-level only
                            (Ok(Some(frame)), Some(from)) => {
                                batch.record(frame);
                                self.frame_in(token, &mut host, key, from, frame);
                            }
                            (Ok(None), _) => break,
                            (Err(_), _) => {
                                dead = true;
                                break;
                            }
                        }
                    }
                    decoder.feed(rest);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => dead = true,
            }
        }
        self.scratch = scratch;
        self.restore(key, host);
        let frames_in = batch.total_frames();
        if let Some(node) = self.nodes.get(&key).filter(|_| frames_in > 0) {
            self.stats.frames_in += frames_in;
            lock(&node.shared.wire).merge(&batch);
        }
        // Nothing opens a connection while one is read, so a slot still
        // taken is this connection's; one torn down keeps no decoder.
        let Some(conn) = self.conns[token].as_mut() else {
            return;
        };
        if got_bytes {
            conn.last_activity = Instant::now();
        }
        let stalled = decoder.mid_frame();
        conn.decoder = decoder;
        if !stalled {
            conn.frame_started = None;
        } else if conn.frame_started.is_none() {
            let started = Instant::now();
            conn.frame_started = Some(started);
            // Stall enforcement rides the idle machinery; with
            // idle disabled there is no liveness policing.
            if self.cfg.idle_deadline.is_some() {
                self.arm(started + FRAME_DEADLINE);
            }
        }
        if dead {
            self.teardown(token);
        }
    }

    /// Answers an inbound connection's first frame with our identity
    /// and surfaces the link, `Up` ahead of the frames behind the hello;
    /// closes the connection on anything but a hello.
    fn hello(&mut self, token: usize, key: u64, frame: &[u8]) -> Option<NodeId> {
        let hello = (self.nodes.get(&key)).map(|node| encode_hello(node.id));
        let (Ok(peer), Some(hello)) = (decode_hello(frame), hello) else {
            self.close_conn(token);
            return None;
        };
        if let Some(conn) = self.conns[token].as_mut() {
            conn.stage(&mut self.spare, &hello);
        }
        self.establish(token, key, peer, None);
        self.dispatch();
        Some(peer)
    }

    /// Hands node `key`'s consumer a frame read on connection `token`:
    /// its handler, `host`, where the frame lies, with the connection at
    /// hand for its reply; anyone else a copy, on the event queue.
    fn frame_in(
        &mut self,
        token: usize,
        host: &mut Option<Hosted>,
        key: u64,
        from: NodeId,
        frame: &[u8],
    ) {
        if let Some(h) = host.take() {
            let reading = Some((from, token));
            *host = self.call(key, h, reading, |h, out| h.on_frame(from, frame, out));
            return;
        }
        let bytes = Bytes::copy_from_slice(frame);
        self.events
            .push_back((key, NetEvent::Frame { from, bytes }));
    }

    /// Runs every due timer — keepalives, idle reaping, mid-frame
    /// stalls, hello deadlines, re-dials — and recomputes the single
    /// coalesced wakeup deadline from live state.
    fn maintain(&mut self) {
        let now = Instant::now();
        for (&key, node) in &mut self.nodes {
            let host = node.host.as_mut();
            if let Some(h) = host.filter(|h| h.deadline.is_some_and(|at| at <= now)) {
                h.deadline = None; // asked again once called
                self.events.push_back((key, NetEvent::Woken));
            }
        }
        self.dispatch();
        let hosts = self.nodes.values().filter_map(|node| node.host.as_ref());
        let mut next = hosts.filter_map(|h| h.deadline).min();
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
        let hello_timeout = self.cfg.hello_timeout;
        let mut reap: Vec<usize> = Vec::new();
        for (token, slot) in self.conns.iter_mut().enumerate() {
            let Some(conn) = slot else { continue };
            if conn.peer.is_none() {
                // Handshaking: only the hello deadline applies.
                let deadline = conn.opened + hello_timeout;
                if now >= deadline {
                    reap.push(token); // nothing was announced: no `Down`
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
                    let deadline = started + FRAME_DEADLINE;
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
                    conn.stage(&mut self.spare, &[]);
                    if !std::mem::replace(&mut conn.dirty, true) {
                        self.dirty.push(token);
                    }
                    bump(&mut next, now + every);
                } else {
                    bump(&mut next, due);
                }
            }
        }
        for token in reap {
            self.teardown(token);
        }
        self.timer_next = next;
        self.dispatch(); // the reaped connections' `Down`s
    }
}
