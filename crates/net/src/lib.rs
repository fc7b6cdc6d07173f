//! Transport layer for the live volume-lease stack.
//!
//! Two interchangeable transports carry the framed messages of
//! `vl-proto`, each delivering **one ordered event stream** per
//! endpoint ([`NetEvent`]: frames and link-state changes on the same
//! queue) through [`Channel::recv_event`]:
//!
//! * [`InMemoryNetwork`] — a process-local router with **fault
//!   injection**: partitions silently drop traffic between chosen node
//!   pairs, exactly the failure model leases are designed for (a sender
//!   cannot tell a slow peer from a dead one).
//! * [`poll`] / [`shard`] — length-prefixed framing ([`tcp`]) over
//!   nonblocking sockets on one or N epoll loops, for running the
//!   server and clients as real processes.
//!
//! # Examples
//!
//! ```
//! use vl_net::{InMemoryNetwork, NodeId};
//! use vl_types::{ClientId, ServerId};
//! use bytes::Bytes;
//!
//! let net = InMemoryNetwork::new();
//! let server = net.endpoint(NodeId::Server(ServerId(0)));
//! let client = net.endpoint(NodeId::Client(ClientId(1)));
//! client.send(NodeId::Server(ServerId(0)), Bytes::from_static(b"hi"))?;
//! let (from, bytes) = server.recv_timeout(std::time::Duration::from_secs(1))?;
//! assert_eq!(from, NodeId::Client(ClientId(1)));
//! assert_eq!(&bytes[..], b"hi");
//! # Ok::<(), vl_net::NetError>(())
//! ```
//!
//! # Layering
//!
//! This crate is driver territory under DESIGN.md §7: everything that
//! blocks, owns a socket, or loses messages lives here, behind the
//! [`Channel`] trait, so the protocol machines above it never touch
//! I/O. It also owns every thread that consumes a stream: a driver is a
//! [`Handler`] that [`Channel::host`] installs on the reactor that reads
//! its frames, or, for a transport with no thread of its own, on one
//! blocked in its receive. The router also keeps per-message-tag
//! delivery accounting ([`WireStats`]) — transport-level observability
//! that needs no decoding, since every `vl-proto` frame begins with its
//! codec tag.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod poll;
pub mod retry;
pub mod shard;
pub mod tcp;
pub mod wire;

pub use wire::{QueueStats, TagStats, WireStats};

/// One item of an endpoint's ordered receive stream. Link state rides
/// the same queue as the frames, so a driver needs a single blocking
/// receive and no polling: on a connection-oriented transport
/// `Up(peer)` precedes that connection's first `Frame` and `Down(peer)`
/// follows its last one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetEvent {
    /// A message arrived.
    Frame {
        /// The sending node.
        from: NodeId,
        /// The payload, exactly as sent.
        bytes: bytes::Bytes,
    },
    /// A connection to `peer` was (re-)established — the signal a
    /// client uses to start the paper's reconnection handshake.
    /// Connectionless transports (the in-memory router) never emit it.
    Up(NodeId),
    /// The connection to `peer` dropped. Reported once per loss, so
    /// drivers can mirror it into protocol state (the server demotes
    /// the client to its Unreachable set; the client marks itself
    /// degraded).
    Down(NodeId),
    /// [`Channel::wake`] was called; carries no data and may be
    /// spurious.
    Woken,
}

/// A bidirectional message channel with node addressing — the interface
/// the live server and client stack is written against. Implemented by
/// the in-memory [`Endpoint`] and by the readiness transports in
/// [`poll`] and [`shard`].
pub trait Channel: Send + Sync + 'static {
    /// This node's address.
    fn id(&self) -> NodeId;

    /// Sends `bytes` to `to`. Like IP, delivery is not guaranteed: a
    /// partition or dead peer loses the message without an error.
    ///
    /// # Errors
    ///
    /// Only for *structural* problems (unknown destination, closed
    /// transport) — never for in-flight loss.
    fn send(&self, to: NodeId, bytes: bytes::Bytes) -> Result<(), NetError>;

    /// Blocks up to `timeout` (indefinitely when `None`) for the next
    /// event of this endpoint's stream.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] when nothing arrived,
    /// [`NetError::Disconnected`] when the transport is gone.
    fn recv_event(&self, timeout: Option<std::time::Duration>) -> Result<NetEvent, NetError>;

    /// Queues a [`NetEvent::Woken`] so a receive blocked on another
    /// thread returns: how a driver's control handle interrupts its
    /// event loop without the loop polling for it.
    fn wake(&self);

    /// Blocks up to `timeout` for the next *message*, discarding
    /// link-state and wake events on the way.
    ///
    /// # Errors
    ///
    /// As [`recv_event`](Channel::recv_event).
    fn recv_timeout(
        &self,
        timeout: std::time::Duration,
    ) -> Result<(NodeId, bytes::Bytes), NetError> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if let NetEvent::Frame { from, bytes } = self.recv_event(Some(left))? {
                return Ok((from, bytes));
            }
        }
    }

    /// Snapshot of wire-level accounting — per-tag delivery counts and
    /// per-peer send-queue depth/drop/backpressure counters — when the
    /// transport keeps any. Drivers surface this through tracing so
    /// `vl report` can summarize transport pressure.
    fn wire_stats(&self) -> Option<WireStats> {
        None
    }

    /// Per-shard transport snapshots, when this endpoint multiplexes
    /// several reactor threads ([`shard::ShardedNode`]). Unsharded
    /// transports return `None`; drivers use this to annotate trace
    /// events with a shard dimension so `vl report` can break queue
    /// depth and frame throughput down per reactor.
    fn shard_stats(&self) -> Option<Vec<shard::ShardStats>> {
        None
    }

    /// Makes `handler` this endpoint's consumer and returns once it is
    /// in place: the stream, what waits in the inbox first, then goes to
    /// [`Handler::on_event`] and [`recv_event`](Channel::recv_event)
    /// sees nothing more. A transport with a thread of its own calls the
    /// handler there. The default is the pump: a thread of vl-net's
    /// blocked in `recv_event`, bounded by the handler's deadline, until
    /// the handler ends the hosting or the endpoint disconnects.
    fn host(self: Arc<Self>, mut handler: Box<dyn Handler>) {
        let name = format!("vl-pump-{}", self.id());
        let pump = move || loop {
            let timeout = (handler.next_deadline())
                .map(|at| at.saturating_duration_since(std::time::Instant::now()));
            let event = match self.recv_event(timeout) {
                Ok(event) => event,
                Err(NetError::Timeout) => NetEvent::Woken,
                // The endpoint is gone (replaced or network dropped).
                Err(_) => return,
            };
            if !handler.on_event(event, &mut &*self) {
                return;
            }
        };
        std::thread::Builder::new()
            .name(name)
            .spawn(pump)
            .expect("spawn pump thread");
    }
}

/// Where a [`Handler`] sends: its host's own queues, or any `&Channel`.
pub trait Outbox {
    /// As [`Channel::send`], errors included.
    fn send(&mut self, to: NodeId, bytes: bytes::Bytes) -> Result<(), NetError>;

    /// Sends the frame `encode` appends to the buffer it is given
    /// (which may already hold other bytes: append only). A host that
    /// has `to`'s connection in hand passes that connection's write
    /// buffer; the default encodes aside and [`send`](Outbox::send)s.
    ///
    /// # Errors
    ///
    /// As [`Channel::send`].
    fn send_with(
        &mut self,
        to: NodeId,
        encode: &mut dyn FnMut(&mut Vec<u8>),
    ) -> Result<(), NetError> {
        self.send(to, encoded(encode))
    }
}

/// The frame `encode` appends, built in the thread's buffer and copied out.
pub(crate) fn encoded(encode: &mut dyn FnMut(&mut Vec<u8>)) -> Bytes {
    thread_local!(static ASIDE: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) });
    ASIDE.with_borrow_mut(|aside| {
        encode(aside);
        let frame = Bytes::copy_from_slice(aside);
        aside.clear();
        aside.shrink_to(poll::SPARE_MAX);
        frame
    })
}

impl<C: Channel + ?Sized> Outbox for &C {
    fn send(&mut self, to: NodeId, bytes: bytes::Bytes) -> Result<(), NetError> {
        Channel::send(*self, to, bytes)
    }
}

/// An endpoint's consumer in callback form (see [`Channel::host`]).
pub trait Handler: Send {
    /// Takes the next event of the stream; `false` ends the hosting and
    /// drops the handler. Called on the host's thread: blocking here
    /// stalls every connection that thread serves.
    fn on_event(&mut self, event: NetEvent, out: &mut dyn Outbox) -> bool;

    /// [`on_event`](Handler::on_event) for a [`NetEvent::Frame`] still
    /// in the buffer it was read into. A host calls this for frames it
    /// reads itself; the default copies the frame out.
    fn on_frame(&mut self, from: NodeId, frame: &[u8], out: &mut dyn Outbox) -> bool {
        let bytes = bytes::Bytes::copy_from_slice(frame);
        self.on_event(NetEvent::Frame { from, bytes }, out)
    }

    /// When to send a [`NetEvent::Woken`] if nothing else arrives
    /// first; asked when hosted and again after every batch of events.
    fn next_deadline(&self) -> Option<std::time::Instant> {
        None
    }
}

impl<C: Channel + ?Sized> Channel for Arc<C> {
    fn id(&self) -> NodeId {
        (**self).id()
    }
    fn send(&self, to: NodeId, bytes: bytes::Bytes) -> Result<(), NetError> {
        (**self).send(to, bytes)
    }
    fn recv_event(&self, timeout: Option<std::time::Duration>) -> Result<NetEvent, NetError> {
        (**self).recv_event(timeout)
    }
    fn wake(&self) {
        (**self).wake()
    }
    fn wire_stats(&self) -> Option<WireStats> {
        (**self).wire_stats()
    }
    fn shard_stats(&self) -> Option<Vec<shard::ShardStats>> {
        (**self).shard_stats()
    }
    fn host(self: Arc<Self>, handler: Box<dyn Handler>) {
        C::host(Arc::clone(&*self), handler)
    }
}

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration as StdDuration;
use vl_types::{ClientId, ServerId};

/// Address of a node on the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeId {
    /// A cache client.
    Client(ClientId),
    /// An origin server.
    Server(ServerId),
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Client(c) => write!(f, "{c}"),
            NodeId::Server(s) => write!(f, "{s}"),
        }
    }
}

/// Transport failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// The destination was never registered on this network.
    UnknownNode(NodeId),
    /// No message arrived before the timeout.
    Timeout,
    /// The peer endpoint (or the whole network) is gone.
    Disconnected,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownNode(n) => write!(f, "unknown node {n}"),
            NetError::Timeout => f.write_str("receive timed out"),
            NetError::Disconnected => f.write_str("endpoint disconnected"),
        }
    }
}

impl std::error::Error for NetError {}

/// The blocking receive every queue-backed endpoint shares.
pub(crate) fn recv_from(
    rx: &Receiver<NetEvent>,
    timeout: Option<StdDuration>,
) -> Result<NetEvent, NetError> {
    match timeout {
        Some(t) => rx.recv_timeout(t).map_err(|e| match e {
            RecvTimeoutError::Timeout => NetError::Timeout,
            RecvTimeoutError::Disconnected => NetError::Disconnected,
        }),
        None => rx.recv().map_err(|_| NetError::Disconnected),
    }
}

/// Locks `mutex`, propagating a panic another thread had holding it.
pub(crate) fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().expect("a thread panicked holding this lock")
}

#[derive(Default)]
struct Router {
    inboxes: HashMap<NodeId, Sender<NetEvent>>,
    /// Unordered pairs currently partitioned.
    partitions: HashSet<(NodeId, NodeId)>,
    delivered: u64,
    dropped: u64,
    /// Per-tag accounting of delivered frames (first byte = codec tag).
    wire: WireStats,
}

fn pair(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// A process-local message router with injectable partitions.
///
/// Semantics mirror IP: `send` succeeds even when the message will be
/// dropped by a partition — the sender cannot observe the loss. Handles
/// are cheaply cloneable.
#[derive(Clone, Default)]
pub struct InMemoryNetwork {
    router: Arc<Mutex<Router>>,
}

impl InMemoryNetwork {
    /// Creates an empty network.
    pub fn new() -> InMemoryNetwork {
        InMemoryNetwork::default()
    }

    /// Registers `id` and returns its endpoint. Re-registering replaces
    /// the inbox (old endpoints start reporting
    /// [`NetError::Disconnected`]) — this is how a crashed-and-restarted
    /// process rejoins.
    pub fn endpoint(&self, id: NodeId) -> Endpoint {
        let (tx, rx) = unbounded();
        lock(&self.router).inboxes.insert(id, tx);
        Endpoint {
            id,
            router: Arc::clone(&self.router),
            rx,
        }
    }

    /// Silently drops all traffic between `a` and `b` (both directions)
    /// until [`heal`](InMemoryNetwork::heal).
    pub fn partition(&self, a: NodeId, b: NodeId) {
        lock(&self.router).partitions.insert(pair(a, b));
    }

    /// Removes the partition between `a` and `b`.
    pub fn heal(&self, a: NodeId, b: NodeId) {
        lock(&self.router).partitions.remove(&pair(a, b));
    }

    /// Messages delivered so far.
    pub fn delivered(&self) -> u64 {
        lock(&self.router).delivered
    }

    /// Messages dropped by partitions so far.
    pub fn dropped(&self) -> u64 {
        lock(&self.router).dropped
    }

    /// Snapshot of per-message-tag delivery accounting. The tag is the
    /// frame's first byte — for `vl-proto` frames, the codec tag that
    /// `vl_proto::codec::tag_name` maps back to a message name.
    pub fn wire_stats(&self) -> WireStats {
        lock(&self.router).wire.clone()
    }
}

impl fmt::Debug for InMemoryNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = lock(&self.router);
        f.debug_struct("InMemoryNetwork")
            .field("nodes", &r.inboxes.len())
            .field("partitions", &r.partitions.len())
            .field("delivered", &r.delivered)
            .field("dropped", &r.dropped)
            .finish()
    }
}

/// One node's attachment to an [`InMemoryNetwork`].
pub struct Endpoint {
    id: NodeId,
    router: Arc<Mutex<Router>>,
    rx: Receiver<NetEvent>,
}

impl Endpoint {
    /// This endpoint's address.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Sends `bytes` to `to`.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownNode`] if `to` was never registered. A
    /// partition does **not** error: the message is silently dropped,
    /// as on a real network.
    pub fn send(&self, to: NodeId, bytes: Bytes) -> Result<(), NetError> {
        let mut r = lock(&self.router);
        if r.partitions.contains(&pair(self.id, to)) {
            r.dropped += 1;
            return Ok(());
        }
        let tx = r.inboxes.get(&to).ok_or(NetError::UnknownNode(to))?;
        let frame = bytes.clone();
        let event = NetEvent::Frame {
            from: self.id,
            bytes,
        };
        match tx.send(event) {
            Ok(()) => {
                r.delivered += 1;
                r.wire.record(&frame);
                Ok(())
            }
            // Receiver dropped: behaves like a dead host, i.e. loss.
            Err(_) => {
                r.dropped += 1;
                Ok(())
            }
        }
    }

    /// Blocks up to `timeout` for the next message.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] if nothing arrived;
    /// [`NetError::Disconnected`] if this endpoint was replaced by a
    /// re-registration.
    pub fn recv_timeout(&self, timeout: StdDuration) -> Result<(NodeId, Bytes), NetError> {
        Channel::recv_timeout(self, timeout)
    }

    /// Non-blocking receive.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] when the inbox is empty,
    /// [`NetError::Disconnected`] when replaced.
    pub fn try_recv(&self) -> Result<(NodeId, Bytes), NetError> {
        Channel::recv_timeout(self, StdDuration::ZERO)
    }
}

impl Channel for Endpoint {
    fn id(&self) -> NodeId {
        self.id
    }
    fn send(&self, to: NodeId, bytes: Bytes) -> Result<(), NetError> {
        Endpoint::send(self, to, bytes)
    }
    fn recv_event(&self, timeout: Option<StdDuration>) -> Result<NetEvent, NetError> {
        recv_from(&self.rx, timeout)
    }
    /// Goes through the router rather than a `Sender` of its own: an
    /// endpoint that kept its inbox open could never observe
    /// [`NetError::Disconnected`] after being replaced. Once replaced,
    /// the wake lands on the successor, where it is merely spurious.
    fn wake(&self) {
        if let Some(tx) = lock(&self.router).inboxes.get(&self.id) {
            let _ = tx.send(NetEvent::Woken);
        }
    }
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Endpoint")
            .field("id", &self.id)
            .field("pending", &self.rx.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(n: u32) -> NodeId {
        NodeId::Client(ClientId(n))
    }
    fn s(n: u32) -> NodeId {
        NodeId::Server(ServerId(n))
    }
    const TO: StdDuration = StdDuration::from_millis(200);

    #[test]
    fn point_to_point_delivery_with_sender_identity() {
        let net = InMemoryNetwork::new();
        let a = net.endpoint(c(1));
        let b = net.endpoint(s(0));
        a.send(s(0), Bytes::from_static(b"x")).unwrap();
        let (from, bytes) = b.recv_timeout(TO).unwrap();
        assert_eq!(from, c(1));
        assert_eq!(&bytes[..], b"x");
        assert_eq!(net.delivered(), 1);
    }

    #[test]
    fn unknown_destination_errors() {
        let net = InMemoryNetwork::new();
        let a = net.endpoint(c(1));
        assert_eq!(a.send(s(9), Bytes::new()), Err(NetError::UnknownNode(s(9))));
    }

    #[test]
    fn partition_drops_both_directions_silently() {
        let net = InMemoryNetwork::new();
        let a = net.endpoint(c(1));
        let b = net.endpoint(s(0));
        net.partition(c(1), s(0));
        a.send(s(0), Bytes::from_static(b"lost")).unwrap();
        b.send(c(1), Bytes::from_static(b"lost")).unwrap();
        assert_eq!(b.try_recv(), Err(NetError::Timeout));
        assert_eq!(a.try_recv(), Err(NetError::Timeout));
        assert_eq!(net.dropped(), 2);

        net.heal(c(1), s(0));
        a.send(s(0), Bytes::from_static(b"ok")).unwrap();
        assert_eq!(&b.recv_timeout(TO).unwrap().1[..], b"ok");
    }

    #[test]
    fn partition_is_pairwise_not_global() {
        let net = InMemoryNetwork::new();
        let a = net.endpoint(c(1));
        let _b = net.endpoint(c(2));
        let srv = net.endpoint(s(0));
        net.partition(c(1), s(0));
        let b = net.endpoint(c(2)); // re-register fine
        b.send(s(0), Bytes::from_static(b"b")).unwrap();
        a.send(s(0), Bytes::from_static(b"a")).unwrap();
        let (from, _) = srv.recv_timeout(TO).unwrap();
        assert_eq!(from, c(2), "only the partitioned pair is cut");
        assert_eq!(srv.try_recv(), Err(NetError::Timeout));
    }

    #[test]
    fn reregistration_replaces_inbox() {
        let net = InMemoryNetwork::new();
        let old = net.endpoint(s(0));
        let newer = net.endpoint(s(0)); // crash + restart
        let a = net.endpoint(c(1));
        a.send(s(0), Bytes::from_static(b"post-restart")).unwrap();
        assert!(newer.recv_timeout(TO).is_ok());
        assert_eq!(old.recv_timeout(TO), Err(NetError::Disconnected));
    }

    #[test]
    fn wake_unblocks_a_receive_without_holding_the_inbox_open() {
        let net = InMemoryNetwork::new();
        let old = Arc::new(net.endpoint(s(0)));
        let waiter = {
            let old = Arc::clone(&old);
            std::thread::spawn(move || old.recv_event(None))
        };
        old.wake();
        assert_eq!(waiter.join().unwrap(), Ok(NetEvent::Woken));

        let newer = net.endpoint(s(0));
        old.wake(); // lands on the successor, where it is spurious
        assert_eq!(old.recv_event(None), Err(NetError::Disconnected));
        assert_eq!(newer.recv_event(Some(TO)), Ok(NetEvent::Woken));
    }

    #[test]
    fn recv_timeout_times_out() {
        let net = InMemoryNetwork::new();
        let a = net.endpoint(c(1));
        assert_eq!(
            a.recv_timeout(StdDuration::from_millis(30)),
            Err(NetError::Timeout)
        );
    }

    #[test]
    fn wire_stats_account_delivered_frames_by_tag() {
        let net = InMemoryNetwork::new();
        let a = net.endpoint(c(1));
        let b = net.endpoint(s(0));
        a.send(s(0), Bytes::from_static(&[0x01, 9, 9])).unwrap();
        a.send(s(0), Bytes::from_static(&[0x01])).unwrap();
        b.send(c(1), Bytes::from_static(&[0x83, 0])).unwrap();
        net.partition(c(1), s(0));
        a.send(s(0), Bytes::from_static(&[0x01])).unwrap(); // dropped, not counted
        let w = net.wire_stats();
        assert_eq!(w.for_tag(0x01).frames, 2);
        assert_eq!(w.for_tag(0x01).bytes, 4);
        assert_eq!(w.for_tag(0x83).frames, 1);
        assert_eq!(w.total_frames(), 3);
    }

    #[test]
    fn send_to_dead_endpoint_counts_as_drop() {
        let net = InMemoryNetwork::new();
        let a = net.endpoint(c(1));
        {
            let _dead = net.endpoint(s(0));
        } // receiver dropped
        a.send(s(0), Bytes::from_static(b"x")).unwrap();
        assert_eq!(net.dropped(), 1);
    }
}
