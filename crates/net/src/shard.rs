//! The sharded readiness core: N reactor threads, one port, one stream.
//!
//! [`crate::poll`] multiplexes everything through a single epoll loop —
//! enough for 10k connections, but one thread is a hard ceiling on
//! cores. [`ShardedNode`] lifts it: it binds N listening sockets to the
//! *same* address with `SO_REUSEPORT` ([`vl_epoll::bind_reuseport`])
//! and gives each to its own [`Reactor`]. The **kernel** then shards
//! accepted connections across the listeners by a hash of the
//! connection 4-tuple, so:
//!
//! * each accepted fd lands on exactly one reactor and never migrates —
//!   read, decode, write, keepalive, and teardown for that connection
//!   all happen on the thread that accepted it
//!   (`tests/shard_core.rs` pins this);
//! * there is no shared accept queue and no user-space dispatcher to
//!   become the new bottleneck.
//!
//! Above the reactors sits **one** logical node with one consumer:
//! shard 0's loop. The other shards hand it their decoded frames and
//! link events, one command each, and it delivers them — to the hosted
//! handler ([`Channel::host`]: the sans-io `ServerMachine` driver runs
//! right there) or to the inbox behind [`Channel::recv_event`] —
//! exactly as it delivers its own, so any N is one code path.
//! Connections are hashed to shards by 4-tuple, not by the volumes
//! their clients read, so a machine per shard would split every
//! volume's lease state; a reactor owning whole volumes is DESIGN.md
//! §12's next step. Outbound frames are routed to the shard that owns
//! the destination's connection by probing each shard's peer table (N
//! is small; the probe is N short mutex reads) — shard 0's own peers
//! without leaving its thread, the others' as a command to their loop.
//!
//! A peer that reconnects may be hashed to a *different* shard — the
//! 4-tuple changes with the client's ephemeral port. Frames still
//! queued on the old shard stay there (bounded by `queue_cap`) and are
//! simply lost, which the lease protocol tolerates by design: a
//! dropped connection demotes the client toward the Unreachable set
//! and the reconnection handshake re-syncs it. Within one connection
//! the stream is ordered (`Up`, its frames, `Down`); the `Down` from
//! the old shard and the `Up` from the new one come from two threads
//! and may land in either order.

use crate::poll::{route, LoopStats, PollConfig, PollNode, Reactor, ACCEPT_BACKLOG};
use crate::wire::WireStats;
use crate::{Channel, Handler, NetError, NetEvent, NodeId};
use bytes::Bytes;
use std::io;
use std::net::{SocketAddr, SocketAddrV4, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration as StdDuration;

/// One reactor's slice of a [`ShardedNode`]'s transport accounting.
#[derive(Clone, Debug)]
pub struct ShardStats {
    /// Per-tag delivery counts and per-peer queue counters for the
    /// peers this shard owns.
    pub wire: WireStats,
    /// The shard's event-loop counters (wakeups, accepts, frames).
    pub loop_stats: LoopStats,
    /// Peers with a live connection on this shard right now.
    pub connected: usize,
}

/// A listening endpoint sharded across N reactor threads via
/// `SO_REUSEPORT`. One [`Channel`] to the application; N epoll loops
/// underneath, each owning its accepted fds end-to-end.
///
/// Requires Linux (the reuseport bind is a raw syscall); constructors
/// fail with [`io::ErrorKind::Unsupported`] elsewhere, like the rest
/// of the readiness stack.
pub struct ShardedNode {
    id: NodeId,
    local_addr: SocketAddr,
    /// One attached node per reactor, each keeping its loop alive.
    /// Shard 0 consumes the stream; the rest forward their events to
    /// its loop.
    shards: Vec<PollNode>,
}

impl std::fmt::Debug for ShardedNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedNode")
            .field("id", &self.id)
            .field("addr", &self.local_addr)
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl ShardedNode {
    /// Binds `reactors` listening sockets to `addr` (port 0 picks a
    /// free port, which every subsequent member then shares) and
    /// spawns one reactor thread per socket. Only IPv4 addresses are
    /// supported — the live stack binds loopback or interface v4
    /// addresses.
    ///
    /// # Errors
    ///
    /// Propagates bind/epoll setup failures; `Unsupported` off Linux.
    pub fn listen(id: NodeId, addr: &str, reactors: usize, cfg: PollConfig) -> io::Result<Self> {
        let reactors = reactors.max(1);
        let v4 = addr
            .to_socket_addrs()?
            .find_map(|a| match a {
                SocketAddr::V4(v4) => Some(v4),
                SocketAddr::V6(_) => None,
            })
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "sharded listen needs an IPv4 address",
                )
            })?;

        // The first member may bind port 0; everyone after binds the
        // concrete port the kernel picked for it.
        let first = vl_epoll::bind_reuseport(v4, ACCEPT_BACKLOG)?;
        let local_addr = first.local_addr()?;
        let concrete = SocketAddrV4::new(*v4.ip(), local_addr.port());
        let mut listeners = vec![first];
        for _ in 1..reactors {
            listeners.push(vl_epoll::bind_reuseport(concrete, ACCEPT_BACKLOG)?);
        }

        let mut shards: Vec<PollNode> = Vec::with_capacity(reactors);
        for listener in listeners {
            let first = shards.first().map(|s| s.at.clone());
            shards.push(Reactor::spawn(cfg.clone())?.listen_on(id, listener, first)?);
        }
        Ok(ShardedNode {
            id,
            local_addr,
            shards,
        })
    }

    /// The shared bound address (all shards listen on it).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Number of reactor shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard currently holding `peer`'s live connection, if any.
    /// A connection never migrates while it lives; a *re*connection
    /// may hash to a different shard.
    pub fn shard_of(&self, peer: NodeId) -> Option<usize> {
        self.shards.iter().position(|s| s.is_connected(peer))
    }

    /// Per-shard snapshots: wire accounting, loop counters, and live
    /// connection count, indexed by shard.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| ShardStats {
                wire: s.wire_stats(),
                loop_stats: s.loop_stats(),
                connected: s.connected_peers().len(),
            })
            .collect()
    }

    /// Loop counters summed across every shard.
    pub fn loop_stats_total(&self) -> LoopStats {
        let mut total = LoopStats::default();
        for s in &self.shards {
            let l = s.loop_stats();
            total.wakeups += l.wakeups;
            total.timer_wakeups += l.timer_wakeups;
            total.io_events += l.io_events;
            total.commands += l.commands;
            total.accepts += l.accepts;
            total.frames_in += l.frames_in;
            total.frames_out += l.frames_out;
        }
        total
    }
}

impl Channel for ShardedNode {
    fn id(&self) -> NodeId {
        self.id
    }

    /// One probe of each shard's peer table: to the shard holding
    /// `to`'s live connection, else the first that knows it at all.
    fn send(&self, to: NodeId, bytes: Bytes) -> Result<(), NetError> {
        match route(self.shards.iter().map(|s| s.at.peer_state(to))) {
            Some(i) => self.shards[i].at.post_send(to, bytes),
            None => Err(NetError::UnknownNode(to)),
        }
    }

    fn recv_event(&self, timeout: Option<StdDuration>) -> Result<NetEvent, NetError> {
        self.shards[0].recv_event(timeout)
    }

    fn wake(&self) {
        self.shards[0].wake();
    }

    /// The handler lives on shard 0's loop, where the other shards'
    /// events already arrive, one command each; shard 0 routes the
    /// replies for their peers back as sends. With one shard that is
    /// exactly [`PollNode`]'s hosting.
    fn host(self: Arc<Self>, handler: Box<dyn Handler>) {
        let (first, rest) = self.shards.split_first().expect("at least one shard");
        first.host_with(handler, rest.iter().map(|s| s.at.clone()).collect());
    }

    fn wire_stats(&self) -> Option<WireStats> {
        let mut merged = WireStats::new();
        for s in &self.shards {
            merged.merge(&s.wire_stats());
        }
        Some(merged)
    }

    fn shard_stats(&self) -> Option<Vec<ShardStats>> {
        Some(ShardedNode::shard_stats(self))
    }
}
