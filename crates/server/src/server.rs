//! The server event loop — a thin I/O driver around the sans-io
//! [`ServerMachine`].
//!
//! All protocol state transitions (Figure 3, reconnection, epoch
//! recovery, delayed invalidations) live in `vl_core::machine`; this
//! module only moves bytes: it decodes frames from the endpoint, feeds
//! them to the machine with the current wall-clock time, and executes
//! the returned [`ServerAction`]s — encoding replies, persisting the
//! stable record, and completing writer rendezvous.
//!
//! The driver is a [`Handler`] with no tick: it takes the endpoint's
//! event stream (frames and link state, in order) and otherwise wants
//! to run only at the machine's earliest [`ServerAction::SetTimer`]
//! deadline. An endpoint with a thread of its own ([`Channel::host`])
//! runs it there, on the thread that read the frame — decoding the
//! frame from the read buffer and encoding each reply into whatever
//! buffer its [`Outbox`] offers; any other gets a small pump thread
//! blocked in its receive. The clock is read once per event.
//! [`ServerHandle`] commands queue beside the stream and arrive through
//! [`Channel::wake`].

use crate::stable::StableRecord;
use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use std::collections::VecDeque;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant};
use vl_core::machine::{
    events, MachineConfig, ServerAction, ServerInput, ServerMachine, StableState, TimerKind,
};
use vl_metrics::trace::{Event as TraceEvent, EventKind};
use vl_metrics::TraceSink;
use vl_net::{Channel, Handler, NetError, NetEvent, NodeId, Outbox};
use vl_proto::codec;
use vl_types::{
    ClientId, Clock, Duration, ObjectId, ServerId, ShardMap, Timestamp, Version, VolumeId,
};

pub use vl_core::machine::{ServerStats, WriteMode, WriteOutcome};

/// Server configuration. All durations are wall-clock.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// This server's identity.
    pub server: ServerId,
    /// The home volume, hosted from boot; others arrive by handoff.
    pub volume: VolumeId,
    /// Object lease length `t` (long).
    pub object_lease: StdDuration,
    /// Volume lease length `t_v` (short).
    pub volume_lease: StdDuration,
    /// The delayed-invalidation discard parameter `d`
    /// (`None` = keep pending queues forever, the paper's `∞`).
    pub inactive_discard: Option<StdDuration>,
    /// Blocking (paper) or best-effort writes.
    pub write_mode: WriteMode,
    /// Stable-storage path for crash recovery; `None` disables
    /// persistence (a restart then behaves like a first boot).
    pub stable_path: Option<PathBuf>,
    /// `Some(ε)` runs self-invalidation with precise clocks: grants
    /// carry drop-deadlines, writes send no invalidations and wait out
    /// the latest deadline padded by the skew bound `ε`. `None` (the
    /// default) keeps the paper's volume-lease protocol.
    pub self_inval: Option<StdDuration>,
}

impl ServerConfig {
    /// Defaults suitable for tests: `t` = 60 s, `t_v` = 2 s, `d` = ∞,
    /// blocking writes, no stable storage, volume id = server id.
    pub fn new(server: ServerId) -> ServerConfig {
        ServerConfig {
            server,
            volume: VolumeId(server.raw()),
            object_lease: StdDuration::from_secs(60),
            volume_lease: StdDuration::from_secs(2),
            inactive_discard: None,
            write_mode: WriteMode::Blocking,
            stable_path: None,
            self_inval: None,
        }
    }

    /// The pure-protocol view of this configuration, with all spans
    /// converted to protocol [`Duration`]s.
    pub fn machine_config(&self) -> MachineConfig {
        MachineConfig {
            server: self.server,
            volume: self.volume,
            object_lease: Duration::from_std(self.object_lease),
            volume_lease: Duration::from_std(self.volume_lease),
            inactive_discard: self.inactive_discard.map(Duration::from_std),
            write_mode: self.write_mode,
            self_inval: self.self_inval.map(Duration::from_std),
        }
    }
}

enum Command {
    CreateObject {
        object: ObjectId,
        data: Bytes,
        reply: Sender<()>,
    },
    Write {
        object: ObjectId,
        data: Bytes,
        reply: Sender<WriteOutcome>,
    },
    Stats {
        reply: Sender<ServerStats>,
    },
    /// Adopt a (newer) shard map for `WRONG_SHARD` redirects.
    SetShardMap {
        map: ShardMap,
        reply: Sender<()>,
    },
    /// Abrupt stop: volatile state is lost (only stable storage
    /// survives), as in a real crash.
    Crash,
    /// Graceful stop.
    Shutdown,
}

/// Spawns [`ServerHandle`]s. See the crate docs for the protocol.
#[derive(Debug)]
pub struct LeaseServer;

impl LeaseServer {
    /// Starts the server driver on the endpoint's own thread when it
    /// has one, else on a thread of its own, reading time from any
    /// [`Clock`] (the live [`WallClock`](crate::WallClock), or a test
    /// clock).
    ///
    /// If `config.stable_path` holds a pre-crash [`StableRecord`], the
    /// epoch is bumped and writes are delayed until every pre-crash
    /// volume lease has expired (§3.1.2).
    pub fn spawn(
        config: ServerConfig,
        endpoint: impl Channel + 'static,
        clock: impl Clock + Send + 'static,
    ) -> ServerHandle {
        LeaseServer::spawn_inner(config, endpoint, clock, None)
    }

    /// Like [`spawn`](LeaseServer::spawn), but records every applied
    /// machine action as structured trace events into `sink` (see
    /// `vl_core::machine::events`). The sink is flushed when the server
    /// stops.
    pub fn spawn_traced(
        config: ServerConfig,
        endpoint: impl Channel + 'static,
        clock: impl Clock + Send + 'static,
        sink: Box<dyn TraceSink>,
    ) -> ServerHandle {
        LeaseServer::spawn_inner(config, endpoint, clock, Some(sink))
    }

    fn spawn_inner(
        config: ServerConfig,
        endpoint: impl Channel + 'static,
        clock: impl Clock + Send + 'static,
        sink: Option<Box<dyn TraceSink>>,
    ) -> ServerHandle {
        let endpoint: Arc<dyn Channel> = Arc::new(endpoint);
        let (cmd, cmds) = unbounded();
        let (alive, stopped) = bounded(0);
        let name = format!("vl-server-{}", config.server);
        let driver = Driver::new(config, Arc::clone(&endpoint), clock, cmds, sink, alive);
        let thread = endpoint.host(Box::new(driver)).err().map(|driver| {
            let endpoint = Arc::clone(&endpoint);
            std::thread::Builder::new()
                .name(name)
                .spawn(move || pump(driver, &*endpoint))
                .expect("spawn server thread")
        });
        ServerHandle {
            cmd,
            endpoint,
            stopped,
            thread,
        }
    }
}

/// Runs `driver` over an endpoint that cannot host it: one blocking
/// receive per event, bounded by the driver's own deadline.
fn pump(mut driver: Box<dyn Handler>, mut endpoint: &dyn Channel) {
    loop {
        let timeout = driver
            .next_deadline()
            .map(|at| at.saturating_duration_since(Instant::now()));
        let event = match endpoint.recv_event(timeout) {
            Ok(event) => event,
            Err(NetError::Timeout) => NetEvent::Woken,
            // The endpoint is gone (replaced or network dropped).
            Err(_) => return,
        };
        if !driver.on_event(event, &mut endpoint) {
            return;
        }
    }
}

/// Control handle to a running server.
pub struct ServerHandle {
    cmd: Sender<Command>,
    /// The driver's endpoint, to wake it when a command is queued.
    endpoint: Arc<dyn Channel>,
    /// Disconnects when the driver is dropped, wherever it ran.
    stopped: Receiver<()>,
    /// The pump thread, when the endpoint did not host the driver.
    thread: Option<JoinHandle<()>>,
}

impl fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerHandle")
            .field("endpoint", &self.endpoint.id())
            .finish()
    }
}

impl ServerHandle {
    /// Queues `cmd` and has the driver's host run it.
    fn submit(&self, cmd: Command) {
        self.cmd.send(cmd).expect("server loop alive");
        self.endpoint.wake();
    }

    /// Stops the driver with `cmd` and waits until it is dropped, its
    /// trace flushed (it may already be gone, e.g. its endpoint was
    /// replaced).
    fn stop(self, cmd: Command) {
        let _ = self.cmd.send(cmd);
        self.endpoint.wake();
        let _ = self.stopped.recv();
        if let Some(thread) = self.thread {
            let _ = thread.join();
        }
    }

    /// Creates an object with initial `data` at version 1. An object
    /// that already exists is left untouched; change it with
    /// [`write`](ServerHandle::write).
    pub fn create_object(&self, object: ObjectId, data: Bytes) {
        let (reply, done) = bounded(1);
        self.submit(Command::CreateObject {
            object,
            data,
            reply,
        });
        done.recv().expect("server loop alive");
    }

    /// Writes `data` to `object`, blocking per the configured
    /// [`WriteMode`] (never longer than `min(t, t_v)` plus recovery
    /// delay).
    pub fn write(&self, object: ObjectId, data: Bytes) -> WriteOutcome {
        let (reply, done) = bounded(1);
        self.submit(Command::Write {
            object,
            data,
            reply,
        });
        done.recv().expect("server loop alive")
    }

    /// Hands the server a shard map to redirect by. Maps older than the
    /// one it already holds are ignored (the machine keeps the newest).
    pub fn set_shard_map(&self, map: ShardMap) {
        let (reply, done) = bounded(1);
        self.submit(Command::SetShardMap { map, reply });
        done.recv().expect("server loop alive");
    }

    /// Snapshot of server statistics.
    pub fn stats(&self) -> ServerStats {
        let (reply, done) = bounded(1);
        self.submit(Command::Stats { reply });
        done.recv().expect("server loop alive")
    }

    /// Simulates a crash: the loop exits immediately and all volatile
    /// lease state is lost. Only the stable record survives.
    pub fn crash(self) {
        self.stop(Command::Crash);
    }

    /// Graceful shutdown.
    pub fn shutdown(self) {
        self.stop(Command::Shutdown);
    }
}

/// The I/O shell: owns the clock, the stable file, and the writer
/// rendezvous channels; its host owns the receive and the sends. Every
/// protocol decision is delegated to the [`ServerMachine`].
struct Driver<C: Clock> {
    machine: ServerMachine,
    /// For the transport's own counters when tracing; events and
    /// sends come through the [`Handler`] calls.
    endpoint: Arc<dyn Channel>,
    clock: C,
    /// [`ServerHandle`] commands; each arrives with a
    /// [`NetEvent::Woken`] on the endpoint's stream.
    cmds: Receiver<Command>,
    stable_path: Option<PathBuf>,
    /// Writers awaiting completion and the object each wrote, oldest
    /// first. A [`ServerAction::CompleteWrite`] names its object and is
    /// for the oldest writer of it: a volume commits in enqueue order,
    /// and volumes do not wait for each other.
    write_replies: VecDeque<(ObjectId, Sender<WriteOutcome>)>,
    /// The machine's actions for the input being applied; drained and
    /// reused, so a renewal allocates nothing here.
    actions: Vec<ServerAction>,
    /// Pending machine deadlines, one slot per [`TimerKind`]. A slot is
    /// cleared only once its instant has passed; the machine re-arms
    /// whenever a deadline moves.
    timers: [Option<Timestamp>; 2],
    /// Next wire-stats sample, when tracing (protocol time).
    next_stats: Timestamp,
    /// Identity carried alongside the machine for event labelling.
    server: ServerId,
    /// Optional structured-event trace of every applied action.
    sink: Option<Box<dyn TraceSink>>,
    /// Dropped with the driver, after the flush: `stop` waits on it.
    _alive: Sender<()>,
}

impl<C: Clock> Driver<C> {
    fn new(
        cfg: ServerConfig,
        endpoint: Arc<dyn Channel>,
        clock: C,
        cmds: Receiver<Command>,
        sink: Option<Box<dyn TraceSink>>,
        alive: Sender<()>,
    ) -> Driver<C> {
        let recovered = match &cfg.stable_path {
            None => None,
            Some(path) => match StableRecord::load(path) {
                Ok(Some(rec)) => Some(StableState {
                    epoch: rec.epoch,
                    max_volume_expiry: rec.max_volume_expiry,
                }),
                Ok(None) => None,
                Err(e) => panic!("unreadable stable record at {}: {e}", path.display()),
            },
        };
        let (machine, boot) = ServerMachine::new(cfg.machine_config(), recovered);
        let mut driver = Driver {
            machine,
            endpoint,
            clock,
            cmds,
            stable_path: cfg.stable_path,
            write_replies: VecDeque::new(),
            actions: boot,
            timers: [None; 2],
            next_stats: Timestamp::ZERO,
            server: cfg.server,
            sink,
            _alive: alive,
        };
        // The recovery record must hit disk before we serve anything.
        let now = driver.clock.now();
        let endpoint = Arc::clone(&driver.endpoint);
        driver.apply(now, &mut &*endpoint);
        driver
    }

    /// Executes one handle command; `false` stops the driver.
    fn command(&mut self, now: Timestamp, cmd: Command, out: &mut dyn Outbox) -> bool {
        match cmd {
            Command::CreateObject {
                object,
                data,
                reply,
            } => {
                let version = Version::FIRST;
                let input = ServerInput::CreateObject {
                    object,
                    data,
                    version,
                };
                self.step(now, input, out);
                let _ = reply.send(());
            }
            Command::Write {
                object,
                data,
                reply,
            } => {
                self.write_replies.push_back((object, reply));
                self.step(now, ServerInput::Write { object, data }, out);
            }
            Command::Stats { reply } => {
                let _ = reply.send(self.machine.stats());
            }
            Command::SetShardMap { map, reply } => {
                self.step(now, ServerInput::SetShardMap { map }, out);
                let _ = reply.send(());
            }
            Command::Crash | Command::Shutdown => return false,
        }
        true
    }

    /// Ticks the machine if any armed deadline has passed. Slots clear
    /// only once due — a deadline that merely moved later was already
    /// re-armed by the corresponding [`ServerAction::SetTimer`].
    fn fire_timers(&mut self, now: Timestamp, out: &mut dyn Outbox) {
        let mut due = false;
        for slot in self.timers.iter_mut() {
            if slot.is_some_and(|at| at <= now) {
                *slot = None;
                due = true;
            }
        }
        if due {
            self.step(now, ServerInput::Tick, out);
        }
    }

    /// When tracing, samples the transport's per-peer send-queue
    /// accounting about once a second as `send_queue` / `queue_drop`
    /// events, so `vl report` can show live backpressure. On a sharded
    /// transport (`--reactors N`) every event carries its reactor's
    /// shard index, and one `shard_sample` event per shard records
    /// frame throughput and live connection count — the shard is a
    /// reporting dimension only, so totals match an unsharded run.
    fn sample_wire_stats(&mut self, now: Timestamp) {
        if self.sink.is_none() || now < self.next_stats {
            return;
        }
        self.next_stats = now.saturating_add(Duration::from_secs(1));
        let shards = self.endpoint.shard_stats().filter(|s| s.len() > 1);
        let sink = self.sink.as_mut().expect("checked above");
        let queue_events = |sink: &mut Box<dyn TraceSink>,
                            shard: Option<u32>,
                            wire: &vl_net::WireStats,
                            server: ServerId| {
            for (peer, q) in wire.queues() {
                let NodeId::Client(client) = peer else {
                    continue;
                };
                sink.record(&TraceEvent {
                    shard,
                    value: q.depth,
                    extra: q.peak_depth,
                    ..TraceEvent::new(now, EventKind::SendQueue, server, client)
                });
                if q.dropped_overflow > 0 || q.backpressure > 0 {
                    sink.record(&TraceEvent {
                        shard,
                        value: q.dropped_overflow,
                        extra: q.backpressure,
                        ..TraceEvent::new(now, EventKind::QueueDrop, server, client)
                    });
                }
            }
        };
        if let Some(shards) = shards {
            for (i, s) in shards.iter().enumerate() {
                let shard = Some(i as u32);
                queue_events(sink, shard, &s.wire, self.server);
                sink.record(&TraceEvent {
                    shard,
                    value: s.loop_stats.frames_in,
                    extra: s.connected as u64,
                    ..TraceEvent::new(now, EventKind::ShardSample, self.server, ClientId(0))
                });
            }
        } else if let Some(wire) = self.endpoint.wire_stats() {
            queue_events(sink, None, &wire, self.server);
        }
        // A long-lived `vl serve` is usually killed, not shut down, so
        // riding the once-a-second cadence is the only flush its JSONL
        // trace ever gets.
        sink.flush();
    }

    /// Feeds one input to the machine at `now` and executes the
    /// resulting actions. `now` is the event's one clock reading, so a
    /// little old by the time it is used: the machine then believes
    /// less time has passed than has, which grants a lease that ends
    /// sooner and waits a write out longer — never the reverse.
    fn step(&mut self, now: Timestamp, input: ServerInput, out: &mut dyn Outbox) {
        self.machine.handle_into(now, input, &mut self.actions);
        self.apply(now, out);
    }

    /// A decoded frame is one machine input; a corrupt one is dropped,
    /// as UDP would. Peer traffic is another server or the rebalance
    /// coordinator driving the volume-handoff exchange.
    fn frame(&mut self, now: Timestamp, from: NodeId, frame: &[u8], out: &mut dyn Outbox) {
        let input = match from {
            NodeId::Client(from) => {
                (codec::decode_client(frame).ok()).map(|msg| ServerInput::Msg { from, msg })
            }
            NodeId::Server(from) => {
                (codec::decode_peer(frame).ok()).map(|msg| ServerInput::Peer { from, msg })
            }
        };
        if let Some(input) = input {
            self.step(now, input, out);
        }
    }

    /// What every event ends with: due timers, and the trace's sample.
    fn settle(&mut self, now: Timestamp, out: &mut dyn Outbox) {
        self.fire_timers(now, out);
        self.sample_wire_stats(now);
    }

    /// Executes and drains `self.actions`.
    fn apply(&mut self, now: Timestamp, out: &mut dyn Outbox) {
        let mut actions = std::mem::take(&mut self.actions);
        for action in actions.drain(..) {
            if let Some(sink) = &mut self.sink {
                for ev in events::server_action_events(now, &self.machine, &action) {
                    sink.record(&ev);
                }
            }
            match action {
                ServerAction::Send { to, msg } => {
                    let to = NodeId::Client(to);
                    let _ = out.send_with(to, &mut |b| codec::encode_server_into(&msg, b));
                }
                ServerAction::SendPeer { to, msg } => {
                    let to = NodeId::Server(to);
                    let _ = out.send_with(to, &mut |b| codec::encode_peer_into(&msg, b));
                }
                ServerAction::SetTimer { kind, at } => {
                    let idx = match kind {
                        TimerKind::WriteWait => 0,
                        TimerKind::Demotion => 1,
                    };
                    self.timers[idx] = Some(at);
                }
                ServerAction::Persist { state } => {
                    if let Some(path) = &self.stable_path {
                        let _ = StableRecord {
                            epoch: state.epoch,
                            max_volume_expiry: state.max_volume_expiry,
                        }
                        .store(path);
                    }
                }
                ServerAction::CompleteWrite { outcome } => {
                    let mut waiting = self.write_replies.iter();
                    let oldest = waiting.position(|&(object, _)| object == outcome.object);
                    if let Some((_, reply)) = oldest.and_then(|i| self.write_replies.remove(i)) {
                        let _ = reply.send(outcome);
                    }
                }
            }
        }
        self.actions = actions;
    }
}

impl<C: Clock + Send> Handler for Driver<C> {
    fn on_event(&mut self, event: NetEvent, out: &mut dyn Outbox) -> bool {
        let now = self.clock.now();
        match event {
            NetEvent::Frame { from, bytes } => self.frame(now, from, &bytes, out),
            // Transport-level connection loss: demote that client to
            // the unreachable set so the next handshake is a full
            // MUST_RENEW_ALL reconnect (leases themselves are
            // untouched).
            NetEvent::Down(NodeId::Client(client)) => {
                self.step(now, ServerInput::PeerDisconnected { client }, out);
            }
            NetEvent::Up(_) | NetEvent::Down(_) => {}
            // A handle command, or the deadline below.
            NetEvent::Woken => {
                while let Ok(cmd) = self.cmds.try_recv() {
                    if !self.command(now, cmd, out) {
                        return false;
                    }
                }
            }
        }
        self.settle(now, out);
        true
    }

    fn on_frame(&mut self, from: NodeId, frame: &[u8], out: &mut dyn Outbox) -> bool {
        let now = self.clock.now();
        self.frame(now, from, frame, out);
        self.settle(now, out);
        true
    }

    /// The earliest armed machine deadline or, when tracing, the next
    /// stats sample; none with neither.
    fn next_deadline(&self) -> Option<Instant> {
        let sample = self.sink.is_some().then_some(self.next_stats);
        let next = self.timers.iter().flatten().copied().chain(sample).min()?;
        let left = next.saturating_sub(self.clock.now()).as_millis();
        Some(Instant::now() + StdDuration::from_millis(left))
    }
}

impl<C: Clock> Drop for Driver<C> {
    fn drop(&mut self) {
        if let Some(sink) = &mut self.sink {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::WallClock;
    use vl_net::InMemoryNetwork;
    use vl_proto::{ClientMsg, ServerMsg};
    use vl_types::{ClientId, Epoch};

    #[test]
    fn config_defaults_are_sane() {
        let cfg = ServerConfig::new(ServerId(3));
        assert_eq!(cfg.volume, VolumeId(3));
        assert!(cfg.volume_lease < cfg.object_lease);
        assert_eq!(cfg.write_mode, WriteMode::Blocking);
        assert!(cfg.stable_path.is_none());
        let m = cfg.machine_config();
        assert_eq!(m.object_lease, Duration::from_secs(60));
        assert_eq!(m.inactive_discard, None);
    }

    #[test]
    fn write_without_holders_is_instant() {
        let net = InMemoryNetwork::new();
        let clock = WallClock::new();
        let srv = LeaseServer::spawn(
            ServerConfig::new(ServerId(0)),
            net.endpoint(NodeId::Server(ServerId(0))),
            clock,
        );
        srv.create_object(ObjectId(1), Bytes::from_static(b"a"));
        let out = srv.write(ObjectId(1), Bytes::from_static(b"b"));
        assert_eq!(out.invalidations_sent, 0);
        assert_eq!(out.queued, 0);
        assert_eq!(out.version, Version(2));
        assert!(out.delay < Duration::from_millis(200), "{:?}", out.delay);
        let stats = srv.stats();
        assert_eq!(stats.writes, 1);
        srv.shutdown();
    }

    #[test]
    fn writing_unknown_object_creates_it() {
        let net = InMemoryNetwork::new();
        let srv = LeaseServer::spawn(
            ServerConfig::new(ServerId(0)),
            net.endpoint(NodeId::Server(ServerId(0))),
            WallClock::new(),
        );
        let out = srv.write(ObjectId(9), Bytes::from_static(b"new"));
        assert_eq!(out.version, Version::FIRST);
        srv.shutdown();
    }

    #[test]
    fn object_lease_request_roundtrip_raw() {
        // Drive the server with raw protocol frames (no client library).
        let net = InMemoryNetwork::new();
        let clock = WallClock::new();
        let srv = LeaseServer::spawn(
            ServerConfig::new(ServerId(0)),
            net.endpoint(NodeId::Server(ServerId(0))),
            clock,
        );
        srv.create_object(ObjectId(1), Bytes::from_static(b"payload"));
        let me = net.endpoint(NodeId::Client(ClientId(7)));
        me.send(
            NodeId::Server(ServerId(0)),
            codec::encode_client(&ClientMsg::ReqObjLease {
                object: ObjectId(1),
                version: Version::NONE,
            }),
        )
        .unwrap();
        let (_, bytes) = me.recv_timeout(StdDuration::from_secs(2)).unwrap();
        match codec::decode_server(&bytes).unwrap() {
            ServerMsg::ObjLease {
                object,
                version,
                expire,
                data,
            } => {
                assert_eq!(object, ObjectId(1));
                assert_eq!(version, Version::FIRST);
                assert!(expire > clock.now());
                assert_eq!(data.as_deref(), Some(b"payload".as_slice()));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Renewal with a current version carries no data.
        me.send(
            NodeId::Server(ServerId(0)),
            codec::encode_client(&ClientMsg::ReqObjLease {
                object: ObjectId(1),
                version: Version::FIRST,
            }),
        )
        .unwrap();
        let (_, bytes) = me.recv_timeout(StdDuration::from_secs(2)).unwrap();
        match codec::decode_server(&bytes).unwrap() {
            ServerMsg::ObjLease { data, .. } => assert!(data.is_none()),
            other => panic!("unexpected {other:?}"),
        }
        srv.shutdown();
    }

    #[test]
    fn stale_epoch_triggers_must_renew_all() {
        let net = InMemoryNetwork::new();
        let srv = LeaseServer::spawn(
            ServerConfig::new(ServerId(0)),
            net.endpoint(NodeId::Server(ServerId(0))),
            WallClock::new(),
        );
        let me = net.endpoint(NodeId::Client(ClientId(1)));
        me.send(
            NodeId::Server(ServerId(0)),
            codec::encode_client(&ClientMsg::ReqVolLease {
                volume: VolumeId(0),
                epoch: Epoch(99), // wrong epoch
            }),
        )
        .unwrap();
        let (_, bytes) = me.recv_timeout(StdDuration::from_secs(2)).unwrap();
        assert!(matches!(
            codec::decode_server(&bytes).unwrap(),
            ServerMsg::MustRenewAll { .. }
        ));
        srv.shutdown();
    }
}
