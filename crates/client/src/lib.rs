//! Client cache speaking the live volume-lease protocol.
//!
//! The protocol logic itself — Figure 4 of the paper: read a cached
//! object only while holding valid leases on **both** the object and
//! the object's volume, renew lapsed leases, answer invalidations with
//! acks, and run the client half of the reconnection protocol — lives in
//! the pure state machine [`vl_core::machine::ClientMachine`], one per
//! volume. [`CacheClient`] is the thin live driver around them: a
//! `vl_net::Handler` its endpoint hosts (on the reactor that reads its
//! frames, over TCP; no thread of its own, no tick), and a condition
//! variable reading threads wait on; it routes wire messages,
//! link-state changes and read requests to the machine of the volume
//! they concern, and executes the actions it returns.
//!
//! If the server cannot be reached, [`CacheClient::read`] fails with
//! [`ReadError::Unavailable`] rather than returning possibly-stale data —
//! the "signal an error" client policy from §2.4; callers that prefer
//! stale-but-fast can fall back to [`CacheClient::read_suspect`].
//!
//! # Examples
//!
//! ```
//! use bytes::Bytes;
//! use vl_client::{CacheClient, ClientConfig};
//! use vl_net::{InMemoryNetwork, NodeId};
//! use vl_server::{LeaseServer, ServerConfig, WallClock};
//! use vl_types::{ClientId, ObjectId, ServerId};
//!
//! let net = InMemoryNetwork::new();
//! let clock = WallClock::new();
//! let server = LeaseServer::spawn(
//!     ServerConfig::new(ServerId(0)),
//!     net.endpoint(NodeId::Server(ServerId(0))),
//!     clock,
//! );
//! server.create_object(ObjectId(1), Bytes::from_static(b"hello"));
//!
//! let client = CacheClient::spawn(
//!     ClientConfig::new(ClientId(1), ServerId(0)),
//!     net.endpoint(NodeId::Client(ClientId(1))),
//!     clock,
//! );
//! assert_eq!(&client.read(ObjectId(1))?[..], b"hello");
//! // The second read is served from cache: both leases are valid.
//! assert_eq!(&client.read(ObjectId(1))?[..], b"hello");
//! assert_eq!(client.stats().local_reads, 1);
//! client.shutdown();
//! server.shutdown();
//! # Ok::<(), vl_client::ReadError>(())
//! ```
//!
//! # Many origins
//!
//! A dedicated mirror reads one volume of one server — [`ClientConfig`]'s
//! `server` and `volume`, what [`CacheClient::read`] uses. The paper's
//! world is a browser-like cache talking to *many* origins (the trace
//! has 1000 servers): [`CacheClient::read_at`] names the object's
//! [`ObjectLocation`], like a URL names a host, and the client keeps an
//! independent volume lease per volume over the one endpoint. That
//! surfaces **failure isolation**: a partition to one origin makes only
//! *its* objects unavailable (their volume lease lapses) while reads
//! against every other origin keep succeeding — the per-volume blast
//! radius the paper's design intends. In a sharded service the location's
//! server is only a hint: a shard map ([`CacheClient::set_shard_map`])
//! or a `WRONG_SHARD` redirect re-aims the volume, and the ordinary
//! `MUST_RENEW_ALL` exchange re-syncs it with its new owner. See
//! `tests/live_multi.rs` in the repository root for a three-origin
//! walkthrough with partitions and live handoffs.
//!
//! # Layering
//!
//! The machine/driver split above is the DESIGN.md §7 rule: the machine
//! is tested exhaustively under the deterministic fault harness, and
//! this driver — which decides *where* a message goes, never what a
//! lease allows — stays small enough to review by hand. When a
//! [`vl_metrics::TraceSink`] is attached ([`CacheClient::spawn_traced`]),
//! the driver maps each executed machine action to a trace event via
//! [`vl_core::machine::events`], labelled with the server it went to.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod routes;

pub use routes::ObjectLocation;
pub use vl_core::machine::ClientStats;

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender};
use routes::Routes;
use std::collections::btree_map::Entry;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration as StdDuration, Instant};
use vl_core::machine::{events, ClientAction, ClientInput};
use vl_metrics::{Event, EventKind, TraceSink};
use vl_net::{Channel, Handler, NetEvent, NodeId, Outbox};
use vl_proto::codec;
use vl_types::{ClientId, Clock, Epoch, ObjectId, ServerId, ShardMap, Version, VolumeId};

/// Client configuration.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// This client's identity.
    pub client: ClientId,
    /// The origin server [`CacheClient::read`] reads from.
    pub server: ServerId,
    /// The volume [`CacheClient::read`] reads (1:1 with the server by
    /// default).
    pub volume: VolumeId,
    /// How long to wait for a response before resending.
    pub request_timeout: StdDuration,
    /// Resend attempts before a read fails with
    /// [`ReadError::Unavailable`].
    pub max_retries: usize,
    /// Run the self-invalidation protocol: no volume lease is needed,
    /// a cached copy is readable until its drop-deadline on this
    /// client's clock, and no invalidations ever arrive. Must match the
    /// server's mode.
    pub self_inval: bool,
}

impl ClientConfig {
    /// Defaults: volume = server id, 300 ms request timeout, 3
    /// retries.
    pub fn new(client: ClientId, server: ServerId) -> ClientConfig {
        ClientConfig {
            client,
            server,
            volume: VolumeId(server.raw()),
            request_timeout: StdDuration::from_millis(300),
            max_retries: 3,
            self_inval: false,
        }
    }

    /// Where [`CacheClient::read`] reads.
    fn home(&self) -> ObjectLocation {
        ObjectLocation {
            server: self.server,
            volume: self.volume,
        }
    }
}

/// Why a read could not be satisfied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadError {
    /// The server did not respond within the retry budget; per §2.4 the
    /// client refuses to return possibly-stale data.
    Unavailable {
        /// The object that could not be validated.
        object: ObjectId,
    },
    /// The client has been shut down.
    Shutdown,
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Unavailable { object } => {
                write!(f, "cannot validate {object}: server unreachable")
            }
            ReadError::Shutdown => f.write_str("client shut down"),
        }
    }
}

impl std::error::Error for ReadError {}

/// What the reading threads and the hosted driver share.
struct Shared {
    cfg: ClientConfig,
    clock: Box<dyn Clock + Send + Sync>,
    /// All protocol state lives in the per-volume machines inside.
    routes: Mutex<Routes>,
    /// Signalled after every frame the machines handled.
    progress: Condvar,
    running: AtomicBool,
    /// Never held while taking `routes`, so either order of the two
    /// locks elsewhere cannot deadlock.
    sink: Option<Mutex<Box<dyn TraceSink>>>,
}

impl Shared {
    fn routes(&self) -> MutexGuard<'_, Routes> {
        self.routes.lock().expect("routes poisoned by a panic")
    }

    fn sink(&self) -> Option<MutexGuard<'_, Box<dyn TraceSink>>> {
        let sink = self.sink.as_ref()?;
        Some(sink.lock().expect("sink poisoned by a panic"))
    }

    /// Records one event about `server` (no-op when untraced).
    fn trace(&self, server: ServerId, kind: EventKind, fill: impl FnOnce(&mut Event)) {
        if let Some(mut sink) = self.sink() {
            let mut event = Event::new(self.clock.now(), kind, server, self.cfg.client);
            fill(&mut event);
            sink.record(&event);
        }
    }

    /// Transmits the messages among a machine's `actions` to `to`.
    fn send(&self, out: &mut dyn Outbox, to: ServerId, actions: Vec<ClientAction>) {
        for action in actions {
            let ClientAction::Send(msg) = &action else {
                continue;
            };
            let _ = out.send_with(NodeId::Server(to), &mut |b| {
                codec::encode_client_into(msg, b)
            });
            if let Some(mut sink) = self.sink() {
                let now = self.clock.now();
                for event in events::client_action_events(now, to, self.cfg.client, &action) {
                    sink.record(&event);
                }
            }
        }
    }

    /// Books a successful read that began at `started`. `local`
    /// distinguishes cache hits from reads that needed a lease-renewal
    /// round-trip; the latter's latency doubles as the renewal RTT
    /// sample.
    fn finish(
        &self,
        routes: &mut Routes,
        started: Instant,
        server: ServerId,
        object: ObjectId,
        local: bool,
    ) {
        let ms = started.elapsed().as_millis() as u64;
        routes.stats.read_time_total_ms += ms;
        routes.stats.read_time_max_ms = routes.stats.read_time_max_ms.max(ms);
        self.trace(server, EventKind::Read, |event| {
            event.object = Some(object);
            event.extra = ms;
        });
        if !local {
            self.trace(server, EventKind::RenewalRtt, |event| {
                event.object = Some(object);
                event.value = ms;
            });
        }
    }
}

/// A live cache client: a driver its endpoint hosts, and the handle
/// application threads read through.
///
/// All protocol state lives in the wrapped per-volume
/// [`ClientMachine`](vl_core::machine::ClientMachine)s; this type only
/// adds the condition variable readers block on, the volume → server
/// routes, and wall-clock timing for the latency statistics.
pub struct CacheClient {
    shared: Arc<Shared>,
    /// Where reading threads send their requests; the driver has its
    /// host's [`Outbox`] instead.
    endpoint: Arc<dyn Channel>,
    /// Disconnects when the driver is dropped, wherever it ran.
    stopped: Receiver<()>,
}

impl fmt::Debug for CacheClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CacheClient")
            .field("client", &self.shared.cfg.client)
            .field("server", &self.shared.cfg.server)
            .field("volumes", &self.shared.routes().volumes.len())
            .finish()
    }
}

impl CacheClient {
    /// Hosts the client's driver on the endpoint ([`Channel::host`]).
    pub fn spawn(
        cfg: ClientConfig,
        endpoint: impl Channel,
        clock: impl Clock + Send + Sync + 'static,
    ) -> CacheClient {
        CacheClient::spawn_inner(cfg, endpoint, clock, None)
    }

    /// Like [`spawn`](CacheClient::spawn), but records wire messages,
    /// completed reads (with observed latency), renewal round-trips and
    /// degraded spells as structured trace events into `sink`, each
    /// labelled with the server it concerned.
    pub fn spawn_traced(
        cfg: ClientConfig,
        endpoint: impl Channel,
        clock: impl Clock + Send + Sync + 'static,
        sink: Box<dyn TraceSink>,
    ) -> CacheClient {
        CacheClient::spawn_inner(cfg, endpoint, clock, Some(sink))
    }

    fn spawn_inner(
        cfg: ClientConfig,
        endpoint: impl Channel,
        clock: impl Clock + Send + Sync + 'static,
        sink: Option<Box<dyn TraceSink>>,
    ) -> CacheClient {
        // The configured volume exists from the start, so the link
        // coming up already fetches its lease.
        let mut routes = Routes::default();
        routes.volume(&cfg, cfg.home());
        let shared = Arc::new(Shared {
            cfg,
            clock: Box::new(clock),
            routes: Mutex::new(routes),
            progress: Condvar::new(),
            running: AtomicBool::new(true),
            sink: sink.map(Mutex::new),
        });
        let endpoint: Arc<dyn Channel> = Arc::new(endpoint);
        let (alive, stopped) = bounded(0);
        let driver = Driver {
            shared: Arc::clone(&shared),
            _alive: alive,
        };
        Arc::clone(&endpoint).host(Box::new(driver));
        CacheClient {
            shared,
            endpoint,
            stopped,
        }
    }

    /// Reads `object` from the configured server and volume; see
    /// [`read_at`](CacheClient::read_at).
    ///
    /// # Errors
    ///
    /// As [`read_at`](CacheClient::read_at).
    pub fn read(&self, object: ObjectId) -> Result<Bytes, ReadError> {
        self.read_at(self.shared.cfg.home(), object)
    }

    /// Reads `object` of the volume at `at` with strong consistency:
    /// returns only data covered by valid object **and** volume leases,
    /// renewing them as needed.
    ///
    /// # Errors
    ///
    /// [`ReadError::Unavailable`] when the volume's server cannot be
    /// reached within the retry budget (reads against other origins are
    /// unaffected); [`ReadError::Shutdown`] after
    /// [`shutdown`](CacheClient::shutdown).
    pub fn read_at(&self, at: ObjectLocation, object: ObjectId) -> Result<Bytes, ReadError> {
        let shared = &*self.shared;
        if !shared.running.load(Ordering::SeqCst) {
            return Err(ReadError::Shutdown);
        }
        let started = Instant::now();
        for attempt in 0..=shared.cfg.max_retries {
            // (Re)issue whatever is still needed: the machine either
            // serves the read locally or says which lease requests to
            // (re)send — the grants are independent (Figure 4). The
            // route is read per attempt, so a redirect between attempts
            // re-aims the retry.
            let (to, requests) = {
                let mut routes = shared.routes();
                if attempt > 0 {
                    routes.stats.retries += 1;
                }
                let vol = routes.volume(&shared.cfg, at);
                let to = vol.server;
                let mut requests = Vec::new();
                for action in vol
                    .machine
                    .handle(shared.clock.now(), ClientInput::Read { object })
                {
                    match action {
                        ClientAction::DeliverRead { data, local, .. } => {
                            shared.finish(&mut routes, started, to, object, local);
                            return Ok(data);
                        }
                        request => requests.push(request),
                    }
                }
                routes.remember(object, at.volume);
                (to, requests)
            };
            shared.send(&mut &*self.endpoint, to, requests);
            // Wait for the driver to make progress.
            let deadline = Instant::now() + shared.cfg.request_timeout;
            let mut routes = shared.routes();
            loop {
                let vol = routes.volume(&shared.cfg, at);
                let to = vol.server;
                if let Some(data) = vol.machine.complete_read(shared.clock.now(), object) {
                    shared.finish(&mut routes, started, to, object, false);
                    return Ok(data);
                }
                let left = deadline.saturating_duration_since(Instant::now());
                let waited = shared.progress.wait_timeout(routes, left);
                let (guard, wait) = waited.expect("routes poisoned by a panic");
                if wait.timed_out() {
                    break;
                }
                routes = guard;
            }
        }
        Err(ReadError::Unavailable { object })
    }

    /// Returns the cached copy *without* lease validation — the
    /// "return suspect data with a warning" client policy. `None` if
    /// nothing is cached.
    pub fn read_suspect(&self, object: ObjectId) -> Option<Bytes> {
        let routes = self.shared.routes();
        routes.machine_of(object)?.read_suspect(object)
    }

    /// The version this client has cached for `object`.
    pub fn cached_version(&self, object: ObjectId) -> Option<Version> {
        let routes = self.shared.routes();
        routes.machine_of(object)?.cached_version(object)
    }

    /// Whether both leases covering `object` are currently valid.
    pub fn holds_valid_leases(&self, object: ObjectId) -> bool {
        let routes = self.shared.routes();
        let now = self.shared.clock.now();
        routes
            .machine_of(object)
            .is_some_and(|m| m.holds_valid_leases(now, object))
    }

    /// Number of volumes with a currently valid lease.
    pub fn live_volumes(&self) -> usize {
        let routes = self.shared.routes();
        let now = self.shared.clock.now();
        let live = routes
            .volumes
            .values()
            .filter(|vol| vol.machine.vol_ok(now));
        live.count()
    }

    /// Whether the transport reports the configured server's connection
    /// down and no frame from it has confirmed recovery yet. While
    /// degraded, cached reads under still-valid leases remain legal —
    /// that is the paper's whole point — but renewals will fail until
    /// the link returns.
    pub fn is_degraded(&self) -> bool {
        let routes = self.shared.routes();
        routes.down.contains_key(&self.shared.cfg.server)
    }

    /// Origins whose connection is currently down (sorted). A server in
    /// this set degrades only its own volumes; everything else keeps
    /// working.
    pub fn degraded_origins(&self) -> Vec<ServerId> {
        self.shared.routes().down.keys().copied().collect()
    }

    /// The epoch this client last observed for the configured volume;
    /// changes exactly when its server recovered from a crash (§3.1.2)
    /// or the volume was handed to another server.
    pub fn server_epoch(&self) -> Epoch {
        let routes = self.shared.routes();
        let home = routes.volumes.get(&self.shared.cfg.volume);
        home.map_or(Epoch::default(), |vol| vol.machine.epoch())
    }

    /// Seeds or replaces the volume → server routing table. A map no
    /// newer (by version) than the one held is ignored, so a stale seed
    /// cannot undo a redirect.
    pub fn set_shard_map(&self, map: ShardMap) {
        let shared = &*self.shared;
        let probes = shared.routes().adopt_map(shared.clock.now(), map, None);
        for (to, actions) in probes {
            shared.send(&mut &*self.endpoint, to, actions);
        }
    }

    /// Version of the routing table currently in use (0 when unset).
    pub fn shard_map_version(&self) -> u64 {
        self.shared.routes().shard_map_version()
    }

    /// Statistics snapshot, summed across volumes.
    pub fn stats(&self) -> ClientStats {
        self.shared.routes().total_stats()
    }

    /// Stops the driver and drops the endpoint.
    pub fn shutdown(mut self) {
        self.stop();
        if let Some(mut sink) = self.shared.sink() {
            sink.flush();
        }
    }

    /// Lowers `running`, wakes the driver so it notices, and waits until
    /// its host has dropped it.
    fn stop(&mut self) {
        if self.shared.running.swap(false, Ordering::SeqCst) {
            self.endpoint.wake();
            let _ = self.stopped.recv();
        }
    }
}

impl Drop for CacheClient {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The client's consumer of its endpoint's stream. It holds no
/// endpoint: what it sends goes through its host's [`Outbox`], so
/// hosting it keeps no node alive.
struct Driver {
    shared: Arc<Shared>,
    /// Dropped with the driver: `stop` waits on it.
    _alive: Sender<()>,
}

impl Handler for Driver {
    fn on_event(&mut self, event: NetEvent, out: &mut dyn Outbox) -> bool {
        let shared = &*self.shared;
        if !shared.running.load(Ordering::SeqCst) {
            return false;
        }
        // Link state arrives on the same stream as the frames, per
        // server. Losing a link degrades that origin's volumes (cached
        // reads under valid leases stay legal; renewals will stall);
        // regaining it makes each of them probe with its last-seen
        // epoch — the server answers MUST_RENEW_ALL if it bumped the
        // epoch or demoted us while we were away.
        let (from, msg, wire_bytes) = match event {
            NetEvent::Frame {
                from: NodeId::Server(from),
                bytes,
            } => match codec::decode_server(&bytes) {
                Ok(msg) => (from, msg, bytes.len() as u64),
                Err(_) => return true, // corrupt frame
            },
            NetEvent::Down(NodeId::Server(server)) => {
                let mut routes = shared.routes();
                if let Entry::Vacant(spell) = routes.down.entry(server) {
                    spell.insert(Instant::now());
                    drop(routes);
                    shared.trace(server, EventKind::Degraded, |_| {});
                }
                return true;
            }
            NetEvent::Up(NodeId::Server(server)) => {
                let now = shared.clock.now();
                let probes = (shared.routes().volumes.values_mut())
                    .filter(|vol| vol.server == server)
                    .flat_map(|vol| vol.machine.handle(now, ClientInput::Reconnected))
                    .collect();
                shared.send(out, server, probes);
                return true;
            }
            // A client peer's link or frame, or a wake.
            _ => return true,
        };
        let kind = events::server_msg_kind(&msg);
        let mut routes = shared.routes();
        // A decoded message from a down-marked origin proves it is
        // back, even if the transport's connect event raced past us:
        // close the degraded spell before processing it.
        let spell = routes.down.remove(&from);
        routes.stats.degraded_spells += u64::from(spell.is_some());
        let outbox = routes.deliver(shared.clock.now(), from, msg);
        drop(routes);
        if let Some(since) = spell {
            shared.trace(from, EventKind::Recovered, |event| {
                event.value = since.elapsed().as_millis() as u64;
            });
        }
        shared.trace(from, EventKind::Message, |event| {
            event.msg = Some(kind);
            event.value = wire_bytes;
        });
        for (to, actions) in outbox {
            shared.send(out, to, actions);
        }
        shared.progress.notify_all();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults() {
        let cfg = ClientConfig::new(ClientId(2), ServerId(5));
        assert_eq!(cfg.volume, VolumeId(5));
        assert!(cfg.max_retries >= 1);
    }

    #[test]
    fn read_error_display() {
        let e = ReadError::Unavailable {
            object: ObjectId(3),
        };
        assert!(e.to_string().contains("o3"));
        assert_eq!(ReadError::Shutdown.to_string(), "client shut down");
    }
}
