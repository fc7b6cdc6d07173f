//! Client cache speaking the live volume-lease protocol.
//!
//! The protocol logic itself — Figure 4 of the paper: read a cached
//! object only while holding valid leases on **both** the object and
//! the object's volume, renew lapsed leases, answer invalidations with
//! acks, and run the client half of the reconnection protocol — lives in
//! the pure state machine [`vl_core::machine::ClientMachine`].
//! [`CacheClient`] is the thin live driver around it: it owns the
//! network endpoint, one receive thread blocked on the endpoint's event
//! stream (no tick), and a condition variable, feeds wire messages,
//! link-state changes and read requests into the machine, and executes
//! the actions it returns.
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
//! # Layering
//!
//! The machine/driver split above is the DESIGN.md §7 rule: the machine
//! is tested exhaustively under the deterministic fault harness, and
//! this driver stays small enough to review by hand. When a
//! [`vl_metrics::TraceSink`] is attached ([`CacheClient::spawn_traced`]),
//! the driver maps each executed machine action to a trace event via
//! [`vl_core::machine::events`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod multi;

pub use multi::{MultiCache, MultiConfig, ObjectLocation};
pub use vl_core::machine::ClientStats;

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant};
use vl_core::machine::{events, ClientAction, ClientInput, ClientMachine, ClientMachineConfig};
use vl_metrics::{Event, EventKind, TraceSink};
use vl_net::{Channel, NetEvent, NodeId};
use vl_proto::{codec, ClientMsg};
use vl_types::{ClientId, Clock, ObjectId, ServerId, Version, VolumeId};

/// A sink shared between the reading thread and the receive loop.
type SharedSink = Arc<Mutex<Box<dyn TraceSink>>>;

/// Client configuration.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// This client's identity.
    pub client: ClientId,
    /// The origin server.
    pub server: ServerId,
    /// The volume this client reads (1:1 with the server by default).
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

    fn machine_config(&self) -> ClientMachineConfig {
        ClientMachineConfig {
            client: self.client,
            server: self.server,
            volume: self.volume,
            self_inval: self.self_inval,
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

/// A live cache client (owns a background receive thread).
///
/// All protocol state lives in the wrapped [`ClientMachine`]; this type
/// only adds threads, the condition variable readers block on, and
/// wall-clock timing for the latency statistics.
pub struct CacheClient {
    cfg: ClientConfig,
    clock: Arc<dyn Clock + Send + Sync>,
    endpoint: Arc<dyn Channel>,
    state: Arc<(Mutex<ClientMachine>, Condvar)>,
    running: Arc<AtomicBool>,
    degraded: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    sink: Option<SharedSink>,
}

impl fmt::Debug for CacheClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CacheClient")
            .field("client", &self.cfg.client)
            .field("server", &self.cfg.server)
            .finish()
    }
}

impl CacheClient {
    /// Starts the client's receive loop.
    pub fn spawn(
        cfg: ClientConfig,
        endpoint: impl Channel + 'static,
        clock: impl Clock + Send + Sync + 'static,
    ) -> CacheClient {
        CacheClient::spawn_inner(cfg, endpoint, clock, None)
    }

    /// Like [`spawn`](CacheClient::spawn), but records wire messages,
    /// completed reads (with observed latency), and renewal round-trips
    /// as structured trace events into `sink`.
    pub fn spawn_traced(
        cfg: ClientConfig,
        endpoint: impl Channel + 'static,
        clock: impl Clock + Send + Sync + 'static,
        sink: Box<dyn TraceSink>,
    ) -> CacheClient {
        CacheClient::spawn_inner(cfg, endpoint, clock, Some(Arc::new(Mutex::new(sink))))
    }

    fn spawn_inner(
        cfg: ClientConfig,
        endpoint: impl Channel + 'static,
        clock: impl Clock + Send + Sync + 'static,
        sink: Option<SharedSink>,
    ) -> CacheClient {
        let clock: Arc<dyn Clock + Send + Sync> = Arc::new(clock);
        let endpoint: Arc<dyn Channel> = Arc::new(endpoint);
        let machine = ClientMachine::new(cfg.machine_config());
        let state = Arc::new((Mutex::new(machine), Condvar::new()));
        let running = Arc::new(AtomicBool::new(true));
        let degraded = Arc::new(AtomicBool::new(false));
        let thread = {
            let endpoint = Arc::clone(&endpoint);
            let state = Arc::clone(&state);
            let running = Arc::clone(&running);
            let degraded = Arc::clone(&degraded);
            let clock = Arc::clone(&clock);
            let cfg = cfg.clone();
            let sink = sink.clone();
            std::thread::Builder::new()
                .name(format!("vl-client-{}", cfg.client))
                .spawn(move || {
                    receive_loop(&cfg, &endpoint, &state, &clock, &running, &degraded, &sink)
                })
                .expect("spawn client thread")
        };
        CacheClient {
            cfg,
            clock,
            endpoint,
            state,
            running,
            degraded,
            thread: Some(thread),
            sink,
        }
    }

    /// Reads `object` with strong consistency: returns only data covered
    /// by valid object **and** volume leases, renewing them as needed.
    ///
    /// # Errors
    ///
    /// [`ReadError::Unavailable`] when the server cannot be reached
    /// within the retry budget; [`ReadError::Shutdown`] after
    /// [`shutdown`](CacheClient::shutdown).
    pub fn read(&self, object: ObjectId) -> Result<Bytes, ReadError> {
        if !self.running.load(Ordering::SeqCst) {
            return Err(ReadError::Shutdown);
        }
        let started = Instant::now();
        // `local` distinguishes cache hits from reads that needed a
        // lease-renewal round-trip; the latter's latency doubles as the
        // renewal RTT sample.
        let done = |m: &mut ClientMachine, data: Bytes, local: bool| {
            let ms = started.elapsed().as_millis() as u64;
            let stats = m.stats_mut();
            stats.read_time_total_ms += ms;
            stats.read_time_max_ms = stats.read_time_max_ms.max(ms);
            if let Some(sink) = &self.sink {
                let now = self.clock.now();
                let mut sink = sink.lock();
                sink.record(&Event {
                    object: Some(object),
                    extra: ms,
                    ..Event::new(now, EventKind::Read, self.cfg.server, self.cfg.client)
                });
                if !local {
                    sink.record(&Event {
                        object: Some(object),
                        value: ms,
                        ..Event::new(now, EventKind::RenewalRtt, self.cfg.server, self.cfg.client)
                    });
                }
            }
            Ok(data)
        };
        let (lock, cv) = &*self.state;
        for attempt in 0..=self.cfg.max_retries {
            // (Re)issue whatever is still needed: the machine either
            // serves the read locally or tells us which lease requests
            // to (re)send — the grants are independent (Figure 4).
            let sends = {
                let mut m = lock.lock();
                let now = self.clock.now();
                if attempt > 0 {
                    m.stats_mut().retries += 1;
                }
                let mut sends = Vec::new();
                for action in m.handle(now, ClientInput::Read { object }) {
                    match action {
                        ClientAction::DeliverRead { data, local, .. } => {
                            return done(&mut m, data, local)
                        }
                        ClientAction::Send(msg) => sends.push(msg),
                    }
                }
                sends
            };
            for msg in &sends {
                self.send(msg);
            }
            self.trace_sends(&sends);
            // Wait for the receive loop to make progress.
            let deadline = Instant::now() + self.cfg.request_timeout;
            let mut m = lock.lock();
            loop {
                let now = self.clock.now();
                if let Some(data) = m.complete_read(now, object) {
                    return done(&mut m, data, false);
                }
                if cv.wait_until(&mut m, deadline).timed_out() {
                    break;
                }
            }
        }
        Err(ReadError::Unavailable { object })
    }

    /// Records outgoing messages as trace events (no-op when untraced).
    fn trace_sends(&self, sends: &[ClientMsg]) {
        let Some(sink) = &self.sink else { return };
        if sends.is_empty() {
            return;
        }
        let now = self.clock.now();
        let mut sink = sink.lock();
        for msg in sends {
            let action = ClientAction::Send(msg.clone());
            for ev in events::client_action_events(now, self.cfg.server, self.cfg.client, &action) {
                sink.record(&ev);
            }
        }
    }

    /// Returns the cached copy *without* lease validation — the
    /// "return suspect data with a warning" client policy. `None` if
    /// nothing is cached.
    pub fn read_suspect(&self, object: ObjectId) -> Option<Bytes> {
        self.state.0.lock().read_suspect(object)
    }

    /// The version this client has cached for `object`.
    pub fn cached_version(&self, object: ObjectId) -> Option<Version> {
        self.state.0.lock().cached_version(object)
    }

    /// Whether both leases covering `object` are currently valid.
    pub fn holds_valid_leases(&self, object: ObjectId) -> bool {
        self.state
            .0
            .lock()
            .holds_valid_leases(self.clock.now(), object)
    }

    /// Whether the transport reports the server connection down and no
    /// protocol traffic has confirmed recovery yet. While degraded,
    /// cached reads under still-valid leases remain legal — that is the
    /// paper's whole point — but renewals will fail until the link
    /// returns.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    /// The server epoch this client last observed; changes exactly when
    /// the server recovered from a crash (§3.1.2).
    pub fn server_epoch(&self) -> vl_types::Epoch {
        self.state.0.lock().epoch()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ClientStats {
        self.state.0.lock().stats()
    }

    /// Stops the receive loop and drops the endpoint.
    pub fn shutdown(mut self) {
        self.stop();
        if let Some(sink) = &self.sink {
            sink.lock().flush();
        }
    }

    /// Lowers `running`, wakes the receive loop out of its blocking
    /// receive so it notices, and joins it.
    fn stop(&mut self) {
        self.running.store(false, Ordering::SeqCst);
        self.endpoint.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    fn send(&self, msg: &ClientMsg) {
        let _ = self
            .endpoint
            .send(NodeId::Server(self.cfg.server), codec::encode_client(msg));
    }
}

impl Drop for CacheClient {
    fn drop(&mut self) {
        self.stop();
    }
}

#[allow(clippy::too_many_arguments)]
fn receive_loop(
    cfg: &ClientConfig,
    endpoint: &Arc<dyn Channel>,
    state: &(Mutex<ClientMachine>, Condvar),
    clock: &Arc<dyn Clock + Send + Sync>,
    running: &AtomicBool,
    degraded: &AtomicBool,
    sink: &Option<SharedSink>,
) {
    let (lock, cv) = state;
    let server = NodeId::Server(cfg.server);
    // Wall-clock start of the current degraded spell, for the Recovered
    // event's duration.
    let mut degraded_at: Option<Instant> = None;
    while running.load(Ordering::SeqCst) {
        // Link state arrives on the same stream as the frames and is
        // mirrored into protocol state. Losing the link makes us
        // Degraded (cached reads under valid leases stay legal;
        // renewals will stall); regaining it triggers the reconnection
        // probe — the server answers MUST_RENEW_ALL if it bumped its
        // epoch or demoted us while we were away.
        let (msg, wire_bytes) = match endpoint.recv_event(None) {
            Ok(NetEvent::Frame { bytes, .. }) => match codec::decode_server(&bytes) {
                Ok(m) => (m, bytes.len() as u64),
                Err(_) => continue, // corrupt frame
            },
            Ok(NetEvent::Down(peer)) if peer == server => {
                if !degraded.swap(true, Ordering::SeqCst) {
                    degraded_at = Some(Instant::now());
                    if let Some(sink) = sink {
                        sink.lock().record(&Event::new(
                            clock.now(),
                            EventKind::Degraded,
                            cfg.server,
                            cfg.client,
                        ));
                    }
                }
                continue;
            }
            Ok(NetEvent::Up(peer)) if peer == server => {
                let probes = {
                    let mut m = lock.lock();
                    m.handle(clock.now(), ClientInput::Reconnected)
                };
                for action in probes {
                    if let ClientAction::Send(msg) = action {
                        let _ = endpoint.send(server, codec::encode_client(&msg));
                    }
                }
                continue;
            }
            // Another peer's link, or a wake: re-check `running`.
            Ok(_) => continue,
            Err(_) => return,
        };
        // A decoded server message is proof the link works again: close
        // the degraded spell before processing it.
        if degraded.swap(false, Ordering::SeqCst) {
            let spell_ms = degraded_at
                .take()
                .map_or(0, |t| t.elapsed().as_millis() as u64);
            lock.lock().stats_mut().degraded_spells += 1;
            if let Some(sink) = sink {
                sink.lock().record(&Event {
                    value: spell_ms,
                    ..Event::new(clock.now(), EventKind::Recovered, cfg.server, cfg.client)
                });
            }
        }
        if let Some(sink) = sink {
            // Lock order: the sink is only ever taken *without* the
            // machine lock held on this thread (readers take machine →
            // sink), so taking it first here cannot deadlock.
            let mut sink = sink.lock();
            sink.record(&Event {
                msg: Some(events::server_msg_kind(&msg)),
                value: wire_bytes,
                ..Event::new(clock.now(), EventKind::Message, cfg.server, cfg.client)
            });
        }
        let actions = {
            let mut m = lock.lock();
            m.handle(clock.now(), ClientInput::Msg(msg))
        };
        let now = clock.now();
        for action in actions {
            if let ClientAction::Send(msg) = action {
                let _ = endpoint.send(server, codec::encode_client(&msg));
                if let Some(sink) = sink {
                    let mut sink = sink.lock();
                    let action = ClientAction::Send(msg);
                    for ev in events::client_action_events(now, cfg.server, cfg.client, &action) {
                        sink.record(&ev);
                    }
                }
            }
        }
        cv.notify_all();
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
