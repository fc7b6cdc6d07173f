//! A multi-origin cache client.
//!
//! [`CacheClient`](crate::CacheClient) binds to a single server — fine
//! for a dedicated mirror, but the paper's world is a browser-like cache
//! talking to *many* origins (the trace has 1000 servers). [`MultiCache`]
//! keeps independent volume-lease state per volume and object leases per
//! object, over one network endpoint; each read names the object's
//! location, like a URL names a host.
//!
//! A key property this surfaces is **failure isolation**: a partition to
//! one origin makes only *its* objects unavailable (their volume lease
//! lapses), while reads against every other origin keep succeeding — the
//! per-volume blast radius the paper's design intends.
//!
//! # Examples
//!
//! See `tests/live_multi.rs` in the repository root for a three-origin
//! walkthrough with partitions.

use crate::{ClientStats, ReadError};
use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant};
use vl_net::{Channel, NetEvent, NodeId};
use vl_proto::{codec, ClientMsg, ServerMsg};
use vl_types::{
    ClientId, Clock, Epoch, ObjectId, ServerId, ShardMap, Timestamp, Version, VolumeId,
};

/// Where an object lives: the lease-granting server and its volume.
/// Plays the role a URL's host plays for a browser.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ObjectLocation {
    /// The origin server.
    pub server: ServerId,
    /// The volume the object belongs to on that server.
    pub volume: VolumeId,
}

impl ObjectLocation {
    /// Location on `server`'s default volume (volume id = server id, the
    /// paper's 1:1 arrangement).
    pub fn origin(server: ServerId) -> ObjectLocation {
        ObjectLocation {
            server,
            volume: VolumeId(server.raw()),
        }
    }
}

/// Configuration for a [`MultiCache`].
#[derive(Clone, Debug)]
pub struct MultiConfig {
    /// This client's identity.
    pub client: ClientId,
    /// How long to wait for a response before resending.
    pub request_timeout: StdDuration,
    /// Resend attempts before a read fails.
    pub max_retries: usize,
}

impl MultiConfig {
    /// Defaults matching [`crate::ClientConfig::new`].
    pub fn new(client: ClientId) -> MultiConfig {
        MultiConfig {
            client,
            request_timeout: StdDuration::from_millis(300),
            max_retries: 3,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct VolState {
    server: ServerId,
    expire: Timestamp,
    epoch: Epoch,
}

#[derive(Default)]
struct MState {
    vols: HashMap<VolumeId, VolState>,
    /// object → (version, data, volume) — the volume routes acks and
    /// scopes reconnection lease sets.
    cached: HashMap<ObjectId, (Version, Bytes, VolumeId)>,
    obj_expire: HashMap<ObjectId, Timestamp>,
    /// Origins whose transport connection is currently down. Only
    /// *their* volumes degrade; reads against every other origin keep
    /// their full lease lifecycle — the per-volume blast radius.
    down: HashSet<ServerId>,
    /// Volume → server routing table, refreshed whenever a
    /// `WRONG_SHARD` redirect carries a newer map.
    shard_map: Option<ShardMap>,
    stats: ClientStats,
    generation: u64,
}

impl MState {
    fn vol_ok(&self, volume: VolumeId, now: Timestamp) -> bool {
        self.vols.get(&volume).is_some_and(|v| v.expire > now)
    }

    fn obj_ok(&self, object: ObjectId, now: Timestamp) -> bool {
        self.obj_expire.get(&object).is_some_and(|&e| e > now) && self.cached.contains_key(&object)
    }

    fn drop_copy(&mut self, object: ObjectId) {
        self.cached.remove(&object);
        self.obj_expire.remove(&object);
    }

    /// Re-aims learned per-volume routes after a newer shard map is
    /// installed: any volume whose recorded server is no longer the map
    /// owner gets re-pointed at the owner with its lease voided, so the
    /// next renewal goes straight there instead of chasing a stale
    /// redirect through an ex-owner — which may redirect back and
    /// ping-pong, or be decommissioned and eat the whole retry budget.
    /// `except` shields the volume a `WRONG_SHARD` reply just re-aimed:
    /// that redirect is fresher ground truth for *its* volume than the
    /// map that rode along with it.
    fn reconcile_routes(&mut self, except: Option<VolumeId>) {
        let Some(map) = self.shard_map.clone() else {
            return;
        };
        for (&volume, v) in self.vols.iter_mut() {
            if except == Some(volume) {
                continue;
            }
            if let Some(owner) = map.owner(volume) {
                if v.server != owner {
                    v.server = owner;
                    v.expire = Timestamp::ZERO;
                }
            }
        }
    }
}

/// A cache client that reads from many origins concurrently, with one
/// short volume lease per origin volume and long leases per object.
pub struct MultiCache {
    cfg: MultiConfig,
    clock: Box<dyn Clock + Send + Sync>,
    endpoint: Arc<dyn Channel>,
    state: Arc<(Mutex<MState>, Condvar)>,
    running: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl fmt::Debug for MultiCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiCache")
            .field("client", &self.cfg.client)
            .field("volumes", &self.state.0.lock().vols.len())
            .finish()
    }
}

impl MultiCache {
    /// Starts the receive loop.
    pub fn spawn(
        cfg: MultiConfig,
        endpoint: impl Channel + 'static,
        clock: impl Clock + Send + Sync + 'static,
    ) -> MultiCache {
        let clock: Box<dyn Clock + Send + Sync> = Box::new(clock);
        let endpoint: Arc<dyn Channel> = Arc::new(endpoint);
        let state = Arc::new((Mutex::new(MState::default()), Condvar::new()));
        let running = Arc::new(AtomicBool::new(true));
        let thread = {
            let endpoint = Arc::clone(&endpoint);
            let state = Arc::clone(&state);
            let running = Arc::clone(&running);
            std::thread::Builder::new()
                .name(format!("vl-multicache-{}", cfg.client))
                .spawn(move || receive_loop(&endpoint, &state, &running))
                .expect("spawn multicache thread")
        };
        MultiCache {
            cfg,
            clock,
            endpoint,
            state,
            running,
            thread: Some(thread),
        }
    }

    /// Reads `object` from `location` with strong consistency, renewing
    /// the volume and object leases as needed.
    ///
    /// # Errors
    ///
    /// [`ReadError::Unavailable`] when that origin cannot be reached
    /// within the retry budget (reads against other origins are
    /// unaffected); [`ReadError::Shutdown`] after
    /// [`shutdown`](MultiCache::shutdown).
    pub fn read(&self, location: ObjectLocation, object: ObjectId) -> Result<Bytes, ReadError> {
        if !self.running.load(Ordering::SeqCst) {
            return Err(ReadError::Shutdown);
        }
        let started = Instant::now();
        let (lock, cv) = &*self.state;
        let finish = |st: &mut MState, data: Bytes, local: bool| {
            if local {
                st.stats.local_reads += 1;
            } else {
                st.stats.remote_reads += 1;
            }
            let ms = started.elapsed().as_millis() as u64;
            st.stats.read_time_total_ms += ms;
            st.stats.read_time_max_ms = st.stats.read_time_max_ms.max(ms);
            Ok(data)
        };
        {
            let mut st = lock.lock();
            let now = self.clock.now();
            if st.vol_ok(location.volume, now) && st.obj_ok(object, now) {
                let data = st.cached[&object].1.clone();
                return finish(&mut st, data, true);
            }
        }
        for attempt in 0..=self.cfg.max_retries {
            let server;
            {
                let mut st = lock.lock();
                let now = self.clock.now();
                if attempt > 0 {
                    st.stats.retries += 1;
                }
                let need_vol = !st.vol_ok(location.volume, now);
                let need_obj = !st.obj_ok(object, now);
                let epoch = st.vols.get(&location.volume).map_or(Epoch(0), |v| v.epoch);
                let version = st.cached.get(&object).map_or(Version::NONE, |(v, _, _)| *v);
                // Route per attempt: a `WRONG_SHARD` redirect recorded in
                // `vols` overrides everything (it is ground truth from a
                // server), then the shard map, then the caller's hint —
                // so a redirect between attempts re-aims the retry.
                let routed = st
                    .vols
                    .get(&location.volume)
                    .map(|v| v.server)
                    .or_else(|| st.shard_map.as_ref().and_then(|m| m.owner(location.volume)))
                    .unwrap_or(location.server);
                // Pre-register the volume's server so replies route acks.
                st.vols.entry(location.volume).or_insert(VolState {
                    server: routed,
                    expire: Timestamp::ZERO,
                    epoch,
                });
                drop(st);
                server = NodeId::Server(routed);
                if need_vol {
                    let _ = self.endpoint.send(
                        server,
                        codec::encode_client(&ClientMsg::ReqVolLease {
                            volume: location.volume,
                            epoch,
                        }),
                    );
                }
                if need_obj {
                    let _ = self.endpoint.send(
                        server,
                        codec::encode_client(&ClientMsg::ReqObjLease { object, version }),
                    );
                }
            }
            let deadline = Instant::now() + self.cfg.request_timeout;
            let mut st = lock.lock();
            loop {
                let now = self.clock.now();
                if st.vol_ok(location.volume, now) && st.obj_ok(object, now) {
                    let data = st.cached[&object].1.clone();
                    return finish(&mut st, data, false);
                }
                if cv.wait_until(&mut st, deadline).timed_out() {
                    break;
                }
            }
        }
        Err(ReadError::Unavailable { object })
    }

    /// Statistics across all origins.
    pub fn stats(&self) -> ClientStats {
        self.state.0.lock().stats
    }

    /// Seed or replace the volume → server routing table. Older maps
    /// (by version) are ignored so a stale seed can't undo a redirect.
    pub fn set_shard_map(&self, map: ShardMap) {
        let (lock, cv) = &*self.state;
        let mut st = lock.lock();
        if st
            .shard_map
            .as_ref()
            .is_none_or(|m| map.version() > m.version())
        {
            st.shard_map = Some(map);
            st.reconcile_routes(None);
            st.generation += 1;
            cv.notify_all();
        }
    }

    /// Version of the routing table currently in use (0 when unset).
    pub fn shard_map_version(&self) -> u64 {
        self.state
            .0
            .lock()
            .shard_map
            .as_ref()
            .map_or(0, |m| m.version())
    }

    /// Number of volumes with a currently valid lease.
    pub fn live_volumes(&self) -> usize {
        let st = self.state.0.lock();
        let now = self.clock.now();
        st.vols.values().filter(|v| v.expire > now).count()
    }

    /// Origins whose connection is currently down (sorted). A server in
    /// this set degrades only its own volumes; everything else keeps
    /// working.
    pub fn degraded_origins(&self) -> Vec<ServerId> {
        let mut v: Vec<ServerId> = self.state.0.lock().down.iter().copied().collect();
        v.sort_by_key(|s| s.raw());
        v
    }

    /// Stops the receive loop — what dropping the cache does.
    pub fn shutdown(self) {}
}

impl Drop for MultiCache {
    /// Lowers `running`, wakes the receive loop out of its blocking
    /// receive so it notices, and joins it.
    fn drop(&mut self) {
        self.running.store(false, Ordering::SeqCst);
        self.endpoint.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn receive_loop(
    endpoint: &Arc<dyn Channel>,
    state: &(Mutex<MState>, Condvar),
    running: &AtomicBool,
) {
    let (lock, cv) = state;
    while running.load(Ordering::SeqCst) {
        // Per-server supervision, off the same stream as the frames: a
        // lost connection degrades only that origin's volumes; a
        // regained one probes each of its volumes with a renewal
        // carrying our last-seen epoch, so a restarted server forces
        // its reconnection handshake.
        let (from, msg) = match endpoint.recv_event(None) {
            Ok(NetEvent::Frame { from, bytes }) => match codec::decode_server(&bytes) {
                Ok(m) => (from, m),
                Err(_) => continue,
            },
            Ok(NetEvent::Down(NodeId::Server(s))) => {
                lock.lock().down.insert(s);
                continue;
            }
            Ok(NetEvent::Up(node @ NodeId::Server(s))) => {
                let probes: Vec<(VolumeId, Epoch)> = {
                    let mut st = lock.lock();
                    st.down.remove(&s);
                    st.vols
                        .iter()
                        .filter(|(_, v)| v.server == s)
                        .map(|(&vol, v)| (vol, v.epoch))
                        .collect()
                };
                for (volume, epoch) in probes {
                    let _ = endpoint.send(
                        node,
                        codec::encode_client(&ClientMsg::ReqVolLease { volume, epoch }),
                    );
                }
                cv.notify_all();
                continue;
            }
            // A client peer's link, or a wake: re-check `running`.
            Ok(_) => continue,
            Err(_) => return,
        };
        let mut st = lock.lock();
        // Any decoded message from a down-marked origin proves it is
        // back, even if the transport's connect event raced past us.
        if let NodeId::Server(s) = from {
            st.down.remove(&s);
        }
        match msg {
            ServerMsg::Invalidate { object } => {
                st.drop_copy(object);
                st.stats.invalidations += 1;
                drop(st);
                let _ = endpoint.send(
                    from,
                    codec::encode_client(&ClientMsg::AckInvalidate { object }),
                );
                st = lock.lock();
            }
            ServerMsg::ObjLease {
                object,
                version,
                expire,
                data,
            } => {
                let volume = st.cached.get(&object).map(|(_, _, v)| *v);
                if let Some(bytes) = data {
                    // New data: associate the object with the sender's
                    // volume if we did not know it yet.
                    let volume = volume.unwrap_or_else(|| {
                        st.vols
                            .iter()
                            .find(|(_, v)| NodeId::Server(v.server) == from)
                            .map(|(&vol, _)| vol)
                            .unwrap_or(VolumeId(u32::MAX))
                    });
                    st.cached.insert(object, (version, bytes, volume));
                }
                if st.cached.contains_key(&object) {
                    st.obj_expire.insert(object, expire);
                }
            }
            ServerMsg::VolLease {
                volume,
                expire,
                epoch,
                invalidate,
            } => {
                let had_batch = !invalidate.is_empty();
                for object in invalidate {
                    st.drop_copy(object);
                    st.stats.batched_invalidations += 1;
                }
                let server = match from {
                    NodeId::Server(s) => s,
                    NodeId::Client(_) => continue,
                };
                st.vols.insert(
                    volume,
                    VolState {
                        server,
                        expire,
                        epoch,
                    },
                );
                if had_batch {
                    drop(st);
                    let _ = endpoint.send(
                        from,
                        codec::encode_client(&ClientMsg::AckVolBatch { volume }),
                    );
                    st = lock.lock();
                }
            }
            ServerMsg::MustRenewAll { volume } => {
                if let Some(v) = st.vols.get_mut(&volume) {
                    v.expire = Timestamp::ZERO;
                }
                let leases: Vec<(ObjectId, Version)> = st
                    .cached
                    .iter()
                    .filter(|(_, (_, _, vol))| *vol == volume)
                    .map(|(&o, (ver, _, _))| (o, *ver))
                    .collect();
                drop(st);
                let _ = endpoint.send(
                    from,
                    codec::encode_client(&ClientMsg::RenewObjLeases { volume, leases }),
                );
                st = lock.lock();
            }
            ServerMsg::InvalRenew {
                volume,
                invalidate,
                renew,
            } => {
                for object in invalidate {
                    st.drop_copy(object);
                    st.stats.batched_invalidations += 1;
                }
                for (object, version, expire) in renew {
                    if let Some((v, _, _)) = st.cached.get(&object) {
                        debug_assert_eq!(*v, version);
                        st.obj_expire.insert(object, expire);
                    }
                }
                st.stats.reconnections += 1;
                drop(st);
                let _ = endpoint.send(
                    from,
                    codec::encode_client(&ClientMsg::AckVolBatch { volume }),
                );
                st = lock.lock();
            }
            ServerMsg::WrongShard {
                volume,
                owner,
                map_version,
                servers,
            } => {
                st.stats.redirects += 1;
                // The redirecting server is ground truth for this volume:
                // re-aim it and void the lease so the next attempt renews
                // at the new owner. Keep the epoch we last saw — if the
                // handoff bumped it, the owner answers MUST_RENEW_ALL,
                // which is exactly the resync we want.
                let epoch = st.vols.get(&volume).map_or(Epoch(0), |v| v.epoch);
                st.vols.insert(
                    volume,
                    VolState {
                        server: owner,
                        expire: Timestamp::ZERO,
                        epoch,
                    },
                );
                if map_version > 0
                    && st
                        .shard_map
                        .as_ref()
                        .is_none_or(|m| map_version > m.version())
                {
                    st.shard_map = Some(ShardMap::with_version(map_version, servers));
                    st.reconcile_routes(Some(volume));
                }
                // Chase the redirect immediately so a reader blocked on
                // the condvar doesn't burn a full request timeout.
                drop(st);
                let _ = endpoint.send(
                    NodeId::Server(owner),
                    codec::encode_client(&ClientMsg::ReqVolLease { volume, epoch }),
                );
                st = lock.lock();
            }
        }
        st.generation += 1;
        cv.notify_all();
        drop(st);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::{unbounded, Receiver, Sender};
    use vl_net::NetError;
    use vl_server::WallClock;

    /// An in-memory [`Channel`] that records every send and lets the
    /// test inject server replies.
    #[derive(Clone)]
    struct MockNet {
        id: NodeId,
        sent: Arc<Mutex<Vec<(NodeId, Bytes)>>>,
        inbox: (Sender<NetEvent>, Receiver<NetEvent>),
    }

    impl MockNet {
        fn new(id: NodeId) -> MockNet {
            MockNet {
                id,
                sent: Arc::default(),
                inbox: unbounded(),
            }
        }

        fn inject(&self, from: ServerId, msg: &ServerMsg) {
            let _ = self.inbox.0.send(NetEvent::Frame {
                from: NodeId::Server(from),
                bytes: codec::encode_server(msg),
            });
        }

        /// Destinations of all `send`s since the last call.
        fn drain_targets(&self) -> Vec<NodeId> {
            self.sent.lock().drain(..).map(|(to, _)| to).collect()
        }
    }

    impl Channel for MockNet {
        fn id(&self) -> NodeId {
            self.id
        }

        fn send(&self, to: NodeId, bytes: Bytes) -> Result<(), NetError> {
            self.sent.lock().push((to, bytes));
            Ok(())
        }

        fn recv_event(&self, _timeout: Option<StdDuration>) -> Result<NetEvent, NetError> {
            self.inbox.1.recv().map_err(|_| NetError::Disconnected)
        }

        fn wake(&self) {
            let _ = self.inbox.0.send(NetEvent::Woken);
        }
    }

    fn wait_for<F: FnMut() -> bool>(mut cond: F) -> bool {
        let deadline = Instant::now() + StdDuration::from_secs(5);
        while Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(StdDuration::from_millis(5));
        }
        false
    }

    /// Regression: a volume that migrates *twice* must not leave the
    /// client chasing the intermediate owner. The first migration is
    /// learned from a `WRONG_SHARD` redirect; when a higher-version map
    /// then moves the volume again, the learned route is stale — before
    /// the fix it still overrode the map, so every renewal went to the
    /// ex-owner (redirect ping-pong, or a dead end if it was
    /// decommissioned).
    #[test]
    fn newer_map_drops_stale_learned_redirects() {
        let (s0, s1, s2) = (ServerId(0), ServerId(1), ServerId(2));
        let vol = VolumeId(5);
        let obj = ObjectId(9);
        let loc = ObjectLocation {
            server: s0,
            volume: vol,
        };
        let net = MockNet::new(NodeId::Client(ClientId(1)));
        let cfg = MultiConfig {
            request_timeout: StdDuration::from_millis(50),
            max_retries: 0,
            ..MultiConfig::new(ClientId(1))
        };
        let cache = MultiCache::spawn(cfg, net.clone(), WallClock::new());
        cache.set_shard_map(ShardMap::new(vec![s0]));

        // First migration, learned from the horse's mouth: s0 redirects
        // the volume to s1. The piggybacked map still names s0 — the
        // redirect must win for *this* volume (it is fresher ground
        // truth than the map it rode in on).
        net.inject(
            s0,
            &ServerMsg::WrongShard {
                volume: vol,
                owner: s1,
                map_version: 2,
                servers: vec![s0],
            },
        );
        assert!(
            wait_for(|| net.drain_targets().contains(&NodeId::Server(s1))),
            "redirect must be chased to the new owner"
        );
        assert_eq!(cache.shard_map_version(), 2);
        let _ = cache.read(loc, obj);
        let targets = net.drain_targets();
        assert!(
            targets.iter().all(|&t| t == NodeId::Server(s1)),
            "learned redirect must keep routing to s1, got {targets:?}"
        );

        // Second migration arrives as a higher-version map (from the
        // control plane, not a redirect): the volume now lives on s2.
        cache.set_shard_map(ShardMap::with_version(3, vec![s2]));
        let _ = cache.read(loc, obj);
        let targets = net.drain_targets();
        assert!(!targets.is_empty(), "read must have sent renewal requests");
        assert!(
            targets.iter().all(|&t| t == NodeId::Server(s2)),
            "stale learned redirect survived the newer map: {targets:?}"
        );
        cache.shutdown();
    }

    #[test]
    fn location_origin_pairs_volume_with_server() {
        let loc = ObjectLocation::origin(ServerId(7));
        assert_eq!(loc.server, ServerId(7));
        assert_eq!(loc.volume, VolumeId(7));
    }

    #[test]
    fn config_defaults() {
        let cfg = MultiConfig::new(ClientId(3));
        assert_eq!(cfg.client, ClientId(3));
        assert!(cfg.max_retries >= 1);
    }
}
