//! Routing: which [`ClientMachine`] a frame or a read belongs to, and
//! which server that machine's requests go to.
//!
//! Leases never cross volumes, so the client keeps one machine per
//! volume — as the server keeps one volume state per hosted volume — and
//! nothing in this file decides anything about a lease: it looks up a
//! machine, hands it the input, and says where the answer goes.

use crate::ClientConfig;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;
use vl_core::machine::{
    ClientAction, ClientInput, ClientMachine, ClientMachineConfig, ClientStats,
};
use vl_proto::{Scope, ServerMsg};
use vl_types::{ObjectId, ServerId, ShardMap, Timestamp, VolumeId};

/// Where an object lives: the lease-granting server and its volume.
/// Plays the role a URL's host plays for a browser.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ObjectLocation {
    /// The origin server — a hint: a shard map or a `WRONG_SHARD`
    /// redirect the client has seen overrides it.
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

/// One volume's lease state and the server its requests go to.
pub(crate) struct Volume {
    pub(crate) server: ServerId,
    pub(crate) machine: ClientMachine,
}

/// Messages to send, per destination.
pub(crate) type Outbox = Vec<(ServerId, Vec<ClientAction>)>;

/// Everything behind the client's one lock.
#[derive(Default)]
pub(crate) struct Routes {
    pub(crate) volumes: BTreeMap<VolumeId, Volume>,
    /// The volume each object was last requested under: `OBJ_LEASE` and
    /// `INVALIDATE` name no volume, and several volumes may live on the
    /// server they come from.
    objects: HashMap<ObjectId, VolumeId>,
    /// Origins whose connection is down, and since when. Only *their*
    /// volumes degrade; every other origin keeps its full lease
    /// lifecycle — the per-volume blast radius.
    pub(crate) down: BTreeMap<ServerId, Instant>,
    shard_map: Option<ShardMap>,
    /// What only the driver can count: `retries`, `read_time_*`,
    /// `degraded_spells`, `redirects`.
    pub(crate) stats: ClientStats,
}

impl Routes {
    /// The volume at `at`, created on first use and aimed at the shard
    /// map's owner, else at the caller's hint. Later redirects and maps
    /// re-aim it; the hint is never consulted again.
    pub(crate) fn volume(&mut self, cfg: &ClientConfig, at: ObjectLocation) -> &mut Volume {
        let map = &self.shard_map;
        self.volumes.entry(at.volume).or_insert_with(|| Volume {
            server: map
                .as_ref()
                .and_then(|m| m.owner(at.volume))
                .unwrap_or(at.server),
            machine: ClientMachine::new(ClientMachineConfig {
                client: cfg.client,
                server: at.server,
                volume: at.volume,
                self_inval: cfg.self_inval,
            }),
        })
    }

    /// Records that `object` is being requested under `volume`, so the
    /// reply finds its machine.
    pub(crate) fn remember(&mut self, object: ObjectId, volume: VolumeId) {
        self.objects.insert(object, volume);
    }

    /// The machine holding `object`, if it was ever requested.
    pub(crate) fn machine_of(&self, object: ObjectId) -> Option<&ClientMachine> {
        let volume = self.objects.get(&object)?;
        Some(&self.volumes.get(volume)?.machine)
    }

    /// Hands a decoded frame from `from` to the machine of the volume
    /// it concerns; a frame about a volume or object never asked for is
    /// dropped. Replies go back to the sender — an ack must reach the
    /// server waiting for it — except a redirect's probe, which goes to
    /// the new owner.
    pub(crate) fn deliver(&mut self, now: Timestamp, from: ServerId, msg: ServerMsg) -> Outbox {
        let mut out = Outbox::new();
        let mut reply_to = from;
        if let ServerMsg::WrongShard {
            volume,
            owner,
            map_version,
            ref servers,
        } = msg
        {
            self.stats.redirects += 1;
            if let Some(vol) = self.volumes.get_mut(&volume) {
                vol.server = owner;
            }
            reply_to = owner;
            // The redirect is fresher ground truth for *its* volume
            // than the map that rode along with it.
            if map_version > 0 {
                let map = ShardMap::with_version(map_version, servers.clone());
                out = self.adopt_map(now, map, Some(volume));
            }
        }
        let volume = match msg.scope() {
            Scope::Volume(volume) => Some(volume),
            Scope::Object(object) => self.objects.get(&object).copied(),
        };
        if let Some(vol) = volume.and_then(|v| self.volumes.get_mut(&v)) {
            out.push((reply_to, vol.machine.handle(now, ClientInput::Msg(msg))));
        }
        out
    }

    /// Installs `map` unless the one held is at least as new (a stale
    /// seed must not undo a redirect), then re-aims every volume whose
    /// server is no longer the map's owner, so its next renewal goes
    /// straight there instead of chasing a stale redirect through an
    /// ex-owner — which may redirect back and ping-pong, or be
    /// decommissioned and eat the whole retry budget. Returns the
    /// re-aimed machines' probes.
    pub(crate) fn adopt_map(
        &mut self,
        now: Timestamp,
        map: ShardMap,
        except: Option<VolumeId>,
    ) -> Outbox {
        let held = self.shard_map.as_ref();
        if held.is_some_and(|held| held.version() >= map.version()) {
            return Outbox::new();
        }
        let mut probes = Outbox::new();
        for (&volume, vol) in &mut self.volumes {
            if except == Some(volume) {
                continue;
            }
            if let Some(owner) = map.owner(volume).filter(|&owner| owner != vol.server) {
                vol.server = owner;
                probes.push((owner, vol.machine.handle(now, ClientInput::Rerouted)));
            }
        }
        self.shard_map = Some(map);
        probes
    }

    /// Version of the shard map held (0 when none).
    pub(crate) fn shard_map_version(&self) -> u64 {
        self.shard_map.as_ref().map_or(0, ShardMap::version)
    }

    /// Driver-kept counters plus the sum of every machine's.
    pub(crate) fn total_stats(&self) -> ClientStats {
        let mut total = self.stats;
        for vol in self.volumes.values() {
            let s = vol.machine.stats();
            total.local_reads += s.local_reads;
            total.remote_reads += s.remote_reads;
            total.invalidations += s.invalidations;
            total.batched_invalidations += s.batched_invalidations;
            total.reconnections += s.reconnections;
            total.epoch_changes += s.epoch_changes;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheClient;
    use bytes::Bytes;
    use crossbeam::channel::{unbounded, Receiver, Sender};
    use std::sync::{Arc, Mutex};
    use std::time::Duration as StdDuration;
    use vl_net::{Channel, NetError, NetEvent, NodeId};
    use vl_proto::{codec, ClientMsg};
    use vl_server::WallClock;
    use vl_types::{ClientId, Epoch, Version};

    /// An in-memory [`Channel`] that records every send and lets the
    /// test inject server replies and link events.
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

        /// Everything sent since the last call, decoded.
        fn drain(&self) -> Vec<(NodeId, ClientMsg)> {
            let sent = self.sent.lock().unwrap().drain(..).collect::<Vec<_>>();
            sent.into_iter()
                .map(|(to, bytes)| (to, codec::decode_client(&bytes).expect("own encoding")))
                .collect()
        }

        /// Destinations of all `send`s since the last call.
        fn drain_targets(&self) -> Vec<NodeId> {
            self.drain().into_iter().map(|(to, _)| to).collect()
        }
    }

    impl Channel for MockNet {
        fn id(&self) -> NodeId {
            self.id
        }

        fn send(&self, to: NodeId, bytes: Bytes) -> Result<(), NetError> {
            self.sent.lock().unwrap().push((to, bytes));
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
        let cfg = ClientConfig {
            request_timeout: StdDuration::from_millis(50),
            max_retries: 0,
            ..ClientConfig::new(ClientId(1), s0)
        };
        let cache = CacheClient::spawn(cfg, net.clone(), WallClock::new());
        cache.set_shard_map(ShardMap::new(vec![s0]));
        let _ = cache.read_at(loc, obj);
        let targets = net.drain_targets();
        assert!(
            !targets.is_empty() && targets.iter().all(|&t| t == NodeId::Server(s0)),
            "the map's owner is asked first, got {targets:?}"
        );

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
        assert_eq!(cache.stats().redirects, 1);
        let _ = cache.read_at(loc, obj);
        let targets = net.drain_targets();
        assert!(
            !targets.is_empty() && targets.iter().all(|&t| t == NodeId::Server(s1)),
            "learned redirect must keep routing to s1, got {targets:?}"
        );

        // Second migration arrives as a higher-version map (from the
        // control plane, not a redirect): the volume now lives on s2.
        cache.set_shard_map(ShardMap::with_version(3, vec![s2]));
        let _ = cache.read_at(loc, obj);
        let targets = net.drain_targets();
        assert!(!targets.is_empty(), "read must have sent renewal requests");
        assert!(
            targets.iter().all(|&t| t == NodeId::Server(s2)),
            "stale learned redirect survived the newer map: {targets:?}"
        );
        cache.shutdown();
    }

    /// Regression: `OBJ_LEASE` names no volume, and the hand-written
    /// multi-origin client this driver replaced filed a first copy under
    /// *any* volume routed to the sender — a `HashMap` pick, so with
    /// eight volumes on one server (the state after every handoff) it
    /// was wrong for most objects on most runs, and a `MUST_RENEW_ALL`
    /// reported the wrong lease set: an object left out of its own
    /// volume's report is not re-granted by an epoch-bumped server, yet
    /// stayed readable under its still-running object lease once the
    /// volume lease came back. The volume is recorded when the read is
    /// issued instead.
    #[test]
    fn must_renew_all_reports_exactly_the_objects_read_at_that_volume() {
        const VOLUMES: u32 = 8;
        let s0 = ServerId(0);
        let net = MockNet::new(NodeId::Client(ClientId(1)));
        let cfg = ClientConfig {
            request_timeout: StdDuration::from_secs(5),
            max_retries: 0,
            ..ClientConfig::new(ClientId(1), s0)
        };
        let cache = CacheClient::spawn(cfg, net.clone(), WallClock::new());
        let expire = Timestamp::from_secs(3_600);
        let obj = |v: u32| ObjectId(100 + u64::from(v));
        for v in 0..VOLUMES {
            let at = ObjectLocation {
                server: s0,
                volume: VolumeId(v),
            };
            std::thread::scope(|scope| {
                let reader = scope.spawn(|| cache.read_at(at, obj(v)));
                assert!(
                    wait_for(|| net.sent.lock().unwrap().len() == 2),
                    "both requests"
                );
                net.drain();
                net.inject(
                    s0,
                    &ServerMsg::VolLease {
                        volume: VolumeId(v),
                        expire,
                        epoch: Epoch(0),
                        invalidate: Vec::new(),
                    },
                );
                net.inject(
                    s0,
                    &ServerMsg::ObjLease {
                        object: obj(v),
                        version: Version::FIRST,
                        expire,
                        data: Some(Bytes::from(format!("v{v}"))),
                    },
                );
                let data = reader.join().expect("reader").expect("read");
                assert_eq!(&data[..], format!("v{v}").as_bytes());
            });
        }
        assert_eq!(cache.live_volumes(), VOLUMES as usize);
        let stats = cache.stats();
        assert_eq!(stats.remote_reads, u64::from(VOLUMES), "summed: {stats:?}");

        // In-memory partitions are silent, so only an injected link
        // event can show a degraded spell: it opens on Down and closes
        // on the first frame from that server.
        let _ = net.inbox.0.send(NetEvent::Down(NodeId::Server(s0)));
        assert!(wait_for(|| cache.degraded_origins() == vec![s0]));
        assert!(cache.is_degraded());
        assert_eq!(cache.stats().degraded_spells, 0);

        for v in 0..VOLUMES {
            let volume = VolumeId(v);
            net.inject(s0, &ServerMsg::MustRenewAll { volume });
            assert!(
                wait_for(|| !net.sent.lock().unwrap().is_empty()),
                "volume {v}"
            );
            let report = ClientMsg::RenewObjLeases {
                volume,
                leases: vec![(obj(v), Version::FIRST)],
            };
            assert_eq!(net.drain(), vec![(NodeId::Server(s0), report)]);
        }
        assert!(cache.degraded_origins().is_empty());
        assert_eq!(cache.stats().degraded_spells, 1);
        cache.shutdown();
    }

    #[test]
    fn location_origin_pairs_volume_with_server() {
        let loc = ObjectLocation::origin(ServerId(7));
        assert_eq!(loc.server, ServerId(7));
        assert_eq!(loc.volume, VolumeId(7));
    }
}
