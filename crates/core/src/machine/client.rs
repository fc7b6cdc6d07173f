//! The client half of the protocol as a pure state machine (Figure 4).

use bytes::Bytes;
use vl_proto::{ClientMsg, ServerMsg};
use vl_types::{ClientId, Epoch, ObjectId, ServerId, Timestamp, Version, VolumeId};

/// Point-in-time client statistics.
///
/// The machine maintains the protocol counters; the timing fields
/// (`retries`, `read_time_*`) are written by the embedding driver via
/// [`ClientMachine::stats_mut`] because only the driver observes real
/// waiting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Reads served purely from cache (both leases valid).
    pub local_reads: u64,
    /// Reads that needed at least one server exchange.
    pub remote_reads: u64,
    /// Immediate invalidations received.
    pub invalidations: u64,
    /// Invalidations delivered in volume-renewal batches.
    pub batched_invalidations: u64,
    /// Reconnection exchanges completed (`MUST_RENEW_ALL` handled).
    pub reconnections: u64,
    /// Requests resent after a timeout.
    pub retries: u64,
    /// Total time spent inside successful `read` calls, milliseconds.
    pub read_time_total_ms: u64,
    /// Slowest successful `read`, milliseconds.
    pub read_time_max_ms: u64,
    /// Server epoch changes observed (each one is a detected server
    /// restart).
    pub epoch_changes: u64,
    /// Driver-maintained: completed Degraded→Recovered spells on the
    /// live connection.
    pub degraded_spells: u64,
    /// Driver-maintained: `WRONG_SHARD` redirects followed. The driver
    /// re-aims the volume's route; the machine voids the volume lease
    /// and probes (see [`ClientInput::Rerouted`]).
    pub redirects: u64,
}

/// Identity of one client machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClientMachineConfig {
    /// This client's identity.
    pub client: ClientId,
    /// The origin server.
    pub server: ServerId,
    /// The volume this client reads (1:1 with the server by default).
    pub volume: VolumeId,
    /// Self-invalidation mode: the client holds no volume lease — a
    /// cached copy is readable until its server-assigned drop-deadline
    /// passes on *this* clock, and no invalidations ever arrive.
    pub self_inval: bool,
}

impl ClientMachineConfig {
    /// Defaults: volume id = server id, volume-lease protocol.
    pub fn new(client: ClientId, server: ServerId) -> ClientMachineConfig {
        ClientMachineConfig {
            client,
            server,
            volume: VolumeId(server.raw()),
            self_inval: false,
        }
    }
}

/// Everything that can happen *to* the client machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientInput {
    /// A wire message arrived from the server.
    Msg(ServerMsg),
    /// The application asked to read `object`. Reissue this input to
    /// resend lapsed-lease requests after a timeout.
    Read {
        /// The object to read.
        object: ObjectId,
    },
    /// The transport re-established the server connection. The machine
    /// probes with a volume-lease request carrying its current epoch:
    /// if the server restarted (epoch bumped) or demoted us to its
    /// Unreachable set while we were away, the reply is
    /// `MUST_RENEW_ALL` and the full reconnection handshake runs;
    /// otherwise it is a cheap renewal.
    Reconnected,
    /// The driver re-aimed this volume at another server (a newer shard
    /// map; a `WRONG_SHARD` message does the same by itself). The
    /// volume lease is void — it was the old owner's — but the epoch is
    /// kept: the probe that goes out carries it, so a handoff that
    /// bumped the epoch is answered with `MUST_RENEW_ALL`, the resync
    /// wanted. Cached copies and object leases stay for that resync.
    Rerouted,
}

/// Everything the client machine can ask its driver to do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientAction {
    /// Encode and transmit `msg` to the configured server.
    Send(ClientMsg),
    /// A read completed from valid leases; hand `data` to the reader.
    DeliverRead {
        /// The object read.
        object: ObjectId,
        /// Its contents.
        data: Bytes,
        /// Whether the read was served without any server exchange.
        local: bool,
    },
}

/// One cached copy and the object lease over it.
#[cfg_attr(test, derive(Clone))]
struct CachedCopy {
    version: Version,
    /// Object-lease expiry.
    expire: Timestamp,
    data: Bytes,
}

/// The client state machine: Figure 4 — read from cache only under
/// valid object *and* volume leases, renew what lapsed, ack
/// invalidations, and run the client half of the reconnection protocol —
/// with every effect returned as data.
#[cfg_attr(test, derive(Clone))]
pub struct ClientMachine {
    cfg: ClientMachineConfig,
    epoch: Epoch,
    vol_expire: Timestamp,
    /// The objects cached, ascending, so that iteration (the
    /// `RENEW_OBJ_LEASES` report) is deterministic — a requirement for
    /// bit-reproducible simulation. A dropped copy keeps its slot, dead,
    /// for the refetch that usually follows an invalidation to revive;
    /// once dead slots outnumber live ones they are compacted away, so
    /// there are never more than twice as many slots as copies.
    cached: Vec<ObjectId>,
    /// `copies[i]` is the copy of `cached[i]`; `None` is a dead slot.
    copies: Vec<Option<CachedCopy>>,
    /// How many of `copies` are dead.
    dead: usize,
    stats: ClientStats,
    generation: u64,
}

impl std::fmt::Debug for ClientMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientMachine")
            .field("client", &self.cfg.client)
            .field("epoch", &self.epoch)
            .field("cached", &(self.cached.len() - self.dead))
            .finish()
    }
}

impl ClientMachine {
    /// Creates an empty cache at epoch 0.
    pub fn new(cfg: ClientMachineConfig) -> ClientMachine {
        ClientMachine {
            cfg,
            epoch: Epoch::default(),
            vol_expire: Timestamp::ZERO,
            cached: Vec::new(),
            copies: Vec::new(),
            dead: 0,
            stats: ClientStats::default(),
            generation: 0,
        }
    }

    /// The configuration this machine was built with.
    pub fn config(&self) -> &ClientMachineConfig {
        &self.cfg
    }

    /// Whether the volume lease is valid at `now`.
    pub fn vol_ok(&self, now: Timestamp) -> bool {
        // Self-invalidation has no volume leases: only the per-object
        // drop-deadline gates a cached read.
        self.cfg.self_inval || self.vol_expire > now
    }

    fn copy(&self, object: ObjectId) -> Option<&CachedCopy> {
        let i = self.cached.binary_search(&object).ok()?;
        self.copies[i].as_ref()
    }

    fn copy_mut(&mut self, object: ObjectId) -> Option<&mut CachedCopy> {
        let i = self.cached.binary_search(&object).ok()?;
        self.copies[i].as_mut()
    }

    fn obj_ok(&self, object: ObjectId, now: Timestamp) -> bool {
        self.copy(object).is_some_and(|c| c.expire > now)
    }

    /// Frees `object`'s copy and leaves its slot dead.
    fn drop_copy(&mut self, object: ObjectId) {
        let Ok(i) = self.cached.binary_search(&object) else {
            return;
        };
        if self.copies[i].take().is_none() {
            return;
        }
        self.dead += 1;
        if self.dead > self.cached.len() - self.dead {
            let mut live = self.copies.iter().map(Option::is_some);
            self.cached.retain(|_| live.next() == Some(true));
            self.copies.retain(Option::is_some);
            self.dead = 0;
        }
    }

    /// Advances the machine by one input and returns the actions the
    /// driver must execute, in order.
    pub fn handle(&mut self, now: Timestamp, input: ClientInput) -> Vec<ClientAction> {
        let mut actions = Vec::new();
        match input {
            ClientInput::Read { object } => {
                if let Some(data) = self.read_ready(now, object) {
                    self.stats.local_reads += 1;
                    actions.push(ClientAction::DeliverRead {
                        object,
                        data,
                        local: true,
                    });
                } else {
                    // Like the fourth case of Figure 4's client, lapsed
                    // volume and object leases are requested together —
                    // the grants are independent.
                    if !self.vol_ok(now) {
                        actions.push(ClientAction::Send(ClientMsg::ReqVolLease {
                            volume: self.cfg.volume,
                            epoch: self.epoch,
                        }));
                    }
                    let copy = self.copy(object);
                    if copy.is_none_or(|c| c.expire <= now) {
                        let version = copy.map_or(Version::NONE, |c| c.version);
                        actions.push(ClientAction::Send(ClientMsg::ReqObjLease {
                            object,
                            version,
                        }));
                    }
                }
            }
            ClientInput::Reconnected => self.probe(&mut actions),
            ClientInput::Rerouted => {
                self.vol_expire = Timestamp::ZERO;
                self.probe(&mut actions);
            }
            ClientInput::Msg(msg) => self.handle_msg(msg, &mut actions),
        }
        actions
    }

    /// Asks for the volume lease with the epoch last seen. Under
    /// self-invalidation there is no volume lease to probe with: cached
    /// copies are governed purely by their deadlines, so neither a
    /// reconnection nor a re-route needs a handshake.
    fn probe(&self, actions: &mut Vec<ClientAction>) {
        if !self.cfg.self_inval {
            actions.push(ClientAction::Send(ClientMsg::ReqVolLease {
                volume: self.cfg.volume,
                epoch: self.epoch,
            }));
        }
    }

    fn handle_msg(&mut self, msg: ServerMsg, actions: &mut Vec<ClientAction>) {
        match msg {
            ServerMsg::Invalidate { object } => {
                self.drop_copy(object);
                self.stats.invalidations += 1;
                actions.push(ClientAction::Send(ClientMsg::AckInvalidate { object }));
            }
            ServerMsg::ObjLease {
                object,
                version,
                expire,
                data,
            } => match (self.cached.binary_search(&object), data) {
                (Ok(i), Some(data)) => {
                    let slot = &mut self.copies[i];
                    self.dead -= usize::from(slot.is_none());
                    *slot = Some(CachedCopy {
                        version,
                        expire,
                        data,
                    });
                }
                (Ok(i), None) => {
                    // A lease on a dropped copy has nothing to read.
                    if let Some(copy) = &mut self.copies[i] {
                        debug_assert_eq!(
                            copy.version, version,
                            "no-data grant implies same version"
                        );
                        copy.expire = expire;
                    }
                }
                (Err(i), Some(data)) => {
                    self.cached.insert(i, object);
                    let copy = CachedCopy {
                        version,
                        expire,
                        data,
                    };
                    self.copies.insert(i, Some(copy));
                }
                // A lease on nothing cached: there is no copy to read.
                (Err(_), None) => {}
            },
            ServerMsg::VolLease {
                volume,
                expire,
                epoch,
                invalidate,
            } => {
                if volume == self.cfg.volume {
                    let had_batch = !invalidate.is_empty();
                    for object in invalidate {
                        self.drop_copy(object);
                        self.stats.batched_invalidations += 1;
                    }
                    self.vol_expire = expire;
                    if epoch != self.epoch {
                        self.stats.epoch_changes += 1;
                    }
                    self.epoch = epoch;
                    if had_batch {
                        actions.push(ClientAction::Send(ClientMsg::AckVolBatch { volume }));
                    }
                }
            }
            ServerMsg::MustRenewAll { volume } => {
                if volume == self.cfg.volume {
                    // Our volume lease is void; report every cached
                    // object with its version (Figure 4).
                    self.vol_expire = Timestamp::ZERO;
                    let slots = self.cached.iter().zip(&self.copies);
                    let leases: Vec<(ObjectId, Version)> = slots
                        .filter_map(|(&o, c)| Some((o, c.as_ref()?.version)))
                        .collect();
                    actions.push(ClientAction::Send(ClientMsg::RenewObjLeases {
                        volume,
                        leases,
                    }));
                }
            }
            ServerMsg::InvalRenew {
                volume,
                invalidate,
                renew,
            } => {
                if volume == self.cfg.volume {
                    for object in invalidate {
                        self.drop_copy(object);
                        self.stats.batched_invalidations += 1;
                    }
                    for (object, version, expire) in renew {
                        if let Some(copy) = self.copy_mut(object) {
                            debug_assert_eq!(copy.version, version);
                            copy.expire = expire;
                        }
                    }
                    self.stats.reconnections += 1;
                    actions.push(ClientAction::Send(ClientMsg::AckVolBatch { volume }));
                }
            }
            // Where the volume lives now is the driver's business (it
            // sends the probe to the new owner); what a move does to
            // the lease state is the machine's.
            ServerMsg::WrongShard { volume, .. } => {
                if volume == self.cfg.volume {
                    self.vol_expire = Timestamp::ZERO;
                    self.probe(actions);
                }
            }
        }
        self.generation += 1;
    }

    /// The cached copy of `object` if both leases covering it are valid
    /// at `now` — the pure read-fast-path check. Does not touch stats.
    pub fn read_ready(&self, now: Timestamp, object: ObjectId) -> Option<Bytes> {
        let copy = self.copy(object).filter(|c| c.expire > now)?;
        self.vol_ok(now).then(|| copy.data.clone())
    }

    /// Completes a pending (non-local) read: if both leases are valid at
    /// `now`, counts a remote read and returns the data.
    ///
    /// Drivers call this after [`ClientMachine::handle`] with
    /// [`ClientInput::Read`] returned sends and a later message made the
    /// leases whole.
    pub fn complete_read(&mut self, now: Timestamp, object: ObjectId) -> Option<Bytes> {
        let data = self.read_ready(now, object)?;
        self.stats.remote_reads += 1;
        Some(data)
    }

    /// Returns the cached copy *without* lease validation — the
    /// "return suspect data with a warning" client policy. `None` if
    /// nothing is cached.
    pub fn read_suspect(&self, object: ObjectId) -> Option<Bytes> {
        self.copy(object).map(|c| c.data.clone())
    }

    /// The version this client has cached for `object`.
    pub fn cached_version(&self, object: ObjectId) -> Option<Version> {
        self.copy(object).map(|c| c.version)
    }

    /// Whether both leases covering `object` are currently valid.
    pub fn holds_valid_leases(&self, now: Timestamp, object: ObjectId) -> bool {
        self.vol_ok(now) && self.obj_ok(object, now)
    }

    /// The server epoch this client last observed in a volume grant.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Mutable statistics, for driver-maintained timing counters.
    pub fn stats_mut(&mut self) -> &mut ClientStats {
        &mut self.stats
    }

    /// Bumped on every handled server message; drivers use it to detect
    /// progress between condvar wakeups.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

#[cfg(test)]
impl ClientMachine {
    /// The state the protocol reads — epoch, volume lease, live copies —
    /// as text, for a search to tell states it has seen.
    pub(super) fn fingerprint(&self, out: &mut String) {
        use std::fmt::Write;
        let _ = write!(out, "{:?} {:?}", self.epoch, self.vol_expire);
        for (object, copy) in self.cached.iter().zip(&self.copies) {
            if let Some(c) = copy {
                let _ = write!(
                    out,
                    " {object:?}:{:?}@{:?}={:?}",
                    c.version, c.expire, c.data
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ClientMachineConfig {
        ClientMachineConfig::new(ClientId(1), ServerId(0))
    }

    fn grant_both(m: &mut ClientMachine, object: ObjectId, expire: Timestamp) {
        m.handle(
            Timestamp::ZERO,
            ClientInput::Msg(ServerMsg::VolLease {
                volume: m.cfg.volume,
                expire,
                epoch: Epoch(0),
                invalidate: Vec::new(),
            }),
        );
        m.handle(
            Timestamp::ZERO,
            ClientInput::Msg(ServerMsg::ObjLease {
                object,
                version: Version::FIRST,
                expire,
                data: Some(Bytes::from_static(b"v1")),
            }),
        );
    }

    #[test]
    fn cold_read_requests_both_leases() {
        let mut m = ClientMachine::new(cfg());
        let actions = m.handle(
            Timestamp::ZERO,
            ClientInput::Read {
                object: ObjectId(1),
            },
        );
        assert_eq!(actions.len(), 2);
        assert!(matches!(
            actions[0],
            ClientAction::Send(ClientMsg::ReqVolLease { .. })
        ));
        assert!(matches!(
            actions[1],
            ClientAction::Send(ClientMsg::ReqObjLease {
                version: Version::NONE,
                ..
            })
        ));
    }

    #[test]
    fn warm_read_is_local_until_a_lease_lapses() {
        let mut m = ClientMachine::new(cfg());
        grant_both(&mut m, ObjectId(1), Timestamp::from_secs(10));
        let actions = m.handle(
            Timestamp::from_secs(5),
            ClientInput::Read {
                object: ObjectId(1),
            },
        );
        assert!(matches!(
            actions[0],
            ClientAction::DeliverRead { local: true, .. }
        ));
        assert_eq!(m.stats().local_reads, 1);
        // After the leases expire only the lapsed leases are re-requested.
        let actions = m.handle(
            Timestamp::from_secs(10),
            ClientInput::Read {
                object: ObjectId(1),
            },
        );
        assert_eq!(actions.len(), 2);
        // The object request carries the cached version so an unchanged
        // object is granted without data.
        assert!(matches!(
            actions[1],
            ClientAction::Send(ClientMsg::ReqObjLease {
                version: Version::FIRST,
                ..
            })
        ));
    }

    #[test]
    fn invalidate_drops_copy_and_acks() {
        let mut m = ClientMachine::new(cfg());
        grant_both(&mut m, ObjectId(1), Timestamp::from_secs(10));
        let actions = m.handle(
            Timestamp::from_secs(1),
            ClientInput::Msg(ServerMsg::Invalidate {
                object: ObjectId(1),
            }),
        );
        assert_eq!(
            actions,
            vec![ClientAction::Send(ClientMsg::AckInvalidate {
                object: ObjectId(1)
            })]
        );
        assert!(m.read_suspect(ObjectId(1)).is_none());
        assert_eq!(m.stats().invalidations, 1);
    }

    #[test]
    fn must_renew_all_voids_volume_and_reports_cache() {
        let mut m = ClientMachine::new(cfg());
        grant_both(&mut m, ObjectId(1), Timestamp::from_secs(10));
        let actions = m.handle(
            Timestamp::from_secs(1),
            ClientInput::Msg(ServerMsg::MustRenewAll {
                volume: m.cfg.volume,
            }),
        );
        match &actions[0] {
            ClientAction::Send(ClientMsg::RenewObjLeases { leases, .. }) => {
                assert_eq!(leases, &vec![(ObjectId(1), Version::FIRST)]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(!m.holds_valid_leases(Timestamp::from_secs(1), ObjectId(1)));
    }

    #[test]
    fn batched_invalidations_are_acked() {
        let mut m = ClientMachine::new(cfg());
        grant_both(&mut m, ObjectId(1), Timestamp::from_secs(10));
        let actions = m.handle(
            Timestamp::from_secs(1),
            ClientInput::Msg(ServerMsg::VolLease {
                volume: m.cfg.volume,
                expire: Timestamp::from_secs(12),
                epoch: Epoch(0),
                invalidate: vec![ObjectId(1)],
            }),
        );
        assert!(matches!(
            actions[0],
            ClientAction::Send(ClientMsg::AckVolBatch { .. })
        ));
        assert!(m.read_suspect(ObjectId(1)).is_none());
        assert_eq!(m.stats().batched_invalidations, 1);
    }

    #[test]
    fn reconnected_probes_with_current_epoch() {
        let mut m = ClientMachine::new(cfg());
        grant_both(&mut m, ObjectId(1), Timestamp::from_secs(10));
        let actions = m.handle(Timestamp::from_secs(1), ClientInput::Reconnected);
        assert_eq!(
            actions,
            vec![ClientAction::Send(ClientMsg::ReqVolLease {
                volume: m.cfg.volume,
                epoch: Epoch(0),
            })]
        );
    }

    #[test]
    fn reroute_voids_the_volume_lease_and_probes_with_the_old_epoch() {
        let redirect = || {
            ClientInput::Msg(ServerMsg::WrongShard {
                volume: cfg().volume,
                owner: ServerId(1),
                map_version: 0,
                servers: Vec::new(),
            })
        };
        for input in [redirect(), ClientInput::Rerouted] {
            let mut m = ClientMachine::new(cfg());
            grant_both(&mut m, ObjectId(1), Timestamp::from_secs(10));
            m.handle(
                Timestamp::ZERO,
                ClientInput::Msg(ServerMsg::VolLease {
                    volume: m.cfg.volume,
                    expire: Timestamp::from_secs(10),
                    epoch: Epoch(4),
                    invalidate: Vec::new(),
                }),
            );
            let now = Timestamp::from_secs(1);
            assert!(m.holds_valid_leases(now, ObjectId(1)));
            let actions = m.handle(now, input);
            assert_eq!(
                actions,
                vec![ClientAction::Send(ClientMsg::ReqVolLease {
                    volume: m.cfg.volume,
                    epoch: Epoch(4),
                })],
                "exactly one probe, carrying the epoch the old owner gave us"
            );
            assert_eq!(m.epoch(), Epoch(4), "epoch kept");
            assert!(!m.holds_valid_leases(now, ObjectId(1)), "volume lease void");
            // The copy and its object lease survive for the resync: a
            // fresh volume lease alone makes the object readable again.
            assert_eq!(m.cached_version(ObjectId(1)), Some(Version::FIRST));
            m.handle(
                now,
                ClientInput::Msg(ServerMsg::VolLease {
                    volume: m.cfg.volume,
                    expire: Timestamp::from_secs(10),
                    epoch: Epoch(4),
                    invalidate: Vec::new(),
                }),
            );
            assert!(m.read_ready(now, ObjectId(1)).is_some());
        }
        // A redirect for some other volume is not ours to act on.
        let mut m = ClientMachine::new(cfg());
        grant_both(&mut m, ObjectId(1), Timestamp::from_secs(10));
        let other = ClientInput::Msg(ServerMsg::WrongShard {
            volume: VolumeId(99),
            owner: ServerId(1),
            map_version: 0,
            servers: Vec::new(),
        });
        assert!(m.handle(Timestamp::from_secs(1), other).is_empty());
        assert!(m.holds_valid_leases(Timestamp::from_secs(1), ObjectId(1)));
        // Self-invalidation has no volume lease to void or probe for.
        let mut m = ClientMachine::new(ClientMachineConfig {
            self_inval: true,
            ..cfg()
        });
        assert!(m.handle(Timestamp::ZERO, redirect()).is_empty());
        assert!(m.handle(Timestamp::ZERO, ClientInput::Rerouted).is_empty());
    }

    #[test]
    fn self_inval_reads_ride_on_the_deadline_alone() {
        let mut m = ClientMachine::new(ClientMachineConfig {
            self_inval: true,
            ..cfg()
        });
        // Cold read: only the object request goes out — there is no
        // volume lease in this protocol.
        let actions = m.handle(
            Timestamp::ZERO,
            ClientInput::Read {
                object: ObjectId(1),
            },
        );
        assert_eq!(actions.len(), 1);
        assert!(matches!(
            actions[0],
            ClientAction::Send(ClientMsg::ReqObjLease { .. })
        ));
        m.handle(
            Timestamp::ZERO,
            ClientInput::Msg(ServerMsg::ObjLease {
                object: ObjectId(1),
                version: Version::FIRST,
                expire: Timestamp::from_secs(10),
                data: Some(Bytes::from_static(b"v1")),
            }),
        );
        // Readable straight from cache until the deadline...
        assert!(m.holds_valid_leases(Timestamp::from_secs(9), ObjectId(1)));
        assert!(m.read_ready(Timestamp::from_secs(9), ObjectId(1)).is_some());
        // ...and dead at it, with no invalidation ever received.
        assert!(!m.holds_valid_leases(Timestamp::from_secs(10), ObjectId(1)));
        // Reconnection needs no probe: deadlines govern everything.
        assert!(m
            .handle(Timestamp::from_secs(5), ClientInput::Reconnected)
            .is_empty());
    }

    fn obj_lease(object: u64, expire: Timestamp, data: Option<&'static [u8]>) -> ClientInput {
        ClientInput::Msg(ServerMsg::ObjLease {
            object: ObjectId(object),
            version: Version::FIRST,
            expire,
            data: data.map(Bytes::from_static),
        })
    }

    #[test]
    fn a_lease_without_data_on_an_uncached_object_caches_nothing() {
        let mut m = ClientMachine::new(cfg());
        grant_both(&mut m, ObjectId(1), Timestamp::from_secs(10));
        let now = Timestamp::from_secs(1);
        m.handle(now, obj_lease(2, Timestamp::from_secs(10), None));
        assert_eq!(m.cached_version(ObjectId(2)), None);
        assert!(!m.holds_valid_leases(now, ObjectId(2)));
        // A later copy is not made readable by that lease either: it
        // brings its own.
        m.handle(now, obj_lease(2, Timestamp::from_secs(2), Some(b"v1")));
        assert!(!m.holds_valid_leases(Timestamp::from_secs(3), ObjectId(2)));
        assert_eq!(m.cached, [ObjectId(1), ObjectId(2)]);
    }

    #[test]
    fn renew_obj_leases_lists_objects_ascending_whatever_the_fill_order() {
        let mut m = ClientMachine::new(cfg());
        let expire = Timestamp::from_secs(10);
        for o in [9, 3, 14, 1, 7, 12, 5] {
            m.handle(Timestamp::ZERO, obj_lease(o, expire, Some(b"v1")));
        }
        let volume = m.cfg.volume;
        let actions = m.handle(
            Timestamp::from_secs(1),
            ClientInput::Msg(ServerMsg::MustRenewAll { volume }),
        );
        let listed: Vec<ObjectId> = match &actions[..] {
            [ClientAction::Send(ClientMsg::RenewObjLeases { leases, .. })] => {
                leases.iter().map(|&(o, _)| o).collect()
            }
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(listed, [1, 3, 5, 7, 9, 12, 14].map(ObjectId));
    }

    #[test]
    fn invalidate_then_refetch_leaves_one_entry() {
        let mut m = ClientMachine::new(cfg());
        let expire = Timestamp::from_secs(10);
        grant_both(&mut m, ObjectId(1), expire);
        let now = Timestamp::from_secs(1);
        m.handle(
            now,
            ClientInput::Msg(ServerMsg::Invalidate {
                object: ObjectId(1),
            }),
        );
        m.handle(
            now,
            ClientInput::Msg(ServerMsg::ObjLease {
                object: ObjectId(1),
                version: Version(2),
                expire,
                data: Some(Bytes::from_static(b"v2")),
            }),
        );
        assert_eq!(m.cached, [ObjectId(1)]);
        assert_eq!(m.copies.len(), 1);
        assert_eq!(m.read_ready(now, ObjectId(1)).as_deref(), Some(&b"v2"[..]));
        assert_eq!(m.cached_version(ObjectId(1)), Some(Version(2)));
    }

    fn invalidate(m: &mut ClientMachine, object: u64) {
        let msg = ServerMsg::Invalidate {
            object: ObjectId(object),
        };
        m.handle(Timestamp::from_secs(1), ClientInput::Msg(msg));
    }

    /// Caches objects 1–4 under valid leases.
    fn four_copies() -> ClientMachine {
        let mut m = ClientMachine::new(cfg());
        for o in 1..=4 {
            grant_both(&mut m, ObjectId(o), Timestamp::from_secs(10));
        }
        m
    }

    #[test]
    fn a_refetch_after_an_invalidation_revives_the_dropped_slot() {
        let mut m = four_copies();
        invalidate(&mut m, 2);
        assert_eq!(m.cached, [1, 2, 3, 4].map(ObjectId), "the slot stays");
        assert!(m.copies[1].is_none(), "its copy is freed");
        assert_eq!((m.dead, m.cached_version(ObjectId(2))), (1, None));
        let now = Timestamp::from_secs(1);
        let refetch = ServerMsg::ObjLease {
            object: ObjectId(2),
            version: Version(2),
            expire: Timestamp::from_secs(10),
            data: Some(Bytes::from_static(b"v2")),
        };
        m.handle(now, ClientInput::Msg(refetch));
        assert_eq!(m.cached, [1, 2, 3, 4].map(ObjectId));
        assert_eq!((m.copies.len(), m.dead), (4, 0));
        assert_eq!(m.read_ready(now, ObjectId(2)).as_deref(), Some(&b"v2"[..]));
    }

    #[test]
    fn renew_obj_leases_leaves_out_dropped_copies() {
        let mut m = four_copies();
        invalidate(&mut m, 3);
        invalidate(&mut m, 1);
        assert_eq!(m.cached.len(), 4, "two dead of four: not yet compacted");
        let volume = m.cfg.volume;
        let actions = m.handle(
            Timestamp::from_secs(1),
            ClientInput::Msg(ServerMsg::MustRenewAll { volume }),
        );
        let leases = vec![(ObjectId(2), Version::FIRST), (ObjectId(4), Version::FIRST)];
        let want = ClientAction::Send(ClientMsg::RenewObjLeases { volume, leases });
        assert_eq!(actions, [want]);
        // A renewal the exchange grants for a dropped copy revives
        // nothing.
        let renew = vec![(ObjectId(3), Version::FIRST, Timestamp::from_secs(20))];
        let reply = ServerMsg::InvalRenew {
            volume,
            invalidate: Vec::new(),
            renew,
        };
        m.handle(Timestamp::from_secs(1), ClientInput::Msg(reply));
        assert_eq!(m.cached_version(ObjectId(3)), None);
    }

    #[test]
    fn a_lease_without_data_on_a_dropped_copy_caches_nothing() {
        let mut m = four_copies();
        invalidate(&mut m, 2);
        let now = Timestamp::from_secs(1);
        m.handle(now, obj_lease(2, Timestamp::from_secs(10), None));
        assert_eq!((m.cached_version(ObjectId(2)), m.dead), (None, 1));
        assert!(!m.holds_valid_leases(now, ObjectId(2)));
        assert!(m.read_suspect(ObjectId(2)).is_none());
        // The read that follows asks for the data.
        let actions = m.handle(
            now,
            ClientInput::Read {
                object: ObjectId(2),
            },
        );
        let version = Version::NONE;
        let want = ClientMsg::ReqObjLease {
            object: ObjectId(2),
            version,
        };
        assert_eq!(actions, [ClientAction::Send(want)]);
    }

    #[test]
    fn dead_slots_are_compacted_once_they_outnumber_live_ones() {
        let mut m = four_copies();
        for o in [4, 2] {
            invalidate(&mut m, o);
        }
        assert_eq!((m.cached.len(), m.dead), (4, 2));
        invalidate(&mut m, 1);
        assert_eq!(m.cached, [ObjectId(3)], "compacted in order");
        assert_eq!((m.copies.len(), m.dead), (1, 0));
        assert_eq!(m.cached_version(ObjectId(3)), Some(Version::FIRST));
        // Dropping the last copy leaves no slot at all, and an
        // invalidation for it again changes nothing.
        invalidate(&mut m, 3);
        invalidate(&mut m, 3);
        assert!(m.cached.is_empty() && m.copies.is_empty());
        assert_eq!(m.dead, 0);
    }

    #[test]
    fn epoch_bump_in_a_grant_is_counted() {
        let mut m = ClientMachine::new(cfg());
        grant_both(&mut m, ObjectId(1), Timestamp::from_secs(10));
        assert_eq!(m.stats().epoch_changes, 0, "same epoch, no change");
        m.handle(
            Timestamp::from_secs(1),
            ClientInput::Msg(ServerMsg::VolLease {
                volume: m.cfg.volume,
                expire: Timestamp::from_secs(12),
                epoch: Epoch(3),
                invalidate: Vec::new(),
            }),
        );
        assert_eq!(m.epoch(), Epoch(3));
        assert_eq!(m.stats().epoch_changes, 1);
    }
}
