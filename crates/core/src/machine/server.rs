//! The server half of the protocol as a pure state machine (Figure 3),
//! generalized to host many volumes so a shard-mapped fleet can move
//! volumes between servers with the paper's own crash-recovery trick:
//! the losing server bumps the volume epoch, the gaining server gates
//! writes until every lease the loser granted has expired, and clients
//! re-sync through the ordinary `MUST_RENEW_ALL` reconnection path.
//!
//! State is two tables. Per object, Figure 2's `at` set of lease
//! holders. Per volume, one row per client ([`ClientState`]): its
//! volume-lease expiry, its [`Link`] — membership in Figure 3's
//! *Unreachable* set and how far the reconnection exchange has got —
//! its membership in *Inactive* with the invalidations queued for it,
//! and the object leases it holds. A handler reads and writes that one
//! row, and matches `Link` without a wildcard: adding a state, or a
//! message, is a compile error until every combination has an answer.

use super::{MachineConfig, StableState, WriteMode, WriteOutcome};
use bytes::Bytes;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use vl_proto::{ClientMsg, PeerMsg, ServerMsg};
use vl_types::{
    ClientId, Duration, Epoch, LeaseSet, ObjectId, ServerId, ShardMap, Timestamp, Version, VolumeId,
};

/// Point-in-time server statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Messages received / sent.
    pub msgs_in: u64,
    /// Messages sent.
    pub msgs_out: u64,
    /// Completed writes.
    pub writes: u64,
    /// Largest write delay observed.
    pub max_write_delay: Duration,
    /// `⟨client, volume⟩` pairs currently in an Unreachable set.
    pub unreachable: usize,
    /// `⟨client, volume⟩` pairs currently inactive with pending
    /// invalidations.
    pub inactive: usize,
    /// Reconnection exchanges completed.
    pub reconnections: u64,
    /// Inactive clients demoted after `d`.
    pub demotions: u64,
    /// Current epoch of the home volume.
    pub epoch: Epoch,
    /// Requests for unknown objects (dropped).
    pub unknown_objects: u64,
    /// Live-path connection drops reported by the transport.
    pub disconnects: u64,
    /// `WRONG_SHARD` redirects sent to clients.
    pub redirects: u64,
    /// Volumes handed off to another server.
    pub handoffs_out: u64,
    /// Volumes adopted from another server.
    pub handoffs_in: u64,
    /// Acks that answered nothing outstanding, counted and ignored: an
    /// `AckInvalidate` for no awaited invalidation (a duplicate, or one
    /// arriving after the lease was re-granted), or an `AckVolBatch`
    /// overtaken by a restarted reconnection exchange.
    pub stale_acks: u64,
}

/// Everything that can happen *to* the server machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServerInput {
    /// A wire message arrived from `from`.
    Msg {
        /// The sending client.
        from: ClientId,
        /// The decoded message.
        msg: ClientMsg,
    },
    /// A peer (server-to-server / coordinator) message arrived.
    Peer {
        /// The sending server (or the rebalance coordinator's id).
        from: ServerId,
        /// The decoded message.
        msg: PeerMsg,
    },
    /// The driver learned a (newer) shard map; the machine uses it to
    /// answer requests for volumes it does not host with
    /// [`ServerMsg::WrongShard`] redirects. Older maps are ignored.
    SetShardMap {
        /// The map to adopt.
        map: ShardMap,
    },
    /// Create an object at the given version. An object that already
    /// exists is left untouched (data, version and leases): a live
    /// object changes only through [`ServerInput::Write`], which
    /// invalidates its lease holders first.
    ///
    /// Live drivers pass [`Version::FIRST`]; a recovery driver restoring
    /// objects from durable storage passes the persisted version so that
    /// returning clients' version checks stay meaningful across a crash.
    CreateObject {
        /// The object to create.
        object: ObjectId,
        /// Its initial contents.
        data: Bytes,
        /// Its initial version.
        version: Version,
    },
    /// A local write request was enqueued.
    Write {
        /// The object to overwrite.
        object: ObjectId,
        /// The new contents.
        data: Bytes,
    },
    /// The transport reports `client`'s connection dropped.
    ///
    /// Safety note: this must **not** revoke or shorten any lease — the
    /// client may be alive behind a partition, still legitimately
    /// serving cached reads until its leases expire by the clock.
    /// The machine only marks the client Unreachable (§3.1.1), forcing
    /// its next volume-lease request through the reconnection
    /// handshake; writes keep waiting leases out by validity.
    PeerDisconnected {
        /// The client whose connection dropped.
        client: ClientId,
    },
    /// Time passed (a timer fired or the driver's tick elapsed). Carries
    /// no data: all time-driven work keys off `now`.
    Tick,
}

/// A timer class the machine may ask its driver to arm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimerKind {
    /// The active (or recovery-gated) write can next make progress.
    WriteWait,
    /// The earliest inactive client becomes due for demotion.
    Demotion,
}

/// Everything the server machine can ask its driver to do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServerAction {
    /// Encode and transmit `msg` to `to`.
    Send {
        /// The destination client.
        to: ClientId,
        /// The message to deliver.
        msg: ServerMsg,
    },
    /// Encode and transmit `msg` to the peer/coordinator `to`.
    SendPeer {
        /// The destination server.
        to: ServerId,
        /// The message to deliver.
        msg: PeerMsg,
    },
    /// Wake the machine (with [`ServerInput::Tick`]) no later than `at`.
    /// Supersedes any earlier timer of the same kind. Drivers that tick
    /// on a short period may ignore these.
    SetTimer {
        /// Which deadline moved.
        kind: TimerKind,
        /// The new deadline.
        at: Timestamp,
    },
    /// Write `state` to stable storage (before any later action takes
    /// effect externally).
    Persist {
        /// The record to persist.
        state: StableState,
    },
    /// The oldest enqueued write has committed with `outcome`. Writes
    /// complete strictly in enqueue order.
    CompleteWrite {
        /// The result to hand to the writer.
        outcome: WriteOutcome,
    },
}

struct ObjState {
    data: Bytes,
    version: Version,
    leases: LeaseSet,
    /// Clients the latest write sent an `INVALIDATE` and that have
    /// neither acked it nor been granted a lease since. Acks carry no
    /// version, so this is what ties an ack to the lease it answers.
    awaiting_ack: BTreeSet<ClientId>,
    /// The volume this object belongs to; handoff moves a volume's
    /// objects as a unit.
    volume: VolumeId,
}

impl ObjState {
    fn new(data: Bytes, version: Version, volume: VolumeId) -> ObjState {
        ObjState {
            data,
            version,
            leases: LeaseSet::new(),
            awaiting_ack: BTreeSet::new(),
            volume,
        }
    }

    /// Records a lease for `client`; whatever ack it still owed
    /// answered an older lease than this one.
    fn grant(&mut self, client: ClientId, expire: Timestamp) {
        self.leases.grant(client, expire);
        self.awaiting_ack.remove(&client);
    }
}

/// Membership in Figure 3's *Inactive* set: the volume lease lapsed at
/// `since` and `pending` invalidations wait for the next renewal (§3.2).
struct Inactive {
    since: Timestamp,
    pending: BTreeSet<ObjectId>,
}

/// Where a client stands with respect to Figure 3's *Unreachable* set
/// and the reconnection exchange (§3.1.1). Every handler that reads it
/// matches all four states: what a message means in each one is decided
/// where the message is handled, never by a fall-through.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Link {
    /// Not in Unreachable: volume-lease requests are granted directly.
    #[default]
    Reachable,
    /// In Unreachable, no exchange in progress; the next
    /// `REQ_VOL_LEASE` starts one.
    Unreachable,
    /// In Unreachable, `MUST_RENEW_ALL` sent; waiting for
    /// `RENEW_OBJ_LEASES`.
    AwaitLeaseSet,
    /// In Unreachable, `INVALIDATE+RENEW` sent; waiting for the batch
    /// ack.
    AwaitAck,
}

impl Link {
    /// Membership in Figure 3's *Unreachable* set.
    fn in_unreachable_set(self) -> bool {
        match self {
            Link::Reachable => false,
            Link::Unreachable | Link::AwaitLeaseSet | Link::AwaitAck => true,
        }
    }

    /// Figure 3's `unreachable ← unreachable ∪ {client}`; an exchange
    /// already under way keeps its place.
    fn mark_unreachable(&mut self) {
        *self = match *self {
            Link::Reachable | Link::Unreachable => Link::Unreachable,
            Link::AwaitLeaseSet => Link::AwaitLeaseSet,
            Link::AwaitAck => Link::AwaitAck,
        };
    }
}

/// Everything the server knows about one client in one volume — the
/// row Figure 3 spreads over its volume `at` set, *Inactive* and
/// *Unreachable*.
#[derive(Default)]
struct ClientState {
    /// Volume-lease expiry; `None` until the first grant.
    lease: Option<Timestamp>,
    link: Link,
    /// Queued invalidations; `Some` is membership in *Inactive*.
    queued: Option<Box<Inactive>>,
    /// This volume's objects the client was granted a lease on and has
    /// not acked away: what demotion revokes.
    held: BTreeSet<ObjectId>,
}

impl ClientState {
    fn lease_valid(&self, now: Timestamp) -> bool {
        self.lease.is_some_and(|e| e > now)
    }

    /// Grants the volume lease until `expire` and builds the
    /// `VOL_LEASE` that says so, carrying every queued invalidation.
    /// The queue stays until the client acks, so a lost reply cannot
    /// lose them.
    fn grant(&mut self, volume: VolumeId, epoch: Epoch, expire: Timestamp) -> ServerMsg {
        self.lease = Some(expire);
        let queued = self.queued.iter().flat_map(|i| &i.pending);
        ServerMsg::VolLease {
            volume,
            expire,
            epoch,
            invalidate: queued.copied().collect(),
        }
    }
}

/// Per-volume protocol state: the paper's single-server state, one copy
/// per hosted volume. `write_gate` generalizes the crash-recovery gate
/// (§3.1.2): writes to the volume are delayed until it passes, whether
/// the gate came from a reboot or from adopting the volume in a
/// handoff.
struct VolumeState {
    epoch: Epoch,
    write_gate: Timestamp,
    // BTreeMap: demotion scans iterate this, and deterministic iteration
    // keeps simulation runs bit-reproducible.
    clients: BTreeMap<ClientId, ClientState>,
}

impl VolumeState {
    fn fresh(epoch: Epoch, write_gate: Timestamp) -> VolumeState {
        VolumeState {
            epoch,
            write_gate,
            clients: BTreeMap::new(),
        }
    }
}

struct ActiveWrite {
    object: ObjectId,
    volume: VolumeId,
    data: Bytes,
    outstanding: BTreeSet<ClientId>,
    started: Timestamp,
    invalidations_sent: usize,
    queued: usize,
    waited_out: usize,
    /// Lease requests touching `object` that arrived mid-write. Granting
    /// them immediately would hand out a fresh lease on the about-to-be
    /// overwritten data to a client the writer never contacts — a stale
    /// lease the moment the write commits. They are replayed after the
    /// commit instead.
    deferred: Vec<(ClientId, ClientMsg)>,
}

/// The server state machine: Figure 3 plus the reconnection protocol
/// (§3.1.1), epoch-based crash recovery (§3.1.2), delayed invalidations
/// (§3.2), and multi-volume hosting with epoch-bumped volume handoff,
/// with every effect returned as data.
///
/// Drivers feed it [`ServerInput`]s tagged with the current time and
/// execute the returned [`ServerAction`]s; see the module docs for the
/// contract.
pub struct ServerMachine {
    cfg: MachineConfig,
    /// Hosted volumes. The home volume ([`MachineConfig::volume`]) is
    /// seeded at boot; others arrive by handoff.
    volumes: BTreeMap<VolumeId, VolumeState>,
    objects: HashMap<ObjectId, ObjState>,
    /// Forwarding addresses for objects whose volume departed:
    /// `object → (volume, new owner)`.
    moved: HashMap<ObjectId, (VolumeId, ServerId)>,
    /// Volumes this server handed off, and where they went. Redirects
    /// prefer this over the shard map — it is ground truth.
    departed: BTreeMap<VolumeId, ServerId>,
    shard_map: Option<ShardMap>,
    active_write: Option<ActiveWrite>,
    queued_writes: VecDeque<(ObjectId, Bytes, Timestamp)>,
    stats: ServerStats,
    stable_dirty_max: Timestamp,
    /// Last deadline emitted per [`TimerKind`], to suppress duplicates.
    last_timer: [Option<Timestamp>; 2],
}

impl std::fmt::Debug for ServerMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerMachine")
            .field("server", &self.cfg.server)
            .field("epoch", &self.epoch())
            .field("volumes", &self.volumes.len())
            .field("objects", &self.objects.len())
            .field("active_write", &self.active_write.is_some())
            .finish()
    }
}

impl ServerMachine {
    /// Creates the machine, recovering from `stable` if a pre-crash
    /// record exists: the home volume's epoch is bumped and writes are
    /// delayed until every pre-crash volume lease has expired (§3.1.2).
    ///
    /// The returned actions (a [`ServerAction::Persist`] of the new
    /// stable record) must be executed before the machine serves input.
    pub fn new(
        cfg: MachineConfig,
        stable: Option<StableState>,
    ) -> (ServerMachine, Vec<ServerAction>) {
        let (epoch, recovery_until, record) = match stable {
            Some(rec) => {
                // Reboot: bump the epoch and wait out pre-crash leases.
                let epoch = rec.epoch.next();
                let record = StableState {
                    epoch,
                    max_volume_expiry: rec.max_volume_expiry,
                };
                (epoch, rec.max_volume_expiry, record)
            }
            None => (Epoch::default(), Timestamp::ZERO, StableState::default()),
        };
        let mut volumes = BTreeMap::new();
        volumes.insert(cfg.volume, VolumeState::fresh(epoch, recovery_until));
        let machine = ServerMachine {
            cfg,
            volumes,
            objects: HashMap::new(),
            moved: HashMap::new(),
            departed: BTreeMap::new(),
            shard_map: None,
            active_write: None,
            queued_writes: VecDeque::new(),
            stats: ServerStats {
                epoch,
                ..ServerStats::default()
            },
            stable_dirty_max: Timestamp::ZERO,
            last_timer: [None, None],
        };
        (machine, vec![ServerAction::Persist { state: record }])
    }

    /// The configuration this machine was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The home volume's current epoch. After the home volume departs in
    /// a handoff this keeps reporting the bumped (departure) epoch.
    pub fn epoch(&self) -> Epoch {
        self.volumes
            .get(&self.cfg.volume)
            .map_or(self.stats.epoch, |vs| vs.epoch)
    }

    /// The instant before which writes to the home volume stay
    /// recovery-gated (§3.1.2); [`Timestamp::ZERO`] on a clean boot.
    pub fn recovery_until(&self) -> Timestamp {
        self.volumes
            .get(&self.cfg.volume)
            .map_or(Timestamp::ZERO, |vs| vs.write_gate)
    }

    /// Whether `volume` is currently hosted here.
    pub fn hosts(&self, volume: VolumeId) -> bool {
        self.volumes.contains_key(&volume)
    }

    /// The shard map the machine currently redirects by, if any.
    pub fn shard_map(&self) -> Option<&ShardMap> {
        self.shard_map.as_ref()
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> ServerStats {
        let mut stats = self.stats;
        stats.epoch = self.epoch();
        for row in self.volumes.values().flat_map(|vs| vs.clients.values()) {
            stats.unreachable += usize::from(row.link.in_unreachable_set());
            stats.inactive += usize::from(row.queued.is_some());
        }
        stats
    }

    /// Advances the machine by one input and returns the actions the
    /// driver must execute, in order.
    pub fn handle(&mut self, now: Timestamp, input: ServerInput) -> Vec<ServerAction> {
        let mut actions = Vec::new();
        match input {
            ServerInput::CreateObject {
                object,
                data,
                version,
            } => {
                self.objects
                    .entry(object)
                    .or_insert_with(|| ObjState::new(data, version, self.cfg.volume));
            }
            ServerInput::Write { object, data } => {
                self.queued_writes.push_back((object, data, now));
            }
            ServerInput::Msg { from, msg } => {
                self.stats.msgs_in += 1;
                self.handle_msg(now, from, msg, &mut actions);
            }
            ServerInput::Peer { from, msg } => {
                self.stats.msgs_in += 1;
                self.handle_peer(now, from, msg, &mut actions);
            }
            ServerInput::SetShardMap { map } => {
                if self
                    .shard_map
                    .as_ref()
                    .is_none_or(|m| map.version() > m.version())
                {
                    self.shard_map = Some(map);
                }
            }
            ServerInput::PeerDisconnected { client } => {
                self.peer_disconnected(client);
            }
            ServerInput::Tick => {}
        }
        self.pump(now, &mut actions);
        actions
    }

    /// Live-path connection loss (§3.1.1). Deliberately *minimal*: the
    /// client keeps every lease it holds (it may be alive behind a
    /// partition, serving cached reads that stay consistent exactly
    /// because we keep waiting its leases out), but it joins the
    /// Unreachable set of every volume that has a row for it, so its
    /// next `REQ_VOL_LEASE` is forced through the full reconnection
    /// handshake. A client with no server-side state is ignored — there
    /// is nothing to resynchronize.
    fn peer_disconnected(&mut self, client: ClientId) {
        let mut newly = false;
        for vs in self.volumes.values_mut() {
            let Some(row) = vs.clients.get_mut(&client) else {
                continue;
            };
            newly |= !row.link.in_unreachable_set();
            // A half-finished handshake died with the connection; the
            // next REQ_VOL_LEASE restarts it from the top.
            row.link = Link::Unreachable;
        }
        if newly {
            self.stats.disconnects += 1;
        }
    }

    /// Post-input progress: start/advance writes, demote overdue
    /// inactive clients, flush the stable record, refresh timers.
    fn pump(&mut self, now: Timestamp, actions: &mut Vec<ServerAction>) {
        loop {
            self.check_write_progress(now, actions);
            if self.active_write.is_some() {
                break;
            }
            let Some(&(object, _, _)) = self.queued_writes.front() else {
                break;
            };
            // Writes complete strictly in enqueue order, so the head's
            // gate blocks the whole queue.
            if let Some(&(_, to)) = self.moved.get(&object) {
                // The object's volume was handed off while the write
                // queued; the writer retries at the new owner.
                let (_, _, enqueued) = self.queued_writes.pop_front().expect("peeked above");
                actions.push(ServerAction::CompleteWrite {
                    outcome: WriteOutcome {
                        delay: now.saturating_sub(enqueued),
                        moved_to: Some(to),
                        ..WriteOutcome::default()
                    },
                });
                continue;
            }
            if now < self.write_gate_for(object) {
                break;
            }
            let (object, data, enqueued) = self.queued_writes.pop_front().expect("peeked above");
            self.start_write(now, object, data, enqueued, actions);
        }
        self.demote_overdue(now);
        if self.stable_dirty_max != Timestamp::ZERO {
            actions.push(ServerAction::Persist {
                state: StableState {
                    epoch: self.epoch(),
                    max_volume_expiry: self.stable_dirty_max,
                },
            });
            self.stable_dirty_max = Timestamp::ZERO;
        }
        self.refresh_timers(now, actions);
    }

    /// The write gate applying to a write of `object`: the gate of its
    /// volume (recovery or adoption), or the home volume's gate for an
    /// object about to be created.
    fn write_gate_for(&self, object: ObjectId) -> Timestamp {
        let volume = self
            .objects
            .get(&object)
            .map_or(self.cfg.volume, |o| o.volume);
        self.volumes
            .get(&volume)
            .map_or(Timestamp::ZERO, |vs| vs.write_gate)
    }

    fn send(&mut self, to: ClientId, msg: ServerMsg, actions: &mut Vec<ServerAction>) {
        self.stats.msgs_out += 1;
        actions.push(ServerAction::Send { to, msg });
    }

    fn send_peer(&mut self, to: ServerId, msg: PeerMsg, actions: &mut Vec<ServerAction>) {
        self.stats.msgs_out += 1;
        actions.push(ServerAction::SendPeer { to, msg });
    }

    /// Builds the `WRONG_SHARD` reply for `volume`, attaching the shard
    /// map when one is held so the client can refresh its routing.
    fn wrong_shard(&self, volume: VolumeId, owner: ServerId) -> ServerMsg {
        let (map_version, servers) = match &self.shard_map {
            Some(m) => (m.version(), m.servers().to_vec()),
            None => (0, Vec::new()),
        };
        ServerMsg::WrongShard {
            volume,
            owner,
            map_version,
            servers,
        }
    }

    /// Answers a request for an unhosted volume. The departure record is
    /// ground truth; the shard map is the fallback. With neither (or if
    /// the map claims we own it — a map/hosting disagreement the next
    /// rebalance will fix) the request is dropped, as the single-volume
    /// server always did for foreign volumes.
    fn redirect(&mut self, volume: VolumeId, client: ClientId, actions: &mut Vec<ServerAction>) {
        let me = self.cfg.server;
        let owner = self.departed.get(&volume).copied().or_else(|| {
            self.shard_map
                .as_ref()
                .and_then(|m| m.owner(volume))
                .filter(|&o| o != me)
        });
        if let Some(owner) = owner {
            let msg = self.wrong_shard(volume, owner);
            self.stats.redirects += 1;
            self.send(client, msg, actions);
        }
    }

    fn handle_msg(
        &mut self,
        now: Timestamp,
        client: ClientId,
        msg: ClientMsg,
        actions: &mut Vec<ServerAction>,
    ) {
        // Requests that would grant a lease on the object currently being
        // written are deferred until the write commits (see ActiveWrite).
        if let Some(w) = &mut self.active_write {
            let touches = match &msg {
                ClientMsg::ReqObjLease { object, .. } => *object == w.object,
                ClientMsg::RenewObjLeases { leases, .. } => {
                    leases.iter().any(|&(o, _)| o == w.object)
                }
                _ => false,
            };
            if touches {
                w.deferred.push((client, msg));
                return;
            }
        }
        match msg {
            ClientMsg::ReqObjLease { object, version } => {
                if let Some(&(volume, owner)) = self.moved.get(&object) {
                    let msg = self.wrong_shard(volume, owner);
                    self.stats.redirects += 1;
                    self.send(client, msg, actions);
                    return;
                }
                let t = self.cfg.object_lease;
                let self_inval = self.cfg.self_inval;
                let Some(obj) = self.objects.get_mut(&object) else {
                    self.stats.unknown_objects += 1;
                    return;
                };
                let expire = now.saturating_add(t);
                // The reply carries the client-clock deadline; under
                // self-invalidation the server records it padded by ε —
                // a client slow by up to ε believes its copy valid
                // until `expire + ε` true time, and that is what a
                // write must wait out.
                let record = match self_inval {
                    Some(eps) => expire.saturating_add(eps),
                    None => expire,
                };
                obj.grant(client, record);
                if let Some(vs) = self.volumes.get_mut(&obj.volume) {
                    vs.clients.entry(client).or_default().held.insert(object);
                }
                let data = (obj.version != version).then(|| obj.data.clone());
                let reply = ServerMsg::ObjLease {
                    object,
                    version: obj.version,
                    expire,
                    data,
                };
                if self_inval.is_some() {
                    // No volume leases gate a recovered server here, so
                    // the stable record must bound *object* deadlines:
                    // a post-crash write waits them out via the gate.
                    self.stable_dirty_max = self.stable_dirty_max.max(record);
                }
                self.send(client, reply, actions);
            }
            ClientMsg::ReqVolLease { volume, epoch } => {
                let Some(vs) = self.volumes.get_mut(&volume) else {
                    self.redirect(volume, client, actions);
                    return;
                };
                let row = vs.clients.entry(client).or_default();
                match row.link {
                    Link::Reachable if epoch == vs.epoch => {}
                    Link::Reachable | Link::Unreachable | Link::AwaitLeaseSet | Link::AwaitAck => {
                        // Stale epoch or known-unreachable: force the
                        // reconnection protocol (§3.1.1 / §3.1.2), from
                        // the top if one was already under way.
                        row.link = Link::AwaitLeaseSet;
                        self.send(client, ServerMsg::MustRenewAll { volume }, actions);
                        return;
                    }
                }
                let expire = now.saturating_add(self.cfg.volume_lease);
                let reply = row.grant(volume, vs.epoch, expire);
                self.stable_dirty_max = self.stable_dirty_max.max(expire);
                self.send(client, reply, actions);
                // Retransmit an unacked invalidation on contact: the
                // renewal proves the client is reachable again, and
                // without this a client whose INVALIDATE was lost could
                // renew t_v indefinitely while the write waits out the
                // full object lease.
                let resend = self
                    .active_write
                    .as_ref()
                    .and_then(|w| w.outstanding.contains(&client).then_some(w.object));
                if let Some(object) = resend {
                    self.send(client, ServerMsg::Invalidate { object }, actions);
                }
            }
            ClientMsg::RenewObjLeases { volume, leases } => {
                let Some(vs) = self.volumes.get_mut(&volume) else {
                    self.redirect(volume, client, actions);
                    return;
                };
                let Some(row) = vs.clients.get_mut(&client) else {
                    return;
                };
                match row.link {
                    Link::AwaitLeaseSet => {}
                    // Answers no MUST_RENEW_ALL of ours (or one whose
                    // exchange has already moved on): ignored.
                    Link::Reachable | Link::Unreachable | Link::AwaitAck => return,
                }
                let t = self.cfg.object_lease;
                let pad = self.cfg.self_inval.unwrap_or(Duration::ZERO);
                let mut invalidate = Vec::new();
                let mut renew = Vec::new();
                for (object, version) in leases {
                    // The verdict below settles this object either way.
                    if let Some(queued) = &mut row.queued {
                        queued.pending.remove(&object);
                    }
                    match self.objects.get_mut(&object) {
                        // An object reported under the wrong volume is
                        // simply invalidated; the client's copy cannot
                        // be trusted to track this volume's epoch.
                        Some(obj) if obj.volume == volume && obj.version == version => {
                            let expire = now.saturating_add(t);
                            obj.grant(client, expire.saturating_add(pad));
                            row.held.insert(object);
                            renew.push((object, obj.version, expire));
                        }
                        _ => invalidate.push(object),
                    }
                }
                // The list speaks only for the objects it names: a grant
                // still in flight when the client wrote it is not in it,
                // and an invalidation queued for that object since stays
                // queued — it rides the VOL_LEASE that ends the exchange.
                if (row.queued.as_ref()).is_some_and(|i| i.pending.is_empty()) {
                    row.queued = None;
                }
                row.link = Link::AwaitAck;
                self.send(
                    client,
                    ServerMsg::InvalRenew {
                        volume,
                        invalidate,
                        renew,
                    },
                    actions,
                );
            }
            ClientMsg::AckInvalidate { object } => {
                // The client dropped its copy: its lease is gone too —
                // but only the lease the invalidation was sent for. A
                // duplicate ack (a renewal mid-write re-sends
                // INVALIDATE) or one overtaken by the client's refetch
                // answers nothing and must not touch the fresh lease.
                let volume = self.objects.get_mut(&object).and_then(|obj| {
                    let awaited = obj.awaiting_ack.remove(&client);
                    if awaited {
                        obj.leases.revoke(client);
                    }
                    awaited.then_some(obj.volume)
                });
                let Some(volume) = volume else {
                    self.stats.stale_acks += 1;
                    return;
                };
                if let Some(row) =
                    (self.volumes.get_mut(&volume)).and_then(|vs| vs.clients.get_mut(&client))
                {
                    row.held.remove(&object);
                }
                if let Some(w) = &mut self.active_write {
                    if w.object == object {
                        w.outstanding.remove(&client);
                    }
                }
            }
            ClientMsg::AckVolBatch { volume } => {
                let Some(vs) = self.volumes.get_mut(&volume) else {
                    return;
                };
                let Some(row) = vs.clients.get_mut(&client) else {
                    return;
                };
                match row.link {
                    Link::AwaitAck => {
                        // Reconnection complete: grant the volume lease.
                        // A write that ran since RENEW_OBJ_LEASES (or an
                        // object that message did not name) left
                        // invalidations queued; the grant carries them,
                        // or the client would hold valid leases on a
                        // stale copy.
                        row.link = Link::Reachable;
                        let expire = now.saturating_add(self.cfg.volume_lease);
                        let reply = row.grant(volume, vs.epoch, expire);
                        self.stats.reconnections += 1;
                        self.stable_dirty_max = self.stable_dirty_max.max(expire);
                        self.send(client, reply, actions);
                    }
                    // Ack for a pending batch delivered with a grant.
                    Link::Reachable | Link::Unreachable => row.queued = None,
                    // Every grant that carried a batch predates the
                    // MUST_RENEW_ALL now outstanding, and so does this
                    // ack (a restarted exchange's first INVAL_RENEW, or
                    // an old batch): it says nothing about what has
                    // been queued since.
                    Link::AwaitLeaseSet => self.stats.stale_acks += 1,
                }
            }
        }
    }

    /// Handles the volume-handoff exchange (coordinator-mediated; see
    /// `vl-proto`'s [`PeerMsg`] docs for the flow).
    fn handle_peer(
        &mut self,
        now: Timestamp,
        from: ServerId,
        msg: PeerMsg,
        actions: &mut Vec<ServerAction>,
    ) {
        match msg {
            PeerMsg::HandoffRequest { volume, to } => {
                // Give up `volume`: bump its epoch past every lease we
                // granted and ship a manifest. Requests for a volume we
                // do not host are ignored (a duplicate request after
                // the volume already left is answered by the redirect
                // path, not a second manifest).
                let Some(vs) = self.volumes.remove(&volume) else {
                    return;
                };
                // Abort an in-flight write on the departing volume; the
                // writer retries at the new owner.
                let mut deferred = Vec::new();
                if self
                    .active_write
                    .as_ref()
                    .is_some_and(|w| w.volume == volume)
                {
                    let w = self.active_write.take().expect("checked above");
                    deferred = w.deferred;
                    actions.push(ServerAction::CompleteWrite {
                        outcome: WriteOutcome {
                            delay: now.saturating_sub(w.started),
                            moved_to: Some(to),
                            ..WriteOutcome::default()
                        },
                    });
                }
                let epoch = vs.epoch.next();
                // The bound on every volume lease granted here: grants
                // only ever move a client's expiry forward.
                let max_vol_expiry =
                    (vs.clients.values().filter_map(|c| c.lease).max()).unwrap_or(Timestamp::ZERO);
                // Snapshot the volume's objects into the manifest,
                // leaving a forwarding address behind. Sorted ids keep
                // the wire image deterministic.
                let mut ids: Vec<ObjectId> = self
                    .objects
                    .iter()
                    .filter(|(_, o)| o.volume == volume)
                    .map(|(&id, _)| id)
                    .collect();
                ids.sort_unstable();
                let mut objects = Vec::with_capacity(ids.len());
                for id in &ids {
                    let o = self.objects.remove(id).expect("collected above");
                    objects.push((*id, o.version, o.data));
                    self.moved.insert(*id, (volume, to));
                }
                self.departed.insert(volume, to);
                if volume == self.cfg.volume {
                    // epoch() keeps reporting the bumped epoch after the
                    // home volume departs.
                    self.stats.epoch = epoch;
                }
                self.stable_dirty_max = self.stable_dirty_max.max(max_vol_expiry);
                self.stats.handoffs_out += 1;
                self.send_peer(
                    from,
                    PeerMsg::Handoff {
                        volume,
                        epoch,
                        max_vol_expiry,
                        objects,
                    },
                    actions,
                );
                // Replay requests deferred by the aborted write: they
                // now see the forwarding address and get redirected.
                for (client, msg) in deferred {
                    self.handle_msg(now, client, msg, actions);
                }
            }
            PeerMsg::Handoff {
                volume,
                epoch,
                max_vol_expiry,
                objects,
            } => {
                if let Some(vs) = self.volumes.get(&volume) {
                    if vs.epoch >= epoch {
                        // Duplicate delivery (coordinator retry):
                        // re-ack idempotently, don't reinstall.
                        let cur = vs.epoch;
                        self.send_peer(from, PeerMsg::HandoffAck { volume, epoch: cur }, actions);
                        return;
                    }
                }
                // Adopt the volume. The write gate is exactly the
                // crash-recovery gate: no write until every lease the
                // previous owner granted has expired. Clients arrive
                // with the old epoch and re-sync via MUST_RENEW_ALL.
                self.volumes
                    .insert(volume, VolumeState::fresh(epoch, max_vol_expiry));
                for (id, version, data) in objects {
                    self.moved.remove(&id);
                    self.objects
                        .insert(id, ObjState::new(data, version, volume));
                }
                self.departed.remove(&volume);
                // Persist the gate so a crash right after adoption
                // still waits out the previous owner's leases.
                self.stable_dirty_max = self.stable_dirty_max.max(max_vol_expiry);
                self.stats.handoffs_in += 1;
                self.send_peer(from, PeerMsg::HandoffAck { volume, epoch }, actions);
            }
            // The ack is for the coordinator; a server hearing one has
            // nothing to do.
            PeerMsg::HandoffAck { .. } => {}
        }
    }

    fn start_write(
        &mut self,
        now: Timestamp,
        object: ObjectId,
        data: Bytes,
        enqueued: Timestamp,
        actions: &mut Vec<ServerAction>,
    ) {
        let Some(obj) = self.objects.get(&object) else {
            // Writing an unknown object creates it in the home volume.
            self.objects
                .insert(object, ObjState::new(data, Version::FIRST, self.cfg.volume));
            self.stats.writes += 1;
            actions.push(ServerAction::CompleteWrite {
                outcome: WriteOutcome {
                    version: Version::FIRST,
                    ..WriteOutcome::default()
                },
            });
            return;
        };
        let volume = obj.volume;
        let holders: Vec<ClientId> = obj.leases.valid_holders(now).collect();
        let mut w = ActiveWrite {
            object,
            volume,
            data,
            outstanding: BTreeSet::new(),
            // Delay is measured from when the writer asked, so recovery
            // gating and queueing count toward it.
            started: enqueued,
            invalidations_sent: 0,
            queued: 0,
            waited_out: 0,
            deferred: Vec::new(),
        };
        if self.cfg.self_inval.is_some() {
            // Self-invalidation sends nothing: every holder is simply
            // outstanding until its (ε-padded) deadline passes. Best
            // effort does not apply — with no volume lease to fence
            // stragglers, skipping the wait would break consistency.
            w.outstanding.extend(holders);
            self.active_write = Some(w);
            return;
        }
        // Classification is purely by server-side volume-lease validity.
        // Clients in `unreachable` are NOT skipped: a waited-out holder
        // can still have a valid volume lease (its *object* lease is
        // what expired), and skipping it would let it read a stale copy.
        for client in holders {
            let row =
                (self.volumes.get_mut(&volume)).map(|vs| vs.clients.entry(client).or_default());
            if row.as_ref().is_some_and(|r| r.lease_valid(now)) {
                w.outstanding.insert(client);
                w.invalidations_sent += 1;
                self.send(client, ServerMsg::Invalidate { object }, actions);
            } else {
                // Delayed invalidation: queue it and drop the lease.
                if let Some(row) = row {
                    let since = row.lease.unwrap_or(now).min(now);
                    let pending = BTreeSet::new();
                    let queued =
                        (row.queued).get_or_insert_with(|| Box::new(Inactive { since, pending }));
                    queued.pending.insert(object);
                    row.held.remove(&object);
                }
                if let Some(o) = self.objects.get_mut(&object) {
                    o.leases.revoke(client);
                }
                w.queued += 1;
            }
        }
        if let Some(o) = self.objects.get_mut(&object) {
            o.awaiting_ack.clone_from(&w.outstanding);
        }
        if self.cfg.write_mode == WriteMode::BestEffort {
            // Proceed without waiting; stragglers are fenced by t_v.
            w.outstanding.clear();
        }
        self.active_write = Some(w);
    }

    fn check_write_progress(&mut self, now: Timestamp, actions: &mut Vec<ServerAction>) {
        let Some(w) = &mut self.active_write else {
            return;
        };
        // A holder may be waited out once either of its leases expires.
        // Under self-invalidation only the object deadline counts —
        // clients hold no volume leases, and the elapsed deadline is
        // the protocol working as designed, not an unreachable client.
        let object = w.object;
        let volume = w.volume;
        let self_inval = self.cfg.self_inval.is_some();
        let expired: Vec<ClientId> = w
            .outstanding
            .iter()
            .copied()
            .filter(|&c| {
                let obj_ok = self
                    .objects
                    .get(&object)
                    .is_some_and(|o| o.leases.is_valid_for(c, now));
                let vol_ok = self_inval
                    || (self.volumes.get(&volume))
                        .and_then(|vs| vs.clients.get(&c))
                        .is_some_and(|row| row.lease_valid(now));
                !(vol_ok && obj_ok)
            })
            .collect();
        for c in expired {
            w.outstanding.remove(&c);
            if self_inval {
                if let Some(o) = self.objects.get_mut(&object) {
                    o.leases.revoke(c);
                }
                continue;
            }
            w.waited_out += 1;
            // Figure 3: unreachable ← unreachable ∪ To_contact.
            if let Some(row) = (self.volumes.get_mut(&volume)).and_then(|vs| vs.clients.get_mut(&c))
            {
                row.link.mark_unreachable();
            }
            if let Some(o) = self.objects.get_mut(&object) {
                o.leases.revoke(c);
            }
        }
        if !w.outstanding.is_empty() {
            return;
        }
        // Commit.
        let w = self.active_write.take().expect("checked above");
        let obj = self
            .objects
            .get_mut(&w.object)
            .expect("write target exists");
        obj.version = obj.version.next();
        obj.data = w.data;
        let delay = now.saturating_sub(w.started);
        self.stats.writes += 1;
        self.stats.max_write_delay = self.stats.max_write_delay.max(delay);
        actions.push(ServerAction::CompleteWrite {
            outcome: WriteOutcome {
                delay,
                invalidations_sent: w.invalidations_sent,
                queued: w.queued,
                waited_out: w.waited_out,
                version: obj.version,
                moved_to: None,
            },
        });
        // Replay lease requests that arrived mid-write: they now see the
        // committed version.
        for (client, msg) in w.deferred {
            self.handle_msg(now, client, msg, actions);
        }
    }

    /// §3.2: a client inactive for longer than `d` joins Unreachable and
    /// loses its queue and this volume's object leases. With `d` set
    /// this walks the volume's whole client table on every input, as
    /// does the demotion deadline in `refresh_timers`.
    fn demote_overdue(&mut self, now: Timestamp) {
        let Some(d) = self.cfg.inactive_discard else {
            return;
        };
        for vs in self.volumes.values_mut() {
            for (&client, row) in &mut vs.clients {
                if (row.queued.as_ref()).is_none_or(|i| now < i.since.saturating_add(d)) {
                    continue;
                }
                row.queued = None;
                row.link.mark_unreachable();
                self.stats.demotions += 1;
                // Revoke every lease the client holds in this volume;
                // its rows in other volumes are governed by their own
                // state.
                for object in std::mem::take(&mut row.held) {
                    if let Some(o) = self.objects.get_mut(&object) {
                        o.leases.revoke(client);
                    }
                }
            }
        }
    }

    /// Recomputes the two timer deadlines and emits [`ServerAction::SetTimer`]
    /// for any that moved since last emitted.
    fn refresh_timers(&mut self, now: Timestamp, actions: &mut Vec<ServerAction>) {
        let write_wait = match &self.active_write {
            Some(w) => {
                let object = w.object;
                let volume = w.volume;
                w.outstanding
                    .iter()
                    .map(|&c| {
                        let obj = self
                            .objects
                            .get(&object)
                            .and_then(|o| o.leases.expiry_of(c))
                            .unwrap_or(now);
                        if self.cfg.self_inval.is_some() {
                            // No volume leases exist in this mode; the
                            // `unwrap_or(now)` fallback below would
                            // fire the timer instantly.
                            return obj;
                        }
                        let vol = (self.volumes.get(&volume))
                            .and_then(|vs| vs.clients.get(&c)?.lease)
                            .unwrap_or(now);
                        vol.min(obj)
                    })
                    .min()
            }
            None => self.queued_writes.front().and_then(|&(object, _, _)| {
                let gate = self.write_gate_for(object);
                (now < gate && !self.moved.contains_key(&object)).then_some(gate)
            }),
        };
        let demotion = self.cfg.inactive_discard.and_then(|d| {
            let rows = self.volumes.values().flat_map(|vs| vs.clients.values());
            rows.filter_map(|c| Some(c.queued.as_ref()?.since.saturating_add(d)))
                .min()
        });
        for (slot, deadline) in [
            (TimerKind::WriteWait, write_wait),
            (TimerKind::Demotion, demotion),
        ] {
            let idx = slot as usize;
            if deadline != self.last_timer[idx] {
                self.last_timer[idx] = deadline;
                if let Some(at) = deadline {
                    actions.push(ServerAction::SetTimer { kind: slot, at });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vl_types::{ServerId, VolumeId};

    fn msg(from: u32, msg: ClientMsg) -> ServerInput {
        ServerInput::Msg {
            from: ClientId(from),
            msg,
        }
    }

    fn sends(actions: &[ServerAction]) -> Vec<(ClientId, &ServerMsg)> {
        actions
            .iter()
            .filter_map(|a| match a {
                ServerAction::Send { to, msg } => Some((*to, msg)),
                _ => None,
            })
            .collect()
    }

    fn peer_sends(actions: &[ServerAction]) -> Vec<(ServerId, &PeerMsg)> {
        actions
            .iter()
            .filter_map(|a| match a {
                ServerAction::SendPeer { to, msg } => Some((*to, msg)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn boot_persists_default_record() {
        let (m, boot) = ServerMachine::new(MachineConfig::new(ServerId(0)), None);
        assert_eq!(
            boot,
            vec![ServerAction::Persist {
                state: StableState::default()
            }]
        );
        assert_eq!(m.epoch(), Epoch(0));
        assert_eq!(m.recovery_until(), Timestamp::ZERO);
    }

    #[test]
    fn recovery_bumps_epoch_and_gates_writes() {
        let pre_crash = StableState {
            epoch: Epoch(2),
            max_volume_expiry: Timestamp::from_secs(50),
        };
        let (mut m, boot) = ServerMachine::new(MachineConfig::new(ServerId(0)), Some(pre_crash));
        assert_eq!(m.epoch(), Epoch(3));
        assert_eq!(m.recovery_until(), Timestamp::from_secs(50));
        assert!(matches!(
            boot[0],
            ServerAction::Persist {
                state: StableState {
                    epoch: Epoch(3),
                    ..
                }
            }
        ));
        // A write before recovery_until stays queued.
        let now = Timestamp::from_secs(10);
        m.handle(
            now,
            ServerInput::CreateObject {
                object: ObjectId(1),
                data: Bytes::from_static(b"a"),
                version: Version::FIRST,
            },
        );
        let actions = m.handle(
            now,
            ServerInput::Write {
                object: ObjectId(1),
                data: Bytes::from_static(b"b"),
            },
        );
        assert!(
            !actions
                .iter()
                .any(|a| matches!(a, ServerAction::CompleteWrite { .. })),
            "write must wait out pre-crash leases: {actions:?}"
        );
        // The driver is told when to come back.
        assert!(actions.iter().any(|a| matches!(
            a,
            ServerAction::SetTimer {
                kind: TimerKind::WriteWait,
                at
            } if *at == Timestamp::from_secs(50)
        )));
        // At recovery_until the write commits with the gate counted in
        // its delay.
        let actions = m.handle(Timestamp::from_secs(50), ServerInput::Tick);
        match &actions[0] {
            ServerAction::CompleteWrite { outcome } => {
                assert_eq!(outcome.delay, Duration::from_secs(40));
                assert_eq!(outcome.version, Version(2));
            }
            other => panic!("expected commit, got {other:?}"),
        }
    }

    #[test]
    fn write_without_holders_commits_immediately() {
        let (mut m, _) = ServerMachine::new(MachineConfig::new(ServerId(0)), None);
        let now = Timestamp::ZERO;
        m.handle(
            now,
            ServerInput::CreateObject {
                object: ObjectId(1),
                data: Bytes::from_static(b"a"),
                version: Version::FIRST,
            },
        );
        let actions = m.handle(
            now,
            ServerInput::Write {
                object: ObjectId(1),
                data: Bytes::from_static(b"b"),
            },
        );
        match &actions[0] {
            ServerAction::CompleteWrite { outcome } => {
                assert_eq!(outcome.invalidations_sent, 0);
                assert_eq!(outcome.version, Version(2));
                assert_eq!(outcome.delay, Duration::ZERO);
                assert_eq!(outcome.moved_to, None);
            }
            other => panic!("expected commit, got {other:?}"),
        }
        assert_eq!(m.stats().writes, 1);
    }

    #[test]
    fn write_blocks_on_valid_holder_until_ack() {
        let (mut m, _) = ServerMachine::new(MachineConfig::new(ServerId(0)), None);
        let t0 = Timestamp::ZERO;
        m.handle(
            t0,
            ServerInput::CreateObject {
                object: ObjectId(1),
                data: Bytes::from_static(b"a"),
                version: Version::FIRST,
            },
        );
        // Client 7 takes both leases.
        m.handle(
            t0,
            msg(
                7,
                ClientMsg::ReqVolLease {
                    volume: VolumeId(0),
                    epoch: Epoch(0),
                },
            ),
        );
        m.handle(
            t0,
            msg(
                7,
                ClientMsg::ReqObjLease {
                    object: ObjectId(1),
                    version: Version::NONE,
                },
            ),
        );
        let actions = m.handle(
            t0,
            ServerInput::Write {
                object: ObjectId(1),
                data: Bytes::from_static(b"b"),
            },
        );
        let s = sends(&actions);
        assert_eq!(s.len(), 1);
        assert!(matches!(s[0].1, ServerMsg::Invalidate { object } if *object == ObjectId(1)));
        assert!(
            !actions
                .iter()
                .any(|a| matches!(a, ServerAction::CompleteWrite { .. })),
            "write must wait for the ack"
        );
        // Ack arrives: the write commits in the same step.
        let actions = m.handle(
            Timestamp::from_millis(5),
            msg(
                7,
                ClientMsg::AckInvalidate {
                    object: ObjectId(1),
                },
            ),
        );
        match actions.iter().find_map(|a| match a {
            ServerAction::CompleteWrite { outcome } => Some(outcome),
            _ => None,
        }) {
            Some(outcome) => {
                assert_eq!(outcome.invalidations_sent, 1);
                assert_eq!(outcome.waited_out, 0);
                assert_eq!(outcome.delay, Duration::from_millis(5));
            }
            None => panic!("ack should commit the write: {actions:?}"),
        }
    }

    /// Creating an object that exists must not drop its lease holders:
    /// the next write still has to invalidate them (safety invariant 1).
    #[test]
    fn create_of_existing_object_keeps_its_leases() {
        const O: ObjectId = ObjectId(1);
        let (mut m, _) = ServerMachine::new(MachineConfig::new(ServerId(0)), None);
        let t0 = Timestamp::ZERO;
        let create = |data: &'static [u8]| ServerInput::CreateObject {
            object: O,
            data: Bytes::from_static(data),
            version: Version::FIRST,
        };
        m.handle(t0, create(b"a"));
        let vol_lease = ClientMsg::ReqVolLease {
            volume: VolumeId(0),
            epoch: Epoch(0),
        };
        m.handle(t0, msg(1, vol_lease));
        let obj_lease = ClientMsg::ReqObjLease {
            object: O,
            version: Version::NONE,
        };
        m.handle(t0, msg(1, obj_lease));
        m.handle(t0, create(b"other bytes"));
        let write = ServerInput::Write {
            object: O,
            data: Bytes::from_static(b"b"),
        };
        let actions = m.handle(t0, write);
        let s = sends(&actions);
        assert_eq!(s.len(), 1, "the holder must be invalidated: {actions:?}");
        assert_eq!(s[0].0, ClientId(1));
        assert!(matches!(s[0].1, ServerMsg::Invalidate { object } if *object == O));
        let ack = ClientMsg::AckInvalidate { object: O };
        let actions = m.handle(t0, msg(1, ack));
        let outcome = actions
            .iter()
            .find_map(|a| match a {
                ServerAction::CompleteWrite { outcome } => Some(*outcome),
                _ => None,
            })
            .expect("ack commits the write");
        assert_eq!(outcome.invalidations_sent, 1);
        // The second create changed neither bytes nor version.
        assert_eq!(outcome.version, Version(2));
    }

    /// A renewal from a still-outstanding client re-sends INVALIDATE,
    /// so two acks come back; the second lands after the client's
    /// refetch was granted and must not revoke that fresh lease.
    #[test]
    fn late_duplicate_ack_does_not_revoke_a_regranted_lease() {
        const O: ObjectId = ObjectId(1);
        let (mut m, _) = ServerMachine::new(MachineConfig::new(ServerId(0)), None);
        let t0 = Timestamp::ZERO;
        let vol_lease = ClientMsg::ReqVolLease {
            volume: VolumeId(0),
            epoch: Epoch(0),
        };
        let write = |data: &'static [u8]| ServerInput::Write {
            object: O,
            data: Bytes::from_static(data),
        };
        let completed = |actions: &[ServerAction]| {
            actions.iter().find_map(|a| match a {
                ServerAction::CompleteWrite { outcome } => Some(*outcome),
                _ => None,
            })
        };
        m.handle(
            t0,
            ServerInput::CreateObject {
                object: O,
                data: Bytes::from_static(b"a"),
                version: Version::FIRST,
            },
        );
        m.handle(t0, msg(7, vol_lease.clone()));
        m.handle(
            t0,
            msg(
                7,
                ClientMsg::ReqObjLease {
                    object: O,
                    version: Version::NONE,
                },
            ),
        );
        m.handle(t0, write(b"b"));
        let actions = m.handle(t0, msg(7, vol_lease));
        assert!(
            sends(&actions)
                .iter()
                .any(|(_, m)| matches!(m, ServerMsg::Invalidate { object } if *object == O)),
            "renewal from an outstanding client re-sends the invalidation"
        );
        // Ack #1 commits; the client refetches and is granted v2.
        let actions = m.handle(t0, msg(7, ClientMsg::AckInvalidate { object: O }));
        assert!(completed(&actions).is_some(), "ack #1 commits the write");
        m.handle(
            t0,
            msg(
                7,
                ClientMsg::ReqObjLease {
                    object: O,
                    version: Version::NONE,
                },
            ),
        );
        // Ack #2 answers the re-sent copy: nothing is awaited any more.
        m.handle(t0, msg(7, ClientMsg::AckInvalidate { object: O }));
        assert!(
            m.objects[&O].leases.is_valid_for(ClientId(7), t0),
            "the late ack revoked the lease granted after it was sent"
        );
        assert_eq!(m.stats().stale_acks, 1);
        let actions = m.handle(t0, write(b"c"));
        assert!(
            completed(&actions).is_none(),
            "the holder must be contacted"
        );
        let actions = m.handle(t0, msg(7, ClientMsg::AckInvalidate { object: O }));
        assert_eq!(completed(&actions).unwrap().invalidations_sent, 1);
    }

    #[test]
    fn unacked_holder_is_waited_out_at_min_lease_expiry() {
        let mut cfg = MachineConfig::new(ServerId(0));
        cfg.object_lease = Duration::from_secs(60);
        cfg.volume_lease = Duration::from_secs(2);
        let (mut m, _) = ServerMachine::new(cfg, None);
        let t0 = Timestamp::ZERO;
        m.handle(
            t0,
            ServerInput::CreateObject {
                object: ObjectId(1),
                data: Bytes::from_static(b"a"),
                version: Version::FIRST,
            },
        );
        m.handle(
            t0,
            msg(
                7,
                ClientMsg::ReqVolLease {
                    volume: VolumeId(0),
                    epoch: Epoch(0),
                },
            ),
        );
        m.handle(
            t0,
            msg(
                7,
                ClientMsg::ReqObjLease {
                    object: ObjectId(1),
                    version: Version::NONE,
                },
            ),
        );
        m.handle(
            t0,
            ServerInput::Write {
                object: ObjectId(1),
                data: Bytes::from_static(b"b"),
            },
        );
        // Just before the volume lease expires: still blocked.
        let actions = m.handle(Timestamp::from_millis(1_999), ServerInput::Tick);
        assert!(!actions
            .iter()
            .any(|a| matches!(a, ServerAction::CompleteWrite { .. })));
        // At min(t, t_v) = 2 s the holder is waited out.
        let actions = m.handle(Timestamp::from_secs(2), ServerInput::Tick);
        match actions.iter().find_map(|a| match a {
            ServerAction::CompleteWrite { outcome } => Some(outcome),
            _ => None,
        }) {
            Some(outcome) => {
                assert_eq!(outcome.waited_out, 1);
                assert_eq!(outcome.delay, Duration::from_secs(2));
            }
            None => panic!("expired holder should unblock the write"),
        }
        assert_eq!(m.stats().unreachable, 1);
    }

    #[test]
    fn deferred_lease_request_replays_after_commit() {
        let (mut m, _) = ServerMachine::new(MachineConfig::new(ServerId(0)), None);
        let t0 = Timestamp::ZERO;
        m.handle(
            t0,
            ServerInput::CreateObject {
                object: ObjectId(1),
                data: Bytes::from_static(b"a"),
                version: Version::FIRST,
            },
        );
        m.handle(
            t0,
            msg(
                7,
                ClientMsg::ReqVolLease {
                    volume: VolumeId(0),
                    epoch: Epoch(0),
                },
            ),
        );
        m.handle(
            t0,
            msg(
                7,
                ClientMsg::ReqObjLease {
                    object: ObjectId(1),
                    version: Version::NONE,
                },
            ),
        );
        m.handle(
            t0,
            ServerInput::Write {
                object: ObjectId(1),
                data: Bytes::from_static(b"b"),
            },
        );
        // Client 8 asks for a lease on the object mid-write: deferred.
        let actions = m.handle(
            t0,
            msg(
                8,
                ClientMsg::ReqObjLease {
                    object: ObjectId(1),
                    version: Version::NONE,
                },
            ),
        );
        assert!(sends(&actions).is_empty(), "mid-write grant must defer");
        // Holder acks; the deferred request replays against version 2.
        let actions = m.handle(
            Timestamp::from_millis(1),
            msg(
                7,
                ClientMsg::AckInvalidate {
                    object: ObjectId(1),
                },
            ),
        );
        let s = sends(&actions);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].0, ClientId(8));
        match s[0].1 {
            ServerMsg::ObjLease { version, data, .. } => {
                assert_eq!(*version, Version(2));
                assert_eq!(data.as_deref(), Some(b"b".as_slice()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stale_epoch_triggers_reconnection_protocol() {
        let (mut m, _) = ServerMachine::new(MachineConfig::new(ServerId(0)), None);
        let t0 = Timestamp::ZERO;
        m.handle(
            t0,
            ServerInput::CreateObject {
                object: ObjectId(1),
                data: Bytes::from_static(b"a"),
                version: Version::FIRST,
            },
        );
        let actions = m.handle(
            t0,
            msg(
                1,
                ClientMsg::ReqVolLease {
                    volume: VolumeId(0),
                    epoch: Epoch(99),
                },
            ),
        );
        assert!(matches!(
            sends(&actions)[0].1,
            ServerMsg::MustRenewAll { .. }
        ));
        // The client reports its (fresh) cached object.
        let actions = m.handle(
            t0,
            msg(
                1,
                ClientMsg::RenewObjLeases {
                    volume: VolumeId(0),
                    leases: vec![(ObjectId(1), Version::FIRST)],
                },
            ),
        );
        match sends(&actions)[0].1 {
            ServerMsg::InvalRenew {
                invalidate, renew, ..
            } => {
                assert!(invalidate.is_empty());
                assert_eq!(renew.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The batch ack completes reconnection with a volume grant.
        let actions = m.handle(
            t0,
            msg(
                1,
                ClientMsg::AckVolBatch {
                    volume: VolumeId(0),
                },
            ),
        );
        assert!(matches!(sends(&actions)[0].1, ServerMsg::VolLease { .. }));
        assert_eq!(m.stats().reconnections, 1);
        assert_eq!(m.stats().unreachable, 0);
    }

    /// Drives `client` through the rest of a reconnection exchange it
    /// reports no cached objects in, and returns the invalidations the
    /// closing `VOL_LEASE` carries.
    fn finish_handshake_reporting_nothing(
        m: &mut ServerMachine,
        now: Timestamp,
        client: u32,
    ) -> Vec<ObjectId> {
        let volume = VolumeId(0);
        let leases = Vec::new();
        m.handle(
            now,
            msg(client, ClientMsg::RenewObjLeases { volume, leases }),
        );
        let actions = m.handle(now, msg(client, ClientMsg::AckVolBatch { volume }));
        match sends(&actions)[..] {
            [(_, ServerMsg::VolLease { invalidate, .. })] => invalidate.clone(),
            _ => panic!("the batch ack must complete the exchange: {actions:?}"),
        }
    }

    /// Grants `client` a lease on `O`, then commits a write to it that
    /// finds the client's volume lease lapsed and queues the
    /// invalidation.
    fn grant_then_queue_an_invalidation(m: &mut ServerMachine, now: Timestamp, client: u32) {
        const O: ObjectId = ObjectId(1);
        let version = Version::NONE;
        let actions = m.handle(
            now,
            msg(client, ClientMsg::ReqObjLease { object: O, version }),
        );
        assert!(matches!(
            sends(&actions)[..],
            [(_, ServerMsg::ObjLease { .. })]
        ));
        let data = Bytes::from_static(b"b");
        let actions = m.handle(now, ServerInput::Write { object: O, data });
        let queued = actions.iter().find_map(|a| match a {
            ServerAction::CompleteWrite { outcome } => Some(outcome.queued),
            _ => None,
        });
        assert_eq!(queued, Some(1), "the write queues for the lapsed holder");
    }

    fn machine_with_object_one() -> ServerMachine {
        let (mut m, _) = ServerMachine::new(MachineConfig::new(ServerId(0)), None);
        m.handle(
            Timestamp::ZERO,
            ServerInput::CreateObject {
                object: ObjectId(1),
                data: Bytes::from_static(b"a"),
                version: Version::FIRST,
            },
        );
        m
    }

    /// `delays` seed 1, t = 48.33–48.48 s: the `OBJ_LEASE` grant was
    /// still in flight when the client listed its cache, so the list
    /// says nothing about that object and must not cancel the
    /// invalidation queued for it since.
    #[test]
    fn renew_obj_leases_keeps_queued_invalidations_for_unnamed_objects() {
        let mut m = machine_with_object_one();
        let req = ClientMsg::ReqVolLease {
            volume: VolumeId(0),
            epoch: Epoch(0),
        };
        m.handle(Timestamp::ZERO, msg(7, req.clone()));
        let client = ClientId(7);
        m.handle(Timestamp::ZERO, ServerInput::PeerDisconnected { client });
        let now = Timestamp::from_secs(10);
        let actions = m.handle(now, msg(7, req));
        assert!(matches!(
            sends(&actions)[..],
            [(_, ServerMsg::MustRenewAll { .. })]
        ));
        grant_then_queue_an_invalidation(&mut m, now, 7);
        let carried = finish_handshake_reporting_nothing(&mut m, now, 7);
        assert_eq!(carried, [ObjectId(1)], "the queued invalidation was lost");
        // The client acks the batch it was handed; only then is it gone.
        assert_eq!(m.stats().inactive, 1);
        let volume = VolumeId(0);
        m.handle(now, msg(7, ClientMsg::AckVolBatch { volume }));
        assert_eq!(m.stats().inactive, 0);
    }

    /// `delays` seed 3, t = 39.78–40.03 s: a second `REQ_VOL_LEASE`
    /// restarts the exchange, and the first exchange's batch ack lands
    /// while the restarted one awaits its lease set. It acknowledges
    /// nothing the client has been handed.
    #[test]
    fn stale_vol_batch_ack_during_a_restarted_handshake_keeps_pending() {
        let mut m = machine_with_object_one();
        let now = Timestamp::from_secs(10);
        let volume = VolumeId(0);
        let req = ClientMsg::ReqVolLease {
            volume,
            epoch: Epoch(99),
        };
        let leases = Vec::new();
        m.handle(now, msg(7, req.clone()));
        m.handle(now, msg(7, ClientMsg::RenewObjLeases { volume, leases }));
        let actions = m.handle(now, msg(7, req));
        assert!(matches!(
            sends(&actions)[..],
            [(_, ServerMsg::MustRenewAll { .. })]
        ));
        grant_then_queue_an_invalidation(&mut m, now, 7);
        let actions = m.handle(now, msg(7, ClientMsg::AckVolBatch { volume }));
        assert!(
            sends(&actions).is_empty(),
            "exchange 1 is over: {actions:?}"
        );
        assert_eq!(m.stats().stale_acks, 1);
        let carried = finish_handshake_reporting_nothing(&mut m, now, 7);
        assert_eq!(carried, [ObjectId(1)], "the queued invalidation was lost");
    }

    #[test]
    fn peer_disconnect_marks_unreachable_but_keeps_leases() {
        let (mut m, _) = ServerMachine::new(MachineConfig::new(ServerId(0)), None);
        let t0 = Timestamp::ZERO;
        m.handle(
            t0,
            ServerInput::CreateObject {
                object: ObjectId(1),
                data: Bytes::from_static(b"a"),
                version: Version::FIRST,
            },
        );
        m.handle(
            t0,
            msg(
                7,
                ClientMsg::ReqVolLease {
                    volume: VolumeId(0),
                    epoch: Epoch(0),
                },
            ),
        );
        m.handle(
            t0,
            msg(
                7,
                ClientMsg::ReqObjLease {
                    object: ObjectId(1),
                    version: Version::NONE,
                },
            ),
        );
        m.handle(
            t0,
            ServerInput::PeerDisconnected {
                client: ClientId(7),
            },
        );
        assert_eq!(m.stats().unreachable, 1);
        assert_eq!(m.stats().disconnects, 1);
        // Safety: the drop must NOT shorten the write wait — client 7
        // may still be serving cached reads under its clock-valid
        // leases behind the partition.
        let actions = m.handle(
            t0,
            ServerInput::Write {
                object: ObjectId(1),
                data: Bytes::from_static(b"b"),
            },
        );
        assert!(
            !actions
                .iter()
                .any(|a| matches!(a, ServerAction::CompleteWrite { .. })),
            "write must still wait out the disconnected holder's leases: {actions:?}"
        );
        // A repeat disconnect (flapping link) is not double-counted.
        m.handle(
            t0,
            ServerInput::PeerDisconnected {
                client: ClientId(7),
            },
        );
        assert_eq!(m.stats().disconnects, 1);
        // On reconnect the client's renewal is forced through the full
        // handshake even though its epoch is current.
        let actions = m.handle(
            Timestamp::from_secs(70),
            msg(
                7,
                ClientMsg::ReqVolLease {
                    volume: VolumeId(0),
                    epoch: Epoch(0),
                },
            ),
        );
        assert!(matches!(
            sends(&actions)[0].1,
            ServerMsg::MustRenewAll { .. }
        ));
    }

    #[test]
    fn disconnect_of_stateless_client_is_a_no_op() {
        let (mut m, _) = ServerMachine::new(MachineConfig::new(ServerId(0)), None);
        m.handle(
            Timestamp::ZERO,
            ServerInput::PeerDisconnected {
                client: ClientId(3),
            },
        );
        assert_eq!(m.stats().unreachable, 0);
        assert_eq!(m.stats().disconnects, 0);
    }

    #[test]
    fn handoff_bumps_epoch_snapshots_objects_and_redirects() {
        let (mut m, _) = ServerMachine::new(MachineConfig::new(ServerId(0)), None);
        let t0 = Timestamp::ZERO;
        m.handle(
            t0,
            ServerInput::CreateObject {
                object: ObjectId(1),
                data: Bytes::from_static(b"a"),
                version: Version::FIRST,
            },
        );
        // Client 7 holds both leases when the volume departs.
        m.handle(
            t0,
            msg(
                7,
                ClientMsg::ReqVolLease {
                    volume: VolumeId(0),
                    epoch: Epoch(0),
                },
            ),
        );
        m.handle(
            t0,
            msg(
                7,
                ClientMsg::ReqObjLease {
                    object: ObjectId(1),
                    version: Version::NONE,
                },
            ),
        );
        // A handoff request for an unhosted volume is ignored.
        let actions = m.handle(
            t0,
            ServerInput::Peer {
                from: ServerId(99),
                msg: PeerMsg::HandoffRequest {
                    volume: VolumeId(5),
                    to: ServerId(1),
                },
            },
        );
        assert!(peer_sends(&actions).is_empty());
        // The coordinator asks for the home volume.
        let actions = m.handle(
            Timestamp::from_millis(100),
            ServerInput::Peer {
                from: ServerId(99),
                msg: PeerMsg::HandoffRequest {
                    volume: VolumeId(0),
                    to: ServerId(1),
                },
            },
        );
        let p = peer_sends(&actions);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].0, ServerId(99));
        match p[0].1 {
            PeerMsg::Handoff {
                volume,
                epoch,
                max_vol_expiry,
                objects,
            } => {
                assert_eq!(*volume, VolumeId(0));
                assert_eq!(*epoch, Epoch(1));
                // Bound covers client 7's volume lease (t0 + 2 s).
                assert_eq!(*max_vol_expiry, Timestamp::from_secs(2));
                assert_eq!(
                    objects.as_slice(),
                    &[(ObjectId(1), Version::FIRST, Bytes::from_static(b"a"))]
                );
            }
            other => panic!("expected manifest, got {other:?}"),
        }
        assert!(!m.hosts(VolumeId(0)));
        assert_eq!(m.epoch(), Epoch(1));
        assert_eq!(m.stats().handoffs_out, 1);
        // A later volume-lease request gets redirected to the new owner.
        let actions = m.handle(
            Timestamp::from_millis(200),
            msg(
                8,
                ClientMsg::ReqVolLease {
                    volume: VolumeId(0),
                    epoch: Epoch(0),
                },
            ),
        );
        match sends(&actions)[0].1 {
            ServerMsg::WrongShard { volume, owner, .. } => {
                assert_eq!(*volume, VolumeId(0));
                assert_eq!(*owner, ServerId(1));
            }
            other => panic!("expected redirect, got {other:?}"),
        }
        // Ditto for an object-lease request on a moved object.
        let actions = m.handle(
            Timestamp::from_millis(200),
            msg(
                8,
                ClientMsg::ReqObjLease {
                    object: ObjectId(1),
                    version: Version::NONE,
                },
            ),
        );
        assert!(matches!(
            sends(&actions)[0].1,
            ServerMsg::WrongShard { owner, .. } if *owner == ServerId(1)
        ));
        // A write to the moved object completes with a forwarding
        // address instead of committing locally.
        let actions = m.handle(
            Timestamp::from_millis(300),
            ServerInput::Write {
                object: ObjectId(1),
                data: Bytes::from_static(b"b"),
            },
        );
        match actions.iter().find_map(|a| match a {
            ServerAction::CompleteWrite { outcome } => Some(outcome),
            _ => None,
        }) {
            Some(outcome) => assert_eq!(outcome.moved_to, Some(ServerId(1))),
            None => panic!("moved write should complete immediately: {actions:?}"),
        }
        assert_eq!(m.stats().redirects, 2);
    }

    #[test]
    fn adopted_volume_gates_writes_and_forces_resync() {
        // Server 1 adopts volume 0 whose previous owner granted leases
        // through t = 50 s.
        let (mut m, _) = ServerMachine::new(MachineConfig::new(ServerId(1)), None);
        let t0 = Timestamp::from_secs(10);
        let manifest = PeerMsg::Handoff {
            volume: VolumeId(0),
            epoch: Epoch(1),
            max_vol_expiry: Timestamp::from_secs(50),
            objects: vec![(ObjectId(1), Version(3), Bytes::from_static(b"x"))],
        };
        let actions = m.handle(
            t0,
            ServerInput::Peer {
                from: ServerId(99),
                msg: manifest.clone(),
            },
        );
        let p = peer_sends(&actions);
        assert_eq!(p.len(), 1);
        assert!(matches!(
            p[0].1,
            PeerMsg::HandoffAck { volume, epoch }
                if *volume == VolumeId(0) && *epoch == Epoch(1)
        ));
        assert!(m.hosts(VolumeId(0)));
        assert_eq!(m.stats().handoffs_in, 1);
        // A duplicate manifest (coordinator retry) re-acks, no reinstall.
        let actions = m.handle(
            t0,
            ServerInput::Peer {
                from: ServerId(99),
                msg: manifest,
            },
        );
        assert_eq!(peer_sends(&actions).len(), 1);
        assert_eq!(m.stats().handoffs_in, 1);
        // Writes to the adopted volume are gated until every lease the
        // previous owner granted has expired — exactly the crash gate.
        let actions = m.handle(
            t0,
            ServerInput::Write {
                object: ObjectId(1),
                data: Bytes::from_static(b"y"),
            },
        );
        assert!(
            !actions
                .iter()
                .any(|a| matches!(a, ServerAction::CompleteWrite { .. })),
            "adopted volume must wait out the loser's leases: {actions:?}"
        );
        assert!(actions.iter().any(|a| matches!(
            a,
            ServerAction::SetTimer {
                kind: TimerKind::WriteWait,
                at
            } if *at == Timestamp::from_secs(50)
        )));
        // ...while the home volume is not gated.
        let actions = m.handle(
            t0,
            ServerInput::Write {
                object: ObjectId(7),
                data: Bytes::from_static(b"h"),
            },
        );
        assert!(
            !actions
                .iter()
                .any(|a| matches!(a, ServerAction::CompleteWrite { .. })),
            "FIFO: the gated head write blocks the queue: {actions:?}"
        );
        // At the gate both writes drain in order.
        let actions = m.handle(Timestamp::from_secs(50), ServerInput::Tick);
        let outcomes: Vec<&WriteOutcome> = actions
            .iter()
            .filter_map(|a| match a {
                ServerAction::CompleteWrite { outcome } => Some(outcome),
                _ => None,
            })
            .collect();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].version, Version(4));
        assert_eq!(outcomes[0].delay, Duration::from_secs(40));
        // A client arriving with the pre-handoff epoch re-syncs through
        // MUST_RENEW_ALL — the ordinary reconnection path.
        let t1 = Timestamp::from_secs(51);
        let actions = m.handle(
            t1,
            msg(
                7,
                ClientMsg::ReqVolLease {
                    volume: VolumeId(0),
                    epoch: Epoch(0),
                },
            ),
        );
        assert!(matches!(
            sends(&actions)[0].1,
            ServerMsg::MustRenewAll { volume } if *volume == VolumeId(0)
        ));
        // Its stale copy (version 3; the gainer committed version 4) is
        // invalidated in the verdict.
        let actions = m.handle(
            t1,
            msg(
                7,
                ClientMsg::RenewObjLeases {
                    volume: VolumeId(0),
                    leases: vec![(ObjectId(1), Version(3))],
                },
            ),
        );
        match sends(&actions)[0].1 {
            ServerMsg::InvalRenew {
                invalidate, renew, ..
            } => {
                assert_eq!(invalidate.as_slice(), &[ObjectId(1)]);
                assert!(renew.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn shard_map_redirects_unhosted_volume_requests() {
        let (mut m, _) = ServerMachine::new(MachineConfig::new(ServerId(0)), None);
        let map = ShardMap::new(vec![ServerId(0), ServerId(1), ServerId(2)]);
        // Find a volume each for: owned-by-other and owned-by-self.
        let foreign = (1..100)
            .map(VolumeId)
            .find(|&v| map.owner(v) != Some(ServerId(0)))
            .expect("some volume lands elsewhere");
        let self_owned = (1..100)
            .map(VolumeId)
            .find(|&v| map.owner(v) == Some(ServerId(0)))
            .expect("some volume lands here");
        let t0 = Timestamp::ZERO;
        m.handle(t0, ServerInput::SetShardMap { map: map.clone() });
        // Unhosted, owned elsewhere: redirect carrying the map.
        let actions = m.handle(
            t0,
            msg(
                7,
                ClientMsg::ReqVolLease {
                    volume: foreign,
                    epoch: Epoch(0),
                },
            ),
        );
        match sends(&actions)[0].1 {
            ServerMsg::WrongShard {
                volume,
                owner,
                map_version,
                servers,
            } => {
                assert_eq!(*volume, foreign);
                assert_eq!(Some(*owner), map.owner(foreign));
                assert_eq!(*map_version, 1);
                assert_eq!(servers.as_slice(), map.servers());
            }
            other => panic!("expected redirect, got {other:?}"),
        }
        // Unhosted but map says we own it: drop (no self-redirect loop).
        let actions = m.handle(
            t0,
            msg(
                7,
                ClientMsg::ReqVolLease {
                    volume: self_owned,
                    epoch: Epoch(0),
                },
            ),
        );
        assert!(sends(&actions).is_empty());
        // The home volume still grants normally.
        let actions = m.handle(
            t0,
            msg(
                7,
                ClientMsg::ReqVolLease {
                    volume: VolumeId(0),
                    epoch: Epoch(0),
                },
            ),
        );
        assert!(matches!(sends(&actions)[0].1, ServerMsg::VolLease { .. }));
        // An older map never replaces a newer one.
        m.handle(
            t0,
            ServerInput::SetShardMap {
                map: ShardMap::with_version(0, vec![ServerId(0)]),
            },
        );
        assert_eq!(m.shard_map().map(ShardMap::version), Some(1));
    }
}
