//! The server half of the protocol as a pure state machine: a router
//! over one [`VolumeMachine`] per hosted volume — the shape `vl-client`
//! has as one driver over a `ClientMachine` per volume.
//!
//! The protocol (Figure 3, reconnection, delayed invalidations, the
//! write queue and its wait) is `volume.rs`, which knows one volume and
//! nothing of where it runs. Here is what hosting several adds: which
//! volume a message or a write is for ([`ClientMsg::scope`], plus an
//! `object → volume` index for what names only an object), what to tell
//! a client or a writer that asked the wrong server, the stable record,
//! and the driver's two timers. Nothing here schedules: every volume
//! runs its own writes, and none waits for another's.
//! A shard-mapped fleet moves a volume with the paper's crash-recovery
//! trick: the loser takes the machine out of its table, bumps the
//! epoch and ships the manifest; the gainer builds a machine from it
//! that gates writes until every lease the loser granted has expired;
//! clients re-sync through the ordinary `MUST_RENEW_ALL` path.

use super::volume::{Host, VolumeMachine};
use super::{MachineConfig, StableState, WriteOutcome};
use bytes::Bytes;
use std::collections::{BTreeMap, HashMap};
use vl_proto::{ClientMsg, PeerMsg, Scope, ServerMsg};
use vl_types::{
    ClientId, Duration, Epoch, ObjectId, ServerId, ShardMap, Timestamp, Version, VolumeId,
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
    /// Clients demoted after `d` of inactivity.
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
    /// The oldest uncommitted write of
    /// [`outcome.object`](WriteOutcome::object) is over: committed, or
    /// aborted with [`moved_to`](WriteOutcome::moved_to) set. The writes
    /// of one volume complete in enqueue order; volumes do not wait for
    /// each other.
    CompleteWrite {
        /// The result to hand to the writer.
        outcome: WriteOutcome,
    },
}

/// The server state machine: Figure 3 plus the reconnection protocol
/// (§3.1.1), epoch-based crash recovery (§3.1.2), delayed invalidations
/// (§3.2), and multi-volume hosting with epoch-bumped volume handoff,
/// with every effect returned as data.
///
/// Drivers feed it [`ServerInput`]s tagged with the current time and
/// execute the returned [`ServerAction`]s; see the module docs for the
/// contract.
#[cfg_attr(test, derive(Clone))]
pub struct ServerMachine {
    /// Hosted volumes. The home volume ([`MachineConfig::volume`]) is
    /// seeded at boot; others arrive by handoff.
    volumes: BTreeMap<VolumeId, VolumeMachine>,
    /// Which volume every object ever seen here belongs to. Entries
    /// outlive their volume's departure: with `departed` they are the
    /// forwarding address of a moved object.
    index: HashMap<ObjectId, VolumeId>,
    /// Volumes this server handed off, and where they went. Redirects
    /// prefer this over the shard map — it is ground truth. A volume
    /// the index names is either hosted or here.
    departed: BTreeMap<VolumeId, ServerId>,
    shard_map: Option<ShardMap>,
    /// The configuration, and where the volumes' effects collect.
    host: Host,
    /// Last deadline emitted per [`TimerKind`], to suppress duplicates.
    last_timer: [Option<Timestamp>; 2],
    /// The stable record as last emitted in [`ServerAction::Persist`]
    /// (at boot: the recovered one, epoch bumped). Its bound only rises.
    persisted: StableState,
}

impl std::fmt::Debug for ServerMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerMachine")
            .field("server", &self.host.cfg.server)
            .field("epoch", &self.epoch())
            .field("volumes", &self.volumes.len())
            .field("objects", &self.index.len())
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
        // Reboot: bump the epoch and wait out pre-crash leases.
        let record = stable.map_or(StableState::default(), |rec| StableState {
            epoch: rec.epoch.next(),
            ..rec
        });
        let (epoch, recovery_until) = (record.epoch, record.max_volume_expiry);
        let mut volumes = BTreeMap::new();
        volumes.insert(cfg.volume, VolumeMachine::new(epoch, recovery_until));
        let machine = ServerMachine {
            volumes,
            index: HashMap::new(),
            departed: BTreeMap::new(),
            shard_map: None,
            host: Host {
                cfg,
                actions: Vec::new(),
                stats: ServerStats::default(),
                unpersisted: Timestamp::ZERO,
            },
            last_timer: [None, None],
            persisted: record,
        };
        (machine, vec![ServerAction::Persist { state: record }])
    }

    /// The configuration this machine was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.host.cfg
    }

    /// The home volume's current epoch. After the home volume departs in
    /// a handoff this keeps reporting the bumped (departure) epoch.
    pub fn epoch(&self) -> Epoch {
        self.volumes
            .get(&self.host.cfg.volume)
            .map_or(self.host.stats.epoch, |vm| vm.epoch)
    }

    /// The instant before which writes to the home volume stay
    /// recovery-gated (§3.1.2); [`Timestamp::ZERO`] on a clean boot.
    pub fn recovery_until(&self) -> Timestamp {
        self.volumes
            .get(&self.host.cfg.volume)
            .map_or(Timestamp::ZERO, |vm| vm.write_gate)
    }

    /// Whether `volume` is currently hosted here.
    pub fn hosts(&self, volume: VolumeId) -> bool {
        self.volumes.contains_key(&volume)
    }

    /// The volume `object` belongs to, if it was ever created, written
    /// or adopted here — still answered after that volume has left.
    pub fn volume_of(&self, object: ObjectId) -> Option<VolumeId> {
        self.index.get(&object).copied()
    }

    /// The volume a message is about: the one it names, else the one
    /// its object belongs to.
    pub(super) fn volume_in(&self, scope: Scope) -> Option<VolumeId> {
        match scope {
            Scope::Volume(volume) => Some(volume),
            Scope::Object(object) => self.volume_of(object),
        }
    }

    /// The shard map the machine currently redirects by, if any.
    pub fn shard_map(&self) -> Option<&ShardMap> {
        self.shard_map.as_ref()
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> ServerStats {
        let mut stats = self.host.stats;
        stats.epoch = self.epoch();
        for vm in self.volumes.values() {
            vm.count_clients(&mut stats);
        }
        stats
    }

    /// Advances the machine by one input and returns the actions the
    /// driver must execute, in order.
    pub fn handle(&mut self, now: Timestamp, input: ServerInput) -> Vec<ServerAction> {
        let mut actions = Vec::new();
        self.handle_into(now, input, &mut actions);
        actions
    }

    /// [`handle`](ServerMachine::handle) appending to `out`, so a driver
    /// that drains and reuses one buffer allocates nothing per input.
    pub fn handle_into(&mut self, now: Timestamp, input: ServerInput, out: &mut Vec<ServerAction>) {
        // Empty between inputs: the volumes push onto the caller's buffer.
        std::mem::swap(&mut self.host.actions, out);
        match input {
            ServerInput::CreateObject {
                object,
                data,
                version,
            } => {
                let volume = *self.index.entry(object).or_insert(self.host.cfg.volume);
                if let Some(vm) = self.volumes.get_mut(&volume) {
                    vm.create_object(object, data, version);
                }
            }
            ServerInput::Write { object, data } => {
                // Writing an object nobody has heard of creates it in
                // the home volume.
                let volume = *self.index.entry(object).or_insert(self.host.cfg.volume);
                if let Some(vm) = self.volumes.get_mut(&volume) {
                    vm.enqueue_write(now, object, data);
                } else {
                    // The writer retries at the volume's new owner.
                    let to = self.departed.get(&volume).copied();
                    self.complete_moved(object, Duration::ZERO, to);
                }
            }
            ServerInput::Msg { from, msg } => {
                self.host.stats.msgs_in += 1;
                self.handle_msg(now, from, msg);
            }
            ServerInput::Peer { from, msg } => {
                self.host.stats.msgs_in += 1;
                self.handle_peer(now, from, msg);
            }
            ServerInput::SetShardMap { map } => {
                let held = self.shard_map.as_ref();
                if held.is_none_or(|m| map.version() > m.version()) {
                    self.shard_map = Some(map);
                }
            }
            ServerInput::PeerDisconnected { client } => {
                // One connection, however many volumes it was seen in.
                let mut newly = false;
                for vm in self.volumes.values_mut() {
                    newly |= vm.peer_disconnected(client);
                }
                self.host.stats.disconnects += u64::from(newly);
            }
            ServerInput::Tick => {}
        }
        self.pump(now);
        std::mem::swap(&mut self.host.actions, out);
    }

    /// Post-input progress: every volume's writes, then every volume's
    /// demotions, the stable record, and the earliest of the deadlines.
    fn pump(&mut self, now: Timestamp) {
        for vm in self.volumes.values_mut() {
            vm.pump_writes(now, &mut self.host);
        }
        // A volume's deadline is read after its demotions: one may have
        // made its write due now.
        let (mut write_wait, mut demotion) = (None::<Timestamp>, None::<Timestamp>);
        for vm in self.volumes.values_mut() {
            let due = vm.demote_overdue(now, &mut self.host);
            demotion = demotion.into_iter().chain(due).min();
            write_wait = write_wait.into_iter().chain(vm.write_deadline()).min();
        }
        // The record bounds every lease ever granted or adopted here, so
        // it never moves back: a later, shorter bound (an adopted or
        // departing volume's) would let a reboot write under a lease
        // still valid. Grants of one millisecond share one expiry, so
        // it is also not rewritten per renewal.
        let owed = std::mem::replace(&mut self.host.unpersisted, Timestamp::ZERO);
        if owed != Timestamp::ZERO {
            let state = StableState {
                epoch: self.epoch(),
                max_volume_expiry: self.persisted.max_volume_expiry.max(owed),
            };
            if state != self.persisted {
                self.persisted = state;
                self.host.actions.push(ServerAction::Persist { state });
            }
        }
        for (kind, deadline) in [
            (TimerKind::WriteWait, write_wait),
            (TimerKind::Demotion, demotion),
        ] {
            let idx = kind as usize;
            if deadline != self.last_timer[idx] {
                self.last_timer[idx] = deadline;
                if let Some(at) = deadline {
                    self.host.actions.push(ServerAction::SetTimer { kind, at });
                }
            }
        }
    }

    /// Completes a write to `object`, whose volume has gone to `to`:
    /// nothing is written here.
    fn complete_moved(&mut self, object: ObjectId, delay: Duration, to: Option<ServerId>) {
        self.host.actions.push(ServerAction::CompleteWrite {
            outcome: WriteOutcome {
                object,
                delay,
                moved_to: to,
                ..WriteOutcome::default()
            },
        });
    }

    fn send_peer(&mut self, to: ServerId, msg: PeerMsg) {
        self.host.stats.msgs_out += 1;
        self.host.actions.push(ServerAction::SendPeer { to, msg });
    }

    /// Answers a request for an unhosted volume with `WRONG_SHARD`,
    /// attaching the shard map when one is held so the client can
    /// refresh its routing. The departure record is ground truth; the
    /// shard map is the fallback. With neither (or if the map claims we
    /// own it — a map/hosting disagreement the next rebalance will fix)
    /// the request is dropped, as the single-volume server always did
    /// for foreign volumes.
    fn redirect(&mut self, volume: VolumeId, client: ClientId) {
        let me = self.host.cfg.server;
        let map = self.shard_map.as_ref();
        let Some(owner) = (self.departed.get(&volume).copied())
            .or_else(|| map?.owner(volume).filter(|&o| o != me))
        else {
            return;
        };
        let (map_version, servers) =
            map.map_or((0, Vec::new()), |m| (m.version(), m.servers().to_vec()));
        self.host.stats.redirects += 1;
        self.host.send(
            client,
            ServerMsg::WrongShard {
                volume,
                owner,
                map_version,
                servers,
            },
        );
    }

    /// Hands a client message to the machine of the volume it is about,
    /// or answers for the volume that is not here.
    fn handle_msg(&mut self, now: Timestamp, client: ClientId, msg: ClientMsg) {
        let volume = self.volume_in(msg.scope());
        if let Some(vm) = volume.and_then(|v| self.volumes.get_mut(&v)) {
            return vm.handle_msg(now, client, msg, &mut self.host);
        }
        match (volume, msg) {
            // An ack for a volume that has left answers nothing.
            (_, ClientMsg::AckInvalidate { .. }) => self.host.stats.stale_acks += 1,
            (_, ClientMsg::AckVolBatch { .. }) => {}
            (Some(volume), _) => self.redirect(volume, client),
            (None, _) => self.host.stats.unknown_objects += 1,
        }
    }

    /// Handles the volume-handoff exchange (coordinator-mediated; see
    /// `vl-proto`'s [`PeerMsg`] docs for the flow).
    fn handle_peer(&mut self, now: Timestamp, from: ServerId, msg: PeerMsg) {
        match msg {
            PeerMsg::HandoffRequest { volume, to } => {
                // Give up `volume`: take its machine out and ship what
                // it packs. Requests for a volume we do not host are
                // ignored (a duplicate request after the volume already
                // left is answered by the redirect path, not a second
                // manifest).
                let Some(vm) = self.volumes.remove(&volume) else {
                    return;
                };
                let left = vm.depart();
                self.departed.insert(volume, to);
                // Its uncommitted writes are aborted; their writers
                // retry at the new owner too.
                for (object, enqueued) in left.aborted {
                    self.complete_moved(object, now.saturating_sub(enqueued), Some(to));
                }
                if volume == self.host.cfg.volume {
                    // epoch() keeps reporting the bumped epoch after the
                    // home volume departs.
                    self.host.stats.epoch = left.epoch;
                }
                self.host.unpersisted = self.host.unpersisted.max(left.max_vol_expiry);
                self.host.stats.handoffs_out += 1;
                self.send_peer(
                    from,
                    PeerMsg::Handoff {
                        volume,
                        epoch: left.epoch,
                        max_vol_expiry: left.max_vol_expiry,
                        objects: left.objects,
                    },
                );
                // Replay requests deferred by the aborted write: they
                // now find the volume gone and get redirected.
                for (client, msg) in left.deferred {
                    self.handle_msg(now, client, msg);
                }
            }
            PeerMsg::Handoff {
                volume,
                epoch,
                max_vol_expiry,
                objects,
            } => {
                if let Some(vm) = self.volumes.get(&volume) {
                    // Already here (a coordinator retry): re-ack
                    // idempotently, don't reinstall.
                    let epoch = vm.epoch;
                    self.send_peer(from, PeerMsg::HandoffAck { volume, epoch });
                    return;
                }
                // Adopt the volume. The write gate is exactly the
                // crash-recovery gate: no write until every lease the
                // previous owner granted has expired. Clients arrive
                // with the old epoch and re-sync via MUST_RENEW_ALL.
                let mut vm = VolumeMachine::new(epoch, max_vol_expiry);
                for (id, version, data) in objects {
                    self.index.insert(id, volume);
                    vm.create_object(id, data, version);
                }
                self.volumes.insert(volume, vm);
                self.departed.remove(&volume);
                // Persist the gate so a crash right after adoption
                // still waits out the previous owner's leases.
                self.host.unpersisted = self.host.unpersisted.max(max_vol_expiry);
                self.host.stats.handoffs_in += 1;
                self.send_peer(from, PeerMsg::HandoffAck { volume, epoch });
            }
            // The ack is for the coordinator; a server hearing one has
            // nothing to do.
            PeerMsg::HandoffAck { .. } => {}
        }
    }
}

#[cfg(test)]
impl ServerMachine {
    /// The state the protocol reads, as text through sorted views, for a
    /// search to tell states it has seen. Counters are left out.
    pub(super) fn fingerprint(&self, out: &mut String) {
        use std::fmt::Write;
        for (volume, vm) in &self.volumes {
            let _ = write!(out, "{volume:?}:");
            vm.fingerprint(out);
        }
        let mut index: Vec<_> = self.index.iter().collect();
        index.sort_unstable();
        let _ = write!(
            out,
            "{index:?} {:?} {:?} {:?} {:?}",
            self.departed, self.shard_map, self.last_timer, self.persisted
        );
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
            m.volumes[&VolumeId(0)].lease_valid_for(O, ClientId(7), t0),
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

    const VOL_LEASE_REQ: ClientMsg = ClientMsg::ReqVolLease {
        volume: VolumeId(0),
        epoch: Epoch(0),
    };

    /// t = 60 s, t_v = 2 s: client 7 takes both leases at `t0`, and a
    /// write to the object starts there and blocks on its ack, due to
    /// wait the holder out at `t0` + 2 s.
    fn write_blocked_on_silent_client_seven(m: &mut ServerMachine, t0: Timestamp) {
        let (object, version) = (ObjectId(1), Version::NONE);
        m.handle(t0, msg(7, VOL_LEASE_REQ));
        m.handle(t0, msg(7, ClientMsg::ReqObjLease { object, version }));
        let data = Bytes::from_static(b"b");
        let actions = m.handle(t0, ServerInput::Write { object, data });
        assert!(outcomes(&actions).is_empty(), "{actions:?}");
        assert_eq!(write_wait(&actions), Some(t0 + Duration::from_secs(2)));
    }

    fn write_wait(actions: &[ServerAction]) -> Option<Timestamp> {
        actions.iter().find_map(|a| match a {
            ServerAction::SetTimer { kind, at } if *kind == TimerKind::WriteWait => Some(*at),
            _ => None,
        })
    }

    /// Ticks at `early`, where the write must still be blocked, then at
    /// `deadline`, where it must wait its one holder out.
    fn commits_at_and_not_before(m: &mut ServerMachine, early: Timestamp, deadline: Timestamp) {
        let actions = m.handle(early, ServerInput::Tick);
        assert!(outcomes(&actions).is_empty(), "early commit: {actions:?}");
        commits_waiting_out_one(&m.handle(deadline, ServerInput::Tick));
    }

    fn commits_waiting_out_one(actions: &[ServerAction]) {
        match outcomes(actions)[..] {
            [outcome] => assert_eq!(outcome.waited_out, 1),
            _ => panic!("the lapsed holder must unblock the write: {actions:?}"),
        }
    }

    /// A write's wait for a holder is min(t, t_v) as the leases stand,
    /// not as they stood at fan-out: a renewal moves it later.
    #[test]
    fn volume_renewal_mid_write_moves_the_wait_out_deadline() {
        let mut m = machine_with_object_one();
        write_blocked_on_silent_client_seven(&mut m, Timestamp::ZERO);
        let actions = m.handle(Timestamp::from_millis(1_500), msg(7, VOL_LEASE_REQ));
        assert!(matches!(
            sends(&actions)[..],
            [
                (_, ServerMsg::VolLease { .. }),
                (_, ServerMsg::Invalidate { .. })
            ]
        ));
        let deadline = Timestamp::from_millis(3_500);
        assert_eq!(write_wait(&actions), Some(deadline));
        commits_at_and_not_before(&mut m, Timestamp::from_secs(2), deadline);
    }

    /// The same through reconnection: the volume lease that ends the
    /// exchange is as good as a renewed one, even to a client that
    /// reported no copy of the object being written.
    #[test]
    fn reconnection_mid_write_moves_the_wait_out_deadline() {
        let mut m = machine_with_object_one();
        write_blocked_on_silent_client_seven(&mut m, Timestamp::ZERO);
        let client = ClientId(7);
        m.handle(
            Timestamp::from_millis(500),
            ServerInput::PeerDisconnected { client },
        );
        let now = Timestamp::from_secs(1);
        let actions = m.handle(now, msg(7, VOL_LEASE_REQ));
        assert!(matches!(
            sends(&actions)[..],
            [(_, ServerMsg::MustRenewAll { .. })]
        ));
        let volume = VolumeId(0);
        let leases = Vec::new();
        m.handle(now, msg(7, ClientMsg::RenewObjLeases { volume, leases }));
        let actions = m.handle(now, msg(7, ClientMsg::AckVolBatch { volume }));
        assert!(matches!(
            sends(&actions)[..],
            [(_, ServerMsg::VolLease { .. })]
        ));
        let deadline = Timestamp::from_secs(3);
        assert_eq!(write_wait(&actions), Some(deadline));
        commits_at_and_not_before(&mut m, Timestamp::from_secs(2), deadline);
    }

    /// Demotion revokes object leases, and a holder without one holds
    /// nothing up: the write waits it out at the demotion, well before
    /// min(t, t_v).
    #[test]
    fn demotion_of_an_outstanding_holder_ends_its_wait() {
        let mut cfg = MachineConfig::new(ServerId(0));
        cfg.inactive_discard = Some(Duration::from_secs(1));
        let (mut m, _) = ServerMachine::new(cfg, None);
        let (object, version) = (ObjectId(1), Version::FIRST);
        let data = Bytes::from_static(b"a");
        m.handle(
            Timestamp::ZERO,
            ServerInput::CreateObject {
                object,
                data,
                version,
            },
        );
        m.handle(Timestamp::ZERO, msg(7, VOL_LEASE_REQ));
        // Inactive since its volume lease lapsed at 2 s, so due for
        // demotion at 3 s: the batch its renewal carries is never acked.
        grant_then_queue_an_invalidation(&mut m, Timestamp::from_millis(2_500), 7);
        let t0 = Timestamp::from_millis(2_600);
        write_blocked_on_silent_client_seven(&mut m, t0);
        let demotion = Timestamp::from_secs(3);
        let actions = m.handle(demotion, ServerInput::Tick);
        assert!(outcomes(&actions).is_empty(), "{actions:?}");
        assert_eq!(write_wait(&actions), Some(demotion));
        assert_eq!(m.stats().inactive, 0, "client 7 was demoted");
        commits_waiting_out_one(&m.handle(demotion, ServerInput::Tick));
    }

    /// A renewal leaves the client's row alone, and no row lists the
    /// objects its client holds: demotion must still find and revoke
    /// the lease the client only renewed, so a write after the client
    /// is back contacts it no more.
    #[test]
    fn demotion_revokes_a_renewed_lease_too() {
        let mut cfg = MachineConfig::new(ServerId(0));
        cfg.inactive_discard = Some(Duration::from_secs(1));
        let (mut m, _) = ServerMachine::new(cfg, None);
        const O2: ObjectId = ObjectId(2);
        for object in [ObjectId(1), O2] {
            let (data, version) = (Bytes::from_static(b"a"), Version::FIRST);
            m.handle(
                Timestamp::ZERO,
                ServerInput::CreateObject {
                    object,
                    data,
                    version,
                },
            );
        }
        m.handle(Timestamp::ZERO, msg(7, VOL_LEASE_REQ));
        let grant = |version| {
            msg(
                7,
                ClientMsg::ReqObjLease {
                    object: O2,
                    version,
                },
            )
        };
        m.handle(Timestamp::ZERO, grant(Version::NONE));
        let renewal = m.handle(Timestamp::from_secs(1), grant(Version::FIRST));
        assert!(matches!(
            sends(&renewal)[..],
            [(_, ServerMsg::ObjLease { data: None, .. })]
        ));
        // Inactive since its volume lease lapsed at 2 s, so demoted at 3 s.
        grant_then_queue_an_invalidation(&mut m, Timestamp::from_millis(2_500), 7);
        let now = Timestamp::from_secs(3);
        m.handle(now, ServerInput::Tick);
        assert_eq!(m.stats().demotions, 1);
        assert!(!m.volumes[&VolumeId(0)].lease_valid_for(O2, ClientId(7), now));
        // Back with a valid volume lease, it holds no lease on O2 to
        // invalidate.
        let actions = m.handle(now, msg(7, VOL_LEASE_REQ));
        assert!(matches!(
            sends(&actions)[..],
            [(_, ServerMsg::MustRenewAll { .. })]
        ));
        assert!(finish_handshake_reporting_nothing(&mut m, now, 7).is_empty());
        let data = Bytes::from_static(b"b");
        let actions = m.handle(now, ServerInput::Write { object: O2, data });
        assert!(sends(&actions).is_empty(), "{actions:?}");
        match outcomes(&actions)[..] {
            [outcome] => assert_eq!((outcome.invalidations_sent, outcome.queued), (0, 0)),
            _ => panic!("the write must commit at once: {actions:?}"),
        }
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
        // ...while the home volume is not gated: its write commits at
        // once, past the one still standing at the other volume's gate.
        let actions = m.handle(
            t0,
            ServerInput::Write {
                object: ObjectId(7),
                data: Bytes::from_static(b"h"),
            },
        );
        let done = outcomes(&actions);
        assert_eq!(done.len(), 1, "{actions:?}");
        assert_eq!(
            (done[0].object, done[0].version),
            (ObjectId(7), Version::FIRST)
        );
        assert_eq!(done[0].delay, Duration::ZERO);
        // The adopted volume's stays gated to 50 s.
        let actions = m.handle(Timestamp::from_millis(49_999), ServerInput::Tick);
        assert!(outcomes(&actions).is_empty(), "{actions:?}");
        let actions = m.handle(Timestamp::from_secs(50), ServerInput::Tick);
        let done = outcomes(&actions);
        assert_eq!(done.len(), 1, "{actions:?}");
        assert_eq!((done[0].object, done[0].version), (ObjectId(1), Version(4)));
        assert_eq!(done[0].delay, Duration::from_secs(40));
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

    /// Home volume 0 with object 1, plus volume 5 (object 50) adopted at
    /// `t0` behind a write gate at 50 s; client 7 holds volume leases in
    /// both and an object lease on 1.
    fn two_volume_machine(t0: Timestamp) -> ServerMachine {
        let mut m = machine_with_object_one();
        let manifest = PeerMsg::Handoff {
            volume: VolumeId(5),
            epoch: Epoch(1),
            max_vol_expiry: Timestamp::from_secs(50),
            objects: vec![(ObjectId(50), Version(3), Bytes::from_static(b"x"))],
        };
        let from = ServerId(99);
        m.handle(
            t0,
            ServerInput::Peer {
                from,
                msg: manifest,
            },
        );
        for (volume, epoch) in [(VolumeId(0), Epoch(0)), (VolumeId(5), Epoch(1))] {
            let actions = m.handle(t0, msg(7, ClientMsg::ReqVolLease { volume, epoch }));
            assert!(matches!(
                sends(&actions)[..],
                [(_, ServerMsg::VolLease { .. })]
            ));
        }
        let (object, version) = (ObjectId(1), Version::NONE);
        m.handle(t0, msg(7, ClientMsg::ReqObjLease { object, version }));
        m
    }

    fn outcomes(actions: &[ServerAction]) -> Vec<WriteOutcome> {
        let outcome = |a: &ServerAction| match a {
            ServerAction::CompleteWrite { outcome } => Some(*outcome),
            _ => None,
        };
        actions.iter().filter_map(outcome).collect()
    }

    /// The seam between the router and its machines: one volume leaving
    /// must not disturb a write another volume is in the middle of.
    #[test]
    fn a_blocked_write_survives_the_handoff_of_another_volume() {
        let t0 = Timestamp::from_secs(10);
        let mut m = two_volume_machine(t0);
        let write = |object, data: &'static [u8]| ServerInput::Write {
            object: ObjectId(object),
            data: Bytes::from_static(data),
        };
        // Volume 5's adoption gate (50 s) does not hold up volume 0:
        // the write starts at once and waits for client 7 alone.
        let actions = m.handle(t0, write(1, b"b"));
        assert!(matches!(
            sends(&actions)[..],
            [(ClientId(7), ServerMsg::Invalidate { .. })]
        ));
        let deadline = Timestamp::from_secs(12);
        assert!(actions.iter().any(|a| matches!(
            a,
            ServerAction::SetTimer { kind: TimerKind::WriteWait, at } if *at == deadline
        )));
        // Client 8's request for the object is deferred behind it, and
        // a write to volume 5 stands at that volume's gate.
        let (object, version) = (ObjectId(1), Version::NONE);
        let actions = m.handle(t0, msg(8, ClientMsg::ReqObjLease { object, version }));
        assert!(sends(&actions).is_empty(), "mid-write grant must defer");
        assert!(m.handle(t0, write(50, b"y")).is_empty());

        // Volume 5 leaves: its manifest ships and its queued write
        // learns where it went; nothing else happens.
        let request = PeerMsg::HandoffRequest {
            volume: VolumeId(5),
            to: ServerId(1),
        };
        let from = ServerId(99);
        let actions = m.handle(
            Timestamp::from_millis(10_100),
            ServerInput::Peer { from, msg: request },
        );
        match peer_sends(&actions)[..] {
            [(
                ServerId(99),
                PeerMsg::Handoff {
                    volume,
                    epoch,
                    max_vol_expiry,
                    objects,
                },
            )] => {
                assert_eq!((*volume, *epoch), (VolumeId(5), Epoch(2)));
                assert_eq!(*max_vol_expiry, deadline, "client 7's lease in volume 5");
                let x = Bytes::from_static(b"x");
                assert_eq!(objects[..], [(ObjectId(50), Version(3), x)]);
            }
            _ => panic!("expected one manifest: {actions:?}"),
        }
        let done = outcomes(&actions);
        assert_eq!(done.len(), 1, "{actions:?}");
        assert_eq!(
            (done[0].object, done[0].moved_to),
            (ObjectId(50), Some(ServerId(1)))
        );
        assert_eq!(done[0].delay, Duration::from_millis(100));
        assert!(sends(&actions).is_empty());
        assert!(!actions
            .iter()
            .any(|a| matches!(a, ServerAction::SetTimer { .. })));
        assert!(m.hosts(VolumeId(0)) && !m.hosts(VolumeId(5)));

        // Volume 0's write still waits for client 7, to min(t, t_v) ...
        let actions = m.handle(Timestamp::from_millis(11_999), ServerInput::Tick);
        assert!(outcomes(&actions).is_empty(), "{actions:?}");
        // ... commits there and grants client 8 the new version.
        let actions = m.handle(deadline, ServerInput::Tick);
        let done = outcomes(&actions);
        assert_eq!(done.len(), 1, "{actions:?}");
        assert_eq!((done[0].object, done[0].moved_to), (ObjectId(1), None));
        assert_eq!(
            (done[0].waited_out, done[0].delay),
            (1, Duration::from_secs(2))
        );
        match sends(&actions)[..] {
            [(ClientId(8), ServerMsg::ObjLease { version, data, .. })] => {
                assert_eq!(*version, Version(2));
                assert_eq!(data.as_deref(), Some(b"b".as_slice()));
            }
            _ => panic!("the deferred request replays once: {actions:?}"),
        }
    }

    /// The paper's bound is per volume: a write waits on the holders of
    /// its own volume and on nothing else the server hosts.
    #[test]
    fn a_blocked_write_in_one_volume_does_not_hold_up_another() {
        // Past volume 5's adoption gate (50 s).
        let t0 = Timestamp::from_secs(60);
        let mut m = two_volume_machine(t0);
        let write = |object, data: &'static [u8]| ServerInput::Write {
            object: ObjectId(object),
            data: Bytes::from_static(data),
        };
        // Volume 0's write waits for client 7, to 62 s.
        let actions = m.handle(t0, write(1, b"b"));
        assert!(outcomes(&actions).is_empty(), "{actions:?}");
        let deadline = Timestamp::from_secs(62);
        let wait = TimerKind::WriteWait;
        assert!(actions.contains(&ServerAction::SetTimer {
            kind: wait,
            at: deadline
        }));
        // A write to volume 5, issued later, commits in the same call.
        let actions = m.handle(Timestamp::from_millis(60_100), write(50, b"y"));
        let done = outcomes(&actions);
        assert_eq!(done.len(), 1, "{actions:?}");
        assert_eq!(
            (done[0].object, done[0].version),
            (ObjectId(50), Version(4))
        );
        assert_eq!((done[0].delay, done[0].moved_to), (Duration::ZERO, None));
        // Volume 0's still waits, and commits at its own deadline.
        let actions = m.handle(Timestamp::from_millis(61_999), ServerInput::Tick);
        assert!(outcomes(&actions).is_empty(), "{actions:?}");
        let actions = m.handle(deadline, ServerInput::Tick);
        let done = outcomes(&actions);
        assert_eq!(done.len(), 1, "{actions:?}");
        assert_eq!((done[0].object, done[0].version), (ObjectId(1), Version(2)));
        assert_eq!(
            (done[0].waited_out, done[0].delay),
            (1, Duration::from_secs(2))
        );
    }

    /// A departing volume takes its whole pipeline with it: the active
    /// write, then the queue, each writer told where to retry.
    #[test]
    fn a_departing_volume_completes_every_uncommitted_write_as_moved() {
        let t0 = Timestamp::from_secs(10);
        let mut m = machine_with_object_one();
        let (volume, epoch) = (VolumeId(0), Epoch(0));
        m.handle(t0, msg(7, ClientMsg::ReqVolLease { volume, epoch }));
        let (object, version) = (ObjectId(1), Version::NONE);
        m.handle(t0, msg(7, ClientMsg::ReqObjLease { object, version }));
        // One write blocked on client 7, two queued behind it.
        for (ms, object) in [(0, 1), (100, 2), (200, 1)] {
            let input = ServerInput::Write {
                object: ObjectId(object),
                data: Bytes::from_static(b"w"),
            };
            let actions = m.handle(t0.saturating_add(Duration::from_millis(ms)), input);
            assert!(outcomes(&actions).is_empty(), "{actions:?}");
        }
        let request = PeerMsg::HandoffRequest {
            volume,
            to: ServerId(1),
        };
        let from = ServerId(99);
        let actions = m.handle(
            Timestamp::from_millis(10_500),
            ServerInput::Peer { from, msg: request },
        );
        let moved = |object, ms| WriteOutcome {
            object: ObjectId(object),
            delay: Duration::from_millis(ms),
            moved_to: Some(ServerId(1)),
            ..WriteOutcome::default()
        };
        assert_eq!(
            outcomes(&actions),
            [moved(1, 500), moved(2, 400), moved(1, 300)]
        );
        assert_eq!(m.stats().writes, 0, "nothing was written here");
        // No timer is left behind for a pipeline that is gone.
        let actions = m.handle(Timestamp::from_secs(12), ServerInput::Tick);
        assert!(actions.is_empty(), "{actions:?}");
    }

    #[test]
    fn disconnect_reaches_every_volume_and_counts_once() {
        let t0 = Timestamp::from_secs(10);
        let mut m = two_volume_machine(t0);
        let client = ClientId(7);
        m.handle(t0, ServerInput::PeerDisconnected { client });
        assert_eq!(m.stats().unreachable, 2, "one row per volume");
        assert_eq!(m.stats().disconnects, 1, "one connection dropped");
        // Either volume now forces the full handshake.
        for (volume, epoch) in [(VolumeId(0), Epoch(0)), (VolumeId(5), Epoch(1))] {
            let actions = m.handle(t0, msg(7, ClientMsg::ReqVolLease { volume, epoch }));
            assert!(matches!(
                sends(&actions)[..],
                [(_, ServerMsg::MustRenewAll { volume: v })] if *v == volume
            ));
        }
    }

    /// `handle_into` appends to a buffer the driver drains and reuses,
    /// and grants that share an expiry share one `Persist`.
    #[test]
    fn handle_into_appends_and_same_millisecond_grants_persist_once() {
        let mut m = machine_with_object_one();
        let req = |client| {
            let (volume, epoch) = (VolumeId(0), Epoch(0));
            msg(client, ClientMsg::ReqVolLease { volume, epoch })
        };
        let mut actions = m.handle(Timestamp::from_secs(1), req(7));
        assert!(matches!(
            actions[..],
            [ServerAction::Send { .. }, ServerAction::Persist { .. }]
        ));
        m.handle_into(Timestamp::from_secs(1), req(8), &mut actions);
        assert!(matches!(actions[2..], [ServerAction::Send { .. }]));
        actions.clear();
        m.handle_into(Timestamp::from_millis(1001), req(9), &mut actions);
        assert!(matches!(
            actions[..],
            [ServerAction::Send { .. }, ServerAction::Persist { .. }]
        ));
    }

    /// A driver's stable file: each [`ServerAction::Persist`] overwrites it.
    fn store(record: &mut StableState, actions: &[ServerAction]) {
        for action in actions {
            if let ServerAction::Persist { state } = action {
                *record = *state;
            }
        }
    }

    /// A machine with t_v = 10 s whose client 7 was granted the home
    /// volume's lease at 90 s, and the stable record that left behind.
    fn lease_until_100s(
        mut m: ServerMachine,
        mut record: StableState,
    ) -> (ServerMachine, StableState) {
        let req = ClientMsg::ReqVolLease {
            volume: VolumeId(0),
            epoch: Epoch(0),
        };
        let actions = m.handle(Timestamp::from_secs(90), msg(7, req));
        assert!(matches!(
            sends(&actions)[..],
            [(_, ServerMsg::VolLease { expire, .. })] if *expire == Timestamp::from_secs(100)
        ));
        store(&mut record, &actions);
        assert_eq!(record.max_volume_expiry, Timestamp::from_secs(100));
        (m, record)
    }

    fn ten_second_volume_leases() -> MachineConfig {
        MachineConfig {
            volume_lease: Duration::from_secs(10),
            ..MachineConfig::new(ServerId(0))
        }
    }

    /// §3.1.2 across PR 9's handoff: the manifest of a volume adopted at
    /// 91 s bounds the loser's leases at 95 s, below the 100 s already
    /// owed here. The record used to be overwritten with the newer,
    /// smaller bound, so a reboot at 96 s wrote under a valid lease.
    #[test]
    fn adopting_a_volume_never_lowers_the_stable_bound() {
        let cfg = ten_second_volume_leases();
        let (m, boot) = ServerMachine::new(cfg, None);
        let mut record = StableState::default();
        store(&mut record, &boot);
        let (mut m, mut record) = lease_until_100s(m, record);
        let manifest = PeerMsg::Handoff {
            volume: VolumeId(5),
            epoch: Epoch(1),
            max_vol_expiry: Timestamp::from_secs(95),
            objects: vec![(ObjectId(50), Version(3), Bytes::from_static(b"x"))],
        };
        let adopt = ServerInput::Peer {
            from: ServerId(99),
            msg: manifest,
        };
        store(&mut record, &m.handle(Timestamp::from_secs(91), adopt));
        assert_eq!(record.max_volume_expiry, Timestamp::from_secs(100));

        // Crash at 92 s, reboot at 96 s: client 7's lease runs to 100 s.
        let (mut m, _) = ServerMachine::new(cfg, Some(record));
        let (object, data) = (ObjectId(1), Bytes::from_static(b"b"));
        let actions = m.handle(
            Timestamp::from_secs(96),
            ServerInput::Write { object, data },
        );
        assert!(outcomes(&actions).is_empty(), "{actions:?}");
        assert_eq!(write_wait(&actions), Some(Timestamp::from_secs(100)));
        let actions = m.handle(Timestamp::from_secs(100), ServerInput::Tick);
        assert_eq!(outcomes(&actions).len(), 1);
    }

    /// The same from the losing side: a departing volume's bound (95 s)
    /// is owed to the record, and must not replace the 100 s it holds.
    #[test]
    fn handing_a_volume_off_never_lowers_the_stable_bound() {
        let (mut m, boot) = ServerMachine::new(ten_second_volume_leases(), None);
        let mut record = StableState::default();
        store(&mut record, &boot);
        let manifest = PeerMsg::Handoff {
            volume: VolumeId(5),
            epoch: Epoch(1),
            max_vol_expiry: Timestamp::from_secs(20),
            objects: Vec::new(),
        };
        let adopt = ServerInput::Peer {
            from: ServerId(99),
            msg: manifest,
        };
        store(&mut record, &m.handle(Timestamp::from_secs(10), adopt));
        let req = ClientMsg::ReqVolLease {
            volume: VolumeId(5),
            epoch: Epoch(1),
        };
        store(
            &mut record,
            &m.handle(Timestamp::from_secs(85), msg(7, req)),
        );
        assert_eq!(record.max_volume_expiry, Timestamp::from_secs(95));
        let (mut m, mut record) = lease_until_100s(m, record);

        let request = ServerInput::Peer {
            from: ServerId(99),
            msg: PeerMsg::HandoffRequest {
                volume: VolumeId(5),
                to: ServerId(2),
            },
        };
        let actions = m.handle(Timestamp::from_secs(91), request);
        assert!(matches!(
            peer_sends(&actions)[..],
            [(_, PeerMsg::Handoff { max_vol_expiry, .. })]
                if *max_vol_expiry == Timestamp::from_secs(95)
        ));
        store(&mut record, &actions);
        assert_eq!(record.max_volume_expiry, Timestamp::from_secs(100));
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
