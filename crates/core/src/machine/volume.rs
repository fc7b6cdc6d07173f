//! The paper's server for one volume as a pure state machine: Figure 3
//! plus the reconnection exchange (§3.1.1), the epoch and write gate of
//! crash recovery (§3.1.2) and delayed invalidations (§3.2).
//!
//! Server state and the write bound min(t, t_v) are per volume and no
//! lease crosses volumes, so all of it is one [`VolumeMachine`] value:
//! per object, Figure 2's `at` set of lease holders; per client, one
//! row ([`ClientState`]) — volume-lease expiry, [`Link`] (membership in
//! *Unreachable* and progress of the reconnection exchange) and
//! membership in *Inactive* with its queued invalidations; and the
//! write pipeline — the queue, the gate it stands at, the write in
//! progress with the requests deferred behind it. A handler reads and
//! writes one row and matches `Link` without a wildcard: adding a state,
//! or a message, is a compile error until every combination has an
//! answer. The writes of one volume complete in enqueue order and wait
//! for nothing outside it. Where the volume runs — which server, beside
//! which other volumes — is the router's business (`server.rs`), which
//! moves a volume by moving this value.

use super::server::{ServerAction, ServerStats};
use super::{MachineConfig, WriteMode, WriteOutcome};
use bytes::Bytes;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use vl_proto::{ClientMsg, ServerMsg};
use vl_types::{ClientId, Duration, Epoch, LeaseSet, ObjectId, Timestamp, Version, VolumeId};

/// What a volume machine sees of the server it runs in: the protocol
/// parameters, and where its effects go. The router owns the one
/// instance, so counters outlive the volume that bumped them.
pub(super) struct Host {
    pub(super) cfg: MachineConfig,
    pub(super) actions: Vec<ServerAction>,
    pub(super) stats: ServerStats,
    /// Latest lease deadline granted since the last
    /// [`ServerAction::Persist`]; [`Timestamp::ZERO`] when none is owed.
    pub(super) unpersisted: Timestamp,
}

impl Host {
    pub(super) fn send(&mut self, to: ClientId, msg: ServerMsg) {
        self.stats.msgs_out += 1;
        self.actions.push(ServerAction::Send { to, msg });
    }
}

struct ObjState {
    data: Bytes,
    version: Version,
    leases: LeaseSet,
    /// Clients the latest write sent an `INVALIDATE` and that have
    /// neither acked it nor been granted a lease since. Acks carry no
    /// version, so this is what ties an ack to the lease it answers.
    awaiting_ack: BTreeSet<ClientId>,
}

impl ObjState {
    fn new(data: Bytes, version: Version) -> ObjState {
        ObjState {
            data,
            version,
            leases: LeaseSet::new(),
            awaiting_ack: BTreeSet::new(),
        }
    }

    /// Records a lease for `client`; whatever ack it still owed
    /// answered an older lease than this one. Returns whether `client`
    /// held none here before.
    fn grant(&mut self, client: ClientId, expire: Timestamp) -> bool {
        let fresh = self.leases.grant(client, expire).is_none();
        self.awaiting_ack.remove(&client);
        fresh
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
    /// Whose row this is.
    client: ClientId,
    /// Volume-lease expiry; `None` until the first grant.
    lease: Option<Timestamp>,
    link: Link,
    /// Queued invalidations; `Some` is membership in *Inactive*.
    queued: Option<Box<Inactive>>,
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

/// The client rows in first-seen order, and which row each id has. Ids
/// come off the wire, so they cannot index the rows themselves. No row
/// is ever removed, so none moves, and a walk over the rows goes in an
/// order the inputs alone decide, whatever the hasher.
#[derive(Default)]
struct Clients {
    rows: Vec<ClientState>,
    row_of: HashMap<ClientId, u32>,
}

impl Clients {
    fn get(&self, client: ClientId) -> Option<&ClientState> {
        let &i = self.row_of.get(&client)?;
        Some(&self.rows[i as usize])
    }

    fn get_mut(&mut self, client: ClientId) -> Option<&mut ClientState> {
        let &i = self.row_of.get(&client)?;
        Some(&mut self.rows[i as usize])
    }

    /// `client`'s row, appended empty if it has none yet.
    fn row(&mut self, client: ClientId) -> &mut ClientState {
        let rows = &mut self.rows;
        let &mut i = self.row_of.entry(client).or_insert_with(|| {
            rows.push(ClientState {
                client,
                ..ClientState::default()
            });
            (rows.len() - 1) as u32
        });
        &mut rows[i as usize]
    }
}

struct ActiveWrite {
    object: ObjectId,
    data: Bytes,
    /// Holders neither acked nor waited out, each with the instant it
    /// may be waited out ([`wait_out_at`]). An index over the lease
    /// tables, not a snapshot: what moves an outstanding holder's lease
    /// mid-write moves its entry ([`follow`](ActiveWrite::follow)), or
    /// the write commits at a deadline the leases no longer have.
    outstanding: BTreeMap<ClientId, Timestamp>,
    /// The same pairs by deadline; the front is the volume's `wait_until`.
    by_deadline: BTreeSet<(Timestamp, ClientId)>,
    started: Timestamp,
    /// What the commit will report, filled in as the write goes.
    outcome: WriteOutcome,
    /// Lease requests touching `object` that arrived mid-write. Granting
    /// them immediately would hand out a fresh lease on the about-to-be
    /// overwritten data to a client the writer never contacts — a stale
    /// lease the moment the write commits. They are replayed after the
    /// commit instead.
    deferred: Vec<(ClientId, ClientMsg)>,
}

impl ActiveWrite {
    /// `client` no longer holds the write up.
    fn settle(&mut self, client: ClientId) {
        if let Some(at) = self.outstanding.remove(&client) {
            self.by_deadline.remove(&(at, client));
        }
    }

    /// Starts waiting for `holders`, ⟨client, deadline⟩ by ascending
    /// client; both orderings are built in bulk from sorted runs.
    fn await_holders(&mut self, holders: Vec<(ClientId, Timestamp)>) {
        self.by_deadline = holders.iter().map(|&(c, at)| (at, c)).collect();
        self.outstanding = holders.into_iter().collect();
    }

    /// `client`, outstanding, may now be waited out at `at`.
    fn follow(&mut self, client: ClientId, at: Timestamp) {
        self.settle(client);
        self.outstanding.insert(client, at);
        self.by_deadline.insert((at, client));
    }
}

/// When a write may stop waiting for `client`'s ack: once either of its
/// leases expires — min(t, t_v), the paper's write bound. Under
/// self-invalidation only the object deadline counts — clients hold no
/// volume leases, and the elapsed deadline is the protocol working as
/// designed, not an unreachable client. A lease that is gone altogether
/// holds nothing up.
fn wait_out_at(
    obj: &ObjState,
    clients: &Clients,
    client: ClientId,
    now: Timestamp,
    self_inval: bool,
) -> Timestamp {
    let at = obj.leases.expiry_of(client).unwrap_or(now);
    if self_inval {
        return at;
    }
    let vol = clients.get(client).and_then(|row| row.lease);
    at.min(vol.unwrap_or(now))
}

/// What a volume takes to its next owner: the handoff manifest, and the
/// writes its leaving cut short.
pub(super) struct Departure {
    /// The volume's epoch, bumped past every lease granted here.
    pub(super) epoch: Epoch,
    /// The bound on every volume lease granted here.
    pub(super) max_vol_expiry: Timestamp,
    /// Every object, by ascending id so the wire image is deterministic.
    pub(super) objects: Vec<(ObjectId, Version, Bytes)>,
    /// Every write that had not committed — the active one, then the
    /// queue — by object and enqueue time.
    pub(super) aborted: Vec<(ObjectId, Timestamp)>,
    /// The requests deferred behind the active write.
    pub(super) deferred: Vec<(ClientId, ClientMsg)>,
}

/// The server state of one volume; see the module docs.
#[derive(Default)]
pub(super) struct VolumeMachine {
    pub(super) epoch: Epoch,
    /// Generalizes the crash-recovery gate (§3.1.2): no write starts
    /// here until it passes, whether it came from a reboot or from
    /// adopting the volume in a handoff.
    pub(super) write_gate: Timestamp,
    clients: Clients,
    objects: HashMap<ObjectId, ObjState>,
    /// Writes not yet started, with their enqueue times, oldest first.
    queued_writes: VecDeque<(ObjectId, Bytes, Timestamp)>,
    write: Option<ActiveWrite>,
    /// Until when the active write can stay blocked at most, as of the
    /// last [`advance_write`](VolumeMachine::advance_write); `None`
    /// when no write is active.
    wait_until: Option<Timestamp>,
    /// When [`demote_overdue`](VolumeMachine::demote_overdue) next has
    /// work: the earliest `since + d` its last pass saw — or at once,
    /// after an input has reached this volume.
    demotion_due: Option<Timestamp>,
}

impl VolumeMachine {
    /// A volume with no objects and no clients, serving at `epoch` once
    /// `write_gate` has passed.
    pub(super) fn new(epoch: Epoch, write_gate: Timestamp) -> VolumeMachine {
        VolumeMachine {
            epoch,
            write_gate,
            ..VolumeMachine::default()
        }
    }

    /// Adds this volume's *Unreachable* and *Inactive* populations.
    pub(super) fn count_clients(&self, stats: &mut ServerStats) {
        for row in &self.clients.rows {
            stats.unreachable += usize::from(row.link.in_unreachable_set());
            stats.inactive += usize::from(row.queued.is_some());
        }
    }

    /// Adds `object` unless it exists; see `ServerInput::CreateObject`.
    pub(super) fn create_object(&mut self, object: ObjectId, data: Bytes, version: Version) {
        self.objects
            .entry(object)
            .or_insert_with(|| ObjState::new(data, version));
    }

    /// Live-path connection loss (§3.1.1). Deliberately *minimal*: the
    /// client keeps every lease it holds (it may be alive behind a
    /// partition, serving cached reads that stay consistent exactly
    /// because we keep waiting its leases out), but it joins the
    /// Unreachable set, so its next `REQ_VOL_LEASE` is forced through
    /// the full reconnection handshake. Returns whether that is news; a
    /// client with no state here is ignored — there is nothing to
    /// resynchronize.
    pub(super) fn peer_disconnected(&mut self, client: ClientId) -> bool {
        let Some(row) = self.clients.get_mut(client) else {
            return false;
        };
        let newly = !row.link.in_unreachable_set();
        // A half-finished handshake died with the connection; the
        // next REQ_VOL_LEASE restarts it from the top.
        row.link = Link::Unreachable;
        newly
    }

    pub(super) fn handle_msg(
        &mut self,
        now: Timestamp,
        client: ClientId,
        msg: ClientMsg,
        host: &mut Host,
    ) {
        self.demotion_due = Some(Timestamp::ZERO);
        // Requests that would grant a lease on the object currently being
        // written are deferred until the write commits (see ActiveWrite).
        if let Some(w) = &mut self.write {
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
                let Some(obj) = self.objects.get_mut(&object) else {
                    host.stats.unknown_objects += 1;
                    return;
                };
                let expire = now.saturating_add(host.cfg.object_lease);
                // The reply carries the client-clock deadline; under
                // self-invalidation the server records it padded by ε —
                // a client slow by up to ε believes its copy valid
                // until `expire + ε` true time, and that is what a
                // write must wait out.
                let pad = host.cfg.self_inval.unwrap_or(Duration::ZERO);
                let record = expire.saturating_add(pad);
                // A first grant makes the client's row; a renewal finds
                // it made.
                if obj.grant(client, record) {
                    self.clients.row(client);
                }
                let data = (obj.version != version).then(|| obj.data.clone());
                let reply = ServerMsg::ObjLease {
                    object,
                    version: obj.version,
                    expire,
                    data,
                };
                if host.cfg.self_inval.is_some() {
                    // No volume leases gate a recovered server here, so
                    // the stable record must bound *object* deadlines:
                    // a post-crash write waits them out via the gate.
                    host.unpersisted = host.unpersisted.max(record);
                }
                host.send(client, reply);
            }
            ClientMsg::ReqVolLease { volume, epoch } => {
                let row = self.clients.row(client);
                match row.link {
                    Link::Reachable if epoch == self.epoch => {}
                    Link::Reachable | Link::Unreachable | Link::AwaitLeaseSet | Link::AwaitAck => {
                        // Stale epoch or known-unreachable: force the
                        // reconnection protocol (§3.1.1 / §3.1.2), from
                        // the top if one was already under way.
                        row.link = Link::AwaitLeaseSet;
                        host.send(client, ServerMsg::MustRenewAll { volume });
                        return;
                    }
                }
                let expire = now.saturating_add(host.cfg.volume_lease);
                let reply = row.grant(volume, self.epoch, expire);
                host.unpersisted = host.unpersisted.max(expire);
                host.send(client, reply);
                // Retransmit an unacked invalidation on contact: the
                // renewal proves the client is reachable again, and
                // without this a client whose INVALIDATE was lost could
                // renew t_v indefinitely while the write waits out the
                // full object lease.
                if let Some(object) = self.vol_granted(now, client, host) {
                    host.send(client, ServerMsg::Invalidate { object });
                }
            }
            ClientMsg::RenewObjLeases { volume, leases } => {
                let Some(row) = self.clients.get_mut(client) else {
                    return;
                };
                match row.link {
                    Link::AwaitLeaseSet => {}
                    // Answers no MUST_RENEW_ALL of ours (or one whose
                    // exchange has already moved on): ignored.
                    Link::Reachable | Link::Unreachable | Link::AwaitAck => return,
                }
                let t = host.cfg.object_lease;
                let pad = host.cfg.self_inval.unwrap_or(Duration::ZERO);
                let mut invalidate = Vec::new();
                let mut renew = Vec::new();
                for (object, version) in leases {
                    // The verdict below settles this object either way.
                    if let Some(queued) = &mut row.queued {
                        queued.pending.remove(&object);
                    }
                    match self.objects.get_mut(&object) {
                        Some(obj) if obj.version == version => {
                            let expire = now.saturating_add(t);
                            obj.grant(client, expire.saturating_add(pad));
                            renew.push((object, obj.version, expire));
                        }
                        // A stale copy — or an object this volume does
                        // not have: the client's copy cannot be trusted
                        // to track this volume's epoch.
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
                host.send(
                    client,
                    ServerMsg::InvalRenew {
                        volume,
                        invalidate,
                        renew,
                    },
                );
            }
            ClientMsg::AckInvalidate { object } => {
                // The client dropped its copy: its lease is gone too —
                // but only the lease the invalidation was sent for. A
                // duplicate ack (a renewal mid-write re-sends
                // INVALIDATE) or one overtaken by the client's refetch
                // answers nothing and must not touch the fresh lease.
                let awaited = self.objects.get_mut(&object).is_some_and(|obj| {
                    let awaited = obj.awaiting_ack.remove(&client);
                    if awaited {
                        obj.leases.revoke(client);
                    }
                    awaited
                });
                if !awaited {
                    host.stats.stale_acks += 1;
                    return;
                }
                if let Some(w) = self.write.as_mut().filter(|w| w.object == object) {
                    w.settle(client);
                }
            }
            ClientMsg::AckVolBatch { volume } => {
                let Some(row) = self.clients.get_mut(client) else {
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
                        let expire = now.saturating_add(host.cfg.volume_lease);
                        let reply = row.grant(volume, self.epoch, expire);
                        host.stats.reconnections += 1;
                        host.unpersisted = host.unpersisted.max(expire);
                        host.send(client, reply);
                        self.vol_granted(now, client, host);
                    }
                    // Ack for a pending batch delivered with a grant.
                    Link::Reachable | Link::Unreachable => row.queued = None,
                    // Every grant that carried a batch predates the
                    // MUST_RENEW_ALL now outstanding, and so does this
                    // ack (a restarted exchange's first INVAL_RENEW, or
                    // an old batch): it says nothing about what has
                    // been queued since.
                    Link::AwaitLeaseSet => host.stats.stale_acks += 1,
                }
            }
        }
    }

    /// `client` was just granted a volume lease, which moves its
    /// min(t, t_v) later: if the active write awaits `client` the
    /// deadline follows, and the object being written is returned.
    fn vol_granted(&mut self, now: Timestamp, client: ClientId, host: &Host) -> Option<ObjectId> {
        let w = (self.write.as_mut()).filter(|w| w.outstanding.contains_key(&client))?;
        let (obj, self_inval) = (&self.objects[&w.object], host.cfg.self_inval.is_some());
        let at = wait_out_at(obj, &self.clients, client, now, self_inval);
        w.follow(client, at);
        Some(w.object)
    }

    /// Queues the write of `data` to `object`, asked for at `now`.
    pub(super) fn enqueue_write(&mut self, now: Timestamp, object: ObjectId, data: Bytes) {
        self.queued_writes.push_back((object, data, now));
    }

    /// Runs the pipeline as far as it goes: advances the active write,
    /// then starts the next one, until a write blocks, the head of the
    /// queue stands at the write gate, or the queue is empty.
    pub(super) fn pump_writes(&mut self, now: Timestamp, host: &mut Host) {
        while !self.advance_write(now, host) && now >= self.write_gate {
            let Some((object, data, enqueued)) = self.queued_writes.pop_front() else {
                return;
            };
            self.start_write(now, object, data, enqueued, host);
        }
    }

    /// When the pipeline can next make progress: the active write's
    /// `wait_until`, else the gate its queue stands at.
    pub(super) fn write_deadline(&self) -> Option<Timestamp> {
        let gated = || (!self.queued_writes.is_empty()).then_some(self.write_gate);
        self.wait_until.or_else(gated)
    }

    /// Begins the write of `data` to `object` that was enqueued at
    /// `enqueued`: invalidates or queues for every valid holder.
    /// [`pump_writes`](VolumeMachine::pump_writes) has checked the write
    /// gate and that no write is active, and advances it next.
    fn start_write(
        &mut self,
        now: Timestamp,
        object: ObjectId,
        data: Bytes,
        enqueued: Timestamp,
        host: &mut Host,
    ) {
        self.demotion_due = Some(Timestamp::ZERO);
        let Some(obj) = self.objects.get_mut(&object) else {
            // Writing an unknown object creates it.
            self.objects
                .insert(object, ObjState::new(data, Version::FIRST));
            host.stats.writes += 1;
            host.actions.push(ServerAction::CompleteWrite {
                outcome: WriteOutcome {
                    object,
                    version: Version::FIRST,
                    ..WriteOutcome::default()
                },
            });
            return;
        };
        let valid = obj.leases.iter().filter(|&(_, expire)| expire > now);
        let mut holders: Vec<(ClientId, Timestamp)> = valid.collect();
        let mut w = ActiveWrite {
            object,
            data,
            outstanding: BTreeMap::new(),
            by_deadline: BTreeSet::new(),
            // Delay is measured from when the writer asked, so recovery
            // gating and queueing count toward it.
            started: enqueued,
            outcome: WriteOutcome::default(),
            deferred: Vec::new(),
        };
        if host.cfg.self_inval.is_some() {
            // Self-invalidation sends nothing: every holder is simply
            // outstanding until its (ε-padded) deadline passes. Best
            // effort does not apply — with no volume lease to fence
            // stragglers, skipping the wait would break consistency.
            w.await_holders(holders);
            self.write = Some(w);
            return;
        }
        // Classification is purely by server-side volume-lease validity.
        // Clients in `unreachable` are NOT skipped: a waited-out holder
        // can still have a valid volume lease (its *object* lease is
        // what expired), and skipping it would let it read a stale copy.
        host.actions.reserve(holders.len());
        holders.retain_mut(|&mut (client, ref mut at)| {
            let row = self.clients.row(client);
            if let Some(vol) = row.lease.filter(|_| row.lease_valid(now)) {
                *at = vol.min(*at);
                w.outcome.invalidations_sent += 1;
                host.send(client, ServerMsg::Invalidate { object });
                true
            } else {
                // Delayed invalidation: queue it and drop the lease.
                let since = row.lease.unwrap_or(now).min(now);
                let pending = BTreeSet::new();
                let queued =
                    (row.queued).get_or_insert_with(|| Box::new(Inactive { since, pending }));
                queued.pending.insert(object);
                obj.leases.revoke(client);
                w.outcome.queued += 1;
                false
            }
        });
        obj.awaiting_ack = holders.iter().map(|&(client, _)| client).collect();
        // Best effort proceeds without waiting; t_v fences stragglers.
        if host.cfg.write_mode != WriteMode::BestEffort {
            w.await_holders(holders);
        }
        self.write = Some(w);
    }

    /// Advances the active write: waits out the holders at the front of
    /// its index whose deadline has come, notes the earliest deadline
    /// still ahead, and once nobody is outstanding commits and replays
    /// the deferred lease requests against the new version. Returns
    /// whether a write is still blocked.
    fn advance_write(&mut self, now: Timestamp, host: &mut Host) -> bool {
        let Some(w) = &mut self.write else {
            return false;
        };
        let obj = (self.objects.get_mut(&w.object)).expect("a write's target exists");
        let self_inval = host.cfg.self_inval.is_some();
        let clients = &mut self.clients;
        // The pass over everyone outstanding that the index replaced
        // stays as its reference: what it would compute from the tables
        // is what the index holds, deadlines already due aside (a lease
        // that is gone is due "now", whenever that is).
        debug_assert!(w.outstanding.iter().all(|(&c, &at)| {
            let table = wait_out_at(obj, clients, c, now, self_inval);
            at == table || at.max(table) <= now
        }));
        while let Some(&(_, c)) = w.by_deadline.first().filter(|&&(at, _)| at <= now) {
            w.settle(c);
            obj.leases.revoke(c);
            if !self_inval {
                w.outcome.waited_out += 1;
                // Figure 3: unreachable ← unreachable ∪ To_contact.
                if let Some(row) = clients.get_mut(c) {
                    row.link.mark_unreachable();
                }
            }
        }
        self.wait_until = w.by_deadline.first().map(|&(at, _)| at);
        let tables = |&c| wait_out_at(obj, clients, c, now, self_inval);
        debug_assert_eq!(self.wait_until, w.outstanding.keys().map(tables).min());
        if self.wait_until.is_some() {
            return true;
        }
        // Commit.
        let mut w = self.write.take().expect("checked above");
        obj.version = obj.version.next();
        obj.data = w.data;
        w.outcome.object = w.object;
        w.outcome.version = obj.version;
        w.outcome.delay = now.saturating_sub(w.started);
        host.stats.writes += 1;
        host.stats.max_write_delay = host.stats.max_write_delay.max(w.outcome.delay);
        let outcome = w.outcome;
        host.actions.push(ServerAction::CompleteWrite { outcome });
        for (client, msg) in w.deferred {
            self.handle_msg(now, client, msg, host);
        }
        false
    }

    /// §3.2: a client inactive for longer than `d` joins Unreachable and
    /// loses its queue and its object leases. Returns when the next one
    /// falls due. With `d` set this walks the whole client table, but
    /// only when an input has reached this volume since the last pass
    /// or the deadline that pass found has come; a pass that demotes
    /// anyone also walks every object once, since no row says which
    /// objects its client holds.
    pub(super) fn demote_overdue(&mut self, now: Timestamp, host: &mut Host) -> Option<Timestamp> {
        let d = host.cfg.inactive_discard?;
        if self.demotion_due.is_none_or(|at| now < at) {
            return self.demotion_due;
        }
        self.demotion_due = None;
        let mut demoted = Vec::new();
        for row in &mut self.clients.rows {
            let Some(due) = row.queued.as_ref().map(|i| i.since.saturating_add(d)) else {
                continue;
            };
            if now < due {
                self.demotion_due = Some(self.demotion_due.map_or(due, |at| at.min(due)));
                continue;
            }
            row.queued = None;
            row.link.mark_unreachable();
            host.stats.demotions += 1;
            demoted.push(row.client);
        }
        if !demoted.is_empty() {
            for obj in self.objects.values_mut() {
                for &client in &demoted {
                    obj.leases.revoke(client);
                }
            }
        }
        for client in demoted {
            // With its object lease gone, a holder the active write
            // still awaits can be waited out at once.
            if let Some(w) = (self.write.as_mut()).filter(|w| w.outstanding.contains_key(&client)) {
                w.follow(client, now);
                self.wait_until = Some(now);
            }
        }
        self.demotion_due
    }

    /// Gives the volume up: bumps its epoch past every lease granted
    /// here and packs what the next owner needs. Every uncommitted
    /// write is aborted; the writers retry at the new owner.
    pub(super) fn depart(self) -> Departure {
        let mut objects: Vec<(ObjectId, Version, Bytes)> = (self.objects.into_iter())
            .map(|(id, o)| (id, o.version, o.data))
            .collect();
        objects.sort_unstable_by_key(|&(id, ..)| id);
        Departure {
            epoch: self.epoch.next(),
            // Grants only ever move a client's expiry forward.
            max_vol_expiry: (self.clients.rows.iter().filter_map(|c| c.lease).max())
                .unwrap_or(Timestamp::ZERO),
            objects,
            aborted: (self.write.iter().map(|w| (w.object, w.started)))
                .chain(self.queued_writes.iter().map(|&(o, _, at)| (o, at)))
                .collect(),
            deferred: self.write.map_or(Vec::new(), |w| w.deferred),
        }
    }

    #[cfg(test)]
    pub(super) fn lease_valid_for(
        &self,
        object: ObjectId,
        client: ClientId,
        now: Timestamp,
    ) -> bool {
        self.objects[&object].leases.is_valid_for(client, now)
    }
}
